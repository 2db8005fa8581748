"""The benchmark's workloads: fixed slope sets, the seeded order and tamper
plan, and the values every certificate is checked against.

A slope is kept as a reduced pair (p, q) with q >= 1.  The seed only
permutes the order of the slopes and picks the tamper targets; the sets
themselves never change, so every metric compares like with like.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

TAMPER_KINDS = ("linking", "gives", "rank_fact", "edge")

# Tampered certificates per positive-branch slope in the set (at least one
# per mutation kind).
TAMPER_SHARE = 1 / 16


@dataclass(frozen=True)
class Spec:
    """A workload: its slopes in canonical order, the fewest whole passes a
    timed run makes, and the percentile of the certificates' times reported
    as its tail: the highest that leaves at least ten certificates beyond
    it, except on tower, which has only five.
    """

    name: str
    pairs: tuple[tuple[int, int], ...]
    min_passes: int
    tail_pct: int


def _fib(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def tower_pairs():
    """Slopes S/(S-1), whose certificates climb the tower ladder to stage S,
    for S = 8, 16, 24, 32, 40.

    Stage 40 already gives a 1.2 MB certificate.  Stages up to 80 took over
    2 s each, so a run measured each certificate only about five times,
    and their times spread by more than a quarter from run to run.
    """
    return tuple((s, s - 1) for s in range(8, 41, 8))


def grid_pairs():
    """Every reduced p/q with |p| <= 30 and 1 <= q <= 30: 1111 slopes,
    slope 0 included and the excluded slope 1 among them."""
    return tuple(
        (p, q)
        for q in range(1, 31)
        for p in range(-30, 31)
        if math.gcd(p, q) == 1
    )


def chain_pairs():
    """Slopes whose +/-1 presentation is a long (-1)-chain at stage <= 3."""
    out = [(-1, m) for m in (5, 10, 20, 40)]  # stage-1 path of m nodes
    out += [(n - 1, 2 * n - 1) for n in (25, 50, 100, 200, 300)]  # Stein, n knots
    out += [(-a, 1) for a in (250, 500, 1000, 2000, 4000)]  # a stabilizations
    for k in range(5, 41):  # Fibonacci ratios on both sides of 1
        out += [(_fib(k + 1), _fib(k)), (_fib(k), _fib(k + 1))]
    return tuple(out)


def spec(name: str) -> Spec:
    if name == "tower":
        # p90 of five certificates is the slowest, stage 40.
        return Spec(name, tower_pairs(), min_passes=3, tail_pct=90)
    if name == "grid":
        return Spec(name, grid_pairs(), min_passes=2, tail_pct=99)
    if name == "chain":
        return Spec(name, chain_pairs(), min_passes=1, tail_pct=88)  # of 86
    raise KeyError(f"unknown workload {name!r}")


NAMES = ("tower", "grid", "chain")


# ---------------------------------------------------------------------------
# Values computed from the slope alone
# ---------------------------------------------------------------------------


def expected_stage(p: int, q: int) -> int:
    """Engine stage for slope p/q, from the companion coefficient
    rp = (r - 1)/r: 0 when rp is negative or infinite, rp.den when rp is a
    unit fraction, floor(rp.den/rp.num) + 1 otherwise.  Slope 1 has none."""
    if p == q:
        raise ValueError("slope 1 is excluded")
    if p == 0:
        return 0
    num, den = p - q, p
    if den < 0:
        num, den = -num, -den
    if num < 0:
        return 0
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return den if num == 1 else den // num + 1


def expected_root_group(p: int) -> str:
    """First homology of p/q-surgery on the trefoil, Z/|p| (Z for p = 0),
    in the certificate's "free:torsion" text."""
    if p == 0:
        return "1:"
    return "0:" if abs(p) == 1 else f"0:{abs(p)}"


# ---------------------------------------------------------------------------
# Seeded order and tamper plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Plan:
    """``order`` indexes the slopes in the order a pass visits them;
    ``tamper`` maps a slope index to (mutation kind, mutation seed);
    ``echo`` is the slope emitted once more to check determinism."""

    order: tuple[int, ...]
    tamper: dict
    echo: int


def plan(pairs, seed: int) -> Plan:
    rng = random.Random(f"perfbench:{seed}")
    order = list(range(len(pairs)))
    rng.shuffle(order)
    candidates = [
        i for i, (p, q) in enumerate(pairs) if p != q and expected_stage(p, q) >= 1
    ]
    count = min(len(candidates), max(len(TAMPER_KINDS), round(len(candidates) * TAMPER_SHARE)))
    targets = rng.sample(candidates, count)
    tamper = {
        idx: (TAMPER_KINDS[k % len(TAMPER_KINDS)], rng.getrandbits(32))
        for k, idx in enumerate(targets)
    }
    echo = rng.choice([i for i, pair in enumerate(pairs) if pair != (1, 1)])
    return Plan(tuple(order), tamper, echo)


def tamper(data: dict, kind: str, subseed: int):
    """Mutate a parsed positive-branch certificate in place; returns a
    function that undoes the mutation.

    linking    one linking number of a ladder or path node, plus one
    gives      one step's derived fact, moved to another node
    rank_fact  one rank fact, plus one
    edge       one ladder edge's target, moved to another ladder node

    Path edges are not repointed: the last path node and the top ladder
    node carry isomorphic presentations, and stage 1 cancels to the empty
    one, so a repointed path edge can still make a valid certificate.
    """
    rng = random.Random(subseed)
    node_ids = [n["id"] for n in data["nodes"]]
    if kind == "linking":
        sites = [
            lk
            for n in data["nodes"]
            if n["diagram"] is not None
            for lk in n["diagram"]["linkings"]
        ]
        container, key = rng.choice(sites), 2
        new = container[key] + 1
    elif kind == "gives":
        container, key = rng.choice(data["steps"])["gives"], 1
        new = rng.choice([n for n in node_ids if n != container[key]])
    elif kind == "rank_fact":
        container = data["rank_facts"]
        key = rng.choice(list(container))
        new = container[key] + 1
    elif kind == "edge":
        ladder = [n for n in node_ids if not n.startswith("y")]
        container, key = rng.choice([e for e in data["edges"] if e["src"] in ladder]), "dst"
        new = rng.choice([n for n in ladder if n not in (container["src"], container["dst"])])
    else:
        raise KeyError(f"unknown mutation {kind!r}")
    old = container[key]
    container[key] = new

    def undo():
        container[key] = old

    return undo
