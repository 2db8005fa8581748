"""Rank bookkeeping for the homology theory underlying the certificates.

The engine never computes the homology of anything.  It starts from a
small table of known total ranks (over the two-element field), feeds them
through the dimension constraints of surgery exact triangles, and narrows
intervals until nothing changes.  A triangle with summed dimensions a, b, c
carries three maps f: A -> B, g: B -> C, h: C -> A with

    rank f = (a + b - c) / 2
    rank g = (-a + b + c) / 2
    rank h = (a - b + c) / 2

so a + b + c must be even and each expression non-negative; f is injective
exactly when rank h = 0 (equivalently b = a + c), and similarly around the
triangle.  Conversely, knowing two of the dimensions confines the third to
[|a - b|, a + b] with matching parity — that interval arithmetic is what
``propagate`` iterates.

``propagate`` narrows a vertex's interval from the other two, L and R:
its lower end rises to L.lo - R.hi and to R.lo - L.hi, its upper end falls
to L.hi + R.hi, and when L and R are exact both ends move inward to the
parity of L + R.  It is an indexed kernel over a compiled index of the
triangles (``_compile``): each distinct manifold's slot, numbered at its
first touch, the interval a slot starts from when the database has no
fact for it (``_start``), the live triangles with their three narrowing
steps, and the slots each one registers.  ``engine_triangles`` is
memoized with a bounded cache and compiles the index of its family once,
kept with the family in that cache entry together with a table of the
index's manifolds by name, through which the certificate reader resolves
rank-fact keys; any other iterable is compiled on each call.  No result
is kept: every call seeds the slots from its database's own facts,
narrows with plain ints, passes over a triangle whose three ranks are
exact and already fit (no vertex of it can narrow), and writes back into
its database copy only the facts that changed; a registered slot that
kept its starting interval gets the index's own immutable ``Interval``.
It visits the triangles in the same round-robin order as a loop over
``RankDb`` would and registers each manifold at its first touch, so the narrowed database (its order included), the pass count
and the first contradiction are the same as such a loop gives, also when
a contradiction stops the first pass partway.  ``engine_triangles`` is a
pure function of the stage and returns an immutable tuple, in which
equal vertices of the instances propagation visits are one object.

A contradiction (empty interval) is reported as a first-class result with
the offending triangle attached, not raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import CalculusError, NoExactTriangleError
from .topology import Manifold


# ---------------------------------------------------------------------------
# Triangle dimension identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriangleSolution:
    """Ranks of the three maps in an exact triangle with dimensions (a, b, c),
    plus the injectivity/surjectivity facts those ranks force."""

    dims: tuple[int, int, int]
    rank_f: int
    rank_g: int
    rank_h: int

    @property
    def f_injective(self) -> bool:
        return self.rank_h == 0

    @property
    def f_surjective(self) -> bool:
        return self.rank_g == 0

    @property
    def g_injective(self) -> bool:
        return self.rank_f == 0

    @property
    def g_surjective(self) -> bool:
        return self.rank_h == 0

    @property
    def h_injective(self) -> bool:
        return self.rank_g == 0

    @property
    def h_surjective(self) -> bool:
        return self.rank_f == 0


def triangle_solve(a: int, b: int, c: int) -> TriangleSolution:
    """Solve the three map ranks from the dimensions of an exact triangle."""
    dims = (a, b, c)
    for v in dims:
        if not isinstance(v, int) or v < 0:
            raise CalculusError(f"dimensions must be non-negative integers, got {dims}")
    if (a + b + c) % 2:
        raise NoExactTriangleError(
            f"dimensions {dims} have odd total; no exact triangle exists"
        )
    f2, g2, h2 = a + b - c, -a + b + c, a - b + c
    if f2 < 0 or g2 < 0 or h2 < 0:
        raise NoExactTriangleError(
            f"dimensions {dims} violate the triangle inequality; no exact triangle exists"
        )
    return TriangleSolution(dims, f2 // 2, g2 // 2, h2 // 2)


# ---------------------------------------------------------------------------
# Intervals and bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """Integer interval [lo, hi]; hi = None means unbounded above."""

    lo: int
    hi: int | None

    def __post_init__(self):
        if self.lo < 0:
            raise CalculusError("ranks are non-negative")
        if self.hi is not None and self.hi < self.lo:
            raise CalculusError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def exact(cls, value: int) -> "Interval":
        return cls(value, value)

    @classmethod
    def unknown(cls) -> "Interval":
        return cls(0, None)

    @property
    def is_exact(self) -> bool:
        return self.hi == self.lo

    def __str__(self) -> str:
        if self.is_exact:
            return str(self.lo)
        hi = "inf" if self.hi is None else str(self.hi)
        return f"[{self.lo}, {hi}]"


# ---------------------------------------------------------------------------
# The rank database
# ---------------------------------------------------------------------------


def _start(m: Manifold) -> tuple[int, int | None]:
    """The interval ends of a manifold the database has not seen."""
    return (m.p, m.p) if m.kind == "lens" else (0, None)


class RankDb:
    """Total-rank intervals keyed by manifold.

    Lens spaces are resolved lazily (rank = order of H1); anything else
    unseen starts at the unknown interval [0, inf).
    """

    def __init__(self, facts=None):
        self._facts: dict[Manifold, Interval] = dict(facts or {})

    def copy(self) -> "RankDb":
        return RankDb(self._facts)

    def fact(self, m: Manifold) -> Interval:
        got = self._facts.get(m)
        if got is None:
            got = self._facts[m] = Interval(*_start(m))
        return got

    def set_fact(self, m: Manifold, interval: Interval):
        self._facts[m] = interval

    def exact_value(self, m: Manifold) -> int:
        got = self.fact(m)
        if not got.is_exact:
            raise CalculusError(f"rank of {m.text()} is not pinned: {got}")
        return got.lo

    def items(self):
        return list(self._facts.items())

    def __contains__(self, m: Manifold) -> bool:
        return m in self._facts

    def __len__(self) -> int:
        return len(self._facts)


def base_facts() -> RankDb:
    """The seed table: rank 1 for the sphere, 2 for the circle bundle over
    the sphere, 1 for the Poincare sphere (total rank is orientation
    independent), and 1 for stage one of the reversed tower, which is the
    sphere again."""
    db = RankDb()
    db.set_fact(Manifold.s3(), Interval.exact(1))
    db.set_fact(Manifold.s1xs2(), Interval.exact(2))
    db.set_fact(Manifold.poincare(), Interval.exact(1))
    db.set_fact(Manifold.neg_tower(1), Interval.exact(1))
    return db


# ---------------------------------------------------------------------------
# Triangle instances and families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriangleInstance:
    """An exact triangle among three named manifolds, in map order
    a -> b -> c.  ``informational`` instances keep their place in the
    family, so the indexes certificates cite are stable, but propagation
    skips them and no certificate step may cite one (used where parameters
    leave the family's stated range and orders are only correct up to
    sign)."""

    a: Manifold
    b: Manifold
    c: Manifold
    informational: bool = False


def unknot_triangle() -> TriangleInstance:
    """The surgery triangle of the zero-framed unknot: sphere, circle
    bundle, sphere; dimensions (1, 2, 1) make the first map injective."""
    s3 = Manifold.s3()
    return TriangleInstance(s3, Manifold.s1xs2(), s3)


def tower_triangles(max_stage: int) -> list[TriangleInstance]:
    """The two triangle families that pin the reversed-tower ranks.

    For each stage k <= max_stage the consecutive-stage family
    (-tower(k), -tower(k+1), poincare) bounds neighbouring ranks, and the
    lens-space family (lens(7k-9, 7), lens(8k-9, 8), -tower(k)) pins the
    rank from below.  The k = 1 lens instance falls outside the family's
    parameter range (orders taken by absolute value) and is marked
    informational.  Each reversed stage and the Poincare sphere is one
    object, shared by every instance that names it.
    """
    if not isinstance(max_stage, int) or max_stage < 1:
        raise CalculusError(f"max stage must be a positive integer, got {max_stage!r}")
    neg = [Manifold.neg_tower(k) for k in range(1, max_stage + 2)]
    poincare = Manifold.poincare()
    out = [TriangleInstance(neg[k - 1], neg[k], poincare) for k in range(1, max_stage + 1)]
    for k in range(1, max_stage + 1):
        out.append(
            TriangleInstance(
                Manifold.lens(abs(7 * k - 9), 7),
                Manifold.lens(abs(8 * k - 9), 8),
                neg[k - 1],
                informational=(k == 1),
            )
        )
    return out


class _Family(tuple):
    """An engine family: its triangles, as a tuple; ``compiled``, the
    index ``propagate`` runs them by, compiled once with the family; and
    ``names``, each manifold that index registers keyed by its canonical
    name (``Manifold.text``), built once with it."""


@lru_cache(maxsize=8, typed=True)
def engine_triangles(max_stage: int) -> tuple[TriangleInstance, ...]:
    """Every triangle the rank engine runs on up to tower stage max_stage:
    the unknot triangle, then both tower families.

    Memoized for the 8 most recent stages: the family depends on the
    stage alone and the tuple and its instances are immutable.  Each entry
    also holds the family's compiled index (``_compile``) and the table of
    its manifolds by name, which live and die with it; no propagation
    result is kept.  The cache is typed, so a stage of another type (3.0)
    is never served the family of an int stage and still gets
    ``tower_triangles``' error."""
    family = _Family((unknot_triangle(),) + tuple(tower_triangles(max_stage)))
    family.compiled = _compile(family)
    family.names = {m.text(): m for m in family.compiled.names}
    return family


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Contradiction:
    """An empty interval discovered while narrowing ``manifold`` through
    ``triangle``."""

    triangle: TriangleInstance
    manifold: Manifold
    detail: str


@dataclass
class Propagation:
    """Result of a propagation run: the narrowed database, the number of
    full passes, and the first contradiction if one arose."""

    db: RankDb
    rounds: int
    contradiction: Contradiction | None = None

    @property
    def consistent(self) -> bool:
        return self.contradiction is None


@dataclass(frozen=True)
class _Index:
    """The part of a propagation over a triangle sequence that no database
    changes.  ``slot`` numbers each distinct manifold the first time a live
    (not informational) triangle names it, vertices in order a, b, c, and
    ``names`` lists them by slot; ``start`` holds the interval each slot
    starts from when the database has no fact for it (``_start``), and
    ``lo`` and ``hi`` its ends.
    ``steps`` holds, per live triangle in order, (live index, slots of a,
    b and c, its three narrowing steps (target, left, right)); ``live``
    the triangles and ``touched`` the number of slots registered once
    each is visited."""

    slot: dict[Manifold, int]
    names: tuple[Manifold, ...]
    start: tuple[Interval, ...]
    lo: tuple[int, ...]
    hi: tuple[int | None, ...]
    live: tuple[TriangleInstance, ...]
    touched: tuple[int, ...]
    steps: tuple[tuple, ...]


def _compile(triangles) -> _Index:
    """The index of ``triangles``, any iterable of instances."""
    slot, names, start, live, touched, steps = {}, [], [], [], [], []
    for tri in triangles:
        if tri.informational:
            continue
        ids = []
        for m in (tri.a, tri.b, tri.c):
            i = slot.get(m)
            if i is None:
                i = slot[m] = len(names)
                names.append(m)
                start.append(Interval(*_start(m)))
            ids.append(i)
        a, b, c = ids
        pos = len(live)
        live.append(tri)
        touched.append(len(names))
        steps.append((pos, a, b, c, ((a, b, c), (b, c, a), (c, a, b))))
    return _Index(
        slot, tuple(names), tuple(start), tuple(s.lo for s in start),
        tuple(s.hi for s in start), tuple(live), tuple(touched), tuple(steps),
    )


def propagate(db: RankDb, triangles) -> Propagation:
    """Round-robin interval narrowing to a fixpoint.

    Visits the triangles in input order, narrowing each vertex from the
    other two, and repeats until a full pass changes nothing.  The fixpoint
    does not depend on the input order; the pass count may.  Informational
    instances are skipped.  The input database is not modified.

    Works on the slots of the triangles' index: an ``engine_triangles``
    family carries its own, and any other iterable is compiled on each
    call.  Each slot starts from the ends of its fact in the database, or
    of its starting interval when the database has none, and only the
    slots of triangles visited before a contradiction are registered in
    the result, in slot order, as a loop over ``RankDb.fact`` would.  The
    ranks and rounds are computed afresh on every call.
    """
    index = triangles.compiled if type(triangles) is _Family else _compile(triangles)
    names, live, touched, steps = index.names, index.live, index.touched, index.steps
    work = db.copy()
    facts = work._facts
    lo, hi = list(index.lo), list(index.hi)
    # Each slot's interval before the run, its fact or its start, and
    # whether the database holds it.
    given, known = list(index.start), [False] * len(names)
    slot = index.slot
    for m, got in facts.items():
        i = slot.get(m)
        if i is not None:
            given[i], known[i] = got, True
            lo[i], hi[i] = got.lo, got.hi

    def store(count):
        # A slot that kept its start interval registers that (immutable)
        # object; only a changed slot builds an Interval.
        for i in range(count):
            got = given[i]
            if got.lo != lo[i] or got.hi != hi[i]:
                facts[names[i]] = Interval(lo[i], hi[i])
            elif not known[i]:
                facts[names[i]] = got

    rounds = 0
    changed = True
    while changed:
        changed = False
        rounds += 1
        for pos, a, b, c, rotations in steps:
            a_lo, b_lo, c_lo = lo[a], lo[b], lo[c]
            if (
                a_lo == hi[a] and b_lo == hi[b] and c_lo == hi[c]
                and b_lo - c_lo <= a_lo <= b_lo + c_lo and c_lo - b_lo <= a_lo
                and not (a_lo + b_lo + c_lo) % 2
            ):
                # Three exact ranks with an even total, each at most the sum
                # of the other two: no vertex narrows.
                continue
            for t, l, r in rotations:
                # Narrow t from l and r; None is an unbounded upper end.
                cur_lo, cur_hi = lo[t], hi[t]
                l_lo, l_hi = lo[l], hi[l]
                r_lo, r_hi = lo[r], hi[r]
                new_lo, new_hi = cur_lo, cur_hi
                if r_hi is not None and l_lo - r_hi > new_lo:
                    new_lo = l_lo - r_hi
                if l_hi is not None:
                    if r_lo - l_hi > new_lo:
                        new_lo = r_lo - l_hi
                    if r_hi is not None:
                        cap = l_hi + r_hi
                        if new_hi is None or cap < new_hi:
                            new_hi = cap
                        if l_lo == l_hi and r_lo == r_hi:
                            parity = (l_lo + r_lo) % 2
                            if new_lo % 2 != parity:
                                new_lo += 1
                            if new_hi % 2 != parity:
                                new_hi -= 1
                if new_hi is not None and new_lo > new_hi:
                    store(touched[pos] if rounds == 1 else len(names))
                    target, left, right = names[t], names[l], names[r]
                    detail = (
                        f"rank of {target.text()} cannot meet "
                        f"{left.text()} = {work.fact(left)} and "
                        f"{right.text()} = {work.fact(right)} "
                        f"(current {Interval(cur_lo, cur_hi)})"
                    )
                    return Propagation(work, rounds, Contradiction(live[pos], target, detail))
                if new_lo != cur_lo or new_hi != cur_hi:
                    lo[t], hi[t] = new_lo, new_hi
                    changed = True
    store(len(names))
    return Propagation(work, rounds)
