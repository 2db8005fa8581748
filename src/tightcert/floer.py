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

A contradiction (empty interval) is reported as a first-class result with
the offending triangle attached, not raised.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    sol = TriangleSolution(dims, f2 // 2, g2 // 2, h2 // 2)
    assert sol.rank_f + sol.rank_h == a
    assert sol.rank_f + sol.rank_g == b
    assert sol.rank_g + sol.rank_h == c
    return sol


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


def rank_bounds(known1: int, known2: int) -> Interval:
    """Interval for the third dimension of an exact triangle whose other two
    dimensions are known exactly: [|k1 - k2|, k1 + k2], both endpoints in
    the parity class of k1 + k2."""
    if known1 < 0 or known2 < 0:
        raise CalculusError("ranks are non-negative")
    return Interval(abs(known1 - known2), known1 + known2)


def _narrow(current: Interval, left: Interval, right: Interval):
    """Intersect ``current`` with the constraint from the two other
    vertices; returns the narrowed interval or None if empty."""
    lo = current.lo
    if right.hi is not None:
        lo = max(lo, left.lo - right.hi)
    if left.hi is not None:
        lo = max(lo, right.lo - left.hi)
    hi = current.hi
    if left.hi is not None and right.hi is not None:
        cap = left.hi + right.hi
        hi = cap if hi is None else min(hi, cap)
    if left.is_exact and right.is_exact:
        parity = (left.lo + right.lo) % 2
        if lo % 2 != parity:
            lo += 1
        if hi is not None and hi % 2 != parity:
            hi -= 1
    if hi is not None and lo > hi:
        return None
    return Interval(lo, hi)


# ---------------------------------------------------------------------------
# The rank database
# ---------------------------------------------------------------------------


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
            if m.kind == "lens":
                got = Interval.exact(m.p)
            else:
                got = Interval.unknown()
            self._facts[m] = got
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
    a -> b -> c.  ``informational`` instances are recorded for audit but
    excluded from propagation (used where parameters leave the family's
    stated range and orders are only correct up to sign)."""

    a: Manifold
    b: Manifold
    c: Manifold
    provenance: str = ""
    informational: bool = False


def unknot_triangle() -> TriangleInstance:
    """The surgery triangle of the zero-framed unknot: sphere, circle
    bundle, sphere; dimensions (1, 2, 1) make the first map injective."""
    return TriangleInstance(
        Manifold.s3(),
        Manifold.s1xs2(),
        Manifold.s3(),
        provenance="zero-framed unknot surgery triangle",
    )


def tower_triangles(max_stage: int) -> list[TriangleInstance]:
    """The two triangle families that pin the reversed-tower ranks.

    For each stage k <= max_stage the consecutive-stage family
    (-tower(k), -tower(k+1), poincare) bounds neighbouring ranks, and the
    lens-space family (lens(7k-9, 7), lens(8k-9, 8), -tower(k)) pins the
    rank from below.  The k = 1 lens instance falls outside the family's
    parameter range (orders taken by absolute value) and is recorded as
    informational only.
    """
    if not isinstance(max_stage, int) or max_stage < 1:
        raise CalculusError(f"max stage must be a positive integer, got {max_stage!r}")
    out = []
    for k in range(1, max_stage + 1):
        out.append(
            TriangleInstance(
                Manifold.neg_tower(k),
                Manifold.neg_tower(k + 1),
                Manifold.poincare(),
                provenance=f"tower surgery triangle linking stages {k} and {k + 1}",
            )
        )
    for k in range(1, max_stage + 1):
        out.append(
            TriangleInstance(
                Manifold.lens(abs(7 * k - 9), 7),
                Manifold.lens(abs(8 * k - 9), 8),
                Manifold.neg_tower(k),
                provenance=(
                    f"lens-space triangle at tower stage {k} "
                    f"(orders {abs(7 * k - 9)} and {abs(8 * k - 9)})"
                    + (
                        "; outside the family range, recorded for audit only"
                        if k == 1
                        else ""
                    )
                ),
                informational=(k == 1),
            )
        )
    return out


def engine_triangles(max_stage: int) -> tuple[TriangleInstance, ...]:
    """Every triangle the rank engine runs on up to tower stage max_stage:
    the unknot triangle, then both tower families."""
    return (unknot_triangle(),) + tuple(tower_triangles(max_stage))


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


def propagate(db: RankDb, triangles) -> Propagation:
    """Round-robin interval narrowing to a fixpoint.

    Visits the triangles in input order, narrowing each vertex from the
    other two, and repeats until a full pass changes nothing.  The fixpoint
    does not depend on the input order; the pass count may.  Informational
    instances are skipped.  The input database is not modified.
    """
    work = db.copy()
    triangles = list(triangles)
    rounds = 0
    changed = True
    while changed:
        changed = False
        rounds += 1
        for tri in triangles:
            if tri.informational:
                continue
            verts = (tri.a, tri.b, tri.c)
            for idx, target in enumerate(verts):
                left, right = verts[(idx + 1) % 3], verts[(idx + 2) % 3]
                cur = work.fact(target)
                nar = _narrow(cur, work.fact(left), work.fact(right))
                if nar is None:
                    detail = (
                        f"rank of {target.text()} cannot meet "
                        f"{left.text()} = {work.fact(left)} and "
                        f"{right.text()} = {work.fact(right)} (current {cur})"
                    )
                    return Propagation(work, rounds, Contradiction(tri, target, detail))
                if nar != cur:
                    work.set_fact(target, nar)
                    changed = True
    return Propagation(work, rounds)
