"""Exact-triangle rank arithmetic and interval propagation.

The solver is cross-checked against brute-force enumeration of non-negative
rank triples, the propagation engine against hand-computed fixpoints and
against a plain round-robin loop over ``RankDb`` on random inputs.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from tightcert.errors import CalculusError, NoExactTriangleError
from tightcert.floer import (
    Contradiction,
    Interval,
    Propagation,
    RankDb,
    TriangleInstance,
    base_facts,
    engine_triangles,
    propagate,
    tower_triangles,
    triangle_solve,
    unknot_triangle,
)
from tightcert.topology import Manifold


def brute_force_ranks(a, b, c):
    """All (x, y, z) >= 0 with x+z = a, x+y = b, y+z = c."""
    hits = []
    for x in range(min(a, b) + 1):
        z = a - x
        y = b - x
        if y >= 0 and z >= 0 and y + z == c:
            hits.append((x, y, z))
    return hits


# ---------------------------------------------------------------------------
# Triangle solving
# ---------------------------------------------------------------------------


def test_solve_frozen_examples():
    sol = triangle_solve(1, 2, 1)
    assert (sol.rank_f, sol.rank_g, sol.rank_h) == (1, 1, 0)
    assert sol.f_injective and not sol.f_surjective

    sol = triangle_solve(3, 4, 1)
    assert (sol.rank_f, sol.rank_g, sol.rank_h) == (3, 1, 0)
    assert sol.f_injective

    sol = triangle_solve(3, 1, 2)
    assert (sol.rank_f, sol.rank_g, sol.rank_h) == (1, 0, 2)
    assert sol.f_surjective and sol.h_injective and not sol.f_injective

    sol = triangle_solve(0, 5, 5)
    assert sol.g_injective and sol.h_surjective


def test_solve_injectivity_ladder():
    for k in range(1, 101):
        assert triangle_solve(k, k + 1, 1).f_injective


def test_solve_matches_brute_force():
    for a in range(7):
        for b in range(7):
            for c in range(7):
                hits = brute_force_ranks(a, b, c)
                if not hits:
                    with pytest.raises(NoExactTriangleError):
                        triangle_solve(a, b, c)
                else:
                    assert len(hits) == 1
                    sol = triangle_solve(a, b, c)
                    assert (sol.rank_f, sol.rank_g, sol.rank_h) == hits[0]


def test_solve_error_messages_distinguish_cases():
    with pytest.raises(NoExactTriangleError, match="odd total"):
        triangle_solve(1, 1, 1)
    with pytest.raises(NoExactTriangleError, match="triangle inequality"):
        triangle_solve(1, 1, 4)
    with pytest.raises(CalculusError):
        triangle_solve(-1, 1, 0)
    with pytest.raises(CalculusError):
        triangle_solve(1, 1, "2")


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------


def test_interval_basics():
    assert Interval.exact(3).is_exact
    assert not Interval.unknown().is_exact
    assert str(Interval.exact(3)) == "3"
    assert str(Interval(1, 5)) == "[1, 5]"
    assert str(Interval.unknown()) == "[0, inf]"
    with pytest.raises(CalculusError):
        Interval(3, 1)
    with pytest.raises(CalculusError):
        Interval(-1, 2)


def test_base_facts_contents():
    db = base_facts()
    assert db.exact_value(Manifold.s3()) == 1
    assert db.exact_value(Manifold.s1xs2()) == 2
    assert db.exact_value(Manifold.poincare()) == 1
    assert db.exact_value(Manifold.neg_tower(1)) == 1
    assert len(db) == 4


def test_lens_ranks_resolve_lazily():
    db = RankDb()
    assert Manifold.lens(9, 2) not in db
    assert db.fact(Manifold.lens(9, 2)) == Interval.exact(9)
    assert Manifold.lens(9, 2) in db
    assert db.exact_value(Manifold.lens(9, 2)) == 9


def test_unknown_manifolds_start_unbounded():
    db = RankDb()
    assert db.fact(Manifold.neg_tower(7)) == Interval.unknown()
    with pytest.raises(CalculusError):
        db.exact_value(Manifold.neg_tower(7))


def test_copy_isolates():
    db = base_facts()
    other = db.copy()
    other.set_fact(Manifold.s3(), Interval.exact(9))
    assert db.exact_value(Manifold.s3()) == 1


# ---------------------------------------------------------------------------
# Triangle families
# ---------------------------------------------------------------------------


def test_unknot_triangle_shape():
    tri = unknot_triangle()
    assert (tri.a, tri.b, tri.c) == (Manifold.s3(), Manifold.s1xs2(), Manifold.s3())
    assert not tri.informational


def test_tower_triangles_contents():
    tris = tower_triangles(4)
    assert len(tris) == 8
    consecutive = tris[:4]
    for k, tri in enumerate(consecutive, start=1):
        assert tri.a == Manifold.neg_tower(k)
        assert tri.b == Manifold.neg_tower(k + 1)
        assert tri.c == Manifold.poincare()
        assert not tri.informational
    lens = tris[4:]
    assert lens[0].informational  # stage 1 sits outside the family range
    for k, tri in enumerate(lens, start=1):
        assert tri.a == Manifold.lens(abs(7 * k - 9), 7)
        assert tri.b == Manifold.lens(abs(8 * k - 9), 8)
        assert tri.c == Manifold.neg_tower(k)
    assert lens[1].a == Manifold.lens(5, 2)
    assert lens[1].b == Manifold.lens(7, 1)
    with pytest.raises(CalculusError):
        tower_triangles(0)


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------


def test_propagate_pins_tower_ranks():
    run = propagate(base_facts(), [unknot_triangle()] + tower_triangles(12))
    assert run.consistent
    for k in range(1, 13):
        assert run.db.exact_value(Manifold.neg_tower(k)) == k
    # The stage past the last lens instance is only bracketed.
    top = run.db.fact(Manifold.neg_tower(13))
    assert top == Interval(11, 13)
    assert run.rounds <= 5


def test_propagate_leaves_input_untouched():
    db = base_facts()
    propagate(db, tower_triangles(6))
    assert Manifold.neg_tower(5) not in db
    assert db.exact_value(Manifold.s3()) == 1


def test_propagate_order_independent_fixpoint():
    rng = random.Random(5101)
    tris = [unknot_triangle()] + tower_triangles(9)
    reference = propagate(base_facts(), tris)
    targets = [Manifold.neg_tower(k) for k in range(1, 11)]
    for _ in range(5):
        shuffled = tris[:]
        rng.shuffle(shuffled)
        run = propagate(base_facts(), shuffled)
        assert run.consistent
        for m in targets:
            assert run.db.fact(m) == reference.db.fact(m)


def test_propagate_uses_consistent_extra_facts():
    db = base_facts()
    db.set_fact(Manifold.neg_tower(3), Interval.exact(3))
    run = propagate(db, tower_triangles(8))
    assert run.consistent
    assert run.db.exact_value(Manifold.neg_tower(8)) == 8


def test_propagate_detects_planted_contradiction():
    db = base_facts()
    db.set_fact(Manifold.neg_tower(3), Interval.exact(4))
    run = propagate(db, tower_triangles(8))
    assert not run.consistent
    assert isinstance(run.contradiction, Contradiction)
    assert run.contradiction.manifold.kind in ("-tower", "lens", "poincare")
    assert "cannot meet" in run.contradiction.detail


def test_propagate_parity_contradiction():
    bad = TriangleInstance(Manifold.s3(), Manifold.s3(), Manifold.s3())
    run = propagate(base_facts(), [bad])
    assert not run.consistent
    assert run.contradiction.manifold == Manifold.s3()


def test_propagate_skips_informational_instances():
    # The stage-1 lens instance would relate lens(2,1), the sphere and the
    # stage-1 tower; marked informational it must contribute nothing.
    tris = [t for t in tower_triangles(3) if t.informational]
    assert len(tris) == 1
    db = base_facts()
    run = propagate(db, tris)
    assert run.consistent
    assert run.rounds == 1
    assert len(run.db) == len(base_facts())


def test_propagation_result_shape():
    run = propagate(base_facts(), [unknot_triangle()])
    assert isinstance(run, Propagation)
    assert run.consistent and run.contradiction is None
    assert run.db.exact_value(Manifold.s3()) == 1


# ---------------------------------------------------------------------------
# Propagation against a reference loop
# ---------------------------------------------------------------------------


def reference_narrow(current: Interval, left: Interval, right: Interval):
    """Intersect ``current`` with the constraint from the two other
    vertices, on ``Interval`` objects; returns the narrowed interval or
    None if empty."""
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


def reference_propagate(db, triangles):
    """Round-robin narrowing written directly over ``RankDb`` and
    ``Interval``: each visit reads its three facts through ``RankDb.fact``
    (which registers an unseen manifold) and stores a narrowed interval
    with ``set_fact``."""
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
                nar = reference_narrow(cur, work.fact(left), work.fact(right))
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


def _random_case(rng):
    """A shuffled engine family for a stage up to 12, with some instances
    flipped to or from informational, an occasional odd-total triangle,
    and up to three planted facts, exact or open, on family manifolds or
    on manifolds no triangle names."""
    stage = rng.randint(1, 12)
    family = engine_triangles(stage)
    tris = list(family)
    rng.shuffle(tris)
    for i, tri in enumerate(tris):
        if rng.random() < 0.08:
            tris[i] = replace(tri, informational=not tri.informational)
    if rng.random() < 0.15:
        m = rng.choice([Manifold.s3(), Manifold.poincare(), Manifold.neg_tower(1)])
        tris.insert(rng.randrange(len(tris) + 1), TriangleInstance(m, m, m))
    pool = list(dict.fromkeys(v for t in family for v in (t.a, t.b, t.c)))
    pool += [Manifold.tower(2), Manifold.lens(11, 3)]
    db = base_facts()
    for _ in range(rng.randint(0, 3)):
        lo = rng.randint(0, 2 * stage + 3)
        shape = rng.random()
        if shape < 0.4:
            interval = Interval.exact(lo)
        elif shape < 0.7:
            interval = Interval(lo, lo + rng.randint(1, 6))
        else:
            interval = Interval(lo, None)
        db.set_fact(rng.choice(pool), interval)
    return db, tris


def _registers_every_vertex(run, tris):
    return all(v in run.db for t in tris if not t.informational for v in (t.a, t.b, t.c))


def test_propagate_matches_reference_loop():
    rng = random.Random(9017)
    seen = {"consistent": 0, "first round, partway": 0, "later round": 0}
    for _ in range(400):
        db, tris = _random_case(rng)
        before = db.items()
        want = reference_propagate(db, tris)
        got = propagate(db, tris)
        assert db.items() == before
        assert got.db.items() == want.db.items()
        assert got.rounds == want.rounds
        if want.contradiction is None:
            assert got.contradiction is None
            seen["consistent"] += 1
            continue
        assert got.contradiction is not None
        assert got.contradiction.triangle == want.contradiction.triangle
        assert got.contradiction.manifold == want.contradiction.manifold
        assert got.contradiction.detail == want.contradiction.detail
        if want.rounds > 1:
            seen["later round"] += 1
        elif not _registers_every_vertex(want, tris):
            seen["first round, partway"] += 1
    assert min(seen.values()) >= 20, seen


def test_propagate_stops_partway_through_first_round():
    bad = TriangleInstance(Manifold.s3(), Manifold.s3(), Manifold.s3())
    tris = list(engine_triangles(6))
    tris.insert(4, bad)
    run = propagate(base_facts(), tris)
    assert run.rounds == 1
    assert run.contradiction.triangle == bad
    assert run.contradiction.detail == (
        "rank of s3 cannot meet s3 = 1 and s3 = 1 (current 1)"
    )
    assert [m.text() for m, _ in run.db.items()] == [
        "s3", "s1xs2", "poincare", "-tower(1)", "-tower(2)", "-tower(3)", "-tower(4)",
    ]
    assert run.db.items() == reference_propagate(base_facts(), tris).db.items()


def test_propagate_contradiction_in_a_later_round():
    db = base_facts()
    db.set_fact(Manifold.neg_tower(1), Interval.exact(4))
    run = propagate(db, engine_triangles(4))
    want = reference_propagate(db, engine_triangles(4))
    assert run.rounds == want.rounds == 2
    assert run.contradiction == want.contradiction
    assert run.contradiction.detail == (
        "rank of -tower(1) cannot meet -tower(2) = 4 and poincare = 1 (current 4)"
    )
    assert run.db.items() == want.db.items()


def test_engine_triangles_memoized_and_bounded():
    assert engine_triangles(7) is engine_triangles(7)
    assert engine_triangles(7) == (unknot_triangle(),) + tuple(tower_triangles(7))
    assert engine_triangles.cache_info().maxsize == 8
    with pytest.raises(CalculusError):
        engine_triangles(0)
    with pytest.raises(CalculusError):
        engine_triangles(7.0)  # not served the cached family of stage 7


def _assert_matches_reference(db, tris):
    before = db.items()
    want = reference_propagate(db, tris)
    got = propagate(db, tris)
    assert db.items() == before
    assert got.db.items() == want.db.items()
    assert got.rounds == want.rounds
    assert got.contradiction == want.contradiction
    return got


def test_memoized_family_serves_every_database():
    # The family keeps its compiled index, but each call narrows its own
    # database afresh: alternating databases never see each other's ranks.
    rng = random.Random(2503)
    seen = {"consistent": 0, "contradiction": 0}
    for stage in (1, 2, 7, 24, 40):
        family = engine_triangles(stage)
        pool = list(dict.fromkeys(v for t in family for v in (t.a, t.b, t.c)))
        planted = base_facts()
        planted.set_fact(Manifold.neg_tower(1), Interval.exact(4))
        extra = base_facts()
        extra.set_fact(Manifold.lens(11, 3), Interval(0, 5))
        extra.set_fact(rng.choice(pool), Interval(0, None))
        dbs = [base_facts(), planted, extra]
        for _ in range(3):
            for db in dbs:
                assert engine_triangles(stage) is family
                got = _assert_matches_reference(db, family)
                seen["consistent" if got.consistent else "contradiction"] += 1
    assert min(seen.values()) >= 9, seen


def test_adhoc_triangles_compiled_on_each_call():
    tris = list(engine_triangles(6))
    db = base_facts()
    assert _assert_matches_reference(db, tris).consistent
    bad = TriangleInstance(Manifold.s3(), Manifold.s3(), Manifold.s3())
    tris.insert(4, bad)
    assert _assert_matches_reference(db, tris).contradiction.triangle == bad
    del tris[4]
    tris.reverse()
    assert _assert_matches_reference(db, tris).consistent


def test_engine_family_shares_each_vertex():
    # A dict lookup tries identity before equality, so propagation finds a
    # vertex's slot fastest when equal vertices are one object.
    shared = {}
    for tri in engine_triangles(9):
        if not tri.informational:
            for m in (tri.a, tri.b, tri.c):
                assert shared.setdefault(m, m) is m
    assert len(shared) == 3 + 10 + 16


@pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)])
def test_propagate_exact_ranks_that_do_not_fit(order):
    # Ranks 1, 1 and 4: an even total, but 4 exceeds 1 + 1, so whichever
    # vertex is visited first cannot meet the other two, also when all
    # three are exact before the visit.
    verts = [Manifold.s3(), Manifold.poincare(), Manifold.lens(4, 1)]
    tri = TriangleInstance(*(verts[i] for i in order))
    run = propagate(base_facts(), [tri])
    want = reference_propagate(base_facts(), [tri])
    assert run.contradiction == want.contradiction
    assert run.contradiction.manifold == tri.a
    assert run.db.items() == want.db.items()
