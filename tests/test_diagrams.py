"""Contact diagram moves: construction, conversion, cancellation, isomorphism.

Cross-checks lean on first homology of the resulting linking matrices, which
is computed by a separately tested elimination routine.
"""

from __future__ import annotations

import json
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from tightcert.diagrams import (
    ContactDiagram,
    LegendrianComponent,
    PUSHOFF,
    RH_TREFOIL,
    UNKNOT,
    add_trefoil,
    add_unknot,
    cancel_pushoff_pairs,
    contact_pushoff,
    convert_negative,
    convert_positive,
    count_presentations,
    diagram_iso,
    empty_diagram,
    normalize_diagram,
    plus_one_surgery,
    remove_component,
    set_coeff,
    stabilize,
    tower_diagram,
    trefoil_surgery_diagram,
    _Draft,
)
from tightcert.errors import (
    CalculusError,
    ExcludedSlopeError,
    NoTightExtensionError,
)
from tightcert.rationals import (
    INF,
    SurgeryCoeff,
    neg_continued_fraction,
    pushoff_coeff_from_slope,
    residual_coeff,
)
from tightcert.serialize import diagram_to_dict
from tightcert.topology import det_signed, h1, linking_matrix
from reference_diagram import from_linkings, linking_pairs, parents_first
from test_oracles import assert_sound


def chain_counts(r):
    return neg_continued_fraction(r).stabilization_counts()


def random_slope(rng, lo=-25, hi=25, qmax=12):
    while True:
        c = SurgeryCoeff(rng.randrange(lo, hi + 1), rng.randrange(1, qmax + 1))
        if c != 1:
            return c


def relabeled(d, rng, shuffle=True):
    """Rebuild d through ``from_linkings`` with fresh component
    names, in shuffled order unless ``shuffle`` is false; the result is
    isomorphic, not equal."""
    ids = list(d.ids())
    shuffled = ids[:]
    if shuffle:
        rng.shuffle(shuffled)
    names = {cid: f"k{i}" for i, cid in enumerate(shuffled)}
    by_pos = {c.cid: c for c in d.components}
    # Parents must be declared before children.
    ordered, placed = [], set()
    pending = shuffled[:]
    while pending:
        for cid in list(pending):
            parent = by_pos[cid].parent
            if parent is None or parent in placed:
                ordered.append(cid)
                placed.add(cid)
                pending.remove(cid)
    comps = []
    for cid in ordered:
        c = by_pos[cid]
        comps.append(
            LegendrianComponent(
                names[cid],
                c.kind,
                None if c.parent is None else names[c.parent],
                c.smooth_type,
                c.tb,
                c.rot,
                c.coeff,
            )
        )
    links = {
        frozenset(names[x] for x in pair): v
        for pair, v in linking_pairs(d).items()
    }
    return from_linkings(tuple(comps), links)


# ---------------------------------------------------------------------------
# Components and elementary moves
# ---------------------------------------------------------------------------


def test_unknot_bound_enforced():
    d, _ = add_unknot(empty_diagram())
    assert d.component("c1").tb == -1 and d.component("c1").rot == 0
    add_unknot(empty_diagram(), tb=-3, rot=2)
    with pytest.raises(CalculusError):
        add_unknot(empty_diagram(), tb=0)
    with pytest.raises(CalculusError):
        add_unknot(empty_diagram(), tb=-2, rot=2)


def test_trefoil_bound_enforced():
    add_trefoil(empty_diagram(), tb=1, rot=0)
    add_trefoil(empty_diagram(), tb=0, rot=1)
    with pytest.raises(CalculusError):
        add_trefoil(empty_diagram(), tb=2)
    with pytest.raises(CalculusError):
        add_trefoil(empty_diagram(), tb=1, rot=1)


def test_zero_coefficient_refused():
    with pytest.raises(NoTightExtensionError):
        add_unknot(empty_diagram(), coeff=SurgeryCoeff(0))


def test_stabilize_moves_invariants():
    d, u = add_unknot(empty_diagram())
    d = stabilize(d, u, -1)
    d = stabilize(d, u, -1)
    d = stabilize(d, u, 1)
    c = d.component(u)
    assert (c.tb, c.rot) == (-4, -1)
    with pytest.raises(CalculusError):
        stabilize(d, u, 0)


def test_pushoff_records_links_eagerly():
    d, t = add_trefoil(empty_diagram(), coeff=SurgeryCoeff(-1))
    d, p = contact_pushoff(d, t)
    assert d.linking(t, p) == 1
    assert d.component(p).tb == 1 and d.component(p).rot == 0
    assert d.component(p).kind == PUSHOFF
    assert d.component(p).smooth_type == RH_TREFOIL
    # Stabilizing the parent afterwards must not rewrite the record.
    d = stabilize(d, t, -1)
    assert d.linking(t, p) == 1
    # A new pushoff sees the current tb and copies existing linkings.
    d, q = contact_pushoff(d, t)
    assert d.linking(t, q) == 0
    assert d.linking(p, q) == 1


def test_fresh_ids_never_collide():
    d, _ = add_unknot(empty_diagram())
    d, _ = add_unknot(d)
    d, _ = add_unknot(d)
    d = remove_component(d, "c1")
    d, new = add_unknot(d)
    assert new == "c4"
    assert len(set(d.ids())) == len(d.ids())


def test_duplicate_and_missing_ids_rejected():
    c = LegendrianComponent("x", UNKNOT, None, UNKNOT, -1, 0, None)
    with pytest.raises(CalculusError):
        ContactDiagram((c, c))
    orphan = LegendrianComponent("p", PUSHOFF, "gone", UNKNOT, -1, 0, None)
    with pytest.raises(CalculusError):
        ContactDiagram((orphan,))
    with pytest.raises(CalculusError):
        ContactDiagram.from_stored((c,), [("x", "gone", 1, False)])


_NOT_BEFORE = "names parent {!r}, which is not listed before it"


def test_pushoff_naming_itself_as_parent_refused():
    # Such a (-1)-unknot would present h1 of order 2, and remove_component
    # would drop it without complaint.  It is not listed after its parent,
    # as no pushoff on a parent cycle is.
    selfish = LegendrianComponent("p", PUSHOFF, "p", UNKNOT, -1, 0, SurgeryCoeff(-1))
    with pytest.raises(CalculusError, match=_NOT_BEFORE.format("p")):
        ContactDiagram((selfish,))
    root = LegendrianComponent("x", UNKNOT, None, UNKNOT, -1, 0, SurgeryCoeff(-1))
    with pytest.raises(CalculusError, match=_NOT_BEFORE.format("p")):
        ContactDiagram.from_stored((root, selfish), [("x", "p", 1, False)])
    a = LegendrianComponent("a", PUSHOFF, "b", UNKNOT, -1, 0, SurgeryCoeff(-1))
    b = LegendrianComponent("b", PUSHOFF, "a", UNKNOT, -1, 0, SurgeryCoeff(-1))
    for comps in ((a, b), (root, b, a)):
        with pytest.raises(CalculusError, match=_NOT_BEFORE.format(comps[-2].parent)):
            ContactDiagram(comps)
        with pytest.raises(CalculusError, match="not listed before it"):
            ContactDiagram.from_stored(comps, [])


# ---------------------------------------------------------------------------
# Removal and reparenting
# ---------------------------------------------------------------------------


def test_remove_reparents_clean_grandchild():
    d, t = add_trefoil(empty_diagram(), coeff=SurgeryCoeff(-1))
    d, p = contact_pushoff(d, t)
    d, q = contact_pushoff(d, p)
    d = remove_component(d, p)
    c = d.component(q)
    assert c.parent == t and c.kind == PUSHOFF
    assert d.linking(q, t) == 1


def test_remove_demotes_when_parent_was_stabilized_first():
    d, t = add_trefoil(empty_diagram(), coeff=SurgeryCoeff(-1))
    d, p = contact_pushoff(d, t)
    d = stabilize(d, p, -1)
    d, q = contact_pushoff(d, p)
    d = remove_component(d, p)
    c = d.component(q)
    assert c.parent is None and c.kind == RH_TREFOIL
    assert d.linking(q, t) == 1


def test_remove_demotes_when_root_parent_dies():
    d, t = add_trefoil(empty_diagram(), coeff=SurgeryCoeff(-1))
    d, p = contact_pushoff(d, t)
    d = set_coeff(d, p, SurgeryCoeff(1))
    d = remove_component(d, t)
    c = d.component(p)
    assert c.parent is None and c.kind == RH_TREFOIL
    assert c.coeff == SurgeryCoeff(1)
    assert linking_pairs(d) == {}


def _child_of_pushoff(child_tb, first=False):
    """Components [Y, X, C]: X a (-1) pushoff of the trefoil Y, and C a
    (+1) pushoff of X, stabilized down to ``child_tb``; C listed first,
    before its parent, when ``first`` is true."""
    comps = [
        LegendrianComponent("Y", RH_TREFOIL, None, RH_TREFOIL, 1, 0, SurgeryCoeff(-1)),
        LegendrianComponent("X", PUSHOFF, "Y", RH_TREFOIL, 1, 0, SurgeryCoeff(-1)),
        LegendrianComponent("C", PUSHOFF, "X", RH_TREFOIL, child_tb, 1 - child_tb, SurgeryCoeff(1)),
    ]
    if first:
        comps.insert(0, comps.pop())
    links = {frozenset("CX"): 1, frozenset("CY"): 1, frozenset("XY"): 1}
    return from_linkings(comps, links)


def test_remove_reparents_child_listed_before_it():
    # A child listed before the knot it names is refused, so a removal
    # meets each child after the removed knot.
    with pytest.raises(CalculusError, match=_NOT_BEFORE.format("X")):
        _child_of_pushoff(1, first=True)
    d = remove_component(_child_of_pushoff(1), "X")
    assert d.ids() == ("Y", "C")
    c = d.component("C")
    assert c.kind == PUSHOFF and c.parent == "Y"
    assert (c.tb, c.rot, c.coeff) == (1, 0, SurgeryCoeff(1))
    assert d.linking("C", "Y") == 1
    # The result is a diagram ``from_linkings`` rebuilds as it stands.
    assert from_linkings(d.components, linking_pairs(d)) == d


def test_remove_demotes_child_listed_before_it():
    with pytest.raises(CalculusError, match=_NOT_BEFORE.format("X")):
        _child_of_pushoff(0, first=True)
    d = remove_component(_child_of_pushoff(0), "X")
    c = d.component("C")
    assert c.kind == RH_TREFOIL and c.parent is None
    assert (c.tb, c.rot, c.coeff) == (0, 1, SurgeryCoeff(1))
    assert d.linking("C", "Y") == 1
    assert from_linkings(d.components, linking_pairs(d)) == d


# ---------------------------------------------------------------------------
# Negative conversion
# ---------------------------------------------------------------------------


def test_convert_negative_frozen_three_halves():
    d, u = add_unknot(empty_diagram(), coeff=SurgeryCoeff(-3, 2))
    out = convert_negative(d, u)
    assert [c.coeff for c in out.components] == [SurgeryCoeff(-1)] * 2
    first, second = out.components
    assert (first.tb, first.rot) == (-2, -1)
    assert (second.tb, second.rot) == (-2, -1)
    assert out.linking(first.cid, second.cid) == -2
    assert abs(det_signed(linking_matrix(out))) == 5


def test_convert_negative_frozen_five_thirds():
    d, u = add_unknot(empty_diagram(), coeff=SurgeryCoeff(-5, 3))
    out = convert_negative(d, u)
    link = linking_matrix(out)
    assert link.matrix == ((-3, -2), (-2, -4))
    assert abs(det_signed(link)) == 8


def test_convert_negative_respects_choice():
    d, u = add_unknot(empty_diagram(), coeff=SurgeryCoeff(-5, 3))
    # The second chain knot starts as a pushoff copying the first one's
    # rotation, then its own stabilization moves it further.
    out = convert_negative(d, u, choice=[[1], [1]])
    assert [c.rot for c in out.components] == [1, 2]
    out2 = convert_negative(d, u, choice=[[-1], [1]])
    assert [c.rot for c in out2.components] == [-1, 0]
    assert not diagram_iso(out, out2)
    assert linking_matrix(out) == linking_matrix(out2)


def test_normalize_huge_negative_slope_in_constant_memory():
    # Slope -10^9 leaves a residual of -(10^9 + 1): one chain knot with
    # 10^9 stabilizations, applied as a count, never as a sign vector.
    tracemalloc.start()
    try:
        d = normalize_diagram(trefoil_surgery_diagram(SurgeryCoeff(-10**9)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert [(c.cid, c.tb, c.rot, str(c.coeff)) for c in d.components] == [
        ("c1", 1, 0, "-1"),
        ("c2", 1 - 10**9, -(10**9), "-1"),
        ("c3", 1, 0, "1"),
    ]


def test_convert_negative_choice_validation():
    d, u = add_unknot(empty_diagram(), coeff=SurgeryCoeff(-5, 3))
    with pytest.raises(CalculusError):
        convert_negative(d, u, choice=[[1]])
    with pytest.raises(CalculusError):
        convert_negative(d, u, choice=[[1, 1], []])
    with pytest.raises(CalculusError):
        convert_negative(d, u, choice=[[2], [1]])


def test_convert_negative_rejects_wrong_sign():
    d, u = add_unknot(empty_diagram(), coeff=SurgeryCoeff(3, 2))
    with pytest.raises(CalculusError):
        convert_negative(d, u)
    d2, v = add_unknot(empty_diagram(), coeff=INF)
    with pytest.raises(CalculusError):
        convert_negative(d2, v)


def test_convert_negative_chain_dets_random():
    rng = random.Random(4101)
    for _ in range(50):
        p = rng.randrange(-30, 0)
        q = rng.randrange(1, 15)
        r = SurgeryCoeff(p, q)
        d, u = add_unknot(empty_diagram(), coeff=r)
        out = convert_negative(d, u)
        # Smooth slope on a tb -1 unknot is r - 1, so the surgered manifold
        # is a lens space whose homology has order |num(r) - den(r)|.
        assert abs(det_signed(linking_matrix(out))) == abs(r.num - r.den)


# ---------------------------------------------------------------------------
# Positive conversion
# ---------------------------------------------------------------------------


def test_convert_positive_splits_units():
    d, u = add_unknot(empty_diagram(), coeff=SurgeryCoeff(2, 7))
    out = convert_positive(d, u, 4)
    assert out.component(u).coeff == SurgeryCoeff(-2)
    pushoffs = [c for c in out.components if c.kind == PUSHOFF]
    assert len(pushoffs) == 4
    assert all(c.coeff == SurgeryCoeff(1) for c in pushoffs)
    assert all(out.linking(u, c.cid) == -1 for c in pushoffs)


def test_convert_positive_partial_split_keeps_positive_residual():
    d, u = add_unknot(empty_diagram(), coeff=SurgeryCoeff(2, 7))
    out = convert_positive(d, u, 3)
    assert out.component(u).coeff == SurgeryCoeff(2)


def test_convert_positive_unit_fraction_removes_knot():
    d, u = add_unknot(empty_diagram(), coeff=SurgeryCoeff(1, 3))
    out = convert_positive(d, u, 3)
    assert u not in out
    assert len(out) == 3
    assert all(c.parent is None and c.kind == UNKNOT for c in out.components)
    values = {out.linking(a, b) for a in out.ids() for b in out.ids() if a != b}
    assert values == {-1}


def test_convert_positive_rejections():
    d, u = add_unknot(empty_diagram(), coeff=SurgeryCoeff(-1, 2))
    with pytest.raises(CalculusError):
        convert_positive(d, u, 1)
    d2, v = add_unknot(empty_diagram(), coeff=SurgeryCoeff(1, 2))
    with pytest.raises(CalculusError):
        convert_positive(d2, v, 0)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def test_normalize_drops_infinite_coefficients():
    d, u = add_unknot(empty_diagram(), coeff=INF)
    d, v = add_unknot(d, coeff=SurgeryCoeff(-1))
    out = normalize_diagram(d)
    assert u not in out and v in out


def test_normalize_examples():
    d, u = add_unknot(empty_diagram(), coeff=SurgeryCoeff(-5, 3))
    out = normalize_diagram(d)
    assert all(c.coeff == SurgeryCoeff(-1) for c in out.components)
    assert h1(out).cyclic_order() == 8

    d2, v = add_unknot(empty_diagram(), coeff=SurgeryCoeff(1, 4))
    out2 = normalize_diagram(d2)
    assert v not in out2 and len(out2) == 4

    d3, w = add_unknot(empty_diagram(), coeff=SurgeryCoeff(3, 4))
    out3 = normalize_diagram(d3)
    assert all(
        c.coeff in (SurgeryCoeff(1), SurgeryCoeff(-1)) for c in out3.components
    )
    assert h1(out3).cyclic_order() == abs(3 - 4 * 1)  # smooth slope -1/4


def test_normalize_routes_choices_by_id():
    d, u = add_unknot(empty_diagram(), coeff=SurgeryCoeff(-3, 2))
    out = normalize_diagram(d, choices={u: [[1], []]})
    assert out.component(u).rot == 1


def test_normalize_leaves_unsurgered_components():
    d, u = add_unknot(empty_diagram())
    out = normalize_diagram(d)
    assert out.component(u).coeff is None


def test_normalize_full_slope_pipeline_random():
    rng = random.Random(4102)
    for _ in range(40):
        r = random_slope(rng)
        d = normalize_diagram(trefoil_surgery_diagram(r))
        g = h1(d)
        assert g.is_cyclic()
        assert g.cyclic_order() == abs(r.num)


# ---------------------------------------------------------------------------
# Counting presentations
# ---------------------------------------------------------------------------


def test_count_presentations_frozen():
    assert count_presentations(SurgeryCoeff(-5, 3)) == 4
    assert count_presentations(SurgeryCoeff(-3, 2)) == 2
    assert count_presentations(SurgeryCoeff(-1)) == 1
    assert count_presentations(SurgeryCoeff(1)) == 1
    assert count_presentations(INF) == 1
    for k in range(1, 8):
        assert count_presentations(SurgeryCoeff(1, k)) == 1
    with pytest.raises(NoTightExtensionError):
        count_presentations(SurgeryCoeff(0))


def test_count_presentations_matches_brute_force():
    rng = random.Random(4103)
    picked = 0
    while picked < 12:
        r = SurgeryCoeff(rng.randrange(-12, 0), rng.randrange(1, 7))
        counts = chain_counts(r)
        if sum(counts) > 8:
            continue
        picked += 1
        base, u = add_unknot(empty_diagram(), coeff=r)
        seen = set()
        per_knot = [list(product((1, -1), repeat=n)) for n in counts]
        for combo in product(*per_knot):
            out = convert_negative(base, u, choice=[list(v) for v in combo])
            seen.add(json.dumps(diagram_to_dict(out), sort_keys=True))
        assert len(seen) == count_presentations(r)


def test_count_presentations_lens_cross_check():
    # Presentations of r on a tb -1 unknot match the expansion of the
    # smooth slope r - 1: the product of |b_i + 1| over its terms.
    rng = random.Random(4104)
    for _ in range(30):
        r = SurgeryCoeff(rng.randrange(-20, 0), rng.randrange(1, 9))
        smooth = Fraction(r.num, r.den) - 1
        terms = []
        value = smooth
        while True:
            a = value.__floor__()
            terms.append(a)
            if a == value:
                break
            value = Fraction(-1) / (value - a)
        expect = 1
        for b in terms:
            expect *= abs(b + 1)
        assert count_presentations(r) == expect


# ---------------------------------------------------------------------------
# Cancellation
# ---------------------------------------------------------------------------


def test_cancel_tower_one_to_empty():
    out = cancel_pushoff_pairs(tower_diagram(1))
    assert len(out) == 0


def test_cancel_tower_two_leaves_single_trefoil():
    out = cancel_pushoff_pairs(tower_diagram(2))
    assert len(out) == 1
    c = out.components[0]
    assert c.kind == RH_TREFOIL and c.parent is None
    assert c.coeff == SurgeryCoeff(1)
    assert h1(out).cyclic_order() == h1(tower_diagram(2)).cyclic_order() == 2


def test_cancel_preserves_homology_on_towers():
    for k in range(1, 8):
        before = h1(tower_diagram(k))
        after_diagram = cancel_pushoff_pairs(tower_diagram(k))
        if len(after_diagram):
            assert h1(after_diagram) == before
        else:
            assert before.order() == 1


def test_cancel_requires_unstabilized_pair():
    d, t = add_trefoil(empty_diagram(), coeff=SurgeryCoeff(-1))
    d, p = contact_pushoff(d, t)
    d = set_coeff(d, p, SurgeryCoeff(1))
    d = stabilize(d, p, -1)
    assert len(cancel_pushoff_pairs(d)) == 2


def test_cancel_ignores_non_unit_pairs():
    d, t = add_trefoil(empty_diagram(), coeff=SurgeryCoeff(-1))
    d, p = contact_pushoff(d, t)
    d = set_coeff(d, p, SurgeryCoeff(2))
    assert len(cancel_pushoff_pairs(d)) == 2


# ---------------------------------------------------------------------------
# Standard generators
# ---------------------------------------------------------------------------


def test_tower_diagram_shape():
    d = tower_diagram(3)
    assert len(d) == 4
    root = d.components[0]
    assert root.kind == RH_TREFOIL and root.coeff == SurgeryCoeff(-1)
    for c in d.components[1:]:
        assert c.kind == PUSHOFF and c.parent == root.cid
        assert c.coeff == SurgeryCoeff(1)
    with pytest.raises(CalculusError):
        tower_diagram(0)


def test_tower_homology_small():
    for k in range(1, 12):
        assert h1(tower_diagram(k)).cyclic_order() == k


def test_trefoil_surgery_diagram_branches():
    d = trefoil_surgery_diagram(SurgeryCoeff(-3))
    assert len(d) == 2
    assert d.components[1].coeff == pushoff_coeff_from_slope(SurgeryCoeff(-3))

    zero = trefoil_surgery_diagram(SurgeryCoeff(0))
    assert len(zero) == 1
    assert zero.components[0].coeff == SurgeryCoeff(-1)

    infinite = trefoil_surgery_diagram(INF)
    assert infinite.components[1].coeff == SurgeryCoeff(1)

    with pytest.raises(ExcludedSlopeError):
        trefoil_surgery_diagram(SurgeryCoeff(1))


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------


def test_iso_reflexive_and_relabeling_random():
    rng = random.Random(4105)
    shuffled = []
    for _ in range(25):
        r = random_slope(rng)
        d = normalize_diagram(trefoil_surgery_diagram(r))
        assert diagram_iso(d, d)
        assert diagram_iso(d, relabeled(d, rng, shuffle=False))
        shuffled.append((d, relabeled(d, rng)))
    nx = pytest.importorskip("networkx")
    for d, other in shuffled:
        assert_sound(nx, d, other)


def test_iso_detects_differences():
    d = normalize_diagram(trefoil_surgery_diagram(SurgeryCoeff(-5, 3)))
    rng = random.Random(4106)
    assert diagram_iso(d, relabeled(d, rng, shuffle=False))

    chain = [c for c in d.components if c.coeff == SurgeryCoeff(-1)]
    stabbed = stabilize(d, chain[-1].cid, -1)
    assert not diagram_iso(d, stabbed)

    flipped = set_coeff(d, d.components[0].cid, SurgeryCoeff(1))
    assert not diagram_iso(d, flipped)

    assert not diagram_iso(d, tower_diagram(len(d) - 1))
    assert not diagram_iso(d, empty_diagram())
    assert diagram_iso(empty_diagram(), empty_diagram())

    nx = pytest.importorskip("networkx")
    assert_sound(nx, d, relabeled(d, rng))


def test_iso_needs_matching_parents_not_just_signatures():
    # Two pushoffs of distinct-but-identical parents, wired straight vs
    # crossed: component signatures agree, the parent bijection does not
    # survive the linking constraints unless matched correctly.
    base = empty_diagram()
    base, a = add_unknot(base, coeff=SurgeryCoeff(-1))
    base, b = add_unknot(base, coeff=SurgeryCoeff(-1))
    d1, pa = contact_pushoff(base, a)
    d1 = set_coeff(d1, pa, SurgeryCoeff(1))
    d2 = d1
    assert diagram_iso(d1, d2)
    rng = random.Random(4107)
    assert diagram_iso(d1, relabeled(d1, rng, shuffle=False))


def test_iso_on_choice_variants():
    d, u = add_unknot(empty_diagram(), coeff=SurgeryCoeff(-7, 2))
    plus = convert_negative(d, u, choice=[[1, 1, 1], []])
    minus = convert_negative(d, u, choice=[[-1, -1, -1], []])
    mixed = convert_negative(d, u, choice=[[1, -1, 1], []])
    swapped = convert_negative(d, u, choice=[[-1, 1, 1], []])
    assert not diagram_iso(plus, minus)
    assert not diagram_iso(plus, mixed)
    # Same multiset of stabilization signs -> same rot values -> isomorphic.
    assert diagram_iso(mixed, swapped)


# ---------------------------------------------------------------------------
# Reference moves: one knot and one step at a time
# ---------------------------------------------------------------------------


def _ref_fresh_id(d):
    n = len(d) + 1
    while f"c{n}" in d:
        n += 1
    return f"c{n}"


def _ref_rebuilt(d, comps, drop=None):
    """comps with d's linkings, less those of ``drop``, through
    ``from_linkings``, which builds the rows afresh."""
    pairs = {pair: v for pair, v in linking_pairs(d).items() if drop not in pair}
    return from_linkings(comps, pairs)


def reference_replace(d, cid, **changes):
    """d with component cid changed by ``dataclasses.replace``."""
    comps = tuple(replace(c, **changes) if c.cid == cid else c for c in d.components)
    return _ref_rebuilt(d, comps)


def reference_pushoff(d, cid):
    """An uncoefficiented contact pushoff of cid, appended: cid's tb and
    rot, linking cid tb(cid) times and copying cid's other linkings."""
    parent = d.component(cid)
    new = _ref_fresh_id(d)
    comp = LegendrianComponent(new, PUSHOFF, cid, parent.smooth_type, parent.tb, parent.rot, None)
    out = _ref_rebuilt(d, d.components + (comp,))
    pairs = linking_pairs(out)
    for other in d.ids():
        if other != cid and d.linking(cid, other):
            pairs[frozenset((new, other))] = d.linking(cid, other)
    if parent.tb:
        pairs[frozenset((new, cid))] = parent.tb
    return from_linkings(out.components, pairs), new


def reference_remove(d, cid):
    """Drop cid; reparent or demote its children by the recorded linkings."""
    grandparent = d.component(cid).parent
    comps = []
    for c in d.components:
        if c.cid == cid:
            continue
        if c.kind == PUSHOFF and c.parent == cid:
            if (
                grandparent is not None
                and d.linking(c.cid, cid) == d.linking(cid, grandparent)
                and c.tb == d.linking(c.cid, cid)
                and d.component(grandparent).tb == d.linking(cid, grandparent)
            ):
                c = replace(c, parent=grandparent)
            else:
                c = replace(c, kind=c.smooth_type, parent=None)
        comps.append(c)
    return _ref_rebuilt(d, tuple(comps), drop=cid)


def reference_plus_one(d, witness):
    if witness == "unknot":
        new = _ref_fresh_id(d)
        comp = LegendrianComponent(new, UNKNOT, None, UNKNOT, -1, 0, None)
        d = _ref_rebuilt(d, d.components + (comp,))
    elif witness.startswith("pushoff:"):
        d, new = reference_pushoff(d, witness[len("pushoff:"):])
    else:
        cid = witness[len("cancel:"):]
        assert d.component(cid).coeff == SurgeryCoeff(-1)
        return reference_remove(d, cid)
    return reference_replace(d, new, coeff=SurgeryCoeff(1))


def reference_convert_positive(d, cid, k):
    residual = residual_coeff(d.component(cid).coeff, k)
    for _ in range(k):
        d = reference_plus_one(d, f"pushoff:{cid}")
    if residual.is_infinite:
        return reference_remove(d, cid)
    return reference_replace(d, cid, coeff=residual)


def reference_convert_negative(d, cid, choice):
    counts = neg_continued_fraction(d.component(cid).coeff).stabilization_counts()
    signs = choice or [[-1] * n for n in counts]
    cur = cid
    for i, vector in enumerate(signs):
        if i:
            d, cur = reference_pushoff(d, cur)
        for sign in vector:
            c = d.component(cur)
            d = reference_replace(d, cur, tb=c.tb - 1, rot=c.rot + sign)
        d = reference_replace(d, cur, coeff=SurgeryCoeff(-1))
    return d


def random_diagram(rng):
    """Random public moves, then the components in a random order that
    lists every pushoff after its parent."""
    d = empty_diagram()
    for _ in range(rng.randrange(1, 9)):
        kind = rng.choice(("unknot", "trefoil", "pushoff", "pushoff", "stabilize", "coeff"))
        cid = rng.choice(d.ids()) if len(d) else None
        if kind == "unknot" or (cid is None and kind != "trefoil"):
            d, _ = add_unknot(d, tb=-1 - rng.randrange(3))
        elif kind == "trefoil":
            d, _ = add_trefoil(d, tb=1 - rng.randrange(3))
        elif kind == "pushoff":
            d, _ = contact_pushoff(d, cid)
        elif kind == "stabilize":
            d = stabilize(d, cid, rng.choice((1, -1)))
        else:
            d = set_coeff(d, cid, SurgeryCoeff(rng.choice((-3, -1, 1, 2))))
    return from_linkings(parents_first(d.components, rng), linking_pairs(d))


def assert_same(out, ref):
    assert out.components == ref.components
    assert out.ids() == ref.ids()
    assert out._links == ref._links
    assert out._pos == {cid: i for i, cid in enumerate(ref.ids())}


def test_moves_match_the_step_by_step_reference():
    rng = random.Random(4108)
    for _ in range(150):
        d = random_diagram(rng)
        cid = rng.choice(d.ids())
        assert_same(plus_one_surgery(d, "unknot"), reference_plus_one(d, "unknot"))
        witness = f"pushoff:{cid}"
        assert_same(plus_one_surgery(d, witness), reference_plus_one(d, witness))
        minus = reference_replace(d, cid, coeff=SurgeryCoeff(-1))
        witness = f"cancel:{cid}"
        assert_same(plus_one_surgery(minus, witness), reference_plus_one(minus, witness))
        assert_same(remove_component(d, cid), reference_remove(d, cid))

        k = rng.randrange(1, 5)
        positive = reference_replace(
            d, cid, coeff=rng.choice((SurgeryCoeff(1, k), random_slope(rng, 1, 9, 5)))
        )
        assert_same(
            convert_positive(positive, cid, k), reference_convert_positive(positive, cid, k)
        )

        r = SurgeryCoeff(-rng.randrange(1, 12), rng.randrange(1, 6))
        negative = reference_replace(d, cid, coeff=r)
        choice = None
        if rng.random() < 0.7:
            choice = [[rng.choice((1, -1)) for _ in range(n)] for n in chain_counts(r)]
        assert_same(
            convert_negative(negative, cid, choice),
            reference_convert_negative(negative, cid, choice),
        )


def test_tower_matches_the_step_by_step_reference():
    for k in range(1, 9):
        d, t = add_trefoil(empty_diagram(), coeff=SurgeryCoeff(-1))
        for _ in range(k):
            d = reference_plus_one(d, f"pushoff:{t}")
        assert_same(tower_diagram(k), d)


# ---------------------------------------------------------------------------
# Work bounds, counted without timing
# ---------------------------------------------------------------------------


def count_constructions(monkeypatch):
    """Patch in a counter of ``LegendrianComponent`` constructions (each
    runs ``__post_init__`` once); returns the list of constructed ids."""
    built = []
    checks = LegendrianComponent.__post_init__

    def counted(self):
        built.append(self.cid)
        checks(self)

    monkeypatch.setattr(LegendrianComponent, "__post_init__", counted)
    return built


@pytest.mark.parametrize("slope", ["24/23", "40/39", "-1/40", "299/599"])
def test_presentation_constructs_each_knot_about_once(slope, monkeypatch):
    built = count_constructions(monkeypatch)
    d = normalize_diagram(trefoil_surgery_diagram(SurgeryCoeff.parse(slope)))
    assert len(built) <= 2 * len(d) + 4


@pytest.mark.parametrize("slope", ["24/23", "-1/40", "10946/6765", "7/3"])  # F(21)/F(20)
def test_normalize_edits_one_draft(slope, monkeypatch):
    # Every move inside runs on the draft ``normalize_diagram`` made.
    d = trefoil_surgery_diagram(SurgeryCoeff.parse(slope))
    drafts, init = [], _Draft.__init__

    def counted(self, source):
        drafts.append(len(source))
        init(self, source)

    monkeypatch.setattr(_Draft, "__init__", counted)
    normalize_diagram(d)
    assert drafts == [len(d)]
