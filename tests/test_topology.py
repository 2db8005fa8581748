"""Integer linear algebra, framed links, and manifold labels.

Oracles: determinants are cross-checked by cofactor expansion, invariant
factors by gcds of k x k minors -- both independent of the elimination code.
"""

from __future__ import annotations

import copy
import math
import random
import time
from itertools import combinations

import pytest

from tightcert.diagrams import (
    ContactDiagram,
    LegendrianComponent,
    add_unknot,
    contact_pushoff,
    empty_diagram,
    normalize_diagram,
    set_coeff,
    tower_diagram,
    trefoil_surgery_diagram,
)
from tightcert.errors import (
    CalculusError,
    NormalizationRequiredError,
    ParseError,
)
from tightcert.rationals import INF, SurgeryCoeff
from tightcert.topology import (
    FramedLink,
    HomologyResult,
    Manifold,
    det_signed,
    h1,
    linking_matrix,
    smith_normal_form,
    triangle_det_check,
)
from tightcert import topology
from tightcert.topology import _dense_phase

from reference_diagram import from_linkings


def det_oracle(m):
    """Cofactor-expansion determinant; exact, no shared code with Bareiss."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j, v in enumerate(m[0]):
        if v:
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * v * det_oracle(minor)
    return total


def invariant_factors_oracle(m):
    """Invariant factors from gcds of all k x k minors."""
    nrows, ncols = len(m), len(m[0]) if m else 0
    gcds = [1]
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for rows in combinations(range(nrows), k):
            for cols in combinations(range(ncols), k):
                sub = [[m[i][j] for j in cols] for i in rows]
                g = math.gcd(g, det_oracle(sub))
        if g == 0:
            break
        gcds.append(g)
    return [gcds[i] // gcds[i - 1] for i in range(1, len(gcds))]


def random_matrix(rng, nrows, ncols, lo=-5, hi=5):
    return [[rng.randrange(lo, hi + 1) for _ in range(ncols)] for _ in range(nrows)]


def random_symmetric(rng, n, lo=-4, hi=4):
    m = random_matrix(rng, n, n, lo, hi)
    for i in range(n):
        for j in range(i):
            m[i][j] = m[j][i]
    return m


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def test_smith_frozen_examples():
    assert smith_normal_form([[6]]) == HomologyResult(0, (6,))
    assert smith_normal_form([[1]]) == HomologyResult(0, ())
    assert smith_normal_form([[0]]) == HomologyResult(1, ())
    assert smith_normal_form([[2, 0], [0, 4]]) == HomologyResult(0, (2, 4))
    assert smith_normal_form([[2, 0], [0, 3]]) == HomologyResult(0, (6,))
    assert smith_normal_form([[4, 2], [2, 4]]) == HomologyResult(0, (2, 6))
    assert smith_normal_form([]) == HomologyResult(0, ())
    assert smith_normal_form([[0, 0], [0, 0]]) == HomologyResult(2, ())


def test_smith_rectangular():
    # Presentation of Z^3 / span of two columns.
    assert smith_normal_form([[2, 0], [0, 3], [0, 0]]) == HomologyResult(1, (6,))
    assert smith_normal_form([[1, 0, 0], [0, 5, 0]]) == HomologyResult(0, (5,))


def test_smith_matches_minor_gcd_oracle():
    rng = random.Random(3101)
    for _ in range(120):
        nrows = rng.randrange(1, 5)
        ncols = rng.randrange(1, 5)
        m = random_matrix(rng, nrows, ncols)
        got = smith_normal_form(m)
        factors = invariant_factors_oracle(m)
        assert got.free_rank == nrows - len(factors)
        assert got.torsion == tuple(d for d in factors if d > 1)


def test_smith_invariant_under_permutation():
    rng = random.Random(3102)
    for _ in range(60):
        n = rng.randrange(2, 6)
        m = random_matrix(rng, n, n)
        base = smith_normal_form(m)
        rows = list(range(n))
        cols = list(range(n))
        rng.shuffle(rows)
        rng.shuffle(cols)
        shuffled = [[m[i][j] for j in cols] for i in rows]
        assert smith_normal_form(shuffled) == base


def test_smith_torsion_order_matches_det():
    rng = random.Random(3103)
    for _ in range(80):
        n = rng.randrange(1, 6)
        m = random_symmetric(rng, n)
        d = det_signed(m)
        g = smith_normal_form(m)
        if d == 0:
            assert g.free_rank > 0
        else:
            assert g.free_rank == 0
            assert g.order() == abs(d)


def test_smith_rejects_ragged():
    with pytest.raises(CalculusError):
        smith_normal_form([[1, 2], [3]])


def test_smith_rejects_non_integer_entries():
    with pytest.raises(CalculusError):
        smith_normal_form([[1, 0.5], [0, 2]])


def test_smith_merges_isolated_entries_into_a_chain():
    # No unit anywhere: every entry is split off on its own, and the
    # orders are merged by gcd/lcm.
    assert smith_normal_form([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == HomologyResult(0, (2, 12))
    assert smith_normal_form([[6, 0], [0, 0], [0, 10]]) == HomologyResult(1, (2, 30))
    assert smith_normal_form([[4, 0, 0, 0], [0, 0, 0, 6]]) == HomologyResult(0, (2, 12))
    # Isolated entries beside a block only the dense phase can reduce.
    m = [[2, 0, 0], [0, 4, 2], [0, 2, 4]]
    assert smith_normal_form(m) == HomologyResult(0, (2, 2, 6))


# ---------------------------------------------------------------------------
# Determinants
# ---------------------------------------------------------------------------


def test_det_frozen_examples():
    assert det_signed([]) == 1
    assert det_signed([[7]]) == 7
    assert det_signed([[0, 1], [1, 2]]) == -1
    assert det_signed([[0, 1, 1], [1, 2, 1], [1, 1, 2]]) == -2
    assert det_signed([[2, 1], [1, 2]]) == 3


def test_det_matches_cofactor_oracle():
    rng = random.Random(3104)
    for _ in range(150):
        n = rng.randrange(1, 6)
        m = random_matrix(rng, n, n)
        assert det_signed(m) == det_oracle(m)


def test_det_rejects_nonsquare():
    with pytest.raises(CalculusError):
        det_signed([[1, 2, 3], [4, 5, 6]])


def test_det_rejects_non_integer_entries():
    with pytest.raises(CalculusError):
        det_signed([[1, 0.5], [0, 2]])


# ---------------------------------------------------------------------------
# Homology result bookkeeping
# ---------------------------------------------------------------------------


def test_homology_result_validation():
    with pytest.raises(CalculusError):
        HomologyResult(0, (1,))
    with pytest.raises(CalculusError):
        HomologyResult(0, (3, 2))
    with pytest.raises(CalculusError):
        HomologyResult(-1, ())
    ok = HomologyResult(1, (2, 4))
    assert ok.order() == 0
    assert not ok.is_cyclic()


def test_homology_result_queries():
    assert HomologyResult(0, ()).order() == 1
    assert HomologyResult(0, (5,)).cyclic_order() == 5
    assert HomologyResult(1, ()).cyclic_order() == 0
    assert HomologyResult(0, (2, 2)).cyclic_order() is None
    assert HomologyResult(2, ()).cyclic_order() is None
    assert HomologyResult(0, (3, 6)).order() == 18


# ---------------------------------------------------------------------------
# Framed links and linking matrices
# ---------------------------------------------------------------------------


def test_framed_link_validation():
    with pytest.raises(CalculusError):
        FramedLink(((0, 1), (2, 0)))
    with pytest.raises(CalculusError):
        FramedLink(((0, 1),))
    with pytest.raises(CalculusError):
        FramedLink(((0,),), ("unknot", "unknot"))
    link = FramedLink(((2,),))
    assert link.tags == ("",)


def test_linking_matrix_requires_normalization():
    d, u = add_unknot(empty_diagram(), coeff=SurgeryCoeff(-5, 3))
    with pytest.raises(NormalizationRequiredError):
        linking_matrix(d)
    d2, _ = add_unknot(empty_diagram())
    with pytest.raises(NormalizationRequiredError):
        linking_matrix(d2)


def test_linking_matrix_rejects_unit_fractions_and_inf():
    base = tower_diagram(2)
    cid = base.ids()[1]
    for k in (SurgeryCoeff(1, 2), SurgeryCoeff(-1, 3), INF, SurgeryCoeff(2)):
        with pytest.raises(NormalizationRequiredError):
            linking_matrix(set_coeff(base, cid, k))
    # The unchecked construction agrees with the validating constructor.
    link = linking_matrix(set_coeff(base, cid, SurgeryCoeff(-1)))
    assert FramedLink(link.matrix, link.tags) == link
    assert link.matrix[1][1] == base.component(cid).tb - 1


def test_linking_matrix_tower_frozen():
    link = linking_matrix(tower_diagram(2))
    assert link.matrix == ((0, 1, 1), (1, 2, 1), (1, 1, 2))
    assert link.tags == ("rhtrefoil", "rhtrefoil", "rhtrefoil")


def test_linking_matrix_simple_chain():
    d, a = add_unknot(empty_diagram(), coeff=SurgeryCoeff(-1))
    d, b = contact_pushoff(d, a)
    d = set_coeff(d, b, SurgeryCoeff(-1))
    link = linking_matrix(d)
    assert link.matrix == ((-2, -1), (-1, -2))
    assert link.tags == ("unknot", "unknot")


def test_h1_dispatches_all_input_kinds():
    d = tower_diagram(3)
    link = linking_matrix(d)
    raw = [list(row) for row in link.matrix]
    assert h1(d) == h1(link) == h1(raw)
    assert h1(d).cyclic_order() == 3


def _dense_h1(d):
    """H1 of a diagram by the dense phase alone, with no slide."""
    a = [list(row) for row in linking_matrix(d).matrix]
    diag = _dense_phase(a)
    return HomologyResult(len(a) - len(diag), tuple(x for x in diag if x > 1))


def _minus_one_unknot(cid, parent=None):
    kind = "pushoff" if parent else "unknot"
    return LegendrianComponent(cid, kind, parent, "unknot", -1, 0, SurgeryCoeff(-1))


def test_h1_slides_only_over_earlier_parents():
    # Two (-1)-pushoffs, each the other's parent, linked once: the matrix
    # ((-2, 1), (1, -2)) presents Z/3.  Sliding both rows over each other
    # would present Z + Z/3.
    cycle = from_linkings(
        [_minus_one_unknot("a", "b"), _minus_one_unknot("b", "a")],
        {frozenset("ab"): 1},
    )
    assert h1(cycle) == _dense_h1(cycle) == HomologyResult(0, (3,))
    # A three-cycle, and pushoffs listed before their parents.
    cycle3 = from_linkings(
        [_minus_one_unknot("a", "c"), _minus_one_unknot("b", "a"), _minus_one_unknot("c", "b")],
        {frozenset("ab"): -1, frozenset("bc"): -1, frozenset("ca"): -1},
    )
    assert h1(cycle3) == _dense_h1(cycle3) == HomologyResult(0, (4,))
    later = from_linkings(
        [
            _minus_one_unknot("p", "k"),
            _minus_one_unknot("k"),
            _minus_one_unknot("q", "p"),
        ],
        {frozenset("pk"): -1, frozenset("qk"): -1, frozenset("pq"): 2},
    )
    assert h1(later) == _dense_h1(later) == HomologyResult(0, (8,))


def test_h1_of_unlinked_unknots_is_linear():
    # No framing is +/-1, so every entry is an isolated summand Z/2.
    d = ContactDiagram([_minus_one_unknot(f"u{i}") for i in range(400)])
    start = time.perf_counter()
    group = h1(d)
    elapsed = time.perf_counter() - start
    assert group == HomologyResult(0, (2,) * 400)
    assert elapsed < 0.5


def _fib(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


# The benchmark's slope sets (perfbench/workloads.py): tower, grid, chain.
_TOWER_SLOPES = [SurgeryCoeff(s, s - 1) for s in range(8, 41, 8)]
_GRID_SLOPES = [
    SurgeryCoeff(p, q)
    for q in range(1, 31)
    for p in range(-30, 31)
    if math.gcd(p, q) == 1 and (p, q) != (1, 1)
]
_CHAIN_SLOPES = (
    [SurgeryCoeff(-1, m) for m in (5, 10, 20, 40)]
    + [SurgeryCoeff(n - 1, 2 * n - 1) for n in (25, 50, 100, 200, 300)]
    + [SurgeryCoeff(-a) for a in (250, 500, 1000, 2000, 4000)]
    + [
        SurgeryCoeff(*pair)
        for k in range(5, 41)
        for pair in ((_fib(k + 1), _fib(k)), (_fib(k), _fib(k + 1)))
    ]
)


def test_h1_hands_smith_at_most_four_entries_a_knot(monkeypatch):
    # Rows and columns slid together keep a nested (-1)-chain tridiagonal,
    # so no presentation the package builds gives the elimination more
    # than 4 stored entries a knot; the chains alone gave n^2/2.  The rows
    # are caught at the module attribute that h1 calls.
    handed = []
    real = topology.smith_normal_form

    def record(m):
        handed.append(sum(len(row) for row in m))
        return real(m)

    monkeypatch.setattr(topology, "smith_normal_form", record)
    slopes = _TOWER_SLOPES + _GRID_SLOPES + _CHAIN_SLOPES
    slopes += [SurgeryCoeff(_fib(501), _fib(500)), SurgeryCoeff(_fib(500), _fib(501))]
    pool = [(str(r), normalize_diagram(trefoil_surgery_diagram(r))) for r in slopes]
    pool += [(f"tower stage {k}", tower_diagram(k)) for k in range(1, 41)]
    assert len(pool) == 5 + 1110 + 86 + 2 + 40
    assert [len(d) for _, d in pool[-42:-40]] == [253, 251]
    for name, d in pool:
        handed.clear()
        topology.h1(d)
        assert len(handed) == 1 and handed[0] <= 4 * len(d), (name, len(d), handed)


# ---------------------------------------------------------------------------
# Manifold labels
# ---------------------------------------------------------------------------


def test_manifold_text_parse_round_trip():
    cases = [
        Manifold.s3(),
        Manifold.s1xs2(),
        Manifold.poincare(),
        Manifold.lens(7, 2),
        Manifold.tower(4),
        Manifold.neg_tower(9),
        Manifold.trefoil_surgery(SurgeryCoeff(-5, 3)),
        Manifold.trefoil_surgery(SurgeryCoeff(0)),
    ]
    for m in cases:
        assert Manifold.parse(m.text()) == m


def test_equal_manifolds_hash_equal():
    # The hash is computed once per instance; equal manifolds built by
    # different routes, or copied, still hash and compare equal.
    pairs = [
        (Manifold.lens(5, 7), Manifold.parse("lens(5,2)")),
        (Manifold.lens(1, 3), Manifold.s3()),
        (Manifold.tower(4), Manifold.neg_tower(4).mirror()),
        (Manifold.trefoil_surgery(SurgeryCoeff(-10, 6)), Manifold.parse("trefoil(-5/3)")),
        (Manifold("tower", 4), Manifold.tower(4)),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        twin = copy.deepcopy(a)
        assert twin == a and hash(twin) == hash(a)
        assert {a: 1}[b] == 1
    assert Manifold.tower(4) != Manifold.neg_tower(4)
    assert len({Manifold.tower(k) for k in range(1, 50)} | {Manifold.tower(3)}) == 49
    assert repr(Manifold.tower(4)) == "Manifold(kind='tower', p=4, q=0)"


def test_lens_normalization():
    assert Manifold.lens(5, 7) == Manifold.lens(5, 2)
    assert Manifold.lens(1, 0) == Manifold.s3()
    assert Manifold.lens(1, 3) == Manifold.s3()
    with pytest.raises(CalculusError):
        Manifold.lens(6, 3)
    with pytest.raises(CalculusError):
        Manifold.lens(0, 1)


def test_mirror_involution():
    cases = [
        Manifold.s3(),
        Manifold.s1xs2(),
        Manifold.lens(7, 2),
        Manifold.tower(5),
        Manifold.neg_tower(3),
    ]
    for m in cases:
        assert m.mirror().mirror() == m
    assert Manifold.s3().mirror() == Manifold.s3()
    assert Manifold.tower(5).mirror() == Manifold.neg_tower(5)
    assert Manifold.lens(7, 2).mirror() == Manifold.lens(7, 5)
    with pytest.raises(CalculusError):
        Manifold.trefoil_surgery(SurgeryCoeff(2)).mirror()


def test_expected_h1_order():
    assert Manifold.s3().expected_h1_order() == 1
    assert Manifold.poincare().expected_h1_order() == 1
    assert Manifold.s1xs2().expected_h1_order() == 0
    assert Manifold.lens(9, 2).expected_h1_order() == 9
    assert Manifold.tower(6).expected_h1_order() == 6
    assert Manifold.neg_tower(6).expected_h1_order() == 6
    assert Manifold.trefoil_surgery(SurgeryCoeff(-7, 3)).expected_h1_order() == 7
    assert Manifold.trefoil_surgery(SurgeryCoeff(0)).expected_h1_order() == 0


def test_manifold_parse_rejects():
    for text in ("", "lens(4)", "lens(4,2)", "tower(0)", "nonsense", "trefoil(x)", "opaque:x"):
        with pytest.raises(CalculusError):
            Manifold.parse(text)
    # Slope 1 names a real manifold; only certification excludes it.
    assert Manifold.parse("trefoil(1)").expected_h1_order() == 1


def reference_parse(text):
    """``Manifold.parse`` as it was before it dispatched on the text before
    "(": each head tried in turn with ``startswith``."""
    text = text.strip()
    if text == "s3":
        return Manifold.s3()
    if text == "s1xs2":
        return Manifold.s1xs2()
    if text == "poincare":
        return Manifold.poincare()
    for head, maker in (
        ("lens(", None),
        ("tower(", Manifold.tower),
        ("-tower(", Manifold.neg_tower),
        ("trefoil(", None),
    ):
        if text.startswith(head) and text.endswith(")"):
            body = text[len(head) : -1]
            try:
                if head == "lens(":
                    p_str, q_str = body.split(",")
                    return Manifold.lens(int(p_str), int(q_str))
                if head == "trefoil(":
                    return Manifold.trefoil_surgery(SurgeryCoeff.parse(body))
                return maker(int(body))
            except (ValueError, CalculusError) as exc:
                raise ParseError(f"bad manifold {text!r}: {exc}") from None
    raise ParseError(f"bad manifold {text!r}")


def _parsed(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


def test_manifold_parse_matches_the_reference():
    rng = random.Random(15)
    pieces = ["s3", "s1xs2", "poincare", "lens(", "tower(", "-tower(",
              "trefoil(", "(", ")", ",", "1", "-3", "7", "0", " ", "/", "x", "inf", "_"]
    texts = ["tower()", "tower(", "tower)", "-tower( 2)", " s3 ", "lens(5, 2)",
             "lens(5,2,1)", "trefoil((1/2))", "opaque:x(", "(3)", ""]
    texts += ["".join(rng.choices(pieces, k=rng.randint(1, 5))) for _ in range(30000)]
    for text in texts:
        assert _parsed(Manifold.parse, text) == _parsed(reference_parse, text), text
    assert sum(isinstance(_parsed(Manifold.parse, t), Manifold) for t in texts) > 1000


# ---------------------------------------------------------------------------
# Determinant compatibility predicate
# ---------------------------------------------------------------------------


def test_triangle_det_check_table():
    assert triangle_det_check(3, 4, 1)
    assert triangle_det_check(3, 4, 7)
    assert triangle_det_check(4, 3, 1)
    assert triangle_det_check(0, 5, 5)
    assert not triangle_det_check(3, 4, 2)
    assert not triangle_det_check(3, 4, 6)


def test_trefoil_surgery_homology_spot_checks():
    for text, order in (("-3", 3), ("7/2", 7), ("1/2", 1), ("0", 0), ("-9/5", 9)):
        d = normalize_diagram(trefoil_surgery_diagram(SurgeryCoeff.parse(text)))
        g = h1(d)
        assert g.is_cyclic()
        assert g.cyclic_order() == order
