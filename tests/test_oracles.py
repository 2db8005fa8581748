"""Independent oracles for the diagram representation and for H1.

``diagram_iso`` is checked against networkx's VF2 matcher on labelled
graphs (every pair it accepts must be isomorphic), and the linking rows
behind every move against ``from_linkings`` and entry-by-entry
linking matrices.  ``smith_normal_form`` is
checked against sympy's, and ``h1`` of a diagram (pushoffs slid over their
parents, then the sparse phase) against the dense phase alone on the
unslid linking matrix; ``det_signed`` against sympy's and a dense Bareiss
reference.  The root presentation of every slope r = p/q is checked
against (Q^-1)_00 = q/p - 2, an identity of this package's presentations
that the conversion does not compute, up to the largest slope of each
``tools/sweep.py`` axis.  Each test that needs a library is skipped when
it is missing.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from tightcert import diagrams
from tightcert.certify import certify_tight
from tightcert.diagrams import (
    ContactDiagram,
    LegendrianComponent,
    add_trefoil,
    add_unknot,
    cancel_pushoff_pairs,
    contact_pushoff,
    convert_negative,
    diagram_iso,
    empty_diagram,
    normalize_diagram,
    remove_component,
    set_coeff,
    stabilize,
    tower_diagram,
    trefoil_surgery_diagram,
)
from tightcert.errors import CalculusError
from tightcert.rationals import NegContinuedFraction, SurgeryCoeff
from tightcert.topology import (
    HomologyResult,
    _dense_phase,
    _slid_rows,
    det_signed,
    h1,
    linking_matrix,
    smith_normal_form,
)
from tightcert.verify import node_presentations

from reference_diagram import (
    from_linkings,
    linking_pairs,
    parents_first,
    reference_det,
    reference_slid_rows,
)
from test_topology import _fib

def shuffled_copy(d, rng, bump=None, reparent=None, shuffle=True):
    """d rebuilt with fresh names in a random order that lists each
    pushoff after its parent, or in its own order when ``shuffle`` is
    false; ``bump`` = (a, b, delta) also shifts lk(a, b), and
    ``reparent`` = (c, p) makes pushoff c name p, listed before it in d,
    as its parent."""
    parents = {c.cid: c.parent for c in d.components}
    if reparent is not None:
        parents[reparent[0]] = reparent[1]
    comps = [replace(c, parent=parents[c.cid]) for c in d.components]
    if shuffle:
        comps = parents_first(comps, rng)
    names = {c.cid: f"x{rng.randrange(10**6)}_{i}" for i, c in enumerate(comps)}
    links = {
        frozenset(names[x] for x in pair): v for pair, v in linking_pairs(d).items()
    }
    if bump is not None:
        a, b, delta = bump
        key = frozenset((names[a], names[b]))
        links[key] = links.get(key, 0) + delta
    out = [replace(c, cid=names[c.cid], parent=c.parent and names[c.parent]) for c in comps]
    return from_linkings(out, links)


def other_parent(d, rng):
    """(c, p): a pushoff c and a component p listed before it other than
    c's parent; None when there is no such pair."""
    ids = d.ids()
    choices = [
        (c.cid, p)
        for i, c in enumerate(d.components)
        if c.parent is not None
        for p in ids[:i]
        if p != c.parent
    ]
    return rng.choice(choices) if choices else None


def as_graph(nx, d):
    """Directed graph: a node per component labelled by its knot data, an
    edge per ordered pair that links or is a parent and child, labelled
    (lk, whether the source is the target's parent).  Nodes go in
    parent-first breadth-first order, so that VF2, which extends its match
    in the second graph's node order, meets every pushoff after its
    parent: on a (-1)-chain of identical knots any other order makes it
    search exponentially."""
    children = {c.cid: [] for c in d.components}
    for c in d.components:
        if c.parent is not None:
            children[c.parent].append(c.cid)
    order = [c.cid for c in d.components if c.parent is None]
    for cid in order:
        order += children[cid]
    g = nx.DiGraph()
    for cid in order:
        c = d.component(cid)
        g.add_node(cid, label=(c.kind, c.smooth_type, c.tb, c.rot, str(c.coeff)))
        # The number of children is an invariant; as a label it spares VF2
        # a factorial search when a pushoff has moved to another parent.
        g.nodes[cid]["label"] += (len(children[cid]),)
    # A pair that neither links nor is a parent and child gets no edge:
    # VF2 matches edges and non-edges alike, so the isomorphism is the
    # same, and a sparsely linked diagram stays cheap to match.
    for a in order:
        for b in order:
            if a != b:
                lk, parent = d.linking(a, b), d.component(b).parent == a
                if lk or parent or d.component(a).parent == b:
                    g.add_edge(a, b, label=(lk, parent))
    return g


def oracle_iso(nx, a, b):
    ga, gb = as_graph(nx, a), as_graph(nx, b)
    # Equal label multisets are necessary; checking them first keeps VF2
    # from searching the symmetric tower stages on a mismatch.
    for attr in ("nodes", "edges"):
        la = Counter(label for *_, label in getattr(ga, attr)(data="label"))
        lb = Counter(label for *_, label in getattr(gb, attr)(data="label"))
        if la != lb:
            return False
    same = lambda x, y: x["label"] == y["label"]  # noqa: E731
    return nx.is_isomorphic(ga, gb, node_match=same, edge_match=same)


def assert_sound(nx, a, b):
    """``diagram_iso`` compares by position, so it may miss an
    isomorphism, but every pair it accepts VF2 must accept too."""
    if diagram_iso(a, b):
        assert oracle_iso(nx, a, b)


def oracle_pool(rng):
    """Tower stages, (-1)-chains and cancelled forms, up to 40 components."""
    pool = [tower_diagram(k) for k in (1, 2, 3, 5, 8, 13, 21, 30, 39)]
    for n in (3, 7, 15, 25, 39):
        d, u = add_unknot(empty_diagram(), coeff=SurgeryCoeff(-(2 * n + 1), 2))
        pool.append(convert_negative(d, u))
        d, u = add_unknot(empty_diagram(), coeff=SurgeryCoeff(-(n + 1), n))
        pool.append(convert_negative(d, u))
    for r in ("5/2", "13/8", "-7/2", "-1/20", "34/21", "17/16"):
        for d in node_presentations(certify_tight(SurgeryCoeff.parse(r))).values():
            pool.append(cancel_pushoff_pairs(d))
    for _ in range(12):
        r = SurgeryCoeff(rng.randrange(-40, 41), rng.randrange(1, 25))
        if r != 1 and r.num != 0:
            d = normalize_diagram(trefoil_surgery_diagram(r))
            pool += [d, cancel_pushoff_pairs(d)]
    return [d for d in pool if len(d) <= 40]


def _unknots(n, links, parents=None):
    """n unknots with coefficient -1, linked by ``links`` ((i, j) -> lk);
    ``parents`` maps a position to its parent's, making it a pushoff."""
    parents = parents or {}
    comps = [
        LegendrianComponent(
            f"u{i}", "pushoff" if i in parents else "unknot",
            f"u{parents[i]}" if i in parents else None, "unknot", -1, 0,
            SurgeryCoeff(-1),
        )
        for i in range(n)
    ]
    return from_linkings(
        comps, {frozenset((f"u{i}", f"u{j}")): v for (i, j), v in links.items()}
    )


def _cycle_and_triangles(n):
    """n unknots linked in one n-cycle, and in n/3 disjoint triangles."""
    cycle = {(i, (i + 1) % n): 1 for i in range(n)}
    triangles = {(i, i + 1 if i % 3 < 2 else i - 2): 1 for i in range(n)}
    return _unknots(n, cycle), _unknots(n, triangles)


def hard_pairs():
    """Non-isomorphic pairs whose components all have matching signatures,
    so only the match itself can tell them apart."""
    yield _cycle_and_triangles(6)
    # Random ids in shuffled order: a backtracking search over the
    # components stalls on this pair.
    rng = random.Random(24)
    yield tuple(shuffled_copy(d, rng) for d in _cycle_and_triangles(24))
    # Each pushoff links its own parent, or the other root instead.
    links = {(0, 2): -1, (1, 3): -1}
    yield _unknots(4, links, {2: 0, 3: 1}), _unknots(4, links, {2: 1, 3: 0})


def test_diagram_iso_hard_pairs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(9312)
    for a, b in hard_pairs():
        assert not oracle_iso(nx, a, b)
        assert not diagram_iso(a, shuffled_copy(b, rng, shuffle=False))
        for _ in range(5):
            a2, b2 = shuffled_copy(a, rng), shuffled_copy(b, rng)
            renamed = shuffled_copy(a, rng, shuffle=False)
            assert diagram_iso(a, renamed) and diagram_iso(renamed, a)
            for x, y in ((a, renamed), (a, a2), (a2, a)):
                assert_sound(nx, x, y)
            assert not diagram_iso(a2, b) and not diagram_iso(b, a2)
            assert not diagram_iso(a, b2) and not diagram_iso(b2, a)


def test_diagram_iso_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(9311)
    pool = oracle_pool(rng)
    assert max(len(d) for d in pool) == 40
    for d in pool:
        twin = shuffled_copy(d, rng)
        renamed = shuffled_copy(d, rng, shuffle=False)
        assert diagram_iso(d, renamed) and diagram_iso(renamed, d)
        assert oracle_iso(nx, d, twin) and oracle_iso(nx, d, renamed)
        assert_sound(nx, d, twin)
        assert_sound(nx, twin, d)
        if len(d) >= 2:
            a, b = rng.sample(d.ids(), 2)
            bump = (a, b, rng.choice((1, -1)))
            off = shuffled_copy(d, rng, bump=bump)
            assert not diagram_iso(d, off) and not oracle_iso(nx, d, off)
            assert not diagram_iso(d, shuffled_copy(d, rng, bump=bump, shuffle=False))
        moved = other_parent(d, rng)
        if moved is not None:
            for shuffle in (True, False):
                off = shuffled_copy(d, rng, reparent=moved, shuffle=shuffle)
                assert_sound(nx, d, off)
                assert_sound(nx, off, d)
    # Every same-size pair of the pool, one side renamed: in order, the
    # verdict is the one for the pair itself; shuffled, it stays sound.
    by_size = {}
    for d in pool:
        by_size.setdefault(len(d), []).append(d)
    for group in by_size.values():
        for a in group:
            for b in group:
                renamed = shuffled_copy(b, rng, shuffle=False)
                assert diagram_iso(a, renamed) == diagram_iso(a, b)
                assert_sound(nx, a, renamed)
                assert_sound(nx, a, shuffled_copy(b, rng))


def _expected_matrix(d):
    ids = d.ids()
    return tuple(
        tuple(
            (d.component(a).tb + d.component(a).coeff).num if a == b else d.linking(a, b)
            for b in ids
        )
        for a in ids
    )


def _check_rows(d):
    assert d == from_linkings(d.components, linking_pairs(d))
    assert hash(d) == hash(from_linkings(d.components, linking_pairs(d)))
    for a in d.ids():
        for b in d.ids():
            if a != b:
                assert d.linking(a, b) == d.linking(b, a)
    if len(d):
        signed = d
        for c in d.components:
            signed = set_coeff(signed, c.cid, SurgeryCoeff(1 if c.tb % 2 else -1))
        assert linking_matrix(signed).matrix == _expected_matrix(signed)


def test_linking_rows_under_random_moves():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    move = st.tuples(
        st.sampled_from(
            ("unknot", "trefoil", "pushoff", "stabilize", "coeff", "remove", "cancel")
        ),
        st.integers(0, 10**6),
        st.sampled_from((-3, -1, 1, 2)),
    )

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(st.lists(move, max_size=30))
    def run(moves):
        # ``model`` keeps the nonzero linkings by unordered id pair, updated
        # by the rules in the diagrams module docstring.
        d, model = empty_diagram(), {}
        for kind, pick, value in moves:
            cid = d.ids()[pick % len(d)] if len(d) else None
            if kind == "unknot" or (cid is None and kind != "trefoil"):
                d, _ = add_unknot(d, tb=-1 - abs(value), coeff=SurgeryCoeff(-1))
            elif kind == "trefoil":
                d, _ = add_trefoil(d, tb=2 - abs(value), coeff=SurgeryCoeff(-1))
            elif kind == "pushoff":
                tb = d.component(cid).tb
                d, new = contact_pushoff(d, cid)
                d = set_coeff(d, new, SurgeryCoeff(1 if value > 0 else -1))
                for pair, v in list(model.items()):
                    if cid in pair:
                        (other,) = pair - {cid}
                        model[frozenset((new, other))] = v
                if tb:
                    model[frozenset((new, cid))] = tb
            elif kind == "stabilize":
                d = stabilize(d, cid, 1 if value > 0 else -1)
            elif kind == "coeff":
                d = set_coeff(d, cid, SurgeryCoeff(value))
            elif kind == "remove":
                d = remove_component(d, cid)
            else:
                d = cancel_pushoff_pairs(d)
            model = {pair: v for pair, v in model.items() if pair <= set(d.ids())}
            assert linking_pairs(d) == model
            _check_rows(d)

    run()


# ---------------------------------------------------------------------------
# H1 and det: sympy's Smith normal form and determinant, and the dense
# phase alone
# ---------------------------------------------------------------------------


def sympy_cokernel(sympy, m):
    """Z^rows / column-span of m, from sympy's invariant factors."""
    from sympy.matrices.normalforms import invariant_factors

    nrows, ncols = len(m), len(m[0]) if m else 0
    if not nrows or not ncols:
        return HomologyResult(nrows, ())
    factors = [abs(int(f)) for f in invariant_factors(sympy.Matrix(m), domain=sympy.ZZ)]
    return HomologyResult(
        nrows - sum(1 for f in factors if f), tuple(sorted(f for f in factors if f > 1))
    )


def dense_h1(d):
    """H1 of a normalized diagram by the dense phase alone, on the linking
    matrix with no slide."""
    return dense_group(linking_matrix(d).matrix)


def dense_group(m):
    """The cokernel of a dense square matrix by ``_dense_phase`` alone;
    HomologyResult checks that its factors form a divisibility chain."""
    diag = _dense_phase([list(row) for row in m])
    return HomologyResult(len(m) - len(diag), tuple(x for x in diag if x > 1))


def oracle_matrices(rng):
    """Random rectangular matrices: dense and sparse, with zero rows and
    columns, and with all entries even (no unit pivot at all)."""
    for _ in range(150):
        nrows, ncols = rng.randrange(0, 9), rng.randrange(0, 9)
        density = rng.choice((0.2, 0.5, 1.0))
        scale = rng.choice((1, 1, 2))
        m = [
            [scale * rng.randrange(-4, 5) if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        if nrows and rng.random() < 0.3:
            m[rng.randrange(nrows)] = [0] * ncols
        if ncols and rng.random() < 0.3:
            j = rng.randrange(ncols)
            for row in m:
                row[j] = 0
        yield m
    # Diagonal-heavy matrices whose entries are mostly isolated.
    for _ in range(20):
        n = rng.randrange(2, 12)
        m = [[rng.choice((2, 3, 4, 6, 9)) if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(rng.randrange(0, 3)):
            m[rng.randrange(n)][rng.randrange(n)] = rng.choice((2, 4, 6))
        yield m


def test_smith_matches_sympy_on_random_matrices():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(8801)
    for m in oracle_matrices(rng):
        assert smith_normal_form(m) == sympy_cokernel(sympy, m), m


@pytest.mark.parametrize("units", [True, False], ids=["any", "no-unit"])
def test_smith_and_det_match_sympy_on_large_entries(units):
    # Up to 8 x 8, entries up to 10^6 in size, mixed with small ones so
    # that units and zeros turn up; without units the sparse phase can
    # only split off isolated entries and the dense phase takes the rest.
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    entry = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))
    if not units:
        entry = entry.filter(lambda x: x not in (1, -1))
    # Square half the time, for det.
    shape = st.integers(1, 8).flatmap(
        lambda n: st.tuples(st.just(n), st.one_of(st.just(n), st.integers(1, 8)))
    )
    matrices = shape.flatmap(
        lambda s: st.lists(st.lists(entry, min_size=s[1], max_size=s[1]), min_size=s[0], max_size=s[0])
    )

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(matrices)
    def run(m):
        assert smith_normal_form(m) == sympy_cokernel(sympy, m)
        if len(m) == len(m[0]):
            assert det_signed(m) == sympy.Matrix(m).det()

    run()


def test_h1_matches_sympy_on_tower_and_root_matrices():
    sympy = pytest.importorskip("sympy")
    diagrams = [tower_diagram(k) for k in (1, 2, 3, 5, 8, 13, 34, 99)]
    for r in ("7/3", "-5/7", "34/21", "-1/40", "101/100"):
        diagrams.append(normalize_diagram(trefoil_surgery_diagram(SurgeryCoeff.parse(r))))
    assert max(len(d) for d in diagrams) == 102
    for d in diagrams:
        link = linking_matrix(d)
        expected = sympy_cokernel(sympy, link.matrix)
        assert h1(d) == smith_normal_form(link) == expected


def test_h1_matches_dense_path_on_certificate_presentations():
    count = 0
    for p in range(-12, 13):
        for q in range(1, 13):
            if math.gcd(p, q) != 1 or (p, q) == (1, 1):
                continue
            for d in node_presentations(certify_tight(SurgeryCoeff(p, q))).values():
                assert h1(d) == dense_h1(d), (p, q)
                assert det_signed(d) == reference_det(linking_matrix(d).matrix), (p, q)
                count += 1
    assert count > 1000
    for r in ("80/79", "160/159", "-1/150"):
        d = normalize_diagram(trefoil_surgery_diagram(SurgeryCoeff.parse(r)))
        assert h1(d) == dense_h1(d), r


def test_h1_matches_dense_path_with_parents_after_children():
    # A copy that lists a pushoff before its parent is refused, so ``h1``
    # slides every pushoff; a copy in another parents-first order presents
    # the same group.
    rng = random.Random(8802)
    refused = 0
    for d in oracle_pool(rng):
        if not len(d):
            continue
        signed = d
        for c in d.components:
            signed = set_coeff(signed, c.cid, SurgeryCoeff(rng.choice((1, -1))))
        twin = shuffled_copy(signed, rng)
        assert h1(twin) == h1(signed) == dense_h1(signed)
        pushoffs = [i for i, c in enumerate(signed.components) if c.parent is not None]
        if pushoffs:
            comps = list(signed.components)
            i = rng.choice(pushoffs)
            comps.insert(signed._pos[comps[i].parent], comps.pop(i))
            with pytest.raises(CalculusError, match="not listed before it"):
                ContactDiagram(comps)
            refused += 1
    assert refused > 20


def nested_tree(rng, depth):
    """A root knot and a nested chain of ``depth`` pushoffs, each of the
    knot before it, with knots stabilized at random before or after their
    pushoffs are taken (so the frozen parent linkings differ), and now and
    then a pushoff of an earlier knot, which gives that knot siblings;
    every knot at +1 or -1."""

    def unit():
        return SurgeryCoeff(rng.choice((1, -1)))

    if rng.random() < 0.5:
        d, cid = add_trefoil(empty_diagram(), tb=1 - rng.randrange(3), coeff=unit())
    else:
        d, cid = add_unknot(empty_diagram(), tb=-1 - rng.randrange(3), coeff=unit())
    for _ in range(depth):
        for _ in range(rng.choice((0, 0, 1, 2))):
            d = stabilize(d, rng.choice((cid, rng.choice(d.ids()))), rng.choice((1, -1)))
        if rng.random() < 0.15:
            d, _ = contact_pushoff(d, rng.choice(d.ids()), unit())
        d, cid = contact_pushoff(d, cid, unit())
    return d


def dense_slid_rows(d):
    """The rows ``h1`` reduces, as a dense matrix."""
    out = [[0] * len(d) for _ in range(len(d))]
    for i, row in enumerate(_slid_rows(d)):
        for j, v in row.items():
            out[i][j] = v
    return out


def permuted(m, rng):
    """P m P^T for a random permutation matrix P: the same cokernel and
    determinant as m."""
    order = list(range(len(m)))
    rng.shuffle(order)
    return [[m[i][j] for j in order] for i in order]


def test_h1_matches_dense_paths_on_nested_pushoff_trees():
    # 100 nested chains of depth 20 to 30 as built and with a linking that
    # breaks the pushoff rule (a deviating row), each also listed in
    # another parents-first order.  The sparse slid rows must be the dense
    # row-and-column slide exactly, h1 the group of the dense slid matrix
    # by the dense phase alone, and det that of the dense Bareiss
    # reference.  A reordering permutes the linking matrix, rows and
    # columns alike, which keeps its group, so sympy runs once for the
    # chain and once for its bumped copy.  That group must also be the one
    # ``smith_normal_form`` and the dense phase alone give the unslid
    # matrix, as built and under a random simultaneous permutation of its
    # rows and columns.
    sympy = pytest.importorskip("sympy")
    rng = random.Random(8803)
    depths = []
    for i in range(100):
        d = nested_tree(rng, rng.randrange(20, 31))
        depth, k = 0, d.components[-1]
        while k.parent is not None:
            depth, k = depth + 1, d.component(k.parent)
        depths.append(depth)
        a, b = rng.sample(d.ids(), 2)
        bumped = shuffled_copy(d, rng, bump=(a, b, rng.choice((-2, -1, 1, 3))), shuffle=False)
        for built in (d, bumped):
            unslid = linking_matrix(built).matrix
            expected = sympy_cokernel(sympy, unslid)
            for m in (unslid, permuted(unslid, rng)):
                assert smith_normal_form(m) == dense_group(m) == expected
            for v in (built, shuffled_copy(built, rng)):
                slid = reference_slid_rows(v)
                assert dense_slid_rows(v) == slid
                assert h1(v) == dense_group(slid) == expected
                assert det_signed(v) == reference_det(linking_matrix(v).matrix)
    assert min(depths) >= 20


# ---------------------------------------------------------------------------
# The root's exact slope
# ---------------------------------------------------------------------------


def _root(p, q):
    return normalize_diagram(trefoil_surgery_diagram(SurgeryCoeff(p, q)))


def _corner(root):
    """(Q^-1)_00 of the root's linking matrix Q, as C_00 / D with D = det Q;
    None when D = 0.  The cofactor C_00 = det(Q + e_0 e_0^T) - D is the
    determinant of Q without the trefoil's row and column, which is the
    linking matrix of the root without the trefoil: ``remove_component``
    keeps every other linking number and framing, so both determinants
    are read off slid rows in linear time."""
    d = det_signed(root)
    if d == 0:
        return None
    return Fraction(det_signed(remove_component(root, root.components[0].cid)), d)


def _fixes_slope(root, p, q):
    return _corner(root) == Fraction(q, p) - 2


def test_root_fixes_its_slope_on_every_workload_slope(workloads):
    # Slope 0 has D = 0, and slope 1 has no root.
    slopes = {pq for name in workloads.NAMES for pq in workloads.spec(name).pairs}
    slopes -= {(0, 1), (1, 1)}
    assert len(slopes) == 1188
    for p, q in sorted(slopes):
        assert _fixes_slope(_root(p, q), p, q), f"{p}/{q}"


def test_root_fixes_its_slope_on_drawn_slopes():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(-500, 500), st.integers(1, 500))
    def run(p, q):
        hypothesis.assume(p not in (0, q) and math.gcd(p, q) == 1)
        assert _fixes_slope(_root(p, q), p, q)

    run()


@pytest.mark.parametrize("p, q", [
    (1281, 1280), (-1, 2400), (_fib(2001), _fib(2000)), (_fib(2000), _fib(2001)),
], ids=["tower", "chain", "nested", "stage0"])
def test_root_fixes_its_slope_at_each_sweep_axis_largest_size(p, q):
    # The largest slope of each ``tools/sweep.py`` axis.  1281/1280 takes
    # the longest: removing the trefoil demotes its 1280 pushoffs to roots,
    # each written with an explicit row (ROADMAP item 2).
    start = time.thread_time()
    assert _fixes_slope(_root(p, q), p, q)
    assert time.thread_time() - start < 5


# (term index, move) -> (roots changed, roots whose |H1| is still |p|)
# over the p/q with |p| <= 13 and q <= 11.  Without the second term's +1
# move these are the 769 roots and 79 audit passes of ROADMAP's Baseline.
_BROKEN_ROOTS = {
    (0, -1): (183, 40),
    (0, 1): (163, 21),
    (1, -1): (147, 0),
    (1, 1): (48, 0),
    (-1, -1): (183, 9),
    (-1, 1): (93, 9),
}


@pytest.mark.parametrize("index, delta", list(_BROKEN_ROOTS))
def test_root_identity_refuses_every_root_of_a_broken_conversion(index, delta, monkeypatch):
    # A conversion whose continued fraction has one term moved by one,
    # where the moved expansion is still valid, builds another root for
    # some slopes.  The identity refuses each of them, also those whose
    # |H1| is still |p|, which the root's h1 audit passes.
    expand = diagrams.neg_continued_fraction

    def moved(r):
        cs = list(expand(r).coeffs)
        if -len(cs) <= index < len(cs):
            cs[index] += delta
            try:
                return NegContinuedFraction(tuple(cs))
            except CalculusError:
                pass
        return expand(r)

    slopes = [
        (p, q) for q in range(1, 12) for p in range(-13, 14)
        if p not in (0, q) and math.gcd(p, q) == 1
    ]
    roots = {pq: _root(*pq) for pq in slopes}
    monkeypatch.setattr(diagrams, "neg_continued_fraction", moved)
    changed = h1_passed = 0
    for (p, q), root in roots.items():
        try:
            broken = _root(p, q)
        except CalculusError:
            continue
        if linking_matrix(broken) == linking_matrix(root):
            continue
        changed += 1
        rows = [list(row) for row in linking_matrix(broken).matrix]
        rows[0][0] += 1
        assert det_signed(rows) - det_signed(broken) == det_signed(
            remove_component(broken, broken.components[0].cid)
        )
        h1_passed += h1(broken).cyclic_order() == abs(p)
        assert not _fixes_slope(broken, p, q), f"{p}/{q}"
    assert (changed, h1_passed) == _BROKEN_ROOTS[index, delta]
