"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line (run with -s to
see them).  Everything is exact — no tolerances anywhere — and the whole
module must finish in under ten seconds.
"""

from __future__ import annotations

import copy
import json
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from tightcert.certify import certify_tight
from tightcert.verify import (
    VerificationResult,
    check_certificate,
    node_presentations,
)
from tightcert.diagrams import (
    add_unknot,
    convert_negative,
    count_presentations,
    empty_diagram,
    normalize_diagram,
    tower_diagram,
    trefoil_surgery_diagram,
)
from tightcert.errors import (
    CalculusError,
    ExcludedSlopeError,
    NoExactTriangleError,
    ParseError,
)
from tightcert.floer import (
    Interval,
    base_facts,
    engine_triangles,
    propagate,
    tower_triangles,
    triangle_solve,
    unknot_triangle,
)
from tightcert.rationals import SurgeryCoeff, neg_continued_fraction
from tightcert.serialize import (
    certificate_from_dict,
    certificate_to_dict,
    diagram_to_dict,
)
from tightcert.topology import (
    Manifold,
    det_signed,
    h1,
    linking_matrix,
    triangle_det_check,
)


def _report(num: int, label: str, ok: bool):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"acceptance criterion {num} failed: {label}"


@pytest.fixture(scope="module", autouse=True)
def _runtime_budget():
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE runtime: {elapsed:.2f}s (budget 10s)")
    assert elapsed < 10.0, f"acceptance suite took {elapsed:.2f}s, budget is 10s"


# ---------------------------------------------------------------------------
# 1. Rank engine pins every tower stage exactly.
# ---------------------------------------------------------------------------


def test_criterion_1_tower_ranks():
    run = propagate(base_facts(), (unknot_triangle(),) + tuple(tower_triangles(100)))
    ok = run.consistent
    for k in range(1, 101):
        ok = ok and run.db.fact(Manifold.neg_tower(k)) == Interval.exact(k)
    _report(1, "propagation pins rank k at every tower stage 1..100", ok)


# ---------------------------------------------------------------------------
# 2. The first triangle map is injective at every stage.
# ---------------------------------------------------------------------------


def test_criterion_2_injectivity():
    ok = triangle_solve(1, 2, 1).f_injective
    for k in range(1, 101):
        ok = ok and triangle_solve(k, k + 1, 1).f_injective
    _report(2, "connecting map injective for dimensions (k, k+1, 1), k = 1..100", ok)


# ---------------------------------------------------------------------------
# 3. Certification end to end: full slope grid, exclusion, tamper corpus.
# ---------------------------------------------------------------------------


def _node(data, nid):
    for n in data["nodes"]:
        if n["id"] == nid:
            return n
    raise AssertionError(f"node {nid} missing")


def _inline_root(data):
    """The root's diagram, after inlining the verifier's own presentation
    of the slope where the root carries none (engine stage >= 1)."""
    root = _node(data, data["conclusion"][1])
    if root["diagram"] is None:
        built = node_presentations(certificate_from_dict(data))
        root["diagram"] = diagram_to_dict(built[root["id"]])
    return root["diagram"]


def _mut_rank_bump(data):
    if not data["rank_facts"]:
        return False
    key = sorted(data["rank_facts"])[0]
    data["rank_facts"][key] += 1
    return True


def _mut_rank_forge(data):
    data["rank_facts"]["-tower(99)"] = 12345
    return True


def _mut_retarget_conclusion(data):
    other = [n["id"] for n in data["nodes"] if n["id"] != data["conclusion"][1]]
    if not other:
        return False
    data["conclusion"][1] = other[0]
    return True


def _mut_drop_last_step(data):
    data["steps"] = data["steps"][:-1]
    return True


def _mut_drop_premise_step(data):
    if len(data["steps"]) < 2:
        return False
    del data["steps"][-2]
    return True


def _mut_poison_rule(data):
    data["steps"][-1]["rule"] = "overtwisted_zero"
    return True


def _mut_unknown_rule(data):
    data["steps"][0]["rule"] = "lemma_of_convenience"
    return True


def _mut_reverse_edge(data):
    if not data["edges"]:
        return False
    e = data["edges"][0]
    e["src"], e["dst"] = e["dst"], e["src"]
    return True


def _mut_tamper_linking(data):
    diagram = _node(data, data["conclusion"][1])["diagram"]
    if diagram is None or not diagram["linkings"]:
        return False
    diagram["linkings"][0][2] += 1
    return True


def _mut_tamper_tb(data):
    diagram = _inline_root(data)
    diagram["components"][0]["tb"] -= 1
    return True


def _mut_slope_header(data):
    data["slope"] = "-8/5" if data["slope"] == "-7/5" else "-7/5"
    return True


def _mut_stage_demote(data):
    if data["engine_stage"] < 2:
        return False
    data["engine_stage"] -= 1
    return True


def _mut_cite_informational(data):
    # Index S + 1 of the stage-S engine family is the k = 1 lens instance,
    # which is informational only.
    pushes = [s for s in data["steps"] if s["rule"] == "plus_one_pushforward"]
    if not pushes:
        return False
    pushes[-1]["refs"][1] = str(data["engine_stage"] + 1)
    return True


def _mut_short_refs(data):
    for step in data["steps"]:
        if step["rule"] in ("cancel_equivalent", "same_diagram"):
            step["refs"] = step["refs"][:1]
            return True
    return False


def _mut_negative_triangle_index(data):
    # A plus_one_pushforward step's values are (edge, triangle).
    for step in data["steps"]:
        if step["rule"] == "plus_one_pushforward":
            refs = step["refs"]
            refs[1] = str(int(refs[1]) - len(engine_triangles(data["engine_stage"])))
            return True
    return False


def _mut_stage_inflate(data):
    data["engine_stage"] += 30
    return True


def _mut_stage_negative(data):
    data["engine_stage"] = -1
    return True


_MUTATIONS = [
    _mut_rank_bump,
    _mut_rank_forge,
    _mut_retarget_conclusion,
    _mut_drop_last_step,
    _mut_drop_premise_step,
    _mut_poison_rule,
    _mut_unknown_rule,
    _mut_reverse_edge,
    _mut_tamper_linking,
    _mut_tamper_tb,
    _mut_slope_header,
    _mut_stage_demote,
    _mut_cite_informational,
    _mut_short_refs,
    _mut_negative_triangle_index,
    _mut_stage_inflate,
    _mut_stage_negative,
]


def _mut_h1_forge(data):
    # An h1_consistency step's values are (node, group).
    for step in data["steps"]:
        if step["rule"] == "h1_consistency":
            step["refs"][1] = "9:9"
            return True
    return False


_MUTATIONS.append(_mut_h1_forge)


# Built nodes: a node that an edge builds is named only by that edge.
# Edges are taken in order; each needs a source that already has a
# presentation and a target that no listed node and no earlier edge holds.


def _built(data):
    """The edge targets, in edge order."""
    return [e["dst"] for e in data["edges"]]


def _declare(data, nid, diagram, manifold=None):
    """List ``nid`` as a node that carries ``diagram``."""
    node = {"id": nid, "diagram": diagram}
    if manifold is not None:
        node = {"id": nid, "manifold": manifold, "diagram": diagram}
    data["nodes"].append(node)


def _mut_edge_from_undeclared(data):
    if not data["edges"]:
        return False
    data["edges"][-1]["src"] = "ghost"
    return True


def _mut_edge_into_root(data):
    if not data["edges"]:
        return False
    data["edges"][-1]["dst"] = data["conclusion"][1]
    return True


def _mut_edge_into_std(data):
    if not data["edges"]:
        return False
    data["edges"][0]["dst"] = "std"
    return True


def _mut_edge_shared_target(data):
    edges = data["edges"]
    if len(edges) < 2:
        return False
    edges[-1]["dst"] = edges[-2]["dst"]
    return True


def _mut_edge_source_built_later(data):
    # The last edge whose source another edge builds moves to the front.
    edges = data["edges"]
    targets = {e["dst"] for e in edges}
    later = [e for e in edges if e["src"] in targets]
    if not later:
        return False
    edges.remove(later[-1])
    edges.insert(0, later[-1])
    return True


def _mut_edge_from_itself(data):
    if not data["edges"]:
        return False
    data["edges"][-1]["src"] = data["edges"][-1]["dst"]
    return True


def _mut_derived_inline_diagram(data):
    # The last edge's target listed, carrying the very diagram the verifier
    # builds for it.
    built = _built(data)
    if not built:
        return False
    presentations = node_presentations(certificate_from_dict(data))
    _declare(data, built[-1], diagram_to_dict(presentations[built[-1]]))
    return True


def _mut_stage_demote_past_derived(data):
    # Stage 0 has no triangle family or rank facts, and its edge bound
    # leaves no room for the ladder's stage edges.
    if not _built(data):
        return False
    data["engine_stage"] = 0
    data["rank_facts"] = {}
    return True


_MUTATIONS += [
    _mut_edge_from_undeclared,
    _mut_edge_into_root,
    _mut_edge_into_std,
    _mut_edge_shared_target,
    _mut_edge_source_built_later,
    _mut_edge_from_itself,
    _mut_derived_inline_diagram,
    _mut_stage_demote_past_derived,
]


# The reduction path: each node yi is built by "cancel:<cid>", a (+1)-surgery
# on a pushoff of the (-1)-knot cid that then cancels against it.


def _path_edges(data):
    return [e for e in data["edges"] if e["witness"].startswith("cancel:")]


def _mut_cancel_plus_one_knot(data):
    root = node_presentations(certificate_from_dict(data))[data["conclusion"][1]]
    plus = [c.cid for c in root.components if c.coeff == SurgeryCoeff(1)]
    path = _path_edges(data)
    if not path or not plus:
        return False
    path[0]["witness"] = f"cancel:{plus[0]}"
    return True


def _mut_cancel_missing_knot(data):
    path = _path_edges(data)
    if not path:
        return False
    path[-1]["witness"] = "cancel:ghost"
    return True


def _mut_pullback_by_extra_edge(data):
    # An extra edge, from the root to the first node with a nonzero class,
    # cited to give the root its nonzero class.
    target = next(
        s["gives"][1] for s in data["steps"] if s["gives"][0] == "c_nonzero"
    )
    root = data["conclusion"][1]
    data["edges"].append({"id": "e_extra", "src": root, "dst": target, "witness": "unknot"})
    data["steps"].insert(-1, {
        "rule": "plus_one_pullback",
        "refs": ["e_extra"],
        "gives": ["c_nonzero", root],
    })
    return True


def _mut_path_inline_diagram(data):
    # The first path node listed, carrying the very diagram its edge builds.
    path = _path_edges(data)
    if not path:
        return False
    built = node_presentations(certificate_from_dict(data))
    _declare(data, path[0]["dst"], diagram_to_dict(built[path[0]["dst"]]))
    return True


_MUTATIONS += [
    _mut_cancel_plus_one_knot,
    _mut_cancel_missing_knot,
    _mut_pullback_by_extra_edge,
    _mut_path_inline_diagram,
]


# Relabelled to a slope whose presentation is huge (a 10^6-knot chain, a
# 10^6-stage tower): rejected on the root's size, before it is built.


def _relabel(slope):
    def mutate(data):
        data["slope"] = slope
        root = _node(data, data["conclusion"][1])
        root["manifold"] = Manifold.trefoil_surgery(SurgeryCoeff.parse(slope)).text()
        return True

    return mutate


_MUTATIONS += [_relabel("-1/1000000"), _relabel("1000001/1000000")]


# Two extra s3 nodes of 24 (-1)-unknots with random ids in shuffled order,
# linked in one 24-cycle and in 8 disjoint triangles, compared by a step
# put first: a backtracking isomorphism search stalls on this pair.


def _stall(rule, n=24):
    def mutate(data):
        rng = random.Random(n)
        pairs = {
            "stall_a": [(i, (i + 1) % n) for i in range(n)],
            "stall_b": [(i, i + 1 if i % 3 < 2 else i - 2) for i in range(n)],
        }
        for nid, links in pairs.items():
            ids = [f"k{rng.randrange(10**6)}_{i}" for i in range(n)]
            order = rng.sample(range(n), n)
            components = [
                {"id": ids[i], "type": "unknot", "tb": -1, "rot": 0, "coeff": "-1"}
                for i in order
            ]
            linkings = [[ids[i], ids[j], 1] for i, j in links]
            diagram = {"components": components, "linkings": linkings}
            data["nodes"].append({"id": nid, "manifold": "s3", "diagram": diagram})
        data["steps"].insert(0, {
            "rule": rule,
            "refs": ["stall_a", "stall_b"],
            "gives": ["c_nonzero", "stall_a"],
        })
        return True

    return mutate


_MUTATIONS += [_stall("same_diagram"), _stall("cancel_equivalent")]


# The root: inline at stage 0, derived from the slope at stage >= 1 once
# its size equals the edge count.


def _mut_drop_path_edge(data):
    # The last path edge: one edge short of the root's size, so the count
    # refuses it before the root is built.
    path = _path_edges(data)
    if not path or _node(data, data["conclusion"][1])["diagram"] is not None:
        return False
    data["edges"].remove(path[-1])
    return True


def _mut_null_stage0_root(data):
    if data["engine_stage"] != 0:
        return False
    _node(data, data["conclusion"][1])["diagram"] = None
    return True


def _mut_reinlined_root_linking(data):
    if _node(data, data["conclusion"][1])["diagram"] is not None:
        return False
    diagram = _inline_root(data)
    diagram["linkings"][0][2] += 1
    return True


_MUTATIONS += [_mut_drop_path_edge, _mut_null_stage0_root, _mut_reinlined_root_linking]


# Manifold labels: a node an edge builds has no entry to name one in, the
# edge into a ladder node gives it its manifold, and an inline node carries
# the verifier's own presentation of its label.  Each forgery below is
# refused before any step runs, with the reason ``_LABEL_REASONS`` gives.


def _mut_shift_ladder_labels(data):
    # Every ladder stage that names its manifold declared one stage
    # higher, each stage edge citing the triangle of the stages it now
    # claims to join.
    ladder = [n for n in data["nodes"] if n.get("manifold", "").startswith("tower(")]
    if not ladder:
        return False
    for n in ladder:
        n["manifold"] = f"tower({int(n['id'][1:]) + 1})"
    for step in data["steps"]:
        refs = step["refs"]
        if step["rule"] == "plus_one_pushforward" and refs[0].startswith("ev"):
            refs[1] = str(int(refs[0][2:]) + 1)
    return True


def _mut_v1_is_tower_two(data):
    if not any(n["id"] == "v1" for n in data["nodes"]):
        return False
    _node(data, "v1")["diagram"] = diagram_to_dict(tower_diagram(2))
    return True


def _mut_eta_as_s3(data):
    # eta listed as s3, with the empty presentation.
    if "eta" not in _built(data):
        return False
    _declare(data, "eta", copy.deepcopy(_node(data, "std")["diagram"]), "s3")
    return True


_INLINE = "inline presentation is not the verifier's presentation of"
_LABEL_REASONS = {
    _mut_shift_ladder_labels: f"node v1: {_INLINE} tower(2)",
    _mut_v1_is_tower_two: f"node v1: {_INLINE} tower(1)",
    _mut_eta_as_s3: "edge e_eta: target 'eta' is already a node",
}
_MUTATIONS += list(_LABEL_REASONS)


# What is refused because a node an edge builds is named only by that
# edge: such a node listed with the very manifold and presentation the
# edge gives it, an inline node naming no manifold, a listed node with no
# presentation, and a step that reads a path node's manifold.  Each is
# refused with the reason ``_UNNAMED_REASONS`` starts, at a step or, when
# it says None, before any step runs.


def _mut_derived_named(data):
    # The ladder node listed with the manifold and presentation its edge
    # gives it.
    if "v2" not in _built(data):
        return False
    _declare(data, "v2", diagram_to_dict(tower_diagram(2)), "tower(2)")
    return True


def _mut_inline_unnamed(data):
    data["nodes"].append({"id": "x", "diagram": {"components": [], "linkings": []}})
    return True


def _mut_listed_without_diagram(data):
    # The circle bundle listed with no presentation: only the root may be.
    data["nodes"].insert(1, {"id": "w", "manifold": "s1xs2", "diagram": None})
    return True


def _mut_pushforward_on_path(data):
    path = _path_edges(data)
    if not path:
        return False
    step = {"rule": "plus_one_pushforward", "refs": [path[0]["id"], "0"],
            "gives": ["c_nonzero", path[0]["dst"]]}
    data["steps"].insert(-1, step)
    return True


def _mut_h1_on_path(data):
    # The bottom of the reduction path is a tower stage, so its h1 is
    # finite cyclic and never "9:9".
    path = _path_edges(data)
    if not path:
        return False
    nid = path[-1]["dst"]
    data["steps"].insert(0, {"rule": "h1_consistency", "refs": [nid, "9:9"],
                             "gives": ["h1", nid]})
    return True


_UNNAMED_REASONS = {
    _mut_derived_named: (None, "edge ev1: target 'v2' is already a node"),
    _mut_inline_unnamed: (None, "node x: inline presentation names no manifold"),
    _mut_listed_without_diagram: (None, "node w: declared with no presentation"),
    _mut_pushforward_on_path: (-2, "edge ey1 joins a node that names no manifold"),
    _mut_h1_on_path: (0, "presentation has h1 0:"),
}
_MUTATIONS += list(_UNNAMED_REASONS)


def test_criterion_3_certificates():
    slopes = sorted(
        {Fraction(p, q) for p in range(-10, 11) for q in range(1, 11)} - {Fraction(1)}
    )
    ok = len(slopes) == 126
    stein = tower = 0
    emitted = []
    for value in slopes:
        r = SurgeryCoeff(value.numerator, value.denominator)
        cert = certify_tight(r)
        # Emission path: serialize, re-parse, verify the parsed object.
        data = json.loads(json.dumps(certificate_to_dict(cert), sort_keys=True))
        parsed = certificate_from_dict(data)
        ok = ok and bool(check_certificate(parsed))
        if cert.engine_stage == 0:
            stein += 1
        else:
            tower += 1
        if 0 < value < 1:
            ok = ok and cert.engine_stage == 0
        elif value < 0 or value > 1:
            ok = ok and cert.engine_stage >= 1
        emitted.append(data)
    ok = ok and stein > 0 and tower > 0

    with pytest.raises(ExcludedSlopeError):
        certify_tight(SurgeryCoeff(1))

    # Tamper corpus: every mutation of a sample of emitted certificates
    # must be rejected by the independent verifier.
    bases = ["-2", "5/2", "-5/3", "0", "2", "9/4", "-10/9", "7/10", "10/3", "1/2"]
    by_slope = {d["slope"]: d for d in emitted}
    tampered = rejected = 0
    slowest = 0.0
    for slope in bases:
        original = by_slope[slope]
        for mutate in _MUTATIONS:
            data = copy.deepcopy(original)
            if not mutate(data):
                continue
            tampered += 1
            start = time.monotonic()
            try:
                result = check_certificate(certificate_from_dict(data))
            except ParseError as exc:
                # Refused while reading, which ``tightcert verify`` reports
                # as REJECTED (exit 3).
                result = VerificationResult(False, None, str(exc))
            slowest = max(slowest, time.monotonic() - start)
            if mutate in _LABEL_REASONS:
                # Refused by the label checks, before any step runs.
                before_steps = (result.step, result.reason) == (None, _LABEL_REASONS[mutate])
                ok = ok and before_steps
            if mutate in _UNNAMED_REASONS:
                step, reason = _UNNAMED_REASONS[mutate]
                at = None if step is None else step % len(data["steps"])
                ok = ok and result.step == at and result.reason.startswith(reason)
            if not result:
                rejected += 1
    ok = ok and tampered >= 50 and rejected == tampered and slowest < 1.0
    _report(
        3,
        f"{len(slopes)} slopes certified+verified ({stein} stein, {tower} tower); "
        f"slope 1 refused; {rejected}/{tampered} tampered certificates rejected, "
        f"the slowest in {slowest:.3f}s",
        ok,
    )


# ---------------------------------------------------------------------------
# 4. Homology oracle across the conversion pipeline.
# ---------------------------------------------------------------------------


def test_criterion_4_homology():
    rng = random.Random(20260819)
    ok = True
    seen = 0
    while seen < 200:
        p, q = rng.randrange(-25, 26), rng.randrange(1, 13)
        if Fraction(p, q) == 1:
            continue
        seen += 1
        reduced = Fraction(p, q)
        diagram = trefoil_surgery_diagram(SurgeryCoeff(p, q))
        link = linking_matrix(normalize_diagram(diagram))
        group = h1(link)
        ok = ok and group.is_cyclic() and group.order() == abs(reduced.numerator)

    checked = 0
    while checked < 50:
        p, q = rng.randrange(-30, 0), rng.randrange(1, 10)
        checked += 1
        reduced = Fraction(p, q)
        base, u = add_unknot(empty_diagram(), coeff=SurgeryCoeff(p, q))
        chain = convert_negative(base, u)
        det = det_signed(linking_matrix(chain).matrix)
        ok = ok and abs(det) == abs(reduced.numerator - reduced.denominator)
    _report(
        4,
        "pipeline h1 cyclic of order |numerator| (200 slopes); "
        "chain determinants match |p - q| (50 negative slopes)",
        ok,
    )


# ---------------------------------------------------------------------------
# 5. Presentation counting against enumeration and the lens expansion.
# ---------------------------------------------------------------------------


def test_criterion_5_presentation_counts():
    ok = all(count_presentations(SurgeryCoeff(1, k)) == 1 for k in range(1, 21))
    ok = ok and count_presentations(SurgeryCoeff(-5, 3)) == 4
    ok = ok and count_presentations(SurgeryCoeff(-3, 2)) == 2

    rng = random.Random(1951)
    picked = 0
    while picked < 20:
        r = SurgeryCoeff(rng.randrange(-12, 0), rng.randrange(1, 7))
        counts = neg_continued_fraction(r).stabilization_counts()
        if sum(counts) > 8:
            continue
        picked += 1

        # (a) brute force over every stabilization sign sequence.
        base, u = add_unknot(empty_diagram(), coeff=r)
        seen = set()
        for combo in product(*[list(product((1, -1), repeat=n)) for n in counts]):
            out = convert_negative(base, u, choice=[list(v) for v in combo])
            seen.add(json.dumps(diagram_to_dict(out), sort_keys=True))
        ok = ok and len(seen) == count_presentations(r)

        # (b) lens cross-check: product of |b + 1| over the expansion of
        # the smooth slope r - 1.
        value = Fraction(r.num, r.den) - 1
        expect = 1
        while True:
            a = value.__floor__()
            expect *= abs(a + 1)
            if a == value:
                break
            value = Fraction(-1) / (value - a)
        ok = ok and count_presentations(r) == expect
    _report(
        5,
        "unit fractions have one presentation (k = 1..20); 20 negative slopes "
        "match sign enumeration and lens expansion products",
        ok,
    )


# ---------------------------------------------------------------------------
# 6. Triangle solver against brute force.
# ---------------------------------------------------------------------------


def test_criterion_6_triangle_oracle():
    ok = True
    for a in range(9):
        for b in range(9):
            for c in range(9):
                sols = [
                    (x, y, z)
                    for x in range(9)
                    for y in range(9)
                    for z in range(9)
                    if x + z == a and x + y == b and y + z == c
                ]
                if sols:
                    got = triangle_solve(a, b, c)
                    ok = ok and [(got.rank_f, got.rank_g, got.rank_h)] == sols
                else:
                    try:
                        triangle_solve(a, b, c)
                        ok = False
                    except NoExactTriangleError:
                        pass
    for bad in [(-1, 2, 1), (1, -2, 1), (1, 2, -1)]:
        try:
            triangle_solve(*bad)
            ok = False
        except CalculusError:
            pass
    _report(6, "solver matches brute-force enumeration for all dimensions <= 8", ok)


# ---------------------------------------------------------------------------
# 7. Consistency predicates on both triangle families; tower homology.
# ---------------------------------------------------------------------------


def test_criterion_7_consistency():
    ok = True
    consecutive = lens = 0
    for tri in tower_triangles(100):
        orders = tuple(m.expected_h1_order() for m in (tri.a, tri.b, tri.c))
        if tri.c == Manifold.poincare():
            if orders[0] >= 2:
                consecutive += 1
                ok = ok and triangle_det_check(*orders)
        elif not tri.informational:
            lens += 1
            ok = ok and triangle_det_check(*orders)
    ok = ok and consecutive == 99 and lens == 99

    for k in range(1, 101):
        ok = ok and h1(tower_diagram(k)).cyclic_order() == k
    _report(
        7,
        "determinant check passes on both families (k = 2..100); "
        "tower homology has order k (k = 1..100)",
        ok,
    )
