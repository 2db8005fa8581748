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

from tightcert.certify import certify_tight, check_certificate, node_presentations
from tightcert.diagrams import (
    add_unknot,
    convert_negative,
    count_presentations,
    empty_diagram,
    normalize_diagram,
    tower_diagram,
    trefoil_surgery_diagram,
)
from tightcert.errors import CalculusError, ExcludedSlopeError, NoExactTriangleError
from tightcert.floer import (
    Interval,
    base_facts,
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
    if not diagram["linkings"]:
        return False
    diagram["linkings"][0][2] += 1
    return True


def _mut_tamper_tb(data):
    diagram = _node(data, data["conclusion"][1])["diagram"]
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


def _mut_forge_triangle(data):
    if not data["triangles"]:
        return False
    data["triangles"][-1]["c"] = "s3"
    return True


def _mut_short_refs(data):
    for step in data["steps"]:
        if step["rule"] in ("cancel_equivalent", "same_diagram"):
            step["refs"] = step["refs"][:1]
            return True
    return False


def _mut_negative_triangle_index(data):
    for step in data["steps"]:
        for ref in step["refs"]:
            if ref[0] == "triangle":
                ref[1] = str(int(ref[1]) - len(data["triangles"]))
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
    _mut_forge_triangle,
    _mut_short_refs,
    _mut_negative_triangle_index,
    _mut_stage_inflate,
    _mut_stage_negative,
]


def _mut_h1_forge(data):
    for step in data["steps"]:
        if step["rule"] == "h1_consistency":
            for ref in step["refs"]:
                if ref[0] == "group":
                    ref[1] = "9:9"
                    return True
    return False


_MUTATIONS.append(_mut_h1_forge)


# Derived nodes: a node whose "via" names the edge that builds it.


def _derived(data):
    return [n for n in data["nodes"] if n.get("via") is not None]


def _edge(data, eid):
    return next(e for e in data["edges"] if e["id"] == eid)


def _mut_via_missing_edge(data):
    derived = _derived(data)
    if not derived:
        return False
    derived[-1]["via"] = "e_missing"
    return True


def _mut_via_path_edge(data):
    path = [e["id"] for e in data["edges"] if e["id"].startswith("ey")]
    derived = _derived(data)
    if not path or not derived:
        return False
    derived[0]["via"] = path[0]
    return True


def _mut_via_later_node(data):
    # The last derived node moves to the front, before its edge's source.
    derived = _derived(data)
    if not derived:
        return False
    data["nodes"].remove(derived[-1])
    data["nodes"].insert(0, derived[-1])
    return True


def _mut_via_itself(data):
    derived = _derived(data)
    if not derived:
        return False
    _edge(data, derived[-1]["via"])["src"] = derived[-1]["id"]
    return True


def _mut_via_shared_edge(data):
    derived = _derived(data)
    if len(derived) < 2:
        return False
    derived[-1]["via"] = derived[-2]["via"]
    return True


def _mut_derived_inline_diagram(data):
    # The inline diagram is the very one the verifier would build.
    derived = _derived(data)
    if not derived:
        return False
    built = node_presentations(certificate_from_dict(data))
    derived[-1]["diagram"] = diagram_to_dict(built[derived[-1]["id"]])
    return True


def _mut_stage_demote_past_derived(data):
    # Stage 0 cites no triangles or rank facts, and allows one derived node.
    if not _derived(data):
        return False
    data["engine_stage"] = 0
    data["triangles"] = []
    data["rank_facts"] = {}
    return True


_MUTATIONS += [
    _mut_via_missing_edge,
    _mut_via_path_edge,
    _mut_via_later_node,
    _mut_via_itself,
    _mut_via_shared_edge,
    _mut_derived_inline_diagram,
    _mut_stage_demote_past_derived,
]


# The reduction path: each node yi is derived by "cancel:<cid>", a (+1)-surgery
# on a pushoff of the (-1)-knot cid that then cancels against it.


def _path_edges(data):
    return [e for e in data["edges"] if e["witness"].startswith("cancel:")]


def _mut_cancel_plus_one_knot(data):
    root = _node(data, data["conclusion"][1])["diagram"]
    plus = [c["id"] for c in root["components"] if c["coeff"] == "1"]
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
    # An edge that derives no node, from the root to the first node with a
    # nonzero class, cited to give the root its nonzero class.
    target = next(
        s["gives"][1] for s in data["steps"] if s["gives"][0] == "c_nonzero"
    )
    root = data["conclusion"][1]
    data["edges"].append({"id": "e_extra", "src": root, "dst": target, "witness": "unknot"})
    data["steps"].insert(-1, {
        "rule": "plus_one_pullback",
        "refs": [["edge", "e_extra"]],
        "gives": ["c_nonzero", root],
    })
    return True


def _mut_path_inline_diagram(data):
    # The first path node carries, beside its via, the very diagram built.
    path = _path_edges(data)
    if not path:
        return False
    node = _node(data, path[0]["dst"])
    built = node_presentations(certificate_from_dict(data))
    node["diagram"] = diagram_to_dict(built[node["id"]])
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
    for slope in bases:
        original = by_slope[slope]
        for mutate in _MUTATIONS:
            data = copy.deepcopy(original)
            if not mutate(data):
                continue
            tampered += 1
            if not check_certificate(certificate_from_dict(data)):
                rejected += 1
    ok = ok and tampered >= 50 and rejected == tampered
    _report(
        3,
        f"{len(slopes)} slopes certified+verified ({stein} stein, {tower} tower); "
        f"slope 1 refused; {rejected}/{tampered} tampered certificates rejected",
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
