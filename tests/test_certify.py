"""Certificate emission and independent verification, including tampering.

Every tamper test mutates a genuine certificate and asserts the verifier
pinpoints a failure; the heavyweight mutation corpus lives with the
acceptance checks.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
from dataclasses import replace

import pytest

from tightcert import certify
from tightcert.certify import (
    Certificate,
    ContactNode,
    Step,
    SurgeryEdge,
    VerificationResult,
    build_tower_chain,
    certify_tight,
    check_certificate,
    node_presentations,
    rules,
    slope_companion,
)
from tightcert.diagrams import (
    ContactDiagram,
    cancel_pushoff_pairs,
    diagram_iso,
    empty_diagram,
    normalize_diagram,
    set_coeff,
    stabilize,
    tower_diagram,
    trefoil_chain_ids,
    trefoil_surgery_diagram,
)
from tightcert.errors import CalculusError, ExcludedSlopeError, ParseError
from tightcert.floer import Interval, engine_triangles
from tightcert.rationals import SurgeryCoeff
from tightcert.serialize import certificate_from_dict, certificate_to_dict, diagram_to_dict
from tightcert.topology import Manifold, h1
from tightcert import diagrams, floer, topology
from reference_certify import (
    reference_chain_ids,
    reference_node_presentations,
    reference_rank_facts,
    reference_walk,
)
from reference_diagram import from_linkings, linking_pairs
from test_diagrams import _child_of_pushoff, count_constructions
from test_topology import _fib


def fresh(cert):
    """Independent copy via the serialization round trip."""
    return certificate_from_dict(certificate_to_dict(cert))


def with_linking(d, a, b, value):
    links = linking_pairs(d)
    links[frozenset((a, b))] = value
    return from_linkings(d.components, links)


def root_presentation(cert):
    """The root's presentation, inline or as the verifier derives it."""
    return node_presentations(cert)[cert.conclusion[1]]


def inline_root(cert, diagram=None):
    """Give the root ``diagram`` inline, by default its own presentation."""
    root = cert.nodes[cert.conclusion[1]]
    if diagram is None:
        diagram = root_presentation(cert)
    cert.nodes[root.nid] = replace(root, diagram=diagram)


# ---------------------------------------------------------------------------
# Rule table and chain construction
# ---------------------------------------------------------------------------


def test_rule_table():
    table = rules()
    assert set(table) == {
        "stein_nonzero",
        "overtwisted_zero",
        "nonzero_tight",
        "plus_one_pullback",
        "plus_one_pushforward",
        "all_minus_one_stein",
        "cancel_equivalent",
        "same_diagram",
        "h1_consistency",
    }
    table["extra"] = "x"
    assert "extra" not in rules()


def test_build_tower_chain_shape():
    chain = build_tower_chain(3)
    assert chain.stage == 3 and chain.top() == "v3"
    assert [n.nid for n in chain.nodes] == ["std", "eta", "v1", "v2", "v3", "v4"]
    assert [e.eid for e in chain.edges] == ["e_eta", "ev1", "ev2", "ev3"]
    assert chain.rank_facts[Manifold.neg_tower(3)] == 3
    assert chain.rank_facts[Manifold.s3()] == 1
    assert chain.rank_facts[Manifold.s1xs2()] == 2
    assert chain.rank_facts[Manifold.poincare()] == 1
    cited = [s.ref("triangle") for s in chain.steps if s.rule == "plus_one_pushforward"]
    assert cited == ["0", "1", "2"]
    rules_used = [s.rule for s in chain.steps]
    assert rules_used == [
        "all_minus_one_stein",
        "stein_nonzero",
        "plus_one_pushforward",
        "cancel_equivalent",
        "plus_one_pushforward",
        "plus_one_pushforward",
    ]
    with pytest.raises(CalculusError):
        build_tower_chain(0)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def test_stein_branch_certificate():
    cert = certify_tight(SurgeryCoeff(1, 2))
    assert cert.engine_stage == 0
    assert list(cert.nodes) == ["y0"]
    assert cert.edges == {} and cert.rank_facts == {}
    assert [s.rule for s in cert.steps] == [
        "h1_consistency",
        "all_minus_one_stein",
        "stein_nonzero",
        "nonzero_tight",
    ]
    assert cert.conclusion == ("tight", "y0")
    assert check_certificate(cert).ok


def test_zero_slope_uses_stein_branch():
    cert = certify_tight(SurgeryCoeff(0))
    assert cert.engine_stage == 0
    assert check_certificate(cert).ok


def test_unit_fraction_companion_skips_reduction_path():
    # Slope 2 gives companion coefficient 1/2: the presentation IS a tower
    # stage, so no reduction edges are needed.
    cert = certify_tight(SurgeryCoeff(2))
    assert cert.engine_stage == 2
    assert not any(e.startswith("ey") for e in cert.edges)
    assert any(s.rule == "same_diagram" for s in cert.steps)
    assert check_certificate(cert).ok


def test_general_positive_branch_certificate():
    cert = certify_tight(SurgeryCoeff(-3))
    assert cert.engine_stage == 1
    assert "ey1" in cert.edges
    assert cert.edges["ey1"].src == "y0" and cert.edges["ey1"].dst == "y1"
    pullbacks = [s for s in cert.steps if s.rule == "plus_one_pullback"]
    assert len(pullbacks) == 1
    assert cert.steps[-1].gives == ("tight", "y0")
    assert check_certificate(cert).ok


def test_excluded_slope_raises():
    with pytest.raises(ExcludedSlopeError):
        certify_tight(SurgeryCoeff(1))
    with pytest.raises(ExcludedSlopeError):
        certify_tight(SurgeryCoeff(3, 3))


def test_emission_deterministic():
    a = certify_tight(SurgeryCoeff(7, 4))
    b = certify_tight(SurgeryCoeff(7, 4))
    assert certificate_to_dict(a) == certificate_to_dict(b)


def test_both_branches_verify_on_sample():
    for text in ("-1", "-5/3", "1/2", "3/4", "5/2", "10/9", "-10", "7"):
        cert = certify_tight(SurgeryCoeff.parse(text))
        result = check_certificate(cert)
        assert result.ok, (text, result.reason)


# ---------------------------------------------------------------------------
# Verification rejects tampering
# ---------------------------------------------------------------------------


def test_reject_rank_fact_bump():
    cert = fresh(certify_tight(SurgeryCoeff(5, 2)))
    cert.rank_facts[Manifold.neg_tower(2)] += 1
    result = check_certificate(cert)
    assert not result.ok
    assert "not engine-verified" in result.reason


def test_reject_edge_reversal():
    cert = fresh(certify_tight(SurgeryCoeff(5, 2)))
    edge = cert.edges["ev1"]
    cert.edges["ev1"] = SurgeryEdge(edge.eid, edge.dst, edge.src, edge.witness)
    result = check_certificate(cert)
    assert not result.ok
    assert "edge ev1" in result.reason


def test_reject_witness_retarget():
    # A derived node's manifold follows from the edge into it, so a
    # retargeted witness is refused by that edge before any step runs.
    for eid, source in (("ey1", "trefoil(5/2)"), ("ev1", "tower(1)")):
        cert = fresh(certify_tight(SurgeryCoeff(5, 2)))
        edge = cert.edges[eid]
        cert.edges[eid] = SurgeryEdge(edge.eid, edge.src, edge.dst, "unknot")
        result = check_certificate(cert)
        assert not result.ok and result.step is None
        assert result.reason == f"edge {eid}: witness 'unknot' on {source} gives no manifold"


@pytest.mark.parametrize("slope", ["0", "-5/3", "17/16", "5/2", "13/8"])
def test_emitted_nodes_inline_or_derived_and_audited_in_order(slope):
    # Stein (0, -5/3), unit-fraction (17/16) and general positive branches.
    # Only the inline nodes are audited, in node order, and nothing else.
    cert = certify_tight(SurgeryCoeff.parse(slope))
    into = [e.dst for e in cert.edges.values()]
    for n in cert.nodes.values():
        derived_root = n.nid == "y0" and cert.engine_stage >= 1
        assert (n.diagram is None) == (n.nid in into or derived_root), n.nid
    assert len(set(into)) == len(into)
    inline = [nid for nid, n in cert.nodes.items() if n.diagram is not None]
    assert inline == (["y0"] if cert.engine_stage == 0 else ["std", "v1"])
    # The root is audited whether it is inline or derived from the slope.
    audited = [nid for nid, n in cert.nodes.items() if nid not in into]
    assert audited == (["y0"] if cert.engine_stage == 0 else ["std", "v1", "y0"])
    audit = cert.steps[: len(audited)]
    assert [s.rule for s in audit] == ["h1_consistency"] * len(audited)
    assert [s.ref("node") for s in audit] == audited
    assert all(s.rule != "h1_consistency" for s in cert.steps[len(audited):])


def _relabel_to(cert, slope):
    cert.slope = SurgeryCoeff.parse(slope)
    cert.nodes["y0"] = replace(
        cert.nodes["y0"], manifold=Manifold.trefoil_surgery(cert.slope)
    )


_HUGE = ["-1/1000000", "1000001/1000000", "-1/1000000000"]


@pytest.mark.parametrize("slope", _HUGE)
def test_relabelled_huge_slope_rejected_quickly(slope, monkeypatch):
    # The declared slope's presentation would have 10^6 or more components.
    # A root derived from the slope must have as many components as the
    # certificate has edges, 4 at 5/2; they are counted no further, and
    # the presentation is never built.
    cert = fresh(certify_tight(SurgeryCoeff(5, 2)))
    _relabel_to(cert, slope)
    monkeypatch.setattr(certify, "trefoil_surgery_diagram", None)
    start = time.perf_counter()
    result = check_certificate(cert)
    assert time.perf_counter() - start < 1.0
    assert not result.ok and result.step is None
    assert result.reason == (
        f"4 edges, but slope {slope}'s presentation does not have 4 components"
    )


@pytest.mark.parametrize("slope", _HUGE)
def test_relabelled_huge_slope_rejected_quickly_inline_root(slope, monkeypatch):
    # The same, with the 5/2 root inline: its size is counted against the
    # declared slope's presentation before anything is built.
    cert = fresh(certify_tight(SurgeryCoeff(5, 2)))
    inline_root(cert)
    _relabel_to(cert, slope)
    monkeypatch.setattr(certify, "trefoil_surgery_diagram", None)
    start = time.perf_counter()
    result = check_certificate(cert)
    assert time.perf_counter() - start < 1.0
    assert not result.ok and result.step is None
    assert result.reason == "conclusion presentation does not match the declared slope"


@pytest.mark.parametrize("slope", ["5/2", "-5/3", "17/16", "2", "-1/20", "233/144"])
def test_root_derived_at_stage_1_and_accepted_reinlined(slope):
    cert = certify_tight(SurgeryCoeff.parse(slope))
    assert cert.engine_stage >= 1 and cert.nodes["y0"].diagram is None
    own = normalize_diagram(trefoil_surgery_diagram(cert.slope))
    assert len(own) == len(cert.edges)
    assert root_presentation(cert) == own
    assert check_certificate(fresh(cert)).ok
    inline_root(cert)
    assert cert.nodes["y0"].diagram == own
    assert check_certificate(fresh(cert)).ok


def test_dropped_path_edge_refused_before_the_root_is_built(monkeypatch):
    # -5/3 has a reduction path of two nodes; without its last edge and
    # node the edge count is one short of the root's size.
    cert = fresh(certify_tight(SurgeryCoeff(-5, 3)))
    last = [e for e in cert.edges.values() if e.witness.startswith("cancel:")][-1]
    del cert.edges[last.eid], cert.nodes[last.dst]
    monkeypatch.setattr(certify, "normalize_diagram", None)
    result = check_certificate(cert)
    assert not result.ok and result.step is None
    n = len(cert.edges)
    assert result.reason == f"{n} edges, but slope -5/3's presentation does not have {n} components"
    with pytest.raises(CalculusError, match="presentation does not have"):
        node_presentations(cert)


def test_stage_0_root_without_a_diagram_refused():
    cert = fresh(certify_tight(SurgeryCoeff(1, 2)))
    assert cert.engine_stage == 0
    cert.nodes["y0"] = replace(cert.nodes["y0"], diagram=None)
    result = check_certificate(cert)
    assert not result.ok and result.step is None
    assert result.reason == "0 edges, but slope 1/2's presentation does not have 0 components"


def _rotate_root_ids(data):
    """Rename the root's components c1 -> c2 -> ... -> c1, consistently in
    its pushoff types, its linkings and the reduction path's witnesses."""
    root = next(n for n in data["nodes"] if n["id"] == data["conclusion"][1])
    ids = [c["id"] for c in root["diagram"]["components"]]
    new = dict(zip(ids, ids[1:] + ids[:1]))
    for c in root["diagram"]["components"]:
        c["id"] = new[c["id"]]
        if c["type"].startswith("pushoff:"):
            c["type"] = "pushoff:" + new[c["type"][len("pushoff:"):]]
    for lk in root["diagram"]["linkings"]:
        lk[0], lk[1] = new[lk[0]], new[lk[1]]
    for e in data["edges"]:
        if e["witness"].startswith("cancel:"):
            e["witness"] = "cancel:" + new[e["witness"][len("cancel:"):]]


@pytest.mark.parametrize("slope", ["5/2", "-5/3"])
def test_root_with_renamed_ids_rejected(slope):
    # The renamed root is isomorphic to the slope's presentation, but the
    # conclusion must be the verifier's own presentation, ids included.
    cert = certify_tight(SurgeryCoeff.parse(slope))
    inline_root(cert)
    data = certificate_to_dict(cert)
    _rotate_root_ids(data)
    result = check_certificate(certificate_from_dict(data))
    assert not result.ok and result.step is None
    assert result.reason == "conclusion presentation does not match the declared slope"


def test_derived_nodes_are_tower_stages():
    # 5/2 needs stage 2 and one reduction step, which ends at stage 2.
    cert = certify_tight(SurgeryCoeff(5, 2))
    derived = {e.dst: e.eid for e in cert.edges.values()}
    assert derived == {"eta": "e_eta", "v2": "ev1", "v3": "ev2", "y1": "ey1"}
    no_diagram = [nid for nid, n in cert.nodes.items() if n.diagram is None]
    assert no_diagram == ["eta", "v2", "v3", "y0", "y1"]
    built = node_presentations(cert)
    for k in (1, 2, 3):
        assert built[f"v{k}"] == tower_diagram(k)
    assert built["y0"] == normalize_diagram(trefoil_surgery_diagram(cert.slope))
    assert cert.edges["ey1"].witness.startswith("cancel:")
    assert diagram_iso(built["y1"], tower_diagram(2))


@pytest.mark.parametrize("slope", ["1001/999", "-1/300"])
def test_built_presentations_have_the_declared_h1(slope):
    # The verifier no longer audits the nodes it builds; this checks its
    # surgery code against its homology code once, at stage 501 and on a
    # 300-node reduction path, whose nodes name no manifold.
    cert = certify_tight(SurgeryCoeff.parse(slope))
    built, derived = reference_walk(cert)
    checked = 0
    for nid, diagram in built.items():
        m = derived.get(nid, cert.nodes[nid].manifold)
        if m is not None:
            assert h1(diagram).cyclic_order() == m.expected_h1_order(), nid
            checked += 1
    assert checked == {"1001/999": 505, "-1/300": 5}[slope]


def _set_edge(cert, eid, **fields):
    cert.edges[eid] = replace(cert.edges[eid], **fields)


def _move_ev2_first(cert):
    cert.edges = {"ev2": cert.edges["ev2"], **cert.edges}


def _inline_v3(cert):
    v3 = cert.nodes["v3"]
    cert.nodes["v3"] = replace(v3, diagram=node_presentations(cert)["v3"])


def _demote_to_stage_0(cert):
    cert.engine_stage, cert.rank_facts = 0, {}


def _cancel_witness(cert, cid):
    _set_edge(cert, "ey1", witness=f"cancel:{cid}")


def _pullback_by_edge_into_std(cert):
    # An edge y0 -> std in place of e_eta, so the edge count stays within
    # the bound; citing it would give y0 a nonzero class straight from the
    # empty presentation's.
    del cert.edges["e_eta"]
    cert.edges["e_extra"] = SurgeryEdge("e_extra", "y0", "std", "unknot")
    pullback = Step("plus_one_pullback", (("edge", "e_extra"),), ("c_nonzero", "y0"))
    cert.steps = cert.steps[:-1] + (pullback,) + cert.steps[-1:]


def _inline_y1(cert):
    y1 = cert.nodes["y1"]
    cert.nodes["y1"] = replace(y1, diagram=node_presentations(cert)["y1"])


_TAKEN = "is not a declared node without a presentation"


# Each edge builds the node it leads to, in edge order: its source must
# already have a presentation and its target must be a declared node that
# has none yet.  Every case is rejected before any step is replayed.
@pytest.mark.parametrize(
    "mutate, reason",
    [
        (lambda c: _set_edge(c, "ev2", src="ghost"), "edge ev2: source 'ghost' has no"),
        (lambda c: _set_edge(c, "ey1", dst="y0"), f"edge ey1: target 'y0' {_TAKEN}"),
        (lambda c: _set_edge(c, "ev2", dst="v2"), f"edge ev2: target 'v2' {_TAKEN}"),
        (_move_ev2_first, "edge ev2: source 'v2' has no presentation yet"),
        (lambda c: _set_edge(c, "ev2", src="v3"), "edge ev2: source 'v3' has no"),
        (_inline_v3, f"edge ev2: target 'v3' {_TAKEN}"),
        (
            _demote_to_stage_0,
            "4 edges, engine stage 0 and 1 chain knots allow at most 2",
        ),
        (lambda c: _cancel_witness(c, "c3"), "component c3 carries 1, not -1"),
        (lambda c: _cancel_witness(c, "c9"), "no component 'c9' in diagram"),
        (_pullback_by_edge_into_std, f"edge e_extra: target 'std' {_TAKEN}"),
        (_inline_y1, f"edge ey1: target 'y1' {_TAKEN}"),
    ],
    ids=[
        "missing", "path_edge", "shared_edge", "later", "itself", "inline", "bound",
        "cancel_plus_one", "cancel_missing", "unnamed_edge", "path_inline",
    ],
)
def test_reject_via_misuse(mutate, reason, monkeypatch):
    cert = fresh(certify_tight(SurgeryCoeff(5, 2)))
    mutate(cert)
    if reason.endswith("at most 2"):
        # The bound is checked before any derived node is built.
        monkeypatch.setattr(certify, "plus_one_surgery", None)
    result = check_certificate(cert)
    assert not result.ok and result.step is None
    assert reason in result.reason


def _relabel(cert, nid, manifold):
    cert.nodes[nid] = replace(cert.nodes[nid], manifold=manifold)


def _add_inline(cert, nid, manifold, diagram):
    cert.nodes[nid] = ContactNode(nid, manifold, diagram)


_NOT_OWN = "inline presentation is not the verifier's presentation of"
_BUILT = "but a node an edge builds names no manifold"


# A derived node names no manifold: the edge into it gives a ladder node
# its manifold from the source's manifold and the witness.  An inline
# node names its manifold and carries the verifier's own presentation of
# it.  Every case is rejected before any step.
@pytest.mark.parametrize(
    "mutate, reason",
    [
        (lambda c: _relabel(c, "v3", Manifold.tower(4)),
         f"edge ev2: target 'v3' names tower(4), {_BUILT}"),
        (lambda c: _relabel(c, "v3", Manifold.tower(3)),
         f"edge ev2: target 'v3' names tower(3), {_BUILT}"),
        (lambda c: _relabel(c, "y1", Manifold.tower(2)),
         f"edge ey1: target 'y1' names tower(2), {_BUILT}"),
        (lambda c: _set_edge(c, "ev1", witness="pushoff:c2"),
         "edge ev1: witness 'pushoff:c2' on tower(1) gives no manifold"),
        (lambda c: (inline_root(c), c.edges.pop("ev2")),
         "node v3: no inline presentation and no edge into it"),
        (lambda c: _relabel(c, "std", Manifold.poincare()),
         "edge e_eta: witness 'unknot' on poincare gives no manifold"),
        (lambda c: _add_inline(c, "x", Manifold.lens(5, 1), tower_diagram(1)),
         f"node x: {_NOT_OWN} lens(5,1)"),
        (lambda c: _add_inline(c, "x", Manifold.s3(), tower_diagram(1)),
         f"node x: {_NOT_OWN} s3"),
        (lambda c: _add_inline(c, "x", Manifold.tower(2), tower_diagram(2)),
         f"node x: {_NOT_OWN} tower(2)"),
        (lambda c: _add_inline(c, "x", None, tower_diagram(1)),
         "node x: inline presentation names no manifold"),
        (lambda c: (_add_inline(c, "x", None, tower_diagram(1)),
                    _set_edge(c, "ey1", src="x", witness="pushoff:c1")),
         "edge ey1: witness 'pushoff:c1' on a node that names no manifold gives no manifold"),
    ],
    ids=["stage_skip", "derived_named", "path_named", "other_pushoff", "orphan",
         "std_label", "inline_lens", "inline_s3", "inline_tower_2", "inline_unnamed",
         "from_unnamed"],
)
def test_reject_label_misuse(mutate, reason):
    cert = fresh(certify_tight(SurgeryCoeff(5, 2)))
    mutate(cert)
    result = check_certificate(cert)
    assert not result.ok and result.step is None
    assert result.reason == reason


def test_reject_conclusion_retarget():
    cert = fresh(certify_tight(SurgeryCoeff(5, 2)))
    cert.conclusion = ("tight", "v1")
    result = check_certificate(cert)
    assert not result.ok
    assert "declared slope" in result.reason


def test_reject_slope_relabel():
    cert = fresh(certify_tight(SurgeryCoeff(3)))
    cert.slope = SurgeryCoeff(-3)
    result = check_certificate(cert)
    assert not result.ok


def test_reject_dropped_final_step():
    cert = fresh(certify_tight(SurgeryCoeff(1, 2)))
    cert.steps = cert.steps[:-1]
    result = check_certificate(cert)
    assert not result.ok
    assert "final step" in result.reason


def _stein_step_on_v1(data):
    stein = {"rule": "all_minus_one_stein", "refs": ["v1"], "gives": ["stein", "v1"]}
    data["steps"].insert(len(data["steps"]) - 1, stein)


def _drop_tower_8(data):
    del data["rank_facts"]["-tower(8)"]


@pytest.mark.parametrize("mutate, step, reason", [
    # v1 presents stage 1 with a (+1) pushoff, so it is no Stein presentation.
    (_stein_step_on_v1, 15, "component c2 carries 1, not -1"),
    # The last pushforward cites a triangle whose vertex -tower(8) has no fact.
    (_drop_tower_8, 13, "rank fact for -tower(8) not in the certificate"),
])
def test_step_refusals_on_8_7(mutate, step, reason):
    data = certificate_to_dict(certify_tight(SurgeryCoeff(8, 7)))
    mutate(data)
    result = check_certificate(certificate_from_dict(data))
    assert (result.ok, result.step, result.reason) == (False, step, reason)


def test_emitter_refuses_a_root_size_the_verifier_would_not_derive(monkeypatch):
    # The edge count fixes the root's size for the verifier; an emitter
    # whose count disagrees raises.  The check is no assert, so it holds
    # under ``python -O`` as well.
    size = certify._root_size
    monkeypatch.setattr(certify, "_root_size", lambda rp, stage, limit: size(rp, stage, limit) + 1)
    with pytest.raises(CalculusError) as err:
        certify_tight(SurgeryCoeff(5, 2))
    assert str(err.value) == "4 edges, but slope 5/2's presentation does not have 4 components"


def test_reject_engine_stage_decrement():
    # The stage-1 family leaves -tower(2) unpinned.
    cert = fresh(certify_tight(SurgeryCoeff(5, 2)))
    cert.engine_stage -= 1
    result = check_certificate(cert)
    assert not result.ok and result.step is None
    assert result.reason.startswith("rank fact -tower(2) = 2 is not engine-verified")


def _cite_triangle(cert, index):
    """Make the last pushforward step cite ``index``; returns that step's
    position."""
    idx, step = [
        (i, s) for i, s in enumerate(cert.steps) if s.rule == "plus_one_pushforward"
    ][-1]
    refs = tuple((k, index if k == "triangle" else v) for k, v in step.refs)
    cert.steps = cert.steps[:idx] + (Step(step.rule, refs, step.gives),) + cert.steps[idx + 1 :]
    return idx


def test_reject_triangle_vertex_change():
    # The stage-2 instance in place of the stage-1 one: its vertices are
    # not the mirrors of the edge v1 -> v2.
    cert = fresh(certify_tight(SurgeryCoeff(5, 2)))
    idx = _cite_triangle(cert, "2")
    result = check_certificate(cert)
    assert not result.ok and result.step == idx
    assert result.reason == "triangle vertices do not match the edge endpoints"


def test_reject_informational_triangle_citation():
    # Index S + 1 is the k = 1 lens instance, outside its family's range.
    cert = fresh(certify_tight(SurgeryCoeff(5, 2)))
    assert engine_triangles(cert.engine_stage)[cert.engine_stage + 1].informational
    idx = _cite_triangle(cert, str(cert.engine_stage + 1))
    result = check_certificate(cert)
    assert not result.ok and result.step == idx
    assert result.reason == "informational triangle instances cannot justify injectivity"


def test_reject_triangle_citation_at_stage_0():
    # A Stein certificate has no engine family, so no index is present.
    cert = fresh(certify_tight(SurgeryCoeff(1, 2)))
    assert cert.engine_stage == 0
    cid = cert.nodes["y0"].diagram.components[-1].cid
    cert.nodes["z"] = ContactNode("z")
    cert.edges["e_z"] = SurgeryEdge("e_z", "y0", "z", f"cancel:{cid}")
    push = Step(
        "plus_one_pushforward", (("edge", "e_z"), ("triangle", "0")), ("c_nonzero", "z")
    )
    cert.steps = cert.steps[:-1] + (push,) + cert.steps[-1:]
    result = check_certificate(cert)
    assert not result.ok and result.step == len(cert.steps) - 2
    assert result.reason == "cited triangle '0' not present"


def test_reject_node_manifold_swap():
    cert = fresh(certify_tight(SurgeryCoeff(2)))
    eta = cert.nodes["eta"]
    cert.nodes["eta"] = ContactNode("eta", Manifold.s3(), eta.diagram)
    result = check_certificate(cert)
    assert not result.ok and result.step is None
    assert result.reason == f"edge e_eta: target 'eta' names s3, {_BUILT}"


def _insert_before_last(cert, step):
    cert.steps = cert.steps[:-1] + (step,) + cert.steps[-1:]
    return len(cert.steps) - 2


def test_reject_pushforward_across_a_path_edge():
    # The path nodes name no manifold, so no triangle vertex can match.
    cert = fresh(certify_tight(SurgeryCoeff(5, 2)))
    idx = _insert_before_last(cert, Step(
        "plus_one_pushforward", (("edge", "ey1"), ("triangle", "0")), ("c_nonzero", "y1")
    ))
    result = check_certificate(cert)
    assert not result.ok and result.step == idx
    assert result.reason == "edge ey1 joins a node that names no manifold"


_NOT_NONNEGATIVE = "dimensions must be non-negative integers, got "


@pytest.mark.parametrize("ranks, reason", [
    ((1, 2, 1), None),
    ((0, 0, 0), None),
    ((-1, 2, 3), _NOT_NONNEGATIVE + "(-1, 2, 3)"),
    ((3, 2, -1), _NOT_NONNEGATIVE + "(3, 2, -1)"),
    ((1.0, 2, 1), _NOT_NONNEGATIVE + "(1.0, 2, 1)"),
    ((1, 2.0, 1), _NOT_NONNEGATIVE + "(1, 2.0, 1)"),
    ((1, 2, "1"), _NOT_NONNEGATIVE + "(1, 2, '1')"),
    # A bool is an int to the solver, so b = a + c with bools holds as well.
    ((True, 2, True), None),
    ((1, True, False), None),
    ((1, 3, 1), "dimensions (1, 3, 1) have odd total; no exact triangle exists"),
    ((2, 2, 2), "triangle ranks (2, 2, 2) do not make the map injective"),
    ((1, 4, 1), "dimensions (1, 4, 1) violate the triangle inequality; no exact triangle exists"),
])
def test_pushforward_step_on_cited_ranks(ranks, reason):
    # Ranks only a certificate built in Python can carry, since rank facts
    # must match the engine's: ints a, c >= 0 with b = a + c are injective,
    # and every other triple gets the solver's verdict.
    cert = fresh(certify_tight(SurgeryCoeff(5, 2)))
    tri = engine_triangles(cert.engine_stage)[1]
    cert.rank_facts.update(zip((tri.a, tri.b, tri.c), ranks))
    cert.nodes["v2"] = ContactNode("v2", Manifold.tower(2))
    step = Step("plus_one_pushforward", (("edge", "ev1"), ("triangle", "1")), ("c_nonzero", "v2"))
    replay = certify._Replay(cert, engine_triangles(cert.engine_stage), {}, {})
    assert certify._check_step(replay, step, {("c_nonzero", "v1")}) == reason


def test_h1_consistency_on_a_path_node_checks_only_the_group():
    cert = fresh(certify_tight(SurgeryCoeff(5, 2)))
    group = certify._group_text(h1(node_presentations(cert)["y1"]))
    audit = Step("h1_consistency", (("node", "y1"), ("group", group)), ("h1", "y1"))
    _insert_before_last(cert, audit)
    assert check_certificate(cert).ok
    forged = Step("h1_consistency", (("node", "y1"), ("group", "0:5")), ("h1", "y1"))
    idx = _insert_before_last(cert, forged)
    result = check_certificate(cert)
    assert not result.ok and result.step == idx
    assert result.reason == f"presentation has h1 {group}, certificate says 0:5"


def test_reject_coefficient_flip_on_root_presentation():
    cert = fresh(certify_tight(SurgeryCoeff(5, 2)))
    own = root_presentation(cert)
    inline_root(cert, set_coeff(own, own.components[0].cid, SurgeryCoeff(1)))
    result = check_certificate(cert)
    assert not result.ok


def test_reject_rot_tamper_on_chain_knot():
    cert = fresh(certify_tight(SurgeryCoeff(-5, 3)))
    own = root_presentation(cert)
    chain = [c for c in own.components if c.coeff == SurgeryCoeff(-1)]
    target = next(c for c in chain if c.rot != 0)
    inline_root(cert, stabilize(own, target.cid, 1))
    result = check_certificate(cert)
    assert not result.ok


def test_reject_linking_tamper():
    cert = fresh(certify_tight(SurgeryCoeff(5, 2)))
    own = root_presentation(cert)
    a, b = own.ids()[0], own.ids()[1]
    inline_root(cert, with_linking(own, a, b, own.linking(a, b) + 1))
    result = check_certificate(cert)
    assert not result.ok


def test_reject_rule_swap():
    cert = fresh(certify_tight(SurgeryCoeff(2)))
    idx, step = next(
        (i, s) for i, s in enumerate(cert.steps) if s.rule == "plus_one_pushforward"
    )
    swapped = Step("plus_one_pullback", step.refs, step.gives)
    cert.steps = cert.steps[:idx] + (swapped,) + cert.steps[idx + 1 :]
    result = check_certificate(cert)
    assert not result.ok
    assert result.step == idx


def test_reject_overtwisted_rule_outright():
    cert = fresh(certify_tight(SurgeryCoeff(1, 2)))
    poison = Step("overtwisted_zero", (("node", "y0"),), ("c_zero", "y0"))
    cert.steps = cert.steps[:-1] + (poison, cert.steps[-1])
    result = check_certificate(cert)
    assert not result.ok
    assert "no tightness certificate may use it" in result.reason


def test_reject_unknown_rule_and_bad_conclusion_kind():
    cert = fresh(certify_tight(SurgeryCoeff(1, 2)))
    bogus = Step("made_up", (("node", "y0"),), ("tight", "y0"))
    cert.steps = cert.steps[:-1] + (bogus,)
    assert not check_certificate(cert).ok

    cert2 = fresh(certify_tight(SurgeryCoeff(1, 2)))
    cert2.conclusion = ("loose", "y0")
    result = check_certificate(cert2)
    assert not result.ok
    assert "unsupported conclusion" in result.reason


def test_reject_h1_group_forgery():
    cert = fresh(certify_tight(SurgeryCoeff(-3)))
    idx, step = next(
        (i, s) for i, s in enumerate(cert.steps) if s.rule == "h1_consistency"
    )
    forged_refs = tuple(
        (k, "0:999" if k == "group" else v) for k, v in step.refs
    )
    cert.steps = (
        cert.steps[:idx] + (Step(step.rule, forged_refs, step.gives),) + cert.steps[idx + 1 :]
    )
    result = check_certificate(cert)
    assert not result.ok
    assert result.step == idx


@pytest.mark.parametrize(
    "form",
    ["{neg}", "+{i}", " {i}", "0{i}", "{i}.0", "99"],
    ids=["negative", "plus", "space", "leading_zero", "decimal", "out_of_range"],
)
def test_reject_noncanonical_triangle_index(form):
    cert = fresh(certify_tight(SurgeryCoeff(5, 2)))
    i = int([s for s in cert.steps if s.rule == "plus_one_pushforward"][-1].ref("triangle"))
    idx = _cite_triangle(
        cert, form.format(i=i, neg=i - len(engine_triangles(cert.engine_stage)))
    )
    result = check_certificate(cert)
    assert not result.ok
    assert result.step == idx and "triangle" in result.reason


def test_reject_premise_reordering():
    cert = fresh(certify_tight(SurgeryCoeff(1, 2)))
    steps = list(cert.steps)
    # stein_nonzero before all_minus_one_stein: premise missing.
    i = next(i for i, s in enumerate(steps) if s.rule == "all_minus_one_stein")
    steps[i], steps[i + 1] = steps[i + 1], steps[i]
    cert.steps = tuple(steps)
    result = check_certificate(cert)
    assert not result.ok
    assert "not yet derived" in result.reason


def test_verification_result_booleanness():
    assert VerificationResult(True)
    assert not VerificationResult(False, 3, "nope")
    ok = check_certificate(certify_tight(SurgeryCoeff(-1)))
    assert bool(ok) and ok.step is None and ok.reason is None


def test_cancel_edge_on_an_inline_parent_listed_after_its_child():
    # No diagram lists a pushoff before its parent, in Python or in JSON,
    # so an inline node cannot.  The cancel edge runs before the
    # inline-node check, so it must leave a diagram whose every pushoff
    # names a knot that is still there.
    with pytest.raises(CalculusError, match="not listed before it"):
        _child_of_pushoff(1, first=True)
    cert = fresh(certify_tight(SurgeryCoeff(3, 7)))  # stage 0, 4-knot root
    data = certificate_to_dict(cert)
    inline = diagram_to_dict(_child_of_pushoff(1))
    inline["components"].reverse()
    data["nodes"].append({"id": "x", "manifold": "s3", "diagram": inline})
    with pytest.raises(ParseError) as err:
        certificate_from_dict(data)
    at = f"certificate.nodes[{len(data['nodes']) - 1}].diagram.components[0].type"
    assert err.value.location == at
    _add_inline(cert, "x", Manifold.s3(), _child_of_pushoff(1))
    cert.nodes["x1"] = ContactNode("x1")
    cert.edges["ex"] = SurgeryEdge("ex", "x", "x1", "cancel:X")
    built = node_presentations(cert)["x1"]
    assert built.ids() == ("Y", "C") and built.component("C").parent == "Y"
    assert from_linkings(built.components, linking_pairs(built)) == built
    result = check_certificate(cert)
    assert not result.ok and result.step is None
    assert result.reason == f"node x: {_NOT_OWN} s3"


@pytest.mark.parametrize("slope", ["17/16", "13/8"])
def test_each_ladder_edge_constructs_one_knot(slope, monkeypatch):
    cert = fresh(certify_tight(SurgeryCoeff.parse(slope)))
    built = count_constructions(monkeypatch)
    surgery, per_edge = certify.plus_one_surgery, []

    def counted(d, witness):
        before = len(built)
        out = surgery(d, witness)
        per_edge.append((witness, len(built) - before))
        return out

    monkeypatch.setattr(certify, "plus_one_surgery", counted)
    node_presentations(cert)
    ladder = [n for witness, n in per_edge if not witness.startswith("cancel:")]
    assert ladder == [1] * (cert.engine_stage + 1)


def test_verify_parses_each_manifold_once(monkeypatch):
    # Emission first, so that the memoized engine family of stage 24 is
    # built before the count starts, as it is in the CLI's verify of a
    # file emitted in the same process.
    text = json.dumps(certificate_to_dict(certify_tight(SurgeryCoeff(24, 23))))
    built = {Manifold: 0, Interval: 0}
    for cls in built:
        checks = cls.__post_init__

        def counted(self, cls=cls, checks=checks):
            built[cls] += 1
            checks(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    assert check_certificate(certificate_from_dict(json.loads(text))).ok
    # 28 nodes and 27 rank facts are parsed once each; the steps compare
    # vertices by kind and stage and look rank facts up by manifold.
    assert built[Manifold] <= 70
    # Four seed facts and one per vertex the engine registers.
    assert built[Interval] <= 80


def test_only_verify_runs_the_engine(monkeypatch):
    # The emitter writes the rank facts the stage fixes; no propagation
    # result is kept, so every verify re-runs the engine.
    calls = []

    def counted(db, triangles):
        calls.append(len(triangles))
        return propagate(db, triangles)

    propagate = certify.propagate
    monkeypatch.setattr(certify, "propagate", counted)
    text = json.dumps(certificate_to_dict(certify_tight(SurgeryCoeff(40, 39))))
    assert calls == []
    for _ in range(2):
        assert check_certificate(certificate_from_dict(json.loads(text))).ok
    assert calls == [len(engine_triangles(40))] * 2


def _tower_40():
    """The 40/39 certificate as the CLI's verify reads it from a file."""
    text = json.dumps(certificate_to_dict(certify_tight(SurgeryCoeff(40, 39))))
    return certificate_from_dict(json.loads(text))


def test_verify_clones_no_certificate(monkeypatch):
    # The steps read each node's manifold from one map; the certificate
    # was once copied with ``replace``, building 41 nodes at 40/39.
    cert, calls = _tower_40(), []
    init = ContactNode.__init__

    def counted(self, *args, **kwargs):
        calls.append("node")
        init(self, *args, **kwargs)

    def replaced(*args, **kwargs):
        calls.append("replace")
        return replace(*args, **kwargs)

    monkeypatch.setattr(ContactNode, "__init__", counted)
    monkeypatch.setattr(dataclasses, "replace", replaced)
    monkeypatch.setattr(certify, "replace", replaced, raising=False)
    assert check_certificate(cert).ok
    assert calls == []


def test_verify_looks_up_the_engine_family_once(monkeypatch):
    # Once for the rank facts and every triangle index, not once a
    # pushforward step (41 at 40/39).
    cert, calls, family = _tower_40(), [], certify.engine_triangles

    def counted(stage):
        calls.append(stage)
        return family(stage)

    monkeypatch.setattr(certify, "engine_triangles", counted)
    assert check_certificate(cert).ok
    assert calls == [40]


def test_verify_checks_at_most_one_ladder_knot(monkeypatch):
    # Each pushoff edge appends a copy of the pushoff before it; only the
    # eta edge's unknot is checked (41 knots once).
    cert, checked = _tower_40(), []
    count_constructions(monkeypatch, checked)
    surgery, ladder = certify.plus_one_surgery, []

    def counted(d, witness):
        before = len(checked)
        out = surgery(d, witness)
        if not witness.startswith("cancel:"):
            ladder.append(len(checked) - before)
        return out

    monkeypatch.setattr(certify, "plus_one_surgery", counted)
    assert check_certificate(cert).ok
    assert len(ladder) == 41 and sum(ladder) <= 1


def test_verify_builds_no_constant(monkeypatch):
    # The inline presentations and the seed table are built at import.
    cert = _tower_40()

    def refused(*args):
        raise AssertionError("a constant was built during a verify")

    for module in (certify, diagrams, floer):
        for name in ("empty_diagram", "tower_diagram", "base_facts"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    assert check_certificate(cert).ok


def test_verify_builds_no_coefficient_to_compare(monkeypatch):
    # An int or a coefficient is compared as it stands; one verify of 13/8
    # once built 9 coefficients inside ``_coerce`` from ints.
    text = json.dumps(certificate_to_dict(certify_tight(SurgeryCoeff(13, 8))))
    cert, built, coerce = certificate_from_dict(json.loads(text)), [], SurgeryCoeff._coerce

    def counted(other):
        out = coerce(other)
        if isinstance(out, SurgeryCoeff) and out is not other:
            built.append(other)
        return out

    monkeypatch.setattr(SurgeryCoeff, "_coerce", staticmethod(counted))
    assert check_certificate(cert).ok
    assert built == []


@pytest.mark.parametrize("slope, step", [
    ("2/5", {"rule": "all_minus_one_stein", "refs": ["y0"], "gives": ["stein", "y0"]}),
    ("2/5", {"rule": "h1_consistency", "refs": ["y0", "0:2"], "gives": ["h1", "y0"]}),
    ("17/16", {"rule": "same_diagram", "refs": ["y0", "v17"], "gives": ["c_nonzero", "y0"]}),
    ("17/16", {"rule": "plus_one_pushforward", "refs": ["ev8", "8"],
               "gives": ["c_nonzero", "v9"]}),
])
def test_a_repeated_step_is_checked_once(slope, step, monkeypatch):
    # Each step is one the certificate already makes; 1000 more copies of
    # it take its premises and fact from the first.
    data = certificate_to_dict(certify_tight(SurgeryCoeff.parse(slope)))
    assert step in data["steps"]
    data["steps"][-1:-1] = [step] * 1000
    cert, calls = certificate_from_dict(data), []
    statement, kinds, check = certify.RULES[step["rule"]]

    def counted(replay, first, *rest):
        calls.append(getattr(first, "nid", None) or first.eid)
        return check(replay, first, *rest)

    monkeypatch.setitem(certify.RULES, step["rule"], (statement, kinds, counted))
    assert check_certificate(cert).ok
    assert calls.count(step["refs"][0]) == 1


def test_a_repeated_step_is_still_held_to_its_gives():
    # The lookup gives the fact the rule derives, not a verdict: a copy
    # that claims another fact is refused as the first would be.
    data = certificate_to_dict(certify_tight(SurgeryCoeff(17, 16)))
    same = next(s for s in data["steps"] if s["rule"] == "same_diagram")
    k = data["steps"].index(same)
    data["steps"][k:k + 1] = [same, same, dict(same, gives=["c_nonzero", "y1"])]
    result = check_certificate(certificate_from_dict(data))
    assert (result.ok, result.step) == (False, k + 2)
    assert result.reason == "step gives c_nonzero(y1), rule derives c_nonzero(y0)"


@pytest.mark.parametrize("rule", ["same_diagram", "cancel_equivalent"])
def test_a_self_pair_compares_nothing(rule, monkeypatch):
    # Stage 0, whose own steps compare nothing: F(20)/F(21), a 12-knot root.
    data = certificate_to_dict(certify_tight(SurgeryCoeff(6765, 10946)))
    step = {"rule": rule, "refs": ["y0", "y0"], "gives": ["c_nonzero", "y0"]}
    data["steps"][-1:-1] = [step]
    calls = []
    monkeypatch.setattr(certify, "diagram_iso", lambda a, b: calls.append(a) or True)
    monkeypatch.setattr(certify, "cancel_pushoff_pairs", lambda d: calls.append(d) or d)
    assert check_certificate(certificate_from_dict(data)).ok
    assert calls == []


@pytest.mark.parametrize("slope", ["-1/40", "17/16", "13/8", "5/2", "-7/2", "2", "-3"])
def test_emitted_certificates_repeat_no_step(slope):
    steps = certify_tight(SurgeryCoeff.parse(slope)).steps
    assert len({(s.rule, s.refs) for s in steps}) == len(steps)


def test_rank_facts_are_the_engines_at_every_stage(workloads):
    # The table the emitter writes, keys and order included, is what a
    # fresh propagation pins, at every stage to 64 and every workload's.
    stages = set(range(1, 65))
    for name in workloads.NAMES:
        for p, q in workloads.spec(name).pairs:
            if p != q:
                stages.add(slope_companion(SurgeryCoeff(p, q))[1])
    stages.discard(0)
    for stage in sorted(stages):
        got = list(build_tower_chain(stage).rank_facts.items())
        assert got == list(reference_rank_facts(stage).items()), stage


def _audit_groups(cert):
    """Each audit's recorded group, and the verifier's own: the group text
    of the h1 of the presentation it builds for the audited node."""
    audits = [s for s in cert.steps if s.rule == "h1_consistency"]
    built = node_presentations(cert, [s.ref("node") for s in audits])
    recorded = [s.ref("group") for s in audits]
    return recorded, [certify._group_text(h1(built[s.ref("node")])) for s in audits]


def test_audit_groups_are_the_verifiers_h1_on_every_workload_slope(workloads):
    for name in workloads.NAMES:
        for p, q in workloads.spec(name).pairs:
            if p != q:
                recorded, computed = _audit_groups(certify_tight(SurgeryCoeff(p, q)))
                assert recorded == computed, f"{p}/{q}"


def test_audit_groups_are_the_verifiers_h1_on_drawn_slopes():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(-500, 500), st.integers(1, 500))
    def run(p, q):
        hypothesis.assume(p != q)
        recorded, computed = _audit_groups(certify_tight(SurgeryCoeff(p, q)))
        assert recorded == computed

    run()


@pytest.mark.parametrize("slope", ["40/39", "13/8", "-5/3", "0", "1/2", "inf"])
def test_only_the_verifier_runs_smith_normal_form(slope, monkeypatch):
    # The emitter writes each audit group from the node's manifold; the
    # verifier reduces only the root's presentation: the groups of std and
    # v1, which the reader hands over as ``certify._OWN``'s own objects,
    # were computed at import.
    calls = []
    snf = topology.smith_normal_form

    def counted(m):
        calls.append(m)
        return snf(m)

    monkeypatch.setattr(topology, "smith_normal_form", counted)
    cert = certify_tight(SurgeryCoeff.parse(slope))
    assert calls == []
    audits = sum(step.rule == "h1_consistency" for step in cert.steps)
    assert audits == (3 if cert.engine_stage else 1)
    assert check_certificate(fresh(cert)).ok
    assert len(calls) == 1
    # The groups read instead are the ones a fresh reduction gives.
    monkeypatch.undo()
    assert [certify._OWN_REDUCED[id(d)][0] for d in certify._OWN.values()] == [
        h1(empty_diagram()), h1(tower_diagram(1))]


def _chain_ids(slope):
    """The chain knots' ids ``trefoil_chain_ids`` gives a stage >= 1 slope,
    checked against the reference's scan of the built root; None at
    stage 0, where the emitter builds the root."""
    rp, stage = slope_companion(slope)
    if not stage:
        return None
    ids = trefoil_chain_ids(rp, stage)
    assert ids == reference_chain_ids(slope), str(slope)
    return ids


def test_chain_ids_match_the_reference_on_every_workload_slope(workloads):
    for name in workloads.NAMES:
        for p, q in workloads.spec(name).pairs:
            if p != q:
                _chain_ids(SurgeryCoeff(p, q))


# Long chains, a large stage, and both at once: (slope, stage, chain knots).
_LONG_CHAINS = [
    pytest.param(text, stage, knots, id=name or text)
    for text, stage, knots, name in (
        ("22501/22351", 151, 149, None),
        ("60001/59801", 301, 199, None),
        ("1001/999", 501, 1, None),
        ("-1/600", 1, 600, None),
        (f"{_fib(2001)}/{_fib(2000)}", 3, 999, "F(2001)/F(2000)"),
    )
]


@pytest.mark.parametrize("text, stage, knots", _LONG_CHAINS)
def test_chain_ids_match_the_reference_on_long_chains(text, stage, knots):
    slope = SurgeryCoeff.parse(text)
    assert slope_companion(slope)[1] == stage
    assert len(_chain_ids(slope)) == knots


def test_chain_ids_match_the_reference_on_drawn_slopes():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(-2000, 2000), st.integers(1, 2000))
    def run(p, q):
        hypothesis.assume(p != q)
        _chain_ids(SurgeryCoeff(p, q))

    run()


@pytest.mark.parametrize("slope", ["40/39", "13/8", "-5/3", "inf", "22501/22351",
                                   "0", "1/2", "-7/2"])
def test_only_stage_0_emission_builds_the_root(slope, monkeypatch):
    # At stage >= 1 the emitter reads the chain knots' ids off the slope;
    # the verifier still builds its own root, once.
    counts = {"normalize_diagram": 0, "trefoil_surgery_diagram": 0}
    for name in counts:
        def counted(*args, _fn=getattr(diagrams, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(diagrams, name, counted)
        monkeypatch.setattr(certify, name, counted)
    cert = certify_tight(SurgeryCoeff.parse(slope))
    emitted = 0 if cert.engine_stage else 1
    assert counts == dict.fromkeys(counts, emitted)
    assert check_certificate(fresh(cert)).ok
    assert counts == dict.fromkeys(counts, emitted + 1)


def test_reverses_agrees_with_mirror():
    kinds = [
        Manifold.s3(), Manifold.s1xs2(), Manifold.poincare(), Manifold.lens(5, 2),
        Manifold.lens(5, 3), Manifold.tower(2), Manifold.tower(3), Manifold.neg_tower(2),
        Manifold.neg_tower(3), Manifold.trefoil_surgery(SurgeryCoeff(5, 4)),
    ]

    def outcome(compare, vertex, m):
        try:
            return compare(vertex, m)
        except CalculusError as exc:
            return str(exc)

    for m in kinds:
        for vertex in kinds:
            want = outcome(lambda v, n: v == n.mirror(), vertex, m)
            assert outcome(certify._reverses, vertex, m) == want


# ---------------------------------------------------------------------------
# The edge walk against the reference, and the work verify does
# ---------------------------------------------------------------------------


def _cited(cert):
    return {value for step in cert.steps for kind, value in step.refs if kind == "node"}


def _walk_outcome(walk, cert, keep):
    """The presentations, in order, or the reason the walk refused."""
    try:
        return list(walk(cert, keep=keep).items())
    except CalculusError as exc:
        return str(exc)


# A sample of every benchmark workload's families (tower, grid, chain),
# and two long ones.
_WALKED = [
    "8/7", "16/15", "-28/11", "13/8", "5/2", "-7/2", "0", "2", "-5/3", "1/3",
    "-1/20", "24/49", "-250", "21/13", "13/21", "1001/999", "-1/150",
]


@pytest.mark.parametrize("slope", _WALKED)
def test_node_presentations_match_the_reference(slope):
    cert = fresh(certify_tight(SurgeryCoeff.parse(slope)))
    for keep in (None, _cited(cert)):
        got = _walk_outcome(node_presentations, cert, keep)
        assert got == _walk_outcome(reference_node_presentations, cert, keep)
        assert not isinstance(got, str)


def _mutated(cert, rng, ids, derived):
    """A copy of cert with one edge dropped, two swapped, one retargeted,
    or a new edge branching off a node that a step cites, into a node that
    now and then names a manifold.  ``derived`` holds the manifolds the
    edges give."""
    edges, nodes = list(cert.edges.values()), dict(cert.nodes)
    kind = rng.choice(("drop", "swap", "src", "dst", "branch", "branch"))
    if kind == "drop" and edges:
        del edges[rng.randrange(len(edges))]
    elif kind == "swap" and len(edges) > 1:
        i, j = rng.sample(range(len(edges)), 2)
        edges[i], edges[j] = edges[j], edges[i]
    elif kind in ("src", "dst") and edges:
        i = rng.randrange(len(edges))
        edges[i] = replace(edges[i], **{kind: rng.choice(list(nodes))})
    else:
        src = cert.nodes[rng.choice(sorted(_cited(cert)))]
        m = derived.get(src.nid, src.manifold)
        witness = {"tower": "pushoff:c1", "s3": "unknot"}.get(m and m.kind)
        witness = witness or f"cancel:{rng.choice(ids)}"
        nodes["b"] = ContactNode("b", rng.choice((None, None, Manifold.tower(2))))
        edges.insert(rng.randrange(len(edges) + 1), SurgeryEdge("eb", src.nid, "b", witness))
    return replace(cert, nodes=nodes, edges={e.eid: e for e in edges})


@pytest.mark.parametrize("slope", ["5/2", "-28/11", "16/15", "-1/20", "13/8", "21/13", "2"])
def test_walk_matches_the_reference_on_edge_mutations(slope, monkeypatch):
    cert = fresh(certify_tight(SurgeryCoeff.parse(slope)))
    ids = node_presentations(cert)[cert.conclusion[1]].ids()
    derived = reference_walk(cert)[1]
    rng, refused = random.Random(slope), 0
    for _ in range(150):
        m = _mutated(cert, rng, ids, derived)
        for keep in (None, _cited(m)):
            got = _walk_outcome(node_presentations, m, keep)
            assert got == _walk_outcome(reference_node_presentations, m, keep)
            refused += isinstance(got, str)
        verdict = check_certificate(m)
        with monkeypatch.context() as patch:
            patch.setattr(certify, "_walk", lambda cert, built, keep: reference_walk(cert, keep))
            assert check_certificate(m) == verdict
    assert refused > 50


def _count_held(monkeypatch):
    """Patch in a count of the components every diagram holds when it is
    made, and every one a draft takes in place; returns the count."""
    held = [0]
    init, trusted = ContactDiagram.__init__, ContactDiagram.__dict__["_trusted"].__func__
    draft, append = diagrams._Draft.__init__, diagrams._Draft._append

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        held[0] += len(self.components)

    def counted_trusted(cls, components, *args):
        held[0] += len(components)
        return trusted(cls, components, *args)

    def counted_draft(self, d):
        draft(self, d)
        held[0] += len(self.components)

    def counted_append(self, comps, rows):
        held[0] += len(comps)
        return append(self, comps, rows)

    monkeypatch.setattr(ContactDiagram, "__init__", counted_init)
    monkeypatch.setattr(ContactDiagram, "_trusted", classmethod(counted_trusted))
    monkeypatch.setattr(diagrams._Draft, "__init__", counted_draft)
    monkeypatch.setattr(diagrams._Draft, "_append", counted_append)
    return held


@pytest.mark.parametrize("slope, n", [("400/399", 400), ("-1/400", 400)])
def test_verify_work_is_linear(slope, n, monkeypatch):
    # Counted, not timed: copying every presentation along the ladder or
    # the reduction path holds about n^2/2 components (81,811 and 81,022
    # here), and building the root's pushoffs twice constructs 1207 knots
    # at 400/399.
    text = json.dumps(certificate_to_dict(certify_tight(SurgeryCoeff.parse(slope))))
    knots, held = count_constructions(monkeypatch), _count_held(monkeypatch)
    assert check_certificate(certificate_from_dict(json.loads(text))).ok
    assert len(knots) <= 2 * n + 10
    assert held[0] <= 8 * n


def test_redundant_cancel_steps_stay_cheap():
    # Each step cancels the 3000-knot root against itself; the search for
    # cancelling pairs once rescanned every knot against every knot, about
    # 0.95 s a step.
    data = certificate_to_dict(certify_tight(SurgeryCoeff(2999, 5999)))
    step = {"rule": "cancel_equivalent", "refs": ["y0", "y0"],
            "gives": ["c_nonzero", "y0"]}
    data["steps"][-1:-1] = [step] * 100
    cert = certificate_from_dict(data)
    start = time.thread_time()
    assert check_certificate(cert).ok
    assert time.thread_time() - start < 5


def test_padded_cancel_steps_cancel_each_cited_node_at_most_once(monkeypatch):
    # A pair of isomorphic presentations is accepted without cancelling
    # either, and a node's cancelled form is kept for the rest of the
    # verify: so 1000 added cancel_equivalent(v400, v400) steps cancel
    # nothing.  The cancelled forms of std and v1, which the reader hands
    # over as ``certify._OWN``'s own objects, were computed at import, so
    # 1000 copies of the emitted (v1, std) step cancel nothing either.
    data = certificate_to_dict(certify_tight(SurgeryCoeff(400, 399)))
    emitted = [s for s in data["steps"] if s["rule"] == "cancel_equivalent"]
    assert [s["refs"] for s in emitted] == [["v1", "std"]]
    padding = {"rule": "cancel_equivalent", "refs": ["v400", "v400"],
               "gives": ["c_nonzero", "v400"]}
    data["steps"][-1:-1] = [padding] * 1000 + emitted * 1000
    cert = certificate_from_dict(data)
    cancelled, cancel = [], certify.cancel_pushoff_pairs

    def counted(d):
        cancelled.append(len(d))
        return cancel(d)

    monkeypatch.setattr(certify, "cancel_pushoff_pairs", counted)
    assert check_certificate(cert).ok
    assert cancelled == []
    # The forms read instead are the ones a fresh cancellation gives.
    monkeypatch.undo()
    assert [certify._OWN_REDUCED[id(d)][1] for d in certify._OWN.values()] == [
        cancel_pushoff_pairs(empty_diagram()), cancel_pushoff_pairs(tower_diagram(1))]


def test_own_presentations_stay_as_built_after_every_workload_verify(workloads):
    # The reader hands every matching std and v1 node the same two
    # ``certify._OWN`` objects; no verify may edit them.
    own = certify._OWN
    for name in ("tower", "grid"):
        for p, q in workloads.spec(name).pairs:
            if p != q:
                cert = fresh(certify_tight(SurgeryCoeff(p, q)))
                for node in cert.nodes.values():
                    if node.manifold in own:
                        assert node.diagram is own[node.manifold]
                assert check_certificate(cert).ok, f"{p}/{q}"
    assert list(certify._OWN.values()) == [empty_diagram(), tower_diagram(1)]
    assert [diagram_to_dict(d) for d in certify._OWN.values()] == [
        diagram_to_dict(empty_diagram()), diagram_to_dict(tower_diagram(1))]


def test_nested_certificate_bytes_grow_linearly():
    # F(k+1)/F(k) has a reduction path of about k/2 nodes.  When each path
    # node named its stage with the slope's digits, doubling k multiplied
    # the bytes by 2.30.
    def size(k):
        cert = certify_tight(SurgeryCoeff(_fib(k + 1), _fib(k)))
        return len(json.dumps(certificate_to_dict(cert), indent=2))

    assert size(400) <= 2.05 * size(200)
