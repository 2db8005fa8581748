"""Certificate emission and independent verification, including tampering.

Every tamper test mutates a genuine certificate and asserts the verifier
pinpoints a failure; the heavyweight mutation corpus lives with the
acceptance checks.
"""

from __future__ import annotations

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
)
from tightcert.diagrams import (
    ContactDiagram,
    diagram_iso,
    set_coeff,
    stabilize,
    tower_diagram,
)
from tightcert.errors import CalculusError, ExcludedSlopeError
from tightcert.rationals import SurgeryCoeff
from tightcert.serialize import certificate_from_dict, certificate_to_dict
from tightcert.topology import Manifold


def fresh(cert):
    """Independent copy via the serialization round trip."""
    return certificate_from_dict(certificate_to_dict(cert))


def with_linking(d, a, b, value):
    links = d.linking_pairs()
    links[frozenset((a, b))] = value
    return ContactDiagram(d.components, links)


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
    assert chain.rank_facts["-tower(3)"] == 3
    assert chain.rank_facts["s3"] == 1
    assert chain.rank_facts["s1xs2"] == 2
    assert chain.rank_facts["poincare"] == 1
    assert len(chain.triangles) == 1 + 6
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
    assert cert.edges == {} and cert.rank_facts == {} and cert.triangles == ()
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
    cert.rank_facts["-tower(2)"] += 1
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
    # Every edge derives its target, so a retargeted witness builds another
    # target, whose h1 audit then fails.
    for eid, nid in (("ey1", "y1"), ("ev1", "v2")):
        cert = fresh(certify_tight(SurgeryCoeff(5, 2)))
        edge = cert.edges[eid]
        cert.edges[eid] = SurgeryEdge(edge.eid, edge.src, edge.dst, "unknot")
        result = check_certificate(cert)
        assert not result.ok
        step = cert.steps[result.step]
        assert step.rule == "h1_consistency" and step.ref("node") == nid
        assert "h1" in result.reason


@pytest.mark.parametrize("slope", ["0", "-5/3", "17/16", "5/2", "13/8"])
def test_emitted_nodes_inline_or_derived_and_audited_in_order(slope):
    # Stein (0, -5/3), unit-fraction (17/16) and general positive branches.
    cert = certify_tight(SurgeryCoeff.parse(slope))
    for n in cert.nodes.values():
        assert (n.diagram is None) != (n.via is None), n.nid
    audit = cert.steps[: len(cert.nodes)]
    assert [s.rule for s in audit] == ["h1_consistency"] * len(cert.nodes)
    assert [s.ref("node") for s in audit] == list(cert.nodes)
    assert cert.steps[len(cert.nodes)].rule != "h1_consistency"


@pytest.mark.parametrize("slope", ["-1/1000000", "1000001/1000000", "-1/1000000000"])
def test_relabelled_huge_slope_rejected_quickly(slope):
    # The declared slope's presentation would have 10^6 or more components;
    # its size is counted against the 5/2 root before anything is built.
    cert = fresh(certify_tight(SurgeryCoeff(5, 2)))
    cert.slope = SurgeryCoeff.parse(slope)
    cert.nodes["y0"] = replace(
        cert.nodes["y0"], manifold=Manifold.trefoil_surgery(cert.slope)
    )
    start = time.perf_counter()
    result = check_certificate(cert)
    assert time.perf_counter() - start < 1.0
    assert not result.ok
    assert result.reason == "conclusion presentation does not match the declared slope"


def test_derived_nodes_are_tower_stages():
    # 5/2 needs stage 2 and one reduction step, which ends at stage 2.
    cert = certify_tight(SurgeryCoeff(5, 2))
    derived = {n.nid: n.via for n in cert.nodes.values() if n.via is not None}
    assert derived == {"eta": "e_eta", "v2": "ev1", "v3": "ev2", "y1": "ey1"}
    assert all(cert.nodes[nid].diagram is None for nid in derived)
    built = node_presentations(cert)
    for k in (1, 2, 3):
        assert built[f"v{k}"] == tower_diagram(k)
    assert built["y0"] is cert.nodes["y0"].diagram
    assert cert.edges["ey1"].witness.startswith("cancel:")
    assert diagram_iso(built["y1"], tower_diagram(2))


def _set_via(cert, nid, eid):
    cert.nodes[nid] = replace(cert.nodes[nid], via=eid)


def _move_v3_first(cert):
    cert.nodes = {"v3": cert.nodes["v3"], **cert.nodes}


def _reroute_ev2_from_v3(cert):
    e = cert.edges["ev2"]
    cert.edges["ev2"] = SurgeryEdge(e.eid, "v3", e.dst, e.witness)


def _inline_v3(cert):
    v3 = cert.nodes["v3"]
    cert.nodes["v3"] = replace(v3, diagram=node_presentations(cert)["v3"])


def _demote_to_stage_0(cert):
    cert.engine_stage, cert.triangles, cert.rank_facts = 0, (), {}


def _cancel_witness(cert, cid):
    e = cert.edges["ey1"]
    cert.edges["ey1"] = SurgeryEdge(e.eid, e.src, e.dst, f"cancel:{cid}")


def _pullback_by_extra_edge(cert):
    # An edge y0 -> std that no node names; citing it would give y0 a
    # nonzero class straight from the empty presentation's.
    cert.edges["e_extra"] = SurgeryEdge("e_extra", "y0", "std", "unknot")
    pullback = Step("plus_one_pullback", (("edge", "e_extra"),), ("c_nonzero", "y0"))
    cert.steps = cert.steps[:-1] + (pullback,) + cert.steps[-1:]


def _inline_y1(cert):
    y1 = cert.nodes["y1"]
    cert.nodes["y1"] = replace(y1, diagram=node_presentations(cert)["y1"])


@pytest.mark.parametrize(
    "mutate, reason",
    [
        (lambda c: _set_via(c, "v3", "e_missing"), "'e_missing' not present"),
        (lambda c: _set_via(c, "eta", "ey1"), "edge ey1 leads to 'y1'"),
        (lambda c: _set_via(c, "v3", "ev1"), "edge ev1 leads to 'v2'"),
        (_move_v3_first, "source 'v2' of edge ev2 has no presentation declared before"),
        (_reroute_ev2_from_v3, "source 'v3' of edge ev2 has no presentation"),
        (_inline_v3, "also carries an inline presentation"),
        (
            _demote_to_stage_0,
            "4 derived nodes, engine stage 0 and 1 chain knots allow at most 2",
        ),
        (lambda c: _cancel_witness(c, "c3"), "component c3 carries 1, not -1"),
        (lambda c: _cancel_witness(c, "c9"), "no component 'c9' in diagram"),
        (_pullback_by_extra_edge, "edge e_extra derives no node"),
        (_inline_y1, "node y1 derived via 'ey1': it also carries an inline"),
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


def test_reject_engine_stage_decrement():
    cert = fresh(certify_tight(SurgeryCoeff(5, 2)))
    cert.engine_stage -= 1
    result = check_certificate(cert)
    assert not result.ok
    assert "unknown triangle" in result.reason


def test_reject_triangle_vertex_change():
    cert = fresh(certify_tight(SurgeryCoeff(5, 2)))
    tri = cert.triangles[1]
    forged = type(tri)(tri.a, tri.b, Manifold.s3(), tri.provenance, tri.informational)
    cert.triangles = (cert.triangles[0], forged) + cert.triangles[2:]
    result = check_certificate(cert)
    assert not result.ok
    assert "unknown triangle" in result.reason


def test_reject_node_manifold_swap():
    cert = fresh(certify_tight(SurgeryCoeff(2)))
    eta = cert.nodes["eta"]
    cert.nodes["eta"] = ContactNode("eta", Manifold.s3(), eta.diagram)
    result = check_certificate(cert)
    assert not result.ok


def test_reject_coefficient_flip_on_root_presentation():
    cert = fresh(certify_tight(SurgeryCoeff(5, 2)))
    y0 = cert.nodes["y0"]
    flipped = set_coeff(y0.diagram, y0.diagram.components[0].cid, SurgeryCoeff(1))
    cert.nodes["y0"] = ContactNode("y0", y0.manifold, flipped)
    result = check_certificate(cert)
    assert not result.ok


def test_reject_rot_tamper_on_chain_knot():
    cert = fresh(certify_tight(SurgeryCoeff(-5, 3)))
    y0 = cert.nodes["y0"]
    chain = [c for c in y0.diagram.components if c.coeff == SurgeryCoeff(-1)]
    target = next(c for c in chain if c.rot != 0)
    bumped = stabilize(y0.diagram, target.cid, 1)
    cert.nodes["y0"] = ContactNode("y0", y0.manifold, bumped)
    result = check_certificate(cert)
    assert not result.ok


def test_reject_linking_tamper():
    cert = fresh(certify_tight(SurgeryCoeff(5, 2)))
    y0 = cert.nodes["y0"]
    a, b = y0.diagram.ids()[0], y0.diagram.ids()[1]
    warped = with_linking(y0.diagram, a, b, y0.diagram.linking(a, b) + 1)
    cert.nodes["y0"] = ContactNode("y0", y0.manifold, warped)
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
    idx, step = [
        (i, s) for i, s in enumerate(cert.steps) if s.rule == "plus_one_pushforward"
    ][-1]
    i = int(step.ref("triangle"))
    index = form.format(i=i, neg=i - len(cert.triangles))
    refs = tuple((k, index if k == "triangle" else v) for k, v in step.refs)
    cert.steps = cert.steps[:idx] + (Step(step.rule, refs, step.gives),) + cert.steps[idx + 1 :]
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
