"""Command-line behavior: outputs, exit codes, files, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from tightcert import floer, serialize, topology
from tightcert.certify import certify_tight
from tightcert.cli import main
from tightcert.serialize import (
    FORMAT_VERSION,
    certificate_from_dict,
    diagram_file_to_dict,
    diagram_to_dict,
    dump_json,
    load_json,
)
from tightcert.diagrams import (
    add_unknot,
    empty_diagram,
    normalize_diagram,
    tower_diagram,
    trefoil_surgery_diagram,
)
from tightcert.rationals import SurgeryCoeff
from tightcert.topology import FramedLink, Manifold, linking_matrix
from test_acceptance import _UNNAMED_REASONS
from test_serialize import _full_diagram_dict, framed_link_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------


def test_convert_text_output(capsys):
    code, out, err = run_cli(capsys, "convert", "--slope", "-3")
    assert code == 0 and err == ""
    assert "c1: rhtrefoil tb 1 rot 0 coeff -1" in out
    assert "lk(" in out


def test_convert_json_matches_library(capsys):
    code, out, _ = run_cli(capsys, "convert", "--slope", "5/2", "--json")
    assert code == 0
    from tightcert.diagrams import trefoil_surgery_diagram

    diagram = diagram_to_dict(normalize_diagram(trefoil_surgery_diagram(SurgeryCoeff(5, 2))))
    data = json.loads(out)
    assert data == {"format": "contact-diagram", "version": FORMAT_VERSION, **diagram}
    assert list(data)[:2] == ["format", "version"]


def test_convert_negative_slope_inline_value(capsys):
    # Negative rationals after a space must not be read as flags.
    code, out, _ = run_cli(capsys, "convert", "--slope", "-7/3", "--json")
    assert code == 0
    assert json.loads(out)["components"]


def test_convert_diagram_file_round_trip(tmp_path, capsys):
    d, _ = add_unknot(empty_diagram(), coeff=SurgeryCoeff(-5, 3))
    src = tmp_path / "diagram.json"
    dump_json(diagram_file_to_dict(d), str(src))
    out_path = tmp_path / "normalized.json"
    code, _, _ = run_cli(capsys, "convert", "--diagram", str(src), "--out", str(out_path))
    assert code == 0
    data = load_json(str(out_path))
    assert all(c["coeff"] == "-1" for c in data["components"])
    # The written file reads back, with the H1 of its source.
    want = run_cli(capsys, "h1", "--diagram", str(src))
    assert want[0] == 0 and run_cli(capsys, "h1", "--diagram", str(out_path)) == want
    code, _, _ = run_cli(capsys, "convert", "--slope", "5/2", "--out", str(out_path))
    assert code == 0
    assert run_cli(capsys, "h1", "--diagram", str(out_path)) == run_cli(capsys, "h1", "--slope", "5/2")


# The version-7 form of Y (a trefoil), X a pushoff of Y and C a pushoff
# of X, where lk(C, Y) = 0: the pushoff rule gives C the linking -1 of X
# and Y, so read as the current form it is a different diagram.
_V7_YXC = {
    "components": [
        {"id": "Y", "type": "rhtrefoil", "tb": 0, "rot": 0, "coeff": "-1"},
        {"id": "X", "type": "pushoff:Y", "tb": 0, "rot": 0, "coeff": "-1"},
        {"id": "C", "type": "pushoff:X", "tb": 0, "rot": 0, "coeff": "-1"},
    ],
    "linkings": [["X", "Y", -1]],
}


@pytest.mark.parametrize("command", ["h1", "det", "convert"])
@pytest.mark.parametrize(
    "header, reason",
    [
        ({}, "diagram: missing field 'format'"),
        ({"format": "tightness-certificate", "version": 8}, "diagram.format: not a contact diagram"),
        ({"format": "contact-diagram"}, "diagram: missing field 'version'"),
        ({"format": "contact-diagram", "version": 7}, "diagram.version: unsupported diagram version 7"),
        ({"format": "contact-diagram", "version": 8}, "diagram.version: unsupported diagram version 8"),
    ],
)
def test_diagram_file_without_its_header_refused(command, header, reason, tmp_path, capsys):
    path = tmp_path / "diagram.json"
    dump_json({**header, **_V7_YXC}, str(path))
    code, out, err = run_cli(capsys, command, "--diagram", str(path))
    assert (code, out, err) == (2, "", f"error: {reason}\n")


def test_convert_excluded_slope_exits_2(capsys):
    code, out, err = run_cli(capsys, "convert", "--slope", "1")
    assert code == 2
    assert "error:" in err and out == ""


def test_convert_bad_slope_text_exits_2(capsys):
    code, _, err = run_cli(capsys, "convert", "--slope", "seven")
    assert code == 2 and "error:" in err


# ---------------------------------------------------------------------------
# h1 / det
# ---------------------------------------------------------------------------


def test_h1_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "h1", "--slope", "-3")
    assert code == 0
    assert out == "Z/3\norder 3\n"

    code, out, _ = run_cli(capsys, "h1", "--slope", "0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"free_rank": 1, "torsion": [], "order": 0, "cyclic": True}


def test_h1_from_link_file(tmp_path, capsys):
    link = FramedLink(((2, 1), (1, 2)), ("unknot", "unknot"))
    path = tmp_path / "link.json"
    dump_json(framed_link_dict(link), str(path))
    code, out, _ = run_cli(capsys, "h1", "--link", str(path))
    assert code == 0 and out == "Z/3\norder 3\n"


H1_SLOPES = ("-3", "0", "2", "5/2", "-5/3", "7/3", "13/4", "-7/2", "80/79", "-1/150", "1001/999")


def _h1_printed(p):
    """What ``h1`` prints for slope p/q, whose group is Z/|p| (Z for p = 0)."""
    p = abs(p)
    text = {0: "Z", 1: "0"}.get(p, f"Z/{p}") + f"\norder {p}\n"
    payload = {"free_rank": int(p == 0), "torsion": [p] if p > 1 else [],
               "order": p, "cyclic": True}
    return text, json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("slope", H1_SLOPES)
def test_h1_of_a_slope_prints_the_same_bytes(slope, capsys):
    text, payload = _h1_printed(int(slope.split("/")[0]))
    assert run_cli(capsys, "h1", "--slope", slope) == (0, text, "")
    assert run_cli(capsys, "h1", "--slope", slope, "--json") == (0, payload, "")


def test_h1_reduces_a_slope_as_a_diagram(monkeypatch, capsys):
    reduced = []
    real = topology.h1
    monkeypatch.setattr(topology, "h1", lambda obj: reduced.append(obj) or real(obj))
    run_cli(capsys, "h1", "--slope", "5/4")
    assert [type(obj).__name__ for obj in reduced] == ["ContactDiagram"]


@pytest.mark.parametrize("slope", ["-3", "7/3", "13/4", "-5/3", "9/8"])
def test_h1_of_a_slope_equals_h1_of_its_link(slope, tmp_path, capsys):
    # det too: a slope is read as its slid rows, a link file as given.
    d = normalize_diagram(trefoil_surgery_diagram(SurgeryCoeff.parse(slope)))
    path = tmp_path / "link.json"
    dump_json(framed_link_dict(linking_matrix(d)), str(path))
    for command in ("h1", "det"):
        for extra in ((), ("--json",)):
            by_slope = run_cli(capsys, command, "--slope", slope, *extra)
            assert run_cli(capsys, command, "--link", str(path), *extra) == by_slope


# The unslid 25 x 25 linking matrix of a nested (-1)-chain with one
# linking bumped (``test_oracles.nested_tree`` at seed 8803, iteration 80,
# the bumped variant): the sparse phase leaves a block with no unit, on
# which an elimination without a modulus grows entries past a million bits.
NO_UNIT_LINK = os.path.join(os.path.dirname(__file__), "data", "nested_bumped_link.json")


def test_h1_and_det_of_a_link_the_sparse_phase_leaves_dense(capsys):
    # Z + Z/3 + Z/6 + Z/246 and det 0, as sympy computes them.
    code, out, _ = run_cli(capsys, "h1", "--link", NO_UNIT_LINK, "--json")
    assert code == 0
    assert json.loads(out) == {"free_rank": 1, "torsion": [3, 6, 246], "order": 0, "cyclic": False}
    assert run_cli(capsys, "det", "--link", NO_UNIT_LINK, "--json") == (0, '{\n  "det": 0\n}\n', "")


def test_det_output(capsys):
    code, out, _ = run_cli(capsys, "det", "--slope", "-3")
    assert code == 0
    assert out.strip() == "-3" or out.strip() == "3"
    value = int(out)
    code, out, _ = run_cli(capsys, "det", "--slope", "-3", "--json")
    assert json.loads(out) == {"det": value}


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def test_count_output(capsys):
    code, out, _ = run_cli(capsys, "count", "--coeff", "-5/3")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run_cli(capsys, "count", "--coeff", "-5/3", "--json")
    assert json.loads(out) == {"coeff": "-5/3", "presentations": 4}
    code, _, err = run_cli(capsys, "count", "--coeff", "0")
    assert code == 2 and "error:" in err


# ---------------------------------------------------------------------------
# ranks
# ---------------------------------------------------------------------------


def test_ranks_table(capsys):
    code, out, _ = run_cli(capsys, "ranks", "--max-k", "4")
    assert code == 0
    lines = out.splitlines()
    table = {line.split()[0]: line.split()[1] for line in lines if line}
    assert table["s3"] == "1"
    assert table["s1xs2"] == "2"
    for k in range(1, 5):
        assert table[f"-tower({k})"] == str(k)
    # The stage past the last lens triangle stays an honest interval.
    assert "[3," in out


def test_ranks_json(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "ranks", "--max-k", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["consistent"] is True and data["rounds"] >= 2
    ranks = {f["manifold"]: f for f in data["facts"]}
    assert ranks["-tower(3)"]["rank"] == 3
    out_path = tmp_path / "ranks.json"
    code, _, _ = run_cli(capsys, "ranks", "--max-k", "3", "--json", "--out", str(out_path))
    assert code == 0
    assert load_json(str(out_path))["consistent"] is True


@pytest.mark.parametrize("consistent", [True, False])
def test_ranks_out_writes_the_json_table(consistent, tmp_path, monkeypatch, capsys):
    # ``--out`` without ``--json`` writes the file ``--json --out`` writes,
    # prints nothing, and still exits 3 on a contradiction.
    seed = floer.base_facts

    def inconsistent():
        facts = seed()
        facts.set_fact(Manifold.s1xs2(), floer.Interval.exact(5))
        return facts

    if not consistent:
        monkeypatch.setattr(floer, "base_facts", inconsistent)
    code = 0 if consistent else 3
    plain, with_json = tmp_path / "plain.json", tmp_path / "json.json"
    assert run_cli(capsys, "ranks", "--max-k", "3", "--out", str(plain)) == (code, "", "")
    assert run_cli(capsys, "ranks", "--max-k", "3", "--json", "--out", str(with_json)) == (
        code, "", "")
    assert plain.read_bytes() == with_json.read_bytes()
    assert load_json(str(plain))["consistent"] is consistent


# sha256 of the ``ranks --max-k K`` output, text then --json, as the plain
# round-robin loop over ``RankDb`` printed it.
RANKS_SHA256 = {
    1: ("93661010bd93506e6b3e71e4e108f81cc2f7f295b4ce2da3486bb321bb1e30a1",
        "d063a38cac1663a2f2f8c35c336e1894ca026303438789f1a5c3dad3694ae9a1"),
    3: ("342896bc146e79ce5af429642cea90ddb1e0462fedb6073a68582f578931a97b",
        "07e6c0a2360c46452c2020afb47071cd94660caecfdb1e22c8e5faf2a3c2c151"),
    12: ("3a8a2dcb77cf97db43ef9109db855a4d9e0d5fb1f783ebc6d132eca8bb6b1ff6",
         "80d15c6d637ab961d2fd06a2fc664bb107464f93a0b93507a45a1c0a72b7cb13"),
    40: ("5d3d1b3c5652a654eb7005fc08debf3ffdc311911cbd87d876cd6f659325a240",
         "abdf081dcc80ebe397f769ba97813d2a34192a12e92d0233e9ded62dfd00c272"),
}


@pytest.mark.parametrize("k", sorted(RANKS_SHA256))
def test_ranks_output_digests(k, capsys):
    digests = []
    for extra in ((), ("--json",)):
        code, out, _ = run_cli(capsys, "ranks", "--max-k", str(k), *extra)
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == RANKS_SHA256[k]


# ---------------------------------------------------------------------------
# triangle
# ---------------------------------------------------------------------------


def test_triangle_solve_output(capsys):
    code, out, _ = run_cli(capsys, "triangle", "--solve", "3", "4", "1")
    assert code == 0
    assert "rank f = 3, rank g = 1, rank h = 0" in out
    assert "f injective" in out

    code, out, _ = run_cli(capsys, "triangle", "--solve", "3", "4", "1", "--json")
    data = json.loads(out)
    assert data["f_injective"] is True and data["rank_f"] == 3

    code, _, err = run_cli(capsys, "triangle", "--solve", "1", "1", "1")
    assert code == 2 and "odd total" in err


# ---------------------------------------------------------------------------
# certify / verify
# ---------------------------------------------------------------------------


def test_certify_single_slope(capsys):
    code, out, _ = run_cli(capsys, "certify", "--r", "3/4")
    assert code == 0
    assert "slope 3/4: TIGHT" in out and "verified yes" in out


def test_certify_trace_lists_steps(capsys):
    code, out, _ = run_cli(capsys, "certify", "--r", "1/2", "--trace")
    assert code == 0
    assert "nonzero_tight(node=y0) => tight(y0)" in out


def test_certify_excluded_slope_refused(capsys):
    code, out, _ = run_cli(capsys, "certify", "--r", "1")
    assert code == 2
    assert "REFUSED" in out


def _bump_rank_fact(data):
    data["rank_facts"]["-tower(1)"] += 4


def _unreadable_slope(data):
    data["slope"] = "True/2"


@pytest.mark.parametrize("corrupt", [_bump_rank_fact, _unreadable_slope])
def test_certify_checks_the_certificate_it_writes(corrupt, tmp_path, monkeypatch, capsys):
    write = serialize.certificate_to_dict

    def corrupting(cert):
        data = write(cert)
        corrupt(data)
        return data

    monkeypatch.setattr(serialize, "certificate_to_dict", corrupting)
    path = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, "certify", "--r", "-5/3", "--emit", str(path))
    assert code == 2 and "verified NO" in out
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 3 and "REJECTED" in out


def test_certify_emit_verify_round_trip(tmp_path, capsys):
    path = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, "certify", "--r", "-5/3", "--emit", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0 and "ACCEPTED" in out

    # Tamper: bump a rank fact in the stored JSON.
    data = load_json(str(path))
    cert = certificate_from_dict(data)
    assert cert.slope == SurgeryCoeff(-5, 3)
    data["rank_facts"]["-tower(1)"] = 5
    dump_json(data, str(path))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 3
    assert "REJECTED" in out and "not engine-verified" in out


def test_verify_json_reports_reason(tmp_path, capsys):
    path = tmp_path / "cert.json"
    run_cli(capsys, "certify", "--r", "2", "--emit", str(path))
    data = load_json(str(path))
    data["conclusion"] = ["tight", "v1"]
    dump_json(data, str(path))
    code, out, _ = run_cli(capsys, "verify", str(path), "--json")
    assert code == 3
    payload = json.loads(out)
    assert payload["ok"] is False and "slope" in payload["reason"]


def test_verify_short_refs_rejected_without_traceback(tmp_path, capsys):
    path = tmp_path / "cert.json"
    run_cli(capsys, "certify", "--r", "5/2", "--emit", str(path))
    data = load_json(str(path))
    idx = next(i for i, s in enumerate(data["steps"]) if s["rule"] == "cancel_equivalent")
    data["steps"][idx]["refs"] = []
    dump_json(data, str(path))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 3 and err == ""
    assert out == (
        f"certificate {path}: REJECTED: certificate.steps[{idx}].refs: rule "
        "cancel_equivalent takes references (node, node), step cites 0\n"
    )


@pytest.mark.parametrize("edit", ["missing_edge", "inline_diagram", "later_node"])
def test_verify_derived_node_misuse_rejected_without_traceback(edit, tmp_path, capsys):
    path = tmp_path / "cert.json"
    run_cli(capsys, "certify", "--r", "5/2", "--emit", str(path))
    data = load_json(str(path))
    nodes, edges = data["nodes"], data["edges"]
    i = next(i for i, e in enumerate(edges) if e["dst"] == "v2")
    if edit == "missing_edge":
        # The root goes inline, so that its size, not the edge count,
        # bounds the check and the missing edge is what gets refused.
        root = next(n for n in nodes if n["id"] == "y0")
        root["diagram"] = diagram_to_dict(
            normalize_diagram(trefoil_surgery_diagram(SurgeryCoeff(5, 2)))
        )
        del edges[i]
        expected = "edge ev2: source 'v2' has no presentation yet"
    elif edit == "inline_diagram":
        j = next(j for j, n in enumerate(nodes) if n["id"] == "v2")
        nodes[j]["diagram"] = nodes[j - 1]["diagram"]
        expected = "edge ev1: target 'v2' is not a declared node without a presentation"
    else:
        edges.append(edges.pop(i))
        expected = "edge ev2: source 'v2' has no presentation yet"
    dump_json(data, str(path))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 3 and err == ""
    assert f"REJECTED: {expected}" in out


@pytest.mark.parametrize("mutate", list(_UNNAMED_REASONS), ids=lambda m: m.__name__[5:])
def test_verify_unnamed_node_misuse_located_without_traceback(mutate, tmp_path, capsys):
    path = tmp_path / "cert.json"
    run_cli(capsys, "certify", "--r", "5/2", "--emit", str(path))
    data = load_json(str(path))
    assert mutate(data)
    dump_json(data, str(path))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 3 and err == ""
    step, reason = _UNNAMED_REASONS[mutate]
    at = "" if step is None else f" at step {step % len(data['steps'])}"
    assert out.startswith(f"certificate for slope 5/2: REJECTED{at}: {reason}")


@pytest.mark.parametrize("field", ["node", "rank_fact"])
def test_verify_bad_manifold_name_located(field, tmp_path, capsys):
    path = tmp_path / "cert.json"
    run_cli(capsys, "certify", "--r", "5/2", "--emit", str(path))
    data = load_json(str(path))
    if field == "node":
        i = next(i for i, n in enumerate(data["nodes"]) if n["id"] == "v2")
        data["nodes"][i]["manifold"] = "bogus"
        location = f"certificate.nodes[{i}].manifold"
    else:
        data["rank_facts"]["bogus"] = 1
        location = "certificate.rank_facts['bogus']"
    dump_json(data, str(path))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 3 and err == ""
    assert out == f"certificate {path}: REJECTED: {location}: bad manifold 'bogus'\n"
    code, out, err = run_cli(capsys, "verify", str(path), "--json")
    assert code == 3 and err == ""
    assert json.loads(out) == {
        "ok": False, "step": None, "reason": "bad manifold 'bogus'", "location": location,
    }


def test_verify_second_rank_fact_for_a_manifold_rejected(tmp_path, capsys):
    path = tmp_path / "cert.json"
    run_cli(capsys, "certify", "--r", "5/4", "--emit", str(path))
    data = load_json(str(path))
    data["rank_facts"][" s3 "] = 1
    dump_json(data, str(path))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 3 and err == ""
    location = "certificate.rank_facts[' s3 ']"
    assert out == f"certificate {path}: REJECTED: {location}: a second rank fact for s3\n"


def test_verify_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2 and "error:" in err


# Files the JSON decoder cannot read: bytes that are not UTF-8, an integer
# longer than Python converts (4300 digits), nesting deeper than the
# decoder's recursion allows.
_UNREADABLE = {
    "non_utf8": b'\xff\xfe{"n": 1}',
    "long_int": b'{"n": 1, "matrix": [' + b"7" * 5000 + b"]}",
    "deep": b"[" * 200_000 + b"]" * 200_000,
}


@pytest.mark.parametrize("content", sorted(_UNREADABLE))
@pytest.mark.parametrize(
    "command", [["verify"], ["h1", "--diagram"], ["det", "--link"], ["certify", "--batch"]]
)
def test_unreadable_file_exits_2_without_traceback(command, content, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_bytes(_UNREADABLE[content])
    code, out, err = run_cli(capsys, *command, str(path))
    assert code == 2 and "Traceback" not in err
    assert len(out) + len(err) < 1024


def test_long_slope_is_clipped_where_echoed(capsys):
    slope = "7" * 5000
    code, out, err = run_cli(capsys, "certify", "--r", slope)
    assert code == 2 and "REFUSED" in out
    assert len((out + err).encode()) < 1024
    code, out, err = run_cli(capsys, "certify", "--r", slope, "--json")
    assert code == 2 and len((out + err).encode()) < 1024
    assert json.loads(out)["slope"].startswith("7" * 200 + "... ")


def test_rejected_verify_clips_a_long_slope(tmp_path, capsys):
    path = tmp_path / "cert.json"
    run_cli(capsys, "certify", "--r", "5/2", "--emit", str(path))
    data = load_json(str(path))
    data["slope"] = "7" * 3000
    dump_json(data, str(path))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 3 and err == "" and "REJECTED" in out
    assert len(out.encode()) < 1024
    code, out, err = run_cli(capsys, "verify", str(path), "--json")
    assert code == 3 and err == "" and len(out.encode()) < 1024
    payload = json.loads(out)
    assert payload["ok"] is False and payload["slope"].startswith("7" * 200 + "... ")


def test_oversized_inline_diagram_refused_before_it_is_built(tmp_path, capsys):
    # An inline node longer than any presentation the verifier holds for
    # the slope is refused while reading, before it is built.
    path = tmp_path / "cert.json"
    run_cli(capsys, "certify", "--r", "1/2", "--emit", str(path))
    data = load_json(str(path))
    assert data["engine_stage"] == 0
    data["nodes"][0]["diagram"] = {
        "components": [
            {"id": f"u{i}", "type": "unknot", "tb": -1, "rot": 0, "coeff": "-1"}
            for i in range(5000)
        ],
        "linkings": [],
    }
    dump_json(data, str(path))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run_cli(capsys, "verify", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 20 * 2**20, peak
    assert code == 3 and err == ""
    assert out == (
        f"certificate {path}: REJECTED: certificate.nodes[0].diagram: 5000 "
        "components, more than any presentation of slope 1/2 has\n"
    )


def _verify_peak(capsys, path):
    """Exit code, output and tracemalloc peak of ``tightcert verify``."""
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "verify", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err == ""
    return code, out, peak


def _stage_0_certificate(tmp_path, capsys, slope):
    path = tmp_path / "cert.json"
    run_cli(capsys, "certify", "--r", slope, "--emit", str(path))
    data = load_json(str(path))
    assert data["engine_stage"] == 0 and data["nodes"][0]["diagram"] is not None
    return path, data


def test_long_root_of_unlinked_unknots_read_in_linear_memory(tmp_path, capsys):
    # 3000 components is the size of 2999/5999's root, so the reader builds
    # them; the stored rows are empty, and the check against the
    # verifier's own 3000-knot root rejects them.
    path, data = _stage_0_certificate(tmp_path, capsys, "2999/5999")
    data["nodes"][0]["diagram"] = {
        "components": [
            {"id": f"u{i}", "type": "unknot", "tb": -1, "rot": 0, "coeff": "-1"}
            for i in range(3000)
        ],
        "linkings": [],
    }
    dump_json(data, str(path))
    code, out, peak = _verify_peak(capsys, path)
    assert peak <= 20 * 2**20, peak
    assert code == 3
    assert out == (
        "certificate for slope 2999/5999: REJECTED: conclusion presentation "
        "does not match the declared slope\n"
    )


def test_pushoffs_of_a_densely_linked_parent_read_in_linear_memory(tmp_path, capsys):
    # Each pushoff lists only its linking with its parent, so by the
    # pushoff rule each links every earlier sibling as the parent does:
    # the stored rows are the entries, one a pushoff.  A pushoff that
    # linked its siblings otherwise would list each deviation.  The
    # presentation is not the verifier's root of 2999/5999.
    path, data = _stage_0_certificate(tmp_path, capsys, "2999/5999")
    data["nodes"][0]["diagram"] = {
        "components": [{"id": "x", "type": "unknot", "tb": -1, "rot": 0, "coeff": "-1"}]
        + [
            {"id": f"p{i}", "type": "pushoff:x", "tb": -1, "rot": 0, "coeff": "-1"}
            for i in range(2999)
        ],
        "linkings": [["p%d" % i, "x", -1] for i in range(2999)],
    }
    dump_json(data, str(path))
    start = time.perf_counter()
    code, out, peak = _verify_peak(capsys, path)
    assert time.perf_counter() - start < 2.0
    assert peak <= 20 * 2**20, peak
    assert code == 3
    assert out == (
        "certificate for slope 2999/5999: REJECTED: conclusion presentation "
        "does not match the declared slope\n"
    )


def test_inline_parent_listed_after_its_child_read_then_rejected(tmp_path, capsys):
    # An inline diagram must list each pushoff after its parent; the reader
    # refuses any other order at the pushoff's type, so verify exits 3
    # before it builds anything.
    path, data = _stage_0_certificate(tmp_path, capsys, "3/7")
    components = data["nodes"][0]["diagram"]["components"]
    assert components[1]["type"] == "pushoff:c1"
    components[0], components[1] = components[1], components[0]
    dump_json(data, str(path))
    code, out, _ = _verify_peak(capsys, path)
    assert code == 3
    assert out == (
        f"certificate {path}: REJECTED: certificate.nodes[0].diagram.components[0].type: "
        "pushoff parent 'c1' is not listed before it\n"
    )
    run_cli(capsys, "certify", "--r", "5/4", "--emit", str(path))
    data = load_json(str(path))
    (v1,) = [n for n in data["nodes"] if n["id"] == "v1"]
    v1["diagram"]["components"].reverse()
    dump_json(data, str(path))
    code, out, _ = _verify_peak(capsys, path)
    assert code == 3
    assert out == (
        f"certificate {path}: REJECTED: certificate.nodes[{data['nodes'].index(v1)}]"
        ".diagram.components[0].type: pushoff parent 'c1' is not listed before it\n"
    )


# The version-7 form of tower stage 2 lists the linking of the sibling
# pushoffs c2 and c3 of c1, which the pushoff rule gives.
_SIBLING = "pushoff c3 links c2 by the pushoff rule from c1: give its deviation, not its linking"


def test_v7_style_sibling_linking_refused_by_verify(tmp_path, capsys):
    path = tmp_path / "cert.json"
    run_cli(capsys, "certify", "--r", "5/4", "--emit", str(path))
    data = load_json(str(path))
    assert data["nodes"][2]["id"] == "v1"
    data["nodes"][2]["diagram"] = _full_diagram_dict(tower_diagram(2))
    assert data["nodes"][2]["diagram"]["linkings"][2] == ["c2", "c3", 1]
    dump_json(data, str(path))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 3 and err == ""
    assert out == (
        f"certificate {path}: REJECTED: certificate.nodes[2].diagram.linkings[2]: "
        f"{_SIBLING}\n"
    )


def test_v7_style_sibling_linking_refused_by_h1(tmp_path, capsys):
    path = tmp_path / "diagram.json"
    header = {"format": "contact-diagram", "version": FORMAT_VERSION}
    dump_json({**header, **_full_diagram_dict(tower_diagram(2))}, str(path))
    code, out, err = run_cli(capsys, "h1", "--diagram", str(path))
    assert code == 2 and out == ""
    assert err == f"error: diagram.linkings[2]: {_SIBLING}\n"
    dump_json(diagram_file_to_dict(tower_diagram(2)), str(path))
    assert run_cli(capsys, "h1", "--diagram", str(path))[0] == 0


def test_verify_json_that_is_no_certificate_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 3 and err == ""
    assert out == f"certificate {path}: REJECTED: certificate: missing field 'format'\n"
    code, out, err = run_cli(capsys, "verify", str(path), "--json")
    assert code == 3 and err == ""
    assert json.loads(out) == {
        "ok": False, "step": None, "reason": "missing field 'format'",
        "location": "certificate",
    }


def test_certify_batch(tmp_path, capsys):
    batch = tmp_path / "slopes.txt"
    batch.write_text("# comment line\n-2\n1/2   # trailing comment\n\n5/2\n")
    emit = tmp_path / "certs.json"
    code, out, _ = run_cli(capsys, "certify", "--batch", str(batch), "--emit", str(emit))
    assert code == 0
    assert out.count("TIGHT") == 3
    for i in range(3):
        stored = load_json(str(tmp_path / f"certs.{i}.json"))
        assert stored["format"] == "tightness-certificate"


@pytest.mark.parametrize("lines, expected", [
    ("# only a comment\n\n   \n", []),
    ("-2\n", "object"),
    ("-2\n1/2\n", 2),
], ids=["empty", "one", "two"])
def test_certify_batch_json_shape(lines, expected, tmp_path, capsys):
    # An empty batch prints an empty list, one slope its object, more a list.
    batch = tmp_path / "slopes.txt"
    batch.write_text(lines)
    code, out, err = run_cli(capsys, "certify", "--batch", str(batch), "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    if expected == "object":
        assert payload["slope"] == "-2" and payload["verified"] is True
    elif expected == []:
        assert payload == []
    else:
        assert [entry["slope"] for entry in payload] == ["-2", "1/2"]


def test_certify_batch_with_refusal_exits_2(tmp_path, capsys):
    batch = tmp_path / "slopes.txt"
    batch.write_text("-2\n1\n")
    code, out, _ = run_cli(capsys, "certify", "--batch", str(batch))
    assert code == 2
    assert "TIGHT" in out and "REFUSED" in out


def test_certify_json_output(capsys):
    code, out, _ = run_cli(capsys, "certify", "--r", "0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert data["certificate"]["slope"] == "0"


def test_missing_batch_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "certify", "--batch", "/nonexistent/slopes.txt")
    assert code == 2 and "error:" in err


def test_output_bytes_deterministic(capsys):
    first = run_cli(capsys, "certify", "--r", "9/5", "--json")
    second = run_cli(capsys, "certify", "--r", "9/5", "--json")
    assert first == second
    third = run_cli(capsys, "ranks", "--max-k", "6", "--json")
    fourth = run_cli(capsys, "ranks", "--max-k", "6", "--json")
    assert third == fourth


@pytest.mark.parametrize("argv", [
    ("certify", "--r", "5/2", "--emit", "{missing}"),
    ("convert", "--slope", "5/2", "--out", "{directory}"),
    ("ranks", "--max-k", "2", "--json", "--out", "{missing}"),
])
def test_unwritable_output_path_exits_2(argv, tmp_path, capsys):
    # Refused as an unreadable input file is: one located error line, no
    # traceback, nothing on stdout.
    paths = {"missing": str(tmp_path / "missing" / "x.json"), "directory": str(tmp_path)}
    argv = [arg.format(**paths) for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and argv[-1] in err


# ---------------------------------------------------------------------------
# Start-up: each subcommand loads only the layers it runs
# ---------------------------------------------------------------------------


# Run -> the tightcert modules it loads besides ``tightcert``, ``cli``,
# ``errors`` and ``rationals``; no arguments is ``import tightcert.cli``.
_LOADED = {
    (): "",
    ("count", "--coeff", "13/8"): "diagrams",
    ("h1", "--slope", "13/8"): "diagrams topology",
    ("det", "--slope", "13/8"): "diagrams topology",
    ("h1", "--slope", "13/8", "--json"): "diagrams topology",
    ("det", "--slope", "13/8", "--json"): "diagrams topology",
    ("convert", "--slope", "13/8"): "diagrams topology serialize",
    ("h1", "--diagram", "{diagram}"): "diagrams topology serialize",
    ("det", "--diagram", "{diagram}"): "diagrams topology serialize",
    ("h1", "--link", "{link}"): "diagrams topology serialize",
    ("det", "--link", "{link}"): "diagrams topology serialize",
    ("triangle", "--solve", "1", "2", "3"): "diagrams topology floer",
    ("ranks", "--max-k", "3"): "diagrams topology floer",
    ("ranks", "--max-k", "3", "--json"): "diagrams topology floer serialize",
    ("verify", "{certificate}"): "diagrams topology floer serialize verify",
    ("certify", "--r", "8/7"): "diagrams topology floer serialize verify certify",
}

_LOADED_SCRIPT = (
    "import sys\n"
    "from tightcert import cli\n"
    "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "print(code, *sorted(m for m in sys.modules if m.startswith('tightcert')))\n"
)


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    d = normalize_diagram(trefoil_surgery_diagram(SurgeryCoeff(13, 8)))
    files = {"diagram": diagram_file_to_dict(d),
             "link": framed_link_dict(linking_matrix(d)),
             "certificate": serialize.certificate_to_dict(certify_tight(SurgeryCoeff(8, 7)))}
    for name, payload in files.items():
        dump_json(payload, str(root / f"{name}.json"))
    return {name: str(root / f"{name}.json") for name in files}


@pytest.mark.parametrize("run", list(_LOADED), ids=lambda run: " ".join(run) or "import")
def test_each_command_loads_only_its_layers(run, input_files):
    # In a fresh interpreter, so that nothing an earlier test imported counts.
    argv = [arg.format(**input_files) for arg in run]
    src = os.path.dirname(os.path.dirname(serialize.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _LOADED_SCRIPT, *argv], env=env,
                         check=True, capture_output=True, text=True).stdout
    code, *loaded = out.splitlines()[-1].split()
    expected = ["cli", "errors", "rationals", *_LOADED[run].split()]
    assert code == "0"
    assert sorted(loaded) == sorted(["tightcert"] + [f"tightcert.{m}" for m in expected])
