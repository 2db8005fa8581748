"""Fuzzing the verifier with mutated certificates, and the CLI with any bytes.

Whatever a certificate file holds, ``certificate_from_dict`` followed by
``check_certificate`` either raises ``ParseError`` or returns a verdict,
and the benchmark's four tamper kinds are always rejected.  Every command
that reads a file exits 0, 2 or 3 on any bytes, with no traceback.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from tightcert.certify import certify_tight  # noqa: E402
from tightcert.cli import main  # noqa: E402
from tightcert.diagrams import (  # noqa: E402
    add_trefoil,
    add_unknot,
    contact_pushoff,
    empty_diagram,
    trefoil_surgery_diagram,
)
from tightcert.errors import ParseError  # noqa: E402
from tightcert.rationals import SurgeryCoeff  # noqa: E402
from tightcert.serialize import (  # noqa: E402
    certificate_from_dict,
    certificate_to_dict,
    diagram_file_to_dict,
)
from tightcert.verify import VerificationResult, check_certificate  # noqa: E402

# Stein, unit-fraction and reduction-path certificates, all small.
SLOPES = ("0", "1/2", "-5/3", "-3", "2", "5/2", "13/8", "9/4", "4/3")
BASES = {
    s: json.loads(json.dumps(certificate_to_dict(certify_tight(SurgeryCoeff.parse(s)))))
    for s in SLOPES
}
POSITIVE = tuple(s for s in SLOPES if BASES[s]["engine_stage"] >= 1)

IDS = st.sampled_from(
    ["std", "eta", "v1", "v2", "v3", "v4", "y0", "y1", "y2", "c1", "c2", "c3",
     "e_eta", "ev1", "ev2", "ev3", "ey1", "ey2", "ghost", ""]
)
TEXTS = st.sampled_from(
    ["0", "-1", "01", "+1", "99", "inf", "1/0", "0/0", "-7/5", "tower(2)",
     "-tower(0)", "s3", "s1xs2", "lens(4,2)", "trefoil(5/2)", "opaque:x",
     "pushoff:c1", "pushoff:ghost", "cancel:c1", "cancel:c3", "cancel:ghost",
     "unknot", "rhtrefoil", "node", "edge", "triangle", "group", "tight",
     "c_nonzero", "0:2", "1:", "same_diagram", "cancel_equivalent",
     "plus_one_pushforward", "h1_consistency"]
)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-6, 6), IDS, TEXTS)
KEYS = st.sampled_from(
    ["id", "diagram", "manifold", "src", "dst", "witness", "components",
     "linkings", "deviations", "type", "tb", "rot", "coeff", "rule", "refs", "gives"]
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(KEYS, inner, max_size=3)
    ),
    max_leaves=6,
)


def _sites(obj, out):
    """Every (container, key) pair below ``obj``."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in list(items):
        out.append((obj, key))
        if isinstance(value, (dict, list)):
            _sites(value, out)
    return out


def _edit(cert, draw):
    kind = draw(st.sampled_from(
        ["replace", "delete", "endpoint", "diagram", "manifold", "move"]
    ))
    nodes, edges = cert.get("nodes"), cert.get("edges")
    nodes = [n for n in nodes if isinstance(n, dict)] if isinstance(nodes, list) else []
    edges = [e for e in edges if isinstance(e, dict)] if isinstance(edges, list) else []
    if kind == "endpoint" and edges:
        end = draw(st.sampled_from(["src", "dst"]))
        draw(st.sampled_from(edges))[end] = draw(st.one_of(IDS, SCALARS))
    elif kind == "diagram" and nodes:
        a, b = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
        a["diagram"] = copy.deepcopy(b.get("diagram"))
    elif kind == "manifold" and nodes:
        # A node that names a manifold names none, and one that names
        # none names one.
        node = draw(st.sampled_from(nodes))
        if node.pop("manifold", None) is None:
            node["manifold"] = draw(TEXTS)
    elif kind == "move":
        lists = [c[k] for c, k in _sites(cert, []) if isinstance(c[k], list) and c[k]]
        if lists:
            seq = draw(st.sampled_from(lists))
            item = seq.pop(draw(st.integers(0, len(seq) - 1)))
            seq.insert(draw(st.integers(0, len(seq))), item)
    else:
        sites = _sites(cert, [])
        if sites:
            container, key = draw(st.sampled_from(sites))
            if kind == "delete":
                del container[key]
            else:
                container[key] = draw(VALUES)


@settings(
    max_examples=250, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_mutated_certificate_gets_verdict_or_parse_error(data):
    cert = copy.deepcopy(BASES[data.draw(st.sampled_from(SLOPES))])
    for _ in range(data.draw(st.integers(1, 3))):
        _edit(cert, data.draw)
    try:
        parsed = certificate_from_dict(cert)
    except ParseError:
        return
    assert isinstance(check_certificate(parsed), VerificationResult)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(slope=st.sampled_from(POSITIVE), subseed=st.integers(0, 2**32 - 1))
def test_benchmark_tamper_kinds_rejected(workloads, slope, subseed):
    for kind in workloads.TAMPER_KINDS:
        cert = copy.deepcopy(BASES[slope])
        workloads.tamper(cert, kind, subseed)
        result = check_certificate(certificate_from_dict(cert))
        assert not result.ok, (slope, kind, subseed)


# ---------------------------------------------------------------------------
# The CLI on any bytes
# ---------------------------------------------------------------------------

# Every command that reads a file, with its exit codes: 0 success, 2 an
# input error, 3 a verdict of REJECTED.
FILE_COMMANDS = (("verify",), ("h1", "--diagram"), ("det", "--link"), ("certify", "--batch"))

# A compact certificate whose bytes the strategy below corrupts, so that
# some inputs still decode as JSON and reach the verifier.
_SEED_BYTES = json.dumps(BASES["5/2"], separators=(",", ":")).encode()


@st.composite
def _corrupted(draw):
    blob = bytearray(_SEED_BYTES)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(blob) - 1))
        op = draw(st.sampled_from(["flip", "insert", "delete"]))
        if op == "flip":
            blob[i] = draw(st.integers(0, 255))
        elif op == "insert":
            blob[i:i] = draw(st.binary(min_size=1, max_size=4))
        else:
            del blob[i : i + draw(st.integers(1, 8))]
    return bytes(blob)


# An unnormalized diagram file with a valid header.
_DIAGRAM_FILE = diagram_file_to_dict(trefoil_surgery_diagram(SurgeryCoeff(-5, 3)))


@st.composite
def _headed_diagrams(draw):
    """The diagram file above with up to three coefficients or linking
    numbers replaced, so that most files still parse and reach normalize
    and ``h1``."""
    data = copy.deepcopy(_DIAGRAM_FILE)
    sites = [(c, "coeff", TEXTS) for c in data["components"]]
    sites += [(lk, 2, st.integers(-6, 6)) for lk in data["linkings"]]
    for _ in range(draw(st.integers(0, 3))):
        container, key, values = draw(st.sampled_from(sites))
        container[key] = draw(values)
    return json.dumps(data).encode()


RAW_BYTES = st.one_of(
    st.binary(max_size=200),
    st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4)
                 | st.dictionaries(KEYS, inner, max_size=4), max_leaves=12)
    .map(lambda v: json.dumps(v).encode()),
    _corrupted(),
)


def _run_cli(path, command):
    """Run one command in-process on ``path``; returns its exit code and
    everything it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, str(path)])
    return code, out.getvalue() + err.getvalue()


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cli") / "input.json"


@settings(
    max_examples=120, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(command=st.sampled_from(FILE_COMMANDS), data=st.data())
def test_cli_exits_0_2_or_3_on_any_bytes(input_path, command, data):
    # A share of the inputs of a command that reads a diagram file carry
    # a valid header.
    diagram = command[-1] == "--diagram"
    blob = data.draw(st.one_of(_headed_diagrams(), RAW_BYTES) if diagram else RAW_BYTES)
    input_path.write_bytes(blob)
    code, printed = _run_cli(input_path, command)
    assert code in (0, 2, 3) and "Traceback" not in printed, (command, blob)


def _forest_file():
    """A diagram file of two roots and five pushoffs, two of them nested,
    at coefficients that normalize converts."""
    d, t = add_trefoil(empty_diagram(), coeff=SurgeryCoeff(-1))
    d, u = add_unknot(d, tb=-2, rot=1, coeff=SurgeryCoeff(-2))
    d, p = contact_pushoff(d, t, SurgeryCoeff(-3, 2))
    d, _ = contact_pushoff(d, p, SurgeryCoeff(1))
    d, q = contact_pushoff(d, u, SurgeryCoeff(2))
    d, _ = contact_pushoff(d, q, SurgeryCoeff(-1))
    d, _ = contact_pushoff(d, t, SurgeryCoeff(1, 2))
    return diagram_file_to_dict(d)


_FOREST = _forest_file()
DIAGRAM_COMMANDS = (("h1", "--diagram"), ("det", "--diagram"), ("convert", "--diagram"))


def _parent(entry):
    kind = entry["type"]
    return kind[len("pushoff:"):] if kind.startswith("pushoff:") else None


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(DIAGRAM_COMMANDS),
    order=st.permutations(range(len(_FOREST["components"]))),
    parents_first=st.booleans(),
)
def test_diagram_file_in_any_component_order_exits_0_or_2(
    input_path, command, order, parents_first
):
    # A file that lists a pushoff before its parent is refused at the
    # first such pushoff's type.  Any other order is read, or refused at a
    # linking entry that no longer fits the stored form, since which knot
    # of a pair stores it depends on the order.  Half the orders are made
    # parents-first: each place takes the first knot of the permutation
    # whose parent is placed.
    data = copy.deepcopy(_FOREST)
    pending = [data["components"][i] for i in order]
    if parents_first:
        placed, ordered = {None}, []
        while pending:
            c = next(c for c in pending if _parent(c) in placed)
            pending.remove(c)
            ordered.append(c)
            placed.add(c["id"])
        pending = ordered
    data["components"] = pending
    seen, first = {None}, None
    for i, c in enumerate(pending):
        if first is None and _parent(c) not in seen:
            first = i
        seen.add(c["id"])
    input_path.write_text(json.dumps(data))
    code, printed = _run_cli(input_path, command)
    assert code in (0, 2) and "Traceback" not in printed, (command, order)
    if first is not None:
        assert code == 2 and f"diagram.components[{first}].type:" in printed, printed


def _nested(depth, open_, close, leaf=b"0"):
    return open_ * depth + leaf + close * depth


def _wide_certificate(field, count):
    data = copy.deepcopy(BASES["5/2"])
    if field == "nodes":
        data["nodes"] += [{"id": f"n{i}", "manifold": "s3", "diagram": None}
                          for i in range(count)]
    elif field == "edges":
        data["edges"] += [{"id": f"e{i}", "src": "std", "dst": "eta", "witness": "unknot"}
                          for i in range(count)]
    else:
        data["steps"] = [data["steps"][-1]] * count
    return json.dumps(data).encode()


# Trees of extreme depth and width, as JSON text.  Depth past the decoder's
# recursion limit is an input error; depth below it reaches the parsers.
_TREES = {
    "deep_array": _nested(20_000, b"[", b"]"),
    "deep_object": _nested(20_000, b'{"a":', b"}"),
    "deep_in_field": b'{"components": ' + _nested(900, b"[", b"]") + b', "n": 1, '
                     b'"matrix": ' + _nested(900, b"[", b"]") + b"}",
    "wide_array": b"[" + b",".join([b"0"] * 50_000) + b"]",
    "wide_object": b"{" + b",".join(b'"k%d": 0' % i for i in range(20_000)) + b"}",
    "wide_matrix": b'{"n": 1, "matrix": [' + b",".join([b"1"] * 50_000) + b"]}",
    "wide_nodes": _wide_certificate("nodes", 10_000),
    "wide_edges": _wide_certificate("edges", 10_000),
    "wide_steps": _wide_certificate("steps", 10_000),
    "wide_lines": b"# comment\n" * 20_000 + b"-2\n",
}


@pytest.mark.parametrize("tree", sorted(_TREES))
@pytest.mark.parametrize("command", FILE_COMMANDS, ids=" ".join)
def test_cli_exits_0_2_or_3_on_extreme_trees(tree, command, tmp_path):
    path = tmp_path / "input.json"
    path.write_bytes(_TREES[tree])
    code, printed = _run_cli(path, command)
    assert code in (0, 2, 3) and "Traceback" not in printed
    assert len(printed) < 4096
