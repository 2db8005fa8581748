"""Fuzzing the verifier with mutated version-3 certificates.

Whatever a certificate file holds, ``certificate_from_dict`` followed by
``check_certificate`` either raises ``ParseError`` or returns a verdict,
and the benchmark's four tamper kinds are always rejected.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from tightcert.certify import VerificationResult, certify_tight, check_certificate  # noqa: E402
from tightcert.errors import ParseError  # noqa: E402
from tightcert.rationals import SurgeryCoeff  # noqa: E402
from tightcert.serialize import certificate_from_dict, certificate_to_dict  # noqa: E402

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
    ["id", "via", "diagram", "manifold", "src", "dst", "witness", "components",
     "linkings", "type", "tb", "rot", "coeff", "rule", "refs", "gives"]
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
    kind = draw(st.sampled_from(["replace", "delete", "via", "diagram", "move"]))
    nodes = cert.get("nodes")
    nodes = [n for n in nodes if isinstance(n, dict)] if isinstance(nodes, list) else []
    if kind == "via" and nodes:
        draw(st.sampled_from(nodes))["via"] = draw(st.one_of(IDS, SCALARS))
    elif kind == "diagram" and nodes:
        a, b = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
        a["diagram"] = copy.deepcopy(b.get("diagram"))
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


@pytest.fixture(scope="module")
def workloads():
    """The benchmark's workload module, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    if not path.is_file():
        pytest.skip("no perfbench directory")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(slope=st.sampled_from(POSITIVE), subseed=st.integers(0, 2**32 - 1))
def test_benchmark_tamper_kinds_rejected(workloads, slope, subseed):
    for kind in workloads.TAMPER_KINDS:
        cert = copy.deepcopy(BASES[slope])
        workloads.tamper(cert, kind, subseed)
        result = check_certificate(certificate_from_dict(cert))
        assert not result.ok, (slope, kind, subseed)
