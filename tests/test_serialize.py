"""JSON round trips and malformed-input errors for every persistent object."""

from __future__ import annotations

import copy
import hashlib
import json
import random

import pytest

from tightcert.certify import build_tower_chain, certify_tight, node_presentations
from tightcert.diagrams import (
    add_unknot,
    convert_negative,
    empty_diagram,
    normalize_diagram,
    trefoil_surgery_diagram,
)
from tightcert.errors import ParseError
from tightcert.floer import Interval, RankDb, base_facts, tower_triangles, unknot_triangle
from tightcert.rationals import INF, SurgeryCoeff
from tightcert.serialize import (
    CERTIFICATE_FORMAT,
    FORMAT_VERSION,
    certificate_from_dict,
    certificate_to_dict,
    coeff_from_str,
    coeff_to_str,
    diagram_from_dict,
    diagram_to_dict,
    dump_json,
    framed_link_from_dict,
    framed_link_to_dict,
    load_json,
    rank_table_from_dict,
    rank_table_to_dict,
    triangles_from_list,
    triangles_to_list,
)
from tightcert.topology import Manifold, linking_matrix


def random_slope(rng):
    while True:
        c = SurgeryCoeff(rng.randrange(-20, 21), rng.randrange(1, 9))
        if c != 1:
            return c


# ---------------------------------------------------------------------------
# Coefficients
# ---------------------------------------------------------------------------


def test_coeff_round_trip():
    for c in (SurgeryCoeff(-5, 3), SurgeryCoeff(4), SurgeryCoeff(0), INF, None):
        assert coeff_from_str(coeff_to_str(c)) == c
    assert coeff_to_str(SurgeryCoeff(-5, 3)) == "-5/3"
    with pytest.raises(ParseError) as err:
        coeff_from_str("nope", where="nodes[0].coeff")
    assert err.value.location == "nodes[0].coeff"


# ---------------------------------------------------------------------------
# Diagrams
# ---------------------------------------------------------------------------


def test_diagram_round_trip_random():
    rng = random.Random(6101)
    for _ in range(30):
        d = normalize_diagram(trefoil_surgery_diagram(random_slope(rng)))
        data = diagram_to_dict(d)
        json.dumps(data)  # must be plain JSON types
        back = diagram_from_dict(data)
        assert back == d


def test_diagram_dict_shape():
    d, u = add_unknot(empty_diagram(), coeff=SurgeryCoeff(-3, 2))
    d = convert_negative(d, u)
    data = diagram_to_dict(d)
    assert [c["id"] for c in data["components"]] == list(d.ids())
    assert data["components"][1]["type"] == f"pushoff:{u}"
    assert data["linkings"] == [[d.ids()[0], d.ids()[1], -2]]


def test_diagram_from_dict_rejects():
    good = diagram_to_dict(normalize_diagram(trefoil_surgery_diagram(SurgeryCoeff(-2))))

    bad = json.loads(json.dumps(good))
    bad["components"][0]["type"] = "mystery"
    with pytest.raises(ParseError) as err:
        diagram_from_dict(bad)
    assert "components[0]" in str(err.value)

    # A pushoff must name an already-declared parent.
    bad2 = json.loads(json.dumps(good))
    bad2["components"][0], bad2["components"][1] = (
        bad2["components"][1],
        bad2["components"][0],
    )
    with pytest.raises(ParseError):
        diagram_from_dict(bad2)

    bad3 = json.loads(json.dumps(good))
    bad3["linkings"][0] = ["c1", "ghost", 1]
    with pytest.raises(ParseError):
        diagram_from_dict(bad3)

    bad4 = json.loads(json.dumps(good))
    del bad4["components"][0]["tb"]
    with pytest.raises(ParseError) as err4:
        diagram_from_dict(bad4)
    assert "tb" in str(err4.value)

    bad5 = json.loads(json.dumps(good))
    bad5["components"][0]["tb"] = "x"
    with pytest.raises(ParseError):
        diagram_from_dict(bad5)

    # A pair may be given once, in either order.
    a, b, lk = good["linkings"][0]
    for extra in ([b, a, lk + 5], [a, b, lk]):
        bad6 = json.loads(json.dumps(good))
        bad6["linkings"].append(extra)
        with pytest.raises(ParseError) as err6:
            diagram_from_dict(bad6)
        assert err6.value.location == f"diagram.linkings[{len(good['linkings'])}]"


def expand_to_v1(payload, version=1):
    """The version-1 form of a certificate payload: every derived node gets
    the JSON form of the presentation the verifier builds for it, in place
    of its ``via``, and each "cancel:<cid>" witness is written as the
    "pushoff:<cid>" surgery it starts with.  With ``version=2``, the
    version-2 form: only the nodes derived by a "cancel:" edge, the
    reduction path, are inlined."""
    built = node_presentations(certificate_from_dict(payload))
    out = copy.deepcopy(payload)
    out["version"] = version
    cancels = set()
    for edge in out["edges"]:
        if edge["witness"].startswith("cancel:"):
            edge["witness"] = "pushoff:" + edge["witness"][len("cancel:"):]
            cancels.add(edge["id"])
    for node in out["nodes"]:
        if node.get("via") is not None and (version == 1 or node["via"] in cancels):
            del node["via"]
            node["diagram"] = diagram_to_dict(built[node["id"]])
    return out


def _sha256_of_dump(payload, path):
    dump_json(payload, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


# Version-1 certificate bytes as ``dump_json`` writes them, every diagram
# inline; a change of representation or of move order inside the package
# must leave every one unchanged.  Current certificates are compared
# after ``expand_to_v1``.
GOLDEN_SHA256 = {
    "5/2": "1444d7cecfc9fbe60d27a8ff6449eb714dc7ad05e6b54d51ebb700351220cffa",
    "17/16": "654bc95c6dcf60cf4ec5b171c53f693545fd19ac71a19ffee8501e2db6626320",
    "-7/2": "55b4e8da85ab93bdd12705a096e9b48c50fc02601a241f3e85d17f164c97e8be",
    "13/8": "4c967fd8b5b4adac123fd080885103b1e4a7727f709118a7dbf1b4017a46e4df",
    "0": "503536ab0e371b878c58d114e9d6ffa1f1d5e4cd77ed6e5ea0ac569cf2a74dfb",
    "-1/20": "aac4a6d8c48a2fca8055ccb9c7c0c12125d8b4facaba39ec247b6783694fa27f",
    "-4000": "17cae221578355e607e86c27b3c476139068c2146adc62e6f6b5f056278dcd07",
    "233/144": "7d9a35fed86ccca5eaa1927a7e0cf043aa0c19b01782d1c57c6a19ef4e4c96b9",
}


# Version-2 certificate bytes, derived ladder nodes by ``via`` and the
# reduction path inline; current certificates are compared after
# ``expand_to_v1(payload, version=2)``.
GOLDEN_V2_SHA256 = {
    "5/2": "c33fcc06d7e81a77800af060f11a40c55e03644f7a8cf43b8b01e329a2a8da86",
    "17/16": "3ad7477f6b6509a049cfeb7f41204772c8f24a00201b08d81e5d46b358166f1b",
    "-7/2": "c27dd4f397d093936c3be7444977b654a4fd0d411b25fdc59f22009df496c7f6",
    "13/8": "e48759262c287abfa32fc9e4f561d672398342d4450b99223265d82f1882806f",
    "0": "1759d0b07b68f0d4e8ce54378aa22a8dfe5fd45de813c310fbaa405c655e4fb2",
    "-1/20": "6ca0106ca86cf21bbe8535c9d0844ba85684374b285ca6a57b2dd5a37338d1fe",
    "-4000": "5798bdf6edbe8029d4530ab4c77667be87ca2b03072f16efd82a8d6c4ca1fffc",
    "233/144": "01948eb2c612452a0e7a92aac6018f8dd7721969a579606658f04d30d1cc7666",
}


# Version-3 certificate bytes as emitted: the ladder and the reduction path
# derived by ``via``.
GOLDEN_V3_SHA256 = {
    "5/2": "63deab9d265bbfb73d2acc2ef645b6dd15c0b09a268094b9fb4854fe62e289ca",
    "17/16": "593c7c934dd3573475a52a10a6e9602fe5b86fded1a0d814d79a635803066e8a",
    "-7/2": "80e525e94b211f69599b3ca31788454131b44f183b70d32c9eed651d93fd7688",
    "13/8": "66b8af997596b4e4c3de3482fb28b11156ce22c9d0058aaa31c7063bb5614ac6",
    "0": "0e3eca4f9257d2807437d2491377773b3c103cc730144b08f6479796c7bd5f78",
    "-1/20": "1a7ac69d71d5746e8860b4c6ee2ba65ca79f3d87ffb90d44cac429838b2cff26",
    "-4000": "10fe996a890cdb9b77c184037ffe5d887be917898393c5e37fda6f36fa50fc10",
    "233/144": "38102354b2e89b0c20c48ebd3ca55303e9dbdf31ac27628a46a43468a6ba103f",
}


@pytest.mark.parametrize("slope", sorted(GOLDEN_SHA256))
def test_certificate_golden_bytes(slope, tmp_path):
    payload = certificate_to_dict(certify_tight(SurgeryCoeff.parse(slope)))
    expanded = expand_to_v1(payload)
    assert _sha256_of_dump(expanded, tmp_path / "cert.json") == GOLDEN_SHA256[slope]


@pytest.mark.parametrize("slope", sorted(GOLDEN_V2_SHA256))
def test_certificate_v2_golden_bytes(slope, tmp_path):
    payload = certificate_to_dict(certify_tight(SurgeryCoeff.parse(slope)))
    expanded = expand_to_v1(payload, version=2)
    assert _sha256_of_dump(expanded, tmp_path / "cert.json") == GOLDEN_V2_SHA256[slope]


@pytest.mark.parametrize("slope", sorted(GOLDEN_V3_SHA256))
def test_certificate_v3_golden_bytes(slope, tmp_path):
    payload = certificate_to_dict(certify_tight(SurgeryCoeff.parse(slope)))
    assert payload["version"] == FORMAT_VERSION == 3
    assert _sha256_of_dump(payload, tmp_path / "cert.json") == GOLDEN_V3_SHA256[slope]


# ---------------------------------------------------------------------------
# Framed links
# ---------------------------------------------------------------------------


def test_framed_link_round_trip():
    link = linking_matrix(normalize_diagram(trefoil_surgery_diagram(SurgeryCoeff(7, 2))))
    data = framed_link_to_dict(link)
    assert data["n"] == link.size
    assert len(data["matrix"]) == link.size**2
    assert framed_link_from_dict(data) == link


def test_framed_link_from_dict_rejects():
    with pytest.raises(ParseError):
        framed_link_from_dict({"n": 2, "matrix": [1, 2, 3], "tags": ["", ""]})
    with pytest.raises(ParseError):
        framed_link_from_dict({"n": 2, "matrix": [0, 1, 2, 0], "tags": ["", ""]})
    with pytest.raises(ParseError):
        framed_link_from_dict({"n": 2, "matrix": [0, 1, 1, 0], "tags": [""]})
    with pytest.raises(ParseError):
        framed_link_from_dict({"n": -1, "matrix": []})
    # Tags are optional on input: missing tags read as blank (fail-closed).
    assert framed_link_from_dict({"n": 1, "matrix": [3]}).tags == ("",)


# ---------------------------------------------------------------------------
# Rank tables and triangles
# ---------------------------------------------------------------------------


def test_rank_table_round_trip():
    db = base_facts()
    db.set_fact(Manifold.neg_tower(4), Interval(2, 6))
    db.set_fact(Manifold.neg_tower(9), Interval.unknown())
    data = rank_table_to_dict(db)
    back = rank_table_from_dict(data)
    assert isinstance(back, RankDb)
    for m, interval in db.items():
        assert back.fact(m) == interval


def test_rank_table_rejects():
    with pytest.raises(ParseError):
        rank_table_from_dict({"facts": [{"manifold": "s3"}]})
    with pytest.raises(ParseError):
        rank_table_from_dict({"facts": [{"manifold": "s3", "rank": -1}]})
    with pytest.raises(ParseError):
        rank_table_from_dict({})


def test_triangles_round_trip():
    tris = [unknot_triangle()] + tower_triangles(5)
    data = triangles_to_list(tris)
    back = triangles_from_list(data)
    assert back == tuple(tris)
    assert data[1 + 5]["informational"] is True


def test_triangles_reject_bad_manifold():
    data = triangles_to_list([unknot_triangle()])
    data[0]["a"] = "lens(4,2)"
    with pytest.raises(ParseError):
        triangles_from_list(data)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def test_certificate_round_trip_both_branches():
    for text in ("1/2", "0", "-7/3", "2", "9/4"):
        cert = certify_tight(SurgeryCoeff.parse(text))
        data = certificate_to_dict(cert)
        assert data["format"] == CERTIFICATE_FORMAT
        assert data["version"] == FORMAT_VERSION
        json.dumps(data)
        back = certificate_from_dict(json.loads(json.dumps(data)))
        assert certificate_to_dict(back) == data


def test_certificate_version_1_refused():
    payload = expand_to_v1(certificate_to_dict(certify_tight(SurgeryCoeff(5, 2))))
    assert not any("via" in n for n in payload["nodes"])
    with pytest.raises(ParseError) as err:
        certificate_from_dict(payload)
    assert "unsupported certificate version 1" in str(err.value)


def test_certificate_version_2_refused():
    data = certificate_to_dict(certify_tight(SurgeryCoeff(5, 2)))
    with pytest.raises(ParseError) as err:
        certificate_from_dict(expand_to_v1(data, version=2))
    assert err.value.location == "certificate.version"


def test_certificate_derived_node_form():
    data = certificate_to_dict(certify_tight(SurgeryCoeff(5, 2)))
    by_id = {n["id"]: n for n in data["nodes"]}
    assert by_id["v2"] == {
        "id": "v2", "manifold": "tower(2)", "diagram": None, "via": "ev1"
    }
    assert list(by_id["v1"]) == ["id", "manifold", "diagram"]
    bad = json.loads(json.dumps(data))
    bad["nodes"][1]["via"] = 7
    with pytest.raises(ParseError) as err:
        certificate_from_dict(bad)
    assert err.value.location == "certificate.nodes[1].via"


def test_certificate_header_rejections():
    cert = certify_tight(SurgeryCoeff(1, 2))
    good = certificate_to_dict(cert)

    wrong_format = dict(good, format="other")
    with pytest.raises(ParseError):
        certificate_from_dict(wrong_format)

    wrong_version = dict(good, version=99)
    with pytest.raises(ParseError):
        certificate_from_dict(wrong_version)

    no_slope = dict(good, slope=None)
    with pytest.raises(ParseError):
        certificate_from_dict(no_slope)

    bad_conclusion = dict(good, conclusion=["tight"])
    with pytest.raises(ParseError):
        certificate_from_dict(bad_conclusion)

    bad_nodes = dict(good, nodes="x")
    with pytest.raises(ParseError):
        certificate_from_dict(bad_nodes)


def test_certificate_step_and_edge_rejections():
    good = certificate_to_dict(certify_tight(SurgeryCoeff(5, 2)))

    bad = json.loads(json.dumps(good))
    bad["steps"][0]["refs"] = [["node"]]
    with pytest.raises(ParseError):
        certificate_from_dict(bad)

    bad2 = json.loads(json.dumps(good))
    del bad2["edges"][0]["witness"]
    with pytest.raises(ParseError):
        certificate_from_dict(bad2)


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------


def test_dump_and_load_json(tmp_path):
    target = tmp_path / "cert.json"
    cert = certify_tight(SurgeryCoeff(-4, 3))
    dump_json(certificate_to_dict(cert), str(target))
    text = target.read_text()
    assert text.endswith("\n")
    data = load_json(str(target))
    assert certificate_to_dict(certificate_from_dict(data)) == certificate_to_dict(cert)


def test_load_json_error_positions(tmp_path):
    target = tmp_path / "broken.json"
    target.write_text('{\n  "format": "tightness-certificate",\n  "version": }\n')
    with pytest.raises(ParseError) as err:
        load_json(str(target))
    assert "line 3" in str(err.value)
    with pytest.raises(ParseError):
        load_json(str(tmp_path / "missing.json"))
