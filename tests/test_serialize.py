"""JSON round trips and malformed-input errors for every persistent object."""

from __future__ import annotations

import copy
import hashlib
import json
import random
from itertools import combinations

import pytest

from tightcert import serialize
from tightcert.certify import (
    RULES,
    ContactNode,
    Step,
    SurgeryEdge,
    certify_tight,
    check_certificate,
    node_presentations,
    presentation_bound,
)
from tightcert.diagrams import (
    add_unknot,
    convert_negative,
    empty_diagram,
    normalize_diagram,
    trefoil_surgery_diagram,
)
from tightcert.errors import ParseError
from tightcert.floer import engine_triangles
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
    load_json,
)
from tightcert.topology import Manifold, h1, linking_matrix


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

    # A pushoff must name a parent listed before it: so also a parent that
    # is a component, and no parent cycle.
    swapped = json.loads(json.dumps(good))
    swapped["components"][0], swapped["components"][1] = (
        swapped["components"][1],
        swapped["components"][0],
    )
    cycle = json.loads(json.dumps(good))
    cycle["components"][0]["type"] = "pushoff:c2"
    ghost = json.loads(json.dumps(good))
    ghost["components"][1]["type"] = "pushoff:ghost"
    for data, i, parent in ((swapped, 0, "c1"), (cycle, 0, "c2"), (ghost, 1, "ghost")):
        with pytest.raises(ParseError) as err2:
            diagram_from_dict(data)
        assert err2.value.location == f"diagram.components[{i}].type"
        assert err2.value.reason == f"pushoff parent {parent!r} is not listed before it"

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


def test_diagram_stored_form_entries():
    # The root of 3/7 is a chain c1 <- c2 <- c3 <- c4 of pushoffs, each of
    # the one before; only c2 links its parent.
    d = normalize_diagram(trefoil_surgery_diagram(SurgeryCoeff(3, 7)))
    good = diagram_to_dict(d)
    assert good["linkings"] == [["c1", "c2", 1]] and "deviations" not in good

    def read(linkings=(["c1", "c2", 1],), deviations=None):
        data = dict(good, linkings=list(linkings))
        if deviations is not None:
            data["deviations"] = deviations
        return diagram_from_dict(json.loads(json.dumps(data)))

    assert read(deviations=[]) == d and read(deviations=[["c3", "c1", 0]]) == d
    assert read(deviations=[["c1", "c3", 2]]).linking("c1", "c3") == 3
    assert read([["c2", "c1", 0]]).linking("c1", "c3") == 0
    cases = [
        ([["c1", "c2", 1], ["c1", "c3", 1]], None, "diagram.linkings[1]",
         "pushoff c3 links c1 by the pushoff rule from c2: give its deviation, not its linking"),
        ([["c2", "c1", 0], ["c1", "c2", 1]], None, "diagram.linkings[1]",
         "linking of 'c1' and 'c2' given twice"),
        ([], [["c2", "c3", 1]], "diagram.deviations[0]",
         "c3 has no deviation at c2: only a pushoff deviates, at a knot listed "
         "before it other than its parent"),
        ([], [["c1", "c3", 1], ["c3", "c1", 1]], "diagram.deviations[1]",
         "linking of 'c3' and 'c1' given twice"),
        ([], [["c1", "c3"]], "diagram.deviations[0]", "deviation entries are [knot, pushoff, d]"),
        ([], [["c1", "c3", True]], "diagram.deviations[0]", "expected an integer, got True"),
        ([], {}, "diagram", "deviations must be a list"),
    ]
    for linkings, deviations, location, reason in cases:
        with pytest.raises(ParseError) as err:
            read(linkings, deviations)
        assert (err.value.location, err.value.reason) == (location, reason)


def _v4_triangles(stage):
    """The "triangles" list of versions 1 to 4: the stage's engine family,
    each instance with the provenance text it carried."""
    stages = range(1, stage + 1)
    texts = ["zero-framed unknot surgery triangle"]
    texts += [f"tower surgery triangle linking stages {k} and {k + 1}" for k in stages]
    texts += [
        f"lens-space triangle at tower stage {k} "
        f"(orders {abs(7 * k - 9)} and {abs(8 * k - 9)})"
        + ("; outside the family range, recorded for audit only" if k == 1 else "")
        for k in stages
    ]
    family = engine_triangles(stage) if stage else ()
    return [
        {"a": t.a.text(), "b": t.b.text(), "c": t.c.text(),
         "provenance": text, "informational": t.informational}
        for t, text in zip(family, texts)
    ]


def _group_text(diagram):
    """The "free:torsion" text an h1_consistency step records."""
    group = h1(diagram)
    return f"{group.free_rank}:{','.join(map(str, group.torsion))}"


def _named_nodes(payload):
    """The nodes of a payload as versions 1 to 8 list them: each derived
    node names its manifold, "s1xs2" for the circle bundle, "tower(k + 1)"
    for the stage an edge from "tower(k)" builds, and for the i-th node of
    the reduction path "opaque:reduction stage i of trefoil surgery
    <slope>"."""
    names = {n["id"]: n.get("manifold") for n in payload["nodes"]}
    cancels = 0
    for edge in payload["edges"]:
        source = names[edge["src"]]
        if edge["witness"].startswith("cancel:"):
            cancels += 1
            names[edge["dst"]] = (
                f"opaque:reduction stage {cancels} of trefoil surgery {payload['slope']}"
            )
        elif source == "s3":
            names[edge["dst"]] = "s1xs2"
        else:
            names[edge["dst"]] = f"tower({int(source[len('tower('):-1]) + 1})"
    return [{"id": n["id"], "manifold": names[n["id"]], "diagram": n["diagram"]}
            for n in payload["nodes"]]


def _full_diagram_dict(d):
    """The diagram form of versions 1 to 7: every nonzero linking, each
    pair once with a < b, sorted, and no deviations."""
    ids = d.ids()
    linkings = sorted(
        [ids[i], ids[j], value] if ids[i] < ids[j] else [ids[j], ids[i], value]
        for i, row in enumerate(d.lower_linkings())
        for j, value in row.items()
    )
    return {"components": diagram_to_dict(d)["components"], "linkings": linkings}


def expand_to_v1(payload, version=1):
    """The version-1 form of a certificate payload: every derived node gets
    the JSON form of the presentation the verifier builds for it, and each
    "cancel:<cid>" witness is written as the "pushoff:<cid>" surgery it
    starts with.  With ``version=2``, the version-2 form: only the nodes
    built by a "cancel:" edge, the reduction path, are inlined.  With
    ``version=3``, the version-3 form: every derived node names the edge
    into it as its "via".  A derived node that stays derived gets that
    "via" in versions 2 and 3.  With ``version=4``, the version-4 form,
    which differs from the version-5 one only by its version and by
    listing the engine family after "rank_facts" as "triangles", as every
    earlier version does.  With ``version=5``, the version-5 form: the
    steps open with an "h1_consistency" audit of every node, in node
    order, where later forms audit only the nodes no edge builds.  With
    ``version=6``, the version-6 form, which differs from the version-7
    one only by its version and by the root carrying its presentation
    inline at engine stage >= 1, as every earlier version does.  With
    ``version=7``, the version-7 form, which differs from the version-8
    one only by its version, by each inline diagram listing every nonzero
    linking (``_full_diagram_dict``), and by each reference being a
    [kind, value] pair, as every earlier version does.  With
    ``version=8``, the version-8 form, which differs from the current one
    only by its version and by every derived node naming its manifold
    (``_named_nodes``), as every earlier version does."""
    cert = certificate_from_dict(payload)
    built = node_presentations(cert)
    out = {}
    for key, value in copy.deepcopy(payload).items():
        out[key] = value
        if key == "rank_facts" and version < 5:
            out["triangles"] = _v4_triangles(payload["engine_stage"])
    out["version"] = version
    out["nodes"] = _named_nodes(out)
    if version >= 8:
        return out
    for node in out["nodes"]:
        if node["diagram"] is not None:
            node["diagram"] = _full_diagram_dict(cert.nodes[node["id"]].diagram)
    for step, read in zip(out["steps"], cert.steps):
        step["refs"] = [list(ref) for ref in read.refs]
    if version >= 7:
        return out
    for node in out["nodes"]:
        if node["id"] == out["conclusion"][1] and node["diagram"] is None:
            node["diagram"] = _full_diagram_dict(built[node["id"]])
    if version >= 6:
        return out
    steps = out["steps"]
    while steps[0]["rule"] == "h1_consistency":
        steps.pop(0)
    steps[:0] = [
        {"rule": "h1_consistency",
         "refs": [["node", nid], ["group", _group_text(diagram)]],
         "gives": ["h1", nid]}
        for nid, diagram in built.items()
    ]
    if version >= 4:
        return out
    into = {edge["dst"]: edge for edge in out["edges"]}
    cancels = set()
    if version < 3:
        for edge in out["edges"]:
            if edge["witness"].startswith("cancel:"):
                edge["witness"] = "pushoff:" + edge["witness"][len("cancel:"):]
                cancels.add(edge["id"])
    for node in out["nodes"]:
        edge = into.get(node["id"])
        if edge is None:
            continue
        if version == 1 or edge["id"] in cancels:
            node["diagram"] = _full_diagram_dict(built[node["id"]])
        else:
            node["via"] = edge["id"]
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


# Version-3 certificate bytes: the ladder and the reduction path derived,
# each node naming the edge into it by ``via``; current certificates are
# compared after ``expand_to_v1(payload, version=3)``.
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


# Version-4 certificate bytes: each derived node is built by the one edge
# into it, in edge order, and the engine family is listed; current
# certificates are compared after ``expand_to_v1(payload, version=4)``.
GOLDEN_V4_SHA256 = {
    "5/2": "3131fb4f24403b1090c50f6bd7f3ca8b9958fdab816d1802568f8869047502a9",
    "17/16": "ca8da17f232aec8657d38864cd72014449d2346841747fd98e6976a0243ae29f",
    "-7/2": "64f6f927d73230f7f14679565b3382d4e57a74c338e660dd8c73774b60670263",
    "13/8": "fd3b83267ab2ee95522e22c5889e76e226eb40b21ba8fdf24941bccd71cd5467",
    "0": "1f8ff6800be85592f427dc4b1360b306be0f426f60550cb075caf4db796b6ba9",
    "-1/20": "4bae4fe278b606b074f661d70dbd5f8db89f52fbadb1ddd26bb5805b7428a69a",
    "-4000": "cf96869cd391d0fa66bd3b926b31bfd50e15621d6f895267d22e48b86be90500",
    "233/144": "4cb6e005594499c771b47c2501ff14132be0df2669eadf0c0bd0b9482f57e8f0",
}


# Version-5 certificate bytes: the version-4 bytes without the "triangles"
# list; steps cite triangles by their index in the verifier's own engine
# family.  Current certificates are compared after
# ``expand_to_v1(payload, version=5)``.
GOLDEN_V5_SHA256 = {
    "5/2": "25acda1436f596929f7115a00c8cc3b884f0705226c5f7fe5fc8fe03f686fd99",
    "17/16": "288838db73406ed1c7c98d519c1ed6ef827e82f6e676b797d6b87538b68913df",
    "-7/2": "719d134775eb235d472f940e87e8a5b73e31c6dbce787f5b20e5bf294ed5ed92",
    "13/8": "df53c24f5b7d4057c0b22934178cf5aae445bf3f0427f4164750c33cb10a7e10",
    "0": "3521f6fbbc73b6b3101e5be8d6051a37e797ed08c8cec9ea48072282fd9e0790",
    "-1/20": "c7dc8a75bef4176b30b5f0fa112dda1e9bf47b8c73e73ed2882f07d16b6b1973",
    "-4000": "604f20958804b96afb743c5d822ba22735fdc64555f7419260e3109c6a4b17f8",
    "233/144": "6e0638cf7512da60e0c392a5f0851a6805bee3f4c0f1a6d6a9adda84c1903bb2",
}


# Version-6 certificate bytes: the version-5 bytes with only the inline
# nodes audited.  Current certificates are compared after
# ``expand_to_v1(payload, version=6)``.
GOLDEN_V6_SHA256 = {
    "5/2": "a4d56971904d26942bc9529745f0e0aa0c4d65787832d59612b7b8d896f4e5b8",
    "17/16": "36e5a0feb601deec4c856c71ed79051131a76c51627051e6c982a32fc306892a",
    "-7/2": "bde1c6601c120b0b127fc5749d30834be168410d5810d53995d7ed0f0abedc12",
    "13/8": "fc5b0be9fecd58249880ac9cb435f953b5cf735b164ac4da18e37ab43136a863",
    "0": "cd2e33e61f75b5c962386e068c3dabca7dc1c22bb3fe6e581d592b3593ecfd13",
    "-1/20": "5a8f2642f6df1a57fcff6d6c69de96bce470479d65d3216030d6e99f68c142ac",
    "-4000": "53e1789cbf1e5ae64c05e71080cd89df83daa932e49e285b9bff4723cd5b40f4",
    "233/144": "96452ff91caa9f972792b3d35e8ea4da3f31193edc8d0c1d1cc4d217ca6dcfec",
}


# Version-7 certificate bytes: the version-6 bytes with the root's
# diagram null at engine stage >= 1.  Current certificates are compared
# after ``expand_to_v1(payload, version=7)``.
GOLDEN_V7_SHA256 = {
    "5/2": "1a2ef8d33fb46ca89b58bce5a88317ebce249cf5d80f5fceb40c753c47c00382",
    "17/16": "317c9a54a2413b5055b38b9179a719192e3c5e2b36ba20f5b5799841eeae2b96",
    "-7/2": "28519b955728d62855d67630aded0819824593bdd55ece3202f43e254e814ee6",
    "13/8": "9b0a1f17f640271a2c2e8b5379608ab31d9bfbe7d568d87e2060d9c80ebb2c3e",
    "0": "9d31b7012bfe0c14860d6160c0d41a7b159f9c413b50a79e50f720f06c44d3c1",
    "-1/20": "0eece68f7a83540c81a88096752a0900c54b794b4374228bdca492379b621ae7",
    "-4000": "0741b0556709eb9a8fe6f026cc3e849e6ec577e6dbf0172728d752db2ef97ee8",
    "233/144": "fc63b1fd1035e537dab61965ef60b8be1e138fdff757eae5db7b8bb0dfc785da",
}


# Version-8 certificate bytes: the version-7 bytes with each inline
# diagram in its stored form and each reference as its value.  Current
# certificates are compared after ``expand_to_v1(payload, version=8)``.
GOLDEN_V8_SHA256 = {
    "5/2": "ac09eaa311396e26ee9ae0362ade4d33674684e36118283271ce2364b3c2908e",
    "17/16": "51389fbfd7c6d0e0e73ed7292d0f9a74ea297f077219175f667f4a4da5dcf9cf",
    "-7/2": "10ebbe07cbcae1cb79f74ec91f36a032f8a338c98eb787ddf2dbd11c60033f71",
    "13/8": "f24ce784270f0f732d0156b9a666852e24613251a82616f49a53a92ce085853e",
    "0": "3a8894ce28ba5b8a74846241e68742e1c176bac0d52f20e3dae4abf314c6a7b9",
    "-1/20": "9b5ec630742e58054914d47243e9c41ea16783ec48343292c65bf5a1d8de6ef4",
    "-4000": "1bda25b21cad8b4e56b00fa72314760830725347a513ac82fefda3e69a792e73",
    "233/144": "def62c4681d72ae6be98b834ac8a308f9f9c28f5bfe934891c6c1f6f4fdfd816",
}


# Version-9 certificate bytes as emitted: the version-8 bytes with no
# "manifold" on a node an edge builds.
GOLDEN_V9_SHA256 = {
    "5/2": "6843508774c2561cd21985341c71984bda2255ebf8c325dca5a2e92fab843fc9",
    "17/16": "5d7f66f099197f7c3eaf7563015c7c5f9ca81177e1d163c677194d4a77352e55",
    "-7/2": "126608894625d5b498da00f0d1dc943371ce7884b04c06f6db3e104976bf4fa1",
    "13/8": "6ccbfd195c0e05aac8c0ebcdfdfd829814eea0eed6c14168a4ec1ae3d86601dd",
    "0": "922fe78760cc2023ce5fea8ea617954b03945bad90121233ed88519848f8ff5a",
    "-1/20": "cd214ee8973f5890179605bd902da376213a09003ec503d861b0d0dfec4c599f",
    "-4000": "7a1f2fe795d1895f778c5ab07f90c250418ee00725c40da3ca489c95eecb0e8c",
    "233/144": "9564ed3f551cf2f371c87133ef427e3cca0a8a17b21f88bc8512c23cf9d60913",
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
    expanded = expand_to_v1(payload, version=3)
    assert _sha256_of_dump(expanded, tmp_path / "cert.json") == GOLDEN_V3_SHA256[slope]


@pytest.mark.parametrize("slope", sorted(GOLDEN_V4_SHA256))
def test_certificate_v4_golden_bytes(slope, tmp_path):
    payload = certificate_to_dict(certify_tight(SurgeryCoeff.parse(slope)))
    expanded = expand_to_v1(payload, version=4)
    assert _sha256_of_dump(expanded, tmp_path / "cert.json") == GOLDEN_V4_SHA256[slope]


@pytest.mark.parametrize("slope", sorted(GOLDEN_V5_SHA256))
def test_certificate_v5_golden_bytes(slope, tmp_path):
    payload = certificate_to_dict(certify_tight(SurgeryCoeff.parse(slope)))
    expanded = expand_to_v1(payload, version=5)
    assert "triangles" not in expanded
    assert _sha256_of_dump(expanded, tmp_path / "cert.json") == GOLDEN_V5_SHA256[slope]


@pytest.mark.parametrize("slope", sorted(GOLDEN_V6_SHA256))
def test_certificate_v6_golden_bytes(slope, tmp_path):
    payload = certificate_to_dict(certify_tight(SurgeryCoeff.parse(slope)))
    expanded = expand_to_v1(payload, version=6)
    assert _sha256_of_dump(expanded, tmp_path / "cert.json") == GOLDEN_V6_SHA256[slope]


@pytest.mark.parametrize("slope", sorted(GOLDEN_V7_SHA256))
def test_certificate_v7_golden_bytes(slope, tmp_path):
    payload = certificate_to_dict(certify_tight(SurgeryCoeff.parse(slope)))
    expanded = expand_to_v1(payload, version=7)
    assert _sha256_of_dump(expanded, tmp_path / "cert.json") == GOLDEN_V7_SHA256[slope]


@pytest.mark.parametrize("slope", sorted(GOLDEN_V8_SHA256))
def test_certificate_v8_golden_bytes(slope, tmp_path):
    payload = certificate_to_dict(certify_tight(SurgeryCoeff.parse(slope)))
    expanded = expand_to_v1(payload, version=8)
    assert _sha256_of_dump(expanded, tmp_path / "cert.json") == GOLDEN_V8_SHA256[slope]


@pytest.mark.parametrize("slope", sorted(GOLDEN_V9_SHA256))
def test_certificate_v9_golden_bytes(slope, tmp_path):
    payload = certificate_to_dict(certify_tight(SurgeryCoeff.parse(slope)))
    assert payload["version"] == FORMAT_VERSION == 9
    assert _sha256_of_dump(payload, tmp_path / "cert.json") == GOLDEN_V9_SHA256[slope]


# ---------------------------------------------------------------------------
# Framed links
# ---------------------------------------------------------------------------


def framed_link_dict(link):
    """The JSON form ``framed_link_from_dict`` reads: n, the row-major
    matrix and the tags."""
    return {"n": link.size, "matrix": [x for row in link.matrix for x in row],
            "tags": list(link.tags)}


def test_framed_link_round_trip():
    link = linking_matrix(normalize_diagram(trefoil_surgery_diagram(SurgeryCoeff(7, 2))))
    data = framed_link_dict(link)
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


def test_certificate_version_3_refused():
    data = certificate_to_dict(certify_tight(SurgeryCoeff(5, 2)))
    with pytest.raises(ParseError) as err:
        certificate_from_dict(expand_to_v1(data, version=3))
    assert err.value.location == "certificate.version"
    assert "unsupported certificate version 3" in str(err.value)


def test_certificate_version_4_refused():
    data = certificate_to_dict(certify_tight(SurgeryCoeff(5, 2)))
    with pytest.raises(ParseError) as err:
        certificate_from_dict(expand_to_v1(data, version=4))
    assert err.value.location == "certificate.version"
    assert "unsupported certificate version 4" in str(err.value)


def test_certificate_version_5_refused():
    data = certificate_to_dict(certify_tight(SurgeryCoeff(5, 2)))
    with pytest.raises(ParseError) as err:
        certificate_from_dict(expand_to_v1(data, version=5))
    assert err.value.location == "certificate.version"
    assert "unsupported certificate version 5" in str(err.value)


def test_certificate_version_6_refused():
    data = certificate_to_dict(certify_tight(SurgeryCoeff(5, 2)))
    with pytest.raises(ParseError) as err:
        certificate_from_dict(expand_to_v1(data, version=6))
    assert err.value.location == "certificate.version"
    assert "unsupported certificate version 6" in str(err.value)


@pytest.mark.parametrize("slope", ["5/4", "24/23", "6765/10946"])  # the last is F(20)/F(21)
def test_every_inline_linking_bumped_is_read_and_rejected(slope):
    # Every value under "linkings" is a true linking number, so a bumped
    # one, a zero dropped from its row included, reads as another diagram
    # than the verifier's own.
    good = certificate_to_dict(certify_tight(SurgeryCoeff.parse(slope)))
    sites = [
        (n, k)
        for n, node in enumerate(good["nodes"])
        if node["diagram"] is not None
        for k in range(len(node["diagram"]["linkings"]))
    ]
    assert sites
    zeros = 0
    for n, k in sites:
        for delta in (1, -1):
            data = copy.deepcopy(good)
            entry = data["nodes"][n]["diagram"]["linkings"][k]
            entry[2] += delta
            zeros += entry[2] == 0
            assert not check_certificate(certificate_from_dict(data)).ok, (n, k, delta)
    assert zeros


def test_certificate_version_7_refused():
    data = certificate_to_dict(certify_tight(SurgeryCoeff(5, 2)))
    with pytest.raises(ParseError) as err:
        certificate_from_dict(expand_to_v1(data, version=7))
    assert err.value.location == "certificate.version"
    assert "unsupported certificate version 7" in str(err.value)


def test_certificate_version_8_refused():
    # Its derived nodes name their manifolds, which version 9 refuses, so
    # it is refused at the header.
    data = certificate_to_dict(certify_tight(SurgeryCoeff(5, 2)))
    with pytest.raises(ParseError) as err:
        certificate_from_dict(expand_to_v1(data, version=8))
    assert err.value.location == "certificate.version"
    assert "unsupported certificate version 8" in str(err.value)


def test_certificate_derived_node_form():
    data = certificate_to_dict(certify_tight(SurgeryCoeff(5, 2)))
    by_id = {n["id"]: n for n in data["nodes"]}
    assert by_id["v2"] == {"id": "v2", "diagram": None}
    assert by_id["y1"] == {"id": "y1", "diagram": None}
    assert list(by_id["v1"]) == ["id", "manifold", "diagram"]
    assert certificate_from_dict(data).nodes["v2"].manifold is None
    assert [e["dst"] for e in data["edges"]] == ["eta", "v2", "v3", "y1"]
    bad = json.loads(json.dumps(data))
    bad["edges"][1]["dst"] = 7
    with pytest.raises(ParseError) as err:
        certificate_from_dict(bad)
    assert err.value.location == "certificate.edges[1].dst"


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


@pytest.mark.parametrize(
    "key, expected",
    [
        ("-tower( 2)", "key is not the canonical name '-tower(2)'"),
        (" s3 ", "a second rank fact for s3"),
        ("lens(5,7)", "key is not the canonical name 'lens(5,2)'"),
    ],
)
def test_rank_fact_keys_canonical_and_unique(key, expected):
    data = certificate_to_dict(certify_tight(SurgeryCoeff(5, 2)))
    if key == "-tower( 2)":
        # In place of "-tower(2)": the key parses to that manifold but is
        # not its name.
        data["rank_facts"] = {
            (key if k == "-tower(2)" else k): v for k, v in data["rank_facts"].items()
        }
    else:
        data["rank_facts"][key] = 1
    with pytest.raises(ParseError) as err:
        certificate_from_dict(data)
    assert err.value.location == f"certificate.rank_facts[{key!r}]"
    assert err.value.reason == expected


def test_rank_facts_keyed_by_manifold():
    cert = certificate_from_dict(certificate_to_dict(certify_tight(SurgeryCoeff(5, 2))))
    assert cert.rank_facts == {
        Manifold.s3(): 1, Manifold.s1xs2(): 2, Manifold.poincare(): 1,
        Manifold.neg_tower(1): 1, Manifold.neg_tower(2): 2,
    }


def _reference_manifold(text, where):
    try:
        return Manifold.parse(serialize._str(text, where))
    except ParseError as exc:
        raise ParseError(exc.reason, location=where) from None


def reference_certificate_from_dict(data):
    """The certificate reader as it was before it formatted locations only
    for errors: the same checks in the same order, with rank facts keyed
    by their text, and each step's reference kinds looked up in ``RULES``.
    Returns the fields of the certificate it reads."""
    where = "certificate"
    if serialize._need(data, "format", where) != CERTIFICATE_FORMAT:
        raise ParseError("not a tightness certificate", location=where + ".format")
    if serialize._need(data, "version", where) != FORMAT_VERSION:
        raise ParseError(
            f"unsupported certificate version {data['version']!r}",
            location=where + ".version",
        )
    slope = coeff_from_str(
        serialize._str(serialize._need(data, "slope", where), where + ".slope"),
        where + ".slope",
    )
    conclusion = serialize._need(data, "conclusion", where)
    if (
        not isinstance(conclusion, list)
        or len(conclusion) != 2
        or not all(isinstance(x, str) for x in conclusion)
    ):
        raise ParseError("conclusion must be [kind, node]", location=where + ".conclusion")
    stage = serialize._int(serialize._need(data, "engine_stage", where), where + ".engine_stage")
    for list_field in ("nodes", "edges", "steps"):
        if not isinstance(serialize._need(data, list_field, where), list):
            raise ParseError(f"{list_field} must be a list", location=where)
    nodes = {}
    for i, item in enumerate(data["nodes"]):
        at = f"{where}.nodes[{i}]"
        nid = serialize._str(serialize._need(item, "id", at), at + ".id")
        manifold = None
        if "manifold" in item:
            manifold = _reference_manifold(item["manifold"], at + ".manifold")
        diagram = item.get("diagram")
        if diagram is not None:
            components = diagram.get("components") if isinstance(diagram, dict) else None
            size = len(components) if isinstance(components, list) else 0
            if presentation_bound(slope, size) < size:
                raise ParseError(
                    f"{size} components, more than any presentation of slope {slope} has",
                    location=at + ".diagram",
                )
            diagram = diagram_from_dict(diagram, at + ".diagram")
        if nid in nodes:
            raise ParseError(f"duplicate node id {nid!r}", location=at)
        nodes[nid] = ContactNode(nid, manifold, diagram)
    edges = {}
    for i, item in enumerate(data["edges"]):
        at = f"{where}.edges[{i}]"
        eid = serialize._str(serialize._need(item, "id", at), at + ".id")
        if eid in edges:
            raise ParseError(f"duplicate edge id {eid!r}", location=at)
        edges[eid] = SurgeryEdge(
            eid,
            serialize._str(serialize._need(item, "src", at), at + ".src"),
            serialize._str(serialize._need(item, "dst", at), at + ".dst"),
            serialize._str(serialize._need(item, "witness", at), at + ".witness"),
        )
    raw_facts = serialize._need(data, "rank_facts", where)
    if not isinstance(raw_facts, dict):
        raise ParseError("rank_facts must be an object", location=where + ".rank_facts")
    rank_facts = {}
    for key, value in raw_facts.items():
        at = f"{where}.rank_facts[{key!r}]"
        _reference_manifold(key, at)
        rank_facts[key] = serialize._int(value, at)
    steps = []
    for i, item in enumerate(data["steps"]):
        at = f"{where}.steps[{i}]"
        rule = serialize._str(serialize._need(item, "rule", at), at + ".rule")
        refs = serialize._need(item, "refs", at)
        gives = serialize._need(item, "gives", at)
        if not isinstance(refs, list) or not all(isinstance(x, str) for x in refs):
            raise ParseError("refs must be a list of strings", location=at + ".refs")
        if rule not in RULES:
            raise ParseError(f"rule {rule!r} is not in the rule set", location=at + ".rule")
        kinds = RULES[rule][1]
        if len(refs) != len(kinds):
            raise ParseError(
                f"rule {rule} takes references ({', '.join(kinds)}), step cites {len(refs)}",
                location=at + ".refs",
            )
        if (
            not isinstance(gives, list)
            or len(gives) != 2
            or not all(isinstance(x, str) for x in gives)
        ):
            raise ParseError("gives must be [kind, node]", location=at + ".gives")
        steps.append(Step(rule, tuple(zip(kinds, refs)), (gives[0], gives[1])))
    return (slope, (conclusion[0], conclusion[1]), stage, nodes, edges, rank_facts,
            tuple(steps))


# Replacement values: wrong types, malformed pairs, and ids and names the
# certificate already uses, which make duplicates.
_JUNK = [None, 7, True, "x", "", [], {}, ["a"], ["a", "b"], ["a", 1], [["a", "b"]],
         [["a"]], {"id": "x"}, "std", "y0", "ev1", "e_eta", "s3", "-tower(1)",
         "same_diagram", "h1_consistency"]


def _paths(value, path=()):
    """Every path into a JSON value, rank-fact keys left out."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            if path != ("rank_facts",):
                yield from _paths(item, path + (key,))
            else:
                yield path + (key,)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, path + (i,))


def _outcome(read, data):
    try:
        return "read", read(data)
    except ParseError as exc:
        return "refused", (exc.reason, exc.location)


def _same_outcome(data):
    want = _outcome(reference_certificate_from_dict, data)
    got = _outcome(certificate_from_dict, data)
    if got[0] == "read":
        c = got[1]
        facts = {m.text(): v for m, v in c.rank_facts.items()}
        got = ("read", (c.slope, c.conclusion, c.engine_stage, c.nodes, c.edges,
                        facts, c.steps))
    assert got == want, data
    return want[0] == "refused"


def _field_pairs(good):
    """Copies of a certificate with two fields of one node, edge or step
    broken together, each removed or given a wrong value, and with an id
    repeated next to a broken field: which error comes first shows the
    order of the checks."""
    for section in ("nodes", "edges", "steps"):
        entry = good[section][1]
        for first, second in combinations(list(entry), 2):
            for a, b in ((None, None), (7, "del"), ("del", ["a"]), ([["a"]], 7)):
                data = copy.deepcopy(good)
                for key, value in ((first, a), (second, b)):
                    if value == "del":
                        del data[section][1][key]
                    else:
                        data[section][1][key] = value
                yield data
        if "id" in entry:
            for key in entry:
                if key != "id":
                    data = copy.deepcopy(good)
                    data[section][1]["id"] = good[section][0]["id"]
                    data[section][1][key] = 7
                    yield data


def test_reader_matches_the_reference_on_mutations():
    rng = random.Random(15)
    cases = 0
    for slope in ("5/2", "1/2", "-5/3", "13/8"):
        good = certificate_to_dict(certify_tight(SurgeryCoeff.parse(slope)))
        paths = [p for p in _paths(good) if p]
        for _ in range(150):
            data = copy.deepcopy(good)
            for _ in range(rng.choice((1, 1, 2))):
                *head, last = rng.choice(paths)
                holder = data
                try:
                    for key in head:
                        holder = holder[key]
                    if rng.random() < 0.3:
                        del holder[last]
                    else:
                        holder[last] = copy.deepcopy(rng.choice(_JUNK))
                except (KeyError, IndexError, TypeError):
                    pass
            cases += _same_outcome(data)
        if len(good["edges"]) > 1:
            for data in _field_pairs(good):
                assert _same_outcome(data)
    assert cases > 400


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
