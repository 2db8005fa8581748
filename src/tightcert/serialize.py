"""JSON forms for every persistent object.

Formats (all returned by the ``*_to_dict`` functions, accepted by the
matching ``*_from_dict``):

* coefficient: the string "p/q", "n" or "inf".
* diagram: {"components": [{"id", "type", "tb", "rot", "coeff"}],
  "linkings": [[a, b, lk]]}, where "type" is "unknot", "rhtrefoil" or
  "pushoff:<parent id>", "coeff" may be null, components are listed in
  creation order and only nonzero linkings appear, each pair once with
  a < b; a pair given twice, in either order, is rejected on reading.
* framed link: {"n", "matrix" (row-major flat list of n*n ints), "tags"}.
* rank table: {"facts": [{"manifold", "rank"} or {"manifold", "lo", "hi"}]}
  with "hi" null when unbounded.
* triangles: [{"a", "b", "c", "provenance", "informational"}].
* certificate: {"format": "tightness-certificate", "version": 3, "slope",
  "conclusion": [kind, node], "engine_stage", "nodes", "edges",
  "rank_facts", "triangles", "steps"}.  A node is {"id", "manifold",
  "diagram"}, or, when derived, {"id", "manifold", "diagram": null,
  "via": <edge id>}: the verifier builds its presentation by the (+1)-surgery
  that edge records; every edge derives exactly one node.  Versions 1 and
  2, which inlined every diagram or the reduction path, are refused.

``load_json`` attaches file/line/column positions to malformed input;
structural errors carry a JSON-path-style location instead.
"""

from __future__ import annotations

import json

from .errors import ParseError
from .rationals import SurgeryCoeff
from .diagrams import (
    PUSHOFF,
    RH_TREFOIL,
    UNKNOT,
    ContactDiagram,
    LegendrianComponent,
)
from .topology import FramedLink, Manifold
from .floer import Interval, RankDb, TriangleInstance
from .certify import Certificate, ContactNode, Step, SurgeryEdge

CERTIFICATE_FORMAT = "tightness-certificate"
FORMAT_VERSION = 3


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(str(exc)) from None
    except json.JSONDecodeError as exc:
        raise ParseError(
            exc.msg, location=f"{path}: line {exc.lineno} column {exc.colno}"
        ) from None


def dump_json(obj, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=False)
        fh.write("\n")


def _need(mapping, key, where):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ParseError(f"missing field {key!r}", location=where)
    return mapping[key]


def _int(value, where):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"expected an integer, got {value!r}", location=where)
    return value


def _str(value, where):
    if not isinstance(value, str):
        raise ParseError(f"expected a string, got {value!r}", location=where)
    return value


# ---------------------------------------------------------------------------
# Coefficients
# ---------------------------------------------------------------------------


def coeff_to_str(c: SurgeryCoeff | None):
    return None if c is None else str(c)


def coeff_from_str(text, where="coeff"):
    if text is None:
        return None
    try:
        return SurgeryCoeff.parse(_str(text, where))
    except ParseError as exc:
        raise ParseError(str(exc), location=where) from None


# ---------------------------------------------------------------------------
# Diagrams
# ---------------------------------------------------------------------------


def diagram_to_dict(d: ContactDiagram) -> dict:
    components = []
    for c in d.components:
        ctype = f"pushoff:{c.parent}" if c.kind == PUSHOFF else c.kind
        components.append(
            {
                "id": c.cid,
                "type": ctype,
                "tb": c.tb,
                "rot": c.rot,
                "coeff": coeff_to_str(c.coeff),
            }
        )
    ids = d.ids()
    linkings = sorted(
        [ids[i], ids[j], value] if ids[i] < ids[j] else [ids[j], ids[i], value]
        for i, row in enumerate(d.linking_rows())
        for j, value in enumerate(row[i + 1:], i + 1)
        if value
    )
    return {"components": components, "linkings": linkings}


def diagram_from_dict(data: dict, where: str = "diagram") -> ContactDiagram:
    raw = _need(data, "components", where)
    if not isinstance(raw, list):
        raise ParseError("components must be a list", location=where)
    # First pass collects kinds so pushoff smooth types resolve in order.
    comps = []
    types: dict[str, str] = {}
    for i, item in enumerate(raw):
        at = f"{where}.components[{i}]"
        cid = _str(_need(item, "id", at), at + ".id")
        ctype = _str(_need(item, "type", at), at + ".type")
        tb = _int(_need(item, "tb", at), at + ".tb")
        rot = _int(_need(item, "rot", at), at + ".rot")
        coeff = coeff_from_str(item.get("coeff"), at + ".coeff")
        if ctype in (UNKNOT, RH_TREFOIL):
            kind, parent, smooth = ctype, None, ctype
        elif ctype.startswith("pushoff:"):
            kind, parent = PUSHOFF, ctype[len("pushoff:"):]
            smooth = types.get(parent)
            if smooth is None:
                raise ParseError(
                    f"pushoff parent {parent!r} must be declared earlier",
                    location=at + ".type",
                )
        else:
            raise ParseError(f"unknown component type {ctype!r}", location=at + ".type")
        types[cid] = smooth
        try:
            comps.append(
                LegendrianComponent(cid, kind, parent, smooth, tb, rot, coeff)
            )
        except ValueError as exc:
            raise ParseError(str(exc), location=at) from None
    links = {}
    raw_links = data.get("linkings", [])
    if not isinstance(raw_links, list):
        raise ParseError("linkings must be a list", location=where)
    for i, item in enumerate(raw_links):
        at = f"{where}.linkings[{i}]"
        if not isinstance(item, list) or len(item) != 3:
            raise ParseError("linking entries are [a, b, lk]", location=at)
        a, b, lk = _str(item[0], at), _str(item[1], at), _int(item[2], at)
        pair = (a, b) if a <= b else (b, a)
        if pair in links:
            raise ParseError(f"linking of {a!r} and {b!r} given twice", location=at)
        links[pair] = lk
    try:
        return ContactDiagram(comps, links)
    except ValueError as exc:
        raise ParseError(str(exc), location=where) from None


# ---------------------------------------------------------------------------
# Framed links
# ---------------------------------------------------------------------------


def framed_link_to_dict(link: FramedLink) -> dict:
    flat = [x for row in link.matrix for x in row]
    return {"n": link.size, "matrix": flat, "tags": list(link.tags)}


def framed_link_from_dict(data: dict, where: str = "link") -> FramedLink:
    n = _int(_need(data, "n", where), where + ".n")
    flat = _need(data, "matrix", where)
    if n < 0 or not isinstance(flat, list) or len(flat) != n * n:
        raise ParseError(f"matrix must hold n*n = {max(n, 0) * max(n, 0)} integers",
                         location=where + ".matrix")
    values = [_int(x, where + ".matrix") for x in flat]
    rows = tuple(tuple(values[i * n : (i + 1) * n]) for i in range(n))
    tags = data.get("tags") or [""] * n
    if not isinstance(tags, list) or len(tags) != n:
        raise ParseError("tags must list one entry per component",
                         location=where + ".tags")
    try:
        return FramedLink(rows, tuple(_str(t, where + ".tags") for t in tags))
    except ValueError as exc:
        raise ParseError(str(exc), location=where) from None


# ---------------------------------------------------------------------------
# Rank tables and triangles
# ---------------------------------------------------------------------------


def rank_table_to_dict(db: RankDb) -> dict:
    facts = []
    for manifold, interval in db.items():
        entry = {"manifold": manifold.text()}
        if interval.is_exact:
            entry["rank"] = interval.lo
        else:
            entry["lo"] = interval.lo
            entry["hi"] = interval.hi
        facts.append(entry)
    return {"facts": facts}


def rank_table_from_dict(data: dict, where: str = "ranks") -> RankDb:
    facts = _need(data, "facts", where)
    if not isinstance(facts, list):
        raise ParseError("facts must be a list", location=where)
    db = RankDb()
    for i, item in enumerate(facts):
        at = f"{where}.facts[{i}]"
        manifold = Manifold.parse(_str(_need(item, "manifold", at), at))
        try:
            if "rank" in item:
                interval = Interval.exact(_int(item["rank"], at))
            else:
                hi = item.get("hi")
                interval = Interval(
                    _int(_need(item, "lo", at), at),
                    None if hi is None else _int(hi, at),
                )
        except ValueError as exc:
            raise ParseError(str(exc), location=at) from None
        db.set_fact(manifold, interval)
    return db


def triangles_to_list(triangles) -> list:
    return [
        {
            "a": t.a.text(),
            "b": t.b.text(),
            "c": t.c.text(),
            "provenance": t.provenance,
            "informational": t.informational,
        }
        for t in triangles
    ]


def triangles_from_list(data, where: str = "triangles") -> tuple:
    if not isinstance(data, list):
        raise ParseError("triangles must be a list", location=where)
    out = []
    for i, item in enumerate(data):
        at = f"{where}[{i}]"
        out.append(
            TriangleInstance(
                Manifold.parse(_str(_need(item, "a", at), at)),
                Manifold.parse(_str(_need(item, "b", at), at)),
                Manifold.parse(_str(_need(item, "c", at), at)),
                provenance=_str(item.get("provenance", ""), at),
                informational=bool(item.get("informational", False)),
            )
        )
    return tuple(out)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def _node_to_dict(n: ContactNode) -> dict:
    out = {
        "id": n.nid,
        "manifold": n.manifold.text(),
        "diagram": None if n.diagram is None else diagram_to_dict(n.diagram),
    }
    if n.via is not None:
        out["via"] = n.via
    return out


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "format": CERTIFICATE_FORMAT,
        "version": FORMAT_VERSION,
        "slope": str(cert.slope),
        "conclusion": list(cert.conclusion),
        "engine_stage": cert.engine_stage,
        "nodes": [_node_to_dict(n) for n in cert.nodes.values()],
        "edges": [
            {"id": e.eid, "src": e.src, "dst": e.dst, "witness": e.witness}
            for e in cert.edges.values()
        ],
        "rank_facts": dict(cert.rank_facts),
        "triangles": triangles_to_list(cert.triangles),
        "steps": [
            {"rule": s.rule, "refs": [list(r) for r in s.refs], "gives": list(s.gives)}
            for s in cert.steps
        ],
    }


def certificate_from_dict(data: dict) -> Certificate:
    where = "certificate"
    if _need(data, "format", where) != CERTIFICATE_FORMAT:
        raise ParseError("not a tightness certificate", location=where + ".format")
    if _need(data, "version", where) != FORMAT_VERSION:
        raise ParseError(
            f"unsupported certificate version {data['version']!r}",
            location=where + ".version",
        )
    slope = coeff_from_str(
        _str(_need(data, "slope", where), where + ".slope"), where + ".slope"
    )
    conclusion = _need(data, "conclusion", where)
    if (
        not isinstance(conclusion, list)
        or len(conclusion) != 2
        or not all(isinstance(x, str) for x in conclusion)
    ):
        raise ParseError("conclusion must be [kind, node]", location=where + ".conclusion")
    stage = _int(_need(data, "engine_stage", where), where + ".engine_stage")

    for list_field in ("nodes", "edges", "steps"):
        if not isinstance(_need(data, list_field, where), list):
            raise ParseError(f"{list_field} must be a list", location=where)

    nodes = {}
    for i, item in enumerate(_need(data, "nodes", where)):
        at = f"{where}.nodes[{i}]"
        nid = _str(_need(item, "id", at), at + ".id")
        manifold = Manifold.parse(_str(_need(item, "manifold", at), at + ".manifold"))
        diagram = item.get("diagram")
        if diagram is not None:
            diagram = diagram_from_dict(diagram, at + ".diagram")
        via = item.get("via")
        if via is not None:
            _str(via, at + ".via")
        if nid in nodes:
            raise ParseError(f"duplicate node id {nid!r}", location=at)
        nodes[nid] = ContactNode(nid, manifold, diagram, via)

    edges = {}
    for i, item in enumerate(_need(data, "edges", where)):
        at = f"{where}.edges[{i}]"
        eid = _str(_need(item, "id", at), at + ".id")
        if eid in edges:
            raise ParseError(f"duplicate edge id {eid!r}", location=at)
        edges[eid] = SurgeryEdge(
            eid,
            _str(_need(item, "src", at), at + ".src"),
            _str(_need(item, "dst", at), at + ".dst"),
            _str(_need(item, "witness", at), at + ".witness"),
        )

    raw_facts = _need(data, "rank_facts", where)
    if not isinstance(raw_facts, dict):
        raise ParseError("rank_facts must be an object", location=where + ".rank_facts")
    rank_facts = {}
    for key, value in raw_facts.items():
        Manifold.parse(key)
        rank_facts[key] = _int(value, f"{where}.rank_facts[{key!r}]")

    triangles = triangles_from_list(
        _need(data, "triangles", where), where + ".triangles"
    )

    steps = []
    for i, item in enumerate(_need(data, "steps", where)):
        at = f"{where}.steps[{i}]"
        rule = _str(_need(item, "rule", at), at + ".rule")
        refs = _need(item, "refs", at)
        gives = _need(item, "gives", at)
        if not isinstance(refs, list) or not all(
            isinstance(r, list) and len(r) == 2 and all(isinstance(x, str) for x in r)
            for r in refs
        ):
            raise ParseError("refs must be [kind, value] pairs", location=at + ".refs")
        if (
            not isinstance(gives, list)
            or len(gives) != 2
            or not all(isinstance(x, str) for x in gives)
        ):
            raise ParseError("gives must be [kind, node]", location=at + ".gives")
        steps.append(Step(rule, tuple((r[0], r[1]) for r in refs), (gives[0], gives[1])))

    return Certificate(
        slope=slope,
        conclusion=(conclusion[0], conclusion[1]),
        engine_stage=stage,
        nodes=nodes,
        edges=edges,
        rank_facts=rank_facts,
        triangles=triangles,
        steps=tuple(steps),
    )
