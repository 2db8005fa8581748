"""JSON forms for every persistent object.

Formats (all returned by the ``*_to_dict`` functions, and accepted by the
matching ``*_from_dict`` except the rank table, which is only written):

* coefficient: the string "p/q", "n" or "inf".
* diagram: {"components": [{"id", "type", "tb", "rot", "coeff"}],
  "linkings": [[a, b, lk]], "deviations": [[knot, pushoff, d]]}, where
  "type" is "unknot", "rhtrefoil" or "pushoff:<parent id>", "coeff" may
  be null, and components are listed in the diagram's order, each
  pushoff after its parent; a pushoff listed before its parent is refused
  at its "type".  The linkings are the diagram's stored form (see
  ``tightcert.diagrams``).  "linkings" holds the nonzero linkings of each
  root knot with the components before it, and each pushoff's linking
  with its parent: every value there is a linking number.  Any other
  linking of a pushoff with a knot before it is the pushoff rule's value,
  its parent's linking with that knot, plus the pushoff's deviation
  there; the nonzero deviations are listed under "deviations", a key
  written only when it is nonempty.
  Entries are written in component order, the earlier id first, and
  read in either order.  A pair given twice, in either list, a linking
  the pushoff rule implies listed under "linkings" (as version-7 files
  list them), and a deviation of anything else are refused where they
  stand; a zero value is read and dropped.
* diagram file (``convert --out`` writes it, ``--diagram`` reads it):
  {"format": "contact-diagram", "version": 9} and a diagram's keys; any
  other header is refused.  The diagram form has not changed since
  version 9, when files got this header.  A certificate's version covers
  its inline diagrams, which have no header.
* framed link: {"n", "matrix" (row-major flat list of n*n ints), "tags"}.
* rank table: {"facts": [{"manifold", "rank"} or {"manifold", "lo", "hi"}]}
  with "hi" null when unbounded.
* certificate: {"format": "tightness-certificate", "version": 10,
  "slope", "conclusion": [kind, node], "engine_stage", "nodes", "edges",
  "rank_facts", "steps"}.  "nodes" lists only the nodes that carry a
  presentation inline and the root, each as {"id", "manifold",
  "diagram"}; the reader takes an absent "manifold" as naming none.  A
  node that an edge builds has no entry: taking the edges in order, each
  builds its target, an id that no listed node and no earlier edge
  holds, by the (+1)-surgery it records on the presentation of its
  source, and the verifier gives a ladder target its manifold from its
  source's manifold and the witness.  Only the root (the conclusion's
  node) may have "diagram" null, at engine stage >= 1: the verifier
  builds its own presentation of the slope, which must have one component
  more than the certificate has edges.  A step is {"rule", "refs",
  "gives": [kind, node]}, where "refs" lists only the values of its
  references, in the order ``RULES[rule]`` takes them, and the kinds come
  from that table; an unknown rule, or a count of values other than the
  rule takes, is refused at the step.  A "triangle" value is the index i
  into the verifier's own ``engine_triangles(engine_stage)``.  The steps
  open with an "h1_consistency" audit of each listed node, root
  included.
  An inline diagram with more components than any presentation the
  verifier holds for the slope is refused before it is built
  (``verify.presentation_bound``).
  "rank_facts" maps manifold names to ranks; each key must be the
  canonical name (``Manifold.text``) of the manifold it parses to, and no
  two keys may name one manifold.  The reader keys
  ``Certificate.rank_facts`` by the manifold.  It resolves a key that
  names a manifold of the engine family through the family's name table
  (``engine_triangles(engine_stage).names``), built with the memoized
  family, when the slope allows the engine stage and the certificate
  lists at least that many facts; it parses any other key once.
  Versions 1 to 9, which inlined every diagram, the reduction path or
  the root, named each node's edge, listed the triangle instances,
  audited every node, listed every nonzero linking and each reference's
  kind, named every derived node's manifold, or listed every derived
  node and a ladder stage above the top, are refused.

Reading a certificate or a diagram costs O(input): each inline diagram's
stored rows are built straight from its entries, with no linking derived
from a parent's.  A certificate node that names ``s3`` or ``tower(1)``
and whose diagram JSON equals the form of the verifier's own presentation
of it (``verify._OWN_FORMS``) type for type, with the same keys, the
same list lengths and the same type at every leaf, is given that
presentation object, built once when the kernel is imported, and its JSON
is not read again; ``True`` or ``1.0`` in place of ``1``, an extra key or
an empty "deviations" list takes the full read, with its errors at their
locations.

Importing this module loads neither the verifier kernel
(``tightcert.verify``) nor the rank engine (``tightcert.floer``): the
diagram, link and rank-table forms need neither, and
``certificate_from_dict`` imports the kernel module once a read and reads
its names as attributes.  The kernel imports this module's diagram
writer for those import-time forms.

A well-formed component, edge or step is read directly.  Any other goes
to a locator (``_refuse_component``, ``_refuse_edge``, ``_refuse_step``)
that checks its fields in order and only raises the first error.  Every
node, of which an emitted certificate lists at most three, is read by
``_node_entry``.

``load_json`` attaches file/line/column positions to malformed input;
structural errors carry a JSON-path-style location instead, formatted
only once an error is found.  ``dump_json`` refuses a path it cannot
write with a ``ParseError`` that names it.
"""

from __future__ import annotations

import json
from functools import partial
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:
    from .floer import RankDb
    from .verify import Certificate, ContactNode

CERTIFICATE_FORMAT = "tightness-certificate"
DIAGRAM_FORMAT = "contact-diagram"
FORMAT_VERSION = 10
DIAGRAM_VERSION = 9


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
    except (ValueError, RecursionError) as exc:
        # Bytes that are not UTF-8, an integer too long to convert, or
        # nesting deeper than the decoder's recursion allows.
        raise ParseError(str(exc), location=path) from None


def dump_json(obj, path: str):
    """Write ``obj`` to ``path`` as indented JSON; a path that cannot be
    written is refused as ``load_json`` refuses one that cannot be read."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=False)
            fh.write("\n")
    except OSError as exc:
        raise ParseError(str(exc)) from None


def _need(mapping, key, where):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ParseError(f"missing field {key!r}", location=where)
    return mapping[key]


def _check_header(data, fmt, version, where):
    """Refuse ``data`` unless it is of format ``fmt`` and ``version``."""
    if _need(data, "format", where) != fmt:
        raise ParseError(f"not a {fmt.replace('-', ' ')}", location=where + ".format")
    if _need(data, "version", where) != version:
        raise ParseError(
            f"unsupported {where} version {data['version']!r}", location=where + ".version"
        )


def _int(value, where):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"expected an integer, got {value!r}", location=where)
    return value


def _str(value, where):
    if not isinstance(value, str):
        raise ParseError(f"expected a string, got {value!r}", location=where)
    return value


def _rank_fact(key, value, given):
    """The manifold and rank of a rank fact.  Its key must be the canonical
    name of a manifold that has no fact in ``given`` yet."""
    m = Manifold.parse(_str(key, None))
    if m in given:
        raise ParseError(f"a second rank fact for {m.text()}")
    if m.text() != key:
        raise ParseError(f"key is not the canonical name {m.text()!r}")
    return m, _int(value, None)


def _str_pair(value):
    """A JSON list of two strings as a tuple, else None."""
    if isinstance(value, list) and len(value) == 2:
        a, b = value
        if isinstance(a, str) and isinstance(b, str):
            return a, b
    return None


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
    linkings, deviations = [], []
    for a, b, value, deviation in d.stored_entries():
        (deviations if deviation else linkings).append([a, b, value])
    out = {"components": components, "linkings": linkings}
    if deviations:
        out["deviations"] = deviations
    return out


def diagram_from_dict(data: dict, where: str = "diagram") -> ContactDiagram:
    """The diagram a ``diagram_to_dict`` form describes, in O(input): the
    stored rows are read off the entries.  A pushoff takes its parent's
    smooth type; one whose parent is not listed before it is refused at
    its type.
    """
    raw = _need(data, "components", where)
    if not isinstance(raw, list):
        raise ParseError("components must be a list", location=where)
    # Well-formed entries are read directly, each coefficient text parsed
    # once; any other entry goes through ``_refuse_component``.
    comps, smooth, coeffs = [], {}, {None: None}
    for i, item in enumerate(raw):
        try:
            cid, ctype, tb, rot = item["id"], item["type"], item["tb"], item["rot"]
            text = item.get("coeff")
        except (TypeError, KeyError, AttributeError):
            cid = None
        if not (type(cid) is str and type(ctype) is str and type(tb) is int
                and type(rot) is int and (text is None or type(text) is str)):
            _refuse_component(item, f"{where}.components[{i}]")
        if text not in coeffs:
            coeffs[text] = coeff_from_str(text, f"{where}.components[{i}].coeff")
        coeff = coeffs[text]
        if ctype in (UNKNOT, RH_TREFOIL):
            parent, kind = None, ctype
        elif ctype.startswith("pushoff:"):
            parent, kind = ctype[len("pushoff:"):], PUSHOFF
            if parent not in smooth:
                raise ParseError(
                    f"pushoff parent {parent!r} is not listed before it",
                    location=f"{where}.components[{i}].type",
                )
        else:
            raise ParseError(
                f"unknown component type {ctype!r}",
                location=f"{where}.components[{i}].type",
            )
        smooth[cid] = kind if parent is None else smooth[parent]
        comps.append(_component((cid, kind, parent, smooth[cid], tb, rot, coeff), where, i))
    lists = tuple((key, data.get(key, [])) for key in ("linkings", "deviations"))
    for key, items in lists:
        if not isinstance(items, list):
            raise ParseError(f"{key} must be a list", location=where)
    spot = []  # the list and index of the entry being read

    def entries():
        for key, items in lists:
            deviation = key == "deviations"
            for i, item in enumerate(items):
                spot[:] = key, i
                if type(item) is list and len(item) == 3:
                    a, b, value = item
                    if type(a) is not str or type(b) is not str or type(value) is not int:
                        at = f"{where}.{key}[{i}]"
                        a, b, value = _str(a, at), _str(b, at), _int(value, at)
                else:
                    raise ParseError(_ENTRY_SHAPE[key], location=f"{where}.{key}[{i}]")
                yield a, b, value, deviation

    try:
        return ContactDiagram.from_stored(comps, entries())
    except ParseError:
        raise
    except ValueError as exc:
        at = f"{where}.{spot[0]}[{spot[1]}]" if spot else where
        raise ParseError(str(exc), location=at) from None


def diagram_file_to_dict(d: ContactDiagram) -> dict:
    """A diagram file: the format and version, then ``diagram_to_dict(d)``."""
    return {"format": DIAGRAM_FORMAT, "version": DIAGRAM_VERSION, **diagram_to_dict(d)}


def diagram_file_from_dict(data) -> ContactDiagram:
    """The diagram of a ``diagram_file_to_dict`` form; a missing or other
    header is refused, so no other version is read as a different diagram."""
    _check_header(data, DIAGRAM_FORMAT, DIAGRAM_VERSION, "diagram")
    return diagram_from_dict(data)


_ENTRY_SHAPE = {
    "linkings": "linking entries are [a, b, lk]",
    "deviations": "deviation entries are [knot, pushoff, d]",
}


def _refuse_component(item, at):
    """Raise the located error of the component entry ``item`` at ``at``,
    which the direct read does not take: its id, type, tb, rot and
    coefficient checked in that order."""
    _str(_need(item, "id", at), at + ".id")
    _str(_need(item, "type", at), at + ".type")
    _int(_need(item, "tb", at), at + ".tb")
    _int(_need(item, "rot", at), at + ".rot")
    coeff_from_str(item.get("coeff"), at + ".coeff")


def _component(fields, where, i):
    try:
        return LegendrianComponent(*fields)
    except ValueError as exc:
        raise ParseError(str(exc), location=f"{where}.components[{i}]") from None


# ---------------------------------------------------------------------------
# Framed links
# ---------------------------------------------------------------------------


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
# Rank tables
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


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


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
        "rank_facts": {m.text(): rank for m, rank in cert.rank_facts.items()},
        "steps": [
            {"rule": s.rule, "refs": [value for _, value in s.refs], "gives": list(s.gives)}
            for s in cert.steps
        ],
    }


def _node_to_dict(n: ContactNode) -> dict:
    out = {"id": n.nid}
    if n.manifold is not None:
        out["manifold"] = n.manifold.text()
    out["diagram"] = None if n.diagram is None else diagram_to_dict(n.diagram)
    return out


def certificate_from_dict(data: dict) -> Certificate:
    # The kernel, imported once a read, so that importing this module
    # loads neither the kernel nor the rank engine.
    from . import verify

    where = "certificate"
    _check_header(data, CERTIFICATE_FORMAT, FORMAT_VERSION, where)
    slope = coeff_from_str(
        _str(_need(data, "slope", where), where + ".slope"), where + ".slope"
    )
    conclusion = _str_pair(_need(data, "conclusion", where))
    if conclusion is None:
        raise ParseError("conclusion must be [kind, node]", location=where + ".conclusion")
    stage = _int(_need(data, "engine_stage", where), where + ".engine_stage")
    # The slope fixes its companion coefficient and the stage it allows.
    companion = verify.slope_companion(slope)
    bound = partial(verify.presentation_bound, companion)

    for list_field in ("nodes", "edges", "steps"):
        if not isinstance(_need(data, list_field, where), list):
            raise ParseError(f"{list_field} must be a list", location=where)

    nodes = {}
    at = where + ".nodes"
    for i, item in enumerate(data["nodes"]):
        node = verify.ContactNode(*_node_entry(item, f"{at}[{i}]", slope, bound,
                                               verify._OWN_FORMS, nodes))
        nodes[node.nid] = node

    # Well-formed edges and steps are read directly; any other goes
    # through ``_refuse_edge`` or ``_refuse_step``.
    edges = {}
    at = where + ".edges"
    for i, item in enumerate(data["edges"]):
        try:
            eid, src, dst, witness = item["id"], item["src"], item["dst"], item["witness"]
        except (TypeError, KeyError):
            eid = None
        if not (type(eid) is str and type(src) is str and type(dst) is str
                and type(witness) is str and eid not in edges):
            _refuse_edge(item, f"{at}[{i}]", edges)
        edges[eid] = verify.SurgeryEdge(eid, src, dst, witness)

    raw_facts = _need(data, "rank_facts", where)
    if not isinstance(raw_facts, dict):
        raise ParseError("rank_facts must be an object", location=where + ".rank_facts")
    # A ladder certificate's keys name manifolds of the engine family,
    # whose name table resolves them.  The family is built only for a
    # stage the slope allows and that is no larger than the number of
    # facts, so its size is bounded by the input.  Any other key and a
    # value that is not an int go through ``_rank_fact``, which raises the
    # located error.  A table key is the canonical name of its manifold,
    # so a second key for a manifold is never one.
    names = {}
    if 1 <= stage <= min(companion[1], len(raw_facts)):
        names = verify.engine_triangles(stage).names
    rank_facts = {}
    for key, value in raw_facts.items():
        m = names.get(key)
        if m is None or type(value) is not int:
            try:
                m, value = _rank_fact(key, value, rank_facts)
            except ParseError as exc:
                raise ParseError(exc.reason, location=f"{where}.rank_facts[{key!r}]") from None
        rank_facts[m] = value

    steps = []
    at = where + ".steps"
    for i, item in enumerate(data["steps"]):
        try:
            rule, values, gives = item["rule"], item["refs"], _str_pair(item["gives"])
        except (TypeError, KeyError):
            rule = None
        kinds = verify._KINDS.get(rule) if isinstance(rule, str) else None
        if not (kinds is not None and gives is not None and type(values) is list
                and len(values) == len(kinds) and all(type(v) is str for v in values)):
            _refuse_step(item, f"{at}[{i}]", verify._KINDS)
        steps.append(verify.Step(rule, tuple(zip(kinds, values)), gives))

    return verify.Certificate(
        slope=slope,
        conclusion=conclusion,
        engine_stage=stage,
        nodes=nodes,
        edges=edges,
        rank_facts=rank_facts,
        steps=tuple(steps),
    )


def _same_json(a, b) -> bool:
    """Whether the JSON values a and b are equal with the same type at
    every leaf, so that ``True`` or ``1.0`` never stands for ``1``."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return a.keys() == b.keys() and all(_same_json(a[k], b[k]) for k in a)
    if type(a) is list:
        return len(a) == len(b) and all(map(_same_json, a, b))
    return a == b


def _node_entry(item, at, slope, bound, own_forms, nodes):
    """The id, manifold and diagram of the node ``item``, the entry at
    ``at``, its fields checked in order.  An inline diagram of more
    components than ``bound(size)``, the most any presentation of
    ``slope`` has, is refused before it is built, and an id already in
    ``nodes`` after the node is read.  A diagram whose JSON is, type for
    type, the form of the verifier's own presentation of the node's
    manifold (``own_forms``, the kernel's ``_OWN_FORMS``) is that
    presentation object, not built again."""
    nid = _str(_need(item, "id", at), at + ".id")
    manifold = None
    if "manifold" in item:
        try:
            manifold = Manifold.parse(_str(item["manifold"], at + ".manifold"))
        except ParseError as exc:
            raise ParseError(exc.reason, location=at + ".manifold") from None
    diagram = item.get("diagram")
    if diagram is not None:
        components = diagram.get("components") if isinstance(diagram, dict) else None
        size = len(components) if isinstance(components, list) else 0
        if bound(size) < size:
            raise ParseError(
                f"{size} components, more than any presentation of slope "
                f"{slope} has",
                location=at + ".diagram",
            )
        own = own_forms.get(manifold)
        if own is not None and _same_json(diagram, own[0]):
            diagram = own[1]
        else:
            diagram = diagram_from_dict(diagram, at + ".diagram")
    if nid in nodes:
        raise ParseError(f"duplicate node id {nid!r}", location=at)
    return nid, manifold, diagram


def _refuse_edge(item, at, edges):
    """Raise the located error of the edge ``item``, the entry at ``at``,
    which the direct read does not take: its fields checked in order, and
    an id already in ``edges`` refused once it is read."""
    eid = _str(_need(item, "id", at), at + ".id")
    if eid in edges:
        raise ParseError(f"duplicate edge id {eid!r}", location=at)
    for key in ("src", "dst", "witness"):
        _str(_need(item, key, at), f"{at}.{key}")


def _refuse_step(item, at, kinds_of):
    """Raise the located error of the step ``item``, the entry at ``at``,
    which the direct read does not take: its fields checked in order, the
    rule (a key of ``kinds_of``, the kernel's ``_KINDS``), the reference
    values and their count, the derived fact."""
    rule = _str(_need(item, "rule", at), at + ".rule")
    values = _need(item, "refs", at)
    gives = _str_pair(_need(item, "gives", at))
    if type(values) is not list or not all(type(v) is str for v in values):
        raise ParseError("refs must be a list of strings", location=at + ".refs")
    kinds = kinds_of.get(rule)
    if kinds is None:
        raise ParseError(f"rule {rule!r} is not in the rule set", location=at + ".rule")
    if len(values) != len(kinds):
        raise ParseError(
            f"rule {rule} takes references ({', '.join(kinds)}), "
            f"step cites {len(values)}",
            location=at + ".refs",
        )
    if gives is None:
        raise ParseError("gives must be [kind, node]", location=at + ".gives")
