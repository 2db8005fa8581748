"""The verifier kernel: the certificate data model, the rule set, and the
independent check of a tightness certificate.

A certificate is an ordered list of rule applications over a small graph of
contact surgery presentations (nodes) and single (+1)-surgery moves between
them (edges).  Every datum a rule consumes is recorded in the certificate,
and ``check_certificate`` re-derives each one — homology orders by Smith
normal form, rank facts by re-running the propagation engine, injectivity
by re-solving the cited triangle, surgery edges by building the node each
one derives — so a verifier needs no trust in the emitter, and this module
uses none of it; the emitter builds on this module.  A step cites a
triangle by its index in the verifier's own family
``engine_triangles(engine_stage)``, which the certificate does not carry;
the verifier looks that family up once a verify, after the stage range
check, and both the rank-fact check and the triangle references read it.

A node either carries its presentation inline or is *derived*: the one
edge into it builds its presentation by (+1)-surgery on the presentation of
the edge's source.  The verifier builds every derived node with
``node_presentations``, which walks the edges in order; that construction
is the check of each edge, so every edge builds exactly one node.  It
counts each node's readers first, the later edges and the steps that cite
it, so an edge whose source nothing else reads performs its move in place:
a ladder edge costs O(1) amortized and a cancel edge O(children) on an
emitted reduction path, and only the presentations a step cites are kept,
as snapshots that the step checkers read directly.  Only the
empty presentation and stage 1 are inline, and the root at stage 0; the
tower ladder and the reduction path are derived.  At stage >= 1 the root
carries no diagram either: the verifier builds its own presentation of the
slope (``_root``), once it has counted that this presentation has as many
components as the certificate has edges (one for eta, one per ladder stage
and one per chain knot), so the work stays bounded by what the certificate
holds.

Every manifold is bound to a presentation before any step runs.  An
inline node names its manifold and must carry the verifier's own
presentation of it.  A node that an edge builds names none: the walk
gives a ladder node its manifold by the table ``_DERIVED``, keyed on the
source's manifold and the edge's witness, and a "cancel:" edge gives its
target none, since the reduction path only cancels (-1)-knots against
their pushoffs and no rule reads a name for its nodes.  A built node that
names a manifold is refused, so each manifold is stated once.  An
``h1_consistency`` audit, which no other rule consumes, records a group;
the verifier checks it against the Smith normal form of the presentation
and, when the node names a manifold, against the order that manifold
fixes.

The steps read each node's manifold from one map, the inline nodes'
declared manifolds plus the ones the walk derives (``_Replay``), so the
certificate is never copied.  The verifier's presentations of the empty
diagram and of stage 1 (``_OWN``), their groups, cancelled forms and JSON
forms (``_OWN_FORMS``, through ``serialize``'s diagram writer), and the
seed rank table are built once, at import.  The reader hands an inline
node whose diagram is, type for type, the form of one of these
presentations that very object, and the ``h1_consistency`` and
``cancel_equivalent`` checkers read the import-time group and cancelled
form of a presentation that is one of them, by identity, so a verify
parses, reduces and cancels neither ``std`` nor ``v1``; any other
presentation is reduced as it stands.  The walk copies an inline
presentation into a draft before any move, so these shared objects are
never edited.  A checker is a pure function of the certificate and of
what the verify built, so a step whose rule and references repeat an
accepted step takes that step's premises and fact from a table with one
lookup; it is still held to the facts derived so far and to its own
``gives``.  A ``same_diagram`` or ``cancel_equivalent`` step whose two
references name one node compares nothing.

The rule set is the table ``RULES``: for each rule, its statement, the
kinds of the references a step citing it carries, and the checker that
re-derives the fact it gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice

from .errors import CalculusError, ExcludedSlopeError
from .rationals import (
    SurgeryCoeff,
    neg_cf_terms,
    pushoff_coeff_from_slope,
    residual_coeff,
    split_count,
)
from .diagrams import (
    ContactDiagram,
    _Draft,
    cancel_pushoff_pairs,
    diagram_iso,
    empty_diagram,
    normalize_diagram,
    plus_one_surgery,
    tower_diagram,
    trefoil_surgery_diagram,
)
from .topology import MIRROR_KIND, HomologyResult, Manifold, h1
from .floer import (
    base_facts,
    engine_triangles,
    propagate,
    triangle_solve,
)
from .serialize import diagram_to_dict

_MINUS_ONE = SurgeryCoeff(-1)

# The verifier's own presentations of the inline manifolds other than the
# root's, and the seed rank table, built once: a presentation is immutable,
# and ``propagate`` only reads its database.  The reader hands a matching
# inline node these very objects, so each one's group and cancelled form
# are kept too, keyed by identity.
_OWN = {Manifold.s3(): empty_diagram(), Manifold.tower(1): tower_diagram(1)}
_OWN_REDUCED = {id(d): (h1(d), cancel_pushoff_pairs(d)) for d in _OWN.values()}
# Each of those manifolds -> its presentation's JSON form and the
# presentation: the reader's table for matching an inline node.
_OWN_FORMS = {m: (diagram_to_dict(d), d) for m, d in _OWN.items()}
_SEED_FACTS = base_facts()


# ---------------------------------------------------------------------------
# The rule set
# ---------------------------------------------------------------------------


class _Replay:
    """What the steps of one verify read: the certificate, the engine family
    its triangle indexes cite (resolved once, after the stage range check),
    each node's manifold (the inline nodes' declared ones plus the ones the
    walk derives, so the certificate is never cloned), the presentations
    the walk kept for the cited nodes, where ``_cancelled`` also keeps
    their cancelled forms, and the (premises, fact) of each accepted step
    by rule and references, so that a repeated step is checked once."""

    __slots__ = ("cert", "family", "manifolds", "built", "accepted")

    def __init__(self, cert, family, built, derived):
        self.cert, self.family, self.built, self.accepted = cert, family, built, {}
        self.manifolds = {nid: n.manifold for nid, n in cert.nodes.items()}
        self.manifolds.update(derived)


def _entry(table, kind, key):
    if key not in table:
        raise CalculusError(f"{kind} {key!r} not present")
    return table[key]


def _triangle(replay, text):
    family = replay.family
    try:
        index = int(text)
    except ValueError:
        index = -1
    if str(index) != text or not 0 <= index < len(family):
        raise CalculusError(f"cited triangle {text!r} not present")
    return family[index]


# Reference kind -> resolver from the verify's ``_Replay`` and the recorded
# value.
_RESOLVE = {
    "node": lambda replay, nid: _entry(replay.cert.nodes, "node", nid),
    "edge": lambda replay, eid: _entry(replay.cert.edges, "edge", eid),
    "triangle": _triangle,
    "group": lambda replay, text: text,
}


def _overtwisted_zero(replay, node):
    raise CalculusError(
        "rule derives a vanishing class; no tightness certificate may use it"
    )


def _reverses(vertex: Manifold, m: Manifold) -> bool:
    """Whether ``vertex`` is ``m`` with reversed orientation, by kind and
    stage.  An edge's endpoints that both name a manifold have one the walk
    gives by ``_DERIVED`` and the one its source names, so ``m`` is s3,
    s1xs2 or a tower stage, each a kind in ``MIRROR_KIND``."""
    return vertex.kind == MIRROR_KIND[m.kind] and vertex.p == m.p


def _plus_one_pushforward(replay, edge, tri):
    if tri.informational:
        raise CalculusError("informational triangle instances cannot justify injectivity")
    # Every edge was checked before the steps, so both endpoints exist.
    src, dst = replay.manifolds[edge.src], replay.manifolds[edge.dst]
    if src is None or dst is None:
        raise CalculusError(f"edge {edge.eid} joins a node that names no manifold")
    if not _reverses(tri.a, src) or not _reverses(tri.b, dst):
        raise CalculusError("triangle vertices do not match the edge endpoints")
    facts = replay.cert.rank_facts
    a, b, c = ranks = facts.get(tri.a), facts.get(tri.b), facts.get(tri.c)
    for m, value in zip((tri.a, tri.b, tri.c), ranks):
        if value is None:
            raise CalculusError(f"rank fact for {m.text()} not in the certificate")
    # Ints a, c >= 0 with b = a + c have an even total and map ranks a, c
    # and 0, so the triangle exists and the map is injective; any other
    # ranks go to ``triangle_solve``, which gives the refusal.
    if not (type(a) is int and type(b) is int and type(c) is int
            and a >= 0 and c >= 0 and b == a + c):
        if not triangle_solve(*ranks).f_injective:
            raise CalculusError(f"triangle ranks {ranks} do not make the map injective")
    return (("c_nonzero", edge.src),), ("c_nonzero", edge.dst)


def _all_minus_one_stein(replay, node):
    for c in replay.built[node.nid].components:
        if c.coeff != _MINUS_ONE:
            raise CalculusError(f"component {c.cid} carries {c.coeff}, not -1")
    return (), ("stein", node.nid)


def _transfer(replay, target, source, cancel=False):
    # A node matches itself, so a self-pair compares nothing; isomorphic
    # presentations cancel to isomorphic forms, so only a pair that
    # differs is cancelled.
    if target.nid != source.nid:
        built = replay.built
        a, b = built[target.nid], built[source.nid]
        if cancel and not diagram_iso(a, b):
            a, b = _cancelled(built, target), _cancelled(built, source)
        if not diagram_iso(a, b):
            raise CalculusError("presentations do not match")
    return (("c_nonzero", source.nid),), ("c_nonzero", target.nid)


def _cancelled(built, node):
    """The cancelled form of node's presentation, kept in ``built`` under
    ("cancelled", node id): each node is cancelled at most once a verify,
    and one of ``_OWN``'s presentations not at all, since its cancelled
    form was computed at import."""
    key = ("cancelled", node.nid)
    if key not in built:
        diagram = built[node.nid]
        own = _OWN_REDUCED.get(id(diagram))
        built[key] = own[1] if own else cancel_pushoff_pairs(diagram)
    return built[key]


def _h1_consistency(replay, node, recorded):
    """The group of node's presentation, by Smith normal form or, for one
    of ``_OWN``'s presentations, as computed at import, must be the
    recorded one and have the order the node's manifold fixes."""
    diagram = replay.built[node.nid]
    own = _OWN_REDUCED.get(id(diagram))
    group = own[0] if own else h1(diagram)
    if _group_text(group) != recorded:
        raise CalculusError(
            f"presentation has h1 {_group_text(group)}, certificate says {recorded}"
        )
    m = replay.manifolds[node.nid]
    if m is not None and group.cyclic_order() != m.expected_h1_order():
        raise CalculusError(
            f"declared manifold {m.text()} has cyclic h1 of "
            f"order {m.expected_h1_order()}, presentation gives {_group_text(group)}"
        )
    return (), ("h1", node.nid)


# Rule id -> (statement, reference kinds, checker).  A step citing the rule
# carries references of exactly those kinds, in order.  The checker receives
# the verify's ``_Replay`` and the resolved references; it returns the facts
# the step needs and the fact it derives, and raises CalculusError when the
# cited data do not support the rule.  It is a pure function of these, so
# ``_check_step`` runs it once per distinct rule and references.
RULES = {
    "stein_nonzero": (
        "a Stein fillable structure has nonvanishing contact class",
        ("node",),
        lambda replay, node: ((("stein", node.nid),), ("c_nonzero", node.nid)),
    ),
    "overtwisted_zero": (
        "an overtwisted structure has vanishing contact class",
        ("node",),
        _overtwisted_zero,
    ),
    "nonzero_tight": (
        "a structure whose contact class does not vanish is tight",
        ("node",),
        lambda replay, node: ((("c_nonzero", node.nid),), ("tight", node.nid)),
    ),
    "plus_one_pullback": (
        "a contact (+1)-surgery maps the source class to the result class, "
        "so a nonzero result class forces a nonzero source class",
        ("edge",),
        lambda replay, edge: ((("c_nonzero", edge.dst),), ("c_nonzero", edge.src)),
    ),
    "plus_one_pushforward": (
        "when the (+1)-surgery map is injective by the cited exact-triangle "
        "ranks, a nonzero source class maps to a nonzero result class",
        ("edge", "triangle"),
        _plus_one_pushforward,
    ),
    "all_minus_one_stein": (
        "a surgery presentation all of whose contact coefficients are -1 "
        "presents a Stein fillable structure",
        ("node",),
        _all_minus_one_stein,
    ),
    "cancel_equivalent": (
        "presentations whose fully cancelled forms agree component by "
        "component, in order, present the same contact structure, so the "
        "class transfers",
        ("node", "node"),
        partial(_transfer, cancel=True),
    ),
    "same_diagram": (
        "presentations that agree component by component, in order, carry "
        "the same contact class",
        ("node", "node"),
        _transfer,
    ),
    "h1_consistency": (
        "the first homology computed from the presentation matches the "
        "declared manifold",
        ("node", "group"),
        _h1_consistency,
    ),
}


# Rule id -> the kinds of the references a step citing it carries, in
# order: the reader's table, since a step lists only their values.
_KINDS = {rule: kinds for rule, (_, kinds, _) in RULES.items()}


def rules() -> dict[str, str]:
    """The fixed rule set: id -> statement."""
    return {rid: statement for rid, (statement, _, _) in RULES.items()}


# ---------------------------------------------------------------------------
# Certificate data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContactNode:
    """A contact structure under discussion: an id, the manifold it lives
    on, and an inline surgery presentation of it.  A node that the one
    edge into it builds has neither: the verifier builds its presentation
    and derives its manifold, if any (see ``node_presentations``).  The
    root names its manifold and, when the verifier derives its
    presentation from the slope, has no diagram."""

    nid: str
    manifold: Manifold | None = None
    diagram: ContactDiagram | None = None


@dataclass(frozen=True)
class SurgeryEdge:
    """A single contact (+1)-surgery from node ``src`` to node ``dst``.

    ``witness`` names the surgered knot, "unknot", "pushoff:<cid>" or
    "cancel:<cid>", as ``diagrams.plus_one_surgery`` reads it.
    """

    eid: str
    src: str
    dst: str
    witness: str


@dataclass(frozen=True)
class Step:
    """One rule application.  ``refs`` are typed references ((kind, value)
    pairs: node, edge, group, or an index into
    ``engine_triangles(engine_stage)``);
    ``gives`` is the derived fact (fact kind, node id)."""

    rule: str
    refs: tuple[tuple[str, str], ...]
    gives: tuple[str, str]

    def ref(self, kind: str) -> str:
        for k, v in self.refs:
            if k == kind:
                return v
        raise CalculusError(f"step {self.rule} carries no {kind} reference")


@dataclass
class Certificate:
    """A self-contained, machine-checkable tightness derivation.

    ``rank_facts`` maps each manifold a cited triangle names to its exact
    rank; its keys are ``Manifold`` objects, and their names appear only in
    the JSON form."""

    slope: SurgeryCoeff
    conclusion: tuple[str, str]
    engine_stage: int
    nodes: dict[str, ContactNode]
    edges: dict[str, SurgeryEdge]
    rank_facts: dict[Manifold, int]
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of an independent check; ``step`` indexes the first failing
    step when the failure is attributable to one."""

    ok: bool
    step: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# Shared construction helpers
# ---------------------------------------------------------------------------


def _group_text(group: HomologyResult) -> str:
    """Canonical "free:torsion" form, e.g. "0:5" or "1:" or "0:2,4"."""
    return f"{group.free_rank}:{','.join(str(t) for t in group.torsion)}"



# (kind of the source's manifold, witness) -> the target's manifold, from
# the source's stage.  A "cancel:<cid>" edge, whatever its source, gives
# its target no manifold.
_DERIVED = {
    ("s3", "unknot"): lambda stage: Manifold.s1xs2(),
    ("tower", "pushoff:c1"): lambda stage: Manifold.tower(stage + 1),
}



def _stage(rp: SurgeryCoeff) -> int:
    """Tower stage a certificate needs for companion coefficient rp: 0 on
    the Stein route (rp negative or infinite), else the number of unit
    pushoffs rp splits into."""
    if rp.is_infinite or rp < 0:
        return 0
    return split_count(rp)


def _root_size(rp: SurgeryCoeff, stage: int, limit: int) -> int:
    """Components of the normalized presentation with companion coefficient
    rp at ``stage``: the trefoil, ``stage`` unit pushoffs and the (-1)-chain
    of the residual (of rp itself on the Stein route), whose continued
    fraction terms are counted only up to ``limit``."""
    residual = residual_coeff(rp, stage) if stage else rp
    if residual.is_infinite:
        return 1 + stage
    return 1 + stage + sum(1 for _ in islice(neg_cf_terms(residual), limit))



def _root(cert: Certificate, root: ContactNode) -> tuple[ContactDiagram, int]:
    """The presentation of ``root``, the conclusion's node, and the tower
    stage its slope allows.  The verifier's own presentation of the slope
    is built only once its size, counted no further than the size it must
    have, matches: the inline root's or, for a root with no diagram, the
    edge count.  So nothing larger than the certificate is built.  An
    inline root must be that presentation, ids and order included, and is
    returned as it stands.  Raises CalculusError when the sizes or the
    presentations differ, and ExcludedSlopeError for the slope 1, which
    has no root."""
    rp = pushoff_coeff_from_slope(cert.slope)
    stage = _stage(rp)
    inline = root.diagram
    size = len(cert.edges) if inline is None else len(inline)
    if _root_size(rp, stage, size) == size:
        built = normalize_diagram(trefoil_surgery_diagram(cert.slope))
        if inline is None:
            return built, stage
        if built == inline:
            return inline, stage
    if inline is not None:
        raise CalculusError("conclusion presentation does not match the declared slope")
    raise CalculusError(
        f"{size} edges, but slope {cert.slope}'s presentation does not have "
        f"{size} components"
    )


def slope_companion(slope: SurgeryCoeff) -> tuple[SurgeryCoeff | None, int]:
    """The companion coefficient rp of ``slope`` and the tower stage a
    certificate of it needs; (None, 0) for the excluded slope 1, which has
    no root."""
    try:
        rp = pushoff_coeff_from_slope(slope)
    except CalculusError:
        return None, 0
    return rp, _stage(rp)


def presentation_bound(companion: tuple[SurgeryCoeff | None, int], limit: int) -> int:
    """The most components any presentation the verifier holds for a
    certificate of a slope whose ``slope_companion`` is ``companion`` has:
    2 for tower stage 1, or the root's size, whose chain is counted only
    up to ``limit`` terms.  The excluded slope 1 has no root."""
    rp, stage = companion
    return 2 if rp is None else max(2, _root_size(rp, stage, limit))


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def check_certificate(cert: Certificate) -> VerificationResult:
    """Re-derive every claim in a certificate; reports the first failure.

    Structural checks first (slope binding: an inline root must be the
    verifier's own presentation of the slope, and a root with no diagram
    gets that presentation, built once the edge count matches its size;
    the stage bound the slope sets, engine-verified rank facts, the bound
    on edges the slope and the root set, every edge building its target
    node, which names no manifold, and giving it the manifold
    ``_DERIVED`` gives, every inline node naming a manifold and carrying
    the verifier's own presentation of it), then the steps in order under
    the premise discipline, then the final conclusion.
    """
    try:
        return _check(cert)
    except CalculusError as exc:
        return VerificationResult(False, None, f"structural error: {exc}")


def _fail(step, reason):
    return VerificationResult(False, step, reason)


def _check(cert: Certificate) -> VerificationResult:
    """``check_certificate`` but for its guard.  It reads the certificate
    and never copies it: the engine family is looked up once, after the
    stage range check; the inline presentations are compared with ``_OWN``
    and the root's, and the rank engine starts from ``_SEED_FACTS``; the
    steps read one ``_Replay``, which holds each node's manifold, the
    presentations the walk kept and the accepted steps."""
    if cert.conclusion[0] != "tight":
        return _fail(None, f"unsupported conclusion kind {cert.conclusion[0]!r}")
    root = cert.nodes.get(cert.conclusion[1])
    if root is None:
        return _fail(None, f"conclusion names unknown node {cert.conclusion[1]!r}")

    # The header must be bound to the content: the conclusion node carries
    # the named trefoil surgery and the verifier's own canonical presentation
    # of the slope, inline or derived.  The slope 1 has none, and the guard
    # refuses it.
    if root.manifold != Manifold.trefoil_surgery(cert.slope):
        return _fail(None, "conclusion node does not carry the declared slope")
    try:
        presentation, stage = _root(cert, root)
    except ExcludedSlopeError:
        raise
    except CalculusError as exc:
        return _fail(None, str(exc))

    # The slope bounds the stage, so the work below cannot grow with a
    # number the certificate merely declares.
    if not 0 <= cert.engine_stage <= stage:
        return _fail(
            None,
            f"engine stage {cert.engine_stage} is outside 0..{stage}, "
            f"the stages slope {cert.slope} allows",
        )

    # The engine family, looked up once the stage is known to be in range:
    # the rank facts must be reproduced exactly by a fresh propagation run
    # over it, and the steps' triangle indexes cite it.
    family = engine_triangles(cert.engine_stage) if cert.engine_stage else ()
    if cert.rank_facts:
        if cert.engine_stage < 1:
            return _fail(None, "rank facts cited without an engine stage")
        run = propagate(_SEED_FACTS, family)
        if not run.consistent:
            return _fail(None, f"rank engine contradiction: {run.contradiction.detail}")
        for m, value in cert.rank_facts.items():
            got = run.db.fact(m)
            if not got.is_exact or got.lo != value:
                return _fail(
                    None,
                    f"rank fact {m.text()} = {value} is not engine-verified (engine: {got})",
                )

    # At most one edge for eta, each ladder stage and each chain knot of
    # the root, counted before any edge builds a node.
    chain = len(presentation) - 1 - stage
    limit = cert.engine_stage + 1 + chain
    if len(cert.edges) > limit:
        return _fail(None, f"{len(cert.edges)} edges, engine stage {cert.engine_stage} "
                     f"and {chain} chain knots allow at most {limit}")

    # Build every derived node, which checks every edge and gives its
    # target a manifold, keeping the presentations the steps cite.
    cited = {value for step in cert.steps for kind, value in step.refs if kind == "node"}
    start = {nid: n.diagram for nid, n in cert.nodes.items()}
    start[root.nid] = presentation
    try:
        built, derived = _walk(cert, start, cited)
    except CalculusError as exc:
        return _fail(None, str(exc))

    # An inline node names a manifold and carries the verifier's own
    # presentation of it; a manifold without one may not be inline.
    own = {**_OWN, root.manifold: presentation}
    for n in cert.nodes.values():
        if n.diagram is None:
            continue
        if n.manifold is None:
            return _fail(None, f"node {n.nid}: inline presentation names no manifold")
        if own.get(n.manifold) != n.diagram:
            return _fail(None, f"node {n.nid}: inline presentation is not the "
                         f"verifier's presentation of {n.manifold.text()}")

    # Replay the steps, which read the presentations in ``built`` and the
    # ladder nodes' manifolds as the walk derived them.
    replay = _Replay(cert, family, built, derived)
    have: set[tuple[str, str]] = set()
    for idx, step in enumerate(cert.steps):
        verdict = _check_step(replay, step, have)
        if verdict is not None:
            return _fail(idx, verdict)
        have.add(step.gives)

    if not cert.steps or cert.steps[-1].gives != cert.conclusion:
        return _fail(None, "final step does not establish the conclusion")
    return VerificationResult(True)


def node_presentations(cert: Certificate, keep=None) -> dict[str, ContactDiagram]:
    """The presentations of the nodes in ``keep``, a collection of node
    ids (default: every node), in its order: the inline diagram; for a
    root with no diagram the verifier's own presentation of the slope,
    built only when its size equals the edge count; or for a derived node
    the (+1)-surgery the edge into it records, performed on the
    presentation of the edge's source.

    Edges are taken in order.  An edge's source must already have a
    presentation, and its target must be a declared node that has none
    yet and names no manifold.  A "cancel:" edge gives its target no
    manifold; any other edge must give it one by ``_DERIVED``, from the
    source's manifold and the witness.  So every edge builds exactly one
    node.  Every node must end up with a presentation.  Raises
    CalculusError naming the first edge or node that breaks a rule.

    Each node's readers are counted first: the later edges from it, and
    ``keep``.  Every built presentation is a ``diagrams._Draft``, which a
    move edits in place.  An edge whose source it alone still reads runs
    its move on the source's draft: a ladder edge then costs O(1)
    amortized, and a cancel edge O(children + knots after the cancelled
    one), O(children) on an emitted reduction path, which cancels its last
    knot each time but the first chain knot.  Any other edge first copies
    its source into a new draft, O(n).  A node nothing reads is let go
    once built, and only the nodes in ``keep`` are frozen into immutable
    snapshots, O(n) each; so verifying a ladder of S stages or a path of L
    cancels takes O(S + L + n) time and space for an n-knot root.  A
    ladder edge's pushoff is a copy of the pushoff before it, renamed
    (``contact_pushoff``), so a ladder of S edges checks at most one new
    knot.
    """
    built = {nid: n.diagram for nid, n in cert.nodes.items()}
    root = cert.nodes.get(cert.conclusion[1])
    if root is not None and root.diagram is None:
        built[root.nid] = _root(cert, root)[0]
    return _walk(cert, built, cert.nodes if keep is None else keep)[0]


def _walk(cert, built, keep):
    """``node_presentations`` from ``built``, each node's inline or root
    presentation or None, and the manifold each edge that gives one gives
    its target; edits ``built``.  An edge's move edits its source's draft
    in place when no later reader needs it, else a copy.  A source's
    manifold is the one it declares or the one an earlier edge gave it;
    the steps read both kinds from one map (``_Replay``)."""
    edges, readers, derived = cert.edges.values(), {}, {}
    for e in edges:
        readers[e.src] = readers.get(e.src, 0) + 1
    for nid in keep:
        readers[nid] = readers.get(nid, 0) + 1
    for e in edges:
        if built.get(e.src) is None:
            problem = f"source {e.src!r} has no presentation yet"
        elif e.dst not in built or built[e.dst] is not None:
            problem = f"target {e.dst!r} is not a declared node without a presentation"
        elif cert.nodes[e.dst].manifold is not None:
            problem = (f"target {e.dst!r} names {cert.nodes[e.dst].manifold.text()}, "
                       "but a node an edge builds names no manifold")
        else:
            source = derived.get(e.src, cert.nodes[e.src].manifold)
            make = _DERIVED.get((source and source.kind, e.witness))
            if make is None and not e.witness.startswith("cancel:"):
                name = source.text() if source else "a node that names no manifold"
                problem = f"witness {e.witness!r} on {name} gives no manifold"
            else:
                # A node no later edge or ``keep`` reads is let go: its
                # entry goes, which refuses a second edge into it as
                # surely as a presentation would.
                readers[e.src] -= 1
                d = built[e.src]
                if readers[e.src] or type(d) is not _Draft:
                    d = _Draft(d)
                try:
                    d = plus_one_surgery(d, e.witness)
                except CalculusError as exc:
                    problem = str(exc)
                else:
                    if make:
                        derived[e.dst] = make(source.p)
                    if not readers[e.src]:
                        del built[e.src]
                    if readers.get(e.dst):
                        built[e.dst] = d
                    else:
                        del built[e.dst]
                    continue
        raise CalculusError(f"edge {e.eid}: {problem}")
    for nid, diagram in built.items():
        if diagram is None:
            raise CalculusError(f"node {nid}: no inline presentation and no edge into it")
    return {
        nid: d.frozen() if isinstance(d, _Draft) else d
        for nid, d in ((nid, built.get(nid)) for nid in keep)
        if d is not None
    }, derived


def _check_step(replay, step, have):
    """The reason ``step`` fails, or None.  A step whose rule and
    references an accepted step had takes that step's premises and fact
    with one lookup, and is still held to ``have`` and its own ``gives``."""
    key = (step.rule, step.refs)
    derived = replay.accepted.get(key)
    if derived is None:
        if step.rule not in RULES:
            return f"rule {step.rule!r} is not in the rule set"
        _, kinds, check = RULES[step.rule]
        refs = step.refs
        if tuple(kind for kind, _ in refs) != kinds:
            return (
                f"rule {step.rule} takes references ({', '.join(kinds)}), "
                f"step cites ({', '.join(kind for kind, _ in refs)})"
            )
        try:
            refs = [_RESOLVE[kind](replay, value) for kind, value in refs]
            derived = check(replay, *refs)
        except CalculusError as exc:
            return str(exc)
    premises, gives = derived
    for kind, nid in premises:
        if (kind, nid) not in have:
            return f"premise {kind}({nid}) not yet derived"
    if step.gives != gives:
        return (
            f"step gives {step.gives[0]}({step.gives[1]}), "
            f"rule derives {gives[0]}({gives[1]})"
        )
    replay.accepted[key] = derived
    return None
