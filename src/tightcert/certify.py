"""Tightness certificates: emission and independent verification.

A certificate is an ordered list of rule applications over a small graph of
contact surgery presentations (nodes) and single (+1)-surgery moves between
them (edges).  Every datum a rule consumes is recorded in the certificate,
and ``check_certificate`` re-derives each one — homology orders by Smith
normal form, rank facts by re-running the propagation engine, injectivity
by re-solving the cited triangle, surgery edges by building the node each
one derives — so a verifier needs no trust in the emitter.

A node either carries its presentation inline or is *derived*: its ``via``
names the edge whose (+1)-surgery on the source presentation builds it.
Emitter and verifier build every derived node with ``node_presentations``;
for the verifier that construction is the check of its edge, so every edge
derives exactly one node.  Only the root, the empty presentation and stage
1 are inline; the tower ladder and the reduction path are derived.

The rule set is the table ``RULES``: for each rule, its statement, the
kinds of the references a step citing it carries, and the checker that
re-derives the fact it gives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from itertools import islice

from .errors import CalculusError
from .rationals import (
    SurgeryCoeff,
    coeff as _coerce_coeff,
    neg_cf_terms,
    pushoff_coeff_from_slope,
    residual_coeff,
    split_count,
)
from .diagrams import (
    PUSHOFF,
    ContactDiagram,
    cancel_pushoff_pairs,
    diagram_iso,
    empty_diagram,
    normalize_diagram,
    plus_one_surgery,
    tower_diagram,
    trefoil_surgery_diagram,
)
from .topology import HomologyResult, Manifold, h1
from .floer import (
    TriangleInstance,
    base_facts,
    engine_triangles,
    propagate,
    triangle_solve,
)

_MINUS_ONE = SurgeryCoeff(-1)


# ---------------------------------------------------------------------------
# The rule set
# ---------------------------------------------------------------------------


def _entry(table, kind, key):
    if key not in table:
        raise CalculusError(f"{kind} {key!r} not present")
    return table[key]


def _triangle(cert, text):
    try:
        index = int(text)
    except ValueError:
        index = -1
    if str(index) != text or not 0 <= index < len(cert.triangles):
        raise CalculusError(f"cited triangle {text!r} not present")
    return cert.triangles[index]


# Reference kind -> resolver from the certificate and the recorded value.
_RESOLVE = {
    "node": lambda cert, nid: _entry(cert.nodes, "node", nid),
    "edge": lambda cert, eid: _entry(cert.edges, "edge", eid),
    "triangle": _triangle,
    "group": lambda cert, text: text,
}


def _presentation(node):
    if node.diagram is None:
        raise CalculusError(f"node {node.nid} carries no presentation")
    return node.diagram


def _overtwisted_zero(cert, node):
    raise CalculusError(
        "rule derives a vanishing class; no tightness certificate may use it"
    )


def _plus_one_pushforward(cert, edge, tri):
    if tri.informational:
        raise CalculusError("informational triangle instances cannot justify injectivity")
    # Every edge was checked before the steps, so both endpoints exist.
    src, dst = cert.nodes[edge.src], cert.nodes[edge.dst]
    if tri.a != src.manifold.mirror() or tri.b != dst.manifold.mirror():
        raise CalculusError("triangle vertices do not match the edge endpoints")
    ranks = []
    for m in (tri.a, tri.b, tri.c):
        value = cert.rank_facts.get(m.text())
        if value is None:
            raise CalculusError(f"rank fact for {m.text()} not in the certificate")
        ranks.append(value)
    if not triangle_solve(*ranks).f_injective:
        raise CalculusError(
            f"triangle ranks {tuple(ranks)} do not make the map injective"
        )
    return (("c_nonzero", edge.src),), ("c_nonzero", edge.dst)


def _all_minus_one_stein(cert, node):
    for c in _presentation(node).components:
        if c.coeff != _MINUS_ONE:
            raise CalculusError(f"component {c.cid} carries {c.coeff}, not -1")
    return (), ("stein", node.nid)


def _transfer(cert, target, source, cancel=False):
    a, b = _presentation(target), _presentation(source)
    if cancel:
        a, b = cancel_pushoff_pairs(a), cancel_pushoff_pairs(b)
    if not diagram_iso(a, b):
        raise CalculusError("presentations do not match")
    return (("c_nonzero", source.nid),), ("c_nonzero", target.nid)


def _h1_consistency(cert, node, recorded):
    group = h1(_presentation(node))
    if _group_text(group) != recorded:
        raise CalculusError(
            f"presentation has h1 {_group_text(group)}, certificate says {recorded}"
        )
    declared = node.manifold.expected_h1_order()
    if declared is not None and group.cyclic_order() != declared:
        raise CalculusError(
            f"declared manifold {node.manifold.text()} has cyclic h1 of "
            f"order {declared}, presentation gives {_group_text(group)}"
        )
    return (), ("h1", node.nid)


# Rule id -> (statement, reference kinds, checker).  A step citing the rule
# carries references of exactly those kinds, in order.  The checker receives
# the certificate and the resolved references; it returns the facts the step
# needs and the fact it derives, and raises CalculusError when the cited
# data do not support the rule.
RULES = {
    "stein_nonzero": (
        "a Stein fillable structure has nonvanishing contact class",
        ("node",),
        lambda cert, node: ((("stein", node.nid),), ("c_nonzero", node.nid)),
    ),
    "overtwisted_zero": (
        "an overtwisted structure has vanishing contact class",
        ("node",),
        _overtwisted_zero,
    ),
    "nonzero_tight": (
        "a structure whose contact class does not vanish is tight",
        ("node",),
        lambda cert, node: ((("c_nonzero", node.nid),), ("tight", node.nid)),
    ),
    "plus_one_pullback": (
        "a contact (+1)-surgery maps the source class to the result class, "
        "so a nonzero result class forces a nonzero source class",
        ("edge",),
        lambda cert, edge: ((("c_nonzero", edge.dst),), ("c_nonzero", edge.src)),
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
        "presentations with the same fully cancelled form present the same "
        "contact structure, so the class transfers",
        ("node", "node"),
        partial(_transfer, cancel=True),
    ),
    "same_diagram": (
        "isomorphic presentations carry the same contact class",
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


def rules() -> dict[str, str]:
    """The fixed rule set: id -> statement."""
    return {rid: statement for rid, (statement, _, _) in RULES.items()}


# ---------------------------------------------------------------------------
# Certificate data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContactNode:
    """A contact structure under discussion: an id, the manifold it lives
    on, and exactly one of an inline surgery presentation of it or, in
    ``via``, the id of the edge whose (+1)-surgery builds that presentation
    (see ``node_presentations``)."""

    nid: str
    manifold: Manifold
    diagram: ContactDiagram | None = None
    via: str | None = None


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
    """One rule application.  ``refs`` are typed references into the
    certificate ((kind, value) pairs: node, edge, triangle index, order);
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
    """A self-contained, machine-checkable tightness derivation."""

    slope: SurgeryCoeff
    conclusion: tuple[str, str]
    engine_stage: int
    nodes: dict[str, ContactNode]
    edges: dict[str, SurgeryEdge]
    rank_facts: dict[str, int]
    triangles: tuple[TriangleInstance, ...]
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


def _pushforward(edge: SurgeryEdge, triangle: int) -> Step:
    return Step(
        "plus_one_pushforward",
        (("edge", edge.eid), ("triangle", str(triangle))),
        ("c_nonzero", edge.dst),
    )


@dataclass
class TowerChain:
    """The tower ladder used by every positive-branch certificate: nodes
    for the empty presentation, the circle bundle, and tower stages
    1..max_stage+1; the (+1)-edges between them; the exact rank facts; the
    triangle instances; and the steps deriving a nonzero class at every
    stage up to max_stage."""

    stage: int
    nodes: list[ContactNode]
    edges: list[SurgeryEdge]
    rank_facts: dict[str, int]
    triangles: tuple[TriangleInstance, ...]
    steps: list[Step]

    def top(self) -> str:
        return f"v{self.stage}"


def build_tower_chain(max_stage: int) -> TowerChain:
    """Assemble the ladder of tower presentations with a verified nonzero
    class at every stage 1..max_stage.

    Stage 1 cancels to the empty presentation (Stein route); each later
    stage is reached by (+1)-surgery on a fresh pushoff of the trefoil,
    with injectivity supplied by the consecutive-stage triangle at exact
    ranks.  The circle-bundle edge from the empty presentation is included
    and checked as well: it is the template the stage maps follow.  Only
    the empty presentation and stage 1 are inline; eta and every later
    stage are declared derived via their edge and built, by emitter and
    verifier alike, in ``node_presentations``.
    """
    if not isinstance(max_stage, int) or max_stage < 1:
        raise CalculusError(f"tower depth must be a positive integer, got {max_stage!r}")
    triangles = engine_triangles(max_stage)
    run = propagate(base_facts(), triangles)
    if not run.consistent:
        raise CalculusError(f"rank engine contradiction: {run.contradiction.detail}")

    rank_facts: dict[str, int] = {}
    for m in (Manifold.s3(), Manifold.s1xs2(), Manifold.poincare()):
        rank_facts[m.text()] = run.db.exact_value(m)
    for k in range(1, max_stage + 1):
        m = Manifold.neg_tower(k)
        rank_facts[m.text()] = run.db.exact_value(m)

    nodes = [
        ContactNode("std", Manifold.s3(), empty_diagram()),
        ContactNode("eta", Manifold.s1xs2(), via="e_eta"),
        ContactNode("v1", Manifold.tower(1), tower_diagram(1)),
    ]
    edges = [SurgeryEdge("e_eta", "std", "eta", "unknot")]
    for k in range(1, max_stage + 1):
        edges.append(SurgeryEdge(f"ev{k}", f"v{k}", f"v{k + 1}", "pushoff:c1"))
        nodes.append(ContactNode(f"v{k + 1}", Manifold.tower(k + 1), via=f"ev{k}"))

    steps = [
        Step("all_minus_one_stein", (("node", "std"),), ("stein", "std")),
        Step("stein_nonzero", (("node", "std"),), ("c_nonzero", "std")),
        _pushforward(edges[0], 0),
        Step("cancel_equivalent", (("node", "v1"), ("node", "std")), ("c_nonzero", "v1")),
    ]
    steps += [_pushforward(edges[k], k) for k in range(1, max_stage)]
    return TowerChain(max_stage, nodes, edges, rank_facts, triangles, steps)


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


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def certify_tight(r) -> Certificate:
    """Produce a tightness certificate for r-surgery on the right trefoil.

    Slope 1 is excluded (no tight extension exists there).  Companion
    coefficients that are negative or infinite give the direct Stein-
    fillability derivation (stage 0: no ladder and no reduction path);
    positive ones are split into unit pushoffs, reduced along the
    (-1)-chain, and bridged to the tower ladder.  The certificate opens
    with an ``h1_consistency`` audit of every node, in node order, on the
    presentations ``node_presentations`` gives.
    """
    r = _coerce_coeff(r)
    rp = pushoff_coeff_from_slope(r)  # raises for the excluded slope 1
    stage = _stage(rp)
    diagram = normalize_diagram(trefoil_surgery_diagram(r))
    path = [ContactNode("y0", Manifold.trefoil_surgery(r), diagram)]
    path_edges = []
    if stage == 0:
        ladder, ladder_edges, rank_facts, triangles = [], [], {}, ()
        steps = [
            Step("all_minus_one_stein", (("node", "y0"),), ("stein", "y0")),
            Step("stein_nonzero", (("node", "y0"),), ("c_nonzero", "y0")),
        ]
    else:
        # k unit pushoffs, then a residual (-1)-chain of length m (m = 0
        # exactly when rp is a unit fraction).  The chain knots are the
        # (-1)-components other than the trefoil, in creation order: the
        # original pushoff first, then the knots appended by the conversion.
        # Cancelling them last to first reduces the root to tower stage k.
        chain_ids = [
            c.cid for c in diagram.components if c.kind == PUSHOFF and c.coeff == _MINUS_ONE
        ]
        assert 1 + stage + len(chain_ids) == _root_size(rp, stage, len(diagram))
        for i, cid in enumerate(reversed(chain_ids), start=1):
            reduced = Manifold.opaque(f"reduction stage {i} of trefoil surgery {r}")
            path.append(ContactNode(f"y{i}", reduced, via=f"ey{i}"))
            path_edges.append(SurgeryEdge(f"ey{i}", f"y{i - 1}", f"y{i}", f"cancel:{cid}"))
        chain = build_tower_chain(stage)
        ladder, ladder_edges = chain.nodes, chain.edges
        rank_facts, triangles = chain.rank_facts, chain.triangles
        bottom = path[-1].nid
        steps = chain.steps + [
            Step(
                "same_diagram",
                (("node", bottom), ("node", chain.top())),
                ("c_nonzero", bottom),
            )
        ]
        steps += [
            Step("plus_one_pullback", (("edge", e.eid),), ("c_nonzero", e.src))
            for e in reversed(path_edges)
        ]
    steps.append(Step("nonzero_tight", (("node", "y0"),), ("tight", "y0")))

    cert = Certificate(
        slope=r,
        conclusion=("tight", "y0"),
        engine_stage=stage,
        nodes={n.nid: n for n in ladder + path},
        edges={e.eid: e for e in ladder_edges + path_edges},
        rank_facts=rank_facts,
        triangles=triangles,
        steps=tuple(steps),
    )
    cert.steps = tuple(
        Step("h1_consistency", (("node", nid), ("group", _group_text(h1(d)))), ("h1", nid))
        for nid, d in node_presentations(cert).items()
    ) + cert.steps
    return cert


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def check_certificate(cert: Certificate) -> VerificationResult:
    """Re-derive every claim in a certificate; reports the first failure.

    Structural checks first (slope binding, the stage bound the slope
    sets, known triangle instances, engine-verified rank facts, the bound
    on derived nodes the slope and the root set, the construction of every
    derived node, every edge deriving one), then the steps in order under
    the premise discipline, then the final conclusion.
    """
    try:
        return _check(cert)
    except CalculusError as exc:
        return VerificationResult(False, None, f"structural error: {exc}")


def _fail(step, reason):
    return VerificationResult(False, step, reason)


def _check(cert: Certificate) -> VerificationResult:
    if cert.conclusion[0] != "tight":
        return _fail(None, f"unsupported conclusion kind {cert.conclusion[0]!r}")
    root = cert.nodes.get(cert.conclusion[1])
    if root is None:
        return _fail(None, f"conclusion names unknown node {cert.conclusion[1]!r}")

    # The header must be bound to the content: the conclusion node carries
    # the named trefoil surgery and the canonical presentation of the slope.
    # The slope's presentation is built only once its size, counted first,
    # matches the root's, so that work is bounded by the certificate.
    if root.manifold != Manifold.trefoil_surgery(cert.slope):
        return _fail(None, "conclusion node does not carry the declared slope")
    rp = pushoff_coeff_from_slope(cert.slope)
    stage = _stage(rp)
    if (
        root.diagram is None
        or len(root.diagram) != _root_size(rp, stage, len(root.diagram))
        or not diagram_iso(
            root.diagram, normalize_diagram(trefoil_surgery_diagram(cert.slope))
        )
    ):
        return _fail(
            None, "conclusion presentation does not match the declared slope"
        )

    # The slope bounds the stage, so the work below cannot grow with a
    # number the certificate merely declares.
    if not 0 <= cert.engine_stage <= stage:
        return _fail(
            None,
            f"engine stage {cert.engine_stage} is outside 0..{stage}, "
            f"the stages slope {cert.slope} allows",
        )

    # Triangle instances must come from the engine's known families, and
    # rank facts must be reproduced exactly by a fresh propagation run.
    if cert.triangles or cert.rank_facts:
        if cert.engine_stage < 1:
            return _fail(None, "triangles or rank facts cited without an engine stage")
        known = engine_triangles(cert.engine_stage)
        for tri in cert.triangles:
            if tri not in known:
                return _fail(None, f"unknown triangle instance {tri.a.text()} -> "
                             f"{tri.b.text()} -> {tri.c.text()}")
        run = propagate(base_facts(), known)
        if not run.consistent:
            return _fail(None, f"rank engine contradiction: {run.contradiction.detail}")
        for text, value in cert.rank_facts.items():
            m = Manifold.parse(text)
            got = run.db.fact(m)
            if not got.is_exact or got.lo != value:
                return _fail(
                    None,
                    f"rank fact {text} = {value} is not engine-verified (engine: {got})",
                )

    # At most one derived node for eta, each ladder stage and each chain
    # knot of the root, counted before any is built.
    chain = len(root.diagram) - 1 - stage
    limit = cert.engine_stage + 1 + chain
    derived = sum(n.via is not None for n in cert.nodes.values())
    if derived > limit:
        return _fail(None, f"{derived} derived nodes, engine stage {cert.engine_stage} "
                     f"and {chain} chain knots allow at most {limit}")

    # Build every derived node; from here on each node carries the
    # presentation the verifier holds for it.
    try:
        built = node_presentations(cert)
    except CalculusError as exc:
        return _fail(None, str(exc))
    cert = replace(
        cert,
        nodes={nid: replace(n, diagram=built[nid]) for nid, n in cert.nodes.items()},
    )

    # Building the node an edge derives is the only check of that edge, so
    # an edge that derives none could justify a step unchecked.
    named = {n.via for n in cert.nodes.values()}
    for eid in cert.edges:
        if eid not in named:
            return _fail(None, f"edge {eid} derives no node")

    # Replay the steps.
    have: set[tuple[str, str]] = set()
    for idx, step in enumerate(cert.steps):
        verdict = _check_step(cert, step, have)
        if verdict is not None:
            return _fail(idx, verdict)
        have.add(step.gives)

    if not cert.steps or cert.steps[-1].gives != cert.conclusion:
        return _fail(None, "final step does not establish the conclusion")
    return VerificationResult(True)


def node_presentations(cert: Certificate) -> dict[str, ContactDiagram | None]:
    """Every node's presentation, in node order: the inline diagram, or for
    a derived node the (+1)-surgery its ``via`` edge records, performed on
    the presentation of the edge's source.

    The source must be declared before the node, and a derived node may
    not also carry a diagram.  Raises CalculusError naming the first node
    that breaks a rule.
    """
    built: dict[str, ContactDiagram | None] = {}
    for n in cert.nodes.values():
        if n.via is None:
            built[n.nid] = n.diagram
            continue
        edge = cert.edges.get(n.via)
        if n.diagram is not None:
            problem = "it also carries an inline presentation"
        elif edge is None:
            problem = f"edge {n.via!r} not present"
        elif edge.dst != n.nid:
            problem = f"edge {edge.eid} leads to {edge.dst!r}"
        elif built.get(edge.src) is None:
            problem = (
                f"source {edge.src!r} of edge {edge.eid} has no presentation "
                "declared before it"
            )
        else:
            try:
                built[n.nid] = plus_one_surgery(built[edge.src], edge.witness)
                continue
            except CalculusError as exc:
                problem = str(exc)
        raise CalculusError(f"node {n.nid} derived via {n.via!r}: {problem}")
    return built


def _check_step(cert, step, have):
    if step.rule not in RULES:
        return f"rule {step.rule!r} is not in the rule set"
    _, kinds, check = RULES[step.rule]
    cited = tuple(kind for kind, _ in step.refs)
    if cited != kinds:
        return (
            f"rule {step.rule} takes references ({', '.join(kinds)}), "
            f"step cites ({', '.join(cited)})"
        )
    try:
        refs = [_RESOLVE[kind](cert, value) for kind, value in step.refs]
        premises, gives = check(cert, *refs)
    except CalculusError as exc:
        return str(exc)
    for kind, nid in premises:
        if (kind, nid) not in have:
            return f"premise {kind}({nid}) not yet derived"
    if step.gives != gives:
        return (
            f"step gives {step.gives[0]}({step.gives[1]}), "
            f"rule derives {gives[0]}({gives[1]})"
        )
    return None
