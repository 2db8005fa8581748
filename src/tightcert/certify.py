"""Tightness certificates: emission.

``certify_tight`` writes a certificate for the verifier kernel,
``tightcert.verify``, to check.  This module imports the kernel for the
data model and for the counts the verifier derives the root by, and the
kernel imports nothing from it.  The emitter runs neither the Smith normal
form nor the rank engine: it writes each ``h1_consistency`` audit group as
the node's manifold fixes it and each rank fact as the stage fixes it, and
only the verifier computes them.  Audits are emitted only for the nodes
that no edge builds: the inline ``std`` and ``v1``, and the root.  These
are the only nodes a certificate declares; every other node is named only
by the edge that builds it.  At stage >= 1 the emitter builds no
presentation besides ``std`` and ``v1``: the slope fixes the chain knots'
ids (``trefoil_chain_ids``), and the verifier derives the root and every
other node.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CalculusError
from .rationals import coeff as _coerce_coeff, pushoff_coeff_from_slope
from .diagrams import (
    empty_diagram,
    normalize_diagram,
    tower_diagram,
    trefoil_chain_ids,
    trefoil_surgery_diagram,
)
from .topology import Manifold
from .floer import engine_triangles
# ``check_certificate`` and ``VerificationResult`` are read from this
# module by perfbench; the emitter itself does not call them.
from .verify import (  # noqa: F401
    Certificate,
    ContactNode,
    Step,
    SurgeryEdge,
    VerificationResult,
    _root_size,
    _stage,
    check_certificate,
)


def _cyclic_text(order: int) -> str:
    """The kernel's ``_group_text`` of the cyclic group of ``order`` (0 = infinite)."""
    if order == 0:
        return "1:"
    return "0:" if order == 1 else f"0:{order}"


def _pushforward(edge: SurgeryEdge, triangle: int) -> Step:
    return Step(
        "plus_one_pushforward",
        (("edge", edge.eid), ("triangle", str(triangle))),
        ("c_nonzero", edge.dst),
    )


@dataclass
class TowerChain:
    """The tower ladder used by every positive-branch certificate: the
    inline nodes, the empty presentation and tower stage 1; the (+1)-edges
    that build the circle bundle and tower stages 2..max_stage; the exact
    rank facts; and the steps deriving a nonzero class at every stage up
    to max_stage, citing triangles by their index in
    ``engine_triangles(max_stage)``."""

    stage: int
    nodes: list[ContactNode]
    edges: list[SurgeryEdge]
    rank_facts: dict[Manifold, int]
    steps: list[Step]

    def top(self) -> str:
        return f"v{self.stage}"


def build_tower_chain(max_stage: int) -> TowerChain:
    """Assemble the ladder of tower presentations with the steps deriving
    a nonzero class at every stage 1..max_stage, for the verifier to check.

    Stage 1 cancels to the empty presentation (Stein route); each later
    stage is reached by (+1)-surgery on a fresh pushoff of the trefoil,
    with injectivity supplied by the consecutive-stage triangle at exact
    ranks.  The circle-bundle edge from the empty presentation is included
    as well: it is the template the stage maps follow.  The ladder ends at
    the top stage, which no step reads past.  Only the empty presentation
    and stage 1 are declared, inline; the verifier builds eta and every
    later stage from the edge into it, in ``node_presentations``, and
    gives each its manifold.

    The rank facts are the table the stage fixes, written without running
    the rank engine or a Smith normal form: only the verifier runs
    ``propagate``, which must reproduce each fact exactly.
    """
    if not isinstance(max_stage, int) or max_stage < 1:
        raise CalculusError(f"tower depth must be a positive integer, got {max_stage!r}")
    family = engine_triangles(max_stage)

    # The ranks the seed table and the triangles pin; the verifier's
    # propagation is the proof.  Keyed by the family's own vertices: s3
    # and s1xs2 from the unknot triangle, then the Poincare sphere and
    # -tower(k) from the stage-k triangle (-tower(k), -tower(k + 1),
    # poincare) at index k.
    unknot, stages = family[0], family[1 : max_stage + 1]
    rank_facts = {unknot.a: 1, unknot.b: 2, stages[0].c: 1}
    rank_facts.update((tri.a, k) for k, tri in enumerate(stages, start=1))

    nodes = [
        ContactNode("std", Manifold.s3(), empty_diagram()),
        ContactNode("v1", Manifold.tower(1), tower_diagram(1)),
    ]
    edges = [SurgeryEdge("e_eta", "std", "eta", "unknot")]
    edges += [
        SurgeryEdge(f"ev{k}", f"v{k}", f"v{k + 1}", "pushoff:c1") for k in range(1, max_stage)
    ]

    steps = [
        Step("all_minus_one_stein", (("node", "std"),), ("stein", "std")),
        Step("stein_nonzero", (("node", "std"),), ("c_nonzero", "std")),
        _pushforward(edges[0], 0),
        Step("cancel_equivalent", (("node", "v1"), ("node", "std")), ("c_nonzero", "v1")),
    ]
    steps += [_pushforward(edges[k], k) for k in range(1, max_stage)]
    return TowerChain(max_stage, nodes, edges, rank_facts, steps)


def certify_tight(r) -> Certificate:
    """Produce a tightness certificate for r-surgery on the right trefoil.

    Slope 1 is excluded (no tight extension exists there).  Companion
    coefficients that are negative or infinite give the direct Stein-
    fillability derivation (stage 0: no ladder and no reduction path);
    positive ones are split into unit pushoffs, reduced along the
    (-1)-chain, and bridged to the tower ladder.  The root carries its
    presentation inline only at stage 0.  The certificate opens with an
    ``h1_consistency`` audit of each declared node, in node order, each
    recording the cyclic group of the order its manifold fixes
    (``Manifold.expected_h1_order``).
    """
    r = _coerce_coeff(r)
    rp = pushoff_coeff_from_slope(r)  # raises for the excluded slope 1
    stage = _stage(rp)
    root = ContactNode(
        "y0", Manifold.trefoil_surgery(r),
        None if stage else normalize_diagram(trefoil_surgery_diagram(r)),
    )
    path_edges = []
    if stage == 0:
        ladder, ladder_edges, rank_facts = [], [], {}
        steps = [
            Step("all_minus_one_stein", (("node", "y0"),), ("stein", "y0")),
            Step("stein_nonzero", (("node", "y0"),), ("c_nonzero", "y0")),
        ]
    else:
        # k unit pushoffs, then a residual (-1)-chain of length m (m = 0
        # exactly when rp is a unit fraction), whose ids the slope fixes.
        # Cancelling the chain knots last to first reduces the root to
        # tower stage k.
        for i, cid in enumerate(reversed(trefoil_chain_ids(rp, stage)), start=1):
            path_edges.append(SurgeryEdge(f"ey{i}", f"y{i - 1}", f"y{i}", f"cancel:{cid}"))
        chain = build_tower_chain(stage)
        ladder, ladder_edges, rank_facts = chain.nodes, chain.edges, chain.rank_facts
        bottom = path_edges[-1].dst if path_edges else root.nid
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

    # Each declared node names its manifold, whose H1 is cyclic of the
    # order the manifold fixes; the verifier computes the group.
    declared = ladder + [root]
    audits = [
        Step(
            "h1_consistency",
            (("node", n.nid), ("group", _cyclic_text(n.manifold.expected_h1_order()))),
            ("h1", n.nid),
        )
        for n in declared
    ]
    edges = ladder_edges + path_edges
    # The verifier's count that lets it derive the root.
    if stage and len(edges) + 1 != _root_size(rp, stage, len(edges) + 1):
        raise CalculusError(
            f"{len(edges)} edges, but slope {r}'s presentation does not have "
            f"{len(edges) + 1} components"
        )
    return Certificate(
        slope=r,
        conclusion=("tight", "y0"),
        engine_stage=stage,
        nodes={n.nid: n for n in declared},
        edges={e.eid: e for e in edges},
        rank_facts=rank_facts,
        steps=tuple(audits + steps),
    )
