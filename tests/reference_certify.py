"""Earlier derivations of the verifier and the emitter, kept as references.

``reference_walk`` is the edge walk as it was before it counted each
node's readers, a reference for ``node_presentations``.  It performs
every edge's move on an immutable copy of its source, and lets a
presentation go, through the ``_LET_GO`` marker, once no later edge starts
from it.  Like ``verify._walk`` it also returns the manifold each edge
gives its target, where it gives one.

``reference_chain_ids`` reads the (-1)-chain knots' ids off the built
root, as the emitter did before ``diagrams.trefoil_chain_ids`` read them
off the slope.

``reference_rank_facts`` runs the rank engine for the ladder's rank
facts, as the emitter did before ``build_tower_chain`` wrote the table
the stage fixes.
"""

from __future__ import annotations

from tightcert.verify import _DERIVED, _root
from tightcert.diagrams import (
    PUSHOFF,
    normalize_diagram,
    plus_one_surgery,
    trefoil_surgery_diagram,
)
from tightcert.errors import CalculusError
from tightcert.floer import base_facts, engine_triangles, propagate
from tightcert.rationals import SurgeryCoeff

_MINUS_ONE = SurgeryCoeff(-1)

# Stands in for a presentation that was built and then let go.
_LET_GO = object()


def reference_node_presentations(cert, keep=None):
    return reference_walk(cert, keep)[0]


def reference_walk(cert, keep=None):
    built = {nid: n.diagram for nid, n in cert.nodes.items()}
    last = {}
    if keep is not None:
        last = {e.src: k for k, e in enumerate(cert.edges.values())}
    root = cert.nodes.get(cert.conclusion[1])
    if root is not None and root.diagram is None:
        built[root.nid] = _root(cert, root)[0]
    manifolds = {nid: n.manifold for nid, n in cert.nodes.items()}
    derived = {}
    for k, e in enumerate(cert.edges.values()):
        if built.get(e.src) is None:
            problem = f"source {e.src!r} has no presentation yet"
        elif e.dst not in built or built[e.dst] is not None:
            problem = f"target {e.dst!r} is not a declared node without a presentation"
        elif manifolds[e.dst] is not None:
            problem = (f"target {e.dst!r} names {manifolds[e.dst].text()}, "
                       "but a node an edge builds names no manifold")
        else:
            source = derived.get(e.src, manifolds[e.src])
            cancel = e.witness.startswith("cancel:")
            make = None if source is None else _DERIVED.get((source.kind, e.witness))
            if make is None and not cancel:
                name = "a node that names no manifold" if source is None else source.text()
                problem = f"witness {e.witness!r} on {name} gives no manifold"
            else:
                try:
                    built[e.dst] = plus_one_surgery(built[e.src], e.witness)
                except CalculusError as exc:
                    problem = str(exc)
                else:
                    if make is not None:
                        derived[e.dst] = make(source.p)
                    if last.get(e.src) == k and e.src not in keep:
                        built[e.src] = _LET_GO
                    continue
        raise CalculusError(f"edge {e.eid}: {problem}")
    for nid, diagram in built.items():
        if diagram is None:
            raise CalculusError(f"node {nid}: no inline presentation and no edge into it")
    if keep is None:
        return built, derived
    return {nid: built[nid] for nid in keep if nid in built}, derived


def reference_chain_ids(r):
    """The ids of the (-1)-chain knots of slope r's normalized root, in
    creation order: its (-1)-components other than the trefoil."""
    diagram = normalize_diagram(trefoil_surgery_diagram(r))
    return [c.cid for c in diagram.components if c.kind == PUSHOFF and c.coeff == _MINUS_ONE]


def reference_rank_facts(stage):
    """The exact rank of each manifold the ladder of ``stage`` cites, from
    a fresh propagation over ``engine_triangles(stage)``, keyed by the
    family's own vertices: s3 and s1xs2 from the unknot triangle, then the
    Poincare sphere and -tower(k) from the stage-k triangle at index k."""
    family = engine_triangles(stage)
    run = propagate(base_facts(), family)
    if not run.consistent:
        raise CalculusError(f"rank engine contradiction: {run.contradiction.detail}")
    unknot, stages = family[0], family[1 : stage + 1]
    return {
        m: run.db.exact_value(m)
        for m in [unknot.a, unknot.b, stages[0].c] + [tri.a for tri in stages]
    }
