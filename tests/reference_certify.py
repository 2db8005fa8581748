"""The edge walk of ``tightcert.certify`` as it was before it counted each
node's readers, kept as a reference for ``node_presentations``.

``reference_node_presentations`` performs every edge's move on an
immutable copy of its source, and lets a presentation go, through the
``_LET_GO`` marker, once no later edge starts from it.
"""

from __future__ import annotations

from tightcert.certify import _DERIVED, _derived_root, _fields, _reduction_stage
from tightcert.diagrams import plus_one_surgery
from tightcert.errors import CalculusError
from tightcert.topology import Manifold

# Stands in for a presentation that was built and then let go.
_LET_GO = object()


def reference_node_presentations(cert, keep=None):
    built = {nid: n.diagram for nid, n in cert.nodes.items()}
    last = {}
    if keep is not None:
        last = {e.src: k for k, e in enumerate(cert.edges.values())}
    root = cert.conclusion[1]
    if root in built and built[root] is None:
        built[root] = _derived_root(cert)
    cancels = 0
    for k, e in enumerate(cert.edges.values()):
        if built.get(e.src) is None:
            problem = f"source {e.src!r} has no presentation yet"
        elif e.dst not in built or built[e.dst] is not None:
            problem = f"target {e.dst!r} is not a declared node without a presentation"
        else:
            source, declared = cert.nodes[e.src].manifold, cert.nodes[e.dst].manifold
            if e.witness.startswith("cancel:"):
                cancels += 1
                gives = _fields(_reduction_stage(cert.slope, cancels))
            else:
                make = _DERIVED.get((source.kind, e.witness))
                gives = make and make(source.p)
            if gives is None:
                problem = f"witness {e.witness!r} on {source.text()} gives no manifold"
            elif gives != _fields(declared):
                problem = (f"target {e.dst!r} is declared {declared.text()}, "
                           f"the edge gives {Manifold(*gives).text()}")
            else:
                try:
                    built[e.dst] = plus_one_surgery(built[e.src], e.witness)
                except CalculusError as exc:
                    problem = str(exc)
                else:
                    if last.get(e.src) == k and e.src not in keep:
                        built[e.src] = _LET_GO
                    continue
        raise CalculusError(f"edge {e.eid}: {problem}")
    for nid, diagram in built.items():
        if diagram is None:
            raise CalculusError(f"node {nid}: no inline presentation and no edge into it")
    if keep is None:
        return built
    return {nid: built[nid] for nid in keep if nid in built}
