"""The traced run: spans around the public functions of each layer.

``Tracer.install`` replaces each listed function by a wrapper, in its
defining module and under every name another tightcert module imported it
as, and ``uninstall`` puts the originals back.  A span is one row
[name, start ns, end ns, parent row, certificate index]; rows stay in
memory and are written out at the end.  Self time is a span's duration
minus the durations of its direct children.

Hot inner methods such as ``ContactDiagram.linking`` are deliberately not
wrapped: at about a million calls per tower certificate, wrapping them
would distort the very numbers being measured.
"""

from __future__ import annotations

import gc
import gzip
import importlib
import json
import sys
from time import perf_counter_ns

import pipeline


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _iso(counts, args, out):
    _add(counts, "diagrams.iso_components", len(args[0]))


def _cancel(counts, args, out):
    _add(counts, "diagrams.cancel_removed", len(args[0]) - len(out))


def _snf(counts, args, out):
    m = args[0]
    n = m.size * m.size if hasattr(m, "size") else len(m) * (len(m[0]) if m else 0)
    _add(counts, "topology.matrix_entries", n)


def _propagate(counts, args, out):
    _add(counts, "floer.rounds", out.rounds)
    _add(counts, "floer.triangles", len(args[1]))


def _emitted(counts, args, out):
    _add(counts, "certify.steps", len(out.steps))
    _add(counts, "certify.edges", len(out.edges))
    _add(counts, "certify.nodes", len(out.nodes))


def _encoded(counts, args, out):
    _add(counts, "serialize.bytes", len(out))


# (module, function) -> (span name, counter or None).  A counter adds the
# call's work, read from its arguments and result, to the pass's counts.
SPANS = {
    ("rationals", "coeff"): ("rationals.coeff", None),
    ("rationals", "neg_continued_fraction"): ("rationals.neg_continued_fraction", None),
    ("rationals", "eval_continued_fraction"): ("rationals.eval_continued_fraction", None),
    ("rationals", "slope_from_pushoff_coeff"): ("rationals.slope_from_pushoff_coeff", None),
    ("rationals", "pushoff_coeff_from_slope"): ("rationals.pushoff_coeff_from_slope", None),
    ("rationals", "residual_coeff"): ("rationals.residual_coeff", None),
    ("rationals", "min_split_count"): ("rationals.min_split_count", None),
    ("diagrams", "diagram_iso"): ("diagrams.iso", _iso),
    ("diagrams", "tower_diagram"): ("diagrams.tower", None),
    ("diagrams", "contact_pushoff"): ("diagrams.pushoff", None),
    ("diagrams", "normalize_diagram"): ("diagrams.normalize", None),
    ("diagrams", "cancel_pushoff_pairs"): ("diagrams.cancel", _cancel),
    ("diagrams", "remove_component"): ("diagrams.remove", None),
    ("topology", "linking_matrix"): ("topology.linking_matrix", None),
    ("topology", "smith_normal_form"): ("topology.snf", _snf),
    ("topology", "h1"): ("topology.h1", None),
    ("floer", "propagate"): ("floer.propagate", _propagate),
    ("certify", "build_tower_chain"): ("certify.chain", None),
    ("certify", "certify_tight"): ("certify.emit", _emitted),
    ("certify", "check_certificate"): ("certify.check", None),
    ("serialize", "certificate_to_dict"): ("serialize.to_dict", None),
    ("serialize", "certificate_from_dict"): ("serialize.from_dict", None),
}

# The benchmark's own JSON steps, wrapped in the pipeline module.
OWN_SPANS = {
    "encode": ("serialize.json_encode", _encoded),
    "decode": ("serialize.json_decode", None),
}

PARSE_SPAN = "rationals.parse"  # SurgeryCoeff.parse, a classmethod

# Per-layer metrics: name -> (unit, better).  Times are per pass.
METRICS = {
    "rationals.ms": ("ms", "lower"),
    "rationals.calls": ("count", "lower"),
    "diagrams.iso_ms": ("ms", "lower"),
    "diagrams.iso_calls": ("count", "lower"),
    "diagrams.iso_components": ("count", "lower"),
    "diagrams.tower_ms": ("ms", "lower"),
    "diagrams.tower_calls": ("count", "lower"),
    "diagrams.pushoff_calls": ("count", "lower"),
    "diagrams.normalize_ms": ("ms", "lower"),
    "diagrams.cancel_ms": ("ms", "lower"),
    "diagrams.cancel_removed": ("count", "lower"),
    "diagrams.remove_calls": ("count", "lower"),
    "topology.linking_matrix_ms": ("ms", "lower"),
    "topology.snf_ms": ("ms", "lower"),
    "topology.h1_calls": ("count", "lower"),
    "topology.matrix_entries": ("count", "lower"),
    "floer.propagate_ms": ("ms", "lower"),
    "floer.propagate_calls": ("count", "lower"),
    "floer.rounds": ("count", "lower"),
    "floer.triangles": ("count", "lower"),
    "certify.chain_ms": ("ms", "lower"),
    "certify.chain_calls": ("count", "lower"),
    "certify.emit_self_ms": ("ms", "lower"),
    "certify.check_self_ms": ("ms", "lower"),
    "certify.steps": ("count", "lower"),
    "certify.edges": ("count", "lower"),
    "certify.nodes": ("count", "lower"),
    "serialize.to_dict_ms": ("ms", "lower"),
    "serialize.json_encode_ms": ("ms", "lower"),
    "serialize.json_decode_ms": ("ms", "lower"),
    "serialize.from_dict_ms": ("ms", "lower"),
    "serialize.bytes": ("bytes", "lower"),
    "gc.pause_ms": ("ms", "lower"),
    "gc.collections_gen2": ("count", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}

# Metric -> the span whose total duration (ms), self time (ms) or call
# count it is.
_DURATION = {
    "diagrams.iso_ms": "diagrams.iso",
    "diagrams.tower_ms": "diagrams.tower",
    "diagrams.normalize_ms": "diagrams.normalize",
    "diagrams.cancel_ms": "diagrams.cancel",
    "topology.linking_matrix_ms": "topology.linking_matrix",
    "topology.snf_ms": "topology.snf",
    "floer.propagate_ms": "floer.propagate",
    "certify.chain_ms": "certify.chain",
    "serialize.to_dict_ms": "serialize.to_dict",
    "serialize.json_encode_ms": "serialize.json_encode",
    "serialize.json_decode_ms": "serialize.json_decode",
    "serialize.from_dict_ms": "serialize.from_dict",
}
_SELF = {
    "certify.emit_self_ms": "certify.emit",
    "certify.check_self_ms": "certify.check",
}
_CALLS = {
    "diagrams.iso_calls": "diagrams.iso",
    "diagrams.tower_calls": "diagrams.tower",
    "diagrams.pushoff_calls": "diagrams.pushoff",
    "diagrams.remove_calls": "diagrams.remove",
    "topology.h1_calls": "topology.h1",
    "floer.propagate_calls": "floer.propagate",
    "certify.chain_calls": "certify.chain",
}

# Metrics the counters above fill in.
COUNTED = (
    "diagrams.iso_components", "diagrams.cancel_removed", "topology.matrix_entries",
    "floer.rounds", "floer.triangles", "certify.steps", "certify.edges",
    "certify.nodes", "serialize.bytes",
)


class Tracer:
    """Span recorder for one traced run; inactive until ``install``."""

    def __init__(self):
        self.names = [span for span, _ in SPANS.values()]
        self.names += [span for span, _ in OWN_SPANS.values()] + [PARSE_SPAN]
        self.rows = []
        self.cert = -1
        self._stack = []
        self._patches = []
        self._counts = {}
        self._gc_start = 0
        self._gc_pause_ns = 0
        self._gc_gen2 = 0
        self._pass_start = 0

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn, counter):
        code = self.names.index(name)
        rows, stack, counts = self.rows, self._stack, self._counts

        def wrapper(*args, **kwargs):
            row = [code, 0, 0, stack[-1] if stack else -1, self.cert]
            stack.append(len(rows))
            rows.append(row)
            row[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                row[2] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                counter(counts, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter_ns()
        else:
            self._gc_pause_ns += perf_counter_ns() - self._gc_start
            if info["generation"] == 2:
                self._gc_gen2 += 1

    def _sites(self):
        """(holder, attribute, original, wrapper) for every place a listed
        function is reachable: its defining module and every tightcert
        module that imported it, under whatever name."""
        package = [
            m for n, m in sorted(sys.modules.items())
            if n == "tightcert" or n.startswith("tightcert.")
        ]
        sites = []
        for (module, fname), (span, counter) in SPANS.items():
            original = getattr(importlib.import_module(f"tightcert.{module}"), fname)
            wrapper = self._wrap(span, original, counter)
            for mod in package:
                for key, value in vars(mod).items():
                    if value is original:
                        sites.append((mod, key, original, wrapper))
        for fname, (span, counter) in OWN_SPANS.items():
            original = getattr(pipeline, fname)
            sites.append((pipeline, fname, original, self._wrap(span, original, counter)))
        from tightcert.rationals import SurgeryCoeff

        parse = SurgeryCoeff.__dict__["parse"]
        wrapper = classmethod(self._wrap(PARSE_SPAN, parse.__func__, None))
        sites.append((SurgeryCoeff, "parse", parse, wrapper))
        return sites

    def install(self):
        """Put every wrapper in place and start timing GC pauses."""
        if not self._patches:
            self._patches = self._sites()
        for holder, key, _, wrapper in self._patches:
            setattr(holder, key, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        """Put every original back and stop timing GC pauses."""
        gc.callbacks.remove(self._on_gc)
        for holder, key, original, _ in self._patches:
            setattr(holder, key, original)

    # -- per-pass results ---------------------------------------------------

    def begin_pass(self):
        self._pass_start = len(self.rows)
        self._counts.clear()
        self._gc_pause_ns = 0
        self._gc_gen2 = 0

    def end_pass(self) -> dict:
        """Per-layer figures of the pass since ``begin_pass``."""
        base = self._pass_start
        rows = self.rows[base:]
        child = [0] * len(rows)
        for _, t0, t1, parent, _ in rows:
            if parent >= base:
                child[parent - base] += t1 - t0
        dur, self_ns, calls = {}, {}, {}
        for (code, t0, t1, _, _), inner in zip(rows, child):
            name = self.names[code]
            dur[name] = dur.get(name, 0) + (t1 - t0)
            self_ns[name] = self_ns.get(name, 0) + (t1 - t0 - inner)
            calls[name] = calls.get(name, 0) + 1
        rationals = [n for n in self.names if n.startswith("rationals.")]
        out = dict.fromkeys(COUNTED, 0)
        out.update({
            "rationals.ms": sum(self_ns.get(n, 0) for n in rationals) / 1e6,
            "rationals.calls": sum(calls.get(n, 0) for n in rationals),
            "gc.pause_ms": self._gc_pause_ns / 1e6,
            "gc.collections_gen2": self._gc_gen2,
            "trace.spans": len(rows),
        })
        out.update({m: dur.get(n, 0) / 1e6 for m, n in _DURATION.items()})
        out.update({m: self_ns.get(n, 0) / 1e6 for m, n in _SELF.items()})
        out.update({m: calls.get(n, 0) for m, n in _CALLS.items()})
        out.update(self._counts)
        return out

    def write(self, path):
        """Write every recorded span, gzip-compressed JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(
                {
                    "columns": ["name", "start_ns", "end_ns", "parent", "cert"],
                    "names": self.names,
                    "rows": self.rows,
                },
                fh,
                separators=(",", ":"),
            )
