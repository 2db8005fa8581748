"""The emit/verify path of the benchmark and the checks on its outcomes.

One certificate goes the way ``tightcert certify --emit`` and
``tightcert verify`` take it: ``certify_tight``, ``certificate_to_dict``
and JSON text as ``serialize.dump_json`` writes it (emit); then a JSON
parse, ``certificate_from_dict`` and ``check_certificate`` (verify).
Only the public API is called, and every call goes through its module
attribute so that the traced run can wrap it.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import sys
import traceback
from time import perf_counter, thread_time

from tightcert import certify, serialize
from tightcert.errors import ExcludedSlopeError
from tightcert.rationals import SurgeryCoeff

import reference
import workloads

# Seconds after which the reference computation is measured again.
REF_EVERY = 0.2
# A certificate that takes longer than this is bracketed by fresh
# measurements of the reference, right before and right after it: one
# measured only before left its scaled times' spread up to 1.8 times as wide.
LONG_S = 0.02


def encode(payload) -> bytes:
    """The bytes ``serialize.dump_json`` writes for ``payload``."""
    return (json.dumps(payload, indent=2, sort_keys=False) + "\n").encode("utf-8")


def decode(blob: bytes):
    return json.loads(blob)


def emit(slope: SurgeryCoeff) -> bytes:
    return encode(serialize.certificate_to_dict(certify.certify_tight(slope)))


def verify(data):
    cert = serialize.certificate_from_dict(data)
    return cert, certify.check_certificate(cert)


class Run:
    """Timed passes over one workload's slopes, with every outcome checked.

    The machines this runs on share their cores, and the same work can run
    up to twice as slow for stretches of a second to minutes.  So every
    emit and verify time is the thread's CPU time, which leaves out the
    time the process waits for a core, scaled by ``reference.NOMINAL_S``
    over the reference computation's CPU time, measured at most
    ``REF_EVERY`` seconds before the certificate; one longer than
    ``LONG_S`` takes the mean of measurements right before and right after
    it.  The scale takes out a core that runs slower while it is shared.
    Each certificate keeps its scaled times from every pass.

    Each slope is one outcome: slope 1 must be refused with
    ``ExcludedSlopeError``; every other certificate must be ACCEPTED, carry
    the engine stage and root homology computed from the slope alone, and
    have the same bytes every time it is emitted.  In the first pass the
    planned targets are also tampered and must be REJECTED; that time is
    kept out of every latency and throughput figure.
    """

    def __init__(self, pairs, seed: int):
        self.pairs = tuple(pairs)
        self.slopes = [SurgeryCoeff(p, q) for p, q in self.pairs]
        self.plan = workloads.plan(self.pairs, seed)
        self.attempted = 0
        self.failed = 0
        self.tampered = 0
        self.refused = 0
        # slope index -> scaled emit and verify seconds, one per pass
        self.emit_s = {}
        self.verify_s = {}
        self.digests = {}  # slope index -> sha256 of its certificate bytes
        self.pass_bytes = 0
        self.pass_scaled = 0.0
        self.pass_times = []  # scaled emit + verify seconds per pass
        self._ref = (float("-inf"), reference.NOMINAL_S)  # (taken at, seconds)
        self.after_visit = None  # called after every visit of a pass

    def reference_s(self, fresh=False) -> float:
        """The reference computation's time, at most REF_EVERY seconds old."""
        if fresh or perf_counter() - self._ref[0] > REF_EVERY:
            ref = reference.measure()
            self._ref = (perf_counter(), ref)
        return self._ref[1]

    # -- outcomes ---------------------------------------------------------

    def _fail(self, idx, why):
        self.failed += 1
        p, q = self.pairs[idx]
        print(f"FAILED slope {p}/{q}: {why}", file=sys.stderr)

    def _refusal(self, idx):
        try:
            certify.certify_tight(self.slopes[idx])
        except ExcludedSlopeError:
            self.refused += 1
            return
        self._fail(idx, "the excluded slope 1 was certified")

    def _judge(self, idx, blob, cert, verdict):
        p, q = self.pairs[idx]
        digest = hashlib.sha256(blob).digest()
        first = self.digests.setdefault(idx, digest)
        if not verdict.ok:
            return f"REJECTED: {verdict.reason}"
        if first != digest:
            return "certificate bytes differ from an earlier emission"
        if str(cert.slope) != str(self.slopes[idx]):
            return f"certificate names slope {cert.slope}"
        stage = workloads.expected_stage(p, q)
        if cert.engine_stage != stage:
            return f"engine stage {cert.engine_stage}, expected {stage}"
        root = cert.conclusion[1]
        groups = [
            s.ref("group")
            for s in cert.steps
            if s.rule == "h1_consistency" and s.ref("node") == root
        ]
        if groups != [workloads.expected_root_group(p)]:
            return f"root h1 audit {groups}, expected Z/{abs(p)}"
        return None

    def _tamper(self, idx, data):
        kind, subseed = self.plan.tamper[idx]
        undo = workloads.tamper(data, kind, subseed)
        try:
            verdict = verify(data)[1]
        finally:
            undo()
        self.attempted += 1
        self.tampered += 1
        if verdict.ok:
            self._fail(idx, f"tampered certificate ({kind}) was ACCEPTED")

    def _one(self, idx, tamper, tracer):
        if tracer is not None:
            tracer.cert = idx
        self.attempted += 1
        if self.pairs[idx] == (1, 1):
            self._refusal(idx)
            return 0.0
        last = self.emit_s.get(idx)
        long = last is not None and last[-1] + self.verify_s[idx][-1] > LONG_S
        # A traced visit keeps the reference out of its spans and GC pauses.
        ref = self.reference_s(fresh=long) if tracer is None else reference.NOMINAL_S
        wall, t0 = perf_counter(), thread_time()
        blob = emit(self.slopes[idx])
        t1 = thread_time()
        data = decode(blob)
        cert, verdict = verify(data)
        t2 = thread_time()
        wall = perf_counter() - wall
        if t2 - t0 > LONG_S and tracer is None:
            ref = (ref + self.reference_s(fresh=True)) / 2
        scale = reference.NOMINAL_S / ref
        problem = self._judge(idx, blob, cert, verdict)
        if problem:
            self._fail(idx, problem)
        else:
            self.emit_s.setdefault(idx, []).append((t1 - t0) * scale)
            self.verify_s.setdefault(idx, []).append((t2 - t1) * scale)
            self.pass_scaled += (t2 - t0) * scale
        self.pass_bytes += len(blob)
        if tamper and idx in self.plan.tamper:
            del cert, blob
            self._tamper(idx, data)
        return wall

    def visit(self, idx, tamper=False, tracer=None) -> float:
        """Emit, verify and check one slope; returns the wall seconds its
        emit and verify took."""
        try:
            return self._one(idx, tamper, tracer)
        except Exception:  # an outcome that raises is a wrong outcome
            self._fail(idx, traceback.format_exc())
            return 0.0

    def one_pass(self, tamper=False) -> float:
        """Visit every slope once in the seeded order; returns the pass's
        scaled emit and verify seconds."""
        self.pass_bytes = 0
        self.pass_scaled = 0.0
        for idx in self.plan.order:
            self.visit(idx, tamper)
            if self.after_visit is not None:
                self.after_visit()
        self.pass_times.append(self.pass_scaled)
        return self.pass_scaled

    def passes(self, seconds: float, min_passes: int, between=None):
        """Whole passes, the first with tamper checks, until another would
        end after ``seconds``; at least ``min_passes``.  ``between`` is
        called after each pass, and its time counts toward ``seconds``."""
        start = perf_counter()
        while True:
            self.one_pass(tamper=not self.pass_times)
            if between is not None:
                between()
            done = len(self.pass_times)
            elapsed = perf_counter() - start
            if done >= min_passes and elapsed + elapsed / done > seconds:
                return

    def echo(self):
        """Emit the planned slope once more; its bytes must not change."""
        idx = self.plan.echo
        self.attempted += 1
        if self.digests.get(idx) != hashlib.sha256(emit(self.slopes[idx])).digest():
            self._fail(idx, "second emission gave different bytes")

    def digest(self) -> str:
        """sha256 over the per-slope digests in canonical slope order."""
        h = hashlib.sha256()
        for idx in sorted(self.digests):
            h.update(self.digests[idx])
        return h.hexdigest()


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def per_certificate(samples: dict) -> dict:
    """slope index -> lower median of its scaled seconds over the passes."""
    return {idx: statistics.median_low(times) for idx, times in samples.items()}


def over_passes(samples: dict, stat) -> float:
    """``stat`` of the certificates' scaled seconds in each pass, then the
    median over the passes.  Grid has time for two or three passes, and
    the median of either stays put, where each certificate's fastest or
    lower-median time would shift with the number of passes."""
    passes = max(map(len, samples.values()))
    return statistics.median(
        stat([times[k] for times in samples.values() if len(times) > k])
        for k in range(passes)
    )


def stage_medians(run: Run):
    """stage -> (median emit s, median verify s, median emit+verify s,
    certificates) over each certificate's lower median of its scaled
    times, for the positive stages present."""
    emits, verifies = per_certificate(run.emit_s), per_certificate(run.verify_s)
    by_stage = {}
    for idx, e in emits.items():
        stage = workloads.expected_stage(*run.pairs[idx])
        if stage >= 1:
            by_stage.setdefault(stage, []).append((e, verifies[idx]))
    return {
        s: (
            statistics.median(e for e, _ in rows),
            statistics.median(v for _, v in rows),
            statistics.median(e + v for e, v in rows),
            len(rows),
        )
        for s, rows in sorted(by_stage.items())
    }


def loglog_slope(points) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )
