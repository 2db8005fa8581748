"""Run one tightcert benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tower --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
With ``--trace 0`` the run times whole passes over the workload and
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced passes and reports the per-layer metrics and the tracing
overhead.  Both check every outcome.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 15  # spawned at even intervals over the run
# Off the tower workload, stage_exponent comes from this fixed probe so the
# metric means the same on every workload.
PROBE_STAGES = (4, 8, 16, 32)
PROBE_ROUNDS = 2  # per pass


def _load_package():
    """Import tightcert from this checkout's sources, and nothing else."""
    if not (SRC / "tightcert" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tightcert package under {SRC}")
    sys.path.insert(0, str(SRC))
    import tightcert

    if Path(tightcert.__file__).resolve().parent != (SRC / "tightcert").resolve():
        sys.exit(f"perfbench: tightcert was imported from outside {SRC}")


def spawn_ready(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter running ready.py to the
    moment it reports ready.  perf_counter is one clock for every process
    on the machine.

    Unlike the latencies, this is not scaled by the reference computation:
    set-up is mostly process start, file reads and unmarshalling, and did
    not follow the reference's speed."""
    start = perf_counter()
    out = subprocess.run(
        [sys.executable, str(HERE / "ready.py"), workload, str(seed)],
        check=True, timeout=120, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True,
    ).stdout
    return float(out.split()[-1]) - start


def timed(spec, seed, seconds):
    """Timed passes over the workload.  Set-up probes are spawned at even
    intervals over the run, and, off the tower workload, rounds of the
    tower probe run between passes, so that these samples too are spread
    over the whole run."""
    import pipeline
    import reference

    spawn_ready(spec.name, seed)  # may also warm file and bytecode caches
    setups = []
    run = pipeline.Run(spec.pairs, seed)
    probe = None if spec.name == "tower" else pipeline.Run(
        [(s, s - 1) for s in PROBE_STAGES], seed)
    start = perf_counter()

    def after_visit():
        if perf_counter() - start >= len(setups) * seconds / SETUP_SAMPLES:
            setups.append(spawn_ready(spec.name, seed))

    def between():
        for _ in range(PROBE_ROUNDS if probe is not None else 0):
            probe.one_pass()

    run.after_visit = after_visit
    run.passes(seconds, spec.min_passes, between)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn_ready(spec.name, seed))
    run.echo()
    staged = run if probe is None else probe
    medians = pipeline.stage_medians(staged)
    exponent = pipeline.loglog_slope([(s, m[2]) for s, m in medians.items()])
    if probe is not None:
        run.attempted += probe.attempted
        run.failed += probe.failed

    def tail(values):
        return pipeline.percentile(values, spec.tail_pct)

    n = len(run.emit_s)
    passes = len(run.pass_times)
    print(f"{spec.name} seed {seed}: {passes} passes, {n} certificates, "
          f"{run.refused} refusals, {run.tampered} tampered certificates rejected")
    print(f"times are thread CPU times scaled to the reference computation's "
          f"{reference.NOMINAL_S * 1e3:.0f} ms; latencies are taken over the {n} certificates "
          f"of each pass, emit_ms_tail and verify_ms_tail at p{spec.tail_pct}, "
          f"and reported as the median over {passes} passes")
    print(f"certificate bytes: sha256 {run.digest()}")
    source = "the workload's stages" if probe is None else f"the tower probe S = {PROBE_STAGES}"
    print(f"stage_exponent {exponent:.3f} from {source}; per-stage medians:")
    for stage, (e, v, ev, count) in medians.items():
        print(f"  S={stage:3d}  emit {e * 1e3:9.2f} ms  verify {v * 1e3:9.2f} ms  "
              f"emit+verify {ev * 1e3:9.2f} ms  ({count} certificates)")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "emit_ms_p50": (pipeline.over_passes(run.emit_s, statistics.median) * 1e3, "ms"),
        "emit_ms_tail": (pipeline.over_passes(run.emit_s, tail) * 1e3, "ms"),
        "verify_ms_p50": (pipeline.over_passes(run.verify_s, statistics.median) * 1e3, "ms"),
        "verify_ms_tail": (pipeline.over_passes(run.verify_s, tail) * 1e3, "ms"),
        "certs_per_s": (n / statistics.median(run.pass_times), "1/s"),
        "cert_bytes": (run.pass_bytes, "bytes"),
        "peak_rss_mb": (peak_mb, "MB"),
        "stage_exponent": (exponent, "1"),
    }
    return run, metrics


def traced(spec, seed, seconds):
    """Traced passes over the workload.  Each slope runs twice in a row,
    untraced and then traced, so that the tracing overhead is measured in
    pairs that share the machine's speed of the moment."""
    import pipeline
    import tracing

    run = pipeline.Run(spec.pairs, seed)
    tracer = tracing.Tracer()
    plain, traced_s, layers = [], [], []
    start = perf_counter()
    while True:
        tracer.begin_pass()
        untraced = with_trace = 0.0
        for idx in run.plan.order:
            untraced += run.visit(idx, tamper=not layers)
            tracer.install()
            try:
                with_trace += run.visit(idx, tracer=tracer)
            finally:
                tracer.uninstall()
        layers.append(tracer.end_pass())
        plain.append(untraced)
        traced_s.append(with_trace)
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(layers) > seconds:
            break
    run.echo()
    spans = OUT / f"spans-{spec.name}-seed{seed}.json.gz"
    tracer.write(spans)

    overhead = sum(traced_s) - sum(plain)
    base = sum(plain)
    print(f"{spec.name} seed {seed}: {len(layers)} passes, each slope untraced then traced; "
          f"untraced {base:.3f} s, traced {sum(traced_s):.3f} s in all; "
          f"{len(tracer.rows)} spans written to {spans.relative_to(ROOT)}")
    metrics = {
        name: (statistics.median_low(layer[name] for layer in layers), unit)
        for name, (unit, _) in tracing.METRICS.items()
        if not name.startswith("trace.overhead")
    }
    metrics["trace.overhead_ms"] = (overhead / len(layers) * 1e3, "ms")
    metrics["trace.overhead_share"] = (overhead / base, "ratio")
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_package()
    import workloads

    try:
        spec = workloads.spec(args.workload)
    except KeyError as exc:
        parser.error(str(exc))
    run, metrics = (traced if args.trace else timed)(spec, args.seed, args.seconds)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
