"""Self-check of the benchmark; exits 1 at the first check that fails.

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  It takes a few seconds and checks
that:

* the same seed gives the same slope order, tamper plan and mutations;
* a small slice of every workload runs in a few seconds with no failure,
  and each of its tampered certificates is counted as rejected;
* a forced wrong verdict, either way, makes the run count failures;
* the emitted bytes equal the file ``tightcert certify --emit`` writes;
* the timed and traced runs report exactly the metrics, with the units,
  that BENCHMARK.json lists, and the traced run puts back every function
  it wrapped.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import io
import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from tightcert import certify, cli  # noqa: E402
from tightcert.certify import VerificationResult  # noqa: E402
from tightcert.rationals import SurgeryCoeff  # noqa: E402

import pipeline  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# Cheap slopes from each workload's families, at least four of them on the
# positive branch so that every mutation kind is planned.
SMOKE = {
    "tower": ((4, 3), (8, 7), (12, 11), (16, 15)),
    "grid": ((1, 1), (0, 1), (2, 1), (3, 2), (-2, 3), (5, 4), (-7, 2), (1, 3)),
    "chain": ((-1, 5), (24, 49), (-250, 1), (13, 8), (8, 13), (21, 13), (34, 21)),
}
SMOKE_SECONDS = 10.0
SEED = 3


def check(ok: bool, what: str):
    if not ok:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def check_plans():
    for name in workloads.NAMES:
        pairs = workloads.spec(name).pairs
        check(workloads.plan(pairs, SEED) == workloads.plan(pairs, SEED),
              f"{name}: the same seed gives the same order and tamper plan")
        check(workloads.plan(pairs, SEED).order != workloads.plan(pairs, SEED + 1).order,
              f"{name}: another seed gives another order")
    data = pipeline.decode(pipeline.emit(SurgeryCoeff(17, 16)))
    for kind in workloads.TAMPER_KINDS:
        a, b = copy.deepcopy(data), copy.deepcopy(data)
        workloads.tamper(a, kind, 12345)
        undo = workloads.tamper(b, kind, 12345)
        check(a == b and a != data, f"the same seed gives the same {kind} mutation")
        undo()
        check(b == data, f"the {kind} mutation is undone")


def check_smoke():
    for name in workloads.NAMES:
        start = perf_counter()
        r = pipeline.Run(SMOKE[name], SEED)
        r.one_pass(tamper=True)
        r.echo()
        elapsed = perf_counter() - start
        kinds = sorted(kind for kind, _ in r.plan.tamper.values())
        check(r.failed == 0 and r.attempted == len(SMOKE[name]) + r.tampered + 1,
              f"{name}: smoke pass has no failure ({r.attempted} outcomes)")
        check(r.tampered == len(r.plan.tamper) and kinds == sorted(workloads.TAMPER_KINDS),
              f"{name}: every mutation kind was rejected")
        check(elapsed < SMOKE_SECONDS, f"{name}: smoke pass took {elapsed:.2f} s")


def check_forced_verdicts():
    original = certify.check_certificate
    for verdict, what in ((True, "accepts"), (False, "rejects")):
        certify.check_certificate = lambda cert, v=verdict: VerificationResult(v)
        try:
            r = pipeline.Run(SMOKE["tower"], SEED)
            with contextlib.redirect_stderr(io.StringIO()):  # the expected FAILED lines
                r.one_pass(tamper=True)
        finally:
            certify.check_certificate = original
        expected = r.tampered if verdict else len(SMOKE["tower"])
        check(r.failed == expected and r.failed > 0,
              f"a verifier that always {what} gives {r.failed} failures")


def check_bytes():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        path = Path(tmp) / "cert.json"
        code = cli.main(["certify", "--r", "17/16", "--emit", str(path)])
        check(code == 0 and path.read_bytes() == pipeline.emit(SurgeryCoeff(17, 16)),
              "emitted bytes equal the file `tightcert certify --emit` writes")


def _declared(metrics):
    return {m["name"]: m["unit"] for m in metrics}


def check_runs():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = workloads.Spec("chain", SMOKE["chain"], min_passes=1, tail_pct=88)
    r, metrics = run.timed(spec, SEED, 0)
    check(r.failed == 0 and {k: u for k, (_, u) in metrics.items()}
          == _declared(bench["end_to_end"]),
          "the timed run reports the end-to-end metrics of BENCHMARK.json")
    originals = {name: getattr(certify, name) for name in vars(certify)}
    parse = SurgeryCoeff.__dict__["parse"]
    callbacks = list(gc.callbacks)
    spec = workloads.Spec("tower", SMOKE["tower"], min_passes=1, tail_pct=68)
    r, metrics = run.traced(spec, SEED, 0)
    check(r.failed == 0 and {k: u for k, (_, u) in metrics.items()}
          == _declared(bench["per_layer"]),
          "the traced run reports the per-layer metrics of BENCHMARK.json")
    check(all(v > 0 for k, (v, _) in metrics.items() if k.endswith("_calls")),
          "every traced call counter moved")
    check(all(getattr(certify, n) is f for n, f in originals.items())
          and SurgeryCoeff.__dict__["parse"] is parse and gc.callbacks == callbacks,
          "the traced run put back every function it wrapped")


if __name__ == "__main__":
    check_plans()
    check_smoke()
    check_forced_verdicts()
    check_bytes()
    check_runs()
    print("selfcheck passed")
