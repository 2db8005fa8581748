"""Emit and verify at large tower stages and on long (-1)-chains.

    python3 tools/sweep.py > sweep.json

Run from the root of a checkout; tightcert is imported from its ``src``.
For the tower slopes (S+1)/S, S in 320, 640 and 1280, the chain slopes
-1/m, m in 600, 1200 and 2400, the nested slopes F(k+1)/F(k) of
Fibonacci numbers, k in 500, 1000 and 2000 (a root of k/2 + 3 knots, each
chain knot a stabilized pushoff of the one before), and the stage-0
slopes F(k)/F(k+1), k in 500, 1000 and 2000 (a nested chain as well, its
root inline in the certificate), it prints one JSON object.  Per slope: emit and verify time in ms, each the thread CPU time
of the best of ``REPEAT`` runs; the certificate's bytes; and verify's
``tracemalloc`` peak in MB, from one more run.  Per axis: the exponent of
each figure in the size, fitted by least squares on logarithms over all
sizes, and between each two consecutive sizes.

Emit is ``certify_tight``, ``certificate_to_dict`` and ``json.dumps``
with indent 2; bytes are that text's length.  Verify is ``json.loads``,
``certificate_from_dict`` and ``check_certificate``, which must accept.
"""

from __future__ import annotations

import json
import math
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tightcert import certify, serialize  # noqa: E402
from tightcert.rationals import SurgeryCoeff  # noqa: E402

TOWER = (320, 640, 1280)
CHAIN = (600, 1200, 2400)
NESTED = (500, 1000, 2000)
STAGE0 = (500, 1000, 2000)
REPEAT = 3
FIGURES = ("emit_ms", "verify_ms", "bytes", "verify_peak_mb")


def _verify(text):
    result = certify.check_certificate(serialize.certificate_from_dict(json.loads(text)))
    if not result.ok:
        raise SystemExit(f"sweep: certificate REJECTED: {result.reason}")


def measure(slope: SurgeryCoeff, repeat: int) -> dict:
    emit = verify = math.inf
    for _ in range(repeat):
        start = time.thread_time()
        text = json.dumps(serialize.certificate_to_dict(certify.certify_tight(slope)), indent=2)
        emit = min(emit, time.thread_time() - start)
        start = time.thread_time()
        _verify(text)
        verify = min(verify, time.thread_time() - start)
    tracemalloc.start()
    try:
        _verify(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "emit_ms": round(emit * 1e3, 2),
        "verify_ms": round(verify * 1e3, 2),
        "bytes": len(text),
        "verify_peak_mb": round(peak / 2**20, 2),
    }


def exponents(sizes, values) -> dict:
    """Least-squares slope of log(value) on log(size), and the slope
    between each two consecutive sizes."""
    xs, ys = [math.log(s) for s in sizes], [math.log(v) for v in values]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    fit = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    steps = [(y2 - y1) / (x2 - x1) for x1, x2, y1, y2 in zip(xs, xs[1:], ys, ys[1:])]
    return {"fit": round(fit, 2), "steps": [round(e, 2) for e in steps]}


def fib(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def sweep(tower=TOWER, chain=CHAIN, nested=NESTED, stage0=STAGE0, repeat=REPEAT) -> dict:
    axes = (
        ("tower", tower, lambda s: SurgeryCoeff(s + 1, s)),
        ("chain", chain, lambda m: SurgeryCoeff(-1, m)),
        ("nested", nested, lambda k: SurgeryCoeff(fib(k + 1), fib(k))),
        ("stage0", stage0, lambda k: SurgeryCoeff(fib(k), fib(k + 1))),
    )
    out = {}
    for axis, sizes, slope in axes:
        rows = [measure(slope(n), repeat) for n in sizes]
        out[axis] = {
            "sizes": list(sizes),
            "slopes": {str(slope(n)): row for n, row in zip(sizes, rows)},
            "exponents": {
                f: exponents(sizes, [max(row[f], 0.01) for row in rows]) for f in FIGURES
            },
        }
    return out


if __name__ == "__main__":
    json.dump(sweep(), sys.stdout, indent=2)
    print()
