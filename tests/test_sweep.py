"""Smoke test of tools/sweep.py at tiny sizes."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

SWEEP = Path(__file__).resolve().parent.parent / "tools" / "sweep.py"


def test_sweep_reports_every_figure_at_tiny_sizes():
    spec = importlib.util.spec_from_file_location("sweep", SWEEP)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    out = sweep.sweep(tower=(4, 8), chain=(5, 10), nested=(6, 12), stage0=(6, 12), repeat=1)
    assert list(out) == ["tower", "chain", "nested", "stage0"]
    assert list(out["tower"]["slopes"]) == ["5/4", "9/8"]
    assert list(out["chain"]["slopes"]) == ["-1/5", "-1/10"]
    assert list(out["nested"]["slopes"]) == ["13/8", "233/144"]
    assert list(out["stage0"]["slopes"]) == ["8/13", "144/233"]
    for axis in out.values():
        for row in axis["slopes"].values():
            assert sorted(row) == sorted(sweep.FIGURES)
            assert row["bytes"] > 0 and row["verify_peak_mb"] > 0
        for figure in sweep.FIGURES:
            assert len(axis["exponents"][figure]["steps"]) == 1
    assert json.loads(json.dumps(out)) == out
