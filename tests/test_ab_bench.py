"""The summary of tools/ab_bench.py, on made-up paired runs."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)

METRICS = [{"name": "primal_s", "unit": "s", "better": "lower"},
           {"name": "rate", "unit": "1/s", "better": "higher"}]


def test_quartiles_inclusive():
    assert ab_bench.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab_bench.quartiles([1.0, 2.0, 3.0, 4.0]) == pytest.approx((1.75, 2.5, 3.25))
    assert ab_bench.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_medians_quartiles_and_wins():
    parent = [{"primal_s": v, "rate": r} for v, r in
              [(1.0, 5.0), (1.2, 5.0), (0.9, 6.0), (1.1, 4.0), (1.3, 5.0)]]
    change = [{"primal_s": v, "rate": r} for v, r in
              [(0.8, 6.0), (0.7, 5.0), (0.95, 7.0), (0.6, 3.0), (0.75, 5.5)]]
    lines = ab_bench.summarize(parent, change, METRICS)
    assert lines == [
        "primal_s: 1.100 [1.000, 1.200] -> 0.750 [0.700, 0.800] s, better in 4 of 5;",
        "  median gain 0.350 against a parent quartile spread of 0.200",
        "rate: 5.000 [5.000, 5.000] -> 5.500 [5.000, 6.000] 1/s, better in 3 of 5;",
        "  median gain 0.500 against a parent quartile spread of 0.000",
    ]
