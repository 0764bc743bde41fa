"""The names the benchmark wraps must exist in the program.

bench/round.py wraps module-level names of mfplan from outside and drops
the metrics of any name the program no longer has, which leaves a traced
run without its per-layer metrics.  It rebinds a wrapped function only on
the modules it lists, so a module that binds the function under its own
name calls the original: its calls leave no span and the metric reads 0.
This test runs the wrapping in a fresh interpreter, as a benchmark round
does, and fails on any absent name and on any mfplan module, other than
the function's home module, that still holds a function the wrapping
replaced elsewhere.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import mfplan

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import importlib, json, pkgutil, sys
import mfplan
from mfplan import cli, dual, primal
import round as bench_round
from spans import SpanRecorder

top = [(cli, "load_config"), (cli, "validate_problem"),
       (primal, "solve_primal"), (cli, "solve_primal"),
       (dual, "solve_dual"), (cli, "solve_dual")]
before = [getattr(owner, name, None) for owner, name in top]
modules = [importlib.import_module("mfplan." + m.name)
           for m in pkgutil.iter_modules(mfplan.__path__)]
bound = [(module, name, f) for module in modules
         for name, f in vars(module).items() if callable(f)]
rec = SpanRecorder()
bench_round.wrap_top_level(rec, {})
absent = bench_round.wrap_layers(rec)
print(json.dumps({
    "missing": [name for (owner, name), f in zip(top, before) if f is None],
    "unwrapped": [name for (owner, name), f in zip(top, before)
                  if getattr(owner, name) is f],
    "absent": absent,
    "escaped": sorted(
        f"{module.__name__}.{name}" for module, name, f in bound
        if getattr(module, name) is f
        and getattr(f, "__module__", None) != module.__name__
        and any(g is f and getattr(m, n) is not g for m, n, g in bound)),
}))
"""


def test_benchmark_wraps_every_name():
    src = str(Path(mfplan.__file__).resolve().parents[1])
    path = [src, str(ROOT / "bench"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, cwd=ROOT,
                         check=True, capture_output=True, text=True, timeout=120)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result == {"missing": [], "unwrapped": [], "absent": [],
                      "escaped": []}
