"""The benchmark's workloads: which verb runs on which instance."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    verb: str  # mfplan verb: solve or sweep
    config: str  # instance file, relative to the repository root
    method: str | None  # --method of the solve verb


WORKLOADS = {
    "gibbs-64": Workload("solve", "configs/gibbs.yaml", "both"),
    "congestion-128": Workload("solve", "bench/instances/congestion-128.yaml", "both"),
    "sweep-64": Workload("sweep", "configs/shifted_bump_eps_sweep.yaml", None),
    "power-2x4": Workload("solve", "bench/instances/power-2x4.yaml", "primal"),
}


def cli_args(w: Workload, out: Path, dry_run: bool = False) -> list[str]:
    """Arguments of `mfplan` for one round of the workload."""
    args = [w.verb, "--config", str(ROOT / w.config), "--out", str(out)]
    if w.method is not None:
        args += ["--method", w.method]
    if dry_run:
        args.append("--dry-run")
    return args
