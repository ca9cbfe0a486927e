"""Checks on the artifacts of one `metricfl run` sweep.

Everything is recomputed from the files and the config, without importing
metricfl, so a defect in the program cannot hide in the check.  A cell fails
when any of these does not hold:

- all five artifacts exist;
- ``metrics.csv`` has one row per round run, numbered 0..R-1, with 1 <= R <= T;
- ``ledger.csv`` has U rows per round run, every leakage is exactly n/nu
  (``inf`` when nu = 0), and ``composed_leakage`` is each client's running sum;
- the best validation loss is finite;
- ``hypotheses.txt`` declares k hypotheses of n parameters.

A cell the sweep never reached lacks its artifacts and so fails too.  Problems
outside the cells (exit code, aggregate tables) make the whole run incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

ARTIFACTS = ("config.yaml", "metrics.csv", "ledger.csv", "hypotheses.txt", "hypotheses_final.txt")

# A sum of equal leakages may be formed in another order (or as a product) by
# a later ledger; anything beyond this relative difference is a wrong total.
COMPOSED_REL_TOL = 1e-12


@dataclass
class SweepCheck:
    cells: int = 0
    failed: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    rounds: int = 0
    val_loss: float = math.nan
    digest: str = ""


def n_params(model: dict) -> int:
    if model["kind"] == "linear":
        return model["input_dim"]
    widths = [model["input_dim"], *model.get("hidden", []), model.get("output_dim", 1)]
    return sum(widths[i + 1] * widths[i] + widths[i + 1] for i in range(len(widths) - 1))


def cell_name(nu: float, k: int, seed: int) -> str:
    return f"{nu:g}_{k}_{seed}"


def _read(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_cell(cell_dir: Path, nu: float, k: int, cfg: dict) -> tuple[int, float]:
    """Rounds run and best validation loss of one cell; raises ValueError on a failed check."""
    missing = [name for name in ARTIFACTS if not (cell_dir / name).is_file()]
    if missing:
        raise ValueError(f"missing {', '.join(missing)}")
    fed = cfg["federation"]

    metrics = _read(cell_dir / "metrics.csv")
    rounds = len(metrics)
    if not 1 <= rounds <= fed["T"]:
        raise ValueError(f"{rounds} rounds, T={fed['T']}")
    if [int(row["round"]) for row in metrics] != list(range(rounds)):
        raise ValueError("metrics.csv rounds are not 0..R-1")
    val = [float(row["validation_loss"]) for row in metrics if row["validation_loss"]]
    if not val or not math.isfinite(min(val)):
        raise ValueError("best validation loss is not finite")

    ledger = _read(cell_dir / "ledger.csv")
    if len(ledger) != rounds * fed["U"]:
        raise ValueError(f"{len(ledger)} ledger rows for {rounds} rounds of U={fed['U']}")
    cost = math.inf if nu == 0 else n_params(cfg["model"]) / nu
    running: dict[str, float] = {}
    for row in ledger:
        if not 0 <= int(row["round"]) < rounds:
            raise ValueError(f"ledger round {row['round']} outside 0..{rounds - 1}")
        leakage = float(row["leakage"])
        if leakage != cost:
            raise ValueError(f"leakage {row['leakage']} != n/nu = {cost!r}")
        total = running.get(row["client_id"], 0.0) + leakage
        running[row["client_id"]] = total
        if not math.isclose(float(row["composed_leakage"]), total, rel_tol=COMPOSED_REL_TOL):
            raise ValueError(f"composed_leakage {row['composed_leakage']} != running sum {total!r}")

    header = (cell_dir / "hypotheses.txt").read_text().split("\n", 1)[0]
    if header != f"k={k} n={n_params(cfg['model'])}":
        raise ValueError(f"hypotheses.txt header {header!r}")
    return rounds, min(val)


def check_sweep(exp_dir: Path, cfg: dict, exit_code: int) -> SweepCheck:
    out = SweepCheck()
    if exit_code != 0:
        out.problems.append(f"exit code {exit_code}")
    sweep = cfg["sweep"]
    best: dict[tuple[float, int], list[float]] = {}
    for nu in sweep["nu"]:
        for k in sweep["k"]:
            for seed in sweep["seeds"]:
                out.cells += 1
                name = cell_name(nu, k, seed)
                try:
                    rounds, loss = check_cell(exp_dir / name, nu, k, cfg)
                except (OSError, ValueError, KeyError) as exc:
                    out.failed.append(f"{name}: {exc}")
                    continue
                out.rounds += rounds
                best.setdefault((nu, k), []).append(loss)

    try:
        summary = _read(exp_dir / "summary.csv")
        _read(exp_dir / "budget_summary.csv")
    except OSError as exc:
        out.problems.append(f"aggregate table: {exc}")
        return out
    total = runs = 0.0
    for row in summary:
        nu, k, n = float(row["nu"]), int(row["k"]), int(row["runs"])
        mean = float(row["mean_validation_loss"])
        if (nu, k) in best and not math.isclose(mean, statistics.fmean(best[(nu, k)]), rel_tol=1e-9):
            out.problems.append(f"summary.csv mean for nu={nu:g} k={k} disagrees with the cells")
        total += mean * n
        runs += n
    if runs != out.cells:
        out.problems.append(f"summary.csv covers {runs:g} runs of {out.cells}")
    out.val_loss = total / runs if runs else math.nan

    digest = hashlib.sha256()
    for path in sorted(p for p in exp_dir.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(exp_dir)).encode() + b"\0" + path.read_bytes())
    out.digest = digest.hexdigest()
    return out
