"""Sweep benchmark for metricfl: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload tabular --seed 0 --seconds 45 --trace 0

Run from anywhere inside a source checkout; the program is imported from the
checkout's ``src/``.  The loop is closed: one ``metricfl run --config ...
--out <tmp>`` sweep at a time, each in a fresh interpreter, for about
``--seconds`` of sweeping (one sweep at least).  Every sweep's artifacts are
checked (checks.py) and repeated sweeps must write identical files.

--trace 0 prints the end-to-end metrics (set-up time, sweep wall time and
rounds per second, all at the reference pace of pace.py, and peak memory),
the times as timed, the validation loss and the failed-cell share.  --trace 1
runs the sweep once untraced and once under the tracer (tracer.py) and
prints the per-layer metrics instead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Workloads (README.md gives the reasons and the layer map):
  tabular    configs/tabular.yaml, 20 cells of 60 rounds on configs/fixture.csv
  ragged     ragged.yaml, one 300-round cell on a table with 1..64 rows per client
  synthetic  configs/synthetic.yaml, 40 cells that stop early after 30..400 rounds;
             for traced runs by hand, not listed in BENCHMARK.json

Seed 0 runs the shipped inputs unchanged.  Seed s > 0 adds s times the number
of sweep seeds to every sweep seed and regenerates the input table
(``metricfl make-fixture --seed s`` for tabular, ragged.py for ragged).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from checks import check_sweep
from pace import REFERENCE_S
from ragged import write_ragged_table

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("tabular", "synthetic", "ragged")
# make-fixture arguments that produced configs/fixture.csv (see configs/tabular.yaml)
FIXTURE_ARGS = ["--providers", "75", "--services", "4", "--clusters", "5"]
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 120
# Start no further sweep that would likely end the run after this many seconds.
RUN_BUDGET_S = 140


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # One sweep in one process and no helper threads: BLAS pools stay at one thread.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def prepare(workload: str, seed: int, work: Path) -> Path:
    """Write the workload's inputs for ``seed`` and return its config path."""
    if workload == "ragged":
        cfg = yaml.safe_load((HERE / "ragged.yaml").read_text())
        (split_seed,) = cfg["sweep"]["seeds"]
        write_ragged_table(work / "ragged.csv", seed, split_seed + seed)
    else:
        shipped = ROOT / "configs" / f"{workload}.yaml"
        if not shipped.is_file():
            raise BenchError(f"{shipped} not found")
        if seed == 0:
            return shipped
        cfg = yaml.safe_load(shipped.read_text())
        if workload == "tabular":
            cmd = [sys.executable, "-m", "metricfl", "make-fixture", *FIXTURE_ARGS]
            cmd += ["--seed", str(seed), "--out", str(work / "fixture.csv")]
            proc = subprocess.run(
                cmd, env=_env(), cwd=work, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
            if proc.returncode != 0:
                raise BenchError(f"make-fixture failed: {proc.stderr.strip()}")
            cfg["data"]["path"] = "fixture.csv"
    seeds = cfg["sweep"]["seeds"]
    cfg["sweep"]["seeds"] = [s + seed * len(seeds) for s in seeds]
    path = work / f"{workload}.yaml"
    path.write_text(yaml.safe_dump(cfg, sort_keys=False))
    return path


def child(mode: str, config: Path, work: Path, **options: Path) -> dict:
    """Run child.py in a fresh interpreter and return its result."""
    result = work / f"{mode}.json"
    extra = [a for name, value in options.items() for a in (f"--{name}", str(value))]
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--t0", repr(t0), "--config", str(config)]
    try:
        proc = subprocess.run(
            [*cmd, "--result", str(result), *extra],
            env=_env(),
            cwd=work,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} took longer than {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    data = json.loads(result.read_text())
    result.unlink()
    if not Path(data["module"]).resolve().is_relative_to(SRC):
        raise BenchError(f"metricfl was imported from {data['module']}, not from {SRC}")
    return data


def _line(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<44} {value:>14.6g} {unit:<9} {note}".rstrip())


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, from BENCHMARK.json."""
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"BENCHMARK.json: {exc}") from None
    return {m["name"]: m["unit"] for m in bench[kind]}


def measure(config: Path, cfg: dict, seconds: float, work: Path, started: float):
    """End-to-end metrics of repeated untraced sweeps."""
    setup = [child("setup", config, work)["setup_s"] for _ in range(SETUP_PROBES)]
    walls, paced, kernel, rss, checks = [], [], [], [], []
    # Another sweep starts only if it should end within 15% past --seconds.
    while not walls or (
        sum(walls) + statistics.median(walls) <= 1.15 * seconds
        and time.monotonic() - started + 1.5 * max(walls) <= RUN_BUDGET_S
    ):
        out = work / f"sweep{len(walls)}"
        run = child("sweep", config, work, out=out)
        checks.append(check_sweep(out / cfg["name"], cfg, run["exit_code"]))
        shutil.rmtree(out)
        setup.append(run["setup_s"])
        walls.append(run["wall_s"])
        paced.append(run["paced_wall_s"])
        kernel += run["pace_samples"]
        rss.append(run["peak_rss_mb"])

    wall = statistics.median(paced)
    pace = statistics.fmean(kernel)
    metrics = {
        # The probes are too short to pace one by one; the run's pace rescales them.
        "setup_s": statistics.median(setup) * REFERENCE_S / pace,
        "paced_wall_s": wall,
        "paced_rounds_per_s": checks[0].rounds / wall,
        "peak_rss_mb": statistics.median(rss),
    }
    print(f"sweeps: {len(walls)}, {checks[0].cells} cells and {checks[0].rounds} rounds each")
    print("sweep wall times (s): " + " ".join(f"{w:.3f}" for w in walls))
    print("at the reference pace (s): " + " ".join(f"{w:.3f}" for w in paced))
    print(
        f"pace kernel: mean {1000 * pace:.4f} ms over {len(kernel)} samples"
        f" (reference {1000 * REFERENCE_S:.4f} ms)"
    )
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters, at the reference pace",
        "paced_wall_s": f"median of {len(walls)} sweeps, at the reference pace",
        "paced_rounds_per_s": "at the reference pace",
        "peak_rss_mb": f"median of {len(walls)} sweeps",
    }
    end_to_end = units("end_to_end")
    for name, unit in end_to_end.items():
        _line(name, metrics[name], unit, notes.get(name, ""))
    # Printed, not in the JSON: the raw times follow the host's pace, and the
    # loss is set by the data.
    raw = statistics.median(walls)
    _line("timed setup_s", statistics.median(setup), "s")
    _line("timed wall_s", raw, "s", f"median of {len(walls)} sweeps")
    _line("timed rounds_per_s", checks[0].rounds / raw, "rounds/s")
    _line("val_loss", checks[0].val_loss, "loss", "mean over cells of the best validation loss")
    return metrics, checks, end_to_end


def measure_traced(config: Path, cfg: dict, workload: str, work: Path):
    """Per-layer metrics from one traced sweep, next to one untraced sweep."""
    spans = WORK / f"spans-{workload}.npz"
    run = child("trace", config, work, out=work / "trace", spans=spans)
    checks = [
        check_sweep(work / "trace" / "untraced" / cfg["name"], cfg, run["exit_code"]),
        check_sweep(work / "trace" / "traced" / cfg["name"], cfg, run["traced_exit_code"]),
    ]
    if run["missing"]:
        print("not traced (absent in this version): " + ", ".join(run["missing"]))
    main_busy = run["spans"]["cli.main"][1]
    print(f"untraced sweep {run['wall_s']:.3f} s, traced {run['traced_wall_s']:.3f} s")
    print(f"{'span':<44} {'calls':>9} {'busy_s':>10} {'self_s':>10} {'share':>7}")
    for name, (calls, busy, own) in sorted(run["spans"].items(), key=lambda kv: -kv[1][1]):
        share = busy / main_busy if main_busy else 0.0
        print(f"{name:<44} {calls:>9} {busy:>10.4f} {own:>10.4f} {share:>7.1%}")
    print(f"spans written to {spans.relative_to(ROOT)}")
    layers = {**run["layers"], "federation.best_val_loss": checks[0].val_loss}
    per_layer = units("per_layer")
    for name, unit in per_layer.items():
        _line(name, layers[name], unit)
    return layers, checks, per_layer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "metricfl" / "cli.py").is_file():
        print(f"error: no metricfl sources under {SRC}", file=sys.stderr)
        return 2

    started = time.monotonic()
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        config = prepare(args.workload, args.seed, work)
        cfg = yaml.safe_load(config.read_text())
        # Discarded: the first import compiles src/ to bytecode, which users pay once.
        child("setup", config, work)
        print(f"workload {args.workload}, seed {args.seed}, config {config.name}")
        print(
            f"env: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__}"
        )
        if args.trace:
            metrics, checks, units = measure_traced(config, cfg, args.workload, work)
        else:
            metrics, checks, units = measure(config, cfg, args.seconds, work, started)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(c.cells for c in checks)
    failed = sum(len(c.failed) for c in checks)
    problems = [p for c in checks for p in c.problems + c.failed]
    if len({c.digest for c in checks}) > 1:
        problems.append("sweeps of one run wrote different artifacts")
    for problem in problems:
        print(f"check failed: {problem}")
    _line("failed_cell_frac", failed / attempted, "ratio", f"{failed} of {attempted} cells")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
