#!/usr/bin/env python3
"""Check that another checkout writes the same sweep artifacts as this one.

For each checkout, runs `metricfl run` on configs/tabular.yaml,
configs/synthetic.yaml, perfbench/ragged.yaml and three small sweeps,
"edge", "capped" and "noisy", into a temporary directory.  The ragged table is written by
that checkout's own perfbench/ragged.py (--seed 0 --split-seed 0) next to a
copy of ragged.yaml, so nothing is written into either checkout.  The small
sweeps (EDGE, CAPPED and NOISY below) are written here and cover what the
shipped sweeps do not.  EDGE has a 1-D linear model, one-row clients, B_s
above every client's size and k > U.  CAPPED sets a budget cap, so the
eligible pool shrinks, cells stop when it runs dry (at nu 1 after 8 rounds,
at nu 2 after 16) and each population runs as several groups.  NOISY has
no cap, so each seed's cells form one group whose cells all release with
noise and share one k: one argmin selects for all of them, and they stop
early at different rounds.  The two trees are
then compared byte for byte; the only line allowed to differ is the absolute
data `path:` line of each config.yaml.  Given this checkout itself, it checks
that two runs are identical.  Uses the standard library only; each
checkout's metricfl runs on the current interpreter.

Usage: python3 scripts/compare_sweeps.py OTHER_CHECKOUT

Exit codes: 0 identical, 1 a difference or a failed run, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEPS = ("tabular", "synthetic", "ragged", "edge", "capped", "noisy")
PATH_LINE = re.compile(rb"^\s*path: .*\n?", re.MULTILINE)
EDGE = """\
experiment: synthetic
name: edge
federation: {T: 12, U: 3, E: 2, s: 0.1, B_s: 4, validation_every: 1, validation_patience: 4}
model: {kind: linear, input_dim: 1}
objective: rmse
data: {n_clients: 12, samples_per_client: 1, thetas: [[2.0], [-3.0]], validation_fraction: 0.3}
sweep: {nu: [0.0, 3.0], k: [1, 5], seeds: [0, 1]}
"""
CAPPED = """\
experiment: synthetic
name: capped
federation: {T: 40, U: 5, E: 1, s: 0.1, B_s: 10, validation_every: 2, validation_patience: 4,
             budget_cap: 4.0}
model: {kind: linear, input_dim: 2}
data: {n_clients: 30, samples_per_client: 6, validation_fraction: 0.3}
sweep: {nu: [1.0, 2.0, 5.0], k: [1, 2, 3], seeds: [0, 1]}
"""
NOISY = """\
experiment: synthetic
name: noisy
federation: {T: 40, U: 5, E: 2, s: 0.1, B_s: 3, validation_every: 1, validation_patience: 4}
model: {kind: linear, input_dim: 2}
data: {n_clients: 40, samples_per_client: 8, validation_fraction: 0.3}
sweep: {nu: [0.5, 2.0, 5.0, 20.0], k: [3], seeds: [0, 1]}
"""


def run_sweeps(checkout: Path, out: Path) -> list[str]:
    """Run the six sweeps of ``checkout`` into ``out / "runs"``; returns
    one message per command that failed."""
    work = out / "ragged"
    work.mkdir(parents=True)
    shutil.copy(checkout / "perfbench" / "ragged.yaml", work / "ragged.yaml")
    (out / "edge.yaml").write_text(EDGE)
    (out / "capped.yaml").write_text(CAPPED)
    (out / "noisy.yaml").write_text(NOISY)
    commands = [[str(checkout / "perfbench" / "ragged.py"), "--seed", "0", "--split-seed", "0",
                 "--out", str(work / "ragged.csv")]]
    for config in (checkout / "configs" / "tabular.yaml", checkout / "configs" / "synthetic.yaml",
                   work / "ragged.yaml", out / "edge.yaml", out / "capped.yaml",
                   out / "noisy.yaml"):
        commands.append(["-m", "metricfl", "run", "--config", str(config),
                         "--out", str(out / "runs")])
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    errors = []
    for command in commands:
        done = subprocess.run([sys.executable, *command], cwd=out, env=env,
                              capture_output=True, text=True)
        if done.returncode:
            errors.append(f"{checkout}: {' '.join(command)} exited {done.returncode}: "
                          f"{done.stderr.strip()}")
    return errors


def artifacts(tree: Path) -> dict[str, bytes]:
    """Every file under ``tree`` by relative path, config.yaml without its path: line."""
    found = {}
    for path in sorted(tree.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "config.yaml":
                data = PATH_LINE.sub(b"", data)
            found[path.relative_to(tree).as_posix()] = data
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="root of the checkout to compare with")
    other = parser.parse_args(argv).other.resolve()
    if not (other / "src" / "metricfl").is_dir():
        parser.error(f"{other} holds no src/metricfl")
    with tempfile.TemporaryDirectory(prefix="compare_sweeps_") as tmp:
        errors, trees = [], []
        for label, checkout in (("this", ROOT), ("other", other)):
            errors += run_sweeps(checkout, Path(tmp) / label)
            trees.append(artifacts(Path(tmp) / label / "runs"))
    for error in errors:
        print(error, file=sys.stderr)
    mine, theirs = trees
    differ = sorted(name for name in mine.keys() | theirs.keys()
                    if mine.get(name) != theirs.get(name))
    for name in differ:
        where = "" if name in mine and name in theirs else (
            " (only in this checkout)" if name in mine else " (only in the other)")
        print(f"differs: {name}{where}")
    for sweep in SWEEPS:
        total = sum(name.startswith(f"{sweep}/") for name in mine.keys() | theirs.keys())
        bad = sum(name.startswith(f"{sweep}/") for name in differ)
        print(f"{sweep}: {total} files, " + (f"{bad} differ" if bad else "identical"))
    return 1 if errors or differ else 0


if __name__ == "__main__":
    sys.exit(main())
