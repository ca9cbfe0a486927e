"""Command-line entry points.

    metricfl run --config experiment.yaml --out results/
    metricfl verify-mechanism --dim 2 --epsilon 1 --samples 100000 --seed 0 --out report/
    metricfl make-fixture --providers 60 --services 4 --clusters 3 --seed 0 --out fixture.csv

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .data import write_fixture
from .experiment import ConfigError, load_config, run_sweep
from .mechanism import NoiseScale, moment_report
from .rng import substream

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="metricfl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute the sweep described by a config file")
    run.add_argument("--config", required=True, help="path to the experiment YAML")
    run.add_argument("--out", required=True, help="output directory for run artifacts")
    run.set_defaults(handler=_cmd_run)

    verify = sub.add_parser("verify-mechanism", help="empirical noise moments vs. theory")
    verify.add_argument("--dim", type=int, required=True, help="noise dimension n")
    verify.add_argument("--epsilon", type=float, required=True, help="privacy parameter")
    verify.add_argument("--samples", type=int, default=100_000, help="number of draws")
    verify.add_argument("--seed", type=int, default=0, help="rng seed")
    verify.add_argument("--out", default=None, help="directory for the CSV report")
    verify.set_defaults(handler=_cmd_verify_mechanism)

    fixture = sub.add_parser("make-fixture", help="write a provider/charge fixture CSV")
    fixture.add_argument("--providers", type=int, default=75)
    fixture.add_argument("--services", type=int, default=4)
    fixture.add_argument("--clusters", type=int, default=5)
    fixture.add_argument("--seed", type=int, default=0)
    fixture.add_argument("--out", required=True, help="output CSV path")
    fixture.set_defaults(handler=_cmd_make_fixture)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        exp_dir = run_sweep(config, args.out)
    except ConfigError as exc:
        # Found once the table is ingested, before anything is written.
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - report and signal via exit code
        print(f"run failed ({config.name}): {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    n_runs = len(config.sweep_nu) * len(config.sweep_k) * len(config.seeds)
    print(f"wrote {n_runs} runs under {exp_dir}")
    return EXIT_OK


def _cmd_verify_mechanism(args: argparse.Namespace) -> int:
    try:
        scale = NoiseScale(epsilon=args.epsilon, dimension=args.dim)
        if args.samples < 2:
            raise ValueError("--samples must be >= 2")
        if args.seed < 0:
            raise ValueError("--seed must be >= 0")
        rng = substream(args.seed, "verify")
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        rows = moment_report(scale, args.samples, rng)
        print(f"{'statistic':<22}{'empirical':>14}{'theoretical':>14}{'abs_error':>12}")
        for name, empirical, theoretical in rows:
            print(
                f"{name:<22}{empirical:>14.6f}{theoretical:>14.6f}"
                f"{abs(empirical - theoretical):>12.6f}"
            )
        csv_lines = ["statistic,empirical,theoretical,abs_error"] + [
            f"{name},{empirical!r},{theoretical!r},{abs(empirical - theoretical)!r}"
            for name, empirical, theoretical in rows
        ]
        if args.out is None:
            print()
            print("\n".join(csv_lines))
        else:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            report_path = out_dir / "mechanism_report.csv"
            report_path.write_text("\n".join(csv_lines) + "\n")
            print(f"report written to {report_path}")
    except Exception as exc:  # noqa: BLE001
        print(f"verify-mechanism failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _cmd_make_fixture(args: argparse.Namespace) -> int:
    out = Path(args.out)
    try:
        if args.seed < 0:
            raise ValueError("--seed must be >= 0")
        rng = substream(args.seed, "fixture")
        n_rows = write_fixture(out, args.providers, args.services, args.clusters, rng)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"make-fixture failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {n_rows} rows to {out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
