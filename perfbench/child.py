"""One measurement in a fresh interpreter; run.py starts it and reads its result.

    child.py setup  --t0 T --config C --result R
    child.py sweep  --t0 T --config C --result R --out DIR
    child.py trace  --t0 T --config C --result R --out DIR --spans FILE

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process; CLOCK_MONOTONIC is shared by all processes, so ``setup_s`` spans
interpreter start, ``import metricfl`` and parsing the workload config.  A
sweep is the ``metricfl run --config C --out DIR`` command, called through
the console-script entry point ``metricfl.cli.main`` under a PaceClock
(pace.py), so that its time can also be given at the reference pace.  A
trace runs that command once untraced and once under the tracer, in this
order.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path


def _sweep(cli, config: str, out: Path) -> tuple[int, float]:
    argv = ["run", "--config", config, "--out", str(out)]
    start = time.perf_counter()
    code = cli.main(argv)
    return code, time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "sweep", "trace"])
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    args = parser.parse_args()

    import metricfl
    from metricfl import cli, experiment

    experiment.load_config(args.config)
    result = {"setup_s": time.monotonic() - args.t0, "module": metricfl.__file__}

    if args.mode == "sweep":
        from pace import PaceClock

        with PaceClock() as clock:
            code, wall = _sweep(cli, args.config, Path(args.out))
        result.update(
            exit_code=code,
            wall_s=wall,
            paced_wall_s=clock.paced(wall),
            pace_samples=clock.samples,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    elif args.mode == "trace":
        from tracer import Tracer

        code, wall = _sweep(cli, args.config, Path(args.out) / "untraced")
        tracer = Tracer()
        tracer.install()
        try:
            traced_code, traced_wall = _sweep(cli, args.config, Path(args.out) / "traced")
        finally:
            tracer.uninstall()
        tracer.save(Path(args.spans))
        result.update(
            exit_code=code,
            traced_exit_code=traced_code,
            wall_s=wall,
            traced_wall_s=traced_wall,
            missing=tracer.missing,
            spans=tracer.span_totals(),
            layers=tracer.layer_metrics(traced_wall, wall),
        )
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
