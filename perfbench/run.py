"""widthlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is suite, suite-jobs2, entropy-geometry, width-fit, or all (every
workload in turn, one result line each).

Run from the root of a checkout: the program is imported from ``src``.
Each run measures set-up in fresh interpreters, then runs the workload in a
worker process for about S seconds of whole rounds, checks every result
against computations made apart from the program, and prints one JSON line
with the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
traced run (``--trace 1``).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("suite", "suite-jobs2", "entropy-geometry", "width-fit")
SETUP_SAMPLES = 9
DEADLINE_S = 170.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "widthlab" / "__init__.py").is_file():
        print(f"error: no widthlab package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, args.trace, src)
    # one result line per workload, each naming its workload
    return max(run_workload(name, args.seed, args.seconds, args.trace, src, label=True)
               for name in WORKLOADS)


def run_workload(name: str, seed: int, seconds: int, trace: int, src: Path,
                 label: bool = False) -> int:
    began = time.perf_counter()
    # widthlab's matrices are tiny (at most about 66x65); a multi-thread BLAS
    # pool only adds hand-off cost and spread on a small machine
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out_dir = HERE / "out" / f"{name}-{seed}"
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", name,
              "--seed", str(seed), "--out", str(out_dir)]

    def call(extra: list[str]) -> dict:
        left = DEADLINE_S - (time.perf_counter() - began)
        proc = subprocess.run(worker + extra, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(left, 1.0))
        if proc.returncode != 0:
            raise RuntimeError(f"worker {' '.join(extra)} exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    try:
        setup, imports = [], []
        for _ in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            imports.append(call(["--setup-only"])["import_s"])
            setup.append(time.perf_counter() - t0)
        res = call(["--seconds", str(seconds), "--trace", str(trace)])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {name}: {exc}", file=sys.stderr)
        return 1

    from worker import unit_of

    metrics = dict(res["metrics"])
    if trace:
        metrics["spaces.import_s"] = statistics.median(imports)
    else:
        metrics["setup_s"] = statistics.median(setup)
    for failure in res["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"{name} seed={seed}: {res['rounds']} rounds "
          f"({', '.join(f'{t:.3f}' for t in res['round_s'])} s)", file=sys.stderr)
    for metric, value in sorted(metrics.items()):
        print(f"  {metric:40s} {value:14.6g} {unit_of(metric)}", file=sys.stderr)
    print(json.dumps({
        **({"workload": name} if label else {}),
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {metric: {"value": value, "unit": unit_of(metric)}
                    for metric, value in sorted(metrics.items())},
    }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
