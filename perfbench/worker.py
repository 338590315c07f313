"""Runs one workload in a fresh interpreter and prints its measurements as
one JSON line.

run.py starts this script with the BLAS pool pinned to one thread and the
checkout's ``src`` on the import path.  With ``--setup-only`` it imports
widthlab, builds the workload's inputs and exits, so that its wall time, as
the parent sees it, is one set-up sample.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
from pathlib import Path


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MiB"
    if name.endswith("pairs_per_s"):
        return "1/s"
    if name.endswith("bracket_rel_width"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import widthlab  # noqa: F401  (timed: the import is part of set-up)
    import_s = time.perf_counter() - t0

    import tracing
    import workloads

    out_dir = Path(args.out)
    if args.setup_only:
        workloads.make(args.workload, args.seed, out_dir)
        print(json.dumps({"import_s": import_s}))
        return 0

    workloads.clear(out_dir)
    wl = workloads.make(args.workload, args.seed, out_dir)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    times, logs, summaries, failures = [], [], [], []
    attempted = failed = 0
    # whole rounds only; stop before a round that would take the timed total
    # past the budget.  Building inputs and checking results are not timed.
    while not times or sum(times) + statistics.median(times) <= args.seconds:
        wl.prepare(len(times))
        if tracer:
            tracer.round = len(times)
        t = time.perf_counter()
        res, n_ops, n_failed, log = wl.run_round()
        times.append(time.perf_counter() - t)
        logs.append(log)
        attempted += n_ops
        failed += n_failed
        failures += [f"round {len(times) - 1}: {f}" for f in wl.after_round(res)]
        summaries.append(wl.summary(res))
    if tracer:
        tracer.uninstall()
    failures += wl.finish(res)

    if tracer:
        sections = tracing.suite_sections()
        cli = isinstance(wl, workloads.Suite)
        per_round = [{**tracing.round_metrics(tracer.spans, k),
                      **tracing.runner_metrics(logs[k], times[k], sections, cli),
                      "trace.wall_s": times[k]} for k in range(len(times))]
        metrics = tracing.median_metrics(per_round)
        trace_file = out_dir.parent / f"trace-{out_dir.name}.json"
        trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "round_s": times, "spans": tracer.spans}))
    else:
        metrics = {
            "wall_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **tracing.median_metrics([{
                "bracket_rel_width": tracing.rel_width(brackets),
                "exact_brackets": sum(b.exact for b in brackets),
                "verdicts_decided": sum(s in ("holds", "violated") for s in statuses),
            } for brackets, statuses in summaries]),
        }
    print(json.dumps({"rounds": len(times), "round_s": times, "attempted": attempted,
                      "failed": failed, "failures": failures, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
