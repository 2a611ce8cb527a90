"""Benchmark of the breather pipeline: one workload per run.

    python3 perfbench/run.py --workload {series,fine_grid,contour,check}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src.  The run first times set-up (import of breather, load_config and
RunConfig.context) several times, then repeats whole passes of the
workload for about S seconds after one untimed warm-up on a reduced
problem (at least two passes; one untraced and one traced pass with
--trace 1), checks the outputs and prints every metric.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; metric names and units are those
of BENCHMARK.json at the checkout root.

With --trace 0 the metrics are the end-to-end ones (set-up, wall time
per pass, peak resident memory); with --trace 1 they are the per-layer
ones from a traced pass, and spans plus aggregates are written to
.perfbench_out/trace-<workload>-seed<N>.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 25
MIN_PASSES = 2



def measure_setup(config_path):
    """Seconds for import of breather + load_config + RunConfig.context.

    The first repetition also imports numpy and scipy; later ones re-import
    the package alone after dropping it from sys.modules.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules
                     if m == "breather" or m.startswith("breather.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        import breather.cli  # noqa: F401
        import breather.config
        breather.config.load_config(config_path).context()
        times.append(time.perf_counter() - t0)
    return times


def run_passes(workload, seconds, trace):
    """Whole passes while the next one is expected to end within `seconds`
    (at least two untraced passes, or one untraced and one traced)."""
    from tracer import TARGETS, Tracer

    plain, traced, tracers = [], [], []
    workload.warm_up()
    start = time.perf_counter()
    index = 0
    while True:
        gc.collect()
        plain.append(workload.run_pass(index))
        index += 1
        if trace:
            gc.collect()
            with Tracer() as tr:
                tr.install(TARGETS)
                traced.append(workload.run_pass(index))
            tracers.append(tr)
            index += 1
        step = statistics.median(r.wall for r in plain) + (
            statistics.median(r.wall for r in traced) if trace else 0.0)
        enough = len(plain) >= (1 if trace else MIN_PASSES)
        if enough and time.perf_counter() - start + step > seconds:
            return plain, traced, tracers


def layer_report(workload, plain, traced, tracers):
    from tracer import layer_metrics

    per_pass = []
    for res, tr in zip(traced, tracers):
        values = layer_metrics(tr)
        values.update(workload.layer_extras(res))
        per_pass.append(values)
    merged = {}
    for name in per_pass[0]:
        vals = [v[name] for v in per_pass]
        merged[name] = None if None in vals else statistics.median(vals)
    merged["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                                  - statistics.median(r.wall for r in plain))
    merged["trace.spans"] = float(tracers[-1].span_count)
    return merged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    config_path = os.path.join(src, "breather", "data", "example_paper.json")
    if not os.path.isfile(config_path):
        print(f"no breather sources under {src}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    out_root = os.path.join(ROOT, ".perfbench_out")
    out_dir = os.path.join(out_root,
                           f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        setup = measure_setup(config_path)
        workload = WORKLOADS[args.workload](ROOT, out_dir, args.seed)
        plain, traced, tracers = run_passes(workload, args.seconds,
                                            bool(args.trace))
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes = plain + traced
        failures = workload.check(passes)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    if args.trace:
        values = layer_report(workload, plain, traced, tracers)
        metrics = {m["name"]: {"value": values.get(m["name"]),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
        path = os.path.join(out_root,
                            f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({
                "workload": args.workload, "seed": args.seed,
                "untraced_wall_s": [r.wall for r in plain],
                "traced_wall_s": [r.wall for r in traced],
                "per_layer": values,
                "last_traced_pass": tracers[-1].dump(),
            }, fh)
        unmeasured = sorted(n for n, v in values.items() if v is None)
        if unmeasured:
            print(f"unmeasured: {', '.join(unmeasured)}")
    else:
        values = {"setup_s": statistics.median(setup),
                  "wall_s": statistics.median(r.wall for r in plain),
                  "peak_rss_mib": peak_rss}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    for msg in workload.notes(passes):
        print(msg)
    for msg in failures:
        print(f"CHECK FAILED: {msg}")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print("pass wall s: " + " ".join(f"{r.wall:.3f}" for r in plain)
          + (" | traced: " + " ".join(f"{r.wall:.3f}" for r in traced)
             if traced else ""))
    print(f"passes {len(plain)} untraced, {len(traced)} traced; "
          f"operations {attempted} attempted, {failed} failed")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
