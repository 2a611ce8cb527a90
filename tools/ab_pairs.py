"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/ab_pairs.py PARENT CHANGE --workload fine_grid \
        --pairs 10 --seconds 25 --seed 700

Each pair runs ``python3 perfbench/run.py --workload W --trace 0
--seconds S --seed K`` once in each checkout (from its root, so each
imports its own ``src``): the parent first in even pairs, the change
first in odd ones, both with seed K + pair index.  Prints every pair's
end-to-end metrics, then each side's failed and attempted operations
summed over its runs, and per metric the two medians, the parent's
quartiles and the number of pairs the change won.  The metrics, their
better direction and their bounds are read from CHANGE's BENCHMARK.json.

Per metric with a bound it also applies the refusal rule: "unresolved"
when the parent's interquartile distance over its median exceeds the
bound, otherwise "refused" when the change's median is worse than the
parent's by more than the bound (relative to the parent's median), and
"within bound" when it is not.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(root, workload, seconds, seed):
    """The last JSON line of one benchmark run in the checkout at root."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--trace", "0", "--seconds", str(seconds), "--seed", str(seed)],
        cwd=root, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["end_to_end"]
    names = [m["name"] for m in spec]

    values = {side: {name: [] for name in names}
              for side in ("parent", "change")}
    ops = {side: [0, 0] for side in values}     # failed, attempted
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        line = [f"pair {i} (seed {args.seed + i}, {order[0]} first):"]
        for side in order:
            res = run(getattr(args, side), args.workload, args.seconds,
                      args.seed + i)
            for name in names:
                values[side][name].append(res["metrics"][name]["value"])
            ops[side][0] += res["failed"]
            ops[side][1] += res["attempted"]
            line.append(f"{side} correct={res['correct']} failed="
                        f"{res['failed']}/{res['attempted']} " + " ".join(
                            f"{n}={res['metrics'][n]['value']:.4f}"
                            for n in names))
        print("\n  ".join(line), flush=True)

    print("failed operations: " + ", ".join(
        f"{side} {f}/{a} ({f / a if a else 0.0:.3f})"
        for side, (f, a) in ops.items()))
    for m in spec:
        name, lower = m["name"], m["better"] == "lower"
        par, chg = values["parent"][name], values["change"][name]
        q1, med, q3 = (statistics.quantiles(par, n=4) if len(par) > 1
                       else (par[0],) * 3)
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        cm = statistics.median(chg)
        print(f"{name} [{m['unit']}]: parent median {med:.4f} "
              f"(quartiles {q1:.4f}, {q3:.4f}; IQR {q3 - q1:.4f}), change "
              f"median {cm:.4f} ({100.0 * (cm - med) / med:+.1f}%), change "
              f"better in {wins}/{len(par)} pairs")
        if "bound" in m:
            bound, spread = m["bound"], (q3 - q1) / med
            worse = (cm - med if lower else med - cm) / med
            verdict = ("unresolved" if spread > bound
                       else "refused" if worse > bound else "within bound")
            print(f"  refusal rule: {verdict} (bound {bound}, change worse "
                  f"by {worse:+.3f}, parent IQR/median {spread:.3f})")
        print("  parent " + " ".join(f"{v:.4f}" for v in par))
        print("  change " + " ".join(f"{v:.4f}" for v in chg))
    return 0


if __name__ == "__main__":
    sys.exit(main())
