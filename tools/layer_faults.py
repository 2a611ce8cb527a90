"""Time and minor page faults per layer of in-process fine-grid passes.

    PYTHONPATH=src python3 tools/layer_faults.py --passes 3

One pass does what the benchmark's ``fine_grid`` workload times: FD and
analytic builds at nu_max 4 on N = 32000 and 128000, then the
manufactured-forcing refinement ladder (2000, 4000, 8000) on the bundled
config.  As in the workload, both tables of a grid stay alive until they
are dropped before the next grid.  One untimed warm-up pass on small grids
runs first.  Each layer is wrapped where its callers look it up and
measured with ``getrusage`` (minor faults) and ``perf_counter`` around
every call; the figures are inclusive, so layers nest: ``spsolve`` inside
``solve_fd``, ``_homogeneous_part`` inside ``solve_analytic`` (and the
seed), ``solve_fd`` inside ``fd_convergence_study``.  Prints one line per
pass: its time and faults, then calls, seconds and faults per layer; and
after the passes the process's peak resident set (``ru_maxrss``).  The
process runs with the allocator's default settings.
"""

import argparse
import resource
import sys
import time

from breather import cli, config, resolvent, series

LAYERS = (
    (series, "assemble_h"),
    (series, "solve_fd"),
    (resolvent, "solve_fd"),
    (resolvent, "spsolve"),
    (series, "solve_analytic"),
    (series, "_homogeneous_part"),
    (resolvent, "_homogeneous_part"),
    (resolvent, "fd_convergence_study"),
)
NU_MAX = 4
GRIDS = (32000, 128000)
LADDER = (2000, 4000, 8000)


def _usage():
    return resource.getrusage(resource.RUSAGE_SELF)


def _faults():
    return _usage().ru_minflt


def _wrap(stats, name, fn):
    def timed(*args, **kwargs):
        f0, t0 = _faults(), time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            s = stats[name]
            s[0] += 1
            s[1] += time.perf_counter() - t0
            s[2] += _faults() - f0
    return timed


def run_pass(cfg, grids, ladder):
    ctx = cfg.context()
    for N in grids:
        grid = resolvent.StaggeredGrid(cfg.grid_d, N)
        tables = [series.build_series(ctx, grid, cfg.eps, NU_MAX,
                                      solver=solver)
                  for solver in ("fd", "analytic")]
        del tables
    resolvent.fd_convergence_study(ctx, 1, 2, cli.manufactured_rhs(ctx),
                                   ladder, d=cfg.grid_d)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args(argv)
    cfg = config.load_config()
    run_pass(cfg, (2000,), (500, 1000))

    stats = {}
    for module, name in LAYERS:
        stats[name] = [0, 0.0, 0]       # calls, seconds, faults
        setattr(module, name, _wrap(stats, name, getattr(module, name)))
    for k in range(args.passes):
        for s in stats.values():
            s[:] = [0, 0.0, 0]
        f0, t0 = _faults(), time.perf_counter()
        run_pass(cfg, GRIDS, LADDER)
        wall, faults = time.perf_counter() - t0, _faults() - f0
        print(f"pass {k}: {wall:.3f} s, {faults / 1e3:.1f}k faults; "
              + "; ".join(f"{name} {c}x {t:.3f} s {f / 1e3:.1f}k"
                          for name, (c, t, f) in stats.items()), flush=True)
    print(f"ru_maxrss {_usage().ru_maxrss / 1024:.1f} MiB")  # KiB on Linux
    return 0


if __name__ == "__main__":
    sys.exit(main())
