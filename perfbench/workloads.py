"""The four workloads: what one pass runs, and how its outputs are checked.

Every pass builds a fresh RunConfig, so the chi2/chi3 caches start cold
as they do for each CLI invocation.  The seed only chooses what the
checks sample (transform tuples, harmonics, field sample points); the
program's inputs are the bundled example configuration and the fixed
schedules below, so every pass does the same work.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import oracles
import verify


@dataclass
class PassResult:
    wall: float                 # seconds spent in the program
    attempted: int
    failed: int
    data: dict = field(default_factory=dict)


def _mod(name):
    """Module looked up at call time, so tracer wrappers apply."""
    return importlib.import_module(name)


@contextlib.contextmanager
def capture(module, attr, sink):
    """Record the arguments and result of module.attr while in the block."""
    owner = _mod(module)
    original = getattr(owner, attr)

    def recorder(*args, **kwargs):
        result = original(*args, **kwargs)
        sink[attr] = (args, result)
        return result

    setattr(owner, attr, recorder)
    try:
        yield sink
    finally:
        setattr(owner, attr, original)


def digest_tree(root):
    """{relative path: sha256} of every file under root."""
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = \
                    hashlib.sha256(fh.read()).hexdigest()
    return out


def run_cli(argv):
    """breather <argv> in-process, its progress lines swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = _mod("breather.cli").main(argv)
        wall = time.perf_counter() - t0
    return rc, wall


class Workload:
    name = ""

    def __init__(self, root, out_dir, seed):
        self.root = root
        self.out_dir = out_dir
        self.rng = np.random.default_rng(seed)
        self.config_path = os.path.join(root, "src", "breather", "data",
                                        "example_paper.json")
        with open(self.config_path) as fh:
            self.raw = json.load(fh)
        self.itf = oracles.Interface.from_config(self.raw)
        self.osc = oracles.Oscillator.from_config(self.raw)

    def pass_dir(self, index):
        path = os.path.join(self.out_dir, f"{self.name}-{index}")
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def run_pass(self, index):
        raise NotImplementedError

    def warm_up(self):
        """Untimed run of the same code paths on a reduced problem, so lazy
        imports and allocator growth fall outside the first timed pass."""
        raise NotImplementedError

    def check(self, passes):
        raise NotImplementedError

    def layer_extras(self, result):
        """Per-layer values read from a traced pass's outputs."""
        return {"cli.zero_mode_files": 0.0}

    def notes(self, passes):
        """Lines that name the failed operations of the last pass."""
        return []

    # -- shared pieces of the checks -----------------------------------
    def cone_tuples(self, nu_max, order, count):
        """Seeded frequency-index tuples whose levels sum to at most
        nu_max, as the quadratic/cubic sums of the recursion use them."""
        cone = [(n, nu) for nu in range(1, nu_max) for n in range(-nu, nu + 1)]
        picks = []
        while len(picks) < count:
            idx = self.rng.integers(0, len(cone), size=order)
            tup = [cone[i] for i in idx]
            if sum(nu for _, nu in tup) <= nu_max:
                picks.append(tup)
        return picks

    def chi_values(self, nl, omega, nu_max, count):
        """The program's transforms at seeded cone tuples."""
        sus = _mod("breather.susceptibility")
        values = []
        for order, fn in ((2, sus.ft_chi2_truncated),
                          (3, sus.ft_chi3_truncated)):
            for tup in self.cone_tuples(nu_max, order, count):
                freqs = [omega(*p) for p in tup]
                values.append((freqs, fn(nl, *freqs)))
        return values

    def check_chi(self, values):
        c2 = verify.diagonal(float(self.raw["c2"]), 3)
        c3 = verify.diagonal(float(self.raw["c3"]), 4)
        return verify.check_chi_values(self.osc, c2, c3, values)


class Series(Workload):
    """breather breather on the bundled config (FD, nu_max 10, N 2000)."""

    name = "series"

    def warm_up(self):
        out = self.pass_dir("warm")
        run_cli(["breather", "--out", out, "--nu-max", "3", "--grid-n", "200"])
        shutil.rmtree(out)

    def run_pass(self, index):
        self.last = None            # one table alive at a time
        out = self.pass_dir(index)
        sink = {}
        with capture("breather.cli", "build_series", sink):
            rc, wall = run_cli(["breather", "--out", out])
        data = {"rc": rc, "digests": digest_tree(out)}
        if rc == 0:
            with open(os.path.join(out, "manifest.json")) as fh:
                manifest = json.load(fh)
            modes = read_modes(out, manifest["mode_files"])
            data["zero_mode_files"] = sum(not np.any(c)
                                          for c in modes.values())
            self.last = {"table": sink["build_series"][1],
                         "manifest": manifest, "modes": modes}
        shutil.rmtree(out)
        return PassResult(wall, 1, 0 if rc == 0 else 1, data)

    def layer_extras(self, result):
        return {"cli.zero_mode_files":
                float(result.data.get("zero_mode_files", 0))}

    def check(self, passes):
        if self.last is None:
            return [f"breather breather exited {passes[-1].data['rc']}"]
        table, manifest = self.last["table"], self.last["manifest"]
        omega0 = complex(*manifest["eigenvalue"])
        omega = table.ctx.omega
        nl = table.ctx.interface.nl_minus or table.ctx.interface.nl_plus
        x = np.sort(self.rng.uniform(-20.0, 20.0, 48))
        period = 2.0 * math.pi / self.itf.k
        samples = [(x, float(self.rng.uniform(0.0, period)),
                    float(self.rng.uniform(0.0, 2.0))) for _ in range(3)]
        norms = {int(nu): v for nu, v in manifest["norms"].items()}
        return (
            verify.check_eigenvalue(self.itf, omega0)
            + verify.check_seed_root(self.itf, omega0)
            + self.check_chi(self.chi_values(nl, omega, table.nu_max, 6))
            + verify.check_conjugate_pairs(table)
            + verify.check_odd_vanish(table, self.last["modes"])
            + verify.check_residuals(self.itf, table, omega)
            + verify.check_decay(norms, verify.level_norms(table,
                                                           self.itf.k))
            + verify.check_fields(table, self.itf.k, samples,
                                  _mod("breather.series").synthesize)
            + verify.check_identical([p.data["digests"] for p in passes])
        )


def read_modes(out, files):
    """{(n, nu): value columns} of the mode CSVs."""
    modes = {}
    for rel in files:
        stem = os.path.basename(rel)[len("mode_n"):-len(".csv")]
        n, nu = stem.split("_nu")
        cols = np.loadtxt(os.path.join(out, rel), delimiter=",", skiprows=1)
        modes[(int(n), int(nu))] = cols[:, 1:]
    return modes


class FineGrid(Workload):
    """Shallow cone on a 64x finer grid, FD against analytic, plus the
    manufactured-forcing refinement ladder.

    Each solved harmonic (n, nu), n >= 0, is one operation: it passes when
    the FD-analytic gap falls at observed order >= 1.5 from N/4 to N.
    """

    name = "fine_grid"
    N = 128000
    NU_MAX = 4
    LADDER = (2000, 4000, 8000)
    # FD converges at first order on these harmonics (see CHANGES.md);
    # they count as failed operations on every pass.
    FIRST_ORDER = {(0, 4), (2, 4), (4, 4)}

    def warm_up(self):
        config = _mod("breather.config")
        resolvent = _mod("breather.resolvent")
        cfg = config.load_config(self.config_path)
        ctx = cfg.context()
        grid = resolvent.StaggeredGrid(cfg.grid_d, 2000)
        for solver in ("fd", "analytic"):
            _mod("breather.series").build_series(ctx, grid, cfg.eps, 2,
                                                 solver=solver)
        resolvent.fd_convergence_study(
            ctx, 1, 2, _mod("breather.cli").manufactured_rhs(ctx), (500, 1000),
            d=cfg.grid_d)

    def run_pass(self, index):
        config = _mod("breather.config")
        resolvent = _mod("breather.resolvent")
        series = _mod("breather.series")
        wall = 0.0
        t0 = time.perf_counter()
        cfg = config.load_config(self.config_path)
        ctx = cfg.context()
        wall += time.perf_counter() - t0
        gaps, residual_data = {}, None
        for N in (self.N // 4, self.N):
            grid = resolvent.StaggeredGrid(cfg.grid_d, N)
            t0 = time.perf_counter()
            fd = series.build_series(ctx, grid, cfg.eps, self.NU_MAX,
                                     solver="fd")
            an = series.build_series(ctx, grid, cfg.eps, self.NU_MAX,
                                     solver="analytic")
            wall += time.perf_counter() - t0
            gaps[N] = {key: relative_gap(fd.entries[key], an.entries[key],
                                         grid.h)
                       for key in fd.entries if key[1] >= 2}
            if N == self.N:
                residual_data = plus_residuals(self.itf, ctx, fd)
            del fd, an
        t0 = time.perf_counter()
        rhs = _mod("breather.cli").manufactured_rhs(ctx)
        study = resolvent.fd_convergence_study(ctx, 1, 2, rhs, self.LADDER,
                                               d=cfg.grid_d)
        wall += time.perf_counter() - t0
        order = {key: verify.observed_order(gaps[self.N // 4][key],
                                            gaps[self.N][key], 4.0)
                 for key in gaps[self.N]}
        failed = sorted(k for k, p in order.items() if not p >= 1.5)
        ladder_ok = not verify.check_ladder(study["table"], study["slope"])
        data = {"order": order, "failed": failed, "study": study,
                "residuals": residual_data}
        return PassResult(wall, len(order) + 1,
                          len(failed) + (0 if ladder_ok else 1), data)

    def notes(self, passes):
        order = passes[-1].data["order"]
        return [f"failed: harmonic {key}, observed order {order[key]:.2f}"
                for key in passes[-1].data["failed"]]

    def check(self, passes):
        out = []
        for p in passes:
            unexpected = sorted(set(p.data["failed"]) - self.FIRST_ORDER)
            if unexpected:
                out.append("FD and analytic disagree beyond second order at "
                           f"{unexpected}")
        last = passes[-1].data
        out += verify.check_ladder(last["study"]["table"],
                                   last["study"]["slope"])
        for key, res in sorted(last["residuals"].items()):
            if res is not None and not res < verify.RESIDUAL_MAX:
                out.append(f"{key} at N={self.N}: staggered equations on "
                           f"x > 0 leave residual {res:.1e}")
        return out


def relative_gap(a, b, h):
    """||a - b|| / ||b|| over (u1, u2) samples, 0 when both vanish."""
    num = math.sqrt(h * float(np.sum(np.abs(a.U - b.U) ** 2)
                              + np.sum(np.abs(a.V - b.V) ** 2)))
    den = math.sqrt(h * float(np.sum(np.abs(b.U) ** 2)
                              + np.sum(np.abs(b.V) ** 2)))
    return num / den if den > 0 else num


def plus_residuals(itf, ctx, table):
    return {
        key: oracles.plus_side_residual(
            itf, ctx.omega(*key), key[0], table.grid.h, gf.U, gf.V,
            table.h_entries[key].h1, table.h_entries[key].h2)
        for key, gf in table.entries.items() if key[1] >= 2
    }


class Contour(Workload):
    """breather spectrum --winding --delta0 over a decade of windows."""

    name = "contour"
    SCHEDULE = (21, 201)
    DELTA0_HALFWIDTH = 8.0      # CLI default --delta0-halfwidth
    DELTA0_TOL = 1e-3           # delta0_search default bisection tolerance

    def warm_up(self):
        out = self.pass_dir("warm")
        run_cli(["spectrum", "--winding", "--t-schedule", "21", "--out", out])
        shutil.rmtree(out)

    def run_pass(self, index):
        out = self.pass_dir(index)
        rc, wall = run_cli(["spectrum", "--winding", "--delta0",
                            "--t-schedule",
                            ",".join(str(j) for j in self.SCHEDULE),
                            "--out", out])
        data = {"rc": rc, "digests": digest_tree(out)}
        if rc == 0:
            with open(os.path.join(out, "spectrum.json")) as fh:
                data["manifest"] = json.load(fh)
            data["delta0"] = [tuple(r) for r in np.loadtxt(
                os.path.join(out, "delta0.csv"), delimiter=",", skiprows=1,
                ndmin=2)]
            data["eigenvalues"] = [tuple(r) for r in np.loadtxt(
                os.path.join(out, "eigenvalues.csv"), delimiter=",",
                skiprows=1, ndmin=2)]
        shutil.rmtree(out)
        return PassResult(wall, 1, 0 if rc == 0 else 1, data)

    def check(self, passes):
        last = passes[-1].data
        if last["rc"] != 0:
            return [f"breather spectrum exited {last['rc']}"]
        wind = last["manifest"]["winding"]
        rows = [(int(j), T, d) for j, T, d in last["delta0"]]
        out = verify.check_winding(self.itf, wind["count"], wind["a"],
                                   -self.itf.gamma + wind["delta"])
        out += verify.check_delta0(self.itf, rows, self.DELTA0_HALFWIDTH,
                                   self.DELTA0_TOL)
        out += verify.check_delta0_scaling(rows)
        out += verify.check_eigenvalue(
            self.itf, complex(*last["manifest"]["eigenvalue"]))
        for j, T, re, im, _ in last["eigenvalues"]:
            out += verify.check_eigenvalue(self.itf, complex(re, im), T)
        out += verify.check_identical([p.data["digests"] for p in passes])
        return out


class Check(Workload):
    """breather check --drude-demo with a coupling sweep to level 8."""

    name = "check"
    SWEEP_NU = 8

    def warm_up(self):
        out = self.pass_dir("warm")
        run_cli(["check", "--drude-demo", "--sweep-nu", "2", "--out", out])
        shutil.rmtree(out)

    def run_pass(self, index):
        out = self.pass_dir(index)
        sink = {}
        with capture("breather.cli", "gamma_bound_sweep", sink):
            rc, wall = run_cli(["check", "--drude-demo", "--sweep-nu",
                                str(self.SWEEP_NU), "--out", out])
        data = {"rc": rc, "digests": digest_tree(out)}
        if "gamma_bound_sweep" in sink:
            self.sweep_args = sink["gamma_bound_sweep"][0][:2]
        report = os.path.join(out, "check_report.json")
        if os.path.exists(report):
            with open(report) as fh:
                data["report"] = json.load(fh)
        shutil.rmtree(out)
        return PassResult(wall, 1, 0 if rc == 0 else 1, data)

    def check(self, passes):
        last = passes[-1].data
        if last["rc"] != 0 or "report" not in last:
            return [f"breather check exited {last['rc']}"]
        report = last["report"]
        ctx, nl = self.sweep_args
        itf, raw = self.itf, self.raw
        out = verify.check_eigenvalue(itf, ctx.omega0)
        out += verify.check_assumptions(report["assumptions"])
        out += verify.check_cone(report["cone"], int(raw["nu_max"]))
        out += verify.check_drude(
            report["drude_demo"], float(raw.get("c_D", 4.0)),  # CLI default
            itf.gamma, itf.alpha, itf.k, itf.eps0, itf.mu0)
        out += verify.check_sweep_level(
            self.osc, report["nonlinear_bounds"], ctx.omega, itf.eps0,
            itf.mu0, float(raw["c2"]), float(raw["c3"]))
        out += self.check_chi(self.chi_values(nl, ctx.omega, self.SWEEP_NU,
                                              4))
        out += verify.check_identical([p.data["digests"] for p in passes])
        return out


WORKLOADS = {w.name: w for w in (Series, FineGrid, Contour, Check)}
