"""Command-line driver: spectrum, eigen, breather, check, converge.

Every verb reads one JSON config (``--config``, bundled example when
omitted) and writes deterministic CSV/JSON/SVG artifacts into ``--out``.
Warnings of the ``breather`` loggers go to stderr as
``LEVEL logger: message`` lines.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from itertools import islice

import numpy as np

from ._svg import LinePlot
from .checks import (
    DrudeParams,
    check_A6_cone,
    check_B,
    drude_truncation_demo,
    gamma_bound_sweep,
)
from .config import _require, load_config, seed_root
from .errors import BreatherError, ConfigError, ResolventViolation
from .pencil import (
    ContourRectangle,
    PencilContext,
    delta0_search,
    eigenfunction,
    newton_eigenvalue,
    spectral_quantities,
    untruncated_eigenvalues,
    winding_count,
)
from .resolvent import (
    SampledRHS,
    StaggeredGrid,
    _loglog_slope,
    fd_convergence_study,
)
from .series import build_series, decay_profile, synthesize
from .susceptibility import window_T

__all__ = ["main"]

# half-width of the x range sampled by the eigen profile and the overlays
_SPAN = 6.0


# ----------------------------------------------------------------------
# Serialization helpers (all output must be byte-identical across runs)
# ----------------------------------------------------------------------

def _c(z):
    """Complex -> [re, im] for JSON."""
    z = complex(z)
    return [z.real, z.imag]


def _json_safe(obj):
    """Coerce numpy scalars and non-finite floats for strict JSON."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(_json_safe(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


# Rows per write: bounds the text held at once, whatever the file size.
_CSV_BLOCK = 256


def _cells(column):
    """CSV cells of one column: each float as its repr (the shortest
    string that reads back to the same double), each integer as an int.
    A float column of +0.0 only (the n + nu odd harmonics, zero for any
    couplings) skips the per-value repr."""
    values = np.asarray(column)
    if (values.dtype.kind == "f" and not values.any()
            and not np.signbit(values).any()):
        return ["0.0"] * values.size
    return list(map(repr, values.tolist()))


def _write_csv(path, header, columns, lead=None):
    """Header row, then row i from cell i of every (equal-length) column,
    comma-separated with ``\r\n`` line ends as ``csv.writer`` writes
    them (no cell here needs quoting).  ``lead``, when given, is a first
    column already formatted by ``_cells``: the x column that all mode
    files share is formatted once."""
    cells = ([] if lead is None else [lead]) + list(map(_cells, columns))
    rows = map(",".join, zip(*cells))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        while block := list(islice(rows, _CSV_BLOCK)):
            fh.write("\r\n".join(block) + "\r\n")


def _t_schedule(cfg, spec):
    """Parse a comma list of odd window indices j into (j, T) pairs."""
    minus = cfg.interface.minus
    out = []
    for tok in spec.split(","):
        j = int(tok)
        if j < 1 or j % 2 == 0:
            raise ConfigError(f"schedule entries must be positive odd, got {j}")
        out.append((j, window_T(j, minus.gamma, minus.omega_star)))
    return out


def _window_eigenvalues(cfg, probe, omega_inf, spec, svg_path):
    """Newton-refine the n = 1 eigenvalue from omega_inf at each window of
    the schedule ``spec`` and plot |omega(T) - omega_inf| against T to
    ``svg_path``.  Returns the rows (j, T, omega(T), error) and the
    log-log slope of the error."""
    rows = []
    for j, T in _t_schedule(cfg, spec):
        w = newton_eigenvalue(probe, 1, T, omega_inf)
        rows.append((j, T, w, abs(w - omega_inf)))
    Ts, errs = [r[1] for r in rows], [r[3] for r in rows]
    plot = LinePlot(
        title="eigenvalue error vs memory window",
        xlabel="T", ylabel="|omega(T) - omega_inf|",
        logx=True, logy=True,
    )
    plot.add(Ts, errs, label="n=1", marker=True)
    plot.write(svg_path)
    return rows, _loglog_slope(Ts, errs)


# ----------------------------------------------------------------------
# Verbs
# ----------------------------------------------------------------------

def cmd_spectrum(cfg, out, args):
    probe = PencilContext(cfg.interface, cfg.k, None)
    roots = sorted(
        untruncated_eigenvalues(probe, 1), key=lambda r: (r.real, r.imag)
    )
    _write_csv(
        os.path.join(out, "untruncated_roots.csv"),
        ["re", "im"],
        [[r.real for r in roots], [r.imag for r in roots]],
    )
    omega_inf = seed_root(probe)

    manifest = {
        "untruncated_roots": [_c(r) for r in roots],
        "seed": _c(omega_inf),
        "T": cfg.T,
    }
    if cfg.T is not None:
        rows, slope = _window_eigenvalues(
            cfg, probe, omega_inf, args.t_schedule,
            os.path.join(out, "eigenvalue_error.svg"))
        _write_csv(
            os.path.join(out, "eigenvalues.csv"),
            ["j", "T", "re", "im", "err_vs_untruncated"],
            zip(*[(j, T, w.real, w.imag, err) for j, T, w, err in rows]),
        )
        w0 = newton_eigenvalue(probe, 1, cfg.T, omega_inf)
        manifest["eigenvalue"] = _c(w0)
        manifest["eigenvalue_error_slope"] = slope

    if args.winding and cfg.T is not None:
        gamma = cfg.interface.minus.gamma
        rect = ContourRectangle(
            a=args.contour_halfwidth,
            y_top=0.0,
            y_bottom=-gamma + args.winding_delta,
        )
        manifest["winding"] = {
            "a": args.contour_halfwidth,
            "delta": args.winding_delta,
            "count": winding_count(probe, 1, cfg.T, rect),
        }

    if args.delta0 and cfg.T is not None:
        drows = []
        for j, T in _t_schedule(cfg, args.t_schedule):
            d0 = delta0_search(probe, 1, T, a=args.delta0_halfwidth)
            drows.append((j, T, d0))
        _write_csv(
            os.path.join(out, "delta0.csv"), ["j", "T", "delta0"],
            zip(*drows),
        )
        plot = LinePlot(
            title="contour depth margin vs memory window",
            xlabel="T", ylabel="delta0", logx=True, logy=True,
        )
        plot.add([r[1] for r in drows], [r[2] for r in drows],
                 label="delta0(T)", marker=True)
        plot.write(os.path.join(out, "delta0.svg"))
        manifest["delta0_slope"] = _loglog_slope(
            [r[1] for r in drows], [r[2] for r in drows]
        )

    _write_json(os.path.join(out, "spectrum.json"), manifest)
    print(f"spectrum: eigenvalue seed {omega_inf:.6f}, "
          f"{len(roots)} untruncated roots -> {out}")
    return 0


def cmd_eigen(cfg, out, args):
    ctx = cfg.context()
    phi = eigenfunction(ctx)
    x = np.linspace(-_SPAN, _SPAN, 1201)
    vals = phi(x)
    _write_csv(
        os.path.join(out, "eigenfunction.csv"),
        ["x", "re_phi1", "im_phi1", "re_phi2", "im_phi2",
         "re_phi3", "im_phi3"],
        [x] + [part for c in range(3)
               for part in (vals[c].real, vals[c].imag)],
    )
    plot = LinePlot(title="surface mode profile", xlabel="x",
                    ylabel="Re phi")
    for c in range(3):
        plot.add(x, vals[c].real, label=f"component {c + 1}")
    plot.write(os.path.join(out, "eigenfunction.svg"))
    _write_json(
        os.path.join(out, "eigen.json"),
        {
            "eigenvalue": _c(ctx.omega0),
            "mu_minus": _c(phi.mu_minus),
            "mu_plus": _c(phi.mu_plus),
            "V_minus": _c(phi.V_minus),
            "V_plus": _c(phi.V_plus),
        },
    )
    print(f"eigen: omega0 = {ctx.omega0:.12f} -> {out}")
    return 0


def cmd_breather(cfg, out, args):
    ctx = cfg.context()
    grid = StaggeredGrid(cfg.grid_d, cfg.grid_n)
    table = build_series(ctx, grid, cfg.eps, cfg.nu_max, solver=cfg.solver)

    modes_dir = os.path.join(out, "modes")
    os.makedirs(modes_dir, exist_ok=True)
    files = []
    x = grid.x
    x_cells = _cells(x)
    for (n, nu) in sorted(table.entries):
        gf = table.entries[(n, nu)]
        name = f"mode_n{n}_nu{nu}.csv"
        u1, u2, u3 = gf.eval_u1(x), gf.eval_u2(x), gf.eval_u3(x)
        _write_csv(
            os.path.join(modes_dir, name),
            ["x", "re_u1", "im_u1", "re_u2", "im_u2", "re_u3", "im_u3"],
            [u1.real, u1.imag, u2.real, u2.imag, u3.real, u3.imag],
            lead=x_cells,
        )
        files.append(os.path.join("modes", name))

    decay = decay_profile(table)
    _write_csv(os.path.join(out, "decay.csv"), ["nu", "norm"], zip(*decay))
    plot = LinePlot(title="per-level norms", xlabel="nu", ylabel="||u^nu||",
                    logy=True)
    plot.add([d[0] for d in decay], [d[1] for d in decay],
             label="aggregate norm", marker=True)
    plot.write(os.path.join(out, "decay.svg"))

    # First harmonic (2 eps Re phi) against the assembled partial sum at
    # the time-slice t = 0, y = 0.
    phi = eigenfunction(ctx)
    xs = np.linspace(-_SPAN, _SPAN, 1201)
    first = 2.0 * cfg.eps * phi(xs).real
    full = synthesize(table, xs, 0.0, 0.0)
    for c in range(3):
        plot = LinePlot(
            title=f"component {c + 1} at t=0, y=0", xlabel="x",
            ylabel=f"psi{c + 1}",
        )
        plot.add(xs, first[c], label="first harmonic")
        plot.add(xs, full[c], label=f"partial sum M={table.nu_max}")
        plot.write(os.path.join(out, f"overlay_psi{c + 1}.svg"))

    _write_json(
        os.path.join(out, "manifest.json"),
        {
            "eigenvalue": _c(ctx.omega0),
            "eps": cfg.eps,
            "nu_max": cfg.nu_max,
            "solver": cfg.solver,
            "grid": {"d": cfg.grid_d, "N": cfg.grid_n},
            "norms": {str(nu): val for nu, val in decay},
            "mode_files": files,
            "params": {k: v for k, v in sorted(cfg.raw.items())
                       if not k.startswith("_")},
        },
    )
    tail = decay[-1][1] if decay else 0.0
    print(f"breather: {len(files)} modes through nu={cfg.nu_max}, "
          f"top-level norm {tail:.3e} -> {out}")
    return 0


def cmd_check(cfg, out, args):
    ctx = cfg.context()
    probe = PencilContext(cfg.interface, cfg.k, None)
    omega_inf = seed_root(probe)

    report = check_B(ctx, omega_inf)
    cone = check_A6_cone(ctx, cfg.nu_max)
    nl = cfg.interface.nl_minus or cfg.interface.nl_plus
    sweep = gamma_bound_sweep(ctx, nl, min(cfg.nu_max, args.sweep_nu))

    payload = {
        "assumptions": report.to_dict(),
        "cone": cone,
        "nonlinear_bounds": sweep,
    }
    if args.drude_demo:
        payload["drude_demo"] = _run_drude(cfg)

    _write_json(os.path.join(out, "check_report.json"), payload)
    hard = [r.name for r in report.hard_failures]
    for r in report.results:
        print(f"check {r.name}: {r.status} (margin {r.margin:.6g})")
    print(f"check cone: {cone['checked']} points, "
          f"{len(cone['violations'])} violations")
    ok = not hard and not cone["violations"]
    print(f"check: {'pass' if ok else 'FAIL'} -> {out}")
    return 0 if ok else 1


def _run_drude(cfg):
    raw = cfg.raw
    params = DrudeParams(
        c_D=_require(raw, "c_D", float, 4.0),
        # config_from_dict has already required these three
        gamma=_require(raw, "gamma", float),
        alpha=_require(raw, "alpha", float),
        k=_require(raw, "k", float),
        eps0=cfg.interface.eps0,
        mu0=cfg.interface.mu0,
    )
    demo = drude_truncation_demo(params)
    return {
        "params": {
            "c_D": params.c_D, "gamma": params.gamma,
            "alpha": params.alpha, "k": params.k,
        },
        "rect": demo["rect"],
        "untruncated_count": demo["untruncated_count"],
        "untruncated_roots": [_c(r) for r in demo["untruncated_roots"]],
        "counts": [[T, c] for T, c in demo["counts"]],
    }


def manufactured_rhs(ctx, n=1, nu=2):
    """Operator-consistent smooth forcing for grid-refinement studies.

    Prescribes Gaussian bump components on each side, derives the first
    component from the divergence relation and pushes the triple through
    the first two equations, so the discrete solution converges to a
    known smooth function and the measured error is scheme-dominated.
    Returns a grid -> SampledRHS factory.
    """
    om = ctx.omega(n, nu)
    nk = n * ctx.k
    sq = spectral_quantities(ctx, n, nu)
    V_p, V_m, _, _ = sq.as_complex()

    def bump(A, c, s):
        f = lambda x: A * np.exp(-(((x - c) / s) ** 2))
        fp = lambda x: -2.0 * (x - c) / s**2 * f(x)
        return f, fp

    w2m, w2m_p = bump(1.0 + 0.5j, -15.0, 2.0)
    w2p, w2p_p = bump(0.7 - 0.3j, 12.0, 2.5)
    w3m, w3m_p = bump(0.4 + 0.9j, -14.0, 3.0)
    w3p, w3p_p = bump(-0.6 + 0.2j, 13.0, 2.0)

    def side(w2, w2p_, w3, w3p_, V):
        w1 = lambda x: -(1j * w2p_(x) + om * w3(x)) / nk
        r1 = lambda x: nk * w3(x) - V * w1(x)
        r2 = lambda x: 1j * w3p_(x) - V * w2(x)
        return r1, r2

    rm = side(w2m, w2m_p, w3m, w3m_p, V_m)
    rp = side(w2p, w2p_p, w3p, w3p_p, V_p)
    return lambda grid: SampledRHS.from_sides(grid, rm, rp)


def cmd_converge(cfg, out, args):
    ctx = cfg.context()
    rhs = manufactured_rhs(ctx)
    Ns = []
    for tok in args.n_list.split(","):
        N = int(tok)
        Ns.append(N - 1 if N % 2 else N)
    study = fd_convergence_study(ctx, 1, 2, rhs, Ns, d=cfg.grid_d)
    _write_csv(
        os.path.join(out, "fd_convergence.csv"), ["N", "error"],
        zip(*study["table"]),
    )
    plot = LinePlot(title="grid refinement", xlabel="N",
                    ylabel="error vs fine reference", logx=True, logy=True)
    plot.add([r[0] for r in study["table"]],
             [r[1] for r in study["table"]], label="scheme error",
             marker=True)
    plot.write(os.path.join(out, "fd_convergence.svg"))

    manifest = {"fd_slope": study["slope"],
                "fd_table": [[int(N), float(e)] for N, e in study["table"]]}

    if cfg.T is not None:
        probe = PencilContext(cfg.interface, cfg.k, None)
        rows, manifest["eigenvalue_slope"] = _window_eigenvalues(
            cfg, probe, seed_root(probe), args.t_schedule,
            os.path.join(out, "eigenvalue_convergence.svg"))
        _write_csv(
            os.path.join(out, "eigenvalue_convergence.csv"),
            ["j", "T", "err"], zip(*[(j, T, err) for j, T, _, err in rows]),
        )

    _write_json(os.path.join(out, "converge.json"), manifest)
    print(f"converge: fd slope {study['slope']:.3f} -> {out}")
    return 0


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="breather",
        description="Polychromatic interface-mode pipeline",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--config", default=None,
                       help="JSON config (bundled example when omitted)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed-eps", type=float, default=None,
                       help="seed amplitude override")
        p.add_argument("--nu-max", type=int, default=None)
        p.add_argument("--grid-d", type=float, default=None)
        p.add_argument("--grid-n", type=int, default=None)
        p.add_argument("--solver", choices=("fd", "analytic"), default=None)
        return p

    p = common(sub.add_parser("spectrum", help="dispersion roots and "
                              "refined eigenvalues"))
    p.add_argument("--t-schedule", default="51,101,201,501,1001",
                   help="comma list of odd window indices j")
    p.add_argument("--winding", action="store_true",
                   help="count zeros in the standard rectangle")
    p.add_argument("--contour-halfwidth", type=float, default=20.0)
    p.add_argument("--winding-delta", type=float, default=0.05)
    p.add_argument("--delta0", action="store_true",
                   help="bisect the four-zero contour depth per window")
    p.add_argument("--delta0-halfwidth", type=float, default=8.0)
    p.set_defaults(func=cmd_spectrum)

    p = common(sub.add_parser("eigen", help="surface-mode profile"))
    p.set_defaults(func=cmd_eigen)

    p = common(sub.add_parser("breather", help="build the harmonic series"))
    p.set_defaults(func=cmd_breather)

    p = common(sub.add_parser("check", help="assumption report"))
    p.add_argument("--sweep-nu", type=int, default=6)
    p.add_argument("--drude-demo", action="store_true",
                   help="append the lossy-metal truncation counts")
    p.set_defaults(func=cmd_check)

    p = common(sub.add_parser("converge", help="grid and window "
                              "convergence studies"))
    p.add_argument("--n-list", default="2000,4000,8000")
    p.add_argument("--t-schedule", default="51,101,201,401,801,1601")
    p.set_defaults(func=cmd_converge)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    # one stderr handler for the duration of this call, so repeated
    # in-process runs never stack handlers; records stop there, so a
    # caller's root handlers do not print them a second time
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger = logging.getLogger("breather")
    logger.addHandler(handler)
    propagate, logger.propagate = logger.propagate, False
    try:
        return _run(args)
    finally:
        logger.removeHandler(handler)
        logger.propagate = propagate


def _run(args):
    try:
        cfg = load_config(
            args.config,
            eps=args.seed_eps,
            nu_max=args.nu_max,
            grid_d=args.grid_d,
            grid_n=args.grid_n,
            solver=args.solver,
        )
        os.makedirs(args.out, exist_ok=True)
        return args.func(cfg, args.out, args)
    except ResolventViolation as exc:
        err = {
            "error": "ResolventViolation",
            "message": str(exc),
            "n": exc.n,
            "nu": exc.nu,
            "classification": exc.classification,
        }
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return 2
    except BreatherError as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
