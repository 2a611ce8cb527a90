"""Correctness checks of the benchmark's workloads.

Each check takes plain data (the program's outputs, already collected by
a workload) and returns a list of failure messages, empty when the output
passes.  The references come from ``oracles`` or from properties the
method must have; none is a saved copy of an earlier run.
"""

from __future__ import annotations

import math

import numpy as np

import oracles

# Published assumption-table minima of the reference example (margins of
# B3, B4, B5 and the ratio gamma/|Im omega0|), matched to +-2e-3 / 1e-3.
PUBLISHED_MINIMA = {"B3": 0.3207, "B4": 0.0477, "B5": 0.1488}
PUBLISHED_RATIO = 3.3602

# The program's closed-form cubic transform agrees with converged
# quadrature to ~3e-9 relative at cone frequencies (cancellation in its
# divided differences); 3e-8 leaves room for that and still rejects a
# 1e-6 change.
CHI_RTOL = 3e-8
RESIDUAL_MAX = 1e-8
ROOT_RTOL = 1e-10


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ----------------------------------------------------------------------
# Eigenvalues
# ----------------------------------------------------------------------

def check_eigenvalue(itf, omega0, T=None):
    """omega0 is a zero of the windowed surface condition (mpmath)."""
    T = itf.T if T is None else T
    out = []
    root = oracles.truncated_root(itf, 1, T, omega0)
    if _rel(omega0, root) > ROOT_RTOL:
        out.append(f"omega0 {omega0} is {_rel(omega0, root):.1e} (relative) "
                   f"from the windowed-model zero {root}")
    return out


def check_seed_root(itf, omega0):
    """omega0 lies on the shallowest decaying untruncated root
    (mpmath.polyroots); the window moves it by ~e^{-(gamma + Im omega0) T}."""
    roots = oracles.polyroots(oracles.lorentz_quartic(itf, 1))
    decaying = [r for r in roots if r.real > 0 and r.imag < 0]
    seed = max(decaying, key=lambda r: r.imag)
    if _rel(omega0, seed) > 1e-8:
        return [f"omega0 {omega0} is not near the untruncated root {seed}"]
    return []


# ----------------------------------------------------------------------
# Nonlinear transforms
# ----------------------------------------------------------------------

def diagonal(value, ndim):
    t = np.zeros((3,) * ndim)
    for j in range(3):
        t[(j,) * ndim] = value
    return t


def check_chi_values(osc, c2, c3, values):
    """values: [(freqs, program tensor)] for chi2 (2 freqs) and chi3 (3).

    The program tensor must equal the coupling tensor times the quadrature
    of the windowed kernel."""
    out = []
    for freqs, got in values:
        if len(freqs) == 2:
            ref = c2 * oracles.chi2_quadrature(osc, *freqs)
        else:
            ref = c3 * oracles.chi3_quadrature(osc, *freqs)
        err = float(np.max(np.abs(np.asarray(got) - ref)))
        scale = float(np.max(np.abs(ref)))
        if not err <= CHI_RTOL * scale:
            out.append(f"chi{len(freqs)}{tuple(freqs)} differs from "
                       f"quadrature by {err / scale:.1e} (relative)")
    return out


# ----------------------------------------------------------------------
# The harmonic table
# ----------------------------------------------------------------------

def _arrays(gf):
    arrs = [gf.U, gf.V, np.atleast_1d(gf.u1_right)]
    if gf.W is not None:
        arrs += [gf.W, np.atleast_1d(gf.w_right)]
    return arrs


def check_conjugate_pairs(table):
    """u^{-n,nu} = conj(u^{n,nu}) for every stored harmonic with n > 0."""
    out = []
    for (n, nu) in sorted(table.entries):
        if n == 0:
            continue
        a, b = table.get(n, nu), table.get(-n, nu)
        if b is None:
            out.append(f"harmonic ({-n},{nu}) is missing")
            continue
        for x, y in zip(_arrays(a), _arrays(b)):
            scale = max(float(np.max(np.abs(x))), 1e-300)
            if np.max(np.abs(y - np.conj(x))) > 1e-14 * scale:
                out.append(f"({-n},{nu}) is not the conjugate of ({n},{nu})")
                break
    return out


def check_odd_vanish(table, mode_columns):
    """Harmonics with n + nu odd are absent or identically zero, in the
    table and in the mode files (mode_columns: {(n, nu): value array})."""
    out = []
    for (n, nu), gf in sorted(table.entries.items()):
        if (n + nu) % 2 and any(np.any(x != 0) for x in _arrays(gf)):
            out.append(f"table harmonic ({n},{nu}) has n + nu odd but is "
                       "not zero")
    for (n, nu), cols in sorted(mode_columns.items()):
        if (n + nu) % 2 and np.any(cols != 0):
            out.append(f"mode file ({n},{nu}) has n + nu odd but is not zero")
    return out


def check_residuals(itf, table, omega):
    """The solve residual the program reports, and the residual of the
    staggered equations on x > 0 recomputed here, stay below 1e-8."""
    out = []
    h = table.grid.h
    for (n, nu), gf in sorted(table.entries.items()):
        if nu < 2:
            continue
        if gf.residual is None or not gf.residual < RESIDUAL_MAX:
            out.append(f"({n},{nu}) reports solve residual {gf.residual}")
        src = table.h_entries[(n, nu)]
        res = oracles.plus_side_residual(itf, omega(n, nu), n, h, gf.U,
                                         gf.V, src.h1, src.h2)
        if res is not None and not res < RESIDUAL_MAX:
            out.append(f"({n},{nu}) staggered equations on x > 0 leave "
                       f"residual {res:.1e}")
    return out


def level_norms(table, k):
    """||u^nu|| = sqrt(2 pi/k) * sqrt(sum_n w_n h (|U|^2 + |V|^2 + |W|^2)),
    w_n = 1 for n = 0 and 2 otherwise (the -n mirror), V over the N half
    nodes."""
    h, N = table.grid.h, table.grid.N
    levels = {}
    for (n, nu), gf in table.entries.items():
        s = (np.sum(np.abs(gf.U) ** 2) + np.sum(np.abs(gf.V[:N]) ** 2)
             + (0.0 if gf.W is None else np.sum(np.abs(gf.W) ** 2)))
        weight = 1.0 if n == 0 else 2.0
        levels[nu] = levels.get(nu, 0.0) + weight * h * float(s)
    P = 2.0 * math.pi / abs(k)
    return {nu: math.sqrt(P * v) for nu, v in sorted(levels.items())}


def check_decay(norms, recomputed):
    """The reported level norms match their definition, fall at every
    level and fit a straight line in log scale (R^2 > 0.99)."""
    out = []
    for nu, val in sorted(recomputed.items()):
        got = norms.get(nu)
        if got is None or _rel(got, val) > 1e-12:
            out.append(f"level {nu} norm {got} differs from its definition "
                       f"{val}")
    nus = sorted(norms)
    vals = [norms[nu] for nu in nus]
    for nu, a, b in zip(nus[1:], vals, vals[1:]):
        if not b < a:
            out.append(f"level norm grows at nu = {nu}: {a:.3e} -> {b:.3e}")
    logs = np.log(vals)
    slope, icpt = np.polyfit(nus, logs, 1)
    ss = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 - float(np.sum((logs - (slope * np.asarray(nus) + icpt)) ** 2)) / ss
    if not (slope < 0 and r2 > 0.99):
        out.append(f"level norms are not exponential: slope {slope:.3f}, "
                   f"R^2 {r2:.5f}")
    return out


def synthesize_complex(table, x, y, t):
    """sum over the cone of u^{n,nu}(x) e^{-i n (omega_R t - k y)}
    e^{nu omega_I t}, both signs of n, before taking the real part."""
    ctx = table.ctx
    psi = np.zeros((3, len(x)), dtype=complex)
    for nu in range(1, table.nu_max + 1):
        for n in range(-nu, nu + 1):
            gf = table.get(n, nu)
            if gf is None:
                continue
            phase = (np.exp(-1j * n * (ctx.omega_R * t - ctx.k * y))
                     * math.exp(nu * ctx.omega_I * t))
            psi[0] += phase * gf.eval_u1(x)
            psi[1] += phase * gf.eval_u2(x)
            if gf.W is not None:
                psi[2] += phase * gf.eval_u3(x)
    return psi


def check_fields(table, k, samples, synthesize):
    """The series sums to a real field, the program's synthesis equals
    that sum, and the field is 2 pi/k periodic in y.

    samples: [(x array, y, t)]; synthesize is the program's function."""
    out = []
    period = 2.0 * math.pi / k
    for x, y, t in samples:
        psi = synthesize_complex(table, x, y, t)
        scale = float(np.max(np.abs(psi)))
        if np.max(np.abs(psi.imag)) > 1e-12 * scale:
            out.append(f"field at y={y:.3f}, t={t:.3f} is not real: "
                       f"|Im| {np.max(np.abs(psi.imag)) / scale:.1e}")
        got = synthesize(table, x, y, t)
        if np.max(np.abs(got - psi.real)) > 1e-12 * scale:
            out.append(f"synthesized field at y={y:.3f}, t={t:.3f} differs "
                       "from the harmonic sum")
        shifted = synthesize(table, x, y + period, t)
        if np.max(np.abs(shifted - got)) > 1e-12 * scale:
            out.append(f"field at t={t:.3f} is not periodic in y")
    return out


def check_identical(digests):
    """Every pass wrote the same files with the same bytes."""
    first = digests[0]
    for i, d in enumerate(digests[1:], start=2):
        if d != first:
            changed = sorted(set(d) ^ set(first)) or sorted(
                f for f in d if d[f] != first.get(f))
            return [f"pass {i} artifacts differ from pass 1: {changed[:3]}"]
    return []


# ----------------------------------------------------------------------
# Grid refinement and solver agreement
# ----------------------------------------------------------------------

def check_ladder(table, slope):
    """Manufactured-forcing errors fall at second order (slope -2.2..-1.8)."""
    errs = [e for _, e in table]
    if not all(b < a for a, b in zip(errs, errs[1:])):
        return [f"refinement errors do not fall: {errs}"]
    if not -2.2 < slope < -1.8:
        return [f"refinement slope {slope:.3f} is not about -2"]
    return []


def observed_order(gap_coarse, gap_fine, ratio):
    """log(gap_coarse/gap_fine)/log(ratio); inf when both gaps vanish."""
    if gap_fine == 0.0:
        return math.inf
    if gap_coarse == 0.0:
        return -math.inf
    return math.log(gap_coarse / gap_fine) / math.log(ratio)


def second_order(gap_coarse, gap_fine, ratio):
    """FD and analytic agree to second order: the gap between them falls
    at observed order >= 1.5 when h shrinks by ratio."""
    return observed_order(gap_coarse, gap_fine, ratio) >= 1.5


# ----------------------------------------------------------------------
# Contour quadrature
# ----------------------------------------------------------------------

def check_winding(itf, count, a, y_bottom, y_top=0.0):
    """The argument-principle count equals the untruncated roots inside."""
    roots = oracles.polyroots(oracles.lorentz_quartic(itf, 1))
    want = oracles.count_inside(roots, a, y_bottom, y_top)
    if count != want:
        return [f"winding count {count}, but {want} untruncated roots lie "
                "inside the rectangle"]
    return []


def check_delta0(itf, rows, a, tol):
    """Each delta0 sits within the bisection tolerance above the highest
    window-induced zero, gamma + Im z_top (rows: [(j, T, delta0)])."""
    out = []
    for j, T, d0 in rows:
        top, resid = oracles.spurious_band_top(itf, 1, T, a)
        want = itf.gamma + top
        if resid > 1e-10:
            out.append(f"j={j}: spurious-zero iteration did not converge "
                       f"({resid:.1e})")
        elif not want - 1e-6 <= d0 <= want + tol + 1e-6:
            out.append(f"j={j}: delta0 {d0:.6g} is not within [{want:.6g}, "
                       f"{want + tol:.6g}] set by the top spurious zero")
    return out


def check_delta0_scaling(rows):
    """delta0 ~ 1/T over the schedule: log-log slope in (-1.15, -0.80)."""
    logs_T = [math.log(T) for _, T, _ in rows]
    logs_d = [math.log(d) for _, _, d in rows]
    slope = float(np.polyfit(logs_T, logs_d, 1)[0])
    if not -1.15 < slope < -0.80:
        return [f"delta0 slope {slope:.3f} over the schedule is not ~ -1"]
    return []


# ----------------------------------------------------------------------
# Assumption report
# ----------------------------------------------------------------------

def check_assumptions(report):
    out = []
    results = {r["name"]: r for r in report["results"]}
    for name, want in PUBLISHED_MINIMA.items():
        got = results[name]["margin"]
        if not abs(got - want) <= 2e-3:
            out.append(f"{name} margin {got:.4f} differs from the published "
                       f"{want}")
    ratio = report["params"]["gamma_over_abs_omega_I"]
    if not abs(ratio - PUBLISHED_RATIO) <= 1e-3:
        out.append(f"gamma/|Im omega0| = {ratio:.5f}, published "
                   f"{PUBLISHED_RATIO}")
    failed = [r["name"] for r in report["results"] if r["status"] == "fail"]
    if failed:
        out.append(f"assumption checks fail: {failed}")
    return out


def check_cone(cone, nu_max):
    """No violations, and every cone point except (+-1, 1) was checked."""
    out = []
    if cone["violations"]:
        out.append(f"cone violations: {cone['violations'][:3]}")
    want = (nu_max + 1) ** 2 - 3
    if cone["checked"] != want:
        out.append(f"cone checked {cone['checked']} points, expected {want}")
    return out


def check_drude(demo, c_D, gamma, alpha, k, eps0=1.0, mu0=1.0):
    """Untruncated Drude roots inside the rectangle match mpmath, and the
    truncated count vanishes at the longest window."""
    out = []
    roots = oracles.polyroots(
        oracles.drude_quartic(c_D, gamma, alpha, k, eps0, mu0))
    strip = sorted((r for r in roots if -gamma < r.imag < 0.0),
                   key=lambda r: (r.real, r.imag))
    got = sorted((complex(*r) for r in demo["untruncated_roots"]),
                 key=lambda r: (r.real, r.imag))
    if len(got) != len(strip) or any(abs(a - b) > 1e-9 * max(1.0, abs(b))
                                     for a, b in zip(got, strip)):
        out.append(f"untruncated Drude roots {got} differ from {strip}")
    rect = demo["rect"]
    want = oracles.count_inside(strip, rect["a"], rect["y_bottom"],
                                rect["y_top"])
    if demo["untruncated_count"] != want or want < 1:
        out.append(f"untruncated count {demo['untruncated_count']}, "
                   f"expected {want} (>= 1)")
    last = demo["counts"][-1][1]
    if last != 0:
        out.append(f"Drude count at the longest window is {last}, not 0")
    return out


def check_sweep_level(osc, sweep, omega, eps0, mu0, c2max, c3max):
    """The quadratic maximum at level 2 and the cubic maximum at level 3
    of the coupling sweep, recomputed over every frequency combination
    with quadrature transforms."""
    out = []
    first = [(m, 1) for m in (-1, 0, 1)]
    beta = max(abs(omega(a[0] + b[0], 2)) * eps0 * mu0**2 * c2max
               * abs(oracles.chi2_quadrature(osc, omega(*a), omega(*b)))
               for a in first for b in first)
    gamma = max(abs(omega(a[0] + b[0] + c[0], 3)) * eps0 * mu0**3 * c3max
                * abs(oracles.chi3_quadrature(osc, omega(*a), omega(*b),
                                              omega(*c)))
                for i, a in enumerate(first) for b in first[i:]
                for c in first)
    for label, profile, level, want in (
        ("beta", sweep["beta_profile"], 2, beta),
        ("gamma", sweep["gamma_profile"], 3, gamma),
    ):
        got = dict((int(nu), v) for nu, v in profile).get(level)
        if got is None or _rel(got, want) > CHI_RTOL:
            out.append(f"{label} profile at level {level}: {got}, "
                       f"quadrature gives {want}")
    return out
