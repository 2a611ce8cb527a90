"""Acceptance gate: one test per shipped guarantee, each printing a
single pass/fail line with its measured numbers.

Run with ``pytest -v`` (or ``-s`` to see the lines for passing tests).
"""

from __future__ import annotations

import contextlib
import math
import time

import numpy as np
import pytest

from breather.checks import DrudeParams, check_B, drude_truncation_demo
from breather.cli import manufactured_rhs
from breather.pencil import (
    ContourRectangle,
    delta0_search,
    dispersion_G,
    newton_eigenvalue,
    spectral_quantities,
    untruncated_eigenvalues,
    winding_count,
)
from breather.resolvent import (
    SampledRHS,
    StaggeredGrid,
    fd_convergence_study,
    solve_analytic,
    solve_fd,
)
from breather.series import (
    _synthesize_complex,
    assemble_h,
    build_series,
    decay_profile,
    divergence_residual,
    synthesize,
)
from breather.susceptibility import (
    TruncatedDrude,
    TruncatedLorentz,
)

import test_susceptibility as oracle
from conftest import CSTAR, OMEGA0_REF, T_REF

TARGET = 1.8179 - 0.1488j


@contextlib.contextmanager
def criterion(k, desc):
    t0 = time.perf_counter()
    note = {}
    try:
        yield note
    except Exception:
        print(f"[criterion {k:2d}] FAIL  {desc}")
        raise
    dt = time.perf_counter() - t0
    extra = f" ({note['msg']})" if "msg" in note else ""
    print(f"[criterion {k:2d}] PASS  {desc}{extra} [{dt:.1f}s]")


@pytest.fixture(scope="module")
def table_eps05(ctx, grid_ref):
    return build_series(ctx, grid_ref, eps=0.5, nu_max=10, solver="fd")


def semilog_fit(profile):
    nus = [nu for nu, _ in profile]
    logs = [math.log(v) for _, v in profile]
    A = np.vstack([nus, np.ones(len(nus))]).T
    coef, res, *_ = np.linalg.lstsq(A, logs, rcond=None)
    ss = float(np.sum((np.asarray(logs) - np.mean(logs)) ** 2))
    r2 = 1.0 - (float(res[0]) / ss if len(res) else 0.0)
    return float(coef[0]), r2


def test_criterion_01_untruncated_eigenvalue(probe):
    with criterion(1, "untruncated eigenvalue within 5e-4") as note:
        t0 = time.perf_counter()
        roots = untruncated_eigenvalues(probe, 1)
        best = min(roots, key=lambda r: abs(r - TARGET))
        dt = time.perf_counter() - t0
        assert abs(best - TARGET) < 5e-4
        assert dt < 1.0
        note["msg"] = f"root {best:.6f}"


def test_criterion_02_truncated_newton(probe):
    with criterion(2, "Newton on the truncated dispersion") as note:
        t0 = time.perf_counter()
        seed = max(
            (r for r in untruncated_eigenvalues(probe, 1)
             if r.real > 0 and r.imag < 0),
            key=lambda r: r.imag,
        )
        w = newton_eigenvalue(probe, 1, T_REF, seed, tol=1e-16)
        dt = time.perf_counter() - t0
        assert abs(dispersion_G(probe, 1, w, T_REF)) < 1e-12
        assert round(w.real, 4) == round(seed.real, 4)
        assert round(w.imag, 4) == round(seed.imag, 4)
        assert dt < 1.0
        note["msg"] = f"|G| = {abs(dispersion_G(probe, 1, w, T_REF)):.2e}"


def test_criterion_03_published_minima(ctx):
    with criterion(3, "published assumption-table minima") as note:
        t0 = time.perf_counter()
        report = check_B(ctx, OMEGA0_REF)
        dt = time.perf_counter() - t0
        b4 = report["B4"].margin
        b3 = report["B3"].margin
        b5 = report["B5"].margin
        ratio = report.params["gamma_over_abs_omega_I"]
        assert b4 == pytest.approx(0.0477, abs=2e-3)
        assert b3 == pytest.approx(0.3207, abs=2e-3)
        assert b5 == pytest.approx(0.1488, abs=2e-3)
        assert ratio == pytest.approx(3.3602, abs=1e-3)
        assert dt < 5.0
        note["msg"] = (f"min|mu^2| {b4:.4f}, min|V| {b3:.4f}, "
                       f"dist {b5:.4f}, ratio {ratio:.5f}")


def test_criterion_04_winding_count(probe):
    with criterion(4, "winding count 4 on the reference rectangle") as note:
        t0 = time.perf_counter()
        rect = ContourRectangle(a=20.0, y_top=0.0, y_bottom=-0.5 + 0.05)
        count = winding_count(probe, 1, T_REF, rect)
        dt = time.perf_counter() - t0
        assert count == 4
        assert dt < 30.0
        note["msg"] = f"count {count}"


def test_criterion_05_delta0_scaling(probe):
    with criterion(5, "contour-depth margin ~ 1/T over a decade") as note:
        t0 = time.perf_counter()
        rows = []
        for j in (101, 201, 401, 701, 1001):
            T = j * math.pi / CSTAR
            rows.append((T, delta0_search(probe, 1, T, a=8.0)))
        slope = float(np.polyfit(
            [math.log(T) for T, _ in rows],
            [math.log(d) for _, d in rows], 1,
        )[0])
        dt = time.perf_counter() - t0
        assert -1.15 < slope < -0.80
        assert dt < 600.0
        note["msg"] = f"slope {slope:.3f}"


def test_criterion_06_fd_order(ctx):
    with criterion(6, "second-order grid convergence") as note:
        t0 = time.perf_counter()
        study = fd_convergence_study(
            ctx, 1, 2, manufactured_rhs(ctx),
            [StaggeredGrid(40.0, n - 1).N for n in (2001, 4001, 8001)],
            d=40.0,
        )
        dt = time.perf_counter() - t0
        assert -2.2 < study["slope"] < -1.8
        assert dt < 300.0
        note["msg"] = f"slope {study['slope']:.3f}"


def test_criterion_07_breather_decay(ctx, grid_ref, table_eps05):
    with criterion(7, "exponential decay of the harmonic levels") as note:
        t0 = time.perf_counter()
        slope, r2 = semilog_fit(decay_profile(table_eps05))
        assert slope < 0 and r2 > 0.99
        big = build_series(ctx, grid_ref, eps=20.0, nu_max=10, solver="fd")
        vals = [v for _, v in decay_profile(big)]
        assert all(b < a for a, b in zip(vals[1:], vals[2:]))
        dt = time.perf_counter() - t0
        assert dt < 600.0
        note["msg"] = f"eps=0.5 slope {slope:.3f}, R^2 {r2:.5f}"


def test_criterion_08_structural_suite(ctx, table_eps05):
    with criterion(8, "structural invariants of the series") as note:
        t0 = time.perf_counter()
        table = table_eps05
        assert table.get(3, 2) is None and table.get(-4, 3) is None
        for n, nu in ((1, 1), (2, 2), (1, 3)):
            a, b = table.get(n, nu), table.get(-n, nu)
            sc = max(np.max(np.abs(a.U)), 1e-300)
            assert np.max(np.abs(b.U - np.conj(a.U))) < 1e-12 * sc
        assert assemble_h(ctx, table, 1, 1).is_zero
        assert max(g.residual for g in table.entries.values()) < 1e-8
        h2 = table.grid.h ** 2
        for n, nu in ((1, 2), (2, 2), (0, 2)):
            assert divergence_residual(ctx, table, n, nu) < 100 * h2
        x = np.linspace(-20, 20, 201)
        psi = _synthesize_complex(table, x, 0.7, 1.3)
        assert np.max(np.abs(psi.imag)) < 1e-12 * np.max(np.abs(psi))
        period = 2 * math.pi / ctx.k
        a = synthesize(table, x, 0.2, 0.9)
        b = synthesize(table, x, 0.2 + period, 0.9)
        assert np.allclose(a, b, rtol=0, atol=1e-12 * np.max(np.abs(a)))
        dt = time.perf_counter() - t0
        assert dt < 120.0
        note["msg"] = "support/conjugation/residual/divergence/realness"


def _plus_side_oracle(ctx, n, nu):
    """Smooth forcing supported on the non-dispersive side only.

    The exact solution vanishes on x < 0 up to roundoff, so the oracle
    stays well-posed arbitrarily deep in the cone, where the dispersive
    side's admittance exceeds floating-point range.
    """
    om = ctx.omega(n, nu)
    nk = n * ctx.k
    V_p = spectral_quantities(ctx, n, nu).as_complex(strict=False)[0]

    def bump(A, c, s):
        f = lambda x: A * np.exp(-(((x - c) / s) ** 2))
        fp = lambda x: -2 * (x - c) / s**2 * f(x)
        fpp = lambda x: (-2 / s**2 + (2 * (x - c) / s**2) ** 2) * f(x)
        return f, fp, fpp

    w2, w2p, w2pp = bump(0.7 - 0.3j, 12.0, 2.5)
    w3, w3p, _ = bump(-0.6 + 0.2j, 13.0, 2.0)
    if n == 0:
        w3 = lambda x: -1j * w2p(x) / om
        w3p = lambda x: -1j * w2pp(x) / om
        w1 = bump(-0.5 + 0.4j, 14.0, 2.0)[0]
        r1 = lambda x: -V_p * w1(x)
    else:
        w1 = lambda x: -(1j * w2p(x) + om * w3(x)) / nk
        r1 = lambda x: nk * w3(x) - V_p * w1(x)
    r2 = lambda x: 1j * w3p(x) - V_p * w2(x)
    zero = lambda x: np.zeros(np.shape(x), dtype=complex)
    return (zero, zero), (r1, r2)


def test_criterion_09_cross_solver(ctx, grid_ref):
    with criterion(9, "analytic vs FD resolvent agreement") as note:
        t0 = time.perf_counter()
        bound = 10.0 * grid_ref.h ** 2
        worst = 0.0
        for nu in range(2, 7):
            for n in range(0, nu + 1):
                if (n + nu) % 2:
                    continue
                rm, rp = _plus_side_oracle(ctx, n, nu)
                rhs = SampledRHS.from_sides(grid_ref, rm, rp)
                a = solve_fd(ctx, n, nu, rhs)
                b = solve_analytic(ctx, n, nu, rhs)
                num = math.sqrt(grid_ref.h * float(
                    np.sum(np.abs(a.U - b.U) ** 2)
                    + np.sum(np.abs(a.V - b.V) ** 2)
                ))
                den = math.sqrt(grid_ref.h * float(
                    np.sum(np.abs(a.U) ** 2) + np.sum(np.abs(a.V) ** 2)
                ))
                worst = max(worst, num / max(den, 1e-300))
        dt = time.perf_counter() - t0
        assert worst < bound
        assert dt < 120.0
        note["msg"] = f"worst rel gap {worst:.2e} < {bound:.2e}"


def test_criterion_10_drude_negative_result():
    with criterion(10, "truncation artifacts vanish for long windows") as note:
        t0 = time.perf_counter()
        demo = drude_truncation_demo(
            DrudeParams(c_D=4.0, gamma=0.5, alpha=2.0, k=3.0)
        )
        counts = demo["counts"]
        dt = time.perf_counter() - t0
        assert demo["untruncated_count"] >= 1
        assert counts[-1][1] == 0
        assert dt < 60.0
        note["msg"] = (f"untruncated {demo['untruncated_count']}, "
                       f"counts {[c for _, c in counts]}")


def test_criterion_11_susceptibility_oracles(nl):
    with criterion(11, "kernel transforms vs quadrature oracles") as note:
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)
        lor = TruncatedLorentz(c_L=20.0, gamma=0.5, omega_star=2.0, T=8.0)
        dru = TruncatedDrude(c_D=4.0, gamma=0.5, T=6.0)
        klor = oracle.lorentz_kernel(20.0, 0.5, 2.0)
        kdru = oracle.drude_kernel(4.0, 0.5)
        for _ in range(100):
            w = complex(rng.uniform(-6, 6), rng.uniform(-1.2, 1.2))
            for model, kern, T in ((lor, klor, 8.0), (dru, kdru, 6.0)):
                ref = oracle.quad_chi1(kern, T, w, n=200)
                assert abs(model.ft(w) - ref) < 1e-10 * max(1, abs(ref))
        for _ in range(100):
            w1 = complex(rng.uniform(-8, 8), rng.uniform(-1, 1))
            w2 = complex(rng.uniform(-8, 8), rng.uniform(-1, 1))
            ref = oracle.quad_chi2_scalar(nl.T_N, w1, w2, n=16)
            assert abs(nl._scalar_chi2_truncated(w1, w2) - ref) \
                < 1e-9 * abs(ref)
        for _ in range(10):
            w = [complex(rng.uniform(-5, 5), rng.uniform(-0.8, 0.8))
                 for _ in range(3)]
            ref = oracle.quad_chi3_scalar(nl.T_N, *w, n=10)
            assert abs(nl._scalar_chi3_truncated(*w) - ref) \
                < 1e-9 * abs(ref)
        # support bound: |chi2| <= mass * exp(T_N (|Im w1| + |Im w2|))
        mass = abs(oracle.quad_chi2_scalar(nl.T_N, 0.0, 0.0, n=16)) * 4.0
        for _ in range(40):
            w1 = complex(rng.uniform(-10, 10), rng.uniform(-25, 5))
            w2 = complex(rng.uniform(-10, 10), rng.uniform(-25, 5))
            bound = mass * math.exp(nl.T_N * (abs(w1.imag) + abs(w2.imag)))
            assert abs(nl._scalar_chi2_truncated(w1, w2)) <= bound
        dt = time.perf_counter() - t0
        assert dt < 120.0
        note["msg"] = "chi1/chi2/chi3 sweeps and growth bound"
