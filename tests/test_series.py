"""Structural invariants of the recursive harmonic construction.

One medium-resolution series is built per session and probed for cone
support, conjugation/parity symmetries, amplitude scaling, the exact
divergence constraint, agreement of the two displacement-field routes,
and the independently assembled quadratic sources.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from breather.errors import OverflowGuard
from breather.pencil import PencilContext
from breather.resolvent import StaggeredGrid
from breather.series import (
    _side_samples,
    _synthesize_complex,
    assemble_h,
    beta_coeff,
    build_series,
    d_field_modal,
    decay_profile,
    divergence_residual,
    maxwell_residual,
    synthesize,
)
from breather.susceptibility import MaterialInterface, NonlinearSusceptibility


@pytest.fixture(scope="module")
def table(ctx, grid_ref):
    return build_series(ctx, grid_ref, eps=0.5, nu_max=5, solver="fd")


class TestConeStructure:
    def test_support_and_parity(self, table):
        assert table.get(3, 2) is None
        assert table.get(2, 1) is None
        # opposite parity of n and nu forces zero sources and entries
        for n, nu in ((0, 3), (1, 2), (2, 3)):
            gf = table.get(n, nu)
            if (n + nu) % 2 == 1:
                sc = max(np.max(np.abs(gf.U)), np.max(np.abs(gf.V)))
                assert sc < 1e-200

    def test_conjugate_entries(self, table):
        for n, nu in ((1, 1), (2, 2), (1, 3)):
            a = table.get(n, nu)
            b = table.get(-n, nu)
            assert np.array_equal(b.U, np.conj(a.U))
            assert np.array_equal(b.V, np.conj(a.V))

    def test_axial_entries_nearly_real(self, table):
        for nu in (2, 4):
            gf = table.get(0, nu)
            sc = max(np.max(np.abs(gf.U)), np.max(np.abs(gf.V)))
            im = max(np.max(np.abs(gf.U.imag)), np.max(np.abs(gf.V.imag)))
            assert im < 1e-10 * sc

    def test_solve_residuals(self, table):
        worst = max(gf.residual for gf in table.entries.values())
        assert worst < 1e-10


class TestStructuralZeros:
    def test_odd_harmonics_cost_no_transforms(self, ctx, monkeypatch):
        """Odd-parity harmonics feed no transform, every distinct tuple is
        evaluated once, and the odd entries are still stored as zeros."""
        nl = ctx.interface.nl_minus
        fresh = NonlinearSusceptibility(
            c2=nl.c2, c3=nl.c3, gamma_tilde=nl.gamma_tilde,
            omega_star_tilde=nl.omega_star_tilde, T_N=nl.T_N,
        )
        itf = ctx.interface
        own = PencilContext(
            MaterialInterface(minus=itf.minus, plus=itf.plus,
                              nl_minus=fresh, nl_plus=fresh),
            k=ctx.k, omega0=ctx.omega0,
        )
        evaluated = []
        for name in ("_chi2_kernel", "_chi3_kernel"):
            kernel = getattr(NonlinearSusceptibility, name)

            def spy(self, w, kernel=kernel):
                evaluated.extend(tuple(row) for row in w)
                return kernel(self, w)

            monkeypatch.setattr(NonlinearSusceptibility, name, spy)
        nu_max = 5
        table = build_series(own, StaggeredGrid(40.0, 400), eps=0.5,
                             nu_max=nu_max, solver="fd")
        odd = {own.omega(n, nu) for nu in range(1, nu_max + 1)
               for n in range(-nu, nu + 1) if (n + nu) % 2}
        assert evaluated
        assert not any(w in odd for ws in evaluated for w in ws)
        keys = [tuple(sorted(ws, key=lambda w: (w.real, w.imag)))
                for ws in evaluated]
        assert len(set(keys)) == len(keys)
        for nu in range(2, nu_max + 1):
            for n in range(0, nu + 1):
                if (n + nu) % 2:
                    gf = table.entries[(n, nu)]
                    assert not (gf.U.any() or gf.V.any() or gf.W.any())
                    assert table.h_entries[(n, nu)].is_zero

    def test_overflow_names_harmonic(self, ctx, monkeypatch):
        def overflow(*args, **kwargs):
            raise OverflowGuard("scaled quantity exceeds double range")

        monkeypatch.setattr("breather.series.solve_analytic", overflow)
        with pytest.raises(OverflowGuard, match=r"\(0,2\)"):
            build_series(ctx, StaggeredGrid(40.0, 400), eps=0.5, nu_max=3,
                         solver="analytic")


class TestAmplitudeScaling:
    def test_entries_scale_like_eps_to_nu(self, ctx):
        g = StaggeredGrid(40.0, 400)
        t1 = build_series(ctx, g, eps=0.25, nu_max=3, solver="fd")
        t2 = build_series(ctx, g, eps=0.5, nu_max=3, solver="fd")
        for n, nu in ((1, 1), (2, 2), (0, 2), (1, 3), (3, 3)):
            a, b = t1.get(n, nu), t2.get(n, nu)
            sa, sb = np.max(np.abs(a.U)), np.max(np.abs(b.U))
            if sb < 1e-200:
                continue
            assert sa / sb == pytest.approx(0.5**nu, rel=1e-8)


class TestAssembledSources:
    def test_h1_matches_direct_beta_sum(self, ctx, table):
        """Spot-check the vectorized source assembly against an explicit
        double sum over coefficient pairs at individual grid nodes."""
        n_, nu_ = 2, 2
        h = table.get_h(n_, nu_)
        for jnode in (300, 700):
            direct = 0j
            for mu in range(1, nu_):
                lo = max(-mu, n_ - (nu_ - mu))
                hi = min(mu, n_ + (nu_ - mu))
                for mm in range(lo, hi + 1):
                    a = table.get(mm, mu)
                    b = table.get(n_ - mm, nu_ - mu)
                    if a is None or b is None:
                        continue
                    sa = _side_samples(a)["minus"][0]
                    sb = _side_samples(b)["minus"][0]
                    for p in (1, 2):
                        for q in (1, 2):
                            bc = beta_coeff(
                                ctx, n_, mm, nu_, mu, 1, p, q, "minus"
                            )
                            direct += bc * sa[p - 1][jnode] * sb[q - 1][jnode]
            assert abs(h.h1[jnode] - direct) < 1e-10 * abs(direct)

    def test_sources_outside_cone_vanish(self, ctx, table):
        assert assemble_h(ctx, table, 3, 2).is_zero
        assert table.get_h(-2, 2).h1.shape == table.get_h(2, 2).h1.shape


class TestFieldDiagnostics:
    def test_synthesized_fields_real(self, table):
        x = np.linspace(-30, 30, 400)
        psi = _synthesize_complex(table, x, y=0.7, t=1.3)
        sc = np.max(np.abs(psi))
        assert np.max(np.abs(psi.imag)) < 1e-10 * sc
        assert np.array_equal(synthesize(table, x, 0.7, 1.3), psi.real)

    def test_time_periodicity_up_to_decay(self, table):
        """One carrier period multiplies every level by e^{nu omega_I P}."""
        ctx = table.ctx
        P = 2 * math.pi / ctx.omega_R
        x = np.linspace(-5, 5, 101)
        a = _synthesize_complex(table, x, 0.0, 0.0, M=1)
        b = _synthesize_complex(table, x, 0.0, P, M=1)
        assert np.allclose(b, a * math.exp(ctx.omega_I * P), rtol=1e-9)

    def test_displacement_routes_agree(self, ctx, table):
        for n_, nu_ in ((1, 1), (0, 2), (1, 2), (2, 3)):
            Da = d_field_modal(ctx, table, n_, nu_, route="operator")
            Db = d_field_modal(ctx, table, n_, nu_, route="convolution")
            sc = max(np.max(np.abs(Da[0])), np.max(np.abs(Da[1])), 1e-300)
            gap = max(
                np.max(np.abs(Da[0] - Db[0])),
                np.max(np.abs(Da[1] - Db[1])),
                abs(Da[2] - Db[2]),
            )
            assert gap < 1e-10 * sc

    def test_divergence_constraint(self, ctx, table):
        # solved levels satisfy the constraint exactly by construction
        for n_, nu_ in ((1, 2), (2, 2), (0, 2)):
            assert divergence_residual(ctx, table, n_, nu_) < 1e-10
        # the sampled seed only satisfies it to scheme order
        g4 = StaggeredGrid(40.0, 4000)
        t4 = build_series(ctx, g4, eps=0.5, nu_max=1, solver="fd")
        r_coarse = divergence_residual(ctx, table, 1, 1)
        r_fine = divergence_residual(ctx, t4, 1, 1)
        assert r_coarse / r_fine == pytest.approx(4.0, rel=0.3)

    def test_maxwell_residual_scheme_order(self, ctx, table):
        pts = [(x_, 0.3, 0.8) for x_ in (-7.0, -2.0, 1.5, 6.0)]
        mr = maxwell_residual(ctx, table, pts, M=5)
        assert mr < 10.0 * table.grid.h**2 + 1e-3

    def test_maxwell_residual_right_of_interface(self, ctx):
        # D2 jumps with the permittivity at x = 0: the x >= 0 side must
        # interpolate towards its right limit, not the left one
        res = []
        for N in (2000, 8000):
            g = StaggeredGrid(40.0, N)
            t = build_series(ctx, g, eps=0.5, nu_max=3, solver="fd")
            res.append(maxwell_residual(ctx, t, [(0.25 * g.h, 0.3, 0.8)]))
        assert res[0] / res[1] >= 3.0


class TestDecayAndSolvers:
    def test_decay_profile_monotone_tail(self, table):
        prof = decay_profile(table)
        vals = [v for _, v in prof]
        assert all(b < a for a, b in zip(vals[1:], vals[2:]))

    def test_fd_vs_analytic_builds(self, ctx, grid_ref):
        tf = build_series(ctx, grid_ref, eps=0.5, nu_max=3, solver="fd")
        ta = build_series(ctx, grid_ref, eps=0.5, nu_max=3,
                          solver="analytic")
        h = grid_ref.h
        for n_, nu_ in ((1, 2), (0, 2), (2, 2), (1, 3)):
            a, b = tf.get(n_, nu_), ta.get(n_, nu_)
            sc = max(np.max(np.abs(a.U)), np.max(np.abs(a.V)), 1e-300)
            gap = max(np.max(np.abs(a.U - b.U)), np.max(np.abs(a.V - b.V)))
            assert gap < 10.0 * h**2 * sc

    def test_zero_amplitude(self, ctx):
        g = StaggeredGrid(40.0, 400)
        t0 = build_series(ctx, g, eps=0.0, nu_max=3, solver="fd")
        x = np.linspace(-5, 5, 11)
        assert np.max(np.abs(synthesize(t0, x, 0.0, 0.0))) == 0.0
