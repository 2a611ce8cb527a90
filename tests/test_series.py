"""Structural invariants of the recursive harmonic construction.

One medium-resolution series is built per session and probed for cone
support, conjugation/parity symmetries, amplitude scaling, the exact
divergence constraint, agreement of the two displacement-field routes,
and the independently assembled sources: against an explicit sum over
every ordered factor tuple, for general coupling tensors too.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from breather.errors import OverflowGuard
from breather.pencil import PencilContext
from breather.resolvent import StaggeredGrid, _join_limits
from breather.series import (
    _factor_multisets,
    _side_samples,
    _source_terms,
    _synthesize_complex,
    assemble_h,
    build_series,
    d_field_modal,
    decay_profile,
    divergence_residual,
    maxwell_residual,
    synthesize,
)
from breather.susceptibility import (
    MaterialInterface,
    NonlinearSusceptibility,
    ft_chi2_truncated,
    ft_chi3_truncated,
)


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
        evaluated once and never together with its mirror, and the odd
        entries are still stored as zeros."""
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
        kernel = NonlinearSusceptibility._chi_kernel

        def spy(self, w):
            evaluated.extend(tuple(row) for row in w)
            return kernel(self, w)

        monkeypatch.setattr(NonlinearSusceptibility, "_chi_kernel", spy)
        nu_max = 5
        table = build_series(own, StaggeredGrid(40.0, 400), eps=0.5,
                             nu_max=nu_max, solver="fd")
        odd = {own.omega(n, nu) for nu in range(1, nu_max + 1)
               for n in range(-nu, nu + 1) if (n + nu) % 2}
        assert evaluated
        assert not any(w in odd for ws in evaluated for w in ws)

        def order_free(ws):
            return tuple(sorted(ws, key=lambda w: (w.real, w.imag)))

        keys = {order_free(ws) for ws in evaluated}
        assert len(keys) == len(evaluated)
        # No tuple is evaluated together with its mirror (-conj w, ...).
        for ws in keys:
            mirror = order_free(-w.conjugate() for w in ws)
            assert mirror == ws or mirror not in keys
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


def beta_coeff(ctx, n, m, nu, mu, j, p, q, side):
    """Quadratic coefficient -omega^{(n,nu)} eps0 mu0^2 chi2_{j,p,q}(
    omega^{(m,mu)}, omega^{(n-m,nu-mu)}) of the given side; zero when that
    side is linear.  Indices j, p, q are 1-based field components."""
    nl = ctx.interface.nl_side(side)
    if nl is None:
        return 0j
    itf = ctx.interface
    chi2 = ft_chi2_truncated(nl, ctx.omega(m, mu), ctx.omega(n - m, nu - mu))
    return (-ctx.omega(n, nu) * itf.eps0 * itf.mu0**2
            * chi2[j - 1, p - 1, q - 1])


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
                    sa = _side_samples(a)[0]
                    sb = _side_samples(b)[0]
                    for p in (1, 2):
                        for q in (1, 2):
                            bc = beta_coeff(
                                ctx, n_, mm, nu_, mu, 1, p, q, "minus"
                            )
                            direct += bc * sa[p - 1][jnode] * sb[q - 1][jnode]
            assert abs(h.h1[jnode] - direct) < 1e-10 * abs(direct)

    def test_axial_sources_exactly_imaginary(self, table):
        """h^{0,nu} = -conj(h^{0,nu}) holds exactly, not to rounding."""
        for nu in (2, 4):
            h = table.get_h(0, nu)
            assert h.h1.imag.any() and h.h2.imag.any()
            assert not (h.h1.real.any() or h.h2.real.any())
            assert h.h1_right.real == 0.0

    def test_sources_outside_cone_vanish(self, ctx, table):
        assert assemble_h(ctx, table, 3, 2).is_zero
        assert table.get_h(-2, 2).h1.shape == table.get_h(2, 2).h1.shape

    def test_missing_level_raises(self, ctx, table):
        # one level past the table only needs stored entries ...
        assert not assemble_h(ctx, table, 0, table.nu_max + 1).is_zero
        # ... two levels past it needs a level that was never built
        with pytest.raises(ValueError, match=r"h\^\(1,7\) .* u\^\(2,6\)"):
            assemble_h(ctx, table, 1, table.nu_max + 2)


def _side_ranges(grid):
    """Per side, the (integer-node, half-node) index ranges of
    ``_side_samples`` and the source arrays."""
    m = grid.mid
    return {"minus": (slice(0, m + 1), slice(0, m)),
            "plus": (slice(m + 1, grid.N + 2), slice(m, grid.N))}


def _ordered_source(ctx, table, n, nu):
    """h^{n,nu} as [h1 (interface limits joined), h2], summed over every
    ordered tuple of cone factors with the full chi2/chi3 tensors, each
    side with its own material; zero on a linear side.  The products and
    the sum are carried in extended precision (where numpy's longdouble
    has it), so that the reference's own rounding, which cancellation in
    the n = 0 sums raises to about 1e-14 in double, stays out of the
    comparison."""
    itf = ctx.interface
    grid = table.grid
    cone = [(m, mu) for mu in range(1, nu) for m in range(-mu, mu + 1)]
    tuples = [fs for order in (2, 3)
              for fs in itertools.product(cone, repeat=order)
              if sum(f[0] for f in fs) == n and sum(f[1] for f in fs) == nu]
    out = [np.zeros(grid.N + 2, dtype=np.clongdouble),
           np.zeros(grid.N, dtype=np.clongdouble)]
    for side, rng in _side_ranges(grid).items():
        nl = itf.nl_side(side)
        if nl is None:
            continue
        for factors in tuples:
            gfs = [table.get(*f) for f in factors]
            if any(gf is None for gf in gfs):
                # only the odd harmonic (0, 1) is not stored: it vanishes
                assert (0, 1) in factors
                continue
            samples = [_side_samples(gf) for gf in gfs]
            order = len(factors)
            ft = ft_chi2_truncated if order == 2 else ft_chi3_truncated
            chi = ft(nl, *(ctx.omega(*f) for f in factors))
            pref = -ctx.omega(n, nu) * itf.eps0 * itf.mu0**order
            for j in range(2):
                for comps in itertools.product(range(2), repeat=order):
                    term = np.clongdouble(pref * chi[(j, *comps)])
                    for s_, p in zip(samples, comps):
                        term = term * s_[j][p][rng[j]].astype(np.clongdouble)
                    out[j][rng[j]] += term
    return out


class TestGeneralCouplings:
    @pytest.mark.parametrize("nonlinear_sides",
                             [["minus"], ["plus"], ["minus", "plus"]],
                             ids=["minus", "plus", "both"])
    def test_sources_match_ordered_sum(self, general_coupling_ctx,
                                       nonlinear_sides):
        """The multiset sum with symmetrized couplings equals the ordered
        sum for coupling tensors without any index symmetry, with a
        different material on each side or a linear side; a linear
        side's sources, its interface limit included, are exactly zero."""
        itf = general_coupling_ctx.interface
        assert itf.nl_minus is not itf.nl_plus
        ctx = PencilContext(
            MaterialInterface(
                minus=itf.minus, plus=itf.plus,
                **{f"nl_{s}": itf.nl_side(s) for s in nonlinear_sides}),
            k=general_coupling_ctx.k, omega0=general_coupling_ctx.omega0)
        table = build_series(ctx, StaggeredGrid(40.0, 400), eps=0.5,
                             nu_max=4, solver="fd")
        ranges = _side_ranges(table.grid)
        for nu in range(2, table.nu_max + 1):
            for n in range(0, nu + 1):
                h = assemble_h(ctx, table, n, nu)
                got = [_join_limits(table.grid, h.h1, h.h1_right), h.h2]
                ref = _ordered_source(ctx, table, n, nu)
                for side, rng in ranges.items():
                    for a, b, r in zip(got, ref, rng):
                        if side not in nonlinear_sides:
                            assert not a[r].any()
                            continue
                        scale = np.max(np.abs(b[r]))
                        assert (scale > 0) == ((n + nu) % 2 == 0)
                        assert np.max(np.abs(a[r] - b[r])) <= 1e-14 * scale


def test_factor_multiplicities():
    """Grouping the ordered terms by multiset loses and adds none."""
    for nu in range(0, 13):
        for n in range(-nu - 1, nu + 2):
            ordered = list(_source_terms(n, nu))
            groups = _factor_multisets(n, nu)
            if (n + nu) % 2:
                assert not ordered and not groups
            assert sum(mult for _, mult in groups) == len(ordered)
            assert len(set(ordered)) == len(ordered)
            perms = set()
            for factors, mult in groups:
                distinct = set(itertools.permutations(factors))
                denom = math.prod(map(math.factorial,
                                      Counter(factors).values()))
                assert mult == len(distinct)
                assert mult == math.factorial(len(factors)) // denom
                perms |= distinct
            assert perms == set(ordered)


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
            gap = max(np.max(np.abs(a - b)) for a, b in zip(Da, Db))
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
