"""Structural invariants of the recursive harmonic construction.

One medium-resolution series is built per session and probed for cone
support, conjugation/parity symmetries, amplitude scaling, the exact
divergence constraint, agreement of the two displacement-field routes,
and the independently assembled sources: against an explicit sum over
every ordered factor tuple, for general coupling tensors too.
"""

from __future__ import annotations

import copy
import gc
import itertools
import math
import tracemalloc
import types
import weakref
from collections import Counter

import numpy as np
import pytest

from breather.errors import OverflowGuard
from breather.pencil import PencilContext
from breather.resolvent import (
    GridFunction,
    SampledRHS,
    StaggeredGrid,
    solve_analytic,
    solve_fd,
)
import breather.series as series
from breather.series import (
    _cone_multisets,
    _factor_multisets,
    _synthesize_complex,
    _tile_samples,
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


def _side_samples(gf):
    """Whole-grid arrays of (u1, u2) on both node families: the oracle of
    ``_tile_samples``.

    Returns (int_comps, half_comps), where int_comps[p] and half_comps[p]
    (p = 0 for u1, 1 for u2) are the samples on the integer nodes, in the
    integer-node layout of ``resolvent`` (minus side [:m+1] ending with
    the left interface limits, plus side [m+1:] ending with the right
    ones), and on the half nodes (minus side [:m], plus side [m:]);
    int_comps[0] is gf's stored u1 itself.  u1 is interpolated to half
    nodes by 2-point averaging (one-sided extrapolation from the two
    nodes right of the interface in the cell next to it); u2 is averaged
    onto integer nodes, with the exact interface value V[N] as both of
    its limits.
    """
    u1, V, N, m = gf._U, gf.V, gf.grid.N, gf.grid.mid
    u2_int = np.zeros(N + 2, dtype=complex)
    np.add(V[: N - 1], V[1:N], out=u2_int[1:N])
    u2_int *= 0.5
    u2_int[m] = u2_int[N + 1] = V[N]
    u1_half = np.add(u1[:N], u1[1: N + 1])
    np.multiply(0.5, u1_half, out=u1_half)
    u1_half[m] = 1.5 * u1[m + 1] - 0.5 * u1[m + 2]
    return ((u1, u2_int), (u1_half, V[:N]))


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

    def test_side_samples_layout(self):
        """u2 on the integer nodes is the two-point average of its half
        nodes, zero at the walls and u2(0) = V[N] at both interface
        limits (the right one last); u1 is the entry's stored array, with
        its two limits."""
        g = StaggeredGrid(40.0, 12)
        rng = np.random.default_rng(7)
        U, V = (rng.standard_normal((2, g.N + 1))
                + 1j * rng.standard_normal((2, g.N + 1)))
        gf = GridFunction(g, U, V, u1_right=2.5 - 1j)
        (u1, u2), (u1_half, v) = _side_samples(gf)
        m, N = g.mid, g.N
        assert u1 is gf._U
        assert np.array_equal(u1, np.append(U, 2.5 - 1j))
        assert np.array_equal(v, V[:N])
        want = np.concatenate(([0.0], 0.5 * (V[: m - 1] + V[1:m]), [V[N]],
                               0.5 * (V[m: N - 1] + V[m + 1: N]), [0.0],
                               [V[N]]))
        assert np.array_equal(u2, want)
        assert np.array_equal(u1_half[:m], 0.5 * (U[: m] + U[1: m + 1]))
        assert np.array_equal(u1_half[m + 1:],
                              0.5 * (U[m + 1: -1] + U[m + 2:]))
        assert u1_half[m] == 1.5 * U[m + 1] - 0.5 * U[m + 2]

    def test_tile_samples_match_whole_grid(self):
        """Per tile, each component on each node family equals the
        whole-grid samples bit for bit, over tile cuts at m, m+1, N and
        N+1 (where they fall inside the family) and at all of them at
        once; a stored component on its own family is a view."""
        g = StaggeredGrid(40.0, 40)
        rng = np.random.default_rng(11)
        U, V = (rng.standard_normal((2, g.N + 1))
                + 1j * rng.standard_normal((2, g.N + 1)))
        gf = GridFunction(g, U, V, u1_right=2.5 - 1j)
        whole = _side_samples(gf)
        m, N = g.mid, g.N
        cuts = (m, m + 1, N, N + 1)
        for j, size in ((0, N + 2), (1, N)):
            inner = [c for c in cuts if 0 < c < size]
            for tiles in [[c] for c in inner] + [inner]:
                edges = [0, *tiles, size]
                for p in (0, 1):
                    parts = []
                    for a, b in zip(edges[:-1], edges[1:]):
                        out = np.full(b - a, np.nan, dtype=complex)
                        s = _tile_samples(gf, j, p, a, b, out)
                        if j == p:
                            field = gf._U if j == 0 else gf.V
                            assert np.shares_memory(s, field)
                        parts.append(s.copy())
                    got = np.concatenate(parts)
                    assert np.array_equal(got, whole[j][p]), (j, p, tiles)

    def test_assembly_reads_entries_as_they_are(self, ctx):
        """Outside a build, the sources are products of the entries as
        they stand: doubling u^(1,1) quadruples the quadratic h^(2,2)."""
        table = build_series(ctx, StaggeredGrid(40.0, 400), eps=0.5,
                             nu_max=3, solver="fd")
        before = assemble_h(ctx, table, 2, 2).h1
        gf = table.entries[(1, 1)]
        gf.U, gf.V, gf.u1_right = 2 * gf.U, 2 * gf.V, 2 * gf.u1_right
        after = assemble_h(ctx, table, 2, 2).h1
        ratio = np.max(np.abs(after)) / np.max(np.abs(before))
        assert ratio == pytest.approx(4.0, rel=1e-12)

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
    """h^{n,nu} as [h1 (integer-node layout), h2], summed over every
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
                                       nonlinear_sides, monkeypatch):
        """The multiset sum with symmetrized couplings equals the ordered
        sum for coupling tensors without any index symmetry, with a
        different material on each side or a linear side; a linear
        side's sources, its interface limit included, are exactly zero.
        Tiles of 96 points cut every node range into at least three, the
        interface nodes m and m+1 inside a tile of the two-sided range,
        so the averaged samples are formed per tile and the plus side's
        integer-node tiles start at m+1."""
        monkeypatch.setattr(series, "_TILE", 96)
        grid = StaggeredGrid(40.0, 400)
        m = grid.mid
        assert m // 96 == (m + 1) // 96 and m % 96
        assert min(m, grid.N - m) > 2 * 96
        itf = general_coupling_ctx.interface
        assert itf.nl_minus is not itf.nl_plus
        ctx = PencilContext(
            MaterialInterface(
                minus=itf.minus, plus=itf.plus,
                **{f"nl_{s}": itf.nl_side(s) for s in nonlinear_sides}),
            k=general_coupling_ctx.k, omega0=general_coupling_ctx.omega0)
        table = build_series(ctx, grid, eps=0.5, nu_max=4, solver="fd")
        ranges = _side_ranges(grid)
        for nu in range(2, table.nu_max + 1):
            for n in range(0, nu + 1):
                h = assemble_h(ctx, table, n, nu)
                got = [h._h1, h.h2]
                ref = _ordered_source(ctx, table, n, nu)
                for side, rng in ranges.items():
                    for a, b, r in zip(got, ref, rng):
                        if side not in nonlinear_sides:
                            assert not a[r].any()
                            continue
                        scale = np.max(np.abs(b[r]))
                        assert (scale > 0) == ((n + nu) % 2 == 0)
                        assert np.max(np.abs(a[r] - b[r])) <= 1e-14 * scale


def _ordered_cone_tuples(order, step, nu_max):
    """{nu: [every ordered tuple of ``order`` cone points (m, mu), |m| <=
    mu, with m + mu even for step 2, whose levels sum to nu]} for nu <=
    nu_max: a brute-force scan of the cone's order-fold product."""
    cone = np.array([(m, mu) for mu in range(1, nu_max)
                     for m in range(-mu, mu + 1) if (m + mu) % step == 0])
    level = sum(np.ix_(*[cone[:, 1]] * order))
    out = {nu: [] for nu in range(nu_max + 1)}
    for idx in np.argwhere(level <= nu_max):
        fs = tuple(map(tuple, cone[idx].tolist()))
        out[sum(f[1] for f in fs)].append(fs)
    return out


@pytest.mark.parametrize("step", [1, 2])
def test_cone_multisets_match_brute_force(step):
    """Every ordered tuple of cone points sorts to exactly one yielded
    multiset, which is yielded once, its factors sorted by (mu, m), in
    ascending level tuples and then ascending m."""
    for order in (2, 3):
        ordered = _ordered_cone_tuples(order, step, 12)
        for nu, tuples in ordered.items():
            want = sorted({tuple(sorted(fs, key=lambda f: (f[1], f[0])))
                           for fs in tuples},
                          key=lambda fs: ([f[1] for f in fs],
                                          [f[0] for f in fs]))
            assert list(_cone_multisets(nu, order, step)) == want


def test_factor_multiplicities():
    """The per-level groups lose and add no ordered term: each multiset
    counts its distinct orderings, the groups with n + nu odd are empty,
    and each group lists its quadratic, then its cubic multisets in the
    order of ``_cone_multisets``."""
    ordered = {order: _ordered_cone_tuples(order, 2, 12) for order in (2, 3)}
    for nu in range(0, 13):
        groups = _factor_multisets(nu)
        assert set(groups) == set(range(-nu, nu + 1))
        for n, group in groups.items():
            terms = [fs for order in (2, 3) for fs in ordered[order][nu]
                     if sum(f[0] for f in fs) == n]
            if (n + nu) % 2:
                assert not terms and group == ()
            assert sum(mult for _, mult in group) == len(terms)
            perms = set()
            for factors, mult in group:
                distinct = set(itertools.permutations(factors))
                denom = math.prod(map(math.factorial,
                                      Counter(factors).values()))
                assert mult == len(distinct)
                assert mult == math.factorial(len(factors)) // denom
                perms |= distinct
            assert perms == set(terms)
            assert [f for f, _ in group] == [
                fs for order in (2, 3) for fs in _cone_multisets(nu, order, 2)
                if sum(f[0] for f in fs) == n]


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


def _owner(a):
    """The array that owns a's buffer."""
    while a.base is not None:
        a = a.base
    return a


def _reachable_arrays(obj, skip):
    """The buffers (by id) of every array reachable from obj through
    ``gc.get_referents``, not walking into the objects in skip, classes
    or modules."""
    seen, found, todo = {id(o) for o in skip}, {}, [obj]
    while todo:
        o = todo.pop()
        if id(o) in seen or isinstance(o, (type, types.ModuleType)):
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            found[id(_owner(o))] = _owner(o)
        todo.extend(gc.get_referents(o))
    return found


class TestBuildMemory:
    def test_built_table_holds_only_harmonics(self, ctx):
        """What a build leaves allocated is the table's own buffers, under
        U, V and W of each entry and its zero array, within 2%: no source
        is held.  Each buffer counts once: the zero harmonics share one.
        No array but these is reachable from the table, no entry keeps
        factor samples or a conjugate copy, synthesis and reading every
        source leave the held memory as it was, and a negative harmonic
        is still served as one cached object."""
        grid = StaggeredGrid(40.0, 20000)
        # the first solve imports scipy.linalg (about 10 MB traced), and
        # the transform and multiset caches outlive tables: fill them first
        build_series(ctx, StaggeredGrid(40.0, 400), eps=0.5, nu_max=4)
        tracemalloc.start()
        try:
            table = build_series(ctx, grid, eps=0.5, nu_max=4, solver="fd")
            held = tracemalloc.get_traced_memory()[0]
            synthesize(table, np.linspace(-5.0, 5.0, 11), 0.3, 0.7)
            after = tracemalloc.get_traced_memory()[0]
            assert len([table.h_entries[k] for k in table.h_entries]) == 12
            after_reads = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        owners = {id(o): o for gf in table.entries.values()
                  for o in map(_owner, (gf.U, gf.V, gf.W))}
        assert id(table._zero) in owners
        own = sum(o.nbytes for o in owners.values())
        assert abs(held - own) <= 0.02 * own
        assert abs(after - held) <= 0.001 * own
        assert abs(after_reads - held) <= 0.001 * own
        assert _reachable_arrays(table, [ctx, grid]).keys() == owners.keys()
        for gf in table.entries.values():
            assert set(vars(gf)) == {"grid", "_U", "V", "_W", "residual"}
        assert set(vars(table)) == {"ctx", "grid", "eps", "nu_max", "entries",
                                    "h_entries", "norms", "_zero"}
        assert table.get(-2, 2) is table.get(-2, 2)

    def test_source_peak_is_outputs_plus_tiles(self, ctx, monkeypatch):
        """One assemble_h call at N 20000 peaks at its outputs h1 and h2
        plus one tile-sized scratch row for the product and one for each
        conjugated factor, a bound that does not grow with N; and cutting
        the ranges into tiles moves no bit against one tile each."""
        grid = StaggeredGrid(40.0, 20000)
        table = build_series(ctx, grid, eps=0.5, nu_max=3, solver="fd")
        n, nu = 0, 4
        conjugated = {f for factors, _ in _factor_multisets(nu)[n]
                      for f in factors if f[0] < 0}
        assert series._TILE < grid.N // 2 and len(conjugated) == 3
        tracemalloc.start()
        try:
            h = assemble_h(ctx, table, n, nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = h._h1.nbytes + h.h2.nbytes
        rows = 1 + len(conjugated)
        assert peak <= outputs + rows * series._TILE * 16 + 64 * 1024
        monkeypatch.setattr(series, "_TILE", grid.N + 2)
        one = assemble_h(ctx, table, n, nu)
        assert np.array_equal(one._h1, h._h1)
        assert np.array_equal(one.h2, h.h2)

    def test_zero_harmonics_share_one_read_only_array(self, ctx):
        """Every n + nu odd entry (U, V, W) and source (h1, h2) views one
        read-only buffer; a deep copy is writable, and assemble_h still
        runs for those harmonics and returns a zero source."""
        grid = StaggeredGrid(40.0, 400)
        table = build_series(ctx, grid, eps=0.5, nu_max=4, solver="fd")
        odd = [(n, nu) for (n, nu) in table.entries if (n + nu) % 2]
        assert len(odd) == 5
        views = [a for key in odd for a in (
            table.entries[key].U, table.entries[key].V, table.entries[key].W,
            table.h_entries[key].h1, table.h_entries[key].h2)]
        owners = {id(_owner(a)) for a in views}
        assert len(owners) == 1
        zero = _owner(views[0])
        assert zero.shape == (grid.N + 2,) and not zero.any()
        for a in views:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0
        for key, gf in table.entries.items():
            if key not in odd:
                assert id(_owner(gf.U)) not in owners
        copied = copy.deepcopy(table.entries)
        for key in odd:
            for a in (copied[key].U, copied[key].V, copied[key].W):
                assert a.flags.writeable
        for key in odd:
            h = assemble_h(ctx, table, *key)
            assert h.is_zero and not h.h1.flags.writeable


def _consumed_sources(monkeypatch, build):
    """Run build() and return {(n, nu): (r1, r2)}, copies of the source
    each solve consumed (the integer-node r1 with its right limit)."""
    consumed = {}

    def recording(solve):
        def run(ctx, n, nu, r):
            consumed[(n, nu)] = (r._r1.copy(), r.r2.copy())
            return solve(ctx, n, nu, r)
        return run

    for name in ("solve_fd", "solve_analytic"):
        monkeypatch.setattr(series, name, recording(getattr(series, name)))
    try:
        return build(), consumed
    finally:
        monkeypatch.undo()


class TestOnDemandSources:
    @pytest.mark.parametrize("case", ["fd", "analytic", "general"])
    def test_reads_equal_consumed_sources(self, request, case, monkeypatch):
        """Every source read through ``h_entries`` or ``get_h`` (either
        sign of n) is, bit for bit, the one the solve consumed, again
        after a second build on the same context; the zero harmonics read
        as zero sources.  The keys are the stored (n, nu), nu >= 2, and
        the residual diagnostics return the same floats as with the
        consumed sources stored in the table."""
        ctx = request.getfixturevalue(
            "general_coupling_ctx" if case == "general" else "ctx")
        solver, nu_max = {"fd": ("fd", 10), "analytic": ("analytic", 6),
                          "general": ("fd", 4)}[case]
        grid = StaggeredGrid(40.0, 2000)

        def build():
            return build_series(ctx, grid, eps=0.5, nu_max=nu_max,
                                solver=solver)

        first = None
        for _ in range(2):
            table, consumed = _consumed_sources(monkeypatch, build)
            first = first or consumed
            assert consumed.keys() == first.keys()
            keys = [k for k in table.entries if k[1] >= 2]
            assert list(table.h_entries) == keys
            assert len(table.h_entries) == len(keys)
            assert (1, 1) not in table.h_entries
            assert table.get_h(1, 1) is None
            assert table.get_h(0, nu_max + 2) is None
            for n, nu in keys:
                h = table.h_entries[(n, nu)]
                if (n, nu) not in consumed:
                    assert h.is_zero and table.get_h(-n, nu).is_zero
                    continue
                r1, r2 = consumed[(n, nu)]
                assert np.array_equal(r1, first[(n, nu)][0])
                assert np.array_equal(r2, first[(n, nu)][1])
                for got in (h, table.get_h(n, nu)):
                    assert np.array_equal(got._h1, r1)
                    assert np.array_equal(got.h2, r2)
                mirror = table.get_h(-n, nu)
                assert np.array_equal(mirror._h1, -np.conj(r1))
                assert np.array_equal(mirror.h2, -np.conj(r2))
        if case == "general":
            return
        pts = [(x_, 0.3, 0.8) for x_ in (-7.0, -2.0, 1.5, 6.0)]
        on_read = ([divergence_residual(ctx, table, n, nu)
                    for n, nu in ((0, 2), (1, 2), (2, 4), (-2, 4))],
                   maxwell_residual(ctx, table, pts))
        table.h_entries = {
            key: series.NonlinearRHS(grid, *consumed[key])
            if key in consumed else table.h_entries[key] for key in keys}
        assert on_read == ([divergence_residual(ctx, table, n, nu)
                            for n, nu in ((0, 2), (1, 2), (2, 4), (-2, 4))],
                           maxwell_residual(ctx, table, pts))

    def test_reads_are_fresh(self, ctx, table):
        """Two reads of one source are distinct arrays with equal bits,
        and a deep copy of the sources is a dict of them."""
        a, b = table.h_entries[(2, 4)], table.h_entries[(2, 4)]
        assert a is not b and not np.shares_memory(a._h1, b._h1)
        assert not np.shares_memory(a.h2, b.h2)
        assert np.array_equal(a._h1, b._h1) and np.array_equal(a.h2, b.h2)
        copied = copy.deepcopy(table.h_entries)
        assert type(copied) is dict and copied.keys() == set(table.h_entries)
        assert np.array_equal(copied[(2, 4)]._h1, a._h1)
        with pytest.raises(TypeError):
            table.h_entries[(2, 4)] = a

    def test_table_freed_at_once(self, ctx):
        """The sources hold their table weakly: with the cyclic collector
        off, a dropped table is freed at once, and a read through its
        sources afterwards raises a clear error."""
        gc.disable()
        try:
            table = build_series(ctx, StaggeredGrid(40.0, 400), eps=0.5,
                                 nu_max=3, solver="fd")
            table.get(-1, 1)
            sources, ref = table.h_entries, weakref.ref(table)
            assert not sources[(0, 2)].is_zero
            del table
            assert ref() is None
        finally:
            gc.enable()
        for read in (lambda: sources[(0, 2)], lambda: list(sources),
                     lambda: (0, 2) in sources):
            with pytest.raises(ReferenceError, match="table was freed"):
                read()


class TestBuildSolves:
    @pytest.mark.parametrize("solver, nu_max", [("fd", 10), ("analytic", 6)])
    def test_entries_are_public_solves(self, ctx, solver, nu_max):
        """Every stored entry is what the public solve returns on the
        stored source, bit for bit.  Each entry's U and W and each
        source's h1 view the first N+1 values of one N+2 array whose last
        value is the right interface limit."""
        grid = StaggeredGrid(40.0, 2000)
        N = grid.N
        table = build_series(ctx, grid, eps=0.5, nu_max=nu_max,
                             solver=solver)
        solve = solve_fd if solver == "fd" else solve_analytic
        stored = [(gf.U, gf.u1_right) for gf in table.entries.values()]
        stored += [(gf.W, gf.w_right) for gf in table.entries.values()]
        stored += [(h.h1, h.h1_right) for h in table.h_entries.values()]
        for view, right in stored:
            buf = _owner(view)
            assert buf.shape == (N + 2,) and view.shape == (N + 1,)
            assert view.ctypes.data == buf.ctypes.data
            assert buf[N + 1] == right
        solved = 0
        for (n, nu), gf in table.entries.items():
            h = table.h_entries.get((n, nu))
            if nu < 2 or (n + nu) % 2:
                continue
            ref = solve(ctx, n, nu,
                        SampledRHS(grid, h.h1, h.h2, r1_right=h.h1_right))
            for f in ("U", "V", "W", "u1_right", "w_right", "residual"):
                assert np.array_equal(getattr(gf, f), getattr(ref, f)), f
            solved += 1
        assert solved == sum(nu // 2 + 1 for nu in range(2, nu_max + 1))


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
