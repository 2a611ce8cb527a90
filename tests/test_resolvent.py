"""Manufactured-solution oracles for the half-line boundary-value solvers.

A smooth field triple (w1, w2, w3) with off-interface Gaussian bumps is
pushed through the first-order system to produce forcing terms; both
solvers must reproduce the triple to O(h^2), and the two solvers must
agree with each other far below the scheme error.
"""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve

from breather import resolvent
from breather._scaled import ScaledComplex
from breather.errors import ResolventViolation, SingularSystem, ZeroFrequency
from breather.pencil import PencilContext, eigenfunction, spectral_quantities
from breather.resolvent import (
    GridFunction,
    SampledRHS,
    StaggeredGrid,
    _u2_prime,
    _u3,
    fd_convergence_study,
    solve_analytic,
    solve_fd,
)
from breather.series import build_series


def bump(A, c, s):
    f = lambda x: A * np.exp(-(((x - c) / s) ** 2))
    fp = lambda x: -2 * (x - c) / s**2 * f(x)
    fpp = lambda x: (-2 / s**2 + (2 * (x - c) / s**2) ** 2) * f(x)
    return f, fp, fpp


def manufactured(ctx, n, nu):
    """Forcing whose exact solution is a prescribed smooth triple.

    w2 and w3 are bumps; w1 follows from the zero-divergence relation
    (third equation with r3 = 0), and r1, r2 from the first two rows.
    """
    om = ctx.omega(n, nu)
    nk = n * ctx.k
    sq = spectral_quantities(ctx, n, nu)
    V_p, V_m, _, _ = sq.as_complex()
    w2m, w2m_p, _ = bump(1.0 + 0.5j, -15.0, 2.0)
    w2p, w2p_p, _ = bump(0.7 - 0.3j, 12.0, 2.5)
    w3m, w3m_p, _ = bump(0.4 + 0.9j, -14.0, 3.0)
    w3p, w3p_p, _ = bump(-0.6 + 0.2j, 13.0, 2.0)

    def make(w2, w2p_, w3, w3p_, V):
        w1 = lambda x: -(1j * w2p_(x) + om * w3(x)) / nk
        r1 = lambda x: nk * w3(x) - V * w1(x)
        r2 = lambda x: 1j * w3p_(x) - V * w2(x)
        return w1, r1, r2

    w1m, r1m, r2m = make(w2m, w2m_p, w3m, w3m_p, V_m)
    w1p, r1p, r2p = make(w2p, w2p_p, w3p, w3p_p, V_p)
    return (r1m, r2m), (r1p, r2p), (w1m, w2m, w3m), (w1p, w2p, w3p)


def errs(grid, sol, wm, wp):
    x, xh = grid.x, grid.x_half
    w1_ex = np.where(x <= 0, wm[0](x), wp[0](x))
    w2_ex = np.where(xh < 0, wm[1](xh), wp[1](xh))
    eU = math.sqrt(grid.h * np.sum(np.abs(sol.U - w1_ex) ** 2))
    eV = math.sqrt(grid.h * np.sum(np.abs(sol.V[: grid.N] - w2_ex) ** 2))
    return eU, eV


class TestGrid:
    def test_layout(self):
        g = StaggeredGrid(40.0, 400)
        assert g.h == pytest.approx(80.0 / 400)
        assert g.x[0] == -40.0 and g.x[-1] == 40.0
        assert g.x[g.mid] == 0.0
        assert np.allclose(g.x_half, g.x[:-1] + g.h / 2)

    def test_node_count(self):
        g = StaggeredGrid(40.0, 2001 - 1)
        assert g.N == 2000 and g.x.size == 2001

    def test_rejects_odd(self):
        with pytest.raises(Exception):
            StaggeredGrid(40.0, 401)


class TestManufacturedOracle:
    def test_fd_second_order(self, ctx):
        rm, rp, wm, wp = manufactured(ctx, 1, 2)
        errors = []
        for N in (1000, 2000, 4000):
            g = StaggeredGrid(40.0, N)
            sol = solve_fd(ctx, 1, 2, SampledRHS.from_sides(g, rm, rp))
            eU, eV = errs(g, sol, wm, wp)
            errors.append(max(eU, eV))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.3)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.3)

    def test_analytic_second_order(self, ctx):
        rm, rp, wm, wp = manufactured(ctx, 1, 2)
        errors = []
        for N in (1000, 2000):
            g = StaggeredGrid(40.0, N)
            sol = solve_analytic(
                ctx, 1, 2, SampledRHS.from_sides(g, rm, rp)
            )
            eU, eV = errs(g, sol, wm, wp)
            errors.append(max(eU, eV))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.3)

    def test_cross_solver_gap_below_scheme_error(self, ctx, grid_ref):
        g = grid_ref
        rm, rp, wm, wp = manufactured(ctx, 1, 2)
        rhs = SampledRHS.from_sides(g, rm, rp)
        sol = solve_fd(ctx, 1, 2, rhs)
        sola = solve_analytic(ctx, 1, 2, rhs)
        gap = math.sqrt(
            g.h * (np.sum(np.abs(sol.U - sola.U) ** 2)
                   + np.sum(np.abs(sol.V - sola.V) ** 2))
        )
        assert gap < 10.0 * g.h**2

    def test_deep_cone_entries_solvable(self, ctx):
        """The scaled solve stays finite where plain arithmetic cannot
        represent the minus-side admittance."""
        g = StaggeredGrid(40.0, 400)
        f1, _, _ = bump(1.0 + 0.5j, -15.0, 2.0)
        f2, _, _ = bump(0.7 - 0.3j, 12.0, 2.5)
        rhs = SampledRHS.from_sides(g, (f1, f2), (f1, f2))
        for n, nu in ((2, 6), (0, 8), (5, 9)):
            sol = solve_fd(ctx, n, nu, rhs)
            assert np.all(np.isfinite(sol.U)) and np.all(np.isfinite(sol.V))

    def test_zero_rhs_gives_zero(self, ctx, grid_small):
        N = grid_small.N
        zero = SampledRHS(grid_small, np.zeros(N + 1), np.zeros(N))
        z = solve_fd(ctx, 1, 2, zero)
        assert np.max(np.abs(z.U)) == 0.0 and np.max(np.abs(z.V)) == 0.0
        za = solve_analytic(ctx, 1, 2, zero)
        assert np.max(np.abs(za.U)) == 0.0 and np.max(np.abs(za.V)) == 0.0


class TestAxialHarmonics:
    """n = 0 needs its own elimination path (nk = 0)."""

    def test_manufactured_n0(self, ctx):
        om = ctx.omega(0, 2)
        sq = spectral_quantities(ctx, 0, 2)
        V_p, V_m, _, _ = sq.as_complex()
        out = {}
        for side, V, p2, p1 in (
            ("m", V_m, (1.0 + 0.5j, -15.0, 2.0), (0.3 - 0.8j, -13.0, 2.5)),
            ("p", V_p, (0.7 - 0.3j, 12.0, 2.5), (-0.5 + 0.4j, 14.0, 2.0)),
        ):
            w2, w2p_, w2pp_ = bump(*p2)
            w1, _, _ = bump(*p1)
            w3 = lambda x, d=w2p_: -1j * d(x) / om
            w3p_ = lambda x, d=w2pp_: -1j * d(x) / om
            r1 = lambda x, f=w1, V=V: -V * f(x)
            r2 = lambda x, d=w3p_, f=w2, V=V: 1j * d(x) - V * f(x)
            out[side] = ((r1, r2), (w1, w2, w3))
        errors = []
        for N in (1000, 2000):
            g = StaggeredGrid(40.0, N)
            rhs = SampledRHS.from_sides(g, out["m"][0], out["p"][0])
            sol = solve_fd(ctx, 0, 2, rhs)
            eU, eV = errs(g, sol, out["m"][1], out["p"][1])
            # u1 is solved pointwise at n = 0; only u2 carries scheme error
            assert eU < 1e-12
            errors.append(eV)
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.3)


class TestReconstruction:
    def test_eigenfunction_third_component(self, ctx):
        phi = eigenfunction(ctx)
        g = StaggeredGrid(40.0, 8000)
        x, xh, m = g.x, g.x_half, g.mid
        vals = phi(x)
        U = vals[0].copy()
        U[m] = -1j * ctx.k
        V = np.empty(g.N + 1, dtype=complex)
        V[: g.N] = phi(xh)[1]
        V[g.N] = phi.mu_minus      # phi_2(0) from either side
        ratio = phi.mu_minus / phi.mu_plus
        u1 = np.append(U, 1j * ctx.k * ratio)   # the right limit last
        u3 = _u3(ctx, 1, 1, u1, _u2_prime(V, g))
        assert u3.shape == (g.N + 2,)
        phi3 = vals[2].copy()
        phi3[m] = -1j * phi.V_minus
        rel = np.max(np.abs(u3[: g.N + 1] - phi3)) / np.max(np.abs(phi3))
        assert rel < 1e-3
        phi3_right = 1j * ratio * phi.V_plus
        assert abs(u3[g.N + 1] - phi3_right) < 1e-3 * np.max(np.abs(phi3))


class TestZeroFrequency:
    def test_solve_fd_raises(self, ctx, monkeypatch):
        """omega = 0 raises from solve_fd itself, not at a later read of
        the u3 its result forms: here at (0, 2) with a real base
        eigenvalue, on the spectral quantities of the reference one."""
        real = PencilContext(ctx.interface, k=ctx.k, omega0=ctx.omega_R + 0j)
        assert real.omega(0, 2) == 0
        sq = spectral_quantities(ctx, 0, 2)
        monkeypatch.setattr(resolvent, "spectral_quantities",
                            lambda *args: sq)
        with pytest.raises(ZeroFrequency):
            solve_fd(real, 0, 2, random_rhs(StaggeredGrid(40.0, 400)))


class TestEvaluation:
    """Side-aware linear interpolation of the staggered samples."""

    @staticmethod
    def random_gf():
        g = StaggeredGrid(4.0, 8)
        rng = np.random.default_rng(3)
        z = lambda: rng.normal(size=g.N + 1) + 1j * rng.normal(size=g.N + 1)
        return GridFunction(g, z(), z(), u1_right=2.5 - 1.5j, W=z(),
                            w_right=-0.5 + 3j)

    def test_u1_limits_at_interface(self):
        gf = self.random_gf()
        g, m = gf.grid, gf.grid.mid
        assert gf.eval_u1(0.0)[()] == gf.u1_right
        # x < 0 interpolates towards the left limit U[m]
        assert gf.eval_u1(-0.5 * g.h)[()] == pytest.approx(
            0.5 * (gf.U[m - 1] + gf.U[m]), rel=1e-15)
        assert gf.eval_u1(0.5 * g.h)[()] == pytest.approx(
            0.5 * (gf.u1_right + gf.U[m + 1]), rel=1e-15)

    def test_u2_walls_and_interface(self):
        gf = self.random_gf()
        g = gf.grid
        assert np.all(gf.eval_u2(np.array([-g.d, g.d])) == 0.0)
        assert gf.eval_u2(0.0)[()] == gf.V[g.N]

    def test_u3_right_limit_at_interface(self):
        assert self.random_gf().eval_u3(0.0)[()] == -0.5 + 3j

    def test_shape_checks(self):
        """U, V and W need N+1 values, W comes with w_right, and an
        integer-node field given as N+2 values (the right limit last) is
        stored as it is; SampledRHS checks r1 and r2 alike."""
        g = StaggeredGrid(4.0, 8)
        z = lambda size: np.zeros(size, dtype=complex)
        for kwargs in (
            dict(U=z(8), V=z(9)),
            dict(U=z(9), V=z(10)),
            dict(U=z(9), V=z(9), W=z(9)),               # no w_right
            dict(U=z(9), V=z(9), W=z(8), w_right=1j),   # W too short
            dict(U=z(9), V=z(9), w_right=1j),           # no W
            dict(U=z(10), V=z(9), u1_right=1j),         # two right limits
        ):
            with pytest.raises(ValueError):
                GridFunction(g, **kwargs)
        u1, u3 = np.arange(10.0) + 0j, 1j * np.arange(10.0)
        gf = GridFunction(g, u1, z(9), W=u3)
        assert gf.U.base is u1 and gf.W.base is u3
        assert gf.u1_right == 9.0 and gf.w_right == 9j
        gf.U, gf.u1_right = 2 * gf.U, -1.0
        assert np.array_equal(u1, np.append(2 * np.arange(9.0), -1.0))
        gf.U *= 0.5
        assert np.array_equal(u1, np.append(np.arange(9.0), -1.0))
        with pytest.raises(ValueError):
            SampledRHS(g, z(8), z(8))
        with pytest.raises(ValueError):
            SampledRHS(g, z(9), z(9))
        assert SampledRHS(g, z(9), z(8)).r1_right == 0

    def test_midpoints_are_averages(self):
        gf = self.random_gf()
        g, m, N = gf.grid, gf.grid.mid, gf.grid.N
        # integer-node cells away from the interface
        cells = np.array([j for j in range(N) if j not in (m - 1, m)])
        xm = g.x[cells] + 0.5 * g.h
        for ev, arr in ((gf.eval_u1, gf.U), (gf.eval_u3, gf.W)):
            np.testing.assert_allclose(
                ev(xm), 0.5 * (arr[cells] + arr[cells + 1]), rtol=1e-14)
        # half-node cells, the wall and interface end cells included
        xh = g.x_half
        knots_m = np.concatenate(([-g.d], xh[:m], [0.0]))
        vals_m = np.concatenate(([0.0], gf.V[:m], [gf.V[N]]))
        knots_p = np.concatenate(([0.0], xh[m:], [g.d]))
        vals_p = np.concatenate(([gf.V[N]], gf.V[m:N], [0.0]))
        for knots, vals in ((knots_m, vals_m), (knots_p, vals_p)):
            mid = 0.5 * (knots[:-1] + knots[1:])
            np.testing.assert_allclose(
                gf.eval_u2(mid), 0.5 * (vals[:-1] + vals[1:]), rtol=1e-14)


class TestConvergenceStudy:
    def test_slope_near_two(self, ctx):
        rm, rp, _, _ = manufactured(ctx, 1, 2)
        study = fd_convergence_study(
            ctx, 1, 2,
            lambda grid: SampledRHS.from_sides(grid, rm, rp),
            [500, 1000, 2000],
        )
        assert -2.4 < study["slope"] < -1.6
        errsq = [e for _, e in study["table"]]
        assert errsq == sorted(errsq, reverse=True)


def bump_rhs(grid):
    f1, _, _ = bump(1.0 + 0.5j, -15.0, 2.0)
    f2, _, _ = bump(0.7 - 0.3j, 12.0, 2.5)
    return SampledRHS.from_sides(grid, (f1, f2), (f1, f2))


def random_rhs(grid, seed=7):
    """Unstructured data, with r1 jumping across the interface."""
    rng = np.random.default_rng(seed)
    z = lambda size: rng.normal(size=size) + 1j * rng.normal(size=size)
    return SampledRHS(grid, z(grid.N + 1), z(grid.N), r1_right=complex(z(1)[0]))


def captured_spsolve(monkeypatch):
    """Record the (tri, b, col_star, star) of every bordered solve."""
    seen = []
    solve = resolvent.spsolve

    def spy(tri, b, col_star, star):
        seen.append(([a.copy() for a in tri], b.copy(), list(col_star),
                     list(star)))
        return solve(tri, b, col_star, star)

    monkeypatch.setattr(resolvent, "spsolve", spy)
    return seen


def bordered_matrix(tri, col_star, star):
    """The N+1 x N+1 matrix that ``spsolve`` is given, as CSR."""
    dl, d, du = tri
    N = d.size - 1      # d[N] is not part of the band
    m = N // 2
    j = np.arange(N - 1)
    rows = [np.arange(N), j + 1, j, [m - 1, m], [N] * 5]
    cols = [np.arange(N), j, j + 1, [N, N], [m - 2, m - 1, N, m, m + 1]]
    vals = [d[:N], dl, du, col_star, star]
    A = csr_matrix((np.concatenate(vals), (np.concatenate(rows),
                                            np.concatenate(cols))),
                   shape=(N + 1, N + 1), dtype=complex)
    A.eliminate_zeros()
    return A


def full_system(ctx, n, nu, r):
    """The unreduced staggered system of the module docstring.

    Unknowns in natural order: U_0..U_N, then V_0..V_{N-1}, V* = u2(0).
    Rows: the first equation at each integer node (n = 0: V u1 = -r1),
    the jump row (n = 0: continuity of u2'), the second equation at each
    half node.  Each row is scaled by its largest coefficient.  Returns
    the CSR matrix, the right side, and a map from a solution to
    (U, V, u1_right).
    """
    g = r.grid
    N, h, m = g.N, g.h, g.mid
    om = ctx.omega(n, nu)
    nk = n * ctx.k
    V_p, V_m, _, _ = spectral_quantities(ctx, n, nu).as_complex(strict=True)
    Vs = {"minus": V_m, "plus": V_p}
    side = lambda j: "minus" if j <= m else "plus"
    U = lambda j: j
    V = lambda j: N + 1 + j              # V(N) is V*
    Dm = {V(N): 8 / (3 * h), V(m - 1): -9 / (3 * h), V(m - 2): 1 / (3 * h)}
    Dp = {V(N): -8 / (3 * h), V(m): 9 / (3 * h), V(m + 1): -1 / (3 * h)}
    if nk:
        c1 = {s: -1j * (Vs[s] * om / nk + nk) for s in Vs}
        f1 = (1j * om / nk) * r.r1
        f1_right = (1j * om / nk) * r.r1_right
        # u1(0+) = U_m + i (D_- V - D_+ V) / nk
        u1p = {U(m): 1.0}
        for col, w in Dm.items():
            u1p[col] = u1p.get(col, 0) + 1j * w / nk
        for col, w in Dp.items():
            u1p[col] = u1p.get(col, 0) - 1j * w / nk
    rows, rhs = [], []

    def add(terms, b):
        row = {}
        for col, w in terms:
            row[col] = row.get(col, 0) + w
        scale = max(abs(w) for w in row.values())
        rows.append({col: w / scale for col, w in row.items()})
        rhs.append(b / scale)

    for j in range(N + 1):
        s = side(j)
        if not nk:
            add([(U(j), Vs[s])], -r.r1[j])
            continue
        if j == 0:
            du = [(V(0), 2 / h)]
        elif j == N:
            du = [(V(N - 1), -2 / h)]
        elif j == m:
            du = list(Dm.items())
        else:
            du = [(V(j), 1 / h), (V(j - 1), -1 / h)]
        add(du + [(U(j), c1[s])], f1[j])
    if nk:
        add(list(Dp.items()) + [(c, c1["plus"] * w) for c, w in u1p.items()],
            f1_right)
    else:
        add([(c, -w) for c, w in Dm.items()] + list(Dp.items()), 0.0)
    for j in range(N):
        s = "minus" if j < m else "plus"
        if j == 0:
            d2 = [(V(0), -3), (V(1), 1)]
        elif j == N - 1:
            d2 = [(V(N - 1), -3), (V(N - 2), 1)]
        elif j == m - 1:
            d2 = [(V(N), 8 / 3), (V(m - 1), -4), (V(m - 2), 4 / 3)]
        elif j == m:
            d2 = [(V(N), 8 / 3), (V(m), -4), (V(m + 1), 4 / 3)]
        else:
            d2 = [(V(j - 1), 1), (V(j), -2), (V(j + 1), 1)]
        terms = [(c, -w / h**2) for c, w in d2] + [(V(j), Vs[s] * om)]
        if nk:
            left = list(u1p.items()) if j == m else [(U(j), 1.0)]
            terms += [(U(j + 1), 1j * nk / h)]
            terms += [(c, -1j * nk / h * w) for c, w in left]
        add(terms, -om * r.r2[j])

    size = 2 * N + 2
    ri = [i for i, row in enumerate(rows) for _ in row]
    ci = [c for row in rows for c in row]
    vals = [w for row in rows for w in row.values()]
    A = csr_matrix((vals, (ri, ci)), shape=(size, size), dtype=complex)

    def fields(z):
        Uz, Vz = z[: N + 1], z[N + 1:]
        if nk:
            u1_right = sum(w * z[c] for c, w in u1p.items())
        else:
            u1_right = -r.r1_right / V_p
        return Uz, Vz, u1_right

    return A, np.array(rhs), fields


def relerr(a, ref):
    a, ref = np.atleast_1d(a), np.atleast_1d(ref)
    return np.max(np.abs(a - ref)) / np.max(np.abs(ref))


class TestBandedSolve:
    """The bordered half-line tridiagonals in u2 against a general sparse
    LU of the full staggered system in U and V."""

    @pytest.mark.parametrize("N", [4, 8, 400])
    @pytest.mark.parametrize("n, nu, bands", [
        (1, 2, (1, 1)), (0, 2, (1, 1)), (2, 2, (1, 1)), (1, 5, (1, 1)),
        (0, 4, (1, 1)), (2, 6, (1, 1)),
    ])
    def test_matches_sparse_lu(self, ctx, monkeypatch, N, n, nu, bands):
        seen = captured_spsolve(monkeypatch)
        g = StaggeredGrid(40.0, N)
        r = random_rhs(g)
        sol = solve_fd(ctx, n, nu, r)
        ((tri, b, col_star, star),) = seen
        assert b.shape == (N + 1,)
        A = bordered_matrix(tri, col_star, star)
        m = N // 2
        # each half line is a tridiagonal of its own: (kl, ku) = bands
        for rows in (slice(0, m), slice(m, N)):
            i, j = A[rows, rows].nonzero()
            assert (max(i - j), max(j - i)) == bands
        assert A[: m, m: N].nnz == 0 and A[m: N, : m].nnz == 0
        # the half lines meet only through V* in their interface-adjacent
        # rows; only the jump row has five entries
        assert A[:N, N].nonzero()[0].tolist() == [m - 1, m]
        assert np.diff(A.indptr).tolist() == [2] + [3] * (N - 2) + [2, 5]
        assert np.linalg.norm(A @ sol.V - b) <= 1e-12 * np.linalg.norm(b)

        A, rhs, fields = full_system(ctx, n, nu, r)
        U, V, u1_right = fields(spsolve(A, rhs))
        assert relerr(sol.U, U) <= 1e-10
        assert relerr(sol.V, V) <= 1e-10
        assert relerr(sol.u1_right, u1_right) <= 1e-10
        assert sol.residual < 1e-12

    @staticmethod
    def singular(monkeypatch, spoil):
        solve = resolvent.spsolve

        def wrapped(tri, b, col_star, star):
            tri = [a.copy() for a in tri]
            col_star, star = list(col_star), list(star)
            spoil(tri, col_star, star)
            return solve(tri, b, col_star, star)

        monkeypatch.setattr(resolvent, "spsolve", wrapped)

    def assert_names_harmonic(self, ctx, match):
        g = StaggeredGrid(40.0, 400)
        with pytest.raises(SingularSystem, match=match):
            solve_fd(ctx, 1, 2, bump_rhs(g))
        with pytest.raises(ResolventViolation) as info:
            build_series(ctx, g, eps=0.5, nu_max=2, solver="fd")
        assert (info.value.n, info.value.nu) == (0, 2)
        assert "zero pivot" in str(info.value)

    def test_zero_pivot_names_harmonic(self, ctx, monkeypatch):
        def empty_column(tri, col_star, star):
            dl, d, du = tri
            du[2] = d[3] = dl[3] = 0.0    # column 3 of the minus side

        self.singular(monkeypatch, empty_column)
        self.assert_names_harmonic(ctx, "zero pivot U\\(3,3\\).*minus side")

    def test_zero_pivot_names_plus_side(self, ctx, monkeypatch):
        """One zgtsv runs over both half lines; the side is read off the
        pivot row."""
        def empty_column(tri, col_star, star):
            dl, d, du = tri
            m = d.size // 2
            du[m + 2] = d[m + 3] = dl[m + 3] = 0.0    # column 203 at N = 400

        self.singular(monkeypatch, empty_column)
        self.assert_names_harmonic(ctx,
                                   "zero pivot U\\(203,203\\).*plus side")

    def test_vanishing_schur_complement_names_harmonic(self, ctx,
                                                       monkeypatch):
        def empty_star_column(tri, col_star, star):
            col_star[:] = 0.0, 0.0    # V* drops out of the side rows
            star[2] = 0.0             # and out of the jump row

        self.singular(monkeypatch, empty_star_column)
        self.assert_names_harmonic(ctx, "Schur complement: exact zero pivot")


class TestSolveMemory:
    """Every N-size array a solve allocates is an output the result holds
    (U and V for solve_fd, which stores no W; U, V and W for
    solve_analytic) or one of a fixed set of working arrays.  Over its
    outputs, the peak traced memory of one call at N = 20000 measured 5.0
    N-size arrays for solve_fd, n = 0 as well (dl, du and b; the two
    columns of zgtsv's right side; V is formed in the diagonal d, and f1
    in the u1 output) and 2.5 for solve_analytic (the band and the four
    half-line sums, half an array of scratch; r1 is only read: a working
    copy of it reads 3.5)."""

    @pytest.mark.parametrize("solver, n, nu, arrays", [
        ("solve_fd", 1, 2, 5.25), ("solve_fd", 0, 2, 5.25),
        ("solve_analytic", 1, 2, 2.75), ("solve_analytic", 2, 4, 2.75)])
    def test_peak_over_outputs(self, ctx, solver, n, nu, arrays):
        g = StaggeredGrid(40.0, 20000)
        r = random_rhs(g)
        solve = getattr(resolvent, solver)
        solve(ctx, n, nu, r)
        tracemalloc.start()
        try:
            sol = solve(ctx, n, nu, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = sum(a.nbytes for a in vars(sol).values()
                  if isinstance(a, np.ndarray))
        assert peak - out <= arrays * (g.N + 1) * 16


class TestVanishingC1:
    """c1 = -i (V omega/nk + nk) vanishes exactly when mu = 0."""

    @staticmethod
    def patch(ctx, monkeypatch, side, at):
        real = resolvent.spectral_quantities

        def fake(ctx_, n, nu):
            sq = real(ctx_, n, nu)
            if (n, nu) != at:
                return sq
            V = ScaledComplex.from_complex(-(n * ctx.k) ** 2 / ctx.omega(n, nu))
            return dataclasses.replace(sq, **{f"V_{side}": V})

        monkeypatch.setattr(resolvent, "spectral_quantities", fake)

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_raises_naming_side(self, ctx, monkeypatch, side):
        self.patch(ctx, monkeypatch, side, (1, 2))
        g = StaggeredGrid(40.0, 400)
        with pytest.raises(SingularSystem, match=f"{side} side"):
            solve_fd(ctx, 1, 2, bump_rhs(g))

    def test_build_series_names_harmonic(self, ctx, monkeypatch):
        self.patch(ctx, monkeypatch, "plus", (2, 2))
        g = StaggeredGrid(40.0, 400)
        with pytest.raises(ResolventViolation) as info:
            build_series(ctx, g, eps=0.5, nu_max=2, solver="fd")
        assert (info.value.n, info.value.nu) == (2, 2)
        assert "plus side" in str(info.value)


class TestFullEquationResidual:
    """The solution of the reduced system satisfies both staggered
    equations in plain complex arithmetic at the interior nodes."""

    @pytest.mark.parametrize("n, nu", [(1, 2), (1, 3), (2, 2)])
    def test_fine_grid(self, ctx, n, nu):
        g = StaggeredGrid(40.0, 128000)
        r = bump_rhs(g)
        sol = solve_fd(ctx, n, nu, r)
        N, h, m = g.N, g.h, g.mid
        om, nk = ctx.omega(n, nu), n * ctx.k
        V_p, V_m, _, _ = spectral_quantities(ctx, n, nu).as_complex(strict=True)
        U, V = sol.U, sol.V
        res1, rhs1, res2, rhs2 = [], [], [], []
        for Vs, j1, j2 in ((V_m, np.arange(1, m), np.arange(1, m - 1)),
                           (V_p, np.arange(m + 1, N), np.arange(m + 1, N - 1))):
            c1 = -1j * (Vs * om / nk + nk)
            f1 = (1j * om / nk) * r.r1[j1]
            res1.append((V[j1] - V[j1 - 1]) / h + c1 * U[j1] - f1)
            rhs1.append(f1)
            f2 = -om * r.r2[j2]
            d2 = (V[j2 - 1] - 2.0 * V[j2] + V[j2 + 1]) / h**2
            res2.append(-d2 + 1j * nk * (U[j2 + 1] - U[j2]) / h
                        + Vs * om * V[j2] - f2)
            rhs2.append(f2)
        for res, rhs in ((res1, rhs1), (res2, rhs2)):
            rel = (np.linalg.norm(np.concatenate(res))
                   / np.linalg.norm(np.concatenate(rhs)))
            assert rel < 5e-10


def loop_sweep(f, c, backward):
    """Reference: the cumulative recurrences as plain Python loops."""
    n = f.size
    y = np.zeros(n + 1, dtype=complex)
    if backward:
        for j in range(n - 1, -1, -1):
            y[j] = f[j] + c * y[j + 1]
    else:
        for j in range(n):
            y[j + 1] = c * y[j] + f[j]
    return y


class TestDecaySweep:
    @pytest.mark.parametrize("backward", [True, False])
    @pytest.mark.parametrize("c", [0.9995 * np.exp(0.3j), 0.25 - 0.6j, 0j])
    def test_matches_loop(self, backward, c):
        rng = np.random.default_rng(5)
        for n in (1, 2, 1000):
            f = rng.normal(size=n) + 1j * rng.normal(size=n)
            ref = loop_sweep(f, c, backward)
            band = np.full((2, n), -c, order="F")
            got = resolvent._decay_sweep(f, 1.0, band, backward)
            assert got.shape == (n + 1,)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestDecayingExp:
    """Only the run of nodes above exp's underflow limit is evaluated;
    the result is the flushed exponential at every node."""

    @pytest.mark.parametrize("mu", [0.7 + 0.2j, 30.0 - 5.0j, 9e33 - 2e34j])
    def test_matches_flushed_exp(self, mu):
        g = StaggeredGrid(40.0, 2000)
        for c, x in ((mu, g.x[: g.mid + 1]), (-mu, g.x[g.mid:])):
            z = c * x
            re = np.minimum(z.real, 0.0)
            ref = np.exp(re + 1j * z.imag)
            ref[re < -745.0] = 0.0
            out = np.empty(x.size, dtype=complex)
            assert resolvent._decaying_exp(c, x, out) is out
            assert np.array_equal(out, ref)


class TestHalfNodeModes:
    """``solve_analytic`` takes the half-node values of its homogeneous
    modes from the node values by a decaying half-cell factor; one
    exponential per half node gives the same fields."""

    @staticmethod
    def per_half_node(grid, C_minus, C_plus, mu_m, mu_p, V_m, V_p, em_2,
                      ep_2, u3, V):
        N, m, x, xh = grid.N, grid.mid, grid.x, grid.x_half
        exp = lambda mu, x: resolvent._decaying_exp(
            mu, x, np.empty(x.size, dtype=complex))
        u3h = np.empty(N + 1, dtype=complex)
        u3h[: m + 1] = C_minus * (-1j * V_m) * exp(mu_m, x[: m + 1])
        u3h[m:] = C_plus * (1j * V_p) * exp(-mu_p, x[m:])
        u3h[m] = C_minus * (-1j * V_m)
        Vh = np.empty(N + 1, dtype=complex)
        Vh[:m] = C_minus * mu_m * exp(mu_m, xh[:m])
        Vh[m:N] = C_plus * mu_p * exp(-mu_p, xh[m:])
        Vh[N] = C_minus * mu_m
        u3[: N + 1] += u3h      # the caller sets the right limit u3[N+1]
        V += Vh

    @pytest.mark.parametrize("N", [400, 2000])
    @pytest.mark.parametrize("n, nu", [(2, 2), (2, 4)])
    def test_matches_per_half_node_formula(self, ctx, monkeypatch, N, n,
                                           nu):
        r = random_rhs(StaggeredGrid(40.0, N))
        sol = solve_analytic(ctx, n, nu, r)
        # a growing factor (e^{+mu_- h/2} from the wrong side) would give
        # inf * 0 here: at nu = 4, Re(mu_- h) is far past the exp range
        for f in (sol.U, sol.V, sol.W, [sol.u1_right, sol.w_right]):
            assert np.all(np.isfinite(f))
        monkeypatch.setattr(resolvent, "_homogeneous_part",
                            self.per_half_node)
        ref = solve_analytic(ctx, n, nu, r)
        assert relerr(sol.V, ref.V) <= 1e-13
        assert relerr(sol.W, ref.W) <= 1e-13
