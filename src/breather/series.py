"""Recursive construction of the polychromatic interface breather.

Starting from the seed u^{1,1} = eps * phi0 (the linear surface mode),
each level nu >= 2 assembles the nonlinear right-hand side h^{n,nu} --
quadratic and cubic convolution sums over the lower levels with
coefficients built from the truncated susceptibility transforms -- and
solves the linear interface problem L_{nk}(omega^{(n,nu)}) u = h.
Only n >= 0 is solved; negative harmonics follow by conjugation, which
enforces u^{-n,nu} = conj(u^{n,nu}) exactly.

Seeded at (1, 1), the quadratic and cubic sums preserve the parity of
n - nu, so every harmonic with n + nu odd vanishes identically.  The
sources skip every term with such a factor and return zero for those
harmonics outright; the table still stores their (zero) entries.

The chi2/chi3 transforms are a coupling tensor times a scalar transform
that is symmetric in its frequency arguments, and every ordering of a
term's factors lies in the cone with it.  So each source is summed once
per multiset of factors: its multiplicity times the scalar transform
times the coupling tensor averaged over its field indices, restricted to
the in-plane components and to its nonzero entries (two product chains
per term for diagonal tensors).  This is exact for any coupling tensor.
Before each level, the distinct chi2/chi3 frequency tuples its sources
need are evaluated in one batch per transform order, and the assembly
then reads them from the transform cache.

The physical fields are partial sums

    psi^(M)(x,y,t) = sum_{nu<=M} sum_{|n|<=nu}
                     u^{n,nu}(x) e^{-i n (omega_R t - k y)} e^{nu omega_I t},

real-valued by the conjugate symmetry, with E = mu0 (psi1, psi2, 0) and
H = (0, 0, psi3).  The displacement field admits two equivalent modal
forms (operator identity vs explicit polarization sums) used to
cross-check the assembly.
"""

import functools
import itertools
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DivergenceWarning,
    OverflowGuard,
    ResolventViolation,
    SingularSystem,
    SolverError,
    ZeroFrequency,
)
from .pencil import eigenfunction, spectral_quantities
from .resolvent import (
    GridFunction,
    SampledRHS,
    _interp_sides,
    _join_limits,
    _node_knots,
    _per_cell,
    _split_limits,
    _times_sides,
    _u2_prime,
    reconstruct_u3,
    solve_analytic,
    solve_fd,
)
# both transforms are unused here but kept: perfbench/tracer.py wraps
# their names in this module
from .susceptibility import ft_chi2_truncated, ft_chi3_truncated  # noqa: F401

__all__ = [
    "CoefficientTable",
    "NonlinearRHS",
    "assemble_h",
    "build_series",
    "synthesize",
    "d_field_modal",
    "divergence_residual",
    "maxwell_residual",
    "decay_profile",
]


# ----------------------------------------------------------------------
# Types
# ----------------------------------------------------------------------

@dataclass
class NonlinearRHS:
    """One level of the nonlinear source: two active components.

    h1 lives at integer nodes (left-limit convention at the interface,
    right limit stored separately), h2 at half nodes; the third
    component vanishes identically in TM polarization.
    """

    grid: object
    h1: np.ndarray
    h2: np.ndarray
    h1_right: complex = 0j

    @classmethod
    def zero(cls, grid):
        return cls(grid, np.zeros(grid.N + 1, dtype=complex),
                   np.zeros(grid.N, dtype=complex))

    @property
    def is_zero(self):
        return (self.h1_right == 0 and not self.h1.any()
                and not self.h2.any())

    def conjugate_negated(self):
        """The (-n, nu) source: h^{-n,nu} = -conj(h^{n,nu})."""
        return NonlinearRHS(self.grid, -np.conj(self.h1), -np.conj(self.h2),
                            -np.conj(self.h1_right))


@dataclass
class CoefficientTable:
    """The computed harmonics u^{n,nu} over the index cone.

    Only n >= 0 is stored; ``get`` serves negative harmonics as exact
    conjugates and returns None outside the cone (those entries are
    identically zero).  The nonlinear sources of each level are kept for
    the displacement-field reconstruction.
    """

    ctx: object
    grid: object
    eps: float
    nu_max: int
    entries: dict = field(default_factory=dict)
    h_entries: dict = field(default_factory=dict)
    norms: dict = field(default_factory=dict)

    def get(self, n, nu):
        if abs(n) > nu or nu < 1 or nu > self.nu_max:
            return None
        if n >= 0:
            return self.entries.get((n, nu))
        gf = self.entries.get((-n, nu))
        return None if gf is None else _conj_cached(gf)

    def get_h(self, n, nu):
        if abs(n) > nu or nu < 2:
            return None
        if n >= 0:
            return self.h_entries.get((n, nu))
        h = self.h_entries.get((-n, nu))
        return None if h is None else h.conjugate_negated()


def _conj_cached(gf):
    cached = getattr(gf, "_conj", None)
    if cached is None:
        cached = gf.conjugate()
        gf._conj = cached
    return cached


# ----------------------------------------------------------------------
# Grid-function component samples per side and node family
# ----------------------------------------------------------------------

def _side_samples(gf):
    """Whole-grid arrays of (u1, u2) on both node families.

    Returns (int_comps, half_comps), where int_comps[p] and half_comps[p]
    (p = 0 for u1, 1 for u2) are the samples on the integer nodes, in the
    ``_join_limits`` layout (minus side [:m+1] ending with the left
    interface limits, plus side [m+1:] starting with the right ones), and
    on the half nodes (minus side [:m], plus side [m:]).  u1 is
    interpolated to half nodes by 2-point averaging (one-sided
    extrapolation in the cell right of the interface, where the stored
    node value is a left limit); u2 is averaged onto integer nodes with
    the exact interface value.
    """
    cached = getattr(gf, "_sides", None)
    if cached is not None:
        return cached
    g = gf.grid
    N, m = g.N, g.mid
    U, V = gf.U, gf.V
    u2_int = np.concatenate(([0.0], 0.5 * (V[0: N - 1] + V[1:N]), [0.0]))
    u2_int[m] = V[N]
    u1_half = 0.5 * (U[:-1] + U[1:])
    if m + 2 <= N:
        u1_half[m] = 1.5 * U[m + 1] - 0.5 * U[m + 2]
    out = ((_join_limits(g, U, gf.u1_right), _join_limits(g, u2_int, V[N])),
           (u1_half, V[:N]))
    gf._sides = out
    return out


# ----------------------------------------------------------------------
# Nonlinear right-hand side assembly
# ----------------------------------------------------------------------

def _active_sides(ctx):
    return [s for s in ("minus", "plus")
            if ctx.interface.nl_side(s) is not None]


def _source_terms(n, nu):
    """Factor indices of the ordered terms of h^{n,nu}, in summation order.

    Yields ((m, mu), (n-m, nu-mu)) for the quadratic sum, then
    ((m, mu), (l, lam), (n-m-l, nu-mu-lam)) for the cubic one, clipped to
    the cone.  Terms with a factor of odd parity (m + mu odd) are
    skipped: those harmonics vanish identically, and so does every
    source with n + nu odd.  Cone membership and parity are properties
    of each factor, so every ordering of a yielded tuple is yielded too;
    ``_factor_multisets`` groups them.
    """
    if (n + nu) % 2:
        return
    for mu in range(1, nu):
        mu2 = nu - mu
        for mm in range(max(-mu, n - mu2), min(mu, n + mu2) + 1):
            if (mm + mu) % 2 == 0:
                yield (mm, mu), (n - mm, mu2)
    for mu in range(1, nu - 1):
        for lam in range(1, nu - mu):
            kap = nu - mu - lam
            for mm in range(-mu, mu + 1):
                if (mm + mu) % 2:
                    continue
                rem = n - mm
                for ll in range(max(-lam, rem - kap), min(lam, rem + kap) + 1):
                    if (ll + lam) % 2 == 0:
                        yield (mm, mu), (ll, lam), (rem - ll, kap)


@functools.cache
def _factor_multisets(n, nu):
    """The terms of ``_source_terms(n, nu)`` grouped by factor multiset.

    Returns ((factors, number of orderings), ...), one entry per
    multiset in order of first appearance; the multiplicities add up to
    the number of ordered terms.  Each multiset is represented by its
    first ordering in summation order; the transform cache gives every
    ordering the same bits.
    """
    first = {}
    counts = Counter()
    for factors in _source_terms(n, nu):
        key = tuple(sorted(factors))
        first.setdefault(key, factors)
        counts[key] += 1
    return tuple((first[key], mult) for key, mult in counts.items())


@functools.cache
def _symmetric_couplings(shape, data):
    """Nonzero in-plane entries (j, comps, value) of a coupling tensor
    averaged over all permutations of its field indices (the tensor is
    passed as its shape and bytes, so that the result can be cached)."""
    c = np.frombuffer(data).reshape(shape)[(slice(0, 2),) * len(shape)]
    k = len(shape) - 1
    perms = list(itertools.permutations(range(1, k + 1)))
    sym = sum(np.transpose(c, (0, *p)) for p in perms) / len(perms)
    return tuple((int(idx[0]), tuple(map(int, idx[1:])), float(sym[idx]))
                 for idx in zip(*np.nonzero(sym)))


def _couplings(nl, order):
    c = nl.c2 if order == 2 else nl.c3
    return _symmetric_couplings(c.shape, c.tobytes())


def _fill_level_cache(ctx, nu):
    """Evaluate, one batch per transform order, every chi2/chi3 tuple that
    the sources of level nu will look up."""
    nls = {id(nl): nl for nl in map(ctx.interface.nl_side, _active_sides(ctx))}
    if not nls:
        return
    tuples = [tuple(ctx.omega(*f) for f in factors)
              for n in range(0, nu + 1)
              for factors, _ in _factor_multisets(n, nu)]
    for nl in nls.values():
        nl.fill_cache(tuples)


def assemble_h(ctx, table, n, nu):
    """The nonlinear source h^{n,nu}: quadratic plus cubic convolution
    sums over the lower levels, index ranges clipped to the cone.

    The sums run over factor multisets.  The chi2/chi3 transforms are a
    coupling tensor times a scalar that is symmetric in its frequencies,
    so the orderings of one multiset add up to its multiplicity times the
    term with the coupling tensor averaged over its field indices
    (``_symmetric_couplings``); this holds for any coupling tensor.

    Needs all table entries with level < nu and raises ValueError naming
    the first one missing.  Returns a NonlinearRHS (identically zero for
    nu = 1, |n| > nu or n + nu odd).
    """
    grid = table.grid
    if nu < 2 or abs(n) > nu or (n + nu) % 2:
        return NonlinearRHS.zero(grid)
    sides = _active_sides(ctx)
    if not sides:
        return NonlinearRHS.zero(grid)
    itf = ctx.interface
    m, N = grid.mid, grid.N
    pref = {2: -ctx.omega(n, nu) * itf.eps0 * itf.mu0**2,
            3: -ctx.omega(n, nu) * itf.eps0 * itf.mu0**3}

    # h1 in the _join_limits layout and h2 on the half nodes; each side's
    # nodes are contiguous there, so a material covers one range of each
    h = (np.zeros(N + 2, dtype=complex), np.zeros(N, dtype=complex))
    start = {"minus": (0, 0), "plus": (m + 1, m)}
    stop = {"minus": (m + 1, m), "plus": (N + 2, N)}
    by_nl = {}
    for side in sides:
        nl = itf.nl_side(side)
        by_nl.setdefault(id(nl), (nl, []))[1].append(side)
    materials = []
    for nl, nl_sides in by_nl.values():
        rng = tuple(map(slice, start[nl_sides[0]], stop[nl_sides[-1]]))
        scratch = tuple(np.empty(r.stop - r.start, dtype=complex) for r in rng)
        materials.append((nl, rng, scratch))

    for factors, mult in _factor_multisets(n, nu):
        samples = []
        for f in factors:
            gf = table.get(*f)
            if gf is None:
                raise ValueError(
                    f"h^({n},{nu}) needs the table entry "
                    f"u^({f[0]},{f[1]}), which is missing")
            samples.append(_side_samples(gf))
        ws = [ctx.omega(*f) for f in factors]
        order = len(factors)
        for nl, rng, scratch in materials:
            chi = (nl._scalar_chi2_truncated if order == 2
                   else nl._scalar_chi3_truncated)(*ws)
            coef = pref[order] * mult * chi
            # j: source component; comps: field component of each factor
            for j, comps, c in _couplings(nl, order):
                term = scratch[j]
                s = [s_[j][p][rng[j]] for s_, p in zip(samples, comps)]
                np.multiply(s[0], s[1], out=term)
                for s_ in s[2:]:
                    term *= s_
                term *= coef * c
                acc = h[j][rng[j]]
                acc += term

    h1, h2 = h
    if n == 0:
        # h^{0,nu} = -conj(h^{0,nu}) is imaginary: drop the rounding
        # left in its real part
        h1.real = 0.0
        h2.real = 0.0
    h1, h1_right = _split_limits(grid, h1)
    return NonlinearRHS(grid, h1, h2, h1_right)


# ----------------------------------------------------------------------
# The recursion
# ----------------------------------------------------------------------

def _seed_entry(ctx, grid, eps):
    phi = eigenfunction(ctx)
    x, xh, m = grid.x, grid.x_half, grid.mid
    vals = phi(x) * eps
    U = vals[0].copy()
    U[m] = eps * (-1j * ctx.k)                       # left limit
    W = vals[2].copy()
    W[m] = eps * (-1j * phi.V_minus)                 # left limit
    V = np.empty(grid.N + 1, dtype=complex)
    V[: grid.N] = eps * phi(xh)[1]
    V[grid.N] = eps * phi.value_at_interface
    ratio = phi.mu_minus / phi.mu_plus
    return GridFunction(
        grid, U, V,
        u1_right=eps * 1j * ctx.k * ratio,
        W=W, w_right=eps * 1j * ratio * phi.V_plus,
        residual=0.0,
    )


def _entry_norm_sq(gf):
    h = gf.grid.h
    s = float(np.sum(np.abs(gf.U) ** 2)
              + np.sum(np.abs(gf.V[: gf.grid.N]) ** 2))
    if gf.W is not None:
        s += float(np.sum(np.abs(gf.W) ** 2))
    return h * s


def build_series(ctx, grid, eps, nu_max, solver="fd"):
    """Run the recursion up to level nu_max and return the table.

    solver: 'fd' (staggered scheme) or 'analytic' (variation of
    constants).  Emits DivergenceWarning when the per-level norms grow
    for three consecutive levels (seed amplitude past the convergence
    radius).
    """
    if solver not in ("fd", "analytic"):
        raise ValueError("solver must be 'fd' or 'analytic'")
    table = CoefficientTable(ctx=ctx, grid=grid, eps=eps, nu_max=nu_max)
    table.entries[(1, 1)] = _seed_entry(ctx, grid, eps)
    table.norms[1] = math.sqrt(2.0 * _entry_norm_sq(table.entries[(1, 1)]))

    def _solve_one(n, nu):
        h = assemble_h(ctx, table, n, nu)
        if h.is_zero:
            gf = GridFunction(grid, np.zeros(grid.N + 1, dtype=complex),
                              np.zeros(grid.N + 1, dtype=complex),
                              W=np.zeros(grid.N + 1, dtype=complex),
                              w_right=0j, residual=0.0)
            return h, gf
        r = SampledRHS(grid, h.h1, h.h2, r1_right=h.h1_right)
        try:
            if solver == "fd":
                gf = solve_fd(ctx, n, nu, r)
            else:
                gf = solve_analytic(ctx, n, nu, r)
        except SingularSystem as exc:
            raise ResolventViolation(n, nu, str(exc)) from exc
        except OverflowGuard as exc:
            raise OverflowGuard(f"solve failed at ({n},{nu}): {exc}") from exc
        except (ValueError, ArithmeticError) as exc:
            raise SolverError(f"solve failed at ({n},{nu}): {exc}") from exc
        if gf.W is None:
            gf.W, gf.w_right = reconstruct_u3(ctx, n, nu, gf)
        return h, gf

    growth = 0
    for nu in range(2, nu_max + 1):
        _fill_level_cache(ctx, nu)
        lvl = 0.0
        for n in range(0, nu + 1):
            h, gf = _solve_one(n, nu)
            table.entries[(n, nu)] = gf
            table.h_entries[(n, nu)] = h
            w = 1.0 if n == 0 else 2.0      # negative-n mirror by symmetry
            lvl += w * _entry_norm_sq(gf)
        table.norms[nu] = math.sqrt(lvl)
        if table.norms[nu] > table.norms[nu - 1] > 0:
            growth += 1
            if growth >= 3:
                warnings.warn(
                    f"per-level norms grew for 3 consecutive levels "
                    f"(through nu={nu}); seed amplitude may exceed the "
                    f"convergence radius",
                    DivergenceWarning,
                )
                growth = 0
        else:
            growth = 0
    return table


# ----------------------------------------------------------------------
# Synthesis and field reconstruction
# ----------------------------------------------------------------------

def _synthesize_complex(table, x, y, t, M=None):
    ctx = table.ctx
    M = table.nu_max if M is None else min(M, table.nu_max)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    psi = np.zeros((3,) + x.shape, dtype=complex)
    for nu in range(1, M + 1):
        damp = math.exp(nu * ctx.omega_I * t)
        for n in range(-nu, nu + 1, 2):      # n + nu odd entries are zero
            gf = table.get(n, nu)
            if gf is None:
                continue
            phase = np.exp(-1j * n * (ctx.omega_R * t - ctx.k * y)) * damp
            psi[0] += phase * gf.eval_u1(x)
            psi[1] += phase * gf.eval_u2(x)
            if gf.W is not None:
                psi[2] += phase * gf.eval_u3(x)
    return psi


def synthesize(table, x, y, t, M=None):
    """Partial sum of the harmonic series at (x, y, t); returns the three
    real field components (psi1, psi2, psi3) on the x-array."""
    psi = _synthesize_complex(table, x, y, t, M)
    return psi.real


def d_field_modal(ctx, table, n, nu, route="operator"):
    """Modal displacement field (D1 at integer nodes in the
    ``_join_limits`` layout, D2 at half nodes, D2 left and right
    interface limits).

    D2 jumps at x = 0 with the permittivity; its right limit takes the
    nonlinear part h2(0+) extrapolated from the first two plus-side
    half nodes.

    route='operator': D = -(B u_E + h)/omega^{(n,nu)} using the stored
    nonlinear source.  route='convolution': the explicit polarization
    sums (linear transform term plus quadratic and cubic coefficients),
    recomputed from scratch.
    """
    omega = ctx.omega(n, nu)
    if omega == 0:
        raise ZeroFrequency("modal D-field needs omega != 0")
    gf = table.get(n, nu)
    grid = table.grid
    if gf is None:
        return (np.zeros(grid.N + 2, dtype=complex),
                np.zeros(grid.N, dtype=complex), 0j, 0j)
    m = grid.mid
    u1 = _join_limits(grid, gf.U, gf.u1_right)
    itf = ctx.interface

    if route == "operator":
        h = table.get_h(n, nu)
        if h is None:
            h = NonlinearRHS.zero(grid)
        sq = spectral_quantities(ctx, n, nu)
        Vm = sq.V_minus.to_complex(strict=False)
        Vp = sq.V_plus.to_complex(strict=False)
        if not (np.isfinite(Vm.real) and np.isfinite(Vm.imag)):
            # B u_E is astronomically large exactly where u is flushed to
            # zero; the product V*u is the bounded physical quantity and
            # vanishes at double precision there
            Vm = 0j
        D1 = -(_times_sides(grid, u1, Vm, Vp)
               + _join_limits(grid, h.h1, h.h1_right)) / omega
        D2 = np.empty(grid.N, dtype=complex)
        D2[:m] = -(Vm * gf.V[:m] + h.h2[:m]) / omega
        D2[m:] = -(Vp * gf.V[m: grid.N] + h.h2[m:]) / omega
        D2_left = -(Vm * gf.V[grid.N]) / omega
        # h2 is sampled at the half nodes only: its right interface
        # limit is extrapolated from the first two plus-side ones
        h2_right = 1.5 * h.h2[m] - 0.5 * h.h2[m + 1]
        D2_right = -(Vp * gf.V[grid.N] + h2_right) / omega
        return D1, D2, D2_left, D2_right

    if route != "convolution":
        raise ValueError("route must be 'operator' or 'convolution'")

    # linear transform term, per side
    eps_m = itf.permittivity("minus", omega)
    eps_p = itf.permittivity("plus", omega)
    if not (np.isfinite(eps_m.real) and np.isfinite(eps_m.imag)):
        eps_m = 0j   # see the operator-route note: u vanishes there
    D1 = _times_sides(grid, u1, itf.mu0 * eps_m, itf.mu0 * eps_p)
    D2 = np.empty(grid.N, dtype=complex)
    D2[:m] = itf.mu0 * eps_m * gf.V[:m]
    D2[m:] = itf.mu0 * eps_p * gf.V[m: grid.N]
    D2_left = itf.mu0 * eps_m * gf.V[grid.N]
    D2_right = itf.mu0 * eps_p * gf.V[grid.N]

    # quadratic + cubic polarization sums = -h/omega, reassembled fresh
    h = assemble_h(ctx, table, n, nu)
    D1 += -_join_limits(grid, h.h1, h.h1_right) / omega
    D2 += -h.h2 / omega
    D2_right += -(1.5 * h.h2[m] - 0.5 * h.h2[m + 1]) / omega
    return D1, D2, D2_left, D2_right


# ----------------------------------------------------------------------
# Diagnostics
# ----------------------------------------------------------------------

def divergence_residual(ctx, table, n, nu):
    """Discrete L2 norm of d_x D1 + i n k D2 for one mode.

    The modal divergence vanishes identically in the continuum (curl
    fields are divergence free); the discrete value is O(h^2) * ||u||.
    """
    grid = table.grid
    D1, D2, _, _ = d_field_modal(ctx, table, n, nu, route="operator")
    res = _per_cell(grid, np.diff(D1)) / grid.h + 1j * n * ctx.k * D2
    return math.sqrt(grid.h * float(np.sum(np.abs(res) ** 2)))


def maxwell_residual(ctx, table, sample_points, M=None):
    """Max relative residual of the first-order TM system at the given
    (x, y, t) samples.

    Time and tangential derivatives are applied per mode (exact in the
    ansatz); x-derivatives use the staggered stencils.  Expected size:
    series tail + O(h^2).
    """
    grid = table.grid
    M_ = table.nu_max if M is None else min(M, table.nu_max)
    h, m, xh = grid.h, grid.mid, grid.x_half

    modes = []
    for nu in range(1, M_ + 1):
        for n in range(-nu, nu + 1, 2):      # n + nu odd entries are zero
            gf = table.get(n, nu)
            if gf is None:
                continue
            D1, D2, D2m, D2p = d_field_modal(ctx, table, n, nu)
            w = _join_limits(grid, gf.W, gf.w_right)
            du3 = _per_cell(grid, np.diff(w)) / h
            knots = (
                _node_knots(grid, D1),
                # D2 on the half nodes, each side ending at its own limit
                (np.concatenate((xh[:m], [0.0])),
                 np.concatenate((D2[:m], [D2m])),
                 np.concatenate(([0.0], xh[m:])),
                 np.concatenate(([D2p], D2[m:]))),
                # d_x u3 on the half nodes, with no interface value
                (xh[:m], du3[:m], xh[m:], du3[m:]),
                _node_knots(grid, _u2_prime(gf.V, grid)),
            )
            modes.append((n, nu, gf, knots))

    worst = 0.0
    for (xs, ys, ts) in sample_points:
        x = np.atleast_1d(float(xs))
        R = np.zeros(3, dtype=complex)
        scale = 0.0
        for (n, nu, gf, knots) in modes:
            om = ctx.omega(n, nu)
            ph = complex(np.exp(-1j * n * (ctx.omega_R * ts - ctx.k * ys))
                         * math.exp(nu * ctx.omega_I * ts))
            u1 = gf.eval_u1(x)[0]
            u3 = gf.eval_u3(x)[0]
            d1, d2, dxu3, dxu2 = (_interp_sides(x, *k)[0] for k in knots)
            # -d_y psi3 + d_t D1 ; d_x psi3 + d_t D2 ;
            # -d_y psi1 + d_x psi2 + d_t psi3
            R[0] += ph * (-1j * n * ctx.k * u3 - 1j * om * d1)
            R[1] += ph * (dxu3 - 1j * om * d2)
            R[2] += ph * (-1j * n * ctx.k * u1 + dxu2 - 1j * om * u3)
            scale = max(scale, abs(ph * om * d1), abs(ph * om * d2),
                        abs(ph * om * u3))
        if scale > 0:
            worst = max(worst, float(np.max(np.abs(R))) / scale)
    return worst


def decay_profile(table):
    """Per-level aggregate norms [(nu, ||u^nu||)].

    ||u^nu||^2 = P * sum_{|n|<=nu} ||u^{n,nu}||^2_{L2(R)} by Parseval,
    with the y-period P = 2 pi / |k|.
    """
    P = 2.0 * math.pi / abs(table.ctx.k)
    return [(nu, math.sqrt(P) * table.norms[nu])
            for nu in sorted(table.norms)]
