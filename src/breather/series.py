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
harmonics outright.  The table stores their (zero) entries as views of
one read-only zero array, and no source: each is assembled when read.

The chi2/chi3 transforms are a coupling tensor times a scalar transform
that is symmetric in its frequency arguments, and every ordering of a
term's factors lies in the cone with it.  So each source is summed once
per multiset of factors: its number of orderings times the scalar
transform times the coupling tensor averaged over its field indices,
restricted to the in-plane components and to its nonzero entries (two
product chains per term for diagonal tensors).  This is exact for any
coupling tensor.  The multisets are enumerated directly, sorted, by
``_cone_multisets``; the sum runs over the quadratic ones, then the
cubic ones, each in ascending level tuples and then ascending m.  It
walks x in tiles of a few thousand points, reading the stored fields
(``assemble_h``); tiles keep that order and the untiled sum's element
alignment, so tiling moves no bit.
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
import weakref
from collections.abc import Mapping
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
    _cell_diff,
    _homogeneous_part,
    _interp_sides,
    _limits,
    _node_knots,
    _node_layout,
    _times_sides,
    _u2_prime,
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

class NonlinearRHS:
    """One level of the nonlinear source: two active components.

    h1 lives at integer nodes (left-limit convention at the interface,
    and the right limit h1_right), stored once as ``_h1`` in the
    integer-node layout of ``resolvent`` as GridFunction stores U; h2 at
    half nodes.  The third component vanishes identically in TM
    polarization.
    """

    h1, h1_right = _limits("_h1")

    def __init__(self, grid, h1, h2, h1_right=None):
        self.grid = grid
        self._h1 = _node_layout(grid, h1, h1_right, "h1", default=0j)
        self.h2 = h2

    @property
    def is_zero(self):
        return not self._h1.any() and not self.h2.any()

    def conjugate_negated(self):
        """The (-n, nu) source: h^{-n,nu} = -conj(h^{n,nu})."""
        return NonlinearRHS(self.grid, -np.conj(self._h1), -np.conj(self.h2))


@dataclass
class CoefficientTable:
    """The computed harmonics u^{n,nu} over the index cone.

    Only n >= 0 is stored; ``get`` serves negative harmonics as exact
    conjugates and returns None outside the cone (those entries are
    identically zero).  Every zero entry views ``_zero``, one read-only
    array of N+2 zeros.  A built table holds nothing else: ``h_entries``
    assembles each source on every read, so a caller that reads one twice
    should hold it.
    """

    ctx: object
    grid: object
    eps: float
    nu_max: int
    entries: dict = field(default_factory=dict)
    h_entries: Mapping = field(init=False, repr=False)
    norms: dict = field(default_factory=dict)
    _zero: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.h_entries = _Sources(self)
        self._zero = np.zeros(self.grid.N + 2, dtype=complex)
        self._zero.flags.writeable = False

    def _zero_source(self):
        """A zero source: h1 and h2 view the table's zero array."""
        return NonlinearRHS(self.grid, self._zero,
                            self._zero[: self.grid.N])

    def get(self, n, nu):
        gf = self.entries.get((abs(n), nu))
        if n >= 0 or gf is None:
            return gf
        if not hasattr(gf, "_conj"):
            gf._conj = gf.conjugate()   # u^(-n,nu), made once
        return gf._conj

    def get_h(self, n, nu):
        """h^{n,nu}, assembled on each call; None unless u^{|n|,nu} with
        nu >= 2 is stored."""
        h = self.h_entries.get((abs(n), nu))
        return h if n >= 0 or h is None else h.conjugate_negated()


class _Sources(Mapping):
    """The sources of a table's stored harmonics with nu >= 2, read only:
    a read calls ``assemble_h``, which reads lower levels only and so
    returns the bits the solve consumed.  Holds the table weakly, caches
    nothing, and deep-copies to a dict of the sources."""

    def __init__(self, table):
        self._table = weakref.ref(table)

    def _live(self):
        table = self._table()
        if table is None:
            raise ReferenceError("source read after its table was freed")
        return table

    def __contains__(self, key):
        return key in self._live().entries and key[1] >= 2

    def __getitem__(self, key):
        if key not in self:
            raise KeyError(key)
        return assemble_h(self._live().ctx, self._live(), *key)

    def __iter__(self):
        return (key for key in self._live().entries if key[1] >= 2)

    def __len__(self):
        return sum(1 for _ in self)

    def __deepcopy__(self, memo):
        return dict(self)


# ----------------------------------------------------------------------
# Grid-function component samples per node family, one tile at a time
# ----------------------------------------------------------------------

# points per tile of the source assembly.  A multiple of any vector width:
# numpy's vectorized complex multiply may fuse multiply and add, so an
# element's last bit can depend on its place in the vector loop, and
# tiles that start on the untiled loop's alignment keep every bit
_TILE = 8192


def _tile_samples(gf, j, p, a, b, out):
    """Component p of gf (0: u1, 1: u2) on the nodes [a, b) of family j
    (0: integer nodes in the integer-node layout of ``resolvent``, minus
    side [:m+1], plus side [m+1:] with the right limit last; 1: half
    nodes, minus side [:m], plus side [m:]).

    A component on its own family is a view of the stored field: u1 is
    ``gf._U``, u2 is ``V[:N]``.  The other two are formed in out: u2 is
    averaged onto integer nodes, zero at the walls and with the exact
    interface value V[N] as both of its limits; u1 is averaged onto half
    nodes, with one-sided extrapolation from the two nodes right of the
    interface in the cell next to it.  Every weight is real, so the
    samples of conj(gf) are the conjugates of these.
    """
    if j == p:
        return (gf._U if j == 0 else gf.V)[a:b]
    N, m = gf.grid.N, gf.grid.mid
    if j == 0:
        V = gf.V
        lo = max(a, 1)
        hi = max(min(b, N), lo)
        avg = out[lo - a: hi - a]
        np.add(V[lo - 1: hi - 1], V[lo:hi], out=avg)
        avg *= 0.5
        for i, v in ((0, 0.0), (N, 0.0), (m, V[N]), (N + 1, V[N])):
            if a <= i < b:
                out[i - a] = v
        return out
    u1 = gf._U
    np.add(u1[a:b], u1[a + 1: b + 1], out=out)
    np.multiply(0.5, out, out=out)
    if a <= m < b:
        out[m - a] = 1.5 * u1[m + 1] - 0.5 * u1[m + 2]
    return out


# ----------------------------------------------------------------------
# Nonlinear right-hand side assembly
# ----------------------------------------------------------------------

def _active_sides(ctx):
    return [s for s in ("minus", "plus")
            if ctx.interface.nl_side(s) is not None]


def _cone_multisets(nu, order, step):
    """Multisets of ``order`` cone points (m, mu), |m| <= mu, whose levels
    sum to nu, each as its factors sorted by (mu, m).

    The outer loops run over the non-decreasing level tuples in
    lexicographic order, the inner ones over the m values, each starting
    at the previous factor's m where the levels are equal.  step = 2
    keeps only the factors with m + mu even, step = 1 all of them.
    """
    if order == 2:
        for mu in range(1, nu // 2 + 1):
            lam = nu - mu
            for m in range(-mu, mu + 1, step):
                for l in range(m if lam == mu else -lam, lam + 1, step):
                    yield (m, mu), (l, lam)
        return
    for mu in range(1, nu // 3 + 1):
        for lam in range(mu, (nu - mu) // 2 + 1):
            rho = nu - mu - lam
            for m in range(-mu, mu + 1, step):
                for l in range(m if lam == mu else -lam, lam + 1, step):
                    for p in range(l if rho == lam else -rho, rho + 1, step):
                        yield (m, mu), (l, lam), (p, rho)


@functools.cache
def _factor_multisets(nu):
    """The factor multisets of every source of level nu, by harmonic.

    Returns {n: ((factors, number of orderings), ...)} for |n| <= nu,
    quadratic multisets before cubic ones, each group in the order of
    ``_cone_multisets``: this is the summation order.  Only factors with
    m + mu even enter (the others vanish), so the groups with n + nu odd
    are empty.  The number of orderings is order! / prod(run lengths!)
    of the sorted factors.
    """
    groups = {n: [] for n in range(-nu, nu + 1)}
    for order in (2, 3):
        for factors in _cone_multisets(nu, order, 2):
            runs = math.prod(math.factorial(len(list(g)))
                             for _, g in itertools.groupby(factors))
            groups[sum(f[0] for f in factors)].append(
                (factors, math.factorial(order) // runs))
    return {n: tuple(g) for n, g in groups.items()}


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
    groups = _factor_multisets(nu)
    tuples = [tuple(ctx.omega(*f) for f in factors)
              for n in range(0, nu + 1) for factors, _ in groups[n]]
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

    Each material's node ranges are walked in tiles of ``_TILE`` points
    from the range's first node.  A tile reads its factors from the
    entries as they stand (``_tile_samples``), and forms only the
    averaged samples its couplings ask for and the conjugates of its
    negative-n factors, once per tile, in tile-sized scratch allocated
    once per call: only h1 and h2 are N-sized.  Each node receives its
    terms in the order of the untiled sum: multisets in
    ``_factor_multisets`` order, then couplings.

    Needs all table entries with level < nu and raises ValueError naming
    the first one missing.  Returns a NonlinearRHS; for nu = 1, |n| > nu
    or n + nu odd it is the table's read-only zero source.
    """
    grid = table.grid
    sides = _active_sides(ctx)
    if nu < 2 or abs(n) > nu or (n + nu) % 2 or not sides:
        return table._zero_source()
    itf = ctx.interface
    m, N = grid.mid, grid.N
    pref = {2: -ctx.omega(n, nu) * itf.eps0 * itf.mu0**2,
            3: -ctx.omega(n, nu) * itf.eps0 * itf.mu0**3}

    # h1 in the integer-node layout and h2 on the half nodes; each side's
    # nodes are contiguous there, so a material covers one range of each
    h = (np.zeros(N + 2, dtype=complex), np.zeros(N, dtype=complex))
    start = {"minus": (0, 0), "plus": (m + 1, m)}
    stop = {"minus": (m + 1, m), "plus": (N + 2, N)}
    by_nl = {}
    for side in sides:
        nl = itf.nl_side(side)
        by_nl.setdefault(id(nl), (nl, []))[1].append(side)
    materials = [(nl, tuple(map(slice, start[s[0]], stop[s[-1]])))
                 for nl, s in by_nl.values()]

    # per material and source component: its terms (factors, field
    # component of each factor, coefficient) in summation order, and the
    # (factor, field component) samples they read
    walks = [(j, r, [], {})
             for _, rng in materials for j, r in enumerate(rng)]
    entries = {}
    for factors, mult in _factor_multisets(nu)[n]:
        for f in factors:
            key = (abs(f[0]), f[1])     # u^(-m,mu) = conj(u^(m,mu))
            if key not in entries:
                entries[key] = table.get(*key)
                if entries[key] is None:
                    raise ValueError(
                        f"h^({n},{nu}) needs the table entry "
                        f"u^({f[0]},{f[1]}), which is missing")
        ws = [ctx.omega(*f) for f in factors]
        order = len(factors)
        for i, (nl, _) in enumerate(materials):
            chi = (nl._scalar_chi2_truncated if order == 2
                   else nl._scalar_chi3_truncated)(*ws)
            coef = pref[order] * mult * chi
            for j, comps, c in _couplings(nl, order):
                _, _, terms, reads = walks[2 * i + j]
                terms.append((factors, comps, coef * c))
                reads.update(dict.fromkeys(zip(factors, comps)))
    # a conjugated or averaged sample takes a scratch row, the product one
    rows = 1 + max(sum(f[0] < 0 or p != j for f, p in reads)
                   for j, _, _, reads in walks)
    width = min(_TILE, max(r.stop - r.start for _, r, _, _ in walks))
    scratch = np.empty((rows, width), dtype=complex)

    for j, r, terms, reads in walks:
        for a in range(r.start, r.stop, _TILE):
            b = min(a + _TILE, r.stop)
            free = iter(scratch[:, : b - a])
            term = next(free)
            samples = {}
            for f, p in reads:
                out = None if f[0] >= 0 and p == j else next(free)
                s = _tile_samples(entries[abs(f[0]), f[1]], j, p, a, b, out)
                samples[f, p] = np.conjugate(s, out=out) if f[0] < 0 else s
            acc = h[j][a:b]
            for factors, comps, c in terms:
                ops = [samples[fp] for fp in zip(factors, comps)]
                np.multiply(ops[0], ops[1], out=term)
                for op in ops[2:]:
                    term *= op
                term *= c
                acc += term

    h1, h2 = h
    if n == 0:
        # h^{0,nu} = -conj(h^{0,nu}) is imaginary: drop the rounding
        # left in its real part
        h1.real = 0.0
        h2.real = 0.0
    return NonlinearRHS(grid, h1, h2)


# ----------------------------------------------------------------------
# The recursion
# ----------------------------------------------------------------------

def _seed_entry(ctx, grid, eps):
    """eps phi (u2(0) = mu_-): the decaying modes of the (1, 1) problem
    with C_- = eps, C_+ = eps mu_-/mu_+, sampled as ``solve_analytic``
    samples them, and u1 = k u3/V per side (no source)."""
    phi = eigenfunction(ctx)
    N, h = grid.N, grid.h
    c_plus = eps * (phi.mu_minus / phi.mu_plus)
    W, V = np.zeros(N + 2, dtype=complex), np.zeros(N + 1, dtype=complex)
    _homogeneous_part(grid, eps, c_plus, phi.mu_minus, phi.mu_plus,
                      phi.V_minus, phi.V_plus, np.exp(-0.5 * h * phi.mu_minus),
                      np.exp(-0.5 * h * phi.mu_plus), W, V)
    # the right limits u3(0+) and u1(0+) in scalar arithmetic
    w_right = W[N + 1] = c_plus * (1j * phi.V_plus)
    U = ctx.k * W
    U[: grid.mid + 1] /= phi.V_minus
    U[grid.mid + 1: N + 1] /= phi.V_plus
    U[N + 1] = ctx.k * w_right / phi.V_plus
    return GridFunction(grid, U, V, W=W, residual=0.0)


def _entry_norm_sq(gf):
    V = gf.V[: gf.grid.N]
    s = np.vdot(gf.U, gf.U).real + np.vdot(V, V).real
    return gf.grid.h * float(s + np.vdot(gf.W, gf.W).real)


def build_series(ctx, grid, eps, nu_max, solver="fd"):
    """Run the recursion up to level nu_max and return the table.

    solver: 'fd' (staggered scheme) or 'analytic' (variation of
    constants).  Emits DivergenceWarning when the per-level norms grow
    for three consecutive levels (seed amplitude past the convergence
    radius).  Each source lives as long as its solve: the table keeps the
    harmonics only, and ``h_entries`` assembles a source again when read.
    """
    if solver not in ("fd", "analytic"):
        raise ValueError("solver must be 'fd' or 'analytic'")
    table = CoefficientTable(ctx=ctx, grid=grid, eps=eps, nu_max=nu_max)
    table.entries[(1, 1)] = _seed_entry(ctx, grid, eps)
    table.norms[1] = math.sqrt(2.0 * _entry_norm_sq(table.entries[(1, 1)]))

    def _solve_one(n, nu):
        h = assemble_h(ctx, table, n, nu)
        # n + nu odd: zero by parity, so the source needs no scan
        if (n + nu) % 2 or h.is_zero:
            z = table._zero
            return GridFunction(grid, z, z[:-1], W=z, residual=0.0)
        r = SampledRHS(grid, h._h1, h.h2)
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
        return gf

    growth = 0
    for nu in range(2, nu_max + 1):
        _fill_level_cache(ctx, nu)
        lvl = 0.0
        for n in range(0, nu + 1):
            gf = table.entries[(n, nu)] = _solve_one(n, nu)
            if (n + nu) % 2:
                continue
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
            gf = table.get(abs(n), nu)
            if gf is None:
                continue
            vals = [gf.eval_u1(x), gf.eval_u2(x), gf.eval_u3(x)]
            phase = np.exp(-1j * n * (ctx.omega_R * t - ctx.k * y)) * damp
            for c, v in enumerate(vals):
                if n < 0:
                    # u^(-n,nu) = conj(u^(n,nu)); interpolation commutes
                    # with conjugation bit for bit
                    np.conjugate(v, out=v)
                psi[c] += phase * v
    return psi


def synthesize(table, x, y, t, M=None):
    """Partial sum of the harmonic series at (x, y, t); returns the three
    real field components (psi1, psi2, psi3) on the x-array."""
    psi = _synthesize_complex(table, x, y, t, M)
    return psi.real


def d_field_modal(ctx, table, n, nu, route="operator"):
    """Modal displacement field (D1 at integer nodes in the integer-node
    layout of ``resolvent``, D2 at half nodes, D2 left and right
    interface limits).

    D2 jumps at x = 0 with the permittivity; its right limit takes the
    nonlinear part h2(0+) extrapolated from the first two plus-side
    half nodes.

    route='operator': D = -(B u_E + h)/omega^{(n,nu)} with the source
    ``table.get_h`` assembles on each call.  route='convolution': the
    explicit polarization sums (linear transform term plus quadratic and
    cubic coefficients), recomputed from scratch.
    """
    omega = ctx.omega(n, nu)
    if omega == 0:
        raise ZeroFrequency("modal D-field needs omega != 0")
    gf = table.get(abs(n), nu)
    grid = table.grid
    if gf is None:
        return (np.zeros(grid.N + 2, dtype=complex),
                np.zeros(grid.N, dtype=complex), 0j, 0j)
    m = grid.mid
    # D1 starts as u1, its sides multiplied below; u^(-n,nu) =
    # conj(u^(n,nu)), conjugated and not kept
    D1, V = (np.conj(gf._U), np.conj(gf.V)) if n < 0 else (gf._U.copy(), gf.V)
    itf = ctx.interface

    if route == "operator":
        h = table.get_h(n, nu) or table._zero_source()     # none at nu = 1
        sq = spectral_quantities(ctx, n, nu)
        Vm = sq.V_minus.to_complex(strict=False)
        Vp = sq.V_plus.to_complex(strict=False)
        if not (np.isfinite(Vm.real) and np.isfinite(Vm.imag)):
            # B u_E is astronomically large exactly where u is flushed to
            # zero; the product V*u is the bounded physical quantity and
            # vanishes at double precision there
            Vm = 0j
        D1 = -(_times_sides(grid, D1, Vm, Vp) + h._h1) / omega
        D2 = np.empty(grid.N, dtype=complex)
        D2[:m] = -(Vm * V[:m] + h.h2[:m]) / omega
        D2[m:] = -(Vp * V[m: grid.N] + h.h2[m:]) / omega
        D2_left = -(Vm * V[grid.N]) / omega
        # h2 is sampled at the half nodes only: its right interface
        # limit is extrapolated from the first two plus-side ones
        h2_right = 1.5 * h.h2[m] - 0.5 * h.h2[m + 1]
        D2_right = -(Vp * V[grid.N] + h2_right) / omega
        return D1, D2, D2_left, D2_right

    if route != "convolution":
        raise ValueError("route must be 'operator' or 'convolution'")

    # linear transform term, per side
    eps_m = itf.permittivity("minus", omega)
    eps_p = itf.permittivity("plus", omega)
    if not (np.isfinite(eps_m.real) and np.isfinite(eps_m.imag)):
        eps_m = 0j   # see the operator-route note: u vanishes there
    _times_sides(grid, D1, itf.mu0 * eps_m, itf.mu0 * eps_p)
    D2 = np.empty(grid.N, dtype=complex)
    D2[:m] = itf.mu0 * eps_m * V[:m]
    D2[m:] = itf.mu0 * eps_p * V[m: grid.N]
    D2_left = itf.mu0 * eps_m * V[grid.N]
    D2_right = itf.mu0 * eps_p * V[grid.N]

    # quadratic + cubic polarization sums = -h/omega, reassembled fresh
    h = assemble_h(ctx, table, n, nu)
    D1 += -h._h1 / omega
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
    res = _cell_diff(grid, D1) / grid.h + 1j * n * ctx.k * D2
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
            gf = table.get(abs(n), nu)
            if gf is None:
                continue
            D1, D2, D2m, D2p = d_field_modal(ctx, table, n, nu)
            du3 = _cell_diff(grid, gf._W) / h
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
            if n < 0:
                # gf and the u3, u2' knots are those of u^(|n|,nu)
                u1, u3, dxu3, dxu2 = (
                    v.conjugate() for v in (u1, u3, dxu3, dxu2))
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
