"""Interface resolvent solvers on the line, two independent ways.

Solves L_{nk}(omega^{(n,nu)}) u = r for the three-component field
u = (u1, u2, u3) on [-d, d] with the interface conditions
[[u2]] = [[u3]] = 0 at x = 0 and the perfect-conductor truncation
u2(+-d) = 0:

* ``solve_analytic`` -- closed-form variation of constants for two
  spatially homogeneous layers, with exponentially weighted quadrature
  of the source integrals (never forms a growing exponential alone).
  The cumulative quadratures are unit-bidiagonal triangular band solves
  (LAPACK ``ztbtrs``).
* ``solve_fd`` -- the anti-pollution staggered-grid finite-difference
  scheme: u1 lives on integer nodes, u2 on half nodes, with one extra
  unknown for u2(0) and one-sided 3-point stencils at the interface.

The component equations on each half line are

    nk u3   - V u1                = r1
    i u3'   - V u2                = r2
    i u2'   + nk u1 + omega u3    = r3   (r3 = 0 for the FD scheme)

with V = V_+- (n, nu).  With r3 = 0, u3 = -(i u2' + nk u1)/omega leaves

    u2' + c1 u1 = f1,       c1 = -i (V omega/nk + nk),  f1 = (i omega/nk) r1
    -u2'' + i nk u1' + c2 u2 = f2,   c2 = V omega,      f2 = -omega r2

(n = 0: V u1 = -r1 and the u2 equation alone).  The staggered scheme
takes the first equation at the integer nodes, with U_j = u1(x_j) and
the derivative (V_j - V_{j-1})/h, and the second at the half nodes.
At the walls u2(+-d) = 0 gives 2 V_0/h and -2 V_{N-1}/h; at the
interface node (m = N/2, V* = V[N] = u2(0)) the one-sided derivatives

    D_- V = (8 V* - 9 V_{m-1} + V_{m-2}) / 3h,   u2'(0-)
    D_+ V = (-8 V* + 9 V_m - V_{m+1}) / 3h,      u2'(0+)

enter the node's first equation (left limit, U_m) and the jump row,
which is the first equation at 0+ with u1(0+) = U_m + i (D_-V - D_+V)/nk
from the continuity of u3.  The half nodes next to the interface take
u2'' as (D_-V - (V_{m-1} - V_{m-2})/h)/h and ((V_{m+1} - V_m)/h - D_+V)/h,
and the right-adjacent one reads u1(0+) in u1'.

Every first-equation row is local in U, so ``solve_fd`` never assembles
the 2N+2 unknowns: U_j = (f1_j - (D V)_j)/c1 is substituted into the
second-equation rows, u1(0+) = (f1(0+) - D_+V)/c1_+ into the
right-adjacent one, and U_m into the jump row.  What is left is N+1
equations in V, ordered as ``GridFunction`` stores them: V_0, ...,
V_{m-1}, then V_m, ..., V_{N-1}, then V* last, with the jump row last
(for n = 0, the continuity row of u2' instead).  The second-equation
rows of each half line form a tridiagonal that reaches the other half
line only through V*, in its interface-adjacent row; only the jump row
reaches five unknowns.  Minus-side coefficients can carry magnitudes far
outside double range deep in the index cone; they are formed in
log-scaled arithmetic and equilibrated, one scale per side and one for
the jump row.  The system is then solved as a bordered one: one
tridiagonal LU over both half lines (LAPACK ``zgtsv``) with two right
sides, the data and the response to V*, then V* from the jump row's
scalar Schur complement.  U and u1(0+) then follow pointwise; the
result stores no u3, which is formed from u1 and u2' when read.

Every staggered field, here and in ``series``, is evaluated between its
samples by ``_interp_sides``: linear interpolation of x < 0 on the
minus-side knots and of x >= 0 on the plus-side knots, each side
carrying its own limit at x = 0.  The integer-node fields jump at x = 0;
each is stored once with both limits, as N+2 values f_0, ..., f_m (the
left limit at m = N/2), f_{m+1}, ..., f_N, then the right limit f(0+)
last, as V keeps u2(0) last.  Each side is one contiguous range, minus
[:m+1] and plus [m+1:], so elementwise work takes a side at a time;
only a neighbour operation treats the first plus cell, from f(0+) to
f_{m+1}, on its own.  The public fields (U, W, r1, h1) view the first
N+1 values.  A solve reads r1 and writes u1 into one fresh array, the
storage of the entry it returns.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._scaled import ScaledComplex
from .errors import OverflowGuard, SingularSystem, SpectrumError, ZeroFrequency
from .pencil import spectral_quantities

__all__ = [
    "StaggeredGrid",
    "GridFunction",
    "SampledRHS",
    "solve_fd",
    "solve_analytic",
    "fd_convergence_study",
]


# ----------------------------------------------------------------------
# Grid and grid functions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StaggeredGrid:
    """Staggered grid on [-d, d] with the interface at a node.

    Integer nodes x_j = -d + j h (j = 0..N) carry u1 and u3; half nodes
    x~_j = -d + (j + 1/2) h (j = 0..N-1) carry u2.  N must be even so
    that x_{N/2} = 0 exactly.
    """

    d: float
    N: int

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError("need d > 0")
        if self.N <= 0 or self.N % 2:
            raise ValueError("N must be a positive even integer")

    @property
    def h(self):
        return 2.0 * self.d / self.N

    @property
    def mid(self):
        """Index of the interface node x_{N/2} = 0."""
        return self.N // 2

    @property
    def x(self):
        """Integer nodes, length N+1."""
        return -self.d + self.h * np.arange(self.N + 1)

    @property
    def x_half(self):
        """Half nodes, length N."""
        return -self.d + self.h * (np.arange(self.N) + 0.5)


def _node_layout(grid, f, right, name, default=None):
    """Integer-node samples as stored: f itself if it has N+2 values and
    no separate right limit is given, else f (N+1 values, the left limit
    at N/2) with the right limit (``default`` if None) appended."""
    if f is not None:
        f = np.asarray(f, dtype=complex)
        if f.shape == (grid.N + 2,) and right is None:
            return f
        right = default if right is None else right
        if f.shape == (grid.N + 1,) and right is not None:
            return np.append(f, right)
    raise ValueError(f"{name} must have length N+1 and a right interface "
                     f"limit, or length N+2")


def _limits(name):
    """The first N+1 values (the left limit at N/2) and the last value
    (the right interface limit) of the stored integer-node samples
    ``name``, as two properties; assignment writes the stored array."""
    def limit(index):
        def get(self):
            f = getattr(self, name)
            return None if f is None else f[index]

        def put(self, value):
            getattr(self, name)[index] = value
        return property(get, put)
    return limit(slice(-1)), limit(-1)


class GridFunction:
    """Staggered samples of a field on a grid.

    U holds u1 at integer nodes with the *left*-limit convention at the
    interface node N/2, and u1_right its right limit; V holds u2 at the
    N half nodes plus one extra slot V[N] for the interface value u2(0).
    Optionally carries the reconstructed u3 (W, again with the left-limit
    convention, and its right limit w_right: the two are given together),
    and the relative residual of the solve that produced it.

    u1 and u3 are stored once each, in the integer-node layout (``_U``,
    ``_W``: N+2 values, the right limit last).  U and W view their first
    N+1 values, u1_right and w_right read the last one, and assigning any
    of them writes the stored array.  U and W may also be given in that
    layout, without right limits; they are then stored without a copy.
    A ``solve_fd`` result stores no W: it forms u3 from U and V on each
    read (``_DerivedU3``).
    """

    U, u1_right = _limits("_U")
    W, w_right = _limits("_W")
    _W = None

    def __init__(self, grid, U, V, u1_right=None, W=None, w_right=None,
                 residual=None):
        self.grid = grid
        self._U = _node_layout(grid, U, u1_right, "U", default=0j)
        self.V = np.asarray(V, dtype=complex)
        if self.V.shape != (grid.N + 1,):
            raise ValueError("V must have length N+1")
        if W is not None or w_right is not None:
            self._W = _node_layout(grid, W, w_right, "W")
        self.residual = residual

    def conjugate(self):
        """The grid function of the (-n, nu) entry: componentwise conjugate."""
        return GridFunction(
            self.grid, np.conj(self._U), np.conj(self.V),
            W=None if self._W is None else np.conj(self._W),
            residual=self.residual,
        )

    # -- pointwise evaluation (side-aware linear interpolation) ---------
    def eval_u1(self, x):
        return _interp_sides(x, *_node_knots(self.grid, self._U))

    def eval_u2(self, x):
        g, m, N = self.grid, self.grid.mid, self.grid.N
        V = self.V
        return _interp_sides(
            x,
            np.concatenate(([-g.d], g.x_half[:m], [0.0])),
            np.concatenate(([0.0], V[:m], [V[N]])),
            np.concatenate(([0.0], g.x_half[m:], [g.d])),
            np.concatenate(([V[N]], V[m:N], [0.0])),
        )

    def eval_u3(self, x):
        W = self._W
        if W is None:
            raise ValueError("u3 samples not attached")
        return _interp_sides(x, *_node_knots(self.grid, W))


class _DerivedU3(GridFunction):
    """A grid function that stores u1 and u2 only, as ``solve_fd`` returns
    them: u3 = (u2' - i nk u1)/(i omega) is formed from U and V on every
    read of W, w_right or eval_u3, with ``_u3``'s operations and the
    solver's u2' stencils, into a fresh read-only array.  It keeps the two
    scalars i nk and i omega (nonzero); its conjugate conjugates them, so
    the conjugate's W equals conj(W) (up to the signs of exact zeros)."""

    def __init__(self, grid, U, V, ink, iomega, residual):
        super().__init__(grid, U, V, residual=residual)
        self._ink, self._iomega = ink, iomega

    @property
    def _W(self):
        W = _u3_formed(self._U, _u2_prime(self.V, self.grid), self._ink,
                       self._iomega)
        W.flags.writeable = False
        return W

    def conjugate(self):
        return _DerivedU3(self.grid, np.conj(self._U), np.conj(self.V),
                          self._ink.conjugate(), self._iomega.conjugate(),
                          self.residual)


def _interp_sides(x, xm, fm, xp, fp):
    """Linear interpolation of x < 0 on the knots (xm, fm) and of x >= 0
    on (xp, fp); each side's knots carry that side's limits at x = 0."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape, dtype=complex)
    neg = x < 0
    out[neg] = np.interp(x[neg], xm, fm)
    out[~neg] = np.interp(x[~neg], xp, fp)
    return out


def _times_sides(grid, f, minus, plus):
    """f (integer-node layout) times minus on [:m+1], plus on [m+1:], in
    place; returns f."""
    m = grid.mid
    np.multiply(f[: m + 1], minus, out=f[: m + 1])
    np.multiply(f[m + 1:], plus, out=f[m + 1:])
    return f


def _cell_diff(grid, f, out=None):
    """f_{j+1} - f_j over the N integer-node cells of f (integer-node
    layout): the first plus cell starts at the right limit f[N+1]."""
    N, m = grid.N, grid.mid
    out = np.subtract(f[1: N + 1], f[:N], out=out)
    out[m] = f[m + 1] - f[N + 1]
    return out


def _node_knots(grid, f):
    """Knots of integer-node samples f (integer-node layout) for
    ``_interp_sides``: the plus side starts at the right limit f[N+1]."""
    m, N, x = grid.mid, grid.N, grid.x
    return (x[: m + 1], f[: m + 1], np.concatenate(([0.0], x[m + 1:])),
            np.concatenate((f[N + 1:], f[m + 1: N + 1])))


class SampledRHS:
    """Right-hand side samples on a staggered grid.

    r1 lives on integer nodes (left-limit convention at N/2, and the
    right limit r1_right), stored once as ``_r1`` in the integer-node
    layout as GridFunction stores U; r2 on half nodes, and the optional
    r3 on half nodes (only the analytic solver accepts a nonzero r3).
    """

    r1, r1_right = _limits("_r1")

    def __init__(self, grid, r1, r2, r1_right=None, r3=None):
        N = grid.N
        self.grid = grid
        self._r1 = _node_layout(grid, r1, r1_right, "r1", default=0j)
        self.r2 = np.asarray(r2, dtype=complex)
        if self.r2.shape != (N,):
            raise ValueError("r2 must have length N (half nodes)")
        self.r3 = None if r3 is None else np.asarray(r3, dtype=complex)
        if self.r3 is not None and self.r3.shape != (N,):
            raise ValueError("r3 must have length N (half nodes)")

    @classmethod
    def from_sides(cls, grid, minus, plus):
        """Sample per-side callables (f1, f2[, f3]) on the grid.

        Each callable maps an array of positions to complex values; the
        minus tuple is evaluated for x <= 0 (its value at 0 is the left
        limit) and the plus tuple for x >= 0.
        """
        m = grid.mid
        x, xh = np.append(grid.x, 0.0), grid.x_half   # integer-node layout
        r1 = np.empty(grid.N + 2, dtype=complex)
        r1[: m + 1] = minus[0](x[: m + 1])
        r1[m + 1:] = plus[0](x[m + 1:])
        r2 = np.empty(grid.N, dtype=complex)
        r2[:m] = minus[1](xh[:m])
        r2[m:] = plus[1](xh[m:])
        r3 = None
        if len(minus) > 2 and minus[2] is not None:
            r3 = np.empty(grid.N, dtype=complex)
            r3[:m] = minus[2](xh[:m])
            r3[m:] = plus[2](xh[m:])
        return cls(grid, r1, r2, r3=r3)


# ----------------------------------------------------------------------
# Log-scaled row assembly helpers
# ----------------------------------------------------------------------

def _logabs(t):
    if isinstance(t, ScaledComplex):
        return t.log_mag
    a = abs(t)
    return -math.inf if a == 0.0 else math.log(a)


def _descale(t, L):
    """t / e^L as a plain complex, flushing underflow to zero."""
    if isinstance(t, ScaledComplex):
        if t.is_zero:
            return 0j
        return ScaledComplex(t.log_mag - L, t.phase).to_complex(strict=False)
    return complex(t) * math.exp(min(-L, 700.0))


def _to_complex_soft(t):
    """ScaledComplex -> complex, flushing underflow; guard overflow."""
    z = t.to_complex(strict=False)
    if z != 0 and not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise OverflowGuard("scaled quantity exceeds double range")
    return z


def _row_scale(coeffs):
    """Log of the largest coefficient magnitude: the row's one scale."""
    L = max(_logabs(t) for t in coeffs)
    if math.isinf(L):
        raise SingularSystem("empty row")
    return L


def _bordered_residual(sides, col_star, star, z, b, out, tmp):
    """||A z - b|| for the system of ``_solve_v_band``.  zgtsv overwrote
    the band, so A is rebuilt from each side's descaled (off, c2); out (N
    values) and tmp (N/2 - 1) are scratch."""
    N = out.size
    m = N // 2
    for (off, c2), c, lo, wall, inner, adj, far in zip(
            sides, col_star, (0, m), (0, N - 1), (1, N - 2), (m - 1, m),
            (m - 2, m + 1)):
        zs, o, t = z[lo: lo + m], out[lo: lo + m], tmp[: m - 1]
        np.multiply(-2.0 * off + c2, zs, out=o)
        o[1:] += np.multiply(off, zs[:-1], out=t)
        o[:-1] += np.multiply(off, zs[1:], out=t)
        out[wall] = (-3.0 * off + c2) * z[wall] + off * z[inner]
        out[adj] = ((4.0 / 3.0) * off * z[far]
                    + (-4.0 * off + c2) * z[adj] + c * z[N])
    out -= b[:N]
    jump = sum(t * z[j] for t, j in zip(star, (m - 2, m - 1, N, m, m + 1)))
    return math.sqrt(float(np.vdot(out, out).real) + abs(jump - b[N]) ** 2)


def _solve_v_band(grid, sides, omega, r2, f1, star, star_rhs):
    """Assemble and solve the equilibrated bordered system in u2.

    The unknowns are ordered as ``GridFunction`` stores them: V_0, ...,
    V_{N-1}, then V* = u2(0); the second-equation row of half node j sits
    at V_j and the interface row last.  ``sides[s] = (off, c2, e)`` gives
    the coefficients of side s: with f2 = -omega r2, the second-equation
    row of half node j reads

        -off S_j V + c2 V_j = f2_j - e (f1_{j+1} - f1_j) = f2_j - e df1_j

    with f1 in the integer-node layout (None: no f1 term) and S_j the
    weights of -h^2 u2'': (-1, 2, -1) inside, (3, -1) on (V_j, neighbour)
    at the walls, and (4, -4/3, -8/3) on (V_j, far neighbour, V*) next to
    the interface.  All rows of a side share one scale, and each diagonal
    is formed from the descaled off: the weights of a row come from one
    rounded value, as the stencil's do.  ``star`` holds the interface
    row's coefficients on (V_{m-2}, V_{m-1}, V*, V_m, V_{m+1}) and
    ``star_rhs`` its right side as (coefficient, value) pairs.
    ``spsolve`` solves the system, in the storage of the diagonal.

    Returns V in the GridFunction layout (V[N] = u2(0)) and the relative
    residual of the equilibrated system.
    """
    N, m = grid.N, grid.mid
    dl = np.empty(N - 1, dtype=complex)     # entry (j+1, j)
    du = np.empty(N - 1, dtype=complex)     # entry (j, j+1)
    b = np.empty(N + 1, dtype=complex)
    # the diagonal, then V: made last, as it outlives the others; d[N]
    # is not part of the band, and takes V*
    d = np.empty(N + 1, dtype=complex)
    col_star, scaled = [], []
    if f1 is not None:      # df1, in d before its rows are set
        _cell_diff(grid, f1, out=d[:N])
    for s, rows, wall, adj, far_diag, far in (
        ("minus", slice(0, m), 0, m - 1, dl, m - 2),
        ("plus", slice(m, N), N - 1, m, du, m),
    ):
        off, c2, e = sides[s]
        L = _row_scale((off, c2))
        off, c2 = _descale(off, L), _descale(c2, L)
        br = np.multiply(-omega, r2[rows], out=b[rows])
        br *= math.exp(min(-L, 700.0))
        if f1 is not None:
            br -= np.multiply(_descale(e, L), d[rows], out=d[rows])
        d[rows] = -2.0 * off + c2
        d[wall] = -3.0 * off + c2
        d[adj] = -4.0 * off + c2
        dl[rows.start: rows.stop - 1] = off
        du[rows.start: rows.stop - 1] = off
        # the interface-adjacent row: one-sided second difference via V*
        far_diag[far] = (4.0 / 3.0) * off
        col_star.append((8.0 / 3.0) * off)
        scaled.append((off, c2))
    dl[m - 1] = du[m - 1] = 0.0     # the half lines meet only through V*
    L = _row_scale(star)
    star = [_descale(t, L) for t in star]
    b[N] = sum(_descale(c, L) * v for c, v in star_rhs)

    z = spsolve((dl, d, du), b, col_star, star)
    if not np.all(np.isfinite(z.view(float))):
        raise SingularSystem("direct solve produced non-finite entries")
    bnorm = float(np.linalg.norm(b))
    res = (_bordered_residual(scaled, col_star, star, z, b,
                              np.empty(N, dtype=complex), dl)
           / max(bnorm, 1e-300))
    if bnorm > 0 and res > 1e-8:
        raise SingularSystem(
            f"equilibrated residual {res:.2e} indicates spectral proximity"
        )
    return z, res


def spsolve(tri, b, col_star, star):
    """Direct solve of the bordered system A z = b in u2.

    z = (V_0, ..., V_{N-1}, V*).  Rows 0..N-1 are the tridiagonal
    tri = (dl, d, du), with dl[j] = A[j+1, j], d[j] = A[j, j] (d has one
    more value, d[N], which is not read) and du[j] = A[j, j+1], plus
    the column of V*: col_star = (A[m-1, N], A[m, N]) in the two
    interface-adjacent rows (m = N/2).  The tridiagonal splits at the
    interface (dl[m-1] = du[m-1] = 0), so each half line is its own
    problem.  Row N, the jump row, has the coefficients ``star`` on
    (V_{m-2}, V_{m-1}, V*, V_m, V_{m+1}).

    One tridiagonal LU (LAPACK ``zgtsv``, two half-line LUs in one call)
    takes two right sides: the rows y of b, and the response g to V*.
    The jump row's scalar Schur complement then gives V*, and V = y - V*
    g.  This needs only each half-line problem to be nonsingular, never
    a division by an off-diagonal.  zgtsv overwrites tri with its
    factors, which are not read after it; z is formed in d, and d is
    returned.  b is kept.
    """
    # imported here, so that the verbs that never solve do not load it
    from scipy.linalg import lapack
    dl, d, du = tri
    N = d.size - 1
    m = N // 2
    yg = np.zeros((N, 2), dtype=complex, order="F")
    yg[:, 0] = b[:N]
    yg[m - 1, 1], yg[m, 1] = col_star
    *_, info = lapack.zgtsv(dl, d[:N], du, yg, overwrite_dl=True,
                            overwrite_d=True, overwrite_du=True,
                            overwrite_b=True)
    if info < 0:
        raise ValueError(f"zgtsv: illegal value in argument {-info}")
    if info > 0:
        k = info - 1
        raise SingularSystem(
            f"tridiagonal LU: exact zero pivot U({k},{k}) of {N + 1}, "
            f"{'minus' if k < m else 'plus'} side"
        )
    y, g = yg[:, 0], yg[:, 1]
    # the jump row with V = y - V* g substituted
    near = (star[0], m - 2), (star[1], m - 1), (star[3], m), (star[4], m + 1)
    schur = star[2] - sum(t * g[j] for t, j in near)
    if schur == 0:
        raise SingularSystem(
            f"interface Schur complement: exact zero pivot U({N},{N}) "
            f"of {N + 1}"
        )
    v = (b[N] - sum(t * y[j] for t, j in near)) / schur
    z = d
    np.subtract(y, np.multiply(g, v, out=g), out=z[:N])
    z[N] = v
    return z


# ----------------------------------------------------------------------
# Finite-difference solver
# ----------------------------------------------------------------------

def solve_fd(ctx, n, nu, r):
    """Staggered-grid solve of the interface system, reduced to u2.

    ``r`` is a SampledRHS with r3 = 0.  U is eliminated row by row
    through the first equation, the N+1 unknowns in V are found from the
    bordered half-line tridiagonals of ``spsolve``, and U and the right
    interface limit of u1 follow pointwise.  Returns a GridFunction (U at
    integer nodes with the right limit of u1, V at half nodes plus V[N] =
    u2(0)) that stores no W: its u3 is formed from u1 and u2' when read
    (``_DerivedU3``).  omega = 0 raises ZeroFrequency here, after the
    solve.  r is only read: u1 is formed in one fresh array, which the
    result stores.
    """
    grid = r.grid
    if r.r3 is not None and np.any(r.r3 != 0):
        raise ValueError("the staggered scheme requires r3 = 0")
    h, m = grid.h, grid.mid
    omega = ctx.omega(n, nu)
    sq = spectral_quantities(ctx, n, nu)
    sV = {"minus": sq.V_minus, "plus": sq.V_plus}
    nk = n * ctx.k

    if nk == 0:
        # u1 is algebraic and the u2 equation is scalar and C^1
        u1 = _times_sides(grid, np.negative(r._r1),
                          _to_complex_soft(1.0 / sV["minus"]),
                          _to_complex_soft(1.0 / sV["plus"]))
        sides = {s: (-1.0 / h**2, sV[s] * omega, 0.0) for s in sV}
        # continuity of u2' across the interface closes the system
        star = (-1.0, 9.0, -16.0, 9.0, -1.0)
        V, res = _solve_v_band(grid, sides, omega, r.r2, None, star, ())
    else:
        # first equation u2' + c1 u1 = f1 at integer nodes, second
        # equation -u2'' + i nk u1' + c2 u2 = f2 at half nodes
        # U_j = (f1_j - (D V)_j) / c1 turns i nk (U_{j+1} - U_j)/h into
        # e (f1_{j+1} - f1_j) - g (V_{j-1} - 2 V_j + V_{j+1}), with
        # e = i nk/(h c1) and g = e/h: the weight of V_{j+-1} is -1/h^2 - g
        inv_h = 1.0 / h
        dk = 1j * nk * inv_h
        c1, inv_c1, sides = {}, {}, {}
        for s in sV:
            a = sV[s] * (omega / nk)
            c1[s] = (a + nk) * (-1j)
            if c1[s].log_mag < max(a.log_mag, math.log(abs(nk))) - 30.0:
                raise SingularSystem(
                    f"c1 = -i (V omega/nk + nk) vanishes on the {s} side "
                    f"(mu_{'-' if s == 'minus' else '+'} = 0)"
                )
            inv_c1[s] = _to_complex_soft(1.0 / c1[s])
            e = dk / c1[s]
            sides[s] = (-(inv_h * inv_h) - e * inv_h, sV[s] * omega, e)
        f1 = u1 = np.multiply(1j * omega / nk, r._r1)

        # jump row c1_+ u1(0+) + D_+V = f1(0+) with u1(0+) = U_m +
        # i (D_-V - D_+V)/nk and U_m = (f1_m - D_-V)/c1_-; t = i c1_+/(3h nk)
        t = c1["plus"] * (1j / (3.0 * h * nk))
        q = c1["plus"] / c1["minus"]
        ih3 = 1.0 / (3.0 * h)
        tq = t - q * ih3
        star = (tq, tq * (-9.0), t * 16.0 - (q + 1.0) * (8.0 * ih3),
                t * (-9.0) + 9.0 * ih3, t - ih3)
        V, res = _solve_v_band(grid, sides, omega, r.r2, f1, star,
                               ((1.0, f1[grid.N + 1]), (-q, f1[m])))
        du = _u2_prime(V, grid)
        _times_sides(grid, np.subtract(f1, du, out=f1),
                     inv_c1["minus"], inv_c1["plus"])

    return _DerivedU3(grid, u1, V, *_u3_scalars(ctx, n, nu), res)


# ----------------------------------------------------------------------
# u3 reconstruction
# ----------------------------------------------------------------------

def _u2_prime(V, grid):
    """u2' at the integer nodes in the integer-node layout, with the
    solver's stencils."""
    N, h, m = grid.N, grid.h, grid.mid
    du = np.empty(N + 2, dtype=complex)
    # (V_j - V_{j-1})/h at the inner nodes j (node m is set below)
    np.subtract(V[1:N], V[: N - 1], out=du[1:N])
    np.divide(du[1:N], h, out=du[1:N])
    du[0] = 2.0 * V[0] / h
    du[N] = -2.0 * V[N - 1] / h
    du[m] = (8.0 * V[N] - 9.0 * V[m - 1] + V[m - 2]) / (3.0 * h)
    du[N + 1] = (-8.0 * V[N] + 9.0 * V[m] - V[m + 1]) / (3.0 * h)
    return du


def _u3_scalars(ctx, n, nu):
    """(i nk, i omega), the scalars of u3 = (u2' - i nk u1)/(i omega)."""
    omega = ctx.omega(n, nu)
    if omega == 0:
        raise ZeroFrequency("u3 reconstruction needs omega != 0")
    return 1j * n * ctx.k, 1j * omega


def _u3_formed(u1, du, ink, iomega):
    """u3 = (du - ink u1)/iomega in a fresh array, from u1 and u2' in the
    integer-node layout."""
    u3 = np.multiply(ink, u1)
    np.subtract(du, u3, out=u3)
    return np.divide(u3, iomega, out=u3)


def _u3(ctx, n, nu, u1, du):
    """u3 = (u2' - i nk u1)/(i omega) from u1 and u2', all three in the
    integer-node layout."""
    return _u3_formed(u1, du, *_u3_scalars(ctx, n, nu))


# ----------------------------------------------------------------------
# Variation-of-constants solver
# ----------------------------------------------------------------------

def _exp_cell(mu_sc, h):
    """(e^{-mu h}, int_0^h e^{-mu t} dt) with overflow-safe handling."""
    if mu_sc.is_zero:
        return 1.0 + 0j, complex(h)
    if mu_sc.log_mag + math.log(h) > 690.0:
        # kernel localizes inside one cell far below double resolution
        return 0j, _to_complex_soft(1.0 / mu_sc)
    mu = mu_sc.to_complex(strict=True)
    z = mu * h
    if abs(z) < 1e-8:
        return np.exp(-z), h * (1.0 - 0.5 * z)
    emh = np.exp(-z)
    return emh, (1.0 - emh) / mu


def solve_analytic(ctx, n, nu, r):
    """Closed-form resolvent for two homogeneous layers.

    The reduced (u2, u3) system is solved by variation of constants:
    decaying homogeneous modes C_+- e^{-+mu_+- x} plus particular parts
    built from the source densities rho_+-^{(1,2)}.  All quadratures of
    int rho e^{-+mu s} ds use cumulative recurrences whose weights are
    exact cell integrals of the decaying exponential, so no growing
    factor is ever materialized; each recurrence is one bidiagonal band
    solve.  The homogeneous modes take one exponential per integer node;
    their half-node values follow by a decaying half-cell factor.  u1
    follows algebraically per side.

    Returns a GridFunction carrying U, V, the right limit of u1, and u3
    (W with its right limit).
    """
    grid = r.grid
    N, h, m = grid.N, grid.h, grid.mid
    nk = n * ctx.k
    sq = spectral_quantities(ctx, n, nu)
    sVm, sVp, sMm, sMp = sq.V_minus, sq.V_plus, sq.mu_minus, sq.mu_plus

    W = sMm * sVp + sMp * sVm
    if W.is_zero or W.log_mag < max(
        (sMm * sVp).log_mag, (sMp * sVm).log_mag
    ) - 30.0:
        raise SpectrumError(
            "mu_- V_+ + mu_+ V_- vanishes: point-spectrum degeneracy"
        )

    # u2 at the half nodes (V[N] = u2(0)) and u3 at the integer nodes hold
    # the source densities rho1 and rho2 at the half nodes until formed
    V = np.empty(N + 1, dtype=complex)
    u3 = np.empty(N + 2, dtype=complex)
    r1 = r._r1
    tmp = np.empty(m + 1, dtype=complex)
    odd = tmp[:m]
    for sV, sM, cells in ((sVm, sMm, slice(0, m)), (sVp, sMp, slice(m, N))):
        # r1 at a half node: the mean of its cell's two node values (the
        # first plus cell starts at the right limit r1[N+1])
        np.add(r1[cells], r1[cells.start + 1: cells.stop + 1], out=odd)
        if cells.start:
            odd[0] = r1[N + 1] + r1[m + 1]
        np.multiply(0.5, odd, out=odd)
        odd *= nk * _to_complex_soft(1.0 / (sV * sM))
        if r.r3 is not None:
            odd += np.multiply(r.r3[cells], _to_complex_soft(1.0 / sM),
                               out=u3[cells])
        base = np.multiply(1j, r.r2[cells], out=V[cells])
        base *= _to_complex_soft(1.0 / sV)
        np.subtract(base, odd, out=u3[cells])
        base += odd

    # cumulative exponentially weighted integrals at integer nodes
    ep_h, Kp = _exp_cell(sMp, h)
    em_h, Km = _exp_cell(sMm, h)
    ep_2, Kp2 = _exp_cell(sMp, 0.5 * h)
    em_2, Km2 = _exp_cell(sMm, 0.5 * h)
    band = np.empty((2, m), dtype=complex, order="F")
    band[:] = -ep_h     # plus side, local integer index 0..N-m
    A = _decay_sweep(V[m:N], Kp, band, True)     # int_x^d rho1 e^{-mu(s-x)}
    B = _decay_sweep(u3[m:N], Kp, band, False)   # int_0^x rho2 e^{-mu(x-s)}
    band[:] = -em_h     # minus side, integer index 0..m
    P = _decay_sweep(V[:m], Km, band, True)      # int_x^0 rho1 e^{-mu(s-x)}
    Q = _decay_sweep(u3[:m], Km, band, False)    # int_{-d}^x rho2 e^{-mu(x-s)}
    del band

    I1p = A[0]
    I2m = Q[m]

    # interface-matching constants, ratios formed in scaled arithmetic
    c_I2m = _to_complex_soft((sMp * sVm - sMm * sVp) / W)
    c_I1p = _to_complex_soft((2.0 * (sMp * sVp)) / W)
    C_minus = 0.5j * (c_I2m * I2m + c_I1p * I1p)
    ratio_mm = _to_complex_soft(sMm / sMp)
    C_plus = ratio_mm * C_minus + 0.5j * ratio_mm * I2m - 0.5j * I1p

    mu_p = _to_complex_soft(sMp)
    mu_m = _to_complex_soft(sMm)
    V_p = _to_complex_soft(sVp)
    V_m = _to_complex_soft(sVm)

    # particular parts: u2 at the half nodes, 0.5i mu ((rho1 K2 + e2 y1) +
    # (e2 y2 + rho2 K2)) from the recurrences, and u3 at the integer nodes
    for cells, mu, e2, K2, y1, y2 in ((slice(0, m), mu_m, em_2, Km2, P, Q),
                                      (slice(m, N), mu_p, ep_2, Kp2, A, B)):
        v, rho2 = V[cells], u3[cells]
        np.multiply(v, K2, out=v)
        v += np.multiply(e2, y1[1:], out=odd)
        second = np.multiply(e2, y2[:-1], out=odd)
        second += np.multiply(rho2, K2, out=rho2)
        v += second
        np.multiply(0.5j * mu, v, out=v)
    V[N] = 0.5j * mu_m * (P[m] + Q[m])
    # the shared node x = 0 keeps the minus-side value, written last (the
    # matching conditions make u2 and u3 continuous there)
    np.multiply(0.5 * V_p, np.subtract(A, B, out=A), out=u3[m: N + 1])
    np.multiply(0.5 * V_m, np.subtract(P, Q, out=P), out=u3[: m + 1])
    del A, B, P, Q
    _homogeneous_part(grid, C_minus, C_plus, mu_m, mu_p, V_m, V_p, em_2,
                      ep_2, u3, V)
    u3[N + 1] = u3[m]   # continuous across the interface by construction

    # u1 per side from the first component equation
    u1 = np.empty(N + 2, dtype=complex)
    for nodes, sV in ((slice(0, m + 1), sVm), (slice(m + 1, N + 2), sVp)):
        np.subtract(np.multiply(nk, u3[nodes], out=tmp), r1[nodes],
                    out=u1[nodes])
        u1[nodes] *= _to_complex_soft(1.0 / sV)
    return GridFunction(grid, u1, V, W=u3)


def _decay_sweep(rho, K, band, backward):
    """Cumulative decaying sums of the cell integrals f = rho K, length
    len(rho) + 1:

    backward: y[j] = f[j] + c y[j+1] for j = n-1, ..., 0 from y[n] = 0;
    forward:  y[j+1] = c y[j] + f[j] for j = 0, ..., n-1 from y[0] = 0.

    Either is a unit-bidiagonal band solve in place, with -c in every
    entry of the (2, n) ``band``: the unit diagonal is never read.
    """
    from scipy.linalg import lapack
    y = np.empty(rho.size + 1, dtype=complex)
    f = np.multiply(rho, K, out=y[:-1] if backward else y[1:])
    y[-1 if backward else 0] = 0.0
    _, info = lapack.ztbtrs(band, f, uplo="U" if backward else "L",
                            diag="U", overwrite_b=True)
    if info:
        raise ValueError(f"ztbtrs: illegal value in argument {-info}")
    return y


def _homogeneous_part(grid, C_minus, C_plus, mu_m, mu_p, V_m, V_p, em_2,
                      ep_2, u3, V):
    """Add the decaying homogeneous modes C_- e^{mu_- x} (x <= 0) and
    C_+ e^{-mu_+ x} (x >= 0) to u3 at the integer nodes (integer-node
    layout, right limit u3[N+1] left to the caller) and to u2 at the half
    nodes (V[N] = u2(0)), in place.

    Only the integer nodes take an exponential.  A half node's value is
    its interface-side neighbour's times the decaying half-cell factor
    em_2 = e^{-mu_- h/2} or ep_2 = e^{-mu_+ h/2}, as e^{mu_- (x_{j+1} -
    h/2)} and e^{-mu_+ (x_j + h/2)}: nothing grows, however thin the layer.
    """
    N, m, x = grid.N, grid.mid, grid.x
    e, t = np.empty((2, m + 1), dtype=complex)  # e: one side's exponentials
    _decaying_exp(mu_m, x[: m + 1], e)
    c = C_minus * (-1j * V_m)
    np.multiply(c, e, out=t)
    t[m] = c                                # the interface node
    u3[: m + 1] += t
    V[:m] += np.multiply(C_minus * mu_m * em_2, e[1:], out=t[:m])
    V[N] += C_minus * mu_m
    _decaying_exp(-mu_p, x[m:], e)
    u3[m + 1: N + 1] += np.multiply(C_plus * (1j * V_p), e[1:], out=t[:m])
    V[m:N] += np.multiply(C_plus * mu_p * ep_2, e[:-1], out=t[:m])


def _decaying_exp(mu, x, out):
    """exp(mu * x) into out at sorted nodes x where Re(mu * x) <= 0 by
    construction (underflow-safe); returns out."""
    z = np.multiply(mu, x, out=out)
    re = np.minimum(z.real, 0.0, out=z.real)
    # Re(mu x) is monotone along sorted nodes: the entries above exp's
    # underflow limit are one run at an end, and only that run is evaluated
    k, n = int(np.count_nonzero(re >= -745.0)), z.size
    live = slice(0, k) if re[0] >= re[-1] else slice(n - k, n)
    np.exp(z[live], out=z[live])
    z[: live.start] = z[live.stop:] = 0.0
    return z


# ----------------------------------------------------------------------
# Convergence study
# ----------------------------------------------------------------------

def _grid_error(coarse, fine):
    """L2 distance between nested grid functions (fine N = m * coarse N)."""
    gc, gf_ = coarse.grid, fine.grid
    ratio = gf_.N // gc.N
    if gf_.N != ratio * gc.N or abs(gc.d - gf_.d) > 1e-12:
        raise ValueError("grids are not nested")
    idx = ratio * np.arange(gc.N + 1)
    dU = coarse.U - fine.U[idx]
    # coarse half nodes fall on fine half nodes (odd ratio) or fine
    # integer nodes (even ratio, u2 = average of adjacent half values)
    if ratio % 2:
        hidx = ratio * np.arange(gc.N) + (ratio - 1) // 2
        v_ref = fine.V[hidx]
    else:
        nidx = ratio * np.arange(gc.N) + ratio // 2
        v_ref = 0.5 * (fine.V[nidx - 1] + fine.V[nidx])
    dV = coarse.V[: gc.N] - v_ref
    h = gc.h
    return math.sqrt(h * float(np.sum(np.abs(dU) ** 2) +
                               np.sum(np.abs(dV) ** 2)))


def fd_convergence_study(ctx, n, nu, rhs, N_list, d=40.0):
    """Error table of the staggered scheme against a fine reference.

    ``rhs`` maps a StaggeredGrid to a SampledRHS.  The reference solution
    is computed at four times the largest requested N.  Returns
    {'table': [(N, err)], 'slope': s}.
    """
    N_list = sorted(int(N) for N in N_list)
    reference = solve_fd(ctx, n, nu, rhs(StaggeredGrid(d, 4 * N_list[-1])))
    table = []
    for N in N_list:
        sol = solve_fd(ctx, n, nu, rhs(StaggeredGrid(d, N)))
        table.append((N, _grid_error(sol, reference)))
    return {"table": table,
            "slope": _loglog_slope([N for N, _ in table], [e for _, e in table])}


def _loglog_slope(xs, ys):
    """Least-squares slope of log y against log x over the points with
    y > 0; nan with fewer than two."""
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if y > 0]
    if len(pts) < 2:
        return float("nan")
    return float(np.polyfit([p[0] for p in pts], [p[1] for p in pts], 1)[0])
