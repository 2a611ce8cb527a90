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

with V = V_+- (n, nu).  Minus-side coefficients can carry magnitudes far
outside double range deep in the index cone; rows are assembled through
log-scaled arithmetic and equilibrated, one scale per row or stencil
block, before a banded LU solve (LAPACK ``zgbsv``).

The staggered system is a narrow band once its unknowns are interleaved
as U_0, V_0, U_1, V_1, ..., U_m, V*, V_m, U_{m+1}, V_{m+1}, ..., U_N
(m = N/2, V* = u2(0)), with the first-equation row of node j placed at
U_j, the second-equation row of half node j at V_j and the interface
jump row at V*.  The one-sided interface stencils then reach five
places below and three above the diagonal: (kl, ku) = (5, 3).  For
n = 0 only V is solved for, ordered V_0, ..., V_{m-1}, V*, V_m, ...,
with the continuity row of u2' at V*: (kl, ku) = (2, 2).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from ._scaled import ScaledComplex
from .errors import OverflowGuard, SingularSystem, SpectrumError, ZeroFrequency
from .pencil import spectral_quantities

__all__ = [
    "StaggeredGrid",
    "GridFunction",
    "SampledRHS",
    "ResolventPieces",
    "solve_fd",
    "solve_analytic",
    "reconstruct_u3",
    "interface_u3_right",
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

    @classmethod
    def from_node_count(cls, d, nodes):
        """Grid with the given number of integer nodes (nodes = N + 1)."""
        return cls(d, nodes - 1)

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


@dataclass
class GridFunction:
    """Staggered samples of a field on a grid.

    U holds u1 at integer nodes with the *left*-limit convention at the
    interface node N/2; V holds u2 at the N half nodes plus one extra
    slot V[N] for the interface value u2(0).  Optionally carries the
    right interface limit of u1, the reconstructed u3 (W, again with
    left-limit convention plus its right limit), and the relative
    residual of the solve that produced it.
    """

    grid: StaggeredGrid
    U: np.ndarray
    V: np.ndarray
    u1_right: complex = 0j
    W: np.ndarray = None
    w_right: complex = None
    residual: float = None

    def __post_init__(self):
        N = self.grid.N
        self.U = np.asarray(self.U, dtype=complex)
        self.V = np.asarray(self.V, dtype=complex)
        if self.U.shape != (N + 1,) or self.V.shape != (N + 1,):
            raise ValueError("U and V must both have length N+1")

    def conjugate(self):
        """The grid function of the (-n, nu) entry: componentwise conjugate."""
        return GridFunction(
            grid=self.grid,
            U=np.conj(self.U),
            V=np.conj(self.V),
            u1_right=np.conj(self.u1_right),
            W=None if self.W is None else np.conj(self.W),
            w_right=None if self.w_right is None else np.conj(self.w_right),
            residual=self.residual,
        )

    # -- pointwise evaluation (side-aware linear interpolation) ---------
    def eval_u1(self, x):
        g = self.grid
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape, dtype=complex)
        neg = x < 0
        m = g.mid
        out[neg] = np.interp(x[neg], g.x[: m + 1], self.U[: m + 1])
        xp = np.concatenate(([0.0], g.x[m + 1:]))
        fp = np.concatenate(([self.u1_right], self.U[m + 1:]))
        out[~neg] = np.interp(x[~neg], xp, fp)
        return out

    def eval_u2(self, x):
        g = self.grid
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape, dtype=complex)
        neg = x < 0
        m = g.mid
        xm = np.concatenate(([-g.d], g.x_half[:m], [0.0]))
        fm = np.concatenate(([0.0], self.V[:m], [self.V[g.N]]))
        out[neg] = np.interp(x[neg], xm, fm)
        xp = np.concatenate(([0.0], g.x_half[m:], [g.d]))
        fp = np.concatenate(([self.V[g.N]], self.V[m: g.N], [0.0]))
        out[~neg] = np.interp(x[~neg], xp, fp)
        return out

    def eval_u3(self, x):
        if self.W is None:
            raise ValueError("u3 samples not attached; run reconstruct_u3")
        g = self.grid
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape, dtype=complex)
        neg = x < 0
        m = g.mid
        out[neg] = np.interp(x[neg], g.x[: m + 1], self.W[: m + 1])
        w_right = self.W[m] if self.w_right is None else self.w_right
        xp = np.concatenate(([0.0], g.x[m + 1:]))
        fp = np.concatenate(([w_right], self.W[m + 1:]))
        out[~neg] = np.interp(x[~neg], xp, fp)
        return out


@dataclass
class SampledRHS:
    """Right-hand side samples on a staggered grid.

    r1 lives on integer nodes (left-limit convention at N/2, with the
    right limit stored separately), r2 on half nodes, and the optional
    r3 on half nodes (only the analytic solver accepts a nonzero r3).
    """

    grid: StaggeredGrid
    r1: np.ndarray
    r2: np.ndarray
    r1_right: complex = 0j
    r3: np.ndarray = None

    def __post_init__(self):
        N = self.grid.N
        self.r1 = np.asarray(self.r1, dtype=complex)
        self.r2 = np.asarray(self.r2, dtype=complex)
        if self.r1.shape != (N + 1,):
            raise ValueError("r1 must have length N+1 (integer nodes)")
        if self.r2.shape != (N,):
            raise ValueError("r2 must have length N (half nodes)")
        if self.r3 is not None:
            self.r3 = np.asarray(self.r3, dtype=complex)
            if self.r3.shape != (N,):
                raise ValueError("r3 must have length N (half nodes)")

    @classmethod
    def zero(cls, grid):
        return cls(grid, np.zeros(grid.N + 1), np.zeros(grid.N))

    @classmethod
    def from_sides(cls, grid, minus, plus):
        """Sample per-side callables (f1, f2[, f3]) on the grid.

        Each callable maps an array of positions to complex values; the
        minus tuple is evaluated for x <= 0 (its value at 0 is the left
        limit) and the plus tuple for x >= 0.
        """
        m = grid.mid
        x, xh = grid.x, grid.x_half
        r1 = np.empty(grid.N + 1, dtype=complex)
        r1[: m + 1] = minus[0](x[: m + 1])
        r1[m + 1:] = plus[0](x[m + 1:])
        r1_right = complex(np.asarray(plus[0](np.array([0.0])))[0])
        r2 = np.empty(grid.N, dtype=complex)
        r2[:m] = minus[1](xh[:m])
        r2[m:] = plus[1](xh[m:])
        r3 = None
        if len(minus) > 2 and minus[2] is not None:
            r3 = np.empty(grid.N, dtype=complex)
            r3[:m] = minus[2](xh[:m])
            r3[m:] = plus[2](xh[m:])
        return cls(grid, r1, r2, r1_right=r1_right, r3=r3)

    def r1_at_half(self):
        """Side-aware average of r1 onto the half nodes."""
        m = self.grid.mid
        out = 0.5 * (self.r1[:-1] + self.r1[1:])
        # the first plus-side cell must use the right interface limit
        out[m] = 0.5 * (self.r1_right + self.r1[m + 1])
        return out


@dataclass
class ResolventPieces:
    """Constituents of the variation-of-constants solution."""

    C_plus: complex
    C_minus: complex
    rho1_plus: np.ndarray
    rho2_plus: np.ndarray
    rho1_minus: np.ndarray
    rho2_minus: np.ndarray


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


class _BandAssembler:
    """Collects equilibrated rows straight into LAPACK band storage.

    Each row, or block of rows sharing a stencil, is scaled by the
    magnitude of its largest coefficient before conversion to doubles.
    Callers index rows and unknowns in their natural order; ``prow`` and
    ``pcol`` give their places in the banded order, where entry (i, j)
    of the matrix sits at op[ku + i - j, j].
    """

    def __init__(self, prow, pcol, kl, ku):
        self.prow, self.pcol = prow, pcol
        self.kl, self.ku = kl, ku
        self.op = np.zeros((kl + ku + 1, len(pcol)), dtype=complex)
        self.b = np.zeros(len(prow), dtype=complex)

    def _put(self, ridx, cols, v):
        i, j = self.prow[ridx], self.pcol[cols]
        off = i - j
        if off.size and (off.max() > self.kl or off.min() < -self.ku):
            raise ValueError("coefficient outside the band")
        self.op[self.ku + off, j] += v

    def add_row(self, ridx, terms, rhs):
        """terms: list of (col, coeff) with coeff complex or ScaledComplex."""
        L = max(_logabs(t) for _, t in terms)
        if math.isinf(L):
            raise SingularSystem(f"empty row {ridx}")
        for c, t in terms:
            self._put(ridx, c, _descale(t, L))
        self.b[self.prow[ridx]] = _descale(rhs, L)

    def add_block(self, ridx, cols_vals, rhs):
        """Vectorized rows sharing a stencil: cols_vals is a list of
        (col_array, coeff) pairs, rhs an array; coefficients may be
        ScaledComplex.  All rows in the block get a common scale."""
        L = max(_logabs(t) for _, t in cols_vals)
        for cols, t in cols_vals:
            self._put(ridx, cols, _descale(t, L))
        self.b[self.prow[ridx]] = np.asarray(rhs) * math.exp(min(-L, 700.0))

    def matvec(self, z):
        """The banded operator applied to z (banded order)."""
        n = z.size
        out = np.zeros(n, dtype=complex)
        for k in range(-self.kl, self.ku + 1):     # k = column - row
            diag = self.op[self.ku - k]
            if k >= 0:
                out[: n - k] += diag[k:] * z[k:]
            else:
                out[-k:] += diag[: n + k] * z[: n + k]
        return out

    def solve(self):
        """Banded LU solve; the solution in the natural unknown order and
        the relative residual of the equilibrated system."""
        z = spsolve(self.op, self.b, self.kl, self.ku)
        if not np.all(np.isfinite(z.view(float))):
            raise SingularSystem("direct solve produced non-finite entries")
        bnorm = float(np.linalg.norm(self.b))
        res = float(np.linalg.norm(self.matvec(z) - self.b)) / max(bnorm, 1e-300)
        if bnorm > 0 and res > 1e-8:
            raise SingularSystem(
                f"equilibrated residual {res:.2e} indicates spectral proximity"
            )
        return z[self.pcol], res


def spsolve(op, b, kl, ku):
    """Direct solve of the banded system A z = b (LAPACK ``zgbsv``).

    A has kl sub- and ku superdiagonals and is given in band storage,
    entry (i, j) at op[ku + i - j, j]; neither op nor b is modified.
    """
    # zgbsv wants kl extra rows on top for the fill-in of the LU factors
    ab = np.zeros((2 * kl + ku + 1, b.size), dtype=complex, order="F")
    ab[kl:] = op
    _, _, z, info = lapack.zgbsv(kl, ku, ab, b, overwrite_ab=True)
    if info < 0:
        raise ValueError(f"zgbsv: illegal value in argument {-info}")
    if info > 0:
        raise SingularSystem(
            f"banded LU: exact zero pivot U({info - 1},{info - 1}) of {b.size}"
        )
    return z


# ----------------------------------------------------------------------
# Finite-difference solver
# ----------------------------------------------------------------------

def solve_fd(ctx, n, nu, r, grid=None):
    """Staggered-grid banded LU solve of the interface system.

    ``r`` is a SampledRHS with r3 = 0.  Returns a GridFunction with the
    2N+2 unknowns (U at integer nodes, V at half nodes plus V[N] =
    u2(0)) and the right interface limit of u1.
    """
    if grid is None:
        grid = r.grid
    if r.r3 is not None and np.any(r.r3 != 0):
        raise ValueError("the staggered scheme requires r3 = 0")
    N, h, m = grid.N, grid.h, grid.mid
    omega = ctx.omega(n, nu)
    sq = spectral_quantities(ctx, n, nu)
    sV = {"minus": sq.V_minus, "plus": sq.V_plus}
    nk = n * ctx.k

    if nk == 0:
        return _solve_fd_n0(ctx, nu, r, grid, omega, sV)

    # coefficients of the effective first-order/second-order system
    c1 = {s: (sV[s] * (omega / nk) + nk) * (-1j) for s in sV}   # on u1
    c2 = {s: sV[s] * omega for s in sV}                          # on u2
    f1 = (1j * omega / nk) * r.r1            # rhs of the u2'/u1 relation
    f1_right = (1j * omega / nk) * r.r1_right
    f2 = -omega * r.r2                       # rhs of the second-order eq

    colU = np.arange(N + 1)
    colV = N + 1 + np.arange(N + 1)
    # banded order: U_0, V_0, ..., U_m, V*, V_m, U_{m+1}, V_{m+1}, ..., U_N
    j = np.arange(N + 1)
    pcol = np.concatenate((np.where(j <= m, 2 * j, 2 * j + 1),
                           np.where(j[:N] < m, 2 * j[:N] + 1, 2 * j[:N] + 2),
                           [2 * m + 1]))
    # eq-1 row j at U_j, jump row N+1 at V*, eq-2 row N+2+j at V_j
    prow = np.concatenate((pcol[: N + 1], [2 * m + 1], pcol[N + 1: 2 * N + 1]))
    asm = _BandAssembler(prow, pcol, kl=5, ku=3)

    # -- first equation at integer nodes (rows 0..N, row N+1 = 0+ limit)
    inv_h = 1.0 / h
    for s, sl in (("minus", np.arange(1, m)), ("plus", np.arange(m + 1, N))):
        asm.add_block(
            sl,
            [(colV[sl], inv_h), (colV[sl - 1], -inv_h), (colU[sl], c1[s])],
            f1[sl],
        )
    asm.add_row(0, [(colV[0], 2.0 * inv_h), (colU[0], c1["minus"])], f1[0])
    asm.add_row(N, [(colV[N - 1], -2.0 * inv_h), (colU[N], c1["plus"])], f1[N])
    # left limit at the interface node: one-sided 3-point derivative
    asm.add_row(
        m,
        [
            (colV[N], 8.0 / (3.0 * h)),
            (colV[m - 1], -3.0 * inv_h),
            (colV[m - 2], 1.0 / (3.0 * h)),
            (colU[m], c1["minus"]),
        ],
        f1[m],
    )
    # right limit: u1(0+) is eliminated through the jump of i nk u1 - u2'
    kap = 1j / (3.0 * h * nk)
    c1p = c1["plus"]
    asm.add_row(
        N + 1,
        [
            (colU[m], c1p),
            (colV[m - 2], c1p * kap),
            (colV[m - 1], c1p * (-9.0 * kap)),
            (colV[N], c1p * (16.0 * kap) + (-8.0 / (3.0 * h))),
            (colV[m], c1p * (-9.0 * kap) + 3.0 * inv_h),
            (colV[m + 1], c1p * kap + (-1.0 / (3.0 * h))),
        ],
        f1_right,
    )

    # -- second equation at half nodes (rows N+2 .. 2N+1)
    row2 = N + 2 + np.arange(N)
    ih2 = 1.0 / h**2
    dk = 1j * nk * inv_h
    for s, sl in (("minus", np.arange(1, m - 1)), ("plus", np.arange(m + 1, N - 1))):
        asm.add_block(
            row2[sl],
            [
                (colV[sl], 2.0 * ih2 + 0j),
                (colV[sl - 1], -ih2),
                (colV[sl + 1], -ih2),
                (colU[sl + 1], dk),
                (colU[sl], -dk),
                (colV[sl], c2[s]),
            ],
            f2[sl],
        )
    asm.add_row(
        row2[0],
        [(colV[0], 3.0 * ih2 + 0j), (colV[1], -ih2),
         (colU[1], dk), (colU[0], -dk), (colV[0], c2["minus"])],
        f2[0],
    )
    asm.add_row(
        row2[N - 1],
        [(colV[N - 1], 3.0 * ih2 + 0j), (colV[N - 2], -ih2),
         (colU[N], dk), (colU[N - 1], -dk), (colV[N - 1], c2["plus"])],
        f2[N - 1],
    )
    # half nodes adjacent to the interface: one-sided second derivatives
    asm.add_row(
        row2[m - 1],
        [
            (colV[N], -8.0 / (3.0 * h**2)),
            (colV[m - 1], 4.0 * ih2 + 0j),
            (colV[m - 2], -4.0 / (3.0 * h**2)),
            (colU[m], dk),
            (colU[m - 1], -dk),
            (colV[m - 1], c2["minus"]),
        ],
        f2[m - 1],
    )
    # right-adjacent: u1' uses the eliminated right limit u1(0+)
    asm.add_row(
        row2[m],
        [
            (colV[N], -8.0 / (3.0 * h**2) - dk * 16.0 * kap),
            (colV[m], 4.0 * ih2 + 9.0 * dk * kap),
            (colV[m + 1], -4.0 / (3.0 * h**2) - dk * kap),
            (colU[m + 1], dk),
            (colU[m], -dk),
            (colV[m - 2], -dk * kap),
            (colV[m - 1], 9.0 * dk * kap),
            (colV[m], c2["plus"]),
        ],
        f2[m],
    )

    z, res = asm.solve()
    U = z[: N + 1]
    V = z[N + 1:]
    u1_right = U[m] + kap * (
        V[m - 2] - 9.0 * V[m - 1] + 16.0 * V[N] - 9.0 * V[m] + V[m + 1]
    )
    return GridFunction(grid, U, V, u1_right=u1_right, residual=res)


def _solve_fd_n0(ctx, nu, r, grid, omega, sV):
    """n = 0: u1 is algebraic and the u2 equation is scalar and C^1."""
    N, h, m = grid.N, grid.h, grid.mid
    inv_Vm = _to_complex_soft(1.0 / sV["minus"])
    inv_Vp = _to_complex_soft(1.0 / sV["plus"])
    U = np.empty(N + 1, dtype=complex)
    U[: m + 1] = -r.r1[: m + 1] * inv_Vm
    U[m + 1:] = -r.r1[m + 1:] * inv_Vp
    u1_right = -r.r1_right * inv_Vp

    c2 = {s: sV[s] * omega for s in sV}
    f2 = -omega * r.r2
    ih2 = 1.0 / h**2
    colV = np.arange(N + 1)
    # banded order V_0, ..., V_{m-1}, V*, V_m, ...; the continuity row at V*
    pcol = np.concatenate((np.where(colV[:N] < m, colV[:N], colV[:N] + 1), [m]))
    asm = _BandAssembler(pcol, pcol, kl=2, ku=2)
    for s, sl in (("minus", np.arange(1, m - 1)), ("plus", np.arange(m + 1, N - 1))):
        asm.add_block(
            sl,
            [(colV[sl], 2.0 * ih2 + 0j), (colV[sl - 1], -ih2),
             (colV[sl + 1], -ih2), (colV[sl], c2[s])],
            f2[sl],
        )
    asm.add_row(0, [(colV[0], 3.0 * ih2 + 0j), (colV[1], -ih2),
                    (colV[0], c2["minus"])], f2[0])
    asm.add_row(N - 1, [(colV[N - 1], 3.0 * ih2 + 0j), (colV[N - 2], -ih2),
                        (colV[N - 1], c2["plus"])], f2[N - 1])
    asm.add_row(
        m - 1,
        [(colV[N], -8.0 / (3.0 * h**2)), (colV[m - 1], 4.0 * ih2 + 0j),
         (colV[m - 2], -4.0 / (3.0 * h**2)), (colV[m - 1], c2["minus"])],
        f2[m - 1],
    )
    asm.add_row(
        m,
        [(colV[N], -8.0 / (3.0 * h**2)), (colV[m], 4.0 * ih2 + 0j),
         (colV[m + 1], -4.0 / (3.0 * h**2)), (colV[m], c2["plus"])],
        f2[m],
    )
    # continuity of u2' across the interface closes the system
    asm.add_row(
        N,
        [(colV[N], -16.0 + 0j), (colV[m], 9.0 + 0j), (colV[m + 1], -1.0 + 0j),
         (colV[m - 1], 9.0 + 0j), (colV[m - 2], -1.0 + 0j)],
        0j,
    )
    V, res = asm.solve()
    return GridFunction(grid, U, V, u1_right=u1_right, residual=res)


# ----------------------------------------------------------------------
# u3 reconstruction
# ----------------------------------------------------------------------

def _u2_prime_at_nodes(V, grid):
    """u2' at integer nodes (left-limit convention at the interface)."""
    N, h, m = grid.N, grid.h, grid.mid
    du = np.empty(N + 1, dtype=complex)
    du[1:N] = (V[1:N] - V[0: N - 1]) / h
    du[0] = 2.0 * V[0] / h
    du[N] = -2.0 * V[N - 1] / h
    du[m] = (8.0 * V[N] - 9.0 * V[m - 1] + V[m - 2]) / (3.0 * h)
    return du


def _u2_prime_right(V, grid):
    N, h, m = grid.N, grid.h, grid.mid
    return (-8.0 * V[N] + 9.0 * V[m] - V[m + 1]) / (3.0 * h)


def reconstruct_u3(ctx, n, nu, U, V, grid):
    """u3 = (u2' - i nk u1)/(i omega) at integer nodes.

    Uses the same one-sided stencils near the interface as the solver;
    the returned array follows the left-limit convention at node N/2.
    """
    omega = ctx.omega(n, nu)
    if omega == 0:
        raise ZeroFrequency("u3 reconstruction needs omega != 0")
    du = _u2_prime_at_nodes(np.asarray(V, dtype=complex), grid)
    return (du - 1j * n * ctx.k * np.asarray(U, dtype=complex)) / (1j * omega)


def interface_u3_right(ctx, n, nu, gf):
    """Right interface limit of the reconstructed u3."""
    omega = ctx.omega(n, nu)
    if omega == 0:
        raise ZeroFrequency("u3 reconstruction needs omega != 0")
    du = _u2_prime_right(gf.V, gf.grid)
    return (du - 1j * n * ctx.k * gf.u1_right) / (1j * omega)


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
    solve.  u1 follows algebraically per side.

    Returns (GridFunction, ResolventPieces).
    """
    grid = r.grid
    N, h, m = grid.N, grid.h, grid.mid
    omega = ctx.omega(n, nu)
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

    # source densities at the half nodes, per side
    r1h = r.r1_at_half()
    r3h = r.r3 if r.r3 is not None else np.zeros(N, dtype=complex)
    rho = {}
    for side, sV, sM, sl in (
        ("minus", sVm, sMm, slice(0, m)),
        ("plus", sVp, sMp, slice(m, N)),
    ):
        aV = _to_complex_soft(1.0 / sV)
        aVmu = nk * _to_complex_soft(1.0 / (sV * sM))
        amu = _to_complex_soft(1.0 / sM)
        base = 1j * r.r2[sl] * aV
        odd = r1h[sl] * aVmu + r3h[sl] * amu
        rho[side] = (base + odd, base - odd)

    rho1_p, rho2_p = rho["plus"]
    rho1_m, rho2_m = rho["minus"]

    # cumulative exponentially weighted integrals at integer nodes
    ep_h, Kp = _exp_cell(sMp, h)
    em_h, Km = _exp_cell(sMm, h)
    ep_2, Kp2 = _exp_cell(sMp, 0.5 * h)
    em_2, Km2 = _exp_cell(sMm, 0.5 * h)

    # plus side, local integer index 0..N-m
    A = _decay_sweep(rho1_p * Kp, ep_h, backward=True)    # int_x^d rho1 e^{-mu(s-x)}
    B = _decay_sweep(rho2_p * Kp, ep_h, backward=False)   # int_0^x rho2 e^{-mu(x-s)}
    # minus side, integer index 0..m
    P = _decay_sweep(rho1_m * Km, em_h, backward=True)    # int_x^0 rho1 e^{-mu(s-x)}
    Q = _decay_sweep(rho2_m * Km, em_h, backward=False)   # int_{-d}^x rho2 e^{-mu(x-s)}

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

    # particular and homogeneous parts of u3 at the integer nodes
    x = grid.x
    u3p = np.empty(N + 1, dtype=complex)
    u3h = np.empty(N + 1, dtype=complex)
    u3p[: m + 1] = 0.5 * V_m * (P - Q)
    u3p[m:] = 0.5 * V_p * (A - B)
    u3h[: m + 1] = C_minus * (-1j * V_m) * _decaying_exp(mu_m, x[: m + 1])
    u3h[m:] = C_plus * (1j * V_p) * _decaying_exp(-mu_p, x[m:])
    # the shared node x = 0 keeps the minus-side values (the matching
    # conditions make u2 and u3 continuous there)
    u3p[m] = 0.5 * V_m * (P[m] - Q[m])
    u3h[m] = C_minus * (-1j * V_m)

    # u2 at the half nodes: half-cell extensions of the recurrences
    xh = grid.x_half
    Vh_p = np.empty(N + 1, dtype=complex)
    Vh_h = np.empty(N + 1, dtype=complex)
    Ah = rho1_p[:] * Kp2 + ep_2 * A[1:]
    Bh = ep_2 * B[:-1] + rho2_p[:] * Kp2
    Ph = rho1_m[:] * Km2 + em_2 * P[1:]
    Qh = em_2 * Q[:-1] + rho2_m[:] * Km2
    Vh_p[:m] = 0.5j * mu_m * (Ph + Qh)
    Vh_p[m:N] = 0.5j * mu_p * (Ah + Bh)
    Vh_p[N] = 0.5j * mu_m * (P[m] + Q[m])
    Vh_h[:m] = C_minus * mu_m * _decaying_exp(mu_m, xh[:m])
    Vh_h[m:N] = C_plus * mu_p * _decaying_exp(-mu_p, xh[m:])
    Vh_h[N] = C_minus * mu_m

    u3 = u3p + u3h
    Vfull = Vh_p + Vh_h
    u3_right = u3[m]   # continuous across the interface by construction

    # u1 per side from the first component equation
    inv_Vm = _to_complex_soft(1.0 / sVm)
    inv_Vp = _to_complex_soft(1.0 / sVp)
    U = np.empty(N + 1, dtype=complex)
    U[: m + 1] = (nk * u3[: m + 1] - r.r1[: m + 1]) * inv_Vm
    U[m + 1:] = (nk * u3[m + 1:] - r.r1[m + 1:]) * inv_Vp
    u1_right = (nk * u3_right - r.r1_right) * inv_Vp

    gf = GridFunction(grid, U, Vfull, u1_right=u1_right,
                      W=u3, w_right=u3_right)
    pieces = ResolventPieces(
        C_plus=C_plus, C_minus=C_minus,
        rho1_plus=rho1_p, rho2_plus=rho2_p,
        rho1_minus=rho1_m, rho2_minus=rho2_m,
    )
    return gf, pieces


def _decay_sweep(f, c, backward):
    """Cumulative decaying sums of the cell integrals f, length len(f) + 1.

    backward: y[j] = f[j] + c y[j+1] for j = n-1, ..., 0 from y[n] = 0;
    forward:  y[j+1] = c y[j] + f[j] for j = 0, ..., n-1 from y[0] = 0.
    Either recurrence is a unit-bidiagonal triangular band solve.
    """
    n = f.size
    y = np.zeros(n + 1, dtype=complex)
    ab = np.empty((2, n), dtype=complex)
    if backward:
        ab[0], ab[1] = -c, 1.0     # superdiagonal (ab[0, 0] unused), diagonal
        y[:n], info = lapack.ztbtrs(ab, f, uplo="U", diag="U")
    else:
        ab[0], ab[1] = 1.0, -c     # diagonal, subdiagonal (ab[1, -1] unused)
        y[1:], info = lapack.ztbtrs(ab, f, uplo="L", diag="U")
    if info:
        raise ValueError(f"ztbtrs: illegal value in argument {-info}")
    return y


def _decaying_exp(mu, x):
    """exp(mu * x) where Re(mu * x) <= 0 by construction (underflow-safe)."""
    z = mu * np.asarray(x, dtype=float)
    re = np.minimum(z.real, 0.0)
    out = np.exp(re + 1j * z.imag)
    out[re < -745.0] = 0.0
    return out


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


def fd_convergence_study(ctx, n, nu, rhs, N_list, reference=None,
                         d=40.0, reference_factor=4):
    """Error table of the staggered scheme against a fine reference.

    ``rhs`` maps a StaggeredGrid to a SampledRHS.  If no reference
    solution is passed, one is computed at reference_factor times the
    largest requested N.  Returns {'table': [(N, err)], 'slope': s}.
    """
    N_list = sorted(int(N) for N in N_list)
    if reference is None:
        gref = StaggeredGrid(d, reference_factor * N_list[-1])
        reference = solve_fd(ctx, n, nu, rhs(gref), gref)
    table = []
    for N in N_list:
        g = StaggeredGrid(reference.grid.d, N)
        if g.N == reference.grid.N:
            table.append((N, 0.0))
            continue
        sol = solve_fd(ctx, n, nu, rhs(g), g)
        table.append((N, _grid_error(sol, reference)))
    pts = [(math.log(N), math.log(e)) for N, e in table if e > 0]
    slope = float("nan")
    if len(pts) >= 2:
        slope = float(np.polyfit([p[0] for p in pts],
                                 [p[1] for p in pts], 1)[0])
    return {"table": table, "slope": slope}
