"""Reference computations that share no code with the breather package.

Everything here is derived from the physics and evaluated with plain
numpy or with mpmath, so the benchmark can check the program's outputs
against values it did not compute:

* the TM surface-mode condition eps_- mu_+ + eps_+ mu_- = 0, with
  mu_pm = sqrt(K - omega^2 mu0 eps_pm), K = (n k)^2, and its squared
  (polynomial) form K (eps_- + eps_+) = omega^2 mu0 eps_- eps_+;
* the memory-windowed Lorentz transform as the integral of
  e^{i omega t} c_L e^{-gamma t} sin(c* t)/c* over [0, T];
* the band of spurious zeros that a memory window of length T adds just
  below Im omega = -gamma, found by fixed-point iteration on
  e^{(i omega - gamma) T} = -P0/P1;
* the quadratic and cubic nonlinear transforms by tensor Gauss-Legendre
  quadrature of the windowed oscillator kernel over ordered simplices;
* the residual of the staggered-grid equations on the constant-dielectric
  side, with the stencils written out from the component equations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import mpmath
import numpy as np


@dataclass(frozen=True)
class Interface:
    """Lorentz metal | constant dielectric, read from a config dict."""

    c_L: float
    gamma: float
    omega_star: float
    alpha: float
    k: float
    eps0: float
    mu0: float
    T: float | None

    @classmethod
    def from_config(cls, raw):
        gamma = float(raw["gamma"])
        omega_star = float(raw["omega_star"])
        T = raw.get("T")
        if "j" in raw:
            T = int(raw["j"]) * math.pi / math.sqrt(omega_star**2 - gamma**2)
        return cls(
            c_L=float(raw["c_L"]), gamma=gamma, omega_star=omega_star,
            alpha=float(raw["alpha"]), k=float(raw["k"]),
            eps0=float(raw.get("eps0", 1.0)), mu0=float(raw.get("mu0", 1.0)),
            T=None if T is None else float(T),
        )

    @property
    def c_star(self):
        return math.sqrt(self.omega_star**2 - self.gamma**2)

    @property
    def eps_plus(self):
        return self.eps0 * (1.0 + self.alpha)

    def window(self, j):
        """Memory window T = j pi / c* of the odd index j."""
        return j * math.pi / self.c_star


# ----------------------------------------------------------------------
# Polynomials (coefficient lists, highest degree first)
# ----------------------------------------------------------------------

def _padd(a, b):
    n = max(len(a), len(b))
    a = [0] * (n - len(a)) + list(a)
    b = [0] * (n - len(b)) + list(b)
    return [x + y for x, y in zip(a, b)]


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _scale(c, a):
    return [c * x for x in a]


def _squared_condition(K, D, c, eps_plus, eps0, mu0):
    """K (eps_- + eps_+) - omega^2 mu0 eps_- eps_+, times D/eps0, for
    eps_- = eps0 (1 - c/D) with D a polynomial in omega."""
    D_minus_c = _padd(D, [-c])
    lhs = _padd(_scale(K, D_minus_c), _scale(K * eps_plus / eps0, D))
    rhs = _scale(mu0 * eps_plus, _pmul([1, 0, 0], D_minus_c))
    return _padd(lhs, _scale(-1, rhs))


def lorentz_quartic(itf, n):
    """Untruncated Lorentz dispersion polynomial of harmonic n."""
    D = [1, 2j * itf.gamma, -itf.omega_star**2]
    return _squared_condition((n * itf.k) ** 2, D, itf.c_L, itf.eps_plus,
                              itf.eps0, itf.mu0)


def drude_quartic(c_D, gamma, alpha, k, eps0=1.0, mu0=1.0):
    """Untruncated Drude dispersion polynomial (D = omega^2 + i gamma omega)."""
    D = [1, 1j * gamma, 0]
    return _squared_condition(k * k, D, c_D, eps0 * (1.0 + alpha), eps0, mu0)


def polyroots(coeffs, dps=30):
    """All roots of a polynomial, by mpmath at dps digits, as complex."""
    with mpmath.workdps(dps):
        roots = mpmath.polyroots([mpmath.mpc(c) for c in coeffs],
                                 maxsteps=200, extraprec=2 * dps)
    return [complex(r) for r in roots]


def count_inside(roots, a, y_bottom, y_top):
    """Roots strictly inside the rectangle [-a, a] x [y_bottom, y_top]."""
    return sum(1 for r in roots
               if abs(r.real) < a and y_bottom < r.imag < y_top)


# ----------------------------------------------------------------------
# Truncated surface-mode condition in mpmath
# ----------------------------------------------------------------------

def _chi_truncated_mp(itf, T, w):
    """int_0^T e^{i w t} c_L e^{-gamma t} sin(c* t)/c* dt, closed form of
    the two exponentials of sin."""
    cs = mpmath.mpf(itf.c_star)
    out = mpmath.mpc(0)
    for sign in (1, -1):
        z = 1j * w - itf.gamma + sign * 1j * cs
        out += sign * mpmath.expm1(z * T) / z
    return itf.c_L / cs * out / 2j


def surface_condition(itf, n, T, w):
    """eps_- mu_+ + eps_+ mu_- at omega = w (mpmath, principal roots)."""
    K = (n * itf.k) ** 2
    eps_m = itf.eps0 * (1 + _chi_truncated_mp(itf, T, w))
    eps_p = mpmath.mpf(itf.eps_plus)
    mu_m = mpmath.sqrt(K - w * w * itf.mu0 * eps_m)
    mu_p = mpmath.sqrt(K - w * w * itf.mu0 * eps_p)
    return eps_m * mu_p + eps_p * mu_m


def truncated_root(itf, n, T, guess, dps=30):
    """Zero of the truncated surface condition nearest to guess."""
    with mpmath.workdps(dps):
        root = mpmath.findroot(
            lambda w: surface_condition(itf, n, T, w), mpmath.mpc(guess),
            tol=mpmath.mpf(10) ** (-2 * dps // 3),
        )
    return complex(root)


# ----------------------------------------------------------------------
# Spurious zeros of the windowed model near Im omega = -gamma
# ----------------------------------------------------------------------

def spurious_band_top(itf, n, T, a, iterations=200):
    """Largest Im of the window-induced zeros with |Re| < a.

    The squared condition of the windowed model is P0 + e^{(i w - gamma) T}
    P1 = 0, with P0 the untruncated quartic and P1 = -c_L R (K - w^2 mu0
    eps_+), R = ((i w - gamma)/c*) sin(c* T) - cos(c* T).  Each branch m of
    the logarithm gives one zero near 2 pi m / T - i gamma; iterating
    w = -i gamma - i Log(-P0/P1)/T + 2 pi m/T converges for long windows.
    Returns (top, worst relative residual among the zeros used).
    """
    K = (n * itf.k) ** 2
    P0 = np.array(lorentz_quartic(itf, n), dtype=complex)
    cs = itf.c_star
    s, c = math.sin(cs * T), math.cos(cs * T)

    def P1(w):
        R = (1j * w - itf.gamma) / cs * s - c
        return -itf.c_L * R * (K - w * w * itf.mu0 * itf.eps_plus)

    m_max = int(a * T / (2.0 * math.pi)) + 2
    m = np.arange(-m_max, m_max + 1)
    w = 2.0 * math.pi * m / T - 1j * itf.gamma
    for _ in range(iterations):
        w_next = (-1j * itf.gamma - 1j * np.log(-np.polyval(P0, w) / P1(w)) / T
                  + 2.0 * math.pi * m / T)
        done = np.max(np.abs(w_next - w)) < 1e-15
        w = w_next
        if done:
            break
    p0 = np.polyval(P0, w)
    e1 = np.exp((1j * w - itf.gamma) * T) * P1(w)
    resid = np.abs(p0 + e1) / (np.abs(p0) + np.abs(e1))
    inside = np.abs(w.real) < a
    top = int(np.argmax(np.where(inside, w.imag, -np.inf)))
    return float(w[top].imag), float(resid[top])


# ----------------------------------------------------------------------
# Nonlinear transforms by quadrature of the windowed kernel
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Oscillator:
    """D(t) = e^{-gamma t} sin(c t)/c with c^2 = omega_*^2 - gamma^2."""

    gamma: float
    omega_star: float
    T_N: float

    @classmethod
    def from_config(cls, raw):
        return cls(float(raw["gamma_tilde"]), float(raw["omega_star_tilde"]),
                   float(raw["T_N"]))

    def __call__(self, t):
        c = math.sqrt(self.omega_star**2 - self.gamma**2)
        return np.exp(-self.gamma * t) * np.sin(c * t) / c


def _gauss(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def chi2_quadrature(osc, w1, w2, n=14):
    """int over [0,T]^2 of e^{i(w1 t1 + w2 t2)} int_0^{min t} D(s) D(t1-s)
    D(t2-s) ds, split along the diagonal into two ordered triangles."""
    T = osc.T_N
    x, wx = _gauss(n)
    ta, wa = T * x, T * wx                                  # (n,)
    tb = ta[:, None] + (T - ta)[:, None] * x[None, :]       # (n, n)
    wb = (T - ta)[:, None] * wx[None, :]
    s = ta[:, None] * x[None, :]                            # (n, ns)
    ws = ta[:, None] * wx[None, :]
    base = ws * osc(s) * osc(ta[:, None] - s)               # (n, ns)
    inner = np.einsum("ik,ijk->ij", base, osc(tb[:, :, None] - s[:, None, :]))
    total = 0j
    for fa, fb in ((w1, w2), (w2, w1)):
        phase = np.exp(1j * (fa * ta[:, None] + fb * tb))
        total += np.sum(wa[:, None] * wb * phase * inner)
    return complex(total)


def chi3_quadrature(osc, w1, w2, w3, n=12):
    """Cubic analogue of chi2_quadrature over the six ordered simplices."""
    T = osc.T_N
    x, wx = _gauss(n)
    ta, wa = T * x, T * wx                                          # (n,)
    tb = ta[:, None] + (T - ta)[:, None] * x[None, :]               # (n, n)
    wb = (T - ta)[:, None] * wx[None, :]
    tc = tb[:, :, None] + (T - tb)[:, :, None] * x[None, None, :]   # (n,n,n)
    wc = (T - tb)[:, :, None] * wx[None, None, :]
    s = ta[:, None] * x[None, :]                                    # (n, ns)
    ws = ta[:, None] * wx[None, :]
    base = ws * osc(s) * osc(ta[:, None] - s)
    Db = osc(tb[:, :, None] - s[:, None, :])                        # (n,n,ns)
    Dc = osc(tc[:, :, :, None] - s[:, None, None, :])               # (n,n,n,ns)
    inner = np.einsum("ik,ijk,ijlk->ijl", base, Db, Dc)
    weight = wa[:, None, None] * wb[:, :, None] * wc * inner
    total = 0j
    freqs = (w1, w2, w3)
    for pa, pb, pc in itertools.permutations(range(3)):
        phase = np.exp(1j * (freqs[pa] * ta[:, None, None]
                             + freqs[pb] * tb[:, :, None]
                             + freqs[pc] * tc))
        total += np.sum(weight * phase)
    return complex(total)


# ----------------------------------------------------------------------
# Staggered-grid equations on the constant-dielectric side
# ----------------------------------------------------------------------

def plus_side_residual(itf, omega, n, h, U, V, r1, r2):
    """Relative residual of the staggered equations at the interior nodes
    of x > 0.

    With u3 = -(i u2' + nk u1)/omega eliminated, the component equations
    nk u3 - V u1 = r1 and i u3' - V u2 = r2 become

        u2' - i (V omega/nk + nk) u1 = (i omega/nk) r1      (integer nodes)
        -u2'' + i nk u1' + V omega u2 = -omega r2           (half nodes)

    and for n = 0 the first one is algebraic, V u1 = -r1.  V = V_+ =
    -omega mu0 eps_+ is constant on this side.  U is u1 at the N+1 integer
    nodes, V u2 at the N half nodes (V[N] holds u2(0) and is not used).
    Returns max over the two equations of ||residual|| / ||right side||,
    or None when the right side vanishes on this side.
    """
    N = len(U) - 1
    m = N // 2
    Vp = -omega * itf.mu0 * itf.eps_plus
    nk = n * itf.k
    j1 = np.arange(m + 1, N)            # integer nodes strictly right of 0
    j2 = np.arange(m + 1, N - 1)        # half nodes with both neighbours
    if nk == 0:
        res1 = Vp * U[j1] + r1[j1]
        rhs1 = r1[j1]
        d2 = (V[j2 - 1] - 2.0 * V[j2] + V[j2 + 1]) / h**2
        res2 = -d2 + Vp * omega * V[j2] + omega * r2[j2]
    else:
        c1 = -1j * (Vp * omega / nk + nk)
        rhs1 = (1j * omega / nk) * r1[j1]
        res1 = (V[j1] - V[j1 - 1]) / h + c1 * U[j1] - rhs1
        d2 = (V[j2 - 1] - 2.0 * V[j2] + V[j2 + 1]) / h**2
        res2 = (-d2 + 1j * nk * (U[j2 + 1] - U[j2]) / h
                + Vp * omega * V[j2] + omega * r2[j2])
    rhs2 = -omega * r2[j2]
    worst = None
    for res, rhs in ((res1, rhs1), (res2, rhs2)):
        scale = float(np.linalg.norm(rhs))
        if scale > 0.0:
            rel = float(np.linalg.norm(res)) / scale
            worst = rel if worst is None else max(worst, rel)
    return worst
