"""Quadrature oracles for the closed-form kernel transforms.

Every truncated transform in the package is exponential-sum algebra; here
each one is checked against direct Gauss-Legendre integration of its
time-domain kernel, which shares no code with the implementation.  The
window divided differences underneath are checked against 50-digit
mpmath references.
"""

from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breather import _expalg
from breather._expalg import g_window, simplex_transform, triangle_transform
from breather.errors import ConfigError, DomainError
from breather.susceptibility import (
    Constant,
    MaterialInterface,
    NonlinearSusceptibility,
    TruncatedDrude,
    TruncatedLorentz,
    UntruncatedDrude,
    UntruncatedLorentz,
    _cache_key,
    ft_chi2_truncated,
    ft_chi3_truncated,
)

RNG = np.random.default_rng(20260823)


def gauss(a, b, n=60):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def lorentz_kernel(c_L, gamma, omega_star):
    cs = math.sqrt(omega_star**2 - gamma**2)
    return lambda t: c_L * np.exp(-gamma * t) * np.sin(cs * t) / cs


def drude_kernel(c_D, gamma):
    return lambda t: (c_D / gamma) * (1.0 - np.exp(-gamma * t))


def quad_chi1(kernel, T, omega, n=120):
    t, w = gauss(0.0, T, n)
    return complex(np.sum(w * np.exp(1j * omega * t) * kernel(t)))


# ----------------------------------------------------------------------
# Linear models
# ----------------------------------------------------------------------

class TestLinearTransforms:
    def test_truncated_lorentz_vs_quadrature_sweep(self):
        model = TruncatedLorentz(c_L=20.0, gamma=0.5, omega_star=2.0, T=8.0)
        kern = lorentz_kernel(20.0, 0.5, 2.0)
        for _ in range(100):
            w = complex(RNG.uniform(-6, 6), RNG.uniform(-1.2, 1.2))
            exact = model.ft(w)
            ref = quad_chi1(kern, 8.0, w, n=200)
            assert abs(exact - ref) < 1e-10 * max(1.0, abs(ref))

    def test_truncated_drude_vs_quadrature_sweep(self):
        model = TruncatedDrude(c_D=4.0, gamma=0.5, T=6.0)
        kern = drude_kernel(4.0, 0.5)
        for _ in range(100):
            w = complex(RNG.uniform(-6, 6), RNG.uniform(-1.2, 1.2))
            exact = model.ft(w)
            ref = quad_chi1(kern, 6.0, w, n=200)
            assert abs(exact - ref) < 1e-10 * max(1.0, abs(ref))

    def test_truncation_converges_to_untruncated(self):
        w = 1.3 + 0.4j
        un = UntruncatedLorentz(c_L=20.0, gamma=0.5, omega_star=2.0)
        for T in (20.0, 40.0):
            tr = TruncatedLorentz(c_L=20.0, gamma=0.5, omega_star=2.0, T=T)
            gap = abs(tr.ft(w) - un.ft(w))
            # Remainder is an integral of e^{(Im w - gamma) t} past T.
            assert gap < 10.0 * math.exp(-(0.5 - 0.4) * T)

    def test_untruncated_domain_guard(self):
        un = UntruncatedLorentz(c_L=20.0, gamma=0.5, omega_star=2.0)
        with pytest.raises(DomainError):
            un.ft(1.0 - 0.6j)
        with pytest.raises(DomainError):
            UntruncatedDrude(c_D=4.0, gamma=0.5).ft(1.0 - 0.1j)

    def test_constant_and_validation(self):
        assert Constant(alpha=2.0).ft(5.0 + 3.0j) == 2.0
        with pytest.raises(ConfigError):
            TruncatedLorentz(c_L=20.0, gamma=2.5, omega_star=2.0, T=1.0)
        with pytest.raises(ConfigError):
            Constant(alpha=-1.0)

    def test_scaled_transform_matches_plain(self):
        model = TruncatedLorentz(c_L=20.0, gamma=0.5, omega_star=2.0, T=8.0)
        for w in (0.5 - 0.9j, -2.0 + 0.3j, 4.0 - 0.2j):
            s = model.ft_scaled(w).to_complex(strict=True)
            assert abs(s - model.ft(w)) < 1e-12 * abs(s)

    @given(
        st.floats(-8, 8, allow_nan=False),
        st.floats(-1.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_real_kernel_conjugation_symmetry(self, re, im):
        model = TruncatedLorentz(c_L=20.0, gamma=0.5, omega_star=2.0, T=5.0)
        w = complex(re, im)
        lhs = model.ft(-w.conjugate())
        rhs = model.ft(w).conjugate()
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


# ----------------------------------------------------------------------
# Window divided differences (_expalg) against 50-digit references
# ----------------------------------------------------------------------

def mp_divided_difference(nodes, T):
    """g[x_1, ..., x_m] of g(z) = (e^{zT} - 1)/z at 50 digits.

    Distinct nodes use the Lagrange form sum_i g(x_i) / prod_{j != i}
    (x_i - x_j), whose cancellation the working precision absorbs; m > 1
    equal nodes use g^{(m-1)}(x)/(m-1)!, the moment
    integral_0^T t^{m-1} e^{xt} dt / (m-1)!.
    """
    with mpmath.workdps(50):
        x = [mpmath.mpc(complex(v)) for v in nodes]
        T = mpmath.mpf(T)
        m = len(x)
        if m > 1 and all(v == x[0] for v in x):
            moment = mpmath.quad(lambda t: t ** (m - 1) * mpmath.exp(x[0] * t),
                                 mpmath.linspace(0, T, 9))
            return complex(moment / mpmath.factorial(m - 1))

        def g(z):
            return T if z == 0 else mpmath.expm1(z * T) / z

        return complex(mpmath.fsum(
            g(xi) / mpmath.fprod(xi - xj for j, xj in enumerate(x) if j != i)
            for i, xi in enumerate(x)
        ))


class TestWindowDividedDifferences:
    """g_window, triangle_transform and simplex_transform against
    mp_divided_difference: |zT| up to 50 with both signs of Re z, nodes from
    1e-6 apart (relative) to well separated, exactly confluent nodes and a
    zero node."""

    T = 0.7
    SEPARATIONS = (1e-6, 1e-4, 1.2e-3, 1e-2, 1.0)
    # |zT| of the cluster centre; 0.49 and 31.9 scale to just below the
    # Taylor radius 1/2, where the truncation error is largest.
    RADII = (0.3, 0.49, 4.0, 31.9, 50.0)

    def _cases(self):
        rng = np.random.default_rng(20261018)
        for sep in self.SEPARATIONS:
            for radius in self.RADII:
                for sign in (1.0, -1.0):
                    phase = rng.uniform(-0.45, 0.45) * math.pi
                    centre = sign * radius / self.T * complex(
                        math.cos(phase), math.sin(phase))
                    yield [centre * (1.0 + sep * complex(*rng.normal(size=2)))
                           for _ in range(3)]

    def check(self, value, nodes):
        ref = mp_divided_difference(nodes, self.T)
        assert abs(complex(value) - ref) <= 1e-12 * abs(ref), (nodes, value)

    def test_window_integral(self):
        T = self.T
        assert g_window(0.0, T) == T
        for x1, _, _ in self._cases():
            self.check(g_window(x1, T), [x1])

    def test_triangle(self):
        T = self.T
        for x1, x2, _ in self._cases():
            a, b = x2 - x1, x1
            self.check(triangle_transform(a, b, T), [b, a + b])
        self.check(triangle_transform(2.0 - 1.0j, 0.0, T), [0.0, 2.0 - 1.0j])

    def test_simplex(self):
        T = self.T
        for x1, x2, x3 in self._cases():
            a, b, c = x3 - x2, x2 - x1, x1
            self.check(simplex_transform(a, b, c, T), [c, b + c, a + b + c])
        for x in (0.0, 1.5 - 0.5j, -40.0 + 30.0j, 60.0 - 20.0j):
            self.check(simplex_transform(0.0, 0.0, x, T), [x, x, x])
        self.check(simplex_transform(1.0, -2.0j, 0.0, T),
                   [0.0, -2.0j, 1.0 - 2.0j])


def reference_exp_divided_difference(w):
    """The kernel as it stood before its rows were updated in place: every
    Horner step and squaring round builds new diagonals, and every round
    forms the whole triangle.  The in-place kernel must match it bit for
    bit."""
    w = np.asarray(w, dtype=complex)
    s = np.maximum(np.frexp(2.0 * np.abs(w).max(axis=0))[1], 0)
    c = np.ldexp(1.0, -s)
    v = np.concatenate([np.zeros_like(w[:1]), w * c])
    n = len(v)
    x = [np.ones_like(v)] + [np.zeros_like(v[d:]) for d in range(1, n)]
    for k in range(_expalg._TAYLOR_DEGREE, 0, -1):
        vk, ck = v / k, c / k
        x = [1.0 + vk * x[0]] + [vk[:n - d] * x[d] + ck * x[d - 1][1:]
                                 for d in range(1, n)]
    for r in range(1, s.max(initial=0) + 1):
        sq = [sum(x[e][:n - d] * x[d - e][e:e + n - d] for e in range(d + 1))
              for d in range(n)]
        x = [np.where(r <= s, new, old) for new, old in zip(sq, x)]
    return x[-1][0]


class TestKernelAgainstReference:
    """_exp_divided_difference gives the bytes of
    reference_exp_divided_difference on every input."""

    @staticmethod
    def scales(w):
        return np.maximum(np.frexp(2.0 * np.abs(w).max(axis=0))[1], 0)

    def check(self, w):
        got = _expalg._exp_divided_difference(w)
        want = reference_exp_divided_difference(w)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def nodes(rng, shape, radius):
        """Nodes of modulus up to radius, with both signs of Re and Im."""
        return radius * rng.uniform(0.2, 1.0, shape) * np.exp(
            2j * math.pi * rng.uniform(size=shape))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_seeded_batches(self, m):
        """One batch per s = 0..4, then one batch mixing all of them."""
        rng = np.random.default_rng(20261021 + m)
        # max |w| in [2^(s-2), 2^(s-1)) gives s; below 1/2 it gives 0
        radius = {0: 0.3, 1: 0.75, 2: 1.5, 3: 3.0, 4: 6.0}
        for s, r in radius.items():
            w = self.nodes(rng, (m, 7, 2), r)
            w[0] = w[0] / np.abs(w[0]) * r
            assert np.all(self.scales(w) == s)
            self.check(w)
        mixed = self.nodes(rng, (m, 40, 2, 2), 1.0)
        mixed *= rng.choice(list(radius.values()), (40, 2, 2))
        assert set(self.scales(mixed).ravel()) == set(radius)
        self.check(mixed)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_one_element_carries_max_scale(self, m):
        rng = np.random.default_rng(7 + m)
        w = self.nodes(rng, (m, 33), 0.2)
        w[:, 17] = self.nodes(rng, m, 7.5)
        w[0, 17] *= 7.5 / abs(w[0, 17])
        s = self.scales(w)
        assert s.max() >= 4 and np.count_nonzero(s == s.max()) == 1
        self.check(w)
        self.check(-w)
        w = self.nodes(rng, (m, 33), 7.5)
        w[:, 5] = self.nodes(rng, m, 0.2)
        self.check(w)

    def test_confluent_near_confluent_and_zero_nodes(self):
        rng = np.random.default_rng(31)
        centres = np.concatenate([self.nodes(rng, 9, 6.0), [0.0, 0.4]])
        for m in (1, 2, 3):
            confluent = np.tile(centres, (m, 1))
            near = confluent * (1.0 + 1e-9 * rng.normal(size=(m, 1)))
            some_zero = near.copy()
            some_zero[m - 1, ::2] = 0.0
            for w in (confluent, near, some_zero):
                self.check(w)
            self.check(np.zeros((m, 4), dtype=complex))
            self.check(np.full((m, 4), complex(-0.0, -0.0)))


# ----------------------------------------------------------------------
# Nonlinear transforms
# ----------------------------------------------------------------------

def make_nl(T_N):
    c2 = np.zeros((3, 3, 3))
    c3 = np.zeros((3, 3, 3, 3))
    for j in range(3):
        c2[j, j, j] = 2000.0
        c3[j, j, j, j] = 1000.0
    return NonlinearSusceptibility(
        c2=c2, c3=c3, gamma_tilde=1.0, omega_star_tilde=3.0, T_N=T_N
    )


def oscillator(t, gamma_t=1.0, omega_t=3.0):
    ct = math.sqrt(omega_t**2 - gamma_t**2)
    return np.exp(-gamma_t * t) * np.sin(ct * t) / ct


def quad_chi2_scalar(T, w1, w2, n=24):
    """Direct integral of e^{i(w1 t1 + w2 t2)} K2 over [0, T]^2.

    K2(t1, t2) = int_0^{min} D(s) D(t1 - s) D(t2 - s) ds; the square is
    split along the diagonal so every nested integrand is smooth.
    """
    total = 0.0 + 0.0j
    xg, wg = np.polynomial.legendre.leggauss(n)
    for wa, wb in ((w1, w2), (w2, w1)):
        # region t_a <= t_b
        ta = 0.5 * T * (xg + 1.0)
        wta = 0.5 * T * wg
        for i, t1 in enumerate(ta):
            tb = t1 + 0.5 * (T - t1) * (xg + 1.0)
            wtb = 0.5 * (T - t1) * wg
            s = 0.5 * t1 * (xg + 1.0)
            ws = 0.5 * t1 * wg
            inner = np.array([
                np.sum(ws * oscillator(s) * oscillator(t1 - s)
                       * oscillator(t2 - s))
                for t2 in tb
            ])
            total += wta[i] * np.sum(
                wtb * np.exp(1j * (wa * t1 + wb * tb)) * inner
            )
    return total


def quad_chi3_scalar(T, w1, w2, w3, n=12):
    """Direct integral of the cubic kernel over [0, T]^3 by ordered
    simplices: sum over the 6 orderings of (t1, t2, t3)."""
    xg, wg = np.polynomial.legendre.leggauss(n)
    total = 0.0 + 0.0j
    freqs = (w1, w2, w3)
    for perm in itertools.permutations(range(3)):
        wa, wb, wc = (freqs[perm[0]], freqs[perm[1]], freqs[perm[2]])
        # t_a <= t_b <= t_c, inner memory integral over s in [0, t_a].
        ta = 0.5 * T * (xg + 1.0)
        wta = 0.5 * T * wg
        for i, t1 in enumerate(ta):
            tb = t1 + 0.5 * (T - t1) * (xg + 1.0)
            wtb = 0.5 * (T - t1) * wg
            s = 0.5 * t1 * (xg + 1.0)
            ws = 0.5 * t1 * wg
            Ds = oscillator(s)
            D1 = oscillator(t1 - s)
            for jj, t2 in enumerate(tb):
                tc = t2 + 0.5 * (T - t2) * (xg + 1.0)
                wtc = 0.5 * (T - t2) * wg
                inner = np.array([
                    np.sum(ws * Ds * D1 * oscillator(t2 - s)
                           * oscillator(t3 - s))
                    for t3 in tc
                ])
                total += wta[i] * wtb[jj] * np.sum(
                    wtc * np.exp(1j * (wa * t1 + wb * t2 + wc * tc)) * inner
                )
    return total


def full_rate_sum(nl, ws):
    """chi2 or chi3 of one tuple as the sum over the rates of every driven
    factor and of the self-convolution: 8 rate combinations x 2 orderings
    of triangle terms for chi2, 16 x 6 of simplex terms for chi3."""
    T = nl.T_N
    lam, amp = nl._rates_amps()
    m = len(ws)
    ordered = triangle_transform if m == 2 else simplex_transform
    rates = np.array(list(itertools.product(range(2), repeat=m + 1)))
    z = lam[rates[:, :m]] + 1j * np.asarray(ws)
    delta = lam[rates[:, m]] - lam[rates[:, :m]].sum(axis=1)
    acc = -np.prod(g_window(z, T), axis=1)
    for s in itertools.permutations(range(m)):
        acc = acc + ordered(z[:, s[0]] + delta, *(z[:, i] for i in s[1:]), T)
    return complex(np.sum(np.prod(amp[rates], axis=1) * acc / delta))


class TestNonlinearTransforms:
    def test_chi2_vs_quadrature(self):
        nl = make_nl(0.8)
        for w1, w2 in (
            (1.0, 2.0),
            (1.8 - 0.15j, -1.8 - 0.15j),
            (0.0, 3.6 - 0.3j),
            (-2.5 + 0.4j, 1.1 - 0.9j),
        ):
            exact = nl._scalar_chi2_truncated(w1, w2)
            ref = quad_chi2_scalar(0.8, w1, w2, n=28)
            assert abs(exact - ref) < 1e-8 * max(1e-6, abs(ref))

    def test_chi2_sweep_real_frequencies(self, nl):
        for _ in range(100):
            w1 = complex(RNG.uniform(-8, 8), RNG.uniform(-1, 1))
            w2 = complex(RNG.uniform(-8, 8), RNG.uniform(-1, 1))
            exact = nl._scalar_chi2_truncated(w1, w2)
            ref = quad_chi2_scalar(nl.T_N, w1, w2, n=16)
            assert abs(exact - ref) < 1e-10

    def test_chi3_vs_quadrature(self):
        nl = make_nl(0.8)
        for w in (
            (1.0, 2.0, -1.0),
            (1.8 - 0.15j, 1.8 - 0.15j, -1.8 - 0.15j),
            (0.5 + 0.3j, -0.7 - 0.6j, 2.2),
        ):
            exact = nl._scalar_chi3_truncated(*w)
            ref = quad_chi3_scalar(0.8, *w, n=14)
            assert abs(exact - ref) < 1e-6 * max(1e-6, abs(ref))

    def test_chi3_sweep_small_window(self, nl):
        for _ in range(10):
            w = [complex(RNG.uniform(-5, 5), RNG.uniform(-0.8, 0.8))
                 for _ in range(3)]
            exact = nl._scalar_chi3_truncated(*w)
            ref = quad_chi3_scalar(nl.T_N, *w, n=10)
            assert abs(exact - ref) < 1e-10

    def test_chi2_symmetry_and_conjugation(self, nl):
        w1, w2 = 1.7 - 0.2j, -0.9 - 0.6j
        a = nl._scalar_chi2_truncated(w1, w2)
        assert a == nl._scalar_chi2_truncated(w2, w1)
        b = nl._scalar_chi2_truncated(-w1.conjugate(), -w2.conjugate())
        assert b == a.conjugate()

    def test_chi3_symmetry_and_conjugation(self):
        """Every ordering of a triple, and every ordering of its mirror
        (-conj w), gives the same bits (conjugated for the mirror), whichever
        of them a fresh cache meets first."""
        w = (1.7 - 0.2j, -0.9 - 0.6j, 0.4 - 0.1j)
        a = make_nl(0.12)._scalar_chi3_truncated(*w)
        for p in itertools.permutations(w):
            assert make_nl(0.12)._scalar_chi3_truncated(*p) == a
            mirror = [-x.conjugate() for x in p]
            assert (make_nl(0.12)._scalar_chi3_truncated(*mirror)
                    == a.conjugate())

    def test_self_mirror_tuples_are_real(self):
        """A tuple that is its own mirror up to order has a real transform,
        stored with an imaginary part of exactly zero."""
        w, y = 1.8 - 0.15j, -0.45j
        m = -w.conjugate()
        for ws in ((w, m), (y, 0.3j), (w, m, y), (y, -0.9j, 0.0), (m, y, w)):
            nl = make_nl(0.12)
            val = (nl._scalar_chi2_truncated(*ws) if len(ws) == 2
                   else nl._scalar_chi3_truncated(*ws))
            assert val.imag == 0.0 and val.real != 0.0, ws

    def test_paley_wiener_growth_bound(self, nl):
        """Compact support in [0, T_N]^2 caps the transform by
        C exp(T_N (|Im w1| + |Im w2|)) with C the kernel's L1 mass."""
        # L1 mass of |K2| by the same split quadrature, at zero frequency
        # of |kernel|: reuse the scalar quadrature with |.| folded in by
        # integrating the absolute kernel directly.
        T = nl.T_N
        xg, wg = np.polynomial.legendre.leggauss(24)
        mass = 0.0
        for swap in (False, True):
            ta = 0.5 * T * (xg + 1.0)
            wta = 0.5 * T * wg
            for i, t1 in enumerate(ta):
                tb = t1 + 0.5 * (T - t1) * (xg + 1.0)
                wtb = 0.5 * (T - t1) * wg
                s = 0.5 * t1 * (xg + 1.0)
                ws = 0.5 * t1 * wg
                inner = np.array([
                    abs(np.sum(ws * oscillator(s) * oscillator(t1 - s)
                               * oscillator(t2 - s)))
                    for t2 in tb
                ])
                mass += wta[i] * np.sum(wtb * inner)
        for _ in range(40):
            w1 = complex(RNG.uniform(-10, 10), RNG.uniform(-25, 5))
            w2 = complex(RNG.uniform(-10, 10), RNG.uniform(-25, 5))
            bound = mass * math.exp(
                T * (abs(w1.imag) + abs(w2.imag))
            )
            val = abs(nl._scalar_chi2_truncated(w1, w2))
            assert val <= bound * (1.0 + 1e-9)

    def test_truncated_chi2_converges_to_untruncated(self):
        """As T_N -> infinity the truncated chi2 tends to the untruncated
        one, the transfer product D(w1) D(w2) D(w1 + w2) with
        D(w) = -1/(w^2 + 2i gt w - ost^2).  The gap decays like
        exp(-(gt + min Im w) T_N) over w in {w1, w2, w1 + w2}, which is
        exp(-0.45 T_N) here (measured 2.8e-4, 4.3e-8 and 5.6e-16 at
        T_N = 20, 40 and 80)."""
        gt, ost = 0.5, 2.0
        w1, w2 = 0.3 + 0.2j, -1.1 - 0.05j

        def d(w):
            return -1.0 / (w * w + 2j * gt * w - ost * ost)

        untruncated = d(w1) * d(w2) * d(w1 + w2)
        for T_N, bound in ((20.0, 6e-4), (40.0, 1e-7), (80.0, 2e-15)):
            nl = NonlinearSusceptibility(
                c2=np.zeros((3, 3, 3)), c3=np.zeros((3, 3, 3, 3)),
                gamma_tilde=gt, omega_star_tilde=ost, T_N=T_N)
            gap = abs(nl._scalar_chi2_truncated(w1, w2) - untruncated)
            assert gap < bound * abs(untruncated)

    def test_tensor_transforms_scale_the_scalar(self, nl):
        w1, w2 = 0.4 - 0.2j, 1.1 + 0.1j
        t2 = ft_chi2_truncated(nl, w1, w2)
        assert np.allclose(t2, nl.c2 * nl._scalar_chi2_truncated(w1, w2))
        t3 = ft_chi3_truncated(nl, w1, w2, w1)
        assert np.allclose(
            t3, nl.c3 * nl._scalar_chi3_truncated(w1, w2, w1)
        )

    def test_batched_kernel_matches_single_calls(self, monkeypatch):
        """One batch of mixed tuples gives the same bits as K = 1 calls.

        The batch mixes near-confluent pairs and triples, triples at the
        oscillator pole, kernel elements whose nodes all have |zT| < 0.1
        (no squaring) and elements with |zT| > 40 (seven squarings).  Each
        element is scaled by its own power of two, so a scale shared
        across the batch would change the bits.
        """
        from breather import _expalg

        # The oscillator pole: i w + lambda = 0 for lambda = -1 - i c~.
        pole = make_nl(0.8).c_tilde - 1j
        pairs = [
            (1e-3, 0.0), (5e-3, 0.0), (2e-3, 1.5 - 0.2j),
            (0.3 + 0.1j, -0.4), (9.0 - 0.3j, -7.5 + 0.2j),
            (pole + 0.1, 55.0 - 0.5j),
        ]
        triples = [
            (pole, -pole, 0.7), (pole + 1e-4, -pole, -1.2 + 0.3j),
            (pole + 0.05, -pole, 0.7), (0.4 - 0.1j, 1e-3, -0.6),
            (8.0, -6.5 + 0.4j, 5.0 - 0.2j),
            (pole + 0.1, pole - 0.2j, 60.0), (-55.0 + 0.3j, pole, 0.2),
        ]
        node_max = []
        kernel = _expalg._exp_divided_difference

        def spy(w):
            node_max.append(np.abs(w).max(axis=0).ravel())
            return kernel(w)

        monkeypatch.setattr(_expalg, "_exp_divided_difference", spy)
        batched = make_nl(0.8)
        batched.fill_cache(pairs + triples)
        zT = np.concatenate(node_max)
        assert zT.min() < 0.1 and zT.max() > 40.0
        single = make_nl(0.8)
        for w in pairs:
            assert (batched._scalar_chi2_truncated(*w)
                    == single._scalar_chi2_truncated(*w))
        for w in triples:
            assert (batched._scalar_chi3_truncated(*w)
                    == single._scalar_chi3_truncated(*w))
        assert len(batched._cache2) == len(pairs)
        assert len(batched._cache3) == len(triples)

    def test_fill_order_is_irrelevant(self):
        """The argument order a batch meets a key in does not matter: the
        key gets the bits of a scalar lookup in any order, and cached keys
        are left untouched."""
        w = (0.3 - 0.2j, -1.7 + 0.1j, 2.4)
        scalar = make_nl(0.8)
        first = scalar._scalar_chi3_truncated(*w)
        filled = make_nl(0.8)
        filled.fill_cache([w, w[::-1], (w[1], w[0], w[2])])
        assert filled._scalar_chi3_truncated(*w[::-1]) == first
        filled.fill_cache([(9.0, 9.0, 9.0), w[::-1]])
        assert len(filled._cache3) == 2
        assert filled._scalar_chi3_truncated(*w) == first

    def test_fill_returns_lookup_values(self, monkeypatch):
        """fill_cache returns, in input order, what a lookup of each tuple
        returns: conjugated through the mirror, and real for a self-mirror
        key, over cached and new keys alike.  A repeated fill makes no
        kernel call."""
        a, b, c = 0.3 - 0.2j, -1.7 + 0.1j, 2.4 - 0.5j
        nl = make_nl(0.8)
        cached = [(a, b), (a, b, c)]
        for ws in cached:
            nl._lookup(ws)
        tuples = cached + [
            (b, a), (-a.conjugate(), -b.conjugate()),
            (c, -c.conjugate()), (a, -a.conjugate(), 0.5j),
            (-c.conjugate(), b, 1.1), (1.1 + 0.3j, -0.4), (c, -b, a),
        ]
        mirrored = [_cache_key(ws)[1] for ws in tuples]
        assert any(mirrored) and not all(mirrored)
        got = nl.fill_cache(iter(tuples))
        fresh = make_nl(0.8)
        assert got == [fresh._lookup(ws) for ws in tuples]
        assert got == [nl._lookup(ws) for ws in tuples]
        assert got[1] != got[1].conjugate()
        assert got[3] == got[0].conjugate()
        assert got[4].imag == 0.0 and got[5].imag == 0.0

        calls = []
        kernel = _expalg._exp_divided_difference

        def spy(w):
            calls.append(w.shape)
            return kernel(w)

        monkeypatch.setattr(_expalg, "_exp_divided_difference", spy)
        assert nl.fill_cache(tuples) == got
        assert calls == []

    @pytest.mark.parametrize("T_N, rtol", [(0.8, 1e-12), (2.0, 1e-12),
                                           (0.12, 1e-10)])
    def test_kernel_matches_full_rate_sum(self, T_N, rtol):
        """The kernel, with the rate of the earliest argument summed out of
        its weights, against the sum over every rate combination."""
        rng = np.random.default_rng(20261018)
        for order in (2, 3):
            nl = make_nl(T_N)
            scalar = (nl._scalar_chi2_truncated if order == 2
                      else nl._scalar_chi3_truncated)
            for _ in range(24):
                ws = rng.uniform(-8, 8, order) + 1j * rng.uniform(-1.5, 0.5,
                                                                  order)
                ref = full_rate_sum(nl, ws)
                assert abs(scalar(*ws) - ref) <= rtol * abs(ref), ws

    def test_kernel_element_counts(self, monkeypatch):
        """A batch of K triples sends six simplex calls of 8K three-node
        elements and three g_window calls of 2K; a batch of K pairs two
        triangle calls of 4K two-node elements and two g_window calls."""
        from breather import _expalg

        calls = []
        kernel = _expalg._exp_divided_difference

        def spy(w):
            calls.append((len(w), w[0].size))
            return kernel(w)

        monkeypatch.setattr(_expalg, "_exp_divided_difference", spy)
        K = 5
        rng = np.random.default_rng(7)
        for order, transform in ((3, [(3, 8 * K)] * 6),
                                 (2, [(2, 4 * K)] * 2)):
            calls.clear()
            tuples = rng.uniform(0.1, 4, (K, order)) - 0.2j
            make_nl(0.8).fill_cache(tuples)
            assert sorted(calls) == sorted(transform + [(1, 2 * K)] * order)

    def test_tm_compatibility_guard(self):
        c2 = np.zeros((3, 3, 3))
        c2[2, 0, 0] = 1.0
        with pytest.raises(ConfigError):
            NonlinearSusceptibility(
                c2=c2, c3=np.zeros((3, 3, 3, 3)),
                gamma_tilde=1.0, omega_star_tilde=3.0, T_N=0.1,
            )


# ----------------------------------------------------------------------
# Interface container
# ----------------------------------------------------------------------

class TestMaterialInterface:
    def test_sides_and_permittivity(self, interface):
        w = 1.5 - 0.1j
        eps_plus = interface.permittivity("plus", w)
        assert abs(eps_plus - 3.0) < 1e-14
        eps_minus = interface.permittivity("minus", w)
        chi = interface.minus.ft(w)
        assert abs(eps_minus - (1.0 + chi)) < 1e-12 * abs(eps_minus)
        with pytest.raises(ValueError):
            interface.side_model("left")

    def test_scaled_permittivity_matches(self, interface):
        w = -2.2 - 0.4j
        plain = interface.permittivity("minus", w)
        scaled = interface.permittivity_scaled("minus", w)
        assert abs(scaled.to_complex(strict=True) - plain) < 1e-12 * abs(plain)
