"""Dispersion function, spectra, contours and the surface mode."""

from __future__ import annotations

import cmath
import logging
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from breather import pencil
from breather._scaled import ScaledComplex
from breather.errors import (
    DegenerateError,
    ModelError,
    NoConvergence,
    OverflowGuard,
    QuadratureNotConverged,
    ZeroOnContour,
)
from breather.pencil import (
    ContourRectangle,
    PencilContext,
    delta0_search,
    dispersion_G,
    dispersion_G_inf,
    dispersion_logderiv,
    eigenfunction,
    in_Omega0,
    newton_eigenvalue,
    resolvent_membership,
    spectral_quantities,
    untruncated_eigenvalues,
    winding_count,
    winding_count_function,
)
from breather.pencil import (
    _DELTA_MIN,
    _DELTA_TOL,
    _EDGE_TOL,
    _contour_integrals,
    _log_abs_G,
)

from conftest import CSTAR, OMEGA0_REF, T_REF


class TestUntruncatedRoots:
    def test_reference_root(self, probe):
        roots = untruncated_eigenvalues(probe, 1)
        assert len(roots) == 4
        best = min(abs(r - OMEGA0_REF) for r in roots)
        assert best < 1e-12

    def test_roots_satisfy_dispersion(self, probe):
        for r in untruncated_eigenvalues(probe, 1):
            val = dispersion_G_inf(probe, 1, r)
            scale = abs(dispersion_G_inf(probe, 1, r + 0.5)) + 1.0
            assert abs(val) < 1e-9 * scale

    def test_mirror_symmetry(self, probe):
        """Real-kernel symmetry: roots come in pairs w, -conj(w)."""
        roots = untruncated_eigenvalues(probe, 1)
        for r in roots:
            assert min(abs(s - (-r.conjugate())) for s in roots) < 1e-9


class TestNewton:
    def test_refined_eigenvalue_residual(self, probe):
        w = newton_eigenvalue(probe, 1, T_REF, 1.8 - 0.15j)
        g = dispersion_G(probe, 1, w, T_REF)
        assert abs(w - OMEGA0_REF) < 1e-10
        assert abs(g) < 1e-10

    def test_seed_below_memory_line_raises_no_convergence(self, probe):
        """From 1 - 1j, Re E is far past the overflow of exp; the steps
        read the shifted dispersion values, so Newton gives up with
        NoConvergence instead of an OverflowError."""
        with pytest.raises(NoConvergence):
            newton_eigenvalue(probe, 1, T_REF, 1.0 - 1.0j)

    def test_dispersion_below_memory_line_raises_overflow_guard(self, probe):
        """At 1 - 1j, Re E is about 812: e^E is past double range, and
        G_n itself is refused with the point and window named."""
        with pytest.raises(OverflowGuard, match=r"omega = \(1-1j\).*T = 1623"):
            dispersion_G(probe, 1, 1.0 - 1.0j, T_REF)


def _previous_logderiv(ctx, n, omega, T):
    """G'/G as computed before the oscillator families carried the
    window, written out for the Lorentz minus side: the oracle for
    bit-for-bit equality where Re E <= 0."""
    m, itf = ctx.interface.minus, ctx.interface
    eps_plus = itf.eps0 * (1.0 + itf.plus.alpha)
    eps0, mu0 = itf.eps0, itf.mu0
    K = (n * ctx.k) ** 2
    den_L = omega * omega + 2j * m.gamma * omega - m.omega_star**2
    A = (K / eps0 - omega * omega * mu0) * eps_plus + K
    B = K - omega * omega * mu0 * eps_plus
    cs = m.c_star
    R = (1j * omega - m.gamma) / cs * math.sin(cs * T) - math.cos(cs * T)
    P = A * den_L - m.c_L * B
    W = -m.c_L * R * B
    dden = 2 * omega + 2j * m.gamma
    dB = -2 * omega * mu0 * eps_plus
    dP = dB * den_L + A * dden - m.c_L * dB
    dW = -m.c_L * (1j / cs * math.sin(cs * T) * B + R * dB)
    E = np.exp((1j * omega - m.gamma) * T)
    return (dP + E * (dW + 1j * T * W)) / (P + E * W)


def _mp_dispersion(ctx, n, w, T):
    """(log|G|, G'/G) of the oscillator dispersion in 50-digit mpmath,
    from G = den (A + chi_T B) with chi_T = -c/den (1 + e^E R)."""
    m, itf = ctx.interface.minus, ctx.interface
    g, omega_star, c = m.oscillator
    with mpmath.workdps(50):
        w, T = mpmath.mpc(w), mpmath.mpf(T)
        eps_plus = mpmath.mpf(itf.eps0) * (1 + mpmath.mpf(itf.plus.alpha))
        K = mpmath.mpf(n * ctx.k) ** 2
        q = itf.mu0 * eps_plus
        den, dden = w * w + 2j * g * w - omega_star**2, 2 * w + 2j * g
        A, B, dB = K * (eps_plus / itf.eps0 + 1) - q * w * w, K - q * w * w, -2 * q * w
        cs = mpmath.mpf(m.c_star)
        R = (1j * w - m.gamma) / cs * mpmath.sin(cs * T) - mpmath.cos(cs * T)
        dR = 1j / cs * mpmath.sin(cs * T)
        e = mpmath.exp((1j * w - m.gamma) * T)
        G = den * A - c * (1 + e * R) * B
        dG = (dden * A + den * dB
              - c * ((1j * T * e * R + e * dR) * B + (1 + e * R) * dB))
        return float(mpmath.log(abs(G))), complex(dG / G)


class TestDispersion:
    def test_logderiv_matches_previous_formula_exactly(self, probe):
        rng = np.random.default_rng(7)
        gamma = probe.interface.minus.gamma
        w = rng.uniform(-20.0, 20.0, 4000) + 1j * rng.uniform(-gamma, 0.5, 4000)
        for j in (21, 201, 1001):
            T = j * math.pi / CSTAR
            got = dispersion_logderiv(probe, 1, w, T)
            assert np.array_equal(got, _previous_logderiv(probe, 1, w, T))
            assert dispersion_logderiv(probe, 1, w[0], T) == got[0]

    def test_deep_log_magnitude_matches_mpmath(self, probe):
        """Out to Re E ~ 8,800 below the memory line, where G itself is
        far beyond double range."""
        rng = np.random.default_rng(11)
        gamma = probe.interface.minus.gamma
        depth = rng.uniform(0.0, 8800.0 / T_REF, 200)
        w = rng.uniform(-20.0, 20.0, 200) + 1j * (-gamma - depth)
        s, log_g = _log_abs_G(probe, 1, w, T_REF)
        dlog = dispersion_logderiv(probe, 1, w, T_REF)
        assert s.max() > 8000.0
        for i in range(w.size):
            ref, dref = _mp_dispersion(probe, 1, w[i], T_REF)
            assert abs(s[i] + log_g[i] - ref) <= 1e-13 * max(1.0, abs(ref))
            assert abs(dlog[i] - dref) <= 1e-12 * abs(dref)

    @pytest.fixture(scope="class")
    def drude(self):
        from breather.susceptibility import (
            Constant, MaterialInterface, TruncatedDrude)

        itf = MaterialInterface(minus=TruncatedDrude(c_D=4.0, gamma=0.5, T=50.0),
                                plus=Constant(alpha=2.0))
        return PencilContext(itf, k=3.0)

    def test_drude_dispersion_is_den_times_permittivity_form(self, drude):
        itf = drude.interface
        m, T = itf.minus, itf.minus.T
        eps_plus = itf.eps0 * (1.0 + itf.plus.alpha)
        K = drude.k**2
        for w in (0.3 - 0.2j, -1.7 - 0.45j, 2.5 + 0.1j, 0.05 - 0.01j):
            q = itf.mu0 * eps_plus * w * w
            den = w * w + 1j * m.gamma * w
            ref = den * ((K * (eps_plus / itf.eps0 + 1.0) - q)
                         + m.ft(w) * (K - q))
            got = dispersion_G(drude, 1, w, T)
            assert abs(got - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("fixture, points, rel", [
        ("drude", (0.3 - 0.2j, -1.7 - 0.45j, 2.5 + 0.1j), 1e-7),
        ("probe", (1.6 - 0.2j,), 1e-4),
    ], ids=["drude", "lorentz"])
    def test_logderiv_matches_central_difference(self, request, fixture,
                                                 points, rel):
        ctx = request.getfixturevalue(fixture)
        T, h = ctx.interface.minus.T, 1e-6
        for w in points:
            fd = (dispersion_G(ctx, 1, w + h, T)
                  - dispersion_G(ctx, 1, w - h, T)) / (2 * h)
            ref = fd / dispersion_G(ctx, 1, w, T)
            assert abs(dispersion_logderiv(ctx, 1, w, T) - ref) <= rel * abs(ref)


class TestWinding:
    def test_polynomial_zero_counts(self):
        zeros = (1.0 - 0.2j, -2.0 - 0.35j)

        def logderiv(w):
            w = np.asarray(w, dtype=complex)
            return sum(1.0 / (w - z) for z in zeros)

        both = ContourRectangle(a=5.0, y_top=0.0, y_bottom=-0.5)
        one = ContourRectangle(a=1.5, y_top=0.0, y_bottom=-0.5)
        shallow = ContourRectangle(a=5.0, y_top=0.0, y_bottom=-0.1)
        assert winding_count_function(logderiv, both)[0] == 2
        assert winding_count_function(logderiv, one)[0] == 1
        assert winding_count_function(logderiv, shallow)[0] == 0

    def test_zero_on_contour_detected(self):
        z = 1.0 - 0.5j

        def logderiv(w):
            w = np.asarray(w, dtype=complex)
            return 1.0 / (w - z)

        rect = ContourRectangle(a=5.0, y_top=0.0, y_bottom=-0.5)
        with pytest.raises((ZeroOnContour, QuadratureNotConverged)):
            winding_count_function(
                logderiv, rect,
                zero_probe=lambda w: np.log(np.abs(w - z)),
            )

    def test_reference_rectangle_counts_four(self, probe):
        gamma = probe.interface.minus.gamma
        rect = ContourRectangle(a=20.0, y_top=0.0, y_bottom=-gamma + 0.05)
        assert winding_count(probe, 1, T_REF, rect) == 4

    def test_delta0_shrinks_with_window(self, probe):
        cstar = math.sqrt(3.75)
        d_short = delta0_search(probe, 1, 51 * math.pi / cstar, a=8.0)
        d_long = delta0_search(probe, 1, 201 * math.pi / cstar, a=8.0)
        assert d_long < d_short


# The search order that counted the deepest contour first, kept as the
# reference the deferred order must reproduce.
def _reference_delta0_search(ctx, n, T, a):
    gamma = ctx.interface.minus.gamma
    depth = max(-r.imag for r in untruncated_eigenvalues(ctx, n))
    delta_max = 0.75 * (gamma - depth)

    def count(delta):
        rect = ContourRectangle(a=a, y_top=0.0, y_bottom=-gamma + delta)
        try:
            return pencil.winding_count(ctx, n, T, rect)
        except (ZeroOnContour, QuadratureNotConverged):
            return -1

    if count(_DELTA_MIN) == 4:
        return _DELTA_MIN
    lo, hi = _DELTA_MIN, delta_max
    if count(hi) != 4:
        raise NoConvergence("no delta gives a count of 4")
    while hi - lo > _DELTA_TOL:
        midpoint = 0.5 * (lo + hi)
        if count(midpoint) == 4:
            hi = midpoint
        else:
            lo = midpoint
    return hi


@pytest.fixture
def probed(monkeypatch):
    """The y_bottom of every contour counted, through a spy on
    winding_count; set ``probed.fake`` to a function of delta to replace
    the count itself."""

    class Spy(list):
        fake = None

    seen = Spy()
    real = pencil.winding_count

    def spy(ctx, n, T, rect):
        seen.append(rect.y_bottom)
        if seen.fake is None:
            return real(ctx, n, T, rect)
        return seen.fake(rect.y_bottom + ctx.interface.minus.gamma)

    monkeypatch.setattr(pencil, "winding_count", spy)
    return seen


class TestDelta0Search:
    A = 8.0

    def _deep(self, probe):
        return -probe.interface.minus.gamma + _DELTA_MIN

    @pytest.mark.parametrize("j", [21, 51, 101, 201])
    def test_matches_reference_without_deepest_probe(self, probe, probed, j):
        T = j * math.pi / CSTAR
        want = _reference_delta0_search(probe, 1, T, self.A)
        reference_probes = list(probed)
        probed.clear()
        got = delta0_search(probe, 1, T, self.A)
        assert got == want
        assert self._deep(probe) == reference_probes[0]
        assert self._deep(probe) not in probed
        assert len(probed) == len(reference_probes) - 1

    def test_all_depths_count_four(self, probe, probed):
        probed.fake = lambda delta: 4
        assert delta0_search(probe, 1, T_REF, self.A) == _DELTA_MIN
        assert probed[-1] == self._deep(probe)
        assert probed.count(self._deep(probe)) == 1
        assert len(probed) > 2

    def test_shallowest_fails_deepest_counts_four(self, probe, probed):
        probed.fake = lambda delta: 4 if delta < 2 * _DELTA_MIN else 6
        assert delta0_search(probe, 1, T_REF, self.A) == _DELTA_MIN
        assert len(probed) == 2 and probed[1] == self._deep(probe)

    def test_no_depth_counts_four(self, probe, probed):
        def fake(delta):
            raise QuadratureNotConverged("grazes the band")

        probed.fake = fake
        with pytest.raises(NoConvergence, match=r"no delta in \[0\.0001, "):
            delta0_search(probe, 1, T_REF, self.A)
        assert len(probed) == 2

    def test_roots_at_the_memory_line_degenerate(self, probe, monkeypatch,
                                                 probed):
        gamma = probe.interface.minus.gamma
        roots = [1.0 - 0.2j, 1.0 - (gamma - 1e-4) * 1j]
        monkeypatch.setattr(pencil, "untruncated_eigenvalues",
                            lambda ctx, n: roots)
        with pytest.raises(DegenerateError):
            delta0_search(probe, 1, T_REF, self.A)
        assert probed == []

    def test_non_monotone_count_returns_upper_end(self, probe, probed):
        """4 at 1e-4 and above 0.05, more in between: the bisection's
        upper end is returned and 1e-4 is never counted."""
        probed.fake = lambda d: 4 if d < 2 * _DELTA_MIN or d > 0.05 else 6
        got = delta0_search(probe, 1, T_REF, self.A)
        assert 0.05 < got <= 0.05 + _DELTA_TOL
        assert self._deep(probe) not in probed


# The panel-by-panel recursion that the level-batched integrator replaced,
# kept as the reference it must reproduce bit for bit.
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(8)


def _gauss_segment(f, a, b):
    zs = 0.5 * (b - a) * _NODES + 0.5 * (a + b)
    vals = np.asarray(f(zs))  # integrands are vectorized over nodes
    return 0.5 * (b - a) * np.sum(_WEIGHTS * vals)


def _adaptive_edge_integral(f, z0, z1, tol, depth=0, max_depth=28):
    mid = 0.5 * (z0 + z1)
    coarse = _gauss_segment(f, z0, z1)
    fine = _gauss_segment(f, z0, mid) + _gauss_segment(f, mid, z1)
    err = abs(fine - coarse)
    if err < tol or depth >= max_depth:
        return fine, err
    child_tol = max(0.5 * tol, 1e-12)
    left, e1 = _adaptive_edge_integral(f, z0, mid, child_tol, depth + 1, max_depth)
    right, e2 = _adaptive_edge_integral(f, mid, z1, child_tol, depth + 1, max_depth)
    return left + right, e1 + e2


def _assert_matches_recursion(f, corners, max_depth=28):
    """Edge values and error estimates equal the recursion's exactly."""
    ref = [
        _adaptive_edge_integral(f, a, b, _EDGE_TOL, max_depth=max_depth)
        for a, b in zip(corners, corners[1:] + corners[:1])
    ]
    parts, errors, capped = _contour_integrals(f, corners, _EDGE_TOL,
                                               max_depth)
    assert [complex(p) for p in parts] == [complex(v) for v, _ in ref]
    assert [float(e) for e in errors] == [float(e) for _, e in ref]
    total_ref, total = 0j, 0j
    for (v, _), p in zip(ref, parts):
        total_ref += v
        total += p
    assert total / (2j * math.pi) == total_ref / (2j * math.pi)
    return capped


def _dispersion(probe, j):
    T = j * math.pi / CSTAR
    return lambda w: dispersion_logderiv(probe, 1, w, T)


class TestLevelBatchedQuadrature:
    def test_polynomial_contours_match_recursion(self):
        zeros = (1.0 - 0.2j, -2.0 - 0.35j)

        def logderiv(w):
            return sum(1.0 / (w - z) for z in zeros)

        for a, y_bottom in ((5.0, -0.5), (1.5, -0.5), (5.0, -0.1)):
            rect = ContourRectangle(a=a, y_top=0.0, y_bottom=y_bottom)
            assert not _assert_matches_recursion(logderiv, rect.corners).any()
        # Slanted edges, where the panel half-lengths are fully complex.
        quad = [-4.0 - 0.6j, 3.0 - 0.9j, 4.5 + 0.2j, -3.5 + 0.1j]
        assert not _assert_matches_recursion(logderiv, quad).any()

    def test_reference_rectangle_matches_recursion(self, probe):
        gamma = probe.interface.minus.gamma
        rect = ContourRectangle(a=20.0, y_top=0.0, y_bottom=-gamma + 0.05)
        _assert_matches_recursion(_dispersion(probe, 1001), rect.corners)

    def test_near_spurious_band_matches_recursion(self, probe):
        # Just below delta0 at j = 101, where the spurious zeros crowd in.
        gamma = probe.interface.minus.gamma
        rect = ContourRectangle(a=8.0, y_top=0.0, y_bottom=-gamma + 0.0158)
        _assert_matches_recursion(_dispersion(probe, 101), rect.corners)

    def test_forced_cap_matches_recursion(self, probe):
        gamma = probe.interface.minus.gamma
        rect = ContourRectangle(a=8.0, y_top=0.0, y_bottom=-gamma + 0.01)
        capped = _assert_matches_recursion(_dispersion(probe, 101),
                                           rect.corners, max_depth=4)
        assert capped.sum() > 0

    def test_one_call_per_level(self, probe):
        # Depth 6 holds at most 4 * 2**6 = 256 panels: every level is one
        # call, and the cap is reached, so there are exactly 7 levels.
        sizes = []
        f = _dispersion(probe, 101)

        def logderiv(w):
            sizes.append(w.size)
            return f(w)

        gamma = probe.interface.minus.gamma
        rect = ContourRectangle(a=8.0, y_top=0.0, y_bottom=-gamma + 0.01)
        _, _, capped = _contour_integrals(logderiv, rect.corners, _EDGE_TOL,
                                          max_depth=6)
        assert capped.sum() > 0
        assert len(sizes) == 7
        assert sizes[0] == 4 * 3 * 8

    def test_calls_stay_within_chunk(self):
        # Nothing converges: depth d has 4 * 2**d panels, 16 nodes each.
        sizes = []

        def logderiv(w):
            sizes.append(w.size)
            return np.exp(1e8j * (w.real + w.imag))

        rect = ContourRectangle(a=8.0, y_top=0.0, y_bottom=-0.5)
        _, _, capped = _contour_integrals(logderiv, rect.corners, _EDGE_TOL,
                                          max_depth=8)
        assert capped.tolist() == [256] * 4
        assert max(sizes) == 4096
        assert sizes == [96, 128, 256, 512, 1024, 2048] + [4096] * 7

    def test_cap_hit_logs_one_warning(self, caplog):
        z = 1.0 - 0.2j
        rect = ContourRectangle(a=5.0, y_top=0.0, y_bottom=-0.5)

        def smooth(w):
            return 1.0 / (w - z)

        def cusp(w):
            # An integrable singularity on both horizontal edges: its panels
            # never converge, but it adds nothing to the winding number.
            return smooth(w) + 0.01 / np.sqrt(np.abs(w.real - 0.3))

        with caplog.at_level(logging.WARNING, logger="breather.pencil"):
            assert winding_count_function(smooth, rect)[0] == 1
            assert not caplog.records
            count, residual = winding_count_function(cusp, rect)
        assert count == 1 and residual < 1e-3
        (record,) = caplog.records
        assert record.name == "breather.pencil"
        assert record.levelname == "WARNING"
        msg = record.getMessage()
        assert "|Re| <= 5.0, -0.5 <= Im <= 0.0" in msg
        assert "2 quadrature panel(s) accepted at depth cap 28" in msg
        assert "error estimate" in msg


class TestSpectralQuantities:
    def test_base_point_values(self, ctx):
        sq = spectral_quantities(ctx, 1, 1)
        V_p, V_m, mu_p, mu_m = sq.as_complex(strict=True)
        itf = ctx.interface
        w = ctx.omega0
        eps_p = itf.permittivity("plus", w)
        assert abs(V_p - (-w * itf.mu0 * eps_p)) < 1e-12 * abs(V_p)
        assert abs(mu_p**2 - (ctx.k**2 + V_p * w)) < 1e-10 * abs(mu_p**2)
        assert mu_p.real > 0 and mu_m.real > 0

    def test_cone_frequencies(self, ctx):
        for nu in range(1, 5):
            for n in range(-nu, nu + 1):
                w = ctx.omega(n, nu)
                assert w == n * ctx.omega_R + 1j * nu * ctx.omega_I


class TestEigenfunction:
    def test_interface_continuity(self, ctx):
        phi = eigenfunction(ctx)
        lo = phi(np.array([-1e-9]))
        hi = phi(np.array([1e-9]))
        # second and third components continuous; first jumps
        assert abs(lo[1, 0] - hi[1, 0]) < 1e-6 * abs(lo[1, 0])
        assert abs(lo[2, 0] - hi[2, 0]) < 1e-4 * abs(lo[2, 0])
        assert abs(lo[0, 0] - hi[0, 0]) > 0.1 * abs(lo[0, 0])

    def test_decay_both_sides(self, ctx):
        phi = eigenfunction(ctx)
        vals = phi(np.array([-30.0, -1.0, 1.0, 30.0]))
        assert np.all(np.abs(vals[:, 0]) < 1e-6 * np.abs(vals[:, 1]))
        assert np.all(np.abs(vals[:, 3]) < 1e-6 * np.abs(vals[:, 2]))

    def test_first_order_system(self, ctx):
        """i phi2' + k phi1 + omega phi3 = 0 on each side (exactly, since
        phi2' = mu phi2 off the interface)."""
        phi = eigenfunction(ctx)
        for x in (-2.0, 3.0):
            h = 1e-6
            v = phi(np.array([x - h, x, x + h]))
            d2 = (v[1, 2] - v[1, 0]) / (2 * h)
            res = 1j * d2 + ctx.k * v[0, 1] + ctx.omega0 * v[2, 1]
            assert abs(res) < 1e-4 * max(abs(ctx.omega0 * v[2, 1]), 1e-12)


class TestMembership:
    def test_base_point_is_point_spectrum(self, ctx):
        assert resolvent_membership(ctx, 1, 1) == "point_spec"

    def test_deep_cone_is_resolvent(self, ctx):
        for n, nu in ((0, 2), (2, 2), (1, 3), (3, 5)):
            assert resolvent_membership(ctx, n, nu) == "resolvent"

    def test_omega0_set(self, ctx):
        assert in_Omega0(ctx, 0.0)
        assert not in_Omega0(ctx, 1.0 - 0.2j)

    def test_each_side_evaluated_once(self, ctx, monkeypatch):
        """The Omega_0 and essential-spectrum tests of a cone point share
        one permittivity evaluation per side."""
        from breather.susceptibility import MaterialInterface

        calls = []
        scaled = MaterialInterface.permittivity_scaled

        def spy(self, side, omega):
            calls.append((side, omega))
            return scaled(self, side, omega)

        monkeypatch.setattr(MaterialInterface, "permittivity_scaled", spy)
        points = [(n, nu) for nu in range(2, 5) for n in range(-nu, nu + 1)]
        for n, nu in points:
            assert resolvent_membership(ctx, n, nu) == "resolvent"
        assert calls == [(side, ctx.omega(n, nu)) for n, nu in points
                         for side in ("plus", "minus")]


class TestModelGuards:
    def test_dispersion_needs_lorentz_minus(self, nl):
        from breather.susceptibility import Constant, MaterialInterface

        itf = MaterialInterface(minus=Constant(2.0), plus=Constant(2.0))
        ctx = PencilContext(itf, k=3.0, omega0=None)
        with pytest.raises(ModelError):
            dispersion_G(ctx, 1, 1.0 - 0.1j, 10.0)

    def test_membership_needs_memory_window(self):
        from breather.susceptibility import (
            Constant, MaterialInterface, UntruncatedLorentz)

        itf = MaterialInterface(
            minus=UntruncatedLorentz(c_L=20.0, gamma=0.5, omega_star=2.0),
            plus=Constant(2.0))
        ctx = PencilContext(itf, k=3.0, omega0=OMEGA0_REF)
        with pytest.raises(ModelError, match="memory window"):
            resolvent_membership(ctx, 0, 2)
        assert resolvent_membership(ctx, 0, 2, T=T_REF) == "resolvent"


def _scaled_complex():
    """Complex numbers with parts 0 or of magnitude 1e-100 .. 1e91."""
    part = st.one_of(
        st.just(0.0),
        st.builds(lambda sign, m, e: sign * m * 10.0**e,
                  st.sampled_from((-1.0, 1.0)), st.floats(1.0, 10.0),
                  st.integers(-100, 90)),
    )
    return st.builds(complex, part, part)


def _close(got, want, scale):
    """|got - want| within 1e-12 of the operands' magnitude."""
    return abs(got - want) <= 1e-12 * scale + 1e-300


class TestScaledArithmetic:
    @given(_scaled_complex(), _scaled_complex())
    @settings(max_examples=200, deadline=None)
    def test_add_sub_consistency(self, z1, z2):
        s1, s2 = ScaledComplex.from_complex(z1), ScaledComplex.from_complex(z2)
        scale = max(abs(z1), abs(z2))
        assert _close((s1 + s2).to_complex(), z1 + z2, scale)
        assert _close((s1 - s2).to_complex(), z1 - z2, scale)
        # mixed operands coerce the plain complex
        assert _close((s1 + z2).to_complex(), z1 + z2, scale)
        assert _close((z1 - s2).to_complex(), z1 - z2, scale)

    @given(_scaled_complex(), _scaled_complex())
    @settings(max_examples=200, deadline=None)
    def test_div_consistency(self, z1, z2):
        if z2 == 0:
            with pytest.raises(ZeroDivisionError):
                ScaledComplex.from_complex(z1) / ScaledComplex.from_complex(z2)
            return
        want = z1 / z2
        s = ScaledComplex.from_complex(z1) / ScaledComplex.from_complex(z2)
        assert _close(s.to_complex(), want, abs(want))
        assert _close((z1 / ScaledComplex.from_complex(z2)).to_complex(),
                      want, abs(want))

    @given(_scaled_complex())
    @settings(max_examples=200, deadline=None)
    def test_sqrt_consistency(self, z):
        want = cmath.sqrt(z)
        s = ScaledComplex.from_complex(z).sqrt().to_complex()
        assert _close(s, want, abs(want))
        assert s.real >= 0.0

    @given(
        st.floats(-50, 50), st.floats(-50, 50),
        st.floats(-50, 50), st.floats(-50, 50),
    )
    @settings(max_examples=80, deadline=None)
    @example(0.0, 0.0, 2.0, 5e-324)     # phase underflows to 0
    def test_product_consistency(self, a, b, c, d):
        z1, z2 = complex(a, b), complex(c, d)
        s = ScaledComplex.from_complex(z1) * ScaledComplex.from_complex(z2)
        assert cmath.isclose(
            s.to_complex(strict=False), z1 * z2,
            rel_tol=1e-12, abs_tol=1e-300,
        )

    @given(st.floats(-2000, 2000), st.floats(-2000, 2000))
    @settings(max_examples=80, deadline=None)
    def test_exp_log_roundtrip(self, re, im):
        s = ScaledComplex.exp(complex(re, im))
        assert math.isclose(s.log_mag, re, rel_tol=1e-12, abs_tol=1e-12)

    def test_underflowing_phase(self):
        # arg(2 + 5e-324j) underflows: cmath.phase raises OverflowError
        assert ScaledComplex.from_complex(2 + 5e-324j).phase == 0.0
        # 1 + e^{i 5e-324} adds up to the same number
        s = ScaledComplex(0.0, 0.0) + ScaledComplex(0.0, 5e-324)
        assert s.phase == 0.0 and s.to_complex() == 2.0

    def test_overflow_safe_magnitudes(self):
        big = ScaledComplex.exp(5000.0 + 1.0j)
        small = ScaledComplex.exp(-5000.0 - 1.0j)
        prod = big * small
        assert abs(prod.to_complex(strict=True) - 1.0) < 1e-12
