"""Numeric verification of the working hypotheses and the lossy-metal
truncation demo."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from breather.checks import (
    DrudeParams,
    admittance_inf,
    check_A6_cone,
    check_B,
    drude_truncation_demo,
    gamma_bound_sweep,
    transverse_rate_sq_inf,
)
from breather.config import load_config
from breather.errors import ConfigError, ModelError
from breather.pencil import PencilContext, _quartic_coeffs
from breather.susceptibility import NonlinearSusceptibility

from conftest import OMEGA0_REF


@pytest.fixture(scope="module")
def report(ctx):
    return check_B(ctx, OMEGA0_REF)


class TestAssumptionReport:
    def test_all_verifiable_pass(self, report):
        names = [r.name for r in report.results]
        assert names == ["B1", "B2", "B3", "B4", "B5", "B6", "B7"]
        for r in report.results:
            if r.name == "B7":
                assert r.status == "unverifiable"
            else:
                assert r.status == "pass"
        assert report.passed
        assert list(report.hard_failures) == []

    def test_published_margins(self, report):
        assert report["B3"].margin == pytest.approx(0.3207, abs=2e-3)
        assert report["B4"].margin == pytest.approx(0.0477, abs=2e-3)
        assert report["B5"].margin == pytest.approx(0.1488, abs=2e-3)
        ratio = report.params["gamma_over_abs_omega_I"]
        assert ratio == pytest.approx(3.3602, abs=1e-3)

    def test_report_serializes(self, report):
        d = report.to_dict()
        assert {r["name"] for r in d["results"]} == {
            "B1", "B2", "B3", "B4", "B5", "B6", "B7"
        }
        assert "coupling" not in d["params"]

    def test_needs_lorentz_minus(self):
        drude = DrudeParams(c_D=4.0, gamma=0.5, alpha=2.0, k=3.0).context(50.0)
        with pytest.raises(ModelError, match="Lorentz"):
            check_B(drude, 1.0 - 0.1j)

    def test_limit_quantities_conjugate_partner(self, ctx):
        for n, nu in ((1, 2), (2, 3), (0, 1)):
            a = admittance_inf(ctx, OMEGA0_REF, n, nu)
            b = admittance_inf(ctx, OMEGA0_REF, -n, nu)
            assert abs(b - (-a.conjugate())) < 1e-12 * max(abs(a), 1e-12)
            c = transverse_rate_sq_inf(ctx, OMEGA0_REF, n, nu)
            d = transverse_rate_sq_inf(ctx, OMEGA0_REF, -n, nu)
            assert abs(d - c.conjugate()) < 1e-12 * max(abs(c), 1e-12)


class TestConeMembership:
    def test_reference_cone_clean(self, ctx):
        out = check_A6_cone(ctx, nu_max=10)
        assert out["nu_max"] == 10
        assert out["violations"] == []
        # all cone points except the two base harmonics get classified
        assert out["checked"] == sum(2 * nu + 1 for nu in range(1, 11)) - 2

    def test_memory_line_resonance_flagged(self, interface):
        """An eigenvalue whose decay rate divides gamma parks a cone line
        on Im omega = -gamma, which must be reported."""
        bad = PencilContext(interface, k=3.0, omega0=1.8 - 0.25j)
        out = check_A6_cone(bad, nu_max=3)
        kinds = {kind for _, _, kind in out["violations"]}
        assert "memory_line" in kinds
        assert all(nu == 2 for _, nu, kind in out["violations"]
                   if kind == "memory_line")


class TestCouplingBounds:
    def test_linear_material_zero(self, ctx):
        out = gamma_bound_sweep(ctx, None, 6)
        assert out["c_beta"] == 0.0 and out["c_gamma"] == 0.0
        assert out["beta_profile"] == []

    def test_fitted_constants_dominate(self, ctx, nl):
        out = gamma_bound_sweep(ctx, nl, 5)
        assert out["violations"] == 0
        assert out["c_beta"] > 0 and out["c_gamma"] > 0
        wI = abs(ctx.omega_I)
        for nu, mag in out["beta_profile"]:
            bound = out["c_beta"] * nu * math.exp(
                math.sqrt(2.0) * nl.T_N * wI * nu
            )
            assert mag <= bound * (1 + 1e-12)
        for nu, mag in out["gamma_profile"]:
            bound = out["c_gamma"] * nu * math.exp(
                math.sqrt(3.0) * nl.T_N * wI * nu
            )
            assert mag <= bound * (1 + 1e-12)

    def test_longer_memory_inflates_maxima(self, ctx, nl):
        """Every per-level quadratic maximum grows with the memory
        window (the envelope slope itself is dominated by the cone
        frequency prefactor, not the exponential, at these windows)."""

        def profile(T_N):
            probe_nl = NonlinearSusceptibility(
                c2=nl.c2, c3=nl.c3, gamma_tilde=nl.gamma_tilde,
                omega_star_tilde=nl.omega_star_tilde, T_N=T_N,
            )
            return dict(gamma_bound_sweep(ctx, probe_nl, 5)["beta_profile"])

        short, mid, long_ = profile(0.12), profile(0.6), profile(1.2)
        for nu in short:
            assert short[nu] < mid[nu] < long_[nu]

    def test_multisets_match_ordered_enumeration(self, general_coupling_ctx):
        """Sampling one ordering per factor multiset finds the same
        per-level maxima, bit for bit, as every ordered tuple."""
        ctx = general_coupling_ctx
        nl = ctx.interface.nl_minus
        nu_max = 5
        out = gamma_bound_sweep(ctx, nl, nu_max)
        itf = ctx.interface
        cone = [(n, nu) for nu in range(1, nu_max) for n in range(-nu, nu + 1)]

        def profile(order, cmax, chi):
            level = {}
            for fs in itertools.product(cone, repeat=order):
                n, nu = sum(f[0] for f in fs), sum(f[1] for f in fs)
                if nu > nu_max:
                    continue
                mag = (abs(ctx.omega(n, nu)) * itf.eps0 * itf.mu0**order
                       * cmax * abs(chi(*(ctx.omega(*f) for f in fs))))
                level[nu] = max(level.get(nu, 0.0), mag)
            return sorted(level.items())

        c2max = float(np.max(np.abs(nl.c2)))
        c3max = float(np.max(np.abs(nl.c3)))
        assert out["beta_profile"] == profile(
            2, c2max, nl._scalar_chi2_truncated)
        assert out["gamma_profile"] == profile(
            3, c3max, nl._scalar_chi3_truncated)

    def test_bundled_sweep_pinned(self):
        """The sweep at nu_max 8 on the bundled config, which reads the
        values its fill returns, gives the constants and profiles of the
        per-sample scalar lookups it replaced."""
        cfg = load_config()
        nl = cfg.interface.nl_minus or cfg.interface.nl_plus
        out = gamma_bound_sweep(cfg.context(), nl, 8)
        assert out == {
            "nu_max": 8,
            "c_beta": 7.540505502284027e-05,
            "c_gamma": 1.3130451560748585e-07,
            "beta_profile": [
                (2, 0.00015862410082406929), (3, 0.00024058478593831184),
                (4, 0.0003243057443023698), (5, 0.0004092094596410433),
                (6, 0.0004956211311737829), (7, 0.0005827194720849122),
                (8, 0.000671055587147185)],
            "gamma_profile": [
                (3, 4.3222005297218187e-07), (4, 5.822964153061636e-07),
                (5, 7.353825277825787e-07), (6, 8.914814537132662e-07),
                (7, 1.048894602893758e-06), (8, 1.2088057354161953e-06)],
            "violations": 0,
        }

    def test_samples_every_multiset_once(self, ctx, nl, monkeypatch):
        """The sweep samples one ordering of every multiset of cone points
        of either parity, none twice."""
        nu_max = 5
        sampled = []
        fill = NonlinearSusceptibility.fill_cache

        def spy(self, tuples):
            tuples = list(tuples)
            sampled.extend(tuples)
            return fill(self, tuples)

        monkeypatch.setattr(NonlinearSusceptibility, "fill_cache", spy)
        gamma_bound_sweep(ctx, nl, nu_max)
        cone = [(n, nu) for nu in range(1, nu_max) for n in range(-nu, nu + 1)]
        want = {tuple(sorted(fs)) for order in (2, 3)
                for fs in itertools.product(cone, repeat=order)
                if sum(f[1] for f in fs) <= nu_max}

        def key(ws):
            return tuple(sorted((w.real, w.imag) for w in ws))

        assert sorted(map(key, sampled)) == sorted(
            key([ctx.omega(*f) for f in fs]) for fs in want)


class TestDrudeDemo:
    def test_param_validation(self):
        with pytest.raises(ConfigError):
            DrudeParams(c_D=-1.0, gamma=0.5, alpha=2.0, k=3.0)
        with pytest.raises(ConfigError):
            DrudeParams(c_D=4.0, gamma=0.0, alpha=2.0, k=3.0)
        # alpha > 0, the bound of the constant side and of every config
        for alpha in (-2.0, -0.5, 0.0):
            with pytest.raises(ConfigError):
                DrudeParams(c_D=4.0, gamma=0.5, alpha=alpha, k=3.0)

    def test_counts_vanish_for_long_windows(self):
        p = DrudeParams(c_D=4.0, gamma=0.5, alpha=2.0, k=3.0)
        demo = drude_truncation_demo(p)
        assert demo["untruncated_count"] == 4
        # spurious zeros present for the short window, gone for long ones
        counts = dict(demo["counts"])
        assert counts[50.0] >= 1
        assert counts[1000.0] == 0

    def test_quartic_is_the_drude_expansion(self):
        """The shared dispersion quartic of a Drude context against
        (w^2 + i gamma w)(k^2 eps_+/eps0 + k^2 - mu0 eps_+ w^2)
        - c_D (k^2 - mu0 eps_+ w^2) written out directly."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = DrudeParams(c_D=rng.uniform(0.1, 10.0),
                            gamma=rng.uniform(0.05, 3.0),
                            alpha=rng.uniform(0.1, 5.0),
                            k=rng.uniform(0.1, 5.0),
                            eps0=rng.uniform(0.5, 2.0),
                            mu0=rng.uniform(0.5, 2.0))
            eps_p = p.eps0 * (1.0 + p.alpha)
            w = rng.normal(size=8) + 1j * rng.normal(size=8)
            q = p.k**2 - p.mu0 * eps_p * w * w
            direct = ((w * w + 1j * p.gamma * w)
                      * (p.k**2 * eps_p / p.eps0 + q) - p.c_D * q)
            quartic = _quartic_coeffs(p.context(), 1)
            got = np.polyval(quartic, w)
            scale = np.polyval(np.abs(quartic), np.abs(w))
            assert np.all(np.abs(got - direct) <= 1e-13 * scale)

    def test_untruncated_roots_in_strip(self):
        p = DrudeParams(c_D=4.0, gamma=0.5, alpha=2.0, k=3.0)
        demo = drude_truncation_demo(p)
        for r in demo["untruncated_roots"]:
            assert -p.gamma < r.imag < 0
