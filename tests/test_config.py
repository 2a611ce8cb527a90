"""JSON configuration loading, overrides, and validation errors."""

from __future__ import annotations

import json

import pytest

from breather.config import config_from_dict, load_config
from breather.errors import ConfigError
from breather.susceptibility import TruncatedLorentz

from conftest import OMEGA0_REF, T_REF


def base_dict():
    return {
        "model": "lorentz", "c_L": 20.0, "gamma": 0.5, "omega_star": 2.0,
        "j": 1001, "alpha": 2.0, "k": 3.0,
        "c2": 2000.0, "c3": 1000.0, "gamma_tilde": 1.0,
        "omega_star_tilde": 3.0, "T_N": 0.12,
        "nonlinear_sides": ["minus", "plus"],
        "grid": {"d": 40.0, "N": 2000}, "eps": 0.5, "nu_max": 10,
    }


class TestBundledExample:
    def test_loads_and_refines(self):
        cfg = load_config()
        assert isinstance(cfg.interface.minus, TruncatedLorentz)
        assert cfg.T == pytest.approx(T_REF)
        ctx = cfg.context()
        assert abs(ctx.omega0 - OMEGA0_REF) < 1e-10

    def test_overrides(self):
        cfg = load_config(eps=0.25, nu_max=3, grid_n=400, solver="analytic")
        assert cfg.eps == 0.25 and cfg.nu_max == 3
        assert cfg.grid_n == 400 and cfg.solver == "analytic"


class TestValidation:
    def test_unknown_key_kept_and_ignored(self):
        cfg = config_from_dict({**base_dict(), "threads": 4})
        assert cfg.raw["threads"] == 4 and not hasattr(cfg, "threads")

    def test_odd_grid_means_node_count(self):
        cfg = config_from_dict({**base_dict(), "grid": {"d": 40.0, "N": 2001}})
        assert cfg.grid_n == 2000

    def test_missing_field(self):
        d = base_dict()
        del d["k"]
        with pytest.raises(ConfigError, match="'k'"):
            config_from_dict(d)

    def test_even_window_index_rejected(self):
        with pytest.raises(ConfigError, match="odd"):
            config_from_dict({**base_dict(), "j": 1000})

    def test_t_and_j_exclusive(self):
        with pytest.raises(ConfigError, match="not both"):
            config_from_dict({**base_dict(), "T": 100.0})

    def test_overdamped_rejected(self):
        with pytest.raises(ConfigError, match="omega_star > gamma"):
            config_from_dict({**base_dict(), "gamma": 2.5})

    def test_nonlinear_window_vs_memory(self):
        with pytest.raises(ConfigError, match="T_N"):
            config_from_dict({**base_dict(), "T_N": 500.0})

    def test_bad_solver(self):
        with pytest.raises(ConfigError, match="solver"):
            config_from_dict({**base_dict(), "solver": "spectral"})

    def test_bad_omega0(self):
        with pytest.raises(ConfigError, match="omega0"):
            config_from_dict({**base_dict(), "omega0": 1.8})

    def test_bad_sides(self):
        with pytest.raises(ConfigError, match="nonlinear_sides"):
            config_from_dict({**base_dict(), "nonlinear_sides": ["left"]})

    def test_invalid_json_reports_location(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{\n  'single': 1\n}")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(p))

    def test_linear_config(self):
        d = base_dict()
        d["nonlinear_sides"] = []
        cfg = config_from_dict(d)
        assert cfg.interface.nl_minus is None
        assert cfg.interface.nl_plus is None

    @pytest.mark.parametrize("key, value, match", [
        ("eps0", "x", "'eps0' must be float"),
        ("mu0", [1.0], "'mu0' must be float"),
        ("T", "100", "'T' must be float"),
        ("eps", "0.5", "'eps' must be float"),
        ("nu_max", "x", "'nu_max' must be int"),
        ("nu_max", 2.9, "'nu_max' must be int"),
        ("nu_max", True, "'nu_max' must be int"),
        ("grid", {"d": "40", "N": 2000}, "'d' must be float"),
        ("grid", {"d": 40.0, "N": 300.9}, "'N' must be int"),
        ("c2", "x", "'c2'"),
        ("c2", [[["x"] * 3] * 3] * 3, "'c2'"),
        ("c3", [[1.0, 2.0]], "'c3'"),
        ("omega0", ["1.8", -0.1], "omega0"),
        ("omega0", [1.8, None], "omega0"),
    ])
    def test_malformed_value(self, key, value, match):
        """Every typed field is type-checked: a malformed value raises
        ConfigError naming it, and no float is truncated to an int."""
        with pytest.raises(ConfigError, match=match):
            config_from_dict({**base_dict(), key: value})

    def test_explicit_omega0_pair(self):
        d = {**base_dict(), "omega0": [1.8178532310080142,
                                       -0.14883348930017135]}
        cfg = config_from_dict(d)
        assert cfg.omega0 == OMEGA0_REF
