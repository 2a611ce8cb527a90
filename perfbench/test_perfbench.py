"""Tests of the benchmark's checks, oracles and tracer.

Each check must accept the program's output on a reduced reference case
(the oracles agree with the program) and reject the same output after a
small deliberate change.  Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import copy
import json
import math
import os

import numpy as np
import pytest

import oracles
import verify
from tracer import TARGETS, Tracer, layer_metrics
from workloads import (
    Contour,
    Workload,
    capture,
    digest_tree,
    read_modes,
    relative_gap,
    run_cli,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG = os.path.join(ROOT, "src", "breather", "data", "example_paper.json")

with open(CONFIG) as _fh:
    RAW = json.load(_fh)
ITF = oracles.Interface.from_config(RAW)
OSC = oracles.Oscillator.from_config(RAW)


@pytest.fixture(scope="module")
def series_out(tmp_path_factory):
    """breather breather on a reduced cone and grid, twice."""
    runs = []
    for i in range(2):
        out = str(tmp_path_factory.mktemp(f"series{i}"))
        sink = {}
        with capture("breather.cli", "build_series", sink):
            rc, _ = run_cli(["breather", "--out", out, "--nu-max", "7",
                             "--grid-n", "400"])
        assert rc == 0
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        runs.append({
            "table": sink["build_series"][1],
            "manifest": manifest,
            "modes": read_modes(out, manifest["mode_files"]),
            "digests": digest_tree(out),
        })
    return runs


@pytest.fixture
def table(series_out):
    """A copy of the reference table whose harmonics a test may change."""
    tab = copy.copy(series_out[0]["table"])
    tab.entries = copy.deepcopy(tab.entries)
    tab.h_entries = copy.deepcopy(tab.h_entries)
    for gf in tab.entries.values():
        gf.__dict__.pop("_conj", None)
    return tab


@pytest.fixture(scope="module")
def check_report(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("check"))
    sink = {}
    with capture("breather.cli", "gamma_bound_sweep", sink):
        rc, _ = run_cli(["check", "--drude-demo", "--sweep-nu", "3",
                         "--out", out])
    assert rc == 0
    with open(os.path.join(out, "check_report.json")) as fh:
        return json.load(fh), sink["gamma_bound_sweep"][0][0]


@pytest.fixture(scope="module")
def delta0_rows():
    from breather.config import load_config
    from breather.pencil import PencilContext, delta0_search

    cfg = load_config(CONFIG)
    probe = PencilContext(cfg.interface, cfg.k, None)
    return [(j, ITF.window(j), delta0_search(probe, 1, ITF.window(j),
                                             a=Contour.DELTA0_HALFWIDTH))
            for j in Contour.SCHEDULE]


# ----------------------------------------------------------------------
# Eigenvalue and transforms
# ----------------------------------------------------------------------

def test_eigenvalue_checks(series_out):
    w0 = complex(*series_out[0]["manifest"]["eigenvalue"])
    assert verify.check_eigenvalue(ITF, w0) == []
    assert verify.check_seed_root(ITF, w0) == []
    shifted = w0 * (1 + 1e-6)
    assert verify.check_eigenvalue(ITF, shifted)
    assert verify.check_seed_root(ITF, shifted)


def test_chi_values(series_out):
    table = series_out[0]["table"]
    nl = table.ctx.interface.nl_minus
    w = Workload(ROOT, ROOT, seed=5)
    values = w.chi_values(nl, table.ctx.omega, 7, 3)
    assert w.check_chi(values) == []
    freqs, got = values[-1]
    values[-1] = (freqs, got * (1 + 1e-6))
    assert len(w.check_chi(values)) == 1


# ----------------------------------------------------------------------
# The harmonic table
# ----------------------------------------------------------------------

def test_conjugate_pairs(table):
    assert verify.check_conjugate_pairs(table) == []
    table.get(-2, 2).U[7] += 1e-6 * np.max(np.abs(table.get(2, 2).U))
    assert verify.check_conjugate_pairs(table)


def test_odd_harmonics_vanish(table, series_out):
    modes = series_out[0]["modes"]
    assert verify.check_odd_vanish(table, modes) == []
    assert sum(not np.any(c) for c in modes.values()) > 0
    table.entries[(1, 2)].V[3] = 1e-300
    assert verify.check_odd_vanish(table, modes)
    modes = dict(modes)
    modes[(0, 3)] = modes[(0, 3)].copy()
    modes[(0, 3)][10, 2] = 1e-300
    assert verify.check_odd_vanish(series_out[0]["table"], modes)


def test_residuals(table):
    omega = table.ctx.omega
    assert verify.check_residuals(ITF, table, omega) == []
    gf = table.entries[(2, 4)]
    gf.U *= 1 + 1e-6
    gf.V *= 1 + 1e-6
    bad = verify.check_residuals(ITF, table, omega)
    assert bad and all("(2,4)" in msg for msg in bad)


def test_level_norms(series_out, table):
    norms = {int(k): v for k, v in series_out[0]["manifest"]["norms"].items()}
    defined = verify.level_norms(table, ITF.k)
    assert verify.check_decay(norms, defined) == []
    bumped = dict(norms)
    bumped[3] *= 1 + 1e-6
    assert verify.check_decay(bumped, defined)
    grown = dict(norms)
    grown[6] = 2.0 * grown[5]
    assert verify.check_decay(grown, verify.level_norms(table, ITF.k))


def test_fields(table):
    from breather.series import synthesize

    samples = [(np.linspace(-20.0, 20.0, 41), 0.3, 0.7)]
    assert verify.check_fields(table, ITF.k, samples, synthesize) == []
    assert verify.check_fields(
        table, ITF.k, samples,
        lambda tb, x, y, t: synthesize(tb, x, y * (1 + 1e-6), t))
    table.entries[(0, 2)].U *= 1 + 1e-3j
    assert verify.check_fields(table, ITF.k, samples, synthesize)


def test_artifacts_identical(series_out):
    digests = [r["digests"] for r in series_out]
    assert verify.check_identical(digests) == []
    changed = dict(digests[1])
    name = sorted(changed)[0]
    changed[name] = "0" * 64
    assert verify.check_identical([digests[0], changed])


# ----------------------------------------------------------------------
# Grid refinement and solver agreement
# ----------------------------------------------------------------------

def test_ladder():
    from breather.cli import manufactured_rhs
    from breather.config import load_config
    from breather.resolvent import fd_convergence_study

    ctx = load_config(CONFIG).context()
    study = fd_convergence_study(ctx, 1, 2, manufactured_rhs(ctx),
                                 [1000, 2000, 4000], d=40.0)
    assert verify.check_ladder(study["table"], study["slope"]) == []
    first_order = [(N, e * 4.0 ** i) for i, (N, e)
                   in enumerate(study["table"])]
    assert verify.check_ladder(study["table"], -1.0)
    assert verify.check_ladder(first_order, study["slope"])


def test_second_order_against_analytic():
    """FD and analytic builds of the seed's first level agree to second
    order; a gap that only halves with h does not pass."""
    from breather.config import load_config
    from breather.resolvent import StaggeredGrid
    from breather.series import build_series

    cfg = load_config(CONFIG)
    ctx = cfg.context()
    gaps = []
    for N in (1000, 4000):
        grid = StaggeredGrid(cfg.grid_d, N)
        fd = build_series(ctx, grid, cfg.eps, 2, solver="fd")
        an = build_series(ctx, grid, cfg.eps, 2, solver="analytic")
        gaps.append(relative_gap(fd.entries[(2, 2)], an.entries[(2, 2)],
                                 grid.h))
    assert verify.second_order(gaps[0], gaps[1], 4.0)
    assert not verify.second_order(gaps[0], gaps[0] / 4.0, 4.0)
    assert verify.second_order(0.0, 0.0, 4.0)


# ----------------------------------------------------------------------
# Contour quadrature
# ----------------------------------------------------------------------

def test_winding():
    from breather.config import load_config
    from breather.pencil import ContourRectangle, PencilContext, winding_count

    cfg = load_config(CONFIG)
    probe = PencilContext(cfg.interface, cfg.k, None)
    bottom = -ITF.gamma + 0.05
    count = winding_count(probe, 1, cfg.T,
                          ContourRectangle(a=20.0, y_top=0.0,
                                           y_bottom=bottom))
    assert verify.check_winding(ITF, count, 20.0, bottom) == []
    assert verify.check_winding(ITF, count + 1, 20.0, bottom)


def test_delta0(delta0_rows):
    a, tol = Contour.DELTA0_HALFWIDTH, Contour.DELTA0_TOL
    assert verify.check_delta0(ITF, delta0_rows, a, tol) == []
    assert verify.check_delta0_scaling(delta0_rows) == []
    j, T, d = delta0_rows[-1]
    shifted = delta0_rows[:-1] + [(j, T, d + tol)]
    assert verify.check_delta0(ITF, shifted, a, tol)
    lower = delta0_rows[:-1] + [(j, T, 0.9 * d)]
    assert verify.check_delta0(ITF, lower, a, tol)
    squared = [(j, T, 100.0 / T**2) for j, T, _ in delta0_rows]
    assert verify.check_delta0_scaling(squared)


# ----------------------------------------------------------------------
# Assumption report
# ----------------------------------------------------------------------

def test_assumptions(check_report):
    report, _ = check_report
    assert verify.check_assumptions(report["assumptions"]) == []
    bad = copy.deepcopy(report["assumptions"])
    for r in bad["results"]:
        if r["name"] == "B3":
            r["margin"] += 0.01
    assert verify.check_assumptions(bad)


def test_cone(check_report):
    report, _ = check_report
    cone = report["cone"]
    assert verify.check_cone(cone, int(RAW["nu_max"])) == []
    assert verify.check_cone(dict(cone, violations=[[2, 3, "point_spec"]]),
                             int(RAW["nu_max"]))
    assert verify.check_cone(dict(cone, checked=cone["checked"] - 1),
                             int(RAW["nu_max"]))


def test_drude(check_report):
    report, _ = check_report
    demo = report["drude_demo"]
    args = (4.0, float(RAW["gamma"]), float(RAW["alpha"]), float(RAW["k"]))
    assert verify.check_drude(demo, *args) == []
    late = copy.deepcopy(demo)
    late["counts"][-1][1] = 1
    assert verify.check_drude(late, *args)
    moved = copy.deepcopy(demo)
    moved["untruncated_roots"][0][0] *= 1 + 1e-6
    assert verify.check_drude(moved, *args)


def test_sweep_levels(check_report):
    report, ctx = check_report
    sweep = report["nonlinear_bounds"]
    args = (OSC, sweep, ctx.omega, 1.0, 1.0, float(RAW["c2"]),
            float(RAW["c3"]))
    assert verify.check_sweep_level(*args) == []
    bad = copy.deepcopy(sweep)
    bad["beta_profile"][0][1] *= 1 + 1e-6
    assert verify.check_sweep_level(OSC, bad, *args[2:])


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------

def test_tracer_counts_and_restores(tmp_path):
    import breather.series

    original = breather.series.solve_fd
    with Tracer() as tr:
        tr.install(TARGETS)
        rc, _ = run_cli(["breather", "--out", str(tmp_path), "--nu-max",
                         "3", "--grid-n", "200"])
    assert rc == 0
    assert breather.series.solve_fd is original
    values = layer_metrics(tr)
    assert values["series.assemble_h_calls"] == 7      # n = 0..nu, nu = 2, 3
    assert values["series.zero_sources"] == 3          # n + nu odd
    assert values["resolvent.solve_fd_calls"] == 4
    assert 0 < values["susceptibility.chi3_evals"] <= values[
        "susceptibility.chi3_calls"]
    assert values["cli.artifact_files"] > 0
    assert tr.span_count > 0 and not tr.unmeasured
    spans = tr.dump()["spans"]
    assert all(start <= end for _, start, end, _ in spans)


def test_tracer_reports_missing_function_as_unmeasured(tmp_path,
                                                      monkeypatch):
    import breather.cli

    monkeypatch.delattr(breather.cli, "delta0_search")
    with Tracer() as tr:
        tr.install(TARGETS)
        rc, _ = run_cli(["breather", "--out", str(tmp_path), "--nu-max",
                         "2", "--grid-n", "200"])
    assert rc == 0
    assert tr.unmeasured == ["breather.cli.delta0_search"]
    values = layer_metrics(tr)
    assert values["pencil.delta0_s"] is None
    assert values["series.assemble_h_calls"] == 3
    assert not math.isnan(values["susceptibility.chi_self_s"])
