"""End-to-end runs of the command-line verbs on reduced budgets."""

from __future__ import annotations

import json
import logging
import os
import re
import subprocess
import sys

import pytest

import breather
from breather.cli import main

from conftest import OMEGA0_REF


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestSpectrum:
    def test_outputs(self, tmp_path):
        out = str(tmp_path)
        assert main(["spectrum", "--out", out]) == 0
        man = read_json(os.path.join(out, "spectrum.json"))
        w = complex(*man["eigenvalue"])
        assert abs(w - OMEGA0_REF) < 5e-4
        assert len(man["untruncated_roots"]) == 4
        assert os.path.exists(os.path.join(out, "untruncated_roots.csv"))
        assert os.path.exists(os.path.join(out, "eigenvalues.csv"))

    def test_winding_flag(self, tmp_path):
        out = str(tmp_path)
        assert main(["spectrum", "--out", out, "--winding"]) == 0
        man = read_json(os.path.join(out, "spectrum.json"))
        assert man["winding"]["count"] == 4


class TestEigen:
    def test_outputs(self, tmp_path):
        out = str(tmp_path)
        assert main(["eigen", "--out", out]) == 0
        man = read_json(os.path.join(out, "eigen.json"))
        assert abs(complex(*man["eigenvalue"]) - OMEGA0_REF) < 1e-10
        svg = open(os.path.join(out, "eigenfunction.svg")).read()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


class TestBreather:
    ARGS = ["breather", "--nu-max", "3", "--grid-n", "400"]

    def test_outputs(self, tmp_path):
        out = str(tmp_path)
        assert main(self.ARGS + ["--out", out]) == 0
        man = read_json(os.path.join(out, "manifest.json"))
        assert man["nu_max"] == 3
        assert set(man["norms"]) == {"1", "2", "3"}
        for rel in man["mode_files"]:
            assert os.path.exists(os.path.join(out, rel))
        for name in ("decay.csv", "decay.svg", "overlay_psi1.svg",
                     "overlay_psi2.svg", "overlay_psi3.svg"):
            assert os.path.exists(os.path.join(out, name))

    def test_deterministic_bytes(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(self.ARGS + ["--out", a]) == 0
        assert main(self.ARGS + ["--out", b]) == 0
        for root, _, names in os.walk(a):
            for name in names:
                pa = os.path.join(root, name)
                pb = pa.replace(a, b, 1)
                assert open(pa, "rb").read() == open(pb, "rb").read()

    def test_coarsest_grid(self, tmp_path):
        """N = 4, the smallest grid the config accepts, leaves the
        vectorized stencil blocks empty on both sides."""
        out = str(tmp_path)
        assert main(["breather", "--nu-max", "2", "--grid-n", "4",
                     "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "manifest.json"))

    def test_zero_amplitude(self, tmp_path):
        out = str(tmp_path)
        assert main(self.ARGS + ["--seed-eps", "0", "--out", out]) == 0
        man = read_json(os.path.join(out, "manifest.json"))
        assert all(v == 0.0 for v in man["norms"].values())


class TestCheck:
    def test_report_and_exit_code(self, tmp_path):
        out = str(tmp_path)
        assert main(["check", "--out", out, "--nu-max", "6"]) == 0
        rep = read_json(os.path.join(out, "check_report.json"))
        names = {r["name"]: r["status"] for r in
                 rep["assumptions"]["results"]}
        assert names["B3"] == "pass" and names["B7"] == "unverifiable"
        assert rep["cone"]["violations"] == []
        assert rep["nonlinear_bounds"]["c_beta"] > 0


class TestDrudeDemo:
    def test_counts(self, tmp_path):
        out = str(tmp_path)
        assert main(["drude-demo", "--out", out]) == 0
        demo = read_json(os.path.join(out, "drude_demo.json"))
        assert demo["untruncated_count"] >= 1
        assert demo["counts"][-1][1] == 0


class TestConverge:
    def test_small_budget(self, tmp_path):
        out = str(tmp_path)
        assert main([
            "converge", "--out", out,
            "--n-list", "500,1000,2000", "--t-schedule", "51,101",
        ]) == 0
        man = read_json(os.path.join(out, "converge.json"))
        assert -2.6 < man["fd_slope"] < -1.5


class TestErrors:
    def test_bad_config_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code = main(["eigen", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"


class TestLogging:
    def test_depth_cap_warning_lines(self, tmp_path, capsys):
        """Each in-process run prints its one depth-cap warning once, with
        level and logger, and leaves no handler behind."""
        handlers = list(logging.getLogger("breather").handlers)
        args = ["spectrum", "--delta0", "--t-schedule", "101"]
        for name in ("a", "b"):
            assert main(args + ["--out", str(tmp_path / name)]) == 0
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1
            assert re.match(r"WARNING breather\.pencil: contour .* depth cap",
                            lines[0])
            assert logging.getLogger("breather").handlers == handlers


    def test_no_second_copy_through_root(self, tmp_path, capsys):
        """A caller's root handler does not print the warnings again, and
        the logger's propagation is restored afterwards."""
        records = []
        collect = logging.Handler()
        collect.emit = records.append
        root, logger = logging.getLogger(), logging.getLogger("breather")
        root.addHandler(collect)
        try:
            assert main(["spectrum", "--delta0", "--t-schedule", "101",
                         "--out", str(tmp_path)]) == 0
        finally:
            root.removeHandler(collect)
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert records == []
        assert logger.propagate


class TestImportFootprint:
    def test_cli_skips_sparse_and_signal(self):
        """Neither scipy.sparse nor scipy.signal is loaded by the CLI; each
        costs start-up time and resident memory on every verb."""
        src = os.path.dirname(os.path.dirname(breather.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        code = ("import sys, breather.cli; print(sorted(m for m in "
                "('scipy.sparse', 'scipy.signal') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
