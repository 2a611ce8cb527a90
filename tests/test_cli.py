"""End-to-end runs of the command-line verbs on reduced budgets."""

from __future__ import annotations

import csv
import importlib
import json
import logging
import os
import pkgutil
import re
import subprocess
import sys

import numpy as np
import pytest

import breather
from breather.cli import _cells, _write_csv, main
from breather.config import default_config_path

from conftest import OMEGA0_REF


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _row_cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return int(v)
    return v


def _row_write_csv(path, header, rows):
    """The per-cell row writer the column writer replaced: the oracle."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_row_cell(v) for v in row])


class TestWriteCsv:
    FLOATS = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 0.1,
                       -1.0 / 3.0, 2.0])
    HEADER = ["j", "N", "a", "b", "c"]

    def columns(self, count):
        floats = self.FLOATS[:count]
        return [
            list(range(99, 99 + count)),            # Python ints
            np.arange(-4, count - 4) * 25,          # numpy ints
            floats,                                 # numpy float64
            [-float(v) for v in floats],            # Python floats
            floats[::-1].copy(),
        ]

    @pytest.mark.parametrize("count", [0, 1, len(FLOATS)])
    def test_same_bytes_as_row_writer(self, tmp_path, count):
        cols = self.columns(count)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        _write_csv(str(new), self.HEADER, cols)
        _row_write_csv(str(old), self.HEADER, list(zip(*cols)))
        assert new.read_bytes() == old.read_bytes()
        assert new.read_bytes().count(b"\r\n") == count + 1

    def test_lead_column(self, tmp_path):
        """A first column passed formatted (the shared x column) writes
        the same bytes as its values, and integers print without a '.0'."""
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cols = self.columns(len(self.FLOATS))
        _write_csv(str(a), self.HEADER, cols)
        _write_csv(str(b), self.HEADER, cols[1:], lead=_cells(cols[0]))
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[1].startswith("99,-100,nan,")

    @pytest.mark.parametrize("zeros", [
        [0.0, 0.0, 0.0],
        [-0.0, -0.0, -0.0],
        [0.0, -0.0, 0.0],
        [0.0, 0.0, 5e-324],
        [0.0, np.nan, 0.0],
    ])
    def test_zero_columns(self, tmp_path, zeros):
        """The all-+0.0 shortcut gives the row writer's bytes, and any
        -0.0, subnormal or nan keeps the per-value repr."""
        cols = [np.array(zeros), np.zeros(3), [0, 0, 0]]
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        _write_csv(str(new), ["a", "b", "c"], cols)
        _row_write_csv(str(old), ["a", "b", "c"], list(zip(*cols)))
        assert new.read_bytes() == old.read_bytes()

    def test_rows_across_blocks(self, tmp_path):
        x = np.linspace(-1.0, 1.0, 1001)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        _write_csv(str(new), ["x", "y"], [x, np.sin(x)])
        _row_write_csv(str(old), ["x", "y"], list(zip(x, np.sin(x))))
        assert new.read_bytes() == old.read_bytes()


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

    def test_delta0_deterministic_bytes(self, tmp_path):
        args = ["spectrum", "--winding", "--delta0", "--t-schedule", "21,201"]
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        names = sorted(os.listdir(a))
        assert names == sorted(os.listdir(b))
        assert {"delta0.csv", "delta0.svg", "spectrum.json"} <= set(names)
        for name in names:
            with open(os.path.join(a, name), "rb") as fa, \
                    open(os.path.join(b, name), "rb") as fb:
                assert fa.read() == fb.read()
        with open(os.path.join(a, "delta0.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["j"] for row in rows] == ["21", "201"]


class TestEigen:
    def test_outputs(self, tmp_path):
        out = str(tmp_path)
        assert main(["eigen", "--out", out]) == 0
        man = read_json(os.path.join(out, "eigen.json"))
        assert abs(complex(*man["eigenvalue"]) - OMEGA0_REF) < 1e-10
        with open(os.path.join(out, "eigenfunction.svg")) as fh:
            svg = fh.read()
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
        written = {
            tuple(int(v) for v in re.fullmatch(
                r"mode_n(\d+)_nu(\d+)\.csv", os.path.basename(rel)).groups())
            for rel in man["mode_files"]
        }
        # the n >= 0 cone, less (0, 1), which level 1 never stores
        assert written == {(n, nu) for nu in range(1, 4)
                           for n in range(nu + 1)} - {(0, 1)}
        assert len(os.listdir(os.path.join(out, "modes"))) == len(written)
        # n + nu odd: zero for any couplings (the quadratic and cubic
        # sums preserve the parity of n - nu); n + nu even: not zero
        for n, nu in written:
            path = os.path.join(out, "modes", f"mode_n{n}_nu{nu}.csv")
            data = np.loadtxt(path, delimiter=",", skiprows=1)[:, 1:]
            assert np.any(data) == ((n + nu) % 2 == 0), (n, nu)
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
                with open(pa, "rb") as fa, open(pb, "rb") as fb:
                    assert fa.read() == fb.read()

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
        assert main(["check", "--drude-demo", "--sweep-nu", "2",
                     "--out", out]) == 0
        demo = read_json(os.path.join(out, "check_report.json"))["drude_demo"]
        assert demo["untruncated_count"] >= 1
        assert demo["counts"][-1][1] == 0

    def test_one_route(self, tmp_path, capsys):
        """The counts are written by ``check --drude-demo`` only: there
        is no ``drude-demo`` verb."""
        with pytest.raises(SystemExit) as exc:
            main(["drude-demo", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "invalid choice: 'drude-demo'" in capsys.readouterr().err
        assert not os.listdir(tmp_path)


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

    @pytest.mark.parametrize("verb, key", [
        (["eigen"], "nu_max"),
        (["check", "--drude-demo", "--sweep-nu", "2"], "c_D"),
    ], ids=["eigen-nu_max", "drude-demo-c_D"])
    def test_malformed_value_exit_two(self, tmp_path, capsys, verb, key):
        data = read_json(default_config_path())
        data[key] = "x"
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        code = main(verb + ["--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert f"'{key}'" in err["message"]

    def test_check_without_memory_window_exit_two(self, tmp_path, capsys):
        """With no 'j' or 'T' the minus side is untruncated: the cone
        cannot be classified, and check says so instead of crashing."""
        data = read_json(default_config_path())
        del data["j"]
        path = tmp_path / "untruncated.json"
        path.write_text(json.dumps(data))
        code = main(["check", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ModelError"
        assert "memory window" in err["message"]

    @pytest.mark.parametrize("omega0", [None, [3.9, -0.1]])
    def test_eigen_on_drude_config_exit_two(self, tmp_path, capsys, omega0):
        """The eigenvalue verbs rest on the Lorentz metal.  A Drude config,
        with or without a configured seed, stops with a ModelError rather
        than refining a root outside the model's strip."""
        data = read_json(default_config_path())
        del data["j"]
        data.update(model="drude", c_D=4.0, T=50.0, nonlinear_sides=[])
        if omega0 is not None:
            data["omega0"] = omega0
        path = tmp_path / "drude.json"
        path.write_text(json.dumps(data))
        code = main(["eigen", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ModelError"
        assert "Lorentz" in err["message"]

    def test_constant_model_rejected(self, tmp_path, capsys):
        data = read_json(default_config_path())
        data.update(model="constant", alpha_minus=1.5, omega0=[1.0, -0.1])
        path = tmp_path / "constant.json"
        path.write_text(json.dumps(data))
        code = main(["eigen", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "unknown model 'constant'" in err["message"]

    def test_eigen_seed_below_memory_line_exit_two(self, tmp_path, capsys):
        """A configured seed far below Im = -gamma stops Newton with a
        NoConvergence line, not an overflow traceback."""
        data = read_json(default_config_path())
        data["omega0"] = [1.0, -1.0]
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(data))
        code = main(["eigen", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "NoConvergence"


class TestLogging:
    @pytest.mark.parametrize("j", ["101", "501"])
    def test_depth_cap_warning_lines(self, tmp_path, capsys, j):
        """Each in-process run prints its one depth-cap warning once, with
        level and logger, and leaves no handler behind.  At j = 501 the
        deepest contour would add a second warning; the search does not
        count it."""
        handlers = list(logging.getLogger("breather").handlers)
        args = ["spectrum", "--delta0", "--t-schedule", j]
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
    @staticmethod
    def loaded_after(code, modules):
        """The modules of ``modules`` loaded after running code in a fresh
        interpreter on this package's source."""
        src = os.path.dirname(os.path.dirname(breather.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        code += (f"\nimport sys; print(sorted(m for m in {modules!r} "
                 "if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip().splitlines()[-1]

    def test_cli_skips_sparse_and_signal(self):
        """Neither scipy.sparse nor scipy.signal is loaded by the CLI; each
        costs start-up time and resident memory on every verb."""
        modules = ("scipy.sparse", "scipy.signal")
        assert self.loaded_after("import breather.cli", modules) == "[]"

    @pytest.mark.parametrize("argv, loaded", [
        (None, "[]"),
        (["spectrum"], "[]"),
        (["check", "--nu-max", "6"], "[]"),
        (["breather", "--nu-max", "2", "--grid-n", "4"], "['scipy.linalg']"),
    ], ids=["import", "spectrum", "check", "breather"])
    def test_only_a_solve_loads_linalg(self, tmp_path, argv, loaded):
        """scipy.linalg is imported where a solve runs, so neither the
        import of the CLI nor the verbs that run no solve load it."""
        code = "from breather.cli import main"
        if argv is not None:
            code += f"\nassert main({argv + ['--out', str(tmp_path)]!r}) == 0"
        assert self.loaded_after(code, ("scipy.linalg",)) == loaded


class TestPublicNames:
    @pytest.mark.parametrize(
        "module", sorted(m.name for m in pkgutil.iter_modules(breather.__path__)))
    def test_all_names_resolve(self, module):
        """A deleted function cannot leave a stale export behind."""
        mod = importlib.import_module(f"breather.{module}")
        names = getattr(mod, "__all__", [])
        assert [n for n in names if not hasattr(mod, n)] == []
