"""End-to-end CLI runs: artifacts, determinism and exit codes."""

import argparse
import hashlib
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from qillum import (
    DomainError,
    ScenarioParams,
    TruncationSpec,
    build_rho0,
    build_rho1,
    half_erfc_sqrt,
    helstrom_single_shot,
    majority_vote_error,
    opa_error_exact,
    opa_error_gaussian,
    optimize_gain,
)
import qillum.cli
import qillum.receivers
from qillum.cli import _check_error_curves, _coherent_exponent, build_parser, main

from oracles import opa_bhattacharyya_exponent

FAST_CONFIG = """\
# low-background scenario, cheap to build
n_s = 0.01
kappa = 0.01
n_b = 1.0
gain = 1.005
"""


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(FAST_CONFIG, encoding="ascii")
    return path


def read_csv(path):
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0].startswith("# params=")
    digest = lines[0].split("=", 1)[1]
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return digest, header, rows


class TestVersion:
    def test_module_invocation(self):
        out = subprocess.run(
            [sys.executable, "-m", "qillum", "--version"],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "qillum 0.1.0"


class TestBoundsCommand:
    def test_artifact_layout(self, fast_config, tmp_path):
        out = tmp_path / "run"
        rc = main(["bounds", "--config", str(fast_config), "--out", str(out),
                   "--k-min", "10", "--k-max", "1000", "--k-points", "5"])
        assert rc == 0
        digest, header, rows = read_csv(out / "bounds.csv")
        assert len(digest) == 12
        assert header == ["K", "lower_classical", "upper_classical", "lower_quantum",
                          "upper_quantum", "homodyne", "opa_exact", "opa_gaussian"]
        ks = [int(r[0]) for r in rows]
        assert ks == sorted(set(ks)) and ks[0] == 10 and ks[-1] == 1000
        for row in rows:
            vals = [float(c) for c in row[1:]]
            assert all(v <= math.log10(0.5) + 1e-12 for v in vals)
            # sandwich ordering per transmitter
            assert vals[0] <= vals[1] + 1e-12
            assert vals[2] <= vals[3] + 1e-12

    def test_byte_determinism(self, fast_config, tmp_path):
        args = ["bounds", "--config", str(fast_config),
                "--k-min", "10", "--k-max", "1000", "--k-points", "5"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "bounds.csv").read_bytes() == (out2 / "bounds.csv").read_bytes()
        assert (out1 / "meta.txt").read_bytes() == (out2 / "meta.txt").read_bytes()

    def test_digest_tracks_tail_tolerance(self, fast_config, tmp_path):
        base = ["bounds", "--config", str(fast_config),
                "--k-min", "10", "--k-max", "100", "--k-points", "2"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2), "--tail-tol", "1e-8"]) == 0
        d1, _, _ = read_csv(out1 / "bounds.csv")
        d2, _, _ = read_csv(out2 / "bounds.csv")
        assert d1 != d2

    def test_kappa_zero_rows_are_analytic_chance(self, tmp_path):
        cfg = tmp_path / "dark.cfg"
        cfg.write_text("n_s = 0.01\nkappa = 0.0\nn_b = 20.0\n", encoding="ascii")
        out = tmp_path / "run"
        rc = main(["bounds", "--config", str(cfg), "--out", str(out),
                   "--k-min", "1", "--k-max", "100", "--k-points", "3"])
        assert rc == 0
        _, _, rows = read_csv(out / "bounds.csv")
        want = repr(math.log10(0.5))
        for row in rows:
            assert row[1:] == [want] * 7

    def test_meta_sidecar(self, fast_config, tmp_path):
        out = tmp_path / "run"
        main(["bounds", "--config", str(fast_config), "--out", str(out),
              "--k-min", "10", "--k-max", "100", "--k-points", "2"])
        meta = (out / "meta.txt").read_text(encoding="ascii").splitlines()
        digest, _, _ = read_csv(out / "bounds.csv")
        assert meta[0] == "tool=qillum 0.1.0"
        assert meta[1] == "command=bounds"
        assert meta[2] == f"params_digest={digest}"
        assert "n_b=1.0" in meta
        assert sum(1 for line in meta if line.startswith("command=")) == 1


@pytest.fixture()
def eigh_shapes(monkeypatch):
    """Shape of the argument of every numpy eigh call."""
    shapes = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return shapes


class TestOneEigensolvePerState:
    """Only helstrom decomposes a state, its zero-padded block stack in one
    call; the Chernoff overlaps of bounds and exponents are closed forms."""

    PARAMS = ScenarioParams(n_s=0.01, kappa=0.01, n_b=20.0)  # the CLI default

    def stack_shape(self):
        trunc = TruncationSpec.for_params(self.PARAMS, 1e-9)
        return build_rho0(self.PARAMS, trunc).stack.shape

    @pytest.mark.parametrize("command", ["bounds", "exponents"])
    def test_chernoff_commands_make_no_eigensolve(self, tmp_path, capsys, monkeypatch,
                                                  eigh_shapes, command):
        """Q_half and Q_min come from the closed form: no state, no eigh."""
        def no_state(*args, **kwargs):
            raise AssertionError(f"{command} built a Fock state")

        monkeypatch.setattr(qillum.cli, "build_rho0", no_state)
        monkeypatch.setattr(qillum.cli, "build_rho1", no_state)
        assert main([command, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert eigh_shapes == []

    def test_helstrom_is_one_eigensolve(self, tmp_path, eigh_shapes):
        """Only rho1 - rho0 is decomposed, in one stacked eigh."""
        assert main(["helstrom", "--out", str(tmp_path)]) == 0
        assert eigh_shapes == [self.stack_shape()]


class TestHelstromCommand:
    def test_first_row_matches_single_shot_values(self, fast_config, tmp_path):
        out = tmp_path / "run"
        rc = main(["helstrom", "--config", str(fast_config), "--out", str(out),
                   "--k-min", "1", "--k-max", "9", "--k-points", "3"])
        assert rc == 0
        _, header, rows = read_csv(out / "helstrom.csv")
        assert header == ["K", "opa_exact", "helstrom_majority_exact",
                          "helstrom_majority_clt"]
        assert int(rows[0][0]) == 1

        params = ScenarioParams(0.01, 0.01, 1.0)
        trunc = TruncationSpec.for_params(params, tail_tol=1e-9)
        res = helstrom_single_shot(build_rho0(params, trunc), build_rho1(params, trunc))
        pe_opa, _ = opa_error_exact(params, 1.005, 1, "paper_formula")
        assert float(rows[0][1]) == pytest.approx(math.log10(pe_opa), rel=1e-12)
        assert float(rows[0][2]) == pytest.approx(math.log10(res.pe_single), rel=1e-12)
        # with one voter the majority vote is the single decision itself
        assert majority_vote_error(res.pe_single, res.pe_single, 1) == pytest.approx(
            res.pe_single, rel=1e-12
        )

    def test_kappa_zero_constant(self, tmp_path):
        cfg = tmp_path / "dark.cfg"
        cfg.write_text("n_s = 0.01\nkappa = 0.0\nn_b = 20.0\n", encoding="ascii")
        out = tmp_path / "run"
        assert main(["helstrom", "--config", str(cfg), "--out", str(out),
                     "--k-min", "1", "--k-max", "9", "--k-points", "2"]) == 0
        _, _, rows = read_csv(out / "helstrom.csv")
        want = repr(math.log10(0.5))
        assert all(row[1:] == [want] * 3 for row in rows)

    @pytest.mark.parametrize("n_b", [0.05, 0.2, 1.0, 3.0])
    @pytest.mark.parametrize("kappa", [0.1, 0.5, 0.95])
    @pytest.mark.parametrize("n_s", [0.05, 0.3, 1.0])
    def test_return_cutoff_covers_the_target_present_state(self, tmp_path, n_s, kappa, n_b):
        """The return cutoff follows the H1 mean kappa n_s + n_b, so rho1 is
        never too short of unit trace, even with a bright idler on a dark
        background, and the single-shot advantage 1 - 2 pe has converged
        in the tail tolerance."""
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(f"n_s = {n_s}\nkappa = {kappa}\nn_b = {n_b}\n", encoding="ascii")
        advantage = []
        for tol in ("1e-9", "1e-12"):
            out = tmp_path / tol
            assert main(["helstrom", "--config", str(cfg), "--out", str(out), "--tail-tol", tol,
                         "--k-min", "1", "--k-max", "9", "--k-points", "2"]) == 0
            meta = (out / "meta.txt").read_text(encoding="ascii")
            pe = float(re.search(r"^note=helstrom single shot: pe=(\S+)", meta, re.M)[1])
            advantage.append(1.0 - 2.0 * pe)
        assert abs(advantage[0] - advantage[1]) <= 1e-6 * advantage[1]


class TestCountModel:
    """count_model picks the law behind the opa_exact column of bounds and
    helstrom; full counting keeps the bytes it always had."""

    GRID = ["--k-min", "10", "--k-max", "1000", "--k-points", "5",
            "--threshold-policy", "optimal_scan"]
    # digests of the full_counting runs: the rendered config without a k= line
    # (with k=1 they were 9cd9c61e3777 and 788d7e28ff49)
    DIGESTS = {"bounds": "6cc13f84ec03", "helstrom": "e81d6787094c"}
    OPA_COLUMN = {"bounds": 6, "helstrom": 1}

    def run(self, tmp_path, command, model):
        cfg = tmp_path / f"{model}.cfg"
        cfg.write_text(FAST_CONFIG + f"count_model = {model}\n", encoding="ascii")
        out = tmp_path / f"{command}-{model}"
        assert main([command, "--config", str(cfg), "--out", str(out)] + self.GRID) == 0
        meta = (out / "meta.txt").read_text(encoding="ascii").splitlines()
        assert f"note=count_model: {model}" in meta
        return read_csv(out / f"{command}.csv")

    @pytest.mark.parametrize("command", ["bounds", "helstrom"])
    def test_on_off_fills_opa_exact_from_click_counts(self, tmp_path, command):
        params = ScenarioParams(0.01, 0.01, 1.0)
        col = self.OPA_COLUMN[command]
        _, _, rows = self.run(tmp_path, command, "on_off")
        _, _, full_rows = self.run(tmp_path, command, "full_counting")
        for row, full_row in zip(rows, full_rows):
            pe = opa_error_exact(params, 1.005, int(row[0]), "optimal_scan",
                                 count_model="on_off")[0]
            assert row[col] == repr(math.log10(pe))
            assert row[col] != full_row[col]
            assert row[:col] + row[col + 1:] == full_row[:col] + full_row[col + 1:]

    @pytest.mark.parametrize("command", ["bounds", "helstrom"])
    def test_full_counting_unchanged(self, tmp_path, command):
        params = ScenarioParams(0.01, 0.01, 1.0)
        col = self.OPA_COLUMN[command]
        digest, _, rows = self.run(tmp_path, command, "full_counting")
        assert digest == self.DIGESTS[command]
        for row in rows:
            pe, _ = opa_error_exact(params, 1.005, int(row[0]), "optimal_scan")
            assert row[col] == repr(math.log10(pe))


class TestOpaGaussianColumn:
    def test_finite_in_the_deep_tail(self, tmp_path):
        """Bright return: erfc(sqrt(R_OPA K))/2 underflows near K = 1e8,
        but the column keeps the finite log10 leg."""
        cfg = tmp_path / "bright.cfg"
        cfg.write_text("n_s = 0.01\nkappa = 0.3\nn_b = 1.0\n", encoding="ascii")
        out = tmp_path / "run"
        assert main(["bounds", "--config", str(cfg), "--out", str(out),
                     "--k-min", "1e4", "--k-max", "1e8", "--k-points", "30"]) == 0
        _, header, rows = read_csv(out / "bounds.csv")
        col = header.index("opa_gaussian")
        values = [float(row[col]) for row in rows]
        assert int(rows[-1][0]) == 10**8
        assert all(math.isfinite(v) and v <= math.log10(0.5) for v in values)
        assert all(b <= a for a, b in zip(values, values[1:]))

        params = ScenarioParams(0.01, 0.3, 1.0)
        pe, r_opa = opa_error_gaussian(params, optimize_gain(params)[0], 10**8)
        assert pe == 0.0
        assert values[-1] == half_erfc_sqrt(r_opa * 10**8)[1]


class TestExponentsCommand:
    def test_reference_table(self, capsys):
        assert main(["exponents"]) == 0
        out = capsys.readouterr().out
        table = {}
        for line in out.splitlines():
            parts = line.split()
            if len(parts) >= 2:
                table[parts[0]] = parts[1]
        assert table["r_q_closed"] == "5e-06"
        assert table["r_c_closed"] == "1.25e-06"
        assert float(table["r_c_hom_closed"]) == pytest.approx(1e-4 / 82, rel=1e-15)
        # -min_s ln Q_s of the Gaussian pair; mpmath at 80 digits: 3.9565971923709483e-6
        assert float(table["r_q_numeric"]) == pytest.approx(3.9565971923709483e-6, rel=1e-6)
        # exact closed form kappa n_s (sqrt(n_b+1) - sqrt(n_b))**2; mpmath: 1.2196936161606467e-6
        assert float(table["r_c_numeric"]) == pytest.approx(1.2196936161606469e-6, rel=1e-6)
        assert float(table["g_star"]) == pytest.approx(1.0050090653144212, rel=1e-9)
        # R_Q / R_C = 4 exactly, i.e. 6.02 dB
        assert float(table["db_r_q_vs_r_c"]) == pytest.approx(10 * math.log10(4), abs=1e-12)
        assert float(table["db_opa_vs_r_c"]) == pytest.approx(2.0, abs=0.1)

    def test_gain_search_runs_once(self, monkeypatch, capsys):
        """Under gain=auto the g_star row reuses the search behind the gain."""
        calls = []
        search = qillum.receivers.optimize_gain

        def counting_search(params):
            calls.append(params)
            return search(params)

        monkeypatch.setattr(qillum.receivers, "optimize_gain", counting_search)
        monkeypatch.setattr(qillum.cli, "optimize_gain", counting_search)
        assert main(["exponents", "--gain", "auto"]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    # -min_s ln Q_s of the Gaussian pair, mpmath at 60 digits
    @pytest.mark.parametrize("n_b, r_q", [(1e3, 8.264424096874433e-8),
                                          (1e6, 8.271917616538051e-11)])
    def test_bright_background_exponents(self, tmp_path, capsys, n_b, r_q):
        """Both numeric exponents are closed forms, reported at any n_b."""
        cfg = tmp_path / "bright.cfg"
        cfg.write_text(f"n_s = 0.01\nkappa = 0.01\nn_b = {n_b!r}\n", encoding="ascii")
        out = tmp_path / "run"
        assert main(["exponents", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        _, _, rows = read_csv(out / "exponents.csv")
        cells = {row[0]: (row[1], ",".join(row[2:])) for row in rows}
        assert float(cells["r_q_numeric"][0]) == pytest.approx(r_q, rel=1e-8)
        assert cells["r_q_numeric"][1] == "gaussian chernoff, s*=0.5000"
        want = _coherent_exponent(ScenarioParams(0.01, 0.01, n_b))
        assert cells["r_c_numeric"] == (repr(want), "exact closed form, s*=0.5000")

    def test_kappa_zero_placeholders(self, tmp_path, capsys):
        cfg = tmp_path / "dark.cfg"
        cfg.write_text("n_s = 0.01\nkappa = 0.0\nn_b = 20.0\n", encoding="ascii")
        assert main(["exponents", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        table = {}
        for line in out.splitlines():
            parts = line.split()
            if len(parts) >= 2:
                table[parts[0]] = parts[1]
        assert table["g_star"] == "-"
        assert table["db_opa_vs_r_c"] == "-"
        assert table["db_r_q_vs_r_c"] == "-"
        assert float(table["r_q_numeric"]) == 0.0
        assert float(table["r_opa"]) == 0.0

    @pytest.mark.parametrize("gain", ["1.0001", "1.005", "1.3", "bhatt"])
    def test_kappa_zero_explicit_gain_has_zero_r_b(self, tmp_path, capsys, gain):
        """Identical count laws print r_b_exact = 0.0 exactly, never a
        rounding-level negative exponent."""
        cfg = tmp_path / "dark.cfg"
        cfg.write_text("n_s = 0.01\nkappa = 0\nn_b = 5\n", encoding="ascii")
        assert main(["exponents", "--config", str(cfg), "--gain", gain]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert [row[1] for row in rows if row[0] == "r_b_exact"] == ["0.0"]

    def test_csv_mirror_uses_nan_for_undefined(self, tmp_path, capsys):
        cfg = tmp_path / "dark.cfg"
        cfg.write_text("n_s = 0.01\nkappa = 0.0\nn_b = 20.0\n", encoding="ascii")
        out = tmp_path / "run"
        assert main(["exponents", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        _, header, rows = read_csv(out / "exponents.csv")
        assert header == ["quantity", "value", "note"]
        cells = {row[0]: row[1] for row in rows}
        assert cells["g_star"] == "nan"
        assert cells["r_q_closed"] == "0.0"


class TestSweepCommand:
    def test_background_axis_ratio_column(self, tmp_path, capsys):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            "n_s = 0.01\nkappa = 0.01\nn_b = 20.0\ngain = bhatt\n", encoding="ascii"
        )
        out = tmp_path / "run"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out),
                   "--axis", "n_b", "--grid", "100,1000,10000"])
        assert rc == 0
        capsys.readouterr()
        _, header, rows = read_csv(out / "sweep.csv")
        assert header[0] == "n_b" and header[-1] == "r_b_ratio"
        ratios = [float(row[-1]) for row in rows]
        # r_b_exact / (kappa n_s / 2 n_b) at G = 1 + n_s/sqrt(n_b); mpmath at 60 digits
        assert ratios[0] == pytest.approx(0.8174217673477985, rel=1e-9)
        assert ratios[1] == pytest.approx(0.7371752711382517, rel=1e-9)
        assert ratios[2] == pytest.approx(0.4974625659451588, rel=1e-9)
        assert ratios[0] > ratios[1] > ratios[2]

    def test_gain_axis_unimodal(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["sweep", "--out", str(out),
                   "--axis", "gain", "--grid", "1.002,1.005,1.01"])
        assert rc == 0
        capsys.readouterr()
        _, header, rows = read_csv(out / "sweep.csv")
        i = header.index("r_opa")
        r = [float(row[i]) for row in rows]
        assert r[1] == pytest.approx(1.9660528658030234e-6, rel=1e-12)
        assert r[0] < r[1] > r[2]
        for row, g in zip(rows, (1.002, 1.005, 1.01)):
            _, want = opa_error_gaussian(ScenarioParams(0.01, 0.01, 20.0), g, 1)
            assert float(row[i]) == pytest.approx(want, rel=1e-15)


class TestExitCodes:
    def test_missing_config_file(self, capsys):
        assert main(["exponents", "--config", "/nonexistent/scenario.cfg"]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_s = 0.01\nkappa = 0.01\nn_b = 20\nfoo = 1\n", encoding="ascii")
        assert main(["exponents", "--config", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_empty_sweep_grid(self, tmp_path, capsys):
        assert main(["sweep", "--out", str(tmp_path),
                     "--axis", "n_b", "--grid", ","]) == 2
        assert "empty" in capsys.readouterr().err

    def test_gain_grid_below_one(self, tmp_path, capsys):
        assert main(["sweep", "--out", str(tmp_path),
                     "--axis", "gain", "--grid", "0.5,1.005"]) == 2
        capsys.readouterr()

    def test_negative_axis_value(self, tmp_path, capsys):
        assert main(["sweep", "--out", str(tmp_path),
                     "--axis", "n_b", "--grid", "-3"]) == 2
        capsys.readouterr()

    def test_bad_tail_tolerance(self, tmp_path, capsys):
        assert main(["bounds", "--out", str(tmp_path), "--tail-tol", "0.5"]) == 2
        capsys.readouterr()

    def test_bad_gain_flag(self, tmp_path, capsys):
        assert main(["bounds", "--out", str(tmp_path), "--gain", "fastest"]) == 2
        capsys.readouterr()

    def test_bad_k_grid(self, tmp_path, capsys):
        assert main(["bounds", "--out", str(tmp_path), "--k-points", "0"]) == 2
        assert main(["bounds", "--out", str(tmp_path),
                     "--k-min", "100", "--k-max", "10"]) == 2
        capsys.readouterr()

    def test_unresolved_huge_gain_exits_one(self, tmp_path, capsys):
        assert main(["helstrom", "--out", str(tmp_path), "--gain", "1e20",
                     "--count-model", "on_off"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("qillum: ") and "no longer resolve" in err

    @pytest.mark.parametrize("argv", [["exponents", "--gain", "1e200"]],
                             ids=["exponents-1e200"])
    def test_unresolved_exponent_gain_exits_one(self, tmp_path, capsys, argv):
        """At G = 1e200 the OPA output means overflow."""
        assert main(argv + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("qillum: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv,config,gains", [
        (["exponents", "--gain", "1e20"], None, [1e20]),
        (["sweep", "--axis", "gain", "--grid", "1.01,1e20"], None, [1.01, 1e20]),
        (["exponents", "--gain", "1e20"], "n_s = 0.01\nkappa = 0\nn_b = 5\n", [1e20]),
    ], ids=["exponents-1e20", "sweep-1e20", "exponents-1e20-kappa0"])
    def test_huge_exponent_gain_resolves(self, tmp_path, capsys, argv, config, gains):
        """r_b_exact has no cancellation to lose N1 - N0 to, so a huge
        explicit gain gives its mpmath value (0 for identical count laws)."""
        n_s, kappa, n_b = 0.01, 0.01, 20.0
        argv = argv + ["--out", str(tmp_path)]
        if config is not None:
            n_s, kappa, n_b = 0.01, 0.0, 5.0
            cfg = tmp_path / "scenario.cfg"
            cfg.write_text(config, encoding="ascii")
            argv += ["--config", str(cfg)]
        assert main(argv) == 0
        capsys.readouterr()
        if argv[0] == "sweep":
            _, header, rows = read_csv(tmp_path / "sweep.csv")
            got = [float(row[header.index("r_b_exact")]) for row in rows]
        else:
            _, _, rows = read_csv(tmp_path / "exponents.csv")
            got = [float(row[1]) for row in rows if row[0] == "r_b_exact"]
        want = [opa_bhattacharyya_exponent(n_s, kappa, n_b, g) for g in gains]
        assert len(got) == len(want)
        for r_b, r_ref in zip(got, want):
            assert abs(r_b - r_ref) <= 4e-15 * r_ref

    @pytest.mark.parametrize("command", [["bounds"], ["exponents"],
                                         ["sweep", "--axis", "n_b", "--grid", "20,1e4"]],
                             ids=["bounds", "exponents", "sweep"])
    def test_float_overflow_exits_one(self, tmp_path, capsys, command):
        """At G = 1e150 and n_b = 1e4 the OPA means are finite, but R_OPA's
        squared sum of their deviations overflows."""
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("n_s = 1e-4\nkappa = 0.01\nn_b = 1e4\n", encoding="ascii")
        argv = command + ["--config", str(cfg), "--gain", "1e150", "--out", str(tmp_path)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("qillum: float overflow")

    def test_computation_error_exits_one(self, tmp_path, capsys):
        # n_b = 0 passes parameter validation but has no defined exponents
        assert main(["sweep", "--out", str(tmp_path),
                     "--axis", "n_b", "--grid", "0"]) == 1
        capsys.readouterr()


class TestReceiverFlags:
    """Each receiver flag takes its config key's text and overrides the file."""

    SCENARIO = "n_s = 0.01\nkappa = 0.3\nn_b = 1.0\n"
    FILE = "gain = bhatt\nthreshold_policy = optimal_scan\ncount_model = on_off\n"
    FLAGS = ["--gain", "1.005", "--threshold-policy", "paper_formula",
             "--count-model", "full_counting"]
    COMMANDS = {
        "bounds": ["bounds", "--k-min", "10", "--k-max", "1000", "--k-points", "4"],
        "helstrom": ["helstrom", "--k-min", "10", "--k-max", "1000", "--k-points", "4"],
        "exponents": ["exponents"],
        "sweep": ["sweep", "--axis", "n_b", "--grid", "0.5,1,2"],
    }

    def run(self, tmp_path, capsys, name, command, config, flags):
        out = tmp_path / name
        out.mkdir()
        cfg = out / "scenario.cfg"
        cfg.write_text(config, encoding="ascii")
        argv = self.COMMANDS[command] + ["--config", str(cfg), "--out", str(out / "run")]
        assert main(argv + flags) == 0
        stdout = capsys.readouterr().out.replace(str(out), "<out>")
        csv = (out / "run" / f"{command}.csv").read_bytes()
        meta = (out / "run" / "meta.txt").read_text(encoding="ascii")
        return csv, meta, stdout

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_flags_override_file(self, tmp_path, capsys, command):
        _, meta, _ = self.run(tmp_path, capsys, "both", command,
                              self.SCENARIO + self.FILE, self.FLAGS)
        lines = meta.splitlines()
        for line in ("gain=1.005", "threshold_policy=paper_formula",
                     "count_model=full_counting"):
            assert line in lines

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_flag_only_matches_file_only(self, tmp_path, capsys, command):
        file_only = self.run(tmp_path, capsys, "file", command, self.SCENARIO + self.FILE, [])
        flags = ["--gain", "bhatt", "--threshold-policy", "optimal_scan",
                 "--count-model", "on_off"]
        flag_only = self.run(tmp_path, capsys, "flags", command, self.SCENARIO, flags)
        assert flag_only == file_only


class TestOneRefusal:
    """A bad setting gets the same refusal from a config line and a flag."""

    SCENARIO = "n_s = 0.01\nkappa = 0.01\nn_b = 20\n"

    def refuse(self, capsys, argv):
        assert main(["exponents"] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("qillum: config error: ")
        return err[len("qillum: config error: "):].strip()

    def from_file(self, tmp_path, capsys, line):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(self.SCENARIO + line + "\n", encoding="ascii")
        return self.refuse(capsys, ["--config", str(cfg)])

    @pytest.mark.parametrize("text, shown", [("fastest", "'fastest'"), ("", "no value")])
    def test_unparsed_gain(self, tmp_path, capsys, text, shown):
        in_file = self.from_file(tmp_path, capsys, f"gain = {text}")
        as_flag = self.refuse(capsys, ["--gain", text])
        assert "'gain'" in as_flag and shown in as_flag
        assert in_file == f"line 4: {as_flag}"

    @pytest.mark.parametrize("gain", ["1", "nan"])
    def test_gain_out_of_range(self, tmp_path, capsys, gain):
        in_file = self.from_file(tmp_path, capsys, f"gain = {gain}")
        as_flag = self.refuse(capsys, ["--gain", gain])
        assert in_file == as_flag
        assert "G > 1" in as_flag

    @pytest.mark.parametrize("key, text", [("threshold_policy", "guess"),
                                           ("count_model", "analog")])
    def test_unparsed_enum(self, tmp_path, capsys, key, text):
        in_file = self.from_file(tmp_path, capsys, f"{key} = {text}")
        assert in_file.startswith("line 4: ")
        assert repr(key) in in_file and repr(text) in in_file
        as_flag = self.refuse(capsys, ["--" + key.replace("_", "-"), text])
        assert in_file == f"line 4: {as_flag}"


class TestNoTraceback:
    """Every command ends in an exit code, whatever the gain: huge explicit
    gains must fail as computation errors, not as uncaught exceptions."""

    SCENARIOS = [(0.01, 0.01, 20.0), (0.01, 0.3, 1.0), (0.01, 0.0, 5.0)]
    COMMANDS = {
        "bounds": ["bounds", "--k-points", "5"],
        "helstrom": ["helstrom", "--k-points", "5"],
        "exponents": ["exponents"],
        "sweep": ["sweep", "--axis", "n_b", "--grid", "1,20"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_exit_code_for_every_gain(self, tmp_path, capsys, command):
        for i, (n_s, kappa, n_b) in enumerate(self.SCENARIOS):
            cfg = tmp_path / f"scenario{i}.cfg"
            cfg.write_text(f"n_s = {n_s}\nkappa = {kappa}\nn_b = {n_b}\n", encoding="ascii")
            for gain in ("auto", "bhatt", "1.005", "1e20", "1e200"):
                argv = self.COMMANDS[command] + ["--config", str(cfg), "--gain", gain,
                                                 "--out", str(tmp_path / "out")]
                assert main(argv) in (0, 1, 2), (n_s, kappa, n_b, gain)
                capsys.readouterr()


class TestHugeScenarios:
    """Scenarios past the float range of a closed form end in exit 1 and a
    qillum: line, not in a traceback."""

    @pytest.mark.parametrize("command", ["bounds", "helstrom"])
    def test_background_too_large_for_a_cutoff(self, tmp_path, capsys, command):
        """At n_b = 1e16, n_b/(n_b+1) rounds to 1 and no Fock cutoff reaches
        the tail tolerance."""
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("n_s = 0.01\nkappa = 0.01\nn_b = 1e16\n", encoding="ascii")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path),
                     "--k-points", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("qillum: ") and "Traceback" not in err and "1e+16" in err

    def test_gaussian_overlap_overflow_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("n_s = 1\nkappa = 1\nn_b = 1e308\n", encoding="ascii")
        assert main(["exponents", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("qillum: float overflow")

    @pytest.mark.parametrize("command", ["exponents", "bounds"])
    def test_lossless_bright_signal_runs(self, tmp_path, capsys, command):
        """(1e8, 1, 1e-10) lies inside the float range: the Gaussian overlap's
        R is a sum of two terms >= 0, not a difference that cancels to 0."""
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("n_s = 1e8\nkappa = 1\nn_b = 1e-10\n", encoding="ascii")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""


class TestErrorCurve:
    """The guard that bounds and helstrom run on their rows before writing."""

    COLUMNS = ["K", "x"]

    def test_rejects_unsorted_grid(self):
        with pytest.raises(DomainError):
            _check_error_curves(self.COLUMNS, [[10, -1.0], [10, -2.0]])

    def test_rejects_probability_above_half(self):
        with pytest.raises(DomainError):
            _check_error_curves(self.COLUMNS, [[1, -0.2]])

    def test_accepts_valid_curve(self):
        _check_error_curves(self.COLUMNS, [[1, -0.4], [10, -1.0]])


class TestParserSurface:
    """Every subcommand's flags and defaults, so that no flag is dropped or
    renamed and no default moves unnoticed."""

    COMMON = {"config": None, "tail_tol": 1e-9, "gain": None,
              "threshold_policy": None, "count_model": None, "out": "."}
    K_GRID = {"k_min": 1e4, "k_max": 1e8, "k_points": 30}
    SURFACE = {
        "bounds": (["bounds"], {"command": "bounds", **COMMON, **K_GRID}),
        "helstrom": (["helstrom"], {"command": "helstrom", **COMMON, **K_GRID}),
        "exponents": (["exponents"], {"command": "exponents", **COMMON, "out": None}),
        "sweep": (["sweep", "--axis", "n_b", "--grid", "1"],
                  {"command": "sweep", **COMMON, "axis": "n_b", "grid": "1"}),
    }

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_dests_and_defaults(self, command):
        argv, want = self.SURFACE[command]
        got = {key: value for key, value in vars(build_parser().parse_args(argv)).items()
               if not callable(value)}
        assert got == want

    def test_bad_axis_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sweep", "--axis", "temperature", "--grid", "1"])
        assert exc.value.code == 2
        assert "--axis" in capsys.readouterr().err


class TestParserCache:
    """main builds its parser once per process and looks up cmd_<name> on
    every call."""

    def test_no_parser_built_after_the_first_call(self, capsys, monkeypatch):
        assert main(["exponents"]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(5):
            assert main(["exponents"]) == 0
        capsys.readouterr()
        assert built == []

    def test_runner_is_looked_up_on_every_call(self, capsys, monkeypatch):
        assert main(["exponents"]) == 0
        capsys.readouterr()
        calls = []
        monkeypatch.setattr(qillum.cli, "cmd_exponents",
                            lambda args, *rest: calls.append(args.command))
        assert main(["exponents"]) == 0
        assert calls == ["exponents"]
        assert capsys.readouterr().out == ""

    STEPS = {  # name -> (argv before the shared flags, argv after them)
        "bounds": (["bounds"], ["--k-min", "10", "--k-max", "1000", "--k-points", "3"]),
        "helstrom": (["helstrom"], ["--k-min", "10", "--k-max", "1000", "--k-points", "3"]),
        "exponents": (["exponents"], []),
        "sweep": (["sweep"], ["--axis", "n_b", "--grid", "1,10"]),
        "bad_axis": (["sweep"], ["--axis", "temperature", "--grid", "1"]),
        "bad_count_model": (["bounds"], ["--count-model", "analog"]),
        "help": (["bounds"], ["--help"]),
    }

    def run_steps(self, names, workdir, config, capsys, monkeypatch):
        """(exit code, stdout, stderr, {file: bytes}) per step, each step
        writing to its own directory under workdir."""
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        results = {}
        for name in names:
            head, tail = self.STEPS[name]
            try:
                code = main(head + ["--config", str(config), "--out", name] + tail)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            files = {path.name: path.read_bytes() for path in sorted((workdir / name).glob("*"))}
            results[name] = (code, out, err, files)
        return results

    def test_call_order_does_not_matter(self, tmp_path, fast_config, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        names = list(self.STEPS)
        forward = self.run_steps(names, tmp_path / "forward", fast_config, capsys, monkeypatch)
        backward = self.run_steps(names[::-1], tmp_path / "backward", fast_config, capsys,
                                  monkeypatch)
        assert forward == backward
        assert [forward[name][0] for name in names] == [0, 0, 0, 0, 2, 2, 0]
        assert [sorted(forward[name][3]) for name in ("bounds", "helstrom", "exponents", "sweep")] \
            == [["bounds.csv", "meta.txt"], ["helstrom.csv", "meta.txt"],
                ["exponents.csv", "meta.txt"], ["meta.txt", "sweep.csv"]]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the pinned texts are Python 3.11's argparse layout")
class TestHelpText:
    """SHA-256 of qillum --help and of each subcommand's --help.  argparse
    reads COLUMNS whenever it formats help, also from the parser that main
    reuses, so the width follows the environment of each call."""

    COMMANDS = ["", "bounds", "helstrom", "exponents", "sweep"]
    GOLDEN = {
        80: {
            "": "78c41fe21b9bef69293bc50a7738fc77d980b4d48a65cc99502a19743026c22c",
            "bounds": "f10249fe9c3715400dbbcf3f03eab7902f5e7d57706920c19a866fbca25c6b92",
            "helstrom": "f9572bbb5f9e9c48dfac18c403d4455e05e7fbaef462872328b7c2b1dea6405f",
            "exponents": "0c547eb66eeccd2344e4edb0055fd53fc7c2cf2cd58197210b7c77261bc676c6",
            "sweep": "d1699ce29647bb34bdc8a3525bd860061ff43d78ac34b8e8e1d34dc00357c36c",
        },
        200: {
            "": "14d88211b3d7065a074af5919cf75bb23949469fdc66a903b61c4b2bd2aee904",
            "bounds": "11618e72dc877634df4fe0ee810c44479e4278486732f6fb929f40ec16d3938f",
            "helstrom": "e03f5088fdef3a88e613af0b9719c5f9eceb5483722d0aa162a6914fc79ce485",
            "exponents": "fc2a8f56d49827bdee8d976ee5e6eef9efded242e0324214c6bfe15b771ed260",
            "sweep": "4bd2e391d515a97bbce9097795abe67ae66f6cda50e1eb5005b30253c0051ff1",
        },
    }

    def help_sha(self, capsys, monkeypatch, columns):
        monkeypatch.setenv("COLUMNS", str(columns))
        got = {}
        for command in self.COMMANDS:
            with pytest.raises(SystemExit) as exc:
                main(command.split() + ["--help"])
            assert exc.value.code == 0
            got[command] = hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest()
        return got

    def test_sha256(self, tmp_path, capsys, monkeypatch):
        assert self.help_sha(capsys, monkeypatch, 80) == self.GOLDEN[80]
        assert main(["exponents", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert self.help_sha(capsys, monkeypatch, 200) == self.GOLDEN[200]
        assert self.help_sha(capsys, monkeypatch, 80) == self.GOLDEN[80]


def columns_sha(path, keep):
    """SHA-256 of a CSV's params line and the named columns, header included."""
    lines = path.read_text(encoding="ascii").splitlines()
    index = [lines[1].split(",").index(name) for name in keep]
    kept = [",".join(line.split(",")[i] for i in index) for line in lines[1:]]
    return hashlib.sha256("\n".join(lines[:1] + kept).encode("ascii")).hexdigest()


class TestGoldenBytes:
    """Deterministic CSV columns pinned by SHA-256, so a change meant to keep
    every output byte-identical cannot move one unnoticed.  The Helstrom
    vote columns come from eigh and are left out, because LAPACK builds may
    differ in the last bits; r_q_numeric and the quantum bounds are closed
    forms and are pinned."""

    SCENARIOS = {
        "default": None,
        "bright_scan": "n_s = 0.01\nkappa = 0.3\nn_b = 1.0\nthreshold_policy = optimal_scan\n",
        "click_bhatt": "n_s = 0.01\nkappa = 0.3\nn_b = 1.0\nthreshold_policy = optimal_scan\n"
                       "count_model = on_off\ngain = bhatt\n",
    }
    RUNS = {
        "sweep_gain": (["sweep", "--axis", "gain", "--grid", "1.001,1.005,1.01,1.1"], "sweep.csv",
                       None),
        "sweep_n_b": (["sweep", "--axis", "n_b", "--grid", "1,10,100,1000"], "sweep.csv", None),
        "exponents": (["exponents"], "exponents.csv", None),
        "bounds": (["bounds"], "bounds.csv", None),
        "helstrom": (["helstrom"], "helstrom.csv", ["K", "opa_exact"]),
    }
    GOLDEN = {
        ("bright_scan", "bounds"):
            "55ac763d2d9f39927084b1efd695adf9162bbd8dd08c66c52c2b645d73e93f5c",
        ("bright_scan", "exponents"):
            "273f9230717930a933c2cc07e60af826de66ca845889b89850a7b047876d7f67",
        ("bright_scan", "helstrom"):
            "e528422655b6b139cf3c9c380b9f5cc5df6606292e9a2d16dc039dbe09c33a48",
        ("bright_scan", "sweep_gain"):
            "8f1528409a752d83f00bdad7a6c7cae054bf0ab49b2e3c53b5241811eed853c9",
        ("bright_scan", "sweep_n_b"):
            "b7d74c9a09cd1205a4640409b44340e8b22160c62abe758eedd47d1a7b47c635",
        ("click_bhatt", "bounds"):
            "3cb640e08ae2b48ca96767c2c777d6745fb90569e5ad6f4776dfd4578aaf4995",
        ("click_bhatt", "exponents"):
            "bf873da1818965b0795d85edb6a1a8083cd2dbeafa5fb91ce767b4dbbecb7c30",
        ("click_bhatt", "helstrom"):
            "f5e9bfb7dfc1db0299e3c44ef63e09bdcaca30be4cc0ae621ddf19a9ada6b6db",
        ("click_bhatt", "sweep_gain"):
            "32d62fb6150d58d0ba1972447e9db8c29ef0cba7073b06ee846a6135a932627b",
        ("click_bhatt", "sweep_n_b"):
            "9b50afdfe99bd6a3d8eb9d6509fb8f8c3310b984bf65b0c7a888ab520d27f887",
        ("default", "bounds"):
            "0443795c467b5bbc5c578179a5ba379e47d71527c61e5a4f3a22ecb1d52babe3",
        ("default", "exponents"):
            "81f89679b85426a78465c10e16aa5ce66dc62e54f719386671767595516bae9d",
        ("default", "helstrom"):
            "cb634986e7aa0db98c6d4ce6f13279d1d3fb34e5217746863cadab37091976bc",
        ("default", "sweep_gain"):
            "dd2336e86b185bf9ac1acba03ac29f32bf66a9358117ef099d24f6860d01af60",
        ("default", "sweep_n_b"):
            "29581bd0426cd8f0dc375e6b8d5154cd30a9c55ecd1f06be1a88fc3dfb07ffb6",
    }

    # meta.txt and stdout of the same runs.  Left out as eigh-derived: the
    # helstrom single-shot note.  The out directory is replaced by <out> in
    # stdout.
    GOLDEN_META_STDOUT = {
        ("bright_scan", "bounds"):
            "80dd6494ed0b277823dcf8c4d83100d572132181aef1826015d60a0a16149ffd",
        ("bright_scan", "exponents"):
            "a547fea4a4cd07a31437849bd35ff43133e5f3008b6581d53dee660f6f209cc4",
        ("bright_scan", "helstrom"):
            "dc58a39c10f06a7d356d420afccd833f9fe9b478ab1c58d6e73768fffd35f415",
        ("bright_scan", "sweep_gain"):
            "f6332b0d9c587e4510926b897a115817a9b260d519255798db75fbdd8effdcff",
        ("bright_scan", "sweep_n_b"):
            "9f1eb5cd57bdbd07745268a3e2836be9088a31af4690017ad74be2e8de9a0955",
        ("click_bhatt", "bounds"):
            "c5d57aaab5e98e4a65f53eb6bd2a7e0d426748519c0bfc107605575b398165c8",
        ("click_bhatt", "exponents"):
            "dbf567575effbbe0530003d9321de588f12801cbbb3b27e9e2d393686a10a4be",
        ("click_bhatt", "helstrom"):
            "a6e70e9774d8515958bdf13d6a36f255335ae9033dda4af2032fe180b3314904",
        ("click_bhatt", "sweep_gain"):
            "5b2374a02131b9ed838233298627e45a4609a6353ba4d7af62a37252f27377dd",
        ("click_bhatt", "sweep_n_b"):
            "fcbc5736683e9e8a6a808d9c591ef4094b21e846c4712d8ad18784fd67896a4a",
        ("default", "bounds"):
            "c2e2f4b4f1d12f7873042612ce1c95248604cf8d0e1f8ba25ad29e2c93cfb446",
        ("default", "exponents"):
            "55c9398de9c87ac2043e0060cf26f4e528570a69d0672faa447434a2f46ab6ca",
        ("default", "helstrom"):
            "6f0cecc7b49a7ee4dbcd00e8b160f540c5999666fde2e7a8c33d43f136392105",
        ("default", "sweep_gain"):
            "bf3f8ba7d9b617615f142f9851b85c1793d5a5c30cb7dbc39ccfa5ac6f72f9ff",
        ("default", "sweep_n_b"):
            "1635af45e95454bb01100e405772755abfaaf5fe8ff8f8ac6cf25abba4efe27d",
    }

    def run_command(self, tmp_path, capsys, scenario, run):
        argv = self.RUNS[run][0] + ["--out", str(tmp_path)]
        if self.SCENARIOS[scenario] is not None:
            cfg = tmp_path / "scenario.cfg"
            cfg.write_text(self.SCENARIOS[scenario], encoding="ascii")
            argv += ["--config", str(cfg)]
        assert main(argv) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("run", sorted(RUNS))
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_sha256(self, tmp_path, capsys, scenario, run):
        self.run_command(tmp_path, capsys, scenario, run)
        _, name, keep = self.RUNS[run]
        path = tmp_path / name
        if keep is None:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
        else:
            digest = columns_sha(path, keep)
        assert digest == self.GOLDEN[scenario, run]

    @pytest.mark.parametrize("run", sorted(RUNS))
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_meta_and_stdout_sha256(self, tmp_path, capsys, scenario, run):
        stdout = self.run_command(tmp_path, capsys, scenario, run).replace(str(tmp_path), "<out>")
        meta = (tmp_path / "meta.txt").read_text(encoding="ascii")
        kept = [line for line in (meta + stdout).splitlines(keepends=True)
                if not line.startswith("note=helstrom single shot:")]
        digest = hashlib.sha256("".join(kept).encode("ascii")).hexdigest()
        assert digest == self.GOLDEN_META_STDOUT[scenario, run]
