"""End-to-end CLI runs: artifacts, determinism and exit codes."""

import hashlib
import math
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
from qillum.cli import _check_error_curves, _coherent_exponent, main

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
    """Each state's zero-padded block stack is decomposed in one call."""

    PARAMS = ScenarioParams(n_s=0.01, kappa=0.01, n_b=20.0)  # the CLI default

    def stack_shape(self):
        trunc = TruncationSpec.for_params(self.PARAMS, 1e-9)
        return build_rho0(self.PARAMS, trunc).stack.shape

    def test_bounds_decomposes_each_state_once(self, tmp_path, eigh_shapes):
        """Q_half and Q_min share one eigh per state."""
        assert main(["bounds", "--out", str(tmp_path)]) == 0
        assert eigh_shapes == [self.stack_shape()] * 2

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
        pe, r_opa = opa_error_gaussian(params, optimize_gain(params).g_star, 10**8)
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
        assert float(table["r_q_numeric"]) == pytest.approx(3.95767964520738e-6, rel=1e-6)
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

    def test_past_the_cutoff_cap(self, tmp_path, capsys):
        """At n_b = 1e3 the Fock Chernoff pass is skipped, but the coherent
        exponent is a closed form and is always reported."""
        cfg = tmp_path / "bright.cfg"
        cfg.write_text("n_s = 0.01\nkappa = 0.01\nn_b = 1000.0\n", encoding="ascii")
        out = tmp_path / "run"
        assert main(["exponents", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        _, _, rows = read_csv(out / "exponents.csv")
        cells = {row[0]: (row[1], ",".join(row[2:])) for row in rows}
        assert cells["r_q_numeric"][0] == "nan"
        assert cells["r_q_numeric"][1].startswith("skipped, cutoff")
        want = _coherent_exponent(ScenarioParams(0.01, 0.01, 1000.0))
        assert cells["r_c_numeric"] == (repr(want), "exact closed form, s*=0.5000")
        meta = (out / "meta.txt").read_text(encoding="ascii")
        assert "note=numeric chernoff skipped" in meta

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
        assert ratios[0] == pytest.approx(0.817421767095974, rel=1e-9)
        assert ratios[1] == pytest.approx(0.737175276114391, rel=1e-9)
        assert ratios[2] == pytest.approx(0.49746251500642985, rel=1e-9)
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

    @pytest.mark.parametrize("argv,config", [
        (["exponents", "--gain", "1e20"], None),
        (["exponents", "--gain", "1e200"], None),
        (["sweep", "--axis", "gain", "--grid", "1.01,1e20"], None),
        (["exponents", "--gain", "1e20"], "n_s = 0.01\nkappa = 0\nn_b = 5\n"),
    ], ids=["exponents-1e20", "exponents-1e200", "sweep-1e20", "exponents-1e20-kappa0"])
    def test_unresolved_exponent_gain_exits_one(self, tmp_path, capsys, argv, config):
        argv = argv + ["--out", str(tmp_path)]
        if config is not None:
            cfg = tmp_path / "scenario.cfg"
            cfg.write_text(config, encoding="ascii")
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("qillum: ") and "Traceback" not in err

    def test_computation_error_exits_one(self, tmp_path, capsys):
        # n_b = 0 passes parameter validation but has no defined exponents
        assert main(["sweep", "--out", str(tmp_path),
                     "--axis", "n_b", "--grid", "0"]) == 1
        capsys.readouterr()


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


def columns_sha(path, keep):
    """SHA-256 of a CSV's params line and the named columns, header included."""
    lines = path.read_text(encoding="ascii").splitlines()
    index = [lines[1].split(",").index(name) for name in keep]
    kept = [",".join(line.split(",")[i] for i in index) for line in lines[1:]]
    return hashlib.sha256("\n".join(lines[:1] + kept).encode("ascii")).hexdigest()


class TestGoldenBytes:
    """Deterministic CSV columns pinned by SHA-256, so a change meant to keep
    every output byte-identical cannot move one unnoticed.  Columns computed
    from eigh (r_q_numeric, the quantum bounds, the Helstrom vote) are left
    out, because LAPACK builds may differ in the last bits."""

    SCENARIOS = {
        "default": None,
        "bright_scan": "n_s = 0.01\nkappa = 0.3\nn_b = 1.0\nthreshold_policy = optimal_scan\n",
    }
    RUNS = {
        "sweep_gain": (["sweep", "--axis", "gain", "--grid", "1.001,1.005,1.01,1.1"], "sweep.csv",
                       None),
        "sweep_n_b": (["sweep", "--axis", "n_b", "--grid", "1,10,100,1000"], "sweep.csv", None),
        "exponents": (["exponents"], "exponents.csv", None),
        "bounds": (["bounds"], "bounds.csv",
                   ["K", "lower_classical", "upper_classical", "homodyne", "opa_exact",
                    "opa_gaussian"]),
        "helstrom": (["helstrom"], "helstrom.csv", ["K", "opa_exact"]),
    }
    GOLDEN = {
        ("bright_scan", "bounds"):
            "6925d4bc823ad273274f44474aeb468a89f05602e73b430307db4c0ae500b207",
        ("bright_scan", "exponents"):
            "6464eb4c3335e6ccd559ac8ae0c2f023396647565ea4a26d82694e278b3232bc",
        ("bright_scan", "helstrom"):
            "e528422655b6b139cf3c9c380b9f5cc5df6606292e9a2d16dc039dbe09c33a48",
        ("bright_scan", "sweep_gain"):
            "323942e46a510ebb7d6f15cafba01160da89f4cc373fffa8f11678d2a03a5bf6",
        ("bright_scan", "sweep_n_b"):
            "002ddee359b57d020d92f1408116a77fbaeabb7f46ebe658a3e4bb8520bf9432",
        ("default", "bounds"):
            "551e4f2156064ac0c73bf9cfeedd22ed15b28725ea52f81c5729499009ccc693",
        ("default", "exponents"):
            "50ffbb113470dad28f7eef902a12b64a249c02f270567993b6a814dd38c7744d",
        ("default", "helstrom"):
            "cb634986e7aa0db98c6d4ce6f13279d1d3fb34e5217746863cadab37091976bc",
        ("default", "sweep_gain"):
            "39608a664d28d89d27ca73aefb0b077523e16ad36d535e2ce1c0a032a24c7596",
        ("default", "sweep_n_b"):
            "4aa78a0dad9e67fd7d538fee2d216fbb69258e331cacb9e82d3b1edd52997fb4",
    }

    # meta.txt and stdout of the same runs.  Left out as eigh-derived: the
    # helstrom single-shot note and the r_q_numeric stdout line.  The out
    # directory is replaced by <out> in stdout.
    GOLDEN_META_STDOUT = {
        ("bright_scan", "bounds"):
            "80dd6494ed0b277823dcf8c4d83100d572132181aef1826015d60a0a16149ffd",
        ("bright_scan", "exponents"):
            "538f2f33bec5f5037d6a84b5c8f3605407bc425e3c409ed71f5a867391b104e8",
        ("bright_scan", "helstrom"):
            "dc58a39c10f06a7d356d420afccd833f9fe9b478ab1c58d6e73768fffd35f415",
        ("bright_scan", "sweep_gain"):
            "f6332b0d9c587e4510926b897a115817a9b260d519255798db75fbdd8effdcff",
        ("bright_scan", "sweep_n_b"):
            "9f1eb5cd57bdbd07745268a3e2836be9088a31af4690017ad74be2e8de9a0955",
        ("default", "bounds"):
            "c2e2f4b4f1d12f7873042612ce1c95248604cf8d0e1f8ba25ad29e2c93cfb446",
        ("default", "exponents"):
            "7a80e1da11173db373e829f120106aecf8d5fca3376d03920ce3ee25120fb42f",
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
        if run == "exponents":
            lines = path.read_text(encoding="ascii").splitlines(keepends=True)
            data = "".join(line for line in lines if not line.startswith("r_q_numeric,"))
            digest = hashlib.sha256(data.encode("ascii")).hexdigest()
        elif keep is None:
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
                if not line.startswith(("note=helstrom single shot:", "r_q_numeric "))]
        digest = hashlib.sha256("".join(kept).encode("ascii")).hexdigest()
        assert digest == self.GOLDEN_META_STDOUT[scenario, run]
