"""The benchmark's per-layer metrics name library functions; keep those names.

bench/tracing.py wraps every public function of the layer modules and
reports ``<layer>.<function>.{s,calls}`` per layer.  A renamed or deleted
function would read 0 there without any error, so each such name in
BENCHMARK.json must resolve to a public function of ``qillum.<layer>``.
The kernels the tracer patches by name must exist where it looks for them,
and so must the library functions that bench/checks.py::check_reference
calls on every run.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
KERNELS = {"eigh", "eigvalsh", "expm", "betainc"}


def layer_functions():
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    names = set()
    for metric in metrics:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[2] in ("s", "calls") and parts[1] not in KERNELS:
            names.add((parts[0], parts[1]))
    return sorted(names)


def test_contract_names_some_functions():
    assert len(layer_functions()) >= 10


@pytest.mark.parametrize("layer,name", layer_functions(),
                         ids=[f"{layer}.{name}" for layer, name in layer_functions()])
def test_metric_names_a_public_function(layer, name):
    module = importlib.import_module(f"qillum.{layer}")
    fn = getattr(module, name, None)
    assert inspect.isfunction(fn), f"qillum.{layer} has no function {name!r}"
    assert fn.__module__ == module.__name__, f"{name!r} is not defined in {module.__name__}"
    assert not name.startswith("_")


@pytest.mark.parametrize("layer,kernel", [("fockspace", "expm"), ("receivers", "betainc")])
def test_patched_kernel_exists(layer, kernel):
    assert callable(getattr(importlib.import_module(f"qillum.{layer}"), kernel, None))


# (layer, function) pairs that bench/checks.py::check_reference calls
REFERENCE_CALLS = [
    ("fockspace", "thermal_state"),
    ("fockspace", "build_displaced_thermal"),
    ("fockspace", "thermal_cutoff"),
    ("fockspace", "build_rho0"),
    ("fockspace", "build_rho1"),
    ("bounds", "qcb"),
]


def test_check_reference_names_resolve():
    for layer, name in REFERENCE_CALLS:
        assert callable(getattr(importlib.import_module(f"qillum.{layer}"), name, None)), name
    from qillum import bounds, fockspace

    cutoff = fockspace.thermal_cutoff(1.003, 1e-9)
    rho0 = fockspace.thermal_state(1.0, cutoff)
    rho1 = fockspace.build_displaced_thermal(0.003 ** 0.5, 1.0, cutoff, tail_tol=1e-9)
    s_star, q_min, exponent = bounds.qcb(rho0, rho1)
    assert 0.0 < q_min < 1.0 and exponent > 0.0 and 0.0 <= s_star <= 1.0


def modules_loaded_by_cli_import(prefixes, module="qillum.cli"):
    """Modules starting with one of prefixes that a fresh `import module` loads."""
    code = (f"import sys, {module}; "
            f"print(sorted(m for m in sys.modules if m.startswith({tuple(prefixes)!r})))")
    src = str(ROOT / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    return out.stdout.strip()


def test_cli_import_loads_no_test_oracle():
    assert modules_loaded_by_cli_import(["mpmath", "oracles"]) == "[]"


def test_cli_import_loads_no_scipy_linalg():
    assert modules_loaded_by_cli_import(["scipy.linalg"]) == "[]"


def modules_loaded_by_cli_run(argv, prefixes, cwd):
    """(exit code, modules starting with one of prefixes) of a fresh
    `python -m qillum argv`, the modules as it holds them when it exits."""
    code = ("import atexit, runpy, sys\n"
            "atexit.register(lambda: print(sorted(m for m in sys.modules if m.startswith("
            f"{tuple(prefixes)!r})), file=sys.stderr))\n"
            "runpy.run_module('qillum', run_name='__main__', alter_sys=True)\n")
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         cwd=cwd, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    return out.returncode, out.stderr.strip().splitlines()[-1]


ARRAY_LIBRARIES = ["numpy", "scipy"]


def test_package_import_loads_no_numpy_or_scipy():
    assert modules_loaded_by_cli_import(ARRAY_LIBRARIES, module="qillum") == "[]"


@pytest.mark.parametrize("argv,code", [
    (["--help"], 0),
    (["exponents", "--config", "refused.cfg"], 2),
    (["exponents"], 0),
    (["exponents", "--gain", "bhatt", "--out", "."], 0),
], ids=["help", "refused_config", "exponents", "exponents_bhatt_csv"])
def test_numpy_free_commands_load_no_numpy_or_scipy(tmp_path, argv, code):
    """Nothing on these paths calls numpy or scipy, so a fresh process loads neither."""
    (tmp_path / "refused.cfg").write_text("n_s=0\nkappa=0.01\nn_b=20\n", encoding="ascii")
    assert modules_loaded_by_cli_run(argv, ARRAY_LIBRARIES, tmp_path) == (code, "[]")


def test_sweep_loads_no_scipy(tmp_path):
    argv = ["sweep", "--axis", "kappa", "--grid", "0.01,0.02,0.03,0.04", "--out", "."]
    assert modules_loaded_by_cli_run(argv, ["scipy"], tmp_path) == (0, "[]")


def test_bounds_loads_scipy_special_at_its_first_tail(tmp_path):
    """A bounds run loads scipy.special for its tails, and still no scipy.linalg."""
    code, loaded = modules_loaded_by_cli_run(["bounds", "--k-points", "3", "--out", "."],
                                             ["scipy.special", "scipy.linalg"], tmp_path)
    assert code == 0 and loaded.startswith("['scipy.special") and "scipy.linalg" not in loaded


def load_bench_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n_s,kappa,n_b,want", [
    (0.01, 0.3, 1.0, [34, 430]),
    (0.01, 0.01, 100.0, [2087, 31225]),
])
def test_tracer_reads_rho1_work_size(n_s, kappa, n_b, want):
    """The fockspace.blocks and fockspace.rho1_elements metrics come from
    the tracer's view of the state that build_rho1 returns."""
    from qillum import ScenarioParams, TruncationSpec, build_rho1

    params = ScenarioParams(n_s, kappa, n_b)
    state = build_rho1(params, TruncationSpec.for_params(params))
    assert load_bench_tracing()._library_info("fockspace.build_rho1", (), state) == want


@pytest.fixture()
def bench_checks(monkeypatch):
    """bench/checks.py and bench/workloads.py, imported from bench/ as the runner does."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    return importlib.import_module("checks"), importlib.import_module("workloads")


def test_check_reference_passes(bench_checks):
    checks, _ = bench_checks
    assert checks.check_reference() == []


@pytest.mark.parametrize("command", ["exponents", "bounds"])
@pytest.mark.parametrize("n_s,kappa,n_b", [(0.01, 0.01, 100.0), (0.01, 0.3, 1.0)],
                         ids=["fock_bright", "opa_scan"])
def test_bench_output_checks_pass(bench_checks, tmp_path, capsys, command, n_s, kappa, n_b):
    """The benchmark's own output checks accept the CLI's columns, so a change
    to them cannot pass the tests and then fail the benchmark."""
    from qillum.cli import main

    checks, workloads = bench_checks
    config = (("n_s", repr(n_s)), ("kappa", repr(kappa)), ("n_b", repr(n_b)))
    cmd = workloads.Command(command, config, ("--tail-tol", "1e-9"))
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(cmd.config_text(), encoding="ascii")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path), *cmd.args]) == 0
    capsys.readouterr()
    assert checks.check_command(cmd, tmp_path) == []


def test_tracer_sees_every_command_of_the_reused_parser(tmp_path, capsys):
    """main keeps one parser per process but looks up cmd_<name> on each
    call: after a warm call, a traced bounds run at the opa_scan point has
    cli.main and cli.cmd_bounds spans, no cli.build_parser span, and the
    CSV bytes of the untraced run."""
    from qillum import cli

    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("n_s=0.01\nkappa=0.3\nn_b=1.0\nthreshold_policy=optimal_scan\n",
                   encoding="ascii")
    argv = ["bounds", "--config", str(cfg), "--tail-tol", "1e-9", "--out"]
    assert cli.main(argv + [str(tmp_path / "plain")]) == 0
    tracer = load_bench_tracing().Tracer()
    tracer.install()
    try:
        code = cli.main(argv + [str(tmp_path / "traced")])
    finally:
        tracer.remove()
    capsys.readouterr()
    assert code == 0
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "cli.cmd_bounds"} <= names
    assert "cli.build_parser" not in names
    assert ((tmp_path / "traced" / "bounds.csv").read_bytes()
            == (tmp_path / "plain" / "bounds.csv").read_bytes())


def test_tracer_kernel_spans_of_bounds_and_helstrom(tmp_path, capsys):
    """The tracer's per-layer metrics read the lazily imported kernels right:
    every receivers.betainc span is one kernel span (an element count, never
    a library span, which has none, around a second one), the Helstrom eigh
    is recorded under receivers, and the expm patch reaches scipy."""
    import numpy as np

    from qillum import cli, fockspace

    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("n_s=0.01\nkappa=0.3\nn_b=1.0\n", encoding="ascii")
    cutoff = fockspace.thermal_cutoff(1.003, 1e-9)
    tracer = load_bench_tracing().Tracer()
    tracer.install()
    try:
        codes = [cli.main([command, "--config", str(cfg), "--k-points", "4",
                           "--out", str(tmp_path / command)])
                 for command in ("bounds", "helstrom")]
        disp = fockspace.build_displaced_thermal(0.003 ** 0.5, 1.0, cutoff, tail_tol=1e-9)
    finally:
        tracer.remove()
    capsys.readouterr()
    assert codes == [0, 0]
    betainc = [span for span in tracer.spans if span[0] == "receivers.betainc"]
    assert betainc and all(type(span[5]) is int for span in betainc)
    assert not any(tracer.spans[span[3]][0] == "receivers.betainc"
                   for span in betainc if span[3] is not None)
    eigh = [span[0] for span in tracer.spans if span[0].endswith(".eigh")]
    assert eigh and set(eigh) == {"receivers.eigh"}
    assert ([span[5] for span in tracer.spans if span[0] == "fockspace.expm"]
            == [cutoff + 1 + fockspace._DISPLACEMENT_PAD])
    assert np.array_equal(disp, fockspace.build_displaced_thermal(0.003 ** 0.5, 1.0, cutoff,
                                                                  tail_tol=1e-9))
