"""The benchmark's probe points: every program name that `perfbench/run.py`
wraps with its span tracer, or calls, exists, and the tracer puts every
wrapped attribute back.  Then a smoke run of the benchmark command itself:
each workload, traced, at `--scale tiny`, must pass its own output checks."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def load_runner(monkeypatch):
    """perfbench/run.py under a name of its own, its siblings importable."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # run.py sets these on import
    spec = importlib.util.spec_from_file_location("perfbench_run_probe", PERFBENCH / "run.py")
    runner = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, runner)  # its dataclasses look it up
    spec.loader.exec_module(runner)
    return runner


def attributes(P) -> dict[tuple[str, str], object]:
    """Every attribute of the program's modules and traced classes."""
    owners = {name.removeprefix("dsmsched."): module for name, module in sys.modules.items()
              if name == "dsmsched" or name.startswith("dsmsched.")}
    owners["ProblemContext"] = P.costing.ProblemContext
    owners["SearchSpace"] = P.csa.SearchSpace
    return {(owner, key): value
            for owner, obj in owners.items() for key, value in list(vars(obj).items())}


def test_tracer_wraps_every_probe_point_and_restores_it(monkeypatch):
    runner = load_runner(monkeypatch)
    P = runner.load_program()
    before = attributes(P)

    tracer = runner.install_tracer(P)
    during = attributes(P)
    tracer.restore()
    after = attributes(P)

    wrapped = {name for name, value in during.items() if value is not before.get(name)}
    assert {
        ("SearchSpace", "gross"), ("SearchSpace", "random_antibody"),
        ("ProblemContext", "slot_flow"), ("ProblemContext", "baseline_loss"),
        ("csa", "clone_and_hypermutate"), ("csa", "optimize"),
        ("oracle", "sweep_penalties"), ("costing", "total_cost"),
        ("constraints", "is_feasible"), ("feeder", "solve_power_flow"),
        ("cli", "load_scenario_config"), ("cli", "run_scenario"),
        ("domain", "aggregate_power"),
    } <= wrapped
    assert after.keys() == before.keys()
    assert all(after[name] is value for name, value in before.items())
    # called, not wrapped: the oracle job builds and sizes a SmallInstance
    small = P.oracle.SmallInstance
    assert "context" in small.__dataclass_fields__
    assert callable(small.check_guard) and callable(small.candidate_count)


def test_a_loaded_config_has_what_the_benchmark_reads(monkeypatch, tmp_path):
    # perfbench/run.py and perfbench/tests read these of a config they load
    runner = load_runner(monkeypatch)
    P = runner.load_program()
    for path in runner.write_family_configs(1, 1, tmp_path, {"generations": 5}):
        with runner.quiet():
            cfg = P.cli.load_scenario_config(path)
        assert cfg.label == f"small-{path.stem}"
        assert isinstance(cfg.grid, P.domain.TimeGrid) and cfg.grid.slot_count == 16
        assert cfg.appliances and all(isinstance(a, P.domain.Appliance) for a in cfg.appliances)
        assert cfg.md_kw > 0 and cfg.penalties_usd_per_kwh
        assert cfg.csa.generations == 5 and replace(cfg.csa, rng_seed=9).rng_seed == 9
        cfg.out_dir = tmp_path / "out"
        assert cfg.out_dir == tmp_path / "out"
        for pi in cfg.penalties_usd_per_kwh:
            assert cfg.context(pi).penalty_price == pi


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_command_passes_its_checks(workload):
    # a traced job also checks that tracing changes no count and no report byte
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", "1", "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
