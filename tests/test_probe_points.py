"""The benchmark's probe points: every program name that `perfbench/run.py`
wraps with its span tracer, or calls, exists, and the tracer puts every
wrapped attribute back.  Fast: nothing is written and no workload runs."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
