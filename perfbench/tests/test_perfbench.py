"""Tests of the benchmark itself, at `--scale tiny`.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import instances  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def program():
    return run.load_program()


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_benchmark_metric_is_emitted(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_and_untraced_counts_match(program, workload, tmp_path):
    bench = run.make_workload(program, workload, 5, tmp_path, tiny=True)
    layers, (plain, traced) = run.traced(program, bench, tmp_path, 5, workload)
    assert plain.problems == [] and traced.problems == []
    assert traced.counts() == plain.counts()
    assert traced.reports == plain.reports
    assert layers["csa.evaluations"]["value"] == plain.evaluations
    assert layers["csa.generations"]["value"] == plain.generations
    assert layers["oracle.candidates"]["value"] == plain.candidates
    assert layers["csa.SearchSpace.gross.calls"]["value"] == plain.evaluations


@pytest.mark.parametrize("workload", ["day_cost_only", "day_pv_sweep"])
def test_cross_price_repeats_need_several_prices(program, workload, tmp_path):
    bench = run.make_workload(program, workload, 5, tmp_path, tiny=True)
    layers, _ = run.traced(program, bench, tmp_path, 5, workload)
    repeats = layers["csa.cross_price_repeat_frac"]["value"]
    assert repeats == 0.0 if workload == "day_cost_only" else repeats > 0.0


def test_repeated_jobs_give_identical_reports(program, tmp_path):
    bench = run.make_workload(program, "day_pv_sweep", 9, tmp_path, tiny=True)
    _, configs = run.timed_setup(bench)
    gauge = run.Gauge()
    first = run.run_job(bench, configs, tmp_path / "one", gauge)
    second = run.run_job(bench, configs, tmp_path / "two", gauge)
    assert first.problems == [] and second.problems == []
    assert first.reports == second.reports and first.reports


def test_gauge_samples_inside_a_segment_and_leaves_its_own_time_out():
    gauge = run.Gauge()
    with gauge.segment() as seg:
        end = time.perf_counter() + 1.0
        while time.perf_counter() < end:
            pass
    # the passes before and after the segment, and at least one inside it
    assert len(gauge.passes) >= 4
    assert 0.5 < seg.raw_s < 1.0
    assert seg.corrected_s == seg.raw_s * seg.scale


def test_same_seed_same_instances(tmp_path):
    def files(seed: int, where: str) -> dict[str, bytes]:
        instances.write_family_configs(seed, seed, tmp_path / where)
        return {p.name: p.read_bytes() for p in sorted((tmp_path / where).iterdir())}

    assert files(4, "x") == files(4, "y")
    assert files(4, "x") != files(5, "z")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_instances_fit_the_oracle_and_the_feeder_band_binds(program, tmp_path, seed):
    paths = instances.write_family_configs(seed, seed, tmp_path)
    for path in paths:
        with run.quiet():
            cfg = program.cli.load_scenario_config(path)
        instance = program.oracle.SmallInstance(context=cfg.context())
        instance.check_guard()
        if cfg.label in ("small-feeder", "small-md"):
            sweep = program.oracle.sweep_penalties(instance, cfg.penalties_usd_per_kwh)
            feasible = next(iter(sweep.values())).feasible_count
            assert 0 < feasible < instance.candidate_count(), cfg.label
        if cfg.label == "small-feeder":
            # no demand cap, so every excluded candidate is a voltage exclusion
            assert cfg.md_kw >= sum(a.rated_kw for a in cfg.appliances)


def _misreport(config, outcome):
    for row in outcome.report["runs"]:
        row["total_usd"] += 1.0


def _lose_schedule(config, outcome):
    for row in outcome.report["runs"]:
        (config.out_dir / row["files"]["schedule"]).unlink()


@pytest.mark.parametrize("corrupt", [_misreport, _lose_schedule])
def test_failed_check_exits_nonzero(program, monkeypatch, capsys, corrupt):
    original = program.cli.run_scenario

    def corrupted(config):
        outcome = original(config)
        corrupt(config, outcome)
        return outcome

    monkeypatch.setattr(program.cli, "run_scenario", corrupted)
    code = run.main(["--workload", "day_cost_only", "--seed", "2", "--seconds", "0",
                     "--trace", "0", "--scale", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] == result["attempted"] == 1


def test_tracked_outputs_are_not_written():
    before = {p: p.stat().st_mtime_ns for p in (ROOT / "out").rglob("*") if p.is_file()}
    proc = _bench("--workload", "day_cost_only", "--seed", "1", "--seconds", "0",
                  "--trace", "0", "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    after = {p: p.stat().st_mtime_ns for p in (ROOT / "out").rglob("*") if p.is_file()}
    assert after == before
    assert not any((ROOT / ".perfbench_work").glob("day_cost_only-*"))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "small_vs_oracle", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
