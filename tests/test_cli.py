import dataclasses
import json
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import FIXTURES
from dsmsched.cli import (
    REPORT_SCHEMA_VERSION,
    ScenarioConfig,
    load_scenario_config,
    main,
    run_scenario,
)
from dsmsched.domain import TimeGrid, load_schedule_csv
from dsmsched.errors import InputError
from dsmsched.oracle import SmallInstance, sweep_penalties
from generate_fixtures import write_feeder_json, write_neighbor_loads
from small_instances import build_suite

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

INLINE_APPLIANCES = [
    {"id": 1, "class": "baseline", "window_start": 1, "window_end": 12,
     "duration": 12, "rated_kw": 0.4, "original_slots": list(range(1, 13))},
    {"id": 2, "class": "uninterruptible", "window_start": 1, "window_end": 12,
     "duration": 3, "rated_kw": 1.5, "original_slots": [8, 9, 10]},
    {"id": 3, "class": "interruptible", "window_start": 2, "window_end": 11,
     "duration": 2, "rated_kw": 2.0, "original_slots": [8, 9]},
]

STEEP_PRICE = [0.03, 0.03, 0.03, 0.08, 0.08, 0.08, 0.08, 0.30, 0.30, 0.30, 0.08, 0.08]


def base_config(out_dir, **overrides):
    config = {
        "label": "tiny",
        "grid": {"slot_count": 12, "slot_hours": 0.5},
        "appliances": INLINE_APPLIANCES,
        "price": STEEP_PRICE,
        "md_kw": 5.0,
        "penalty_prices_usd_per_kwh": [0.0, 0.10],
        "seed": 3,
        "out_dir": str(out_dir),
        "csa": {"population_size": 16, "generations": 40, "stall_generations": 12},
    }
    config.update(overrides)
    return config


def write_config(tmp_path, name="scenario.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(base_config(tmp_path / "out", **overrides), indent=1))
    return path


class TestLoadScenarioConfig:
    def test_reads_everything(self, tmp_path):
        path = write_config(tmp_path)
        config = load_scenario_config(path)
        assert config.label == "tiny"
        assert config.grid == TimeGrid(slot_count=12, slot_hours=0.5)
        assert len(config.appliances) == 3
        assert config.penalties_usd_per_kwh == [0.0, 0.10]
        assert config.csa.population_size == 16
        assert config.csa.rng_seed == 3  # defaults to the scenario seed

    def test_a_config_holds_one_problem(self, tmp_path):
        config = load_scenario_config(write_config(tmp_path))
        assert [f.name for f in dataclasses.fields(config)] == [
            "label", "problem", "penalties_usd_per_kwh", "out_dir", "csa"]
        assert config.problem.penalty_price == 0.0
        assert (config.grid, config.appliances, config.md_kw) == (
            config.problem.grid, config.problem.appliances, config.problem.md_kw)
        for name in ("grid", "appliances", "md_kw"):
            with pytest.raises(AttributeError):
                setattr(config, name, None)

    def test_every_context_of_a_config_reads_one_flow_cache(self, tmp_path):
        config = load_scenario_config(write_config(tmp_path))
        assert config.context(0.1).penalty_price == 0.1
        assert config.context(0.1)._cache is config.context()._cache

    def test_md_kw_is_required(self, tmp_path):
        config = base_config(tmp_path / "out")
        del config["md_kw"]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        rc = main(["run", "--config", str(path)])
        assert rc == 2

    def test_unknown_csa_key_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, csa={"population_size": 16, "mutation_rate": 0.5})
        rc = main(["run", "--config", str(path)])
        assert rc == 2
        assert "mutation_rate" in capsys.readouterr().err

    def test_removed_parallel_options_rejected(self, tmp_path, capsys):
        # options of older versions; thread-parallel evaluation is gone
        path = write_config(
            tmp_path, csa={"parallel_evaluation": True, "max_workers": 2})
        rc = main(["run", "--config", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown csa options" in err
        assert "max_workers" in err and "parallel_evaluation" in err

    @pytest.mark.parametrize("option, value", [
        ("clone_factor", 1.0),
        ("hypermutation_scale", 0.8),
        ("replacement_fraction", 0.15),
        ("constraint_penalty_weight", 5.0),
    ])
    def test_removed_clonalg_options_rejected(self, tmp_path, capsys, option, value):
        # settable in older versions; the CLONALG rules are now fixed
        path = write_config(tmp_path, csa={"population_size": 16, option: value})
        rc = main(["run", "--config", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: {path}: unknown csa options ['{option}']\n"

    def test_missing_referenced_file_names_path(self, tmp_path, capsys):
        config = base_config(tmp_path / "out")
        del config["appliances"]
        config["appliances_csv"] = "nonexistent.csv"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        rc = main(["run", "--config", str(path)])
        assert rc == 2
        assert "nonexistent.csv" in capsys.readouterr().err

    def test_widened_window_warns_but_runs(self, tmp_path, capsys):
        apps = [dict(a) for a in INLINE_APPLIANCES]
        apps[2] = dict(apps[2], window_start=2, window_end=6)  # original 8,9 outside
        path = write_config(tmp_path, appliances=apps)
        load_scenario_config(path)
        assert "widened" in capsys.readouterr().err

    def test_hard_validation_error_rejected(self, tmp_path):
        apps = [dict(a) for a in INLINE_APPLIANCES]
        apps[1] = dict(apps[1], duration=4)  # original plan length mismatch
        path = write_config(tmp_path, appliances=apps)
        rc = main(["run", "--config", str(path)])
        assert rc == 2

    def test_pv_enabled_needs_a_series(self, tmp_path):
        path = write_config(tmp_path, pv_enabled=True)
        rc = main(["run", "--config", str(path)])
        assert rc == 2

    @pytest.mark.parametrize("change, message", [
        ({"class": "dishwasher"}, "dishwasher"),
        ({"duration": None}, "missing key 'duration'"),
        ({"rated_kw": "abc"}, "abc"),
    ])
    def test_bad_inline_appliance_row_is_an_input_error(self, tmp_path, capsys,
                                                         change, message):
        row = dict(INLINE_APPLIANCES[1], **change)
        if row["duration"] is None:
            del row["duration"]
        apps = [INLINE_APPLIANCES[0], row, INLINE_APPLIANCES[2]]
        path = write_config(tmp_path, appliances=apps)
        rc = main(["run", "--config", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ")
        assert "appliance 2" in err and message in err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        # keys of the old oracle instance format, and a typo
        path = write_config(tmp_path, guard_limit=10, penalty_usd_per_kwh=0.05,
                            typo_key=1)
        rc = main(["run", "--config", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == (f"error: {path}: unknown config keys "
                       "['guard_limit', 'penalty_usd_per_kwh', 'typo_key']\n")

    def test_inline_row_equals_csv_row(self, tmp_path):
        header = "id,class,window_start,window_end,duration,rated_kw,original_slots\n"
        rows = "".join(
            f"{a['id']},{a['class']},{a['window_start']},{a['window_end']},"
            f"{a['duration']},{a['rated_kw']},{';'.join(map(str, a['original_slots']))}\n"
            for a in INLINE_APPLIANCES
        )
        (tmp_path / "appliances.csv").write_text(header + rows)
        config = base_config(tmp_path / "out")
        del config["appliances"]
        config["appliances_csv"] = "appliances.csv"
        csv_path = tmp_path / "from_csv.json"
        csv_path.write_text(json.dumps(config))
        inline = load_scenario_config(write_config(tmp_path)).appliances
        assert load_scenario_config(csv_path).appliances == inline
        # a ';' string is read as the CSV column is
        apps = [dict(a, original_slots=";".join(map(str, a["original_slots"])))
                for a in INLINE_APPLIANCES]
        path = write_config(tmp_path, name="joined.json", appliances=apps)
        assert load_scenario_config(path).appliances == inline


class TestRunCommand:
    def test_writes_all_outputs(self, tmp_path, capsys):
        path = write_config(tmp_path)
        rc = main(["run", "--config", str(path)])
        assert rc == 0
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == REPORT_SCHEMA_VERSION
        assert report["scenario"] == "tiny"
        assert report["md_kw"] == 5.0
        assert len(report["runs"]) == 2
        for row in report["runs"]:
            assert row["feasible"] is True
            assert row["total_usd"] <= report["original"]["total_usd"] + 1e-9
            for key in ("convergence", "profile", "schedule"):
                assert (out / row["files"][key]).exists()
        # zero-penalty run should beat the original on this tariff
        assert report["runs"][0]["saving_vs_original_pct"] > 0
        stdout = capsys.readouterr().out
        assert "pi=0c" in stdout and "pi=10c" in stdout

    def test_profile_and_convergence_formats(self, tmp_path):
        path = write_config(tmp_path, penalty_prices_usd_per_kwh=[0.0])
        assert main(["run", "--config", str(path)]) == 0
        out = tmp_path / "out"
        profile = (out / "profile_0.csv").read_text().splitlines()
        assert profile[0] == "slot,original_kw,dsm_kw,pv_kw,price"
        assert len(profile) == 13
        convergence = (out / "convergence_0.csv").read_text().splitlines()
        assert convergence[0] == "generation,best_total_usd,evaluations"
        schedule = load_schedule_csv(
            out / "schedule_0.csv",
            load_scenario_config(path).appliances,
            TimeGrid(slot_count=12, slot_hours=0.5),
        )
        assert schedule.appliance_count == 3

    def test_penalty_cents_override_sets_labels(self, tmp_path):
        path = write_config(tmp_path)
        rc = main(["run", "--config", str(path), "--penalty-cents", "7.5"])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [r["penalty_usd_per_kwh"] for r in report["runs"]] == [0.075]
        assert (tmp_path / "out" / "profile_7.5.csv").exists()

    def test_out_and_seed_overrides(self, tmp_path):
        path = write_config(tmp_path, penalty_prices_usd_per_kwh=[0.0])
        other = tmp_path / "elsewhere"
        rc = main(["run", "--config", str(path), "--out", str(other), "--seed", "99"])
        assert rc == 0
        report = json.loads((other / "report.json").read_text())
        assert report["seed"] == 99

    def test_negative_seed_override_is_an_input_error(self, tmp_path, capsys):
        path = write_config(tmp_path, penalty_prices_usd_per_kwh=[0.0])
        rc = main(["run", "--config", str(path), "--seed", "-1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: bad --seed value -1: rng_seed must be >= 0")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cents", ["", " , "], ids=["empty", "blank"])
    def test_empty_penalty_cents_is_an_input_error(self, tmp_path, capsys, cents):
        path = write_config(tmp_path, penalty_prices_usd_per_kwh=[0.0])
        rc = main(["run", "--config", str(path), f"--penalty-cents={cents}"])
        assert rc == 2
        assert capsys.readouterr().err == "error: --penalty-cents needs at least one value\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out", ["", "  "], ids=["empty", "blank"])
    def test_empty_out_is_an_input_error(self, tmp_path, capsys, monkeypatch, out):
        monkeypatch.chdir(tmp_path)  # a blank name is a relative path
        path = write_config(tmp_path, penalty_prices_usd_per_kwh=[0.0])
        rc = main(["run", "--config", str(path), f"--out={out}"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: bad --out value {out!r}")
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    @pytest.mark.parametrize("out", ["taken", "taken/out"], ids=["a_file", "under_a_file"])
    def test_out_path_blocked_by_a_file_is_an_input_error(self, tmp_path, capsys, out):
        path = write_config(tmp_path, penalty_prices_usd_per_kwh=[0.0])
        (tmp_path / "taken").write_text("kept\n")
        rc = main(["run", "--config", str(path), "--out", str(tmp_path / out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot write outputs to {tmp_path / out}: ")
        assert (tmp_path / "taken").read_text() == "kept\n"

    def test_report_path_taken_by_a_directory_is_an_input_error(self, tmp_path, capsys):
        path = write_config(tmp_path, penalty_prices_usd_per_kwh=[0.0])
        (tmp_path / "out" / "report.json").mkdir(parents=True)
        rc = main(["run", "--config", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: cannot write outputs to {tmp_path / 'out'}: ")
        assert "report.json" in err
        assert not (tmp_path / "out" / "schedule_0.csv").exists()  # found before optimizing

    @pytest.mark.parametrize("prices, argv", [
        ([0.05, 0.0500000001], []), ([0.0], ["--penalty-cents", "5,5"]),
    ], ids=["config", "penalty_cents"])
    def test_penalty_prices_sharing_a_file_label_are_an_input_error(self, tmp_path, capsys,
                                                                     prices, argv):
        path = write_config(tmp_path, penalty_prices_usd_per_kwh=prices)
        rc = main(["run", "--config", str(path), *argv])
        assert rc == 2
        assert "share the output label '5'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_infeasible_run_exits_nonzero(self, tmp_path, capsys):
        path = write_config(tmp_path, md_kw=0.3, penalty_prices_usd_per_kwh=[0.0])
        rc = main(["run", "--config", str(path)])
        assert rc == 1
        assert "INFEASIBLE" in capsys.readouterr().out


@pytest.mark.parametrize("command, cents", [
    ("run", "-1"), ("explain", "-1"), ("explain", "abc"), ("run", "5,x"), ("explain", "5,10"),
    ("run", "nan"), ("explain", "inf"),
])
def test_bad_penalty_cents_is_an_input_error(tmp_path, capsys, command, cents):
    argv = [command, "--config", str(write_config(tmp_path)), f"--penalty-cents={cents}"]
    if command == "explain":
        argv += ["--schedule", str(tmp_path / "schedule.csv")]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: bad --penalty-cents value")
    assert not (tmp_path / "out").exists()


class TestExplainCommand:
    def run_once(self, tmp_path):
        config_path = write_config(tmp_path, penalty_prices_usd_per_kwh=[0.0])
        assert main(["run", "--config", str(config_path)]) == 0
        return config_path, tmp_path / "out" / "schedule_0.csv"

    def test_feasible_schedule(self, tmp_path, capsys):
        config_path, schedule_path = self.run_once(tmp_path)
        capsys.readouterr()
        rc = main(["explain", "--schedule", str(schedule_path),
                   "--config", str(config_path)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["feasibility"]["feasible"] is True
        assert out["cost"]["total_usd"] > 0

    def test_penalty_override_prices_the_shifts(self, tmp_path, capsys):
        config_path, schedule_path = self.run_once(tmp_path)
        capsys.readouterr()
        rc = main(["explain", "--schedule", str(schedule_path),
                   "--config", str(config_path), "--penalty-cents", "10"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["penalty_usd_per_kwh"] == 0.1
        assert out["cost"]["c_p_usd"] > 0  # the optimized plan moved load

    def test_infeasible_schedule_exits_one(self, tmp_path, capsys):
        config_path, schedule_path = self.run_once(tmp_path)
        # park everything on one slot to bust the cap
        schedule_path.write_text("id,on_slots\n1," + ";".join(
            str(s) for s in range(1, 13)) + "\n2,8;9;10\n3,8;9\n")
        config = json.loads(config_path.read_text())
        config["md_kw"] = 3.0
        config_path.write_text(json.dumps(config))
        capsys.readouterr()
        rc = main(["explain", "--schedule", str(schedule_path),
                   "--config", str(config_path)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert out["feasibility"]["max_demand"]

    def test_diverging_flow_is_reported_verbatim(self, tmp_path, capsys):
        # 2 pu segments: the 3.9 kW peak of slots 8 and 9 makes the sweep diverge
        lines = [{"from": b, "to": b + 1, "r_pu": 2.0, "x_pu": 1.2} for b in (0, 1)]
        (tmp_path / "feeder.json").write_text(json.dumps({
            "base_kva": 50.0, "base_kv": 12.47, "slack_voltage_pu": 1.0,
            "smart_home_bus": 2, "lines": lines}))
        config_path = write_config(tmp_path, feeder_json="feeder.json")
        schedule_path = tmp_path / "schedule.csv"
        schedule_path.write_text("id,on_slots\n1," + ";".join(
            str(s) for s in range(1, 13)) + "\n2,8;9;10\n3,8;9\n")
        rc = main(["explain", "--schedule", str(schedule_path),
                   "--config", str(config_path)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert out["cost"] is None
        assert out["cost_error"] == ("power flow did not converge in 50 iterations "
                                     "(slot 8, last update 4.041e+00 pu)")
        failed = [v["slot"] for v in out["feasibility"]["voltage"] if v["bus"] == -1]
        assert failed == [8, 9]

    @pytest.mark.parametrize("rows, appliance, on_count", [
        ("1," + ";".join(str(s) for s in range(1, 13)) + "\n2,8;9\n3,8;9\n", 2, 2),
        ("1," + ";".join(str(s) for s in range(1, 12)) + "\n2,8;9;10\n3,8;9\n", 1, 11),
    ], ids=["uninterruptible_short", "baseline_short"])
    def test_wrong_slot_count_is_reported_not_raised(self, tmp_path, capsys, rows,
                                                     appliance, on_count):
        config_path = write_config(tmp_path)
        schedule_path = tmp_path / "schedule.csv"
        schedule_path.write_text("id,on_slots\n" + rows)
        rc = main(["explain", "--schedule", str(schedule_path),
                   "--config", str(config_path)])
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert rc == 1
        assert captured.err == ""
        assert {"appliance": appliance, "on_count": on_count} in out["feasibility"]["duration"]
        assert out["cost"] is None
        assert out["cost_error"] == (f"appliance {appliance}: plan has {on_count} slots, "
                                     f"expected {on_count + 1}")

    @pytest.mark.parametrize("rows, message", [
        (b"id,on_slots\n1\n", "schedule.csv:2: too few fields"),
        (b"on_slots,id\n1;2\n", "schedule.csv:2: too few fields"),
        (b"id,on_slots\nx,1\n", "schedule.csv:2: invalid literal"),
        (b"id,on_slots\n1,1;a\n", "schedule.csv:2: invalid literal"),
        (b"id,on_slots\n1,1\xff\n", "schedule.csv: 'utf-8' codec can't decode byte 0xff"),
        (b"id,on_slots\n1,1;2,junk\n", "schedule.csv:2: expected 2 columns"),
    ], ids=["short_row", "short_id", "id_text", "slot_text", "not_utf8", "wide_row"])
    def test_malformed_schedule_row_is_an_input_error(self, tmp_path, capsys, rows, message):
        config_path = write_config(tmp_path)
        (tmp_path / "schedule.csv").write_bytes(rows)
        rc = main(["explain", "--schedule", str(tmp_path / "schedule.csv"),
                   "--config", str(config_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("key, name", [
    ("appliances_csv", "appliances.csv"),
    ("price_csv", "price.csv"),
    ("pv_csv", "pv.csv"),
    ("neighbors_csv", "neighbors.csv"),
    ("feeder_json", "feeder.json"),
])
def test_non_utf8_data_file_is_an_input_error_naming_it(tmp_path, capsys, key, name):
    (tmp_path / name).write_bytes(b"slot,value\n1,1\xff\n")
    rc = main(["run", "--config", str(write_config(tmp_path, **{key: name}))])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: cannot read ")
    assert f"{name}: 'utf-8' codec can't decode byte 0xff" in err


@pytest.mark.parametrize("path, value, message", [
    (("lines", 0, "r_pu"), -0.006, "line 0-1 has negative impedance"),
    (("smart_home_bus",), 5, "smart_home_bus 5 is not at the end of the feeder"),
    # a misspelt key would otherwise be dropped and its value never used
    (("slack_voltage",), 1.05, "unknown keys ['slack_voltage']"),
    (("lines", 2, "r_ohm"), 5, "unknown keys ['r_ohm'] in line 2"),
], ids=["negative_impedance", "home_mid_feeder", "misspelt_key", "misspelt_line_key"])
def test_bad_feeder_topology_is_an_input_error_naming_it(tmp_path, capsys, path, value, message):
    feeder = json.loads((FIXTURES / "feeder_13bus.json").read_text())
    *parents, key = path
    target = feeder
    for step in parents:
        target = target[step]
    target[key] = value
    (tmp_path / "feeder.json").write_text(json.dumps(feeder))
    rc = main(["run", "--config", str(write_config(tmp_path, feeder_json="feeder.json"))])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'feeder.json'}: bad feeder description: {message}\n")


def test_neighbors_without_a_feeder_is_an_input_error(tmp_path, capsys):
    # neighbour loads enter only the feeder's power flow; without a feeder
    # they would be read and silently dropped
    (tmp_path / "neighbors.csv").write_text(
        "slot,h1\n" + "".join(f"{t},1.5\n" for t in range(1, 13)))
    rc = main(["run", "--config", str(write_config(tmp_path, neighbors_csv="neighbors.csv"))])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ")
    assert "'neighbors_csv' needs 'feeder_json'" in err
    assert not (tmp_path / "out").exists()


def _with_row_field(**field):
    """The inline appliances with one field of the second row replaced."""
    return [INLINE_APPLIANCES[0], dict(INLINE_APPLIANCES[1], **field), INLINE_APPLIANCES[2]]


_CSA = base_config("out")["csa"]


@pytest.mark.parametrize("command", ["run", "explain", "oracle"])
@pytest.mark.parametrize("change, message", [
    ({"md_kw": "abc"}, "'md_kw' must be a number"),
    ({"md_kw": 0}, "md_kw must be positive"),
    ({"voltage_band": ["a", "b"]}, "'voltage_band' must be a number"),
    ({"voltage_band": [1.05, 0.95]}, "voltage_min must be below voltage_max"),
    ({"grid": {"slot_count": "x"}}, "'grid.slot_count' must be a number"),
    ({"penalty_prices_usd_per_kwh": [-1]}, "must be >= 0"),
    ({"grid": 5}, "'grid' must be an object"),
    ({"appliances": 5}, "'appliances' must be a list"),
    ({"appliances_csv": 5}, "'appliances_csv' must be a string"),
    ({"price": -1}, "'price' must be a list"),
    ({"pv_enabled": "no"}, "'pv_enabled' must be true or false"),
    ({"csa": [1]}, "'csa' must be an object"),
    ({"grid": {"slot_count": 12, "slot_hours": "nan"}}, "'grid.slot_hours' must be a number"),
    ({"price": STEEP_PRICE[:-1] + ["nan"]}, "'price' must be a number"),
    ({"penalty_prices_usd_per_kwh": ["nan"]}, "bad penalty_prices_usd_per_kwh"),
    ({"md_kw": "-inf"}, "'md_kw' must be a number"),
    ({"appliances": _with_row_field(rated_kw="nan")}, "appliance 2: not a finite number"),
    ({"price_csv": "price_nan.csv"}, "price_nan.csv:13: bad row"),
    ({"grid": {"slot_count": 12.9}}, "'grid.slot_count' must be a number (an integer)"),
    ({"grid": {"slot_count": 70000}}, "slot_count must be <= 65535, got 70000"),
    ({"appliances": _with_row_field(duration=2.7)}, "appliance 2: not a whole number"),
    ({"csa": dict(_CSA, population_size=8.5)}, "'csa.population_size' must be a number"),
    ({"csa": dict(_CSA, generations=3.5)}, "'csa.generations' must be a number"),
    ({"md_kw": True}, "'md_kw' must be a number"),
    ({"seed": True}, "'seed' must be a number"),
    ({"seed": -1}, "'seed' must be >= 0"),
    ({"csa": dict(_CSA, rng_seed=5)}, "unknown csa options ['rng_seed']"),
    ({"label": None}, "'label' must be a string, got None"),
    ({"label": {"a": 1}}, "'label' must be a string, got {'a': 1}"),
    ({"pv_capacity_kw": -3, "pv_enabled": False}, "capacity_kw must be positive, got -3.0"),
    # no capacity given: none is inferred from values that are all <= 0
    ({"pv_enabled": True, "pv": [0.0] * 11 + [-1.0]}, "pv values must lie in [0, capacity_kw]"),
    # every rating on at once would wrap the int64 power-flow key
    ({"appliances": _with_row_field(rated_kw=1e15)}, "appliance ratings sum to 1e+15 kW"),
], ids=["md_kw_text", "md_kw_zero", "voltage_band_text", "voltage_band_inverted",
        "slot_count_text", "penalty_negative",
        "grid_number", "appliances_number", "appliances_csv_number", "price_number",
        "pv_enabled_text", "csa_list", "slot_hours_nan", "price_nan", "penalty_nan",
        "md_kw_minus_inf", "rated_kw_nan", "price_csv_nan", "slot_count_fraction",
        "slot_count_past_two_bytes",
        "duration_fraction", "population_size_fraction",
        "generations_fraction", "md_kw_bool", "seed_bool", "seed_negative",
        "csa_rng_seed", "label_null", "label_object", "pv_capacity_negative_pv_off",
        "pv_negative_no_capacity", "ratings_past_the_flow_key"])
def test_malformed_value_is_an_input_error(tmp_path, capsys, command, change, message):
    rows = "".join(f"{slot},{price}\n" for slot, price in enumerate(STEEP_PRICE[:-1], start=1))
    (tmp_path / "price_nan.csv").write_text("slot,price\n" + rows + "12,nan\n")
    argv = [command, "--config", str(write_config(tmp_path, **change))]
    if command == "explain":
        argv += ["--schedule", str(tmp_path / "schedule.csv")]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and message in err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=10,
)

_FUZZ_BASE = dict(
    base_config("out"),
    pv=[0.0, 0.0, 0.0, 0.6, 1.2, 1.6, 1.6, 1.2, 0.6, 0.0, 0.0, 0.0],
    pv_capacity_kw=1.6, pv_enabled=True, voltage_band=[0.95, 1.05], power_factor=0.95,
)


@st.composite
def _fuzzed_configs(draw):
    """A whole JSON document, or the small base config with one key or one
    appliance field replaced, added or removed."""
    kind = draw(st.sampled_from(["document", "key", "appliance_field"]))
    if kind == "document":
        return draw(_JSON)
    config = json.loads(json.dumps(_FUZZ_BASE))
    target = config
    if kind == "appliance_field":
        target = config["appliances"][draw(st.integers(0, len(INLINE_APPLIANCES) - 1))]
    key = draw(st.sampled_from(sorted(target)) | st.text(max_size=6))
    if draw(st.booleans()):
        target.pop(key, None)
    else:
        target[key] = draw(_JSON)
    return config


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(document=_fuzzed_configs())
@example(document=[])
def test_any_json_is_a_config_or_an_input_error(tmp_path, document):
    # run, explain and oracle read a config through this one loader; the
    # oracle also sizes the problem, so it runs end to end
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(document))
    try:
        config = load_scenario_config(path)
    except InputError:
        return
    assert isinstance(config, ScenarioConfig)
    assert main(["oracle", "--config", str(path)]) in (0, 1, 2)


class TestOracleCommand:
    def test_payload_matches_library_result(self, tmp_path, capsys):
        path = write_config(tmp_path, penalty_prices_usd_per_kwh=[0.05, 0.0])
        rc = main(["oracle", "--config", str(path)])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0

        config = load_scenario_config(path)
        expected = sweep_penalties(SmallInstance(context=config.context()), [0.05, 0.0])
        assert [row["penalty_usd_per_kwh"] for row in payload] == [0.05, 0.0]
        for row, pi in zip(payload, [0.05, 0.0]):
            best = expected[pi]
            assert row["total_usd"] == pytest.approx(best.breakdown.total_usd, abs=1e-6)
            assert row["c_p_usd"] == pytest.approx(best.breakdown.penalty_usd, abs=1e-6)
            assert row["feasible_count"] == best.feasible_count
            assert row["tie_count"] == len(best.ties)
            assert row["on_slots"] == {
                str(a.id): list(slots)
                for a, slots in zip(config.appliances, best.schedule.to_on_slots())
            }
            assert row["on_slots"]["1"] == list(range(1, 13))
        assert payload[1]["c_p_usd"] == 0.0
        assert payload[0]["total_usd"] >= payload[1]["total_usd"]

    def test_guard_exceeded_is_a_clean_error(self, tmp_path, capsys):
        # two 8-of-16 interruptibles: C(16, 8)**2, about 1.7e8 candidates,
        # refused before enumeration starts
        apps = [
            {"id": 1, "class": "interruptible", "window_start": 1, "window_end": 16,
             "duration": 8, "rated_kw": 1.0, "original_slots": list(range(1, 9))},
            {"id": 2, "class": "interruptible", "window_start": 1, "window_end": 16,
             "duration": 8, "rated_kw": 1.0, "original_slots": list(range(9, 17))},
        ]
        path = write_config(tmp_path, grid={"slot_count": 16, "slot_hours": 0.5},
                            appliances=apps, price=[0.1] * 16)
        rc = main(["oracle", "--config", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "165636900" in err and "guard" in err

    def test_no_feasible_schedule_exits_one(self, tmp_path, capsys):
        # the 1.5 kW block alone breaks a 1 kW cap on top of the 0.4 kW baseline
        path = write_config(tmp_path, md_kw=1.0)
        rc = main(["oracle", "--config", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == "error: no feasible schedule exists for the instance\n"

    def test_five_flexible_appliances_are_solved(self, tmp_path, capsys):
        # no limit on flexible appliances: the guard counts candidates
        path = write_config(tmp_path, appliances=INLINE_APPLIANCES + [
            dict(INLINE_APPLIANCES[2], id=n, window_start=n, window_end=n + 2, duration=1,
                 original_slots=[n]) for n in (4, 5, 6)])
        rc = main(["oracle", "--config", str(path)])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        config = load_scenario_config(path)
        expected = sweep_penalties(SmallInstance(context=config.context()),
                                   config.penalties_usd_per_kwh)
        assert [row["feasible_count"] for row in payload] == [
            expected[pi].feasible_count for pi in config.penalties_usd_per_kwh]
        assert all(len(row["on_slots"]) == 6 for row in payload)

    @pytest.mark.parametrize("change, message", [
        ({"grid": {"slot_count": 24, "slot_hours": 0.5}, "price": STEEP_PRICE * 2,
          "appliances": INLINE_APPLIANCES[1:]},
         "24 slots, limit is 16"),
    ], ids=["slots"])
    def test_too_large_for_the_oracle_is_an_input_error(self, tmp_path, capsys,
                                                         change, message):
        path = write_config(tmp_path, **change)
        rc = main(["oracle", "--config", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and message in err


class TestGoldenReport:
    @staticmethod
    def assert_golden(produced: bytes, name: str) -> None:
        golden = GOLDEN_DIR / name
        if os.environ.get("UPDATE_GOLDENS"):
            GOLDEN_DIR.mkdir(exist_ok=True)
            golden.write_bytes(produced)
        assert golden.exists(), "golden file missing; rerun with UPDATE_GOLDENS=1"
        assert produced == golden.read_bytes()

    def test_report_bytes_are_stable(self, tmp_path):
        path = write_config(
            tmp_path, label="golden", seed=12,
            penalty_prices_usd_per_kwh=[0.0, 0.05],
            pv=[0.0, 0.0, 0.0, 0.6, 1.2, 1.6, 1.6, 1.2, 0.6, 0.0, 0.0, 0.0],
            pv_capacity_kw=1.6, pv_enabled=True,
        )
        run_scenario(load_scenario_config(path))
        self.assert_golden((tmp_path / "out" / "report.json").read_bytes(), "report.json")

    @pytest.fixture(scope="class")
    def feeder_day(self, tmp_path_factory):
        """The canonical day with feeder, neighbors and PV, run once: its
        outputs pin the bytes of the power-flow path (billed losses, voltage
        penalties).  Returns the config path and the output directory."""
        tmp_path = tmp_path_factory.mktemp("feeder_day")
        config = {
            "label": "golden-feeder-day",
            "appliances_csv": str(FIXTURES / "appliances_household.csv"),
            "price_csv": str(FIXTURES / "price_day_ahead.csv"),
            "pv_csv": str(FIXTURES / "pv_6kw.csv"),
            "pv_capacity_kw": 6.0,
            "pv_enabled": True,
            "neighbors_csv": str(FIXTURES / "neighbor_loads.csv"),
            "feeder_json": str(FIXTURES / "feeder_13bus.json"),
            "md_kw": 12.4,
            "penalty_prices_usd_per_kwh": [0.0, 0.02],
            "seed": 31,
            "out_dir": str(tmp_path / "out"),
            "csa": {"generations": 10, "stall_generations": 10},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        run_scenario(load_scenario_config(path))
        return path, tmp_path / "out"

    def test_feeder_day_report_bytes_are_stable(self, feeder_day):
        _, out = feeder_day
        assert (out / "voltage_2.csv").exists()
        self.assert_golden((out / "report.json").read_bytes(), "report_feeder_day.json")

    def test_feeder_day_explain_bytes_are_stable(self, feeder_day, capsys):
        # explain prints every field of the cost breakdown: energy, penalty,
        # shifts, net load, billed losses and PV utilization
        path, out = feeder_day
        rc = main(["explain", "--schedule", str(out / "schedule_2.csv"),
                   "--config", str(path), "--penalty-cents", "2"])
        assert rc == 0
        self.assert_golden(capsys.readouterr().out.encode(), "explain_feeder_day.json")

    @pytest.mark.parametrize("name, penalties", [
        # a flat tariff at no penalty: every placement ties on energy
        ("flat_pi0", [0.0]),
        # the band rejects some placements, the original plan among them
        ("feeder_pi0", [0.0, 0.05, 0.10, 0.20]),
    ], ids=["flat", "feeder"])
    def test_oracle_stdout_is_stable(self, tmp_path, capsys, name, penalties):
        ctx = dict(build_suite())[name]
        config = {
            "grid": {"slot_count": ctx.grid.slot_count, "slot_hours": ctx.grid.slot_hours},
            "appliances": [
                {"id": a.id, "class": a.appliance_class.value,
                 "window_start": a.window_start, "window_end": a.window_end,
                 "duration": a.duration, "rated_kw": a.rated_kw,
                 "original_slots": list(a.original_on_slots)}
                for a in ctx.appliances
            ],
            "price": list(ctx.price.values),
            # above any gross load of the family, as the suite's uncapped inf is
            "md_kw": ctx.md_kw if ctx.md_kw < float("inf") else 100.0,
            "voltage_band": [ctx.voltage_min, ctx.voltage_max],
            "penalty_prices_usd_per_kwh": penalties,
        }
        if ctx.feeder is not None:
            write_feeder_json(tmp_path / "feeder.json", ctx.feeder)
            write_neighbor_loads(tmp_path / "neighbors.csv", ctx.neighbors)
            config.update(feeder_json="feeder.json", neighbors_csv="neighbors.csv")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        loaded = load_scenario_config(path).context()
        assert (loaded.appliances, loaded.price, loaded.neighbors, loaded.feeder) == (
            ctx.appliances, ctx.price, ctx.neighbors, ctx.feeder)

        assert main(["oracle", "--config", str(path)]) == 0
        self.assert_golden(capsys.readouterr().out.encode(), f"oracle_{name}.json")
