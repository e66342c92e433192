"""Command-line scenario runner.

`dsm-sched run` optimizes a configured day for one or more penalty prices
and writes machine-readable reports; `explain` evaluates a user-supplied
schedule without optimizing; `oracle` solves a small scenario exactly.

All output files are deterministic for a fixed config and seed: floats are
fixed to 6 decimals and JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .constraints import is_feasible
from .costing import CostBreakdown, ProblemContext, assess, total_cost
from .csa import CsaConfig, OptimResult, optimize
from .domain import (
    Appliance,
    ISSUE_ORIGINAL_WINDOW,
    TimeGrid,
    aggregate_power,
    finite_float,
    load_appliances_csv,
    load_schedule_csv,
    parse_appliance_row,
    validate_appliance_set,
    whole_int,
    write_csv,
    write_schedule_csv,
)
from .errors import DsmError, InputError, PowerFlowError
from .feeder import load_feeder_json
from .oracle import SmallInstance, sweep_penalties
from .profiles import PriceSeries, PvSeries, load_neighbor_loads, load_series

__all__ = ["ScenarioConfig", "ScenarioReport", "run_scenario", "explain", "main"]

REPORT_SCHEMA_VERSION = 1


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _round(value: float | None, digits: int = 6) -> float | None:
    if value is None:
        return None
    return round(value, digits) + 0.0  # normalize -0.0


def _pi_label(usd_per_kwh: float) -> str:
    """Penalty price rendered in cents for file names: 0.05 -> '5'."""
    return f"{usd_per_kwh * 100:g}"


@dataclass
class ScenarioConfig:
    """One runnable experiment, as read from a JSON config file: one problem,
    run at each penalty price; every context of it reads one flow cache."""

    label: str
    problem: ProblemContext  # at penalty price 0
    penalties_usd_per_kwh: list[float]
    out_dir: Path
    csa: CsaConfig  # csa.rng_seed is the seed of every run

    # read-only views of the problem, read by perfbench/run.py and its tests
    @property
    def grid(self) -> TimeGrid:
        return self.problem.grid

    @property
    def appliances(self) -> tuple[Appliance, ...]:
        return self.problem.appliances

    @property
    def md_kw(self) -> float:
        return self.problem.md_kw

    def context(self, penalty_price: float = 0.0) -> ProblemContext:
        return self.problem.with_penalty(penalty_price)


@dataclass
class ScenarioReport:
    """run_scenario outcome: the report dict written to report.json."""

    report: dict
    results: dict[float, OptimResult]

    @property
    def all_feasible(self) -> bool:
        return all(result.success for result in self.results.values())


# every key a scenario config may hold; any other key is an input error
_CONFIG_KEYS = frozenset({
    "label", "grid", "appliances", "appliances_csv", "price", "price_csv",
    "pv", "pv_csv", "pv_capacity_kw", "pv_enabled", "neighbors_csv",
    "feeder_json", "md_kw", "penalty_prices_usd_per_kwh", "voltage_band",
    "power_factor", "seed", "out_dir", "csa",
})

_JSON_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string", bool: "true or false"}


def _typed(data: dict, key: str, kind: type, where: str, default=None):
    """data[key], or `default` if absent; an InputError unless it is a `kind`."""
    value = data.get(key, default)
    if not isinstance(value, kind):
        raise InputError(f"{where}: '{key}' must be {_JSON_TYPE_NAMES[kind]}, got {value!r}")
    return value


def _path(data: dict, key: str, base: Path, where: str, default=None) -> Path:
    """data[key] as a path, resolved relative to the config's directory."""
    p = Path(_typed(data, key, str, where, default))
    return p if p.is_absolute() else (base / p)


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise InputError(f"{where}: missing required key '{key}'")
    return data[key]


def _number(value, key: str, where: str, kind=finite_float):
    """`value` read by `kind`, `finite_float` or `whole_int`; an InputError
    naming `key` if it is not such a number."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is whole_int else "finite"
        raise InputError(f"{where}: '{key}' must be a number ({what}), got {value!r}") from None


def _load_grid(data: dict, where: str) -> TimeGrid:
    grid = _typed(data, "grid", dict, where, {})
    return TimeGrid(
        slot_count=_number(grid.get("slot_count", 48), "grid.slot_count", where, whole_int),
        slot_hours=_number(grid.get("slot_hours", 0.5), "grid.slot_hours", where),
    )


def _load_voltage_band(data: dict, where: str) -> tuple[float, float]:
    band = data.get("voltage_band", [0.95, 1.05])
    if not (isinstance(band, list) and len(band) == 2):
        raise InputError(f"{where}: voltage_band must be [low, high]")
    return tuple(_number(v, "voltage_band", where) for v in band)


def _penalty_prices(values: Iterable, per_usd: float, bad: str, empty: str) -> list[float]:
    """Each of `values` over `per_usd`, as penalty prices in $/kWh: an
    InputError `bad: <reason>` unless each is a finite number >= 0, and
    the InputError `empty` if there are none."""
    prices = []
    try:
        for value in values:
            prices.append(finite_float(value) / per_usd)
            if prices[-1] < 0:
                raise ValueError(f"penalty price must be >= 0, got {prices[-1]}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{bad}: {exc}") from None
    if not prices:
        raise InputError(empty)
    return prices


def _load_appliances(data: dict, base: Path, where: str, grid: TimeGrid) -> tuple[Appliance, ...]:
    if "appliances_csv" in data:
        appliances = tuple(load_appliances_csv(_path(data, "appliances_csv", base, where)))
    elif "appliances" in data:
        rows = []
        for n, raw in enumerate(_typed(data, "appliances", list, where), start=1):
            try:
                rows.append(parse_appliance_row(raw))
            except ValueError as exc:
                raise InputError(f"{where}: appliance {n}: {exc}") from None
        appliances = tuple(rows)
    else:
        raise InputError(f"{where}: need 'appliances_csv' or inline 'appliances'")

    issues = validate_appliance_set(appliances, grid)
    hard = [i for i in issues if i.kind != ISSUE_ORIGINAL_WINDOW]
    if hard:
        lines = "; ".join(f"appliance {i.appliance_id}: {i.message}" for i in hard)
        raise InputError(f"{where}: invalid appliance set: {lines}")
    for i in issues:
        print(f"warning: {i.message}", file=sys.stderr)
    return appliances


def _load_series_field(
    data: dict, base: Path, where: str, grid: TimeGrid, csv_key: str, inline_key: str
) -> list[float] | None:
    if csv_key in data:
        return load_series(_path(data, csv_key, base, where), grid)
    if inline_key in data:
        values = [_number(v, inline_key, where) for v in _typed(data, inline_key, list, where)]
        if len(values) != grid.slot_count:
            raise InputError(
                f"{where}: '{inline_key}' has {len(values)} values, "
                f"grid expects {grid.slot_count}"
            )
        return values
    return None


def load_scenario_config(path: str | Path) -> ScenarioConfig:
    """The scenario config at `path`, read for `run`, `explain` and `oracle`.

    Any malformed content, and any value outside the problem's own limits,
    is an InputError naming the file.
    """
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from None
    except ValueError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from None
    try:
        return _parse_config(data, path)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


def _parse_config(data, path: Path) -> ScenarioConfig:
    base = path.parent
    where = str(path)
    if not isinstance(data, dict):
        raise InputError(f"{where}: a config must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise InputError(f"{where}: unknown config keys {sorted(unknown)}")

    grid = _load_grid(data, where)
    appliances = _load_appliances(data, base, where, grid)

    price_values = _load_series_field(data, base, where, grid, "price_csv", "price")
    if price_values is None:
        raise InputError(f"{where}: need 'price_csv' or inline 'price'")
    price = PriceSeries(values=tuple(price_values))

    pv = capacity = None
    pv_values = _load_series_field(data, base, where, grid, "pv_csv", "pv")
    if "pv_capacity_kw" in data:  # checked as PvSeries checks it, PV used or not
        capacity = PvSeries((), _number(data["pv_capacity_kw"], "pv_capacity_kw", where)).capacity_kw
    if _typed(data, "pv_enabled", bool, where, False):
        if pv_values is None:
            raise InputError(f"{where}: pv_enabled is true but no 'pv_csv' or 'pv' given")
        # no positive value infers a capacity, so a negative one is reported as a value
        pv = PvSeries(values=tuple(pv_values),
                      capacity_kw=capacity or max(max(pv_values), 0.0) or 1.0)

    power_factor = _number(data.get("power_factor", 0.95), "power_factor", where)
    neighbors = None
    if "neighbors_csv" in data:
        neighbors = load_neighbor_loads(_path(data, "neighbors_csv", base, where), grid)

    feeder = None
    if "feeder_json" in data:
        feeder = load_feeder_json(_path(data, "feeder_json", base, where))
    if neighbors is not None and feeder is None:
        raise InputError(f"{where}: 'neighbors_csv' needs 'feeder_json': neighbour loads "
                         "enter only the feeder's power flow")

    voltage_min, voltage_max = _load_voltage_band(data, where)

    penalties = _penalty_prices(_typed(data, "penalty_prices_usd_per_kwh", list, where, [0.0]),
                                1.0, f"{where}: bad penalty_prices_usd_per_kwh",
                                f"{where}: penalty price list must be non-empty")

    csa_data = dict(_typed(data, "csa", dict, where, {}))
    # the search seed is the scenario's `seed`, not a csa option
    unknown = set(csa_data) - {f.name for f in fields(CsaConfig) if f.name != "rng_seed"}
    if unknown:
        raise InputError(f"{where}: unknown csa options {sorted(unknown)}")
    seed = _number(data.get("seed", 0), "seed", where, whole_int)
    if seed < 0:
        raise InputError(f"{where}: 'seed' must be >= 0, got {seed}")
    for key, value in csa_data.items():
        csa_data[key] = _number(value, f"csa.{key}", where, whole_int)
    try:
        csa = CsaConfig(rng_seed=seed, **csa_data)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: bad csa options: {exc}") from None

    return ScenarioConfig(
        label=_typed(data, "label", str, where, path.stem),
        problem=ProblemContext(  # checks the cap, the band, the power factor, the houses
            grid=grid,
            appliances=appliances,
            price=price,
            pv=pv,
            neighbors=neighbors,
            feeder=feeder,
            md_kw=_number(_require(data, "md_kw", where), "md_kw", where),
            voltage_min=voltage_min,
            voltage_max=voltage_max,
            power_factor=power_factor,
        ),
        penalties_usd_per_kwh=penalties,
        out_dir=_path(data, "out_dir", base, where, "out"),
        csa=csa,
    )


def _voltage_rows(context: ProblemContext, gross: np.ndarray) -> Iterable[list]:
    """`slot, bus, v_pu` rows of `gross`'s power flows; raises the first
    failed flow's PowerFlowError."""
    loads = assess(context, gross[None])
    loads.raise_failure(0)
    for slot, row in enumerate(loads.mags[loads.cells[0]].tolist(), start=1):
        for bus, mag in enumerate(row):
            yield [slot, bus, _fmt(mag)]


def _cost_fields(breakdown: CostBreakdown, gross: np.ndarray) -> dict:
    """The report fields shared by the original plan and every run."""
    return {
        "c_e_usd": _round(breakdown.energy_usd),
        "c_p_usd": _round(breakdown.penalty_usd),
        "total_usd": _round(breakdown.total_usd),
        "peak_kw": _round(float(gross.max())),
        "pv_utilization": _round(breakdown.pv_utilization),
    }


def _output_names(config: ScenarioConfig) -> list[dict[str, str]]:
    """The files of each penalty price's run, by kind, once every output
    name is known to be free: an InputError if two prices share a file
    label, the IsADirectoryError of a name that a directory takes."""
    kinds = ["convergence", "profile", "schedule"]
    names = ["report.json"]
    if config.problem.feeder is not None:
        kinds.append("voltage")
        names.append("voltage_original.csv")
    runs, price_of = [], {}
    for pi in config.penalties_usd_per_kwh:
        label = _pi_label(pi)
        if label in price_of:
            raise InputError(f"penalty prices {price_of[label]!r} and {pi!r} $/kWh "
                             f"share the output label '{label}'")
        price_of[label] = pi
        runs.append({kind: f"{kind}_{label}.csv" for kind in kinds})
        names += runs[-1].values()
    for name in names:
        if (config.out_dir / name).is_dir():
            raise IsADirectoryError(f"output name {name!r} is taken by a directory")
    return runs


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    """Optimize each penalty price, write all output files, build the report.

    Every output name is checked before the first optimization.
    """
    files_of = _output_names(config)
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    base_ctx = config.problem
    original = base_ctx.original_schedule()
    original_breakdown = total_cost(original, base_ctx)
    original_gross = aggregate_power(original, base_ctx.appliances)
    pv_kw = base_ctx.pv_array()

    if base_ctx.feeder is not None:
        write_csv(out / "voltage_original.csv", ["slot", "bus", "v_pu"],
                  _voltage_rows(base_ctx, original_gross))

    runs = []
    results: dict[float, OptimResult] = {}
    for pi, files in zip(config.penalties_usd_per_kwh, files_of):
        ctx = base_ctx.with_penalty(pi)
        result = results[pi] = optimize(ctx, config.csa)

        dsm_gross = aggregate_power(result.schedule, ctx.appliances)
        write_csv(out / files["profile"], ["slot", "original_kw", "dsm_kw", "pv_kw", "price"], (
            [slot, *map(_fmt, values)] for slot, *values in
            zip(ctx.grid.slots(), original_gross, dsm_gross, pv_kw, ctx.price.values)
        ))
        write_csv(out / files["convergence"], ["generation", "best_total_usd", "evaluations"], (
            [generation, "" if total != total else _fmt(total), evaluations]  # NaN: none feasible
            for generation, total, evaluations in result.history
        ))
        write_schedule_csv(out / files["schedule"], result.schedule, ctx.appliances)
        if "voltage" in files:
            write_csv(out / files["voltage"], ["slot", "bus", "v_pu"],
                      _voltage_rows(ctx, dsm_gross))

        breakdown = result.breakdown
        row = {
            "penalty_usd_per_kwh": _round(pi),
            "penalty_cents_per_kwh": _round(pi * 100),
            "feasible": result.success,
            "evaluations": result.evaluations,
            "generations": result.history[-1][0],
            "files": files,
        }
        if breakdown is not None:
            before = original_breakdown.total_usd
            saving = (before - breakdown.total_usd) / before * 100.0 if before > 0 else None
            row.update(_cost_fields(breakdown, dsm_gross))
            row.update(
                shift_slots_total=breakdown.total_shift_slots,
                weighted_shift_kw_slots=_round(breakdown.weighted_shift),
                saving_vs_original_pct=_round(saving),
            )
        if not result.success:
            row["message"] = result.message
        runs.append(row)

    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool_version": __version__,
        "scenario": config.label,
        "seed": config.csa.rng_seed,
        "pv_enabled": base_ctx.pv is not None,
        "md_kw": _round(base_ctx.md_kw),
        "original": _cost_fields(original_breakdown, original_gross),
        "runs": runs,
    }
    with (out / "report.json").open("w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return ScenarioReport(report=report, results=results)


def explain(schedule_path: str | Path, config: ScenarioConfig, penalty_price: float | None = None) -> dict:
    """Evaluate a schedule file against a scenario config without optimizing."""
    pi = config.penalties_usd_per_kwh[0] if penalty_price is None else penalty_price
    ctx = config.context(penalty_price=pi)
    schedule = load_schedule_csv(schedule_path, ctx.appliances, ctx.grid)
    report = is_feasible(schedule, ctx)
    out: dict = {"feasibility": report.to_dict(), "penalty_usd_per_kwh": _round(pi)}
    try:
        out["cost"] = total_cost(schedule, ctx).to_dict()
    except (PowerFlowError, ValueError) as exc:  # a diverging flow; a plan of the wrong length
        out["cost"] = None
        out["cost_error"] = str(exc)
    return out


# commands ---------------------------------------------------------------------


def _penalty_cents(text: str) -> list[float]:
    """A --penalty-cents value: comma-separated cents/kWh, as $/kWh prices."""
    return _penalty_prices(filter(str.strip, text.split(",")), 100.0,
                           f"bad --penalty-cents value {text!r}",
                           "--penalty-cents needs at least one value")


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_scenario_config(args.config)
    if args.penalty_cents is not None:
        config.penalties_usd_per_kwh = _penalty_cents(args.penalty_cents)
    if args.seed is not None:
        try:
            config.csa = replace(config.csa, rng_seed=args.seed)
        except ValueError as exc:
            raise InputError(f"bad --seed value {args.seed}: {exc}") from None
    if args.out is not None:
        if not args.out.strip():
            raise InputError(f"bad --out value {args.out!r}: needs a directory path")
        config.out_dir = Path(args.out)

    try:
        outcome = run_scenario(config)
    except OSError as exc:  # an output path that is a file, under one, or a directory
        raise InputError(f"cannot write outputs to {config.out_dir}: {exc}") from None
    for row in outcome.report["runs"]:
        status = "ok" if row["feasible"] else "INFEASIBLE"
        total = row.get("total_usd")
        total_txt = "n/a" if total is None else f"${total:.2f}"
        print(
            f"pi={row['penalty_cents_per_kwh']:g}c total={total_txt} "
            f"evaluations={row['evaluations']} {status}"
        )
    print(f"report: {config.out_dir / 'report.json'}")
    if not outcome.all_feasible:
        print(json.dumps({"error": "one or more runs infeasible"}, sort_keys=True))
        return 1
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    config = load_scenario_config(args.config)
    pi = None
    if args.penalty_cents is not None:
        prices = _penalty_cents(args.penalty_cents)
        if len(prices) > 1:
            raise InputError(f"bad --penalty-cents value {args.penalty_cents!r}: "
                             "explain takes one price")
        pi = prices[0]
    out = explain(args.schedule, config, penalty_price=pi)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0 if out["feasibility"]["feasible"] else 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    config = load_scenario_config(args.config)
    try:
        instance = SmallInstance(context=config.context())
    except ValueError as exc:  # too many slots
        raise InputError(f"{args.config}: {exc}") from None
    prices = config.penalties_usd_per_kwh
    try:
        results = sweep_penalties(instance, prices)
    except ValueError as exc:  # no feasible schedule
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = []
    for pi in prices:
        best = results[pi]
        payload.append({
            "penalty_usd_per_kwh": _round(pi),
            "total_usd": _round(best.breakdown.total_usd),
            "c_e_usd": _round(best.breakdown.energy_usd),
            "c_p_usd": _round(best.breakdown.penalty_usd),
            "on_slots": {
                str(a.id): list(slots)
                for a, slots in zip(config.appliances, best.schedule.to_on_slots())
            },
            "tie_count": len(best.ties),
            "feasible_count": best.feasible_count,
        })
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dsm-sched",
        description="Day-ahead appliance scheduling under demand and voltage limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="optimize a configured scenario")
    p_run.add_argument("--config", required=True, help="scenario config JSON")
    p_run.add_argument(
        "--penalty-cents",
        help="comma-separated penalty prices in cents/kWh, overrides the config",
    )
    p_run.add_argument("--seed", type=int, help="RNG seed, overrides the config")
    p_run.add_argument("--out", help="output directory, overrides the config")
    p_run.set_defaults(func=_cmd_run)

    p_explain = sub.add_parser("explain", help="evaluate a schedule file")
    p_explain.add_argument("--schedule", required=True, help="schedule CSV (id,on_slots)")
    p_explain.add_argument("--config", required=True, help="scenario config JSON")
    p_explain.add_argument("--penalty-cents", help="penalty price in cents/kWh")
    p_explain.set_defaults(func=_cmd_explain)

    p_oracle = sub.add_parser("oracle", help="exhaustively solve a small scenario")
    p_oracle.add_argument("--config", required=True, help="scenario config JSON")
    p_oracle.set_defaults(func=_cmd_oracle)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DsmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
