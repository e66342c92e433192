"""End-to-end acceptance gate.

Each test covers one release criterion and records a single PASS/FAIL line,
echoed in the terminal summary.  The heavyweight canonical optimizer runs
are shared across criteria through module-scoped fixtures.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import record_acceptance
from dsmsched.constraints import (
    check_contiguity,
    check_duration,
    check_window,
    is_feasible,
)
from dsmsched.cli import ScenarioConfig, load_scenario_config, run_scenario
from dsmsched.costing import ProblemContext, total_cost
from dsmsched.csa import CsaConfig, Draws, SearchSpace, optimize
from dsmsched.domain import Appliance, ApplianceClass, TimeGrid, aggregate_power
from dsmsched.feeder import SlotInjections, solve_power_flow
from dsmsched.oracle import SmallInstance, sweep_penalties
from dsmsched.profiles import PriceSeries
from pf_reference import nr_radial, nr_two_bus
from small_instances import SEEDS, build_suite

CANONICAL_SEED = 2024
PENALTIES = (0.0, 0.05, 0.10, 0.20)


def verdict(num: int, ok: bool, detail: str) -> None:
    record_acceptance(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# shared heavyweight computations -----------------------------------------------


@pytest.fixture(scope="module")
def suite():
    return build_suite()


@pytest.fixture(scope="module")
def oracle_optima(suite):
    """Exact optimum per suite instance, plus per-family penalty sweeps."""
    families: dict[str, dict] = {}
    for name, ctx in suite:
        fam = name.rsplit("_pi", 1)[0]
        families.setdefault(fam, {"context": ctx, "penalties": set()})
        families[fam]["penalties"].add(ctx.penalty_price)

    sweeps = {}
    for fam, info in families.items():
        instance = SmallInstance(context=info["context"])
        sweeps[fam] = sweep_penalties(instance, sorted(info["penalties"]))

    by_instance = {}
    for name, ctx in suite:
        fam = name.rsplit("_pi", 1)[0]
        by_instance[name] = sweeps[fam][ctx.penalty_price]
    return {"sweeps": sweeps, "by_instance": by_instance}


@pytest.fixture(scope="module")
def canonical_contexts(grid48, canonical_appliances, canonical_price, canonical_pv,
                       canonical_neighbors, canonical_feeder):
    def build(with_pv: bool) -> ProblemContext:
        return ProblemContext(
            grid=grid48,
            appliances=canonical_appliances,
            price=canonical_price,
            pv=canonical_pv if with_pv else None,
            neighbors=canonical_neighbors,
            feeder=canonical_feeder,
            md_kw=12.4,
        )

    return {"nopv": build(False), "pv": build(True)}


@pytest.fixture(scope="module")
def canonical_runs(canonical_contexts):
    """Default-config optimizer runs over both PV variants and all penalties."""
    runs, seconds = {}, {}
    originals = {}
    for variant, base in canonical_contexts.items():
        originals[variant] = total_cost(base.original_schedule(), base)
        for pi in PENALTIES:
            ctx = base.with_penalty(pi)
            start = time.perf_counter()
            runs[(variant, pi)] = optimize(ctx, CsaConfig(rng_seed=CANONICAL_SEED))
            seconds[(variant, pi)] = time.perf_counter() - start
    return {"runs": runs, "seconds": seconds, "originals": originals}


# criteria -----------------------------------------------------------------------


def test_criterion_1_matches_the_exhaustive_oracle(suite, oracle_optima):
    start = time.perf_counter()
    exact = within = total = 0
    worst = (0.0, "")
    for name, ctx in suite:
        want = oracle_optima["by_instance"][name].total_usd
        for seed in SEEDS:
            result = optimize(ctx, CsaConfig(rng_seed=seed))
            total += 1
            got = result.breakdown.total_usd
            rel = abs(got - want) / max(abs(want), 1e-12)
            if rel <= 1e-9:
                exact += 1
            if rel <= 0.02:
                within += 1
            if rel > worst[0]:
                worst = (rel, f"{name} seed {seed}")
    elapsed = time.perf_counter() - start
    ok = (
        total == 100
        and exact >= 95
        and within == total
        and elapsed < 300.0
    )
    verdict(
        1, ok,
        f"{exact}/{total} exact, {within}/{total} within 2% "
        f"(worst {worst[0]:.2e} at {worst[1] or 'n/a'}), {elapsed:.0f}s of 300s",
    )


def test_criterion_2_beats_the_original_at_zero_penalty(canonical_runs):
    result = canonical_runs["runs"][("nopv", 0.0)]
    elapsed = canonical_runs["seconds"][("nopv", 0.0)]
    original = canonical_runs["originals"]["nopv"].total_usd
    optimized = result.breakdown.total_usd
    ok = (
        result.success
        and result.feasibility.feasible
        and optimized < original
        and elapsed < 120.0
    )
    saving = (original - optimized) / original * 100.0
    verdict(
        2, ok,
        f"optimized ${optimized:.4f} < original ${original:.4f} "
        f"({saving:.1f}% saving), feasible={result.success}, {elapsed:.0f}s of 120s",
    )


def test_criterion_3_penalty_monotonicity(suite, oracle_optima, canonical_runs):
    problems = []

    # exact optima: weighted shift never grows with the penalty price
    for fam, swept in oracle_optima["sweeps"].items():
        penalties = sorted(swept)
        shifts = [swept[pi].breakdown.weighted_shift for pi in penalties]
        if any(a < b - 1e-12 for a, b in zip(shifts, shifts[1:])):
            problems.append(f"{fam} weighted shift grew: {shifts}")
        # the C_p trend additionally needs a feasible starting plan; families
        # built around an infeasible original must shift regardless of price
        ctx = next(c for n, c in suite if n.startswith(fam))
        if is_feasible(ctx.original_schedule(), ctx).feasible:
            cp = [swept[pi].breakdown.penalty_usd for pi in penalties if pi > 0]
            if any(a < b - 1e-12 for a, b in zip(cp, cp[1:])):
                problems.append(f"{fam} C_p grew over positive penalties: {cp}")

    # full fixture: totals never drop as shifting gets pricier, and at the
    # top price the plan costs about what the original does
    tails = {}
    for variant in ("nopv", "pv"):
        totals = [
            canonical_runs["runs"][(variant, pi)].breakdown.total_usd
            for pi in PENALTIES
        ]
        if any(a > b + 1e-9 for a, b in zip(totals, totals[1:])):
            problems.append(f"{variant} totals decreased along penalties: {totals}")
        original = canonical_runs["originals"][variant].total_usd
        gap = abs(totals[-1] - original) / original
        tails[variant] = gap
        if gap > 0.05:
            problems.append(f"{variant} at 20c sits {gap:.1%} from the original")

    verdict(
        3, not problems,
        problems[0] if problems else (
            "weighted shift and C_p non-increasing on exact optima; "
            f"canonical totals non-decreasing, 20c gap nopv {tails['nopv']:.1%} "
            f"pv {tails['pv']:.1%}"
        ),
    )


def test_criterion_4_pv_lowers_every_total(canonical_runs):
    rows = []
    ok = True
    for pi in PENALTIES:
        with_pv = canonical_runs["runs"][("pv", pi)].breakdown.total_usd
        without = canonical_runs["runs"][("nopv", pi)].breakdown.total_usd
        ok = ok and with_pv <= without
        rows.append(f"{pi * 100:g}c {with_pv:.3f}<={without:.3f}")
    verdict(4, ok, "; ".join(rows))


def test_criterion_5_pv_utilization_trend(canonical_runs):
    utils = {
        pi: canonical_runs["runs"][("pv", pi)].breakdown.pv_utilization
        for pi in PENALTIES
    }
    ok = (
        utils[0.0] is not None
        and utils[0.0] >= 0.95
        and utils[0.0] > utils[0.10]
        and utils[0.0] > utils[0.20]
    )
    verdict(
        5, ok,
        f"utilization at 0c {utils[0.0]:.4f} (>=0.95), "
        f"10c {utils[0.10]:.4f}, 20c {utils[0.20]:.4f}",
    )


def test_criterion_6_power_flow_correctness(canonical_contexts, canonical_feeder,
                                            canonical_pv, grid48):
    problems = []

    # sweep vs an independent Newton-Raphson solve on a two-bus system
    from test_feeder import two_bus, inj
    worst_nr = 0.0
    for r, x, p, q in [(0.02, 0.012, 8.0, 2.0), (0.05, 0.03, 15.0, 6.0),
                       (0.01, 0.02, 3.0, 9.0), (0.08, 0.001, 20.0, 0.0)]:
        feeder = two_bus(r=r, x=x)
        state = solve_power_flow(feeder, inj(feeder, [0.0, p], [0.0, q]), tol=1e-12)
        expected = nr_two_bus(r, x, p / 50.0, q / 50.0)
        worst_nr = max(worst_nr, abs(state.voltages[1] - expected))
    if worst_nr > 1e-8:
        problems.append(f"two-bus deviation {worst_nr:.1e} exceeds 1e-8")

    # sweep vs a full-feeder Newton-Raphson solve, slot by slot at the
    # original plan: the canonical day with and without PV, and the weak
    # 3-bus feeder on which the voltage band binds
    from test_csa import weak_feeder_context
    worst_v = worst_loss = 0.0
    for ctx in (canonical_contexts["nopv"], canonical_contexts["pv"],
                weak_feeder_context(0.15)):
        slots = np.arange(ctx.grid.slot_count)
        gross = aggregate_power(ctx.original_schedule(), ctx.appliances)
        p, q, pv = ctx._injection_arrays(slots, gross)
        for idx in slots.tolist():
            injections = SlotInjections(slot=idx + 1, p_kw=tuple(p[idx]),
                                        q_kvar=tuple(q[idx]), pv_kw=float(pv[idx]))
            state = solve_power_flow(ctx.feeder, injections, tol=1e-12)
            v, loss = nr_radial(ctx.feeder, injections)
            worst_v = max(worst_v, float(np.abs(np.abs(v) - state.voltage_magnitudes()).max()))
            worst_loss = max(worst_loss, abs(loss - state.loss_kw))
    if worst_v > 1e-8 or worst_loss > 1e-8:
        problems.append(f"full-feeder NR deviation |V| {worst_v:.1e} pu / "
                        f"loss {worst_loss:.1e} kW exceeds 1e-8")

    # unloaded canonical feeder
    empty = SlotInjections(slot=1, p_kw=(0.0,) * 14, q_kvar=(0.0,) * 14)
    state = solve_power_flow(canonical_feeder, empty)
    if max(abs(m - 1.0) for m in state.voltage_magnitudes()) > 1e-12:
        problems.append("unloaded feeder voltage is not flat")
    if state.loss_kw != 0.0:
        problems.append("unloaded feeder shows loss")

    # slack conservation on every canonical slot at the original load
    ctx = canonical_contexts["pv"]
    gross = np.asarray(
        ctx.original_schedule().matrix.T @ [a.rated_kw for a in ctx.appliances]
    )
    tan_phi = math.tan(math.acos(0.95))
    neighbors = ctx.neighbors.as_array()
    worst_p = worst_q = 0.0
    for idx in range(grid48.slot_count):
        p = [0.0] * 14
        for bus, house in zip(canonical_feeder.neighbor_buses, neighbors):
            p[bus] = house[idx]
        p[13] = float(gross[idx])
        q = [v * tan_phi for v in p]
        pv_kw = float(canonical_pv.values[idx])
        state = solve_power_flow(
            canonical_feeder,
            SlotInjections(slot=idx + 1, p_kw=tuple(p), q_kvar=tuple(q), pv_kw=pv_kw),
        )
        worst_p = max(worst_p, abs(state.slack_p_kw - (sum(p) - pv_kw + state.loss_kw)))
        worst_q = max(worst_q, abs(state.slack_q_kvar - (sum(q) + state.loss_kvar)))
    if worst_p > 1e-8 or worst_q > 1e-8:
        problems.append(f"slack mismatch p {worst_p:.1e} / q {worst_q:.1e}")

    # PV injection at the end bus lifts the whole path (midday slot 25)
    idx = 24
    p = [0.0] * 14
    for bus, house in zip(canonical_feeder.neighbor_buses, neighbors):
        p[bus] = house[idx]
    p[13] = float(gross[idx])
    q = [v * tan_phi for v in p]
    dark = solve_power_flow(
        canonical_feeder, SlotInjections(slot=25, p_kw=tuple(p), q_kvar=tuple(q))
    )
    sunny = solve_power_flow(
        canonical_feeder,
        SlotInjections(slot=25, p_kw=tuple(p), q_kvar=tuple(q), pv_kw=6.0),
    )
    lifts = [
        a - b for a, b in zip(sunny.voltage_magnitudes(), dark.voltage_magnitudes())
    ]
    if min(lifts) < -1e-12:
        problems.append("pv injection lowered a path voltage")

    verdict(
        6, not problems,
        problems[0] if problems else (
            f"NR gap {worst_nr:.1e}, full-feeder NR gap |V| {worst_v:.1e} pu "
            f"loss {worst_loss:.1e} kW, flat unloaded profile, slack mismatch "
            f"p {worst_p:.1e} q {worst_q:.1e}, pv lift min {min(lifts):+.2e} pu"
        ),
    )


@pytest.fixture(scope="module")
def scenario_report(tmp_path_factory, canonical_appliances):
    """Full-fixture scenario run (reduced search effort, same constraints)."""
    from conftest import FIXTURES

    out = tmp_path_factory.mktemp("scenario")
    config = {
        "label": "canonical",
        "appliances_csv": str(FIXTURES / "appliances_household.csv"),
        "price_csv": str(FIXTURES / "price_day_ahead.csv"),
        "pv_csv": str(FIXTURES / "pv_6kw.csv"),
        "pv_capacity_kw": 6.0,
        "pv_enabled": True,
        "neighbors_csv": str(FIXTURES / "neighbor_loads.csv"),
        "feeder_json": str(FIXTURES / "feeder_13bus.json"),
        "md_kw": 12.4,
        "penalty_prices_usd_per_kwh": list(PENALTIES),
        "seed": CANONICAL_SEED,
        "out_dir": str(out / "run"),
        "csa": {"population_size": 24, "generations": 120, "stall_generations": 30},
    }
    path = out / "scenario.json"
    path.write_text(json.dumps(config))
    scenario = load_scenario_config(path)
    return scenario, run_scenario(scenario)


def test_criterion_7_constraint_soundness(canonical_contexts, scenario_report):
    ctx = canonical_contexts["nopv"]
    space = SearchSpace(ctx)
    draws = Draws(17)
    bad = 0
    for _ in range(10_000):
        schedule = space.decode(space.random_antibody(draws))
        if (
            check_duration(schedule, ctx.appliances)
            or check_window(schedule, ctx.appliances)
            or check_contiguity(schedule, ctx.appliances)
        ):
            bad += 1

    scenario, outcome = scenario_report
    infeasible_runs = 0
    for pi, result in outcome.results.items():
        report = is_feasible(result.schedule, scenario.context(pi))
        if not (result.success and report.feasible):
            infeasible_runs += 1

    ok = bad == 0 and infeasible_runs == 0 and outcome.all_feasible
    verdict(
        7, ok,
        f"10000 random antibodies decoded clean ({bad} violations); "
        f"{len(outcome.results)} scenario schedules re-checked feasible "
        f"({infeasible_runs} failures) under 12.4 kW cap and 0.95-1.05 pu band",
    )


def test_criterion_8_deterministic_outputs(tmp_path):
    config = {
        "label": "det",
        "grid": {"slot_count": 12, "slot_hours": 0.5},
        "appliances": [
            {"id": 1, "class": "baseline", "window_start": 1, "window_end": 12,
             "duration": 12, "rated_kw": 0.4, "original_slots": list(range(1, 13))},
            {"id": 2, "class": "uninterruptible", "window_start": 1, "window_end": 12,
             "duration": 3, "rated_kw": 1.5, "original_slots": [8, 9, 10]},
            {"id": 3, "class": "interruptible", "window_start": 2, "window_end": 11,
             "duration": 2, "rated_kw": 2.0, "original_slots": [8, 9]},
        ],
        "price": [0.03, 0.03, 0.03, 0.08, 0.08, 0.08, 0.08, 0.30, 0.30, 0.30,
                  0.08, 0.08],
        "md_kw": 5.0,
        "penalty_prices_usd_per_kwh": [0.0, 0.10],
        "seed": 5,
        "csa": {"population_size": 16, "generations": 40, "stall_generations": 12},
    }

    def run(name):
        cfg = dict(config, out_dir=str(tmp_path / name))
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        run_scenario(load_scenario_config(path))
        return {
            f.name: f.read_bytes() for f in sorted((tmp_path / name).iterdir())
        }

    first = run("a")
    second = run("b")

    repeat_ok = first == second
    verdict(
        8, repeat_ok,
        f"{len(first)} output files byte-identical across repeated runs ({repeat_ok})",
    )


def test_criterion_9_unit_formulas():
    # each hand-derived value is asserted exactly on both scorers: the
    # reference `total_cost` and the search's `SearchSpace.evaluate`
    grid = TimeGrid()

    def interruptible(aid, rated_kw, original, window=(1, 48)):
        return Appliance(
            id=aid, appliance_class=ApplianceClass.INTERRUPTIBLE, window_start=window[0],
            window_end=window[1], duration=len(original), rated_kw=rated_kw,
            original_on_slots=tuple(original),
        )

    def scored(appliance, plan, prices, penalty_price=0.0):
        """(total_cost breakdown, SearchSpace scores) of one appliance on `plan`."""
        ctx = ProblemContext(grid=grid, appliances=(appliance,),
                             price=PriceSeries(values=tuple(prices)),
                             penalty_price=penalty_price)
        space = SearchSpace(ctx)
        genotype = space.key([plan])
        return total_cost(space.decode(genotype), ctx), space.evaluate([genotype], 0.0)

    # check -> (total_cost value, SearchSpace.evaluate value, hand-derived value)
    values = {}

    day = range(1, 49)
    ref, ev = scored(interruptible(1, 2.0, day), day, (0.08,) * 48)
    # $3.84 in the objective's order: 48 products of 2 kW x $0.08 added
    # left to right, then x 0.5 h, 3.840000000000002
    flat_day = 0.0
    for _ in day:
        flat_day += 2.0 * 0.08
    values["flat day $3.84"] = (ref.energy_usd, ev.energy_usd[0], flat_day * 0.5)

    peak_prices = [0.0] * 48
    peak_prices[20] = 0.13
    ref, ev = scored(interruptible(1, 1.0, (21,)), (21,), peak_prices)
    values["single slot $0.065"] = (ref.energy_usd, ev.energy_usd[0], 0.065)

    block = interruptible(1, 1.26, (5, 6, 7, 8), window=(1, 20))
    block_ref, block_ev = scored(block, (7, 8, 9, 10), (0.08,) * 48, penalty_price=0.05)
    values["uniform shift 8"] = (block_ref.shifts[1], block_ev.shift_slots[0], 8)

    ragged = interruptible(2, 1.0, (10, 11, 12, 13), window=(1, 20))
    ref, ev = scored(ragged, (10, 12, 14, 16), (0.08,) * 48)
    values["non-uniform shift 6"] = (ref.shifts[2], ev.shift_slots[0], 6)

    values["penalty $0.252"] = (block_ref.penalty_usd, block_ev.penalty_usd[0], 0.252)

    failed = [
        f"{name} ({scorer} gave {got!r})"
        for name, (ref_value, ev_value, want) in values.items()
        for scorer, got in (("total_cost", ref_value), ("SearchSpace.evaluate", ev_value))
        if got != want
    ]
    verdict(
        9, not failed,
        "all hand-derived values exact on total_cost and SearchSpace.evaluate: "
        + ", ".join(values)
        if not failed else "mismatch in " + ", ".join(failed),
    )
