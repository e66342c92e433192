import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eval_reference
from eval_reference import bits, flow_entries

from dsmsched import costing
from dsmsched.constraints import is_feasible
from dsmsched.costing import CostBreakdown, ProblemContext, total_cost
from dsmsched.csa import SearchSpace
from dsmsched.domain import Appliance, ApplianceClass, TimeGrid, schedule_from_on_slots
from dsmsched.errors import PowerFlowError
from dsmsched.feeder import FeederLine, FeederModel
from dsmsched.profiles import NeighborLoads, PriceSeries, PvSeries

GRID48 = TimeGrid()
GRID4 = TimeGrid(slot_count=4, slot_hours=0.5)


def interruptible(aid=1, rated=1.0, original=(1, 2), window=(1, 4), duration=None):
    return Appliance(
        id=aid,
        appliance_class=ApplianceClass.INTERRUPTIBLE,
        window_start=window[0],
        window_end=window[1],
        duration=len(original) if duration is None else duration,
        rated_kw=rated,
        original_on_slots=tuple(original),
    )


def baseline4(aid=99, rated=0.5):
    return Appliance(
        id=aid, appliance_class=ApplianceClass.BASELINE, window_start=1,
        window_end=4, duration=4, rated_kw=rated, original_on_slots=(1, 2, 3, 4),
    )


def per_slot_day(loads_kw, prices, **ctx_kwargs):
    """Context and original schedule of a day that draws loads_kw[t] kW in
    slot t + 1: one single-slot appliance per slot."""
    apps = tuple(
        interruptible(aid=slot, rated=kw, original=(slot,), window=(slot, slot))
        for slot, kw in enumerate(loads_kw, start=1)
    )
    ctx = ProblemContext(
        grid=TimeGrid(slot_count=len(loads_kw), slot_hours=0.5), appliances=apps,
        price=PriceSeries(values=tuple(prices)), **ctx_kwargs,
    )
    return ctx, ctx.original_schedule()


def day_cost(loads_kw, prices, **ctx_kwargs):
    """total_cost of the original plan of `per_slot_day`."""
    ctx, sched = per_slot_day(loads_kw, prices, **ctx_kwargs)
    return total_cost(sched, ctx)


class TestNetLoad:
    def test_clamp_when_pv_exceeds_gross(self):
        pv = PvSeries(values=(5.0, 1.0, 2.0, 0.0), capacity_kw=5.0)
        out = day_cost([3.0, 3.0, 0.0, 0.0], (0.1,) * 4, pv=pv)
        assert out.net_load_kw == (0.0, 2.0, 0.0, 0.0)

    def test_no_pv_means_net_equals_gross(self):
        out = day_cost([3.0, 3.0, 0.0, 0.0], (0.1,) * 4)
        assert out.net_load_kw == (3.0, 3.0, 0.0, 0.0)

    def test_length_mismatch(self):
        # a PV series must cover the grid; the context refuses one that does not
        with pytest.raises(ValueError, match="pv series length"):
            per_slot_day([1.0] * 4, (0.1,) * 4,
                         pv=PvSeries(values=(1.0, 1.0, 1.0), capacity_kw=2.0))


class TestElectricityCost:
    def test_flat_price_day(self):
        # $3.84 by hand; in the objective's order, 48 products of 2 kW x
        # $0.08 added left to right, then x 0.5 h, it is 3.840000000000002
        want = eval_reference.energy_cost([2.0] * 48, [0.08] * 48, 0.5)
        assert want == pytest.approx(3.84, rel=1e-15)
        assert day_cost([2.0] * 48, (0.08,) * 48).energy_usd == want

    def test_single_peak_slot(self):
        prices = [0.0] * 48
        prices[30] = 0.13
        net = [0.0] * 48
        net[30] = 1.0
        assert day_cost(net, prices).energy_usd == 0.065

    def test_zero_everything(self):
        assert day_cost([0.0] * 48, (0.08,) * 48).energy_usd == 0.0

    def test_losses_are_billed(self):
        flat = (0.1,) * 4
        without = day_cost([1.0] * 4, flat).energy_usd
        out = day_cost([1.0] * 4, flat, feeder=tiny_feeder(),
                       neighbors=NeighborLoads(per_house=((2.0,) * 4,)))
        assert min(out.billed_loss_kw) > 0.0
        billed = sum(loss * 0.1 * 0.5 for loss in out.billed_loss_kw)
        assert out.energy_usd == pytest.approx(without + billed)

    def test_length_check(self):
        ctx, _ = per_slot_day([1.0] * 4, (0.1,) * 4)
        short = schedule_from_on_slots([(1,), (2,), (3,), ()], slot_count=3)
        for check in (total_cost, is_feasible):
            with pytest.raises(ValueError, match="schedule has 3 slots, grid expects 4"):
                check(short, ctx)


def alone(appliance, plan, penalty_price=0.0):
    """total_cost of `appliance` running alone on `plan`, a 48-slot day."""
    ctx = ProblemContext(grid=GRID48, appliances=(appliance,),
                         price=PriceSeries(values=(0.08,) * 48), penalty_price=penalty_price)
    return total_cost(schedule_from_on_slots([plan], slot_count=48), ctx)


def shift_distance(appliance, plan):
    """total_cost's shift slots for `appliance` alone on `plan`."""
    return alone(appliance, plan).shifts[appliance.id]


class TestShiftDistance:
    def test_uniform_block_shift(self):
        a = interruptible(rated=1.26, original=(5, 6, 7, 8), window=(1, 20))
        assert shift_distance(a, (7, 8, 9, 10)) == 8

    def test_non_uniform_shift(self):
        a = interruptible(original=(10, 11, 12, 13), window=(1, 20))
        assert shift_distance(a, (10, 12, 14, 16)) == 6

    def test_identity(self):
        a = interruptible(original=(3, 4))
        assert shift_distance(a, (3, 4)) == 0

    def test_input_order_does_not_matter(self):
        a = interruptible(original=(3, 7), window=(1, 10))
        assert shift_distance(a, (9, 1)) == shift_distance(a, (1, 9))

    def test_length_mismatch(self):
        a = interruptible(original=(3, 4))
        with pytest.raises(ValueError, match="^appliance 1: plan has 3 slots, expected 2$"):
            shift_distance(a, (3, 4, 5))

    def test_raise_order(self):
        # a wrong slot count, then a failed flow, then a wrong plan length
        ctx = make_context(feeder=tiny_feeder(), neighbors=NeighborLoads(per_house=((1.0,) * 4,)))
        long_plan = [(1, 2, 3), (1, 2, 3)]
        with pytest.raises(ValueError, match="schedule has 3 slots, grid expects 4"):
            total_cost(schedule_from_on_slots(long_plan, slot_count=3), ctx)
        long_plan[0] = (1, 2, 3, 4)
        schedule = schedule_from_on_slots(long_plan, slot_count=4)
        # a 1,000 kW baseline collapses the sweep in every slot
        collapsed = dataclasses.replace(
            ctx, appliances=(baseline4(rated=1000.0), ctx.appliances[1]))
        with pytest.raises(PowerFlowError):
            total_cost(schedule, collapsed)
        with pytest.raises(ValueError, match="^appliance 1: plan has 3 slots, expected 2$"):
            total_cost(schedule, ctx)


ascending = st.lists(
    st.integers(min_value=1, max_value=48), min_size=1, max_size=6, unique=True
).map(lambda xs: tuple(sorted(xs)))


@given(ascending, ascending)
def test_shift_distance_symmetric(old, new):
    if len(old) != len(new):
        return
    a = interruptible(original=old, window=(1, 48), duration=len(old))
    b = interruptible(original=new, window=(1, 48), duration=len(new))
    assert shift_distance(a, new) == shift_distance(b, old)


@given(ascending)
def test_shift_distance_zero_iff_unchanged(slots):
    a = interruptible(original=slots, window=(1, 48), duration=len(slots))
    assert shift_distance(a, slots) == 0


@given(ascending, ascending, ascending)
def test_shift_distance_triangle(u, v, w):
    n = min(len(u), len(v), len(w))
    u, v, w = u[:n], v[:n], w[:n]
    au = interruptible(original=u, window=(1, 48), duration=n)
    av = interruptible(original=v, window=(1, 48), duration=n)
    assert shift_distance(au, w) <= shift_distance(au, v) + shift_distance(av, w)


def penalty_of(appliance, plan, penalty_price):
    """total_cost's penalty for running `appliance` alone on `plan`."""
    return alone(appliance, plan, penalty_price).penalty_usd


class TestPenaltyCost:
    def test_hand_example(self):
        a = interruptible(rated=1.26, original=(5, 6, 7, 8), window=(1, 20))
        assert penalty_of(a, (7, 8, 9, 10), 0.05) == 0.252

    def test_zero_price_and_zero_shift(self):
        a = interruptible(original=(5, 6, 7, 8), window=(1, 20))
        assert penalty_of(a, (7, 8, 9, 10), 0.0) == 0.0
        assert penalty_of(a, (5, 6, 7, 8), 0.25) == 0.0

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError, match="penalty_price"):
            make_context(penalty_price=-0.1)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(0, 40))
    def test_linear_in_price(self, pi, shift):
        a = interruptible(rated=1.7, window=(1, 48), original=(1,))
        single = penalty_of(a, (1 + shift,), pi)
        assert penalty_of(a, (1 + shift,), 2 * pi) == pytest.approx(2 * single)


@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=4, max_size=4),
    st.integers(0, 3),
    st.floats(min_value=0.01, max_value=5.0),
)
def test_electricity_cost_monotone_in_net(net, idx, bump):
    prices = (0.02, 0.08, 0.13, 0.05)
    lower = day_cost(net, prices).energy_usd
    bumped = list(net)
    bumped[idx] += bump
    assert day_cost(bumped, prices).energy_usd >= lower


class TestPvUtilization:
    def test_full_absorption(self):
        pv = PvSeries(values=(1.0, 2.0, 1.0, 0.0), capacity_kw=2.0)
        assert day_cost([5.0] * 4, (0.1,) * 4, pv=pv).pv_utilization == 1.0

    def test_zero_demand(self):
        pv = PvSeries(values=(1.0, 2.0, 1.0, 0.0), capacity_kw=2.0)
        assert day_cost([0.0] * 4, (0.1,) * 4, pv=pv).pv_utilization == 0.0

    def test_partial(self):
        # 2 kWh available, 1.8 kWh coincident
        pv = PvSeries(values=(2.0, 2.0, 0.0, 0.0), capacity_kw=2.0)
        gross = [1.8, 1.8, 9.0, 9.0]
        assert day_cost(gross, (0.1,) * 4, pv=pv).pv_utilization == pytest.approx(0.9)

    def test_undefined_without_pv_energy(self):
        pv = PvSeries(values=(0.0,) * 4, capacity_kw=2.0)
        assert day_cost([1.0] * 4, (0.1,) * 4, pv=pv).pv_utilization is None


def tiny_feeder():
    return FeederModel(
        base_kva=50.0, base_kv=12.47, slack_voltage_pu=1.0,
        lines=(FeederLine(0, 1, 0.01, 0.006), FeederLine(1, 2, 0.01, 0.006)),
        smart_home_bus=2,
    )


def make_context(**overrides):
    kwargs = dict(
        grid=GRID4,
        appliances=(baseline4(), interruptible(aid=1, rated=2.0, original=(1, 2))),
        price=PriceSeries(values=(0.05, 0.05, 0.2, 0.2)),
    )
    kwargs.update(overrides)
    return ProblemContext(**kwargs)


class TestProblemContext:
    def test_validation(self):
        with pytest.raises(ValueError, match="price series"):
            make_context(price=PriceSeries(values=(0.05,)))
        with pytest.raises(ValueError, match="penalty_price"):
            make_context(penalty_price=-0.1)
        with pytest.raises(ValueError, match="md_kw"):
            make_context(md_kw=0.0)
        with pytest.raises(ValueError, match="power_factor"):
            make_context(power_factor=0.0)
        with pytest.raises(ValueError, match="at least one appliance"):
            make_context(appliances=())

    def test_ratings_past_the_flow_key_are_rejected(self):
        # a slot's gross load is keyed as rint(kW * 1000) * slots + slot in
        # int64: on 48 slots a 1e15 kW baseline wrapped to W = -1.5e17 and
        # was solved at a negative load
        def day(rated):
            grid = TimeGrid(slot_count=48)
            base = Appliance(id=1, appliance_class=ApplianceClass.BASELINE, window_start=1,
                             window_end=48, duration=48, rated_kw=rated,
                             original_on_slots=tuple(range(1, 49)))
            return ProblemContext(grid=grid, appliances=(base,),
                                  price=PriceSeries(values=(0.1,) * 48), feeder=tiny_feeder())
        with pytest.raises(ValueError, match=r"^appliance ratings sum to 1e\+15 kW"):
            day(1e15)
        limit = (2**63 - 48) / 48 / 1000
        for rated in (limit, -limit, math.nan):
            with pytest.raises(ValueError, match="appliance ratings sum to"):
                day(rated)
        ctx = day(limit * (1 - 1e-12))
        codes = np.rint(ctx.appliances[0].rated_kw * 1000.0).astype(np.int64) * 48 + np.arange(48)
        assert (codes > 0).all()

    def test_duplicate_appliance_ids_are_rejected(self):
        # shifts are reported by id: a shared id would drop an appliance's
        twins = (baseline4(aid=7), interruptible(aid=7, rated=2.0, original=(1, 2)))
        message = "appliance 7: appliance id 7 appears more than once"
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_context(appliances=twins)

    @pytest.mark.parametrize("original", [(5, 3), (3, 3)], ids=["descending", "repeated"])
    def test_unsorted_original_on_slots_are_rejected(self, original):
        # the search read an original plan in the order given and
        # `total_cost` sorted it: with (5, 3) on 6 slots, `evaluate` charged
        # the genotype (3, 5) 4 shift slots and `total_cost` 0, and the
        # original antibody (5, 3) was no gene of `genes(0)`
        grid = TimeGrid(slot_count=6)
        price = PriceSeries(values=(0.1,) * 6)
        message = "appliance 7: original on-slots must be strictly ascending"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ProblemContext(grid=grid, price=price, appliances=(
                interruptible(aid=7, original=original, window=(1, 6)),))
        ctx = ProblemContext(grid=grid, price=price, appliances=(
            interruptible(aid=7, original=(3, 5), window=(1, 6)),))
        space = SearchSpace(ctx)
        sorted_gene = space.key([(3, 5)])
        assert space.original_antibody() == sorted_gene
        assert (3, 5) in space.genes(0)
        assert space.evaluate([sorted_gene], 1.0).shift_slots.tolist() == [0]
        assert total_cost(space.decode(sorted_gene), ctx).shifts == {7: 0}

    # each kind of appliance the search cannot represent, on 4 slots: given
    # one, `optimize` raises from deep in the search (a dtype error in
    # `SearchSpace.pack`, a slot outside the grid, a plan of the wrong
    # length) or ends with an infeasible incumbent
    @pytest.mark.parametrize("appliance, message", [
        (interruptible(aid=3, original=(1, 2), window=(0, 4)),
         "window 0..4 not within 1..4"),
        (interruptible(aid=3, original=(2, 3), duration=3),
         "original plan has 2 slots, duration is 3"),
        (interruptible(aid=3, original=(4, 5), window=(1, 4)),
         "original on-slots (4, 5) leave 1..4"),
        (dataclasses.replace(baseline4(aid=3), duration=3, original_on_slots=(1, 2, 3)),
         "baseline appliances must run in every slot"),
        (Appliance(id=3, appliance_class=ApplianceClass.UNINTERRUPTIBLE, window_start=1,
                   window_end=4, duration=2, rated_kw=1.0, original_on_slots=(1, 3)),
         "original run (1, 3) has gaps"),
        (interruptible(aid=99, original=(3, 4)),
         "appliance id 99 appears more than once"),
        (interruptible(aid=3, original=(2, 1)),
         "original on-slots must be strictly ascending"),
    ], ids=["window_off_grid", "original_length", "original_off_grid", "baseline_not_always_on",
            "uninterruptible_gap", "duplicate_id", "unsorted_original"])
    def test_appliance_sets_the_search_cannot_represent_are_rejected(self, appliance, message):
        # the CLI's own check of a config, naming the appliance as it does
        full = f"appliance {appliance.id}: {message}"
        with pytest.raises(ValueError, match=f"^{re.escape(full)}$"):
            make_context(appliances=(baseline4(), appliance))

    def test_what_the_search_represents_is_accepted(self):
        # a plan off its declared window (the window widens to it), zero
        # and negative ratings, and a zero duration
        ctx = make_context(appliances=(
            baseline4(rated=0.0), interruptible(aid=1, rated=-1.0, original=(1, 2), window=(3, 4)),
            interruptible(aid=2, original=(), duration=0)))
        assert total_cost(ctx.original_schedule(), ctx).shifts == {99: 0, 1: 0, 2: 0}
        space = SearchSpace(ctx)
        assert space.evaluate([space.original_antibody()], 0.0).feasible.tolist() == [True]

    def test_with_penalty_checks_the_price_alone(self, monkeypatch):
        ctx = make_context()

        def unchecked(*args):
            raise AssertionError("the appliance set was checked again")

        monkeypatch.setattr(costing, "validate_appliance_set", unchecked)
        twin = ctx.with_penalty(0.2)
        assert twin.penalty_price == 0.2
        assert twin.appliances is ctx.appliances and twin._cache is ctx._cache
        with pytest.raises(ValueError, match="penalty_price"):
            ctx.with_penalty(-0.1)

    @pytest.mark.parametrize("band", [(1.05, 0.95), (1.0, 1.0)], ids=["inverted", "empty"])
    def test_voltage_band_must_have_its_low_end_below_its_high_end(self, band):
        low, high = band
        with pytest.raises(ValueError) as exc:
            make_context(voltage_min=low, voltage_max=high)
        assert str(exc.value) == (
            f"voltage band [{low}, {high}]: voltage_min must be below voltage_max")

    @pytest.mark.parametrize("idx", [-1, 4, 48])
    @pytest.mark.parametrize("feeder", [False, True], ids=["no_feeder", "feeder"])
    def test_slot_index_outside_the_grid_is_rejected(self, idx, feeder):
        # a code W x slot count + slot would otherwise read another slot's
        # flow at another load
        neighbors = NeighborLoads(per_house=((1.0,) * 4,))
        ctx = make_context(feeder=tiny_feeder(), neighbors=neighbors) if feeder else make_context()
        with pytest.raises(ValueError, match=f"slot index {idx} is outside 0\\.\\.3"):
            ctx.slot_flow(idx, 1.0)
        with pytest.raises(ValueError, match=f"slot index {idx} is outside 0\\.\\.3"):
            ctx.baseline_loss(idx)

    def test_neighbor_feeder_consistency(self):
        # feeder has one neighbor bus; two house series must be rejected
        neighbors = NeighborLoads(per_house=((1.0,) * 4, (1.0,) * 4))
        with pytest.raises(ValueError, match="neighbor buses"):
            make_context(feeder=tiny_feeder(), neighbors=neighbors)

    def test_with_penalty_shares_flow_cache(self):
        ctx = make_context(feeder=tiny_feeder(),
                           neighbors=NeighborLoads(per_house=((1.0,) * 4,)))
        other = ctx.with_penalty(0.10)
        assert other.penalty_price == 0.10
        assert other._cache is ctx._cache

    def test_any_other_copy_starts_its_own_flow_cache(self):
        neighbors = NeighborLoads(per_house=((1.0,) * 4,))
        ctx = make_context(feeder=tiny_feeder(), neighbors=neighbors)
        at_095 = ctx.slot_flow(1, 5.0)
        copy = dataclasses.replace(ctx, power_factor=0.8)
        fresh = make_context(feeder=tiny_feeder(), neighbors=neighbors, power_factor=0.8)
        assert copy.slot_flow(1, 5.0) == fresh.slot_flow(1, 5.0) != at_095
        with pytest.raises(TypeError, match="_cache"):
            make_context(_cache=ctx._cache)

    def test_slot_flow_caches_by_quantized_load(self, monkeypatch):
        ctx = make_context(feeder=tiny_feeder(),
                           neighbors=NeighborLoads(per_house=((1.0,) * 4,)))
        sweeps, solve = [], costing.solve_power_flow_batch
        monkeypatch.setattr(costing, "solve_power_flow_batch",
                            lambda *args: sweeps.append(args) or solve(*args))
        first = ctx.slot_flow(0, 2.5)
        assert len(sweeps) == 1
        again = ctx.slot_flow(0, 2.5004)  # the same watt bucket: no solve
        assert len(sweeps) == 1
        assert bits(again) == bits(first)
        assert list(flow_entries(ctx)) == [(0, 2500)]
        ctx.slot_flow(0, 2.5006)  # rounds to a different watt bucket
        assert len(sweeps) == 2
        assert list(flow_entries(ctx)) == [(0, 2500), (0, 2501)]

    def test_billed_losses_zero_without_feeder(self):
        assert day_cost([5.0] * 4, (0.1,) * 4).billed_loss_kw == (0.0,) * 4

    def test_one_row_assess_is_its_row_of_a_batch(self):
        # 1 pu segments: 2-4 kW leave the band, 6 kW and more diverge; the
        # first row fails in slot 3, the second in slots 1 and 3
        feeder = FeederModel(
            base_kva=50.0, base_kv=12.47, slack_voltage_pu=1.0,
            lines=(FeederLine(0, 1, 1.0, 0.6), FeederLine(1, 2, 1.0, 0.6)), smart_home_bus=2,
        )
        gross = np.array([[0.5, 2.0, 6.0, 3.0], [8.0, 0.5, 6.0, 1.0], [1.0, 3.0, 0.5, 2.0]])

        def context():
            return make_context(feeder=feeder, neighbors=NeighborLoads(per_house=((1.0,) * 4,)),
                                md_kw=5.0, voltage_min=0.9)

        def by_row(loads, row):
            """The row's fields, its flows' |V| and errors read by slot."""
            keys = loads.cells[row].tolist()
            return bits((loads.net[row], loads.loss[row], loads.billed[row], loads.excess[row],
                         loads.md_excess[row], loads.voltage_violation[row],
                         loads.flow_failed[row], loads.feasible[row],
                         loads.mags[keys], loads.outside[keys],
                         {slot: str(loads.errors[key]) for slot, key in enumerate(keys)
                          if key in loads.errors}))

        batch = costing.assess(context(), gross)
        assert batch.flow_failed.tolist() == [True, True, False]
        assert batch.voltage_violation[2] > 0.0 and batch.md_excess[1] > 0.0
        for row in range(3):
            one = costing.assess(context(), gross[row:row + 1])
            assert by_row(one, 0) == by_row(batch, row)
            if row < 2:
                with pytest.raises(PowerFlowError) as alone:
                    one.raise_failure(0)
                with pytest.raises(PowerFlowError) as batched:
                    batch.raise_failure(row)
                assert str(alone.value) == str(batched.value)

    def test_billed_loss_is_incremental_and_non_negative(self):
        losses = day_cost([0.0, 1.0, 4.0, 8.0], (0.1,) * 4, feeder=tiny_feeder(),
                          neighbors=NeighborLoads(per_house=((2.0,) * 4,))).billed_loss_kw
        assert losses[0] == 0.0  # no home draw, nothing billed
        assert all(l >= 0.0 for l in losses)
        assert losses[3] > losses[1]


class TestTotalCost:
    def test_composition_without_feeder(self):
        ctx = make_context(penalty_price=0.10)
        sched = schedule_from_on_slots([(1, 2, 3, 4), (3, 4)], slot_count=4)
        out = total_cost(sched, ctx)
        # gross: 0.5 baseline + 2.0 on slots 3,4
        expected_energy = 0.5 * (
            0.5 * 0.05 + 0.5 * 0.05 + 2.5 * 0.2 + 2.5 * 0.2
        )
        assert out.energy_usd == pytest.approx(expected_energy)
        assert out.shifts == {99: 0, 1: 4}
        assert out.penalty_usd == pytest.approx(0.5 * 0.10 * 4 * 2.0)
        assert out.total_usd == pytest.approx(out.energy_usd + out.penalty_usd)
        assert out.weighted_shift == pytest.approx(8.0)
        assert out.total_shift_slots == 4
        assert out.pv_utilization is None

    def test_baseline_never_counts_as_shifted(self):
        ctx = make_context(penalty_price=1.0)
        sched = ctx.original_schedule()
        out = total_cost(sched, ctx)
        assert out.shifts[99] == 0
        assert out.penalty_usd == 0.0

    def test_pv_weakly_lowers_energy(self):
        no_pv = make_context()
        with_pv = make_context(pv=PvSeries(values=(0.0, 1.5, 1.5, 0.0), capacity_kw=2.0))
        sched = no_pv.original_schedule()
        assert (
            total_cost(sched, with_pv).energy_usd
            <= total_cost(sched, no_pv).energy_usd
        )

    def test_weighted_shift_adds_left_to_right(self):
        # 0.1 + 0.2 + 0.3 is 0.6000000000000001 left to right, 0.6 exactly
        # rounded (math.fsum, or the builtin sum from Python 3.12 on)
        ratings = (0.1, 0.2, 0.3)
        apps = tuple(interruptible(aid=aid, rated=kw, original=(1,), window=(1, 4))
                     for aid, kw in enumerate(ratings, start=1))
        ctx = ProblemContext(grid=GRID4, appliances=apps,
                             price=PriceSeries(values=(0.05,) * 4), penalty_price=0.1)
        sched = schedule_from_on_slots([(2,)] * 3, slot_count=4)
        left_to_right = 0.0
        for kw in ratings:
            left_to_right += kw
        assert left_to_right != math.fsum(ratings)
        out = total_cost(sched, ctx)
        space = SearchSpace(ctx)
        scored = space.evaluate(space.pack(np.array([[2, 2, 2]])), 1.0)
        assert out.weighted_shift.hex() == left_to_right.hex()
        assert float(scored.weighted_shift[0]).hex() == left_to_right.hex()
        assert out.penalty_usd.hex() == float(scored.penalty_usd[0]).hex()

    def test_to_dict_fields(self):
        ctx = make_context(pv=PvSeries(values=(0.0, 1.0, 1.0, 0.0), capacity_kw=2.0))
        out = total_cost(ctx.original_schedule(), ctx).to_dict()
        assert set(out) == {
            "c_e_usd", "c_p_usd", "total_usd", "shifts", "weighted_shift_kw_slots",
            "pv_utilization", "net_load_kw", "billed_loss_kw",
        }
        assert out["c_p_usd"] == 0.0
        assert isinstance(out["shifts"], dict)
        assert len(out["net_load_kw"]) == 4


def test_breakdown_total_is_sum():
    b = CostBreakdown(
        energy_usd=1.5, penalty_usd=0.25, total_usd=1.75, shifts={1: 2},
        weighted_shift=4.0, pv_utilization=None, net_load_kw=(1.0,), billed_loss_kw=(0.0,),
    )
    assert b.total_usd == b.energy_usd + b.penalty_usd
    assert b.total_shift_slots == 2


class TestEnergyFloor:
    """The search's energy floor, `energy_cost` of a net row, is at most
    the `energy_cost` of every billed row at least as large cell by cell,
    at non-negative prices, as IEEE values: one fixed summation order is
    monotone in non-negative terms."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 64), st.floats(0.0, 0.5),
           st.sampled_from([0.25, 1 / 3, 0.5, 1.0]))
    def test_floor_holds_on_random_magnitudes(self, seed, slots, zeros, hours):
        # magnitudes 1e-6 to 1e3, some cells 0; each net cell is its billed
        # cell, one ulp below it, or a random fraction of it
        rng = np.random.default_rng(seed)
        billed = 10.0 ** rng.uniform(-6.0, 3.0, (16, slots))
        price = 10.0 ** rng.uniform(-4.0, 0.0, slots)
        billed[rng.random(billed.shape) < zeros] = 0.0
        price[rng.random(slots) < zeros] = 0.0
        kind = rng.integers(0, 3, billed.shape)
        net = np.select([kind == 0, kind == 1], [billed, np.nextafter(billed, 0.0)],
                        billed * rng.random(billed.shape))
        assert ((0.0 <= net) & (net <= billed)).all()
        assert (costing.energy_cost(net, price, hours)
                <= costing.energy_cost(billed, price, hours)).all()


# prices the rows saved in the directory argv[1] under the BLAS kernel of
# this process's environment; also saves each row's `ddot`, which does
# depend on the kernel
PRICE_ROWS = """
import sys
from pathlib import Path
import numpy as np
from dsmsched.costing import energy_cost
out = Path(sys.argv[1])
billed, price = np.load(out / "billed.npy"), np.load(out / "price.npy")
np.save(out / "energy.npy", energy_cost(billed, price, 0.5))
np.save(out / "ddot.npy", np.fromiter(map(price.dot, billed), float, len(billed)))
"""


def test_energy_cost_bits_do_not_depend_on_the_blas_kernel(tmp_path):
    # 20,000 random 48-slot rows priced here, in a process under OpenBLAS's
    # Haswell kernel and in one under its Nehalem kernel (numpy's x86
    # wheels pick the kernel at run time), and by a Python loop: the same
    # bytes everywhere.  The rows' `ddot`s differ between kernels, so the
    # processes did run under another kernel
    rng = np.random.default_rng(2)
    price = rng.uniform(0.01, 0.4, 48)
    billed = rng.uniform(0.0, 12.0, (20_000, 48))
    billed[rng.random(billed.shape) < 0.1] = 0.0
    np.save(tmp_path / "billed.npy", billed)
    np.save(tmp_path / "price.npy", price)
    here = costing.energy_cost(billed, price, 0.5)
    reference = [eval_reference.energy_cost(row, price.tolist(), 0.5) for row in billed.tolist()]
    assert here.tobytes() == np.array(reference).tobytes()

    src = str(Path(costing.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    ddot = np.fromiter(map(price.dot, billed), float, len(billed))
    moved = []
    for kernel in ("Haswell", "Nehalem"):
        env = {**os.environ, "OPENBLAS_CORETYPE": kernel,
               "PYTHONPATH": src + os.pathsep + path if path else src}
        subprocess.run([sys.executable, "-c", PRICE_ROWS, str(tmp_path)], env=env, check=True)
        assert np.load(tmp_path / "energy.npy").tobytes() == here.tobytes(), kernel
        moved.append(np.load(tmp_path / "ddot.npy").tobytes() != ddot.tobytes())
    assert any(moved)
