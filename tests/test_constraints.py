import math

import pytest

from dsmsched.constraints import (
    CONTIG_BASELINE,
    CONTIG_GAP,
    KW_TOL,
    check_contiguity,
    check_duration,
    check_window,
    is_feasible,
)
from dsmsched.costing import ProblemContext
from dsmsched.csa import SearchSpace
from dsmsched.domain import (
    Appliance,
    ApplianceClass,
    TimeGrid,
    schedule_from_on_slots,
)
from dsmsched.feeder import FeederLine, FeederModel
from dsmsched.profiles import NeighborLoads, PriceSeries

GRID8 = TimeGrid(slot_count=8, slot_hours=0.5)


def app(aid, cls, window, duration, rated, original):
    return Appliance(
        id=aid, appliance_class=cls, window_start=window[0], window_end=window[1],
        duration=duration, rated_kw=rated, original_on_slots=tuple(original),
    )


BASE = app(1, ApplianceClass.BASELINE, (1, 8), 8, 0.5, range(1, 9))
UNINT = app(2, ApplianceClass.UNINTERRUPTIBLE, (2, 7), 3, 1.5, (3, 4, 5))
INTER = app(3, ApplianceClass.INTERRUPTIBLE, (1, 6), 2, 2.0, (2, 3))
APPS = (BASE, UNINT, INTER)


def sched(base=tuple(range(1, 9)), unint=(3, 4, 5), inter=(2, 3)):
    return schedule_from_on_slots([base, unint, inter], slot_count=8)


def test_duration_violations():
    assert check_duration(sched(), APPS) == []
    bad = sched(inter=(2, 3, 4))
    assert check_duration(bad, APPS) == [(3, 3)]


def test_window_violations():
    assert check_window(sched(), APPS) == []
    bad = sched(inter=(1, 7))  # slot 7 is outside window 1..6
    assert check_window(bad, APPS) == [(3, 7)]


def test_effective_window_honors_original_plan():
    # declared window 2..4 but the original run sits at 6..7
    widened = app(4, ApplianceClass.INTERRUPTIBLE, (2, 4), 2, 1.0, (6, 7))
    apps = (BASE, widened)
    s = schedule_from_on_slots([range(1, 9), (6, 7)], slot_count=8)
    assert check_window(s, apps) == []
    # the hull does not include slots between window and original hull edges
    beyond = schedule_from_on_slots([range(1, 9), (7, 8)], slot_count=8)
    assert check_window(beyond, apps) == [(4, 8)]


def max_demand(md_kw):
    """is_feasible's demand-cap violations of sched() under a cap, no feeder."""
    ctx = ProblemContext(
        grid=GRID8, appliances=APPS, price=PriceSeries(values=(0.1,) * 8), md_kw=md_kw
    )
    return is_feasible(sched(), ctx).max_demand


class TestMaxDemand:
    def test_flags_slot_and_kw(self):
        # slot 3: 0.5 + 1.5 + 2.0 = 4.0
        assert max_demand(3.9) == [(3, 4.0)]
        assert max_demand(4.0) == []

    def test_tolerance_absorbs_float_dust(self):
        assert max_demand(4.0 - KW_TOL / 2) == []
        assert max_demand(4.0 - 1e-6) == [(3, 4.0)]
        # gross = fl(md_kw + KW_TOL) is over the cap, as gross - md_kw
        # rounds above KW_TOL: is_feasible and the search's evaluate agree
        for md_kw in (3.3, 4.0, 10.0, 12.4):
            rated = md_kw + KW_TOL
            ctx = ProblemContext(
                grid=GRID8, price=PriceSeries(values=(0.1,) * 8), md_kw=md_kw,
                appliances=(app(1, ApplianceClass.UNINTERRUPTIBLE, (1, 8), 1, rated, (3,)),),
            )
            assert is_feasible(ctx.original_schedule(), ctx).max_demand == [(3, rated)]
            space = SearchSpace(ctx)
            scores = space.evaluate([space.original_antibody()], 1.0)
            assert scores.md_excess[0] > 0 and not scores.feasible[0]

    def test_gross_power_ignores_pv(self):
        # the cap protects the connection: PV does not offset it
        from dsmsched.profiles import PvSeries
        ctx = ProblemContext(
            grid=GRID8, appliances=APPS,
            price=PriceSeries(values=(0.1,) * 8),
            pv=PvSeries(values=(6.0,) * 8, capacity_kw=6.0),
            md_kw=3.9,
        )
        report = is_feasible(sched(), ctx)
        assert report.max_demand == [(3, 4.0)]
        assert not report.feasible


def test_contiguity_kinds():
    assert check_contiguity(sched(), APPS) == []
    gap = sched(unint=(3, 4, 6))
    assert check_contiguity(gap, APPS) == [(2, CONTIG_GAP)]
    off = sched(base=tuple(range(2, 9)) + ())
    assert check_contiguity(off, APPS) == [(1, CONTIG_BASELINE)]


def make_feeder_context(md_kw=math.inf, rated=2.0, neighbors_kw=1.0):
    feeder = FeederModel(
        base_kva=50.0, base_kv=12.47, slack_voltage_pu=1.0,
        lines=(FeederLine(0, 1, 0.01, 0.006), FeederLine(1, 2, 0.01, 0.006)),
        smart_home_bus=2,
    )
    apps = (BASE, UNINT, app(3, ApplianceClass.INTERRUPTIBLE, (1, 6), 2, rated, (2, 3)))
    return ProblemContext(
        grid=GRID8, appliances=apps,
        price=PriceSeries(values=(0.1,) * 8),
        neighbors=NeighborLoads(per_house=((neighbors_kw,) * 8,)),
        feeder=feeder, md_kw=md_kw,
    )


class TestIsFeasible:
    def test_clean_schedule(self):
        ctx = make_feeder_context()
        report = is_feasible(sched(), ctx)
        assert report.feasible
        assert report.to_dict()["feasible"] is True

    def test_voltage_band_violation_reported_per_bus(self):
        # crank the neighbor load until the far end sags below 0.95 pu
        ctx = make_feeder_context(neighbors_kw=250.0)
        report = is_feasible(sched(), ctx)
        assert not report.feasible
        assert report.voltage
        v = report.voltage[0]
        assert v.bus in (1, 2)
        assert v.v_pu < 0.95

    def test_diverging_flow_becomes_voltage_failure(self):
        ctx = make_feeder_context(rated=3000.0)
        report = is_feasible(sched(), ctx)
        assert not report.feasible
        marks = [v for v in report.voltage if v.bus == -1]
        assert marks
        assert math.isnan(marks[0].v_pu)
        # NaN serializes as null, not NaN
        entries = report.to_dict()["voltage"]
        assert any(e["bus"] == -1 and e["v_pu"] is None for e in entries)

    def test_every_check_contributes(self):
        ctx = make_feeder_context(md_kw=3.9)
        bad = schedule_from_on_slots(
            [tuple(range(2, 9)), (3, 4, 6), (2, 3, 4)], slot_count=8
        )
        report = is_feasible(bad, ctx)
        assert report.baseline_fixed == [1]
        assert report.contiguity == [2]
        assert report.duration  # interruptible has 3 on-slots
        assert not report.feasible

    def test_stacked_interruptibles_hit_the_cap(self):
        apps = (
            BASE,
            app(2, ApplianceClass.INTERRUPTIBLE, (1, 8), 2, 2.0, (1, 2)),
            app(3, ApplianceClass.INTERRUPTIBLE, (1, 8), 2, 2.0, (3, 4)),
        )
        ctx = ProblemContext(
            grid=GRID8, appliances=apps,
            price=PriceSeries(values=(0.1,) * 8), md_kw=4.0,
        )
        apart = schedule_from_on_slots([range(1, 9), (1, 2), (3, 4)], 8)
        stacked = schedule_from_on_slots([range(1, 9), (1, 2), (1, 2)], 8)
        assert is_feasible(apart, ctx).feasible
        report = is_feasible(stacked, ctx)
        assert report.max_demand == [(1, 4.5), (2, 4.5)]


def test_md_monotone_in_cap():
    # relaxing the cap never creates violations
    tight = max_demand(2.0)
    loose = max_demand(3.0)
    assert {s for s, _ in loose} <= {s for s, _ in tight}
