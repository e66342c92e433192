"""Shared small-instance suite: exhaustively solvable scheduling problems.

25 instances (7 families x penalty grid) on a 12-slot half-hour grid, all
within the brute-force oracle's limits.  Families cover steep and flat
tariffs, a binding demand cap, PV, a feeder with the voltage band active,
mixed appliance classes, and a widened-window case.
"""

from __future__ import annotations

from dsmsched.costing import ProblemContext
from dsmsched.domain import Appliance, ApplianceClass, TimeGrid
from dsmsched.feeder import FeederLine, FeederModel
from dsmsched.profiles import NeighborLoads, PriceSeries, PvSeries

GRID12 = TimeGrid(slot_count=12, slot_hours=0.5)

PENALTY_GRID = (0.0, 0.05, 0.10, 0.20)

STEEP = PriceSeries(values=(
    0.03, 0.03, 0.03, 0.08, 0.08, 0.08, 0.08, 0.30, 0.30, 0.30, 0.08, 0.08,
))
FLAT = PriceSeries(values=(0.08,) * 12)
TWO_VALLEY = PriceSeries(values=(
    0.05, 0.05, 0.12, 0.25, 0.25, 0.12, 0.05, 0.05, 0.12, 0.25, 0.12, 0.05,
))

# midday bell, 2.5 kW cap, slots 4..9
PV_SMALL = PvSeries(
    values=(0.0, 0.0, 0.0, 0.9, 1.8, 2.5, 2.5, 1.8, 0.9, 0.0, 0.0, 0.0),
    capacity_kw=2.5,
)


def _baseline(aid: int = 1, rated: float = 0.4) -> Appliance:
    return Appliance(
        id=aid,
        appliance_class=ApplianceClass.BASELINE,
        window_start=1,
        window_end=12,
        duration=12,
        rated_kw=rated,
        original_on_slots=tuple(range(1, 13)),
    )


def _uninterruptible(aid: int, window: tuple[int, int], duration: int,
                     rated: float, original_start: int) -> Appliance:
    return Appliance(
        id=aid,
        appliance_class=ApplianceClass.UNINTERRUPTIBLE,
        window_start=window[0],
        window_end=window[1],
        duration=duration,
        rated_kw=rated,
        original_on_slots=tuple(range(original_start, original_start + duration)),
    )


def _interruptible(aid: int, window: tuple[int, int], duration: int,
                   rated: float, original: tuple[int, ...]) -> Appliance:
    return Appliance(
        id=aid,
        appliance_class=ApplianceClass.INTERRUPTIBLE,
        window_start=window[0],
        window_end=window[1],
        duration=duration,
        rated_kw=rated,
        original_on_slots=original,
    )


def _tiny_feeder() -> FeederModel:
    # slack - neighbor - smart home, short stiff segments
    return FeederModel(
        base_kva=50.0,
        base_kv=12.47,
        slack_voltage_pu=1.0,
        lines=(
            FeederLine(from_bus=0, to_bus=1, r_pu=0.01, x_pu=0.006),
            FeederLine(from_bus=1, to_bus=2, r_pu=0.01, x_pu=0.006),
        ),
        smart_home_bus=2,
    )


def _tiny_neighbors() -> NeighborLoads:
    values = (1.5, 1.5, 1.5, 2.0, 2.0, 2.5, 2.5, 3.5, 3.5, 3.0, 2.0, 1.5)
    return NeighborLoads(per_house=(values,))


def _family_steep() -> tuple[Appliance, ...]:
    # shifts pay off at low penalty only: peak-parked appliances near a valley
    return (
        _baseline(),
        _uninterruptible(2, (1, 12), 3, 1.5, original_start=8),
        _interruptible(3, (2, 11), 2, 2.0, original=(8, 9)),
    )


def _family_md() -> tuple[Appliance, ...]:
    # same shape plus a third mover; cap 3.0 kW forbids any two overlapping
    return (
        _baseline(),
        _uninterruptible(2, (1, 12), 3, 1.5, original_start=8),
        _interruptible(3, (2, 11), 2, 2.0, original=(8, 9)),
        _interruptible(4, (1, 12), 2, 1.2, original=(9, 10)),
    )


def _family_flat() -> tuple[Appliance, ...]:
    return (
        _baseline(),
        _uninterruptible(2, (1, 12), 3, 1.5, original_start=5),
        _interruptible(3, (1, 12), 2, 2.0, original=(7, 8)),
    )


def _family_pv() -> tuple[Appliance, ...]:
    # enough flexible load to soak the PV bell when penalties allow
    return (
        _baseline(aid=1, rated=0.3),
        _interruptible(2, (1, 12), 3, 1.4, original=(1, 2, 3)),
        _uninterruptible(3, (1, 12), 2, 1.2, original_start=11),
    )


def _family_feeder() -> tuple[Appliance, ...]:
    return (
        _baseline(aid=1, rated=0.5),
        _uninterruptible(2, (1, 12), 3, 1.8, original_start=8),
        _interruptible(3, (1, 12), 2, 1.0, original=(8, 9)),
    )


def _family_mixed() -> tuple[Appliance, ...]:
    return (
        _baseline(aid=1, rated=0.4),
        _uninterruptible(2, (3, 10), 2, 1.0, original_start=4),
        _interruptible(3, (1, 12), 4, 0.8, original=(4, 5, 6, 7)),
        _interruptible(4, (1, 8), 2, 1.5, original=(4, 5)),
    )


def _family_widened() -> tuple[Appliance, ...]:
    # original run sits outside the declared window; the hull governs
    return (
        _baseline(),
        _uninterruptible(2, (2, 6), 2, 1.5, original_start=9),
        _interruptible(3, (1, 10), 2, 1.0, original=(9, 10)),
    )


def build_suite() -> list[tuple[str, ProblemContext]]:
    """(name, context) pairs; 25 instances, one context per penalty price."""
    cases: list[tuple[str, ProblemContext]] = []

    def add(name: str, appliances: tuple[Appliance, ...], price: PriceSeries,
            penalties=PENALTY_GRID, md_kw: float = float("inf"),
            pv: PvSeries | None = None, feeder=None, neighbors=None,
            voltage_min: float = 0.95) -> None:
        for pi in penalties:
            cases.append(
                (
                    f"{name}_pi{int(round(pi * 100))}",
                    ProblemContext(
                        grid=GRID12,
                        appliances=appliances,
                        price=price,
                        pv=pv,
                        neighbors=neighbors,
                        feeder=feeder,
                        md_kw=md_kw,
                        penalty_price=pi,
                        voltage_min=voltage_min,
                    ),
                )
            )

    add("steep", _family_steep(), STEEP)
    add("md", _family_md(), STEEP, md_kw=3.0)
    add("flat", _family_flat(), FLAT)
    add("pv", _family_pv(), STEEP, pv=PV_SMALL)
    # the stiff feeder's lowest bus |V| is about 0.9976 pu; a 0.998 floor
    # makes the band reject some placements, the original plan among them
    add("feeder", _family_feeder(), TWO_VALLEY,
        feeder=_tiny_feeder(), neighbors=_tiny_neighbors(), md_kw=4.0, voltage_min=0.998)
    add("mixed", _family_mixed(), TWO_VALLEY, md_kw=2.9)
    add("widened", _family_widened(), STEEP, penalties=(0.05,))

    assert len(cases) == 25
    return cases


SEEDS = (11, 37, 101, 9001)
