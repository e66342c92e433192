#!/usr/bin/env python3
"""Regenerate the canonical fixture files under fixtures/.

Every fixture is authored here: the appliance table, the tariff, PV and
neighbor-load series, and the feeder.  The package only reads these
files.  Tests import this module (pytest's `pythonpath` puts scripts/ on
the path) to check the files against their builders and to write inputs
of their own.

Usage: python scripts/generate_fixtures.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Sequence

from dsmsched.domain import TimeGrid, write_csv
from dsmsched.feeder import FeederLine, FeederModel
from dsmsched.profiles import NeighborLoads, PriceSeries, PvSeries

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# id, class, window_start, window_end, duration, rated_kw, original on-slots.
# Two source rows print original ranges longer than the duration; they are
# normalized here to duration-length runs that keep the original day's peak
# just under the 12.4 kW cap (id 22 keeps its head, id 23 its tail).
APPLIANCES = [
    (1, "baseline", 1, 48, 48, 0.15, range(1, 49)),
    (2, "baseline", 1, 48, 48, 1.60, range(1, 49)),
    (3, "baseline", 1, 48, 48, 0.15, range(1, 49)),
    (4, "uninterruptible", 6, 48, 4, 0.73, range(41, 45)),
    (5, "uninterruptible", 6, 30, 3, 0.73, range(18, 21)),
    (6, "uninterruptible", 12, 22, 3, 0.80, range(24, 27)),
    (7, "uninterruptible", 12, 22, 2, 0.80, range(27, 29)),
    (8, "uninterruptible", 1, 48, 2, 0.38, range(30, 32)),
    (9, "uninterruptible", 1, 48, 4, 0.38, range(15, 19)),
    (10, "uninterruptible", 14, 48, 4, 0.05, range(20, 24)),
    (11, "interruptible", 1, 19, 4, 0.05, range(5, 9)),
    (12, "interruptible", 1, 48, 4, 1.26, range(39, 43)),
    (13, "interruptible", 1, 48, 4, 1.26, range(10, 14)),
    (14, "interruptible", 1, 48, 4, 0.70, range(33, 37)),
    (15, "interruptible", 1, 48, 4, 0.74, range(35, 39)),
    (16, "interruptible", 1, 48, 4, 0.64, range(22, 26)),
    (17, "interruptible", 10, 48, 4, 1.60, range(39, 43)),
    (18, "interruptible", 10, 48, 4, 1.90, range(32, 36)),
    (19, "interruptible", 10, 48, 4, 1.64, range(34, 38)),
    (20, "interruptible", 10, 48, 4, 1.50, range(36, 40)),
    (21, "interruptible", 6, 24, 4, 1.50, range(13, 17)),
    (22, "interruptible", 10, 48, 4, 1.50, range(35, 39)),
    (23, "interruptible", 10, 48, 4, 1.10, range(39, 43)),
    (24, "interruptible", 10, 40, 4, 2.00, range(15, 19)),
    (25, "interruptible", 1, 48, 4, 1.80, range(33, 37)),
    (26, "interruptible", 1, 44, 4, 0.25, range(18, 22)),
    (27, "interruptible", 1, 48, 4, 1.00, range(32, 36)),
    (28, "interruptible", 1, 48, 4, 1.20, range(12, 16)),
    (29, "interruptible", 1, 48, 4, 1.20, range(35, 39)),
    (30, "interruptible", 1, 48, 4, 1.20, range(17, 21)),
    (31, "interruptible", 1, 48, 4, 1.20, range(36, 40)),
]


def write_appliances(path: Path) -> None:
    write_csv(
        path,
        ["id", "class", "window_start", "window_end", "duration", "rated_kw", "original_slots"],
        ([aid, cls, lo, hi, dur, f"{kw:.2f}", ";".join(map(str, slots))]
         for aid, cls, lo, hi, dur, kw, slots in APPLIANCES),
    )


# series ----------------------------------------------------------------------


def write_series(path: str | Path, values: Iterable[float]) -> None:
    write_csv(path, ["slot", "value"],
              ([slot, f"{v:.6f}"] for slot, v in enumerate(values, start=1)))


def write_neighbor_loads(path: str | Path, loads: NeighborLoads) -> None:
    write_csv(path, ["slot", *(f"h{i}" for i in range(1, loads.house_count + 1))], (
        [slot, *(f"{v:.6f}" for v in kw)]
        for slot, kw in enumerate(zip(*loads.per_house), start=1)
    ))


def synth_pv_profile(
    capacity_kw: float,
    sunrise_slot: int,
    sunset_slot: int,
    cloud_dips: Sequence[tuple[int, float]] = (),
    grid: TimeGrid = TimeGrid(),
) -> PvSeries:
    """Half-sine daylight bell, zero outside [sunrise_slot, sunset_slot).

    The bell is normalized so its sampled maximum equals `capacity_kw`.
    `cloud_dips` scales individual slots by a fraction in [0, 1].
    """
    if capacity_kw <= 0:
        raise ValueError(f"capacity_kw must be positive, got {capacity_kw}")
    if not 1 <= sunrise_slot < sunset_slot <= grid.slot_count + 1:
        raise ValueError(
            f"need 1 <= sunrise < sunset <= {grid.slot_count + 1}, "
            f"got {sunrise_slot}, {sunset_slot}"
        )
    for slot, frac in cloud_dips:
        if not 1 <= slot <= grid.slot_count:
            raise ValueError(f"cloud dip slot {slot} outside grid")
        if not 0 <= frac <= 1:
            raise ValueError(f"cloud dip fraction {frac} outside [0, 1]")

    n = sunset_slot - sunrise_slot
    raw = [math.sin(math.pi * (k + 0.5) / n) for k in range(n)]
    scale = capacity_kw / max(raw)
    values = [0.0] * grid.slot_count
    for k in range(n):
        values[sunrise_slot - 1 + k] = raw[k] * scale
    for slot, frac in cloud_dips:
        values[slot - 1] *= frac
    return PvSeries(values=tuple(values), capacity_kw=capacity_kw)


def canonical_price_profile() -> PriceSeries:
    """Three-tier day-ahead tariff: cheap night, mid day, evening peak.

    Night (00:00-06:00 and 22:00-24:00) 4 c/kWh, day 8 c/kWh, and a
    13 c/kWh peak over 17:00-20:00.
    """
    values = [0.0] * 48
    for t in range(1, 49):
        if t <= 12 or t >= 45:
            values[t - 1] = 0.04
        elif 35 <= t <= 40:
            values[t - 1] = 0.13
        else:
            values[t - 1] = 0.08
    return PriceSeries(values=tuple(values))


def canonical_pv_profile() -> PvSeries:
    """6 kW rooftop array, daylight 06:00-18:00, brief midday cloud dip."""
    return synth_pv_profile(
        capacity_kw=6.0,
        sunrise_slot=13,
        sunset_slot=37,
        cloud_dips=((27, 0.5), (28, 0.5)),
    )


def canonical_neighbor_loads(house_count: int = 12) -> NeighborLoads:
    """Smooth double-hump residential profile for the non-optimized houses.

    Each house idles near 0.6 kW with a small morning bump and a ~5.6 kW
    evening peak around 18:00, so twelve houses peak near 67 kW together.
    """
    grid = TimeGrid()
    house: list[float] = []
    for t in grid.slots():
        hour = (t - 0.5) * grid.slot_hours
        kw = (
            0.6
            + 2.6 * math.exp(-(((hour - 7.75) / 1.3) ** 2))
            + 5.0 * math.exp(-(((hour - 18.0) / 1.8) ** 2))
        )
        house.append(kw)
    per_house = tuple(tuple(house) for _ in range(house_count))
    return NeighborLoads(per_house=per_house)


# feeder ----------------------------------------------------------------------


def canonical_feeder() -> FeederModel:
    """Single 13-house lateral: slack, 12 neighbors, smart home at the end.

    Uniform short segments whose impedance keeps the feeder inside the
    0.95 pu limit at the coincident evening peak of roughly 80 kW.
    """
    lines = tuple(
        FeederLine(from_bus=b, to_bus=b + 1, r_pu=0.006, x_pu=0.00375)
        for b in range(13)
    )
    return FeederModel(
        base_kva=100.0,
        base_kv=12.47,
        slack_voltage_pu=1.0,
        lines=lines,
        smart_home_bus=13,
    )


def write_feeder_json(path: str | Path, feeder: FeederModel) -> None:
    data = {
        "base_kva": feeder.base_kva,
        "base_kv": feeder.base_kv,
        "slack_voltage_pu": feeder.slack_voltage_pu,
        "smart_home_bus": feeder.smart_home_bus,
        "lines": [
            {"from": ln.from_bus, "to": ln.to_bus, "r_pu": ln.r_pu, "x_pu": ln.x_pu}
            for ln in feeder.lines
        ],
    }
    with Path(path).open("w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    write_appliances(FIXTURES / "appliances_household.csv")
    write_series(FIXTURES / "price_day_ahead.csv", canonical_price_profile().values)
    write_series(FIXTURES / "pv_6kw.csv", canonical_pv_profile().values)
    write_neighbor_loads(FIXTURES / "neighbor_loads.csv", canonical_neighbor_loads())
    write_feeder_json(FIXTURES / "feeder_13bus.json", canonical_feeder())
    print(f"wrote fixtures to {FIXTURES}")


if __name__ == "__main__":
    main()
