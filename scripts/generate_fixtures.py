#!/usr/bin/env python3
"""Regenerate the canonical fixture files under fixtures/.

The appliance table is authored here; the series and feeder files come from
the package's canonical builders, so tests can check the files stay in sync.
"""

from __future__ import annotations

from pathlib import Path

from dsmsched.domain import write_csv
from dsmsched.feeder import canonical_feeder, write_feeder_json
from dsmsched.profiles import (
    canonical_neighbor_loads,
    canonical_price_profile,
    canonical_pv_profile,
    write_neighbor_loads,
    write_series,
)

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
