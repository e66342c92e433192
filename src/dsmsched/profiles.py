"""Day-ahead input series: tariff, rooftop PV output, and neighbor loads.

All series are per-slot values over a :class:`~dsmsched.domain.TimeGrid`.
Files use a two-column `slot,value` CSV (neighbor tables have one column
per house) with 1-based slot numbers and values rounded to 6 decimals.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .domain import TimeGrid, finite_float
from .errors import InputError

__all__ = [
    "PriceSeries",
    "PvSeries",
    "NeighborLoads",
    "load_series",
    "write_series",
    "load_neighbor_loads",
    "write_neighbor_loads",
    "synth_pv_profile",
    "canonical_price_profile",
    "canonical_pv_profile",
    "canonical_neighbor_loads",
]


@dataclass(frozen=True)
class PriceSeries:
    """Day-ahead tariff in $/kWh per slot."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(v < 0 for v in self.values):
            raise ValueError("tariff values must be non-negative")

    def as_array(self) -> np.ndarray:
        return np.array(self.values, dtype=float)


@dataclass(frozen=True)
class PvSeries:
    """Rooftop PV output in kW per slot (already averaged over the slot)."""

    values: tuple[float, ...]
    capacity_kw: float

    def __post_init__(self) -> None:
        if self.capacity_kw <= 0:
            raise ValueError(f"capacity_kw must be positive, got {self.capacity_kw}")
        if any(v < 0 or v > self.capacity_kw + 1e-9 for v in self.values):
            raise ValueError("pv values must lie in [0, capacity_kw]")

    def as_array(self) -> np.ndarray:
        return np.array(self.values, dtype=float)


@dataclass(frozen=True)
class NeighborLoads:
    """Active-power draw of the other houses on the feeder, kW per slot.

    `per_house[h][t]` is house h's demand in slot t+1.  Reactive power
    follows from the problem context's power factor.
    """

    per_house: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if not self.per_house:
            raise ValueError("need at least one house")
        lengths = {len(h) for h in self.per_house}
        if len(lengths) != 1:
            raise ValueError(f"houses have differing series lengths {sorted(lengths)}")
        if any(v < 0 for house in self.per_house for v in house):
            raise ValueError("neighbor demand must be non-negative")

    @property
    def house_count(self) -> int:
        return len(self.per_house)

    @property
    def slot_count(self) -> int:
        return len(self.per_house[0])

    def as_array(self) -> np.ndarray:
        """(house, slot) array in kW."""
        return np.array(self.per_house, dtype=float)


# file IO ---------------------------------------------------------------------


def load_series(path: str | Path, grid: TimeGrid) -> list[float]:
    """Read a `slot,value` CSV; slots must be exactly 1..T in order."""
    path = Path(path)
    values: list[float] = []
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or len(header) < 2 or header[0].strip() != "slot":
                raise InputError(f"{path}: expected header starting with 'slot'")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    slot = int(row[0])
                    value = finite_float(row[1])
                except (ValueError, IndexError):
                    raise InputError(f"{path}:{lineno}: bad row {row!r}") from None
                if slot != len(values) + 1:
                    raise InputError(
                        f"{path}:{lineno}: slot {slot} out of order, expected {len(values) + 1}"
                    )
                values.append(value)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read series {path}: {exc}") from None
    if len(values) != grid.slot_count:
        raise InputError(
            f"{path}: {len(values)} rows, grid expects {grid.slot_count}"
        )
    return values


def write_series(path: str | Path, values: Iterable[float], value_name: str = "value") -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", value_name])
        for slot, v in enumerate(values, start=1):
            writer.writerow([slot, f"{v:.6f}"])


def load_neighbor_loads(path: str | Path, grid: TimeGrid) -> NeighborLoads:
    """Read a `slot,h1,...,hN` CSV of per-house demand."""
    path = Path(path)
    rows: list[list[float]] = []
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or header[0].strip() != "slot" or len(header) < 2:
                raise InputError(f"{path}: expected header slot,h1,...")
            width = len(header) - 1
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != width + 1:
                    raise InputError(f"{path}:{lineno}: expected {width + 1} columns")
                try:
                    slot = int(row[0])
                    rows.append([finite_float(v) for v in row[1:]])
                except ValueError:
                    raise InputError(f"{path}:{lineno}: bad row {row!r}") from None
                if slot != len(rows):
                    raise InputError(f"{path}:{lineno}: slot {slot} out of order")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read neighbor loads {path}: {exc}") from None
    if len(rows) != grid.slot_count:
        raise InputError(f"{path}: {len(rows)} rows, grid expects {grid.slot_count}")
    houses = tuple(tuple(row[h] for row in rows) for h in range(width))
    return NeighborLoads(per_house=houses)


def write_neighbor_loads(path: str | Path, loads: NeighborLoads) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot"] + [f"h{i}" for i in range(1, loads.house_count + 1)])
        for t in range(loads.slot_count):
            writer.writerow([t + 1] + [f"{house[t]:.6f}" for house in loads.per_house])


# synthesis --------------------------------------------------------------------


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
