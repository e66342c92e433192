"""Day-ahead input series: tariff, rooftop PV output, and neighbor loads.

All series are per-slot values over a :class:`~dsmsched.domain.TimeGrid`.
Files use a two-column `slot,value` CSV (neighbor tables have one column
per house) with 1-based slot numbers; the canonical series and the
writers live with the fixture generator, `scripts/generate_fixtures.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .domain import TimeGrid, finite_float, read_csv
from .errors import InputError

__all__ = [
    "PriceSeries",
    "PvSeries",
    "NeighborLoads",
    "load_series",
    "load_neighbor_loads",
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


def _load_slot_table(
    path: str | Path, grid: TimeGrid, what: str, columns: str, width: int | None = None
) -> list[list[float]]:
    """The value columns of a `slot,c1,...,cN` CSV, one list of N floats per
    slot: slots exactly 1..T in order, every row N + 1 fields.  `width`, if
    given, is the N the file must have; `columns` spells the expected header."""
    path = Path(path)
    header, body = read_csv(path, what)
    if len(header) < 2 or header[0].strip() != "slot" or width not in (None, len(header) - 1):
        raise InputError(f"{path}: expected header {columns}")
    rows: list[list[float]] = []
    for lineno, row in body:
        if len(row) != len(header):
            raise InputError(f"{path}:{lineno}: expected {len(header)} columns")
        try:
            slot = int(row[0])
            rows.append([finite_float(v) for v in row[1:]])
        except ValueError:
            raise InputError(f"{path}:{lineno}: bad row {row!r}") from None
        if slot != len(rows):
            raise InputError(f"{path}:{lineno}: slot {slot} out of order, expected {len(rows)}")
    if len(rows) != grid.slot_count:
        raise InputError(f"{path}: {len(rows)} rows, grid expects {grid.slot_count}")
    return rows


def load_series(path: str | Path, grid: TimeGrid) -> list[float]:
    """Read a `slot,value` CSV: exactly two columns, the second of any name,
    and slots exactly 1..T in order."""
    return [value for value, in _load_slot_table(path, grid, "series", "slot,value", width=1)]


def load_neighbor_loads(path: str | Path, grid: TimeGrid) -> NeighborLoads:
    """Read a `slot,h1,...,hN` CSV of per-house demand."""
    rows = _load_slot_table(path, grid, "neighbor loads", "slot,h1,...")
    return NeighborLoads(per_house=tuple(zip(*rows)))
