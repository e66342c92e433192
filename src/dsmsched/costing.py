"""Monetary evaluation of schedules: energy cost, shift penalty, PV metrics.

`ProblemContext` bundles everything a cost or feasibility computation needs
(grid, appliances, tariff, PV, neighbors, feeder, limits) and owns a shared
power-flow cache so that repeated evaluations of similar schedules reuse
slot solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .domain import Appliance, Schedule, TimeGrid, aggregate_power
from .errors import PowerFlowError, UndefinedMetricError
from .feeder import (
    FeederModel,
    SlotInjections,
    solve_power_flow,
    solve_power_flow_batch,
    zero_home,
)
from .profiles import NeighborLoads, PriceSeries, PvSeries

__all__ = [
    "PenaltyPrice",
    "CostBreakdown",
    "ProblemContext",
    "net_household_load",
    "electricity_cost",
    "shift_distance",
    "penalty_cost",
    "total_cost",
    "pv_utilization",
]


@dataclass(frozen=True)
class PenaltyPrice:
    """Inconvenience price in $/kWh applied to shifted appliance slots."""

    usd_per_kwh: float

    def __post_init__(self) -> None:
        if self.usd_per_kwh < 0:
            raise ValueError(f"penalty price must be >= 0, got {self.usd_per_kwh}")

    @classmethod
    def from_cents(cls, cents: float) -> "PenaltyPrice":
        return cls(usd_per_kwh=cents / 100.0)


@dataclass(frozen=True)
class CostBreakdown:
    """Daily cost of one schedule: energy bill plus shift penalty."""

    energy_usd: float
    penalty_usd: float
    total_usd: float
    shifts: dict[int, int]
    weighted_shift: float
    pv_utilization: float | None
    net_load_kw: tuple[float, ...]
    billed_loss_kw: tuple[float, ...]

    @property
    def total_shift_slots(self) -> int:
        return sum(self.shifts.values())

    def to_dict(self) -> dict:
        return {
            "c_e_usd": round(self.energy_usd, 6),
            "c_p_usd": round(self.penalty_usd, 6),
            "total_usd": round(self.total_usd, 6),
            "shifts": {str(k): int(v) for k, v in sorted(self.shifts.items())},
            "weighted_shift_kw_slots": round(self.weighted_shift, 6),
            "pv_utilization": None if self.pv_utilization is None else round(self.pv_utilization, 6),
            "net_load_kw": [round(v, 6) for v in self.net_load_kw],
            "billed_loss_kw": [round(v, 6) for v in self.billed_loss_kw],
        }


# cases per vectorized sweep call
_SWEEP_CHUNK = 256


class _FlowCache:
    """Per-slot power-flow results shared by every evaluation on a context.

    Key: (slot index, gross household load in whole watts).  Value:
    (billed incremental loss kW, per-bus voltage magnitudes), solved at the
    key's own load, watts / 1000 kW, so each entry is a fixed function of
    its key whatever order the evaluations reached it in.  Failed solves
    are not cached.
    """

    __slots__ = ("flow", "baseline")

    def __init__(self) -> None:
        self.flow: dict[tuple[int, int], tuple[float, tuple[float, ...]]] = {}
        self.baseline: dict[int, float] = {}


@dataclass(frozen=True)
class ProblemContext:
    """One scheduling problem: inputs, limits, and evaluation settings."""

    grid: TimeGrid
    appliances: tuple[Appliance, ...]
    price: PriceSeries
    pv: PvSeries | None = None
    neighbors: NeighborLoads | None = None
    feeder: FeederModel | None = None
    md_kw: float = math.inf
    penalty_price: float = 0.0
    voltage_min: float = 0.95
    voltage_max: float = 1.05
    power_factor: float = 0.95
    flow_tol: float = 1e-8
    flow_max_iter: int = 50
    _cache: _FlowCache = field(
        default_factory=_FlowCache, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.appliances:
            raise ValueError("context needs at least one appliance")
        if len(self.price.values) != self.grid.slot_count:
            raise ValueError("price series length does not match grid")
        if self.pv is not None and len(self.pv.values) != self.grid.slot_count:
            raise ValueError("pv series length does not match grid")
        if self.penalty_price < 0:
            raise ValueError("penalty_price must be >= 0")
        if not 0 < self.power_factor <= 1:
            raise ValueError("power_factor must be in (0, 1]")
        if self.md_kw <= 0:
            raise ValueError("md_kw must be positive")
        if self.neighbors is not None and self.neighbors.slot_count != self.grid.slot_count:
            raise ValueError("neighbor series length does not match grid")
        if self.feeder is not None and self.neighbors is not None:
            expected = len(self.feeder.neighbor_buses)
            if self.neighbors.house_count != expected:
                raise ValueError(
                    f"feeder has {expected} neighbor buses but "
                    f"{self.neighbors.house_count} house series were given"
                )

    def with_penalty(self, penalty_price: float) -> "ProblemContext":
        """Same problem at a different penalty price; power-flow cache shared."""
        return replace(self, penalty_price=penalty_price)

    # lazily built numpy views ------------------------------------------------

    def price_array(self) -> np.ndarray:
        return self.price.as_array()

    def pv_array(self) -> np.ndarray:
        if self.pv is None:
            return np.zeros(self.grid.slot_count)
        return self.pv.as_array()

    def original_schedule(self) -> Schedule:
        from .domain import schedule_from_on_slots

        return schedule_from_on_slots(
            [a.original_on_slots for a in self.appliances], self.grid.slot_count
        )

    # power flow ---------------------------------------------------------------

    def _injection_arrays(
        self, idx: np.ndarray, gross_kw: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`_injections` for many (slot, gross kW) cases: bus demand p, q
        (cases x buses) and home PV, with the same arithmetic."""
        feeder = self.feeder
        assert feeder is not None
        p = np.zeros((len(idx), feeder.bus_count))
        q = np.zeros_like(p)
        if self.neighbors is not None:
            tan_n = math.tan(math.acos(self.neighbors.power_factor))
            buses = list(feeder.neighbor_buses)
            p[:, buses] = self.neighbors.as_array()[:, idx].T
            q[:, buses] = p[:, buses] * tan_n
        home = feeder.smart_home_bus
        p[:, home] = gross_kw
        q[:, home] = gross_kw * math.tan(math.acos(self.power_factor))
        return p, q, self.pv_array()[idx]

    def _injections(self, idx: int, gross_kw: float) -> SlotInjections:
        feeder = self.feeder
        assert feeder is not None
        count = feeder.bus_count
        p = [0.0] * count
        q = [0.0] * count
        if self.neighbors is not None:
            tan_n = math.tan(math.acos(self.neighbors.power_factor))
            for bus, house in zip(feeder.neighbor_buses, self.neighbors.per_house):
                p[bus] = house[idx]
                q[bus] = house[idx] * tan_n
        home = feeder.smart_home_bus
        p[home] = gross_kw
        q[home] = gross_kw * math.tan(math.acos(self.power_factor))
        pv_kw = float(self.pv.values[idx]) if self.pv is not None else 0.0
        return SlotInjections(slot=idx + 1, p_kw=tuple(p), q_kvar=tuple(q), pv_kw=pv_kw)

    def baseline_loss(self, idx: int) -> float:
        """Feeder loss in slot idx with the smart home disconnected."""
        if self.feeder is None:
            return 0.0
        cached = self._cache.baseline.get(idx)
        if cached is None:
            inj = zero_home(self._injections(idx, 0.0), self.feeder)
            state = solve_power_flow(self.feeder, inj, self.flow_tol, self.flow_max_iter)
            cached = self._cache.baseline.setdefault(idx, state.loss_kw)
        return cached

    def slot_flow(self, idx: int, gross_kw: float) -> tuple[float, tuple[float, ...] | None]:
        """(billed incremental loss kW, per-bus |V| pu) for one slot.

        Billed loss is the with-home minus without-home feeder loss, floored
        at zero, at the load rounded to whole watts (the cache key).
        Returns (0, None) when the problem has no feeder.
        Raises PowerFlowError when the sweep diverges.
        """
        if self.feeder is None:
            return (0.0, None)
        key = (idx, round(gross_kw * 1000.0))
        hit = self._cache.flow.get(key)
        if hit is None:
            state = solve_power_flow(
                self.feeder, self._injections(idx, key[1] / 1000.0), self.flow_tol,
                self.flow_max_iter,
            )
            billed = max(0.0, state.loss_kw - self.baseline_loss(idx))
            hit = self._cache.flow.setdefault(key, (billed, state.voltage_magnitudes()))
        return hit

    def batch_flows(self, gross: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`slot_flow` over every cell of a (rows x slots) gross kW matrix.

        Returns (billed loss kW per cell, voltage-band violation per row,
        flow failed per row), exactly what calling `slot_flow` row by row,
        slot by slot would give: a row stops at its first slot whose flow
        fails, so its loss and violation cover only the slots before it,
        and violations sum slot by slot, then bus by bus.  Each distinct
        (slot, W) key is looked up once; the keys missing from the cache
        are solved together by `solve_power_flow_batch`.
        """
        rows, slots = gross.shape
        loss = np.zeros((rows, slots))
        violation = np.zeros(rows)
        if self.feeder is None:
            return loss, violation, np.zeros(rows, dtype=bool)
        flow = self._cache.flow
        vmin, vmax = self.voltage_min, self.voltage_max
        # one code per (slot, gross W) cache key
        codes = np.rint(gross * 1000.0).astype(np.int64) * slots + np.arange(slots)
        codes, inverse = np.unique(codes.ravel(), return_inverse=True)
        keys = list(zip((codes % slots).tolist(), (codes // slots).tolist()))
        entries = [flow.get(k) for k in keys]
        missing = [i for i, e in enumerate(entries) if e is None]
        for i, entry in zip(missing, self._solve_cases([keys[i] for i in missing])):
            if entry is not None:
                flow[keys[i]] = entries[i] = entry

        cells = inverse.reshape(rows, slots)
        # a row reaches the slots before its first failed flow
        ok = np.array([e is not None for e in entries])
        reached = np.logical_and.accumulate(ok[cells], axis=1)
        billed = np.array([0.0 if e is None else e[0] for e in entries])
        loss[reached] = billed[cells][reached]
        in_band = (vmin,) * self.feeder.bus_count
        mags = np.array([in_band if e is None else e[1] for e in entries])
        bad = ((mags < vmin) | (mags > vmax)).any(axis=1)[cells] & reached
        for row in np.flatnonzero(bad.any(axis=1)).tolist():
            total = 0.0
            for i in cells[row, reached[row]].tolist():
                for mag in entries[i][1]:
                    if mag < vmin:
                        total += vmin - mag
                    elif mag > vmax:
                        total += mag - vmax
            violation[row] = total
        return loss, violation, ~reached[:, -1]

    def _solve_cases(self, keys: list[tuple[int, int]]) -> list[tuple | None]:
        """`slot_flow` cache entries for (slot index, gross W) keys, None
        where `slot_flow` would raise PowerFlowError."""
        out: list[tuple | None] = []
        # chunks bound the sweep's working arrays (about 2 kB per case)
        for lo in range(0, len(keys), _SWEEP_CHUNK):
            chunk = keys[lo:lo + _SWEEP_CHUNK]
            idx = np.array([k[0] for k in chunk], dtype=np.intp)
            p, q, pv = self._injection_arrays(idx, np.array([k[1] for k in chunk]) / 1000.0)
            states = solve_power_flow_batch(
                self.feeder, p, q, pv, self.flow_tol, self.flow_max_iter)
            for k, slot in enumerate(idx.tolist()):
                if states.failed[k]:
                    out.append(None)
                    continue
                try:
                    billed = max(0.0, float(states.loss_kw[k]) - self.baseline_loss(slot))
                except PowerFlowError:
                    out.append(None)
                    continue
                out.append((billed, tuple(states.v_mag[k].tolist())))
        return out

    def billed_losses(self, gross: np.ndarray) -> np.ndarray:
        """Billed loss series for a gross household load series."""
        if self.feeder is None:
            return np.zeros(self.grid.slot_count)
        return np.array(
            [self.slot_flow(i, float(g))[0] for i, g in enumerate(gross)]
        )


def net_household_load(
    schedule: Schedule, appliances: Sequence[Appliance], pv: PvSeries | None
) -> tuple[np.ndarray, np.ndarray]:
    """Billable net draw and unused PV per slot, both clamped at zero.

    net(t) = max(gross(t) - pv(t), 0); surplus(t) = max(pv(t) - gross(t), 0).
    Surplus is exported without compensation.
    """
    gross = aggregate_power(schedule, appliances)
    if pv is None:
        return gross, np.zeros_like(gross)
    pv_arr = pv.as_array()
    if len(pv_arr) != len(gross):
        raise ValueError("pv series length does not match schedule")
    return np.maximum(gross - pv_arr, 0.0), np.maximum(pv_arr - gross, 0.0)


def electricity_cost(
    net_kw: np.ndarray | Sequence[float],
    billed_loss_kw: np.ndarray | Sequence[float],
    price: PriceSeries,
    grid: TimeGrid,
) -> float:
    """Daily energy bill: sum of (net + billed loss) x price x slot width."""
    net = np.asarray(net_kw, dtype=float)
    loss = np.asarray(billed_loss_kw, dtype=float)
    prices = price.as_array()
    if not len(net) == len(loss) == len(prices) == grid.slot_count:
        raise ValueError("series lengths disagree")
    return float(np.dot(net + loss, prices) * grid.slot_hours)


def shift_distance(appliance: Appliance, new_on_slots: Sequence[int]) -> int:
    """Slots of displacement between the original and new plan.

    Both on-slot vectors are taken in ascending order and matched
    elementwise; the distance is the sum of absolute slot differences, so
    every moved operation slot counts.
    """
    old = appliance.original_on_slots
    if len(new_on_slots) != len(old):
        raise ValueError(
            f"appliance {appliance.id}: plan has {len(new_on_slots)} slots, "
            f"expected {len(old)}"
        )
    new = sorted(int(s) for s in new_on_slots)
    return int(sum(abs(n - o) for n, o in zip(new, sorted(old))))


def penalty_cost(
    shifts: Mapping[int, int],
    appliances: Sequence[Appliance],
    penalty_price: float,
    grid: TimeGrid,
) -> float:
    """Inconvenience charge: slot width x price x rating-weighted shifts."""
    if penalty_price < 0:
        raise ValueError("penalty_price must be >= 0")
    weighted = sum(shifts.get(a.id, 0) * a.rated_kw for a in appliances)
    return grid.slot_hours * penalty_price * weighted


def pv_utilization(
    gross_kw: np.ndarray | Sequence[float], pv: PvSeries, grid: TimeGrid
) -> float:
    """Fraction of available PV energy coincident with household demand."""
    gross = np.asarray(gross_kw, dtype=float)
    pv_arr = pv.as_array()
    if len(gross) != len(pv_arr) or len(gross) != grid.slot_count:
        raise ValueError("series lengths disagree")
    available = pv_arr.sum() * grid.slot_hours
    if available <= 0:
        raise UndefinedMetricError("pv_utilization undefined: no PV energy available")
    used = np.minimum(gross, pv_arr).sum() * grid.slot_hours
    return float(used / available)


def total_cost(schedule: Schedule, context: ProblemContext) -> CostBreakdown:
    """Full evaluation of a schedule under one problem context."""
    appliances = context.appliances
    gross = aggregate_power(schedule, appliances)
    net, _surplus = net_household_load(schedule, appliances, context.pv)
    loss = context.billed_losses(gross)
    energy = electricity_cost(net, loss, context.price, context.grid)

    shifts = {
        a.id: shift_distance(a, schedule.on_slots(row))
        for row, a in enumerate(appliances)
    }
    penalty = penalty_cost(shifts, appliances, context.penalty_price, context.grid)
    weighted = float(sum(shifts[a.id] * a.rated_kw for a in appliances))

    util = None
    if context.pv is not None and context.pv.as_array().sum() > 0:
        util = pv_utilization(gross, context.pv, context.grid)

    return CostBreakdown(
        energy_usd=energy,
        penalty_usd=penalty,
        total_usd=energy + penalty,
        shifts=shifts,
        weighted_shift=weighted,
        pv_utilization=util,
        net_load_kw=tuple(float(v) for v in net),
        billed_loss_kw=tuple(float(v) for v in loss),
    )
