"""Monetary evaluation of schedules: energy cost, shift penalty, PV metrics.

`total_cost` is the reference scorer that prices every reported schedule:
the energy bill on the net draw plus billed feeder losses, and the
inconvenience charge on rating-weighted slot shifts (`shift_distance`).

`ProblemContext` bundles everything a cost or feasibility computation
needs (grid, appliances, tariff, PV, neighbors, feeder, limits) and owns a
shared power-flow cache so that repeated evaluations of similar schedules reuse
slot solves.  Every solve goes through `ProblemContext._solve_cases`: one
call of the batched sweep for all of a reader's misses and the
home-disconnected baselines of their slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .domain import Appliance, Schedule, TimeGrid, aggregate_power
from .errors import PowerFlowError
from .feeder import FeederModel, solve_power_flow_batch
from .profiles import NeighborLoads, PriceSeries, PvSeries

__all__ = ["CostBreakdown", "ProblemContext", "shift_distance", "total_cost"]


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
    """One scheduling problem: inputs and limits.

    Every house on the feeder, the smart home included, draws reactive power
    at `power_factor`; sweeps run at `solve_power_flow_batch`'s own
    tolerance and iteration limit.
    """

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
    # not an argument: a context built by its constructor or by
    # `dataclasses.replace` starts a cache of its own; `with_penalty` shares it
    _cache: _FlowCache = field(
        default_factory=_FlowCache, init=False, repr=False, compare=False
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
            raise ValueError(f"power_factor must be in (0, 1], got {self.power_factor}")
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
        """Same problem at a different penalty price, reading this context's
        power-flow cache: no flow depends on the penalty price."""
        twin = replace(self, penalty_price=penalty_price)
        object.__setattr__(twin, "_cache", self._cache)
        return twin

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
        """Bus demand p, q (cases x buses) and home PV of (slot index,
        gross kW) cases, every bus at the context's power factor."""
        feeder = self.feeder
        assert feeder is not None
        p = np.zeros((len(idx), feeder.bus_count))
        if self.neighbors is not None:
            p[:, list(feeder.neighbor_buses)] = self.neighbors.as_array()[:, idx].T
        p[:, feeder.smart_home_bus] = gross_kw
        q = p * math.tan(math.acos(self.power_factor))
        return p, q, self.pv_array()[idx]

    def baseline_loss(self, idx: int) -> float:
        """Feeder loss in slot idx with the smart home disconnected.

        Raises PowerFlowError when the sweep diverges.
        """
        if self.feeder is None:
            return 0.0
        if idx not in self._cache.baseline:
            failed = self._solve_cases([], (idx,))
            if idx in failed:
                raise failed[idx]
        return self._cache.baseline[idx]

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
        (entry,), failed = self._flows([key])
        if entry is None:
            raise failed[key]
        return entry

    def slot_flows(self, gross: Sequence[float]) -> list[tuple | PowerFlowError]:
        """`slot_flow` of every slot of a gross kW series, each the result
        or the PowerFlowError it raises; the misses are solved together."""
        if self.feeder is None:
            return [(0.0, None)] * len(gross)
        keys = [(i, round(float(kw) * 1000.0)) for i, kw in enumerate(gross)]
        entries, failed = self._flows(keys)
        return [failed[k] if e is None else e for k, e in zip(keys, entries)]

    def _flows(self, keys: list[tuple[int, int]]) -> tuple[list, dict]:
        """Cache entries of (slot index, gross W) keys, None where the flow
        fails, and the PowerFlowError of each such key; the misses are
        solved in one `_solve_cases` call."""
        flow = self._cache.flow
        entries = [flow.get(k) for k in keys]
        missing = [i for i, e in enumerate(entries) if e is None]
        failed = self._solve_cases([keys[i] for i in missing])
        for i in missing:
            entries[i] = flow.get(keys[i])
        return entries, failed

    def batch_flows(self, gross: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`slot_flow` over every cell of a (rows x slots) gross kW matrix.

        Returns (billed loss kW per cell, voltage-band violation per row,
        flow failed per row), exactly what calling `slot_flow` row by row,
        slot by slot would give: a row stops at its first slot whose flow
        fails, so its loss and violation cover only the slots before it,
        and violations sum slot by slot, then bus by bus.  Each distinct
        (slot, W) key is looked up once; the keys missing from the cache
        are solved together, in one `_solve_cases` call.
        """
        rows, slots = gross.shape
        loss = np.zeros((rows, slots))
        violation = np.zeros(rows)
        if self.feeder is None:
            return loss, violation, np.zeros(rows, dtype=bool)
        vmin, vmax = self.voltage_min, self.voltage_max
        # one code per (slot, gross W) cache key
        codes = np.rint(gross * 1000.0).astype(np.int64) * slots + np.arange(slots)
        codes, inverse = np.unique(codes.ravel(), return_inverse=True)
        keys = list(zip((codes % slots).tolist(), (codes // slots).tolist()))
        entries, _ = self._flows(keys)

        cells = inverse.reshape(rows, slots)
        # a row reaches the slots before its first failed flow
        ok = np.array([e is not None for e in entries])
        reached = np.logical_and.accumulate(ok[cells], axis=1)
        billed = np.array([0.0 if e is None else e[0] for e in entries])
        loss[reached] = billed[cells][reached]
        in_band = (vmin,) * self.feeder.bus_count
        mags = np.array([in_band if e is None else e[1] for e in entries])
        out_of_band = ((mags < vmin) | (mags > vmax)).any(axis=1)[cells] & reached
        bad = np.flatnonzero(out_of_band.any(axis=1))
        if bad.size:
            # each bad row's distance outside the band per reached cell and
            # bus, slot-major then bus-minor; cumsum adds left to right, as
            # a slot-by-slot, bus-by-bus loop would
            cell_mags = mags[cells[bad]]
            terms = np.maximum(vmin - cell_mags, 0.0) + np.maximum(cell_mags - vmax, 0.0)
            terms[~reached[bad]] = 0.0
            terms = terms.reshape(len(bad), slots * self.feeder.bus_count)
            violation[bad] = np.cumsum(terms, axis=1)[:, -1]
        return loss, violation, ~reached[:, -1]

    def _solve_cases(
        self, keys: list[tuple[int, int]], slots: Sequence[int] = ()
    ) -> dict[tuple[int, int] | int, PowerFlowError]:
        """Solve (slot index, gross W) keys, and the uncached home-disconnected
        baselines of their slots and of `slots`, by `solve_power_flow_batch`.

        Caches every flow entry and baseline that converges.  Returns the
        PowerFlowError of each failure: by key for a flow, its own or else
        its slot's baseline failure, in that order, as `slot_flow` raises
        them; by slot index for a baseline.
        """
        flow, baseline = self._cache.flow, self._cache.baseline
        todo = sorted({*slots, *(s for s, _ in keys)} - baseline.keys())
        # baselines first, so each is known before the flows of its slot
        cases = [(s, None) for s in todo] + keys
        failed: dict = {}
        # chunks bound the sweep's working arrays (about 2 kB per case)
        for lo in range(0, len(cases), _SWEEP_CHUNK):
            chunk = cases[lo:lo + _SWEEP_CHUNK]
            idx = np.array([s for s, _ in chunk], dtype=np.intp)
            watts = np.array([w or 0 for _, w in chunk])
            p, q, pv = self._injection_arrays(idx, watts / 1000.0)
            pv[[w is None for _, w in chunk]] = 0.0  # a baseline drops the home's PV too
            sweep = solve_power_flow_batch(self.feeder, p, q, pv)
            fails, losses = sweep.failed.tolist(), sweep.loss_kw.tolist()
            mags = sweep.v_mag.tolist()
            for k, (slot, w) in enumerate(chunk):
                if fails[k]:
                    failed[slot if w is None else (slot, w)] = sweep.error(k, slot + 1)
                elif w is None:
                    baseline[slot] = losses[k]
                elif slot in failed:
                    failed[(slot, w)] = failed[slot]
                else:
                    flow[(slot, w)] = (max(0.0, losses[k] - baseline[slot]), tuple(mags[k]))
        return failed


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


def total_cost(schedule: Schedule, context: ProblemContext) -> CostBreakdown:
    """Full evaluation of a schedule under one problem context.

    Energy is sum((net + billed loss) x price) x slot width, where
    net = max(gross - pv, 0): PV surplus is exported without compensation.
    The penalty is slot width x penalty price x rating-weighted shifts.  PV
    utilization is the fraction of the day's PV energy coincident with
    gross demand; None without PV energy.

    Raises ValueError when the schedule's slot count is not the grid's or
    a plan has the wrong length, and the PowerFlowError of the first slot
    whose sweep diverges.
    """
    appliances, grid = context.appliances, context.grid
    if schedule.slot_count != grid.slot_count:
        raise ValueError(
            f"schedule has {schedule.slot_count} slots, grid expects {grid.slot_count}"
        )
    gross = aggregate_power(schedule, appliances)
    pv = None if context.pv is None else context.pv.as_array()
    net = gross if pv is None else np.maximum(gross - pv, 0.0)
    losses = []
    for flow in context.slot_flows(gross):
        if isinstance(flow, PowerFlowError):
            raise flow
        losses.append(flow[0])
    loss = np.array(losses)
    energy = float(np.dot(net + loss, context.price_array()) * grid.slot_hours)

    shifts = {
        a.id: shift_distance(a, schedule.on_slots(row))
        for row, a in enumerate(appliances)
    }
    weighted = sum(shifts[a.id] * a.rated_kw for a in appliances)
    penalty = grid.slot_hours * context.penalty_price * weighted

    util = None
    pv_kwh = 0.0 if pv is None else pv.sum() * grid.slot_hours
    if pv_kwh > 0:
        util = float(np.minimum(gross, pv).sum() * grid.slot_hours / pv_kwh)

    return CostBreakdown(
        energy_usd=energy,
        penalty_usd=penalty,
        total_usd=energy + penalty,
        shifts=shifts,
        weighted_shift=float(weighted),
        pv_utilization=util,
        net_load_kw=tuple(float(v) for v in net),
        billed_loss_kw=tuple(float(v) for v in loss),
    )
