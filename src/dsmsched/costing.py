"""Monetary evaluation of schedules: energy cost, shift penalty, PV metrics.

`total_cost` is the reference scorer that prices every reported schedule:
the energy bill on the net draw plus billed feeder losses, and the
inconvenience charge on rating-weighted slot shifts (`shift_distance`).

`ProblemContext` bundles everything a cost or feasibility computation
needs (grid, appliances, tariff, PV, neighbors, feeder, limits) and owns a
shared power-flow cache so that repeated evaluations of similar schedules reuse
slot solves.  The cache is arrays: sorted int64 (slot, W) codes indexing
append-only rows of billed loss and per-bus |V|, NaN for a failed key, so a
reader looks up all of its keys with one `np.searchsorted`.  Every solve
goes through `ProblemContext._solve_cases`: one sweep call for all of a
reader's misses, and on the first, for every slot's baseline.
"""

from __future__ import annotations

import copy
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


class _FlowCache:
    """Per-slot power-flow results shared by every evaluation on a context.

    One entry per solved (slot index, gross household load in whole watts)
    key, coded `W x slot count + slot`: the billed incremental loss kW and
    the per-bus voltage magnitudes, solved at the key's own load, watts /
    1000 kW, so each entry is a fixed function of its key whatever order the
    evaluations reached it in.  A failed key's loss and |V| are NaN, and
    `errors` holds its PowerFlowError by code.

    The entries are arrays, not Python objects.  `codes` holds the cached
    codes in ascending order and `rows` the row of each in `loss` and
    `mags` (entries x buses); those two are only appended to, never
    reordered, and grow geometrically from the size of the first solve, so
    their first `len(codes)` rows are the entries.  `baseline` is every
    slot's home-disconnected feeder loss, None until the first solve, NaN
    where the sweep failed, with its PowerFlowError in `baseline_errors` by
    slot.
    """

    __slots__ = ("codes", "rows", "loss", "mags", "errors", "baseline", "baseline_errors")

    def __init__(self) -> None:
        self.codes = np.empty(0, dtype=np.int64)
        self.rows = np.empty(0, dtype=np.intp)
        self.loss = np.empty(0)
        self.mags = np.empty((0, 0))
        self.errors: dict[int, PowerFlowError] = {}
        self.baseline: np.ndarray | None = None
        self.baseline_errors: dict[int, PowerFlowError] = {}

    def find(self, codes: np.ndarray) -> np.ndarray:
        """Row of each code's entry, -1 where the code is not cached."""
        if not len(self.codes):
            return np.full(len(codes), -1, dtype=np.intp)
        at = np.minimum(np.searchsorted(self.codes, codes), len(self.codes) - 1)
        return np.where(self.codes[at] == codes, self.rows[at], -1)

    def add(self, codes: np.ndarray, loss: np.ndarray, mags: np.ndarray) -> None:
        """Append the entries of distinct codes not yet cached."""
        if not len(codes):
            return
        start = len(self.codes)
        end = start + len(codes)
        if end > len(self.loss):
            grown = max(end, 2 * len(self.loss))
            old_loss, old_mags = self.loss, self.mags
            self.loss, self.mags = np.empty(grown), np.empty((grown, mags.shape[1]))
            if start:
                self.loss[:start], self.mags[:start] = old_loss[:start], old_mags[:start]
        self.loss[start:end] = loss
        self.mags[start:end] = mags
        # insert the new codes into the sorted index; the entries stay where
        # they are
        order = np.argsort(codes)
        new = codes[order]
        at = np.searchsorted(self.codes, new)
        self.codes = np.insert(self.codes, at, new)
        self.rows = np.insert(self.rows, at, start + order)


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
        if not self.voltage_min < self.voltage_max:
            raise ValueError(f"voltage band [{self.voltage_min}, {self.voltage_max}]: "
                             "voltage_min must be below voltage_max")
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

    def _check_slot(self, idx: int) -> None:
        if not 0 <= idx < self.grid.slot_count:
            raise ValueError(f"slot index {idx} is outside 0..{self.grid.slot_count - 1}")

    def baseline_loss(self, idx: int) -> float:
        """Feeder loss in slot idx with the smart home disconnected.

        Raises ValueError for a slot outside the grid, and PowerFlowError
        when the sweep diverges.
        """
        self._check_slot(idx)
        if self.feeder is None:
            return 0.0
        if self._cache.baseline is None:
            self._solve_cases(np.empty(0, dtype=np.int64))
        if idx in self._cache.baseline_errors:
            raise copy.copy(self._cache.baseline_errors[idx])
        return float(self._cache.baseline[idx])

    def slot_flow(self, idx: int, gross_kw: float) -> tuple[float, tuple[float, ...] | None]:
        """(billed incremental loss kW, per-bus |V| pu) for one slot.

        Billed loss is the with-home minus without-home feeder loss, floored
        at zero, at the load rounded to whole watts (the cache key).
        Returns (0, None) when the problem has no feeder.
        Raises ValueError for a slot outside the grid, and PowerFlowError
        when the sweep diverges.
        """
        self._check_slot(idx)
        if self.feeder is None:
            return (0.0, None)
        code = round(gross_kw * 1000.0) * self.grid.slot_count + idx
        (row,) = self._flows(np.array([code]))
        cache = self._cache
        if code in cache.errors:
            raise copy.copy(cache.errors[code])
        return float(cache.loss[row]), tuple(cache.mags[row].tolist())

    def slot_flows(self, gross: Sequence[float]) -> tuple[np.ndarray, np.ndarray, dict]:
        """`slot_flow` of every slot of a gross kW series, the misses solved
        together: billed loss kW and per-bus |V| pu per slot, NaN in a failed
        slot, and a copy of each failed slot's PowerFlowError by slot index,
        in slot order; a copy, so raising it never grows the cached
        traceback.  Without a feeder: zeros, no |V| columns and no errors.
        """
        count = self.grid.slot_count
        if self.feeder is None:
            return np.zeros(count), np.empty((count, 0)), {}
        codes = self._codes(np.asarray(gross, dtype=float))
        rows = self._flows(codes)
        cache = self._cache
        loss = cache.loss[rows]
        errors = {slot: copy.copy(cache.errors[int(codes[slot])])
                  for slot in np.flatnonzero(np.isnan(loss)).tolist()}
        return loss, cache.mags[rows], errors

    def _codes(self, gross: np.ndarray) -> np.ndarray:
        """Cache code, W x slot count + slot, of each cell of a gross kW
        series or (rows x slots) matrix, at the load rounded to whole watts."""
        count = self.grid.slot_count
        return np.rint(gross * 1000.0).astype(np.int64) * count + np.arange(count)

    def _flows(self, codes: np.ndarray) -> np.ndarray:
        """Cache row of each of distinct codes; the misses are solved in one
        `_solve_cases` call."""
        rows = self._cache.find(codes)
        missing = rows < 0
        if missing.any():
            self._solve_cases(codes[missing])
            rows[missing] = self._cache.find(codes[missing])
        return rows

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
        codes, inverse = np.unique(self._codes(gross).ravel(), return_inverse=True)
        found = self._flows(codes)

        cells = inverse.reshape(rows, slots)
        cache = self._cache
        billed = cache.loss[found]
        # a row reaches the slots before its first failed flow
        ok = ~np.isnan(billed)
        reached = np.logical_and.accumulate(ok[cells], axis=1)
        loss[reached] = billed[cells][reached]
        mags = cache.mags[found]
        mags[~ok] = vmin  # a failed key is in band
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

    def _solve_cases(self, codes: np.ndarray) -> None:
        """Solve and cache distinct uncached (slot, W) codes by
        `solve_power_flow_batch`.

        On the cache's first solve, every slot's home-disconnected baseline
        goes ahead of the flows, in the same sweep call.  A key whose flow
        or slot baseline fails is cached with NaN loss and |V| and its
        PowerFlowError: its own failure or else its slot's baseline
        failure, in that order.
        """
        cache = self._cache
        count = self.grid.slot_count
        homes = count if cache.baseline is None else 0
        if homes:
            # a baseline's case has code W x count + slot with W = 0
            codes = np.concatenate([np.arange(count, dtype=np.int64), codes])
        idx, watts = codes % count, codes // count
        p, q, pv = self._injection_arrays(idx, watts / 1000.0)
        pv[:homes] = 0.0  # a baseline drops the home's PV too
        sweep = solve_power_flow_batch(self.feeder, p, q, pv)
        if homes:
            cache.baseline = sweep.loss_kw[:homes].copy()
            for slot in np.flatnonzero(sweep.failed[:homes]).tolist():
                cache.baseline_errors[slot] = sweep.error(slot, slot + 1)
        # NaN where the flow or its slot's baseline failed
        diff = sweep.loss_kw[homes:] - cache.baseline[idx[homes:]]
        bad = np.isnan(diff)
        for case in (homes + np.flatnonzero(bad)).tolist():
            slot = int(idx[case])
            cache.errors[int(codes[case])] = (sweep.error(case, slot + 1) if sweep.failed[case]
                                              else cache.baseline_errors[slot])
        mags = sweep.v_mag[homes:]
        mags[bad] = math.nan
        # Python's max(0.0, d): a -0.0 difference bills 0.0, where
        # np.maximum would keep -0.0; NaN stays NaN
        cache.add(codes[homes:], np.where(diff <= 0.0, 0.0, diff), mags)


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
    pv = context.pv_array()
    net = np.maximum(gross - pv, 0.0)
    loss, _, errors = context.slot_flows(gross)
    if errors:
        raise next(iter(errors.values()))
    energy = float(np.dot(net + loss, context.price_array()) * grid.slot_hours)

    shifts = {
        a.id: shift_distance(a, schedule.on_slots(row))
        for row, a in enumerate(appliances)
    }
    # left to right, in appliance order, as `SearchSpace.evaluate` adds it:
    # the builtin `sum` of floats is compensated from Python 3.12 on
    weighted = 0.0
    for a in appliances:
        weighted += shifts[a.id] * a.rated_kw
    penalty = grid.slot_hours * context.penalty_price * weighted

    util = None
    pv_kwh = pv.sum() * grid.slot_hours
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
