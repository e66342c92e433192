"""Monetary evaluation of schedules: energy cost, shift penalty, PV metrics.

`total_cost` is the reference scorer that prices every reported schedule:
the energy bill on the net draw plus billed feeder losses, and the
inconvenience charge on rating-weighted slot shifts (`shift_distance`).

`ProblemContext` bundles everything a cost or feasibility computation
needs (grid, appliances, tariff, PV, neighbors, feeder, limits) and owns a
shared power-flow cache so that repeated evaluations of similar schedules reuse
slot solves.  The cache is arrays: sorted int64 (slot, W) codes indexing
append-only rows of billed loss and per-bus |V|, so a reader looks up all of
its keys with one `np.searchsorted`.  Every solve goes through
`ProblemContext._solve_cases`: one call of the batched sweep for all of a
reader's misses and the home-disconnected baselines of their slots.
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


# cases per vectorized sweep call
_SWEEP_CHUNK = 256


class _FlowCache:
    """Per-slot power-flow results shared by every evaluation on a context.

    One entry per converged (slot index, gross household load in whole
    watts) key, coded `W x slot count + slot`: the billed incremental loss
    kW and the per-bus voltage magnitudes, solved at the key's own load,
    watts / 1000 kW, so each entry is a fixed function of its key whatever
    order the evaluations reached it in.  Failed solves are not cached.

    The entries are arrays, not Python objects.  `codes` holds the cached
    codes in ascending order and `rows` the row of each in `loss` and
    `mags` (entries x buses); those two are only appended to, never
    reordered, and grow geometrically from the size of the first solve, so
    their first `size` rows are the entries.  `baseline` maps a slot index
    to its home-disconnected feeder loss, and `baseline_failed` to the
    PowerFlowError of that sweep where it diverged, so neither is solved
    twice.
    """

    __slots__ = ("codes", "rows", "loss", "mags", "size", "baseline", "baseline_failed")

    def __init__(self) -> None:
        self.codes = np.empty(0, dtype=np.int64)
        self.rows = np.empty(0, dtype=np.intp)
        self.loss = np.empty(0)
        self.mags = np.empty((0, 0))
        self.size = 0
        self.baseline: dict[int, float] = {}
        self.baseline_failed: dict[int, PowerFlowError] = {}

    def find(self, codes: np.ndarray) -> np.ndarray:
        """Row of each code's entry, -1 where the code is not cached."""
        if not self.size:
            return np.full(len(codes), -1, dtype=np.intp)
        at = np.minimum(np.searchsorted(self.codes, codes), self.size - 1)
        return np.where(self.codes[at] == codes, self.rows[at], -1)

    def add(self, codes: np.ndarray, loss: np.ndarray, mags: np.ndarray) -> None:
        """Append the entries of distinct codes not yet cached."""
        start, end = self.size, self.size + len(codes)
        if end > len(self.loss):
            grown = max(end, 2 * len(self.loss))
            old_loss, old_mags = self.loss, self.mags
            self.loss, self.mags = np.empty(grown), np.empty((grown, mags.shape[1]))
            if start:
                self.loss[:start], self.mags[:start] = old_loss[:start], old_mags[:start]
        self.loss[start:end] = loss
        self.mags[start:end] = mags
        # merge the new codes into the index, as np.insert would without its
        # per-call overhead; the entries stay where they are
        order = np.argsort(codes)
        new = codes[order]
        at = np.searchsorted(self.codes, new) + np.arange(len(new))
        kept = np.ones(end, dtype=bool)
        kept[at] = False
        merged, rows = np.empty(end, dtype=np.int64), np.empty(end, dtype=np.intp)
        merged[at], merged[kept] = new, self.codes
        rows[at], rows[kept] = start + order, self.rows
        self.codes, self.rows, self.size = merged, rows, end


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
            failed = self._solve_cases(np.empty(0, dtype=np.int64), (idx,))
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
        watts = round(gross_kw * 1000.0)
        (row,), failed = self._flows(np.array([watts * self.grid.slot_count + idx]))
        if row < 0:
            raise failed[(idx, watts)]
        cache = self._cache
        return float(cache.loss[row]), tuple(cache.mags[row].tolist())

    def slot_flows(self, gross: Sequence[float]) -> list[tuple | PowerFlowError]:
        """`slot_flow` of every slot of a gross kW series, each the result
        or the PowerFlowError it raises; the misses are solved together."""
        if self.feeder is None:
            return [(0.0, None)] * len(gross)
        codes = self._codes(np.asarray(gross, dtype=float))
        rows, failed = self._flows(codes)
        cache = self._cache
        hits = rows[rows >= 0]
        found = zip(cache.loss[hits].tolist(), map(tuple, cache.mags[hits].tolist()))
        count = self.grid.slot_count
        return [
            next(found) if row >= 0 else failed[(idx, int(codes[idx]) // count)]
            for idx, row in enumerate(rows.tolist())
        ]

    def _codes(self, gross: np.ndarray) -> np.ndarray:
        """Cache code, W x slot count + slot, of each cell of a gross kW
        series or (rows x slots) matrix, at the load rounded to whole watts."""
        count = self.grid.slot_count
        return np.rint(gross * 1000.0).astype(np.int64) * count + np.arange(count)

    def _flows(self, codes: np.ndarray) -> tuple[np.ndarray, dict]:
        """Cache row of each of distinct codes, -1 where its flow fails, and
        the PowerFlowError of each failed key; the misses are solved in one
        `_solve_cases` call."""
        rows = self._cache.find(codes)
        missing = rows < 0
        if not missing.any():
            return rows, {}
        failed = self._solve_cases(codes[missing])
        rows[missing] = self._cache.find(codes[missing])
        return rows, failed

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
        found, _ = self._flows(codes)

        cells = inverse.reshape(rows, slots)
        # a row reaches the slots before its first failed flow
        ok = found >= 0
        reached = np.logical_and.accumulate(ok[cells], axis=1)
        cache = self._cache
        billed = np.zeros(len(codes))
        billed[ok] = cache.loss[found[ok]]
        loss[reached] = billed[cells][reached]
        mags = np.full((len(codes), self.feeder.bus_count), vmin)  # a failed key is in band
        mags[ok] = cache.mags[found[ok]]
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
        self, codes: np.ndarray, slots: Sequence[int] = ()
    ) -> dict[tuple[int, int] | int, PowerFlowError]:
        """Solve distinct uncached (slot, W) codes, and the uncached
        home-disconnected baselines of their slots and of `slots`, by
        `solve_power_flow_batch`.

        Caches every flow entry and baseline that converges, and every
        baseline failure.  Returns the PowerFlowError of each failure: by
        (slot index, W) key for a flow, its own or else its slot's baseline
        failure, in that order, as `slot_flow` raises them; by slot index
        for a baseline.
        """
        cache = self._cache
        count = self.grid.slot_count
        touched = {*slots, *(codes % count).tolist()}
        # a known baseline failure is handed out as a copy, so that raising
        # it never grows the cached error's traceback
        failed: dict = {slot: copy.copy(cache.baseline_failed[slot])
                        for slot in touched & cache.baseline_failed.keys()}
        todo = sorted(touched - cache.baseline.keys() - failed.keys())
        # baselines first, so each is known before the flows of its slot; a
        # baseline's case has code W x count + slot with W = 0
        case_codes = np.concatenate([np.array(todo, dtype=np.int64), codes])
        # chunks bound the sweep's working arrays (about 2 kB per case)
        for lo in range(0, len(case_codes), _SWEEP_CHUNK):
            chunk = case_codes[lo:lo + _SWEEP_CHUNK]
            idx, watts = chunk % count, chunk // count
            p, q, pv = self._injection_arrays(idx, watts / 1000.0)
            homes = max(0, len(todo) - lo)  # the chunk's leading baselines
            pv[:homes] = 0.0  # a baseline drops the home's PV too
            sweep = solve_power_flow_batch(self.feeder, p, q, pv)
            fails, losses = sweep.failed.tolist(), sweep.loss_kw.tolist()
            for k, slot in enumerate(idx[:homes].tolist()):
                if fails[k]:
                    failed[slot] = sweep.error(k, slot + 1)
                    cache.baseline_failed[slot] = copy.copy(failed[slot])
                else:
                    cache.baseline[slot] = losses[k]
            # NaN where the flow or its slot's baseline failed
            base = np.array([cache.baseline.get(s, math.nan) for s in range(count)])
            diff = sweep.loss_kw[homes:] - base[idx[homes:]]
            bad = np.isnan(diff)
            for case in (homes + np.flatnonzero(bad)).tolist():
                slot, w = int(idx[case]), int(watts[case])
                failed[(slot, w)] = sweep.error(case, slot + 1) if fails[case] else failed[slot]
            ok = ~bad
            if ok.any():
                # Python's max(0.0, d): a -0.0 difference bills 0.0, where
                # np.maximum would keep -0.0
                cache.add(chunk[homes:][ok], np.where(diff[ok] > 0.0, diff[ok], 0.0),
                          sweep.v_mag[homes:][ok])
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
