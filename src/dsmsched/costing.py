"""Monetary evaluation of schedules: the objective and its constraints.

`assess` is the costing kernel.  Over a (rows x slots) gross kW matrix it
gives each row's billed kW (the net draw after PV plus billed feeder
loss), demand-cap excess, voltage-band violation and flow failure, and the
per-cell cap and band facts the feasibility report lists; `energy_cost`
prices billed kW, each row added left to right in a fixed order, free of
BLAS; `charge` adds the shift penalty.  The search scores every genotype
through them, and `total_cost`, which prices every reported schedule, and
`constraints.is_feasible` run each schedule through them too, so the
search, the oracle and the reports agree bit for bit, on any CPU.

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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .domain import (
    ISSUE_DURATION,
    ISSUE_ORIGINAL_WINDOW,
    ISSUE_RATED,
    Appliance,
    Schedule,
    TimeGrid,
    aggregate_power,
    validate_appliance_set,
)
from .errors import PowerFlowError
from .feeder import FeederModel, solve_power_flow_batch
from .profiles import NeighborLoads, PriceSeries, PvSeries

__all__ = ["KW_TOL", "CostBreakdown", "Loads", "ProblemContext", "assess", "cap_excess",
           "charge", "energy_cost", "net_load", "total_cost"]

# absolute slack on kW comparisons (sums of two-decimal ratings)
KW_TOL = 1e-9


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


# the issues of `validate_appliance_set` that the search still represents:
# an original plan off its declared window, which is widened to cover it
# (the duration then may not fit the declared window), a zero duration and
# a rating of zero or below
_ACCEPTED_ISSUES = frozenset({ISSUE_ORIGINAL_WINDOW, ISSUE_DURATION, ISSUE_RATED})


@dataclass(frozen=True)
class ProblemContext:
    """One scheduling problem: inputs and limits.

    Every house on the feeder, the smart home included, draws reactive power
    at `power_factor`; sweeps run at `solve_power_flow_batch`'s own
    tolerance and iteration limit.  The appliances pass
    `domain.validate_appliance_set`, the check the CLI makes of a config,
    but for the issues in `_ACCEPTED_ISSUES`: so ids are distinct, and every
    original plan is strictly ascending, on the grid, as long as the
    duration, and contiguous where the search keeps a run whole.
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
        hard = [i for i in validate_appliance_set(self.appliances, self.grid)
                if i.kind not in _ACCEPTED_ISSUES]
        if hard:
            raise ValueError("; ".join(f"appliance {i.appliance_id}: {i.message}" for i in hard))
        if len(self.price.values) != self.grid.slot_count:
            raise ValueError("price series length does not match grid")
        # `assess` keys a slot's load as rint(kW * 1000) * slots + slot in int64
        slots, rated = self.grid.slot_count, sum(abs(a.rated_kw) for a in self.appliances)
        if not rated * 1000.0 * slots + slots < 2.0**63:  # NaN fails too
            raise ValueError(f"appliance ratings sum to {rated:g} kW, past the int64 flow key")
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
        if penalty_price < 0:
            raise ValueError("penalty_price must be >= 0")
        # a shallow copy: no appliance check is run again
        twin = copy.copy(self)
        object.__setattr__(twin, "penalty_price", penalty_price)
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

    def _flows(self, codes: np.ndarray) -> np.ndarray:
        """Cache row of each of distinct codes; the misses are solved in one
        `_solve_cases` call."""
        rows = self._cache.find(codes)
        missing = rows < 0
        if missing.any():
            self._solve_cases(codes[missing])
            rows[missing] = self._cache.find(codes[missing])
        return rows

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


class Loads(NamedTuple):
    """What `assess` finds of a (rows x slots) gross kW matrix: the
    objective's billed kW and each row's standing against the demand cap
    and the voltage band, as the search scores it and the reports list it.
    A row's flows stop at its first slot whose flow fails: its loss and
    band violation cover only the slots before it."""

    # rows x slots: net = max(gross - pv, 0), as PV surplus is exported
    # without compensation; billed loss; billed kW, net plus billed loss;
    # kW over md_kw past KW_TOL, else 0
    net: np.ndarray
    loss: np.ndarray
    billed: np.ndarray
    excess: np.ndarray
    # one per row
    md_excess: np.ndarray
    voltage_violation: np.ndarray
    flow_failed: np.ndarray
    feasible: np.ndarray
    # each cell's flow, a row of `mags` (flows x buses |V| pu, voltage_min
    # where the flow failed) and of `outside` (|V| outside the band); each
    # failed flow's PowerFlowError by its row there
    cells: np.ndarray
    mags: np.ndarray
    outside: np.ndarray
    errors: dict[int, PowerFlowError]

    def raise_failure(self, row: int) -> None:
        """Raise the PowerFlowError of the row's first failed flow, if any;
        a copy, so raising it never grows the cached traceback."""
        if self.errors:
            for key in self.cells[row].tolist():
                if key in self.errors:
                    raise copy.copy(self.errors[key])


def assess(context: ProblemContext, gross: np.ndarray) -> Loads:
    """The costing kernel: `Loads` of a (rows x slots) gross kW matrix;
    a ValueError when its slot count is not the grid's.

    The demand cap is on gross load, which PV does not offset: the cap
    protects the service connection, not the meter reading.  A cell is
    over it when gross - md_kw > KW_TOL.  Each distinct (slot, W) key is
    looked up once in the context's flow cache, the misses solved in one
    `_solve_cases` call.  A row's band violation sums its reached cells'
    distances outside the band slot by slot, then bus by bus.
    """
    rows, slots = gross.shape
    if slots != context.grid.slot_count:
        raise ValueError(f"schedule has {slots} slots, grid expects {context.grid.slot_count}")
    excess, md_excess = cap_excess(context, gross)
    net = net_load(context, gross)
    violation = np.zeros(rows)
    if context.feeder is None:
        # every cell reads one flow of no buses
        loss, failed = np.zeros((rows, slots)), np.zeros(rows, bool)
        cells, mags, outside, errors = (np.zeros((rows, slots), np.intp), np.empty((1, 0)),
                                        np.empty((1, 0), bool), {})
    else:
        vmin, vmax = context.voltage_min, context.voltage_max
        codes = np.rint(gross * 1000.0).astype(np.int64) * slots + np.arange(slots)
        codes, inverse = np.unique(codes.ravel(), return_inverse=True)
        cells = inverse.reshape(rows, slots)
        found = context._flows(codes)
        cache = context._cache
        key_loss = cache.loss[found]
        ok = ~np.isnan(key_loss)
        errors = {key: cache.errors[code] for key, code in
                  zip(np.flatnonzero(~ok).tolist(), codes[~ok].tolist())}
        # a row reaches the slots before its first failed flow
        reached = np.logical_and.accumulate(ok[cells], axis=1)
        loss = np.where(reached, key_loss[cells], 0.0)
        failed = ~reached[:, -1]
        mags = cache.mags[found]
        mags[~ok] = vmin  # a failed flow is in band
        outside = (mags < vmin) | (mags > vmax)
        bad = np.flatnonzero((outside.any(axis=1)[cells] & reached).any(axis=1))
        if bad.size:
            # each bad row's distance outside the band per reached cell and
            # bus, slot-major then bus-minor; cumsum adds left to right, as
            # a slot-by-slot, bus-by-bus loop would
            cell_mags = mags[cells[bad]]
            terms = np.maximum(vmin - cell_mags, 0.0) + np.maximum(cell_mags - vmax, 0.0)
            terms[~reached[bad]] = 0.0
            violation[bad] = np.cumsum(terms.reshape(len(bad), -1), axis=1)[:, -1]
    feasible = (md_excess == 0.0) & (violation == 0.0) & ~failed
    return Loads(net, loss, net + loss, excess, md_excess, violation, failed, feasible,
                 cells, mags, outside, errors)


def cap_excess(context: ProblemContext, gross: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """kW over `md_kw` past KW_TOL (else 0) per cell of a (rows x slots)
    gross kW matrix, and its sum per row, as `assess` finds them."""
    excess = gross - context.md_kw
    excess[excess <= KW_TOL] = 0.0
    return excess, excess.sum(axis=1)


def net_load(context: ProblemContext, gross: np.ndarray) -> np.ndarray:
    """Net kW, max(gross - pv, 0), per cell of a gross kW matrix: PV
    surplus is exported without compensation."""
    return np.maximum(gross - context.pv_array(), 0.0)


def energy_cost(billed: np.ndarray, price: np.ndarray, hours: float) -> np.ndarray:
    """Energy cost of each row of billed kW, the objective's one pricing:
    the row's kW x price products added strictly left to right, times
    `hours`.  `cumsum` fixes that order, where a BLAS dot product's depends
    on the CPU's kernel, so the bits are the same on every CPU."""
    # in one fixed order each product and sum rounds monotonically in its
    # non-negative arguments: at non-negative prices (a `PriceSeries` holds
    # none below 0), a row 0 <= net <= billed cell by cell never costs more
    # than the billed row, as IEEE values
    return np.cumsum(billed * price, axis=1)[:, -1] * hours


def charge(
    slots: np.ndarray, original: np.ndarray, owner: np.ndarray, ratings: np.ndarray,
    energy: np.ndarray, hours: float, penalty_price: float | np.ndarray,
) -> tuple[np.ndarray, ...]:
    """The shift kernel, the objective's one inconvenience charge, over a
    (rows x cells) slot matrix of energy cost `energy`: the slots each
    appliance moved (rows x appliances, as floats), and per row the shift
    slots, the rating-weighted shift, the penalty and the total cost.

    Cell j of a row is an on-slot of appliance `owner[j]`, ascending per
    appliance as in `original`, so it counts its distance from the
    original slot of the same rank; an appliance without cells shifts 0.
    The weighted shift adds shift x rating left to right over `ratings`
    (one per appliance, at least one), as a per-appliance loop would.  A
    column of penalty prices gives one row of penalties and totals per
    price."""
    rows, count = len(slots), len(ratings)
    moved = np.abs(slots - original)
    cells = owner + (np.arange(rows) * count)[:, None]
    shifts = np.bincount(cells.ravel(), weights=moved.ravel(),
                         minlength=rows * count).reshape(rows, count)
    weighted = np.cumsum(shifts * ratings, axis=1)[:, -1]
    penalty = hours * penalty_price * weighted
    return shifts, moved.sum(axis=1), weighted, penalty, energy + penalty


def total_cost(schedule: Schedule, context: ProblemContext) -> CostBreakdown:
    """Full evaluation of a schedule under one problem context.

    Energy is sum((net + billed loss) x price) x slot width, where
    net = max(gross - pv, 0): PV surplus is exported without compensation.
    The penalty is `charge`'s, over every appliance's on-slots.  PV
    utilization is the fraction of the day's PV energy coincident with
    gross demand; None without PV energy.

    Raises ValueError when the schedule's slot count is not the grid's or
    a plan has the wrong length, and the PowerFlowError of the first slot
    whose sweep diverges.
    """
    appliances, grid = context.appliances, context.grid
    gross = aggregate_power(schedule, appliances)
    loads = assess(context, gross[None])
    loads.raise_failure(0)
    energy = energy_cost(loads.billed, context.price_array(), grid.slot_hours)

    # every appliance's on-slots, row by row, ascending
    owner, slots = np.nonzero(schedule.matrix)
    for a, count in zip(appliances, np.bincount(owner, minlength=len(appliances)).tolist()):
        if count != len(a.original_on_slots):
            raise ValueError(f"appliance {a.id}: plan has {count} slots, "
                             f"expected {len(a.original_on_slots)}")
    # the original plans, ascending, as the context requires
    original = np.array([s for a in appliances for s in a.original_on_slots], np.intp)
    shifts, _, weighted, penalty, total = charge(
        (slots + 1)[None], original, owner, np.array([a.rated_kw for a in appliances]),
        energy, grid.slot_hours, context.penalty_price)

    util = None
    pv = context.pv_array()
    pv_kwh = pv.sum() * grid.slot_hours
    if pv_kwh > 0:
        util = float(np.minimum(gross, pv).sum() * grid.slot_hours / pv_kwh)

    return CostBreakdown(
        energy_usd=energy.item(),
        penalty_usd=penalty.item(),
        total_usd=total.item(),
        shifts=dict(zip((a.id for a in appliances), shifts[0].astype(int).tolist())),
        weighted_shift=weighted.item(),
        pv_utilization=util,
        net_load_kw=tuple(loads.net[0].tolist()),
        billed_loss_kw=tuple(loads.loss[0].tolist()),
    )
