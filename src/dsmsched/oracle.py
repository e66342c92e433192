"""Brute-force optimizer for instances small enough to enumerate.

Serves as ground truth for the clonal-selection optimizer: it walks every
schedule that satisfies duration, window, and contiguity by construction,
filters the demand cap and (when a feeder is present) the voltage band,
and returns the exact minimum of the same cost function, with the
optimizer's own tie rule, `csa._better_incumbent` (smaller total shift,
then the lexicographically earliest genotype).  Candidates are the
optimizer's own genotypes, listed and scored by its `SearchSpace`.

Candidates are enumerated by index k, the k-th genotype of
`itertools.product` over the appliances' gene lists (the last appliance
varies fastest).  A chunk's slot matrix is gathered from one
(genes x duration) slot table per appliance by the mixed-radix digits of
its indices, so no Python object is built per candidate.
The costing kernels, `costing.assess` over `SearchSpace.gross_rows` and
`SearchSpace.charge` over the feasible rows (every penalty price at once),
give the chunk's feasibility, billed kW, shifts and penalties as columns,
as the optimizer's own evaluation does.  Only the candidates within
TIE_TOL of the running optimum at their turn can change it.  One matrix
product prices every feasible row approximately, within a margin proven
to cover its distance from the exact total (see `_approx_energy`), and only
rows whose approximate total comes within TIE_TOL plus that margin of the
running optimum are priced exactly, by the objective's one `ddot` per row
(`costing.energy_cost`), at most once per chunk across prices.  Each
such row is decided by its exact total, with the same IEEE operations, in
the same order, as pricing one candidate at a time; just those that pass
have their slot rows packed into the optimizer's genotype bytes and offered
to it, so the optimum, its ties and their order are exactly those of
offering every feasible candidate in turn.  The total reported, that of
`total_cost`, is the total the optimum was decided by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .costing import (ULP_SLACK, CostBreakdown, Loads, ProblemContext, assess, energy_cost,
                      energy_margin, total_cost)
from .csa import _NO_INCUMBENT, TIE_TOL, Antibody, SearchSpace, _better_incumbent
from .domain import Schedule
from .errors import EnumerationGuardError

__all__ = [
    "SmallInstance",
    "OracleResult",
    "exhaustive_optimize",
    "sweep_penalties",
]

MAX_FLEXIBLE = 4
MAX_SLOTS = 16
# most candidate schedules (product of per-appliance placement counts) an
# instance may have; checked before any enumeration starts
GUARD_LIMIT = 10_000_000


@dataclass(frozen=True)
class SmallInstance:
    """A problem small enough for exhaustive search."""

    context: ProblemContext
    space: SearchSpace = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        space = SearchSpace(self.context)
        if len(space.flex) > MAX_FLEXIBLE:
            raise ValueError(
                f"instance has {len(space.flex)} flexible appliances, "
                f"limit is {MAX_FLEXIBLE}"
            )
        if self.context.grid.slot_count > MAX_SLOTS:
            raise ValueError(
                f"instance has {self.context.grid.slot_count} slots, limit is {MAX_SLOTS}"
            )
        object.__setattr__(self, "space", space)

    def placement_counts(self) -> list[int]:
        """Genes per flexible appliance, counted without listing them."""
        return [f.count for f in self.space.flex]

    def candidate_count(self) -> int:
        return math.prod(self.placement_counts())

    def check_guard(self) -> None:
        count = self.candidate_count()
        if count > GUARD_LIMIT:
            raise EnumerationGuardError(
                f"{count} candidate schedules exceed the guard limit {GUARD_LIMIT}",
                count=count,
                limit=GUARD_LIMIT,
            )


# candidates per chunk; chunks keep the costing kernel's working arrays,
# and so peak memory, small
_CHUNK = 256


class _Enumeration:
    """Every genotype of a space by index k: the k-th genotype of
    `itertools.product` over its appliances' `genes`."""

    def __init__(self, space: SearchSpace):
        self.space = space
        # row j of table i: the on-slots of appliance i's gene j
        self.tables = [np.array(space.genes(i), dtype=np.intp).reshape(-1, f.duration)
                       for i, f in enumerate(space.flex)]
        self.count = math.prod(len(table) for table in self.tables)

    def slot_rows(self, start: int, stop: int) -> np.ndarray:
        """The `slot_matrix` of genotypes start..stop-1."""
        rest = np.arange(start, stop)
        end = len(self.space.rate_weights)
        rows = np.empty((stop - start, end), dtype=np.intp)
        for table in reversed(self.tables):
            rest, digit = np.divmod(rest, len(table))
            rows[:, end - table.shape[1]:end] = table[digit]
            end -= table.shape[1]
        return rows

    def chunks(self) -> Iterator[tuple[np.ndarray, Loads]]:
        """(slot matrix, loads) of each run of `_CHUNK` genotypes, in
        order, as the optimizer's `SearchSpace.evaluate` reads a batch,
        so the oracle checks a candidate, and bills its energy, exactly as
        the optimizer does."""
        space = self.space
        for start in range(0, self.count, _CHUNK):
            rows = self.slot_rows(start, min(start + _CHUNK, self.count))
            yield rows, assess(space.context, space.gross_rows(rows))


@dataclass
class OracleResult:
    """Exact optimum of a small instance."""

    schedule: Schedule
    breakdown: CostBreakdown
    ties: list[Antibody] = field(default_factory=list)
    feasible_count: int = 0

    @property
    def total_usd(self) -> float:
        return self.breakdown.total_usd


class _Best:
    """Running minimum under the optimizer's incumbent rule, and the
    genotypes whose totals tie with it."""

    __slots__ = ("key", "ties")

    def __init__(self) -> None:
        self.key = _NO_INCUMBENT  # (total, shift_slots, genotype)
        self.ties: list[Antibody] = []

    def offer(self, key: tuple[float, int, Antibody]) -> None:
        diff = key[0] - self.key[0]
        if diff < -TIE_TOL:
            self.ties = []
        if diff <= TIE_TOL:
            self.ties.append(key[2])
        if _better_incumbent(key, self.key):
            self.key = key


def _offer_chunk(
    best: _Best, approx: np.ndarray, margin: np.ndarray,
    exact: Callable[[int], float], shift: np.ndarray, rows: np.ndarray,
    pack: Callable[[np.ndarray], list[Antibody]],
) -> None:
    """Offer `best` a chunk of feasible candidates in order, as offering
    each at its exact total in turn would.  The chunk is given as its
    approximate totals, each within its `margin` of the exact one; `exact`,
    the exact total of row j; its shift slots; and its slot rows, which
    `pack` turns into genotypes.

    `offer` ignores a candidate whose total exceeds the best's by more
    than TIE_TOL.  A row whose approximate total exceeds it by more than
    TIE_TOL plus its margin cannot pass that test, so only the others are
    priced exactly, and just those that pass `offer`'s own subtraction at
    their exact total are packed and offered.  Whenever the best's total
    moves (down on a lower total, or up on an accepted near-tie) the rows
    after the move are tested again against the new total.
    """
    pos = 0
    while pos < len(approx):
        threshold = best.key[0]
        hits = pos + np.flatnonzero(approx[pos:] - threshold <= TIE_TOL + margin[pos:])
        pos = len(approx)
        for j in hits.tolist():
            total = exact(j)
            if total - threshold > TIE_TOL:
                continue
            best.offer((total, shift[j].item(), pack(rows[j:j + 1])[0]))
            if best.key[0] != threshold:
                pos = j + 1
                break


# Every row of a chunk is priced with one matrix product, whose energy is
# within 2γ_{n+1}·hours·S of the row's `ddot` energy, and `costing.
# energy_margin` is twice that (see the proof above `costing.ULP_SLACK`:
# u = 2^-53, n the slot count, S = |billed| . |price|).  The penalty term
# is the same on both sides and its addition rounds once more on each, so
# the exact total T and the approximate total A differ by
#     W <= 2γ_{n+1}·hours·S + u·(|T| + |A|)
#       ~= (n + 1)·2^-52·hours·S + 2^-52·|A|.
# The margin is
#     M = (n + 1)·2^-50·hours·S' + 2^-50·(|A| + TIE_TOL),
# S' the computed |billed| @ |price| (at least S·(1 - γ_n)): 4·W, up to a
# relative O(n·u) that also absorbs M's own roundings.  Its TIE_TOL term
# pays for the rounding of the two tests' subtractions.  If `offer` would
# take the row, fl(T - t) <= TIE_TOL against the threshold t; then
# T - t <= TIE_TOL·(1 + u), A - t <= TIE_TOL·(1 + u) + W, and
#     fl(A - t) <= (TIE_TOL·(1 + u) + W)·(1 + u)
#               <= (TIE_TOL + M)·(1 - u) <= fl(TIE_TOL + M),
# since M·(1 - u) > W·(1 + u) + 3·u·TIE_TOL.  So `_offer_chunk` prices
# exactly every row that sequential offering would take.
def _approx_energy(
    billed: np.ndarray, price: np.ndarray, hours: float
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's energy cost by one matrix product, and the energy part
    of its margin, `costing.energy_margin`."""
    magnitude = np.abs(billed) @ np.abs(price)
    return (billed @ price) * hours, energy_margin(magnitude, hours, len(price))


def sweep_penalties(
    instance: SmallInstance, penalties: Sequence[float]
) -> dict[float, OracleResult]:
    """Exact optimum for several penalty prices in a single enumeration.

    The billed energy cost of a candidate does not depend on the penalty
    price, so one pass suffices, and a candidate's exact energy is priced
    at most once, and only if some price's test needs it.
    """
    instance.check_guard()
    ctx = instance.context
    space = instance.space
    enumeration = _Enumeration(space)
    hours = ctx.grid.slot_hours
    price = ctx.price_array()
    bests = {pi: _Best() for pi in penalties}
    # one row of penalties and approximate totals per price
    prices = np.array(list(bests), dtype=float)[:, None]
    count = 0
    for rows, loads in enumeration.chunks():
        keep = np.flatnonzero(loads.feasible)
        count += len(keep)
        # a copy: its rows are C-contiguous, as `energy_cost` needs
        billed = loads.billed[keep]
        energy, energy_bound = _approx_energy(billed, price, hours)
        rows = rows[keep]
        _, shift, _, penalty_rows, approx_rows = space.charge(rows, energy, prices)
        priced: dict[int, np.float64] = {}

        def exact(j: int, penalty: np.ndarray) -> float:
            if j not in priced:
                priced[j] = energy_cost(billed[j:j + 1], price, hours)[0]
            return (priced[j] + penalty[j]).item()

        for best, penalty, approx in zip(bests.values(), penalty_rows, approx_rows):
            margin = energy_bound + ULP_SLACK * (np.abs(approx) + TIE_TOL)
            _offer_chunk(best, approx, margin, partial(exact, penalty=penalty),
                         shift, rows, space.pack)

    results: dict[float, OracleResult] = {}
    for pi, best in bests.items():
        if best.key is _NO_INCUMBENT:
            raise ValueError("no feasible schedule exists for the instance")
        schedule = space.decode(best.key[2])
        breakdown = total_cost(schedule, ctx.with_penalty(pi))
        results[pi] = OracleResult(
            schedule=schedule,
            breakdown=breakdown,
            ties=best.ties,
            feasible_count=count,
        )
    return results


def exhaustive_optimize(instance: SmallInstance) -> OracleResult:
    """Global minimum of the instance at its own penalty price."""
    pi = instance.context.penalty_price
    return sweep_penalties(instance, [pi])[pi]
