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
its indices, so no Python tuple is built per candidate.
`SearchSpace.evaluate_rows` scores the chunk as columns, the feasible mask
is applied with numpy, and each price's totals take the same IEEE
operations, in the same order, as pricing one candidate at a time.  Only
the candidates within TIE_TOL of the running optimum at their turn can
change it; just those are decoded to genotypes and offered to it, so the
optimum, its ties and their order are exactly those of offering every
feasible candidate in turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .costing import CostBreakdown, ProblemContext, total_cost
from .csa import _NO_INCUMBENT, TIE_TOL, Antibody, Scores, SearchSpace, _better_incumbent
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


# candidates per `SearchSpace.evaluate_rows` call; chunks keep its working
# arrays, and so peak memory, small
_CHUNK = 256


class _Enumeration:
    """Every genotype of a space by index k: the k-th genotype of
    `itertools.product` over its appliances' `genes`."""

    def __init__(self, space: SearchSpace):
        self.space = space
        self.genes = [space.genes(i) for i in range(len(space.flex))]
        # row j of table i: the on-slots of appliance i's gene j
        self.tables = [
            np.array(genes, dtype=np.intp).reshape(len(genes), f.duration)
            for genes, f in zip(self.genes, space.flex)
        ]
        self.count = math.prod(len(genes) for genes in self.genes)

    def genotype(self, k: int) -> Antibody:
        genes = []
        for options in reversed(self.genes):
            k, digit = divmod(k, len(options))
            genes.append(options[digit])
        return tuple(reversed(genes))

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

    def chunks(self) -> Iterator[tuple[int, Scores]]:
        """(first index, scores) of each run of `_CHUNK` genotypes, in
        order, scored by the optimizer's own `evaluate_rows`, so the oracle
        prices and checks a candidate exactly as the optimizer does."""
        for start in range(0, self.count, _CHUNK):
            stop = min(start + _CHUNK, self.count)
            yield start, self.space.evaluate_rows(self.slot_rows(start, stop), 0.0)


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
    best: _Best, total: np.ndarray, shift: np.ndarray, index: np.ndarray,
    genotype: Callable[[int], Antibody],
) -> None:
    """Offer `best` a chunk of feasible candidates in order, as offering
    each in turn would: their totals, shift slots and enumeration indices,
    which `genotype` decodes.

    `offer` ignores a candidate whose total exceeds the best's by more
    than TIE_TOL, so only the others are decoded and offered.  The test is
    `offer`'s own subtraction, and whenever the best's total moves (down
    on a lower total, or up on an accepted near-tie) the rows after the
    move are tested again against the new total.
    """
    pos = 0
    while pos < len(total):
        threshold = best.key[0]
        hits = pos + np.flatnonzero(total[pos:] - threshold <= TIE_TOL)
        pos = len(total)
        for j in hits.tolist():
            best.offer((total[j].item(), shift[j].item(), genotype(index[j].item())))
            if best.key[0] != threshold:
                pos = j + 1
                break


def sweep_penalties(
    instance: SmallInstance, penalties: Sequence[float]
) -> dict[float, OracleResult]:
    """Exact optimum for several penalty prices in a single enumeration.

    The billed energy cost of a candidate does not depend on the penalty
    price, so one pass suffices.
    """
    instance.check_guard()
    ctx = instance.context
    space = instance.space
    enumeration = _Enumeration(space)
    hours = ctx.grid.slot_hours
    bests = {pi: _Best() for pi in penalties}
    count = 0
    for start, scores in enumeration.chunks():
        keep = np.flatnonzero(scores.feasible)
        count += len(keep)
        energy, weighted = scores.energy_usd[keep], scores.weighted_shift[keep]
        shift, index = scores.shift_slots[keep], start + keep
        for pi, best in bests.items():
            _offer_chunk(best, energy + hours * pi * weighted, shift, index,
                         enumeration.genotype)

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
