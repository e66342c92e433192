"""Brute-force optimizer for instances small enough to enumerate.

Serves as ground truth for the clonal-selection optimizer: it walks every
schedule that satisfies duration, window, and contiguity by construction,
filters the demand cap and (when a feeder is present) the voltage band,
and returns the exact minimum of the same cost function, with the
optimizer's own tie rule, `csa._better_incumbent` (smaller total shift,
then the lexicographically earliest genotype).  Candidates are the
optimizer's own genotypes, listed and scored by its `SearchSpace`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .costing import CostBreakdown, ProblemContext, total_cost
from .csa import _NO_INCUMBENT, TIE_TOL, Antibody, Evaluation, SearchSpace, _better_incumbent
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

    def placement_counts(self) -> list[int]:
        space = SearchSpace(self.context)
        return [len(space.genes(i)) for i in range(len(space.flex))]

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


# genotypes per `SearchSpace.evaluate` call; small chunks keep its working
# arrays, and so peak memory, small
_CHUNK = 256


def _iter_candidates(
    instance: SmallInstance, space: SearchSpace
) -> Iterator[tuple[Antibody, Evaluation]]:
    """Every feasible genotype with its evaluation, in lexicographic order.

    Genotypes are scored in chunks by the optimizer's own `evaluate`, so the
    oracle prices and checks a candidate exactly as the optimizer does.
    """
    instance.check_guard()
    genotypes = itertools.product(*(space.genes(i) for i in range(len(space.flex))))
    while chunk := list(itertools.islice(genotypes, _CHUNK)):
        for antibody, rec in zip(chunk, space.evaluate(chunk, 0.0)):
            if rec.feasible:
                yield antibody, rec


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


def sweep_penalties(
    instance: SmallInstance, penalties: Sequence[float]
) -> dict[float, OracleResult]:
    """Exact optimum for several penalty prices in a single enumeration.

    The billed energy cost of a candidate does not depend on the penalty
    price, so one pass suffices.
    """
    ctx = instance.context
    space = SearchSpace(ctx)
    hours = ctx.grid.slot_hours
    bests = {pi: _Best() for pi in penalties}
    count = 0
    for antibody, rec in _iter_candidates(instance, space):
        count += 1
        for pi, best in bests.items():
            best.offer(
                (rec.energy_usd + hours * pi * rec.weighted_shift, rec.shift_slots, antibody))

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
