"""Brute-force optimizer for instances small enough to enumerate.

Serves as ground truth for the clonal-selection optimizer: it walks every
schedule that satisfies duration, window, and contiguity by construction,
filters the demand cap and (when a feeder is present) the voltage band,
and returns the exact minimum of the same cost function, with the
optimizer's own tie rule, `csa._better_incumbent` (smaller total shift,
then the lexicographically earliest genotype).  Candidates are the
optimizer's own genotypes: one on-slot tuple per flexible appliance, a
contiguous run for an uninterruptible one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .costing import CostBreakdown, ProblemContext, total_cost
from .csa import (
    _NO_INCUMBENT, TIE_TOL, Antibody, Evaluation, SearchSpace, _better_incumbent, _Evaluator,
    _Flex,
)
from .domain import Schedule
from .errors import EnumerationGuardError

__all__ = [
    "SmallInstance",
    "OracleResult",
    "enumerate_feasible",
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
        return [len(_placements(f)) for f in SearchSpace(self.context).flex]

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


# genotypes per call of the optimizer's evaluator; small chunks keep the
# evaluator's working arrays, and so peak memory, small
_CHUNK = 256


def _placements(f: _Flex) -> list[tuple[int, ...]]:
    """Every legal gene of one flexible appliance, lexicographic: each
    contiguous run if uninterruptible, else each on-slot tuple."""
    if f.uninterruptible:
        return [tuple(range(s, s + f.duration)) for s in range(f.start_lo, f.start_hi + 1)]
    return list(
        itertools.combinations(range(f.window_lo, f.window_hi + 1), f.duration)
    )


def _iter_candidates(
    instance: SmallInstance, space: SearchSpace
) -> Iterator[tuple[Antibody, Evaluation]]:
    """Every feasible genotype with its evaluation, in lexicographic order.

    Genotypes are scored in chunks by the optimizer's own evaluator, so the
    oracle prices and checks a candidate exactly as the optimizer does.
    """
    instance.check_guard()
    evaluator = _Evaluator(space, penalty_weight=0.0)
    genotypes = itertools.product(*(_placements(f) for f in space.flex))
    while chunk := list(itertools.islice(genotypes, _CHUNK)):
        for antibody, rec in zip(chunk, evaluator.evaluate(chunk)):
            if rec.feasible:
                yield antibody, rec


def enumerate_feasible(instance: SmallInstance) -> Iterator[Schedule]:
    """Every feasible schedule exactly once, as full Schedule objects."""
    space = SearchSpace(instance.context)
    for antibody, _ in _iter_candidates(instance, space):
        yield space.decode(antibody)


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
