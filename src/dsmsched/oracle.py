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
varies fastest), so no Python object is built per candidate.  Gross load
and the shift charge are functions of each appliance's gene alone, so
each appliance has small gene tables, built once: each gene's kW per slot
and its shift slots and weighted shift, the latter from
`SearchSpace.charge` itself.  A chunk turns the mixed-radix digits of its
indices into gene numbers and adds up one table row per appliance in
context order, the summation order of `SearchSpace.gross_rows` and
`charge`, so its gross load and shift charge are theirs bit for bit, with
no slot matrix built.  `costing.assess` of that gross load gives the
chunk's feasibility and billed kW as columns, and `costing.energy_cost`
prices the feasible rows' energy, as the optimizer's own evaluation does;
each penalty price adds its penalties in `charge`'s order, so every total
is the exact total, with the same IEEE operations, in the same order, as
pricing one candidate at a time.  Only the candidates within TIE_TOL of
the running optimum at their turn can change it: just those have their
index decoded into the optimizer's genotype bytes and offered to it, so
the optimum, its ties and their order are exactly those of offering every
feasible candidate in turn.  The total reported, that of `total_cost`, is
the total the optimum was decided by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .costing import CostBreakdown, ProblemContext, assess, energy_cost, total_cost
from .csa import _NO_INCUMBENT, TIE_TOL, Antibody, SearchSpace, _better_incumbent
from .domain import Schedule
from .errors import EnumerationGuardError

__all__ = [
    "SmallInstance",
    "OracleResult",
    "exhaustive_optimize",
    "sweep_penalties",
]

# a chunk's working arrays are _CHUNK (512) rows x slots each, so the slot
# count bounds a chunk's memory
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
        if self.context.grid.slot_count > MAX_SLOTS:
            raise ValueError(
                f"instance has {self.context.grid.slot_count} slots, limit is {MAX_SLOTS}"
            )
        object.__setattr__(self, "space", SearchSpace(self.context))

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


# candidates per chunk.  A chunk's working arrays, `assess`'s handful of
# (candidates x slots) arrays, are dropped before the next chunk is built,
# so peak memory is one chunk's
_CHUNK = 512


class _Genes(NamedTuple):
    """One flexible appliance's genes, row j of each table its gene j in
    `SearchSpace.genes` order."""

    # (genes x duration): the on-slots
    slots: np.ndarray
    # (genes x slots): kW, the rating on the on-slots and 0.0 elsewhere
    kw: np.ndarray
    # the shift slots and rating-weighted shift `charge` finds of the gene,
    # with every other appliance at its original plan
    shift_slots: np.ndarray
    weighted: np.ndarray


class _Chunk(NamedTuple):
    """The feasible genotypes of a run of indices, as the optimizer's
    `SearchSpace.evaluate` scores them: their indices, energy cost, shift
    slots and weighted shift."""

    index: np.ndarray
    energy: np.ndarray
    shift_slots: np.ndarray
    weighted: np.ndarray


class _Enumeration:
    """Every genotype of a space by index k: the k-th genotype of
    `itertools.product` over its appliances' `genes`.  The mixed-radix
    digits of k (the last appliance's varies fastest) are its appliances'
    gene numbers."""

    def __init__(self, space: SearchSpace):
        self.space = space
        self.genes: list[_Genes] = []
        original = space.slot_matrix([space.original_antibody()]).astype(np.intp)
        for i, f in enumerate(space.flex):
            listed = space.genes(i)
            slots = np.array(listed, dtype=np.intp).reshape(len(listed), f.duration)
            kw = np.zeros((len(slots), space.slot_count))
            np.put_along_axis(kw, slots - 1, f.rated_kw, axis=1)
            # each gene with every other appliance at its original plan
            rows = original.repeat(len(slots), axis=0)
            rows[:, f.offset:f.offset + f.duration] = slots
            _, shift_slots, weighted, _, _ = space.charge(rows, 0.0, 0.0)
            # a copy: `charge`'s weighted shift is a column of a wider array
            self.genes.append(_Genes(slots, kw, shift_slots, weighted.copy()))
        self.count = math.prod(len(genes.slots) for genes in self.genes)

    def _digits(self, start: int, stop: int) -> list[np.ndarray]:
        """The gene numbers of genotypes start..stop-1, one array per
        appliance."""
        rest = np.arange(start, stop)
        digits = []
        for genes in reversed(self.genes):
            rest, digit = np.divmod(rest, len(genes.slots))
            digits.append(digit)
        return digits[::-1]

    def pack(self, index: np.ndarray) -> list[Antibody]:
        """The genotype of one index, in a list, as `_offer_chunk` packs a
        row: its gene numbers by integer `divmod`, one gene-table row per
        appliance."""
        (rest,) = index.tolist()
        row = np.empty((1, self.space.width), dtype=np.intp)
        for f, genes in zip(reversed(self.space.flex), reversed(self.genes)):
            rest, digit = divmod(rest, len(genes.slots))
            row[0, f.offset:f.offset + f.duration] = genes.slots[digit]
        return self.space.pack(row)

    def chunk(self, start: int) -> _Chunk:
        """The feasible genotypes among the `_CHUNK` from index `start` on,
        scored from the gene tables, with no slot matrix, bit for bit as
        `assess` over `SearchSpace.gross_rows` and `charge` score them."""
        stop = min(start + _CHUNK, self.count)
        digits = self._digits(start, stop)
        ctx = self.space.context
        # the gross load and `assess`'s arrays are dropped on return; only
        # the feasible rows' energy is kept
        loads = assess(ctx, self._gross(stop - start, digits))
        keep = np.flatnonzero(loads.feasible)
        energy = energy_cost(loads.billed[keep], ctx.price_array(), ctx.grid.slot_hours)
        shift_slots, weighted = self._shifts(len(keep), [digit[keep] for digit in digits])
        return _Chunk(start + keep, energy, shift_slots, weighted)

    def _gross(self, count: int, digits: list[np.ndarray]) -> np.ndarray:
        """Gross kW of `count` genotypes by their gene numbers: each
        appliance's kW row added from zero in context order, as
        `SearchSpace.gross_rows` adds ratings, then the baseline's kW
        (IEEE addition commutes)."""
        space = self.space
        gross = np.zeros((count, space.slot_count))
        for genes, digit in zip(self.genes, digits):
            gross += genes.kw.take(digit, axis=0)
        gross += space.baseline_gross
        return gross

    def _shifts(self, count: int, digits: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Shift slots and weighted shift of `count` genotypes by their gene
        numbers: each appliance's added from zero in context order, as
        `charge` adds the weighted shift."""
        shift_slots, weighted = np.zeros(count, np.intp), np.zeros(count)
        for genes, digit in zip(self.genes, digits):
            shift_slots += genes.shift_slots[digit]
            weighted += genes.weighted[digit]
        return shift_slots, weighted


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
    best: _Best, totals: np.ndarray, shift: np.ndarray, rows: np.ndarray,
    pack: Callable[[np.ndarray], list[Antibody]],
) -> None:
    """Offer `best` a chunk of feasible candidates in order, as offering
    each in turn would.  The chunk is given as its exact totals, its shift
    slots and its rows, which `pack` turns into genotypes.

    `offer` ignores a candidate whose total exceeds the best's by more
    than TIE_TOL, so only the others, found by `offer`'s own subtraction,
    are packed and offered.  Whenever the best's total moves (down on a
    lower total, or up on an accepted near-tie) the rows after the move
    are tested again against the new total.
    """
    pos = 0
    while pos < len(totals):
        threshold = best.key[0]
        hits = pos + np.flatnonzero(totals[pos:] - threshold <= TIE_TOL)
        pos = len(totals)
        for j in hits.tolist():
            best.offer((totals[j].item(), shift[j].item(), pack(rows[j:j + 1])[0]))
            if best.key[0] != threshold:
                pos = j + 1
                break


def _offer_feasible(bests: dict[float, _Best], chunk: _Chunk,
                    enumeration: _Enumeration) -> int:
    """Offer each price's best a chunk's candidates, in order; their count.
    The chunk's arrays die with this call, before the next chunk is built."""
    hours = enumeration.space.context.grid.slot_hours
    # `charge`'s penalties and totals, in its order of operations, one row
    # per price
    penalty_rows = hours * np.array(list(bests), dtype=float)[:, None] * chunk.weighted
    for best, totals in zip(bests.values(), chunk.energy + penalty_rows):
        _offer_chunk(best, totals, chunk.shift_slots, chunk.index, enumeration.pack)
    return len(chunk.index)


def sweep_penalties(
    instance: SmallInstance, penalties: Sequence[float]
) -> dict[float, OracleResult]:
    """Exact optimum for several penalty prices in a single enumeration.

    The billed energy cost of a candidate does not depend on the penalty
    price, so one pass suffices, pricing each feasible candidate's energy
    once.
    """
    instance.check_guard()
    ctx = instance.context
    space = instance.space
    enumeration = _Enumeration(space)
    bests = {pi: _Best() for pi in penalties}
    count = 0
    for start in range(0, enumeration.count, _CHUNK):
        count += _offer_feasible(bests, enumeration.chunk(start), enumeration)

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
