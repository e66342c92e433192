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
chunk's feasibility and billed kW as columns, as the optimizer's own
evaluation does.  Only the candidates within TIE_TOL of the running
optimum at their turn can change it.  One matrix product prices every
feasible row's energy approximately, and each penalty price adds its
penalties to give its approximate totals, within a margin proven to cover
their distance from the exact totals (see `_approx_energy`).  Only rows
whose approximate total at some price comes within TIE_TOL plus that
margin of its running optimum are priced exactly, by the objective's one
`ddot` per row (`costing.energy_cost`), at most once per chunk across
prices.  Each such row is decided by its exact total, with the same IEEE
operations, in the same order, as pricing one candidate at a time; just
those that pass have their index decoded into the optimizer's genotype
bytes and offered to it, so the optimum, its ties and their order are
exactly those of offering every feasible candidate in turn.  The total
reported, that of `total_cost`, is the total the optimum was decided by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .costing import (ULP_SLACK, CostBreakdown, ProblemContext, assess, energy_cost, energy_margin,
                      total_cost)
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
    `SearchSpace.evaluate` scores them: their indices, billed kW, shift
    slots and weighted shift."""

    index: np.ndarray
    # a copy of `Loads.billed`'s rows: C-contiguous, as `energy_cost` needs
    billed: np.ndarray
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

    def slot_rows(self, start: int, stop: int) -> np.ndarray:
        """The `slot_matrix` of genotypes start..stop-1."""
        rows = np.empty((stop - start, self.space.width), dtype=np.intp)
        for f, genes, digit in zip(self.space.flex, self.genes, self._digits(start, stop)):
            rows[:, f.offset:f.offset + f.duration] = genes.slots[digit]
        return rows

    def pack(self, index: np.ndarray) -> list[Antibody]:
        """The genotype of one index, in a list, as `_offer_chunk` packs a row."""
        (k,) = index.tolist()
        return self.space.pack(self.slot_rows(k, k + 1))

    def chunk(self, start: int) -> _Chunk:
        """The feasible genotypes among the `_CHUNK` from index `start` on,
        scored from the gene tables, with no slot matrix, bit for bit as
        `assess` over `SearchSpace.gross_rows` and `charge` score them."""
        stop = min(start + _CHUNK, self.count)
        digits = self._digits(start, stop)
        # the gross load and `assess`'s arrays are dropped on return; only
        # the feasible rows' billed kW are kept
        loads = assess(self.space.context, self._gross(stop - start, digits))
        keep = np.flatnonzero(loads.feasible)
        shift_slots, weighted = self._shifts(len(keep), [digit[keep] for digit in digits])
        return _Chunk(start + keep, loads.billed[keep], shift_slots, weighted)

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


def _offer_feasible(bests: dict[float, _Best], chunk: _Chunk,
                    enumeration: _Enumeration) -> int:
    """Offer each price's best a chunk's candidates, in order; their count.
    The chunk's arrays die with this call, before the next chunk is built."""
    ctx = enumeration.space.context
    hours = ctx.grid.slot_hours
    price = ctx.price_array()
    billed = chunk.billed
    energy, energy_bound = _approx_energy(billed, price, hours)
    # `charge`'s penalties and totals, in its order of operations, one row
    # per price
    penalty_rows = hours * np.array(list(bests), dtype=float)[:, None] * chunk.weighted
    approx_rows = energy + penalty_rows
    priced: dict[int, np.float64] = {}

    def exact(j: int, penalty: np.ndarray) -> float:
        if j not in priced:
            priced[j] = energy_cost(billed[j:j + 1], price, hours)[0]
        return (priced[j] + penalty[j]).item()

    for best, penalty, approx in zip(bests.values(), penalty_rows, approx_rows):
        margin = energy_bound + ULP_SLACK * (np.abs(approx) + TIE_TOL)
        _offer_chunk(best, approx, margin, partial(exact, penalty=penalty),
                     chunk.shift_slots, chunk.index, enumeration.pack)
    return len(billed)


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
