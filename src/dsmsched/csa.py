"""Clonal selection optimizer for the appliance scheduling problem.

An antibody (genotype) is one `bytes` row: the flexible appliances'
on-slots, chained in appliance order, each appliance's gene the ascending
on-slots inside its (effective) window.  A slot takes one byte, or two
big-endian bytes when the grid has more than 255 slots, so comparing two
genotypes orders them exactly as comparing their slot rows, or their
nested per-gene tuples, does; ties are broken by that order.  Bytes cache
their hash, so the score cache, the ranking sorts and the survivor set
never rehash a genotype.  `SearchSpace.pack` is the one encoder, a slot
matrix to its genotypes by one view, and `SearchSpace.slot_matrix` the one
decoder; `key` and `genes_of` convert the per-gene tuples through them.
Genes of uninterruptible appliances are drawn and mutated as one contiguous
run of `duration` slots, genes of interruptible ones as any `duration`
distinct slots.  Duration, window, and contiguity therefore hold for every
antibody ever decoded; the demand cap and the voltage band are handled as
additive affinity penalties, weighted by ten times the original plan's
energy cost (at least 1), billed from its row of the first batch, and the
incumbent is only ever updated with antibodies that satisfy them outright.

Evaluation is a pure function of the genotype and is cached keyed by the
genotype itself.  Each generation's new genotypes, its offspring and the
immigrants drawn right after them, are scored in one `SearchSpace.evaluate`
call, so a run of G generations makes G + 1 calls.  Every row goes into
one score table at once; an immigrant counts as an evaluation only when it
joins the population, a generation later.  A batch is scored as arrays:
one `np.frombuffer` reads the batch's slot matrix, `price` sums its gross
load in `aggregate_power`'s order (`gross_rows`) and charges its shifts,
and the costing kernel (`assess`, `energy_cost`) bills and checks
it as `total_cost` and `is_feasible` do one schedule, so a genotype's
score and its reported total agree bit for bit.  `SearchSpace.evaluate`
returns the scores as columns (`Scores`), one row per genotype.  Per-slot
power flows are cached on the problem context keyed by (slot, gross load
in whole watts) and solved at that rounded load, so identical slot loads
across antibodies reuse one solve and no result depends on which antibody
reached a key first.  On a feeder, the offspring that provably can neither
survive selection nor take the incumbent are only bounded
(`SearchSpace.bounds`, flow-free), never scored: the incumbent side by a
margin no scan climbs past, the survivor side checked by one repair step
after selection, so the result is that of scoring every genotype.

Every random draw comes from `Draws`, a Python replay of the stream of
numpy's `Generator(PCG64(seed))`, without numpy's per-call overhead on
every gene.  Its draw call, `integers(bounds)`, returns what the
`Generator`'s `integers(0, bounds)` does, for bounds below 2**32;
`integers_array` returns the same as an array, in one numpy pass over the
32-bit halves those draws read, unless one of them is rejected.  A batch
of random antibodies, the first population or a generation's immigrants,
is one `integers_array` call over copies of the bounds `SearchSpace`
lists once: a run's start, and a slot set's Floyd picks and their dropped
shuffle; `random_antibodies` then builds every gene of the batch as
arrays.  Breeding is drawn once and applied per population.
`_draw_plan` draws a generation's hypermutation plan in two passes over
the same stream: `_walk` reads `Draws`' block in local variables and makes
the gene tests, probes and first draws of every mutation in stream order,
stepping over each slot set's sample draws by counting them; `_plan` then
prices those counted draws and resolves Floyd's picks as arrays.  `_breed`
applies a plan to a ranked population and builds every child as arrays,
with a fixed number of numpy calls per generation; `clone_and_hypermutate`
is the two in one call.  A plan, like a generation's immigrants, reads the
seed, the population size and the gene layout alone, never a parent, a
price or a score: so `optimize_penalties` draws a search once per seed,
at its first penalty price, and each later price replays what it drew
(`_Stream`).  Each flexible appliance is one
`Flexible` record, built once per `SearchSpace`: its rating, duration and
original plan, a run's start range or a slot set's window, its count of
legal genes, where its slots sit in the row, and the bound and rejection
threshold of a mutation's first draw.  Drawing, mutating, listing,
decoding and scoring a gene, and the oracle's count of candidates, all
read that record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain, combinations, compress, repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .constraints import FeasibilityReport, is_feasible
from .costing import (CostBreakdown, ProblemContext, assess, cap_excess, charge, energy_cost,
                      net_load, total_cost)
from .domain import Appliance, ApplianceClass, Schedule, effective_window, schedule_from_on_slots
from .errors import PowerFlowError

__all__ = [
    "Antibody",
    "CsaConfig",
    "Draws",
    "OptimResult",
    "Priced",
    "Scores",
    "SearchSpace",
    "clone_counts",
    "clone_and_hypermutate",
    "optimize",
    "optimize_penalties",
]

# score penalty for a genotype whose power flow diverges; large enough to
# rank such antibodies below anything that solves
FLOW_FAILURE_PENALTY = 1e6

# totals closer than this are treated as equal when picking the incumbent
TIE_TOL = 1e-9

# CLONALG's fixed rules (de Castro & Von Zuben, IEEE TEC 6(3), 2002): rank r
# of N gets round(N / r) clones, each gene of which mutates with probability
# HYPERMUTATION_SCALE * r / N; the worst REPLACEMENT_FRACTION of the
# population is replaced by random immigrants every generation
HYPERMUTATION_SCALE = 0.8
REPLACEMENT_FRACTION = 0.15

# raw PCG64 words `Draws` reads per numpy call
_BLOCK = 512

# rows of `SearchSpace._gene_at`
_RUN, _SHIFT, _LO, _HI, _DURATION, _WINDOW = range(6)


# genotype: the flexible appliances' ascending on-slots, chained in
# appliance order, one byte per slot (two, big-endian, past 255 slots)
Antibody = bytes


class Draws:
    """The draws of numpy's `Generator(PCG64(seed))`, replayed in Python.

    `integers(bounds)` returns and consumes exactly what
    `Generator.integers(0, bounds)` does, for bounds below 2**32.

    Raw PCG64 words are read `_BLOCK` at a time into a list read by index.
    A bounded draw takes the low 32-bit half of a word and keeps the high
    half (`-1` when none is kept) for the next one, as PCG64's
    `next_uint32` does, and applies Lemire's multiply-shift with numpy's
    rejection threshold (`_threshold`).  `integers` walks the block in local variables,
    so a list of draws is one Python call; `_walk` walks it
    the same way in its own loop, where a gene test reads a whole word as
    `Generator.random()` does, and reads the block's words as an array too
    (`_raw`).  `integers_array` takes the halves a list of draws reads as
    one array, prices them all at once, and tests them with `_rejected`;
    when one is rejected it puts the stream back (`_mark`, `_rewind`) and
    calls `integers`, so the rejection rule is written once.
    """

    def __init__(self, seed: int):
        self._bits = np.random.PCG64(seed)
        self._block: list[int] = []
        self._pos = _BLOCK  # next unread word; _BLOCK means read a new block
        self._half = -1  # kept high half of the last split word, or -1
        # the block `_refill` last read, and the same words as an array
        self._raw: tuple[list[int], np.ndarray] = (self._block, np.zeros(0, np.uint64))

    def _refill(self) -> list[int]:
        raw = self._bits.random_raw(_BLOCK)
        self._block = raw.tolist()
        self._raw = (self._block, raw)
        return self._block

    def integers(self, bounds: Iterable[int]) -> list[int]:
        """One int in [0, bound) per bound, in order: the list
        `Generator.integers(0, bounds)` returns, for bounds below 2**32.
        A bound of 1 draws nothing.  Bounds are Python ints: a numpy
        integer overflows the 64-bit product."""
        values: list[int] = []
        block, pos, half = self._block, self._pos, self._half
        for bound in bounds:
            if bound == 1:
                values.append(0)
                continue
            threshold = _threshold(bound)
            while True:
                if half >= 0:
                    low, half = half, -1
                else:
                    if pos == _BLOCK:
                        block, pos = self._refill(), 0
                    word = block[pos]
                    pos += 1
                    low, half = word & 0xFFFFFFFF, word >> 32
                m = low * bound
                if m & 0xFFFFFFFF >= threshold:
                    break
            values.append(m >> 32)
        self._pos, self._half = pos, half
        return values

    def integers_array(self, bounds: np.ndarray) -> np.ndarray:
        """`integers(bounds)` for a uint64 array of bounds, as an int64
        array: one numpy pass over the halves the draws read, unless one of
        them is rejected, when the stream is put back and `integers` draws
        them one by one."""
        drawing = bounds > 1
        bounds = bounds[drawing]
        saved = self._mark()
        products = self._halves(len(bounds)) * bounds
        values = np.zeros(len(drawing), np.int64)
        if _rejected(products, bounds):
            self._rewind(saved)
            values[drawing] = self.integers(bounds.tolist())
        else:
            values[drawing] = products >> 32
        return values

    def _halves(self, count: int) -> np.ndarray:
        """The next `count` 32-bit halves of the stream as uint64: the kept
        half first, then each word's low half before its high one; a word
        whose low half is the last one read keeps its high half."""
        parts = []
        if count and self._half >= 0:
            parts.append(np.array([self._half], np.uint64))
            self._half = -1
            count -= 1
        while count:
            if self._pos == _BLOCK:
                self._refill()
                self._pos = 0
            listed, raw = self._raw
            if listed is not self._block:
                raw = np.array(self._block, np.uint64)
            words = raw[self._pos:self._pos + min(_BLOCK - self._pos, (count + 1) >> 1)]
            halves = words.astype("<u8", copy=False).view("<u4")[:count]
            if len(halves) < 2 * len(words):
                self._half = int(words[-1]) >> 32
            self._pos += len(words)
            count -= len(halves)
            parts.append(halves.astype(np.uint64))
        return np.concatenate(parts) if parts else np.zeros(0, np.uint64)

    def _mark(self) -> tuple:
        """Where the stream stands, for `_rewind` to put it back."""
        return self._bits.state, self._block, self._pos, self._half, self._raw

    def _rewind(self, mark: tuple) -> None:
        self._bits.state, self._block, self._pos, self._half, self._raw = mark


@dataclass(frozen=True)
class CsaConfig:
    population_size: int = 60
    generations: int = 400
    rng_seed: int = 0
    stall_generations: int = 60

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.stall_generations < 1:
            raise ValueError("stall_generations must be >= 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")


class Flexible(NamedTuple):
    """One flexible appliance's gene: everything drawing, mutating,
    listing, decoding and scoring it reads."""

    row: int
    rated_kw: float
    duration: int
    # the original plan's on-slots, ascending
    original: tuple[int, ...]
    # a run's start range, or a slot set's window
    lo: int
    hi: int
    # a run's start moves by at most this many slots per mutation
    reach: int
    # a slot set's window slots, ascending; None for a run
    window: list[int] | None
    # legal genes; with one only, mutation leaves the gene unchanged
    count: int
    # index of the gene's first slot in a genotype's slot row
    offset: int
    # what breeding reads of a mutation, as (bound, rejection threshold,
    # offset, duration): its first draw is a run's start step in
    # [0, 2 * reach], a slot set's k - 1 in [0, duration), or a one-slot
    # set's new slot in [0, len(window)); bound 1, and so every gene with
    # count 1, draws nothing; duration 0 for a gene that the first draw
    # alone moves, a run or a one-slot set
    mutation: tuple[int, int, int, int]


def _threshold(bound: int) -> int:
    """numpy's rejection threshold for a draw below `bound`: a 32-bit
    product whose low half is below it is redrawn."""
    return (0x100000000 - bound) % bound if bound > 1 else 0


def _flexible(row: int, a: Appliance, offset: int) -> Flexible:
    lo, hi = effective_window(a)
    duration = a.duration
    if a.appliance_class is ApplianceClass.UNINTERRUPTIBLE:
        hi -= duration - 1
        window, reach, count = None, max(1, (hi - lo) // 2), max(0, hi - lo + 1)
        bound, sampled = 2 * reach + 1, 0
    else:
        window = list(range(lo, hi + 1))
        reach, count = 0, math.comb(len(window), duration)
        # one slot: k is 1 without a draw, and the slot added is the draw
        bound = duration if duration > 1 else len(window)
        sampled = duration if duration > 1 else 0
    if count == 1:
        bound = 1
    return Flexible(row, a.rated_kw, duration, tuple(a.original_on_slots), lo, hi, reach,
                    window, count, offset, (bound, _threshold(bound), offset, sampled))


@dataclass(frozen=True, slots=True)
class Scores:
    """Scored phenotypes of a batch of genotypes: one array per field, one
    row per genotype, in the order they were given."""

    energy_usd: np.ndarray
    penalty_usd: np.ndarray
    total_usd: np.ndarray
    md_excess: np.ndarray
    voltage_violation: np.ndarray
    flow_failed: np.ndarray
    shift_slots: np.ndarray
    weighted_shift: np.ndarray
    score: np.ndarray
    # within the demand cap and the voltage band, with every flow solved
    feasible: np.ndarray


class Priced(NamedTuple):
    """What scoring a batch of genotypes reads before any flow: their
    slot rows, gross kW per slot, and shift charge, one row per genotype."""

    slots: np.ndarray
    gross: np.ndarray
    shift_slots: np.ndarray
    weighted: np.ndarray
    penalty: np.ndarray

    def take(self, rows: np.ndarray) -> Priced:
        """The batch of the genotypes at `rows`."""
        return Priced(*(field[rows] for field in self))


class SearchSpace:
    """The genotypes of one problem context: their layout, and every way
    of drawing, mutating, listing, decoding and scoring them.

    `pack` turns a slot matrix into its genotypes and `slot_matrix` turns
    genotypes back into one: a slot is one byte, or a big-endian unsigned
    short past 255 slots.
    """

    def __init__(self, context: ProblemContext):
        self.context = context
        grid = context.grid
        self.slot_count = grid.slot_count
        self.flex: list[Flexible] = []
        baseline_kw = 0.0
        width = 0
        for row, a in enumerate(context.appliances):
            if a.appliance_class is ApplianceClass.BASELINE:
                baseline_kw += a.rated_kw
            else:
                self.flex.append(_flexible(row, a, width))
                width += a.duration
        self.width = width
        # a `TimeGrid` has at most 0xFFFF slots
        self._dtype = np.dtype(np.uint8 if self.slot_count <= 0xFF else ">u2")
        self.baseline_gross = np.full(self.slot_count, baseline_kw)
        durations = [f.duration for f in self.flex]
        # what `charge` reads: the original genotype's slot row, each
        # slot's appliance row in the context, and every appliance's rating
        self._original = self.slot_matrix([self.original_antibody()])[0].astype(np.intp)
        self._owner = np.repeat(np.array([f.row for f in self.flex], np.intp), durations)
        self._ratings = np.array([a.rated_kw for a in context.appliances])
        # each slot's rating, aligned with the chained genes of a genotype
        self.rate_weights = self._ratings[self._owner]
        # what breeding reads of the gene that starts at each offset of the
        # slot row, one row per field _RUN.._WINDOW: a moved gene starts at
        # parent start * _RUN + _SHIFT + the value drawn, clipped to
        # [_LO, _HI], so a run steps from its parent's start and a one-slot
        # set is placed from lo; an empty gene, never moved, has no start
        self._gene_at = np.zeros((6, width), np.int64)
        for f in self.flex:
            if not f.duration:
                continue
            self._gene_at[:, f.offset] = (
                (1, -f.reach, f.lo, f.hi, f.duration, 0) if f.window is None
                else (0, f.lo, f.lo, f.hi, f.duration, len(f.window)))
        # 0 .. the longest gene's duration - 1
        self._columns = np.arange(max(durations, default=0))
        # a random antibody's draw bounds, in stream order: a run draws its
        # start - lo below its count of starts; a slot set of d slots in a
        # window of n draws Floyd's picks j = n - d .. n - 1 below j + 1,
        # then their shuffle, dropped
        bounds: list[int] = []
        # each run slot's index in the row, its run's draw, and its slot
        # less that draw: lo + its index in the run
        run_cells: list[int] = []
        run_draws: list[int] = []
        run_slots: list[int] = []
        # each slot set's slots in the row and its lo, per slot; per set,
        # its picks' draws and its first pick's j, n - d
        set_cells: list[int] = []
        set_lo: list[int] = []
        pick_draws: list[range] = []
        floyd: list[int] = []
        for f in self.flex:
            cells = range(f.offset, f.offset + f.duration)
            if f.window is None:
                run_cells += cells
                run_draws += [len(bounds)] * f.duration
                run_slots += range(f.lo, f.lo + f.duration)
                bounds.append(f.count)
                continue
            n = len(f.window)
            set_cells += cells
            set_lo += [f.lo] * f.duration
            pick_draws.append(range(len(bounds), len(bounds) + f.duration))
            floyd.append(n - f.duration)
            bounds += [*range(n - f.duration + 1, n + 1), *range(f.duration, 1, -1)]
        self._draw_bounds = np.array(bounds, np.uint64)
        self._run_cells = np.array(run_cells, np.intp)
        self._run_draws = np.array(run_draws, np.intp)
        self._run_slots = np.array(run_slots, np.int64)
        self._set_cells = np.array(set_cells, np.intp)
        self._set_lo = np.array(set_lo, np.int64)
        # the sets' picks as a (set x pick) matrix, padded to the longest
        # set; a padding cell in column c reads the row's first draw plus
        # (c + 1) << 32
        columns = np.arange(max(map(len, pick_draws), default=0))
        self._pick_live = columns < np.array([len(r) for r in pick_draws], np.intp)[:, None]
        self._pick_draws = np.zeros(self._pick_live.shape, np.intp)
        self._pick_draws[self._pick_live] = [*chain.from_iterable(pick_draws)]
        self._pick_pad = np.where(self._pick_live, 0, (columns + 1) << 32)
        self._pick_floyd = np.array(floyd, np.int64)[:, None] + columns
        self._price = context.price_array()

    def pack(self, rows: np.ndarray) -> list[Antibody]:
        """The genotypes of a slot matrix, one per row."""
        if not self.width:
            return [b""] * len(rows)
        rows = np.ascontiguousarray(rows, self._dtype)
        return rows.view(f"V{rows.itemsize * self.width}").ravel().tolist()

    def key(self, genes: Iterable[Sequence[int]]) -> Antibody:
        """The genotype of one on-slot gene per flexible appliance, in order."""
        return self.pack(np.array([[*chain.from_iterable(genes)]]))[0]

    def genes_of(self, antibody: Antibody) -> tuple[tuple[int, ...], ...]:
        """A genotype's genes: one on-slot tuple per flexible appliance."""
        slots = self.slot_matrix([antibody])[0].tolist()
        return tuple(tuple(slots[f.offset:f.offset + f.duration]) for f in self.flex)

    def original_antibody(self) -> Antibody:
        return self.key(f.original for f in self.flex)

    def random_antibody(self, draws: Draws) -> Antibody:
        """One genotype drawn as `random_antibodies` draws it."""
        return self.random_antibodies(draws, 1)[0]

    def random_antibodies(self, draws: Draws, count: int) -> list[Antibody]:
        """`count` genotypes drawn uniformly, gene by gene, one after
        another, in one `Draws.integers_array` call.

        A run's start is the `Generator`'s `integers(0, starts)`; a slot
        set's slots are the set `choice(len(window), duration,
        replace=False)` returns, whose Floyd picks resolve here and whose
        shuffle is drawn and dropped.  That set is numpy's only when the
        window has at most 10,000 slots or duration <= len(window) // 50:
        past that, numpy shuffles the tail of a full permutation instead.
        Every gene is built as arrays, with a fixed number of numpy calls.
        """
        values = draws.integers_array(np.tile(self._draw_bounds, count))
        values = values.reshape(count, len(self._draw_bounds))
        rows = np.empty((count, self.width), np.int64)
        rows[:, self._run_cells] = values[:, self._run_draws] + self._run_slots
        # Floyd, one pick column c at a time across every genotype's sets:
        # a pick taken before in its set becomes its j = n - d + c, which
        # never is.  A padding cell is above every pick and unlike every
        # other cell of its set, so it is never taken and sorts last
        picks = values[:, self._pick_draws] + self._pick_pad
        for c in range(1, picks.shape[2]):
            pick = picks[:, :, c]
            taken = (picks[:, :, :c] == pick[:, :, None]).any(axis=2)
            np.copyto(pick, self._pick_floyd[:, c], where=taken)
        picks.sort(axis=2)
        rows[:, self._set_cells] = picks[:, self._pick_live] + self._set_lo
        return self.pack(rows)

    def genes(self, index: int) -> list[tuple[int, ...]]:
        """Every gene appliance `index` can take, lexicographic: each
        contiguous run if uninterruptible, else each on-slot tuple."""
        f = self.flex[index]
        if f.window is None:
            return [tuple(range(s, s + f.duration)) for s in range(f.lo, f.hi + 1)]
        return list(combinations(f.window, f.duration))

    def decode(self, antibody: Antibody) -> Schedule:
        """Full schedule for all appliances, baseline rows always on."""
        flex_slots = dict(zip((f.row for f in self.flex), self.genes_of(antibody)))
        on_slots: list[Sequence[int]] = []
        for row, a in enumerate(self.context.appliances):
            if row in flex_slots:
                on_slots.append(flex_slots[row])
            else:
                on_slots.append(range(1, self.slot_count + 1))
        return schedule_from_on_slots(on_slots, self.slot_count)

    def slot_matrix(self, antibodies: Sequence[Antibody]) -> np.ndarray:
        """The genotypes' slot rows, one row per genotype."""
        flat = np.frombuffer(b"".join(antibodies), self._dtype)
        return flat.reshape(len(antibodies), self.width)

    def gross_rows(self, slots: np.ndarray) -> np.ndarray:
        """Gross household kW per slot (rows x slots) for a `slot_matrix`."""
        rows = len(slots)
        width = self.slot_count + 1
        # one bincount over slot indices offset by row; each cell sums its
        # ratings in appliance order, as a per-row bincount would
        cells = slots + (np.arange(rows) * width)[:, None]
        moved = np.bincount(
            cells.ravel(), weights=np.tile(self.rate_weights, rows), minlength=rows * width
        ).reshape(rows, width)
        return self.baseline_gross + moved[:, 1:]

    def gross(self, antibody: Antibody) -> np.ndarray:
        """Gross household kW per slot for a genotype."""
        return self.gross_rows(self.slot_matrix([antibody]))[0]

    def price(self, slots: np.ndarray) -> Priced:
        """The flow-free part of scoring the genotypes of a `slot_matrix`:
        their gross load and their shift charge."""
        _, shift_slots, weighted, penalty, _ = self.charge(slots, 0.0, self.context.penalty_price)
        return Priced(slots, self.gross_rows(slots), shift_slots, weighted, penalty)

    def bounds(self, batch: Priced, weight: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flow-free bounds of a priced batch, as IEEE values: a ceiling
        on each row's score, a floor under its total, and whether it is
        over the demand cap.

        The cap excess and the penalty are exact from the gross load; the
        energy floor is `energy_cost` of the net load, which billed load
        never undercuts, so it is at most the billed energy (see
        `costing.energy_cost`).  Billed loss, band violation and a failed
        flow only lower a score, so leaving them out keeps the ceiling
        above it."""
        ctx = self.context
        _, md_excess = cap_excess(ctx, batch.gross)
        floor = energy_cost(net_load(ctx, batch.gross), self._price, ctx.grid.slot_hours)
        total = floor + batch.penalty
        return -total - weight * md_excess, total, md_excess > 0.0

    def evaluate(self, batch: Sequence[Antibody] | Priced, weight: float) -> Scores:
        """Scores of the genotypes, or of a `Priced` batch of them, one row
        each, in order, with demand-cap and voltage violations weighted by
        `weight` in the score."""
        if not isinstance(batch, Priced):
            batch = self.price(self.slot_matrix(batch))
        ctx = self.context
        loads = assess(ctx, batch.gross)
        energy = energy_cost(loads.billed, self._price, ctx.grid.slot_hours)
        # `charge`'s total
        total = energy + batch.penalty

        score = -total - weight * (loads.md_excess + loads.voltage_violation)
        score = np.where(loads.flow_failed, score - FLOW_FAILURE_PENALTY, score)

        return Scores(
            energy_usd=energy,
            penalty_usd=batch.penalty,
            total_usd=total,
            md_excess=loads.md_excess,
            voltage_violation=loads.voltage_violation,
            flow_failed=loads.flow_failed,
            shift_slots=batch.shift_slots,
            weighted_shift=batch.weighted,
            score=score,
            feasible=loads.feasible,
        )

    def charge(self, slots: np.ndarray, energy: np.ndarray,
               penalty_price: float | np.ndarray) -> tuple[np.ndarray, ...]:
        """`costing.charge` of a `slot_matrix` whose rows cost `energy`."""
        return charge(slots, self._original, self._owner, self._ratings, energy,
                      self.context.grid.slot_hours, penalty_price)


@dataclass
class OptimResult:
    """Outcome of one optimizer run.

    When no feasible antibody was ever seen, `success` is False and
    `schedule` holds the least-infeasible candidate for inspection.
    """

    success: bool
    schedule: Schedule
    breakdown: CostBreakdown | None
    feasibility: FeasibilityReport
    history: list[tuple[int, float, int]]
    evaluations: int
    seed: int
    message: str = ""


def clone_counts(n: int) -> list[int]:
    """Clones per rank 1..n of a population of n: round(n / rank)."""
    return [int(n / rank + 0.5) for rank in range(1, n + 1)]


def clone_and_hypermutate(
    ranked: Sequence[Antibody], draws: Draws, space: SearchSpace
) -> list[Antibody]:
    """Offspring of a ranked population (best first): the plan
    `_draw_plan` draws for its size, applied to it by `_breed`.

    Better ranks get more clones (`clone_counts`); worse ranks mutate
    harder (per-gene probability HYPERMUTATION_SCALE * rank / N).  Every
    offspring stays inside its appliance windows by construction.

    In the `Generator`'s calls: gene g of a clone mutates when its own
    `random()` draw is below the rank's probability; a clone with no such
    gene mutates one gene drawn with `integers(0, genes)`.  A run moves its
    start by a step drawn below `2 * reach + 1`, clamped to its range.  A
    slot set draws k - 1 below its duration, then drops k of its slots
    (`choice(duration, k, replace=False)`) and adds k of the window's other
    slots (`choice(len(window) - duration + k, k, replace=False)`); a
    one-slot set draws its new slot below `len(window)`.
    """
    return _breed(ranked, _draw_plan(len(ranked), draws, space), space)


class _Plan(NamedTuple):
    """A generation's hypermutation, as drawn: what `_breed` writes into
    the clones of a ranked population of the size it was drawn for.  It
    reads the stream, the population size and the gene layout alone, never
    a parent or a score.  Every field is an array of non-negative ints in
    the smallest dtype that holds them."""

    # one per run or one-slot set mutated: the index of the gene's first
    # slot in the flattened children, times 2**16, plus the value drawn
    moves: np.ndarray
    # one per slot set mutated: the index of its first slot in the
    # flattened children, and its k, the count of slots it drops and adds
    cells: np.ndarray
    k: np.ndarray
    # per slot set, its k resolved Floyd picks, chained in set order: the
    # positions in the gene of the slots dropped, and, for each slot
    # added, its rank among the window slots the gene keeps free
    drops: np.ndarray
    adds: np.ndarray


def _draw_plan(n: int, draws: Draws, space: SearchSpace) -> _Plan:
    """The hypermutation of a ranked population of `n`, drawn in two
    passes over the same stream.  `_walk` reads `draws`' block in local
    variables and makes every draw but a slot set's two samples, whose
    4k - 2 - [k == duration] bounded draws it steps over by counting 32-bit
    halves.  `_plan` then prices the counted halves against their bounds
    as arrays and resolves Floyd's picks.  When one of the counted draws
    would be rejected, which the walk cannot know without drawing it,
    `draws` is put back where it was and walked again, drawing those draws
    one by one."""
    counts = clone_counts(n)
    saved = draws._mark()
    plan = _plan(space, _walk(n, counts, draws, space, False))
    if plan is None:
        draws._rewind(saved)
        plan = _plan(space, _walk(n, counts, draws, space, True))
    return plan


class _Walk(NamedTuple):
    """What `_walk` drew, for `_plan` to price and resolve."""

    # one per run or one-slot set mutated: the index of the gene's first
    # slot in the flattened children, times 2**16, plus the value drawn
    moves: list[int]
    # per k, two per slot set mutated with that k: the index of the gene's
    # first slot in the flattened children, then that of its first
    # sample draw's half in `halves`
    sets: list[list[int]]
    # the 32-bit halves the sample draws read, in stream order; when
    # `exact`, a half per draw whose product with its bound gives its value
    halves: np.ndarray
    # whether the sample draws were drawn one by one, and so are accepted
    exact: bool


def _walk(n: int, counts: list[int], draws: Draws, space: SearchSpace, exact: bool) -> _Walk:
    """Make the gene tests, probes and first draws of a generation of a
    ranked population of `n` in stream order, and count (or, when `exact`,
    draw) each slot set's sample draws, with one `Draws.integers` call per
    set; leave `draws` where breeding leaves it.

    A slot set's sample draws follow its k draw, and no gene test's word
    comes between them: they are the next 4k - 2 - [k == duration]
    halves of the stream, starting with the one the k draw kept, if any.
    """
    flex = space.flex
    size = len(flex)
    width = space.width
    probe = (size, _threshold(size))
    block, pos, half = draws._block, draws._pos, draws._half
    listed, raw = draws._raw
    # the blocks this walk reads, and the index of `block`'s first word in them
    blocks = [raw if listed is block else np.array(block, np.uint64)]
    base = 0
    moves: list[int] = []
    sets: list[list[int]] = [[] for _ in range(len(space._columns) + 1)]
    drawn: list[int] = []
    row = 0  # the current child's first index in the flattened children
    for rank in range(1, n + 1):
        # random() < p exactly when word >> 11 < p * 2**53, and so when
        # word < ceil(p * 2**53) << 11
        cut = math.ceil(min(1.0, HYPERMUTATION_SCALE * rank / n) * 2.0**53) << 11
        for _ in range(counts[rank - 1]):
            genes, mutated = iter(flex), False
            while True:
                for f in genes:
                    if pos == _BLOCK:
                        base += len(block)
                        block, pos = draws._refill(), 0
                        blocks.append(draws._raw[1])
                    word = block[pos]
                    pos += 1
                    if word < cut:
                        bound, threshold, offset, duration = f.mutation
                        break
                else:
                    if mutated or not size:
                        break
                    # an identical clone is a wasted evaluation; probe a neighbor
                    f = None
                    bound, threshold = probe
                mutated = True
                # one bounded draw: the probed gene's index, then the gene's first
                while True:
                    value = 0
                    if bound > 1:
                        while True:
                            if half >= 0:
                                low, half = half, -1
                            else:
                                if pos == _BLOCK:
                                    base += len(block)
                                    block, pos = draws._refill(), 0
                                    blocks.append(draws._raw[1])
                                word = block[pos]
                                pos += 1
                                low, half = word & 0xFFFFFFFF, word >> 32
                            m = low * bound
                            if m & 0xFFFFFFFF >= threshold:
                                break
                        value = m >> 32
                    if f is not None:
                        break
                    f = flex[value]
                    bound, threshold, offset, duration = f.mutation
                if bound == 1:
                    continue
                if not duration:
                    moves.append((row + offset) << 16 | value)
                    continue
                k = value + 1
                bucket = sets[k]
                bucket.append(row + offset)
                if exact:
                    # draw them one by one, keeping for each a half whose
                    # product with the bound gives the value drawn; the
                    # blocks go unread in this mode
                    draws._block, draws._pos, draws._half = block, pos, half
                    bucket.append(len(drawn))
                    bounds = list(_sample_bounds(duration, len(f.window), k))
                    drawn += [-(-(value << 32) // bound)
                              for value, bound in zip(draws.integers(bounds), bounds)]
                    block, pos, half = draws._block, draws._pos, draws._half
                    continue
                # the half after the k draw's: a kept high half is that of
                # the word before `pos`
                at = 2 * (base + pos) - (half >= 0)
                bucket.append(at)
                at += 4 * k - 2 - (k == duration)
                # step to the word of half `at`; an odd one is a high half,
                # kept from a word whose low half was read
                pos = (at >> 1) - base
                while pos >= _BLOCK + 1 - (at & 1):
                    base += len(block)
                    block, pos = draws._refill(), pos - _BLOCK
                    blocks.append(draws._raw[1])
                if at & 1:
                    half = block[pos] >> 32
                    pos += 1
                else:
                    half = -1
            row += width
    draws._block, draws._pos, draws._half = block, pos, half
    if exact:
        halves = np.array(drawn, np.uint32)
    else:
        words = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        # halves in stream order: the low one of each word first
        halves = words.astype("<u8", copy=False).view("<u4")
    return _Walk(moves, sets, halves, exact)


def _sample_bounds(duration: int, window: int, k: int) -> Iterable[int]:
    """The bounds of a slot set's sample draws, in stream order: Floyd's
    drop picks (the one below 1, when k == duration, draws nothing), the
    dropped shuffle of k, Floyd's add picks, the dropped shuffle of k."""
    first = duration - k + 1 + (k == duration)
    add = window - duration
    return chain(range(first, duration + 1), range(k, 1, -1),
                 range(add + 1, add + k + 1), range(k, 1, -1))


def _rejected(products: np.ndarray, bounds: np.ndarray) -> bool:
    """Whether numpy rejects any of the draws whose products of a 32-bit
    half and its bound are `products`: those whose low 32 bits are below
    (2**32 - bound) % bound, a threshold below the bound."""
    low = products & 0xFFFFFFFF
    near = low < bounds
    if not near.any():
        return False
    bounds = np.broadcast_to(bounds, low.shape)[near]
    return bool((low[near] < (0x100000000 - bounds) % bounds).any())


def _compact(values: np.ndarray) -> np.ndarray:
    """Non-negative ints in the smallest unsigned dtype that holds them."""
    return values.astype(np.min_scalar_type(int(values.max()) if len(values) else 0))


# a plan's slot-set fields when it mutates no slot set
_NO_SETS = (np.zeros(0, np.uint8),) * 4


def _plan(space: SearchSpace, walk: _Walk) -> _Plan | None:
    """The plan `walk` drew; None when one of its counted sample draws is
    rejected, so that the walk must draw them one by one."""
    sets = _resolve_sets(space, walk) if any(walk.sets) else _NO_SETS
    if sets is None:
        return None
    return _Plan(_compact(np.fromiter(walk.moves, np.int64, len(walk.moves))), *sets)


def _resolve_sets(space: SearchSpace, walk: _Walk) -> tuple[np.ndarray, ...] | None:
    """The slot sets `walk.sets` records, as `_Plan`'s cells, k, drops and
    adds: each sample's halves priced against their bounds and Floyd's
    picks resolved; None when one of the counted sample draws is rejected."""
    columns = space._columns
    per_k = [len(bucket) >> 1 for bucket in walk.sets]
    kmax = max(k for k, count in enumerate(per_k) if count)
    descending = per_k[kmax:0:-1]
    # the records run from the largest k down, so the sets that draw pick
    # j, those with k > j, are the first drawing[j]
    drawing = list(accumulate(descending))[::-1]
    records = np.fromiter(chain.from_iterable(walk.sets[kmax:0:-1]), np.int64,
                          2 * drawing[0])
    at, first = records[0::2], records[1::2]
    k = np.repeat(np.arange(kmax, 0, -1), descending)
    gene = space._gene_at[:, at % space.width]
    d = gene[_DURATION]
    # rows: the slots dropped, then the window slots added.  Floyd's pick
    # j of `sample(n, k)` is below n - k + 1 + j; when k == n the first is
    # below 1, draws nothing and reads the half before, which it maps to 0
    n = np.array((d, gene[_WINDOW] - d + k))
    full = k == d
    drops = k - full
    last = (k - 1)[:, None]
    floyd = np.minimum(columns[:kmax], last)  # past a set's last pick, its last again
    bounds = (n - k + 1)[:, :, None] + floyd
    picks = walk.halves[np.array((first - full, first + drops + k - 1))[:, :, None] + floyd]
    picks = picks * bounds
    # the shuffles' draws, below k down to 2, matter only when rejected; a
    # shuffle of one pick draws nothing, and reads one of Floyd's halves
    # at bound 2, which rejects nothing
    shuffle = np.minimum(np.maximum(columns[:kmax], 1), last)
    shuffle_bounds = (k + 1)[:, None] - shuffle
    shuffles = walk.halves[np.array((first + drops - 1, first + drops + 2 * k - 2))[:, :, None]
                           + shuffle] * shuffle_bounds
    if not walk.exact and (_rejected(picks, bounds) or _rejected(shuffles, shuffle_bounds)):
        return None
    picks >>= 32
    # Floyd, one pick at a time across all samples: a pick already taken
    # is replaced by its bound - 1, which never is
    starts = (np.cumsum(n) - n.ravel()).reshape(n.shape)
    taken = np.zeros(int(starts[1, -1] + n[1, -1]), bool)
    for j, rows in enumerate(drawing):
        pick = picks[:, :rows, j]
        np.copyto(pick, bounds[:, :rows, j] - 1, where=taken[starts[:, :rows] + pick])
        taken[starts[:, :rows] + pick] = True
    live = columns[:kmax] < k[:, None]
    return _compact(at), _compact(k), _compact(picks[0][live]), _compact(picks[1][live])


# above every slot and every count of window slots (both below 2**16):
# adding a set's index times it keeps the sets' slots apart in one sort
_KEY = 1 << 17


def _breed(ranked: Sequence[Antibody], plan: _Plan, space: SearchSpace) -> list[Antibody]:
    """The children `plan` draws for the ranked population, packed."""
    children = np.repeat(space.slot_matrix(ranked), clone_counts(len(ranked)), axis=0)
    slots = children.reshape(-1)
    if len(plan.moves):
        _move(slots, space, plan.moves.astype(np.int64))
    if len(plan.cells):
        _resample(slots, space, plan)
    return space.pack(children)


def _move(slots: np.ndarray, space: SearchSpace, records: np.ndarray) -> None:
    """Write each run, or one-slot set, that a plan's `moves` records into
    the flattened children `slots`."""
    at = records >> 16
    gene = space._gene_at[:, at % space.width]
    start = slots[at] * gene[_RUN] + gene[_SHIFT] + (records & 0xFFFF)
    start = np.minimum(np.maximum(start, gene[_LO]), gene[_HI])
    # past a gene's last slot, write its last slot again
    j = np.minimum(space._columns, gene[_DURATION, :, None] - 1)
    slots[at[:, None] + j] = start[:, None] + j


def _resample(slots: np.ndarray, space: SearchSpace, plan: _Plan) -> None:
    """Write each slot set that `plan` records into the flattened children
    `slots`: its kept slots and the window slots its picks add, sorted."""
    at, k = plan.cells.astype(np.intp), plan.k.astype(np.int64)
    gene = space._gene_at[:, at % space.width]
    d, lo = gene[_DURATION], gene[_LO]
    columns = space._columns[:int(d.max())]
    # each set's gene in the children, and its slots keyed apart by row
    cells = (at[:, None] + columns)[columns < d[:, None]]
    keep = np.ones(len(cells), bool)
    keep[np.repeat(np.cumsum(d) - d, k) + plan.drops] = False
    row_key = np.arange(len(k)) * _KEY
    keyed = slots[cells] + np.repeat(row_key, d)
    # a kept slot has slot - lo - (its rank among its row's kept slots)
    # free window slots below it
    held = d - k
    held_before = np.cumsum(held) - held
    free_below = (keyed - np.cumsum(keep) + np.repeat(held_before + 1 - lo, d))[keep]
    # the slot added for pick p is the p-th free one: lo + p + the kept
    # slots with at most p free slots below them
    added = plan.adds.astype(np.int64)
    added += np.searchsorted(free_below, np.repeat(row_key, k) + added, "right")
    added += np.repeat(row_key + lo - held_before, k)
    genes = np.concatenate((keyed[keep], added))
    genes.sort()
    slots[cells] = genes & (_KEY - 1)


# `optimize`'s row of a genotype not yet scored; like a bounded one's, it
# has no feasibility
_NO_ROW = (None, None, None, None)

# incumbent key of no candidate at all: every candidate beats it
_NO_INCUMBENT = (math.inf, 0, b"")


def _better_incumbent(cand: tuple, best: tuple) -> bool:
    """Whether incumbent key `cand` beats `best`, both (total, shift_slots,
    genotype): a lower total beyond TIE_TOL wins, otherwise the smaller
    (shift_slots, genotype), so k wins climb at most k * TIE_TOL."""
    diff = cand[0] - best[0]
    if diff < -TIE_TOL:
        return True
    return diff <= TIE_TOL and cand[1:] < best[1:]


def _predicted_floor(values: np.ndarray, n: int, gap: float) -> float:
    """The score below which an offspring's ceiling predicts that it will
    not survive selection: the n-th best distinct of `values`, less `gap`;
    -inf when there are fewer than n."""
    values = np.sort(values)
    # the last of each run of equal values; `np.unique` would import numpy.ma
    distinct = values[np.append(values[1:] != values[:-1], True)]
    return float(distinct[-n]) - gap if len(distinct) >= n else -math.inf


def _rows(s: Scores) -> list[tuple[float, float, int, bool]]:
    """`optimize`'s (score, total, shift_slots, feasible) row per genotype."""
    return list(zip(s.score.tolist(), s.total_usd.tolist(), s.shift_slots.tolist(),
                    s.feasible.tolist()))


def optimize(context: ProblemContext, config: CsaConfig = CsaConfig()) -> OptimResult:
    """Search for the cheapest feasible schedule at the context's penalty
    price: `optimize_penalties` of that one price.

    The original schedule is always injected into generation 0, so when it
    is feasible the result never costs more than it.  Identical (context,
    config) pairs give identical results.

    Each generation makes one `SearchSpace.evaluate` call: its offspring
    and the immigrants that will replace the population's worst, drawn
    right after breeding, as selection draws nothing.  An immigrant's score
    row goes into the score table at once, but `evaluations` and `history`
    count it only when it joins the population at the next generation; the
    last generation's immigrants are scored but never counted.

    On a feeder, an offspring that provably can neither survive selection
    nor take the incumbent is only bounded, never power-flowed: its
    flow-free ceiling (`SearchSpace.bounds`) is below a predicted survivor
    floor, and it is over the demand cap or its total floor is more than
    TIE_TOL * (len(pool) + 1) above the incumbent's total, past any total
    the scan can reach, as it takes at most one key per pool entry, each at
    most TIE_TOL above the last (`_better_incumbent`).  The bounded
    genotypes ranked before the pool's n-th distinct scored one are scored,
    in one more `evaluate` call, and selected again: scored, none ranks
    earlier and the new n-th no later, so every bounded one left ranks
    behind it.  The survivors, the incumbents, `history` and `evaluations`,
    which counts every distinct genotype scored or bounded, are therefore
    those of scoring every genotype.
    """
    price = context.penalty_price
    return optimize_penalties(context, [price], config)[price]


def optimize_penalties(context: ProblemContext, penalties: Iterable[float],
                       config: CsaConfig = CsaConfig()) -> dict[float, OptimResult]:
    """`optimize` at each penalty price, on `with_penalty` twins of the
    context, which share its flow cache: the search's counterpart of
    `oracle.sweep_penalties`.  Every price is checked before any search.

    The prices run one after another from one stream (`_Stream`).  What a
    search draws, its first population, and per generation its
    hypermutation plan and immigrants, reads the seed, the population size
    and the gene layout alone, never the price or a score: the first price
    draws it, and each later price replays it, drawing on from where it
    ends when it runs longer.  So each result is the one `optimize` gives
    its price alone, bit for bit.
    """
    contexts = {pi: context.with_penalty(pi) for pi in penalties}
    results: dict[float, OptimResult] = {}
    stream: _Stream | None = None
    for i, (pi, twin) in enumerate(contexts.items()):
        space = SearchSpace(twin)
        if stream is None:
            stream = _Stream(config, space)
        # keep what is drawn only while a later price will replay it
        stream.recording = i < len(contexts) - 1
        results[pi] = _optimize(space, config, stream)
    return results


class _Stream:
    """A search's draws, shared by the penalty prices of one seed: the
    first population's random antibodies, then per generation its
    hypermutation plan and its immigrants, drawn right after it.

    While `recording`, each generation drawn is kept for a later price to
    replay; a price that runs past the kept ones draws on from `draws`,
    which stands where the last one drawn left it.
    """

    def __init__(self, config: CsaConfig, space: SearchSpace):
        self.draws = Draws(config.rng_seed)
        self.size = config.population_size
        self.replace_count = int(round(REPLACEMENT_FRACTION * self.size))
        self.first = space.random_antibodies(self.draws, self.size - 1)
        self.kept: list[tuple[_Plan, list[Antibody]]] = []
        self.recording = False

    def generation(self, generation: int, space: SearchSpace) -> tuple[_Plan, list[Antibody]]:
        """Generation `generation`'s (from 1) plan and immigrants."""
        if generation <= len(self.kept):
            return self.kept[generation - 1]
        drawn = (_draw_plan(self.size, self.draws, space),
                 space.random_antibodies(self.draws, self.replace_count))
        if self.recording:
            self.kept.append(drawn)
        return drawn


def _optimize(space: SearchSpace, config: CsaConfig, stream: _Stream) -> OptimResult:
    """`optimize` of the space's context, drawing from `stream`."""
    context = space.context
    original = space.original_antibody()

    # every distinct genotype scored so far, (score, total, shift_slots,
    # feasible), or only bounded, (ceiling, None, None, None)
    scores: dict[Antibody, tuple] = {}
    # this generation's immigrants new to `scores`, not yet counted
    waiting = 0
    # without a feeder a flow costs nothing, and every genotype is scored
    bounding = context.feeder is not None

    n = config.population_size
    population = [original] + stream.first

    best_key = _NO_INCUMBENT  # (total, shift_slots, genotype), feasible only
    top: float | None = None  # best score ever, feasible or not
    top_antibody: Antibody | None = None
    history: list[tuple[int, float, int]] = []
    stall = 0

    def rank_key(ab: Antibody):
        return (-scores[ab][0], ab)

    def scan(candidates: Sequence[Antibody]) -> bool:
        """Update incumbents; report whether the best total improved."""
        nonlocal best_key, top, top_antibody
        improved = False
        for ab in candidates:
            sc, total, shift_slots, feasible = scores[ab]
            if top is None or sc > top:
                top, top_antibody = sc, ab
            key = (total, shift_slots, ab)
            if feasible and _better_incumbent(key, best_key):
                if total < best_key[0] - 1e-12:
                    improved = True
                best_key = key
        return improved

    def select(pool: list[Antibody]) -> tuple[list[Antibody], list[Antibody]]:
        """The first n distinct genotypes of a ranked pool, and the bounded
        ones ranked before its n-th distinct scored one."""
        survivors: list[Antibody] = []
        early: list[Antibody] = []
        seen: set[Antibody] = set()
        scored = 0
        for ab in pool:
            if ab in seen:
                continue
            seen.add(ab)
            if len(survivors) < n:
                survivors.append(ab)
            if scores[ab][3] is None:
                early.append(ab)
            else:
                scored += 1
                if scored == n:
                    break
        while len(survivors) < n:
            survivors.append(pool[0])
        return survivors, early

    def record(generation: int) -> None:
        total = best_key[0] if best_key is not _NO_INCUMBENT else math.nan
        history.append((generation, total, len(scores) - waiting))

    first = list(dict.fromkeys(population))
    batch = space.price(space.slot_matrix(first))
    # the original leads the first batch: ten times its energy, billed as
    # `evaluate` bills it, weighs the penalties
    energy = energy_cost(assess(context, batch.gross[:1]).billed, space._price,
                         context.grid.slot_hours)
    weight = max(1.0, 10.0 * energy.item())
    s = space.evaluate(batch, weight)
    scores.update(zip(first, _rows(s)))
    # the largest ceiling - score of the last offspring scored, or at
    # first of the first population
    gap = float((space.bounds(batch, weight)[0] - s.score).max()) if bounding else math.inf
    scan(population)
    record(0)

    replace_count = stream.replace_count
    for generation in range(1, config.generations + 1):
        # the last generation's immigrants have joined the population
        waiting = 0
        population.sort(key=rank_key)
        # selection and the scan draw nothing, so the immigrants drawn
        # right after the plan are those drawn after selection, as CLONALG
        # orders it
        plan, immigrants = stream.generation(generation, space)
        offspring = _breed(population, plan, space)

        # the distinct offspring without a score, each to its row in `batch`,
        # then the immigrants'
        fresh: dict[Antibody, int] = {}
        for ab in offspring:
            if ab not in fresh and scores.get(ab, _NO_ROW)[3] is None:
                fresh[ab] = len(fresh)
        later = [ab for ab in dict.fromkeys(immigrants)
                 if scores.get(ab, _NO_ROW)[3] is None and ab not in fresh]
        genotypes = [*fresh, *later]
        bred = len(fresh)
        skip = np.zeros(len(genotypes), bool)
        if genotypes:
            batch = space.price(space.slot_matrix(genotypes))
        pool = population + offspring
        if bounding and bred:
            ceiling, floor, over = space.bounds(batch, weight)
            values = np.concatenate(([scores[ab][0] for ab in population], ceiling[:bred]))
            cut = _predicted_floor(values, n, gap)
            # over the cap, or past any total the scan can reach
            apart = over[:bred] | (floor[:bred] - best_key[0] > TIE_TOL * (len(pool) + 1))
            skip[:bred] = (ceiling[:bred] < cut) & apart
            # an immigrant joins the population, so it is always scored
            skip[[fresh[ab] for ab in immigrants if ab in fresh]] = False
        keep = ~skip
        if keep.any():
            s = space.evaluate(batch.take(keep) if skip.any() else batch, weight)
            rows = _rows(s)
            bred_scored = len(rows) - len(later)
            scores.update(zip(compress(fresh, keep.tolist()), rows))
            waiting = sum(ab not in scores for ab in later)
            scores.update(zip(later, rows[bred_scored:]))
            # the scored offspring lead the rows
            if bounding and bred_scored:
                gap = float((ceiling[:bred][keep[:bred]] - s.score[:bred_scored]).max())
        if skip.any():
            unknown = repeat(None)
            scores.update(zip(compress(fresh, skip.tolist()),
                              zip(ceiling[skip].tolist(), unknown, unknown, unknown)))

        # survivors are distinct genotypes; clones of one incumbent would
        # otherwise crowd the population and stall the search
        pool.sort(key=rank_key)
        population, early = select(pool)
        if early:
            # scored, none ranks earlier: the second selection is final
            at = [fresh[ab] for ab in early]
            scores.update(zip(early, _rows(space.evaluate(batch.take(at), weight))))
            pool.sort(key=rank_key)
            population, _ = select(pool)
        improved = scan(pool)
        population[n - replace_count:] = immigrants
        record(generation)
        stall = 0 if improved else stall + 1
        if stall >= config.stall_generations:
            break

    found = best_key is not _NO_INCUMBENT
    schedule = space.decode(best_key[2] if found else top_antibody)
    try:
        breakdown = total_cost(schedule, context)
    except PowerFlowError:
        breakdown = None
    report = is_feasible(schedule, context)
    if not found:
        message = "no feasible antibody found; returning least-infeasible candidate"
    elif not report.feasible:
        message = "incumbent failed final feasibility check"
    else:
        message = ""
    return OptimResult(
        success=found and report.feasible,
        schedule=schedule,
        breakdown=breakdown,
        feasibility=report,
        history=history,
        evaluations=len(scores) - waiting,
        seed=config.rng_seed,
        message=message,
    )
