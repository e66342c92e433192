"""Clonal selection optimizer for the appliance scheduling problem.

An antibody (genotype) is one `bytes` row: the flexible appliances'
on-slots, chained in appliance order, each appliance's gene the ascending
on-slots inside its (effective) window.  A slot takes one byte, or two
big-endian bytes when the grid has more than 255 slots, so comparing two
genotypes orders them exactly as comparing their slot rows, or their
nested per-gene tuples, does; ties are broken by that order.  Bytes cache
their hash, so the score cache, the ranking sorts and the survivor set
never rehash a genotype.  `SearchSpace` owns the one pack/unpack pair,
and `key`/`genes_of` convert to and from the per-gene tuples.  Genes of
uninterruptible appliances are drawn and mutated as one contiguous run of
`duration` slots, genes of interruptible ones as any `duration` distinct
slots.  Duration, window, and contiguity therefore hold for every
antibody ever decoded; the demand cap and the voltage band are handled as
additive affinity penalties, weighted by ten times the original plan's
energy cost (at least 1), and the incumbent is only ever updated with
antibodies that satisfy them outright.

Evaluation is a pure function of the genotype and is cached keyed by the
genotype itself.  Each generation's new genotypes, its offspring and the
immigrants drawn right after them, are scored in one `SearchSpace.evaluate`
call, so a run of G generations makes G + 1 calls.  A batch is scored as
arrays, with the same arithmetic, in the same order, as scoring its
genotypes one by one: one `np.frombuffer` reads the batch's slot matrix, and
`SearchSpace.evaluate` returns the scores as columns (`Scores`), one row
per genotype.  Energy is one `ddot` per row, as a one-genotype
evaluation takes: a matrix product sums in another order and differs in
the last bit on some rows.  `SearchSpace._exact_energy` is the one place
that prices energy exactly; `_loads` computes everything else, and the
oracle shares it, pricing most of its candidates by one matrix product
with a proven error margin and running `_exact_energy` only on the rows
that can reach its optimum.  Per-slot power flows are cached on the problem
context keyed by (slot, gross load in whole watts) and solved at that
rounded load, so identical slot loads across antibodies reuse one solve and
no result depends on which antibody reached a key first.

Every random draw comes from `Draws`, a Python replay of the stream of
numpy's `Generator(PCG64(seed))`, without numpy's per-call overhead on
every gene.  Its one draw call, `integers(bounds)`, returns what the
`Generator`'s `integers(0, bounds)` does, for bounds below 2**32.  A
random antibody is one such call over the bounds `SearchSpace` lists
once: a run's start, and a slot set's Floyd picks and their dropped
shuffle.  `clone_and_hypermutate` breeds a generation in two passes over
the same stream: `_walk` reads `Draws`' block in local variables and makes
the gene tests, probes and first draws of every mutation in stream order,
stepping over each slot set's sample draws by counting them; `_breed`
then prices those counted draws and builds every child as arrays, with a
fixed number of numpy calls per generation.  Each flexible appliance is one
`Flexible` record, built once per `SearchSpace`: its rating, duration and
original plan, a run's start range or a slot set's window, its count of
legal genes, where its slots sit in the row, and the bound and rejection
threshold of a mutation's first draw.  Drawing, mutating, listing,
decoding and scoring a gene, and the oracle's count of candidates, all
read that record.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import accumulate, chain, combinations
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .constraints import KW_TOL, FeasibilityReport, is_feasible
from .costing import CostBreakdown, ProblemContext, total_cost
from .domain import Appliance, ApplianceClass, Schedule, effective_window, schedule_from_on_slots
from .errors import PowerFlowError

__all__ = [
    "Antibody",
    "CsaConfig",
    "Draws",
    "OptimResult",
    "Scores",
    "SearchSpace",
    "clone_counts",
    "clone_and_hypermutate",
    "optimize",
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
    rejection threshold.  `integers` walks the block in local variables,
    so a list of draws is one Python call; `clone_and_hypermutate` walks it
    the same way in its own loop, where a gene test reads a whole word as
    `Generator.random()` does, and reads the block's words as an array too
    (`_raw`).
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
                low = m & 0xFFFFFFFF
                # numpy redraws while low < (2**32 - bound) % bound, a threshold below bound
                if low >= bound or low >= (0x100000000 - bound) % bound:
                    break
            values.append(m >> 32)
        self._pos, self._half = pos, half
        return values


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


class _Loads(NamedTuple):
    """A batch's phenotypes before pricing: billed kW per slot (rows x
    slots) and every other column `Scores` is built from."""

    billed: np.ndarray
    md_excess: np.ndarray
    voltage_violation: np.ndarray
    flow_failed: np.ndarray
    shift_slots: np.ndarray
    weighted_shift: np.ndarray
    feasible: np.ndarray


class SearchSpace:
    """The genotypes of one problem context: their layout, and every way
    of drawing, mutating, listing, decoding and scoring them.

    `pack` turns a slot row (ints) into its genotype and `unpack` a
    genotype back into a list of ints: `bytes` and `list` with one byte
    per slot, a big-endian `struct` of unsigned shorts past 255 slots.
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
        self.pack: Callable[[Sequence[int]], Antibody]
        self.unpack: Callable[[Antibody], list[int]]
        if self.slot_count <= 0xFF:
            self._dtype = np.dtype(np.uint8)
            self.pack, self.unpack = bytes, list
        else:  # a `TimeGrid` has at most 0xFFFF slots
            self._dtype = np.dtype(">u2")
            layout = struct.Struct(f">{width}H")
            self.pack = lambda slots: layout.pack(*slots)
            self.unpack = lambda antibody: list(layout.unpack(antibody))
        self.baseline_gross = np.full(self.slot_count, baseline_kw)
        ratings = [f.rated_kw for f in self.flex]
        durations = [f.duration for f in self.flex]
        # rating repeated once per required on-slot, aligned with the
        # chained genes of a genotype
        self.rate_weights = np.repeat(ratings, durations)
        self._ratings = np.array(ratings)
        # the original genotype's slot row, and where each gene starts
        self._original = self.slot_matrix([self.original_antibody()])[0].astype(np.intp)
        self._gene_starts = np.array([f.offset for f in self.flex], dtype=np.intp)
        # what breeding reads of the gene that starts at each offset of the
        # slot row, one row per field _RUN.._WINDOW: a moved gene starts at
        # parent start * _RUN + _SHIFT + the value drawn, clipped to
        # [_LO, _HI], so a run steps from its parent's start and a one-slot
        # set is placed from lo
        self._gene_at = np.zeros((6, width), np.int64)
        for f in self.flex:
            self._gene_at[:, f.offset] = (
                (1, -f.reach, f.lo, f.hi, f.duration, 0) if f.window is None
                else (0, f.lo, f.lo, f.hi, f.duration, len(f.window)))
        # 0 .. the longest gene's duration - 1
        self._columns = np.arange(max(durations, default=0))
        # a random antibody's draw bounds, in stream order, and per gene
        # (lo, duration, floyd): a run draws its start - lo below its count
        # of starts (floyd -1); a slot set draws Floyd's picks j = floyd ..
        # floyd + duration - 1 below j + 1, then their shuffle, dropped
        self._draw_bounds: list[int] = []
        self._draw_genes: list[tuple[int, int, int]] = []
        for f in self.flex:
            if f.window is None:
                floyd = -1
                self._draw_bounds.append(f.count)
            else:
                floyd = len(f.window) - f.duration
                self._draw_bounds += [*range(floyd + 1, floyd + f.duration + 1),
                                      *range(f.duration, 1, -1)]
            self._draw_genes.append((f.lo, f.duration, floyd))
        self._price = context.price_array()
        self._pv = context.pv_array()

    def key(self, genes: Iterable[Sequence[int]]) -> Antibody:
        """The genotype of one on-slot gene per flexible appliance, in order."""
        return self.pack(list(chain.from_iterable(genes)))

    def genes_of(self, antibody: Antibody) -> tuple[tuple[int, ...], ...]:
        """A genotype's genes: one on-slot tuple per flexible appliance."""
        slots = self.unpack(antibody)
        return tuple(tuple(slots[f.offset:f.offset + f.duration]) for f in self.flex)

    def original_antibody(self) -> Antibody:
        return self.key(f.original for f in self.flex)

    def random_antibody(self, draws: Draws) -> Antibody:
        """A genotype drawn uniformly, gene by gene, in one `integers` call.

        A run's start is the `Generator`'s `integers(0, count)`; a slot
        set's slots are the set `choice(len(window), duration,
        replace=False)` returns, whose Floyd picks resolve here and whose
        shuffle is drawn and dropped.  That set is numpy's only when the
        window has at most 10,000 slots or duration <= len(window) // 50:
        past that, numpy shuffles the tail of a full permutation instead.
        """
        values = draws.integers(self._draw_bounds)
        slots: list[int] = []
        at = 0
        for lo, duration, floyd in self._draw_genes:
            if floyd < 0:
                start = lo + values[at]
                slots += range(start, start + duration)
                at += 1
                continue
            # a Floyd pick already taken becomes j, which never is
            picks: set[int] = set()
            for j in range(floyd, floyd + duration):
                pick = values[at]
                picks.add(j if pick in picks else pick)
                at += 1
            slots += sorted(p + lo for p in picks)
            at += duration - 1  # the shuffle's draws
        return self.pack(slots)

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

    def evaluate(self, antibodies: Sequence[Antibody], weight: float) -> Scores:
        """Scores of the genotypes, one row each, in order, with demand-cap
        and voltage violations weighted by `weight` in the score."""
        return self.evaluate_rows(self.slot_matrix(antibodies), weight)

    def evaluate_rows(self, slots: np.ndarray, weight: float) -> Scores:
        """`evaluate` for the genotypes of a `slot_matrix`."""
        ctx = self.context
        loads = self._loads(slots)
        energy = self._exact_energy(loads.billed)
        penalty = ctx.grid.slot_hours * ctx.penalty_price * loads.weighted_shift
        total = energy + penalty

        score = -total - weight * (loads.md_excess + loads.voltage_violation)
        score = np.where(loads.flow_failed, score - FLOW_FAILURE_PENALTY, score)

        return Scores(
            energy_usd=energy,
            penalty_usd=penalty,
            total_usd=total,
            md_excess=loads.md_excess,
            voltage_violation=loads.voltage_violation,
            flow_failed=loads.flow_failed,
            shift_slots=loads.shift_slots,
            weighted_shift=loads.weighted_shift,
            score=score,
            feasible=loads.feasible,
        )

    def _loads(self, slots: np.ndarray) -> _Loads:
        """Everything `evaluate_rows` scores a `slot_matrix` by, except the
        price of its billed energy."""
        ctx = self.context
        gross = self.gross_rows(slots)

        excess = gross - ctx.md_kw
        excess[excess <= KW_TOL] = 0.0
        md_excess = excess.sum(axis=1)

        loss, volt_violation, flow_failed = ctx.batch_flows(gross)
        billed = np.maximum(gross - self._pv, 0.0) + loss

        moved = np.abs(slots - self._original)
        shift_slots = moved.sum(axis=1)
        if self.flex:
            # per-gene displacement times rating; cumsum adds them left to
            # right, in appliance order, as a per-appliance loop would
            delta = np.add.reduceat(moved, self._gene_starts, axis=1)
            weighted = np.cumsum(delta * self._ratings, axis=1)[:, -1]
        else:  # reduceat takes no empty index
            weighted = np.zeros(len(slots))

        return _Loads(
            billed=billed,
            md_excess=md_excess,
            voltage_violation=volt_violation,
            flow_failed=flow_failed,
            shift_slots=shift_slots,
            weighted_shift=weighted,
            feasible=(md_excess == 0.0) & (volt_violation == 0.0) & ~flow_failed,
        )

    def _exact_energy(self, billed: np.ndarray) -> np.ndarray:
        """Energy cost of each row of billed kW, as a one-genotype evaluation
        prices it: one `ddot` per row.  `billed @ price` sums in another
        order and differs in the last bit on some rows.  Rows must be
        C-contiguous, as a strided row can take another BLAS path."""
        hours = self.context.grid.slot_hours
        return np.fromiter(map(self._price.dot, billed), float, len(billed)) * hours


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
    """Offspring of a ranked population (best first).

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

    Breeding is two passes over the same stream.  `_walk` reads `draws`'
    block in local variables and makes every draw but a slot set's two
    samples, whose 4k - 2 - [k == duration] bounded draws it steps over
    by counting 32-bit halves.  `_breed` then builds every child at once
    as arrays: it reads the counted halves from the blocks, prices them
    against their bounds, resolves Floyd's picks and writes each mutated
    gene into a copy of its parent's slot row.  When one of the counted
    draws would be rejected, which the walk cannot know without drawing
    it, `draws` is put back where it was and walked again, drawing those
    draws one by one.
    """
    counts = clone_counts(len(ranked))
    saved = draws._bits.state, draws._block, draws._pos, draws._half, draws._raw
    offspring = _breed(ranked, counts, space, _walk(ranked, counts, draws, space, False))
    if offspring is None:
        draws._bits.state, draws._block, draws._pos, draws._half, draws._raw = saved
        offspring = _breed(ranked, counts, space, _walk(ranked, counts, draws, space, True))
    return offspring


class _Walk(NamedTuple):
    """What `_walk` drew, for `_breed` to build the children from."""

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


def _walk(ranked: Sequence[Antibody], counts: list[int], draws: Draws,
          space: SearchSpace, exact: bool) -> _Walk:
    """Make a generation's gene tests, probes and first draws in stream
    order, and count (or, when `exact`, draw) each slot set's sample
    draws, with one `Draws.integers` call per set; leave `draws` where
    breeding leaves it.

    A slot set's sample draws follow its k draw, and no gene test's word
    comes between them: they are the next 4k - 2 - [k == duration]
    halves of the stream, starting with the one the k draw kept, if any.
    """
    n = len(ranked)
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


# above every slot and every count of window slots (both below 2**16):
# adding a set's index times it keeps the sets' slots apart in one sort
_KEY = 1 << 17


def _breed(ranked: Sequence[Antibody], counts: list[int], space: SearchSpace,
           walk: _Walk) -> list[Antibody] | None:
    """The children `walk` drew, packed; None when one of its counted
    sample draws is rejected, so that the walk must draw them one by one."""
    children = np.repeat(space.slot_matrix(ranked), counts, axis=0)
    slots = children.reshape(-1)
    if walk.moves:
        _move(slots, space, walk.moves)
    if any(walk.sets) and not _resample(slots, space, walk):
        return None
    if not space.width:
        return [b""] * len(children)
    return children.view(f"V{children.itemsize * space.width}").ravel().tolist()


def _move(slots: np.ndarray, space: SearchSpace, moves: list[int]) -> None:
    """Write each run, or one-slot set, that `moves` records into the
    flattened children `slots`."""
    records = np.fromiter(moves, np.int64, len(moves))
    at = records >> 16
    gene = space._gene_at[:, at % space.width]
    start = slots[at] * gene[_RUN] + gene[_SHIFT] + (records & 0xFFFF)
    start = np.minimum(np.maximum(start, gene[_LO]), gene[_HI])
    # past a gene's last slot, write its last slot again
    j = np.minimum(space._columns, gene[_DURATION, :, None] - 1)
    slots[at[:, None] + j] = start[:, None] + j


def _resample(slots: np.ndarray, space: SearchSpace, walk: _Walk) -> bool:
    """Write each slot set that `walk.sets` records into the flattened
    children `slots`; False, writing nothing, when one of the counted
    sample draws is rejected."""
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
    d, lo = gene[_DURATION], gene[_LO]
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
        return False
    picks >>= 32
    # Floyd, one pick at a time across all samples: a pick already taken
    # is replaced by its bound - 1, which never is
    starts = (np.cumsum(n) - n.ravel()).reshape(n.shape)
    taken = np.zeros(int(starts[1, -1] + n[1, -1]), bool)
    for j, rows in enumerate(drawing):
        pick = picks[:, :rows, j]
        np.copyto(pick, bounds[:, :rows, j] - 1, where=taken[starts[:, :rows] + pick])
        taken[starts[:, :rows] + pick] = True
    # each set's gene in the children, and its slots keyed apart by row;
    # the drop samples' flags open `taken`, in the same order
    dmax = int(d.max())
    cells = (at[:, None] + columns[:dmax])[columns[:dmax] < d[:, None]]
    keep = ~taken[:len(cells)]
    row_key = np.arange(len(k)) * _KEY
    keyed = slots[cells] + np.repeat(row_key, d)
    # a kept slot has slot - lo - (its rank among its row's kept slots)
    # free window slots below it
    held = d - k
    held_before = np.cumsum(held) - held
    free_below = (keyed - np.cumsum(keep) + np.repeat(held_before + 1 - lo, d))[keep]
    # the slot added for pick p is the p-th free one: lo + p + the kept
    # slots with at most p free slots below them
    added = picks[1]
    added += np.searchsorted(free_below, row_key[:, None] + added, "right")
    added += (row_key + lo - held_before)[:, None]
    genes = np.concatenate((keyed[keep], added[columns[:kmax] < k[:, None]]))
    genes.sort()
    slots[cells] = genes & (_KEY - 1)
    return True


# incumbent key of no candidate at all: every candidate beats it
_NO_INCUMBENT = (math.inf, 0, b"")


def _better_incumbent(cand: tuple, best: tuple) -> bool:
    """Whether incumbent key `cand` beats `best`, both (total, shift_slots,
    genotype): a lower total beyond TIE_TOL wins, otherwise the smaller
    (shift_slots, genotype)."""
    diff = cand[0] - best[0]
    if diff < -TIE_TOL:
        return True
    return diff <= TIE_TOL and cand[1:] < best[1:]


def optimize(context: ProblemContext, config: CsaConfig = CsaConfig()) -> OptimResult:
    """Search for the cheapest feasible schedule.

    The original schedule is always injected into generation 0, so when it
    is feasible the result never costs more than it.  Identical (context,
    config) pairs give identical results.

    Each generation makes one `SearchSpace.evaluate` call: its offspring
    and the immigrants that will replace the population's worst, drawn
    right after breeding, as selection draws nothing.  An immigrant's score
    row waits until it joins the population at the next generation, so
    `evaluations` and `history` count it there; the last generation's
    immigrants are scored but never counted.
    """
    space = SearchSpace(context)
    original = space.original_antibody()

    # total_cost, not space.evaluate: its energy differs in the last bit on some days (scenario_c)
    original_energy = total_cost(space.decode(original), context).energy_usd
    weight = max(1.0, 10.0 * original_energy)
    # every distinct genotype scored so far: (score, total, shift_slots, feasible)
    scores: dict[Antibody, tuple[float, float, int, bool]] = {}

    def score(antibodies: Sequence[Antibody], immigrants: Sequence[Antibody] = ()) -> dict:
        """Score the genotypes not yet in `scores` into it, and the
        `immigrants` not yet scored with them, in one `evaluate` call;
        return the immigrants' rows, which `scores` takes when they join
        the population."""
        misses = dict.fromkeys(ab for ab in antibodies if ab not in scores)
        later = [ab for ab in dict.fromkeys(immigrants)
                 if ab not in scores and ab not in misses]
        if not misses and not later:
            return {}
        s = space.evaluate([*misses, *later], weight)
        rows = list(zip(s.score.tolist(), s.total_usd.tolist(), s.shift_slots.tolist(),
                        s.feasible.tolist()))
        scores.update(zip(misses, rows))
        return dict(zip(later, rows[len(misses):]))

    draws = Draws(config.rng_seed)
    n = config.population_size
    population = [original] + [space.random_antibody(draws) for _ in range(n - 1)]

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

    def record(generation: int) -> None:
        total = best_key[0] if best_key is not _NO_INCUMBENT else math.nan
        history.append((generation, total, len(scores)))

    score(population)
    scan(population)
    record(0)

    replace_count = int(round(REPLACEMENT_FRACTION * n))
    waiting: dict[Antibody, tuple[float, float, int, bool]] = {}
    for generation in range(1, config.generations + 1):
        # the last generation's immigrants have joined the population
        scores.update(waiting)
        population.sort(key=rank_key)
        offspring = clone_and_hypermutate(population, draws, space)
        # selection and the scan draw nothing, so these are the immigrants
        # drawn after selection, as CLONALG orders it
        immigrants = [space.random_antibody(draws) for _ in range(replace_count)]
        waiting = score(offspring, immigrants)
        pool = population + offspring
        pool.sort(key=rank_key)
        # survivors are distinct genotypes; clones of one incumbent would
        # otherwise crowd the population and stall the search
        population = []
        seen: set[Antibody] = set()
        for ab in pool:
            if ab not in seen:
                seen.add(ab)
                population.append(ab)
                if len(population) == n:
                    break
        while len(population) < n:
            population.append(pool[0])
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
        evaluations=len(scores),
        seed=config.rng_seed,
        message=message,
    )
