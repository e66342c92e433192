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
numpy's `Generator(PCG64(seed))`: the same genotypes as calling the
`Generator`, without numpy's per-call overhead on every gene.
`clone_and_hypermutate` builds each child in one pass over a copy of its
parent's slot row, reading `Draws`' block in local variables, with no call
per gene or per draw.  Each flexible appliance is one `Flexible` record,
built once per `SearchSpace`: its rating, duration and original plan, a
run's start range or a slot set's window, its count of legal genes, where
its slots sit in the row, and the bounds and rejection thresholds of every
draw a mutation of it makes.  Drawing, mutating, listing, decoding and
scoring a gene, and the oracle's count of candidates, all read that record.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import chain, combinations
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


# genotype: the flexible appliances' ascending on-slots, chained in
# appliance order, one byte per slot (two, big-endian, past 255 slots)
Antibody = bytes


class Draws:
    """The draws of numpy's `Generator(PCG64(seed))`, replayed in Python.

    `random()`, `below(n)` and `sample(n, k)` return and consume exactly
    what `Generator.random()`, `Generator.integers(0, n)` and the set of
    `Generator.choice(n, size=k, replace=False)` do, for n < 2**32 (choice
    also needs n <= 10000, where numpy uses Floyd's algorithm and then
    shuffles the k picks).

    Raw PCG64 words are read `_BLOCK` at a time into a list read by index.
    `random()` is a word's top 53 bits times 2**-53.  A bounded draw takes
    the low 32-bit half of a word and keeps the high half (`-1` when none
    is kept) for the next one, as PCG64's `next_uint32` does, and applies
    Lemire's multiply-shift with numpy's rejection threshold.  `below` and
    `sample` do this inline, and `sample` walks the block in local
    variables, so a run of draws is one Python call;
    `clone_and_hypermutate` walks it the same way in its own loop.
    """

    def __init__(self, seed: int):
        self._bits = np.random.PCG64(seed)
        self._block: list[int] = []
        self._pos = _BLOCK  # next unread word; _BLOCK means read a new block
        self._half = -1  # kept high half of the last split word, or -1

    def _refill(self) -> list[int]:
        self._block = self._bits.random_raw(_BLOCK).tolist()
        return self._block

    def random(self) -> float:
        """A float in [0, 1), as `Generator.random()`."""
        pos = self._pos
        if pos == _BLOCK:
            self._refill()
            pos = 0
        self._pos = pos + 1
        return (self._block[pos] >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        """An int in [0, n), as `Generator.integers(0, n)`; n == 1 draws nothing."""
        if n == 1:
            return 0
        half = self._half
        while True:
            if half >= 0:
                low, half = half, -1
            else:
                pos = self._pos
                if pos == _BLOCK:
                    self._refill()
                    pos = 0
                word = self._block[pos]
                self._pos = pos + 1
                low, half = word & 0xFFFFFFFF, word >> 32
            m = low * n
            low = m & 0xFFFFFFFF
            # numpy redraws while low < (2**32 - n) % n, a bound below n
            if low >= n or low >= (0x100000000 - n) % n:
                self._half = half
                return m >> 32

    def sample(self, n: int, k: int) -> set[int]:
        """k distinct ints in [0, n), the set `Generator.choice(n, k,
        replace=False)` returns; the shuffle of its picks is drawn and
        dropped."""
        picks: set[int] = set()
        first = n - k + 1
        if first == 1:  # below(1) draws nothing and picks 0
            picks.add(0)
            first = 2
        # i in first..n is Floyd's bound i; i in n+1..n+k-1 is the
        # shuffle's bound n+k+1-i, that is k down to 2
        mirror = n + k + 1
        block, pos, half = self._block, self._pos, self._half
        for i in range(first, mirror - 1):
            bound = i if i <= n else mirror - i
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
                if low >= bound or low >= (0x100000000 - bound) % bound:
                    break
            if i <= n:
                pick = m >> 32
                picks.add(i - 1 if pick in picks else pick)
        self._pos, self._half = pos, half
        return picks


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
    # a mutation's first draw as (bound, rejection threshold): a run's
    # start step in [0, 2 * reach], or a slot set's k - 1 in [0, duration);
    # bound 1, and so every gene with count 1, draws nothing
    first: tuple[int, int]
    # a slot set's other draws, per k - 1, as (bound, threshold, into):
    # those of `Draws.sample(duration, k)`, the genes it drops (into 1),
    # then of `Draws.sample(len(window) - duration + k, k)`, the slots it
    # adds (into 2); empty for a run
    plans: tuple[tuple[tuple[int, int, int], ...], ...]


def _threshold(bound: int) -> int:
    """numpy's rejection threshold for a draw below `bound`: a 32-bit
    product whose low half is below it is redrawn."""
    return (0x100000000 - bound) % bound if bound > 1 else 0


def _sample_plan(n: int, k: int, into: int) -> list[tuple[int, int, int]]:
    """The draws of `Draws.sample(n, k)` as (bound, threshold, into): each
    Floyd pick, kept in set `into`, then the shuffle's, dropped (into 0).
    Floyd's pick below 1 draws nothing and is not listed."""
    floyd = [(i, _threshold(i), into) for i in range(max(2, n - k + 1), n + 1)]
    return floyd + [(i, _threshold(i), 0) for i in range(k, 1, -1)]


def _flexible(row: int, a: Appliance, offset: int) -> Flexible:
    lo, hi = effective_window(a)
    duration = a.duration
    if a.appliance_class is ApplianceClass.UNINTERRUPTIBLE:
        hi -= duration - 1
        window, reach, count = None, max(1, (hi - lo) // 2), max(0, hi - lo + 1)
        bound, plans = 2 * reach + 1, ()
    else:
        window = list(range(lo, hi + 1))
        reach, count = 0, math.comb(len(window), duration)
        bound = duration
        plans = tuple(
            tuple(_sample_plan(duration, k, 1) + _sample_plan(len(window) - duration + k, k, 2))
            for k in range(1, duration + 1))
    if count == 1:
        bound = 1
    return Flexible(row, a.rated_kw, duration, tuple(a.original_on_slots), lo, hi, reach,
                    window, count, offset, (bound, _threshold(bound)), plans)


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
        slots: list[int] = []
        for f in self.flex:
            if f.window is None:
                start = f.lo + draws.below(f.count)
                slots.extend(range(start, start + f.duration))
            else:
                picks = draws.sample(len(f.window), f.duration)
                slots.extend(sorted(p + f.lo for p in picks))
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

    Each child is one pass over a copy of its parent's slot row, with
    `draws`' block, position and kept half in local variables.  Gene g
    mutates when its own `random()` draw is below the rank's probability;
    a child with no such gene mutates one gene drawn with `below(genes)`.
    A run moves its start by a step drawn below `2 * reach + 1`, clamped
    to its range.  A slot set draws k - 1 below its duration, then drops k
    of its slots (`sample(duration, k)`) and adds k of the window's other
    slots (`sample(len(window) - duration + k, k)`).  Every bound and
    threshold comes from the gene's `Flexible` record.
    """
    n = len(ranked)
    counts = clone_counts(n)
    flex = space.flex
    size = len(flex)
    pack, unpack = space.pack, space.unpack
    probe = (size, _threshold(size))
    block, pos, half = draws._block, draws._pos, draws._half
    offspring: list[Antibody] = []
    for rank, parent in enumerate(ranked, start=1):
        # random() < p exactly when word >> 11 < p * 2**53, and so when
        # word < ceil(p * 2**53) << 11
        cut = math.ceil(min(1.0, HYPERMUTATION_SCALE * rank / n) * 2.0**53) << 11
        slots = unpack(parent)
        for _ in range(counts[rank - 1]):
            child = slots.copy()
            g, mutated = 0, False
            while True:
                if g < size:
                    if pos == _BLOCK:
                        block, pos = draws._refill(), 0
                    word = block[pos]
                    pos += 1
                    g += 1
                    if word >= cut:
                        continue
                    f: Flexible | None = flex[g - 1]
                    bound, threshold = f.first
                elif mutated or not size:
                    break
                else:
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
                                    block, pos = draws._refill(), 0
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
                    bound, threshold = f.first
                if f.count == 1:
                    continue
                offset, duration = f.offset, f.duration
                if f.window is None:
                    start = child[offset] + value - f.reach
                    start = f.lo if start < f.lo else f.hi if start > f.hi else start
                    child[offset:offset + duration] = range(start, start + duration)
                    continue
                # k = value + 1; with k == duration, Floyd's first pick is
                # below 1 and draws nothing
                dropped = {0} if value == duration - 1 else set()
                added: set[int] = set()
                for bound, threshold, into in f.plans[value]:
                    while True:
                        if half >= 0:
                            low, half = half, -1
                        else:
                            if pos == _BLOCK:
                                block, pos = draws._refill(), 0
                            word = block[pos]
                            pos += 1
                            low, half = word & 0xFFFFFFFF, word >> 32
                        m = low * bound
                        if m & 0xFFFFFFFF >= threshold:
                            break
                    if into:
                        picks = dropped if into == 1 else added
                        pick = m >> 32
                        picks.add(bound - 1 if pick in picks else pick)
                kept = [s for j, s in enumerate(child[offset:offset + duration])
                        if j not in dropped]
                gene = kept.copy()
                for slot in added:
                    # the slot-th window slot not kept: step over the kept
                    # slots at or below it, in ascending order
                    slot += f.lo
                    for s in kept:
                        if s > slot:
                            break
                        slot += 1
                    gene.append(slot)
                gene.sort()
                child[offset:offset + duration] = gene
            offspring.append(pack(child))
    draws._block, draws._pos, draws._half = block, pos, half
    return offspring


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
