"""Clonal selection optimizer for the appliance scheduling problem.

An antibody (genotype) is a tuple with one gene per flexible appliance, in
appliance order, and every gene is the ascending tuple of that appliance's
on-slots inside its (effective) window.  Genes of uninterruptible
appliances are drawn and mutated as one contiguous run of `duration`
slots, genes of interruptible ones as any `duration` distinct slots.
Duration, window, and contiguity therefore hold for every antibody ever
decoded; the demand cap and the voltage band are handled as additive
affinity penalties, weighted by ten times the original plan's energy cost
(at least 1), and the incumbent is only ever updated with antibodies
that satisfy them outright.  Every gene in one position has the same
length, so comparing two genotypes orders them exactly as comparing their
flat on-slot rows does; ties are broken by that order.

Evaluation is a pure function of the genotype and is cached keyed by the
genotype itself.  Each generation's new genotypes are scored together as
arrays, with the same arithmetic, in the same order, as scoring them one by
one, and `SearchSpace.evaluate` returns the scores as columns (`Scores`),
one row per genotype.  Energy is one `ddot` per row, as a one-genotype
evaluation takes: a matrix product sums in another order and differs in
the last bit on some rows.  Per-slot power flows are cached on the problem
context keyed by (slot, gross load in whole watts) and solved at that
rounded load, so identical slot loads across antibodies reuse one solve and
no result depends on which antibody reached a key first.

Every random draw comes from `Draws`, a Python replay of the stream of
numpy's `Generator(PCG64(seed))`: the same genotypes as calling the
`Generator`, without numpy's per-call overhead on every gene.
Hypermutation makes no call for a gene that keeps its value: `Draws.skip`
consumes the draws of the genes between two mutating ones.  Each flexible
appliance is one `Flexible` record, built once per `SearchSpace`: its
rating, duration and original plan, a run's start range or a slot set's
window, and its count of legal genes.  Drawing, mutating, listing,
decoding and scoring a gene, and the oracle's count of candidates, all
read that record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations
from typing import NamedTuple, Sequence

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


# genotype: one ascending on-slot tuple per flexible appliance, in order
Antibody = tuple[tuple[int, ...], ...]


class Draws:
    """The draws of numpy's `Generator(PCG64(seed))`, replayed in Python.

    `random()`, `below(n)` and `sample(n, k)` return and consume exactly
    what `Generator.random()`, `Generator.integers(0, n)` and the set of
    `Generator.choice(n, size=k, replace=False)` do, for n < 2**32 (choice
    also needs n <= 10000, where numpy uses Floyd's algorithm and then
    shuffles the k picks).  `skip(limit, p)` consumes `random()` draws up
    to the first one below p and counts those that were not.

    Raw PCG64 words are read `_BLOCK` at a time into a list read by index.
    `random()` is a word's top 53 bits times 2**-53.  A bounded draw takes
    the low 32-bit half of a word and keeps the high half (`-1` when none
    is kept) for the next one, as PCG64's `next_uint32` does, and applies
    Lemire's multiply-shift with numpy's rejection threshold.  `below` and
    `sample` do this inline, and `sample` and `skip` walk the block in
    local variables, so a run of draws is one Python call.
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

    def skip(self, limit: int, p: float) -> int:
        """Consume `random()` draws until one is below p, or `limit` draws;
        return how many were not below p."""
        # random() < p exactly when word >> 11 < p * 2**53, and so when
        # word < ceil(p * 2**53) << 11
        cut = math.ceil(p * 2.0**53) << 11
        block, pos = self._block, self._pos
        count = 0
        while count < limit:
            if pos == _BLOCK:
                block, pos = self._refill(), 0
            word = block[pos]
            pos += 1
            if word < cut:
                break
            count += 1
        self._pos = pos
        return count


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
    # legal genes; with one only, mutation returns the gene unchanged
    count: int


def _flexible(row: int, a: Appliance) -> Flexible:
    lo, hi = effective_window(a)
    if a.appliance_class is ApplianceClass.UNINTERRUPTIBLE:
        hi -= a.duration - 1
        window, reach, count = None, max(1, (hi - lo) // 2), max(0, hi - lo + 1)
    else:
        window = list(range(lo, hi + 1))
        reach, count = 0, math.comb(len(window), a.duration)
    return Flexible(row, a.rated_kw, a.duration, tuple(a.original_on_slots),
                    lo, hi, reach, window, count)


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


class SearchSpace:
    """The genotypes of one problem context: their layout, and every way
    of drawing, mutating, listing, decoding and scoring them."""

    def __init__(self, context: ProblemContext):
        self.context = context
        grid = context.grid
        self.slot_count = grid.slot_count
        self.flex: list[Flexible] = []
        baseline_kw = 0.0
        for row, a in enumerate(context.appliances):
            if a.appliance_class is ApplianceClass.BASELINE:
                baseline_kw += a.rated_kw
            else:
                self.flex.append(_flexible(row, a))
        self.baseline_gross = np.full(self.slot_count, baseline_kw)
        ratings = [f.rated_kw for f in self.flex]
        durations = [f.duration for f in self.flex]
        # rating repeated once per required on-slot, aligned with the
        # chained genes of a genotype
        self.rate_weights = np.repeat(ratings, durations)
        self._ratings = np.array(ratings)
        # the original genotype's chained genes, and where each gene starts
        self._original = np.fromiter(chain.from_iterable(self.original_antibody()), np.intp)
        self._gene_starts = np.cumsum([0] + durations[:-1])
        self._price = context.price_array()
        self._pv = context.pv_array()

    def original_antibody(self) -> Antibody:
        return tuple(f.original for f in self.flex)

    def random_antibody(self, draws: Draws) -> Antibody:
        genes = []
        for _, _, duration, _, lo, _, _, window, count in self.flex:
            if window is None:
                start = lo + draws.below(count)
                genes.append(tuple(range(start, start + duration)))
            else:
                picks = draws.sample(len(window), duration)
                genes.append(tuple(sorted(p + lo for p in picks)))
        return tuple(genes)

    def mutate_gene(self, index: int, gene: tuple[int, ...], draws: Draws) -> tuple[int, ...]:
        """One mutated copy of a gene, always inside the appliance window."""
        _, _, duration, _, lo, hi, reach, window, count = self.flex[index]
        if count == 1:
            return gene
        if window is None:
            start = gene[0] + draws.below(2 * reach + 1) - reach
            start = lo if start < lo else hi if start > hi else start
            return tuple(range(start, start + duration))

        k = 1 + draws.below(duration)
        dropped = draws.sample(duration, k)
        kept = [s for j, s in enumerate(gene) if j not in dropped]
        candidates = window.copy()
        for s in reversed(kept):  # descending, so each index is still s - lo
            del candidates[s - lo]
        picks = draws.sample(len(candidates), k)
        return tuple(sorted(kept + [candidates[p] for p in picks]))

    def genes(self, index: int) -> list[tuple[int, ...]]:
        """Every gene appliance `index` can take, lexicographic: each
        contiguous run if uninterruptible, else each on-slot tuple."""
        f = self.flex[index]
        if f.window is None:
            return [tuple(range(s, s + f.duration)) for s in range(f.lo, f.hi + 1)]
        return list(combinations(f.window, f.duration))

    def decode(self, antibody: Antibody) -> Schedule:
        """Full schedule for all appliances, baseline rows always on."""
        flex_slots = dict(zip((f.row for f in self.flex), antibody))
        on_slots: list[Sequence[int]] = []
        for row, a in enumerate(self.context.appliances):
            if row in flex_slots:
                on_slots.append(flex_slots[row])
            else:
                on_slots.append(range(1, self.slot_count + 1))
        return schedule_from_on_slots(on_slots, self.slot_count)

    def slot_matrix(self, antibodies: Sequence[Antibody]) -> np.ndarray:
        """The genotypes' chained genes, one row per genotype."""
        rows, width = len(antibodies), len(self.rate_weights)
        flat = np.fromiter(
            chain.from_iterable(chain.from_iterable(antibodies)),
            dtype=np.intp, count=rows * width,
        )
        return flat.reshape(rows, width)

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
        gross = self.gross_rows(slots)

        excess = gross - ctx.md_kw
        excess[excess <= KW_TOL] = 0.0
        md_excess = excess.sum(axis=1)

        loss, volt_violation, flow_failed = ctx.batch_flows(gross)

        hours = ctx.grid.slot_hours
        billed = np.maximum(gross - self._pv, 0.0) + loss
        # one ddot per row, as a scalar evaluation takes; `billed @ price`
        # sums in another order and differs in the last bit on some rows
        rows = len(slots)
        energy = np.fromiter(map(self._price.dot, billed), float, rows) * hours

        moved = np.abs(slots - self._original)
        shift_slots = moved.sum(axis=1)
        if self.flex:
            # per-gene displacement times rating; cumsum adds them left to
            # right, in appliance order, as a per-appliance loop would
            delta = np.add.reduceat(moved, self._gene_starts, axis=1)
            weighted = np.cumsum(delta * self._ratings, axis=1)[:, -1]
        else:  # reduceat takes no empty index
            weighted = np.zeros(rows)
        penalty = hours * ctx.penalty_price * weighted
        total = energy + penalty

        score = -total - weight * (md_excess + volt_violation)
        score = np.where(flow_failed, score - FLOW_FAILURE_PENALTY, score)

        return Scores(
            energy_usd=energy,
            penalty_usd=penalty,
            total_usd=total,
            md_excess=md_excess,
            voltage_violation=volt_violation,
            flow_failed=flow_failed,
            shift_slots=shift_slots,
            weighted_shift=weighted,
            score=score,
            feasible=(md_excess == 0.0) & (volt_violation == 0.0) & ~flow_failed,
        )


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
    """
    n = len(ranked)
    counts = clone_counts(n)
    mutate = space.mutate_gene
    offspring: list[Antibody] = []
    for rank, parent in enumerate(ranked, start=1):
        gene_prob = min(1.0, HYPERMUTATION_SCALE * rank / n)
        size = len(parent)
        for _ in range(counts[rank - 1]):
            genes = list(parent)
            # gene g mutates when its own random() draw is below gene_prob;
            # skip consumes the draws of the genes in between
            g = draws.skip(size, gene_prob)
            if g == size and size:
                # an identical clone is a wasted evaluation; probe a neighbor
                g = draws.below(size)
                genes[g] = mutate(g, genes[g], draws)
            else:
                while g < size:
                    genes[g] = mutate(g, genes[g], draws)
                    g += 1 + draws.skip(size - g - 1, gene_prob)
            offspring.append(tuple(genes))
    return offspring


# incumbent key of no candidate at all: every candidate beats it
_NO_INCUMBENT = (math.inf, 0, ())


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
    """
    space = SearchSpace(context)
    original = space.original_antibody()

    # total_cost, not space.evaluate: its energy differs in the last bit on some days (scenario_c)
    original_energy = total_cost(space.decode(original), context).energy_usd
    weight = max(1.0, 10.0 * original_energy)
    # every distinct genotype scored so far: (score, total, shift_slots, feasible)
    scores: dict[Antibody, tuple[float, float, int, bool]] = {}

    def score(antibodies: Sequence[Antibody]) -> None:
        """Score the genotypes not yet in `scores`, all in one pass."""
        misses = list(dict.fromkeys(ab for ab in antibodies if ab not in scores))
        if misses:
            s = space.evaluate(misses, weight)
            scores.update(zip(misses, zip(
                s.score.tolist(), s.total_usd.tolist(), s.shift_slots.tolist(),
                s.feasible.tolist())))

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
    for generation in range(1, config.generations + 1):
        score(population)
        population.sort(key=rank_key)
        offspring = clone_and_hypermutate(population, draws, space)
        score(offspring)
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
        population[n - replace_count:] = [
            space.random_antibody(draws) for _ in range(replace_count)]
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
