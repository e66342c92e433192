"""Scalar reference for the optimizer's draws and hypermutation.

`Draws` replays numpy's `Generator(PCG64(seed))` one call per draw: each
`random()` reads one word, each bounded draw goes `below` -> `_uint32` ->
`_word`, and `sample` calls `below` once per Floyd pick and once per
dropped shuffle draw.  `random_antibody`, `mutate_gene` and
`clone_and_hypermutate` draw genes through it one gene at a time, testing
every gene of every clone with its own `random()` call; they read each
appliance's class, window, and duration from its `Appliance`, not from
the `SearchSpace` record they check.  `csa.Draws`,
`SearchSpace.random_antibody`, `SearchSpace.mutate_gene` and
`csa.clone_and_hypermutate` must match them exactly: the same genotypes and
the same stream position after every call.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from dsmsched.csa import HYPERMUTATION_SCALE, Antibody, SearchSpace, clone_counts
from dsmsched.domain import ApplianceClass, effective_window


class Draws:
    """The draws of numpy's `Generator(PCG64(seed))`, replayed in Python."""

    def __init__(self, seed: int):
        self._bits = np.random.PCG64(seed)
        self._words: Iterator[int] = iter(())
        self._half: int | None = None

    def _word(self) -> int:
        try:
            return next(self._words)
        except StopIteration:
            self._words = iter(self._bits.random_raw(512).tolist())
            return next(self._words)

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._word()
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def random(self) -> float:
        """A float in [0, 1), as `Generator.random()`."""
        return (self._word() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        """An int in [0, n), as `Generator.integers(0, n)`; n == 1 draws nothing."""
        if n == 1:
            return 0
        m = self._uint32() * n
        if (m & 0xFFFFFFFF) < n:
            threshold = ((1 << 32) - n) % n
            while (m & 0xFFFFFFFF) < threshold:
                m = self._uint32() * n
        return m >> 32

    def sample(self, n: int, k: int) -> set[int]:
        """k distinct ints in [0, n), the set `Generator.choice(n, k,
        replace=False)` returns; the shuffle of its picks is drawn and
        dropped."""
        picks: set[int] = set()
        for j in range(n - k, n):
            pick = self.below(j + 1)
            picks.add(j if pick in picks else pick)
        for i in range(k - 1, 0, -1):
            self.below(i + 1)
        return picks


def appliance(space: SearchSpace, index: int) -> tuple[bool, int, int, int]:
    """(uninterruptible, window start, window end, duration) of flexible
    appliance `index`, read from its `Appliance`, not from `space.flex`."""
    a = space.context.appliances[space.flex[index].row]
    lo, hi = effective_window(a)
    return a.appliance_class is ApplianceClass.UNINTERRUPTIBLE, lo, hi, a.duration


def random_antibody(space: SearchSpace, draws: Draws) -> Antibody:
    genes = []
    for index in range(len(space.flex)):
        uninterruptible, lo, hi, duration = appliance(space, index)
        if uninterruptible:
            start_hi = hi - duration + 1
            start = lo + draws.below(start_hi - lo + 1)
            genes.append(tuple(range(start, start + duration)))
        else:
            picks = draws.sample(hi - lo + 1, duration)
            genes.append(tuple(sorted(p + lo for p in picks)))
    return tuple(genes)


def mutate_gene(space: SearchSpace, index: int, gene: tuple[int, ...],
                draws: Draws) -> tuple[int, ...]:
    """One mutated copy of a gene, always inside the appliance window."""
    uninterruptible, lo, hi, duration = appliance(space, index)
    if uninterruptible:
        start_hi = hi - duration + 1
        span = start_hi - lo
        if span == 0:
            return gene
        bound = max(1, span // 2)
        delta = draws.below(2 * bound + 1) - bound
        start = min(start_hi, max(lo, gene[0] + delta))
        return tuple(range(start, start + duration))

    if hi - lo + 1 == duration:
        return gene
    k = 1 + draws.below(duration)
    dropped = draws.sample(duration, k)
    kept = [s for j, s in enumerate(gene) if j not in dropped]
    kept_set = set(kept)
    candidates = [s for s in range(lo, hi + 1) if s not in kept_set]
    picks = draws.sample(len(candidates), k)
    return tuple(sorted(kept + [candidates[p] for p in picks]))


def clone_and_hypermutate(
    ranked: Sequence[Antibody], draws: Draws, space: SearchSpace
) -> list[Antibody]:
    """Offspring of a ranked population (best first)."""
    n = len(ranked)
    counts = clone_counts(n)
    offspring: list[Antibody] = []
    for rank, parent in enumerate(ranked, start=1):
        gene_prob = min(1.0, HYPERMUTATION_SCALE * rank / n)
        for _ in range(counts[rank - 1]):
            genes = list(parent)
            mutated = False
            for g in range(len(genes)):
                if draws.random() < gene_prob:
                    genes[g] = mutate_gene(space, g, genes[g], draws)
                    mutated = True
            if genes and not mutated:
                # an identical clone is a wasted evaluation; probe a neighbor
                g = draws.below(len(genes))
                genes[g] = mutate_gene(space, g, genes[g], draws)
            offspring.append(tuple(genes))
    return offspring


def skip(draws: Draws, limit: int, p: float) -> int:
    """What `csa.Draws.skip` replaces: one `random()` call per gene tested,
    up to the first draw below p or `limit` draws."""
    for count in range(limit):
        if draws.random() < p:
            return count
    return limit
