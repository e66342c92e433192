import gc
import math
import random
import time
import tracemalloc
from collections import Counter
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import csa_reference
import eval_reference
from conftest import FIXTURES
from eval_reference import bits, flow_entries
from dsmsched.cli import load_scenario_config
from dsmsched.constraints import is_feasible
from dsmsched import costing, csa
from dsmsched.costing import ProblemContext, total_cost
from dsmsched.csa import (
    HYPERMUTATION_SCALE,
    CsaConfig,
    Draws,
    SearchSpace,
    clone_and_hypermutate,
    clone_counts,
    optimize,
)
from dsmsched.domain import (
    Appliance,
    ApplianceClass,
    TimeGrid,
    effective_window,
    schedule_from_on_slots,
)
from dsmsched.errors import PowerFlowError
from dsmsched.oracle import SmallInstance, sweep_penalties
from dsmsched.feeder import FeederLine, FeederModel
from dsmsched.profiles import PriceSeries
from small_instances import (
    FLAT,
    GRID12,
    STEEP,
    TWO_VALLEY,
    _baseline,
    _family_md,
    _family_steep,
    _interruptible,
    _tiny_neighbors,
    _uninterruptible,
    build_suite,
)

FAST = dict(population_size=20, generations=60, stall_generations=20)

GRID16 = TimeGrid(slot_count=16)
FLAT16 = PriceSeries(values=(0.08,) * 16)


@st.composite
def _flexible_on_16_slots(draw):
    """A flexible appliance of either class on `GRID16`, its original plan
    inside its window."""
    lo = draw(st.integers(1, 16))
    hi = draw(st.integers(lo, 16))
    duration = draw(st.integers(1, hi - lo + 1))
    if draw(st.booleans()):
        start = draw(st.integers(lo, hi - duration + 1))
        return _uninterruptible(0, (lo, hi), duration, 1.0, original_start=start)
    slots = draw(st.sets(st.integers(lo, hi), min_size=duration, max_size=duration))
    return _interruptible(0, (lo, hi), duration, 1.0, original=tuple(sorted(slots)))


@st.composite
def _breeding_space(draw):
    """A space of one to five flexible appliances on a grid of 1 to 600
    slots: runs and slot sets of 1 to 8 slots, whose windows are as long
    as the gene (one legal gene), a few slots longer, or anything up to
    the whole grid."""
    slot_count = draw(st.integers(1, 600))
    appliances = []
    for aid in range(2, 2 + draw(st.integers(1, 5))):
        duration = draw(st.integers(1, min(8, slot_count)))
        span = draw(st.one_of(st.just(duration),
                              st.integers(duration, min(slot_count, duration + 3)),
                              st.integers(duration, slot_count)))
        lo = draw(st.integers(1, slot_count - span + 1))
        hi = lo + span - 1
        if draw(st.booleans()):
            start = draw(st.integers(lo, hi - duration + 1))
            appliances.append(_uninterruptible(aid, (lo, hi), duration, 1.0,
                                               original_start=start))
        else:
            slots = draw(st.sets(st.integers(lo, hi), min_size=duration, max_size=duration))
            appliances.append(_interruptible(aid, (lo, hi), duration, 1.0,
                                             original=tuple(sorted(slots))))
    return SearchSpace(ProblemContext(grid=TimeGrid(slot_count=slot_count),
                                      appliances=tuple(appliances),
                                      price=PriceSeries(values=(0.1,) * slot_count)))


def sample_bounds(n, k):
    """The bounds of `csa_reference.Draws.sample(n, k)`'s draws, in stream order:
    Floyd's picks (the one below 1 draws nothing), then the dropped
    shuffle of the k picks."""
    return [*range(max(2, n - k + 1), n + 1), *range(k, 1, -1)]


GRID300 = TimeGrid(slot_count=300, slot_hours=0.08)


def edge_context(name):
    """The edge spaces of the genotype encoding: no flexible appliance (the
    empty genotype), every gene fixed (each clone is an identical-clone
    probe), and a grid of more than 255 slots (two bytes per slot)."""
    if name == "no_flexible":
        return ProblemContext(grid=GRID12, appliances=(_baseline(),), price=STEEP)
    if name == "fixed_genes":
        return ProblemContext(grid=GRID12, price=STEEP, penalty_price=0.05, appliances=(
            _baseline(),
            _uninterruptible(2, (4, 6), 3, 1.0, original_start=4),  # one start only
            _interruptible(3, (7, 8), 2, 1.0, original=(7, 8)),  # window == duration
        ))
    baseline = Appliance(id=1, appliance_class=ApplianceClass.BASELINE, window_start=1,
                         window_end=300, duration=300, rated_kw=0.4,
                         original_on_slots=tuple(range(1, 301)))
    price = PriceSeries(values=tuple(0.05 + 0.02 * ((s * 37) % 17) for s in range(300)))
    return ProblemContext(grid=GRID300, price=price, md_kw=3.0, penalty_price=0.05, appliances=(
        baseline,
        _uninterruptible(2, (200, 290), 5, 1.0, original_start=250),  # runs across 255/256
        _interruptible(3, (240, 300), 4, 1.5, original=(254, 255, 256, 257)),
        _interruptible(4, (1, 280), 3, 1.2, original=(3, 128, 256)),
        _uninterruptible(5, (10, 270), 6, 0.8, original_start=100),
    ))


EDGE_CONFIG = dict(population_size=12, generations=14, stall_generations=8)

# the tuple-genotype optimizer's results on the edge spaces, per (space,
# seed) at EDGE_CONFIG: history, evaluations, the flexible rows' on-slots
# and the total
EDGE_PINS = {
    ("no_flexible", 0): (
        [
            (0, 0.29400000000000004, 1), (1, 0.29400000000000004, 1),
            (2, 0.29400000000000004, 1), (3, 0.29400000000000004, 1),
            (4, 0.29400000000000004, 1), (5, 0.29400000000000004, 1),
            (6, 0.29400000000000004, 1), (7, 0.29400000000000004, 1),
            (8, 0.29400000000000004, 1),
        ],
        1,
        [],
        0.29400000000000004,
    ),
    ("no_flexible", 7): (
        [
            (0, 0.29400000000000004, 1), (1, 0.29400000000000004, 1),
            (2, 0.29400000000000004, 1), (3, 0.29400000000000004, 1),
            (4, 0.29400000000000004, 1), (5, 0.29400000000000004, 1),
            (6, 0.29400000000000004, 1), (7, 0.29400000000000004, 1),
            (8, 0.29400000000000004, 1),
        ],
        1,
        [],
        0.29400000000000004,
    ),
    ("fixed_genes", 0): (
        [
            (0, 0.6040000000000001, 1), (1, 0.6040000000000001, 1),
            (2, 0.6040000000000001, 1), (3, 0.6040000000000001, 1),
            (4, 0.6040000000000001, 1), (5, 0.6040000000000001, 1),
            (6, 0.6040000000000001, 1), (7, 0.6040000000000001, 1),
            (8, 0.6040000000000001, 1),
        ],
        1,
        [
            (4, 5, 6), (7, 8),
        ],
        0.6040000000000001,
    ),
    ("fixed_genes", 7): (
        [
            (0, 0.6040000000000001, 1), (1, 0.6040000000000001, 1),
            (2, 0.6040000000000001, 1), (3, 0.6040000000000001, 1),
            (4, 0.6040000000000001, 1), (5, 0.6040000000000001, 1),
            (6, 0.6040000000000001, 1), (7, 0.6040000000000001, 1),
            (8, 0.6040000000000001, 1),
        ],
        1,
        [
            (4, 5, 6), (7, 8),
        ],
        0.6040000000000001,
    ),
    ("grid300", 0): (
        [
            (0, 4.046, 12), (1, 3.17424, 49), (2, 3.17424, 88),
            (3, 2.7758400000000005, 127), (4, 2.7758400000000005, 165), (5, 2.69616, 204),
            (6, 2.61552, 241), (7, 2.58416, 280), (8, 2.56272, 317), (9, 2.56272, 356),
            (10, 2.56272, 394), (11, 2.56272, 433), (12, 2.56272, 468), (13, 2.56272, 505),
            (14, 2.56272, 543),
        ],
        543,
        [
            (250, 251, 252, 253, 254), (254, 257, 262, 263), (26, 120, 268),
            (100, 101, 102, 103, 104, 105),
        ],
        2.56272,
    ),
    ("grid300", 7): (
        [
            (0, 4.23312, 12), (1, 2.6448000000000005, 47), (2, 2.5404, 86),
            (3, 2.4744, 124), (4, 2.4744, 163), (5, 2.4744, 201), (6, 2.4744, 239),
            (7, 2.4744, 275), (8, 2.4744, 312), (9, 2.4744, 351), (10, 2.4744, 389),
            (11, 2.4588000000000005, 425), (12, 2.4336, 462), (13, 2.4336, 501),
            (14, 2.4336, 540),
        ],
        540,
        [
            (250, 251, 252, 253, 254), (248, 251, 257, 270), (3, 128, 256),
            (100, 101, 102, 103, 104, 105),
        ],
        2.4336,
    ),
}


def steep_context(penalty=0.0, **overrides):
    kwargs = dict(
        grid=GRID12, appliances=_family_steep(), price=STEEP, penalty_price=penalty
    )
    kwargs.update(overrides)
    return ProblemContext(**kwargs)


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"population_size": 1},
        {"generations": 0},
        {"population_size": 0},
        {"generations": -1},
        {"stall_generations": -1},
        {"rng_seed": -1},
        {"population_size": 2, "rng_seed": -5},
        {"stall_generations": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CsaConfig(**kwargs)


class TestCloneCounts:
    def test_rank_one_gets_most_capped_at_population(self):
        counts = clone_counts(10)
        assert counts[0] == 10
        assert counts == sorted(counts, reverse=True)

    def test_unit_factor(self):
        assert clone_counts(4) == [4, 2, 1, 1]
        assert clone_counts(6) == [6, 3, 2, 2, 1, 1]

    def test_every_rank_gets_at_least_one(self):
        for n in range(2, 300):
            assert all(1 <= c <= n for c in clone_counts(n))


# (2**32 - n) % n == 2**30: a quarter of the 32-bit draws are rejected
HEAVY = 3 << 30

# no power of two, and near 2**32: two streams that stand at different
# words, or keep different halves, all but never agree on a draw below it
NEXT = (1 << 32) - 5


def same_position(draws, ref):
    """Whether `Draws` and the reference's `Draws` stand at the same word
    and keep the same half: their next bounded draw agrees."""
    return draws.integers([NEXT]) == [ref.below(NEXT)]


def random_bounds(pick, longest):
    """A list of up to `longest` draw bounds: a quarter 1s, which draw
    nothing, the rejection-heavy bound, the largest bound, and small and
    large bounds."""
    return [pick.choice((1, 1, HEAVY, (1 << 32) - 1, pick.randrange(2, 100),
                         pick.randrange(2, 100), pick.randrange(2, 1 << 32),
                         pick.randrange(2, 1 << 32)))
            for _ in range(pick.randrange(longest + 1))]


class TestDrawsMatchNumpy:
    """`Draws` and `csa_reference.Draws` against the numpy `Generator`
    whose stream they replay.

    Every genotype the optimizer draws, and so every report byte and both
    goldens, rests on `Draws(seed)` giving exactly what
    `np.random.default_rng(seed)` gives.  numpy does not promise that a
    Generator's stream stays the same across versions (NEP 19), so this
    test is the tripwire: if numpy changes how `random`, `integers` or
    `choice(replace=False)` draw, it fails here first.  `Draws.integers`
    is checked against `integers` directly; `random` and `choice`, which
    the walk and `random_antibody` replay without a call of their own, are
    checked on the reference, against which both are checked in turn.
    """

    def test_integers(self):
        # lists long enough to cross several 512-word blocks, and the
        # stream carried from one call to the next
        for seed in range(200):
            draws, gen = Draws(seed), np.random.default_rng(seed)
            pick = random.Random(seed)
            for longest in (3, 40, 3000 if seed % 10 == 0 else 600):
                bounds = random_bounds(pick, longest)
                assert draws.integers(bounds) == gen.integers(0, bounds).tolist(), (
                    seed, longest)

    @staticmethod
    def draw_both(ref, gen, plan):
        """Apply one operation to both streams; return the pair of results."""
        op, a, b = plan
        if op == "random":
            return ref.random(), gen.random()
        if op == "integers":
            return a + ref.below(b - a), int(gen.integers(a, b))
        return ref.sample(a, b), set(gen.choice(a, size=b, replace=False).tolist())

    @staticmethod
    def plan(pick):
        op = pick.choice(("random", "integers", "sample"))
        if op == "integers":
            lo = pick.randrange(-50, 50)
            # a third of the ranges hold one value, which must draw nothing:
            # every later operation of the mix would see the stream shifted
            width = 1 if pick.random() < 1 / 3 else pick.randrange(2, 120)
            return op, lo, lo + width
        if op == "sample":
            n = pick.randrange(1, 61)
            return op, n, pick.randrange(1, n + 1)
        return op, 0, 0

    def test_random_integers_and_choice(self):
        for seed in range(2000):
            ref, gen = csa_reference.Draws(seed), np.random.default_rng(seed)
            pick = random.Random(seed)
            for _ in range(60):
                plan = self.plan(pick)
                mine, theirs = self.draw_both(ref, gen, plan)
                assert mine == theirs, (seed, plan)

    def test_choice_past_ten_thousand_items(self):
        # past 10,000 items numpy keeps Floyd's algorithm only while
        # k <= n // 50; these sit at and inside that edge
        for n, k in ((10001, 200), (20000, 1), (20000, 300), (20000, 400), (65535, 1310)):
            for seed in range(3):
                ref, gen = csa_reference.Draws(seed), np.random.default_rng(seed)
                picks = set(gen.choice(n, size=k, replace=False).tolist())
                assert ref.sample(n, k) == picks, (n, k, seed)
                assert ref.below(n) == int(gen.integers(0, n)), (n, k, seed)

    def test_rejection_heavy_range(self):
        for seed in range(300):
            draws, gen = Draws(seed), np.random.default_rng(seed)
            for i in range(60):
                # calls of 1 to 7 draws, so that some end on a kept half
                size = i % 7 + 1
                assert draws.integers([HEAVY] * size) == gen.integers(0, HEAVY, size).tolist(), (
                    seed, i)
            ref, gen = csa_reference.Draws(seed), np.random.default_rng(seed)
            for i in range(200):
                assert ref.below(HEAVY) == int(gen.integers(0, HEAVY)), (seed, i)
                if i % 7 == 0:
                    assert ref.random() == gen.random(), (seed, i)


class TestDrawsMatchReference:
    """`Draws.integers` against `csa_reference.Draws.below`, one call per
    bound: on mixed and rejection-heavy lists, and on crafted words,
    which numpy has no call to take."""

    def test_mixed_draws(self):
        for seed in range(600):
            draws, ref = Draws(seed), csa_reference.Draws(seed)
            pick = random.Random(seed)
            for _ in range(40):
                bounds = random_bounds(pick, 12)
                assert draws.integers(bounds) == [ref.below(b) for b in bounds], (seed, bounds)
                # the next word and the kept half are where the reference's are
                assert same_position(draws, ref), (seed, bounds)

    def test_rejections_on_crafted_words(self):
        # a zero 32-bit half is rejected by every bound that is not a power
        # of two, and by no other: a zero at each position tells apart
        # bounds that random words almost never do, such as a shuffle that
        # draws from k + 1..3 instead of k..2.  The lists are a slot set's
        # random draws, Floyd's picks of k of n slots (the one below 1, when
        # k == n, draws nothing) and the dropped shuffle, then one more.
        pick = random.Random(0)
        for n, k in ((2, 2), (3, 3), (5, 2), (6, 6), (7, 4), (9, 1)):
            bounds = [*range(n - k + 1, n + 1), *range(k, 1, -1), n + 2]
            for zero in range(2 * len(bounds)):
                words = [pick.getrandbits(64) for _ in range(2 * len(bounds))]
                words[zero // 2] &= 0xFFFFFFFF00000000 if zero % 2 == 0 else 0xFFFFFFFF
                draws, ref = Draws(0), csa_reference.Draws(0)
                draws._block, draws._pos = words + [0] * (512 - len(words)), 0
                ref._words = iter(words)
                assert draws.integers(bounds) == [ref.below(b) for b in bounds], (n, k, zero)
                assert same_position(draws, ref), (n, k, zero)

    def test_heavy_rejection_sample(self):
        # the draws of k of HEAVY items: Floyd's picks, then the shuffle
        for seed in range(300):
            draws, ref = Draws(seed), csa_reference.Draws(seed)
            for k in (1, 2, 5, 9):
                bounds = [*range(HEAVY - k + 1, HEAVY + 1), *range(k, 1, -1)]
                assert draws.integers(bounds) == [ref.below(b) for b in bounds], (seed, k)
                assert same_position(draws, ref), (seed, k)
            assert draws.integers([HEAVY]) == [ref.below(HEAVY)], seed


class TestHypermutationMatchesReference:
    """Random antibodies and offspring against the scalar reference in
    csa_reference, which breeds tuple genotypes: the parents encoded with
    `key`, the offspring decoded with `genes_of`, the same genotypes, and
    the stream left at the same place after every call, on every
    small-suite space, the canonical day, and the fixed-gene, one-gene,
    zero-gene and 300-slot spaces."""

    @pytest.fixture(scope="class")
    def spaces(self, grid48, canonical_appliances, canonical_price):
        contexts = {ctx.appliances: ctx for _, ctx in build_suite()}
        spaces = {f"suite{i}": SearchSpace(ctx) for i, ctx in enumerate(contexts.values())}
        spaces["canonical"] = SearchSpace(ProblemContext(
            grid=grid48, appliances=canonical_appliances, price=canonical_price))
        spaces["fixed_genes"] = SearchSpace(ProblemContext(grid=GRID12, price=FLAT, appliances=(
            _baseline(),
            _uninterruptible(2, (4, 6), 3, 1.0, original_start=4),  # one start only
            _interruptible(3, (7, 8), 2, 1.0, original=(7, 8)),  # window == duration
            _interruptible(4, (1, 12), 3, 1.0, original=(2, 5, 9)),
            _uninterruptible(5, (1, 12), 4, 1.0, original_start=3),
            _uninterruptible(6, (9, 12), 3, 1.0, original_start=9),  # two starts
        )))
        spaces["one_gene"] = SearchSpace(ProblemContext(grid=GRID12, price=FLAT, appliances=(
            _baseline(), _interruptible(2, (3, 11), 4, 1.0, original=(3, 4, 5, 6)))))
        spaces["zero_genes"] = SearchSpace(edge_context("no_flexible"))
        spaces["every_gene_fixed"] = SearchSpace(edge_context("fixed_genes"))
        spaces["grid300"] = SearchSpace(edge_context("grid300"))
        return spaces

    @staticmethod
    def check(space, seeds, size, generations):
        for seed in seeds:
            draws, ref = Draws(seed), csa_reference.Draws(seed)
            population = [space.genes_of(space.original_antibody())]
            for _ in range(size - 1):
                ab = space.random_antibody(draws)
                assert space.genes_of(ab) == csa_reference.random_antibody(space, ref), seed
                assert same_position(draws, ref), seed
                population.append(space.genes_of(ab))
            for generation in range(generations):
                offspring = clone_and_hypermutate(
                    [space.key(genes) for genes in population], draws, space)
                expected = csa_reference.clone_and_hypermutate(population, ref, space)
                assert [space.genes_of(ab) for ab in offspring] == expected, (seed, generation)
                assert same_position(draws, ref), (seed, generation)
                population = expected[:size]

    def test_small_spaces(self, spaces):
        for name, space in spaces.items():
            if name != "canonical":
                self.check(space, range(200), size=6, generations=3)

    def test_canonical_day(self, spaces):
        self.check(spaces["canonical"], range(200), size=5, generations=3)

    def test_rejections_on_crafted_words(self, spaces):
        # a zero 32-bit half is rejected by every bound that is not a power
        # of two and accepted by every other; one at each position of the
        # first words meets the probes, the runs' steps, the slot sets' k
        # and both of their samples
        pick = random.Random(1)
        for name in ("fixed_genes", "one_gene"):
            space = spaces[name]
            parents = [space.genes_of(space.random_antibody(Draws(seed))) for seed in range(3)]
            for zero in range(160):
                words = [pick.getrandbits(64) for _ in range(512)]
                words[zero // 2] &= 0xFFFFFFFF00000000 if zero % 2 == 0 else 0xFFFFFFFF
                draws, ref = Draws(0), csa_reference.Draws(0)
                draws._block, draws._pos = words, 0
                ref._words = iter(words)
                offspring = clone_and_hypermutate(
                    [space.key(genes) for genes in parents], draws, space)
                expected = csa_reference.clone_and_hypermutate(parents, ref, space)
                assert [space.genes_of(ab) for ab in offspring] == expected, (name, zero)
                assert same_position(draws, ref), (name, zero)

    def test_rejections_inside_random_antibodies(self, spaces):
        # a zero 32-bit half at each position of the first 2 * (draws of
        # one antibody) halves meets every draw of the first antibody and
        # some of the second's; bound-1 draws (fixed_genes' one-start run
        # and its slot set as long as its window) must read nothing
        pick = random.Random(3)
        for name in ("fixed_genes", "one_gene", "canonical", "grid300"):
            space = spaces[name]
            draw_count = 0
            for index in range(len(space.flex)):
                uninterruptible, _, _, duration = csa_reference.appliance(space, index)
                draw_count += 1 if uninterruptible else 2 * duration - 1
            for zero in range(2 * draw_count):
                words = [pick.getrandbits(64) for _ in range(512)]
                words[zero // 2] &= 0xFFFFFFFF00000000 if zero % 2 == 0 else 0xFFFFFFFF
                draws, ref = Draws(0), csa_reference.Draws(0)
                draws._block, draws._pos = words, 0
                ref._words = iter(words)
                for call in range(2):
                    ab = space.random_antibody(draws)
                    assert space.genes_of(ab) == csa_reference.random_antibody(space, ref), (
                        name, zero, call)
                    assert same_position(draws, ref), (name, zero, call)

    def test_rejections_inside_sample_draws(self, spaces, monkeypatch):
        # a slot set's sample draws are counted, not drawn, by the first
        # walk; a zero 32-bit half on one of them is rejected by its bound
        # unless the bound is a power of two, and then breeding must walk
        # again, drawing them one by one. The zeros go on 40 of those
        # halves, picked from anywhere in the crafted block.
        walk = csa._walk
        walks = []

        def spy(ranked, counts, draws, space, exact):
            walks.append(exact)
            return walk(ranked, counts, draws, space, exact)

        monkeypatch.setattr(csa, "_walk", spy)
        pick = random.Random(2)
        for name, size in (("canonical", 5), ("grid300", 12)):
            space = spaces[name]
            parents = [space.genes_of(space.random_antibody(Draws(seed))) for seed in range(size)]
            keys = [space.key(genes) for genes in parents]
            words = [pick.getrandbits(64) for _ in range(512)]
            # each sample draw's half and bound, from a walk of these words
            draws = Draws(0)
            draws._block, draws._pos = list(words), 0
            counted = walk(keys, clone_counts(len(keys)), draws, space, False)
            halves = []
            for k, records in enumerate(counted.sets):
                for at, first in zip(records[0::2], records[1::2]):
                    f = next(f for f in space.flex if f.offset == at % space.width)
                    bounds = (sample_bounds(f.duration, k)
                              + sample_bounds(len(f.window) - f.duration + k, k))
                    halves += [(first + i, bound) for i, bound in enumerate(bounds)
                               if first + i < 2 * len(words)]
            rejecting = [(h, b) for h, b in halves if b & (b - 1)]
            kept = [(h, b) for h, b in halves if not b & (b - 1)]
            chosen = pick.sample(rejecting, 30) + pick.sample(kept, 10)
            assert max(h for h, _ in chosen) > 400, name
            for half, bound in chosen:
                crafted = list(words)
                crafted[half // 2] &= 0xFFFFFFFF00000000 if half % 2 == 0 else 0xFFFFFFFF
                draws, ref = Draws(0), csa_reference.Draws(0)
                draws._block, draws._pos = crafted, 0
                ref._words = iter(crafted)
                walks.clear()
                offspring = clone_and_hypermutate(keys, draws, space)
                expected = csa_reference.clone_and_hypermutate(parents, ref, space)
                assert [space.genes_of(ab) for ab in offspring] == expected, (name, half)
                assert same_position(draws, ref), (name, half)
                assert walks == ([False, True] if bound & (bound - 1) else [False]), (
                    name, half, bound)

    def test_long_gene_on_a_wide_grid(self):
        # a gene's draws are bounded arithmetically from its duration, k
        # and window; a table of them per k held O(duration**2) entries,
        # 1.5 s and 74 MB to build for this gene
        grid = TimeGrid(slot_count=4000, slot_hours=0.01)
        ctx = ProblemContext(grid=grid, price=PriceSeries(values=(0.1,) * 4000), appliances=(
            _interruptible(2, (1, 4000), 600, 1.0, original=tuple(range(1001, 1601))),))
        tracemalloc.start()
        try:
            began = time.perf_counter()
            space = SearchSpace(ctx)
            took = time.perf_counter() - began
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert took < 0.5 and peak < 8e6, (took, peak)
        self.check(space, range(3), size=3, generations=1)

    @settings(max_examples=120, deadline=None)
    @given(space=_breeding_space(), size=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
    def test_random_spaces(self, space, size, seed):
        self.check(space, [seed], size=size, generations=3)

    def test_mutation_threshold_is_exact(self, spaces):
        # a first word whose top 53 bits sit at either side of p * 2**53,
        # which random words hit with probability 2**-53: gene 0 of rank
        # 1's first clone mutates exactly when random() < p, p = 0.8 / n
        space = spaces["fixed_genes"]
        parent = space.original_antibody()
        pick = random.Random(0)
        for n in (2, 3, 5, 6, 7, 8, 60):
            edge = HYPERMUTATION_SCALE / n * 2.0**53
            for top in {math.floor(edge) - 1, math.floor(edge), math.ceil(edge),
                        math.ceil(edge) + 1}:
                for low in (0, 2**11 - 1):
                    words = [top << 11 | low] + [pick.getrandbits(64) for _ in range(511)]
                    draws, ref = Draws(n), csa_reference.Draws(n)
                    draws._block, draws._pos = words, 0
                    ref._words = iter(words)
                    offspring = clone_and_hypermutate([parent] * n, draws, space)
                    expected = csa_reference.clone_and_hypermutate(
                        [space.genes_of(parent)] * n, ref, space)
                    assert [space.genes_of(ab) for ab in offspring] == expected, (n, top)
                    assert same_position(draws, ref), (n, top)


class TestSearchSpace:
    def test_only_flexible_appliances_are_encoded(self):
        space = SearchSpace(steep_context())
        assert len(space.flex) == 2  # baseline not encoded
        original = space.original_antibody()
        assert space.genes_of(original) == ((8, 9, 10), (8, 9))
        assert original == bytes([8, 9, 10, 8, 9])

    def test_decode_round_trips_the_original(self):
        ctx = steep_context()
        space = SearchSpace(ctx)
        assert space.decode(space.original_antibody()) == ctx.original_schedule()

    def test_gross_matches_decoded_schedule(self):
        ctx = steep_context()
        space = SearchSpace(ctx)
        draws = Draws(3)
        from dsmsched.domain import aggregate_power
        for _ in range(25):
            ab = space.random_antibody(draws)
            direct = space.gross(ab)
            via_schedule = aggregate_power(space.decode(ab), ctx.appliances)
            assert direct == pytest.approx(via_schedule.tolist())

    def test_random_antibodies_respect_windows(self):
        space = SearchSpace(steep_context())
        draws = Draws(11)
        for _ in range(200):
            run, slots = space.genes_of(space.random_antibody(draws))
            start = run[0]
            assert 1 <= start <= 10  # window 1..12, duration 3
            assert run == (start, start + 1, start + 2)
            assert len(slots) == 2 and len(set(slots)) == 2
            assert slots == tuple(sorted(slots))
            assert all(2 <= s <= 11 for s in slots)

    def test_mutate_gene_stays_in_bounds(self):
        # a line of single children, each gene mutating with probability 0.8
        space = SearchSpace(steep_context())
        draws = Draws(5)
        child = space.original_antibody()
        for _ in range(500):
            (child,) = clone_and_hypermutate([child], draws, space)
            run, slots = space.genes_of(child)
            assert 1 <= run[0] <= 10 and run == (run[0], run[0] + 1, run[0] + 2)
            assert len(slots) == 2 and slots == tuple(sorted(set(slots)))
            assert all(2 <= s <= 11 for s in slots)

    def test_mutation_is_identity_when_gene_has_no_freedom(self):
        # every clone of a count-1 gene is the gene itself, probes included
        space = SearchSpace(edge_context("fixed_genes"))
        original = space.original_antibody()
        draws = Draws(0)
        for _ in range(20):
            offspring = clone_and_hypermutate([original] * 8, draws, space)
            assert len(offspring) == sum(clone_counts(8))
            assert set(offspring) == {original}
        assert space.genes_of(original) == ((4, 5, 6), (7, 8))


class TestGenesListTheReachableSpace:
    """`SearchSpace.genes(i)`, which the oracle enumerates, holds exactly
    the legal genes of appliance i, and so every gene the optimizer can
    draw or mutate into: oracle agreement then means the optimizer found
    the optimum of its own search space."""

    @pytest.fixture(scope="class")
    def spaces(self):
        contexts = {ctx.appliances: ctx for _, ctx in build_suite()}
        return [SearchSpace(ctx) for ctx in contexts.values()]

    def test_genes_are_every_legal_gene_in_order(self, spaces):
        for space in spaces:
            for i, f in enumerate(space.flex):
                appliance = space.context.appliances[f.row]
                lo, hi = effective_window(appliance)
                duration = appliance.duration
                genes = space.genes(i)
                assert all(a < b for a, b in zip(genes, genes[1:]))
                for gene in genes:
                    assert len(gene) == duration
                    assert list(gene) == sorted(set(gene))
                    assert lo <= gene[0] and gene[-1] <= hi
                if appliance.appliance_class is ApplianceClass.UNINTERRUPTIBLE:
                    assert all(gene == tuple(range(gene[0], gene[0] + duration))
                               for gene in genes)
                    assert len(genes) == hi - duration + 1 - lo + 1
                else:
                    assert len(genes) == math.comb(hi - lo + 1, duration)
                assert space.genes_of(space.original_antibody())[i] in genes

    def test_drawn_and_mutated_genes_are_listed(self, spaces):
        for space in spaces:
            listed = [set(space.genes(i)) for i in range(len(space.flex))]
            for seed in range(300):
                draws = Draws(seed)
                genotype = space.random_antibody(draws)
                for _ in range(5):
                    genes = space.genes_of(genotype)
                    assert all(g in options for g, options in zip(genes, listed)), seed
                    (genotype,) = clone_and_hypermutate([genotype], draws, space)

    @settings(max_examples=150, deadline=None)
    @given(appliances=st.lists(_flexible_on_16_slots(), min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    @example(appliances=[
        _uninterruptible(1, (5, 7), 3, 1.0, original_start=5),  # one start
        _interruptible(2, (9, 10), 2, 1.0, original=(9, 10)),  # window == duration
        _uninterruptible(3, (1, 4), 3, 1.0, original_start=2),  # two starts
        _interruptible(4, (15, 16), 1, 1.0, original=(16,)),  # two genes
    ], seed=0)
    def test_counted_drawn_and_mutated_genes_agree(self, appliances, seed):
        # the oracle's count is the length of the gene list; every gene
        # drawn or mutated is listed; a gene stays put under mutation
        # exactly when it is the only one its appliance can take
        instance = SmallInstance(
            ProblemContext(grid=GRID16, appliances=tuple(appliances), price=FLAT16))
        space, counts = instance.space, instance.placement_counts()
        listed = [space.genes(i) for i in range(len(appliances))]
        assert counts == [len(genes) for genes in listed]
        listed = [set(genes) for genes in listed]
        draws = Draws(seed)
        genotype = space.random_antibody(draws)
        first = space.genes_of(genotype)
        moved = [False] * len(appliances)
        # a lone child mutates each gene with probability 0.8, and a gene
        # with two or more legal values moves with probability >= 1/3 per
        # mutation, so 100 children all miss with odds under 1e-13
        for _ in range(100):
            (genotype,) = clone_and_hypermutate([genotype], draws, space)
            genes = space.genes_of(genotype)
            assert all(gene in options for gene, options in zip(genes, listed))
            moved = [m or gene != start for m, gene, start in zip(moved, genes, first)]
        assert moved == [count != 1 for count in counts], counts


@st.composite
def _space_and_two_genotypes(draw):
    """A space of one to four flexible appliances on a grid of up to 600
    slots, and two legal genotypes of it as tuples of genes; the second
    keeps each of the first's genes with probability one half."""
    slot_count = draw(st.sampled_from((1, 12, 255, 256, 300, 600)))
    appliances, genes = [], []
    for aid in range(2, 2 + draw(st.integers(1, 4))):
        lo = draw(st.integers(1, slot_count))
        hi = draw(st.integers(lo, min(slot_count, lo + 30)))
        duration = draw(st.integers(1, min(4, hi - lo + 1)))
        if draw(st.booleans()):
            def gene():
                start = draw(st.integers(lo, hi - duration + 1))
                return tuple(range(start, start + duration))
            appliances.append(_uninterruptible(aid, (lo, hi), duration, 1.0,
                                               original_start=lo))
        else:
            def gene():
                slots = draw(st.sets(st.integers(lo, hi), min_size=duration,
                                     max_size=duration))
                return tuple(sorted(slots))
            appliances.append(_interruptible(aid, (lo, hi), duration, 1.0,
                                             original=tuple(range(lo, lo + duration))))
        first = gene()
        genes.append((first, first if draw(st.booleans()) else gene()))
    ctx = ProblemContext(grid=TimeGrid(slot_count=slot_count), appliances=tuple(appliances),
                         price=PriceSeries(values=(0.1,) * slot_count))
    return SearchSpace(ctx), tuple(g for g, _ in genes), tuple(g for _, g in genes)


class TestGenotypeLayout:
    """Genotypes of the canonical day, drawn and hypermutated."""

    @settings(max_examples=300, deadline=None)
    @given(case=_space_and_two_genotypes())
    def test_keys_order_as_genotypes_and_round_trip(self, case):
        space, a, b = case
        ka, kb = space.key(a), space.key(b)
        assert (ka < kb) == (a < b) and (ka == kb) == (a == b) and (ka > kb) == (a > b)
        assert space.genes_of(ka) == a and space.genes_of(kb) == b
        assert len(ka) == space.width * (1 if space.slot_count <= 255 else 2)
        assert space.slot_matrix([ka, kb]).tolist() == [
            [s for gene in a for s in gene], [s for gene in b for s in gene]]

    @pytest.fixture
    def canonical(self, grid48, canonical_appliances, canonical_price):
        space = SearchSpace(ProblemContext(
            grid=grid48, appliances=canonical_appliances, price=canonical_price))
        draws = Draws(12)
        population = [space.original_antibody()] + [
            space.random_antibody(draws) for _ in range(29)]
        offspring = clone_and_hypermutate(population, draws, space)
        return space, population + offspring

    def test_genotype_order_is_flat_row_order(self, canonical):
        space, genotypes = canonical
        genes = [space.genes_of(ab) for ab in genotypes]
        rows = [tuple(s for gene in g for s in gene) for g in genes]
        assert space.slot_matrix(genotypes).tolist() == [list(row) for row in rows]
        rng = np.random.default_rng(13)
        for i, j in rng.integers(0, len(genotypes), size=(5000, 2)):
            a, b = genotypes[i], genotypes[j]
            assert (a < b) == (rows[i] < rows[j]) == (genes[i] < genes[j])
            assert (a == b) == (rows[i] == rows[j])
        # sorting by genotype and by flat row agree as well
        assert sorted(rows) == [rows[genotypes.index(ab)] for ab in sorted(genotypes)]

    def test_uninterruptible_genes_are_runs_inside_the_window(self, canonical):
        space, genotypes = canonical
        runs = 0
        for ab in genotypes:
            for f, gene in zip(space.flex, space.genes_of(ab)):
                appliance = space.context.appliances[f.row]
                if appliance.appliance_class is not ApplianceClass.UNINTERRUPTIBLE:
                    continue
                lo, hi = effective_window(appliance)
                assert gene == tuple(range(gene[0], gene[0] + appliance.duration))
                assert lo <= gene[0] and gene[-1] <= hi
                runs += 1
        assert runs >= 7 * len(genotypes)


class TestCloneAndHypermutate:
    def test_offspring_always_decode_inside_windows(self):
        ctx = steep_context()
        space = SearchSpace(ctx)
        draws = Draws(9)
        population = [space.random_antibody(draws) for _ in range(8)]
        for _ in range(20):
            population = clone_and_hypermutate(population, draws, space)[:8]
            for ab in population:
                run, slots = space.genes_of(ab)
                assert 1 <= run[0] <= 10 and run == (run[0], run[0] + 1, run[0] + 2)
                assert all(2 <= s <= 11 for s in slots)


def score(genes, ctx, constraint_penalty_weight=0.0):
    space = SearchSpace(ctx)
    return space.evaluate([space.key(genes)], constraint_penalty_weight).score[0]


class TestAffinity:
    def test_original_scores_minus_energy_cost(self):
        ctx = steep_context()
        space = SearchSpace(ctx)
        original = space.genes_of(space.original_antibody())
        expected = total_cost(ctx.original_schedule(), ctx).energy_usd
        assert score(original, ctx) == pytest.approx(-expected)

    def test_cheaper_placement_scores_higher(self):
        ctx = steep_context()
        in_valley = ((1, 2, 3), (2, 3))
        at_peak = ((8, 9, 10), (8, 9))
        assert score(in_valley, ctx) > score(at_peak, ctx)

    def test_cap_violation_ranks_below_any_feasible(self):
        ctx = ProblemContext(
            grid=GRID12, appliances=_family_md(), price=STEEP, md_kw=3.0
        )
        # everything stacked on the same slots busts the 3 kW cap
        stacked = ((8, 9, 10), (8, 9), (8, 9))
        spread = ((1, 2, 3), (4, 5), (11, 12))
        weight = 100.0
        assert score(stacked, ctx, constraint_penalty_weight=weight) < score(
            spread, ctx, constraint_penalty_weight=weight
        )


def weak_feeder_context(r_pu: float) -> ProblemContext:
    """The binding-cap family on a 3-bus feeder of per-segment resistance r_pu."""
    feeder = FeederModel(
        base_kva=50.0, base_kv=12.47, slack_voltage_pu=1.0,
        lines=(FeederLine(0, 1, r_pu, 0.6 * r_pu), FeederLine(1, 2, r_pu, 0.6 * r_pu)),
        smart_home_bus=2,
    )
    return ProblemContext(
        grid=GRID12, appliances=_family_md(), price=TWO_VALLEY, feeder=feeder,
        neighbors=_tiny_neighbors(), md_kw=3.0, penalty_price=0.05,
    )


def score_batches(space, batches, weight):
    """Every distinct genotype of `batches`, scored as `optimize` scores
    them: batch by batch, each batch's not yet scored genotypes in one
    `evaluate` call, as {field: value} records."""
    scores = {}
    for batch in batches:
        misses = list(dict.fromkeys(ab for ab in batch if ab not in scores))
        if misses:
            scores.update(zip(misses, eval_reference.rows(space.evaluate(misses, weight))))
    return scores


@pytest.fixture
def make_canonical(grid48, canonical_appliances, canonical_price, canonical_pv,
                   canonical_neighbors, canonical_feeder):
    def make():
        return ProblemContext(
            grid=grid48, appliances=canonical_appliances, price=canonical_price,
            pv=canonical_pv, neighbors=canonical_neighbors, feeder=canonical_feeder,
            md_kw=12.4, penalty_price=0.05,
        )
    return make


def generations(space, draws, size=40, count=3):
    """An initial population and `count` generations of its clones, each
    cloned from the first `size` genotypes of the one before."""
    population = [space.original_antibody()] + [
        space.random_antibody(draws) for _ in range(size - 1)]
    batches = [population]
    for _ in range(count):
        batches.append(clone_and_hypermutate(batches[-1][:size], draws, space))
    return batches


class TestBatchedEvaluation:
    """`SearchSpace.evaluate` against the scalar evaluator in eval_reference."""

    @staticmethod
    def assert_matches_reference(make_context, batches, weight=5.0):
        """Evaluate `batches` (lists of antibodies) batch by batch on one
        context and one by one on a fresh twin; every field of every row,
        the feasible mask included, and the flow-cache contents, bit for
        bit, must agree."""
        ctx, twin = make_context(), make_context()
        scores = score_batches(SearchSpace(ctx), batches, weight)
        twin_space = SearchSpace(twin)
        expected = {}
        for batch in batches:
            for ab in batch:
                if ab not in expected:
                    expected[ab] = eval_reference.evaluate(twin_space, ab, weight)
        assert len(scores) == len(expected)
        for ab, rec in expected.items():
            assert scores[ab] == rec, ab
        assert bits(flow_entries(ctx)) == bits(flow_entries(twin))
        assert bits(ctx._cache.baseline) == bits(twin._cache.baseline)
        return list(expected.values())

    def test_canonical_genotypes(self, make_canonical):
        batches = generations(SearchSpace(make_canonical()), Draws(4))
        records = self.assert_matches_reference(make_canonical, batches)
        assert any(r["md_excess"] > 0 for r in records)
        assert any(r["feasible"] for r in records)

    def test_flow_cache_is_independent_of_evaluation_order(self, make_canonical):
        batches = generations(SearchSpace(make_canonical()), Draws(4))
        forward, backward = make_canonical(), make_canonical()
        ahead = score_batches(SearchSpace(forward), batches, 5.0)
        behind = score_batches(SearchSpace(backward), batches[::-1], 5.0)
        entries = flow_entries(forward)
        assert bits(entries) == bits(flow_entries(backward))
        assert ahead == behind
        # each entry is the flow at its key's own load: solving every key
        # afresh, in one batch, gives the same entries
        fresh = make_canonical()
        codes = np.array([w * 48 + slot for slot, w in entries])
        rows = fresh._flows(codes)
        assert not fresh._cache.errors and (rows >= 0).all()
        assert bits(flow_entries(fresh)) == bits(entries)

    def test_cap_binding_instance(self):
        def make():
            return ProblemContext(
                grid=GRID12, appliances=_family_md(), price=STEEP, md_kw=3.0,
                penalty_price=0.05,
            )

        batches = generations(SearchSpace(make()), Draws(6))
        records = self.assert_matches_reference(make, batches)
        assert any(r["md_excess"] > 0 for r in records)
        assert any(r["md_excess"] == 0 for r in records)

    def test_voltage_binding_instance(self):
        def make():
            return weak_feeder_context(0.15)

        batches = generations(SearchSpace(make()), Draws(8))
        records = self.assert_matches_reference(make, batches)
        assert any(r["voltage_violation"] > 0 for r in records)
        assert any(r["voltage_violation"] == 0 for r in records)
        assert not any(r["flow_failed"] for r in records)

    def test_genotypes_whose_flow_fails(self):
        def make():
            return weak_feeder_context(1.0)

        batches = generations(SearchSpace(make()), Draws(10))
        records = self.assert_matches_reference(make, batches)
        failed = [r for r in records if r["flow_failed"]]
        assert failed and len(failed) < len(records)
        # a failed row keeps the violations of the slots before its failure
        assert any(r["voltage_violation"] > 0 for r in failed)


def batch_keys(space, batches):
    """Every (slot, W) key the genotypes of `batches` load."""
    keys = set()
    for batch in batches:
        gross = space.gross_rows(space.slot_matrix(batch))
        watts = np.rint(gross * 1000.0).astype(np.int64).tolist()
        keys.update((slot, w) for row in watts for slot, w in enumerate(row))
    return keys


def assert_cache_is_indexed(ctx):
    """The cache's codes ascend strictly and index every entry row once."""
    cache = ctx._cache
    assert len(cache.codes) == len(cache.rows)
    assert (np.diff(cache.codes) > 0).all()
    assert sorted(cache.rows.tolist()) == list(range(len(cache.codes)))


class TestFlowCacheArrays:
    """The array flow cache against fresh one-key solves of its keys."""

    @pytest.fixture
    def instances(self, make_canonical):
        """name: (context factory, draws seed, population size); the
        canonical day's population is small because every key it loads is
        solved alone, one sweep call each."""
        def cap_binding():
            return ProblemContext(grid=GRID12, appliances=_family_md(), price=STEEP,
                                  md_kw=3.0, penalty_price=0.05)

        return {
            "canonical": (make_canonical, 4, 6),
            "cap_binding": (cap_binding, 6, 40),
            "voltage_binding": (lambda: weak_feeder_context(0.15), 8, 40),
            "failing_flows": (lambda: weak_feeder_context(1.0), 10, 40),
        }

    @staticmethod
    def scored(make, seed, size, order=lambda batches: batches):
        ctx = make()
        space = SearchSpace(ctx)
        batches = generations(space, Draws(seed), size=size)
        score_batches(space, order(batches), 5.0)
        return ctx, space, batches

    @pytest.mark.parametrize("name", ["canonical", "cap_binding", "voltage_binding",
                                      "failing_flows"])
    def test_every_entry_is_its_key_solved_alone(self, instances, name):
        make, seed, size = instances[name]
        ctx, space, batches = self.scored(make, seed, size)
        entries = flow_entries(ctx)
        if ctx.feeder is None:
            assert not entries and len(ctx._cache.codes) == 0
            return
        assert_cache_is_indexed(ctx)
        # every key is cached, a failed one with NaN loss and |V|
        assert entries.keys() == batch_keys(space, batches)
        failed = {key for key, (loss, _) in entries.items() if math.isnan(loss)}
        assert bool(failed) == (name == "failing_flows")
        fresh = make()
        alone = {(slot, w): fresh.slot_flow(slot, w / 1000.0)
                 for slot, w in entries if (slot, w) not in failed}
        assert bits(alone) == bits({key: entries[key] for key in alone})
        for slot, w in sorted(failed):
            assert all(math.isnan(mag) for mag in entries[slot, w][1])
            # with the error a context that knows nothing yet raises for it
            with pytest.raises(PowerFlowError) as cached:
                ctx.slot_flow(slot, w / 1000.0)
            with pytest.raises(PowerFlowError) as solved_alone:
                make().slot_flow(slot, w / 1000.0)
            assert str(cached.value) == str(solved_alone.value)
        assert bits(flow_entries(ctx)) == bits(entries)

    @pytest.mark.parametrize("name", ["canonical", "voltage_binding", "failing_flows"])
    def test_contents_do_not_depend_on_batch_order(self, instances, name):
        make, seed, size = instances[name]

        def shuffled(batches):
            mixer = random.Random(seed)
            return [mixer.sample(batch, len(batch)) for batch in batches[::-1]]

        ahead, _, _ = self.scored(make, seed, size)
        behind, _, _ = self.scored(make, seed, size, shuffled)
        assert bits(flow_entries(ahead)) == bits(flow_entries(behind))
        assert bits(ahead._cache.baseline) == bits(behind._cache.baseline)
        errors = [{code: str(error) for code, error in ctx._cache.errors.items()}
                  for ctx in (ahead, behind)]
        assert errors[0] == errors[1] and bool(errors[0]) == (name == "failing_flows")
        assert_cache_is_indexed(behind)

    def test_with_penalty_contexts_share_one_cache(self, instances, make_canonical,
                                                   monkeypatch):
        ctx = make_canonical()
        twin = ctx.with_penalty(0.10)
        batches = generations(SearchSpace(ctx), Draws(4), size=10)
        score_batches(SearchSpace(ctx), batches[:2], 5.0)
        score_batches(SearchSpace(twin), batches[2:], 5.0)
        assert twin._cache is ctx._cache
        alone, _, _ = self.scored(make_canonical, 4, 10)
        assert bits(flow_entries(twin)) == bits(flow_entries(alone))
        failing, _, failing_batches = self.scored(*instances["failing_flows"])
        # every key is now cached, a failed one too: scoring it all again on
        # either context, or on the failing instance, solves nothing
        sweeps, solve = [], costing.solve_power_flow_batch
        monkeypatch.setattr(costing, "solve_power_flow_batch",
                            lambda *args: sweeps.append(args) or solve(*args))
        score_batches(SearchSpace(twin), batches, 5.0)
        score_batches(SearchSpace(ctx), batches, 5.0)
        score_batches(SearchSpace(failing), failing_batches, 5.0)
        assert sweeps == []

    def test_a_miss_set_is_one_sweep_call(self, make_canonical, monkeypatch):
        # a fresh day's first population: every miss and every slot's
        # baseline go to the sweep in one call, however many cases they are
        ctx = make_canonical()
        space = SearchSpace(ctx)
        (population,) = generations(space, Draws(4), size=60, count=0)
        cases, solve = [], costing.solve_power_flow_batch
        monkeypatch.setattr(costing, "solve_power_flow_batch",
                            lambda *args: cases.append(len(args[1])) or solve(*args))
        space.evaluate(population, 5.0)
        misses = len(ctx._cache.codes)
        assert misses > 1500
        assert cases == [ctx.grid.slot_count + misses]

    def test_a_generation_is_one_evaluate_and_one_sweep_call(self, make_canonical,
                                                              monkeypatch):
        # each generation scores its offspring and the immigrants drawn
        # beside them in one evaluate call, whose flow misses are one sweep
        # call: the first population and 30 generations make 31 of each.
        # The original's day is priced first, as `cli.run_scenario` does
        ctx = make_canonical()
        total_cost(ctx.original_schedule(), ctx)
        calls, sweeps = [], []
        evaluate, solve = SearchSpace.evaluate, costing.solve_power_flow_batch
        monkeypatch.setattr(SearchSpace, "evaluate",
                            lambda self, *args: calls.append(args) or evaluate(self, *args))
        monkeypatch.setattr(costing, "solve_power_flow_batch",
                            lambda *args: sweeps.append(args) or solve(*args))
        result = optimize(ctx, CsaConfig(rng_seed=0, generations=30, stall_generations=400))
        assert result.history[-1][0] == 30
        assert (len(calls), len(sweeps)) == (31, 31)

    def test_merges_keep_the_index_sorted(self):
        # one genotype per merge: each merge's codes fall between cached ones
        ctx = weak_feeder_context(0.15)
        space = SearchSpace(ctx)
        interleaved = 0
        for ab in chain.from_iterable(generations(space, Draws(8), size=10)):
            before = ctx._cache.codes
            space.evaluate([ab], 5.0)
            assert_cache_is_indexed(ctx)
            new = np.setdiff1d(ctx._cache.codes, before)
            if before.size:
                interleaved += bool(((new > before[0]) & (new < before[-1])).any())
        assert interleaved > 10

    def test_cache_against_a_dict(self):
        # random codes merged in random-sized batches, across several
        # capacity doublings, read back through `find` against a plain dict
        cache = costing._FlowCache()
        rng = np.random.default_rng(5)
        reference = {}
        for _ in range(40):
            codes = rng.choice(np.arange(-500, 5000), size=rng.integers(1, 60), replace=False)
            codes = np.array([c for c in codes.tolist() if c not in reference], dtype=np.int64)
            loss = rng.random(len(codes))
            mags = rng.random((len(codes), 3))
            cache.add(codes, loss, mags)
            reference.update(zip(codes.tolist(), zip(loss.tolist(), mags.tolist())))
            assert (np.diff(cache.codes) > 0).all()
            assert sorted(cache.rows.tolist()) == list(range(len(cache.codes)))
            probe = np.arange(-600, 5100)
            rows = cache.find(probe)
            assert (rows >= 0).tolist() == [c in reference for c in probe.tolist()]
            got = {c: (cache.loss[r], cache.mags[r].tolist())
                   for c, r in zip(probe.tolist(), rows.tolist()) if r >= 0}
            assert got == reference
        assert len(cache.loss) < 2 * len(cache.codes)


class TestFlowCacheMemory:
    def test_heap_per_entry(self, make_canonical):
        # about 730 bytes per entry as a dict of tuples of Python floats;
        # as arrays, 16 bytes of index plus 8 + 8 x buses bytes of loss and
        # |V| per entry, with up to 2x growth headroom on the latter
        ctx = make_canonical()
        space = SearchSpace(ctx)
        batches = generations(space, Draws(4))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            score_batches(space, batches, 5.0)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        entries = len(flow_entries(ctx))
        assert entries > 1000
        assert retained / entries < 300


class TestScorersAgreeOnTheFullDay:
    """`SearchSpace.evaluate`, the objective the search minimises, against
    `total_cost` and `is_feasible`, which price and check every reported
    schedule, on the configured 48-slot days."""

    @pytest.mark.parametrize("name, penalty", [
        ("scenario_a", 0.0), ("scenario_b", 0.10), ("scenario_c", 0.05),  # c: feeder, PV, cap
    ])
    def test_evaluate_matches_the_reference_scorer(self, name, penalty):
        ctx = load_scenario_config(FIXTURES.parent / "configs" / f"{name}.json").context(penalty)
        space = SearchSpace(ctx)
        draws = Draws(7)
        drawn = [space.original_antibody()] + [space.random_antibody(draws) for _ in range(99)]
        genotypes = drawn + clone_and_hypermutate(drawn[:40], draws, space)
        feasible = []
        scores = eval_reference.rows(space.evaluate(genotypes, 1.0))
        for antibody, ev in zip(genotypes, scores):
            schedule = space.decode(antibody)
            cost = total_cost(schedule, ctx)
            assert (ev["shift_slots"], ev["weighted_shift"]) == (
                cost.total_shift_slots, cost.weighted_shift)
            # the gross load sums the same ratings in another order (a matmul
            # in aggregate_power, a bincount in gross_rows): last bits differ
            assert ev["energy_usd"] == pytest.approx(cost.energy_usd, rel=1e-12, abs=0)
            assert ev["total_usd"] == pytest.approx(cost.total_usd, rel=1e-12, abs=0)
            assert ev["feasible"] == is_feasible(schedule, ctx).feasible
            feasible.append(ev["feasible"])
        assert len(genotypes) == 270 and any(feasible) and not all(feasible)


class TestOptimize:
    def test_same_seed_same_result(self):
        ctx = steep_context(penalty=0.05)
        a = optimize(ctx, CsaConfig(rng_seed=42, **FAST))
        b = optimize(ctx, CsaConfig(rng_seed=42, **FAST))
        assert a.schedule == b.schedule
        assert a.breakdown.total_usd == b.breakdown.total_usd
        assert a.history == b.history
        assert a.evaluations == b.evaluations

    def test_incumbent_total_never_worsens(self):
        result = optimize(steep_context(), CsaConfig(rng_seed=3, **FAST))
        totals = [t for _, t, _ in result.history if not math.isnan(t)]
        assert totals == sorted(totals, reverse=True)
        evals = [e for _, _, e in result.history]
        assert evals == sorted(evals)

    def test_never_worse_than_feasible_original(self):
        ctx = steep_context(penalty=0.05)
        original_total = total_cost(ctx.original_schedule(), ctx).total_usd
        result = optimize(ctx, CsaConfig(rng_seed=1, **FAST))
        assert result.success
        assert result.breakdown.total_usd <= original_total + 1e-12

    def test_flat_price_with_penalty_returns_original(self):
        ctx = ProblemContext(
            grid=GRID12, appliances=_family_steep(), price=FLAT, penalty_price=0.05
        )
        result = optimize(ctx, CsaConfig(rng_seed=5, **FAST))
        assert result.success
        assert result.schedule == ctx.original_schedule()
        assert result.breakdown.penalty_usd == 0.0

    def test_huge_penalty_freezes_the_original_plan(self):
        ctx = steep_context(penalty=1e6)
        result = optimize(ctx, CsaConfig(rng_seed=8, **FAST))
        assert result.schedule == ctx.original_schedule()
        assert result.breakdown.total_shift_slots == 0

    def test_result_schedule_is_feasible_and_reported(self):
        ctx = ProblemContext(
            grid=GRID12, appliances=_family_md(), price=STEEP, md_kw=3.0
        )
        result = optimize(ctx, CsaConfig(rng_seed=2, **FAST))
        assert result.success
        assert result.feasibility.feasible
        assert result.breakdown is not None
        assert result.seed == 2

    def test_unsatisfiable_cap_reports_least_infeasible(self):
        # baseline alone exceeds the cap; no schedule can be feasible
        ctx = ProblemContext(
            grid=GRID12, appliances=_family_steep(), price=STEEP, md_kw=0.3
        )
        result = optimize(ctx, CsaConfig(rng_seed=4, **FAST))
        assert not result.success
        assert "no feasible antibody" in result.message
        assert not result.feasibility.feasible
        assert result.feasibility.max_demand
        assert result.schedule is not None

    def test_baseline_only_context(self):
        # no flexible appliance: the empty genotype is the only candidate
        ctx = ProblemContext(grid=GRID12, appliances=(_baseline(),), price=STEEP)
        result = optimize(ctx, CsaConfig(rng_seed=0, **FAST))
        assert result.success
        assert result.schedule == ctx.original_schedule()
        assert result.breakdown.total_usd == pytest.approx(0.294, abs=1e-12)
        assert result.evaluations == 1
        oracle = sweep_penalties(SmallInstance(context=ctx), [0.0])[0.0]
        assert oracle.total_usd == pytest.approx(0.294, abs=1e-12)
        assert oracle.feasible_count == 1

    def test_stall_cuts_the_run_short(self):
        config = CsaConfig(rng_seed=0, population_size=12, generations=400,
                           stall_generations=5)
        result = optimize(steep_context(), config)
        assert result.history[-1][0] < 400


def immigrant_context():
    """60 genotypes: a population of 20 draws 3 immigrants a generation,
    which are often already scored, bred as offspring in their own
    generation, or drawn twice."""
    return ProblemContext(grid=GRID12, price=STEEP, penalty_price=0.05, appliances=(
        _baseline(),
        _uninterruptible(2, (1, 8), 3, 1.0, original_start=5),
        _interruptible(3, (7, 11), 2, 1.5, original=(8, 9)),
    ))


# the results of scoring each generation's immigrants in a call of their
# own, after selection: per run, its config, history and evaluations
IMMIGRANT_PINS = {
    "generation_limit": (
        dict(rng_seed=3, generations=12, stall_generations=400),
        [
            (0, 0.6465000000000001, 18), (1, 0.6465000000000001, 38),
            (2, 0.6465000000000001, 48), (3, 0.6465000000000001, 55),
            (4, 0.6465000000000001, 55), (5, 0.6465000000000001, 56),
            (6, 0.6465000000000001, 56), (7, 0.6465000000000001, 57),
            (8, 0.6465000000000001, 59), (9, 0.6465000000000001, 59),
            (10, 0.6465000000000001, 59), (11, 0.6465000000000001, 59),
            (12, 0.6465000000000001, 59),
        ],
        59,
    ),
    "stall": (
        dict(rng_seed=12, generations=400, stall_generations=8),
        [
            (0, 0.7365, 19), (1, 0.6465000000000001, 42), (2, 0.6465000000000001, 48),
            (3, 0.6465000000000001, 51), (4, 0.6465000000000001, 53),
            (5, 0.6465000000000001, 53), (6, 0.6465000000000001, 53),
            (7, 0.6465000000000001, 54), (8, 0.6465000000000001, 55),
            (9, 0.6465000000000001, 56),
        ],
        56,
    ),
}


class TestImmigrantsScoredWithOffspring:
    """`optimize` scores each generation's immigrants in its offspring's
    evaluate call, and counts them when they join the population."""

    @pytest.mark.parametrize("name", list(IMMIGRANT_PINS))
    def test_history_and_evaluations_are_pinned(self, name, monkeypatch):
        config, history, evaluations = IMMIGRANT_PINS[name]
        log = []
        breed, draw = csa.clone_and_hypermutate, SearchSpace.random_antibody
        monkeypatch.setattr(csa, "clone_and_hypermutate",
                            lambda *args: log.append(breed(*args)) or log[-1])
        monkeypatch.setattr(SearchSpace, "random_antibody",
                            lambda self, draws: log.append(draw(self, draws)) or log[-1])
        result = optimize(immigrant_context(), CsaConfig(population_size=20, **config))
        assert result.history == history
        assert result.evaluations == evaluations
        if name == "stall":
            assert result.history[-1][0] < config["generations"]

        # the log is the first population's draws, then per generation its
        # offspring (a list) and its immigrants (the draws after it)
        first = next(i for i, entry in enumerate(log) if isinstance(entry, list))
        bred = []
        for entry in log[first:]:
            if isinstance(entry, list):
                bred.append((entry, []))
            else:
                bred[-1][1].append(entry)
        scored = set(log[:first])
        cases = Counter()
        for offspring, immigrants in bred:
            for i, ab in enumerate(immigrants):
                cases["scored" if ab in scored else "offspring" if ab in offspring
                      else "immigrant" if ab in immigrants[:i] else "new"] += 1
            scored.update(offspring, immigrants)
        assert cases.keys() == {"scored", "offspring", "immigrant", "new"}


class TestEdgeSpaces:
    """`optimize` on the edge spaces of `edge_context`, against the results
    the tuple genotypes gave."""

    @pytest.mark.parametrize("name, seed", list(EDGE_PINS))
    def test_results_are_pinned(self, name, seed):
        ctx = edge_context(name)
        result = optimize(ctx, CsaConfig(rng_seed=seed, **EDGE_CONFIG))
        history, evaluations, on_slots, total = EDGE_PINS[name, seed]
        assert result.success
        assert result.history == history
        assert result.evaluations == evaluations
        rows = [f.row for f in SearchSpace(ctx).flex]
        assert [result.schedule.on_slots(row) for row in rows] == on_slots
        every_slot = tuple(ctx.grid.slots())
        assert all(result.schedule.on_slots(row) == every_slot
                   for row in range(len(ctx.appliances)) if row not in rows)
        assert result.breakdown.total_usd == total
