import gc
import math
import random
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st, target

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
    probe), an empty gene between two others (a zero-duration slot set),
    and a grid of more than 255 slots (two bytes per slot)."""
    if name == "no_flexible":
        return ProblemContext(grid=GRID12, appliances=(_baseline(),), price=STEEP)
    if name == "empty_gene":
        return ProblemContext(grid=GRID12, price=STEEP, penalty_price=0.05, appliances=(
            _baseline(),
            _uninterruptible(2, (1, 12), 3, 1.0, original_start=4),
            _interruptible(3, (1, 12), 0, 2.5, original=()),
            _interruptible(4, (1, 12), 2, 1.5, original=(7, 8)),
        ))
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
            (0, 4.046, 12), (1, 3.1742399999999997, 49), (2, 3.1742399999999997, 88),
            (3, 2.7758399999999996, 127), (4, 2.7758399999999996, 165),
            (5, 2.696159999999999, 204), (6, 2.6155199999999996, 241), (7, 2.58416, 280),
            (8, 2.56272, 317), (9, 2.56272, 356),
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
            (0, 4.23312, 12), (1, 2.644799999999999, 47), (2, 2.5403999999999995, 86),
            (3, 2.4743999999999997, 124), (4, 2.4743999999999997, 163),
            (5, 2.4743999999999997, 201), (6, 2.4743999999999997, 239),
            (7, 2.4743999999999997, 275), (8, 2.4743999999999997, 312),
            (9, 2.4743999999999997, 351), (10, 2.4743999999999997, 389),
            (11, 2.4587999999999997, 425), (12, 2.4335999999999998, 462),
            (13, 2.4335999999999998, 501), (14, 2.4335999999999998, 540),
        ],
        540,
        [
            (250, 251, 252, 253, 254), (248, 251, 257, 270), (3, 128, 256),
            (100, 101, 102, 103, 104, 105),
        ],
        2.4335999999999998,
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

    def test_integers_array(self, monkeypatch):
        # one list of draws that starts and ends on a kept half and reads
        # across two block boundaries: on plain bounds, one array pass;
        # with the rejection-heavy bound among them, a rejection puts the
        # stream back and `integers` draws the list one by one
        scalar, calls = Draws.integers, []
        monkeypatch.setattr(Draws, "integers",
                            lambda self, bounds: calls.append(bounds) or scalar(self, bounds))
        for seed in range(20):
            pick = random.Random(seed)
            for heavy in (False, True):
                draws, gen = Draws(seed), np.random.default_rng(seed)
                assert draws.integers([7]) == gen.integers(0, [7]).tolist(), seed
                # 2300 draws from a kept half: 1150 words from the second on
                bounds = [pick.choice((2, 3, 48, 255, 1000, 65535, (1 << 32) - 1))
                          for _ in range(2300)]
                if heavy:
                    for at in pick.sample(range(2300), 12):
                        bounds[at] = HEAVY
                for _ in range(400):
                    bounds.insert(pick.randrange(len(bounds) + 1), 1)
                calls.clear()
                assert draws._half >= 0, seed
                values = draws.integers_array(np.array(bounds, np.uint64))
                assert values.dtype == np.int64, seed
                assert values.tolist() == gen.integers(0, bounds).tolist(), (seed, heavy)
                assert len(calls) == heavy, (seed, heavy)
                # a rejected draw reads one half more
                assert draws._half >= 0 or heavy, seed
                assert draws.integers([NEXT]) == gen.integers(0, [NEXT]).tolist(), (seed, heavy)


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

        def spy(n, counts, draws, space, exact):
            walks.append(exact)
            return walk(n, counts, draws, space, exact)

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
            counted = walk(len(keys), clone_counts(len(keys)), draws, space, False)
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

    @settings(max_examples=80, deadline=None)
    @given(space=_breeding_space(), count=st.sampled_from((0, 1, 9, 59)),
           seed=st.integers(0, 2**32 - 1), kept=st.booleans())
    @example(space=SearchSpace(edge_context("no_flexible")), count=9, seed=0, kept=True)
    @example(space=SearchSpace(edge_context("fixed_genes")), count=9, seed=1, kept=True)
    @example(space=SearchSpace(edge_context("grid300")), count=59, seed=2, kept=True)
    def test_random_antibodies_in_one_call(self, space, count, seed, kept):
        # `count` genotypes in one call are `count` of the reference's, one
        # after another, from a stream with or without a kept half
        draws, ref = Draws(seed), csa_reference.Draws(seed)
        if kept:
            assert draws.integers([7]) == [ref.below(7)]
        drawn = space.random_antibodies(draws, count)
        assert [space.genes_of(ab) for ab in drawn] == [
            csa_reference.random_antibody(space, ref) for _ in range(count)]
        assert same_position(draws, ref) and same_position(draws, ref)

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
        # one summation order: `gross` is `aggregate_power` bit for bit
        from dsmsched.domain import aggregate_power
        scenario_c = load_scenario_config(FIXTURES.parent / "configs" / "scenario_c.json")
        for ctx in (steep_context(), scenario_c.context()):
            space = SearchSpace(ctx)
            draws = Draws(3)
            for _ in range(25):
                ab = space.random_antibody(draws)
                direct = space.gross(ab)
                via_schedule = aggregate_power(space.decode(ab), ctx.appliances)
                assert direct.tolist() == via_schedule.tolist()

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

    def test_an_empty_last_gene_is_encoded(self):
        # a zero-duration slot set last: its offset is the genotype width
        ctx = ProblemContext(grid=GRID12, price=STEEP, penalty_price=0.05, appliances=(
            _baseline(),
            _uninterruptible(2, (1, 12), 3, 1.0, original_start=4),
            _interruptible(3, (1, 12), 0, 2.5, original=()),
        ))
        space = SearchSpace(ctx)
        assert space.width == space.flex[-1].offset == 3
        draws = Draws(2)
        offspring = clone_and_hypermutate(space.random_antibodies(draws, 6), draws, space)
        assert {space.genes_of(ab)[1] for ab in offspring} == {()}
        result = optimize(ctx, CsaConfig(rng_seed=0, **EDGE_CONFIG))
        (oracle_total,) = {r.total_usd for r in sweep_penalties(SmallInstance(ctx), [0.05]).values()}
        assert result.success and result.breakdown.total_usd == oracle_total


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
    @given(appliances=st.lists(_flexible_on_16_slots(), min_size=1, max_size=4).map(
               lambda apps: [replace(a, id=aid) for aid, a in enumerate(apps, start=1)]),
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
        assert space.pack(space.slot_matrix([ka, kb])) == [ka, kb]
        assert space.pack(space.slot_matrix([])) == []

    def test_no_flexible_appliance_packs_to_empty_genotypes(self):
        space = SearchSpace(edge_context("no_flexible"))
        assert space.width == 0
        assert space.pack(np.zeros((2, 0), np.intp)) == [b"", b""]
        assert space.pack(space.slot_matrix([])) == []
        assert space.key([]) == space.original_antibody() == b""
        assert space.genes_of(b"") == ()

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
    schedule, on the configured 48-slot days and on the edge spaces."""

    @staticmethod
    def assert_scorers_agree(ctx):
        """Check the scorers on the original plan, 99 random genotypes and
        their offspring; return whether each of them is feasible."""
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
            assert (ev["energy_usd"], ev["total_usd"]) == (cost.energy_usd, cost.total_usd)
            assert ev["feasible"] == is_feasible(schedule, ctx).feasible
            feasible.append(ev["feasible"])
        return feasible

    # every (config, penalty price) pair `dsm-sched run` optimizes; c has
    # the feeder, PV and the cap
    @pytest.mark.parametrize("name, penalty", [
        ("scenario_a", 0.0), *(("scenario_b", pi) for pi in (0.05, 0.10, 0.20)),
        *(("scenario_c", pi) for pi in (0.0, 0.05, 0.10, 0.20)),
    ])
    def test_evaluate_matches_the_reference_scorer(self, name, penalty):
        ctx = load_scenario_config(FIXTURES.parent / "configs" / f"{name}.json").context(penalty)
        feasible = self.assert_scorers_agree(ctx)
        assert len(feasible) == 270 and any(feasible) and not all(feasible)

    # an empty gene shifts nothing, whatever the gene after it does
    @pytest.mark.parametrize("name", ["no_flexible", "fixed_genes", "empty_gene", "grid300"])
    def test_evaluate_matches_the_reference_scorer_on_the_edge_spaces(self, name):
        self.assert_scorers_agree(edge_context(name))


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
        # beyond TIE_TOL: a near-tie the incumbent rule prefers (fewer shift
        # slots, then the earlier genotype) may take over a few ulps higher,
        # as at generation 1 here, one ulp above 0.47150000000000003
        result = optimize(steep_context(), CsaConfig(rng_seed=3, **FAST))
        totals = [t for _, t, _ in result.history if not math.isnan(t)]
        assert all(later - earlier <= csa.TIE_TOL for earlier, later in zip(totals, totals[1:]))
        assert totals[-1] == min(totals)
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

    def test_failed_original_flow_reports_least_infeasible(self):
        # the original plan's own flow diverges in slot 8; the run prices
        # it from its batch row instead of raising, and returns a result
        ctx = weak_feeder_context(1.0)
        with pytest.raises(PowerFlowError):
            total_cost(ctx.original_schedule(), ctx)
        result = optimize(ctx, CsaConfig(rng_seed=0, **FAST))
        assert not result.success
        assert result.message == "no feasible antibody found; returning least-infeasible candidate"
        assert not result.feasibility.feasible

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
            (4, 0.6465000000000001, 56), (5, 0.6465000000000001, 57),
            (6, 0.6465000000000001, 57), (7, 0.6465000000000001, 58),
            (8, 0.6465000000000001, 60), (9, 0.6465000000000001, 60),
            (10, 0.6465000000000001, 60), (11, 0.6465000000000001, 60),
            (12, 0.6465000000000001, 60),
        ],
        60,
    ),
    "stall": (
        dict(rng_seed=12, generations=400, stall_generations=8),
        [
            (0, 0.7365, 19), (1, 0.6465000000000001, 43), (2, 0.6465000000000001, 50),
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
        plan, breed, draw = csa._draw_plan, csa._breed, SearchSpace.random_antibodies
        monkeypatch.setattr(csa, "_draw_plan",
                            lambda *args: log.append(("bred", plan(*args))) or log[-1][1])
        monkeypatch.setattr(SearchSpace, "random_antibodies",
                            lambda self, draws, count:
                            log.append(("drawn", draw(self, draws, count))) or log[-1][1])
        offspring_of = []
        monkeypatch.setattr(csa, "_breed",
                            lambda *args: offspring_of.append(breed(*args)) or offspring_of[-1])
        result = optimize(immigrant_context(), CsaConfig(population_size=20, **config))
        assert result.history == history
        assert result.evaluations == evaluations
        if name == "stall":
            assert result.history[-1][0] < config["generations"]

        # the log is the first population's draws, then per generation its
        # hypermutation plan and its immigrants, drawn in one call right
        # after it; each plan is bred once
        generations = result.history[-1][0]
        assert [kind for kind, _ in log] == ["drawn"] + ["bred", "drawn"] * generations
        assert len(offspring_of) == generations
        bred = list(zip(offspring_of, [immigrants for _, immigrants in log[2::2]]))
        scored = set(log[0][1])
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


def canonical_contexts():
    """The three shipped configs, each at penalty prices 0, 3, 5 and 20 c,
    every price of a config reading its one flow cache."""
    for name in ("scenario_a", "scenario_b", "scenario_c"):
        cfg = load_scenario_config(FIXTURES.parent / "configs" / f"{name}.json")
        for pi in (0.0, 0.03, 0.05, 0.20):
            yield f"{name}_{pi}", cfg.context(pi)


def unbounded(monkeypatch):
    """Make every ceiling +inf, so that `optimize` scores every genotype."""
    bounds = SearchSpace.bounds

    def ceilings(self, batch, weight):
        ceiling, floor, over = bounds(self, batch, weight)
        return np.full_like(ceiling, math.inf), floor, over
    monkeypatch.setattr(SearchSpace, "bounds", ceilings)


def outcome(result):
    """Every field of an `OptimResult`, floats bit for bit."""
    return (result.success, result.schedule.matrix.tolist(), bits(result.breakdown.to_dict()
            if result.breakdown else None), repr(result.feasibility), bits(result.history),
            result.evaluations, result.seed, result.message)


def count_rows(monkeypatch, counts):
    """Count `evaluate` calls and the rows they score into `counts`."""
    evaluate = SearchSpace.evaluate

    def counted(self, batch, weight):
        scores = evaluate(self, batch, weight)
        counts["calls"] += 1
        counts["rows"] += len(scores.score)
        return scores
    monkeypatch.setattr(SearchSpace, "evaluate", counted)


DIFF_CONFIG = dict(population_size=30, generations=8, stall_generations=8)


def differential_runs():
    """(label, context, config) of at least 50 runs: the canonical days, a
    feeder whose band binds, the small suite's feeder family and the edge
    spaces."""
    for label, ctx in canonical_contexts():
        for seed in (3, 4):
            yield label, ctx, CsaConfig(rng_seed=seed, **DIFF_CONFIG)
    for r_pu in (0.05, 0.10, 0.15, 1.0):
        ctx = weak_feeder_context(r_pu)
        for seed in (0, 1, 2, 3):
            yield f"weak_{r_pu}", ctx, CsaConfig(rng_seed=seed, **FAST)
    for label, ctx in build_suite():
        if label.startswith("feeder"):
            for seed in (5, 6):
                yield label, ctx, CsaConfig(rng_seed=seed, **FAST)
    for name in ("no_flexible", "fixed_genes", "empty_gene", "grid300"):
        for seed in (0, 7):
            yield name, edge_context(name), CsaConfig(rng_seed=seed, **EDGE_CONFIG)


@st.composite
def incumbent_keys(draw):
    """A start incumbent key and a run of keys after it, (total,
    shift_slots, genotype), each total a few TIE_TOL from the one before
    and its shift slots mostly fewer, so that near-ties win often."""
    start = (draw(st.floats(0.0, 1e3)), 60, draw(st.binary(max_size=1)))
    keys, (total, shift, _) = [], start
    for quarters, fewer in draw(st.lists(st.tuples(st.integers(-8, 12), st.integers(-1, 2)),
                                         max_size=30)):
        total += quarters * csa.TIE_TOL / 4
        shift -= fewer
        keys.append((total, shift, draw(st.binary(max_size=1))))
    return start, keys


class TestBoundedOffspring:
    """`optimize` only bounds the offspring that provably can neither
    survive selection nor take the incumbent; its results are those of
    scoring every genotype."""

    # totals 1.25 TIE_TOL apart, each with fewer shift slots: a tie window
    # of 1.25 TIE_TOL or more accepts every one and climbs past the margin
    @settings(max_examples=300, deadline=None)
    @given(incumbent_keys())
    @example(((0.5, 9, b""), [(0.5 + 1.25e-9 * k, 9 - k, b"") for k in range(1, 10)]))
    def test_the_scan_climbs_less_than_the_incumbent_margin(self, drawn):
        # `optimize` bounds an offspring whose total floor is more than
        # TIE_TOL * (len(pool) + 1) above the incumbent's total: a scan over
        # the pool must never reach it
        start, keys = drawn
        margin = csa.TIE_TOL * (len(keys) + 1)
        best = start
        for key in keys:
            if csa._better_incumbent(key, best):
                assert not key[0] - start[0] > margin
                best = key
            assert best[0] - start[0] <= margin
        # steer the search towards runs that climb as far as they can
        target((best[0] - start[0]) / csa.TIE_TOL - len(keys))

    def test_results_equal_scoring_every_genotype(self, monkeypatch):
        runs = list(differential_runs())
        assert len(runs) >= 50
        shipped, counts = [], Counter()
        with monkeypatch.context() as patch:
            count_rows(patch, counts)
            for _, ctx, config in runs:
                shipped.append(outcome(optimize(ctx, config)))
        scored = Counter()
        count_rows(monkeypatch, scored)
        unbounded(monkeypatch)
        for (label, ctx, config), result in zip(runs, shipped):
            assert outcome(optimize(ctx, config)) == result, (label, config.rng_seed)
        # the same calls, and 15,085 rows scored instead of 39,574
        assert counts["calls"] == scored["calls"]
        assert counts["rows"] < 0.5 * scored["rows"]

    # a survivor floor of +inf bounds every offspring the incumbent margin
    # lets go, so the repair step after selection scores those that rank
    # early, in calls of their own
    @pytest.mark.parametrize("label, tie_tol, config", [
        ("scenario_c_0.2", csa.TIE_TOL, CsaConfig(rng_seed=2, **DIFF_CONFIG)),
        ("scenario_c_0.2", 0.05, CsaConfig(rng_seed=2, **DIFF_CONFIG)),
        ("weak_0.15", csa.TIE_TOL, CsaConfig(rng_seed=2, **DIFF_CONFIG)),
        ("feeder_pi0", 0.1, CsaConfig(rng_seed=5, population_size=12, generations=10,
                                      stall_generations=10)),
    ])
    def test_a_floor_that_skips_everything_falls_back(self, label, tie_tol, config,
                                                      monkeypatch):
        contexts = {"weak_0.15": weak_feeder_context(0.15), **dict(build_suite())}
        ctx = contexts[label] if label in contexts else dict(canonical_contexts())[label]
        monkeypatch.setattr(csa, "TIE_TOL", tie_tol)
        with monkeypatch.context() as patch:
            unbounded(patch)
            reference = outcome(optimize(ctx, config))
        counts = Counter()
        count_rows(monkeypatch, counts)
        monkeypatch.setattr(csa, "_predicted_floor", lambda *args: math.inf)
        result = optimize(ctx, config)
        assert outcome(result) == reference
        # on feeder_pi0 a tolerance of 10 c puts the margin past every total
        # and no offspring is over the cap: nothing is bounded or repaired
        if label != "feeder_pi0":
            assert counts["calls"] > result.history[-1][0] + 1

    # every (config, penalty price) pair `dsm-sched run` optimizes, a feeder
    # whose band binds and one whose flows fail
    @pytest.mark.parametrize("name, penalty", [
        ("scenario_a", 0.0), *(("scenario_b", pi) for pi in (0.05, 0.10, 0.20)),
        *(("scenario_c", pi) for pi in (0.0, 0.05, 0.10, 0.20)),
        ("weak", 0.15), ("weak", 1.0),
    ])
    def test_bounds_hold_as_ieee_values(self, name, penalty):
        ctx = (weak_feeder_context(penalty) if name == "weak" else
               load_scenario_config(FIXTURES.parent / "configs" / f"{name}.json").context(penalty))
        space = SearchSpace(ctx)
        draws = Draws(11)
        drawn = [space.original_antibody()] + space.random_antibodies(draws, 199)
        genotypes = drawn + clone_and_hypermutate(drawn[:60], draws, space)
        batch = space.price(space.slot_matrix(genotypes))
        for weight in (1.0, 60.0):
            ceiling, floor, over = space.bounds(batch, weight)
            scores = space.evaluate(batch, weight)
            assert (ceiling >= scores.score).all()
            assert (floor <= scores.total_usd).all()
            assert np.array_equal(over, scores.md_excess > 0.0)
            assert bits(eval_reference.rows(scores)) == bits(
                eval_reference.rows(space.evaluate(genotypes, weight)))
        if penalty == 1.0:
            assert scores.flow_failed.any()

    def test_bound_and_sweep_counts_are_pinned(self, monkeypatch):
        # scenario_c's day at 20 c, its original priced first, as
        # `cli.run_scenario` does: the rows bounded and scored, and the
        # sweep's calls and cases
        ctx = load_scenario_config(FIXTURES.parent / "configs" / "scenario_c.json").context(0.20)
        total_cost(ctx.original_schedule(), ctx)
        counts = Counter()
        count_rows(monkeypatch, counts)
        bounds, solve = SearchSpace.bounds, costing.solve_power_flow_batch

        def bounded(self, batch, weight):
            counts["bounded"] += len(batch.gross)
            return bounds(self, batch, weight)

        def swept(*args):
            counts["sweeps"] += 1
            counts["cases"] += len(args[1])
            return solve(*args)
        monkeypatch.setattr(SearchSpace, "bounds", bounded)
        monkeypatch.setattr(costing, "solve_power_flow_batch", swept)
        result = optimize(ctx, CsaConfig(rng_seed=5, generations=12, stall_generations=12))
        # one evaluate and one sweep call per generation and for the first
        # population; 499 of the 3,419 rows bounded are scored
        assert dict(counts) == {"bounded": 3419, "calls": 13, "rows": 499,
                                "sweeps": 13, "cases": 4970}
        assert result.evaluations == 3384


def stream_position(draws):
    """Where a `Draws` stands: its generator's state, word and kept half."""
    return draws._bits.state, draws._pos, draws._half


def rejecting_draws(space, n, seed):
    """A maker of fresh `Draws` of `seed` whose first block has one slot
    set's sample half zeroed, on a bound that rejects zero: breeding a
    population of `n` from one takes the exact re-walk.  None when no
    sample draw of the block can reject."""
    words = np.random.PCG64(seed).random_raw(512).tolist()

    def crafted(words):
        draws = Draws(seed)
        draws._block, draws._pos = list(words), 0
        return draws

    counted = csa._walk(n, clone_counts(n), crafted(words), space, False)
    for k, records in enumerate(counted.sets):
        for at, first in zip(records[0::2], records[1::2]):
            # an empty gene shares its offset with the next gene
            f = next(f for f in space.flex if f.offset == at % space.width and f.duration)
            bounds = (sample_bounds(f.duration, k)
                      + sample_bounds(len(f.window) - f.duration + k, k))
            for i, bound in enumerate(bounds):
                if bound & (bound - 1) and first + i < 2 * len(words):
                    half = first + i
                    words[half // 2] &= 0xFFFFFFFF00000000 if half % 2 == 0 else 0xFFFFFFFF
                    return lambda: crafted(words)
    return None


class TestPlanIsIndependentOfTheParents:
    """A generation's hypermutation plan reads the stream alone: one plan,
    applied to any ranked population of its size, breeds what
    `clone_and_hypermutate` breeds of that population from the same
    stream, which it leaves at the same place."""

    @staticmethod
    def populations(space, n, seed):
        """Two different ranked populations of `n`."""
        return ([space.original_antibody()] + space.random_antibodies(Draws(seed + 100), n - 1),
                space.random_antibodies(Draws(seed + 200), n))

    def check(self, space, n, seed, fresh, walks):
        """Breed both populations from one plan drawn from `fresh()`, and
        each by `clone_and_hypermutate` from a `fresh()` of its own; the
        walks the plan took."""
        draws = fresh()
        walks.clear()
        plan = csa._draw_plan(n, draws, space)
        drawn = list(walks)
        for parents in self.populations(space, n, seed):
            alone = fresh()
            assert csa._breed(parents, plan, space) == clone_and_hypermutate(parents, alone, space)
            assert stream_position(alone) == stream_position(draws)
        return drawn

    @pytest.fixture
    def walks(self, monkeypatch):
        """Whether each walk since the last clear drew its sample draws."""
        walk, exact = csa._walk, []

        def spy(n, counts, draws, space, drawn):
            exact.append(drawn)
            return walk(n, counts, draws, space, drawn)
        monkeypatch.setattr(csa, "_walk", spy)
        return exact

    @pytest.mark.parametrize("name", ["no_flexible", "fixed_genes", "empty_gene", "grid300"])
    def test_one_plan_breeds_any_population(self, name, walks):
        space = SearchSpace(edge_context(name))
        for seed in range(8):
            for n in (2, 5, 12):
                assert self.check(space, n, seed, lambda: Draws(seed), walks) == [False], (
                    seed, n)

    @pytest.mark.parametrize("name", ["empty_gene", "grid300"])
    def test_a_plan_of_the_exact_re_walk(self, name, walks):
        space = SearchSpace(edge_context(name))
        for seed in range(4):
            fresh = rejecting_draws(space, 12, seed)
            assert fresh is not None, seed
            assert self.check(space, 12, seed, fresh, walks) == [False, True], seed


class TestOptimizePenalties:
    """`optimize_penalties` draws a search once per seed and replays it at
    every later price: each price's result is `optimize`'s of that price
    alone, on a context of its own, bit for bit."""

    # on `steep_context` at STALL, the prices stall at these generations
    PRICES = (0.0, 0.02, 0.05, 0.2, 1.0)
    STALL = dict(generations=60, stall_generations=6)
    LENGTHS = {(1, 8): [10, 11, 9, 12, 6], (3, 20): [9, 10, 7, 11, 6]}

    def test_each_price_equals_its_own_run(self):
        # two seeds and two population sizes swept on one context, and so
        # one flow cache
        ctx = steep_context()
        for (seed, size), lengths in self.LENGTHS.items():
            config = CsaConfig(population_size=size, rng_seed=seed, **self.STALL)
            swept = csa.optimize_penalties(ctx, self.PRICES, config)
            assert list(swept) == list(self.PRICES)
            alone = {pi: optimize(replace(steep_context(), penalty_price=pi), config)
                     for pi in self.PRICES}
            assert {pi: outcome(r) for pi, r in swept.items()} == {
                pi: outcome(r) for pi, r in alone.items()}
            # later prices that run past every earlier one, drawing on
            # where the record ends, and that stall before the first
            assert [alone[pi].history[-1][0] for pi in self.PRICES] == lengths

    def test_one_price_records_nothing(self, monkeypatch):
        streams = []
        run = csa._optimize
        config = CsaConfig(population_size=8, rng_seed=1, **self.STALL)
        alone = optimize(steep_context(0.05), config)
        monkeypatch.setattr(csa, "_optimize", lambda space, config, stream:
                            streams.append(stream) or run(space, config, stream))
        swept = csa.optimize_penalties(steep_context(), [0.05], config)
        assert outcome(swept[0.05]) == outcome(alone)
        assert len(streams) == 1 and streams[0].kept == []

    def test_the_last_price_records_nothing(self, monkeypatch):
        # 0.0 runs 10 generations and 0.02 runs 11: the last draws its
        # eleventh itself and keeps it for no one
        streams = []
        run = csa._optimize
        monkeypatch.setattr(csa, "_optimize", lambda space, config, stream:
                            streams.append(stream) or run(space, config, stream))
        config = CsaConfig(population_size=8, rng_seed=1, **self.STALL)
        swept = csa.optimize_penalties(steep_context(), [0.0, 0.02], config)
        assert [swept[pi].history[-1][0] for pi in (0.0, 0.02)] == [10, 11]
        assert streams[0] is streams[1] and len(streams[0].kept) == 10

    @pytest.mark.parametrize("price", [math.nan, math.inf, -0.1], ids=["nan", "inf", "negative"])
    def test_every_price_is_checked_before_any_search(self, price, monkeypatch):
        def searched(*args):
            raise AssertionError("a price was searched")

        monkeypatch.setattr(csa, "SearchSpace", searched)
        with pytest.raises(ValueError, match="penalty_price must be finite and >= 0"):
            csa.optimize_penalties(steep_context(), [0.0, price], CsaConfig(**FAST))
