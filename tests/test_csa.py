import gc
import math
import random
import tracemalloc
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
from dsmsched import costing
from dsmsched.costing import ProblemContext, total_cost
from dsmsched.csa import (
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


class TestDrawsMatchNumpy:
    """`Draws` against the numpy `Generator` whose stream it replays.

    Every genotype the optimizer draws, and so every report byte and both
    goldens, rests on `Draws(seed)` giving exactly what
    `np.random.default_rng(seed)` gives.  numpy does not promise that a
    Generator's stream stays the same across versions (NEP 19), so this
    test is the tripwire: if numpy changes how `random`, `integers` or
    `choice(replace=False)` draw, it fails here first.
    """

    @staticmethod
    def draw_both(draws, gen, plan):
        """Apply one operation to both streams; return the pair of results."""
        op, a, b = plan
        if op == "random":
            return draws.random(), gen.random()
        if op == "integers":
            return a + draws.below(b - a), int(gen.integers(a, b))
        return draws.sample(a, b), set(gen.choice(a, size=b, replace=False).tolist())

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
            draws, gen = Draws(seed), np.random.default_rng(seed)
            pick = random.Random(seed)
            for _ in range(60):
                plan = self.plan(pick)
                mine, theirs = self.draw_both(draws, gen, plan)
                assert mine == theirs, (seed, plan)

    def test_rejection_heavy_range(self):
        # (2**32 - n) % n == 2**30: a quarter of the 32-bit draws are
        # rejected and redrawn
        n = 3 << 30
        for seed in range(300):
            draws, gen = Draws(seed), np.random.default_rng(seed)
            for i in range(200):
                assert draws.below(n) == int(gen.integers(0, n)), (seed, i)
                if i % 7 == 0:
                    assert draws.random() == gen.random(), (seed, i)


class TestDrawsMatchReference:
    """`Draws` against `csa_reference.Draws`, the one-call-per-draw replay,
    where numpy has no call to compare with: `skip`, `sample` over more
    than numpy's 10,000-item Floyd range, and crafted words."""

    # (2**32 - n) % n == 2**30: a quarter of the 32-bit draws are rejected
    HEAVY = 3 << 30

    @staticmethod
    def draw_both(draws, ref, plan):
        op, a, b = plan
        if op == "random":
            return draws.random(), ref.random()
        if op == "below":
            return draws.below(a), ref.below(a)
        if op == "sample":
            return draws.sample(a, b), ref.sample(a, b)
        return draws.skip(a, b), csa_reference.skip(ref, a, b)

    def plan(self, pick):
        op = pick.choice(("random", "below", "sample", "skip"))
        if op == "below":
            # a third draw nothing (n == 1), a third from the rejection-heavy range
            return op, pick.choice((1, self.HEAVY, pick.randrange(2, 100))), 0
        if op == "sample":
            n = pick.choice((self.HEAVY, pick.randrange(1, 40)))
            return op, n, pick.randrange(1, min(n, 12) + 1)
        if op == "skip":
            # limits past a 512-word block; p at the ends, at the search's
            # rank fractions, and anywhere
            p = pick.choice((0.0, 1.0, 0.8 * pick.randrange(1, 61) / 60, pick.random()))
            return op, pick.choice((0, 1, pick.randrange(2, 40), pick.randrange(500, 700))), p
        return op, 0, 0

    def test_mixed_draws(self):
        for seed in range(600):
            draws, ref = Draws(seed), csa_reference.Draws(seed)
            pick = random.Random(seed)
            for _ in range(40):
                plan = self.plan(pick)
                mine, theirs = self.draw_both(draws, ref, plan)
                assert mine == theirs, (seed, plan)
                # the next word and the kept half are where the reference's are
                assert draws.below(7) == ref.below(7), (seed, plan)

    def test_skip_counts_the_draws_not_below_p(self):
        for seed in range(200):
            draws, ref = Draws(seed), csa_reference.Draws(seed)
            draws.below(5), ref.below(5)  # a kept half must survive the skip
            for limit, p in ((0, 0.5), (3, 0.0), (700, 0.001), (40, 1.0), (40, 0.3)):
                assert draws.skip(limit, p) == csa_reference.skip(ref, limit, p), seed
                assert draws.below(9) == ref.below(9), seed
                assert draws.random() == ref.random(), seed

    def test_skip_threshold_is_exact(self):
        # words whose top 53 bits sit at either side of p * 2**53, which
        # random draws hit with probability 2**-53: the test must be
        # random() < p, bit for bit
        for p in (0.1, 0.8 * 7 / 60, 1 / 3, 0.5, 2.0**-53, 1.0 - 2.0**-53):
            edge = p * 2.0**53
            for top in {math.floor(edge) - 1, math.floor(edge), math.ceil(edge),
                        min(math.ceil(edge) + 1, 2**53 - 1)}:
                for low in (0, 2**11 - 1):
                    draws = Draws(0)
                    draws._block, draws._pos = [top << 11 | low], 0
                    assert draws.skip(1, p) == (0 if top * 2.0**-53 < p else 1), (p, top)

    def test_rejections_on_crafted_words(self):
        # a zero 32-bit half is rejected by every bound that is not a power
        # of two, and by no other: a zero at each position tells apart
        # bounds that random words almost never do, such as a shuffle that
        # draws from k + 1..3 instead of k..2
        pick = random.Random(0)
        for n, k in ((2, 2), (3, 3), (5, 2), (6, 6), (7, 4), (9, 1)):
            draws_needed = 2 * (n + k)
            for zero in range(draws_needed):
                words = [pick.getrandbits(64) for _ in range(draws_needed)]
                words[zero // 2] &= 0xFFFFFFFF00000000 if zero % 2 == 0 else 0xFFFFFFFF
                draws, ref = Draws(0), csa_reference.Draws(0)
                draws._block, draws._pos = words + [0] * (512 - len(words)), 0
                ref._words = iter(words)
                assert draws.sample(n, k) == ref.sample(n, k), (n, k, zero)
                assert draws.below(n + 2) == ref.below(n + 2), (n, k, zero)

    def test_heavy_rejection_sample(self):
        for seed in range(300):
            draws, ref = Draws(seed), csa_reference.Draws(seed)
            for k in (1, 2, 5, 9):
                assert draws.sample(self.HEAVY, k) == ref.sample(self.HEAVY, k), (seed, k)
                assert draws.random() == ref.random(), (seed, k)
            assert draws.below(self.HEAVY) == ref.below(self.HEAVY), seed


class TestHypermutationMatchesReference:
    """Random antibodies, mutated genes and offspring against the scalar
    reference in csa_reference: the same genotypes, and the stream left at
    the same place after every call, on every small-suite space, the
    canonical day, a space with fixed genes and a one-gene space."""

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
        return spaces

    @staticmethod
    def check(space, seeds, size, generations):
        for seed in seeds:
            draws, ref = Draws(seed), csa_reference.Draws(seed)
            population = [space.original_antibody()]
            for _ in range(size - 1):
                ab = space.random_antibody(draws)
                assert ab == csa_reference.random_antibody(space, ref), seed
                assert draws.random() == ref.random(), seed
                population.append(ab)
            for g, gene in enumerate(population[-1]):
                mutated = space.mutate_gene(g, gene, draws)
                assert mutated == csa_reference.mutate_gene(space, g, gene, ref), (seed, g)
                assert draws.random() == ref.random(), (seed, g)
            for generation in range(generations):
                offspring = clone_and_hypermutate(population, draws, space)
                expected = csa_reference.clone_and_hypermutate(population, ref, space)
                assert offspring == expected, (seed, generation)
                assert draws.random() == ref.random(), (seed, generation)
                population = offspring[:size]

    def test_small_spaces(self, spaces):
        for name, space in spaces.items():
            if name != "canonical":
                self.check(space, range(200), size=6, generations=3)

    def test_canonical_day(self, spaces):
        self.check(spaces["canonical"], range(200), size=5, generations=3)


class TestSearchSpace:
    def test_only_flexible_appliances_are_encoded(self):
        space = SearchSpace(steep_context())
        assert len(space.flex) == 2  # baseline not encoded
        original = space.original_antibody()
        assert original == ((8, 9, 10), (8, 9))

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
            ab = space.random_antibody(draws)
            start = ab[0][0]
            assert 1 <= start <= 10  # window 1..12, duration 3
            assert ab[0] == (start, start + 1, start + 2)
            slots = ab[1]
            assert len(slots) == 2 and len(set(slots)) == 2
            assert slots == tuple(sorted(slots))
            assert all(2 <= s <= 11 for s in slots)

    def test_mutate_gene_stays_in_bounds(self):
        space = SearchSpace(steep_context())
        draws = Draws(5)
        run, slots = (8, 9, 10), (8, 9)
        for _ in range(500):
            run = space.mutate_gene(0, run, draws)
            assert 1 <= run[0] <= 10 and run == (run[0], run[0] + 1, run[0] + 2)
            slots = space.mutate_gene(1, slots, draws)
            assert len(slots) == 2 and slots == tuple(sorted(set(slots)))
            assert all(2 <= s <= 11 for s in slots)

    def test_mutation_is_identity_when_gene_has_no_freedom(self):
        apps = (
            _baseline(),
            _uninterruptible(2, (4, 6), 3, 1.0, original_start=4),  # one start only
            _interruptible(3, (7, 8), 2, 1.0, original=(7, 8)),  # window == duration
        )
        space = SearchSpace(ProblemContext(grid=GRID12, appliances=apps, price=FLAT))
        draws = Draws(0)
        assert space.mutate_gene(0, (4, 5, 6), draws) == (4, 5, 6)
        assert space.mutate_gene(1, (7, 8), draws) == (7, 8)


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
                assert space.original_antibody()[i] in genes

    def test_drawn_and_mutated_genes_are_listed(self, spaces):
        for space in spaces:
            listed = [set(space.genes(i)) for i in range(len(space.flex))]
            for seed in range(300):
                draws = Draws(seed)
                genotype = space.random_antibody(draws)
                for _ in range(5):
                    assert all(g in genes for g, genes in zip(genotype, listed)), seed
                    genotype = tuple(space.mutate_gene(i, g, draws)
                                     for i, g in enumerate(genotype))

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
        for i, gene in enumerate(genotype):
            assert gene in listed[i]
            moved = False
            # a gene with two or more legal values moves with probability
            # >= 1/3 per call, so 60 calls all miss with odds under 1e-10
            for _ in range(60):
                mutated = space.mutate_gene(i, gene, draws)
                assert mutated in listed[i]
                moved |= mutated != gene
                gene = mutated
            assert moved == (counts[i] != 1), (i, counts[i])


class TestGenotypeLayout:
    """Genotypes of the canonical day, drawn and hypermutated."""

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
        rows = [tuple(s for gene in ab for s in gene) for ab in genotypes]
        rng = np.random.default_rng(13)
        for i, j in rng.integers(0, len(genotypes), size=(5000, 2)):
            a, b = genotypes[i], genotypes[j]
            assert (a < b) == (rows[i] < rows[j])
            assert (a == b) == (rows[i] == rows[j])
        # sorting by genotype and by flat row agree as well
        assert sorted(rows) == [rows[genotypes.index(ab)] for ab in sorted(genotypes)]

    def test_uninterruptible_genes_are_runs_inside_the_window(self, canonical):
        space, genotypes = canonical
        runs = 0
        for ab in genotypes:
            for f, gene in zip(space.flex, ab):
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
                start = ab[0][0]
                assert 1 <= start <= 10 and ab[0] == (start, start + 1, start + 2)
                assert all(2 <= s <= 11 for s in ab[1])


def score(antibody, ctx, constraint_penalty_weight=0.0):
    return SearchSpace(ctx).evaluate([antibody], constraint_penalty_weight).score[0]


class TestAffinity:
    def test_original_scores_minus_energy_cost(self):
        ctx = steep_context()
        space = SearchSpace(ctx)
        original = space.original_antibody()
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
        rows, failed = fresh._flows(codes)
        assert not failed and (rows >= 0).all()
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
    assert len(cache.codes) == len(cache.rows) == cache.size
    assert (np.diff(cache.codes) > 0).all()
    assert sorted(cache.rows.tolist()) == list(range(cache.size))


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
            assert not entries and ctx._cache.size == 0
            return
        assert_cache_is_indexed(ctx)
        fresh = make()
        alone = {(slot, w): fresh.slot_flow(slot, w / 1000.0) for slot, w in entries}
        assert bits(alone) == bits(entries)
        # a key is cached exactly when its flow converges
        failed = batch_keys(space, batches) - entries.keys()
        assert bool(failed) == (name == "failing_flows")
        for slot, w in sorted(failed):
            with pytest.raises(PowerFlowError) as cached:
                ctx.slot_flow(slot, w / 1000.0)
            with pytest.raises(PowerFlowError) as solved_alone:
                make().slot_flow(slot, w / 1000.0)
            assert str(cached.value) == str(solved_alone.value)
        assert not failed & flow_entries(ctx).keys()

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
        assert_cache_is_indexed(behind)

    def test_with_penalty_contexts_share_one_cache(self, make_canonical, monkeypatch):
        ctx = make_canonical()
        twin = ctx.with_penalty(0.10)
        batches = generations(SearchSpace(ctx), Draws(4), size=10)
        score_batches(SearchSpace(ctx), batches[:2], 5.0)
        score_batches(SearchSpace(twin), batches[2:], 5.0)
        assert twin._cache is ctx._cache
        alone, _, _ = self.scored(make_canonical, 4, 10)
        assert bits(flow_entries(twin)) == bits(flow_entries(alone))
        # every key is now cached: scoring it all again on either context
        # solves nothing
        sweeps, solve = [], costing.solve_power_flow_batch
        monkeypatch.setattr(costing, "solve_power_flow_batch",
                            lambda *args: sweeps.append(args) or solve(*args))
        score_batches(SearchSpace(twin), batches, 5.0)
        score_batches(SearchSpace(ctx), batches, 5.0)
        assert sweeps == []

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
            assert sorted(cache.rows.tolist()) == list(range(cache.size))
            probe = np.arange(-600, 5100)
            rows = cache.find(probe)
            assert (rows >= 0).tolist() == [c in reference for c in probe.tolist()]
            got = {c: (cache.loss[r], cache.mags[r].tolist())
                   for c, r in zip(probe.tolist(), rows.tolist()) if r >= 0}
            assert got == reference
        assert len(cache.loss) < 2 * cache.size


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
