import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracle_reference
from dsmsched import oracle
from dsmsched.constraints import is_feasible
from dsmsched.costing import ProblemContext, assess, energy_cost, total_cost
from dsmsched.csa import TIE_TOL, SearchSpace
from dsmsched.errors import EnumerationGuardError
from dsmsched.oracle import SmallInstance, exhaustive_optimize, sweep_penalties
from dsmsched.domain import TimeGrid, schedule_from_on_slots
from dsmsched.profiles import PriceSeries
from small_instances import (
    FLAT,
    GRID12,
    PENALTY_GRID,
    STEEP,
    _baseline,
    _family_feeder,
    _family_steep,
    _interruptible,
    _tiny_feeder,
    _tiny_neighbors,
    _uninterruptible,
    build_suite,
)

GRID8 = TimeGrid(slot_count=8, slot_hours=0.5)
FLAT8 = PriceSeries(values=(0.08,) * 8)


def single(appliance, grid=GRID8, price=FLAT8, **ctx_kwargs):
    apps = (_baseline(), appliance) if grid is GRID12 else (appliance,)
    return SmallInstance(
        context=ProblemContext(grid=grid, appliances=apps, price=price, **ctx_kwargs)
    )


class TestEnumerationCounts:
    def test_uninterruptible_start_positions(self):
        # window 1..8, D=3 -> 6 starts
        inst = single(_uninterruptible(2, (1, 8), 3, 1.0, original_start=2))
        assert inst.placement_counts() == [6]
        assert exhaustive_optimize(inst).feasible_count == 6

    def test_interruptible_combinations(self):
        # window 1..5, D=2 -> C(5,2) = 10
        inst = single(_interruptible(2, (1, 5), 2, 1.0, original=(1, 2)))
        assert inst.placement_counts() == [10]
        assert exhaustive_optimize(inst).feasible_count == 10

    def test_window_equal_to_duration_pins_the_plan(self):
        inst = single(_interruptible(2, (3, 4), 2, 1.0, original=(3, 4)))
        assert inst.candidate_count() == 1
        result = exhaustive_optimize(inst)
        assert result.feasible_count == 1
        assert result.schedule.on_slots(0) == (3, 4)

    def test_candidate_count_is_the_product(self):
        inst = SmallInstance(
            context=ProblemContext(grid=GRID12, appliances=_family_steep(), price=STEEP)
        )
        assert inst.placement_counts() == [10, 45]
        assert inst.candidate_count() == 450


class TestLimits:
    def test_five_flexible_appliances_under_the_guard_are_solved(self):
        # the guard bounds the work by candidate count alone, whatever the
        # number of flexible appliances; a 1.5 kW cap lets two run together
        apps = (_baseline(),) + tuple(
            _interruptible(i, (i - 1, i + 2), 1, 0.5, original=(i,)) for i in range(2, 7)
        )
        inst = SmallInstance(context=ProblemContext(
            grid=GRID12, appliances=apps, price=STEEP, md_kw=1.5))
        assert inst.candidate_count() == 4**5
        assert_matches_the_sequential_reference(inst)

    def test_too_many_slots(self):
        grid = TimeGrid(slot_count=20, slot_hours=0.5)
        price = PriceSeries(values=(0.08,) * 20)
        apps = (_interruptible(1, (1, 20), 2, 1.0, original=(1, 2)),)
        with pytest.raises(ValueError, match="slots"):
            SmallInstance(context=ProblemContext(grid=grid, appliances=apps, price=price))

    def test_guard_refuses_before_enumerating(self, monkeypatch):
        # four 8-of-16 interruptibles: C(16, 8)**4, about 2.7e16 candidates
        grid = TimeGrid(slot_count=16, slot_hours=0.5)
        apps = tuple(
            _interruptible(i, (1, 16), 8, 1.0, original=tuple(range(1, 9)))
            for i in range(1, 5)
        )
        inst = SmallInstance(context=ProblemContext(
            grid=grid, appliances=apps, price=PriceSeries(values=(0.1,) * 16)))

        def unlisted(space, index):
            raise AssertionError("a gene list was built before the guard")

        # the guard counts placements arithmetically: no gene list is built
        monkeypatch.setattr(SearchSpace, "genes", unlisted)
        with pytest.raises(EnumerationGuardError) as err:
            exhaustive_optimize(inst)
        assert err.value.count == math.comb(16, 8) ** 4
        assert err.value.limit == oracle.GUARD_LIMIT


def test_enumeration_is_exactly_the_feasible_set():
    # the feeder family never reaches a 4 kW cap or a 0.95 pu band; a 3 kW
    # cap and a 0.9981 pu floor make both bind on its stiff feeder
    ctx = ProblemContext(
        grid=GRID12, appliances=_family_feeder(), price=STEEP,
        feeder=_tiny_feeder(), neighbors=_tiny_neighbors(), md_kw=3.0,
        voltage_min=0.9981,
    )
    inst = SmallInstance(context=ctx)
    day = range(1, 13)
    # every placement of the family, lexicographic; more than one chunk
    candidates = [
        schedule_from_on_slots([day, range(start, start + 3), pair], 12)
        for start in range(1, 11)
        for pair in itertools.combinations(day, 2)
    ]
    assert len(candidates) == inst.candidate_count() > oracle._CHUNK
    reports = [is_feasible(s, ctx) for s in candidates]
    # the band also rejects candidates within the cap
    assert any(r.max_demand for r in reports)
    assert any(r.voltage and not r.max_demand for r in reports)
    feasible = [s for s, r in zip(candidates, reports) if r.feasible]
    enumeration = oracle._Enumeration(inst.space)
    scored = []
    for start in range(0, enumeration.count, oracle._CHUNK):
        stop = min(start + oracle._CHUNK, enumeration.count)
        index = enumeration.chunk(start).index
        # the chunk's rows re-scored as the optimizer scores them
        genotypes = inst.space.pack(oracle_reference.slot_rows(enumeration, start, stop))
        scores = inst.space.evaluate(genotypes, 0.0)
        assert np.array_equal(start + np.flatnonzero(scores.feasible), index)
        scored.extend(
            (inst.space.decode(genotypes[j]),
             scores.energy_usd[j], scores.weighted_shift[j])
            for j in (index - start).tolist()
        )
    assert [s for s, _, _ in scored] == feasible

    hours = ctx.grid.slot_hours
    for pi, result in sweep_penalties(inst, PENALTY_GRID).items():
        energy, weighted = next((e, w) for s, e, w in scored if s == result.schedule)
        selected = energy + hours * pi * weighted
        assert abs(selected - result.total_usd) <= 1e-9
        reference = [total_cost(s, ctx.with_penalty(pi)).total_usd for s in feasible]
        assert result.total_usd <= min(reference) + 1e-9


def test_suite_feeder_family_binds_the_voltage_band():
    ctx = dict(build_suite())["feeder_pi0"]
    inst = SmallInstance(context=ctx)
    assert is_feasible(ctx.original_schedule(), ctx).voltage
    # the cap never binds here, so every rejected candidate fails the band
    assert 0 < exhaustive_optimize(inst).feasible_count < inst.candidate_count()


def test_md_cap_prunes_the_enumeration():
    apps = (
        _baseline(),
        _interruptible(2, (1, 12), 2, 2.0, original=(1, 2)),
        _interruptible(3, (1, 12), 2, 2.0, original=(3, 4)),
    )
    open_ctx = ProblemContext(grid=GRID12, appliances=apps, price=FLAT)
    capped = ProblemContext(grid=GRID12, appliances=apps, price=FLAT, md_kw=2.5)
    total = exhaustive_optimize(SmallInstance(context=open_ctx)).feasible_count
    kept = exhaustive_optimize(SmallInstance(context=capped)).feasible_count
    assert total == 66 * 66
    # overlapping placements are gone; a fixed pair collides with 21 others
    # (20 sharing one slot, 1 sharing both), leaving 45 disjoint partners
    assert kept == 66 * 45


class TestExhaustiveOptimize:
    def test_flat_price_with_penalty_keeps_the_original(self):
        ctx = ProblemContext(
            grid=GRID12, appliances=_family_steep(), price=FLAT, penalty_price=0.05
        )
        result = exhaustive_optimize(SmallInstance(context=ctx))
        assert result.schedule == ctx.original_schedule()
        assert result.breakdown.penalty_usd == 0.0
        assert result.feasible_count == 450

    def test_unique_cheapest_placement_wins(self):
        # one expensive slot; the single-slot appliance must dodge it
        price = PriceSeries(values=(0.9, 0.01, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9))
        inst = single(_interruptible(1, (1, 8), 1, 1.0, original=(5,)),
                      grid=GRID8, price=price)
        result = exhaustive_optimize(inst)
        assert result.schedule.on_slots(0) == (2,)

    def test_tie_break_prefers_smaller_shift_then_lex(self):
        # flat price, every placement ties on cost; original slot has shift 0
        inst = single(_interruptible(1, (1, 3), 1, 1.0, original=(2,)),
                      grid=GRID8, price=FLAT8)
        result = exhaustive_optimize(inst)
        assert result.schedule.on_slots(0) == (2,)
        assert len(result.ties) == 3
        assert result.breakdown.total_shift_slots == 0

    def test_optimum_never_exceeds_feasible_original(self):
        for pi in PENALTY_GRID:
            ctx = ProblemContext(
                grid=GRID12, appliances=_family_steep(), price=STEEP, penalty_price=pi
            )
            result = exhaustive_optimize(SmallInstance(context=ctx))
            original_total = total_cost(ctx.original_schedule(), ctx).total_usd
            assert result.total_usd <= original_total + 1e-12

    def test_infeasible_instance_raises(self):
        ctx = ProblemContext(
            grid=GRID12, appliances=_family_steep(), price=STEEP, md_kw=0.3
        )
        with pytest.raises(ValueError, match="no feasible schedule"):
            exhaustive_optimize(SmallInstance(context=ctx))


class TestSweep:
    def test_single_pass_matches_per_penalty_runs(self):
        base = ProblemContext(grid=GRID12, appliances=_family_steep(), price=STEEP)
        swept = sweep_penalties(SmallInstance(context=base), PENALTY_GRID)
        for pi in PENALTY_GRID:
            alone = exhaustive_optimize(
                SmallInstance(context=base.with_penalty(pi))
            )
            assert swept[pi].total_usd == pytest.approx(alone.total_usd, abs=1e-12)
            assert swept[pi].schedule == alone.schedule

    @pytest.mark.parametrize("price", [math.nan, math.inf, -0.1], ids=["nan", "inf", "negative"])
    def test_every_price_is_checked_before_the_enumeration(self, price, monkeypatch):
        # a NaN price enumerated every candidate, then raised "no feasible
        # schedule exists for the instance"
        def enumerated(*args):
            raise AssertionError("the candidates were enumerated")

        monkeypatch.setattr(oracle, "_Enumeration", enumerated)
        inst = SmallInstance(context=ProblemContext(grid=GRID12, appliances=_family_steep(),
                                                    price=STEEP))
        with pytest.raises(ValueError, match="penalty_price must be finite and >= 0"):
            sweep_penalties(inst, [0.0, price])

    def test_weighted_shift_non_increasing_in_penalty(self):
        base = ProblemContext(grid=GRID12, appliances=_family_steep(), price=STEEP)
        swept = sweep_penalties(SmallInstance(context=base), PENALTY_GRID)
        shifts = [swept[pi].breakdown.weighted_shift for pi in PENALTY_GRID]
        assert all(a >= b - 1e-12 for a, b in zip(shifts, shifts[1:]))
        # at zero penalty the optimizer moves load; at 20c it barely does
        assert shifts[0] > shifts[-1]


def test_placements_are_counted_as_listed():
    for name, ctx in build_suite():
        inst = SmallInstance(context=ctx)
        listed = [len(inst.space.genes(i)) for i in range(len(inst.space.flex))]
        assert inst.placement_counts() == listed, name


@pytest.mark.parametrize("name, ctx", build_suite(), ids=[n for n, _ in build_suite()])
def test_sweep_matches_the_sequential_reference(name, ctx):
    assert_matches_the_sequential_reference(SmallInstance(context=ctx))


def assert_matches_the_sequential_reference(inst):
    swept = sweep_penalties(inst, PENALTY_GRID)
    reference = oracle_reference.sweep_penalties(inst, PENALTY_GRID)
    for pi in PENALTY_GRID:
        got, want = swept[pi], reference[pi]
        assert got.total_usd == want.total_usd, pi
        assert got.schedule == want.schedule, pi
        assert [inst.space.genes_of(tie) for tie in got.ties] == want.ties, pi
        assert got.feasible_count == want.feasible_count, pi


@pytest.mark.parametrize("name, ctx", build_suite(), ids=[n for n, _ in build_suite()])
def test_reported_total_is_the_total_decided_by(name, ctx):
    # the optimum's reported total, from `total_cost`, is the search's own
    # score of its genotype, bit for bit
    inst = SmallInstance(context=ctx)
    result = exhaustive_optimize(inst)
    space = inst.space
    optimum = space.key(result.schedule.on_slots(f.row) for f in space.flex)
    assert result.total_usd == space.evaluate([optimum], 1.0).total_usd[0]


def enumeration_cases():
    feeder = dict(build_suite())["feeder_pi0"]
    radix_one = ProblemContext(grid=GRID12, price=STEEP, appliances=(
        _baseline(),
        _uninterruptible(2, (1, 8), 3, 1.0, original_start=2),
        _interruptible(3, (3, 4), 2, 0.5, original=(3, 4)),  # window == duration
        _interruptible(4, (1, 5), 2, 1.5, original=(1, 2)),
    ))
    lone = single(_interruptible(1, (2, 7), 3, 1.0, original=(2, 3, 4))).context
    baseline_only = ProblemContext(grid=GRID12, price=STEEP, appliances=(_baseline(),))
    # three genes on one slot draw 0.1 + 0.2 + 0.3 kW: 0.6000000000000001
    # added left to right, 0.6 right to left
    three_on_a_slot = ProblemContext(grid=GRID12, price=STEEP, appliances=tuple(
        _interruptible(aid, (1, 4), 2, rated, original=(1, 2))
        for aid, rated in ((2, 0.1), (3, 0.2), (4, 0.3))))
    return [("feeder", feeder), ("radix_one", radix_one), ("one_appliance", lone),
            ("baseline_only", baseline_only), ("three_on_a_slot", three_on_a_slot)]


@pytest.mark.parametrize("name, ctx", enumeration_cases(),
                         ids=[n for n, _ in enumeration_cases()])
def test_index_k_decodes_to_the_kth_product_genotype(name, ctx):
    space = SearchSpace(ctx)
    enumeration = oracle._Enumeration(space)
    product = list(itertools.product(*(space.genes(i) for i in range(len(space.flex)))))
    keys = [space.key(genes) for genes in product]
    assert enumeration.count == len(product)
    rows = oracle_reference.slot_rows(enumeration, 0, len(product))
    assert rows.dtype == np.intp
    assert [space.genes_of(ab) for ab in space.pack(rows)] == product
    assert np.array_equal(rows, space.slot_matrix(keys))
    # a range starting mid-way, as a chunk after the first does
    start = len(product) // 3
    assert np.array_equal(oracle_reference.slot_rows(enumeration, start, len(product)),
                          space.slot_matrix(keys[start:]))


def same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_tables_are_the_kernels(ctx):
    """Every chunk of the enumeration, and one starting a third of the way
    in, mid-table as a later chunk starts, scored from the gene tables: bit
    for bit `gross_rows`, `charge` and `assess` over the slot matrix of the
    same indices."""
    space = SearchSpace(ctx)
    enumeration = oracle._Enumeration(space)
    starts = [*range(0, enumeration.count, oracle._CHUNK), enumeration.count // 3]
    for start in starts:
        stop = min(start + oracle._CHUNK, enumeration.count)
        rows = oracle_reference.slot_rows(enumeration, start, stop)
        digits = enumeration._digits(start, stop)
        gross = space.gross_rows(rows)
        assert same_bits(enumeration._gross(stop - start, digits), gross)
        _, shift_slots, weighted, _, _ = space.charge(rows, 0.0, 0.0)
        got_shift, got_weighted = enumeration._shifts(stop - start, digits)
        assert same_bits(got_shift, shift_slots) and same_bits(got_weighted, weighted)
        # the chunk is the feasible rows of the slot matrix's own scoring
        loads = assess(ctx, gross)
        keep = np.flatnonzero(loads.feasible)
        chunk = enumeration.chunk(start)
        assert same_bits(chunk.index, start + keep)
        assert same_bits(chunk.energy,
                         energy_cost(loads.billed[keep], ctx.price_array(), ctx.grid.slot_hours))
        assert same_bits(chunk.shift_slots, shift_slots[keep])
        assert same_bits(chunk.weighted, weighted[keep])


@pytest.mark.parametrize("name, ctx", build_suite() + enumeration_cases(),
                         ids=[n for n, _ in build_suite() + enumeration_cases()])
def test_gene_tables_score_each_chunk_as_the_slot_matrix_does(name, ctx):
    assert_tables_are_the_kernels(ctx)


def test_without_flexible_appliances_the_one_genotype_is_the_baseline():
    ctx = dict(enumeration_cases())["baseline_only"]
    enumeration = oracle._Enumeration(SearchSpace(ctx))
    assert enumeration.genes == [] and enumeration.count == 1
    assert np.array_equal(enumeration._gross(1, []), [SearchSpace(ctx).baseline_gross])
    chunk = enumeration.chunk(0)
    assert chunk.index.tolist() == [0]
    assert chunk.shift_slots.tolist() == [0] and chunk.weighted.tolist() == [0.0]


def test_a_sweep_decodes_only_the_candidates_it_offers(monkeypatch):
    # no slot matrix per chunk: `charge` builds the gene tables, once per
    # appliance, and `pack` decodes one offered index at a time
    calls = {"gross_rows": 0, "charge": 0, "pack": []}
    gross_rows, charge = SearchSpace.gross_rows, SearchSpace.charge
    pack = oracle._Enumeration.pack

    def counted_gross_rows(space, slots):
        calls["gross_rows"] += 1
        return gross_rows(space, slots)

    def counted_charge(space, *args):
        calls["charge"] += 1
        return charge(space, *args)

    def counted_pack(enumeration, index):
        calls["pack"].append(len(index))
        return pack(enumeration, index)

    monkeypatch.setattr(SearchSpace, "gross_rows", counted_gross_rows)
    monkeypatch.setattr(SearchSpace, "charge", counted_charge)
    monkeypatch.setattr(oracle._Enumeration, "pack", counted_pack)
    instance = SmallInstance(context=dict(build_suite())["mixed_pi0"])
    result = sweep_penalties(instance, PENALTY_GRID)[0.0]
    assert result.feasible_count > 100 * oracle._CHUNK
    assert calls["gross_rows"] == 0 and calls["charge"] == len(instance.space.flex)
    assert 0 < len(calls["pack"]) < 0.01 * result.feasible_count
    assert set(calls["pack"]) == {1}


@st.composite
def _small_contexts(draw):
    """A 12-slot context of up to two baseline rows and up to four flexible
    appliances of either class, each in a window of up to 6 slots (a slot
    set may be empty), with ratings of many digits and a demand cap that
    may bind; at most 5,000 candidates."""
    rating = st.floats(0.01, 5.0)
    appliances = [_baseline(aid, draw(rating)) for aid in range(1, 1 + draw(st.integers(0, 2)))]
    flexible = draw(st.integers(0 if appliances else 1, 4))
    for aid in range(10, 10 + flexible):
        lo = draw(st.integers(1, 12))
        hi = draw(st.integers(lo, min(12, lo + 5)))
        if draw(st.booleans()):
            duration = draw(st.integers(1, hi - lo + 1))
            start = draw(st.integers(lo, hi - duration + 1))
            appliances.append(_uninterruptible(aid, (lo, hi), duration, draw(rating), start))
        else:
            duration = draw(st.integers(0, hi - lo + 1))
            slots = draw(st.sets(st.integers(lo, hi), min_size=duration, max_size=duration))
            appliances.append(_interruptible(aid, (lo, hi), duration, draw(rating),
                                             tuple(sorted(slots))))
    ctx = ProblemContext(grid=GRID12, appliances=tuple(appliances), price=STEEP,
                         md_kw=draw(st.sampled_from([math.inf, 2.0, 4.0, 6.0])))
    assume(SmallInstance(context=ctx).candidate_count() <= 5000)
    return ctx


@settings(max_examples=60, deadline=None)
@given(ctx=_small_contexts())
def test_gene_tables_score_random_instances_as_the_slot_matrix_does(ctx):
    assert_tables_are_the_kernels(ctx)


# the peaks of the 256-row enumeration, whose chunks carried slot matrices,
# were 474 KiB and 440 KiB (Python 3.11, numpy 2.4); the gene tables may not
# buy speed with more than 64 KiB over them
@pytest.mark.parametrize("name, bound_kib", [("feeder_pi0", 474 + 64), ("mixed_pi0", 440 + 64)])
def test_sweep_peak_memory_is_bounded(name, bound_kib):
    # a first sweep on a context of its own leaves nothing that a second
    # one reuses, but numpy's first-call allocations
    sweep_penalties(SmallInstance(context=dict(build_suite())[name]), PENALTY_GRID)
    instance = SmallInstance(context=dict(build_suite())[name])
    tracemalloc.start()
    try:
        sweep_penalties(instance, PENALTY_GRID)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound_kib * 1024


class TestOfferChunk:
    """`_offer_chunk` skips candidates, and must leave the running optimum
    exactly as offering every candidate to `_Best.offer` in turn does."""

    @staticmethod
    def genotype(k):
        return bytes([k])  # candidate k's slot row is (k,): index order is genotype order

    def sequential(self, chunks):
        best = oracle._Best()
        k = 0
        for total, shift in chunks:
            for t, s in zip(total, shift):
                best.offer((t, s, self.genotype(k)))
                k += 1
        return best

    def reduced(self, chunks):
        """Offer the chunks through `_offer_chunk`."""
        best = oracle._Best()
        packed = []

        def pack(rows):
            packed.extend(rows[:, 0].tolist())
            return [bytes(row) for row in rows.tolist()]

        k = 0
        for total, shift in chunks:
            oracle._offer_chunk(best, np.array(total, dtype=float),
                                np.array(shift, dtype=np.intp),
                                np.arange(k, k + len(total))[:, None], pack)
            k += len(total)
        return best, packed

    def assert_same(self, chunks):
        want = self.sequential(chunks)
        got, packed = self.reduced(chunks)
        assert got.key == want.key
        assert got.ties == want.ties
        return got, packed

    def test_first_offer_beats_the_initial_infinite_best(self):
        best, packed = self.assert_same([([0.5, 0.3, 0.7, 0.3], [2, 1, 0, 0])])
        assert best.key == (0.3, 0, bytes([3]))
        assert packed == [0, 1, 3]  # 0.7 is skipped, never packed

    def test_a_total_exactly_tie_tol_above_is_a_tie(self):
        above = np.nextafter(TIE_TOL, 1.0)
        assert TIE_TOL - 0.0 == TIE_TOL and above - 0.0 > TIE_TOL
        best, packed = self.assert_same([([0.0, TIE_TOL, above], [0, 1, 2])])
        assert best.ties == [bytes([0]), bytes([1])]
        assert packed == [0, 1]

    def drifting(self):
        """Near-ties with falling shift slots, each accepted: the best
        climbs to 3.0 TIE_TOL above the first.  A candidate at 1.9 TIE_TOL
        is skipped before the climb; the one after it is more than TIE_TOL
        below the climbed best, so it becomes the optimum."""
        t = TIE_TOL
        total = [0.0, 1.9 * t, 0.6 * t, 1.2 * t, 1.8 * t, 2.4 * t, 3.0 * t, 1.9 * t, 5.0 * t]
        shift = [5, 0, 4, 3, 2, 1, 0, 6, 0]
        return total, shift

    def test_near_ties_carry_the_best_past_the_first_plus_tie_tol(self):
        total, shift = self.drifting()
        best, packed = self.assert_same([(total, shift)])
        assert best.key[0] > total[0] + TIE_TOL
        assert best.key == (total[7], 6, bytes([7])) and best.ties == [bytes([7])]
        assert 1 not in packed and 8 not in packed
        assert {6, 7} <= set(packed)

    @pytest.mark.parametrize("cut", range(1, 9))
    def test_drift_across_a_chunk_boundary(self, cut):
        total, shift = self.drifting()
        best, _ = self.assert_same([(total[:cut], shift[:cut]), (total[cut:], shift[cut:])])
        assert best.key[0] > total[0] + TIE_TOL

    def test_random_chunks_of_near_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            chunks = [
                ((rng.integers(0, 8, size) * 0.45 * TIE_TOL).tolist(),
                 rng.integers(0, 4, size).tolist())
                for size in rng.integers(0, 12, rng.integers(1, 4))
            ]
            self.assert_same(chunks)
