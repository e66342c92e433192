import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dsmsched import costing
from dsmsched.constraints import is_feasible
from dsmsched.costing import ProblemContext
from dsmsched.domain import Appliance, ApplianceClass, TimeGrid, aggregate_power
from dsmsched.errors import InputError, PowerFlowError
from dsmsched.feeder import (
    FeederLine,
    FeederModel,
    SweepBatch,
    VoltageViolation,
    load_feeder_json,
    solve_power_flow,
    solve_power_flow_batch,
)
from dsmsched.profiles import NeighborLoads, PriceSeries, PvSeries
from generate_fixtures import canonical_feeder as build_canonical_feeder, write_feeder_json
from eval_reference import bits
from pf_reference import ScalarState, _conj_quotient, _square, nr_two_bus, scalar_sweep
from test_cli import _JSON
from test_csa import weak_feeder_context


def two_bus(r=0.02, x=0.012, base_kva=50.0) -> FeederModel:
    return FeederModel(
        base_kva=base_kva,
        base_kv=12.47,
        slack_voltage_pu=1.0,
        lines=(FeederLine(from_bus=0, to_bus=1, r_pu=r, x_pu=x),),
        smart_home_bus=1,
    )


def home_context(feeder, neighbor_kw, pv_kw=None, **limits) -> ProblemContext:
    """A 0.5 kW always-on home on `feeder` with one neighbour house, both at
    unity power factor, one series value per slot."""
    slots = len(neighbor_kw)
    home = Appliance(
        id=1, appliance_class=ApplianceClass.BASELINE, window_start=1, window_end=slots,
        duration=slots, rated_kw=0.5, original_on_slots=tuple(range(1, slots + 1)),
    )
    return ProblemContext(
        grid=TimeGrid(slot_count=slots, slot_hours=0.5),
        appliances=(home,),
        price=PriceSeries(values=(0.1,) * slots),
        pv=None if pv_kw is None else PvSeries(values=pv_kw, capacity_kw=max(pv_kw)),
        neighbors=NeighborLoads(per_house=(neighbor_kw,)),
        feeder=feeder,
        power_factor=1.0,
        **limits,
    )


def chain(n_lines=3, r=0.01, x=0.006, home=None) -> FeederModel:
    home = n_lines if home is None else home
    return FeederModel(
        base_kva=50.0,
        base_kv=12.47,
        slack_voltage_pu=1.0,
        lines=tuple(
            FeederLine(from_bus=b, to_bus=b + 1, r_pu=r, x_pu=x) for b in range(n_lines)
        ),
        smart_home_bus=home,
    )


def inj(feeder, p, q=None, pv=0.0) -> tuple:
    """One case's bus demand p, q (q zero where not given) and home PV, the
    leading arguments of `solve_power_flow` and `scalar_sweep`."""
    q = [0.0] * feeder.bus_count if q is None else q
    return p, q, pv


class TestTopology:
    def test_line_validation(self):
        with pytest.raises(ValueError, match="itself"):
            FeederLine(from_bus=2, to_bus=2, r_pu=0.01, x_pu=0.01)
        with pytest.raises(ValueError, match="negative"):
            FeederLine(from_bus=0, to_bus=1, r_pu=-0.01, x_pu=0.01)

    @pytest.mark.parametrize("field", ["r_pu", "x_pu"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_line_impedance_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            FeederLine(**{"from_bus": 0, "to_bus": 1, "r_pu": 0.01, "x_pu": 0.01, field: value})

    @pytest.mark.parametrize("field", ["base_kva", "base_kv", "slack_voltage_pu"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_feeder_bases_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            dataclasses.replace(two_bus(), **{field: value})

    def test_bus_ids_must_be_contiguous(self):
        with pytest.raises(ValueError, match="contiguous"):
            FeederModel(
                base_kva=50, base_kv=12.47, slack_voltage_pu=1.0,
                lines=(FeederLine(0, 2, 0.01, 0.01),),
                smart_home_bus=2,
            )

    def test_line_count_must_form_tree(self):
        lines = (
            FeederLine(0, 1, 0.01, 0.01),
            FeederLine(1, 2, 0.01, 0.01),
            FeederLine(0, 2, 0.01, 0.01),  # cycle
        )
        with pytest.raises(ValueError, match="tree"):
            FeederModel(base_kva=50, base_kv=12.47, slack_voltage_pu=1.0,
                        lines=lines, smart_home_bus=2)

    def test_disconnected_component(self):
        lines = (
            FeederLine(0, 1, 0.01, 0.01),
            FeederLine(1, 0, 0.01, 0.01),  # duplicate edge eats the budget
            FeederLine(2, 3, 0.01, 0.01),
        )
        with pytest.raises(ValueError, match="not connected"):
            FeederModel(base_kva=50, base_kv=12.47, slack_voltage_pu=1.0,
                        lines=lines, smart_home_bus=3)

    def test_smart_home_must_sit_at_the_end(self):
        with pytest.raises(ValueError, match="end of the feeder"):
            chain(n_lines=3, home=1)
        with pytest.raises(ValueError, match="not a house bus"):
            chain(n_lines=3, home=0)

    def test_bus_lists(self):
        feeder = chain(n_lines=4)
        assert feeder.bus_count == 5
        assert feeder.neighbor_buses == (1, 2, 3)

    def test_base_validation(self):
        with pytest.raises(ValueError):
            FeederModel(base_kva=0, base_kv=12.47, slack_voltage_pu=1.0,
                        lines=(FeederLine(0, 1, 0.01, 0.01),), smart_home_bus=1)
        with pytest.raises(ValueError):
            FeederModel(base_kva=50, base_kv=12.47, slack_voltage_pu=0.0,
                        lines=(FeederLine(0, 1, 0.01, 0.01),), smart_home_bus=1)


class TestSolve:
    def test_unloaded_feeder_is_flat(self):
        feeder = chain(n_lines=5)
        state = solve_power_flow(feeder, *inj(feeder, [0.0] * 6))
        assert state.v_mag[0].tolist() == pytest.approx([1.0] * 6, abs=1e-15)
        assert state.loss_kw[0] == 0.0
        assert state.slack_p_kw[0] == 0.0

    def test_matches_newton_raphson_on_two_bus(self):
        feeder = two_bus(r=0.03, x=0.018)
        p_kw, q_kvar = 12.0, 4.0
        state = solve_power_flow(feeder, [0.0, p_kw], [0.0, q_kvar])
        expected = nr_two_bus(0.03, 0.018, p_kw / 50.0, q_kvar / 50.0)
        assert abs(state.voltages[0, 1] - expected) < 1e-8

    def test_matches_resistive_closed_form(self):
        # pure resistance, pure P: v^2 - v + r p = 0
        r, p_kw = 0.05, 8.0
        feeder = two_bus(r=r, x=0.0)
        state = solve_power_flow(feeder, *inj(feeder, [0.0, p_kw]))
        p_pu = p_kw / 50.0
        v_expected = (1 + math.sqrt(1 - 4 * r * p_pu)) / 2
        assert abs(state.voltages[0, 1]) == pytest.approx(v_expected, abs=1e-10)
        # loss = r * (p/v)^2 in pu
        i_pu = p_pu / v_expected
        assert state.loss_kw[0] == pytest.approx(r * i_pu**2 * 50.0, abs=1e-9)

    def test_slack_covers_load_plus_loss(self):
        feeder = chain(n_lines=4)
        p = [0.0, 3.0, 1.5, 0.0, 6.0]
        q = [0.0, 1.0, 0.5, 0.0, 2.0]
        state = solve_power_flow(feeder, p, q)
        assert state.slack_p_kw[0] == pytest.approx(sum(p) + state.loss_kw[0], abs=1e-9)
        assert state.slack_q_kvar[0] == pytest.approx(sum(q) + state.loss_kvar[0], abs=1e-9)

    def test_voltage_drops_along_a_loaded_chain(self):
        feeder = chain(n_lines=4)
        state = solve_power_flow(feeder, *inj(feeder, [0.0, 1.0, 1.0, 1.0, 5.0]))
        mags = state.v_mag[0].tolist()
        assert all(a > b for a, b in zip(mags, mags[1:]))

    def test_pv_at_the_end_bus_raises_every_voltage(self):
        feeder = chain(n_lines=4)
        p = [0.0, 2.0, 2.0, 1.0, 3.0]
        without = solve_power_flow(feeder, *inj(feeder, p))
        with_pv = solve_power_flow(feeder, *inj(feeder, p, pv=2.5))
        for a, b in zip(with_pv.v_mag[0].tolist(), without.v_mag[0].tolist()):
            assert a >= b - 1e-12

    def test_overload_raises_with_diagnostics(self):
        feeder = two_bus(r=0.3, x=0.2)
        with pytest.raises(PowerFlowError) as err:
            solve_power_flow(feeder, *inj(feeder, [0.0, 60.0]))
        assert err.value.iterations >= 1

    def test_wrong_injection_width(self):
        feeder = chain(n_lines=2)
        with pytest.raises(ValueError, match="buses"):
            solve_power_flow(feeder, (0.0,), (0.0,))

    def test_deterministic(self):
        feeder = chain(n_lines=3)
        a = solve_power_flow(feeder, *inj(feeder, [0.0, 1.0, 2.0, 3.0]))
        b = solve_power_flow(feeder, *inj(feeder, [0.0, 1.0, 2.0, 3.0]))
        for f in dataclasses.fields(SweepBatch):
            assert bits(getattr(a, f.name)) == bits(getattr(b, f.name)), f.name


class TestBatchSweep:
    """solve_power_flow_batch against the scalar reference sweep, bit for bit."""

    @staticmethod
    def assert_matches_scalar(feeder, p, q, pv):
        batch = solve_power_flow_batch(feeder, p, q, pv)
        for i in range(len(p)):
            try:
                state = scalar_sweep(feeder, p[i], q[i], pv[i], slot=i + 1)
            except PowerFlowError as exc:
                assert batch.failed[i], i
                assert batch.iterations[i] == exc.iterations
                error = batch.error(i, i + 1)
                assert (str(error), error.mismatch) == (str(exc), exc.mismatch)
                continue
            assert not batch.failed[i], i
            assert batch.loss_kw[i] == state.loss_kw
            assert tuple(batch.v_mag[i].tolist()) == state.voltage_magnitudes()
            assert batch.iterations[i] == state.iterations
        return batch

    @staticmethod
    def cases(feeder, home_kw, pv_kw, seed=0, neighbor_kw=3.0):
        rng = np.random.default_rng(seed)
        n = len(home_kw)
        p = rng.uniform(0.0, neighbor_kw, (n, feeder.bus_count))
        p[:, 0] = 0.0
        p[:, feeder.smart_home_bus] = home_kw
        return p, p * 0.33, np.asarray(pv_kw, dtype=float)

    def test_canonical_feeder(self, canonical_feeder):
        home = np.linspace(0.0, 25.0, 240)
        home[::7] = 0.0  # home load 0
        pv = np.where(np.arange(240) % 3 == 0, 6.0, 0.0)  # PV export where home < 6 kW
        p, q, pv = self.cases(canonical_feeder, home, pv)
        p[:5] = 0.0  # unloaded feeder: flat voltages, one sweep
        q[:5] = 0.0
        pv[:5] = 0.0
        batch = self.assert_matches_scalar(canonical_feeder, p, q, pv)
        assert not batch.failed.any()
        assert (batch.iterations[:5] == 1).all()
        assert len(set(batch.iterations.tolist())) > 1  # cases stop on their own

    def test_weak_feeder_where_the_band_binds(self):
        feeder = chain(n_lines=2, r=0.2, x=0.12)
        p, q, pv = self.cases(feeder, np.linspace(0.0, 12.0, 120), np.zeros(120), seed=1)
        batch = self.assert_matches_scalar(feeder, p, q, pv)
        assert (batch.v_mag.min(axis=1) < 0.95).any()
        assert (batch.v_mag.min(axis=1) >= 0.95).any()

    def test_diverging_cases_fail_where_the_scalar_sweep_raises(self):
        feeder = chain(n_lines=2, r=0.2, x=0.12)
        p, q, pv = self.cases(feeder, np.linspace(0.0, 200.0, 100), np.zeros(100), seed=2)
        batch = self.assert_matches_scalar(feeder, p, q, pv)
        assert batch.failed.any() and not batch.failed.all()
        assert np.isnan(batch.loss_kw[batch.failed]).all()

    def test_an_overflowing_case_fails_instead_of_converging(self):
        # past |V| ~ 1e154 pu, |V|^2 overflows and the update turns NaN: the
        # case runs out of iterations, as in the reference, and is never
        # reported converged with NaN voltages
        feeder = chain(n_lines=2)
        p = np.array([[0.0, 1e200, 1.0], [0.0, 1.0, 1.0]])
        batch = solve_power_flow_batch(feeder, p, 0.3 * p, np.zeros(2))
        assert batch.failed.tolist() == [True, False]
        with pytest.raises(PowerFlowError) as exc:
            scalar_sweep(feeder, p[0], 0.3 * p[0], 0.0, slot=1)
        error = batch.error(0, 1)
        assert (str(error), bits(error.mismatch)) == (str(exc.value), bits(exc.value.mismatch))
        assert str(error) == "power flow did not converge in 50 iterations (slot 1, last update nan pu)"

    def test_collapsing_case_names_the_bus(self):
        # r * p = 1 pu: the first sweep drives the home bus to exactly 0 pu
        feeder = two_bus(r=0.5, x=0.0)
        p = np.array([[0.0, 100.0], [0.0, 10.0]])
        batch = self.assert_matches_scalar(feeder, p, np.zeros_like(p), np.zeros(2))
        assert batch.failed.tolist() == [True, False]
        assert batch.collapsed_bus.tolist() == [1, -1]


def random_tree(rng) -> FeederModel:
    """A radial feeder of 2-15 buses: each house hangs off a random earlier
    bus, every line's direction is flipped at random and the lines are
    shuffled, so the sweep's bus order varies; the smart home is a random
    bus of maximum depth."""
    buses = int(rng.integers(2, 16))
    parent = [0] + [int(rng.integers(0, b)) for b in range(1, buses)]
    depth = [0] * buses
    for b in range(1, buses):
        depth[b] = depth[parent[b]] + 1
    deepest = [b for b in range(buses) if depth[b] == max(depth)]
    # one feeder in four is purely resistive
    reactance = float(rng.uniform(0.2, 1.2)) if rng.random() < 0.75 else 0.0
    lines = []
    for b in range(1, buses):
        r = float(rng.uniform(0.002, 0.05))
        ends = (parent[b], b) if rng.random() < 0.5 else (b, parent[b])
        lines.append(FeederLine(*ends, r, r * reactance))
    order = rng.permutation(len(lines))
    return FeederModel(base_kva=50.0, base_kv=12.47, slack_voltage_pu=1.0,
                       lines=tuple(lines[i] for i in order),
                       smart_home_bus=int(rng.choice(deepest)))


class TestBranchedSweep:
    """solve_power_flow_batch on random radial trees, where the backward
    pass adds each bus's children in the tree's own order, against the
    scalar reference: every SweepBatch field of every case, bit for bit,
    or the same PowerFlowError."""

    def test_random_trees_match_the_scalar_sweep(self):
        rng = np.random.default_rng(29)
        branched = solved = failed = collapsed = 0
        for _ in range(80):
            feeder = random_tree(rng)
            branched += len(set(feeder._parent[1:])) < feeder.bus_count - 1
            cases = 30
            p = rng.uniform(0.0, 4.0, (cases, feeder.bus_count))
            p[:, 0] = 0.0
            p[rng.random(p.shape) < 0.2] = 0.0  # unloaded houses
            # a few heavy homes diverge or collapse the feeder
            p[:, feeder.smart_home_bus] = rng.uniform(0.0, 15.0, cases)
            p[:4, feeder.smart_home_bus] = rng.uniform(100.0, 3000.0, 4)
            q = p * rng.uniform(0.0, 0.5, p.shape)
            pv = np.where(rng.random(cases) < 0.3, rng.uniform(0.0, 8.0, cases), 0.0)
            if not any(z.imag for z in feeder._z):
                # the home alone, at the load whose first sweep drops its
                # voltage by 1 pu, to within rounding: the next sweep
                # finds it collapsed
                home, path = feeder.smart_home_bus, 0.0
                bus = home
                while bus:
                    path += feeder._z[bus].real
                    bus = feeder._parent[bus]
                p[4], q[4], pv[4] = 0.0, 0.0, 0.0
                p[4, home] = feeder.base_kva / path
            batch = solve_power_flow_batch(feeder, p, q, pv)
            for i in range(cases):
                try:
                    state = scalar_sweep(feeder, p[i], q[i], pv[i], slot=i + 1)
                except PowerFlowError as exc:
                    failed += 1
                    collapsed += batch.collapsed_bus[i] >= 0
                    assert batch.failed[i]
                    assert batch.iterations[i] == exc.iterations
                    error = batch.error(i, i + 1)
                    assert (str(error), bits(error.mismatch)) == (str(exc), bits(exc.mismatch))
                    assert np.isnan([batch.loss_kw[i], batch.loss_kvar[i], batch.slack_p_kw[i],
                                     batch.slack_q_kvar[i]]).all()
                    assert np.isnan(batch.v_mag[i]).all() and np.isnan(batch.voltages[i]).all()
                    continue
                solved += 1
                assert not batch.failed[i]
                assert batch.collapsed_bus[i] == -1
                assert batch.iterations[i] == state.iterations
                assert bits([batch.loss_kw[i], batch.loss_kvar[i], batch.slack_p_kw[i],
                             batch.slack_q_kvar[i]]) == bits(
                    [state.loss_kw, state.loss_kvar, state.slack_p_kw, state.slack_q_kvar])
                assert bits(batch.voltages[i].real) == bits([v.real for v in state.voltages])
                assert bits(batch.voltages[i].imag) == bits([v.imag for v in state.voltages])
                assert bits(batch.v_mag[i]) == bits(state.voltage_magnitudes())
        # 73 of the 80 trees branch; 2,078 cases solve, 322 fail, 17 by collapse
        assert branched > 60 and solved > 2000
        assert failed > 300 and 10 < collapsed < failed


class TestOneCaseSweep:
    """solve_power_flow, one case of the batched sweep, against the scalar
    reference: every field of the case's `ScalarState`, or the same
    PowerFlowError."""

    @staticmethod
    def outcome(solve, feeder, p, q, pv):
        try:
            state = solve(feeder, p, q, pv, slot=9)
        except PowerFlowError as exc:
            return (str(exc), exc.iterations, exc.mismatch)
        return state if isinstance(state, ScalarState) else ScalarState.of(state, 0, 9)

    @pytest.mark.parametrize("feeder, p, q, pv", [
        (chain(n_lines=5), [0.0] * 6, None, 0.0),
        (chain(n_lines=4), [0.0, 3.0, 1.5, 0.0, 6.0], [0.0, 1.0, 0.5, 0.0, 2.0], 0.0),
        (chain(n_lines=4), [0.0, 2.0, 2.0, 1.0, 3.0], None, 12.0),
        (build_canonical_feeder(), [0.0] + [1.2] * 12 + [9.5], [0.0] + [0.4] * 13, 3.0),
        (two_bus(r=0.3, x=0.2), [0.0, 60.0], None, 0.0),
        (two_bus(r=0.5, x=0.0), [0.0, 100.0], None, 0.0),
    ], ids=["unloaded", "loaded", "pv_export", "canonical", "diverging", "collapsing"])
    def test_equals_the_scalar_reference(self, feeder, p, q, pv):
        case = inj(feeder, p, q, pv=pv)
        state = self.outcome(solve_power_flow, feeder, *case)
        assert state == self.outcome(scalar_sweep, feeder, *case)
        if isinstance(state, ScalarState):
            reference = scalar_sweep(feeder, *case, slot=9)
            fields = ("loss_kw", "loss_kvar", "slack_p_kw", "slack_q_kvar")
            # equal, and with the same sign of zero
            assert [math.copysign(1.0, getattr(state, f)) for f in fields] == [
                math.copysign(1.0, getattr(reference, f)) for f in fields]


class TestReferenceArithmetic:
    """The reference sweep takes conj(S / V) and |V| in float +, -, *, /
    and sqrt, as the batch does.  On the canonical day it stays within a
    few ulps of Python's complex division and within one ulp of `abs`, so
    it still solves the power flow that complex arithmetic solves."""

    @pytest.mark.parametrize("with_pv", [False, True], ids=["nopv", "pv"])
    def test_canonical_day_agrees_with_complex_arithmetic(
            self, with_pv, grid48, canonical_appliances, canonical_price, canonical_pv,
            canonical_neighbors, canonical_feeder):
        ctx = ProblemContext(grid=grid48, appliances=canonical_appliances, price=canonical_price,
                             pv=canonical_pv if with_pv else None,
                             neighbors=canonical_neighbors, feeder=canonical_feeder)
        slots = np.arange(grid48.slot_count)
        p, q, pv = ctx._injection_arrays(slots, aggregate_power(ctx.original_schedule(),
                                                                ctx.appliances))
        base, home = canonical_feeder.base_kva, canonical_feeder.smart_home_bus
        currents = 0
        for idx in slots.tolist():
            state = scalar_sweep(canonical_feeder, p[idx], q[idx], pv[idx])
            for v, mag in zip(state.voltages, state.voltage_magnitudes()):
                assert abs(mag - abs(v)) <= math.ulp(abs(v))
            for b, (p_kw, q_kvar) in enumerate(zip(p[idx].tolist(), q[idx].tolist())):
                s = complex((p_kw - (pv[idx] if b == home else 0.0)) / base, q_kvar / base)
                if s:
                    v = state.voltages[b]
                    exact = (s / v).conjugate()
                    assert abs(_conj_quotient(s, v, _square(v)) - exact) <= 1e-15 * abs(exact)
                    currents += 1
        # every house draws in every slot
        assert currents == grid48.slot_count * (canonical_feeder.bus_count - 1)


class TestHomeAttribution:
    def test_baseline_disconnects_home_demand_and_pv(self):
        feeder = chain(n_lines=2)
        ctx = home_context(feeder, neighbor_kw=(2.0,), pv_kw=(3.0,))
        stripped = scalar_sweep(feeder, *inj(feeder, [0.0, 2.0, 0.0]))
        assert ctx.baseline_loss(0) == stripped.loss_kw
        home = scalar_sweep(feeder, [0.0, 2.0, 0.5], [0.0, 0.0, 0.5 * math.tan(
            math.acos(ctx.power_factor))], pv_kw=3.0)
        assert ctx.slot_flow(0, 0.5) == (
            max(0.0, home.loss_kw - stripped.loss_kw), home.voltage_magnitudes())

    def test_every_house_draws_at_the_context_power_factor(self):
        feeder = chain(n_lines=2)
        ctx = dataclasses.replace(home_context(feeder, neighbor_kw=(2.0,)), power_factor=0.8)
        tan = math.tan(math.acos(0.8))
        stripped = scalar_sweep(feeder, [0.0, 2.0, 0.0], [0.0, 2.0 * tan, 0.0])
        home = scalar_sweep(feeder, [0.0, 2.0, 0.5], [0.0, 2.0 * tan, 0.5 * tan])
        assert ctx.baseline_loss(0) == stripped.loss_kw
        assert ctx.slot_flow(0, 0.5) == (
            max(0.0, home.loss_kw - stripped.loss_kw), home.voltage_magnitudes())

    def test_failed_baseline_fails_the_slot(self):
        # the home's PV export carries the feeder; without the home, the
        # neighbour's 40 kW makes the sweep diverge
        ctx = home_context(chain(n_lines=2, r=0.3, x=0.18), neighbor_kw=(40.0,), pv_kw=(30.0,))
        with pytest.raises(PowerFlowError, match="did not converge") as baseline:
            ctx.baseline_loss(0)
        with pytest.raises(PowerFlowError) as flow:
            ctx.slot_flow(0, 0.5)
        assert str(flow.value) == str(baseline.value)
        report = is_feasible(ctx.original_schedule(), ctx)
        assert [(v.slot, v.bus) for v in report.voltage] == [(1, -1)]

    def test_failed_baseline_is_solved_once(self, monkeypatch):
        # every failed key is cached with its error, so each is swept once:
        # the baseline, the 0.5 kW flow that fails through it, and the
        # 200 kW flow that fails itself; re-solving the failed flows would
        # take 7 sweep calls for these 9 reads
        ctx = home_context(chain(n_lines=2, r=0.3, x=0.18), neighbor_kw=(40.0,), pv_kw=(30.0,))
        cases = []

        def counting(feeder, p, q, pv):
            cases.append(len(p))
            return solve_power_flow_batch(feeder, p, q, pv)

        monkeypatch.setattr(costing, "solve_power_flow_batch", counting)
        texts = []
        for call in [lambda: ctx.baseline_loss(0), lambda: ctx.slot_flow(0, 0.5)] * 3:
            with pytest.raises(PowerFlowError, match="did not converge") as exc:
                call()
            texts.append(str(exc.value))
        assert len(set(texts)) == 1
        assert cases == [1, 1]
        # a flow that diverges itself still reports its own failure first,
        # as on a context that knows nothing yet
        owns = []
        for _ in range(3):
            with pytest.raises(PowerFlowError) as own:
                ctx.slot_flow(0, 200.0)
            owns.append(str(own.value))
        assert cases == [1, 1, 1]
        with pytest.raises(PowerFlowError) as fresh:
            dataclasses.replace(ctx).slot_flow(0, 200.0)
        assert set(owns) == {str(fresh.value)} and owns[0] != texts[0]
        assert cases == [1, 1, 1, 2]
        # each read raised a copy: the cached errors carry no traceback
        cache = ctx._cache
        assert len(cache.errors) == 2 and len(cache.baseline_errors) == 1
        assert all(error.__traceback__ is None
                   for error in [*cache.errors.values(), *cache.baseline_errors.values()])

    def test_incremental_loss_positive_when_home_draws(self):
        ctx = home_context(chain(n_lines=2), neighbor_kw=(2.0,))
        billed, _ = ctx.slot_flow(0, 4.0)
        assert billed > 0.0

    def test_incremental_loss_floors_at_zero_under_export(self):
        # home exports more PV than it draws; its marginal loss contribution
        # is negative and must not become a credit
        ctx = home_context(chain(n_lines=2), neighbor_kw=(5.0,), pv_kw=(4.0,))
        exporting = solve_power_flow(ctx.feeder, *inj(ctx.feeder, [0.0, 5.0, 0.0], pv=4.0))
        assert exporting.loss_kw[0] < ctx.baseline_loss(0)
        billed, _ = ctx.slot_flow(0, 0.0)
        assert billed == 0.0


def test_voltage_band_check_filters():
    # slot 1: PV export lifts the home bus over the band; slot 2: a heavy
    # neighbour pulls both house buses under it
    ctx = home_context(chain(n_lines=2, r=0.05, x=0.03), neighbor_kw=(1.0, 9.0),
                       pv_kw=(12.0, 0.0), voltage_min=0.995, voltage_max=1.015)
    report = is_feasible(ctx.original_schedule(), ctx)
    mags = [ctx.slot_flow(idx, 0.5)[1] for idx in range(2)]
    assert report.voltage == [
        VoltageViolation(slot=1, bus=2, v_pu=mags[0][2]),
        VoltageViolation(slot=2, bus=1, v_pu=mags[1][1]),
        VoltageViolation(slot=2, bus=2, v_pu=mags[1][2]),
    ]


class TestFeederJson:
    def test_round_trip(self, tmp_path):
        feeder = chain(n_lines=3)
        p = tmp_path / "feeder.json"
        write_feeder_json(p, feeder)
        again = load_feeder_json(p)
        assert again == feeder

    def test_bad_json(self, tmp_path):
        p = tmp_path / "feeder.json"
        p.write_text("{nope")
        with pytest.raises(InputError, match="invalid JSON"):
            load_feeder_json(p)

    def test_missing_key(self, tmp_path):
        p = tmp_path / "feeder.json"
        p.write_text(json.dumps({"base_kva": 50}))
        with pytest.raises(InputError, match="bad feeder"):
            load_feeder_json(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            load_feeder_json(tmp_path / "nope.json")

    @pytest.mark.parametrize("path, value", [
        (("base_kva",), "nan"),
        (("lines", 0, "r_pu"), float("inf")),
        (("smart_home_bus",), 2.5),
        (("lines", 1, "to"), True),
    ])
    def test_non_finite_or_fractional_value(self, tmp_path, path, value):
        p = tmp_path / "feeder.json"
        write_feeder_json(p, chain(n_lines=3))
        data = json.loads(p.read_text())
        *parents, key = path
        target = data
        for step in parents:
            target = target[step]
        target[key] = value
        p.write_text(json.dumps(data))
        with pytest.raises(InputError, match="bad feeder description: not a"):
            load_feeder_json(p)


_FEEDER_DOC = {
    "base_kva": 50.0, "base_kv": 12.47, "slack_voltage_pu": 1.0, "smart_home_bus": 3,
    "lines": [{"from": b, "to": b + 1, "r_pu": 0.01, "x_pu": 0.006} for b in range(3)],
}


@st.composite
def _fuzzed_feeders(draw):
    """The 3-line feeder document with one key or one line field replaced,
    added or removed, and whether that added a key outside the schema."""
    document = json.loads(json.dumps(_FEEDER_DOC))
    target = document
    if draw(st.booleans()):
        target = document["lines"][draw(st.integers(0, len(_FEEDER_DOC["lines"]) - 1))]
    key = draw(st.sampled_from(sorted(target)) | st.text(max_size=6))
    added = key not in target
    if draw(st.booleans()):
        target.pop(key, None)
        added = False
    else:
        target[key] = draw(_JSON)
    return document, added


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_fuzzed_feeders())
@example(case=(dict(_FEEDER_DOC, lines=_FEEDER_DOC["lines"][:2] + [
    {"from": 3, "to": 3, "r_pu": 0.01, "x_pu": 0.006}]), False))
@example(case=(dict(_FEEDER_DOC, slack_voltage=1.05), True))
def test_any_json_is_a_feeder_or_an_input_error(tmp_path, case):
    # a bad value and a bad topology alike end as an InputError naming the
    # file, and so does an added key outside the schema: none is dropped
    document, added = case
    path = tmp_path / "feeder.json"
    path.write_text(json.dumps(document))
    try:
        feeder = load_feeder_json(path)
    except InputError as exc:
        assert str(path) in str(exc)
        if added:  # only one field changed, so the added key is the only fault
            assert "bad feeder description: unknown keys" in str(exc)
        return
    assert not added
    assert isinstance(feeder, FeederModel)


def test_canonical_feeder_layout(canonical_feeder):
    built = build_canonical_feeder()
    assert canonical_feeder == built  # fixture file mirrors the builder
    assert built.bus_count == 14
    assert built.smart_home_bus == 13
    assert len(built.neighbor_buses) == 12
    assert all(ln.r_pu == 0.006 and ln.x_pu == 0.00375 for ln in built.lines)


@pytest.fixture(scope="module")
def voltage_contexts(grid48, canonical_appliances, canonical_price, canonical_pv,
                     canonical_neighbors, canonical_feeder):
    """(context, largest home kW to try): the canonical day, and the weak
    3-bus feeder on which the voltage band binds."""
    canonical = ProblemContext(
        grid=grid48, appliances=canonical_appliances, price=canonical_price, pv=canonical_pv,
        neighbors=canonical_neighbors, feeder=canonical_feeder,
    )
    return {"canonical": (canonical, 40.0), "weak": (weak_feeder_context(0.15), 25.0)}


@pytest.mark.parametrize("name", ["canonical", "weak"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_bus_voltage_is_non_increasing_in_home_load(voltage_contexts, name, data):
    # DistFlow (Baran & Wu 1989): more load at the home bus lowers every
    # bus voltage on a radial feeder
    ctx, top_kw = voltage_contexts[name]
    slot = data.draw(st.integers(0, ctx.grid.slot_count - 1), label="slot")
    low = data.draw(st.floats(0.0, top_kw), label="low kW")
    # one watt apart, or anywhere above
    high = data.draw(st.just(low + 0.001) | st.floats(low, top_kw), label="high kW")
    _, v_low = ctx.slot_flow(slot, low)
    _, v_high = ctx.slot_flow(slot, high)
    assert all(h <= l for l, h in zip(v_low, v_high))
