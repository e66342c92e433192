"""Scalar genotype evaluation, the reference for the batched evaluator.

One genotype at a time, slot by slot through `ProblemContext.slot_flows`
up to the first failed flow, bus by bus through the voltage band: the
per-genotype loop the optimizer used before it scored whole generations
as arrays.  Row i of the batched evaluator's column record must reproduce
every field of the reference's record exactly.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from dsmsched.constraints import KW_TOL
from dsmsched.csa import FLOW_FAILURE_PENALTY, Antibody, Scores, SearchSpace
from dsmsched.errors import PowerFlowError


def gross(space: SearchSpace, antibody: Antibody) -> np.ndarray:
    """Gross household kW per slot: one bincount of the genotype's slots."""
    buf = np.array([s for gene in antibody for s in gene], dtype=np.intp)
    moved = np.bincount(buf, weights=space.rate_weights, minlength=space.slot_count + 1)
    return space.baseline_gross + moved[1:]


def rows(scores: Scores) -> list[dict]:
    """The column record as one {field: value} record per genotype."""
    names = [f.name for f in fields(scores)]
    columns = [getattr(scores, name).tolist() for name in names]
    return [dict(zip(names, row)) for row in zip(*columns)]


def evaluate(space: SearchSpace, antibody: Antibody, weight: float) -> dict:
    """Score of one genotype under the space's context and penalty weight,
    as a {field: value} record with the fields of `Scores`."""
    ctx = space.context
    gross_kw = gross(space, antibody)

    excess = gross_kw - ctx.md_kw
    excess[excess <= KW_TOL] = 0.0
    md_excess = float(excess.sum())

    volt_violation = 0.0
    flow_failed = False
    loss = np.zeros(space.slot_count)
    if ctx.feeder is not None:
        vmin, vmax = ctx.voltage_min, ctx.voltage_max
        for idx, flow in enumerate(ctx.slot_flows(gross_kw)):
            if isinstance(flow, PowerFlowError):
                flow_failed = True
                break
            billed, vmags = flow
            loss[idx] = billed
            for mag in vmags:
                if mag < vmin:
                    volt_violation += vmin - mag
                elif mag > vmax:
                    volt_violation += mag - vmax

    net = np.maximum(gross_kw - ctx.pv_array(), 0.0)
    energy = float(np.dot(net + loss, ctx.price_array()) * ctx.grid.slot_hours)

    shift_slots = 0
    weighted = 0.0
    for f, gene in zip(space.flex, antibody):
        appliance = ctx.appliances[f.row]
        delta = sum(abs(n - o) for n, o in zip(gene, appliance.original_on_slots))
        shift_slots += delta
        weighted += delta * appliance.rated_kw
    penalty = ctx.grid.slot_hours * ctx.penalty_price * weighted
    total = energy + penalty

    score = -total - weight * (md_excess + volt_violation)
    if flow_failed:
        score -= FLOW_FAILURE_PENALTY

    return dict(
        energy_usd=energy,
        penalty_usd=penalty,
        total_usd=total,
        md_excess=md_excess,
        voltage_violation=volt_violation,
        flow_failed=flow_failed,
        shift_slots=shift_slots,
        weighted_shift=weighted,
        score=score,
        feasible=md_excess == 0.0 and volt_violation == 0.0 and not flow_failed,
    )


def flow_entries(ctx) -> dict[tuple[int, int], tuple[float, tuple[float, ...]]]:
    """The context's flow cache as a {(slot, W): (billed loss kW, per-bus
    |V| pu)} mapping, read from its arrays."""
    cache = ctx._cache
    count = ctx.grid.slot_count
    rows = cache.rows
    return {
        (code % count, code // count): (loss, tuple(mags))
        for code, loss, mags in zip(
            cache.codes.tolist(), cache.loss[rows].tolist(), cache.mags[rows].tolist())
    }


def bits(value):
    """`value` with every float replaced by its exact hex form, so that ==
    compares bit for bit: -0.0 differs from 0.0, and NaN equals NaN."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return tuple(bits(v) for v in value)
    return value
