"""Feasibility checks: duration, window, structure, demand cap, voltage band.

`check_duration`, `check_window` and `check_contiguity` read the schedule
alone.  `is_feasible` runs them and lists the slots over the demand cap
and the buses outside the voltage band that `costing.assess`, the kernel
the search scores every genotype with, finds in the schedule's gross load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Sequence

import numpy as np

from .costing import KW_TOL, ProblemContext, assess
from .domain import (
    Appliance,
    ApplianceClass,
    Schedule,
    aggregate_power,
    effective_window,
)
from .feeder import VoltageViolation

__all__ = [
    "KW_TOL",
    "FeasibilityReport",
    "check_duration",
    "check_window",
    "check_contiguity",
    "is_feasible",
]

CONTIG_GAP = "gap"
CONTIG_BASELINE = "baseline_off"


@dataclass
class FeasibilityReport:
    """Violation lists per constraint; feasible iff all lists are empty."""

    duration: list[tuple[int, int]] = field(default_factory=list)
    window: list[tuple[int, int]] = field(default_factory=list)
    max_demand: list[tuple[int, float]] = field(default_factory=list)
    voltage: list[VoltageViolation] = field(default_factory=list)
    contiguity: list[int] = field(default_factory=list)
    baseline_fixed: list[int] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return not (
            self.duration
            or self.window
            or self.max_demand
            or self.voltage
            or self.contiguity
            or self.baseline_fixed
        )

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "duration": [
                {"appliance": a, "on_count": n} for a, n in self.duration
            ],
            "window": [
                {"appliance": a, "slot": s} for a, s in self.window
            ],
            "max_demand": [
                {"slot": s, "aggregate_kw": round(kw, 6)} for s, kw in self.max_demand
            ],
            "voltage": [
                {"slot": v.slot, "bus": v.bus,
                 "v_pu": None if np.isnan(v.v_pu) else round(v.v_pu, 6)}
                for v in self.voltage
            ],
            "contiguity": list(self.contiguity),
            "baseline_fixed": list(self.baseline_fixed),
        }


def check_duration(
    schedule: Schedule, appliances: Sequence[Appliance]
) -> list[tuple[int, int]]:
    """(appliance id, actual on-count) for rows not matching their duration."""
    counts = schedule.matrix.sum(axis=1)
    return [
        (a.id, int(n))
        for a, n in zip(appliances, counts)
        if int(n) != a.duration
    ]


def check_window(
    schedule: Schedule, appliances: Sequence[Appliance]
) -> list[tuple[int, int]]:
    """(appliance id, slot) pairs running outside the effective window: the
    declared window widened to cover the appliance's original plan, as the
    optimizer uses it."""
    violations = []
    for row, a in enumerate(appliances):
        lo, hi = effective_window(a)
        for s in schedule.on_slots(row):
            if s < lo or s > hi:
                violations.append((a.id, s))
    return violations


def check_contiguity(
    schedule: Schedule, appliances: Sequence[Appliance]
) -> list[tuple[int, str]]:
    """Structure violations: gaps in uninterruptible runs, baseline rows off.

    Returns (appliance id, kind) with kind 'gap' or 'baseline_off'.
    """
    violations = []
    for row, a in enumerate(appliances):
        slots = schedule.on_slots(row)
        if a.appliance_class is ApplianceClass.BASELINE:
            if len(slots) != schedule.slot_count:
                violations.append((a.id, CONTIG_BASELINE))
        elif a.appliance_class is ApplianceClass.UNINTERRUPTIBLE and slots:
            if slots[-1] - slots[0] + 1 != len(slots):
                violations.append((a.id, CONTIG_GAP))
    return violations


def is_feasible(schedule: Schedule, context: ProblemContext) -> FeasibilityReport:
    """Run every check for the given problem.

    The demand cap flags (slot, gross kW) for each slot whose gross demand
    exceeds `md_kw` by more than KW_TOL.  The voltage band is checked at
    each slot with neighbor loads and PV applied; a non-convergent power
    flow counts as a voltage failure for that slot (bus -1, magnitude NaN).
    """
    appliances = context.appliances
    report = FeasibilityReport()
    report.duration = check_duration(schedule, appliances)
    report.window = check_window(schedule, appliances)
    for aid, kind in check_contiguity(schedule, appliances):
        if kind == CONTIG_BASELINE:
            report.baseline_fixed.append(aid)
        else:
            report.contiguity.append(aid)

    gross = aggregate_power(schedule, appliances)
    loads = assess(context, gross[None])
    report.max_demand = [(t + 1, gross[t].item())
                         for t in np.flatnonzero(loads.excess[0]).tolist()]
    keys = loads.cells[0]
    slots, buses = np.nonzero(loads.outside[keys])
    found = [VoltageViolation(s + 1, b, v) for s, b, v in
             zip(slots.tolist(), buses.tolist(), loads.mags[keys[slots], buses].tolist())]
    found += [VoltageViolation(s + 1, -1, math.nan)
              for s, key in enumerate(keys.tolist()) if key in loads.errors]
    # a failed slot has no bus outside the band; the stable sort keeps bus order
    report.voltage = sorted(found, key=attrgetter("slot"))
    return report
