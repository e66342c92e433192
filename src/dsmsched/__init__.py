"""Day-ahead household appliance scheduling under demand and voltage limits."""

__version__ = "0.1.0"

from .costing import CostBreakdown, ProblemContext, total_cost
from .csa import CsaConfig, OptimResult, optimize
from .domain import (
    Appliance,
    ApplianceClass,
    Schedule,
    TimeGrid,
    aggregate_power,
    schedule_from_on_slots,
    validate_appliance_set,
)
from .oracle import SmallInstance, exhaustive_optimize

__all__ = [
    "__version__",
    "Appliance",
    "ApplianceClass",
    "CostBreakdown",
    "CsaConfig",
    "OptimResult",
    "ProblemContext",
    "Schedule",
    "SmallInstance",
    "TimeGrid",
    "aggregate_power",
    "exhaustive_optimize",
    "optimize",
    "schedule_from_on_slots",
    "total_cost",
    "validate_appliance_set",
]
