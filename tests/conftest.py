"""Shared fixtures: canonical day inputs loaded once per session."""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import settings

from dsmsched.domain import TimeGrid, load_appliances_csv
from dsmsched.feeder import load_feeder_json
from dsmsched.profiles import PriceSeries, PvSeries, load_neighbor_loads, load_series

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# under CI, Hypothesis draws the same examples on every run and keeps no
# example database, so a failing run replays from its log
settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")

# one line per acceptance criterion, echoed in the terminal summary so the
# pass/fail verdicts survive pytest's output capture
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def grid48() -> TimeGrid:
    return TimeGrid()


@pytest.fixture(scope="session")
def canonical_appliances():
    return tuple(load_appliances_csv(FIXTURES / "appliances_household.csv"))


@pytest.fixture(scope="session")
def canonical_price(grid48) -> PriceSeries:
    return PriceSeries(values=tuple(load_series(FIXTURES / "price_day_ahead.csv", grid48)))


@pytest.fixture(scope="session")
def canonical_pv(grid48) -> PvSeries:
    return PvSeries(
        values=tuple(load_series(FIXTURES / "pv_6kw.csv", grid48)), capacity_kw=6.0
    )


@pytest.fixture(scope="session")
def canonical_neighbors(grid48):
    return load_neighbor_loads(FIXTURES / "neighbor_loads.csv", grid48)


@pytest.fixture(scope="session")
def canonical_feeder():
    return load_feeder_json(FIXTURES / "feeder_13bus.json")
