"""Seeded small instances for the `small_vs_oracle` workload.

Seven families on a 16-slot half-hour grid, each within the exhaustive
oracle's limits (at most 16 slots and 4 flexible appliances):

    steep, flat, two_valley   tariff shapes
    md                        a demand cap that forbids overlapping runs
    pv                        a midday PV bell at the smart home
    feeder                    a weak three-bus feeder whose voltage band binds
    widened                   original runs outside the declared window

Each family keeps a fixed structure (classes, windows, durations), so every
seed enumerates the same number of candidates and does about the same work.
The seed only jitters ratings, tariff levels, PV and neighbour levels; the
habitual run times are fixed, which keeps the achievable saving, and so
`saving_pct`, within a few per cent across seeds.  Each family is written
as a scenario config that `dsmsched.cli.load_scenario_config` reads.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SLOTS = 16
PENALTIES = (0.0, 0.1)
FAMILIES = ("steep", "flat", "two_valley", "md", "pv", "feeder", "widened")

# one base level per slot, jittered by up to +-10% per seed
_TARIFFS = {
    "steep": (0.03,) * 5 + (0.08,) * 4 + (0.30,) * 4 + (0.08,) * 3,
    "flat": (0.08,) * 16,
    "two_valley": (0.05, 0.05, 0.12, 0.25, 0.25, 0.12, 0.05, 0.05,
                   0.12, 0.25, 0.25, 0.12, 0.05, 0.05, 0.12, 0.25),
}
_PV_BELL = (0.0, 0.0, 0.0, 0.0, 0.6, 1.3, 2.0, 2.5, 2.5, 2.0, 1.3, 0.6, 0.0, 0.0, 0.0, 0.0)
_NEIGHBOR = (1.5, 1.5, 1.5, 1.8, 2.0, 2.2, 2.5, 2.5, 2.8, 3.2, 3.5, 3.5, 3.0, 2.5, 2.0, 1.5)


def _baseline(aid: int, kw: float) -> dict:
    return _row(aid, "baseline", 1, SLOTS, SLOTS, kw, list(range(1, SLOTS + 1)))


def _row(aid: int, cls: str, lo: int, hi: int, duration: int, kw: float,
         original: list[int]) -> dict:
    return {
        "id": aid, "class": cls, "window_start": lo, "window_end": hi,
        "duration": duration, "rated_kw": kw, "original_slots": original,
    }


class _Draw:
    """Seeded jitter helpers for one family."""

    def __init__(self, seed: int, family: str):
        self.rng = np.random.default_rng([seed, FAMILIES.index(family)])

    def kw(self, base: float) -> float:
        # 2-decimal ratings, like the appliance table
        return round(base * float(self.rng.uniform(0.85, 1.15)), 2)

    def series(self, base: tuple[float, ...]) -> list[float]:
        scale = self.rng.uniform(0.9, 1.1, size=len(base))
        return [round(float(v * s), 4) for v, s in zip(base, scale)]


def _uninterruptible(d: _Draw, aid: int, lo: int, hi: int, duration: int,
                     kw: float, start: int) -> dict:
    return _row(aid, "uninterruptible", lo, hi, duration, d.kw(kw),
                list(range(start, start + duration)))


def _interruptible(d: _Draw, aid: int, lo: int, hi: int, duration: int,
                   kw: float, first: int) -> dict:
    # the habitual run is a contiguous block starting at `first`
    return _row(aid, "interruptible", lo, hi, duration, d.kw(kw),
                list(range(first, first + duration)))


def _family(name: str, seed: int) -> dict:
    """Scenario config body (without paths) for one family and seed."""
    d = _Draw(seed, name)
    tariff = "steep" if name in ("md", "pv", "widened") else (
        "two_valley" if name == "feeder" else name)
    body: dict = {
        "label": f"small-{name}",
        "grid": {"slot_count": SLOTS, "slot_hours": 0.5},
        "price": d.series(_TARIFFS[tariff]),
        "md_kw": 100.0,
        "penalty_prices_usd_per_kwh": list(PENALTIES),
    }
    if name == "widened":
        # declared windows end before the habitual runs; the hull governs
        appliances = [
            _baseline(1, d.kw(0.4)),
            _row(2, "uninterruptible", 2, 8, 2, d.kw(1.5), [12, 13]),
            _row(3, "interruptible", 1, 9, 2, d.kw(1.0), [11, 12]),
            _interruptible(d, 4, 3, 14, 2, 1.2, 10),
        ]
    elif name == "md":
        appliances = [
            _baseline(1, d.kw(0.4)),
            _uninterruptible(d, 2, 1, 16, 3, 1.5, 10),
            _interruptible(d, 3, 3, 14, 2, 2.0, 10),
            _interruptible(d, 4, 1, 12, 2, 1.2, 9),
        ]
        body["md_kw"] = 3.0
    elif name == "pv":
        appliances = [
            _baseline(1, d.kw(0.3)),
            _interruptible(d, 2, 1, 16, 3, 1.4, 1),
            _uninterruptible(d, 3, 3, 14, 2, 1.2, 12),
            _uninterruptible(d, 4, 3, 14, 3, 0.9, 12),
        ]
        body["pv"] = d.series(_PV_BELL)
        body["pv_capacity_kw"] = 3.0
        body["pv_enabled"] = True
    elif name == "feeder":
        appliances = [
            _baseline(1, d.kw(0.5)),
            _uninterruptible(d, 2, 1, 16, 3, 2.4, 9),
            _interruptible(d, 3, 1, 16, 2, 1.8, 10),
            _uninterruptible(d, 4, 4, 15, 2, 1.6, 11),
        ]
    else:
        appliances = [
            _baseline(1, d.kw(0.4)),
            _uninterruptible(d, 2, 1, 16, 3, 1.5, 10),
            _interruptible(d, 3, 2, 15, 2, 2.0, 11),
            _interruptible(d, 4, 4, 13, 2, 1.2, 12),
        ]
    body["appliances"] = appliances
    if name == "feeder":
        body["neighbors"] = d.series(_NEIGHBOR)
    return body


# weak lateral: slack - neighbour - smart home; |V| at the home drops below
# 0.95 pu when the home draws several kW in a slot with a high neighbour load
_FEEDER = {
    "base_kva": 50.0,
    "base_kv": 12.47,
    "slack_voltage_pu": 1.0,
    "smart_home_bus": 2,
    "lines": [
        {"from": 0, "to": 1, "r_pu": 0.15, "x_pu": 0.09},
        {"from": 1, "to": 2, "r_pu": 0.15, "x_pu": 0.09},
    ],
}


def write_family_configs(seed: int, csa_seed: int, directory: Path,
                         csa: dict | None = None, families=None) -> list[Path]:
    """Write one scenario config per family into `directory`; return paths.

    `csa_seed` becomes the config's `seed`; `csa` adds CSA overrides;
    `families` picks a subset of FAMILIES (default: all).
    """
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name in families or FAMILIES:
        body = _family(name, seed)
        neighbors = body.pop("neighbors", None)
        if neighbors is not None:
            (directory / f"{name}_feeder.json").write_text(json.dumps(_FEEDER, indent=2))
            lines = ["slot,h1"] + [f"{t},{v:.6f}" for t, v in enumerate(neighbors, 1)]
            (directory / f"{name}_neighbors.csv").write_text("\n".join(lines) + "\n")
            body["feeder_json"] = f"{name}_feeder.json"
            body["neighbors_csv"] = f"{name}_neighbors.csv"
        body["seed"] = csa_seed
        body["out_dir"] = f"out_{name}"
        if csa:
            body["csa"] = dict(csa)
        path = directory / f"{name}.json"
        path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
        paths.append(path)
    return paths
