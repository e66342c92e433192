"""Radial low-voltage feeder model and backward/forward sweep power flow.

The feeder is a tree rooted at the slack bus (id 0).  Every other bus is a
house; the smart home sits at the electrically farthest bus.  Quantities are
converted to per-unit on the feeder's kVA/kV base, solved, and reported back
in kW / kvar / per-unit voltage.

There is one sweep, `solve_power_flow_batch`, vectorized over load cases;
`solve_power_flow` is its one-case call.  It matches a per-case sweep over
Python complex numbers bit for bit; that reference lives with the tests
(`tests/pf_reference.py`).  The canonical feeder and the feeder writer
live with the fixture generator, `scripts/generate_fixtures.py`.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .domain import finite_float, whole_int
from .errors import InputError, PowerFlowError

__all__ = [
    "FeederLine",
    "FeederModel",
    "SlotInjections",
    "BusState",
    "VoltageViolation",
    "solve_power_flow",
    "SweepBatch",
    "solve_power_flow_batch",
    "load_feeder_json",
]


@dataclass(frozen=True)
class FeederLine:
    from_bus: int
    to_bus: int
    r_pu: float
    x_pu: float

    def __post_init__(self) -> None:
        if self.from_bus == self.to_bus:
            raise ValueError(f"line connects bus {self.from_bus} to itself")
        if self.r_pu < 0 or self.x_pu < 0:
            raise ValueError(f"line {self.from_bus}-{self.to_bus} has negative impedance")


@dataclass(frozen=True)
class FeederModel:
    """Radial network on a common power base.

    Bus ids must be the contiguous range 0..N with 0 the slack bus, and the
    lines must form a tree over them.  The smart home bus has to sit at
    maximal depth (end of the feeder).  Any other layout is a ValueError.
    """

    base_kva: float
    base_kv: float
    slack_voltage_pu: float
    lines: tuple[FeederLine, ...]
    smart_home_bus: int

    # derived topology, filled in __post_init__
    _parent: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _order: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _z: tuple[complex, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.base_kva <= 0 or self.base_kv <= 0:
            raise ValueError("base_kva and base_kv must be positive")
        if self.slack_voltage_pu <= 0:
            raise ValueError("slack_voltage_pu must be positive")
        if not self.lines:
            raise ValueError("feeder has no lines")

        buses = {0}
        for line in self.lines:
            buses.add(line.from_bus)
            buses.add(line.to_bus)
        count = len(buses)
        if buses != set(range(count)):
            raise ValueError(f"bus ids must be contiguous 0..{count - 1}, got {sorted(buses)}")
        if len(self.lines) != count - 1:
            raise ValueError(f"{len(self.lines)} lines over {count} buses cannot form a tree")
        if not 0 < self.smart_home_bus < count:
            raise ValueError(f"smart_home_bus {self.smart_home_bus} is not a house bus")

        adjacency: dict[int, list[tuple[int, complex]]] = {b: [] for b in range(count)}
        for line in self.lines:
            z = complex(line.r_pu, line.x_pu)
            adjacency[line.from_bus].append((line.to_bus, z))
            adjacency[line.to_bus].append((line.from_bus, z))

        parent = [-1] * count
        depth = [0] * count
        z_in = [0j] * count
        order = [0]
        seen = {0}
        queue = deque([0])
        while queue:
            b = queue.popleft()
            for nb, z in adjacency[b]:
                if nb in seen:
                    continue
                seen.add(nb)
                parent[nb] = b
                depth[nb] = depth[b] + 1
                z_in[nb] = z
                order.append(nb)
                queue.append(nb)
        if len(seen) != count:
            raise ValueError("feeder is not connected")
        if depth[self.smart_home_bus] != max(depth):
            raise ValueError(f"smart_home_bus {self.smart_home_bus} is not at the end of the feeder")

        object.__setattr__(self, "_parent", tuple(parent))
        object.__setattr__(self, "_order", tuple(order))
        object.__setattr__(self, "_z", tuple(z_in))

    @property
    def bus_count(self) -> int:
        return len(self._parent)

    @property
    def neighbor_buses(self) -> tuple[int, ...]:
        """House buses other than the smart home, ascending."""
        return tuple(b for b in range(1, self.bus_count) if b != self.smart_home_bus)


@dataclass(frozen=True)
class SlotInjections:
    """Per-bus demand for one slot, plus PV output at the smart-home bus."""

    slot: int
    p_kw: tuple[float, ...]
    q_kvar: tuple[float, ...]
    pv_kw: float = 0.0

    def __post_init__(self) -> None:
        if len(self.p_kw) != len(self.q_kvar):
            raise ValueError("p_kw and q_kvar must have equal length")
        if any(p < 0 for p in self.p_kw):
            raise ValueError("bus demand must be non-negative")
        if self.pv_kw < 0:
            raise ValueError(f"pv_kw must be non-negative, got {self.pv_kw}")


@dataclass(frozen=True)
class BusState:
    """Converged network state for one slot."""

    slot: int
    voltages: tuple[complex, ...]
    loss_kw: float
    loss_kvar: float
    slack_p_kw: float
    slack_q_kvar: float
    iterations: int

    def voltage_magnitudes(self) -> tuple[float, ...]:
        return tuple(abs(v) for v in self.voltages)


@dataclass(frozen=True)
class VoltageViolation:
    slot: int
    bus: int
    v_pu: float


def solve_power_flow(
    feeder: FeederModel,
    injections: SlotInjections,
    tol: float = 1e-8,
    max_iter: int = 50,
) -> BusState:
    """Backward/forward sweep of one slot: `solve_power_flow_batch` on a
    single case.

    Raises PowerFlowError when the sweep fails to converge (heavy overload
    collapses the voltage and the iteration diverges instead).
    """
    sweep = solve_power_flow_batch(
        feeder, [injections.p_kw], [injections.q_kvar], [injections.pv_kw], tol, max_iter)
    if sweep.failed[0]:
        raise sweep.error(0, injections.slot)
    return BusState(
        slot=injections.slot,
        voltages=tuple(sweep.voltages[0].tolist()),
        loss_kw=float(sweep.loss_kw[0]),
        loss_kvar=float(sweep.loss_kvar[0]),
        slack_p_kw=float(sweep.slack_p_kw[0]),
        slack_q_kvar=float(sweep.slack_q_kvar[0]),
        iterations=int(sweep.iterations[0]),
    )


@dataclass(frozen=True)
class SweepBatch:
    """Outcome of `solve_power_flow_batch`, one entry per case.

    `voltages` (cases x buses, complex pu), `v_mag` (their magnitudes),
    `loss_kw`, `loss_kvar` and the slack injection `slack_p_kw` /
    `slack_q_kvar` are NaN where `failed` is set.  `iterations` counts the
    sweeps each case ran, up to the failure.  A failed case either
    collapsed, at bus `collapsed_bus` (-1 otherwise), or ran out of
    iterations with `last_update` pu as its final voltage update.
    """

    voltages: np.ndarray
    v_mag: np.ndarray
    loss_kw: np.ndarray
    loss_kvar: np.ndarray
    slack_p_kw: np.ndarray
    slack_q_kvar: np.ndarray
    iterations: np.ndarray
    failed: np.ndarray
    collapsed_bus: np.ndarray
    last_update: np.ndarray

    def error(self, case: int, slot: int) -> PowerFlowError:
        """The PowerFlowError of failed case `case`, reported as `slot`."""
        iterations = int(self.iterations[case])
        bus = int(self.collapsed_bus[case])
        if bus >= 0:
            text, mismatch = f"voltage collapsed at bus {bus} in slot {slot}", float("inf")
        else:
            mismatch = float(self.last_update[case])
            text = (f"power flow did not converge in {iterations} iterations "
                    f"(slot {slot}, last update {mismatch:.3e} pu)")
        return PowerFlowError(text, iterations=iterations, mismatch=mismatch)


def _complex_quotient(ar, ai, br, bi):
    """(ar + i ai) / (br + i bi), elementwise, exactly as CPython divides.

    CPython scales by whichever of br, bi has the larger magnitude (Smith's
    method) and divides by the scaled denominator; each branch is repeated
    here operation for operation, so every result equals Python's complex
    division bit for bit.
    """
    ratio = bi / br
    denom = br + bi * ratio
    re = (ar + ai * ratio) / denom
    im = (ai - ar * ratio) / denom
    by_imag = ~(np.abs(br) >= np.abs(bi))
    if by_imag.any():
        ar, ai, br, bi = ar[by_imag], ai[by_imag], br[by_imag], bi[by_imag]
        ratio = br / bi
        denom = br * ratio + bi
        re[by_imag] = (ar * ratio + ai) / denom
        im[by_imag] = (ai * ratio - ar) / denom
    return re, im


def _branch_currents(s_re, s_im, loaded, v_re, v_im, feeder: FeederModel):
    """Branch currents (bus x case) of one backward sweep: conj(S / V) at
    every loaded bus, accumulated from the leaves towards the slack."""
    q_re, q_im = _complex_quotient(s_re, s_im, v_re, v_im)
    c_re = np.where(loaded, q_re, 0.0)
    c_im = np.where(loaded, -q_im, 0.0)
    parent = feeder._parent
    for b in feeder._order[:0:-1]:
        c_re[parent[b]] += c_re[b]
        c_im[parent[b]] += c_im[b]
    return c_re, c_im


def solve_power_flow_batch(
    feeder: FeederModel,
    p_kw: np.ndarray,
    q_kvar: np.ndarray,
    pv_kw: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 50,
) -> SweepBatch:
    """Backward/forward sweep of many load cases at once.

    Case i is the slot with bus demand p_kw[i] / q_kvar[i] (cases x buses)
    and PV output pv_kw[i] at the smart home.  Each case sweeps until its
    largest voltage update is below tol; it fails when a loaded bus's
    voltage collapses below 1e-6 pu or after max_iter sweeps.

    The sweep works on float64 real and imaginary arrays: buses are
    visited one at a time, cases are vectorized.  Every operation repeats
    what a per-case sweep over Python complex numbers does -- complex
    division as CPython computes it, |z| as hypot, squares as products --
    and each case stops at its own iteration, so every case's result is
    the same, bit for bit, whatever the other cases in the batch.
    """
    p = np.asarray(p_kw, dtype=float)
    cases, count = p.shape
    if count != feeder.bus_count:
        raise ValueError(f"injections cover {count} buses, feeder has {feeder.bus_count}")
    base = feeder.base_kva
    home = feeder.smart_home_bus
    # bus x case layout; p - 0.0 == p, so only the home row subtracts PV
    s_all_re = p.T.copy()
    s_all_re[home] -= np.asarray(pv_kw, dtype=float)
    s_all_re /= base
    s_all_im = np.asarray(q_kvar, dtype=float).T / base
    loaded_all = (s_all_re != 0) | (s_all_im != 0)

    parent = feeder._parent
    forward = feeder._order[1:]
    z_re = [z.real for z in feeder._z]
    z_im = [z.imag for z in feeder._z]
    slack = feeder.slack_voltage_pu

    iterations = np.zeros(cases, dtype=np.int64)
    failed = np.ones(cases, dtype=bool)
    collapsed_bus = np.full(cases, -1, dtype=np.int64)
    last_update = np.zeros(cases)
    final_re = np.full((count, cases), np.nan)  # stays NaN where a case fails
    final_im = np.full((count, cases), np.nan)

    live = np.arange(cases)  # cases still sweeping
    s_re, s_im, loaded = s_all_re, s_all_im, loaded_all
    v_re = np.full((count, cases), slack)
    v_im = np.zeros((count, cases))
    with np.errstate(all="ignore"):
        for it in range(1, max_iter + 1):
            iterations[live] = it
            # a case fails before dividing by a collapsed voltage; the
            # lowest such bus is the one reported
            low = loaded & (np.hypot(v_re, v_im) < 1e-6)
            collapsed = low.any(axis=0)
            if collapsed.any():
                collapsed_bus[live[collapsed]] = low[:, collapsed].argmax(axis=0)
            c_re, c_im = _branch_currents(s_re, s_im, loaded, v_re, v_im, feeder)
            n_re = v_re.copy()
            n_im = v_im.copy()
            n_re[0] = slack
            n_im[0] = 0.0
            for b in forward:
                a = parent[b]
                n_re[b] = n_re[a] - (z_re[b] * c_re[b] - z_im[b] * c_im[b])
                n_im[b] = n_im[a] - (z_re[b] * c_im[b] + z_im[b] * c_re[b])
            step = np.hypot(n_re - v_re, n_im - v_im)
            # running max over buses that skips NaN steps, as the per-case
            # reference's `if step > delta` does
            delta = np.fmax.reduce(step, axis=0, initial=0.0)
            last_update[live] = delta
            done = ~collapsed & (delta < tol)
            final_re[:, live[done]] = n_re[:, done]
            final_im[:, live[done]] = n_im[:, done]
            failed[live[done]] = False
            keep = ~(done | collapsed)
            if not keep.any():
                break
            if not keep.all():
                live = live[keep]
                v_re, v_im = n_re[:, keep], n_im[:, keep]
                s_re, s_im, loaded = s_re[:, keep], s_im[:, keep], loaded[:, keep]
            else:
                v_re, v_im = n_re, n_im

    # one consistent backward pass at the final voltages, for losses and
    # the slack injection; NaN in, NaN out where a case failed
    with np.errstate(all="ignore"):
        c_re, c_im = _branch_currents(s_all_re, s_all_im, loaded_all, final_re, final_im, feeder)
        loss_re = np.zeros(cases)
        loss_im = np.zeros(cases)
        for b in forward:
            mag = np.hypot(c_re[b], c_im[b])
            square = mag * mag
            # z * square, the zero terms of a complex product dropped: the
            # impedance is non-negative, so they change no bit
            loss_re = loss_re + z_re[b] * square
            loss_im = loss_im + z_im[b] * square
        # slack * conj(I0) as a complex product, slack voltage (slack, 0);
        # the zero terms fix the sign of a zero injection
        slack_p = (slack * c_re[0] - 0.0 * -c_im[0]) * base
        slack_q = (slack * -c_im[0] + 0.0 * c_re[0]) * base
    voltages = np.empty((cases, count), dtype=complex)
    voltages.real = final_re.T
    voltages.imag = final_im.T
    return SweepBatch(
        voltages=voltages, v_mag=np.hypot(final_re, final_im).T, loss_kw=loss_re * base,
        loss_kvar=loss_im * base, slack_p_kw=slack_p, slack_q_kvar=slack_q,
        iterations=iterations, failed=failed, collapsed_bus=collapsed_bus,
        last_update=last_update,
    )


# the keys of a feeder file, and of each of its lines; any other is an error
_FEEDER_KEYS = frozenset({"base_kva", "base_kv", "slack_voltage_pu", "smart_home_bus", "lines"})
_LINE_KEYS = frozenset({"from", "to", "r_pu", "x_pu"})


def _known_keys(obj, keys: frozenset[str], where: str = "") -> None:
    """Raise if `obj` is an object that names a key outside `keys`."""
    if isinstance(obj, dict) and not keys.issuperset(obj):
        raise ValueError(f"unknown keys {sorted(set(obj) - keys)}{where}")


def load_feeder_json(path: str | Path) -> FeederModel:
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read feeder file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from None
    try:
        _known_keys(data, _FEEDER_KEYS)
        lines = []
        for i, line in enumerate(data["lines"]):
            _known_keys(line, _LINE_KEYS, f" in line {i}")
            lines.append(FeederLine(
                from_bus=whole_int(line["from"]),
                to_bus=whole_int(line["to"]),
                r_pu=finite_float(line["r_pu"]),
                x_pu=finite_float(line["x_pu"]),
            ))
        return FeederModel(
            base_kva=finite_float(data["base_kva"]),
            base_kv=finite_float(data["base_kv"]),
            slack_voltage_pu=finite_float(data["slack_voltage_pu"]),
            lines=tuple(lines),
            smart_home_bus=whole_int(data["smart_home_bus"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: bad feeder description: {exc}") from None
