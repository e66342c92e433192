"""Power-flow references for tests.

`scalar_sweep` is the per-bus, per-case backward/forward sweep that the
vectorized `feeder.solve_power_flow_batch` must reproduce bit for bit; it
returns a `ScalarState`, whose `of` reads one case of a `SweepBatch` as
the same record.
`nr_two_bus` and `nr_radial` are Newton-Raphson solves in polar form,
deliberately a different method from the sweep, so agreement with them is
meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from dsmsched.errors import PowerFlowError
from dsmsched.feeder import FeederModel, SweepBatch


@dataclass(frozen=True)
class ScalarState:
    """Converged network state of one case."""

    slot: int
    voltages: tuple[complex, ...]
    loss_kw: float
    loss_kvar: float
    slack_p_kw: float
    slack_q_kvar: float
    iterations: int

    def voltage_magnitudes(self) -> tuple[float, ...]:
        return tuple(abs(v) for v in self.voltages)

    @classmethod
    def of(cls, sweep: SweepBatch, case: int, slot: int) -> "ScalarState":
        """Case `case` of a sweep, reported as `slot`."""
        return cls(
            slot=slot,
            voltages=tuple(sweep.voltages[case].tolist()),
            loss_kw=float(sweep.loss_kw[case]),
            loss_kvar=float(sweep.loss_kvar[case]),
            slack_p_kw=float(sweep.slack_p_kw[case]),
            slack_q_kvar=float(sweep.slack_q_kvar[case]),
            iterations=int(sweep.iterations[case]),
        )


def nr_two_bus(
    r_pu: float,
    x_pu: float,
    p_load_pu: float,
    q_load_pu: float,
    slack: float = 1.0,
    tol: float = 1e-13,
    max_iter: int = 60,
) -> complex:
    """Voltage phasor at the load bus, per unit."""
    y = 1.0 / complex(r_pu, x_pu)
    g10, b10 = -y.real, -y.imag  # off-diagonal Y entry
    g11, b11 = y.real, y.imag
    p_spec, q_spec = -p_load_pu, -q_load_pu  # injections

    theta, v = 0.0, slack
    for _ in range(max_iter):
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        p = v * slack * (g10 * cos_t + b10 * sin_t) + v * v * g11
        q = v * slack * (g10 * sin_t - b10 * cos_t) - v * v * b11
        dp, dq = p_spec - p, q_spec - q
        if max(abs(dp), abs(dq)) < tol:
            break
        jac = np.array(
            [
                [v * slack * (-g10 * sin_t + b10 * cos_t),
                 slack * (g10 * cos_t + b10 * sin_t) + 2 * v * g11],
                [v * slack * (g10 * cos_t + b10 * sin_t),
                 slack * (g10 * sin_t - b10 * cos_t) - 2 * v * b11],
            ]
        )
        step = np.linalg.solve(jac, np.array([dp, dq]))
        theta += step[0]
        v += step[1]
    else:
        raise RuntimeError("reference NR did not converge")
    return v * complex(math.cos(theta), math.sin(theta))


def nr_radial(
    feeder: FeederModel,
    p_kw: Sequence[float],
    q_kvar: Sequence[float],
    pv_kw: float = 0.0,
    tol: float = 1e-13,
    max_iter: int = 60,
) -> tuple[np.ndarray, float]:
    """Bus voltage phasors (pu) and feeder loss (kW) of one slot: bus
    demand p_kw / q_kvar, PV output pv_kw at the smart home.

    Newton-Raphson in polar form (Tinney & Hart, "Power flow solution by
    Newton's method", IEEE Trans. PAS-86(11), 1967): bus 0 is the slack at
    the feeder's slack voltage, every other bus is a PQ bus, and each step
    solves the dense Jacobian of the P and Q mismatches over the angles and
    magnitudes of the PQ buses.  The loss is the sum of all bus injections.
    """
    count = feeder.bus_count
    y_bus = np.zeros((count, count), dtype=complex)
    for line in feeder.lines:
        a, b = line.from_bus, line.to_bus
        y = 1.0 / complex(line.r_pu, line.x_pu)
        y_bus[a, a] += y
        y_bus[b, b] += y
        y_bus[a, b] -= y
        y_bus[b, a] -= y
    demand = np.array(p_kw) + 1j * np.array(q_kvar)
    demand[feeder.smart_home_bus] -= pv_kw
    s_spec = -demand[1:] / feeder.base_kva

    theta = np.zeros(count)
    mag = np.full(count, feeder.slack_voltage_pu)
    for _ in range(max_iter):
        v = mag * np.exp(1j * theta)
        current = y_bus @ v
        mismatch = s_spec - (v * current.conj())[1:]
        if np.abs(mismatch).max() < tol:
            break
        # dS/dtheta and dS/d|V| of the complex injections S = V conj(Y V)
        d_theta = 1j * np.diag(v) @ (np.diag(current) - y_bus @ np.diag(v)).conj()
        unit = np.diag(v / mag)
        d_mag = np.diag(v) @ (y_bus @ unit).conj() + np.diag(current.conj()) @ unit
        jac = np.block([
            [d_theta[1:, 1:].real, d_mag[1:, 1:].real],
            [d_theta[1:, 1:].imag, d_mag[1:, 1:].imag],
        ])
        step = np.linalg.solve(jac, np.concatenate([mismatch.real, mismatch.imag]))
        theta[1:] += step[:count - 1]
        mag[1:] += step[count - 1:]
    else:
        raise RuntimeError("reference NR did not converge")
    v = mag * np.exp(1j * theta)
    loss = (v * (y_bus @ v).conj()).sum().real
    return v, loss * feeder.base_kva


def scalar_sweep(
    feeder: FeederModel,
    p_kw: Sequence[float],
    q_kvar: Sequence[float],
    pv_kw: float = 0.0,
    slot: int = 1,
    tol: float = 1e-8,
    max_iter: int = 50,
) -> ScalarState:
    """Backward/forward sweep of one case, bus demand p_kw / q_kvar and PV
    output pv_kw at the smart home in `slot`, until the largest voltage
    update is below tol.

    Raises PowerFlowError when the sweep fails to converge (heavy overload
    collapses the voltage and the iteration diverges instead).
    """
    count = feeder.bus_count
    if len(p_kw) != count:
        raise ValueError(f"injections cover {len(p_kw)} buses, feeder has {count}")

    base = feeder.base_kva
    home = feeder.smart_home_bus
    s_pu = [
        complex((p_kw[b] - (pv_kw if b == home else 0.0)) / base, q_kvar[b] / base)
        for b in range(count)
    ]

    parent = feeder._parent
    order = feeder._order
    z_in = feeder._z
    forward = order[1:]
    backward = order[:0:-1]

    slack = complex(feeder.slack_voltage_pu, 0.0)
    volt = [slack] * count
    iterations = 0
    converged = False
    delta = 0.0
    while iterations < max_iter:
        iterations += 1
        current = [0j] * count
        for b in range(count):
            if s_pu[b] != 0:
                vb = volt[b]
                if abs(vb) < 1e-6:
                    raise PowerFlowError(
                        f"voltage collapsed at bus {b} in slot {slot}",
                        iterations=iterations,
                        mismatch=float("inf"),
                    )
                current[b] = (s_pu[b] / vb).conjugate()
        for b in backward:
            current[parent[b]] += current[b]
        delta = 0.0
        new_volt = volt.copy()
        new_volt[0] = slack
        for b in forward:
            new_volt[b] = new_volt[parent[b]] - z_in[b] * current[b]
            step = abs(new_volt[b] - volt[b])
            if step > delta:
                delta = step
        volt = new_volt
        if delta < tol:
            converged = True
            break
    if not converged:
        raise PowerFlowError(
            f"power flow did not converge in {max_iter} iterations "
            f"(slot {slot}, last update {delta:.3e} pu)",
            iterations=iterations,
            mismatch=delta,
        )

    # one consistent backward pass at the final voltages for losses and
    # the slack injection
    current = [0j] * count
    for b in range(count):
        if s_pu[b] != 0:
            current[b] = (s_pu[b] / volt[b]).conjugate()
    for b in backward:
        current[parent[b]] += current[b]
    loss = 0j
    for b in forward:
        # a product, not ** 2: libm pow(x, 2) can differ from x * x in the
        # last bit, and the batched sweep must reproduce this sum exactly
        mag = abs(current[b])
        loss += z_in[b] * (mag * mag)
    slack_s = slack * current[0].conjugate()

    return ScalarState(
        slot=slot,
        voltages=tuple(volt),
        loss_kw=loss.real * base,
        loss_kvar=loss.imag * base,
        slack_p_kw=slack_s.real * base,
        slack_q_kvar=slack_s.imag * base,
        iterations=iterations,
    )
