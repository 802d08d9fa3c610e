"""A miniature transient circuit simulator ("HSPICE-lite").

The paper uses HSPICE with the 22 nm Predictive Technology Model to
simulate ring oscillators and extract the clock-period-versus-voltage
table.  We replace it with a small forward-Euler transient simulator of
CMOS inverter chains/rings:

* each node is a capacitor ``C`` to ground;
* each inverter drives its output with a pull-up (PMOS) or pull-down
  (NMOS) current following the Sakurai-Newton alpha-power law
  ``I = k * (Vgs_eff - Vth)^alpha``, with a linear-region rolloff near
  the rail so waveforms settle smoothly;
* the input of each stage is the (analog) output voltage of the
  previous stage, compared against the switching threshold Vdd/2.

This is enough physics to make oscillation period scale with supply
voltage the way Table 5.1 does, which is all the downstream system
consumes.

The integration loop runs over plain Python floats, one stage at a
time: Python's ``**`` and numpy's float64 scalar power both call libm
``pow``, so results match a numpy formulation bit for bit, whereas
vectorising over stages (SIMD ``pow``) drifts by an ulp.  Nodes that
cannot move are skipped without evaluating the drive current, and the
skip is exact, not an approximation:

* a node already on the rail its input drives it toward has a rolloff
  of exactly 0, so its update adds a signed zero and leaves it as is;
* a node whose driving device has no overdrive (``<= 0``) gets a
  current of exactly 0;

and clipping to ``[0, Vdd]`` cannot change a voltage that was already
clipped on the previous step.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

__all__ = ["InverterParams", "TransientResult", "simulate_inverter_ring"]

#: Width (V) of the linear rolloff band below the destination rail
#: (crude triode region), so integration settles cleanly at the rails.
_LINEAR_BAND = 0.05


@dataclass(frozen=True)
class InverterParams:
    """Electrical parameters of one inverter stage.

    Attributes
    ----------
    vth:
        Device threshold voltage (V).
    alpha:
        Alpha-power-law exponent.
    k_drive:
        Drive-strength coefficient (A / V^alpha).
    cap:
        Output node capacitance (F).
    """

    vth: float = 0.42
    alpha: float = 1.3
    k_drive: float = 1.0e-3
    cap: float = 1.0e-15


@dataclass
class TransientResult:
    """Waveforms and measurements from a transient run."""

    time: np.ndarray
    waveforms: np.ndarray  # shape (n_nodes, n_steps)
    period: Optional[float]  # measured oscillation period, None if none

    def node_waveform(self, node: int) -> np.ndarray:
        return self.waveforms[node]


def simulate_inverter_ring(
    n_stages: int,
    vdd: float,
    params: InverterParams | None = None,
    t_stop: float = 2.0e-9,
    dt: float = 1.0e-13,
) -> TransientResult:
    """Transient-simulate an ``n_stages``-inverter ring oscillator.

    ``n_stages`` must be odd for oscillation.  Returns waveforms and
    the measured steady-state period (averaged over the last few
    rising-edge crossings of node 0, skipping start-up).
    """
    if n_stages < 3 or n_stages % 2 == 0:
        raise ValueError("ring oscillator needs an odd stage count >= 3")
    p = params or InverterParams()
    if vdd <= p.vth:
        raise ValueError(f"vdd {vdd} V at or below threshold {p.vth} V")

    n_steps = int(t_stop / dt)
    # Seed an asymmetric initial state so oscillation starts immediately.
    v = [vdd if i % 2 else 0.0 for i in range(n_stages)]
    v[0] = vdd * 0.25

    vth, alpha, k_drive, cap = p.vth, p.alpha, p.k_drive, p.cap
    flat = array("d")
    crossings: List[float] = []
    half = vdd / 2.0
    prev_v0 = v[0]

    for step in range(n_steps):
        nxt = []
        append = nxt.append
        v_in = v[-1]
        for v_out in v:
            # NMOS pulls down when the input is high, PMOS pulls up when
            # it is low, with an alpha-power overdrive and a linear
            # rolloff within _LINEAR_BAND of the destination rail.  A
            # node on that rail, or without overdrive, keeps v_out.
            if v_in >= half:
                if v_out == 0.0:
                    append(v_out)
                else:
                    overdrive = v_in - vth
                    if overdrive <= 0.0:
                        append(v_out)
                    else:
                        rolloff = v_out / _LINEAR_BAND
                        if rolloff > 1.0:
                            rolloff = 1.0
                        current = -(k_drive * overdrive**alpha) * rolloff
                        nv = v_out + current / cap * dt
                        append(nv if nv > 0.0 else 0.0)
            elif v_out == vdd:
                append(v_out)
            else:
                overdrive = (vdd - v_in) - vth
                if overdrive <= 0.0:
                    append(v_out)
                else:
                    rolloff = (vdd - v_out) / _LINEAR_BAND
                    if rolloff > 1.0:
                        rolloff = 1.0
                    current = k_drive * overdrive**alpha * rolloff
                    nv = v_out + current / cap * dt
                    append(nv if nv < vdd else vdd)
            v_in = v_out
        v = nxt
        flat.extend(v)
        v0 = v[0]
        if prev_v0 < half <= v0:
            # linear interpolation of the rising-edge crossing instant
            frac = (half - prev_v0) / (v0 - prev_v0)
            crossings.append((step - 1 + frac) * dt)
        prev_v0 = v0

    times = np.arange(n_steps) * dt
    waveforms = np.frombuffer(flat, dtype=np.float64).reshape(-1, n_stages).T

    period: Optional[float] = None
    if len(crossings) >= 4:
        # Skip the first edges (start-up transient), average the rest.
        diffs = np.diff(crossings[1:])
        if len(diffs) > 0:
            period = float(np.mean(diffs))
    return TransientResult(time=times, waveforms=waveforms, period=period)
