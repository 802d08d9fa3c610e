"""Tests for the mini-SPICE transient simulator and ring oscillator."""

import os
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.ring_oscillator import RING_CALIBRATION, sweep_ring_oscillator
from repro.circuit.spice import (
    InverterParams,
    TransientResult,
    simulate_inverter_ring,
)
from repro.circuit.voltage import TABLE_5_1

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestTransient:
    def test_ring_oscillates(self):
        res = simulate_inverter_ring(5, 1.0, RING_CALIBRATION, t_stop=1.5e-9)
        assert res.period is not None
        assert res.period > 0

    def test_even_stage_count_rejected(self):
        with pytest.raises(ValueError):
            simulate_inverter_ring(4, 1.0)

    def test_subthreshold_supply_rejected(self):
        with pytest.raises(ValueError):
            simulate_inverter_ring(5, 0.3, InverterParams(vth=0.5))

    def test_waveforms_bounded_by_rails(self):
        res = simulate_inverter_ring(5, 0.9, RING_CALIBRATION, t_stop=1.0e-9)
        assert res.waveforms.min() >= 0.0
        assert res.waveforms.max() <= 0.9 + 1e-12

    def test_lower_voltage_slower(self):
        hi = simulate_inverter_ring(5, 1.0, RING_CALIBRATION, t_stop=1.5e-9)
        lo = simulate_inverter_ring(5, 0.8, RING_CALIBRATION, t_stop=3.0e-9)
        assert lo.period > hi.period

    def test_more_stages_longer_period(self):
        small = simulate_inverter_ring(5, 1.0, RING_CALIBRATION, t_stop=2.0e-9)
        big = simulate_inverter_ring(9, 1.0, RING_CALIBRATION, t_stop=2.0e-9)
        assert big.period > small.period


@pytest.fixture(scope="module")
def sweep():
    return sweep_ring_oscillator()


class TestRingSweep:
    def test_regenerates_table_5_1(self, sweep):
        """Table 5.1 regeneration: calibrated worst-case ~8 %, bound 12 %."""
        assert sweep.max_rel_error < 0.12

    def test_normalised_reference_is_unity(self, sweep):
        assert sweep.normalized[1.0] == pytest.approx(1.0)

    def test_monotone_in_voltage(self, sweep):
        volts = sorted(sweep.normalized, reverse=True)
        periods = [sweep.normalized[v] for v in volts]
        assert all(a <= b + 1e-12 for a, b in zip(periods, periods[1:]))

    def test_rows_cover_published_table(self, sweep):
        rows = sweep.rows()
        assert len(rows) == len(TABLE_5_1)
        assert rows[0][0] == 1.0


#: Table 5.1 ring periods (s) of the numpy reference loop, pinned exactly.
PINNED_PERIODS = {
    1.0: 1.5469668957729473e-11,
    0.92: 1.7184296531000662e-11,
    0.86: 1.8983001850899353e-11,
    0.8: 2.1524306336067803e-11,
    0.72: 2.718186109455355e-11,
    0.68: 3.208333576040701e-11,
    0.65: 3.768221375274807e-11,
}

#: ``python -m repro run table_5_1`` stdout of the numpy reference loop.
PINNED_TABLE_5_1_STDOUT = (
    "== table_5_1: Voltage versus nominal clock period "
    "(ring-oscillator regeneration) ==\n"
    "\n"
    "Vdd (V)  tnom paper (x)  tnom regenerated (x)\n"
    "-------  --------------  --------------------\n"
    "1        1               1                   \n"
    "0.92     1.13            1.111               \n"
    "0.86     1.27            1.227               \n"
    "0.8      1.39            1.391               \n"
    "0.72     1.63            1.757               \n"
    "0.68     2.21            2.074               \n"
    "0.65     2.63            2.436               \n"
    "\n"
    "paper              : HSPICE + PTM 22nm ring oscillators\n"
    "ours               : 5-stage alpha-power transient ring\n"
    "max relative error : 7.8%\n"
)


class TestPinnedCircuitLayer:
    def test_sweep_periods_exact(self, sweep):
        assert sweep.periods == PINNED_PERIODS

    def test_cli_table_5_1_stdout_exact(self):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "table_5_1"],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            check=True,
        )
        assert proc.stdout == PINNED_TABLE_5_1_STDOUT


def _reference_drive_current(
    v_in: float, v_out: float, vdd: float, p: InverterParams
) -> float:
    linear_band = 0.05
    if v_in >= vdd / 2.0:
        overdrive = v_in - p.vth
        if overdrive <= 0.0:
            return 0.0
        i_sat = p.k_drive * overdrive**p.alpha
        rolloff = min(1.0, max(0.0, v_out / linear_band))
        return -i_sat * rolloff
    overdrive = (vdd - v_in) - p.vth
    if overdrive <= 0.0:
        return 0.0
    i_sat = p.k_drive * overdrive**p.alpha
    rolloff = min(1.0, max(0.0, (vdd - v_out) / linear_band))
    return i_sat * rolloff


def _reference_inverter_ring(
    n_stages: int,
    vdd: float,
    p: InverterParams,
    t_stop: float,
    dt: float,
) -> TransientResult:
    """The per-step numpy formulation the scalar kernel must match."""
    n_steps = int(t_stop / dt)
    v = np.zeros(n_stages)
    for i in range(n_stages):
        v[i] = vdd if i % 2 else 0.0
    v[0] = vdd * 0.25

    waveforms = np.empty((n_stages, n_steps))
    times = np.arange(n_steps) * dt
    crossings: List[float] = []
    half = vdd / 2.0
    prev_v0 = v[0]

    for step in range(n_steps):
        dv = np.empty(n_stages)
        for i in range(n_stages):
            v_in = v[(i - 1) % n_stages]
            dv[i] = _reference_drive_current(v_in, v[i], vdd, p) / p.cap
        v = np.clip(v + dv * dt, 0.0, vdd)
        waveforms[:, step] = v
        if prev_v0 < half <= v[0]:
            frac = (half - prev_v0) / (v[0] - prev_v0)
            crossings.append((step - 1 + frac) * dt)
        prev_v0 = v[0]

    period: Optional[float] = None
    if len(crossings) >= 4:
        diffs = np.diff(crossings[1:])
        if len(diffs) > 0:
            period = float(np.mean(diffs))
    return TransientResult(time=times, waveforms=waveforms, period=period)


@st.composite
def _ring_cases(draw):
    params = InverterParams(
        vth=draw(st.floats(0.3, 0.6)),
        alpha=draw(st.floats(0.8, 2.0)),
        k_drive=draw(st.floats(0.5e-3, 2.0e-3)),
        cap=draw(st.floats(0.5e-15, 2.0e-15)),
    )
    vdd = draw(st.floats(params.vth + 0.05, 1.1, exclude_min=True))
    n_stages = draw(st.sampled_from([3, 5, 7, 9]))
    dt = draw(st.sampled_from([1.0e-13, 2.0e-13, 4.0e-13]))
    t_stop = draw(st.floats(1.0e-12, 4.0e-10))
    return n_stages, vdd, params, t_stop, dt


#: Cases long enough to measure a steady period, so the crossing and
#: averaging path is compared too (random short cases mostly are not).
OSCILLATING_CASES = [
    (5, 1.0, RING_CALIBRATION, 3.0e-10, 2.0e-13),
    (3, 0.65, RING_CALIBRATION, 4.0e-10, 4.0e-13),
]


def _assert_matches_reference(case) -> Optional[float]:
    n_stages, vdd, params, t_stop, dt = case
    got = simulate_inverter_ring(n_stages, vdd, params, t_stop=t_stop, dt=dt)
    want = _reference_inverter_ring(n_stages, vdd, params, t_stop, dt)
    assert got.period == want.period
    assert got.time.shape == want.time.shape
    assert got.time.dtype == want.time.dtype
    assert np.array_equal(got.time, want.time)
    assert got.waveforms.shape == want.waveforms.shape
    assert got.waveforms.dtype == want.waveforms.dtype
    assert np.array_equal(got.waveforms, want.waveforms)
    return want.period


class TestKernelMatchesNumpyReference:
    @settings(max_examples=40, deadline=None)
    @given(_ring_cases())
    def test_bit_identical(self, case):
        _assert_matches_reference(case)

    @pytest.mark.parametrize("case", OSCILLATING_CASES)
    def test_bit_identical_through_steady_oscillation(self, case):
        assert _assert_matches_reference(case) is not None
