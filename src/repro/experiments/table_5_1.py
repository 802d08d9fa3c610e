"""Table 5.1 -- Voltage versus nominal clock period.

Regenerates the published table from first principles: the calibrated
alpha-power inverter ring is transient-simulated at each voltage level
and the measured periods are normalised to the 1.0 V corner.
"""

from __future__ import annotations

from .common import ExperimentResult, cached_experiment

__all__ = ["run"]


@cached_experiment("table_5_1")
def run(n_stages: int = 5) -> ExperimentResult:
    from repro.circuit.ring_oscillator import sweep_ring_oscillator

    sweep = sweep_ring_oscillator(n_stages=n_stages)
    rows = [
        (vdd, published, round(regen, 3))
        for vdd, published, regen in sweep.rows()
    ]
    return ExperimentResult(
        experiment_id="table_5_1",
        title="Voltage versus nominal clock period (ring-oscillator regeneration)",
        headers=["Vdd (V)", "tnom paper (x)", "tnom regenerated (x)"],
        rows=rows,
        notes={
            "paper": "HSPICE + PTM 22nm ring oscillators",
            "ours": f"{n_stages}-stage alpha-power transient ring",
            "max relative error": f"{sweep.max_rel_error * 100:.1f}%",
        },
        plot=False,
    )


if __name__ == "__main__":
    print(run().render())
