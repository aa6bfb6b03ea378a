"""Tumor spheroid growth (the oncology workload, built from the public API).

A ball of tumor cells proliferates, wanders, and dies stochastically.
The script tracks the population and the spheroid radius over time and
prints a growth table — the kind of model output the paper's oncology
use case produces.

Run:  python examples/tumor_spheroid.py
"""

import numpy as np

from repro import Param, Simulation
from repro.core.behaviors_lib import GrowDivide, RandomWalk, StochasticDeath


def spheroid_radius(sim) -> float:
    """Root-mean-square distance of cells from the spheroid's center."""
    pos = sim.rm.positions
    center = pos.mean(axis=0)
    return float(np.sqrt(np.mean(np.sum((pos - center) ** 2, axis=1))))


def build_simulation(seed: int = 7, n0: int = 300) -> Simulation:
    """Build the tumor spheroid model as a pure function of ``seed``.

    Exposed separately from :func:`main` so the determinism harness
    (``tests/test_verify_replay.py``) can replay the exact example model.
    """
    param = Param.optimized(agent_sort_frequency=10)
    sim = Simulation("tumor-spheroid", param, seed=seed)
    rng = np.random.default_rng(seed)

    # Seed: cells in a tight ball.
    direction = rng.normal(size=(n0, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    radii = 40.0 * rng.random(n0) ** (1 / 3)
    sim.add_cells(
        100.0 + direction * radii[:, None],
        diameters=10.0,
        behaviors=[
            GrowDivide(growth_rate=100.0, division_diameter=14.0, max_agents=4000),
            StochasticDeath(probability=0.003),
            RandomWalk(speed=10.0),
        ],
    )
    return sim


def main():
    sim = build_simulation(seed=7)

    print(f"{'step':>5} {'cells':>6} {'radius_um':>10} {'deaths':>7}")
    total_deaths = 0
    prev_uids = set(sim.rm.data["uid"].tolist())
    for step in range(0, 161, 20):
        if step:
            sim.simulate(20)
            uids = set(sim.rm.data["uid"].tolist())
            total_deaths += len(prev_uids - uids)
            prev_uids = uids
        print(f"{step:5d} {sim.num_agents:6d} {spheroid_radius(sim):10.1f} "
              f"{total_deaths:7d}")

    # Spatial structure of the final spheroid (repro.analysis).
    from repro.analysis import density_profile, radial_distribution_function

    centers, dens = density_profile(sim.rm.positions, bins=8)
    print("\nradial density profile (cells/um^3):")
    for r, d in zip(centers, dens):
        bar = "#" * int(d / max(dens.max(), 1e-12) * 30)
        print(f"  r={r:6.1f}  {d:9.5f}  {bar}")
    r_g, g = radial_distribution_function(sim.rm.positions, r_max=25.0, bins=25)
    print(f"g(r) first peak at r = {r_g[np.argmax(g)]:.1f} um "
          f"(cell contact distance ~{np.mean(sim.rm.data['diameter']):.1f} um)")

    print("\nper-operation wall time (s):")
    for op, t in sorted(sim.obs.stage_seconds().items(), key=lambda kv: -kv[1]):
        print(f"  {op:20s} {t:.3f}")


if __name__ == "__main__":
    main()
