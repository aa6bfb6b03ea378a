"""Test-only reference for the substance-grid pipeline.

The stencil kernel, the grid's point operations and the ``Chemotaxis`` /
``Secretion`` bodies the engine shipped before the slab-blocked kernel,
the flat-index grid access, the in-place normalisation and the
agent-field kernels replaced them, copied verbatim: ``diffuse`` pads the
grid and adds six shifted full-size slices, the grid operations index
``concentration`` with an ``(i, j, k)`` tuple, ``chemotaxis_run``
normalises through boolean compaction, ``secretion_run`` deposits
through the grid's ``add_substance``.  Slow and allocation-heavy (~12
grid-sized temporaries per stencil call), but
each line is the textbook expression, which is what makes it the
differential baseline: ``repro.kernels.numpy_ref.diffuse``,
:class:`repro.core.diffusion.DiffusionGrid` and
:class:`repro.core.behaviors_lib.Chemotaxis` / ``Secretion`` on every
kernel backend must reproduce every output byte for byte
(``tests/test_diffusion_differential.py``).

The grid functions take the :class:`DiffusionGrid` as their first
argument, so they can be monkeypatched back onto the class for the
trajectory differential.
"""

import numpy as np


def diffuse(concentration, voxel_size, diffusion_coefficient, decay, dt):
    """One explicit diffusion-decay stencil update (Neumann boundaries).

    Returns the new concentration array; the input is not modified.
    Zero-flux boundaries are realized by edge replication, equivalent to
    clamping the 7-point stencil's neighbor indices at the faces.
    """
    c = concentration
    # Neumann (zero-flux) boundaries via edge replication.
    p = np.pad(c, 1, mode="edge")
    lap = (
        p[2:, 1:-1, 1:-1] + p[:-2, 1:-1, 1:-1]
        + p[1:-1, 2:, 1:-1] + p[1:-1, :-2, 1:-1]
        + p[1:-1, 1:-1, 2:] + p[1:-1, 1:-1, :-2]
        - 6.0 * c
    ) / voxel_size**2
    return c + dt * (diffusion_coefficient * lap - decay * c)


def step(grid, dt, kernels=None):
    """``DiffusionGrid.step``: a fresh array per update, no spare."""
    if dt > grid.stable_time_step() * (1 + 1e-9):
        raise ValueError(
            f"dt={dt} exceeds the stable step {grid.stable_time_step():.3g}"
        )
    grid.concentration = diffuse(
        grid.concentration, grid.voxel_size,
        grid.diffusion_coefficient, grid.decay, dt,
    )


def voxel_of(grid, points):
    """Voxel coordinates containing each point (clamped to the grid)."""
    pts = np.atleast_2d(points)
    ijk = ((pts - grid.lower) / grid.voxel_size).astype(np.int64)
    ijk = np.clip(ijk, 0, grid.resolution - 1)
    return ijk[:, 0], ijk[:, 1], ijk[:, 2]


def concentration_at(grid, points):
    """Concentration in the voxel containing each point."""
    i, j, k = voxel_of(grid, points)
    return grid.concentration[i, j, k]


def add_substance(grid, points, amounts):
    """Secrete ``amounts`` into the voxels containing ``points``."""
    i, j, k = voxel_of(grid, points)
    np.add.at(grid.concentration, (i, j, k), amounts)


def consume(grid, points, fraction):
    """Remove a fraction of the local concentration; returns the uptake."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    i, j, k = voxel_of(grid, points)
    taken = grid.concentration[i, j, k] * fraction
    np.subtract.at(grid.concentration, (i, j, k), taken)
    return taken


def gradient_at(grid, points):
    """Central-difference concentration gradient at each point."""
    i, j, k = voxel_of(grid, points)
    r = grid.resolution
    c = grid.concentration
    out = np.empty((len(i), 3))
    for axis, idx in enumerate((i, j, k)):
        up = [i, j, k]
        dn = [i, j, k]
        up[axis] = np.minimum(idx + 1, r - 1)
        dn[axis] = np.maximum(idx - 1, 0)
        out[:, axis] = (c[tuple(up)] - c[tuple(dn)]) / (2.0 * grid.voxel_size)
    return out


def chemotaxis_run(behavior, sim, idx):
    """``Chemotaxis.run``: move agents up the substance gradient."""
    rm = sim.rm
    grid = sim.diffusion_grids[behavior.substance]
    grad = grid.gradient_at(rm.positions[idx])
    norm = np.linalg.norm(grad, axis=1)
    ok = norm > 1e-12
    step = np.zeros_like(grad)
    step[ok] = grad[ok] / norm[ok, None]
    rm.positions[idx] += step * behavior.speed * sim.param.simulation_time_step
    rm.data["moved"][idx] |= ok


def secretion_run(behavior, sim, idx):
    """``Secretion.run``: deposit substance into the voxel of each agent."""
    grid = sim.diffusion_grids[behavior.substance]
    grid.add_substance(sim.rm.positions[idx], behavior.amount)
