"""Extracellular substance diffusion (Table 1: "simulation uses diffusion").

BioDynaMo discretizes substances on a regular grid of *diffusion volumes*
and integrates the diffusion-decay PDE with an explicit central-difference
scheme.  Agents couple to the field by secreting into / consuming from the
voxel containing them and by reading concentrations and gradients
(chemotaxis).

The stencil update is a standalone operation executed once per iteration
and is embarrassingly parallel over voxels.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import numpy_ref

__all__ = ["DiffusionGrid"]

#: Arithmetic ops per voxel per stencil update (7-point Laplacian + decay).
OPS_PER_VOXEL = 16.0


class DiffusionGrid:
    """A named substance on a regular 3D grid.

    ``step`` double-buffers: it writes the update into a spare array and
    swaps, so the array object behind :attr:`concentration` is recycled
    as scratch by the *second* following ``step`` — copy it to keep it.
    Assigning a new array to ``concentration`` is always safe (the spare
    is re-validated each step); ``Simulation.memory_bytes`` counts one
    array per grid.

    Parameters
    ----------
    name:
        Substance identifier.
    resolution:
        Number of voxels along each axis (cubic grid of resolution**3
        diffusion volumes).
    lower, upper:
        Spatial bounds of the grid (same for all axes).
    diffusion_coefficient, decay:
        PDE parameters.
    """

    def __init__(
        self,
        name: str,
        resolution: int,
        lower: float,
        upper: float,
        diffusion_coefficient: float = 0.5,
        decay: float = 0.0,
    ):
        if resolution < 1:
            raise ValueError("resolution must be >= 1")
        if upper <= lower:
            raise ValueError("upper bound must exceed lower bound")
        self.name = name
        self.resolution = resolution
        self.lower = float(lower)
        self.upper = float(upper)
        self.diffusion_coefficient = diffusion_coefficient
        self.decay = decay
        self.voxel_size = (self.upper - self.lower) / resolution
        self.concentration = np.zeros((resolution,) * 3)
        #: The array the next ``step`` writes into: after a step, the
        #: state before it (``None`` until the first step).
        self._spare = None

    @property
    def num_volumes(self) -> int:
        return self.resolution**3

    # ------------------------------------------------------------------ #

    def stable_time_step(self) -> float:
        """Largest stable explicit Euler step (CFL condition)."""
        if self.diffusion_coefficient <= 0:
            return np.inf
        return self.voxel_size**2 / (6.0 * self.diffusion_coefficient)

    def step(self, dt: float, kernels=None) -> None:
        """One explicit diffusion-decay update with Neumann boundaries.

        ``kernels`` is an optional
        :class:`repro.kernels.api.KernelBackend`; when omitted the
        stencil runs through the bitwise NumPy reference
        (:func:`repro.kernels.numpy_ref.diffuse`).  The scheduler passes
        the simulation's selected backend.  The update lands in the spare
        array, which then becomes ``concentration`` (class docstring).
        """
        if dt > self.stable_time_step() * (1 + 1e-9):
            raise ValueError(
                f"dt={dt} exceeds the stable step {self.stable_time_step():.3g}"
            )
        c, spare = self.concentration, self._spare
        # Checkpoint restore and users assign ``concentration``: the spare
        # may have the wrong shape or dtype, or *be* the live array.
        if spare is not None and (
                spare.shape != c.shape or spare.dtype != c.dtype
                or np.may_share_memory(spare, c)):
            spare = None
        diffuse = numpy_ref.diffuse if kernels is None else kernels.diffuse
        self.concentration = diffuse(
            c, self.voxel_size, self.diffusion_coefficient, self.decay, dt,
            out=spare,
        )
        self._spare = c

    def last_step_was_identity(self) -> bool:
        """Whether the last :meth:`step` left every voxel bitwise unchanged.

        Meaningful right after a ``step`` (the spare then holds the state
        before it); ``False`` if none ran.  Compares raw bytes — float
        ``==`` is wrong both ways, ``NaN != NaN`` and ``-0.0 == +0.0`` —
        plane by plane with early exit: nothing grid-sized is allocated
        and an evolving grid is told apart after one plane.
        """
        c, before = self.concentration, self._spare
        if (before is None or before.shape != c.shape
                or before.dtype != c.dtype):
            return False
        bits = np.dtype(f"u{c.dtype.itemsize}")
        return all(np.array_equal(a.view(bits), b.view(bits))
                   for a, b in zip(c, before))

    # ------------------------------------------------------------------ #

    def _locate(self, points: np.ndarray):
        """``(cells, ijk, flat)``: the grid as a 1-D view, the clamped
        ``(n, 3)`` voxel coordinates of ``points``, their indices into it.

        ``ufunc.at`` on a 1-D target with a 1-D index takes numpy's
        indexed fast path (5x the tuple-index form) and still accumulates
        duplicates one by one in input order.  Writes must land in the
        grid: a non-C-contiguous user array is first replaced by a copy.
        """
        c = self.concentration
        if not c.flags.c_contiguous:
            c = self.concentration = np.ascontiguousarray(c)
        r = self.resolution
        pts = np.atleast_2d(points)
        ijk = ((pts - self.lower) / self.voxel_size).astype(np.int64)
        np.clip(ijk, 0, r - 1, out=ijk)
        return c.reshape(-1), ijk, (ijk[:, 0] * r + ijk[:, 1]) * r + ijk[:, 2]

    def voxel_of(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Voxel coordinates containing each point (clamped to the grid)."""
        ijk = self._locate(points)[1]
        return ijk[:, 0], ijk[:, 1], ijk[:, 2]

    def concentration_at(self, points: np.ndarray) -> np.ndarray:
        """Concentration in the voxel containing each point."""
        cells, _, flat = self._locate(points)
        return cells[flat]

    def add_substance(self, points: np.ndarray, amounts) -> None:
        """Secrete ``amounts`` into the voxels containing ``points``."""
        cells, _, flat = self._locate(points)
        np.add.at(cells, flat, amounts)

    def consume(self, points: np.ndarray, fraction: float) -> np.ndarray:
        """Remove a fraction of the local concentration; returns the uptake."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        cells, _, flat = self._locate(points)
        taken = cells[flat] * fraction
        np.subtract.at(cells, flat, taken)
        return taken

    def gradient_at(self, points: np.ndarray) -> np.ndarray:
        """Central-difference concentration gradient at each point."""
        cells, ijk, flat = self._locate(points)
        r = self.resolution
        out = np.empty((len(ijk), 3))
        for axis, stride in enumerate((r * r, r, 1)):
            idx = ijk[:, axis]
            # One voxel up / down the axis, clamped at the faces.
            up = flat + stride * (idx < r - 1)
            dn = flat - stride * (idx > 0)
            out[:, axis] = (cells[up] - cells[dn]) / (2.0 * self.voxel_size)
        return out

    def total_substance(self) -> float:
        """Total substance (concentration integrated over the volume)."""
        return float(self.concentration.sum()) * self.voxel_size**3
