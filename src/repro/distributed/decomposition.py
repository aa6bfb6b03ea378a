"""Spatial domain decomposition with halo regions.

The simulation space is cut into a rectilinear grid of subdomains; every
node owns the agents inside its subdomain.  Agents within one interaction
radius of a subdomain are *halo* (ghost) agents for its node: their state
is sent over before each step so node-local force calculations see
exactly the same neighborhoods as a shared-memory run.

Cut planes start at population percentiles and can be re-balanced (the
distributed analogue of the §4.2 NUMA balancing).
"""

from __future__ import annotations

import numpy as np

__all__ = ["GridDecomposition"]


def _quantiles(parts: int) -> np.ndarray:
    """Percentiles of the ``parts - 1`` inner cut planes."""
    return np.linspace(0, 100, parts + 1)[1:-1]


class GridDecomposition:
    """Rectilinear 2-D decomposition: ``nx x ny`` columns/rows of cells.

    Cuts along x at population percentiles, then along y *within each
    column* — the classic rectilinear partition.  ``nx x 1`` is the 1-D
    slab layout.  At high node counts a square grid's halo surface grows
    like sqrt(nodes) instead of the slabs' linear growth, so
    communication scales better (the reason production codes abandon 1-D
    decompositions).
    """

    def __init__(self, nx: int, ny: int, positions: np.ndarray):
        if nx < 1 or ny < 1:
            raise ValueError("need at least a 1x1 grid of nodes")
        self.nx = nx
        self.ny = ny
        self.num_nodes = nx * ny
        self.rebalance(positions)

    def rebalance(self, positions: np.ndarray) -> None:
        """Move all cut planes back to population percentiles."""
        self.x_cuts = np.zeros(self.nx - 1)
        self.y_cuts = np.zeros((self.nx, self.ny - 1))
        if len(positions) == 0:
            return
        self.x_cuts = np.percentile(positions[:, 0], _quantiles(self.nx))
        if self.ny > 1:
            cols = np.searchsorted(self.x_cuts, positions[:, 0], side="right")
            for c in range(self.nx):
                ys = positions[cols == c, 1]
                if len(ys):
                    self.y_cuts[c] = np.percentile(ys, _quantiles(self.ny))

    def owner_of(self, positions: np.ndarray) -> np.ndarray:
        """Node owning each position (column-major cell index)."""
        cols = np.searchsorted(self.x_cuts, positions[:, 0], side="right")
        rows = np.zeros(len(positions), dtype=np.int64)
        if self.ny > 1:
            for c in range(self.nx):
                sel = cols == c
                rows[sel] = np.searchsorted(self.y_cuts[c], positions[sel, 1],
                                            side="right")
        return cols * self.ny + rows

    def _cell_bounds(self, node: int):
        c, r = divmod(node, self.ny)
        x_lo = -np.inf if c == 0 else self.x_cuts[c - 1]
        x_hi = np.inf if c == self.nx - 1 else self.x_cuts[c]
        y_lo = -np.inf if r == 0 else self.y_cuts[c, r - 1]
        y_hi = np.inf if r == self.ny - 1 else self.y_cuts[c, r]
        return x_lo, x_hi, y_lo, y_hi

    def halo_indices(self, positions: np.ndarray, node: int, radius: float) -> np.ndarray:
        """Remote agents within ``radius`` of the node's rectangle: the
        ghosts it must receive before computing local forces."""
        owner = self.owner_of(positions)
        x_lo, x_hi, y_lo, y_hi = self._cell_bounds(node)
        x, y = positions[:, 0], positions[:, 1]
        inside_expanded = (
            (x >= x_lo - radius) & (x <= x_hi + radius)
            & (y >= y_lo - radius) & (y <= y_hi + radius)
        )
        return np.flatnonzero(inside_expanded & (owner != node))

    def node_loads(self, positions: np.ndarray) -> np.ndarray:
        """Agents per node (imbalance diagnostics)."""
        return np.bincount(self.owner_of(positions), minlength=self.num_nodes)
