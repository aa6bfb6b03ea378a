"""Common interface for radial neighbor-search environments."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BuildWork",
    "Environment",
    "BruteForceEnvironment",
    "brute_force_csr",
    "csr_row_index",
    "refilter_csr",
]


@dataclass
class BuildWork:
    """Work performed while (re)building an environment index.

    The virtual machine charges ``per_item_cycles`` as a parallel region
    when the build is parallelizable (the uniform grid) and
    ``serial_cycles`` as a serial section otherwise (kd-tree, octree) —
    the distinction behind the 255–983x build-time gap in Fig. 11.
    """

    parallelizable: bool
    per_item_cycles: np.ndarray | None = None
    serial_cycles: float = 0.0
    memory_bytes: int = 0
    #: Span of the index array hit by scattered writes during the build
    #: (e.g. the grid's box array).  The scheduler charges one access at
    #: this address distance per item — how a "wider environment"
    #: increases the update time (paper §6.3, epidemiology).
    random_access_spread_bytes: float = 0.0


class Environment(ABC):
    """A fixed-radius neighbor index over agent positions.

    Subclasses must set :attr:`name` and implement :meth:`update` and
    :meth:`neighbor_csr`.  ``update`` must be called whenever agent
    positions changed; BioDynaMo rebuilds the environment at the start of
    every iteration (Algorithm 1, L3-5).
    """

    name: str = "environment"

    #: Whether this environment may serve as the backing index of the
    #: scheduler's displacement-bounded neighbor cache (Verlet-skin CSR
    #: reuse).  Requires :meth:`neighbor_csr` to emit rows in canonical
    #: ascending-index order, so a re-filtered superset CSR is *bitwise*
    #: identical to a fresh exact build.  Environments that do not give
    #: that guarantee (kd-tree, octree) leave this ``False`` and the
    #: scheduler rebuilds them every step, exactly as before.
    supports_neighbor_cache: bool = False

    def __init__(self):
        self.last_build_work: BuildWork | None = None

    @abstractmethod
    def update(self, positions: np.ndarray, radius: float) -> BuildWork:
        """(Re)build the index for ``positions`` with interaction ``radius``."""

    @abstractmethod
    def neighbor_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """All-pairs fixed-radius neighbors as CSR ``(indptr, indices)``.

        ``indices[indptr[i]:indptr[i+1]]`` are the agents within the
        interaction radius of agent ``i`` (excluding ``i`` itself).
        """

    @abstractmethod
    def search_candidates_per_agent(self) -> np.ndarray:
        """Number of candidate agents examined per query during the last
        :meth:`neighbor_csr` (the search work charged to agent operations)."""

    @abstractmethod
    def search_cycles_per_agent(self) -> np.ndarray:
        """Search cost per query in cycles, for the virtual cost model."""

    @abstractmethod
    def query(self, points: np.ndarray,
              radius: float | None = None) -> list[np.ndarray]:
        """Agents within ``radius`` of arbitrary query ``points``.

        The vectorized point-query surface of every environment: returns
        one index array per point, using the current build.  ``radius``
        defaults to the build radius; box-based environments (the uniform
        grid) reject a larger one, tree environments accept any positive
        radius.  Result order within one point's array is
        implementation-defined, but :meth:`query` and
        :meth:`query_scalar` of the same environment must return
        *identical* arrays — the differential oracle
        (:mod:`repro.verify.oracle`) enforces this.
        """

    @property
    def positions(self) -> np.ndarray:
        """Positions of the last build (read-only view)."""
        return self._positions

    @property
    def build_radius(self) -> float:
        """Interaction radius of the last build."""
        return self._radius

    def query_scalar(self, points: np.ndarray,
                     radius: float | None = None) -> list[np.ndarray]:
        """Reference implementation of :meth:`query` (per-point loop).

        Oracle-only: a plain distance scan over the build's positions,
        ascending index order.  Environments whose vectorized
        :meth:`query` emits a different (structure-derived) order
        override this with a matching scalar walk, as the uniform grid
        does.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        positions = self.positions
        if len(positions) == 0:
            return [np.empty(0, dtype=np.int64) for _ in range(len(points))]
        radius = self.build_radius if radius is None else float(radius)
        if radius <= 0:
            raise ValueError("query radius must be positive")
        out = []
        for p in points:
            d2 = np.sum((positions - p) ** 2, axis=1)
            out.append(np.flatnonzero(d2 <= radius * radius).astype(np.int64))
        return out

    @property
    def memory_bytes(self) -> int:
        """Bytes held by the index (Fig. 11, memory row)."""
        return self.last_build_work.memory_bytes if self.last_build_work else 0

    # Convenience used by tests and examples -----------------------------

    def neighbors_of(self, i: int) -> np.ndarray:
        """Neighbor indices of agent ``i`` from the current build."""
        indptr, indices = self.neighbor_csr()
        return indices[indptr[i] : indptr[i + 1]]

    # Query-snapshot interface (repro.verify) -----------------------------

    def neighbor_lists(self) -> list[np.ndarray]:
        """Per-agent neighbor lists in canonical (sorted) form.

        All environments must agree on this representation for identical
        inputs — it is the normal form the differential oracle
        (:mod:`repro.verify.oracle`) compares across implementations.
        """
        indptr, indices = self.neighbor_csr()
        return [
            np.sort(indices[indptr[i] : indptr[i + 1]])
            for i in range(len(indptr) - 1)
        ]


def csr_row_index(indptr: np.ndarray,
                  indices: np.ndarray) -> np.ndarray:
    """Per-entry row ids of a CSR: ``qi[k]`` is the row of ``indices[k]``.

    The ``np.repeat(arange(n), diff(indptr))`` expansion every CSR
    consumer needs (forces, refilter, memory profiling), factored out so
    it can be computed once per CSR and cached alongside it.
    """
    n = len(indptr) - 1
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))


def refilter_csr(indptr: np.ndarray, indices: np.ndarray, qi: np.ndarray,
                 positions: np.ndarray, radius: float,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Filter a superset CSR down to pairs within ``radius``, preserving order.

    ``(indptr, indices)`` is a neighbor CSR built with an *inflated*
    radius (interaction radius + skin) at some earlier positions; ``qi``
    is its row expansion (:func:`csr_row_index`).  One vectorized
    distance pass over the stored pairs — evaluated at the *current*
    ``positions`` — keeps exactly the pairs within ``radius`` now.

    Order preservation is the bitwise-identity argument: the superset's
    rows are in canonical ascending-index order (required by
    ``Environment.supports_neighbor_cache``), the ascending kept
    positions select a subsequence of each row, and a subsequence of an
    ascending run is ascending — so the result equals, element for
    element, the CSR a fresh exact-radius build would produce.  The
    distance arithmetic (componentwise ``dx*dx; += dy*dy; += dz*dz`` in
    float64, here on contiguous coordinate columns with the squares
    taken in place) matches the grid build's filter, so the boundary
    cases round identically too.

    Returns ``(indptr, indices, qi)`` of the filtered CSR; the returned
    ``qi`` is the row expansion of the *result*, handed back so callers
    never recompute it.
    """
    n = len(indptr) - 1
    if len(indices) == 0:
        return indptr, indices, qi
    x, y, z = (np.ascontiguousarray(positions[:, c]) for c in range(3))
    d2 = x[qi]
    d2 -= x[indices]
    d2 *= d2
    for col in (y, z):
        sq = col[qi]
        sq -= col[indices]
        sq *= sq
        d2 += sq
    # Index compaction: one flatnonzero, then a take per kept array (a
    # boolean mask would be re-scanned for each of them).
    kept = np.flatnonzero(d2 <= radius * radius)
    qi_kept = qi[kept]
    counts = np.bincount(qi_kept, minlength=n)
    new_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=new_indptr[1:])
    return new_indptr, indices[kept], qi_kept


def brute_force_csr(positions: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Reference O(n^2) neighbor search used by the test suite."""
    n = len(positions)
    d2 = np.sum((positions[:, None, :] - positions[None, :, :]) ** 2, axis=-1)
    mask = (d2 <= radius * radius) & ~np.eye(n, dtype=bool)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(mask.sum(axis=1), out=indptr[1:])
    indices = np.nonzero(mask)[1]
    return indptr, indices


class BruteForceEnvironment(Environment):
    """The O(n^2) all-pairs reference as a full :class:`Environment`.

    Exists so the differential oracle (and small debugging simulations)
    can run the exact same code paths through an implementation whose
    correctness is self-evident — the role BioDynaMo's environment
    cross-checks play in §6.9.  Quadratic: keep it to small populations.
    """

    name = "brute_force"

    #: Distance check per candidate (every other agent is a candidate).
    _CAND_CYCLES = 8.0

    def __init__(self):
        super().__init__()
        self._positions = np.empty((0, 3))
        self._radius = 0.0
        self._csr: tuple[np.ndarray, np.ndarray] | None = None

    def update(self, positions: np.ndarray, radius: float) -> BuildWork:
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError("positions must have shape (n, 3)")
        if radius <= 0:
            raise ValueError("interaction radius must be positive")
        self._positions = positions
        self._radius = radius
        self._csr = None
        # There is no index: the "build" stores a reference.
        self.last_build_work = BuildWork(parallelizable=False, serial_cycles=1.0)
        return self.last_build_work

    def neighbor_csr(self) -> tuple[np.ndarray, np.ndarray]:
        if self._csr is None:
            self._csr = brute_force_csr(self._positions, self._radius)
        return self._csr

    def search_candidates_per_agent(self) -> np.ndarray:
        n = len(self._positions)
        return np.full(n, max(n - 1, 0), dtype=np.int64)

    def search_cycles_per_agent(self) -> np.ndarray:
        """Search cost per query: one distance check per candidate."""
        return self.search_candidates_per_agent() * self._CAND_CYCLES

    def query(self, points: np.ndarray,
              radius: float | None = None) -> list[np.ndarray]:
        """Vectorized all-pairs point query (ascending index order)."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        m = len(points)
        if len(self._positions) == 0 or m == 0:
            return [np.empty(0, dtype=np.int64) for _ in range(m)]
        radius = self._radius if radius is None else float(radius)
        if radius <= 0:
            raise ValueError("query radius must be positive")
        d2 = np.sum(
            (points[:, None, :] - self._positions[None, :, :]) ** 2, axis=-1
        )
        mask = d2 <= radius * radius
        return [np.flatnonzero(row).astype(np.int64) for row in mask]
