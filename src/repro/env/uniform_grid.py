"""BioDynaMo's optimized uniform grid environment (paper §3.1).

Design points reproduced from the paper:

- **Fixed-radius exploitation.**  The box edge equals the interaction
  radius, so all neighbors of an agent lie in the 3x3x3 cube of boxes
  around its own box.
- **Timestamped boxes.**  Every box carries a timestamp updated when an
  agent is added; a box whose timestamp differs from the grid's current
  timestamp is empty.  The build therefore never clears box arrays and
  runs in O(#agents) instead of O(#agents + #boxes) — relevant for large,
  sparsely populated simulation spaces.  We allocate box arrays with
  ``np.empty`` (i.e. uninitialized) to keep this property honest.
- **Array-based linked list.**  Agents inside a box are chained using the
  same agent indices as the ResourceManager, so the agent-sorting
  optimization (§4.2) also shortens pointer-chase distances here.  The
  batch build produces the equivalent compact form (a counting sort); the
  faithful incremental insertion path is used when agents are added one
  at a time.
- **Parallel build.**  Assigning agents to boxes is embarrassingly
  parallel; the reported :class:`BuildWork` charges per-agent cycles to a
  parallel region (unlike the serial kd-tree/octree builds).

The build and the all-pairs search (:meth:`UniformGridEnvironment
.neighbor_csr`) are organised the way the GPU grid (Hesam et al.,
PAPERS.md) is -- around a cell-sorted agent order produced by a counting
sort.  Both run in NumPy here, the reference, and in the ``c`` kernel
backend (``docs/kernels.md``), which writes the same bytes:

- **The build.**  The geometry (``mins``, ``dims``) comes from the same
  bounds for every backend: NumPy reduces each column, C takes them in the
  pass that copies the positions into its build's snapshot.  NumPy bins
  and sorts with ``argsort``; C bins with the same operations and
  radix-sorts by box id in one O(#agents) pass per 13-bit digit.  Both
  then write the live boxes, the successor list and the cell-sorted
  coordinates ``_xyz`` -- the snapshot the search reads, in which every
  box is a contiguous slice.
- **x-run merging.**  Box ids are x-fastest, so the live boxes among the
  up-to-three x-adjacent ones of a stencil row are ONE contiguous run.
  Only occupied boxes are visited (O(#agents)): NumPy finds a run's ends
  by binary search over the occupied ids, C in the timestamped box arrays.
- **Half stencil in both backends.**  Each agent scans the rest of its own
  box + box x+1 and the four forward ``(dy, dz)`` rows -- 5 runs, not 27
  boxes -- so each pair is checked once and mirrored (NumPy in blocks of
  ``_BLOCK_CANDIDATES``; C in box-range chunks).  The filter squares
  ``x_p - x_q == -(x_q - x_p)`` (IEEE), so which agent of a pair checks it
  cannot change a bit.
- **Canonical rows.**  Rows are ascending, so the CSR is a pure function
  of ``(positions, radius)``: NumPy sorts the kept pairs (both
  directions) as int64 keys ``row * n + col``; C scatters them into
  unsorted rows and transposes those in ascending row order.
- **Two threads.**  With the C kernels, :meth:`UniformGridEnvironment
  .update` only takes the snapshot and plans a task: the build and the
  search as one chunked job (``docs/kernels.md``).  The first reader of a
  build output runs the build; :meth:`neighbor_csr` runs the job, with a
  helper beside it; :meth:`UniformGridEnvironment.start_search` starts it
  on the helper alone (the scheduler does, while the behaviors run), and
  then the first reader joins it, running the chunks the helper has not
  claimed.  Every mutator joins first.  An incremental build
  (:meth:`UniformGridEnvironment.begin_incremental`) has no task: it
  searches with the NumPy half stencil on every backend.

What the *paper's* search costs is a separate question with a separate
answer: :meth:`UniformGridEnvironment.search_candidates_per_agent` still
reports the full 27-box candidate count per agent (summed from run
lengths), so the virtual-cycle figures price the paper's scan, not this
build's shortcuts.
"""

from __future__ import annotations

import numpy as np

from repro.env.environment import BuildWork, Environment

__all__ = ["UniformGridEnvironment"]

# Model constants (cycles).
_ASSIGN_CYCLES = 14.0      # compute box coords + insert into linked list
_CANDIDATE_CYCLES = 6.0    # examine one candidate during search (distance check)

_NO_AGENT = -1

# Forward half of the 3x3 (dy, dz) stencil rows: with the forward part of
# the own row they reach each of the 13 forward neighbor boxes exactly once.
_FORWARD_ROWS = ((1, 0), (-1, 1), (0, 1), (1, 1))
# Candidates evaluated per block of the search (bounds its temporaries).
_BLOCK_CANDIDATES = 1 << 14


class _BuildOutput:
    """An attribute a build writes: reading it first runs (or joins) a
    build its task has not handed over yet."""

    def __set_name__(self, owner, name):
        self.slot = "_built" + name

    def __get__(self, env, owner=None):
        if env is None:
            return self
        if env._task is not None and not env._adopted:
            env._finish_build()
        return env.__dict__[self.slot]

    def __set__(self, env, value):
        env.__dict__[self.slot] = value


class UniformGridEnvironment(Environment):
    """Uniform grid with timestamped boxes and array-based linked lists.

    :meth:`neighbor_csr` emits every row in canonical ascending-index
    order, which is what qualifies the grid for the scheduler's
    displacement-bounded neighbor cache (``supports_neighbor_cache``):
    an order-preserving re-filter of a skin-inflated build reproduces a
    fresh exact build bit for bit.
    """

    name = "uniform_grid"

    #: Rows are canonically ordered, so skin-inflated builds can be
    #: re-filtered bitwise-identically (see repro.core.scheduler).
    supports_neighbor_cache = True

    #: The kernel backend whose task a batch :meth:`update` plans (set by
    #: ``Simulation`` to ``sim.kernels``); None builds and searches in NumPy
    #: here.
    kernels = None

    _box_start = _BuildOutput()
    _box_count = _BuildOutput()
    _box_stamp = _BuildOutput()
    _successor = _BuildOutput()
    _order = _BuildOutput()
    _occupied = _BuildOutput()
    _run_start = _BuildOutput()
    _xyz = _BuildOutput()
    _box_of_agent = _BuildOutput()

    def __init__(self, box_length_factor: float = 1.0, max_boxes: int = 1 << 26):
        super().__init__()
        if box_length_factor < 1.0:
            raise ValueError("box_length_factor must be >= 1 (boxes may not be "
                             "smaller than the interaction radius)")
        self.box_length_factor = box_length_factor
        self.max_boxes = max_boxes
        #: The kernel task of the current build (its build and search), until
        #: its CSR is in; ``_adopted`` once its build outputs are.
        self._task = None
        self._adopted = True
        self._timestamp = 0
        self._dims = np.zeros(3, dtype=np.int64)
        self._mins = np.zeros(3)
        self._box_len = 0.0
        # Box arrays are lazily (re)allocated UNINITIALIZED; timestamps
        # guarantee stale contents are never read.
        self._box_start = np.empty(0, dtype=np.int64)
        self._box_count = np.empty(0, dtype=np.int64)
        self._box_stamp = np.empty(0, dtype=np.int64)
        self._successor = np.empty(0, dtype=np.int64)
        self._order = np.empty(0, dtype=np.int64)       # agents sorted by box
        # Occupied box ids, ascending, and where each one's agents start
        # in ``_order`` (one trailing entry = n): the O(#agents) index the
        # search binary-searches instead of scanning the box arrays.
        self._occupied = np.empty(0, dtype=np.int64)
        self._run_start = np.zeros(1, dtype=np.int64)
        self._incremental = False
        self._positions = np.empty((0, 3))
        # positions[_order]: the snapshot the search reads (and then drops),
        # every box one contiguous slice of it.
        self._xyz = np.empty((0, 3))
        self._box_of_agent = np.empty(0, dtype=np.int64)
        self._radius = 0.0
        self._candidates: np.ndarray | None = None
        self._csr: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    # Build
    # ------------------------------------------------------------------ #

    def grid_geometry(self, positions: np.ndarray, radius: float):
        """``(mins, dims, box_len)`` of a build of ``positions`` at
        ``radius``, without touching the current build.

        Agent sorting (§4.2) bins with it so that its Morton keys always
        reflect the *current* positions at the *exact* interaction radius
        -- independent of whether the live build is skin-inflated or
        several steps old (the neighbor cache).
        """
        # Per column: the same values as an axis-0 reduction over the
        # (n, 3) array, at a tenth of its cost.
        return self._geometry(
            np.array([positions[:, d].min() for d in range(3)]),
            np.array([positions[:, d].max() for d in range(3)]), radius)

    def _geometry(self, lo, hi, radius):
        """:meth:`grid_geometry` of positions whose columns span ``[lo,
        hi]`` (NaN where a column holds one)."""
        box_len = radius * self.box_length_factor
        mins, maxs = lo - 1e-9, hi
        if not (np.all(np.isfinite(mins)) and np.all(np.isfinite(maxs))):
            raise ValueError("positions contain non-finite coordinates")
        dims = np.maximum(np.ceil((maxs - mins) / box_len).astype(np.int64), 1)
        if int(np.prod(dims)) > self.max_boxes:
            raise MemoryError(
                f"grid would need {int(np.prod(dims))} boxes (> max_boxes); "
                "increase box_length_factor or shrink the simulation space"
            )
        return mins, dims, box_len

    @staticmethod
    def box_ids(positions, mins, dims, box_len):
        """x-fastest box id of each position in the grid geometry ``(mins,
        dims, box_len)`` (shared by the batch build and agent sorting so
        the two can never drift apart)."""
        coords = ((positions - mins) / box_len).astype(np.int64)
        coords = np.minimum(coords, dims - 1)
        return (coords[:, 2] * dims[1] + coords[:, 1]) * dims[0] + coords[:, 0]

    def update(self, positions: np.ndarray, radius: float) -> BuildWork:
        """Build over ``positions`` at ``radius``; with a kernel task the
        build itself is left to the task (see the module docstring)."""
        self._join()
        self._drop_task()
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError("positions must have shape (n, 3)")
        if radius <= 0:
            raise ValueError("interaction radius must be positive")
        n = len(positions)
        self._positions = positions
        self._radius = radius
        self._timestamp += 1
        self._csr = None
        self._candidates = None
        self._incremental = False
        if n == 0:
            self._box_of_agent = np.empty(0, dtype=np.int64)
            self._order = np.empty(0, dtype=np.int64)
            self._occupied = np.empty(0, dtype=np.int64)
            self._run_start = np.zeros(1, dtype=np.int64)
            self._successor = np.empty(0, dtype=np.int64)
            self._xyz = np.empty((0, 3))
            self.last_build_work = BuildWork(parallelizable=True,
                                             per_item_cycles=np.empty(0))
            return self.last_build_work

        task = (None if self.kernels is None
                else self.kernels.grid_task(positions, radius))
        try:
            self._mins, self._dims, self._box_len = (
                self.grid_geometry(positions, radius) if task is None
                else self._geometry(task.bounds[:3], task.bounds[3:], radius))
        except BaseException:
            if task is not None:
                task.release()
            raise
        num_boxes = int(np.prod(self._dims))
        if len(self._box_stamp) < num_boxes:
            # Reallocate WITHOUT zeroing: the timestamp makes this safe.
            self._box_start = np.empty(num_boxes, dtype=np.int64)
            self._box_count = np.empty(num_boxes, dtype=np.int64)
            self._box_stamp = np.zeros(num_boxes, dtype=np.int64)  # one-time
        boxes = self._box_start, self._box_count, self._box_stamp
        if task is None:
            self._adopt(self._build(positions))
        else:
            task.plan(self._mins, self._dims, self._box_len, *boxes,
                      self._timestamp)
            self._task, self._adopted = task, False

        self.last_build_work = BuildWork(
            parallelizable=True,
            per_item_cycles=np.full(n, _ASSIGN_CYCLES),
            memory_bytes=int(len(boxes[2]) * 20 + n * 16),
            # Each insert writes into the box array at an effectively
            # random offset; wider (sparser) environments spread these
            # writes over more memory and miss deeper cache levels.
            random_access_spread_bytes=float(num_boxes * 20),
        )
        return self.last_build_work

    def _build(self, positions):
        """The NumPy build (the reference for the build of
        :meth:`KernelBackend.grid_task`): bins, a stable sort by box, the
        live boxes' entries, the successor list and the cell-sorted
        coordinates."""
        n = len(positions)
        box_id = self.box_ids(positions, self._mins, self._dims, self._box_len)

        # Counting-sort equivalent of the parallel linked-list build: touch
        # only boxes that contain agents (O(#agents) semantics).
        order = np.argsort(box_id, kind="stable")
        sorted_boxes = box_id[order]
        run_starts = np.flatnonzero(np.diff(sorted_boxes)) + 1
        starts = np.concatenate(([0], run_starts, [n]))
        boxes_touched = sorted_boxes[starts[:-1]]
        self._box_start[boxes_touched] = starts[:-1]
        self._box_count[boxes_touched] = np.diff(starts)
        self._box_stamp[boxes_touched] = self._timestamp

        # Array-based linked list: successor chains within each box, using
        # ResourceManager agent indices.
        succ = np.full(n, _NO_AGENT, dtype=np.int64)
        same_box = sorted_boxes[:-1] == sorted_boxes[1:]
        succ[order[:-1][same_box]] = order[1:][same_box]
        return box_id, order, boxes_touched, starts, succ, positions[order]

    # ------------------------------------------------------------------ #
    # Faithful single-agent insertion (timestamp + linked-list semantics)
    # ------------------------------------------------------------------ #

    def begin_incremental(self, lower, upper, radius: float) -> None:
        """Start an incremental build over a fixed spatial extent.

        Agents are then added one at a time with :meth:`insert_agent`,
        exactly as the paper's head-insertion linked-list build does;
        searches consolidate the chains on demand.  The batch
        :meth:`update` path produces the same neighbor sets.
        """
        self._join()
        self._drop_task()
        if radius <= 0:
            raise ValueError("interaction radius must be positive")
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        if np.any(upper <= lower):
            raise ValueError("upper bound must exceed lower bound")
        self._radius = radius
        self._box_len = radius * self.box_length_factor
        self._mins = lower - 1e-9
        self._dims = np.maximum(
            np.ceil((upper - self._mins) / self._box_len).astype(np.int64), 1
        )
        num_boxes = int(np.prod(self._dims))
        if num_boxes > self.max_boxes:
            raise MemoryError("grid would need too many boxes")
        if len(self._box_stamp) < num_boxes:
            self._box_start = np.empty(num_boxes, dtype=np.int64)
            self._box_count = np.empty(num_boxes, dtype=np.int64)
            self._box_stamp = np.zeros(num_boxes, dtype=np.int64)
        self._timestamp += 1
        self._inc_positions: list[np.ndarray] = []
        self._inc_boxes: list[int] = []
        self._touched: list[int] = []
        self._successor = np.empty(0, dtype=np.int64)
        self._csr = None
        self._candidates = None
        self._incremental = True

    def insert_agent(self, position) -> int:
        """Insert one agent with the paper's timestamped head-insertion.

        Returns the agent's index.  Requires :meth:`begin_incremental`.
        """
        self._join()
        if not self._incremental:
            raise RuntimeError("call begin_incremental() first")
        position = np.asarray(position, dtype=np.float64)
        coords = ((position - self._mins) / self._box_len).astype(np.int64)
        coords = np.clip(coords, 0, self._dims - 1)
        b = int((coords[2] * self._dims[1] + coords[1]) * self._dims[0] + coords[0])
        idx = len(self._inc_positions)
        if idx >= len(self._successor):
            grown = np.full(max(2 * idx, 16), _NO_AGENT, dtype=np.int64)
            grown[: len(self._successor)] = self._successor
            self._successor = grown
        if self._box_stamp[b] != self._timestamp:
            # First agent in this box this iteration: no zeroing needed.
            self._box_stamp[b] = self._timestamp
            self._box_count[b] = 0
            self._box_start[b] = _NO_AGENT
            self._touched.append(b)
        self._successor[idx] = self._box_start[b]
        self._box_start[b] = idx
        self._box_count[b] += 1
        self._inc_positions.append(position)
        self._inc_boxes.append(b)
        self._csr = None
        self._candidates = None
        return idx

    def _consolidate(self) -> None:
        """Turn the head-insertion chains into the batch search layout."""
        self._join()
        n = len(self._inc_positions)
        self._positions = (
            np.vstack(self._inc_positions) if n else np.empty((0, 3))
        )
        self._box_of_agent = np.asarray(self._inc_boxes, dtype=np.int64)
        # Boxes in ascending id order (the cell-sorted layout the search
        # needs); within a box the chain's head-insertion order.
        occupied = sorted(self._touched)
        order = np.empty(n, dtype=np.int64)
        run_start = np.empty(len(occupied) + 1, dtype=np.int64)
        pos_cursor = 0
        for k, b in enumerate(occupied):
            run_start[k] = pos_cursor
            cur = int(self._box_start[b])
            while cur != _NO_AGENT:
                order[pos_cursor] = cur
                pos_cursor += 1
                cur = int(self._successor[cur])
            self._box_start[b] = run_start[k]
        run_start[-1] = n
        self._order = order
        self._occupied = np.asarray(occupied, dtype=np.int64)
        self._run_start = run_start
        self._xyz = self._positions[order]
        self._incremental = False

    def box_chain(self, box_id: int) -> list[int]:
        """Walk the linked list of one box (incremental mode only)."""
        if not self._incremental:
            raise RuntimeError("box chains exist only during incremental builds")
        if self._box_stamp[box_id] != self._timestamp:
            return []
        out = []
        cur = int(self._box_start[box_id])
        while cur != _NO_AGENT:
            out.append(cur)
            cur = int(self._successor[cur])
        return out

    def is_box_empty(self, box_id: int) -> bool:
        """Timestamp check: True if no agent was added this iteration."""
        return self._box_stamp[box_id] != self._timestamp

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #

    def _occupied_coords(self):
        """``(cx, cy, cz)`` box coordinates of the occupied boxes."""
        cz, rem = np.divmod(self._occupied, self._dims[0] * self._dims[1])
        cy, cx = np.divmod(rem, self._dims[0])
        return cx, cy, cz

    def _row_runs(self, cx, cy, cz, dy, dz):
        """Per occupied box, the ``[start, end)`` slice of cell-sorted
        space holding stencil row ``(dy, dz)``: the up-to-three x-adjacent
        boxes ``cx-1 .. cx+1`` have consecutive ids under the x-fastest
        linearization, so they are ONE contiguous run.  Boundaries come
        from binary searches over the occupied ids only (O(#agents), no
        pass over the box arrays); an out-of-grid row is the empty run.
        """
        dims = self._dims
        y = cy + dy
        z = cz + dz
        valid = (y >= 0) & (y < dims[1]) & (z >= 0) & (z < dims[2])
        row = (z * dims[1] + y) * dims[0]
        lo = row + np.maximum(cx - 1, 0)
        hi = row + np.minimum(cx + 1, dims[0] - 1)
        start = self._run_start[np.searchsorted(self._occupied, lo, side="left")]
        end = self._run_start[np.searchsorted(self._occupied, hi, side="right")]
        return np.where(valid, start, 0), np.where(valid, end, 0)

    def neighbor_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """All-pairs fixed-radius neighbors as CSR ``(indptr, indices)``.

        Works in cell-sorted space (the build's ``_xyz``, where every box
        is a contiguous slice) and visits only the forward half stencil:
        the agents after it in its own box plus box ``x+1`` (one run), and
        the four forward ``(dy, dz)`` rows (one run each) -- 5 runs per
        agent instead of 27 boxes, every unordered pair distance-checked
        once and mirrored.  Candidates are expanded in blocks of
        ``_BLOCK_CANDIDATES``, so temporaries are O(block); only the kept
        pairs are ever held in full.  A build with a kernel task (``c``)
        runs the task's search instead, and a task :meth:`start_search`
        started is joined and adopted.
        """
        self._join()
        if self._csr is not None:
            return self._csr
        if self._incremental:
            self._consolidate()
        n = len(self._positions)
        if n == 0:
            self._csr = (np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64))
            return self._csr
        task, self._task = self._task, None
        if task is None:
            self._csr = self._half_stencil(n)
        else:
            try:
                self._csr = task.run()
            finally:
                if not self._adopted:
                    self._adopt(task.outputs())
        # The CSR stays cached until the next build, which writes a new
        # snapshot: this one is not read again.
        self._xyz = None
        return self._csr

    def start_search(self):
        """Start the current build's task on a helper thread (its build
        too, if nobody ran it) and return it; None if the build has no
        task (NumPy kernels, an incremental or empty build, its CSR already
        here) or it started already.  The helper reads only this build's
        own snapshot, which nothing writes before it is joined."""
        task = self._task
        if task is None or task.started:
            return None
        return task.start()

    def _join(self) -> None:
        """Adopt the CSR of a task :meth:`start_search` started -- and its
        build -- once this thread has run the chunks left and the helper
        has ended, or re-raise the helper's exception; the first step of
        :meth:`neighbor_csr` and of every mutator."""
        task = self._task
        if task is None or not task.started:
            return
        self._task = None
        try:
            self._csr = task.result()
        finally:
            if not self._adopted:
                self._adopt(task.outputs())
        self._xyz = None

    def _finish_build(self) -> None:
        """Hand the task's build over (a :class:`_BuildOutput` was read):
        join a started task, else run its build on this thread."""
        if self._task.started:
            self._join()
        else:
            self._adopt(self._task.build())

    def _adopt(self, outputs) -> None:
        """Take ``(box_of_agent, order, occupied, run_start, successor,
        xyz)`` as the current build's."""
        self._adopted = True
        (self._box_of_agent, self._order, self._occupied, self._run_start,
         self._successor, self._xyz) = outputs

    def _drop_task(self) -> None:
        """Forget a task nobody started (its kept buffers go back)."""
        task, self._task = self._task, None
        if task is not None:
            task.release()

    def _half_stencil(self, n):
        """The NumPy search (the reference for the search of
        :meth:`KernelBackend.grid_task`)."""
        order = self._order
        num_occupied = len(self._occupied)
        cx, cy, cz = self._occupied_coords()

        # Runs per occupied box: column 0 is the rest of the own box plus
        # box x+1 (its start is per agent -- right after the agent itself,
        # which also drops the self pair), columns 1-4 the forward rows.
        run_lo = np.zeros((num_occupied, 5), dtype=np.int64)
        run_hi = np.empty((num_occupied, 5), dtype=np.int64)
        run_hi[:, 0] = self._row_runs(cx, cy, cz, 0, 0)[1]
        for k, (dy, dz) in enumerate(_FORWARD_ROWS, 1):
            run_lo[:, k], run_hi[:, k] = self._row_runs(cx, cy, cz, dy, dz)
        box_of = np.repeat(
            np.arange(num_occupied, dtype=np.int64), np.diff(self._run_start))
        rows = np.arange(n, dtype=np.int64)
        per_row = (run_hi[:, 1:] - run_lo[:, 1:]).sum(axis=1)[box_of]
        per_row += run_hi[box_of, 0] - rows - 1
        # Blocks of consecutive rows holding ~_BLOCK_CANDIDATES candidates.
        cum = np.cumsum(per_row)
        cuts = np.searchsorted(
            cum, np.arange(_BLOCK_CANDIDATES, cum[-1], _BLOCK_CANDIDATES)) + 1
        bounds = np.unique(np.concatenate(([0], cuts, [n])))

        xs, ys, zs = self._xyz.T
        r2 = self._radius * self._radius
        kept_i, kept_j = [], []
        for p0, p1 in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            blk = box_of[p0:p1]
            lo = run_lo[blk]
            lo[:, 0] = rows[p0:p1] + 1
            ln = (run_hi[blk] - lo).ravel()
            total = int(ln.sum())
            if total == 0:
                continue
            # Expand the [start, start+len) range of each (agent, run).
            cj = np.arange(total, dtype=np.int64)
            cj += np.repeat(lo.ravel() - (np.cumsum(ln) - ln), ln)
            reps = per_row[p0:p1]
            # The filter arithmetic of every build so far (dx*dx; += dy*dy;
            # += dz*dz; <= r2).  Squares make it symmetric: the mirrored
            # pair would have computed the identical d2 bit for bit.
            d = np.repeat(xs[p0:p1], reps) - xs[cj]
            d2 = d * d
            d = np.repeat(ys[p0:p1], reps) - ys[cj]
            d2 += d * d
            d = np.repeat(zs[p0:p1], reps) - zs[cj]
            d2 += d * d
            hit = np.flatnonzero(d2 <= r2)
            kept_i.append(order[np.repeat(rows[p0:p1], reps)[hit]])
            kept_j.append(order[cj[hit]])

        # Canonical row order: ascending neighbor index within each row,
        # which makes the CSR a pure function of (positions, radius) --
        # what lets a re-filtered superset build reproduce a fresh exact
        # build bitwise (forces sum each row's pairs in CSR order via
        # np.bincount, so row order decides the float bits of the net
        # force).  Only the KEPT pairs are sorted, both directions of each
        # as one int64 key ``row * n + col``; keys are unique, so the sort
        # has no ties to break, and subtracting ``row * n`` again leaves
        # the sorted columns in place.
        i = np.concatenate(kept_i) if kept_i else np.empty(0, dtype=np.int64)
        j = np.concatenate(kept_j) if kept_j else np.empty(0, dtype=np.int64)
        counts = np.bincount(i, minlength=n)
        counts += np.bincount(j, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        keys = np.concatenate((i * n + j, j * n + i))
        keys.sort()
        keys -= np.repeat(rows * n, counts)
        return indptr, keys

    def search_candidates_per_agent(self) -> np.ndarray:
        """Agents in the 3x3x3 box cube around each agent (itself
        included): what the paper's search scans, and what the search
        cost model (Figs. 5-13) charges -- whatever subset
        :meth:`neighbor_csr` actually evaluates.  Summed from the nine
        stencil rows' run lengths on first use; no candidate is
        materialized.
        """
        if self._candidates is None:
            if self._incremental:
                self._consolidate()
            cx, cy, cz = self._occupied_coords()
            per_box = np.zeros(len(self._occupied), dtype=np.int64)
            for dz in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    start, end = self._row_runs(cx, cy, cz, dy, dz)
                    per_box += end - start
            self._candidates = np.empty(len(self._order), dtype=np.int64)
            self._candidates[self._order] = np.repeat(
                per_box, np.diff(self._run_start))
        return self._candidates

    def search_cycles_per_agent(self) -> np.ndarray:
        """Search cost per agent in cycles (candidates times unit cost)."""
        return self.search_candidates_per_agent() * _CANDIDATE_CYCLES

    def query(self, points: np.ndarray, radius: float | None = None) -> list[np.ndarray]:
        """Agents within ``radius`` of arbitrary query points.

        Uses the current build; ``radius`` defaults to (and must not
        exceed) the build radius, since only the 3x3x3 box cube around
        each point is searched.  Returns one index array per point.

        Batched NumPy implementation; :meth:`query_scalar` is the plain
        per-point loop kept as the oracle reference — both return exactly
        the same arrays (the differential oracle enforces this).
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        m = len(points)
        if len(self._positions) == 0 or m == 0:
            return [np.empty(0, dtype=np.int64) for _ in range(m)]
        radius = self._radius if radius is None else radius
        if radius > self._radius + 1e-12:
            raise ValueError("query radius exceeds the build radius")
        coords = ((points - self._mins) / self._box_len).astype(np.int64)
        coords = np.clip(coords, 0, self._dims - 1)
        dims = self._dims
        r2 = radius * radius

        # 27 neighbor boxes per point, enumerated dz-slowest / dx-fastest
        # to match the scalar loop's candidate order exactly.
        d = np.array([-1, 0, 1], dtype=np.int64)
        off = np.stack(np.meshgrid(d, d, d, indexing="ij"), axis=-1).reshape(27, 3)
        nbz = coords[:, 2][:, None] + off[None, :, 0]
        nby = coords[:, 1][:, None] + off[None, :, 1]
        nbx = coords[:, 0][:, None] + off[None, :, 2]
        valid = (
            (nbx >= 0) & (nbx < dims[0])
            & (nby >= 0) & (nby < dims[1])
            & (nbz >= 0) & (nbz < dims[2])
        )
        nbid = (nbz * dims[1] + nby) * dims[0] + nbx
        nbid[~valid] = 0  # clamped; masked out via reps below
        fresh = self._box_stamp[nbid] == self._timestamp
        reps = np.where(valid & fresh, self._box_count[nbid], 0)

        per_point = reps.sum(axis=1)
        reps_f = reps.ravel()
        total = int(per_point.sum())
        if total == 0:
            return [np.empty(0, dtype=np.int64) for _ in range(m)]
        qp = np.repeat(np.arange(m, dtype=np.int64), per_point)
        # Gather the ranges [start, start+count) of each (point, box) pair.
        csum = np.cumsum(reps_f) - reps_f
        within = np.arange(total, dtype=np.int64) - np.repeat(csum, reps_f)
        cand = self._order[np.repeat(self._box_start[nbid].ravel(), reps_f) + within]

        pos = self._positions
        dx = pos[cand, 0] - points[qp, 0]
        dy = pos[cand, 1] - points[qp, 1]
        dz = pos[cand, 2] - points[qp, 2]
        d2 = dx * dx
        d2 += dy * dy
        d2 += dz * dz
        keep = d2 <= r2
        cand = cand[keep]
        counts = np.bincount(qp[keep], minlength=m)
        return [piece.copy() for piece in
                np.split(cand, np.cumsum(counts)[:-1])]

    def query_scalar(self, points: np.ndarray,
                     radius: float | None = None) -> list[np.ndarray]:
        """Reference implementation of :meth:`query` (per-point loop).

        Kept verbatim as the oracle baseline the vectorized path is
        differentially tested against (:mod:`repro.verify.oracle`).
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if len(self._positions) == 0:
            return [np.empty(0, dtype=np.int64) for _ in range(len(points))]
        radius = self._radius if radius is None else radius
        if radius > self._radius + 1e-12:
            raise ValueError("query radius exceeds the build radius")
        coords = ((points - self._mins) / self._box_len).astype(np.int64)
        coords = np.clip(coords, 0, self._dims - 1)
        out = []
        r2 = radius * radius
        for p, (cx, cy, cz) in zip(points, coords):
            cands = []
            for dz in (-1, 0, 1):
                z = cz + dz
                if not 0 <= z < self._dims[2]:
                    continue
                for dy in (-1, 0, 1):
                    y = cy + dy
                    if not 0 <= y < self._dims[1]:
                        continue
                    for dx in (-1, 0, 1):
                        x = cx + dx
                        if not 0 <= x < self._dims[0]:
                            continue
                        b = (z * self._dims[1] + y) * self._dims[0] + x
                        if self._box_stamp[b] != self._timestamp:
                            continue
                        s = self._box_start[b]
                        cands.append(self._order[s : s + self._box_count[b]])
            if cands:
                cand = np.concatenate(cands)
                d2 = np.sum((self._positions[cand] - p) ** 2, axis=1)
                out.append(cand[d2 <= r2])
            else:
                out.append(np.empty(0, dtype=np.int64))
        return out

    # ------------------------------------------------------------------ #
    # Introspection used by agent sorting (§4.2) and tests
    # ------------------------------------------------------------------ #

    @property
    def dims(self) -> np.ndarray:
        return self._dims

    @property
    def box_length(self) -> float:
        return self._box_len

    @property
    def box_of_agent(self) -> np.ndarray:
        return self._box_of_agent

    @property
    def num_boxes(self) -> int:
        """Total boxes of the current grid geometry."""
        if self._incremental or len(self._positions):
            return int(np.prod(self._dims))
        return 0

    def linked_list_state(self) -> dict:
        """Raw build state for the invariant checker (:mod:`repro.verify`).

        Returns views, not copies — read-only use only.  ``order`` and
        ``successor`` describe the array-based linked lists; a box is live
        iff ``box_stamp[b] == timestamp``.
        """
        return {
            "timestamp": self._timestamp,
            "box_start": self._box_start,
            "box_count": self._box_count,
            "box_stamp": self._box_stamp,
            "successor": self._successor,
            "order": self._order,
            "box_of_agent": self._box_of_agent,
            "positions": self._positions,
            "mins": self._mins,
            "dims": self._dims,
            "box_length": self._box_len,
            "radius": self._radius,
        }
