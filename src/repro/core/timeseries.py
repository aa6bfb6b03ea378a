"""Time-series data collection (BioDynaMo's ``bdm::TimeSeries``).

Registers named collectors — callables reducing the simulation state to
one scalar — that are sampled on a frequency as a *post* standalone
operation.  The result is a dict of aligned arrays, ready for analysis or
CSV export.

Example::

    ts = TimeSeriesOperation(frequency=5)
    ts.add_collector("population", lambda sim: sim.num_agents)
    ts.add_collector("mean_diameter",
                     lambda sim: float(sim.rm.data["diameter"].mean()))
    sim.add_operation(ts)
    sim.simulate(100)
    ts.as_dict()  # {"time": [...], "population": [...], ...}
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.operation import Operation, OpKind

__all__ = ["TimeSeriesOperation", "common_collectors"]


class TimeSeriesOperation(Operation):
    """Samples registered collectors every ``frequency`` iterations."""

    name = "time_series"
    kind = OpKind.POST
    compute_ops = 200.0
    # Collectors must be pure observers *of simulation state* (the
    # documented contract): ``time`` / ``iteration`` are recorded by the
    # operation itself, never read by a collector.  The event scheduler
    # then samples at exactly the due ticks while jumping over quiescent
    # stretches, and — state being frozen there — calls the collectors
    # once per stretch and :meth:`replay`s the row for the other samples.
    read_only = True

    def __init__(self, frequency: int = 1):
        super().__init__(frequency)
        self._collectors: dict[str, callable] = {}
        self._data: dict[str, list[float]] = {"time": [], "iteration": []}
        #: The lists in ``_data``, kept for :meth:`replay`'s name-free
        #: appends: the clock's two, then one per collector.
        self._time, self._iteration = self._data.values()
        self._series: list[list[float]] = []

    def add_collector(self, name: str, fn) -> None:
        """Register ``fn(sim) -> float`` under ``name``."""
        if name in ("time", "iteration"):
            raise ValueError(f"{name!r} is a reserved column")
        if name in self._collectors:
            raise ValueError(f"collector {name!r} already registered")
        self._collectors[name] = fn
        self._data[name] = column = []
        self._series.append(column)

    def run(self, sim) -> None:
        """Sample every registered collector once."""
        self._data["time"].append(sim.time)
        self._data["iteration"].append(sim.scheduler.iteration)
        for name, fn in self._collectors.items():
            self._data[name].append(float(fn(sim)))

    def replay(self, sim) -> None:
        """Repeat the last row at the current clock, collectors uncalled
        (the :attr:`Operation.replay` contract: state is bitwise what it
        was at the last :meth:`run`; only ``time``/``iteration`` moved)."""
        self._time.append(sim.time)
        self._iteration.append(sim.scheduler.iteration)
        for column in self._series:
            column.append(column[-1])

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._data["time"])

    def as_dict(self) -> dict[str, np.ndarray]:
        """All series as aligned arrays, keyed by collector name."""
        return {k: np.asarray(v) for k, v in self._data.items()}

    def column(self, name: str) -> np.ndarray:
        """One series as an array."""
        return np.asarray(self._data[name])

    def to_csv(self, path) -> Path:
        """Write all series to a CSV file; returns the path."""
        path = Path(path)
        cols = list(self._data)
        rows = [",".join(cols)]
        for i in range(len(self)):
            rows.append(",".join(f"{self._data[c][i]:.9g}" for c in cols))
        path.write_text("\n".join(rows) + "\n")
        return path


def common_collectors(ts: TimeSeriesOperation) -> TimeSeriesOperation:
    """Attach the standard collectors (population, mean diameter,
    static fraction, memory)."""
    ts.add_collector("population", lambda s: s.num_agents)
    ts.add_collector(
        "mean_diameter",
        lambda s: float(s.rm.data["diameter"].mean()) if s.rm.n else 0.0,
    )
    ts.add_collector(
        "static_fraction",
        lambda s: float(s.rm.data["static"].mean()) if s.rm.n else 0.0,
    )
    ts.add_collector("memory_mb", lambda s: s.memory_bytes() / 1e6)
    return ts
