"""Agent handles: a stable, object-like view onto SoA storage.

The engine stores agents as structure-of-arrays for vectorization
(:class:`~repro.core.resource_manager.ResourceManager`), but users
sometimes want BioDynaMo's object view — ``cell.position``,
``cell.diameter = 12`` — or need a reference that survives sorting,
removal swaps, and commits.  :class:`Agent` is that handle: it addresses
the agent by *uid* and resolves the current storage index on access
through the ResourceManager's uid index (rebuilt lazily after any
structural change).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Agent", "UidIndex"]


class UidIndex:
    """Lazily rebuilt uid → storage index map."""

    def __init__(self, rm):
        self._rm = rm
        self._map: dict[int, int] | None = None
        self._version = -1

    def _current_version(self) -> int:
        return self._rm.structure_version

    def lookup(self, uid: int) -> int:
        """Storage index of the agent with ``uid`` (KeyError if dead)."""
        if self._map is None or self._version != self._current_version():
            uids = self._rm.data["uid"]
            self._map = {int(u): i for i, u in enumerate(uids)}
            self._version = self._current_version()
        try:
            return self._map[uid]
        except KeyError:
            raise KeyError(f"agent uid {uid} is not alive") from None

    def contains(self, uid: int) -> bool:
        """Whether an agent with ``uid`` is alive."""
        try:
            self.lookup(uid)
            return True
        except KeyError:
            return False


class Agent:
    """Handle to one agent, addressed by uid.

    Attribute access reads/writes the underlying ResourceManager columns;
    the handle stays valid across sorting and removals of *other* agents,
    and raises ``KeyError`` once its agent has been removed.
    """

    __slots__ = ("_sim", "uid")

    def __init__(self, sim, uid: int):
        object.__setattr__(self, "_sim", sim)
        object.__setattr__(self, "uid", int(uid))

    # ------------------------------------------------------------------ #

    @property
    def index(self) -> int:
        """Current storage index (valid until the next commit/sort)."""
        return self._sim.rm.uid_index.lookup(self.uid)

    @property
    def is_alive(self) -> bool:
        return self._sim.rm.uid_index.contains(self.uid)

    @property
    def position(self) -> np.ndarray:
        return self._sim.rm.positions[self.index].copy()

    @position.setter
    def position(self, value) -> None:
        i = self.index
        self._sim.rm.positions[i] = np.asarray(value, dtype=np.float64)
        self._sim.rm.data["moved"][i] = True
        self._sim.note_state_change()

    @property
    def diameter(self) -> float:
        return float(self._sim.rm.data["diameter"][self.index])

    @diameter.setter
    def diameter(self, value: float) -> None:
        i = self.index
        rm = self._sim.rm
        if value > rm.data["diameter"][i]:
            rm.data["grew"][i] = True
        rm.data["diameter"][i] = value
        self._sim.note_state_change()

    def get(self, column: str):
        """Read any registered attribute column."""
        return self._sim.rm.data[column][self.index]

    def set(self, column: str, value) -> None:
        """Write any registered attribute column."""
        self._sim.rm.data[column][self.index] = value
        if column == "behavior_mask":
            self._sim.rm.note_behavior_mask_changed()
        self._sim.note_state_change()

    def neighbors(self) -> np.ndarray:
        """Storage indices of the agent's current neighbors."""
        indptr, indices = self._sim.neighbors()
        i = self.index
        return indices[indptr[i] : indptr[i + 1]]

    def remove(self) -> None:
        """Queue this agent for removal at the end of the iteration."""
        self._sim.rm.queue_removals([self.index])

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "removed"
        return f"<Agent uid={self.uid} ({state})>"

    def __eq__(self, other) -> bool:
        return isinstance(other, Agent) and other.uid == self.uid

    def __hash__(self) -> int:
        return hash(("Agent", self.uid))
