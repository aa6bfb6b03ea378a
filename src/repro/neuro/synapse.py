"""Synapse formation between developing neurons.

BioDynaMo's neuroscience module lets axonal growth cones form synapses
with nearby dendritic elements of *other* neurons.  We model the common
simplification: when a terminal element comes within ``contact_distance``
of a neurite element belonging to a different neuron, a synapse forms
with some probability.  Synapses are recorded as (pre_uid, post_uid)
pairs, and :func:`connectome` reduces them to a neuron-level directed
graph — the typical end product of a developmental simulation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.behavior import Behavior, select_rows
from repro.neuro.neuron import KIND_NEURITE, KIND_SOMA

if TYPE_CHECKING:  # imported where used: networkx takes ~0.15 s to load
    import networkx as nx

__all__ = ["SynapseFormation", "connectome"]


class SynapseFormation(Behavior):
    """Forms synapses from terminal elements to nearby foreign neurites.

    Requires a ``neuron_id`` column identifying which neuron every element
    belongs to (``add_neuron`` callers assign it; see the neuroscience
    example).  Formed synapses are stored on the behavior instance as
    ``(pre_element_uid, post_element_uid)`` tuples.
    """

    name = "synapse_formation"
    compute_ops_per_agent = 35.0
    uses_neighbors = True

    def __init__(self, contact_distance: float = 4.0, probability: float = 0.2,
                 max_per_terminal: int = 3):
        self.contact_distance = contact_distance
        self.probability = probability
        self.max_per_terminal = max_per_terminal
        self.synapses: list[tuple[int, int]] = []
        self._per_terminal: dict[int, int] = {}

    def run(self, sim, idx: np.ndarray) -> None:
        """Probe terminal neighborhoods and record formed synapses."""
        rm = sim.rm
        if "neuron_id" not in rm.data:
            raise KeyError("SynapseFormation needs a 'neuron_id' column")
        sel = select_rows(idx, rm.n)
        terminals = idx[
            (rm.data["kind"][sel] == KIND_NEURITE) & rm.data["is_terminal"][sel]
        ]
        if len(terminals) == 0:
            return
        indptr, indices = sim.neighbors()
        pos = rm.positions
        nid = rm.data["neuron_id"]
        uid = rm.data["uid"]
        rng = sim.random.rng
        d_max2 = self.contact_distance**2

        for t in terminals:
            t_uid = int(uid[t])
            budget = self.max_per_terminal - self._per_terminal.get(t_uid, 0)
            if budget <= 0:
                continue
            nbrs = indices[indptr[t] : indptr[t + 1]]
            if len(nbrs) == 0:
                continue
            foreign = nbrs[
                (nid[nbrs] != nid[t]) & (rm.data["kind"][nbrs] == KIND_NEURITE)
            ]
            if len(foreign) == 0:
                continue
            d2 = np.sum((pos[foreign] - pos[t]) ** 2, axis=1)
            close = foreign[d2 <= d_max2]
            if len(close) == 0:
                continue
            roll = rng.random(len(close)) < self.probability
            for post in close[roll][:budget]:
                self.synapses.append((t_uid, int(uid[post])))
                self._per_terminal[t_uid] = self._per_terminal.get(t_uid, 0) + 1


def connectome(sim, synapse_behavior: SynapseFormation) -> nx.DiGraph:
    """Neuron-level directed connectivity graph from formed synapses.

    Nodes are neuron ids; edge weights count synapses between the pair.
    Element uids are resolved through their (historical) neuron ids, so
    the graph survives element removals.
    """
    import networkx as nx

    rm = sim.rm
    uid_to_neuron = dict(
        zip(rm.data["uid"].tolist(), rm.data["neuron_id"].tolist())
    )
    g = nx.DiGraph()
    for n in np.unique(rm.data["neuron_id"][rm.data["kind"] == KIND_SOMA]):
        g.add_node(int(n))
    for pre_uid, post_uid in synapse_behavior.synapses:
        pre = uid_to_neuron.get(pre_uid)
        post = uid_to_neuron.get(post_uid)
        if pre is None or post is None or pre == post:
            continue
        pre, post = int(pre), int(post)
        if g.has_edge(pre, post):
            g[pre][post]["weight"] += 1
        else:
            g.add_edge(pre, post, weight=1)
    return g
