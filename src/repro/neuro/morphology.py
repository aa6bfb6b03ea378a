"""Morphology analysis of grown neurons.

Utilities to inspect the arbors produced by :class:`NeuriteExtension`:
reconstruction of the parent/child tree (as a :mod:`networkx` digraph),
total cable length, branch counts per order, and terminal tips.  Used by
the neuroscience example and the test suite to verify that growth produces
biologically plausible structures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.neuro.neuron import KIND_NEURITE, KIND_SOMA

if TYPE_CHECKING:  # imported where used: networkx takes ~0.15 s to load
    import networkx as nx

__all__ = ["arbor_graph", "total_cable_length", "branch_counts", "terminal_tips"]


def arbor_graph(sim) -> nx.DiGraph:
    """Parent→child digraph over all agents (somas are roots)."""
    import networkx as nx

    rm = sim.rm
    g = nx.DiGraph()
    uids = rm.data["uid"]
    kinds = rm.data["kind"]
    for i in range(rm.n):
        g.add_node(
            int(uids[i]),
            kind=int(kinds[i]),
            position=tuple(rm.positions[i]),
            length=float(rm.data["length"][i]),
        )
    parents = rm.data["parent_uid"]
    known = set(uids.tolist())
    for i in range(rm.n):
        p = int(parents[i])
        if p >= 0 and p in known:
            g.add_edge(p, int(uids[i]))
    return g


def total_cable_length(sim) -> float:
    """Sum of all neurite element lengths."""
    rm = sim.rm
    mask = rm.data["kind"] == KIND_NEURITE
    return float(rm.data["length"][mask].sum())


def terminal_tips(sim) -> np.ndarray:
    """Indices of growth cones (terminal neurite elements)."""
    rm = sim.rm
    return np.flatnonzero((rm.data["kind"] == KIND_NEURITE) & rm.data["is_terminal"])


def branch_counts(sim) -> dict[int, int]:
    """Number of neurite elements per branch order."""
    rm = sim.rm
    mask = rm.data["kind"] == KIND_NEURITE
    orders, counts = np.unique(rm.data["branch_order"][mask], return_counts=True)
    return {int(o): int(c) for o, c in zip(orders, counts)}
