"""Neurite growth behaviors: elongation, discretization, bifurcation.

Mirrors BioDynaMo's neuroscience behaviors: the growth cone of a terminal
neurite element elongates along its axis (with random wiggle and optional
chemical guidance), splits off a frozen proximal element once it exceeds
the maximum segment length (discretization), and bifurcates into two
daughter branches with some probability.  Radial growth slightly thickens
the parent element — an agent *modifying its neighbor*, one of the Table-1
workload characteristics of the neuroscience benchmark.
"""

from __future__ import annotations

import numpy as np

from repro.core.behavior import Behavior, select_rows
from repro.neuro.neuron import KIND_NEURITE

__all__ = ["NeuriteExtension"]


class NeuriteExtension(Behavior):
    """Growth-cone behavior for terminal neurite elements."""

    name = "neurite_extension"
    compute_ops_per_agent = 80.0
    uses_neighbors = True
    moves_agents = True
    grows_agents = True
    creates_agents = True

    def __init__(
        self,
        speed: float = 50.0,
        max_segment_length: float = 6.0,
        bifurcation_probability: float = 0.01,
        max_branch_order: int = 6,
        wiggle: float = 0.15,
        guidance_substance: str | None = None,
        guidance_weight: float = 0.3,
        max_agents: int | None = None,
    ):
        self.speed = speed
        self.max_segment_length = max_segment_length
        self.bifurcation_probability = bifurcation_probability
        self.max_branch_order = max_branch_order
        self.wiggle = wiggle
        self.guidance_substance = guidance_substance
        self.guidance_weight = guidance_weight
        self.max_agents = max_agents

    # ------------------------------------------------------------------ #

    def _parent_indices(self, sim, idx):
        """Map each agent's parent_uid to its current storage index."""
        rm = sim.rm
        uids = rm.data["uid"]
        order = np.argsort(uids)
        parents = rm.data["parent_uid"][idx]
        pos = np.searchsorted(uids[order], parents)
        pos = np.clip(pos, 0, rm.n - 1)
        pidx = order[pos]
        valid = uids[pidx] == parents
        return pidx, valid

    def run(self, sim, idx: np.ndarray) -> None:
        """Elongate, thicken parents, bifurcate, and discretize tips."""
        rm = sim.rm
        rng = sim.random.rng
        dt = sim.param.simulation_time_step

        sel = select_rows(idx, rm.n)
        tips = idx[(rm.data["kind"][sel] == KIND_NEURITE) & rm.data["is_terminal"][sel]]
        if len(tips) == 0:
            return

        # --- Elongation with random wiggle and optional guidance.
        axis = rm.data["axis"][tips]
        axis = axis + rng.normal(scale=self.wiggle, size=axis.shape)
        if self.guidance_substance is not None:
            grid = sim.diffusion_grids.get(self.guidance_substance)
            if grid is not None:
                grad = grid.gradient_at(rm.positions[tips])
                norm = np.linalg.norm(grad, axis=1)
                ok = norm > 1e-12
                grad[ok] /= norm[ok, None]
                axis = axis + self.guidance_weight * grad
        axis /= np.maximum(np.linalg.norm(axis, axis=1)[:, None], 1e-12)
        step = self.speed * dt
        rm.data["axis"][tips] = axis
        rm.positions[tips] += axis * step
        rm.data["length"][tips] += step
        rm.data["moved"][tips] = True

        # --- Radial growth: thicken the parent element (modifies a
        # neighboring agent, Table 1 characteristic).
        pidx, valid = self._parent_indices(sim, tips)
        thicken = pidx[valid & (rm.data["kind"][pidx] == KIND_NEURITE)]
        if len(thicken):
            np.add.at(rm.data["diameter"], thicken, 0.001 * step)
            rm.data["grew"][thicken] = True

        # --- Capacity budget for new elements.
        budget = np.inf
        if self.max_agents is not None:
            budget = max(0, self.max_agents - rm.n - rm.pending_additions)

        # --- Bifurcation: the tip retires and two daughters take over.
        can_branch = rm.data["branch_order"][tips] < self.max_branch_order
        roll = rng.random(len(tips)) < self.bifurcation_probability
        forked = tips[can_branch & roll]
        if len(forked) * 2 > budget:
            forked = forked[: int(budget // 2)]
        if len(forked):
            self._bifurcate(sim, forked, rng)
            budget -= 2 * len(forked)

        # --- Discretization: overly long segments freeze and hand the
        # growth cone to a fresh element.
        still_tips = np.setdiff1d(tips, forked, assume_unique=False)
        long = still_tips[rm.data["length"][still_tips] > self.max_segment_length]
        if len(long) > budget:
            long = long[: int(budget)]
        if len(long):
            self._discretize(sim, long)

    # ------------------------------------------------------------------ #

    def _queue_elements(self, sim, parents, axes, order_bump):
        rm = sim.rm
        positions = rm.positions[parents] + axes * 0.5
        count = len(parents)
        # One batched call with a per-row domain vector; ``parents`` is
        # ascending, so the uid assignment order matches the old
        # per-unique-domain loop.
        attributes = {
            "position": positions,
            "diameter": rm.data["diameter"][parents],
            "behavior_mask": rm.data["behavior_mask"][parents],
            "kind": np.full(count, KIND_NEURITE, dtype=np.int8),
            "parent_uid": rm.data["uid"][parents],
            "axis": axes,
            "length": np.full(count, 0.5),
            "is_terminal": np.ones(count, dtype=bool),
            "branch_order": rm.data["branch_order"][parents] + order_bump,
        }
        if "neuron_id" in rm.data:  # synapse-formation tagging
            attributes["neuron_id"] = rm.data["neuron_id"][parents]
        rm.queue_new_agents(attributes, domain=rm.domain_of_index(parents))
        return count

    def _bifurcate(self, sim, forked, rng):
        rm = sim.rm
        rm.data["is_terminal"][forked] = False
        base = rm.data["axis"][forked]
        for _ in range(2):
            perturb = rng.normal(scale=0.6, size=base.shape)
            axes = base + perturb
            axes /= np.linalg.norm(axes, axis=1)[:, None]
            self._queue_elements(sim, forked, axes, order_bump=1)

    def _discretize(self, sim, long):
        rm = sim.rm
        rm.data["is_terminal"][long] = False
        axes = rm.data["axis"][long]
        self._queue_elements(sim, long, axes, order_bump=0)
