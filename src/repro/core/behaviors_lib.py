"""Library of standard behaviors used by the benchmark simulations.

These mirror the behaviors in BioDynaMo's demos and the models of
Breitwieser et al. 2021 that the paper benchmarks (Table 1): growth and
division, random movement, chemotaxis along a diffusion gradient,
substance secretion, infection dynamics, and stochastic cell death.
"""

from __future__ import annotations

import numpy as np

from repro.core.behavior import Behavior, select_rows

__all__ = [
    "GrowDivide",
    "RandomWalk",
    "Chemotaxis",
    "Secretion",
    "Infection",
    "Recovery",
    "Confinement",
    "StochasticDeath",
    "ScheduledIntervention",
    "ImportCases",
    "Vaccination",
    "Lockdown",
]


class GrowDivide(Behavior):
    """Grow the cell's diameter; divide when it reaches a threshold.

    On division the mother keeps half the volume and a daughter with the
    other half is queued next to her (committed at iteration end, §3.2).
    The daughter inherits the mother's behavior mask.
    """

    name = "grow_divide"
    compute_ops_per_agent = 30.0
    grows_agents = True
    creates_agents = True

    def __init__(self, growth_rate: float = 1.0, division_diameter: float = 16.0,
                 max_agents: int | None = None):
        self.growth_rate = growth_rate
        self.division_diameter = division_diameter
        self.max_agents = max_agents

    def run(self, sim, idx: np.ndarray) -> None:
        """Grow attached cells; queue a daughter for those at threshold."""
        rm = sim.rm
        sel = select_rows(idx, rm.n)
        d = rm.data["diameter"]
        dt = sim.param.simulation_time_step
        # Growth saturates at the division size: cells blocked from
        # dividing (population cap, contact inhibition) must not inflate
        # without bound.  Masked and in place: rows at or above it keep
        # their bytes, so writing the whole selection back changes only
        # the grown ones (and is a no-op when ``ds`` is a view).
        ds = d[sel]
        below = ds < self.division_diameter
        np.add(ds, self.growth_rate * dt, out=ds, where=below)
        np.minimum(ds, self.division_diameter, out=ds, where=below)
        d[sel] = ds
        rm.data["grew"][sel] |= below

        ready = idx[ds >= self.division_diameter]
        if self.max_agents is not None:
            room = max(0, self.max_agents - rm.n - rm.pending_additions)
            ready = ready[:room]
        if len(ready) == 0:
            return
        # Mother and daughter each get half the volume.
        new_d = d[ready] / 2.0 ** (1.0 / 3.0)
        d[ready] = new_d
        rng = sim.random.rng
        direction = rng.normal(size=(len(ready), 3))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        child_pos = rm.positions[ready] + direction * (new_d[:, None] / 2.0)
        # One batched call with a per-row domain vector.  ``ready`` is
        # ascending, so ``doms`` is non-decreasing and the commit assigns
        # the daughters' uids in exactly the order the old per-unique-
        # domain loop did.
        rm.queue_new_agents(
            {
                "position": child_pos,
                "diameter": new_d,
                "behavior_mask": rm.data["behavior_mask"][ready],
            },
            domain=rm.domain_of_index(ready),
        )


class RandomWalk(Behavior):
    """Brownian-style random displacement (epidemiology, oncology)."""

    name = "random_walk"
    compute_ops_per_agent = 22.0
    moves_agents = True

    def __init__(self, speed: float = 1.0):
        self.speed = speed

    def run(self, sim, idx: np.ndarray) -> None:
        """Displace agents by a Gaussian step."""
        rm = sim.rm
        step = sim.random.rng.normal(
            scale=self.speed * sim.param.simulation_time_step, size=(len(idx), 3)
        )
        sel = select_rows(idx, rm.n)
        rm.positions[sel] += step
        rm.data["moved"][sel] = True


class Chemotaxis(Behavior):
    """Move up (or down) the gradient of a diffusion substance."""

    name = "chemotaxis"
    compute_ops_per_agent = 45.0
    moves_agents = True

    def __init__(self, substance: str, speed: float = 1.0):
        self.substance = substance
        self.speed = speed

    def run(self, sim, idx: np.ndarray) -> None:
        """Move agents up the substance gradient."""
        rm = sim.rm
        sim.kernels.chemotaxis(sim.diffusion_grids[self.substance],
                               rm.positions, rm.data["moved"], idx,
                               self.speed, sim.param.simulation_time_step)


class Secretion(Behavior):
    """Secrete a fixed amount of substance into the local voxel."""

    name = "secretion"
    compute_ops_per_agent = 12.0

    def __init__(self, substance: str, amount: float = 1.0):
        self.substance = substance
        self.amount = amount

    def run(self, sim, idx: np.ndarray) -> None:
        """Deposit substance into the voxel of each agent."""
        sim.kernels.secrete(sim.diffusion_grids[self.substance],
                            sim.rm.positions, idx, self.amount)


class Infection(Behavior):
    """SIR infection: infected agents infect susceptible neighbors.

    Requires a ``state`` column (0=susceptible, 1=infected, 2=recovered).
    Attached to every agent; only infected ones transmit.
    """

    name = "infection"
    compute_ops_per_agent = 18.0
    uses_neighbors = True

    SUSCEPTIBLE, INFECTED, RECOVERED = 0, 1, 2

    def __init__(self, probability: float = 0.3):
        self.probability = probability

    def run(self, sim, idx: np.ndarray) -> None:
        """Infect susceptible neighbors of infected agents."""
        rm = sim.rm
        state = rm.data["state"]
        indptr, indices = sim.neighbors()
        infected = idx[state[select_rows(idx, rm.n)] == self.INFECTED]
        if len(infected) == 0:
            return
        # Gather all infected agents' neighbor ranges in one vector pass.
        counts = indptr[infected + 1] - indptr[infected]
        total = int(counts.sum())
        if total == 0:
            return
        csum = np.cumsum(counts) - counts
        within = np.arange(total, dtype=np.int64) - np.repeat(csum, counts)
        targets = indices[np.repeat(indptr[infected], counts) + within]
        susceptible = targets[state[targets] == self.SUSCEPTIBLE]
        roll = sim.random.rng.random(len(susceptible)) < self.probability
        state[susceptible[roll]] = self.INFECTED

    def next_fire(self, sim, idx: np.ndarray):
        """Asleep while no attached agent is infected.

        With zero infected, :meth:`run` early-returns before any RNG
        draw or column write — the pure-no-op contract — so the event
        scheduler may skip the dispatch (and whole quiescent stretches)
        bit for bit.  Any state mutation re-evaluates this answer.
        """
        state = sim.rm.data["state"]
        if np.any(state[select_rows(idx, sim.rm.n)] == self.INFECTED):
            return None
        return np.inf


class Recovery(Behavior):
    """Infected agents recover with a per-iteration probability."""

    name = "recovery"
    compute_ops_per_agent = 8.0

    def __init__(self, probability: float = 0.05):
        self.probability = probability

    def run(self, sim, idx: np.ndarray) -> None:
        """Move infected agents to recovered with fixed probability."""
        state = sim.rm.data["state"]
        infected = idx[state[select_rows(idx, sim.rm.n)] == Infection.INFECTED]
        roll = sim.random.rng.random(len(infected)) < self.probability
        state[infected[roll]] = Infection.RECOVERED

    def next_fire(self, sim, idx: np.ndarray):
        """Asleep while no attached agent is infected (zero-size RNG
        draws do not advance generator state, so the skipped dispatch is
        a bitwise no-op)."""
        state = sim.rm.data["state"]
        if np.any(state[select_rows(idx, sim.rm.n)] == Infection.INFECTED):
            return None
        return np.inf


class Confinement(Behavior):
    """Pull agents that left a spherical region back toward its center.

    Models the confined aggregate of the Biocellion cell-sorting setup;
    keeps density (and thus neighbor counts) stationary over long runs.
    """

    name = "confinement"
    compute_ops_per_agent = 15.0
    moves_agents = True

    def __init__(self, center, radius: float, strength: float = 5.0):
        self.center = np.asarray(center, dtype=np.float64)
        self.radius = radius
        self.strength = strength

    def run(self, sim, idx: np.ndarray) -> None:
        """Pull agents outside the sphere back toward the center."""
        rm = sim.rm
        delta = rm.positions[select_rows(idx, rm.n)] - self.center
        dist = np.linalg.norm(delta, axis=1)
        outside = dist > self.radius
        if not np.any(outside):
            return
        sel = idx[outside]
        pull = (dist[outside] - self.radius) * self.strength
        pull *= sim.param.simulation_time_step
        direction = delta[outside] / dist[outside, None]
        rm.positions[sel] -= direction * pull[:, None]
        rm.data["moved"][sel] = True


class ScheduledIntervention(Behavior):
    """Base for behaviors that fire only at scheduled iterations.

    :meth:`run` is a pure no-op (no RNG draws, no column writes) on
    every non-scheduled tick, and :meth:`next_fire` announces the next
    scheduled iteration — the pair of guarantees that lets the event
    scheduler defer the dispatch and jump the stretches in between while
    staying bitwise identical to running every tick.  Subclasses
    implement :meth:`apply`.
    """

    name = "scheduled_intervention"
    compute_ops_per_agent = 4.0

    def __init__(self, at_iterations):
        self.at_iterations = tuple(sorted(int(t) for t in at_iterations))
        if any(t < 0 for t in self.at_iterations):
            raise ValueError("scheduled iterations must be >= 0")
        self._schedule = frozenset(self.at_iterations)

    def run(self, sim, idx: np.ndarray) -> None:
        """Invoke :meth:`apply` on scheduled ticks; no-op otherwise."""
        if sim.scheduler.iteration in self._schedule:
            self.apply(sim, idx)

    def apply(self, sim, idx: np.ndarray) -> None:  # pragma: no cover
        """The intervention itself, executed at each scheduled tick."""
        raise NotImplementedError

    def next_fire(self, sim, idx: np.ndarray):
        """The next scheduled iteration ≥ now (``inf`` when exhausted)."""
        now = sim.scheduler.iteration
        for t in self.at_iterations:
            if t >= now:
                return float(t)
        return np.inf


class ImportCases(ScheduledIntervention):
    """Scheduled case importation (epidemiology): at each scheduled
    iteration, up to ``cases`` susceptible agents — chosen uniformly —
    become infected (travel-seeded outbreak waves)."""

    name = "import_cases"

    def __init__(self, at_iterations, cases: int = 1):
        super().__init__(at_iterations)
        if cases < 1:
            raise ValueError("cases must be >= 1")
        self.cases = int(cases)

    def apply(self, sim, idx: np.ndarray) -> None:
        state = sim.rm.data["state"]
        susceptible = idx[state[select_rows(idx, sim.rm.n)]
                          == Infection.SUSCEPTIBLE]
        if len(susceptible) == 0:
            return
        k = min(self.cases, len(susceptible))
        pick = sim.random.rng.choice(len(susceptible), size=k, replace=False)
        state[susceptible[pick]] = Infection.INFECTED


class Vaccination(ScheduledIntervention):
    """Scheduled vaccination campaign: at each scheduled iteration, each
    susceptible agent is immunized (→ recovered) with probability
    ``fraction``."""

    name = "vaccination"

    def __init__(self, at_iterations, fraction: float = 0.2):
        super().__init__(at_iterations)
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        self.fraction = float(fraction)

    def apply(self, sim, idx: np.ndarray) -> None:
        state = sim.rm.data["state"]
        susceptible = idx[state[select_rows(idx, sim.rm.n)]
                          == Infection.SUSCEPTIBLE]
        roll = sim.random.rng.random(len(susceptible)) < self.fraction
        state[susceptible[roll]] = Infection.RECOVERED


class Lockdown(ScheduledIntervention):
    """Scheduled lockdown window: at ``start``, each susceptible agent
    enters quarantine (state ``QUARANTINED``, invisible to
    :class:`Infection`'s susceptible test) with probability ``fraction``;
    at ``end``, quarantined agents return to susceptible.  All effect
    state lives in the ``state`` column, so checkpoints and the state
    checksum capture it."""

    name = "lockdown"

    QUARANTINED = 3

    def __init__(self, start: int, end: int, fraction: float = 0.5):
        if end <= start:
            raise ValueError("lockdown end must be after start")
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        super().__init__((start, end))
        self.start, self.end = int(start), int(end)
        self.fraction = float(fraction)

    def apply(self, sim, idx: np.ndarray) -> None:
        state = sim.rm.data["state"]
        sel = select_rows(idx, sim.rm.n)
        if sim.scheduler.iteration == self.start:
            susceptible = idx[state[sel] == Infection.SUSCEPTIBLE]
            roll = sim.random.rng.random(len(susceptible)) < self.fraction
            state[susceptible[roll]] = self.QUARANTINED
        else:
            quarantined = idx[state[sel] == self.QUARANTINED]
            state[quarantined] = Infection.SUSCEPTIBLE


class StochasticDeath(Behavior):
    """Remove agents with a per-iteration probability (oncology)."""

    name = "stochastic_death"
    compute_ops_per_agent = 6.0
    removes_agents = True

    def __init__(self, probability: float = 0.001):
        self.probability = probability

    def run(self, sim, idx: np.ndarray) -> None:
        """Queue removal for agents failing the survival roll."""
        roll = sim.random.rng.random(len(idx)) < self.probability
        doomed = idx[roll]
        if len(doomed):
            sim.rm.queue_removals(doomed)
