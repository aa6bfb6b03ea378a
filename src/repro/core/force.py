"""Pairwise mechanical interaction force (paper §5).

BioDynaMo's default ``InteractionForce`` follows the Cortex3D model (Zubler
& Douglas 2009): overlapping spheres repel with a linear elastic term and
adhere with a term proportional to the square root of the overlap.  The
displacement operation integrates the net force with a forward Euler step,
clamped to ``simulation_max_displacement``.

The force calculation is the most expensive operation in tissue models
(paper §5); the static-agent mechanism exists to skip it where provably
redundant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels import numpy_ref
from repro.kernels.api import FORCE_EPSILON  # noqa: F401  (canonical home)

__all__ = ["InteractionForce", "ForceResult"]


@dataclass
class ForceResult:
    """Aggregated forces of one iteration."""

    #: (n, 3) net force per agent.
    net_force: np.ndarray
    #: Number of non-zero pairwise neighbor forces acting on each agent.
    nonzero_neighbor_forces: np.ndarray
    #: Number of pairs actually evaluated (cost accounting).
    pairs_evaluated: int


class InteractionForce:
    """Cortex3D-style sphere-sphere collision force.

    Parameters
    ----------
    repulsion:
        Spring constant of the elastic repulsion (k in the Cortex3D paper).
    attraction:
        Coefficient of the adhesive sqrt term (gamma).
    """

    #: Arithmetic operations per evaluated pair (cost model).
    OPS_PER_PAIR = 55.0

    #: Whether the static-agent conditions of §5 are valid for this force.
    #: The paper: the detection mechanism "is closely tied to the
    #: InteractionForce implementation ... and might have to be adjusted
    #: if a different force implementation is used."  Subclasses whose
    #: forces depend on attributes the conditions do not watch must set
    #: this to False; the scheduler then refuses to skip agents.
    supports_static_detection = True

    def __init__(self, repulsion: float = 2.0, attraction: float = 0.4):
        self.repulsion = repulsion
        self.attraction = attraction

    def pair_forces(
        self,
        positions: np.ndarray,
        diameters: np.ndarray,
        qi: np.ndarray,
        qj: np.ndarray,
    ) -> np.ndarray:
        """Force exerted by agent ``qj`` on agent ``qi`` for each pair.

        Returns an ``(npairs, 3)`` array.  The math lives in
        :mod:`repro.kernels.numpy_ref` (the bitwise kernel reference);
        override this method to change the force law — every kernel
        backend detects a subclass and evaluates it through this hook,
        block by block.  The stock model itself is not routed through
        here: the reference kernel reads its ``repulsion`` /
        ``attraction`` and runs the same law per coordinate, without
        the ``(npairs, 3)`` stack.
        """
        return numpy_ref.pair_forces(positions, diameters, qi, qj,
                                     self.repulsion, self.attraction)

    def compute(
        self,
        positions: np.ndarray,
        diameters: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        active: np.ndarray | None = None,
    ) -> ForceResult:
        """Net force on every agent from its CSR neighbors.

        ``active`` masks the agents whose forces are computed (static
        agents are excluded by the caller when §5 detection is enabled;
        inactive agents receive zero net force).  Delegates to
        :func:`repro.kernels.numpy_ref.force_csr`, the bitwise reference
        implementation shared with the kernel-backend dispatch.
        """
        net, nonzero, pairs = numpy_ref.force_csr(
            positions, diameters, indptr, indices, active,
            force_model=self,
        )
        return ForceResult(net, nonzero, pairs)
