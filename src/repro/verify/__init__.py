"""repro.verify — differential correctness, invariants, replay, fuzzing.

The correctness oracle for the engine's fast paths (paper §3-§5): every
optimization must be indistinguishable from its naive counterpart.  Four
tools, all seeded and reproducible:

- **Differential oracle** (:mod:`repro.verify.oracle`): identical neighbor
  queries through every environment implementation plus a brute-force
  reference, with delta-debugging minimization of any disagreement — the
  executable form of BioDynaMo's environment cross-checks (§6.9).
- **Invariant checker** (:mod:`repro.verify.invariants`): structural
  properties of the ResourceManager, the timestamped grid's linked lists,
  the Morton run structure, and static-agent detection; wired into the
  scheduler via ``Param(check_invariants_frequency=N)``.
- **Replay harness** (:mod:`repro.verify.replay`): same seed →
  byte-identical per-step state checksums; different seed → different
  trajectory; and one :func:`equivalence` driver over a table of legs
  (process pool, neighbor cache, events, tracing, kernels, serve) that
  must each leave those checksums untouched.
- **Seeded fuzzer** (:mod:`repro.verify.fuzz`): randomized
  add/remove/sort/query interleavings against a reference model, with a
  shrinking loop that minimizes failures to copy-pasteable reproducers.

CLI: ``python -m repro verify [--fuzz N] [--oracle] [--replay SIM]``.
Before optimizing anything, run it; see docs/verification.md.
"""

from repro.verify.snapshot import (
    ORACLE_ENVIRONMENTS,
    QuerySnapshot,
    checksum_arrays,
    state_checksum,
)
from repro.verify.oracle import (
    Disagreement,
    OracleReport,
    compare_environments,
    minimize_snapshot,
    random_snapshots,
    run_oracle,
)
from repro.verify.invariants import (
    InvariantCheckOperation,
    InvariantViolation,
    Violation,
    check_morton_runs,
    check_permutation,
    check_resource_manager,
    check_simulation_invariants,
    check_static_agents,
    check_uniform_grid,
)
from repro.verify.replay import (
    LEGS,
    EquivalenceReport,
    Leg,
    ReplayReport,
    equivalence,
    replay,
    replay_model,
    seed_sensitivity,
)
from repro.verify.fuzz import (
    FuzzCase,
    FuzzFailure,
    FuzzReport,
    FuzzViolation,
    generate_case,
    run_case,
    run_fuzz,
    shrink_case,
)

__all__ = [
    "QuerySnapshot",
    "ORACLE_ENVIRONMENTS",
    "state_checksum",
    "checksum_arrays",
    "Disagreement",
    "OracleReport",
    "compare_environments",
    "random_snapshots",
    "minimize_snapshot",
    "run_oracle",
    "InvariantViolation",
    "InvariantCheckOperation",
    "Violation",
    "check_resource_manager",
    "check_uniform_grid",
    "check_morton_runs",
    "check_permutation",
    "check_static_agents",
    "check_simulation_invariants",
    "ReplayReport",
    "replay",
    "replay_model",
    "seed_sensitivity",
    "Leg",
    "LEGS",
    "EquivalenceReport",
    "equivalence",
    "FuzzCase",
    "FuzzFailure",
    "FuzzReport",
    "FuzzViolation",
    "generate_case",
    "run_case",
    "shrink_case",
    "run_fuzz",
]
