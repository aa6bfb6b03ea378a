"""Simulation parameters, including every optimization toggle of the paper.

``Param`` plays the role of BioDynaMo's ``Param`` class.  The six paper
optimizations map to:

====================================  =====================================
Paper mechanism                        Parameter
====================================  =====================================
O1 optimized uniform grid (§3.1)      ``environment = "uniform_grid"``
O2 parallel add/remove (§3.2)         ``parallel_agent_modifications``
O3 NUMA-aware iteration (§4.1)        ``numa_aware_iteration``
O4 agent sorting/balancing (§4.2)     ``agent_sort_frequency > 0``
   extra memory during sorting        ``agent_sort_extra_memory``
O5 pool memory allocator (§4.3)       ``agent_allocator = "bdm"``
O6 static-agent detection (§5)        ``detect_static_agents``
====================================  =====================================

``Param.standard()`` returns the "BioDynaMo standard implementation" used
as the baseline in §6.6/§6.7: kd-tree environment and all optimizations
turned off.  ``Param.optimized()`` turns everything on.

Construction-time validation: every ``Param`` is checked the moment it is
built — unknown keys (``with_``/``from_file``/classmethod overrides) and
type-mismatched values raise a typed :class:`ParamError` immediately,
instead of a typo silently riding along as a default until some distant
engine path trips over it.
"""

from __future__ import annotations

import difflib
import numbers
from dataclasses import dataclass, field, fields, replace

__all__ = ["Param", "ParamError"]


class ParamError(ValueError):
    """An invalid, mistyped, or unknown simulation parameter.

    Subclasses :class:`ValueError` so pre-existing ``except ValueError``
    handlers (and tests) keep working.
    """


#: Former fields whose default behaviour is now the only implementation,
#: mapped to what they used to select; old configs that still carry them
#: get an explanation instead of a did-you-mean.
_REMOVED_FIELDS = {
    "batched_agent_ops": "the staged commit pipeline",
    "soa_arena": "the single-arena SoA layout",
    "skip_unchanged_environment": "the unchanged-environment rebuild skip",
    "neighbor_skin": "the auto-tuned Verlet skin",
}


@dataclass
class Param:
    """All engine knobs; defaults correspond to the fully optimized engine."""

    # --- Environment (O1) -------------------------------------------------
    #: "uniform_grid" | "kd_tree" | "octree" | "brute_force" (O(n^2)
    #: reference, small debugging runs only)
    environment: str = "uniform_grid"
    environment_kwargs: dict = field(default_factory=dict)

    # --- Parallelism (O2, O3) ---------------------------------------------
    parallel_agent_modifications: bool = True
    numa_aware_iteration: bool = True
    block_size: int = 512                  # agents per scheduling block

    # --- Execution backend (real parallelism; repro.parallel) --------------
    #: "serial" keeps the original in-process NumPy path; "process" runs
    #: mechanics (and vectorizable agent operations) on a pool of worker
    #: processes over shared-memory columns (:mod:`repro.parallel.shm`),
    #: bitwise identical to serial and measured slower than serial C
    #: (docs/parallel_backend.md).
    execution_backend: str = "serial"
    #: Force the agent storage into shared memory even when the execution
    #: backend is serial: the consolidated SoA block lives in a
    #: ``multiprocessing.shared_memory`` segment that other processes can
    #: attach zero-copy.  This is what
    #: the session server (:mod:`repro.serve`) uses — each session's
    #: agent state is one attachable SoA block — and it is bitwise
    #: identical to private storage (same arrays, different backing
    #: buffer).  Implied by ``execution_backend="process"``.
    shared_storage: bool = False
    backend_workers: int = 0               # 0 = os.cpu_count()
    backend_chunk_size: int = 4096         # agent rows per process-kernel chunk
    #: Array-kernel implementation for the hot kernels (CSR force,
    #: displacement, Verlet refilter, diffusion stencil): "numpy" (the
    #: reference and default), "c" (C/OpenMP, bit for bit the same), or
    #: "auto" ("c" where it builds, else NumPy with a warning — never an
    #: ImportError).  See docs/kernels.md and the ``kernels`` verify leg.
    kernel_backend: str = "numpy"
    #: Displacement-bounded neighbor caching (Verlet-skin CSR reuse): build
    #: the uniform grid with an inflated radius ``interaction_radius +
    #: skin`` (the skin auto-tuned from the observed per-step displacement
    #: and radius growth) and, while no agent has consumed it, reuse the
    #: cached superset CSR with a cheap order-preserving re-filter instead
    #: of rebuilding.  Results are bitwise identical to rebuilding every
    #: step (enforced by the ``verify.replay`` leg ``neighbor_cache``).
    #: Only engages for environments that support it (the uniform grid)
    #: and never during virtual-machine cost-model runs.
    neighbor_cache: bool = True
    #: Event-driven quiescence scheduling (:mod:`repro.core.events`):
    #: behaviors declare per-agent wake times (``Behavior.next_fire``),
    #: the scheduler dispatches only due agents, and provably-inert
    #: stretches are consumed as one horizon jump that replays only
    #: time-dependent state (read-only samplers, diffusion, the time
    #: accumulator).  Bitwise identical to tick-stepping (enforced by
    #: the ``verify.replay`` leg ``events``); off by default, enabled by
    #: :meth:`optimized`.  Never engages under a virtual machine.
    event_scheduling: bool = False

    # --- Memory layout (O4, O5) --------------------------------------------
    agent_sort_frequency: int = 10         # 0 disables sorting; 1 = every iter
    agent_sort_extra_memory: bool = True   # keep old copies until sort done
    space_filling_curve: str = "morton"    # "morton" | "hilbert"
    agent_allocator: str = "bdm"           # "bdm" | "ptmalloc2" | "jemalloc"
    other_allocator: str = "ptmalloc2"     # for non-agent objects (Fig. 13)
    mem_mgr_growth_rate: float = 2.0
    mem_mgr_aligned_pages_shift: int = 5

    # --- Static detection (O6) ---------------------------------------------
    detect_static_agents: bool = False     # off by default, like BioDynaMo

    # --- Self-verification (repro.verify) -----------------------------------
    #: Run the engine invariant checker (:mod:`repro.verify.invariants`)
    #: every N iterations; 0 disables.  Any violation raises
    #: ``InvariantViolation`` — turn this on (e.g. 1) when modifying engine
    #: internals or validating a new optimization against the oracle.
    check_invariants_frequency: int = 0

    # --- Observability (repro.obs) ------------------------------------------
    #: Record spans for every scheduler stage (and, under the process
    #: backend, per-worker phase spans + steal events) into ``sim.obs``.
    #: Export with ``repro.obs.write_chrome_trace`` or ``python -m repro
    #: trace``.  Tracing is inert: per-step state checksums are bitwise
    #: identical with it on or off.  The metrics registry is always on.
    tracing: bool = False

    # --- Physics -----------------------------------------------------------
    simulation_time_step: float = 0.01
    simulation_max_displacement: float = 3.0
    interaction_radius_factor: float = 1.0  # radius = factor * max diameter
    #: Optional closed simulation space (BioDynaMo's ``bound_space``):
    #: agent positions are clamped to [min, max] on every axis after each
    #: iteration's movements.
    bound_space: tuple | None = None

    # --- Model sizes (drive allocator traffic and memory accounting) -------
    agent_size_bytes: int = 136            # sizeof(bdm::Cell) order of magnitude
    behavior_size_bytes: int = 56

    # ------------------------------------------------------------------ #

    def __new__(cls, *args, **kwargs):
        # Typed rejection before the dataclass ``__init__`` turns an
        # unknown keyword into a bare TypeError.
        cls._reject_unknown(kwargs)
        return super().__new__(cls)

    def __post_init__(self):
        # Construction-time gate: a Param object that exists is valid.
        self._check_types()
        self.validate()

    @classmethod
    def _reject_unknown(cls, keys) -> None:
        """Raise :class:`ParamError` for keys that are not Param fields:
        removed fields say why they are gone, typos get the closest real
        field name."""
        valid = {f.name for f in fields(cls)}
        unknown = sorted(set(keys) - valid)
        if not unknown:
            return
        removed = [k for k in unknown if k in _REMOVED_FIELDS]
        if removed:
            raise ParamError("; ".join(
                f"parameter {k!r} was removed: {_REMOVED_FIELDS[k]} is now "
                "unconditional, delete the setting" for k in removed))
        hints = []
        for k in unknown:
            close = difflib.get_close_matches(k, valid, n=1)
            hints.append(f"{k!r}" + (f" (did you mean {close[0]!r}?)"
                                     if close else ""))
        raise ParamError("unknown parameter(s): " + ", ".join(hints))

    def _check_types(self) -> None:
        """Reject type-mismatched field values with :class:`ParamError`."""
        for f in fields(self):
            value = getattr(self, f.name)
            ann = f.type if isinstance(f.type, str) else getattr(
                f.type, "__name__", str(f.type))
            if ann == "str":
                ok = isinstance(value, str)
            elif ann == "bool":
                ok = isinstance(value, bool)
            elif ann == "int":
                ok = (isinstance(value, numbers.Integral)
                      and not isinstance(value, bool))
            elif ann == "float":
                ok = (isinstance(value, numbers.Real)
                      and not isinstance(value, bool))
            elif ann == "dict":
                ok = isinstance(value, dict)
            elif ann == "tuple | None":
                if value is None:
                    ok = True
                elif (isinstance(value, (tuple, list)) and len(value) == 2):
                    # Normalize: lists from TOML/JSON become tuples.
                    object.__setattr__(self, f.name, tuple(value))
                    ok = True
                else:
                    ok = False
            else:  # unrecognized annotation: no check
                ok = True
            if not ok:
                raise ParamError(
                    f"parameter {f.name!r} expects {ann}, got "
                    f"{type(value).__name__} ({value!r})"
                )

    @classmethod
    def optimized(cls, **overrides) -> "Param":
        """All six optimizations on (the paper's 'BioDynaMo optimized').

        Also selects ``kernel_backend="auto"``: the C kernels where they
        build (probed once per process), with a warning-only fallback to
        the NumPy reference elsewhere — never an ImportError.
        """
        overrides.setdefault("kernel_backend", "auto")
        overrides.setdefault("event_scheduling", True)
        cls._reject_unknown(overrides)
        return cls(**overrides)

    @classmethod
    def from_file(cls, path) -> "Param":
        """Load parameters from a TOML or JSON file (BioDynaMo's
        ``bdm.toml``).  Keys must match :class:`Param` field names; a
        ``[param]`` TOML table / ``"param"`` JSON object is also accepted.
        """
        import json
        from pathlib import Path

        path = Path(path)
        text = path.read_text()
        if path.suffix == ".toml":
            import tomllib

            data = tomllib.loads(text)
        elif path.suffix == ".json":
            data = json.loads(text)
        else:
            raise ValueError(f"unsupported parameter file type {path.suffix!r}")
        if isinstance(data.get("param"), dict):
            data = data["param"]
        cls._reject_unknown(data)
        if isinstance(data.get("bound_space"), list):
            data["bound_space"] = tuple(data["bound_space"])
        return cls(**data)

    @classmethod
    def standard(cls, **overrides) -> "Param":
        """The 'BioDynaMo standard implementation' baseline (§6.6).

        kd-tree environment, serial agent add/remove, no NUMA awareness,
        no agent sorting, system allocator, no static detection.
        """
        base = cls(
            environment="kd_tree",
            parallel_agent_modifications=False,
            numa_aware_iteration=False,
            agent_sort_frequency=0,
            agent_sort_extra_memory=False,
            agent_allocator="ptmalloc2",
            detect_static_agents=False,
        )
        cls._reject_unknown(overrides)
        return replace(base, **overrides)

    def with_(self, **overrides) -> "Param":
        """Return a copy with the given fields replaced.

        Unknown field names raise :class:`ParamError` (with a
        closest-match suggestion) instead of ``dataclasses.replace``'s
        bare ``TypeError``.
        """
        self._reject_unknown(overrides)
        return replace(self, **overrides)

    def validate(self) -> None:
        """Raise :class:`ParamError` on any invalid setting.

        Runs automatically at construction (``__post_init__``); kept
        public for callers that mutate fields in place.
        """
        if self.environment not in ("uniform_grid", "kd_tree", "octree",
                                    "brute_force"):
            raise ParamError(f"unknown environment {self.environment!r}")
        if self.agent_allocator not in ("bdm", "ptmalloc2", "jemalloc"):
            raise ParamError(f"unknown allocator {self.agent_allocator!r}")
        if self.other_allocator not in ("bdm", "ptmalloc2", "jemalloc"):
            raise ParamError(f"unknown allocator {self.other_allocator!r}")
        if self.space_filling_curve not in ("morton", "hilbert"):
            raise ParamError(f"unknown curve {self.space_filling_curve!r}")
        if self.agent_sort_frequency < 0:
            raise ParamError("agent_sort_frequency must be >= 0")
        if self.check_invariants_frequency < 0:
            raise ParamError("check_invariants_frequency must be >= 0")
        if self.block_size < 1:
            raise ParamError("block_size must be >= 1")
        execution_backends = ("serial", "process")
        if self.execution_backend in ("distributed", "auto"):
            raise ParamError(f"execution backend {self.execution_backend!r} "
                             "was removed; use 'serial' or 'process'")
        if self.execution_backend not in execution_backends:
            raise ParamError(
                f"unknown execution backend {self.execution_backend!r}; "
                f"choose one of {', '.join(execution_backends)}"
            )
        if self.backend_workers < 0:
            raise ParamError("backend_workers must be >= 0 (0 = cpu count)")
        if self.backend_chunk_size < 1:
            raise ParamError("backend_chunk_size must be >= 1")
        kernel_backends = ("numpy", "c", "auto")
        if self.kernel_backend in ("numba", "cupy"):
            raise ParamError(f"kernel backend {self.kernel_backend!r} was "
                             "removed; use 'c' (C/OpenMP, bitwise equal to "
                             "numpy) or 'auto'")
        if self.kernel_backend not in kernel_backends:
            close = difflib.get_close_matches(
                str(self.kernel_backend), kernel_backends, n=1
            )
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            raise ParamError(
                f"unknown kernel backend {self.kernel_backend!r}{hint}; "
                f"choose one of {', '.join(kernel_backends)}"
            )
        if self.simulation_time_step <= 0:
            raise ParamError("simulation_time_step must be positive")
        if self.bound_space is not None:
            lo, hi = self.bound_space
            if hi <= lo:
                raise ParamError("bound_space max must exceed min")
