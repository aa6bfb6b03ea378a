"""repro — Python reproduction of *High-Performance and Scalable Agent-Based
Simulation with BioDynaMo* (PPoPP 2023).

Curated public API — the pieces a model author needs::

    from repro import Simulation, Param, Behavior, GrowDivide
    from repro import UniformGridEnvironment, Observability
    from repro.parallel import Machine, SYSTEM_A

Everything in ``__all__`` below is stable; engine internals remain
importable from their defining modules but carry no compatibility
promise.

See DESIGN.md for the system inventory, EXPERIMENTS.md for the
paper-figure reproduction index, and docs/observability.md for the
tracing/metrics layer (``sim.obs``).
"""

from repro.core import (
    Agent,
    AgentOperation,
    Behavior,
    ExportOperation,
    GeneRegulation,
    Operation,
    OpKind,
    Param,
    ParamError,
    ResourceManager,
    Scheduler,
    Simulation,
    StandaloneOperation,
    TimeSeriesOperation,
    restore_checkpoint,
    save_checkpoint,
)
from repro.core.behaviors_lib import (
    Chemotaxis,
    Confinement,
    GrowDivide,
    Infection,
    RandomWalk,
    Recovery,
    Secretion,
    StochasticDeath,
)
from repro.core.diffusion import DiffusionGrid
from repro.env import (
    BruteForceEnvironment,
    Environment,
    KDTreeEnvironment,
    OctreeEnvironment,
    UniformGridEnvironment,
    make_environment,
)
from repro.obs import (
    MetricsRegistry,
    Observability,
    Tracer,
    chrome_trace,
    write_chrome_trace,
    write_metrics,
)
from repro.parallel import Machine, SYSTEM_A, SYSTEM_B, SYSTEM_C

__version__ = "1.1.0"

__all__ = [
    # Core engine
    "Simulation",
    "Param",
    "ParamError",
    "Scheduler",
    "Behavior",
    "Agent",
    "ResourceManager",
    "DiffusionGrid",
    # Operations
    "Operation",
    "AgentOperation",
    "StandaloneOperation",
    "OpKind",
    "TimeSeriesOperation",
    "ExportOperation",
    "GeneRegulation",
    # Behaviors library
    "GrowDivide",
    "RandomWalk",
    "Chemotaxis",
    "Secretion",
    "Infection",
    "Recovery",
    "Confinement",
    "StochasticDeath",
    # Environments
    "Environment",
    "UniformGridEnvironment",
    "KDTreeEnvironment",
    "OctreeEnvironment",
    "BruteForceEnvironment",
    "make_environment",
    # Observability
    "Observability",
    "MetricsRegistry",
    "Tracer",
    "chrome_trace",
    "write_chrome_trace",
    "write_metrics",
    # Checkpointing
    "save_checkpoint",
    "restore_checkpoint",
    "read_checkpoint_meta",
    # Lifecycle
    "SimulationState",
    "LifecycleError",
    # Session server (lazy: importing repro must not pay for asyncio/mp)
    "SessionClient",
    "SessionHandle",
    "SessionPool",
    "ServerThread",
    "ServeError",
    "StateView",
    "serve_forever",
    "PROTO_VERSION",
    "ProtocolError",
    # Virtual machines
    "Machine",
    "SYSTEM_A",
    "SYSTEM_B",
    "SYSTEM_C",
    "__version__",
]

#: PEP 562 lazy exports: resolved on first attribute access, cached in
#: the module dict.  Keeps ``import repro`` free of the serve stack
#: (multiprocessing, asyncio) while presenting one curated namespace.
_LAZY_EXPORTS = {
    "SimulationState": ("repro.core", "SimulationState"),
    "LifecycleError": ("repro.core", "LifecycleError"),
    "read_checkpoint_meta": ("repro.core", "read_checkpoint_meta"),
    "SessionClient": ("repro.serve", "SessionClient"),
    "SessionHandle": ("repro.serve", "SessionHandle"),
    "SessionPool": ("repro.serve", "SessionPool"),
    "ServerThread": ("repro.serve", "ServerThread"),
    "ServeError": ("repro.serve", "ServeError"),
    "StateView": ("repro.serve", "StateView"),
    "serve_forever": ("repro.serve", "serve_forever"),
    "PROTO_VERSION": ("repro.serve", "PROTO_VERSION"),
    "ProtocolError": ("repro.serve", "ProtocolError"),
}


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))


def __getattr__(name: str):
    lazy = _LAZY_EXPORTS.get(name)
    if lazy is not None:
        import importlib

        module, attr = lazy
        value = getattr(importlib.import_module(module), attr)
        globals()[name] = value  # cache: next access skips __getattr__
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
