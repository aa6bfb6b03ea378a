"""Kernel backend throughput: NumPy vs C, warm vs cold.

Measures **wall-clock** throughput of the three hot kernels behind
``Param.kernel_backend`` (pairwise CSR force, displacement integration,
7-point diffusion stencil) for every requested backend, on one shared
workload: a uniform random suspension dense enough for ~25 neighbors per
agent, with the CSR built once by the uniform grid (kernel time only —
neighbor search is benchmarked by ``fig11``/``neighbor_cache``).

For each backend and kernel the bench records the **cold** first call
and the **warm** best-of-repeats call, as agents/sec and — for the
force kernel — pairs/sec, with the threads it ran on.  Every backend's
outputs are compared byte for byte against the NumPy reference; a
speedup from wrong answers is meaningless, so ``outputs_match`` gates
the artifact.

Unavailable backends (no C compiler) are recorded as
``available: false`` with the probe's reason — honestly, never with
fabricated numbers.

``python -m repro bench kernels`` writes ``BENCH_kernels.json``;
``--agents/--iterations/--backends/--out`` override.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.bench.tables import ExperimentReport

__all__ = ["run", "main", "run_kernels"]

SCALES = {
    "small": dict(agents=8_000, resolution=32, iterations=5, repeats=3),
    "medium": dict(agents=60_000, resolution=48, iterations=5, repeats=3),
}

#: Mean neighbors per agent the workload box is sized for.
TARGET_NEIGHBORS = 25.0


def _workload(n: int, resolution: int, seed: int = 7):
    """Shared inputs: positions, diameters, CSR, net forces, grid."""
    from repro.env import make_environment

    rng = np.random.default_rng(seed)
    diameter = 10.0
    radius = diameter
    # Box side for ~TARGET_NEIGHBORS expected neighbors per agent.
    side = (n * (4.0 / 3.0) * np.pi * radius**3 / TARGET_NEIGHBORS) ** (1 / 3)
    positions = rng.uniform(0.0, side, size=(n, 3))
    diameters = np.full(n, diameter)
    env = make_environment("uniform_grid")
    env.update(positions, radius)
    indptr, indices = env.neighbor_csr()
    concentration = rng.uniform(0.0, 4.0, size=(resolution,) * 3)
    return {
        "positions": positions,
        "diameters": diameters,
        "indptr": np.asarray(indptr, dtype=np.int64),
        "indices": np.asarray(indices, dtype=np.int64),
        "concentration": concentration,
        "voxel_size": 1.0,
        "diffusion_coefficient": 0.5,
        "decay": 0.01,
        "dt": 0.01,
        "max_displacement": 3.0,
    }


def _time_call(fn) -> tuple[float, object]:
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _bench_backend(name: str, work: dict, iterations: int, repeats: int,
                   reference: dict | None) -> dict:
    """Measure one backend on the shared workload; compare to reference."""
    from repro.core.force import InteractionForce
    from repro.kernels.dispatch import _probe, make_kernels

    if not _probe(name):
        return {"available": False,
                "reason": f"backend '{name}' is not importable/usable here"}
    kb = make_kernels(name, registry=None, warn=False)
    if kb.name != name:
        return {"available": False,
                "reason": f"resolution fell back to '{kb.name}'"}

    force_model = InteractionForce()
    n = len(work["positions"])
    pairs = int(len(work["indices"]))
    sub_dt = min(
        work["dt"],
        work["voxel_size"] ** 2 / (6.0 * work["diffusion_coefficient"]) * 0.5,
    )

    def run_force():
        return kb.force(force_model, work["positions"], work["diameters"],
                        work["indptr"], work["indices"])

    def run_displace():
        pos = work["positions"].copy()
        moved = np.zeros(n, dtype=bool)
        t0 = time.perf_counter()
        kb.displace(pos, moved, net, work["dt"], work["max_displacement"])
        return time.perf_counter() - t0, (pos, moved)

    def run_diffuse():
        return kb.diffuse(work["concentration"], work["voxel_size"],
                          work["diffusion_coefficient"], work["decay"],
                          sub_dt)

    # Cold: the very first calls on a fresh backend instance.
    cold_force_s, (net, nz, got_pairs) = _time_call(run_force)
    cold_displace_s, (disp_pos, disp_moved) = run_displace()
    cold_diffuse_s, conc = _time_call(run_diffuse)

    # Warm: best of `iterations` repeated calls.
    warm_force_s = min(_time_call(run_force)[0] for _ in range(iterations))
    warm_displace_s = min(run_displace()[0] for _ in range(iterations))
    warm_diffuse_s = min(_time_call(run_diffuse)[0]
                         for _ in range(iterations))

    record = {
        "available": True,
        "compiled": kb.compiled,
        "build": kb.build,
        "threads": kb.threads,
        "kernel_calls": kb.calls,
        "pairs": pairs,
        "cold": {
            "force_s": cold_force_s,
            "displacement_s": cold_displace_s,
            "diffusion_s": cold_diffuse_s,
        },
        "warm": {
            "force_s": warm_force_s,
            "displacement_s": warm_displace_s,
            "diffusion_s": warm_diffuse_s,
            "force_pairs_per_s": pairs / warm_force_s,
            "force_agents_per_s": n / warm_force_s,
            "displacement_agents_per_s": n / warm_displace_s,
            "diffusion_voxels_per_s":
                work["concentration"].size / warm_diffuse_s,
        },
    }

    if reference is None:
        # This backend *is* the reference; stash outputs for the others.
        record["_outputs"] = {
            "net": net, "nz": nz, "pairs": got_pairs,
            "disp_pos": disp_pos, "disp_moved": disp_moved, "conc": conc,
        }
        record["agreement"] = {"reference": True, "ok": True}
    else:
        checks = {
            "force_bytes": net.tobytes() == reference["net"].tobytes(),
            "displacement_bytes":
                disp_pos.tobytes() == reference["disp_pos"].tobytes(),
            "diffusion_bytes": conc.tobytes() == reference["conc"].tobytes(),
            "pairs_match": got_pairs == reference["pairs"],
            "nonzero_match": bool(np.array_equal(nz, reference["nz"])),
            "moved_match": bool(
                np.array_equal(disp_moved, reference["disp_moved"])
            ),
        }
        record["agreement"] = {"reference": False, **checks,
                               "ok": all(checks.values())}
    return record


def run_kernels(scale: str = "small", agents: int | None = None,
                iterations: int | None = None, backends=None,
                out: str | os.PathLike | None = "BENCH_kernels.json"
                ) -> dict:
    """Benchmark every requested kernel backend; return the artifact.

    ``backends=None`` measures numpy plus every available compiled
    backend; an explicit list (e.g. ``["numpy", "c"]``) records
    unavailable entries as such instead of skipping them silently.
    """
    from repro.kernels.dispatch import KNOWN_BACKENDS, _probe

    cfg = SCALES[scale]
    n = agents if agents is not None else cfg["agents"]
    its = iterations if iterations is not None else cfg["iterations"]
    if backends is None:
        backends = [b for b in KNOWN_BACKENDS if _probe(b)]
    backends = list(backends)
    unknown = [b for b in backends if b not in KNOWN_BACKENDS]
    if unknown:
        raise ValueError(f"unknown kernel backend(s) {unknown}; "
                         f"choose from {KNOWN_BACKENDS}")
    if "numpy" not in backends:
        backends.insert(0, "numpy")  # the reference always runs

    work = _workload(n, cfg["resolution"])
    results: dict[str, dict] = {}
    reference = None
    numpy_rec = _bench_backend("numpy", work, its, cfg["repeats"], None)
    reference = numpy_rec.pop("_outputs")
    results["numpy"] = numpy_rec
    for name in backends:
        if name == "numpy":
            continue
        results[name] = _bench_backend(name, work, its, cfg["repeats"],
                                       reference)

    def speedup(name, kernel):
        rec = results.get(name)
        if not rec or not rec.get("available"):
            return None
        return (results["numpy"]["warm"][f"{kernel}_s"]
                / rec["warm"][f"{kernel}_s"])

    artifact = {
        "experiment": "kernels",
        "scale": scale,
        "agents": n,
        "pairs": int(len(work["indices"])),
        "grid_resolution": cfg["resolution"],
        "iterations": its,
        "cpu_count": os.cpu_count() or 1,
        "backends": results,
        # Warm speedups of the C backend over NumPy (None = unavailable
        # here — recorded honestly, never fabricated).
        "speedup_force_c": speedup("c", "force"),
        "speedup_diffusion_c": speedup("c", "diffusion"),
        "outputs_match": all(
            rec.get("agreement", {}).get("ok", False)
            for rec in results.values() if rec.get("available")
        ),
    }
    if out is not None:
        Path(out).write_text(json.dumps(artifact, indent=2) + "\n")
        artifact["path"] = str(out)
    return artifact


def run(scale: str = "small", **overrides) -> ExperimentReport:
    """Execute the experiment at the given scale; returns its report."""
    artifact = run_kernels(scale=scale, **overrides)
    rows = []
    for name, rec in artifact["backends"].items():
        if not rec.get("available"):
            rows.append([name, "-", "-", "-", "-", "-",
                         rec.get("reason", "unavailable")])
            continue
        agree = rec["agreement"]
        rows.append([
            name,
            f"{rec['warm']['force_pairs_per_s'] / 1e6:.2f}M",
            f"{rec['warm']['displacement_agents_per_s'] / 1e6:.2f}M",
            f"{rec['warm']['diffusion_voxels_per_s'] / 1e6:.2f}M",
            round(rec["cold"]["force_s"], 4),
            rec["threads"],
            "ref" if agree.get("reference") else
            ("ok" if agree["ok"] else "DISAGREES"),
        ])
    notes = [
        f"{artifact['agents']} agents, {artifact['pairs']} CSR pairs, "
        f"{artifact['grid_resolution']}^3 voxels; warm = best of "
        f"{artifact['iterations']}, cold = first call",
        "outputs " + ("byte-identical to the NumPy reference"
                      if artifact["outputs_match"]
                      else "DISAGREE — kernel bug"),
    ]
    if artifact["speedup_force_c"] is not None:
        notes.append(
            f"c warm speedup: force {artifact['speedup_force_c']:.2f}x, "
            f"diffusion {artifact['speedup_diffusion_c']:.2f}x")
    if "path" in artifact:
        notes.append(f"artifact written to {artifact['path']}")
    return ExperimentReport(
        experiment="Kernels",
        title="Kernel backend throughput (NumPy / C)",
        headers=["backend", "force_pairs/s", "displace_agents/s",
                 "diffuse_voxels/s", "cold_force_s", "threads",
                 "agreement"],
        rows=rows,
        notes=notes,
    )


def main() -> None:
    """Print the rendered report to stdout."""
    print(run().render())


if __name__ == "__main__":
    main()
