"""Smoke test of the benchmark plumbing: ``python -m pytest perf -q``.

Runs every workload at ``--scale smoke`` (tiny sizes whose numbers are never
recorded) and checks the *shape* of what comes out — every metric
BENCHMARK.json names is emitted for every workload, under both trace modes —
not the values.  Not part of the tier-1 ``testpaths``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perf" / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(*args, cwd=ROOT):
    return subprocess.run([*RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "record.json"
    proc = _run("--scale", "smoke", "--seconds", "0.2", "--traced",
                "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def _single(workload, seed, trace, out):
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds",
                "0.2", "--trace", str(trace), "--scale", "smoke",
                "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), json.loads(
        out.read_text())


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_for_every_workload(record, workload):
    entry = record["workloads"][workload]
    assert entry["correct"], [
        r["errors"] for r in record["runs"] if r["workload"] == workload]
    assert entry["failed_share"] == 0
    expected = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert set(entry["metrics"]) == expected
    assert entry["trace_missing"] == []
    for name, metric in entry["metrics"].items():
        assert metric["median"] is not None, name
    for metric in SPEC["end_to_end"]:
        assert entry["metrics"][metric["name"]]["median"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_sum_to_the_wall(record, workload):
    ratio = record["workloads"][workload]["metrics"]["trace.self_sum_ratio"]
    assert 0.98 <= ratio["median"] <= 1.02


def test_layers_that_must_be_idle_are_idle(record):
    metrics = {w: record["workloads"][w]["metrics"] for w in WORKLOADS}
    assert metrics["diffusion_field"]["env.neighbor_csr_calls"]["median"] == 0
    assert metrics["diffusion_field"]["kernels.force_calls"]["median"] == 0
    assert metrics["diffusion_field"]["kernels.diffuse_calls"]["median"] > 0
    assert metrics["oncology"]["kernels.diffuse_calls"]["median"] == 0
    assert metrics["oncology"]["commit.removed"]["median"] > 0
    assert metrics["oncology_process2"]["parallel.phases"]["median"] > 0
    assert metrics["serve_sessions"]["serve.evictions"]["median"] > 0
    assert metrics["serve_sessions"]["checkpoint.bytes"]["median"] > 0


def test_contract_line_and_seed_sensitivity(tmp_path):
    line0, rec0 = _single("oncology", 0, 0, tmp_path / "a.json")
    line1, rec1 = _single("oncology", 1, 0, tmp_path / "b.json")
    assert set(line0) == {"correct", "attempted", "failed", "metrics"}
    assert line0["correct"] and line0["attempted"] >= 1
    assert line0["failed"] == 0
    assert set(line0["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(line0["metrics"]) == set(line1["metrics"])
    assert rec0["checksums"] != rec1["checksums"]
    traced, _ = _single("oncology", 0, 1, tmp_path / "c.json")
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.filterwarnings("ignore:kernel_backend='auto'")
def test_missing_wrap_target_reads_null(monkeypatch):
    sys.path.insert(0, str(ROOT))
    try:
        from perf import run, trace
    finally:
        sys.path.remove(str(ROOT))
    targets = [
        (name, owner, "renamed_away" if name == "env.update" else attr, count)
        for name, owner, attr, count in trace.SIM_TARGETS
    ]
    monkeypatch.setattr(trace, "SIM_TARGETS", targets)
    result = run.run_workload("oncology", 0, 0.1, True, "smoke")
    assert result["correct"]
    assert result["trace_missing"] == ["env.update"]
    assert result["metrics"]["env.update_s"] is None
    assert result["metrics"]["env.update_calls"] is None
    assert result["metrics"]["env.neighbor_csr_s"] > 0
    line = json.loads(run.contract_line(result, SPEC))
    assert line["metrics"]["env.update_s"]["value"] is None


def _session_members(sid: int) -> list:
    """(pid, state) of every process whose session id is ``sid``."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text().rpartition(")")[2].split()
            except OSError:
                continue
            if int(fields[3]) == sid:
                found.append((int(entry.name), fields[0]))
    return found


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("workload", ["oncology_process2", "serve_sessions"])
@pytest.mark.parametrize("trace", [0, 1])
def test_no_process_outlives_the_run(workload, trace):
    # The resource trackers the engine's shm arenas start (one in the host,
    # one per serve worker) used to end a moment *after* run.py did.
    proc = subprocess.Popen(
        [*RUN, "--workload", workload, "--seed", "2", "--seconds", "0.2",
         "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    stdout, stderr = proc.communicate(timeout=300)
    survivors = _session_members(proc.pid)
    assert proc.returncode == 0, stderr
    assert survivors == []
    assert json.loads(stdout.splitlines()[-1])["correct"]


def test_exits_nonzero_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "oncology", "--seed",
         "0", "--seconds", "0.2", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
