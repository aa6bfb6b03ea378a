"""Tests for the simulated GPU offload (paper §2)."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import Machine, Param, Simulation, SYSTEM_A
from repro.gpu import A100, GpuDevice, GpuSpec, V100

#: Measured kernel-backend throughput (``python -m repro bench kernels``).
BENCH_KERNELS = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"


class TestSpec:
    def test_peak_flops(self):
        assert A100.peak_flops == pytest.approx(108 * 64 * 1.41e9 * 2)

    def test_roofline_compute_bound(self):
        # Tiny data, huge flops -> compute limited.
        t = A100.kernel_seconds(flops=1e12, bytes_moved=1e3)
        assert t == pytest.approx(1e12 / A100.peak_flops + A100.kernel_launch_s)

    def test_roofline_memory_bound(self):
        t = A100.kernel_seconds(flops=1e3, bytes_moved=1e12)
        assert t == pytest.approx(
            1e12 / (A100.mem_bandwidth_gb_s * 1e9) + A100.kernel_launch_s
        )

    def test_transfer(self):
        assert A100.transfer_seconds(0) == 0
        assert A100.transfer_seconds(24e9) == pytest.approx(1.0 + A100.pcie_latency_s)

    def test_capacity_paper_argument(self):
        # §2: System A has ~12x the A100's memory; the CPU engine holds
        # over an order of magnitude more agents than the device.
        assert A100.max_agents() < 1e9
        assert V100.max_agents() < A100.max_agents()


class TestDevice:
    def test_offload_accounting(self):
        dev = GpuDevice(A100)
        bd = dev.mechanics_offload(num_agents=10_000, num_pairs=300_000)
        assert bd.total_s == pytest.approx(
            bd.upload_s + bd.build_s + bd.force_s + bd.download_s
        )
        assert dev.offload_count == 1
        assert dev.total_seconds == bd.total_s

    def test_capacity_enforced(self):
        dev = GpuDevice(V100)
        with pytest.raises(MemoryError, match="capacity argument"):
            dev.mechanics_offload(num_agents=10**9, num_pairs=0)

    def test_more_pairs_more_time(self):
        dev = GpuDevice(A100)
        small = dev.mechanics_offload(1000, 10_000)
        big = dev.mechanics_offload(1000, 10_000_000)
        assert big.force_s > small.force_s


@pytest.mark.skipif(not BENCH_KERNELS.exists(),
                    reason="BENCH_kernels.json not generated "
                           "(run `python -m repro bench kernels`)")
class TestMeasuredRoofline:
    """Anchor the roofline model against measured kernel throughput.

    The model-only assertions in :class:`TestSpec` check internal
    consistency; these check the model against reality — the measured
    host backends from ``BENCH_kernels.json`` (the NumPy reference and
    the threaded C kernels).  The paper's §2 argument (offload wins at
    scale) only holds if the device roofline predicts more force-pair
    throughput than any *measured* host backend.
    """

    @pytest.fixture(scope="class")
    def artifact(self):
        return json.loads(BENCH_KERNELS.read_text())

    def _measured_pairs_per_s(self, artifact):
        return {
            name: rec["warm"]["force_pairs_per_s"]
            for name, rec in artifact["backends"].items()
            if rec.get("available")
        }

    def test_artifact_is_trustworthy(self, artifact):
        # A benchmark whose backends disagree numerically measures
        # nothing; the agreement gate must have passed.
        assert artifact["outputs_match"]
        measured = self._measured_pairs_per_s(artifact)
        assert {"numpy", "c"} <= set(measured)  # reference + compiled
        assert all(v > 0 for v in measured.values())
        assert artifact["backends"]["c"]["agreement"]["force_bytes"]
        assert artifact["speedup_force_c"] > 1.0

    def test_device_roofline_exceeds_every_measured_host_backend(
            self, artifact):
        measured = self._measured_pairs_per_s(artifact)
        for spec in (A100, V100):
            predicted = spec.force_pairs_per_second()
            for name, pairs_per_s in measured.items():
                assert predicted > pairs_per_s, (
                    f"{spec.name} roofline predicts {predicted:.3g} "
                    f"pairs/s but measured host backend '{name}' does "
                    f"{pairs_per_s:.3g} — the offload argument collapses"
                )

    def test_roofline_headroom_is_physical(self, artifact):
        # The A100 model should beat the measured NumPy loop by a wide
        # margin (it is a ~TFLOP device vs an interpreter), but not by
        # an absurd one (> 6 orders of magnitude would indicate a unit
        # error in either the model or the bench).
        numpy_measured = self._measured_pairs_per_s(artifact)["numpy"]
        ratio = A100.force_pairs_per_second() / numpy_measured
        assert 10.0 < ratio < 1e6

    def test_warm_at_least_as_fast_as_cold(self, artifact):
        for name, rec in artifact["backends"].items():
            if not rec.get("available"):
                continue
            assert (rec["warm"]["force_s"]
                    <= rec["cold"]["force_s"] * 1.25), (
                f"backend '{name}' got slower after warm-up — the "
                "bench's cold/warm split is mislabeled"
            )


class TestEngineIntegration:
    def _sim(self, gpu, n=400, seed=2):
        m = Machine(SYSTEM_A, num_threads=16)
        sim = Simulation("gpu-test", Param.optimized(agent_sort_frequency=0),
                         machine=m, seed=seed)
        if gpu:
            sim.gpu_device = GpuDevice(A100)
        rng = np.random.default_rng(seed)
        sim.add_cells(rng.uniform(0, 60, (n, 3)), diameters=10.0)
        return sim

    def test_results_identical_with_offload(self):
        cpu = self._sim(gpu=False)
        gpu = self._sim(gpu=True)
        cpu.simulate(5)
        gpu.simulate(5)
        np.testing.assert_array_equal(cpu.rm.positions, gpu.rm.positions)

    def test_offload_region_charged(self):
        sim = self._sim(gpu=True)
        sim.simulate(3)
        assert "gpu_offload" in sim.machine.stats
        assert sim.gpu_device.offload_count == 3

    def test_cpu_force_cost_not_charged_when_offloaded(self):
        cpu = self._sim(gpu=False)
        gpu = self._sim(gpu=True)
        cpu.simulate(3)
        gpu.simulate(3)
        assert (
            gpu.machine.stats["agent_ops"].compute_cycles
            < cpu.machine.stats["agent_ops"].compute_cycles
        )

    def test_offload_wins_at_scale_loses_at_small(self):
        # The crossover behavior the hybrid design exists for: PCIe
        # latency dominates tiny populations; kernel throughput wins for
        # dense, large ones.
        def times(n, span):
            out = {}
            for use_gpu in (False, True):
                m = Machine(SYSTEM_A, num_threads=16)
                sim = Simulation("x", Param.optimized(agent_sort_frequency=0),
                                 machine=m, seed=0)
                if use_gpu:
                    sim.gpu_device = GpuDevice(A100)
                rng = np.random.default_rng(0)
                sim.add_cells(rng.uniform(0, span, (n, 3)), diameters=10.0)
                sim.simulate(2)
                out[use_gpu] = sim.virtual_seconds()
            return out

        small = times(50, 40.0)
        large = times(4000, 110.0)
        assert small[True] > small[False]      # offload overhead dominates
        assert large[True] < large[False]      # device throughput wins
