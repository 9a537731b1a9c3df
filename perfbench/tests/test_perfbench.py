"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import live, run, sim, virtual
from perfbench.common import (
    LATENCY_LIMIT_MS,
    HostMeter,
    count_ticks,
    latency_ms,
    percentile,
    time_calls,
)

ROOT = run.ROOT


class TestPercentiles:
    def test_p99_needs_ten_samples_beyond_it(self):
        assert percentile(list(range(1000)), 0.99) == 989
        assert percentile(list(range(999)), 0.99) is None

    def test_median_needs_ten_samples_beyond_it(self):
        assert percentile(list(range(20)), 0.5) == 9
        assert percentile(list(range(19)), 0.5) is None

    def test_rejects_out_of_range_quantile(self):
        with pytest.raises(ValueError):
            percentile([1.0] * 100, 1.0)


class TestMisses:
    def test_shed_and_failed_requests_miss_the_limit(self):
        # 50 fast completions, 60 shed/failed/unresolved: the median is a miss
        assert latency_ms([1.0] * 50, 60, 0.5) == LATENCY_LIMIT_MS
        assert latency_ms([1.0] * 60, 50, 0.5) == 1.0

    def test_completions_over_the_limit_are_misses(self):
        slow = [2 * LATENCY_LIMIT_MS] * 60
        assert latency_ms([1.0] * 50 + slow, 0, 0.5) == LATENCY_LIMIT_MS

    def test_unsupported_percentile_is_none(self):
        assert latency_ms([1.0] * 500, 0, 0.99) is None


class TestCli:
    def test_seed_is_a_required_argument(self):
        with pytest.raises(SystemExit) as exc:
            run.parse_args(["--workload", "serve-virtual"])
        assert exc.value.code == 2
        args = run.parse_args(["--workload", "serve-virtual", "--seed", "7"])
        assert args.seed == 7 and args.trace == 0

    def test_every_workload_in_benchmark_json(self):
        spec = run.load_spec()
        assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

    def test_assemble_fills_unrun_layers_and_flags_gaps(self):
        spec = run.load_spec()
        errors = []
        out = run.assemble(spec, True, {"core.sim_cycles": 5}, errors)
        assert not errors
        assert set(out) == {m["name"] for m in spec["per_layer"]}
        assert out["core.sim_cycles"] == {"value": 5.0, "unit": "cycles"}
        assert out["engine.batch_occupancy"]["value"] == 0.0
        run.assemble(spec, False, {"bogus": 1.0}, errors)
        assert any("setup_s" in e for e in errors)
        assert any("bogus" in e for e in errors)

    def test_exits_nonzero_without_the_program(self, tmp_path):
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
        shutil.copytree(
            os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "serve-virtual",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode != 0
        assert done.stdout == ""


class TestGeneratedInputs:
    @pytest.mark.parametrize("workload", ["transfer-bound", "compute-bound"])
    def test_sim_inputs_come_from_the_seed(self, workload):
        assert sim.make_inputs(workload, 5) == sim.make_inputs(workload, 5)
        assert sim.make_inputs(workload, 5) != sim.make_inputs(workload, 6)

    def test_live_inputs_come_from_the_seed(self):
        a, b, c = live.make_inputs(5, 64), live.make_inputs(5, 64), live.make_inputs(6, 64)
        assert np.array_equal(a.seed, b.seed) and np.array_equal(a.size, b.size)
        assert not np.array_equal(a.size, c.size)
        job = a.job(3)
        assert job.n_samples == a.size[3] and job.seed == a.seed[3]
        assert live.SIZE_MIN <= a.size.min() and a.size.max() <= live.SIZE_CAP

    def test_virtual_spec_comes_from_the_seed(self):
        assert virtual.make_spec(5) == virtual.make_spec(5)
        assert virtual.make_spec(5).seed == 5

    def test_fig7_design_stores_the_seeded_values(self):
        assert sim._fig7(2, 4, 16, [1.5, 0.75]).error is None


class TestChecksCatchDefects:
    def test_lost_device_writes_fail_the_fig7_check(self, monkeypatch):
        from repro.core.memory import GlobalMemory

        monkeypatch.setattr(GlobalMemory, "write_burst", lambda self, a, w: None)
        assert "lost source values" in sim._fig7(2, 4, 16, [1.5, 0.75]).error

    def test_cycle_count_off_the_closed_form_fails(self, monkeypatch):
        monkeypatch.setattr(sim, "transfer_only_cycles", lambda *a, **k: 1)
        assert "closed form" in sim._fig7(2, 4, 16, [1.5, 0.75]).error


class TestProbes:
    def test_tick_counting_keeps_the_simulation_identical(self):
        from repro.core.transfer import DummySource, TransferEngine

        original = TransferEngine.__dict__["tick"]
        plain = sim._fig7(2, 1, 2, [1.0, 1.0])
        with count_ticks() as ticks:
            counted = sim._fig7(2, 1, 2, [1.0, 1.0])
        assert TransferEngine.__dict__["tick"] is original
        assert (counted.cycles, counted.skipped) == (plain.cycles, plain.skipped)
        assert counted.skipped > 0  # the fast path still skips
        assert ticks["DummySource"] > 0 and ticks["TransferEngine"] > 0
        assert "tick" in DummySource.__dict__

    def test_host_meter_samples_every_vcpu_and_stops_its_helpers(self):
        import time

        with HostMeter() as meter:
            start = time.perf_counter()
            time.sleep(0.5)
            end = time.perf_counter()
            helpers = list(meter._procs)
        assert all(p.poll() is not None for p in helpers)
        assert len(helpers) == len(os.sched_getaffinity(0))
        assert len(meter.samples) >= 2 * len(helpers)
        assert meter.factor(start, end) > 0
        with pytest.raises(ValueError):
            meter.factor(end + 10, end + 11)

    def test_time_calls_restores_instance_and_class(self):
        class Box:
            def f(self, x):
                return x + 1

        box = Box()
        with time_calls(box, "f") as times:
            assert box.f(1) == 2
        with time_calls(Box, "f") as class_times:
            assert Box().f(2) == 3
        assert len(times) == 1 and len(class_times) == 1
        assert "f" not in vars(box) and Box.f(box, 0) == 1


def test_smoke_run_prints_every_end_to_end_metric():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-virtual",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"] for m in run.load_spec()["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())
