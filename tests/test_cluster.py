"""Cluster subsystem tests: queue semantics, fault tolerance, parity.

The load-bearing guarantees:

* exactly one worker wins each task (claim-by-rename);
* a SIGKILL'd worker's shard is re-leased and the finished run is
  byte-identical to the serial executor;
* corrupt or expired leases recover without losing tasks, and exhausted
  attempt budgets surface as dead letters, not hangs;
* every registered executor kind produces identical ``SystemRunResult``s.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.api.registry import EXECUTORS
from repro.api.session import Session
from repro.api.spec import DatasetSpec, ExecSpec, ExperimentSpec
from repro.cluster import (
    ClusterTaskError,
    FileWorkQueue,
    MultiHostExecutor,
    Worker,
    dispatch_specs,
    execute_task,
)
from repro.cluster.protocol import experiment_task, sequence_task
from repro.core.config import SystemConfig
from repro.core.pipeline import run_on_dataset
from repro.core.results import SequenceResult
from repro.engine.scheduler import SequenceExecutionError
from repro.harness.io import experiment_to_dict, run_to_dict

CONFIG = SystemConfig("catdet", "resnet50", "resnet10a")
DATASET = DatasetSpec("kitti", num_sequences=2, frames_per_sequence=15)


def tiny_spec(**system_changes):
    system = CONFIG if not system_changes else SystemConfig(
        "catdet", "resnet50", "resnet10a", **system_changes
    )
    return ExperimentSpec(system=system, dataset=DATASET)


def drain(queue, *, max_tasks, cache=True):
    """Run an inline worker until ``max_tasks`` tasks are processed."""
    worker = Worker(queue, cache_dir="auto" if cache else None,
                    heartbeat_interval=0.2)
    worker.run(max_tasks=max_tasks, poll_interval=0.02, idle_timeout=30)
    return worker


def background_worker(queue, *, max_tasks):
    thread = threading.Thread(
        target=lambda: drain(queue, max_tasks=max_tasks), daemon=True
    )
    thread.start()
    return thread


class TestFileWorkQueue:
    def make_task(self):
        return sequence_task(CONFIG, dataset=DATASET.to_dict(), index=0)

    def test_submit_then_claim_round_trip(self, tmp_path):
        queue = FileWorkQueue(tmp_path)
        task_id = queue.submit(self.make_task())
        lease = queue.claim("w1")
        assert lease is not None and lease.task_id == task_id
        assert lease.task["worker"] == "w1"
        assert queue.stats() == {"pending": 0, "leased": 1, "done": 0, "dead": 0}

    def test_exactly_one_claimer_wins(self, tmp_path):
        queue = FileWorkQueue(tmp_path)
        queue.submit(self.make_task())
        wins = []
        barrier = threading.Barrier(8)

        def contender(i):
            barrier.wait()
            lease = queue.claim(f"w{i}")
            if lease is not None:
                wins.append(lease)

        threads = [threading.Thread(target=contender, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1

    def test_heartbeat_prevents_recovery(self, tmp_path):
        queue = FileWorkQueue(tmp_path, lease_ttl=10)
        queue.submit(self.make_task())
        lease = queue.claim("w1")
        late = time.time() + 9
        assert lease.heartbeat()  # deadline moves to now + 10
        assert queue.recover_expired(now=late) == []

    def test_expired_lease_is_requeued_with_attempt_count(self, tmp_path):
        queue = FileWorkQueue(tmp_path, lease_ttl=10)
        task_id = queue.submit(self.make_task())
        queue.claim("w1")
        assert queue.recover_expired(now=time.time() + 11) == [task_id]
        lease = queue.claim("w2")
        assert lease.task_id == task_id
        assert lease.task["attempts"] == 1
        assert "lease expired" in lease.task["history"][0]

    def test_attempt_budget_exhaustion_dead_letters(self, tmp_path):
        queue = FileWorkQueue(tmp_path, lease_ttl=10, max_attempts=2)
        task_id = queue.submit(self.make_task())
        for _ in range(2):
            assert queue.claim("w1") is not None
            queue.recover_expired(now=time.time() + 11)
        assert queue.claim("w1") is None
        record = queue.dead_letter(task_id)
        assert record is not None and record["attempts"] == 2
        assert queue.stats()["dead"] == 1

    def test_complete_releases_lease_and_stores_result(self, tmp_path):
        queue = FileWorkQueue(tmp_path)
        task_id = queue.submit(self.make_task())
        lease = queue.claim("w1")
        lease.complete({"ok": True})
        assert queue.result(task_id) == {"ok": True}
        assert queue.stats() == {"pending": 0, "leased": 0, "done": 1, "dead": 0}

    def test_corrupt_lease_recovers_to_dead_letter(self, tmp_path):
        queue = FileWorkQueue(tmp_path, lease_ttl=10)
        task_id = queue.submit(self.make_task())
        lease = queue.claim("w1")
        lease.path.write_text("{ not json")
        assert queue.recover_expired(now=time.time() + 11) == [task_id]
        assert queue.dead_letter(task_id) is not None
        assert queue.stats()["leased"] == 0

    def test_finished_but_unreleased_lease_reconciles_as_done(self, tmp_path):
        queue = FileWorkQueue(tmp_path, lease_ttl=10)
        task_id = queue.submit(self.make_task())
        lease = queue.claim("w1")
        # Crash window: result written, lease never released.
        queue._write_json(queue.result_dir / f"{task_id}.json", {"ok": True})
        assert queue.recover_expired(now=time.time() + 11) == []
        assert not lease.path.exists()
        assert queue.result(task_id) == {"ok": True}


class TestWorkerExecution:
    def test_experiment_task_matches_serial_session(self, tmp_path):
        spec = tiny_spec()
        serial = Session().run(spec)
        queue = FileWorkQueue(tmp_path / "q")
        queue.submit(experiment_task(spec.to_dict(), spec.fingerprint))
        worker = drain(queue, max_tasks=1)
        assert worker.tasks_done == 1
        results = dispatch_specs(queue, [spec])
        assert experiment_to_dict(results[0]) == experiment_to_dict(serial)

    def test_cached_fingerprint_served_without_execution(self, tmp_path):
        spec = tiny_spec()
        queue = FileWorkQueue(tmp_path / "q")
        task = experiment_task(spec.to_dict(), spec.fingerprint)
        first = execute_task(task, cache_dir=tmp_path / "q" / "cache")
        second = execute_task(task, cache_dir=tmp_path / "q" / "cache")
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["payload"] == first["payload"]

    def test_use_cache_false_forces_recomputation(self, tmp_path):
        spec = tiny_spec()
        cache_dir = tmp_path / "q" / "cache"
        warm = experiment_task(spec.to_dict(), spec.fingerprint)
        execute_task(warm, cache_dir=cache_dir)
        forced = experiment_task(spec.to_dict(), spec.fingerprint, use_cache=False)
        envelope = execute_task(forced, cache_dir=cache_dir)
        assert envelope["cached"] is False

    def test_cached_grid_dispatch_needs_no_workers(self, tmp_path):
        spec = tiny_spec()
        queue = FileWorkQueue(tmp_path / "q")
        queue.submit(experiment_task(spec.to_dict(), spec.fingerprint))
        drain(queue, max_tasks=1)
        # No worker running now: the grid must resolve purely from cache.
        results = dispatch_specs(queue, [spec, spec], timeout=5)
        assert len(results) == 2 and results[0] is results[1]
        assert queue.stats()["pending"] == 0

    def test_failing_task_is_retried_then_dead_lettered(self, tmp_path):
        queue = FileWorkQueue(tmp_path / "q", max_attempts=2)
        broken = experiment_task(
            {"system": {"kind": "no-such-kind", "refinement_model": "resnet50"}},
            "0" * 64,
        )
        task_id = queue.submit(broken)
        worker = drain(queue, max_tasks=2)
        assert worker.tasks_failed == 2
        record = queue.dead_letter(task_id)
        assert record is not None
        assert "no-such-kind" in record["history"][-1]
        # A coordinator waiting on that shard surfaces the dead letter
        # instead of hanging.
        from repro.cluster.coordinator import _wait_for_results

        with pytest.raises(ClusterTaskError, match="dead-letter"):
            _wait_for_results(queue, [task_id], poll_interval=0.01, timeout=5)

    def test_sequence_task_inline_and_ref_agree(self, tmp_path, kitti_small):
        sequence = kitti_small.sequences[0]
        inline = sequence_task(CONFIG, sequence)
        ref = sequence_task(
            CONFIG,
            dataset=DatasetSpec("kitti", num_sequences=2,
                                frames_per_sequence=60).to_dict(),
            index=0,
        )
        a = execute_task(inline, cache_dir=None)
        b = execute_task(ref, cache_dir=None)
        assert a["payload"] == b["payload"]

    def test_frame_range_task_matches_serial_slice(self, kitti_small):
        """A frame-range shard equals the same frames of a serial run."""
        from repro.harness.io import sequence_result_from_dict

        sequence = kitti_small.sequences[0]
        config = SystemConfig("cascade", "resnet50", "resnet10a")
        task = sequence_task(config, sequence, frame_range=(10, 20))
        envelope = execute_task(task, cache_dir=None)
        chunk = sequence_result_from_dict(envelope["payload"]["sequence"])
        serial = run_on_dataset(config, kitti_small, workers=1)
        reference = serial.sequences[sequence.name].frames[10:20]
        assert [fr.frame for fr in chunk.frames] == list(range(10, 20))
        for fa, fb in zip(chunk.frames, reference):
            assert fa.frame == fb.frame
            assert fa.ops.total == fb.ops.total
            assert (fa.detections.boxes == fb.detections.boxes).all()
            assert (fa.detections.scores == fb.detections.scores).all()

    def test_frame_range_changes_fingerprint(self, kitti_small):
        """Partial and full shards must never alias in the shared store."""
        sequence = kitti_small.sequences[0]
        config = SystemConfig("cascade", "resnet50", "resnet10a")
        full = sequence_task(config, sequence)
        first_half = sequence_task(config, sequence, frame_range=(0, 30))
        second_half = sequence_task(config, sequence, frame_range=(30, 60))
        fingerprints = {
            full["fingerprint"],
            first_half["fingerprint"],
            second_half["fingerprint"],
        }
        assert len(fingerprints) == 3
        with pytest.raises(ValueError, match="frame_range"):
            sequence_task(config, sequence, frame_range=(5, 5))

    def test_frame_range_causal_guard_on_worker(self, kitti_small):
        """A mid-sequence range for a tracker system fails execution
        (recorded as a task failure, never a silently-wrong result)."""
        sequence = kitti_small.sequences[0]
        task = sequence_task(CONFIG, sequence, frame_range=(5, 10))
        with pytest.raises(ValueError, match="cross-frame feedback"):
            execute_task(task, cache_dir=None)


def stuck_worker_script(queue_dir):
    """A worker that claims a shard, heartbeats, and never finishes."""
    return f"""
import sys, time
from repro.cluster.queue import FileWorkQueue

queue = FileWorkQueue({str(queue_dir)!r})
lease = None
while lease is None:
    lease = queue.claim("stuck")
    time.sleep(0.02)
print("CLAIMED", flush=True)
while True:
    time.sleep(0.1)
    lease.heartbeat()
"""


class TestFaultTolerance:
    def test_sigkilled_worker_mid_lease_releases_and_run_is_byte_identical(
        self, tmp_path
    ):
        dataset = Session().dataset(DATASET)
        serial = run_on_dataset(CONFIG, dataset)

        queue = FileWorkQueue(tmp_path / "q", lease_ttl=5)
        executor = MultiHostExecutor(
            tmp_path / "q", lease_ttl=5, poll_interval=0.05, timeout=60
        )
        # A stuck worker grabs the first shard and is SIGKILL'd mid-lease.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ["src", env.get("PYTHONPATH", "")] if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", stuck_worker_script(queue.root)],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            done = {}

            def run_multihost():
                done["run"] = run_on_dataset(CONFIG, dataset, executor=executor)

            coordinator = threading.Thread(target=run_multihost, daemon=True)
            coordinator.start()
            # The stuck worker must own its shard before the healthy worker
            # starts, or the healthy one could drain the whole queue first.
            assert proc.stdout.readline().strip() == "CLAIMED"
            healthy = background_worker(queue, max_tasks=len(dataset.sequences))
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            # Age the dead worker's lease past its TTL so the coordinator's
            # straggler sweep re-leases it instead of waiting out real time.
            deadline = time.time() + 30
            while time.time() < deadline and "run" not in done:
                for lease_path in queue.lease_dir.glob("*.json"):
                    try:  # the coordinator may release it after the glob
                        stat = lease_path.stat()
                        os.utime(lease_path, (stat.st_atime, stat.st_mtime - 6))
                    except FileNotFoundError:
                        continue
                time.sleep(0.05)
            coordinator.join(timeout=60)
            healthy.join(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert "run" in done, "multihost run never completed after the kill"
        assert run_to_dict(done["run"]) == run_to_dict(serial)

    def test_relisted_task_counts_the_dead_workers_attempt(self, tmp_path):
        queue = FileWorkQueue(tmp_path / "q", lease_ttl=10)
        task_id = queue.submit(
            sequence_task(CONFIG, dataset=DATASET.to_dict(), index=1)
        )
        queue.claim("doomed")
        queue.recover_expired(now=time.time() + 11)
        drain(queue, max_tasks=1)
        envelope = queue.result(task_id)
        assert envelope is not None and envelope["kind"] == "sequence"
        # The re-executed shard matches a direct serial execution.
        dataset = Session().dataset(DATASET)
        direct = run_on_dataset(CONFIG, dataset).sequences[dataset.sequences[1].name]
        from repro.harness.io import sequence_result_from_dict, sequence_result_to_dict

        rebuilt = sequence_result_from_dict(envelope["payload"]["sequence"])
        assert sequence_result_to_dict(rebuilt) == sequence_result_to_dict(direct)


class TestClusterObservability:
    def test_queue_metrics_count_transitions(self, tmp_path):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        queue = FileWorkQueue(tmp_path / "q", lease_ttl=10, metrics=reg)
        task_id = queue.submit(
            sequence_task(CONFIG, dataset=DATASET.to_dict(), index=0)
        )
        queue.submit(sequence_task(CONFIG, dataset=DATASET.to_dict(), index=1))
        lease = queue.claim("w1")
        assert lease.task_id == task_id
        lease.complete({"ok": True})
        tasks = reg.get("cluster_tasks_total")
        assert tasks.value(("submitted",)) == 2
        assert tasks.value(("claimed",)) == 1
        assert tasks.value(("completed",)) == 1
        # stats() refreshes the depth gauges as a side effect.
        queue.stats()
        depth = reg.get("cluster_queue_depth")
        assert depth.value(("pending",)) == 1
        assert depth.value(("done",)) == 1

    def test_expired_lease_increments_retry_and_dead_letter_counters(
        self, tmp_path
    ):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        queue = FileWorkQueue(
            tmp_path / "q", lease_ttl=10, max_attempts=2, metrics=reg
        )
        queue.submit(sequence_task(CONFIG, dataset=DATASET.to_dict(), index=0))
        for _ in range(2):
            queue.claim("doomed")
            queue.recover_expired(now=time.time() + 11)
        tasks = reg.get("cluster_tasks_total")
        assert tasks.value(("lease_expired",)) == 2
        assert tasks.value(("retried",)) == 1
        assert tasks.value(("dead_lettered",)) == 1

    def test_lease_lost_without_sigkill_is_counted_and_structured(
        self, tmp_path, monkeypatch
    ):
        """The lease-lost path emits a counter, an event, and a sink record.

        No SIGKILL involved: an observer expires the lease while the
        worker keeps executing (the slow-shard/short-TTL scenario), and
        the loss must surface as telemetry instead of a silent envelope
        flag.
        """
        from repro.cluster import worker as worker_mod
        from repro.obs import MetricsRegistry, Sink

        class ListSink(Sink):
            def __init__(self):
                self.records = []

            def emit(self, record):
                self.records.append(record)

        queue = FileWorkQueue(tmp_path / "q", lease_ttl=1.0)
        task_id = queue.submit(
            sequence_task(CONFIG, dataset=DATASET.to_dict(), index=0)
        )
        reg = MetricsRegistry()
        sink = ListSink()
        worker = Worker(
            queue, cache_dir=None, heartbeat_interval=0.05,
            metrics=reg, sinks=sink, health=None,
        )
        real_execute = worker_mod.execute_task

        def expire_then_execute(task, **kwargs):
            # Observer's view: the lease aged out; re-queue it while the
            # original worker is still mid-execution...
            assert queue.recover_expired(now=time.time() + 2.0) == [task_id]
            # ...and outlive a few heartbeat periods so the renewal
            # thread notices the lease file is gone.
            time.sleep(0.3)
            return real_execute(task, **kwargs)

        monkeypatch.setattr(worker_mod, "execute_task", expire_then_execute)
        assert worker.run_one()
        assert worker.tasks_done == 1
        assert worker.leases_lost == 1
        (event,) = worker.lease_lost_events
        assert event["task_id"] == task_id
        assert event["attempt"] == 1
        assert event["elapsed_seconds"] > 0
        assert event["worker"] == worker.worker_id
        assert reg.get("worker_leases_lost_total").value() == 1
        lost = [r for r in sink.records if r["record"] == "worker.lease_lost"]
        assert len(lost) == 1 and lost[0]["task_id"] == task_id

    def test_worker_health_file_lifecycle(self, tmp_path):
        from repro.obs import health_dir, read_health

        queue = FileWorkQueue(tmp_path / "q")
        queue.submit(sequence_task(CONFIG, dataset=DATASET.to_dict(), index=0))
        worker = Worker(queue, cache_dir=None, heartbeat_interval=0.2)
        seen = {}

        def on_task(processed):
            seen["records"] = read_health(health_dir(queue.root))

        worker.run(max_tasks=1, poll_interval=0.02, idle_timeout=30,
                   on_task=on_task)
        (record,) = seen["records"]
        assert record["component"] == "worker"
        assert record["id"] == worker.worker_id
        # Clean shutdown removes the snapshot: nothing left to go stale.
        assert read_health(health_dir(queue.root)) == []


class TestExecutorParity:
    def test_every_registered_executor_kind_is_byte_identical(self, tmp_path):
        dataset = Session().dataset(DATASET)
        baseline = run_to_dict(
            run_on_dataset(CONFIG, dataset, executor=EXECUTORS.get("serial")(1))
        )
        kinds = EXECUTORS.names()
        assert set(kinds) == {"auto", "serial", "multihost"}
        for kind in kinds:
            if kind == "multihost":
                queue = FileWorkQueue(tmp_path / "q")
                background_worker(queue, max_tasks=len(dataset.sequences))
                executor = EXECUTORS.get(kind)(0, queue_dir=str(tmp_path / "q"))
                executor.poll_interval = 0.05
                executor.timeout = 120
            elif kind == "serial":
                executor = EXECUTORS.get(kind)(1)
            else:
                executor = EXECUTORS.get(kind)(2)
            run = run_on_dataset(CONFIG, dataset, executor=executor)
            assert run_to_dict(run) == baseline, f"{kind} diverged from serial"


class FailingSystem:
    """Picklable stand-in system that dies on one specific sequence."""

    name = "failing"

    def __init__(self, poison):
        self.poison = poison

    def reset(self):
        pass

    def process_sequence(self, sequence):
        if sequence.name == self.poison:
            raise ValueError(f"poisoned sequence {sequence.name}")
        return SequenceResult(sequence_name=sequence.name, frames=[])


class TestFailFastParallelExecutor:
    def test_first_exception_cancels_and_names_the_sequence(self, kitti_small):
        from repro.engine.scheduler import ParallelExecutor

        poison = kitti_small.sequences[0].name
        executor = ParallelExecutor(2)
        with pytest.raises(SequenceExecutionError, match=poison) as excinfo:
            executor.map_sequences(FailingSystem(poison), kitti_small.sequences)
        assert excinfo.value.sequence_name == poison
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_progress_callback_fires_per_sequence(self, kitti_small):
        from repro.engine.scheduler import ParallelExecutor, SerialExecutor

        for executor in (SerialExecutor(), ParallelExecutor(2)):
            seen = []
            executor.map_sequences(
                FailingSystem(poison="<none>"),
                kitti_small.sequences,
                on_progress=lambda done, total, name: seen.append((done, total, name)),
            )
            assert [d for d, _, _ in seen] == [1, 2]
            assert all(total == 2 for _, total, _ in seen)
            assert {name for _, _, name in seen} == {
                s.name for s in kitti_small.sequences
            }


class TestExecSpecQueueDir:
    def test_round_trip_and_fingerprint_stability(self, tmp_path):
        spec = tiny_spec()
        routed = ExperimentSpec(
            system=spec.system,
            dataset=spec.dataset,
            exec=ExecSpec(executor="multihost", queue_dir=str(tmp_path)),
        )
        assert ExperimentSpec.from_json(routed.to_json()) == routed
        # The execution plan must never move the content address.
        assert routed.fingerprint == spec.fingerprint

    def test_local_executors_ignore_a_leftover_queue_dir(self, tmp_path):
        # Editing a dispatched grid's executor back to a local kind must
        # not trip over the queue_dir the multihost plan left behind.
        spec = ExperimentSpec(
            system=CONFIG,
            dataset=DatasetSpec("kitti", num_sequences=1, frames_per_sequence=10),
            exec=ExecSpec(executor="serial", queue_dir=str(tmp_path)),
        )
        result = Session().run(spec)
        assert result.ops_gops > 0

    def test_multihost_without_queue_dir_is_an_error(self, monkeypatch):
        monkeypatch.delenv("REPRO_QUEUE_DIR", raising=False)
        with pytest.raises(ValueError, match="queue directory"):
            EXECUTORS.get("multihost")(0)

    def test_queue_dir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_QUEUE_DIR", str(tmp_path))
        executor = EXECUTORS.get("multihost")(0)
        assert executor.queue.root == tmp_path
