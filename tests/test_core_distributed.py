"""Tests for the socket-RPC work-queue backend (coordinator + workers).

The parity oracle: QueueBackend results must be bit-identical to
SerialBackend regardless of worker count, scheduling, or injected worker
deaths (per-candidate seeds make each evaluation order-independent).
"""

import socket
import threading
import time
from pathlib import Path

import pytest

from repro.core import distributed
from repro.core.distributed import (
    QueueBackend,
    recv_frame,
    send_frame,
    serve_worker,
)
from repro.core.evaluator import CandidateEvaluator
from repro.core.execution import (
    EvaluationContext,
    EvaluationTask,
    ExecutionError,
    SerialBackend,
    derive_candidate_seed,
)
from repro.core.invariance import canonical_key
from repro.core.search_space import enumerate_f4_structures
from repro.core.store import EvaluationStore
from repro.utils.config import TrainingConfig


@pytest.fixture(scope="module")
def queue_training_config():
    return TrainingConfig(dimension=8, epochs=2, batch_size=64, learning_rate=0.5, seed=0)


def _tasks(count, base_seed=0):
    structures = list(enumerate_f4_structures())[:count]
    return [
        EvaluationTask(structure=s, seed=derive_candidate_seed(base_seed, canonical_key(s)))
        for s in structures
    ]


def _free_port():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def _fast_queue(**overrides):
    options = dict(
        num_workers=2,
        heartbeat_interval=0.1,
        heartbeat_timeout=2.0,
        worker_timeout=20.0,
    )
    options.update(overrides)
    return QueueBackend(**options)


def _assert_bit_identical(serial, queued):
    assert len(serial) == len(queued)
    for a, b in zip(serial, queued):
        assert b is not None
        assert a.structure.key() == b.structure.key()
        assert a.validation_mrr == b.validation_mrr  # bitwise
        assert a.training_history.losses == b.training_history.losses


class TestFraming:
    def test_round_trip(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, {"type": "hello", "payload": list(range(10))})
            message = recv_frame(right)
            assert message == {"type": "hello", "payload": list(range(10))}
        finally:
            left.close()
            right.close()

    def test_clean_eof_returns_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert recv_frame(right) is None
        finally:
            right.close()

    def test_oversized_frame_rejected(self):
        import struct

        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack("!I", (1 << 30) + 1))
            with pytest.raises(ExecutionError, match="exceeds"):
                recv_frame(right)
        finally:
            left.close()
            right.close()


class TestConstructorValidation:
    def test_negative_workers(self):
        with pytest.raises(ValueError, match="num_workers"):
            QueueBackend(num_workers=-1)

    def test_zero_workers_allowed(self):
        assert QueueBackend(num_workers=0).num_workers == 0

    def test_bad_heartbeat(self):
        with pytest.raises(ValueError, match="heartbeat_interval"):
            QueueBackend(heartbeat_interval=0)
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            QueueBackend(heartbeat_interval=1.0, heartbeat_timeout=0.5)

    def test_bad_worker_timeout(self):
        with pytest.raises(ValueError, match="worker_timeout"):
            QueueBackend(worker_timeout=0)

    def test_bad_max_retries(self):
        with pytest.raises(ValueError, match="max_retries"):
            QueueBackend(max_retries=-1)

    def test_connect_host_maps_bind_any_to_loopback(self):
        assert QueueBackend(host="0.0.0.0").connect_host == "127.0.0.1"
        assert QueueBackend(host="").connect_host == "127.0.0.1"
        assert QueueBackend(host="10.1.2.3").connect_host == "10.1.2.3"


class TestQueueParity:
    def test_bit_identical_to_serial(self, tiny_graph, queue_training_config):
        tasks = _tasks(5)
        context = EvaluationContext(tiny_graph, queue_training_config)
        serial = SerialBackend().run(context, tasks)
        queued = _fast_queue(num_workers=2).run(context, tasks)
        _assert_bit_identical(serial, queued)

    def test_empty_batch(self, tiny_graph, queue_training_config):
        context = EvaluationContext(tiny_graph, queue_training_config)
        assert _fast_queue().run(context, []) == []

    def test_on_result_streams_each_task_once(self, tiny_graph, queue_training_config):
        tasks = _tasks(4)
        context = EvaluationContext(tiny_graph, queue_training_config)
        seen = []
        outcomes = _fast_queue(num_workers=2).run(
            context, tasks, on_result=lambda index, outcome: seen.append(index)
        )
        assert sorted(seen) == [0, 1, 2, 3]  # arrival order varies, coverage doesn't
        assert len(outcomes) == 4

    def test_on_result_failure_propagates(self, tiny_graph, queue_training_config):
        tasks = _tasks(3)
        context = EvaluationContext(tiny_graph, queue_training_config)

        def explode(index, outcome):
            raise ValueError("checkpoint write failed")

        with pytest.raises(ValueError, match="checkpoint write failed"):
            _fast_queue(num_workers=2).run(context, tasks, on_result=explode)

    def test_evaluate_many_with_store_checkpoints(
        self, tiny_graph, queue_training_config, tmp_path
    ):
        structures = list(enumerate_f4_structures())[:4]
        store = EvaluationStore(tmp_path)
        evaluator = CandidateEvaluator(
            tiny_graph, queue_training_config, store=store, base_seed=0
        )
        results = evaluator.evaluate_many(structures, backend=_fast_queue(num_workers=2))
        assert len(results) == 4
        assert len(store) == 4  # every outcome checkpointed as it streamed in

        healthy = CandidateEvaluator(tiny_graph, queue_training_config, base_seed=0)
        expected = healthy.evaluate_many(structures)
        for a, b in zip(expected, results):
            assert a.validation_mrr == b.validation_mrr


class TestFaultTolerance:
    def test_parity_under_mid_batch_worker_kill(self, tiny_graph, queue_training_config):
        """A worker dies holding a task; the batch still matches serial."""
        tasks = _tasks(5)
        context = EvaluationContext(tiny_graph, queue_training_config)
        serial = SerialBackend().run(context, tasks)
        backend = _fast_queue(num_workers=2, _kill_after_tasks={0: 1})
        queued = backend.run(context, tasks)
        _assert_bit_identical(serial, queued)

    def test_worker_vanishing_before_accepting_is_tolerated(
        self, tiny_graph, queue_training_config
    ):
        """A connection that handshakes then drops must not stall the batch."""
        port = _free_port()
        tasks = _tasks(3)
        context = EvaluationContext(tiny_graph, queue_training_config)

        def flaky_worker():
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    sock = socket.create_connection(("127.0.0.1", port), timeout=0.2)
                except OSError:
                    time.sleep(0.05)
                    continue
                try:
                    send_frame(sock, {"type": "hello", "pid": 0, "host": "fake"})
                    recv_frame(sock)  # welcome (context)
                finally:
                    sock.close()  # vanish without ever sending "ready"
                return

        thread = threading.Thread(target=flaky_worker, daemon=True)
        thread.start()
        backend = _fast_queue(num_workers=1, port=port)
        serial = SerialBackend().run(context, tasks)
        queued = backend.run(context, tasks)
        thread.join(timeout=5.0)
        _assert_bit_identical(serial, queued)

    def test_no_workers_times_out_with_candidate_names(
        self, tiny_graph, queue_training_config
    ):
        tasks = _tasks(2)
        context = EvaluationContext(tiny_graph, queue_training_config)
        backend = _fast_queue(num_workers=0, worker_timeout=0.5)
        start = time.monotonic()
        with pytest.raises(ExecutionError, match="no workers available") as excinfo:
            backend.run(context, tasks)
        assert time.monotonic() - start < 10.0  # fails, does not hang
        message = str(excinfo.value)
        for task in tasks:
            assert repr(task.structure.name or task.structure.blocks) in message

    def test_retry_exhaustion_names_the_candidate(self, tiny_graph, queue_training_config):
        """Every worker dies on its first task and retries are disabled."""
        tasks = _tasks(2)
        context = EvaluationContext(tiny_graph, queue_training_config)
        backend = _fast_queue(
            num_workers=1,
            max_retries=0,
            _kill_after_tasks={0: 0},
            worker_timeout=5.0,
        )
        with pytest.raises(ExecutionError, match="retry budget"):
            backend.run(context, tasks)

    def test_evaluate_many_recovers_via_serial_retry(
        self, tiny_graph, queue_training_config
    ):
        """Even an exhausted queue batch is retried serially by the evaluator."""
        structures = list(enumerate_f4_structures())[:2]
        healthy = CandidateEvaluator(tiny_graph, queue_training_config, base_seed=0)
        expected = healthy.evaluate_many(structures)

        evaluator = CandidateEvaluator(tiny_graph, queue_training_config, base_seed=0)
        flaky = _fast_queue(num_workers=2, _kill_after_tasks={0: 1, 1: 1})
        recovered = evaluator.evaluate_many(structures, backend=flaky)
        for a, b in zip(expected, recovered):
            assert a.validation_mrr == b.validation_mrr


class TestExternalWorkers:
    def test_external_worker_only_fleet(self, tiny_graph, queue_training_config):
        """num_workers=0 + a serve_worker loop, as a remote host would run."""
        port = _free_port()
        tasks = _tasks(3)
        context = EvaluationContext(tiny_graph, queue_training_config)
        completed = {}

        def external():
            completed["tasks"] = serve_worker(
                "127.0.0.1", port, reconnect_interval=0.05, max_idle=1.0
            )

        thread = threading.Thread(target=external, daemon=True)
        thread.start()
        backend = _fast_queue(num_workers=0, port=port, worker_timeout=15.0)
        serial = SerialBackend().run(context, tasks)
        queued = backend.run(context, tasks)
        thread.join(timeout=15.0)
        assert not thread.is_alive()
        _assert_bit_identical(serial, queued)
        assert completed["tasks"] == 3


def _write_marker(path):
    Path(path).write_text("code ran in the coordinator", encoding="utf-8")
    return {"type": "hello", "pid": 0, "host": "intruder"}


class _MarkerHello:
    """A frame whose unpickling runs ``_write_marker`` in the reader."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (_write_marker, (self.path,))


class TestPrivateBatch:
    def test_peer_without_secret_closed_before_unpickling(
        self, tiny_graph, queue_training_config, tmp_path, monkeypatch
    ):
        """A local peer that finds a port-0 batch's port cannot get its
        first frame unpickled: it lacks the secret the coordinator handed
        only to the workers it started."""
        marker = tmp_path / "marker"
        tasks = _tasks(3)
        context = EvaluationContext(tiny_graph, queue_training_config)
        serial = SerialBackend().run(context, tasks)
        replies = []

        def intrude(port):
            with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
                send_frame(sock, _MarkerHello(marker))
                try:
                    replies.append(sock.recv(1))  # b"" once the coordinator closes
                except ConnectionResetError:
                    replies.append(b"")

        intruders = []
        real_spawn = distributed._Coordinator._spawn_local_workers

        def spawn_then_intrude(coordinator, initial):
            real_spawn(coordinator, initial)
            if initial:
                thread = threading.Thread(target=intrude, args=(coordinator.port,))
                thread.start()
                intruders.append(thread)

        monkeypatch.setattr(
            distributed._Coordinator, "_spawn_local_workers", spawn_then_intrude
        )
        queued = _fast_queue(num_workers=2).run(context, tasks)
        for thread in intruders:
            thread.join(timeout=10.0)
        assert replies == [b""]
        assert not marker.exists()
        _assert_bit_identical(serial, queued)


@pytest.mark.slow  # tier 2: repeated batches with randomized worker deaths
class TestRandomizedFaults:
    def test_parity_under_randomized_worker_deaths(
        self, tiny_graph, queue_training_config, rng
    ):
        tasks = _tasks(6)
        context = EvaluationContext(tiny_graph, queue_training_config)
        serial = SerialBackend().run(context, tasks)
        for _ in range(3):
            kills = {
                worker: int(rng.integers(0, 3))
                for worker in range(2)
                if rng.random() < 0.75
            }
            backend = _fast_queue(num_workers=2, _kill_after_tasks=kills, max_retries=4)
            queued = backend.run(context, tasks)
            _assert_bit_identical(serial, queued)
