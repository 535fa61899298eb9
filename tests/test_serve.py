"""Sharded serving layer: snapshots, worker pool, dynamic batcher, parity.

The parity tests are the acceptance criterion of the serving subsystem:
``Server.predict`` over 2 workers must match ``BatchedPredictor.predict``
**bit-for-bit** — including after an online ``learn_class`` — so sharding is
a pure throughput decision, never an accuracy one.  A module-scoped
two-worker server is shared across tests to amortise process startup; this
doubles as the CI smoke scenario (2-worker end-to-end predict + learn).
"""

import os
import pickle
import signal
import threading
import time

import numpy as np
import pytest

from repro import nn
from repro.core import OFSCIL, OFSCILConfig
from repro.models.mobilenetv2 import ConvBNReLU
from repro.nn.tensor import Tensor
from repro.runtime import InferenceEngine, compile_module
from repro.serve import (
    EngineClosedError,
    PlanSerializationError,
    RemoteWorkerError,
    Server,
    ServerClosedError,
    ServerOverloaded,
    ShardedEngine,
    snapshot_model,
    snapshot_plan,
    snapshot_prototypes,
)

BACKBONE = "mobilenetv2_x4_tiny"
BASE_CLASSES = 6
SHOTS_PER_CLASS = 5
IMAGE_SHAPE = (3, 16, 16)


def make_learned_model(seed: int = 0):
    """A frozen model with BASE_CLASSES learned from deterministic shots."""
    model = OFSCIL.from_registry(BACKBONE, OFSCILConfig(backbone=BACKBONE),
                                 seed=seed)
    model.freeze_feature_extractor()
    rng = np.random.default_rng(42)
    shots = rng.standard_normal(
        (BASE_CLASSES * SHOTS_PER_CLASS, *IMAGE_SHAPE)).astype(np.float32)
    for class_id in range(BASE_CLASSES):
        start = class_id * SHOTS_PER_CLASS
        model.learn_class(shots[start:start + SHOTS_PER_CLASS], class_id)
    return model, shots


@pytest.fixture(scope="module")
def served():
    """(model, 2-worker server, shots) shared by the serving tests."""
    model, shots = make_learned_model()
    server = Server(model, num_workers=2, max_latency_s=0.05)
    yield model, server, shots
    server.close()


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(7)
    # Deliberately not a multiple of the micro-batch: the ragged tail chunk
    # must not perturb bit-for-bit parity.
    return rng.standard_normal((150, *IMAGE_SHAPE)).astype(np.float32)


# ---------------------------------------------------------------------------
# Plan / model snapshots (no processes involved)
# ---------------------------------------------------------------------------
class _Unlowerable(nn.Module):
    """A module type the plan compiler has no lowering rule for."""

    def forward(self, x):
        return x * 2.0


class TestPlanSnapshot:
    def test_snapshot_freezes_linear_and_survives_pickle(self, rng):
        net = nn.Sequential(ConvBNReLU(3, 8, rng=rng), nn.GlobalAvgPool2d(),
                            nn.Linear(8, 4, rng=rng))
        net.eval()
        plan = compile_module(net)
        snapshot = pickle.loads(pickle.dumps(snapshot_plan(plan)))
        assert all(step.module is None for step in snapshot.steps)
        linear_steps = [s for s in snapshot.steps if s.op == "linear"]
        assert linear_steps and "weight" in linear_steps[0].arrays
        x = rng.standard_normal((5, 3, 12, 12)).astype(np.float32)
        np.testing.assert_array_equal(snapshot.restore().execute(x),
                                      plan.execute(x))

    def test_frozen_linear_ignores_later_finetuning(self, rng):
        net = nn.Linear(6, 3, rng=rng)
        plan = compile_module(net)
        snapshot = snapshot_plan(plan)
        x = rng.standard_normal((4, 6)).astype(np.float32)
        before = snapshot.restore().execute(x)
        net.weight.data = net.weight.data * 2.0
        np.testing.assert_array_equal(snapshot.restore().execute(x), before)
        assert not np.array_equal(plan.execute(x), before)  # live plan moved

    def test_hooked_module_raises_serialization_error(self, rng):
        net = nn.Sequential(ConvBNReLU(3, 4, rng=rng), nn.GlobalAvgPool2d())
        net.eval()
        net[0].act.register_forward_hook(lambda module, out: out * 2.0)
        plan = compile_module(net)
        with pytest.raises(PlanSerializationError, match="hooks"):
            snapshot_plan(plan)

    def test_hook_removed_after_compile_inlines_opaque_step(self, rng):
        net = nn.Sequential(ConvBNReLU(3, 4, rng=rng), nn.GlobalAvgPool2d())
        net.eval()
        net[0].act.register_forward_hook(lambda module, out: out)
        plan = compile_module(net)           # hook forces an opaque step
        assert any(step.op == "opaque" for step in plan.steps)
        net[0].act.clear_forward_hooks()
        snapshot = snapshot_plan(plan)       # recompiles + inlines it
        assert all(step.op != "opaque" for step in snapshot.steps)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        with nn.no_grad():
            expected = net(Tensor(x)).data
        engine = InferenceEngine(snapshot.restore())
        assert np.allclose(engine.run(x), expected, atol=1e-5)

    def test_unknown_module_raises_serialization_error(self, rng):
        net = nn.Sequential(_Unlowerable(), nn.GlobalAvgPool2d())
        plan = compile_module(net)
        with pytest.raises(PlanSerializationError, match="no.*compiled"):
            snapshot_plan(plan)


class TestModelSnapshot:
    def test_model_snapshot_roundtrip(self):
        model, _ = make_learned_model(seed=1)
        snapshot = pickle.loads(pickle.dumps(snapshot_model(model)))
        assert snapshot.backbone_name == BACKBONE
        assert snapshot.prototypes.num_classes == BASE_CLASSES
        assert snapshot.prototypes.version == model.memory.version
        assert len(snapshot.backbone) > 0 and len(snapshot.fcr) > 0

    def test_prototype_state_matches_predictor_cache(self):
        model, _ = make_learned_model(seed=1)
        state = snapshot_prototypes(model.memory)
        matrix, ids = model.runtime_predictor().prototypes()
        np.testing.assert_array_equal(state.matrix_normed, matrix)
        np.testing.assert_array_equal(state.ids, ids)

    def test_prototype_state_selection(self):
        model, _ = make_learned_model(seed=1)
        state = snapshot_prototypes(model.memory)
        matrix, ids = state.select([3, 1])
        np.testing.assert_array_equal(ids, [3, 1])
        np.testing.assert_array_equal(matrix, state.matrix_normed[[3, 1]])
        with pytest.raises(KeyError):
            state.select([99])

    def test_empty_memory_snapshot(self):
        memory_model = OFSCIL.from_registry(
            BACKBONE, OFSCILConfig(backbone=BACKBONE), seed=2)
        state = snapshot_prototypes(memory_model.memory)
        assert state.num_classes == 0
        assert state.matrix_normed.shape == (0, memory_model.prototype_dim)


# ---------------------------------------------------------------------------
# Sharded engine + server (2 spawned workers, module-scoped)
# ---------------------------------------------------------------------------
class TestShardedEngine:
    def test_scatter_backbone_features_bitwise(self, served, queries):
        model, server, _ = served
        scattered = server.extract_backbone_features(queries)
        local = model.runtime_predictor().extract_backbone_features(queries)
        np.testing.assert_array_equal(scattered, local)

    def test_worker_stats_one_record_per_worker(self, served):
        _, server, _ = served
        stats = server.worker_stats()
        assert sorted(record["worker_id"] for record in stats) == [0, 1]
        assert all(record["plan_steps"] > 0 for record in stats)
        # Replicas run the memory-planned executor: once a worker has served
        # a second batch (the first records shapes), its arena footprint
        # shows in the stats surface.
        served_workers = [record for record in stats
                          if record["samples_run"] > 0]
        assert served_workers
        assert all(record["arena_slots"] > 0
                   and record["arena_peak_bytes"] > 0
                   and record["cache_bytes"] > 0
                   for record in served_workers)
        report = server.stats_dict()
        assert report["cache_bytes"] == sum(record["cache_bytes"]
                                            for record in stats)
        assert "arena_peak_bytes" in report

    def test_worker_error_is_reraised_and_loop_survives(self, served):
        _, server, _ = served
        bad = np.zeros((2, 5, 16, 16), dtype=np.float32)  # wrong channels
        future = server.engine.submit("backbone", bad)
        with pytest.raises(RemoteWorkerError, match="ValueError"):
            future.result(timeout=60)
        # The worker loop survives an error and keeps serving.
        good = np.zeros((2, *IMAGE_SHAPE), dtype=np.float32)
        assert server.engine.submit("backbone", good).result(timeout=60) \
            .shape[0] == 2

    def test_unknown_kind_is_an_error(self, served):
        _, server, _ = served
        with pytest.raises(RemoteWorkerError, match="unknown work item"):
            server.engine.submit("frobnicate").result(timeout=60)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs CPU affinity and at least two CPUs")
    def test_workers_are_placed_on_distinct_cpus(self, served):
        _, server, _ = served
        cpus = sorted(os.sched_getaffinity(0))
        masks = [os.sched_getaffinity(pid)
                 for pid in server.engine.worker_pids]
        assert masks == [{cpus[0]}, {cpus[1]}]
        # Placed workers also run below the coordinator's priority.
        niceness = min(19, os.getpriority(os.PRIO_PROCESS, 0) + 10)
        assert [os.getpriority(os.PRIO_PROCESS, pid)
                for pid in server.engine.worker_pids] == [niceness] * 2

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="needs CPU affinity")
    def test_unpinned_worker_keeps_the_coordinator_placement(self):
        model, _ = make_learned_model(seed=8)
        engine = ShardedEngine(snapshot_model(model, micro_batch=8),
                               num_workers=1, pin_workers=False)
        try:
            pid = engine.worker_pids[0]
            assert os.sched_getaffinity(pid) == os.sched_getaffinity(0)
            assert os.getpriority(os.PRIO_PROCESS, pid) \
                == os.getpriority(os.PRIO_PROCESS, 0)
        finally:
            engine.close()


class TestServerParity:
    def test_predict_bit_for_bit(self, served, queries):
        model, server, _ = served
        np.testing.assert_array_equal(
            server.predict(queries), model.runtime_predictor().predict(queries))

    def test_similarities_bit_for_bit(self, served, queries):
        model, server, _ = served
        sims, ids = server.similarities(queries)
        ref_sims, ref_ids = model.runtime_predictor().similarities(queries)
        np.testing.assert_array_equal(sims, ref_sims)
        np.testing.assert_array_equal(ids, ref_ids)

    def test_class_id_restriction_bit_for_bit(self, served, queries):
        model, server, _ = served
        allowed = [0, 2, 5]
        np.testing.assert_array_equal(
            server.predict(queries[:40], class_ids=allowed),
            model.runtime_predictor().predict(queries[:40], class_ids=allowed))

    def test_learn_class_parity_and_broadcast(self, served, queries):
        model, server, shots = served
        rng = np.random.default_rng(99)
        new_shots = rng.standard_normal(
            (SHOTS_PER_CLASS, *IMAGE_SHAPE)).astype(np.float32)
        served_prototype = server.learn_class(new_shots, BASE_CLASSES)

        # A twin model learning the same classes through the single-process
        # path must end up with bit-identical prototypes.
        twin, _ = make_learned_model()
        twin_prototype = twin.learn_class(new_shots, BASE_CLASSES)
        np.testing.assert_array_equal(served_prototype, twin_prototype)

        # Serving stays bit-for-bit after the online update...
        np.testing.assert_array_equal(
            server.predict(queries), model.runtime_predictor().predict(queries))
        # ...and every worker replica acked the new memory version.
        versions = [record["prototype_version"]
                    for record in server.worker_stats()]
        assert versions == [model.memory.version] * server.num_workers
        assert all(record["prototype_classes"] == BASE_CLASSES + 1
                   for record in server.worker_stats())

    def test_learn_racing_a_submit_sync_reaches_every_worker(self):
        # A submit's sync_prototypes reads the prototype matrix, then
        # learn_class's update_class lands before the snapshot reads the
        # version.  The old matrix must not ship under the new version, or
        # learn_class's own sync would see nothing left to send.
        model, shots = make_learned_model(seed=5)
        server = Server(model, num_workers=2, max_latency_s=0.01)
        memory = model.memory
        rng = np.random.default_rng(11)
        new_class = BASE_CLASSES
        new_shots = rng.standard_normal(
            (SHOTS_PER_CLASS, *IMAGE_SHAPE)).astype(np.float32)
        # A class stored without a broadcast yet: the memory is one version
        # ahead of the workers, so the next submit syncs.
        memory.update_class(BASE_CLASSES + 1, server.embed(shots[:2]))
        matrix_read, class_updated = threading.Event(), threading.Event()
        read_matrix, apply_update = memory.prototype_matrix, \
            memory.update_class

        def racing_read(*args, **kwargs):
            result = read_matrix(*args, **kwargs)
            if threading.current_thread() is submitter:
                matrix_read.set()
                assert class_updated.wait(60)
            return result

        def update_then_release(*args, **kwargs):
            result = apply_update(*args, **kwargs)
            class_updated.set()
            return result

        submitter = threading.Thread(
            target=lambda: server.submit(shots[0]).result(timeout=60))
        memory.prototype_matrix = racing_read
        memory.update_class = update_then_release
        try:
            submitter.start()
            assert matrix_read.wait(60)
            server.learn_class(new_shots, new_class)
            submitter.join(timeout=60)
            assert not submitter.is_alive()
            for worker in range(server.num_workers):
                _, ids = server.engine.submit(
                    "similarities", (new_shots[:1], None),
                    worker=worker).result(timeout=60)
                assert new_class in ids, f"worker {worker} lost the learn"
            assert [record["prototype_version"]
                    for record in server.worker_stats()] == \
                [memory.version] * server.num_workers
        finally:
            del memory.prototype_matrix, memory.update_class
            server.close()


class TestDynamicBatcher:
    def test_single_submits_coalesce_and_agree(self, served):
        model, server, shots = served
        # Learned shots as queries: large margins, so worker-side (per-shard)
        # classification agrees with the coordinator path even though tiny
        # small-batch GEMMs are not bitwise reproducible.
        futures = [server.submit(image) for image in shots[:12]]
        labels = np.array([future.result(timeout=120) for future in futures])
        np.testing.assert_array_equal(
            labels, model.runtime_predictor().predict(shots[:12]))
        histogram = server.stats.as_dict()["batch_size_histogram"]
        assert sum(size * count for size, count in histogram.items()) >= 12
        assert max(histogram) > 1, f"no coalescing happened: {histogram}"

    def test_predict_one_roundtrip(self, served):
        model, server, shots = served
        label = server.predict_one(shots[0])
        assert label == int(model.runtime_predictor().predict(shots[:1])[0])

    def test_stats_surface(self, served):
        _, server, _ = served
        report = server.stats_dict()
        assert report["num_workers"] == 2
        assert report["single_requests"] >= 13
        assert report["batches_dispatched"] >= 1
        assert report["samples"] > 0
        assert report["samples_per_s"] > 0
        assert len(report["workers"]) == 2

    def test_submit_after_close_raises_typed_error(self):
        model, _ = make_learned_model(seed=3)
        server = Server(model, num_workers=1)
        server.close()
        with pytest.raises(ServerClosedError):
            server.submit(np.zeros(IMAGE_SHAPE, dtype=np.float32))
        server.close()                    # idempotent


class TestServeHook:
    def test_model_serve_context_manager(self):
        model, shots = make_learned_model(seed=4)
        with model.serve(num_workers=1) as server:
            labels = server.predict(shots[:8])
            np.testing.assert_array_equal(
                labels, model.runtime_predictor().predict(shots[:8]))


# ---------------------------------------------------------------------------
# Worker lifecycle + degraded stats (satellite regression tests)
# ---------------------------------------------------------------------------
class TestWorkerLifecycle:
    def test_shutdown_closes_worker_engine_thread_pools(self, monkeypatch):
        # A worker's snapshot-restored engines rebuild their chunk thread
        # pools lazily; the shutdown work item must close them so no
        # repro-engine thread outlives the worker loop.  The worker main
        # loop is queue-generic, so it runs here on an in-process thread
        # with plain queues, where the engine threads are observable.
        import queue as queue_module
        import threading

        from repro.runtime import engine as engine_module
        from repro.serve.worker import worker_main

        monkeypatch.setattr(engine_module, "default_num_threads", lambda: 2)
        model, shots = make_learned_model(seed=5)
        snapshot = snapshot_model(model, micro_batch=4)
        requests: "queue_module.Queue" = queue_module.Queue()
        results: "queue_module.Queue" = queue_module.Queue()
        before = set(threading.enumerate())
        worker = threading.Thread(target=worker_main,
                                  args=(0, snapshot, requests, results))
        worker.start()
        try:
            # 12 samples / micro_batch 4: the first chunk records the memory
            # plan, the remaining two run on the engine's thread pool.
            requests.put(("backbone", 0, shots[:12]))
            ticket, _, ok, payload = results.get(timeout=60)
            assert ok, payload
            pool_threads = [thread for thread in threading.enumerate()
                            if thread not in before
                            and thread.name.startswith("repro-engine")]
            assert pool_threads, "worker engines never built a thread pool"
        finally:
            requests.put(("shutdown", 1, None))
        ticket, _, ok, _ = results.get(timeout=60)
        assert ok and ticket == 1
        worker.join(timeout=30)
        assert not worker.is_alive()
        for thread in pool_threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in pool_threads), \
            "worker shutdown leaked engine thread-pool threads"


class TestDegradedStats:
    def test_stats_survive_a_dead_worker(self):
        # A shard that dies mid-collection degrades to a flagged record
        # instead of aborting the whole stats call: operators need the
        # surviving shards' counters most exactly when one shard is down.
        # max_respawns=0 pins the *degraded* stats surface: with the
        # supervisor on (the default) the corpse would be respawned and
        # dead_workers would legitimately empty out mid-assert.
        model, shots = make_learned_model(seed=6)
        with Server(model, num_workers=2, micro_batch=4,
                    max_latency_s=0.05, max_respawns=0) as server:
            server.predict(shots[:8])   # two chunks -> warms both replicas
            victim = server.engine._processes[0]
            # Let the victim's result-queue feeder thread go quiescent
            # before the hard kill.  Channels are fully per-worker, so a
            # worker terminated mid-write can only poison its *own* result
            # queue — the survivors' channels are untouchable by the corpse.
            # Its own channel may still deliver a truncated frame, which is
            # why stats collection degrades per shard instead of trusting
            # every channel.
            time.sleep(0.3)
            victim.terminate()
            victim.join(timeout=10)
            report = server.stats_dict(timeout=6.0)
            assert report["num_workers"] == 2
            assert report["dead_workers"] == [0]
            flagged, survivor = report["workers"]
            assert flagged["worker_id"] == 0
            assert "error" in flagged and flagged["alive"] is False
            assert survivor["worker_id"] == 1
            # The survivor normally answers with full stats; if its own
            # collection merely missed the deadline it degrades to a
            # flagged-but-alive record — never declared dead, and either
            # way the call returned partial stats instead of raising.  (A
            # hard-killed sibling cannot wedge this shard's channel: no
            # queue or lock is shared between workers.)
            if "error" in survivor:
                assert survivor["alive"] is True
                # Flagged as stale, so the incomplete aggregates are marked.
                assert report["stale_workers"] == [1]
            else:
                assert survivor["plan_steps"] > 0
                assert report["stale_workers"] == []
                assert report["cache_bytes"] > 0


# ---------------------------------------------------------------------------
# Fault injection, typed shutdown, admission control, transport parity
# ---------------------------------------------------------------------------
class TestFaultInjection:
    def test_sigkill_mid_flight_fails_fast_and_survivors_serve(self):
        # The headline regression of the per-worker transport (and the
        # reason channels are per-worker at all): on the old shared-queue
        # transport a worker SIGKILLed while writing a result died holding
        # the one shared write lock and wedged every surviving shard.  With
        # per-worker channels that failure mode is structurally impossible;
        # what this test pins is the remaining contract: the dead shard's
        # pending futures must fail fast with RemoteWorkerError (liveness
        # watchdog, not timeout), the survivors must keep answering
        # bit-for-bit, and the dead worker's ring slots must be reclaimed
        # rather than leaked.  max_respawns=0 keeps the corpse down — the
        # supervised-respawn path has its own tests (test_serve_recovery).
        model, shots = make_learned_model(seed=7)
        rng = np.random.default_rng(11)
        queries = rng.standard_normal((40, *IMAGE_SHAPE)).astype(np.float32)
        reference = model.runtime_predictor().predict(queries)
        with Server(model, num_workers=2, max_latency_s=0.05,
                    max_respawns=0) as server:
            server.predict(queries[:8])            # warm both replicas
            big = rng.standard_normal((64, *IMAGE_SHAPE)).astype(np.float32)
            inflight = [server.engine.submit("backbone", big, worker=0)
                        for _ in range(4)]
            os.kill(server.engine._processes[0].pid, signal.SIGKILL)

            started = time.monotonic()
            failures = 0
            for future in inflight:
                try:
                    future.result(timeout=30)
                except RemoteWorkerError:
                    failures += 1
            elapsed = time.monotonic() - started
            assert failures >= 1, "no pinned-to-victim request failed"
            # Fail *fast*: the watchdog polls at 0.2s, so well under the
            # engine's default collection timeout (120s) — the old transport
            # hung callers for the full timeout.
            assert elapsed < 15.0, f"dead-shard futures took {elapsed:.1f}s"

            # Survivors keep answering, still bit-for-bit with the local
            # predictor, on both the sync and the batched async paths.
            np.testing.assert_array_equal(server.predict(queries), reference)
            label = server.predict_one(shots[0], timeout=60)
            assert label == int(model.runtime_predictor()
                                .predict(shots[:1])[0])

            # stats() degrades the dead shard instead of hanging or raising.
            report = server.stats_dict(timeout=10.0)
            assert report["dead_workers"] == [0]
            assert report["live_workers"] == [1]

            # Explicitly routing new work at the corpse fails immediately.
            with pytest.raises(RemoteWorkerError, match="dead"):
                server.engine.submit("backbone", queries[:2], worker=0)

            # The watchdog reclaimed every slot the victim held.
            for ring in (server.engine._request_rings[0],
                         server.engine._result_rings[0]):
                assert ring is not None and ring.slots_in_use == 0


class TestEngineClose:
    def test_close_with_inflight_fails_futures_with_typed_error(self):
        # close() must not strand in-flight callers: whatever has not
        # resolved by the close deadline fails with EngineClosedError (a
        # typed shutdown error, distinct from a worker crash).
        model, _ = make_learned_model(seed=8)
        snapshot = snapshot_model(model, micro_batch=8)
        engine = ShardedEngine(snapshot, num_workers=1)
        try:
            rng = np.random.default_rng(3)
            big = rng.standard_normal((64, *IMAGE_SHAPE)).astype(np.float32)
            futures = [engine.submit("backbone", big) for _ in range(6)]
        finally:
            engine.close(timeout=0.05)
        shutdown_errors = 0
        for future in futures:
            assert future.done(), "close() left a future unresolved"
            exc = future.exception()
            if exc is not None:
                assert isinstance(exc, EngineClosedError)
                shutdown_errors += 1
        assert shutdown_errors >= 1, \
            "every batch resolved before a 50ms close deadline?"
        engine.close()                    # idempotent


class TestAdmissionControl:
    def test_full_admission_queue_sheds_with_typed_error(self):
        model, shots = make_learned_model(seed=3)
        with Server(model, num_workers=1, max_pending=0) as server:
            with pytest.raises(ServerOverloaded, match="admission queue"):
                server.submit(shots[0])
            report = server.stats.as_dict()
            assert report["requests_shed"] == 1
            assert report["shed_rate"] == 1.0

    def test_latency_slo_sheds_when_estimate_exceeds_budget(self):
        model, shots = make_learned_model(seed=3)
        with Server(model, num_workers=1, latency_slo_s=0.5) as server:
            # Seed the latency EMA as if batches were observed taking 1s:
            # the wait estimate for even one queued request then exceeds the
            # 0.5s SLO deterministically, no real saturation needed.
            server.stats.observe_batch_latency(1.0)
            with pytest.raises(ServerOverloaded, match="SLO"):
                server.submit(shots[0])
            assert server.stats.as_dict()["requests_shed"] == 1
            # The shed accounting shows up on the public stats surface too.
            report = server.stats_dict()
            assert report["requests_shed"] == 1
            assert report["latency_slo_s"] == 0.5

    def test_no_shedding_below_the_limits(self, served):
        _, server, shots = served
        future = server.submit(shots[0])       # default budgets: admitted
        assert future.result(timeout=120) is not None
        assert server.stats.as_dict()["shed_rate"] < 1.0


class TestTransportParity:
    def test_pickle_transport_matches_local_predictor_bitwise(self, queries):
        # use_shared_memory=False forces every tensor through the inline
        # pickle fallback.  It must be bit-for-bit with the local predictor —
        # the same oracle the default shm transport is pinned against above
        # (TestServerParity) — so shm and pickle transports are bit-identical
        # end-to-end through real spawned workers.
        model, _ = make_learned_model(seed=9)
        reference = model.runtime_predictor().predict(queries)
        with Server(model, num_workers=2, max_latency_s=0.05,
                    use_shared_memory=False) as server:
            assert all(ring is None for ring in server.engine._request_rings)
            np.testing.assert_array_equal(server.predict(queries), reference)
            sims, ids = server.similarities(queries[:32])
            ref_sims, ref_ids = model.runtime_predictor() \
                .similarities(queries[:32])
            np.testing.assert_array_equal(sims, ref_sims)
            np.testing.assert_array_equal(ids, ref_ids)
