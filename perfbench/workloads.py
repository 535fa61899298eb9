"""The three benchmark workloads.

* ``session_eval`` — closed loop, one caller: ``BatchedPredictor.predict``
  over whole seeded sessions at micro-batch 64, float32 and PTQ int8 in
  turn, against 100 stored classes.  Kernel, layout and backend work does
  nearly all of its work here and the serving stack none.
* ``serve_open_loop`` — open loop, one generator thread: Poisson
  single-sample ``Server.submit`` requests against a 60-class memory over a
  fixed rate ladder.  At batch sizes 1-8 the batcher, transport and worker
  dispatch dominate and the kernels are a minor share.
* ``learn_stream`` — the paper's incremental protocol (60 base classes,
  then 8 sessions of 5-way 5-shot ``Server.learn_class`` with the journal
  at its default ``fsync="always"``) with open-loop r150 submits alongside.
  The learn path dominates; the concurrent reads show whether a learn-path
  change costs serving latency.

Each workload returns an :class:`Outcome`: the gated end-to-end metrics
(the same three names on every workload), the workload's own named
figures with unit and sample count, the operation counts, and — when
traced — its per-layer metrics.

The end-to-end metrics are set-up time, a throughput and CPU time per
operation.  Wall-clock latencies are printed as figures only: on a shared
host the hypervisor's steal stretches every cross-process hop, and the
median submit latency at r500 spread by 0.24 between runs of unchanged
code while capacities and CPU times held within 0.11.  ``learn_stream``
runs in the traced run and by hand but is not a gated workload: a learn is
a serial chain of such hops, and each of its figures spread by 0.16 to
0.48.
"""

from __future__ import annotations

import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import inputs, layers
from .checks import (
    CheckLog,
    answers_match,
    batch_size_labels,
    eager_parity,
    int8_golden,
    journal_replay,
    served_answers_wrong,
)
from .fingerprint import cpu_seconds
from .openloop import max_rate, run_rung, run_saturated
from .stats import percentile_label, summarize

#: Engine threads of the session predictors and server shards.
NUM_THREADS = 2
NUM_WORKERS = 2
MICRO_BATCH = 64

#: Cold set-ups measured per run (``setup_s`` is their median).
SETUP_REPEATS = 9

#: Offered rates of the serving ladder (requests per second).
RATE_LADDER = (150, 300, 500, 700, 900, 1200)
#: Requests per rung at least: p99 then has 11 samples beyond it.
MIN_RUNG_REQUESTS = 1100

#: Closed-loop capacity phase after the ladder: requests sent, and how
#: many are kept in flight (well under the default admission cap of
#: 8 batches x 64 x 2 workers, so nothing is shed).  About 5 s: on a shared
#: host the answered rate of one 2 s phase moved by +-25% between
#: consecutive phases of one server, so a longer phase averages it.
SATURATION_REQUESTS = 12000
SATURATION_WINDOW = 256

#: Open-loop read rate alongside the learn stream, and the learn rate:
#: a learn takes about 11 ms, so at 20/s one rarely waits for the last and
#: a run fits about seven streams (fresh servers) to take its median over.
LEARN_READ_RATE = 150
LEARN_RATE = 20.0
#: Learns a run collects at least: p90 then has 10 samples beyond it.
MIN_LEARNS = 100

#: Distinct query images a serving run cycles through.
SERVE_QUERIES = 1024


@dataclass
class Outcome:
    workload: str
    e2e: Dict[str, float] = field(default_factory=dict)
    #: (name, value, unit, sample count) figures named by the workload
    figures: List[tuple] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def figure(self, name: str, value: float, unit: str, count: int) -> None:
        self.figures.append((name, value, unit, count))

    def print(self, suffix: str = "") -> None:
        print(f"== {self.workload}{suffix}")
        for name, value, unit, count in self.figures:
            shown = "n/a" if value is None else f"{value:.4f}"
            print(f"  {name:<28} {shown:>12} {unit:<10} n={count}")
        for line in self.notes:
            print(f"  {line}")


def _cold_setup(build, start, log: CheckLog):
    """One cold set-up: ``build()`` makes a ready model untimed, then
    ``start(ready)`` is timed from an empty plan cache up to its first
    verified answer.  Returns ``(handle, seconds)``."""
    from repro.runtime import default_plan_cache

    ready = build()
    default_plan_cache().clear()
    started = time.perf_counter()
    handle, verified = start(ready)
    seconds = time.perf_counter() - started
    log.record("set-up answers correctly", verified)
    return handle, seconds


def _setup_figure(outcome: Outcome, seconds: List[float]) -> None:
    outcome.e2e["setup_s"] = float(np.median(seconds))
    outcome.figure("setup_s", outcome.e2e["setup_s"], "s", len(seconds))


def _timed_setups(build, start, log: CheckLog, outcome: Outcome,
                  close=None):
    """Run ``SETUP_REPEATS`` cold set-ups; return the last one's handle.
    ``close(handle)`` releases each earlier handle before the next
    set-up, so every set-up starts with nothing else running."""
    seconds = []
    for repeat in range(SETUP_REPEATS):
        handle, took = _cold_setup(build, start, log)
        seconds.append(took)
        if close is not None and repeat < SETUP_REPEATS - 1:
            close(handle)
    _setup_figure(outcome, seconds)
    return handle


# ----------------------------------------------------------------------
def session_eval(seed: int, seconds: float, traced: bool, log: CheckLog,
                 workdir: Path) -> Outcome:
    from repro.runtime import BatchedPredictor

    outcome = Outcome("session_eval")
    images = inputs.queries(seed, inputs.SESSION_QUERIES)
    models = {mode: inputs.ReadyModels(seed, inputs.EVAL_CLASSES, mode)
              for mode in ("float32", "int8")}

    # References: single-threaded predictors on separately built models.
    ref_float = models["float32"].build()
    ref_float_predictor = BatchedPredictor(ref_float, num_threads=1)
    eager_parity(log, ref_float, images[:MICRO_BATCH], ref_float_predictor)
    import int8_fixtures
    golden_model, _ = int8_fixtures.build_quantized_model()
    int8_golden(log, golden_model, BatchedPredictor(golden_model,
                                                    mode="int8"))
    reference = {
        "float32": ref_float_predictor.predict(images),
        "int8": BatchedPredictor(models["int8"].build(), mode="int8",
                                 num_threads=1).predict(images),
    }

    def build():
        return {mode: ready.build() for mode, ready in models.items()}

    def start(ready):
        predictors, verified = {}, True
        for mode, model in ready.items():
            predictor = BatchedPredictor(model, micro_batch=MICRO_BATCH,
                                         mode=mode, num_threads=NUM_THREADS,
                                         profile=traced)
            first = predictor.predict(images[:MICRO_BATCH])
            verified &= answers_match(reference[mode][:MICRO_BATCH],
                                      first) == 0
            predictors[mode] = predictor
        return predictors, verified

    predictors = _timed_setups(build, start, log, outcome)

    session_s = {"float32": [], "int8": []}
    pair_cpu_s = []
    wrong = 0
    deadline = time.perf_counter() + seconds
    while len(session_s["int8"]) < 3 or time.perf_counter() < deadline:
        cpu = cpu_seconds()
        for mode, predictor in predictors.items():
            started = time.perf_counter()
            labels = predictor.predict(images)
            session_s[mode].append(time.perf_counter() - started)
            wrong += answers_match(reference[mode], labels)
            outcome.attempted += len(images)
        pair_cpu_s.append(cpu_seconds() - cpu)
    outcome.failed += wrong
    log.record("every session answer equals the single-threaded reference",
               wrong == 0, f"{wrong} wrong labels")

    pairs = np.add(session_s["float32"], session_s["int8"])
    outcome.e2e["throughput_per_s"] = float(np.median(2 * len(images)
                                                      / pairs))
    outcome.e2e["cpu_ms_per_op"] = float(np.median(pair_cpu_s)) * 1e3 \
        / (2 * len(images))
    outcome.figure("cpu_ms_per_sample", outcome.e2e["cpu_ms_per_op"], "ms",
                   len(pair_cpu_s))
    for mode, values in session_s.items():
        outcome.figure(f"eval_sps.{mode}",
                       float(np.median(len(images) / np.asarray(values))),
                       "samples/s", len(values))
    outcome.figure("session_pair_ms", float(np.median(pairs) * 1e3), "ms",
                   len(pairs))

    if traced:
        times = {mode: layers.class_times_ms(predictor, MICRO_BATCH)
                 for mode, predictor in predictors.items()}
        outcome.notes.extend(layers.op_class_table(times))
        for mode, classes_ms in times.items():
            for cls, value in classes_ms.items():
                outcome.layers[f"runtime.{mode}.{cls}_ms"] = value
        fresh = build()
        warm = {mode: BatchedPredictor(model, micro_batch=MICRO_BATCH,
                                       mode=mode, num_threads=NUM_THREADS)
                for mode, model in fresh.items()}
        outcome.layers.update(layers.runtime_engine_layers(warm, images))
        outcome.layers["runtime.compile_ms"] = layers.compile_ms(
            list(fresh.values()))
    return outcome


# ----------------------------------------------------------------------
def _serving_reference(models: inputs.ReadyModels, images: np.ndarray):
    """Backbone features of every query, and the labels a single-process
    predictor gives ``images[0]`` in a batch of any size the server forms
    with its default ``max_batch`` (the first answer of a set-up)."""
    from repro.runtime import BatchedPredictor
    from repro.runtime.engine import DEFAULT_MICRO_BATCH

    predictor = BatchedPredictor(models.build())
    theta_a = predictor.extract_backbone_features(images)
    first = batch_size_labels(predictor, theta_a, [0], DEFAULT_MICRO_BATCH)
    return theta_a, first[0]


def _server_start(images: np.ndarray, first_labels: set, traced: bool,
                  journal: Optional[Path] = None):
    """Timed part of a server set-up: ``Server`` start up to its first
    verified answer."""
    from repro.serve import Server

    def start(model):
        server = Server(model, num_workers=NUM_WORKERS,
                        trace_sample=1.0 if traced else 0.0,
                        journal_path=journal)
        try:
            label = server.submit(images[0]).result(timeout=60)
        except BaseException:
            server.close()
            raise
        return server, int(label) in first_labels
    return start


def _rung_note(rung) -> str:
    latency = summarize(rung.latencies_ms)
    lag = summarize(rung.lag_ms)
    nan = float("nan")
    return (f"rung r{rung.rate:<5g} sent {rung.sent:>5} answered "
            f"{rung.answered:>5} failed {rung.failed:>3}  p50 "
            f"{latency['p50']:7.2f} ms  "
            f"{percentile_label(latency['tail_pct'])} "
            f"{latency['tail'] or nan:7.2f} ms  achieved "
            f"{rung.achieved_rps:7.1f}/s  lag "
            f"{percentile_label(lag['tail_pct'])} {lag['tail'] or nan:6.2f} ms"
            f" late>1ms {rung.late_share * 100:5.1f}%  backlog "
            f"{rung.backlog_start:.1f}->{rung.backlog_end:.1f}"
            f"{' GREW' if rung.backlog_grew else ''}")


def _latency_figures(outcome: Outcome, rung, prefix: str) -> None:
    summary = summarize(rung.latencies_ms)
    outcome.figure(f"{prefix}_p50_ms.r{rung.rate:g}", summary["p50"], "ms",
                   summary["n"])
    outcome.figure(f"{prefix}_{percentile_label(summary['tail_pct'])}_ms."
                   f"r{rung.rate:g}", summary["tail"], "ms", summary["n"])


def serve_open_loop(seed: int, seconds: float, traced: bool, log: CheckLog,
                    workdir: Path) -> Outcome:
    outcome = Outcome("serve_open_loop")
    images = inputs.queries(seed, SERVE_QUERIES)
    models = inputs.ReadyModels(seed, inputs.SERVE_CLASSES)
    theta_a, first_labels = _serving_reference(models, images)
    server = _timed_setups(models.build,
                           _server_start(images, first_labels, traced), log,
                           outcome, close=lambda extra: extra.close())
    count = max(MIN_RUNG_REQUESTS,
                int(seconds / sum(1.0 / rate for rate in RATE_LADDER)))
    rungs, spans, batch_means = [], {}, {}
    try:
        cpu = cpu_seconds()
        for rate in RATE_LADDER:
            before = server.stats.as_dict()
            rung = run_rung(server, images,
                            inputs.poisson_offsets(seed, rate, count), rate)
            rungs.append(rung)
            after = server.stats.as_dict()
            batches = (after["batches_dispatched"]
                       - before["batches_dispatched"])
            batch_means[rate] = (after["single_requests"]
                                 - before["single_requests"]) / max(1, batches)
            if traced:
                spans[rate] = server.tracer.exporter.drain()
        saturated = run_saturated(server, images, SATURATION_REQUESTS,
                                  SATURATION_WINDOW)
        cpu = cpu_seconds() - cpu
        final = server.stats_dict()
        version = server.model.memory.version
    finally:
        server.close()

    phases = rungs + [saturated]
    # Nothing is learned here: every answer is due at the one version.
    wrong, other_size = served_answers_wrong(
        ((index, label, version, version) for rung in phases
         for index, label, *_ in rung.answers),
        models.build, theta_a, server.max_batch)
    sent = sum(rung.sent for rung in phases)
    failed = sum(rung.failed for rung in phases)
    outcome.attempted += sent
    outcome.failed += failed + wrong
    log.record("every served answer equals BatchedPredictor", wrong == 0,
               f"{wrong} wrong of {sent - failed} answered; {other_size} "
               f"equal it only at a batch size other than the session's")
    log.record("no request failed or was shed", failed == 0,
               f"{failed} of {sent}")

    by_rate = {rung.rate: rung for rung in rungs}
    outcome.e2e["throughput_per_s"] = saturated.achieved_rps
    answered = sum(rung.answered for rung in phases)
    outcome.e2e["cpu_ms_per_op"] = cpu * 1e3 / max(1, answered)
    outcome.figure("cpu_ms_per_request", outcome.e2e["cpu_ms_per_op"], "ms",
                   answered)
    for rate in (150, 500):
        _latency_figures(outcome, by_rate[rate], "submit")
    outcome.figure("max_rate_rps", max_rate(rungs), "req/s", len(rungs))
    outcome.figure("capacity_rps", saturated.achieved_rps, "req/s",
                   saturated.answered)
    outcome.notes.extend(_rung_note(rung) for rung in rungs)

    if traced:
        stages = layers.span_layers(spans[500])
        for stage, pcts in (("queue_wait", (50, 99)), ("coalesce", (50,)),
                            ("transport", (50,)), ("worker_exec", (50,))):
            for pct in pcts:
                outcome.layers[f"serve.{stage}_ms.p{pct}"] = float(
                    np.percentile(stages[stage], pct)) \
                    if stages[stage] else float("nan")
        for rate, mean in batch_means.items():
            outcome.layers[f"serve.batch_size_mean.r{rate}"] = mean
        outcome.layers["serve.shed_share"] = final["shed_rate"]
        outcome.layers["serve.max_queue_depth"] = final["max_queue_depth"]
        outcome.layers.update(layers.spawn_layers(models.build()))
    return outcome


# ----------------------------------------------------------------------
def _traced_learn(server, class_id: int, shots: np.ndarray,
                  parts: Dict[str, list]) -> None:
    """``Server.learn_class`` step by step through the public calls it
    makes, timing each (journal write-ahead order preserved).  The memory
    update itself is measured on its own by ``layers.memory_layers``."""
    memory = server.model.memory
    t0 = time.perf_counter()
    theta_a = server.extract_backbone_features(shots)
    t1 = time.perf_counter()
    theta_p = server.predictor.project(theta_a)
    t2 = time.perf_counter()
    server.journal.append(class_id, theta_p, memory.version + 1)
    t3 = time.perf_counter()
    memory.update_class(class_id, theta_p)
    server.model.activation_memory[class_id] = theta_a.mean(axis=0)
    t4 = time.perf_counter()
    server.sync_prototypes(force=True)
    t5 = time.perf_counter()
    for name, seconds in (("scatter", t1 - t0), ("project", t2 - t1),
                          ("journal_append", t3 - t2),
                          ("broadcast", t5 - t4)):
        parts[name].append(seconds * 1e3)


def learn_stream(seed: int, seconds: float, traced: bool, log: CheckLog,
                 workdir: Path) -> Outcome:
    outcome = Outcome("learn_stream")
    images = inputs.queries(seed, SERVE_QUERIES)
    models = inputs.ReadyModels(seed, inputs.SERVE_CLASSES)
    theta_a, first_labels = _serving_reference(models, images)
    learn_ms, service_s, rungs, setups, cpu_ms = [], [], [], [], []
    parts = {name: [] for name in ("scatter", "project", "journal_append",
                                   "broadcast")}
    broadcasts = 0
    journal_dir = workdir / "journals"
    journal_dir.mkdir(parents=True, exist_ok=True)
    started_run = time.perf_counter()
    repeat = 0
    try:
        while repeat < 3 or len(learn_ms) < MIN_LEARNS \
                or time.perf_counter() - started_run < seconds:
            journal = journal_dir / f"learn-{repeat}.bin"
            server, setup_seconds = _cold_setup(
                models.build,
                _server_start(images, first_labels, traced, journal), log)
            setups.append(setup_seconds)
            try:
                cpu = cpu_seconds()
                rung, stream = _one_stream(seed, repeat, server, images,
                                           traced, parts)
                cpu = cpu_seconds() - cpu
                if traced:
                    broadcasts += server.stats.as_dict()[
                        "prototype_broadcasts"]
            finally:
                server.close()
            rungs.append(rung)
            learn_ms.extend(stream["latency_ms"])
            service_s.extend(stream["service_s"])
            cpu_ms.append(cpu * 1e3 / len(stream["latency_ms"]))
            outcome.attempted += len(stream["latency_ms"])

            journal_replay(log, models.build(), server.model.memory, journal)
            wrong, other_size = served_answers_wrong(
                rung.answers, models.build, theta_a, server.max_batch,
                journal)
            outcome.attempted += rung.sent
            outcome.failed += rung.failed + wrong
            log.record(f"stream {repeat}: served answers match a live "
                       f"version", wrong == 0 and rung.failed == 0,
                       f"{wrong} wrong, {rung.failed} failed of "
                       f"{rung.sent}; {other_size} right only at a batch "
                       f"size other than the session's")
            repeat += 1
    finally:
        shutil.rmtree(journal_dir, ignore_errors=True)

    _setup_figure(outcome, setups)
    learns = summarize(learn_ms)
    outcome.e2e["throughput_per_s"] = len(service_s) / float(np.sum(service_s))
    outcome.e2e["cpu_ms_per_op"] = float(np.median(cpu_ms))
    outcome.figure("learn_p50_ms", learns["p50"], "ms", learns["n"])
    outcome.figure(f"learn_{percentile_label(learns['tail_pct'])}_ms",
                   learns["tail"], "ms", learns["n"])
    outcome.figure("learn_capacity_per_s", outcome.e2e["throughput_per_s"],
                   "1/s", len(service_s))
    outcome.figure("cpu_ms_per_learn", outcome.e2e["cpu_ms_per_op"], "ms",
                   len(cpu_ms))
    merged = rungs[0]
    for rung in rungs[1:]:
        merged.latencies_ms.extend(rung.latencies_ms)
        merged.lag_ms.extend(rung.lag_ms)
    _latency_figures(outcome, merged, "submit")
    outcome.notes.append(f"{repeat} streams of {inputs.SESSIONS} sessions x "
                         f"{inputs.WAYS}-way {inputs.SHOTS}-shot, "
                         f"{len(learn_ms)} learns")

    if traced:
        for name, values in parts.items():
            outcome.layers[f"serve.learn.{name}_ms"] = float(np.median(values))
        outcome.layers["serve.prototype_broadcasts"] = \
            broadcasts / max(1, len(learn_ms))
        outcome.layers.update(layers.prototype_layers(models.build(),
                                                      images))
        outcome.layers.update(layers.memory_layers(models.features.shape[-1]))
    return outcome


def _one_stream(seed: int, repeat: int, server, images: np.ndarray,
                traced: bool, parts: Dict[str, list]):
    """One pass of the incremental protocol with reads alongside."""
    memory = server.model.memory
    sessions = inputs.learn_sessions(seed, repeat, inputs.SERVE_CLASSES)
    due = inputs.poisson_offsets(seed, LEARN_RATE, len(sessions), repeat)
    reads = inputs.poisson_offsets(
        seed, LEARN_READ_RATE,
        int(LEARN_READ_RATE * (due[-1] + 5.0)), repeat)
    published = [memory.version]
    stop = threading.Event()
    result = {}

    def generate():
        result["rung"] = run_rung(
            server, images, reads, LEARN_READ_RATE,
            version_window=lambda: published[0],
            current_version=lambda: memory.version, stop=stop)

    generator = threading.Thread(target=generate, name="perfbench-reads")
    generator.start()
    stream = {"latency_ms": [], "service_s": []}
    try:
        start = time.perf_counter()
        for (class_id, shots), offset in zip(sessions, due):
            at = start + float(offset)
            delay = at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            began = time.perf_counter()
            if traced:
                _traced_learn(server, class_id, shots, parts)
            else:
                server.learn_class(shots, class_id)
            finished = time.perf_counter()
            published[0] = memory.version
            stream["latency_ms"].append((finished - at) * 1e3)
            stream["service_s"].append(finished - began)
    finally:
        stop.set()
        generator.join()
    return result["rung"], stream


WORKLOADS = {
    "session_eval": session_eval,
    "serve_open_loop": serve_open_loop,
    "learn_stream": learn_stream,
}
