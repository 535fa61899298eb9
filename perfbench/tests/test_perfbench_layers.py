import json
from pathlib import Path

import pytest

from perfbench import inputs
from perfbench.fingerprint import (
    FingerprintMismatch,
    check_comparable,
    host_fingerprint,
)
from perfbench.layers import OP_CLASSES, classify_step, span_layers
from perfbench.run import E2E_UNITS
from perfbench.tracing import EMPTY_OP_CLASSES, PER_LAYER_UNITS
from repro.runtime import BatchedPredictor, Step

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("mode", ["float32", "int8"])
def test_classifier_leaves_no_mobilenetv2_step_unclassified(mode):
    model = inputs.ReadyModels(0, 8, mode).build()
    predictor = BatchedPredictor(model, mode=mode)
    steps = predictor.backbone_engine.plan.steps \
        + predictor.fcr_engine.plan.steps
    classes = {classify_step(step) for step in steps}
    # Every class reported as a metric has steps, so its time is never 0.
    assert classes == set(OP_CLASSES) - {
        cls for empty_mode, cls in EMPTY_OP_CLASSES if empty_mode == mode}


def test_classifier_rejects_an_unknown_op():
    with pytest.raises(ValueError, match="unclassified"):
        classify_step(Step(op="mystery", name="x", inputs=("a",),
                           output="b"))


def test_span_layers_splits_a_batch_into_stages():
    spans = [
        {"span_id": "r", "parent_id": None, "name": "server.submit",
         "start_s": 10.000, "duration_s": 0.020},
        {"span_id": "c", "parent_id": "r", "name": "batcher.coalesce",
         "start_s": 10.002, "duration_s": 0.010},
        {"span_id": "d", "parent_id": "c", "name": "shard.dispatch",
         "start_s": 10.012, "duration_s": 0.008},
        {"span_id": "w", "parent_id": "d", "name": "worker.execute",
         "start_s": 10.013, "duration_s": 0.006},
    ]
    stages = span_layers(spans)
    assert stages["queue_wait"] == [pytest.approx(2.0)]
    assert stages["coalesce"] == [pytest.approx(10.0)]
    assert stages["worker_exec"] == [pytest.approx(6.0)]
    assert stages["transport"] == [pytest.approx(2.0)]


def test_fingerprint_mismatch_is_refused():
    here = host_fingerprint()
    check_comparable(here, dict(here))
    other = dict(here, usable_cores=here["usable_cores"] + 1)
    with pytest.raises(FingerprintMismatch, match="usable_cores"):
        check_comparable(here, other)


def test_benchmark_json_names_what_the_command_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == PER_LAYER_UNITS
    # learn_stream is measured by the traced run but gated by no workload.
    assert {w["name"] for w in spec["workloads"]} \
        == {"session_eval", "serve_open_loop"}
