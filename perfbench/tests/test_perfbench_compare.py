import pytest

from perfbench.compare import compare
from perfbench.fingerprint import FingerprintMismatch

SPEC = {"end_to_end": [
    {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.1}]}
HOST = {"usable_cores": 2, "cpu_model": "x", "numpy": "2"}


def _record(p50, rate, host=HOST):
    return {"host": host, "workload": "serve_open_loop", "trace": 0,
            "metrics": {"p50_ms": {"value": p50, "unit": "ms"},
                        "throughput_per_s": {"value": rate, "unit": "1/s"}}}


def test_records_from_another_host_are_refused():
    other = dict(HOST, usable_cores=4)
    with pytest.raises(FingerprintMismatch):
        compare([_record(10, 100)], [_record(10, 100, host=other)], SPEC)


def test_regression_beyond_the_bound_is_flagged_per_direction():
    old = [_record(10.0 + i * 0.01, 100.0) for i in range(5)]
    new = [_record(12.0 + i * 0.01, 120.0) for i in range(5)]
    rows = {row[0]: row for row in compare(old, new, SPEC)}
    assert rows["p50_ms"][4] == "REGRESSED"
    assert rows["throughput_per_s"][4] == ""
    assert rows["p50_ms"][3] == pytest.approx(2.0 / 10.02)


def test_a_noisy_baseline_leaves_the_metric_unresolved():
    old = [_record(p50, 100.0) for p50 in (5.0, 8.0, 10.0, 12.0, 15.0)]
    new = [_record(10.5, 100.0) for _ in range(5)]
    rows = {row[0]: row for row in compare(old, new, SPEC)}
    assert rows["p50_ms"][4] == "unresolved"
