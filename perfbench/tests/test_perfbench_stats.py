import statistics

import numpy as np
import pytest

from perfbench.openloop import LATENCY_LIMIT_MS, Rung, max_rate
from perfbench.stats import (
    iqr_share,
    percentile_label,
    quartiles,
    summarize,
    tail_percentile,
)


@pytest.mark.parametrize("count,expected", [
    (10000, 99.9), (9999, 99.0), (1000, 99.0), (999, 90.0), (100, 90.0),
    (99, 50.0), (20, 50.0), (19, None), (0, None)])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_summarize_reports_count_and_chosen_tail():
    values = np.arange(1, 1001, dtype=float)
    summary = summarize(values)
    assert summary["n"] == 1000
    assert summary["p50"] == pytest.approx(500.5)
    assert summary["tail_pct"] == 99.0
    assert summary["tail"] == pytest.approx(np.percentile(values, 99))
    assert percentile_label(summary["tail_pct"]) == "p99"
    assert percentile_label(99.9) == "p99.9"


def test_summarize_without_a_supported_tail():
    summary = summarize([3.0, 1.0, 2.0])
    assert summary == {"n": 3, "p50": 2.0, "tail_pct": None, "tail": None}


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, median, q3 = quartiles(values)
    assert iqr_share(values) == pytest.approx((q3 - q1) / median)


def _rung(rate, tail_ms, failed=0, backlog=(1, 1)):
    # 1100 samples with the slowest 2% at ``tail_ms``: p99 reads it.
    latencies = [1.0] * 1078 + [tail_ms] * 22
    start, end = backlog
    return Rung(rate=rate, sent=1100, answered=1100 - failed, failed=failed,
                latencies_ms=latencies, backlog=[start] * 550 + [end] * 550)


def test_max_rate_is_the_highest_passing_rung():
    assert LATENCY_LIMIT_MS == 50.0
    rungs = [_rung(150, 20.0), _rung(300, 60.0), _rung(500, 45.0),
             _rung(700, 80.0)]
    assert max_rate(rungs) == 500.0
    assert max_rate([_rung(150, 51.0)]) == 0.0


def test_a_growing_backlog_or_a_failure_disqualifies_a_rung():
    growing = _rung(500, 45.0, backlog=(5, 5 + 500 * 0.05 + 1))
    assert growing.backlog_grew
    assert not _rung(500, 45.0, backlog=(5, 5 + 500 * 0.05)).backlog_grew
    assert max_rate([_rung(150, 20.0), _rung(300, 40.0), growing]) == 300.0
    assert max_rate([_rung(150, 20.0), _rung(300, 40.0, failed=1)]) == 150.0
