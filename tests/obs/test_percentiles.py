"""The shared percentile estimator — and the engine summarize fix."""

import statistics

import pytest

from repro.obs.percentiles import percentile, summarize


class TestPercentile:
    def test_median_matches_statistics_on_even_lengths(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.5) == statistics.median(values) == 2.5

    def test_median_matches_statistics_on_odd_lengths(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0.5) == statistics.median(values) == 3.0

    def test_p95_interpolates_instead_of_returning_max(self):
        # the old nearest-above-rank index returned the max for any
        # series shorter than 21 entries
        values = [float(i) for i in range(1, 11)]  # 1..10
        p95 = percentile(values, 0.95)
        assert p95 == pytest.approx(9.55)
        assert p95 < max(values)

    def test_extremes(self):
        values = [3.0, 1.0, 2.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 3.0

    def test_unsorted_input(self):
        assert percentile([9.0, 1.0, 5.0, 3.0, 7.0], 0.5) == 5.0

    def test_single_value(self):
        assert percentile([42.0], 0.95) == 42.0

    def test_empty_returns_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_out_of_range_quantile_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)


class TestSummarize:
    def test_keys_and_values(self):
        out = summarize([1.0, 2.0, 3.0, 4.0])
        assert out == {
            "count": 4,
            "mean": 2.5,
            "p50": 2.5,
            "p95": pytest.approx(3.85),
            "p99": pytest.approx(3.97),
            "max": 4.0,
        }

    def test_empty_safe(self):
        # zero-filled shape, but count says "no evidence": consumers
        # feeding control loops must not read the 0.0 p99 as fast
        assert summarize([]) == {
            "count": 0,
            "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0,
        }

    def test_p99_sits_between_p95_and_max(self):
        # the serving SLO tail: tighter than max, beyond p95
        values = [float(i) for i in range(1, 101)]
        out = summarize(values)
        assert out["p95"] < out["p99"] < out["max"]
        assert out["p99"] == pytest.approx(99.01)

    def test_engine_summarize_delegates(self):
        """The shared estimator fixes the p50 upper-median bias and the
        p95-hits-max bug of the old index math."""
        values = [1.0, 2.0, 3.0, 4.0]
        out = summarize(values)
        assert out["p50"] == 2.5  # old code returned 3.0 (upper median)
        assert out["p95"] < 4.0  # old code returned the max

    def test_histogram_snapshot_uses_same_estimator(self):
        """Bucketed snapshot: exact count/mean/max, quantiles within
        half a quarter-octave bucket of the shared estimator on a dense
        series (a bucket cannot interpolate between sparse samples)."""
        from repro.obs.metrics import Histogram

        values = [float(i) for i in range(1, 1001)]
        h = Histogram("lat")
        h.observe_many(values)
        snap, ref = h.snapshot(), summarize(values)
        assert snap["count"] == 1000.0
        assert snap["mean"] == ref["mean"] == 500.5
        assert snap["max"] == ref["max"] == 1000.0
        half_bucket = 2.0 ** 0.125 - 1.0  # ~9% relative
        for q in ("p50", "p95", "p99"):
            assert snap[q] == pytest.approx(ref[q], rel=half_bucket), q
