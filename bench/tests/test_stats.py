import pytest

from bench import stats


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([5.0, 1.0, 3.0], 50) == 3.0
    assert stats.percentile([7.0], 99.9) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("n, expected", [
    (2000, 99.5), (1000, 99.0), (999, 98.0), (540, 98.0), (100, 90.0),
    (40, 75.0), (39, None),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    q = stats.tail_percentile(n)
    assert q == expected
    if q is not None:
        assert stats.beyond(n, q) >= stats.MIN_BEYOND
        higher = [c for c in stats.TAIL_CANDIDATES if c > q]
        assert all(stats.beyond(n, c) < stats.MIN_BEYOND for c in higher)


def test_summarize_reports_count_and_falls_back_to_max():
    values = [float(v) for v in range(1, 1001)]
    summary = stats.summarize(values)
    assert summary == {"n": 1000, "p50": 500.0, "tail_q": 99.0,
                       "tail": 990.0}
    assert sum(v > summary["tail"] for v in values) == 10
    few = stats.summarize([3.0, 1.0, 2.0])
    assert few["tail_q"] == 100.0 and few["tail"] == 3.0 and few["n"] == 3


def test_spread_is_iqr_over_median():
    assert stats.spread([10.0]) == 0.0
    assert stats.spread([10.0] * 10) == 0.0
    values = [float(v) for v in range(1, 11)]
    assert stats.spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
