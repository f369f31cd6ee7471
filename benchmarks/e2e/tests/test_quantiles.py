from quantiles import percentile, quartiles, spread, tail_percentile


def test_tail_needs_ten_samples_beyond():
    # p99 of 1000 samples has exactly 10 beyond it; of 999 it has fewer.
    assert tail_percentile(1000, 99) == 99
    assert tail_percentile(999, 99) == 95
    # p95 needs 200 samples, p90 needs 100, p75 needs 40.
    assert tail_percentile(200, 99) == 95
    assert tail_percentile(199, 99) == 90
    assert tail_percentile(100, 99) == 90
    assert tail_percentile(99, 99) == 75
    assert tail_percentile(40, 99) == 75
    assert tail_percentile(39, 99) == 50


def test_tail_never_exceeds_the_wanted_percentile():
    assert tail_percentile(10**6, 90) == 90
    assert tail_percentile(10**6, 99) == 99
    assert tail_percentile(10**6, 99.9) == 99.9


def test_tail_of_too_few_samples_is_the_median():
    assert tail_percentile(5, 99) == 50
    assert tail_percentile(0, 99) == 50


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4, 5], 50) == 3
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile(range(101), 99) == 99
    assert percentile([7], 99) == 7


def test_spread_is_iqr_over_median():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    q1, q2, q3 = quartiles(values)
    assert spread(values) == (q3 - q1) / q2
    assert spread([5.0]) == 0.0
