from stats import (
    P90_MIN_SAMPLES,
    nearest_rank,
    p90_or_none,
    quartiles,
    round_median,
    spread,
)


def test_nearest_rank_matches_hand_computed_values():
    values = [35, 20, 15, 50, 40]  # sorted: 15 20 35 40 50
    assert nearest_rank(values, 5) == 15  # rank ceil(0.25) = 1
    assert nearest_rank(values, 30) == 20  # rank ceil(1.5) = 2
    assert nearest_rank(values, 40) == 20  # rank ceil(2.0) = 2
    assert nearest_rank(values, 50) == 35  # rank ceil(2.5) = 3
    assert nearest_rank(values, 100) == 50
    assert nearest_rank(list(range(1, 11)), 50) == 5  # even count: lower middle
    assert nearest_rank(list(range(1, 101)), 90) == 90


def test_p90_is_withheld_below_one_hundred_samples():
    assert P90_MIN_SAMPLES == 100
    assert p90_or_none([1.0] * 99) is None
    assert p90_or_none(list(range(1, 100))) is None
    assert p90_or_none(list(range(1, 101))) == 90
    assert p90_or_none(list(range(1, 201))) == 180


def test_quartiles_and_spread():
    values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    q1, median, q3 = quartiles(values)
    assert (q1, median, q3) == (2.75, 5.5, 8.25)
    assert spread(values) == (8.25 - 2.75) / 5.5


def test_round_median_takes_the_median_of_each_rounds_median():
    # three rounds of four operations; round medians (rank 2) are 2, 3, 9
    values = [1, 2, 5, 7] + [3, 1, 8, 6] + [9, 9, 1, 10]
    assert round_median(values, [0, 4, 8]) == 3
    # one slow sample in the middle rank of one round moves nothing
    assert round_median([1, 2, 5, 7] + [3, 1, 80, 6] + [9, 9, 1, 10], [0, 4, 8]) == 3
    assert round_median([4.0], [0]) == 4.0
