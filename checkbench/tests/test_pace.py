import pytest

from pace import NOMINAL_MS, WINDOW, at_pace, reference_loop, scaled, time_reference


def back_to_back(times):
    """Start times of operations that run one after another."""
    starts, clock = [], 0.0
    for value in times:
        starts.append(clock)
        clock += value
    return starts


def test_a_machine_slowdown_cancels_and_a_checker_slowdown_shows():
    nominal = NOMINAL_MS / 1000.0
    times = [0.05, 0.08, 0.12, 0.07, 0.30, 0.09]
    paced = scaled(times, [nominal] * len(times), back_to_back(times))
    assert paced == pytest.approx(times)
    # the machine runs 1.5x slower: the checks and the loop alike
    slow = [1.5 * t for t in times]
    slow_machine = scaled(slow, [1.5 * nominal] * len(times), back_to_back(slow))
    assert slow_machine == pytest.approx(paced)
    # the checker runs 1.5x slower, the loop does not
    slow_checker = scaled(slow, [nominal] * len(times), back_to_back(slow))
    assert slow_checker == pytest.approx([1.5 * t for t in paced])


def test_each_operation_is_scaled_by_its_neighbours_median_reference():
    count = 2 * WINDOW + 3
    times = [0.1] * count
    references = [0.002] * count
    references[0] = 1.0  # one stalled loop timing moves no operation
    assert scaled(times, references, back_to_back(times)) == pytest.approx(
        [0.1 * NOMINAL_MS / 2.0] * count
    )
    with pytest.raises(ValueError):
        scaled([0.1, 0.2], [0.002], [0.0, 0.1])


def test_a_long_operation_is_scaled_by_the_pace_over_its_own_span_around_it():
    # 40 quick checks, one 10 s check, 40 quick checks; the loop ran at
    # the nominal pace except at the long check's edges, where it ran
    # twice as slow
    times = [0.1] * 40 + [10.0] + [0.1] * 40
    references = [NOMINAL_MS / 1000.0] * len(times)
    for i in range(40 - WINDOW, 40 + WINDOW + 1):
        references[i] *= 2
    long_check = scaled(times, references, back_to_back(times))[40]
    assert long_check == pytest.approx(10.0)


def test_the_reference_loop_is_fixed_work():
    assert reference_loop() == reference_loop()
    assert time_reference() > 0
    assert at_pace(0.0) == 0.0 < at_pace(1.0)
