import os

import pytest

from conftest import ROOT
from oracle import (
    FAILING_SPECS,
    Blame,
    failing_expected,
    judge,
    locate_command,
    paper_expected,
)
from run import Tally


def read_failing(name):
    with open(os.path.join(ROOT, "examples", "failing", name)) as handle:
        return handle.read()


def test_blamed_lines_come_from_the_text_not_the_header():
    # bad_write's header says line 10; the write is on line 13.
    assert locate_command(read_failing("bad_write.oolong"), "t.outside := 1") == 13
    assert locate_command(read_failing("bad_call.oolong"), "reset(v)") == 19
    with pytest.raises(ValueError):
        locate_command("a := 1 ;\na := 1", "a := 1")


@pytest.mark.parametrize("name", sorted(FAILING_SPECS))
def test_failing_examples_match_their_header_blame(name):
    from repro.api import check_program

    text = read_failing(name)
    assert judge(check_program(text), failing_expected(name, text)) == []


@pytest.mark.parametrize("name", ["RATIONAL", "EX-5.2", "EX-5.3"])
def test_cheap_paper_programs_match_the_paper(name):
    from repro.api import check_program
    from repro.corpus.programs import PAPER_PROGRAMS

    assert judge(check_program(PAPER_PROGRAMS[name]), paper_expected(name)) == []


def test_a_flipped_verdict_counts_the_operation_as_failed():
    text = read_failing("bad_write.oolong")
    tally = Tally()
    tally.check("flipped", text, {("trim", 0): None})
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "expected verified" in tally.problems[0]

    text = read_failing("bad_call.oolong")
    expected = failing_expected("bad_call.oolong", text)
    expected[("reset", 0)] = Blame(12, "mode", "write-licence")
    tally.check("flipped-to-failing", text, expected)
    assert (tally.attempted, tally.failed) == (2, 2)


def test_a_wrong_blamed_line_or_attribute_counts_as_failed():
    text = read_failing("bad_write.oolong")
    tally = Tally()
    tally.check("right", text, {("trim", 0): Blame(13, "outside", "write-licence")})
    tally.check("line", text, {("trim", 0): Blame(10, "outside", "write-licence")})
    tally.check("attr", text, {("trim", 0): Blame(13, "cnt", "write-licence")})
    tally.check("missing", text, {("trim", 0): None, ("other", 0): None})
    assert (tally.attempted, tally.failed) == (4, 3)


def test_a_later_differential_problem_fails_the_operation_once():
    text = read_failing("bad_write.oolong")
    tally = Tally()
    tally.check("step", text, {("trim", 0): Blame(13, "outside", "write-licence")})
    tally.fail_last("step", ["cached report differs from a cold check"])
    tally.fail_last("step", ["another"])
    assert (tally.attempted, tally.failed) == (1, 1)
