"""Expected answers, known apart from the checker, and the judge that
compares a report against them.

Three sources of truth, none of them a stored copy of checker output:

* the paper's stated verdict for every ``PAPER_PROGRAMS`` implementation,
  written by hand below;
* the blame each ``examples/failing`` program's header comment states:
  the command and attribute are written here, and the command's line is
  found in the file's own text (header comments can carry stale line
  numbers: ``bad_write``'s says line 10, the write is on line 13);
* answers known by construction for generated files (see ``corpus``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

VERIFIED = "verified"
NOT_PROVED = "not proved"


@dataclass(frozen=True)
class Blame:
    """The obligation a non-proof must be stuck on."""

    line: int
    attr: str
    kind: str


#: (implementation name, index among same-name impls) -> None when the
#: implementation must verify, else the blame its non-proof must carry.
Expected = Dict[Tuple[str, int], Optional[Blame]]

#: The paper's verdicts. Every implementation of the paper's programs is
#: correct with respect to its modifies list: §2's rational and
#: stack/vector examples are the running examples of legal effects;
#: §3.0 states a static checker "will not complain about the assertion
#: in procedure q"; §3.1's ``w`` is verifiable because owner exclusion
#: is assumed on entry; §5's ``p``, ``twice`` ("easy to prove") and
#: ``updateAll`` (hand proof "delightfully simple", though the paper's
#: Simplify looped on it) all meet their frames.
PAPER_VERDICTS: Dict[str, Tuple[str, ...]] = {
    "RATIONAL": ("normalize",),
    "STACK_VECTOR": ("vec_add", "push", "new_stack"),
    "EX-3.0-client": ("q",),
    "EX-3.1-w": ("w",),
    "EX-5.1": ("p",),
    "EX-5.2": ("twice",),
    "EX-5.3": ("updateAll",),
}


@dataclass(frozen=True)
class FailingSpec:
    """What a failing example's header comment blames."""

    impl: str
    command: str
    attr: str
    kind: str
    verified: Tuple[str, ...] = ()


#: From each file's header comment: bad_call — "the call-licence proof
#: fails; --explain blames the call command" (the call of ``reset``,
#: whose ``v.state`` effect ``use`` does not declare); bad_rep_write —
#: "blames the assignment" to ``s.vec.tag``; bad_write — "the write-licence
#: proof fails", blaming the write to ``outside``.
FAILING_SPECS: Dict[str, FailingSpec] = {
    "bad_call.oolong": FailingSpec(
        "use", "reset(v)", "state", "call-licence", verified=("reset",)
    ),
    "bad_rep_write.oolong": FailingSpec(
        "poke", "s.vec.tag := 2", "tag", "write-licence"
    ),
    "bad_write.oolong": FailingSpec(
        "trim", "t.outside := 1", "outside", "write-licence"
    ),
}


def paper_expected(name: str) -> Expected:
    return {(impl, 0): None for impl in PAPER_VERDICTS[name]}


def locate_command(text: str, command: str) -> int:
    """1-based line of the only line whose statement is ``command``."""
    found = [
        number
        for number, line in enumerate(text.splitlines(), start=1)
        if line.strip().rstrip(";").strip() == command
    ]
    if len(found) != 1:
        raise ValueError(f"command {command!r} found on lines {found}")
    return found[0]


def failing_expected(filename: str, text: str) -> Expected:
    spec = FAILING_SPECS[filename]
    expected: Expected = {(impl, 0): None for impl in spec.verified}
    expected[(spec.impl, 0)] = Blame(
        locate_command(text, spec.command), spec.attr, spec.kind
    )
    return expected


def judge(report, expected: Expected) -> List[str]:
    """Every way ``report`` departs from ``expected``; empty when right."""
    problems: List[str] = [f"fatal: {d}" for d in report.fatal]
    problems += [f"restriction: {v}" for v in report.pivot_violations]
    got = {(v.impl.name, v.index): v for v in report.verdicts}
    if set(got) != set(expected) or len(got) != len(report.verdicts):
        problems.append(
            f"implementations {sorted(got)} != expected {sorted(expected)}"
        )
    for key, blame in expected.items():
        verdict = got.get(key)
        if verdict is None:
            continue
        status = verdict.status.value
        if blame is None:
            if status != VERIFIED:
                problems.append(f"{key}: {status}, expected {VERIFIED}")
            continue
        if status != NOT_PROVED:
            problems.append(f"{key}: {status}, expected {NOT_PROVED}")
            continue
        failed = verdict.failed_obligation
        actual = (
            None
            if failed is None or failed.position is None
            else Blame(failed.position.line, failed.attr, failed.kind)
        )
        if actual != blame:
            problems.append(f"{key}: blamed {actual}, expected {blame}")
    return problems


def comparable(report) -> dict:
    """A report's rendering without its wall-clock fields, for the
    cached-versus-cold differential."""
    rendered = report.to_dict()
    rendered.pop("elapsed", None)
    for verdict in rendered["verdicts"]:
        verdict["stats"].pop("elapsed", None)
    return rendered
