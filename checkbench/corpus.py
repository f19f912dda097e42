"""Seeded inputs for the three workloads, each with its expected answers.

The make-up of every corpus is fixed; the seed varies only what leaves
the checker's work about the same: the order of the files, the names of
fields and groups, literal values, and where a near-miss puts its stray
write. So two seeds give different texts at about the same cost.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from oracle import (
    Blame,
    Expected,
    FAILING_SPECS,
    failing_expected,
    paper_expected,
)

STRAY_KIND = "write-licence"

# farm make-up: impl farms of each field count, once with one impl and
# once with two; pivot towers; deep group towers; call chains; wide
# scopes. Every NEAR_MISS_EVERY-th file of each family also gets a
# near-miss copy with one stray write to a field in no group.
FARM_FIELDS = range(2, 15)
FARM_IMPLS = (1, 2)
PIVOT_DEPTHS = range(2, 8)
DEEP_DEPTHS = range(2, 25, 2)
CHAIN_LENGTHS = range(2, 27, 2)
WIDE_FIELDS = range(2, 21, 2)
NEAR_MISS_EVERY = 2

# paper: EX-3.0's client takes about 10 s per check, the other nine files
# about 0.6 s together. One pass over all ten would sample the median
# operation in one 0.6 s burst per 10 s, while the machine's speed swings
# by up to 1.7x over seconds; so a round checks the client once and the
# other files PAPER_QUICK_PASSES times each, spread through the round.
PAPER_SLOW = "EX-3.0-client"
PAPER_QUICK_PASSES = 10

# edit-recheck: one impl farm, edited one implementation at a time.
EDIT_IMPLS = 100
EDIT_FIELDS = 3


@dataclass
class Item:
    """One input file and the answer every check of it must give."""

    name: str
    text: str
    expected: Expected


def _fresh_name(rng: random.Random, taken: set) -> str:
    while True:
        name = "z" + "".join(rng.choice("abcdefghijklmnopqrstuvwxy") for _ in range(5))
        if name not in taken:
            taken.add(name)
            return name


def _rename_attributes(text: str, rng: random.Random) -> str:
    """Consistently rename every declared field and group."""
    declared = re.findall(r"^(?:group|field) (\w+)", text, flags=re.M)
    taken: set = set()
    mapping = {name: _fresh_name(rng, taken) for name in declared}
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, declared)) + r")\b")
    return pattern.sub(lambda match: mapping[match.group(1)], text)


def _impl_names(text: str) -> List[str]:
    return re.findall(r"^impl (\w+)\(", text, flags=re.M)


def _all_verified(text: str) -> Expected:
    return {(name, 0): None for name in _impl_names(text)}


def _declare_field(lines: List[str], name: str) -> None:
    """Add ``field name`` (in no group) before the first proc."""
    first_proc = next(i for i, line in enumerate(lines) if line.startswith("proc "))
    lines.insert(first_proc, f"field {name}")


def near_miss(name: str, text: str, rng: random.Random) -> Item:
    """A copy of ``text`` with one stray write to a field in no group.

    The stray write goes into a seeded implementation, after a seeded
    statement that follows its ``assume t != null``. That implementation
    must fail with the stray write's line and attribute; every other one
    still verifies.
    """
    lines = text.split("\n")
    stray = _fresh_name(rng, set(re.findall(r"\w+", text)))
    _declare_field(lines, stray)
    write = f"t.{stray} := {rng.randrange(100, 1000)}"
    targets = [
        i for i, line in enumerate(lines)
        if line.startswith("impl ") and (
            "assume t != null ; " in line
            or line.endswith("{") and lines[i + 1] == "  assume t != null ;"
        )
    ]
    start = rng.choice(targets)
    impl = re.match(r"impl (\w+)\(", lines[start]).group(1)
    if lines[start].endswith("{"):
        end = next(i for i in range(start, len(lines)) if lines[i] == "}")
        after = [i for i in range(start + 1, end) if lines[i].endswith(";")]
        at = rng.choice(after) + 1
        lines.insert(at, f"  {write} ;")
        line = at + 1
    else:
        lines[start] = lines[start].replace(
            "assume t != null ; ", f"assume t != null ; {write} ; ", 1
        )
        line = start + 1
    new_text = "\n".join(lines)
    expected = _all_verified(new_text)
    expected[(impl, 0)] = Blame(line, stray, STRAY_KIND)
    return Item(name, new_text, expected)


def paper_corpus(root: str, seed: int) -> List[Item]:
    """One round of ``paper``: the slow program once and every other
    paper program and failing example PAPER_QUICK_PASSES times, in
    seeded order."""
    from repro.corpus.programs import PAPER_PROGRAMS

    items = [
        Item(name, text, paper_expected(name))
        for name, text in PAPER_PROGRAMS.items()
    ]
    for filename in sorted(FAILING_SPECS):
        with open(os.path.join(root, "examples", "failing", filename)) as handle:
            text = handle.read()
        items.append(Item(filename, text, failing_expected(filename, text)))
    slow = [item for item in items if item.name == PAPER_SLOW]
    quick = [item for item in items if item.name != PAPER_SLOW]
    assert len(slow) == 1, PAPER_SLOW
    items = slow + quick * PAPER_QUICK_PASSES
    random.Random(seed).shuffle(items)
    return items


def farm_corpus(seed: int) -> List[Item]:
    """Generated files of every family, base and near-miss, shuffled."""
    from repro.corpus import generators

    rng = random.Random(seed)
    families: List[Tuple[str, List[str]]] = [
        ("farm", [
            generators.generate_impl_farm(impls, fields)
            for fields in FARM_FIELDS for impls in FARM_IMPLS
        ]),
        ("pivot", [generators.generate_pivot_tower(d) for d in PIVOT_DEPTHS]),
        ("deep", [generators.generate_deep_groups(d) for d in DEEP_DEPTHS]),
        ("chain", [generators.generate_call_chain(n) for n in CHAIN_LENGTHS]),
        ("wide", [generators.generate_wide_scope(n) for n in WIDE_FIELDS]),
    ]
    items: List[Item] = []
    for family, texts in families:
        for number, text in enumerate(texts):
            text = _rename_attributes(text, rng)
            items.append(Item(f"{family}-{number}", text, _all_verified(text)))
            if number % NEAR_MISS_EVERY == 0:
                items.append(near_miss(f"{family}-{number}-near-miss", text, rng))
    rng.shuffle(items)
    return items


class EditSession:
    """One large impl farm, edited one implementation at a time.

    An edit adds a stray write to a field in no group at the end of one
    of an implementation's write lines, or removes it again. Edits keep
    every line where it was, so each implementation's blamed line is
    known by construction.
    """

    def __init__(self, seed: int, impls: int = EDIT_IMPLS, fields: int = EDIT_FIELDS):
        from repro.corpus import generators

        self.rng = random.Random(seed)
        text = _rename_attributes(generators.generate_impl_farm(impls, fields), self.rng)
        self.lines = text.split("\n")
        self.stray = _fresh_name(self.rng, set(re.findall(r"\w+", text)))
        _declare_field(self.lines, self.stray)
        self.writes: Dict[str, List[int]] = {}
        current: Optional[str] = None
        for index, line in enumerate(self.lines):
            if line.startswith("impl "):
                current = re.match(r"impl (\w+)\(", line).group(1)
                self.writes[current] = []
            elif current is not None and line.startswith("  t."):
                self.writes[current].append(index)
        self.impls = list(self.writes)
        self.original = list(self.lines)
        #: impl -> index of the line that carries its stray write
        self.strays: Dict[str, int] = {}
        self._value = 1000

    def text(self) -> str:
        return "\n".join(self.lines)

    def expected(self) -> Expected:
        expected: Expected = {(name, 0): None for name in self.impls}
        for name, index in self.strays.items():
            expected[(name, 0)] = Blame(index + 1, self.stray, STRAY_KIND)
        return expected

    def remove(self, impl: str) -> None:
        index = self.strays.pop(impl)
        self.lines[index] = self.original[index]

    def add(self, impl: str) -> None:
        """Give ``impl`` a new stray write, replacing any it has; each
        added write carries a value never used before, so the edited
        implementation always misses the result cache."""
        if impl in self.strays:
            self.remove(impl)
        index = self.rng.choice(self.writes[impl])
        self._value += 1
        line = self.original[index]
        write = f"t.{self.stray} := {self._value}"
        if line.endswith(" ;"):
            self.lines[index] = f"{line[:-2]} ; {write} ;"
        else:
            self.lines[index] = f"{line} ; {write}"
        self.strays[impl] = index

    def round_edits(self) -> List[Tuple[str, str]]:
        """One round: add strays to two seeded implementations, then
        remove both again (two prover misses, two all-hit steps). A
        round ends on the text it started from, so every round costs
        the same however many a run makes."""
        first, second = self.rng.sample(self.impls, 2)
        return [("add", first), ("add", second), ("remove", first), ("remove", second)]
