#!/usr/bin/env python3
"""Serial end-to-end benchmark of the modifies-list checker.

Usage, from the root of a checkout::

    python3 checkbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Drives ``repro.api.check_program`` in this one process and thread over a
seeded workload (``paper``, ``farm`` or ``edit-recheck``), judges every
report against answers known apart from the checker (``oracle``), and
prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
metrics. Its times are scaled to a nominal machine pace (``pace``).
``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones from a separate traced pass, and writes that pass's
spans as a Chrome trace under ``.bench_out/``. See README.md.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from typing import Callable, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

from corpus import EditSession, Item, farm_corpus, paper_corpus  # noqa: E402
from layers import LayerTracer, SpanRecorder  # noqa: E402
from oracle import Blame, comparable, judge  # noqa: E402
from pace import at_pace, scaled, time_reference  # noqa: E402
from stats import p90_or_none, round_median  # noqa: E402

WORKLOADS = ("paper", "farm", "edit-recheck")
#: setup_s is the median of this many set-ups, each in a fresh process:
#: the run's own, and probes started after its timed pass.
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 60
#: edit-recheck compares the cached report with a cold check at one
#: seeded step of every DIFFERENTIAL_EVERY-th round.
DIFFERENTIAL_EVERY = 8

#: The untimed warm-up check: one implementation that verifies and one
#: whose write to ``b`` (in no group) is not licensed.
WARMUP_TEXT = """group g
field a in g
field b
proc seta(t) modifies t.g
impl seta(t) { assume t != null ; t.a := 1 }
proc setb(t) modifies t.g
impl setb(t) { assume t != null ; t.b := 1 }
"""
WARMUP_EXPECTED = {("seta", 0): None, ("setb", 0): Blame(7, "b", "write-licence")}


def import_checker() -> float:
    """Import the checker from this checkout's ``src``; returns seconds
    since process start. Exits non-zero when the sources are absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "api.py")):
        sys.exit(f"checkbench: no checker sources under {src}")
    sys.path.insert(0, src)
    import repro
    import repro.analysis.effects  # noqa: F401  (imported lazily by the checker)
    import repro.analysis.engine  # noqa: F401
    import repro.api  # noqa: F401
    import repro.corpus.generators  # noqa: F401
    import repro.corpus.programs  # noqa: F401
    import repro.parallel.cache  # noqa: F401

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"checkbench: imported repro from {repro.__file__}, not {src}")
    return time.perf_counter() - _PROCESS_START


class Tally:
    """Operations attempted and failed, and each operation's start and
    timing with the reference loop's time just before it (see ``pace``)."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.references: List[float] = []
        self.starts: List[float] = []
        #: index into ``times`` where each round began
        self.round_starts: List[int] = []
        self.verdicts = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.integrity: List[str] = []
        self.last_failed = False

    def check(self, name: str, text: str, expected, recorder=None, **kwargs):
        """One timed ``check_program`` call, judged against ``expected``."""
        from repro.api import check_program

        self.attempted += 1
        self.last_failed = True
        gc.collect()
        reference = time_reference()
        gc.collect()
        start = time.perf_counter()
        try:
            if recorder is None:
                report = check_program(text, **kwargs)
            else:
                report = recorder.call("check", check_program, text, **kwargs)
        except Exception as exc:  # a raising check is a failed operation
            self.failed += 1
            self.problems.append(f"{name}: raised {exc!r}")
            return None
        self.times.append(time.perf_counter() - start)
        self.references.append(reference)
        self.starts.append(start)
        self.verdicts += len(report.verdicts)
        self.last_failed = False
        self.fail_last(name, judge(report, expected))
        return report

    def scaled_times(self) -> List[float]:
        return scaled(self.times, self.references, self.starts)

    def fail_last(self, name: str, problems: List[str]) -> None:
        """Count the last operation as failed if ``problems`` holds any."""
        if problems and not self.last_failed:
            self.failed += 1
            self.last_failed = True
        self.problems.extend(f"{name}: {p}" for p in problems)


def warm_up(tally: Tally) -> None:
    from repro.api import check_program

    problems = judge(check_program(WARMUP_TEXT), WARMUP_EXPECTED)
    tally.integrity.extend(f"warm-up: {p}" for p in problems)


def discharge_directly(recorder: SpanRecorder, text: str) -> None:
    """Static discharge, which no end-to-end path runs while it is off by
    default, called directly on the workload's input."""
    from repro.analysis import effects
    from repro.api import parse_program

    with recorder.pause():
        scope = parse_program(text)
    span = recorder.open("discharge")
    try:
        result = effects.discharge_scope(scope)
    finally:
        recorder.close(span)
    summary = result.summary_dict()
    settled = summary["obligations"]["static-valid"] + summary["obligations"]["static-violation"]
    span.args.update(obligations=summary["obligations_total"], settled=settled)


class FileWorkload:
    """``paper`` and ``farm``: every file of the corpus checked cold,
    once per round, in seeded order."""

    def __init__(self, make: Callable[[int], List[Item]]):
        self.make = make

    def generate(self, seed: int):
        return self.make(seed)

    def fill(self, items, tally: Tally) -> None:
        warm_up(tally)

    def round(self, items, tally: Tally, recorder) -> None:
        for item in items:
            tally.check(item.name, item.text, item.expected, recorder)
            if recorder is not None:
                discharge_directly(recorder, item.text)


class EditState:
    def __init__(self, session: EditSession, cache_dir: str, seed: int):
        self.session = session
        self.cache_dir = cache_dir
        self.rounds = 0
        self.differential = random.Random(f"{seed}-differential")


class EditWorkload:
    """``edit-recheck``: one large farm file, re-checked with a warm
    result cache after every one-implementation edit."""

    def __init__(self, scratch: str):
        self.scratch = scratch

    def generate(self, seed: int) -> EditState:
        return EditState(EditSession(seed), tempfile.mkdtemp(dir=self.scratch), seed)

    def fill(self, state: EditState, tally: Tally) -> None:
        from repro.api import check_program

        warm_up(tally)
        session = state.session
        report = check_program(session.text(), cache_dir=state.cache_dir)
        tally.integrity.extend(f"cold fill: {p}" for p in judge(report, session.expected()))

    def round(self, state: EditState, tally: Tally, recorder) -> None:
        from repro.api import check_program

        session = state.session
        edits = session.round_edits()
        compare_at = None
        if state.rounds % DIFFERENTIAL_EVERY == 0:
            compare_at = state.differential.randrange(len(edits))
        state.rounds += 1
        for step, (action, impl) in enumerate(edits):
            getattr(session, action)(impl)
            name = f"step {state.rounds}.{step} {action} {impl}"
            text, expected = session.text(), session.expected()
            report = tally.check(name, text, expected, recorder, cache_dir=state.cache_dir)
            if recorder is not None:
                discharge_directly(recorder, text)
            if step == compare_at and report is not None:
                with recorder.pause() if recorder is not None else nullcontext():
                    cold = check_program(text)
                problems = [f"cold check: {p}" for p in judge(cold, expected)]
                if comparable(cold) != comparable(report):
                    problems.append("cached report differs from a cold check")
                tally.fail_last(name, problems)


def make_workload(name: str, scratch: str):
    if name == "paper":
        return FileWorkload(lambda seed: paper_corpus(ROOT, seed))
    if name == "farm":
        return FileWorkload(farm_corpus)
    return EditWorkload(scratch)


def run_rounds(workload, state, tally: Tally, seconds: float, recorder=None,
               rounds: Optional[int] = None) -> int:
    """Whole rounds until the next one would end past ``seconds`` (at
    least one), or exactly ``rounds`` rounds when given."""
    start = time.perf_counter()
    done = 0
    while True:
        tally.round_starts.append(len(tally.times))
        workload.round(state, tally, recorder)
        done += 1
        if rounds is not None:
            if done >= rounds:
                return done
            continue
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds:
            return done


def layer_metrics(recorder: SpanRecorder, operations: int) -> dict:
    totals = recorder.totals()

    def per_op(name: str, key: str) -> float:
        return totals[name][key] / operations if name in totals else 0.0

    def ms(name: str) -> float:
        return 1000.0 * per_op(name, "self")

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    loads, hits = per_op("cache.load", "count"), per_op("cache.load", "hits")
    misses = loads - hits
    obligations, settled = per_op("discharge", "obligations"), per_op("discharge", "settled")
    matches, instances = per_op("prove", "matches"), per_op("prove", "instantiations")
    return {
        "lex.ms": (ms("lex"), "ms"),
        "lex.tokens": (per_op("lex", "tokens"), "count"),
        "parse.ms": (ms("parse"), "ms"),
        "parse.decls": (per_op("parse", "decls"), "count"),
        "wellformed.ms": (ms("wellformed"), "ms"),
        "wellformed.calls": (per_op("wellformed", "count"), "count"),
        "pivot.ms": (ms("pivot"), "ms"),
        "lint.ms": (ms("lint"), "ms"),
        "lint.diagnostics": (per_op("lint", "diagnostics"), "count"),
        "discharge.ms": (ms("discharge"), "ms"),
        "discharge.obligations": (obligations, "count"),
        "discharge.settled": (settled, "count"),
        "discharge.settled_ratio": (ratio(settled, obligations), "ratio"),
        "vcgen.ms": (ms("vcgen"), "ms"),
        "vcgen.goal_nodes": (per_op("vcgen", "goal_nodes"), "count"),
        "vcgen.hypotheses": (per_op("vcgen", "hypotheses"), "count"),
        "vcgen.obligations": (per_op("vcgen", "obligations"), "count"),
        "prove.ms": (ms("prove"), "ms"),
        "prove.instantiations": (instances, "count"),
        "prove.matches": (matches, "count"),
        "prove.merges": (per_op("prove", "merges"), "count"),
        "prove.branches": (per_op("prove", "branches"), "count"),
        "prove.conflicts": (per_op("prove", "conflicts"), "count"),
        "prove.rounds": (per_op("prove", "rounds"), "count"),
        "prove.instances_per_match": (ratio(instances, matches), "ratio"),
        "cache.key_ms": (ms("cache.key"), "ms"),
        "cache.load_ms": (ms("cache.load"), "ms"),
        "cache.store_ms": (ms("cache.store"), "ms"),
        "cache.hits": (hits, "count"),
        "cache.misses": (misses, "count"),
        "cache.hit_ratio": (ratio(hits, loads), "ratio"),
        "checker.self_ms": (ms("check"), "ms"),
    }


def setup_probe(options, tally: Tally) -> float:
    """One more set-up of the workload in a fresh process, which pays
    every import and first-call cost again; returns its seconds from
    process start to where its first timed check would begin."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", options.workload,
        "--seed", str(options.seed), "--seconds", "0", "--setup-only",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"checkbench: set-up probe exited {done.returncode}:\n{done.stderr}")
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    tally.integrity.extend(f"set-up probe: {p}" for p in probe["integrity"])
    return probe["setup_s"]


def per_file_counts(recorder: SpanRecorder) -> List[dict]:
    """Prover counts of every traced ``prove`` span, for the trace file."""
    return [dict(span.args) for span in recorder.spans if span.name == "prove"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the seconds to the first timed check, and exit")
    options = parser.parse_args(argv)

    import_s = import_checker()
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        return measure(options, import_s, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(options, import_s: float, scratch: str) -> int:
    workload = make_workload(options.workload, scratch)
    tally = Tally()
    start = time.perf_counter()
    state = workload.generate(options.seed)
    generated = time.perf_counter()
    workload.fill(state, tally)
    filled = time.perf_counter()
    # Each operation starts from a clean heap, as a fresh checker process
    # would: what set-up built is frozen out of the collector's scans, and
    # the garbage of earlier operations is collected before the clock
    # starts. Without this, a full collection lands on a different file
    # in every process, and single timings swing by up to 50%.
    gc.collect()
    gc.freeze()
    setup_s = at_pace(time.perf_counter() - _PROCESS_START)
    if options.setup_only:
        print(json.dumps({"setup_s": setup_s, "integrity": tally.integrity}))
        return 0

    if not options.trace:
        rounds = run_rounds(workload, state, tally, options.seconds)
        times = tally.scaled_times()
        p90 = p90_or_none(times)
        setups = [setup_s] + [
            setup_probe(options, tally) for _ in range(SETUP_SAMPLES - 1)
        ]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "impls_per_s": (tally.verdicts / sum(times), "1/s"),
            "check_ms.p50": (1000.0 * round_median(times, tally.round_starts), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        extra = f"check_ms.p90={1000.0 * p90:.1f}" if p90 is not None else "check_ms.p90 withheld"
        extra += (
            f" unscaled: impls_per_s={tally.verdicts / sum(tally.times):.2f}"
            f" check_ms.p50={1000.0 * round_median(tally.times, tally.round_starts):.1f}"
            f" reference_ms.p50={1000.0 * statistics.median(tally.references):.3f}"
        )
    else:
        rounds = run_rounds(workload, state, tally, options.seconds / 2)
        untraced_ops = len(tally.times)
        recorder = SpanRecorder()
        with LayerTracer(recorder):
            run_rounds(workload, state, tally, 0, recorder, rounds=rounds)
        times = tally.scaled_times()
        untraced_s, traced_times = sum(times[:untraced_ops]), times[untraced_ops:]
        overhead = (sum(traced_times) / len(traced_times)) / (untraced_s / untraced_ops) - 1.0
        metrics = layer_metrics(recorder, len(traced_times))
        metrics.update({
            "setup.import_ms": (1000.0 * import_s, "ms"),
            "setup.generate_ms": (1000.0 * (generated - start), "ms"),
            "setup.fill_ms": (1000.0 * (filled - generated), "ms"),
            "trace.overhead_pct": (100.0 * overhead, "%"),
        })
        trace = recorder.chrome_trace()
        from repro.obs import validate_chrome_trace

        error = validate_chrome_trace(trace)
        if error is not None:
            tally.integrity.append(f"chrome trace: {error}")
        trace["checkbench"] = {
            "workload": options.workload,
            "seed": options.seed,
            "rounds": rounds,
            "prove": per_file_counts(recorder),
        }
        path = os.path.join(OUT, f"trace-{options.workload}-{options.seed}.json")
        with open(path, "w") as handle:
            json.dump(trace, handle)
        extra = f"trace={os.path.relpath(path, ROOT)} spans={len(recorder.spans)}"

    for problem in (tally.integrity + tally.problems)[:20]:
        print(f"checkbench: {problem}", file=sys.stderr)
    print(
        f"checkbench: {options.workload} seed={options.seed} rounds={rounds} "
        f"ops={tally.attempted} failed={tally.failed} {extra}",
        file=sys.stderr,
    )
    result = {
        "correct": not tally.integrity,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
