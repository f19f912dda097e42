"""In-memory spans around each layer's public function.

The benchmark records spans from its own files: while a
:class:`LayerTracer` is installed, the module attributes the pipeline
looks up at call time (``repro.oolong.parser.tokenize``,
``repro.vcgen.checker.vc_for_impl``, ``VCBundle.prove``, ...) are
replaced by timing wrappers, and restored on exit. Nothing under
``src/`` changes, and an uninstalled tracer costs nothing.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("ident", "parent", "name", "start", "end", "args")

    def __init__(self, ident: int, parent: Optional[int], name: str, start: float):
        self.ident = ident
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.args: Dict[str, object] = {}


class SpanRecorder:
    """Spans with parent links, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self.paused = False

    def open(self, name: str) -> Span:
        parent = self._stack[-1].ident if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def pause(self):
        """Record nothing inside the block (for work that is not measured)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        if self.paused:
            return fn(*args, **kwargs)
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def self_times(self) -> Dict[int, float]:
        """Each span's duration minus the time its children cover."""
        own = {span.ident: span.end - span.start for span in self.spans}
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, summed ``self`` seconds and summed args."""
        own = self.self_times()
        totals: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            entry = totals[span.name]
            entry["count"] += 1
            entry["self"] += own[span.ident]
            for key, value in span.args.items():
                if isinstance(value, (int, float)):
                    entry[key] += value
        return totals

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace complete events (microseconds)."""
        origin = min((span.start for span in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "cat": "op" if span.parent is None else "layer",
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round((span.end - span.start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"id": span.ident, "parent": span.parent, **span.args},
            }
            for span in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _prove_counts(result) -> Dict[str, int]:
    stats = result.stats
    return {
        "instantiations": stats.instantiations,
        "matches": stats.matches,
        "merges": stats.merges,
        "branches": stats.branches,
        "conflicts": stats.conflicts,
        "rounds": stats.rounds,
    }


def _targets():
    """(owner, attribute, span name, counts of the result) per layer."""
    import repro.analysis.engine as engine
    import repro.api as api
    import repro.oolong.parser as parser
    import repro.parallel.cache as cache
    import repro.vcgen.checker as checker
    from repro.vcgen.vc import VCBundle

    return [
        (parser, "tokenize", "lex", lambda r: {"tokens": len(r)}),
        (parser, "parse_program_text", "parse", lambda r: {"decls": len(r)}),
        (api, "check_well_formed", "wellformed", None),
        (checker, "check_well_formed", "wellformed", None),
        (engine, "check_well_formed", "wellformed", None),
        (checker, "check_pivot_uniqueness", "pivot", None),
        (engine, "lint_scope", "lint", lambda r: {"diagnostics": len(r.diagnostics)}),
        (checker, "vc_for_impl", "vcgen", lambda r: {
            "hypotheses": len(r.hypotheses), "obligations": len(r.obligations),
        }),
        (VCBundle, "prove", "prove", _prove_counts),
        (cache, "cache_key", "cache.key", None),
        (cache.ResultCache, "load", "cache.load", lambda r: {"hits": int(r is not None)}),
        (cache.ResultCache, "store", "cache.store", None),
    ]


class LayerTracer:
    """Installs the layer wrappers on enter and restores them on exit."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[tuple] = []

    def _wrap(self, fn: Callable, name: str, counts) -> Callable:
        recorder = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if recorder.paused:
                return fn(*args, **kwargs)
            span = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            if counts is not None:
                span.args.update(counts(result))
            if name == "prove":
                span.args["impl"] = args[0].impl.name
            if name == "vcgen":
                span.args["goal_nodes"] = recorder.call(
                    "trace.count", _goal_nodes, result
                )
            return result

        return wrapper

    def __enter__(self) -> "LayerTracer":
        for owner, attribute, name, counts in _targets():
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, counts))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


def _goal_nodes(bundle) -> int:
    from repro.vcgen.vc import formula_nodes

    return formula_nodes(bundle.goal)
