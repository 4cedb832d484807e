"""Layer tracing taken from outside the program.

The traced run installs timing shims around the public entry points of each
layer of ``repro``.  Every shim replaces the name where its caller looks it
up (a module attribute or a class attribute), records one span per call and
restores the original on :meth:`Tracer.uninstall`.

A span carries a name, start and end (``time.perf_counter``), its parent and
a request id shared by every span of one request.  The current span lives in
a ``contextvars.ContextVar``: the scan pool copies the caller's context into
its worker threads, so partition spans hang under the scan that caused them,
while serving worker threads start empty and each served request becomes its
own root.  Spans stay in memory until the run ends; :func:`self_seconds`
turns them into self time (duration minus the time covered by child spans)
and :func:`layer_metrics` into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Span",
    "Tracer",
    "covered_seconds",
    "self_seconds",
    "layer_metrics",
    "TARGETS",
]


class Span:
    """One timed call of a shimmed entry point."""

    __slots__ = ("name", "start", "end", "parent", "request", "tags")

    def __init__(self, name: str, start: float, parent: Optional["Span"], request: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.tags: Optional[Dict[str, Any]] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def tag(self, key: str, value: Any) -> None:
        if self.tags is None:
            self.tags = {}
        self.tags[key] = value


# ------------------------------------------------------------------ targets
def _block_tags(span: Span, args, result) -> None:
    span.tag("case", result.case)
    span.tag("iterations", result.iterations)


def _scan_tags(span: Span, args, result) -> None:
    # map_partitions / scan_partial (self, function, items, parallelism, ...)
    span.tag("partitions", len(args[2]))
    span.tag("failed", len(getattr(result, "failures", ()) or ()))


def _serve_tags(span: Span, args, result) -> None:
    span.tag("cache_hit", bool(result.cache_hit))


def _open_tags(span: Span, args, result) -> None:
    span.tag("replayed", int(result.recovered_appends))


def _sampling_name(args) -> str:
    return f"sampling.{args[0].method}"


#: (module, attribute path, span name or name function, tag hook).  The
#: attribute path names the object where callers look the entry point up.
#: ``QueryService._serve`` is the one private name: it is the per-request
#: boundary on the serving worker threads, which gives served requests
#: their request id.
TARGETS: Tuple[Tuple[str, str, Any, Optional[Callable]], ...] = (
    ("repro.query.engine", "parse_query", "query.parse", None),
    ("repro.query.engine", "plan_query", "query.plan", None),
    ("repro.query.engine", "AQPEngine.execute_plan", "engine.execute_plan", None),
    ("repro.query.executor", "QueryExecutor.execute", "query.execute", None),
    ("repro.core.pre_estimation", "PreEstimator.estimate", "core.pre_estimate", None),
    ("repro.core.calculation", "BlockCalculator.run", "core.block", _block_tags),
    ("repro.core.isla", "combine_block_results", "core.combine", None),
    ("repro.parallel.isla", "combine_block_results", "core.combine", None),
    ("repro.stats.confidence", "normal_quantile", "stats.normal_quantile", None),
    ("repro.core.modulation", "theorem1_step_ratio", "core.step_ratio", None),
    ("repro.sampling.base", "BaselineAggregator.aggregate", _sampling_name, None),
    ("repro.parallel.pool", "ScanPool.map_partitions", "parallel.scan", _scan_tags),
    ("repro.parallel.pool", "ScanPool.scan_partial", "parallel.scan", _scan_tags),
    ("repro.parallel", "parallel_exact_mean", "parallel.exact", None),
    ("repro.serve.cache", "ResultCache.lookup", "serve.cache.lookup", None),
    ("repro.serve.service", "QueryService._serve", "serve.request", _serve_tags),
    ("repro.storage.wal", "WriteAheadLog.append", "storage.wal.append", None),
    ("repro.storage.blockstore", "BlockStore.append_block", "storage.block.append", None),
    ("repro.storage.persist", "DurableBlockStore.checkpoint", "storage.checkpoint", None),
    ("repro.storage.persist", "DurableBlockStore.open", "storage.open", _open_tags),
)


class Tracer:
    """Collects spans from the shims it installs."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._requests = itertools.count(1)
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording
    def wrap(self, function: Callable, name, tags: Optional[Callable] = None) -> Callable:
        """Return ``function`` wrapped so every call records one span."""
        current = self._current
        spans = self.spans
        requests = self._requests
        clock = time.perf_counter

        @functools.wraps(function)
        def shim(*args, **kwargs):
            parent = current.get()
            request = parent.request if parent is not None else next(requests)
            span = Span(name(args) if callable(name) else name, clock(), parent, request)
            token = current.set(span)
            try:
                result = function(*args, **kwargs)
                if tags is not None:
                    tags(span, args, result)
                return result
            finally:
                span.end = clock()
                current.reset(token)
                spans.append(span)

        return shim

    # ------------------------------------------------------------- patching
    def install(self, targets: Iterable[Tuple[str, str, Any, Optional[Callable]]] = TARGETS) -> None:
        """Patch every target; names that no longer exist are listed in ``missing``."""
        for module_name, path, name, tags in targets:
            owner: Any = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            except (AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            if isinstance(original, classmethod):
                replacement: Any = classmethod(self.wrap(original.__func__, name, tags))
            else:
                replacement = self.wrap(original, name, tags)
            setattr(owner, attribute, replacement)
            self._undo.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # -------------------------------------------------------------- output
    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, request."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": ids.get(id(span.parent)) if span.parent is not None else None,
                    "request": span.request,
                }
                if span.tags:
                    record["tags"] = span.tags
                handle.write(json.dumps(record) + "\n")


# ----------------------------------------------------------------- analysis
def covered_seconds(intervals: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_seconds(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span, keyed by ``id(span)``.

    Children may run concurrently on pool threads, so the time they cover is
    the union of their intervals, not the sum.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append((span.start, span.end))
    return {
        id(span): span.seconds - covered_seconds(children.get(id(span), ()), span.start, span.end)
        for span in spans
    }


def _root(span: Span) -> Span:
    while span.parent is not None:
        span = span.parent
    return span


def layer_metrics(
    spans: Sequence[Span],
    queries: int,
    service_stats: Optional[Dict[str, Any]] = None,
    queue_wait_seconds: float = 0.0,
) -> Dict[str, float]:
    """Per-layer metrics of one traced loop.

    Times are in milliseconds.  Query-path layers are divided by the
    ``queries`` answered in the loop (ms or count per query); storage calls
    are divided by their own call count (ms per call).
    """
    per_query = 1.0 / queries if queries else 0.0  # counts per query
    ms_per_query = 1000.0 * per_query  # seconds -> ms per query
    own = self_seconds(spans)
    self_total: Dict[str, float] = defaultdict(float)
    wall_total: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    cases: Dict[str, int] = defaultdict(int)
    iterations = partitions = failed = replayed = 0
    served_execute = core_on_hits = 0.0
    hit_requests = set()
    for span in spans:
        self_total[span.name] += own[id(span)]
        wall_total[span.name] += span.seconds
        calls[span.name] += 1
        tags = span.tags or {}
        if span.name == "core.block":
            cases[tags["case"]] += 1
            iterations += tags["iterations"]
        elif span.name == "parallel.scan":
            partitions += tags["partitions"]
            failed += tags["failed"]
        elif span.name == "storage.open":
            replayed += tags["replayed"]
        elif span.name == "serve.request" and tags.get("cache_hit"):
            hit_requests.add(span.request)
    for span in spans:
        if span.name == "engine.execute_plan" and _root(span).name == "serve.request":
            served_execute += span.seconds
        if span.request in hit_requests and span.name.startswith(("core.", "stats.")):
            core_on_hits += own[id(span)]

    def per_call(name: str) -> float:
        return 1000.0 * wall_total[name] / calls[name] if calls[name] else 0.0

    def self_per_call(name: str) -> float:
        return 1000.0 * self_total[name] / calls[name] if calls[name] else 0.0

    metrics = {
        "query.parse.self_ms": self_total["query.parse"] * ms_per_query,
        "query.plan.self_ms": self_total["query.plan"] * ms_per_query,
        "query.execute.self_ms": self_total["query.execute"] * ms_per_query,
        "core.pre_estimate.self_ms": self_total["core.pre_estimate"] * ms_per_query,
        "core.block.self_ms": self_total["core.block"] * ms_per_query,
        "core.block.calls": calls["core.block"] * per_query,
        "core.combine.self_ms": self_total["core.combine"] * ms_per_query,
        "core.iterations": iterations * per_query,
        "core.cache_hit.self_ms": 1000.0 * core_on_hits / len(hit_requests) if hit_requests else 0.0,
        "stats.normal_quantile.calls": calls["stats.normal_quantile"] * per_query,
        "stats.normal_quantile.self_ms": self_total["stats.normal_quantile"] * ms_per_query,
        "core.step_ratio.calls": calls["core.step_ratio"] * per_query,
        "core.step_ratio.self_ms": self_total["core.step_ratio"] * ms_per_query,
        "parallel.scan.wall_ms": wall_total["parallel.scan"] * ms_per_query,
        "parallel.partitions": partitions * per_query,
        "parallel.exact.self_ms": self_total["parallel.exact"] * ms_per_query,
        "parallel.failed_partitions": float(failed),
        "serve.cache.lookup.self_ms": self_total["serve.cache.lookup"] * ms_per_query,
        "serve.execute.wall_ms": served_execute * ms_per_query,
        "serve.queue_wait_ms": queue_wait_seconds * ms_per_query,
        "storage.wal.append.self_ms": self_per_call("storage.wal.append"),
        "storage.block.append.self_ms": self_per_call("storage.block.append"),
        "storage.checkpoint.wall_ms": per_call("storage.checkpoint"),
        "storage.open.wall_ms": per_call("storage.open"),
        "storage.wal.replayed": float(replayed),
    }
    for case in range(1, 6):
        metrics[f"core.case.{case}"] = cases[f"case{case}"] * per_query
    for method in ("US", "STS", "MVB"):
        metrics[f"sampling.{method}.self_ms"] = self_total[f"sampling.{method}"] * ms_per_query
    stats = service_stats or {}
    cache = stats.get("cache") or {}
    rejected = stats.get("rejected") or {}
    metrics["serve.cache.hit_rate"] = float(cache.get("hit_rate", 0.0))
    metrics["serve.cache.evictions"] = float(cache.get("evictions", 0))
    metrics["serve.cache.invalidations"] = float(cache.get("invalidations", 0))
    metrics["serve.coalesced"] = float(stats.get("coalesced", 0))
    metrics["serve.retries"] = float(stats.get("retries", 0))
    for reason in ("queue_full", "deadline", "circuit_open"):
        metrics[f"serve.rejected.{reason}"] = float(rejected.get(reason, 0))
    return metrics
