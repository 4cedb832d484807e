"""Untraced and traced runs of one workload, and the metrics they report."""

from __future__ import annotations

import statistics
import time
from typing import Dict, List

import layers
import measure
import speed
from workloads import Tally, Workload

__all__ = ["END_TO_END_UNITS", "PER_LAYER_UNITS", "end_to_end", "run_untraced", "run_traced"]

END_TO_END_UNITS = {
    "setup_s": "s",
    "import_s": "s",
    "peak_rss_mb": "MB",
    "throughput_qps": "1/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "success_rate": "ratio",
    "miss_rate": "ratio",
    "sample_rows_per_query": "rows",
}

PER_LAYER_UNITS = {
    "query.parse.self_ms": "ms/query",
    "query.plan.self_ms": "ms/query",
    "query.execute.self_ms": "ms/query",
    "core.pre_estimate.self_ms": "ms/query",
    "core.block.self_ms": "ms/query",
    "core.block.calls": "count/query",
    "core.combine.self_ms": "ms/query",
    "core.iterations": "count/query",
    **{f"core.case.{case}": "count/query" for case in range(1, 6)},
    "core.cache_hit.self_ms": "ms/hit",
    "stats.normal_quantile.calls": "count/query",
    "stats.normal_quantile.self_ms": "ms/query",
    "core.step_ratio.calls": "count/query",
    "core.step_ratio.self_ms": "ms/query",
    "sampling.US.self_ms": "ms/query",
    "sampling.STS.self_ms": "ms/query",
    "sampling.MVB.self_ms": "ms/query",
    "parallel.scan.wall_ms": "ms/query",
    "parallel.partitions": "count/query",
    "parallel.exact.self_ms": "ms/query",
    "parallel.failed_partitions": "count",
    "serve.queue_wait_ms": "ms/query",
    "serve.cache.lookup.self_ms": "ms/query",
    "serve.cache.hit_rate": "ratio",
    "serve.cache.evictions": "count",
    "serve.cache.invalidations": "count",
    "serve.execute.wall_ms": "ms/query",
    "serve.coalesced": "count",
    "serve.retries": "count",
    "serve.rejected.queue_full": "count",
    "serve.rejected.deadline": "count",
    "serve.rejected.circuit_open": "count",
    "storage.wal.append.self_ms": "ms/call",
    "storage.block.append.self_ms": "ms/call",
    "storage.append.p50_ms": "ms",
    "storage.append.p90_ms": "ms",
    "storage.reopen_s": "s",
    "storage.checkpoint.wall_ms": "ms/call",
    "storage.open.wall_ms": "ms/call",
    "storage.wal.replayed": "count",
    "storage.blocks": "count",
    "storage.write_amp": "ratio",
    "trace.throughput_qps": "1/s",
    "trace.untraced_throughput_qps": "1/s",
    "trace.overhead": "ratio",
    "trace.spans": "count",
    "trace.missing_shims": "count",
}


def _entries(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, dict]:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _tail_note(label: str, samples: List[float], q: float) -> str:
    flag = "" if measure.tail_supported(samples, q) else f" (fewer than {measure.MIN_TAIL}: not supported)"
    return f"{label}: {len(samples)} samples, {measure.samples_beyond(samples, q)} beyond p{q:g}{flag}"


def end_to_end(tally: Tally, setup_seconds: List[float], import_seconds: List[float],
               loop_factor: float = 1.0) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run (times converted to ms/s).

    ``setup_seconds`` and ``import_seconds`` are taken as given; the loop's
    times are multiplied by ``loop_factor`` (:func:`speed.loop_factor`).
    """
    answered = max(tally.answered, 1)
    return {
        "setup_s": statistics.median(setup_seconds),
        "import_s": statistics.median(import_seconds),
        "peak_rss_mb": measure.peak_rss_mb(),
        "throughput_qps": tally.answered / (tally.wall * loop_factor),
        "query_p50_ms": 1000.0 * loop_factor * measure.percentile(tally.latencies, 50),
        "query_p99_ms": 1000.0 * loop_factor * measure.percentile(tally.latencies, 99),
        "success_rate": (tally.attempted - tally.failed) / max(tally.attempted, 1),
        "miss_rate": tally.misses / answered,
        "sample_rows_per_query": tally.sample_rows / answered,
    }


def _notes(workload: Workload, tally: Tally) -> List[str]:
    return [
        f"workload {workload.name}: {tally.answered} queries answered in {tally.wall:.2f} s, "
        f"{tally.cache_hits} from cache, {tally.misses} outside +-e, "
        f"{tally.failed} failed of {tally.attempted} operations",
        _tail_note("query latency", tally.latencies, 99),
        *([_tail_note("append latency", tally.append_latencies, 90)] if tally.append_latencies else []),
        *([f"reopens: {len(tally.reopen_seconds)}"] if tally.reopen_seconds else []),
    ]


def _bracketed(reference: speed.Reference, seconds: float, before: float) -> float:
    """``seconds`` at reference speed, from kernel samples just before and after.

    The faster of the two sets the factor: a sample can be slowed by a
    transient (the first kernel runs after a child process exits), never
    sped up.  Over ten runs of each workload on a 2-vCPU VM this cut the
    spread of ``import_s`` from 0.14 to 0.10 on ingest and from 0.05 to
    0.03 on adhoc.
    """
    return seconds * speed.factor([min(before, reference.sample())])


def _listing(label: str, raw: List[float], scaled: List[float]) -> str:
    pairs = ", ".join(f"{r:.3f}->{s:.3f}" for r, s in zip(raw, scaled))
    return f"{label} (s, raw->reference speed): {pairs}"


def run_untraced(workload: Workload, seconds: float, own_import: float, src: str,
                 fresh_imports: int = 11) -> dict:
    """Set up ``sizes.setups`` times, run the loop, verify, then time imports.

    ``own_import`` is this interpreter's ``import repro``, taken before the
    reference kernel existed; it is scaled by kernel samples taken right
    after it.  Each set-up and fresh import is bracketed by kernel samples.
    """
    reference = speed.Reference()
    own_import_scaled = _bracketed(reference, own_import, reference.sample())
    setup_raw, setup_seconds = [], []
    state = None
    for _ in range(workload.sizes.setups):
        if state is not None:
            state.close()
        before = reference.sample()
        began = time.perf_counter()
        state = workload.setup()
        setup_raw.append(time.perf_counter() - began)
        setup_seconds.append(_bracketed(reference, setup_raw[-1], before))
    tally = Tally(reference)
    try:
        workload.loop(state, seconds, tally, traced=False)
        workload.after_loop(state, tally, traced=False)
        workload.verify(state, tally)
    finally:
        state.close()
    import_raw, import_seconds = [own_import], [own_import_scaled]
    for _ in range(fresh_imports):
        before = reference.sample()
        import_raw.append(measure.fresh_import_seconds(src))
        import_seconds.append(_bracketed(reference, import_raw[-1], before))
    loop_factor = speed.loop_factor(tally.speed_samples)
    metrics = end_to_end(tally, setup_seconds, import_seconds, loop_factor)
    raw = end_to_end(tally, setup_raw, import_raw)
    notes = _notes(workload, tally)
    notes.append(
        f"reference kernel: {len(tally.speed_samples)} loop samples, median "
        f"{1000 * statistics.median(tally.speed_samples):.3f} ms against "
        f"{1000 * speed.REFERENCE_S:.3f} ms; loop times x {loop_factor:.4f}"
    )
    notes.append(_listing("setup runs", setup_raw, setup_seconds))
    notes.append(_listing("imports", import_raw, import_seconds))
    notes.append("raw (host speed): " + ", ".join(
        f"{name}={raw[name]:.6g}" for name in ("setup_s", "import_s", "throughput_qps",
                                               "query_p50_ms", "query_p99_ms")
    ))
    return {
        "metrics": _entries(metrics, END_TO_END_UNITS),
        "raw_metrics": raw,
        "speed": {
            "reference_s": speed.REFERENCE_S,
            "loop_exponent": speed.LOOP_EXPONENT,
            "loop_factor": loop_factor,
            "loop_samples": tally.speed_samples,
            "samples": reference.samples,
        },
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "notes": notes,
    }


def run_traced(workload: Workload, seconds: float) -> dict:
    """Half the seconds untraced, then half traced from a fresh set-up."""
    half = seconds / 2.0
    reference = speed.Reference()
    state = workload.setup()
    baseline = Tally(reference)
    try:
        workload.loop(state, half, baseline, traced=False)
    finally:
        state.close()

    state = workload.setup()
    tally = Tally(reference)
    tracer = layers.Tracer()
    try:
        tracer.install()
        try:
            workload.loop(state, half, tally, traced=True)
            workload.after_loop(state, tally, traced=True)
        finally:
            tracer.uninstall()
        workload.verify(state, tally)
    finally:
        state.close()

    values = layers.layer_metrics(
        tracer.spans,
        tally.answered,
        service_stats=state.service_stats,
        queue_wait_seconds=tally.queue_wait,
    )
    appends = tally.append_latencies
    values["storage.append.p50_ms"] = 1000.0 * measure.percentile(appends, 50) if appends else 0.0
    values["storage.append.p90_ms"] = 1000.0 * measure.percentile(appends, 90) if appends else 0.0
    values["storage.reopen_s"] = statistics.median(tally.reopen_seconds) if tally.reopen_seconds else 0.0
    values["storage.blocks"] = state.storage.get("storage.blocks", 0.0)
    values["storage.write_amp"] = state.storage.get("storage.write_amp", 0.0)
    # at reference speed, so host drift between the halves is not overhead
    traced_qps = tally.answered / (tally.wall * speed.loop_factor(tally.speed_samples))
    untraced_qps = baseline.answered / (baseline.wall * speed.loop_factor(baseline.speed_samples))
    values["trace.throughput_qps"] = traced_qps
    values["trace.untraced_throughput_qps"] = untraced_qps
    values["trace.overhead"] = 1.0 - traced_qps / untraced_qps
    values["trace.spans"] = float(len(tracer.spans))
    values["trace.missing_shims"] = float(len(tracer.missing))
    notes = _notes(workload, tally)
    notes.extend(f"shim target missing: {name}" for name in tracer.missing)
    return {
        "metrics": _entries(values, PER_LAYER_UNITS),
        "attempted": baseline.attempted + tally.attempted,
        "failed": baseline.failed + tally.failed,
        "problems": baseline.problems + tally.problems,
        "notes": notes,
        "spans": tracer,
    }
