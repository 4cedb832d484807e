"""The benchmark's four workloads, driven through the public API of ``repro``.

Every input is generated here with numpy from the run's seed; nothing comes
from ``repro.workloads`` or the program's own bench modules, so a change to
program code cannot change what is measured.  Ground truth is computed with
numpy from the generated arrays, never through the program.

Each workload is a closed loop:

* ``adhoc`` - one analyst runs ISLA statements one after another on the
  serial path (``AQPEngine.plan`` + ``execute_plan`` with a fresh
  ``SeedSequence`` child per query);
* ``scan`` - the same serial loop over one large table through the partition
  backend (``AQPEngine(parallelism=1)``), rotating ISLA, EXACT, US, STS and
  MVB;
* ``ingest`` - one generator thread keeps ``nproc`` Zipf-popular statements
  outstanding at a cached ``QueryService`` over durable, memory-mapped tables,
  with
  an ``append_array`` every 20 answered queries, a checkpoint every 25
  appends, and close/reopen with write-ahead-log replay after the loop.
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Deque, Dict, Iterator, List, NamedTuple, Optional, Sequence

import numpy as np

from repro import AQPEngine, QueryService, ReproError

import measure
import speed

__all__ = ["Sizes", "Tally", "Statement", "WORKLOADS"]

NPROC = measure.nproc()

#: (distribution, table name); one 1M-row table of each in adhoc/serve/ingest
TABLES = (
    ("normal", "t_normal"),
    ("lognormal", "t_lognormal"),
    ("exponential", "t_exponential"),
)
SCAN_TABLE = "t_scan"


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark, :meth:`tiny` is for tests."""

    table_rows: int = 1_000_000
    table_blocks: int = 16
    scan_rows: int = 8_000_000
    scan_blocks: int = 32
    append_rows: int = 10_000
    queries_per_append: int = 20
    appends_per_checkpoint: int = 25
    reopens: int = 15
    setups: int = 5

    @classmethod
    def tiny(cls) -> "Sizes":
        return cls(
            table_rows=20_000,
            table_blocks=4,
            scan_rows=40_000,
            scan_blocks=8,
            append_rows=500,
            queries_per_append=5,
            appends_per_checkpoint=3,
            reopens=2,
            setups=1,
        )


def make_values(rng: np.random.Generator, distribution: str, rows: int) -> np.ndarray:
    if distribution == "normal":
        return rng.normal(100.0, 20.0, rows)
    if distribution == "lognormal":
        return rng.lognormal(3.0, 1.0, rows)
    if distribution == "exponential":
        return rng.exponential(50.0, rows)
    raise ValueError(f"unknown distribution {distribution!r}")


class Statement(NamedTuple):
    text: str
    table: str
    precision: float
    confidence: float
    method: str


def statement(table: str, precision: float, confidence: float, method: str = "ISLA") -> Statement:
    precision = float(f"{precision:.6g}")
    text = f"SELECT AVG(value) FROM {table} PRECISION {precision!r} CONFIDENCE {confidence!r}"
    if method != "ISLA":
        text += f" METHOD {method}"
    return Statement(text, table, precision, confidence, method)


class Truth:
    """Exact AVG of every prefix of a table that queries may have seen.

    Appends only add rows, so the row count an answer was computed over
    (``AggregateResult.data_size``) names the prefix it must be compared to.
    """

    def __init__(self, values: np.ndarray) -> None:
        self.rows = int(values.size)
        self.total = float(np.sum(values))
        self.by_rows: Dict[int, float] = {self.rows: self.total / self.rows}

    @property
    def mean(self) -> float:
        return self.by_rows[self.rows]

    def add(self, values: np.ndarray) -> None:
        self.rows += int(values.size)
        self.total += float(np.sum(values))
        self.by_rows[self.rows] = self.total / self.rows


# --------------------------------------------------------------------- tally
class Tally:
    """End-to-end observations of one run (updated from the generator thread).

    With a :class:`speed.Reference`, the loop samples the reference kernel
    every :data:`speed.SAMPLE_EVERY` seconds while no query is in flight;
    the pauses are left out of :attr:`wall`.
    """

    def __init__(self, reference: Optional[speed.Reference] = None) -> None:
        self.latencies: List[float] = []
        self.append_latencies: List[float] = []
        self.reopen_seconds: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.answered = 0
        self.misses = 0
        self.sample_rows = 0
        self.cache_hits = 0
        self.queue_wait = 0.0
        self.start = 0.0
        self.wall = 0.0
        self.problems: List[str] = []
        self.reference = reference
        #: kernel times sampled during the loop
        self.speed_samples: List[float] = []
        #: seconds of the loop spent sampling the kernel
        self.paused = 0.0
        self._next_sample = 0.0

    def speed_due(self) -> bool:
        return self.reference is not None and time.perf_counter() >= self._next_sample

    def sample_speed(self) -> None:
        """Sample the reference kernel; call only when no query is in flight."""
        began = time.perf_counter()
        self.speed_samples.append(self.reference.sample())
        end = time.perf_counter()
        self.paused += end - began
        self._next_sample = end + speed.SAMPLE_EVERY

    def close_loop(self) -> None:
        """Mark the end of the loop; :attr:`wall` leaves the kernel pauses out."""
        self.wall = time.perf_counter() - self.start - self.paused

    def problem(self, message: str) -> None:
        """Record a failed output check (the run reports ``correct: false``)."""
        self.problems.append(message)

    def failure(self) -> None:
        self.attempted += 1
        self.failed += 1

    def answer(
        self,
        stmt: Statement,
        value: float,
        truth: float,
        latency: float,
        rows: int,
        cache_hit: bool = False,
        queue_wait: float = 0.0,
    ) -> None:
        if not math.isfinite(value):
            self.problem(f"non-finite answer {value!r} to {stmt.text!r}")
        if stmt.method == "EXACT" and abs(value - truth) > 1e-9 * abs(truth):
            self.problem(f"EXACT answered {value!r}, numpy says {truth!r}")
        self.attempted += 1
        self.answered += 1
        self.latencies.append(latency)
        self.sample_rows += rows
        self.misses += abs(value - truth) > stmt.precision
        self.cache_hits += cache_hit
        self.queue_wait += queue_wait

    def append(self, latency: float) -> None:
        self.attempted += 1
        self.append_latencies.append(latency)


# --------------------------------------------------------------------- loops
def serial_loop(
    engine: AQPEngine,
    order: Iterator[Statement],
    truths: Dict[str, Truth],
    seeds: np.random.SeedSequence,
    seconds: float,
    tally: Tally,
) -> None:
    """One caller, one query at a time, for ``seconds`` of wall time."""
    clock = time.perf_counter
    start = tally.start = clock()
    deadline = start + seconds
    while clock() < deadline:
        stmt = next(order)
        seed = seeds.spawn(1)[0]
        began = clock()
        try:
            result = engine.execute_plan(engine.plan(stmt.text), seed=seed)
        except ReproError:
            tally.failure()
            continue
        latency = clock() - began
        tally.answer(stmt, result.value, truths[stmt.table].mean, latency, result.sample_size)
        if tally.speed_due():
            tally.sample_speed()
    tally.close_loop()


def shuffled_cycle(statements: Sequence[Statement], rng: np.random.Generator) -> Iterator[Statement]:
    """Every statement once per cycle, in a fresh seeded order each cycle."""
    while True:
        for index in rng.permutation(len(statements)):
            yield statements[index]


def rotation(statements: Sequence[Statement]) -> Iterator[Statement]:
    while True:
        yield from statements


def zipf_draws(statements: Sequence[Statement], rng: np.random.Generator,
               exponent: float = 1.3, chunk: int = 4096) -> Iterator[Statement]:
    """Endless statements with Zipf popularity by catalogue rank."""
    weights = 1.0 / np.arange(1, len(statements) + 1) ** exponent
    p = weights / weights.sum()
    while True:
        for index in rng.choice(len(statements), chunk, p=p):
            yield statements[index]


def served_loop(
    service,
    order: Iterator[Statement],
    truths: Dict[str, Truth],
    seconds: float,
    tally: Tally,
    after_answer: Optional[Callable[[], None]] = None,
) -> None:
    """One generator thread keeping ``nproc`` queries outstanding.

    Outcomes are collected oldest first.  Latency runs from ``submit`` to
    the moment the generator holds the outcome.  When a speed sample is due
    the generator stops submitting, drains what is outstanding, and samples.
    """
    clock = time.perf_counter
    start = tally.start = clock()
    deadline = start + seconds
    outstanding: Deque[tuple] = deque()
    while True:
        due = tally.speed_due()
        while len(outstanding) < NPROC and not due and clock() < deadline:
            stmt = next(order)
            outstanding.append((stmt, clock(), service.submit(stmt.text)))
        if not outstanding:
            if due and clock() < deadline:
                tally.sample_speed()
                continue
            break
        stmt, began, ticket = outstanding.popleft()
        outcome = ticket.outcome(timeout=120)
        latency = clock() - began
        record_outcome(stmt, outcome, truths, latency, tally)
        if after_answer is not None:
            after_answer()
    tally.close_loop()


def record_outcome(stmt: Statement, outcome, truths: Dict[str, Truth], latency: float, tally: Tally) -> None:
    if not outcome.ok:
        tally.failure()
        return
    result = outcome.result
    if outcome.cache_hit:
        achieved = result.details.get("achieved_precision")
        confidence = result.details.get("achieved_confidence")
        if achieved is None or confidence is None:
            tally.problem(f"cache hit without an achieved bound for {stmt.text!r}")
        elif achieved > stmt.precision or confidence < stmt.confidence:
            tally.problem(
                f"cache contract violated: served e={achieved} beta={confidence} "
                f"for {stmt.text!r}"
            )
    truth = truths[stmt.table].by_rows.get(result.raw.data_size)
    if truth is None:
        tally.problem(f"answer over {result.raw.data_size} rows of {stmt.table}, never a table size")
        truth = math.nan
    tally.answer(
        stmt,
        result.value,
        truth,
        latency,
        0 if outcome.cache_hit else result.sample_size,
        cache_hit=outcome.cache_hit,
        queue_wait=outcome.queue_seconds,
    )


# ----------------------------------------------------------------- storage
def directory_files(root: Path) -> Dict[str, tuple]:
    """``path -> (inode, size)`` of every file under ``root``."""
    files = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            try:
                info = os.stat(path)
            except FileNotFoundError:
                continue
            files[path] = (info.st_ino, info.st_size)
    return files


def bytes_written(before: Dict[str, tuple], after: Dict[str, tuple]) -> int:
    """Bytes written between two snapshots, from file sizes.

    A new or replaced file (new inode) counts whole; a file that grew
    counts its growth.
    """
    total = 0
    for path, (inode, size) in after.items():
        old = before.get(path)
        if old is None or old[0] != inode:
            total += size
        elif size > old[1]:
            total += size - old[1]
    return total


def exact_answers(engine: AQPEngine, tables: Sequence[str]) -> Dict[str, tuple]:
    """``table -> (rows, EXACT AVG)`` through the program."""
    answers = {}
    for table in tables:
        result = engine.execute(f"SELECT AVG(value) FROM {table} METHOD EXACT")
        answers[table] = (result.sample_size, result.value)
    return answers


def reopen_and_verify(directories: Dict[str, Path], expected: Dict[str, tuple],
                      reopens: int, tally: Tally) -> None:
    """Time ``AQPEngine.open`` of every table, ``reopens`` times, and check
    that every acknowledged append survived (row count and EXACT answer)."""
    for _ in range(reopens):
        engine = AQPEngine()
        began = time.perf_counter()
        for table, directory in directories.items():
            engine.open(directory, name=table)
        tally.reopen_seconds.append(time.perf_counter() - began)
        try:
            found = exact_answers(engine, list(directories))
        finally:
            engine.close()
        for table, before in expected.items():
            if found[table] != before:
                tally.problem(
                    f"{table} after reopen: (rows, EXACT) {found[table]} != {before} before close"
                )


# ----------------------------------------------------------------- workloads
@dataclass
class State:
    engine: AQPEngine
    truths: Dict[str, Truth]
    statements: List[Statement]
    service: Optional[QueryService] = None
    directories: Dict[str, Path] = field(default_factory=dict)
    service_stats: Optional[dict] = None
    storage: Dict[str, float] = field(default_factory=dict)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
        self.engine.close()


class Workload:
    """Set-up, measured loop, post-loop phase and output checks of one workload."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        data, order, queries, appends = np.random.SeedSequence(seed).spawn(4)
        self.data_seed = data
        self.order_seed = order
        self.query_seeds = queries
        self.append_seed = appends
        self.setups = 0

    def tables(self, engine: AQPEngine) -> Dict[str, Truth]:
        """Generate the three 1M-row tables and register them in memory."""
        rng = np.random.default_rng(self.data_seed)
        truths = {}
        for distribution, table in TABLES:
            values = make_values(rng, distribution, self.sizes.table_rows)
            engine.register_array(table, values, block_count=self.sizes.table_blocks)
            truths[table] = Truth(values)
        return truths

    def setup(self) -> State:
        raise NotImplementedError

    def loop(self, state: State, seconds: float, tally: Tally, traced: bool) -> None:
        raise NotImplementedError

    def after_loop(self, state: State, tally: Tally, traced: bool) -> None:
        """Work after the measured loop that belongs to the workload."""

    def verify(self, state: State, tally: Tally) -> None:
        """Output checks that run untraced, after the loop."""


def warm_up(engine: AQPEngine, statements: Sequence[Statement]) -> None:
    for stmt in statements:
        engine.execute_plan(engine.plan(stmt.text), seed=0)


class Adhoc(Workload):
    name = "adhoc"

    def setup(self) -> State:
        engine = AQPEngine()
        truths = self.tables(engine)
        statements = [
            statement(table, share * truths[table].mean, confidence)
            for _, table in TABLES
            for share in (0.005, 0.01, 0.02)
            for confidence in (0.90, 0.95, 0.99)
        ]
        warm_up(engine, statements[::9])
        return State(engine, truths, statements)

    def loop(self, state: State, seconds: float, tally: Tally, traced: bool) -> None:
        order = shuffled_cycle(state.statements, np.random.default_rng(self.order_seed))
        serial_loop(state.engine, order, state.truths, self.query_seeds, seconds, tally)


class Scan(Workload):
    name = "scan"
    methods = ("ISLA", "EXACT", "US", "STS", "MVB")

    def setup(self) -> State:
        # The timed loop runs the partition backend at parallelism 1: at
        # nproc, one vCPU losing time to the hypervisor stalls every fan-out,
        # and run-to-run spreads of p99 reached 0.29 on a 2-vCPU host.  The
        # nproc path is still run, and checked, by verify().
        engine = AQPEngine(parallelism=1)
        rng = np.random.default_rng(self.data_seed)
        values = make_values(rng, "lognormal", self.sizes.scan_rows)
        engine.register_array(SCAN_TABLE, values, block_count=self.sizes.scan_blocks)
        truths = {SCAN_TABLE: Truth(values)}
        mean = truths[SCAN_TABLE].mean
        statements = [statement(SCAN_TABLE, 0.01 * mean, 0.95, method) for method in self.methods]
        warm_up(engine, statements)
        return State(engine, truths, statements)

    def loop(self, state: State, seconds: float, tally: Tally, traced: bool) -> None:
        serial_loop(state.engine, rotation(state.statements), state.truths,
                    self.query_seeds, seconds, tally)

    def verify(self, state: State, tally: Tally) -> None:
        """Every method answers bit-identically at parallelism 1 and nproc."""
        wide_engine = AQPEngine(parallelism=NPROC)
        wide_engine.register_store(state.engine.catalog.resolve(SCAN_TABLE))
        for stmt in state.statements:
            wide = wide_engine.execute_plan(wide_engine.plan(stmt.text), seed=self.seed)
            narrow = state.engine.execute_plan(state.engine.plan(stmt.text), seed=self.seed)
            if (wide.value, wide.sample_size) != (narrow.value, narrow.sample_size):
                tally.problem(
                    f"{stmt.method}: parallelism {NPROC} gave {wide.value!r}, "
                    f"parallelism 1 gave {narrow.value!r}"
                )


class Ingest(Workload):
    name = "ingest"

    def setup(self) -> State:
        self.setups += 1
        root = self.workdir / f"ingest-{self.setups}"
        directories = {table: root / table for _, table in TABLES}
        with AQPEngine() as source:
            truths = self.tables(source)
            for table, directory in directories.items():
                source.save(table, directory)
        engine = AQPEngine()
        for table, directory in directories.items():
            engine.open(directory, name=table, mmap=True)
        # 24 ISLA statements, 8 per table; catalogue order is popularity rank
        statements = [
            statement(table, share * truths[table].mean, confidence)
            for share in (0.005, 0.01, 0.02, 0.04)
            for confidence in (0.99, 0.95)
            for _, table in TABLES
        ]
        warm_up(engine, statements[:3])
        service = engine.serve(workers=NPROC, seed=self.seed)
        return State(engine, truths, statements, service=service, directories=directories)

    def loop(self, state: State, seconds: float, tally: Tally, traced: bool) -> None:
        sizes = self.sizes
        rng = np.random.default_rng(self.append_seed)
        distributions = dict((table, dist) for dist, table in TABLES)
        tables = [table for _, table in TABLES]
        counts = {"answered": 0, "appends": 0, "written": 0, "appended": 0}

        def maybe_append() -> None:
            counts["answered"] += 1
            if counts["answered"] % sizes.queries_per_append:
                return
            table = tables[counts["appends"] % len(tables)]
            values = make_values(rng, distributions[table], sizes.append_rows)
            before = directory_files(state.directories[table]) if traced else None
            began = time.perf_counter()
            try:
                state.engine.append_array(table, values)
            except ReproError:
                tally.failure()
                return
            tally.append(time.perf_counter() - began)
            # outcomes are recorded on this thread, so none can need it sooner
            state.truths[table].add(values)
            counts["appends"] += 1
            if counts["appends"] % sizes.appends_per_checkpoint == 0:
                state.engine.save(table, state.directories[table])
            if traced:
                counts["written"] += bytes_written(before, directory_files(state.directories[table]))
                counts["appended"] += values.nbytes

        order = zipf_draws(state.statements, np.random.default_rng(self.order_seed))
        served_loop(state.service, order, state.truths, seconds, tally, after_answer=maybe_append)
        state.service_stats = state.service.stats()
        state.storage = {
            "storage.blocks": float(sum(
                state.engine.catalog.resolve(table).block_count for table in tables
            )),
            "storage.write_amp": counts["written"] / counts["appended"] if counts["appended"] else 0.0,
        }

    def after_loop(self, state: State, tally: Tally, traced: bool) -> None:
        """Close, then reopen with WAL frames pending replay."""
        state.service.close()
        expected = exact_answers(state.engine, list(state.directories))
        for table, (rows, value) in expected.items():
            if rows != state.truths[table].rows:
                tally.problem(f"{table}: {rows} rows before close, {state.truths[table].rows} appended")
        state.engine.close()
        reopen_and_verify(state.directories, expected, self.sizes.reopens, tally)


WORKLOADS = {cls.name: cls for cls in (Adhoc, Scan, Ingest)}
