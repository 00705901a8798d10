"""The three workloads and the cycle they share.

Every workload runs the same kinds of operation, one at a time from a
single closed-loop client, so that every metric of ``BENCHMARK.json`` is
measured on every workload.  The workloads differ in dataset, build
engine and how much of each operation they run, which decides where
the time goes (see README.md).

A run is one untimed set-up (dataset, loads, edge batches, oracle
answers) followed by ``cycles`` cycles.  Each cycle:

1. builds a fresh D(k)-index from a copy of the data graph (``build_s``)
   and answers a slice of the read stream on it: label-path queries
   drawn with skewed popularity from a generated load, plus regex
   queries (``query_*``, ``regex_p50_us``).  Between those queries the
   round's IDREF edge batch goes into the live, store-backed index, one
   journaled ``add_edge`` at a time (``update_cpu_us``, ``update_fsyncs``);
2. runs the paper's 100-query load on the live index, then
   ``promote()`` and ``checkpoint()``;
3. adds a short journaled tail batch, and on some cycles recovers the
   store from disk and compares it with the live index (``recover_s``).

After the last cycle every in-memory object of the program is dropped
(the crash) and the store is recovered again.  The machine's speed
drifts by tens of percent over seconds, so samples of every metric are
spread over the whole run rather than taken in one burst.  Set-up is
repeated twice more during the run for ``setup_s``.  Each cycle ends
with a fixed number of the workload's ``fill`` operation:
``fill_rate`` x ``--seconds`` of them per run, spread evenly over the
cycles.  So the operations of a run depend on its seed and
``--seconds`` only, never on how fast the host runs them.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import statistics
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from oracle import (
    ANY,
    ANY_STAR,
    CheckFailed,
    Oracle,
    Steps,
    check_edges_present,
    check_paged_reads,
    check_same_partition,
    is_label_path,
    query_text,
)

_clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    scale: float
    engine: str
    fill: str  # "read" | "build" | "recover"
    #: Fill operations per second of ``--seconds``, calibrated so that a
    #: run measures about ``--seconds`` on the reference host.
    fill_rate: float
    cycles: int
    read_stream: bool
    regex_count: int
    edges_per_round: int
    tail_edges: int
    drill_every: int
    final_recoveries: int
    pool_ratio: float | None = None


WORKLOADS = {
    spec.name: spec
    for spec in (
        Workload(
            name="xmark-read",
            dataset="xmark",
            scale=2.0,
            engine="auto",
            fill="read",
            fill_rate=0.4,
            cycles=12,
            read_stream=True,
            regex_count=60,
            edges_per_round=40,
            tail_edges=5,
            drill_every=3,
            final_recoveries=1,
        ),
        Workload(
            name="nasa-update",
            dataset="nasa",
            scale=1.5,
            engine="auto",
            fill="recover",
            fill_rate=0.1,
            cycles=10,
            read_stream=False,
            regex_count=60,
            edges_per_round=100,
            tail_edges=10,
            drill_every=4,
            final_recoveries=2,
        ),
        Workload(
            name="xmark-outofcore",
            dataset="xmark",
            scale=2.0,
            engine="external",
            fill="build",
            fill_rate=0.15,
            cycles=8,
            read_stream=True,
            regex_count=60,
            edges_per_round=40,
            tail_edges=5,
            drill_every=3,
            final_recoveries=2,
            pool_ratio=0.25,
        ),
    )
}

#: Size of the generated load whose distinct paths the read stream draws from.
STREAM_DISTINCT = 3000
#: Zipf exponent of query popularity in the read stream.
ZIPF_S = 0.5
#: Share of read-stream queries not covered by the tuning load.
UNCOVERED_SHARE = 0.05
#: Generator seed of every workload's data graph and tuning load.
DATASET_SEED = 20030609
#: Set-ups per run (``setup_s`` is their median).
SETUPS = 3
#: Paged adjacency reads compared against the in-memory CSR.
PAGED_SAMPLES = 1000


def csr_footprint_bytes(graph) -> int:
    """Bytes of the graph's frozen CSR buffers."""
    from repro.storage.paged import ENTRY_BYTES

    view = graph.copy().freeze()
    return ENTRY_BYTES * sum(
        len(buffer)
        for buffer in (view.label_ids, view.child_offsets, view.child_targets,
                       view.parent_offsets, view.parent_targets)
    )


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


@dataclass
class Inputs:
    graph: Any
    requirements: dict[str, int]
    paper: list[Steps]
    stream: list[Steps]
    regex: list[Steps]
    batches: list[tuple[list[tuple[int, int]], list[tuple[int, int]]]]
    oracle: Oracle


def _zipf(paths: list[Steps], count: int, rng: random.Random) -> list[Steps]:
    """``count`` draws from ``paths`` with Zipf popularity by position."""
    if count == 0:
        return []
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(paths))]
    return rng.choices(paths, weights=weights, k=count)


def _regex_queries(paths: list[Steps], count: int, rng: random.Random) -> list[Steps]:
    """Regex forms ``a._.c``, ``_.b.c`` and ``a._*.c`` from label paths."""
    long_paths = [path for path in paths if len(path) >= 3]
    chosen: list[Steps] = []
    seen: set[Steps] = set()
    attempts = 0
    while len(chosen) < count and attempts < 100 * count:
        attempts += 1
        path = rng.choice(long_paths)
        form = len(chosen) % 3
        if form == 0:
            steps: Steps = (path[0], ANY, path[2])
        elif form == 1:
            steps = (ANY, path[1], path[2])
        else:
            steps = (path[0], ANY_STAR, path[-1])
        if steps not in seen:
            seen.add(steps)
            chosen.append(steps)
    return chosen


def make_inputs(spec: Workload, seed: int) -> Inputs:
    """Generate every input of one run.

    The data graph and the paper's 100-query tuning load are the
    workload's fixed database: they come from :data:`DATASET_SEED`.
    ``seed`` draws the operations: the query stream, the regex queries
    and the IDREF edge batches.
    """
    from repro.bench.harness import sample_reference_edges
    from repro.datasets.nasa import generate_nasa
    from repro.datasets.xmark import generate_xmark
    from repro.workload.generator import WorkloadConfig, generate_test_paths
    from repro.workload.mining import exact_requirements

    generate = generate_xmark if spec.dataset == "xmark" else generate_nasa
    document = generate(scale=spec.scale, seed=DATASET_SEED)
    graph = document.graph
    paper_load = generate_test_paths(
        graph, WorkloadConfig(count=100), seed=DATASET_SEED + 1
    )
    requirements = exact_requirements(paper_load)
    paper = [query.labels for query in paper_load.expanded()]

    # The candidate query population is fixed with the database too.
    big_load = generate_test_paths(
        graph, WorkloadConfig(count=STREAM_DISTINCT), seed=DATASET_SEED + 2
    )
    rng = random.Random(f"{spec.name}/{seed}")
    distinct = sorted({query.labels for query in big_load})
    rng.shuffle(distinct)  # popularity rank
    # A path longer than its target label's requirement + 1 is not
    # covered by the tuning load and may need validation.  Every such
    # path of the population is in the stream exactly once per pass and
    # makes UNCOVERED_SHARE of it, so the validating share sits far from
    # both percentiles and its make-up does not depend on the seed.
    covered = [p for p in distinct if len(p) - 1 <= requirements.get(p[-1], 0)]
    uncovered = [p for p in distinct if len(p) - 1 > requirements.get(p[-1], 0)]
    stream: list[Steps] = []
    if spec.read_stream:
        hits = round(len(uncovered) * (1 - UNCOVERED_SHARE) / UNCOVERED_SHARE)
        stream = _zipf(covered, hits, rng) + uncovered
        rng.shuffle(stream)
    regex = _regex_queries(distinct, spec.regex_count, rng)

    per_cycle = spec.edges_per_round + spec.tail_edges
    needed = spec.cycles * per_cycle
    edges = sample_reference_edges(graph, document.reference_pairs, needed, rng)
    if len(edges) != needed:
        raise CheckFailed(f"sampled {len(edges)} of {needed} reference edges")
    batches = [
        (edges[start : start + spec.edges_per_round],
         edges[start + spec.edges_per_round : start + per_cycle])
        for start in range(0, needed, per_cycle)
    ]

    oracle = Oracle(graph)
    for steps in set(stream) | set(regex):
        oracle.answer(steps)
    return Inputs(
        graph=graph,
        requirements=requirements,
        paper=paper,
        stream=stream,
        regex=regex,
        batches=batches,
        oracle=oracle,
    )


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


@dataclass
class Samples:
    setup: list[float] = field(default_factory=list)
    build: list[float] = field(default_factory=list)
    query_us: list[float] = field(default_factory=list)
    regex_us: list[float] = field(default_factory=list)
    update_us: list[float] = field(default_factory=list)
    update_cpu_us: list[float] = field(default_factory=list)
    update_fsyncs: int = 0
    promote: list[float] = field(default_factory=list)
    checkpoint: list[float] = field(default_factory=list)
    recover: list[float] = field(default_factory=list)
    cost_index: int = 0
    cost_data: int = 0
    validated: int = 0
    lowered: int = 0
    promote_splits: int = 0
    promote_new_nodes: int = 0
    snapshot_bytes: list[int] = field(default_factory=list)
    replayed: list[int] = field(default_factory=list)
    disk_bytes: int = 0
    index_nodes: int = 0
    attempted: int = 0
    failed: int = 0


def check_invariants(dk, where: str) -> None:
    """Definition 3 and the extent invariants, as a benchmark check."""
    from repro.exceptions import ReproError

    try:
        dk.check_invariants()
    except ReproError as error:
        raise CheckFailed(f"{where}: {type(error).__name__}: {error}") from error


def _percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


class Run:
    """One run of one workload; :meth:`execute` returns the samples."""

    def __init__(self, spec: Workload, seed: int, seconds: float, workdir: Path, tracer) -> None:
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.store_dir = workdir / "store"
        self.tracer = tracer
        self.samples = Samples()
        self.rng = random.Random(f"checks/{spec.name}/{seed}")
        self.notes: dict[str, Any] = {}
        self.acknowledged: list[tuple[int, int]] = []
        self.reference_partition: list[int] | None = None
        #: Pool misses of each external engine closed during a build.
        self.engine_misses: list[int] = []
        #: ``os.fsync`` calls so far.
        self.fsyncs = 0
        #: Process CPU seconds spent in journal appends so far.
        self.journal_cpu = 0.0

    # -- operations -----------------------------------------------------

    def _query(self, dk, steps: Steps, oracle: Oracle, where: str) -> None:
        """One query from text to answer, timed, then checked."""
        from repro.paths import query as query_module
        from repro.paths.cost import CostCounter

        from repro.exceptions import ReproError

        counter = CostCounter()
        text = query_text(steps)
        label_path = is_label_path(steps)
        self.samples.attempted += 1
        with self.tracer.span("op.query" if label_path else "op.regex"):
            start = _clock()
            try:
                answer = dk.evaluate(query_module.make_query(text), counter)
            except ReproError:
                self.samples.failed += 1
                return
            elapsed = _clock() - start
        if label_path:
            self.samples.query_us.append(elapsed * 1e6)
            self.samples.cost_index += counter.index_nodes_visited
            self.samples.cost_data += counter.data_nodes_visited
            self.samples.validated += counter.validated_queries
        else:
            self.samples.regex_us.append(elapsed * 1e6)
        oracle.check(steps, answer, where)

    def _setup(self) -> Inputs:
        gc.collect()
        start = _clock()
        inputs = make_inputs(self.spec, self.seed)
        self.samples.setup.append(_clock() - start)
        return inputs

    def _build(self, inputs: Inputs):
        """One timed build.

        An external build that falls back to an in-memory engine (the
        program's default ``warn`` degradation policy) still answers
        correctly, so it counts as a failed operation; one that never
        misses in the pool did not run out of core and fails the run.
        """
        from repro.core.dindex import DKIndex
        from repro.exceptions import StorageDegradationWarning

        graph = inputs.graph.copy()
        self.engine_misses.clear()
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", StorageDegradationWarning)
            with self.tracer.span("op.build"):
                start = _clock()
                dk = DKIndex.build(graph, inputs.requirements, engine=self.spec.engine)
                self.samples.build.append(_clock() - start)
        self.samples.attempted += 1
        degraded = [w for w in caught if issubclass(w.category, StorageDegradationWarning)]
        for warning in caught:
            if warning not in degraded:
                warnings.showwarning(warning.message, warning.category,
                                     warning.filename, warning.lineno)
        if degraded:
            self.samples.failed += 1
            self.notes.setdefault("degraded_builds", []).append(str(degraded[0].message))
        elif self.spec.engine == "external" and not any(self.engine_misses):
            raise CheckFailed(
                f"an external build read no page from disk (pool misses "
                f"per engine: {self.engine_misses})"
            )
        check_invariants(dk, "after build")
        if self.reference_partition is not None:
            check_same_partition(
                self.reference_partition, dk.index.node_of,
                "external build vs in-memory build",
            )
        return dk

    def _edges(self, dk, batch) -> None:
        """Journaled updates; their CPU time leaves out the journal appends.

        The kernel's CPU time in a journal append (open, write, ``fsync``)
        moves with the disk's other traffic about twice as much as the
        update's own work does, so the ``fsync`` calls are counted
        (``update_fsyncs``) instead of timed.
        """
        for src, dst in batch:
            fsyncs, journal_cpu = self.fsyncs, self.journal_cpu
            with self.tracer.span("op.update"):
                cpu = time.process_time()
                start = _clock()
                report = dk.add_edge(src, dst)
                self.samples.update_us.append((_clock() - start) * 1e6)
                cpu = time.process_time() - cpu - (self.journal_cpu - journal_cpu)
                self.samples.update_cpu_us.append(cpu * 1e6)
            self.samples.update_fsyncs += self.fsyncs - fsyncs
            self.samples.attempted += 1
            self.samples.lowered += len(report.lowered)
            self.acknowledged.append((src, dst))

    def _round(self, dk, store, number: int) -> None:
        """After the round's edge batch: the paper's load, promote, checkpoint."""
        self.live_oracle.invalidate()
        for steps in self.inputs.paper:
            self._query(dk, steps, self.live_oracle, f"round {number} after updates")
        check_invariants(dk, f"round {number} after updates")
        with self.tracer.span("op.promote"):
            start = _clock()
            report = dk.promote()
            self.samples.promote.append(_clock() - start)
        self.samples.attempted += 1
        self.samples.promote_splits += report.index_nodes_split
        self.samples.promote_new_nodes += report.new_index_nodes
        check_invariants(dk, f"round {number} after promote")
        with self.tracer.span("op.checkpoint"):
            start = _clock()
            info = store.checkpoint(dk, dk.pipeline)
            self.samples.checkpoint.append(_clock() - start)
        self.samples.attempted += 1
        self.samples.snapshot_bytes.append(info.snapshot_path.stat().st_size)
        self.samples.disk_bytes = sum(
            path.stat().st_size for path in self.store_dir.iterdir() if path.is_file()
        )

    def _live_answers(self, dk) -> dict[Steps, frozenset[int]]:
        """The live index's answers to the paper's load (checked, untimed)."""
        from repro.paths.query import make_query

        self.live_oracle.invalidate()
        answers = {}
        for steps in sorted(set(self.inputs.paper)):
            answer = dk.evaluate(make_query(query_text(steps)))
            self.live_oracle.check(steps, answer, "live index")
            answers[steps] = frozenset(answer)
        return answers

    def _recover(self, live: dict[Steps, frozenset[int]], where: str) -> None:
        """Recover the store from disk; it must match the live state."""
        from repro.maintenance.store import CheckpointStore
        from repro.paths.query import make_query

        gc.collect()
        with self.tracer.span("op.recover"):
            start = _clock()
            report = CheckpointStore(self.store_dir).recover()
            self.samples.recover.append(_clock() - start)
        self.samples.attempted += 1
        if not report.recovered or report.data_loss:
            raise CheckFailed(f"{where}: recovery failed:\n{report.format()}")
        if report.replayed != self.spec.tail_edges:
            raise CheckFailed(
                f"{where}: recovery replayed {report.replayed} operations, "
                f"expected {self.spec.tail_edges}"
            )
        self.samples.replayed.append(report.replayed)
        recovered = report.dk
        report = None
        check_edges_present(recovered.graph, self.acknowledged, where)
        check_invariants(recovered, where)
        for steps, expected in live.items():
            if recovered.evaluate(make_query(query_text(steps))) != expected:
                raise CheckFailed(
                    f"{where}: the recovered index answers {query_text(steps)} "
                    "differently from the live index"
                )

    def _check_paged(self, graph) -> None:
        """Page the live graph out; sampled reads must equal memory."""
        from repro.storage.paged import PagedCSRGraph

        with self.tracer.span("op.paged_check"):
            paged = PagedCSRGraph.create(self.workdir / "paged", graph)
            try:
                reads = check_paged_reads(
                    paged, graph.freeze(), self.rng, PAGED_SAMPLES, "paged store"
                )
            finally:
                paged.close()
        self.samples.attempted += reads

    # -- the cycle loop -------------------------------------------------

    def execute(self) -> Samples:
        """The whole run, with three probes on the program: the pool
        misses of each external engine, the ``os.fsync`` calls, and the
        CPU time of journal appends."""
        from repro.maintenance.journal import UpdateJournal
        from repro.partition.external import ExternalEngine

        def missed(close):
            def probe(engine) -> None:
                self.engine_misses.append(engine.stats.misses)
                close(engine)
            return probe

        def counted(fsync):
            def probe(fd) -> None:
                self.fsyncs += 1
                fsync(fd)
            return probe

        def timed(append):
            def probe(*args, **kwargs):
                cpu = time.process_time()
                try:
                    return append(*args, **kwargs)
                finally:
                    self.journal_cpu += time.process_time() - cpu
            return probe

        probes = [(ExternalEngine, "close", missed), (os, "fsync", counted),
                  (UpdateJournal, "begin", timed), (UpdateJournal, "commit", timed)]
        saved = [(owner, name, getattr(owner, name)) for owner, name, _make in probes]
        for owner, name, make in probes:
            setattr(owner, name, make(getattr(owner, name)))
        try:
            return self._execute()
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)

    def _execute(self) -> Samples:
        from repro.core.construction import build_dk_index
        from repro.maintenance.store import CheckpointStore

        spec = self.spec
        inputs = self.inputs = self._setup()
        graph = inputs.graph
        self.notes.update(
            nodes=graph.num_nodes,
            edges=graph.num_edges,
            stream_distinct=len(set(inputs.stream)),
            regex=len(inputs.regex),
            requirements=inputs.requirements,
        )
        if spec.pool_ratio is not None:
            budget = int(csr_footprint_bytes(graph) * spec.pool_ratio)
            os.environ["DKINDEX_POOL_BUDGET"] = str(budget)
            self.notes["pool_budget_bytes"] = budget
            reference, _levels = build_dk_index(graph.copy(), inputs.requirements)
            self.reference_partition = reference.node_of
            reference = None

        measure_start = _clock()
        live = self._build(inputs)
        store = CheckpointStore.create(self.store_dir, live)
        live.maintenance = store.maintenance_config()
        # The builds work on copies: round answers come from the live graph.
        self.live_oracle = Oracle(live.graph)

        # Regex queries spread evenly through the label-path stream,
        # then cut into one slice per cycle.
        spaced = sorted(
            (position / len(queries), kind, steps)
            for kind, queries in enumerate((inputs.stream, inputs.regex))
            for position, steps in enumerate(queries)
        )
        sequence = [steps for _where, _kind, steps in spaced]
        slices = [
            sequence[len(sequence) * c // spec.cycles : len(sequence) * (c + 1) // spec.cycles]
            for c in range(spec.cycles)
        ]
        setup_cycles = {spec.cycles * n // SETUPS for n in range(1, SETUPS)}
        fills = round(spec.fill_rate * self.seconds)
        for number, (batch, tail) in enumerate(inputs.batches):
            if number in setup_cycles:
                self._setup()
            # Reads go to a fresh build of the unchanged data graph; the
            # live index takes the updates.
            reader = self._build(inputs)

            def read(updates=()) -> None:
                """A pass over the cycle's slice, ``updates`` spread through it."""
                gc.collect()
                pending = list(updates)
                queries = slices[number]
                for position, steps in enumerate(queries):
                    self._query(reader, steps, inputs.oracle, "read stream")
                    due = len(updates) * (position + 1) // len(queries)
                    while len(updates) - len(pending) < due:
                        self._edges(live, [pending.pop(0)])
                self._edges(live, pending)

            read(batch)
            self._round(live, store, number)
            self._edges(live, tail)
            answers = None
            if number % spec.drill_every == spec.drill_every - 1:
                answers = self._live_answers(live)
                self._recover(answers, f"recovery drill after cycle {number}")
            due = fills * (number + 1) // spec.cycles - fills * number // spec.cycles
            for _fill in range(due):
                if spec.fill == "read":
                    read()
                elif spec.fill == "build":
                    self._build(inputs)
                else:
                    answers = answers or self._live_answers(live)
                    self._recover(answers, f"recovery drill after cycle {number}")
            reader = None

        answers = self._live_answers(live)
        self.samples.index_nodes = live.size
        self._check_paged(live.graph)
        # The crash: no in-memory object of the program survives.
        del live, store
        gc.collect()
        for number in range(spec.final_recoveries):
            self._recover(answers, f"recovery {number} after the crash")

        self.notes.update(
            measured_s=round(_clock() - measure_start, 3),
            fills=fills,
            validated_share=self.samples.validated / len(self.samples.query_us),
            update_p50_us=statistics.median(self.samples.update_us),
            update_p90_us=_percentile(self.samples.update_us, 0.90),
            update_p99_us=_percentile(self.samples.update_us, 0.99),
            samples={
                "build": len(self.samples.build),
                "query": len(self.samples.query_us),
                "regex": len(self.samples.regex_us),
                "update": len(self.samples.update_us),
                "recover": len(self.samples.recover),
            },
        )
        return self.samples


def end_to_end(samples: Samples) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric as ``name: (value, unit)``."""
    queries = len(samples.query_us)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(samples.setup), "s"),
        "build_s": (statistics.median(samples.build), "s"),
        "query_p50_us": (statistics.median(samples.query_us), "us"),
        "query_p99_us": (_percentile(samples.query_us, 0.99), "us"),
        "regex_p50_us": (statistics.median(samples.regex_us), "us"),
        "query_cost": ((samples.cost_index + samples.cost_data) / queries, "nodes"),
        "index_nodes": (samples.index_nodes, "nodes"),
        "update_cpu_us": (statistics.median(samples.update_cpu_us), "us"),
        "update_fsyncs": (samples.update_fsyncs / len(samples.update_cpu_us), "count"),
        "promote_s": (statistics.median(samples.promote), "s"),
        "checkpoint_s": (statistics.median(samples.checkpoint), "s"),
        "recover_s": (statistics.median(samples.recover), "s"),
        "disk_mb": (samples.disk_bytes / 1e6, "MB"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
