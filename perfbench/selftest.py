"""The benchmark's own test: its checks catch wrong outputs.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It shows that

1. the oracle agrees with the program's data-graph evaluator on small
   XMark and NASA graphs for every query shape the benchmark issues;
2. a run of a small workload passes on the unmodified program;
3. the same run fails when the program returns one wrong answer, when
   an index invariant is broken after ``promote()``, when recovery
   loses an acknowledged edge, and when an external build is served by
   an in-memory engine without a word;
4. an external build that degrades to an in-memory engine with a
   warning is counted as a failed operation.

Exits 0 when every case behaves as stated.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path.cwd()
WORKDIR = ROOT / ".perfbench_work" / "selftest"
sys.path.insert(0, str(ROOT / "src"))

from oracle import ANY, ANY_STAR, CheckFailed, oracle_answer, query_text  # noqa: E402
from spans import NullTracer  # noqa: E402
from workloads import WORKLOADS, Run  # noqa: E402


def tiny(name: str):
    return dataclasses.replace(
        WORKLOADS[name], scale=0.05, cycles=3, regex_count=6,
        edges_per_round=10, tail_edges=3, drill_every=3, final_recoveries=1,
    )


def run_tiny(name: str, seed: int = 3):
    """A small run with no fill operations (``seconds`` = 0)."""
    shutil.rmtree(WORKDIR, ignore_errors=True)
    (WORKDIR / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(WORKDIR / "tmp")
    try:
        return Run(tiny(name), seed, 0, WORKDIR, NullTracer()).execute()
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)


@contextmanager
def patched(owner, attr, make):
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def expect_failure(label: str, name: str, owner, attr, make) -> None:
    with patched(owner, attr, make):
        try:
            run_tiny(name)
        except CheckFailed as failure:
            print(f"ok: {label} is caught: {str(failure)[:120]}")
            return
    raise SystemExit(f"FAIL: {label} was not caught")


def oracle_matches_evaluator() -> None:
    from repro.datasets.nasa import generate_nasa
    from repro.datasets.xmark import generate_xmark
    from repro.paths.evaluator import evaluate_on_data_graph
    from repro.paths.query import make_query
    from repro.workload.generator import WorkloadConfig, generate_test_paths

    for generate in (generate_xmark, generate_nasa):
        graph = generate(scale=0.05, seed=11).graph
        paths = sorted({q.labels for q in generate_test_paths(
            graph, WorkloadConfig(count=60), seed=2)})
        checked = 0
        for path in paths:
            shapes = [path]
            if len(path) >= 3:
                shapes += [(path[0], ANY, path[2]), (ANY, path[1], path[2]),
                           (path[0], ANY_STAR, path[-1])]
            for steps in shapes:
                expected = evaluate_on_data_graph(graph, make_query(query_text(steps)))
                if oracle_answer(graph, steps) != expected:
                    raise SystemExit(f"FAIL: oracle disagrees on {query_text(steps)}")
                checked += 1
        print(f"ok: oracle equals the data-graph evaluator on {checked} queries "
              f"({generate.__name__})")


def main() -> int:
    from repro.core.dindex import DKIndex
    from repro.exceptions import PagedStoreError
    from repro.maintenance.store import CheckpointStore
    from repro.partition import refinement
    from repro.partition.columnar import ColumnarEngine

    oracle_matches_evaluator()
    for name in WORKLOADS:
        run_tiny(name)
        print(f"ok: small {name} passes every check on the unmodified program")

    calls = {"n": 0, "done": 0}

    def wrong_answer(original):
        def evaluate(self, query, counter=None, validate=True):
            answer = set(original(self, query, counter, validate))
            calls["n"] += 1
            if calls["n"] >= 7 and answer and not calls["done"]:
                calls["done"] = 1
                answer.discard(min(answer))
            return answer
        return evaluate

    def broken_invariant(original):
        def promote(self, requirements=None):
            report = original(self, requirements)
            node = self.index.extents[1][0]
            self.index.node_of[node] = 0
            return report
        return promote

    def lost_edge(original):
        def recover(self):
            report = original(self)
            graph = report.dk.graph
            src, dst = next((s, d) for s, d in graph.edges() if s != graph.root)
            graph.remove_edge(src, dst)
            return report
        return recover

    for name in WORKLOADS:
        calls.update(n=0, done=0)
        expect_failure(f"{name}: one wrong answer", name, DKIndex, "evaluate", wrong_answer)
    expect_failure("a broken extent invariant after promote()", "nasa-update",
                   DKIndex, "promote", broken_invariant)
    expect_failure("an edge lost by recovery", "nasa-update",
                   CheckpointStore, "recover", lost_edge)
    expect_failure("an external build run in memory", "xmark-outofcore",
                   refinement, "_external_engine", lambda original: ColumnarEngine)

    def exhausted(original):
        def engine(graph):
            raise PagedStoreError("page store exhausted")
        return engine

    with patched(refinement, "_external_engine", exhausted):
        samples = run_tiny("xmark-outofcore")
    if samples.failed != len(samples.build):
        raise SystemExit(f"FAIL: {samples.failed} of {len(samples.build)} "
                         "degraded external builds counted as failed")
    print(f"ok: {samples.failed} degraded external builds are counted as failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
