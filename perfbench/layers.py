"""Which program entry points the traced run wraps, and the per-layer metrics.

Each per-layer metric is the self time (or a counter) of the spans of
one layer, taken over the operations of the benchmark it belongs to,
so that it reads next to the end-to-end metric it should move:

- ``per call``: mean self time of one call of the entry point;
- ``per op``: self time summed over an operation, averaged over
  operations of that kind (e.g. all journal appends of one update).

README.md lists each metric with its entry point, the end-to-end metric
it should move, and on which workload.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable

from spans import NullTracer, Tracer

BUILD = ("op.build",)
QUERY = ("op.query", "op.regex")


def _store_bytes(result: Any, *args: Any) -> dict[str, float]:
    directory = Path(args[1])
    return {"bytes": float(sum(p.stat().st_size for p in directory.rglob("*") if p.is_file()))}


def _pool_counters(result: Any, engine: Any) -> dict[str, float]:
    stats = engine.stats
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "write_backs": stats.write_backs,
        "retries": stats.retries,
        "spilled_runs": engine.spilled_runs,
    }


def install_tracer(enabled: bool) -> Tracer | NullTracer:
    """A tracer; when enabled, with the program's entry points wrapped."""
    if not enabled:
        return NullTracer()
    from repro.core import broadcast, updates
    from repro.graph.datagraph import DataGraph
    from repro.indexes import evaluation, serialize, validation
    from repro.indexes.base import IndexGraph
    from repro.maintenance import audit, journal, pipeline, store
    from repro.partition import external, refinement
    from repro.paths import query
    from repro.storage.paged import PagedCSRGraph

    tracer = Tracer()
    wraps: list[tuple[object, str, str, Callable[..., dict[str, float]] | None]] = [
        (DataGraph, "freeze", "graph.freeze", None),
        (broadcast, "broadcast_for_graph", "core.broadcast", None),
        (refinement, "leveled_partition", "partition.refine",
         lambda result, *args: {"blocks": result.num_blocks}),
        (IndexGraph, "from_partition", "indexes.extents", None),
        (query, "make_query", "paths.parse", None),
        # DKIndex.evaluate reaches the matcher through this function;
        # match_index_nodes is a thin public wrapper over it.
        (evaluation, "_match_positions", "indexes.match", None),
        (validation, "validate_label_path_candidates", "indexes.validate", None),
        (validation, "validate_regex_candidates", "indexes.validate", None),
        (updates, "dk_add_edge", "core.add_edge", None),
        (pipeline.UpdatePipeline, "add_edge", "maintenance.txn", None),
        (audit, "run_audit", "maintenance.audit", None),
        (audit, "scoped_fast_ok", "maintenance.audit", None),
        (journal.UpdateJournal, "begin", "maintenance.journal", None),
        (journal.UpdateJournal, "commit", "maintenance.journal", None),
        (serialize, "index_to_dict", "maintenance.serialize", None),
        (store, "atomic_write_document", "maintenance.write", None),
        (store, "atomic_write_text", "maintenance.write", None),
        (store, "read_document", "maintenance.load", None),
        (serialize, "index_from_dict", "maintenance.load", None),
        (journal, "scan_journal", "maintenance.scan", None),
        (journal, "apply_journal_op", "maintenance.replay", None),
        (PagedCSRGraph, "create", "storage.pageout", _store_bytes),
        (external.ExternalEngine, "close", "storage.engine", _pool_counters),
    ]
    for owner, attr, name, counters in wraps:
        tracer.wrap(owner, attr, name, counters)
    return tracer


def per_layer(tracer: Tracer, samples: Any) -> tuple[dict[str, tuple[float, str]], dict[str, float]]:
    """Every per-layer metric, and how far build spans cover ``build_s``."""
    self_time = tracer.self_times()
    op_of = tracer.op_of()
    spans = tracer.spans
    op_counts: dict[str, int] = {}
    for span in spans:
        if span[0].startswith("op."):
            op_counts[span[0]] = op_counts.get(span[0], 0) + 1

    def selected(name: str, ops: tuple[str, ...] | None) -> list[int]:
        return [i for i, span in enumerate(spans)
                if span[0] == name and (ops is None or op_of[i] in ops)]

    def per_call(name: str, ops: tuple[str, ...] | None, scale: float = 1.0) -> float:
        chosen = selected(name, ops)
        return scale * sum(self_time[i] for i in chosen) / len(chosen) if chosen else 0.0

    def per_op(name: str, op: str, scale: float = 1.0) -> float:
        total = sum(self_time[i] for i in selected(name, (op,)))
        return scale * total / op_counts[op] if op_counts.get(op) else 0.0

    def counter_mean(name: str, key: str, ops: tuple[str, ...] | None, per: int | None = None) -> float:
        chosen = selected(name, ops)
        total = sum((spans[i][4] or {}).get(key, 0) for i in chosen)
        divisor = per if per is not None else len(chosen)
        return total / divisor if divisor else 0.0

    builds = op_counts.get("op.build", 0)
    queries = len(samples.query_us)
    updates = len(samples.update_us)
    promotes = len(samples.promote)
    hits = counter_mean("storage.engine", "hits", BUILD, builds)
    misses = counter_mean("storage.engine", "misses", BUILD, builds)
    metrics: dict[str, tuple[float, str]] = {
        "graph.freeze_s": (per_call("graph.freeze", None), "s"),
        "core.broadcast_s": (per_call("core.broadcast", BUILD), "s"),
        "partition.refine_s": (per_call("partition.refine", BUILD), "s"),
        "partition.blocks": (counter_mean("partition.refine", "blocks", BUILD), "count"),
        "indexes.extents_s": (per_call("indexes.extents", BUILD), "s"),
        "build.self_s": (per_op("op.build", "op.build"), "s"),
        "paths.parse_us": (per_call("paths.parse", QUERY, 1e6), "us"),
        "indexes.match_us": (per_call("indexes.match", ("op.query",), 1e6), "us"),
        "indexes.validate_us": (per_call("indexes.validate", QUERY, 1e6), "us"),
        "cost.index_nodes": (samples.cost_index / queries, "nodes"),
        "cost.data_nodes": (samples.cost_data / queries, "nodes"),
        "cost.validated": (samples.validated / queries, "share"),
        "core.add_edge_us": (per_op("core.add_edge", "op.update", 1e6), "us"),
        "core.lowered": (samples.lowered / updates, "nodes"),
        "maintenance.txn_us": (per_op("maintenance.txn", "op.update", 1e6), "us"),
        "maintenance.audit_us": (per_op("maintenance.audit", "op.update", 1e6), "us"),
        "maintenance.journal_us": (per_op("maintenance.journal", "op.update", 1e6), "us"),
        "core.promote_splits": (samples.promote_splits / promotes, "count"),
        "core.promote_new_nodes": (samples.promote_new_nodes / promotes, "count"),
        "maintenance.serialize_s": (per_op("maintenance.serialize", "op.checkpoint"), "s"),
        "maintenance.write_s": (per_op("maintenance.write", "op.checkpoint"), "s"),
        "maintenance.snapshot_mb": (
            sum(samples.snapshot_bytes) / len(samples.snapshot_bytes) / 1e6, "MB"),
        "maintenance.load_s": (per_op("maintenance.load", "op.recover"), "s"),
        "maintenance.scan_s": (per_op("maintenance.scan", "op.recover"), "s"),
        "maintenance.replay_s": (per_op("maintenance.replay", "op.recover"), "s"),
        "maintenance.replayed_ops": (sum(samples.replayed) / len(samples.replayed), "count"),
        "maintenance.deep_audit_s": (per_op("maintenance.audit", "op.recover"), "s"),
        "storage.pageout_s": (per_call("storage.pageout", None), "s"),
        "storage.store_mb": (counter_mean("storage.pageout", "bytes", None) / 1e6, "MB"),
        "storage.hits": (hits, "count"),
        "storage.misses": (misses, "count"),
        "storage.evictions": (counter_mean("storage.engine", "evictions", BUILD, builds), "count"),
        "storage.write_backs": (counter_mean("storage.engine", "write_backs", BUILD, builds), "count"),
        "storage.hit_rate": (hits / (hits + misses) if hits + misses else 1.0, "share"),
        "storage.retries": (counter_mean("storage.engine", "retries", BUILD, builds), "count"),
        "storage.spilled_runs": (counter_mean("storage.engine", "spilled_runs", BUILD, builds), "count"),
    }

    # How much of each build's wall time the layer spans account for;
    # the rest is the build's own self time (build.self_s).
    build_total = sum(spans[i][2] - spans[i][1] for i in selected("op.build", None))
    layer_total = sum(self_time[i] for i, span in enumerate(spans)
                      if op_of[i] == "op.build" and span[0] != "op.build")
    coverage = {
        "builds": builds,
        "build_mean_s": build_total / builds if builds else 0.0,
        "layers_mean_s": layer_total / builds if builds else 0.0,
        "layer_share": layer_total / build_total if build_total else 0.0,
    }
    return metrics, coverage
