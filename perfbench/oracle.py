"""The benchmark's own answer oracle and invariant checks.

Queries are kept here as step tuples, not as the program's parsed query
objects: a step is a label name, ``"_"`` (exactly one node of any label)
or ``"_*"`` (zero or more nodes of any label).  :func:`query_text`
renders the unanchored path expression the program parses, and
:func:`oracle_answer` computes the answer by frontier walks over the
data graph's child lists, without any code of the program's query
engine, index or validation.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

ANY = "_"
ANY_STAR = "_*"

Steps = tuple[str, ...]


class CheckFailed(Exception):
    """A wrong answer or a broken invariant: the run is not correct."""


def query_text(steps: Steps) -> str:
    """The unanchored (partial-matching) expression for ``steps``."""
    return "//" + ".".join(steps)


def is_label_path(steps: Steps) -> bool:
    return all(step not in (ANY, ANY_STAR) for step in steps)


def oracle_answer(graph, steps: Steps) -> frozenset[int]:
    """Data nodes at the end of some node path matching ``steps``.

    A node path may start anywhere in the graph.  ``"_*"`` may appear
    only between two other steps.
    """
    if not steps or steps[0] == ANY_STAR or steps[-1] == ANY_STAR:
        raise ValueError(f"unsupported step sequence {steps!r}")
    names = graph.label_names()
    label_of = graph.label_ids
    children = graph.children
    ids = {name: number for number, name in enumerate(names)}

    first = steps[0]
    if first == ANY:
        frontier = set(range(graph.num_nodes))
    else:
        wanted = ids.get(first)
        if wanted is None:
            return frozenset()
        frontier = {node for node, label in enumerate(label_of) if label == wanted}
    for step in steps[1:]:
        if not frontier:
            return frozenset()
        if step == ANY_STAR:
            stack = list(frontier)
            while stack:
                node = stack.pop()
                for child in children[node]:
                    if child not in frontier:
                        frontier.add(child)
                        stack.append(child)
            continue
        if step == ANY:
            frontier = {child for node in frontier for child in children[node]}
            continue
        wanted = ids.get(step)
        if wanted is None:
            return frozenset()
        frontier = {
            child
            for node in frontier
            for child in children[node]
            if label_of[child] == wanted
        }
    return frozenset(frontier)


class Oracle:
    """Memoised oracle answers for one state of one data graph.

    Call :meth:`invalidate` after the graph changes.
    """

    def __init__(self, graph) -> None:
        self.graph = graph
        self._answers: dict[Steps, frozenset[int]] = {}

    def invalidate(self) -> None:
        self._answers.clear()

    def answer(self, steps: Steps) -> frozenset[int]:
        cached = self._answers.get(steps)
        if cached is None:
            cached = oracle_answer(self.graph, steps)
            self._answers[steps] = cached
        return cached

    def check(self, steps: Steps, got: Iterable[int], where: str) -> None:
        expected = self.answer(steps)
        got_set = got if isinstance(got, (set, frozenset)) else set(got)
        if got_set != expected:
            missing = sorted(expected - got_set)[:5]
            extra = sorted(got_set - expected)[:5]
            raise CheckFailed(
                f"{where}: wrong answer for {query_text(steps)}: "
                f"{len(got_set)} nodes, expected {len(expected)} "
                f"(missing {missing}, extra {extra})"
            )


def check_edges_present(graph, edges: Sequence[tuple[int, int]], where: str) -> None:
    """Every acknowledged edge must be in ``graph``."""
    for src, dst in edges:
        if not graph.has_edge(src, dst):
            raise CheckFailed(f"{where}: acknowledged edge {src}->{dst} is missing")


def check_same_partition(left: Sequence[int], right: Sequence[int], where: str) -> None:
    """Two ``node_of`` maps describe the same set partition."""
    if len(left) != len(right):
        raise CheckFailed(f"{where}: partitions cover {len(left)} and {len(right)} nodes")
    forward: dict[int, int] = {}
    backward: dict[int, int] = {}
    for node, (a, b) in enumerate(zip(left, right)):
        if forward.setdefault(a, b) != b or backward.setdefault(b, a) != a:
            raise CheckFailed(f"{where}: partitions differ at data node {node}")


def check_paged_reads(paged, view, rng: random.Random, samples: int, where: str) -> int:
    """A seeded sample of paged adjacency reads equals the in-memory CSR.

    Returns the number of reads compared.
    """
    nodes = view.num_nodes
    for _ in range(samples):
        node = rng.randrange(nodes)
        if list(paged.children(node)) != list(view.children(node)):
            raise CheckFailed(f"{where}: paged children({node}) differ from memory")
        if list(paged.parents(node)) != list(view.parents(node)):
            raise CheckFailed(f"{where}: paged parents({node}) differ from memory")
    return 2 * samples
