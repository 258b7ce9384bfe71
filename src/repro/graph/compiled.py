"""Compiled per-(graph, batch) execution schedules — the replay fast path.

A session normally re-walks the DAG node-by-node, asking each
:class:`~repro.graph.node.Node` for its device and its duration model's
cost at the job's batch size on every execution.  Those answers never
change within a run: for a fixed ``(graph, batch_size)`` pair the
per-node cost sequence is a pure function of the graph.  This module
precomputes that schedule once into flat ``node_id``-indexed arrays so
the hot serving loop (:mod:`repro.serving.session`) replays it with
list indexing instead of attribute chains and duration-model calls.

The compiled form is purely an evaluation cache — it changes no
observable behaviour.  ``ServerConfig(compiled=False)`` selects the
original object-walking path, which doubles as the determinism oracle:
``faults.determinism.trace_digest`` must be bit-identical between the
two (see ``tests/serving/test_compiled.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .node import Node

if TYPE_CHECKING:  # pragma: no cover
    from .graph import Graph

__all__ = ["CompiledGraph", "compile_graph"]


class CompiledGraph:
    """Flat, ``node_id``-indexed replay schedule for one batch size.

    Attributes
    ----------
    nodes:
        ``node_id -> Node`` (``None`` for unused ids); scheduler hooks
        still receive the real node object.
    is_gpu:
        ``node_id -> bool`` device flag (replaces a three-attribute
        property chain per visit).
    durations:
        ``node_id -> float`` solo cost at ``batch_size`` — exactly
        ``node.duration(batch_size)``, precomputed.
    num_parents:
        ``node_id -> int`` in-degree; sessions copy this list as their
        dependency countdown instead of rebuilding it per job.
    children_ids:
        ``node_id -> tuple of child node ids`` in declaration order
        (the order drives thread fan-out, so it must match the
        reference walk).
    """

    __slots__ = (
        "graph_name",
        "batch_size",
        "num_nodes",
        "root_id",
        "nodes",
        "is_gpu",
        "durations",
        "num_parents",
        "children_ids",
    )

    def __init__(self, graph: "Graph", batch_size: int):
        self.graph_name = graph.name
        self.batch_size = batch_size
        self.num_nodes = graph.num_nodes
        self.root_id = graph.root.node_id
        size = max(node.node_id for node in graph.nodes) + 1
        nodes: List[Optional[Node]] = [None] * size
        is_gpu = [False] * size
        durations = [0.0] * size
        num_parents = [0] * size
        children_ids: List[Tuple[int, ...]] = [()] * size
        for node in graph.nodes:
            i = node.node_id
            nodes[i] = node
            is_gpu[i] = node.is_gpu
            durations[i] = node.duration(batch_size)
            num_parents[i] = node.num_parents
            children_ids[i] = tuple(child.node_id for child in node.children)
        self.nodes = nodes
        self.is_gpu = is_gpu
        self.durations = durations
        self.num_parents = num_parents
        self.children_ids = children_ids

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CompiledGraph({self.graph_name!r}, batch={self.batch_size}, "
            f"nodes={self.num_nodes})"
        )


def compile_graph(graph: "Graph", batch_size: int) -> CompiledGraph:
    """Compile ``graph`` at ``batch_size``, caching on the graph object.

    The cache lives on the :class:`~repro.graph.graph.Graph` instance
    (one entry per batch size), so every job of a loaded model shares
    one schedule.
    """
    cache: Dict[int, CompiledGraph] = graph.__dict__.setdefault(
        "_compiled_cache", {}
    )
    compiled = cache.get(batch_size)
    if compiled is None:
        compiled = cache[batch_size] = CompiledGraph(graph, batch_size)
    return compiled
