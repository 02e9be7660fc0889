"""DAG abstraction for ML serving applications.

The Workflow Manager (paper §V-C2) operates on applications whose functions
form a directed acyclic graph.  :class:`AppDAG` wraps a ``networkx.DiGraph``
with the operations the optimizer needs: topological traversal, simple-path
decomposition, parallel-substructure discovery, and critical-path latency
evaluation under a per-function latency assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

import networkx as nx

from repro.hardware.perfmodel import PerfProfile


@dataclass(frozen=True)
class FunctionSpec:
    """One serverless inference function inside an application DAG.

    ``name`` is unique within the application; ``profile`` is the
    ground-truth performance profile of the model the function serves
    (used by the simulator — the optimizer only ever sees profiler fits).
    """

    name: str
    profile: PerfProfile
    metadata: Mapping[str, str] = field(default_factory=dict)

    @property
    def model_name(self) -> str:
        """Name of the underlying Table I model."""
        return self.profile.name

    @property
    def min_batch(self) -> int:
        """Minimum batch size — defines the Invocation Predictor bucket size."""
        return self.profile.min_batch


class AppDAG:
    """An ML serving application: named DAG of :class:`FunctionSpec` nodes.

    Construction validates acyclicity and connectivity of every function.
    The graph is immutable after construction.
    """

    def __init__(
        self,
        name: str,
        functions: Iterable[FunctionSpec],
        edges: Iterable[tuple[str, str]],
        sla: float = 2.0,
        work_model: object | None = None,
    ) -> None:
        self.name = name
        self.sla = float(sla)
        # Optional per-invocation work distribution (e.g. a TokenWorkModel
        # for LLM apps).  ``None`` — the default — means every invocation
        # carries identical work and the gateway draws nothing extra.
        self.work_model = work_model
        if self.sla <= 0:
            raise ValueError(f"sla must be > 0, got {sla}")
        self._functions: dict[str, FunctionSpec] = {}
        for spec in functions:
            if spec.name in self._functions:
                raise ValueError(f"duplicate function name {spec.name!r}")
            self._functions[spec.name] = spec
        if not self._functions:
            raise ValueError("application must contain at least one function")

        graph = nx.DiGraph()
        graph.add_nodes_from(self._functions)
        for u, v in edges:
            for endpoint in (u, v):
                if endpoint not in self._functions:
                    raise ValueError(f"edge endpoint {endpoint!r} is not a function")
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            graph.add_edge(u, v)
        if not nx.is_directed_acyclic_graph(graph):
            raise ValueError(f"application {name!r} contains a cycle")
        self._graph = graph
        self._topo = tuple(nx.topological_sort(graph))
        # Adjacency in networkx order, precomputed: the gateway walks it on
        # every stage completion, and successor order decides the order in
        # which downstream stages become ready.
        self._preds = {n: tuple(graph.predecessors(n)) for n in graph}
        self._succs = {n: tuple(graph.successors(n)) for n in graph}
        self._sources = tuple(n for n in self._topo if not self._preds[n])
        self._sinks = tuple(n for n in self._topo if not self._succs[n])

    # -- basic structure ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._functions)

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def __iter__(self) -> Iterator[str]:
        return iter(self._topo)

    @property
    def graph(self) -> nx.DiGraph:
        """Read-only view of the underlying graph."""
        return self._graph.copy(as_view=True)

    @property
    def function_names(self) -> tuple[str, ...]:
        """All function names in topological order."""
        return self._topo

    def spec(self, name: str) -> FunctionSpec:
        """Look up the :class:`FunctionSpec` for ``name``."""
        return self._lookup(self._functions, name)

    def _lookup(self, table: Mapping[str, object], name: str):
        try:
            return table[name]
        except KeyError:
            raise KeyError(f"no function {name!r} in app {self.name!r}") from None

    @property
    def specs(self) -> tuple[FunctionSpec, ...]:
        """All function specs in topological order."""
        return tuple(self._functions[n] for n in self._topo)

    def predecessors(self, name: str) -> tuple[str, ...]:
        """Direct upstream functions of ``name``."""
        return self._lookup(self._preds, name)

    def successors(self, name: str) -> tuple[str, ...]:
        """Direct downstream functions of ``name``."""
        return self._lookup(self._succs, name)

    def sources(self) -> tuple[str, ...]:
        """Entry functions (no predecessors), in topological order."""
        return self._sources

    def sinks(self) -> tuple[str, ...]:
        """Exit functions (no successors), in topological order."""
        return self._sinks

    def min_batch(self) -> int:
        """Smallest ``min_batch`` over all functions (predictor bucket size)."""
        return min(spec.min_batch for spec in self._functions.values())

    # -- paths ---------------------------------------------------------------
    def simple_paths(self) -> tuple[tuple[str, ...], ...]:
        """All source→sink simple paths (the Workflow Manager decomposition).

        Each path is a maximal chain of sequential dependencies; the Strategy
        Optimizer runs the basic path-search algorithm on each in parallel
        (paper §V-C2).
        """
        paths: list[tuple[str, ...]] = []
        for s in self.sources():
            for t in self.sinks():
                if s == t:
                    paths.append((s,))
                    continue
                for path in nx.all_simple_paths(self._graph, s, t):
                    paths.append(tuple(path))
        # A single isolated node is both source and sink; dedupe.
        return tuple(dict.fromkeys(paths))

    def longest_path(self) -> tuple[str, ...]:
        """The longest source→sink path by function count."""
        return tuple(nx.dag_longest_path(self._graph))

    def longest_path_length(self) -> int:
        """Function count of the longest path (drives search complexity)."""
        return len(self.longest_path())

    def depth(self, name: str) -> int:
        """Length of the longest chain of predecessors feeding ``name``."""
        depths: dict[str, int] = {}
        for node in self._topo:
            preds = self.predecessors(node)
            depths[node] = 0 if not preds else 1 + max(depths[p] for p in preds)
        return depths[name]

    # -- latency evaluation --------------------------------------------------
    def critical_path_latency(self, latency: Mapping[str, float]) -> float:
        """E2E latency given per-function stage latencies.

        With adaptive pre-warming every function's initialization is hidden
        behind upstream execution, so the application's E2E latency is the
        longest cumulative stage latency over all paths (Eq. 5 generalized
        to DAGs).
        """
        finish: dict[str, float] = {}
        for node in self._topo:
            start = max(
                (finish[p] for p in self.predecessors(node)), default=0.0
            )
            finish[node] = start + float(latency[node])
        return max(finish[s] for s in self.sinks())

    def critical_path(self, latency: Mapping[str, float]) -> tuple[str, ...]:
        """The functions realizing :meth:`critical_path_latency`."""
        finish: dict[str, float] = {}
        argmax: dict[str, str | None] = {}
        for node in self._topo:
            best_pred, best_t = None, 0.0
            for p in self.predecessors(node):
                if finish[p] > best_t:
                    best_pred, best_t = p, finish[p]
            finish[node] = best_t + float(latency[node])
            argmax[node] = best_pred
        tail = max(self.sinks(), key=lambda s: finish[s])
        path = [tail]
        while argmax[path[-1]] is not None:
            path.append(argmax[path[-1]])  # type: ignore[arg-type]
        return tuple(reversed(path))

    # -- parallel substructures ------------------------------------------------
    def parallel_substructures(self) -> tuple[tuple[str, str], ...]:
        """(start, end) pairs of minimal parallel-branch substructures.

        A substructure is a fork node ``F_s`` with out-degree > 1 paired with
        its join ``F_e`` — the nearest common descendant where the branches
        reconverge.  Returned innermost-first so the Workflow Manager can
        combine smallest substructures first (paper §V-C2).
        """
        pairs: list[tuple[str, str, int]] = []
        for node in self._topo:
            if self._graph.out_degree(node) <= 1:
                continue
            join = self._nearest_join(node)
            if join is None:
                continue
            span = sum(
                1
                for p in nx.all_simple_paths(self._graph, node, join)
                for _ in p
            )
            pairs.append((node, join, span))
        pairs.sort(key=lambda t: t[2])
        return tuple((s, e) for s, e, _ in pairs)

    def _nearest_join(self, fork: str) -> str | None:
        """Nearest descendant reachable from *every* branch of ``fork``."""
        branch_reach: list[set[str]] = []
        for child in self._graph.successors(fork):
            reach = set(nx.descendants(self._graph, child))
            reach.add(child)
            branch_reach.append(reach)
        common = set.intersection(*branch_reach)
        if not common:
            return None
        # topologically earliest common descendant
        for node in self._topo:
            if node in common:
                return node
        return None

    def map_functions(self, fn: Callable[[FunctionSpec], float]) -> dict[str, float]:
        """Apply ``fn`` to every spec, returning ``{name: value}``."""
        return {name: fn(self.spec(name)) for name in self._topo}

    def with_sla(self, sla: float) -> "AppDAG":
        """A copy of this application with a different SLA target."""
        return AppDAG(
            self.name,
            self.specs,
            tuple(self._graph.edges),
            sla=sla,
            work_model=self.work_model,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AppDAG({self.name!r}, functions={len(self)}, "
            f"edges={self._graph.number_of_edges()}, sla={self.sla})"
        )
