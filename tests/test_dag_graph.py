"""Tests for the AppDAG abstraction (structure, paths, latency evaluation)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag import AppDAG, FunctionSpec
from repro.dag.apps import random_dag
from repro.dag.models import get_profile
from repro.experiments.runners import APP_BUILDERS


def spec(name: str, model: str = "IR") -> FunctionSpec:
    return FunctionSpec(name=name, profile=get_profile(model))


def chain(*names: str) -> AppDAG:
    specs = [spec(n) for n in names]
    edges = [(names[i], names[i + 1]) for i in range(len(names) - 1)]
    return AppDAG("chain", specs, edges)


def diamond() -> AppDAG:
    specs = [spec(n) for n in "ABCD"]
    edges = [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")]
    return AppDAG("diamond", specs, edges)


class TestConstruction:
    def test_rejects_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            AppDAG("bad", [spec("A"), spec("B")], [("A", "B"), ("B", "A")])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            AppDAG("bad", [spec("A")], [("A", "A")])

    def test_rejects_duplicate_function(self):
        with pytest.raises(ValueError, match="duplicate"):
            AppDAG("bad", [spec("A"), spec("A")], [])

    def test_rejects_unknown_edge_endpoint(self):
        with pytest.raises(ValueError, match="endpoint"):
            AppDAG("bad", [spec("A")], [("A", "Z")])

    def test_rejects_empty_app(self):
        with pytest.raises(ValueError):
            AppDAG("bad", [], [])

    def test_rejects_nonpositive_sla(self):
        with pytest.raises(ValueError):
            AppDAG("bad", [spec("A")], [], sla=0.0)

    def test_single_function_app(self):
        app = AppDAG("solo", [spec("A")], [])
        assert app.sources() == app.sinks() == ("A",)
        assert app.simple_paths() == (("A",),)


class TestStructure:
    def test_topological_iteration(self):
        app = diamond()
        order = list(app)
        assert order.index("A") < order.index("B") < order.index("D")
        assert order.index("A") < order.index("C") < order.index("D")

    def test_predecessors_successors(self):
        app = diamond()
        assert set(app.predecessors("D")) == {"B", "C"}
        assert set(app.successors("A")) == {"B", "C"}

    def test_sources_sinks(self):
        app = diamond()
        assert app.sources() == ("A",)
        assert app.sinks() == ("D",)

    @pytest.mark.parametrize("name", sorted(APP_BUILDERS))
    def test_adjacency_in_networkx_order(self, name):
        """Precomputed adjacency keeps networkx's order: successor order
        decides the order in which downstream stages become ready."""
        app = APP_BUILDERS[name]()
        graph = app.graph
        for fn in app.function_names:
            assert app.predecessors(fn) == tuple(graph.predecessors(fn))
            assert app.successors(fn) == tuple(graph.successors(fn))

    def test_adjacency_of_unknown_function_names_the_app(self):
        app = diamond()
        for lookup in (app.spec, app.predecessors, app.successors):
            with pytest.raises(KeyError, match="no function 'Z' in app 'diamond'"):
                lookup("Z")

    def test_spec_lookup(self):
        app = diamond()
        assert app.spec("A").name == "A"
        with pytest.raises(KeyError):
            app.spec("Z")

    def test_depth(self):
        app = chain("A", "B", "C")
        assert [app.depth(n) for n in "ABC"] == [0, 1, 2]

    def test_diamond_depth(self):
        app = diamond()
        assert app.depth("D") == 2

    def test_contains_and_len(self):
        app = diamond()
        assert "A" in app and "Z" not in app
        assert len(app) == 4

    def test_with_sla(self):
        app = diamond().with_sla(5.0)
        assert app.sla == 5.0
        assert len(app) == 4


class TestPaths:
    def test_simple_paths_of_diamond(self):
        assert set(diamond().simple_paths()) == {
            ("A", "B", "D"),
            ("A", "C", "D"),
        }

    def test_longest_path_of_chain(self):
        app = chain("A", "B", "C", "D")
        assert app.longest_path() == ("A", "B", "C", "D")
        assert app.longest_path_length() == 4

    def test_critical_path_latency_chain_is_sum(self):
        app = chain("A", "B", "C")
        lat = {"A": 1.0, "B": 2.0, "C": 3.0}
        assert app.critical_path_latency(lat) == pytest.approx(6.0)

    def test_critical_path_latency_diamond_is_max_branch(self):
        app = diamond()
        lat = {"A": 1.0, "B": 5.0, "C": 2.0, "D": 1.0}
        assert app.critical_path_latency(lat) == pytest.approx(7.0)
        assert app.critical_path(lat) == ("A", "B", "D")

    def test_parallel_substructure_of_diamond(self):
        assert diamond().parallel_substructures() == (("A", "D"),)

    def test_no_parallel_substructure_in_chain(self):
        assert chain("A", "B", "C").parallel_substructures() == ()

    def test_fork_without_join_is_skipped(self):
        # A fans out to two sinks that never reconverge.
        app = AppDAG(
            "fan", [spec("A"), spec("B"), spec("C")], [("A", "B"), ("A", "C")]
        )
        assert app.parallel_substructures() == ()
        assert set(app.simple_paths()) == {("A", "B"), ("A", "C")}

    def test_map_functions(self):
        app = chain("A", "B")
        out = app.map_functions(lambda s: float(len(s.name)))
        assert out == {"A": 1.0, "B": 1.0}


class TestPropertyBased:
    @given(n=st.integers(min_value=1, max_value=12), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_random_dag_invariants(self, n, seed):
        app = random_dag(n, rng=seed)
        assert len(app) == n
        # every simple path starts at a source and ends at a sink
        sources, sinks = set(app.sources()), set(app.sinks())
        for path in app.simple_paths():
            assert path[0] in sources
            assert path[-1] in sinks
        # critical path latency >= max single-stage latency
        lat = {name: 1.0 for name in app.function_names}
        assert app.critical_path_latency(lat) >= 1.0
        assert app.critical_path_latency(lat) == app.longest_path_length()

    @given(n=st.integers(min_value=2, max_value=10), seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_critical_path_is_consistent_with_latency(self, n, seed):
        import numpy as np

        app = random_dag(n, rng=seed)
        rng = np.random.default_rng(seed)
        lat = {name: float(rng.uniform(0.1, 2.0)) for name in app.function_names}
        path = app.critical_path(lat)
        total = sum(lat[f] for f in path)
        assert total == pytest.approx(app.critical_path_latency(lat))
