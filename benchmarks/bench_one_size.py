"""E14: "one size will not fit all" (Section 2.1).

The paper's scoping argument: arrays satisfy astronomy/remote sensing/
oceanography/fusion, but "biology and genomics users want graphs and
sequences.  They will be happy with neither a table nor an array data
model."  SciDB chose arrays *knowing* this — the claim deserves a
measurement, not a citation.

A scale-free protein-interaction network is stored three ways (graph
adjacency, SciDB 2-D adjacency array, relational edge table) and queried
with the graph-shaped workload biologists run.  The experiment confirms
the paper's scoping: the array engine — the right tool everywhere else in
this repository — is the *wrong* tool here, losing to the graph form by
orders of magnitude on traversals.
"""

import pytest

from repro.bench.harness import ResultTable, measure, ratio
from repro.workloads.bio import ProteinNetwork

N = 300
K = 3
START = 1


@pytest.fixture(scope="module")
def net():
    return ProteinNetwork(n_proteins=N, edges_per_node=3, seed=1)


@pytest.fixture(scope="module")
def forms(net):
    return {
        "graph": net.as_adjacency_dict(),
        "array": net.as_sciarray(),
        "table": net.as_table(),
    }


class TestKHopNeighbourhood:
    def test_graph(self, benchmark, net, forms):
        out = benchmark(lambda: net.khop_graph(forms["graph"], START, K))
        assert out

    def test_array(self, benchmark, net, forms):
        out = benchmark(lambda: net.khop_array(forms["array"], START, K))
        assert out

    def test_table(self, benchmark, net, forms):
        out = benchmark(lambda: net.khop_table(forms["table"], START, K))
        assert out

    def test_all_forms_agree(self, benchmark, net, forms):
        g = net.khop_graph(forms["graph"], START, K)
        a = net.khop_array(forms["array"], START, K)
        t = net.khop_table(forms["table"], START, K)
        assert g == a == t
        benchmark(lambda: None)


class TestConnectedComponents:
    def test_graph(self, benchmark, net, forms):
        benchmark(lambda: net.components_graph(forms["graph"]))

    def test_array(self, benchmark, net, forms):
        benchmark(lambda: net.components_array(forms["array"]))


class TestOneSizeDoesNotFitAll:
    def test_report(self, benchmark, net, forms, capsys):
        rt = ResultTable(
            "E14: graph workload across data models (ms)",
            ["query", "graph", "array", "table", "array/graph"],
        )
        khop = {
            "graph": measure(lambda: net.khop_graph(forms["graph"], START, K),
                             repeats=3),
            "array": measure(lambda: net.khop_array(forms["array"], START, K),
                             repeats=3),
            "table": measure(lambda: net.khop_table(forms["table"], START, K),
                             repeats=3),
        }
        rt.add(
            f"{K}-hop neighbourhood",
            khop["graph"].per_call * 1e3,
            khop["array"].per_call * 1e3,
            khop["table"].per_call * 1e3,
            ratio(khop["array"], khop["graph"]),
        )
        comp_g = measure(lambda: net.components_graph(forms["graph"]), repeats=3)
        comp_a = measure(lambda: net.components_array(forms["array"]), repeats=3)
        rt.add(
            "connected components",
            comp_g.per_call * 1e3,
            comp_a.per_call * 1e3,
            float("nan"),
            ratio(comp_a, comp_g),
        )
        rt.print()
        benchmark.extra_info[rt.title] = rt.rows
        # The paper's scoping claim, measured: the array model loses the
        # graph workload by a wide margin (and the indexed edge table sits
        # between the two — also far from the graph-native form).
        assert ratio(khop["array"], khop["graph"]) > 10
        assert ratio(comp_a, comp_g) > 10
        # networkx (a real graph library) agrees with our adjacency form.
        import networkx as nx

        g = net.as_networkx()
        ours = net.khop_graph(forms["graph"], START, K)
        theirs = set(
            nx.single_source_shortest_path_length(g, START, cutoff=K)
        ) - {START}
        assert ours == theirs
        assert net.components_graph(forms["graph"]) == nx.number_connected_components(g)
        benchmark(lambda: None)
