import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwalk as q
from qwalk.graphs import Graph6Error

from conftest import random_graphs
from oracles import delete_vertex


class TestGraphType:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            q.Graph([[0, 1], [0, 0]])

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            q.Graph([[1, 0], [0, 0]])

    def test_rejects_weights(self):
        with pytest.raises(ValueError):
            q.Graph([[0, 2], [2, 0]])

    def test_adjacency_immutable(self):
        g = q.path(3)
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = 0

    def test_edge_out_of_range(self):
        with pytest.raises(ValueError):
            q.Graph.from_edges(2, [(0, 2)])


class TestGraph6:
    def test_k2_decodes(self):
        # cross-checked against the networkx graph6 codec
        g = q.parse_graph6("A_")
        assert g.n == 2 and g.num_edges == 1

    def test_k3_decodes(self):
        g = q.parse_graph6("Bw")
        assert g == q.complete(3)

    def test_empty_input_is_error(self):
        with pytest.raises(Graph6Error):
            q.parse_graph6("")

    def test_k2_encodes(self):
        assert q.encode_graph6(q.complete(2)) == "A_"

    def test_single_vertex_encodes(self):
        assert q.encode_graph6(q.Graph.from_edges(1, [])) == "@"

    def test_header_accepted_never_emitted(self):
        g = q.parse_graph6(">>graph6<<A_")
        assert g == q.complete(2)
        assert not q.encode_graph6(g).startswith(">>")

    def test_bad_alphabet_reports_offset(self):
        with pytest.raises(Graph6Error) as exc:
            q.parse_graph6("B\x1f")
        assert exc.value.offset == 1

    def test_truncated_bit_vector(self):
        with pytest.raises(Graph6Error, match="truncated"):
            q.parse_graph6("D")  # n=5 needs 2 body bytes

    def test_trailing_data(self):
        with pytest.raises(Graph6Error, match="trailing"):
            q.parse_graph6("A_~~")

    def test_matches_networkx_reference_codec(self):
        for g in random_graphs(50, 12, seed=7):
            ours = q.encode_graph6(g)
            ref = nx.to_graph6_bytes(
                nx.from_numpy_array(np.asarray(g.adjacency)), header=False
            ).decode().strip()
            assert ours == ref
            assert q.parse_graph6(ref) == g

    def test_multibyte_length(self):
        g = random_graphs(1, 70, seed=3, n_min=65)[0]
        enc = q.encode_graph6(g)
        assert enc.startswith("~")
        assert q.parse_graph6(enc) == g

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**45 - 1), st.integers(2, 10))
    def test_round_trip_random(self, bits, n):
        nbits = n * (n - 1) // 2
        a = np.zeros((n, n), dtype=int)
        k = 0
        for j in range(1, n):
            for i in range(j):
                if (bits >> (k % 45)) & 1:
                    a[i, j] = a[j, i] = 1
                k += 1
        g = q.Graph(a)
        assert q.parse_graph6(q.encode_graph6(g)) == g


class TestFamilies:
    def test_path_edge_cases(self):
        assert q.path(1).num_edges == 0
        assert q.path(2) == q.complete(2)
        assert sorted(q.path(4).degree(u) for u in range(4)) == [1, 1, 2, 2]
        with pytest.raises(ValueError):
            q.path(0)

    def test_hypercube(self):
        assert q.hypercube(0).n == 1
        # Q2 is the 4-cycle 0-1-3-2 in bitstring labeling
        assert q.hypercube(2) == q.Graph.from_edges(4, [(0, 1), (1, 3), (3, 2), (2, 0)])
        g = q.hypercube(3)
        assert g.n == 8 and g.num_edges == 12
        assert all(g.degree(u) == 3 for u in range(8))
        with pytest.raises(ValueError):
            q.hypercube(21)

    def test_petersen(self):
        g = q.petersen()
        assert g.n == 10 and g.num_edges == 15
        assert all(g.degree(u) == 3 for u in range(10))
        # girth 5: no triangles or 4-cycles
        a = np.asarray(g.adjacency, dtype=int)
        assert np.trace(np.linalg.matrix_power(a, 3)) == 0


class TestProductAndDeletion:
    def test_q2_is_product_of_edges(self):
        assert q.cartesian_product(q.complete(2), q.complete(2)) == q.hypercube(2)

    def test_p3_squared_counts(self):
        g = q.cartesian_product(q.path(3), q.path(3))
        assert g.n == 9 and g.num_edges == 12

    def test_product_spectrum_is_pairwise_sums(self):
        # oracle: eigenvalues of a Cartesian product are all sums theta_i + mu_j
        g, h = q.path(3), q.path(2)
        wg = np.linalg.eigvalsh(g.adjacency.astype(float))
        wh = np.linalg.eigvalsh(h.adjacency.astype(float))
        expected = np.sort(np.add.outer(wg, wh).ravel())
        got = np.sort(np.linalg.eigvalsh(
            q.cartesian_product(g, h).adjacency.astype(float)))
        assert np.allclose(expected, got, atol=1e-10)

    def test_product_commutes_up_to_relabeling(self):
        g, h = q.path(3), q.cycle(4)
        gh = q.cartesian_product(g, h)
        hg = q.cartesian_product(h, g)
        perm = [(i % h.n) * g.n + i // h.n for i in range(g.n * h.n)]
        relabeled = np.asarray(hg.adjacency)[np.ix_(perm, perm)]
        assert np.array_equal(np.asarray(gh.adjacency), relabeled)

    @pytest.mark.parametrize("g,u,expected", [
        (q.path(3), 0, q.path(2)),
        (q.complete(3), 1, q.complete(2)),
        (q.path(4), 3, q.path(3)),
    ])
    def test_delete_vertex_examples(self, g, u, expected):
        assert delete_vertex(g, u) == expected

    def test_delete_vertex_edge_count(self):
        for g in random_graphs(20, 9, seed=11, n_min=2):
            u = g.n // 2
            assert delete_vertex(g, u).num_edges == g.num_edges - g.degree(u)

    def test_delete_out_of_range(self):
        with pytest.raises(ValueError):
            delete_vertex(q.path(3), 3)


def test_json_edge_list():
    g = q.Graph.from_json('{"n": 3, "edges": [[0, 1], [1, 2]]}')
    assert g == q.path(3)
