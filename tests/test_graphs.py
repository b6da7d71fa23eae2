import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwalk as q
from qwalk.graphs import Graph6Error, parse_graph6_stack

from conftest import noncanonical_graph6, random_graphs
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

    @pytest.mark.parametrize("adjacency", [
        np.array([[0, 256], [256, 0]]), np.array([[0, .5], [.5, 0]]),
        np.array([[0, 257], [257, 0]]), np.array([[0, 1.7], [1.7, 0]]), [[0, 256], [256, 0]],
    ], ids=["256", "0.5", "257", "1.7", "list-256"])
    def test_rejects_entries_that_cast_to_0_or_1(self, adjacency):
        # checked as given: an int8 cast turns 256 and 0.5 into 0, 257 and
        # 1.7 into 1, and a list holding 256 into an OverflowError
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            q.Graph(adjacency)

    def test_copies_its_input(self):
        b = np.array([[0, 1], [1, 0]], dtype=np.int8)
        view = b[:]
        g = q.Graph(b)
        data = q.GraphData(g)
        assert b.flags.writeable  # the caller's array is not made read-only
        view[0, 1] = view[1, 0] = 0  # nor does a view of it reach the graph
        assert g == q.complete(2) and g.num_edges == 1
        assert data.connected and np.allclose(data.sd.eigenvalues, [1, -1])

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


@st.composite
def graph6_lines(draw):
    """(adjacency, one graph6 text of it): n on both sides of the 4-byte '~'
    prefix (62 | 63) and around it, or small; plain, headed, bytes, in the
    '~' form or with the padding bits set."""
    n = draw(st.sampled_from([0, 1, 2, 62, 63, 64, 70]) | st.integers(0, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.triu((rng.random((n, n)) < draw(st.sampled_from([0, .1, .5, 1]))).astype(int), 1)
    text = nx.to_graph6_bytes(nx.from_numpy_array(a + a.T), header=False).decode().strip()
    form = draw(st.sampled_from(["plain", "header", "bytes", "tilde", "padding"]))
    if form == "header":
        text = ">>graph6<<" + text
    elif form == "bytes":
        text = (">>graph6<<" + text + "\n").encode()
    elif form != "plain":
        text = noncanonical_graph6(text, form)
    return a + a.T, text


class TestStackedCodec:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(graph6_lines(), max_size=10))
    def test_matches_networkx_and_the_stack_of_one(self, lines):
        # a mixed stack decodes each line as networkx does and as
        # parse_graph6 does alone, and its ids are the canonical encodings
        got = parse_graph6_stack([text for _, text in lines])
        for (a, text), (g, gid) in zip(lines, got):
            ref = nx.from_graph6_bytes(text.encode() if isinstance(text, str) else text)
            assert np.array_equal(g.adjacency, a)
            assert np.array_equal(nx.to_numpy_array(ref, nodelist=range(len(a))), a)
            assert gid == nx.to_graph6_bytes(ref, header=False).decode().strip()
            assert q.parse_graph6(text) == g and q.encode_graph6(g) == gid
            assert not g.adjacency.flags.writeable

    def test_a_bad_line_leaves_the_others_whole(self):
        # each malformed text keeps the error and offset it raises alone
        texts = ["A_", "D", "\x7fbad", "Bw", "~~", "~?", "A_~~", ""]
        got = parse_graph6_stack(texts)
        assert [g for g, _ in (got[0], got[3])] == [q.complete(2), q.complete(3)]
        assert [gid for _, gid in (got[0], got[3])] == ["A_", "Bw"]
        assert sum(isinstance(x, Graph6Error) for x in got) == 6
        for text, err in zip(texts, got):
            if isinstance(err, Graph6Error):
                with pytest.raises(Graph6Error) as exc:
                    q.parse_graph6(text)
                assert (str(exc.value), exc.value.offset) == (str(err), err.offset)


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
