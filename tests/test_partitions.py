from pathlib import Path

import numpy as np
import pytest

import qwalk as q
from qwalk import partitions
from qwalk.partitions import Partition, automorphisms, stabilizers_equal

from conftest import delta_reference, random_connected_graphs, random_graphs, refine_reference
from oracles import (automorphisms_reference, characteristic_matrix, equitable_quotient_checks,
                     is_equitable, stabilizer_orbits_bruteforce)

CATALOG = Path(__file__).resolve().parents[1] / "perfbench" / "atlas1000.g6"


class TestPartitionType:
    def test_cell_order_is_min_vertex(self):
        pi = Partition.from_cells([[3, 1], [0, 2]], 4)
        assert pi.cells == ((0, 2), (1, 3))

    def test_invalid_cover(self):
        with pytest.raises(ValueError):
            Partition.from_cells([[0, 1]], 3)
        with pytest.raises(ValueError):
            Partition.from_cells([[0], [0, 1]], 2)


class TestRefinement:
    def test_regular_graph_trivial_stays(self):
        g = q.cycle(5)
        pi = q.coarsest_equitable_refinement(g, Partition.trivial(5))
        assert pi == Partition.trivial(5)

    def test_discrete_stays(self):
        g = q.path(4)
        pi = q.coarsest_equitable_refinement(g, Partition.discrete(4))
        assert pi == Partition.discrete(4)

    def test_star_center_leaves_stays(self):
        g = q.star(3)
        pi0 = Partition.from_cells([[0], [1, 2, 3]], 4)
        assert q.coarsest_equitable_refinement(g, pi0) == pi0

    def test_idempotent_and_refines(self):
        for g in random_graphs(50, 10, seed=61, n_min=2):
            pi0 = Partition.from_cells([[0], range(1, g.n)], g.n)
            pi = q.coarsest_equitable_refinement(g, pi0)
            assert pi.refines(pi0)
            assert q.coarsest_equitable_refinement(g, pi) == pi

    def test_isomorphism_equivariance(self):
        rng = np.random.default_rng(5)
        for g in random_graphs(20, 8, seed=67, n_min=3):
            perm = rng.permutation(g.n)
            a = np.asarray(g.adjacency)[np.ix_(perm, perm)]
            h = q.Graph(a)
            # relabeled graph: vertex i of h corresponds to perm[i] of g
            pi_g = q.GraphData(g).deltas([int(perm[0])])[int(perm[0])]
            pi_h = q.GraphData(h).deltas([0])[0]
            inv = np.argsort(perm)
            mapped = Partition.from_cells(
                [[int(inv[v]) for v in cell] for cell in pi_g.cells], g.n
            )
            assert mapped == pi_h


class TestDeltaU:
    def test_hypercube_distance_partition(self):
        pi = q.GraphData(q.hypercube(3)).deltas([0])[0]
        assert [len(c) for c in pi.cells] == [1, 3, 3, 1]
        # cells are exactly the Hamming-distance classes
        assert pi.cells[0] == (0,)
        assert set(pi.cells[1]) == {1, 2, 4}
        assert set(pi.cells[3]) == {7}

    def test_p4_end_is_discrete(self):
        assert q.GraphData(q.path(4)).deltas([0])[0] == Partition.discrete(4)

    def test_k1(self):
        assert q.GraphData(q.Graph.from_edges(1, [])).deltas([0])[0] == Partition.discrete(1)


LARGE = {
    "P5xP6": q.cartesian_product(q.path(5), q.path(6)),
    "Q5": q.hypercube(5),
    "Q6": q.hypercube(6),
    "P64": q.path(64),
    "C40": q.cycle(40),
}


class TestBatchedRefinement:
    """GraphData.deltas and coarsest_equitable_refinement against the
    refinement loop that refines one cell at a time."""

    @staticmethod
    def _check(g):
        deltas = q.GraphData(g).deltas(range(g.n))
        assert sorted(deltas) == list(range(g.n))
        for u in range(g.n):
            assert deltas[u] == delta_reference(g, u)
            cells = deltas[u].cells
            assert [c[0] for c in cells] == sorted(c[0] for c in cells)
        trivial = Partition.trivial(g.n)
        assert q.coarsest_equitable_refinement(g, trivial) == refine_reference(g, trivial)

    def test_atlas(self, atlas_connected):
        for graphs in atlas_connected.values():
            for g in graphs:
                self._check(g)

    def test_random_corpus(self):
        for g in random_connected_graphs(100, 14, seed=601) + random_graphs(60, 12, seed=607):
            self._check(g)

    @pytest.mark.parametrize("name", sorted(LARGE))
    def test_large_graphs(self, name):
        self._check(LARGE[name])

    def test_label_rows_on_the_catalog_and_large_graphs(self):
        # Delta_u is cached as a label row (each vertex labelled by the least
        # vertex of its cell); the Partitions that GraphData.deltas builds
        # from the rows are the one-cell-at-a-time refinement's, on every
        # vertex of the catalog graphs and of the cap-size graphs
        from test_analysis import LARGE as CAP_SIZE
        catalog = [q.parse_graph6(line) for line in CATALOG.read_text().split()]
        for g in catalog + list(CAP_SIZE.values()):
            data = q.GraphData(g)
            deltas = data.deltas(range(g.n))
            assert deltas == {u: delta_reference(g, u) for u in range(g.n)}
            for u in range(g.n):
                least = {v: cell[0] for cell in deltas[u].cells for v in cell}
                assert data._cache["deltas"][u] == tuple(least[v] for v in range(g.n))

    def test_roots_subset_and_order(self):
        g = q.cartesian_product(q.path(3), q.path(4))
        deltas = q.GraphData(g).deltas([9, 2, 5])
        assert list(deltas) == [9, 2, 5]
        assert all(deltas[u] == delta_reference(g, u) for u in deltas)
        assert q.GraphData(g).deltas([]) == {}

    def test_batches_of_roots(self, monkeypatch):
        # a small entry budget splits the roots into several batches
        g = q.hypercube(4)
        whole = q.GraphData(g).deltas(range(g.n))
        monkeypatch.setattr(partitions, "_BATCH_ENTRIES", 3 * g.n**2)
        assert q.GraphData(g).deltas(range(g.n)) == whole

    def test_refines_any_start(self):
        rng = np.random.default_rng(613)
        for g in random_graphs(40, 10, seed=617, n_min=2):
            cells = {}
            for v, c in enumerate(rng.integers(0, 3, size=g.n).tolist()):
                cells.setdefault(c, []).append(v)
            pi0 = Partition.from_cells(cells.values(), g.n)
            assert q.coarsest_equitable_refinement(g, pi0) == refine_reference(g, pi0)

    def test_bad_root(self):
        with pytest.raises(ValueError):
            q.GraphData(q.path(3)).deltas([0, 3])


class TestIsEquitable:
    def test_star_quotient(self):
        ok, b = is_equitable(q.star(3), Partition.from_cells([[0], [1, 2, 3]], 4))
        assert ok
        assert b.tolist() == [[0, 3], [1, 0]]

    def test_p3_unbalanced_split(self):
        ok, b = is_equitable(q.path(3), Partition.from_cells([[0], [1, 2]], 3))
        assert not ok and b is None

    def test_discrete_gives_adjacency(self):
        g = q.cycle(4)
        ok, b = is_equitable(g, Partition.discrete(4))
        assert ok
        assert np.array_equal(np.asarray(b, dtype=int), np.asarray(g.adjacency))

    def test_quotient_identities_exact(self):
        for g in random_graphs(30, 10, seed=71, n_min=2):
            pi = q.coarsest_equitable_refinement(g, Partition.trivial(g.n))
            checks = equitable_quotient_checks(g, pi)
            assert checks["equitable"]
            assert checks["AP_eq_PB"]
            assert checks["A_commutes_QQt"]

    def test_char_matrix_gram_is_cell_sizes(self):
        pi = Partition.from_cells([[0, 2], [1], [3, 4, 5]], 6)
        p = characteristic_matrix(pi)
        assert np.array_equal((p.T @ p).astype(int), np.diag([2, 1, 3]))


class TestDeltaEquality:
    def test_hypercube_antipodal(self):
        deltas = q.GraphData(q.hypercube(3)).deltas((0, 7))
        assert deltas[0] == deltas[7]

    def test_p4_end_vs_interior_both_discrete(self):
        # direct computation: refining either {{0}, rest} or {{1}, rest}
        # splits P4 all the way down, so the two partitions coincide
        deltas = q.GraphData(q.path(4)).deltas((0, 1))
        assert deltas[0] == Partition.discrete(4)
        assert deltas[1] == Partition.discrete(4)
        assert deltas[0] == deltas[1]

    def test_star_center_vs_leaf(self):
        deltas = q.GraphData(q.star(3)).deltas((0, 1))
        assert deltas[0] != deltas[1]

    def test_p3_ends(self):
        deltas = q.GraphData(q.path(3)).deltas((0, 2))
        assert deltas[0] == deltas[2]


class TestAutomorphisms:
    def test_p3_end_stabilizer_trivial(self):
        pi = stabilizer_orbits_bruteforce(q.path(3), 0)
        assert pi == Partition.discrete(3)

    def test_star_center_orbits(self):
        pi = stabilizer_orbits_bruteforce(q.star(3), 0)
        assert pi.cells == ((0,), (1, 2, 3))

    def test_cap(self):
        with pytest.raises(ValueError):
            stabilizer_orbits_bruteforce(q.petersen(), 0, n_cap=9)

    def test_orbits_refine_delta_u(self):
        for g in random_graphs(100, 8, seed=83, n_min=2):
            u = g.n - 1
            orbits = stabilizer_orbits_bruteforce(g, u)
            assert orbits.refines(q.GraphData(g).deltas([u])[u])

    def test_automorphisms_match_the_numpy_reference(self, atlas_connected):
        graphs = [g for n in range(1, 8) for g in atlas_connected[n]]
        graphs += [q.petersen(), q.hypercube(3), q.cycle(10), q.complete(4)]
        for g in graphs:
            colors = partitions.coarsest_equitable_refinement(g, Partition.trivial(g.n)).cell_of()
            assert automorphisms(g) == automorphisms_reference(g, colors)
        # with the colors of Delta_u, as the stabilizer orbits pass them
        for g in graphs[-4:]:
            colors = q.GraphData(g).deltas([0])[0].cell_of()
            assert automorphisms(g, colors=colors) == automorphisms_reference(g, colors)

    def test_automorphism_count_examples(self):
        assert len(automorphisms(q.complete(4))) == 24
        assert len(automorphisms(q.cycle(5))) == 10
        assert len(automorphisms(q.petersen())) == 120

    def test_stabilizers_equal_examples(self):
        assert stabilizers_equal(q.path(3), 0, 2)
        assert stabilizers_equal(q.hypercube(3), 0, 7)
        # swapping an end of P4 with an interior vertex is not stabilizer-safe
        assert not stabilizers_equal(q.star(3), 0, 1)
