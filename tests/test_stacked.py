"""Stacked per-graph kernels: a stack of graphs of one vertex count gives, for
each graph, what that graph gives alone, and the per-graph checks still name
the graph that fails them."""

import io
import itertools
import math
import random
import tracemalloc

import networkx as nx
import numpy as np
import pytest

import qwalk as q
from qwalk import analysis, cli, graphs, partitions, spectral, walkalg

from conftest import as_tuples, random_connected_graphs, sign_reference, support_reference
from oracles import grid_reference, search_reference

SIZES = (1, 2, 3, 5, 8, 13)


def stacks(graphs, seed):
    """The graphs grouped by vertex count, shuffled, and cut into stacks of
    every size in SIZES in turn; every third stack repeats its first graph."""
    rng = random.Random(seed)
    by_n = {}
    for g in graphs:
        by_n.setdefault(g.n, []).append(g)
    out = []
    for group in by_n.values():
        rng.shuffle(group)
        start = 0
        while start < len(group):
            size = SIZES[len(out) % len(SIZES)]
            stack = group[start:start + size]
            if len(out) % 3 == 2:
                stack.append(stack[0])
            out.append(stack)
            start += size
    return out


def roots_for(stack, seed):
    """Per graph: every vertex, a random subset, or none."""
    rng = random.Random(seed)
    choice = []
    for i, g in enumerate(stack):
        kind = i % 3
        if kind == 0:
            choice.append(list(range(g.n)))
        elif kind == 1:
            choice.append(rng.sample(range(g.n), rng.randint(1, g.n)))
        else:
            choice.append([])
    return choice


@pytest.fixture(scope="module")
def corpus(atlas_connected):
    graphs = [g for n in range(1, 8) for g in atlas_connected[n]]
    return graphs + random_connected_graphs(300, 10, seed=20240901)


class TestStackMatchesOneGraph:
    def test_char_polys(self, corpus):
        for stack in stacks(corpus, seed=1):
            assert list(map(as_tuples, spectral._faddeev_leverrier(stack))) == \
                [as_tuples(spectral._faddeev_leverrier([g])[0]) for g in stack]

    def test_walk_ranks_and_minimal_polys(self, corpus):
        # the corpus has stacks of n = 1 and n = 2
        for i, stack in enumerate(stacks(corpus, seed=2)):
            roots = roots_for(stack, seed=i)
            found = walkalg.minimal_polys_stack(spectral.char_polys(stack), roots)
            alone = [q.GraphData(g).minimal_polys(r) for g, r in zip(stack, roots)]
            assert found == alone
            assert [{u: len(psi) - 1 for u, psi in f.items()} for f in found] == \
                [{u: len(psi) - 1 for u, psi in f.items()} for f in alone]

    def test_controllability(self, corpus):
        for i, stack in enumerate(stacks(corpus, seed=3)):
            roots = roots_for(stack, seed=i)
            found = walkalg.minimal_polys_stack(spectral.char_polys(stack), roots)
            assert [{u: len(psi) - 1 == g.n for u, psi in f.items()}
                    for g, f in zip(stack, found)] == \
                [{u: len(psi) - 1 == g.n for u, psi in q.GraphData(g).minimal_polys(r).items()}
                 for g, r in zip(stack, roots)]

    def test_delta_partitions(self, corpus):
        for i, stack in enumerate(stacks(corpus, seed=4)):
            roots = roots_for(stack, seed=i)
            assert partitions.delta_stack(stack, roots) == \
                [partitions.delta_stack([g], [r])[0] for g, r in zip(stack, roots)]

    def test_batches_split_across_graphs(self, monkeypatch, atlas_connected):
        # a small entry budget cuts the rows of a stack into batches that hold
        # a part of one graph's rows or several graphs'
        stack = atlas_connected[7][:40]
        roots = [range(7)] * len(stack)
        alone_deltas = [partitions.delta_stack([g], [r])[0] for g, r in zip(stack, roots)]
        monkeypatch.setattr(partitions, "_BATCH_ENTRIES", 11 * 7 * 7)
        assert partitions.delta_stack(stack, roots) == alone_deltas

    def test_large_graphs(self):
        # one stack per vertex count at the sizes the scan cap allows
        rng = np.random.default_rng(64)
        for n in (32, 64):
            stack = [q.path(n), q.cycle(n)] + [
                q.Graph(a + a.T) for a in
                (np.triu((rng.random((n, n)) < d).astype(int), 1) for d in (0.1, 0.5))]
            roots = [range(n), [0, n - 1], range(0, n, 3), []]
            assert list(map(as_tuples, spectral._faddeev_leverrier(stack))) == \
                [as_tuples(spectral._faddeev_leverrier([g])[0]) for g in stack]
            found = walkalg.minimal_polys_stack(spectral.char_polys(stack), roots)
            alone = [q.GraphData(g).minimal_polys(r) for g, r in zip(stack, roots)]
            assert found == alone
            assert [{u: len(psi) - 1 == g.n for u, psi in f.items()}
                    for g, f in zip(stack, found)] == \
                [{u: len(psi) - 1 == g.n for u, psi in f.items()}
                 for g, f in zip(stack, alone)]

    def test_primes_cover_the_densest_graph(self, monkeypatch):
        # the coefficient bound grows with the edge count, so a stack takes
        # its primes from its densest graph, wherever that sits in the stack
        stack = [q.path(40), q.complete(40), q.star(39)]
        asked = []
        real = spectral._coefficient_bound
        monkeypatch.setattr(spectral, "_coefficient_bound",
                            lambda n, m: asked.append((n, m)) or real(n, m))
        assert list(map(as_tuples, spectral._faddeev_leverrier(stack))) == \
            [as_tuples(spectral._faddeev_leverrier([g])[0]) for g in stack]
        assert asked[0] == (40, 40 * 39 // 2)


@pytest.mark.internal_check
def test_corrupt_residue_in_a_stack_names_its_graph(monkeypatch):
    stack = [q.petersen(), q.path(10), q.cycle(10), q.star(9), q.complete(10)]
    rows = 10 + 1 + 10 * 10  # of each graph: phi, then the phi(G - u)
    real = spectral._combine

    def corrupt(target, columns):
        def combine(residues, primes):
            residues = residues.copy()
            last = (target + 1) * rows - 1  # the last coefficient of phi(G - 9)
            residues[last, columns] = (residues[last, columns] + 1) % np.array(primes)[columns]
            return real(residues, primes)
        return combine

    # every prime: the check prime agrees, and phi' = sum phi(G - u) fails
    monkeypatch.setattr(spectral, "_combine", corrupt(2, slice(None)))
    with pytest.raises(q.InternalCheckError, match="phi'") as err:
        spectral._faddeev_leverrier(stack)
    assert str(err.value).startswith(q.encode_graph6(stack[2]) + ":")
    # the check prime alone
    monkeypatch.setattr(spectral, "_combine", corrupt(3, slice(-1, None)))
    with pytest.raises(q.InternalCheckError, match="check prime") as err:
        spectral._faddeev_leverrier(stack)
    assert str(err.value).startswith(q.encode_graph6(stack[3]) + ":")


# ---------------------------------------------------------------------------
# The float side of scan: the stacked routes against the per-graph loops
# they replaced, kept here as references.

def decompose_reference(g, grouping_tolerance=None):
    """The per-cluster loop that ``spectral.decompose_stack`` replaced."""
    w, v = np.linalg.eigh(g.adjacency.astype(float))
    w, v = w[::-1], v[:, ::-1]  # descending
    rho = float(max(abs(w[0]), abs(w[-1])))
    if grouping_tolerance is None:
        grouping_tolerance = spectral.default_grouping_tolerance(g.n, rho)
    bounds = [0]
    for i in range(1, len(w)):
        if w[i - 1] - w[i] >= grouping_tolerance:
            bounds.append(i)
    bounds.append(len(w))
    eigs, mults, idems = [], [], []
    for lo, hi in zip(bounds, bounds[1:]):
        eigs.append(float(w[lo:hi].mean()))
        mults.append(hi - lo)
        block = v[:, lo:hi]
        idems.append(block @ block.T)
    return spectral.SpectralDecomposition(
        eigenvalues=np.array(eigs), multiplicities=np.array(mults, dtype=int),
        idempotents=np.stack(idems), grouping_tolerance=float(grouping_tolerance))


def peaks_reference(vals, floor):
    """The per-grid-point loop that ``analysis._grid_peaks`` replaced."""
    peaks = []
    for i in range(len(vals)):
        if i == 0:
            ok = len(vals) == 1 or abs(vals[0] - vals[1]) < 1e-12
        else:
            ok = vals[i] >= vals[i - 1] and (i == len(vals) - 1 or vals[i] >= vals[i + 1])
        if ok and vals[i] >= floor:
            peaks.append(i)
    return peaks


def connected_reference(g):
    """The per-vertex search that ``graphs.connected_stack`` replaced."""
    if g.n == 0:
        return True
    seen, stack = {0}, [0]
    while stack:
        for v in g.neighbors(stack.pop()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


def assert_bit_identical(sd, ref):
    assert sd.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
    assert sd.multiplicities.tolist() == ref.multiplicities.tolist()
    assert sd.multiplicities.dtype == ref.multiplicities.dtype
    assert len(sd.idempotents) == len(ref.idempotents)
    assert all(e.tobytes() == r.tobytes() for e, r in zip(sd.idempotents, ref.idempotents))
    assert sd.grouping_tolerance == ref.grouping_tolerance


@pytest.fixture(scope="module")
def atlas_all():
    """Every graph of the networkx atlas, 0 to 7 vertices, connected or not."""
    return [q.Graph(nx.to_numpy_array(G, dtype=int)) for G in nx.graph_atlas_g()]


SPECIAL = {"Q5": q.hypercube(5), "Q6": q.hypercube(6), "P64": q.path(64),
           "C40": q.cycle(40), "K10": q.complete(10), "star63": q.star(63),
           "P5xP6": q.cartesian_product(q.path(5), q.path(6))}


class TestFloatSideMatchesReference:
    @pytest.mark.parametrize("tolerance", [None, 1e-6, 0.5, 2.0])
    def test_decompose_stack(self, atlas_all, tolerance):
        # chunks of 64 graphs of mixed order, as scan stacks them; 0.5 and
        # 2.0 merge distinct eigenvalues into clusters
        corpus = [g for g in atlas_all if g.n >= 1] + list(SPECIAL.values())
        corpus += random_connected_graphs(300, 10, seed=20240901)
        random.Random(11).shuffle(corpus)
        merged = 0
        for start in range(0, len(corpus), 64):
            stack = corpus[start:start + 64]
            for g, sd in zip(stack, spectral.decompose_stack(stack, tolerance)):
                ref = decompose_reference(g, tolerance)
                assert_bit_identical(sd, ref)
                assert_bit_identical(q.decompose(g, tolerance), ref)
                merged += len(ref.eigenvalues) < len(decompose_reference(g).eigenvalues)
        assert (merged > 0) == (tolerance in (0.5, 2.0))

    @pytest.mark.parametrize("tolerance", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_tolerance(self, tolerance):
        with pytest.raises(ValueError, match="grouping_tolerance"):
            spectral.decompose_stack([q.path(3), q.path(4)], tolerance)

    @pytest.mark.parametrize("vals", [
        [0.99], [0.5], [0.97], [0.99, 0.99], [0.99, 0.5], [0.5, 0.99],
        [1.0, 1.0, 1.0, 0.5], [1.0, 1.0 - 1e-13, 0.9, 0.99],  # flat start
        [0.5, 0.99, 0.99, 0.5, 0.99, 0.99],  # plateaus and ties
        [0.1, 0.5, 0.995], [0.97, 0.96, 0.97, 0.97],  # last point, the floor
        [0.96, 0.97, 0.96, 0.9700000000000001, 0.9699999999999999],
    ])
    def test_grid_peaks_hand_made(self, vals):
        vals = np.array(vals)
        assert analysis._grid_peaks(vals, 0.97).tolist() == peaks_reference(vals, 0.97)

    def test_grid_peaks_ties(self):
        # values on a coarse lattice tie often; floors on the lattice too
        rng = np.random.default_rng(5)
        for size in (1, 2, 3, 7, 50):
            for _ in range(200):
                vals = rng.integers(0, 4, size) / 3
                for floor in (0.0, 1 / 3, 2 / 3, 1.0):
                    assert analysis._grid_peaks(vals, floor).tolist() == \
                        peaks_reference(vals, floor)

    def test_grid_peaks_of_every_catalog_search(self, monkeypatch, atlas_connected):
        self._check_catalog_grids(monkeypatch, atlas_connected)

    def test_grid_peaks_with_capped_blocks(self, monkeypatch, atlas_connected):
        # a block cap small enough to cut most blocks leaves the grid and
        # the hits bit for bit
        monkeypatch.setattr(analysis, "_SEARCH_BLOCK_ENTRIES", 2**10)
        self._check_catalog_grids(monkeypatch, atlas_connected)

    @staticmethod
    def _check_catalog_grids(monkeypatch, atlas_connected):
        lines = [q.encode_graph6(g) for n in range(1, 8) for g in atlas_connected[n]]
        # a pair whose verdicts all pass is searched up to one period, so
        # only a large spectral radius makes a long grid: K2 x K10 (rho =
        # 10) has all-pass pairs with no transfer, searched over 2,002
        # points in four blocks
        lines += [q.encode_graph6(g) for g in (q.hypercube(3), q.petersen(), q.path(8),
                                               q.cycle(8),
                                               q.cartesian_product(q.path(2), q.complete(10)))]
        searches = []  # (grid arguments, blocks, hit)
        real_search, real_peaks = analysis._search_amplitude, analysis._grid_peaks

        def search_spy(thetas, coeffs, t_max, threshold, rho):
            searches.append([(thetas, coeffs, t_max, rho), []])
            hit = real_search(thetas, coeffs, t_max, threshold, rho)
            searches[-1].append(hit)
            return hit

        def peaks_spy(vals, floor):
            found = real_peaks(vals, floor)
            searches[-1][1].append((vals.copy(), found.tolist() == peaks_reference(vals, floor)))
            return found

        monkeypatch.setattr(analysis, "_search_amplitude", search_spy)
        monkeypatch.setattr(analysis, "_grid_peaks", peaks_spy)
        cli.run_scan(lines, cli.AnalysisConfig(), out=io.StringIO())
        assert len(searches) >= 30
        many = 0
        for args, blocks, hit in searches:
            assert all(same for _, same in blocks)
            blocks = [vals for vals, _ in blocks]
            # consecutive blocks share two points, the last of one block's
            # own and the first of the next's; without them the blocks are
            # the start of the whole grid, bit for bit, and all of it when
            # nothing reached the threshold
            vals = grid_reference(*args)[2]
            joined = np.concatenate([blocks[0]] + [b[2:] for b in blocks[1:]])
            assert joined.tobytes() == vals[:len(joined)].tobytes()
            assert hit is not None or len(joined) == len(vals)
            cap = max(1, analysis._SEARCH_BLOCK_ENTRIES // len(args[0]))
            sizes = [min(analysis._FIRST_BLOCK, cap)]
            while len(sizes) < len(blocks) - 1:
                sizes.append(min(2 * sizes[-1], cap))
            assert [len(b) for b in blocks[:-1]] == \
                [s + 1 + (k > 0) for k, s in enumerate(sizes[:len(blocks) - 1])]
            many += len(blocks) > 3
        assert many > 0

    def test_search_pst_of_every_catalog_pair(self, atlas_connected):
        graphs = [g for n in range(2, 8) for g in atlas_connected[n]]
        graphs += [q.hypercube(3), q.petersen(), q.path(8), q.cycle(8)]
        pairs = found = 0
        for g in graphs:
            data = q.GraphData(g)
            for u, v in data.cospectral_pairs:
                event = q.search_pst(data.sd, u, v)
                assert event == search_reference(data.sd, u, v)
                pairs += 1
                found += event is not None
        assert (pairs, found) == (2734, 11)

    @pytest.mark.parametrize("corpus", ["catalog", "families"])
    def test_search_up_to_one_period_keeps_every_event(self, atlas_connected, corpus):
        # a pair whose verdicts all pass is searched up to one period of
        # |H(t)_uv| plus two grid steps; its event must be that of the whole
        # search up to the default t_max
        if corpus == "catalog":
            graphs = [g for n in range(2, 8) for g in atlas_connected[n]]
            graphs += [q.hypercube(3), q.petersen(), q.path(8), q.cycle(8)]
        else:
            p3, x = q.path(3), q.cartesian_product
            graphs = [q.hypercube(d) for d in range(1, 7)] + [x(p3, p3), x(x(p3, p3), p3)]
            graphs += [q.path(n) for n in range(3, 21)] + [q.cycle(n) for n in range(3, 21)]
            graphs += [q.petersen(), q.Graph.from_edges(8, [(i, j) for i in (0, 1)
                                                           for j in range(2, 8)])]
            graphs += [q.complete(n) for n in range(3, 12)]
            graphs += [q.Graph(nx.to_numpy_array(t, dtype=int))
                       for n in range(2, 11) for t in nx.nonisomorphic_trees(n)]
        pairs = found = 0
        for g in graphs:
            data = q.GraphData(g)
            for (u, v), row in zip(data.cospectral_pairs,
                                   data.verdict_rows(data.cospectral_pairs)):
                if all(row):
                    event = data.search(u, v)
                    assert event == search_reference(data.sd, u, v), (g, u, v)
                    pairs += 1
                    found += event is not None
        assert (pairs, found) == {"catalog": (32, 11), "families": (92, 86)}[corpus]

    def test_search_pst_on_larger_supports(self):
        graphs = [q.path(n) for n in range(8, 21)] + [q.cycle(n) for n in range(8, 21)]
        p3 = q.path(3)
        graphs += [q.hypercube(5), q.hypercube(6), q.petersen(),
                   q.cartesian_product(q.cartesian_product(p3, p3), p3)]
        graphs += random_connected_graphs(12, 48, seed=23, n_min=12)
        found = largest = 0
        for g in graphs:
            sd = q.decompose(g)
            largest = max(largest, len(sd.eigenvalues))
            for u, v in [(0, g.n - 1), (0, g.n // 2), (1, g.n - 2)]:
                event = q.search_pst(sd, u, v, threshold=0.9)
                assert event == search_reference(sd, u, v, threshold=0.9)
                found += event is not None
        assert found > 5 and largest >= 40

    def test_search_pst_across_many_blocks(self):
        # C40 at t_max 400 has a grid of 25465 points in 7 blocks; none
        # reaches 0.9, and the first point at 0.5 is in the fifth block,
        # grid points 3840 to 7935
        sd = q.decompose(q.cycle(40))
        events = []
        for threshold in (analysis.THRESHOLD_DEFAULT, 0.9, 0.5):
            event = q.search_pst(sd, 0, 20, t_max=400, threshold=threshold)
            assert event == search_reference(sd, 0, 20, t_max=400, threshold=threshold)
            events.append(event)
        step = math.pi / 200
        assert events[:2] == [None, None] and 3840 * step < events[2].tau < 7937 * step

    def test_cospectral_pairs_are_the_tuple_loop(self, atlas_connected):
        # one broadcast comparison of a stack's phi(G - u) rows gives the
        # pairs of the loop over coefficient tuples it replaced: on the atlas
        # graphs and at the cap, where K64's rows hold Python ints and are
        # compared by their residues first
        by_n = {}
        for g in [g for n in range(1, 8) for g in atlas_connected[n]] + [
                q.complete(64), q.star(63), q.hypercube(6),
                *random_connected_graphs(3, 64, seed=64, n_min=64)]:
            by_n.setdefault(g.n, []).append(g)
        wide = 0
        for n, graphs in by_n.items():
            rows = spectral.char_polys(graphs)
            for (_, deleted), pairs in zip(rows, analysis._cospectral_stack(rows)):
                deleted = [tuple(r) for r in deleted.tolist()]
                assert pairs == [(u, v) for u, v in itertools.combinations(range(n), 2)
                                 if deleted[u] == deleted[v]]
            wide += rows[0][1].dtype == object
        assert wide and len(q.GraphData(q.complete(64)).cospectral_pairs) == 2016

    def test_connected_stack(self, atlas_all):
        by_n = {}
        for g in atlas_all + list(SPECIAL.values()):
            by_n.setdefault(g.n, []).append(g)
        # a path needs walks of length n - 1, the most the squarings reach;
        # without one edge it splits in two
        for n in range(2, 71):
            cut = q.Graph.from_edges(n, [(i, i + 1) for i in range(n - 1) if i != n // 2])
            by_n.setdefault(n, []).extend([q.path(n), cut])
        a = np.zeros((64, 64), dtype=int)
        a[1:, 1:] = 1 - np.eye(63, dtype=int)  # K1 beside K63
        by_n[64].append(q.Graph(a))
        assert q.Graph(np.zeros((0, 0))).is_connected() and q.path(1).is_connected()
        for n, stack in by_n.items():
            expected = [connected_reference(g) for g in stack]
            assert graphs.connected_stack(stack) == expected
            assert [g.is_connected() for g in stack] == expected
            if n >= 2:
                assert True in expected and False in expected

    # (grouping tolerance, support tolerance): the defaults; 10, above every
    # diagonal entry, so that every support is empty; 1e-300, which rounding
    # noise passes; 0.3, which leaves support values out; and a grouping
    # tolerance that merges eigenvalues
    FLOAT_SETTINGS = [(None, q.spectral.SUPPORT_TOL_DEFAULT), (None, 10.0), (None, 1e-300),
                      (None, 0.3), (0.3, q.spectral.SUPPORT_TOL_DEFAULT)]

    @staticmethod
    def _pairs(g):
        # every pair, and every third one the other way round
        pairs = list(itertools.combinations(range(g.n), 2))
        return pairs + [(v, u) for u, v in pairs[::3]]

    def _check_supports_and_signs(self, stack, grouping, support):
        sds = spectral.decompose_stack(stack, grouping)
        assert spectral.supports_stack(sds, support) == \
            [tuple(support_reference(sd, u, support) for u in range(sd.n)) for sd in sds]
        pairs = [self._pairs(g) for g in stack]
        found = analysis.signs_stack(sds, pairs, support)
        assert found == [{(u, v): sign_reference(sd, u, v, support) for u, v in ps}
                         for sd, ps in zip(sds, pairs)]
        return [sign for signs in found for sign in signs.values()]

    @pytest.mark.parametrize("grouping,support", FLOAT_SETTINGS)
    def test_supports_and_signs(self, corpus, grouping, support):
        special = [q.hypercube(6), q.path(64),
                   q.cartesian_product(q.petersen(), q.path(3)), q.complete(2)]
        signs = []
        for stack in stacks(corpus + special, seed=6):
            signs += self._check_supports_and_signs(stack, grouping, support)
        assert True in signs and (False in signs) == (support != 10.0)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_signs_across_blocks(self, monkeypatch, atlas_connected, rows):
        # blocks of 1 or 3 rows cut a pair's rows (one per eigenvalue of its
        # graph) over several blocks, failing rows included
        stack = atlas_connected[7][:60]
        monkeypatch.setattr(analysis, "_SIGN_BLOCK_ENTRIES", rows * 7)
        assert max(len(sd.eigenvalues) for sd in spectral.decompose_stack(stack)) > rows
        signs = self._check_supports_and_signs(stack, None, q.spectral.SUPPORT_TOL_DEFAULT)
        assert True in signs and False in signs

    def test_sign_pass_memory_is_bounded(self):
        # 64 copies of Q6, as a scan chunk of Q6 lines stacks them: 2016 pairs
        # by 7 eigenvalues each, 903,168 rows of 64 entries, would be 462 MB
        # per float temporary gathered at once; in blocks of
        # _SIGN_BLOCK_ENTRIES the pass stays under 40 MB, the copied
        # idempotents (15 MB) and the per-pair dicts included
        sds = spectral.decompose_stack([q.hypercube(6)] * 64)
        pairs = [list(itertools.combinations(range(64), 2))] * 64
        tracemalloc.start()
        try:
            found = analysis.signs_stack(sds, pairs, q.spectral.SUPPORT_TOL_DEFAULT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20, peak
        assert found[0] == {(u, v): sign_reference(sds[0], u, v, q.spectral.SUPPORT_TOL_DEFAULT)
                            for u, v in pairs[0]}
        assert all(signs == found[0] for signs in found)
