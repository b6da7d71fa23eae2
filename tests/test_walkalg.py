import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import qwalk as q
import qwalk.polys as polys
import qwalk.spectral as spectral
import qwalk.walkalg as walkalg
from qwalk.polys import poly_gcd

from conftest import closed_walks_reference, gcd_pairs, poly_divmod, random_connected_graphs
from oracles import (invert_exact, poly_degree, rank_exact, support_size_crosscheck,
                     transfer_similarity, walk_matrix)

LARGE = {
    "P5xP6": q.cartesian_product(q.path(5), q.path(6)),
    "Q5": q.hypercube(5),
    "Q6": q.hypercube(6),
    "P64": q.path(64),
    "C40": q.cycle(40),
}


def bareiss_ranks(g):
    """Reference: the Bareiss rank of every whole walk matrix."""
    return {u: rank_exact(walk_matrix(g, u)) for u in range(g.n)}


def coprime_reference(g):
    """Reference: gcd(phi, phi(G - u)) = 1 by the certified modular gcd."""
    phi, deleted = q.GraphData(g).char_polys
    return {u: poly_degree(poly_gcd(phi, p)) == 0
            for u, p in enumerate(deleted)}


def spy_poly_gcd(monkeypatch):
    """Record the (phi, row) pairs that reach polys.poly_gcd."""
    sent = []
    real = polys.poly_gcd
    monkeypatch.setattr(polys, "poly_gcd", lambda p, r: sent.append((p, r)) or real(p, r))
    return sent


def small_prime_first(monkeypatch, p):
    """Make poly_gcds, and it alone, run modulo ``p`` before its own primes;
    the recurrence, the walk counts and poly_gcd import or walk theirs."""
    real = polys._primes_above
    monkeypatch.setattr(polys, "_primes_above", lambda bound: (p,) + real(bound))


def poly_mul_mod(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


class TestWalkMatrix:
    def test_p2_identity(self):
        assert np.array_equal(walk_matrix(q.path(2), 0).astype(int), np.eye(2, dtype=int))

    def test_p3_center(self):
        w = walk_matrix(q.path(3), 1)
        assert w[:, 0].tolist() == [0, 1, 0]
        assert w[:, 1].tolist() == [1, 0, 1]
        assert w[:, 2].tolist() == [0, 2, 0]

    def test_entries_count_walks(self):
        g = q.petersen()
        w = walk_matrix(g, 0, cap=64)
        a = np.asarray(g.adjacency, dtype=object)
        power = np.eye(10, dtype=object)
        for k in range(10):
            assert w[:, k].tolist() == (power @ np.eye(10, dtype=object)[:, 0]).tolist()
            power = a @ power

    def test_cap(self):
        with pytest.raises(ValueError):
            walk_matrix(q.path(5), 0, cap=4)


class TestRankExact:
    def test_identity(self):
        assert rank_exact(np.eye(6, dtype=int)) == 6

    def test_p3_center_rank_two(self):
        assert rank_exact(walk_matrix(q.path(3), 1)) == 2

    def test_p4_end_full_rank(self):
        assert rank_exact(walk_matrix(q.path(4), 0)) == 4

    def test_zero_and_rectangular(self):
        assert rank_exact(np.zeros((3, 3), dtype=int)) == 0
        assert rank_exact(np.array([[1, 2, 3], [2, 4, 6]], dtype=object)) == 1

    def test_matches_numpy_on_random(self):
        rng = np.random.default_rng(97)
        for _ in range(50):
            m = rng.integers(-3, 4, size=(6, 6))
            assert rank_exact(m) == np.linalg.matrix_rank(m.astype(float))


class TestWalkRank:
    """deg psi_u, of one root or of every root, must equal the Bareiss rank
    of the whole walk matrix."""

    def test_matches_bareiss_on_atlas(self, atlas_connected):
        for graphs in atlas_connected.values():
            for g in graphs:
                psi = q.GraphData(g).minimal_polys(range(g.n))
                for u in range(g.n):
                    assert len(psi[u]) - 1 == rank_exact(walk_matrix(g, u))

    def test_matches_bareiss_on_random_corpus(self):
        for g in random_connected_graphs(300, 10, seed=20240901):
            psi = q.GraphData(g).minimal_polys(range(g.n))
            for u in range(g.n):
                assert len(psi[u]) - 1 == rank_exact(walk_matrix(g, u))

    @pytest.mark.parametrize("g", list(LARGE.values()), ids=list(LARGE))
    def test_matches_bareiss_on_large_graphs(self, g):
        # all five have rank-deficient vertices, so a lifted gcd decides them
        psi = q.GraphData(g).minimal_polys(range(g.n))
        assert min(len(p) - 1 for p in psi.values()) < g.n
        for u in range(g.n):
            assert len(psi[u]) - 1 == rank_exact(walk_matrix(g, u))

    def test_unlucky_prime_falls_back_to_poly_gcd(self, monkeypatch, atlas_connected):
        # modulo 2 many Euclids degenerate or find too large a gcd, which the
        # next prime contradicts, so those roots are decided by poly_gcd
        sent = spy_poly_gcd(monkeypatch)
        small_prime_first(monkeypatch, 2)
        for n in range(2, 6):
            for g in atlas_connected[n]:
                for u in range(g.n):
                    assert len(q.GraphData(g).minimal_polys([u])[u]) - 1 == \
                        rank_exact(walk_matrix(g, u))
        assert sent

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1000])
    def test_prime_keeps_int64_sums_exact(self, n):
        # residues next to the largest prime, at degree n: the int64 lockstep
        # Euclid must give the gcd of the Python-int Euclid, with and without
        # a common factor
        p = polys._PRIMES31[0]
        rng = np.random.default_rng(n)

        def monic(d):
            return [1] + [p - 1 - int(c) for c in rng.integers(0, 2**20, size=d)]

        h = monic(min(3, n - 1))
        pairs = [(monic(n), monic(n - 1))]
        pairs.append(tuple(poly_mul_mod(h, monic(n - len(h) + k), p) for k in (1, 0)))
        a, b = (np.array(side, dtype=np.int64) for side in zip(*pairs))
        gcds, degrees = polys._euclid_mod(a, b, p)
        for (x, y), got, d in zip(pairs, gcds.tolist(), degrees.tolist()):
            expected = polys._gcd_mod(x, y, p)
            assert d == len(expected) - 1 and got[-d - 1:] == expected
        assert degrees.tolist() == [0, len(h) - 1]

    def test_bad_vertex_and_cap(self):
        with pytest.raises(ValueError):
            q.GraphData(q.path(3)).minimal_polys([3])
        with pytest.raises(ValueError):
            q.GraphData(q.path(5), q.AnalysisConfig(exact_cap=4)).minimal_polys([0])


class TestWalkRanks:
    """deg psi_u over a whole root set against the Bareiss rank of each
    whole walk matrix."""

    def test_atlas(self, atlas_connected):
        for graphs in atlas_connected.values():
            for g in graphs:
                psi = q.GraphData(g).minimal_polys(range(g.n))
                assert {u: len(p) - 1 for u, p in psi.items()} == bareiss_ranks(g)

    def test_random_corpus(self):
        for g in random_connected_graphs(300, 10, seed=20240901):
            psi = q.GraphData(g).minimal_polys(range(g.n))
            assert {u: len(p) - 1 for u, p in psi.items()} == bareiss_ranks(g)

    @pytest.mark.parametrize("name", sorted(LARGE))
    def test_large_graphs(self, name):
        g = LARGE[name]
        ranks = {u: len(p) - 1 for u, p in q.GraphData(g).minimal_polys(range(g.n)).items()}
        assert min(ranks.values()) < g.n  # deficient roots take the certificate
        assert ranks == bareiss_ranks(g)

    def test_unlucky_prime_falls_back_to_poly_gcd(self, monkeypatch, atlas_connected):
        # modulo 2 many batched roots degenerate or find too large a gcd, which
        # the next prime contradicts, so poly_gcd decides them
        sent = spy_poly_gcd(monkeypatch)
        small_prime_first(monkeypatch, 2)
        for n in range(2, 7):
            for g in atlas_connected[n]:
                reference = bareiss_ranks(g)
                psi = q.GraphData(g).minimal_polys(range(n))
                assert {u: len(p) - 1 for u, p in psi.items()} == reference
                assert {u: len(p) - 1 == n for u, p in psi.items()} == \
                    {u: k == n for u, k in reference.items()}
        assert sent

    def test_roots_subset_and_batches(self):
        g = LARGE["P5xP6"]
        reference = bareiss_ranks(g)
        psi = q.GraphData(g).minimal_polys([17, 3, 29])
        assert list(psi) == [17, 3, 29]
        assert all(len(psi[u]) - 1 == reference[u] for u in psi)
        assert q.GraphData(g).minimal_polys([]) == {}
        psi = q.GraphData(g).minimal_polys(range(g.n))
        assert {u: len(p) - 1 for u, p in psi.items()} == reference

    def test_bad_vertex_and_cap(self):
        with pytest.raises(ValueError):
            q.GraphData(q.path(3)).minimal_polys([0, 3])
        with pytest.raises(ValueError):
            q.GraphData(q.path(5), q.AnalysisConfig(exact_cap=4)).minimal_polys([0])


class TestMinimalPolys:
    """The certified gcds of poly_gcds equal poly_gcd row by row, their
    cofactors are the minimal polynomials psi_u = phi / gcd(phi, phi(G - u))
    that GraphData.minimal_polys gives, and every psi_u has degree the
    Bareiss rank."""

    @staticmethod
    def _check(g):
        data = q.GraphData(g)
        phi, rows = data.char_polys
        found = gcd_pairs([phi] * g.n, rows)
        assert [h for h, _ in found] == [poly_gcd(phi, r) for r in rows]
        reference = bareiss_ranks(g)
        minimal = data.minimal_polys(range(g.n))
        for u, (h, cofactor) in enumerate(found):
            psi, rest = poly_divmod(phi, h)
            assert rest == [0] and len(psi) - 1 == reference[u]
            assert cofactor == psi and minimal[u] == tuple(psi)

    def test_atlas(self, atlas_connected):
        for graphs in atlas_connected.values():
            for g in graphs:
                self._check(g)

    def test_random_corpus(self):
        for g in random_connected_graphs(300, 10, seed=20240901):
            self._check(g)

    @pytest.mark.parametrize("name", sorted(LARGE))
    def test_large_graphs(self, name):
        self._check(LARGE[name])

    def test_corrupt_lifted_coefficient_reaches_poly_gcd(self, monkeypatch, atlas_connected):
        # the constant coefficient of the last lifted row is off by one after
        # every prime, so its exact divisions fail each time and only that
        # distinct (phi, phi(G - u)) pair goes to poly_gcd
        real_crt = polys._crt

        def corrupt(residues, primes):
            values = real_crt(residues, primes)
            values[-1] += 1
            return values

        graphs = [g for n in range(3, 7) for g in atlas_connected[n]]
        graphs += [LARGE["P5xP6"], LARGE["Q5"]]
        for g in graphs:
            reference = bareiss_ranks(g)
            data = q.GraphData(g)
            phi, deleted = data.char_polys
            deficient = {deleted[u] for u in range(g.n) if reference[u] < g.n}
            if not deficient:
                continue
            sent = spy_poly_gcd(monkeypatch)
            monkeypatch.setattr(polys, "_crt", corrupt)
            psi = data.minimal_polys(range(g.n))
            assert {u: len(p) - 1 for u, p in psi.items()} == reference
            assert len(sent) == 1 and tuple(sent[0][0]) == phi and \
                tuple(sent[0][1]) in deficient
            controllable = {u: len(p) - 1 == g.n for u, p in psi.items()}
            assert controllable == {u: k == g.n for u, k in reference.items()}
            monkeypatch.undo()


class TestBatchedControllability:
    """deg psi_u = n over a root set, from the gcds of one poly_gcds run,
    against the Bareiss and coprimality references."""

    def test_matches_references(self, atlas_connected):
        graphs = [g for n in range(2, 7) for g in atlas_connected[n]]
        graphs += random_connected_graphs(60, 12, seed=709) + [LARGE["P5xP6"], LARGE["Q5"]]
        for g in graphs:
            expected = {u: r == g.n for u, r in bareiss_ranks(g).items()}
            psi = q.GraphData(g).minimal_polys(range(g.n))
            assert {u: len(p) - 1 == g.n for u, p in psi.items()} == expected
            assert coprime_reference(g) == expected

    def test_random64_every_vertex(self, monkeypatch):
        g = random_connected_graphs(1, 64, seed=64, n_min=64)[0]
        reference = coprime_reference(g)
        assert all(reference.values())
        # every root has full rank, and the vectorised Euclid proves them all
        sent = []
        monkeypatch.setattr(polys, "poly_gcd", lambda p, r: sent.append(r))
        psi = q.GraphData(g).minimal_polys(range(g.n))
        assert {u: len(p) - 1 == g.n for u, p in psi.items()} == reference
        assert not sent

    def test_tiny_euclid_prime_rows_reach_poly_gcd(self, monkeypatch):
        # modulo 3 many remainder sequences hit a leading coefficient 0, or
        # end in too large a gcd, which the next prime contradicts; those
        # distinct rows, and only those, must be decided by poly_gcd
        def mod_degrees(phi, rows, p):
            residues = np.array([[c % p for c in r] for r in rows], dtype=np.int64)
            return polys._euclid_mod(
                np.array([[c % p for c in phi]] * len(rows), dtype=np.int64), residues, p)[1]

        sent = spy_poly_gcd(monkeypatch)
        small_prime_first(monkeypatch, 3)
        degenerate = 0
        for g in random_connected_graphs(40, 12, seed=719):
            data = q.GraphData(g)
            phi, rows = data.char_polys
            mod3, true = mod_degrees(phi, rows, 3), mod_degrees(phi, rows, polys._PRIMES31[0])
            undecided = sorted({r for r, d, e in zip(rows, mod3, true) if d < 0 or 0 < d != e})
            sent.clear()
            psi = data.minimal_polys(range(g.n))
            assert sorted(tuple(r) for _, r in sent) == undecided
            assert [len(psi[u]) - 1 == g.n for u in range(g.n)] == \
                list(coprime_reference(g).values())
            assert {u: len(p) - 1 == g.n for u, p in psi.items()} == coprime_reference(g)
            degenerate += len(undecided)
        assert degenerate

    def test_equal_pairs_reach_the_euclid_once(self, monkeypatch):
        # Q6 is vertex-transitive: its 64 roots share one (phi, phi(G - u))
        calls = []
        real = polys._euclid_mod
        monkeypatch.setattr(polys, "_euclid_mod",
                            lambda a, b, p: calls.append(len(a)) or real(a, b, p))
        psi = q.GraphData(LARGE["Q6"]).minimal_polys(range(64))
        assert {u: len(p) - 1 for u, p in psi.items()} == {u: 7 for u in range(64)}
        assert calls and set(calls) == {1}

    def test_single_polynomial_and_stack_agree(self):
        g = LARGE["Q5"]
        phi, rows = q.GraphData(g).char_polys
        stack = gcd_pairs([phi] * g.n, rows)
        assert len(stack) == g.n
        assert [gcd_pairs([phi], [r])[0] for r in rows] == stack
        found = gcd_pairs([[1, 0, -1]] * 4, [[1, 2], [1, 1], [0], [3, 7, 2]])
        assert [h == [1] for h, _ in found] == [True, False, False, True]
        assert [cofactor for _, cofactor in found] == [[1, 0, -1], [1, -1], [1], [1, 0, -1]]
        with pytest.raises(ValueError):
            gcd_pairs([[2, 1]] * 2, [[1, 1], [3, 1]])

    @pytest.mark.parametrize("name", ["Q6", "P64"])
    def test_each_certificate_made_once(self, monkeypatch, name):
        # every distinct (phi, phi(G - u)) input pair is certified at most
        # once per lift, though the rows of one graph share phi and many
        # share phi(G - u) too: a call multiplies the h of each of its lifts
        # by their q and r, and a certificate is the (h, q, r) of one lift
        calls = []
        real = polys._times
        monkeypatch.setattr(polys, "_times", lambda x, y: calls.append((x, y)) or real(x, y))
        monkeypatch.setattr(polys, "_divmod_monic", None)  # no division by a lift
        g = LARGE[name]
        psi = q.GraphData(g).minimal_polys(range(g.n))
        assert min(len(p) - 1 for p in psi.values()) < g.n  # lifted gcds
        certified = [(tuple(h), tuple(x), tuple(y)) for hs, quotients in calls
                     for (h,), (x, y) in zip(hs.tolist(), quotients.tolist())]
        assert certified and len(certified) == len(set(certified))


def random_connected(n, p, seed):
    """The first connected graph of density p drawn by the rng of ``seed``."""
    rng = np.random.default_rng(seed)
    while True:
        a = np.triu((rng.random((n, n)) < p).astype(int), 1)
        g = q.Graph(a + a.T)
        if g.is_connected():
            return g


ARRAY_PSI = {"Q6": q.hypercube(6), "P64": q.path(64), "K64": q.complete(64),
             "K1,63": q.star(63), "P5xP6": LARGE["P5xP6"],
             "random64-0.45": random_connected(64, 0.45, 64),
             "random64-0.9": random_connected(64, 0.9, 64)}


class TestArrayPsi:
    """psi_u of the array kernel against phi / poly_gcd(phi, phi(G - u)),
    row by row, on int64 rows and on object rows past int64."""

    def test_rows_of_both_kinds(self):
        kinds = {name: q.GraphData(g).char_rows[1].dtype for name, g in ARRAY_PSI.items()}
        assert kinds["K64"] == kinds["random64-0.45"] == object
        assert kinds["P5xP6"] == kinds["P64"] == np.int64

    @pytest.mark.parametrize("name", list(ARRAY_PSI))
    def test_matches_row_wise_poly_gcd(self, name):
        g = ARRAY_PSI[name]
        data = q.GraphData(g)
        phi, deleted = data.char_polys
        expected = {}
        for row in dict.fromkeys(deleted):
            psi, rest = poly_divmod(phi, poly_gcd(phi, row))
            assert rest == [0]
            expected[row] = tuple(psi)
        assert data.minimal_polys(range(g.n)) == {u: expected[deleted[u]] for u in range(g.n)}

    @pytest.mark.parametrize("part", ["h", "q", "r"])
    def test_forged_lift_is_not_accepted(self, monkeypatch, part):
        # the constant coefficient of h, q = phi / h or r = phi(G - u) / h in
        # the last lifted row is off by one after every prime: its products
        # fail, so that distinct row alone goes to poly_gcd, and its psi_u
        # is still right
        g = LARGE["P5xP6"]
        expected = q.GraphData(g).minimal_polys(range(g.n))
        data = q.GraphData(g)
        phi, deleted = data.char_polys
        width = g.n + 1  # a lifted row is h, q and r, each this wide
        column = {"h": width, "q": 2 * width, "r": 3 * width}[part] - 3 * width - 1
        real = polys._crt

        def forged(residues, primes):
            values = real(residues, primes)
            values[column] += 1
            return values

        sent = spy_poly_gcd(monkeypatch)
        monkeypatch.setattr(polys, "_crt", forged)
        assert data.minimal_polys(range(g.n)) == expected
        assert len(sent) == 1 and tuple(sent[0][0]) == phi and tuple(sent[0][1]) in deleted
        assert min(len(p) - 1 for p in expected.values()) < g.n  # lifted gcds


class TestControllability:
    """u is controllable iff deg psi_u = n."""

    def test_p4_end_controllable(self):
        assert len(q.GraphData(q.path(4)).minimal_polys([0])[0]) - 1 == 4

    def test_p3_center_not(self):
        assert len(q.GraphData(q.path(3)).minimal_polys([1])[1]) - 1 < 3

    def test_complete_graphs_never(self):
        # repeated eigenvalue -1 rules out a full support
        for n in (3, 4, 5):
            assert len(q.GraphData(q.complete(n)).minimal_polys([0])[0]) - 1 < n

    def test_controllable_implies_distinct_spectrum(self):
        for g in random_connected_graphs(60, 8, seed=101):
            data = q.GraphData(g)
            for u, psi in data.minimal_polys(range(g.n)).items():
                if len(psi) - 1 == g.n:
                    assert data.sd.num_distinct == g.n

    @pytest.mark.parametrize("g", [
        q.hypercube(6),
        random_connected_graphs(1, 64, seed=64, n_min=64)[0],
    ], ids=["Q6", "random64"])
    def test_rank_and_gcd_routes_agree_at_n64(self, g):
        # no timing assertion: the Bareiss rank and the coprimality
        # reference must both give the verdict deg psi_u = n
        data = q.GraphData(g)
        phi, deleted = data.char_polys
        psi = data.minimal_polys((0, 1, 31, 63))
        for u in (0, 1, 31, 63):
            by_rank = rank_exact(walk_matrix(g, u)) == g.n
            by_gcd = poly_gcd(phi, deleted[u]) == [1]
            assert (len(psi[u]) - 1 == g.n) == by_rank == by_gcd

    def test_every_vertex_of_random64_agrees(self):
        # no timing assertion
        g = random_connected_graphs(1, 64, seed=64, n_min=64)[0]
        data = q.GraphData(g)
        phi, deleted = data.char_polys
        psi = data.minimal_polys(range(g.n))
        for u in range(g.n):
            by_gcd = poly_gcd(phi, deleted[u]) == [1]
            assert (len(psi[u]) - 1 == g.n) == by_gcd


class TestCospectrality:
    def test_p3_ends(self):
        assert q.GraphData(q.path(3)).cospectral(0, 2)
        assert q.cospectral_via_gram(q.path(3), 0, 2)

    def test_p4_end_vs_interior(self):
        # P4 - end = P3 (t^3 - 2t) but P4 - interior = K2 + K1 (t^3 - t)
        assert not q.GraphData(q.path(4)).cospectral(0, 1)
        assert not q.cospectral_via_gram(q.path(4), 0, 1)

    def test_complete_any_pair(self):
        assert q.GraphData(q.complete(5)).cospectral(1, 3)

    def test_vertex_out_of_range(self):
        for u, v in [(0, 3), (-1, 2), (1, 1)]:
            with pytest.raises(ValueError):
                q.GraphData(q.path(3)).cospectral(u, v)

    def test_gram_entries_are_walk_numbers(self):
        g = q.petersen()
        w = walk_matrix(g, 0)
        gram = w.T @ w
        a = np.asarray(g.adjacency, dtype=object)
        power = np.eye(10, dtype=object)
        diag = []
        for k in range(2 * 10 - 1):
            diag.append(power[0, 0])
            power = a @ power
        for r in range(10):
            for s in range(10):
                assert gram[r, s] == diag[r + s]

    def test_closed_walks_match_explicit_gram(self, atlas_connected):
        # reference: the explicit W^T W comparison the closed-walk counts replace
        def grams(g, vertices):
            return {u: (walk_matrix(g, u).T @ walk_matrix(g, u)).tolist() for u in vertices}

        graphs = [g for n in range(2, 8) for g in atlas_connected[n]]
        graphs += random_connected_graphs(60, 12, seed=107)
        cases = [(g, range(g.n)) for g in graphs] + [(q.hypercube(6), (0, 1, 21, 63))]
        for g, vertices in cases:
            gram = grams(g, vertices)
            for u in vertices:
                for v in vertices:
                    if u < v:
                        assert q.cospectral_via_gram(g, u, v) == (gram[u] == gram[v])

    def test_gram_charpoly_agreement_random(self):
        # the Gram and deleted-charpoly definitions of cospectrality coincide
        for g in random_connected_graphs(60, 8, seed=103):
            data = q.GraphData(g)
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert q.cospectral_via_gram(g, u, v) == data.cospectral(u, v)


class TestClosedWalkResidues:
    """The residues of the closed-walk counts against the object-dtype
    reference, and cospectral_via_gram against comparing its counts."""

    @staticmethod
    def _check(g, pairs):
        n = g.n
        counts = walkalg._closed_walks(g, range(n), 64)
        top = max(int(np.asarray(g.adjacency).sum(axis=1).max()), 1)
        primes = list(itertools.islice(polys._primes(), counts.shape[-1]))
        assert math.prod(primes) > 2 * top ** (2 * n - 2)
        assert counts.shape == (n, 2 * n - 1, len(primes))
        reference = [closed_walks_reference(g, u) for u in range(n)]
        for u in range(n):
            assert counts[u].tolist() == [[h % p for p in primes] for h in reference[u]]
        for u, v in pairs:
            assert q.cospectral_via_gram(g, u, v) == (reference[u] == reference[v])

    def test_atlas_every_pair(self, atlas_connected):
        for n in range(2, 8):
            for g in atlas_connected[n]:
                self._check(g, [(u, v) for u in range(n) for v in range(u + 1, n)])

    def test_random_corpus(self):
        for g in random_connected_graphs(60, 14, seed=727):
            self._check(g, [(u, v) for u in range(g.n) for v in range(u + 1, g.n)])

    @pytest.mark.parametrize("name", ["Q6", "P64"])
    def test_large_graphs(self, name):
        g = LARGE[name]
        self._check(g, [(0, v) for v in range(1, g.n)] + [(5, 58), (21, 42)])

    @pytest.mark.internal_check
    def test_inexact_float_products_raise(self, monkeypatch):
        # the refusal lives in the step both residue kernels share
        monkeypatch.setattr(spectral, "_FLOAT64_EXACT", 2**20)
        with pytest.raises(q.InternalCheckError):
            q.cospectral_via_gram(q.path(4), 0, 3)


class TestSupportCrosscheck:
    @pytest.mark.parametrize("g,u,expected", [
        (q.path(3), 1, (2, 2, 2)),
        (q.path(4), 0, (4, 4, 4)),
        (q.Graph.from_edges(1, []), 0, (1, 1, 1)),
    ])
    def test_examples(self, g, u, expected):
        assert support_size_crosscheck(g, [u]) == {u: expected}

    def test_three_way_agreement_random(self):
        for g in random_connected_graphs(40, 8, seed=107):
            found = support_size_crosscheck(g, range(g.n))
            assert list(found) == list(range(g.n))
            for rank, support, poles in found.values():
                assert rank == support == poles


class TestTransferSimilarity:
    def test_p4_ends_is_reversal(self):
        ts = transfer_similarity(q.path(4), 0, 3)
        reversal = np.eye(4, dtype=int)[::-1]
        assert np.array_equal(ts.matrix.astype(int), reversal)
        assert ts.commutes_with_adjacency and ts.maps_u_to_v and ts.orthogonal

    def test_same_vertex_gives_identity(self):
        ts = transfer_similarity(q.path(4), 0, 0)
        assert np.array_equal(ts.matrix.astype(int), np.eye(4, dtype=int))

    def test_non_controllable_rejected(self):
        with pytest.raises(ValueError):
            transfer_similarity(q.path(3), 1, 0)

    def test_discovered_cospectral_pair(self):
        # smallest brute-force hit from the n <= 9 catalog search: cospectral,
        # controllable, and no automorphism maps one endpoint to the other
        g = q.parse_graph6("GSv~Sc")
        data = q.GraphData(g)
        assert data.cospectral(1, 7)
        assert [len(p) - 1 for p in data.minimal_polys((1, 7)).values()] == [g.n, g.n]
        from qwalk.partitions import automorphisms
        assert not any(p[1] == 7 for p in automorphisms(g))
        ts = transfer_similarity(g, 1, 7)
        assert ts.orthogonal and ts.commutes_with_adjacency and ts.maps_u_to_v
        entries = {abs(x) for row in ts.matrix for x in row}
        assert not entries <= {0, 1}  # orthogonal but not a permutation

    def test_exact_inverse(self):
        m = [[2, 1], [7, 4]]
        inv = invert_exact(m)
        assert inv.tolist() == [[Fraction(4), Fraction(-1)], [Fraction(-7), Fraction(2)]]
        with pytest.raises(ValueError):
            invert_exact([[1, 2], [2, 4]])


def gauss_jordan_reference(m):
    """Inverse over Fractions by Gauss-Jordan with first-nonzero pivots."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[c], aug[piv] = aug[piv], aug[c]
        lead = aug[c][c]
        aug[c] = [x / lead for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


class TestInvertExact:
    """invert_exact's fraction-free Gauss-Jordan against Gauss-Jordan over
    Fractions."""

    def test_matches_fraction_reference(self):
        rng = np.random.default_rng(211)
        checked = 0
        while checked < 300:
            n = int(rng.integers(1, 9))
            m = rng.integers(-4, 5, size=(n, n)).tolist()
            if checked % 3 == 0:
                m[0][0] = 0  # the first pivot needs a row swap
            try:
                ref = gauss_jordan_reference(m)
            except ValueError:
                continue
            assert invert_exact(m).tolist() == ref
            checked += 1

    def test_rejects_singular(self):
        rng = np.random.default_rng(223)
        singular = [walk_matrix(q.path(3), 1), np.zeros((3, 3), dtype=int)]
        for n in range(2, 9):
            m = rng.integers(-4, 5, size=(n, n))
            m[-1] = m[:-1].sum(axis=0)
            singular.append(m)
        for m in singular:
            with pytest.raises(ValueError):
                gauss_jordan_reference(m.tolist())
            with pytest.raises(ValueError):
                invert_exact(m)
