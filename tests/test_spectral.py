import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import qwalk as q
from qwalk import cli, polys, spectral, walkalg
from qwalk.polys import _PRIMES31, _is_prime

from conftest import as_tuples, closed_walks_reference, random_graphs
from oracles import delete_vertex, trace_identity_check


class TestDecompose:
    def test_p3_analytic(self):
        # 3x3 analytic oracle: P3 has eigenvalues sqrt(2), 0, -sqrt(2) with
        # top idempotent (1/4) [[1, s, 1], [s, 2, s], [1, s, 1]], s = sqrt(2)
        sd = q.decompose(q.path(3))
        s = math.sqrt(2)
        assert np.allclose(sd.eigenvalues, [s, 0, -s], atol=1e-12)
        top = np.array([[1, s, 1], [s, 2, s], [1, s, 1]]) / 4
        assert np.allclose(sd.idempotents[0], top, atol=1e-12)

    def test_k1(self):
        sd = q.decompose(q.Graph.from_edges(1, []))
        assert sd.eigenvalues.tolist() == [0.0]
        assert np.allclose(sd.idempotents[0], [[1.0]])

    def test_hypercube3_spectrum(self):
        # oracle: Q3 = K2 x K2 x K2, eigenvalues are sums of three +-1
        sd = q.decompose(q.hypercube(3))
        assert np.allclose(sd.eigenvalues, [3, 1, -1, -3], atol=1e-9)
        assert sd.multiplicities.tolist() == [1, 3, 3, 1]

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            q.decompose(q.path(3), grouping_tolerance=-1)

    def test_idempotent_algebra_random(self):
        for g in random_graphs(200, 16, seed=23):
            sd = q.decompose(g)
            tol = 10 * sd.grouping_tolerance
            total = sum(sd.idempotents)
            assert np.allclose(total, np.eye(g.n), atol=tol)
            recon = sum(t * e for t, e in zip(sd.eigenvalues, sd.idempotents))
            assert np.allclose(recon, g.adjacency, atol=tol)
            for r, er in enumerate(sd.idempotents):
                assert np.allclose(er, er.T, atol=tol)
                assert np.allclose(er @ er, er, atol=tol)
                assert abs(np.trace(er) - sd.multiplicities[r]) < tol
                for es in sd.idempotents[r + 1:]:
                    assert np.max(np.abs(er @ es)) < tol


class TestTransitionMatrix:
    def test_identity_at_zero(self):
        sd = q.decompose(q.petersen())
        assert np.allclose(q.transition_matrix(sd, 0.0), np.eye(10), atol=1e-12)

    def test_p3_end_to_end_closed_form(self):
        # H(t)_{0,2} = cos(sqrt(2) t)/2 - 1/2
        sd = q.decompose(q.path(3))
        h = q.transition_matrix(sd, math.pi / math.sqrt(2))
        assert abs(h[0, 2] - (-1)) < 1e-12

    def test_k2_closed_form(self):
        # H(t) = cos(t) I + i sin(t) A
        sd = q.decompose(q.complete(2))
        t = math.pi / 2
        h = q.transition_matrix(sd, t)
        assert np.allclose(h, 1j * np.asarray(q.complete(2).adjacency), atol=1e-12)

    def test_group_laws_random(self):
        for g in random_graphs(40, 12, seed=31):
            sd = q.decompose(g)
            for t in (0.3, 1.7, math.pi):
                h = q.transition_matrix(sd, t)
                assert np.allclose(h @ h.conj().T, np.eye(g.n), atol=1e-9)
                assert np.allclose(h, h.T, atol=1e-9)
                hs = q.transition_matrix(sd, 0.7)
                assert np.allclose(q.transition_matrix(sd, t + 0.7), h @ hs, atol=1e-8)
                assert np.allclose(q.transition_matrix(sd, -t), h.conj(), atol=1e-10)


class TestEigenvalueSupport:
    def test_hypercube_vertex_transitive(self):
        assert q.GraphData(q.hypercube(3)).supports[5] == (0, 1, 2, 3)

    def test_p3_center_misses_zero(self):
        assert q.GraphData(q.path(3)).supports[1] == (0, 2)

    def test_k1(self):
        assert q.GraphData(q.Graph.from_edges(1, [])).supports[0] == (0,)


class TestCharPolyExact:
    @pytest.mark.parametrize("g,coeffs", [
        (q.path(3), (1, 0, -2, 0)),
        (q.Graph.from_edges(1, []), (1, 0)),
        (q.path(4), (1, 0, -3, 0, 1)),
    ])
    def test_examples(self, g, coeffs):
        assert q.GraphData(g).phi == coeffs

    def test_cap(self):
        with pytest.raises(ValueError):
            q.GraphData(q.path(5), q.AnalysisConfig(exact_cap=4)).phi

    def test_roots_match_numeric(self):
        for g in random_graphs(40, 12, seed=41):
            phi = q.GraphData(g).phi
            w = np.linalg.eigvalsh(g.adjacency.astype(float))
            vals = np.polyval([float(c) for c in phi], w)
            # scale by derivative magnitude to keep the check meaningful
            assert np.max(np.abs(vals)) < 1e-8 * max(1.0, g.n ** 3)

    @pytest.mark.parametrize("g,bits", [(q.hypercube(4), 13), (q.complete(64), 66)],
                             ids=["Q4", "K64"])
    def test_plain_int_tuples(self, g, bits):
        # phi, every phi(G - u) and every psi_u are tuples of Python ints, so
        # no numpy integer reaches a memo key or the JSON; K64's phi is past int64
        data = q.GraphData(g)
        phi, deleted = data.char_polys
        found = [phi, *deleted, *data.minimal_polys(range(g.n)).values()]
        assert type(deleted) is tuple
        assert all(type(p) is tuple and all(type(c) is int for c in p) for p in found)
        assert max(abs(c) for c in phi).bit_length() == bits


def charpoly_reference(g):
    """Faddeev-LeVerrier with a plain object-array product A @ B."""
    a = np.array(g.adjacency, dtype=object)
    ident = np.eye(g.n, dtype=object)
    coeffs, m, c = [1], np.zeros((g.n, g.n), dtype=object), 1
    for k in range(1, g.n + 1):
        m = a @ (m + c * ident)
        c = -int(np.trace(m)) // k
        coeffs.append(c)
    return tuple(coeffs)


NAMED_FAMILIES = [
    q.Graph.from_edges(1, []), q.path(2), q.path(7), q.cycle(9), q.complete(5),
    q.star(6), q.hypercube(3), q.hypercube(4), q.petersen(),
    q.cartesian_product(q.path(5), q.path(6)),
]


class TestDeletedCharPolys:
    """Each adjugate diagonal of one Faddeev-LeVerrier run is phi(G - u)."""

    @pytest.mark.parametrize("g", NAMED_FAMILIES, ids=repr)
    def test_named_families(self, g):
        deleted = q.GraphData(g).char_polys[1]
        assert len(deleted) == g.n
        for u in range(g.n):
            if g.n == 1:
                assert deleted[u] == (1,)
            else:
                assert deleted[u] == q.GraphData(delete_vertex(g, u)).phi

    @pytest.mark.parametrize("g", NAMED_FAMILIES, ids=repr)
    def test_char_poly_matches_reference(self, g):
        assert q.GraphData(g).phi == charpoly_reference(g)

    def test_random_corpus(self):
        for g in random_graphs(40, 12, seed=47, n_min=2):
            phi, deleted = q.GraphData(g).char_polys
            assert phi == charpoly_reference(g)
            for u in range(g.n):
                assert deleted[u] == q.GraphData(delete_vertex(g, u)).phi

    def test_same_run_as_char_poly(self):
        # phi'(t) = sum_u phi(G - u)(t)
        g = q.petersen()
        phi, deleted = q.GraphData(g).char_polys
        deriv = [c * (g.n - i) for i, c in enumerate(phi[:-1])]
        total = [sum(p[k] for p in deleted) for k in range(g.n)]
        assert total == deriv

    def test_cap(self):
        with pytest.raises(ValueError):
            q.GraphData(q.path(5), q.AnalysisConfig(exact_cap=4)).char_polys

    @pytest.mark.internal_check
    def test_indivisible_trace_raises(self, monkeypatch):
        # checked by a raise, not an assert, so python -O keeps the check
        assert q.InternalCheckError is walkalg.InternalCheckError \
            is spectral.InternalCheckError is cli.InternalCheckError
        real_sum = np.sum
        # the trace, summed from the reduced diagonal: 1 for each graph and
        # prime, odd at step 2
        monkeypatch.setattr(spectral.np, "sum",
                            lambda *args, **kwargs: np.ones_like(real_sum(*args, **kwargs)))
        with pytest.raises(q.InternalCheckError):
            spectral._faddeev_leverrier([q.path(3)])[0]


def faddeev_leverrier_reference(g):
    """phi(G) and every phi(G - u), by the recurrence over Python integers:
    each A B is a sum of neighbour rows of an object array."""
    n = g.n
    neighbours = [np.flatnonzero(row) for row in g.adjacency]
    idx = np.arange(n)
    b = np.eye(n, dtype=object)
    coeffs, diagonals = [1], [b.diagonal().tolist()]
    for k in range(1, n + 1):
        m = np.stack([b[js].sum(axis=0) for js in neighbours])
        c = -int(np.trace(m)) // k
        coeffs.append(c)
        if k < n:
            m[idx, idx] += c
            b = m
            diagonals.append(b.diagonal().tolist())
    return tuple(coeffs), [tuple(int(d[u]) for d in diagonals) for u in range(n)]


def random_density_graph(n, density, seed):
    rng = np.random.default_rng(seed)
    a = np.triu((rng.random((n, n)) < density).astype(int), 1)
    return q.Graph(a + a.T)


CAP_GRAPHS = [q.complete(64), q.star(63), q.hypercube(6), q.path(64), q.cycle(64)] + [
    random_density_graph(64, d, seed) for seed, d in enumerate((0.1, 0.5, 0.9))]
CAP_IDS = ["K64", "star63", "Q6", "P64", "C64", "random64-0.1", "random64-0.5", "random64-0.9"]


def fewest_primes(g):
    """The fewest leading 31-bit primes whose product exceeds twice every
    |coefficient| of phi(G) and the phi(G - u)."""
    phi, deleted = q.GraphData(g).char_polys
    top = max(abs(c) for p in (phi, *deleted) for c in p)
    count, product = 0, 1
    while product <= 2 * top:
        product *= _PRIMES31[count]
        count += 1
    return count, top


def spy_primes(monkeypatch, g):
    """The primes of one ``_faddeev_leverrier`` run on ``g``, the check
    prime last."""
    seen, real = [], spectral._combine
    monkeypatch.setattr(spectral, "_combine", lambda r, p: seen.append(p) or real(r, p))
    spectral._faddeev_leverrier([g])
    return tuple(seen[0])


class TestResidueArithmetic:
    """phi and every phi(G - u) at the cap, combined from residues modulo
    31-bit primes under a proved bound and checked twice."""

    @pytest.mark.parametrize("g", CAP_GRAPHS, ids=CAP_IDS)
    def test_matches_references(self, g):
        phi, deleted = faddeev_leverrier_reference(g)
        found_phi, found_deleted = q.GraphData(g).char_polys
        assert found_phi == charpoly_reference(g) == phi
        assert list(found_deleted) == deleted
        for u in (0, 1, g.n // 2, g.n - 1):
            assert found_deleted[u] == q.GraphData(delete_vertex(g, u)).phi

    @pytest.mark.parametrize("g", CAP_GRAPHS, ids=CAP_IDS)
    def test_bound_covers_every_coefficient(self, monkeypatch, g):
        bound = spectral._coefficient_bound(g.n, g.num_edges)
        count, top = fewest_primes(g)
        assert top <= bound
        *main, check = spy_primes(monkeypatch, g)
        assert math.prod(main) > 2 * bound and len(main) >= count
        assert check not in main

    @pytest.mark.parametrize("g,count", zip(CAP_GRAPHS, [8, 5, 6, 5, 5, 6, 7, 8]), ids=CAP_IDS)
    def test_prime_count_is_pinned(self, monkeypatch, g, count):
        # the primes to combine, then the check prime: more would slow the
        # recurrence, fewer would break the bound
        assert spy_primes(monkeypatch, g) == _PRIMES31[:count]

    def test_primes_past_the_literals(self, monkeypatch):
        # with two literal primes the rest come from the Miller-Rabin search
        g = q.hypercube(4)
        monkeypatch.setattr(polys, "_PRIMES31", _PRIMES31[:2])
        primes = spy_primes(monkeypatch, g)
        assert len(primes) > 2 and primes[:2] == _PRIMES31[:2]
        assert list(primes) == sorted(set(primes), reverse=True)
        assert all(_is_prime(p) and p < 2**31 for p in primes)
        phi, deleted = as_tuples(spectral._faddeev_leverrier([g])[0])
        assert (phi, list(deleted)) == faddeev_leverrier_reference(g)

    @pytest.mark.internal_check
    def test_one_prime_too_few_fails_the_check_prime(self, monkeypatch):
        g = random_density_graph(64, 0.5, 1)
        count, _ = fewest_primes(g)
        assert count >= 2
        # count - 1 primes to combine, and the next one as the check prime
        monkeypatch.setattr(spectral, "_primes_above", lambda bound, more: _PRIMES31[:count])
        with pytest.raises(q.InternalCheckError, match="check prime"):
            spectral._faddeev_leverrier([g])[0]

    @pytest.mark.internal_check
    def test_corrupt_deleted_residue_fails_the_derivative_identity(self, monkeypatch):
        real = spectral._combine

        def corrupt(residues, primes):
            # rows n + 1 .. are the phi(G - u); corrupt the last coefficient of
            # phi(G - (n - 1)) modulo every prime, so the check prime agrees
            residues = residues.copy()
            residues[-1] = (residues[-1] + 1) % np.array(primes)
            return real(residues, primes)

        monkeypatch.setattr(spectral, "_combine", corrupt)
        with pytest.raises(q.InternalCheckError, match="phi'"):
            spectral._faddeev_leverrier([q.petersen()])[0]

    @pytest.mark.internal_check
    def test_inexact_float_products_rejected(self, monkeypatch):
        monkeypatch.setattr(spectral, "_FLOAT64_EXACT", 2**32)
        with pytest.raises(q.InternalCheckError):
            spectral._faddeev_leverrier([q.path(4)])[0]


def catalog_stacks():
    """One stack per vertex count of the benchmark catalog: the first (at
    most 64) graphs of that count, in file order."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "atlas1000.g6"
    by_n = {}
    for line in path.read_text().split():
        g = q.parse_graph6(line)
        by_n.setdefault(g.n, []).append(g)
    return [by_n[n][:64] for n in sorted(by_n)]


SCHEDULE_GRAPHS = [q.complete(64), q.path(64), q.star(63), q.hypercube(6),
                   q.cartesian_product(q.petersen(), q.path(3))]
SCHEDULE_IDS = ["K64", "P64", "star63", "Q6", "PetersenxP3"]


def lowest_admitted(monkeypatch, n):
    """Patch ``_FLOAT64_EXACT`` to the smallest value that the entry refusal
    n (p - 1) < _FLOAT64_EXACT admits at n vertices.  A product straight
    after a reduction is then always exact, and the next one reaches the
    bound when the largest degree D has D**2 > n: K64 and the star reduce
    before every product but the first two, Q6 and Petersen x P3 before
    every second one, P64 before about every sixth."""
    monkeypatch.setattr(spectral, "_FLOAT64_EXACT", n * (_PRIMES31[0] - 1) + 1)


def spy_reductions(monkeypatch):
    """Count the whole-array reductions of ``spectral._residue_walks``."""
    seen, real = [], spectral._reduce
    monkeypatch.setattr(spectral, "_reduce", lambda x, p: seen.append(x.shape) or real(x, p))
    return seen


def closed_walk_residues(g, roots):
    """``_closed_walks`` of ``roots`` on ``g``, and the same counts from the
    object-dtype reference reduced modulo its primes."""
    counts = walkalg._closed_walks(g, roots, 64)
    primes = list(itertools.islice(polys._primes(), counts.shape[-1]))
    return counts.tolist(), [[[h % p for p in primes] for h in closed_walks_reference(g, u)]
                             for u in roots]


class TestReductionSchedule:
    """The lazily reduced residue step of Faddeev-LeVerrier and the closed
    walks against the object-dtype references, at the default exactness
    bound and at the lowest one the entry refusal admits."""

    @pytest.mark.parametrize("low", [False, True], ids=["default", "lowest"])
    @pytest.mark.parametrize("g", SCHEDULE_GRAPHS, ids=SCHEDULE_IDS)
    def test_faddeev_leverrier(self, monkeypatch, g, low):
        reference = faddeev_leverrier_reference(g)
        if low:
            lowest_admitted(monkeypatch, g.n)
        phi, deleted = as_tuples(spectral._faddeev_leverrier([g])[0])
        assert (phi, list(deleted)) == reference

    @pytest.mark.parametrize("low", [False, True], ids=["default", "lowest"])
    @pytest.mark.parametrize("g", SCHEDULE_GRAPHS, ids=SCHEDULE_IDS)
    def test_closed_walks(self, monkeypatch, g, low):
        if low:
            lowest_admitted(monkeypatch, g.n)
        found, reference = closed_walk_residues(g, (0, 1, g.n // 2, g.n - 1))
        assert found == reference

    @pytest.mark.parametrize("low", [False, True], ids=["default", "lowest"])
    def test_catalog_stacks(self, monkeypatch, low):
        for stack in catalog_stacks():
            if low:
                lowest_admitted(monkeypatch, stack[0].n)
            found = spectral._faddeev_leverrier(stack)
            for g, (phi, deleted) in zip(stack, map(as_tuples, found)):
                assert (phi, list(deleted)) == faddeev_leverrier_reference(g)
                walks, reference = closed_walk_residues(g, range(g.n))
                assert walks == reference

    def test_path_reduces_rarely(self, monkeypatch):
        # degree 2: about 22 products between reductions, so a fallback to
        # reducing on every step fails here
        g = q.path(64)
        seen = spy_reductions(monkeypatch)
        spectral._faddeev_leverrier([g])
        assert 0 < len(seen) < g.n // 8
        seen.clear()
        walkalg._closed_walks(g, (0, 63), 64)
        assert 0 < len(seen) < (2 * g.n - 2) // 8

    def test_lowest_bound_reduces_often(self, monkeypatch):
        # the patched runs above take the densest schedule there is: K64
        # reduces before every product but the first two
        g = q.complete(64)
        lowest_admitted(monkeypatch, g.n)
        seen = spy_reductions(monkeypatch)
        spectral._faddeev_leverrier([g])
        assert len(seen) == g.n - 2
        seen.clear()
        walkalg._closed_walks(g, (0, 63), 64)
        assert len(seen) == 2 * g.n - 4


class TestGapReport:
    def test_p4(self):
        rep = q.GraphData(q.path(4)).gap
        assert abs(rep.sigma - 1.0) < 1e-10
        assert rep.bound == pytest.approx(2.4)
        assert rep.satisfied

    def test_k3_repeated(self):
        rep = q.GraphData(q.complete(3)).gap
        assert rep.sigma == 0.0 and rep.satisfied

    def test_k2_attains_equality(self):
        # sigma^2 = 4 = 12/3: the strict bound fails on K2
        rep = q.GraphData(q.complete(2)).gap
        assert abs(rep.sigma - 2.0) < 1e-12
        assert not rep.satisfied


class TestTraceIdentity:
    def test_k2(self):
        assert trace_identity_check(q.complete(2)) == (pytest.approx(8.0), 8.0)

    def test_edgeless(self):
        lhs, rhs = trace_identity_check(q.Graph.from_edges(3, []))
        assert lhs == pytest.approx(0.0) and rhs == 0.0

    def test_p3_brute_force(self):
        # brute-force sum over all 9 ordered pairs of {sqrt2, 0, -sqrt2} is 24
        lhs, rhs = trace_identity_check(q.path(3))
        assert lhs == pytest.approx(24.0)
        assert rhs == 24.0

    def test_random(self):
        for g in random_graphs(50, 12, seed=53, n_min=2):
            lhs, rhs = trace_identity_check(g)
            assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-9)
