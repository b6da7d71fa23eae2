import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwalk as q
from qwalk import polys
from qwalk.polys import poly_gcd, poly_trim

from conftest import gcd_pairs, poly_divmod, random_connected_graphs
from oracles import poly_degree


def euclid_gcd(p, r):
    """Reference: monic gcd by the Euclidean algorithm over Fractions."""
    a = [Fraction(c) for c in poly_trim(p)]
    b = [Fraction(c) for c in poly_trim(r)]
    while poly_degree(b) >= 0:
        _, rem = poly_divmod(a, b)
        a, b = b, rem
    return [c / a[0] for c in a]


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def is_prime_mr(n, rounds=40, seed=0):
    """Randomised Miller-Rabin, independent of the library's own test."""
    if n < 4:
        return n in (2, 3)
    if n % 2 == 0:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        a = 2 + int(rng.integers(0, 2**62)) % (n - 3)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def pairs_of(g):
    phi, deleted = q.GraphData(g).char_polys
    return [(phi, p) for p in deleted]


class TestPrimes:
    def test_literals_are_distinct_31_bit_primes(self):
        assert len(set(polys._PRIMES31)) == len(polys._PRIMES31)
        for p in polys._PRIMES31:
            assert p.bit_length() == 31
            assert is_prime_mr(p)

    def test_extension_continues_below_the_literals(self):
        gen = polys._primes()
        listed = [next(gen) for _ in range(len(polys._PRIMES31))]
        extra = [next(gen) for _ in range(3)]
        assert listed == list(polys._PRIMES31)
        assert extra == sorted(extra, reverse=True) and extra[0] < polys._PRIMES31[-1]
        assert all(is_prime_mr(p) for p in extra)
        assert not polys._is_prime(polys._PRIMES31[0] - 2)  # between two literals

    @pytest.mark.parametrize("bits", [0, 30, 31, 62, 200, 31 * 16, 1000])
    def test_chooser_takes_the_shortest_prefix_above_the_bound(self, bits):
        # 31 * 16 bits and more take primes past the 16 literals
        bound = 2**bits
        primes = polys._primes_above(bound)
        gen = polys._primes()
        assert list(primes) == [next(gen) for _ in primes]
        assert math.prod(primes) > bound >= math.prod(primes[:-1])
        assert polys._primes_above(bound, 2) == primes + (next(gen), next(gen))
        assert all(is_prime_mr(p) for p in primes)


class TestPolyGcd:
    @pytest.mark.parametrize("g,degrees", [
        (q.cartesian_product(q.path(5), q.path(6)), {0, 6, 12}),
        (q.hypercube(6), {57}),
        (q.path(64), {0, 4, 12}),
    ], ids=["P5xP6", "Q6", "P64"])
    def test_nontrivial_gcd_degrees(self, g, degrees):
        seen = set()
        for phi, phi_del in pairs_of(g):
            h = poly_gcd(phi, phi_del)
            assert h[0] == 1 and all(isinstance(c, int) for c in h)
            seen.add(poly_degree(h))
        assert seen == degrees

    def test_matches_fraction_euclid(self):
        graphs = [q.cartesian_product(q.path(5), q.path(6)), q.hypercube(4)]
        graphs += random_connected_graphs(15, 14, seed=59, n_min=4)
        for g in graphs:
            for phi, phi_del in pairs_of(g):
                assert poly_gcd(phi, phi_del) == euclid_gcd(phi, phi_del)

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        for g in (q.cartesian_product(q.path(5), q.path(6)), q.hypercube(6), q.path(64)):
            for phi, phi_del in pairs_of(g)[:8]:
                ref = sympy.Poly(sympy.gcd(sympy.Poly(phi, t), sympy.Poly(phi_del, t)), t)
                ref = ref.monic().all_coeffs()
                assert poly_gcd(phi, phi_del) == [int(c) for c in ref]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-10**30, 10**30), min_size=0, max_size=5),
        st.lists(st.integers(-9, 9), min_size=0, max_size=6),
        st.lists(st.integers(-10**20, 10**20), min_size=1, max_size=6),
    )
    def test_products_with_a_common_factor(self, h, f, r):
        # monic h * f and arbitrary h * r share at least the factor h
        h, f = [1] + h, [1] + f
        a, b = poly_mul(h, f), poly_mul(h, r)
        g = poly_gcd(a, b)
        assert g == euclid_gcd(a, b)
        assert polys._divmod_monic(g, h)[1] == [0]

    def test_beyond_the_literal_primes(self, monkeypatch):
        # coefficients far wider than one prime force the extension
        monkeypatch.setattr(polys, "_PRIMES31", polys._PRIMES31[:1])
        h = [1, 3**200, -(5**150)]
        a, b = poly_mul(h, [1, 7]), poly_mul(h, [2, 0, -11])
        assert poly_gcd(a, b) == h

    def test_unlucky_prime_is_discarded(self):
        # modulo the first prime t (t - P) = t^2, so that prime sees degree 2
        big = polys._PRIMES31[0]
        assert poly_gcd([1, -big, 0], [1, 0, 0]) == [1, 0]

    def test_zero_and_constant(self):
        assert poly_gcd([1, 0, -2], [0]) == [1, 0, -2]
        assert poly_gcd([0, 0], [1, 5]) == [1, 5]
        assert poly_gcd([1], [6, 4]) == [1]
        assert gcd_pairs([[1, 0, -1]], [[1, 2]]) == [([1], [1, 0, -1])]

    def test_numpy_integers_accepted(self):
        assert poly_gcd(np.array([1, 0, -1]), [np.int64(1), np.int64(1)]) == [1, 1]

    @pytest.mark.parametrize("p,r", [
        ([1, Fraction(1, 2)], [1, 1]),
        ([1, 0.5], [1, 1]),
        ([1.0, 1], [1, 1]),
        ([Fraction(1), 1], [1, 1]),
        ([2, 1], [3, 1]),
        ([-1, 1], [0, 2, 1]),
        ([0], [2, 1]),
    ])
    def test_rejected_inputs(self, p, r):
        with pytest.raises(ValueError):
            poly_gcd(p, r)


def crt_reference(residues, primes):
    """The integer in the symmetric range with the given residues, by the
    textbook CRT sum in Python integers."""
    modulus = math.prod(primes)
    x = sum(r * (modulus // p) * pow(modulus // p, -1, p) for r, p in zip(residues, primes))
    x %= modulus
    return x - modulus if x > modulus // 2 else x


class TestCrt:
    """polys._crt, Garner digits joined in pairs, against Python integers."""

    @pytest.mark.parametrize("count", range(1, 9))
    def test_matches_python_integers(self, count):
        primes = polys._PRIMES31[:count]
        half = math.prod(primes) // 2
        rng = np.random.default_rng(count)
        values = [0, 1, -1, half, -half, half - 1, 1 - half]
        values += [int(v) * half // 2**40 for v in rng.integers(-2**40, 2**40, 40)]
        rows = [[v % p for p in primes] for v in values]
        # residues 0 and p - 1 in every arrangement of the first three primes
        rows += [[p - 1 if mask >> i & 1 else 0 for i, p in enumerate(primes)]
                 for mask in range(2 ** min(count, 3))]
        rows += [[p - 1 for p in primes]] + [[int(rng.integers(p)) for p in primes]
                                             for _ in range(40)]
        found = polys._crt(np.array(rows, dtype=np.int64), primes)
        assert found.tolist() == [crt_reference(r, primes) for r in rows]
        assert found.tolist()[:len(values)] == values
        if count <= 2:
            # one limb: the lift never leaves int64
            assert found.dtype == np.int64

    @pytest.mark.parametrize("count", range(3, 9))
    def test_values_within_the_first_limb_stay_int64(self, count):
        primes = polys._PRIMES31[:count]
        radix = primes[0] * primes[1]
        rng = np.random.default_rng(count)
        values = [0, 1, -1, radix - 1, 1 - radix, -radix]
        values += [int(v) for v in rng.integers(1 - radix, radix, 40)]
        rows = [[v % p for p in primes] for v in values]
        found = polys._crt(np.array(rows, dtype=np.int64), primes)
        assert found.dtype == np.int64 and found.tolist() == values
        # one value past p_0 p_1 takes the whole lift to Python integers
        rows.append([radix % p for p in primes])
        found = polys._crt(np.array(rows, dtype=np.int64), primes)
        assert found.dtype == object and found.tolist() == values + [radix]


class TestSquarefree:
    """psi_u = phi / gcd(phi, phi(G - u)), the minimal polynomial of e_u, is
    squarefree."""

    def test_hypercube_distinct_eigenvalues(self):
        # Q6 has the seven distinct eigenvalues 6, 4, ..., -6, each in the
        # support of every vertex
        expected = [1]
        for k in range(-6, 7, 2):
            expected = poly_mul(expected, [1, -k])
        assert q.GraphData(q.hypercube(6)).minimal_polys([0])[0] == tuple(expected)
