from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

import qwalk as q
from qwalk.polys import poly_degree, poly_trim


def random_connected_graphs(count, n_max, seed, n_min=2):
    """Seeded corpus of random connected graphs."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(n_min, n_max + 1))
        a = np.triu((rng.random((n, n)) < 0.45).astype(int), 1)
        a = a + a.T
        g = q.Graph(a)
        if g.is_connected():
            out.append(g)
    return out


def random_graphs(count, n_max, seed, n_min=1):
    """Seeded corpus of random graphs, connected or not."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(n_min, n_max + 1))
        a = np.triu((rng.random((n, n)) < 0.4).astype(int), 1)
        out.append(q.Graph(a + a.T))
    return out


@pytest.fixture(scope="session")
def atlas_connected():
    """All connected graphs on 1..7 vertices, from the networkx graph atlas."""
    by_n = {n: [] for n in range(1, 8)}
    for G in nx.graph_atlas_g():
        n = G.number_of_nodes()
        if 1 <= n <= 7 and nx.is_connected(G):
            by_n[n].append(q.Graph(nx.to_numpy_array(G, dtype=int)))
    return by_n


def poly_divmod(num, den):
    """Exact quotient and remainder over Fractions (a test reference; the
    package divides only by monic polynomials, in integers)."""
    num = [Fraction(c) for c in poly_trim(num)]
    den = [Fraction(c) for c in poly_trim(den)]
    if poly_degree(den) < 0:
        raise ZeroDivisionError("polynomial division by zero")
    if poly_degree(num) < poly_degree(den):
        return [Fraction(0)], num
    q = [Fraction(0)] * (len(num) - len(den) + 1)
    r = num[:]
    lead = den[0]
    for i in range(len(q)):
        q[i] = r[i] / lead
        if q[i]:
            for j, d in enumerate(den):
                r[i + j] -= q[i] * d
    return poly_trim(q), poly_trim(r)
