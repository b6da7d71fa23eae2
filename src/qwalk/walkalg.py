"""Vertex minimal polynomials, whose degrees are the walk-matrix ranks, and
the Gram route to vertex cospectrality, both exact."""

from __future__ import annotations

import itertools

import numpy as np

from .polys import _primes_above, poly_gcds, poly_trim
from .spectral import EXACT_CAP_DEFAULT, InternalCheckError, _check_cap, _residue_walks


def _check_vertex(n, u):
    if not 0 <= u < n:
        raise ValueError(f"vertex {u} out of range")


def minimal_polys_stack(polys, roots):
    """For each (phi, (phi(G - u) for every u)) of ``polys``, all of one
    vertex count, as the integer rows that ``char_polys`` gives, the minimal
    polynomial psi_u of e_u of each u of its ``roots``, as dicts of tuples of
    Python ints.

    As e_u^T (tI - A)^-1 e_u = phi(G - u) / phi(G), whose reduced
    denominator is the minimal polynomial of e_u, psi_u is
    phi / gcd(phi, phi(G - u)): the cofactor that one certified
    ``poly_gcds`` run over the rows of the roots of every graph gives, equal
    rows once.  It is monic and squarefree, its roots are the eigenvalues in
    the support of u, and its degree is the rank of the walk matrix W_u.
    """
    roots = [list(dict.fromkeys(r)) for r in roots]
    n = len(polys[0][0]) - 1
    for u in itertools.chain.from_iterable(roots):
        _check_vertex(n, u)
    owner = [i for i, r in enumerate(roots) for _ in r]
    _, cofactors = poly_gcds(np.stack([phi for phi, _ in polys])[owner],
                             np.concatenate([deleted for _, deleted in polys])[
                                 [i * n + u for i, r in enumerate(roots) for u in r]])
    found = map(tuple, map(poly_trim, cofactors.tolist()))
    return [{u: next(found) for u in vertices} for vertices in roots]


def _closed_walks(g, roots, cap):
    """The closed-walk counts h_k = (A^k)_uu for k = 0 .. 2n - 2 of every u
    in ``roots``, as residues: an int64 array (roots, 2n - 1, primes).  Every
    h_k is at most D^k, D the largest degree, and the primes (below 2**31)
    have a product above 2 D^(2n - 2), so counts are equal iff residues are.
    The walks A^k e_u modulo every prime are one float64 array (n, roots,
    primes), stepped by ``spectral._residue_walks``: one exact product each,
    reduced modulo the primes only when the next product could reach 2**53,
    and the counts h_k reduced on every step."""
    n = g.n
    for u in roots:
        _check_vertex(g.n, u)
    _check_cap(g, cap)
    top = max(int(g.adjacency.sum(axis=1).max(initial=0)), 1)
    primes = _primes_above(2 * top ** (2 * n - 2))
    rows = np.arange(len(roots))
    roots = np.array(list(roots), dtype=np.int64)
    p = np.array(primes, dtype=np.int64)
    x = np.zeros((1, n, len(roots), len(primes)))
    x[0, roots, rows] = 1
    a = g.adjacency.astype(float)[None]
    walks = _residue_walks(a, x, p, (0, roots, rows))
    counts = [np.ones((len(roots), len(primes)), dtype=np.int64)]
    counts += [h for _, h in itertools.islice(walks, 2 * n - 2)]
    return np.stack(counts, axis=1)


def cospectral_via_gram(g, u, v, cap=EXACT_CAP_DEFAULT):
    """W_u^T W_u = W_v^T W_v, exact.  Entry (i, j) of W_u^T W_u is the
    closed-walk count (A^(i+j))_uu, so the Gram matrices are equal iff the
    2n - 1 counts are, compared by their residues (``_closed_walks``)."""
    counts = _closed_walks(g, (u, v), cap)
    return np.array_equal(counts[0], counts[1])
