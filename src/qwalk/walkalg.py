"""Walk matrices, exact rank, controllability, cospectrality, and the
transfer-similarity matrix W_v W_u^{-1}, all in exact arithmetic."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polys import poly_coprime, poly_degree, poly_gcd
from .spectral import (
    EXACT_CAP_DEFAULT,
    char_poly_exact,
    decompose,
    deleted_char_polys,
    eigenvalue_support,
)


class InternalCheckError(RuntimeError):
    """Two independent exact routes disagreed; signals a bug, not a verdict."""


def _check_vertex(g, u):
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} out of range")


def walk_matrix(g, u, cap=EXACT_CAP_DEFAULT):
    """Integer matrix with columns e_u, A e_u, ..., A^{n-1} e_u."""
    n = g.n
    _check_vertex(g, u)
    if n > cap:
        raise ValueError(f"exact-arithmetic cap exceeded: {n} > {cap}")
    a = np.array(g.adjacency, dtype=object)
    col = np.zeros(n, dtype=object)
    col[u] = 1
    cols = [col]
    for _ in range(n - 1):
        col = a @ col
        cols.append(col)
    return np.stack(cols, axis=1)


def rank_exact(m):
    """Exact rank of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [[int(x) for x in row] for row in np.asarray(m, dtype=object)]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        rank += 1
    return rank


def is_controllable(g, u, cap=EXACT_CAP_DEFAULT):
    """True iff the walk matrix of ``u`` is invertible.

    Computed both as rank(W_u) = n and as coprimality of the characteristic
    polynomials of the graph and the vertex-deleted subgraph; the two routes
    must agree.
    """
    by_rank = rank_exact(walk_matrix(g, u, cap=cap)) == g.n
    if g.n == 1:
        return by_rank
    phi = char_poly_exact(g, cap=cap).coeffs
    phi_del = deleted_char_polys(g, cap=cap)[u].coeffs
    by_gcd = poly_coprime(phi, phi_del)
    if by_rank != by_gcd:
        raise InternalCheckError(
            f"controllability disagreement at vertex {u}: rank says {by_rank}, "
            f"gcd says {by_gcd}"
        )
    return by_rank


def cospectral_via_charpoly(g, u, v, cap=EXACT_CAP_DEFAULT):
    """phi(X - u) = phi(X - v), coefficient-wise over exact integers."""
    if u == v:
        raise ValueError("vertices must be distinct")
    _check_vertex(g, u)
    _check_vertex(g, v)
    deleted = deleted_char_polys(g, cap=cap)
    return deleted[u].coeffs == deleted[v].coeffs


def cospectral_via_gram(g, u, v, cap=EXACT_CAP_DEFAULT):
    """W_u^T W_u = W_v^T W_v, exact."""
    wu = walk_matrix(g, u, cap=cap)
    wv = walk_matrix(g, v, cap=cap)
    return np.array_equal(wu.T @ wu, wv.T @ wv)


def support_size_crosscheck(g, u, cap=EXACT_CAP_DEFAULT, support_tolerance=1e-10):
    """(walk-matrix rank, numeric support size, pole count); all must agree."""
    rank = rank_exact(walk_matrix(g, u, cap=cap))
    sd = decompose(g)
    support_size = len(eigenvalue_support(sd, u, support_tolerance))
    phi = char_poly_exact(g, cap=cap).coeffs
    if g.n == 1:
        pole_count = 1
    else:
        phi_del = deleted_char_polys(g, cap=cap)[u].coeffs
        pole_count = g.n - poly_degree(poly_gcd(phi, phi_del))
    return rank, support_size, pole_count


# ---------------------------------------------------------------------------
# Exact rational linear algebra

def invert_exact(m):
    """Inverse of an integer/rational matrix over Fractions (Gauss-Jordan,
    first-nonzero pivot)."""
    n = len(m)
    aug = [
        [Fraction(m[i][j]) for j in range(n)]
        + [Fraction(1 if j == i else 0) for j in range(n)]
        for i in range(n)
    ]
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
    return np.array([row[n:] for row in aug], dtype=object)


@dataclass(frozen=True)
class TransferSimilarity:
    """Q = W_v W_u^{-1} with its verified exact properties."""

    matrix: np.ndarray  # Fractions
    commutes_with_adjacency: bool
    maps_u_to_v: bool
    orthogonal: bool


def transfer_similarity(g, u, v, cap=EXACT_CAP_DEFAULT):
    """Exact Q = W_v W_u^{-1} for controllable u, v; verifies QA = AQ,
    Q e_u = e_v, and orthogonality iff the vertices are cospectral."""
    if not is_controllable(g, u, cap=cap):
        raise ValueError(f"vertex {u} is not controllable")
    if u != v and not is_controllable(g, v, cap=cap):
        raise ValueError(f"vertex {v} is not controllable")
    wu = walk_matrix(g, u, cap=cap)
    wv = walk_matrix(g, v, cap=cap)
    q = wv @ invert_exact(wu)
    a = np.array(g.adjacency, dtype=object)
    commutes = np.array_equal(q @ a, a @ q)
    eu = np.zeros(g.n, dtype=object)
    eu[u] = 1
    image = q @ eu
    maps = all(image[i] == (1 if i == v else 0) for i in range(g.n))
    ident = np.array(
        [[Fraction(1 if i == j else 0) for j in range(g.n)] for i in range(g.n)],
        dtype=object,
    )
    orthogonal = np.array_equal(q.T @ q, ident)
    if u != v and orthogonal != cospectral_via_gram(g, u, v, cap=cap):
        raise InternalCheckError(
            "orthogonality of W_v W_u^{-1} disagrees with Gram cospectrality"
        )
    return TransferSimilarity(
        matrix=q,
        commutes_with_adjacency=commutes,
        maps_u_to_v=maps,
        orthogonal=orthogonal,
    )
