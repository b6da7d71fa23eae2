"""Walk matrices, exact rank, controllability, cospectrality, and the
transfer-similarity matrix W_v W_u^{-1}, all in exact arithmetic."""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polys import _is_prime, poly_coprime, poly_degree, poly_gcd
from .spectral import (
    EXACT_CAP_DEFAULT,
    InternalCheckError,
    char_poly_exact,
    decompose,
    deleted_char_polys,
    eigenvalue_support,
)


def _check_vertex(g, u):
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} out of range")


def _check_cap(g, cap):
    if g.n > cap:
        raise ValueError(f"exact-arithmetic cap exceeded: {g.n} > {cap}")


def walk_matrix(g, u, cap=EXACT_CAP_DEFAULT):
    """Integer matrix with columns e_u, A e_u, ..., A^{n-1} e_u."""
    _check_vertex(g, u)
    _check_cap(g, cap)
    return _walk_columns(g, u, g.n)


def _walk_columns(g, u, count):
    """The first ``count`` columns of the walk matrix of ``u``, exact."""
    a = np.array(g.adjacency, dtype=object)
    col = np.zeros(g.n, dtype=object)
    col[u] = 1
    cols = [col]
    for _ in range(count - 1):
        col = a @ col
        cols.append(col)
    return np.stack(cols, axis=1)


def _eliminate(m, jordan=False):
    """Fraction-free (Bareiss, Math. Comp. 22, 1968) elimination of the
    integer rows ``m`` in place; returns the pivot columns.  Right of a pivot
    p in column c, an updated row's entry x becomes (p x - f y) / prev, f its
    entry in column c, y the pivot row's in x's column, prev the previous
    pivot: exact, as every entry is then a minor of the input.  Plain mode
    updates the rows below the pivot; ``jordan`` mode every other row, so
    [M | I] ends with d M^-1 on the right, d the last pivot."""
    rows, cols = len(m), len(m[0]) if m else 0
    pivots = []
    prev = 1
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        p = top[c]
        for i in range(rows) if jordan else range(r + 1, rows):
            if i == r:
                continue
            row = m[i]
            f = row[c]
            for j in range(c + 1, cols):
                row[j] = (p * row[j] - f * top[j]) // prev
            row[c] = 0
        prev = p
        pivots.append(c)
    return pivots


def rank_exact(m):
    """Exact rank of an integer matrix by fraction-free (Bareiss) elimination."""
    return len(_eliminate([[operator.index(x) for x in row] for row in m]))


# Sums of n products of residues below p stay in int64 while n (p - 1)**2 does.
_INT64_LIMIT = 2**63


@functools.lru_cache(maxsize=None)
def _walk_prime(n):
    """The largest prime p with n * (p - 1)**2 < 2**63."""
    p = math.isqrt((_INT64_LIMIT - 1) // n) + 1
    while not _is_prime(p):
        p -= 1
    return p


def walk_rank(g, u, cap=EXACT_CAP_DEFAULT):
    """Exact rank of the walk matrix W_u, proved without eliminating it whole.

    The Krylov vectors A^k e_u are reduced modulo a prime p, in int64 against
    a fully reduced basis, up to the first one that depends on the earlier
    ones, at k.  Over any field the first dependency of a Krylov sequence is
    its rank, because the span of the earlier vectors is then A-invariant.
    Since rank_p(W_u) <= rank_Q(W_u), k = n proves full rank.  For k < n the
    exact prefix [e_u, ..., A^k e_u] must have rank k: its first k columns
    are independent modulo p, hence over Q, so A^k e_u lies in their span
    and the rank is k.  A prefix of rank k + 1 means p divided a minor; then
    the whole walk matrix is eliminated exactly.
    """
    n = g.n
    _check_vertex(g, u)
    _check_cap(g, cap)
    p = _walk_prime(n)
    if n * (p - 1) ** 2 >= _INT64_LIMIT:
        raise InternalCheckError(f"prime {p} overflows int64 reduction at n={n}")
    a = g.adjacency.astype(np.int64)
    x = np.zeros(n, dtype=np.int64)
    x[u] = 1
    basis = np.zeros((n, n), dtype=np.int64)  # row j is 1 at pivots[j], 0 at the others
    pivots = []
    for k in range(n):
        r = (x - x[pivots] @ basis[:k] % p) % p
        nonzero = np.flatnonzero(r)
        if nonzero.size == 0:
            break
        i = int(nonzero[0])
        r = r * pow(int(r[i]), -1, p) % p
        basis[:k] = (basis[:k] - np.outer(basis[:k, i], r) % p) % p
        basis[k] = r
        pivots.append(i)
        x = a @ x % p
    else:
        return n
    k = len(pivots)
    if rank_exact(_walk_columns(g, u, k + 1)) == k:
        return k
    return rank_exact(walk_matrix(g, u, cap=cap))


def is_controllable(g, u, cap=EXACT_CAP_DEFAULT):
    """True iff the walk matrix of ``u`` is invertible.

    Computed both as rank(W_u) = n and as coprimality of the characteristic
    polynomials of the graph and the vertex-deleted subgraph; the two routes
    must agree.
    """
    by_rank = walk_rank(g, u, cap=cap) == g.n
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


def _closed_walks(g, u, cap):
    """The closed-walk counts h_k = (A^k)_uu for k = 0 .. 2n - 2, exact:
    h_k = x_i . x_j with x_i = A^i e_u and i + j = k."""
    w = walk_matrix(g, u, cap=cap)
    return [w[:, k // 2] @ w[:, (k + 1) // 2] for k in range(2 * g.n - 1)]


def cospectral_via_gram(g, u, v, cap=EXACT_CAP_DEFAULT):
    """W_u^T W_u = W_v^T W_v, exact.  Entry (i, j) of W_u^T W_u is the
    closed-walk count (A^(i+j))_uu, so the Gram matrices are equal iff the
    2n - 1 counts are."""
    return _closed_walks(g, u, cap) == _closed_walks(g, v, cap)


def support_size_crosscheck(g, u, cap=EXACT_CAP_DEFAULT, support_tolerance=1e-10):
    """(walk-matrix rank, numeric support size, pole count); all must agree."""
    rank = walk_rank(g, u, cap=cap)
    sd = decompose(g)
    support_size = len(eigenvalue_support(sd, u, support_tolerance))
    phi = char_poly_exact(g, cap=cap).coeffs
    if g.n == 1:
        pole_count = 1
    else:
        phi_del = deleted_char_polys(g, cap=cap)[u].coeffs
        pole_count = g.n - poly_degree(poly_gcd(phi, phi_del))
    return rank, support_size, pole_count


def invert_exact(m):
    """Inverse of an integer matrix as Fractions, by fraction-free
    Gauss-Jordan on [M | I]; a pivot right of M means M is singular."""
    n = len(m)
    aug = [[operator.index(x) for x in row] + [int(i == j) for j in range(n)]
           for i, row in enumerate(m)]
    if _eliminate(aug, jordan=True)[-1] >= n:
        raise ValueError("matrix is singular")
    d = aug[-1][n - 1]
    return np.array([[Fraction(x, d) for x in row[n:]] for row in aug], dtype=object)


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
    ident = np.eye(g.n, dtype=int)
    maps = np.array_equal(q[:, u], ident[v])  # Q e_u = e_v
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
