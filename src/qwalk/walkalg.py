"""Walk matrices, exact rank, controllability, cospectrality, and the
transfer-similarity matrix W_v W_u^{-1}, all in exact arithmetic."""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polys import _PRIMES31, _is_prime, _primes, poly_coprime, poly_degree, poly_gcd
from .spectral import (
    _FLOAT64_EXACT,
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


# Roots per batch: at most this many entries in a (roots, n, n) array, so
# that a large ``cap`` bounds the memory of the batched kernels.
_BATCH_ENTRIES = 2**22


def walk_ranks(g, roots, cap=EXACT_CAP_DEFAULT):
    """Exact rank of the walk matrix W_u of every u in ``roots``, as a dict,
    proved without eliminating the matrices whole.

    The Krylov vectors A^k e_u are reduced modulo a prime p, in int64 against
    a fully reduced basis, up to the first one that depends on the earlier
    ones, at k.  All roots run together: their vectors are the rows of one
    (roots, n) array and their bases one (roots, n, n) array, and each k is
    one vectorised step for the roots still active.  Over any field the
    first dependency of a Krylov sequence is its rank, because the span of
    the earlier vectors is then A-invariant.  Since rank_p(W_u) <=
    rank_Q(W_u), k = n proves full rank.  For k < n the exact prefix
    [e_u, ..., A^k e_u] must have rank k: its first k columns are independent
    modulo p, hence over Q, so A^k e_u lies in their span and the rank is k.
    A prefix of rank k + 1 means p divided a minor; then the whole walk
    matrix is eliminated exactly.
    """
    n = g.n
    roots = list(dict.fromkeys(roots))
    for u in roots:
        _check_vertex(g, u)
    _check_cap(g, cap)
    p = _walk_prime(n)
    if n * (p - 1) ** 2 >= _INT64_LIMIT:
        raise InternalCheckError(f"prime {p} overflows int64 reduction at n={n}")
    # A x sums at most n residues below p, and by the bound above
    # n (p - 1) < sqrt(n) 2**31.5 < 2**53, so the float64 product is exact
    a = g.adjacency.astype(float)
    stopped = {}
    step = max(1, _BATCH_ENTRIES // n**2)
    for chunk in range(0, len(roots), step):
        active = np.array(roots[chunk:chunk + step])
        x = np.eye(n, dtype=np.int64)[active]
        # row j of a basis is 1 at its root's pivots[j], 0 at the other pivots
        basis = np.zeros((len(active), n, n), dtype=np.int64)
        pivots = np.zeros((len(active), n), dtype=np.int64)
        rows = np.arange(len(active))
        for k in range(n):
            coef = x[rows[:, None], pivots[:, :k]]
            r = (x - np.matmul(coef[:, None], basis[:, :k])[:, 0]) % p
            # any nonzero entry can pivot; a row's largest residue is 0 only
            # when the row is zero
            i = r.argmax(axis=1)
            lead = r[rows, i]
            dependent = lead == 0
            if dependent.any():
                stopped.update(dict.fromkeys(active[dependent].tolist(), k))
                keep = ~dependent
                active, x, r, basis, pivots, i, lead = (
                    active[keep], x[keep], r[keep], basis[keep], pivots[keep], i[keep],
                    lead[keep])
                if not len(active):
                    break
                rows = np.arange(len(active))
            r = r * np.array([[pow(c, -1, p)] for c in lead.tolist()]) % p
            reduced = basis[:, :k]  # a view: updated in place
            reduced -= basis[rows, :k, i][:, :, None] * r[:, None]
            reduced %= p
            basis[:, k] = r
            pivots[:, k] = i
            x = (x.astype(float) @ a).astype(np.int64) % p
        stopped.update(dict.fromkeys(active.tolist(), n))
    ranks = {}
    for u in roots:
        k = stopped[u]
        if k < n and rank_exact(_walk_columns(g, u, k + 1)) != k:
            k = rank_exact(walk_matrix(g, u, cap=cap))
        ranks[u] = k
    return ranks


def walk_rank(g, u, cap=EXACT_CAP_DEFAULT):
    """Exact rank of the walk matrix W_u: ``walk_ranks`` of one root."""
    return walk_ranks(g, [u], cap=cap)[u]


def controllability(g, roots, cap=EXACT_CAP_DEFAULT):
    """For every u in ``roots``, True iff its walk matrix is invertible, as a
    dict.

    Computed both as rank(W_u) = n, by ``walk_ranks``, and as coprimality of
    the characteristic polynomials of the graph and each vertex-deleted
    subgraph: one vectorised ``poly_coprime`` over the full-rank roots, and
    the certified ``poly_gcd`` for the others.  The two routes must agree.
    """
    roots = list(dict.fromkeys(roots))
    ranks = walk_ranks(g, roots, cap=cap)
    by_rank = np.array([ranks[u] == g.n for u in roots], dtype=bool)
    if g.n > 1:
        phi = char_poly_exact(g, cap=cap).coeffs
        deleted = deleted_char_polys(g, cap=cap)
        rows = [deleted[u].coeffs for u in roots]
        by_gcd = np.zeros(len(roots), dtype=bool)
        full = np.flatnonzero(by_rank)
        if full.size:
            by_gcd[full] = poly_coprime(phi, [rows[i] for i in full])
        for i in np.flatnonzero(~by_rank):
            by_gcd[i] = poly_degree(poly_gcd(phi, rows[i])) == 0
        disagree = np.flatnonzero(by_rank != by_gcd)
        if disagree.size:
            i = int(disagree[0])
            raise InternalCheckError(
                f"controllability disagreement at vertex {roots[i]}: rank says "
                f"{bool(by_rank[i])}, gcd says {bool(by_gcd[i])}"
            )
    return dict(zip(roots, by_rank.tolist()))


def is_controllable(g, u, cap=EXACT_CAP_DEFAULT):
    """True iff the walk matrix of ``u`` is invertible: ``controllability``
    of one root."""
    return controllability(g, [u], cap=cap)[u]


def cospectral_via_charpoly(g, u, v, cap=EXACT_CAP_DEFAULT):
    """phi(X - u) = phi(X - v), coefficient-wise over exact integers."""
    if u == v:
        raise ValueError("vertices must be distinct")
    _check_vertex(g, u)
    _check_vertex(g, v)
    deleted = deleted_char_polys(g, cap=cap)
    return deleted[u].coeffs == deleted[v].coeffs


@functools.lru_cache(maxsize=None)
def _walk_count_primes(bits):
    """Primes below 2**31 whose product exceeds 2**bits."""
    primes, product = [], 1
    for p in _primes(_PRIMES31):
        if product >> bits:
            return tuple(primes)
        primes.append(p)
        product *= p


def _closed_walks(g, roots, cap):
    """The closed-walk counts h_k = (A^k)_uu for k = 0 .. 2n - 2 of every u
    in ``roots``, as residues: an int64 array (roots, 2n - 1, primes).

    Every h_k is at most rho^k <= D^k, D the largest degree, and the
    primes' product exceeds 2 D^(2n - 2), so two counts are equal iff their
    residues are.  The walks x = A^k e_u of all roots modulo all primes are
    one (n, roots * primes) array, and each step is one float64 product
    with A: exact, because A is 0/1 and every residue is below 2**31, so
    every partial sum is an integer below n 2**31 < 2**53, which is checked
    on every call.
    """
    n = g.n
    for u in roots:
        _check_vertex(g, u)
    _check_cap(g, cap)
    top = max(int(g.adjacency.sum(axis=1).max(initial=0)), 1)
    primes = _walk_count_primes(((2 * top ** (2 * n - 2)).bit_length()))
    if n * (max(primes) - 1) >= _FLOAT64_EXACT:
        raise InternalCheckError(f"float64 products are not exact at n={n}")
    p = np.array(primes, dtype=np.int64)
    a = g.adjacency.astype(float)
    at_root = (list(roots), np.arange(len(roots)))
    x = np.zeros((n, len(roots), len(primes)), dtype=np.int64)
    x[at_root] = 1
    counts = [x[at_root]]
    for _ in range(2 * n - 2):
        x = (a @ x.reshape(n, -1).astype(float)).astype(np.int64).reshape(x.shape) % p
        counts.append(x[at_root])
    return np.stack(counts, axis=1)


def cospectral_via_gram(g, u, v, cap=EXACT_CAP_DEFAULT):
    """W_u^T W_u = W_v^T W_v, exact.  Entry (i, j) of W_u^T W_u is the
    closed-walk count (A^(i+j))_uu, so the Gram matrices are equal iff the
    2n - 1 counts are, compared by their residues (``_closed_walks``)."""
    counts = _closed_walks(g, (u, v), cap)
    return np.array_equal(counts[0], counts[1])


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
    controllable = controllability(g, (u, v), cap=cap)
    for w in (u, v):
        if not controllable[w]:
            raise ValueError(f"vertex {w} is not controllable")
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
