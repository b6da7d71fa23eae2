"""Walk matrices, exact rank, vertex minimal polynomials, controllability,
cospectrality, and the transfer similarity W_v W_u^{-1}, all exact."""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polys import _primes_above, poly_degree, poly_gcd, poly_gcds
from .spectral import (EXACT_CAP_DEFAULT, SUPPORT_TOL_DEFAULT, ExactPoly, InternalCheckError,
                       _check_cap, _residue_walks, char_polys, decompose, deleted_char_polys,
                       supports_stack)


def _check_vertex(n, u):
    if not 0 <= u < n:
        raise ValueError(f"vertex {u} out of range")


def walk_matrix(g, u, cap=EXACT_CAP_DEFAULT):
    """Integer matrix with columns e_u, A e_u, ..., A^{n-1} e_u."""
    _check_vertex(g.n, u)
    _check_cap(g, cap)
    a = np.array(g.adjacency, dtype=object)
    col = np.zeros(g.n, dtype=object)
    col[u] = 1
    cols = [col]
    for _ in range(g.n - 1):
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


def minimal_polys_stack(polys, roots):
    """For each (phi, (phi(G - u) for every u)) of ``polys``, as
    ``char_polys`` gives them, the minimal polynomial psi_u of e_u of each u
    of its ``roots``, as dicts of ``ExactPoly``.

    As e_u^T (tI - A)^-1 e_u = phi(G - u) / phi(G), whose reduced
    denominator is the minimal polynomial of e_u, psi_u is
    phi / gcd(phi, phi(G - u)): the cofactor that one certified
    ``poly_gcds`` run over the roots of every graph divides out, equal pairs
    once.  It is monic and squarefree, its roots are the eigenvalues in the
    support of u, and its degree is the rank of the walk matrix W_u.
    """
    roots = [list(dict.fromkeys(r)) for r in roots]
    for (phi, _), vertices in zip(polys, roots):
        for u in vertices:
            _check_vertex(phi.degree, u)
    rows = [(phi, deleted[u]) for (phi, deleted), vertices in zip(polys, roots)
            for u in vertices]
    found = iter(poly_gcds([phi.coeffs for phi, _ in rows], [p.coeffs for _, p in rows]))
    return [{u: ExactPoly(tuple(next(found)[1])) for u in vertices} for vertices in roots]


def minimal_polys(g, roots, cap=EXACT_CAP_DEFAULT):
    """``minimal_polys_stack`` of one graph."""
    roots = list(roots)
    for u in roots:
        _check_vertex(g.n, u)
    return minimal_polys_stack(char_polys([g], cap), [roots])[0]


def walk_ranks(g, roots, cap=EXACT_CAP_DEFAULT):
    """Exact rank of the walk matrix W_u of every u in ``roots``, as a dict:
    deg psi_u (``minimal_polys``)."""
    return {u: psi.degree for u, psi in minimal_polys(g, roots, cap).items()}


def walk_rank(g, u, cap=EXACT_CAP_DEFAULT):
    """Exact rank of the walk matrix W_u: ``walk_ranks`` of one root."""
    return walk_ranks(g, [u], cap=cap)[u]


def controllability(g, roots, cap=EXACT_CAP_DEFAULT):
    """For each u of ``roots``, True iff the walk matrix of u is invertible,
    that is, iff deg psi_u = n (``walk_ranks``), as a dict."""
    return {u: rank == g.n for u, rank in walk_ranks(g, roots, cap).items()}


def is_controllable(g, u, cap=EXACT_CAP_DEFAULT):
    """True iff the walk matrix of ``u`` is invertible: ``controllability``
    of one root."""
    return controllability(g, [u], cap=cap)[u]


def cospectral_via_charpoly(g, u, v, cap=EXACT_CAP_DEFAULT):
    """phi(X - u) = phi(X - v), coefficient-wise over exact integers."""
    if u == v:
        raise ValueError("vertices must be distinct")
    _check_vertex(g.n, u)
    _check_vertex(g.n, v)
    deleted = deleted_char_polys(g, cap=cap)
    return deleted[u].coeffs == deleted[v].coeffs


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


def support_size_crosscheck(g, roots, cap=EXACT_CAP_DEFAULT,
                            support_tolerance=SUPPORT_TOL_DEFAULT):
    """(walk-matrix rank, numeric support size, pole count) of every u in
    ``roots``, as a dict; all three must agree.  The rank is the Bareiss rank
    of the whole walk matrix and the pole count n - deg ``poly_gcd``(phi,
    phi(G - u)), so no route is used twice.  One decomposition and one
    recurrence run serve every root."""
    supports = supports_stack([decompose(g)], support_tolerance)[0]
    phi, deleted = char_polys([g], cap)[0]
    return {u: (rank_exact(walk_matrix(g, u, cap=cap)), len(supports[u]),
                g.n - poly_degree(poly_gcd(phi.coeffs, deleted[u].coeffs)))
            for u in roots}


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
