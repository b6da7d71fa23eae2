"""Walk matrices, exact rank, controllability, cospectrality, and the
transfer-similarity matrix W_v W_u^{-1}, all in exact arithmetic."""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import encode_graph6
from .polys import (_PRIMES31, _divmod_monic, _is_prime, _primes, poly_coprime, poly_degree,
                    poly_divides, poly_gcd)
from .spectral import (_FLOAT64_EXACT, EXACT_CAP_DEFAULT, _by_graph, _coefficient_bound, _crt,
                       _stack_rows, InternalCheckError, char_poly_exact, char_polys, decompose,
                       deleted_char_polys, eigenvalue_support)


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


# Sums of n products of residues below p stay in int64 while n (p - 1)**2 does.
_INT64_LIMIT = 2**63


@functools.lru_cache(maxsize=None)
def _walk_prime(n):
    """The largest prime p with n * (p - 1)**2 < 2**63."""
    p = math.isqrt((_INT64_LIMIT - 1) // n) + 1
    while not _is_prime(p):
        p -= 1
    return p


# Roots per batch: at most this many entries in a (roots, n, width) array, so
# that a large ``cap`` bounds the memory of the batched kernels.
_BATCH_ENTRIES = 2**22


def _krylov(a, gi, roots, p, track=0):
    """Per row r, the first k at which A^k e_u, A = a[gi[r]] and u = roots[r],
    depends on the earlier Krylov vectors modulo p, or n: one vectorised step
    per k, each vector reduced in int64 against its row's fully reduced
    basis.  With ``track`` = t > 0 only k < t are tried, and each vector
    carries its coordinates over the Krylov vectors, so that the second array
    returned holds each dependency c_0, ..., c_k = 1, sum c_i A^i e_u = 0
    mod p, zero-padded."""
    n = a.shape[1]
    width = n + track
    # one float64 product steps the vector by A and its coordinates by one;
    # exact, as A x sums at most n residues, n (p - 1) < sqrt(n) 2**31.5 < 2**53
    step_by = np.tile(np.eye(width, k=1), (len(a), 1, 1))
    step_by[:, :n] = 0
    step_by[:, :n, :n] = a
    stops = np.full(len(roots), n)
    found = np.zeros((len(roots), track), dtype=np.int64)
    batch = max(1, _BATCH_ENTRIES // (n * width))
    for chunk in range(0, len(roots), batch):
        active = np.arange(chunk, min(chunk + batch, len(roots)))
        x = np.zeros((len(active), width), dtype=np.int64)
        x[np.arange(len(active)), roots[active]] = 1
        x[:, n:n + 1] = 1  # the coordinates e_0, when tracked
        # row j of a basis is 1 at its root's pivots[j], 0 at the other pivots
        basis = np.zeros((len(active), n, width), dtype=np.int64)
        pivots = np.zeros((len(active), n), dtype=np.int64)
        rows = np.arange(len(active))
        for k in range(track or n):
            coef = x[rows[:, None], pivots[:, :k]]
            r = (x - np.matmul(coef[:, None], basis[:, :k])[:, 0]) % p
            # any nonzero entry can pivot; a vector's largest residue is 0
            # only when the vector is zero
            i = r[:, :n].argmax(axis=1)
            lead = r[rows, i]
            if not lead.all():
                dependent = lead == 0
                stops[active[dependent]] = k
                found[active[dependent]] = r[dependent, n:]
                keep = ~dependent
                active, x, r, basis, pivots, i, lead = (
                    active[keep], x[keep], r[keep], basis[keep], pivots[keep], i[keep],
                    lead[keep])
                if not len(active):
                    break
                rows = np.arange(len(active))
            r = r * np.array([pow(c, -1, p) for c in lead.tolist()])[:, None] % p
            reduced = basis[:, :k]  # a view: updated in place
            reduced -= basis[rows, :k, i][:, :, None] * r[:, None]
            reduced %= p
            basis[:, k] = r
            pivots[:, k] = i
            x = _by_graph(x, gi[active], step_by).astype(np.int64) % p
    return stops, found


def _minimal_polys(a, gi, roots, k):
    """psi_u as a monic descending tuple, keyed by row, for each row (u =
    roots[r] of graph gi[r], k[r] < n) whose candidate has psi(A) e_u = 0
    exactly.  The dependency at k is tracked modulo one walk prime after
    another and lifted to integers after each (``_crt``), until the primes'
    product exceeds twice ``_coefficient_bound`` of the graph, which bounds
    psi_u as it divides phi.  As the entries of A^i e_u are at most D^i, D
    the graph's largest degree, those of psi(A) e_u are at most
    sum |c_i| D^i, so residues modulo primes whose product exceeds twice
    that decide psi(A) e_u = 0 (``_walk_residues``)."""
    n, depth = a.shape[1], int(k.max())
    steps = np.arange(depth + 1)
    degree = np.maximum(a.sum(axis=2).max(axis=1).astype(np.int64), 1).astype(object)
    powers = (degree[:, None] ** steps.astype(object))[gi]  # D^i
    limits = np.array([2 * _coefficient_bound(n, int(m)) for m in a.sum(axis=(1, 2)) // 2],
                      dtype=object)[gi]
    todo = np.ones(len(roots), dtype=bool)
    primes, columns, psi = [], [], {}
    for q in _primes((_walk_prime(n),)):  # below p, so in p's int64 bound
        live = np.flatnonzero(todo)
        primes.append(q)
        columns.append(np.zeros((len(roots), depth + 1), dtype=np.int64))
        columns[-1][live] = _krylov(a, gi[live], roots[live], q, track=depth + 1)[1]
        lifted = _crt(np.stack(columns, axis=-1)[live].reshape(-1, len(primes)), primes)
        # each candidate monic of degree k: c_k = 1, and 0 above
        cands = np.where(steps < k[live, None], lifted.reshape(len(live), -1),
                         (steps == k[live, None]).astype(int))
        check = _walk_count_primes((2 * (abs(cands) * powers[live]).sum(1).max()).bit_length())
        residues = np.stack([cands % s for s in check], axis=-1).astype(np.int64)
        total, modulus = 0, np.array(check, dtype=np.int64)[:, None]
        for j, x in enumerate(_walk_residues(a, gi[live], roots[live], check, depth)):
            total = (total + residues[:, j, :, None] * x) % modulus
        zero = ~np.any(total, axis=(1, 2))
        psi.update((int(i), tuple(cs[k[i]::-1]))
                   for i, cs in zip(live[zero], cands[zero].tolist()))
        todo[live[zero]] = False
        todo &= limits >= math.prod(primes)
        if not todo.any():
            break
    return psi


def _walk_krylov(graphs, roots, cap):
    """(ranks, psi) of each graph, all of one vertex count: the exact walk
    rank of each u of its ``roots``, and psi_u of those below n, as dicts.

    Modulo the walk prime p, the first k at which A^k e_u depends on the
    earlier Krylov vectors (``_krylov``) is rank_p(W_u) <= rank_Q(W_u), as
    their span is then A-invariant, so k = n proves full rank.  For k < n,
    a monic psi_u of degree k with psi_u(A) e_u = 0 (``_minimal_polys``)
    proves rank <= k, and the first k vectors, independent modulo p, hence
    over Q, prove rank >= k; so psi_u is the minimal polynomial.  A root left
    without psi_u (an unlucky prime) has its walk matrix eliminated exactly.
    """
    n, p = graphs[0].n, _walk_prime(graphs[0].n)
    gi, flat = _stack_rows(roots)
    for i, u in zip(gi.tolist(), flat.tolist()):
        _check_vertex(graphs[i], u)
    _check_cap(graphs[0], cap)
    if n * (p - 1) ** 2 >= _INT64_LIMIT:
        raise InternalCheckError(f"{encode_graph6(graphs[0])}: prime {p} overflows int64")
    a = np.stack([g.adjacency for g in graphs]).astype(float)
    k = _krylov(a, gi, flat, p)[0]
    low = np.flatnonzero(k < n)
    psi = _minimal_polys(a, gi[low], flat[low], k[low]) if low.size else {}
    psi = {int(low[j]): c for j, c in psi.items()}
    out = [({}, {}) for _ in graphs]
    for row, (i, u, rank) in enumerate(zip(gi.tolist(), flat.tolist(), k.tolist())):
        if row in psi:
            out[i][1][u] = psi[row]
        elif rank < n:
            rank = rank_exact(walk_matrix(graphs[i], u, cap=cap))
        out[i][0][u] = rank
    return out


def walk_ranks(g, roots, cap=EXACT_CAP_DEFAULT):
    """Exact rank of the walk matrix W_u of every u in ``roots``, as a dict."""
    return _walk_krylov([g], [roots], cap)[0][0]


def walk_rank(g, u, cap=EXACT_CAP_DEFAULT):
    """Exact rank of the walk matrix W_u: ``walk_ranks`` of one root."""
    return walk_ranks(g, [u], cap=cap)[u]


def controllability(g, roots, cap=EXACT_CAP_DEFAULT):
    """``controllability_stack`` of one graph."""
    return controllability_stack([g], [roots], cap=cap)[0]


def controllability_stack(graphs, roots, cap=EXACT_CAP_DEFAULT):
    """For each graph, all of one vertex count, and each u of its ``roots``,
    True iff the walk matrix of u is invertible, as dicts.

    Computed both as rank(W_u) = n, by ``_walk_krylov``, and as coprimality
    of the characteristic polynomials of the graph and each vertex-deleted
    subgraph: one ``poly_coprime`` over the full-rank roots of every graph,
    each row with its own phi; for rank k < n, H = phi / psi_u dividing
    phi(G - u) proves a common factor of degree n - k, else the certified
    ``poly_gcd`` decides.  The two routes must agree.
    """
    roots = [list(dict.fromkeys(r)) for r in roots]
    krylov = _walk_krylov(graphs, roots, cap)
    rows = [(i, u) for i, vertices in enumerate(roots) for u in vertices]
    by_rank = np.array([krylov[i][0][u] == graphs[i].n for i, u in rows], dtype=bool)
    if rows and graphs[0].n > 1:
        polys = char_polys(graphs, cap)
        pairs = [(polys[i][0].coeffs, polys[i][1][u].coeffs) for i, u in rows]
        by_gcd = np.zeros(len(rows), dtype=bool)
        full = np.flatnonzero(by_rank)
        if full.size:
            by_gcd[full] = poly_coprime(*zip(*[pairs[j] for j in full]))
        shared = {}  # (phi, psi_u, phi(G - u)) -> whether H = phi / psi_u divides both
        for j in np.flatnonzero(~by_rank):
            (i, u), (phi, row) = rows[j], pairs[j]
            key = (phi, krylov[i][1].get(u), row)
            if key[1] and key not in shared:
                h, rest = _divmod_monic(phi, key[1])
                shared[key] = rest == [0] and poly_divides(h, row)
            by_gcd[j] = not shared.get(key) and poly_degree(poly_gcd(phi, row)) == 0
        for j in np.flatnonzero(by_rank != by_gcd)[:1]:
            i, u = rows[j]
            raise InternalCheckError(
                f"{encode_graph6(graphs[i])}: controllability disagreement at vertex {u}: "
                f"rank says {bool(by_rank[j])}, gcd says {bool(by_gcd[j])}")
    verdicts = iter(by_rank.tolist())
    return [{u: next(verdicts) for u in vertices} for vertices in roots]


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


def _walk_residues(a, gi, roots, primes, steps):
    """Yield A^k e_u of every row (A = a[gi[r]], u = roots[r]) modulo every
    one of ``primes`` (below 2**31), for k = 0 .. ``steps``, as int64 arrays
    (rows, primes, n).  Each step is one float64 product (``_by_graph``),
    exact while every partial sum, below n 2**31, is below 2**53: checked."""
    n = a.shape[1]
    if n * (max(primes) - 1) >= _FLOAT64_EXACT:
        raise InternalCheckError(f"float64 products are not exact at n={n}")
    p = np.array(primes, dtype=np.int64)[:, None]
    x = np.zeros((len(roots), len(primes), n), dtype=np.int64)
    x[np.arange(len(roots)), :, roots] = 1
    yield x
    for _ in range(steps):
        x = _by_graph(x, gi, a).astype(np.int64) % p
        yield x


def _closed_walks(g, roots, cap):
    """The closed-walk counts h_k = (A^k)_uu for k = 0 .. 2n - 2 of every u
    in ``roots``, as residues (``_walk_residues``): an int64 array (roots,
    2n - 1, primes).  Every h_k is at most D^k, D the largest degree, and the
    primes' product exceeds 2 D^(2n - 2), so counts are equal iff residues are.
    """
    n = g.n
    for u in roots:
        _check_vertex(g, u)
    _check_cap(g, cap)
    top = max(int(g.adjacency.sum(axis=1).max(initial=0)), 1)
    primes = _walk_count_primes(((2 * top ** (2 * n - 2)).bit_length()))
    roots = np.array(list(roots), dtype=np.int64)
    walks = _walk_residues(g.adjacency[None].astype(float), 0 * roots, roots, primes, 2 * n - 2)
    return np.stack([x[np.arange(len(roots)), :, roots] for x in walks], axis=1)


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
