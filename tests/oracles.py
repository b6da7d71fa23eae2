"""Exact oracles that no command calls, kept as references for the tests:
Bareiss elimination, the transfer similarity, equitable quotients, and
paper statements the package does not check."""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import qwalk as q
from qwalk.analysis import (T_MAX_DEFAULT, THRESHOLD_DEFAULT, _amplitude, _search_amplitude,
                            period_candidate)
from qwalk.partitions import BRUTE_FORCE_CAP_DEFAULT, Partition, automorphisms
from qwalk.polys import poly_gcd, poly_trim
from qwalk.spectral import EXACT_CAP_DEFAULT, SUPPORT_TOL_DEFAULT, _check_cap
from qwalk.walkalg import _check_vertex


def poly_degree(coeffs):
    t = poly_trim(coeffs)
    if len(t) == 1 and t[0] == 0:
        return -1
    return len(t) - 1


def delete_vertex(g, u):
    """Remove ``u`` and its edges; surviving vertices keep their relative order."""
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} out of range")
    keep = [i for i in range(g.n) if i != u]
    return q.Graph(g.adjacency[np.ix_(keep, keep)])


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
    psi = q.GraphData(g, q.AnalysisConfig(exact_cap=cap)).minimal_polys((u, v))
    for w in (u, v):
        if psi[w].degree < g.n:
            raise ValueError(f"vertex {w} is not controllable")
    wu = walk_matrix(g, u, cap=cap)
    wv = walk_matrix(g, v, cap=cap)
    m = wv @ invert_exact(wu)
    a = np.array(g.adjacency, dtype=object)
    commutes = np.array_equal(m @ a, a @ m)
    ident = np.eye(g.n, dtype=int)
    maps = np.array_equal(m[:, u], ident[v])  # Q e_u = e_v
    orthogonal = np.array_equal(m.T @ m, ident)
    if u != v and orthogonal != q.cospectral_via_gram(g, u, v, cap=cap):
        raise q.InternalCheckError(
            "orthogonality of W_v W_u^{-1} disagrees with Gram cospectrality"
        )
    return TransferSimilarity(
        matrix=m,
        commutes_with_adjacency=commutes,
        maps_u_to_v=maps,
        orthogonal=orthogonal,
    )


def support_size_crosscheck(g, roots, cap=EXACT_CAP_DEFAULT,
                            support_tolerance=SUPPORT_TOL_DEFAULT):
    """(walk-matrix rank, numeric support size, pole count) of every u in
    ``roots``, as a dict; all three must agree.  The rank is the Bareiss rank
    of the whole walk matrix and the pole count n - deg ``poly_gcd``(phi,
    phi(G - u)), so no route is used twice.  One decomposition and one
    recurrence run serve every root."""
    data = q.GraphData(g, q.AnalysisConfig(exact_cap=cap, support_tolerance=support_tolerance))
    phi, deleted = data.char_polys
    return {u: (rank_exact(walk_matrix(g, u, cap=cap)), len(data.supports[u]),
                g.n - poly_degree(poly_gcd(phi.coeffs, deleted[u].coeffs)))
            for u in roots}


def quotient_matrix(g, pi):
    """Integer matrix B with B[i][j] = neighbors in cell j of a cell-i vertex.

    Returns None when ``pi`` is not equitable.
    """
    adj = g.adjacency
    cell_of = pi.cell_of()
    k = pi.num_cells
    b = np.zeros((k, k), dtype=object)
    for i, cell in enumerate(pi.cells):
        ref = None
        for v in cell:
            row = [0] * k
            for w in np.flatnonzero(adj[v]):
                row[cell_of[w]] += 1
            if ref is None:
                ref = row
                b[i] = row
            elif row != ref:
                return None
    return b


def is_equitable(g, pi):
    """(True, B) when every cell has constant neighbor counts, else (False, None)."""
    b = quotient_matrix(g, pi)
    return (b is not None), b


def characteristic_matrix(pi):
    """0/1 matrix whose columns are the cell characteristic vectors."""
    p = np.zeros((pi.n, pi.num_cells), dtype=object)
    for i, cell in enumerate(pi.cells):
        for v in cell:
            p[v, i] = 1
    return p


def projection_matrix_exact(pi):
    """QQ^T as exact rationals: block diagonal with (1/r) J_r blocks."""
    m = np.full((pi.n, pi.n), Fraction(0), dtype=object)
    for cell in pi.cells:
        w = Fraction(1, len(cell))
        for v in cell:
            for u in cell:
                m[v, u] = w
    return m


def equitable_quotient_checks(g, pi):
    """Exact verification of the equitable-partition equivalences.

    Returns a dict with: 'equitable', and when equitable 'AP_eq_PB' (A P = P B
    with P the characteristic matrix) and 'A_commutes_QQt' (A QQ^T = QQ^T A
    over exact rationals).
    """
    ok, b = is_equitable(g, pi)
    out = {"equitable": ok}
    if not ok:
        return out
    a = np.array(g.adjacency, dtype=object)
    p = characteristic_matrix(pi)
    out["AP_eq_PB"] = np.array_equal(a @ p, p @ b)
    qqt = projection_matrix_exact(pi)
    out["A_commutes_QQt"] = np.array_equal(a @ qqt, qqt @ a)
    return out


def stabilizer_orbits_bruteforce(g, u, n_cap=BRUTE_FORCE_CAP_DEFAULT):
    """Orbit partition of the automorphisms fixing ``u``, pruned by Delta_u."""
    n = g.n
    if n > n_cap:
        raise ValueError(f"brute-force cap exceeded: {n} > {n_cap}")
    colors = q.GraphData(g).deltas([u])[u].cell_of()
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in automorphisms(g, n_cap=n_cap, colors=colors):
        if perm[u] != u:
            continue
        for v, w in enumerate(perm):
            rv, rw = find(v), find(w)
            if rv != rw:
                parent[rw] = rv
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return Partition.from_cells(groups.values(), n)


def check_periodicity(sd, u, t_max=T_MAX_DEFAULT, threshold=THRESHOLD_DEFAULT,
                      support_class=None):
    """Earliest time with |H(t)_{u,u}| >= threshold, or None.

    When the support class is known, its closed-form ``period_candidate``
    is tested before the scan.
    """
    thetas = np.asarray(sd.eigenvalues)
    coeffs = sd.idempotents[:, u, u].astype(complex)

    hits = []
    cand = None if support_class is None else period_candidate(support_class)
    if cand is not None and abs(_amplitude(thetas, coeffs, cand)) >= threshold:
        hits.append(cand)
    found = _search_amplitude(thetas, coeffs, t_max, threshold, sd.spectral_radius)
    if found is not None:
        hits.append(found[0])
    return min(hits) if hits else None


def finiteness_bound(k):
    """Bounds behind the finiteness result for maximum valency k: support size,
    eccentricity, and vertex count."""
    if k < 1:
        raise ValueError("valency bound must be >= 1")
    s = 2 * k + 1
    support_bound = math.isqrt(2 * s * s - 1) + 1  # ceil(s * sqrt(2)), exact
    eccentricity_bound = support_bound
    vertex_bound = 1 + sum(k * (k - 1) ** (d - 1) for d in range(1, eccentricity_bound + 1))
    return support_bound, eccentricity_bound, vertex_bound


def trace_identity_check(g):
    """Returns (sum over eigenvalue multiset of (theta_i - theta_j)^2, 4*n*|E|)."""
    w = np.linalg.eigvalsh(g.adjacency.astype(float))
    diffs = w[:, None] - w[None, :]
    lhs = float((diffs**2).sum())
    rhs = float(4 * g.n * g.num_edges)
    return lhs, rhs
