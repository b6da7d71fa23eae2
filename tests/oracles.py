"""Oracles that no command calls, kept as references for the tests:
Bareiss elimination, the transfer similarity, equitable quotients, paper
statements the package does not check, the plain loops that the time
search, the root guard and the automorphism backtracking replaced, the
class numbering by ``np.lexsort`` that the folded int64 key replaced, and
the class of a polynomial's roots from its factorization."""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import sympy
from sympy.ntheory.factor_ import core

import qwalk as q
from qwalk.analysis import (_GOLDEN, _GUARD_BITS, T_MAX_DEFAULT, THRESHOLD_DEFAULT, PstEvent,
                            SupportClass, _amplitude, _grid_peaks, _search_amplitude,
                            period_candidate)
from qwalk.partitions import BRUTE_FORCE_CAP_DEFAULT, Partition, _by_graph, automorphisms
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
        if len(psi[w]) - 1 < g.n:
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
                g.n - poly_degree(poly_gcd(phi, deleted[u])))
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


# ---------------------------------------------------------------------------
# The time search over the whole grid at once

def _amplitude_reference(thetas, coeffs, t):
    return np.sum(coeffs * np.exp(1j * np.multiply.outer(t, thetas)), axis=-1)


def _golden_max_reference(f, lo, hi, xtol=1e-12):
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = (a + b) / 2
    return x, f(x)


def _polish_peak_reference(thetas, coeffs, tau, halfwidth):
    def deriv(t):
        h = _amplitude_reference(thetas, coeffs, t)
        hp = np.sum(1j * thetas * coeffs * np.exp(1j * thetas * t))
        return 2 * (np.conj(h) * hp).real

    lo, hi = tau - halfwidth, tau + halfwidth
    dlo, dhi = deriv(lo), deriv(hi)
    if not (dlo > 0 > dhi):
        return tau
    for _ in range(200):
        mid = (lo + hi) / 2
        dm = deriv(mid)
        if dm == 0 or hi - lo < 1e-14:
            return mid
        if dm > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def grid_reference(thetas, coeffs, t_max, rho):
    """The whole time grid of a search and |amplitude| on it."""
    step = math.pi / (100 * max(rho, 1.0))
    ts = np.arange(step, t_max + step / 2, step)
    if len(ts) == 0:
        ts = np.array([t_max])
    return step, ts, np.abs(_amplitude_reference(thetas, coeffs, ts))


def search_amplitude_reference(thetas, coeffs, t_max, threshold, rho):
    """The search that ``analysis._search_amplitude`` replaced: the whole grid
    evaluated first, then every peak refined in order."""
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    step, ts, vals = grid_reference(thetas, coeffs, t_max, rho)
    f = lambda t: abs(_amplitude_reference(thetas, coeffs, t))
    for i in _grid_peaks(vals, threshold - 0.02):
        lo = max(ts[i] - step, step * 1e-9)
        hi = min(ts[i] + step, t_max)
        tau, fid = _golden_max_reference(f, lo, hi)
        tau = _polish_peak_reference(thetas, coeffs, tau, min(step, 1e-4))
        fid = f(tau)
        if fid >= threshold:
            return tau, min(fid, 1.0)
    return None


def search_reference(sd, u, v, t_max=T_MAX_DEFAULT, threshold=THRESHOLD_DEFAULT):
    """``analysis.search_pst`` over ``search_amplitude_reference``."""
    thetas = np.asarray(sd.eigenvalues)
    coeffs = sd.idempotents[:, u, v].astype(complex)
    hit = search_amplitude_reference(thetas, coeffs, t_max, threshold, sd.spectral_radius)
    if hit is None:
        return None
    tau, fid = hit
    amp = _amplitude_reference(thetas, coeffs, tau)
    return PstEvent(u=u, v=v, tau=float(tau), gamma=complex(amp / abs(amp)),
                    fidelity=float(fid))


# ---------------------------------------------------------------------------
# Colour refinement with the classes numbered by np.lexsort

def _relabel_lexsort(keys):
    """Class numbers 0, 1, ... of the distinct rows of ``keys``, numbered in
    the lexicographic order of the rows, and the number of classes."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    new = np.ones(len(keys), dtype=np.int64)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    labels = np.empty(len(keys), dtype=np.int64)
    labels[order] = np.cumsum(new) - 1
    return labels, int(labels[order[-1]]) + 1


def refine_lexsort_reference(a, gi, colors):
    """``partitions._refine`` as it numbered the classes before the folded
    key: the counts packed up to b**d <= 2**53 and one ``np.lexsort`` over
    the (row, color, packed counts) rows per round."""
    rows, n = colors.shape
    base = int(a.sum(axis=2).max()) + 1
    digits = 1
    while digits < n and base ** (digits + 1) <= 2**53:
        digits += 1
    weights = np.array([base**j for j in range(digits)], dtype=float)
    row_of = np.repeat(np.arange(rows), n)
    vertex = np.tile(np.arange(n), rows)
    labels, classes = _relabel_lexsort(np.column_stack([row_of, colors.reshape(-1)]))
    while True:
        local = labels - labels.reshape(rows, n).min(axis=1)[row_of]
        group = local // digits
        w = np.zeros((rows, int(group.max()) + 1, n))
        w[row_of, group, vertex] = weights[local % digits]
        counts = _by_graph(w, gi, a).transpose(0, 2, 1).reshape(rows * n, -1)
        labels, grown = _relabel_lexsort(np.column_stack([labels, counts.astype(np.int64)]))
        if grown == classes:
            return local.reshape(rows, n)
        classes = grown


# ---------------------------------------------------------------------------
# The root guard one point at a time

def _scaled_sign(coeffs, m):
    """Sign of 2**(B*d) * p(m / 2**B), B = _GUARD_BITS, in integers."""
    acc, scale = 0, 1
    for c in coeffs:
        acc = acc * m + c * scale
        scale <<= _GUARD_BITS
    return (acc > 0) - (acc < 0)


def near_root_reference(coeffs, v):
    """The per-value guard that ``analysis._guard`` replaced: the signs
    at both ends of [m - 1, m + 1] / 2**B, each from its own Horner run."""
    m = round(v * 2**_GUARD_BITS)
    lo, hi = _scaled_sign(coeffs, m - 1), _scaled_sign(coeffs, m + 1)
    return lo * hi <= 0


# ---------------------------------------------------------------------------
# The class of a root set by factoring

def class_by_factoring(psi):
    """The class of the root set of the squarefree monic integer polynomial
    ``psi`` (descending powers) from its irreducible factors over Z
    (``sympy.factor_list``), independent of ``analysis._classes``: Integer
    iff every factor is linear; Quadratic iff every factor is t - a/2 or t^2
    - a t + c, with one a and one squarefree part delta > 1 of the positive
    discriminants a^2 - 4c, b = 0 for a linear factor and +-sqrt((a^2 -
    4c) / delta) for a quadratic one; else Neither."""
    t = sympy.Symbol("t")
    _, factors = sympy.factor_list(sympy.Poly(list(psi), t))
    factors = [[int(c) for c in f.all_coeffs()] for f, _ in factors]
    if all(len(f) == 2 for f in factors):
        return SupportClass(kind="Integer")
    if any(len(f) > 3 for f in factors):
        return SupportClass(kind="Neither")
    twice = {2 * -f[1] if len(f) == 2 else -f[1] for f in factors}  # a = the root sum
    discriminants = [f[1] ** 2 - 4 * f[2] for f in factors if len(f) == 3]
    deltas = {int(core(m)) if m > 0 else 0 for m in discriminants}  # 0: no real roots
    if len(twice) != 1 or len(deltas) != 1 or deltas & {0, 1}:
        return SupportClass(kind="Neither")
    (a,), (delta,) = twice, deltas
    bs = [0] * (len(factors) - len(discriminants))
    for m in discriminants:
        b = math.isqrt(m // delta)
        bs += [b, -b]
    return SupportClass(kind="Quadratic", a=a, delta=delta, b_values=tuple(sorted(bs, reverse=True)))


# ---------------------------------------------------------------------------
# Automorphism backtracking on numpy arrays

def automorphisms_reference(g, colors):
    """The backtracking that ``partitions.automorphisms`` runs on lists, on
    the int8 adjacency matrix and the ``colors`` array."""
    n = g.n
    adj = g.adjacency
    out = []
    image = [-1] * n
    used = [False] * n

    def extend(v):
        if v == n:
            out.append(tuple(image))
            return
        for w in range(n):
            if used[w] or colors[w] != colors[v]:
                continue
            if any(adj[v, x] != adj[w, image[x]] for x in range(v)):
                continue
            image[v] = w
            used[w] = True
            extend(v + 1)
            used[w] = False
        image[v] = -1

    extend(0)
    return out
