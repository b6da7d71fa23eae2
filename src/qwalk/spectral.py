"""Eigendecomposition with idempotent grouping, H(t), exact characteristic
polynomials, and eigenvalue-gap diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import encode_graph6
from .polys import _crt, _primes_above

EXACT_CAP_DEFAULT = 64
SUPPORT_TOL_DEFAULT = 1e-10


class InternalCheckError(RuntimeError):
    """Two independent exact routes disagreed; signals a bug, not a verdict."""


def default_grouping_tolerance(n, rho):
    # Adjacency matrices are integral, so true distinct eigenvalues of small
    # graphs separate far above this.
    return max(1e-8, n * rho * 1e-12)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues (descending), multiplicities, and the orthogonal
    projections onto the corresponding eigenspaces, an (r, n, n) array."""

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    idempotents: np.ndarray
    grouping_tolerance: float

    @property
    def n(self):
        return int(self.multiplicities.sum())

    @property
    def num_distinct(self):
        return len(self.eigenvalues)

    @property
    def spectral_radius(self):
        return float(max(abs(self.eigenvalues[0]), abs(self.eigenvalues[-1])))


def decompose(g, grouping_tolerance=None):
    """Spectral decomposition of the adjacency matrix of ``g``: a stack of
    one for ``decompose_stack``."""
    return decompose_stack([g], grouping_tolerance)[0]


def decompose_stack(graphs, grouping_tolerance=None):
    """``decompose`` of every graph of ``graphs``, by one ``np.linalg.eigh``
    per vertex count.

    Numeric eigenvalues, sorted descending, are clustered wherever a gap
    falls below the grouping tolerance (the graph's default when None), by
    one gap test per stack; each cluster yields its mean and one idempotent,
    for all clusters of k values of a stack by one row-wise mean and one
    batched product.  Each cluster is a run of eigh's ascending output read
    backwards, (k,) values and (n, k) vectors as per-graph slices were, so
    numpy takes the same route and the results are the same to the bit
    (cumulative sums, ``np.add.reduceat`` or contiguous blocks are not).
    """
    if grouping_tolerance is not None and not 0 < grouping_tolerance < math.inf:
        raise ValueError("grouping_tolerance must be positive and finite")
    by_n, out = {}, [None] * len(graphs)
    for i, g in enumerate(graphs):
        by_n.setdefault(g.n, []).append(i)
    for n, idx in by_n.items():
        if n < 1:
            raise ValueError("graph must have at least one vertex")
        try:
            w, v = np.linalg.eigh(np.stack([graphs[i].adjacency for i in idx]).astype(float))
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"eigensolver failed: {exc}") from exc
        tols = [default_grouping_tolerance(n, rho) if grouping_tolerance is None
                else float(grouping_tolerance)
                for rho in np.maximum(abs(w[:, -1]), abs(w[:, 0])).tolist()]
        start = np.ones(w.shape, dtype=bool)  # in descending order
        start[:, 1:] = w[:, :0:-1] - w[:, -2::-1] >= np.array(tols)[:, None]
        starts = np.flatnonzero(start)
        sizes = np.diff(starts, append=start.size)
        # each cluster's graph, and the ascending index of its lowest value
        graph, lo = starts // n, n - starts % n - sizes
        means, idems = np.empty(len(starts)), np.empty((len(starts), n, n))
        for k in sorted(set(sizes.tolist())):
            of_k = sizes == k
            gi, cols = graph[of_k][:, None], lo[of_k][:, None] + np.arange(k)
            means[of_k] = w[gi, cols][:, ::-1].mean(axis=1)
            block = v[gi[:, None], np.arange(n)[:, None], cols[:, None]][..., ::-1]
            idems[of_k] = block @ block.transpose(0, 2, 1)
        bounds = np.searchsorted(graph, np.arange(len(idx) + 1)).tolist()
        for t, i in enumerate(idx):
            c = slice(bounds[t], bounds[t + 1])
            out[i] = SpectralDecomposition(eigenvalues=means[c], multiplicities=sizes[c],
                                           idempotents=idems[c],
                                           grouping_tolerance=tols[t])
    return out


def transition_matrix(sd, t):
    """H(t) = sum_r exp(i * theta_r * t) E_r."""
    h = np.zeros((sd.n, sd.n), dtype=complex)
    for theta, e in zip(sd.eigenvalues, sd.idempotents):
        h += np.exp(1j * theta * t) * e
    return h


def support_mask(sds, support_tolerance):
    """The idempotents of the decompositions ``sds``, all of one vertex
    count, concatenated as (clusters, n, n), and the (clusters, n) mask of
    (E_r)_{u,u} > tolerance that defines every support; the diagonal entry
    equals ||E_r e_u||^2 and is non-negative.  A stack of one is not copied."""
    idems = sds[0].idempotents if len(sds) == 1 else np.concatenate(
        [sd.idempotents for sd in sds])
    return idems, np.diagonal(idems, axis1=1, axis2=2) > support_tolerance


def supports_stack(sds, support_tolerance=SUPPORT_TOL_DEFAULT):
    """Per decomposition of ``sds``, all of one vertex count, the support of
    every vertex u, the sorted indices r with (E_r)_{u,u} > tolerance, as a
    tuple indexed by u: one mask over the stack, split by one sort."""
    idems, mask = support_mask(sds, support_tolerance)
    n = idems.shape[-1]
    sizes = [len(sd.eigenvalues) for sd in sds]
    graph = np.repeat(np.arange(len(sds)), sizes)  # of each cluster row
    first = np.cumsum([0] + sizes)  # each graph's first row
    rows, verts = np.nonzero(mask)
    key = graph[rows] * n + verts
    order = np.lexsort((rows, key))
    found = (rows - first[graph[rows]])[order].tolist()
    ends = np.cumsum(np.bincount(key, minlength=len(sds) * n)).tolist()
    parts = [tuple(found[a:b]) for a, b in zip([0] + ends, ends)]
    return [tuple(parts[g * n:g * n + n]) for g in range(len(sds))]


def _check_cap(g, cap):
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if g.n > cap:
        raise ValueError(f"exact-arithmetic cap exceeded: {g.n} > {cap}")


# A float64 product of a 0/1 matrix with non-negative integers is exact
# while every partial sum, at most the largest degree times the largest
# entry, stays below 2**53.
_FLOAT64_EXACT = 2**53


def _reduce(x, p):
    """The float64 residue array ``x`` reduced modulo the primes ``p`` of
    its last axis, by one int64 ``%``."""
    return (x.astype(np.int64) % p).astype(float)


def _residue_walks(a, x, p, at):
    """The products A x, A (A x), ... of residue walks kept in float64 and
    reduced modulo the primes ``p`` only near 2**53, one per step.

    ``a`` is a (stack, n, n) 0/1 float64 array and ``x`` a (stack, n, ...,
    primes) float64 array of zeros and ones, its last axis the walks modulo
    each prime.  A row of A has at most D ones, D the largest degree, so a
    product of entries at most b has partial sums at most D b: the bound b
    is p - 1 after a reduction and D b after a product, and the walks are
    reduced first (``_reduce``) when the next product could reach
    ``_FLOAT64_EXACT``.  Each step yields A x and its entries at the index
    ``at`` reduced as int64; the caller may overwrite those entries of the
    yielded array with residues before the next step.  A stack of n-vertex
    graphs is refused when n (p - 1) reaches ``_FLOAT64_EXACT``, so every
    product straight after a reduction is exact."""
    n, top = a.shape[-1], int(p.max()) - 1
    if n * top >= _FLOAT64_EXACT:
        raise InternalCheckError(f"float64 products of residues below {top + 1} "
                                 f"are not exact at n={n}")
    degree, bound = int(a.sum(axis=-1).max()), 1
    while True:
        if degree * bound >= _FLOAT64_EXACT:
            x, bound = _reduce(x, p), top
        x = (a @ x.reshape(len(a), n, -1)).reshape(x.shape)
        bound = max(degree * bound, top)
        yield x, x[at].astype(np.int64) % p


def _coefficient_bound(n, m):
    """An integer at least |c| for every coefficient c of phi(G) and of each
    phi(G - u), G with n vertices and m edges.

    A coefficient of det(tI - A) is an elementary symmetric function of the
    eigenvalues, so |c| <= prod(1 + |lambda_i|).  By AM-GM and Cauchy-Schwarz
    that is at most (1 + sqrt(sum lambda_i^2 / n))^n, and sum lambda_i^2 = 2m.
    G - u has n - 1 vertices and at most m edges, and
    s = isqrt(2m // (n - 1)) + 1 > sqrt(2m / (n - 1)) covers both."""
    s = math.isqrt(2 * m // max(n - 1, 1)) + 1
    return (1 + s) ** n


def _combine(residues, primes):
    """``_crt`` modulo all ``primes`` but the last, and per row whether the
    integer matches its residue modulo the last prime, the check prime."""
    *main, check = primes
    values = _crt(residues[:, :-1], main)
    return values, values % check == residues[:, -1]


def _faddeev_leverrier(graphs):
    """(phi(G), (phi(G - u) for every u)) of every graph G of ``graphs``, all
    of one vertex count n, as an (n + 1,) and an (n, n) integer array, from
    one Faddeev-LeVerrier run over the stack, in the residue arithmetic that
    ``char_polys`` describes.

    With B_0 = I, c_k = -tr(A B_{k-1}) / k and B_k = A B_{k-1} + c_k I, the
    coefficients of det(tI - A) are c_0 = 1, c_1, ..., c_n and
    adj(tI - A) = sum_k B_k t^(n-1-k).  The u-th diagonal entry of the
    adjugate is det(tI - A_{G-u}), so the diagonals of B_0 .. B_{n-1} give
    every vertex-deleted characteristic polynomial.  Only the c_k and the
    diagonals are combined into integers.  The residues are (graphs, n, n,
    primes), with primes for the largest edge count; the checks run once
    over the stack, and an error names the first graph that fails one.
    """
    n = graphs[0].n
    a = np.stack([g.adjacency for g in graphs]).astype(float)
    # primes with a product above twice the bound, then one check prime
    primes = _primes_above(2 * _coefficient_bound(n, int(a.sum(axis=(1, 2)).max()) // 2), 1)
    p = np.array(primes, dtype=np.int64)
    inverses = np.array([[pow(k, -1, q) for q in primes] for k in range(1, n + 1)],
                        dtype=np.int64)
    idx = np.arange(n)
    b = np.zeros((len(graphs), n, n, len(primes)))
    b[:, idx, idx] = 1
    walks = _residue_walks(a, b, p, (slice(None), idx, idx))
    coeffs = [np.ones((len(graphs), len(primes)), dtype=np.int64)]
    diagonals = [np.ones((len(graphs), n, len(primes)), dtype=np.int64)]
    for k in range(1, n + 1):
        b, d = next(walks)
        c = -(np.sum(d, axis=1) % p) * inverses[k - 1] % p
        coeffs.append(c)
        if k < n:
            d = (d + c[:, None]) % p
            b[:, idx, idx] = d
            diagonals.append(d)
    # rows of each graph: the coefficients of phi, then those of phi(G - u)
    # for u = 0, 1, ...
    residues = np.concatenate([np.stack(coeffs, axis=1),
                               np.stack(diagonals, axis=2).reshape(len(a), n * n, -1)], axis=1)
    values, agree = _combine(residues.reshape(-1, len(primes)), primes)
    values = values.reshape(len(a), -1)
    phi, deleted = values[:, :n + 1], values[:, n + 1:].reshape(len(a), n, n)
    # phi' = sum_u phi(G - u), in Python integers: int64 sums could wrap
    derivative = phi[:, :-1].astype(object) * np.arange(n, 0, -1)
    wrong = ~agree.reshape(len(a), -1).all(axis=1)
    failed = wrong | (np.add.reduce(deleted, axis=1, dtype=object) != derivative).any(axis=1)
    if failed.any():
        i = int(np.argmax(failed))
        reason = (f"reconstructed integers disagree with the check prime {primes[-1]}"
                  if wrong[i] else "phi' differs from sum phi(G - u)")
        raise InternalCheckError(f"{encode_graph6(graphs[i])}: {reason}")
    return list(zip(phi, deleted))


def char_polys(graphs, cap=EXACT_CAP_DEFAULT):
    """(phi, every phi(G - u)) of each graph of ``graphs``, all of one vertex
    count within ``cap``, exact, as integer rows in descending powers: int64
    arrays while every coefficient of the stack lies within p_0 p_1 ~ 2**62
    of 0 (``_crt``), object arrays of Python ints past it, from one
    ``_faddeev_leverrier`` run modulo a few primes below 2**31 at once (phi
    of the empty graph G - u, n = 1, is 1).

    The residues are a float64 array (n, n, primes) per graph of a stack,
    and each step A B_{k-1} is one matrix product with it
    (``_residue_walks``).  A is 0/1 with at most D ones a row, so a product
    of entries at most b has partial sums at most D b; the array is reduced
    modulo the primes only when that would reach 2**53, and only the
    diagonal, which gives c_k and every phi(G - u), on every step.  A
    reduction leaves entries below 2**31, and n 2**31 < 2**53 is checked
    before the first step.  The primes' product exceeds twice a proved
    bound on every coefficient of phi and of each phi(G - u), (1 + s)^n
    with s = isqrt(2m // (n - 1)) + 1, so the residues determine the
    integers in the symmetric range.  One more prime checks them, and phi'
    must equal the sum of the phi(G - u) in exact integers; either failing
    raises ``InternalCheckError``."""
    _check_cap(graphs[0], cap)
    return _faddeev_leverrier(graphs)


@dataclass(frozen=True)
class GapReport:
    """Minimum eigenvalue gap over the multiset vs. the 12/(n+1) bound."""

    sigma: float
    bound: float
    satisfied: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "satisfied", self.sigma**2 < self.bound)


def gap_report(sd):
    """The ``GapReport`` of the graph that ``sd`` decomposes (n >= 2): the
    minimum distance between the eigenvalues of the multiset, 0 on repeats
    (fewer distinct eigenvalues than n)."""
    values, n = sd.eigenvalues.tolist(), sd.n
    sigma = min(map(float.__sub__, values, values[1:])) if len(values) == n else 0.0
    return GapReport(sigma=sigma, bound=12.0 / (n + 1))
