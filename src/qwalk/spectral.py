"""Eigendecomposition with idempotent grouping, H(t), exact characteristic
polynomials, and eigenvalue-gap diagnostics."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .polys import poly_eval

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
    projections onto the corresponding eigenspaces."""

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    idempotents: tuple
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
    """Spectral decomposition of the adjacency matrix of ``g``.

    Numeric eigenvalues are clustered wherever consecutive sorted gaps fall
    below the grouping tolerance; each cluster yields one idempotent.
    """
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    a = g.adjacency.astype(float)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed: {exc}") from exc
    w, v = w[::-1], v[:, ::-1]  # descending
    rho = float(max(abs(w[0]), abs(w[-1])))
    if grouping_tolerance is None:
        grouping_tolerance = default_grouping_tolerance(g.n, rho)
    if grouping_tolerance <= 0:
        raise ValueError("grouping_tolerance must be positive")

    bounds = [0]
    for i in range(1, len(w)):
        if w[i - 1] - w[i] >= grouping_tolerance:
            bounds.append(i)
    bounds.append(len(w))

    eigs, mults, idems = [], [], []
    for lo, hi in zip(bounds, bounds[1:]):
        eigs.append(float(w[lo:hi].mean()))
        mults.append(hi - lo)
        block = v[:, lo:hi]
        idems.append(block @ block.T)
    return SpectralDecomposition(
        eigenvalues=np.array(eigs),
        multiplicities=np.array(mults, dtype=int),
        idempotents=tuple(idems),
        grouping_tolerance=float(grouping_tolerance),
    )


def transition_matrix(sd, t):
    """H(t) = sum_r exp(i * theta_r * t) E_r."""
    h = np.zeros((sd.n, sd.n), dtype=complex)
    for theta, e in zip(sd.eigenvalues, sd.idempotents):
        h += np.exp(1j * theta * t) * e
    return h


def eigenvalue_support(sd, u, support_tolerance=SUPPORT_TOL_DEFAULT):
    """Indices r with (E_r)_{u,u} > tolerance; this diagonal entry equals
    ||E_r e_u||^2 and is non-negative."""
    return {r for r, e in enumerate(sd.idempotents) if e[u, u] > support_tolerance}


@dataclass(frozen=True)
class ExactPoly:
    """Monic integer polynomial, coefficients in descending powers."""

    coeffs: tuple

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, x):
        return poly_eval(self.coeffs, x)

    def __str__(self):
        return " ".join(str(c) for c in self.coeffs)


def _check_cap(g, cap):
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if g.n > cap:
        raise ValueError(f"exact characteristic polynomial cap exceeded: {g.n} > {cap}")


@functools.lru_cache(maxsize=32)
def _faddeev_leverrier(g):
    """phi(G) and phi(G - u) for every u from one Faddeev-LeVerrier run over
    arbitrary-precision integers.

    With B_0 = I, c_k = -tr(A B_{k-1}) / k and B_k = A B_{k-1} + c_k I, the
    coefficients of det(tI - A) are c_0 = 1, c_1, ..., c_n and
    adj(tI - A) = sum_k B_k t^(n-1-k).  The u-th diagonal entry of the
    adjugate is det(tI - A_{G-u}), so the diagonals of B_0 .. B_{n-1} give
    every vertex-deleted characteristic polynomial.  ``Graph`` is immutable
    and hashable, so the result is cached per graph.
    """
    n = g.n
    neighbours = [np.flatnonzero(row) for row in g.adjacency]
    idx = np.arange(n)
    b = np.eye(n, dtype=object)
    coeffs = [1]
    diagonals = [b.diagonal().tolist()]
    for k in range(1, n + 1):
        # A B for a 0/1 matrix A: row i sums the rows of B at i's neighbours
        m = np.stack([b[js].sum(axis=0) for js in neighbours])
        tr = int(np.trace(m))
        if tr % k:  # k divides the trace at step k in exact arithmetic
            raise InternalCheckError(f"Faddeev-LeVerrier step {k} does not divide {tr}")
        c = -tr // k
        coeffs.append(c)
        if k < n:
            m[idx, idx] += c
            b = m
            diagonals.append(b.diagonal().tolist())
    phi = ExactPoly(tuple(int(x) for x in coeffs))
    deleted = tuple(ExactPoly(tuple(int(d[u]) for d in diagonals)) for u in range(n))
    return phi, deleted


def char_poly_exact(g, cap=EXACT_CAP_DEFAULT):
    """Exact characteristic polynomial det(tI - A) by the Faddeev-LeVerrier
    recurrence over arbitrary-precision integers."""
    _check_cap(g, cap)
    return _faddeev_leverrier(g)[0]


def deleted_char_polys(g, cap=EXACT_CAP_DEFAULT):
    """Exact phi(G - u) for every vertex u, indexed by u, read off the
    adjugate of the same Faddeev-LeVerrier run as ``char_poly_exact``
    (phi of the empty graph is 1)."""
    _check_cap(g, cap)
    return _faddeev_leverrier(g)[1]


@dataclass(frozen=True)
class GapReport:
    """Minimum eigenvalue gap over the multiset vs. the 12/(n+1) bound."""

    sigma: float
    bound: float
    satisfied: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "satisfied", self.sigma**2 < self.bound)


def eigenvalue_gap(g, grouping_tolerance=None):
    """Minimum distance between eigenvalues of the multiset (0 on repeats)."""
    if g.n < 2:
        raise ValueError("eigenvalue gap needs at least two vertices")
    return gap_report(decompose(g, grouping_tolerance))


def gap_report(sd):
    """``eigenvalue_gap`` of the graph that ``sd`` decomposes (n >= 2)."""
    if np.any(sd.multiplicities > 1):
        sigma = 0.0
    else:
        sigma = float(np.min(sd.eigenvalues[:-1] - sd.eigenvalues[1:]))
    return GapReport(sigma=sigma, bound=12.0 / (sd.n + 1))


def trace_identity_check(g):
    """Returns (sum over eigenvalue multiset of (theta_i - theta_j)^2, 4*n*|E|)."""
    w = np.linalg.eigvalsh(g.adjacency.astype(float))
    diffs = w[:, None] - w[None, :]
    lhs = float((diffs**2).sum())
    rhs = float(4 * g.n * g.num_edges)
    return lhs, rhs
