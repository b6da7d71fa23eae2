from dataclasses import dataclass
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

import qwalk as q
from qwalk import polys
from qwalk.partitions import Partition
from qwalk.polys import poly_trim

from oracles import poly_degree, walk_matrix


def random_connected_graphs(count, n_max, seed, n_min=2):
    """Seeded corpus of random connected graphs."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(n_min, n_max + 1))
        a = np.triu((rng.random((n, n)) < 0.45).astype(int), 1)
        a = a + a.T
        g = q.Graph(a)
        if g.is_connected():
            out.append(g)
    return out


def random_graphs(count, n_max, seed, n_min=1):
    """Seeded corpus of random graphs, connected or not."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(n_min, n_max + 1))
        a = np.triu((rng.random((n, n)) < 0.4).astype(int), 1)
        out.append(q.Graph(a + a.T))
    return out


def noncanonical_graph6(text, form):
    """The canonical graph6 ``text`` of a graph rewritten as another valid
    graph6 of the same graph: "tilde" puts its size prefix in the 4-byte
    '~' form, "padding" sets the padding bits of its last byte (none when
    n(n - 1)/2 is a multiple of 6)."""
    start = 4 if text[0] == "~" else 1
    n = 0
    for c in text[1:start] if start == 4 else text[0]:
        n = n << 6 | ord(c) - 63
    if form == "tilde":
        return "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0)) + text[start:]
    spare = -(n * (n - 1) // 2) % 6
    if not spare:
        return text
    return text[:-1] + chr((ord(text[-1]) - 63 | (1 << spare) - 1) + 63)


def refine_reference(g, pi0):
    """Colour refinement one cell at a time: split every cell by its
    vertices' neighbor counts into the current cells until stable."""
    cells = [list(c) for c in pi0.cells]
    cell_of = np.empty(g.n, dtype=int)
    while True:
        for i, cell in enumerate(cells):
            cell_of[cell] = i
        counts = g.adjacency @ np.eye(len(cells), dtype=np.int64)[cell_of]
        new_cells = []
        changed = False
        for cell in cells:
            groups = {}
            for v in cell:
                groups.setdefault(tuple(counts[v]), []).append(v)
            if len(groups) > 1:
                changed = True
            for key in sorted(groups):
                new_cells.append(groups[key])
        cells = new_cells
        if not changed:
            break
    return Partition.from_cells(cells, g.n)


def delta_reference(g, u):
    rest = [v for v in range(g.n) if v != u]
    return refine_reference(g, Partition.from_cells([[u], rest] if rest else [[u]], g.n))


def closed_walks_reference(g, u):
    """Reference: the closed-walk counts h_k = x_i . x_j, i + j = k, from the
    exact object-dtype walk columns x_i = A^i e_u."""
    w = walk_matrix(g, u)
    return [w[:, k // 2] @ w[:, (k + 1) // 2] for k in range(2 * g.n - 1)]


@pytest.fixture(scope="session")
def atlas_connected():
    """All connected graphs on 1..7 vertices, from the networkx graph atlas."""
    by_n = {n: [] for n in range(1, 8)}
    for G in nx.graph_atlas_g():
        n = G.number_of_nodes()
        if 1 <= n <= 7 and nx.is_connected(G):
            by_n[n].append(q.Graph(nx.to_numpy_array(G, dtype=int)))
    return by_n


def as_tuples(rows):
    """A (phi, every phi(G - u)) pair of integer rows, as ``char_polys``
    gives it, as the tuples of Python ints that ``GraphData.char_polys`` holds."""
    phi, deleted = rows
    return tuple(phi.tolist()), tuple(map(tuple, deleted.tolist()))


def padded(rows):
    """Integer rows zero-padded on the left to one width, as one array."""
    width = max(map(len, rows))
    return np.array([[0] * (width - len(r)) + list(r) for r in rows])


def gcd_pairs(p, q):
    """``polys.poly_gcds`` of the rows p[i], q[i], each side ``padded``, as a
    list of (gcd, cofactor) coefficient lists, leading zeros trimmed."""
    gcds, cofactors = polys.poly_gcds(padded(p), padded(q))
    return [(poly_trim(h), poly_trim(c)) for h, c in zip(gcds.tolist(), cofactors.tolist())]


def poly_divmod(num, den):
    """Exact quotient and remainder over Fractions (a test reference; the
    package divides only by monic polynomials, in integers)."""
    num = [Fraction(c) for c in poly_trim(num)]
    den = [Fraction(c) for c in poly_trim(den)]
    if poly_degree(den) < 0:
        raise ZeroDivisionError("polynomial division by zero")
    if poly_degree(num) < poly_degree(den):
        return [Fraction(0)], num
    q = [Fraction(0)] * (len(num) - len(den) + 1)
    r = num[:]
    lead = den[0]
    for i in range(len(q)):
        q[i] = r[i] / lead
        if q[i]:
            for j, d in enumerate(den):
                r[i + j] -= q[i] * d
    return poly_trim(q), poly_trim(r)


@dataclass(frozen=True)
class RatioResult:
    holds: bool
    witness: tuple = None  # failing (theta_k, theta_l, theta_r, theta_s)


def reconstruct_rational(x, denominator_bound=10**6, residual_tol=1e-9):
    """Continued-fraction rational reconstruction of a float.

    Expands x and accepts a convergent only when the expansion effectively
    terminates (a partial quotient beyond the denominator bound); a float
    that is a small-height rational plus rounding noise terminates almost
    immediately, while a genuinely irrational x runs its denominator past
    the bound first. Returns a Fraction or None.
    """
    num, den = Fraction(x).as_integer_ratio()
    a, rem = divmod(num, den)  # x = a + rem / den, 0 <= rem < den
    h0, k0 = 1, 0
    h1, k1 = a, 1
    while True:
        # the next partial quotient is floor(den / rem)
        if rem == 0 or den > denominator_bound * rem:
            cand = Fraction(h1, k1)
            if k1 <= denominator_bound and abs(x - float(cand)) < residual_tol:
                return cand
            return None
        a, rem, den = den // rem, den % rem, rem
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        if k1 > denominator_bound:
            return None


def ratio_condition(support_values, denominator_bound=10**6, residual_tol=1e-9):
    """All ratios (theta_k - theta_l)/(theta_r - theta_s) over the support
    must be rational; the largest-gap pair fixes the denominator.  The float
    verdict the package gave before it read the condition from the exact
    support class; kept as a test reference, witness included."""
    vals = sorted(set(float(v) for v in support_values), reverse=True)
    if len(vals) < 2:
        raise ValueError("ratio condition needs at least two distinct values")
    tr, ts = vals[0], vals[-1]
    den = tr - ts
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            ratio = (vals[i] - vals[j]) / den
            if reconstruct_rational(ratio, denominator_bound, residual_tol) is None:
                return RatioResult(holds=False, witness=(vals[i], vals[j], tr, ts))
    return RatioResult(holds=True)


def support_reference(sd, u, support_tolerance):
    """The per-vertex support that ``spectral.supports_stack`` replaced: the
    sorted r with (E_r)_{u,u} > tolerance."""
    return tuple(np.flatnonzero(sd.idempotents[:, u, u] > support_tolerance).tolist())


def sign_reference(sd, u, v, support_tolerance):
    """The per-pair strong-cospectrality test that ``analysis.signs_stack``
    replaced: E_r e_u = +-E_r e_v on the union of the two supports."""
    support = sorted(set(support_reference(sd, u, support_tolerance))
                     | set(support_reference(sd, v, support_tolerance)))
    x, y = sd.idempotents[support, :, u], sd.idempotents[support, :, v]
    return bool(np.all(np.minimum(abs(x - y).max(axis=1), abs(x + y).max(axis=1)) < 1e-7))
