"""Equitable partitions: color refinement, Delta_u, and a brute-force
automorphism stabilizer check for small graphs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import _FLOAT64_EXACT

BRUTE_FORCE_CAP_DEFAULT = 10


@dataclass(frozen=True)
class Partition:
    """Ordered vertex partition; cells sorted by their minimum vertex."""

    cells: tuple  # tuple of tuples of sorted vertex indices
    n: int

    @classmethod
    def from_cells(cls, cells, n):
        norm = []
        seen = set()
        for cell in cells:
            cell = tuple(sorted(int(v) for v in cell))
            if not cell:
                raise ValueError("empty cell")
            for v in cell:
                if not 0 <= v < n:
                    raise ValueError(f"vertex {v} out of range")
                if v in seen:
                    raise ValueError(f"vertex {v} in two cells")
                seen.add(v)
            norm.append(cell)
        if len(seen) != n:
            raise ValueError("cells do not cover the vertex set")
        norm.sort(key=lambda c: c[0])
        return cls(cells=tuple(norm), n=n)

    @classmethod
    def from_labels(cls, labels):
        """The partition of a canonical label row: vertex v in the cell of
        the least vertex labels[v]."""
        cells = {}  # label -> vertices; first seen at the cell's least vertex
        for v, label in enumerate(labels):
            cells.setdefault(label, []).append(v)
        return cls(cells=tuple(map(tuple, cells.values())), n=len(labels))

    @classmethod
    def trivial(cls, n):
        return cls.from_cells([range(n)], n)

    @classmethod
    def discrete(cls, n):
        return cls.from_cells([[v] for v in range(n)], n)

    @property
    def num_cells(self):
        return len(self.cells)

    def cell_of(self):
        idx = np.empty(self.n, dtype=int)
        for i, cell in enumerate(self.cells):
            for v in cell:
                idx[v] = i
        return idx

    def refines(self, other):
        other_of = other.cell_of()
        return all(len({other_of[v] for v in cell}) == 1 for cell in self.cells)

    def as_lists(self):
        return [list(c) for c in self.cells]


# Roots per batch: at most this many entries in the (roots * n, n) arrays of
# neighbor counts.
_BATCH_ENTRIES = 2**22


def _stack_rows(roots):
    """The graph index and the root of every row; roots[i] lists graph i's."""
    return (np.repeat(np.arange(len(roots)), [len(r) for r in roots]),
            np.array([u for r in roots for u in r], dtype=np.int64))


def _by_graph(x, gi, mats):
    """x[r] @ mats[gi[r]] for every row r of ``x`` (rows, ..., k), gi sorted:
    the rows scattered into a zero (graphs, slots, ..., k) array, one batched
    product, and the rows gathered back."""
    if len(mats) == 1:
        return (x.reshape(-1, x.shape[-1]) @ mats[0]).reshape(x.shape)
    slot = np.arange(len(gi)) - np.searchsorted(gi, gi)
    buf = np.zeros((len(mats), int(slot.max(initial=-1)) + 1) + x.shape[1:])
    buf[gi, slot] = x
    return (buf.reshape(len(mats), -1, x.shape[-1]) @ mats).reshape(buf.shape)[gi, slot]


def _rank(keys):
    """Class numbers 0, 1, ... of the distinct values of the int64 array
    ``keys``, in their order, by one stable argsort, and their number."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    labels = np.empty(len(keys), dtype=np.int64)
    labels[order] = np.cumsum(np.concatenate([[0], ordered[1:] != ordered[:-1]]))
    return labels, int(labels[order[-1]]) + 1


def _refine(a, gi, colors):
    """The coarsest equitable refinement of each row r of the (rows, n) int
    array ``colors`` under the adjacency matrix a[gi[r]] (vertex v of row r
    has color colors[r, v]), as colors numbered from 0 within each row.

    Every round gives each (row, vertex) its neighbor counts into every
    color of its row, for all rows at once as one float64 product A @ W
    (``_by_graph``).  The counts come packed as base-b digits, b - 1 the
    largest degree: W is b**(c % d) at (v, c // d) for v of color c, so a
    vertex's entry in column j holds its counts into the colors jd .. jd +
    d - 1.  It is exact while b**d <= 2**53 and rows * n * b**d <= 2**62,
    which fixes d.  Folding the columns left to right into one int64 key,
    class * b**d + column, each fold ranked by ``_rank``, numbers the new
    classes in the lexicographic order of the (class, packed counts) rows.
    A class keeps its color as a key, so each round refines the last; the
    run stops when the (row, color) classes stop growing in number."""
    rows, n = colors.shape
    base = int(a.sum(axis=2).max()) + 1
    room = min(_FLOAT64_EXACT, 2**62 // (rows * n))
    digits = 1
    while digits < n and base ** (digits + 1) <= room:
        digits += 1
    size = base**digits
    weights = np.array([base**j for j in range(digits)], dtype=float)  # exact: < 2**53
    row_of = np.repeat(np.arange(rows), n)
    vertex = np.tile(np.arange(n), rows)
    # a class number leads with its row, so each row's classes are contiguous
    labels, classes = _rank(row_of * n + colors.reshape(-1))
    while True:
        local = labels - labels.reshape(rows, n).min(axis=1)[row_of]
        group = local // digits
        w = np.zeros((rows, int(group.max()) + 1, n))
        w[row_of, group, vertex] = weights[local % digits]
        counts = _by_graph(w, gi, a).astype(np.int64)  # (rows, columns, n)
        for column in counts.transpose(1, 0, 2).reshape(counts.shape[1], -1):
            labels, grown = _rank(labels * size + column)
        if grown == classes:
            return local.reshape(rows, n)
        classes = grown


def _labels(graphs, gi, colors):
    """``_refine`` of the rows of ``colors``, row r under graphs[gi[r]], as
    canonical label rows: each vertex labelled by the least vertex of its
    cell, so equal partitions have equal rows."""
    rows, n = colors.shape
    a = np.stack([g.adjacency for g in graphs]).astype(float)
    step = max(1, _BATCH_ENTRIES // max(n, 1) ** 2)
    out = np.empty_like(colors)
    for start in range(0, rows, step):
        local = _refine(a, gi[start:start + step], colors[start:start + step])
        # the first vertex w with the color of v, one (rows, n, n) compare
        # of the size of the block's (rows, n, n) adjacency stack
        out[start:start + step] = (local[:, :, None] == local[:, None, :]).argmax(axis=2)
    return out


def coarsest_equitable_refinement(g, pi0):
    """Unique coarsest equitable partition refining ``pi0``: ``_refine`` of
    one row."""
    if pi0.n != g.n:
        raise ValueError("partition does not match the graph")
    if g.n == 0:
        return pi0
    return Partition.from_labels(_labels([g], np.zeros(1, dtype=np.int64),
                                         pi0.cell_of()[None])[0].tolist())


def delta_stack(graphs, roots):
    """Delta_u, the coarsest equitable refinement of {{u}, V \\ {u}}, of
    every u of roots[i] of each graph graphs[i], all of one vertex count, as
    a dict per graph of canonical label rows (tuples; ``_labels``), from
    one batched refinement.  Two roots have equal Delta_u iff their rows
    are equal, and v is a singleton cell of Delta_u iff v occurs once in
    u's row."""
    roots = [list(dict.fromkeys(r)) for r in roots]
    gi, flat = _stack_rows(roots)
    for u in flat[(flat < 0) | (flat >= graphs[0].n)][:1]:
        raise ValueError(f"vertex {u} out of range")
    colors = np.zeros((len(flat), graphs[0].n), dtype=np.int64)
    colors[np.arange(len(flat)), flat] = 1
    found = map(tuple, _labels(graphs, gi, colors).tolist())
    return [{u: next(found) for u in vertices} for vertices in roots]


# ---------------------------------------------------------------------------
# Brute-force automorphisms (small n only)

def automorphisms(g, n_cap=BRUTE_FORCE_CAP_DEFAULT, colors=None):
    """All automorphisms of ``g`` by backtracking, as image tuples in
    lexicographic order.

    ``colors`` (vertex -> int) restricts images to same-colored vertices; by
    default the coarsest equitable refinement of the trivial partition is used
    as the pruning invariant.
    """
    n = g.n
    if n > n_cap:
        raise ValueError(f"brute-force cap exceeded: {n} > {n_cap}")
    if n == 0:
        return [()]
    adj = g.adjacency.tolist()
    if colors is None:
        colors = coarsest_equitable_refinement(g, Partition.trivial(n)).cell_of()
    cells = {}  # color -> its vertices, ascending
    for w in range(n):
        cells.setdefault(int(colors[w]), []).append(w)
    out = []
    image = [-1] * n
    used = [False] * n

    def extend(v):
        if v == n:
            out.append(tuple(image))
            return
        row = adj[v][:v]
        for w in cells[int(colors[v])]:
            if used[w]:
                continue
            other = adj[w]
            if row != [other[x] for x in image[:v]]:
                continue
            image[v] = w
            used[w] = True
            extend(v + 1)
            used[w] = False
        image[v] = -1

    extend(0)
    return out


def stabilizers_equal(g, u, v, n_cap=BRUTE_FORCE_CAP_DEFAULT):
    """True iff every automorphism fixes u exactly when it fixes v."""
    return all((p[u] == u) == (p[v] == v) for p in automorphisms(g, n_cap=n_cap))
