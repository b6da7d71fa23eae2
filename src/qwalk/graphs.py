"""Simple undirected graphs: construction, graph6 codec, named families."""

from __future__ import annotations

import json

import numpy as np

# Construction cap; spectral/exact modules enforce their own tighter caps.
MAX_VERTICES = 1_048_576

# graph6 multi-byte length encoding covers n <= 258047 in the 4-byte form.
_G6_MAX_N = 258047


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the byte position of the problem."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def _check_size(n):
    if n < 0:
        raise ValueError(f"negative vertex count: {n}")
    if n > MAX_VERTICES:
        raise ValueError(f"graph too large: {n} > {MAX_VERTICES}")


class Graph:
    """Immutable simple undirected graph backed by a dense 0/1 adjacency matrix."""

    __slots__ = ("_adj",)

    def __init__(self, adjacency):
        a = np.asarray(adjacency, dtype=np.int8)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        _check_size(a.shape[0])
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0):
            raise ValueError("adjacency must have zero diagonal")
        if not np.all((a == 0) | (a == 1)):
            raise ValueError("adjacency entries must be 0 or 1")
        a.setflags(write=False)
        self._adj = a

    @classmethod
    def from_edges(cls, n, edges):
        _check_size(n)  # before the n x n allocation
        a = np.zeros((n, n), dtype=np.int8)
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
            if i == j:
                raise ValueError(f"loop ({i}, {i}) not allowed")
            a[i, j] = a[j, i] = 1
        return cls(a)

    @classmethod
    def from_json(cls, text):
        """Parse the {"n": int, "edges": [[i, j], ...]} edge-list format;
        ValueError on any other shape."""
        doc = json.loads(text)
        edges = doc.get("edges", []) if isinstance(doc, dict) else None
        if not (isinstance(edges, list) and type(doc.get("n")) is int and all(
                isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)
                for e in edges)):
            raise ValueError('JSON input must be {"n": int, "edges": [[int, int], ...]}')
        return cls.from_edges(doc["n"], edges)

    @property
    def n(self):
        return self._adj.shape[0]

    @property
    def adjacency(self):
        return self._adj

    @property
    def num_edges(self):
        return int(self._adj.sum()) // 2

    def degree(self, u):
        return int(self._adj[u].sum())

    def neighbors(self, u):
        return [int(v) for v in np.flatnonzero(self._adj[u])]

    def is_connected(self):
        return connected_stack([self])[0]

    def __eq__(self, other):
        return isinstance(other, Graph) and np.array_equal(self._adj, other._adj)

    def __hash__(self):
        return hash((self.n, self._adj.tobytes()))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges})"


def connected_stack(graphs):
    """Whether each graph of ``graphs``, all of one vertex count n, is
    connected: vertex 0 reaches every vertex within n - 1 steps in
    (A + I)^hops, squared for the whole stack until hops >= n - 1 or every
    vertex 0 reaches all.  Products are clipped to 0/1, so they stay exact."""
    n = graphs[0].n if graphs else 0
    if n < 2:
        return [True] * len(graphs)
    reach, hops = np.stack([g.adjacency for g in graphs]) + np.eye(n), 1
    while hops < n - 1 and not reach[:, 0].all():
        reach, hops = np.minimum(reach @ reach, 1), 2 * hops
    return reach[:, 0].all(axis=1).tolist()


# ---------------------------------------------------------------------------
# graph6 codec (6-bit groups, offset 63, upper-triangle column-major bits)

def graph6_body(text):
    """A graph6 string less its optional '>>graph6<<' header, stripped."""
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    return text.strip()


def parse_graph6(text):
    """Decode one graph6 string, optionally prefixed with '>>graph6<<'."""
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    text = graph6_body(text)
    if not text:
        raise Graph6Error("empty graph6 input", offset=0)
    data = []
    for pos, ch in enumerate(text):
        o = ord(ch)
        if not 63 <= o <= 126:
            raise Graph6Error(f"character {ch!r} outside graph6 alphabet", offset=pos)
        data.append(o - 63)

    if data[0] == 63:  # '~' prefix: multi-byte length
        if len(data) >= 2 and data[1] == 63:
            raise Graph6Error("8-byte length encoding (n > 258047) not supported", offset=1)
        if len(data) < 4:
            raise Graph6Error("truncated multi-byte length prefix", offset=len(text))
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
        body_off = 4
    else:
        n = data[0]
        body = data[1:]
        body_off = 1
    if n > _G6_MAX_N:
        raise Graph6Error(f"vertex count {n} exceeds graph6 cap {_G6_MAX_N}", offset=0)

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) < nbytes:
        raise Graph6Error(
            f"truncated bit vector: need {nbytes} bytes, got {len(body)}",
            offset=len(text),
        )
    if len(body) > nbytes:
        raise Graph6Error("trailing data after bit vector", offset=body_off + nbytes)

    a = np.zeros((n, n), dtype=np.int8)
    k = 0
    for j in range(1, n):
        for i in range(j):
            byte = body[k // 6]
            if (byte >> (5 - k % 6)) & 1:
                a[i, j] = a[j, i] = 1
            k += 1
    return Graph(a)


def encode_graph6(g):
    """Canonical graph6 encoding of ``g`` (no header)."""
    n = g.n
    if n > _G6_MAX_N:
        raise ValueError(f"vertex count {n} exceeds graph6 cap {_G6_MAX_N}")
    if n <= 62:
        out = [n + 63]
    else:
        out = [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    a = g.adjacency.tolist()
    bits = 0
    nfill = 0
    for j in range(1, n):
        for i in range(j):
            bits = (bits << 1) | a[i][j]
            nfill += 1
            if nfill == 6:
                out.append(bits + 63)
                bits = 0
                nfill = 0
    if nfill:
        out.append((bits << (6 - nfill)) + 63)
    return "".join(chr(c) for c in out)


# ---------------------------------------------------------------------------
# Named families

def path(n):
    if n < 1:
        raise ValueError("path requires n >= 1")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    if n < 3:
        raise ValueError("cycle requires n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    if n < 1:
        raise ValueError("complete requires n >= 1")
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(leaves):
    """Star K_{1,leaves}; vertex 0 is the center."""
    if leaves < 0:
        raise ValueError("star requires leaves >= 0")
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def hypercube(d):
    """d-cube on 2**d vertices indexed by bitstrings, edges at Hamming distance 1."""
    if d < 0:
        raise ValueError("hypercube requires d >= 0")
    if d > 20:
        raise ValueError(f"hypercube dimension {d} exceeds cap 20")
    n = 1 << d
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)]
    return Graph.from_edges(n, edges)


def petersen():
    """Petersen graph: outer 5-cycle 0-4, inner pentagram 5-9, spokes i-(i+5)."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def cartesian_product(g, h):
    """Cartesian product; vertex (a, x) gets index a*h.n + x."""
    ng, nh = g.n, h.n
    _check_size(ng * nh)
    ag, ah = g.adjacency, h.adjacency
    a = np.kron(ag, np.eye(nh, dtype=np.int8)) + np.kron(np.eye(ng, dtype=np.int8), ah)
    return Graph(a)
