"""Simple undirected graphs: construction, graph6 codec, named families."""

from __future__ import annotations

import json
import re

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
        a = np.asarray(adjacency)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        _check_size(a.shape[0])
        _check_stack(a[None])  # on the values given: 256 or 0.5 must not cast to 0
        a = a.astype(np.int8)  # a copy: the caller's array stays theirs
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


def _check_stack(a):
    """Graph's structural checks of every matrix of the (m, n, n) stack ``a``,
    on its values as given, all at once."""
    if not np.array_equal(a, a.swapaxes(1, 2)):
        raise ValueError("adjacency must be symmetric")
    if np.diagonal(a, axis1=1, axis2=2).any():
        raise ValueError("adjacency must have zero diagonal")
    if not ((a == 0) | (a == 1)).all():
        raise ValueError("adjacency entries must be 0 or 1")


# ---------------------------------------------------------------------------
# graph6 codec (6-bit groups, offset 63, upper-triangle column-major bits),
# stacked: one unpackbits, one scatter and one packbits per vertex count

_G6_OUTSIDE = re.compile("[^?-~]")  # the graph6 alphabet is chr(63) .. chr(126)


def graph6_body(text):
    """A graph6 string less its optional '>>graph6<<' header, stripped."""
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    return text.strip()


def graph6_size(body):
    """(n, length of the size prefix) of the non-empty graph6 ``body``: one
    byte, chr(63 + n), or '~' and three bytes of n's 18 bits."""
    if body[0] != "~":
        return ord(body[0]) - 63, 1
    if body[1:2] == "~":
        raise Graph6Error("8-byte length encoding (n > 258047) not supported", offset=1)
    if len(body) < 4:
        raise Graph6Error("truncated multi-byte length prefix", offset=len(body))
    return (ord(body[1]) - 63) << 12 | (ord(body[2]) - 63) << 6 | ord(body[3]) - 63, 4


def _graph6_line(text):
    """(n, bit-vector bytes) of one graph6 string after its header, alphabet
    and length checks; Graph6Error at the offending byte otherwise."""
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    text = graph6_body(text)
    if not text:
        raise Graph6Error("empty graph6 input", offset=0)
    bad = _G6_OUTSIDE.search(text)
    if bad:
        raise Graph6Error(f"character {bad.group()!r} outside graph6 alphabet",
                          offset=bad.start())
    n, start = graph6_size(text)
    if n > _G6_MAX_N:
        raise Graph6Error(f"vertex count {n} exceeds graph6 cap {_G6_MAX_N}", offset=0)
    nbytes = (n * (n - 1) // 2 + 5) // 6
    if len(text) - start < nbytes:
        raise Graph6Error(
            f"truncated bit vector: need {nbytes} bytes, got {len(text) - start}",
            offset=len(text),
        )
    if len(text) - start > nbytes:
        raise Graph6Error("trailing data after bit vector", offset=start + nbytes)
    return n, text[start:].encode("ascii")


def _graph6_order(n):
    """The n x n mask of the entries (j, i), j > i: row-major, they run in
    graph6 bit order (column j of the upper triangle, then row i)."""
    r = np.arange(n)
    return r[:, None] > r


def _encode(n, bits):
    """The canonical graph6 of each row of ``bits`` (m, n(n-1)/2), the upper
    triangle of a graph on n vertices in graph6 order, padding bits zero."""
    m, nbits = bits.shape
    width = (nbits + 5) // 6
    six = np.zeros((m, width * 6), dtype=np.uint8)
    six[:, :nbits] = bits
    body = (np.packbits(six.reshape(m, width, 6), axis=2)[:, :, 0] >> 2) + 63
    text = body.tobytes().decode("ascii")
    prefix = chr(n + 63) if n <= 62 else "~" + "".join(
        chr((n >> shift & 63) + 63) for shift in (12, 6, 0))
    return [prefix + text[k * width:(k + 1) * width] for k in range(m)]


def parse_graph6_stack(texts):
    """Decode graph6 strings (str or bytes, each optionally prefixed with
    '>>graph6<<'): per text, (Graph, its canonical graph6) or the
    Graph6Error of that text alone.  The texts are grouped by vertex count
    n; each group takes one unpackbits of its bit vectors, one scatter into
    an (m, n, n) stack, one run of Graph's checks and one packbits of the
    bits, padding bits ignored."""
    out, groups = [None] * len(texts), {}
    for k, text in enumerate(texts):
        try:
            n, body = _graph6_line(text)
        except Graph6Error as exc:
            out[k] = exc
        else:
            groups.setdefault(n, []).append((k, body))
    for n, group in groups.items():
        m, lower = len(group), _graph6_order(n)
        nbits = n * (n - 1) // 2
        codes = np.frombuffer(b"".join(body for _, body in group), dtype=np.uint8)
        codes = codes.reshape(m, (nbits + 5) // 6) - 63
        bits = np.unpackbits(codes[:, :, None], axis=2)[:, :, 2:].reshape(m, -1)[:, :nbits]
        stack = np.zeros((m, n, n), dtype=np.int8)
        stack[:, lower] = bits
        stack = stack | stack.swapaxes(1, 2)
        _check_stack(stack)
        stack.setflags(write=False)  # each graph holds a read-only slice, uncopied
        for (k, _), a, gid in zip(group, stack, _encode(n, bits)):
            g = Graph.__new__(Graph)
            g._adj = a
            out[k] = g, gid
    return out


def parse_graph6(text):
    """Decode one graph6 string, optionally prefixed with '>>graph6<<': a
    stack of one of ``parse_graph6_stack``, raising its Graph6Error."""
    got = parse_graph6_stack([text])[0]
    if isinstance(got, Graph6Error):
        raise got
    return got[0]


def encode_graph6(g):
    """Canonical graph6 encoding of ``g`` (no header), by the packbits that
    gives ``parse_graph6_stack`` its ids."""
    n = g.n
    if n > _G6_MAX_N:
        raise ValueError(f"vertex count {n} exceeds graph6 cap {_G6_MAX_N}")
    return _encode(n, g.adjacency[_graph6_order(n)][None])[0]


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
