"""Simple graphs with bitmask adjacency, SRG checking, generators, graph6 io.

Adjacency rows are Python ints used as bitsets, so common-neighbour counts
are single popcounts.  unpack_rows and pack_rows convert between the rows
and a 0/1 matrix, so that graph6, relabelling and the matrix-shaped
generators are numpy array expressions.  srg_check takes that matrix as
float32 and tests the defining identity A^2 = (lam - mu)A + mu J + (d - mu)I
with BLAS products, exactly; the largest graphs the library checks are the
1210-vertex point and line graphs of lp4(3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, count
from operator import add

import numpy as np

from .algebra import FiniteField, build_spec, read_file


class MalformedGraph6(ValueError):
    pass


@dataclass(frozen=True, order=True)
class SrgParams:
    v: int
    d: int
    lam: int
    mu: int

    def astuple(self) -> tuple[int, int, int, int]:
        return (self.v, self.d, self.lam, self.mu)

    def __str__(self):
        return f"srg({self.v},{self.d},{self.lam},{self.mu})"


class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, edges=None, rows=None):
        self.n = n
        if rows is not None:
            self.rows = tuple(rows)
        else:
            adj = [0] * n
            for u, v in edges or []:
                if u == v:
                    raise ValueError(f"loop at {u}")
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge ({u},{v}) out of range")
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            self.rows = tuple(adj)

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def neighbors(self, u: int) -> list[int]:
        return set_bits(self.rows[u])

    def common_count(self, u: int, v: int) -> int:
        return (self.rows[u] & self.rows[v]).bit_count()

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            m = self.rows[u] >> (u + 1) << (u + 1)
            for v in set_bits(m):
                out.append((u, v))
        return out

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph(self.n, rows=[(full & ~r) & ~(1 << u) for u, r in enumerate(self.rows)])

    def relabel(self, perm: list[int]) -> "Graph":
        """Graph with vertex u renamed perm[u]."""
        a = np.zeros((self.n, self.n), np.uint8)
        a[np.ix_(perm, perm)] = unpack_rows(self.rows, self.n)
        return Graph(self.n, rows=pack_rows(a))

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"


_NONZERO = bytes.maketrans(bytes(range(256)), b"0" + b"1" * 255)
_BITS = [[]]                        # _BITS[b]: the set bits of the byte b, ascending
for _high in range(8):              # by doubling, five times cheaper at import
    _BITS += [bits + [_high] for bits in _BITS]


def set_bits(mask: int) -> list[int]:
    """The set bits of `mask`, ascending: the set bits of each nonzero byte
    i of its little-endian bytes, found as the ends of the runs of 0s in
    the bytes mapped to 0 (zero) and 1 (nonzero), plus 8i."""
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    gaps = data.translate(_NONZERO).split(b"1")
    gaps.pop()
    return [8 * i + j for i in map(add, accumulate(map(len, gaps)), count())
            for j in _BITS[data[i]]]


def unpack_rows(rows, n: int) -> np.ndarray:
    """0/1 uint8 matrix whose row i holds the bits of rows[i] in columns 0..n-1."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in rows),
                           dtype=np.uint8).reshape(len(rows), width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


def pack_rows(a: np.ndarray) -> list[int]:
    """The inverse of unpack_rows: the nonzero columns of each row of a as
    the set bits of an int."""
    packed = np.packbits(a, axis=1, bitorder="little")
    return [int.from_bytes(r, "little") for r in packed]


def bit_matrix(rows, n: int) -> np.ndarray:
    """unpack_rows as float32, for exact BLAS products."""
    return unpack_rows(rows, n).astype(np.float32)


_BLOCK = 256    # rows of A^2 formed per product in srg_check


@lru_cache(maxsize=128)
def srg_check(g: Graph) -> SrgParams | None:
    """Parameters (v, d, lam, mu) if g is strongly regular, else None.

    Complete and empty graphs are rejected (no mu, resp. no lam); so are
    graphs on fewer than 2 vertices and asymmetric rows, which
    Graph(rows=...) lets in.  lam and mu are read at vertex 0, from its
    first neighbour and its first non-neighbour; g is strongly regular with
    them iff A^2 = (lam - mu)A + mu J + (d - mu)I.  For symmetric A both
    sides are symmetric, so row block [s, s + b) is checked from column s
    on.  The float32 products are exact: every entry and partial sum is an
    integer of at most n, and float32 holds every integer up to 2^24, far
    beyond any n whose n x n matrix fits in memory.  Cached per value.
    """
    n = g.n
    if n < 2:
        return None
    d = g.degree(0)
    if any(g.degree(u) != d for u in range(1, n)):
        return None
    if d == 0 or d == n - 1:
        return None
    a = bit_matrix(g.rows, n)
    if not np.array_equal(a, a.T):
        return None
    row0 = g.rows[0]
    others = ((1 << n) - 2) & ~row0
    lam = g.common_count(0, (row0 & -row0).bit_length() - 1)
    mu = g.common_count(0, (others & -others).bit_length() - 1)
    for s in range(0, n, _BLOCK):
        blk = a[s:s + _BLOCK]
        want = (lam - mu) * blk[:, s:] + mu
        want[np.arange(len(blk)), np.arange(len(blk))] += d - mu
        if not np.array_equal(blk @ a[s:].T, want):   # A[:, s:] = A[s:]^T
            return None
    return SrgParams(n, d, lam, mu)


@lru_cache(maxsize=1)   # find_configurations asks again for its callers' cliques
def k_cliques(g: Graph, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-cliques, each an ascending tuple; output is in lexicographic order."""
    if k < 1:
        return ()
    if k == 1:
        return tuple((v,) for v in range(g.n))
    out = []
    rows = g.rows

    def extend(prefix: tuple[int, ...], cand: int, need: int):
        # need >= 2 more vertices come from cand, need - 1 of them above v
        size = cand.bit_count()
        while size >= need:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            size -= 1
            # only candidates above v keep the enumeration lexicographic
            sub = cand & rows[v]
            if need == 2:
                clique = prefix + (v,)
                while sub:
                    low = sub & -sub
                    sub ^= low
                    out.append(clique + (low.bit_length() - 1,))
            elif sub.bit_count() >= need - 1:
                extend(prefix + (v,), sub, need - 1)

    extend((), (1 << g.n) - 1, k)
    # extend reaches itself through its closure; breaking that cycle frees
    # it now instead of at the next cyclic garbage collection
    del extend
    return tuple(out)


# -- generators ----------------------------------------------------------------

def petersen() -> Graph:
    """Kneser graph K(5,2): 2-subsets of a 5-set, adjacent iff disjoint."""
    verts = list(itertools.combinations(range(5), 2))
    edges = [(i, j) for i, j in itertools.combinations(range(len(verts)), 2)
             if not set(verts[i]) & set(verts[j])]
    return Graph(10, edges)


def paley(q: int) -> Graph:
    """Paley graph on GF(q), q = 1 mod 4: x ~ y iff x - y is a nonzero square."""
    if q % 4 != 1:
        raise ValueError("paley(q) needs q = 1 mod 4")
    field = FiniteField(q)
    sq = field.squares()
    edges = [(a, b) for a in range(q) for b in range(a + 1, q)
             if field.sub(a, b) in sq]
    return Graph(q, edges)


def _equal(labels) -> np.ndarray:
    """The matrix of label equalities: entry (i, j) is labels[i] == labels[j]."""
    labels = np.asarray(labels)
    return labels[:, None] == labels


def rook(n: int) -> Graph:
    """n x n rook's graph: cells (r,c), adjacent iff same row or column."""
    if n < 1:
        raise ValueError(f"rook needs n >= 1, got {n}")
    r, c = np.divmod(np.arange(n * n), n)
    return Graph(n * n, rows=pack_rows(_equal(r) != _equal(c)))


def latin_square_graph(square) -> Graph:
    """Graph on the n^2 cells of a Latin square: adjacent iff same row,
    same column or same symbol.  Cell (r,c) gets index r*n + c."""
    n = len(square)
    symbols = sorted(square[0])
    for row in square:
        if sorted(row) != symbols:
            raise ValueError("not a Latin square: bad row")
    for c in range(n):
        if sorted(row[c] for row in square) != symbols:
            raise ValueError("not a Latin square: bad column")
    r, c = np.divmod(np.arange(n * n), n)
    a = _equal(r) | _equal(c) | _equal(np.ravel(square))
    np.fill_diagonal(a, False)
    return Graph(n * n, rows=pack_rows(a))


def _latin_square_cyclic(n: int) -> Graph:
    """The Latin-square graph of the addition table of Z_n."""
    if n < 1:
        raise ValueError(f"latin_square_cyclic needs n >= 1, got {n}")
    return latin_square_graph([[(i + j) % n for j in range(n)] for i in range(n)])


def shrikhande() -> Graph:
    """The Shrikhande graph: complement of the Latin-square graph of Z_4.

    srg(16,6,2,2), not isomorphic to rook(4).
    """
    return _latin_square_cyclic(4).complement()


def hoffman_singleton() -> Graph:
    """The Hoffman-Singleton graph, srg(50,7,0,1).

    Robertson's pentagon/pentagram model: pentagons P_0..P_4 (i,j ~ i,j+-1),
    pentagrams Q_0..Q_4 (i,j ~ i,j+-2), and P_i,j ~ Q_k,l iff l = i*k + j
    mod 5.
    """
    def P(i, j):
        return 5 * i + j

    def Q(k, l):
        return 25 + 5 * k + l

    edges = []
    for i in range(5):
        for j in range(5):
            edges.append((P(i, j), P(i, (j + 1) % 5)))
            edges.append((Q(i, j), Q(i, (j + 2) % 5)))
    for i in range(5):
        for j in range(5):
            for k in range(5):
                edges.append((P(i, j), Q(k, (i * k + j) % 5)))
    return Graph(50, set(tuple(sorted(e)) for e in edges))


# -- graph6 --------------------------------------------------------------------

def to_graph6(g: Graph) -> str:
    n = g.n
    if n > 258047:
        raise MalformedGraph6("graph too large for this graph6 writer")
    if n <= 62:
        head = chr(n + 63)
    else:
        head = chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    # the upper triangle column by column: the lower triangle of the
    # transpose row by row
    bits = unpack_rows(g.rows, n).T[np.tril_indices(n, -1)]
    bits = np.append(bits, np.zeros(-len(bits) % 6, np.uint8)).reshape(-1, 6)
    return head + ((np.packbits(bits, axis=1)[:, 0] >> 2) + 63).tobytes().decode()


def from_graph6(s: str) -> Graph:
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    if not s:
        raise MalformedGraph6("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(x < 0 or x > 63 for x in data):
        raise MalformedGraph6("character out of graph6 range")
    if data[0] < 63:
        n = data[0]
        body = data[1:]
    else:
        if len(data) < 4:
            raise MalformedGraph6("truncated size field")
        if data[1] == 63:
            raise MalformedGraph6("graph too large for this graph6 reader")
        n = data[1] << 12 | data[2] << 6 | data[3]
        body = data[4:]
    m = n * (n - 1) // 2
    need = (m + 5) // 6
    if len(body) != need:
        raise MalformedGraph6(f"expected {need} data characters, got {len(body)}")
    bits = np.unpackbits(np.array(body, np.uint8)[:, None], axis=1)[:, 2:].ravel()
    if bits[m:].any():
        raise MalformedGraph6("nonzero padding bits")
    a = np.zeros((n, n), np.uint8)
    a.T[np.tril_indices(n, -1)] = bits[:m]
    return Graph(n, rows=pack_rows(a | a.T))


def read_graph6_file(path) -> list[Graph]:
    """Read a file with one graph6 string per line."""
    return read_file(path, lambda lines, _text: [from_graph6(s) for s in lines])


# -- string specs ----------------------------------------------------------------

def _graph6_line(arg: str) -> Graph:
    """Graph i of a graph6 file, for arg `path:i`; graph 0 for a bare path."""
    path, i = arg, "0"
    if ":" in arg:
        path, _, i = arg.rpartition(":")
    if not i.isdigit():
        raise ValueError(f"bad graph spec 'graph6({arg})': index {i!r} is "
                         f"not an integer")
    found = read_graph6_file(path)
    if int(i) >= len(found):
        raise ValueError(f"graph6 index {i} out of range: {path} has "
                         f"{len(found)} graphs")
    return found[int(i)]


_GRAPH_SPECS = {
    "petersen": ("", petersen),
    "hoffman_singleton": ("", hoffman_singleton),
    "shrikhande": ("", shrikhande),
    "paley": ("i", paley),
    "rook": ("i", rook),
    "latin_square_cyclic": ("i", _latin_square_cyclic),
    "complement": ("s", lambda spec: make_graph(spec).complement()),
    "graph6": ("p", _graph6_line),
}


def make_graph(spec: str) -> Graph:
    """Build a graph from a spec string: petersen, hoffman_singleton,
    shrikhande, paley(q), rook(n), latin_square_cyclic(n) (the Latin-square
    graph of Z_n), complement(spec), or graph6(path) / graph6(path:i) for
    graph i of a graph6 file (see algebra.build_spec)."""
    return build_spec(spec, "graph", _GRAPH_SPECS)
