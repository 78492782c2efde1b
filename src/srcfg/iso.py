"""Canonical forms, automorphism groups and duality tests for configurations.

The engine is individualization-refinement on the bipartite incidence graph
(points and lines as separate colour classes), McKay style: equitable
refinement with an invariant trace, target cell = first smallest
non-singleton, automorphisms harvested from leaf collisions with orbit
pruning and backjumps, canonical form = the minimal leaf certificate.

The canonical form of a configuration is the packed point/line incidence
matrix under the canonical labeling, so two configurations are isomorphic
iff their canonical forms are equal as byte strings.  Invariants are hashed
with crc32, never with Python's salted hash(), so runs are reproducible
across processes.

The automorphism group order needs no second algorithm: it is the product,
over the first path's individualized vertices v_0..v_{m-1}, of the orbit size
of v_d under the harvested generators that fix v_0..v_{d-1} (McKay & Piperno,
Practical graph isomorphism II).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache

from .incidence import Configuration, dual, require_valid


@dataclass(frozen=True)
class CanonicalForm:
    v: int
    k: int
    data: bytes

    def hexdigest(self) -> str:
        import hashlib
        return hashlib.sha256(self.data).hexdigest()


# -- the IR search ------------------------------------------------------------------

def _crc(value, seed: int = 0) -> int:
    return zlib.crc32(repr(value).encode(), seed)


def _pinverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


class _Search:
    """One canonical-labeling run over a vertex-coloured graph."""

    def __init__(self, adj: list[int], cells: list[tuple[int, ...]], cert_fn):
        self.n = len(adj)
        self.adj = adj
        self.cert_fn = cert_fn          # discrete cell list -> bytes
        self.gens: list[tuple] = []
        self.first = None               # dict: invs, vertices, cert, order
        self.best = None                # dict: invs, vertices, cert, order
        self.invs: list[int] = []
        self.path: list[int] = []       # individualized vertices
        root, inv = self._refine(cells, [self._mask(c) for c in cells], 0)
        self.invs.append(inv)
        self._run(root, 0)

    @staticmethod
    def _mask(cell) -> int:
        m = 0
        for v in cell:
            m |= 1 << v
        return m

    def _refine(self, cells, splitters, seed):
        """Equitable refinement; returns (cells, invariant crc)."""
        adj = self.adj
        crc = seed
        queue = list(splitters)
        qi = 0
        while qi < len(queue):
            S = queue[qi]
            qi += 1
            out = []
            for pos, cell in enumerate(cells):
                if len(cell) == 1:
                    out.append(cell)
                    continue
                buckets: dict[int, list[int]] = {}
                for v in cell:
                    buckets.setdefault((adj[v] & S).bit_count(), []).append(v)
                if len(buckets) == 1:
                    out.append(cell)
                    continue
                frags = [tuple(buckets[c]) for c in sorted(buckets)]
                out.extend(frags)
                for f in frags:
                    queue.append(self._mask(f))
                crc = _crc((pos, tuple(sorted((c, len(b)) for c, b in buckets.items()))), crc)
            cells = out
        # quotient signature of the stable partition
        masks = [self._mask(c) for c in cells]
        sig = tuple((len(cell), tuple((adj[cell[0]] & m).bit_count() for m in masks))
                    for cell in cells)
        crc = _crc(sig, crc)
        return cells, crc

    def _target(self, cells):
        best = None
        for i, cell in enumerate(cells):
            if len(cell) > 1 and (best is None or len(cell) < len(cells[best])):
                best = i
        return best

    def _stab_orbits(self, fixed) -> list[int]:
        """Union-find orbit ids under the generators fixing `fixed` pointwise."""
        parent = list(range(self.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for g in self.gens:
            if all(g[p] == p for p in fixed):
                for x in range(self.n):
                    a, b = find(x), find(g[x])
                    if a != b:
                        parent[a] = b
        return [find(x) for x in range(self.n)]

    def order(self) -> int:
        """|Aut| as the product of the first-path orbit sizes, as in nauty.

        For the first path v_0..v_{m-1}, the harvested generators fixing
        v_0..v_{d-1} move v_d over its whole orbit in that stabilizer, so they
        are a strong generating set for this base and the product is exact.
        This rests on one condition of _run: a child of a first-path node that
        is equivalent to the first path is never pruned, except by orbit
        pruning.
        """
        base = self.first["vertices"]
        size = 1
        for d, v in enumerate(base):
            orbits = self._stab_orbits(base[:d])
            size *= orbits.count(orbits[v])
        return size

    def _handle_leaf(self, cells):
        order = [c[0] for c in cells]
        cert = self.cert_fn(order)
        invs = tuple(self.invs)
        leaf = {"invs": invs, "vertices": tuple(self.path), "cert": cert, "order": order}
        if self.first is None:
            self.first = leaf
            if self.best is None or (invs, cert) < (self.best["invs"], self.best["cert"]):
                self.best = leaf
            return None
        for ref in (self.first, self.best):
            if ref is not None and invs == ref["invs"] and cert == ref["cert"]:
                if ref["order"] != order:
                    lab_ref = _pinverse(tuple(ref["order"]))
                    # map ref's vertex at position i to ours at position i
                    g = tuple(order[lab_ref[x]] for x in range(self.n))
                    if g != tuple(range(self.n)):
                        self.gens.append(g)
                common = 0
                while (common < len(self.path) and common < len(ref["vertices"])
                       and self.path[common] == ref["vertices"][common]):
                    common += 1
                return common
        if self.best is None or (invs, cert) < (self.best["invs"], self.best["cert"]):
            self.best = leaf
        return None

    def _run(self, cells, depth):
        if all(len(c) == 1 for c in cells):
            return self._handle_leaf(cells)
        t = self._target(cells)
        target_cell = sorted(cells[t])
        done: list[int] = []
        orbits = None
        for v in target_cell:
            if done:
                if orbits is None:
                    orbits = self._stab_orbits(self.path)
                if any(orbits[v] == orbits[u] for u in done):
                    continue
            rest = tuple(u for u in cells[t] if u != v)
            child = cells[:t] + [(v,), rest] + cells[t + 1:]
            refined, inv = self._refine(child, [1 << v], self.invs[-1])
            # compare against the reference paths at this depth
            eq_first = (self.first is None
                        or (len(self.first["invs"]) > depth + 1
                            and self.first["invs"][depth + 1] == inv
                            and tuple(self.invs) == self.first["invs"][:depth + 1]))
            worse_than_best = False
            if self.best is not None:
                binvs = self.best["invs"]
                if tuple(self.invs) == binvs[:depth + 1] and len(binvs) > depth + 1:
                    worse_than_best = inv > binvs[depth + 1]
            if worse_than_best and not eq_first:  # order() needs `not eq_first`
                done.append(v)
                orbits = None
                continue
            self.invs.append(inv)
            self.path.append(v)
            jump = self._run(refined, depth + 1)
            self.invs.pop()
            self.path.pop()
            done.append(v)
            orbits = None
            if jump is not None:
                if jump < depth:
                    return jump
                # jump == depth: resume siblings here with the fresh generator
        return None


def _levi_parts(c: Configuration):
    n = 2 * c.v
    adj = [0] * n
    for j, line in enumerate(c.lines):
        for p in line:
            adj[p] |= 1 << (c.v + j)
            adj[c.v + j] |= 1 << p
    return adj


def _pack_cert(c: Configuration, order) -> bytes:
    v = c.v
    rowbytes = (v + 7) // 8
    lab = [0] * (2 * v)
    for pos, u in enumerate(order):
        lab[u] = pos
    buf = bytearray(v * rowbytes)
    for j, line in enumerate(c.lines):
        col = lab[v + j] - v
        for p in line:
            row = lab[p]
            buf[row * rowbytes + (col >> 3)] |= 0x80 >> (col & 7)
    return bytes(buf)


@lru_cache(maxsize=128)
def _canonicalize(c: Configuration):
    require_valid(c)
    adj = _levi_parts(c)
    cells = [tuple(range(c.v)), tuple(range(c.v, 2 * c.v))]
    search = _Search(adj, cells, lambda order: _pack_cert(c, order))
    return CanonicalForm(c.v, c.k, search.best["cert"]), tuple(search.gens), search.order()


def canonical_form(c: Configuration) -> CanonicalForm:
    """Canonical incidence matrix; equal byte strings <=> isomorphic."""
    return _canonicalize(c)[0]


def automorphism_generators(c: Configuration) -> list[tuple[int, ...]]:
    """Generators of Aut(c) as permutations of 0..2v-1 (points then lines)."""
    return list(_canonicalize(c)[1])


def aut_order(c: Configuration) -> int:
    """Order of the automorphism group (point/line colour preserving)."""
    return _canonicalize(c)[2]


def are_isomorphic(a: Configuration, b: Configuration) -> bool:
    require_valid(a)
    require_valid(b)
    return (a.v, a.k) == (b.v, b.k) and canonical_form(a) == canonical_form(b)


def is_self_dual(c: Configuration) -> bool:
    """True iff c is isomorphic to its dual."""
    return canonical_form(c) == canonical_form(dual(c))
