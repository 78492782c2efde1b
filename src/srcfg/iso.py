"""Canonical forms, automorphisms, isomorphism and self-duality of configurations.

The engine is individualization-refinement on the bipartite incidence graph
(points and lines as separate colour classes), McKay style: equitable
refinement with an invariant trace, target cell = first largest
non-singleton (bliss's "fl" rule; Traces also targets large cells),
automorphisms harvested from leaf collisions with orbit pruning and
backjumps, canonical form = the minimal leaf certificate.  On the
configurations measured, the first largest cell gives trees of well under
half the refinements of the first smallest (lp4(3): 27 against 142).

The vertices of a cell mask are listed by graphs.set_bits, and orbits are
kept in algebra._Orbits, the union-find that the group layer uses too.

Refinement is splitter-driven, as in nauty and bliss (McKay & Piperno;
Junttila & Kaski, ALENEX 2007).  Each cell of the ordered partition is
named by its start position and held as an int bitmask of its vertices, or
as its one vertex once it is a singleton, beside the start of each vertex's
cell; a split moves no vertex, it cuts the touched fragments' masks out of
the cell.  A splitter cell counts only the neighbours of its vertices and
splits only the cells they fall in; of the fragments of a split cell, all
but the first largest become splitters (Hopcroft).  The invariant of a
refinement is the trace of its splits: cell start and the (count, size) of
each fragment.  Most splitters in a search are unit cells, and a unit cell
has its own case, as in bliss and nauty: each of its neighbours counts 1,
so a cell it touches splits at most once, into its untouched vertices
(count 0) and the touched ones (count 1), and not at all when every vertex
is touched.  Of the two fragments, the touched one is queued if the cell
was still queued or is no larger than the untouched one, and the cell's
start otherwise.  That is the general rule applied to those counts, so the
trace, the partition and the queue are the ones the general case gives.

A leaf's certificate is a CanonicalForm: v, k and the point/line incidence
matrix packed under the leaf's labelling.  Invariants are hashed with
crc32, never with Python's salted hash(), so runs are reproducible across
processes.

The automorphism group order needs no second algorithm: it is the product,
over the first path's individualized vertices v_0..v_{m-1}, of the orbit size
of v_d under the harvested generators that fix v_0..v_{d-1} (McKay & Piperno,
Practical graph isomorphism II).

Isomorphism, self-duality and isomorph reduction all run the canonical
search with a stop set of canonical forms.  The search tree T(G) of a graph
G with ordered cells depends on G only up to relabelling: target cells are
chosen from cell positions and sizes alone, and refinement and its
invariant trace commute with relabelling.  Neither the argument below nor
that of order() depends on which cell is targeted, only on this invariance.
So an isomorphism of coloured graphs G -> H maps T(G) onto T(H), and a leaf
and its image have equal invariant tuples and equal certificates.  The best
leaf is the least by (invariants, certificate); the invariants come first
only so that they can prune, as in nauty.  Its certificate is the canonical
form, so isomorphic configurations have equal forms, and a certificate is
c's incidence matrix under its leaf's labelling, so configurations with
equal forms are isomorphic.  An isomorphism class is named by its form.

Lemma.  If a visited leaf nu of T(c) has the certificate of the best leaf
mu of T(d), then nu has mu's invariant tuple.

* Two leaves of one search tree never share a labelling.  Where their paths
  part, each puts a different vertex at the front of the same target cell,
  and a singleton cell never moves again.
* The labellings l_nu of c and l_mu of d give one incidence matrix, so
  phi = l_mu^-1 o l_nu is an isomorphism from c to d.  It maps nu to a leaf
  of T(d) that has mu's labelling, and that leaf is mu itself, so the
  invariant tuples of nu and mu are equal.

So the certificate alone decides where a search stops: `_Search` given
`stop` ends at the first leaf whose certificate is in `stop`, the leaf
whose (invariants, certificate) pair is a known best leaf's.

* Sound.  A leaf of c with d's form shows that c is isomorphic to d, so
  d's form is c's.
* Complete.  The lookups change nothing else, so until it stops the search
  walks c's canonical search, which visits its best leaf.  If c is
  isomorphic to d, that leaf's certificate is d's form, so the search stops
  there at the latest.

`canonical_form(c, known)` stops at the forms of the classes found so far;
a search that meets none is c's whole canonical search, stored as such.
Either way it returns c's form.  `are_isomorphic(a, b)` runs b's search with
a's form as its stop set.  `is_self_dual(c)` runs the search of dual(c) with
c's form as its stop set, so by the two points above it stops iff c is
isomorphic to dual(c); the lemma holds for that search with dual(c) for c.
It is seeded with Aut(c)'s generators carried to dual(c)'s numbering, where
c's vertex x is dual(c)'s vertex (x + v) mod 2v.  These keep both cells and
every incidence of dual(c)'s Levi graph, so orbit pruning by them, as by
the generators the search harvests, drops only subtrees that are images of
subtrees already searched, and the search still visits a leaf equal to its
best.

One store keeps c -> (form, generators, |Aut|) for the 128 configurations
whose whole unseeded searches ran last, and every entry point reads it
before it searches: a stored form is c's form, and the form of a stop set
that c's search would meet.  So no configuration whose whole search is
stored is searched again, and is_self_dual(c) compares c's form with a
stored form of dual(c).  Only whole unseeded searches are stored, so
canonical forms, generators and |Aut| never come from a search that stopped
early or was seeded.

Nothing here uses connectivity: a disconnected Levi graph, such as that of
two disjoint Fano planes, needs no special case.
"""

from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import chain

from .algebra import _Orbits
from .graphs import set_bits
from .incidence import Configuration, dual, require_valid


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """A leaf's certificate; at c's best leaf, c's canonical form, which
    names c's isomorphism class.  Ordered by (v, k, data)."""
    v: int
    k: int
    data: bytes


# -- the IR search ------------------------------------------------------------------

class _Search:
    """One canonical-labeling run over a vertex-coloured graph, seeded with
    the automorphisms `gens` and ended by the first leaf whose certificate
    is in `stop`.

    A partition is three lists (cell, start_of, size): the cell at each
    start, the start of each vertex's cell, and the size of the cell at each
    start.  cell[s] is an int bitmask of the cell's vertices, or the vertex
    itself once the cell is a singleton, so a discrete partition holds no
    masks.  A cell is named by its start, which does not depend on the
    labelling, and in a discrete partition start_of is each vertex's
    position.
    """

    def __init__(self, nbrs: list[list[int]], cells: list[tuple[int, ...]], cert_fn,
                 stop=(), gens=()):
        self.n = len(nbrs)
        self.nbrs = nbrs
        self.cert_fn = cert_fn          # vertex positions of a leaf -> CanonicalForm
        self.stop = stop                # the certificates that end the search
        self.found = None               # the certificate of self.stop that ended it
        self.gens: list[tuple] = list(gens)
        self.first = None               # dict: invs, vertices, cert, pos
        self.best = None                # dict: invs, vertices, cert, pos
        self.invs: list[int] = []
        self.path: list[int] = []       # individualized vertices
        self.vertices = [v for vs in cells for v in vs]     # gens share these ints
        cell = [0] * self.n
        start_of = [0] * self.n
        size = [0] * self.n
        starts = []
        s = 0
        for vs in filter(None, cells):      # a cell is empty only when v = 0
            starts.append(s)
            size[s] = len(vs)
            cell[s] = sum(1 << v for v in vs) if len(vs) > 1 else vs[0]
            for v in vs:
                start_of[v] = s
            s += len(vs)
        root = (cell, start_of, size)
        self.invs.append(self._refine(root, starts, 0))
        self._run(root, 0)

    def _refine(self, part, queue, seed):
        """Refine `part` in place until it is equitable; returns the invariant.

        `queue` holds the starts of the cells to split by.  The partition
        must already be equitable relative to every other cell, or to its
        union with queued cells.  A splitter counts only the neighbours of
        its vertices, and only the cells those neighbours fall in are split,
        into fragments ordered by count: the untouched vertices (count 0)
        keep the cell's start, and each touched fragment's mask is cut out
        of the cell's.  Every fragment but the first largest is queued, or
        every fragment if the split cell was itself still queued.  The
        invariant is crc32(repr(trace), seed) of the trace of splits,
        (cell start, ((count, size) of each fragment)): each entry is
        written as its repr, and crc32 runs once on the joined list.
        Splitters left in the queue once the partition is discrete split
        nothing, so they are not taken.

        A unit-cell splitter needs no counts: every neighbour counts 1, so
        a touched cell with a vertices untouched and m touched splits into
        (0, a) and (1, m) if a > 0.  The rule above then queues the touched
        fragment if the cell is still queued or m <= a, and the cell's start
        otherwise.  The trace entry, partition and queue are the general
        case's.
        """
        cell, start_of, size = part
        nbrs = self.nbrs
        n = self.n
        cells = 0                       # the number of cells; n when discrete
        s = 0
        while s < n:
            cells += 1
            s += size[s]
        queued = set(queue)
        trace = []
        counts = Counter()              # cleared for each larger splitter
        qi = 0
        while qi < len(queue) and cells < n:
            s = queue[qi]
            qi += 1
            queued.discard(s)
            touched = {}
            if size[s] == 1:
                # a unit cell: every neighbour counts 1
                for w in nbrs[cell[s]]:
                    cs = start_of[w]
                    if size[cs] > 1:
                        if cs in touched:
                            touched[cs].append(w)
                        else:
                            touched[cs] = [w]
                for cs in sorted(touched):
                    ws = touched[cs]
                    m = len(ws)
                    a = size[cs] - m
                    if a == 0:
                        continue
                    first = cs + a
                    mask = 0
                    for w in ws:
                        mask |= 1 << w
                        start_of[w] = first
                    rest = cell[cs] ^ mask
                    cell[cs] = rest if a > 1 else rest.bit_length() - 1
                    cell[first] = mask if m > 1 else ws[0]
                    size[cs] = a
                    size[first] = m
                    trace.append(f"({cs}, ((0, {a}), (1, {m})))")
                    cells += 1
                    new = first if cs in queued or m <= a else cs
                    queue.append(new)
                    queued.add(new)
                continue
            counts.clear()
            counts.update(chain.from_iterable(map(nbrs.__getitem__, set_bits(cell[s]))))
            for w, k in counts.items():     # touched cell start -> count -> vertices
                cs = start_of[w]
                if size[cs] > 1:
                    by_count = touched.get(cs)
                    if by_count is None:
                        touched[cs] = {k: [w]}
                    elif k in by_count:
                        by_count[k].append(w)
                    else:
                        by_count[k] = [w]
            for cs, by_count in sorted(touched.items()):
                if len(by_count) == 1 and len(*by_count.values()) == size[cs]:
                    continue                # every vertex touched, all counts equal
                a = size[cs] - sum(map(len, by_count.values()))
                starts, frags = ([cs], [f"(0, {a})"]) if a else ([], [])
                big, most = 0, a            # the first largest fragment and its size
                rest = cell[cs]
                p = cs + a
                for k in sorted(by_count):
                    ws = by_count[k]
                    m = len(ws)
                    mask = 0
                    for w in ws:
                        mask |= 1 << w
                        start_of[w] = p
                    rest ^= mask
                    cell[p] = mask if m > 1 else ws[0]
                    size[p] = m
                    if m > most:
                        big, most = len(starts), m
                    starts.append(p)
                    frags.append(f"({k}, {m})")
                    p += m
                if a:
                    size[cs] = a
                    cell[cs] = rest if a > 1 else rest.bit_length() - 1
                trace.append(f"({cs}, ({', '.join(frags)}))")
                cells += len(frags) - 1
                new = starts[1:] if cs in queued else starts[:big] + starts[big + 1:]
                queue.extend(new)
                queued.update(new)
        return zlib.crc32(f"[{', '.join(trace)}]".encode(), seed)

    def _target(self, size):
        """Start of the first largest non-singleton cell, None if discrete.

        The choice reads only cell positions and sizes, which commute with
        relabelling, so T(G) still depends on G only up to relabelling
        (see the module docstring)."""
        best = None
        s = 0
        while s < self.n:
            if size[s] > 1 and (best is None or size[s] > size[best]):
                best = s
            s += size[s]
        return best

    @staticmethod
    def _individualize(part, t, v):
        """A copy of `part` with v split off to the front of the cell at t."""
        cell, start_of, size = part = tuple(x[:] for x in part)
        rest = cell[t] ^ (1 << v)
        cell[t] = v
        size[t + 1] = size[t] - 1
        size[t] = 1
        for u in set_bits(rest):
            start_of[u] = t + 1
        cell[t + 1] = rest if size[t + 1] > 1 else rest.bit_length() - 1
        return part

    def order(self) -> int:
        """|Aut| as the product of the first-path orbit sizes, as in nauty.

        For the first path v_0..v_{m-1}, the harvested generators fixing
        v_0..v_{d-1} move v_d over its whole orbit in that stabilizer, so they
        are a strong generating set for this base and the product is exact.
        This rests on one condition of _run: a child of a first-path node that
        is equivalent to the first path is never pruned, except by orbit
        pruning.  A deeper stabilizer has a subset of the generators, so one
        union-find serves every depth: walking up from the last base point,
        each generator is folded in at the deepest d with base[:d] fixed.
        """
        base = self.first["vertices"]
        by_depth = [[] for _ in base]
        for g in self.gens:
            d = 0
            while d < len(base) - 1 and g[base[d]] == base[d]:
                d += 1
            by_depth[d].append(g)   # the deepest d with g fixing base[:d]
        orbits = _Orbits(self.n)
        size = 1
        for d in range(len(base) - 1, -1, -1):
            for g in by_depth[d]:
                orbits.fold(g)
            size *= orbits.size_of(base[d])
        return size

    def _handle_leaf(self, pos):
        cert = self.cert_fn(pos)
        if cert in self.stop:
            self.found = cert
            return -1                       # unwinds the whole search
        invs = tuple(self.invs)
        leaf = {"invs": invs, "vertices": tuple(self.path), "cert": cert, "pos": pos}
        if self.first is None:
            self.first = leaf
        else:
            for ref in (self.first, self.best):
                if ref is not None and invs == ref["invs"] and cert == ref["cert"]:
                    if ref["pos"] != pos:
                        # map ref's vertex at position i to ours at position i
                        lab = sorted(self.vertices, key=pos.__getitem__)
                        self.gens.append(tuple(map(lab.__getitem__, ref["pos"])))
                    common = 0
                    while (common < len(self.path) and common < len(ref["vertices"])
                           and self.path[common] == ref["vertices"][common]):
                        common += 1
                    return common
        if self.best is None or (invs, cert) < (self.best["invs"], self.best["cert"]):
            self.best = leaf
        return None

    def _run(self, part, depth):
        cell, start_of, size = part
        t = self._target(size)
        if t is None:
            return self._handle_leaf(start_of)
        done: list[int] = []
        roots = set()                       # the orbits of done's vertices
        orbits, folded = _Orbits(self.n), 0  # under self.gens[:folded] fixing the path
        for v in set_bits(cell[t]):
            if done:
                fixing = [g for g in self.gens[folded:] if all(g[p] == p for p in self.path)]
                folded = len(self.gens)
                if fixing:
                    for g in fixing:
                        orbits.fold(g)
                    roots = {orbits.find(u) for u in done}
                if orbits.find(v) in roots:
                    continue
            child = self._individualize(part, t, v)
            inv = self._refine(child, [t], self.invs[-1])
            # compare against the reference paths at this depth
            eq_first = (self.first is None
                        or (len(self.first["invs"]) > depth + 1
                            and self.first["invs"][depth + 1] == inv
                            and tuple(self.invs) == self.first["invs"][:depth + 1]))
            prune = False                   # set if worse than the best leaf
            if self.best is not None:
                binvs = self.best["invs"]
                if tuple(self.invs) == binvs[:depth + 1] and len(binvs) > depth + 1:
                    prune = inv > binvs[depth + 1]
            if prune and not eq_first:  # order() needs `not eq_first`
                done.append(v)
                roots.add(orbits.find(v))
                continue
            self.invs.append(inv)
            self.path.append(v)
            jump = self._run(child, depth + 1)
            self.invs.pop()
            self.path.pop()
            done.append(v)
            roots.add(orbits.find(v))
            if jump is not None:
                if jump < depth:
                    return jump
                # jump == depth: resume siblings here with the fresh generator
        return None


def _levi_parts(c: Configuration) -> list[list[int]]:
    """Neighbour lists of the Levi graph: points 0..v-1, lines v..2v-1."""
    nbrs = [[] for _ in range(c.v)] + [list(line) for line in c.lines]
    for j, line in enumerate(c.lines):
        for p in line:
            nbrs[p].append(c.v + j)
    return nbrs


def _pack_cert(c: Configuration, pos) -> CanonicalForm:
    """The incidence matrix with each vertex u at position pos[u]: rows are
    the points, columns the lines."""
    v = c.v
    rowbytes = (v + 7) // 8
    buf = bytearray(v * rowbytes)
    for j, line in enumerate(c.lines):
        col = pos[v + j] - v
        for p in line:
            buf[pos[p] * rowbytes + (col >> 3)] |= 0x80 >> (col & 7)
    return CanonicalForm(v, c.k, bytes(buf))


def _levi_search(c: Configuration, stop=(), gens=()) -> _Search:
    """The search of c's Levi graph with cells (points, lines), ending at a
    leaf whose certificate is in `stop` and seeded with the automorphisms
    `gens`."""
    cells = [tuple(range(c.v)), tuple(range(c.v, 2 * c.v))]
    return _Search(_levi_parts(c), cells, partial(_pack_cert, c), stop, gens)


# c -> (form, generators, |Aut|) of c's whole unseeded canonical search, for
# the last _STORE_SIZE configurations stored; a dict's first key is its oldest
_STORE_SIZE = 128
_store: dict[Configuration, tuple[CanonicalForm, tuple, int]] = {}


def _canonicalize(c: Configuration, stop=(), gens=()):
    """c's stored (form, generators, |Aut|), else those of c's search run now,
    ended by `stop` and seeded with `gens`, and stored if it ran whole and
    unseeded.  A search that met a form of `stop`, or was seeded, gives
    (that form or None, None, None)."""
    entry = _store.get(c)
    if entry is not None:
        return entry
    require_valid(c)
    search = _levi_search(c, stop, gens)
    if search.found is not None or gens:
        return search.found, None, None
    if len(_store) == _STORE_SIZE:
        del _store[next(iter(_store))]
    entry = _store[c] = search.best["cert"], tuple(search.gens), search.order()
    return entry


def canonical_form(c: Configuration, known=()) -> CanonicalForm:
    """c's canonical form: equal forms <=> isomorphic.

    `known` holds the forms of classes found so far.  c's canonical search
    then stops at the first leaf whose certificate is in `known`, which is
    c's form (see the module docstring); a search that meets none runs whole
    and is stored, so aut_order and automorphism_generators of c do not
    search again, and is_self_dual(c) reads its form and generators from the
    store.  A c already stored is not searched.
    """
    return _canonicalize(c, known)[0]


def automorphism_generators(c: Configuration) -> list[tuple[int, ...]]:
    """Generators of Aut(c) as permutations of 0..2v-1 (points then lines)."""
    return list(_canonicalize(c)[1])


def aut_order(c: Configuration) -> int:
    """Order of the automorphism group (point/line colour preserving)."""
    return _canonicalize(c)[2]


def are_isomorphic(a: Configuration, b: Configuration) -> bool:
    """True iff a and b are isomorphic: b's canonical search meets a's form.
    A form of another (v, k) meets none, and b's whole search is stored."""
    form = canonical_form(a)
    return canonical_form(b, (form,)) == form


def _dual_generators(c: Configuration, gens) -> list[tuple[int, ...]]:
    """Automorphisms `gens` of c carried to dual(c)'s numbering, where c's
    vertex x is dual(c)'s vertex (x + v) mod 2v: g becomes
    x -> (g[(x + v) mod 2v] + v) mod 2v, and g keeps both cells."""
    v = c.v
    return [tuple(y - v for y in g[v:]) + tuple(y + v for y in g[:v]) for g in gens]


def is_self_dual(c: Configuration) -> bool:
    """True iff c is isomorphic to its dual: dual(c)'s stored form is c's, or
    the canonical search of dual(c), seeded with Aut(c)'s generators, meets
    c's form."""
    form, gens, _ = _canonicalize(c)
    return _canonicalize(dual(c), (form,), _dual_generators(c, gens))[0] == form
