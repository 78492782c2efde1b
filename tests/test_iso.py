"""Canonical forms, isomorphism, automorphism groups."""

import hashlib
import random
import zlib
from collections import Counter, defaultdict
from copy import deepcopy
from functools import partial
from itertools import chain
from math import factorial, prod

import pytest

from srcfg.algebra import cyclic
from srcfg.catalog import entry_by_name
from srcfg.constructions import (development, lp4, moore_configuration,
                                 projective_plane, triangle_removal)
from srcfg.graphs import hoffman_singleton, petersen
from srcfg import iso as iso_module
from srcfg.incidence import Configuration, dual, point_graph
from srcfg.iso import (are_isomorphic, aut_order, automorphism_generators,
                       canonical_form, is_self_dual)
from test_incidence import gq22


def brute_aut_count(c: Configuration) -> int:
    """Count point permutations preserving the line set, by backtracking
    over images with collinearity-preservation pruning."""
    g = point_graph(c)
    lineset = set(c.lines)
    n = c.v
    count = 0

    def extend(img: list[int], used: int):
        nonlocal count
        i = len(img)
        if i == n:
            mapped = {tuple(sorted(img[p] for p in ln)) for ln in c.lines}
            if mapped == lineset:
                count += 1
            return
        for t in range(n):
            if used >> t & 1:
                continue
            if all(g.adjacent(img[j], t) == g.adjacent(j, i) for j in range(i)):
                img.append(t)
                extend(img, used | 1 << t)
                img.pop()

    extend([], 0)
    return count


def relabeled(c: Configuration, rnd: random.Random) -> Configuration:
    perm = list(range(c.v))
    rnd.shuffle(perm)
    lines = [tuple(sorted(perm[p] for p in ln)) for ln in c.lines]
    rnd.shuffle(lines)
    return Configuration(c.v, c.k, tuple(lines))


def catalog_development(name: str) -> Configuration:
    entry = entry_by_name(name)
    return development(entry.group, entry.subset)


ORACLE_CONFIGURATIONS = {
    **{name: partial(catalog_development, name)
       for name in ("z13", "q8q8_hall", "q8q8_hall_dual", "z4_s4", "s5")},
    "moore_hoffman_singleton": lambda: moore_configuration(hoffman_singleton()),
    "gq22": gq22,
    "triangle_removal_5": lambda: triangle_removal(projective_plane(5)),
    "triangle_removal_7": lambda: triangle_removal(projective_plane(7)),
}

VARIANTS = {
    "as_built": lambda c: c,
    "relabeled": lambda c: relabeled(c, random.Random(c.v)),
    "dual": dual,
}


class TestAutOrderOracle:
    """aut_order against sympy's Schreier-Sims on the same generators."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("name", ORACLE_CONFIGURATIONS)
    def test_matches_sympy(self, name, variant):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        c = VARIANTS[variant](ORACLE_CONFIGURATIONS[name]())
        identity = combinatorics.Permutation(list(range(2 * c.v)))
        gens = [combinatorics.Permutation(list(g))
                for g in automorphism_generators(c)]
        group = combinatorics.PermutationGroup([identity] + gens)
        assert aut_order(c) == group.order()


def _wl_colours(nx, g, v, marks):
    """networkx Weisfeiler-Lehman colours of the Levi graph g, with points
    (< v) and lines apart and the vertices of `marks` individualized."""
    for x in g:
        g.nodes[x]["label"] = f"{x < v} {marks.index(x) if x in marks else -1}"
    hashes = nx.weisfeiler_lehman_subgraph_hashes(g, node_attr="label",
                                                  iterations=3)
    return {x: h[-1] for x, h in hashes.items()}


def nx_isomorphic(nx, a: Configuration, b: Configuration) -> bool:
    """Whether networkx finds the two-coloured Levi graphs of a and b
    isomorphic.

    VF2 alone does not finish on these symmetric graphs.  So vertices of a
    are individualized one at a time, each the least vertex of a smallest
    non-singleton class of WL colours, until the colours are discrete; the
    vertices of b that could match them are searched, a branch is dropped
    when its WL colour histogram differs from a's, and nx.is_isomorphic
    decides each leaf under the colours.  WL colours are isomorphism
    invariants, so the answer is exact.  The first vertex of b is tried
    once per orbit of automorphism_generators(b), which are checked to be
    automorphisms first; any group of automorphisms keeps the answer exact.
    """
    if (a.v, a.k) != (b.v, b.k):
        return False

    def levi(c):
        g = nx.Graph()
        g.add_nodes_from(range(2 * c.v))
        g.add_edges_from((p, c.v + j) for j, ln in enumerate(c.lines)
                         for p in ln)
        return g

    ga, gb = levi(a), levi(b)
    edges = {frozenset(e) for e in gb.edges()}
    gens = automorphism_generators(b)
    for g in gens:
        assert {frozenset((g[x], g[y])) for x, y in gb.edges()} == edges
    orbit_mins = set()
    seen = set()
    for x in gb:
        if x not in seen:
            orbit_mins.add(x)
            seen.add(x)
            stack = [x]
            while stack:
                y = stack.pop()
                for g in gens:
                    if g[y] not in seen:
                        seen.add(g[y])
                        stack.append(g[y])
    marks = []
    colours = [_wl_colours(nx, ga, a.v, marks)]
    while True:
        sizes = Counter(colours[-1].values())
        split = [x for x in ga if sizes[colours[-1][x]] > 1]
        if not split:
            break
        marks.append(min(split, key=lambda x: (sizes[colours[-1][x]], x)))
        colours.append(_wl_colours(nx, ga, a.v, marks))
    histograms = [Counter(col.values()) for col in colours]
    nx.set_node_attributes(ga, colours[-1], "colour")

    def extend(marks_b):
        depth = len(marks_b)
        col = _wl_colours(nx, gb, b.v, marks_b)
        if Counter(col.values()) != histograms[depth]:
            return False
        if depth == len(marks):
            nx.set_node_attributes(gb, col, "colour")
            return nx.is_isomorphic(
                ga, gb, node_match=lambda p, q: p["colour"] == q["colour"])
        want = colours[depth][marks[depth]]
        return any(extend(marks_b + [y]) for y in gb
                   if col[y] == want and (depth or y in orbit_mins))

    return extend([])


class TestNetworkxOracle:
    """Equal canonical forms against networkx isomorphism of the Levi
    graphs, over seeded random relabellings."""

    @pytest.mark.parametrize("name", ORACLE_CONFIGURATIONS)
    def test_agrees_with_networkx(self, name):
        nx = pytest.importorskip("networkx")
        rnd = random.Random(name)
        c = ORACLE_CONFIGURATIONS[name]()
        for a, b in [(c, c), (dual(c), dual(c)), (c, dual(c))]:
            a, b = relabeled(a, rnd), relabeled(b, rnd)
            assert ((canonical_form(a) == canonical_form(b))
                    == nx_isomorphic(nx, a, b))

    def test_hall_pair(self):
        nx = pytest.importorskip("networkx")
        rnd = random.Random(8)
        hall = catalog_development("q8q8_hall")
        hall_dual = catalog_development("q8q8_hall_dual")
        for a, b, isomorphic in [(hall, hall_dual, False),
                                 (dual(hall), hall_dual, True)]:
            a, b = relabeled(a, rnd), relabeled(b, rnd)
            assert nx_isomorphic(nx, a, b) is isomorphic
            assert (canonical_form(a) == canonical_form(b)) is isomorphic


class TestCanonicalForm:
    def test_relabel_invariance(self):
        rnd = random.Random(7)
        c = development(cyclic(13), (7, 8, 11))
        forms = {canonical_form(relabeled(c, rnd)).data for _ in range(100)}
        assert len(forms) == 1
        assert forms == {canonical_form(c).data}

    def test_isomorphic_pair(self):
        c = gq22()
        rnd = random.Random(3)
        assert are_isomorphic(c, relabeled(c, rnd))

    def test_distinguishes_sizes(self):
        assert not are_isomorphic(gq22(), development(cyclic(13), (7, 8, 11)))
        # equal (empty) incidence matrices, another k
        assert not are_isomorphic(Configuration(0, 3, ()), Configuration(0, 4, ()))

    def test_no_points(self):
        # the Levi graph of a 0-point configuration has two empty cells
        c = Configuration(0, 3, ())
        assert canonical_form(c).data == b""
        assert aut_order(c) == 1
        assert automorphism_generators(c) == []
        assert is_self_dual(c)
        assert are_isomorphic(c, c)


class TestAut:
    def test_known_orders(self):
        assert aut_order(development(cyclic(13), (7, 8, 11))) == 39
        assert aut_order(gq22()) == 720
        assert aut_order(moore_configuration(petersen())) == 120

    @pytest.mark.parametrize("make", [
        lambda: development(cyclic(13), (7, 8, 11)),
        lambda: gq22(),
        lambda: moore_configuration(petersen()),
        lambda: triangle_removal(projective_plane(5)),
    ])
    def test_agrees_with_brute_force(self, make):
        c = make()
        assert aut_order(c) == brute_aut_count(c)

    def test_generators_preserve_lines(self):
        c = gq22()
        v = c.v
        lineset = set(c.lines)
        for gen in automorphism_generators(c):
            assert sorted(gen[:v]) == list(range(v))
            mapped = {tuple(sorted(gen[p] for p in ln)) for ln in c.lines}
            assert mapped == lineset
            # line part permutes line indices consistently
            assert sorted(x - v for x in gen[v:]) == list(range(v))

    def test_dual_same_order(self):
        for c in (development(cyclic(13), (7, 8, 11)), gq22(),
                  triangle_removal(projective_plane(5))):
            assert aut_order(dual(c)) == aut_order(c)

    def test_relabel_same_order(self):
        rnd = random.Random(11)
        c = triangle_removal(projective_plane(5))
        assert aut_order(relabeled(c, rnd)) == aut_order(c)


def _is_equitable(nbrs, part) -> bool:
    """Brute force: every vertex of a cell has the same number of
    neighbours in each cell."""
    _cell, start_of, _size = part
    profiles = {}
    for v, vn in enumerate(nbrs):
        profile = sorted(map(start_of.__getitem__, vn))
        if profiles.setdefault(start_of[v], profile) != profile:
            return False
    return True


def search_afresh(c: Configuration):
    """c's (form, generators, |Aut|) from a canonical search run here, not
    read from the store."""
    iso_module._store.pop(c, None)
    return iso_module._canonicalize(c)


def self_dual_afresh(c: Configuration) -> bool:
    """is_self_dual(c) with the search of dual(c) run here, not read from the
    store.  A Moore configuration is its own dual, line j being the
    neighbourhood of vertex j, so is_self_dual reads its stored form."""
    form, gens, _ = iso_module._canonicalize(c)
    iso_module._store.pop(dual(c), None)
    gens = iso_module._dual_generators(c, gens)
    return iso_module._canonicalize(dual(c), (form,), gens)[0] == form


def record_search(monkeypatch) -> Counter:
    """Count the refine calls and leaves of every search from here on,
    checking that each refinement ends equitable."""
    calls = Counter()

    class Recording(iso_module._Search):
        def _refine(self, part, queue, seed):
            calls["refine"] += 1
            inv = super()._refine(part, queue, seed)
            assert _is_equitable(self.nbrs, part)
            return inv

        def _handle_leaf(self, order):
            calls["leaf"] += 1
            return super()._handle_leaf(order)

    monkeypatch.setattr(iso_module, "_Search", Recording)
    return calls


PINNED = {
    "tr7": lambda: triangle_removal(projective_plane(7)),
    "moore_hoffman_singleton": lambda: moore_configuration(hoffman_singleton()),
    "z4_s4": lambda: catalog_development("z4_s4"),
    "q8q8_hall": lambda: catalog_development("q8q8_hall"),
    "lp4_2_point_polarity": lambda: lp4(2, point_polarity=True),
}


def reference_refine(nbrs, part, queue, seed, splitters: Counter):
    """_Search._refine with no unit-cell case and no masks: the vertices of
    a cell are read off start_of, every splitter counts its neighbours with
    a Counter and splits each touched cell by count.  Updates start_of, size
    and the queue, not cell.  `splitters` counts the splitters taken, as
    "unit" or "larger"."""
    _cell, start_of, size = part
    queued = set(queue)
    trace = []
    qi = 0
    while qi < len(queue):
        s = queue[qi]
        qi += 1
        queued.discard(s)
        splitters["unit" if size[s] == 1 else "larger"] += 1
        members = [u for u, t in enumerate(start_of) if t == s]
        count = Counter(chain.from_iterable(nbrs[u] for u in members))
        touched = {}
        for w in count:
            cs = start_of[w]
            if size[cs] > 1:
                touched.setdefault(cs, []).append(w)
        for cs in sorted(touched):
            ws = touched[cs]
            buckets = {}
            for w in ws:
                buckets.setdefault(count[w], []).append(w)
            first = cs + size[cs] - len(ws)
            if first == cs and len(buckets) == 1:
                continue
            starts = []
            frags = []
            if first > cs:
                starts.append(cs)
                frags.append((0, first - cs))
                size[cs] = first - cs
            p = first
            for k in sorted(buckets):
                b = buckets[k]
                starts.append(p)
                frags.append((k, len(b)))
                size[p] = len(b)
                for w in b:
                    start_of[w] = p
                p += len(b)
            trace.append((cs, tuple(frags)))
            if cs in queued:
                new = starts[1:]
            else:
                sizes = [n for _, n in frags]
                big = sizes.index(max(sizes))
                new = starts[:big] + starts[big + 1:]
            queue.extend(new)
            queued.update(new)
    return zlib.crc32(repr(trace).encode(), seed)


def cell_sets(part) -> dict[int, set[int]]:
    """Each cell of `part` as a vertex set, read off cell: a bitmask, or the
    vertex itself for a singleton."""
    cell, _, size = part
    sets = {}
    s = 0
    while s < len(size):
        mask = cell[s]
        sets[s] = ({mask} if size[s] == 1
                   else {v for v in range(mask.bit_length()) if mask >> v & 1})
        s += size[s]
    return sets


@pytest.mark.parametrize("make", [
    *PINNED.values(),
    lambda: catalog_development("z13"),
    lambda: disjoint_union(projective_plane(2), projective_plane(2)),
    lambda: Configuration(0, 3, ()),
], ids=[*PINNED, "z13", "two_fano_planes", "no_points"])
def test_refine_matches_reference(monkeypatch, make):
    # every refinement of the canonical and self-duality searches leaves the
    # invariant, start_of, size, the queue and the cells as vertex sets that
    # reference_refine leaves; the order of the vertices in a cell is not state
    splitters = Counter()
    calls = Counter()

    class Checked(iso_module._Search):
        def _refine(self, part, queue, seed):
            calls["refine"] += 1
            want_part, want_queue = deepcopy(part), deepcopy(queue)
            want = reference_refine(self.nbrs, want_part, want_queue, seed, splitters)
            got = super()._refine(part, queue, seed)
            assert (got, part[1:], queue) == (want, want_part[1:], want_queue)
            want_cells = defaultdict(set)
            for v, s in enumerate(want_part[1]):
                want_cells[s].add(v)
            assert cell_sets(part) == want_cells
            return got

    monkeypatch.setattr(iso_module, "_Search", Checked)
    c = make()
    search_afresh(c)
    self_dual_afresh(c)
    assert calls["refine"]
    if c.v:
        assert splitters["unit"] and splitters["larger"]


def test_outputs_pinned():
    # one SHA-256 over the canonical form, generators (in order), |Aut|
    # and self-duality of each PINNED configuration and of lp4(3): a
    # change to the invariants, the certificates or the generator order
    # changes it
    digest = hashlib.sha256()
    for name, make in {**PINNED, "lp4_3": lambda: lp4(3)}.items():
        c = make()
        digest.update(repr((name, canonical_form(c).data, tuple(automorphism_generators(c)),
                            aut_order(c), is_self_dual(c))).encode())
    assert digest.hexdigest() == (
        "5dc88b114983bac3134380cbf5446ffc97054213490da4d63bf4794128bf197a")


# configuration, refine calls and leaves of its canonical-labelling search;
# a loss of pruning changes them
@pytest.mark.parametrize("make, refines, leaves", [
    (PINNED["tr7"], 9, 5),
    (PINNED["moore_hoffman_singleton"], 16, 6),
    (PINNED["z4_s4"], 12, 5),
    (PINNED["lp4_2_point_polarity"], 33, 12),
    (lambda: lp4(3), 27, 13),
], ids=["tr7", "moore_hoffman_singleton", "z4_s4", "lp4_2_point_polarity", "lp4_3"])
def test_search_size_pinned(monkeypatch, make, refines, leaves):
    calls = record_search(monkeypatch)
    search_afresh(make())
    assert (calls["refine"], calls["leaf"]) == (refines, leaves)


def test_lp4_4_group_and_self_duality(monkeypatch):
    # |Aut(lp4(4))| = |PGammaL(5,4)| = 2 q^10 (q^2-1)(q^3-1)(q^4-1)(q^5-1)
    # with q = 4, on 11,594 Levi vertices; the search sizes are pinned
    q = 4
    c = lp4(q)
    iso_module._store.clear()
    calls = record_search(monkeypatch)
    assert aut_order(c) == 2 * q**10 * prod(q**i - 1 for i in range(2, 6))
    assert aut_order(c) == 516_984_510_873_600
    assert (calls["refine"], calls["leaf"]) == (41, 14)
    calls.clear()
    assert is_self_dual(c)
    assert (calls["refine"], calls["leaf"]) == (6, 1)


# configuration, refine calls and leaves of the self-duality search alone
SELF_DUAL_PINS = [
    ("tr7", 3, 1),
    ("moore_hoffman_singleton", 5, 1),
    ("z4_s4", 4, 1),
    ("q8q8_hall", 12, 4),
    ("lp4_2_point_polarity", 15, 6),
]


@pytest.mark.parametrize("name, refines, leaves", SELF_DUAL_PINS,
                         ids=[name for name, _, _ in SELF_DUAL_PINS])
def test_self_dual_search_size_pinned(monkeypatch, name, refines, leaves):
    c = PINNED[name]()
    iso_module._canonicalize(c)     # the canonical search runs unrecorded
    calls = record_search(monkeypatch)
    self_dual_afresh(c)
    assert (calls["refine"], calls["leaf"]) == (refines, leaves)


@pytest.mark.parametrize("make", [*PINNED.values(), lambda: Configuration(0, 3, ())],
                         ids=[*PINNED, "no_points"])
def test_generators_carried_to_dual(make):
    # is_self_dual prunes its search of dual(c) by these; a permutation that
    # is not an automorphism of dual(c) could prune away the leaf it seeks
    c = make()
    d = dual(c)
    v = c.v
    gens = automorphism_generators(c)
    carried = iso_module._dual_generators(c, gens)
    assert len(carried) == len(gens)
    for g, h in zip(gens, carried):
        assert h == tuple((g[(x + v) % (2 * v)] + v) % (2 * v) for x in range(2 * v))
        assert sorted(h[:v]) == list(range(v))
        assert sorted(h[v:]) == list(range(v, 2 * v))
        for j, line in enumerate(d.lines):
            assert sorted(h[p] for p in line) == list(d.lines[h[v + j] - v])


def random_configuration(v: int, k: int, rnd: random.Random) -> Configuration:
    """A random v_k configuration: lines are drawn greedily from the points
    with the fewest lines so far, avoiding covered pairs, until one fits."""
    while True:
        degree = [0] * v
        covered = set()
        lines = []
        for _ in range(v):
            line = []
            for p in sorted(range(v), key=lambda p: (degree[p], rnd.random())):
                if degree[p] < k and not any((min(p, q), max(p, q)) in covered
                                             for q in line):
                    line.append(p)
                    if len(line) == k:
                        break
            if len(line) < k:
                break
            for p in line:
                degree[p] += 1
            covered.update((p, q) for p in line for q in line if p < q)
            lines.append(sorted(line))
        else:
            return Configuration(v, k, lines)


def disjoint_union(a: Configuration, b: Configuration) -> Configuration:
    return Configuration(a.v + b.v, a.k,
                         [*a.lines, *([p + a.v for p in ln] for ln in b.lines)])


def self_dual_by_forms(c: Configuration) -> bool:
    return canonical_form(c) == canonical_form(dual(c))


class TestDisjointUnions:
    """|Aut| of a disjoint union of connected configurations C_i, m_i of
    each class, is the product of |Aut C_i|^m_i m_i!.  Below the root the
    parts' cells differ in size, so the first largest and the first
    smallest cell are different target cells."""

    FANO, Z13, MOORE = 168, 39, 120     # |PGL(3,2)|, test_known_orders

    def test_two_fano_planes_and_z13(self):
        fano = projective_plane(2)
        c = disjoint_union(disjoint_union(fano, fano),
                           development(cyclic(13), (7, 8, 11)))
        assert aut_order(c) == self.FANO**2 * factorial(2) * self.Z13 == 2_201_472

    def test_three_different_parts(self):
        c = disjoint_union(disjoint_union(development(cyclic(13), (7, 8, 11)),
                                          projective_plane(2)),
                           moore_configuration(petersen()))
        assert aut_order(c) == self.Z13 * self.FANO * self.MOORE
        rnd = random.Random(17)
        forms = {canonical_form(relabeled(c, rnd)).data for _ in range(10)}
        assert forms == {canonical_form(c).data}


class TestSelfDual:
    def test_self_dual_examples(self):
        assert is_self_dual(development(cyclic(13), (7, 8, 11)))
        assert is_self_dual(moore_configuration(petersen()))
        assert is_self_dual(gq22())

    def test_relabeling_keeps_self_duality(self):
        rnd = random.Random(5)
        c = development(cyclic(13), (7, 8, 11))
        assert is_self_dual(relabeled(c, rnd))

    def test_lp4_2_variants(self):
        variants = [lp4(2, hyperplane_polarity=h, point_polarity=p)
                    for h, p in [(False, False), (True, False), (False, True), (True, True)]]
        assert ([is_self_dual(c) for c in variants]
                == [self_dual_by_forms(c) for c in variants]
                == [True, False, False, True])

    def test_hall_and_its_unions(self):
        hall = catalog_development("q8q8_hall")
        cases = [(hall, False), (disjoint_union(hall, hall), False),
                 (disjoint_union(hall, dual(hall)), True)]
        for c, want in cases:
            assert is_self_dual(c) is self_dual_by_forms(c) is want

    def test_two_fano_planes(self):
        # a disconnected Levi graph
        fano = projective_plane(2)
        for c in (disjoint_union(fano, fano), disjoint_union(fano, dual(fano))):
            assert is_self_dual(c) is self_dual_by_forms(c) is True

    def test_random_configurations(self):
        rnd = random.Random(21)
        answers = Counter()
        for _ in range(40):
            k = rnd.choice((3, 4))
            c = random_configuration(rnd.randint(9, 20) if k == 3 else rnd.randint(20, 28),
                                     k, rnd)
            answers[is_self_dual(c)] += 1
            assert is_self_dual(c) is self_dual_by_forms(c)
        assert answers[True] and answers[False]


class TestAreIsomorphic:
    def test_against_canonical_forms(self):
        rnd = random.Random(4)
        pool = [random_configuration(12, 3, rnd) for _ in range(12)]
        answers = Counter()
        for a in pool:
            for b in (relabeled(a, rnd), relabeled(dual(a), rnd),
                      relabeled(rnd.choice(pool), rnd)):
                answers[are_isomorphic(a, b)] += 1
                assert are_isomorphic(a, b) is (canonical_form(a) == canonical_form(b))
        assert answers[True] > len(pool) and answers[False]

    def test_caches_the_second_search(self, monkeypatch):
        # a and b are not isomorphic, so b's search runs whole and is stored
        a, b = lp4(2), lp4(2, point_polarity=True)
        iso_module._store.clear()
        assert not are_isomorphic(a, b)
        runs = record_searches(monkeypatch)
        canonical_form(b)
        assert runs == []


def record_leaves(monkeypatch) -> dict:
    """The invariant tuples of the leaves of every search from here on,
    by certificate."""
    leaves = defaultdict(set)

    class Recording(iso_module._Search):
        def _handle_leaf(self, pos):
            leaves[self.cert_fn(pos)].add(tuple(self.invs))
            return super()._handle_leaf(pos)

    monkeypatch.setattr(iso_module, "_Search", Recording)
    return leaves


@pytest.mark.parametrize("name", PINNED)
def test_equal_certificates_have_equal_invariants(monkeypatch, name):
    # the lemma of the module docstring: over the whole canonical searches
    # of c and two relabellings, and the self-duality search of dual(c),
    # leaves with one certificate have one invariant tuple
    leaves = record_leaves(monkeypatch)
    c = PINNED[name]()
    rnd = random.Random(c.v)
    for x in (c, relabeled(c, rnd), relabeled(c, rnd)):
        search_afresh(x)
    self_dual_afresh(c)
    assert all(len(invs) == 1 for invs in leaves.values())
    best = iso_module._canonicalize(c)[0]
    assert best in leaves


def record_searches(monkeypatch) -> list:
    """Every IR search run from here on, as (configuration, finished _Search)."""
    runs = []
    levi_search = iso_module._levi_search

    def recording(c, *args, **kwargs):
        search = levi_search(c, *args, **kwargs)
        runs.append((c, search))
        return search

    monkeypatch.setattr(iso_module, "_levi_search", recording)
    return runs


class TestCanonicalFormWithKnownForms:
    @pytest.mark.parametrize("name", PINNED)
    def test_relabelled_copy_stops_at_its_form(self, monkeypatch, name):
        c = PINNED[name]()
        form, other = canonical_form(c), canonical_form(lp4(2))
        runs = record_searches(monkeypatch)
        got = canonical_form(relabeled(c, random.Random(1)), {other, form})
        assert got == form
        assert [s.found for _, s in runs] == [form]

    def test_other_classes_give_its_own_form(self, monkeypatch):
        c = lp4(2, point_polarity=True)
        own = search_afresh(c)
        # another class of the same (v, k), and c's own matrix with another
        # v or k
        known = (canonical_form(lp4(2)), iso_module.CanonicalForm(c.v, c.k + 1, own[0].data),
                 iso_module.CanonicalForm(c.v + 1, c.k, own[0].data))
        iso_module._store.clear()
        runs = record_searches(monkeypatch)
        assert canonical_form(c, known) == own[0]
        # one search, run whole and stored
        assert aut_order(c) == own[2]
        assert [s.found for _, s in runs] == [None]


class TestStore:
    """A configuration whose whole search is stored is not searched again."""

    def test_known_forms_read_the_store(self, monkeypatch):
        z13 = development(cyclic(13), (7, 8, 11))
        known = (canonical_form(projective_plane(3)),)
        iso_module._store.clear()
        runs = record_searches(monkeypatch)
        form = canonical_form(z13)
        assert canonical_form(z13, known) == form
        assert [c for c, _ in runs] == [z13]

    @pytest.mark.parametrize("make, self_dual", [
        (lambda: development(cyclic(13), (7, 8, 11)), True),
        (lambda: lp4(2, point_polarity=True), False),
    ], ids=["z13", "lp4_2_point_polarity"])
    def test_self_duality_reads_the_dual_form(self, monkeypatch, make, self_dual):
        c = make()
        iso_module._store.clear()
        canonical_form(c)
        canonical_form(dual(c))
        runs = record_searches(monkeypatch)
        assert is_self_dual(c) is self_dual
        assert runs == []

    def test_oldest_entry_goes_first(self):
        rnd = random.Random(128)
        z13 = development(cyclic(13), (7, 8, 11))
        iso_module._store.clear()
        copies = [z13]
        while len(copies) <= iso_module._STORE_SIZE:
            x = relabeled(z13, rnd)
            if x not in copies:
                copies.append(x)
        for x in copies:
            canonical_form(x)
        assert list(iso_module._store) == copies[1:]
