"""Clique-based search for all configurations on a given point graph."""

import itertools
import random
import warnings
from collections import Counter
from dataclasses import replace

import pytest

from srcfg import iso
from srcfg.algebra import cyclic, direct_product
from srcfg.catalog import entry_by_name, grid_sdds
from srcfg.classify import (IsoClass, _exact_cover_solutions, compatible_pairs,
                            find_configurations, reduce_isomorphs)
from srcfg.constructions import (development, lp4, projective_plane,
                                 triangle_removal)
from srcfg.graphs import (Graph, k_cliques, latin_square_graph, paley, petersen,
                          rook, shrikhande, srg_check)
from srcfg.incidence import (Configuration, alpha_spectrum, dual, is_valid,
                             line_graph, point_graph, src_check, validate)
from srcfg.iso import aut_order, canonical_form, is_self_dual
from srcfg.sdds import sdds_search
from test_iso import random_configuration, record_search, record_searches, relabeled


def reference_configurations(g: Graph, k: int) -> set[tuple]:
    """Pruning-free baseline: backtrack over edge-disjoint clique families
    of size v, then keep those forming a configuration with point graph g."""
    cliques = k_cliques(g, k)
    out = set()

    def edges_of(cl):
        return set(itertools.combinations(cl, 2))

    def rec(start, chosen, covered):
        if len(chosen) == g.n:
            c = Configuration.from_lines(g.n, k, sorted(chosen))
            if is_valid(c) and point_graph(c) == g:
                out.add(c.lines)
            return
        for i in range(start, len(cliques)):
            e = edges_of(cliques[i])
            if e & covered:
                continue
            chosen.append(cliques[i])
            rec(i + 1, chosen, covered | e)
            chosen.pop()

    rec(0, [], set())
    return out


def reference_exact_cover(g: Graph, cliques) -> tuple[list[tuple[int, ...]], int]:
    """_exact_cover_solutions with list candidates: every node rebuilds the
    candidate list of each uncovered edge at the branching vertex by
    testing each clique on it against the covered edges.  The covers and
    the number of search calls."""
    edges = g.edges()
    if not edges:
        return [], 0
    edge_id = {e: i for i, e in enumerate(edges)}
    masks = []
    on_edge: list[list[int]] = [[] for _ in edges]
    for r, c in enumerate(cliques):
        m = 0
        for e in itertools.combinations(c, 2):
            m |= 1 << edge_id[e]
            on_edge[edge_id[e]].append(r)
        masks.append(m)
    block = [0] * g.n
    for i, (u, _) in enumerate(edges):
        block[u] |= 1 << i
    full = (1 << len(edges)) - 1
    out = []
    calls = []

    def search(covered: int, chosen: tuple[int, ...]):
        calls.append(chosen)
        free = full ^ covered
        if not free:
            out.append(tuple(sorted(chosen)))
            return
        m = block[edges[(free & -free).bit_length() - 1][0]] & free
        best = None
        while m:
            low = m & -m
            m ^= low
            cand = [r for r in on_edge[low.bit_length() - 1] if not masks[r] & covered]
            if best is None or len(cand) < len(best):
                best = cand
                if len(best) <= 1:
                    break
        for r in best:
            search(covered | masks[r], chosen + (r,))

    search(0, ())
    return sorted(out), len(calls)


def _latin6_complement():
    square = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    return latin_square_graph(square).complement(), 5


def _tr8_point_graph():
    group, subset, _ = grid_sdds(8)
    return point_graph(development(group, subset)), 6


RELABEL_GRAPHS = {
    "paley13": lambda: (paley(13), 3),
    "complement_petersen": lambda: (petersen().complement(), 3),
    "shrikhande": lambda: (shrikhande(), 3),
    "complement_latin6": _latin6_complement,
    "tr8": _tr8_point_graph,
}


def _latin7_complement():
    square = [[(i + j) % 7 for j in range(7)] for i in range(7)]
    return latin_square_graph(square).complement(), 6


EXACT_COVER_GRAPHS = {**RELABEL_GRAPHS, "complement_latin7": _latin7_complement}


class TestCliqueGraph:
    """The clique graph joins k-cliques that meet in at most one vertex;
    compatible_pairs counts its edges."""

    def test_paley13(self):
        cliques = k_cliques(paley(13), 3)
        assert len(cliques) == 26
        assert compatible_pairs(cliques) == 286

    def test_shrikhande_and_rook(self):
        assert len(k_cliques(shrikhande(), 3)) == 32
        assert len(k_cliques(rook(4), 3)) == 32

    def test_compat_edges_share_at_most_one_vertex(self):
        # k = 1 cliques have no edges and k = 2 cliques one each, so every
        # pair of them is compatible
        for g, k in [(paley(13), 3), (shrikhande(), 3), (rook(4), 3),
                     (rook(4), 4), (petersen().complement(), 3),
                     (paley(13), 1), (paley(13), 2)]:
            cliques = k_cliques(g, k)
            want = sum(len(set(a) & set(b)) <= 1
                       for a, b in itertools.combinations(cliques, 2))
            assert compatible_pairs(cliques) == want
        assert compatible_pairs(k_cliques(paley(13), 1)) == 13 * 12 // 2
        assert compatible_pairs(k_cliques(paley(13), 2)) == 39 * 38 // 2
        assert compatible_pairs([]) == 0


class TestFindConfigurations:
    def test_paley13(self):
        found = find_configurations(paley(13), 3)
        assert len(found) == 2
        for c in found:
            assert src_check(c).astuple() == (13, 3, 2, 3)
            assert srg_check(line_graph(c)) == srg_check(point_graph(c))

    def test_matches_reference_paley13(self):
        found = {c.lines for c in find_configurations(paley(13), 3)}
        assert found == reference_configurations(paley(13), 3)

    def test_matches_reference_rook4(self):
        assert find_configurations(rook(4), 3) == []
        assert reference_configurations(rook(4), 3) == set()

    def test_shrikhande(self):
        found = find_configurations(shrikhande(), 3)
        assert len(found) == 2
        classes = reduce_isomorphs(found)
        assert len(classes) == 1
        assert classes[0].canonical == canonical_form(
            triangle_removal(projective_plane(5)))

    def test_complement_petersen(self):
        found = find_configurations(petersen().complement(), 3)
        assert len(found) == 6
        classes = reduce_isomorphs(found)
        assert len(classes) == 2
        by_aut = {cl.aut_order: cl for cl in classes}
        assert set(by_aut) == {24, 120}
        assert by_aut[120].count == 1
        assert by_aut[24].count == 5
        # orbit counting: |Aut(graph)| / |Aut(config)| labelled copies per class
        for cl in classes:
            assert cl.count * cl.aut_order == 120

    def test_latin6_complement(self):
        order = 6
        square = [[(i + j) % order for j in range(order)] for i in range(order)]
        g = latin_square_graph(square).complement()
        found = find_configurations(g, 5)
        classes = reduce_isomorphs(found)
        assert len(classes) == 1
        assert classes[0].canonical == canonical_form(
            triangle_removal(projective_plane(7)))

    def test_latin8_complement(self):
        # the order-8 Latin-square complement, srg(64, 42, 26, 30), carries
        # two covers, one class: the triangle removal of PG(2, 9), whose
        # |Aut| is (q - 1)^2 * 3! * 2 at q = 9
        square = [[(i + j) % 8 for j in range(8)] for i in range(8)]
        found = find_configurations(latin_square_graph(square).complement(), 7)
        assert len(found) == 2
        classes = reduce_isomorphs(found)
        assert len(classes) == 1
        assert classes[0].canonical == canonical_form(
            triangle_removal(projective_plane(9)))
        q = 9
        assert classes[0].aut_order == (q - 1) ** 2 * 6 * 2

    def test_latin5_carries_no_configuration(self):
        # one of the published srg(25,12,5,6) graphs; 75 four-cliques but
        # no exact cover of the edge set
        square = [[(i + j) % 5 for j in range(5)] for i in range(5)]
        g = latin_square_graph(square)
        assert len(k_cliques(g, 4)) == 75
        assert find_configurations(g, 4) == []

    def test_recount_deterministic(self):
        a = find_configurations(paley(13), 3)
        b = find_configurations(paley(13), 3)
        assert a == b

    @pytest.mark.parametrize("name", sorted(RELABEL_GRAPHS))
    def test_relabel_count_invariance(self, name):
        # the branching order depends on the labels; the set of line sets
        # found must not
        g, k = RELABEL_GRAPHS[name]()
        perm = random.Random(g.n).sample(range(g.n), g.n)
        moved = {tuple(sorted(tuple(sorted(perm[x] for x in line))
                              for line in c.lines))
                 for c in find_configurations(g, k)}
        relabelled = g.relabel(perm)
        found = find_configurations(relabelled, k)
        assert {c.lines for c in found} == moved
        assert len(found) == len(moved)
        params = srg_check(relabelled)
        for c in found:
            assert is_valid(c)
            assert point_graph(c) == relabelled
            assert src_check(c).graph_params() == params

    @pytest.mark.parametrize("name", sorted(EXACT_COVER_GRAPHS))
    def test_exact_cover_matches_reference(self, name):
        # the live-set search returns the reference's cover list on a
        # relabelling of each graph
        g, k = EXACT_COVER_GRAPHS[name]()
        g = g.relabel(random.Random(g.n + k).sample(range(g.n), g.n))
        cliques = k_cliques(g, k)
        want = reference_exact_cover(g, cliques)
        assert _exact_cover_solutions(g, cliques) == want
        assert want[0]

    # The size of the exact-cover search tree, the root included: the
    # edge the search branches on moves it, among several with the fewest
    # candidates too, where the covers found stay the same.
    @pytest.mark.parametrize("graph, k, nodes", [
        pytest.param(lambda: paley(13), 3, 27, id="paley13-C4"),
        pytest.param(lambda: latin_square_graph(
            [[(i + j) % 8 for j in range(8)] for i in range(8)]).complement(),
            7, 103617, id="latin8-complement"),
    ])
    def test_exact_cover_nodes_pinned(self, graph, k, nodes):
        g = graph()
        covers, got = _exact_cover_solutions(g, k_cliques(g, k))
        assert (len(covers), got) == (2, nodes)

    def test_exploratory_path_warns(self):
        k4 = Graph(4, edges=list(itertools.combinations(range(4), 2)))
        with pytest.warns(UserWarning):
            found = find_configurations(k4, 3)
        assert found == []
        # a triangle with a pendant edge: its edges are an exact cover by
        # 2-cliques, but the points lie on 3, 2, 2 and 1 of them
        paw = Graph(4, edges=[(0, 1), (0, 2), (1, 2), (0, 3)])
        with pytest.warns(UserWarning):
            assert find_configurations(paw, 2) == []

    def test_exploratory_can_still_find(self):
        # the 6-cycle is not strongly regular, yet its edges form a (6_2)
        c6 = Graph(6, edges=[(i, (i + 1) % 6) for i in range(6)])
        with pytest.warns(UserWarning):
            found = find_configurations(c6, 2)
        assert len(found) == 1
        assert is_valid(found[0])
        assert point_graph(found[0]) == c6

    def test_two_disjoint_paley13(self):
        p = paley(13)
        g = Graph(26, edges=[e for u, v in p.edges()
                             for e in ((u, v), (u + 13, v + 13))])
        with pytest.warns(UserWarning):
            found = find_configurations(g, 3)
        assert len(found) == 4
        for c in found:
            assert is_valid(c)
            assert point_graph(c) == g

    def test_zero_vertex_graph_has_the_empty_configuration(self):
        # the search's root has nothing to cover and records the empty
        # cover: the line set of the valid 0-point configuration, whose
        # point graph is Graph(0)
        assert _exact_cover_solutions(Graph(0), ()) == ([()], 1)
        with pytest.warns(UserWarning):
            assert find_configurations(Graph(0), 3) == [Configuration(0, 3, ())]
        assert validate(Configuration(0, 3, ())) == []
        assert point_graph(Configuration(0, 3, ())) == Graph(0)

    def test_line_size_below_two_rejected(self):
        with pytest.raises(ValueError):
            find_configurations(paley(13), 1)
        with pytest.raises(ValueError):
            find_configurations(Graph(4, edges=[]), 1)

    def test_one_warning_on_non_srg(self):
        c6 = Graph(6, edges=[(i, (i + 1) % 6) for i in range(6)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            compatible_pairs(k_cliques(c6, 2))
        assert caught == []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            find_configurations(c6, 2)
        assert len(caught) == 1
        # edgeless on n > 0 points: the empty cover has 0 lines, not n
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert find_configurations(Graph(3), 2) == []
        assert len(caught) == 1


def reduce_by_forms(configs) -> list[IsoClass]:
    """The reference reduction: one canonical form per input, classes of
    equal forms, each represented by its first member, ordered by form."""
    classes: dict = {}
    for c in configs:
        form = canonical_form(c)
        if form in classes:
            classes[form] = replace(classes[form], count=classes[form].count + 1)
        else:
            classes[form] = IsoClass(c, 1, form, aut_order(c), is_self_dual(c))
    return [classes[f] for f in sorted(classes, key=lambda f: (f.v, f.k, f.data))]


def _random_pool():
    # random 12_3 configurations with relabelled copies and duals, shuffled
    rnd = random.Random(4)
    pool = [random_configuration(12, 3, rnd) for _ in range(8)]
    configs = pool + [relabeled(rnd.choice(pool), rnd) for _ in range(12)]
    configs += [relabeled(dual(rnd.choice(pool)), rnd) for _ in range(8)]
    rnd.shuffle(configs)
    return configs


def _petersen_covers():
    rnd = random.Random(10)
    return [relabeled(c, rnd) for c in find_configurations(petersen().complement(), 3)]


def _lp4_with_frobenius155():
    # the four LP(4,2) polarity variants (four classes, one of them that of
    # the Frobenius development), interleaved with it, then relabelled again
    rnd = random.Random(155)
    variants = [lp4(2, hyperplane_polarity=h, point_polarity=p)
                for h, p in [(False, False), (True, False), (False, True), (True, True)]]
    entry = entry_by_name("frobenius155")
    frobenius = development(entry.group, entry.subset)
    return [*variants[:2], frobenius, *variants[2:],
            *(relabeled(c, rnd) for c in reversed(variants))]


REDUCTION_INPUTS = {
    "random12": _random_pool,
    "complement_petersen": _petersen_covers,
    "lp4_2_with_frobenius155": _lp4_with_frobenius155,
    # 0-point configurations of different k: equal certificates, two classes
    "no_points_k3_k4": lambda: [Configuration(0, k, ()) for k in (3, 4, 3)],
}


def _z6_squared_developments():
    group = direct_product(cyclic(6), cyclic(6))
    rnd = random.Random(36)
    return [relabeled(development(group, d), rnd) for d in sdds_search(group, 5, 10, 12)]


class TestReduceIsomorphs:
    @pytest.mark.parametrize("name", sorted(REDUCTION_INPUTS))
    def test_matches_grouping_by_canonical_form(self, name):
        configs = REDUCTION_INPUTS[name]()
        iso._store.clear()
        want = reduce_by_forms(configs)
        iso._store.clear()
        got = reduce_isomorphs(configs)
        assert got == want
        assert len(want) > 1

    def test_z6_squared_search_size_pinned(self, monkeypatch):
        # refine calls and leaves of all searches of the reduction, canonical
        # and self-dual; a lost early stop changes them
        configs = _z6_squared_developments()
        iso._store.clear()
        calls = record_search(monkeypatch)
        classes = reduce_isomorphs(configs)
        assert [(cl.count, cl.aut_order, cl.self_dual) for cl in classes] == [(48, 216, True)]
        assert (calls["refine"], calls["leaf"]) == (155, 54)

    def test_counts_sum(self):
        found = find_configurations(petersen().complement(), 3)
        classes = reduce_isomorphs(found)
        assert sum(cl.count for cl in classes) == len(found)

    def test_empty(self):
        assert reduce_isomorphs([]) == []

    def test_one_search_per_input_beyond_cache_size(self, monkeypatch):
        # 200 inputs overflow the 128-entry canonical cache: the class's
        # aut_order and self-duality are read from its cached search when it
        # is first met, the self-duality search of the representative's dual
        # stops at the class's key, and every later input's search stops
        # there too, so one search runs whole
        z13 = development(cyclic(13), (7, 8, 11))
        rng = random.Random(13)
        relabelled = set()
        while len(relabelled) < 200:
            perm = rng.sample(range(13), 13)
            relabelled.add(Configuration.from_lines(
                13, 3, sorted(tuple(sorted(perm[x] for x in ln)) for ln in z13.lines)))
        iso._store.clear()
        runs = record_searches(monkeypatch)
        classes = reduce_isomorphs(sorted(relabelled, key=lambda c: c.lines))
        assert [(cl.count, cl.aut_order, cl.self_dual) for cl in classes] == [(200, 39, True)]
        rep_dual = dual(classes[0].representative)
        kinds = Counter("self-dual" if c == rep_dual
                        else "stopped" if s.found is not None else "whole"
                        for c, s in runs)
        assert kinds == {"whole": 1, "stopped": 199, "self-dual": 1}
        assert len(iso._store) == 1

    def test_second_reduction_reads_the_store(self, monkeypatch):
        # hall and its dual are not isomorphic: each starts a class, so both
        # whole searches are stored, and the self-duality check of each
        # reads the stored form of the other
        entry = entry_by_name("q8q8_hall")
        hall = development(entry.group, entry.subset)
        configs = [hall, dual(hall)]
        first = reduce_isomorphs(configs)
        assert [cl.self_dual for cl in first] == [False, False]
        runs = record_searches(monkeypatch)
        assert reduce_isomorphs(configs) == first
        assert runs == []

    def test_spectra_of_petersen_classes(self):
        found = find_configurations(petersen().complement(), 3)
        kinds = {}
        for cl in reduce_isomorphs(found):
            geo = alpha_spectrum(cl.representative)
            kinds[geo.kind] = geo
        assert set(kinds) == {"semipartial_geometry", "general"}
        assert kinds["semipartial_geometry"].alpha == 2
        assert kinds["semipartial_geometry"].mu == 4
        general_values = {a for a, _ in kinds["general"].spectrum}
        assert {1, 2, 3} <= general_values
