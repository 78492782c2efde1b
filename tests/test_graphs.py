"""Graph generators, SRG recognition, cliques, and graph6 I/O."""

import functools
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srcfg.catalog import published_entries
from srcfg.constructions import development, lp4
from srcfg.incidence import point_graph
from srcfg.graphs import (Graph, MalformedGraph6, SrgParams, from_graph6,
                          hoffman_singleton, k_cliques, latin_square_graph,
                          make_graph, paley, petersen, read_graph6_file, rook,
                          shrikhande, srg_check, to_graph6)


KNOWN = [
    (petersen(), (10, 3, 0, 1)),
    (paley(13), (13, 6, 2, 3)),
    (paley(17), (17, 8, 3, 4)),
    (rook(4), (16, 6, 2, 2)),
    (shrikhande(), (16, 6, 2, 2)),
    (hoffman_singleton(), (50, 7, 0, 1)),
]


@pytest.mark.parametrize("g,params", KNOWN,
                         ids=["petersen", "paley13", "paley17", "rook4",
                              "shrikhande", "hoffman_singleton"])
def test_known_srg_parameters(g, params):
    assert srg_check(g) == SrgParams(*params)


def test_srg_identity_holds_for_all_returns():
    for g, _ in KNOWN:
        p = srg_check(g)
        assert (p.v - p.d - 1) * p.mu == p.d * (p.d - 1 - p.lam)


def test_complement_parameter_formula():
    for g, _ in KNOWN:
        p = srg_check(g)
        c = srg_check(g.complement())
        if c is None:
            continue  # complement complete/empty
        v, d, lam, mu = p.v, p.d, p.lam, p.mu
        assert c == SrgParams(v, v - d - 1, v - 2 - 2 * d + mu, v - 2 * d + lam)


def test_non_srg_rejected():
    path4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert srg_check(path4) is None          # not regular
    assert srg_check(Graph(3, [(0, 1), (1, 2), (0, 2)])) is None  # complete
    assert srg_check(Graph(4, [])) is None   # empty
    cycle6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert srg_check(cycle6) is None         # common counts not constant
    # Duval's directed strongly regular graph (6, 2, 1, 0, 1), a Cayley
    # digraph of S3 with A^2 = J - A: rows that are not symmetric
    assert srg_check(Graph(6, rows=[10, 5, 48, 48, 5, 10])) is None


def pairwise_srg_check(g: Graph) -> SrgParams | None:
    """The definition of an SRG as a loop over vertex pairs: the oracle."""
    n = g.n
    if n < 2:
        return None
    d = g.degree(0)
    if any(g.degree(u) != d for u in range(1, n)) or d in (0, n - 1):
        return None
    lam = mu = None
    for u in range(n):
        for v in range(u + 1, n):
            c = g.common_count(u, v)
            if g.adjacent(u, v):
                if lam is None:
                    lam = c
                elif c != lam:
                    return None
            elif mu is None:
                mu = c
            elif c != mu:
                return None
    return SrgParams(n, d, lam, mu)


@functools.cache
def library_srgs() -> dict[str, Graph]:
    """Every SRG the library builds, including paley(257), whose 257 rows
    take two of srg_check's row blocks."""
    out = {"paley13": paley(13), "paley41": paley(41), "paley257": paley(257),
           "petersen": petersen(), "complement_petersen": petersen().complement(),
           "shrikhande": shrikhande(), "rook4": rook(4),
           "complement_latin6": make_graph("complement(latin_square_cyclic(6))"),
           "hoffman_singleton": hoffman_singleton(),
           "lp4_2": point_graph(lp4(2))}
    for entry in published_entries():
        out[entry.name] = point_graph(development(entry.group, entry.subset))
    return out


def toggled(g: Graph, u: int, v: int) -> Graph:
    rows = list(g.rows)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return Graph(g.n, rows=rows)


class TestSrgCheckOracle:
    """srg_check against the pairwise definition."""

    def test_all_small_labelled_graphs(self):
        for n in range(6):
            pairs = list(itertools.combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                g = Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
                assert srg_check(g) == pairwise_srg_check(g), (n, bits)

    def test_random_graphs(self):
        rnd = random.Random(10)
        for _ in range(200):
            n = rnd.randint(6, 30)
            p = rnd.random()
            g = Graph(n, [e for e in itertools.combinations(range(n), 2)
                          if rnd.random() < p])
            assert srg_check(g) == pairwise_srg_check(g), g.edges()

    def test_random_circulants(self):
        # regular graphs, so the matrix identity decides; a few are SRGs
        rnd = random.Random(11)
        found = 0
        for _ in range(200):
            n = rnd.randint(6, 30)
            conn = {s for s in range(1, n) if rnd.random() < 0.4}
            conn |= {n - s for s in conn}
            g = Graph(n, [(a, b) for a, b in itertools.combinations(range(n), 2)
                          if b - a in conn])
            expected = pairwise_srg_check(g)
            found += expected is not None
            assert srg_check(g) == expected, (n, sorted(conn))
        assert found > 0

    @pytest.mark.parametrize("name", list(library_srgs()))
    def test_library_srgs(self, name):
        g = library_srgs()[name]
        assert srg_check(g) is not None
        assert srg_check(g) == pairwise_srg_check(g)

    @pytest.mark.parametrize("name", list(library_srgs()))
    def test_one_edge_toggled(self, name):
        g = library_srgs()[name]
        rnd = random.Random(name)
        u, v = rnd.sample(range(g.n), 2)
        for h in (toggled(g, u, v), toggled(g, 0, g.n - 1)):
            assert pairwise_srg_check(h) is None
            assert srg_check(h) is None

    @pytest.mark.parametrize("name", list(library_srgs()))
    def test_regular_switch(self, name):
        # edges ab, cd -> ac, bd keeps the degrees, so only the common
        # neighbour counts can tell; the last vertex is in the last row block
        g = library_srgs()[name]
        n = g.n
        a = n - 1
        b = g.neighbors(a)[0]
        c, d = next((c, d) for c, d in g.edges()
                    if len({a, b, c, d}) == 4 and not g.adjacent(a, c)
                    and not g.adjacent(b, d))
        h = toggled(toggled(toggled(toggled(g, a, b), c, d), a, c), b, d)
        assert [h.degree(u) for u in range(n)] == [g.degree(u) for u in range(n)]
        assert pairwise_srg_check(h) is None
        assert srg_check(h) is None

    def test_defect_beyond_first_row_block(self):
        # K_257 + cocktail party CP(129) is 256-regular; vertex 0 reads
        # lam = 255, mu = 0, and only rows 257.. (cocktail party edges have
        # 254 common neighbours) break the identity
        m, r = 257, 129
        edges = list(itertools.combinations(range(m), 2))
        edges += [(m + a, m + b) for a, b in itertools.combinations(range(2 * r), 2)
                  if a // 2 != b // 2]
        g = Graph(m + 2 * r, edges)
        assert {g.degree(u) for u in range(g.n)} == {256}
        assert pairwise_srg_check(g) is None
        assert srg_check(g) is None

    def test_two_cliques_have_mu_zero(self):
        for m in range(2, 9):
            g = Graph(2 * m, [(a, b) for a, b in itertools.combinations(range(2 * m), 2)
                              if a // m == b // m])
            assert srg_check(g) == pairwise_srg_check(g) == SrgParams(2 * m, m - 1, m - 2, 0)

    def test_degenerate(self):
        for n in range(8):
            complete = Graph(n, list(itertools.combinations(range(n), 2)))
            for g in (Graph(n), complete):
                assert srg_check(g) is None
                assert pairwise_srg_check(g) is None


def test_rook_and_shrikhande_not_isomorphic_locally():
    # same parameters, different triangle structure through a vertex pair
    assert srg_check(rook(4)) == srg_check(shrikhande())
    assert len(k_cliques(rook(4), 4)) > 0     # rows/columns give K4s
    assert len(k_cliques(shrikhande(), 4)) == 0


class TestKCliques:
    def test_triangle_count_via_edges(self):
        for g, _ in KNOWN:
            tri = k_cliques(g, 3)
            assert len(tri) == len(set(tri))
            per_edge = 0
            for u, v in g.edges():
                per_edge += g.common_count(u, v)
            assert len(tri) == per_edge // 3

    def test_cliques_are_cliques(self):
        g = paley(13)
        for c in k_cliques(g, 3):
            assert list(c) == sorted(c)
            for i in range(3):
                for j in range(i + 1, 3):
                    assert g.adjacent(c[i], c[j])

    @pytest.mark.parametrize("n", [0, 1, 4, 9, 14])
    def test_matches_combinations(self, n):
        # every k-subset that is a clique, in lexicographic order; n = 0 and
        # k > n give none
        rnd = random.Random(n)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2)
                      if rnd.random() < 0.6])
        for k in range(6):
            want = tuple(c for c in itertools.combinations(range(n), k)
                         if all(g.adjacent(u, v) for u, v in itertools.combinations(c, 2)))
            assert k_cliques(g, k) == (want if k else ())

    def test_known_counts(self):
        assert len(k_cliques(paley(13), 3)) == 26
        assert len(k_cliques(rook(4), 3)) == 32
        assert len(k_cliques(shrikhande(), 3)) == 32


class TestLatinSquare:
    def test_cyclic_latin_square_graph(self):
        sq = [[(i + j) % 5 for j in range(5)] for i in range(5)]
        g = latin_square_graph(sq)
        assert srg_check(g) == SrgParams(25, 12, 5, 6)

    def test_shrikhande_is_complement_of_cyclic_order4(self):
        sq = [[(i + j) % 4 for j in range(4)] for i in range(4)]
        assert latin_square_graph(sq).complement() == shrikhande()

    def test_rejects_non_latin(self):
        # the row lengths are checked before any array is built
        for square, message in [([[0, 1], [0, 1]], "bad column"),
                                ([[0, 1], [1]], "bad row"),
                                ([[0, 1, 2], [1, 2, 0]], "bad column")]:
            with pytest.raises(ValueError, match=f"^not a Latin square: {message}$"):
                latin_square_graph(square)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_pairwise_definition(self, n):
        # the cyclic square and seeded row and column shuffles of it
        cyclic = [[(i + j) % n for j in range(n)] for i in range(n)]
        rnd = random.Random(n)
        squares = [cyclic]
        for _ in range(3):
            cols = rnd.sample(range(n), n)
            squares.append([[row[c] for c in cols] for row in rnd.sample(cyclic, n)])
        for sq in squares:
            cells = list(itertools.product(range(n), repeat=2))
            want = {(i, j) for i, j in itertools.combinations(range(n * n), 2)
                    if cells[i][0] == cells[j][0] or cells[i][1] == cells[j][1]
                    or sq[cells[i][0]][cells[i][1]] == sq[cells[j][0]][cells[j][1]]}
            g = latin_square_graph(sq)
            assert (g.n, set(g.edges())) == (n * n, want)


@pytest.mark.parametrize("n", range(1, 7))
def test_rook_matches_pairwise_definition(n):
    cells = list(itertools.product(range(n), repeat=2))
    want = {(i, j) for i, j in itertools.combinations(range(n * n), 2)
            if (cells[i][0] == cells[j][0]) != (cells[i][1] == cells[j][1])}
    g = rook(n)
    assert (g.n, set(g.edges())) == (n * n, want)


def random_graph(n: int, rnd: random.Random) -> Graph:
    """A graph on n vertices with each edge drawn at one random density."""
    p = rnd.random()
    return Graph(n, [e for e in itertools.combinations(range(n), 2) if rnd.random() < p])


@pytest.mark.parametrize("n", [0, 1, 2, 5, 30, 70])
def test_relabel_maps_the_edge_set(n):
    rnd = random.Random(n)
    for _ in range(5):
        g = random_graph(n, rnd)
        perm = rnd.sample(range(n), n)
        h = g.relabel(perm)
        assert h.n == n
        assert set(h.edges()) == {tuple(sorted((perm[u], perm[v]))) for u, v in g.edges()}


class TestGraph6:
    def test_roundtrip_known(self):
        for g, _ in KNOWN:
            assert from_graph6(to_graph6(g)) == g

    def test_header_and_file(self, tmp_path):
        p = tmp_path / "graphs.g6"
        gs = [petersen(), paley(13)]
        p.write_text(">>graph6<<" + to_graph6(gs[0]) + "\n" +
                     to_graph6(gs[1]) + "\n")
        back = read_graph6_file(p)
        assert back == gs

    def test_file_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "graphs.g6"
        p.write_text(f"# two graphs\n\n{to_graph6(petersen())}  # petersen\n"
                     f"\n{to_graph6(rook(3))}\n")
        assert read_graph6_file(p) == [petersen(), rook(3)]

    def test_large_n_prefix(self):
        g = Graph(70, [(i, (i + 1) % 70) for i in range(70)])
        s = to_graph6(g)
        assert s[0] == chr(126)
        assert from_graph6(s) == g

    def test_malformed_rejected(self):
        with pytest.raises(MalformedGraph6):
            from_graph6("")
        with pytest.raises(MalformedGraph6):
            from_graph6(chr(3))            # character below printable range
        with pytest.raises(MalformedGraph6):
            from_graph6("D" + "~" * 9)     # wrong body length
        # nonzero padding bits: bump the final data value so its lowest
        # (padding) bit becomes 1
        good = to_graph6(Graph(5, [(0, 1)]))
        assert ord(good[-1]) == 63  # final char carries only zero bits here
        bad = good[:-1] + chr(ord(good[-1]) + 1)
        with pytest.raises(MalformedGraph6):
            from_graph6(bad)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 62, 63, 64, 100])
def test_graph6_matches_networkx(n):
    # an independent writer and reader: a bit-order error made alike in
    # to_graph6 and from_graph6 would still round-trip; n > 62 takes the
    # four-character size field
    nx = pytest.importorskip("networkx")
    rnd = random.Random(n)
    for _ in range(3):
        g = random_graph(n, rnd)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges())
        s = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert to_graph6(g) == s
        back = nx.from_graph6_bytes(s.encode())
        assert from_graph6(s) == Graph(back.number_of_nodes(), back.edges()) == g


@settings(max_examples=40)
@given(st.integers(2, 40), st.data())
def test_graph6_roundtrip_random(n, data):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if data.draw(st.booleans()):
                edges.append((u, v))
    g = Graph(n, edges)
    assert from_graph6(to_graph6(g)) == g


@settings(max_examples=25)
@given(st.randoms(use_true_random=False))
def test_srg_check_invariant_under_relabeling(rnd):
    g = paley(13)
    perm = list(range(13))
    rnd.shuffle(perm)
    assert srg_check(g.relabel(perm)) == srg_check(g)


def test_make_graph_specs():
    assert make_graph("petersen") == petersen()
    assert make_graph("paley(17)") == paley(17)
    assert make_graph("rook(4)") == rook(4)
    assert make_graph("shrikhande") == shrikhande()
    assert srg_check(make_graph("complement(petersen)")) == \
        SrgParams(10, 6, 3, 4)
    assert srg_check(make_graph("latin_square_cyclic(6)")) == \
        SrgParams(36, 15, 6, 6)
    with pytest.raises(ValueError):
        make_graph("mystery(3)")


@pytest.mark.parametrize("spec", ["paley(5,1)", "petersen()",
                                  "hoffman_singleton(99)", "rook", "rook()",
                                  "complement(petersen,petersen)"])
def test_make_graph_rejects_wrong_arguments(spec):
    with pytest.raises(ValueError, match=re.escape(repr(spec))):
        make_graph(spec)


def test_graph6_path_taken_verbatim(tmp_path):
    path = tmp_path / "a,b.g6"
    path.write_text(to_graph6(petersen()) + "\n" + to_graph6(rook(3)) + "\n")
    assert make_graph(f"graph6({path})") == petersen()
    assert make_graph(f"graph6({path}:1)") == rook(3)


@pytest.mark.parametrize("n", [0, -1])
def test_rook_lower_bound(n):
    with pytest.raises(ValueError, match="rook needs n >= 1"):
        rook(n)
