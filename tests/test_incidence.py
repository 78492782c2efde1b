"""Configurations: validation, duality, parameter checks, spectra, I/O."""

import functools
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srcfg import claims, incidence
from srcfg.algebra import cyclic
from srcfg.catalog import entry_by_name, published_entries
from srcfg.constructions import (development, lp4, moore_configuration,
                                 projective_plane)
from srcfg.graphs import Graph, petersen, srg_check
from srcfg.incidence import (Configuration, InvalidConfiguration, SrcParams,
                             Violation, alpha_spectrum,
                             configuration_from_json, configuration_to_dict,
                             dual, is_proper, is_valid, line_graph,
                             point_graph, read_configuration, src_check,
                             validate, write_configuration)


def gq22() -> Configuration:
    """The generalized quadrangle of order 2: points are the 15 unordered
    pairs from a 6-set, lines are the 15 partitions of the 6-set into three
    pairs; a (15_3;1,3) partial geometry."""
    duads = list(itertools.combinations(range(6), 2))
    index = {d: i for i, d in enumerate(duads)}
    lines = []
    for p in itertools.permutations(range(1, 6)):
        a, b, c, d, e = p
        cand = tuple(sorted((0, a))), tuple(sorted((b, c))), tuple(sorted((d, e)))
        line = tuple(sorted(index[x] for x in cand))
        if line not in lines:
            lines.append(line)
    lines = [ln for ln in lines
             if len({x for d in ln for x in duads[d]}) == 6]
    return Configuration.from_lines(15, 3, sorted(lines))


def z13_config() -> Configuration:
    return development(cyclic(13), (7, 8, 11))


class TestValidation:
    def test_valid_examples(self):
        assert is_valid(gq22())
        assert is_valid(z13_config())
        assert validate(gq22()) == []

    def test_list_lines_normalized(self):
        c = Configuration(3, 2, [[0, 1], [1, 2], [0, 2]])
        twin = Configuration(3, 2, ((0, 1), (1, 2), (0, 2)))
        assert c == twin and hash(c) == hash(twin)
        assert is_valid(c)
        assert src_check(c) is None

    def test_violations_reported(self):
        # wrong line size, duplicate point, out-of-range point
        c = Configuration(4, 2, ((0, 1), (0, 1, 2), (3, 3), (2, 9)))
        kinds = {v.kind for v in validate(c)}
        assert "line_size" in kinds
        assert "duplicate_point" in kinds
        assert "point_range" in kinds

    def test_pair_covered_twice(self):
        c = Configuration(4, 2, ((0, 1), (0, 1), (2, 3), (2, 3)))
        kinds = {v.kind for v in validate(c)}
        assert "pair_covered_twice" in kinds

    def test_wrong_point_degree(self):
        c = Configuration(3, 2, ((0, 1), (0, 1), (0, 2)))
        kinds = {v.kind for v in validate(c)}
        assert kinds  # degree and pair violations both fire


def dict_validate(c: Configuration) -> list[Violation]:
    """validate with a dict of every covered pair: the reference."""
    out = []
    if len(c.lines) != c.v:
        out.append(Violation("line_count", (len(c.lines),),
                             f"expected {c.v} lines, got {len(c.lines)}"))
    degree = [0] * c.v
    seen_pairs = {}
    for j, line in enumerate(c.lines):
        if len(line) != c.k:
            out.append(Violation("line_size", (j,), f"line {j} has {len(line)} points"))
        if len(set(line)) != len(line):
            out.append(Violation("duplicate_point", (j,), f"line {j} repeats a point"))
        for p in line:
            if not 0 <= p < c.v:
                out.append(Violation("point_range", (j, p), f"point {p} out of range on line {j}"))
            else:
                degree[p] += 1
        pts = sorted(set(x for x in line if 0 <= x < c.v))
        for pair in itertools.combinations(pts, 2):
            if pair in seen_pairs:
                out.append(Violation("pair_covered_twice", (*pair, seen_pairs[pair], j),
                                     f"points {pair} on lines {seen_pairs[pair]} and {j}"))
            else:
                seen_pairs[pair] = j
    for p, deg in enumerate(degree):
        if deg != c.k:
            out.append(Violation("point_degree", (p,), f"point {p} lies on {deg} lines"))
    return out


def test_validate_matches_pair_dict():
    rnd = random.Random(12)
    for _ in range(300):
        v = rnd.randint(1, 12)
        k = rnd.randint(1, 4)
        lines = tuple(tuple(rnd.randint(-1, v) for _ in range(rnd.randint(0, k + 1)))
                      for _ in range(rnd.randint(v - 1, v + 1)))
        c = Configuration(v, k, lines)
        assert validate(c) == dict_validate(c), c
    for c in [gq22(), z13_config(), lp4(2)]:
        assert validate(c) == dict_validate(c) == []


def mutants(c: Configuration, rnd: random.Random):
    """Corruptions of a valid configuration c: a point moved to another
    line or out of range, a line duplicated, shortened or dropped, two
    points swapped between lines (degrees kept) and k changed."""
    lines = [list(ln) for ln in c.lines]
    v, k = c.v, c.k

    def with_line(j, line):
        return Configuration(v, k, lines[:j] + [line] + lines[j + 1:])

    for _ in range(4):
        i, j = rnd.sample(range(v), 2)
        p = rnd.choice(lines[j])
        q = rnd.choice([x for x in range(v) if x not in lines[j]])
        yield with_line(j, [q if x == p else x for x in lines[j]])
        yield with_line(j, [rnd.choice((-1, v)) if x == p else x
                            for x in lines[j]])
        yield with_line(j, lines[i])
        yield with_line(j, lines[j][1:])
        yield Configuration(v, k, lines[:j] + lines[j + 1:])
        a, b = rnd.choice(lines[i]), rnd.choice(lines[j])
        if a not in lines[j] and b not in lines[i]:
            swapped = [ln[:] for ln in lines]
            swapped[i] = [b if x == a else x for x in lines[i]]
            swapped[j] = [a if x == b else x for x in lines[j]]
            yield Configuration(v, k, swapped)
    yield Configuration(v, k + 1, lines)
    yield Configuration(v, k - 1, lines)


def test_counts_agree_with_enumeration():
    # for k >= 1, validity read from the counts alone
    # (incidence._counted_rows returns rows) holds exactly when the pair-by-pair
    # enumeration finds nothing, on valid configurations, their
    # relabellings and their mutants
    rnd = random.Random(32)
    base = [gq22(), z13_config(), lp4(2), moore_configuration(petersen()),
            projective_plane(3), Configuration(3, 1, [[2], [0], [1]]),
            Configuration(2, 0, [[], []]), Configuration(0, 3, [])]
    base += [development(e.group, e.subset) for e in published_entries()]
    seen = 0
    for c in base:
        perm = rnd.sample(range(c.v), c.v)
        relabelled = Configuration(c.v, c.k, [[perm[p] for p in ln]
                                              for ln in c.lines])
        for m in [c, relabelled, *mutants(c, rnd)] if c.v > 2 else [c]:
            found = incidence._enumerate_violations(m)
            if m.k > 0:     # with k = 0 no row holds its own point
                assert (incidence._counted_rows(m) is not None) == (not found), m
            assert is_valid(m) == (not found), m
            assert validate(m) == list(found) == dict_validate(m), m
            seen += 1
    assert seen > 200


Z13_LINES = [list(ln) for ln in z13_config().lines]


# validate() of three corruptions of the (13_3;2,3) development, as listed
# before validity was read from counts: a point of line 2 moved, line 3
# written twice, and line 6 shortened with point 13 put on line 7.
@pytest.mark.parametrize("lines, listed", [
    pytest.param(Z13_LINES[:2] + [[0, 9, 12]] + Z13_LINES[3:], [
        ("pair_covered_twice", (0, 12, 1, 2), "points (0, 12) on lines 1 and 2"),
        ("pair_covered_twice", (9, 12, 2, 12), "points (9, 12) on lines 2 and 12"),
        ("point_degree", (10,), "point 10 lies on 2 lines"),
        ("point_degree", (12,), "point 12 lies on 4 lines"),
    ], id="moved"),
    pytest.param(Z13_LINES[:4] + [Z13_LINES[3]] + Z13_LINES[5:], [
        ("pair_covered_twice", (1, 2, 3, 4), "points (1, 2) on lines 3 and 4"),
        ("pair_covered_twice", (1, 5, 3, 4), "points (1, 5) on lines 3 and 4"),
        ("pair_covered_twice", (2, 5, 3, 4), "points (2, 5) on lines 3 and 4"),
        ("point_degree", (2,), "point 2 lies on 4 lines"),
        ("point_degree", (5,), "point 5 lies on 4 lines"),
        ("point_degree", (10,), "point 10 lies on 2 lines"),
        ("point_degree", (11,), "point 11 lies on 2 lines"),
    ], id="duplicated"),
    pytest.param(Z13_LINES[:6] + [[2, 11], [3, 4, 13]] + Z13_LINES[8:], [
        ("line_size", (6,), "line 6 has 2 points"),
        ("point_range", (7, 13), "point 13 out of range on line 7"),
        ("point_degree", (7,), "point 7 lies on 2 lines"),
        ("point_degree", (12,), "point 12 lies on 2 lines"),
    ], id="short-and-out-of-range"),
])
def test_corrupted_validate_pinned(lines, listed):
    c = Configuration(13, 3, lines)
    assert validate(c) == [Violation(*row) for row in listed]
    assert not is_valid(c)


class TestDual:
    def test_involution_exact(self):
        for c in (gq22(), z13_config()):
            assert dual(dual(c)) == c

    def test_dual_preserves_parameters(self):
        for c in (gq22(), z13_config()):
            assert src_check(dual(c)) == src_check(c)

    def test_dual_of_moore_is_itself(self):
        c = moore_configuration(petersen())
        assert dual(c) == c


class TestSrcCheck:
    def test_gq22(self):
        p = src_check(gq22())
        assert p == SrcParams(15, 3, 1, 3)
        assert p.d == 6
        assert str(p) == "(15_3;1,3)"

    def test_line_graph_params_match(self):
        # the theorem src_check relies on instead of building the line graph
        fano = projective_plane(2)
        two_fanos = Configuration.from_lines(
            14, 3, fano.lines + tuple(tuple(p + 7 for p in ln) for ln in fano.lines))
        entry = entry_by_name("q8q8_hall")
        hall = development(entry.group, entry.subset)
        twisted = lp4(2, hyperplane_polarity=True)
        assert point_graph(twisted) != line_graph(twisted)
        for c in (gq22(), z13_config(), moore_configuration(petersen()),
                  two_fanos, twisted, hall):
            p = srg_check(point_graph(c))
            assert p is not None
            assert srg_check(line_graph(c)) == p
            assert src_check(c).graph_params() == p
        assert str(src_check(two_fanos)) == "(14_3;5,0)"

    def test_divisibility_identity(self):
        for c in (gq22(), z13_config()):
            p = src_check(c)
            d = p.d
            assert (p.v - 1 - d) * p.mu == d * (d - 1 - p.lam)

    def test_lines_of_no_points(self):
        # k = 0: valid, but no row passes the counts, so the collinearity
        # rows are built again for the point graph
        c = Configuration(2, 0, [[], []])
        assert is_valid(c)
        assert src_check(c) is None
        assert not is_proper(c)

    def test_none_for_nonregular(self):
        # a linear space that is not strongly regular: the Fano plane has a
        # complete point graph
        fano = Configuration.from_lines(7, 3, [
            (0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5),
            (1, 4, 6), (2, 3, 6), (2, 4, 5)])
        assert is_valid(fano)
        assert src_check(fano) is None


class TestSpectrum:
    def test_gq22_is_partial_geometry(self):
        geo = alpha_spectrum(gq22())
        assert geo.kind == "partial_geometry"
        assert geo.alpha == 1
        assert geo.spectrum == ((1, 180),)

    def test_partial_geometry_forces_clique_equality(self):
        # kind = partial_geometry implies (v-k)(lam+1) = k(k-1)^3
        c = gq22()
        geo = alpha_spectrum(c)
        p = src_check(c)
        assert geo.kind == "partial_geometry"
        assert (p.v - p.k) * (p.lam + 1) == p.k * (p.k - 1) ** 3

    def test_moore_is_semipartial(self):
        geo = alpha_spectrum(moore_configuration(petersen()))
        assert geo.kind == "semipartial_geometry"
        assert geo.alpha == 2
        assert geo.mu == 4
        assert geo.spectrum == ((0, 10), (2, 60))

    def test_mobius_kantor_is_alpha_beta(self):
        # the Mobius-Kantor configuration 8_3: alpha takes two values,
        # neither of them 0
        c = development(cyclic(8), (0, 1, 3))
        geo = alpha_spectrum(c)
        assert (geo.kind, geo.alpha, geo.beta) == ("alpha_beta", 2, 3)
        assert geo.spectrum == ((2, 24), (3, 16))
        assert str(src_check(c)) == "(8_3;4,6)"

    def test_z13_is_general(self):
        geo = alpha_spectrum(z13_config())
        assert geo.kind == "general"
        assert sum(n for _, n in geo.spectrum) == 13 * (13 - 3)

    @pytest.mark.parametrize("c", [Configuration(3, 1, ((0,), (1,), (2,))),
                                   Configuration(3, 0, ((), (), ()))],
                             ids=["k1", "k0"])
    def test_alpha_zero_everywhere_is_general(self, c):
        # a partial geometry needs alpha >= 1
        geo = alpha_spectrum(c)
        assert geo.kind == "general"
        assert geo.spectrum == ((0, c.v * (c.v - c.k)),)


@functools.cache
def oracle_configurations() -> list[Configuration]:
    """The pipelines' configurations and the catalog developments, with
    their duals."""
    configs = claims._all_produced_configurations()
    configs += [development(e.group, e.subset) for e in published_entries()]
    return configs + [dual(c) for c in configs]


def edge_set_point_graph(c: Configuration) -> Graph:
    """Points adjacent iff some line holds both: the definition."""
    edges = set()
    for line in c.lines:
        edges.update(itertools.combinations(line, 2))
    return Graph(c.v, edges)


def antiflag_loop(c: Configuration) -> dict[int, int]:
    """alpha(P, L) counted antiflag by antiflag."""
    g = point_graph(c)
    hist = {}
    for line in c.lines:
        mask = sum(1 << p for p in line)
        for p in set(range(c.v)) - set(line):
            a = (g.rows[p] & mask).bit_count()
            hist[a] = hist.get(a, 0) + 1
    return dict(sorted(hist.items()))


class TestAgainstDefinitions:
    def test_point_graph(self):
        for c in oracle_configurations():
            assert point_graph(c) == edge_set_point_graph(c), c
            assert line_graph(c) == edge_set_point_graph(dual(c)), c

    def test_point_graph_lp4_3(self):
        c = lp4(3)
        assert point_graph(c) == edge_set_point_graph(c)

    def test_antiflag_spectrum(self):
        for c in oracle_configurations():
            assert dict(alpha_spectrum(c).spectrum) == antiflag_loop(c), c

    @pytest.mark.parametrize("lines", [((0, 1), (1, 1), (0, 2)),
                                       ((0, 1), (1, 3), (0, 2)),
                                       ((0, 1), (-1, 2), (0, 2))],
                             ids=["repeated", "out_of_range", "negative"])
    def test_bad_point_raises(self, lines):
        with pytest.raises(ValueError):
            point_graph(Configuration(3, 2, lines))


class TestProper:
    def test_gq22_improper(self):
        # partial geometries in the equality case have singular incidence
        assert not is_proper(gq22())

    def test_z13_proper(self):
        assert is_proper(z13_config())

    def test_closed_form_matches_rank(self):
        # N's singular values are sqrt(k+d), sqrt|k+r| and sqrt|k+s|: zero
        # or far from it, so the floating-point rank is a sound oracle
        configs = claims._all_produced_configurations() + [gq22()]
        for c in configs:
            assert src_check(c) is not None
            n = np.zeros((c.v, c.v))
            for j, line in enumerate(c.lines):
                n[list(line), j] = 1
            assert is_proper(c) == (np.linalg.matrix_rank(n) == c.v), c
        assert not all(is_proper(c) for c in configs)

    def test_fallback_on_non_src(self):
        plane = projective_plane(3)
        assert src_check(plane) is None
        assert is_proper(plane)
        g = gq22()
        twice = Configuration.from_lines(
            30, 3, g.lines + tuple(tuple(p + 15 for p in ln) for ln in g.lines))
        assert src_check(twice) is None
        assert not is_proper(twice)


# taken at import, so that a test may wrap the module attributes
CACHED_ANALYSES = (incidence._validation, src_check)


def empty_caches():
    """Drop every cached analysis, so that each configuration is met fresh
    whatever ran before."""
    for cached in CACHED_ANALYSES:
        cached.cache_clear()


class TestOneAnalysis:
    def test_helpers_called_once_per_configuration(self, monkeypatch):
        configs = [gq22(), moore_configuration(petersen()), lp4(2),
                   z13_config()]
        helpers = ["_counted_rows", "_collinearity_rows", "point_graph",
                   "line_graph"]
        names = helpers + ["srg_check"]
        calls = {}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in helpers:
            monkeypatch.setattr(incidence, name,
                                counted(name, getattr(incidence, name)))
        # src_check runs srg_check's undecorated body
        monkeypatch.setattr(incidence.srg_check, "__wrapped__",
                            counted("srg_check", srg_check.__wrapped__))
        empty_caches()
        for c in configs:
            calls.update(dict.fromkeys(names, 0))
            src_check(c)
            is_proper(c)
            alpha_spectrum(c)
            # one validation and srg_check for c, and one build of the
            # collinearity rows, which prove c valid and are its point
            # graph; src_check builds no line graph
            assert calls == {"_counted_rows": 1, "_collinearity_rows": 1,
                             "point_graph": 0, "line_graph": 0,
                             "srg_check": 1}, c
            # validate and is_valid read the same cached validation
            before = CACHED_ANALYSES[0].cache_info()
            assert validate(c) == [] and is_valid(c)
            after = CACHED_ANALYSES[0].cache_info()
            assert (after.hits - before.hits,
                    after.misses - before.misses) == (2, 0), c

    def test_point_graph_not_kept_by_srg_check(self):
        # srg_check's cache is for graphs that callers hold: src_check
        # passes it the point graph of a fresh configuration uncached
        c = development(cyclic(13), (7, 8, 11))
        empty_caches()
        srg_check.cache_clear()
        assert str(src_check(c)) == "(13_3;2,3)"
        assert srg_check.cache_info().currsize == 0

    def test_rows_built_once_for_a_fresh_configuration(self, monkeypatch):
        # src_check validates c and builds its point graph from one set of
        # collinearity rows, and later validations read the cache
        rows_of = incidence._collinearity_rows
        builds = []
        monkeypatch.setattr(incidence, "_collinearity_rows",
                            lambda c: builds.append(c) or rows_of(c))
        perm = random.Random(3).sample(range(155), 155)
        c = Configuration.from_lines(155, 7, [[perm[p] for p in ln]
                                              for ln in lp4(2).lines])
        empty_caches()
        assert str(src_check(c)) == "(155_7;17,9)"
        incidence.require_valid(c)
        assert validate(c) == [] and is_valid(c)
        assert alpha_spectrum(c).kind == "semipartial_geometry"
        assert builds == [c]

    def test_antiflag_spectrum_returns_a_fresh_dict(self):
        c = moore_configuration(petersen())
        empty_caches()
        hist = dict(alpha_spectrum(c).spectrum)
        hist[0] += 1
        hist[7] = 1
        assert dict(alpha_spectrum(c).spectrum) == {0: 10, 2: 60}
        assert alpha_spectrum(c).spectrum == ((0, 10), (2, 60))

    def test_invalid_raises_on_every_call(self):
        c = Configuration(4, 2, ((0, 1), (0, 1), (2, 3), (2, 3)))
        empty_caches()
        for fn in (src_check, is_proper, alpha_spectrum):
            for _ in range(2):
                with pytest.raises(InvalidConfiguration):
                    fn(c)

    def test_call_order_does_not_matter(self):
        # partial and semipartial geometries, a general SRC, and the
        # projective plane of order 3, whose point graph is complete
        configs = [gq22(), moore_configuration(petersen()), lp4(2),
                   z13_config(), projective_plane(3)]
        empty_caches()
        spectrum_first = [(alpha_spectrum(c), src_check(c)) for c in configs]
        empty_caches()
        params = [src_check(c) for c in configs]
        params_first = [(alpha_spectrum(c), p) for c, p in zip(configs, params)]
        assert spectrum_first == params_first
        assert [(geo.kind, p is None) for geo, p in spectrum_first] == [
            ("partial_geometry", False), ("semipartial_geometry", False),
            ("semipartial_geometry", False), ("general", False),
            ("partial_geometry", True)]


class TestIO:
    def test_text_roundtrip(self, tmp_path):
        c = z13_config()
        p = tmp_path / "c.cfg"
        write_configuration(c, p)
        assert read_configuration(p) == c

    @pytest.mark.parametrize("v", [0, 1, 3])
    def test_text_roundtrip_without_points(self, tmp_path, v):
        # each line is empty and written blank
        c = Configuration(v, 0, ((),) * v)
        assert validate(c) == []
        p = tmp_path / "c.cfg"
        write_configuration(c, p)
        assert read_configuration(p) == c

    def test_empty_lines_backed_by_the_file(self, tmp_path):
        # the blank lines of a k = 0 file are its lines: a header alone
        # gives none, so a huge v sizes nothing
        p = tmp_path / "c.cfg"
        p.write_text("1000000000 0\n")
        with pytest.raises(ValueError, match="expected 1000000000 lines, got 0"):
            read_configuration(p)

    def test_json_roundtrip(self, tmp_path):
        c = gq22()
        text = json.dumps(configuration_to_dict(c))
        assert configuration_from_json(text) == c
        p = tmp_path / "c.json"
        p.write_text(text)
        assert read_configuration(p) == c

    def test_comments_and_blank_lines(self, tmp_path):
        c = z13_config()
        p = tmp_path / "c.cfg"
        body = [" ".join(map(str, ln)) + "  # a line" for ln in c.lines]
        p.write_text("# z13\n\n13 3\n" + "\n\n".join(body) + "\n")
        assert read_configuration(p) == c

    @pytest.mark.parametrize("text, v", [
        ("5 2\n0 1\n1 2\n", 5),
        ('{"v": 5, "k": 2, "lines": [[0, 1], [1, 2]]}', 5),
        ("1 2\n0 1\n1 2\n", 1)])
    def test_header_must_count_lines(self, tmp_path, text, v):
        p = tmp_path / "short.cfg"
        p.write_text(text)
        with pytest.raises(ValueError) as err:
            read_configuration(p)
        assert str(err.value) == f"{p}: expected {v} lines, got 2"


@settings(max_examples=25)
@given(st.randoms(use_true_random=False))
def test_dual_involution_random_relabelings(rnd):
    c = z13_config()
    perm = list(range(13))
    rnd.shuffle(perm)
    lines = sorted(tuple(sorted(perm[x] for x in ln)) for ln in c.lines)
    relabeled = Configuration.from_lines(13, 3, lines)
    assert dual(dual(relabeled)) == relabeled
    assert src_check(relabeled) == src_check(c)
