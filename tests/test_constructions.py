"""Construction families: planes, triangle removal, Moore geometries, LP(4,q),
difference set developments."""

import hashlib
import itertools

import pytest

from srcfg import incidence
from srcfg.algebra import cyclic, direct_product, symmetric
from srcfg.catalog import grid_sdds, published_entries, z13_entry
from srcfg.constructions import (NotDeficient, NotMooreGraph, OrderTooSmall,
                                 development, lp4, moore_configuration,
                                 projective_plane, triangle_removal)
from srcfg.graphs import hoffman_singleton, petersen, rook, srg_check
from srcfg.incidence import (Configuration, InvalidConfiguration, alpha_spectrum,
                             dual, is_valid, line_graph, point_graph,
                             src_check, SrcParams, validate)
from srcfg.iso import are_isomorphic
from srcfg.sdds import sdds_search


def _z6_squared_developments():
    group = direct_product(cyclic(6), cyclic(6))
    return [development(group, d) for d in sdds_search(group, 5, 10, 12)]


# every builder output that the tests, the CLI and the claims use, one
# list per case: the builders do not validate what they build
BUILT = [
    *[pytest.param(lambda q=q: [projective_plane(q)], id=f"plane-{q}")
      for q in (2, 3, 4, 5, 7, 8, 9)],
    *[pytest.param(lambda q=q: [triangle_removal(projective_plane(q))],
                   id=f"triangle-removal-{q}") for q in (5, 7, 8, 9)],
    pytest.param(lambda: [moore_configuration(petersen())], id="moore-petersen"),
    pytest.param(lambda: [moore_configuration(hoffman_singleton())],
                 id="moore-hoffman-singleton"),
    *[pytest.param(lambda q=q, h=h, p=p: [lp4(q, hyperplane_polarity=h,
                                              point_polarity=p)],
                   id=f"lp4-{q}-{'h' if h else ''}{'p' if p else ''}")
      for q in (2, 3) for h in (False, True) for p in (False, True)],
    pytest.param(lambda: [lp4(4)], id="lp4-4"),
    pytest.param(lambda: [development(e.group, e.subset)
                          for e in published_entries()], id="catalog"),
    *[pytest.param(lambda q=q: [development(*grid_sdds(q)[:2])],
                   id=f"grid-{q}") for q in (5, 7, 8, 9)],
    pytest.param(_z6_squared_developments, id="z6xz6"),
]


@pytest.mark.parametrize("build", BUILT)
def test_builder_output_valid(build):
    configs = build()
    assert configs
    for c in configs:
        assert validate(c) == [], c


def test_builders_do_not_validate_their_output():
    incidence._validation.cache_clear()
    plane = projective_plane(5)
    assert is_valid(plane)   # triangle_removal checks its input plane
    before = incidence._validation.cache_info()
    triangle_removal(plane)
    projective_plane(3)
    moore_configuration(petersen())
    lp4(2, hyperplane_polarity=True, point_polarity=True)
    development(cyclic(13), (7, 8, 11))
    after = incidence._validation.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)


class TestProjectivePlane:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_plane(self, q):
        c = projective_plane(q)
        assert (c.v, c.k) == (q * q + q + 1, q + 1)
        assert is_valid(c)
        masks = [sum(1 << p for p in line) for line in c.lines]
        for a, b in itertools.combinations(masks, 2):
            assert a & b  # any two lines meet

    def test_self_dual_parameters(self):
        c = projective_plane(3)
        d = dual(c)
        assert (d.v, d.k) == (c.v, c.k)
        assert is_valid(d)


class TestTriangleRemoval:
    @pytest.mark.parametrize("n", [5, 7, 8, 9, 11])
    def test_parameters(self, n):
        c = triangle_removal(projective_plane(n))
        expected = SrcParams((n - 1) ** 2, n - 2,
                             (n - 4) ** 2 + 1, (n - 3) * (n - 4))
        assert src_check(c) == expected

    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_spectrum_window(self, n):
        c = triangle_removal(projective_plane(n))
        values = {alpha for alpha, _ in alpha_spectrum(c).spectrum}
        assert values <= set(range(n - 5, n - 1))
        assert len(values) >= 3

    def test_small_order_rejected(self):
        with pytest.raises(OrderTooSmall):
            triangle_removal(projective_plane(4))

    def test_non_plane_rejected(self):
        with pytest.raises(InvalidConfiguration):
            triangle_removal(development(cyclic(13), (7, 8, 11)))
        # plane-sized, (31_6), but a line repeated: not a configuration
        plane = projective_plane(5)
        repeated = Configuration(plane.v, plane.k,
                                 (plane.lines[0],) + plane.lines[:-1])
        with pytest.raises(InvalidConfiguration):
            triangle_removal(repeated)


class TestMoore:
    def test_petersen(self):
        c = moore_configuration(petersen())
        assert src_check(c) == SrcParams(10, 3, 3, 4)
        assert dual(c) == c
        assert point_graph(c) == petersen().complement()

    def test_hoffman_singleton(self):
        c = moore_configuration(hoffman_singleton())
        assert src_check(c) == SrcParams(50, 7, 35, 36)

    def test_rejects_non_moore(self):
        with pytest.raises(NotMooreGraph):
            moore_configuration(rook(4))


@pytest.fixture(scope="module")
def variants():
    return {(h, p): lp4(2, hyperplane_polarity=h, point_polarity=p)
            for h in (False, True) for p in (False, True)}


class TestLp4:
    def test_parameters(self, variants):
        for c in variants.values():
            assert src_check(c) == SrcParams(155, 7, 17, 9)

    def test_point_graph_ignores_hyperplane_polarity(self, variants):
        for p in (False, True):
            assert (point_graph(variants[(False, p)])
                    == point_graph(variants[(True, p)]))

    def test_line_graph_ignores_point_polarity(self, variants):
        for h in (False, True):
            assert (line_graph(variants[(h, False)])
                    == line_graph(variants[(h, True)]))

    def test_polarities_change_incidence(self, variants):
        assert len({v.lines for v in variants.values()}) == 4

    def test_flags_off_is_semipartial(self, variants):
        geo = alpha_spectrum(variants[(False, False)])
        assert geo.kind == "semipartial_geometry"

    def test_hyperplane_side_general(self, variants):
        geo = alpha_spectrum(variants[(True, False)])
        assert geo.kind == "general"
        assert 7 in dict(geo.spectrum)

    def test_dual_pair(self, variants):
        assert are_isomorphic(dual(variants[(True, False)]),
                              variants[(False, True)])


# the sha256 of repr(lp4(q, ...).lines), pinned from the set-based
# builder that the array one replaced: all four variants, q = 2, 3, 4
@pytest.mark.parametrize("q, hyperplane, point, sha256", [
    (2, False, False, "adaf627759f1297331e944a84e6db233a85411730d00bec45f9fde3453ccac37"),
    (2, False, True, "c3a7555af18bf449ab688fb9eec74d383dc2f9634ec686beffa18eb01aad27d9"),
    (2, True, False, "5ebadc2f68bd815e7cf21209b27134bfcccfc08325d6e3be921081cd492ef0d6"),
    (2, True, True, "a9f36f63cd60eeb75cbaf7bd361b738127059804971fde4ee936d3bcea1359f7"),
    (3, False, False, "683637dfcab470bc65847542bcf4645e384cc1e377b6bd4fdd856a3f8e601da9"),
    (3, False, True, "153f19642a6d9d9ba6f89c5776c599a41788976f217ea12970f016029c284476"),
    (3, True, False, "c3d54bf2ff4d9574a64d6d2322b95054eefe1cc28b765ca3a5b90b2695e6755a"),
    (3, True, True, "9bde4c9a2fe9385c87da044775e213f6071c9a8c909b29531c2c30bc00cd326c"),
    (4, False, False, "ec5ff52dcc1f23038896655a3d7958572302ff0b5c9e5e9b157a409f5911161b"),
    (4, False, True, "37016393cb4ac4925489b769f32e877575a537c20296bb855c21cc59c5aa585a"),
    (4, True, False, "d673918373c641c477b555e1ce302873b36529f39baf44c1b7c8376f3de870c9"),
    (4, True, True, "345b15a197fbb46e3eeb8c0b4b1905968fbe5f52eebe0588f85823465fefe06b"),
])
def test_lp4_lines_pinned(q, hyperplane, point, sha256):
    c = lp4(q, hyperplane_polarity=hyperplane, point_polarity=point)
    assert hashlib.sha256(repr(c.lines).encode()).hexdigest() == sha256


class TestDevelopment:
    def test_z13(self):
        c = development(cyclic(13), (7, 8, 11))
        assert src_check(c) == SrcParams(13, 3, 2, 3)

    def test_translation_automorphism(self):
        g = cyclic(13)
        c = development(g, (7, 8, 11))
        for h in (1, 5, 9):
            mapped = sorted(tuple(sorted(g.mul(h, p) for p in line))
                            for line in c.lines)
            assert tuple(mapped) == c.lines

    def test_nonabelian_development(self):
        entry = z13_entry()
        c = development(entry.group, entry.subset)
        assert src_check(c) == entry.params

    def test_repeated_difference_rejected(self):
        with pytest.raises(NotDeficient):
            development(cyclic(13), (0, 1, 2))
        with pytest.raises(NotDeficient):
            development(symmetric(3), (0, 1, 2, 3))

    @pytest.mark.parametrize("subset", [(), (5,)])
    def test_fewer_than_two_elements_rejected(self, subset):
        with pytest.raises(ValueError, match="at least 2"):
            development(cyclic(13), subset)

    def test_repeated_element_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            development(cyclic(13), (7, 7, 8, 11))

    @pytest.mark.parametrize("subset", [(-1, 1, 4), (1, 4, 13), (0, 1, 99)],
                             ids=["negative", "order", "beyond-order"])
    def test_elements_outside_the_group_rejected(self, subset):
        with pytest.raises(ValueError, match="outside"):
            development(cyclic(13), subset)

    @pytest.mark.parametrize("q", [5, 7])
    def test_grid_route_matches_triangle_removal(self, q):
        group, subset, params = grid_sdds(q)
        c = development(group, subset)
        assert src_check(c) == params
        assert params == SrcParams((q - 1) ** 2, q - 2,
                                   (q - 4) ** 2 + 1, (q - 3) * (q - 4))
        assert are_isomorphic(c, triangle_removal(projective_plane(q)))

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_grid_needs_q_at_least_5(self, q):
        with pytest.raises(ValueError, match="q >= 5"):
            grid_sdds(q)
