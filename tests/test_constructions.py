"""Construction families: planes, triangle removal, Moore geometries, LP(4,q),
difference set developments."""

import itertools

import pytest

from srcfg.algebra import cyclic, symmetric
from srcfg.catalog import grid_sdds, z13_entry
from srcfg.constructions import (CollinearTriple, NotDeficient, NotMooreGraph,
                                 OrderTooSmall, development, lp4,
                                 moore_configuration, projective_plane,
                                 triangle_removal)
from srcfg.graphs import hoffman_singleton, petersen, rook, srg_check
from srcfg.incidence import (Configuration, InvalidConfiguration, alpha_spectrum,
                             dual, is_valid, line_graph, point_graph,
                             src_check, SrcParams)
from srcfg.iso import are_isomorphic, canonical_form


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

    def test_triangle_choice_free(self):
        # different triangles give isomorphic results on PG(2,5)
        plane = projective_plane(5)
        base = triangle_removal(plane)
        line_sets = [frozenset(l) for l in plane.lines]
        other_triangle = next(
            t for t in itertools.combinations(range(plane.v - 8, plane.v), 3)
            if not any(set(t) <= s for s in line_sets))
        other = triangle_removal(plane, triangle=other_triangle)
        assert src_check(other) == src_check(base)
        assert canonical_form(other) == canonical_form(base)

    def test_collinear_triangle_rejected(self):
        plane = projective_plane(5)
        line = plane.lines[0]
        with pytest.raises(CollinearTriple):
            triangle_removal(plane, triangle=(line[0], line[1], line[2]))

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
