"""Canonical forms, isomorphism, automorphism groups."""

import random
from functools import partial

import pytest

from srcfg.algebra import cyclic
from srcfg.catalog import entry_by_name
from srcfg.constructions import (development, moore_configuration,
                                 projective_plane, triangle_removal)
from srcfg.graphs import hoffman_singleton, petersen
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

    def test_hexdigest_stable(self):
        c = moore_configuration(petersen())
        assert canonical_form(c).hexdigest() == canonical_form(c).hexdigest()


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


class TestSelfDual:
    def test_self_dual_examples(self):
        assert is_self_dual(development(cyclic(13), (7, 8, 11)))
        assert is_self_dual(moore_configuration(petersen()))
        assert is_self_dual(gq22())

    def test_relabeling_keeps_self_duality(self):
        rnd = random.Random(5)
        c = development(cyclic(13), (7, 8, 11))
        assert is_self_dual(relabeled(c, rnd))
