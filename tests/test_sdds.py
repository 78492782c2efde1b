"""Difference sets with distinct differences: checking and exhaustive search."""

import hashlib
import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srcfg.algebra import Group, cyclic, make_group
from srcfg.catalog import entry_by_name, published_entries, z4_s4_entry
from srcfg.constructions import development
from srcfg.feasibility import Eigendata, eigendata
from srcfg.graphs import SrgParams
from srcfg.incidence import src_check
from srcfg.classify import reduce_isomorphs
from srcfg import sdds as sdds_module
from srcfg.sdds import (_Backtracker, difference_profile, left_translates,
                        sdds_check, sdds_search)
from test_algebra import aut_elements

Z13_REPS = [(0, 1, 4), (0, 1, 10), (0, 2, 7), (0, 2, 8)]

# The (96_5;4,4) representatives in the catalog's Z4 x S4, as listed by the
# search before it pruned by conjugation.
Z4_S4_REPS = [
    (0, 3, 10, 36, 95), (0, 3, 10, 47, 84), (0, 3, 17, 31, 92),
    (0, 3, 17, 44, 79), (0, 3, 18, 35, 88), (0, 3, 18, 40, 83),
    (0, 3, 31, 65, 92), (0, 3, 35, 66, 88), (0, 3, 36, 58, 95),
    (0, 3, 40, 66, 83), (0, 3, 44, 65, 79), (0, 3, 47, 58, 84),
    (0, 8, 13, 28, 95), (0, 8, 13, 47, 76), (0, 8, 17, 31, 91),
    (0, 8, 17, 43, 79), (0, 8, 18, 39, 88), (0, 8, 18, 40, 87),
    (0, 8, 28, 61, 95), (0, 8, 31, 65, 91), (0, 8, 39, 66, 88),
    (0, 8, 40, 66, 87), (0, 8, 43, 65, 79), (0, 8, 47, 61, 76),
    (0, 9, 10, 37, 90), (0, 9, 10, 42, 85), (0, 9, 19, 28, 88),
    (0, 9, 19, 40, 76), (0, 9, 20, 36, 88), (0, 9, 20, 40, 84),
    (0, 9, 22, 41, 90), (0, 9, 22, 42, 89), (0, 10, 15, 43, 95),
    (0, 10, 15, 47, 91), (0, 10, 19, 39, 95), (0, 10, 19, 47, 87),
    (0, 11, 27, 66, 88), (0, 11, 31, 70, 84), (0, 11, 36, 70, 79),
    (0, 11, 40, 66, 75), (0, 11, 44, 61, 95), (0, 11, 47, 61, 92),
    (0, 15, 28, 70, 79), (0, 15, 31, 70, 76), (0, 15, 32, 66, 88),
    (0, 15, 40, 66, 80), (0, 15, 43, 58, 95), (0, 15, 47, 58, 91),
]

# The 3072 (64_7;26,30) representatives in Q8 x Q8, as listed by the search
# before it pruned by conjugation: the sha256 of their text, one set a line
# with its elements comma-separated, and the first and last.
Q8_Q8_COUNT = 3072
Q8_Q8_SHA256 = "0279fb04b9a8cc51407a49ee39367ec1f0d76ed574cea0872d7b91399092d0fc"
Q8_Q8_ENDS = [(0, 2, 16, 20, 34, 45, 54), (0, 10, 31, 37, 43, 53, 56)]


@pytest.fixture
def backtrackers(monkeypatch):
    """The _Backtracker objects that sdds_search builds while the test
    runs, in order."""
    built = []

    class Recording(_Backtracker):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(sdds_module, "_Backtracker", Recording)
    return built


def all_sdds(group, k, lam, mu):
    """Every SDDS of size k for (lam, mu), sorted: the left translates of
    each representative sdds_search returns."""
    return sorted(t for D in sdds_search(group, k, lam, mu)
                  for t in left_translates(group, D))


class TestCheck:
    def test_published_sets(self):
        for entry in published_entries():
            p = entry.params
            assert sdds_check(entry.group, entry.subset) == (p.lam, p.mu)

    def test_frobenius155_subset_pinned(self):
        # the words f^i g^j of the docstring, as element indices
        subset = entry_by_name("frobenius155").subset
        assert subset == (0, 18, 30, 61, 80, 115, 130)

    def test_developments_match_params(self):
        for entry in published_entries():
            c = development(entry.group, entry.subset)
            assert src_check(c) == entry.params

    def test_rejects_repeated_difference(self, monkeypatch):
        assert sdds_check(cyclic(13), (0, 1, 2)) is None
        # the answer comes before any overlap count
        def no_overlaps(*args):
            raise AssertionError("overlaps counted")
        monkeypatch.setattr(sdds_module, "_overlaps", no_overlaps)
        assert sdds_check(cyclic(13), (0, 1, 2)) is None

    def test_rejects_nonconstant_counts(self):
        # distinct differences but n(x) not two-valued on/off delta
        assert sdds_check(cyclic(13), (0, 1, 4)) == (2, 3)
        assert sdds_check(cyclic(16), (0, 1, 3, 7)) is None

    @pytest.mark.parametrize("subset", [(13, 1, 4), (-13, 1, 4), (-1,)])
    def test_out_of_range_element(self, subset):
        with pytest.raises(ValueError):
            sdds_check(cyclic(13), subset)
        with pytest.raises(ValueError):
            difference_profile(cyclic(13), subset)

    def test_repeated_element_rejected(self):
        with pytest.raises(ValueError, match="element 7 is repeated"):
            sdds_check(cyclic(13), (7, 7, 8))
        with pytest.raises(ValueError, match="element 7 is repeated"):
            difference_profile(cyclic(13), (7, 8, 7))

    def test_profile_invariants(self):
        for name in ("z13", "frobenius155", "s5"):
            entry = entry_by_name(name)
            prof = difference_profile(entry.group, entry.subset)
            assert not prof.repeated
            k = entry.params.k
            assert len(prof.delta) == k * (k - 1)
            inv = entry.group.inverses
            assert all(inv[x] in prof.delta for x in prof.delta)

    def test_counting_identity(self):
        for entry in published_entries():
            prof = difference_profile(entry.group, entry.subset)
            size = len(prof.delta)
            v = entry.group.n
            lam, mu = entry.params.lam, entry.params.mu
            assert lam * size + mu * (v - 1 - size) == size * (size - 1)


@settings(max_examples=40)
@given(g=st.integers(0, 12))
def test_translation_invariance(g):
    group = cyclic(13)
    base = (7, 8, 11)
    translate = tuple(group.mul(g, d) for d in base)
    assert sdds_check(group, translate) == sdds_check(group, base)


def reference_sdds_check(group, subset):
    """sdds_check as it was before its overlaps were counted in bulk: every
    difference and every overlap count in plain Python, one pair at a
    time.  The reference for test_check_matches_reference."""
    D = sorted(subset)
    L, R = group.left_quotients, group.right_quotients
    delta = set()
    repeated = False
    for a in D:
        for b in D:
            if a != b:
                d = L[a][b]
                if d in delta:
                    repeated = True
                delta.add(d)
    if repeated or not delta:
        return None
    n = [0] * group.n
    for y in delta:
        for x in delta:
            n[R[y][x]] += 1
    lam = mu = None
    for x in range(group.n):
        if x == group.identity:
            continue
        if x in delta:
            if lam is None:
                lam = n[x]
            elif n[x] != lam:
                return None
        else:
            if mu is None:
                mu = n[x]
            elif n[x] != mu:
                return None
    if lam is None or mu is None:
        return None
    return (lam, mu)


def _check_groups():
    """(name, group, an SDDS in it) for the differential test."""
    z6z6 = make_group("direct_product(cyclic(6),cyclic(6))")
    out = [("z6xz6", z6z6, sdds_search(z6z6, 5, 10, 12)[0])]
    for name in ("z13", "z4_s4", "s5", "frobenius155"):
        entry = entry_by_name(name)
        out.append((name, entry.group, entry.subset))
    return out


def test_check_matches_reference():
    # planted translates of an SDDS, each also with one element replaced
    # (a near miss), and seeded random subsets of sizes 0 to k + 2
    rng = random.Random(32)
    hits = misses = 0
    for name, group, base in _check_groups():
        k = len(base)
        subsets = []
        for t in rng.sample(range(group.n), min(group.n, 40)):
            planted = [group.mul(t, d) for d in base]
            subsets.append(planted)
            rest = [x for x in range(group.n) if x not in planted]
            subsets.append(planted[1:] + [rng.choice(rest)])
        subsets += [rng.sample(range(group.n), rng.randint(0, k + 2))
                    for _ in range(300)]
        for D in subsets:
            got = sdds_check(group, D)
            assert got == reference_sdds_check(group, D), (name, D)
            if got is None:
                misses += 1
            else:
                assert all(type(x) is int for x in got)
                hits += 1
    # every planted translate is a hit
    assert hits >= 13 + 4 * 40 and misses >= 1000


@pytest.mark.parametrize("spec, subset, want", [
    pytest.param("cyclic(13)", (), None, id="size-0"),
    pytest.param("cyclic(13)", (5,), None, id="size-1"),
    pytest.param("cyclic(13)", (0, 1), None, id="size-2"),
    # the pentagon, SRG(5, 2, 0, 1)
    pytest.param("cyclic(5)", (0, 1), (0, 1), id="size-2-sdds"),
    # 3 - 0 = 0 - 3 in Z6: one difference from both ordered pairs
    pytest.param("cyclic(6)", (0, 3), None, id="involution-difference"),
    pytest.param("cyclic(6)", (0, 1, 4), None, id="involution-difference-k3"),
    # Delta = Z7 - {0}: no element is left for mu
    pytest.param("cyclic(7)", (0, 1, 3), None, id="delta-everything"),
])
def test_check_edge_cases(spec, subset, want):
    group = make_group(spec)
    assert sdds_check(group, subset) == reference_sdds_check(group, subset) \
        == want


def test_check_involution_difference_s5():
    # a and at, t an involution: a^-1 (at) = t = (at)^-1 a
    group = entry_by_name("s5").group
    e = group.identity
    t = next(x for x in range(group.n)
             if x != e and group.mul(x, x) == e)
    a = next(x for x in range(group.n) if x not in (e, t))
    D = (e, a, group.mul(a, t))
    assert difference_profile(group, D).repeated
    assert sdds_check(group, D) is None is reference_sdds_check(group, D)


class TestSearch:
    def test_z13_normalized(self):
        got = sdds_search(cyclic(13), 3, 2, 3)
        assert got == Z13_REPS

    def test_z13_raw_count(self):
        raw = all_sdds(cyclic(13), 3, 2, 3)
        assert len(raw) == len(set(raw)) == 52
        # every raw hit is a translate of a normalized representative
        assert len(raw) == 13 * len(Z13_REPS)

    def test_inconsistent_parameters_empty(self):
        assert sdds_search(cyclic(13), 3, 0, 1) == []
        assert sdds_search(cyclic(7), 4, 0, 1) == []

    def test_consistent_but_unrealizable(self):
        # (16_3;2,2) passes the counting identity yet Z16 has no such set
        assert sdds_search(cyclic(16), 3, 2, 2) == []

    def test_results_are_verified_sets(self):
        for D in all_sdds(cyclic(13), 3, 2, 3):
            assert sdds_check(cyclic(13), D) == (2, 3)

    def test_z4_s4_search(self, backtrackers):
        entry = z4_s4_entry()
        group = entry.group
        found = sdds_search(group, 5, 4, 4)
        assert found == Z4_S4_REPS
        for D in found:
            assert sdds_check(group, D) == (4, 4)
        # closed under Aut(G), each image taken to its representative
        maps = aut_elements(group.automorphisms, group.n)
        assert len(maps) == 96
        assert {_least_translate(group, [phi[d] for d in D])
                for D in found for phi in maps.tolist()} == set(found)
        # the size of the search tree, pinned as in test_search_tree_pinned;
        # the search keeps 4 of the 48, the least of each orbit under Aut(G)
        [search] = backtrackers
        assert (search.nodes, search.prunes) == (9577, 9295)
        assert len(search.results) == 4

    def test_z4_s4_single_class(self):
        entry = z4_s4_entry()
        found = sdds_search(entry.group, 5, 4, 4)
        classes = reduce_isomorphs(
            [development(entry.group, D) for D in found])
        assert len(classes) == 1
        assert classes[0].aut_order == 11520
        assert classes[0].self_dual

    def test_s5_search_finds_published_set(self):
        entry = entry_by_name("s5")
        group = entry.group
        found = sdds_search(group, 8, 28, 24)
        assert len(found) == 120
        normalized = {tuple(sorted(D)) for D in found}
        # the published set is a translate of one of the representatives
        hits = [g for g in range(group.n)
                if tuple(sorted(group.mul(g, d) for d in entry.subset))
                in normalized]
        assert hits

    def test_q8_q8_search(self):
        entry = entry_by_name("q8q8_hall")
        group = entry.group
        found = sdds_search(group, 7, 26, 30)
        text = "".join(",".join(map(str, D)) + "\n" for D in found)
        assert len(found) == Q8_Q8_COUNT
        assert [found[0], found[-1]] == Q8_Q8_ENDS
        assert hashlib.sha256(text.encode()).hexdigest() == Q8_Q8_SHA256
        assert _least_translate(group, entry.subset) in found

    def test_search_in_z2_6_in_bounded_memory(self):
        # Aut(Z2^6) = GL(6, 2) has about 2.0e10 elements, 5 TB as rows of
        # int32; the search holds stabilizer chains of it, a few rows each.
        # (64_7;26,30) is consistent, but every element is an involution,
        # so no 2-subset has distinct differences: the unpruned search
        # also finds nothing.
        group = make_group(_power("cyclic(2)", 6))
        tracemalloc.start()
        try:
            found = sdds_search(group, 7, 26, 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found == []
        assert peak < 8 << 20

    def test_z3_4_search(self):
        # Aut(Z3^4) = GL(4, 3), of order 24,261,120.  The 33696
        # (81_6;9,12) representatives as listed by the search before it
        # pruned by automorphisms: the sha256 of their text, as in
        # test_q8_q8_search, and the first and last.
        group = make_group(_power("cyclic(3)", 4))
        found = sdds_search(group, 6, 9, 12)
        text = "".join(",".join(map(str, D)) + "\n" for D in found)
        assert len(found) == 33696
        assert [found[0], found[-1]] == [(0, 1, 3, 9, 27, 80),
                                         (0, 14, 44, 50, 62, 73)]
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "1cc195d7c6a54ca8a6530ef36e514b74c6b7b90c267b6a6c64c75a9edae51b4b"


def _power(spec, r):
    """The spec of the direct product of r copies of the group spec."""
    out = spec
    for _ in range(r - 1):
        out = f"direct_product({spec},{out})"
    return out


def _consistent_triples(v):
    """Every (k, lam, mu) with k >= 2 that passes the counting identity;
    lam and mu are overlap counts, so at most k(k-1)."""
    k = 2
    while k * (k - 1) <= v - 1:
        K = k * (k - 1)
        for lam in range(K + 1):
            for mu in range(K + 1):
                if (v - 1 - K) * mu == K * (K - 1 - lam):
                    yield k, lam, mu
        k += 1


def _least_translate(group, D):
    """The lexicographically least translate t^-1 D (t in D): the
    representative that sdds_search returns for the class of D."""
    return min(tuple(sorted(group.mul(group.inv(t), d) for d in D)) for t in D)


def _relabelled(group, identity):
    """An isomorphic copy of a group whose identity is at index 0, with
    element i renamed (identity + 7 i) mod n, so that its identity moves to
    the given index and the index order is shuffled."""
    n = group.n
    sigma = [(identity + 7 * i) % n for i in range(n)]
    assert group.identity == 0 and len(set(sigma)) == n
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[sigma[a]][sigma[b]] = sigma[group.mul(a, b)]
    copy = Group(table)
    assert copy.identity == identity
    return copy


def _assert_matches_brute_force(group):
    """sdds_search and the translates of its representatives against all
    subsets checked one by one; returns the representatives found."""
    triples = list(_consistent_triples(group.n))
    hits = {}
    for k in sorted({t[0] for t in triples}):
        for D in itertools.combinations(range(group.n), k):
            got = sdds_check(group, D)
            if got is not None:
                hits.setdefault((k, *got), []).append(D)
    assert set(hits) <= set(triples)
    reps = []
    for k, lam, mu in triples:
        brute = hits.get((k, lam, mu), [])
        assert all_sdds(group, k, lam, mu) == brute
        least = sorted({_least_translate(group, D) for D in brute})
        assert sdds_search(group, k, lam, mu) == least
        reps += least
    return reps


# The multiplier rule of sdds_search applies to cyclic(13) (conference
# rows), cyclic(16) and Z5 x Z5 (integral rows, the latter with sets).
@pytest.mark.parametrize("spec", ["cyclic(13)", "cyclic(16)",
                                  "direct_product(cyclic(5),cyclic(5))",
                                  "direct_product(quaternion8,cyclic(2))"])
def test_search_matches_brute_force(spec):
    _assert_matches_brute_force(make_group(spec))


# With the identity at index 5, the least non-identity element m of a
# representative can come before the identity in the index order.
@pytest.mark.parametrize("spec", ["cyclic(13)",
                                  "direct_product(quaternion8,cyclic(2))"])
def test_search_with_identity_off_zero(spec):
    group = _relabelled(make_group(spec), 5)
    reps = _assert_matches_brute_force(group)
    assert any(D[0] < group.identity for D in reps)


# sdds_search keeps, of each translate class, only the least
# translate.  The oracle checks every subset that contains the identity one
# by one; each class meets those subsets in its translates t^-1 D, t in D.
@pytest.mark.parametrize("spec, k, lam, mu", [
    ("direct_product(cyclic(4),cyclic(4))", 3, 2, 2),
    ("direct_product(cyclic(4),cyclic(4))", 4, 8, 12),
    ("direct_product(cyclic(6),cyclic(6))", 2, 1, 0),
    ("direct_product(cyclic(6),cyclic(6))", 5, 10, 12),
])
def test_normalized_search_is_least_translates(spec, k, lam, mu):
    group = make_group(spec)
    e = group.identity
    others = [x for x in range(group.n) if x != e]
    brute = []
    for rest in itertools.combinations(others, k - 1):
        D = tuple(sorted((e, *rest)))
        if sdds_check(group, D) == (lam, mu):
            brute.append(D)
    reps = sdds_search(group, k, lam, mu)
    assert reps and len(brute) == k * len(reps)
    assert reps == sorted({_least_translate(group, D) for D in brute})


# Size of the search tree of sdds_search: try_add calls, the identity's in
# run included, and the calls that returned None.  Any change to the tree or
# loss of pruning moves them.  The Z4 x S4 (96_5;4,4) tree is pinned in
# TestSearch.test_z4_s4_search, which already runs that search.  The
# identity is placed first wherever it lies, and Aut(G) does not depend on
# the labelling, so moving the identity to the end of the index order
# changes the tree only a little.
@pytest.mark.parametrize("spec, identity, k, lam, mu, nodes, prunes", [
    pytest.param("cyclic(13)", 0, 3, 2, 3, 13, 9, id="cyclic(13)"),
    pytest.param("cyclic(13)", 12, 3, 2, 3, 13, 9, id="cyclic(13)-identity-12"),
    pytest.param("direct_product(cyclic(6),cyclic(6))", 35, 5, 10, 12,
                 495, 447, id="z6xz6-identity-35"),
    # lam > mu: the lam cap bounds the counts off Delta, and all 10 sets
    # that reach size k fail the final check.  (25, 12, 9, 2) has no
    # eigendata, so sdds_search itself does not search this row.
    pytest.param("direct_product(cyclic(5),cyclic(5))", 0, 4, 9, 2,
                 25, 12, id="z5xz5-lam-above-mu"),
    # the multiplier rule caps the count of every element forced into
    # Delta at lam; with the cap at max(lam, mu) it takes 1302/1182
    pytest.param("cyclic(30)", 0, 5, 10, 20, 1220, 1110, id="z30-forced-cap"),
])
def test_search_tree_pinned(backtrackers, spec, identity, k, lam, mu, nodes,
                            prunes):
    group = make_group(spec)
    if identity:
        group = _relabelled(group, identity)
    found = sdds_search(group, k, lam, mu)
    if not backtrackers:
        # a row without eigendata is decided before any search; its tree
        # is that of the backtracker run by itself
        assert found == []
        assert eigendata(SrgParams(group.n, k * (k - 1), lam, mu)) is None
        sdds_module._Backtracker(group, k, lam, mu).run()
    [search] = backtrackers
    assert (search.nodes, search.prunes) == (nodes, prunes)


# Rows that the multiplier rule of sdds_search decides: no set, and a search
# tree (nodes, prunes) far smaller than without the rule, or no search at
# all (None) where k(k-1) is no sum of power-class sizes.  Without the rule
# Z36 took 6905 nodes, Z61 207,718 and Z63 296,540; Z85 and Z81 took over
# a minute each.
@pytest.mark.parametrize("spec, k, lam, mu, tree", [
    pytest.param("cyclic(36)", 5, 10, 12, (1803, 1636), id="z36-integral"),
    pytest.param("cyclic(61)", 6, 14, 15, (916, 873), id="z61-conference"),
    pytest.param("cyclic(63)", 6, 13, 15, None, id="z63-integral"),
    pytest.param("cyclic(85)", 7, 20, 21, None, id="z85-conference"),
    pytest.param("cyclic(145)", 9, 35, 36, None, id="z145-conference"),
])
def test_multiplier_rule_decides_row(backtrackers, spec, k, lam, mu, tree):
    group = make_group(spec)
    start = time.perf_counter()
    assert sdds_search(group, k, lam, mu) == []
    assert time.perf_counter() - start < 0.1
    assert [(b.nodes, b.prunes) for b in backtrackers] == \
        ([] if tree is None else [tree])


def test_conference_rule_needs_squarefree_order():
    # a row with conjugate eigendata is a conference row, disc = v; the
    # Jacobi-symbol units apply at the squarefree orders 13 = 13 and
    # 85 = 5 * 17, not at 45 = 3^2 * 5.  No row with k(k-1) = 22 has
    # v = 45, so Z45 gets its conjugate eigendata by hand.
    for v, k, lam, mu in [(13, 3, 2, 3), (85, 7, 20, 21)]:
        e = eigendata(SrgParams(v, k * (k - 1), lam, mu))
        assert e.conjugate and (lam - mu) ** 2 + 4 * (k * (k - 1) - mu) == v
        assert max(map(len, sdds_module._power_classes(cyclic(v), e))) > 2
    conference45 = Eigendata(r=None, s=None, f=22, g=22, conjugate=True)
    assert sdds_module._power_classes(cyclic(45), conference45) is None


def test_row_without_eigendata_not_searched(backtrackers):
    # (60, 56, 55, 0): mu = 0 would make Delta with e a subgroup of order
    # 57, which does not divide 60; the multiplicities are not integral.
    # Before the eigendata screen the search took 812,273 nodes to say so.
    group = cyclic(60)
    assert eigendata(SrgParams(60, 56, 55, 0)) is None
    start = time.perf_counter()
    assert sdds_search(group, 8, 55, 0) == []
    assert time.perf_counter() - start < 0.1
    assert backtrackers == []


def test_rows_without_eigendata_have_no_set():
    # every row of Z5..Z30 that passes the counting identity but has no
    # eigendata: the backtracker on its own, without the multiplier rule,
    # finds no set either
    rows = 0
    for v in range(5, 31):
        group = cyclic(v)
        k = 2
        while k * (k - 1) < v - 1:
            d = k * (k - 1)
            for lam, mu in itertools.product(range(d), range(d + 1)):
                if (v - 1 - d) * mu != d * (d - 1 - lam):
                    continue
                if eigendata(SrgParams(v, d, lam, mu)) is None:
                    assert _Backtracker(group, k, lam, mu).run() == [], \
                        (v, k, lam, mu)
                    assert sdds_search(group, k, lam, mu) == []
                    rows += 1
            k += 1
    assert rows == 130


def test_z81_search(backtrackers):
    # (81_8;37,42): disc = 81, so every unit fixes Delta
    assert sdds_search(make_group("cyclic(81)"), 8, 37, 42) == []
    [search] = backtrackers
    assert (search.nodes, search.prunes) == (5624, 5174)


# (81_8;37,42) in the non-cyclic abelian groups of order 81, whose Aut(G)
# orbits prune the search: no set, and the search trees (nodes, prunes).
# These are this search's own computed results, not published values.
@pytest.mark.parametrize("spec, tree", [
    pytest.param("direct_product(cyclic(27),cyclic(3))", (49440, 46663), id="z27xz3"),
    pytest.param("direct_product(cyclic(9),cyclic(9))", (129913, 123939), id="z9xz9"),
    pytest.param("direct_product(cyclic(9),direct_product(cyclic(3),cyclic(3)))",
                 (55348, 52696), id="z9xz3xz3"),
    pytest.param("direct_product(direct_product(cyclic(3),cyclic(3)),"
                 "direct_product(cyclic(3),cyclic(3)))", (5037, 4723), id="z3^4"),
])
def test_order_81_abelian_search(backtrackers, spec, tree):
    assert sdds_search(make_group(spec), 8, 37, 42) == []
    [search] = backtrackers
    assert (search.nodes, search.prunes) == tree


# The rule is on in Z7 x Z7 and Z8 x Z8; the lists are those of the search
# without it: count, first and last, and the sha256 as in test_q8_q8_search.
# The trees keep 6 and 15 orbit leaders.
@pytest.mark.parametrize("spec, k, lam, mu, count, ends, sha256, tree", [
    pytest.param("direct_product(cyclic(7),cyclic(7))", 6, 17, 20, 112,
                 [(0, 1, 3, 7, 15, 31), (0, 9, 20, 26, 31, 46)],
                 "2a58ad914fa0115a2580e957fb09a5cd772a2f9a1c0a62f8bef176c1b0917391",
                 (1268, 1197, 6), id="z7xz7"),
    pytest.param("direct_product(cyclic(8),cyclic(8))", 7, 26, 30, 128,
                 [(0, 1, 3, 8, 24, 45, 63), (0, 10, 31, 38, 43, 49, 60)],
                 "74542d66bdbff431e2ef170ac0f943817e0e6f695cd411e423c12034362877d0",
                 (32934, 30959, 15), id="z8xz8"),
])
def test_multiplier_rule_keeps_output(backtrackers, spec, k, lam, mu, count,
                                      ends, sha256, tree):
    found = sdds_search(make_group(spec), k, lam, mu)
    text = "".join(",".join(map(str, D)) + "\n" for D in found)
    assert len(found) == count
    assert [found[0], found[-1]] == ends
    assert hashlib.sha256(text.encode()).hexdigest() == sha256
    [search] = backtrackers
    assert (search.nodes, search.prunes, len(search.results)) == tree
