"""Parameter feasibility pipeline against frozen expected output."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srcfg.claims import FEASIBLE_200
from srcfg.feasibility import (Eigendata, assess, clique_condition, eigendata,
                               enumerate_candidates, feasible_table,
                               load_exclusions, primitivity, render_table,
                               rook_excluded, square_condition,
                               srg_param_feasible)
from srcfg.graphs import SrgParams
from srcfg.incidence import SrcParams

# Frozen output of feasible_table(200); FEASIBLE_200 holds every surviving
# parameter set.
EQUALITY_200 = [
    (15, 3, 1, 3), (40, 4, 2, 4), (70, 7, 23, 28),
    (81, 6, 9, 12), (85, 5, 3, 5), (156, 6, 4, 6),
]

SQUARE_FAIL_200 = [
    (28, 4, 6, 4), (66, 5, 10, 4), (69, 5, 7, 5),
    (136, 6, 8, 6), (143, 9, 36, 36), (190, 10, 45, 40),
]


@pytest.fixture(scope="module")
def table200():
    return feasible_table(200)


class TestTable:
    def test_counts(self, table200):
        assert table200.counts == {
            "battery_passing": 67,
            "excluded_known_nonexistent": 3,
            "candidates": 64,
            "clique_fail": 11,
            "equality_pg": 6,
            "square_fail": 6,
            "feasible": 41,
        }

    def test_counts_1000(self):
        # frozen: the sweep's closed-form r bound and multiplicity filter
        # must keep every battery-passing parameter set up to v = 1000
        assert feasible_table(1000).counts == {
            "battery_passing": 279,
            "excluded_known_nonexistent": 3,
            "candidates": 276,
            "clique_fail": 50,
            "equality_pg": 14,
            "square_fail": 39,
            "feasible": 173,
        }

    def test_feasible_rows_exact(self, table200):
        got = [w.params.astuple() for w in table200.feasible_rows()]
        assert got == FEASIBLE_200

    def test_equality_rows_exact(self, table200):
        got = [w.params.astuple() for w in table200.verdicts
               if w.overall == "partial_geometry_only" and not w.externally_excluded]
        assert got == EQUALITY_200

    def test_square_fail_rows_exact(self, table200):
        got = [w.params.astuple() for w in table200.verdicts
               if w.reason == "square_condition"]
        assert got == SQUARE_FAIL_200

    def test_rook_flags(self, table200):
        flagged = [w.params.astuple() for w in table200.feasible_rows()
                   if w.rook_excluded]
        assert flagged == [(49, 4, 5, 2), (121, 5, 9, 2)]

    def test_rook_rows_otherwise_feasible(self, table200):
        # the rook annotation never overrides a verdict
        for w in table200.verdicts:
            if w.rook_excluded:
                assert w.overall == "feasible"

    def test_render(self, table200):
        text = render_table(table200)
        assert "155   7   17    9" in text
        assert text.count("\n") >= 41
        assert "feasible 41" in text
        assert "rook-excluded" in text


class TestEigendata:
    def test_28_4_pin(self):
        e = eigendata(SrcParams(28, 4, 6, 4).graph_params())
        assert (e.r, e.s, e.f, e.g) == (4, -2, 7, 20)

    def test_square_fail_witness_28_4(self):
        chk = square_condition(SrcParams(28, 4, 6, 4))
        assert not chk.passed
        assert (chk.witness_prime, chk.witness_exponent) == (2, 41)

    @pytest.mark.parametrize("params", [SrcParams(22, 3, 0, 2),
                                        SrcParams(10, 3, 4, 4)], ids=str)
    @pytest.mark.parametrize("check", [square_condition])
    def test_square_condition_rejects_battery_failure(self, check, params):
        with pytest.raises(ValueError) as err:
            check(params)
        message = str(err.value)
        assert str(params) in message
        assert "\n" not in message

    def test_petersen(self):
        e = eigendata(SrgParams(10, 3, 0, 1))
        assert (e.r, e.s, e.f, e.g) == (1, -2, 5, 4)

    def test_conjugate_case(self):
        p = SrgParams(13, 6, 2, 3)
        e = eigendata(p)
        assert e.conjugate
        assert e.f == e.g == 6
        disc = (p.lam - p.mu) ** 2 + 4 * (p.d - p.mu)
        assert disc == 13 and math.isqrt(disc) ** 2 != disc

    @pytest.mark.parametrize("params", [
        (10, 3, 4, 4),
        (22, 7, 0, 2),
        (7, 4, 1, 4),
        (5, 3, 1, 3),
    ], ids=["nonpositive-discriminant", "irrational-unequal-multiplicities",
            "non-integral", "half-integral"])
    def test_rejects_impossible(self, params):
        assert eigendata(SrgParams(*params)) is None

    def test_conference_krein_slacks(self):
        # a conjugate pair means a conference graph srg(4t+1, 2t, t-1, t),
        # which passes Krein without arithmetic (proof in _krein_ok): with
        # u = sqrt(4t+1) the slacks reduce to (t-1)(2t-r) and (t-1)(2t-s),
        # checked exactly for t <= 200
        sympy = pytest.importorskip("sympy")
        t, u = sympy.symbols("t u")
        r, s, d = (u - 1) / 2, (-u - 1) / 2, 2 * t
        slacks = [((d + r) * (s + 1) ** 2 - (r + 1) * (d + r + 2 * r * s),
                   (t - 1) * (2 * t - r)),
                  ((d + s) * (r + 1) ** 2 - (s + 1) * (d + s + 2 * r * s),
                   (t - 1) * (2 * t - s))]
        for slack, reduced in slacks:
            assert sympy.rem(sympy.expand(slack - reduced), u ** 2 - 4 * t - 1, u) == 0
        for n in range(1, 201):
            at = {t: n, u: sympy.sqrt(4 * n + 1)}
            assert all(reduced.subs(at) >= 0 for _, reduced in slacks)
            assert srg_param_feasible(SrgParams(4 * n + 1, 2 * n, n - 1, n)) == (True, None)


class TestConditions:
    def test_clique_pins(self):
        assert clique_condition(SrcParams(81, 5, 1, 6)) == "fail"
        assert clique_condition(SrcParams(15, 3, 1, 3)) == "equality_pg"
        assert clique_condition(SrcParams(13, 3, 2, 3)) == "strict_pass"

    def test_primitivity(self):
        assert primitivity(SrcParams(13, 3, 2, 3)) == "primitive"
        assert primitivity(SrcParams(21, 3, 4, 0)) == "union_of_planes"
        assert primitivity(SrcParams(15, 3, 0, 6)) == "elliptic_semiplane"

    def test_candidates_all_primitive(self, table200):
        for w in table200.verdicts:
            assert primitivity(w.params) == "primitive"

    def test_rook_never_fires_on_clique_fail(self, table200):
        for w in table200.verdicts:
            if clique_condition(w.params) == "fail":
                assert not w.rook_excluded

    def test_assess_positive(self):
        v = assess(SrcParams(155, 7, 17, 9))
        assert v.overall == "feasible"
        assert square_condition(v.params).passed

    def test_assess_identity_violation(self):
        v = assess(SrcParams(12, 3, 2, 3))
        assert v.overall == "infeasible"
        assert v.reason == "identity"


class TestExclusions:
    def test_load(self):
        exc = load_exclusions()
        assert len(exc) == 3
        for key in exc:
            v, d, lam, mu = key
            assert srg_param_feasible(SrgParams(v, d, lam, mu))[0]

    def test_applied_in_table(self, table200):
        excluded = [w.params.graph_params().astuple() for w in table200.verdicts
                    if w.externally_excluded]
        assert sorted(excluded) == sorted(load_exclusions())


def _multiplicity_identities(p: SrgParams, e: Eigendata):
    assert e.f + e.g == p.v - 1
    if not e.conjugate:
        assert e.r * e.f + e.s * e.g == -p.d
        assert e.r > e.s


def square_condition_determinant(p: SrcParams) -> int:
    """The exact Gram determinant k^2 (r+k)^f (s+k)^g as a big integer: an
    oracle for square_condition that does not factor."""
    e = eigendata(p.graph_params())
    k = p.k
    if e.conjugate:
        # (r+k)(s+k) is rational: rs + k(r+s) + k^2
        base = (p.mu - p.d) + k * (p.lam - p.mu) + k * k
        return k * k * base ** e.f
    return k * k * (e.r + k) ** e.f * (e.s + k) ** e.g


def mu_scan_candidates(v_max: int) -> list[SrcParams]:
    """The scan over mu that enumerate_candidates replaced: for each (v, k)
    with d = k(k-1) < v - 1, the counting identity gives an integral lam
    exactly when mu is a multiple of d/gcd(d, v-1-d), and lam falls as mu
    grows.  Kept as the oracle for the eigenvalue walk."""
    out = []
    for v in range(7, v_max + 1):
        k = 3
        while k * (k - 1) < v - 1:
            d = k * (k - 1)
            rest = v - 1 - d
            step = d // math.gcd(d, rest)
            for mu in range(step, d, step):
                lam = d - 1 - rest * mu // d
                if lam < 0:
                    break
                if srg_param_feasible(SrgParams(v, d, lam, mu))[0]:
                    out.append(SrcParams(v, k, lam, mu))
            k += 1
    out.sort(key=lambda p: (p.v, p.k, p.lam, p.mu))
    return out


class TestIdentities:
    @pytest.mark.parametrize("v_max", [0, 6, 7, 13, 200, 1000])
    def test_candidates_match_mu_scan(self, v_max):
        assert enumerate_candidates(v_max) == mu_scan_candidates(v_max)

    def test_candidates_once_each(self):
        # (13_3;2,3) is a conference row with irrational eigenvalues, added
        # by hand; (25_4;5,6) is one with square v, met by the walk
        got = [p.astuple() for p in enumerate_candidates(1000)]
        assert len(got) == len(set(got))
        assert got.count((13, 3, 2, 3)) == 1
        assert got.count((25, 4, 5, 6)) == 1

    def test_candidates_match_lambda_scan(self):
        # every (v, k, lam) with k >= 3 and k(k-1) < v - 1, mu from the
        # counting identity where it is integral, kept if the battery passes
        want = []
        for v in range(1, 401):
            k = 3
            while k * (k - 1) < v - 1:
                d = k * (k - 1)
                for lam in range(d):
                    num = d * (d - 1 - lam)
                    if num % (v - 1 - d):
                        continue
                    mu = num // (v - 1 - d)
                    if 0 < mu < d and srg_param_feasible(SrgParams(v, d, lam, mu))[0]:
                        want.append((v, k, lam, mu))
                k += 1
        assert [p.astuple() for p in enumerate_candidates(400)] == want

    def test_multiplicity_identities_all_candidates(self):
        for p in enumerate_candidates(200):
            _multiplicity_identities(p, eigendata(p))

    def test_determinant_cross_check_all_candidates(self):
        # factoring route agrees with the exact big-integer determinant
        for src in (SrcParams(*t) for t in
                    FEASIBLE_200 + EQUALITY_200 + SQUARE_FAIL_200):
            det = square_condition_determinant(src)
            exact = det >= 0 and math.isqrt(det) ** 2 == det
            assert square_condition(src).passed == exact


@settings(max_examples=60, deadline=None)
@given(v=st.integers(8, 300), k=st.integers(3, 12), lam=st.integers(0, 40))
def test_square_condition_matches_determinant(v, k, lam):
    d = k * (k - 1)
    if d >= v - 1 or lam >= d:
        return
    num = d * (d - 1 - lam)
    if num % (v - 1 - d):
        return
    mu = num // (v - 1 - d)
    if not 0 < mu < d:
        return
    p = SrcParams(v, k, lam, mu)
    if not srg_param_feasible(p.graph_params())[0]:
        return
    det = square_condition_determinant(p)
    exact = det >= 0 and math.isqrt(det) ** 2 == det
    assert square_condition(p).passed == exact
