"""Finite fields, projective subspaces, and group machinery."""

import functools
import gc
import hashlib
import itertools
import math
import random
import re

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from srcfg.algebra import (FiniteField, InvalidCayleyTable, NotPrimePower,
                           _group, _subspace_stack, cyclic, direct_product,
                           factorize, frobenius_31_5, gaussian_binomial, Group,
                           group_from_cayley_file, make_group, orthogonal,
                           perm_from_cycles, prime_power, quaternion8,
                           symmetric)
from srcfg.constructions import lp4, projective_plane
from srcfg.graphs import make_graph


class TestFiniteField:
    def test_prime_power_decomposition(self):
        assert prime_power(8) == (2, 3)
        assert prime_power(9) == (3, 2)
        assert prime_power(31) == (31, 1)
        for bad in (-8, -4, -2, -1, 0, 1, 6, 12, 100):
            with pytest.raises(NotPrimePower):
                prime_power(bad)

    def test_factorize_matches_sympy(self):
        for n in range(-300, 3000):
            assert factorize(n) == (sympy.factorint(abs(n)) if abs(n) > 1 else {})
        assert list(factorize(2 * 3 ** 4 * 101 ** 2)) == [2, 3, 101]

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 27, 529])
    def test_field_axioms(self, q):
        f = FiniteField(q)
        elements = range(q)
        for a in elements:
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.add(a, f.neg(a)) == 0
            assert f.sub(a, a) == 0
            if a != 0:
                assert f.mul(a, f.inv(a)) == 1
        # every triple up to GF(27); a seeded sample in GF(23^2), above
        # the sizes the library's constructions use
        if q <= 27:
            triples = itertools.product(elements, repeat=3)
        else:
            rng = random.Random(q)
            triples = [tuple(rng.randrange(q) for _ in range(3)) for _ in range(3000)]
        for a, b, c in triples:
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    @pytest.mark.parametrize("q", [q for q in range(4, 130) if not sympy.isprime(q)
                                   and len(sympy.factorint(q)) == 1])
    def test_modulus_is_least_irreducible(self, q):
        # x is coded as p; x^e = x^(e-1) x = -(f_0 + ... + f_(e-1) x^(e-1))
        f = FiniteField(q)
        p, e = f.p, f.e
        top = f.mul(p ** (e - 1), p)
        low = [-(top // p ** i % p) % p for i in range(e)]
        code = sum(c * p ** i for i, c in enumerate(low))

        def irreducible(code):
            coeffs = [code // p ** i % p for i in reversed(range(e))]
            return sympy.Poly([1] + coeffs, sympy.Symbol("x"),
                              modulus=p).is_irreducible

        assert irreducible(code)
        assert not any(irreducible(c) for c in range(code))

    def test_pinned_encodings(self):
        # elements code polynomials in base p: x is p, x^2 is p^2
        assert FiniteField(4).mul(2, 2) == 3          # x^2 = x + 1
        assert FiniteField(8).mul(4, 2) == 3          # x^3 = x + 1
        f9 = FiniteField(9)
        assert f9.mul(3, 3) == f9.neg(1) == 2         # x^2 = -1

    @pytest.mark.parametrize("q", [2, 3, 4, 9, 16])
    def test_matmul_matches_scalar_products(self, q):
        # a stack of 3 x 4 matrices against one 4 x 2 matrix and against a
        # stack of its own, each entry summed by the scalar methods
        f = FiniteField(q)
        rng = np.random.default_rng(q)
        a = rng.integers(q, size=(5, 3, 4))
        for b in (rng.integers(q, size=(4, 2)), rng.integers(q, size=(6, 1, 4, 2))):
            got = f.matmul(a, b)
            lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
            assert got.shape == lead + (3, 2)
            xs = np.broadcast_to(a, lead + (3, 4))
            ys = np.broadcast_to(b, lead + (4, 2))
            for idx in np.ndindex(lead):
                x, y = xs[idx].tolist(), ys[idx].tolist()
                assert got[idx].tolist() == [
                    [functools.reduce(f.add, (f.mul(x[i][t], y[t][j]) for t in range(4)))
                     for j in range(2)] for i in range(3)]

    def test_multiplicative_group_is_cyclic(self):
        f = FiniteField(9)
        orders = set()
        for a in range(1, 9):
            x, n = a, 1
            while x != 1:
                x = f.mul(x, a)
                n += 1
            orders.add(n)
        assert max(orders) == 8


class TestSubspaces:
    @pytest.mark.parametrize("n,q,dim", [(3, 2, 1), (3, 3, 2), (4, 2, 2),
                                         (5, 2, 1), (5, 2, 2), (4, 3, 1)])
    def test_counts_match_gaussian_binomial(self, n, q, dim):
        # projective dimension dim in PG(n,q) = vector dimension dim+1 in F^(n+1)
        subs = pg_subspaces(n, q, dim)
        assert len(subs) == gaussian_binomial(n + 1, dim + 1, q)
        assert len(set(subs)) == len(subs)

    # the sha256 of repr(pg_subspaces(n, q, dim)): every basis, in order
    @pytest.mark.parametrize("n,q,dim,sha256", [
        (3, 2, 1, "e69c522ddf2164ca8ba92c200ca97a136a90f057d4a78032cbfa76188c0d6f47"),
        (3, 3, 2, "622afdc61f345f5dcdb6a495b9e5b0f32d8ace4a0e6629ae82246e5242678f75"),
        (4, 2, 2, "2503926ba2c217d5be98d101f417cbc6142eb4a92016d5d26d346e2ef68f2e5b"),
        (5, 2, 1, "c3de45cbd087d102195d3b011a69d95ff86b66d7448d3fbe44330699093bd1c0"),
        (5, 2, 2, "0775d9ceddff383664a3d91148d400d10b2288eea34742daaf6bad075205bbb5"),
        (4, 3, 1, "de5bb27bb9f028df786295976b4af53ec1afbd861e7049b10f663d24442b7e14"),
        (4, 4, 1, "f4846e0340262689bee20c7063ca5836ae4275625e70b70d2baf91c60798d98f"),
        (4, 4, 2, "99319e578db35e8fbb125492c0c827bee70d3cf1c4b8c718c10327e0c8350fe1"),
    ])
    def test_output_pinned(self, n, q, dim, sha256):
        assert hashlib.sha256(repr(pg_subspaces(n, q, dim)).encode()).hexdigest() == sha256

    def test_containment_partial_order(self):
        f, lines, planes, included = _pg42()
        for ln in lines[:20]:
            assert contains(f, ln, ln)
            assert orthogonal(f, ln, nullspace(f, ln))
        # every line lies in exactly [3 choose 1]_2 = 7 planes of PG(4,2)
        normals = [nullspace(f, pl) for pl in planes]
        for i, ln in enumerate(lines):
            inside = [j for j in range(len(planes)) if orthogonal(f, ln, normals[j])]
            assert inside == [j for j in range(len(planes)) if (j, i) in included]
            assert len(inside) == 7

    def test_contains_transitive(self):
        f = FiniteField(2)
        planes = pg_subspaces(4, 2, 2)
        lines = pg_subspaces(4, 2, 1)
        points = pg_subspaces(4, 2, 0)
        pl = planes[0]
        inner = [ln for ln in lines if orthogonal(f, ln, nullspace(f, pl))]
        assert inner == [ln for ln in lines if contains(f, pl, ln)]
        for ln in inner[:5]:
            for pt in points:
                if orthogonal(f, pt, nullspace(f, ln)):
                    assert contains(f, ln, pt)
                    assert orthogonal(f, pt, nullspace(f, pl))

    def test_span_is_idempotent(self):
        f = FiniteField(3)
        s = span(f, [(1, 0, 2, 1), (0, 1, 1, 1)])
        assert span(f, s) == s

    @pytest.mark.parametrize("hyperplane", [False, True])
    @pytest.mark.parametrize("point", [False, True])
    def test_lp4_polarity_incidences_match_span_oracle(self, hyperplane, point):
        f, lines, planes, included = _pg42()
        e4 = ((0, 0, 0, 0, 1),)
        in_h0 = lambda s: all(r[4] == 0 for r in s)
        through_e4 = lambda s: contains(f, s, e4)
        # the symplectic polarity of GF(2)^4 by brute force over all vectors
        form = lambda x, y: (x[0] * y[1] + x[1] * y[0] + x[2] * y[3] + x[3] * y[2]) % 2
        vectors = list(itertools.product(range(2), repeat=4))
        perp = lambda rows: span(f, [y for y in vectors
                                     if all(form(x, y) == 0 for x in rows)])
        quotient = lambda s: span(f, [r[:4] for r in s if r[4] == 0])
        h_lines = {i: perp([r[:4] for r in ln])
                   for i, ln in enumerate(lines) if hyperplane and in_h0(ln)}
        p_lines = {i: quotient(ln)
                   for i, ln in enumerate(lines) if point and through_e4(ln)}
        c = lp4(2, hyperplane_polarity=hyperplane, point_polarity=point)
        for j, pl in enumerate(planes):
            expected = []
            for i in range(len(lines)):
                if i in h_lines and in_h0(pl):
                    inc = contains(f, span(f, [r[:4] for r in pl]), h_lines[i])
                elif i in p_lines and through_e4(pl):
                    inc = contains(f, perp(quotient(pl)), p_lines[i])
                else:
                    inc = (j, i) in included
                if inc:
                    expected.append(i)
            assert c.lines[j] == tuple(expected)

    def test_lp4_3_sampled_planes_match_rref_oracle(self):
        f = FiniteField(3)
        lines = pg_subspaces(4, 3, 1)
        planes = pg_subspaces(4, 3, 2)
        c = lp4(3)
        for j in random.Random(3).sample(range(len(planes)), 10):
            assert c.lines[j] == tuple(i for i, ln in enumerate(lines)
                                       if contains(f, planes[j], ln))

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_plane_lines_closed_under_combinations(self, q):
        f = FiniteField(q)
        points = pg_subspaces(2, q, 0)
        index = {pt[0]: i for i, pt in enumerate(points)}

        def normalized(vec):
            lead = next(x for x in vec if x)
            inv = f.inv(lead)
            return tuple(f.mul(inv, x) for x in vec)

        for line in projective_plane(q).lines:
            for i, j in itertools.combinations(line, 2):
                a, b = points[i][0], points[j][0]
                spanned = {i} | {index[normalized([f.add(f.mul(m, x), y)
                                                   for x, y in zip(a, b)])]
                                 for m in range(q)}
                assert spanned == set(line)


@functools.lru_cache(maxsize=None)
def _pg42():
    """GF(2), the lines and planes of PG(4,2) and the (plane, line) index
    pairs with the line inside the plane, by the rref oracle."""
    f = FiniteField(2)
    lines = pg_subspaces(4, 2, 1)
    planes = pg_subspaces(4, 2, 2)
    included = {(j, i) for j, pl in enumerate(planes)
                for i, ln in enumerate(lines) if contains(f, pl, ln)}
    return f, lines, planes, included


def pg_subspaces(n: int, q: int, dim: int) -> list[tuple[tuple[int, ...], ...]]:
    """All dim-dimensional subspaces of PG(n, q), _subspace_stack's RREF
    bases as tuples of rows."""
    return [tuple(map(tuple, m)) for m in _subspace_stack(n, q, dim).tolist()]


def rref(field: FiniteField, rows) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form over field, one row operation at a time;
    returns (rows, pivot columns)."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = field.inv(mat[r][col])
        mat[r] = [field.mul(inv, c) for c in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [field.sub(c, field.mul(f, d)) for c, d in zip(mat[i], mat[r])]
        pivots.append(col)
    return tuple(tuple(row) for row in mat[:len(pivots)]), tuple(pivots)


def nullspace(field: FiniteField, mat) -> list[list[int]]:
    """Basis of the right nullspace of mat over field: the annihilator of
    the row space."""
    reduced, pivots = rref(field, mat)
    basis = []
    for j in range(len(mat[0])):
        if j not in pivots:
            vec = [0] * len(mat[0])
            vec[j] = 1
            for row, pc in zip(reduced, pivots):
                vec[pc] = field.neg(row[j])
            basis.append(vec)
    return basis


def span(field, vectors):
    """RREF basis of the subspace spanned by the given vectors."""
    return rref(field, vectors)[0]


def contains(field, a, b):
    """The rref oracle: b lies in a iff adding b's rows leaves the span a."""
    return span(field, a + b) == a


def perm_compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Composition p followed by q: (p*q)(x) = q(p(x))."""
    return tuple(q[x] for x in p)


def element_order(g: Group, a: int) -> int:
    """Least n >= 1 with a^n the identity, by repeated multiplication."""
    n, x = 1, a
    while x != g.identity:
        x = g.mul(x, a)
        n += 1
    return n


def gl2(p: int) -> int:
    """|GL(2, p)|: ordered bases of GF(p)^2."""
    return (p * p - 1) * (p * p - p)


def closure(gens, n) -> set:
    """Every composition of the maps gens (rows of indices 0..n-1), the
    identity included, as tuples."""
    gens = [np.asarray(phi) for phi in gens]
    seen = {tuple(range(n))}
    queue = [np.arange(n)]
    while queue:
        x = queue.pop()
        for phi in gens:
            y = phi[x]
            if tuple(y.tolist()) not in seen:
                seen.add(tuple(y.tolist()))
                queue.append(y)
    return seen


def aut_elements(aut, n: int) -> np.ndarray:
    """Every automorphism that aut's generators generate on n points, one
    row each in ascending order, so the identity comes first."""
    return np.array(sorted(closure(aut.generators, n))).reshape(-1, n)


def gens_span(g: Group, gens) -> set:
    """The subgroup that the elements gens generate, by repeated products."""
    span = {g.identity}
    while True:
        more = span | {g.mul(a, b) for a in span for b in gens}
        if more == span:
            return span
        span = more


def extend_to_map(g: Group, gens, images):
    """The map that sends each product of gens to the same product of
    images, as an index array, or None if two products of gens that are
    equal in g have different images."""
    phi = -np.ones(g.n, dtype=np.intp)
    phi[g.identity] = g.identity
    queue = [g.identity]
    while queue:
        a = queue.pop()
        for s, t in zip(gens, images):
            b, want = g.mul(a, s), g.mul(int(phi[a]), t)
            if phi[b] < 0:
                phi[b] = want
                queue.append(b)
            elif phi[b] != want:
                return None
    return phi


def save_cayley_file(g: Group, path) -> None:
    """Write g in the Cayley table format that group_from_cayley_file reads,
    with a `#` comment line per element label."""
    rows = [str(g.n)] + [" ".join(map(str, row)) for row in g.table.tolist()]
    rows += [f"# {i} {el}" for i, el in enumerate(g.elements)]
    path.write_text("\n".join(rows) + "\n")


def intercalate_swapped(n: int) -> list[list[int]]:
    """The table of Z_n, n even, with one intercalate swapped: the 2 x 2
    subsquare on rows and columns 1 and 1 + n/2, which holds 2 and
    2 + n/2, off the identity's row and column.  The result is still a
    Latin square with identity 0, but not associative."""
    table = cyclic(n).table.tolist()
    a, b = 1, 1 + n // 2
    table[a][a], table[a][b] = table[a][b], table[a][a]
    table[b][a], table[b][b] = table[b][b], table[b][a]
    return table


def loop_tables(n: int):
    """Every n x n Latin square whose row and column 0 are 0..n-1 in order:
    the Cayley tables of all loops on 0..n-1 with identity 0."""
    table = [[i if j == 0 else j if i == 0 else None for j in range(n)]
             for i in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(c):
        if c == len(cells):
            yield np.array(table)
            return
        i, j = cells[c]
        for v in range(n):
            if v not in table[i][:j] and all(table[r][j] != v for r in range(i)):
                table[i][j] = v
                yield from fill(c + 1)
        table[i][j] = None

    return fill(0)


class TestGroups:
    def test_cyclic(self):
        g = cyclic(12)
        assert g.n == 12 and g.identity == 0
        assert g.mul(7, 8) == 3
        assert element_order(g, 3) == 4

    def test_symmetric_order_and_composition(self):
        s4 = symmetric(4)
        assert s4.n == 24
        a = perm_from_cycles(4, (1, 2))
        b = perm_from_cycles(4, (2, 3))
        left_then_right = perm_compose(a, b)
        assert s4.mul(s4.index(a), s4.index(b)) == s4.index(left_then_right)
        # (1,2) then (2,3) sends 1 -> 2 -> 3
        assert left_then_right[0] == 2

    @pytest.mark.parametrize("n", range(1, 7))
    def test_symmetric_matches_composed_table(self, n):
        # the vectorised table against one perm_compose and lookup a product
        want = _group(sorted(itertools.permutations(range(n))), perm_compose)
        got = symmetric(n)
        assert got.elements == want.elements
        assert np.array_equal(got.table, want.table)
        assert got.identity == want.identity

    def test_quaternion_relations(self):
        q8 = quaternion8()
        i, j, k = (q8.index((1, a)) for a in "ijk")
        minus_one = q8.index((-1, "1"))
        assert q8.mul(i, i) == minus_one
        assert q8.mul(i, j) == k
        assert sorted(element_order(q8, x) for x in range(8)) == \
            [1, 2, 4, 4, 4, 4, 4, 4]

    def test_direct_product(self):
        g = direct_product(cyclic(4), symmetric(4))
        assert g.n == 96
        assert element_order(g, g.index((1, tuple(range(4))))) == 4

    def test_frobenius_31_5(self):
        g = frobenius_31_5()
        mults = sorted(pow(2, i, 31) for i in range(5))
        want = _group([(a, b) for a in mults for b in range(31)],
                      lambda x, y: (y[0] * x[0] % 31,
                                    (y[0] * x[1] + y[1]) % 31))
        assert g.elements == want.elements
        assert np.array_equal(g.table, want.table)
        assert g.n == 155
        f = g.index((1, 1))
        h = g.index((2, 0))
        assert element_order(g, f) == 31
        assert element_order(g, h) == 5
        # h^-1 f h = f^2 (conjugation acts as the multiplier 2)
        conj = g.mul(g.mul(g.inv(h), f), h)
        assert conj == g.mul(f, f)

    @pytest.mark.parametrize("spec, count", [
        ("cyclic(12)", 0), ("direct_product(cyclic(6),cyclic(6))", 0),
        ("symmetric(3)", 5), ("quaternion8", 3), ("symmetric(5)", 119),
        ("direct_product(cyclic(4),symmetric(4))", 23),
        ("frobenius_31_5", 154),
    ])
    def test_inner_automorphisms(self, spec, count):
        # the conjugations x -> h^-1 x h, one non-trivial map per element of
        # G/Z(G) but the identity, all among the automorphisms
        g = make_group(spec)
        conj = {tuple(g.mul(g.mul(g.inv(h), x), h) for x in range(g.n))
                for h in range(g.n)}
        assert len(conj) == count + 1
        assert conj <= set(map(tuple, aut_elements(g.automorphisms, g.n).tolist()))

    @pytest.mark.parametrize("spec, order", [
        ("cyclic(13)", sympy.totient(13)),
        ("cyclic(36)", sympy.totient(36)),
        # Z6 x Z6 = (Z2 x Z2) x (Z3 x Z3): GL(2,2) x GL(2,3)
        ("direct_product(cyclic(6),cyclic(6))", gl2(2) * gl2(3)),
        # S_n is complete for n != 2, 6, and Aut(Q8) = S4
        ("symmetric(4)", 24), ("symmetric(5)", 120), ("quaternion8", 24),
        # Frobenius Z_p : Z_m with 1 < m | p - 1: Hol(Z_p), of order p(p-1)
        ("frobenius_31_5", 31 * 30),
        # Aut(Z4) x Aut(S4) and the central maps (z, s) -> (z f(s), s) for
        # f in Hom(S4, Z4), which factors through S4/A4 = Z2
        ("direct_product(cyclic(4),symmetric(4))", 2 * 24 * 2),
    ])
    def test_automorphism_group_order(self, spec, order):
        g = make_group(spec)
        maps = aut_elements(g.automorphisms, g.n)
        assert g.automorphisms.order == len(maps) == order
        assert (maps[0] == np.arange(g.n)).all()
        assert len(set(map(tuple, maps.tolist()))) == order
        for phi in maps:
            assert (phi[g.table] == g.table[phi[:, None], phi]).all()
        assert closure(g.automorphisms.generators, g.n) == \
            set(map(tuple, maps.tolist()))

    @pytest.mark.parametrize("spec", [
        "cyclic(1)", "cyclic(2)", "cyclic(13)", "cyclic(16)", "symmetric(3)",
        "quaternion8", "symmetric(4)", "direct_product(cyclic(4),cyclic(4))",
        "direct_product(quaternion8,cyclic(2))",
        "direct_product(cyclic(3),symmetric(3))",
        "direct_product(cyclic(2),direct_product(cyclic(2),cyclic(2)))",
    ])
    def test_automorphisms_match_brute_force(self, spec):
        # every choice of images of a generating set picked here, largest
        # element order first, kept when it extends to a bijective map
        # that preserves the whole table
        g = make_group(spec)
        T = g.table
        gens = []
        for a in sorted(range(g.n), key=lambda a: -element_order(g, a)):
            if a not in gens_span(g, gens):
                gens.append(a)
        brute = set()
        for images in itertools.product(range(g.n), repeat=len(gens)):
            phi = extend_to_map(g, gens, images)
            if phi is not None and len(set(phi.tolist())) == g.n and \
                    (phi[T] == T[phi[:, None], phi]).all():
                brute.add(tuple(phi.tolist()))
        assert set(map(tuple, aut_elements(g.automorphisms, g.n).tolist())) == brute
        assert closure(g.automorphisms.generators, g.n) == brute
        # and the automorphisms that fix a generator, or two elements
        for fixed in ([], gens[:1], gens[-1:], [1 % g.n, g.n - 1]):
            fixing = g.automorphisms_fixing(fixed)
            want = {phi for phi in brute if all(phi[x] == x for x in fixed)}
            assert set(map(tuple, aut_elements(fixing, g.n).tolist())) == want
            assert fixing.order == len(want)
            assert closure(fixing.generators, g.n) == want

    def test_automorphisms_fixing_leaves_no_garbage(self):
        # a self-referencing closure left behind would be a cycle that only
        # the cyclic collector frees, found here with the collector off
        g = make_group("direct_product(cyclic(4),symmetric(4))")
        g.automorphisms_fixing([])
        gc.collect()
        gc.disable()
        try:
            g.automorphisms_fixing([])
            g.automorphisms_fixing([5])
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("spec", [
        "cyclic(16)", "quaternion8", "direct_product(cyclic(4),cyclic(4))",
        "direct_product(cyclic(3),symmetric(3))",
    ])
    def test_join_orbit_leaders(self, spec):
        # joining elements one at a time from {e}: each subgroup once, and
        # its orbit leaders under the automorphisms that fix it, from the
        # full list of automorphisms
        g = make_group(spec)
        maps = aut_elements(g.automorphisms, g.n).tolist()
        met = {}
        for a, b in itertools.product(range(g.n), repeat=2):
            H = g.join(g.join(g.trivial_subgroup, a), b)
            span = gens_span(g, [a, b])
            assert [x for x in range(g.n) if H.mask[x]] == sorted(span)
            assert met.setdefault(H.mask, H) is H
            fixing = [phi for phi in maps if all(phi[x] == x for x in span)]
            leads = [int(all(phi[x] >= x for phi in fixing))
                     for x in range(g.n)]
            assert list(H.leads) == leads

    @pytest.mark.parametrize("p, r", [(2, 6), (3, 4)])
    def test_automorphisms_of_elementary_abelian_groups(self, p, r):
        # Aut(Z_p^r) = GL(r, p), of order prod (p^r - p^i): 2.0e10 for
        # Z2^6 and 2.4e7 for Z3^4, held as generators that each at least
        # double the group the ones before generate
        spec = f"cyclic({p})"
        for _ in range(r - 1):
            spec = f"direct_product(cyclic({p}),{spec})"
        g = make_group(spec)
        aut = g.automorphisms
        gl = 1
        for i in range(r):
            gl *= p ** r - p ** i
        assert aut.order == gl
        for phi in np.array(aut.generators):
            assert (phi[g.table] == g.table[phi[:, None], phi]).all()
        assert len(aut.generators) <= math.log2(aut.order)
        # fixing a subgroup of order p^j leaves GL(r - j, p) times the maps
        # into it, Hom(Z_p^(r-j), Z_p^j) of order p^(j (r - j))
        fixed = [1, p]  # (0, ..., 0, 1) and (0, ..., 1, 0)
        j = 2
        want = p ** (j * (r - j))
        for i in range(r - j):
            want *= p ** (r - j) - p ** i
        assert g.automorphisms_fixing(fixed).order == want

    @pytest.mark.parametrize("spec", [
        "cyclic(1)", "cyclic(13)", "cyclic(36)", "symmetric(3)", "quaternion8",
        "symmetric(5)", "frobenius_31_5",
        "direct_product(cyclic(4),symmetric(4))",
        "direct_product(quaternion8,cyclic(2))",
    ])
    def test_element_orders_and_exponent(self, spec):
        g = make_group(spec)
        orders = g.element_orders.tolist()
        assert orders == [element_order(g, a) for a in range(g.n)]
        assert g.n % g.exponent == 0
        assert all(g.exponent % o == 0 for o in orders)
        assert g.is_abelian == all(g.mul(a, b) == g.mul(b, a)
                                   for a in range(g.n) for b in range(g.n))

    @pytest.mark.parametrize("m, n", [(1, 1), (2, 2), (4, 6), (3, 5),
                                      (8, 12), (9, 3)])
    def test_exponent_of_direct_product(self, m, n):
        g = direct_product(cyclic(m), cyclic(n))
        assert g.exponent == sympy.ilcm(m, n)
        assert g.is_abelian

    def test_s5_element_orders(self):
        # 1, 10 transpositions + 15 double transpositions, 20 3-cycles,
        # 30 4-cycles, 24 5-cycles, 20 products of a 3-cycle and a
        # disjoint transposition
        g = symmetric(5)
        assert np.bincount(g.element_orders).tolist() == [0, 1, 25, 20, 30, 24, 20]
        assert g.exponent == 60
        assert not g.is_abelian

    @pytest.mark.parametrize("spec", [
        "cyclic(36)", "direct_product(cyclic(6),cyclic(6))",
        "direct_product(cyclic(8),cyclic(4))",
        "direct_product(cyclic(3),direct_product(cyclic(3),cyclic(9)))",
    ])
    def test_power_maps_of_abelian_groups(self, spec):
        g = make_group(spec)
        e = g.exponent
        units = [t for t in range(1, e) if sympy.igcd(t, e) == 1]
        # x -> x^t by repeated products from the table
        powers = [np.array([functools.reduce(g.mul, [x] * t, g.identity)
                            for x in range(g.n)]) for t in range(e)]
        for t in units:
            phi = powers[t]
            assert sorted(phi.tolist()) == list(range(g.n))
            assert (phi[g.table] == g.table[phi[:, None], phi]).all()
        classes = g.power_classes(units)
        for x in range(g.n):
            assert classes[x] == sorted({int(powers[t][x]) for t in units})
            assert classes[classes[x][0]] is classes[x]

    def test_invalid_table_rejected(self):
        with pytest.raises(InvalidCayleyTable):
            Group([[0, 1], [0, 1]])  # not a Latin square
        with pytest.raises(InvalidCayleyTable):
            # idempotent quasigroup of order 3: Latin but has no identity
            Group([[0, 2, 1], [2, 1, 0], [1, 0, 2]])
        for big in (2**31, 10**20):     # entries beyond int32
            with pytest.raises(InvalidCayleyTable, match="out of range"):
                Group([[0, 1], [1, big]])

    @pytest.mark.parametrize("n", [10, 202])
    def test_intercalate_swap_rejected(self, n):
        with pytest.raises(InvalidCayleyTable, match="associativity"):
            Group(intercalate_swapped(n))

    @pytest.mark.parametrize("n, groups", [(1, 1), (2, 1), (3, 1), (4, 4), (5, 6)])
    def test_light_test_matches_brute_force(self, n, groups):
        # every loop of order n, as is and relabelled by i -> n-1-i so that
        # the identity is not element 0: accepted exactly when all n^3
        # triples associate; the groups are the (n-1)!/|Aut| Cayley tables
        # with identity 0 of each group of order n
        flip = n - 1 - np.arange(n)
        accepted = 0
        for table in loop_tables(n):
            associative = np.array_equal(table[table], table[:, table])
            relabelled = np.empty_like(table)
            relabelled[np.ix_(flip, flip)] = flip[table]
            for t in (table, relabelled):
                try:
                    g = Group(t)
                except InvalidCayleyTable as exc:
                    assert not associative and "associativity" in str(exc)
                else:
                    assert associative
                    assert (g.table[np.arange(n), g.inverses] == g.identity).all()
            accepted += associative
        assert accepted == groups

    def test_cayley_file_roundtrip(self, tmp_path):
        g = quaternion8()
        path = tmp_path / "q8.grp"
        save_cayley_file(g, path)
        h = group_from_cayley_file(path)
        assert h.n == g.n
        assert (h.table == g.table).all()

    def test_make_group_specs(self):
        assert make_group("cyclic(13)").n == 13
        assert make_group("symmetric(5)").n == 120
        assert make_group("quaternion8").n == 8
        assert make_group("direct_product(cyclic(2),cyclic(3))").n == 6
        assert make_group("frobenius_31_5").n == 155
        nested = make_group(
            "direct_product(quaternion8,direct_product(cyclic(2),cyclic(2)))")
        assert nested.n == 32
        with pytest.raises(ValueError):
            make_group("dodecahedral(17)")

    @pytest.mark.parametrize("spec", ["cyclic(13,5)", "symmetric(3,9)",
                                      "quaternion8(2)", "frobenius_31_5(7)",
                                      "quaternion8()", "cyclic", "cyclic()",
                                      "cyclic(x)", "cyclic(13",
                                      "direct_product(cyclic(2))"])
    def test_make_group_rejects_wrong_arguments(self, spec):
        with pytest.raises(ValueError, match=re.escape(repr(spec))):
            make_group(spec)

    @pytest.mark.parametrize("n", [0, -3])
    def test_cyclic_lower_bound(self, n):
        with pytest.raises(ValueError, match="cyclic needs n >= 1"):
            cyclic(n)


SPEC_SEEDS = ["paley(13)", "rook(4)", "latin_square_cyclic(5)",
              "complement(petersen)", "shrikhande", "cyclic(13)",
              "symmetric(4)", "quaternion8",
              "direct_product(cyclic(2),cyclic(3))"]


@st.composite
def mutated_specs(draw):
    """A seed spec with one character inserted or deleted: a parenthesis,
    a comma, a space or a letter, never a digit, so no size grows."""
    spec = draw(st.sampled_from(SPEC_SEEDS))
    alphabet = "(), " + "abcdefghijklmnopqrstuvwxyz_"
    positions = [i for i, ch in enumerate(spec) if ch in alphabet]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(spec)))
        return spec[:i] + draw(st.sampled_from(alphabet)) + spec[i:]
    i = draw(st.sampled_from(positions))
    return spec[:i] + spec[i + 1:]


@settings(max_examples=200, deadline=None)
@given(mutated_specs())
def test_spec_grammar_returns_or_raises_value_error(spec):
    for build in (make_graph, make_group):
        try:
            build(spec)
        except ValueError:
            pass


@settings(max_examples=50)
@given(st.sampled_from([6, 8, 12, 24]), st.data())
def test_group_axioms_random_triples(n, data):
    g = symmetric(4) if n == 24 else cyclic(n)
    a = data.draw(st.integers(0, g.n - 1))
    b = data.draw(st.integers(0, g.n - 1))
    c = data.draw(st.integers(0, g.n - 1))
    assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
    assert g.mul(a, g.identity) == a
    assert g.mul(a, g.inv(a)) == g.identity


@settings(max_examples=30)
@given(st.permutations(list(range(6))), st.permutations(list(range(6))))
def test_perm_compose_is_left_to_right(p, q):
    p, q = tuple(p), tuple(q)
    c = perm_compose(p, q)
    for x in range(6):
        assert c[x] == q[p[x]]
