"""Finite fields, projective subspaces and finite groups given by Cayley tables.

Field elements are plain ints in [0, q).  For q = p^e the int encodes the
coefficient vector of a polynomial over Z_p in base p, i.e. the element
sum(c_i x^i) is stored as sum(c_i p^i).  The modulus is the monic irreducible
polynomial of degree e whose code (in the same encoding, leading coefficient
included) is smallest; reading coefficients from x^(e-1) down to x^0 this is
the lexicographically least choice.  For GF(4) that is x^2+x+1, for GF(8)
x^3+x+1, for GF(9) x^2+1.  It is found as the first candidate whose
multiplication table has no zero divisors, since Z_p[x]/(f) is a field iff
f is irreducible.  Every field is a pair of q x q add and mul tables (q^2
entries each), which costs no caller more than the work it does anyway.

Groups are index-based: elements are 0..n-1 and the whole structure is one
n x n Cayley table.  Construction verifies every group axiom at every order,
associativity by Light's test on a generating set (see Group).

factorize is the package's one integer factoriser and _Orbits its one
orbit structure; feasibility, sdds and iso use them too.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np


class NotPrimePower(ValueError):
    pass


class InvalidCayleyTable(ValueError):
    pass


def factorize(n: int) -> dict[int, int]:
    """The prime factorisation of |n| as {prime: exponent}, primes
    ascending, by trial division; {} for n in {-1, 0, 1}."""
    out: dict[int, int] = {}
    n = abs(n)
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p^e and p prime, or raise NotPrimePower."""
    factors = factorize(q) if q >= 2 else {}
    if len(factors) != 1:
        raise NotPrimePower(f"{q} is not a prime power")
    (p, e), = factors.items()
    return p, e


class FiniteField:
    """GF(q) as add and mul tables over int-coded elements.

    The constructor builds both q x q tables, and every operation reads
    them.  The tables hold q^2 entries, which no caller notices: each does
    Omega(q^2) field work anyway (paley tests all q^2 pairs,
    projective_plane forms q^4 products, lp4 more, and grid_sdds builds a
    Cayley table of order (q-1)^2).

    The modulus is the first monic f = x^e + low of degree e, taking the
    codes low = 0, 1, ... in turn, whose multiplication table has no zero
    product of two nonzero elements.  That is the irreducible f of least
    code (Lidl and Niederreiter, Finite Fields, ch. 1): if f = gh with
    0 < deg g, deg h < e, then g and h are nonzero elements with gh = 0;
    if f is irreducible, Z_p[x]/(f) is a field, and a field has no zero
    divisors.

    The products come from multiplication by x, which acts on coefficient
    rows as the companion matrix of f: x^i b is known for every b and i < e,
    and a b = sum_i a_i (x^i b), one output coefficient at a time, so no
    more than O(q^2) integers are alive at once.
    """

    def __init__(self, q: int):
        p, e = prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        place = p ** np.arange(e)
        digits = np.arange(q)[:, None] // place % p  # row c: the coefficients of c
        add = sum((digits[:, None, i] + digits[None, :, i]) % p * place[i]
                  for i in range(e))
        for low in range(q):
            mul = self._products(digits, digits[low], place)
            if mul[1:, 1:].all():
                break
        self._add = _int_rows(add)
        self._mul = _int_rows(mul)
        self._neg = [row.index(0) for row in self._add]
        self._inv = [0] + [row.index(1) for row in self._mul[1:]]

    def _products(self, digits, tail, place) -> np.ndarray:
        """The q x q products of Z_p[x] modulo x^e + tail, with tail given
        as a coefficient row."""
        p = self.p
        shifts = [digits]  # shifts[i][b]: the coefficients of x^i b
        for _ in range(1, self.e):
            row = shifts[-1]
            up = np.roll(row, 1, axis=1)
            up[:, 0] = 0
            shifts.append((up - row[:, -1:] * tail) % p)
        shifts = np.stack(shifts)  # e x q x e
        return sum(digits @ shifts[:, :, j] % p * place[j] for j in range(self.e))

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in finite field")
        return self._inv[a]

    def matmul(self, a, b) -> np.ndarray:
        """a @ b over the field for int arrays whose last two axes are the
        matrices, leading axes broadcasting as in numpy: per inner index, a
        take from the flat mul table, then from the flat add table, at
        x q + y.  The result has the least unsigned dtype that holds q - 1,
        which keeps large stacks small."""
        q = self.q
        wide = np.min_scalar_type(q * q - 1)
        add, mul = (np.array(t, wide).ravel() for t in (self._add, self._mul))
        a, b = np.asarray(a).astype(wide) * q, np.asarray(b).astype(wide)
        acc = 0
        for t in range(a.shape[-1]):
            acc = add.take(acc * q + mul.take(a[..., :, t, None] + b[..., None, t, :]))
        return acc.astype(np.min_scalar_type(q - 1), copy=False)

    def squares(self) -> frozenset[int]:
        """Nonzero squares of the field."""
        return frozenset(self._mul[a][a] for a in range(1, self.q))

    def __repr__(self):
        return f"FiniteField({self.q})"


# -- projective subspaces -----------------------------------------------------
#
# A subspace of PG(n, q) is the RREF basis of its vector space: dim+1 rows
# of n+1 field elements.  RREF makes it canonical, so equality and ordering
# of the bases are those of the subspaces.

def orthogonal(field: FiniteField, rows, others) -> np.ndarray:
    """Whether x . y = 0 over the field for every row x of rows and y of
    others, for each pair of matrices: leading axes broadcast as in
    matmul, and two single matrices give one np.bool_.

    With others a basis of the annihilator of a subspace a, this says that
    the span of rows lies in a: the subspace test of projective incidence.
    """
    return ~field.matmul(rows, np.swapaxes(others, -1, -2)).any(axis=(-2, -1))


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional vector subspaces of GF(q)^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def _subspace_stack(n: int, q: int, dim: int) -> np.ndarray:
    """All dim-dimensional subspaces of PG(n, q), 0 <= dim <= n, as RREF
    bases, sorted, in one int array of shape (count, dim + 1, n + 1).

    Enumerates RREF matrices directly: one numpy block per choice of pivot
    columns, holding every choice of its free entries, so no dedup pass is
    needed.  One lexsort over the flattened matrices orders all blocks.
    """
    prime_power(q)  # raises NotPrimePower
    nrows = dim + 1
    ncols = n + 1
    blocks = []
    for pivots in itertools.combinations(range(ncols), nrows):
        free = [(i, j) for i, pc in enumerate(pivots)
                for j in range(pc + 1, ncols) if j not in pivots]
        block = np.zeros((q ** len(free), nrows, ncols), dtype=np.int64)
        block[:, range(nrows), pivots] = 1
        rows, cols = np.array(free, dtype=np.intp).reshape(-1, 2).T
        values = np.indices((q,) * len(free)).reshape(len(free), len(block))
        block[:, rows, cols] = values.T
        blocks.append(block.reshape(len(block), -1))
    flat = np.concatenate(blocks)
    flat = flat[np.lexsort(flat.T[::-1])]
    expected = gaussian_binomial(n + 1, dim + 1, q)
    assert len(flat) == expected, (len(flat), expected)
    return flat.reshape(-1, nrows, ncols)


# -- finite groups ------------------------------------------------------------

class Automorphisms(NamedTuple):
    """The automorphisms of a Group that fix a subgroup H pointwise, all of
    Aut(G) for H = {e} (see Group.automorphisms_fixing): their number and
    a generating set of them as int rows."""
    order: int
    generators: list[list[int]]


class Subgroup:
    """A subgroup H of a Group with what orbit pruning reads of it: gens,
    elements that span it, mask, its elements as 0/1 bytes, and leads, 0/1
    bytes that mark each element that leads (is the least of) its orbit
    under movers, a generating set of the automorphisms that fix H
    pointwise, empty when only the identity does.  joins holds the
    subgroups <H, x> met so far by x (see Group.join)."""
    __slots__ = ("gens", "mask", "leads", "joins")

    def __init__(self, gens: list[int], mask: bytes, movers: list[list[int]]):
        self.gens = gens
        self.mask = mask
        n = len(mask)
        orbits = _Orbits(n)
        for phi in movers:
            orbits.fold(phi)
        leads = bytearray(n)
        roots = set()
        for x in range(n):  # the first element met of each orbit is its least
            root = orbits.find(x)
            if root not in roots:
                roots.add(root)
                leads[x] = 1
        self.leads = bytes(leads)
        self.joins: dict[int, Subgroup] = {}


class Group:
    """Finite group on indices 0..n-1 defined by a Cayley table.

    table[a][b] is the product a*b.  left_quotients and right_quotients
    hold a^-1 b and a b^-1 as lists of int rows for code that reads one
    entry at a time (mul, inv, the SDDS backtracker), as a single lookup
    costs less in a list than in numpy.  Code that reads many entries at
    once gathers them from the numpy table and inverses in one call, as
    sdds_check does for its overlap counts.
    `elements` may carry raw labels (permutation tuples, pairs, ...); they
    default to the indices themselves.

    Construction checks every group axiom at every order, with no loop
    over the elements: the table is a Latin square, has a two-sided
    identity e and is associative.  Associativity is Light's test
    (Clifford and Preston, The Algebraic Theory of Semigroups I, 1961,
    section 1.2).  Call g middle-associative when (xg)y = x(gy) for all x, y: one n x n
    comparison, T[T[:, g]] == T[:, T[g]].  The middle-associative elements
    are closed under products, since for such a, b and any x, y

        (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).

    So if every element of a generating set passes, every product of them
    passes, which is every element, and the table is associative: the test
    is exact.  The generating set is read off the table: starting from
    {e}, take the least element not yet reached, test it, and extend the
    reached set to every product of the elements tested so far (see
    _span); a failing element stops the loop.  While all pass, the passing
    elements form a subgroup M: they are closed, associative among
    themselves and contain e, as (xe)y = xy = x(ey), and a finite
    cancellative monoid is a group.
    The reached set is a finite subset of M closed under products, so it is
    a subgroup too, and each new generator lies outside it; by Lagrange's
    theorem it at least doubles with each generator that passes.  So at
    most 1 + log2(n) generators pass, one more may fail, and the check
    costs O(n^2 log n).  A finite associative Latin square with an identity
    is a group, so the one e in each row gives that row's inverse.
    """

    def __init__(self, table, *, elements=None):
        try:
            self.table = np.ascontiguousarray(table, dtype=np.int32)
        except OverflowError:
            raise InvalidCayleyTable("entries out of range") from None
        if self.table.ndim != 2 or self.table.shape[0] != self.table.shape[1]:
            raise InvalidCayleyTable("table must be square")
        T = self.table
        n = int(T.shape[0])
        self.n = n
        if T.min() < 0 or T.max() >= n:
            raise InvalidCayleyTable("entries out of range")
        rng = np.arange(n)
        for lines in (T, T.T):
            seen = np.zeros((n, n), dtype=bool)
            seen[rng[:, None], lines] = True
            if not seen.all():
                raise InvalidCayleyTable("table is not a Latin square")
        ident = int(np.argmax(T[:, 0] == 0))  # the only e with e * 0 = 0
        if not ((T[ident] == rng) & (T[:, ident] == rng)).all():
            raise InvalidCayleyTable("no identity element")
        self.identity = ident
        gens = []
        reached = bytearray(n)
        reached[ident] = 1
        while (g := reached.find(0)) >= 0:
            if not np.array_equal(T[T[:, g]], T[:, T[g]]):
                raise InvalidCayleyTable(f"associativity fails at element {g}")
            _span(T, reached, gens, [g])
        self.inverses = np.argmax(T == ident, axis=1).astype(np.int32)
        self.elements = list(elements) if elements is not None else list(range(n))
        if len(self.elements) != n:
            raise InvalidCayleyTable("wrong number of element labels")
        self._index = {el: i for i, el in enumerate(self.elements)}
        self._subgroups: dict[bytes, Subgroup] = {}  # those join built

    @cached_property
    def left_quotients(self) -> list[list[int]]:
        """L[a][b] = a^-1 b as plain int rows, built on first use."""
        return _int_rows(self.table[self.inverses])

    @cached_property
    def right_quotients(self) -> list[list[int]]:
        """R[a][b] = a b^-1 as plain int rows, built on first use."""
        return _int_rows(self.table[:, self.inverses])

    @cached_property
    def automorphisms(self) -> Automorphisms:
        """Aut(G), built on first use (see automorphisms_fixing)."""
        return self.automorphisms_fixing(())

    @cached_property
    def element_orders(self) -> np.ndarray:
        """The order of each element, built on first use: the powers of all
        the elements are taken at once until each has met e."""
        n, e = self.n, self.identity
        rng = np.arange(n)
        order = np.zeros(n, dtype=np.int64)
        power, k = rng, 1
        while not order.all():
            order[(power == e) & (order == 0)] = k
            power, k = self.table[power, rng], k + 1
        return order

    @cached_property
    def exponent(self) -> int:
        """The least common multiple of the element orders."""
        return int(np.lcm.reduce(self.element_orders))

    @cached_property
    def is_abelian(self) -> bool:
        return bool((self.table == self.table.T).all())

    @cached_property
    def _powers(self) -> np.ndarray:
        """Row t holds x^t for every element x, t = 0, ..., exponent - 1."""
        rows = [np.full(self.n, self.identity, dtype=np.int32)]
        rng = np.arange(self.n)
        for _ in range(self.exponent - 1):
            rows.append(self.table[rows[-1], rng])
        return np.array(rows)

    def power_classes(self, units) -> list[list[int]]:
        """The orbits of the maps x -> x^t, t in units, a group of units
        modulo the exponent: entry x is the orbit of x, in ascending order,
        one list object per orbit.  An orbit is {x^t : t in units}, the
        same set for each of its elements, so its least element names it."""
        members: dict[int, list[int]] = {}
        leaders = self._powers[list(units)].min(axis=0).tolist()
        for x, a in enumerate(leaders):
            members.setdefault(a, []).append(x)
        return [members[a] for a in leaders]

    @cached_property
    def _class_key(self) -> np.ndarray:
        """One int per element that every automorphism keeps: its order and
        the order of its centralizer."""
        return (self.element_orders * (self.n + 1)
                + (self.table == self.table.T).sum(axis=1))

    @cached_property
    def _rows(self) -> list[list[int]]:
        """The table as plain int rows, row a being row a^-1 of
        left_quotients: no copy of the entries."""
        L = self.left_quotients
        return [L[a] for a in self.inverses.tolist()]

    def span(self, elements) -> bytes:
        """The subgroup that elements span, as n bytes, 1 at its elements."""
        reached = bytearray(self.n)
        reached[self.identity] = 1
        _span(self._rows, reached, [], elements)
        return bytes(reached)

    @cached_property
    def trivial_subgroup(self) -> Subgroup:
        """{e}, from which join reaches every subgroup."""
        return Subgroup([], self.span(()), self.automorphisms.generators)

    def join(self, H: Subgroup, x: int) -> Subgroup:
        """<H, x>, built once per group."""
        J = H.joins.get(x)
        if J is None:
            if H.mask[x]:
                J = H
            else:
                gens = H.gens + [x]
                mask = self.span(gens)
                J = self._subgroups.get(mask)
                if J is None:
                    aut = self.automorphisms_fixing(gens)
                    J = self._subgroups[mask] = Subgroup(gens, mask,
                                                         aut.generators)
            H.joins[x] = J
        return J

    def automorphisms_fixing(self, fixed) -> Automorphisms:
        """The automorphisms that fix every element of fixed, and so the
        subgroup H it spans, pointwise, as a stabilizer chain built from the
        table by a search over the images of a base b_1, ..., b_r: the
        elements of fixed that lie outside the span of those before, g_1,
        ..., g_h, then the least element outside the span so far until G is
        spanned.  Write H_i for the span of g_1, ..., g_h, b_1, ..., b_i.
        An automorphism fixing H is fixed by its images of the base.  The
        result holds a generating set and the order, where all of Aut(G)
        can be far too large to hold: Aut(Z2^6) = GL(6, 2) has about 2e10
        elements.

        A homomorphism phi defined on H_{i-1} extends by b_i -> y over H_i
        in at most one way: breadth-first, each element a of H_{i-1} times
        b_i and each element a reached outside H_{i-1} times each of g_1,
        ..., g_h, b_1, ..., b_i, the product a g taking the image
        phi(a) phi(g).  The products inside H_{i-1} already agree, and the
        elements reached make up H_i, as with H_{i-1} they are closed under
        right multiplication by the generators.  The extension is dropped
        at the first product whose image differs from the one found before
        or is taken by another element.  What survives is injective with
        phi(a g) = phi(a) phi(g) for every a in H_i and every generator g,
        hence a homomorphism on H_i, as every element is a product of
        generators; on H_r = G it is an automorphism.  The identity on H
        starts it off.  An automorphism keeps element orders and
        centralizer orders, so y is taken among the elements that share
        both with b_i.

        The stabilizers S_i of H_{i-1} are built from the bottom up, as in
        Schreier-Sims: S_{r+1} is trivial.  Once the automorphisms found so
        far generate S_{i+1}, each candidate y for b_i outside the orbit of
        b_i under them is searched for, as an automorphism fixing H_{i-1}
        with b_i -> y, extended over b_{i+1}, ..., b_r in turn; one that
        exists joins the generators.  Then the orbit of b_i under them is
        its orbit under S_i, and as they lie in S_i and hold S_{i+1}, the
        stabilizer of b_i in S_i, they generate S_i.  By the
        orbit-stabilizer theorem |S_i| is the orbit's size times |S_{i+1}|,
        so the order of S_1 is the product of the orbit sizes.  Each
        generator found takes b_i outside its orbit under the ones before,
        so it lies outside the group they generate, which at least doubles
        with each.
        """
        T = self._rows
        n, e = self.n, self.identity
        gens = []
        reached = bytearray(n)
        reached[e] = 1
        _span(T, reached, gens, fixed)
        h = len(gens)
        on = [[x if reached[x] else -1 for x in range(n)]]
        _span(T, reached, gens, range(n))
        key = self._class_key
        candidates = [np.flatnonzero(key == key[g]).tolist() for g in gens]

        def extend(phi, i, y):
            """phi, a homomorphism on the span of gens[:i] (-1 elsewhere),
            extended by gens[i] -> y over the span of gens[:i + 1]; None if
            no homomorphism does that injectively."""
            queue = [a for a in range(n) if phi[a] >= 0]
            phi = phi[:]
            taken = bytearray(n)
            seen = bytearray(n)
            for a in queue:
                taken[phi[a]] = seen[a] = 1
            if taken[y]:
                return None
            phi[gens[i]] = y
            taken[y] = 1
            old, new, step = len(queue), gens[i:i + 1], gens[:i + 1]
            for j, a in enumerate(queue):
                Ta, Tb = T[a], T[phi[a]]
                for g in new if j < old else step:
                    b, want = Ta[g], Tb[phi[g]]
                    if phi[b] < 0:
                        if taken[want]:
                            return None
                        phi[b] = want
                        taken[want] = 1
                    elif phi[b] != want:
                        return None
                    if not seen[b]:
                        seen[b] = 1
                        queue.append(b)
            return phi

        def complete(phi, i):
            """An automorphism that agrees with phi on the span of gens[:i],
            or None."""
            if phi is None or i == len(gens):
                return phi
            for y in candidates[i]:
                done = complete(extend(phi, i, y), i + 1)
                if done is not None:
                    return done
            return None

        # on[j] is the identity on the span of gens[:h + j]
        for i in range(h, len(gens) - 1):
            on.append(extend(on[-1], i, gens[i]))
        found = []
        orbits = _Orbits(n)     # under found, which fixes gens[:i] at step i
        order = 1
        for i in reversed(range(h, len(gens))):
            for y in candidates[i]:
                if orbits.find(y) != orbits.find(gens[i]):
                    phi = complete(extend(on[i - h], i, y), i + 1)
                    if phi is not None:
                        found.append(phi)
                        orbits.fold(phi)
            order *= orbits.size_of(gens[i])
        del complete  # it refers to itself: a cycle left for the collector
        return Automorphisms(order, found)

    def mul(self, a: int, b: int) -> int:
        return self.left_quotients[self.inv(a)][b]

    def inv(self, a: int) -> int:
        return self.left_quotients[a][self.identity]

    def index(self, element) -> int:
        """Index of a raw element label."""
        return self._index[element]

    def subset_indices(self, elements) -> tuple[int, ...]:
        return tuple(self._index[e] for e in elements)

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"Group(n={self.n})"


def _span(T, reached: bytearray, gens: list[int], elements) -> None:
    """Grow reached, the 0/1 mask of the subgroup H that gens span, in place
    to the subgroup that gens and elements span, T being the table as
    rows.  Each element of elements outside the span so far joins gens;
    then each element of H is multiplied on the right by it and each
    element reached outside H by every generator, since the other products
    lie in H.  So the reached set ends closed under right multiplication
    by the generators, which in a finite group makes it every product of
    them."""
    for g in elements:
        if reached[g]:
            continue
        gens.append(g)
        queue = [a for a in range(len(reached)) if reached[a]]
        old = len(queue)
        for j, a in enumerate(queue):
            Ta = T[a]
            for x in gens[-1:] if j < old else gens:
                b = Ta[x]
                if not reached[b]:
                    reached[b] = 1
                    queue.append(b)


class _Orbits:
    """Union-find over 0..n-1 whose classes are the orbits of the folded
    permutations, given as int rows: the orbits of the group they
    generate."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def fold(self, g) -> None:
        parent, size = self.parent, self.size
        for x, y in enumerate(g):
            if x != y:
                while parent[x] != x:       # find(x) and find(y), inlined
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                while parent[y] != y:
                    parent[y] = parent[parent[y]]
                    y = parent[y]
                if x != y:
                    if size[x] < size[y]:
                        x, y = y, x
                    parent[y] = x
                    size[x] += size[y]

    def size_of(self, x: int) -> int:
        return self.size[self.find(x)]


def _int_rows(indices: np.ndarray) -> list[list[int]]:
    """An m x n array of indices below n as lists of Python ints.  Indexing
    an object array makes the entries share n int objects, 8 bytes an
    entry, where tolist() on an int array makes a new int per entry above
    256."""
    return np.arange(indices.shape[1], dtype=object)[indices].tolist()


# -- permutation helpers --------------------------------------------------------

def perm_from_cycles(n: int, *cycles) -> tuple[int, ...]:
    """Permutation of 0..n-1 from cycles given in 1-based notation."""
    img = list(range(n))
    for cyc in cycles:
        for i, a in enumerate(cyc):
            b = cyc[(i + 1) % len(cyc)]
            img[a - 1] = b - 1
    return tuple(img)


def _group(elems, product) -> Group:
    """The group on the labels elems, in that order, under product(a, b)."""
    index = {el: i for i, el in enumerate(elems)}
    return Group([[index[product(a, b)] for b in elems] for a in elems],
                 elements=elems)


def cyclic(n: int) -> Group:
    if n < 1:
        raise ValueError(f"cyclic needs n >= 1, got {n}")
    return _group(range(n), lambda a, b: (a + b) % n)


def symmetric(n: int) -> Group:
    """Symmetric group on n letters; elements are image tuples, sorted.

    Products compose left-to-right: (p*q)(x) = q(p(x)).
    """
    if not 1 <= n <= 7:
        raise ValueError("symmetric(n) supported for 1 <= n <= 7")
    elems = sorted(itertools.permutations(range(n)))
    perms = np.array(elems)
    size = len(elems)
    # a permutation's code is its base-n value; x -> q[p[x]] has the code
    # sum_x w[x] q[p[x]] = sum_y w[p^-1(y)] q[y], row p of left times q
    weights = n ** np.arange(n - 1, -1, -1)
    left = weights[np.argsort(perms, axis=1)]
    rank = np.zeros(n ** n, dtype=np.int32)
    rank[perms @ weights] = np.arange(size)
    table = np.empty((size, size), dtype=np.int32)
    step = max(1, (1 << 16) // size)   # rows per block of products
    for a in range(0, size, step):
        table[a:a + step] = rank[left[a:a + step] @ perms.T]
    return Group(table, elements=elems)


_QUAT_AXIS = {
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
    ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
    ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
    ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
    ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
}


def _quaternion_product(x, y):
    sign, axis = _QUAT_AXIS[x[1], y[1]]
    return sign * x[0] * y[0], axis


def quaternion8() -> Group:
    """Quaternion group {+-1, +-i, +-j, +-k} with ij = k."""
    return _group([(1, "1"), (-1, "1"), (1, "i"), (-1, "i"),
                   (1, "j"), (-1, "j"), (1, "k"), (-1, "k")],
                  _quaternion_product)


def direct_product(a: Group, b: Group) -> Group:
    na, nb = a.n, b.n
    Ta = a.table.astype(np.int64)
    Tb = b.table.astype(np.int64)
    T = (Ta[:, None, :, None] * nb + Tb[None, :, None, :]).reshape(na * nb, na * nb)
    elems = [(x, y) for x in a.elements for y in b.elements]
    return Group(T, elements=elems)


def frobenius_31_5() -> Group:
    """Frobenius group of order 155: maps x -> a*x + b on Z_31, a in <2>.

    Elements are pairs (a, b); composition left-to-right, so
    (a1,b1)*(a2,b2) = (a2*a1, a2*b1 + b2) mod 31.
    """
    mults = np.array(sorted(pow(2, i, 31) for i in range(5)))
    place = np.zeros(31, dtype=np.int64)
    place[mults] = np.arange(5)     # (a, b) is element 31 place[a] + b
    a = np.repeat(mults, 31)
    b = np.tile(np.arange(31), 5)
    table = place[a * a[:, None] % 31] * 31 + (a * b[:, None] + b) % 31
    return Group(table, elements=list(zip(a.tolist(), b.tolist())))


def group_from_cayley_file(path) -> Group:
    """Read a Cayley table file: first line n, then n rows of n indices."""
    return read_file(path, _cayley_table)


def _cayley_table(lines, _text) -> Group:
    n = int(lines[0]) if lines else None
    rows = [[int(tok) for tok in line.split()] for line in lines[1:]]
    if n is None or len(rows) != n or any(len(r) != n for r in rows):
        raise InvalidCayleyTable(f"expected {n} rows of {n} entries")
    return Group(rows)


# -- outside input: files and string specs ---------------------------------------

def read_file(path, parse):
    """parse(lines, text) for the file at path: text unchanged, for JSON,
    and lines cut at `#`, stripped, blank ones dropped.  Every ValueError,
    from decoding, parsing or building the object, comes out naming path."""
    try:
        text = Path(path).read_text()
        lines = [s for s in (ln.split("#", 1)[0].strip()
                             for ln in text.splitlines()) if s]
        return parse(lines, text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


_ARG_KINDS = {"i": "n", "s": "spec", "p": "path"}
_MAX_NESTING = 32   # deeper specs are rejected before any recursion


def build_spec(spec: str, kind: str, builders: dict):
    """Build the object a spec names: `name` or `name(arg,...)`.

    builders[name] is (signature, build), the signature one letter per
    argument: `i` an integer, `s` a nested spec, passed on as a string, and
    `p` a path, which is the whole text between the parentheses, taken
    verbatim, commas included.  A name without arguments is written bare,
    not `name()`.  An unknown name, a wrong argument count or a non-integer
    where an integer is needed raises ValueError naming spec, as does
    nesting deeper than _MAX_NESTING.
    """
    head, paren, rest = spec.strip().partition("(")
    name = head.strip()
    if name not in builders:
        raise ValueError(f"unknown {kind} spec {spec!r}")
    sig, build = builders[name]
    usage = name + (f"({','.join(_ARG_KINDS[c] for c in sig)})" if sig else "")
    if not paren:
        args = []
    elif not rest.endswith(")"):
        raise ValueError(f"bad {kind} spec {spec!r}: write {usage}")
    elif sig == "p":
        args = [rest[:-1]]
    else:
        args, depth, start = [], 0, 0
        for i, ch in enumerate(rest[:-1]):
            depth += (ch == "(") - (ch == ")")
            if depth > _MAX_NESTING:
                raise ValueError(f"bad {kind} spec {spec!r}: nested deeper "
                                 f"than {_MAX_NESTING}")
            if ch == "," and depth == 0:
                args.append(rest[start:i])
                start = i + 1
        args.append(rest[start:-1])
    if len(args) != len(sig):
        raise ValueError(f"bad {kind} spec {spec!r}: write {usage}")
    for j, c in enumerate(sig):
        if c == "i":
            try:
                args[j] = int(args[j])
            except ValueError:
                raise ValueError(f"bad {kind} spec {spec!r}: {args[j]!r} is "
                                 f"not an integer") from None
    return build(*args)


_GROUP_SPECS = {
    "cyclic": ("i", cyclic),
    "symmetric": ("i", symmetric),
    "quaternion8": ("", quaternion8),
    "frobenius_31_5": ("", frobenius_31_5),
    "direct_product": ("ss", lambda a, b: direct_product(make_group(a),
                                                         make_group(b))),
    "cayley_file": ("p", group_from_cayley_file),
}


def make_group(spec: str) -> Group:
    """Build a group from a spec string: cyclic(n), symmetric(n),
    quaternion8, frobenius_31_5, direct_product(spec,spec) or
    cayley_file(path)."""
    return build_spec(spec, "group", _GROUP_SPECS)
