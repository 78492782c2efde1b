"""Deficient difference sets with strongly regular developments.

A subset D of a finite group is deficient when all nonidentity left
differences a^-1 b (a, b in D distinct) are pairwise distinct.  Writing
Delta(D) for the difference set and n(x) = |Delta ∩ x Delta|, D is a strong
deficient difference set (SDDS) for (v_k; lam, mu) when n is constantly lam
on Delta and constantly mu off Delta.  The development {gD : g in G} is then
a strongly regular configuration with those parameters and the point graph
is the Cayley graph of Delta.

In the group ring Z[G], with d = k(k-1) and a set standing for the sum of
its elements, this is the identity

    Delta Delta^(-1) = d e + lam Delta + mu (G - e - Delta),

so Delta is a partial difference set (S. L. Ma, A survey of partial
difference sets, Des. Codes Cryptogr. 4 (1994)).  The coefficient of z on
the left is the number of pairs y, x in Delta with y x^-1 = z, which is
n(z), and sdds_check counts them all in one pass over the |Delta|^2
products.

Elements are group indices throughout (see algebra.Group).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Group, Subgroup, factorize
from .feasibility import Eigendata, eigendata
from .graphs import SrgParams

__all__ = ["DifferenceProfile", "difference_profile", "left_translates",
           "sdds_check", "sdds_search"]


@dataclass(frozen=True)
class DifferenceProfile:
    """Difference structure of a subset: Delta and whether a difference
    repeats."""
    delta: frozenset[int]
    repeated: bool


def _elements(group: Group, subset) -> list[int]:
    """The elements of subset in ascending order; ValueError if one is not
    a group index or appears twice.  The one check of a subset: the
    profile, the SDDS test and developments all pass through it."""
    D = sorted(subset)
    for x, y in zip(D, D[1:]):
        if x == y:
            raise ValueError(f"element {x} is repeated")
    if D and (D[0] < 0 or D[-1] >= group.n):
        raise ValueError(f"element {D[0] if D[0] < 0 else D[-1]} is outside "
                         f"[0, {group.n})")
    return D


def _differences(group: Group, D) -> set[int] | None:
    """The left differences a^-1 b of distinct a, b in D, or None at the
    first that arises twice."""
    L = group.left_quotients
    delta = set()
    for a in D:
        La = L[a]
        for b in D:
            if a != b:
                d = La[b]
                if d in delta:
                    return None
                delta.add(d)
    return delta


def _overlaps(group: Group, delta: np.ndarray) -> np.ndarray:
    """n(z) = |Delta ∩ z Delta| for every group element z, Delta given as
    an index array: the number of pairs y, x in Delta with y x^-1 = z.
    All |Delta|^2 quotients are gathered from the table at once and counted
    by value."""
    return np.bincount(group.table[delta[:, None], group.inverses[delta]].ravel(),
                       minlength=group.n)


def left_translates(group: Group, D) -> list[tuple[int, ...]]:
    """The |G| left translates tD of D as sorted tuples, in sorted order.
    Row a of left_quotients is the translation d -> a^-1 d, and a^-1 runs
    over G as a does."""
    return sorted(tuple(sorted(La[d] for d in D)) for La in group.left_quotients)


def difference_profile(group: Group, subset) -> DifferenceProfile:
    L = group.left_quotients
    D = _elements(group, subset)
    diffs = [L[a][b] for a in D for b in D if a != b]
    delta = frozenset(diffs)
    return DifferenceProfile(delta, len(delta) < len(diffs))


def sdds_check(group: Group, subset) -> tuple[int, int] | None:
    """(lam, mu) if subset is an SDDS in group, else None.  A subset of
    fewer than 2 elements has no differences and is none, and so is one
    whose differences leave no element off Delta ∪ {e}, as mu is then
    undefined.  A repeated difference answers None before any overlap is
    counted."""
    delta = _differences(group, _elements(group, subset))
    if not delta:
        return None
    d = np.fromiter(delta, dtype=np.intp, count=len(delta))
    n = _overlaps(group, d)
    lam = n[d]
    off = np.ones(group.n, dtype=bool)
    off[d] = off[group.identity] = False
    mu = n[off]
    if not mu.size or (lam != lam[0]).any() or (mu != mu[0]).any():
        return None
    return int(lam[0]), int(mu[0])


def _power_classes(group: Group, e: Eigendata):
    """The orbits of the power maps x -> x^t (Group.power_classes) of which
    Delta of every SDDS whose row has eigendata e is a union, by the
    multiplier rule of sdds_search; None where the rule does not apply or
    every orbit is {x, x^-1}, which the search uses anyway.  A conjugate e
    is a conference row with disc = v (feasibility._krein_ok), so only a
    squarefree order is left to check."""
    if not group.is_abelian:
        return None
    m = group.exponent
    units = [t for t in range(1, m) if math.gcd(t, m) == 1]
    if e.conjugate:
        primes = factorize(group.n)
        if any(a > 1 for a in primes.values()):
            return None             # v is not squarefree
        # (t/v) = 1: an even number of the Legendre symbols
        # (t/p) = t^((p-1)/2) mod p is -1
        units = [t for t in units
                 if sum(pow(t, p // 2, p) != 1 for p in primes) % 2 == 0]
    classes = group.power_classes(units)
    return classes if max(map(len, classes)) > 2 else None


class _Backtracker:
    """SDDS search by recursion over branches.

    The identity is placed first, by run, and the non-identity elements
    after it in ascending index order.  A branch is the tuple D of elements
    placed, the list delta of its differences, their flags in_delta, the
    overlap counts n(x) and forced; each child gets its own copies of the
    last four, so a branch that dies leaves nothing to undo.  forced is
    None unless classes, the power classes of _power_classes, are given;
    then it flags the union of the classes that meet delta, which every
    SDDS containing the branch holds in its Delta (see sdds_search).  A
    branch dies the moment a difference repeats, falls below the bound lo
    (see extend), more than k(k-1) elements are forced, or some n(x)
    exceeds its cap: lam if x is currently a difference or forced,
    max(lam, mu) otherwise, since a non-difference may still join Delta
    later.  An element that an automorphism fixing the ones placed before
    it maps lower is not tried (see sdds_search): the automorphisms fixing
    them are those fixing the subgroup they span, and the group keeps each
    subgroup met with its orbit leaders (Group.join) for every search in
    it.
    """

    def __init__(self, group: Group, k: int, lam: int, mu: int,
                 classes=None):
        self.k = k
        self.lam = lam
        self.cap = max(lam, mu)
        self.mu = mu
        self.classes = classes
        self.d = k * (k - 1)
        self.v = group.n
        self.e = group.identity
        self.L = group.left_quotients
        self.R = group.right_quotients
        self.group = group
        self.results: list[tuple[int, ...]] = []
        # search tree size: try_add calls, and those that returned None
        self.nodes = 0
        self.prunes = 0

    def run(self) -> list[tuple[int, ...]]:
        """Place the identity, then the rest of D (see extend); the
        results."""
        forced = None if self.classes is None else bytearray(self.v)
        root = self.try_add(self.e, -1, (), [], bytearray(self.v),
                            [0] * self.v, forced)
        self.extend(*root, 0, -1, self.group.trivial_subgroup)
        return self.results

    def try_add(self, x: int, lo: int, D, delta, in_delta, n, forced):
        """The child branch that extends D by x, or None on a repeated
        difference, one below lo, too many forced elements or a count
        past its cap."""
        self.nodes += 1
        L, R, lam, cap = self.L, self.R, self.lam, self.cap
        in_delta = bytearray(in_delta)
        new = []
        Lx = L[x]
        for d in D:
            a = L[d][x]
            b = Lx[d]
            # a == b is an involution difference arising from both ordered
            # pairs (d, x) and (x, d): a repeat just like a collision.  A
            # count already past lam bars a from joining Delta, and b with
            # it: b = a^-1, and n(z) = n(z^-1) for every z.
            if (in_delta[a] or in_delta[b] or a == b or a < lo or b < lo
                    or n[a] > lam):
                self.prunes += 1
                return None
            new += (a, b)
            in_delta[a] = in_delta[b] = 1
        if forced is None:
            capped = in_delta
        else:
            capped = forced = bytearray(forced)
            for a in new:
                if not forced[a]:
                    for z in self.classes[a]:
                        forced[z] = 1
            if forced.count(1) > self.d:
                self.prunes += 1
                return None
        n = n[:]
        delta = delta[:]
        # each new difference a adds the pairs (a, b) and (b, a) for every
        # difference b before it, so n(y) and n(y^-1) for y = a b^-1 grow
        # together and the cap of y bounds both
        for a in new:
            Ra = R[a]
            for b in delta:
                y = Ra[b]
                n[y] += 1
                n[R[b][a]] += 1
                if n[y] > (lam if capped[y] else cap):
                    self.prunes += 1
                    return None
            delta.append(a)
        return D + (x,), delta, in_delta, n, forced

    def _final_ok(self, in_delta, n) -> bool:
        """Whether a leaf is an SDDS: n = lam on Delta, mu off Delta ∪ {e}.
        Precondition: the counting identity (v-1-d) mu = d(d-1-lam), which
        sdds_search checks before any search.  At a leaf Delta holds d
        distinct elements, so the counts off e sum to d(d-1), which is
        d lam + (v-1-d) mu by the identity.  try_add keeps n <= lam on
        Delta (when an element joins it, and at every later increment) and
        n <= max(lam, mu) off it.  With every count at most its target and
        the counts summing to the targets' sum, all are equal; that already
        holds when mu >= lam, and otherwise holds once n <= mu off Delta
        (n(e) = 0 and e is off Delta)."""
        mu = self.mu
        return mu >= self.lam or all(c <= mu for c, f in zip(n, in_delta) if not f)

    def extend(self, D, delta, in_delta, n, forced, start: int, lo: int,
               H: Subgroup):
        """Place the rest of D from index start on, appending every SDDS
        found to results as a sorted tuple.  lo is the least non-identity
        element of D once it is placed (-1 before), and every difference
        must be at least lo.  H is the subgroup that the elements placed
        before the last one span, and x is placed only if it leads its
        orbit under the automorphisms that fix all the elements placed: none
        of them maps it below x (see sdds_search).  The results come in
        lexicographic order: the non-identity elements are placed in
        ascending order, and inserting e into two ascending sequences that
        lack it keeps their order."""
        if len(D) == self.k:
            if self._final_ok(in_delta, n):
                self.results.append(tuple(sorted(D)))
            return
        H = self.group.join(H, D[-1])
        leads = H.leads
        for x in range(start, self.v - (self.k - len(D)) + 1):
            if x == self.e or not leads[x]:
                continue
            low = x if lo < 0 else lo
            child = self.try_add(x, low, D, delta, in_delta, n, forced)
            if child is not None:
                self.extend(*child, x + 1, low, H)


def sdds_search(group: Group, k: int, lam: int, mu: int) -> list[tuple[int, ...]]:
    """All SDDS of size k for (lam, mu) in the group, one representative per
    left-translate class: the lexicographically least translate containing
    the identity.  The list is sorted.  Inconsistent (k, lam, mu) for the
    group order simply yield [], and so does k(k-1) = |G| - 1: Delta would
    then hold every nonidentity element, leaving mu undefined, and
    sdds_check accepts no such set.

    The search meets each translate class at most once.  Left differences
    are invariant under left translation, (ta)^-1 (tb) = a^-1 b, so all
    translates of D share Delta(D); let m = min Delta(D).  A translate
    t^-1 D contains the identity e exactly when t is in D, and its other
    elements t^-1 d are differences, hence at least m.  It contains m
    exactly when m = t^-1 d, and since the differences of an SDDS are
    pairwise distinct, exactly one pair (t, d) does that.  That translate
    has e and m and otherwise elements above m, every other has e and
    elements above m only, so it is the lexicographically least, wherever
    e lies in the index order.  Hence the representative is the SDDS D
    containing e whose least non-identity element m bounds all of Delta(D)
    from below.  The backtracker places e first and the other elements in
    ascending order, so m is the first non-identity element placed; from
    then on a branch dies at any difference below m, the differences that
    m itself makes included.

    The search also skips what an automorphism of G maps onto an earlier
    branch (orbit pruning as in McKay, Isomorph-free exhaustive generation,
    J. Algorithms 26 (1998)).  Of an automorphism phi the argument uses only
    phi(e) = e, Delta(phi D) = phi Delta(D), as phi(a^-1 b) =
    phi(a)^-1 phi(b), and phi(tD) = phi(t) phi(D), so it holds for every
    automorphism, inner or outer.  phi keeps (k, lam, mu): phi(D) is an
    SDDS, its overlap count at phi(x) being that of D at x, and phi
    permutes the translate classes.  Write the non-identity elements of a
    representative as x_1 < ... < x_{k-1}; the backtracker places x_i only
    if no automorphism fixing x_1, ..., x_{i-1} maps x_i lower.  So x_1
    leads its orbit under Aut(G), x_2 its orbit under the stabilizer of
    x_1, and so on.  The automorphisms fixing x_1, ..., x_{i-1} are those
    fixing the subgroup they span pointwise, and their orbits come from a
    generating set (Group.automorphisms_fixing), so Aut(G), which can be
    far too large to list, is never listed.  Let D be the least
    representative of an orbit of classes, and suppose phi fixes
    x_1, ..., x_{i-1} with phi(x_i) < x_i.
    Then phi(D) contains e, and Delta(phi D) holds phi(x_1), as
    x_1 = e^-1 x_1 is a difference of D; phi(x_1) is x_1 for i > 1 and
    below x_1 for i = 1.  If min Delta(phi D) < x_1, the representative of
    phi(D) begins below x_1 and precedes D.  Otherwise min Delta(phi D) is
    x_1, and phi(D) is itself a representative: it holds e and x_1, and its
    other elements are differences, so at least x_1.  It shares
    e, x_1, ..., x_{i-1} with D, and the least of its other elements lies
    below x_i, so outside D and below every element of D missing from
    phi(D); as the least element in which two k-sets differ lies in the
    lexicographically smaller one, phi(D) precedes D.  Both contradict the
    choice of D, so the least representative of each orbit passes every
    test and is found.  The orbits of the classes found are then searched
    breadth-first: each generator of Aut(G) (Group.automorphisms) is applied
    to each representative reached.  The image contains e, so it is one of
    the k translates containing e of its class, and a class met for the
    first time adds its least one.  A set closed under a generating set of
    a finite group is closed under the group, so this gives every
    representative.

    Delta of an SDDS D is closed under inverses and misses e, and n(x) =
    |Delta ∩ x Delta| is the number of paths of length 2 from e to x in the
    Cayley graph of Delta (g ~ h when g^-1 h is in Delta), and from g to gx
    alike, as left translation is an automorphism of the graph.  So that
    graph is strongly regular with v = |G|, degree d = k(k-1) and
    parameters (lam, mu), neither complete nor empty as 0 < d < v - 1.
    feasibility.eigendata returns None only for parameters that no such
    graph has, so there no SDDS exists, and the search returns [] before
    Aut(G) is built.

    In an abelian group the search also uses the multiplier rule (S. L.
    Ma, A survey of partial difference sets, Des. Codes Cryptogr. 4
    (1994)).  Each character chi of the Cayley graph's group G gives an
    eigenvector (chi(g))_g with eigenvalue chi(Delta) =
    sum of chi(x) over Delta: d for the trivial chi, else one of the
    restricted eigenvalues r, s = (lam - mu +- sqrt(disc))/2, disc =
    (lam - mu)^2 + 4(d - mu).  For t prime to the exponent m of G, the
    Galois automorphism sigma_t of Q(zeta_m), zeta_m -> zeta_m^t, maps
    chi(Delta) to chi(Delta^(t)), Delta^(t) = {x^t : x in Delta}.  When
    disc is a square, r and s are integers, which sigma_t fixes.  When it
    is not, eigendata's conjugate case, the counting identity makes the
    row a conference row, v = 4t + 1 and disc = v (see
    feasibility._krein_ok), so r and s lie in Q(sqrt v); if v is
    squarefree, sigma_t(sqrt v) = (t/v) sqrt v by the Gauss sum, so the t
    with Jacobi symbol (t/v) = 1 fix them.  (An abelian group of
    squarefree order is cyclic.)  For
    such t, chi(Delta^(t)) = chi(Delta) for every chi, so Delta^(t) =
    Delta by Fourier inversion: Delta is a union of orbits of the power
    maps x -> x^t (_power_classes).  So no SDDS exists unless d is a sum of
    the sizes of distinct orbits other than {e}; and the orbit of each
    difference of a branch lies in Delta of every SDDS that contains the
    branch, so such an SDDS has at least as many elements in Delta as the
    branch forces, at most d, and overlap count lam at each of them, at
    least the branch's count there.  Every SDDS passes these tests, the
    least representative of each orbit that the automorphism pruning keeps
    among them, and the results do not change.  The rule is used only
    when some orbit is larger than {x, x^-1}, the set the search already
    adds to Delta with x.

    Every SDDS is a left translate of a representative D, and
    left_translates(group, D) lists them: the lines of D's development.
    Each is an SDDS, as translation keeps Delta, and the |G| of them are
    distinct, as tD = D with t != e would give the pairs (a, b) and (ta, tb)
    of D the same difference a^-1 b.
    """
    v = group.n
    K = k * (k - 1)
    if k < 2 or K >= v - 1:
        return []
    if (v - 1 - K) * mu != K * (K - 1 - lam):
        return []
    e = eigendata(SrgParams(v, K, lam, mu))
    if e is None:
        return []
    classes = _power_classes(group, e)
    if classes is not None:
        sizes = {c[0]: len(c) for c in classes}
        del sizes[group.identity]
        sums = 1    # bit s set: s is a sum of distinct class sizes
        for size in sizes.values():
            sums |= sums << size
        if not sums >> K & 1:
            return []
    aut = group.automorphisms
    leaders = _Backtracker(group, k, lam, mu, classes).run()
    L = group.left_quotients
    found = []
    met = set()     # the translates containing e of every class found

    def meet(D):
        """Add the class of D, a set containing e, unless it is known."""
        if tuple(sorted(D)) not in met:
            translates = [tuple(sorted(L[t][d] for d in D)) for t in D]
            met.update(translates)
            found.append(min(translates))

    for D in leaders:
        meet(D)
    for D in found:     # a breadth-first search of the orbits
        for phi in aut.generators:
            meet([phi[d] for d in D])
    return sorted(found)
