"""Construction families for strongly regular configurations.

Four families live here: neighbourhood geometries of Moore graphs, triangle
removal from projective planes, the line/plane incidence structure of
PG(4, q) with optional symplectic polarity modifications, and developments
of difference sets in finite groups.  Each builder checks its input and
trusts the theorem in its docstring for the validity of its output, which
is checked where a configuration is analysed, canonicalised or read.
"""

from __future__ import annotations

import numpy as np

from .algebra import FiniteField, Group, _subspace_stack, orthogonal
from .graphs import Graph, srg_check
from .incidence import Configuration, InvalidConfiguration, is_valid
from .sdds import _differences, _elements, left_translates


class NotMooreGraph(ValueError):
    pass


class OrderTooSmall(ValueError):
    pass


class NotDeficient(ValueError):
    pass


# -- projective planes ------------------------------------------------------------

def projective_plane(q: int) -> Configuration:
    """PG(2, q) as a configuration ((q^2+q+1)_(q+1)); lines sorted.

    The normalized point vectors double as line normals: line n holds the
    points p with n . p = 0.  Valid, as PG(2, q) is a projective plane.
    """
    points = _subspace_stack(2, q, 0)
    on = orthogonal(FiniteField(q), points[:, None], points[None])
    lines = sorted(tuple(np.flatnonzero(row).tolist()) for row in on)
    return Configuration(q * q + q + 1, q + 1, lines)


def _is_projective_plane(c: Configuration) -> int | None:
    """Order n if c is a projective plane ((n^2+n+1)_(n+1)), else None.

    Every valid (n^2+n+1)_(n+1) with n >= 2 is one: each point is collinear
    with k(k-1) = n^2+n = v-1 others, so any two points share a line, and a
    symmetric 2-(v, k, 1) design has any two lines meeting in one point.
    """
    n = c.k - 1
    if n < 2 or c.v != n * n + n + 1 or not is_valid(c):
        return None
    return n


def triangle_removal(plane: Configuration) -> Configuration:
    """Remove a triangle from a projective plane of order n >= 5.

    The triangle is points 0 and 1 and the first point off their line, so
    it is non-collinear.  Deletes its three points, every further point on
    one of their three joining lines, every line through one of them, and
    trims the rest, leaving an ((n-1)^2_(n-2)) configuration.  Valid:
    (n-1)^2 points and lines remain, each incident with n - 2 of the other
    kind, as a kept line meets the sides in three points and a kept point
    joins the triangle's points by three lines.
    """
    n = _is_projective_plane(plane)
    if n is None:
        raise InvalidConfiguration("triangle_removal needs a projective plane")
    if n < 5:
        raise OrderTooSmall(f"plane order {n} < 5")
    line_sets = [frozenset(l) for l in plane.lines]
    joined = next(s for s in line_sets if 0 in s and 1 in s)
    triangle = {0, 1, next(p for p in range(plane.v) if p not in joined)}
    sides = [s for s in line_sets if len(triangle & s) == 2]
    assert len(sides) == 3
    dead_points = frozenset().union(*sides)
    dead_lines = {i for i, s in enumerate(line_sets) if triangle & s}
    keep_points = sorted(set(range(plane.v)) - dead_points)
    renum = {p: i for i, p in enumerate(keep_points)}
    lines = []
    for i, line in enumerate(plane.lines):
        if i in dead_lines:
            continue
        lines.append(tuple(sorted(renum[p] for p in line if p in renum)))
    lines.sort()
    return Configuration((n - 1) ** 2, n - 2, lines)


# -- Moore graph neighbourhood geometries --------------------------------------------

def moore_configuration(g: Graph) -> Configuration:
    """Neighbourhood geometry of a Moore graph of diameter 2.

    g must be srg(k^2+1, k, 0, 1) with k >= 3; line i is the neighbourhood
    of vertex i, giving a self-polar (k^2+1)_k configuration whose point
    graph is the complement of g.  Valid, as lam = 0 and mu = 1 let two
    vertices share at most one neighbour, so at most one line.
    """
    p = srg_check(g)
    if p is None or p.lam != 0 or p.mu != 1 or p.v != p.d * p.d + 1 or p.d < 3:
        raise NotMooreGraph(f"expected srg(k^2+1,k,0,1), k >= 3, got {p}")
    lines = tuple(tuple(g.neighbors(i)) for i in range(g.n))
    return Configuration(g.n, p.d, lines)


# -- PG(4, q) line/plane geometry with polarity twists --------------------------------

def lp4(q: int, *, hyperplane_polarity: bool = False, point_polarity: bool = False) -> Configuration:
    """Lines versus planes of PG(4, q); both classes have (q^5-1)...(q^2+1)
    elements, giving a symmetric configuration with k = q^2 + q + 1.

    Base incidence is inclusion.  With hyperplane_polarity, pairs lying in
    the hyperplane x4 = 0 instead use a symplectic polarity pi of that
    PG(3, q): line L is incident with plane p iff pi(L) is contained in p.
    With point_polarity, pairs through the point (0:0:0:0:1) use the induced
    polarity of the quotient PG(3, q).  The two modified zones are disjoint,
    so the flags compose freely.  All four variants are valid: inclusion
    is, and a polarity reverses inclusion, so its twist keeps each degree and
    lets no two lines share two planes.  The point graph does not depend on
    hyperplane_polarity (nor the line graph on point_polarity).
    """
    field = FiniteField(q)
    lines = _subspace_stack(4, q, 1)   # configuration points
    planes = _subspace_stack(4, q, 2)  # configuration lines
    local = _subspace_stack(2, q, 1)   # RREF 2x3 matrices
    k = len(local)

    # loc @ p is already in RREF: at p's pivot columns (unit columns) it
    # repeats loc, so row i is 1 at p's pivot for loc's pivot row c, 0 at
    # the other rows' pivots, and 0 before, as p's rows from c on are.
    # So each image is found among the lines by its base-q code, most
    # significant entry first, in which the sorted lines are sorted too.
    images = field.matmul(local, planes[:, None])
    place = q ** np.arange(10)[::-1]
    codes = lines.reshape(len(lines), 10) @ place
    image_codes = images.reshape(len(planes), k, 10) @ place
    found = np.searchsorted(codes, image_codes)
    # an image past the last code is clipped to it, and differs from it
    assert np.array_equal(codes.take(found, mode="clip"), image_codes)

    # G is the matrix of the symplectic form x0 y1 - x1 y0 + x2 y3 - x3 y2,
    # with -1 coded as p - 1
    m = field.p - 1
    G = np.array([[0, 1, 0, 0], [m, 0, 0, 0], [0, 0, 0, 1], [0, 0, m, 0]])

    def polar(s):
        """For each 2-space L of GF(q)^4 in s, which holds all of them, the
        index in s of its polar, the annihilator of L G: the one 2-space
        of s orthogonal to both rows of L G.  An involution."""
        on = orthogonal(field, s[None], field.matmul(s, G)[:, None])
        assert (on.sum(axis=1) == 1).all()
        return on.argmax(axis=1)

    if hyperplane_polarity:
        # an H0-plane holds only H0-lines, and pi(L) = polar(L) lies in it
        # iff it is one of them: its row becomes their images under pi
        h_lines = np.flatnonzero(~lines[:, :, 4].any(axis=1))
        h_planes = np.flatnonzero(~planes[:, :, 4].any(axis=1))
        pi = np.arange(len(lines))
        pi[h_lines] = h_lines[polar(lines[h_lines, :, :4])]
        found[h_planes] = pi[found[h_planes]]

    if point_polarity:
        # s holds e4 iff its last RREF row is e4 (0 at every other pivot),
        # and its other rows span s/e4.  P's lines through e4 are the images
        # of the local lines through (0, 0, 1); L/e4 lies in the polar of
        # P/e4 iff L lies in P' = polar(P): P takes those of P' instead
        p_planes = np.flatnonzero((planes[:, -1] == (0, 0, 0, 0, 1)).all(axis=1))
        cols = np.flatnonzero((local[:, -1] == (0, 0, 1)).all(axis=1))
        partner = p_planes[polar(planes[p_planes, :2, :4])]
        found[p_planes[:, None], cols] = found[partner[:, None], cols]

    found.sort(axis=1)
    return Configuration(len(lines), k, found.tolist())


# -- difference set developments -------------------------------------------------------

def development(group: Group, diff_set) -> Configuration:
    """Configuration whose lines are the left translates g*D of a deficient
    difference set D (indices into the group).

    Raises ValueError when an element is not a group index or is repeated,
    or D has fewer than 2 elements, and NotDeficient when D has a repeated
    left difference, which is exactly when the translates would cover some
    pair twice; otherwise they are the lines of a configuration.
    """
    D = _elements(group, diff_set)
    if len(D) < 2:
        raise ValueError(f"needs at least 2 elements, got {len(D)}")
    if _differences(group, D) is None:
        raise NotDeficient("has a repeated left difference")
    return Configuration(group.n, len(D), left_translates(group, D))
