"""Symmetric point/line configurations and their associated graphs.

A Configuration stores v points (indices 0..v-1) and v lines of k points
each.  Validity means: every line has k distinct points in range, every
point lies on exactly k lines and no pair of points is covered twice.
Constructors in this package emit lines sorted lexicographically; dual()
deliberately does not re-sort, because keeping line i of the dual attached
to point i of the original is what makes dual(dual(c)) == c exactly.

Each configuration value is validated once: _validation caches its
violations and, when counts prove it valid, its collinearity rows, which
src_check and alpha_spectrum read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .algebra import read_file
from .graphs import Graph, SrgParams, bit_matrix, set_bits, srg_check


class InvalidConfiguration(ValueError):
    pass


@dataclass(frozen=True)
class Violation:
    kind: str          # line_size | point_range | duplicate_point | point_degree | pair_covered_twice | line_count
    where: tuple
    detail: str = ""


@dataclass(frozen=True)
class Configuration:
    v: int
    k: int
    lines: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # any sequence of sequences is stored as a tuple of tuples, so that
        # equal configurations compare and hash equal
        object.__setattr__(self, "lines", tuple(map(tuple, self.lines)))

    @staticmethod
    def from_lines(v: int, k: int, lines) -> "Configuration":
        """Normalize: sort points within each line; line order is kept."""
        return Configuration(v, k, map(sorted, lines))

    def __str__(self):
        return f"configuration ({self.v}_{self.k})"


def validate(c: Configuration) -> list[Violation]:
    """All defects of c, empty when c is a symmetric v_k configuration."""
    return list(_validation(c).violations)


class _Validation(NamedTuple):
    """What validating c finds: its violations and, when c passes the
    counts of _validation, its collinearity rows."""
    violations: tuple[Violation, ...]
    rows: tuple[int, ...] | None


@lru_cache(maxsize=128)
def _validation(c: Configuration) -> _Validation:
    """validate(c) as a tuple, with the rows that proved c valid, computed
    once per configuration value.

    Three counts prove c valid without looking at a single pair: c has v
    lines, each of k distinct points in range (its mask has k bits), and
    the collinearity row of every point p, the union of the lines through
    p, has 1 + k(k-1) points.  Proof: let d_p be the number of lines
    through p.  Each holds p and k - 1 other points, so the row has at
    most 1 + d_p(k-1) points, and none when d_p = 0; as 1 + k(k-1) >= 1,
    d_p >= 1, and d_p >= k when k >= 2.  The v lines make vk incidences,
    the sum of the d_p, so every d_p is k.  Then the row has 1 + k(k-1)
    points exactly when the k sets L - {p} of the lines L through p are
    pairwise disjoint: no point b != p lies on two lines through p, and
    since a pair covered twice would put b on two lines through a, no pair
    is.  So the counts exclude every kind of Violation, and only a
    configuration that fails them goes through _enumerate_violations:
    validate reports exactly what that enumeration finds.
    """
    rows = _counted_rows(c)
    if rows is None:
        return _Validation(_enumerate_violations(c), None)
    return _Validation((), rows)


def _counted_rows(c: Configuration) -> tuple[int, ...] | None:
    """The collinearity rows of c if they pass the counts of _validation
    (v lines of k distinct points in range, and 1 + k(k-1) points in each
    row), else None."""
    if len(c.lines) != c.v or any(len(line) != c.k for line in c.lines):
        return None
    try:
        rows = _collinearity_rows(c)
    except ValueError:
        return None
    size = 1 + c.k * (c.k - 1)
    return rows if all(row.bit_count() == size for row in rows) else None


def _enumerate_violations(c: Configuration) -> tuple[Violation, ...]:
    """Every Violation of c, line by line and pair by pair."""
    out = []
    if len(c.lines) != c.v:
        out.append(Violation("line_count", (len(c.lines),),
                             f"expected {c.v} lines, got {len(c.lines)}"))
    degree = [0] * c.v
    covered = [0] * c.v                   # covered[p]: points on an earlier line with p
    through = [[] for _ in range(c.v)]    # through[p]: (j, mask) of those lines
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
        mask = sum(1 << p for p in pts)
        for a in pts:
            for b in set_bits(covered[a] & mask >> (a + 1) << (a + 1)):
                first = next(i for i, m in through[a] if m >> b & 1)
                out.append(Violation("pair_covered_twice", (a, b, first, j),
                                     f"points {(a, b)} on lines {first} and {j}"))
        for a in pts:
            covered[a] |= mask
            through[a].append((j, mask))
    for p, deg in enumerate(degree):
        if deg != c.k:
            out.append(Violation("point_degree", (p,), f"point {p} lies on {deg} lines"))
    return tuple(out)


def is_valid(c: Configuration) -> bool:
    return not _validation(c).violations


def require_valid(c: Configuration) -> None:
    bad = _validation(c).violations
    if bad:
        raise InvalidConfiguration(f"{len(bad)} violations, first: {bad[0]}")


def _valid_rows(c: Configuration) -> tuple[int, ...]:
    """The collinearity rows of c after require_valid(c): those that
    validated it, or built again when k = 0, as no row then passes the
    counts."""
    require_valid(c)
    rows = _validation(c).rows
    return _collinearity_rows(c) if rows is None else rows


def dual(c: Configuration) -> Configuration:
    """Transpose: point i of the dual is line i of c and vice versa.

    No re-sorting of lines, so dual is an exact involution.  Each dual line
    is filled in increasing j, so its points come out sorted."""
    new_lines = [[] for _ in range(c.v)]
    for j, line in enumerate(c.lines):
        for p in line:
            new_lines[p].append(j)
    return Configuration(c.v, c.k, new_lines)


def _line_masks(c: Configuration) -> list[int]:
    """Each line as a bitmask of its points; ValueError on a repeated or
    out-of-range point."""
    masks = []
    for line in c.lines:
        mask = 0
        for p in line:
            if not 0 <= p < c.v:
                raise ValueError(f"point {p} out of range on line {line}")
            mask |= 1 << p
        if mask.bit_count() != len(line):
            raise ValueError(f"line {line} repeats a point")
        masks.append(mask)
    return masks


def _collinearity_rows(c: Configuration) -> tuple[int, ...]:
    """Row p is the mask of the union of the lines through p; ValueError
    as in _line_masks."""
    rows = [0] * c.v
    for line, mask in zip(c.lines, _line_masks(c)):
        for p in line:
            rows[p] |= mask
    return tuple(rows)


def point_graph(c: Configuration) -> Graph:
    """Collinearity graph on points: row p is the union of the lines
    through p, less p itself."""
    return _point_graph_of(_collinearity_rows(c))


def _point_graph_of(rows: tuple[int, ...]) -> Graph:
    """The point graph with these collinearity rows: row p less p."""
    return Graph(len(rows), rows=[r & ~(1 << p) for p, r in enumerate(rows)])


def line_graph(c: Configuration) -> Graph:
    """Concurrence graph on lines: two lines adjacent iff they share a point."""
    return point_graph(dual(c))


@dataclass(frozen=True)
class SrcParams:
    """Parameters (v_k; lam, mu) of a strongly regular configuration."""
    v: int
    k: int
    lam: int
    mu: int

    @property
    def d(self) -> int:
        return self.k * (self.k - 1)

    def astuple(self) -> tuple[int, int, int, int]:
        return (self.v, self.k, self.lam, self.mu)

    def graph_params(self) -> SrgParams:
        return SrgParams(self.v, self.d, self.lam, self.mu)

    @property
    def proper(self) -> bool:
        """k(lam - mu + 1) + mu != 0: an SRC with these parameters has a
        nonsingular incidence matrix (see is_proper)."""
        return self.k * (self.lam - self.mu + 1) + self.mu != 0

    def __str__(self):
        return f"({self.v}_{self.k};{self.lam},{self.mu})"


@lru_cache(maxsize=128)
def src_check(c: Configuration) -> SrcParams | None:
    """(v_k; lam, mu) if the point graph of c is strongly regular, else None.

    The line graph is then strongly regular with the same parameters, so it
    is not built.  Proof: with N the v x v incidence matrix, A the point
    graph and B the line graph, N N^T = kI + A and N^T N = kI + B, since no
    two points share two lines nor two lines two points.  N is square, so
    the two products have the same spectrum and A, B are cospectral.  A is
    d-regular with d = k(k-1), as is B (each line meets k(k-1) others), and
    B 1 = d 1.  srg_check returning params means the eigenvalues of A on the
    complement of 1 are the roots r, s of x^2 - (lam-mu)x - (d-mu), so those
    of B on the complement of its eigenvector 1 are too, and
    (B - rI)(B - sI) = ((d-r)(d-s)/v) J = mu J, which is the SRG identity
    for B with the same (lam, mu); B is neither complete nor empty, since
    its spectrum is that of A.  Nothing here needs N nonsingular, r and s
    integral or mu > 0 (mu = 0 makes r = d).  Results are cached per
    configuration value, as in iso; srg_check's cache skips the point graph.
    """
    p = srg_check.__wrapped__(_point_graph_of(_valid_rows(c)))
    return None if p is None else SrcParams(c.v, c.k, p.lam, p.mu)


# -- antiflag spectrum and geometry classes ------------------------------------

@dataclass(frozen=True)
class GeometryClass:
    """Classification of a configuration by its antiflag incidence numbers.

    For a point P not on a line L, alpha(P, L) counts the points of L
    collinear with P.  kind is one of:
      partial_geometry       every antiflag has the same alpha >= 1
      semipartial_geometry   alpha in {0, a} and noncollinear pairs have a
                             constant number mu of common neighbours
      alpha_beta             alpha takes exactly two values
      general                anything else
    """
    kind: str
    alpha: int | None = None
    beta: int | None = None
    mu: int | None = None
    spectrum: tuple[tuple[int, int], ...] = ()


def alpha_spectrum(c: Configuration) -> GeometryClass:
    """Classify c by its antiflag spectrum; the strictest class wins.

    alpha(P, L) is entry (P, L) of A N, A the point graph and N the
    point-line incidence matrix; the antiflags are the zeros of N.  It is
    read from (A + I) N, whose rows are the collinearity rows: at an
    antiflag N[P, L] = 0, so ((A + I) N)[P, L] = (A N)[P, L] + N[P, L]
    = alpha(P, L).  The float32 product is exact, as in srg_check.
    """
    a = bit_matrix(_valid_rows(c), c.v)
    inc = bit_matrix(_line_masks(c), c.v).T
    alpha, counts = np.unique((a @ inc)[inc == 0], return_counts=True)
    values = alpha.astype(int).tolist()
    spectrum = tuple(zip(values, counts.tolist()))
    if len(values) == 1 and values[0] >= 1:
        return GeometryClass("partial_geometry", alpha=values[0], spectrum=spectrum)
    if len(values) == 2 and values[0] == 0:
        # alpha in {0, a} gives collinear points (k-2)+(k-1)(a-1) common
        # neighbours, so mu is constant iff the point graph is an SRG
        p = src_check(c)
        if p is not None:
            return GeometryClass("semipartial_geometry", alpha=values[1],
                                 mu=p.mu, spectrum=spectrum)
    if len(values) == 2:
        return GeometryClass("alpha_beta", alpha=values[0], beta=values[1],
                             spectrum=spectrum)
    return GeometryClass("general", spectrum=spectrum)


# -- properness (incidence matrix rank) -----------------------------------------

def _bareiss_nonsingular(mat: list[list[int]]) -> bool:
    """Exact nonsingularity test by fraction-free Bareiss elimination."""
    a = [row[:] for row in mat]
    n = len(a)
    prev = 1
    for i in range(n):
        if a[i][i] == 0:
            swap = next((r for r in range(i + 1, n) if a[r][i] != 0), None)
            if swap is None:
                return False
            a[i], a[swap] = a[swap], a[i]
        for r in range(i + 1, n):
            for ccol in range(i + 1, n):
                a[r][ccol] = (a[r][ccol] * a[i][i] - a[r][i] * a[i][ccol]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return True


def is_proper(c: Configuration) -> bool:
    """True iff the v x v point-line incidence matrix N is nonsingular over Q.

    For an SRC (v_k; lam, mu) this is k(lam - mu + 1) + mu != 0.  Proof:
    N N^T = kI + A with A the point graph, an SRG whose restricted
    eigenvalues (both occur, srg_check rejecting complete and empty graphs)
    are the roots of x^2 - (lam-mu)x - (d-mu), d = k(k-1); N is singular iff
    -k is one of them, and substituting x = -k gives the expression above.
    Any other valid configuration goes through exact Bareiss elimination.
    """
    p = src_check(c)
    if p is not None:
        return p.proper
    mat = [[0] * c.v for _ in range(c.v)]
    for j, line in enumerate(c.lines):
        for q in line:
            mat[q][j] = 1
    return _bareiss_nonsingular(mat)


# -- file formats ----------------------------------------------------------------

def write_configuration(c: Configuration, path) -> None:
    """Text format: first line `v k`, then one line of k point indices per line."""
    rows = [f"{c.v} {c.k}"]
    for line in c.lines:
        rows.append(" ".join(str(p) for p in line))
    Path(path).write_text("\n".join(rows) + "\n")


def read_configuration(path) -> Configuration:
    """Read the text format of write_configuration, or JSON (see
    configuration_from_json) when the first non-blank character is `{` or
    `[`.  Every error names the file."""
    return read_file(path, _configuration_from_file)


def _configuration_from_file(lines, text) -> Configuration:
    if text.lstrip()[:1] in ("{", "["):
        return configuration_from_json(text)
    rows = [[int(t) for t in ln.split()] for ln in lines]
    if not rows or len(rows[0]) != 2:
        raise InvalidConfiguration("header must be 'v k'")
    (v, k), body = rows[0], rows[1:]
    if k == 0 and not body:  # written as blank lines, which read_file drops
        body = [()] * min(v, len(text.splitlines()) - 1)
    return _from_header(v, k, body)


def _from_header(v: int, k: int, lines) -> Configuration:
    """A file's configuration, whose v must count its lines: no table is
    then sized by a number that the file does not back."""
    if len(lines) != v:
        raise InvalidConfiguration(f"expected {v} lines, got {len(lines)}")
    return Configuration.from_lines(v, k, lines)


def configuration_to_dict(c: Configuration) -> dict:
    """The JSON object of c, as in CLI reports: {"v", "k", "lines"}."""
    return {"v": c.v, "k": c.k, "lines": [list(ln) for ln in c.lines]}


def configuration_from_json(text: str) -> Configuration:
    """Inverse of json.dumps(configuration_to_dict(c)).

    InvalidConfiguration unless v and k are ints and lines is a list of v
    lists of ints; JSON true and false are not ints here.
    """
    obj = json.loads(text)
    is_int = lambda x: type(x) is int
    if not (isinstance(obj, dict) and is_int(obj.get("v"))
            and is_int(obj.get("k")) and isinstance(obj.get("lines"), list)
            and all(isinstance(ln, list) and all(map(is_int, ln))
                    for ln in obj["lines"])):
        raise InvalidConfiguration(
            "a JSON configuration needs integers v and k and lines as "
            "lists of integers")
    return _from_header(obj["v"], obj["k"], obj["lines"])
