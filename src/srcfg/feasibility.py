"""Parameter feasibility for strongly regular configurations.

A symmetric v_k configuration with strongly regular point graph forces the
graph parameters (v, k(k-1), lam, mu).  This module runs the standard
necessary-condition battery on such parameter sets with exact arithmetic
throughout: the counting identity, integral nonnegative eigenvalue
multiplicities, the Krein conditions, the absolute bound, a perfect-square
determinant condition on the incidence matrix, and a line-clique condition
whose equality case pins down partial geometries.

Known nonexistent strongly regular graphs are handled by a small packaged
exclusion list (data/srg_nonexistent.txt); those nonexistence proofs are
published results and are not re-derived here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from pathlib import Path

from .algebra import factorize, read_file
from .graphs import SrgParams
from .incidence import SrcParams


# -- eigenvalue data -------------------------------------------------------------

@dataclass(frozen=True)
class Eigendata:
    """Restricted eigenvalues and multiplicities of a putative srg.

    In the integral case r > s are ints with multiplicities f, g.  When the
    discriminant disc = (lam - mu)^2 + 4(d - mu) is not a perfect square the
    eigenvalues are the conjugate surds (lam - mu +- sqrt(disc))/2; then
    conjugate=True, r and s are None and f = g = (v-1)/2.
    """
    r: int | None
    s: int | None
    f: int
    g: int
    conjugate: bool = False


def eigendata(p: SrgParams) -> Eigendata | None:
    """Exact eigenvalue data, or None when no srg can have these parameters
    (nonpositive discriminant, or multiplicities that are not nonnegative
    integers)."""
    v, d, lam, mu = p.v, p.d, p.lam, p.mu
    disc = (lam - mu) ** 2 + 4 * (d - mu)
    if disc <= 0:
        return None
    root = math.isqrt(disc)
    if root * root != disc:
        # conjugate pair: multiplicities equal, so (lam-mu)(v-1) + 2d = 0
        if (lam - mu) * (v - 1) + 2 * d != 0 or (v - 1) % 2:
            return None
        half = (v - 1) // 2
        return Eigendata(r=None, s=None, f=half, g=half, conjugate=True)
    r = (lam - mu + root) // 2
    s = (lam - mu - root) // 2
    num = (r + s) * (v - 1) + 2 * d
    if num % (r - s):
        return None
    diff = num // (r - s)
    f2 = v - 1 - diff
    g2 = v - 1 + diff
    if f2 < 0 or g2 < 0 or f2 % 2 or g2 % 2:
        return None
    return Eigendata(r=r, s=s, f=f2 // 2, g=g2 // 2)


def _krein_ok(p: SrgParams, e: Eigendata) -> bool:
    """The two Krein conditions; callers have checked the counting identity.

    The conjugate case needs no arithmetic in Q(sqrt(disc)).  Equal
    multiplicities give (mu - lam)(v - 1) = 2d with 0 < d < v - 1, so
    mu - lam = 1 and d = (v-1)/2, and the counting identity then gives
    mu = d/2: a conference graph v = 4t+1, d = 2t, lam = t-1, mu = t with
    t >= 1, whose r and s are the roots of x^2 + x - t.  With r + s = -1
    and rs = -t, (s+1)^2 = r^2 = t - r and (r+1)(d + r + 2rs) = t, so the
    first slack (d+r)(s+1)^2 - (r+1)(d+r+2rs) is (t-1)(2t-r), and by
    symmetry the second is (t-1)(2t-s).  As s < 0 < r = (sqrt(4t+1) - 1)/2
    < 2t, both are >= 0: conference graphs always pass.
    """
    if e.conjugate:
        return True
    d, r, s = p.d, e.r, e.s
    return ((r + 1) * (d + r + 2 * r * s) <= (d + r) * (s + 1) ** 2
            and (s + 1) * (d + s + 2 * r * s) <= (d + s) * (r + 1) ** 2)


def srg_param_feasible(p: SrgParams) -> tuple[bool, str | None]:
    """Necessary-condition battery for a primitive srg parameter set.

    Checks, in order: parameter ranges, the counting identity
    (v-1-d)mu = d(d-1-lam), integral nonnegative multiplicities, the two
    Krein conditions and the absolute bound.  Returns (True, None) or
    (False, reason).
    """
    v, d, lam, mu = p.v, p.d, p.lam, p.mu
    if not (0 < d < v - 1 and 0 <= lam < d and 0 < mu <= d):
        return False, "parameter_range"
    if (v - 1 - d) * mu != d * (d - 1 - lam):
        return False, "identity"
    if v * d % 2:
        return False, "handshake"
    e = eigendata(p)
    if e is None:
        return False, "multiplicity"
    if not _krein_ok(p, e):
        return False, "krein"
    if v > e.f * (e.f + 3) // 2 or v > e.g * (e.g + 3) // 2:
        return False, "absolute_bound"
    return True, None


# -- determinant square condition -------------------------------------------------

@dataclass(frozen=True)
class SquareCheck:
    """Outcome of the incidence determinant condition.

    The Gram matrix of a (v_k; lam, mu) configuration has determinant
    k^2 (r+k)^f (s+k)^g, which must be a perfect square.  On failure the
    witness prime has odd exponent in the factorization."""
    passed: bool
    witness_prime: int | None = None
    witness_exponent: int | None = None


def square_condition(p: SrcParams) -> SquareCheck:
    """Check that k^2 (r+k)^f (s+k)^g is a perfect square; ValueError when
    no strongly regular graph has the point graph parameters."""
    e = eigendata(p.graph_params())
    if e is None:
        raise ValueError(f"{p}: no strongly regular graph has parameters "
                         f"{p.graph_params()}")
    k = p.k
    if e.conjugate:
        # (r+k)(s+k) is rational: rs + k(r+s) + k^2
        base = (p.mu - p.d) + k * (p.lam - p.mu) + k * k
        factors = {q: e.f * m for q, m in factorize(base).items()}
        negative = base < 0 and e.f % 2
    else:
        t1, t2 = e.r + k, e.s + k
        if t1 == 0 or t2 == 0:
            return SquareCheck(True)  # determinant 0
        factors: dict[int, int] = {}
        for base, mult in ((t1, e.f), (t2, e.g)):
            for q, m in factorize(base).items():
                factors[q] = factors.get(q, 0) + m * mult
        negative = (t1 < 0 and e.f % 2) != (t2 < 0 and e.g % 2)
    if negative:
        return SquareCheck(False, witness_prime=-1, witness_exponent=None)
    for q in sorted(factors):
        if factors[q] % 2:
            return SquareCheck(False, witness_prime=q, witness_exponent=factors[q])
    return SquareCheck(True)


# -- clique condition and rook exclusion ------------------------------------------

def clique_condition(p: SrcParams) -> str:
    """Compare (v-k)(lam+1) with k(k-1)^3.

    Lines are k-cliques of the point graph; counting edges between a line
    and the rest gives (v-k)(lam+1) >= k(k-1)^3, with equality exactly for
    partial geometries.  Returns 'fail', 'equality_pg' or 'strict_pass'.
    """
    lhs = (p.v - p.k) * (p.lam + 1)
    rhs = p.k * (p.k - 1) ** 3
    if lhs < rhs:
        return "fail"
    if lhs == rhs:
        return "equality_pg"
    return "strict_pass"


def rook_excluded(p: SrcParams) -> bool:
    """True when the rook graph with these parameters carries no configuration.

    For k > 3 the n x n rook graph with n = k(k-1)/2 + 1 has the right
    parameters but admits no strongly regular configuration; pseudo rook
    graphs with the same parameters are untouched, so this is an annotation
    on the parameter set, not an infeasibility.
    """
    if p.k <= 3:
        return False
    n = p.k * (p.k - 1) // 2 + 1
    return (p.v, p.lam, p.mu) == (n * n, n - 2, 2)


def primitivity(p: SrcParams) -> str:
    """'union_of_planes' (mu = 0), 'elliptic_semiplane' (mu = k(k-1)) or 'primitive'."""
    if p.mu == 0:
        return "union_of_planes"
    if p.mu == p.d:
        return "elliptic_semiplane"
    return "primitive"


# -- external exclusion list -------------------------------------------------------

_DATA_FILE = Path(__file__).parent / "data" / "srg_nonexistent.txt"


@cache
def load_exclusions() -> frozenset[tuple[int, int, int, int]]:
    """The packaged nonexistent-srg list, lines `v d lam mu  # citation-tag`,
    read once; the citation tags are for readers of the file."""
    return read_file(_DATA_FILE, lambda lines, _text: frozenset(
        tuple(map(int, ln.split())) for ln in lines))


# -- full verdicts ------------------------------------------------------------------

@dataclass(frozen=True)
class FeasibilityVerdict:
    params: SrcParams
    externally_excluded: bool
    rook_excluded: bool
    overall: str            # feasible | partial_geometry_only | infeasible
    reason: str | None = None


def assess(p: SrcParams) -> FeasibilityVerdict:
    """Run the whole pipeline on one parameter set."""
    gp = p.graph_params()
    ok, reason = srg_param_feasible(gp)
    excluded = gp.astuple() in load_exclusions()
    clique = clique_condition(p)
    if not ok:
        overall, why = "infeasible", reason
    elif excluded:
        overall, why = "infeasible", "known_nonexistent_srg"
    elif clique == "fail":
        overall, why = "infeasible", "clique_condition"
    elif clique == "equality_pg":
        overall, why = "partial_geometry_only", None
    elif not square_condition(p).passed:
        overall, why = "infeasible", "square_condition"
    else:
        overall, why = "feasible", None
    return FeasibilityVerdict(p, excluded, rook_excluded(p), overall, why)


def enumerate_candidates(v_max: int) -> list[SrcParams]:
    """All primitive parameter sets with v <= v_max passing the srg battery.

    Walks the restricted eigenvalues r > 0 > s = -t of the point graph
    (Brouwer & Haemers, Spectra of Graphs, sec. 9.1), not mu.  With
    d = k(k-1), an srg has r + s = lam - mu and rs = mu - d, so

        mu = d - rt,   lam = mu + r - t,   v = 1 + d + d(r+1)(t-1)/mu,

    the last from the counting identity (v-1-d)mu = d(d-1-lam), as
    d - 1 - lam = (r+1)(t-1).  A primitive parameter set, 0 < mu < d < v-1
    and lam >= 0, that passes the battery falls in one of three cases:

    - integral eigenvalues: r >= 1 and t >= 1 are integers, as rs < 0, and
      t = 1 would give v = d + 1.  So (r, t) with r >= 1, t >= 2 is met
      below, kept when mu > 0, mu divides d(r+1)(t-1) and lam >= 0;
    - irrational eigenvalues: eigendata then requires equal multiplicities,
      which make it a conference graph (proof in _krein_ok), v = 2d + 1,
      lam = d/2 - 1, mu = d/2, with discriminant v not a square.  These
      rows are added by hand (d is even, so they are integral);
    - a conference graph with square v has integral eigenvalues
      (-1 +- sqrt(v))/2 and is the first case, as (25_4;5,6) is; it is
      not added a second time.

    Distinct (r, t) give distinct (lam, mu), as r + s and rs fix r > s, so
    no parameter set is met twice.  Left out: r = 0 gives mu = d (elliptic
    semiplanes) and t = 1 gives v = d + 1, both outside 0 < mu < d < v-1.

    The r loop needs no search for its end.  With e = v_max - 1 - d > 0
    (the k loop keeps d < v_max - 1), v <= v_max reads
    d(r+1)(t-1) <= e mu = e(d - rt), that is

        r <= d(e - t + 1) / (d(t-1) + e t),

    and it forces mu > 0, as its left side is positive.  lam >= 0 reads
    r(t-1) <= d - t.  So r runs from 1 to the floor of the smaller bound.
    Both bounds fall as t grows (numerators fall, denominators grow), so
    the t loop ends at the first t whose bound is below 1.  Of those (r, t),
    a hit is kept when mu divides d(r+1)(t-1), so that v is an integer,
    and when r + t divides t(v-1) - d: with s = -t that quantity is
    f(r - s), and the multiplicity f must be an integer, as eigendata
    requires.  Every parameter set kept still goes through the whole
    srg_param_feasible battery.
    """
    out = []
    k = 3
    while k * (k - 1) < v_max - 1:
        d = k * (k - 1)
        found = []
        if 2 * d + 1 <= v_max and math.isqrt(2 * d + 1) ** 2 != 2 * d + 1:
            found.append((2 * d + 1, d // 2 - 1, d // 2))
        e = v_max - 1 - d
        t = 2
        while (r_max := min(d * (e - t + 1) // (d * (t - 1) + e * t),
                            (d - t) // (t - 1))) >= 1:
            for r in range(1, r_max + 1):
                mu = d - r * t
                num = d * (r + 1) * (t - 1)
                if num % mu == 0:
                    v = 1 + d + num // mu
                    if (t * (v - 1) - d) % (r + t) == 0:    # f(r - s), f integral
                        found.append((v, mu + r - t, mu))
            t += 1
        out += [SrcParams(v, k, lam, mu) for v, lam, mu in found
                if srg_param_feasible(SrgParams(v, d, lam, mu))[0]]
        k += 1
    out.sort(key=lambda p: (p.v, p.k, p.lam, p.mu))
    return out


@dataclass(frozen=True)
class FeasibleTable:
    verdicts: tuple[FeasibilityVerdict, ...]
    counts: dict

    def feasible_rows(self) -> list[FeasibilityVerdict]:
        return [w for w in self.verdicts if w.overall == "feasible"]


def feasible_table(v_max: int = 200) -> FeasibleTable:
    """Verdicts for every battery-passing candidate up to v_max, sorted by
    (v, k), with their bookkeeping counts.

    Candidates eliminated only by the external exclusion list stay in the
    table, flagged externally_excluded.  ValueError when v_max < 0."""
    if v_max < 0:
        raise ValueError(f"v_max must be at least 0, got {v_max}")
    verdicts = [assess(p) for p in enumerate_candidates(v_max)]
    alive = [w for w in verdicts if not w.externally_excluded]
    counts = {
        "battery_passing": len(verdicts),
        "excluded_known_nonexistent": sum(w.externally_excluded for w in verdicts),
        "candidates": len(alive),
        "clique_fail": sum(w.reason == "clique_condition" for w in alive),
        "equality_pg": sum(w.overall == "partial_geometry_only" for w in alive),
        "square_fail": sum(w.reason == "square_condition" for w in alive),
        "feasible": sum(w.overall == "feasible" for w in alive),
    }
    return FeasibleTable(tuple(verdicts), counts)


def render_table(table: FeasibleTable, only_feasible: bool = True) -> str:
    """Fixed-width text rendering of the table."""
    hdr = f"{'v':>4} {'k':>3} {'lam':>4} {'mu':>4} {'r':>4} {'s':>4} {'f':>4} {'g':>4}  {'verdict':<24} notes"
    rows = [hdr, "-" * len(hdr)]
    for w in table.verdicts:
        if only_feasible and w.overall != "feasible":
            continue
        p = w.params
        e = eigendata(p.graph_params())
        r = "conj" if e.conjugate else str(e.r)
        s = "conj" if e.conjugate else str(e.s)
        verdict = w.overall if w.reason is None else f"{w.overall}:{w.reason}"
        notes = []
        if w.rook_excluded:
            notes.append("rook-excluded")
        if w.externally_excluded:
            notes.append("known-nonexistent-srg")
        rows.append(f"{p.v:>4} {p.k:>3} {p.lam:>4} {p.mu:>4} {r:>4} {s:>4} "
                    f"{e.f:>4} {e.g:>4}  {verdict:<24} {' '.join(notes)}".rstrip())
    counts = table.counts
    rows.append("-" * len(hdr))
    rows.append(f"candidates {counts['candidates']}  clique-fail {counts['clique_fail']}  "
                f"equality {counts['equality_pg']}  square-fail {counts['square_fail']}  "
                f"feasible {counts['feasible']}")
    return "\n".join(rows)
