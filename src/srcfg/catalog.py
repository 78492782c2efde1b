"""Catalog of known strong deficient difference sets.

Each entry packages a concrete group, the subset (as element indices) and
the parameters of its development.  Claim C8 checks every subset and its
development's parameters, and the published automorphism group orders of
the developments it lists; the docstrings below record the others.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (FiniteField, Group, cyclic, direct_product,
                      frobenius_31_5, perm_from_cycles, quaternion8,
                      symmetric)
from .incidence import SrcParams


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    group: Group
    subset: tuple[int, ...]
    params: SrcParams


def z13_entry() -> CatalogEntry:
    """The unique cyclic example: {7, 8, 11} in Z13, fixed by the
    multiplier 3."""
    g = cyclic(13)
    return CatalogEntry(
        name="z13",
        group=g,
        subset=g.subset_indices([7, 8, 11]),
        params=SrcParams(13, 3, 2, 3),
    )


def z4_s4_entry() -> CatalogEntry:
    """A (96_5;4,4) example in Z4 x S4; the development is self-dual with
    automorphism group of order 11520."""
    g = direct_product(cyclic(4), symmetric(4))
    cyc = lambda *cycles: perm_from_cycles(4, *cycles)
    subset = g.subset_indices([
        (0, cyc()),
        (1, cyc((1, 4), (2, 3))),
        (1, cyc((1, 3, 4, 2))),
        (1, cyc((1, 4, 3))),
        (2, cyc((1, 2, 4))),
    ])
    return CatalogEntry(
        name="z4_s4",
        group=g,
        subset=subset,
        params=SrcParams(96, 5, 4, 4),
    )


def s5_entry() -> CatalogEntry:
    """A (120_8;28,24) example in S5; the development is self-dual with
    automorphism group A8 of order 20160."""
    g = symmetric(5)
    cyc = lambda *cycles: perm_from_cycles(5, *cycles)
    subset = g.subset_indices([
        cyc(),
        cyc((1, 2, 5, 3, 4)),
        cyc((1, 3, 4, 2, 5)),
        cyc((1, 5, 3, 2, 4)),
        cyc((1, 4), (2, 3, 5)),
        cyc((1, 4, 5, 2)),
        cyc((1, 2, 4)),
        cyc((1, 2, 5)),
    ])
    return CatalogEntry(
        name="s5",
        group=g,
        subset=subset,
        params=SrcParams(120, 8, 28, 24),
    )


def frobenius155_entry() -> CatalogEntry:
    """A (155_7;17,9) example in the Frobenius group Z31:Z5 generated by
    f: x -> x+1 and g: x -> 2x.  The subset is given by the words
    {id, f^12 g^4, f^15 g, f^18, f^20 g^2, f^26 g^3, f^30}, multiplied out
    left to right: f^i g^j is x -> 2^j (x + i), the element (2^j, 2^j i).
    The development realizes the semipartial geometry of lines versus
    planes of the projective 4-space over GF(2)."""
    g = frobenius_31_5()
    subset = tuple(sorted(g.index((pow(2, j, 31), pow(2, j, 31) * i % 31))
                          for i, j in [(0, 0), (12, 4), (15, 1), (18, 0),
                                       (20, 2), (26, 3), (30, 0)]))
    return CatalogEntry(
        name="frobenius155",
        group=g,
        subset=subset,
        params=SrcParams(155, 7, 17, 9),
    )


def _q8_pair(a: str, b: str) -> tuple:
    def parse(s: str):
        if s.startswith("-"):
            return (-1, s[1:])
        return (1, s)
    return (parse(a), parse(b))


def _q8q8_entry(name: str, labels: list[tuple[str, str]]) -> CatalogEntry:
    g = direct_product(quaternion8(), quaternion8())
    subset = g.subset_indices([_q8_pair(a, b) for a, b in labels])
    return CatalogEntry(
        name=name,
        group=g,
        subset=subset,
        params=SrcParams(64, 7, 26, 30),
    )


def q8q8_hall_entry() -> CatalogEntry:
    """A (64_7;26,30) example in Q8 x Q8 whose development is the triangle
    removal configuration of the Hall plane of order 9."""
    return _q8q8_entry("q8q8_hall", [
        ("1", "1"), ("i", "-k"), ("j", "k"), ("k", "-j"),
        ("-i", "j"), ("-j", "i"), ("-k", "-i"),
    ])


def q8q8_hall_dual_entry() -> CatalogEntry:
    """The companion (64_7;26,30) example in Q8 x Q8; its development is
    the dual of the Hall plane configuration."""
    return _q8q8_entry("q8q8_hall_dual", [
        ("1", "1"), ("i", "-k"), ("j", "j"), ("k", "-j"),
        ("-i", "-i"), ("-j", "i"), ("-k", "k"),
    ])


# name -> constructor, smallest development first
_ENTRIES = {
    "z13": z13_entry,
    "q8q8_hall": q8q8_hall_entry,
    "q8q8_hall_dual": q8q8_hall_dual_entry,
    "z4_s4": z4_s4_entry,
    "s5": s5_entry,
    "frobenius155": frobenius155_entry,
}


def published_entries() -> list[CatalogEntry]:
    """All cataloged examples, smallest development first."""
    return [make() for make in _ENTRIES.values()]


def entry_by_name(name: str) -> CatalogEntry:
    """The cataloged example called name, built alone."""
    if name not in _ENTRIES:
        raise ValueError(f"unknown catalog entry {name!r}; known entries: "
                         f"{', '.join(_ENTRIES)}")
    return _ENTRIES[name]()


def grid_sdds(q: int) -> tuple[Group, tuple[int, ...], SrcParams]:
    """The SDDS {(x, x+1) : x in F_q^*, x != -1} in F_q^* x F_q^*.

    Its development is the triangle removal configuration of the classical
    projective plane of order q with two removed points on a common line
    and parameters ((q-1)^2_(q-2); (q-4)^2+1, (q-3)(q-4)).  Requires q >= 5.
    """
    if q < 5:
        raise ValueError(f"grid_sdds needs q >= 5, got {q}")
    field = FiniteField(q)
    for gen in range(2, q):   # F_q^* is cyclic, so some gen has order q - 1
        log, x = {}, 1
        while x not in log:
            log[x] = len(log)
            x = field.mul(x, gen)
        if len(log) == q - 1:
            break
    group = direct_product(cyclic(q - 1), cyclic(q - 1))
    subset = []
    minus_one = field.neg(1)
    for t in range(1, q):
        if t == minus_one:
            continue
        tp1 = field.add(t, 1)
        subset.append(group.index((log[t], log[tp1])))
    params = SrcParams((q - 1) ** 2, q - 2, (q - 4) ** 2 + 1, (q - 3) * (q - 4))
    return group, tuple(sorted(subset)), params
