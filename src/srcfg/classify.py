"""From a point graph to all configurations on it.

The lines of a configuration with point graph g are k-cliques of g, pairwise
compatible (meeting in at most one point), and v of them: a v-clique of the
compatibility (clique) graph that clique_graph builds.  When g is
SRG(v, k(k-1), lam, mu) such a set is precisely the line set of a strongly
regular configuration with this point graph.

The search is run, for every graph, as an exact cover of the edge set by
clique edge sets: the lines of a configuration on g are edge-disjoint
k-cliques covering each edge of g, so the configurations on g are exactly
the exact covers that pass is_valid (on an SRG(v, k(k-1), lam, mu) every
exact cover does, each point then lying in k cliques by regularity).  This
gives a much stronger bound than clique search in the compatibility graph;
branching always continues at an uncovered edge with the fewest remaining
candidate cliques.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .graphs import Graph, k_cliques, srg_check
from .incidence import Configuration, is_valid, point_graph, src_check
from .iso import CanonicalForm, aut_order, canonical_form, is_self_dual

__all__ = ["CliqueGraphResult", "IsoClass", "clique_graph",
           "find_configurations", "reduce_isomorphs"]


@dataclass(frozen=True)
class CliqueGraphResult:
    """All k-cliques of a graph and their compatibility adjacency
    (cliques adjacent when they share at most one vertex)."""
    cliques: tuple[tuple[int, ...], ...]
    compat: Graph


def _expected_params(g: Graph, k: int):
    """SRG parameters of g when its degree matches a line size k, else None
    (with a warning, since the search is then only exploratory)."""
    p = srg_check(g)
    if p is None or p.d != k * (k - 1):
        warnings.warn(
            f"graph is not strongly regular with degree {k * (k - 1)}; "
            "clique search results are exploratory", stacklevel=3)
        return None
    return p


def clique_graph(g: Graph, k: int) -> CliqueGraphResult:
    """The clique graph: k-cliques joined when they meet in <= 1 vertex."""
    cliques = tuple(k_cliques(g, k))
    masks = [0 for _ in cliques]
    for i, c in enumerate(cliques):
        m = 0
        for x in c:
            m |= 1 << x
        masks[i] = m
    n = len(cliques)
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if (masks[i] & masks[j]).bit_count() <= 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return CliqueGraphResult(cliques, Graph(n, rows=rows))


def _exact_cover_solutions(g: Graph, cliques) -> list[tuple[int, ...]]:
    """All exact covers of the edge set of g by the given k-cliques,
    as sorted tuples of clique indices, in lexicographic order."""
    edge_id = {}
    for u, v in g.edges():
        edge_id[(u, v)] = len(edge_id)
    rows = []
    for c in cliques:
        eids = []
        for i in range(len(c)):
            for j in range(i + 1, len(c)):
                a, b = c[i], c[j]
                eids.append(edge_id[(a, b) if a < b else (b, a)])
        rows.append(tuple(eids))

    def select(cols, r):
        removed = []
        for e in rows[r]:
            for r2 in cols[e]:
                for e2 in rows[r2]:
                    if e2 != e:
                        cols[e2].discard(r2)
            removed.append(cols.pop(e))
        return removed

    def deselect(cols, r, removed):
        for e in reversed(rows[r]):
            cols[e] = removed.pop()
            for r2 in cols[e]:
                for e2 in rows[r2]:
                    if e2 != e:
                        cols[e2].add(r2)

    def search(cols, partial, out):
        if not cols:
            out.append(tuple(sorted(partial)))
            return
        e = min(cols, key=lambda c: (len(cols[c]), c))
        if not cols[e]:
            return
        for r in sorted(cols[e]):
            partial.append(r)
            removed = select(cols, r)
            search(cols, partial, out)
            deselect(cols, r, removed)
            partial.pop()

    if not edge_id:
        return []
    cols = {e: set() for e in range(len(edge_id))}
    for r, eids in enumerate(rows):
        for e in eids:
            cols[e].add(r)
    out: list[tuple[int, ...]] = []
    search(cols, [], out)
    return sorted(out)


def find_configurations(g: Graph, k: int) -> list[Configuration]:
    """All configurations with line size k whose point graph is exactly g,
    in a deterministic order; they are strongly regular when g is.

    Equivalently: all exact covers of the edge set of g by k-cliques that
    form a valid configuration.
    """
    if k < 2:
        raise ValueError(f"line size k must be at least 2, got {k}")
    params = _expected_params(g, k)
    cliques = k_cliques(g, k)
    result = []
    for sol in _exact_cover_solutions(g, cliques):
        c = Configuration.from_lines(g.n, k, sorted(cliques[i] for i in sol))
        if params is not None:
            p = src_check(c)
            assert p is not None and p.graph_params() == params, \
                "exact cover produced a non-configuration"
            assert point_graph(c) == g, "point graph mismatch"
        elif not is_valid(c):
            continue
        result.append(c)
    return result


@dataclass(frozen=True)
class IsoClass:
    """One isomorphism class among a list of configurations."""
    representative: Configuration
    count: int
    canonical: CanonicalForm
    aut_order: int
    self_dual: bool


def reduce_isomorphs(configs) -> list[IsoClass]:
    """Group configurations by canonical form.

    Returns one record per class with the class size, the automorphism
    group order and the self-duality flag of (any, hence every) member,
    ordered by canonical form for reproducibility.
    """
    buckets: dict[CanonicalForm, list[Configuration]] = {}
    for c in configs:
        buckets.setdefault(canonical_form(c), []).append(c)
    out = []
    for form in sorted(buckets, key=lambda f: (f.v, f.k, f.data)):
        members = buckets[form]
        rep = members[0]
        out.append(IsoClass(rep, len(members), form, aut_order(rep),
                            is_self_dual(rep)))
    return out
