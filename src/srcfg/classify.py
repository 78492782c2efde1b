"""From a point graph to all configurations on it.

The lines of a configuration with point graph g are k-cliques of g that
pairwise meet in at most one point and cover each edge of g exactly once.
So the configurations on g are the exact covers of the edge set by the
edge sets of k-cliques that pass is_valid; when g is SRG(v, k(k-1), lam, mu)
every exact cover does, each point then lying in k cliques by regularity,
and it is the line set of a strongly regular configuration: its point graph
is g, as the cliques cover exactly the edges of g, so src_check gives
(v_k; lam, mu).  So find_configurations filters the covers by is_valid
alone, whatever g is.

The exact cover works on int bitmasks, as graphs.py does: each clique is
the mask of its edge ids, and the search state is the mask of covered
edges.  It branches at the lowest vertex with an uncovered edge, on that
vertex's uncovered edge with the fewest cliques still disjoint from the
cover.

reduce_isomorphs recognises a class by its key, the best leaf of a
member's canonical search (iso.class_key).  Each configuration's search
stops at the first leaf equal to the key of a class already found; one
that meets none starts a new class, and its finished search is the cached
one its canonical form, |Aut| and self-duality are read from.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, replace

from .graphs import Graph, k_cliques, srg_check
from .incidence import Configuration, is_valid
from .iso import CanonicalForm, aut_order, canonical_form, class_key, is_self_dual

__all__ = ["IsoClass", "compatible_pairs", "find_configurations",
           "reduce_isomorphs"]


def compatible_pairs(cliques) -> int:
    """The number of clique pairs that meet in at most one vertex: the edge
    count of the compatibility (clique) graph of the candidate lines."""
    masks = [sum(1 << x for x in c) for c in cliques]
    return sum((a & b).bit_count() <= 1
               for a, b in itertools.combinations(masks, 2))


def _exact_cover_solutions(g: Graph, cliques) -> list[tuple[int, ...]]:
    """All exact covers of the edge set of g by the given k-cliques,
    as sorted tuples of clique indices, in lexicographic order."""
    edges = g.edges()
    if not edges:
        return []
    edge_id = {e: i for i, e in enumerate(edges)}
    masks = []
    on_edge: list[list[int]] = [[] for _ in edges]
    for r, c in enumerate(cliques):
        m = 0
        for e in itertools.combinations(c, 2):
            i = edge_id[e]
            m |= 1 << i
            on_edge[i].append(r)
        masks.append(m)
    # edge ids run in g.edges() order, so the edges whose lower end is u
    # form one block; at the lowest vertex with an uncovered edge, every
    # uncovered edge lies in that vertex's block
    block = [0] * g.n
    for i, (u, _) in enumerate(edges):
        block[u] |= 1 << i
    full = (1 << len(edges)) - 1
    out: list[tuple[int, ...]] = []

    def search(covered: int, chosen: tuple[int, ...]):
        free = full ^ covered
        if not free:
            out.append(tuple(sorted(chosen)))
            return
        m = block[edges[(free & -free).bit_length() - 1][0]] & free
        best = None
        while m:
            low = m & -m
            m ^= low
            cand = [r for r in on_edge[low.bit_length() - 1]
                    if not masks[r] & covered]
            if best is None or len(cand) < len(best):
                best = cand
                if len(best) <= 1:
                    break
        for r in best:
            search(covered | masks[r], chosen + (r,))

    search(0, ())
    # search reaches itself through its closure; breaking that cycle frees
    # the tables now instead of at the next cyclic garbage collection
    del search
    return sorted(out)


def find_configurations(g: Graph, k: int) -> list[Configuration]:
    """All configurations with line size k whose point graph is exactly g,
    in a deterministic order; they are strongly regular when g is.

    Equivalently: all exact covers of the edge set of g by k-cliques that
    form a valid configuration.
    """
    if k < 2:
        raise ValueError(f"line size k must be at least 2, got {k}")
    p = srg_check(g)
    if p is None or p.d != k * (k - 1):
        warnings.warn(
            f"graph is not strongly regular with degree {k * (k - 1)}; "
            "clique search results are exploratory", stacklevel=2)
    cliques = k_cliques(g, k)
    covers = (Configuration.from_lines(g.n, k, sorted(cliques[i] for i in sol))
              for sol in _exact_cover_solutions(g, cliques))
    return [c for c in covers if is_valid(c)]


@dataclass(frozen=True)
class IsoClass:
    """One isomorphism class among a list of configurations."""
    representative: Configuration
    count: int
    canonical: CanonicalForm
    aut_order: int
    self_dual: bool


def reduce_isomorphs(configs) -> list[IsoClass]:
    """Group configurations by isomorphism class.

    A configuration joins the class whose key its canonical search meets
    first, and starts a new one if it meets none (see the module
    docstring); the first member of a class is its representative.
    Returns one record per class with the class size, the automorphism
    group order and the self-duality flag of (any, hence every) member,
    ordered by canonical form for reproducibility.
    """
    classes: dict[tuple, IsoClass] = {}
    for c in configs:
        key = class_key(c, classes)
        if key in classes:
            classes[key] = replace(classes[key], count=classes[key].count + 1)
        else:
            # read while the canonical search of c is still cached
            classes[key] = IsoClass(c, 1, canonical_form(c), aut_order(c), is_self_dual(c))
    return sorted(classes.values(),
                  key=lambda cl: (cl.canonical.v, cl.canonical.k, cl.canonical.data))
