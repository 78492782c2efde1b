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

The exact cover works on int bitsets, as graphs.py does: the bitset form
of Knuth's column removal (Dancing Links, arXiv cs/0011047).  Each edge
holds the mask of the cliques on it, the AND of the masks of the cliques
through its two ends.  The search carries the mask of uncovered edges and
the live set, the mask of the cliques edge-disjoint from every chosen
one, so an uncovered edge's candidates are its mask AND the live set.
Choosing clique r removes from the live set its clash mask, the OR of the
masks of r's edges (r among them), built when r is first chosen.  The
search branches at the lowest vertex with an uncovered edge, on that
vertex's first uncovered edge with the fewest candidates (stopping at one
with at most one), and tries them in ascending index.  compatible_pairs
reads the same masks: two cliques meet in two or more vertices exactly
when they share an edge.

reduce_isomorphs names a class by its canonical form (iso.canonical_form).
Each configuration's canonical search stops at the first leaf whose
certificate is the form of a class already found; one that meets none
starts a new class, and its finished search is the stored one its |Aut|
and self-duality are read from.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, replace

from .graphs import Graph, k_cliques, srg_check
from .incidence import Configuration, is_valid
from .iso import CanonicalForm, aut_order, canonical_form, is_self_dual

__all__ = ["IsoClass", "compatible_pairs", "find_configurations",
           "reduce_isomorphs"]

_BIT = (1).__lshift__   # _BIT(i) == 1 << i


def _cliques_on_vertices(cliques) -> dict[int, int]:
    """For each vertex of a clique, the mask of the cliques through it; the
    cliques on an edge uv are those through both u and v."""
    on: dict[int, list[int]] = {}
    for r, c in enumerate(cliques):
        for u in c:
            on.setdefault(u, []).append(r)
    return {u: sum(map(_BIT, rs)) for u, rs in on.items()}


def _clash(clique, on_vertex) -> int:
    """The mask of the cliques that share an edge with clique, it among
    them if it has an edge."""
    c = 0
    for u, v in itertools.combinations(clique, 2):
        c |= on_vertex[u] & on_vertex[v]
    return c


def compatible_pairs(cliques) -> int:
    """The number of clique pairs that meet in at most one vertex: the edge
    count of the compatibility (clique) graph of the candidate lines.
    That is C(N, 2) minus the pairs that share an edge."""
    on_vertex = _cliques_on_vertices(cliques)
    sharing = sum((_clash(c, on_vertex) >> (r + 1)).bit_count()
                  for r, c in enumerate(cliques))
    return len(cliques) * (len(cliques) - 1) // 2 - sharing


def _exact_cover_solutions(g: Graph, cliques) -> tuple[list[tuple[int, ...]], int]:
    """All exact covers of the edge set of g by the given k-cliques,
    as sorted tuples of clique indices, in lexicographic order (the empty
    cover alone when g has no edges: the root has nothing to cover), and the
    number of nodes of the search tree (the root's included), which the
    branching rule alone fixes."""
    edges = g.edges()
    on_vertex = _cliques_on_vertices(cliques)
    on_edge = [on_vertex.get(u, 0) & on_vertex.get(v, 0) for u, v in edges]
    edge_id = {e: i for i, e in enumerate(edges)}
    # edge ids run in g.edges() order, so the edges whose lower end is u
    # form one block; at the lowest vertex with an uncovered edge, every
    # uncovered edge lies in that vertex's block
    block = [0] * g.n
    for i, (u, _) in enumerate(edges):
        block[u] |= 1 << i
    block_of = [block[u] for u, _ in edges]
    # of each clique once chosen: its edge mask and its clash mask, negated
    chosen_masks: list[tuple[int, int] | None] = [None] * len(cliques)
    out: list[tuple[int, ...]] = []
    nodes = 0

    # depth-first from the root, one stack entry per node still to visit:
    # free, the uncovered edges; live, the cliques on none of the covered
    # ones, which are edge-disjoint from every chosen clique; and chosen
    stack = [((1 << len(edges)) - 1, (1 << len(cliques)) - 1, ())]
    while stack:
        free, live, chosen = stack.pop()
        nodes += 1
        if not free:
            out.append(tuple(sorted(chosen)))
            continue
        m = block_of[(free & -free).bit_length() - 1] & free
        fewest = -1
        while m:
            low = m & -m
            m ^= low
            cand = on_edge[low.bit_length() - 1] & live
            size = cand.bit_count()
            if fewest < 0 or size < fewest:
                best, fewest = cand, size
                if size <= 1:
                    break
        # children highest index first, so that they pop in ascending order
        while best:
            r = best.bit_length() - 1
            best ^= 1 << r
            masks = chosen_masks[r]
            if masks is None:
                c = cliques[r]
                masks = chosen_masks[r] = (
                    sum(map(_BIT, map(edge_id.get, itertools.combinations(c, 2)))),
                    ~_clash(c, on_vertex))
            # r is live, so its edges are all uncovered
            stack.append((free ^ masks[0], live & masks[1], chosen + (r,)))
    return sorted(out), nodes


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
              for sol in _exact_cover_solutions(g, cliques)[0])
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

    A configuration joins the class whose form its canonical search meets
    first, and starts a new one if it meets none (see the module
    docstring); the first member of a class is its representative.
    Returns one record per class with the class size, the automorphism
    group order and the self-duality flag of (any, hence every) member,
    ordered by canonical form for reproducibility.
    """
    classes: dict[CanonicalForm, IsoClass] = {}
    for c in configs:
        form = canonical_form(c, classes)
        if form in classes:
            classes[form] = replace(classes[form], count=classes[form].count + 1)
        else:
            # read from c's stored canonical search
            classes[form] = IsoClass(c, 1, form, aut_order(c), is_self_dual(c))
    return [classes[form] for form in sorted(classes)]
