"""Reference checks C1-C14: the one registry of the paper's results.

Each claim recomputes one result from scratch and returns
``(expected, observed, details)``.  Expected values are published figures
frozen as literals, never the package's own output; a claim holds when
``expected == observed``.  ``srcfg reproduce <id>`` runs one claim and
``tests/test_acceptance.py`` runs them all.

A claim times its core work through ``ctx.stage(name)``; the seconds land
in ``ctx.stages``, so time budgets can be checked by the caller while the
expected/observed values stay deterministic.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

from . import (algebra, catalog, classify, constructions, feasibility, graphs,
               incidence, iso, sdds)
from .incidence import SrcParams

__all__ = ["CLAIMS", "Claim", "Context", "DataUnavailable", "FEASIBLE_200",
           "get"]


class DataUnavailable(Exception):
    """A claim's external input data is missing or incomplete."""


@dataclass
class Context:
    """Inputs of one claim run and the seconds spent in each named stage."""
    data_dir: str | None = None
    stages: dict[str, float] = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] = (self.stages.get(name, 0.0)
                                 + time.perf_counter() - started)


class Claim(NamedTuple):
    id: str
    description: str
    run: Callable[[Context], tuple[dict, dict, dict]]


CLAIMS: dict[str, Claim] = {}


def _claim(claim_id: str, description: str):
    def register(run):
        CLAIMS[claim_id] = Claim(claim_id, description, run)
        return run
    return register


def get(claim_id: str) -> Claim:
    if claim_id not in CLAIMS:
        raise ValueError(f"unknown claim id {claim_id!r}; known ids: "
                         f"{', '.join(CLAIMS)}")
    return CLAIMS[claim_id]


def _latin6_complement() -> graphs.Graph:
    return graphs._latin_square_cyclic(6).complement()


def _lp4_variants() -> list:
    """LP(4,2) with (hyperplane, point) polarity off/off, on/off, off/on,
    on/on."""
    return [constructions.lp4(2, hyperplane_polarity=h, point_polarity=p)
            for h, p in [(False, False), (True, False), (False, True),
                         (True, True)]]


# The 41 feasible (v, k, lam, mu) up to v = 200, in table order.
FEASIBLE_200 = [
    (10, 3, 3, 4), (13, 3, 2, 3), (16, 3, 2, 2), (25, 4, 5, 6),
    (36, 5, 10, 12), (41, 5, 9, 10), (45, 4, 3, 3), (49, 4, 5, 2),
    (49, 6, 17, 20), (50, 7, 35, 36), (61, 6, 14, 15), (63, 6, 13, 15),
    (64, 7, 26, 30), (81, 8, 37, 42), (85, 6, 11, 10), (85, 7, 20, 21),
    (96, 5, 4, 4), (99, 7, 21, 15), (100, 9, 50, 56), (105, 9, 51, 45),
    (113, 8, 27, 28), (120, 8, 28, 24), (121, 5, 9, 2), (121, 6, 11, 6),
    (121, 9, 43, 42), (121, 10, 65, 72), (125, 9, 45, 36), (136, 6, 15, 4),
    (136, 9, 36, 40), (144, 11, 82, 90), (145, 9, 35, 36), (153, 8, 19, 21),
    (155, 7, 17, 9), (169, 9, 31, 30), (169, 12, 101, 110),
    (171, 11, 73, 66), (175, 6, 5, 5), (181, 10, 44, 45), (196, 10, 40, 42),
    (196, 13, 122, 132), (196, 13, 125, 120),
]


@_claim("C1", "feasibility table at vmax=200: 64/11/6/6/41 counts")
def _c1(ctx):
    with ctx.stage("feasible_table"):
        table = feasibility.feasible_table(200)
    keys = ["candidates", "clique_fail", "equality_pg", "square_fail",
            "feasible"]
    expected = dict(zip(keys, [64, 11, 6, 6, 41]))
    expected["rows"] = FEASIBLE_200
    observed = {k: table.counts[k] for k in keys}
    observed["rows"] = [w.params.astuple() for w in table.feasible_rows()]
    details = {"feasible_rows": [str(w.params) for w in table.feasible_rows()]}
    return expected, observed, details


@_claim("C2", "(28_4;6,4) eigendata and square condition witness 2^41")
def _c2(ctx):
    p = SrcParams(28, 4, 6, 4)
    with ctx.stage("eigendata_square"):
        e = feasibility.eigendata(p.graph_params())
        sq = feasibility.square_condition(p)
    expected = {"r": 4, "s": -2, "f": 7, "g": 20, "square_passed": False,
                "witness": "2^41"}
    observed = {"r": e.r, "s": e.s, "f": e.f, "g": e.g,
                "square_passed": sq.passed,
                "witness": f"{sq.witness_prime}^{sq.witness_exponent}"}
    return expected, observed, {}


@_claim("C3", "(81_5;1,6) fails the clique condition")
def _c3(ctx):
    p = SrcParams(81, 5, 1, 6)
    expected = {"clique_condition": "fail"}
    observed = {"clique_condition": feasibility.clique_condition(p)}
    return expected, observed, {}


@_claim("C4", "Paley(13) triangle pipeline: 2 covers, 1 class, aut 39")
def _c4(ctx):
    g = graphs.paley(13)
    with ctx.stage("pipeline"):
        cliques = graphs.k_cliques(g, 3)
        configs = classify.find_configurations(g, 3)
        classes = classify.reduce_isomorphs(configs)
    expected = {"cliques": 26, "compat_vertices": 26, "compat_edges": 286,
                "configurations": 2, "classes": 1, "aut_order": 39,
                "self_dual": True}
    observed = {"cliques": len(cliques), "compat_vertices": len(cliques),
                "compat_edges": classify.compatible_pairs(cliques),
                "configurations": len(configs), "classes": len(classes),
                "aut_order": classes[0].aut_order if classes else None,
                "self_dual": classes[0].self_dual if classes else None}
    return expected, observed, {}


@_claim("C5", "Shrikhande vs rook(4) triangle covers")
def _c5(ctx):
    with ctx.stage("pipeline"):
        sh = graphs.shrikhande()
        triangles = len(graphs.k_cliques(sh, 3))
        configs = classify.find_configurations(sh, 3)
        classes = classify.reduce_isomorphs(configs)
        rook_configs = classify.find_configurations(graphs.rook(4), 3)
    tr = constructions.triangle_removal(constructions.projective_plane(5))
    expected = {"triangles": 32, "configurations": 2, "classes": 1,
                "rook4_configurations": 0,
                "class_is_triangle_removal_of_order5_plane": True}
    observed = {"triangles": triangles,
                "configurations": len(configs),
                "classes": len(classes),
                "rook4_configurations": len(rook_configs),
                "class_is_triangle_removal_of_order5_plane":
                    bool(classes) and
                    classes[0].canonical == iso.canonical_form(tr)}
    return expected, observed, {}


@_claim("C6", "complement of Petersen: 2 classes and their spectra")
def _c6(ctx):
    with ctx.stage("pipeline"):
        configs = classify.find_configurations(graphs.petersen().complement(),
                                               3)
        classes = classify.reduce_isomorphs(configs)
    geos = {}
    for cl in classes:
        geo = incidence.alpha_spectrum(cl.representative)
        geos[geo.kind] = geo
    kinds = {kind: sorted(v for v, _ in geo.spectrum)
             for kind, geo in geos.items()}
    spg = geos.get("semipartial_geometry")
    expected = {"classes": 2,
                "kinds": ["general", "semipartial_geometry"],
                "semipartial": {"present": True, "alpha": 2, "mu": 4},
                "general_values_include_1_2_3": True}
    observed = {"classes": len(classes),
                "kinds": sorted(kinds),
                "semipartial": {"present": spg is not None,
                                "alpha": spg.alpha if spg else None,
                                "mu": spg.mu if spg else None},
                "general_values_include_1_2_3":
                    "general" in kinds and
                    {1, 2, 3} <= set(kinds["general"])}
    return expected, observed, {"spectra_by_kind": kinds}


@_claim("C7", "order-7 triangle removal and Latin-square-graph "
              "classification")
def _c7(ctx):
    tr = constructions.triangle_removal(constructions.projective_plane(7))
    p = incidence.src_check(tr)
    with ctx.stage("latin6"):
        configs = classify.find_configurations(_latin6_complement(), 5)
        classes = classify.reduce_isomorphs(configs)
    expected = {"params": "(36_5;10,12)", "proper": True,
                "primitivity": "primitive", "latin6_classes": 1,
                "latin6_class_is_triangle_removal_of_order7_plane": True}
    observed = {"params": str(p), "proper": p.proper if p else None,
                "primitivity": feasibility.primitivity(p) if p else None,
                "latin6_classes": len(classes),
                "latin6_class_is_triangle_removal_of_order7_plane":
                    bool(classes) and
                    classes[0].canonical == iso.canonical_form(tr)}
    return expected, observed, {}


# Published |Aut| of the developments; the other catalog entries are not
# checked for it.
_PUBLISHED_AUT_ORDERS = {"z13": 39, "frobenius155": 9999360,
                         "q8q8_hall": 768, "q8q8_hall_dual": 768}


@_claim("C8", "cataloged difference sets verify and develop correctly")
def _c8(ctx):
    expected = {}
    observed = {}
    for entry in catalog.published_entries():
        want_aut = _PUBLISHED_AUT_ORDERS.get(entry.name)
        expected[entry.name] = {
            "sdds": [entry.params.lam, entry.params.mu],
            "development_params": str(entry.params),
            "aut_order": want_aut,
        }
        got = sdds.sdds_check(entry.group, entry.subset)
        with ctx.stage(entry.name):
            dev = constructions.development(entry.group, entry.subset)
            aut = iso.aut_order(dev) if want_aut is not None else None
        observed[entry.name] = {
            "sdds": None if got is None else list(got),
            "development_params": str(incidence.src_check(dev)),
            "aut_order": aut,
        }
    return expected, observed, {}


@_claim("C9", "Z13 SDDS search develops to a single class")
def _c9(ctx):
    group = algebra.cyclic(13)
    with ctx.stage("pipeline"):
        found = sdds.sdds_search(group, 3, 2, 3)
        classes = classify.reduce_isomorphs(
            [constructions.development(group, d) for d in found])
    expected = {"nonempty": True, "classes": 1}
    observed = {"nonempty": bool(found), "classes": len(classes)}
    return expected, observed, {"sets": [list(d) for d in found]}


@_claim("C10", "lines-vs-planes suite over GF(2) with polarity variants")
def _c10(ctx):
    with ctx.stage("build"):
        cs = _lp4_variants()
    with ctx.stage("suite"):
        params = [str(incidence.src_check(c)) for c in cs]
        pg = [incidence.point_graph(c) for c in cs]
        lg = [incidence.line_graph(c) for c in cs]
        geo0 = incidence.alpha_spectrum(cs[0])
        geo_h = incidence.alpha_spectrum(cs[1])
        self_dual = [iso.is_self_dual(c) for c in cs]
        aut_orders = [iso.aut_order(c) for c in cs]
    expected = {
        "params": ["(155_7;17,9)"] * 4,
        "point_graph_invariant_in_hyperplane_polarity": True,
        "line_graph_invariant_in_point_polarity": True,
        "flags_off_kind": "semipartial_geometry",
        "hyperplane_kind": "general",
        "hyperplane_spectrum_contains_7": True,
        "self_dual": [True, False, False, True],
        "aut_orders": [9999360, 322560, 322560, 20160],
    }
    observed = {
        "params": params,
        "point_graph_invariant_in_hyperplane_polarity":
            pg[0] == pg[1] and pg[2] == pg[3],
        "line_graph_invariant_in_point_polarity":
            lg[0] == lg[2] and lg[1] == lg[3],
        "flags_off_kind": geo0.kind,
        "hyperplane_kind": geo_h.kind,
        "hyperplane_spectrum_contains_7":
            7 in {v for v, _ in geo_h.spectrum},
        "self_dual": self_dual,
        "aut_orders": aut_orders,
    }
    return expected, observed, {}


@_claim("C11", "Moore configuration of the Hoffman-Singleton graph")
def _c11(ctx):
    with ctx.stage("build"):
        c = constructions.moore_configuration(graphs.hoffman_singleton())
    with ctx.stage("checks"):
        observed = {"params": str(incidence.src_check(c)),
                    "aut_order": iso.aut_order(c),
                    "self_dual": iso.is_self_dual(c)}
    expected = {"params": "(50_7;35,36)", "aut_order": 252000,
                "self_dual": True}
    return expected, observed, {}


def _all_produced_configurations() -> list[incidence.Configuration]:
    """Every configuration produced by the C4-C11 pipelines."""
    out = []
    for g, k in [(graphs.paley(13), 3), (graphs.shrikhande(), 3),
                 (graphs.petersen().complement(), 3),
                 (_latin6_complement(), 5)]:
        out.extend(classify.find_configurations(g, k))
    out.append(constructions.triangle_removal(constructions.projective_plane(5)))
    out.append(constructions.triangle_removal(constructions.projective_plane(7)))
    for entry in catalog.published_entries():
        out.append(constructions.development(entry.group, entry.subset))
    z13 = algebra.cyclic(13)
    for d in sdds.sdds_search(z13, 3, 2, 3):
        out.append(constructions.development(z13, d))
    out.extend(_lp4_variants())
    out.append(constructions.moore_configuration(graphs.hoffman_singleton()))
    return out


@_claim("C12", "line-graph parameters equal point-graph parameters "
               "everywhere")
def _c12(ctx):
    configs = _all_produced_configurations()
    ok = True
    for c in configs:
        pp = graphs.srg_check(incidence.point_graph(c))
        lp = graphs.srg_check(incidence.line_graph(c))
        if pp is None or pp != lp:
            ok = False
            break
    expected = {"line_graph_params_equal_point_graph_params": True,
                "at_least_25_configurations": True}
    observed = {"line_graph_params_equal_point_graph_params": ok,
                "at_least_25_configurations": len(configs) >= 25}
    return expected, observed, {"configurations_checked": len(configs)}


def _srg_buckets(data_dir) -> dict[tuple, list[graphs.Graph]]:
    """Strongly regular graphs of every *.g6 / *.graph6 file under
    data_dir, bucketed by their parameters (v, d, lam, mu)."""
    buckets: dict[tuple, list[graphs.Graph]] = {}
    for path in sorted(Path(data_dir).rglob("*")):
        if path.suffix not in (".g6", ".graph6"):
            continue
        for g in graphs.read_graph6_file(path):
            p = graphs.srg_check(g)
            if p is not None:
                buckets.setdefault(p.astuple(), []).append(g)
    return buckets


@_claim("C13", "external SRG(25,12,5,6)/SRG(45,12,3,3) clique sweeps")
def _c13(ctx):
    data_dir = ctx.data_dir or os.environ.get("SRCFG_DATA_DIR")
    if not data_dir or not os.path.isdir(data_dir):
        raise DataUnavailable(
            "external graph lists not found; point SRCFG_DATA_DIR or "
            "--data-dir at a directory of graph6 files")
    buckets = _srg_buckets(data_dir)
    g25 = buckets.get((25, 12, 5, 6), [])
    g45 = buckets.get((45, 12, 3, 3), [])
    if len(g25) != 15 or len(g45) != 78:
        raise DataUnavailable(
            f"incomplete external data: {len(g25)}/15 graphs on 25 points, "
            f"{len(g45)}/78 on 45 points")
    with ctx.stage("sweep"):
        # graph by graph, so that the covers reuse the cliques k_cliques cached
        sweep = [(len(graphs.k_cliques(g, 4)), len(classify.find_configurations(g, 4)))
                 for g in g25 + g45]
    counts25, cfg25 = map(list, zip(*sweep[:len(g25)]))
    counts45, cfg45 = map(list, zip(*sweep[len(g25):]))
    expected = {"graphs_25": 15, "counts_25_in_range": True,
                "configs_25": 0,
                "graphs_45": 78, "counts_45_in_range": True,
                "configs_45": 0}
    observed = {"graphs_25": len(g25),
                "counts_25_in_range":
                    all(73 <= c <= 90 for c in counts25) and bool(counts25),
                "configs_25": sum(cfg25),
                "graphs_45": len(g45),
                "counts_45_in_range":
                    all(12 <= c <= 135 for c in counts45) and bool(counts45),
                "configs_45": sum(cfg45)}
    details = {"clique_counts_25": counts25, "clique_counts_45": counts45}
    return expected, observed, details


@_claim("C14", "lines vs planes of PG(4,3): |Aut| = |PGL(5,3)|, self-dual")
def _c14(ctx):
    with ctx.stage("build"):
        c = constructions.lp4(3)
    with ctx.stage("checks"):
        observed = {"aut_order": iso.aut_order(c),
                    "self_dual": iso.is_self_dual(c)}
    # |PGL(5,3)| = |GL(5,3)| / |GF(3)^*| = 3^10 (3^2-1)(3^3-1)(3^4-1)(3^5-1)
    expected = {"aut_order": 3**10 * (3**2 - 1) * (3**3 - 1) * (3**4 - 1)
                * (3**5 - 1),
                "self_dual": True}
    return expected, observed, {}
