"""The benchmark's workloads: set-up, per-pass task lists and references.

A workload object is built from freshly imported srcfg modules; building it
is the set-up.  Its `tasks` run in order once per pass.  Each task is one
user query (build, verify, classify or search) and checks its result: a
mismatch raises `Mismatch`.

Reference values are either *published* (the paper's reference checks
C1-C12, the catalog's sources, closed formulas) or *frozen*: the output of
the code at the commit that introduced this benchmark, used where no
published value exists.  Each table below marks which.

Every graph or configuration handed to `iso` or `classify` is a fresh
relabelling derived from (seed, pass, task), because `iso` caches
canonical forms: without fresh inputs a later pass would only measure
cache hits.  The same seed gives the same relabellings, and they check
that canonical forms do not depend on the labelling.  All calls into srcfg go through `self.call`, the tracer's
wrapper, and use default arguments only.
"""

from __future__ import annotations

import contextlib
import io
import json
import random


class Mismatch(Exception):
    """A task's result differs from its reference."""


def expect(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


class Workload:
    def __init__(self, m, seed: int, tracer):
        self.m = m
        self.seed = seed
        self.call = tracer.call
        self.count = tracer.count
        self.forms: dict[str, object] = {}
        self.tasks = self.setup()

    def setup(self) -> list[tuple[str, object]]:
        """Build the inputs; return the pass's (task name, task(pass)) list."""
        raise NotImplementedError

    def rng(self, *key) -> random.Random:
        return random.Random(":".join(map(str, (self.seed, *key))))

    def relabel_graph(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        return g.relabel(perm)

    def relabel_configuration(self, c, rng):
        perm = list(range(c.v))
        rng.shuffle(perm)
        lines = [[perm[x] for x in line] for line in c.lines]
        rng.shuffle(lines)
        return self.m.incidence.Configuration.from_lines(c.v, c.k, lines)

    def same_form(self, key: str, form) -> None:
        """The canonical form of every relabelling equals the first one's."""
        if self.forms.setdefault(key, form) != form:
            raise Mismatch(f"{key}: canonical form differs between relabellings")

    def classes(self, configs) -> tuple[list[tuple[int, int, bool]], list]:
        """reduce_isomorphs, counted: sorted (size, |Aut|, self-dual) per
        class, and the classes' canonical forms."""
        m = self.m
        found = self.call(m.classify.reduce_isomorphs, configs)
        self.count("classify.classes", len(found))
        for cl in found:
            gens = self.call(m.iso.automorphism_generators, cl.representative)
            self.count("iso.generators", len(gens))
        return (sorted((cl.count, cl.aut_order, cl.self_dual) for cl in found),
                [cl.canonical for cl in found])

    def cli(self, argv: list[str]) -> dict:
        """Run the CLI in process; exit code 0 required; the report's results."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.call(self.m.cli.run, argv)
        expect(f"srcfg {' '.join(argv)} exit code", code, 0)
        return json.loads(out.getvalue())["results"]


# -- classify-graphs ------------------------------------------------------------

# name, line size k, srg(v, d, lam, mu), k-cliques, configurations,
# classes as sorted (size, |Aut|, self-dual).
GRAPH_CASES = [
    # published: C4
    ("paley(13)", 3, (13, 6, 2, 3), 26, 2, [(2, 39, True)]),
    # published: C5
    ("shrikhande", 3, (16, 6, 2, 2), 32, 2, [(2, 96, True)]),
    ("rook(4)", 3, (16, 6, 2, 2), 32, 0, []),
    # published: C6
    ("complement(petersen)", 3, (10, 6, 3, 4), 30, 6, [(1, 120, True), (5, 24, True)]),
    # published: C7
    ("complement(latin6)", 5, (36, 20, 10, 12), 288, 2, [(2, 216, True)]),
    # srg parameters published (Paley); clique and configuration counts frozen
    ("paley(41)", 5, (41, 20, 9, 10), 205, 0, []),
]
# The point graph of triangle_removal(projective_plane(8)), built in set-up
# as the development of the grid SDDS for q = 8, which is isomorphic and
# costs milliseconds instead of the plane's finite-field work; frozen.
TR8_CASE = ("point_graph(tr(8))", 6, (49, 30, 17, 20), 931, 2, [(2, 882, True)])
TR8_RELABELLINGS = 4


class ClassifyGraphs(Workload):
    """Exact cover, clique enumeration and many small canonical forms."""

    def setup(self) -> list:
        m, call = self.m, self.call
        g = m.graphs
        latin6 = [[(i + j) % 6 for j in range(6)] for i in range(6)]
        self.graphs = {
            "paley(13)": call(g.paley, 13),
            "shrikhande": call(g.shrikhande),
            "rook(4)": call(g.rook, 4),
            "complement(petersen)": call(g.petersen).complement(),
            "complement(latin6)": call(g.latin_square_graph, latin6).complement(),
            "paley(41)": call(g.paley, 41),
            TR8_CASE[0]: call(m.incidence.point_graph, call(
                m.constructions.development, *call(m.catalog.grid_sdds, 8)[:2])),
        }
        return [
            *((f"classify:{case[0]}", self._task(case, 0)) for case in GRAPH_CASES),
            *((f"classify:{TR8_CASE[0]}#{copy}", self._task(TR8_CASE, copy))
              for copy in range(TR8_RELABELLINGS)),
            ("cli:classify paley(13)", self.cli_classify),
        ]

    def _task(self, case, copy):
        return lambda p: self.classify(case, copy, p)

    def classify(self, case, copy: int, p: str) -> None:
        name, k, srg, n_cliques, n_configs, classes = case
        m, call = self.m, self.call
        g = self.relabel_graph(self.graphs[name], self.rng(p, name, copy))
        expect(f"{name} srg parameters", call(m.graphs.srg_check, g).astuple(), srg)
        cliques = call(m.graphs.k_cliques, g, k)
        self.count("graphs.cliques", len(cliques))
        expect(f"{name} {k}-cliques", len(cliques), n_cliques)
        found = call(m.classify.find_configurations, g, k)
        self.count("classify.configurations", len(found))
        expect(f"{name} configurations", len(found), n_configs)
        summary, forms = self.classes(found)
        expect(f"{name} classes", summary, classes)
        self.same_form(name, forms)

    def cli_classify(self, p: str) -> None:
        # published: C4, the classify report of Paley(13) with k = 3
        r = self.cli(["classify", "--graph", "paley(13)", "--k", "3"])
        expect("classify paley(13) counts",
               (r["cliques"], r["edges"], r["configurations"]), (26, 286, 2))
        expect("classify paley(13) classes", r["classes"],
               [{"count": 2, "aut_order": 39, "self_dual": True,
                 "params": "(13_3;2,3)"}])


# -- identify-geometries --------------------------------------------------------

# Catalog developments: name, parameters, proper, geometry kind, |Aut|,
# self-dual.  Parameters, |Aut| and self-duality published (catalog, C8);
# proper and geometry kind frozen.  |Aut| None: IR on 155 points is too
# slow and too variable for a pass (see README), so only the incidence
# checks run.
DEVELOPMENTS = [
    ("q8q8_hall", "(64_7;26,30)", True, "general", 768, False),
    ("z4_s4", "(96_5;4,4)", True, "general", 11520, True),
    ("s5", "(120_8;28,24)", True, "general", 20160, True),
    ("frobenius155", "(155_7;17,9)", True, "semipartial_geometry", None, None),
]
# feasible_table(vmax) counts.  vmax 200 published (C1); vmax 1000 frozen.
FEASIBLE_COUNTS = {
    200: {"candidates": 64, "clique_fail": 11, "equality_pg": 6,
          "square_fail": 6, "feasible": 41},
    1000: {"candidates": 276, "clique_fail": 50, "equality_pg": 14,
           "square_fail": 39, "feasible": 173},
}


class IdentifyGeometries(Workload):
    """Constructions, incidence checks and IR on a few large configurations."""

    def setup(self) -> list:
        m, call = self.m, self.call
        self.hoffman_singleton = call(m.graphs.hoffman_singleton)
        self.entries = {e.name: e for e in call(m.catalog.published_entries)}
        return [
            ("triangle_removal(8)", self.plane8),
            ("lp4(2)", self.lp4_2),
            ("lp4(3)", self.lp4_3),
            ("moore(hoffman_singleton)", self.moore),
            *((f"development:{d[0]}", self._development(d)) for d in DEVELOPMENTS),
            *((f"feasible_table({v})", self._feasible(v)) for v in FEASIBLE_COUNTS),
        ]

    def examine(self, key: str, c, p: str, params: str, proper: bool, kind: str,
                aut: int | None = None, self_dual: bool | None = None) -> None:
        """Verify, classify the geometry and, if aut is given, run IR."""
        m, call = self.m, self.call
        c = self.relabel_configuration(c, self.rng(p, key))
        expect(f"{key} parameters", str(call(m.incidence.src_check, c)), params)
        expect(f"{key} proper", call(m.incidence.is_proper, c), proper)
        expect(f"{key} geometry", call(m.incidence.alpha_spectrum, c).kind, kind)
        if aut is None:
            return
        self.same_form(key, call(m.iso.canonical_form, c))
        expect(f"{key} |Aut|", call(m.iso.aut_order, c), aut)
        self.count("iso.generators", len(call(m.iso.automorphism_generators, c)))
        expect(f"{key} self-dual", call(m.iso.is_self_dual, c), self_dual)

    def plane8(self, p: str) -> None:
        cons = self.m.constructions
        plane = self.call(cons.projective_plane, 8)
        expect("PG(2,8) size", (plane.v, plane.k), (73, 9))
        c = self.call(cons.triangle_removal, plane)
        # parameters published (triangle-removal formula); the rest frozen
        self.examine("triangle_removal(8)", c, p, "(49_6;17,20)", True, "general",
                     882, True)

    def lp4_2(self, p: str) -> None:
        # parameters and geometry kind published (C10); proper frozen
        c = self.call(self.m.constructions.lp4, 2)
        self.examine("lp4(2)", c, p, "(155_7;17,9)", True, "semipartial_geometry")

    def lp4_3(self, p: str) -> None:
        # published: (1210_13;47,16)
        c = self.call(self.m.constructions.lp4, 3)
        expect("lp4(3) parameters", str(self.call(self.m.incidence.src_check, c)),
               "(1210_13;47,16)")

    def moore(self, p: str) -> None:
        # parameters, |Aut| and self-duality published (C11); the rest frozen
        c = self.call(self.m.constructions.moore_configuration, self.hoffman_singleton)
        self.examine("moore(hoffman_singleton)", c, p, "(50_7;35,36)", True,
                     "semipartial_geometry", 252000, True)

    def _development(self, ref):
        name, *expected = ref

        def task(p: str) -> None:
            e = self.entries[name]
            c = self.call(self.m.constructions.development, e.group, e.subset)
            self.examine(f"development:{name}", c, p, *expected)
        return task

    def _feasible(self, vmax: int):
        def task(p: str) -> None:
            table = self.call(self.m.feasibility.feasible_table, vmax)
            self.count("feasibility.candidates", table.counts["candidates"])
            got = {key: table.counts[key] for key in FEASIBLE_COUNTS[vmax]}
            expect(f"feasible_table({vmax}) counts", got, FEASIBLE_COUNTS[vmax])
        return task


# -- search-sdds ------------------------------------------------------------------

# group, k, lam, mu, sets found, classes of the developments as sorted
# (size, |Aut|, self-dual) or None when the pass does not classify them.
SEARCHES = [
    # one class of aut 39 published (C4, C9); 4 sets frozen
    ("cyclic(13)", 3, 2, 3, 4, [(4, 39, True)]),
    # 48 sets and 1 class published; the class is PG(2,7) minus a
    # triangle (C7: |Aut| 216, self-dual)
    ("direct_product(cyclic(6),cyclic(6))", 5, 10, 12, 48, [(48, 216, True)]),
    # frozen: no set, pure pruning
    ("cyclic(36)", 5, 10, 12, 0, None),
    # 48 sets frozen; must contain the catalog z4_s4 set (published)
    ("z4_s4", 5, 4, 4, 48, None),
]
# catalog set -> its (lam, mu), published (catalog, C8)
CHECK_GROUPS = {"z4_s4": (4, 4), "frobenius155": (17, 9)}
CHECKS_PER_GROUP = 1000
PLANT_EVERY = 8


def least_translate(group, subset) -> tuple[int, ...]:
    """The lexicographically least translate t^-1 D (t in D) containing
    the identity: the representative sdds_search returns."""
    return min(tuple(sorted(group.mul(group.inv(t), d) for d in subset))
               for t in subset)


class SearchSdds(Workload):
    """Backtracking SDDS search, with the check path beside it."""

    def setup(self) -> list:
        m, call = self.m, self.call
        algebra = m.algebra
        self.entries = {e.name: e for e in call(m.catalog.published_entries)}
        self.groups = {
            "cyclic(13)": call(algebra.cyclic, 13),
            "direct_product(cyclic(6),cyclic(6))": call(
                algebra.direct_product, call(algebra.cyclic, 6), call(algebra.cyclic, 6)),
            "cyclic(36)": call(algebra.cyclic, 36),
            "z4_s4": self.entries["z4_s4"].group,
        }
        # Every PLANT_EVERY-th subset is a left translate of the catalog
        # set, hence an SDDS with its parameters; the rest are random.
        self.subsets = {}
        for name in CHECK_GROUPS:
            e = self.entries[name]
            rng = self.rng("subsets", name)
            picks = []
            for i in range(CHECKS_PER_GROUP):
                if i % PLANT_EVERY == 0:
                    g = rng.randrange(e.group.n)
                    picks.append((tuple(sorted(e.group.mul(g, d) for d in e.subset)), True))
                else:
                    picks.append((tuple(sorted(rng.sample(range(e.group.n), len(e.subset)))), False))
            self.subsets[name] = picks
        return [
            *((f"search:{s[0]}", self._search(s)) for s in SEARCHES),
            *((f"check:{name}", self._check(name)) for name in CHECK_GROUPS),
            ("cli:sdds-search direct_product(cyclic(6),cyclic(6))", self.cli_search),
        ]

    def _search(self, ref):
        name, k, lam, mu, n_sets, classes = ref

        def task(p: str) -> None:
            m, call = self.m, self.call
            group = self.groups[name]
            sets = call(m.sdds.sdds_search, group, k, lam, mu)
            self.count("sdds.sets_found", len(sets))
            expect(f"{name} sets found", len(sets), n_sets)
            for d in sets:
                expect(f"{name} set {d}", call(m.sdds.sdds_check, group, d), (lam, mu))
            if name in self.entries:
                known = least_translate(group, self.entries[name].subset)
                expect(f"{name} search finds the catalog set", known in sets, True)
            if classes is None:
                return
            rng = self.rng(p, name)
            configs = [self.relabel_configuration(
                call(m.constructions.development, group, d), rng) for d in sets]
            summary, forms = self.classes(configs)
            expect(f"{name} classes", summary, classes)
            self.same_form(name, forms)
        return task

    def _check(self, name: str):
        def task(p: str) -> None:
            m, call = self.m, self.call
            e = self.entries[name]
            for subset, planted in self.subsets[name]:
                got = call(m.sdds.sdds_check, e.group, subset)
                self.count("sdds.checks")
                if got is None:
                    if planted:
                        raise Mismatch(f"{name}: translate {subset} of the "
                                       "catalog set is not recognised")
                    continue
                self.count("sdds.check_hits")
                if planted:
                    expect(f"{name} translate {subset}", got, CHECK_GROUPS[name])
                else:
                    # A random hit is rare; confirm it through its development.
                    c = call(m.constructions.development, e.group, subset)
                    expect(f"{name} random SDDS {subset}",
                           str(call(m.incidence.src_check, c)),
                           f"({e.group.n}_{len(subset)};{got[0]},{got[1]})")
        return task

    def cli_search(self, p: str) -> None:
        # published: 48 sets, as in the Z6 x Z6 search task
        r = self.cli(["sdds-search", "--group", "direct_product(cyclic(6),cyclic(6))",
                      "--k", "5", "--lambda", "10", "--mu", "12"])
        expect("sdds-search Z6xZ6 count", r["count"], 48)


WORKLOADS = {
    "classify-graphs": ClassifyGraphs,
    "identify-geometries": IdentifyGeometries,
    "search-sdds": SearchSdds,
}
