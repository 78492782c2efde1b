"""Command-line interface.

Every verb prints a JSON run report to stdout:

    {"command": ..., "inputs": ..., "timing": {"seconds": ...},
     "results": ..., "check": null | {"expected", "observed", "match"}}

A verb returns its inputs, results, check and exit code; `run` alone builds
the report, naming the verb and timing it.  Reports are deterministic: two
runs of the same verb differ at most in the timing field.  Exit codes: 0
success, 1 domain error (bad input data, failed reproduction check), 2
usage error.  A reader that closes stdout early (`srcfg ... | head -1`) is
no error: nothing goes to stderr and the exit code is the verb's.  A
warning goes to stderr as one `warning: ...` line.

The `reproduce` verb runs one of the reference checks (C1-C14) registered
in `srcfg.claims` and fills the report's check field, with the seconds of
each stage under timing.stages; `reproduce --list` enumerates them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import warnings

from . import algebra, catalog, claims, classify, constructions, feasibility
from . import graphs, incidence, iso, sdds
from .incidence import Configuration, configuration_to_dict

__all__ = ["main", "run"]


# -- input loading -------------------------------------------------------------

def _on_set(check, group: algebra.Group, text: str):
    """(subset, check(group, subset)) for the subset --set lists, naming
    --set in every ValueError: no other input can be at fault."""
    try:
        subset = tuple(int(t) for t in text.replace(",", " ").split())
        return subset, check(group, subset)
    except ValueError as exc:
        raise ValueError(f"--set {exc}") from None


def _params_str(p) -> str | None:
    return None if p is None else str(p)


def _class_row(cl: classify.IsoClass, params: str | None) -> dict:
    return {"count": cl.count, "aut_order": cl.aut_order,
            "self_dual": cl.self_dual, "params": params}


# -- verbs ---------------------------------------------------------------------

class _Report:
    """What a verb reports; run adds the command name and the timing."""

    def __init__(self, inputs: dict, results, check: dict | None = None,
                 stages: dict | None = None, code: int = 0):
        self.inputs, self.results, self.check = inputs, results, check
        self.stages, self.code = stages, code


def _cmd_feasible_table(args) -> _Report | None:
    table = feasibility.feasible_table(args.vmax)
    if args.format == "text":
        print(feasibility.render_table(table, only_feasible=not args.all_rows))
        return None
    rows = []
    for w in table.verdicts:
        if args.all_rows or w.overall == "feasible":
            e = feasibility.eigendata(w.params.graph_params())
            rows.append({
                "params": str(w.params),
                "v": w.params.v, "k": w.params.k,
                "lam": w.params.lam, "mu": w.params.mu,
                "verdict": w.overall,
                "reason": w.reason,
                "rook_excluded": w.rook_excluded,
                "multiplicities": None if e.conjugate else [e.f, e.g],
            })
    return _Report({"vmax": args.vmax, "all_rows": args.all_rows},
                   {"counts": dict(sorted(table.counts.items())), "rows": rows})


def _describe(c: Configuration) -> dict:
    """Report on a valid c; src_check raises on an invalid one."""
    p = incidence.src_check(c)
    geo = incidence.alpha_spectrum(c)
    out = {
        "params": _params_str(p),
        "valid": True,
        "points": c.v,
        "line_size": c.k,
        "geometry": {"kind": geo.kind, "alpha": geo.alpha, "beta": geo.beta,
                     "mu": geo.mu, "spectrum": [list(t) for t in geo.spectrum]},
    }
    if p is not None:
        out["proper"] = p.proper
        out["primitivity"] = feasibility.primitivity(p)
    return out


def _cmd_construct(args) -> _Report:
    inputs = {"family": args.family}
    if args.family == "moore":
        if not args.graph:
            raise ValueError("moore needs --graph")
        inputs["graph"] = args.graph
        g = graphs.make_graph(args.graph)
        try:
            c = constructions.moore_configuration(g)
        except constructions.NotMooreGraph as exc:
            raise ValueError(f"--graph {args.graph}: {exc}") from None
    elif args.family == "triangle-removal":
        if args.order is None:
            raise ValueError("triangle-removal needs --order")
        inputs["order"] = args.order
        c = constructions.triangle_removal(
            constructions.projective_plane(args.order))
    elif args.family == "lp4":
        if args.order is None:
            raise ValueError("lp4 needs --order")
        inputs.update({"order": args.order,
                       "hyperplane_polarity": args.hyperplane_polarity,
                       "point_polarity": args.point_polarity})
        c = constructions.lp4(args.order,
                              hyperplane_polarity=args.hyperplane_polarity,
                              point_polarity=args.point_polarity)
    else:  # development
        if args.catalog:
            inputs["catalog"] = args.catalog
            entry = catalog.entry_by_name(args.catalog)
            c = constructions.development(entry.group, entry.subset)
        else:
            if not (args.group and args.set):
                raise ValueError(
                    "development needs --catalog or both --group and --set")
            inputs.update({"group": args.group, "set": args.set})
            _, c = _on_set(constructions.development,
                           algebra.make_group(args.group), args.set)
    results = _describe(c)
    results["configuration"] = configuration_to_dict(c)
    if args.out:
        incidence.write_configuration(c, args.out)
        results["written"] = args.out
    return _Report(inputs, results)


def _cmd_verify(args) -> _Report:
    c = incidence.read_configuration(args.file)
    violations = incidence.validate(c)
    results = {
        "valid": not violations,
        "violations": [{"kind": w.kind, "where": list(w.where), "detail": w.detail}
                       for w in violations],
    }
    if not violations:
        results.update(_describe(c))
    else:
        results.update({"points": c.v, "line_size": c.k})
    return _Report({"file": args.file}, results, code=1 if violations else 0)


def _cmd_classify(args) -> _Report:
    g = graphs.make_graph(args.graph)
    configs = classify.find_configurations(g, args.k)
    cliques = graphs.k_cliques(g, args.k)
    srg = graphs.srg_check(g)
    # each cover found has point graph g, hence its parameters (classify module)
    params = _params_str(srg and incidence.SrcParams(g.n, args.k, srg.lam, srg.mu))
    return _Report({"graph": args.graph, "k": args.k}, {
        "graph": {"n": g.n, "srg": str(srg) if srg else None},
        "cliques": len(cliques),
        "edges": classify.compatible_pairs(cliques),
        "configurations": len(configs),
        "classes": [_class_row(cl, params)
                    for cl in classify.reduce_isomorphs(configs)],
    })


def _cmd_sdds_check(args) -> _Report:
    group = algebra.make_group(args.group)
    subset, got = _on_set(sdds.sdds_check, group, args.set)
    prof = sdds.difference_profile(group, subset)
    return _Report({"group": args.group, "set": list(subset)}, {
        "sdds": got is not None,
        "lam": None if got is None else got[0],
        "mu": None if got is None else got[1],
        "delta_size": len(prof.delta),
        "repeated_difference": prof.repeated,
    }, code=1 if got is None else 0)


def _cmd_sdds_search(args) -> _Report:
    group = algebra.make_group(args.group)
    found = sdds.sdds_search(group, args.k, args.lam, args.mu)
    results = {"count": len(found), "sets": [list(d) for d in found]}
    if args.develop:
        # every set found is an SDDS for (lam, mu), so its development is an
        # SRC with parameters (|G|_k; lam, mu) (see the sdds module)
        params = str(incidence.SrcParams(group.n, args.k, args.lam, args.mu))
        configs = [constructions.development(group, d) for d in found]
        results["developments"] = [
            {"params": params, "configuration": configuration_to_dict(c)}
            for c in configs]
        results["classes"] = [_class_row(cl, params)
                              for cl in classify.reduce_isomorphs(configs)]
    return _Report({"group": args.group, "k": args.k, "lam": args.lam,
                    "mu": args.mu}, results)


def _cmd_iso(args) -> _Report:
    a = incidence.read_configuration(args.a)
    b = incidence.read_configuration(args.b)
    return _Report({"a": args.a, "b": args.b},
                   {"isomorphic": iso.are_isomorphic(a, b)})


def _cmd_aut(args) -> _Report:
    c = incidence.read_configuration(args.file)
    gens = iso.automorphism_generators(c)
    return _Report({"file": args.file}, {
        "order": iso.aut_order(c),
        "generators": [list(g) for g in gens],
    })


def _cmd_dual(args) -> _Report:
    c = incidence.read_configuration(args.file)
    incidence.require_valid(c)
    d = incidence.dual(c)
    results = {
        "params": _params_str(incidence.src_check(d)),
        "self_dual": iso.is_self_dual(c),
        "configuration": configuration_to_dict(d),
    }
    if args.out:
        incidence.write_configuration(d, args.out)
        results["written"] = args.out
    return _Report({"file": args.file}, results)


def _cmd_spectrum(args) -> _Report:
    c = incidence.read_configuration(args.file)
    geo = incidence.alpha_spectrum(c)
    return _Report({"file": args.file}, {
        "histogram": {str(k): v for k, v in geo.spectrum},
        "kind": geo.kind,
        "alpha": geo.alpha,
        "beta": geo.beta,
        "mu": geo.mu,
    })


def _cmd_reproduce(args) -> _Report:
    if args.list:
        return _Report({"list": True},
                       [{"id": c.id, "description": c.description}
                        for c in claims.CLAIMS.values()])
    claim = claims.get(args.id)
    ctx = claims.Context(data_dir=args.data_dir)
    expected, observed, details = claim.run(ctx)
    match = expected == observed
    return _Report({"id": claim.id, "description": claim.description},
                   {"details": details},
                   {"expected": expected, "observed": observed, "match": match},
                   ctx.stages, 0 if match else 1)


# -- argument parsing ----------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: parse_args keeps
    no state in it."""
    parser = argparse.ArgumentParser(
        prog="srcfg",
        description="strongly regular configurations: feasibility, "
                    "construction, classification")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("feasible-table", help="parameter feasibility table")
    p.add_argument("--vmax", type=int, default=200)
    p.add_argument("--all-rows", action="store_true",
                   help="include infeasible candidate rows")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_feasible_table)

    p = sub.add_parser("construct", help="build a known configuration family")
    p.add_argument("family",
                   choices=["moore", "triangle-removal", "lp4", "development"])
    p.add_argument("--graph", help="graph spec for moore")
    p.add_argument("--order", type=int, help="prime power order q")
    p.add_argument("--hyperplane-polarity", action="store_true")
    p.add_argument("--point-polarity", action="store_true")
    p.add_argument("--group", help="group spec for development")
    p.add_argument("--set", help="comma-separated element indices")
    p.add_argument("--catalog", help="named difference set from the catalog")
    p.add_argument("--out", help="write the configuration to this file")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="validate and analyze a configuration")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("classify", help="all configurations on a point graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("sdds-check", help="test a subset for the SDDS property")
    p.add_argument("--group", required=True)
    p.add_argument("--set", required=True)
    p.set_defaults(func=_cmd_sdds_check)

    p = sub.add_parser("sdds-search", help="exhaustive SDDS search")
    p.add_argument("--group", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--develop", action="store_true",
                   help="include the development of every set found")
    p.set_defaults(func=_cmd_sdds_search)

    p = sub.add_parser("iso", help="test two configurations for isomorphism")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("aut", help="automorphism group of a configuration")
    p.add_argument("file")
    p.set_defaults(func=_cmd_aut)

    p = sub.add_parser("dual", help="dual configuration")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("spectrum", help="antiflag spectrum and geometry kind")
    p.add_argument("file")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("reproduce", help="run a registered reference check")
    p.add_argument("id", nargs="?", default=None)
    p.add_argument("--list", action="store_true")
    p.add_argument("--data-dir", default=None,
                   help="directory of external graph6 lists (default: "
                        "SRCFG_DATA_DIR)")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def _warning_line(message, *_):
    """Print a warning as one line, without the source line that the
    default format adds."""
    print(f"warning: {message}", file=sys.stderr)


def run(argv=None) -> int:
    """Run one verb and print its JSON report; the exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "verb", None) == "reproduce" and not args.list \
            and args.id is None:
        parser.error("reproduce needs a claim id or --list")
    started = time.perf_counter()
    report = None       # feasible-table --format text prints a table instead
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line
            report = args.func(args)
        if report is not None:
            timing = {"seconds": round(time.perf_counter() - started, 6)}
            if report.stages is not None:
                timing["stages"] = {k: round(v, 6)
                                    for k, v in report.stages.items()}
            print(json.dumps({"command": args.verb, "inputs": report.inputs,
                              "timing": timing, "results": report.results,
                              "check": report.check},
                             indent=2, sort_keys=True))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early, as `srcfg ... | head -1` does.  No
        # input is at fault, so no error line, and the verb's own exit code;
        # stdout goes to devnull, so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except (ValueError, OSError, claims.DataUnavailable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if report is None else report.code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
