"""srcfg benchmark: one closed-loop client running a workload's verified tasks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; srcfg is imported from `src/`.  One run:

1. SETUP_ROUNDS times: drop every srcfg module, import srcfg afresh and
   build the workload's inputs from the seed (the set-up).  After each of
   the last COLD_ROUNDS set-ups, one pass through the task list follows.  A
   fresh import empties srcfg's caches, so each of these passes is a first
   pass, as in a fresh process.  `setup_s` and `cold_pass_s` are medians.
2. Warm passes until S seconds have gone by, at least one; `pass_s` is the
   median.

Times are scaled to a reference CPU speed (see `Stopwatch`); the wall
times are printed beside them.  One client in one process sends the next
task only after the previous one has finished; the benchmark starts no
threads or processes.  Every task checks its result against a reference
(see workloads.py); a task that raises counts as failed.  With --trace 0
the last line of stdout is a JSON object with the end-to-end metrics, with
--trace 1 one with the per-layer metrics, and the spans are written to
perfbench/out/.  Metric names and units come from BENCHMARK.json.  The line
before it gives quartiles, sample counts, failures and the environment.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
MODULES = ["algebra", "catalog", "classify", "cli", "constructions",
           "feasibility", "graphs", "incidence", "iso", "sdds"]
SETUP_ROUNDS = 5
COLD_ROUNDS = 3
PROBE_LOOPS = 25_000
PROBE_EVERY_S = 0.2
# Duration of probe() on an idle core of the reference machine (2-vCPU
# Intel Xeon VM at 2.0 GHz, Python 3.11.7): the fastest of 8932 probes.
REF_PROBE_S = 0.0019


def import_srcfg() -> types.SimpleNamespace:
    """Import srcfg from this checkout's sources, dropping any earlier import."""
    src = ROOT / "src"
    if not (src / "srcfg" / "__init__.py").is_file():
        raise SystemExit(f"error: no srcfg sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "srcfg" or n.startswith("srcfg.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"srcfg.{name}") for name in MODULES})


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "samples": len(values)}


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


# Operands for probe(): the graph code works on rows as big integers.
_ROWS = [(0x9E3779B97F4A7C15 * (i + 1)) ** 9 for i in range(80)]


def probe() -> float:
    """Seconds this process now takes for fixed pure-Python work: an
    integer loop and AND/bit_count over 600-bit integers."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    for a in _ROWS:
        for b in _ROWS:
            total += (a & b).bit_count()
    return time.perf_counter() - start


class Stopwatch:
    """Times steps in wall seconds and in seconds at the reference speed.

    On a shared host the CPU speed this process gets can change by half
    for seconds at a time.  So the probe runs right before and after each
    timed step, and every PROBE_EVERY_S during it, from a SIGALRM handler.
    The step's wall time, less the probes run during it, is scaled by
    REF_PROBE_S over the mean probe time.  The probe is benchmark code, so
    a change to srcfg moves scaled and wall times alike.
    """

    def __init__(self):
        self.probes = [probe()]
        signal.signal(signal.SIGALRM, lambda *_: self.probes.append(probe()))

    def time(self, fn, *args) -> tuple[object, float, float]:
        """fn(*args), and its wall and scaled seconds."""
        first = len(self.probes) - 1
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start - sum(self.probes[first + 1:])
        self.probes.append(probe())
        speed = statistics.fmean(self.probes[first:])
        return result, wall, wall * REF_PROBE_S / speed


def run_pass(workload, tracer: Tracer, clock: Stopwatch, phase: tuple[str, int],
             failures: list[str]) -> tuple[float, float, int]:
    """One pass through the task list: (wall s, scaled s, tasks failed).

    The pass's time is the sum of its tasks' times, probes excluded.  The
    tasks draw their relabellings from the pass's name, such as `warm3`."""
    tracer.phase = phase
    key = f"{phase[0]}{phase[1]}"
    failed = wall = scaled = 0

    def attempt(name, task):
        nonlocal failed
        with tracer.scope("task", name, task=f"{key}:{name}"):
            try:
                task(key)
            except Exception as exc:  # a failed task is counted, not fatal
                failed += 1
                if len(failures) < 10:
                    failures.append(f"pass {key} {name}: "
                                    + "".join(traceback.format_exception_only(exc)).strip())

    with tracer.scope("pass", "pass"):
        for name, task in workload.tasks:
            _, w, s = clock.time(attempt, name, task)
            wall += w
            scaled += s
    return wall, scaled, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer(bool(args.trace))

    clock = Stopwatch()
    failures: list[str] = []
    # (wall, scaled) seconds per sample, under the end-to-end metric's name
    times = {"setup_s": [], "cold_pass_s": [], "pass_s": []}
    attempted = failed = 0

    def setup(r):
        tracer.phase = ("setup", r)
        return WORKLOADS[args.workload](import_srcfg(), args.seed, tracer)

    for r in range(SETUP_ROUNDS):
        workload, *t = clock.time(setup, r)
        times["setup_s"].append(t)
        if r >= SETUP_ROUNDS - COLD_ROUNDS:
            *t, f = run_pass(workload, tracer, clock, ("cold", r), failures)
            times["cold_pass_s"].append(t)
            attempted += len(workload.tasks)
            failed += f

    window = time.perf_counter()
    while not times["pass_s"] or time.perf_counter() - window < args.seconds:
        p = len(times["pass_s"]) + 1
        *t, f = run_pass(workload, tracer, clock, ("warm", p), failures)
        times["pass_s"].append(t)
        attempted += len(workload.tasks)
        failed += f
    scaled = {k: [s for _, s in v] for k, v in times.items()}

    if args.trace:
        metrics = tracer.layer_metrics(SETUP_ROUNDS, len(times["pass_s"]))
        metrics["traced.pass_s"] = statistics.median(scaled["pass_s"])
        hits = metrics.pop("sdds.check_hits", 0.0)
        metrics["sdds.check_hit_ratio"] = hits / metrics["sdds.checks"] if hits else 0.0
        wanted = spec["per_layer"]
    else:
        metrics = {
            **{k: statistics.median(v) for k, v in scaled.items()},
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    unlisted = sorted(set(metrics) - {w["name"] for w in wanted})
    if unlisted:
        print(f"warning: metrics missing from BENCHMARK.json: {unlisted}", file=sys.stderr)

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "numpy": sys.modules["numpy"].__version__,
                        "commit": git_commit(), "seed": args.seed},
        "scaled": {k: quartiles(v) for k, v in scaled.items()},
        "wall": {k: quartiles([w for w, _ in v]) for k, v in times.items()},
        "probe_s": quartiles(clock.probes),
        "tasks": {"attempted": attempted, "failed": failed,
                  "failed_frac": failed / attempted},
        "failures": failures,
    }
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({**detail, **tracer.dump()}))
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
        detail["shares"] = {n: v for n, v in sorted(metrics.items()) if n.endswith(".share")}
    print(json.dumps(detail))
    # A per-layer metric absent from the trace measured no work: 0.
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {w["name"]: {"value": metrics.get(w["name"], 0.0), "unit": w["unit"]}
                    for w in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
