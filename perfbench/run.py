"""Run one kgraphlat benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lattice-deep --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: the package is imported from
./src and the rank-1 and MCE oracles from ./tests.  One process runs one
workload, single-threaded, as a closed loop with one client: the next
query starts when the previous one returns.  The run sets up (imports the
package and generates the inputs as text) several times, then repeats the
workload's fixed query list ("a pass") at least MIN_PASSES times and while
the next pass still fits in --seconds.  Every output is checked after its
pass.

Times are scaled to a fixed host speed by probe.py, and a query's latency
is the median of its scaled times over the passes.  A query whose scaled
time exceeds BUDGET_S misses the budget: it counts as a miss for cap reach,
not as a failure, it is left out of the latency metrics, and later passes
skip the rest of its cap climb.  An alarm cuts a query off once it has run
ALARM_MARGIN times the budget, converted to wall time at the host speed
measured just before it.  Reach-only queries (see workloads.Query) run once,
after the timed passes.  Traced runs skip them and set no alarm, so every
traced query runs to the end and the counters do not depend on host speed.

--trace 0 prints the end-to-end metrics; --trace 1 installs the per-layer
wrappers of tracing.py and prints the per-layer metrics instead, and writes
the spans to perfbench/out/.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import weakref
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("textio", "kgraph", "align", "ideals", "structure", "cli", "randomgraphs")
SETUP_REPEATS = 9
MIN_PASSES = 3  # untraced; a traced run makes at least one pass
REPEAT_UNTIL_S = 0.5
ALARM_MARGIN = 1.2  # the host can slow down within a query
REFERENCE = os.path.join(HERE, "reference.json")


@dataclass
class Record:
    qid: str
    series: Optional[str]
    level: int
    scaled: float  # wall time minus the probe's share, at the probe's reference host speed
    problem: Optional[str]
    decided: int
    certificates: int
    missed: bool  # over the budget, or cut off by the alarm
    reach_only: bool


class BudgetExceeded(BaseException):
    """Raised by the budget alarm; not an Exception, so no handler in the
    package can swallow it."""


def _alarm(signum, frame):
    raise BudgetExceeded


def import_library(src: str) -> SimpleNamespace:
    """Import the package afresh from src, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "kgraphlat" or m.startswith("kgraphlat.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"kgraphlat.{m}") for m in MODULES})
    if not os.path.abspath(lib.cli.__file__).startswith(os.path.join(src, "")):
        raise ImportError(f"kgraphlat imported from {lib.cli.__file__}, not from {src}")
    return lib


def execute(q: workloads.Query, tracer, speed: probe.Probe) -> tuple:
    """Run one query, under the budget alarm when untraced:
    (start, end, seconds, result, error, cut_off)."""
    scope = tracer.span_query(q.qid) if tracer is not None else contextlib.nullcontext()
    alarm = 0.0 if tracer is not None else workloads.BUDGET_S * ALARM_MARGIN / speed.current_scale()
    result, error, cut_off = None, None, False
    with scope:
        spent = speed.spent
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, alarm)
            try:
                result = q.run()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except BudgetExceeded:
            cut_off = True
        except Exception as exc:  # a failing query is counted and the run goes on
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    return t0, t1, t1 - t0 - (speed.spent - spent), result, error, cut_off


def run_pass(lib, make_queries, inputs, pins, oracles, tracer, speed: probe.Probe,
             skip=None, reach=False) -> tuple:
    """Time one pass of the query list, then check every output.

    The pass runs the timed queries, or with reach=True the reach-only ones.
    skip maps a cap-reach series to the level from which it missed the
    budget in an earlier pass; those queries are not run again.  Untraced,
    a query with repeat > 1 runs again while it has taken less than
    REPEAT_UNTIL_S in this pass; traced, every query runs once, so the
    counters do not depend on speed.
    """
    skip = skip or {}
    timed = []
    start = time.perf_counter()
    if tracer is not None:
        tracer.on = True
    for q in make_queries(lib, inputs, pins, oracles):
        if q.reach_only != reach or (q.series in skip and q.level >= skip[q.series]):
            continue
        taken = 0.0
        for _ in range(q.repeat if tracer is None else 1):
            run = execute(q, tracer, speed)
            timed.append((q, *run))
            taken += run[2]
            if taken >= REPEAT_UNTIL_S:
                break
    if tracer is not None:
        tracer.on = False
    wall = time.perf_counter() - start

    records = []
    for q, t0, t1, seconds, result, error, cut_off in timed:
        verdict = workloads.Verdict(error)
        if error is None and not cut_off:
            try:
                verdict = q.check(result)
            except Exception as exc:  # a malformed output is a failed query
                verdict = workloads.Verdict(f"check raised {type(exc).__name__}: {exc}")
        scaled = seconds * speed.scale(t0, t1)
        missed = tracer is None and (cut_off or scaled > workloads.BUDGET_S)
        records.append(Record(q.qid, q.series, q.level, scaled, verdict.problem,
                              verdict.decided, verdict.certificates, missed, q.reach_only))
    return wall, records


def first_misses(records: List[Record]) -> Dict[str, int]:
    """Per series, the lowest level that missed the budget or failed."""
    out: Dict[str, int] = {}
    for r in records:
        if r.series is not None and (r.missed or r.problem is not None):
            out[r.series] = min(out.get(r.series, r.level), r.level)
    return out


def cap_reach(records: List[Record]) -> int:
    """Sum over series of the deepest level below the series' first miss."""
    levels: Dict[str, set] = {}
    for r in records:
        if r.series is not None:
            levels.setdefault(r.series, set()).add(r.level)
    misses = first_misses(records)
    return sum(max((lv for lv in lvs if lv < misses.get(series, float("inf"))), default=0)
               for series, lvs in levels.items())


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "share"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def layer_metrics(tracer: tracing.Tracer) -> Dict[str, float]:
    calls, incl, extra = tracer.calls, tracer.inclusive, tracer.extra
    out = {f"{layer}.self_s": tracer.self_time[layer] for layer in tracing.LAYERS}
    out.update({
        "kgraph.split_calls": calls["kgraph.KGraph.split"],
        "kgraph.extends_calls": calls["kgraph.KGraph.extends"],
        "kgraph.compose_calls": calls["kgraph.KGraph.compose"],
        "kgraph.paths_up_to_s": incl["kgraph.KGraph.paths_up_to"],
        "kgraph.validate_s": incl["kgraph.validate_kgraph"],
        "textio.parse_s": incl["textio.parse_kgraph_text"],
        "align.universe_s": incl["align.universe"],
        "align.universe_members": extra["universe_members"],
        "align.subsets_classified": calls["align.VertexUniverse.classify"],
        "align.fe_keep_ratio": extra["fe_kept"] / extra["fe_scanned"] if extra["fe_scanned"] else 0.0,
        "align.is_exhaustive_calls": calls["align.is_exhaustive"],
        "align.mce_calls": calls["align.mce"],
        "align.ext_calls": calls["align.ext"],
        "ideals.restricted_fe_s": incl["ideals.restricted_fe_family"],
        "ideals.satiation_closure_calls": calls["ideals.satiation_closure"],
        "ideals.refutations": extra["refutations"],
        "ideals.pair_enumerations": calls["ideals.enumerate_ideal_pairs"],
        "structure.cofinality_s": incl["structure.cofinality_check"],
        "structure.report_s": incl["structure.structure_report"],
        "cli.output_bytes": extra["output_bytes"],
    })
    return out


def install_tracer() -> tracing.Tracer:
    tracer = tracing.Tracer()
    tracer.install()
    seen = weakref.WeakValueDictionary()  # universes already counted, by id

    def universe_built(t, uni):
        if seen.get(id(uni)) is not uni:
            seen[id(uni)] = uni
            t.extra["universe_members"] += len(uni.members)

    def classified(t, _):
        if t.active("align.fe_sets"):
            t.extra["fe_scanned"] += 1

    def fe_kept(t, fam):
        t.extra["fe_kept"] += fam.size()

    def refuted(t, fam):
        t.extra["refutations"] += len(fam.refuted_parents) + len(fam.quotient_refuted)

    def rendered(t, result):
        t.extra["output_bytes"] += len(result[0].encode("utf-8"))

    tracer.on_return("align.universe", universe_built)
    tracer.on_return("align.VertexUniverse.classify", classified)
    tracer.on_return("align.fe_sets", fe_kept)
    tracer.on_return("ideals.restricted_fe_family", refuted)
    tracer.on_return("cli.run_with_status", rendered)
    return tracer


def latencies(records: List[Record]) -> List[float]:
    """Per timed query that kept to the budget, the median of its scaled
    times, sorted.  Misses count only in cap_reach."""
    scaled: Dict[str, List[float]] = {}
    for r in records:
        if not (r.reach_only or r.missed):
            scaled.setdefault(r.qid, []).append(r.scaled)
    return sorted(statistics.median(ts) for ts in scaled.values())


def end_to_end(setups: List[float], records: List[Record], peak_kb: int) -> Dict[str, tuple]:
    lat = latencies(records)
    failed = sum(r.problem is not None for r in records)
    certs = sum(r.certificates for r in records)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(lat), "s"),
        "query_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "query_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "passed_share": (1 - failed / len(records), "share"),
        "decided_share": (sum(r.decided for r in records) / certs if certs else 0.0, "share"),
        "cap_reach": (cap_reach(records), "levels"),
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    tests = os.path.join(root, "tests")
    for needed in (os.path.join(src, "kgraphlat", "__init__.py"), os.path.join(tests, "oracles.py")):
        if not os.path.isfile(needed):
            print(f"perfbench: {needed} is missing; run from the root of a source checkout", file=sys.stderr)
            return 2
    sys.path[:0] = [src, tests]
    make_inputs, make_queries = workloads.WORKLOADS[args.workload]

    speed = probe.Probe()
    speed.start()
    setup_spans = []
    for _ in range(SETUP_REPEATS):
        spent = speed.spent
        t0 = time.perf_counter()
        lib = import_library(src)
        inputs = make_inputs(lib, args.seed)
        t1 = time.perf_counter()
        setup_spans.append((t0, t1, t1 - t0 - (speed.spent - spent)))

    import oracles  # after the last import, so it binds the live package

    with open(REFERENCE, encoding="utf-8") as fh:
        pins = json.load(fh)
    tracer = install_tracer() if args.trace else None

    signal.signal(signal.SIGALRM, _alarm)
    walls: List[float] = []
    records: List[Record] = []
    layers: List[Dict[str, float]] = []
    started = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        wall, recs = run_pass(lib, make_queries, inputs, pins, oracles, tracer, speed, first_misses(records))
        walls.append(wall)
        records.extend(recs)
        if tracer is not None:
            layers.append(layer_metrics(tracer))
        min_passes = 1 if tracer is not None else MIN_PASSES
        if len(walls) >= min_passes and time.perf_counter() - started + wall > args.seconds:
            break
    # a reach-only query may grow memory until the alarm stops it, so the
    # peak is read before them
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is None:
        records.extend(run_pass(lib, make_queries, inputs, pins, oracles, None, speed,
                                first_misses(records), reach=True)[1])
    speed.stop()

    failed = [r for r in records if r.problem is not None]
    for r in failed[:10]:
        print(f"FAILED {r.qid}: {r.problem}", file=sys.stderr)
    if tracer is not None:
        metrics = {name: (statistics.median(run[name] for run in layers), layer_unit(name))
                   for name in layers[0]}
        # compare with wall_s of an untraced run for the tracing overhead
        metrics["trace.wall_s"] = (sum(latencies(records)), "s")
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.write_spans(os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        setups = [raw * speed.scale(t0, t1) for t0, t1, raw in setup_spans]
        metrics = end_to_end(setups, records, peak_kb)

    queries = len(latencies(records))
    reach = len({r.qid for r in records if r.reach_only})
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(walls)} passes, "
          f"{len(records)} query runs, {len(failed)} failed, "
          f"{sum(r.missed for r in records)} over the budget, {reach} reach-only; "
          f"p50/p90 over {queries} timed queries (median of each over the passes); unscaled pass walls "
          f"{', '.join(f'{w:.3f}' for w in walls)} s; host speed probe median "
          f"{statistics.median(speed.loop_s) * 1e3:.3f} ms against {probe.REFERENCE_S * 1e3:.3f} ms")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:32s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # set and frozenset iteration order, and with it every call count,
        # depends on string hashing; fix it so counters repeat across runs
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main(sys.argv[1:]))
