"""The benchmark's three workloads.

Each workload has `make_inputs(lib, seed)`, which generates every input as
text before timing starts, and `queries(lib, inputs, pins, oracles)`, which
yields the fixed query list of one pass.  A query's `run` is timed; its `check` runs
after the pass, outside the timing, and compares the output with its
reference.  `lib` is the freshly imported package (see run.py).

Why each workload is built the way it is, and which inputs are kept out,
is recorded in perfbench/NOTES.md.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

# Per-query time budget for cap reach (ROADMAP: "within a fixed time budget").
BUDGET_S = 10.0


@dataclass
class Verdict:
    problem: Optional[str]
    decided: int = 0
    certificates: int = 0


@dataclass
class Query:
    qid: str
    series: Optional[str]  # cap-reach series, None for a spot check
    level: int  # cap level of the query within its series
    run: Callable[[], object]
    check: Callable[[object], Verdict]
    repeat: int = 1  # runs per pass for a quick query (see run.run_pass)
    # A reach-only query lies beyond the budget today and feeds cap_reach
    # alone: it runs once, after the timed passes, and never counts in the
    # latency metrics, so bringing it under the budget cannot raise wall_s.
    reach_only: bool = False


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- CLI queries (lattice-deep and fuzz-sweep) -------------------------------------


def cli_query(lib, qid: str, series, level: int, text: str, command: str, cap, pins,
              expect: Callable[[dict], Optional[str]] = lambda doc: None, repeat: int = 1,
              reach_only: bool = False) -> Query:
    """A CLI run on fresh text: parse, run the command, render JSON."""
    config = lib.cli.RunConfig(command=command, cap=cap, assumed_condition_C=command == "report")

    def run():
        return lib.cli.run_with_status(lib.textio.parse_kgraph_text(text), config)

    def check(result) -> Verdict:
        out, code = result
        doc = json.loads(out)
        statuses = [c["status"] for c in doc["certificates"]]
        if code != 0:
            problem = f"exit code {code}"
        elif pins.get(qid) != sha256(out):
            problem = "output differs from its pinned SHA-256"
        else:
            problem = expect(doc["result"])
        return Verdict(problem, sum(s != "unknown_at_cap" for s in statuses), len(statuses))

    return Query(qid, series, level, run, check, repeat, reach_only)


def lattice_shape(nodes: List[List[str]], hasse: List[List[int]]):
    def expect(result) -> Optional[str]:
        got_nodes = [n["H"] for n in result["nodes"]]
        if got_nodes != nodes or any(n["B"] for n in result["nodes"]):
            return f"lattice nodes {got_nodes} != {nodes}"
        if result["hasse"] != hasse:
            return f"hasse {result['hasse']} != {hasse}"
        return None

    return expect


# -- lattice-deep ----------------------------------------------------------------------

CHAIN = [[0, 1]]
# Acceptance criterion 1 shapes; they hold at every cap climbed here.
FIXTURE_SHAPES = {
    "FX1": lattice_shape([[], ["u", "v"]], CHAIN),
    "FX2": lattice_shape([[], ["v"]], CHAIN),
    "FX4": lattice_shape([[], ["u"], ["w"], ["u", "v", "w"]], [[0, 1], [0, 2], [1, 3], [2, 3]]),
    "FX6": lattice_shape([[], ["v"]], CHAIN),
}
# (fixture, levels), in run order: FX6 and FX2 climb their caps, FX4 and FX1
# are spot checks at the deepest level.  FX2 (4,4) and FX6 (4,) are refused
# by MAX_FE_MEMBERS.
LATTICE_SERIES = (("FX6", (1, 2, 3)), ("FX4", (3,)), ("FX1", (3,)), ("FX2", (1, 2, 3)))
# FX2 at (3,3) takes 12-20 s, over the budget: it only tells cap_reach
# whether the series has climbed another level.
LATTICE_REACH_ONLY = {("FX2", 3)}
# Seven timed queries give few latency samples; the quick ones (up to 40 ms)
# are run several times per pass so the median query is measured steadily.
LATTICE_REPEAT = 20


def lattice_inputs(lib, seed: int, series=LATTICE_SERIES):
    """Fixture texts in a fixed order.

    The fixtures are the input, so the seed changes nothing.  Shuffling the
    series by seed was tried: the order alone moved the median query by 10 %.
    """
    return [(name, levels, lib.textio.FIXTURE_TEXTS[name]) for name, levels in series]


def lattice_queries(lib, inputs, pins, oracles) -> Iterator[Query]:
    for name, levels, text in inputs:
        k = int(text.split()[1])  # the "kgraph <k>" header
        climbed = len(levels) > 1
        for level in levels:
            yield cli_query(lib, f"lattice-deep/{name}/lattice/{level}", name if climbed else None,
                            level, text, "lattice", (level,) * k, pins, FIXTURE_SHAPES[name],
                            repeat=LATTICE_REPEAT, reach_only=(name, level) in LATTICE_REACH_ONLY)


# -- fuzz-sweep ------------------------------------------------------------------------

FUZZ_GRAPHS = 100  # per rank


def fuzz_graph_seeds(lib, count: int = FUZZ_GRAPHS) -> Dict[int, List[Tuple[int, str]]]:
    """(graph seed, text) per rank: the first `count` seeds that draw.

    random_2graph redraws internally and raises when no tractable graph
    turns up; such seeds are skipped, deterministically.
    """
    out = {1: [(s, lib.textio.emit_kgraph_text(lib.randomgraphs.random_1graph(s))) for s in range(count)]}
    k2: List[Tuple[int, str]] = []
    for s in itertools.count():
        if len(k2) == count:
            break
        try:
            g = lib.randomgraphs.random_2graph(s)
        except RuntimeError:
            continue
        k2.append((s, lib.textio.emit_kgraph_text(g)))
    out[2] = k2
    return out


def fuzz_inputs(lib, seed: int, count: int = FUZZ_GRAPHS):
    """All 2 x count graphs with both commands; the seed sets the query order."""
    graphs = fuzz_graph_seeds(lib, count)
    jobs = [(k, s, text, cmd) for k in (1, 2) for s, text in graphs[k] for cmd in ("lattice", "report")]
    random.Random(f"fuzz-sweep:{seed}").shuffle(jobs)
    return jobs


def k1_expectation(lib, oracles, text: str, command: str):
    """Rank-1 reference: the classical saturated hereditary sets."""

    def expect(result) -> Optional[str]:
        g = lib.textio.parse_kgraph_text(text).graph
        want = sorted((sorted(S) for S in oracles.k1_sat_hered_sets(g)), key=lambda s: (len(s), s))
        if command == "report":
            if result["lattice_size"] != len(want):
                return f"lattice_size {result['lattice_size']} != {len(want)}"
            return None
        got = [n["H"] for n in result["nodes"]]
        if got != want or any(n["B"] for n in result["nodes"]):
            return f"rank-1 lattice {got} != classical {want}"
        return None

    return expect


def fuzz_queries(lib, inputs, pins, oracles) -> Iterator[Query]:
    for k, s, text, cmd in inputs:
        expect = k1_expectation(lib, oracles, text, cmd) if k == 1 else (lambda result: None)
        yield cli_query(lib, f"fuzz-sweep/k{k}/{s}/{cmd}", f"k{k}", 1, text, cmd, (1,) * k, pins, expect)


# -- path-algebra ----------------------------------------------------------------------

PAIRS_PER_VERTEX = 40
CHECK_EVERY = 20  # oracle-check the first pair at every 20th vertex


def product_text(lib, texts: List[str]) -> str:
    """Text of the cartesian product of rank-1 graphs (factor i gives color i + 1).

    Squares pair an edge of one factor with an edge of another: a·b in one
    color order equals the copies of b then a in the other.
    """
    graphs = [lib.textio.parse_kgraph_text(t).graph for t in texts]
    if any(g.k != 1 for g in graphs):
        raise ValueError("product_text takes rank-1 factors")
    vid = "_".join
    lines = [f"kgraph {len(graphs)}"]
    verts = list(itertools.product(*(g.vertices for g in graphs)))
    lines += [f"vertex {vid(v)}" for v in verts]
    edges = {}
    for v in verts:
        for i, g in enumerate(graphs):
            for e in g.edges_at(v[i]):
                s = v[:i] + (e.s,) + v[i + 1:]
                eid = f"{e.eid}c{i + 1}_{vid(v)}"
                edges[eid] = (i, e, v, s)
                lines.append(f"edge {eid} : {i + 1} {vid(v)} <- {vid(s)}")
    by_range: Dict[tuple, List[str]] = {}
    for eid, (_, _, r, _) in edges.items():
        by_range.setdefault(r, []).append(eid)
    for a in sorted(edges):
        i, ea, x, y = edges[a]
        for b in sorted(by_range.get(y, ())):
            j, eb, _, _ = edges[b]
            if j >= i:
                continue  # one rule per square; the parser adds the reverse
            yp = x[:j] + (eb.s,) + x[j + 1:]
            lines.append(f"square {a} {b} ~ {eb.eid}c{j + 1}_{vid(x)} {ea.eid}c{i + 1}_{vid(yp)}")
    return "\n".join(lines) + "\n"


@dataclass
class Window:
    name: str
    text: str
    k: int
    radius: int
    cap: Tuple[int, ...]
    loops_per_color: Tuple[int, ...]  # the base graph has one vertex
    shape: Tuple[int, int, int]  # vertices, edges, squares
    pair_draws: List[List[Tuple[int, int]]]


def path_inputs(lib, seed: int, fx2_radius: int = 10, fx6_radius: int = 3) -> List[Window]:
    rng = random.Random(f"path-algebra:{seed}")
    fx6_cubed = lib.textio.parse_kgraph_text(product_text(lib, [lib.textio.FIXTURE_TEXTS["FX6"]] * 3)).graph
    specs = (("FX2", lib.textio.fixture("FX2"), fx2_radius, (2, 2)),
             ("FX6^3", fx6_cubed, fx6_radius, (1, 1, 1)))
    out = []
    for name, base, radius, cap in specs:
        sw = lib.structure.skew_product_window(base, (-radius,) * base.k, (radius,) * base.k)
        g = sw.graph
        loops = tuple(sum(e.color == c for e in base.edges) for c in range(1, base.k + 1))
        draws = [[(rng.getrandbits(30), rng.getrandbits(30)) for _ in range(PAIRS_PER_VERTEX)]
                 for _ in g.vertices]
        out.append(Window(name, lib.textio.emit_kgraph_text(g), base.k, radius, cap, loops,
                          (len(g.vertices), len(g.edges), len(g.squares)), draws))
    return out


def level_of(vertex: str) -> Tuple[int, ...]:
    return tuple(int(x) for x in vertex.split("@", 1)[1].split(","))


def expected_path_count(w: Window, vertex: str) -> int:
    """Paths at a window vertex with degree <= cap whose source stays inside.

    The base graph has one vertex, so a degree n has prod(loops_c ** n_c)
    paths, and a path of degree n from level m has its source at m + n.
    """
    m = level_of(vertex)
    total = 0
    for n in itertools.product(*(range(c + 1) for c in w.cap)):
        if all(mi + ni <= w.radius for mi, ni in zip(m, n)):
            count = 1
            for loops, ni in zip(w.loops_per_color, n):
                count *= loops ** ni
            total += count
    return total


def path_queries(lib, inputs: List[Window], pins, oracles) -> Iterator[Query]:
    for w in inputs:
        yield from window_queries(lib, w, oracles)


def window_queries(lib, w: Window, oracles) -> Iterator[Query]:
    """Parse the window once, then query its one growing memo."""
    align, structure = lib.align, lib.structure
    held = {}

    def parse():
        doc = lib.textio.parse_kgraph_text(w.text)
        held["g"] = doc.graph
        return doc.report.ok, (len(doc.graph.vertices), len(doc.graph.edges), len(doc.graph.squares))

    def check_parse(result):
        ok, shape = result
        return Verdict(None if ok and shape == w.shape else f"window {w.name}: valid={ok} shape={shape}")

    level = max(w.cap)
    yield Query(f"path-algebra/{w.name}/parse", w.name, level, parse, check_parse)
    if "g" not in held:
        return  # the parse failed; the rest of the window is not attempted
    g = held["g"]
    for i, v in enumerate(g.vertices):

        def vertex_query(v=v, draws=w.pair_draws[i], sampled=i % CHECK_EVERY == 0):
            paths = g.paths_up_to(v, w.cap)
            n = len(paths)
            kept = None
            for a, b in draws:
                mu, nu = paths[a % n], paths[b % n]
                tau = align.mce(g, mu, nu)
                beta = align.ext(g, mu, (nu,))
                if kept is None:
                    kept = (mu, nu, tau, beta)
            return n, (kept if sampled else None)

        def check_vertex(result, v=v):
            n, kept = result
            want = expected_path_count(w, v)
            if n != want:
                return Verdict(f"{v}: {n} paths up to cap, expected {want}")
            if kept is not None:
                mu, nu, tau, beta = kept
                if set(tau) != set(oracles.oracle_mce(g, mu, nu)):
                    return Verdict(f"{v}: mce({mu}, {nu}) differs from oracle_mce")
                want_ext = {rest for t in tau for pre, rest in oracles.oracle_factorizations(g, t, mu.d)
                            if pre == mu}
                if set(beta) != want_ext:
                    return Verdict(f"{v}: ext({mu}, {{{nu}}}) differs from the factorization scan")
            return Verdict(None)

        yield Query(f"path-algebra/{w.name}/vertex/{v}", w.name, level, vertex_query, check_vertex)

    def check_grading(grading):
        if grading is None:
            return Verdict(f"window {w.name}: no grading found")
        b = grading.as_dict()
        for e in g.edges:
            step = tuple(int(c == e.color) for c in range(1, w.k + 1))
            if tuple(x - y for x, y in zip(b[e.s], b[e.r])) != step:
                return Verdict(f"window {w.name}: grading fails on edge {e.eid}")
        return Verdict(None)

    def check_cofinal(cert):
        # the window is acyclic and every vertex reaches its top corner
        problem = None if cert.is_true else f"window {w.name}: cofinality {cert}"
        return Verdict(problem, int(cert.decided), 1)

    def check_loops(certs):
        # acyclic, so no vertex reaches a loop
        bad = [v for v, c in certs.items() if not c.is_false]
        problem = None
        if bad or len(certs) != len(g.vertices):
            problem = f"window {w.name}: {len(certs)} answers, a loop claimed at {bad[:3]}"
        return Verdict(problem, sum(c.decided for c in certs.values()), len(certs))

    for what, run, check in (
        ("grading", lambda: structure.grading_exists(g), check_grading),
        ("cofinal", lambda: structure.cofinality_check(g, w.cap), check_cofinal),
        ("loops", lambda: structure.find_loop_with_entrance(g, w.cap), check_loops),
    ):
        yield Query(f"path-algebra/{w.name}/{what}", w.name, level, run, check)


# name -> (make_inputs(lib, seed), queries(lib, inputs, pins, oracles))
WORKLOADS = {
    "lattice-deep": (lattice_inputs, lattice_queries),
    "fuzz-sweep": (fuzz_inputs, fuzz_queries),
    "path-algebra": (path_inputs, path_queries),
}
