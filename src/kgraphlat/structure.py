"""Structural checks: integer gradings, skew-product windows, the
suffix-product closure of a finite path set, boundary prefixes,
cofinality, and loops with an entrance.

Negative certificates here are replayable: a cofinality witness is a
concrete finite boundary path plus a vertex that reaches none of its
points (checked by exact skeleton reachability), and a loop witness is a
concrete (loop, entrance) pair checked against the path arithmetic.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from . import degrees
from .align import is_exhaustive, vee_closure
from .certify import CertifiedBool, false_certified, true_certified, unknown_at_cap
from .degrees import Degree
from .ideals import enumerate_ideal_pairs
from .kgraph import KGraph, KGraphError, Path, Skeleton, SquareRule, sorted_paths
from .record import Record


class Grading(Record, frozen=True):
    """An integer potential on vertices with d(e) = b(source) - b(range)."""

    __slots__ = ("b",)

    def __init__(self, b: Tuple[Tuple[str, Tuple[int, ...]], ...]):
        self.b = b

    def value(self, v: str) -> Tuple[int, ...]:
        return dict(self.b)[v]

    def as_dict(self) -> Dict[str, Tuple[int, ...]]:
        return dict(self.b)


def grading_check(g: KGraph, grading: Grading) -> bool:
    bmap = grading.as_dict()
    if set(bmap) != set(g.vertices):
        return False
    for e in g.edges:
        if e.r not in bmap or e.s not in bmap or not 1 <= e.color <= g.k:
            return False
        want = degrees.unit(g.k, e.color)
        if tuple(x - y for x, y in zip(bmap[e.s], bmap[e.r])) != want:
            return False
    return True


def grading_exists(g: KGraph) -> Optional[Grading]:
    """Potential assignment by breadth-first search, zero at the least
    vertex of each undirected component; None iff some cycle has a
    nonzero signed degree sum.  An edge with an end off the vertex set,
    or a colour out of range, raises KGraphError."""
    b: Dict[str, Tuple[int, ...]] = {}
    nbrs: Dict[str, List[Tuple[str, Tuple[int, ...]]]] = {v: [] for v in g.vertices}
    step = {c: degrees.unit(g.k, c) for c in range(1, g.k + 1)}
    back = {c: tuple(-x for x in d) for c, d in step.items()}
    for e in g.edges:
        if e.r not in nbrs or e.s not in nbrs or e.color not in step:
            raise KGraphError(f"edge {e.eid!r} is dangling: an end off the vertex set or a colour out of range")
        nbrs[e.r].append((e.s, step[e.color]))
        nbrs[e.s].append((e.r, back[e.color]))
    for root in g.vertices:
        if root in b:
            continue
        b[root] = (0,) * g.k
        queue = [root]
        for v in queue:  # a FIFO queue: the loop reads each vertex appended below
            for w, delta in nbrs[v]:
                want = tuple(x + y for x, y in zip(b[v], delta))
                if w not in b:
                    b[w] = want
                    queue.append(w)
                elif b[w] != want:
                    return None
    return Grading(tuple(sorted(b.items())))


# -- skew products over a box window of Z^k ----------------------------------------


def _level_id(base: str, n: Tuple[int, ...]) -> str:
    return f"{base}@{','.join(str(x) for x in n)}"


class SkewWindow(Record):
    """A finite box window of the degree-shifted product graph.

    Vertices are (v, n) for n in the box; the edge (e, n) runs from level
    n at its source down to level n - d(e) at its range, so the canonical
    grading is b(v, n) = n.
    """

    __slots__ = ("base", "lo", "hi", "graph", "grading")

    def __init__(self, base: KGraph, lo: Tuple[int, ...], hi: Tuple[int, ...], graph: KGraph, grading: Grading):
        self.base = base
        self.lo = lo
        self.hi = hi
        self.graph = graph
        self.grading = grading

    def vertex(self, v: str, n: Sequence[int]) -> str:
        return _level_id(v, tuple(n))

    def edge(self, e: str, n: Sequence[int]) -> str:
        return _level_id(e, tuple(n))

    def in_window(self, n: Sequence[int]) -> bool:
        return all(l <= x <= h for x, l, h in zip(n, self.lo, self.hi))


def skew_product_window(g: KGraph, lo: Sequence[int], hi: Sequence[int]) -> SkewWindow:
    """Materialize the levels lo..hi (a box, so inherited squares stay
    complete) of the degree-shifted product graph.  An edge whose colour
    is out of range raises KGraphError."""
    lo = tuple(int(x) for x in lo)
    hi = tuple(int(x) for x in hi)
    if len(lo) != g.k or len(hi) != g.k or any(l > h for l, h in zip(lo, hi)):
        raise KGraphError(f"bad window bounds lo={lo} hi={hi}")
    levels = list(itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))))
    # at[n]: the suffix that _level_id gives level n, built once per level;
    # down[c][n] = n - e_c for the levels whose step down stays in the box
    at = {n: _level_id("", n) for n in levels}
    down = {
        c: {n: n[:c - 1] + (n[c - 1] - 1,) + n[c:] for n in levels if n[c - 1] > lo[c - 1]}
        for c in range(1, g.k + 1)
    }
    bmap: Dict[str, Tuple[int, ...]] = {v + at[n]: n for v in g.vertices for n in levels}
    verts = list(bmap)
    edges = []
    for e in g.edges:
        if not 1 <= e.color <= g.k:
            raise KGraphError(f"edge {e.eid!r} has colour {e.color}, out of range 1..{g.k}")
        for n, m in down[e.color].items():
            edges.append((e.eid + at[n], e.color, e.r + at[m], e.s + at[n]))
    squares = []
    for sq in g.squares:
        f, gg = sq.lhs
        g2, f2 = sq.rhs
        df = down[g.edge(f).color]
        dg = down[g.edge(gg).color]
        for n, n_f in dg.items():  # n_g = n_f2 = n, n_g2 = n - d(f), corner n_f - d(f)
            n_g2 = df.get(n)
            if n_g2 is not None and n_f in df:
                squares.append(SquareRule((f + at[n_f], gg + at[n]), (g2 + at[n_g2], f2 + at[n])))
    graph = KGraph(Skeleton.build(g.k, verts, edges), squares)
    grading = Grading(tuple(sorted(bmap.items())))
    return SkewWindow(base=g, lo=lo, hi=hi, graph=graph, grading=grading)


def lift_path(sw: SkewWindow, p: Path, source_level: Sequence[int]) -> Path:
    """The copy of p whose source sits at the given level."""
    level = tuple(int(x) for x in source_level)
    if not sw.in_window(level):
        raise KGraphError(f"source level {level} outside window")
    lifted: List[str] = []
    lvl = level
    for eid in reversed(p.edges):
        if not sw.in_window(lvl):
            raise KGraphError(f"lift of {p.literal()} leaves the window at {lvl}")
        lifted.append(sw.edge(eid, lvl))
        d = degrees.unit(sw.base.k, sw.base.edge(eid).color)
        lvl = tuple(x - y for x, y in zip(lvl, d))
    if not sw.in_window(lvl):
        raise KGraphError(f"lift of {p.literal()} leaves the window at {lvl}")
    lifted.reverse()
    if not lifted:
        return sw.graph.identity(sw.vertex(p.r, lvl))
    return sw.graph.path(lifted)


class LiftedSet(Record):
    __slots__ = ("paths", "range_vertex", "exhaustive")

    def __init__(self, paths: Tuple[Path, ...], range_vertex: str, exhaustive: CertifiedBool):
        self.paths = paths
        self.range_vertex = range_vertex
        self.exhaustive = exhaustive


def skew_fe_lift(sw: SkewWindow, E: Iterable[Path], n: Sequence[int], cap: Degree) -> LiftedSet:
    """Shift an exhaustive-set candidate to range level n inside the window.

    The exhaustiveness recheck runs inside the window headroom above n,
    which holds the clipped cap and every member degree (each source
    level lies in the window), so a truncation never fabricates a refutation."""
    E = sorted_paths(E)
    if not E:
        raise KGraphError("cannot lift an empty set")
    n = tuple(int(x) for x in n)
    lifted = sorted_paths(
        lift_path(sw, p, tuple(a + b for a, b in zip(n, p.d))) for p in E
    )
    headroom = tuple(h - x for h, x in zip(sw.hi, n))
    check_cap = degrees.meet(degrees.check(cap, sw.base.k), headroom)
    cert = is_exhaustive(sw.graph, lifted, check_cap)
    return LiftedSet(paths=lifted, range_vertex=lifted[0].r, exhaustive=cert)


# -- suffix-product closure of a finite set (finite under a grading) ----------------


def m_closure(g: KGraph, grading: Grading, E: Iterable[Path]) -> Tuple[Path, ...]:
    """Composable products of one full member of the pairwise-extension
    closure of E followed by suffixes of members; finite whenever the
    graph is graded (potentials strictly increase along factors)."""
    if grading is None:
        raise KGraphError("no grading supplied; the closure may be infinite")
    if not grading_check(g, grading):
        raise KGraphError("grading does not match the graph")
    vee = vee_closure(g, E)
    suffixes: List[Path] = []
    for lam in vee:
        for m in degrees.below(lam.d):
            suffixes.append(g.split(lam, m)[1])
    suffixes = list(sorted_paths(suffixes))
    cur: Set[Path] = set(vee)
    frontier = list(cur)
    while frontier:
        new = []
        for tau in frontier:
            for sig in suffixes:
                if tau.s == sig.r and not sig.is_vertex:
                    prod = g.compose(tau, sig)
                    if prod not in cur:
                        cur.add(prod)
                        new.append(prod)
        frontier = new
    return sorted_paths(cur)


def m_closure_iterated(g: KGraph, grading: Grading, E: Iterable[Path]) -> Tuple[Path, ...]:
    """Iterate the suffix-product closure to its fixed point."""
    cur = sorted_paths(E)
    while True:
        nxt = m_closure(g, grading, cur)
        if nxt == cur:
            return cur
        cur = nxt


# -- boundary prefixes ------------------------------------------------------------


class BoundaryPrefix(Record, frozen=True):
    __slots__ = ("path", "status", "depth")

    def __init__(self, path: Path, status: str, depth: Degree):
        self.path = path
        self.status = status  # "extensible" | "terminal"
        self.depth = depth


def boundary_prefixes(g: KGraph, v: str, depth: Degree) -> List[BoundaryPrefix]:
    """Every capped path from v, with its status.  No certified exhaustive
    set E at a point of a path refutes it: were the path's rest sigma there
    to fit and extend no member mu, a common extension, of degree
    d(sigma) v d(mu) = d(sigma), would be sigma; so sigma would refute E."""
    g.require_vertex(v)
    depth = degrees.check(depth, g.k)
    return [BoundaryPrefix(lam, "extensible" if g.edges_at(lam.s) else "terminal", depth)
            for lam in g.paths_up_to(v, depth)]


# -- cofinality ---------------------------------------------------------------------


def _loop_vertices(g: KGraph) -> int:
    """The vertex mask of the vertices lying on a directed cycle of the
    skeleton: those that reach themselves again through one of their edges."""
    reach, bit = g.reach_masks(), g.vertex_bits()
    out = 0
    for e in g.edges:
        b = bit.get(e.r, 0)
        if reach.get(e.s, 0) & b:
            out |= b
    return out


def _position_vertices(g: KGraph, x: Path) -> int:
    """The vertex mask of the points of x; a point off the vertex set (an
    unvalidated graph) is reached by no vertex, so it adds no bit."""
    bit = g.vertex_bits()
    out = 0
    for m in degrees.below(x.d):
        out |= bit.get(g.split(x, m)[0].s, 0)
    return out


def _disjoint_cones(g: KGraph, reach: Dict[str, int]) -> Tuple[str, str]:
    """The first pair (v, w), in vertex order, whose forward cones are
    disjoint, when no vertex lies in every cone; such a pair then exists.
    Every vertex reaches a sink component of the reach order (a strongly
    connected component that reaches no other), and the cone of a vertex
    in a sink component is that component.  A lone sink component would
    lie in every cone, so there are two, and their cones are disjoint."""
    return next((v, w) for v in g.vertices for w in g.vertices if not reach[v] & reach[w])


def cofinality_check(g: KGraph, cap: Degree) -> CertifiedBool:
    """Certified cofinality: does every vertex reach a point of every
    boundary path?

    False witnesses: either a finite boundary path (a capped path into an
    edge-free vertex; such paths satisfy every exhaustive set vacuously)
    that some vertex cannot reach at any of its points, or a vertex whose
    forward-reachable set is disjoint from that of some start vertex.
    Both replay by exact skeleton reachability.

    Intersection rule: if one vertex lies in every forward cone, every two
    cones meet, so no start vertex has a disjoint partner and the pairwise
    cone scan is skipped.  Otherwise the scan runs in vertex order and
    its witness is the first disjoint pair.

    True certificate: every vertex reaches every edge-free vertex and
    every cycle vertex; a finite boundary path ends edge-free and an
    infinite one revisits a cycle vertex, so every boundary path is met.
    """
    cap = degrees.check(cap, g.k)
    reach, bit = g.reach_masks(), g.vertex_bits()
    # a source off the vertex set (an unvalidated graph) receives no edge
    receiving = {v for v in g.vertices if g.edges_at(v)}

    # terminal finite boundary paths, smallest first
    candidates: List[Path] = []
    for v in g.vertices:
        for x in g.paths_up_to(v, cap):
            if x.s not in receiving:
                candidates.append(x)
    candidates.sort(key=Path.sort_key)
    for x in candidates:
        pts = _position_vertices(g, x)
        for w in g.vertices:
            if not pts & reach[w]:
                return false_certified((x, w))
    # start-vertex obstruction: disjoint forward cones
    meet = -1
    for cone in reach.values():
        meet &= cone
    if not meet:
        v, w = _disjoint_cones(g, reach)
        return false_certified((g.identity(v), w))

    targets = _loop_vertices(g) | sum(bit[t] for t in g.vertices if t not in receiving)
    if all(reach[w] & targets == targets for w in g.vertices):
        return true_certified()
    return unknown_at_cap(cap)


# -- loops with an entrance -----------------------------------------------------------


def _entrance_for(g: KGraph, z: str, mu: Path) -> Optional[Path]:
    for n in degrees.below(mu.d):
        if sum(n) == 0:
            continue
        cands = g._paths_of_degree(z, n)
        if len(cands) >= 2:
            pref = g.prefix(mu, n)
            for alpha in cands:
                if alpha != pref:
                    return alpha
    return None


def _deterministic_colors(g: KGraph) -> bool:
    seen = set()
    for e in g.edges:
        key = (e.r, e.color)
        if key in seen:
            return False
        seen.add(key)
    return True


def find_loop_with_entrance(g: KGraph, cap: Degree) -> Dict[str, CertifiedBool]:
    """Per vertex: a certified (loop, entrance) witness reachable from it,
    or a certified impossibility, or unknown at the cap.

    Complete negatives: an acyclic skeleton has no loops at all; if no
    vertex repeats a (range, color) pair then paths are unique per degree
    and no entrance can disagree; for k = 1 a loop with an entrance
    exists iff some cycle vertex reaches a branch vertex, decided exactly.
    """
    cap = degrees.check(cap, g.k)
    reach, bit = g.reach_masks(), g.vertex_bits()
    loopers = _loop_vertices(g)

    witnesses: Dict[str, Tuple[Path, Path]] = {}
    for z in g.vertices:
        if not loopers & bit[z]:
            continue
        found = None
        for mu in g.paths_up_to(z, cap):
            if mu.is_vertex or mu.s != z:
                continue
            alpha = _entrance_for(g, z, mu)
            if alpha is not None:
                found = (mu, alpha)
                break
        if found:
            witnesses[z] = found

    out: Dict[str, CertifiedBool] = {}
    acyclic = not loopers
    deterministic = _deterministic_colors(g)
    # masks of distinct vertices: the sum of their bits is their union
    witnessed = sum(bit[z] for z in witnesses)
    # k = 1: the cycle vertices that reach a vertex with out-degree >= 2
    branchy = sum(bit[u] for u in g.vertices if len(g.edges_at(u)) >= 2)
    qualifying = sum(bit[z] for z in g.vertices if loopers & bit[z] and reach[z] & branchy)
    for v in g.vertices:
        hit = reach[v] & witnessed
        if hit:
            # the lowest bit is the first witnessed vertex in vertex order
            mu, alpha = witnesses[g.vertices[(hit & -hit).bit_length() - 1]]
            out[v] = true_certified((mu, alpha))
            continue
        if acyclic:
            out[v] = false_certified(("acyclic-skeleton",))
        elif deterministic:
            out[v] = false_certified(("degree-deterministic",))
        elif g.k == 1:
            # exact: a qualifying loop exists iff a cycle vertex reachable
            # from v also reaches a vertex with out-degree >= 2
            if reach[v] & qualifying:
                out[v] = unknown_at_cap(cap)  # witness exists beyond cap
            else:
                out[v] = false_certified(("k1-cycle-analysis",))
        else:
            out[v] = unknown_at_cap(cap)
    return out


# -- assembled report -----------------------------------------------------------------


class StructureReport(Record):
    __slots__ = ("cofinal", "loops", "all_vertices_reach_loop_with_entrance", "lattice_size",
                 "assumed_condition_C", "verdicts")

    def __init__(self, cofinal: CertifiedBool, loops: Dict[str, CertifiedBool],
                 all_vertices_reach_loop_with_entrance: CertifiedBool, lattice_size: int,
                 assumed_condition_C: bool, verdicts: Dict[str, str]):
        self.cofinal = cofinal
        self.loops = loops
        self.all_vertices_reach_loop_with_entrance = all_vertices_reach_loop_with_entrance
        self.lattice_size = lattice_size
        self.assumed_condition_C = assumed_condition_C
        self.verdicts = verdicts


def structure_report(g: KGraph, cap: Degree, assumed_condition_C: bool) -> StructureReport:
    """Assemble the conditional classification verdicts.

    Verdicts never claim more certainty than their inputs: the uniqueness
    hypothesis (condition (C)) is asserted by the caller, never computed,
    and every positive verdict stays explicitly conditional on it.  A
    certified cofinality failure refutes simplicity outright.
    """
    cap = degrees.check(cap, g.k)
    cofinal = cofinality_check(g, cap)
    loops = find_loop_with_entrance(g, cap)
    falses = sorted(v for v, c in loops.items() if c.is_false)
    if all(c.is_true for c in loops.values()):
        agg = true_certified({v: c.witness for v, c in loops.items()})
    elif falses:
        agg = false_certified(falses[0])
    else:
        agg = unknown_at_cap(cap)
    size = len(enumerate_ideal_pairs(g, cap))

    def simple_verdict() -> str:
        if cofinal.is_false:
            return "no"
        if not assumed_condition_C:
            return "not_evaluated"
        if cofinal.is_true:
            return "yes_conditional_on_C"
        return "unknown_at_cap"

    def pi_verdict() -> str:
        if not assumed_condition_C:
            return "not_evaluated"
        if cofinal.is_true and agg.is_true:
            return "yes_conditional_on_C"
        if cofinal.is_false:
            return "not_established"
        return "unknown_at_cap" if (cofinal.is_unknown or agg.is_unknown) else "not_established"

    simple = simple_verdict()
    pi = pi_verdict()
    if simple == "yes_conditional_on_C" and pi == "yes_conditional_on_C":
        kp = "yes_conditional_on_C"
    elif simple == "no":
        kp = "no"
    elif simple == "not_evaluated" or pi == "not_evaluated":
        kp = "not_evaluated"
    else:
        kp = "unknown_at_cap" if "unknown" in (simple, pi) else "not_established"
    return StructureReport(
        cofinal=cofinal,
        loops=loops,
        all_vertices_reach_loop_with_entrance=agg,
        lattice_size=size,
        assumed_condition_C=assumed_condition_C,
        verdicts={"simple": simple, "purely_infinite": pi, "kp_candidate": kp},
    )
