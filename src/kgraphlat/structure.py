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
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from . import degrees
from .align import PathSet, fe_sets, is_exhaustive
from .certify import CertifiedBool, false_certified, true_certified, unknown_at_cap
from .degrees import Degree
from .ideals import enumerate_ideal_pairs
from .kgraph import KGraph, KGraphError, Path, Skeleton, SquareRule, sorted_paths


@dataclass(frozen=True)
class Grading:
    """An integer potential on vertices with d(e) = b(source) - b(range)."""

    b: Tuple[Tuple[str, Tuple[int, ...]], ...]

    def value(self, v: str) -> Tuple[int, ...]:
        return dict(self.b)[v]

    def as_dict(self) -> Dict[str, Tuple[int, ...]]:
        return dict(self.b)


def grading_check(g: KGraph, grading: Grading) -> bool:
    bmap = grading.as_dict()
    if set(bmap) != set(g.vertices):
        return False
    for e in g.edges:
        want = degrees.unit(g.k, e.color)
        if tuple(x - y for x, y in zip(bmap[e.s], bmap[e.r])) != want:
            return False
    return True


def grading_exists(g: KGraph) -> Optional[Grading]:
    """Potential assignment by breadth-first search, zero at the least
    vertex of each undirected component; None iff some cycle has a
    nonzero signed degree sum."""
    b: Dict[str, Tuple[int, ...]] = {}
    nbrs: Dict[str, List[Tuple[str, Tuple[int, ...]]]] = {v: [] for v in g.vertices}
    for e in g.edges:
        d = degrees.unit(g.k, e.color)
        nbrs[e.r].append((e.s, d))
        nbrs[e.s].append((e.r, tuple(-x for x in d)))
    for root in g.vertices:
        if root in b:
            continue
        b[root] = (0,) * g.k
        queue = [root]
        while queue:
            v = queue.pop(0)
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


@dataclass
class SkewWindow:
    """A finite box window of the degree-shifted product graph.

    Vertices are (v, n) for n in the box; the edge (e, n) runs from level
    n at its source down to level n - d(e) at its range, so the canonical
    grading is b(v, n) = n.
    """

    base: KGraph
    lo: Tuple[int, ...]
    hi: Tuple[int, ...]
    graph: KGraph
    grading: Grading

    def vertex(self, v: str, n: Sequence[int]) -> str:
        return _level_id(v, tuple(n))

    def edge(self, e: str, n: Sequence[int]) -> str:
        return _level_id(e, tuple(n))

    def in_window(self, n: Sequence[int]) -> bool:
        return all(l <= x <= h for x, l, h in zip(n, self.lo, self.hi))


def skew_product_window(g: KGraph, lo: Sequence[int], hi: Sequence[int]) -> SkewWindow:
    """Materialize the levels lo..hi (a box, so inherited squares stay
    complete) of the degree-shifted product graph."""
    lo = tuple(int(x) for x in lo)
    hi = tuple(int(x) for x in hi)
    if len(lo) != g.k or len(hi) != g.k or any(l > h for l, h in zip(lo, hi)):
        raise KGraphError(f"bad window bounds lo={lo} hi={hi}")
    levels = list(itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))))
    verts = [_level_id(v, n) for v in g.vertices for n in levels]
    edges = []
    bmap: Dict[str, Tuple[int, ...]] = {}
    for v in g.vertices:
        for n in levels:
            bmap[_level_id(v, n)] = n
    in_window = lambda n: all(l <= x <= h for x, l, h in zip(n, lo, hi))
    for e in g.edges:
        d = degrees.unit(g.k, e.color)
        for n in levels:
            m = tuple(x - y for x, y in zip(n, d))
            if in_window(m):
                edges.append((_level_id(e.eid, n), e.color, _level_id(e.r, m), _level_id(e.s, n)))
    squares = []
    for sq in g.squares:
        f, gg = sq.lhs
        g2, f2 = sq.rhs
        df = degrees.unit(g.k, g.edge(f).color)
        dg = degrees.unit(g.k, g.edge(gg).color)
        for n in levels:
            n_g = n
            n_f = tuple(x - y for x, y in zip(n, dg))
            n_f2 = n
            n_g2 = tuple(x - y for x, y in zip(n, df))
            corner = tuple(x - y - z for x, y, z in zip(n, df, dg))
            if all(in_window(p) for p in (n_f, n_g2, corner)):
                squares.append(
                    SquareRule(
                        (_level_id(f, n_f), _level_id(gg, n_g)),
                        (_level_id(g2, n_g2), _level_id(f2, n_f2)),
                    )
                )
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


@dataclass
class LiftedSet:
    paths: Tuple[Path, ...]
    range_vertex: str
    exhaustive: CertifiedBool


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
    from .align import vee_closure

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


@dataclass(frozen=True)
class BoundaryPrefix:
    path: Path
    status: str  # "extensible" | "terminal" | "unknown"
    depth: Degree


def _definitively_avoids(g: KGraph, lam: Path, pos: Degree, E: PathSet) -> bool:
    """True iff no extension of lam can ever hit a member of E at pos."""
    room = degrees.sub(lam.d, pos)
    for mu in E:
        if not degrees.leq(mu.d, room):
            return False
        if g.segment(lam, pos, degrees.add(pos, mu.d)) == mu:
            return False
    return True


def boundary_prefixes(g: KGraph, v: str, depth: Degree) -> List[BoundaryPrefix]:
    """Capped paths from v not refuted as initial segments of boundary
    paths: no certified exhaustive set at an interior point is avoided
    beyond repair."""
    g.require_vertex(v)
    depth = degrees.check(depth, g.k)
    fams: Dict[str, List[PathSet]] = {}
    for w in g.vertices:
        fams[w] = [E for E, c in fe_sets(g, w, depth).sets_at(w).items() if c.is_true]
    out: List[BoundaryPrefix] = []
    for lam in g.paths_up_to(v, depth):
        refuted = False
        for pos in degrees.below(lam.d):
            w = g.split(lam, pos)[0].s
            for E in fams.get(w, ()):
                if _definitively_avoids(g, lam, pos, E):
                    refuted = True
                    break
            if refuted:
                break
        if refuted:
            continue
        status = "terminal" if not g.edges_at(lam.s) else "extensible"
        out.append(BoundaryPrefix(path=lam, status=status, depth=depth))
    return out


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


def cofinality_check(g: KGraph, cap: Degree) -> CertifiedBool:
    """Certified cofinality: does every vertex reach a point of every
    boundary path?

    False witnesses: either a finite boundary path (a capped path into an
    edge-free vertex; such paths satisfy every exhaustive set vacuously)
    that some vertex cannot reach at any of its points, or a vertex whose
    forward-reachable set is disjoint from that of some start vertex.
    Both replay by exact skeleton reachability.

    True certificate: every vertex reaches every edge-free vertex and
    every cycle vertex; a finite boundary path ends edge-free and an
    infinite one revisits a cycle vertex, so every boundary path is met.
    """
    cap = degrees.check(cap, g.k)
    reach, bit = g.reach_masks(), g.vertex_bits()

    # terminal finite boundary paths, smallest first
    candidates: List[Path] = []
    for v in g.vertices:
        for x in g.paths_up_to(v, cap):
            if not g.edges_at(x.s):
                candidates.append(x)
    candidates.sort(key=Path.sort_key)
    for x in candidates:
        pts = _position_vertices(g, x)
        for w in g.vertices:
            if not pts & reach[w]:
                return false_certified((x, w))
    # start-vertex obstruction: disjoint forward cones
    for v in g.vertices:
        cone = reach[v]
        for w in g.vertices:
            if not cone & reach[w]:
                return false_certified((g.identity(v), w))

    targets = _loop_vertices(g) | sum(bit[t] for t in g.vertices if not g.edges_at(t))
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


@dataclass
class StructureReport:
    cofinal: CertifiedBool
    loops: Dict[str, CertifiedBool]
    all_vertices_reach_loop_with_entrance: CertifiedBool
    lattice_size: int
    assumed_condition_C: bool
    verdicts: Dict[str, str]


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
