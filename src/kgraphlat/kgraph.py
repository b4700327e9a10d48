"""Finitely presented higher-rank graphs and their path arithmetic.

A rank-k graph is presented by a k-colored skeleton together with a
complete collection of commuting squares: for every composable pair of
edges of distinct colors there is exactly one way to traverse the same
morphism in the opposite color order.  For k >= 3 the squares must also
satisfy the cube condition (the two ways of fully reversing a tricolored
triple agree), which makes the induced rewriting confluent.

Morphisms ("paths") are kept in a canonical normal form: the edge
sequence sorted by ascending color, computed by bubble-sorting with the
square rules.  Two edge sequences denote the same morphism iff they
normalize identically, so paths can live in sets and dicts.  A Path is
the 4-tuple (r, s, d, edges): it hashes as that tuple, equals a plain
tuple of the same fields, and is ordered canonically only through
Path.sort_key.

Composition convention: in ``p = compose(q, t)`` the range of p is the
range of q and the source of q is the range of t; edge sequences read
from the range end toward the source end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Sequence, Tuple

from . import degrees
from .degrees import Degree


class KGraphError(ValueError):
    """Base class for graph/path domain errors."""


class NonComposableError(KGraphError):
    pass


class SegmentBoundsError(KGraphError):
    pass


class MissingSquareError(KGraphError):
    """Raised when normalization needs a square the presentation lacks."""


def _no_square(a: str, b: str) -> MissingSquareError:
    return MissingSquareError(f"no square for composable pair {a}∘{b}")


@dataclass(frozen=True)
class Edge:
    eid: str
    color: int
    r: str
    s: str


@dataclass(frozen=True)
class Skeleton:
    k: int
    vertices: Tuple[str, ...]
    edges: Tuple[Edge, ...]

    @staticmethod
    def build(k: int, vertices: Iterable[str], edges: Iterable[Tuple[str, int, str, str]]) -> "Skeleton":
        if k < 1:
            raise KGraphError(f"rank must be >= 1, got {k}")
        vs = tuple(sorted(set(vertices)))
        es = []
        seen = set()
        for eid, color, r, s in edges:
            if eid in seen:
                raise KGraphError(f"duplicate edge id {eid!r}")
            if eid in vs:
                raise KGraphError(f"edge id {eid!r} collides with a vertex id")
            seen.add(eid)
            es.append(Edge(eid, int(color), r, s))
        es.sort(key=lambda e: e.eid)
        return Skeleton(k, vs, tuple(es))


@dataclass(frozen=True)
class SquareRule:
    """Asserts f∘g = g2∘f2 for bicolored composable edge pairs."""

    lhs: Tuple[str, str]
    rhs: Tuple[str, str]

    def key(self):
        return (self.lhs, self.rhs)


class Path(NamedTuple):
    """A morphism in color-ascending normal form.

    ``edges`` reads from the range end to the source end; ``d`` is the
    color multiset of the edge sequence.  Degree-0 paths are vertices.

    A Path is the 4-tuple (r, s, d, edges), immutable, so hashing,
    equality and construction run at tuple speed.  Its hash is
    hash((r, s, d, edges)), and it equals a plain tuple of the same
    fields; tuple order is not the canonical order, which is sort_key's.
    """

    r: str
    s: str
    d: Degree
    edges: Tuple[str, ...]

    @property
    def is_vertex(self) -> bool:
        return not self.edges

    def sort_key(self):
        return (sum(self.d), self.d, self.edges, self.r)

    def literal(self) -> str:
        return self.r if self.is_vertex else ".".join(self.edges)

    def __repr__(self):
        return f"<{self.literal()}:{self.r}<-{self.s}|{degrees.fmt(self.d)}>"


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: Tuple[Tuple[str, Tuple[str, ...]], ...]


def sorted_paths(paths: Iterable[Path]) -> Tuple[Path, ...]:
    return tuple(sorted(set(paths), key=Path.sort_key))


class KGraph:
    """A k-colored skeleton plus its commuting-square presentation.

    Instances are immutable values (internal caches only memoize pure
    derived data), so they are safe to share and to use as dict keys.
    """

    def __init__(self, skeleton: Skeleton, squares: Iterable[SquareRule]):
        self.skeleton = skeleton
        self.squares = tuple(sorted(set(squares), key=SquareRule.key))
        self._edge: Dict[str, Edge] = {e.eid: e for e in skeleton.edges}
        self._color: Dict[str, int] = {e.eid: e.color for e in skeleton.edges}
        self._vset: FrozenSet[str] = frozenset(skeleton.vertices)
        # edges_at[v][c]: edges of color c with range v, sorted by id
        self._edges_at: Dict[str, Dict[int, List[Edge]]] = {
            v: {c: [] for c in range(1, skeleton.k + 1)} for v in skeleton.vertices
        }
        for e in skeleton.edges:
            if e.r in self._edges_at and 1 <= e.color <= skeleton.k:
                self._edges_at[e.r][e.color].append(e)
        # swap[(a, b)] = (b', a'): the opposite-order traversal of a∘b
        # (of two conflicting rules the last wins; validate_kgraph reports
        # them).  Only a rule that reverses the two colours enters: any
        # other would let a normal form swap a pair forever
        color = self._color
        self._swap: Dict[Tuple[str, str], Tuple[str, str]] = {}
        for rule in self.squares:
            f, g = rule.lhs
            g2, f2 = rule.rhs
            if all(x in color for x in (f, g, g2, f2)) and color[f] == color[f2] != color[g] == color[g2]:
                self._swap[(f, g)] = (g2, f2)
                self._swap[(g2, f2)] = (f, g)
        self._cache: Dict = {}

    # -- identity & hashing ------------------------------------------------

    @property
    def k(self) -> int:
        return self.skeleton.k

    @property
    def vertices(self) -> Tuple[str, ...]:
        return self.skeleton.vertices

    @property
    def edges(self) -> Tuple[Edge, ...]:
        return self.skeleton.edges

    def cache_key(self):
        return self.memo("key", lambda: (
            self.skeleton.k,
            self.skeleton.vertices,
            tuple((e.eid, e.color, e.r, e.s) for e in self.skeleton.edges),
            tuple(sq.key() for sq in self.squares),
        ))

    def __eq__(self, other):
        return isinstance(other, KGraph) and self.cache_key() == other.cache_key()

    def __hash__(self):
        return hash(self.cache_key())

    def memo(self, key, build: Callable[..., Any], *args):
        """The derived value stored under key, computed as build(*args) on
        first use; the one cache of values derived from this graph."""
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = build(*args)
        return hit

    # -- basic accessors ----------------------------------------------------

    def has_vertex(self, v: str) -> bool:
        return v in self._vset

    def require_vertex(self, v: str) -> None:
        if v not in self._vset:
            raise KGraphError(f"unknown vertex {v!r}")

    def edge(self, eid: str) -> Edge:
        try:
            return self._edge[eid]
        except KeyError:
            raise KGraphError(f"unknown edge {eid!r}") from None

    def edges_at(self, v: str) -> List[Edge]:
        """All edges with range v, sorted by (color, id)."""
        per = self._edges_at.get(v, {})
        return [e for c in sorted(per) for e in per[c]]

    def identity(self, v: str) -> Path:
        self.require_vertex(v)
        return Path(v, v, degrees.zero(self.k), ())

    # -- normal forms --------------------------------------------------------

    def _chain_ok(self, seq: Sequence[str]) -> bool:
        return all(self._edge[a].s == self._edge[b].r for a, b in zip(seq, seq[1:]))

    def _swap_at(self, seq: List[str], i: int) -> None:
        try:
            seq[i], seq[i + 1] = self._swap[seq[i], seq[i + 1]]
        except KeyError:
            raise _no_square(seq[i], seq[i + 1]) from None

    def _normalize(self, seq: Sequence[str]) -> Tuple[str, ...]:
        color = self._color
        cs = [color[x] for x in seq]
        if cs == sorted(cs):  # already colour-ascending: no square is read
            return tuple(seq)
        e = list(seq)
        swapped = True
        while swapped:
            swapped = False
            for i in range(len(e) - 1):
                if color[e[i]] > color[e[i + 1]]:
                    self._swap_at(e, i)
                    swapped = True
        return tuple(e)

    def path(self, edge_ids: Sequence[str]) -> Path:
        """Build the normal-form path for a nonempty edge sequence."""
        if not edge_ids:
            raise KGraphError("empty path needs a vertex")
        for eid in edge_ids:
            self.edge(eid)
        if not self._chain_ok(edge_ids):
            raise NonComposableError(f"edge sequence {list(edge_ids)} is not composable")
        d = [0] * self.k
        for eid in edge_ids:
            d[self._color[eid] - 1] += 1
        norm = self._normalize(edge_ids)
        return Path(self._edge[norm[0]].r, self._edge[norm[-1]].s, tuple(d), norm)

    # -- composition and segments --------------------------------------------

    def compose(self, p: Path, q: Path) -> Path:
        if p.s != q.r:
            raise NonComposableError(
                f"cannot compose: source {p.s!r} of {p.literal()} != range {q.r!r} of {q.literal()}"
            )
        if p.is_vertex:
            return q
        if q.is_vertex:
            return p
        return Path(p.r, q.s, degrees.add(p.d, q.d), self._normalize(p.edges + q.edges))

    def split(self, p: Path, m: Degree) -> Tuple[Path, Path]:
        """The unique factorization p = prefix·suffix with d(prefix) = m."""
        m = tuple(m)
        if len(m) != self.k or not all(0 <= x <= y for x, y in zip(m, p.d)):
            degrees.check(m, self.k)  # a malformed degree raises ValueError
            raise SegmentBoundsError(f"split degree {m} exceeds d(p) = {p.d}")
        pre, rest = self._cut(p.edges, m)
        mid = self._edge[rest[0]].r if rest else p.s
        return Path(p.r, mid, m, pre), Path(mid, p.s, tuple(x - y for x, y in zip(p.d, m)), rest)

    def _cut(self, edges: Tuple[str, ...], m: Degree) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """The normal-form edge tuples (prefix, suffix) of a normal form cut
        at a degree m <= its own; no Path is built and nothing is memoized.

        The prefix grows in place at the front of one list: each edge it
        takes is the first of its colour at or after the cut point, swapped
        down to it.  The suffix needs no normalizing.  It is colour-ascending
        at the start, and each step keeps it so: the edges that the taken
        edge of colour c passes have lower colours, and a well-formed square
        (validate_kgraph reports any other) turns a pair (lower, c) into a
        pair (c, lower) of the same two colours, so the suffix's colours
        after a step are its colours before with one c removed."""
        color, swap = self._color, self._swap
        e = list(edges)
        start = 0
        for c, count in enumerate(m, 1):
            for _ in range(count):
                j = start
                while color[e[j]] != c:
                    j += 1
                while j > start:  # the swaps of _swap_at, read off the table here
                    j -= 1
                    try:
                        e[j], e[j + 1] = swap[e[j], e[j + 1]]
                    except KeyError:
                        raise _no_square(e[j], e[j + 1]) from None
                start += 1
        return tuple(e[:start]), tuple(e[start:])

    def segment(self, p: Path, m: Degree, n: Degree) -> Path:
        """The factor p(m, n) of degree n - m between the two cut points."""
        if not (degrees.leq(m, n) and degrees.leq(n, p.d)):
            raise SegmentBoundsError(f"need m <= n <= d(p); got {m}, {n}, {p.d}")
        _, tail = self.split(p, m)
        seg, _ = self.split(tail, tuple(x - y for x, y in zip(n, m)))
        return seg

    def prefix(self, p: Path, m: Degree) -> Path:
        return self.split(p, m)[0]

    def extends(self, p: Path, q: Path) -> bool:
        """True iff q is an initial segment of p (p ∈ qΛ)."""
        if p.r != q.r or not degrees.leq(q.d, p.d):
            return False
        return self.prefix(p, q.d) == q

    # -- path enumeration ------------------------------------------------------

    def _checked_hit(self, key):
        """The memo entry under a key of public arguments, or None.  Only
        a checked vertex and degree are ever stored, so an equal key is
        valid and skips the checks; any other key misses and the checks
        raise their usual errors."""
        try:
            return self._cache.get(key)
        except TypeError:  # unhashable arguments
            return None

    def paths_of_degree(self, v: str, n: Degree) -> Tuple[Path, ...]:
        """All normal-form paths with range v and degree exactly n."""
        hit = self._checked_hit(("pod", v, n))
        if hit is None:
            self.require_vertex(v)
            hit = self._paths_of_degree(v, degrees.check(n, self.k))
        return hit

    def _paths_of_degree(self, v: str, n: Degree) -> Tuple[Path, ...]:
        # for callers that hold a vertex and a checked degree
        return self.memo(("pod", v, n), self._enumerate_degree, v, n)

    def _enumerate_degree(self, v: str, n: Degree) -> Tuple[Path, ...]:
        """vΛ^n by extension: with c the top colour of n, each memoized
        path of degree n - e_c, in order, followed by each colour-c edge at
        its source, in id order.  A normal form is colour-ascending and c is
        the top colour, so each extension is a normal form as it stands.
        The paths of one degree at v are ordered by sort_key exactly when
        their edge tuples are, and the extensions of distinct paths of one
        length by distinct edges are distinct and ordered by (path, edge),
        so the result is in sort_key order and free of duplicates."""
        c = len(n)
        while c and not n[c - 1]:
            c -= 1
        if not c:
            return (self.identity(v),)
        m = n[:c - 1] + (n[c - 1] - 1,) + n[c:]
        if ("pod", v, m) not in self._cache:
            # memoize the degrees below m bottom up, one edge at a time in
            # colour order, so that no build recurses more than one level
            for i in range(c):
                for j in range(1, m[i] + 1):
                    self._paths_of_degree(v, m[:i] + (j,) + (0,) * (len(n) - i - 1))
        at = self._edges_at
        return tuple(
            Path(v, e.s, n, p.edges + (e.eid,))
            for p in self._paths_of_degree(v, m) for e in at.get(p.s, {}).get(c, ())
        )

    def paths_up_to(self, v: str, cap: Degree) -> Tuple[Path, ...]:
        """All paths with range v and degree <= cap, canonically sorted."""
        hit = self._checked_hit(("put", v, cap))
        if hit is None:
            self.require_vertex(v)
            cap = degrees.check(cap, self.k)
            hit = self.memo(("put", v, cap), self._paths_up_to, v, cap)
        return hit

    def _paths_up_to(self, v: str, cap: Degree) -> Tuple[Path, ...]:
        # degrees.below lists the degrees by (total, degree), the order in
        # which sort_key ranks paths of distinct degrees at one range, and
        # each degree's paths are in sort_key order already
        return tuple(p for n in degrees.below(cap) for p in self._paths_of_degree(v, n))

    # -- vertex reachability (v <= w iff vΛw nonempty) ---------------------------

    def vertex_bits(self) -> Dict[str, int]:
        """vertex_bits()[v] = 1 << i for v = vertices[i]: the bit of v in a vertex mask."""
        return self.memo("vbits", lambda: {v: 1 << i for i, v in enumerate(self.vertices)})

    def reach_masks(self) -> Dict[str, int]:
        """reach_masks()[v] = the vertex mask of {w : vΛw nonempty}, computed
        on the skeleton."""
        return self.memo("reach", self._reach_masks)

    def _reach_masks(self) -> Dict[str, int]:
        # Tarjan's strongly connected components, iteratively: a component
        # closes after every component it reaches, so its cone is final
        # then; a visited vertex with no cone yet is still open.  num[v]
        # is 1 + v's visit rank, 0 while v is unvisited
        at = {v: i for i, v in enumerate(self.vertices)}
        succ: List[List[int]] = [[] for _ in at]
        for e in self.edges:
            if e.r in at and e.s in at:
                succ[at[e.r]].append(at[e.s])
        cone = [0] * len(at)
        num = [0] * len(at)
        low = [0] * len(at)
        count = 0
        open_: List[int] = []
        for root in range(len(at)):
            if num[root]:
                continue
            num[root] = low[root] = count = count + 1
            open_.append(root)
            work = [(root, iter(succ[root]))]
            while work:
                u, todo = work[-1]
                for w in todo:
                    if not num[w]:
                        num[w] = low[w] = count = count + 1
                        open_.append(w)
                        work.append((w, iter(succ[w])))
                        break
                    if not cone[w] and num[w] < low[u]:
                        low[u] = num[w]
                else:
                    work.pop()
                    if work and low[u] < low[work[-1][0]]:
                        low[work[-1][0]] = low[u]
                    if low[u] == num[u]:
                        comp = [open_.pop()]
                        while comp[-1] != u:
                            comp.append(open_.pop())
                        mask = sum(1 << w for w in comp)
                        for w in comp:
                            for x in succ[w]:
                                mask |= cone[x]
                        for w in comp:
                            cone[w] = mask
        return dict(zip(self.vertices, cone))

    def reaches(self, v: str, w: str) -> bool:
        return bool(self.reach_masks().get(v, 0) & self.vertex_bits().get(w, 0))


def validate_kgraph(g: KGraph) -> ValidationReport:
    """Check completeness, unambiguity and (k >= 3) cube consistency.

    Violations are data, deterministically sorted; nothing raises here.
    """
    violations: List[Tuple[str, Tuple[str, ...]]] = []
    sk = g.skeleton
    vset = set(sk.vertices)
    good_edges = {}
    for e in sk.edges:
        bad = [x for x in (e.r, e.s) if x not in vset]
        if bad or not 1 <= e.color <= sk.k:
            violations.append(("dangling-edge", (e.eid,) + tuple(bad)))
        else:
            good_edges[e.eid] = e

    well_formed = []
    for rule in g.squares:
        f, gg, g2, f2 = rule.lhs[0], rule.lhs[1], rule.rhs[0], rule.rhs[1]
        ids = (f, gg, g2, f2)
        if not all(x in good_edges for x in ids):
            violations.append(("malformed-square", ids))
            continue
        ef, eg, eg2, ef2 = (good_edges[x] for x in ids)
        shape_ok = (
            ef.color != eg.color
            and ef.s == eg.r
            and eg2.s == ef2.r
            and ef.color == ef2.color
            and eg.color == eg2.color
            and ef.r == eg2.r
            and eg.s == ef2.s
        )
        if not shape_ok:
            violations.append(("malformed-square", ids))
        else:
            well_formed.append(rule)

    # completeness / unambiguity over well-formed rules
    swap: Dict[Tuple[str, str], Tuple[str, str]] = {}
    dup: set = set()
    for rule in well_formed:
        f, gg = rule.lhs
        g2, f2 = rule.rhs
        for key, val in (((f, gg), (g2, f2)), ((g2, f2), (f, gg))):
            if key in swap and swap[key] != val:
                dup.add(key)
            swap[key] = val
    # range buckets: the pair and triple scans meet only composable edges
    by_range: Dict[str, List[Edge]] = {}
    for e in good_edges.values():
        by_range.setdefault(e.r, []).append(e)
    bicolored = [
        (a.eid, b.eid) for a in good_edges.values() for b in by_range.get(a.s, ()) if a.color != b.color
    ]
    for pair in sorted(bicolored):
        if pair not in swap:
            violations.append(("incomplete-square", pair))
    for pair in sorted(dup):
        violations.append(("duplicate-square", pair))

    if sk.k >= 3 and not dup:
        def route(seq, positions):
            e = list(seq)
            for i in positions:
                key = (e[i], e[i + 1])
                if key not in swap:
                    return None
                e[i], e[i + 1] = swap[key]
            return tuple(e)

        for a in good_edges.values():
            for b in by_range.get(a.s, ()):
                if b.color == a.color:
                    continue
                for c in by_range.get(b.s, ()):
                    if c.color in (a.color, b.color):
                        continue
                    triple = (a.eid, b.eid, c.eid)
                    left = route(triple, (0, 1, 0))
                    right = route(triple, (1, 0, 1))
                    if left is not None and right is not None and left != right:
                        violations.append(("cube-inconsistent", triple))

    violations = sorted(set(violations))
    return ValidationReport(ok=not violations, violations=tuple(violations))


def is_locally_convex(g: KGraph) -> bool:
    """Local convexity in the sense of Raeburn–Sims–Yeend, read off the
    skeleton: for every vertex v and edges e ∈ vΛ^{e_i}, f ∈ vΛ^{e_j} with
    i ≠ j, both s(e)Λ^{e_j} and s(f)Λ^{e_i} are nonempty.  Put otherwise,
    the source of every edge into v receives an edge of each colour that v
    receives, its own colour apart.  An edge whose source is no vertex
    receives nothing there."""
    colors = dict.fromkeys(g.vertices, 0)  # per vertex, a bit per colour it receives
    into = [e for e in g.edges if e.r in colors and 1 <= e.color <= g.k]
    for e in into:
        colors[e.r] |= 1 << e.color
    return not any(colors[e.r] & ~(1 << e.color) & ~colors.get(e.s, 0) for e in into)

