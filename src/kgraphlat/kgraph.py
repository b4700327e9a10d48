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

from itertools import chain
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Sequence, Tuple

from . import degrees
from .degrees import Degree
from .record import Record


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


class Edge(Record, frozen=True):
    __slots__ = ("eid", "color", "r", "s")

    def __init__(self, eid: str, color: int, r: str, s: str):
        self.eid = eid
        self.color = color
        self.r = r
        self.s = s


class Skeleton(Record, frozen=True):
    __slots__ = ("k", "vertices", "edges")

    def __init__(self, k: int, vertices: Tuple[str, ...], edges: Tuple[Edge, ...]):
        self.k = k
        self.vertices = vertices
        self.edges = edges

    @staticmethod
    def build(k: int, vertices: Iterable[str], edges: Iterable[Tuple[str, int, str, str]]) -> "Skeleton":
        if k < 1:
            raise KGraphError(f"rank must be >= 1, got {k}")
        vset = set(vertices)
        es = []
        seen = set()
        for eid, color, r, s in edges:
            if eid in seen:
                raise KGraphError(f"duplicate edge id {eid!r}")
            if eid in vset:
                raise KGraphError(f"edge id {eid!r} collides with a vertex id")
            seen.add(eid)
            es.append(Edge(eid, int(color), r, s))
        es.sort(key=lambda e: e.eid)
        return Skeleton(k, tuple(sorted(vset)), tuple(es))


class SquareRule(Record, frozen=True):
    """Asserts f∘g = g2∘f2 for bicolored composable edge pairs."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Tuple[str, str], rhs: Tuple[str, str]):
        self.lhs = lhs
        self.rhs = rhs

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


# the kernels build their Paths through tuple.__new__, which skips the
# Python-level __new__ of the NamedTuple: _tuple_new(Path, (r, s, d, edges))
_tuple_new = tuple.__new__


class ValidationReport(Record, frozen=True):
    __slots__ = ("ok", "violations")

    def __init__(self, ok: bool, violations: Tuple[Tuple[str, Tuple[str, ...]], ...]):
        self.ok = ok
        self.violations = violations


def _step_down(n: Degree) -> Tuple[int, Degree]:
    """(c, n - e_c) for the top colour c of n, the highest with n_c > 0;
    (0, n) when n is 0."""
    c = len(n)
    while c and not n[c - 1]:
        c -= 1
    return (c, n[:c - 1] + (n[c - 1] - 1,) + n[c:]) if c else (0, n)


def _level_plan(cap: Degree) -> Tuple[Tuple[Degree, int, int], ...]:
    """(n, c, j) for each n in degrees.below(cap), in that order: c is the
    top colour of n and j the position of n - e_c, which comes earlier,
    as its total is one less; j is 0 for n = 0."""
    below = list(degrees.below(cap))
    at = {n: j for j, n in enumerate(below)}
    plan = []
    for n in below:
        c, m = _step_down(n)
        plan.append((n, c, at[m]))
    return tuple(plan)


def sorted_paths(paths: Iterable[Path]) -> Tuple[Path, ...]:
    return tuple(sorted(set(paths), key=Path.sort_key))


class KGraph:
    """A k-colored skeleton plus its commuting-square presentation.

    Instances are immutable values (internal caches only memoize pure
    derived data), so they are safe to share and to use as dict keys.
    """

    def __init__(self, skeleton: Skeleton, squares: Iterable[SquareRule]):
        self.skeleton = skeleton
        # deduped by key tuple, which hashes faster than the record
        keyed = {sq.key(): sq for sq in squares}
        self.squares = tuple(sq for _, sq in sorted(keyed.items()))
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
            cf, cg = color.get(f), color.get(g)
            if cf is not None and cg is not None and cf == color.get(f2) != cg == color.get(g2):
                self._swap[f, g] = rule.rhs
                self._swap[g2, f2] = rule.lhs
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
        return _tuple_new(Path, (v, v, degrees.zero(self.k), ()))

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
        return _tuple_new(Path, (self._edge[norm[0]].r, self._edge[norm[-1]].s, tuple(d), norm))

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
        return _tuple_new(Path, (p.r, q.s, degrees.add(p.d, q.d), self._normalize(p.edges + q.edges)))

    def split(self, p: Path, m: Degree) -> Tuple[Path, Path]:
        """The unique factorization p = prefix·suffix with d(prefix) = m."""
        m = tuple(m)
        if len(m) != self.k or not all(0 <= x <= y for x, y in zip(m, p.d)):
            degrees.check(m, self.k)  # a malformed degree raises ValueError
            raise SegmentBoundsError(f"split degree {m} exceeds d(p) = {p.d}")
        pre, rest = self._cut(p.edges, m)
        mid = self._edge[rest[0]].r if rest else p.s
        return (_tuple_new(Path, (p.r, mid, m, pre)),
                _tuple_new(Path, (mid, p.s, tuple(x - y for x, y in zip(p.d, m)), rest)))

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
        return self.memo(("pod", v, n), self._build_degree, v, n)

    def _build_degree(self, v: str, n: Degree) -> Tuple[Path, ...]:
        # a cold request for one degree first memoizes the degrees below it
        # bottom up, one edge at a time in colour order, so that no build
        # recurses more than one level
        c, m = _step_down(n)
        if not c:
            return self._enumerate_degree(v, n, 0, ())
        if ("pod", v, m) not in self._cache:
            for i in range(c):
                for j in range(1, m[i] + 1):
                    self._paths_of_degree(v, m[:i] + (j,) + (0,) * (len(n) - i - 1))
        return self._enumerate_degree(v, n, c, self._paths_of_degree(v, m))

    def _enumerate_degree(self, v: str, n: Degree, c: int, level: Tuple[Path, ...]) -> Tuple[Path, ...]:
        """vΛ^n by extension, where c is the top colour of n (0 when n is 0)
        and level is vΛ^(n - e_c): each path of level, in order, followed
        by each colour-c edge at its source, in id order.  A normal form is
        colour-ascending and c is the top colour, so each extension is a
        normal form as it stands.  The paths of one degree at v are ordered
        by sort_key exactly when their edge tuples are, and the extensions
        of distinct paths of one length by distinct edges are distinct and
        ordered by (path, edge), so the result is in sort_key order and
        free of duplicates."""
        if not c:
            return (self.identity(v),)
        at, new, no_edges = self._edges_at, _tuple_new, {}
        return tuple([
            new(Path, (v, e.s, n, p.edges + (e.eid,)))
            for p in level for e in at.get(p.s, no_edges).get(c, ())
        ])

    def paths_up_to(self, v: str, cap: Degree) -> Tuple[Path, ...]:
        """All paths with range v and degree <= cap, canonically sorted."""
        hit = self._checked_hit(("put", v, cap))
        if hit is None:
            self.require_vertex(v)
            cap = degrees.check(cap, self.k)
            hit = self.memo(("put", v, cap), self._paths_up_to, v, cap)
        return hit

    def _paths_up_to(self, v: str, cap: Degree) -> Tuple[Path, ...]:
        # the levels vΛ^n for n in degrees.below(cap), in that order, each
        # memoized and built from the level of n - e_c, c the top colour of
        # n, which comes earlier; below lists the degrees by (total,
        # degree), the order in which sort_key ranks paths of distinct
        # degrees at one range, and each level is in sort_key order already
        levels: List[Tuple[Path, ...]] = []
        for n, c, j in self.memo(("below", cap), _level_plan, cap):
            levels.append(self.memo(("pod", v, n), self._enumerate_degree, v, n, c, levels[j] if c else ()))
        return tuple(chain.from_iterable(levels))

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

    A composable triple of three distinct colours is cube-inconsistent
    when its left reversal (swaps at positions 0, 1, 0) and its right
    reversal (at 1, 0, 1) both exist and differ.  The check routes only
    the colour-ascending triples, and runs the scan over every colour
    order only when one of them fails to close (a missing square, or two
    reversals that differ); that scan lists the violations.  The triples
    are read off buckets of the good edges by range and colour: from an
    edge a, the buckets at a's source, then at b's, so the ascending scan
    takes only the buckets of higher colours and never meets a pair of
    the wrong colours.  The pair scan reads the same buckets, so the
    whole check is linear in edges, squares, composable pairs and
    ascending triples.

    Hexagon lemma: if every colour-ascending triple closes, no triple is
    cube-inconsistent.  The cube check runs only when no square is
    duplicated, so each pair maps to one swap, and the rule that enters a
    swap enters its reverse: swapping is an involution on pairs, and so
    are s0 and s1, the swaps of a triple at positions 0 and 1.  Let t be
    a triple whose routes t, s0 t, s1 s0 t, s0 s1 s0 t and t, s1 t,
    s0 s1 t, s1 s0 s1 t both exist.  Their colour orders are t's order
    composed with e, (01), (01)(12), (02), (12) and (12)(01), all six
    orders of three colours, so one triple u on the routes is
    colour-ascending.  As u closes, its routes trace a hexagon of six
    triples, distinct because their colour orders are, on which s0 and s1
    take each triple to its two neighbours.  The swaps that lead t to u,
    each undone by itself, lead u back to t along the hexagon, so t lies
    on it; t's two routes then walk the hexagon three steps each way and
    meet at the triple opposite t, so they agree.
    """
    violations: List[Tuple[str, Tuple[str, ...]]] = []
    sk = g.skeleton
    vset = set(sk.vertices)
    good_edges = {}
    for e in sk.edges:
        if e.r in vset and e.s in vset and 1 <= e.color <= sk.k:
            good_edges[e.eid] = e
        else:
            violations.append(("dangling-edge", (e.eid,) + tuple(x for x in (e.r, e.s) if x not in vset)))

    well_formed = []
    get = good_edges.get
    for rule in g.squares:
        (f, gg), (g2, f2) = rule.lhs, rule.rhs
        ef, eg, eg2, ef2 = get(f), get(gg), get(g2), get(f2)
        if (
            ef is not None and eg is not None and eg2 is not None and ef2 is not None
            and ef.color != eg.color
            and ef.s == eg.r
            and eg2.s == ef2.r
            and ef.color == ef2.color
            and eg.color == eg2.color
            and ef.r == eg2.r
            and eg.s == ef2.s
        ):
            well_formed.append(rule)
        else:
            violations.append(("malformed-square", (f, gg, g2, f2)))

    # completeness / unambiguity over well-formed rules
    swap: Dict[Tuple[str, str], Tuple[str, str]] = {}
    dup: set = set()
    for rule in well_formed:
        for key, val in ((rule.lhs, rule.rhs), (rule.rhs, rule.lhs)):
            if swap.setdefault(key, val) != val:
                dup.add(key)
                swap[key] = val
    # range and colour buckets: the pair and triple scans meet only
    # composable edges, and the ascending scan only higher colours
    by_range: Dict[str, Dict[int, List[Edge]]] = {}
    for e in good_edges.values():
        by_range.setdefault(e.r, {}).setdefault(e.color, []).append(e)
    for a in good_edges.values():
        for c, bs in by_range.get(a.s, {}).items():
            if c != a.color:
                for b in bs:
                    if (a.eid, b.eid) not in swap:
                        violations.append(("incomplete-square", (a.eid, b.eid)))
    for pair in dup:
        violations.append(("duplicate-square", pair))

    if sk.k >= 3 and not dup:
        edges = good_edges.values()

        def closes(triple):
            left, right = _reversals(swap, triple)
            return left is not None and left == right

        # one triple per hexagon; the all-orders scan lists the violations
        if not all(closes(t) for t in _cube_triples(edges, by_range, True)):
            for triple in _cube_triples(edges, by_range, False):
                left, right = _reversals(swap, triple)
                if left is not None and right is not None and left != right:
                    violations.append(("cube-inconsistent", triple))

    violations = sorted(set(violations))
    return ValidationReport(ok=not violations, violations=tuple(violations))


def _cube_triples(edges: Iterable[Edge], by_range: Dict[str, Dict[int, List[Edge]]], ascending: bool):
    """The composable edge-id triples of three distinct colours, in every
    colour order, or only the colour-ascending ones.  by_range[v][c] lists
    the edges of colour c with range v, so each step reads whole colour
    buckets and skips the colours it may not take."""
    for a in edges:
        for cb, bs in by_range.get(a.s, {}).items():
            if cb == a.color or ascending and cb < a.color:
                continue
            for b in bs:
                for cc, cs in by_range.get(b.s, {}).items():
                    if cc == a.color or cc == cb or ascending and cc < cb:
                        continue
                    for c in cs:
                        yield a.eid, b.eid, c.eid


def _reversals(swap: Dict[Tuple[str, str], Tuple[str, str]], triple: Tuple[str, str, str]):
    """The two full reversals of a triple: the left route swaps at
    positions 0, 1, 0 and the right route at 1, 0, 1; a route that meets
    a pair with no square is None."""
    x, y, z = triple
    left = right = None
    xy = swap.get((x, y))
    if xy is not None:  # left: (x, y, z) -> (y', x', z) -> (y', z', x'') -> (z'', y'', x'')
        xz = swap.get((xy[1], z))
        if xz is not None:
            yz = swap.get((xy[0], xz[0]))
            if yz is not None:
                left = yz + xz[1:]
    yz = swap.get((y, z))
    if yz is not None:  # right: (x, y, z) -> (x, z', y') -> (z'', x', y') -> (z'', y'', x'')
        xz = swap.get((x, yz[0]))
        if xz is not None:
            xy = swap.get((xz[1], yz[1]))
            if xy is not None:
                right = xz[:1] + xy
    return left, right


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

