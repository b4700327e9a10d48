"""Common-extension combinatorics: MCE, minimal pairs, Ext, closures,
and the cap-bounded exhaustiveness decision with certificates.

Exhaustiveness of a finite set E at a vertex quantifies over the whole
(usually infinite) path space, so the decision here is three-valued.
The search walks the uncaptured paths (those extending no member of E),
which form a prefix-closed tree:

  * a path with no common extension with any member is a sound
    counterexample witness (avoidance persists under extension);
  * if every uncaptured path stays strictly inside the cap box, the
    tree is fully explored and a positive answer is certified;
  * an uncaptured path escaping the cap means the answer is unknown.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

from . import degrees
from .certify import CertifiedBool, false_certified, true_certified, unknown_at_cap
from .degrees import Degree
from .kgraph import KGraph, KGraphError, Path, _tuple_new, sorted_paths
from .record import Record

PathSet = FrozenSet[Path]

# 2^MAX_FE_MEMBERS candidate sets are enumerated per vertex; refuse beyond this.
MAX_FE_MEMBERS = 18


class MinPair(NamedTuple):
    alpha: Path
    beta: Path


def common_range(E: Iterable[Path]) -> str:
    vs = {p.r for p in E}
    if len(vs) != 1:
        raise KGraphError(f"path set has mixed ranges {sorted(vs)}")
    return next(iter(vs))


def mce(g: KGraph, mu: Path, nu: Path) -> Tuple[Path, ...]:
    """Minimal common extensions: degree d(mu)∨d(nu), extending both.

    A graph that does not validate can raise MissingSquareError here,
    when a factorization needs a square its presentation lacks."""
    if mu.r != nu.r:
        raise _no_common_range("mce", mu, nu)
    return _column(g, mu, nu, 0)


def _no_common_range(caller: str, mu: Path, nu: Path) -> KGraphError:
    return KGraphError(f"{caller} needs a common range; got {mu.r!r} and {nu.r!r}")


# column i of the pair table of (nu, mu) is column _FLIPPED[i] of (mu, nu)'s
_FLIPPED = (0, 2, 1, 4, 3)


def _column(g: KGraph, mu: Path, nu: Path, i: int) -> Tuple[Path, ...]:
    """Column i of the pair table of (mu, nu), whose rows are the triples
    (tau, alpha, beta) with tau = mu·alpha = nu·beta of degree
    d(mu)∨d(nu): 0 is tau, sorted as paths_of_degree sorts, 1 alpha and
    2 beta, row by row with tau, 3 alpha and 4 beta, each in sort_key
    order.  One memo entry serves both argument orders: it is keyed with
    the smaller edge tuple first, and the other order reads it with the
    alpha and beta columns swapped; tau reads the same both ways.  The
    caller has checked that mu and nu have one range."""
    if nu.edges < mu.edges:
        return g.memo(("mce", nu, mu), _build_min_triples, g, nu, mu)[_FLIPPED[i]]
    return g.memo(("mce", mu, nu), _build_min_triples, g, mu, nu)[i]


# the one pair table of every pair with no common extension
_NO_TRIPLES: Tuple[Tuple[Path, ...], ...] = ((),) * 5


def _slice_length(d: Degree, m: Degree) -> int:
    """|m| when a normal form of degree d cuts at m by slicing its edge
    tuple, else -1: m agrees with d below some colour j and is 0 above j."""
    j = 0
    while j < len(m) and m[j] == d[j]:
        j += 1
    return -1 if any(m[j + 1:]) else sum(m)


def _ascends(a: Degree, b: Degree) -> bool:
    """Whether a normal form of degree a followed by one of degree b is
    colour-ascending: no colour of b lies below a colour of a."""
    top = max((c for c, x in enumerate(a) if x), default=0)
    return not any(b[:top])


def _degree_plan(a: Degree, b: Degree) -> tuple:
    """The degree arithmetic of a pair table for d(mu) = a, d(nu) = b.

    Comparable: (a >= b, the smaller side's continuation degree, the
    slice length of the cut of the larger side at the smaller degree,
    the zero degree).  Incomparable: (None, n = a ∨ b, then per side the
    continuation degree, whether the side's edges followed by a
    continuation's ascend, and the slice length of the cut of their
    product at the other side's degree), mu's side first.  A slice
    length of -1 marks a cut that needs swaps."""
    n = degrees.join(a, b)
    if n == a or n == b:
        small = b if n == a else a
        return n == a, tuple(map(int.__sub__, n, small)), _slice_length(n, small), degrees.zero(len(n))
    alpha_d = tuple(map(int.__sub__, n, a))
    beta_d = tuple(map(int.__sub__, n, b))
    return (None, n, (alpha_d, _ascends(a, alpha_d), _slice_length(n, b)),
            (beta_d, _ascends(b, beta_d), _slice_length(n, a)))


def _build_min_triples(g: KGraph, mu: Path, nu: Path) -> Tuple[Tuple[Path, ...], ...]:
    """The pair table of (mu, nu), its degree arithmetic read off the
    graph's plan for (d(mu), d(nu)).

    Slice lemma: let lam be a normal form of degree d and m <= d with
    m_i = d_i for i < j and m_i = 0 for i > j.  Then lam(0, m) is the
    first |m| edges of lam and lam(m, d) the rest.  Proof: lam is
    colour-ascending, so its first |m| edges are d_1 edges of colour 1,
    ..., d_{j-1} of colour j-1 and m_j of colour j, a colour-ascending
    sequence of degree m, so a normal form; the rest is colour-ascending
    of degree d - m.  Their product is lam, and by unique factorization
    they are its m-prefix and its suffix.  _cut agrees and reads no
    square there: each edge it takes is the first of its colour at or
    after the cut point, and that edge already sits at the cut point.
    At any other m some i < j has m_i < d_i and m_j > 0, so a colour-i
    edge lies before the first colour-j edge _cut takes, which it swaps
    down.  A cut at a slice is therefore a tuple slice and raises
    nothing, on a graph that does not validate too.

    Each tau factors as mu·alpha with a unique alpha of degree
    n - d(mu), and as nu·beta.  When the degrees are comparable, tau can
    only be the larger side itself: one cut of it at the smaller side's
    degree decides the pair, and the smaller side's continuation is its
    suffix.  Otherwise the side with fewer continuations is walked, each
    candidate normalized unless the plan says it ascends already, and
    cut at the other side's degree; Paths are built only for the rows
    kept."""
    plan = g.memo(("plan", mu.d, nu.d), _degree_plan, mu.d, nu.d)
    if plan[0] is not None:
        mu_big, tail_d, cut, zero = plan
        big, small = (mu, nu) if mu_big else (nu, mu)
        # before the cut, so that a source which is no vertex raises first
        g.require_vertex(big.s)
        if cut < 0:
            head, rest = g._cut(big.edges, small.d)
        else:
            head, rest = big.edges[:cut], big.edges[cut:]
        if head != small.edges:
            return _NO_TRIPLES
        vertex = _tuple_new(Path, (big.s, big.s, zero, ()))
        tail = _tuple_new(Path, (small.s, big.s, tail_d, rest))
        columns = ((big,), (vertex,), (tail,)) if mu_big else ((big,), (tail,), (vertex,))
        return columns + columns[1:]
    _, n, mu_side, nu_side = plan
    alpha_d, beta_d = mu_side[0], nu_side[0]
    swap = len(g._paths_of_degree(nu.s, beta_d)) < len(g._paths_of_degree(mu.s, alpha_d))
    if swap:
        mu, nu, alpha_d, beta_d, mu_side = nu, mu, beta_d, alpha_d, nu_side
    ascends, cut = mu_side[1:]
    rows = []
    for alpha in g._paths_of_degree(mu.s, alpha_d):
        edges = mu.edges + alpha.edges
        if not ascends:
            edges = g._normalize(edges)
        if cut < 0:
            head, rest = g._cut(edges, nu.d)
        else:
            head, rest = edges[:cut], edges[cut:]
        if head == nu.edges:
            tau = _tuple_new(Path, (mu.r, alpha.s, n, edges))
            beta = _tuple_new(Path, (nu.s, alpha.s, beta_d, rest))
            rows.append((tau, beta, alpha) if swap else (tau, alpha, beta))
    if len(rows) < 2:  # then each column is in sort_key order too
        columns = tuple(zip(*rows)) if rows else ((), (), ())
        return columns + columns[1:]
    rows.sort(key=lambda row: row[0].sort_key())
    taus, alphas, betas = zip(*rows)
    # the continuation columns again in sort_key order, as ext returns them
    return (taus, alphas, betas,
            tuple(sorted(alphas, key=Path.sort_key)), tuple(sorted(betas, key=Path.sort_key)))


def lambda_min(g: KGraph, mu: Path, nu: Path) -> Tuple[MinPair, ...]:
    """The continuation pairs (alpha, beta) with mu·alpha = nu·beta minimal."""
    if mu.r != nu.r:
        raise _no_common_range("lambda_min", mu, nu)
    out = map(MinPair, _column(g, mu, nu, 1), _column(g, mu, nu, 2))
    return tuple(sorted(out, key=lambda p: (p.alpha.sort_key(), p.beta.sort_key())))


def ext(g: KGraph, mu: Path, E: Iterable[Path]) -> Tuple[Path, ...]:
    """Continuations of mu that realize a minimal common extension with E.
    A member whose range is not r(mu) raises KGraphError."""
    # the union of the members' alpha columns, each memoized with its pair
    # table in sort_key order, so that one column is the answer as it stands
    E = tuple(E)
    if len(E) == 1 and E[0].r == mu.r:
        return _column(g, mu, E[0], 3)
    for nu in E:
        if nu.r != mu.r:
            raise KGraphError(f"ext needs every member of E at r(mu) = {mu.r!r}; "
                              f"member {nu.literal()} has range {nu.r!r}")
    return sorted_paths(p for nu in E for p in _column(g, mu, nu, 3))


def vee_closure(g: KGraph, E: Iterable[Path]) -> Tuple[Path, ...]:
    """Least superset of E closed under pairwise minimal common extensions."""
    cur = set(E)
    frontier = list(cur)
    while frontier:
        new: List[Path] = []
        items = sorted(cur, key=Path.sort_key)
        for p in frontier:
            for q in items:
                if p.r != q.r:
                    continue
                for tau in mce(g, p, q):
                    if tau not in cur:
                        new.append(tau)
        cur.update(new)
        frontier = new
    return sorted_paths(cur)


# -- cap-bounded exhaustiveness ------------------------------------------------


class VertexUniverse(Record, hidden=("_cont", "_comp")):
    """The capped paths at one vertex, numbered, with the tables that let
    path sets at the vertex be carried as bitmasks.

    Path id i is the position in ``paths`` (id 0 is the vertex identity).
    Bitmask bit j refers to members[j] = paths[j + 1], the non-identity
    paths, so a member mask is a path mask shifted down by one.  Built
    eagerly for each capped path: which members it extends (captured),
    which members it has a common extension with (compat), whether some
    edge at its source takes it out of the cap box (escapes), and, per
    degree below its own, the id of its prefix and the matching suffix
    path (prefix, suffix).  The continuation and composition rows are
    filled on first use, by methods that take the graph whose universe
    this is: a universe holds no graph.

    An escape flag is all that exhaustiveness needs of the paths past the
    cap.  If lam·e leaves the cap, e has a colour c with d(lam)_c = cap_c,
    so every degree m <= d(lam·e) inside the cap is <= d(lam), and by
    unique factorization the m-prefix of lam·e is lam's own: lam·e
    extends exactly the members lam extends.  So when lam is uncaptured,
    every such extension is too, and unless some uncaptured path meets no
    member, the answer is unknown exactly when some uncaptured path escapes.
    """

    _fields = ("vertex", "cap", "paths", "members", "index", "member_index", "captured",
               "compat", "escapes", "prefix", "suffix", "_cont", "_comp")
    # weakly referable: perfbench/run.py counts each universe once by a WeakValueDictionary
    __slots__ = _fields + ("__weakref__",)

    def __init__(self, vertex: str, cap: Degree, paths: Tuple[Path, ...], members: Tuple[Path, ...],
                 index: Dict[Path, int], member_index: Dict[Path, int], captured: List[int], compat: List[int],
                 escapes: List[bool], prefix: List[Dict[Degree, int]], suffix: List[Dict[Degree, Path]],
                 _cont: Optional[Dict[int, List[int]]] = None,
                 _comp: Optional[Dict[int, Tuple[List[int], Dict[int, Path]]]] = None):
        self.vertex = vertex
        self.cap = cap
        self.paths = paths
        self.members = members
        self.index = index
        self.member_index = member_index
        self.captured = captured
        self.compat = compat
        self.escapes = escapes
        self.prefix = prefix
        self.suffix = suffix
        self._cont = {} if _cont is None else _cont
        self._comp = {} if _comp is None else _comp

    def mask_of(self, E: Iterable[Path]) -> int:
        m = 0
        for p in E:
            m |= 1 << self.member_index[p]
        return m

    def set_of(self, mask: int) -> PathSet:
        out = []
        while mask:
            low = mask & -mask
            out.append(self.members[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    def classify(self, emask: int) -> CertifiedBool:
        """Three-valued exhaustiveness of the member subset given by emask."""
        overflow = False
        for lam, captured, compat, escapes in zip(self.paths, self.captured, self.compat, self.escapes):
            if captured & emask:
                continue
            if not compat & emask:
                return false_certified(lam)
            if escapes:
                overflow = True
        if overflow:
            return unknown_at_cap(self.cap)
        return true_certified()

    def continuations(self, g: KGraph, i: int) -> List[int]:
        """Row i of the continuation table: entry j is the path mask, in the
        universe of g at paths[i].s, of ext(paths[i], {members[j]})."""
        row = self._cont.get(i)
        if row is None:
            mu = self.paths[i]
            at = universe(g, mu.s, self.cap).index
            row = [0] * len(self.members)
            for t, pre in enumerate(self.prefix):
                if pre.get(mu.d) != i:
                    continue
                # paths[t] extends mu; it is a minimal common extension
                # with each member prefix whose degree joins mu's to its own
                bit = 1 << at[self.suffix[t][mu.d]]
                dt = self.paths[t].d
                for m, p in pre.items():
                    if p and degrees.join(mu.d, m) == dt:
                        row[p - 1] |= bit
            self._cont[i] = row
        return row

    def ext_mask(self, g: KGraph, i: int, emask: int) -> int:
        """Path mask, in the universe of g at paths[i].s, of ext(paths[i], E)
        for the member set E given by emask.  Bit 0 (the identity) is set
        only when paths[i] extends a member of E."""
        return _union_of_bits(self.continuations(g, i), emask)

    def compositions(self, g: KGraph, i: int) -> Tuple[List[int], Dict[int, Path]]:
        """Row i of the composition table, over the members of g's universe
        at paths[i].s: entry j is the member bit here of paths[i]·members[j]
        there, or 0 when the product leaves the cap; the second value maps
        each such j to the product, composed on g."""
        hit = self._comp.get(i)
        if hit is None:
            lam = self.paths[i]
            uni = universe(g, lam.s, self.cap)
            there, at = uni.members, uni.member_index
            row = [0] * len(there)
            for t, pre in enumerate(self.prefix):
                if t != i and pre.get(lam.d) == i:
                    row[at[self.suffix[t][lam.d]]] = 1 << (t - 1)
            out = {j: g.compose(lam, q) for j, q in enumerate(there) if not row[j]}
            hit = self._comp[i] = (row, out)
        return hit


def _union_of_bits(row: List[int], mask: int) -> int:
    """The union of row[j] over the set bits j of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= row[low.bit_length() - 1]
        mask ^= low
    return out


def _captured(prefix: List[Dict[Degree, int]]) -> List[int]:
    out = []
    for pre in prefix:
        mask = 0
        for p in pre.values():
            if p:
                mask |= 1 << (p - 1)
        out.append(mask)
    return out


def _compat(paths: Tuple[Path, ...], prefix: List[Dict[Degree, int]]) -> List[int]:
    out = [0] * len(paths)
    for t, pre in enumerate(prefix):
        dt = paths[t].d
        for a, pa in pre.items():
            for b, pb in pre.items():
                if pb and degrees.join(a, b) == dt:
                    out[pa] |= 1 << (pb - 1)
    return out


def _build_universe(g: KGraph, v: str, cap: Degree) -> VertexUniverse:
    """The universe at v, from the capped paths alone.

    A normal form tau = p·e of top colour c ends in an edge e of colour c,
    and p, tau less that edge, is a normal form of lower degree, so an
    earlier capped path.  For m <= d(tau) with m_c < d(tau)_c, m <= d(p),
    so the m-prefix of tau is p's, and the suffix is p's followed by e,
    colour-ascending and so a normal form; only the degrees with
    m_c = d(tau)_c are cut.  Escape flags read the skeleton: lam leaves the
    cap along e exactly when d(lam) is at the cap in e's colour."""
    paths = g.paths_up_to(v, cap)
    index = {p: i for i, p in enumerate(paths)}
    by_edges = {p.edges: i for i, p in enumerate(paths)}
    vertex = paths[0]
    prefix: List[Dict[Degree, int]] = [{vertex.d: 0}]
    suffix: List[Dict[Degree, Path]] = [{vertex.d: vertex}]
    for tau in paths[1:]:
        d, e = tau.d, tau.edges[-1]
        c = g.edge(e).color - 1
        p = by_edges[tau.edges[:-1]]
        pre_p, suf_p = prefix[p], suffix[p]
        pre: Dict[Degree, int] = {}
        suf: Dict[Degree, Path] = {}
        for m in degrees.below(d):
            if m[c] < d[c]:
                pre[m] = pre_p[m]
                s = suf_p[m]
                suf[m] = _tuple_new(Path, (s.r, tau.s, tuple(map(int.__sub__, d, m)), s.edges + (e,)))
            else:
                head, suf[m] = g.split(tau, m)
                pre[m] = index[head]
        prefix.append(pre)
        suffix.append(suf)
    escapes = [any(lam.d[e.color - 1] == cap[e.color - 1] for e in g.edges_at(lam.s)) for lam in paths]
    return VertexUniverse(
        v, cap, paths, paths[1:], index, {p: i - 1 for p, i in index.items() if i},
        _captured(prefix), _compat(paths, prefix), escapes, prefix, suffix,
    )


def _universe(g: KGraph, v: str, cap: Degree) -> VertexUniverse:
    # for callers that hold a checked cap
    return g.memo(("universe", v, cap), _build_universe, g, v, cap)


def universe(g: KGraph, v: str, cap: Degree) -> VertexUniverse:
    hit = g._checked_hit(("universe", v, cap))
    if hit is None:
        hit = _universe(g, v, degrees.check(cap, g.k))
    return hit


def is_exhaustive(g: KGraph, E: Iterable[Path], cap: Degree) -> CertifiedBool:
    """Certified decision of whether E is exhaustive at its common range,
    by one bitmask scan of the universe at the cap joined with every
    member degree, which holds each common extension of a member and a
    path inside it.  An unknown answer carries the joined cap."""
    E = sorted_paths(E)
    if not E:
        raise KGraphError("exhaustiveness needs a nonempty candidate set")
    v = common_range(E)
    cap = degrees.check(cap, g.k)
    if any(p.is_vertex for p in E):
        raise KGraphError("exhaustive sets exclude the vertex identity")
    uni = _universe(g, v, tuple(map(max, cap, *(p.d for p in E))))
    try:  # every path of g at v up to the joined cap is a member
        return uni.classify(uni.mask_of(E))
    except KeyError as err:
        raise KGraphError(f"{err.args[0].literal()} is not a path of the graph") from None


class FEFamily(Record, hidden=("graph",)):
    """Capped finite-exhaustive candidates, per vertex, with certifications.

    A set is kept as its member mask in the universe of ``graph`` at its
    vertex and ``cap``; ``sets_at`` and ``all_sets`` build the path sets.
    """

    __slots__ = ("graph", "cap", "by_vertex")

    def __init__(self, graph: KGraph, cap: Degree, by_vertex: Optional[Dict[str, Dict[int, CertifiedBool]]] = None):
        self.graph = graph
        self.cap = cap
        self.by_vertex = {} if by_vertex is None else by_vertex

    def sets_at(self, v: str) -> Dict[PathSet, CertifiedBool]:
        masks = self.by_vertex.get(v)
        if not masks:
            return {}
        uni = universe(self.graph, v, self.cap)
        return {uni.set_of(mask): cert for mask, cert in masks.items()}

    def all_sets(self) -> Dict[PathSet, CertifiedBool]:
        out: Dict[PathSet, CertifiedBool] = {}
        for v in self.by_vertex:
            out.update(self.sets_at(v))
        return out

    def size(self) -> int:
        return sum(len(d) for d in self.by_vertex.values())


def fe_sets(g: KGraph, v: str, cap: Degree) -> FEFamily:
    """All capped subsets of vΛ (identity excluded) that survive the
    exhaustiveness check, tagged TrueCertified or UnknownAtCap."""
    uni = universe(g, v, cap)
    m = len(uni.members)
    if m > MAX_FE_MEMBERS:
        raise RuntimeError(
            f"fe enumeration at {v!r} needs 2^{m} subsets, over the limit of "
            f"2^{MAX_FE_MEMBERS}; try a smaller cap"
        )
    found: Dict[int, CertifiedBool] = {}
    for emask in range(1, 1 << m):
        cert = uni.classify(emask)
        if not cert.is_false:
            found[emask] = cert
    fam = FEFamily(g, degrees.check(cap, g.k))
    if found:
        fam.by_vertex[v] = found
    return fam

