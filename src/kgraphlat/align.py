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

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

from . import degrees
from .certify import CertifiedBool, false_certified, true_certified, unknown_at_cap
from .degrees import Degree
from .kgraph import KGraph, KGraphError, Path, sorted_paths

PathSet = FrozenSet[Path]

# 2^MAX_FE_MEMBERS candidate sets are enumerated per vertex; refuse beyond this.
MAX_FE_MEMBERS = 18

# Memo key under which a quotient graph records (parent graph, H); a graph
# that is no quotient stores () there on first read.
QUOTIENT_OF = "quotient of"


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
    return _min_triples(g, mu, nu)[0]


def _min_triples(g: KGraph, mu: Path, nu: Path) -> Tuple[Tuple[Path, ...], ...]:
    """The triples (tau, alpha, beta) with tau = mu·alpha = nu·beta of
    degree d(mu)∨d(nu), as three columns sorted by tau, the order of
    paths_of_degree.  One memo entry serves both argument orders."""
    if mu.r != nu.r:
        raise KGraphError(f"mce needs a common range; got {mu.r!r} and {nu.r!r}")
    if nu.edges < mu.edges:
        taus, betas, alphas = g.memo(("mce", nu, mu), _build_min_triples, g, nu, mu)
        return taus, alphas, betas
    return g.memo(("mce", mu, nu), _build_min_triples, g, mu, nu)


def _build_min_triples(g: KGraph, mu: Path, nu: Path) -> Tuple[Tuple[Path, ...], ...]:
    # each tau factors as mu·alpha with a unique alpha of degree n - d(mu),
    # and as nu·beta: walk the side with fewer continuations, composing each
    # once and splitting it once at the other side's degree
    n = degrees.join(mu.d, nu.d)
    alphas = g._paths_of_degree(mu.s, degrees.sub(n, mu.d))
    betas = g._paths_of_degree(nu.s, degrees.sub(n, nu.d))
    swap = len(betas) < len(alphas)
    if swap:
        mu, nu, alphas = nu, mu, betas
    rows = []
    for alpha in alphas:
        tau = g.compose(mu, alpha)
        head, beta = g.split(tau, nu.d)
        if head == nu:
            rows.append((tau, beta, alpha) if swap else (tau, alpha, beta))
    rows.sort(key=lambda row: row[0].sort_key())
    return tuple(tuple(row[i] for row in rows) for i in range(3))


def lambda_min(g: KGraph, mu: Path, nu: Path) -> Tuple[MinPair, ...]:
    """The continuation pairs (alpha, beta) with mu·alpha = nu·beta minimal."""
    _, alphas, betas = _min_triples(g, mu, nu)
    out = map(MinPair, alphas, betas)
    return tuple(sorted(out, key=lambda p: (p.alpha.sort_key(), p.beta.sort_key())))


def ext(g: KGraph, mu: Path, E: Iterable[Path]) -> Tuple[Path, ...]:
    """Continuations of mu that realize a minimal common extension with E."""
    E = frozenset(E)
    if E and common_range(E) != mu.r:
        raise KGraphError("ext needs r(mu) equal to the common range of E")
    return g.memo(("ext", mu, E), _ext, g, mu, E)


def _ext(g: KGraph, mu: Path, E: PathSet) -> Tuple[Path, ...]:
    out = set()
    for nu in E:
        out.update(_min_triples(g, mu, nu)[1])
    return sorted_paths(out)


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


def pi_closure(g: KGraph, G: Iterable[Path]) -> Tuple[Path, ...]:
    """Least superset closed under λ·alpha for degree/source-matched triples."""
    cur = set(G)
    changed = True
    while changed:
        changed = False
        items = sorted(cur, key=Path.sort_key)
        for lam in items:
            for mu in items:
                if lam.d != mu.d or lam.s != mu.s:
                    continue
                for sigma in items:
                    if mu.r != sigma.r:
                        continue
                    for pair in lambda_min(g, mu, sigma):
                        cand = g.compose(lam, pair.alpha)
                        if cand not in cur:
                            cur.add(cand)
                            changed = True
    return sorted_paths(cur)


# -- cap-bounded exhaustiveness ------------------------------------------------


@dataclass
class VertexUniverse:
    """The capped paths at one vertex, numbered, with the tables that let
    path sets at the vertex be carried as bitmasks.

    Path id i is the position in ``paths`` (id 0 is the vertex identity).
    Bitmask bit j refers to members[j] = paths[j + 1], the non-identity
    paths, so a member mask is a path mask shifted down by one.  Built
    eagerly for each capped path: which members it extends (captured),
    which members it has a common extension with (compat), the
    captured-masks of its one-edge extensions that leave the cap box
    (beyond) with the source of each extension's edge (beyond_src), and,
    per degree below its own, the id of its prefix and the matching
    suffix path (prefix, suffix).  The continuation and composition rows
    are filled on first use.

    The universe of a quotient graph is the restriction of its parent's
    universe at the vertex (``parent``) to the paths with source outside
    H, renumbered in the same order; ``strip_mask`` carries a member mask
    of the parent's universe across.
    """

    graph: KGraph = field(repr=False, compare=False)
    vertex: str
    cap: Degree
    paths: Tuple[Path, ...]
    members: Tuple[Path, ...]
    index: Dict[Path, int]
    member_index: Dict[Path, int]
    captured: List[int]
    compat: List[int]
    beyond: List[List[int]]
    prefix: List[Dict[Degree, int]]
    suffix: List[Dict[Degree, Path]]
    beyond_src: List[List[str]]
    parent: Optional["VertexUniverse"] = field(default=None, repr=False, compare=False)
    # parent member j -> its member bit here, 0 when dropped; None when
    # the restriction drops no member
    _kept_bits: Optional[List[int]] = field(default=None, repr=False, compare=False)
    _cont: Dict[int, List[int]] = field(default_factory=dict, repr=False, compare=False)
    _comp: Dict[int, Tuple[List[int], Dict[int, Path]]] = field(
        default_factory=dict, repr=False, compare=False
    )

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
        for i, lam in enumerate(self.paths):
            if self.captured[i] & emask:
                continue
            if not self.compat[i] & emask:
                return false_certified(lam)
            if not overflow:
                for chmask in self.beyond[i]:
                    if not chmask & emask:
                        overflow = True
                        break
        if overflow:
            return unknown_at_cap(self.cap)
        return true_certified()

    def continuations(self, i: int) -> List[int]:
        """Row i of the continuation table: entry j is the path mask, in the
        universe at paths[i].s, of ext(paths[i], {members[j]})."""
        row = self._cont.get(i)
        if row is None:
            mu = self.paths[i]
            at = universe(self.graph, mu.s, self.cap).index
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

    def ext_mask(self, i: int, emask: int) -> int:
        """Path mask, in the universe at paths[i].s, of ext(paths[i], E) for
        the member set E given by emask.  Bit 0 (the identity) is set only
        when paths[i] extends a member of E."""
        return _union_of_bits(self.continuations(i), emask)

    def strip_mask(self, pmask: int) -> int:
        """Member mask here of the members of the parent's universe in
        pmask that the restriction keeps: on a quotient by H, the strip
        of the set by H.  A universe with no parent keeps every member."""
        if self._kept_bits is None:
            return pmask
        return _union_of_bits(self._kept_bits, pmask)

    def compositions(self, i: int) -> Tuple[List[int], Dict[int, Path]]:
        """Row i of the composition table, over the members at paths[i].s:
        entry j is the member bit here of paths[i]·members[j] there, or 0
        when the product leaves the cap; the second value maps each such j
        to the product itself."""
        hit = self._comp.get(i)
        if hit is None:
            lam = self.paths[i]
            uni = universe(self.graph, lam.s, self.cap)
            there, at = uni.members, uni.member_index
            row = [0] * len(there)
            for t, pre in enumerate(self.prefix):
                if t != i and pre.get(lam.d) == i:
                    row[at[self.suffix[t][lam.d]]] = 1 << (t - 1)
            base = self
            while base.parent is not None:  # a quotient's paths compose as in its parent
                base = base.parent
            out = {j: base.graph.compose(lam, q) for j, q in enumerate(there) if not row[j]}
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
    paths = g.paths_up_to(v, cap)
    members = paths[1:]
    index = {p: i for i, p in enumerate(paths)}
    prefix: List[Dict[Degree, int]] = []
    suffix: List[Dict[Degree, Path]] = []
    for tau in paths:
        pre: Dict[Degree, int] = {}
        suf: Dict[Degree, Path] = {}
        for m in degrees.below(tau.d):
            head, suf[m] = g.split(tau, m)
            pre[m] = index[head]
        prefix.append(pre)
        suffix.append(suf)
    beyond: List[List[int]] = []
    beyond_src: List[List[str]] = []
    for lam in paths:
        masks, srcs = [], []
        for e in g.edges_at(lam.s):
            q = g.compose(lam, g.path([e.eid]))
            if degrees.leq(q.d, cap):
                continue
            qmask = 0
            for m in degrees.below(q.d):
                if any(m) and degrees.leq(m, cap):
                    qmask |= 1 << (index[g.prefix(q, m)] - 1)
            masks.append(qmask)
            srcs.append(e.s)
        beyond.append(masks)
        beyond_src.append(srcs)
    return VertexUniverse(
        g, v, cap, paths, members, index, {p: i - 1 for p, i in index.items() if i},
        _captured(prefix), _compat(paths, prefix), beyond, prefix, suffix, beyond_src,
    )


def _restrict_universe(gq: KGraph, v: str, cap: Degree, g: KGraph, H: FrozenSet[str]) -> VertexUniverse:
    """The universe of gq = quotient_graph(g, H) at v, read off g's: a path
    with source outside H has every vertex outside H, so the capped paths
    of gq at v, their factorizations and their one-edge extensions are
    those of g whose source is outside H.  Common extensions are not: two
    paths can meet in g only beyond H, so compat is recomputed."""
    gq.require_vertex(v)
    up = _universe(g, v, cap)
    kept = [t for t, p in enumerate(up.paths) if p.s not in H]
    if len(kept) == len(up.paths):
        paths, members, index, member_index = up.paths, up.members, up.index, up.member_index
        captured, compat, prefix, suffix = up.captured, up.compat, up.prefix, up.suffix
        kept_bits = None
    else:
        paths = tuple(up.paths[t] for t in kept)
        members = paths[1:]
        index = {p: i for i, p in enumerate(paths)}
        member_index = {p: i - 1 for p, i in index.items() if i}
        new = {t: i for i, t in enumerate(kept)}
        prefix = [{m: new[p] for m, p in up.prefix[t].items()} for t in kept]
        suffix = [up.suffix[t] for t in kept]
        captured, compat = _captured(prefix), _compat(paths, prefix)
        kept_bits = [0] * len(up.members)
        for i, t in enumerate(kept[1:]):
            kept_bits[t - 1] = 1 << i
    beyond: List[List[int]] = []
    beyond_src: List[List[str]] = []
    for t in kept:
        masks, srcs = [], []
        for mask, s in zip(up.beyond[t], up.beyond_src[t]):
            if s not in H:
                masks.append(mask if kept_bits is None else _union_of_bits(kept_bits, mask))
                srcs.append(s)
        beyond.append(masks)
        beyond_src.append(srcs)
    return VertexUniverse(
        gq, v, cap, paths, members, index, member_index,
        captured, compat, beyond, prefix, suffix, beyond_src, up, kept_bits,
    )


def _make_universe(g: KGraph, v: str, cap: Degree) -> VertexUniverse:
    quotient_of = g.memo(QUOTIENT_OF, tuple)
    if quotient_of:
        return _restrict_universe(g, v, cap, *quotient_of)
    return _build_universe(g, v, cap)


def _universe(g: KGraph, v: str, cap: Degree) -> VertexUniverse:
    # for callers that hold a checked cap
    return g.memo(("universe", v, cap), _make_universe, g, v, cap)


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


@dataclass
class FEFamily:
    """Capped finite-exhaustive candidates, per vertex, with certifications.

    A set is kept as its member mask in the universe of ``graph`` at its
    vertex and ``cap``; ``sets_at`` and ``all_sets`` build the path sets.
    """

    graph: KGraph = field(repr=False, compare=False)
    cap: Degree
    by_vertex: Dict[str, Dict[int, CertifiedBool]] = field(default_factory=dict)

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


def fe_sets_all(g: KGraph, cap: Degree) -> FEFamily:
    fam = FEFamily(g, degrees.check(cap, g.k))
    for v in g.vertices:
        fam.by_vertex.update(fe_sets(g, v, cap).by_vertex)
    return fam


def minimal_antichain(g: KGraph, E: Iterable[Path]) -> Tuple[Path, ...]:
    """Members of E that extend no other member; exhaustiveness only
    depends on this antichain."""
    E = sorted_paths(E)
    out = [p for p in E if not any(q != p and g.extends(p, q) for q in E)]
    return tuple(out)
