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
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Tuple

from . import degrees
from .certify import CertifiedBool, false_certified, true_certified, unknown_at_cap
from .degrees import Degree
from .kgraph import KGraph, KGraphError, Path, sorted_paths

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
    """Minimal common extensions: degree d(mu)∨d(nu), extending both."""
    if mu.r != nu.r:
        raise KGraphError(f"mce needs a common range; got {mu.r!r} and {nu.r!r}")
    if nu.edges < mu.edges:  # mce is symmetric: one memo entry serves both orders
        mu, nu = nu, mu
    return g.memo(("mce", mu, nu), _mce, g, mu, nu)


def _mce(g: KGraph, mu: Path, nu: Path) -> Tuple[Path, ...]:
    n = degrees.join(mu.d, nu.d)
    return tuple(
        lam
        for lam in g.paths_of_degree(mu.r, n)
        if g.prefix(lam, mu.d) == mu and g.prefix(lam, nu.d) == nu
    )


def lambda_min(g: KGraph, mu: Path, nu: Path) -> Tuple[MinPair, ...]:
    """The continuation pairs (alpha, beta) with mu·alpha = nu·beta minimal."""
    out = []
    for tau in mce(g, mu, nu):
        alpha = g.split(tau, mu.d)[1]
        beta = g.split(tau, nu.d)[1]
        out.append(MinPair(alpha, beta))
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
        out.update(g.memo(("extc", mu, nu), _continuations, g, mu, nu))
    return sorted_paths(out)


def _continuations(g: KGraph, mu: Path, nu: Path) -> Tuple[Path, ...]:
    return tuple(g.split(tau, mu.d)[1] for tau in mce(g, mu, nu))


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
    (beyond), and, per degree below its own, the id of its prefix and the
    matching suffix path (prefix, suffix).  The continuation and
    composition rows are filled on first use.
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
        row = self.continuations(i)
        out = 0
        while emask:
            low = emask & -emask
            out |= row[low.bit_length() - 1]
            emask ^= low
        return out

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
            out = {j: self.graph.compose(lam, q) for j, q in enumerate(there) if not row[j]}
            hit = self._comp[i] = (row, out)
        return hit


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
    captured = []
    for pre in prefix:
        mask = 0
        for p in pre.values():
            if p:
                mask |= 1 << (p - 1)
        captured.append(mask)
    compat = [0] * len(paths)
    for t, pre in enumerate(prefix):
        dt = paths[t].d
        for a, pa in pre.items():
            for b, pb in pre.items():
                if pb and degrees.join(a, b) == dt:
                    compat[pa] |= 1 << (pb - 1)
    beyond: List[List[int]] = []
    for lam in paths:
        masks = []
        for e in g.edges_at(lam.s):
            q = g.compose(lam, g.path([e.eid]))
            if degrees.leq(q.d, cap):
                continue
            qmask = 0
            for m in degrees.below(q.d):
                if any(m) and degrees.leq(m, cap):
                    qmask |= 1 << (index[g.prefix(q, m)] - 1)
            masks.append(qmask)
        beyond.append(masks)
    return VertexUniverse(
        g, v, cap, paths, members, index, {p: i - 1 for p, i in index.items() if i},
        captured, compat, beyond, prefix, suffix,
    )


def universe(g: KGraph, v: str, cap: Degree) -> VertexUniverse:
    cap = degrees.check(cap, g.k)
    return g.memo(("universe", v, cap), _build_universe, g, v, cap)


def is_exhaustive(g: KGraph, E: Iterable[Path], cap: Degree) -> CertifiedBool:
    """Certified decision of whether E is exhaustive at its common range.

    Fast path: when all members fit in the capped universe, one bitmask
    scan answers.  The general route (members beyond the cap) checks the
    same capture/compatibility conditions path by path.
    """
    E = sorted_paths(E)
    if not E:
        raise KGraphError("exhaustiveness needs a nonempty candidate set")
    v = common_range(E)
    cap = degrees.check(cap, g.k)
    if any(p.is_vertex for p in E):
        raise KGraphError("exhaustive sets exclude the vertex identity")
    uni = universe(g, v, cap)
    if all(p in uni.member_index for p in E):
        return uni.classify(uni.mask_of(E))

    def captured(lam: Path) -> bool:
        return any(g.extends(lam, mu) for mu in E)

    def compatible(lam: Path) -> bool:
        return any(mce(g, lam, mu) for mu in E)

    overflow = False
    for lam in uni.paths:
        if captured(lam):
            continue
        if not compatible(lam):
            return false_certified(lam)
        for e in g.edges_at(lam.s):
            q = g.compose(lam, g.path([e.eid]))
            if not degrees.leq(q.d, cap) and not captured(q):
                overflow = True
    if overflow:
        return unknown_at_cap(cap)
    return true_certified()


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
