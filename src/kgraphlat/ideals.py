"""Hereditary/saturated vertex sets, quotient graphs, satiation closures,
and the lattice of (H, B) pairs indexing gauge-invariant ideals.

All quantifiers over infinite path or set universes are cap-bounded and
answered with certificates.  A FalseCertified answer always carries a
witness that replays against the raw definitions; honest unknowns are
propagated instead of guessed.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from . import degrees
from .align import (
    QUOTIENT_OF,
    FEFamily,
    PathSet,
    VertexUniverse,
    ext,
    fe_sets,
    is_exhaustive,
    universe,
)
from .certify import CertifiedBool, false_certified, true_certified, unknown_at_cap
from .degrees import Degree
from .kgraph import KGraph, KGraphError, Path, Skeleton, is_locally_convex

# Work limits for the combinatorial (S3)/(S4) scans; exceeding one only
# downgrades a certificate to UnknownAtCap, never changes a decided answer.
S3_BUDGET = 50_000
S4_BUDGET = 50_000


def set_sort_key(S: PathSet):
    return tuple(sorted(p.sort_key() for p in S))


def fmt_vertexset(H: Iterable[str]) -> str:
    return "{" + ",".join(sorted(H)) + "}"


def fmt_pathset(S: Iterable[Path]) -> str:
    return "{" + ",".join(p.literal() for p in sorted(S, key=Path.sort_key)) + "}"


@dataclass(frozen=True)
class VertexSet:
    members: Tuple[str, ...]
    hereditary: bool
    saturated: CertifiedBool

    @property
    def as_frozenset(self) -> FrozenSet[str]:
        return frozenset(self.members)


# -- hereditary sets -------------------------------------------------------------


def is_hereditary(g: KGraph, H: Iterable[str]) -> bool:
    """Closed toward sources: any edge with range in H has its source in H."""
    H = frozenset(H)
    for v in H:
        g.require_vertex(v)
    return all(e.s in H for e in g.edges if e.r in H)


def hereditary_closure(g: KGraph, G: Iterable[str]) -> FrozenSet[str]:
    """Least hereditary superset, by edge reachability toward sources."""
    out = set(G)
    for v in out:
        g.require_vertex(v)
    frontier = list(out)
    succ: Dict[str, List[str]] = {}
    for e in g.edges:
        succ.setdefault(e.r, []).append(e.s)
    while frontier:
        v = frontier.pop()
        for w in succ.get(v, ()):
            if w not in out:
                out.add(w)
                frontier.append(w)
    return frozenset(out)


# -- saturation ----------------------------------------------------------------


def _h_sourced_paths(g: KGraph, v: str, H: FrozenSet[str], cap: Degree) -> PathSet:
    return frozenset(p for p in g.paths_up_to(v, cap) if p.s in H and not p.is_vertex)


def _minimize_exhaustive(g: KGraph, F: PathSet, cap: Degree) -> PathSet:
    """Greedy shrink of a TrueCertified exhaustive set, for readable witnesses."""
    cur = set(F)
    for p in sorted(F, key=Path.sort_key, reverse=True):
        if len(cur) == 1:
            break
        trial = cur - {p}
        if trial and is_exhaustive(g, trial, cap).is_true:
            cur = trial
    return frozenset(cur)


def is_saturated(g: KGraph, H: Iterable[str], cap: Degree) -> CertifiedBool:
    """Certified check that no outside vertex admits a capped exhaustive
    set with all sources in H; a refutation names the vertex and a
    greedily shrunk exhaustive set."""
    H = frozenset(H)
    cap = degrees.check(cap, g.k)
    if not is_hereditary(g, H):
        raise KGraphError(f"{fmt_vertexset(H)} is not hereditary")
    cert = _saturation_status(g, H, cap)
    if cert.is_false:
        v, fmax = cert.witness
        return false_certified((v, _minimize_exhaustive(g, fmax, cap)))
    return cert


def _saturation_status(g: KGraph, H: FrozenSet[str], cap: Degree) -> CertifiedBool:
    """Saturation of any vertex set, hereditary or not.

    The capped candidates at a vertex are monotone in the member set, so
    only the maximal candidate needs certifying: if it fails with a
    witness, every subset fails with the same witness.  The first vertex
    whose maximal candidate is certified exhaustive refutes saturation,
    with (vertex, candidate) as witness; otherwise any unknown check
    makes the answer unknown.
    """
    unknown = False
    for v in g.vertices:
        if v in H:
            continue
        fmax = _h_sourced_paths(g, v, H, cap)
        if not fmax:
            continue
        cert = is_exhaustive(g, fmax, cap)
        if cert.is_true:
            return false_certified((v, fmax))
        if cert.is_unknown:
            unknown = True
    if unknown:
        return unknown_at_cap(cap)
    return true_certified()


def saturation(g: KGraph, G: Iterable[str], cap: Degree) -> VertexSet:
    """Least capped fixed point adding every vertex certified to carry an
    exhaustive set with sources inside the growing set, one refutation's
    vertex at a time: certified sets stay certified as the set grows, so
    the order does not change the fixed point."""
    cap = degrees.check(cap, g.k)
    cur = frozenset(G)
    for v in cur:
        g.require_vertex(v)
    status = _saturation_status(g, cur, cap)
    while status.is_false:
        cur |= {status.witness[0]}
        status = _saturation_status(g, cur, cap)
    members = tuple(sorted(cur))
    return VertexSet(members, is_hereditary(g, members), status)


def _hereditary_combos(g: KGraph) -> Iterator[Tuple[str, ...]]:
    """Every hereditary vertex set, as the combinations of g.vertices by
    size that is_hereditary accepts, tested by vertex masks."""
    verts = g.vertices
    bits = g.vertex_bits()
    # the vertex mask of the sources of the edges into each vertex; a
    # source that is no vertex takes a bit that no vertex set holds
    outside = 1 << len(verts)
    into = dict.fromkeys(verts, 0)
    for e in g.edges:
        if e.r in into:
            into[e.r] |= bits.get(e.s, outside)
    for n in range(len(verts) + 1):
        for combo in itertools.combinations(verts, n):
            hmask = need = 0
            for v in combo:
                hmask |= bits[v]
                need |= into[v]
            if not need & ~hmask:
                yield combo


def enumerate_sat_hered(g: KGraph, cap: Degree) -> List[VertexSet]:
    """All hereditary H with saturation certified or unknown-at-cap,
    including the empty set and the full vertex set."""
    cap = degrees.check(cap, g.k)
    out: List[VertexSet] = []
    for combo in _hereditary_combos(g):
        cert = _saturation_status(g, frozenset(combo), cap)
        if not cert.is_false:
            out.append(VertexSet(combo, True, cert))
    out.sort(key=lambda h: (len(h.members), h.members))
    return out


# -- quotient graphs and the stripped family ------------------------------------


def quotient_graph(g: KGraph, H: Iterable[str]) -> KGraph:
    """The sub-k-graph on paths with source outside H (H hereditary).

    A path of g with source outside H has every vertex outside H: an edge
    with range in H has its source in H, so a path that enters H stays
    there.  Its edges and every factorization of it therefore lie in the
    quotient, where it has the same normal form.  The quotient records g
    and H in its memo, and its capped universes are restrictions of g's.
    With H empty the quotient is g itself, which then shares its memo."""
    H = frozenset(H)
    if not is_hereditary(g, H):
        raise KGraphError(f"quotient needs a hereditary set, got {fmt_vertexset(H)}")
    return _quotient_by(g, H)


def _quotient_by(g: KGraph, H: FrozenSet[str]) -> KGraph:
    """quotient_graph for a set already known to be hereditary."""
    if not H:
        return g
    return g.memo(("quotient", H), _quotient, g, H)


def _quotient(g: KGraph, H: FrozenSet[str]) -> KGraph:
    verts = [v for v in g.vertices if v not in H]
    edges = [(e.eid, e.color, e.r, e.s) for e in g.edges if e.s not in H]
    kept = {e[0] for e in edges}
    squares = [sq for sq in g.squares if all(x in kept for x in (*sq.lhs, *sq.rhs))]
    gq = KGraph(Skeleton.build(g.k, verts, edges), squares)
    gq.memo(QUOTIENT_OF, lambda: (g, H))
    return gq


# A set inside the package is (vertex, member mask) in the universe of its
# graph at the cap; frozensets of paths are built only for results.
SetKey = Tuple[str, int]


def _candidates(g: KGraph, v: str, cap: Degree) -> Dict[int, CertifiedBool]:
    """The capped candidates at v by member mask, in fe_sets order: the
    one candidate table of the closures."""
    return g.memo(("fe", v, cap), fe_sets, g, v, cap).by_vertex.get(v, {})


def _mask_key(mask: int) -> Tuple[int, ...]:
    """Sort key of a member mask: orders the sets at one vertex as
    set_sort_key does, because member order is Path.sort_key order."""
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


def _set_sort_key(g: KGraph, cap: Degree):
    """Sort key of a SetKey of g: orders sets as set_sort_key does, across
    vertices too, without building them."""
    keys: Dict[str, List[tuple]] = {}

    def key(vm: SetKey) -> Tuple[tuple, ...]:
        v, mask = vm
        sk = keys.get(v)
        if sk is None:
            sk = keys[v] = [p.sort_key() for p in universe(g, v, cap).members]
        return tuple(sk[j] for j in _mask_key(mask))

    return key


def _set(g: KGraph, vm: SetKey, cap: Degree) -> PathSet:
    return universe(g, vm[0], cap).set_of(vm[1])


def _strip(E: PathSet, H: FrozenSet[str]) -> PathSet:
    return frozenset(p for p in E if p.s not in H)


def _verify_refutation(g: KGraph, E: PathSet, tau: Path) -> bool:
    """Exact replay: tau has the right range and no continuation meets E.

    A path of quotient_graph(g, H) is a path of g with source outside H,
    so a minimal common extension there is one in g with source outside
    H, and ext(gq, tau, E) = {alpha in ext(g, tau, E) : s(alpha) not in H}.
    On a quotient, and on a quotient of a quotient, the replay runs on the
    root graph, and no path arithmetic runs on the quotient."""
    if tau.r != next(iter(E)).r:
        return False
    H: FrozenSet[str] = frozenset()
    quotient_of = g.memo(QUOTIENT_OF, tuple)
    while quotient_of:
        g, more = quotient_of
        H |= more
        quotient_of = g.memo(QUOTIENT_OF, tuple)
    return all(alpha.s in H for alpha in ext(g, tau, E))


def _path_in(g: KGraph, p: Path) -> bool:
    return g.has_vertex(p.r) and all(e in g._edge for e in p.edges)


@dataclass
class SatiatedFamily:
    """A capped family of exhaustive-set candidates with closure status.

    ``refuted_parents`` and ``quotient_refuted`` carry verified witnesses
    (a path whose continuation set against the refuted candidate is
    empty); ``tainted`` lists members excluded without a parent-level
    refutation, which only happens under an unknown-at-cap H.

    ``satiated`` (the closure certificate) and ``overflow`` (the
    substitution products that exceed the cap) come from one check scan
    of ``base``, made when either is first read.  A stripped family scans
    with the refuted sets its loop ended with as known bad.
    """

    base: FEFamily
    cap: Degree
    refuted_parents: Dict[PathSet, Path] = field(default_factory=dict)
    quotient_refuted: Dict[PathSet, Path] = field(default_factory=dict)
    tainted: Dict[PathSet, CertifiedBool] = field(default_factory=dict)
    # (satiated, overflow), None until the check scan has run
    _checked: Optional[Tuple[CertifiedBool, Tuple[Path, ...]]] = field(default=None, repr=False, compare=False)
    _known_bad: Tuple[SetKey, ...] = field(default=(), repr=False, compare=False)

    def _check(self) -> Tuple[CertifiedBool, Tuple[Path, ...]]:
        if self._checked is None:
            gq = self.base.graph
            res = _scan_satiation(gq, self.base.by_vertex, self.cap, extend=False, known_bad=self._known_bad)
            self._checked = (_verdict(gq, res, self.cap), tuple(sorted(res.overflow, key=Path.sort_key)))
        return self._checked

    @property
    def satiated(self) -> CertifiedBool:
        return self._check()[0]

    @property
    def overflow(self) -> Tuple[Path, ...]:
        return self._check()[1]

    def sets(self) -> FrozenSet[PathSet]:
        return frozenset(self.base.all_sets())

    def certs(self) -> Dict[PathSet, CertifiedBool]:
        return self.base.all_sets()


# A family as the closure scan takes it: per vertex, the member masks of
# its sets in _mask_key order, as dict keys so that membership is a lookup.
Family = Dict[str, Dict[int, object]]


def _normalize_family(gq: KGraph, fam, cap: Degree) -> Family:
    """The one entry for families given to the public closure functions.

    An FEFamily or SatiatedFamily on gq at this cap passes through as
    masks; any other family is read as path sets, which must lie in the
    capped universe."""
    if isinstance(fam, SatiatedFamily):
        fam = fam.base
    if isinstance(fam, FEFamily) and fam.graph is gq and fam.cap == cap:
        masks = {v: list(d) for v, d in fam.by_vertex.items()}
    else:
        grouped: Dict[str, List[PathSet]] = {}
        for S in fam.all_sets() if isinstance(fam, FEFamily) else map(frozenset, fam):
            if S:
                grouped.setdefault(next(iter(S)).r, []).append(S)
        masks = {}
        for v in sorted(grouped):
            uni = universe(gq, v, cap)
            outside = [S for S in grouped[v] if any(p not in uni.member_index for p in S)]
            if outside:
                S = min(outside, key=set_sort_key)
                raise KGraphError(f"family member {fmt_pathset(S)} leaves the capped universe at {v!r}")
            masks[v] = [uni.mask_of(S) for S in grouped[v]]
    return {v: dict.fromkeys(sorted(ms, key=_mask_key)) for v, ms in masks.items() if ms}


@dataclass
class _ScanResult:
    additions: Set[SetKey] = field(default_factory=set)
    violations: List[Tuple] = field(default_factory=list)  # (rule, G, extra, D), G and D SetKeys
    taints: List[str] = field(default_factory=list)  # the rule of each derived set left out
    overflow: Set[Path] = field(default_factory=set)
    budget_hit: List[str] = field(default_factory=list)
    s4_missing: int = 0

    @property
    def dirty(self) -> bool:
        return bool(self.taints or self.overflow or self.budget_hit or self.s4_missing)


def _s2_walk(uni: VertexUniverse, family: Family) -> Iterator[Tuple[int, Path, int]]:
    """The (S2) derivatives of the family's sets at uni's vertex that the
    family lacks, as (member mask G, mu, derivative mask D), set by set in
    family order and then by path id; D is 0 when the derivative is empty.

    A path already extending G is skipped: its continuations include the
    identity.  No other path's continuations do."""
    for gm in family[uni.vertex]:
        for i, mu in enumerate(uni.paths):
            if uni.captured[i] & gm:
                continue
            dmask = uni.ext_mask(i, gm) >> 1
            if not dmask or dmask not in family.get(mu.s, ()):
                yield gm, mu, dmask


def _scan_satiation(gq: KGraph, family: Family, cap: Degree, extend: bool,
                    known_bad: Iterable[SetKey] = ()) -> _ScanResult:
    """One round of the (S1)-(S4) closure rules over the capped universe.

    In check mode a missing (S1)-(S3) demand that is itself a capped
    candidate is a violation; (S4) misses, everything blocked by the cap,
    and derived sets covered by a verified refutation (a subset of one of
    the known_bad sets) only dirty the result.  In extend mode missing
    candidates are collected as additions instead.
    """
    res = _ScanResult()
    bad_at: Dict[str, List[int]] = {}
    for v, mask in known_bad:
        bad_at.setdefault(v, []).append(mask)

    def demand(rule: str, G: SetKey, extra, dmask: int, dv: str, times: int = 1):
        """Handle a derived set, given by its mask at dv, that the rules
        require to be present; times counts the (S4) assignments giving it."""
        if dmask in family.get(dv, ()):
            return
        if dmask not in _candidates(gq, dv, cap):
            # not a capped candidate: certified non-exhaustive derivative
            res.taints.extend([rule] * times)
        elif any(not dmask & ~Y for Y in bad_at.get(dv, ())):
            # a verified refutation covers D, so its absence is explained
            res.taints.extend([rule + "-refuted"] * times)
        elif extend:
            res.additions.add((dv, dmask))
        elif rule == "S4":
            res.s4_missing += times
        else:
            res.violations.append((rule, G, extra, (dv, dmask)))

    for v in sorted(family):
        fam = family[v]
        uni = universe(gq, v, cap)
        m = len(uni.members)
        # (S1): upward closure inside the candidate universe, via subset DP
        contains = bytearray(1 << m)
        for mask in range(1, 1 << m):
            if mask in fam:
                contains[mask] = 1
                continue
            mm = mask
            while mm:
                low = mm & -mm
                if contains[mask ^ low]:
                    contains[mask] = 1
                    break
                mm ^= low
        for fmask in _candidates(gq, v, cap):
            if contains[fmask] and fmask not in fam:
                if extend:
                    res.additions.add((v, fmask))
                else:
                    gm = next(gm for gm in fam if gm & fmask == gm)
                    res.violations.append(("S1", (v, gm), None, (v, fmask)))

        # (S2): extensions along capped paths
        for gm, mu, dmask in _s2_walk(uni, family):
            if dmask:
                demand("S2", (v, gm), mu, dmask, mu.s)
            else:
                res.taints.append("S2-empty")

        # (S3): initial segments, one nonzero cut per member
        s3_left = S3_BUDGET
        for gm in fam:
            cuts = []
            bits = []
            for j in _mask_key(gm):
                pre = uni.prefix[j + 1]
                cuts.append([n for n, p in pre.items() if p])
                bits.append([1 << (p - 1) for p in pre.values() if p])
            count = 1
            for c in cuts:
                count *= len(c)
            if count > s3_left:
                res.budget_hit.append(f"S3 at {v}")
                break
            s3_left -= count
            for combo, parts in zip(itertools.product(*cuts), itertools.product(*bits)):
                dmask = 0
                for b in parts:
                    dmask |= b
                if dmask != gm:
                    demand("S3", (v, gm), combo, dmask, v)

        # (S4): substitute members by their own family sets
        prod_cache: Dict[Tuple[int, int], Optional[int]] = {}

        def products(i: int, slmask: int) -> Optional[int]:
            """Mask of paths[i] composed with every member of the set
            slmask at its source; None when capped out."""
            key = (i, slmask)
            if key not in prod_cache:
                row, beyond = uni.compositions(i)
                part = 0
                blocked = False
                while slmask:
                    low = slmask & -slmask
                    slmask ^= low
                    j = low.bit_length() - 1
                    if row[j]:
                        part |= row[j]
                    else:
                        res.overflow.add(beyond[j])
                        blocked = True
                prod_cache[key] = None if blocked else part
            return prod_cache[key]

        s4_left = S4_BUDGET
        for gm in fam:
            if s4_left <= 0:
                break
            members = _mask_key(gm)
            for r in range(1, len(members) + 1):
                if s4_left <= 0:
                    break
                for Gp in itertools.combinations(members, r):
                    options = [family.get(uni.members[j].s, ()) for j in Gp]
                    if any(not o for o in options):
                        continue
                    count = 1
                    for o in options:
                        count *= len(o)
                    if count > s4_left:
                        res.budget_hit.append(f"S4 at {v}")
                        s4_left = 0
                        break
                    s4_left -= count
                    base = gm
                    for j in Gp:
                        base &= ~(1 << j)
                    # the assignments' unions, built one member at a time
                    # and kept as {distinct partial union: assignments}; a
                    # product is computed exactly when some prefix of an
                    # assignment stays inside the cap, so overflow records
                    # the same escapes as a walk over every assignment
                    partials = {base: 1}
                    for j, opts in zip(Gp, options):
                        grown: Dict[int, int] = {}
                        for slmask in opts:
                            part = products(j + 1, slmask)
                            if part is None:
                                continue
                            for pmask, times in partials.items():
                                dmask = pmask | part
                                grown[dmask] = grown.get(dmask, 0) + times
                        partials = grown
                        if not partials:
                            break
                    for dmask, times in partials.items():
                        if dmask not in fam:
                            demand("S4", (v, gm), None, dmask, v, times)
    return res


def _verdict(gq: KGraph, res: _ScanResult, cap: Degree) -> CertifiedBool:
    """The certificate of a check-mode scan: the least violation, by rule
    and then by set_sort_key of G and D, is the witness."""
    if res.violations:
        key = _set_sort_key(gq, cap)
        rule, G, extra, D = min(res.violations, key=lambda vio: (vio[0], key(vio[1]), key(vio[3])))
        return false_certified((rule, _set(gq, G, cap), extra, _set(gq, D, cap)))
    if res.dirty:
        return unknown_at_cap(cap, witness=_dirty_summary(res))
    return true_certified()


def is_satiated(gq: KGraph, fam, cap: Degree) -> CertifiedBool:
    """Certified closure check of a family under supersets, extensions,
    truncations and substitutions, within the capped universe."""
    cap = degrees.check(cap, gq.k)
    return _verdict(gq, _scan_satiation(gq, _normalize_family(gq, fam, cap), cap, extend=False), cap)


def _dirty_summary(res: _ScanResult) -> Tuple[str, ...]:
    bits = []
    if res.taints:
        bits.append(f"{len(res.taints)} derived sets fell outside the candidate universe")
    if res.overflow:
        bits.append(f"{len(res.overflow)} substitution products exceed the cap")
    if res.s4_missing:
        bits.append(f"{res.s4_missing} substitution demands unresolved at cap")
    if res.budget_hit:
        bits.append("scan budget exceeded: " + ",".join(sorted(set(res.budget_hit))))
    return tuple(bits)


def satiation_closure(gq: KGraph, fam, cap: Degree) -> SatiatedFamily:
    """Least capped superset closed under (S1)-(S4); its verdict and cap
    escapes come from the check scan of the closed family."""
    cap = degrees.check(cap, gq.k)
    family = _normalize_family(gq, fam, cap)
    while True:
        res = _scan_satiation(gq, family, cap, extend=True)
        if not res.additions:
            break
        grown: Dict[str, List[int]] = {}
        for v, mask in res.additions:
            grown.setdefault(v, list(family.get(v, ()))).append(mask)
        for v, masks in grown.items():
            family[v] = dict.fromkeys(sorted(masks, key=_mask_key))
    # vertices in the order of their least set, as a set_sort_key sort of
    # all the sets would group them
    key = _set_sort_key(gq, cap)
    by_vertex: Dict[str, Dict[int, CertifiedBool]] = {}
    for v in sorted(family, key=lambda v: key((v, next(iter(family[v]))))):
        uni, table = universe(gq, v, cap), _candidates(gq, v, cap)
        by_vertex[v] = {mask: table[mask] if mask in table else uni.classify(mask) for mask in family[v]}
    return SatiatedFamily(base=FEFamily(gq, cap, by_vertex), cap=cap)


def restricted_fe_family(g: KGraph, H: Iterable[str], cap: Degree) -> SatiatedFamily:
    """Strip H-sourced members from every capped exhaustive-set candidate
    and certify the stripped family on the quotient graph.

    Capped candidate enumeration can admit sets that are not genuinely
    exhaustive (their refutations live beyond the cap).  Whenever a
    stripped set is refuted on the quotient, or an extension-rule
    derivative is covered by an existing refutation, the loop constructs
    and replays a concrete witness against the parent candidate and
    discards it.  Refutations are subset-monotone (a witness avoiding a
    set avoids every subset), so they propagate; the loop runs until the
    family is stable.

    H and the cap are checked only when the memo has no family for them:
    only checked arguments are ever stored, so a hit needs no check.
    """
    H = frozenset(H)
    hit = g._checked_hit(("ehfam", H, cap))
    if hit is None:
        cap = degrees.check(cap, g.k)
        if not is_hereditary(g, H):
            raise KGraphError(f"{fmt_vertexset(H)} is not hereditary")
        hit = g.memo(("ehfam", H, cap), _stripped_family, g, H, cap)
    return hit


def _stripped_family(g: KGraph, H: FrozenSet[str], cap: Degree) -> SatiatedFamily:
    """The stripped family of H (see restricted_fe_family).  Each round
    walks only rule (S2), whose misses drive the refutations; the family's
    (S1)-(S4) verdict and overflow are computed when first read, by one
    check scan of the final family."""
    gq = _quotient_by(g, H)

    # Parents are SetKeys of g, their strips SetKeys of gq.  Parents keep
    # the fe_sets order, since the order of refutations decides which
    # witness later checks reuse.
    parents: List[Tuple[SetKey, int]] = []  # (parent, strip mask)
    qcerts: Dict[SetKey, CertifiedBool] = {}
    for v in g.vertices:
        if v in H:
            continue
        uq = universe(gq, v, cap)  # the restriction of g's universe at v
        for emask, cert in _candidates(g, v, cap).items():
            smask = uq.strip_mask(emask)
            parents.append(((v, emask), smask))
            if gq is g:  # the strip is the parent, certificate included
                qcerts[(v, smask)] = cert
    qkey = _set_sort_key(gq, cap)
    # every strip in set_sort_key order; later rounds only lose strips
    order = sorted({(E[0], smask) for E, smask in parents if smask}, key=qkey)

    bad_parent: Dict[SetKey, Path] = {}
    bad_quotient: Dict[SetKey, Path] = {}
    tainted: Dict[SetKey, CertifiedBool] = {}

    def qcert(key: SetKey) -> CertifiedBool:
        """Capped exhaustiveness of a quotient set (is_exhaustive by mask)."""
        cert = qcerts.get(key)
        if cert is None:
            cert = qcerts[key] = universe(gq, key[0], cap).classify(key[1])
        return cert

    def refute(bad: Dict[SetKey, Path], gx: KGraph, key: SetKey, tau: Path) -> bool:
        """Record tau against the set key of gx (a parent or a strip) if it replays."""
        if key in bad or not _verify_refutation(gx, _set(gx, key, cap), tau):
            return False
        bad[key] = tau
        return True

    def quotient_bad_witness(key: SetKey) -> Optional[Path]:
        """A verified quotient witness for a set, via subset-monotone lookup."""
        if key in bad_quotient:
            return bad_quotient[key]
        w, dmask = key
        for (yv, ymask), sigma in bad_quotient.items():
            if yv == w and not dmask & ~ymask and refute(bad_quotient, gq, key, sigma):
                return sigma
        cert = qcert(key)
        if cert.is_false and refute(bad_quotient, gq, key, cert.witness):
            return cert.witness
        return None

    def refute_parents_of(parent_list: List[SetKey], mu: Path) -> bool:
        """Given a verified quotient witness mu against a strip, discard its parents."""
        progress = False
        fmax = _h_sourced_paths(g, mu.s, H, cap)
        lam0 = None
        if fmax:
            fcert = is_exhaustive(g, fmax, cap)
            if fcert.is_false:
                lam0 = fcert.witness
        for E in parent_list:
            if E in bad_parent:
                continue
            if lam0 is not None and refute(bad_parent, g, E, g.compose(mu, lam0)):
                progress = True
            elif refute(bad_parent, g, E, mu):
                progress = True
        return progress

    strips: Dict[SetKey, List[SetKey]] = {}
    while True:
        strips = {}
        for E, smask in parents:
            if smask and E not in bad_parent:
                strips.setdefault((E[0], smask), []).append(E)
        progress = False
        tainted = {}
        for key in order:
            if key not in strips:
                continue
            cert = qcert(key)
            if cert.is_false:
                refute(bad_quotient, gq, key, cert.witness)
            sigma = bad_quotient.get(key)
            if sigma is None:
                continue
            if refute_parents_of(strips[key], sigma):
                progress = True
            elif any(E not in bad_parent for E in strips[key]):
                tainted[key] = cert if cert.is_false else false_certified(sigma)
        if progress:
            continue

        # the round's family and its (S2) walk.  A missing (S2) derivative
        # certifies bogus inputs; refutations are verified independently,
        # so a whole round is collected before the family is rebuilt.  A
        # reaction can refute a derivative without progress, which the
        # next round must then see as known bad: one more round.
        family: Dict[str, Dict[int, CertifiedBool]] = {}
        for key in order:
            if key in strips and key not in bad_quotient and key not in tainted:
                family.setdefault(key[0], {})[key[1]] = qcert(key)
        s2_misses: Dict[SetKey, List[Tuple[Path, int]]] = {}
        for v in family:
            for gm, mu, dmask in _s2_walk(universe(gq, v, cap), family):
                if dmask:
                    s2_misses.setdefault((v, gm), []).append((mu, dmask))
        nbad = len(bad_quotient)
        for key in order:
            for mu, dmask in s2_misses.get(key, ()):
                # mu extends no member of the strip, and no H-sourced
                # member of a parent either (its source is outside H), so
                # no continuation below is the identity
                sigma = quotient_bad_witness((mu.s, dmask))
                if sigma is not None:
                    # the composite escapes the cap but replays exactly;
                    # it composes in g as in gq
                    mu_sigma = g.compose(mu, sigma)
                    if refute(bad_quotient, gq, key, mu_sigma):
                        if not refute_parents_of(strips[key], mu_sigma):
                            tainted[key] = false_certified(mu_sigma)
                        progress = True
                        break
                ug = universe(g, key[0], cap)
                iu, at_source = ug.index[mu], universe(g, mu.s, cap)
                for E in strips[key]:
                    if E in bad_parent:
                        continue
                    pmask = ug.ext_mask(iu, E[1]) >> 1
                    if not pmask:
                        if refute(bad_parent, g, E, mu):
                            progress = True
                        continue
                    pcert = at_source.classify(pmask)
                    if pcert.is_false and refute(bad_parent, g, E, g.compose(mu, pcert.witness)):
                        progress = True
                    else:
                        for (yv, ymask), tau in bad_parent.items():
                            if yv == mu.s and not pmask & ~ymask and refute(bad_parent, g, E, g.compose(mu, tau)):
                                progress = True
                                break
        if not progress and len(bad_quotient) == nbad:
            break

    # the last round refuted nothing new: these are the refuted sets of
    # its family, which the verdict scan takes as known bad
    known_bad = [(E[0], smask) for E, smask in parents if E in bad_parent] + list(bad_quotient)
    gkey = _set_sort_key(g, cap)
    return SatiatedFamily(
        base=FEFamily(gq, cap, family),
        cap=cap,
        _known_bad=tuple(known_bad),
        refuted_parents={_set(g, E, cap): tau for E, tau in sorted(bad_parent.items(), key=lambda kv: gkey(kv[0]))},
        quotient_refuted={_set(gq, key, cap): sigma
                          for key, sigma in sorted(bad_quotient.items(), key=lambda kv: qkey(kv[0]))},
        tainted={_set(gq, key, cap): cert for key, cert in tainted.items()},
    )


# -- ideal pairs and the lattice --------------------------------------------------


@dataclass(frozen=True)
class IdealPair:
    graph_key: object
    cap: Degree
    H: Tuple[str, ...]
    B: Tuple[PathSet, ...]
    h_saturated: CertifiedBool
    # the graph whose stripped family of H the pair reads on demand
    graph: KGraph = field(repr=False, compare=False)
    # the closed family the pair indexes: the stripped family, or for a
    # nonempty B its satiation closure; None reads the stripped family
    closure: Optional[SatiatedFamily] = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def stripped(self) -> SatiatedFamily:
        """The stripped family of H, built on first read.  It is memoized
        on the graph, so a replaced copy of the pair reads the same one."""
        return restricted_fe_family(self.graph, self.H, self.cap)

    @property
    def eh_sets(self) -> FrozenSet[PathSet]:
        """The stripped family of H as path sets, built on each read."""
        return frozenset(self.stripped.base.all_sets())

    @property
    def family_cert(self) -> CertifiedBool:
        """The closure certificate of the pair's family."""
        return (self.stripped if self.closure is None else self.closure).satiated

    @property
    def member_certs_true(self) -> bool:
        """No strip was tainted, and every member of the stripped family
        and of the pair's family is TrueCertified."""
        sf = self.stripped
        return not sf.tainted and _all_true(sf.base) and (self.closure is None or _all_true(self.closure.base))

    @property
    def exact(self) -> bool:
        """Certified-at-every-level tag.

        With B empty the pair is indexed by H alone: the stripped family
        of a saturated hereditary set is closed by construction, so only
        the saturation certificate matters.  A nonempty B additionally
        needs the closure scan and the member certificates.
        """
        if not self.h_saturated.is_true:
            return False
        if not self.B:
            return True
        return self.family_cert.is_true and self.member_certs_true

    def sort_key(self):
        return (len(self.H), self.H, len(self.B), tuple(set_sort_key(S) for S in self.B))

    def label(self) -> str:
        b = ",".join(fmt_pathset(S) for S in self.B) if self.B else ""
        tag = "exact" if self.exact else "at-cap"
        return f"H={fmt_vertexset(self.H)} B={{{b}}} [{tag}]"


def _keys(fam: FEFamily) -> FrozenSet[SetKey]:
    return frozenset((v, mask) for v, masks in fam.by_vertex.items() for mask in masks)


def _all_true(fam: FEFamily) -> bool:
    return all(c.is_true for certs in fam.by_vertex.values() for c in certs.values())


def enumerate_ideal_pairs(g: KGraph, cap: Degree) -> List[IdealPair]:
    """All pairs (H, B): saturated hereditary H plus a set family B that,
    together with the stripped family of H, is satiated at the cap.

    Distinct B candidates with the same satiation closure collapse to the
    closure, so each emitted pair indexes a distinct closed family.

    On a locally convex graph (is_locally_convex) every H gives its one
    pair (H, ∅), and no family is built.  Raeburn–Sims–Yeend, "Higher rank
    graphs and their C*-algebras" (Proc. Edinb. Math. Soc. 46, 2003),
    Theorem 5.2: for a row-finite, locally convex k-graph Λ, H ↦ I_H is a
    bijection from the saturated hereditary sets onto the gauge-invariant
    ideals of C*(Λ), where I_H is generated by the p_v with v ∈ H.  A
    finite presentation is row-finite.  The source paper's bijection
    (H, B) ↦ I_{H,B} sends (H, ∅) to that same I_H, so by injectivity no
    pair has B ≠ ∅.  This needs the two saturations to agree.  The
    paper's H is saturated when no v ∉ H has a finite exhaustive
    E ⊆ vΛ∖{v} with s(E) ⊆ H; RSY's when no v ∉ H has s(vΛ^{≤n}) ⊆ H,
    where vΛ^{≤n} holds the λ ∈ vΛ with d(λ) ≤ n and s(λ)Λ^{e_i} = ∅
    whenever d(λ) + e_i ≤ n.
    - Given such an E at v, let n = ∨d(E).  Each λ ∈ vΛ^{≤n} has a common
      extension with some μ ∈ E.  Were d(μ)_i > d(λ)_i, that extension
      would leave s(λ) in colour i while d(λ) + e_i ≤ n.  So d(λ) ≥ d(μ)
      and λ = μλ'; heredity puts s(λ) in H, and s(vΛ^{≤n}) ⊆ H.
    - Conversely, on a locally convex graph vΛ^{≤n} is finite and
      exhaustive (RSY compare the two Cuntz–Krieger relations in J. Funct.
      Anal. 213, 2004).  It contains v only when it is {v}, which
      s(vΛ^{≤n}) ⊆ H rules out for v ∉ H.
    The pair builds its stripped family only when it is read.

    Graphs that are not locally convex take the capped route: the
    stripped family of H, its B universe and the B search.  H = ∅ still
    gives (∅, ∅) without a family.  In the paper's indexing B lies in
    FE(Λ∖ΛH) minus the strips E_H, and E_∅ is all of FE(Λ).  In the code:
    the quotient by ∅ is g itself, so every candidate of g is its own only
    parent.  A candidate missing from the stripped family was therefore
    refuted on g by a verified witness lying in g, which certified_non_fe
    would replay, so the B universe is empty.
    """
    cap = degrees.check(cap, g.k)
    by_h_alone = is_locally_convex(g)
    pairs: List[IdealPair] = []
    for hv in enumerate_sat_hered(g, cap):
        H = hv.as_frozenset
        if by_h_alone or not H:
            pairs.append(IdealPair(g.cache_key(), cap, hv.members, (), hv.saturated, g))
            continue
        gq = _quotient_by(g, H)
        sf = restricted_fe_family(g, H, cap)
        basekeys = _keys(sf.base)
        cands = {(v, mask): c for v in gq.vertices for mask, c in _candidates(gq, v, cap).items()}
        # verified refutations as masks at their vertex in gq, replayed on
        # the quotient for every candidate they cover
        refutations = []
        for Y, tau in {**sf.quotient_refuted, **sf.refuted_parents}.items():
            yv = next(iter(Y)).r
            if _path_in(gq, tau):
                idx = universe(gq, yv, cap).member_index
                refutations.append((yv, sum(1 << idx[p] for p in Y if p in idx), tau))

        def certified_non_fe(D: SetKey) -> bool:
            v, dmask = D
            return any(yv == v and not dmask & ~ymask and _verify_refutation(gq, _set(gq, D, cap), tau)
                       for yv, ymask, tau in refutations)

        key = _set_sort_key(gq, cap)
        buniverse = sorted((D for D in cands if D not in basekeys and not certified_non_fe(D)), key=key)

        families: Dict[FrozenSet[SetKey], SatiatedFamily] = {basekeys: sf}
        queue: List[FrozenSet[SetKey]] = [basekeys]
        while queue:
            famkey = queue.pop(0)
            for x in buniverse:
                if x in famkey:
                    continue
                by_vertex = {v: dict(certs) for v, certs in families[famkey].base.by_vertex.items()}
                by_vertex.setdefault(x[0], {})[x[1]] = cands[x]
                cl = satiation_closure(gq, FEFamily(gq, cap, by_vertex), cap)
                clkey = _keys(cl.base)
                if clkey not in families:
                    families[clkey] = cl
                    queue.append(clkey)

        order = list(families)
        if len(order) > 1:
            order.sort(key=lambda fk: tuple(sorted(map(key, fk))))
        for famkey in order:
            B = tuple(_set(gq, D, cap) for D in sorted(famkey - basekeys, key=key))
            pairs.append(IdealPair(g.cache_key(), cap, hv.members, B, hv.saturated, g, families[famkey]))
    pairs.sort(key=IdealPair.sort_key)
    return pairs


def pair_leq(g: KGraph, p1: IdealPair, p2: IdealPair) -> bool:
    """Order on pairs: containment of H plus membership of the restricted
    B sets in the larger pair's family."""
    if p1.graph_key != g.cache_key() or p2.graph_key != g.cache_key():
        raise KGraphError("pairs come from a different graph")
    if p1.cap != p2.cap:
        raise KGraphError("pairs computed at different caps")
    H1, H2 = frozenset(p1.H), frozenset(p2.H)
    if not H1 <= H2:
        return False
    if not p1.B:
        return True
    allowed = p2.eh_sets | set(p2.B)
    for E in p1.B:
        if next(iter(E)).r in H2:
            continue
        if _strip(E, H2) not in allowed:
            return False
    return True


@dataclass
class IdealLattice:
    pairs: List[IdealPair]
    leq: List[List[bool]]
    hasse: Tuple[Tuple[int, int], ...]
    meets: Dict[Tuple[int, int], Optional[int]]
    joins: Dict[Tuple[int, int], Optional[int]]
    is_lattice: bool
    failures: Tuple[str, ...]
    cap: Degree


def ideal_lattice(g: KGraph, cap: Degree) -> IdealLattice:
    """The pair lattice with Hasse diagram; meets/joins recovered from the
    order by search, with any gaps at the cap reported rather than hidden."""
    cap = degrees.check(cap, g.k)
    pairs = enumerate_ideal_pairs(g, cap)
    n = len(pairs)
    leq = [[pair_leq(g, pairs[i], pairs[j]) for j in range(n)] for i in range(n)]
    hasse = []
    for i in range(n):
        for j in range(n):
            if i == j or not leq[i][j]:
                continue
            if any(leq[i][k] and leq[k][j] for k in range(n) if k not in (i, j)):
                continue
            hasse.append((i, j))
    meets: Dict[Tuple[int, int], Optional[int]] = {}
    joins: Dict[Tuple[int, int], Optional[int]] = {}
    failures: List[str] = []

    def extremum(i: int, j: int, lower: bool) -> Optional[int]:
        if lower:
            bound = [k for k in range(n) if leq[k][i] and leq[k][j]]
            best = [k for k in bound if all(leq[x][k] for x in bound)]
        else:
            bound = [k for k in range(n) if leq[i][k] and leq[j][k]]
            best = [k for k in bound if all(leq[k][x] for x in bound)]
        return best[0] if len(best) == 1 else None

    for i in range(n):
        for j in range(i, n):
            mt = extremum(i, j, lower=True)
            jn = extremum(i, j, lower=False)
            meets[(i, j)] = meets[(j, i)] = mt
            joins[(i, j)] = joins[(j, i)] = jn
            if mt is None:
                failures.append(f"no meet for nodes {i},{j}")
            if jn is None:
                failures.append(f"no join for nodes {i},{j}")
    return IdealLattice(
        pairs=pairs,
        leq=leq,
        hasse=tuple(sorted(hasse)),
        meets=meets,
        joins=joins,
        is_lattice=not failures,
        failures=tuple(failures),
        cap=cap,
    )
