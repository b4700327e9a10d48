"""Hereditary/saturated vertex sets, quotient graphs, satiation closures,
and the lattice of gauge-invariant ideals.  The source paper indexes
those by pairs (H, B); no capped B exists (enumerate_ideal_pairs), so a
pair is a saturated hereditary H and the pairs are ordered by H.

All quantifiers over infinite path or set universes are cap-bounded and
answered with certificates.  A FalseCertified answer always carries a
witness that replays against the raw definitions; honest unknowns are
propagated instead of guessed.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from . import degrees
from .align import (
    FEFamily,
    PathSet,
    VertexUniverse,
    _union_of_bits,
    ext,
    fe_sets,
    is_exhaustive,
    universe,
)
from .certify import CertifiedBool, false_certified, true_certified, unknown_at_cap
from .degrees import Degree
from .kgraph import KGraph, KGraphError, Path, Skeleton
from .record import Record

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


class VertexSet(Record, frozen=True):
    __slots__ = ("members", "hereditary", "saturated")

    def __init__(self, members: Tuple[str, ...], hereditary: bool, saturated: CertifiedBool):
        self.members = members
        self.hereditary = hereditary
        self.saturated = saturated

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


def _outside_fed(g: KGraph) -> int:
    """The vertex mask of the ranges of edges whose source is no vertex:
    no hereditary set holds one of them, nor any vertex that reaches one."""
    bits = g.vertex_bits()
    return sum({bits[e.r] for e in g.edges if e.r in bits and e.s not in bits})


def hereditary_closure(g: KGraph, G: Iterable[str]) -> FrozenSet[str]:
    """Least hereditary superset: the union of the reach cones of G.  None
    exists, and KGraphError is raised, when it meets a range fed from no vertex.
    The ideal generated by {p_v : v in G} is I_H, where H is the saturation
    of this closure."""
    G = frozenset(G)
    reach = g.reach_masks()
    mask = 0
    for v in G:
        g.require_vertex(v)
        mask |= reach[v]
    if mask & _outside_fed(g):
        raise KGraphError(f"no hereditary set contains {fmt_vertexset(G)}: it reaches an edge from no vertex")
    return frozenset(g.vertices[j] for j in _mask_key(mask))


# -- saturation ----------------------------------------------------------------


def _h_sourced(g: KGraph, v: str, H: FrozenSet[str], hmask: int, cap: Degree) -> int:
    """Member mask at v of the capped paths with source in H, without the
    universe: bit j is paths_up_to(v, cap)[j + 1].  hmask is the vertex
    mask of H.  No path is listed when v reaches no vertex of H, since a
    path from v with source in H makes v reach its source: every edge of
    such a path joins two vertices, and reach_masks reads every such edge."""
    if not g.reach_masks()[v] & hmask:
        return 0
    return sum(1 << i for i, p in enumerate(g.paths_up_to(v, cap)) if p.s in H) >> 1


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
    makes the answer unknown.  A vertex that reaches no vertex of H has
    an empty maximal candidate, since a path's source is reached from its
    range, so no path is listed there.  At a cap with a zero coordinate
    no path of that colour is listed, so a vertex that reaches H may
    carry an exhaustive set that no capped candidate shows: the answer is
    true only when no vertex outside H reaches H.
    """
    unknown = False
    hmask = _vertex_mask(g.vertex_bits(), H)
    reach = g.reach_masks()
    for v in g.vertices:
        if v in H or not reach[v] & hmask:
            continue
        unknown = unknown or not all(cap)
        fmax = _h_sourced(g, v, H, hmask, cap)
        if not fmax:
            continue
        cert = universe(g, v, cap).classify(fmax)
        if cert.is_true:
            return false_certified((v, _set(g, (v, fmax), cap)))
        if cert.is_unknown:
            unknown = True
    return unknown_at_cap(cap) if unknown else true_certified()


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


def _hereditary_sets(g: KGraph) -> List[Tuple[str, ...]]:
    """Every hereditary vertex set, ordered by (size, members): the
    down-sets of reachability, listed as Steiner lists the ideals of a
    partial order (Oper. Res. Lett. 5, 1986), in at most |V| steps a set.
    The lowest undecided vertex goes in with its cone, if no vertex of
    the cone is out, or out with every vertex whose cone holds it.  A
    vertex whose cone meets a range fed from a non-vertex is out at once."""
    verts = g.vertices
    reach, fed = g.reach_masks(), _outside_fed(g)
    cones = [reach[v] for v in verts]
    holders = [sum(1 << i for i, cone in enumerate(cones) if cone >> j & 1) for j in range(len(verts))]
    found: List[int] = []
    stack = [(0, sum(1 << i for i, cone in enumerate(cones) if not cone & fed))]
    while stack:
        h, undecided = stack.pop()
        if not undecided:
            found.append(h)
            continue
        i = (undecided & -undecided).bit_length() - 1
        stack.append((h, undecided & ~holders[i]))
        if not cones[i] & ~(h | undecided):
            stack.append((h | cones[i], undecided & ~cones[i]))
    return sorted((tuple(verts[j] for j in _mask_key(h)) for h in found), key=lambda c: (len(c), c))


def enumerate_sat_hered(g: KGraph, cap: Degree) -> List[VertexSet]:
    """All hereditary H with saturation certified or unknown-at-cap, the
    empty and the full vertex set included, ordered by (size, members):
    the down-sets of _hereditary_sets, each with its saturation status."""
    cap = degrees.check(cap, g.k)
    certs = ((members, _saturation_status(g, frozenset(members), cap)) for members in _hereditary_sets(g))
    return [VertexSet(members, True, cert) for members, cert in certs if not cert.is_false]


# -- quotient graphs and the stripped family ------------------------------------


def quotient_graph(g: KGraph, H: Iterable[str]) -> KGraph:
    """The sub-k-graph on paths with source outside H (H hereditary).

    A path of g with source outside H has every vertex outside H: an edge
    with range in H has its source in H, so a path that enters H stays
    there.  The quotient keeps the path's edges, and every square a path
    of the quotient needs: a square swaps two composable edges for two
    with the same range and source, so the sources of all four edges are
    vertices of the path, outside H.  So the quotient's paths at a vertex
    are g's with source outside H, with the same normal forms,
    factorizations and order, and a universe built on the quotient cuts
    nothing that g's build could not.  g's memo holds the quotient, which
    holds no link back to g; with H empty the quotient is g itself, which
    then shares its memo."""
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
    return KGraph(Skeleton.build(g.k, verts, edges), squares)


# A set inside the package is (vertex, member mask) in the universe of its
# graph at the cap; frozensets of paths are built only for results.
SetKey = Tuple[str, int]


def _candidates(g: KGraph, v: str, cap: Degree) -> Dict[int, CertifiedBool]:
    """The capped candidates at v by member mask, in fe_sets order: the
    one candidate table of the closures, memoized as a plain table."""
    return g.memo(("fe", v, cap), lambda: fe_sets(g, v, cap).by_vertex.get(v, {}))


def _mask_key(mask: int) -> Tuple[int, ...]:
    """The positions of a mask's bits, ascending; as a sort key it orders
    the sets at one vertex as set_sort_key does (members are in sort_key order)."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


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


def _verify_refutation(g: KGraph, E: PathSet, tau: Path, H: FrozenSet[str]) -> bool:
    """Exact replay on gq = quotient_graph(g, H): tau has the right range
    and no continuation there meets E.

    A path of gq is a path of g with source outside H, so a minimal
    common extension there is one in g with source outside H, and
    ext(gq, tau, E) = {alpha in ext(g, tau, E) : s(alpha) not in H}.  The
    replay runs ext on g, so every quotient of g reads g's pair tables;
    with H empty it replays on g itself."""
    if tau.r != next(iter(E)).r:
        return False
    return all(alpha.s in H for alpha in ext(g, tau, E))


class SatiatedFamily(Record, hidden=("_checked", "_known_bad")):
    """A capped family of exhaustive-set candidates with closure status.

    ``refuted_parents`` and ``quotient_refuted`` carry verified witnesses
    (a path whose continuation set against the refuted candidate is
    empty); ``tainted`` maps each strip that is quotient-refuted while no
    witness refuted its parents to a FalseCertified certificate against
    the strip, which is left out of the family.

    ``satiated`` (the closure certificate) and ``overflow`` (the
    substitution products that exceed the cap) come from one closure scan
    of ``base``: a satiation closure's last round, or for a stripped
    family a scan made when either is first read, with the refuted sets
    its loop ended with as known bad.
    """

    __slots__ = ("base", "cap", "refuted_parents", "quotient_refuted", "tainted", "_checked", "_known_bad")

    def __init__(self, base: FEFamily, cap: Degree, refuted_parents: Optional[Dict[PathSet, Path]] = None,
                 quotient_refuted: Optional[Dict[PathSet, Path]] = None,
                 tainted: Optional[Dict[PathSet, CertifiedBool]] = None,
                 _checked: Optional[Tuple[CertifiedBool, Tuple[Path, ...]]] = None,
                 _known_bad: Tuple[SetKey, ...] = ()):
        self.base = base
        self.cap = cap
        self.refuted_parents = {} if refuted_parents is None else refuted_parents
        self.quotient_refuted = {} if quotient_refuted is None else quotient_refuted
        self.tainted = {} if tainted is None else tainted
        self._checked = _checked  # (satiated, overflow), None until a scan of base has run
        self._known_bad = _known_bad

    def _check(self) -> Tuple[CertifiedBool, Tuple[Path, ...]]:
        if self._checked is None:
            gq = self.base.graph
            res = _scan_satiation(gq, self.base.by_vertex, self.cap, self._known_bad)
            self._checked = _verdict_and_overflow(gq, res, self.cap)
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


class _ScanResult(Record):
    __slots__ = ("violations", "taints", "overflow", "budget_hit", "s4_missing")

    def __init__(self, violations: Optional[List[Tuple]] = None, taints: Optional[List[str]] = None,
                 overflow: Optional[Set[Path]] = None, budget_hit: Optional[List[str]] = None,
                 s4_missing: Optional[Dict[SetKey, int]] = None):
        self.violations = [] if violations is None else violations  # (rule, G, extra, D), G and D SetKeys
        self.taints = [] if taints is None else taints  # the rule of each derived set left out
        self.overflow = set() if overflow is None else overflow
        self.budget_hit = [] if budget_hit is None else budget_hit
        # each missing (S4) derived set, with the number of assignments giving it
        self.s4_missing = {} if s4_missing is None else s4_missing

    @property
    def dirty(self) -> bool:
        return bool(self.taints or self.overflow or self.budget_hit or self.s4_missing)


def _s2_walk(g: KGraph, uni: VertexUniverse, family: Family) -> Iterator[Tuple[int, Path, int]]:
    """The (S2) derivatives of the family's sets at the vertex of uni, g's
    universe there, that the family lacks, as (member mask G, mu,
    derivative mask D), set by set in family order and then by path id;
    D is 0 when the derivative is empty.

    A path already extending G is skipped: its continuations include the
    identity.  No other path's continuations do."""
    for gm in family[uni.vertex]:
        for i, mu in enumerate(uni.paths):
            if uni.captured[i] & gm:
                continue
            dmask = uni.ext_mask(g, i, gm) >> 1
            if not dmask or dmask not in family.get(mu.s, ()):
                yield gm, mu, dmask


def _scan_satiation(gq: KGraph, family: Family, cap: Degree, known_bad: Iterable[SetKey] = ()) -> _ScanResult:
    """One round of the (S1)-(S4) closure rules over the capped universe.

    A missing demand that is itself a capped candidate is recorded, as a
    violation under (S1)-(S3) and in s4_missing under (S4); a closure
    round adds them all.  Only violations refute; (S4) misses, everything
    blocked by the cap, and derived sets covered by a verified refutation
    (a subset of one of the known_bad sets) only dirty the result."""
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
        elif rule == "S4":
            res.s4_missing[(dv, dmask)] = res.s4_missing.get((dv, dmask), 0) + times
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
                gm = next(gm for gm in fam if gm & fmask == gm)
                res.violations.append(("S1", (v, gm), None, (v, fmask)))

        # (S2): extensions along capped paths
        for gm, mu, dmask in _s2_walk(gq, uni, family):
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
                row, beyond = uni.compositions(gq, i)
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
    """The certificate of a scan: the least violation, by rule and then by
    set_sort_key of G and D, is the witness."""
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
    return _verdict(gq, _scan_satiation(gq, _normalize_family(gq, fam, cap), cap), cap)


def _verdict_and_overflow(gq: KGraph, res: _ScanResult, cap: Degree) -> Tuple[CertifiedBool, Tuple[Path, ...]]:
    """(satiated, overflow) of the scanned family, as SatiatedFamily keeps them."""
    return _verdict(gq, res, cap), tuple(sorted(res.overflow, key=Path.sort_key))


def _dirty_summary(res: _ScanResult) -> Tuple[str, ...]:
    bits = []
    if res.taints:
        bits.append(f"{len(res.taints)} derived sets fell outside the candidate universe")
    if res.overflow:
        bits.append(f"{len(res.overflow)} substitution products exceed the cap")
    if res.s4_missing:
        bits.append(f"{sum(res.s4_missing.values())} substitution demands unresolved at cap")
    if res.budget_hit:
        bits.append("scan budget exceeded: " + ",".join(sorted(set(res.budget_hit))))
    return tuple(bits)


def satiation_closure(gq: KGraph, fam, cap: Degree) -> SatiatedFamily:
    """Least capped superset closed under (S1)-(S4); its verdict and cap
    escapes come from the last round, which found nothing missing."""
    cap = degrees.check(cap, gq.k)
    family = _normalize_family(gq, fam, cap)
    while True:
        res = _scan_satiation(gq, family, cap)
        missing = {vio[3] for vio in res.violations} | res.s4_missing.keys()
        if not missing:
            break
        grown: Dict[str, List[int]] = {}
        for v, mask in missing:
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
    return SatiatedFamily(base=FEFamily(gq, cap, by_vertex), cap=cap, _checked=_verdict_and_overflow(gq, res, cap))


def restricted_fe_family(g: KGraph, H: Iterable[str], cap: Degree) -> SatiatedFamily:
    """Strip H-sourced members from every capped exhaustive-set candidate
    and certify the stripped family on the quotient graph.

    Capped candidate enumeration can admit sets that are not genuinely
    exhaustive (their refutations live beyond the cap).  Whenever a
    stripped set is refuted on the quotient, by its own witness or
    through a missing extension-rule derivative, the loop constructs and
    replays a concrete witness against its parent candidates and
    discards them.  Refutations are subset-monotone (a witness avoiding a
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
    closure scan of the final family.

    A parent is a capped candidate of g at a vertex outside H, and its
    strip the set of its members with source outside H, a set of gq, the
    quotient by H.  F_w is the set of capped paths of g at w with source
    in H.  On a graph that validates, these facts hold, and the loop has
    no branch for their failure:

    (R) A capped witness replays.  If a capped path lam of gq has no
    common extension with any member p of a set D of gq, none has source
    outside H in g either: its minimal one has degree d(lam) ∨ d(p) <=
    cap and so is a capped path of gq.  A witness against a set refutes
    each nonempty subset too.

    (I) Parents are refuted only by refute_parents_of, which is called
    only on the parents of a quotient-refuted strip, and a strip is
    tainted only once it is quotient-refuted.  So the strip of every
    refuted parent and every tainted strip is quotient-refuted: the
    family is the live strips that are not, and those are the verdict
    scan's known bad sets.  The parents of a strip are live when a round
    starts, and only the strip's own refute_parents_of call touches
    them, so a call that refutes nothing leaves them all live, and the
    strip is tainted.

    (P) Let mu be a quotient witness against the strip of a parent E,
    and lam0 a capped witness against F_w, w = s(mu).  Then mu·lam0
    refutes E in g.  A common extension of mu·lam0 and a member p of E
    extends a minimal common extension mu·alpha of mu and p.  alpha has
    source in H: for p in the strip because mu refutes it, and for p
    with source in H because a path into H stays there.  d(alpha) <=
    d(p) <= cap, and alpha is no vertex since w is outside H, so alpha is
    in F_w; cancelling mu, lam0 would meet alpha.  So one witness,
    mu·lam0 or else mu, is tried against each parent.

    (S2) The first miss of a strip refutes it.  Let G be in the round's
    family and mu a capped path of gq at its vertex that extends no
    member, with derivative D = ext(mu, G), at w = s(mu), missing from the
    family.  G is not false at the cap, or (R) would have refuted it, so
    mu meets a member inside the cap and D is not empty.  If D is not
    false at the cap on gq, then D ∪ F_w is a candidate of g (an
    uncaptured capped path with source in H is in F_w, and any other is
    a capped path of gq, which meets D) whose strip is D.  That parent is
    refuted, or live with its strip left out of the family, so by (I) D
    is quotient-refuted already.  Else D's capped witness replays by
    (R).  So quotient_bad_witness always finds a witness sigma, and
    mu·sigma refutes G on gq: a common extension of mu·sigma and p in G
    with source outside H extends mu·alpha, a minimal common extension,
    with alpha in D (its source is outside H, as the extension's is), and
    cancelling mu, sigma would meet alpha outside H.  Before G's turn the
    walk records only other strips and sets outside the family, so G's
    first miss refutes G.  A round with a miss thus makes progress, and
    the loop ends at the first round whose family misses no (S2)
    derivative.

    On a graph that does not validate these facts can fail, and the loop
    can raise; every witness it records has replayed through refute.
    """
    gq = _quotient_by(g, H)
    hmask = _vertex_mask(g.vertex_bits(), H)

    # Parents are SetKeys of g, their strips SetKeys of gq.  Parents keep
    # the fe_sets order, since the order of refutations decides which
    # witness later checks reuse.
    parents: List[Tuple[SetKey, int]] = []  # (parent, strip mask)
    qcerts: Dict[SetKey, CertifiedBool] = {}
    for v in g.vertices:
        if v in H:
            continue
        table = _candidates(g, v, cap)
        if gq is g:  # the strip is the parent, certificate included
            parents.extend(((v, emask), emask) for emask in table)
            qcerts.update(((v, emask), cert) for emask, cert in table.items())
            continue
        # a member of g's universe at v keeps its bit in gq's, or is stripped
        at = universe(gq, v, cap).member_index
        bits = [1 << at[p] if p in at else 0 for p in universe(g, v, cap).members]
        parents.extend(((v, emask), _union_of_bits(bits, emask)) for emask in table)
    qkey = _set_sort_key(gq, cap)
    # every strip in set_sort_key order; later rounds only lose strips
    order = sorted({(E[0], smask) for E, smask in parents if smask}, key=qkey)

    bad_parent: Dict[SetKey, Path] = {}
    bad_quotient: Dict[SetKey, Path] = {}

    def qcert(key: SetKey) -> CertifiedBool:
        """Capped exhaustiveness of a quotient set (is_exhaustive by mask)."""
        cert = qcerts.get(key)
        if cert is None:
            cert = qcerts[key] = universe(gq, key[0], cap).classify(key[1])
        return cert

    def refute(bad: Dict[SetKey, Path], gx: KGraph, key: SetKey, tau: Path) -> bool:
        """Record tau against the set key of gx (a parent or a strip) if it
        replays, on g for a parent and on the quotient by H for a strip."""
        if key in bad or not _verify_refutation(g, _set(gx, key, cap), tau, H if gx is gq else frozenset()):
            return False
        bad[key] = tau
        return True

    def quotient_bad_witness(key: SetKey) -> Path:
        """The quotient witness against a missing (S2) derivative: its own,
        a superset's by subset-monotone lookup, or its capped one (S2)."""
        if key in bad_quotient:
            return bad_quotient[key]
        w, dmask = key
        for (yv, ymask), sigma in bad_quotient.items():
            if yv == w and not dmask & ~ymask and refute(bad_quotient, gq, key, sigma):
                return sigma
        sigma = qcert(key).witness
        refute(bad_quotient, gq, key, sigma)
        return sigma

    def refute_parents_of(parent_list: List[SetKey], mu: Path) -> bool:
        """Given a verified quotient witness mu against a strip, discard its
        parents with one witness (P); whether any was discarded."""
        tau = mu
        fmax = _h_sourced(g, mu.s, H, hmask, cap)
        if fmax:
            fcert = universe(g, mu.s, cap).classify(fmax)
            if fcert.is_false:
                tau = g.compose(mu, fcert.witness)
        progress = False
        for E in parent_list:
            progress |= refute(bad_parent, g, E, tau)
        return progress

    while True:
        strips: Dict[SetKey, List[SetKey]] = {}
        for E, smask in parents:
            if smask and E not in bad_parent:
                strips.setdefault((E[0], smask), []).append(E)
        progress = False
        tainted: Dict[SetKey, CertifiedBool] = {}
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
            else:
                tainted[key] = cert if cert.is_false else false_certified(sigma)
        if progress:
            continue

        # the round's family and the first missing (S2) derivative of each
        # of its sets, which refutes that set (S2); refutations are
        # verified independently, so a whole round is collected before the
        # family is rebuilt
        family: Dict[str, Dict[int, CertifiedBool]] = {}
        for key in order:
            if key in strips and key not in bad_quotient:
                family.setdefault(key[0], {})[key[1]] = qcert(key)
        first_miss: Dict[SetKey, Tuple[Path, int]] = {}
        for v in family:
            for gm, mu, dmask in _s2_walk(gq, universe(gq, v, cap), family):
                first_miss.setdefault((v, gm), (mu, dmask))
        for key in order:
            if key in first_miss:
                mu, dmask = first_miss[key]
                # the composite escapes the cap but replays exactly; it
                # composes in g as in gq
                mu_sigma = g.compose(mu, quotient_bad_witness((mu.s, dmask)))
                if refute(bad_quotient, gq, key, mu_sigma):
                    if not refute_parents_of(strips[key], mu_sigma):
                        tainted[key] = false_certified(mu_sigma)
                    progress = True
        if not progress:
            break

    gkey = _set_sort_key(g, cap)
    return SatiatedFamily(
        base=FEFamily(gq, cap, family),
        cap=cap,
        _known_bad=tuple(bad_quotient),
        refuted_parents={_set(g, E, cap): tau for E, tau in sorted(bad_parent.items(), key=lambda kv: gkey(kv[0]))},
        quotient_refuted={_set(gq, key, cap): sigma
                          for key, sigma in sorted(bad_quotient.items(), key=lambda kv: qkey(kv[0]))},
        tainted={_set(gq, key, cap): cert for key, cert in tainted.items()},
    )


# -- ideal pairs and the lattice --------------------------------------------------


class IdealPair(Record, frozen=True):
    """The pair (H, ∅) of a saturated hereditary H, with its saturation
    certificate; no pair has a B (enumerate_ideal_pairs)."""

    __slots__ = ("graph_key", "cap", "H", "h_saturated")

    def __init__(self, graph_key: object, cap: Degree, H: Tuple[str, ...], h_saturated: CertifiedBool):
        self.graph_key = graph_key
        self.cap = cap
        self.H = H
        self.h_saturated = h_saturated

    @property
    def exact(self) -> bool:
        """Certified-at-every-level tag: H is certified saturated.  The
        stripped family of a saturated hereditary set is closed by
        construction, so only the saturation certificate matters."""
        return self.h_saturated.is_true

    def label(self) -> str:
        tag = "exact" if self.exact else "at-cap"
        return f"H={fmt_vertexset(self.H)} B={{}} [{tag}]"


def enumerate_ideal_pairs(g: KGraph, cap: Degree) -> List[IdealPair]:
    """One pair (H, ∅) for each H of enumerate_sat_hered, in its (size,
    members) order.  No family is built.

    The source paper indexes the gauge-invariant ideals by pairs (H, B),
    with B a set of finite exhaustive sets of Λ∖ΛH that are not in E_H,
    the strips of the finite exhaustive sets of Λ.

    On a locally convex graph (is_locally_convex) no pair has B ≠ ∅, at
    any cap.  Raeburn–Sims–Yeend, "Higher rank graphs and their
    C*-algebras" (Proc. Edinb. Math. Soc. 46, 2003), Theorem 5.2: for a
    row-finite, locally convex k-graph Λ, H ↦ I_H is a bijection from the
    saturated hereditary sets onto the gauge-invariant ideals of C*(Λ),
    where I_H is generated by the p_v with v ∈ H.  A finite presentation
    is row-finite.  The source paper's bijection (H, B) ↦ I_{H,B} sends
    (H, ∅) to that same I_H, so by injectivity no pair has B ≠ ∅.  This
    needs the two saturations to agree.  The paper's H is saturated when
    no v ∉ H has a finite exhaustive E ⊆ vΛ∖{v} with s(E) ⊆ H; RSY's when
    no v ∉ H has s(vΛ^{≤n}) ⊆ H, where vΛ^{≤n} holds the λ ∈ vΛ with
    d(λ) ≤ n and s(λ)Λ^{e_i} = ∅ whenever d(λ) + e_i ≤ n.
    - Given such an E at v, let n = ∨d(E).  Each λ ∈ vΛ^{≤n} has a common
      extension with some μ ∈ E.  Were d(μ)_i > d(λ)_i, that extension
      would leave s(λ) in colour i while d(λ) + e_i ≤ n.  So d(λ) ≥ d(μ)
      and λ = μλ'; heredity puts s(λ) in H, and s(vΛ^{≤n}) ⊆ H.
    - Conversely, on a locally convex graph vΛ^{≤n} is finite and
      exhaustive (RSY compare the two Cuntz–Krieger relations in J. Funct.
      Anal. 213, 2004).  It contains v only when it is {v}, which
      s(vΛ^{≤n}) ⊆ H rules out for v ∉ H.

    On every graph that validates, no capped candidate is left for B
    either.  Lemma: let D be a capped candidate of the quotient
    gq = Λ∖ΛH at a vertex v, and F_v the capped paths of g at v with
    source in H.  Then D is a member of the stripped family of H, or it
    is quotient-refuted: refuted on gq by a verified witness.
    - E = D ∪ F_v is a capped candidate of g.  A capped path of g at v
      that meets no member of E cannot have its source in H, since it
      would then lie in F_v.  So it is a capped path of gq, and it meets
      D inside the cap.
    - The strip of E is D.  So by fact (I) of _stripped_family, D is in
      the stripped family or is quotient-refuted.
    With H = ∅, F_v is empty and E is D.  So the capped search for B,
    over the candidates of gq that are neither members nor refuted,
    searches an empty set.  Whether a finite exhaustive set past the cap
    gives a B ≠ ∅ on a graph that is not locally convex is open: it needs
    exact exhaustiveness (Sims, Indiana Univ. Math. J. 55, 2006).
    """
    cap = degrees.check(cap, g.k)
    return [IdealPair(g.cache_key(), cap, hv.members, hv.saturated) for hv in enumerate_sat_hered(g, cap)]


def pair_leq(g: KGraph, p1: IdealPair, p2: IdealPair) -> bool:
    """Order on pairs of one graph at one cap: containment of H, since no
    pair has a B."""
    if p1.graph_key != g.cache_key() or p2.graph_key != g.cache_key():
        raise KGraphError("pairs come from a different graph")
    if p1.cap != p2.cap:
        raise KGraphError("pairs computed at different caps")
    return set(p1.H) <= set(p2.H)


def _vertex_mask(bits: Dict[str, int], H: Iterable[str]) -> int:
    return sum(bits[v] for v in H)


class IdealLattice(Record):
    """The pairs of enumerate_ideal_pairs, in its (size, members) order, as
    the nodes of a lattice: hasse lists its covering edges (i, j), H_i
    below H_j; up[i] is the bitmask of the nodes j with H_i ⊆ H_j and
    down[i] that of the j with H_j ⊆ H_i; failures names each pair of
    nodes without a join.  Meets and joins are read off the rows on
    demand (ideal_lattice proves why)."""

    __slots__ = ("pairs", "hasse", "up", "down", "failures", "cap")

    def __init__(self, pairs: List[IdealPair], hasse: Tuple[Tuple[int, int], ...], up: List[int],
                 down: List[int], failures: Tuple[str, ...], cap: Degree):
        self.pairs = pairs
        self.hasse = hasse
        self.up = up
        self.down = down
        self.failures = failures
        self.cap = cap

    @property
    def is_lattice(self) -> bool:
        return not self.failures

    def meet(self, i: int, j: int) -> int:
        """The node of H_i ∩ H_j: the highest bit of down[i] & down[j]."""
        return (self.down[i] & self.down[j]).bit_length() - 1

    def join(self, i: int, j: int) -> Optional[int]:
        """The node of the least listed H holding H_i and H_j: the lowest
        bit of up[i] & up[j]; None when no listed H holds both."""
        bound = self.up[i] & self.up[j]
        return (bound & -bound).bit_length() - 1 if bound else None


def ideal_lattice(g: KGraph, cap: Degree) -> IdealLattice:
    """The pair lattice, as bitmask rows over the pairs of
    enumerate_ideal_pairs in its (size, members) order: up[i] holds the j
    with H_i ⊆ H_j and down[i] the j with H_j ⊆ H_i, which is pair_leq,
    whose checks the pairs meet by construction.  (i, j) is a Hasse edge
    when j is in i's strict up-row and in no strict up-row of a node in it.

    Lemma: the listed H are closed under intersection.  H = H_1 ∩ H_2 is
    hereditary with cones inside H_1's, so _hereditary_sets lists it.
    Were _saturation_status(H) false at some v ∉ H, say v ∉ H_1, then v
    reaches H_1, and its H_1-sourced mask holds the H-sourced one, which
    classify certifies exhaustive.  classify is upward monotone: a path
    that a superset leaves uncaptured is compatible with the subset, so
    with the superset, and does not escape.  So H_1 would be refuted too,
    yet it is listed; the zero-cap rule only adds unknowns.  Hence
    IdealLattice.meet is the highest bit of down[i] & down[j]: H_i ∩ H_j,
    the largest set there (the empty set is always listed).  And
    IdealLattice.join is the lowest bit of up[i] & up[j]: the
    intersection of that bound is listed and inside all of it.

    Every pair has a join exactly when the union of the listed H is
    listed, that is when the last node's down row holds every node.  If
    it is listed, it is a top: it is in every up row, so no up[i] & up[j]
    is empty.  If not, no node is a top, as a top holds the union and is
    inside it.  A finite order without a top has two distinct maximal
    nodes, since every node lies below a maximal one, and a common upper
    bound of the two would equal each.  So failures is () under a top;
    otherwise it names each i < j such that no node above i lies above j,
    in that order.  A graph that validates lists its full vertex set."""
    cap = degrees.check(cap, g.k)
    pairs = enumerate_ideal_pairs(g, cap)
    bits = g.vertex_bits()
    masks = [_vertex_mask(bits, p.H) for p in pairs]
    up = [sum(1 << j for j, h2 in enumerate(masks) if not h1 & ~h2) for h1 in masks]
    down = [sum(1 << j for j, h2 in enumerate(masks) if not h2 & ~h1) for h1 in masks]
    strict = [row & ~(1 << i) for i, row in enumerate(up)]
    hasse = tuple((i, j) for i, row in enumerate(strict) for j in _mask_key(row & ~_union_of_bits(strict, row)))
    full = (1 << len(pairs)) - 1
    failures = () if down[-1] == full else tuple(f"no join for nodes {i},{j}" for i, row in enumerate(up)
                                                 for j in _mask_key(full & ~_union_of_bits(down, row)) if j > i)
    return IdealLattice(pairs, hasse, up, down, failures, cap)
