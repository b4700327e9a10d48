"""Brute-force oracles, kept independent of the library code paths they check.

Prefixes are recovered by scanning factorizations with compose, never
with the library's segment extraction; the rank-1 saturation oracle uses
the classical edge-level closure rules directly.  The presentation check
scans all pairs and triples of edges, and reachability is a fixpoint over
the edge list held in plain sets.  The closure scan substitutes (S4) one
assignment at a time.  The stripped family runs that full scan every
round and computes its verdict with the family.  The pair enumeration
builds the stripped family and the B search for every H, the empty one
included.  Exhaustiveness with members beyond the cap walks the capped
paths one by one; saturation runs passes over the vertices; the
satiation closure gathers its verdict from every round.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from kgraphlat import degrees
from kgraphlat.align import FEFamily, MinPair, PathSet, common_range, is_exhaustive, mce, universe
from kgraphlat.certify import CertifiedBool, false_certified, true_certified, unknown_at_cap
from kgraphlat.degrees import Degree
from kgraphlat.ideals import (
    VertexSet,
    S3_BUDGET,
    S4_BUDGET,
    Family,
    SetKey,
    _candidates,
    _h_sourced_paths,
    _mask_key,
    _minimize_exhaustive,
    _normalize_family,
    _path_in,
    _scan_satiation,
    _ScanResult,
    _set,
    _set_sort_key,
    _verdict,
    _verify_refutation,
    enumerate_sat_hered,
    fmt_pathset,
    fmt_vertexset,
    is_hereditary,
    quotient_graph,
    restricted_fe_family,
    satiation_closure,
    set_sort_key,
)
from kgraphlat.kgraph import KGraph, KGraphError, Path, ValidationReport, sorted_paths
from kgraphlat.structure import _deterministic_colors, _entrance_for


def oracle_prefix(g: KGraph, tau: Path, m):
    """The degree-m prefix of tau found by scanning compose factorizations."""
    hits = []
    for mu in g.paths_of_degree(tau.r, m):
        for nu in g.paths_of_degree(mu.s, degrees.sub(tau.d, m)):
            if g.compose(mu, nu) == tau:
                hits.append(mu)
                break
    assert len(hits) == 1, f"factorization not unique for {tau} at {m}: {hits}"
    return hits[0]


def oracle_factorizations(g: KGraph, tau: Path, m):
    """All (mu, nu) with compose(mu, nu) == tau and d(mu) == m."""
    out = []
    for mu in g.paths_of_degree(tau.r, m):
        for nu in g.paths_of_degree(mu.s, degrees.sub(tau.d, m)):
            if g.compose(mu, nu) == tau:
                out.append((mu, nu))
    return out


def oracle_mce(g: KGraph, mu: Path, nu: Path):
    """Minimal common extensions via the definitional filter."""
    n = degrees.join(mu.d, nu.d)
    return tuple(
        tau
        for tau in g.paths_of_degree(mu.r, n)
        if oracle_prefix(g, tau, mu.d) == mu and oracle_prefix(g, tau, nu.d) == nu
    )


def oracle_ext(g: KGraph, mu: Path, E, cap):
    """Definitional recomputation of ext by scanning candidate continuations."""
    out = set()
    for beta in g.paths_up_to(mu.s, cap):
        tau = g.compose(mu, beta)
        for nu in E:
            if tau in oracle_mce(g, mu, nu):
                out.add(beta)
    return frozenset(out)


# -- the filter route for common extensions -----------------------------------
# mce, lambda_min and ext as align computed them before it built minimal
# common extensions from one side's continuations: mce filters every path
# of degree d(mu)∨d(nu) at r(mu) by its two prefixes, and lambda_min and
# ext split each extension again.  Uncached, and independent of align.


def filter_mce(g: KGraph, mu: Path, nu: Path) -> Tuple[Path, ...]:
    if mu.r != nu.r:
        raise KGraphError(f"mce needs a common range; got {mu.r!r} and {nu.r!r}")
    if nu.edges < mu.edges:
        mu, nu = nu, mu
    n = degrees.join(mu.d, nu.d)
    return tuple(
        lam
        for lam in g._paths_of_degree(mu.r, n)
        if g.prefix(lam, mu.d) == mu and g.prefix(lam, nu.d) == nu
    )


def filter_lambda_min(g: KGraph, mu: Path, nu: Path) -> Tuple[MinPair, ...]:
    out = []
    for tau in filter_mce(g, mu, nu):
        alpha = g.split(tau, mu.d)[1]
        beta = g.split(tau, nu.d)[1]
        out.append(MinPair(alpha, beta))
    return tuple(sorted(out, key=lambda p: (p.alpha.sort_key(), p.beta.sort_key())))


def filter_ext(g: KGraph, mu: Path, E: Iterable[Path]) -> Tuple[Path, ...]:
    E = frozenset(E)
    if E and common_range(E) != mu.r:
        raise KGraphError("ext needs r(mu) equal to the common range of E")
    out = set()
    for nu in E:
        out.update(g.split(tau, mu.d)[1] for tau in filter_mce(g, mu, nu))
    return sorted_paths(out)


# -- exhaustiveness beyond the cap ------------------------------------------------
# align.is_exhaustive as it was while members beyond the cap took a route
# of their own, path by path through extends and mce, with unknown
# answers carrying the given cap.


def oracle_is_exhaustive(g: KGraph, E: Iterable[Path], cap: Degree) -> CertifiedBool:
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


# -- satiation rules (S1)-(S3) ----------------------------------------------------


def oracle_extends(g: KGraph, lam: Path, nu: Path) -> bool:
    """lam lies in nu Lambda: nu is the initial segment of lam at d(nu)."""
    return lam.r == nu.r and degrees.leq(nu.d, lam.d) and oracle_prefix(g, lam, nu.d) == nu


def oracle_rule_derives(g: KGraph, rule: str, G, extra, D, cap) -> bool:
    """The satiation rule, with the choice extra, demands D from the set G.

    (S1) extra is None and D is a proper superset of G.  (S2) extra is a
    path mu with r(mu) = r(G) that extends no member of G, and D is
    Ext(mu; G).  (S3) extra holds one nonzero cut degree n <= d(lam) per
    member lam of G, members in Path.sort_key order, and D is the set of
    initial segments lam(0, n), other than G.
    """
    G, D = frozenset(G), frozenset(D)
    if rule == "S1":
        return extra is None and G < D
    if rule == "S2":
        mu = extra
        return (mu.r == next(iter(G)).r and not any(oracle_extends(g, mu, nu) for nu in G)
                and D == oracle_ext(g, mu, G, cap))
    if rule == "S3":
        members = sorted(G, key=Path.sort_key)
        zero = degrees.zero(g.k)
        if len(extra) != len(members) or any(n == zero or not degrees.leq(n, lam.d) for lam, n in zip(members, extra)):
            return False
        return D != G and D == frozenset(oracle_prefix(g, lam, n) for lam, n in zip(members, extra))
    return False


# -- rank-1 classical closure rules ------------------------------------------------


def k1_hereditary(g: KGraph, H) -> bool:
    H = set(H)
    return all(e.s in H for e in g.edges if e.r in H)


def k1_saturate(g: KGraph, G) -> frozenset:
    """Iterated edge rule: absorb any vertex whose (nonempty) edge set
    points entirely into the current set."""
    cur = set(G)
    changed = True
    while changed:
        changed = False
        for v in g.vertices:
            if v in cur:
                continue
            outs = [e for e in g.edges if e.r == v]
            if outs and all(e.s in cur for e in outs):
                cur.add(v)
                changed = True
    return frozenset(cur)


def k1_sat_hered_sets(g: KGraph):
    """All saturated hereditary subsets by exhaustive scan of the rules."""
    out = []
    verts = g.vertices
    for n in range(len(verts) + 1):
        for combo in itertools.combinations(verts, n):
            S = frozenset(combo)
            if k1_hereditary(g, S) and k1_saturate(g, S) == S:
                out.append(S)
    return out


# -- the presentation check, all pairs ---------------------------------------------


def oracle_validate(g: KGraph) -> ValidationReport:
    """Completeness, unambiguity and (k >= 3) cube consistency, scanning
    every pair and every triple of edges."""
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
    bicolored = []
    for a in good_edges.values():
        for b in good_edges.values():
            if a.color != b.color and a.s == b.r:
                bicolored.append((a.eid, b.eid))
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
            for b in good_edges.values():
                if b.r != a.s or b.color == a.color:
                    continue
                for c in good_edges.values():
                    if c.r != b.s or c.color in (a.color, b.color):
                        continue
                    triple = (a.eid, b.eid, c.eid)
                    left = route(triple, (0, 1, 0))
                    right = route(triple, (1, 0, 1))
                    if left is not None and right is not None and left != right:
                        violations.append(("cube-inconsistent", triple))

    violations = sorted(set(violations))
    return ValidationReport(ok=not violations, violations=tuple(violations))


# -- local convexity from paths of degree e_i + e_j -----------------------------------


def oracle_locally_convex(g: KGraph) -> bool:
    """For every vertex v and colours i ≠ j with vΛ^{e_j} nonempty, every
    edge of vΛ^{e_i} is the degree-e_i factor of a path in vΛ^{e_i+e_j}.
    The factors are found by scanning compose factorizations, both colour
    orders in turn; an edge whose source is no vertex factors nothing."""
    for v in g.vertices:
        for i, j in itertools.permutations(range(1, g.k + 1), 2):
            ei, ej = degrees.unit(g.k, i), degrees.unit(g.k, j)
            if not g.paths_of_degree(v, ej):
                continue
            both = set(g.paths_of_degree(v, degrees.add(ei, ej)))
            firsts = g.paths_of_degree(v, ei)
            factors = {mu for mu in firsts if g.has_vertex(mu.s)
                       for nu in g.paths_of_degree(mu.s, ej) if g.compose(mu, nu) in both}
            if factors != set(firsts):
                return False
    return True


# -- reachability, cofinality and loops on vertex sets --------------------------------


def oracle_reach(g: KGraph):
    """oracle_reach(g)[v] = {w : vΛw nonempty}, by fixpoint over the edges."""
    succ = {v: {v} for v in g.vertices}
    changed = True
    while changed:
        changed = False
        for e in g.edges:
            for v in g.vertices:
                if e.r in succ[v] and e.s not in succ[v]:
                    succ[v].add(e.s)
                    changed = True
    return succ


def oracle_loop_vertices(g: KGraph) -> frozenset:
    """Vertices with a self-loop or a second vertex reaching them back."""
    reach = oracle_reach(g)
    out = {e.r for e in g.edges if e.r == e.s}
    for v in g.vertices:
        for w in reach[v]:
            if v != w and v in reach[w]:
                out.add(v)
                out.add(w)
    return frozenset(out)


def oracle_cofinality(g: KGraph, cap):
    """structure.cofinality_check with vertex sets for reachability: the
    same scan order, so the same status and witness."""
    cap = degrees.check(cap, g.k)
    reach = oracle_reach(g)
    edge_free = [t for t in g.vertices if not g.edges_at(t)]
    candidates = [x for v in g.vertices for x in g.paths_up_to(v, cap) if not g.edges_at(x.s)]
    candidates.sort(key=Path.sort_key)
    for x in candidates:
        pts = {oracle_prefix(g, x, m).s for m in degrees.below(x.d)}
        for w in g.vertices:
            if not pts & reach[w]:
                return false_certified((x, w))
    for v in g.vertices:
        for w in g.vertices:
            if not reach[v] & reach[w]:
                return false_certified((g.identity(v), w))
    targets = set(edge_free) | oracle_loop_vertices(g)
    if all(targets <= reach[w] for w in g.vertices):
        return true_certified()
    return unknown_at_cap(cap)


def oracle_loops(g: KGraph, cap):
    """structure.find_loop_with_entrance with vertex sets for reachability;
    the entrance search is the library's own and is not checked here."""
    cap = degrees.check(cap, g.k)
    reach = oracle_reach(g)
    loopers = oracle_loop_vertices(g)
    witnesses = {}
    for z in g.vertices:
        if z not in loopers:
            continue
        for mu in g.paths_up_to(z, cap):
            if mu.is_vertex or mu.s != z:
                continue
            alpha = _entrance_for(g, z, mu)
            if alpha is not None:
                witnesses[z] = (mu, alpha)
                break
    branchy = {u for u in g.vertices if len(g.edges_at(u)) >= 2}
    out = {}
    for v in g.vertices:
        hit = next((z for z in g.vertices if z in witnesses and z in reach[v]), None)
        if hit is not None:
            out[v] = true_certified(witnesses[hit])
        elif not loopers:
            out[v] = false_certified(("acyclic-skeleton",))
        elif _deterministic_colors(g):
            out[v] = false_certified(("degree-deterministic",))
        elif g.k == 1:
            qualifying = [z for z in loopers if reach[z] & branchy]
            if any(z in reach[v] for z in qualifying):
                out[v] = unknown_at_cap(cap)
            else:
                out[v] = false_certified(("k1-cycle-analysis",))
        else:
            out[v] = unknown_at_cap(cap)
    return out


# -- saturation by passes ---------------------------------------------------------
# ideals.saturation as it was while it ran its own passes over the
# vertices, and ideals._saturation_status while it shrank the witness of
# every refutation it returned.


def oracle_saturation_status(g: KGraph, H: FrozenSet[str], cap: Degree) -> CertifiedBool:
    """Saturation of any vertex set, hereditary or not.

    The capped candidates at a vertex are monotone in the member set, so
    only the maximal candidate needs certifying: if it fails with a
    witness, every subset fails with the same witness.  One certified
    exhaustive set refutes saturation; otherwise any unknown check makes
    the answer unknown.
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
            return false_certified((v, _minimize_exhaustive(g, fmax, cap)))
        if cert.is_unknown:
            unknown = True
    if unknown:
        return unknown_at_cap(cap)
    return true_certified()


def oracle_saturation(g: KGraph, G: Iterable[str], cap: Degree) -> VertexSet:
    """Least capped fixed point adding every vertex certified to carry an
    exhaustive set with sources inside the growing set."""
    cap = degrees.check(cap, g.k)
    cur: Set[str] = set(G)
    for v in cur:
        g.require_vertex(v)
    changed = True
    while changed:
        changed = False
        for v in g.vertices:
            if v in cur:
                continue
            fmax = _h_sourced_paths(g, v, frozenset(cur), cap)
            if fmax and is_exhaustive(g, fmax, cap).is_true:
                cur.add(v)
                changed = True
    members = tuple(sorted(cur))
    return VertexSet(members, is_hereditary(g, members), oracle_saturation_status(g, frozenset(members), cap))


# -- the satiation closure with its verdict from every round -----------------------


@dataclass
class OracleClosure:
    base: FEFamily
    satiated: CertifiedBool
    overflow: Tuple[Path, ...]


def oracle_satiation_closure(gq: KGraph, fam, cap: Degree) -> OracleClosure:
    """ideals.satiation_closure as it was while it gathered the overflow,
    taints and budget hits of every round into its verdict, without the
    notes it kept and nothing read.

    Least capped superset closed under (S1)-(S4); cap escapes recorded."""
    cap = degrees.check(cap, gq.k)
    family = _normalize_family(gq, fam, cap)
    overflow: Set[Path] = set()
    taints: List[str] = []
    budget: List[str] = []
    while True:
        res = _scan_satiation(gq, family, cap, extend=True)
        overflow |= res.overflow
        taints.extend(res.taints)
        budget.extend(res.budget_hit)
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
    clean = not (overflow or taints or budget)
    satiated = true_certified() if clean else unknown_at_cap(cap, witness=tuple(sorted({str(b) for b in budget})))
    return OracleClosure(
        base=FEFamily(gq, cap, by_vertex),
        satiated=satiated,
        overflow=tuple(sorted(overflow, key=Path.sort_key)),
    )


# -- the closure scan, one (S4) assignment at a time -------------------------------


@dataclass
class OracleScanResult(_ScanResult):
    # per member G, the (S2) derivatives missing from the family: (mu, D mask)
    s2_misses: Dict[SetKey, List[Tuple[Path, int]]] = field(default_factory=dict)


def oracle_scan_satiation(gq: KGraph, family: Family, cap: Degree, extend: bool,
                          known_bad: Iterable[SetKey] = ()) -> OracleScanResult:
    """ideals._scan_satiation with (S4) walking every assignment of family
    sets to the substituted members, one at a time.

    One round of the (S1)-(S4) closure rules over the capped universe.

    In check mode a missing (S1)-(S3) demand that is itself a capped
    candidate is a violation; (S4) misses, everything blocked by the cap,
    and derived sets covered by a verified refutation (a subset of one of
    the known_bad sets) only dirty the result.  In extend mode missing
    candidates are collected as additions instead.  Every missing (S2)
    derivative is also recorded in s2_misses, whatever became of it.
    """
    res = OracleScanResult()
    bad_at: Dict[str, List[int]] = {}
    for v, mask in known_bad:
        bad_at.setdefault(v, []).append(mask)

    def demand(rule: str, G: SetKey, extra, dmask: int, dv: str):
        """Handle a derived set, given by its mask at dv, that the rules
        require to be present."""
        if dmask in family.get(dv, ()):
            return
        if dmask not in _candidates(gq, dv, cap):
            # not a capped candidate: certified non-exhaustive derivative
            res.taints.append(rule)
        elif any(not dmask & ~Y for Y in bad_at.get(dv, ())):
            # a verified refutation covers D, so its absence is explained
            res.taints.append(rule + "-refuted")
        elif extend:
            res.additions.add((dv, dmask))
        elif rule == "S4":
            res.s4_missing += 1
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

        # (S2): extensions along capped paths not already extending the set;
        # such a path's continuations never include the identity
        for gm in fam:
            for i, mu in enumerate(uni.paths):
                if uni.captured[i] & gm:
                    continue
                dmask = uni.ext_mask(i, gm) >> 1
                if not dmask:
                    res.taints.append("S2-empty")
                elif dmask not in family.get(mu.s, ()):
                    res.s2_misses.setdefault((v, gm), []).append((mu, dmask))
                    demand("S2", (v, gm), mu, dmask, mu.s)

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
                    for assign in itertools.product(*options):
                        dmask = base
                        for j, slmask in zip(Gp, assign):
                            part = products(j + 1, slmask)
                            if part is None:
                                break
                            dmask |= part
                        else:  # no product left the cap
                            if dmask not in fam:
                                demand("S4", (v, gm), None, dmask, v)
    return res


# -- the stripped family with its eager verdict -----------------------------------


@dataclass
class OracleStrippedFamily:
    base: FEFamily
    satiated: CertifiedBool
    overflow: Tuple[Path, ...]
    refuted_parents: Dict[PathSet, Path]
    quotient_refuted: Dict[PathSet, Path]
    tainted: Dict[PathSet, CertifiedBool]


def oracle_stripped_family(g: KGraph, H: FrozenSet[str], cap: Degree) -> OracleStrippedFamily:
    """ideals._stripped_family as it was while every round ran the full
    check scan (the assignment-walk scan here) and its verdict was computed
    with the family: the loop reacts to that scan's s2_misses, and the
    last round's scan gives satiated and overflow."""
    gq = quotient_graph(g, H)

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

        # the round's family and its closure scan.  A missing (S2)
        # derivative certifies bogus inputs; refutations are verified
        # independently, so a whole round is collected before the family
        # is rebuilt.  A reaction can refute a derivative without progress,
        # which the scan must then see as known bad: one more round.
        family: Dict[str, Dict[int, CertifiedBool]] = {}
        for key in order:
            if key in strips and key not in bad_quotient and key not in tainted:
                family.setdefault(key[0], {})[key[1]] = qcert(key)
        known_bad = [(E[0], smask) for E, smask in parents if E in bad_parent] + list(bad_quotient)
        res = oracle_scan_satiation(gq, family, cap, extend=False, known_bad=known_bad)
        nbad = len(bad_quotient)
        for key in order:
            for mu, dmask in res.s2_misses.get(key, ()):
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

    gkey = _set_sort_key(g, cap)
    return OracleStrippedFamily(
        base=FEFamily(gq, cap, family),
        satiated=_verdict(gq, res, cap),
        overflow=tuple(sorted(res.overflow, key=Path.sort_key)),
        refuted_parents={_set(g, E, cap): tau for E, tau in sorted(bad_parent.items(), key=lambda kv: gkey(kv[0]))},
        quotient_refuted={_set(gq, key, cap): sigma
                          for key, sigma in sorted(bad_quotient.items(), key=lambda kv: qkey(kv[0]))},
        tainted={_set(gq, key, cap): cert for key, cert in tainted.items()},
    )


# -- the pair enumeration with the stripped family of every H, H = {} included --------


@dataclass(frozen=True)
class OracleIdealPair:
    graph_key: object
    cap: Degree
    H: Tuple[str, ...]
    B: Tuple[PathSet, ...]
    # the stripped family of H, fixed by graph, cap and H
    eh_family: FEFamily = field(repr=False, compare=False)
    h_saturated: CertifiedBool
    family_cert: CertifiedBool
    member_certs_true: bool

    @property
    def eh_sets(self) -> FrozenSet[PathSet]:
        """The stripped family of H as path sets, built on each read."""
        return frozenset(self.eh_family.all_sets())

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


def oracle_enumerate_ideal_pairs(g: KGraph, cap: Degree) -> List[OracleIdealPair]:
    """ideals.enumerate_ideal_pairs as it was before H = {} took a shortcut:
    every H, the empty one included, builds its stripped family, its B
    universe and the B search, and every pair carries its family values.

    All pairs (H, B): saturated hereditary H plus a set family B that,
    together with the stripped family of H, is satiated at the cap.

    Distinct B candidates with the same satiation closure collapse to the
    closure, so each emitted pair indexes a distinct closed family.
    """
    cap = degrees.check(cap, g.k)
    pairs: List[OracleIdealPair] = []
    for hv in enumerate_sat_hered(g, cap):
        H = hv.as_frozenset
        gq = quotient_graph(g, H)
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

        base_ok = _all_true(sf.base) and not sf.tainted
        families: Dict[FrozenSet[SetKey], Tuple[CertifiedBool, bool, FEFamily]] = {
            basekeys: (sf.satiated, base_ok, sf.base)
        }
        queue: List[FrozenSet[SetKey]] = [basekeys]
        while queue:
            famkey = queue.pop(0)
            for x in buniverse:
                if x in famkey:
                    continue
                by_vertex = {v: dict(certs) for v, certs in families[famkey][2].by_vertex.items()}
                by_vertex.setdefault(x[0], {})[x[1]] = cands[x]
                cl = satiation_closure(gq, FEFamily(gq, cap, by_vertex), cap)
                clkey = _keys(cl.base)
                if clkey not in families:
                    families[clkey] = (cl.satiated, base_ok and _all_true(cl.base), cl.base)
                    queue.append(clkey)

        order = list(families)
        if len(order) > 1:
            order.sort(key=lambda fk: tuple(sorted(map(key, fk))))
        for famkey in order:
            B = tuple(_set(gq, D, cap) for D in sorted(famkey - basekeys, key=key))
            fam_cert, member_ok, _ = families[famkey]
            pairs.append(
                OracleIdealPair(
                    graph_key=g.cache_key(),
                    cap=cap,
                    H=hv.members,
                    B=B,
                    eh_family=sf.base,
                    h_saturated=hv.saturated,
                    family_cert=fam_cert,
                    member_certs_true=member_ok,
                )
            )
    pairs.sort(key=OracleIdealPair.sort_key)
    return pairs
