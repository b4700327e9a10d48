"""Brute-force oracles, kept independent of the library code paths they check.

Prefixes are recovered by scanning factorizations with compose, never
with the library's segment extraction; the rank-1 saturation oracle uses
the classical edge-level closure rules directly.
"""

from __future__ import annotations

import itertools

from kgraphlat import degrees
from kgraphlat.kgraph import KGraph, Path


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
