import collections
import gc
import itertools
import random
import tracemalloc
import weakref

import pytest

from kgraphlat import align, ideals, textio
from kgraphlat.align import is_exhaustive
from kgraphlat.ideals import (
    enumerate_ideal_pairs,
    enumerate_sat_hered,
    hereditary_closure,
    ideal_lattice,
    is_hereditary,
    is_satiated,
    is_saturated,
    pair_leq,
    quotient_graph,
    restricted_fe_family,
    satiation_closure,
    saturation,
    set_sort_key,
)
from kgraphlat.kgraph import KGraph, KGraphError, Skeleton, is_locally_convex, validate_kgraph
from kgraphlat.randomgraphs import random_1graph, random_2graph

import cli_corpus
import oracles


# -- hereditary ---------------------------------------------------------------


def test_is_hereditary_examples(fx):
    g = fx["FX4"]
    assert is_hereditary(g, {"w"})
    assert not is_hereditary(g, {"v"})
    assert is_hereditary(g, set())
    assert is_hereditary(g, set(g.vertices))


def _dangling_graph():
    """An unvalidated 1-graph: edge e has a source that is no vertex, edge
    x a range that is no vertex."""
    edges = [("e", 1, "u", "ghost"), ("f", 1, "v", "u"), ("h", 1, "w", "w"), ("x", 1, "nowhere", "w")]
    return KGraph(Skeleton.build(1, ["u", "v", "w"], edges), [])


def test_hereditary_combos_match_is_hereditary():
    """The down-set enumeration of enumerate_sat_hered lists exactly the
    subsets is_hereditary accepts, in combination order, on the fixtures,
    random 1- and 2-graphs (seeds 0-49) and a graph with dangling edges,
    where an edge from outside the vertex set keeps its range out of every
    H; enumerate_sat_hered equals is_hereditary plus is_saturated."""
    graphs = [textio.fixture(name) for name in sorted(textio.FIXTURE_TEXTS)]
    for make in (random_1graph, random_2graph):
        for seed in range(50):
            try:
                graphs.append(make(seed))
            except RuntimeError:
                continue
    graphs.append(_dangling_graph())
    for g in graphs:
        subsets = [c for n in range(len(g.vertices) + 1) for c in itertools.combinations(g.vertices, n)]
        hereditary = [c for c in subsets if is_hereditary(g, c)]
        assert ideals._hereditary_sets(g) == hereditary, g.vertices
        cap = (1,) * g.k
        want = [(c, is_saturated(g, c, cap)) for c in hereditary]
        got = [(h.members, h.saturated) for h in enumerate_sat_hered(g, cap)]
        assert got == [(c, cert) for c, cert in want if not cert.is_false]
    assert ideals._hereditary_sets(_dangling_graph()) == [(), ("w",)]


def test_hereditary_closure_examples(fx):
    g4, g1 = fx["FX4"], fx["FX1"]
    assert hereditary_closure(g4, {"v"}) == {"u", "v", "w"}
    assert hereditary_closure(g1, {"v"}) == {"v"}
    assert hereditary_closure(g4, set()) == set()
    # u receives an edge from ghost, which is no vertex: no hereditary set
    # holds u or v, which reaches u
    dangling = _dangling_graph()
    assert hereditary_closure(dangling, {"w"}) == {"w"}
    for G in ({"u"}, {"v", "w"}):
        with pytest.raises(KGraphError, match="no hereditary set contains"):
            hereditary_closure(dangling, G)


def _random_graphs():
    """Random 1- and 2-graphs of seeds 0-149, but for seeds that draw none."""
    graphs = []
    for make in (random_1graph, random_2graph):
        for seed in range(150):
            try:
                graphs.append(make(seed))
            except RuntimeError:
                continue
    return graphs


def test_hereditary_sets_and_closures_match_search_oracles():
    """The down-sets of the reach cones are the subsets that pass the
    vertex-mask test, and the closure of every vertex set is the search
    oracle's, or raises exactly when the search reaches a non-vertex."""
    compared = raised = 0
    for g in [*map(textio.fixture, sorted(textio.FIXTURE_TEXTS)), *_random_graphs(), _dangling_graph()]:
        assert ideals._hereditary_sets(g) == list(oracles.oracle_hereditary_combos(g)), g.vertices
        for n in range(len(g.vertices) + 1):
            for G in itertools.combinations(g.vertices, n):
                want = oracles.oracle_hereditary_closure(g, G)
                if want <= set(g.vertices):
                    assert hereditary_closure(g, G) == want, (g.vertices, G)
                    compared += 1
                else:
                    with pytest.raises(KGraphError):
                        hereditary_closure(g, G)
                    raised += 1
    assert compared > 2000 and raised == 6, (compared, raised)


def test_hereditary_closure_is_least(fx):
    for g in fx.values():
        verts = g.vertices
        for n in range(len(verts) + 1):
            for combo in itertools.combinations(verts, n):
                got = hereditary_closure(g, combo)
                assert is_hereditary(g, got)
                supersets = [
                    frozenset(s)
                    for m in range(len(verts) + 1)
                    for s in itertools.combinations(verts, m)
                    if set(combo) <= set(s) and is_hereditary(g, s)
                ]
                assert got == frozenset.intersection(*supersets)


# -- saturation -----------------------------------------------------------------


def test_is_saturated_examples(fx):
    g = fx["FX4"]
    res = is_saturated(g, {"u", "w"}, (2,))
    assert res.is_false
    v, F = res.witness
    assert v == "v" and {p.literal() for p in F} == {"e", "f"}
    assert is_saturated(g, {"w"}, (2,)).is_true
    assert is_saturated(g, set(), (2,)).is_true


def test_is_saturated_requires_hereditary(fx):
    with pytest.raises(KGraphError):
        is_saturated(fx["FX4"], {"v"}, (2,))


def test_saturation_examples(fx):
    assert saturation(fx["FX1"], {"v"}, (2,)).members == ("u", "v")
    assert saturation(fx["FX4"], {"u", "w"}, (2,)).members == ("u", "v", "w")
    assert saturation(fx["FX4"], set(), (2,)).members == ()


def test_saturation_props_and_bruteforce_oracle(fx):
    """Idempotent, monotone, extensive; equals the intersection of all
    saturated supersets found by scanning every subset."""
    for name in ("FX1", "FX4", "FX5", "FX6"):
        g = fx[name]
        cap = (2,) * g.k
        verts = g.vertices

        def oracle_saturated(S):
            S = frozenset(S)
            for v in verts:
                if v in S:
                    continue
                fmax = [
                    p for p in g.paths_up_to(v, cap) if p.s in S and not p.is_vertex
                ]
                if fmax and is_exhaustive(g, fmax, cap).is_true:
                    return False
            return True

        subsets = [
            frozenset(c) for m in range(len(verts) + 1) for c in itertools.combinations(verts, m)
        ]
        for G in subsets:
            got = frozenset(saturation(g, G, cap).members)
            assert G <= got  # extensive
            assert frozenset(saturation(g, got, cap).members) == got  # idempotent
            sat_supersets = [S for S in subsets if G <= S and oracle_saturated(S)]
            assert got == frozenset.intersection(*sat_supersets)  # least
        for G in subsets:
            for H in subsets:
                if G <= H:
                    assert frozenset(saturation(g, G, cap).members) <= frozenset(
                        saturation(g, H, cap).members
                    )  # monotone


def test_saturation_of_non_hereditary_set_keeps_unknown():
    """An unknown exhaustiveness check is never upgraded: the saturation of
    {v2} in this graph is not hereditary, no vertex outside it is certified
    to carry an exhaustive set, and the check at v0 is unknown at the cap."""
    g = random_2graph(32)
    cap = (1, 1)
    vs = saturation(g, ("v2",), cap)
    assert not vs.hereditary
    fmax = [p for p in g.paths_up_to("v0", cap) if p.s in vs.members and not p.is_vertex]
    assert is_exhaustive(g, fmax, cap).is_unknown
    assert vs.saturated.is_unknown


def test_saturation_preserves_hereditary(fx):
    for name in ("FX1", "FX4", "FX6"):
        g = fx[name]
        for n in range(len(g.vertices) + 1):
            for combo in itertools.combinations(g.vertices, n):
                if is_hereditary(g, combo):
                    assert saturation(g, combo, (2,) * g.k).hereditary


def test_saturation_matches_pass_oracle():
    """saturation adds the witness vertex of each refutation of
    _saturation_status in turn; the fixed point, its hereditary flag and
    its certificate equal those of the passes over every vertex, for
    every vertex subset.  is_saturated shrinks the witness set only when
    it returns one, and gives the old certificate for every hereditary
    set, witness included."""
    seen = collections.Counter()
    for make in (random_1graph, random_2graph):
        for seed in range(40):
            g = make(seed)
            cap = (1,) * g.k
            for n in range(len(g.vertices) + 1):
                for G in itertools.combinations(g.vertices, n):
                    got, want = saturation(g, G, cap), oracles.oracle_saturation(g, G, cap)
                    assert got == want and repr(got) == repr(want), (make.__name__, seed, G)
                    seen["grown"] += len(got.members) > n
                    seen["unknown"] += got.saturated.is_unknown
                    if is_hereditary(g, G):
                        got = is_saturated(g, G, cap)
                        want = oracles.oracle_shrinking_saturation_status(g, frozenset(G), cap)
                        assert got == want and repr(got) == repr(want), (make.__name__, seed, G)
                        seen["false"] += got.is_false
    assert min(seen.values()) > 0, seen


def _gate_caps(g):
    """Caps 1-3 and, at rank 2, (2,1), (1,2) and (0,1)."""
    return [(c,) * g.k for c in (1, 2, 3)] + ([(2, 1), (1, 2), (0, 1)] if g.k == 2 else [])


def _gate_sets(g):
    """Every vertex subset of a graph with at most 5 vertices, hereditary
    or not; the hereditary ones of a larger graph."""
    if len(g.vertices) > 5:
        return ideals._hereditary_sets(g)
    return [c for n in range(len(g.vertices) + 1) for c in itertools.combinations(g.vertices, n)]


def test_saturation_status_matches_ungated_oracle(monkeypatch):
    """_saturation_status lists the capped paths only at vertices that
    reach a vertex of H, and its value, witness and cap equal those of the
    route that listed them at every vertex outside H, on non-hereditary
    sets and on a graph that does not validate too: every set of
    _gate_sets at every cap of _gate_caps, on the fixtures, random 1- and
    2-graphs of seeds 0-149 and the dangling graph.  Both leave the answer
    unknown at (0,1) when a vertex outside H reaches H; certifying it true
    there counted 7,735 true and 209 unknown answers."""
    listed = []
    paths_up_to = KGraph.paths_up_to

    def recorded(g, v, cap):
        listed.append(v)
        return paths_up_to(g, v, cap)

    def compare(g, cap, H):
        want = oracles.oracle_saturation_status(g, frozenset(H), cap)
        listed.clear()
        with monkeypatch.context() as m:
            m.setattr(KGraph, "paths_up_to", recorded)
            got = ideals._saturation_status(g, frozenset(H), cap)
        assert got == want and repr(got) == repr(want), (g.vertices, cap, H)
        hmask = ideals._vertex_mask(g.vertex_bits(), H)
        assert all(g.reach_masks()[v] & hmask for v in listed), (g.vertices, cap, H, listed)
        return got.value.value, len(listed)

    seen = collections.Counter()
    for g in [*map(textio.fixture, sorted(textio.FIXTURE_TEXTS)), *_random_graphs()]:
        for cap in _gate_caps(g):
            for H in _gate_sets(g):
                value, n = compare(g, cap, H)
                seen[value] += 1
                seen["listed"] += n > 0
    assert seen["listed"] > 0, seen
    del seen["listed"]
    assert seen == {"true_certified": 7617, "false_certified": 1956, "unknown_at_cap": 327}, seen
    g = _dangling_graph()
    assert len([compare(g, cap, H) for cap in _gate_caps(g) for H in _gate_sets(g)]) == 24


def test_enumerate_sat_hered_examples(fx):
    got4 = [h.members for h in enumerate_sat_hered(fx["FX4"], (2,))]
    assert got4 == [(), ("u",), ("w",), ("u", "v", "w")]
    got2 = [h.members for h in enumerate_sat_hered(fx["FX2"], (2, 2))]
    assert got2 == [(), ("v",)]
    got1 = [h.members for h in enumerate_sat_hered(fx["FX1"], (2,))]
    assert got1 == [(), ("u", "v")]


# -- quotient -----------------------------------------------------------------------


def test_quotient_examples(fx):
    g = fx["FX4"]
    gq = quotient_graph(g, {"w"})
    assert gq.vertices == ("u", "v") and [e.eid for e in gq.edges] == ["f"]
    gq2 = quotient_graph(g, {"u"})
    assert gq2.vertices == ("v", "w") and [e.eid for e in gq2.edges] == ["e", "g"]
    assert quotient_graph(g, set()) == g


def test_quotient_rejects_non_hereditary(fx):
    with pytest.raises(KGraphError):
        quotient_graph(fx["FX4"], {"v"})
    with pytest.raises(KGraphError, match=r"^\{v\} is not hereditary$"):
        restricted_fe_family(fx["FX4"], {"v"}, (1,))


def test_quotients_validate_for_all_enumerated():
    """The quotient of every input of _pair_inputs by each nonempty
    hereditary H, saturated or not, validates, and at each of its vertices
    its universe lists g's paths with source outside H, in g's order (see
    quotient_graph).  The stripped family's strip bits and the replay of a
    quotient's refutation on g rest on this.  2,953 quotients of 768
    inputs validate in 0.1 s; the universe checks add 0.5 s."""
    quotients = 0
    for label, g, cap in _pair_inputs():
        for H in map(frozenset, ideals._hereditary_sets(g)[1:]):
            gq = quotient_graph(g, H)
            assert validate_kgraph(gq).ok, (label, H)
            for v in gq.vertices:
                want = tuple(p for p in align.universe(g, v, cap).paths if p.s not in H)
                assert align.universe(gq, v, cap).paths == want, (label, H, v)
            quotients += 1
    assert quotients == 2953


# -- stripped family and satiation ---------------------------------------------------


def test_restricted_fe_family_examples(fx):
    g = fx["FX4"]
    sf = restricted_fe_family(g, {"w"}, (2,))
    assert {frozenset(p.literal() for p in S) for S in sf.base.sets_at("v")} == {
        frozenset({"f"})
    }
    sf2 = restricted_fe_family(g, {"u"}, (2,))
    assert {frozenset(p.literal() for p in S) for S in sf2.base.sets_at("v")} == {
        frozenset({"e"}),
        frozenset({"e.g"}),
        frozenset({"e", "e.g"}),
    }
    # empty H: the family is the capped candidate family itself
    sf0 = restricted_fe_family(g, set(), (2,))
    direct = set()
    for v in g.vertices:
        direct.update(align.fe_sets(g, v, (2,)).all_sets())
    assert sf0.sets() == frozenset(direct)


def test_restricted_members_never_refuted(fx):
    for g in fx.values():
        cap = (2,) * g.k
        for hv in enumerate_sat_hered(g, cap):
            sf = restricted_fe_family(g, hv.as_frozenset, cap)
            gq = quotient_graph(g, hv.as_frozenset)
            for S, cert in sf.certs().items():
                assert not cert.is_false
                recheck = is_exhaustive(gq, S, cap)
                assert not recheck.is_false
            if hv.saturated.is_true:
                assert not sf.tainted


def test_is_satiated_examples(fx):
    g3 = fx["FX3"]
    fam = [{g3.path(["b"]), g3.path(["c"])}]
    assert is_satiated(g3, fam, (1, 1)).is_true
    g2 = fx["FX2"]
    res = is_satiated(g2, [{g2.path(["b"])}], (1, 1))
    assert res.is_false
    rule, G, _, D = res.witness
    assert rule == "S1"
    assert {p.literal() for p in D} == {"b", "r"}
    assert is_satiated(g2, [], (1, 1)).is_true


def test_is_satiated_of_stripped_family_never_false(fx):
    for g in fx.values():
        cap = (2,) * g.k
        for hv in enumerate_sat_hered(g, cap):
            sf = restricted_fe_family(g, hv.as_frozenset, cap)
            assert not sf.satiated.is_false


def test_satiation_closure_examples(fx):
    g2 = fx["FX2"]
    b = g2.path(["b"])
    cl = satiation_closure(g2, [{b}], (1, 1))
    sets = {frozenset(p.literal() for p in S) for S in cl.sets()}
    assert frozenset({"b", "r"}) in sets  # superset rule fires
    assert satiation_closure(g2, [], (1, 1)).sets() == frozenset()
    # closure of the stripped family adds nothing, on every fixture
    for name in ("FX1", "FX3", "FX4", "FX5", "FX6"):
        g = fx[name]
        cap = (2,) * g.k
        for hv in enumerate_sat_hered(g, cap):
            sf = restricted_fe_family(g, hv.as_frozenset, cap)
            gq = quotient_graph(g, hv.as_frozenset)
            assert satiation_closure(gq, sf, cap).sets() == sf.sets()


def test_satiation_closure_idempotent(fx):
    g2 = fx["FX2"]
    cl = satiation_closure(g2, [{g2.path(["b"])}], (1, 1))
    again = satiation_closure(g2, cl, (1, 1))
    assert again.sets() == cl.sets()


def _closure_inputs():
    """FX4 at (2,)-(6,), where the (S4) budget runs out from (4,) on, and
    random 2-graphs at (1,1): seeds 0-39 and the stripped families that
    react to missing (S2) derivatives."""
    for c in range(2, 7):
        yield f"FX4{(c,)}", textio.fixture("FX4"), (c,)
    for seed in sorted(set(range(40)) | set(cli_corpus.REACTING_SEEDS)):
        yield f"random_2graph({seed})", random_2graph(seed), (1, 1)


def test_satiation_closure_matches_every_round_oracle():
    """satiation_closure takes its verdict and overflow from its last
    round, which found nothing missing.  Against the closure that gathered
    the overflow, taints and budget hits of every round, the stripped
    family of every saturated hereditary H (the satiate command's input)
    closes to the same sets, certificates, overflow and status; its
    unknown witness is the last round's summary, as is_satiated gives it
    for the closed family.  Seeded
    sub-families, which grow over several rounds, close to the same sets
    and status too.  Their overflow matches unless the last round ran out
    of (S4) budget: that round then misses products an earlier round
    recorded, and its overflow is a subset of the old one."""
    seen = collections.Counter()
    rng = random.Random(0)
    for label, g, cap in _closure_inputs():
        for hv in enumerate_sat_hered(g, cap):
            H = hv.as_frozenset
            gq = quotient_graph(g, H)
            sf = restricted_fe_family(g, H, cap)
            sets = sorted(sf.sets(), key=set_sort_key)
            for fam in (sf, rng.sample(sets, rng.randint(0, len(sets)))):
                got = satiation_closure(gq, fam, cap)
                want = oracles.oracle_satiation_closure(gq, fam, cap)
                assert [(v, list(c.items())) for v, c in got.base.by_vertex.items()] == \
                    [(v, list(c.items())) for v, c in want.base.by_vertex.items()], (label, H)
                assert got.satiated.value == want.satiated.value, (label, H)
                assert got.satiated == is_satiated(gq, got, cap), (label, H)
                budget = any(w.startswith("scan budget") for w in got.satiated.witness or ())
                if fam is sf or not budget:
                    assert got.overflow == want.overflow, (label, H)
                else:
                    assert set(got.overflow) <= set(want.overflow), (label, H)
                    seen["overflow subset"] += got.overflow != want.overflow
                seen["unknown"] += got.satiated.is_unknown
                seen["budget"] += budget
                seen["grown"] += got.base.size() > (len(sets) if fam is sf else len(fam))
    assert min(seen.values()) > 0, seen


def test_closure_hands_its_last_round_to_the_family(monkeypatch):
    """satiation_closure's last scan is of the closed family and finds
    nothing missing, and the family it returns keeps that round's verdict
    and overflow: reading them runs no further scan."""
    scans = []
    scan = ideals._scan_satiation

    def recorded(gq, family, cap, known_bad=()):
        res = scan(gq, family, cap, known_bad)
        scans.append(({v: list(masks) for v, masks in family.items()}, res))
        return res

    monkeypatch.setattr(ideals, "_scan_satiation", recorded)
    seen = collections.Counter()
    rng = random.Random(0)
    for label, g, cap in _closure_inputs():
        for hv in enumerate_sat_hered(g, cap):
            H = hv.as_frozenset
            gq = quotient_graph(g, H)
            sets = sorted(restricted_fe_family(g, H, cap).sets(), key=set_sort_key)
            scans.clear()
            got = satiation_closure(gq, rng.sample(sets, rng.randint(0, len(sets))), cap)
            family, last = scans[-1]
            assert family == {v: list(masks) for v, masks in got.base.by_vertex.items()}, (label, H)
            assert not last.violations and not last.s4_missing, (label, H)
            rounds = len(scans)
            got.satiated, got.overflow, got.satiated
            assert len(scans) == rounds, (label, H)
            seen["rounds > 1"] += rounds > 1
            seen["unknown"] += got.satiated.is_unknown
            seen["overflow"] += bool(got.overflow)
    assert min(seen.values()) > 0, seen


def test_scan_matches_assignment_walk_oracle(monkeypatch):
    """Every closure scan run by the stripped families' verdicts (each one
    is read), and by is_satiated and satiation_closure on seeded
    sub-families of them, equals the scan that walks each (S4) assignment
    in both its modes: in check mode field by field, with the (S4) misses
    counted per derived set, and in extend mode its additions are the
    derived sets of the violations and (S4) misses.  The taints are
    compared as a list, and as a multiset when known bad sets can turn an
    (S4) taint into an (S4)-refuted one.  Every (S2) walk, the
    stripped-family rounds' included, finds at its vertex the (S2) misses
    of the assignment-walk scan of the family it walks."""
    scans = []
    walks = []
    scan, walk = ideals._scan_satiation, ideals._s2_walk

    def recorded(gq, family, cap, known_bad=()):
        snapshot = {v: dict(masks) for v, masks in family.items()}
        known_bad = list(known_bad)
        res = scan(gq, family, cap, known_bad)
        scans.append((gq, snapshot, cap, known_bad, res))
        return res

    def recorded_walk(gq, uni, family):
        assert uni is align.universe(gq, uni.vertex, uni.cap)  # the universe of the graph passed
        out = list(walk(gq, uni, family))
        walks.append((gq, uni, {v: tuple(masks) for v, masks in family.items()}, out))
        return iter(out)

    monkeypatch.setattr(ideals, "_scan_satiation", recorded)
    monkeypatch.setattr(ideals, "_s2_walk", recorded_walk)
    inputs = [(textio.fixture(name), c) for name in sorted(textio.FIXTURE_TEXTS) for c in (1, 2)]
    inputs += [(random_1graph(seed), 1) for seed in range(20)]
    inputs += [(random_2graph(seed), 1) for seed in range(20)]
    # random 2-graphs whose stripped families react to missing (S2) derivatives
    inputs += [(random_2graph(seed), 1) for seed in (35, 41, 58, 72, 87, 91)]
    rng = random.Random(0)
    for g, c in inputs:
        cap = (c,) * g.k
        for hv in enumerate_sat_hered(g, cap):
            H = hv.as_frozenset
            sf = restricted_fe_family(g, H, cap)
            sf.satiated
            sets = sorted(sf.sets(), key=set_sort_key)
            sub = rng.sample(sets, rng.randint(0, len(sets)))
            gq = quotient_graph(g, H)
            is_satiated(gq, sub, cap)
            satiation_closure(gq, sub, cap)

    seen = collections.Counter()
    for gq, family, cap, known_bad, res in scans:
        for extend in (False, True):
            want = oracles.oracle_scan_satiation(gq, family, cap, extend, known_bad)
            for name in res._fields:
                got, exp = getattr(res, name), getattr(want, name)
                if extend and name in ("violations", "s4_missing"):
                    continue
                if name == "taints" and known_bad:
                    got, exp = collections.Counter(got), collections.Counter(exp)
                assert got == exp, (name, gq.vertices, cap, extend)
            if extend:
                assert {vio[3] for vio in res.violations} | res.s4_missing.keys() == want.additions
        seen["scans"] += 1
        seen["known_bad"] += bool(known_bad)
        seen["s4_missing"] += bool(res.s4_missing)
        seen["overflow"] += bool(res.overflow)
        seen["S4 budget"] += any(b.startswith("S4") for b in res.budget_hit)
        seen["additions"] += bool(want.additions)
    misses = {}  # the oracle's s2_misses, by walked family
    for gq, uni, family, out in walks:
        fkey = (gq, uni.cap, tuple(sorted(family.items())))
        if fkey not in misses:
            fam = {v: dict.fromkeys(masks) for v, masks in family.items()}
            misses[fkey] = oracles.oracle_scan_satiation(gq, fam, uni.cap, False).s2_misses
        got = {}
        for gm, mu, dmask in out:
            if dmask:
                got.setdefault((uni.vertex, gm), []).append((mu, dmask))
        assert got == {key: ms for key, ms in misses[fkey].items() if key[0] == uni.vertex}, (uni.vertex, family)
        seen["s2 misses"] += bool(got)
    # as many full scans as when every round of a stripped family ran one
    assert seen["scans"] >= 553, seen
    assert min(seen[k] for k in ("known_bad", "s4_missing", "overflow", "S4 budget", "additions", "s2 misses")) > 0, seen


def _stripped_inputs():
    """Fixtures at caps 1-3, random 1- and 2-graphs (seeds 0-59) at cap 1,
    and random 2-graphs 72, 87, 91 and 228 at (1,1): with seeds 3, 5, 35,
    41 and 58, these are the ones whose stripped families react to missing
    (S2) derivatives.  In random_2graph(228), H = {v2} taints a strip that
    a missing (S2) derivative refuted, since no witness refutes its parents."""
    for name in sorted(textio.FIXTURE_TEXTS):
        k = textio.fixture(name).k
        for c in (1, 2, 3):
            yield f"{name}{(c,) * k}", textio.fixture(name), (c,) * k
    for make in (random_1graph, random_2graph):
        for seed in list(range(60)) + ([72, 87, 91, 228] if make is random_2graph else []):
            try:
                g = make(seed)
            except RuntimeError:
                continue
            yield f"{make.__name__}({seed})", g, (1,) * g.k


def test_stripped_family_matches_eager_oracle(monkeypatch):
    """Every stripped family, of every hereditary H (saturated or not),
    equals the one built while every round ran the full check scan: the
    same members in the same order, the same verdict and overflow (from
    the deferred scan), and the same refutations and taints.  No stripped
    family's verdict is FalseCertified on these inputs, so the FalseCertified
    certificates compared are those of the tainted strips."""
    rounds = []  # the family of each round, as the (S2) walks saw it
    walk = ideals._s2_walk

    def counted(gq, uni, family):
        if not rounds or rounds[-1] is not family:
            rounds.append(family)
        return walk(gq, uni, family)

    monkeypatch.setattr(ideals, "_s2_walk", counted)
    seen = collections.Counter()
    for label, g, cap in _stripped_inputs():
        for n in range(len(g.vertices) + 1):
            for H in map(frozenset, itertools.combinations(g.vertices, n)):
                if not is_hereditary(g, H):
                    continue
                try:
                    want = oracles.oracle_stripped_family(g, H, cap)
                except RuntimeError:  # over the fe enumeration limit
                    continue
                rounds.clear()
                got = restricted_fe_family(g, H, cap)
                walked = len(rounds)
                assert [(v, list(certs.items())) for v, certs in got.base.by_vertex.items()] == \
                    [(v, list(certs.items())) for v, certs in want.base.by_vertex.items()], (label, H)
                assert got.base.graph is want.base.graph and got.cap == want.base.cap == cap
                for name in ("satiated", "overflow", "refuted_parents", "quotient_refuted", "tainted"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert a == b and repr(a) == repr(b), (label, H, name)
                seen["families"] += 1
                seen["true"] += got.satiated.is_true
                seen["unknown"] += got.satiated.is_unknown
                seen["tainted false"] += any(c.is_false for c in got.tainted.values())
                seen["overflow"] += bool(got.overflow)
                seen["multi-round"] += walked > 1
    assert seen["families"] > 700 and min(seen.values()) > 0, seen


def test_stripped_family_invariants():
    """The facts (I) of _stripped_family's docstring, on every stripped
    family of _stripped_inputs and of the random 2-graphs (seeds 0-399)
    that are not locally convex, at (2,1) and (1,2): the strip of each
    refuted parent is quotient-refuted, each tainted strip is
    quotient-refuted, and every recorded witness replays, a parent's on the
    graph and a strip's on the quotient.  And the lemma of
    enumerate_ideal_pairs: every capped candidate of the quotient is a
    member of the family or quotient-refuted, so no candidate is left for B."""
    inputs = list(_stripped_inputs())
    for seed in range(400):
        g = random_2graph(seed)
        if not is_locally_convex(g):
            inputs += [(f"random_2graph({seed})", g, cap) for cap in ((2, 1), (1, 2))]
    seen = collections.Counter()
    for label, g, cap in inputs:
        for H in map(frozenset, ideals._hereditary_sets(g)):
            try:
                sf = restricted_fe_family(g, H, cap)
            except RuntimeError:  # over the fe enumeration limit
                continue
            gq, members = ideals.quotient_graph(g, H), sf.sets()
            for v in gq.vertices:
                for mask in ideals._candidates(gq, v, cap):
                    D = ideals._set(gq, (v, mask), cap)
                    assert D in members or D in sf.quotient_refuted, (label, cap, H, D)
                    seen["candidates"] += 1
            for E, tau in sf.refuted_parents.items():
                assert frozenset(p for p in E if p.s not in H) in sf.quotient_refuted, (label, cap, H, E)
                assert ideals._verify_refutation(g, E, tau, frozenset()), (label, cap, H, E)
            for S, sigma in sf.quotient_refuted.items():
                assert ideals._verify_refutation(g, S, sigma, H), (label, cap, H, S)
            for S, cert in sf.tainted.items():
                assert S in sf.quotient_refuted, (label, cap, H, S)
                assert cert.is_false and ideals._verify_refutation(g, S, cert.witness, H), (label, cap, H, S)
            seen["families"] += 1
            seen["parents"] += len(sf.refuted_parents)
            seen["quotient"] += len(sf.quotient_refuted)
            seen["taints"] += len(sf.tainted)
    assert seen["families"] > 1000 and min(seen.values()) > 0, seen


# -- pairs and lattice -----------------------------------------------------------


def test_enumerate_ideal_pairs_examples(fx):
    got4 = [p.H for p in enumerate_ideal_pairs(fx["FX4"], (2,))]
    assert got4 == [(), ("u",), ("w",), ("u", "v", "w")]
    got2 = [p.H for p in enumerate_ideal_pairs(fx["FX2"], (2, 2))]
    assert got2 == [(), ("v",)]
    got6 = [p.H for p in enumerate_ideal_pairs(fx["FX6"], (2,))]
    assert got6 == [(), ("v",)]


PAIR_FIELDS = ("graph_key", "cap", "H", "h_saturated", "exact")


def _pair_inputs():
    for name in sorted(textio.FIXTURE_TEXTS):
        k = textio.fixture(name).k
        for c in (1, 2, 3):
            yield f"{name}{(c,) * k}", textio.fixture(name), (c,) * k
    for make, caps in ((random_1graph, [(1,), (2,)]), (random_2graph, [(1, 1), (2, 1), (1, 2)])):
        for seed in range(150):
            for cap in caps:
                yield f"{make.__name__}({seed}){cap}", make(seed), cap


def test_pair_enumeration_matches_every_H_oracle():
    """The pairs equal those of the oracle enumeration, which builds the
    stripped family of every H, H = {} included, and searches the capped
    B universe, on every field and label.  Every oracle pair has B = ∅,
    as enumerate_ideal_pairs's lemma says, so the pairs store no B."""
    compared = refused = 0
    for label, g, cap in _pair_inputs():
        got = enumerate_ideal_pairs(g, cap)
        try:
            want = oracles.oracle_enumerate_ideal_pairs(g, cap)
        except RuntimeError:  # over the fe enumeration limit
            refused += 1
            continue
        assert len(got) == len(want), label
        for p, q in zip(got, want):
            assert q.B == (), (label, q.label())
            for name in PAIR_FIELDS:
                assert getattr(p, name) == getattr(q, name), (label, p.H, name)
            assert p.label() == q.label(), (label, p.H)
        compared += 1
    assert compared > 700 and refused < 50, (compared, refused)


def _replay_on_quotient(gq, E, tau):
    """The replay as ext on the quotient itself computes it."""
    return tau.r == next(iter(E)).r and not align.ext(gq, tau, E)


def _quotients(g):
    """Every proper nonempty hereditary H, saturated or not, with the
    quotient by it."""
    for n in range(1, len(g.vertices)):
        for H in itertools.combinations(g.vertices, n):
            if is_hereditary(g, H):
                yield frozenset(H), ideals.quotient_graph(g, H)


_SQUARES_INTO_H = """kgraph 2
vertex v
vertex x
vertex y
vertex h
vertex z
vertex w
vertex x2
vertex y2
edge b : 1 v <- x
edge r : 2 v <- y
edge r1 : 2 x <- h
edge b1 : 1 y <- h
square b r1 ~ r b1
edge c : 1 w <- x2
edge s : 2 w <- y2
edge s1 : 2 x2 <- z
edge c1 : 1 y2 <- z
square c s1 ~ s c1
"""


def test_quotient_replay_matches_replay_on_the_quotient(monkeypatch):
    """A refutation on the quotient of g by H is replayed on g: ext there,
    keeping the continuations with source outside H.  On every replay
    that the stripped families of the pairs with a nonempty H make over
    the inputs above, that answers as ext on the quotient does.  Those
    replays all refute, with no continuation in g either, so every capped
    path and single member at each vertex is replayed as well, on the
    quotient by each hereditary H of the inputs at their smallest cap,
    and on a quotient of a quotient where each H decides an answer,
    replayed on g with the union of the two H: there, continuations with
    source in H decide some answers."""
    replays = collections.Counter()
    verify = ideals._verify_refutation

    def compared(g, E, tau, H):
        got = verify(g, E, tau, H)
        gq = ideals.quotient_graph(g, H)
        assert got == _replay_on_quotient(gq, E, tau), (g.vertices, H, E, tau)
        replays["lattice", H != frozenset()] += 1
        return got

    monkeypatch.setattr(ideals, "_verify_refutation", compared)
    swept = []
    for label, g, cap in _pair_inputs():
        for p in enumerate_ideal_pairs(g, cap):
            if p.H:
                try:
                    restricted_fe_family(g, p.H, cap)
                except RuntimeError:  # over the fe enumeration limit
                    pass
        if max(cap) == 1:
            swept.extend((label, g, H, gq, cap) for H, gq in _quotients(g))
    # the square on b and r closes only at h, the one on c and s only at z:
    # neither pair has a common extension in the quotient by {h}, then {z}
    g = textio.parse_kgraph_text(_SQUARES_INTO_H).graph
    gqq = ideals.quotient_graph(ideals.quotient_graph(g, {"h"}), {"z"})
    swept.append(("squares into h and z / {h} / {z}", g, frozenset({"h", "z"}), gqq, (1, 1)))
    for label, g, H, gq, cap in swept:
        for v in gq.vertices:
            uq = align.universe(gq, v, cap)
            for tau, m in itertools.product(uq.paths, uq.members):
                got = verify(g, (m,), tau, H)
                assert got == _replay_on_quotient(gq, (m,), tau), (label, gq.vertices, tau, m)
                replays["sweep", got, got and bool(align.ext(g, tau, (m,)))] += 1
    assert replays["lattice", True], replays
    # refuted only because every continuation in g has its source in H
    assert replays["sweep", True, True] and replays["sweep", False, False], replays
    # a witness whose range is not the set's refutes nothing
    g4 = textio.fixture("FX4")
    assert not verify(g4, (g4.path(["e"]),), g4.path(["g"]), frozenset())


def test_pair_leq_examples(fx):
    g = fx["FX4"]
    pairs = enumerate_ideal_pairs(g, (2,))
    by_h = {p.H: p for p in pairs}
    assert pair_leq(g, by_h[("u",)], by_h[("u", "v", "w")])
    assert not pair_leq(g, by_h[("u",)], by_h[("w",)])
    assert not pair_leq(g, by_h[("w",)], by_h[("u",)])
    for p in pairs:
        assert pair_leq(g, p, p)


def test_pair_leq_rejects_cap_mismatch(fx):
    g = fx["FX4"]
    p2 = enumerate_ideal_pairs(g, (2,))[0]
    p3 = enumerate_ideal_pairs(g, (3,))[0]
    with pytest.raises(KGraphError):
        pair_leq(g, p2, p3)
    other = enumerate_ideal_pairs(fx["FX1"], (2,))[0]  # same cap, another graph
    with pytest.raises(KGraphError, match="pairs come from a different graph"):
        pair_leq(g, p2, other)


def test_pair_leq_is_partial_order(fx):
    for name in ("FX1", "FX4", "FX6"):
        g = fx[name]
        pairs = enumerate_ideal_pairs(g, (2,))
        for a in pairs:
            assert pair_leq(g, a, a)
            for b in pairs:
                if pair_leq(g, a, b) and pair_leq(g, b, a):
                    assert a == b
                for c in pairs:
                    if pair_leq(g, a, b) and pair_leq(g, b, c):
                        assert pair_leq(g, a, c)


def test_ideal_lattice_examples(fx):
    lat = ideal_lattice(fx["FX4"], (2,))
    assert [p.H for p in lat.pairs] == [(), ("u",), ("w",), ("u", "v", "w")]
    assert lat.hasse == ((0, 1), (0, 2), (1, 3), (2, 3))
    assert lat.is_lattice
    assert all(p.exact for p in lat.pairs)
    lat1 = ideal_lattice(fx["FX1"], (2,))
    assert len(lat1.pairs) == 2 and lat1.hasse == ((0, 1),)
    lat6 = ideal_lattice(fx["FX6"], (2,))
    assert len(lat6.pairs) == 2 and lat6.hasse == ((0, 1),)


def test_lattice_keeps_no_graph_alive():
    """A pair holds the graph's cache key, not the graph: once the graph
    is dropped, the lattice and pairs built from it keep none of it."""
    g = textio.parse_kgraph_text(textio.FIXTURE_TEXTS["FX4"]).graph  # fresh memo
    ref = weakref.ref(g)
    lat = ideal_lattice(g, (3,))
    pairs = enumerate_ideal_pairs(g, (3,))
    del g
    gc.collect()
    assert ref() is None
    assert [p.H for p in lat.pairs] == [p.H for p in pairs] == [(), ("u",), ("w",), ("u", "v", "w")]


def test_lattice_meets_joins_on_diamond(fx):
    lat = ideal_lattice(fx["FX4"], (2,))
    # nodes: 0=bottom, 1={u}, 2={w}, 3=top
    assert lat.meet(1, 2) == lat.meet(2, 1) == 0
    assert lat.join(1, 2) == lat.join(2, 1) == 3
    assert lat.meet(0, 3) == 0 and lat.join(0, 3) == 3
    assert lat.meet(1, 3) == 1 and lat.join(1, 1) == 1


def _chain(n):
    """A 1-graph on n vertices with a loop at each and an edge into each
    from the next: its hereditary sets are the n + 1 tails."""
    vs = [f"v{i:03d}" for i in range(n)]
    edges = [(f"l{i:03d}", 1, v, v) for i, v in enumerate(vs)]
    edges += [(f"e{i:03d}", 1, vs[i], vs[i + 1]) for i in range(n - 1)]
    return KGraph(Skeleton.build(1, vs, edges), [])


def _loops(n):
    """n disjoint loops: every one of the 2**n vertex sets is hereditary."""
    vs = [f"v{i:03d}" for i in range(n)]
    return KGraph(Skeleton.build(1, vs, [(f"l{i:03d}", 1, v, v) for i, v in enumerate(vs)]), [])


def test_ideal_lattice_matches_search_oracle():
    """The lattice equals the search oracle, whose Hasse diagram, meets
    and joins search the order matrix, meet and join for every ordered
    pair of nodes: on the fixtures at two caps, random 1- and 2-graphs
    (seeds 0-149), the graph with dangling edges, chains and 7 disjoint
    loops (128 pairs).  The lemma that the lattice reads its meets and
    joins from holds on each input: the listed H are closed under
    intersection.  It is a lattice exactly when the union of the listed
    H is listed; on an input that validates, the full vertex set is
    listed and no join is missing."""
    inputs = [(textio.fixture(name), (c,) * textio.fixture(name).k)
              for name in sorted(textio.FIXTURE_TEXTS) for c in (1, 2)]
    inputs += [(g, (1,) * g.k) for g in [*_random_graphs(), _dangling_graph()]]
    inputs += [(_chain(n), (1,)) for n in (1, 2, 5, 9)] + [(_loops(7), (1,))]
    seen = collections.Counter()
    for g, cap in inputs:
        try:
            got = ideal_lattice(g, cap)
        except RuntimeError:  # over the fe enumeration limit
            seen["refused"] += 1
            continue
        pairs, hasse, meets, joins, failures = oracles.oracle_ideal_lattice(g, cap)
        where = (g.vertices, cap)
        assert (got.pairs, got.hasse, got.failures, got.cap) == (pairs, hasse, failures, cap), where
        assert got.is_lattice == (not failures), where
        n = len(pairs)
        assert all(got.meet(i, j) == meets[i, j] and got.join(i, j) == joins[i, j]
                   for i in range(n) for j in range(n)), where
        listed = {frozenset(p.H) for p in got.pairs}
        assert all(a & b in listed for a in listed for b in listed), where
        assert got.is_lattice == (frozenset().union(*listed) in listed), where
        if validate_kgraph(g).ok:
            assert frozenset(g.vertices) in listed and got.failures == (), where
            seen["validated"] += 1
        seen["lattices"] += 1
        seen["max pairs"] = max(seen["max pairs"], len(got.pairs))
    assert seen["lattices"] > 300 and seen["validated"] > 300 and seen["max pairs"] == 128, seen


def test_lattice_keeps_rows_not_pair_tables():
    """The lattice keeps an up and a down row per node, no table over
    pairs of nodes: on 8 disjoint loops (256 pairs) ideal_lattice peaks
    under 1 MB of traced allocations, where n² meet and join tables take
    about 12 MB.  Its meet is the node of H ∩ H' and its join that of the
    least listed superset, here H ∪ H'."""
    tracemalloc.start()
    try:
        lat = ideal_lattice(_loops(8), (1,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lat.pairs) == 256 and lat.is_lattice and peak < 1_000_000, peak
    node = {frozenset(p.H): i for i, p in enumerate(lat.pairs)}
    rng = random.Random(8)
    for _ in range(50):
        i, j = rng.randrange(256), rng.randrange(256)
        a, b = frozenset(lat.pairs[i].H), frozenset(lat.pairs[j].H)
        assert lat.meet(i, j) == node[a & b] and lat.join(i, j) == node[a | b], (a, b)
    assert lat.meet(0, 255) == 0 and lat.join(0, 255) == 255


def test_vertex_scale_chain():
    """The down-set enumeration and the bitmask order scale with the
    number of hereditary sets, not with 2**|V|."""
    assert len(ideals._hereditary_sets(_chain(400))) == 401
    lat = ideal_lattice(_chain(22), (1,))
    assert len(lat.pairs) == 23 and lat.is_lattice
    assert lat.hasse == tuple((i, i + 1) for i in range(22))


def test_lattice_order_reads_no_graph_key_per_comparison(monkeypatch):
    """The lattice's pairs come from one enumeration, so they share a graph
    and a cap: on 7 disjoint loops (128 pairs, 16,384 comparisons) the
    lattice makes at most one cache_key call per pair."""
    g = _loops(7)
    calls = collections.Counter()
    cache_key = KGraph.cache_key

    def counted(self):
        calls["cache_key"] += 1
        return cache_key(self)

    with monkeypatch.context() as m:
        m.setattr(KGraph, "cache_key", counted)
        lat = ideal_lattice(g, (1,))
    assert len(lat.pairs) == 128 and 0 < calls["cache_key"] <= len(lat.pairs), calls


# -- rank-1 oracle ---------------------------------------------------------------


def test_k1_oracle_on_fixtures(fx):
    for name in ("FX1", "FX4", "FX5", "FX6"):
        g = fx[name]
        pairs = enumerate_ideal_pairs(g, (1,))
        got = [frozenset(p.H) for p in pairs]
        assert got == sorted(oracles.k1_sat_hered_sets(g), key=lambda s: (len(s), sorted(s)))


def test_is_satiated_rejects_out_of_universe_members(fx):
    g = fx["FX4"]
    deep = g.path(["e", "g"])  # degree 2 member against a cap-1 universe
    with pytest.raises(KGraphError):
        is_satiated(g, [{deep}], (1,))
