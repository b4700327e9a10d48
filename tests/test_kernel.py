"""The bitmask kernel of align.VertexUniverse against the path arithmetic
it stands in for, and call-count gates that keep that arithmetic, and
the conversions between path sets and masks, out of the inner loops of
the lattice computation.  The lattice builds no stripped family, so
the gates on the closure loops also read every pair's stripped family."""

import itertools
import random
from collections import Counter

import pytest

from kgraphlat import align, degrees, ideals, kgraph, structure, textio
from kgraphlat.kgraph import KGraph, is_locally_convex, validate_kgraph
from kgraphlat.randomgraphs import random_1graph, random_2graph

import oracles
from test_ideals import _pair_inputs
from test_kgraph import _product


def _graphs():
    for name in sorted(textio.FIXTURE_TEXTS):
        g = textio.fixture(name)
        for cap in ((1,) * g.k, (2,) + (1,) * (g.k - 1)):
            yield f"{name}{cap}", g, cap
    for seed in range(50):
        try:
            g = random_2graph(seed)
        except RuntimeError:
            continue
        for cap in ((1, 1), (2, 1)):
            yield f"random_2graph({seed}){cap}", g, cap


def _paths_of(uni, pathmask):
    return {p for t, p in enumerate(uni.paths) if pathmask >> t & 1}


def _check_universe(g, v, cap, rng):
    uni = align.universe(g, v, cap)
    for i, lam in enumerate(uni.paths):
        assert uni.index[lam] == i
        for j, mu in enumerate(uni.members):
            assert bool(uni.captured[i] >> j & 1) == g.extends(lam, mu), (lam, mu)
        for m in degrees.below(lam.d):
            head, tail = g.split(lam, m)
            assert uni.paths[uni.prefix[i][m]] == head == g.prefix(lam, m)
            assert uni.suffix[i][m] == tail
        escapes = any(not degrees.leq(g.compose(lam, g.path([e.eid])).d, cap) for e in g.edges_at(lam.s))
        assert uni.escapes[i] is escapes, lam
        there = align.universe(g, lam.s, cap)
        row = uni.continuations(g, i)
        for j, mu in enumerate(uni.members):
            assert _paths_of(there, row[j]) == set(align.ext(g, lam, (mu,))), (lam, mu)
        for _ in range(3):
            emask = rng.getrandbits(len(uni.members))
            want = set(align.ext(g, lam, uni.set_of(emask)))
            assert _paths_of(there, uni.ext_mask(g, i, emask)) == want
        bits, beyond = uni.compositions(g, i)
        for j, q in enumerate(there.members):
            prod = g.compose(lam, q)
            if degrees.leq(prod.d, cap):
                assert bits[j] == 1 << uni.member_index[prod] and j not in beyond, (lam, q)
            else:
                assert bits[j] == 0 and beyond[j] == prod, (lam, q)


def test_kernel_tables_match_path_arithmetic():
    """Capture bits, prefix table, escape flags, continuation masks and
    composition table agree with extends, prefix/split, one-edge products,
    ext and compose on every capped path and member, for every fixture and
    random 2-graph seeds 0-49."""
    seen = 0
    for label, g, cap in _graphs():
        rng = random.Random(label)
        for v in g.vertices:
            _check_universe(g, v, cap, rng)
        seen += 1
    assert seen > 50


def test_universe_build_cuts_only_at_the_top_colour(monkeypatch):
    """A universe build reads the prefix and suffix of a path tau at each
    degree m with m_c < d(tau)_c, c the top colour of d(tau), off the rows
    of tau less its last edge, and its escape flag off the skeleton.  So it
    makes no compose or path call, and cuts tau only at degrees m with
    m_c = d(tau)_c: 1,092 cuts over the inputs of the test above, on
    copies with an empty memo.  Cutting every degree and composing each
    one-edge extension past the cap made 5,820 splits and 2,176 compose
    and path calls each."""
    inputs = [(KGraph(g.skeleton, g.squares), cap) for _, g, cap in _graphs()]
    for g, cap in inputs:
        for v in g.vertices:
            g.paths_up_to(v, cap)
    calls = _counting(monkeypatch, KGraph, ("compose", "path"))
    cuts = []
    split = KGraph.split

    def recorded(self, p, m):
        cuts.append((p.d, m, self.edge(p.edges[-1]).color - 1))
        return split(self, p, m)

    monkeypatch.setattr(KGraph, "split", recorded)
    for g, cap in inputs:
        for v in g.vertices:
            align._build_universe(g, v, cap)
    assert not calls
    assert all(m[c] == d[c] for d, m, c in cuts)
    assert len(cuts) == 1092


def _escape_corpus():
    """Fixtures at caps 1-3 (and (2,1), (1,2) at rank 2), random 1-graphs
    of seeds 0-149 at (1,), (2,), (3,) and random 2-graphs of seeds 0-299
    at (1,1), (2,1), (1,2), (2,2)."""
    for name in sorted(textio.FIXTURE_TEXTS):
        g = textio.fixture(name)
        for cap in [(c,) * g.k for c in (1, 2, 3)] + ([(2, 1), (1, 2)] if g.k == 2 else []):
            yield g, cap
    for seed in range(150):
        g = random_1graph(seed)
        for c in (1, 2, 3):
            yield g, (c,)
    for seed in range(300):
        g = random_2graph(seed)
        for cap in ((1, 1), (2, 1), (1, 2), (2, 2)):
            yield g, cap


def test_escape_rows_match_extension_masks():
    """A one-edge extension past the cap extends exactly the members its
    path extends: the member mask the universe once built for it, by
    composing and cutting, equals the path's captured mask, and the escape
    flag read off the skeleton is set exactly when the path has such an
    extension.  So classify on escape flags answers as the mask route did,
    checked for every member set of each universe with at most 10
    members.  The entries counted are the oracle's extensions past the cap."""
    seen = Counter()
    for g, cap in _escape_corpus():
        for v in g.vertices:
            uni = align.universe(g, v, cap)
            masks, srcs = oracles.beyond_rows(g, uni)
            assert [bool(row) for row in srcs] == uni.escapes, (v, cap)
            for i, row in enumerate(masks):
                assert all(mask == uni.captured[i] for mask in row), (v, cap, i)
            seen["universes"] += 1
            seen["entries"] += sum(map(len, srcs))
            if len(uni.members) <= 10:
                for emask in range(1 << len(uni.members)):
                    assert uni.classify(emask) == oracles.beyond_classify(uni, masks, emask), (v, cap, emask)
    assert (seen["universes"], seen["entries"]) == (3840, 55415), seen


def _hereditary_sets(g):
    """Every nonempty hereditary vertex set, saturated or not."""
    for n in range(1, len(g.vertices) + 1):
        for H in itertools.combinations(g.vertices, n):
            if ideals.is_hereditary(g, H):
                yield frozenset(H)


def _stripped_fields(sf):
    return (sf.base.by_vertex, sf.refuted_parents, sf.quotient_refuted, sf.tainted, sf.satiated, sf.overflow)


def test_strip_bits_do_not_depend_on_how_the_quotient_universe_was_built():
    """A caller can build the quotient's universes and candidate tables
    before the stripped family is built, which then finds them in the
    quotient's memo.  The family reads each strip's bits off g's universe
    and the quotient's member_index, so on every input of _pair_inputs
    that is not locally convex and every nonempty hereditary H it equals,
    on every field, the family of a freshly parsed copy built in the
    usual order."""
    seen = Counter()
    for label, g, cap in _pair_inputs():
        if is_locally_convex(g):
            continue
        text = textio.emit_kgraph_text(g)
        for H in _hereditary_sets(g):
            gq = ideals.quotient_graph(g, H)
            try:
                for v in gq.vertices:
                    align.fe_sets(gq, v, cap)
                got = ideals.restricted_fe_family(g, H, cap)
            except RuntimeError:  # over the fe enumeration limit
                seen["refused"] += 1
                continue
            want = ideals.restricted_fe_family(textio.parse_kgraph_text(text).graph, H, cap)
            assert _stripped_fields(got) == _stripped_fields(want), (label, H)
            seen["compared"] += 1
            seen["dropped"] += any(len(align.universe(g, v, cap).members) > len(align.universe(gq, v, cap).members)
                                   for v in gq.vertices)
            seen["refuted"] += bool(got.refuted_parents or got.quotient_refuted)
    # 198 compared, 96 with a strip that drops members, 15 with refutations
    assert seen["compared"] > 150 and seen["dropped"] > 50 and seen["refuted"] and not seen["refused"], seen


def _counting(monkeypatch, owner, names):
    """Count calls of the named methods of a class, or functions of a
    module, called with positional arguments."""
    calls = Counter()
    for name in names:
        orig = getattr(owner, name)

        def counted(self, *args, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(self, *args)

        monkeypatch.setattr(owner, name, counted)
    return calls


def _counting_by_graph(monkeypatch, g, names):
    """Count calls of the named KGraph methods, under (name, "g") on g and
    (name, "other") on any other graph."""
    calls = Counter()
    for name in names:
        def counted(self, *args, _orig=getattr(KGraph, name), _name=name):
            calls[_name, "g" if self is g else "other"] += 1
            return _orig(self, *args)

        monkeypatch.setattr(KGraph, name, counted)
    return calls


def _lattice_and_families(g, cap):
    """The lattice, then the stripped family of each of its pairs."""
    lat = ideals.ideal_lattice(g, cap)
    for p in lat.pairs:
        ideals.restricted_fe_family(g, p.H, cap)
    return lat


# Exact split and compose counts at the time of writing, pinned as upper
# bounds; they do not depend on string hashing, so machine noise cannot
# trip this gate.  The parameters are the counts of the route that cut
# every degree and composed each one-edge extension past the cap.
_LATTICE_CALLS = {"FX6": (6, 0), "FX2": (14, 0)}


@pytest.mark.parametrize("name, cap, split_was, compose_was", [
    ("FX6", (2,), 33, 34),
    ("FX2", (2, 2), 66, 24),
])
def test_lattice_path_arithmetic_calls_pinned(monkeypatch, name, cap, split_was, compose_was):
    """The universes of the lattice and its families cut a path only at
    the degrees that hold all its edges of its top colour, so a rank-1
    build cuts each path once, at its own degree, and they compose
    nothing.  Cutting every degree and composing each one-edge extension
    past the cap made 33 / 66 splits and 34 / 24 composes."""
    split_max, compose_max = _LATTICE_CALLS[name]
    g = textio.parse_kgraph_text(textio.FIXTURE_TEXTS[name]).graph  # fresh memo
    calls = _counting(monkeypatch, KGraph, ("extends", "split", "compose"))
    _lattice_and_families(g, cap)
    assert calls["extends"] == 0
    assert calls["split"] <= split_max < split_was
    assert calls["compose"] <= compose_max < compose_was


def _window(name, radius):
    base = _product([textio.fixture("FX6")] * 3) if name == "FX6^3" else textio.fixture(name)
    return structure.skew_product_window(base, (-radius,) * base.k, (radius,) * base.k).graph


def _common_extension_session(g, cap):
    """paths_up_to plus mce and ext over every ordered pair of capped
    paths at every vertex of g."""
    for v in g.vertices:
        paths = g.paths_up_to(v, cap)
        for mu, nu in itertools.product(paths, paths):
            align.mce(g, mu, nu)
            align.ext(g, mu, (nu,))


WINDOW_SESSIONS = [("FX2", 2, (2, 2)), ("FX6^3", 1, (1, 1, 1))]


@pytest.mark.parametrize("name, radius, cap", WINDOW_SESSIONS)
def test_common_extension_calls_pinned(monkeypatch, name, radius, cap):
    """mce and ext read one table of minimal common extensions per pair,
    built from the continuations of one side: each continuation's edges
    are normalized and cut as edge tuples, so no compose or split runs.
    The session is paths_up_to plus mce and ext over every ordered pair of
    capped paths at every vertex of a skew-product window.  Filtering
    every path of the joined degree by its two prefixes, and splitting
    each extension again, made 2,192 / 32,035 splits and no compose;
    composing and splitting each continuation walked made 584 / 4,321 of
    each."""
    g = _window(name, radius)
    calls = _counting(monkeypatch, KGraph, ("split", "compose"))
    _common_extension_session(g, cap)
    assert calls["split"] == calls["compose"] == 0


def test_common_extension_kernel_calls_pinned(monkeypatch):
    """The memo census window: FX2's radius-3 skew-product window, every
    ordered pair of paths up to (2,2) at each vertex.  Enumerating the
    paths extends normal forms, so it cuts and normalizes nothing.  A pair
    of comparable degrees is decided by one cut of the larger side and no
    _normalize: 1,156 pair tables, one per unordered pair, as both argument
    orders share one.  900 of them cut at a slice of the degree plan, a
    tuple slice, and 256 call _cut.  The 256 incomparable pairs walk one
    continuation each, whose product with the walked side ascends, so
    they call _cut once and _normalize never; 512 _cut calls in all.
    Before the plan every table called _cut, 1,412 in all, and each
    incomparable pair _normalize once, 256 in all."""
    g = _window("FX2", 3)
    calls = _counting(monkeypatch, KGraph, ("_cut", "_normalize"))
    paths = {v: g.paths_up_to(v, (2, 2)) for v in g.vertices}
    assert not calls
    pairs = [(mu, nu) for v in g.vertices for mu, nu in itertools.product(paths[v], paths[v])]

    def comparable(mu, nu):
        return degrees.leq(mu.d, nu.d) or degrees.leq(nu.d, mu.d)

    for wanted in (True, False):
        for mu, nu in pairs:
            if comparable(mu, nu) == wanted:
                align.mce(g, mu, nu)
                align.ext(g, mu, (nu,))
        tables = sum(key[0] == "mce" for key in g._cache if isinstance(key, tuple))
        if wanted:
            assert tables == 1156 and calls["_cut"] == 256 and calls["_normalize"] == 0, (tables, calls)
    assert tables == 1412 and calls["_cut"] == 512 and calls["_normalize"] == 0, (tables, calls)


def test_validation_routes_one_triple_per_hexagon(monkeypatch):
    """Validating FX6^3's radius-3 skew-product window, the rank-3 window
    of the path-algebra benchmark, routes each colour-ascending triple
    once: 1,728 routes, one sixth of the 10,368 composable triples of
    three colours, which the cube check routed in every colour order
    before."""
    g = _window("FX6^3", 3)
    at = {}
    for e in g.edges:
        at.setdefault(e.r, []).append(e)
    triples = sum(len({a.color, b.color, c.color}) == 3
                  for a in g.edges for b in at.get(a.s, ()) for c in at.get(b.s, ()))
    calls = _counting(monkeypatch, kgraph, ("_reversals",))
    assert validate_kgraph(g).ok
    assert triples == 10368 and calls["_reversals"] == triples // 6 == 1728


@pytest.mark.parametrize("name, radius", [("FX2", 10), ("FX6^3", 3)])
def test_window_text_round_trip(name, radius):
    """Parsing a window's emitted text gives the window back: the same
    graph, squares tuple and swap table, in the same order, and an ok
    report."""
    g = _window(name, radius)
    doc = textio.parse_kgraph_text(textio.emit_kgraph_text(g))
    assert doc.graph == g and doc.graph.squares == g.squares
    assert list(doc.graph._swap.items()) == list(g._swap.items())
    assert doc.report.ok


@pytest.mark.parametrize("name, radius, cap, splits", [("FX2", 2, (2, 2), 36), ("FX6^3", 1, (1, 1, 1), 125)])
def test_cofinal_window_runs_no_pairwise_cone_scan(monkeypatch, name, radius, cap, splits):
    """Every cone of a skew-product window holds its top corner, so
    cofinality_check skips the pairwise cone scan.  Its terminal-path
    scan still splits each terminal path at every degree below its own,
    as many times as before: these are the path-algebra benchmark's only
    split calls, which its cross-process tracing test requires."""
    g = _window(name, radius)
    calls = _counting(monkeypatch, KGraph, ("split",))
    cones = _counting(monkeypatch, structure, ("_disjoint_cones",))
    assert structure.cofinality_check(g, cap).is_true
    assert calls["split"] == splits and not cones


@pytest.mark.parametrize("name, radius, cap", WINDOW_SESSIONS)
def test_common_extension_session_memo_footprint(name, radius, cap):
    """The same sessions leave no split or ext entry in the graph's memo:
    ext reads its members' pair tables; they left 244 / 1,331 split and
    1,024 / 6,859 ext entries when each continuation was split through
    the memo."""
    g = _window(name, radius)
    _common_extension_session(g, cap)
    keys = [key for key in g._cache if isinstance(key, tuple)]
    assert any(key[0] == "mce" for key in keys)
    assert not [key for key in keys if key[0] in ("split", "ext")]


def test_lattice_memo_stores_no_split_or_ext():
    """random_2graph(41) is not locally convex, so the stripped families
    of its pairs replay refutations through ext of sets with several
    members.  Neither split nor ext stores a memo entry: with a split
    memo and an ext memo for sets of several members, the graph's memo
    held 100 entries, 35 split and 12 ext; now it holds 60."""
    g = random_2graph(41)
    _lattice_and_families(g, (1, 1))
    structure.structure_report(g, (1, 1), False)
    keys = [key for key in g._cache if isinstance(key, tuple)]
    assert any(key[0] == "mce" for key in keys)
    assert not [key for key in keys if key[0] in ("split", "ext")]


def test_quotient_replays_run_no_path_arithmetic(monkeypatch):
    """random_2graph(41) is not locally convex, so the stripped families
    of its pairs replay refutations on the quotients.  A replay on a
    quotient by H reads ext on g, which the caller passes with H, and
    keeps the continuations with source outside H, so no split, compose
    or path enumeration runs on a quotient graph inside a replay;
    replaying with ext on the quotient made 32 splits and 5 enumerations
    there.  The quotients' universe builds make 16 splits and 24
    enumerations on them, outside the replays."""
    g = random_2graph(41)
    names = ("split", "compose", "_enumerate_degree")
    calls = _counting_by_graph(monkeypatch, g, names)
    replays = Counter()
    verify = ideals._verify_refutation

    def recorded(gx, E, tau, H):
        assert gx is g
        replays["quotient" if H else "g"] += 1
        before = sum(calls[name, "other"] for name in names)
        try:
            return verify(gx, E, tau, H)
        finally:
            replays["quotient arithmetic"] += sum(calls[name, "other"] for name in names) - before

    monkeypatch.setattr(ideals, "_verify_refutation", recorded)
    _lattice_and_families(g, (1, 1))
    structure.structure_report(g, (1, 1), False)
    assert replays["quotient"]
    assert replays["quotient arithmetic"] == 0, calls


# Universe builds and splits on FX4's quotients, pinned as upper bounds
_QUOTIENT_CALLS = {(2,): (4, 5), (3,): (4, 7)}


@pytest.mark.parametrize("cap, builds_was, split_was", [
    ((2,), 3, 5),
    ((3,), 3, 7),
])
def test_universe_builds_on_quotients_pinned(monkeypatch, cap, builds_was, split_was):
    """FX4's lattice reads the quotients by {u} and {w}, and by {u,v,w},
    which has no vertex, and each family builds its quotient's universes
    on the quotient: 4 builds there and 5 / 7 splits, as many as on g,
    where a rank-1 build cuts each path once; no build composes.
    Restricting g's universes to the quotients built the same 3 universes
    and made the same 5 / 7 splits on g, and none on the quotients, so
    the quotients' counts are what one universe builder costs."""
    g = textio.parse_kgraph_text(textio.FIXTURE_TEXTS["FX4"]).graph  # fresh memo
    built = Counter()
    build = align._build_universe

    def recorded(gx, v, cap):
        built["g" if gx is g else "other"] += 1
        return build(gx, v, cap)

    monkeypatch.setattr(align, "_build_universe", recorded)
    calls = _counting_by_graph(monkeypatch, g, ("split", "compose"))
    lat = _lattice_and_families(g, cap)
    quotients = {ideals.quotient_graph(g, p.H) for p in lat.pairs if p.H} - {g}
    assert sorted(gq.vertices for gq in quotients) == [(), ("u", "v"), ("v", "w")]
    builds_max, split_max = _QUOTIENT_CALLS[cap]
    assert built["other"] <= builds_max and calls["split", "other"] <= split_max, (built, calls)
    assert built["g"] <= builds_was and calls["split", "g"] <= split_was, (built, calls)
    assert calls["compose", "g"] == calls["compose", "other"] == 0


@pytest.mark.parametrize("name, cap, listed_was, degrees_was", [
    ("FX6", (1,), 1, 2),
    ("FX6", (2,), 1, 3),
    ("FX6", (3,), 1, 4),
    ("FX2", (1, 1), 1, 4),
    ("FX2", (2, 2), 1, 9),
])
def test_lattice_lists_no_paths_out_of_reach_of_H(monkeypatch, name, cap, listed_was, degrees_was):
    """Saturation lists the capped paths at a vertex outside H only when
    the vertex reaches H.  On FX6 and FX2, whose one vertex is in H or H
    is empty, the lattice lists no path and enumerates no degree; listing
    them at every vertex outside H made 1 paths_up_to and 2 / 3 / 4 / 4 / 9
    _enumerate_degree calls."""
    g = textio.parse_kgraph_text(textio.FIXTURE_TEXTS[name]).graph  # fresh memo
    calls = _counting(monkeypatch, KGraph, ("paths_up_to", "_enumerate_degree"))
    ideals.ideal_lattice(g, cap)
    assert calls["paths_up_to"] == 0 < listed_was
    assert calls["_enumerate_degree"] == 0 < degrees_was


@pytest.mark.parametrize("name, listed_max, degrees_max, splits", [("FX4", 4, 4, 4), ("FX1", 2, 4, 3)])
def test_lattice_keeps_its_universe_where_H_is_in_reach(monkeypatch, name, listed_max, degrees_max, splits):
    """FX4 and FX1 at (3,) still build one universe each, with 4 and 3
    split calls: these are lattice-deep's only splits, and its traced
    kgraph.split_calls must stay above 0.  Listing the capped paths at
    every vertex outside H made 9 / 4 paths_up_to and 12 / 8
    _enumerate_degree calls."""
    g = textio.parse_kgraph_text(textio.FIXTURE_TEXTS[name]).graph  # fresh memo
    built = []
    build = align._build_universe

    def recorded(gx, v, cap):
        built.append(gx)
        return build(gx, v, cap)

    monkeypatch.setattr(align, "_build_universe", recorded)
    calls = _counting(monkeypatch, KGraph, ("paths_up_to", "_enumerate_degree", "split"))
    ideals.ideal_lattice(g, (3,))
    assert built == [g]
    assert calls["split"] == splits
    assert calls["paths_up_to"] <= listed_max
    assert calls["_enumerate_degree"] <= degrees_max


@pytest.mark.parametrize("name, cap, ext_max, universe_max", [
    ("FX6", (2,), 35, 4),
    ("FX2", (2, 2), 680, 4),
])
def test_lattice_s2_walk_calls_pinned(monkeypatch, name, cap, ext_max, universe_max):
    """The (S2) derivatives of each stripped family are computed once, by
    the closure scan, and no universe is looked up per strip: a separate
    extension walk made 70 / 1,360 ext_mask and 54 / 514 universe calls."""
    g = textio.parse_kgraph_text(textio.FIXTURE_TEXTS[name]).graph  # fresh memo
    ext_calls = _counting(monkeypatch, align.VertexUniverse, ("ext_mask",))
    universe_calls = _counting(monkeypatch, ideals, ("universe",))
    _lattice_and_families(g, cap)
    assert ext_calls["ext_mask"] <= ext_max
    assert universe_calls["universe"] <= universe_max


def test_lattice_shrinks_no_saturation_witness(monkeypatch):
    """Only is_saturated, which returns its witness, shrinks a certified
    exhaustive set; the lattice and the report, which drop every refuted
    H, shrink none on random 1- and 2-graphs (seeds 0-39) at cap 1.
    Shrinking each refutation's set where it was found made 148 calls."""
    calls = _counting(monkeypatch, ideals, ("_minimize_exhaustive",))
    for make in (random_1graph, random_2graph):
        for seed in range(40):
            g = make(seed)
            cap = (1,) * g.k
            ideals.ideal_lattice(g, cap)
            structure.structure_report(g, cap, False)
    assert calls["_minimize_exhaustive"] == 0


@pytest.mark.parametrize("name, cap", [("FX6", (2,)), ("FX2", (2, 2))])
def test_stripped_family_reads_only_quotient_universes(monkeypatch, name, cap):
    """The stripped family of H = {} reads its strips off g's candidate
    tables and looks up no universe for them; a nonempty H looks up g's
    universe and the quotient's at each vertex outside H.  The lattice
    plus every pair's stripped family make 2 universe lookups, both on g,
    on FX6 (2,) and FX2 (2,2), whose one vertex lies in every nonempty H;
    the bound of 3 is the count of an earlier route, and looking up both
    universes once per strip made 4."""
    g = textio.parse_kgraph_text(textio.FIXTURE_TEXTS[name]).graph  # fresh memo
    calls = _counting(monkeypatch, ideals, ("universe",))
    _lattice_and_families(g, cap)
    assert calls["universe"] <= 3


@pytest.mark.parametrize("name, cap, subsets", [("FX6", (2,), 63), ("FX2", (2, 2), 255)])
def test_lattice_family_mask_calls_pinned(monkeypatch, name, cap, subsets):
    """Families stay member masks from fe_sets to the lattice: no set is
    turned back into a mask, each subset is classified once, and no path
    set is built."""
    g = textio.parse_kgraph_text(textio.FIXTURE_TEXTS[name]).graph  # fresh memo
    calls = _counting(monkeypatch, align.VertexUniverse, ("mask_of", "set_of", "classify"))
    _lattice_and_families(g, cap)
    assert calls["mask_of"] == 0
    assert calls["classify"] <= subsets
    assert calls["set_of"] == 0


def _recording_families(monkeypatch):
    """The H of every stripped family built from now on, in build order."""
    built = []
    stripped = ideals._stripped_family

    def recorded(g, H, cap):
        built.append(tuple(sorted(H)))
        return stripped(g, H, cap)

    monkeypatch.setattr(ideals, "_stripped_family", recorded)
    return built


@pytest.mark.parametrize("source, cap, built, fe_calls", [
    ("FX6", (2,), [], 0),
    ("FX2", (2, 2), [], 0),
    ("FX4", (2,), [], 0),
    (41, (1, 1), [], 0),
])
def test_lattice_builds_no_family_for_empty_H(monkeypatch, source, cap, built, fe_calls):
    """The lattice and the structure report build no stripped family and
    enumerate no candidate, for H = {} or any other H: the pairs are
    indexed by H alone on every graph, the locally convex FX6, FX2 and FX4
    and random_2graph(41), which is not.  restricted_fe_family builds
    each pair's family on demand."""
    if isinstance(source, int):
        g = random_2graph(source)
    else:
        g = textio.parse_kgraph_text(textio.FIXTURE_TEXTS[source]).graph  # fresh memo
    calls = _counting(monkeypatch, ideals, ("fe_sets",))
    families = _recording_families(monkeypatch)
    lat = ideals.ideal_lattice(g, cap)
    structure.structure_report(g, cap, False)
    assert families == built
    assert calls["fe_sets"] == fe_calls
    for p in lat.pairs:
        ideals.restricted_fe_family(g, p.H, cap)
    assert families == built + [p.H for p in lat.pairs if p.H not in built]


def test_lattice_and_report_check_heredity_once_per_family(monkeypatch):
    """The sets a pair strips come from enumerate_sat_hered, which proved
    them hereditary.  The lattice and the structure report build no
    family, so they check nothing.  restricted_fe_family checks a set
    only when its memo has no family for it, and it takes quotients
    without quotient_graph's check, so reading each pair's stripped family
    checks heredity once per family, and reading it again checks nothing."""
    calls = _counting(monkeypatch, ideals, ("is_hereditary",))
    built = _recording_families(monkeypatch)
    for seed in range(30):
        for g, cap in ((random_1graph(seed), (1,)), (random_2graph(seed), (1, 1))):
            before = len(built)
            lat = ideals.ideal_lattice(g, cap)
            structure.structure_report(g, cap, False)
            assert calls["is_hereditary"] == len(built) == before
            for p in lat.pairs:
                ideals.restricted_fe_family(g, p.H, cap)
            assert len(built) == before + len(lat.pairs)
            assert calls["is_hereditary"] == len(built)
    checked = calls["is_hereditary"]
    for p in lat.pairs:  # memo hits
        ideals.restricted_fe_family(g, p.H, cap)
    assert calls["is_hereditary"] == checked
    ideals.quotient_graph(g, lat.pairs[-1].H)
    assert calls["is_hereditary"] == checked + 1


@pytest.mark.parametrize("source, cap, compose_max", [("FX4", (2,), 7), (41, (1, 1), 9), (72, (1, 1), 9)])
def test_lattice_and_report_run_no_verdict_scan(monkeypatch, source, cap, compose_max):
    """The lattice and the structure report build no family, so they run
    no closure scan and no compose.  A stripped family's rounds walk rule
    (S2) alone, so building the families of the nonempty H runs no
    closure scan either, and at most compose_max composes.  Reading a
    family's verdict twice runs exactly one closure scan, of that family.
    On FX4 and random_2graph seeds 41 and 72, scanning every round of
    every family ran 3 / 6 / 6 check scans, and 13 / 37 / 51 composes for
    their (S4) rows."""
    if isinstance(source, int):
        g = random_2graph(source)
    else:
        g = textio.parse_kgraph_text(textio.FIXTURE_TEXTS[source]).graph  # fresh memo
    calls = _counting(monkeypatch, KGraph, ("compose",))
    checked = []
    scan = ideals._scan_satiation

    def recorded(gq, family, cap, known_bad=()):
        checked.append(family)
        return scan(gq, family, cap, known_bad)

    monkeypatch.setattr(ideals, "_scan_satiation", recorded)
    lat = ideals.ideal_lattice(g, cap)
    structure.structure_report(g, cap, False)
    assert checked == [] and calls["compose"] == 0
    for p in lat.pairs:
        if p.H:
            ideals.restricted_fe_family(g, p.H, cap)
    assert checked == []
    assert calls["compose"] <= compose_max
    families = []
    for p in lat.pairs:
        sf = ideals.restricted_fe_family(g, p.H, cap)
        if all(fam is not sf for fam in families):
            families.append(sf)
        for _ in range(2):
            assert not sf.satiated.is_false
    assert [id(fam) for fam in checked] == [id(sf.base.by_vertex) for sf in families]
