"""The bitmask kernel of align.VertexUniverse against the path arithmetic
it stands in for, the universes of quotient graphs against fresh builds,
and call-count gates that keep that arithmetic, and the conversions
between path sets and masks, out of the inner loops of the lattice
computation.  The lattice builds no stripped family for H = {}, nor for
any H of a locally convex graph, so the gates on the closure loops also
read every pair's stripped family."""

import itertools
import random
from collections import Counter

import pytest

from kgraphlat import align, degrees, ideals, structure, textio
from kgraphlat.kgraph import KGraph, is_locally_convex
from kgraphlat.randomgraphs import random_1graph, random_2graph

from test_ideals import _pair_inputs
from test_kgraph import _product3


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
        there = align.universe(g, lam.s, cap)
        row = uni.continuations(i)
        for j, mu in enumerate(uni.members):
            assert _paths_of(there, row[j]) == set(align.ext(g, lam, (mu,))), (lam, mu)
        for _ in range(3):
            emask = rng.getrandbits(len(uni.members))
            want = set(align.ext(g, lam, uni.set_of(emask)))
            assert _paths_of(there, uni.ext_mask(i, emask)) == want
        bits, beyond = uni.compositions(i)
        for j, q in enumerate(there.members):
            prod = g.compose(lam, q)
            if degrees.leq(prod.d, cap):
                assert bits[j] == 1 << uni.member_index[prod] and j not in beyond, (lam, q)
            else:
                assert bits[j] == 0 and beyond[j] == prod, (lam, q)


def test_kernel_tables_match_path_arithmetic():
    """Capture bits, prefix table, continuation masks and composition table
    agree with extends, prefix/split, ext and compose on every capped path
    and member, for every fixture and random 2-graph seeds 0-49."""
    seen = 0
    for label, g, cap in _graphs():
        rng = random.Random(label)
        for v in g.vertices:
            _check_universe(g, v, cap, rng)
        seen += 1
    assert seen > 50


def _hereditary_sets(g):
    """Every nonempty hereditary vertex set, saturated or not."""
    for n in range(1, len(g.vertices) + 1):
        for H in itertools.combinations(g.vertices, n):
            if ideals.is_hereditary(g, H):
                yield frozenset(H)


def _assert_restriction_matches(gq, cap, seen):
    """Every universe of the quotient gq equals the one align._build_universe
    makes on an unlinked copy of gq: the same skeleton and squares, no
    parent.  seen counts the members and beyond entries the restrictions
    dropped."""
    fresh_graph = KGraph(gq.skeleton, gq.squares)
    for v in gq.vertices:
        uq = align.universe(gq, v, cap)
        fresh = align._build_universe(fresh_graph, v, cap)
        assert uq.graph is gq and uq.parent.graph is not gq
        for name in ("paths", "members", "index", "member_index", "captured", "compat", "prefix", "suffix"):
            assert getattr(uq, name) == getattr(fresh, name), (v, name)
        for i in range(len(uq.paths)):
            assert sorted(zip(uq.beyond[i], uq.beyond_src[i])) == sorted(zip(fresh.beyond[i], fresh.beyond_src[i]))
            assert uq.continuations(i) == fresh.continuations(i), (v, i)
            assert uq.compositions(i) == fresh.compositions(i), (v, i)
        if len(uq.members) <= 10:
            for emask in range(1 << len(uq.members)):
                assert uq.classify(emask) == fresh.classify(emask), (v, emask)
        up = uq.parent
        for j, p in enumerate(up.members):
            want = 1 << uq.member_index[p] if p in uq.member_index else 0
            assert uq.strip_mask(1 << j) == want, (v, p)
        seen["members"] += len(up.members) - len(uq.members)
        seen["beyond"] += sum(len(up.beyond[up.index[p]]) - len(uq.beyond[i]) for i, p in enumerate(uq.paths))


def test_restricted_universe_matches_fresh_build():
    """A quotient's universe restricts its parent's, for every hereditary
    H (saturated or not) and every vertex outside it: fixtures at caps 1-3,
    random 1-graphs (seeds 0-149) at (1,), (2,) and random 2-graphs at
    (1,1), (2,1), (1,2), plus a quotient of a quotient."""
    seen = Counter()
    for _, g, cap in _pair_inputs():
        assert ideals.quotient_graph(g, ()) is g
        for H in _hereditary_sets(g):
            _assert_restriction_matches(ideals.quotient_graph(g, H), cap, seen)
    g = random_2graph(75)  # members at v2: 5 in g, 3 in gq, 1 in gqq at (1,1)
    gqq = ideals.quotient_graph(ideals.quotient_graph(g, {"v0"}), {"v1"})
    for cap in ((1, 1), (2, 1)):
        _assert_restriction_matches(gqq, cap, seen)
        assert align.universe(gqq, "v2", cap).parent.parent.graph is g
    # restrictions that drop nothing would pass vacuously
    assert seen["members"] and seen["beyond"], seen


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
        p.stripped
    return lat


# Exact counts at the time of writing, pinned as upper bounds; they do not
# depend on string hashing, so machine noise cannot trip this gate.
@pytest.mark.parametrize("name, cap, split_max, compose_max", [
    ("FX6", (2,), 33, 34),
    ("FX2", (2, 2), 66, 24),
])
def test_lattice_path_arithmetic_calls_pinned(monkeypatch, name, cap, split_max, compose_max):
    g = textio.parse_kgraph_text(textio.FIXTURE_TEXTS[name]).graph  # fresh memo
    calls = _counting(monkeypatch, KGraph, ("extends", "split", "compose"))
    _lattice_and_families(g, cap)
    assert calls["extends"] == 0
    assert calls["split"] <= split_max
    assert calls["compose"] <= compose_max


def _window(name, radius):
    base = _product3([textio.fixture("FX6")] * 3) if name == "FX6^3" else textio.fixture(name)
    return structure.skew_product_window(base, (-radius,) * base.k, (radius,) * base.k).graph


@pytest.mark.parametrize("name, radius, cap, split_max, compose_max", [
    ("FX2", 2, (2, 2), 584, 584),
    ("FX6^3", 1, (1, 1, 1), 4321, 4321),
])
def test_common_extension_calls_pinned(monkeypatch, name, radius, cap, split_max, compose_max):
    """mce and ext read one table of minimal common extensions per pair,
    built from the continuations of one side: a compose and a split per
    continuation walked.  The session is paths_up_to plus mce and ext over
    every ordered pair of capped paths at every vertex of a skew-product
    window.  Filtering every path of the joined degree by its two
    prefixes, and splitting each extension again, made 2,192 / 32,035
    splits and no compose; walking the first argument's side always makes
    6,557 of each on the FX6^3 window, where the sides differ in size."""
    g = _window(name, radius)
    calls = _counting(monkeypatch, KGraph, ("split", "compose"))
    for v in g.vertices:
        paths = g.paths_up_to(v, cap)
        for mu, nu in itertools.product(paths, paths):
            align.mce(g, mu, nu)
            align.ext(g, mu, (nu,))
    assert calls["split"] <= split_max
    assert calls["compose"] <= compose_max


def test_quotient_replays_run_no_path_arithmetic(monkeypatch):
    """random_2graph(41) is not locally convex, so its lattice and report
    build the stripped family of each proper H and replay refutations on
    the quotients.  A replay on a quotient by H reads ext on the root
    graph and keeps the continuations with source outside H, so no split,
    compose or path enumeration runs on a quotient graph; replaying with
    ext on the quotient made 32 splits and 5 enumerations there."""
    g = random_2graph(41)
    names = ("split", "compose", "_enumerate_degree")
    calls = _counting_by_graph(monkeypatch, g, names)
    replays = Counter()
    verify = ideals._verify_refutation

    def recorded(gx, E, tau):
        replays["quotient" if gx is not g else "g"] += 1
        return verify(gx, E, tau)

    monkeypatch.setattr(ideals, "_verify_refutation", recorded)
    ideals.ideal_lattice(g, (1, 1))
    structure.structure_report(g, (1, 1), False)
    assert replays["quotient"]
    assert all(calls[name, "other"] == 0 for name in names), calls


@pytest.mark.parametrize("cap, builds, split_max, compose_max", [
    ((2,), 3, 19, 19),
    ((3,), 3, 29, 33),
])
def test_quotients_run_no_path_arithmetic(monkeypatch, cap, builds, split_max, compose_max):
    """FX4's lattice reads the quotients by {u} and {w}, and by {u,v,w},
    which has no vertex.  Their universes restrict g's, so universes are built on g alone, one per
    vertex, and split and compose never run on a quotient graph: building
    each quotient's universes afresh made 7 builds and 39 / 59 splits and
    26 / 42 composes, 20 / 30 and 13 / 21 of them on quotients."""
    g = textio.parse_kgraph_text(textio.FIXTURE_TEXTS["FX4"]).graph  # fresh memo
    built = []
    build = align._build_universe

    def recorded(gx, v, cap):
        built.append(gx)
        return build(gx, v, cap)

    monkeypatch.setattr(align, "_build_universe", recorded)
    calls = _counting_by_graph(monkeypatch, g, ("split", "compose"))
    lat = _lattice_and_families(g, cap)
    quotients = {ideals.quotient_graph(g, p.H) for p in lat.pairs if p.H} - {g}
    assert sorted(gq.vertices for gq in quotients) == [(), ("u", "v"), ("v", "w")]
    assert built == [g] * builds
    assert calls["split", "other"] == calls["compose", "other"] == 0
    assert calls["split", "g"] <= split_max
    assert calls["compose", "g"] <= compose_max


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
    """The stripped family reads its strips from the quotient's universe,
    which restricts g's, and looks up no universe of g beside it: the
    lattice plus every pair's stripped family make 3 universe lookups on
    FX6 (2,) and FX2 (2,2), where looking up both universes per vertex
    made 4."""
    g = textio.parse_kgraph_text(textio.FIXTURE_TEXTS[name]).graph  # fresh memo
    calls = _counting(monkeypatch, ideals, ("universe",))
    _lattice_and_families(g, cap)
    assert calls["universe"] <= 3


@pytest.mark.parametrize("name, cap, subsets", [("FX6", (2,), 63), ("FX2", (2, 2), 255)])
def test_lattice_family_mask_calls_pinned(monkeypatch, name, cap, subsets):
    """Families stay member masks from fe_sets to the lattice: no set is
    turned back into a mask, each subset is classified once, and no path
    set is built; a pair builds its eh_sets only when they are read."""
    g = textio.parse_kgraph_text(textio.FIXTURE_TEXTS[name]).graph  # fresh memo
    calls = _counting(monkeypatch, align.VertexUniverse, ("mask_of", "set_of", "classify"))
    lat = _lattice_and_families(g, cap)
    assert calls["mask_of"] == 0
    assert calls["classify"] <= subsets
    assert calls["set_of"] == 0
    for p in lat.pairs:
        assert p.eh_sets == ideals.restricted_fe_family(g, p.H, cap).sets()


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
    (41, (1, 1), [("v1",), ("v2",), ("v0", "v2"), ("v1", "v2"), ("v0", "v1", "v2")], 9),
])
def test_lattice_builds_no_family_for_empty_H(monkeypatch, source, cap, built, fe_calls):
    """The lattice and the structure report of a locally convex graph
    build no stripped family and enumerate no candidate: its pairs are
    indexed by H alone.  random_2graph(41) is not locally convex, so it
    builds the family of each proper H, and none for H = {}.  Reading
    eh_sets builds every other family on demand."""
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
        p.eh_sets
    assert families == built + [p.H for p in lat.pairs if p.H not in built]


def test_lattice_and_report_check_heredity_once_per_family(monkeypatch):
    """The sets the lattice strips come from enumerate_sat_hered, which
    proved them hereditary.  restricted_fe_family checks a set only when
    its memo has no family for it, and the lattice takes quotients without
    quotient_graph's check, so the lattice and the structure report check
    heredity once per family they build; graphs that build none check
    nothing."""
    calls = _counting(monkeypatch, ideals, ("is_hereditary",))
    built = _recording_families(monkeypatch)
    for seed in range(30):
        for g, cap in ((random_1graph(seed), (1,)), (random_2graph(seed), (1, 1))):
            before = len(built)
            lat = ideals.ideal_lattice(g, cap)
            structure.structure_report(g, cap, False)
            assert calls["is_hereditary"] == len(built)
            assert (len(built) == before) == is_locally_convex(g)
            for p in lat.pairs:
                p.eh_sets
            assert calls["is_hereditary"] == len(built)
    checked = calls["is_hereditary"]
    for p in lat.pairs:  # memo hits
        ideals.restricted_fe_family(g, p.H, cap)
    assert calls["is_hereditary"] == checked
    ideals.quotient_graph(g, lat.pairs[-1].H)
    assert calls["is_hereditary"] == checked + 1


@pytest.mark.parametrize("source, cap, compose_max", [("FX4", (2,), 7), (41, (1, 1), 9), (72, (1, 1), 9)])
def test_lattice_and_report_run_no_verdict_scan(monkeypatch, source, cap, compose_max):
    """The lattice and the structure report read the stripped families'
    members and refutations, not their (S1)-(S4) verdict, so they run no
    check scan; the rounds of a stripped family walk rule (S2) alone.
    Reading a family's verdict twice runs exactly one check scan, of that
    family.  On FX4 and random_2graph seeds 41 and 72, scanning every
    round of every family ran 3 / 6 / 6 check scans, and 13 / 37 / 51
    composes for their (S4) rows."""
    if isinstance(source, int):
        g = random_2graph(source)
    else:
        g = textio.parse_kgraph_text(textio.FIXTURE_TEXTS[source]).graph  # fresh memo
    calls = _counting(monkeypatch, KGraph, ("compose",))
    checked = []
    scan = ideals._scan_satiation

    def recorded(gq, family, cap, extend, known_bad=()):
        if not extend:
            checked.append(family)
        return scan(gq, family, cap, extend, known_bad)

    monkeypatch.setattr(ideals, "_scan_satiation", recorded)
    lat = ideals.ideal_lattice(g, cap)
    structure.structure_report(g, cap, False)
    assert checked == []
    assert calls["compose"] <= compose_max
    families = []
    for p in lat.pairs:
        if all(sf is not p.stripped for sf in families):
            families.append(p.stripped)
        for _ in range(2):
            assert not p.stripped.satiated.is_false
    assert [id(fam) for fam in checked] == [id(sf.base.by_vertex) for sf in families]
