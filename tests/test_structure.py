import itertools

import pytest

from kgraphlat import align, degrees, ideals, structure, textio
from kgraphlat.align import fe_sets
from kgraphlat.kgraph import KGraph, KGraphError, Skeleton, validate_kgraph
from kgraphlat.randomgraphs import random_1graph, random_2graph
from kgraphlat.structure import (
    Grading,
    _loop_vertices,
    boundary_prefixes,
    cofinality_check,
    find_loop_with_entrance,
    grading_check,
    grading_exists,
    lift_path,
    m_closure,
    m_closure_iterated,
    skew_fe_lift,
    skew_product_window,
    structure_report,
)

import oracles
from test_kgraph import _product


# -- gradings -----------------------------------------------------------------


def test_grading_examples(fx):
    gr = grading_exists(fx["FX5"])
    assert gr is not None and gr.as_dict() == {"u": (0,), "v": (1,)}
    assert grading_exists(fx["FX1"]) is None
    assert grading_exists(fx["FX2"]) is None
    assert grading_exists(fx["FX4"]) is None  # loop g obstructs


@pytest.mark.parametrize("edge", [("e", 1, "v", "nowhere"), ("e", 2, "v", "v")])
def test_grading_of_a_dangling_edge(edge):
    """An edge whose source is no vertex, or whose colour is out of range:
    grading_exists names it in a KGraphError and grading_check answers
    False."""
    g = KGraph(Skeleton.build(1, ["v"], [edge]), [])
    with pytest.raises(KGraphError, match="'e'"):
        grading_exists(g)
    assert grading_check(g, Grading((("v", (0,)),))) is False


def test_skew_window_of_an_edge_with_a_colour_out_of_range():
    """skew_product_window names an edge whose colour is out of range in a
    KGraphError, as grading_exists does."""
    g = KGraph(Skeleton.build(1, ["v"], [("e", 2, "v", "v")]), [])
    with pytest.raises(KGraphError, match=r"^edge 'e' has colour 2, out of range 1\.\.1$"):
        skew_product_window(g, (0,), (1,))


def test_grading_satisfies_edge_identity(fx):
    # FX3 is not gradable: its two colors force conflicting potentials on w
    assert grading_exists(fx["FX3"]) is None
    sw = skew_product_window(fx["FX2"], (-1, -1), (1, 1))
    gr = grading_exists(sw.graph)
    assert gr is not None and grading_check(sw.graph, gr)


def test_skew_window_grading_is_level_up_to_shift(fx):
    for name in ("FX1", "FX5"):
        g = fx[name]
        sw = skew_product_window(g, (-2,), (2,))
        derived = grading_exists(sw.graph)
        assert derived is not None
        shifts = {}
        for v, n in derived.b:
            canon = sw.grading.value(v)
            comp = v.split("@")[0]
            shifts.setdefault(comp, set())
        # per undirected component the difference to the canonical grading is constant
        comps = {}
        for v, n in derived.b:
            diff = tuple(a - b for a, b in zip(n, sw.grading.value(v)))
            comps.setdefault(_component_of(sw.graph, v), set()).add(diff)
        assert all(len(diffs) == 1 for diffs in comps.values())


def _component_of(g, v):
    seen = {v}
    frontier = [v]
    nbrs = {}
    for e in g.edges:
        nbrs.setdefault(e.r, set()).add(e.s)
        nbrs.setdefault(e.s, set()).add(e.r)
    while frontier:
        u = frontier.pop()
        for w in nbrs.get(u, ()):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return frozenset(seen)


# -- skew products -----------------------------------------------------------------


def test_skew_window_examples(fx):
    g5 = fx["FX5"]
    sw = skew_product_window(g5, (0,), (1,))
    assert [(e.eid, e.r, e.s) for e in sw.graph.edges] == [("e@1", "u@0", "v@1")]
    g1 = fx["FX1"]
    sw1 = skew_product_window(g1, (0,), (3,))
    assert validate_kgraph(sw1.graph).ok
    loops = [e for e in sw1.graph.edges if e.r == e.s]
    assert not loops  # the loop unrolls into level steps
    for e in sw1.graph.edges:
        base = e.eid.split("@")[0]
        assert e.color == g1.edge(base).color  # degrees preserved
    with pytest.raises(KGraphError, match=r"^bad window bounds lo=\(1,\) hi=\(0,\)$"):
        skew_product_window(g1, (1,), (0,))


def test_skew_windows_validate_up_to_radius_3(fx):
    for name in ("FX1", "FX2", "FX3", "FX5"):
        g = fx[name]
        for r in (1, 2, 3):
            sw = skew_product_window(g, (-r,) * g.k, (r,) * g.k)
            assert validate_kgraph(sw.graph).ok
            assert grading_check(sw.graph, sw.grading)
            assert not grading_check(sw.graph, Grading(sw.grading.b[1:]))  # a vertex missing


def test_lift_path_window_overflow(fx):
    g5 = fx["FX5"]
    sw = skew_product_window(g5, (0,), (1,))
    e = g5.path(["e"])
    lifted = lift_path(sw, e, (1,))
    assert lifted.r == "u@0" and lifted.s == "v@1"
    with pytest.raises(KGraphError, match=r"^source level \(2,\) outside window$"):
        lift_path(sw, e, (2,))
    # a lift that starts in the window but walks out of it is refused inside
    # the walk when an edge is left to lift, and after it otherwise
    g1 = fx["FX1"]
    sw1 = skew_product_window(g1, (0,), (1,))
    with pytest.raises(KGraphError, match=r"^lift of e\.f leaves the window at \(-1,\)$"):
        lift_path(sw1, g1.path(["e", "f"]), (0,))
    with pytest.raises(KGraphError, match=r"^lift of e leaves the window at \(-1,\)$"):
        lift_path(sw1, g1.path(["e"]), (0,))
    assert lift_path(sw1, g1.identity("u"), (1,)) == sw1.graph.identity(sw1.vertex("u", (1,)))


def test_skew_fe_lift_examples(fx):
    g3 = fx["FX3"]
    sw = skew_product_window(g3, (-1, -1), (1, 1))
    E = [g3.path(["b"]), g3.path(["c"])]
    lifted = skew_fe_lift(sw, E, (0, 0), (1, 1))
    assert {p.literal() for p in lifted.paths} == {"b@1,0", "c@0,1"}
    assert lifted.range_vertex == "v@0,0"
    assert lifted.exhaustive.is_true
    with pytest.raises(KGraphError, match=r"^cannot lift an empty set$"):
        skew_fe_lift(sw, [], (0, 0), (1, 1))


def test_skew_fe_lift_never_refuted(fx):
    for name in ("FX1", "FX5"):
        g = fx[name]
        cap = (2,)
        for r in (1, 2, 3):
            sw = skew_product_window(g, (-r,), (r,))
            for v in g.vertices:
                for S, cert in fe_sets(g, v, cap).sets_at(v).items():
                    for n in ((0,), (-r,)):
                        try:
                            lifted = skew_fe_lift(sw, S, n, cap)
                        except KGraphError:
                            continue  # lift does not fit this window
                        assert not lifted.exhaustive.is_false


# -- suffix-product closure ------------------------------------------------------


def test_m_closure_examples(fx):
    g5 = fx["FX5"]
    gr5 = grading_exists(g5)
    e = g5.path(["e"])
    assert m_closure(g5, gr5, [e]) == (e,)
    assert m_closure(g5, gr5, []) == ()
    g1 = fx["FX1"]
    sw = skew_product_window(g1, (0,), (3,))
    e1 = sw.graph.path([sw.edge("e", (1,))])
    closed = m_closure(sw.graph, sw.grading, [e1])
    assert e1 in closed


def test_m_closure_chain_and_join_invariance(fx):
    g1 = fx["FX1"]
    sw = skew_product_window(g1, (0,), (3,))
    gsw, grading = sw.graph, sw.grading
    b = grading.as_dict()
    universe = [p for v in gsw.vertices for p in gsw.paths_up_to(v, (2,))]
    pool = [p for p in universe if not p.is_vertex][:8]
    for r in (1, 2):
        for E in itertools.combinations(pool, r):
            vee = align.vee_closure(gsw, E)
            closed = m_closure(gsw, grading, E)
            fixed = m_closure_iterated(gsw, grading, E)
            assert set(E) <= set(vee) <= set(closed) <= set(fixed)
            want = tuple(
                max(b[p.s][i] for p in E) for i in range(gsw.k)
            )
            for stage in (closed, fixed):
                got = tuple(max(b[p.s][i] for p in stage) for i in range(gsw.k))
                assert got == want


def test_m_closure_requires_grading(fx):
    g1 = fx["FX1"]
    fake = Grading((("u", (0,)), ("v", (0,))))
    with pytest.raises(KGraphError, match=r"^grading does not match the graph$"):
        m_closure(g1, fake, [g1.path(["e"])])
    with pytest.raises(KGraphError, match=r"^no grading supplied; the closure may be infinite$"):
        m_closure(g1, None, [g1.path(["e"])])


# -- boundary prefixes ---------------------------------------------------------------


def test_boundary_prefix_examples(fx):
    g4 = fx["FX4"]
    out = {b.path.literal(): b.status for b in boundary_prefixes(g4, "v", (2,))}
    assert out["f"] == "terminal"
    assert out["v"] == "extensible"
    g2 = fx["FX2"]
    got = boundary_prefixes(g2, "v", (1, 1))
    assert len(got) == len(g2.paths_up_to("v", (1, 1)))  # nothing refuted
    depth0 = boundary_prefixes(g4, "v", (0,))
    assert [(b.path.literal(), b.status) for b in depth0] == [("v", "extensible")]
    depth0u = boundary_prefixes(g4, "u", (0,))
    assert [(b.path.literal(), b.status) for b in depth0u] == [("u", "terminal")]


def test_every_capped_path_is_a_boundary_prefix(fx):
    # A path with room for every member of a certified exhaustive set
    # extends one of them, or it refutes the set, so certified sets never
    # refute a finite prefix and boundary_prefixes consults none.
    for name, g in sorted(fx.items()):
        cap = (2,) * g.k
        for v in g.vertices:
            got = {b.path for b in boundary_prefixes(g, v, cap)}
            assert got == set(g.paths_up_to(v, cap)), (name, v)


def _filter_inputs():
    """Inputs inside the fe limit at every vertex: the fixtures at caps 1
    and 2, and random 1- and 2-graphs at cap 1."""
    for name in sorted(textio.FIXTURE_TEXTS):
        g = textio.fixture(name)
        for c in (1, 2):
            yield name, g, (c,) * g.k
    for seed in range(150):
        yield f"random_1graph({seed})", random_1graph(seed), (1,)
        yield f"random_2graph({seed})", random_2graph(seed), (1, 1)


def test_certified_set_filter_stays_silent():
    """The filter boundary_prefixes once applied, which dropped a prefix
    that some certified set at one of its points could never meet, keeps
    every prefix with its status."""
    cases = certified = 0
    for label, g, cap in _filter_inputs():
        for v in g.vertices:
            assert boundary_prefixes(g, v, cap) == oracles.filtered_boundary_prefixes(g, v, cap), (label, v)
            cases += 1
        certified += any(c.is_true for w in g.vertices for c in fe_sets(g, w, cap).by_vertex.get(w, {}).values())
    assert cases > 700 and certified > 250, (cases, certified)


def test_boundary_prefixes_consult_no_exhaustive_set(monkeypatch, fx):
    """boundary_prefixes runs neither fe_sets nor classify, so FX6 at (4,)
    and FX2 at (4,4), whose candidate tables are over the fe limit, answer."""
    calls = []
    for mod in (align, ideals):
        monkeypatch.setattr(mod, "fe_sets", lambda *args: calls.append("fe_sets"))
    monkeypatch.setattr(align.VertexUniverse, "classify", lambda *args: calls.append("classify"))
    for name, g in sorted(fx.items()):
        for v in g.vertices:
            boundary_prefixes(g, v, (2,) * g.k)
    assert len(boundary_prefixes(fx["FX6"], "v", (4,))) == 31
    assert len(boundary_prefixes(fx["FX2"], "v", (4, 4))) == 25
    assert calls == []


# -- cofinality -----------------------------------------------------------------------


def test_cofinality_examples(fx):
    res = cofinality_check(fx["FX4"], (2,))
    assert res.is_false
    x, w = res.witness
    assert w == "w"
    assert cofinality_check(fx["FX2"], (2, 2)).is_true
    assert cofinality_check(fx["FX6"], (2,)).is_true
    assert cofinality_check(fx["FX1"], (2,)).is_true
    assert cofinality_check(fx["FX5"], (2,)).is_true


def test_cofinality_witness_replays(fx):
    g = fx["FX4"]
    res = cofinality_check(g, (2,))
    x, w = res.witness
    for m in degrees.below(x.d):
        point = g.split(x, m)[0].s
        assert not g.reaches(w, point)


# -- loops with an entrance --------------------------------------------------------


def test_loop_examples(fx):
    g6 = fx["FX6"]
    res = find_loop_with_entrance(g6, (2,))["v"]
    assert res.is_true
    mu, alpha = res.witness
    assert (mu.literal(), alpha.literal()) == ("a1", "a2")
    g4 = fx["FX4"]
    out4 = find_loop_with_entrance(g4, (2,))
    assert all(c.is_false for c in out4.values())
    g2 = fx["FX2"]
    out2 = find_loop_with_entrance(g2, (2, 2))
    assert out2["v"].is_false and out2["v"].witness == ("degree-deterministic",)


def test_loop_witness_replays(fx):
    g = fx["FX6"]
    res = find_loop_with_entrance(g, (2,))["v"]
    mu, alpha = res.witness
    assert mu.s == mu.r
    assert degrees.leq(alpha.d, mu.d)
    assert g.prefix(mu, alpha.d) != alpha
    assert g.reaches("v", mu.r)


def test_loop_acyclic_negative(fx):
    out = find_loop_with_entrance(fx["FX5"], (2,))
    assert all(c.is_false and c.witness == ("acyclic-skeleton",) for c in out.values())


def _reach_inputs():
    for seed in range(150):
        for c in (1, 2):
            yield random_1graph(seed), (c,)
            yield random_2graph(seed), (c, c)
    for name in ("FX1", "FX5"):
        for r in (1, 2, 3):
            sw = skew_product_window(textio.fixture(name), (-r,), (r,))
            for c in (1, 2):
                yield sw.graph, (c,)
    yield skew_product_window(textio.fixture("FX2"), (-2, -2), (2, 2)).graph, (2, 2)
    yield skew_product_window(_product([textio.fixture("FX6")] * 3), (-1,) * 3, (1,) * 3).graph, (1, 1, 1)


def test_reachability_matches_vertex_set_oracles(monkeypatch):
    """reaches, _loop_vertices, cofinality_check and find_loop_with_entrance
    against fixpoint reachability on vertex sets; cofinality witnesses of
    both kinds occur at both ranks.  Of the checks that reach the cone
    step, some skip the pairwise cone scan, as every cone meets, and some
    run it; the skew-product windows always skip it."""
    scans = []
    real = structure._disjoint_cones

    def recorded(g, reach):
        scans.append(g)
        return real(g, reach)

    monkeypatch.setattr(structure, "_disjoint_cones", recorded)
    branches = set()
    cone_steps = set()
    for g, cap in _reach_inputs():
        scans.clear()
        reach = oracles.oracle_reach(g)
        for v in g.vertices:
            assert {w for w in g.vertices if g.reaches(v, w)} == reach[v]
        loops = _loop_vertices(g)
        assert {v for v in g.vertices if loops & g.vertex_bits()[v]} == oracles.oracle_loop_vertices(g)
        got = cofinality_check(g, cap)
        assert got == oracles.oracle_cofinality(g, cap)
        kind = None
        if got.is_false:
            x, _ = got.witness
            kind = "cone" if g.edges_at(x.s) else "terminal"
            branches.add((g.k, kind))
        if kind != "terminal":
            cone_steps.add((len(scans), "@" in g.vertices[0]))  # window ids read v@level
        assert find_loop_with_entrance(g, cap) == oracles.oracle_loops(g, cap)
    assert branches == {(k, kind) for k in (1, 2) for kind in ("cone", "terminal")}
    assert cone_steps == {(0, False), (1, False), (0, True)}


# -- assembled report ---------------------------------------------------------------


def test_structure_report_examples(fx):
    r6 = structure_report(fx["FX6"], (2,), assumed_condition_C=True)
    assert r6.verdicts["simple"] == "yes_conditional_on_C"
    assert r6.verdicts["purely_infinite"] == "yes_conditional_on_C"
    assert r6.verdicts["kp_candidate"] == "yes_conditional_on_C"
    for flag in (True, False):
        r4 = structure_report(fx["FX4"], (2,), assumed_condition_C=flag)
        assert r4.verdicts["simple"] == "no"
        assert r4.verdicts["kp_candidate"] == "no"
    r2 = structure_report(fx["FX2"], (2, 2), assumed_condition_C=False)
    assert set(r2.verdicts.values()) == {"not_evaluated"}


def test_structure_report_lattice_size(fx):
    rep = structure_report(fx["FX4"], (2,), assumed_condition_C=False)
    assert rep.lattice_size == 4
