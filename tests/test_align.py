import itertools
from collections import Counter

import pytest

from kgraphlat import align, degrees, structure, textio
from kgraphlat.align import ext, fe_sets, is_exhaustive, lambda_min, mce, pi_closure, vee_closure
from kgraphlat.kgraph import KGraph, KGraphError, MissingSquareError, sorted_paths, validate_kgraph
from kgraphlat.randomgraphs import random_1graph, random_2graph

import oracles
from test_kgraph import _product3


# -- mce / lambda_min / ext examples ---------------------------------------------


def test_mce_examples(fx):
    g2, g3 = fx["FX2"], fx["FX3"]
    b, r = g2.path(["b"]), g2.path(["r"])
    assert [p.literal() for p in mce(g2, b, r)] == ["b.r"]
    assert mce(g3, g3.path(["b"]), g3.path(["c"])) == ()
    lam = g2.compose(b, r)
    assert mce(g2, lam, lam) == (lam,)
    assert mce(g2, g2.identity("v"), b) == (b,)


def test_mce_symmetric_and_prefix_equations(fx):
    for name in ("FX2", "FX3"):
        g = fx[name]
        for v in g.vertices:
            paths = g.paths_up_to(v, (1, 1))
            for mu, nu in itertools.product(paths, paths):
                got = mce(g, mu, nu)
                assert got == mce(g, nu, mu)
                for tau in got:
                    assert tau.d == degrees.join(mu.d, nu.d)
                    assert g.segment(tau, degrees.zero(g.k), mu.d) == mu
                    assert g.segment(tau, degrees.zero(g.k), nu.d) == nu


def test_mce_requires_common_range(fx):
    g = fx["FX4"]
    with pytest.raises(KGraphError):
        mce(g, g.identity("u"), g.identity("v"))


def test_lambda_min_examples(fx):
    g2, g3 = fx["FX2"], fx["FX3"]
    b, r = g2.path(["b"]), g2.path(["r"])
    assert [(a.literal(), c.literal()) for a, c in lambda_min(g2, b, r)] == [("r", "b")]
    assert lambda_min(g3, g3.path(["b"]), g3.path(["c"])) == ()
    pairs = lambda_min(g2, b, b)
    assert len(pairs) == 1 and pairs[0].alpha.is_vertex and pairs[0].beta.is_vertex


def test_lambda_min_bijective_with_mce(fx):
    g = fx["FX2"]
    paths = g.paths_up_to("v", (1, 1))
    for mu, nu in itertools.product(paths, paths):
        taus = mce(g, mu, nu)
        pairs = lambda_min(g, mu, nu)
        assert len(taus) == len(pairs)
        assert {g.compose(mu, a) for a, _ in pairs} == set(taus)
        assert {g.compose(nu, b) for _, b in pairs} == set(taus)


def test_ext_examples(fx):
    g2, g3 = fx["FX2"], fx["FX3"]
    b, r = g2.path(["b"]), g2.path(["r"])
    assert [p.literal() for p in ext(g2, r, [b])] == ["b"]
    assert ext(g3, g3.path(["c"]), [g3.path(["b"])]) == ()
    assert [p.literal() for p in ext(g2, g2.identity("v"), [b])] == ["b"]


def test_ext_matches_definitional_oracle(fx):
    cap = (2, 2)
    for name in ("FX2", "FX3"):
        g = fx[name]
        for v in g.vertices:
            paths = g.paths_up_to(v, (1, 1))
            for mu in paths:
                for E in (set(c) for r in (1, 2) for c in itertools.combinations(paths[1:], r)):
                    got = frozenset(ext(g, mu, E))
                    want = oracles.oracle_ext(g, mu, E, cap)
                    assert got == want


def _route_inputs():
    """Fresh graphs with a cap: the fixtures at (3,) or (2,2), random
    1-graphs at (2,) and 2-graphs at (1,1) (seeds 0-49), the radius-1
    window of the skew product of FX6^3 at (1,1,1), and random_2graph(126)
    at (1,2), the first input found where the walked side's continuations
    give the extensions out of order, so the sort by tau shows."""
    for name in sorted(textio.FIXTURE_TEXTS):
        g = textio.fixture(name)
        yield name, g, (3,) if g.k == 1 else (2,) * g.k
    for seed in range(50):
        yield f"random_1graph({seed})", random_1graph(seed), (2,)
        yield f"random_2graph({seed})", random_2graph(seed), (1, 1)
    yield "random_2graph(126)", random_2graph(126), (1, 2)
    base = _product3([textio.fixture("FX6")] * 3)
    yield "FX6^3 window", structure.skew_product_window(base, (-1,) * 3, (1,) * 3).graph, (1, 1, 1)


def test_min_triples_match_filter_route():
    """mce, lambda_min and ext, read off one (tau, alpha, beta) table per
    pair, return the filter route's tuples, order included, for every
    ordered pair of capped paths at every vertex, so for both argument
    orders of each; ext also for the members at a vertex and every other
    capped path there."""
    seen = Counter()
    for label, g, cap in _route_inputs():
        for v in g.vertices:
            paths = g.paths_up_to(v, cap)
            for mu, nu in itertools.product(paths, paths):
                got = mce(g, mu, nu)
                assert got == oracles.filter_mce(g, mu, nu), (label, mu, nu)
                assert lambda_min(g, mu, nu) == oracles.filter_lambda_min(g, mu, nu), (label, mu, nu)
                assert ext(g, mu, (nu,)) == oracles.filter_ext(g, mu, (nu,)), (label, mu, nu)
                seen["empty"] += not got
                seen["several"] += len(got) > 1
                seen["identity"] += mu.is_vertex or nu.is_vertex
                seen["d(mu) >= d(nu)"] += mu != nu and degrees.leq(nu.d, mu.d)
            for mu in paths:
                for E in (paths[1:], paths[::2]):
                    assert ext(g, mu, E) == oracles.filter_ext(g, mu, E), (label, mu, E)
    assert len(seen) == 4 and all(seen.values()), seen


def test_unvalidated_graph_raises_missing_square():
    """FX2 without its square does not validate, and the common extension
    of b and r needs that square: mce, lambda_min and ext raise
    MissingSquareError for (b, r) in both orders, as the filter route
    does."""
    fx2 = textio.fixture("FX2")
    g = KGraph(fx2.skeleton, ())
    assert not validate_kgraph(g).ok
    b, r = g.path(["b"]), g.path(["r"])
    for mu, nu in ((b, r), (r, b)):
        for call in (mce, lambda_min, oracles.filter_mce, oracles.filter_lambda_min):
            with pytest.raises(MissingSquareError):
                call(g, mu, nu)
        for call in (ext, oracles.filter_ext):
            with pytest.raises(MissingSquareError):
                call(g, mu, [nu])

# -- closures -----------------------------------------------------------------------


def test_vee_closure_examples(fx):
    g2, g3 = fx["FX2"], fx["FX3"]
    b, r = g2.path(["b"]), g2.path(["r"])
    assert [p.literal() for p in vee_closure(g2, [b, r])] == ["r", "b", "b.r"]
    got3 = vee_closure(g3, [g3.path(["b"]), g3.path(["c"])])
    assert {p.literal() for p in got3} == {"b", "c"}
    assert vee_closure(g2, [b]) == (b,)


def test_vee_closure_properties(fx):
    g = fx["FX2"]
    paths = g.paths_up_to("v", (1, 1))[1:]
    for E in (set(c) for r in (1, 2) for c in itertools.combinations(paths, r)):
        closed = vee_closure(g, E)
        assert vee_closure(g, closed) == closed  # idempotent
        assert set(closed) <= set(vee_closure(g, set(E) | {paths[-1]}))  # monotone
        for lam in closed:
            assert any(g.extends(lam, mu) for mu in E)  # factors through a member


def test_pi_closure_examples(fx):
    g2, g3 = fx["FX2"], fx["FX3"]
    b, r = g2.path(["b"]), g2.path(["r"])
    assert {p.literal() for p in pi_closure(g2, [b, r])} == {"b", "r", "b.r"}
    assert pi_closure(g2, [b]) == (b,)
    got = pi_closure(g3, [g3.path(["b"]), g3.path(["c"])])
    assert {p.literal() for p in got} == {"b", "c"}


# -- exhaustiveness ---------------------------------------------------------------


def test_is_exhaustive_examples(fx):
    g2, g3 = fx["FX2"], fx["FX3"]
    b3, c3 = g3.path(["b"]), g3.path(["c"])
    assert is_exhaustive(g3, [b3, c3], (1, 1)).is_true
    res = is_exhaustive(g3, [b3], (1, 1))
    assert res.is_false and res.witness == c3
    res2 = is_exhaustive(g2, [g2.path(["b"])], (2, 2))
    assert res2.is_unknown and res2.cap == (2, 2)


def test_is_exhaustive_rejects_identity_and_mixed_ranges(fx):
    g = fx["FX3"]
    with pytest.raises(KGraphError):
        is_exhaustive(g, [g.identity("v")], (1, 1))
    with pytest.raises(KGraphError):
        is_exhaustive(g, [g.path(["b"]), g.identity("w")], (1, 1))


def test_false_witness_avoidance_persists(fx):
    """A refutation witness keeps refuting along every capped extension."""
    g = fx["FX3"]
    res = is_exhaustive(g, [g.path(["b"])], (1, 1))
    lam = res.witness
    E = [g.path(["b"])]
    for sigma in g.paths_up_to(lam.s, (1, 1)):
        assert ext(g, g.compose(lam, sigma), E) == ()


def test_general_route_agrees_with_mask_route(fx):
    g = fx["FX2"]
    deep = g.paths_of_degree("v", (2, 2))[0]
    res = is_exhaustive(g, [deep], (1, 1))  # member outside the (1,1) universe
    assert res.is_unknown
    b = g.path(["b"])
    assert is_exhaustive(g, [b], (1, 1)).is_unknown


def test_fe_sets_examples(fx):
    g3, g5 = fx["FX3"], fx["FX5"]
    fam = fe_sets(g3, "v", (1, 1))
    assert set(fam.sets_at("v")) == {frozenset({g3.path(["b"]), g3.path(["c"])})}
    fam5 = fe_sets(g5, "u", (1,))
    assert set(fam5.sets_at("u")) == {frozenset({g5.path(["e"])})}
    assert fe_sets(g3, "w", (1, 1)).sets_at("w") == {}


def test_fe_sets_monotone_in_cap():
    for seed in range(8):
        g = random_2graph(seed)
        for v in g.vertices:
            small = fe_sets(g, v, (1, 1))
            try:
                large = fe_sets(g, v, (2, 2))
            except RuntimeError:
                continue  # universe too big to enumerate at the larger cap
            for S, cert in small.sets_at(v).items():
                if cert.is_true:
                    big = large.sets_at(v).get(S)
                    assert big is not None and big.is_true


def test_all_edges_set_always_true(fx):
    for g in fx.values():
        for v in g.vertices:
            edges = [g.path([e.eid]) for e in g.edges_at(v)]
            if edges:
                assert is_exhaustive(g, edges, (1,) * g.k).is_true


def test_minimal_antichain(fx):
    g = fx["FX4"]
    e, eg, f = g.path(["e"]), g.path(["e", "g"]), g.path(["f"])
    assert align.minimal_antichain(g, [e, eg, f]) == tuple(sorted_paths([e, f]))
