"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything here is exact: fixture lattices are compared as sets,
random suites are seeded, and every certified-false answer is replayed
against brute-force reimplementations of the definitions.
"""

import itertools

from kgraphlat import align, degrees
from kgraphlat.align import ext, fe_sets, is_exhaustive, mce
from kgraphlat.cli import main as cli_main
from kgraphlat.ideals import (
    enumerate_ideal_pairs,
    enumerate_sat_hered,
    ideal_lattice,
    is_hereditary,
    is_saturated,
    pair_leq,
    quotient_graph,
    restricted_fe_family,
    saturation,
)
from kgraphlat.kgraph import validate_kgraph
from kgraphlat.randomgraphs import random_1graph, random_2graph
from kgraphlat.structure import (
    cofinality_check,
    find_loop_with_entrance,
    grading_exists,
    m_closure,
    m_closure_iterated,
    skew_fe_lift,
    skew_product_window,
    structure_report,
)

import oracles
from cli_corpus import criterion_9_invocations

K1_SEEDS = range(50)
K2_SEEDS = range(100)
K1_CAP = (1,)
K2_CAP = (1, 1)


def _lattice_shape(g, cap):
    lat = ideal_lattice(g, cap)
    return [(p.H, p.B) for p in lat.pairs], lat.hasse


def test_criterion_1_fixture_lattices(fx):
    pairs4, hasse4 = _lattice_shape(fx["FX4"], (2,))
    assert pairs4 == [((), ()), (("u",), ()), (("w",), ()), (("u", "v", "w"), ())]
    assert hasse4 == ((0, 1), (0, 2), (1, 3), (2, 3))
    assert _lattice_shape(fx["FX4"], (3,)) == (pairs4, hasse4)  # cap stability
    pairs1, hasse1 = _lattice_shape(fx["FX1"], (2,))
    assert pairs1 == [((), ()), (("u", "v"), ())] and hasse1 == ((0, 1),)
    pairs2, hasse2 = _lattice_shape(fx["FX2"], (2, 2))
    assert pairs2 == [((), ()), (("v",), ())] and hasse2 == ((0, 1),)
    pairs6, hasse6 = _lattice_shape(fx["FX6"], (2,))
    assert pairs6 == [((), ()), (("v",), ())] and hasse6 == ((0, 1),)
    print("[criterion 1] PASS: fixture lattices exact (FX4 diamond cap-stable; FX1/FX2/FX6 chains)")


def test_criterion_2_k1_oracle_equivalence():
    checked = 0
    for seed in K1_SEEDS:
        g = random_1graph(seed)
        pairs = enumerate_ideal_pairs(g, K1_CAP)
        assert all(p.B == () for p in pairs), f"seed {seed}: nonempty B in a rank-1 graph"
        got = [frozenset(p.H) for p in pairs]
        want = sorted(oracles.k1_sat_hered_sets(g), key=lambda s: (len(s), sorted(s)))
        assert got == want, f"seed {seed}: pair sets differ from the classical closure"
        # order isomorphism: pair order must coincide with subset order
        for a in pairs:
            for b in pairs:
                assert pair_leq(g, a, b) == (frozenset(a.H) <= frozenset(b.H)), seed
        checked += 1
    assert checked >= 50
    print(f"[criterion 2] PASS: {checked} rank-1 graphs match the classical saturated-hereditary lattice")


def _suite_graphs(fx):
    graphs = [(f"fixture:{n}", g, (2,) * g.k) for n, g in sorted(fx.items())]
    graphs += [(f"k2:{s}", random_2graph(s), K2_CAP) for s in K2_SEEDS]
    return graphs


def test_criterion_3_lemma_suite(fx):
    counts = {"a": 0, "b": 0, "c": 0, "d": 0, "e": 0}
    for tag, g, cap in _suite_graphs(fx):
        verts = g.vertices
        # (a) saturation laws on all subsets of a small sample
        for n in range(min(len(verts), 3) + 1):
            for combo in itertools.combinations(verts, n):
                sat = saturation(g, combo, cap)
                got = frozenset(sat.members)
                assert set(combo) <= got, tag
                assert frozenset(saturation(g, got, cap).members) == got, tag
                if is_hereditary(g, combo):
                    assert sat.hereditary, tag
                counts["a"] += 1
        hs = enumerate_sat_hered(g, cap)
        for hv in hs:
            H = hv.as_frozenset
            gq = quotient_graph(g, H)
            assert validate_kgraph(gq).ok, tag  # (b)
            counts["b"] += 1
            sf = restricted_fe_family(g, H, cap)
            if hv.saturated.is_true:
                for S, cert in sf.certs().items():
                    assert not cert.is_false, (tag, H, S)  # (c)
                    counts["c"] += 1
                assert not sf.tainted, (tag, H)
                assert not sf.satiated.is_false, (tag, H)  # (d)
                counts["d"] += 1
        pairs = enumerate_ideal_pairs(g, cap)
        for a in pairs:
            assert pair_leq(g, a, a), tag
            for b in pairs:
                if pair_leq(g, a, b) and pair_leq(g, b, a):
                    assert a == b, tag
                for c in pairs:
                    if pair_leq(g, a, b) and pair_leq(g, b, c):
                        assert pair_leq(g, a, c), tag
        by_h = {}
        for p in pairs:
            by_h.setdefault(p.H, []).append(p)
        for group in by_h.values():
            bottom = [p for p in group if p.B == ()]
            assert len(bottom) == 1, tag
            for p in group:
                assert pair_leq(g, bottom[0], p), tag  # (H, empty) below (H, B)
        counts["e"] += 1
    print(
        "[criterion 3] PASS: lemma suite clean on fixtures + "
        f"{len(list(K2_SEEDS))} rank-2 graphs "
        f"(a:{counts['a']} saturations, b:{counts['b']} quotients, "
        f"c:{counts['c']} stripped members, d:{counts['d']} satiation checks, "
        f"e:{counts['e']} order checks)"
    )


def test_criterion_4_mce_bruteforce_equivalence(fx):
    cap = (2, 2)
    pairs_checked = 0
    for name in ("FX2", "FX3"):
        g = fx[name]
        for v in g.vertices:
            paths = g.paths_up_to(v, cap)
            for mu, nu in itertools.product(paths, paths):
                assert mce(g, mu, nu) == oracles.oracle_mce(g, mu, nu), (name, mu, nu)
                pairs_checked += 1
            members = paths[1:]
            for mu in paths:
                for E in (set(c) for r in (1, 2) for c in itertools.combinations(members[:5], r)):
                    got = frozenset(ext(g, mu, E))
                    assert got == oracles.oracle_ext(g, mu, E, cap), (name, mu, E)
    print(f"[criterion 4] PASS: mce/ext match definitional recomputation on {pairs_checked} path pairs")


def test_criterion_5_skew_products(fx):
    lifted_checked = 0
    for name in ("FX1", "FX5"):
        g = fx[name]
        cap = (2,)
        for r in (1, 2, 3):
            sw = skew_product_window(g, (-r,), (r,))
            assert validate_kgraph(sw.graph).ok, (name, r)
            derived = grading_exists(sw.graph)
            assert derived is not None, (name, r)
            # matches the canonical level grading up to a per-component shift
            diffs = {}
            for vid, val in derived.b:
                comp = _component(sw.graph, vid)
                diffs.setdefault(comp, set()).add(
                    tuple(a - b for a, b in zip(val, sw.grading.value(vid)))
                )
            assert all(len(d) == 1 for d in diffs.values()), (name, r)
            for v in g.vertices:
                for S, cert in fe_sets(g, v, cap).sets_at(v).items():
                    for n in ((0,), (-r,), (r - 2,)):
                        try:
                            lifted = skew_fe_lift(sw, S, n, cap)
                        except Exception:
                            continue
                        assert not lifted.exhaustive.is_false, (name, r, S, n)
                        lifted_checked += 1
    assert lifted_checked > 0
    print(f"[criterion 5] PASS: skew windows validate, gradings are level maps, {lifted_checked} lifts never refuted")


def _component(g, v):
    seen = {v}
    stack = [v]
    nbrs = {}
    for e in g.edges:
        nbrs.setdefault(e.r, set()).add(e.s)
        nbrs.setdefault(e.s, set()).add(e.r)
    while stack:
        u = stack.pop()
        for w in nbrs.get(u, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


def test_criterion_6_m_closure(fx):
    cases = 0
    graded = []
    g5 = fx["FX5"]
    graded.append((g5, grading_exists(g5), (2,)))
    for name in ("FX1", "FX5"):
        sw = skew_product_window(fx[name], (0,) , (3,))
        graded.append((sw.graph, sw.grading, (2,)))
    for g, grading, cap in graded:
        assert grading is not None
        b = grading.as_dict()
        pool = [p for v in g.vertices for p in g.paths_up_to(v, cap) if not p.is_vertex]
        for r in (1, 2):
            for E in itertools.combinations(pool[:6], r):
                vee = align.vee_closure(g, E)
                closed = m_closure(g, grading, E)
                fixed = m_closure_iterated(g, grading, E)  # termination
                assert set(E) <= set(vee) <= set(closed) <= set(fixed)
                want = tuple(max(b[p.s][i] for p in E) for i in range(g.k))
                got = tuple(max(b[p.s][i] for p in closed) for i in range(g.k))
                assert got == want
                cases += 1
    print(f"[criterion 6] PASS: closure chain, fixpoint termination and potential-join equality on {cases} sets")


def test_criterion_7_structure_checks(fx):
    res = cofinality_check(fx["FX4"], (2,))
    assert res.is_false and res.witness[1] == "w"
    loop = find_loop_with_entrance(fx["FX6"], (2,))["v"]
    assert loop.is_true
    mu, alpha = loop.witness
    assert (mu.literal(), alpha.literal()) == ("a1", "a2")
    rep = structure_report(fx["FX6"], (2,), assumed_condition_C=True)
    assert rep.verdicts["simple"] == "yes_conditional_on_C"
    assert rep.verdicts["purely_infinite"] == "yes_conditional_on_C"
    for flag in (True, False):
        assert structure_report(fx["FX4"], (2,), assumed_condition_C=flag).verdicts["simple"] == "no"
    print("[criterion 7] PASS: cofinality witness w, loop witness (a1,a2), conditional verdicts as pinned")


# -- criterion 8: replay every certified-false witness -------------------------------


def _replay_exhaustiveness_witness(g, E, lam, cap):
    assert ext(g, lam, E) == ()
    assert frozenset(oracles.oracle_ext(g, lam, E, cap)) == frozenset()


def _replay_saturation_witness(g, H, v, F, cap):
    H = frozenset(H)
    assert v not in H
    assert F and all(p.s in H and p.r == v for p in F)
    # the claim is certified exhaustiveness of F; replay both certificate legs
    for lam in g.paths_up_to(v, cap):
        assert oracles.oracle_ext(g, lam, F, cap), (v, lam)
    for lam in g.paths_up_to(v, cap):
        if any(oracles.oracle_prefix(g, lam, mu.d) == mu for mu in F if degrees.leq(mu.d, lam.d)):
            continue
        for e in g.edges_at(lam.s):
            q = g.compose(lam, g.path([e.eid]))
            if degrees.leq(q.d, cap):
                continue
            assert any(
                degrees.leq(mu.d, q.d) and oracles.oracle_prefix(g, q, mu.d) == mu for mu in F
            ), (v, q)


def _reach_oracle(g):
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


def _replay_cofinality_witness(g, x, w):
    reach = _reach_oracle(g)
    if not g.edges_at(x.s):
        # finite boundary path: w reaches none of its points
        points = {oracles.oracle_prefix(g, x, m).s for m in degrees.below(x.d)}
        assert all(p not in reach[w] for p in points)
    else:
        # cone obstruction: nothing forward of x(0) is forward of w
        assert x.is_vertex
        assert not (reach[x.r] & reach[w])


def _replay_loop_witness(g, v, mu, alpha):
    assert mu.r == mu.s
    assert degrees.leq(alpha.d, mu.d) and alpha.r == mu.s
    assert oracles.oracle_prefix(g, mu, alpha.d) != alpha
    assert mu.r in _reach_oracle(g)[v]


def _replay_loop_negative(g, v, reason):
    reach = _reach_oracle(g)
    if reason == ("acyclic-skeleton",):
        for u in g.vertices:
            for e in g.edges:
                assert not (e.r == u and u in reach[e.s]), "cycle exists"
    elif reason == ("degree-deterministic",):
        seen = set()
        for e in g.edges:
            assert (e.r, e.color) not in seen
            seen.add((e.r, e.color))
    elif reason == ("k1-cycle-analysis",):
        assert g.k == 1
        branch = {u for u in g.vertices if len(g.edges_at(u)) >= 2}
        on_cycle = {e.r for e in g.edges if e.r in reach[e.s]} | {
            u for u in g.vertices for t in g.vertices if u != t and t in reach[u] and u in reach[t]
        }
        for z in on_cycle:
            if z in reach[v]:
                assert not (reach[z] & branch)
    else:
        raise AssertionError(f"unknown negative reason {reason}")


def test_criterion_8_witness_soundness(fx):
    replayed = 0
    graphs = [(f"fixture:{n}", g, (2,) * g.k) for n, g in sorted(fx.items())]
    graphs += [(f"k1:{s}", random_1graph(s), K1_CAP) for s in K1_SEEDS]
    graphs += [(f"k2:{s}", random_2graph(s), K2_CAP) for s in K2_SEEDS]
    for tag, g, cap in graphs:
        # exhaustiveness refutations over all capped candidate subsets
        for v in g.vertices:
            members = list(align.universe(g, v, cap).members)
            for r in (1, 2):
                for E in itertools.combinations(members, r):
                    res = is_exhaustive(g, E, cap)
                    if res.is_false:
                        _replay_exhaustiveness_witness(g, frozenset(E), res.witness, cap)
                        replayed += 1
        # saturation refutations over all hereditary subsets
        verts = g.vertices
        for n in range(len(verts) + 1):
            for combo in itertools.combinations(verts, n):
                if not is_hereditary(g, combo):
                    continue
                res = is_saturated(g, combo, cap)
                if res.is_false:
                    v, F = res.witness
                    _replay_saturation_witness(g, combo, v, F, cap)
                    replayed += 1
        res = cofinality_check(g, cap)
        if res.is_false:
            x, w = res.witness
            _replay_cofinality_witness(g, x, w)
            replayed += 1
        for v, cert in find_loop_with_entrance(g, cap).items():
            if cert.is_true:
                mu, alpha = cert.witness
                _replay_loop_witness(g, v, mu, alpha)
                replayed += 1
            elif cert.is_false:
                _replay_loop_negative(g, v, cert.witness)
                replayed += 1
    assert replayed > 100
    print(f"[criterion 8] PASS: {replayed} certificates replayed against the raw definitions, zero failures")


def test_criterion_9_cli_determinism(fx, capsys):
    total = 0
    for name, g in sorted(fx.items()):
        for argv in criterion_9_invocations(name, g):
            argv = [str(a) for a in argv]
            code1 = cli_main(argv)
            out1 = capsys.readouterr()
            code2 = cli_main(argv)
            out2 = capsys.readouterr()
            assert code1 == code2, argv
            assert out1.out == out2.out, argv
            assert out1.err == out2.err, argv
            total += 1
    print(f"[criterion 9] PASS: {total} CLI invocations byte-identical across repeated runs")
