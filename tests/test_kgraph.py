
import hashlib
import itertools
import re

import pytest

from kgraphlat import align, degrees, ideals, structure, textio
from kgraphlat.kgraph import (
    KGraph,
    KGraphError,
    MissingSquareError,
    NonComposableError,
    Path,
    SegmentBoundsError,
    Skeleton,
    SquareRule,
    is_locally_convex,
    validate_kgraph,
)
from kgraphlat.randomgraphs import random_1graph, random_2graph
from kgraphlat.structure import skew_product_window

import oracles
from test_ideals import _dangling_graph


# -- validation ---------------------------------------------------------------


def test_fixtures_validate(fx):
    for g in fx.values():
        assert validate_kgraph(g).ok


def test_fx2_square_removed_incomplete(fx):
    g = fx["FX2"]
    broken = KGraph(g.skeleton, [])
    rep = validate_kgraph(broken)
    assert not rep.ok
    kinds = {k for k, _ in rep.violations}
    assert kinds == {"incomplete-square"}
    assert ("incomplete-square", ("b", "r")) in rep.violations


def test_k1_vacuously_valid(fx):
    assert validate_kgraph(fx["FX5"]).ok


def test_dangling_edge_reported():
    sk = Skeleton.build(1, ["u"], [("e", 1, "u", "ghost")])
    rep = validate_kgraph(KGraph(sk, []))
    assert not rep.ok and rep.violations[0][0] == "dangling-edge"


def test_malformed_square_reported(fx):
    g = fx["FX2"]
    bad = KGraph(g.skeleton, [SquareRule(("b", "b"), ("r", "r"))])
    rep = validate_kgraph(bad)
    assert ("malformed-square", ("b", "b", "r", "r")) in rep.violations


def test_colour_keeping_square_raises_missing_square(fx):
    """Only a square that reverses its two colours enters the swap table.
    A malformed square that keeps its colour order makes normalizing and
    cutting raise MissingSquareError, where normalizing used to swap the
    same pair forever; on a valid graph the table holds every square both
    ways."""
    g = fx["FX2"]
    bad = KGraph(g.skeleton, [SquareRule(("r", "b"), ("r", "b"))])
    with pytest.raises(MissingSquareError):
        bad.path(["r", "b"])
    bad = KGraph(g.skeleton, [SquareRule(("b", "r"), ("b", "r"))])
    with pytest.raises(MissingSquareError):
        bad.split(bad.path(["b", "r"]), (0, 1))
    valid = [h for h in [*fx.values(), *map(random_2graph, range(20))] if validate_kgraph(h).ok]
    assert len(valid) > 20
    for h in valid:
        want = {}
        for sq in h.squares:
            want[sq.lhs], want[sq.rhs] = sq.rhs, sq.lhs
        assert h._swap == want


def _tricolor_graph(sigma_y, sigma_z):
    """Single vertex, x1..x3 of color 1, y of color 2, z of color 3; the
    y- and z-swaps permute the x edges by the given permutations."""
    xs = [f"x{i}" for i in (1, 2, 3)]
    edges = [(x, 1, "v", "v") for x in xs] + [("y", 2, "v", "v"), ("z", 3, "v", "v")]
    squares = [SquareRule((x, "y"), ("y", f"x{sigma_y[i]}")) for i, x in enumerate(xs, 1)]
    squares += [SquareRule((x, "z"), ("z", f"x{sigma_z[i]}")) for i, x in enumerate(xs, 1)]
    squares += [SquareRule(("y", "z"), ("z", "y"))]
    return KGraph(Skeleton.build(3, ["v"], edges), squares)


def test_cube_condition_detects_noncommuting_swaps():
    ok = _tricolor_graph({1: 1, 2: 2, 3: 3}, {1: 1, 2: 2, 3: 3})
    assert validate_kgraph(ok).ok
    bad = _tricolor_graph({1: 2, 2: 1, 3: 3}, {1: 1, 2: 3, 3: 2})
    rep = validate_kgraph(bad)
    assert not rep.ok
    assert {k for k, _ in rep.violations} == {"cube-inconsistent"}


def _square_mutations(g):
    """g with each single square removed, and with each square's right side
    swapped for the next square's."""
    for i, sq in enumerate(g.squares):
        yield KGraph(g.skeleton, g.squares[:i] + g.squares[i + 1 :])
        other = g.squares[(i + 1) % len(g.squares)]
        if other is not sq:
            yield KGraph(g.skeleton, g.squares[:i] + (SquareRule(sq.lhs, other.rhs),) + g.squares[i + 1 :])


def test_single_square_mutations_rejected():
    for seed in range(12):
        for mutated in _square_mutations(random_2graph(seed)):
            assert not validate_kgraph(mutated).ok


def _product3(factors):
    """The product of three rank-1 graphs: color c moves coordinate c along
    an edge of factors[c - 1], and each square swaps the moves of two
    coordinates."""

    def edge_id(c, e, at):
        return f"{e.eid}@{c}:" + ",".join(x for i, x in enumerate(at) if i != c - 1)

    def moved(at, c, x):
        return at[: c - 1] + (x,) + at[c:]

    verts = list(itertools.product(*(f.vertices for f in factors)))
    edges = [
        (edge_id(c, e, at), c, "|".join(at), "|".join(moved(at, c, e.s)))
        for c, f in enumerate(factors, 1)
        for e in f.edges
        for at in verts
        if at[c - 1] == e.r
    ]
    squares = [
        SquareRule(
            (edge_id(i, e, at), edge_id(j, f, moved(at, i, e.s))),
            (edge_id(j, f, at), edge_id(i, e, moved(at, j, f.s))),
        )
        for i, j in ((1, 2), (1, 3), (2, 3))
        for e in factors[i - 1].edges
        for f in factors[j - 1].edges
        for at in verts
        if at[i - 1] == e.r and at[j - 1] == f.r
    ]
    return KGraph(Skeleton.build(3, ["|".join(v) for v in verts], edges), squares)


def _cube_mutation(g):
    """Two blue-red squares through the same red edge and the same red
    diagonal trade their blue right-hand edges: still complete and
    unambiguous, but the swaps no longer commute with the green ones."""
    color = {e.eid: e.color for e in g.edges}
    seen = {}
    for i, sq in enumerate(g.squares):
        if (color[sq.lhs[0]], color[sq.lhs[1]]) != (1, 2):
            continue
        j = seen.setdefault((sq.lhs[1], sq.rhs[0]), i)
        if j != i:
            other = g.squares[j]
            squares = list(g.squares)
            squares[i] = SquareRule(sq.lhs, (sq.rhs[0], other.rhs[1]))
            squares[j] = SquareRule(other.lhs, (other.rhs[0], sq.rhs[1]))
            return KGraph(g.skeleton, squares)
    raise AssertionError("no two squares share a red edge and diagonal")


def _rank3_inputs():
    for seeds in ((0, 1, 2), (5, 2, 0), (3, 1, 2)):
        g = _product3([random_1graph(s) for s in seeds])
        v = g.vertices[0]
        a, b = g.edges[0].eid, g.edges[1].eid
        loose = [("loose", 2, v, "nowhere"), ("hue", 4, v, v)]
        dangling = Skeleton.build(3, g.vertices, [(e.eid, e.color, e.r, e.s) for e in g.edges] + loose)
        malformed = (SquareRule((a, a), (b, b)), SquareRule((a, "ghost"), (b, a)))
        cube = _cube_mutation(g)
        yield g
        yield cube
        yield KGraph(dangling, g.squares)
        yield KGraph(g.skeleton, g.squares + malformed)
        yield KGraph(dangling, cube.squares + malformed)


def test_validation_matches_all_pairs_oracle(fx):
    graphs = list(fx.values())
    for seed in range(40):
        g = random_2graph(seed)
        graphs += [g, *_square_mutations(g)]
    graphs += _rank3_inputs()
    kinds = set()
    for g in graphs:
        rep = validate_kgraph(g)
        assert rep == oracles.oracle_validate(g)
        kinds |= {kind for kind, _ in rep.violations}
    assert kinds == {
        "dangling-edge", "malformed-square", "incomplete-square", "duplicate-square", "cube-inconsistent"
    }


# -- local convexity ------------------------------------------------------------------


def _top_vertex_graphs():
    """A locally convex 2-graph whose vertex w receives both colours from
    v, and the same graph with one more edge into w, of either colour,
    whose source is no vertex, so receives no colour."""
    edges = [("b", 1, "v", "v"), ("r", 2, "v", "v"), ("p", 1, "w", "v"), ("q", 2, "w", "v")]
    squares = [SquareRule(("b", "r"), ("r", "b")), SquareRule(("p", "r"), ("q", "b"))]
    for extra in ([], [("x", 1, "w", "nowhere")], [("x", 2, "w", "nowhere")]):
        yield KGraph(Skeleton.build(2, ["v", "w"], edges + extra), squares)


def test_local_convexity_matches_paths_oracle(fx):
    """The skeleton test against paths of degree e_i + e_j.  FX3 is the one
    fixture that is not locally convex; every rank-1 graph is, and 131 of
    random_2graph seeds 0-149 are."""

    def verdicts(graphs):
        out = [is_locally_convex(g) for g in graphs]
        assert out == [oracles.oracle_locally_convex(g) for g in graphs]
        return out

    assert verdicts([fx[name] for name in sorted(fx)]) == [True, True, False, True, True, True]
    assert sum(verdicts([random_1graph(s) for s in range(150)])) == 150
    assert sum(verdicts([random_2graph(s) for s in range(150)])) == 131
    product = _product3([random_1graph(s) for s in (0, 1, 2)])
    window = skew_product_window(_tricolor_graph({1: 1, 2: 2, 3: 3}, {1: 1, 2: 2, 3: 3}), (0,) * 3, (1,) * 3).graph
    spread = KGraph(Skeleton.build(3, ["v", "a", "b", "c"], [("x", 1, "v", "a"), ("y", 2, "v", "b"), ("z", 3, "v", "c")]), [])
    assert verdicts([product, window, spread]) == [True, True, False]
    assert verdicts(list(_top_vertex_graphs())) == [True, False, False]


# -- composition and segments -------------------------------------------------------


def test_compose_both_color_orders_agree(fx):
    g = fx["FX2"]
    b, r = g.path(["b"]), g.path(["r"])
    br = g.compose(b, r)
    assert br == g.compose(r, b)
    assert br.d == (1, 1) and br.edges == ("b", "r")


def test_compose_identity_is_neutral(fx):
    g = fx["FX4"]
    p = g.path(["e", "g"])
    assert g.compose(p, g.identity(p.s)) == p
    assert g.compose(g.identity(p.r), p) == p


def test_compose_rejects_mismatch(fx):
    g = fx["FX5"]
    e = g.path(["e"])
    with pytest.raises(NonComposableError):
        g.compose(e, e)


def test_path_of_no_edges_raises(fx):
    """An identity is named by its vertex through g.identity, not g.path."""
    for seq in ([], ()):
        with pytest.raises(KGraphError, match=re.escape("empty path needs a vertex")):
            fx["FX4"].path(seq)


def test_segment_examples(fx):
    g = fx["FX2"]
    br = g.compose(g.path(["b"]), g.path(["r"]))
    assert g.segment(br, (0, 0), (0, 1)) == g.path(["r"])
    assert g.segment(br, (0, 0), br.d) == br
    mid = g.segment(br, (1, 0), (1, 0))
    assert mid.is_vertex and mid.r == "v"
    with pytest.raises(SegmentBoundsError):
        g.segment(br, (1, 1), (0, 0))


@pytest.mark.parametrize("method", ["split", "prefix", "segment"])
@pytest.mark.parametrize("m", [(-1, 0), (1, 0, 0), (1,)])
def test_malformed_cut_degree_raises_value_error(fx, method, m):
    """A cut degree of the wrong rank or with a negative coordinate raises
    the ValueError of a malformed degree, as paths_of_degree does, rather
    than a wrong factorization or an internal error."""
    g = fx["FX2"]
    br = g.compose(g.path(["b"]), g.path(["r"]))
    args = (m, (1, 1)) if method == "segment" else (m,)
    with pytest.raises(ValueError):
        getattr(g, method)(br, *args)
    with pytest.raises(ValueError):
        g.paths_of_degree("v", m)


def test_list_cut_degree_equals_tuple(fx):
    """A cut degree given as a list is frozen first, as paths_of_degree
    freezes one, so the factors equal the tuple results and stay hashable."""
    g = fx["FX2"]
    br = g.compose(g.path(["b"]), g.path(["r"]))
    assert g.split(br, [1, 0]) == g.split(br, (1, 0))
    assert g.prefix(br, [0, 1]) == g.prefix(br, (0, 1))
    assert g.segment(br, [0, 1], [1, 1]) == g.segment(br, (0, 1), (1, 1))
    for p in (*g.split(br, [1, 0]), g.prefix(br, [0, 1]), g.segment(br, [0, 1], [1, 1])):
        hash(p)


def test_segment_matches_compose_oracle(fx):
    for name in ("FX2", "FX4"):
        g = fx[name]
        cap = (2,) * g.k
        for v in g.vertices:
            for p in g.paths_up_to(v, cap):
                for m in degrees.below(p.d):
                    assert g.prefix(p, m) == oracles.oracle_prefix(g, p, m)


def test_unique_factorization_brute_force(fx):
    for name in ("FX2", "FX3", "FX4", "FX6"):
        g = fx[name]
        cap = (2,) * g.k
        for v in g.vertices:
            for p in g.paths_up_to(v, cap):
                for m in degrees.below(p.d):
                    assert len(oracles.oracle_factorizations(g, p, m)) == 1


def test_normalization_idempotent_on_random_graphs():
    """Re-normalizing a normal form is the identity, and any sequence
    reachable from it by square rewrites normalizes back to it."""
    import random

    rng = random.Random("normal-form")
    for seed in range(10):
        g = random_2graph(seed)
        for v in g.vertices:
            for p in g.paths_up_to(v, (2, 2)):
                if p.is_vertex:
                    assert g.identity(p.r) == p
                    continue
                assert g.path(p.edges) == p
                seq = list(p.edges)
                for _ in range(6):
                    spots = [
                        i
                        for i in range(len(seq) - 1)
                        if g.edge(seq[i]).color != g.edge(seq[i + 1]).color
                    ]
                    if not spots:
                        break
                    i = rng.choice(spots)
                    seq[i], seq[i + 1] = g._swap[(seq[i], seq[i + 1])]
                    assert g.path(seq) == p


def test_split_then_compose_roundtrip(fx):
    g = fx["FX4"]
    for v in g.vertices:
        for p in g.paths_up_to(v, (3,)):
            for m in degrees.below(p.d):
                pre, suf = g.split(p, m)
                assert g.compose(pre, suf) == p


# -- the Path contract -----------------------------------------------------------------


def test_path_hashes_and_equals_its_field_tuple(fx):
    """A Path is the tuple (r, s, d, edges): it hashes as that tuple, which
    is how the frozen dataclass it replaced hashed, so set iteration
    orders and digests keep; it equals the plain tuple; and no field can
    be assigned."""
    for g in fx.values():
        for v in g.vertices:
            for p in g.paths_up_to(v, (2,) * g.k):
                fields = (p.r, p.s, p.d, p.edges)
                assert hash(p) == hash(fields) and p == fields
                for name in ("r", "s", "d", "edges"):
                    with pytest.raises(AttributeError):
                        setattr(p, name, getattr(p, name))


def test_path_repr_literal_and_is_vertex(fx):
    g2, g4 = fx["FX2"], fx["FX4"]
    got = [(repr(p), p.literal(), p.is_vertex) for p in (*g2.paths_up_to("v", (1, 1)), g4.path(["e", "g"]))]
    assert got == [
        ("<v:v<-v|0,0>", "v", True),
        ("<r:v<-v|0,1>", "r", False),
        ("<b:v<-v|1,0>", "b", False),
        ("<b.r:v<-v|1,1>", "b.r", False),
        ("<e.g:v<-w|2>", "e.g", False),
    ]


def test_no_memo_key_can_equal_a_path():
    """A Path equals the plain 4-tuple of its fields, so a memo key that is
    a bare 4-tuple could collide with a key that is a Path.  Every key is
    a kind name or a tuple led by one, and none has four items: checked
    after common extensions over a skew-product window, and after the
    lattice, every stripped family and the report of random_2graph(41),
    on the graph and on each quotient in its memo."""
    fx2 = skew_product_window(textio.fixture("FX2"), (-2, -2), (2, 2)).graph
    for v in fx2.vertices:
        paths = fx2.paths_up_to(v, (2, 2))
        for mu, nu in itertools.product(paths, paths):
            align.mce(fx2, mu, nu)
            align.ext(fx2, mu, (nu,))
    g41 = random_2graph(41)
    for pair in ideals.ideal_lattice(g41, (1, 1)).pairs:
        pair.stripped
    structure.structure_report(g41, (1, 1), False)
    graphs = [fx2, g41] + [q for q in g41._cache.values() if isinstance(q, KGraph)]
    assert len(graphs) > 2
    kinds = set()
    for g in graphs:
        for key in g._cache:
            kind = key if isinstance(key, str) else key[0]
            assert isinstance(kind, str) and not isinstance(key, Path), key
            assert isinstance(key, str) or len(key) != 4, key
            kinds.add(kind)
    assert {"mce", "pod", "put", "quotient", "universe"} <= kinds, kinds


# -- enumeration ---------------------------------------------------------------------


def test_paths_of_degree_examples(fx):
    g2, g3 = fx["FX2"], fx["FX3"]
    assert [p.literal() for p in g2.paths_of_degree("v", (1, 1))] == ["b.r"]
    assert g3.paths_of_degree("v", (1, 1)) == ()
    ident = g2.paths_of_degree("v", (0, 0))
    assert len(ident) == 1 and ident[0].is_vertex


def test_paths_up_to_examples(fx):
    g4, g5 = fx["FX4"], fx["FX5"]
    assert [p.literal() for p in g4.paths_up_to("v", (2,))] == ["v", "e", "f", "e.g"]
    assert [p.literal() for p in g5.paths_up_to("u", (3,))] == ["u", "e"]
    assert [p.literal() for p in g4.paths_up_to("u", (0,))] == ["u"]


def _enumeration_inputs():
    """(label, graph, cap): every fixture at caps 1-3, random 1-graphs
    (seeds 0-59) at (1,) and (3,) and random 2-graphs at (1,1) and (2,2),
    a graph with dangling edges, FX2 without its square, and small
    skew-product windows of FX2 and FX6^3."""
    for name in sorted(textio.FIXTURE_TEXTS):
        g = textio.fixture(name)
        for level in (1, 2, 3):
            yield f"{name} at {level}", g, (level,) * g.k
    for seed in range(60):
        for cap in ((1,), (3,)):
            yield f"random_1graph({seed}) at {cap}", random_1graph(seed), cap
        try:
            g = random_2graph(seed)
        except RuntimeError:
            continue
        for cap in ((1, 1), (2, 2)):
            yield f"random_2graph({seed}) at {cap}", g, cap
    yield "dangling", _dangling_graph(), (3,)
    fx2 = textio.fixture("FX2")
    yield "FX2 without its square", KGraph(fx2.skeleton, ()), (2, 2)
    yield "FX2 window", skew_product_window(fx2, (-1, -1), (1, 1)).graph, (2, 2)
    fx6_cubed = _product3([textio.fixture("FX6")] * 3)
    yield "FX6^3 window", skew_product_window(fx6_cubed, (-1,) * 3, (1,) * 3).graph, (1, 1, 1)


def test_paths_by_extension_match_colour_walk():
    """paths_of_degree and paths_up_to, which extend the memoized paths of
    one degree lower by one edge of the top colour, return the tuples of
    the colour-by-colour enumeration they replaced, order included, with
    no duplicates.  paths_up_to runs on a cold memo, which it fills degree
    by degree upward; paths_of_degree runs on another cold memo with the
    degrees asked from the top down, so each first request fills the
    degrees below it."""
    cases = 0
    for label, g, cap in _enumeration_inputs():
        up, down = KGraph(g.skeleton, g.squares), KGraph(g.skeleton, g.squares)
        for v in g.vertices:
            got = up.paths_up_to(v, cap)
            assert got == oracles.colour_walk_paths_up_to(g, v, cap), (label, v)
            assert len(set(got)) == len(got), (label, v)
        for n in reversed(list(degrees.below(cap))):
            for v in g.vertices:
                got = down.paths_of_degree(v, n)
                assert got == oracles.colour_walk_paths_of_degree(g, v, n), (label, v, n)
                assert len(set(got)) == len(got), (label, v, n)
        cases += 1
    assert cases == 262, cases


# (vertex, degree, error, message) for a rank-2 graph with vertex "v"
BAD_ARGUMENTS = [
    ("zz", (1, 1), KGraphError, "unknown vertex 'zz'"),
    ("v", (1,), ValueError, "degree (1,) has length 1, expected rank 2"),
    ("v", (-1, 0), ValueError, "degree (-1, 0) has a negative coordinate"),
    ("v", ([1], 0), TypeError, "int() argument must be"),
    (["v"], (1, 1), TypeError, "unhashable type: 'list'"),
]


def test_path_enumeration_errors_survive_memo_hits(fx):
    """A memo hit skips the vertex and degree checks, so a bad argument must
    raise the same error on a warm memo as on a cold one."""
    g = KGraph(fx["FX2"].skeleton, fx["FX2"].squares)
    for warm in (False, True):
        for enumerate_paths in (g.paths_of_degree, g.paths_up_to):
            for v, n, error, message in BAD_ARGUMENTS:
                with pytest.raises(error, match=re.escape(message)):
                    enumerate_paths(v, n)
            want = enumerate_paths("v", (1, 1))
            assert enumerate_paths("v", [1, 1]) == enumerate_paths("v", (True, 1.0)) == want


def test_universe_errors_survive_memo_hits(fx):
    """align.universe looks up its memo before checking the cap, so a bad
    argument raises the same error cold and warm, on a graph and on a
    quotient, whose universes restrict the parent's."""
    g = KGraph(fx["FX2"].skeleton, fx["FX2"].squares)
    for warm in (False, True):
        for v, n, error, message in BAD_ARGUMENTS:
            with pytest.raises(error, match=re.escape(message)):
                align.universe(g, v, n)
        want = align.universe(g, "v", (1, 1))
        assert align.universe(g, "v", [1, 1]) is align.universe(g, "v", (True, 1.0)) is want
    g4 = KGraph(fx["FX4"].skeleton, fx["FX4"].squares)
    gq = ideals.quotient_graph(g4, {"w"})
    for warm in (False, True):
        for v in ("w", "zz"):
            with pytest.raises(KGraphError, match=re.escape(f"unknown vertex {v!r}")):
                align.universe(gq, v, (1,))
        with pytest.raises(ValueError, match=re.escape("degree (1, 1) has length 2, expected rank 1")):
            align.universe(gq, "v", (1, 1))
        assert align.universe(gq, "v", (1,)).parent is align.universe(g4, "v", (1,))


def test_finite_alignment_by_construction(fx):
    for g in fx.values():
        for v in g.vertices:
            for n in degrees.below((2,) * g.k):
                assert len(g.paths_of_degree(v, n)) < 50


def test_random_1graph_texts_pinned():
    """The graphs random_1graph draws for seeds 0-399, emitted as text and
    hashed in seed order, so that a change to the generator's bounds
    cannot change which graph a seed names."""
    digest = hashlib.sha256()
    for seed in range(400):
        digest.update(f"{seed}\n{textio.emit_kgraph_text(random_1graph(seed))}".encode())
    assert digest.hexdigest() == "cbf25e5d189dd77eb171c01493bbd4766fbdac3dffd996873f709ed2329ea2b2"


def test_random_2graph_texts_pinned():
    """The graphs random_2graph draws for seeds 0-399, emitted as text and
    hashed in seed order, so that a change to how the generator tests a
    draw for tractability cannot change which graph a seed names."""
    digest = hashlib.sha256()
    for seed in range(400):
        digest.update(f"{seed}\n{textio.emit_kgraph_text(random_2graph(seed))}".encode())
    assert digest.hexdigest() == "17b471a391249acd565d32a4fdc07b684435ad78d4230f5fafe5995b33214ee7"


def test_random_2graph_builds_no_universe(monkeypatch):
    """random_2graph tests a draw by counting the paths up to its cap at
    each vertex, the identity and the members of the capped universe
    there, so it builds no universe."""
    def refuse(g, v, cap):
        raise AssertionError(f"universe built at {v!r}")

    monkeypatch.setattr(align, "_make_universe", refuse)
    for seed in range(50):
        random_2graph(seed)
