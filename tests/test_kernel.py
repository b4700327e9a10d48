"""The bitmask kernel of align.VertexUniverse against the path arithmetic
it stands in for, and call-count gates that keep that arithmetic, and the
conversions between path sets and masks, out of the inner loops of the
lattice computation."""

import random
from collections import Counter

import pytest

from kgraphlat import align, degrees, ideals, textio
from kgraphlat.kgraph import KGraph
from kgraphlat.randomgraphs import random_2graph


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


def _counting(monkeypatch, cls, names):
    calls = Counter()
    for name in names:
        orig = getattr(cls, name)

        def counted(self, *args, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(self, *args)

        monkeypatch.setattr(cls, name, counted)
    return calls


# Exact counts at the time of writing, pinned as upper bounds; they do not
# depend on string hashing, so machine noise cannot trip this gate.
@pytest.mark.parametrize("name, cap, split_max, compose_max", [
    ("FX6", (2,), 33, 34),
    ("FX2", (2, 2), 66, 24),
])
def test_lattice_path_arithmetic_calls_pinned(monkeypatch, name, cap, split_max, compose_max):
    g = textio.parse_kgraph_text(textio.FIXTURE_TEXTS[name]).graph  # fresh memo
    calls = _counting(monkeypatch, KGraph, ("extends", "split", "compose"))
    ideals.ideal_lattice(g, cap)
    assert calls["extends"] == 0
    assert calls["split"] <= split_max
    assert calls["compose"] <= compose_max


@pytest.mark.parametrize("name, cap, subsets", [("FX6", (2,), 63), ("FX2", (2, 2), 255)])
def test_lattice_family_mask_calls_pinned(monkeypatch, name, cap, subsets):
    """Families stay member masks from fe_sets to the lattice: no set is
    turned back into a mask, each subset is classified once, and path sets
    are built only for the eh_sets of the pairs."""
    g = textio.parse_kgraph_text(textio.FIXTURE_TEXTS[name]).graph  # fresh memo
    calls = _counting(monkeypatch, align.VertexUniverse, ("mask_of", "set_of", "classify"))
    lat = ideals.ideal_lattice(g, cap)
    eh_sets = {p.H: len(p.eh_sets) for p in lat.pairs}
    assert calls["mask_of"] == 0
    assert calls["classify"] <= subsets
    assert calls["set_of"] <= sum(eh_sets.values())
