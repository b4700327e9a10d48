"""Seeded generators of small valid k-graphs for fuzzing and test suites.

Rank-2 skeletons are built from commuting color-adjacency patterns (the
red matrix is either a copy of the blue one, one loop per vertex, or
empty), which guarantees the two-path counts match so the squares can be
completed by a random bijection.  Every generated graph validates.
"""

from __future__ import annotations

import random
from typing import List

from .kgraph import KGraph, Skeleton, SquareRule, validate_kgraph

# A seed names its graph through these bounds; the tests pin the texts
# of seeds 0-399, which the fuzz command and the benchmark draw from.
_MAX_VERTICES_1, _MAX_EDGES_1 = 5, 8
_MAX_VERTICES_2, _MAX_BLUE_2 = 3, 3
_UNIVERSE_CAP, _MAX_MEMBERS, _ATTEMPTS = (1, 1), 10, 50


def random_1graph(seed: int) -> KGraph:
    """A random rank-1 graph; any skeleton is valid at rank 1."""
    rng = random.Random(f"k1:{seed}")
    nv = rng.randint(1, _MAX_VERTICES_1)
    verts = [f"v{i}" for i in range(nv)]
    ne = rng.randint(0, _MAX_EDGES_1)
    edges = []
    for i in range(ne):
        edges.append((f"e{i}", 1, rng.choice(verts), rng.choice(verts)))
    g = KGraph(Skeleton.build(1, verts, edges), [])
    assert validate_kgraph(g).ok
    return g


def _random_2graph_once(rng: random.Random) -> KGraph:
    nv = rng.randint(1, _MAX_VERTICES_2)
    verts = [f"v{i}" for i in range(nv)]
    nblue = rng.randint(1, _MAX_BLUE_2)
    blue = [(rng.choice(verts), rng.choice(verts)) for _ in range(nblue)]
    mode = rng.choice(["copy", "loops", "none"])
    if mode == "copy":
        red = list(blue)
    elif mode == "loops":
        red = [(v, v) for v in verts]
    else:
        red = []
    edges = [(f"b{i}", 1, r, s) for i, (r, s) in enumerate(blue)]
    edges += [(f"r{i}", 2, r, s) for i, (r, s) in enumerate(red)]
    eobjs = {eid: (color, r, s) for eid, color, r, s in edges}

    # pair blue-then-red with red-then-blue factorizations per (range, source)
    squares: List[SquareRule] = []
    buckets = {}
    for f, (cf, rf, sf) in eobjs.items():
        if cf != 1:
            continue
        for gg, (cg, rg, sg) in eobjs.items():
            if cg == 2 and sf == rg:
                buckets.setdefault((rf, sg), [[], []])[0].append((f, gg))
    for gg, (cg, rg, sg) in eobjs.items():
        if cg != 2:
            continue
        for f, (cf, rf, sf) in eobjs.items():
            if cf == 1 and sg == rf:
                buckets.setdefault((rg, sf), [[], []])[1].append((gg, f))
    for key in sorted(buckets):
        br, rb = buckets[key]
        if len(br) != len(rb):
            raise AssertionError("commuting construction broke")
        rng.shuffle(rb)
        for (f, gg), (g2, f2) in zip(sorted(br), rb):
            squares.append(SquareRule((f, gg), (g2, f2)))
    g = KGraph(Skeleton.build(2, verts, edges), squares)
    assert validate_kgraph(g).ok
    return g


def random_2graph(seed: int) -> KGraph:
    """A random valid rank-2 graph, redrawn (deterministically) until no
    vertex has more than _MAX_MEMBERS paths up to _UNIVERSE_CAP but its own."""
    rng = random.Random(f"k2:{seed}")
    for _ in range(_ATTEMPTS):
        g = _random_2graph_once(rng)
        if all(len(g.paths_up_to(v, _UNIVERSE_CAP)) - 1 <= _MAX_MEMBERS for v in g.vertices):
            return g
    raise RuntimeError(f"no tractable 2-graph found for seed {seed}")
