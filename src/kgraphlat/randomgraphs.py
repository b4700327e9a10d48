"""Seeded generators of small valid k-graphs for fuzzing and test suites.

Rank-2 skeletons are built from commuting color-adjacency patterns (the
red matrix is either a copy of the blue one, one loop per vertex, or
empty), which guarantees the two-path counts match so the squares can be
completed by a random bijection.  Every generated graph validates.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from .kgraph import KGraph, Skeleton, SquareRule, validate_kgraph


def random_1graph(seed: int, max_vertices: int = 5, max_edges: int = 8) -> KGraph:
    """A random rank-1 graph; any skeleton is valid at rank 1."""
    rng = random.Random(f"k1:{seed}")
    nv = rng.randint(1, max_vertices)
    verts = [f"v{i}" for i in range(nv)]
    ne = rng.randint(0, max_edges)
    edges = []
    for i in range(ne):
        edges.append((f"e{i}", 1, rng.choice(verts), rng.choice(verts)))
    g = KGraph(Skeleton.build(1, verts, edges), [])
    assert validate_kgraph(g).ok
    return g


def _random_2graph_once(rng: random.Random, max_vertices: int, max_blue: int) -> KGraph:
    nv = rng.randint(1, max_vertices)
    verts = [f"v{i}" for i in range(nv)]
    nblue = rng.randint(1, max_blue)
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


def random_2graph(
    seed: int,
    max_vertices: int = 3,
    max_blue: int = 3,
    universe_cap: Optional[Tuple[int, int]] = (1, 1),
    max_members: int = 10,
    attempts: int = 50,
) -> KGraph:
    """A random valid rank-2 graph, redrawn (deterministically) until no
    vertex has more than max_members paths up to universe_cap but its own."""
    rng = random.Random(f"k2:{seed}")
    for _ in range(attempts):
        g = _random_2graph_once(rng, max_vertices, max_blue)
        if universe_cap is None:
            return g
        if all(len(g.paths_up_to(v, universe_cap)) - 1 <= max_members for v in g.vertices):
            return g
    raise RuntimeError(f"no tractable 2-graph found for seed {seed}")
