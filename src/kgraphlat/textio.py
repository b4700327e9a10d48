"""Line-based text format for k-graph presentations, plus the bundled fixtures.

Grammar ('#' starts a comment, blank lines ignored):

    kgraph <k>
    vertex <id>
    edge <id> : <color> <range> <- <source>
    square <f> <g> ~ <g2> <f2>       # asserts f∘g = g2∘f2

The emitter writes the canonical order (header, vertices, edges,
squares, each sorted), so parse -> emit -> parse is the identity on
graphs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .kgraph import KGraph, Skeleton, SquareRule, ValidationReport, validate_kgraph
from .record import Record


class KGraphSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class KGraphDocument(Record):
    __slots__ = ("text", "graph", "report", "locations")

    def __init__(self, text: str, graph: KGraph, report: ValidationReport,
                 locations: Optional[Dict[str, int]] = None):
        self.text = text
        self.graph = graph
        self.report = report
        self.locations = {} if locations is None else locations


def parse_kgraph_text(text: str) -> KGraphDocument:
    """Parse the text format, build the graph and attach its validation report."""
    k = None
    vertices: List[str] = []
    edges: List[Tuple[str, int, str, str]] = []
    squares: List[SquareRule] = []
    locations: Dict[str, int] = {}
    seen_ids: Dict[str, int] = {}
    edge_ids: Set[str] = set()

    def err(msg, lineno, col=1):
        raise KGraphSyntaxError(msg, lineno, col)

    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        head = tokens[0]
        if head == "kgraph":
            if k is not None:
                err("duplicate 'kgraph' header", lineno)
            if len(tokens) != 2 or not tokens[1].isdecimal() or int(tokens[1]) < 1:
                err("expected 'kgraph <k>' with k >= 1", lineno)
            k = int(tokens[1])
            continue
        if k is None:
            err("expected 'kgraph <k>' header first", lineno)
        if head == "vertex":
            if len(tokens) != 2:
                err("expected 'vertex <id>'", lineno)
            vid = tokens[1]
            if vid in seen_ids:
                err(f"duplicate id {vid!r} (first used on line {seen_ids[vid]})", lineno)
            seen_ids[vid] = lineno
            locations[vid] = lineno
            vertices.append(vid)
        elif head == "edge":
            # edge <id> : <color> <range> <- <source>
            if len(tokens) != 7 or tokens[2] != ":" or tokens[5] != "<-":
                err("expected 'edge <id> : <color> <range> <- <source>'", lineno)
            eid, color_tok, rng, src = tokens[1], tokens[3], tokens[4], tokens[6]
            if not color_tok.isdecimal() or int(color_tok) < 1:
                err(f"edge color must be a positive integer, got {color_tok!r}", lineno)
            if eid in seen_ids:
                err(f"duplicate id {eid!r} (first used on line {seen_ids[eid]})", lineno)
            seen_ids[eid] = lineno
            locations[eid] = lineno
            edges.append((eid, int(color_tok), rng, src))
            edge_ids.add(eid)
        elif head == "square":
            if len(tokens) != 6 or tokens[3] != "~":
                err("expected 'square <f> <g> ~ <g2> <f2>'", lineno)
            f, g_, g2, f2 = tokens[1], tokens[2], tokens[4], tokens[5]
            for x in (f, g_, g2, f2):
                if x not in edge_ids:
                    err(f"square references unknown edge {x!r}", lineno)
            squares.append(SquareRule((f, g_), (g2, f2)))
            locations.setdefault(f"square:{f}.{g_}", lineno)
        else:
            err(f"unknown directive {head!r}", lineno)

    if k is None:
        raise KGraphSyntaxError("missing 'kgraph <k>' header", 1)
    graph = KGraph(Skeleton.build(k, vertices, edges), squares)
    return KGraphDocument(text=text, graph=graph, report=validate_kgraph(graph), locations=locations)


def emit_kgraph_text(g: KGraph) -> str:
    """Canonical text encoding of a graph (stable under round-trips)."""
    lines = [f"kgraph {g.k}"]
    for v in g.vertices:
        lines.append(f"vertex {v}")
    for e in g.edges:
        lines.append(f"edge {e.eid} : {e.color} {e.r} <- {e.s}")
    for sq in g.squares:
        lines.append(f"square {sq.lhs[0]} {sq.lhs[1]} ~ {sq.rhs[0]} {sq.rhs[1]}")
    return "\n".join(lines) + "\n"


FIXTURE_TEXTS: Dict[str, str] = {
    # k=1: edge u <- v plus a loop at v
    "FX1": """\
kgraph 1
vertex u
vertex v
edge e : 1 u <- v
edge f : 1 v <- v
""",
    # k=2: one vertex, a blue and a red edge, one commuting square (≅ N^2)
    "FX2": """\
kgraph 2
vertex v
edge b : 1 v <- v
edge r : 2 v <- v
square b r ~ r b
""",
    # k=2: two vertices, one blue and one red edge v <- w, no squares needed
    "FX3": """\
kgraph 2
vertex v
vertex w
edge b : 1 v <- w
edge c : 2 v <- w
""",
    # k=1: v receives from w and u; loop at w
    "FX4": """\
kgraph 1
vertex u
vertex v
vertex w
edge e : 1 v <- w
edge f : 1 v <- u
edge g : 1 w <- w
""",
    # k=1: a single edge u <- v
    "FX5": """\
kgraph 1
vertex u
vertex v
edge e : 1 u <- v
""",
    # k=1: one vertex with two parallel loops
    "FX6": """\
kgraph 1
vertex v
edge a1 : 1 v <- v
edge a2 : 1 v <- v
""",
}


def fixture(name: str) -> KGraph:
    """Load one of the bundled example graphs (FX1..FX6)."""
    try:
        text = FIXTURE_TEXTS[name]
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; have {sorted(FIXTURE_TEXTS)}") from None
    doc = parse_kgraph_text(text)
    if not doc.report.ok:
        raise AssertionError(f"fixture {name} does not validate: {doc.report}")
    return doc.graph
