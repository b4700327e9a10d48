"""Command-line interface: parse k-graph text files, run library
computations, and emit deterministic JSON, DOT or plain text.

Exit codes: 0 success, 1 validation failure, 2 syntax/usage error,
3 a required certificate came back unknown under --require-exact.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import __version__, align, degrees, ideals, structure, textio
from .certify import CertifiedBool
from .degrees import Degree
from .ideals import IdealLattice, IdealPair
from .kgraph import KGraph, KGraphError, Path, validate_kgraph
from .randomgraphs import random_1graph, random_2graph
from .textio import KGraphDocument, KGraphSyntaxError, parse_kgraph_text

class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    cap: Optional[Degree] = None
    fmt: str = "json"
    require_exact: bool = False
    assumed_condition_C: bool = False
    seed: int = 0
    vertex: Optional[str] = None
    mu: Optional[str] = None
    nu: Optional[str] = None
    setarg: Optional[str] = None
    radius: int = 1
    rank: int = 1


# -- JSON encoding -------------------------------------------------------------


def _encode(obj: Any) -> Any:
    if isinstance(obj, Path):
        return obj.literal()
    if isinstance(obj, CertifiedBool):
        out = {"status": obj.value.value}
        if obj.witness is not None:
            out["witness"] = _encode(obj.witness)
        if obj.cap is not None:
            out["cap"] = list(obj.cap)
        return out
    if isinstance(obj, (frozenset, set)):
        return sorted((_encode(x) for x in obj), key=json.dumps)
    if isinstance(obj, dict):  # keys are str; the renderers sort them
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(x) for x in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


class _Certificates:
    """Collects the certification status of every reported fact."""

    def __init__(self):
        self.items: List[Dict[str, Any]] = []

    def add(self, fact: str, cert: CertifiedBool):
        self.items.append({"fact": fact, **_encode(cert)})

    def any_unknown(self) -> bool:
        return any(item["status"] == "unknown_at_cap" for item in self.items)


def _render(payload: Dict[str, Any], cfg: RunConfig, certs: _Certificates) -> str:
    envelope = {
        "tool": "kgraphlat",
        "version": __version__,
        "command": cfg.command,
        "cap": list(cfg.cap) if cfg.cap is not None else None,
        "result": _encode(payload),
        "certificates": certs.items,
    }
    if cfg.fmt == "json":
        return json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    if cfg.fmt == "text":
        lines = [f"# kgraphlat {__version__} :: {cfg.command}"]
        lines.append(json.dumps(envelope["result"], sort_keys=True, indent=2))
        for item in certs.items:
            lines.append(f"cert {item['fact']}: {item['status']}")
        return "\n".join(lines) + "\n"
    raise UsageError(f"format {cfg.fmt!r} not available for this command")


# -- DOT emission -------------------------------------------------------------


def emit_dot_graph(g: KGraph) -> str:
    lines = ["digraph skeleton {"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for e in g.edges:
        lines.append(f'  "{e.s}" -> "{e.r}" [label="{e.eid} (c{e.color})"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_dot_lattice(lat: IdealLattice) -> str:
    lines = ["digraph ideal_lattice {", "  rankdir=BT;"]
    for i, p in enumerate(lat.pairs):
        lines.append(f'  n{i} [label="{p.label()}"];')
    for i, j in lat.hasse:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_dot(obj) -> str:
    if isinstance(obj, IdealLattice):
        return emit_dot_lattice(obj)
    if isinstance(obj, KGraph):
        return emit_dot_graph(obj)
    raise UsageError(f"no DOT form for {type(obj).__name__}")


# -- argument helpers ------------------------------------------------------------


def _need_cap(cfg: RunConfig, g: KGraph) -> Degree:
    if cfg.cap is None:
        raise UsageError(f"command {cfg.command!r} needs --cap")
    return degrees.check(cfg.cap, g.k)


def _parse_path(g: KGraph, literal: str) -> Path:
    if g.has_vertex(literal):
        return g.identity(literal)
    return g.path(literal.split("."))


def _parse_pathset(g: KGraph, literal: str) -> List[Path]:
    return [_parse_path(g, tok) for tok in literal.split(",") if tok]


def _parse_vertexset(g: KGraph, literal: Optional[str]) -> List[str]:
    if not literal:
        return []
    vs = [tok for tok in literal.split(",") if tok]
    for v in vs:
        g.require_vertex(v)
    return vs


# -- command handlers --------------------------------------------------------------


def _cmd_validate(doc: KGraphDocument, cfg: RunConfig, certs: _Certificates):
    rep = doc.report
    return {"ok": rep.ok, "violations": [[k, list(ids)] for k, ids in rep.violations]}


def _cmd_paths(doc, cfg, certs):
    g = doc.graph
    if not cfg.vertex:
        raise UsageError("paths needs --vertex")
    cap = _need_cap(cfg, g)
    out = g.paths_up_to(cfg.vertex, cap)
    return {"vertex": cfg.vertex, "paths": [p.literal() for p in out]}


def _cmd_mce(doc, cfg, certs):
    g = doc.graph
    if not (cfg.mu and cfg.nu):
        raise UsageError("mce needs --mu and --nu")
    mu, nu = _parse_path(g, cfg.mu), _parse_path(g, cfg.nu)
    return {"mce": [p.literal() for p in align.mce(g, mu, nu)],
            "lambda_min": [[a.literal(), b.literal()] for a, b in align.lambda_min(g, mu, nu)]}


def _cmd_ext(doc, cfg, certs):
    g = doc.graph
    if not (cfg.mu and cfg.setarg):
        raise UsageError("ext needs --mu and --set")
    mu = _parse_path(g, cfg.mu)
    E = _parse_pathset(g, cfg.setarg)
    return {"ext": [p.literal() for p in align.ext(g, mu, E)]}


def _set_rows(sets: Dict[align.PathSet, CertifiedBool], fact: str, certs: _Certificates):
    """Rows of a set's members and certificate fields, in set_sort_key order."""
    out = []
    for S, cert in sorted(sets.items(), key=lambda kv: ideals.set_sort_key(kv[0])):
        out.append({"set": [p.literal() for p in sorted(S, key=Path.sort_key)], **_encode(cert)})
        certs.add(f"{fact} {ideals.fmt_pathset(S)}", cert)
    return out


def _cmd_fe(doc, cfg, certs):
    g = doc.graph
    if not cfg.vertex:
        raise UsageError("fe needs --vertex")
    cap = _need_cap(cfg, g)
    fam = align.fe_sets(g, cfg.vertex, cap)
    return {"vertex": cfg.vertex, "sets": _set_rows(fam.sets_at(cfg.vertex), "exhaustive", certs)}


def _cmd_saturation(doc, cfg, certs):
    g = doc.graph
    cap = _need_cap(cfg, g)
    G = _parse_vertexset(g, cfg.setarg)
    vs = ideals.saturation(g, G, cap)
    certs.add(f"saturated {ideals.fmt_vertexset(vs.members)}", vs.saturated)
    return {"input": sorted(G), "saturation": list(vs.members),
            "hereditary": vs.hereditary, "saturated": vs.saturated}


def _cmd_sathered(doc, cfg, certs):
    g = doc.graph
    cap = _need_cap(cfg, g)
    out = []
    for hv in ideals.enumerate_sat_hered(g, cap):
        certs.add(f"saturated {ideals.fmt_vertexset(hv.members)}", hv.saturated)
        out.append({"H": list(hv.members), "saturated": hv.saturated})
    return {"sets": out}


def _cmd_quotient(doc, cfg, certs):
    g = doc.graph
    H = _parse_vertexset(g, cfg.setarg)
    gq = ideals.quotient_graph(g, H)
    return {"H": sorted(H), "kgraph": textio.emit_kgraph_text(gq).splitlines()}


def _cmd_ehfamily(doc, cfg, certs):
    g = doc.graph
    cap = _need_cap(cfg, g)
    H = _parse_vertexset(g, cfg.setarg)
    sf = ideals.restricted_fe_family(g, H, cap)
    certs.add("family satiated", sf.satiated)
    return {
        "H": sorted(H),
        "sets": _set_rows(sf.certs(), "exhaustive-in-quotient", certs),
        "satiated": sf.satiated,
        "refuted_parents": [
            {"parent": [p.literal() for p in sorted(E, key=Path.sort_key)], "witness": tau.literal()}
            for E, tau in sf.refuted_parents.items()
        ],
    }


def _cmd_satiate(doc, cfg, certs):
    g = doc.graph
    cap = _need_cap(cfg, g)
    H = _parse_vertexset(g, cfg.setarg)
    gq = ideals.quotient_graph(g, H)
    sf = ideals.restricted_fe_family(g, H, cap)
    closure = ideals.satiation_closure(gq, sf, cap)
    verdict = ideals.is_satiated(gq, sf, cap)
    certs.add("satiated", verdict)
    return {
        "H": sorted(H),
        "is_satiated": verdict,
        "closure_size": closure.base.size(),
        "base_size": sf.base.size(),
        "overflow": [p.literal() for p in closure.overflow],
    }


def _pairs_payload(pairs: List[IdealPair], certs: _Certificates):
    out = []
    for p in pairs:
        certs.add(f"pair {p.label()}", p.h_saturated)
        out.append({
            "H": list(p.H),
            "B": [[q.literal() for q in sorted(S, key=Path.sort_key)] for S in p.B],
            "exact": p.exact,
        })
    return out


def _cmd_pairs(doc, cfg, certs):
    g = doc.graph
    cap = _need_cap(cfg, g)
    return {"pairs": _pairs_payload(ideals.enumerate_ideal_pairs(g, cap), certs)}


def _cmd_lattice(doc, cfg, certs):
    g = doc.graph
    cap = _need_cap(cfg, g)
    lat = ideals.ideal_lattice(g, cap)
    if cfg.fmt == "dot":
        return lat
    return {
        "nodes": _pairs_payload(lat.pairs, certs),
        "hasse": [list(e) for e in lat.hasse],
        "is_lattice": lat.is_lattice,
        "failures": list(lat.failures),
    }


def _cmd_skew(doc, cfg, certs):
    g = doc.graph
    r = cfg.radius
    sw = structure.skew_product_window(g, (-r,) * g.k, (r,) * g.k)
    if cfg.fmt == "dot":
        return sw.graph
    rep = validate_kgraph(sw.graph)
    return {
        "radius": r,
        "vertices": len(sw.graph.vertices),
        "edges": len(sw.graph.edges),
        "squares": len(sw.graph.squares),
        "valid": rep.ok,
        "kgraph": textio.emit_kgraph_text(sw.graph).splitlines(),
    }


def _cmd_grading(doc, cfg, certs):
    g = doc.graph
    grading = structure.grading_exists(g)
    if grading is None:
        return {"exists": False}
    return {"exists": True, "b": {v: list(n) for v, n in grading.b}}


def _cmd_mclosure(doc, cfg, certs):
    g = doc.graph
    if not cfg.setarg:
        raise UsageError("mclosure needs --set")
    grading = structure.grading_exists(g)
    if grading is None:
        raise KGraphError("graph admits no grading; the closure may be infinite")
    E = _parse_pathset(g, cfg.setarg)
    once = structure.m_closure(g, grading, E)
    fix = structure.m_closure_iterated(g, grading, E)
    return {"closure": [p.literal() for p in once], "fixpoint": [p.literal() for p in fix]}


def _cmd_boundary(doc, cfg, certs):
    g = doc.graph
    if not cfg.vertex:
        raise UsageError("boundary needs --vertex")
    cap = _need_cap(cfg, g)
    out = structure.boundary_prefixes(g, cfg.vertex, cap)
    return {"vertex": cfg.vertex,
            "prefixes": [{"path": b.path.literal(), "status": b.status} for b in out]}


def _cmd_cofinal(doc, cfg, certs):
    g = doc.graph
    cap = _need_cap(cfg, g)
    cert = structure.cofinality_check(g, cap)
    certs.add("cofinal", cert)
    return {"cofinal": cert}


def _cmd_loops(doc, cfg, certs):
    g = doc.graph
    cap = _need_cap(cfg, g)
    out = structure.find_loop_with_entrance(g, cap)
    for v, cert in sorted(out.items()):
        certs.add(f"loop-with-entrance reachable from {v}", cert)
    return {"vertices": out}


def _cmd_report(doc, cfg, certs):
    g = doc.graph
    cap = _need_cap(cfg, g)
    rep = structure.structure_report(g, cap, cfg.assumed_condition_C)
    certs.add("cofinal", rep.cofinal)
    certs.add("all vertices reach a loop with an entrance", rep.all_vertices_reach_loop_with_entrance)
    return {
        "cofinal": rep.cofinal,
        "loops": rep.loops,
        "lattice_size": rep.lattice_size,
        "assumed_condition_C": rep.assumed_condition_C,
        "verdicts": rep.verdicts,
    }


def _cmd_fuzz(doc, cfg, certs):
    g = random_1graph(cfg.seed) if cfg.rank == 1 else random_2graph(cfg.seed)
    rep = validate_kgraph(g)
    cap = cfg.cap if cfg.cap is not None else (1,) * g.k
    lat = ideals.ideal_lattice(g, degrees.check(cap, g.k))
    return {
        "seed": cfg.seed,
        "rank": g.k,
        "kgraph": textio.emit_kgraph_text(g).splitlines(),
        "valid": rep.ok,
        "lattice_nodes": len(lat.pairs),
        "hasse": [list(e) for e in lat.hasse],
    }


_HANDLERS = {
    "validate": _cmd_validate, "paths": _cmd_paths, "mce": _cmd_mce,
    "ext": _cmd_ext, "fe": _cmd_fe, "saturation": _cmd_saturation,
    "sathered": _cmd_sathered, "quotient": _cmd_quotient,
    "ehfamily": _cmd_ehfamily, "satiate": _cmd_satiate, "pairs": _cmd_pairs,
    "lattice": _cmd_lattice, "skew": _cmd_skew, "grading": _cmd_grading,
    "mclosure": _cmd_mclosure, "boundary": _cmd_boundary,
    "cofinal": _cmd_cofinal, "loops": _cmd_loops, "report": _cmd_report,
    "fuzz": _cmd_fuzz,
}


def run_with_status(doc: Optional[KGraphDocument], cfg: RunConfig) -> Tuple[str, int]:
    """Dispatch a command; deterministic output plus the exit code."""
    if cfg.command not in _HANDLERS:
        raise UsageError(f"unknown command {cfg.command!r}")
    certs = _Certificates()
    if cfg.command == "validate":
        payload = _cmd_validate(doc, cfg, certs)
        text = _render(payload, cfg, certs)
        return text, 0 if doc.report.ok else 1
    if cfg.command != "fuzz" and not doc.report.ok:
        payload = {"error": "graph does not validate",
                   "violations": [[k, list(i)] for k, i in doc.report.violations]}
        return _render(payload, cfg, certs), 1
    payload = _HANDLERS[cfg.command](doc, cfg, certs)
    text = _render(payload, cfg, certs) if isinstance(payload, dict) else emit_dot(payload)
    code = 3 if cfg.require_exact and certs.any_unknown() else 0
    return text, code


# -- entry point ---------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kgraphlat",
        description="exact combinatorics for finitely presented higher-rank graphs",
    )
    p.add_argument("command", choices=tuple(_HANDLERS))
    p.add_argument("input", nargs="?", help="k-graph text file, '-' for stdin, or FX1..FX6")
    p.add_argument("--cap", help="degree cap, comma separated or broadcast (e.g. 2,2 or 2)")
    p.add_argument("--format", dest="fmt", choices=("json", "dot", "text"), default="json")
    p.add_argument("--require-exact", action="store_true",
                   help="exit 3 if any reported certificate is unknown at cap")
    p.add_argument("--assume-condition-c", action="store_true",
                   help="assert the uniqueness hypothesis for report verdicts")
    p.add_argument("--vertex")
    p.add_argument("--mu")
    p.add_argument("--nu")
    p.add_argument("--set", dest="setarg", help="comma separated vertex ids or path literals")
    p.add_argument("--radius", type=int, default=1, help="window radius for skew")
    p.add_argument("--seed", type=int, default=0, help="seed for the fuzz command")
    p.add_argument("--rank", type=int, default=1, choices=(1, 2), help="rank for the fuzz command")
    return p


def _load(args) -> Optional[KGraphDocument]:
    if args.command == "fuzz":
        return None  # fuzz generates its own graph from the seed
    if not args.input:
        raise UsageError("an input file (or FX1..FX6, or '-') is required")
    if args.input in textio.FIXTURE_TEXTS:
        return parse_kgraph_text(textio.FIXTURE_TEXTS[args.input])
    if args.input == "-":
        return parse_kgraph_text(sys.stdin.read())
    with open(args.input, "r", encoding="utf-8") as fh:
        return parse_kgraph_text(fh.read())


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        doc = _load(args)
        cap = None
        if args.cap is not None:
            cap = degrees.parse(args.cap, args.rank if doc is None else doc.graph.k)
        cfg = RunConfig(
            command=args.command, cap=cap, fmt=args.fmt,
            require_exact=args.require_exact,
            assumed_condition_C=args.assume_condition_c,
            seed=args.seed, vertex=args.vertex, mu=args.mu, nu=args.nu,
            setarg=args.setarg, radius=args.radius, rank=args.rank,
        )
        text, code = run_with_status(doc, cfg)
    except KGraphSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (KGraphError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
