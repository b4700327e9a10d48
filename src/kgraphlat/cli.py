"""Command-line interface: parse k-graph text files, run library
computations, and emit deterministic JSON, DOT or plain text.

`_HANDLERS` gives each command its handler, the flags it needs and
whether it needs --cap.  `run_with_status` checks them once, after the
validation gate, and calls the handler with the graph and the cap
checked against its rank.  Handlers return library values (paths,
tuples, `MinPair`s, certificates, vertex tuples).

`_write`, the only JSON route, renders them in one pass, appending
text to a list.  It takes str, `Path`, list, tuple, dict with str keys,
bool, None, int, `CertifiedBool` and a set of paths or strings, and
raises `TypeError` on anything else.  Its bytes are those of
`json.dumps(..., sort_keys=True, indent=2)` on the JSON values: it
quotes every string with the escaper `json.dumps` uses
(`encode_basestring_ascii`) and writes the same key order, separators
and indent.  A set is ordered by its members' quoted literals, so a set
kept in `Path.sort_key` order is returned as `sorted_paths(S)`.
`lattice` and `skew` return DOT text, every id escaped, for --format dot;
on a graph that does not validate they report the violations as JSON.

Exit codes: 0 success, 1 validation failure, 2 syntax/usage error or
an unreadable input file, 3 a required certificate came back unknown
under --require-exact.
"""

from __future__ import annotations

import argparse
import sys
from json.encoder import encode_basestring_ascii as _quote  # the escaper json.dumps uses
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import __version__, align, degrees, ideals, structure, textio
from .certify import CertifiedBool
from .degrees import Degree
from .ideals import IdealLattice, IdealPair
from .kgraph import KGraph, KGraphError, Path, sorted_paths, validate_kgraph
from .randomgraphs import random_1graph, random_2graph
from .record import Record
from .textio import KGraphDocument, KGraphSyntaxError, parse_kgraph_text

class UsageError(ValueError):
    pass


class RunConfig(Record):
    __slots__ = ("command", "cap", "fmt", "require_exact", "assumed_condition_C", "seed",
                 "vertex", "mu", "nu", "setarg", "radius", "rank")

    def __init__(self, command: str, cap: Optional[Degree] = None, fmt: str = "json",
                 require_exact: bool = False, assumed_condition_C: bool = False, seed: int = 0,
                 vertex: Optional[str] = None, mu: Optional[str] = None, nu: Optional[str] = None,
                 setarg: Optional[str] = None, radius: int = 1, rank: int = 1):
        self.command = command
        self.cap = cap
        self.fmt = fmt
        self.require_exact = require_exact
        self.assumed_condition_C = assumed_condition_C
        self.seed = seed
        self.vertex = vertex
        self.mu = mu
        self.nu = nu
        self.setarg = setarg
        self.radius = radius
        self.rank = rank


# -- JSON rendering ------------------------------------------------------------


def _cert_fields(cert: CertifiedBool) -> Dict[str, Any]:
    """A certificate's status, and its witness and cap where it has them."""
    out: Dict[str, Any] = {"status": cert.value.value}
    if cert.witness is not None:
        out["witness"] = cert.witness
    if cert.cap is not None:
        out["cap"] = cert.cap
    return out


def _write(obj: Any, write, nl: str) -> None:
    """Write the text json.dumps(sort_keys=True, indent=2) gives for the
    JSON value of obj, on a line that the newline and indent nl began."""
    if isinstance(obj, str):
        write(_quote(obj))
    elif isinstance(obj, Path):
        write(_quote(obj.literal()))
    elif isinstance(obj, (list, tuple)):
        _write_items(obj, write, nl)
    elif isinstance(obj, dict):
        _write_pairs(sorted(obj.items()), write, nl)
    elif obj is True:
        write("true")
    elif obj is False:
        write("false")
    elif obj is None:
        write("null")
    elif isinstance(obj, int):
        write(int.__repr__(obj))
    elif isinstance(obj, CertifiedBool):
        _write_pairs(sorted(_cert_fields(obj).items()), write, nl)
    elif isinstance(obj, (frozenset, set)):
        # _quote raises TypeError on a member that is neither path nor str
        _write_items(sorted(obj, key=lambda x: _quote(x.literal() if isinstance(x, Path) else x)),
                     write, nl)
    else:
        raise TypeError(f"cannot render a value of type {obj.__class__.__name__}")


def _write_items(items, write, nl: str) -> None:
    if not items:
        write("[]")
        return
    inner = nl + "  "
    sep = "[" + inner
    for x in items:
        write(sep)
        _write(x, write, inner)
        sep = "," + inner
    write(nl + "]")


def _write_pairs(pairs, write, nl: str) -> None:
    if not pairs:
        write("{}")
        return
    inner = nl + "  "
    sep = "{" + inner
    for k, v in pairs:
        write(sep + _quote(k) + ": ")
        _write(v, write, inner)
        sep = "," + inner
    write(nl + "}")


def _dumps(obj: Any) -> str:
    out: List[str] = []
    _write(obj, out.append, "\n")
    return "".join(out)


# the (fact, certificate) pair of every reported fact, in report order
_Certificates = List[Tuple[str, CertifiedBool]]


def _render(payload: Dict[str, Any], cfg: RunConfig, certs: _Certificates) -> str:
    if cfg.fmt == "json":
        return _dumps({
            "tool": "kgraphlat",
            "version": __version__,
            "command": cfg.command,
            "cap": cfg.cap,
            "result": payload,
            "certificates": [{"fact": fact, **_cert_fields(cert)} for fact, cert in certs],
        }) + "\n"
    if cfg.fmt == "text":
        lines = [f"# kgraphlat {__version__} :: {cfg.command}", _dumps(payload)]
        lines += [f"cert {fact}: {cert.value.value}" for fact, cert in certs]
        return "\n".join(lines) + "\n"
    raise UsageError(f"format {cfg.fmt!r} not available for this command")


# -- DOT emission -------------------------------------------------------------


def _dot_id(text: str) -> str:
    """text as a quoted DOT id: backslashes, then quotes, escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot_graph(g: KGraph) -> str:
    lines = ["digraph skeleton {"]
    for v in g.vertices:
        lines.append(f"  {_dot_id(v)};")
    for e in g.edges:
        label = _dot_id(f"{e.eid} (c{e.color})")
        lines.append(f"  {_dot_id(e.s)} -> {_dot_id(e.r)} [label={label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_dot_lattice(lat: IdealLattice) -> str:
    lines = ["digraph ideal_lattice {", "  rankdir=BT;"]
    for i, p in enumerate(lat.pairs):
        lines.append(f"  n{i} [label={_dot_id(p.label())}];")
    for i, j in lat.hasse:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- argument helpers ------------------------------------------------------------


def _parse_path(g: KGraph, literal: str) -> Path:
    if g.has_vertex(literal):
        return g.identity(literal)
    return g.path(literal.split("."))


def _parse_pathset(g: KGraph, literal: str) -> List[Path]:
    return [_parse_path(g, tok) for tok in literal.split(",") if tok]


def _parse_vertexset(g: KGraph, literal: Optional[str]) -> List[str]:
    # a set: each vertex once, in the order first given
    vs = list(dict.fromkeys(tok for tok in (literal or "").split(",") if tok))
    for v in vs:
        g.require_vertex(v)
    return vs


# -- command handlers: (graph, checked cap, config, certificates) -> payload --


def _cmd_paths(g, cap, cfg, certs):
    return {"vertex": cfg.vertex, "paths": g.paths_up_to(cfg.vertex, cap)}


def _cmd_mce(g, cap, cfg, certs):
    mu, nu = _parse_path(g, cfg.mu), _parse_path(g, cfg.nu)
    return {"mce": align.mce(g, mu, nu), "lambda_min": align.lambda_min(g, mu, nu)}


def _cmd_ext(g, cap, cfg, certs):
    mu = _parse_path(g, cfg.mu)
    E = _parse_pathset(g, cfg.setarg)
    return {"ext": align.ext(g, mu, E)}


def _set_rows(sets: Dict[align.PathSet, CertifiedBool], fact: str, certs: _Certificates):
    """Rows of a set's members and certificate fields, in set_sort_key order."""
    out = []
    for S, cert in sorted(sets.items(), key=lambda kv: ideals.set_sort_key(kv[0])):
        out.append({"set": sorted_paths(S), **_cert_fields(cert)})
        certs.append((f"{fact} {ideals.fmt_pathset(S)}", cert))
    return out


def _cmd_fe(g, cap, cfg, certs):
    fam = align.fe_sets(g, cfg.vertex, cap)
    return {"vertex": cfg.vertex, "sets": _set_rows(fam.sets_at(cfg.vertex), "exhaustive", certs)}


def _cmd_saturation(g, cap, cfg, certs):
    G = _parse_vertexset(g, cfg.setarg)
    vs = ideals.saturation(g, G, cap)
    certs.append((f"saturated {ideals.fmt_vertexset(vs.members)}", vs.saturated))
    return {"input": sorted(G), "saturation": vs.members,
            "hereditary": vs.hereditary, "saturated": vs.saturated}


def _cmd_sathered(g, cap, cfg, certs):
    out = []
    for hv in ideals.enumerate_sat_hered(g, cap):
        certs.append((f"saturated {ideals.fmt_vertexset(hv.members)}", hv.saturated))
        out.append({"H": hv.members, "saturated": hv.saturated})
    return {"sets": out}


def _cmd_quotient(g, cap, cfg, certs):
    H = _parse_vertexset(g, cfg.setarg)
    gq = ideals.quotient_graph(g, H)
    return {"H": sorted(H), "kgraph": textio.emit_kgraph_text(gq).splitlines()}


def _cmd_ehfamily(g, cap, cfg, certs):
    H = _parse_vertexset(g, cfg.setarg)
    sf = ideals.restricted_fe_family(g, H, cap)
    certs.append(("family satiated", sf.satiated))
    return {
        "H": sorted(H),
        "sets": _set_rows(sf.certs(), "exhaustive-in-quotient", certs),
        "satiated": sf.satiated,
        "refuted_parents": [{"parent": sorted_paths(E), "witness": tau}
                            for E, tau in sf.refuted_parents.items()],
    }


def _cmd_satiate(g, cap, cfg, certs):
    H = _parse_vertexset(g, cfg.setarg)
    gq = ideals.quotient_graph(g, H)
    sf = ideals.restricted_fe_family(g, H, cap)
    closure = ideals.satiation_closure(gq, sf, cap)
    verdict = ideals.is_satiated(gq, sf, cap)
    certs.append(("satiated", verdict))
    return {
        "H": sorted(H),
        "is_satiated": verdict,
        "closure_size": closure.base.size(),
        "base_size": sf.base.size(),
        "overflow": closure.overflow,
    }


def _pairs_payload(pairs: List[IdealPair], certs: _Certificates):
    out = []
    for p in pairs:
        certs.append((f"pair {p.label()}", p.h_saturated))
        # every B is empty: enumerate_ideal_pairs proves no capped B exists
        out.append({"H": p.H, "B": [], "exact": p.exact})
    return out


def _cmd_pairs(g, cap, cfg, certs):
    return {"pairs": _pairs_payload(ideals.enumerate_ideal_pairs(g, cap), certs)}


def _cmd_lattice(g, cap, cfg, certs):
    lat = ideals.ideal_lattice(g, cap)
    if cfg.fmt == "dot":
        return emit_dot_lattice(lat)
    return {
        "nodes": _pairs_payload(lat.pairs, certs),
        "hasse": lat.hasse,
        "is_lattice": lat.is_lattice,
        "failures": lat.failures,
    }


def _cmd_skew(g, cap, cfg, certs):
    r = cfg.radius
    sw = structure.skew_product_window(g, (-r,) * g.k, (r,) * g.k)
    if cfg.fmt == "dot":
        return emit_dot_graph(sw.graph)
    return {
        "radius": r,
        "vertices": len(sw.graph.vertices),
        "edges": len(sw.graph.edges),
        "squares": len(sw.graph.squares),
        "valid": validate_kgraph(sw.graph).ok,
        "kgraph": textio.emit_kgraph_text(sw.graph).splitlines(),
    }


def _cmd_grading(g, cap, cfg, certs):
    grading = structure.grading_exists(g)
    if grading is None:
        return {"exists": False}
    return {"exists": True, "b": dict(grading.b)}


def _cmd_mclosure(g, cap, cfg, certs):
    grading = structure.grading_exists(g)
    if grading is None:
        raise KGraphError("graph admits no grading; the closure may be infinite")
    E = _parse_pathset(g, cfg.setarg)
    once = structure.m_closure(g, grading, E)
    fix = structure.m_closure_iterated(g, grading, E)
    return {"closure": once, "fixpoint": fix}


def _cmd_boundary(g, cap, cfg, certs):
    out = structure.boundary_prefixes(g, cfg.vertex, cap)
    return {"vertex": cfg.vertex, "prefixes": [{"path": b.path, "status": b.status} for b in out]}


def _cmd_cofinal(g, cap, cfg, certs):
    cert = structure.cofinality_check(g, cap)
    certs.append(("cofinal", cert))
    return {"cofinal": cert}


def _cmd_loops(g, cap, cfg, certs):
    out = structure.find_loop_with_entrance(g, cap)
    for v, cert in sorted(out.items()):
        certs.append((f"loop-with-entrance reachable from {v}", cert))
    return {"vertices": out}


def _cmd_report(g, cap, cfg, certs):
    rep = structure.structure_report(g, cap, cfg.assumed_condition_C)
    certs.append(("cofinal", rep.cofinal))
    certs.append(("all vertices reach a loop with an entrance", rep.all_vertices_reach_loop_with_entrance))
    return {
        "cofinal": rep.cofinal,
        "loops": rep.loops,
        "lattice_size": rep.lattice_size,
        "assumed_condition_C": rep.assumed_condition_C,
        "verdicts": rep.verdicts,
    }


def _cmd_fuzz(g, cap, cfg, certs):
    valid = validate_kgraph(g).ok
    lat = ideals.ideal_lattice(g, cap)
    return {
        "seed": cfg.seed,
        "rank": g.k,
        "kgraph": textio.emit_kgraph_text(g).splitlines(),
        "valid": valid,
        "lattice_nodes": len(lat.pairs),
        "hasse": lat.hasse,
    }


# command -> (handler, the flags it needs, whether it needs --cap); the
# flags are checked before the cap.  validate is answered before any
# handler, and fuzz draws its graph from --seed, with cap 1s by default
_HANDLERS = {
    "validate": (None, (), False), "paths": (_cmd_paths, ("--vertex",), True),
    "mce": (_cmd_mce, ("--mu", "--nu"), False), "ext": (_cmd_ext, ("--mu", "--set"), False),
    "fe": (_cmd_fe, ("--vertex",), True), "saturation": (_cmd_saturation, (), True),
    "sathered": (_cmd_sathered, (), True), "quotient": (_cmd_quotient, (), False),
    "ehfamily": (_cmd_ehfamily, (), True), "satiate": (_cmd_satiate, (), True),
    "pairs": (_cmd_pairs, (), True), "lattice": (_cmd_lattice, (), True),
    "skew": (_cmd_skew, (), False), "grading": (_cmd_grading, (), False),
    "mclosure": (_cmd_mclosure, ("--set",), False),
    "boundary": (_cmd_boundary, ("--vertex",), True), "cofinal": (_cmd_cofinal, (), True),
    "loops": (_cmd_loops, (), True), "report": (_cmd_report, (), True),
    "fuzz": (_cmd_fuzz, (), False),
}
_FLAG_FIELDS = {"--vertex": "vertex", "--mu": "mu", "--nu": "nu", "--set": "setarg"}


def run_with_status(doc: Optional[KGraphDocument], cfg: RunConfig) -> Tuple[str, int]:
    """Dispatch a command; deterministic output plus the exit code."""
    if cfg.command not in _HANDLERS:
        raise UsageError(f"unknown command {cfg.command!r}")
    handler, flags, needs_cap = _HANDLERS[cfg.command]
    certs: _Certificates = []
    if cfg.command == "validate" or (cfg.command != "fuzz" and not doc.report.ok):
        rep = doc.report
        head = {"ok": rep.ok} if cfg.command == "validate" else {"error": "graph does not validate"}
        if cfg.fmt == "dot" and cfg.command in ("lattice", "skew"):
            cfg = cfg._replace(fmt="json")  # DOT has no form for the report
        return _render({**head, "violations": rep.violations}, cfg, certs), 0 if rep.ok else 1
    if not all(getattr(cfg, _FLAG_FIELDS[flag]) for flag in flags):
        raise UsageError(f"{cfg.command} needs {' and '.join(flags)}")
    if needs_cap and cfg.cap is None:
        raise UsageError(f"command {cfg.command!r} needs --cap")
    if cfg.command == "fuzz":  # no document: the seed names the graph
        g = random_1graph(cfg.seed) if cfg.rank == 1 else random_2graph(cfg.seed)
        cap = degrees.check(cfg.cap if cfg.cap is not None else (1,) * g.k, g.k)
    else:
        g = doc.graph
        cap = degrees.check(cfg.cap, g.k) if needs_cap else None
    payload = handler(g, cap, cfg, certs)
    text = payload if isinstance(payload, str) else _render(payload, cfg, certs)
    code = 3 if cfg.require_exact and any(cert.is_unknown for _, cert in certs) else 0
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
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {args.input!r}: {exc}") from None
    return parse_kgraph_text(text)


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
    except (KGraphError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
