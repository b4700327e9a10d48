import gc
import io
import json
import re
import sys
from collections import Counter

import pytest

import oracles
from kgraphlat import cli, textio
from kgraphlat.align import MinPair
from kgraphlat.certify import Certainty, false_certified, true_certified, unknown_at_cap
from kgraphlat.cli import RunConfig, emit_dot_graph, emit_dot_lattice, main, run_with_status
from kgraphlat.ideals import ideal_lattice
from kgraphlat.kgraph import is_locally_convex
from kgraphlat.randomgraphs import random_1graph, random_2graph
from kgraphlat.textio import KGraphSyntaxError, emit_kgraph_text, parse_kgraph_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parsing ---------------------------------------------------------------------


def test_parse_fixture_texts_roundtrip(fx):
    for name, text in textio.FIXTURE_TEXTS.items():
        doc = parse_kgraph_text(text)
        assert doc.report.ok, name
        again = parse_kgraph_text(emit_kgraph_text(doc.graph))
        assert again.graph == doc.graph


def test_parse_fx2_structure():
    doc = parse_kgraph_text(textio.FIXTURE_TEXTS["FX2"])
    g = doc.graph
    assert g.k == 2 and len(g.vertices) == 1 and len(g.edges) == 2 and len(g.squares) == 1


def test_parse_duplicate_edge_id_names_it():
    text = "kgraph 1\nvertex v\nedge e : 1 v <- v\nedge e : 1 v <- v\n"
    with pytest.raises(KGraphSyntaxError) as exc:
        parse_kgraph_text(text)
    assert "'e'" in str(exc.value) and "line 4" in str(exc.value)


def test_parse_square_deleted_fails_validation():
    text = textio.FIXTURE_TEXTS["FX2"].replace("square b r ~ r b\n", "")
    doc = parse_kgraph_text(text)
    assert not doc.report.ok
    assert doc.report.violations[0][0] == "incomplete-square"


# each text has one syntax error, on the given line
SYNTAX_ERRORS = [
    ("kgraph 1\nkgraph 1\n", 2, "duplicate 'kgraph' header"),
    ("vertex v\nkgraph 1\n", 1, "expected 'kgraph <k>' header first"),
    ("kgraph 1\nvertex v w\n", 2, "expected 'vertex <id>'"),
    ("kgraph 1\nvertex v\nvertex v\n", 3, "duplicate id 'v' (first used on line 2)"),
    ("kgraph 1\nvertex v\nedge e : 1 v <-\n", 3, "expected 'edge <id> : <color> <range> <- <source>'"),
    ("kgraph 2\nvertex v\nedge b : 1 v <- v\nedge r : 2 v <- v\nsquare b r r b\n", 5,
     "expected 'square <f> <g> ~ <g2> <f2>'"),
    ("# no header\n\nvertex v\n", 3, "expected 'kgraph <k>' header first"),
    ("# a comment only\n\n", 1, "missing 'kgraph <k>' header"),
]


def test_parse_reports_position():
    with pytest.raises(KGraphSyntaxError) as exc:
        parse_kgraph_text("kgraph 1\nvortex v\n")
    assert exc.value.line == 2
    for text, line, message in SYNTAX_ERRORS:
        with pytest.raises(KGraphSyntaxError, match=re.escape(message)) as exc:
            parse_kgraph_text(text)
        assert exc.value.line == line, text
    # comments and blank lines are skipped
    clean = textio.FIXTURE_TEXTS["FX2"]
    noted = "# the commuting square\n\n" + clean.replace("square b r ~ r b", "square b r ~ r b  # b.r = r.b") + "# end\n"
    doc = parse_kgraph_text(noted)
    assert doc.graph == parse_kgraph_text(clean).graph and doc.report.ok
    with pytest.raises(KeyError, match="unknown fixture 'FX9'"):
        textio.fixture("FX9")
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(textio.FIXTURE_TEXTS, "FX9", clean.replace("square b r ~ r b\n", ""))
        with pytest.raises(AssertionError, match="fixture FX9 does not validate"):
            textio.fixture("FX9")


def test_parse_unknown_square_edge():
    text = "kgraph 2\nvertex v\nedge b : 1 v <- v\nsquare b q ~ q b\n"
    with pytest.raises(KGraphSyntaxError) as exc:
        parse_kgraph_text(text)
    assert "'q'" in str(exc.value)


# a superscript digit passes str.isdigit() but not int(); the parser takes
# decimal digits only, so it is a syntax error on its own line
NON_DECIMAL_DIGITS = [("kgraph \u00b2\nvertex v\n", 1), ("kgraph 1\nvertex v\nedge e : \u00b2 v <- v\n", 3)]


@pytest.mark.parametrize("text, line", NON_DECIMAL_DIGITS)
def test_parse_rejects_non_decimal_digit(text, line):
    with pytest.raises(KGraphSyntaxError) as exc:
        parse_kgraph_text(text)
    assert exc.value.line == line


# -- command dispatch ----------------------------------------------------------------


def test_run_command_mce_payload(fx):
    doc = parse_kgraph_text(textio.FIXTURE_TEXTS["FX2"])
    out = run_with_status(doc, RunConfig(command="mce", mu="b", nu="r"))[0]
    data = json.loads(out)
    assert data["result"]["mce"] == ["b.r"]
    assert data["tool"] == "kgraphlat" and data["version"]


def test_run_command_validate_statuses():
    doc = parse_kgraph_text(textio.FIXTURE_TEXTS["FX5"])
    text, code = run_with_status(doc, RunConfig(command="validate"))
    assert code == 0 and json.loads(text)["result"]["ok"] is True
    broken = parse_kgraph_text(textio.FIXTURE_TEXTS["FX2"].replace("square b r ~ r b\n", ""))
    text, code = run_with_status(broken, RunConfig(command="validate"))
    assert code == 1 and json.loads(text)["result"]["ok"] is False


def test_run_command_rejects_unknown():
    doc = parse_kgraph_text(textio.FIXTURE_TEXTS["FX5"])
    with pytest.raises(Exception):
        run_with_status(doc, RunConfig(command="frobnicate"))


def test_lattice_json_embeds_certificates(fx):
    doc = parse_kgraph_text(textio.FIXTURE_TEXTS["FX4"])
    text, code = run_with_status(doc, RunConfig(command="lattice", cap=(2,)))
    data = json.loads(text)
    assert code == 0
    assert len(data["result"]["nodes"]) == 4
    assert len(data["result"]["hasse"]) == 4
    assert all(n["exact"] for n in data["result"]["nodes"])
    assert data["cap"] == [2]
    assert data["certificates"]


# -- CLI process-level behavior -------------------------------------------------------


def test_cli_validate_ok(capsys):
    code, out, err = run_cli(capsys, "validate", "FX5")
    assert code == 0 and json.loads(out)["result"]["ok"] is True


def test_cli_syntax_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.kg"
    bad.write_text("kgraph 1\nvortex v\n")
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 2 and "syntax error" in err


@pytest.mark.parametrize("text, line", NON_DECIMAL_DIGITS)
def test_cli_non_decimal_digit_exit_2(tmp_path, capsys, text, line):
    bad = tmp_path / "digit.kg"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert (code, out) == (2, "") and err.startswith(f"syntax error: line {line}, column 1: ")


def test_cli_unreadable_input_exit_2(tmp_path, capsys):
    not_utf8 = tmp_path / "bom.kg"
    not_utf8.write_bytes(b"\xff\xfe")
    for path in (tmp_path / "nofile.kg", tmp_path, not_utf8):
        code, out, err = run_cli(capsys, "paths", str(path), "--cap", "1", "--vertex", "v")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and f"'{path}'" in err


def test_cli_missing_cap_exit_2(capsys):
    code, out, err = run_cli(capsys, "lattice", "FX4")
    assert code == 2 and "usage error" in err
    # no input at all
    code, out, err = run_cli(capsys, "lattice")
    assert (code, out, err) == (2, "", "usage error: an input file (or FX1..FX6, or '-') is required\n")


_CAP_COMMANDS = ("paths", "fe", "saturation", "sathered", "ehfamily", "satiate", "pairs",
                 "lattice", "boundary", "cofinal", "loops", "report")
_VERTEX_FLAG = {"paths": " --vertex v", "fe": " --vertex v", "boundary": " --vertex v"}


@pytest.mark.parametrize("argv, line", [
    *((f"{c} FX4{_VERTEX_FLAG.get(c, '')}", f"command '{c}' needs --cap") for c in _CAP_COMMANDS),
    # a missing flag is named before a missing cap
    ("paths FX4", "paths needs --vertex"),
    ("paths FX4 --cap 2", "paths needs --vertex"),
    ("fe FX4", "fe needs --vertex"),
    ("fe FX4 --cap 2", "fe needs --vertex"),
    ("boundary FX4", "boundary needs --vertex"),
    ("boundary FX4 --cap 2", "boundary needs --vertex"),
    # the line names every flag the command needs, also those given
    ("mce FX2", "mce needs --mu and --nu"),
    ("mce FX2 --mu b", "mce needs --mu and --nu"),
    ("mce FX2 --nu r", "mce needs --mu and --nu"),
    ("ext FX2", "ext needs --mu and --set"),
    ("ext FX2 --mu b", "ext needs --mu and --set"),
    ("ext FX2 --set b", "ext needs --mu and --set"),
    ("mclosure FX1", "mclosure needs --set"),
])
def test_cli_usage_error_lines(capsys, argv, line):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out, err) == (2, "", f"usage error: {line}\n")


def test_cli_validation_gate_comes_before_the_usage_checks(tmp_path, capsys):
    broken = tmp_path / "broken.kg"
    broken.write_text(textio.FIXTURE_TEXTS["FX2"].replace("square b r ~ r b\n", ""))
    for argv in (("lattice",), ("paths",), ("mce", "--mu", "b")):
        code, out, err = run_cli(capsys, argv[0], str(broken), *argv[1:])
        assert (code, err) == (1, "")
        assert json.loads(out)["result"]["error"] == "graph does not validate"


@pytest.mark.parametrize("argv, pinned", [
    (("lattice", "--cap", "1", "--format", "dot"),
     "cae3501b0e08e437c5e18833dd57c8c2b4464982229f3b7ea891d4e4a9961776"),
    (("skew", "--format", "dot"),
     "7bc01ef2674a26559a0ad61e956d2710b447ee4fb9530772ef338cad2f819ab7"),
])
def test_cli_validation_gate_reports_dot_commands_as_json(tmp_path, capsys, argv, pinned):
    """DOT has no form for the violation report, so a command with a DOT
    form answers a graph that does not validate with the JSON report and
    exit 1, as under --format json; validate itself has no DOT form."""
    import cli_corpus

    broken = tmp_path / "broken.kg"
    broken.write_text(textio.FIXTURE_TEXTS["FX2"].replace("square b r ~ r b\n", ""))
    assert cli_corpus.digest((argv[0], str(broken), *argv[1:])) == pinned
    code, out, err = run_cli(capsys, argv[0], str(broken), *argv[1:])
    assert (code, err) == (1, "")
    assert json.loads(out)["result"]["error"] == "graph does not validate"
    code, out, err = run_cli(capsys, "validate", str(broken), "--format", "dot")
    assert (code, out, err) == (2, "", "usage error: format 'dot' not available for this command\n")


def test_cli_require_exact_exit_3(capsys):
    # {b} at cap (1,1) is unknown-at-cap on FX2, so fe with --require-exact trips
    code, out, err = run_cli(capsys, "fe", "FX2", "--vertex", "v", "--cap", "1", "--require-exact")
    assert code == 3


def test_cli_validation_failure_blocks_computation(tmp_path, capsys):
    broken = tmp_path / "broken.kg"
    broken.write_text(textio.FIXTURE_TEXTS["FX2"].replace("square b r ~ r b\n", ""))
    code, out, err = run_cli(capsys, "lattice", str(broken), "--cap", "1")
    assert code == 1
    assert json.loads(out)["result"]["error"] == "graph does not validate"


def test_cli_determinism_across_commands(capsys):
    runs = [
        ("validate", "FX2"),
        ("paths", "FX4", "--vertex", "v", "--cap", "2"),
        ("mce", "FX2", "--mu", "b", "--nu", "r"),
        ("ext", "FX2", "--mu", "r", "--set", "b"),
        ("fe", "FX3", "--vertex", "v", "--cap", "1"),
        ("saturation", "FX1", "--set", "v", "--cap", "2"),
        ("sathered", "FX4", "--cap", "2"),
        ("quotient", "FX4", "--set", "w"),
        ("ehfamily", "FX4", "--set", "w", "--cap", "2"),
        ("satiate", "FX4", "--set", "w", "--cap", "2"),
        ("pairs", "FX4", "--cap", "2"),
        ("lattice", "FX4", "--cap", "2"),
        ("lattice", "FX4", "--cap", "2", "--format", "dot"),
        ("skew", "FX5", "--radius", "2"),
        ("grading", "FX5"),
        ("mclosure", "FX5", "--set", "e"),
        ("boundary", "FX4", "--vertex", "v", "--cap", "2"),
        ("cofinal", "FX4", "--cap", "2"),
        ("loops", "FX6", "--cap", "2"),
        ("report", "FX6", "--cap", "2", "--assume-condition-c"),
        ("fuzz", "--seed", "7", "--rank", "2"),
    ]
    for argv in runs:
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2
        assert out1 == out2, argv
        assert out1, argv
    # --set names a set: a repeated vertex is reported once, and the output
    # is that of the set given without the repeat
    for argv, once, field, members in [
        (("quotient", "FX4", "--set", "u,u"), ("quotient", "FX4", "--set", "u"), "H", ["u"]),
        (("satiate", "FX4", "--set", "w,u,w", "--cap", "1"), ("satiate", "FX4", "--set", "u,w", "--cap", "1"),
         "H", ["u", "w"]),
        (("saturation", "FX4", "--set", "w,w", "--cap", "1"), ("saturation", "FX4", "--set", "w", "--cap", "1"),
         "input", ["w"]),
    ]:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["result"][field] == members, argv
        assert (code, out) == run_cli(capsys, *once)[:2], argv


# The parser splits on whitespace, so ids may hold a quote, a backslash or
# a non-ASCII letter; JSON escapes all three, and writes é as \u00e9, which
# sorts before "a" in JSON-text order but after it as a Python string.
ESCAPE_TEXT = """kgraph 1
vertex a
vertex b\\s
vertex q"
vertex é
vertex z
edge l"a : 1 a <- a
edge e\\1 : 1 a <- b\\s
edge f" : 1 b\\s <- q"
edge gé : 1 q" <- é
edge h : 1 é <- z
edge lz : 1 z <- z
edge m : 1 é <- é
"""

# DOT ids escape a backslash as \\ and a quote as \"
DOT_ESCAPED_LINES = {
    "lattice": [r'  n2 [label="H={b\\s,q\",z,é} B={} [exact]"];'],
    "skew": [r'  "b\\s@-1";', r'  "q\"@-1";',
             r'  "q\"@0" -> "b\\s@-1" [label="f\"@0 (c1)"];',
             r'  "b\\s@0" -> "a@-1" [label="e\\1@0 (c1)"];'],
}


@pytest.mark.parametrize("argv, pinned", [
    (("paths", "--cap", "2", "--vertex", 'q"'),
     "5ff0cecc781c2f7b5a8af85541f2bf1bb54b489db51ec3b239aeb2b574db0db7"),
    (("lattice", "--cap", "1"),
     "d6da47e5adda38b98497066470b44f576ad7af1fe31e9854d97c4a274d5ba1e4"),
    (("report", "--cap", "1", "--assume-condition-c"),
     "5e2b2b29ab6526c8c5622d517827aec331ced310d8cfc4a00a7991480b291269"),
    (("fe", "--cap", "1", "--vertex", "a"),
     "47166538c02fcd46cfadfff4e04c1c7a2dfe509cbe8048ee0d62024767d16b22"),
    (("lattice", "--cap", "1", "--format", "text"),
     "bcf434b0eb8fcb200e2a8fbe4f2a1d04428b5d3c05a4f19ddebc11803ed5d88a"),
    (("lattice", "--cap", "1", "--format", "dot"),
     "1c73998864c66640f32f6b3ed67242c2ae3514d6c84f8b693a90f1467c16a120"),
    (("skew", "--format", "dot"),
     "10b85ebe5935433b6bb75a9fd18083444334c07cba5617210c5c7f3ea56be79a"),
])
def test_cli_escaped_ids_pinned(tmp_path, capsys, argv, pinned):
    import cli_corpus

    path = tmp_path / "escapes.kg"
    path.write_text(ESCAPE_TEXT, encoding="utf-8")
    assert cli_corpus.digest((argv[0], str(path), *argv[1:])) == pinned
    if "dot" in argv:
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == 0 and set(DOT_ESCAPED_LINES[argv[0]]) <= set(out.splitlines())


def test_render_matches_indent_encoder_oracle_on_the_corpus(monkeypatch):
    """The writer gives the bytes of the encode-then-json.dumps route on
    every payload of the digest corpus, json and text formats."""
    import cli_corpus

    render, seen = cli._render, []

    def both(payload, cfg, certs):
        text = render(payload, cfg, certs)
        assert text == oracles.oracle_render(payload, cfg, certs), (cfg, payload)
        seen.append(cfg.fmt)
        return text

    monkeypatch.setattr(cli, "_render", both)
    cli_corpus.digests()
    # 221 runs, less 12 in DOT and 6 that end in an error
    assert (len(seen), seen.count("text")) == (203, 36)


def test_render_matches_indent_encoder_oracle_on_edge_values(fx):
    g = fx["FX2"]
    b, r, v = g.path(["b"]), g.path(["r"]), g.identity("v")
    payload = {
        "empty": [[], {}, (), set(), frozenset(), [[]], [{}], {"x": {}}, {"x": []}, [set()], ((),)],
        "bools": [True, False, 1, 0, False, 0, True],
        "none": None,
        "ints": [-1, 0, 7, 2 ** 70, -(2 ** 70)],
        "tuples": ((1, "a"), (b, (r, v))),
        "minpairs": [MinPair(b, r), MinPair(v, r)],
        "certs": [
            true_certified(), true_certified((b, r)), false_certified(b),
            false_certified(("S2", frozenset({b, r}), (), frozenset({v}))),
            unknown_at_cap((1, 2)), unknown_at_cap((3,), witness=("budget", 4)),
            true_certified({"v": (b, r), "w": None}),
        ],
        "str_set": frozenset({"a", "é", 'q"', "b\\s", "\x00", "\n", "", "Z"}),
        "path_set": frozenset({b, r, v}),
        "control": "tab\tnl\ncr\r\x00\x1f\x7f\u2028 é \U0001f600 \ud800 \\ \"",
        "é": 1, "a": 2, 'q"': 3,
    }
    certs = [("first", true_certified()), ("é \"q\"", false_certified((b, frozenset({r})))),
             ("third", unknown_at_cap((2,), witness=("x",)))]
    for cfg in (RunConfig(command="x", cap=(2,)), RunConfig(command="y", fmt="text"),
                RunConfig(command="z", cap=(1, 0))):
        for p, c in ((payload, certs), ({}, []), ({"only": []}, certs[:1])):
            assert cli._render(p, cfg, c) == oracles.oracle_render(p, cfg, c)
    for bad in ({(1, 2): "tuple key"}, {1: "a", "b": 2}, {b: "path key"}):
        for render in (cli._render, oracles.oracle_render):
            with pytest.raises(TypeError):
                render({"bad": bad}, RunConfig(command="x"), [])


def test_render_refuses_values_no_command_emits(fx):
    """The writer renders only what handlers return; floats, sets of
    anything but paths and strings, keys that are not str and other
    objects raise TypeError."""
    g = fx["FX2"]
    b = g.path(["b"])
    refused = [
        1.5, -0.0, 1e300, float("nan"), float("inf"), float("-inf"), [0, 2.5],
        {(1, "a"), (0, "b"), ("a",), ("a", "b"), ()},
        {9, 10, -1},
        frozenset({true_certified(), unknown_at_cap((1,)), false_certified("w")}),
        frozenset({b, 1}),
        {3: "a", 10: "b", -1: "c"}, {2.5: "d"}, {True: "t", False: "f"}, {None: "n"},
        {float("inf"): 1, -0.5: 2},
        Certainty.TRUE_CERTIFIED,
        true_certified(1.5),
    ]
    for value in refused:
        for cfg in (RunConfig(command="x"), RunConfig(command="y", fmt="text")):
            with pytest.raises(TypeError):
                cli._render({"bad": value}, cfg, [])


def test_render_leaves_no_cyclic_garbage():
    doc = parse_kgraph_text(textio.FIXTURE_TEXTS["FX4"])
    for fmt in ("json", "text"):
        cfg, certs = RunConfig(command="lattice", cap=(2,), fmt=fmt), []
        payload = cli._cmd_lattice(doc.graph, (2,), cfg, certs)
        gc.collect()
        gc.disable()
        try:
            cli._render(payload, cfg, certs)
            assert gc.collect() == 0, fmt
        finally:
            gc.enable()


def _cyclic_free_queries():
    """(label, text, config, locally convex) of lattice and report on the
    fixtures at caps 1-3 and on random 1- and 2-graphs of seeds 0-99 at
    cap 1 (the fuzz-sweep inputs), locally convex or not, and of ehfamily
    and satiate with a nonempty H."""
    graphs = [(name, text, c) for name, text in sorted(textio.FIXTURE_TEXTS.items()) for c in (1, 2, 3)]
    graphs += [(f"{make.__name__}({seed})", emit_kgraph_text(make(seed)), 1)
               for make in (random_1graph, random_2graph) for seed in range(100)]
    for label, text, c in graphs:
        g = parse_kgraph_text(text).graph
        cap, convex = (c,) * g.k, is_locally_convex(g)
        for command in ("lattice", "report"):
            cfg = RunConfig(command=command, cap=cap, assumed_condition_C=command == "report")
            yield f"{label} {cap}", text, cfg, convex
    for label, text, cap, H in [("FX4", textio.FIXTURE_TEXTS["FX4"], (2,), "w"),
                                ("random_2graph(41)", emit_kgraph_text(random_2graph(41)), (1, 1), "v1")]:
        for command in ("ehfamily", "satiate"):
            yield f"{label} {cap} --set {H}", text, RunConfig(command=command, cap=cap, setarg=H), False


def test_query_leaves_no_cyclic_garbage():
    """No memo entry of a graph holds the graph, and a quotient holds no
    link to its parent, so a query's tables are freed by reference
    counting alone: after a run on a freshly parsed graph, with the
    cyclic collector off, a collection finds nothing.  This holds for
    lattice and report on every graph, which build no quotient, and for
    a stripped family of a nonempty H, which builds one; the family of
    H = {} still holds its graph.  The objects made before the queries
    are frozen, so that each collection scans only what the queries
    made."""
    queries = list(_cyclic_free_queries())
    seen = Counter()
    gc.collect()
    gc.freeze()
    try:
        for label, text, cfg, convex in queries:
            gc.disable()
            try:
                run_with_status(parse_kgraph_text(text), cfg)
                assert gc.collect() == 0, (label, cfg.command)
            finally:
                gc.enable()
            seen[convex] += 1
    finally:
        gc.unfreeze()
    assert seen[True] > 400 and seen[False] > 30, seen


def test_cli_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(textio.FIXTURE_TEXTS["FX5"]))
    code, out, err = run_cli(capsys, "validate", "-")
    assert code == 0 and json.loads(out)["result"]["ok"] is True


# -- DOT --------------------------------------------------------------------------


def test_dot_lattice_diamond(fx):
    lat = ideal_lattice(fx["FX4"], (2,))
    dot = emit_dot_lattice(lat)
    assert dot.count("->") == 4 and dot.startswith("digraph ideal_lattice")


def test_dot_skeleton(fx):
    dot = emit_dot_graph(fx["FX1"])
    assert '"v" -> "v"' in dot  # the loop
    assert '"v" -> "u"' in dot


def test_dot_empty_graph():
    doc = parse_kgraph_text("kgraph 1\n")
    dot = emit_dot_graph(doc.graph)
    assert dot == "digraph skeleton {\n}\n"


def test_cli_cap_wrong_rank_exit_2(capsys):
    code, out, err = run_cli(capsys, "lattice", "FX2", "--cap", "2,2,2")
    assert code == 2 and "error" in err


def test_emission_is_canonical_under_input_reordering():
    text = textio.FIXTURE_TEXTS["FX4"]
    lines = text.strip().splitlines()
    # edges permuted, header kept first
    shuffled = "\n".join([lines[0]] + list(reversed(lines[1:]))) + "\n"
    a = parse_kgraph_text(text).graph
    b = parse_kgraph_text(shuffled).graph
    assert a == b
    assert emit_kgraph_text(a) == emit_kgraph_text(b)


def test_parser_locations_point_at_lines():
    doc = parse_kgraph_text(textio.FIXTURE_TEXTS["FX2"])
    assert doc.locations["v"] == 2
    assert doc.locations["b"] == 3
    assert doc.locations["r"] == 4


def test_text_format_renderer(capsys):
    code, out, err = run_cli(capsys, "cofinal", "FX4", "--cap", "2", "--format", "text")
    assert code == 0
    assert out.startswith("# kgraphlat")
    assert "cert cofinal: false_certified" in out


def test_module_entry_point():
    import subprocess, sys

    proc = subprocess.run(
        [sys.executable, "-m", "kgraphlat.cli", "validate", "FX5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and '"ok": true' in proc.stdout


def test_cli_output_matches_committed_digests():
    """Every byte of the corpus output (criterion 9 plus the family
    commands at cap 2) is pinned across versions, not only across runs."""
    import cli_corpus

    with open(cli_corpus.DIGESTS, encoding="utf-8") as fh:
        pinned = json.load(fh)
    got = cli_corpus.digests()
    assert len(got) == len(cli_corpus.corpus()) + len(cli_corpus.random_corpus())
    changed = sorted(k for k in pinned.keys() | got.keys() if pinned.get(k) != got.get(k))
    assert not changed, changed


def test_caps_beyond_the_fe_limit_answer_criterion_1_chain(capsys):
    """FX2 at (4,4) and FX6 at (4,) have more members at v than the fe
    enumeration allows, but their pairs H = {} and H = {v} need no
    candidate of the graph: they answer with criterion 1's exact chain."""
    import cli_corpus

    chain = [{"H": [], "B": [], "exact": True}, {"H": ["v"], "B": [], "exact": True}]
    for argv in cli_corpus.ONE_VERTEX_BEYOND_FE_LIMIT:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        result = json.loads(out)["result"]
        if argv[0] == "report":
            assert result["lattice_size"] == 2
            continue
        assert result.get("nodes", result.get("pairs")) == chain, argv
        if argv[0] == "lattice":
            assert result["hasse"] == [[0, 1]] and result["is_lattice"]


def test_boundary_beyond_the_fe_limit_answers(capsys):
    """boundary consults no candidate table, so FX6 at (4,) and FX2 at
    (4,4), over the fe limit at v, list every capped path from v."""
    for argv, count in ((("boundary", "FX6", "--vertex", "v", "--cap", "4"), 31),
                        (("boundary", "FX2", "--vertex", "v", "--cap", "4,4"), 25)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        prefixes = json.loads(out)["result"]["prefixes"]
        assert len(prefixes) == count, argv
        assert all(p["status"] == "extensible" for p in prefixes), argv


def test_proper_H_over_the_fe_limit_answers_as_at_cap_2(capsys):
    """FX4 is locally convex, so its lattice is indexed by H alone and
    builds no stripped family: at cap 18, where its universe at v is over
    the fe limit, it answers with the four exact pairs and the Hasse
    diagram it has at cap 2."""
    import cli_corpus

    for argv in cli_corpus.PROPER_H_BEYOND_FE_LIMIT:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        low = run_cli(capsys, *argv[:3], "2", *argv[4:])
        assert low[0] == 0
        result, expected = json.loads(out)["result"], json.loads(low[1])["result"]
        assert result == expected, argv
        if argv[0] == "lattice":
            assert [node["H"] for node in result["nodes"]] == [[], ["u"], ["w"], ["u", "v", "w"]]
            assert all(node["exact"] and node["B"] == [] for node in result["nodes"])
            assert result["hasse"] == [[0, 1], [0, 2], [1, 3], [2, 3]]


def test_proper_H_over_the_fe_limit_still_refused(capsys):
    """The family commands still enumerate candidates: FX4's stripped
    family of H = {u} strips candidates of the graph at v, whose universe
    at cap 18 is over the limit."""
    code, out, err = run_cli(capsys, "ehfamily", "FX4", "--cap", "18", "--set", "u")
    assert code == 2 and out == ""
    assert "fe enumeration at 'v' needs 2^19 subsets, over the limit of 2^18" in err
