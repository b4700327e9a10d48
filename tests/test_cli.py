import io
import json
import sys

import pytest

from kgraphlat import textio
from kgraphlat.cli import RunConfig, emit_dot, main, run_with_status
from kgraphlat.ideals import ideal_lattice
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


def test_parse_reports_position():
    with pytest.raises(KGraphSyntaxError) as exc:
        parse_kgraph_text("kgraph 1\nvortex v\n")
    assert exc.value.line == 2


def test_parse_unknown_square_edge():
    text = "kgraph 2\nvertex v\nedge b : 1 v <- v\nsquare b q ~ q b\n"
    with pytest.raises(KGraphSyntaxError) as exc:
        parse_kgraph_text(text)
    assert "'q'" in str(exc.value)


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


def test_cli_missing_cap_exit_2(capsys):
    code, out, err = run_cli(capsys, "lattice", "FX4")
    assert code == 2 and "usage error" in err


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


def test_cli_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(textio.FIXTURE_TEXTS["FX5"]))
    code, out, err = run_cli(capsys, "validate", "-")
    assert code == 0 and json.loads(out)["result"]["ok"] is True


# -- DOT --------------------------------------------------------------------------


def test_dot_lattice_diamond(fx):
    lat = ideal_lattice(fx["FX4"], (2,))
    dot = emit_dot(lat)
    assert dot.count("->") == 4 and dot.startswith("digraph ideal_lattice")


def test_dot_skeleton(fx):
    dot = emit_dot(fx["FX1"])
    assert '"v" -> "v"' in dot  # the loop
    assert '"v" -> "u"' in dot


def test_dot_empty_graph():
    doc = parse_kgraph_text("kgraph 1\n")
    dot = emit_dot(doc.graph)
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
