"""The CLI invocation corpus that pins kgraphlat's output across versions.

``criterion_9_invocations`` is the determinism corpus of acceptance
criterion 9; ``corpus`` adds the family commands at cap 2, ``--format
text`` copies of the criterion 9 commands named in ``TEXT_COMMANDS``, and
the lattices of FX2, FX6 and FX4 at caps whose candidates at g exceed the
fe enumeration limit (``BEYOND_FE_LIMIT``).
``random_corpus`` runs the family commands at cap (1,1) on the seeded
random 2-graphs whose stripped family reacts to missing extension-rule
derivatives, which no fixture does.  The SHA-256 of (exit code, stdout)
of every invocation is committed in ``data/cli_digests.json``.  After an
intended output change, regenerate it with

    PYTHONPATH=src python tests/cli_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from typing import Dict, List, Optional, Tuple

from kgraphlat import textio
from kgraphlat.cli import RunConfig, run_with_status
from kgraphlat.cli import main as cli_main
from kgraphlat.randomgraphs import random_2graph

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_digests.json")


def criterion_9_invocations(name: str, g) -> List[Tuple[str, ...]]:
    v0 = g.vertices[0]
    e0 = g.edges[0].eid if g.edges else None
    base = [
        ("validate", name),
        ("paths", name, "--vertex", v0, "--cap", "2"),
        ("sathered", name, "--cap", "2"),
        ("quotient", name, "--set", ""),
        ("pairs", name, "--cap", "1"),
        ("lattice", name, "--cap", "1"),
        ("lattice", name, "--cap", "1", "--format", "dot"),
        ("skew", name, "--radius", "1"),
        ("skew", name, "--radius", "1", "--format", "dot"),
        ("grading", name),
        ("boundary", name, "--vertex", v0, "--cap", "1"),
        ("cofinal", name, "--cap", "2"),
        ("loops", name, "--cap", "2"),
        ("report", name, "--cap", "1", "--assume-condition-c"),
        ("fe", name, "--vertex", v0, "--cap", "1"),
        ("saturation", name, "--set", v0, "--cap", "1"),
        ("ehfamily", name, "--set", "", "--cap", "1"),
        ("satiate", name, "--set", "", "--cap", "1"),
    ]
    if e0:
        base += [
            ("mce", name, "--mu", e0, "--nu", e0),
            ("ext", name, "--mu", v0, "--set", e0),
            ("mclosure", name, "--set", e0),
        ]
    return base


# Queries on one-vertex graphs whose universe at v has more members than
# the fe enumeration allows; their H are {} and {v}, and neither needs a
# candidate of g, so they answer.
ONE_VERTEX_BEYOND_FE_LIMIT = (
    ("lattice", "FX2", "--cap", "4,4"),
    ("pairs", "FX2", "--cap", "4,4"),
    ("lattice", "FX6", "--cap", "4"),
    ("report", "FX6", "--cap", "4", "--assume-condition-c"),
)
# FX4 at a cap where its universe at v is over the limit.  FX4 is locally
# convex, so its proper H need no candidate either: its pairs are indexed
# by H alone.
PROPER_H_BEYOND_FE_LIMIT = (
    ("lattice", "FX4", "--cap", "18"),
    ("pairs", "FX4", "--cap", "18"),
    ("report", "FX4", "--cap", "18", "--assume-condition-c"),
)
BEYOND_FE_LIMIT = ONE_VERTEX_BEYOND_FE_LIMIT + PROPER_H_BEYOND_FE_LIMIT

# criterion 9 commands whose plain-text rendering is pinned as well: the
# certificate lines and the nested results of the family commands
TEXT_COMMANDS = ("report", "loops", "sathered", "satiate", "ehfamily", "fe")


def corpus() -> List[Tuple[str, ...]]:
    out = []
    for name in sorted(textio.FIXTURE_TEXTS):
        g = textio.fixture(name)
        base = criterion_9_invocations(name, g)
        out += base
        out += [(*argv, "--format", "text") for argv in base if argv[0] in TEXT_COMMANDS]
        out += [
            ("fe", name, "--vertex", g.vertices[0], "--cap", "2"),
            ("ehfamily", name, "--set", "", "--cap", "2"),
            ("satiate", name, "--set", "", "--cap", "2"),
            ("pairs", name, "--cap", "2"),
        ]
    out += [
        ("ehfamily", "FX4", "--set", "w", "--cap", "2"),
        ("satiate", "FX4", "--set", "w", "--cap", "2"),
    ]
    return out + list(BEYOND_FE_LIMIT)


# random_2graph seeds whose stripped family at cap (1,1) meets (S2)
# derivatives that are missing from it
REACTING_SEEDS = (3, 5, 35, 41, 58, 72, 87, 91)


def random_corpus() -> List[Tuple[int, str, Optional[str]]]:
    """(seed, command, --set argument) at cap (1,1)."""
    out = []
    for seed in REACTING_SEEDS:
        out += [(seed, "ehfamily", ""), (seed, "satiate", ""), (seed, "pairs", None)]
        if seed in (41, 72):
            out.append((seed, "ehfamily", "v1"))
    return out


def _sha(code: int, stdout: str) -> str:
    return hashlib.sha256(json.dumps([code, stdout]).encode("utf-8")).hexdigest()


def digest(argv: Tuple[str, ...]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(list(argv))
    return _sha(code, buf.getvalue())


def random_digest(seed: int, command: str, setarg: Optional[str]) -> str:
    """The digest the CLI would give on the emitted text of random_2graph(seed)."""
    doc = textio.parse_kgraph_text(textio.emit_kgraph_text(random_2graph(seed)))
    text, code = run_with_status(doc, RunConfig(command=command, cap=(1, 1), setarg=setarg))
    return _sha(code, text)


def _label(args) -> str:
    return " ".join(repr(a) if a == "" else str(a) for a in args if a is not None)


def digests() -> Dict[str, str]:
    out = {_label(argv): digest(argv) for argv in corpus()}
    for seed, command, setarg in random_corpus():
        flags = ("--set", setarg) if setarg is not None else ()
        out[_label((command, f"random_2graph({seed})", *flags, "--cap", "1,1"))] = random_digest(seed, command, setarg)
    return out


if __name__ == "__main__":
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
