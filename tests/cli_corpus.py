"""The CLI invocation corpus that pins kgraphlat's output across versions.

``criterion_9_invocations`` is the determinism corpus of acceptance
criterion 9; ``corpus`` adds the family commands at cap 2.  The SHA-256
of (exit code, stdout) of every invocation is committed in
``data/cli_digests.json``.  After an intended output change, regenerate
it with

    PYTHONPATH=src python tests/cli_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from typing import Dict, List, Tuple

from kgraphlat import textio
from kgraphlat.cli import main as cli_main

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


def corpus() -> List[Tuple[str, ...]]:
    out = []
    for name in sorted(textio.FIXTURE_TEXTS):
        g = textio.fixture(name)
        out += criterion_9_invocations(name, g)
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
    return out


def digest(argv: Tuple[str, ...]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(list(argv))
    return hashlib.sha256(json.dumps([code, buf.getvalue()]).encode("utf-8")).hexdigest()


def digests() -> Dict[str, str]:
    return {" ".join(repr(a) if a == "" else a for a in argv): digest(argv) for argv in corpus()}


if __name__ == "__main__":
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
