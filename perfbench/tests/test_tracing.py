"""Checks of the benchmark's own tracing.

    python3 -m pytest perfbench/tests

The per-layer counters are the benchmark's noise-free gate, so they must
repeat exactly on one seed, and a layer function must not be reachable
through any binding the tracer missed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [os.path.join(ROOT, "perfbench"), SRC, os.path.join(ROOT, "tests")]

import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_LATTICE = (("FX6", (1, 2)), ("FX4", (3,)), ("FX2", (1, 2)))
SMALL = {
    "lattice-deep": lambda lib, seed: workloads.lattice_inputs(lib, seed, SMALL_LATTICE),
    "fuzz-sweep": lambda lib, seed: workloads.fuzz_inputs(lib, seed, count=15),
    "path-algebra": lambda lib, seed: workloads.path_inputs(lib, seed, fx2_radius=3, fx6_radius=1),
}


@pytest.fixture(scope="module")
def traced():
    lib = run.import_library(SRC)
    import oracles

    tracer = run.install_tracer()
    with open(run.REFERENCE, encoding="utf-8") as fh:
        pins = json.load(fh)
    return lib, tracer, pins, oracles


def counters(metrics):
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def test_every_binding_is_wrapped(traced):
    lib, tracer, _, _ = traced
    originals = {id(fn) for fn in tracer.wrapped.values()}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("kgraphlat"):
            continue
        for attr, obj in vars(mod).items():
            assert id(obj) not in originals, f"{name}.{attr} escaped the tracer"
            if isinstance(obj, type):
                for cattr, cobj in vars(obj).items():
                    assert id(cobj) not in originals, f"{name}.{attr}.{cattr} escaped the tracer"
    bound = set(tracer.bindings)
    for site in [("kgraphlat.ideals", "fe_sets"), ("kgraphlat.ideals", "ext"),
                 ("kgraphlat.ideals", "is_exhaustive"), ("kgraphlat.structure", "enumerate_ideal_pairs"),
                 ("kgraphlat.textio", "validate_kgraph"), ("kgraphlat.kgraph.KGraph", "split"),
                 ("kgraphlat.kgraph.KGraph", "prefix"), ("kgraphlat.align.VertexUniverse", "classify")]:
        assert site in bound, site
    for layer in tracing.LAYERS:
        assert any(qual.startswith(layer + ".") for qual in tracer.wrapped), layer


def test_method_calls_through_instances_are_counted(traced):
    lib, tracer, _, _ = traced
    g = lib.textio.fixture("FX2")
    p = g.path(["b", "r", "b"])
    tracer.reset()
    tracer.on = True
    try:
        g.prefix(p, (1, 0))
    finally:
        tracer.on = False
    assert tracer.calls["kgraph.KGraph.prefix"] == 1
    assert tracer.calls["kgraph.KGraph.split"] == 1
    assert tracer.self_time["kgraph"] > 0


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_counters_repeat_on_one_seed(traced, workload):
    lib, tracer, pins, oracles = traced
    make_queries = workloads.WORKLOADS[workload][1]
    inputs = SMALL[workload](lib, 7)
    speed = probe.Probe()
    speed.start()
    seen = []
    try:
        for _ in range(2):
            tracer.reset()
            wall, records = run.run_pass(lib, make_queries, inputs, pins, oracles, tracer, speed)
            assert all(r.problem is None for r in records), [(r.qid, r.problem) for r in records if r.problem]
            seen.append(counters(run.layer_metrics(tracer)))
    finally:
        speed.stop()
    assert seen[0] == seen[1]
    assert any(seen[0].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counters_repeat_across_processes(workload):
    """Two traced runs of the real command (string hashing fixed by run.py).

    lattice-deep includes FX6 at cap 3, the query whose counts an alarm
    would make depend on host speed; traced runs set none."""
    out = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        out.append(counters({k: v["value"] for k, v in result["metrics"].items()}))
    assert out[0] == out[1]
    assert out[0]["kgraph.split_calls"] > 0
