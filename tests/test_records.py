"""The package's records (subclasses of kgraphlat.record.Record) keep the
semantics of the dataclasses they replaced: the same fields in the same
order, equality with records of the same class only, the hash of the
field tuple for the frozen ones and none for the mutable ones, the
dataclass repr, _replace, the constructor checks and fresh default
containers.  Importing the package loads no dataclasses module."""

import itertools
import os
import subprocess
import sys
import weakref

import pytest

from kgraphlat import align, ideals, structure, textio
from kgraphlat.align import FEFamily, VertexUniverse
from kgraphlat.certify import Certainty, CertifiedBool, false_certified, true_certified, unknown_at_cap
from kgraphlat.cli import RunConfig
from kgraphlat.ideals import IdealLattice, IdealPair, SatiatedFamily, VertexSet, _ScanResult
from kgraphlat.kgraph import Edge, Skeleton, SquareRule, ValidationReport
from kgraphlat.structure import BoundaryPrefix, Grading, LiftedSet, SkewWindow, StructureReport
from kgraphlat.textio import KGraphDocument

# every record's fields in constructor order, as the dataclasses had them
FIELDS = {
    Edge: ("eid", "color", "r", "s"),
    Skeleton: ("k", "vertices", "edges"),
    SquareRule: ("lhs", "rhs"),
    ValidationReport: ("ok", "violations"),
    CertifiedBool: ("value", "witness", "cap"),
    RunConfig: ("command", "cap", "fmt", "require_exact", "assumed_condition_C", "seed",
                "vertex", "mu", "nu", "setarg", "radius", "rank"),
    VertexUniverse: ("vertex", "cap", "paths", "members", "index", "member_index", "captured",
                     "compat", "escapes", "prefix", "suffix", "_cont", "_comp"),
    FEFamily: ("graph", "cap", "by_vertex"),
    VertexSet: ("members", "hereditary", "saturated"),
    SatiatedFamily: ("base", "cap", "refuted_parents", "quotient_refuted", "tainted", "_checked", "_known_bad"),
    _ScanResult: ("violations", "taints", "overflow", "budget_hit", "s4_missing"),
    IdealPair: ("graph_key", "cap", "H", "h_saturated"),
    IdealLattice: ("pairs", "leq", "hasse", "meets", "joins", "is_lattice", "failures", "cap"),
    Grading: ("b",),
    SkewWindow: ("base", "lo", "hi", "graph", "grading"),
    LiftedSet: ("paths", "range_vertex", "exhaustive"),
    BoundaryPrefix: ("path", "status", "depth"),
    StructureReport: ("cofinal", "loops", "all_vertices_reach_loop_with_entrance", "lattice_size",
                      "assumed_condition_C", "verdicts"),
    KGraphDocument: ("text", "graph", "report", "locations"),
}
# the fields that take no part in equality, hash and repr
HIDDEN = {
    VertexUniverse: ("_cont", "_comp"),
    FEFamily: ("graph",),
    SatiatedFamily: ("_checked", "_known_bad"),
}
FROZEN = (Edge, Skeleton, SquareRule, ValidationReport, CertifiedBool, VertexSet, IdealPair, Grading, BoundaryPrefix)


def _compared(x):
    return tuple(getattr(x, f) for f in FIELDS[type(x)] if f not in HIDDEN.get(type(x), ()))


@pytest.fixture(scope="module")
def samples():
    """Instances of every record class, from the computations that make them."""
    doc = textio.parse_kgraph_text(textio.FIXTURE_TEXTS["FX2"])
    g4 = textio.fixture("FX4")
    g3 = textio.fixture("FX3")
    sw = structure.skew_product_window(g3, (-1, -1), (1, 1))
    pairs = ideals.enumerate_ideal_pairs(g4, (2,))
    out = [doc, doc.report, doc.graph.skeleton, *doc.graph.skeleton.edges, *doc.graph.squares,
           true_certified(), true_certified("w"), false_certified(("w", 1)), unknown_at_cap((1,)),
           RunConfig(command="lattice"), RunConfig("paths", (1,), "text", vertex="v"),
           *ideals.enumerate_sat_hered(g4, (2,)), *pairs, ideals.ideal_lattice(g4, (2,)),
           *(align.universe(g4, v, (2,)) for v in g4.vertices), *(align.fe_sets(g4, v, (2,)) for v in g4.vertices),
           *(ideals.restricted_fe_family(g4, p.H, (2,)) for p in pairs), ideals._ScanResult(), ideals._ScanResult(taints=["S3"]),
           sw, sw.grading, structure.skew_fe_lift(sw, [g3.path(["b"]), g3.path(["c"])], (0, 0), (1, 1)),
           *structure.boundary_prefixes(g4, "v", (1,)), structure.structure_report(g4, (1,), False)]
    assert {type(x) for x in out} == set(FIELDS)
    return out


def test_fields_are_the_dataclass_fields(samples):
    for cls, fields in FIELDS.items():
        assert cls._fields == fields, cls
    for x in samples:
        copy = type(x)(**{f: getattr(x, f) for f in FIELDS[type(x)]})
        assert copy == x and x._replace() == x, x


def test_frozen_records_hash_as_their_field_tuple(samples):
    frozen = [x for x in samples if isinstance(x, FROZEN)]
    assert {type(x) for x in frozen} == set(FROZEN)
    for x in frozen:
        copy = x._replace()
        assert copy is not x and copy == x and not copy != x
        assert hash(copy) == hash(x) == hash(_compared(x)), x
    assert len(set(frozen)) == len(frozen)
    fam = next(x for x in samples if isinstance(x, FEFamily))
    assert fam._replace(graph=None) == fam  # hidden fields are not compared


def test_mutable_records_are_unhashable(samples):
    for x in samples:
        if not isinstance(x, FROZEN):
            assert type(x).__hash__ is None
            with pytest.raises(TypeError, match="unhashable"):
                hash(x)


def test_records_equal_no_other_class_nor_a_tuple(samples):
    for a, b in itertools.product(samples, repeat=2):
        if type(a) is not type(b):
            assert not a == b and a != b, (a, b)
    for x in samples:
        for t in (_compared(x), tuple(getattr(x, f) for f in FIELDS[type(x)])):
            assert not x == t and x != t and not t == x, x


def test_repr_lists_the_compared_fields(samples):
    assert repr(Edge("e", 1, "v", "w")) == "Edge(eid='e', color=1, r='v', s='w')"
    assert repr(Grading((("v", (0,)),))) == "Grading(b=(('v', (0,)),))"
    fam = next(x for x in samples if isinstance(x, FEFamily))
    assert repr(fam) == f"FEFamily(cap={fam.cap!r}, by_vertex={fam.by_vertex!r})"
    assert repr(unknown_at_cap((1,))) == "CertifiedBool(unknown_at_cap, cap=(1,))"  # its own repr


def test_certified_bool_checks():
    with pytest.raises(ValueError, match="FalseCertified requires a witness"):
        CertifiedBool(Certainty.FALSE_CERTIFIED)
    with pytest.raises(ValueError, match="UnknownAtCap requires the cap used"):
        CertifiedBool(Certainty.UNKNOWN_AT_CAP, witness="w")
    for cert in (true_certified(), false_certified("w"), unknown_at_cap((1,))):
        with pytest.raises(TypeError, match="three-valued"):
            bool(cert)


def test_defaults_are_fresh_containers():
    g = textio.fixture("FX2")
    for make in (lambda: _ScanResult(), lambda: FEFamily(g, (1, 1)), lambda: SatiatedFamily(FEFamily(g, (1, 1)), (1, 1)),
                 lambda: KGraphDocument("", g, ValidationReport(True, ()))):
        a, b = make(), make()
        for f in a._fields:
            if isinstance(getattr(a, f), (list, set, dict)):
                assert getattr(a, f) == getattr(b, f) and getattr(a, f) is not getattr(b, f), f


def test_run_config_replace_keeps_every_other_field():
    cfg = RunConfig(command="lattice")
    got = cfg._replace(fmt="dot")
    assert (got.fmt, cfg.fmt) == ("dot", "json")
    assert all(getattr(got, f) == getattr(cfg, f) for f in RunConfig._fields if f != "fmt")
    assert got == RunConfig("lattice", None, "dot", False, False, 0, None, None, None, None, 1, 1)
    with pytest.raises(TypeError):
        cfg._replace(format="dot")


def test_universe_takes_weak_references(samples):
    uni = next(x for x in samples if isinstance(x, VertexUniverse))
    assert weakref.ref(uni)() is uni


def test_import_loads_no_dataclasses():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    run = subprocess.run(
        [sys.executable, "-c", "import sys, kgraphlat.cli; print(sorted(m for m in sys.modules if 'dataclasses' in m))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert run.stdout == "[]\n"
