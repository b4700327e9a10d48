import pytest
from hypothesis import given, strategies as st

from kgraphlat import degrees

vecs = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))


@given(vecs, vecs)
def test_join_meet_are_lattice_ops(a, b):
    assert degrees.join(a, b) == degrees.join(b, a)
    assert degrees.meet(a, b) == degrees.meet(b, a)
    assert degrees.join(a, a) == a
    assert degrees.meet(a, a) == a
    assert degrees.leq(degrees.meet(a, b), a)
    assert degrees.leq(a, degrees.join(a, b))


@given(vecs, vecs, vecs)
def test_join_meet_associative(a, b, c):
    assert degrees.join(a, degrees.join(b, c)) == degrees.join(degrees.join(a, b), c)
    assert degrees.meet(a, degrees.meet(b, c)) == degrees.meet(degrees.meet(a, b), c)


def test_below_enumerates_box_in_canonical_order():
    out = list(degrees.below((1, 2)))
    assert out[0] == (0, 0)
    assert len(out) == 6
    assert out == sorted(out, key=lambda n: (sum(n), n))


def test_sub_leaves_monoid():
    with pytest.raises(ValueError):
        degrees.sub((1, 0), (0, 1))
    with pytest.raises(ValueError, match=r"color 2 out of range 1\.\.1"):
        degrees.unit(1, 2)


@pytest.mark.parametrize("a, b", [((0,), (1,)), ((2, 1, 0), (1, 1, 1)), ((0, 3), (1, 0))])
def test_sub_raises_on_a_negative_result(a, b):
    """sub keeps its check for public callers: the path arithmetic that
    subtracts a degree it knows to be smaller does so without it."""
    with pytest.raises(ValueError, match="leaves N"):
        degrees.sub(a, b)


def test_parse_broadcast_and_explicit():
    assert degrees.parse("2", 3) == (2, 2, 2)
    assert degrees.parse("2,1", 2) == (2, 1)
    with pytest.raises(ValueError):
        degrees.parse("2,1", 3)
    with pytest.raises(ValueError):
        degrees.parse("x", 1)
    with pytest.raises(ValueError, match="empty degree literal ','"):
        degrees.parse(",", 1)
