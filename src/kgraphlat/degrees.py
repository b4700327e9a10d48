"""Degree vectors: elements of N^k with coordinatewise lattice operations."""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Tuple

Degree = Tuple[int, ...]


def check(d: Iterable[int], k: int) -> Degree:
    """Validate and freeze a degree vector of rank k."""
    t = tuple(int(x) for x in d)
    if len(t) != k:
        raise ValueError(f"degree {t} has length {len(t)}, expected rank {k}")
    if any(x < 0 for x in t):
        raise ValueError(f"degree {t} has a negative coordinate")
    return t


def zero(k: int) -> Degree:
    return (0,) * k


def unit(k: int, color: int) -> Degree:
    """Basis vector for a color in 1..k."""
    if not 1 <= color <= k:
        raise ValueError(f"color {color} out of range 1..{k}")
    return tuple(1 if i == color - 1 else 0 for i in range(k))


def add(a: Degree, b: Degree) -> Degree:
    return tuple(x + y for x, y in zip(a, b))


def sub(a: Degree, b: Degree) -> Degree:
    d = tuple(x - y for x, y in zip(a, b))
    if any(x < 0 for x in d):
        raise ValueError(f"degree subtraction {a} - {b} leaves N^k")
    return d


def join(a: Degree, b: Degree) -> Degree:
    return tuple(max(x, y) for x, y in zip(a, b))


def meet(a: Degree, b: Degree) -> Degree:
    return tuple(min(x, y) for x, y in zip(a, b))


def leq(a: Degree, b: Degree) -> bool:
    return all(x <= y for x, y in zip(a, b))


def below(cap: Degree) -> Iterator[Degree]:
    """All degree vectors n <= cap, in sorted (total, lexicographic) order."""
    all_n = [tuple(n) for n in product(*(range(c + 1) for c in cap))]
    all_n.sort(key=lambda n: (sum(n), n))
    return iter(all_n)


def fmt(d: Degree) -> str:
    return ",".join(str(x) for x in d)


def parse(text: str, k: int) -> Degree:
    """Parse '2,2' or a single broadcast integer like '2'."""
    parts = [p.strip() for p in text.split(",") if p.strip() != ""]
    if not parts:
        raise ValueError(f"empty degree literal {text!r}")
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"bad degree literal {text!r}") from None
    if len(nums) == 1 and k > 1:
        nums = nums * k
    return check(nums, k)
