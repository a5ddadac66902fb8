"""Weighted circular graphs classifying smooth complete toric surfaces.

A surface corresponds to a circular weight sequence (a_1, ..., a_s) where
a_i is the self-intersection of the i-th invariant curve, equivalently the
unique integer with  v_{i-1} + v_{i+1} + a_i * v_i = 0  for the fan rays in
circular order.  Equivariant blowup inserts a weight -1 vertex and
decrements its two neighbours, dropping the weight sum by 3; the sum is
always 12 - 3s.  A graph's canonical form is the least of its rotations and
reflections, found among those that start at one of its least weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .fan import Fan, make_fan


@dataclass(frozen=True)
class WeightedCircularGraph:
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.weights, tuple):
            raise ValueError(f"graph weights {self.weights!r} are not a tuple")
        if len(self.weights) < 3:
            raise ValueError("a weighted circular graph needs at least 3 vertices")
        for w in self.weights:
            if type(w) is not int:
                raise TypeError(f"non-integer weight {w!r}")

    @property
    def s(self) -> int:
        return len(self.weights)


def cp2() -> WeightedCircularGraph:
    return WeightedCircularGraph((1, 1, 1))


def hirzebruch(a: int) -> WeightedCircularGraph:
    if type(a) is not int:
        raise ValueError(f"hirzebruch parameter {a!r} is not an integer")
    if a < 0:
        raise ValueError("hirzebruch parameter must be nonnegative")
    return WeightedCircularGraph((0, a, 0, -a))


def blowup(g: WeightedCircularGraph, i: int) -> WeightedCircularGraph:
    """Insert a weight -1 vertex between positions i and i+1 (1-based, circular)."""
    if type(i) is not int:
        raise ValueError(f"blowup position {i!r} is not an integer")
    if not 1 <= i <= g.s:
        raise ValueError(f"blowup position {i} out of range 1..{g.s}")
    return WeightedCircularGraph(_blown_up(g.weights, i))


def _blown_up(w: tuple[int, ...], i: int) -> tuple[int, ...]:
    """``w`` with a weight -1 vertex between positions i and i+1 (1-based, circular)."""
    if i < len(w):
        return w[: i - 1] + (w[i - 1] - 1, -1, w[i] - 1) + w[i + 1 :]
    return (w[0] - 1,) + w[1:-1] + (w[-1] - 1, -1)


def canonical_form(g: WeightedCircularGraph) -> WeightedCircularGraph:
    """Lexicographic minimum over all rotations and reflections."""
    return WeightedCircularGraph(_least_image(g.weights))


def _least_image(w: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation or reflection of ``w``: it starts at a least weight,
    so only those rotations of ``w`` and of ``w[::-1]`` are compared."""
    s, least, reflected = len(w), min(w), w[::-1]
    return min(
        doubled[r : r + s]
        for doubled in (w + w, reflected + reflected)
        for r in range(s)
        if doubled[r] == least
    )


@lru_cache(maxsize=None, typed=True)  # typed: True is not a hit for 1, so the check below sees it
def enumerate_blowups(k: int) -> frozenset[WeightedCircularGraph]:
    """Canonical graphs reachable from cp2() by exactly k blowups."""
    if type(k) is not int:
        raise ValueError(f"blowup count {k!r} is not an integer")
    if k < 0:
        raise ValueError("blowup count must be nonnegative")
    if k == 0:
        return frozenset({canonical_form(cp2())})
    level = {
        _least_image(_blown_up(g.weights, i)) for g in enumerate_blowups(k - 1) for i in range(1, g.s + 1)
    }
    return frozenset(map(WeightedCircularGraph, level))


def graph_to_fan(g: WeightedCircularGraph) -> Fan:
    """Fan with rays generated by the weight recurrence from (1,0), (0,1).

    Raises ValueError("inconsistent weight sequence") when the recurrence
    fails to close up or the resulting data is not a valid fan.
    """
    w = g.weights
    s = g.s
    rays = [(1, 0), (0, 1)]
    for i in range(1, s - 1):
        prev2, prev1 = rays[i - 1], rays[i]
        rays.append((-prev2[0] - w[i] * prev1[0], -prev2[1] - w[i] * prev1[1]))
    close1 = (-rays[s - 2][0] - w[s - 1] * rays[s - 1][0], -rays[s - 2][1] - w[s - 1] * rays[s - 1][1])
    close2 = (rays[s - 1][0] + rays[1][0] + w[0] * rays[0][0], rays[s - 1][1] + rays[1][1] + w[0] * rays[0][1])
    if close1 != rays[0] or close2 != (0, 0):
        raise ValueError("inconsistent weight sequence")
    cones = [(i, (i + 1) % s) for i in range(s)]
    try:
        return make_fan(2, rays, cones)
    except ValueError as exc:
        raise ValueError("inconsistent weight sequence") from exc
