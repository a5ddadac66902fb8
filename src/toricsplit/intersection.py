"""Augmented intersection matrix and divisor-class positivity.

Row i of Q records the intersection numbers of every invariant divisor
against the invariant curve of wall i: the wall relation coefficients sit
at the tau columns, 1 at the two extra-ray columns, 0 elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

from .exact_linear import IntMatrix, int_kernel
from .fan import Fan, Wall, walls


class SignClass(Enum):
    POSITIVE = "positive"
    NEF = "nef"
    ZERO = "zero"
    NEGATIVE = "negative"
    MIXED = "mixed"


@dataclass(frozen=True)
class AugmentedIntersectionMatrix:
    fan: Fan
    row_walls: tuple[Wall, ...]
    q: IntMatrix

    @cached_property
    def left_kernel(self) -> tuple[tuple[int, ...], ...]:
        """Basis of {y : y @ Q = 0}: the integral RREF kernel of Q^T.

        Every vector ends at its own free wall, so the basis stays in
        echelon form by last nonzero entry.
        """
        return tuple(int_kernel(list(zip(*self.q.entries))))


def augmented_matrix(fan: Fan) -> AugmentedIntersectionMatrix:
    ws = walls(fan)
    rows = []
    for w in ws:
        row = [0] * len(fan.rays)
        for coeff, t in zip(w.relation, w.tau):
            row[t] = coeff
        row[w.extra1] += 1
        row[w.extra2] += 1
        rows.append(row)
    return AugmentedIntersectionMatrix(fan, ws, IntMatrix.from_rows(rows))


def apply_q(aim: AugmentedIntersectionMatrix, x: Sequence[int]) -> tuple[int, ...]:
    if len(x) != aim.q.cols:
        raise ValueError(f"class has {len(x)} coordinates, fan has {aim.q.cols} rays")
    return tuple(sum(c * v for c, v in zip(row, x)) for row in aim.q.entries)


def sign_of_class(aim: AugmentedIntersectionMatrix, x: Sequence[int]) -> SignClass:
    y = apply_q(aim, x)
    if all(v == 0 for v in y):
        return SignClass.ZERO
    if all(v > 0 for v in y):
        return SignClass.POSITIVE
    if all(v >= 0 for v in y):
        return SignClass.NEF
    if all(v < 0 for v in y):
        return SignClass.NEGATIVE
    return SignClass.MIXED


def principal_columns(fan: Fan) -> list[tuple[int, ...]]:
    """Generators of the principal-divisor lattice: one column per dual-lattice basis vector."""
    return [tuple(ray[t] for ray in fan.rays) for t in range(fan.dim)]
