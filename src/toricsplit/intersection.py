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

from .exact_linear import IntMatrix, SolvePlan, SparseTerms, hnf, int_kernel, nonzero_terms
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

    @cached_property
    def kernel_triggers(self) -> tuple[tuple[SparseTerms, ...], ...]:
        """The left-kernel relations as sparse (wall, coeff) terms, listed under their last wall."""
        triggers: list[list[SparseTerms]] = [[] for _ in self.row_walls]
        for terms in map(nonzero_terms, self.left_kernel):
            triggers[terms[-1][0]].append(terms)
        return tuple(map(tuple, triggers))

    @cached_property
    def solve_plan(self) -> SolvePlan:
        """The integral solve plan of Q, built once; Q's solution lattice is checked here.

        Every solve against Q may be ambiguous only up to linear
        equivalence: the plan's kernel must be the principal-divisor lattice.
        """
        plan = SolvePlan(self.q)
        if plan.solve((0,) * self.q.rows) is None:
            raise RuntimeError("invariant broken: Q @ x = 0 has no integral solution")
        h_kernel = _lattice_form(plan.kernel)
        h_principal = _lattice_form(principal_columns(self.fan))
        if h_kernel != h_principal:
            raise RuntimeError(
                "solution lattice is not the principal-divisor lattice: "
                f"kernel HNF {h_kernel} vs principal HNF {h_principal}"
            )
        return plan


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
    return sign_of_degrees(apply_q(aim, x))


def sign_of_degrees(y: Sequence[int]) -> SignClass:
    """The sign class of a divisor class from its restriction degrees y = Q @ x."""
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


def _lattice_form(vectors) -> tuple[tuple[int, ...], ...]:
    if not vectors:
        return ()
    h, _ = hnf(IntMatrix.from_rows([list(v) for v in vectors]))
    return tuple(row for row in h.entries if any(row))
