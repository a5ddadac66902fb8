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

from .exact_linear import IntMatrix, SolvePlan, SparseTerms, int_row_relations, nonzero_terms
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
        """Basis of {y : y @ Q = 0}: the relations among Q's rows, in wall order.

        One fraction-free elimination of Q's rows in wall order: a row that
        reduces to zero against the walls before it gives the relation ending
        at its own wall.  The basis is in echelon form by last nonzero entry,
        the integral RREF kernel of Q^T.
        """
        return tuple(int_row_relations(self.q.entries))

    @cached_property
    def nonzero_terms(self) -> tuple[SparseTerms, ...]:
        """Q's rows as sparse (ray, coeff) terms: a wall relation and its two extra rays."""
        return tuple(map(nonzero_terms, self.q.entries))

    @cached_property
    def kernel_triggers(self) -> tuple[tuple[SparseTerms, ...], ...]:
        """The left-kernel relations as sparse (wall, coeff) terms, listed under their last wall.

        A wall's triggers are the relations among Q's rows that its row
        completes, so the relations checked by wall i span every relation
        among the rows of walls 0..i.

        Q's solution lattice is checked here, once per matrix and without an
        HNF, so a foreign matrix is rejected before any search: every solve
        against Q must be ambiguous only up to linear equivalence.  The
        principal columns lie in ker Q, ker Q has rank n over the rationals
        (Q's rank is its number of walls less the number of relations, so
        the whole elimination runs here, eagerly), and the principal
        lattice is saturated (``fan.reduction``'s n rays are a lattice
        basis); so ker Q is exactly the principal-divisor lattice.
        """
        n = self.fan.dim
        for p in principal_columns(self.fan):
            if any(sum(c * p[j] for j, c in terms) for terms in self.nonzero_terms):
                raise RuntimeError(
                    f"solution lattice is not the principal-divisor lattice: Q @ {p} != 0"
                )
        kernel_rank = self.q.cols - (self.q.rows - len(self.left_kernel))
        if kernel_rank != n:
            raise RuntimeError(
                "solution lattice is not the principal-divisor lattice: "
                f"ker Q has rank {kernel_rank}, not {n}"
            )
        self.fan.reduction  # raises unless some n rays are a lattice basis
        triggers: list[list[SparseTerms]] = [[] for _ in self.row_walls]
        for terms in map(nonzero_terms, self.left_kernel):
            triggers[terms[-1][0]].append(terms)
        return tuple(map(tuple, triggers))

    @cached_property
    def solve_plan(self) -> SolvePlan:
        """The integral solve plan of Q: one HNF, built at the first leaf.

        ``kernel_triggers`` has already checked Q's solution lattice; the
        plan checks itself against it: Q @ x = 0 solves and its integral
        kernel has rank n.
        """
        plan = SolvePlan(self.q)
        if plan.solve((0,) * self.q.rows) is None:
            raise RuntimeError("invariant broken: Q @ x = 0 has no integral solution")
        if len(plan.kernel) != self.fan.dim:
            raise RuntimeError(
                f"invariant broken: the plan's kernel has rank {len(plan.kernel)}, "
                f"the principal-divisor lattice {self.fan.dim}"
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
    return tuple(sum(c * x[j] for j, c in terms) for terms in aim.nonzero_terms)


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

