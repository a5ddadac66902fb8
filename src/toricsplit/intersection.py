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
    def relation_walls(self) -> frozenset[int]:
        """The walls whose rows end a relation among Q's rows, once Q's solution lattice is checked.

        The check runs once per matrix, without an HNF, so a foreign matrix
        is rejected before any search: every solve against Q must be
        ambiguous only up to linear equivalence.  The principal columns lie
        in ker Q and, ``fan.reduction``'s n rays being a lattice basis, they
        span a saturated lattice of rank n, so rank Q <= j - n for j rays.
        A row with a nonzero in a column no earlier row touches ("fresh")
        is independent of the rows before it, so the fresh rows prove
        rank Q >= their number.  Exactly j - n of them prove ker Q is the
        principal-divisor lattice with no elimination, and every other row
        ends one relation among the rows before it.  Fewer fall back to
        the wall-order elimination of ``left_kernel``, which reads Q's rank.
        """
        n = self.fan.dim
        for p in principal_columns(self.fan):
            if any(sum(c * p[j] for j, c in terms) for terms in self.nonzero_terms):
                raise RuntimeError(
                    f"solution lattice is not the principal-divisor lattice: Q @ {p} != 0"
                )
        self.fan.reduction  # raises unless some n rays are a lattice basis
        first_rows: dict[int, int] = {}  # each column's first row with a nonzero there
        for i, terms in enumerate(self.nonzero_terms):
            for j, _ in terms:
                first_rows.setdefault(j, i)
        fresh = set(first_rows.values())
        if len(fresh) == self.q.cols - n:
            return frozenset(range(self.q.rows)).difference(fresh)
        kernel_rank = self.q.cols - (self.q.rows - len(self.left_kernel))
        if kernel_rank != n:
            raise RuntimeError(
                "solution lattice is not the principal-divisor lattice: "
                f"ker Q has rank {kernel_rank}, not {n}"
            )
        return frozenset(nonzero_terms(y)[-1][0] for y in self.left_kernel)

    @cached_property
    def kernel_triggers(self) -> tuple[tuple[SparseTerms, ...], ...]:
        """The left-kernel relations as sparse (wall, coeff) terms, listed under their last wall.

        A wall's triggers are the relations among Q's rows that its row
        completes, so the relations checked by wall i span every relation
        among the rows of walls 0..i.  The search reads them only at
        ``relation_walls``, so the elimination of ``left_kernel`` runs the
        first time a search reaches one, after the lattice check.
        """
        relation_walls = self.relation_walls
        triggers: list[list[SparseTerms]] = [[] for _ in self.row_walls]
        for terms in map(nonzero_terms, self.left_kernel):
            triggers[terms[-1][0]].append(terms)
        if {i for i, t in enumerate(triggers) if t} != relation_walls:
            raise RuntimeError("invariant broken: Q's relations do not end at its relation walls")
        return tuple(map(tuple, triggers))

    @cached_property
    def solve_plan(self) -> SolvePlan:
        """The integral solve plan of Q: one HNF, built at the first leaf.

        ``relation_walls`` has already checked Q's solution lattice; the
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

