"""Search for splitting types: permute wall tuples, sign-filter, solve integrally.

A splitting type is a tuple of divisor classes whose restriction degrees
reproduce a given system on every invariant curve, with each class
restricting everywhere non-negatively or everywhere negatively.  The search
enumerates the admissible row permutations of the degree system as a depth
first scan over walls, pruning on three exact conditions:

* column sign feasibility (a column that has seen both signs is dead),
* lexicographic non-increase of adjacent columns (removes column-order
  duplicates),
* rational consistency of every left-kernel relation of the intersection
  matrix as soon as its last supported wall is assigned.

Surviving candidates are solved integrally; solutions are reduced modulo
the principal-divisor lattice and deduplicated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .exact_linear import IntMatrix, hnf, solve_integral
from .fan import Fan
from .intersection import (
    AugmentedIntersectionMatrix,
    SignClass,
    principal_columns,
    sign_of_class,
)
from .splitting import SplittingSystem

# sign classes a column can still aim for, one bit each:
# nonneg 0b0001, neg 0b0010, pos 0b0100, zero 0b1000
_DEFAULT_MODES = 0b0011
_STRICT_MODES = 0b1110
_ORDERING_RANK_CAP = 8  # each wall tries up to r! orderings of its row


def _entry_modes(entry: int) -> int:
    """The sign classes an entry is compatible with."""
    if entry > 0:
        return 0b0101
    return 0b1001 if entry == 0 else 0b0010


@dataclass(frozen=True)
class SplittingType:
    """One solution: classes as ray-coefficient columns plus their reductions.

    ``rows`` is the permuted degree system the solution satisfies exactly,
    ``perm_id`` its 1-based position in the deterministic candidate scan.
    """

    perm_id: int
    rows: tuple[tuple[int, ...], ...]
    columns: tuple[tuple[int, ...], ...]
    canonical: tuple[tuple[int, ...], ...]
    sign_classes: tuple[SignClass, ...]


def find_splitting_types(
    aim: AugmentedIntersectionMatrix, system: SplittingSystem, strict: bool = False
) -> list[SplittingType]:
    """All splitting types of a degree system, canonicalized and sorted.

    Default sign rule: each column's restriction degrees are all >= 0 or
    all < 0.  Strict mode narrows to all > 0, all = 0, or all < 0.  An empty
    result means the system admits no splitting type.
    """
    if tuple(w.tau for w in aim.row_walls) != system.taus:
        raise ValueError("system walls do not match the intersection matrix")
    degree_rows = system.degrees
    n_walls = len(degree_rows)
    if n_walls == 0:
        return []
    r = len(degree_rows[0])
    if any(len(row) != r for row in degree_rows):
        raise ValueError("wall tuples have mixed lengths")
    if r > _ORDERING_RANK_CAP:
        raise RuntimeError(f"bundle rank {r} exceeds the ordering rank cap {_ORDERING_RANK_CAP}")

    q = aim.q
    zero_rhs = IntMatrix(q.rows, 1, tuple((0,) for _ in range(q.rows)))
    solved = solve_integral(q, zero_rhs)
    if solved is None:
        raise RuntimeError("invariant broken: Q @ x = 0 has no integral solution")
    _, kernel = solved
    _assert_kernel_is_principal(kernel, aim.fan)

    choices = [
        tuple((o, tuple(map(_entry_modes, o))) for o in sorted(set(permutations(row)), reverse=True))
        for row in degree_rows
    ]
    triggers = _prefix_constraints(aim.left_kernel)
    start_modes = _STRICT_MODES if strict else _DEFAULT_MODES

    assigned: list[tuple[int, ...]] = []
    results: dict[tuple[tuple[int, ...], ...], SplittingType] = {}
    counter = 0

    def scan(i: int, col_modes: tuple[int, ...], pair_tied: tuple[bool, ...]) -> None:
        nonlocal counter
        if i == n_walls:
            counter += 1
            solution = _solve_candidate(aim, tuple(assigned), counter)
            if solution is not None:
                key = tuple(sorted(solution.canonical))
                results.setdefault(key, solution)
            return
        for ordering, entry_modes in choices[i]:
            modes = tuple(m & e for m, e in zip(col_modes, entry_modes))
            if not all(modes):
                continue
            tied = list(pair_tied)
            dead = False
            for l in range(r - 1):
                if tied[l]:
                    if ordering[l] < ordering[l + 1]:
                        dead = True
                        break
                    if ordering[l] > ordering[l + 1]:
                        tied[l] = False
            if dead:
                continue
            assigned.append(ordering)
            if all(
                _constraint_holds(vec, assigned, r) for vec in triggers.get(i, ())
            ):
                scan(i + 1, modes, tuple(tied))
            assigned.pop()

    scan(0, tuple(start_modes for _ in range(r)), tuple(True for _ in range(r - 1)))
    return [results[key] for key in sorted(results)]


def _constraint_holds(
    vec: tuple[int, ...], assigned: list[tuple[int, ...]], r: int
) -> bool:
    for l in range(r):
        if sum(c * row[l] for c, row in zip(vec, assigned)) != 0:
            return False
    return True


def _prefix_constraints(
    left_kernel: tuple[tuple[int, ...], ...]
) -> dict[int, list[tuple[int, ...]]]:
    """Left-kernel relations keyed by the last wall they touch."""
    triggers: dict[int, list[tuple[int, ...]]] = {}
    for vec in left_kernel:
        last = max(i for i, c in enumerate(vec) if c != 0)
        triggers.setdefault(last, []).append(vec)
    return triggers


def _solve_candidate(
    aim: AugmentedIntersectionMatrix, rows: tuple[tuple[int, ...], ...], perm_id: int
) -> SplittingType | None:
    q = aim.q
    rhs = IntMatrix.from_rows([list(row) for row in rows])
    solved = solve_integral(q, rhs)
    if solved is None:
        return None
    x, _ = solved
    columns = tuple(x.column(l) for l in range(x.cols))
    if (q @ x).entries != rhs.entries:
        raise RuntimeError(f"invariant broken: integral solve of candidate {perm_id} misses Q @ x = rows")
    canonical = tuple(canonical_class_rep(col, aim.fan) for col in columns)
    signs = tuple(sign_of_class(aim, col) for col in columns)
    if SignClass.MIXED in signs:
        raise RuntimeError(f"invariant broken: candidate {perm_id} solves to a class of mixed sign")
    return SplittingType(perm_id, rows, columns, canonical, signs)


def _assert_kernel_is_principal(kernel: list[tuple[int, ...]], fan: Fan) -> None:
    """The solve may only be ambiguous up to linear equivalence; anything else is fatal."""
    principal = principal_columns(fan)
    j = len(fan.rays)
    h_kernel = _lattice_form(kernel, j)
    h_principal = _lattice_form(principal, j)
    if h_kernel != h_principal:
        raise RuntimeError(
            "solution lattice is not the principal-divisor lattice: "
            f"kernel HNF {h_kernel} vs principal HNF {h_principal}"
        )


def _lattice_form(vectors, width: int) -> tuple[tuple[int, ...], ...]:
    if not vectors:
        return ()
    h, _ = hnf(IntMatrix.from_rows([list(v) for v in vectors]))
    return tuple(row for row in h.entries if any(row))


def canonical_class_rep(x, fan: Fan) -> tuple[int, ...]:
    """Reduce a ray-coefficient vector modulo the principal-divisor lattice.

    The coordinates of the fixed unimodular ray subset ``fan.reduction``
    are driven to zero.
    """
    j = len(fan.rays)
    if len(x) != j:
        raise ValueError(f"class vector needs {j} entries")
    support, inv = fan.reduction
    coeffs = [
        sum(inv[t][m] * x[support[m]] for m in range(fan.dim)) for t in range(fan.dim)
    ]
    reduced = tuple(
        x[k] - sum(fan.rays[k][t] * coeffs[t] for t in range(fan.dim)) for k in range(j)
    )
    if any(reduced[k] for k in support):
        raise RuntimeError(f"invariant broken: reduced class {reduced} is nonzero on the support {support}")
    return reduced
