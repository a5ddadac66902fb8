"""Search for splitting types: permute wall tuples, sign-filter, solve integrally.

A splitting type is a tuple of divisor classes whose restriction degrees
reproduce a given system on every invariant curve, with each class
restricting everywhere non-negatively or everywhere negatively.  The search
enumerates the admissible row permutations of the degree system as a depth
first scan over walls.  A row's orderings, each with its column classes,
are built when the scan first reaches that row, once per distinct row of
the system.  The scan prunes on three exact conditions:

* one sign class per column, fixed by the first wall: whether its entries
  are negative (their sign under the strict rule),
* lexicographic non-increase of adjacent columns (so each leaf's columns
  are sorted, and no two leaves give the same type),
* rational consistency of every left-kernel relation of the intersection
  matrix as soon as its last supported wall is assigned.

``aim.relation_walls`` checks Q's solution lattice once per matrix, with
neither an HNF nor an elimination, before the first search, and names the
walls where a relation ends.  Only there are the relations read, as sparse
terms from ``aim.kernel_triggers``, so Q's rows are eliminated the first
time a search reaches a relation wall, and a search that dies before one
eliminates nothing.  Surviving candidates are solved integrally, column by
column, by back-substitution against the matrix's cached ``aim.solve_plan``
(one HNF per matrix, built at the first leaf, so a search that reaches no
leaf computes none).  Leaves share many degree columns, so each search
keeps a memo of the columns it has met: a column is solved, checked against
Q, reduced modulo the principal-divisor lattice and signed the first time,
and the memo dies with the search.  Every leaf checks the sign rule on its
columns and is keyed by its sorted classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .exact_linear import SparseTerms
from .fan import Fan
from .intersection import AugmentedIntersectionMatrix, SignClass, apply_q, sign_of_degrees
from .splitting import SplittingSystem

_ORDERING_RANK_CAP = 8  # each wall tries up to r! orderings of its row
_STAT_KEYS = ("leaves", "failed_solves", "sign_cuts", "lex_cuts", "kernel_cuts")
# a solved degree column: its ray coefficients, their reduction and its sign class
_SolvedColumn = tuple[tuple[int, ...], tuple[int, ...], SignClass]


def _default_class(entry: int) -> bool:
    """An entry's sign class under the default rule: whether it is negative."""
    return entry < 0


def _strict_class(entry: int) -> int:
    """An entry's sign class under the strict rule: its sign."""
    return (entry > 0) - (entry < 0)


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
    aim: AugmentedIntersectionMatrix,
    system: SplittingSystem,
    strict: bool = False,
    stats: dict[str, int] | None = None,
) -> list[SplittingType]:
    """All splitting types of a degree system, canonicalized and sorted.

    Default sign rule: each column's restriction degrees are all >= 0 or
    all < 0.  Strict mode narrows to all > 0, all = 0, or all < 0.  An empty
    result means the system admits no splitting type.

    When ``stats`` is a dict, the search adds its counts to it: ``leaves``
    (candidates reached), ``failed_solves`` (leaves with no integral
    solution) and the orderings cut by ``sign_cuts``, ``lex_cuts`` and
    ``kernel_cuts``.  The result has ``leaves - failed_solves`` types: a
    leaf's columns are sorted, so a type's classes fix their degree columns
    and with them the leaf, and a repeated type raises ``RuntimeError``.
    """
    if tuple(w.tau for w in aim.row_walls) != system.taus:
        raise ValueError("system walls do not match the intersection matrix")
    degree_rows = system.degrees
    n_walls = len(degree_rows)
    if n_walls == 0:
        return []
    r = len(degree_rows[0])
    if r > _ORDERING_RANK_CAP:
        raise RuntimeError(f"bundle rank {r} exceeds the ordering rank cap {_ORDERING_RANK_CAP}")

    sign_class = _strict_class if strict else _default_class
    relation_walls = aim.relation_walls

    # each row's (ordering, classes) pairs, built when the scan first reaches the row
    choices: dict[tuple[int, ...], tuple] = {}
    # each degree column met at a leaf: its solution, reduction and sign, or None
    solved: dict[tuple[int, ...], _SolvedColumn | None] = {}
    assigned: list[tuple[int, ...]] = []
    results: dict[tuple[tuple[int, ...], ...], SplittingType] = {}
    counts = dict.fromkeys(_STAT_KEYS, 0)

    def scan(i: int, col_classes: tuple[int, ...] | None, pair_tied: tuple[bool, ...]) -> None:
        if i == n_walls:
            counts["leaves"] += 1
            solution = _solve_candidate(aim, tuple(assigned), counts["leaves"], strict, solved)
            if solution is None:
                counts["failed_solves"] += 1
            elif results.setdefault(tuple(sorted(solution.canonical)), solution) is not solution:
                raise RuntimeError(f"invariant broken: candidate {solution.perm_id} repeats an earlier type")
            return
        row = degree_rows[i]
        orderings = choices.get(row)
        if orderings is None:
            orderings = choices[row] = tuple(
                (o, tuple(map(sign_class, o))) for o in sorted(set(permutations(row)), reverse=True)
            )
        for ordering, classes in orderings:
            if col_classes is not None and classes != col_classes:
                counts["sign_cuts"] += 1
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
                counts["lex_cuts"] += 1
                continue
            assigned.append(ordering)
            if i not in relation_walls or all(
                _relation_holds(terms, assigned, r) for terms in aim.kernel_triggers[i]
            ):
                scan(i + 1, classes, tuple(tied))
            else:
                counts["kernel_cuts"] += 1
            assigned.pop()

    scan(0, None, tuple(True for _ in range(r - 1)))
    # scan's closure holds scan itself: emptying that cell frees the search
    # state now instead of at the next cyclic garbage collection
    del scan
    if stats is not None:
        for key, n in counts.items():
            stats[key] = stats.get(key, 0) + n
    return [results[key] for key in sorted(results)]


def _relation_holds(terms: SparseTerms, assigned: list[tuple[int, ...]], r: int) -> bool:
    for l in range(r):
        if sum(c * assigned[w][l] for w, c in terms) != 0:
            return False
    return True


def _solve_candidate(
    aim: AugmentedIntersectionMatrix,
    rows: tuple[tuple[int, ...], ...],
    perm_id: int,
    strict: bool,
    solved: dict[tuple[int, ...], _SolvedColumn | None],
) -> SplittingType | None:
    """Solve each column of the candidate rows; None when one has no solution.

    ``solved`` is the search's memo of the columns met so far: a column is
    solved, checked against Q and reduced the first time it is met, and the
    sign rule is checked on every leaf.
    """
    entries = []
    for target in zip(*rows):
        if target not in solved:
            solved[target] = _solve_column(aim, target, perm_id)
        entry = solved[target]
        if entry is None:
            return None
        entries.append(entry)
    signs = tuple(sign for _, _, sign in entries)
    if SignClass.MIXED in signs:
        raise RuntimeError(f"invariant broken: candidate {perm_id} solves to a class of mixed sign")
    if strict and SignClass.NEF in signs:
        raise RuntimeError(f"invariant broken: candidate {perm_id} solves to a nef class under the strict rule")
    return SplittingType(
        perm_id, rows, tuple(x for x, _, _ in entries), tuple(c for _, c, _ in entries), signs
    )


def _solve_column(
    aim: AugmentedIntersectionMatrix, target: tuple[int, ...], perm_id: int
) -> _SolvedColumn | None:
    """One degree column solved against Q's plan, checked, reduced and signed; None without a solution."""
    x = aim.solve_plan.solve(target)
    if x is None:
        return None
    if apply_q(aim, x) != target:
        raise RuntimeError(f"invariant broken: integral solve of candidate {perm_id} misses Q @ x = rows")
    # the check above makes the target the column's degrees Q @ x
    return x, canonical_class_rep(x, aim.fan), sign_of_degrees(target)


def canonical_class_rep(x, fan: Fan) -> tuple[int, ...]:
    """Reduce a ray-coefficient vector modulo the principal-divisor lattice.

    The coordinates of the fixed unimodular ray subset of ``fan.reduction``
    are driven to zero, in one pass over its per-ray terms.
    """
    if len(x) != len(fan.rays):
        raise ValueError(f"class vector needs {len(fan.rays)} entries")
    support, terms = fan.reduction
    reduced = tuple(v - sum(c * x[s] for s, c in t) for v, t in zip(x, terms))
    if any(reduced[k] for k in support):
        raise RuntimeError(f"invariant broken: reduced class {reduced} is nonzero on the support {support}")
    return reduced
