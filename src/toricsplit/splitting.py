"""Restriction to invariant rational curves and exact splitting degrees.

Every wall tau of a complete nonsingular fan carries an invariant curve
isomorphic to the projective line, covered by the two charts of its
adjacent maximal cones.  A bundle given by weight systems and pastings
restricts there to a transition matrix in one variable; this module
extracts the degrees of its line-bundle summands exactly.

Two independent routes are provided on purpose:

* ``bootstrap`` implements weight bootstrapping: scan strata of the
  one-variable pasting for a vector spanning a maximal-degree line
  subbundle, record its degree, deflate, repeat, all on integers: a
  pasting row is a chart-2 frame vector, so no row scale changes a degree.
* ``h0_oracle`` counts twisted global sections of a monomial transition
  matrix by exact linear algebra and reads the degrees off the jumps.

They share no code beyond the rank and kernel primitives of
``exact_linear`` and are checked against each other in the test suite.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import gcd
from operator import lt
from typing import TYPE_CHECKING, Sequence

from .exact_linear import Rat, _row_echelon, clear_denominators, dot, int_kernel, int_rank, rat_invert
from .fan import Wall, wall_label
from .intersection import AugmentedIntersectionMatrix, apply_q

if TYPE_CHECKING:
    from .bundle_data import KaneyamaBundleData

Monomial = tuple[Fraction, int]
MonomialMatrix = tuple[tuple[Monomial, ...], ...]
IntMonomialMatrix = tuple[tuple[tuple[int, int], ...], ...]


@dataclass(frozen=True)
class RestrictionBlock:
    """One isotypic block of a wall restriction: the weights pairing alike against the wall's rays.

    Chart-1 weights are stored non-increasing, chart-2 weights
    non-decreasing; ``pasting`` has chart-2 rows and chart-1 columns and is
    the part of the full pasting surviving the limit into the wall point,
    its entries as the bundle data holds them (``int`` or ``Fraction``).
    """

    chart1_weights: tuple[int, ...]
    chart2_weights: tuple[int, ...]
    pasting: tuple[tuple[Rat, ...], ...]


@dataclass(frozen=True)
class SplittingSystem:
    """One non-increasing tuple of integer degrees per wall, all of one length, in the fan's wall order."""

    taus: tuple[tuple[int, ...], ...]
    degrees: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.taus, tuple):
            raise ValueError("taus are not a tuple of tuples")
        for tau in self.taus:
            if not isinstance(tau, tuple):
                raise ValueError("taus are not a tuple of tuples")
        if not isinstance(self.degrees, tuple):
            raise ValueError("degrees are not a tuple")
        if len(self.taus) != len(self.degrees):
            raise ValueError("one degree tuple per wall required")
        for row in self.degrees:
            if not isinstance(row, tuple) or not all(type(d) is int for d in row):
                raise ValueError(f"degree row {row!r} is not a tuple of integers")
            if any(map(lt, row, row[1:])):
                raise ValueError(f"degree tuple {row} is not non-increasing")
        if len(set(map(len, self.degrees))) > 1:
            raise ValueError("wall tuples have mixed lengths")


def restrict(
    data: "KaneyamaBundleData", wall: Wall, v_chart: Sequence[int] | None = None
) -> tuple[RestrictionBlock, ...]:
    """Restrict validated bundle data to the invariant curve of ``wall``: its isotypic blocks.

    ``v_chart`` selects the one-parameter subgroup measuring chart weights;
    any lattice point pairing to 1 against the wall conormal of the first
    chart is valid, and the default is the first chart's extra ray.  The
    resulting degrees are independent of the choice.  One pass: each weight's
    key (its pairings with tau's rays) and chart weight are computed once, each
    chart is sorted once as plain tuples, and the blocks are the runs of equal keys.
    """
    fan = data.fan
    c1, c2 = wall.sigma1, wall.sigma2
    if v_chart is None:
        v = fan.rays[wall.extra1]
    else:
        v = tuple(v_chart)
        if len(v) != fan.dim or not all(type(x) is int for x in v):
            raise ValueError(f"v_chart {v} is not {fan.dim} integers")
        conormal = fan.duals[c1][fan.max_cones[c1].index(wall.extra1)]
        if dot(conormal, v) != 1:
            raise ValueError(f"v_chart {v} does not pair to 1 against the wall conormal")

    p = data.pasting(c2, c1)
    tau_rays = [fan.rays[t] for t in wall.tau]
    # (key, weight, index) per weight; chart 1's weight negated, so the plain sort puts it descending
    chart1, chart2 = (
        [(tuple([dot(chi, t) for t in tau_rays]), s * dot(chi, v), i) for i, chi in enumerate(ws)]
        for ws, s in ((data.weight_systems[c1], -1), (data.weight_systems[c2], 1))
    )
    sorted1, sorted2 = sorted(chart1), sorted(chart2)
    keys = [e[0] for e in sorted1]
    if keys != [e[0] for e in sorted2]:
        raise ValueError(f"net condition fails at wall tau {wall.tau} between cones {c1} and {c2}")

    # entries joining different isotypic classes must vanish in the limit
    # into the wall point; the support condition makes the exponent positive
    for k2, _, i2 in chart2:
        for (k1, _, i1), entry in zip(chart1, p[i2]):
            if entry and k1 != k2 and any(map(lt, k2, k1)):
                raise ValueError(f"support fails for pasting ({c2},{c1}) entry ({i2},{i1}) at wall tau {wall.tau}")

    # where each run of equal keys starts, then the length: run b is cuts[b]:cuts[b + 1]
    cuts = [k for k in range(len(keys)) if k == 0 or keys[k] != keys[k - 1]] + [len(keys)]
    blocks = []
    for lo, hi in zip(cuts, cuts[1:]):
        run1, run2 = sorted1[lo:hi], sorted2[lo:hi]
        t1, t2 = tuple([-w for _, w, _ in run1]), tuple([w for _, w, _ in run2])
        pasting = tuple([tuple([p[i2][i1] for _, _, i1 in run1]) for _, _, i2 in run2])
        blocks.append(RestrictionBlock(t1, t2, pasting))
    return tuple(blocks)


def bootstrap(
    chart1_weights: Sequence[int],
    chart2_weights: Sequence[int],
    pasting: Sequence[Sequence[Rat]],
) -> tuple[int, ...]:
    """Splitting degrees of one block by stratum scan and deflation.

    The block transition over the curve is determined by the chart weights
    and the constant pasting (chart-2 rows, chart-1 columns).  A vector
    supported on the chart-1 weight blocks up to i, with image supported on
    chart-2 blocks up to j, spans a line subbundle of degree
    chart1[i] - chart2[j]; the scan reads a maximal-degree one off at most
    one kernel per row block, splits it off by an integral basis change, and
    recurses.  A row is a chart-2 frame vector, and a nonzero scale changes
    no rank, kernel or degree, so rows are cleared of denominators once.
    """
    w1 = list(chart1_weights)
    w2 = list(chart2_weights)
    r = len(w1)
    if len(w2) != r or len(pasting) != r or any(len(row) != r for row in pasting):
        raise ValueError("block shape mismatch")
    if not all(type(x) is int for x in w1 + w2):
        raise ValueError("chart weights must be integers")
    if any(w1[k] < w1[k + 1] for k in range(r - 1)):
        raise ValueError("chart-1 weights must be non-increasing")
    if any(w2[k] > w2[k + 1] for k in range(r - 1)):
        raise ValueError("chart-2 weights must be non-decreasing")
    a = clear_denominators(pasting)
    if int_rank(a) < r:
        raise ValueError("singular pasting")

    degrees: list[int] = []
    while len(w1) > 1:
        degree, v, j_rows = _top_stratum(w1, w2, a)
        degrees.append(degree)
        _deflate(a, w1, w2, v, j_rows)
    degrees.extend(x - y for x, y in zip(w1, w2))
    return tuple(sorted(degrees, reverse=True))


def _top_stratum(w1: list[int], w2: list[int], a: list[list[int]]) -> tuple[int, tuple[int, ...], range]:
    """The degree, witness vector and row block of a maximal-degree non-empty stratum.

    Column blocks are runs of equal chart-1 weights, row blocks of chart-2
    weights.  Stratum (i, j) has degree w1 on block i minus w2 on block j,
    and is non-empty when some vector ending in column block i dies on the
    rows past row block j.  Elimination runs left to right, so the reduced
    form of those rows, cut to the columns up to block i, is theirs cut: the
    stratum is non-empty exactly when one of their free columns lies in
    block i, and the kernel vector of the first is the witness.  Strata are
    tried by degree, highest first.  The witness hits row block j: otherwise
    its image, not zero as ``a`` stays invertible, ends in a row block j' < j,
    so it witnesses (i, j'), tried first for its higher degree (w2 rises).
    """
    # where each block starts, then the length: block b is starts[b]:starts[b + 1]
    col_starts, row_starts = (
        [k for k in range(len(w)) if k == 0 or w[k] != w[k - 1]] + [len(w)] for w in (w1, w2)
    )
    # the kernel of the rows past each row block, built when a stratum of the block is first
    # tried; past the last block no row is left, so every column is free
    kernels: dict[int, list[tuple[int, ...]]] = {}

    # highest degree first, ties in (i, j) order
    strata = sorted(
        (w2[row_starts[j]] - w1[col_starts[i]], i, j)
        for i in range(len(col_starts) - 1)
        for j in range(len(row_starts) - 1)
    )
    for minus_degree, i, j in strata:
        if j not in kernels:
            kernels[j] = int_kernel(a[row_starts[j + 1]:] or [[0] * len(w1)])
        lo, hi = col_starts[i], col_starts[i + 1]
        # the vector of free column f ends at f: it ends in block i when it meets block i and nothing past it
        v = next((vec for vec in kernels[j] if any(vec[lo:hi]) and not any(vec[hi:])), None)
        if v is None:
            continue
        j_rows = range(row_starts[j], row_starts[j + 1])
        if not any(dot(a[ri], v) for ri in j_rows):
            raise RuntimeError("a nonempty stratum has no witness vector")
        return -minus_degree, v, j_rows
    raise RuntimeError("no stratum found for an invertible pasting")


def _deflate(a: list[list[int]], w1: list[int], w2: list[int], v: tuple[int, ...], j_rows: range) -> None:
    """Split off the line spanned by ``v`` and drop one row and one column.

    With u = a @ v and l the first row of ``j_rows`` with u[l] != 0, each
    other row becomes (u[l]*row - u[i]*row_l) / gcd, rational elimination
    up to a row scale; column k, the last that ``v`` meets, is then zero
    off row l.  The scale of ``v`` cancels.
    """
    k_col = max(m for m, x in enumerate(v) if x)
    u = [dot(row, v) for row in a]
    l_row = next(ri for ri in j_rows if u[ri])
    u_l = u.pop(l_row)
    row_l = a.pop(l_row)
    for ri, u_i in enumerate(u):
        row = [u_l * x - u_i * y for x, y in zip(a[ri], row_l)]
        g = gcd(*row)
        a[ri] = [x // g for x in row]
    for row in a:
        del row[k_col]
    del w1[k_col]
    del w2[l_row]


def splitting_system(data: "KaneyamaBundleData") -> SplittingSystem:
    """Bootstrap each of ``data.restrictions`` blockwise; tuples sorted non-increasing.

    The restrictions are built once per bundle object, so a bundle that
    ``validate`` has checked is not restricted again here.
    """
    taus = []
    rows = []
    for wall, blocks in zip(data.fan.walls, data.restrictions):
        degs: list[int] = []
        for block in blocks:
            if len(block.chart1_weights) == 1:
                # one-dimensional isotypic block: degree is the weight difference
                degs.append(block.chart1_weights[0] - block.chart2_weights[0])
            else:
                degs.extend(bootstrap(block.chart1_weights, block.chart2_weights, block.pasting))
        taus.append(wall.tau)
        rows.append(tuple(sorted(degs, reverse=True)))
    return SplittingSystem(tuple(taus), tuple(rows))


def transition_from_block(
    chart1_weights: Sequence[int],
    chart2_weights: Sequence[int],
    pasting: Sequence[Sequence[Rat]],
) -> MonomialMatrix:
    """Monomial transition matrix whose h0_oracle degrees equal the block's degrees.

    The entry (i, j) is the (i, j) entry of the inverse pasting times
    z**(chart1[i] - chart2[j]).
    """
    if not len(chart1_weights) == len(chart2_weights) == len(pasting):
        raise ValueError("block shape mismatch")
    inv = rat_invert(pasting)
    return tuple(
        tuple((inv[i][j], chart1_weights[i] - chart2_weights[j]) for j in range(len(inv)))
        for i in range(len(inv))
    )


def h0_oracle(transition: Sequence[Sequence[tuple[Rat, int]]]) -> tuple[int, ...]:
    """Degrees of a monomial transition matrix via twisted section counts.

    Input: a square matrix of monomials (coefficient, exponent), understood
    as U * diag(z**d_i) * V with U invertible over polynomials in z and V
    invertible over polynomials in 1/z.  The determinant must be a single
    monomial (the Laurent-invertibility test).  For each twist k the
    dimension h(k) of sections s over polynomials in 1/z with z**(-k) T s
    polynomial in z is computed exactly; multiplicities are the second
    differences of h.  Denominators are cleared once per transition, row by
    row, so every rank is taken over the integers.

    A separable transition, exponent(i, j) = u_i + t_j on its nonzero
    entries, has det T = det C * z**(sum(u) + sum(t)) for its coefficient
    matrix C, so its determinant is read off the pivots of the one
    elimination of C that also ranks every twist.  Only a non-separable
    transition is expanded over all r! permutations.
    """
    r = len(transition)
    if any(len(row) != r for row in transition):
        raise ValueError("transition matrix must be square")
    if r == 0:
        return ()
    if r > _DETERMINANT_RANK_CAP:
        raise RuntimeError(f"transition rank {r} exceeds the determinant rank cap {_DETERMINANT_RANK_CAP}")
    t = _clear_rows(transition)
    split = _separate_exponents(t)
    if split is not None and None in split[1]:
        raise ValueError("singular transition matrix")  # a zero column
    exps = [e for row in t for c, e in row if c != 0]
    lo, hi = min(exps), max(exps)
    twists = range(lo, hi + 3)
    if split is None:
        det_exp = _determinant_exponent(t)
        h = {k: _h_truncated(t, k, det_exp, lo) for k in twists}
    else:
        det_exp = sum(split[0]) + sum(split[1])
        h = _h_separable(t, split, twists)
    degrees: list[int] = []
    for d in range(hi, lo - 1, -1):
        mult = h[d] - 2 * h[d + 1] + h[d + 2]
        if mult < 0:
            raise RuntimeError(f"negative multiplicity of degree {d}")
        degrees.extend([d] * mult)
    if len(degrees) != r:
        raise RuntimeError(f"{len(degrees)} degrees found for a rank-{r} transition")
    if sum(degrees) != det_exp:
        raise RuntimeError("degrees do not sum to the determinant exponent")
    return tuple(degrees)


def _clear_rows(transition: Sequence[Sequence[tuple[Rat, int]]]) -> IntMonomialMatrix:
    """The transition with each row times the lcm of its coefficients' denominators.

    A constant row scale changes neither which sections s have z**(-k) T s
    polynomial nor the exponent of det T, so h(k) and the degrees stay those
    of the transition, and every rank below is taken over the integers.
    """
    if not all(type(e) is int for row in transition for _, e in row):
        raise ValueError("transition exponents must be integers")
    coeffs = clear_denominators([[c for c, _ in row] for row in transition])
    return tuple(
        tuple((c, e) for c, (_, e) in zip(crow, row)) for crow, row in zip(coeffs, transition)
    )


def _determinant_exponent(t: IntMonomialMatrix) -> int:
    """The exponent of det T, expanded over all r! permutations; ValueError unless it is one monomial."""
    r = len(t)
    det_terms: dict[int, int] = {}
    for perm in permutations(range(r)):
        coeff = 1
        exp = 0
        for i in range(r):
            c, e = t[i][perm[i]]
            coeff *= c
            exp += e
        if coeff:
            sign = _perm_sign(perm)
            det_terms[exp] = det_terms.get(exp, 0) + sign * coeff
    det_terms = {e: c for e, c in det_terms.items() if c != 0}
    if not det_terms:
        raise ValueError("singular transition matrix")
    if len(det_terms) > 1:
        raise ValueError("transition determinant is not a monomial; not invertible over Laurent polynomials")
    (det_exp,) = det_terms
    return det_exp


def _perm_sign(perm: tuple[int, ...]) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def _separate_exponents(t: IntMonomialMatrix) -> tuple[list[int], list[int]] | None:
    """Solve exponent(i, j) = u_i + t_j over the nonzero entries, if possible.

    One walk over 2r nodes, rows 0..r-1 then columns: a nonzero entry (i, j)
    joins i and r + j, whose values must sum to the entry's exponent.
    Every row starts a walk; only a zero column stays without a value, and
    ``h0_oracle`` rejects it as singular.
    """
    r = len(t)
    value: list[int | None] = [None] * (2 * r)
    for start in range(r):
        if value[start] is not None:
            continue
        value[start] = 0
        stack = [start]
        while stack:
            node = stack.pop()
            for m in range(r):
                i, j = (node, m) if node < r else (m, node - r)
                c, e = t[i][j]
                if c == 0:
                    continue
                other = r + j if node < r else i
                val = e - value[node]
                if value[other] is None:
                    value[other] = val
                    stack.append(other)
                elif value[other] != val:
                    return None
    return value[:r], value[r:]  # type: ignore[return-value]


def _h_separable(t: IntMonomialMatrix, split: tuple[list[int], list[int]], twists: range) -> dict[int, int]:
    """Exact h(k) for every twist k: levels decouple into constant rank computations.

    Writing s_j as a series in z**(m - t_j) for m <= t_j, the coefficient
    constraints at level m involve rows i with u_i < k - m only; each level
    contributes (number of active columns) - rank of the active submatrix.
    Sorting rows by u up and columns by t down makes every active submatrix
    a pair of prefixes, so one (r+1)**2 rank table serves every (k, m), and
    the pivots of one row-order elimination fill it.  They also decide the
    determinant, det C * z**(sum(u) + sum(t)): a row without a pivot makes
    it zero.
    """
    u, tj = split
    r = len(t)
    cols = sorted(range(r), key=lambda j: -tj[j])
    coeff = [[t[i][j][0] for j in cols] for i in sorted(range(r), key=lambda i: u[i])]
    _, pivots = _row_echelon(coeff)
    if None in pivots:
        raise ValueError("singular transition matrix")
    # rank[a][b]: the rank of coeff's first a rows on its first b columns = their pivots below b
    rank = [[0] * (r + 1)]
    for p in pivots:
        rank.append([x + (b > p) for b, x in enumerate(rank[-1])])
    u, tj = sorted(u), sorted(tj)  # ascending, for bisect_left
    h = {}
    for k in twists:
        m_lo = min(tj[0], k - u[-1]) - 1
        total = 0
        for m in range(m_lo, tj[-1] + 1):
            # level m has the columns with t_j >= m and the rows with u_i < k - m
            n_cols = r - bisect_left(tj, m)
            free = n_cols - rank[bisect_left(u, k - m)][n_cols]
            if free and m == m_lo:
                raise RuntimeError("sections below the lowest exponent level")
            total += free
        h[k] = total
    return h


# the r! determinant expansion of a non-separable transition; checked for every transition,
# separable ones too, so that no verdict depends on the route
_DETERMINANT_RANK_CAP = 8
_TRUNCATION_CAP = 4096


def _h_truncated(t: IntMonomialMatrix, k: int, det_exp: int, lo: int) -> int:
    """h(k) by bounded-depth elimination; depth bound from the adjugate formula.

    ``lo`` is the lowest exponent of a nonzero entry of ``t``.
    """
    r = len(t)
    depth = max(0, det_exp - k - (r - 1) * lo)
    if depth > _TRUNCATION_CAP:
        raise RuntimeError(f"section pole depth {depth} exceeds the hard cap {_TRUNCATION_CAP}")
    # variables s[j, m] for -depth <= m <= 0; one constraint per negative power per row
    var_index = {(j, m): j * (depth + 1) + (m + depth) for j in range(r) for m in range(-depth, 1)}
    rows: list[list[int]] = []
    p_min = lo - k - depth
    for i in range(r):
        for p in range(p_min, 0):
            row = [0] * len(var_index)
            touched = False
            for j in range(r):
                c, e = t[i][j]
                if c == 0:
                    continue
                m = p - e + k
                if -depth <= m <= 0:
                    row[var_index[(j, m)]] += c
                    touched = True
            if touched:
                rows.append(row)
    return len(var_index) - int_rank(rows)


def twist_system(
    system: SplittingSystem, aim: AugmentedIntersectionMatrix, column: Sequence[int]
) -> SplittingSystem:
    """Shift every wall tuple by the restriction degree of the line bundle class ``column``."""
    if tuple(w.tau for w in aim.row_walls) != system.taus:
        raise ValueError("system walls do not match the intersection matrix")
    shifts = apply_q(aim, column)
    return SplittingSystem(
        system.taus,
        tuple(tuple(d + shift for d in row) for row, shift in zip(system.degrees, shifts)),
    )


def format_system(system: SplittingSystem) -> str:
    lines = []
    for tau, row in zip(system.taus, system.degrees):
        lines.append(f"{wall_label(tau)}: " + " ".join(str(d) for d in row))
    return "\n".join(lines) + "\n"
