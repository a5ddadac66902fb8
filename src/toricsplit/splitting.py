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

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, permutations
from math import gcd
from typing import TYPE_CHECKING, Sequence

from .exact_linear import Rat, clear_denominators, dot, int_kernel, int_rank, rat_invert
from .fan import Wall, wall_label

if TYPE_CHECKING:
    from .bundle_data import KaneyamaBundleData
    from .intersection import AugmentedIntersectionMatrix

Monomial = tuple[Fraction, int]
MonomialMatrix = tuple[tuple[Monomial, ...], ...]
IntMonomialMatrix = tuple[tuple[tuple[int, int], ...], ...]


@dataclass(frozen=True)
class RestrictionBlock:
    """One isotypic block of a wall restriction.

    ``stab_class`` is the common pairing of the block's weights against the
    wall's rays.  Chart-1 weights are stored non-increasing, chart-2 weights
    non-decreasing; ``pasting`` has chart-2 rows and chart-1 columns and is
    the part of the full pasting surviving the limit into the wall point,
    its entries as the bundle data holds them (``int`` or ``Fraction``).
    """

    stab_class: tuple[int, ...]
    chart1_weights: tuple[int, ...]
    chart2_weights: tuple[int, ...]
    pasting: tuple[tuple[Rat, ...], ...]


@dataclass(frozen=True)
class WallRestriction:
    wall: Wall
    v_chart: tuple[int, ...]
    blocks: tuple[RestrictionBlock, ...]

    def weight_difference_total(self) -> int:
        """Sum over blocks of (chart-1 total - chart-2 total); equals the restricted first Chern number."""
        return sum(
            sum(b.chart1_weights) - sum(b.chart2_weights) for b in self.blocks
        )


@dataclass(frozen=True)
class SplittingSystem:
    """One non-increasing degree tuple per wall, in the fan's wall order."""

    taus: tuple[tuple[int, ...], ...]
    degrees: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.taus) != len(self.degrees):
            raise ValueError("one degree tuple per wall required")
        for row in self.degrees:
            if any(row[k] < row[k + 1] for k in range(len(row) - 1)):
                raise ValueError(f"degree tuple {row} is not non-increasing")


def restrict(
    data: "KaneyamaBundleData", wall: Wall, v_chart: Sequence[int] | None = None
) -> WallRestriction:
    """Restrict validated bundle data to the invariant curve of ``wall``.

    ``v_chart`` selects the one-parameter subgroup measuring chart weights;
    any lattice point pairing to 1 against the wall conormal of the first
    chart is valid, and the default is the first chart's extra ray.  The
    resulting degrees are independent of the choice.  Each weight's key (its
    pairings with tau's rays) and chart weight are computed once, each chart
    is sorted once, and the blocks are the aligned runs of equal keys.
    """
    fan = data.fan
    c1, c2 = wall.sigma1, wall.sigma2
    if v_chart is None:
        v = fan.rays[wall.extra1]
    else:
        v = tuple(v_chart)
        if len(v) != fan.dim or not all(isinstance(x, int) for x in v):
            raise ValueError(f"v_chart {v} is not {fan.dim} integers")
        conormal = fan.duals[c1][fan.max_cones[c1].index(wall.extra1)]
        if dot(conormal, v) != 1:
            raise ValueError(f"v_chart {v} does not pair to 1 against the wall conormal")

    p = data.pasting(c2, c1)
    tau_rays = [fan.rays[t] for t in wall.tau]
    chart1, chart2 = (
        [(tuple(dot(chi, t) for t in tau_rays), dot(chi, v), i) for i, chi in enumerate(ws)]
        for ws in (data.weight_systems[c1], data.weight_systems[c2])
    )
    # chart 1 by key then weight descending, chart 2 ascending; stable, so ties keep stored order
    sorted1 = sorted(chart1, key=lambda e: (e[0], -e[1]))
    sorted2 = sorted(chart2, key=lambda e: (e[0], e[1]))
    if [e[0] for e in sorted1] != [e[0] for e in sorted2]:
        raise ValueError(f"net condition fails at wall tau {wall.tau} between cones {c1} and {c2}")

    # entries joining different isotypic classes must vanish in the limit
    # into the wall point; the support condition makes the exponent positive
    for k2, _, i2 in chart2:
        for (k1, _, i1), entry in zip(chart1, p[i2]):
            if entry != 0 and k1 != k2 and any(b < a for a, b in zip(k1, k2)):
                raise ValueError(
                    f"support fails for pasting ({c2},{c1}) entry ({i2},{i1}) at wall tau {wall.tau}"
                )

    blocks = []
    for key, run in groupby(zip(sorted1, sorted2), key=lambda pair: pair[0][0]):
        run1, run2 = zip(*run)
        _, t1, idx1 = zip(*run1)
        _, t2, idx2 = zip(*run2)
        blocks.append(RestrictionBlock(key, t1, t2, tuple(tuple(p[i2][i1] for i1 in idx1) for i2 in idx2)))
    return WallRestriction(wall, v, tuple(blocks))


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
    chart1[i] - chart2[j]; the scan finds a maximal-degree one through rank
    tests, splits it off by an integral basis change, and recurses.  A row
    is a chart-2 frame vector, and a nonzero scale changes no rank, kernel
    or degree, so rows are cleared of denominators once and stay integral.
    """
    w1 = list(chart1_weights)
    w2 = list(chart2_weights)
    r = len(w1)
    if len(w2) != r or len(pasting) != r or any(len(row) != r for row in pasting):
        raise ValueError("block shape mismatch")
    if not all(isinstance(x, int) for x in w1 + w2):
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
        i_cols, j_rows, v = _top_stratum(w1, w2, a)
        degrees.append(w1[i_cols[0]] - w2[j_rows[0]])
        _deflate(a, w1, w2, v, j_rows)
    degrees.extend(x - y for x, y in zip(w1, w2))
    return tuple(sorted(degrees, reverse=True))


def _weight_blocks(values: list[int]) -> list[list[int]]:
    blocks: list[list[int]] = []
    for idx, val in enumerate(values):
        if blocks and values[blocks[-1][0]] == val:
            blocks[-1].append(idx)
        else:
            blocks.append([idx])
    return blocks


def _top_stratum(
    w1: list[int], w2: list[int], a: list[list[int]]
) -> tuple[list[int], list[int], list[int]]:
    """Locate a maximal-degree non-empty stratum and return a witness vector."""
    col_blocks = _weight_blocks(w1)
    row_blocks = _weight_blocks(w2)
    nb_rows = len(row_blocks)

    rank_memo: dict[tuple[int, int], int] = {}

    def rank_b(k: int, l: int) -> int:
        # rows in row blocks k.. , columns in col blocks ..l (1-based block indices)
        if l == 0 or k == nb_rows + 1:
            return 0
        if (k, l) not in rank_memo:
            rows = [ri for blk in row_blocks[k - 1 :] for ri in blk]
            cols = [ci for blk in col_blocks[:l] for ci in blk]
            rank_memo[(k, l)] = int_rank([[a[ri][ci] for ci in cols] for ri in rows])
        return rank_memo[(k, l)]

    candidates = [
        (i, j)
        for i in range(1, len(col_blocks) + 1)
        for j in range(1, nb_rows + 1)
    ]
    candidates.sort(key=lambda ij: (-(w1[col_blocks[ij[0] - 1][0]] - w2[row_blocks[ij[1] - 1][0]]), ij))
    for i, j in candidates:
        n_i = len(col_blocks[i - 1])
        if rank_b(j + 1, i) - rank_b(j + 1, i - 1) >= n_i:
            continue
        if rank_b(j, i) <= rank_b(j + 1, i):
            continue
        cols = [ci for blk in col_blocks[:i] for ci in blk]
        deep_rows = [ri for blk in row_blocks[j:] for ri in blk]
        if deep_rows:
            basis = int_kernel([[a[ri][ci] for ci in cols] for ri in deep_rows])
        else:
            basis = [tuple(int(m == n) for n in range(len(cols))) for m in range(len(cols))]
        block_i_local = range(len(cols) - n_i, len(cols))
        j_rows = row_blocks[j - 1]

        def in_block_i(vec: Sequence[int]) -> bool:
            return any(vec[m] != 0 for m in block_i_local)

        def hits_row_block(vec: Sequence[int]) -> bool:
            return any(sum(a[ri][ci] * x for ci, x in zip(cols, vec)) != 0 for ri in j_rows)

        v1 = next((vec for vec in basis if in_block_i(vec)), None)
        v2 = next((vec for vec in basis if hits_row_block(vec)), None)
        if v1 is None or v2 is None:
            raise RuntimeError("a nonempty stratum has no witness vector")
        if hits_row_block(v1):
            local = v1
        elif in_block_i(v2):
            local = v2
        else:
            # v1 alone meets block i and v2 alone hits row block j, whatever their scales
            local = [x + y for x, y in zip(v1, v2)]
        full = [0] * len(w1)
        for m, ci in enumerate(cols):
            full[ci] = local[m]
        return col_blocks[i - 1], j_rows, full
    raise RuntimeError("no stratum found for an invertible pasting")


def _deflate(
    a: list[list[int]], w1: list[int], w2: list[int], v: list[int], j_rows: list[int]
) -> None:
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
    for restriction in data.restrictions:
        degs: list[int] = []
        for block in restriction.blocks:
            if len(block.chart1_weights) == 1:
                # one-dimensional isotypic block: degree is the weight difference
                degs.append(block.chart1_weights[0] - block.chart2_weights[0])
            else:
                degs.extend(bootstrap(block.chart1_weights, block.chart2_weights, block.pasting))
        taus.append(restriction.wall.tau)
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
    """
    r = len(transition)
    if any(len(row) != r for row in transition):
        raise ValueError("transition matrix must be square")
    if r == 0:
        return ()
    if r > _DETERMINANT_RANK_CAP:
        raise RuntimeError(f"transition rank {r} exceeds the determinant rank cap {_DETERMINANT_RANK_CAP}")
    t = _clear_rows(transition)
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

    exps = [e for row in t for c, e in row if c != 0]
    lo, hi = min(exps), max(exps)
    split = _separate_exponents(t)
    h = {}
    for k in range(lo, hi + 3):
        h[k] = _h_separable(t, split, k) if split else _h_truncated(t, k, det_exp)
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
    if not all(isinstance(e, int) for row in transition for _, e in row):
        raise ValueError("transition exponents must be integers")
    coeffs = clear_denominators([[c for c, _ in row] for row in transition])
    return tuple(
        tuple((c, e) for c, (_, e) in zip(crow, row)) for crow, row in zip(coeffs, transition)
    )


def _perm_sign(perm: tuple[int, ...]) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def _separate_exponents(t: IntMonomialMatrix) -> tuple[list[int], list[int]] | None:
    """Solve exponent(i, j) = u_i + t_j over the nonzero entries, if possible."""
    r = len(t)
    u: list[int | None] = [None] * r
    tt: list[int | None] = [None] * r
    for start in range(r):
        if u[start] is not None:
            continue
        u[start] = 0
        queue = [("row", start)]
        while queue:
            kind, idx = queue.pop()
            if kind == "row":
                for j in range(r):
                    c, e = t[idx][j]
                    if c == 0:
                        continue
                    val = e - u[idx]
                    if tt[j] is None:
                        tt[j] = val
                        queue.append(("col", j))
                    elif tt[j] != val:
                        return None
            else:
                for i in range(r):
                    c, e = t[i][idx]
                    if c == 0:
                        continue
                    val = e - tt[idx]
                    if u[i] is None:
                        u[i] = val
                        queue.append(("row", i))
                    elif u[i] != val:
                        return None
    if any(x is None for x in u) or any(x is None for x in tt):
        # a zero row or column; the determinant check rejects it first
        return None
    return u, tt  # type: ignore[return-value]


def _h_separable(t: IntMonomialMatrix, split: tuple[list[int], list[int]], k: int) -> int:
    """Exact h(k): levels decouple into constant rank computations.

    Writing s_j as a series in z**(m - t_j) for m <= t_j, the coefficient
    constraints at level m involve rows i with u_i < k - m only; each level
    contributes (number of active columns) - rank of the active submatrix.
    """
    u, tj = split
    r = len(t)
    coeff = [[t[i][j][0] for j in range(r)] for i in range(r)]
    m_lo = min(min(tj), k - max(u)) - 1
    total = 0
    for m in range(m_lo, max(tj) + 1):
        cols = [j for j in range(r) if m <= tj[j]]
        if not cols:
            continue
        rows = [i for i in range(r) if u[i] < k - m]
        contribution = len(cols) - int_rank([[coeff[i][j] for j in cols] for i in rows])
        if m == m_lo and contribution:
            raise RuntimeError("sections below the lowest exponent level")
        total += contribution
    return total


_DETERMINANT_RANK_CAP = 8  # the determinant sums over all r! permutations
_TRUNCATION_CAP = 4096


def _h_truncated(t: IntMonomialMatrix, k: int, det_exp: int) -> int:
    """h(k) by bounded-depth elimination; depth bound from the adjugate formula."""
    r = len(t)
    exps = [e for row in t for c, e in row if c != 0]
    depth = max(0, det_exp - k - (r - 1) * min(exps))
    if depth > _TRUNCATION_CAP:
        raise RuntimeError(f"section pole depth {depth} exceeds the hard cap {_TRUNCATION_CAP}")
    # variables s[j, m] for -depth <= m <= 0; one constraint per negative power per row
    var_index = {(j, m): j * (depth + 1) + (m + depth) for j in range(r) for m in range(-depth, 1)}
    rows: list[list[int]] = []
    p_min = min(exps) - k - depth
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
    system: SplittingSystem, aim: "AugmentedIntersectionMatrix", column: Sequence[int]
) -> SplittingSystem:
    """Shift every wall tuple by the restriction degree of the line bundle class ``column``."""
    from .intersection import apply_q

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
