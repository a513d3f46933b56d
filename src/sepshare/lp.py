"""Exact linear programming over the rationals.

Solves  maximize c.x  subject to  A.x <= b, x >= 0  with a two-phase
tableau simplex on sparse rows: a program's rows hold only their nonzero
coefficients from construction on, and each tableau row is a dict of
them, so a pivot touches only the rows with a nonzero in the entering
column, and in them only the pivot row's columns.  Program data are ints
or Fractions; the simplex divides, so `solve` copies them into a tableau
of Fractions and returns values and optimum by `rationals.exact`.
Bland's rule (smallest improving column, ties in the ratio test to the
smallest basic column) makes runs deterministic and rules out cycling.
Statuses are values, not exceptions, because infeasible and unbounded
programs are legitimate outcomes for callers.

Every optimum is certified before it is returned, against the original
program: the point is primal feasible and attains the reported value, and
the duals read off the final reduced costs are dual feasible with the same
value, which by weak duality proves the point optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InputError, InternalInvariant
from .rationals import exact

_ZERO = Fraction(0)
_ONE = Fraction(1)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


Row = tuple[tuple[int, int | Fraction], ...]


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x  s.t.  rows[k] . x <= rhs[k],  x >= 0.

    `objective` is dense.  Each row is (column, coefficient) pairs, columns
    ascending and in range, no coefficient zero; `build` takes dense rows.
    Pair tuples, not dicts, keep rows hashable and count one per nonzero."""

    objective: tuple[int | Fraction, ...]
    rows: tuple[Row, ...]
    rhs: tuple[int | Fraction, ...]

    def __post_init__(self) -> None:
        n = len(self.objective)
        if len(self.rows) != len(self.rhs):
            raise InputError("row / rhs length mismatch")
        for k, row in enumerate(self.rows):
            last = -1
            for j, a in row:
                if not (last < j < n and a):
                    raise InputError(f"row {k}: column {j} out of order or range, or zero")
                last = j

    @staticmethod
    def build(objective, rows, rhs) -> "LinearProgram":
        objective = tuple(map(exact, objective))
        sparse = []
        for row in rows:
            if len(row) != len(objective):
                raise InputError("row width does not match objective")
            sparse.append(tuple((j, a) for j, a in enumerate(map(exact, row)) if a))
        return LinearProgram(objective, tuple(sparse), tuple(map(exact, rhs)))


@dataclass(frozen=True)
class Solution:
    status: str
    values: tuple[int | Fraction, ...] = ()
    objective_value: Optional[int | Fraction] = None


# A tableau row maps column -> nonzero coefficient; its right-hand side is
# kept in a parallel list.
SparseRow = dict[int, Fraction]


def _axpy(target: SparseRow, factor: Fraction, row: SparseRow) -> None:
    """target -= factor * row, dropping entries that become zero."""
    for j, v in row.items():
        new = target.get(j, _ZERO) - factor * v
        if new:
            target[j] = new
        else:
            del target[j]


def _pivot(
    rows: list[SparseRow], rhs: list[Fraction], basis: list[int], r: int, c: int
) -> SparseRow:
    row = rows[r]
    piv = row[c]
    if piv != 1:
        inv = _ONE / piv
        rows[r] = row = {j: v * inv for j, v in row.items()}
        rhs[r] *= inv
    b = rhs[r]
    for rr, other in enumerate(rows):
        factor = other.get(c)
        if factor is None or rr == r:
            continue
        _axpy(other, factor, row)
        rhs[rr] -= factor * b
    basis[r] = c
    return row


def _simplex_loop(
    rows: list[SparseRow], rhs: list[Fraction], basis: list[int], costs: SparseRow
) -> tuple[str, Fraction, SparseRow]:
    """Bland-rule pivoting until optimal or unbounded.  Returns the status,
    the objective value of the final basis and its nonzero reduced costs."""
    z = dict(costs)
    value = _ZERO
    for r, col in enumerate(basis):
        cb = costs.get(col)
        if cb:
            value += cb * rhs[r]
            _axpy(z, cb, rows[r])
    while True:
        # sign test on the numerator: a Fraction comparison costs several
        # times more, and this scan runs over every nonzero reduced cost
        enter = min((j for j, v in z.items() if v.numerator > 0), default=None)
        if enter is None:
            return OPTIMAL, value, z
        best_r = -1
        best_ratio: Optional[Fraction] = None
        for r, row in enumerate(rows):
            a = row.get(enter)
            if a is None or a <= 0:
                continue
            ratio = rhs[r] / a
            if (
                best_ratio is None
                or ratio < best_ratio
                or (ratio == best_ratio and basis[r] < basis[best_r])
            ):
                best_ratio, best_r = ratio, r
        if best_ratio is None:
            return UNBOUNDED, value, z
        value += z[enter] * best_ratio
        _axpy(z, z[enter], _pivot(rows, rhs, basis, best_r, enter))


def solve(lp: LinearProgram) -> Solution:
    """Two-phase exact simplex.  Deterministic for identical inputs."""
    n = len(lp.objective)
    m = len(lp.rows)
    ncols = n + m  # structural + slack
    rows: list[SparseRow] = []
    rhs: list[Fraction] = []
    basis: list[int] = []
    artificials: SparseRow = {}  # phase-1 costs: -1 on each artificial column
    for k, row in enumerate(lp.rows):
        if lp.rhs[k] < 0:
            art = ncols + len(artificials)
            artificials[art] = -_ONE
            row = {j: -Fraction(a) for j, a in row}
            row[n + k] = -_ONE
            row[art] = _ONE
            rhs.append(-Fraction(lp.rhs[k]))
            basis.append(art)
        else:
            row = {j: Fraction(a) for j, a in row}
            row[n + k] = _ONE
            rhs.append(Fraction(lp.rhs[k]))
            basis.append(n + k)
        rows.append(row)

    if artificials:
        status, value, _z = _simplex_loop(rows, rhs, basis, artificials)
        if status != OPTIMAL:
            raise InternalInvariant("phase 1 cannot be unbounded")
        if value != 0:
            return Solution(status=INFEASIBLE)
        # Drive leftover (zero-valued) artificials out of the basis.  Every
        # row has its own slack, so [A | I] has full row rank and a basic
        # artificial's row always has a nonzero below the artificials.
        for r in range(m - 1, -1, -1):
            if basis[r] < ncols:
                continue
            pivot_col = min((j for j in rows[r] if j < ncols), default=None)
            if pivot_col is None:
                raise InternalInvariant(f"no pivot column to drive out the artificial of row {r}")
            _pivot(rows, rhs, basis, r, pivot_col)
        for row in rows:
            for j in [j for j in row if j >= ncols]:
                del row[j]

    costs = {j: Fraction(c) for j, c in enumerate(lp.objective) if c}
    status, value, z = _simplex_loop(rows, rhs, basis, costs)
    if status == UNBOUNDED:
        return Solution(status=UNBOUNDED)
    x = [_ZERO] * n
    for r, col in enumerate(basis):
        if col < n:
            x[col] = rhs[r]
    y = [-z.get(n + k, _ZERO) for k in range(m)]
    _certify(lp, x, y, value)
    return Solution(status=OPTIMAL, values=tuple(map(exact, x)), objective_value=exact(value))


def _certify(lp: LinearProgram, x: list[Fraction], y: list[Fraction], value: Fraction) -> None:
    """Prove `x` optimal with value `value` for `lp`: `x` is primal
    feasible and attains `value`, and `y` is dual feasible (y >= 0,
    A^T y >= c) with b.y == value."""
    if any(v < 0 for v in x):
        raise InternalInvariant("negative variable in reported optimum")
    for k, row in enumerate(lp.rows):
        lhs = sum((a * x[j] for j, a in row), _ZERO)
        if lhs > lp.rhs[k]:
            raise InternalInvariant(f"row {k} violated by reported optimum")
    obj = sum((c * v for c, v in zip(lp.objective, x)), _ZERO)
    if obj != value:
        raise InternalInvariant("objective value mismatch in reported optimum")
    if any(v < 0 for v in y):
        raise InternalInvariant("negative dual in reported optimum")
    aty = [_ZERO] * len(lp.objective)
    for row, yk in zip(lp.rows, y):
        if yk:
            for j, a in row:
                aty[j] += a * yk
    for j, c in enumerate(lp.objective):
        if aty[j] < c:
            raise InternalInvariant(f"dual constraint of column {j} violated")
    if sum((b * v for b, v in zip(lp.rhs, y)), _ZERO) != value:
        raise InternalInvariant("duality gap in reported optimum")

