"""Exact linear programming over the rationals.

Solves  maximize c.x  subject to  A.x <= b, x >= 0  with a two-phase
tableau simplex on sparse rows: a program's rows hold only their nonzero
coefficients from construction on, and each tableau row is a dict of
them.  Each connected component (columns joined by the rows they share,
an empty row alone) is pivoted on its own rows.  A pivot changes no other
component, and columns keep their global ids, so each component makes
the pivots that one tableau over the whole program would make in it.
The program is infeasible if a component is, else unbounded if one is or
a column in no row has a positive cost.
Program data, and every tableau entry, right-hand side, reduced cost and
objective value, are stored by the rule of `rationals.exact`: an int when
integral, a Fraction otherwise.  Slacks and artificials are the ints 1
and -1, and only a pivot other than 1 divides, so integral data whose
pivots are all 1 never make a Fraction.
Bland's rule (smallest improving column, ties in the ratio test to the
smallest basic column) makes runs deterministic and rules out cycling;
the ratio test compares rhs[r] / a by cross-multiplication, without
dividing.
Statuses are values, not exceptions, because infeasible and unbounded
programs are legitimate outcomes for callers.

Every optimum is certified before it is returned, against the original
program: the point is primal feasible and attains the reported value, and
the duals read off the final reduced costs are dual feasible with the same
value, which by weak duality proves the point optimal.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import InputError, InternalInvariant
from .rationals import exact

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


Number = int | Fraction
Row = tuple[tuple[int, Number], ...]


class _Program(NamedTuple):
    objective: tuple[int | Fraction, ...]
    rows: tuple[Row, ...]
    rhs: tuple[int | Fraction, ...]


class LinearProgram(_Program):
    """maximize objective . x  s.t.  rows[k] . x <= rhs[k],  x >= 0.

    `objective` is dense.  Each row is (column, coefficient) pairs, columns
    ascending and in range, no coefficient zero; `build` takes dense rows.
    Pair tuples, not dicts, keep rows hashable and count one per nonzero.
    Every number is stored by the rule of `rationals.exact`; `build`
    converts, the constructor only checks (`_make` and `_replace` build
    the tuple directly and do not)."""

    __slots__ = ()

    def __new__(cls, objective, rows, rhs) -> LinearProgram:
        n = len(objective)
        if len(rows) != len(rhs):
            raise InputError("row / rhs length mismatch")
        for where, values in (("objective", objective), ("rhs", rhs)):
            if bad := [v for v in values if type(exact(v)) is not type(v)]:
                raise InputError(f"{where} entry {bad[0]!r} is not stored by rationals.exact")
        for k, row in enumerate(rows):
            last = -1
            for j, a in row:
                if not (last < j < n and a):
                    raise InputError(f"row {k}: column {j} out of order or range, or zero")
                if type(exact(a)) is not type(a):
                    raise InputError(f"row {k}: coefficient {a!r} is not stored by rationals.exact")
                last = j
        return super().__new__(cls, objective, rows, rhs)

    @staticmethod
    def build(objective, rows, rhs) -> "LinearProgram":
        objective = tuple(map(exact, objective))
        sparse = []
        for row in rows:
            if len(row) != len(objective):
                raise InputError("row width does not match objective")
            sparse.append(tuple((j, a) for j, a in enumerate(map(exact, row)) if a))
        return LinearProgram(objective, tuple(sparse), tuple(map(exact, rhs)))


class Solution(NamedTuple):
    status: str
    values: tuple[int | Fraction, ...] = ()
    objective_value: Optional[int | Fraction] = None


# A tableau row maps column -> nonzero coefficient; its right-hand side is
# kept in a parallel list.
SparseRow = dict[int, Number]


def _axpy(target: SparseRow, factor: Number, row: SparseRow) -> None:
    """target -= factor * row, dropping entries that become zero."""
    for j, v in row.items():
        new = target.get(j, 0) - factor * v
        if new:
            target[j] = exact(new)
        else:
            del target[j]


def _pivot(
    rows: list[SparseRow], rhs: list[Number], basis: list[int], r: int, c: int
) -> SparseRow:
    row = rows[r]
    piv = row[c]
    if piv != 1:
        inv = 1 / Fraction(piv)
        rows[r] = row = {j: exact(v * inv) for j, v in row.items()}
        rhs[r] = exact(rhs[r] * inv)
    b = rhs[r]
    for rr, other in enumerate(rows):
        factor = other.get(c)
        if factor is None or rr == r:
            continue
        _axpy(other, factor, row)
        rhs[rr] = exact(rhs[rr] - factor * b)
    basis[r] = c
    return row


def _simplex_loop(
    rows: list[SparseRow], rhs: list[Number], basis: list[int], costs: SparseRow
) -> tuple[str, Number, SparseRow]:
    """Bland-rule pivoting until optimal or unbounded.  Returns the status,
    the objective value of the final basis and its nonzero reduced costs."""
    z = dict(costs)
    value = 0
    for r, col in enumerate(basis):
        cb = costs.get(col)
        if cb:
            value = exact(value + cb * rhs[r])
            _axpy(z, cb, rows[r])
    while True:
        enter = min((j for j, v in z.items() if v > 0), default=None)
        if enter is None:
            return OPTIMAL, value, z
        # rhs[r] / a < rhs[best_r] / best_a as rhs[r] * best_a < rhs[best_r] * a,
        # since both a are positive; a tie goes to the smaller basic column
        best_r = -1
        for r, row in enumerate(rows):
            a = row.get(enter)
            if a is None or a <= 0:
                continue
            if best_r >= 0:
                new, old = rhs[r] * best_a, rhs[best_r] * a
                if new > old or (new == old and basis[r] > basis[best_r]):
                    continue
            best_r, best_a = r, a
        if best_r < 0:
            return UNBOUNDED, value, z
        gain = z[enter]
        row = _pivot(rows, rhs, basis, best_r, enter)
        # the entering column's new value, rhs[best_r], is the winning ratio
        value = exact(value + gain * rhs[best_r])
        _axpy(z, gain, row)


def solve(lp: LinearProgram) -> Solution:
    """Two-phase exact simplex on each connected component of the program
    in turn, in the order of their first rows.  Deterministic for
    identical inputs."""
    n = len(lp.objective)
    ncols = n + len(lp.rows)  # structural + slack
    # Union-find over the columns in one walk over the nonzeros: `owner`
    # maps each column to its block (rows, columns, costs), and a row merges
    # the blocks of its columns, each smaller one into the larger.
    owner: list[Optional[tuple[list[int], list[int], SparseRow]]] = [None] * n
    blocks = []
    for k, row in enumerate(lp.rows):
        block = owner[row[0][0]] if row else None
        if block is None:
            blocks.append(block := ([], [], {}))
        block[0].append(k)
        for j, _a in row:
            other = owner[j]
            if other is None:
                owner[j] = block
                block[1].append(j)
            elif other is not block:
                if len(other[1]) < len(block[1]):
                    other, block = block, other
                for jj in block[1]:
                    owner[jj] = other
                other[0].extend(block[0])
                other[1].extend(block[1])
                block[0].clear()  # merged: no longer a block
                block = other
    unbounded = False  # so far: a column in no row with a positive cost
    for j, c in enumerate(lp.objective):
        if c:
            if owner[j] is not None:
                owner[j][2][j] = c
            elif c > 0:
                unbounded = True
    for ks, _cols, _costs in blocks:
        ks.sort()

    x, y = [0] * n, [0] * len(lp.rows)
    value: Number = 0
    for ks, _cols, costs in sorted(block for block in blocks if block[0]):
        rows, rhs, basis = [], [], []
        artificials: SparseRow = {}  # phase-1 costs: -1 on each artificial column
        for k in ks:
            row, b = dict(lp.rows[k]), lp.rhs[k]
            row[n + k] = 1
            if b < 0:  # negated, with an artificial in the basis
                row = {j: -a for j, a in row.items()}
                row[ncols + k] = 1
                artificials[ncols + k] = -1
            rows.append(row)
            rhs.append(abs(b))
            basis.append(n + k if b >= 0 else ncols + k)

        if artificials:
            status, phase1, _z = _simplex_loop(rows, rhs, basis, artificials)
            if status != OPTIMAL:
                raise InternalInvariant("phase 1 cannot be unbounded")
            if phase1 != 0:
                return Solution(status=INFEASIBLE)
            # Drive leftover (zero-valued) artificials out of the basis.  Every
            # row has its own slack, so [A | I] has full row rank and a basic
            # artificial's row always has a nonzero below the artificials.
            for r in range(len(rows) - 1, -1, -1):
                if basis[r] < ncols:
                    continue
                pivot_col = min((j for j in rows[r] if j < ncols), default=None)
                if pivot_col is None:
                    raise InternalInvariant(f"no pivot column to drive out the artificial of row {ks[r]}")
                _pivot(rows, rhs, basis, r, pivot_col)
            for row in rows:
                for j in [j for j in row if j >= ncols]:
                    del row[j]

        if unbounded:
            continue  # the later components may still be infeasible
        status, part, z = _simplex_loop(rows, rhs, basis, costs)
        if status == UNBOUNDED:
            unbounded = True
            continue
        value += part
        for r, col in enumerate(basis):
            if col < n:
                x[col] = rhs[r]
        for k in ks:
            y[k] = -z.get(n + k, 0)
    if unbounded:
        return Solution(status=UNBOUNDED)
    value = exact(value)
    _certify(lp, x, y, value)
    return Solution(status=OPTIMAL, values=tuple(x), objective_value=value)


def _certify(lp: LinearProgram, x: list[Number], y: list[Number], value: Number) -> None:
    """Prove `x` optimal with value `value` for `lp`: `x` is primal
    feasible and attains `value`, and `y` is dual feasible (y >= 0,
    A^T y >= c) with b.y == value.  One walk over the nonzeros sums both
    A x and A^T y."""
    if any(v < 0 for v in x):
        raise InternalInvariant("negative variable in reported optimum")
    if any(v < 0 for v in y):
        raise InternalInvariant("negative dual in reported optimum")
    aty = [0] * len(lp.objective)
    for k, row in enumerate(lp.rows):
        lhs, yk = 0, y[k]
        for j, a in row:
            lhs += a * x[j]
            if yk:
                aty[j] += a * yk
        if lhs > lp.rhs[k]:
            raise InternalInvariant(f"row {k} violated by reported optimum")
    if sum(c * v for c, v in zip(lp.objective, x)) != value:
        raise InternalInvariant("objective value mismatch in reported optimum")
    for j, c in enumerate(lp.objective):
        if aty[j] < c:
            raise InternalInvariant(f"dual constraint of column {j} violated")
    if sum(b * v for b, v in zip(lp.rhs, y)) != value:
        raise InternalInvariant("duality gap in reported optimum")
