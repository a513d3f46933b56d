"""Exact simplex against two independent references."""

import random
from fractions import Fraction as F

import pytest

from _oracles import fourier_motzkin_status, vertex_lp
from sepshare.errors import InputError, InternalInvariant
from sepshare.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    _certify,
    solve,
)


def lp(objective, rows, rhs):
    return LinearProgram.build(objective, rows, rhs)


class TestKnownPrograms:
    def test_single_bound(self):
        sol = solve(lp([1], [[1]], [1]))
        assert sol.status == OPTIMAL
        assert sol.values == (F(1),)
        assert sol.objective_value == 1

    def test_negative_bound_is_infeasible(self):
        assert solve(lp([1], [[1]], [-1])).status == INFEASIBLE

    def test_two_variable_vertex(self):
        sol = solve(lp([3, 2], [[1, 1], [1, 0]], [4, 2]))
        assert sol.status == OPTIMAL
        assert sol.values == (F(2), F(2))
        assert sol.objective_value == 10

    def test_unbounded_direction(self):
        assert solve(lp([1, 0], [[-1, 1]], [0])).status == UNBOUNDED

    def test_zero_objective_on_feasible_region(self):
        sol = solve(lp([0, 0], [[1, 1]], [5]))
        assert sol.status == OPTIMAL
        assert sol.objective_value == 0

    def test_degenerate_rows_terminate(self):
        # redundant and zero rows must not cycle
        sol = solve(lp([1, 1], [[1, 1], [1, 1], [0, 0]], [3, 3, 0]))
        assert sol.status == OPTIMAL
        assert sol.objective_value == 3

    def test_determinism(self):
        prog = lp([2, 1, 1], [[1, 1, 0], [0, 1, 1], [1, 0, 1]], [4, 4, 4])
        assert solve(prog) == solve(prog)


class TestCertificate:
    # maximize x0 + x1  s.t.  x0 + x1 <= 4,  x0 <= 2: the optimum is 4, and
    # y = (1, 0) proves it.  x = (1, 1) is feasible with value 2, but no
    # dual feasible y has b.y == 2, so any claimed dual must fail.
    PROG = LinearProgram.build([1, 1], [[1, 1], [1, 0]], [4, 2])

    def test_optimum_with_its_dual_is_accepted(self):
        _certify(self.PROG, [F(2), F(2)], [F(1), F(0)], F(4))

    @pytest.mark.parametrize(
        "dual",
        [(F(0), F(1)), (F(1), F(0)), (F(-1), F(3))],
        ids=["dual-infeasible", "duality-gap", "negative-dual"],
    )
    def test_feasible_but_not_optimal_point_is_rejected(self, dual):
        x = [F(1), F(1)]
        with pytest.raises(InternalInvariant):
            _certify(self.PROG, x, list(dual), F(2))


class TestAgainstOracles:
    def _random_lp(self, rng, max_vars=3):
        n = rng.randint(1, max_vars)
        m = rng.randint(1, 4)
        obj = [F(rng.randint(-5, 6)) for _ in range(n)]
        rows = [[F(rng.randint(-4, 5)) for _ in range(n)] for _ in range(m)]
        rhs = [F(rng.randint(-3, 8)) for _ in range(m)]
        return obj, rows, rhs

    def _sparse_random_lp(self, rng):
        """More rows than columns, about a third of the coefficients nonzero."""
        n = rng.randint(2, 3)
        m = rng.randint(n + 1, 7)
        obj = [F(rng.randint(-5, 6)) for _ in range(n)]
        rows = [[F(rng.randint(-4, 5)) if rng.random() < 1 / 3 else F(0)
                 for _ in range(n)] for _ in range(m)]
        rhs = [F(rng.randint(-3, 8)) for _ in range(m)]
        return obj, rows, rhs

    def test_status_and_value_match_both_oracles(self):
        rng = random.Random(20240901)
        statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
        for k in range(400):
            obj, rows, rhs = self._random_lp(rng) if k < 250 else self._sparse_random_lp(rng)
            sol = solve(lp(obj, rows, rhs))
            vstatus, vvalue = vertex_lp(obj, rows, rhs)
            fstatus, _fvalue = fourier_motzkin_status(obj, rows, rhs)
            assert sol.status == vstatus == fstatus
            if sol.status == OPTIMAL:
                assert sol.objective_value == vvalue
            statuses[sol.status] += 1
        # the sample must actually exercise all three outcomes
        assert all(statuses.values()), statuses

    def test_optimal_points_satisfy_all_rows(self):
        rng = random.Random(7)
        for _ in range(80):
            obj, rows, rhs = self._random_lp(rng)
            sol = solve(lp(obj, rows, rhs))
            if sol.status != OPTIMAL:
                continue
            assert all(v >= 0 for v in sol.values)
            for row, b in zip(rows, rhs):
                assert sum(a * v for a, v in zip(row, sol.values)) <= b


class TestTextFormat:
    def test_shape_validation(self):
        with pytest.raises(InputError):
            LinearProgram.build([1, 2], [[1]], [1])
        with pytest.raises(InputError):
            LinearProgram.build([1], [[1]], [1, 2])


class TestRowForm:
    def test_build_keeps_only_the_nonzeros_in_column_order(self):
        prog = LinearProgram.build([1, 1, 1], [[0, 2, 0], [3, 0, -1], [0, 0, 0]], [1, 2, 3])
        assert prog.rows == (((1, F(2)),), ((0, F(3)), (2, F(-1))), ())
        assert LinearProgram(prog.objective, prog.rows, prog.rhs) == prog

    @pytest.mark.parametrize(
        "row",
        [((2, F(1)),), ((-1, F(1)),), ((1, F(1)), (1, F(2))), ((1, F(1)), (0, F(2))),
         ((0, F(0)),)],
        ids=["column-past-the-end", "negative-column", "repeated-column", "unsorted-columns",
             "zero-coefficient"],
    )
    def test_malformed_sparse_row_is_rejected(self, row):
        with pytest.raises(InputError):
            LinearProgram((F(1), F(1)), (row,), (F(1),))
