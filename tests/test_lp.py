"""Exact simplex against two independent references and against one
tableau over the whole program, and the number rule of `rationals.exact`
on its data and its tableau."""

import random
from collections import Counter
from fractions import Fraction as F

import pytest

import sepshare.lp
from _helpers import scaled_doc, stored
from _oracles import fourier_motzkin_status, vertex_lp, whole_tableau_solve
from sepshare.errors import InputError, InternalInvariant
from sepshare.gen import gen_sp
from sepshare.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    _certify,
    solve,
)
from sepshare.nsepa import build_lp
from sepshare.schema import game_from_json, game_to_json


def lp(objective, rows, rhs):
    return LinearProgram.build(objective, rows, rhs)


def _watch_pivots(monkeypatch) -> tuple[list, set]:
    """Wrap `lp._pivot` so that after every pivot each tableau entry and
    right-hand side must be stored by the rule of `rationals.exact`.
    Returns the pivot elements seen and the types of the values checked."""
    pivots, kinds = [], set()
    real = sepshare.lp._pivot

    def checked(rows, rhs, basis, r, c):
        pivots.append(rows[r][c])
        pivot_row = real(rows, rhs, basis, r, c)
        values = [v for row in rows for v in row.values()] + rhs
        assert all(map(stored, values)), [v for v in values if not stored(v)][:5]
        kinds.update(map(type, values))
        return pivot_row

    monkeypatch.setattr(sepshare.lp, "_pivot", checked)
    return pivots, kinds


def _fractional_lp(rng):
    """Coefficients and right-hand sides p/q with q <= 6, some right-hand
    sides negative, and up to two repeated rows, some of them scaled."""
    def q(low, high):
        return F(rng.randint(low, high), rng.randint(1, 6))

    n = rng.randint(1, 3)
    m = rng.randint(1, 4)
    obj = [q(-5, 6) for _ in range(n)]
    rows = [[q(-4, 5) for _ in range(n)] for _ in range(m)]
    rhs = [q(-3, 8) for _ in range(m)]
    for _ in range(rng.randint(0, 2)):
        k = rng.randrange(len(rows))
        s = rng.choice([1, q(1, 6)])
        rows.append([a * s for a in rows[k]])
        rhs.append(rhs[k] * s)
    return obj, rows, rhs


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

    def test_the_tableau_follows_the_number_rule(self, monkeypatch):
        pivots, kinds = _watch_pivots(monkeypatch)
        rng = random.Random(20240901)
        # 500 programs: a program stops pivoting at its first infeasible
        # component, so the first 400 make only 288 pivots
        for k in range(500):
            obj, rows, rhs = self._random_lp(rng) if k < 250 else self._sparse_random_lp(rng)
            solve(lp(obj, rows, rhs))
        # pivots other than 1 and -1 divide, and some of them leave Fractions
        assert len(pivots) > 300 and {abs(p) for p in pivots} - {1}
        assert kinds == {int, F}

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


class TestFractionalData:
    def test_status_and_value_match_both_oracles(self):
        rng = random.Random(6)
        statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
        negative = fractional = 0
        for _ in range(360):
            obj, rows, rhs = _fractional_lp(rng)
            sol = solve(lp(obj, rows, rhs))
            vstatus, vvalue = vertex_lp(obj, rows, rhs)
            fstatus, fvalue = fourier_motzkin_status(obj, rows, rhs)
            assert sol.status == vstatus == fstatus
            if sol.status == OPTIMAL:
                assert sol.objective_value == vvalue == fvalue
                assert all(map(stored, sol.values)) and stored(sol.objective_value)
                fractional += any(type(v) is F for v in sol.values)
            statuses[sol.status] += 1
            negative += min(rhs) < 0
        assert all(statuses.values()) and negative > 100 and fractional > 50, statuses

    def test_scaling_a_row_moves_no_vertex(self):
        """A row and its rhs times s > 0 scale every ratio of that row by
        1, and the row's slack by s, so no ratio comparison, no reduced
        cost's sign and no Bland choice changes, and neither does the
        vertex.  Only rows with rhs >= 0: a row with rhs < 0 has an
        artificial, and scaling it reweights the phase-1 objective."""
        rng = random.Random(11)
        scaled = 0
        for _ in range(300):
            obj, rows, rhs = _fractional_lp(rng)
            before = solve(lp(obj, rows, rhs))
            for k, b in enumerate(rhs):
                if b < 0:
                    continue
                s = F(rng.randint(1, 12), rng.randint(1, 12))
                rows2 = [[a * s for a in row] if kk == k else row for kk, row in enumerate(rows)]
                rhs2 = [bb * s if kk == k else bb for kk, bb in enumerate(rhs)]
                after = solve(lp(obj, rows2, rhs2))
                assert after == before, (obj, rows, rhs, k, s)
                scaled += before.status == OPTIMAL
        assert scaled > 200


@pytest.mark.parametrize("q", [1, 2], ids=["integral", "halved"])
def test_the_enforceability_tableau_follows_the_number_rule(monkeypatch, q):
    """`build_lp` of `gen_sp` games, as generated and with every cost and
    delay halved: its coefficients are all 1, so every pivot is a unit and
    the tableau is integral exactly when the costs are."""
    pivots, kinds = _watch_pivots(monkeypatch)
    for seed in range(60):
        game, profile = gen_sp(random.Random(seed), players=1 + seed % 4)
        game = game_from_json(scaled_doc(game_to_json(game), q))
        solve(build_lp(game, profile).lp)
    assert len(pivots) > 100 and {abs(p) for p in pivots} == {1}
    assert kinds == ({int} if q == 1 else {int, F})


def _same_as_whole_tableau(prog: LinearProgram):
    """`solve` and the whole-tableau reference return equal `Solution`s,
    with every number of the same type and stored by the rule."""
    sol, ref = solve(prog), whole_tableau_solve(prog)
    assert sol == ref, (prog, sol, ref)
    numbers, ref_numbers = (s.values + (s.objective_value,) for s in (sol, ref))
    assert list(map(type, numbers)) == list(map(type, ref_numbers))
    assert all(v is None or stored(v) for v in numbers)
    return sol


def _block_diagonal(rng):
    """A program assembled from one to three random blocks, empty rows and
    columns in no row, its rows and columns shuffled.  Returns it with
    the blocks' own statuses, a column in no row counted UNBOUNDED when
    its cost is positive and an empty row INFEASIBLE when its rhs is
    negative."""
    blocks, statuses = [], []
    for _ in range(rng.randint(1, 3)):
        obj, rows, rhs = rng.choice([TestAgainstOracles()._sparse_random_lp, _fractional_lp])(rng)
        if rng.random() < 1 / 2:  # feasible at 0, so optimal or unbounded
            rhs = [abs(b) for b in rhs]
        blocks.append((obj, rows, rhs))
        statuses.append(whole_tableau_solve(lp(obj, rows, rhs)).status)
    for _ in range(rng.choice([0, 0, 1, 2])):  # columns in no row
        c = rng.randint(-2, 1)
        blocks.append(([c], [], []))
        statuses.append(UNBOUNDED if c > 0 else OPTIMAL)
    for _ in range(rng.choice([0, 0, 1, 2])):  # empty rows
        b = rng.randint(-1, 5)
        blocks.append(([], [[]], [b]))
        statuses.append(INFEASIBLE if b < 0 else OPTIMAL)
    n = sum(len(obj) for obj, _rows, _rhs in blocks)
    place = list(range(n))
    rng.shuffle(place)
    obj, rows, rhs = [0] * n, [], []
    at = 0
    for bobj, brows, brhs in blocks:
        cols = place[at:at + len(bobj)]
        at += len(bobj)
        for j, c in zip(cols, bobj):
            obj[j] = c
        for brow, b in zip(brows, brhs):
            row = [0] * n
            for j, a in zip(cols, brow):
                row[j] = a
            rows.append((row, b))
    rng.shuffle(rows)
    return lp(obj, [row for row, _b in rows], [b for _row, b in rows]), statuses


def _components(prog: LinearProgram) -> list:
    """The row sets of the program's connected components, by search over
    rows that share a column; empty rows are left out."""
    left = {k for k, row in enumerate(prog.rows) if row}
    out = []
    while left:
        todo, comp = [left.pop()], set()
        while todo:
            k = todo.pop()
            comp.add(k)
            cols = {j for j, _a in prog.rows[k]}
            near = {kk for kk in left if cols & {j for j, _a in prog.rows[kk]}}
            left -= near
            todo += near
        out.append(comp)
    return out


class TestComponents:
    """`solve` pivots each connected component on its own rows and must
    return exactly what one tableau over the whole program returns."""

    def test_the_oracle_programs_solve_as_one_tableau(self):
        oracles, rng = TestAgainstOracles(), random.Random(20240901)
        for k in range(400):
            make = oracles._random_lp if k < 250 else oracles._sparse_random_lp
            _same_as_whole_tableau(lp(*make(rng)))
        rng = random.Random(6)
        for _ in range(360):
            _same_as_whole_tableau(lp(*_fractional_lp(rng)))

    def test_block_diagonal_programs_solve_as_one_tableau(self):
        rng = random.Random(27)
        seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0, "infeasible and unbounded blocks": 0}
        edges = Counter()
        for _ in range(400):
            prog, statuses = _block_diagonal(rng)
            used = {j for row in prog.rows for j, _a in row}
            edges.update(("empty row", (b > 0) - (b < 0)) for row, b in zip(prog.rows, prog.rhs)
                         if not row)
            edges.update(("column in no row", (c > 0) - (c < 0))
                         for j, c in enumerate(prog.objective) if j not in used)
            sol = _same_as_whole_tableau(prog)
            if INFEASIBLE in statuses:
                assert sol.status == INFEASIBLE
                seen["infeasible and unbounded blocks"] += UNBOUNDED in statuses
            elif UNBOUNDED in statuses:
                assert sol.status == UNBOUNDED
            else:
                assert sol.status == OPTIMAL
            seen[sol.status] += 1
        assert min(seen.values()) > 50, seen
        # every sign of an empty row's rhs and of a lone column's cost
        assert len(edges) == 6 and min(edges.values()) > 10, edges

    def test_each_pivot_gets_only_its_components_rows(self, monkeypatch):
        """A tableau row's slack columns name the program rows it mixes,
        and the slack columns of a component's tableau are invertible, so
        they name all of its rows: the rows a pivot is given must be
        exactly one component's."""
        rng = random.Random(28)
        programs = [_block_diagonal(rng)[0] for _ in range(400)]
        real = sepshare.lp._pivot
        pivots = 0

        def local(rows, rhs, basis, r, c):
            nonlocal pivots
            n, m = len(prog.objective), len(prog.rows)
            named = {j - n for row in rows for j in row if n <= j < n + m}
            assert len(named) == len(rows) and named in components, (named, components)
            pivots += 1
            return real(rows, rhs, basis, r, c)

        monkeypatch.setattr(sepshare.lp, "_pivot", local)
        for prog in programs:
            components = _components(prog)
            solve(prog)
        assert pivots > 200, pivots


class TestNumberRule:
    @pytest.mark.parametrize("place", ["objective", "coefficient", "rhs"])
    @pytest.mark.parametrize(
        "bad", [0.1, 1.0, True, "1", None, F(2, 1)],
        ids=["float", "integral-float", "bool", "string", "none", "integral-fraction"],
    )
    def test_a_number_off_the_rule_is_an_input_error(self, place, bad):
        objective, row, rhs = [1, F(1, 2)], [(0, 1), (1, F(3, 2))], [2]
        LinearProgram(tuple(objective), (tuple(row),), tuple(rhs))
        if place == "objective":
            objective[0] = bad
        elif place == "coefficient":
            row[0] = (0, bad)
        else:
            rhs[0] = bad
        with pytest.raises(InputError):
            LinearProgram(tuple(objective), (tuple(row),), tuple(rhs))

    @pytest.mark.parametrize("bad", [0.1, True], ids=["float", "bool"])
    def test_build_rejects_a_float_or_a_bool(self, bad):
        for objective, rows, rhs in ([bad], [[1]], [1]), ([1], [[bad]], [1]), ([1], [[1]], [bad]):
            with pytest.raises(InputError):
                LinearProgram.build(objective, rows, rhs)


class TestTextFormat:
    def test_shape_validation(self):
        with pytest.raises(InputError):
            LinearProgram.build([1, 2], [[1]], [1])
        with pytest.raises(InputError):
            LinearProgram.build([1], [[1]], [1, 2])


class TestRowForm:
    def test_build_keeps_only_the_nonzeros_in_column_order(self):
        prog = LinearProgram.build([1, 1, 1], [[0, 2, 0], [3, 0, -1], [0, 0, 0]], [1, 2, 3])
        assert prog.rows == (((1, 2),), ((0, 3), (2, -1)), ())
        assert {type(a) for row in prog.rows for _j, a in row} == {int}
        assert LinearProgram(prog.objective, prog.rows, prog.rhs) == prog

    @pytest.mark.parametrize(
        "row",
        [((2, 1),), ((-1, 1),), ((1, 1), (1, 2)), ((1, 1), (0, 2)), ((0, 0),)],
        ids=["column-past-the-end", "negative-column", "repeated-column", "unsorted-columns",
             "zero-coefficient"],
    )
    def test_malformed_sparse_row_is_rejected(self, row):
        LinearProgram((1, 1), (((0, 1),),), (1,))
        with pytest.raises(InputError):
            LinearProgram((1, 1), (row,), (1,))
