"""lp.solve against scipy's linprog on the same rows."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from devratio import lp

TOL = 1e-9


def reference(cost, ub, eq=(), bounds=(0.0, None)):
    """linprog(method="highs") on dense copies of the rows."""
    def dense(rows):
        if not rows:
            return None, None
        a = np.zeros((len(rows), len(cost)))
        for r, (coefs, _) in enumerate(rows):
            for col, val in coefs:
                a[r, col] += val
        return a, [bound for _, bound in rows]
    a_ub, b_ub = dense(ub)
    a_eq, b_eq = dense(eq)
    return linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                   bounds=bounds, method="highs")


def assert_feasible(x, ub, eq, bounds):
    def dot(coefs):
        return sum(val * x[col] for col, val in coefs)
    for coefs, bound in ub:
        assert dot(coefs) <= bound + TOL * max(1.0, abs(bound))
    for coefs, bound in eq:
        assert dot(coefs) == pytest.approx(bound, rel=TOL, abs=TOL)
    pairs = bounds if isinstance(bounds, list) else [bounds] * len(x)
    for value, (lo, hi) in zip(x, pairs):
        assert lo is None or value >= lo - TOL * max(1.0, abs(lo))
        assert hi is None or value <= hi + TOL * max(1.0, abs(hi))


def assert_matches(cost, ub, eq=(), bounds=(0.0, None)):
    got, want = lp.solve(cost, ub, eq, bounds), reference(cost, ub, eq, bounds)
    assert got.status == want.status, (got.message, want.message)
    assert got.success == (got.status == 0)
    if got.status == 0:
        assert math.isclose(got.fun, want.fun, rel_tol=TOL, abs_tol=TOL)
        assert_feasible(got.x, ub, eq, bounds)
    return got


coef = st.integers(-3, 3).map(float)
#: a (lo, hi) column bound, either side None; hi is None or at least lo
pair = st.tuples(st.sampled_from([None, -2.0, 0.0, 1.0]),
                 st.sampled_from([None, 0.0, 1.0, 3.0])).map(
    lambda p: (p[0], None if p[1] is None or p[0] is None
               else p[0] + p[1]))


@st.composite
def problems(draw):
    """Rows through an anchor point x0 inside the bounds: eq rows hold at
    x0, ub rows hold there unless their slack is -1."""
    n = draw(st.integers(1, 6))
    bounds = draw(st.one_of(pair, st.lists(pair, min_size=n, max_size=n)))
    x0 = [0.0 if lo is None else lo
          for lo, _ in (bounds if isinstance(bounds, list) else [bounds] * n)]

    def row(slack):
        coefs = draw(st.dictionaries(st.integers(0, n - 1), coef, min_size=1))
        return (list(coefs.items()),
                sum(v * x0[c] for c, v in coefs.items()) + slack)
    ub = [row(draw(st.integers(-1, 3)))
          for _ in range(draw(st.integers(0, 6)))]
    eq = [row(0.0) for _ in range(draw(st.integers(0, 3)))]
    return draw(st.lists(coef, min_size=n, max_size=n)), ub, eq, bounds


@given(problems())
@settings(max_examples=200, deadline=None)
def test_matches_linprog(problem):
    assert_matches(*problem)


def test_no_rows():
    got = assert_matches([1.0, 2.0], [], bounds=(1.0, 4.0))
    assert got.status == 0 and list(got.x) == [1.0, 1.0] and got.fun == 3.0


def test_eq_rows_only():
    got = assert_matches([1.0, 2.0], [], [([(0, 1.0), (1, 1.0)], 3.0)])
    assert got.status == 0 and list(got.x) == [3.0, 0.0]


def test_per_column_bounds():
    got = assert_matches([-1.0, 1.0], [([(0, 1.0), (1, -1.0)], 5.0)],
                         bounds=[(None, 2.0), (-1.0, None)])
    assert got.status == 0 and list(got.x) == [2.0, -1.0]


def test_repeated_column_in_a_row_adds_up():
    got = assert_matches([-1.0], [([(0, 1.0), (0, 1.0)], 2.0)])
    assert got.status == 0 and list(got.x) == [1.0]


def test_infeasible():
    got = assert_matches([1.0, 1.0], [([(0, 1.0), (1, 1.0)], -1.0)])
    assert got.status == 2 and not got.success


def test_unbounded():
    got = assert_matches([-1.0, 0.0], [([(1, 1.0)], 1.0)])
    assert got.status == 3 and not got.success
