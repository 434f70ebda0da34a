"""The package's one LP layer: constraint rows in, a HiGHS solution out.

A constraint is a ``(coefs, bound)`` pair with ``coefs = [(column, value),
...]``; a column named twice in a row counts with the sum of its values.
The ``ub`` rows, then the ``eq`` rows, go in the order given into one CSR
matrix, so the same rows give the same vertex, solved by
``scipy.optimize.milp`` with no integer columns. scipy is imported on the
first solve, not with the package.
"""
from __future__ import annotations

from collections.abc import Sequence

Row = tuple[list[tuple[int, float]], float]
INF = float("inf")


def solve(cost: list[float], ub: Sequence[Row], eq: Sequence[Row] = (),
          bounds=(0.0, None)):
    """Minimize cost . x subject to coefs . x <= bound for each row of
    ``ub``, coefs . x == bound for each row of ``eq``, and ``bounds`` on x:
    one ``(lo, hi)`` pair for all columns or a list of one per column,
    ``None`` for no bound. Returns scipy's OptimizeResult; the caller
    checks its ``status`` before reading ``x`` and ``fun``."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array
    rows = [*ub, *eq]
    cols, vals, indptr = [], [], [0]
    for coefs, _ in rows:
        cols += [col for col, _ in coefs]
        vals += [val for _, val in coefs]
        indptr.append(len(cols))
    matrix = csr_array((vals, cols, indptr), shape=(len(rows), len(cost)))
    matrix.sum_duplicates()
    upper = [bound for _, bound in rows]
    lower = [-INF] * len(ub) + upper[len(ub):]
    lo, hi = zip(*(bounds if isinstance(bounds[0], Sequence) else [bounds]))
    box = Bounds([-INF if v is None else v for v in lo],
                 [INF if v is None else v for v in hi])
    return milp(cost, bounds=box,
                constraints=LinearConstraint(matrix, lower, upper))
