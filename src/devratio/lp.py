"""The package's one LP layer: constraint rows in, a HiGHS solution out.

A constraint is a ``(coefs, bound)`` pair with ``coefs = [(column, value),
...]``. Rows reach HiGHS in the order given, so the same rows give the same
vertex. scipy is imported on the first solve, not with the package.
"""
from __future__ import annotations

from collections.abc import Sequence

Row = tuple[list[tuple[int, float]], float]


def _rows(rows: Sequence[Row], n_cols: int):
    """The rows as a sparse matrix and its bounds; (None, None) if none."""
    if not rows:
        return None, None
    from scipy.sparse import coo_array
    i, j, v = zip(*((r, col, val) for r, (coefs, _) in enumerate(rows)
                    for col, val in coefs))
    return (coo_array((v, (i, j)), shape=(len(rows), n_cols)),
            [bound for _, bound in rows])


def solve(cost: list[float], ub: Sequence[Row], eq: Sequence[Row] = (),
          bounds=(0.0, None)):
    """Minimize cost . x subject to coefs . x <= bound for each row of
    ``ub``, coefs . x == bound for each row of ``eq``, and ``bounds`` on x.
    Returns scipy's OptimizeResult; the caller checks its status."""
    from scipy.optimize import linprog
    a_ub, b_ub = _rows(ub, len(cost))
    a_eq, b_eq = _rows(eq, len(cost))
    return linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                   bounds=bounds, method="highs")
