"""One seam for every linear program robustcert solves.

``solve(linprog, c, ...)`` takes the caller module's ``linprog`` binding as
its first argument.  When that binding is SciPy's own ``linprog`` and the
private HiGHS names below import, the LP goes to HiGHS directly, doing what
``scipy.optimize._linprog_highs`` does for ``method="highs"`` with SciPy's
default options, minus the per-call option validation, the ``scipy.sparse``
conversion and the bound marginals that no caller reads.  Results are
bit-identical to ``linprog(..., method="highs")``: the same cleaned inputs,
the same CSC matrix, the same five HiGHS options, one fresh solver per LP
as linprog makes (so no state of one LP can reach the next), and the same
status mapping and result check at linprog's tolerance.

Any other binding (a counting or timing wrapper installed on a module's
``linprog``) is called as ``linprog(..., method="highs")``, so
instrumentation still sees every LP.  The same path is taken when a private
name is missing, as on SciPy releases that moved it.

The solver is HiGHS (Huangfu & Hall, Math. Prog. Comp. 10, 2018).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.optimize import OptimizeResult
from scipy.optimize import linprog as _scipy_linprog

try:
    from scipy.optimize._highspy import _core as _h
    from scipy.optimize._linprog_highs import (
        _highs_to_scipy_status_message,
        _replace_inf,
    )
    from scipy.optimize._linprog_util import (
        _check_result,
        _clean_inputs,
        _LPProblem,
    )
except ImportError:  # pragma: no cover - private names moved
    DIRECT = False
else:
    DIRECT = True

TOL = 1e-9  # linprog's default ``tol``, used by its result check

_options = None


def _highs_options():
    """The options linprog passes HiGHS by default, built once."""
    global _options
    if _options is None:
        opts = _h.HighsOptions()
        opts.presolve = "on"
        opts.highs_debug_level = _h.HighsDebugLevel.kHighsDebugLevelNone
        opts.log_to_console = False
        opts.output_flag = False
        opts.simplex_strategy = \
            _h.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        _options = opts
    return _options


def _csc(A: np.ndarray):
    """(indptr, indices, data) of ``csc_array(A)`` for a dense float A."""
    cols, rows = np.nonzero(A.T)
    indptr = np.zeros(A.shape[1] + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(A, axis=0), out=indptr[1:])
    return indptr, rows.astype(np.int32), A[rows, cols]


def _result(x, fun, status, message, ineq, eq) -> OptimizeResult:
    return OptimizeResult(
        x=x, fun=fun, status=status, success=status == 0, message=message,
        ineqlin=OptimizeResult(marginals=ineq),
        eqlin=OptimizeResult(marginals=eq),
    )


def _direct(c, A_ub, b_ub, A_eq, b_eq, bounds) -> OptimizeResult:
    problem = _clean_inputs(_LPProblem(c, A_ub, b_ub, A_eq, b_eq, bounds))
    c, A_ub, b_ub, A_eq, b_eq, bounds = problem[:6]
    n_ub = len(b_ub)
    n, m = len(c), n_ub + len(b_eq)
    lhs = _replace_inf(np.concatenate((np.full(n_ub, -np.inf), b_eq)))
    rhs = _replace_inf(np.concatenate((b_ub, b_eq)))
    lb, ub = bounds.T.copy()
    indptr, indices, data = _csc(np.vstack((A_ub, A_eq)))

    model = _h.HighsLp()
    model.num_col_ = n
    model.num_row_ = m
    model.a_matrix_.num_col_ = n
    model.a_matrix_.num_row_ = m
    model.a_matrix_.format_ = _h.MatrixFormat.kColwise
    model.col_cost_ = c
    model.col_lower_ = _replace_inf(lb)
    model.col_upper_ = _replace_inf(ub)
    model.row_lower_ = lhs
    model.row_upper_ = rhs
    model.a_matrix_.start_ = indptr
    model.a_matrix_.index_ = indices
    model.a_matrix_.value_ = data

    highs = _h._Highs()
    error = _h.HighsStatus.kError
    solved = False
    if highs.passOptions(_highs_options()) == error:
        model_status = highs.getModelStatus()
    elif highs.passModel(model) == error:
        model_status = _h.HighsModelStatus.kModelError
    else:
        solved = highs.run() != error
        model_status = highs.getModelStatus()
    status, message = _highs_to_scipy_status_message(
        model_status, highs.modelStatusToString(model_status))
    if not solved or model_status != _h.HighsModelStatus.kOptimal:
        return _result(None, None, status, message, None, None)

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    fun = highs.getInfo().objective_function_value
    slack = rhs - solution.row_value
    status, message = _check_result(x, fun, status, slack[:n_ub],
                                    slack[n_ub:], bounds, TOL, message, None)
    duals = np.array(solution.row_dual)
    return _result(x, fun, status, message, duals[:n_ub], duals[n_ub:])


def solve(linprog, c, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
          bounds=(0, None)) -> OptimizeResult:
    """``linprog(c, ..., method="highs")``, through HiGHS directly when
    ``linprog`` is SciPy's own.

    The result carries ``x``, ``fun``, ``status``, ``success``,
    ``message``, ``ineqlin.marginals`` and ``eqlin.marginals``.
    """
    if DIRECT and linprog is _scipy_linprog:
        return _direct(c, A_ub, b_ub, A_eq, b_eq, bounds)
    return linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                   bounds=bounds, method="highs")


def zero_in_hull(linprog, V: np.ndarray) -> Optional[np.ndarray]:
    """Weights ``lam >= 0`` with ``V.T @ lam = 0`` and ``sum(lam) = 1``, or
    None when zero is not in the convex hull of the rows of ``V``."""
    k, d = V.shape
    res = solve(linprog, np.zeros(k), A_eq=np.vstack([V.T, np.ones((1, k))]),
                b_eq=np.concatenate([np.zeros(d), [1.0]]))
    return res.x if res.status == 0 else None
