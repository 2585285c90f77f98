"""One seam for every linear program robustcert solves.

``solve(linprog, c, ...)`` takes the caller module's ``linprog`` binding as
its first argument.  When that binding is SciPy's own ``linprog`` and the
private HiGHS names below import, the LP goes to HiGHS directly, doing what
``scipy.optimize._linprog_highs`` does for ``method="highs"`` with SciPy's
default options, minus the per-call option validation, the ``scipy.sparse``
conversion and the bound marginals that no caller reads.  The LP goes to
``_Highs.passModel`` as arrays, not copied into a ``HighsLp`` attribute by
attribute.

Each thread keeps one solver, given linprog's five options once, for every
LP.  It keeps the memory of the largest model it held: about 6.5 MB after
the full proper-efficiency LP of a 101-point decision grid and about 25 MB
after a 201-point one.  A solver whose ``passModel`` or ``run`` fails is
dropped.

Results are bit-identical to ``linprog(..., method="highs")``, which makes a
fresh solver per LP: the same bounds, CSC matrix and options, and
``passModel`` clears the previous model, basis and solution.  The status
and result check are linprog's, at linprog's tolerance; the message, built
once per HiGHS model status, names that status as linprog's does, without
linprog's note on the primal solution status.

The direct path checks only the inputs its callers pass: dense arrays, and
bounds given as one ``(lo, hi)`` pair for every variable or as one pair per
variable, with None for "unbounded".  A NaN or an infinity in ``c``,
``A_ub``, ``b_ub``, ``A_eq`` or ``b_eq`` raises ``ValueError``, and so does
a shape mismatch, as in ``linprog``.  An optimal solution's bounds, slacks
and equality residuals are tested here at linprog's tolerance
``sqrt(1e-9) * 10``; only a solution that fails this test goes through
SciPy's own ``_check_result``, so the status and message it gets are
linprog's.

Any other binding (a counting or timing wrapper installed on a module's
``linprog``) is called as ``linprog(..., method="highs")``, so
instrumentation still sees every LP.  The same path is taken when a private
name is missing, as on SciPy releases that moved it, and when ``passModel``
does not take arrays.

The solver is HiGHS (Huangfu & Hall, Math. Prog. Comp. 10, 2018).
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np
from scipy.optimize import OptimizeResult
from scipy.optimize import linprog as _scipy_linprog

try:
    from scipy.optimize._highspy import _core as _h
    from scipy.optimize._linprog_highs import _highs_to_scipy_status_message
    from scipy.optimize._linprog_util import _check_result
except ImportError:  # pragma: no cover - private names moved
    _h = None

TOL = 1e-9  # linprog's default ``tol``, used by its result check
CHECK_TOL = np.sqrt(TOL) * 10  # the tolerance ``_check_result`` applies

_kept = threading.local()  # .solver: the thread's solver
_statuses = {}


def _new_solver():
    """A fresh solver, and whether it took linprog's default options."""
    opts = _h.HighsOptions()
    opts.presolve = "on"
    opts.highs_debug_level = _h.HighsDebugLevel.kHighsDebugLevelNone
    opts.log_to_console = False
    opts.output_flag = False
    opts.simplex_strategy = \
        _h.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    highs = _h._Highs()
    return highs, highs.passOptions(opts) != _h.HighsStatus.kError


def _status(highs, model_status):
    """SciPy's (status, message) for a HiGHS model status, built once each."""
    out = _statuses.get(model_status)
    if out is None:
        out = _statuses[model_status] = _highs_to_scipy_status_message(
            model_status, highs.modelStatusToString(model_status))
    return out


def _finite(name: str, a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"Invalid input for linprog: {name} must not "
                         "contain values inf, nan, or None")


def _constraints(A_name, b_name, A, b, n):
    """(A, b) as float arrays of shapes (k, n) and (k,); None means k = 0."""
    A = np.zeros((0, n)) if A is None else np.asarray(A, dtype=float)
    b = np.zeros(0) if b is None else np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[1] != n or b.shape != (len(A),):
        raise ValueError(
            f"Invalid input for linprog: {A_name} must have shape (k, {n}) "
            f"and {b_name} shape (k,), not {A.shape} and {b.shape}")
    _finite(A_name, A)
    _finite(b_name, b)
    return A, b


def _column_bounds(bounds, n):
    """(lb, ub) of n variables, with None as an infinite bound."""
    pairs = np.array(bounds, dtype=float)  # None becomes NaN
    if pairs.shape == (2,):
        lo, hi = pairs.tolist()
        return (np.full(n, -np.inf if lo != lo else lo),
                np.full(n, np.inf if hi != hi else hi))
    if pairs.shape != (n, 2):
        raise ValueError(
            "Invalid input for linprog: bounds must be one (lo, hi) pair or "
            f"{n} pairs, not an array of shape {pairs.shape}")
    lb, ub = pairs.T
    return (np.where(np.isnan(lb), -np.inf, lb),
            np.where(np.isnan(ub), np.inf, ub))


def _csc(A: np.ndarray):
    """(indptr, indices, data) of ``csc_array(A)`` for a dense float A."""
    cols, rows = np.nonzero(A.T)
    indptr = np.zeros(A.shape[1] + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(A, axis=0), out=indptr[1:])
    return indptr, rows.astype(np.int32), A[rows, cols]


def _takes_arrays() -> bool:
    """Whether ``_Highs.passModel`` has the overload that takes an LP as 15
    sizes and arrays (SciPy 1.17 does), read from pybind11's list of
    signatures: a trial call would cost every process a solver's memory."""
    doc = _h._Highs.passModel.__doc__ or ""
    return any(line.count(", arg") == 15 for line in doc.splitlines())


# infinite bounds go to HiGHS as they are, which is what linprog's
# replacement by ``kHighsInf`` amounts to when that is IEEE infinity
DIRECT = _h is not None and _h.kHighsInf == np.inf and _takes_arrays()


def _result(x, fun, status, message, ineq, eq) -> OptimizeResult:
    return OptimizeResult(
        x=x, fun=fun, status=status, success=status == 0, message=message,
        ineqlin=OptimizeResult(marginals=ineq),
        eqlin=OptimizeResult(marginals=eq),
    )


def _direct(c, A_ub, b_ub, A_eq, b_eq, bounds) -> OptimizeResult:
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or not len(c):
        raise ValueError("Invalid input for linprog: c must be a non-empty "
                         f"1-D array, not an array of shape {c.shape}")
    _finite("c", c)
    n = len(c)
    A_ub, b_ub = _constraints("A_ub", "b_ub", A_ub, b_ub, n)
    A_eq, b_eq = _constraints("A_eq", "b_eq", A_eq, b_eq, n)
    lb, ub = _column_bounds(bounds, n)
    n_ub = len(b_ub)
    m = n_ub + len(b_eq)
    lhs = np.concatenate((np.full(n_ub, -np.inf), b_eq))
    rhs = np.concatenate((b_ub, b_eq))
    indptr, indices, data = _csc(np.vstack((A_ub, A_eq)))

    error = _h.HighsStatus.kError
    highs = getattr(_kept, "solver", None)
    ready = highs is not None
    if not ready:
        highs, ready = _new_solver()
    solved = False
    if not ready:
        model_status = highs.getModelStatus()
    elif highs.passModel(
            n, m, len(data), _h.MatrixFormat.kColwise, _h.ObjSense.kMinimize,
            0.0, c, lb, ub, lhs, rhs, indptr, indices, data,
            np.zeros(n, dtype=np.int32)) == error:  # all columns continuous
        model_status = _h.HighsModelStatus.kModelError
    else:
        solved = highs.run() != error
        model_status = highs.getModelStatus()
    # passModel clears the last model, basis and solution; a solver that
    # failed is not trusted with the next LP
    _kept.solver = highs if solved else None
    status, message = _status(highs, model_status)
    if not solved or model_status != _h.HighsModelStatus.kOptimal:
        return _result(None, None, status, message, None, None)

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    fun = highs.getObjectiveValue()
    slack = rhs - solution.row_value
    # ``_check_result``'s test of an optimal solution; NaNs fail it too
    if not (fun == fun
            and (x >= lb - CHECK_TOL).all() and (x <= ub + CHECK_TOL).all()
            and (slack[:n_ub] >= -CHECK_TOL).all()
            and (np.abs(slack[n_ub:]) <= CHECK_TOL).all()):
        status, message = _check_result(
            x, fun, status, slack[:n_ub], slack[n_ub:],
            np.column_stack((lb, ub)), TOL, message, None)
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


def min_residual(linprog, M: np.ndarray, b: np.ndarray, A_eq=None,
                 b_eq=None) -> OptimizeResult:
    """``solve`` of min t over ``x >= 0`` and ``t >= 0`` subject to
    ``|M @ x - b|_inf <= t`` and ``A_eq @ x = b_eq``.

    The result's ``x`` ends with t.  Its ``ineqlin.marginals`` are those of
    the rows ``M @ x - t <= b``, then of the rows ``-M @ x - t <= -b``.
    """
    k, n = M.shape
    c = np.zeros(n + 1)
    c[-1] = 1.0
    A_ub = np.vstack([np.hstack([M, -np.ones((k, 1))]),
                      np.hstack([-M, -np.ones((k, 1))])])
    if A_eq is not None:
        A_eq = np.hstack([A_eq, np.zeros((len(A_eq), 1))])
    return solve(linprog, c, A_ub=A_ub, b_ub=np.concatenate([b, -b]),
                 A_eq=A_eq, b_eq=b_eq)


def zero_in_hull(linprog, V: np.ndarray) -> Optional[np.ndarray]:
    """Weights ``lam >= 0`` with ``V.T @ lam = 0`` and ``sum(lam) = 1``, or
    None when zero is not in the convex hull of the rows of ``V``."""
    k, d = V.shape
    res = solve(linprog, np.zeros(k), A_eq=np.vstack([V.T, np.ones((1, k))]),
                b_eq=np.concatenate([np.zeros(d), [1.0]]))
    return res.x if res.status == 0 else None
