"""The LP seam: the direct HiGHS path returns what ``linprog`` returns.

Every LP that ``constraints``, ``efficiency``, ``kkt`` and ``subdiff`` solve
over a set of full reports is recorded and replayed twice, through
``lp.solve`` with SciPy's own ``linprog`` (the direct path) and through
``linprog(..., method="highs")``; ``x``, ``fun``, ``status`` and both
marginal arrays must agree bit for bit, also when one thread's kept solver
runs them in another order among infeasible and unbounded LPs, and when two
threads run them at once.
Instrumentation installed on a module's ``linprog`` binding must still see
that module's LPs, and the fallback path must render the same report bytes
as the direct one.  The
direct path's own input check refuses what ``linprog`` refuses, and any
RuntimeWarning (a ``0 * inf`` in the bounds, say) fails the module.
"""

import importlib
import re
import sys
import threading

import numpy as np
import pytest
import scipy
from scipy.optimize import linprog

from robustcert import constraints, efficiency, lp, subdiff
from robustcert.problem_io import load_problem, problem_from_dict
from robustcert.report import build_report, render_json

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# min(z1, -z1) at z1 = 0 is a union-type kink, the only kind that reaches
# ``subdiff``'s attainment LP
UNION_KINK = {
    "decision_dim": 2, "uncertainty_dim": 1,
    "objectives": ["min(z1, -z1) + z2^2", "z1 - z2"],
    "constraints": ["z1^2 + z2^2 + u1*z2 - 4"],
    "uncertainty": {"type": "box", "lower": [-0.5], "upper": [0.5]},
    "cone": {"type": "orthant"},
    "box": {"lower": [-2, -2], "upper": [2, 2]},
}
# a generated cone: one pointedness LP when loaded, and one membership LP
# per feasible grid row below the point, whose drop lies on the cone's
# boundary ray (1, 2), inside the dominance scan's margin band
GENERATOR_CONE = {
    "decision_dim": 1, "uncertainty_dim": 1,
    "objectives": ["z1", "2*z1"],
    "constraints": ["z1*u1 - 1"],
    "uncertainty": {"type": "box", "lower": [-1], "upper": [1]},
    "cone": {"type": "generators", "rays": [[1.0, 0.0], [1.0, 2.0]]},
    "box": {"lower": [0.0], "upper": [1.0]},
}
ANCHORS = {"ex2_2": (0.0, -2.0), "ex2_3": (0.0, -2.0),
           "ex3_2": (0.0, 1.0), "ex3_3": (0.0, 1.0)}
# (problem, command, point, options): each fixture at its anchor, a kink and
# a uniform point, the union kink, the generator cone and one exact-mode kkt
REPORTS = [
    *[(name, "report", z, {}) for name, z in ANCHORS.items()],
    ("ex3_2", "report", (-1.0, 1.0), {"ygrid": 41}),
    ("ex3_2", "report", (0.913927, 3.102172), {"ygrid": 41}),
    ("ex2_2", "report", (0.0, -3.0), {"ygrid": 41}),
    ("ex2_2", "report", (1.031818, -2.476571), {"ygrid": 41}),
    ("ex3_3", "report", (-2.0, 1.0), {"ygrid": 41}),
    ("ex3_3", "report", (-0.908155, -2.494937), {"ygrid": 41}),
    ("ex2_3", "report", (0.0, -3.5), {"ygrid": 41}),
    ("ex2_3", "report", (1.86186, -2.084434), {"ygrid": 41}),
    ("union_kink", "report", (0.0, 0.0), {"ygrid": 41}),
    ("generator_cone", "report", (0.5,), {"grid": 11}),
    ("ex3_2", "kkt", (0.0, 1.0), {"exact_scalarization": True}),
]
MODULES = ("constraints", "efficiency", "kkt", "subdiff")
_GENERATED_AT = re.compile(r'^\s*"generated_at": "[^"]*",?\n', re.MULTILINE)


def _problem(name):
    if name == "union_kink":
        return problem_from_dict(UNION_KINK)
    if name == "generator_cone":
        return problem_from_dict(GENERATOR_CONE)
    return load_problem(name)


def _report_bytes(name, command, z, options):
    rep = build_report(_problem(name), command, np.asarray(z, dtype=float),
                       **options)
    return _GENERATED_AT.sub("", render_json(rep))


@pytest.fixture(scope="module")
def recorded():
    """(module name, argument tuple) of every LP solved, in solving order."""
    calls = []
    solve = lp.solve

    def recording(linprog, c, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
                  bounds=(0, None)):
        # an LP built by a helper in lp (zero_in_hull) counts for its caller
        frame = sys._getframe(1)
        while frame.f_globals["__name__"] == lp.__name__:
            frame = frame.f_back
        caller = frame.f_globals["__name__"].rsplit(".", 1)[-1]
        args = (c, A_ub, b_ub, A_eq, b_eq, bounds)
        calls.append((caller, tuple(
            np.array(a, copy=True) if isinstance(a, np.ndarray) else a
            for a in args)))
        return solve(linprog, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "solve", recording)
        for case in REPORTS:
            _report_bytes(*case)
    return calls


def _assert_identical(got, want):
    assert got.status == want.status
    assert got.success == want.success
    assert got.fun == want.fun
    for a, b in ((got.x, want.x),
                 (got.ineqlin.marginals, want.ineqlin.marginals),
                 (got.eqlin.marginals, want.eqlin.marginals)):
        if b is None:
            assert a is None
        else:
            assert np.array_equal(a, b)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _replay(args):
    c, A_ub, b_ub, A_eq, b_eq, bounds = args
    got = lp.solve(linprog, c, A_ub, b_ub, A_eq, b_eq, bounds)
    want = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                   bounds=bounds, method="highs")
    _assert_identical(got, want)
    return got.status


@pytest.mark.skipif(not lp.DIRECT, reason="direct HiGHS path unavailable")
@pytest.mark.parametrize("module", MODULES)
def test_recorded_lps_replay_bit_identically(recorded, module):
    lps = [args for caller, args in recorded if caller == module]
    assert lps, f"no {module} LP recorded"
    statuses = {_replay(args) for args in lps}
    assert 0 in statuses


# x1 + x2 <= -1 with x >= 0
INFEASIBLE = (np.array([1.0, 1.0]), np.array([[1.0, 1.0]]), np.array([-1.0]),
              None, None, (0, None))
# minimize -x1 subject to x1 - x2 <= 1, x free
UNBOUNDED = (np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([1.0]),
             None, None, [(None, None)] * 2)


@pytest.mark.skipif(not lp.DIRECT, reason="direct HiGHS path unavailable")
def test_infeasible_lp_replays_bit_identically():
    assert _replay(INFEASIBLE) == 2


@pytest.mark.skipif(not lp.DIRECT, reason="direct HiGHS path unavailable")
def test_unbounded_lp_replays_bit_identically():
    assert _replay(UNBOUNDED) == 3


def _interleaved(lps):
    """``lps`` with the infeasible and the unbounded LP after every 5th."""
    out = []
    for i, args in enumerate(lps):
        out.append(args)
        if i % 5 == 4:
            out += [INFEASIBLE, UNBOUNDED]
    return out


def _linprog_results(lps):
    return [linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                    bounds=bounds, method="highs")
            for c, A_ub, b_ub, A_eq, b_eq, bounds in lps]


def _rows(args):
    return sum(0 if a is None else len(a) for a in (args[2], args[4]))


# more rows than any KKT, subdifferential or cone LP has: the full
# proper-efficiency LP has one per feasible grid row
MANY_ROWS = 1000


@pytest.mark.skipif(not lp.DIRECT, reason="direct HiGHS path unavailable")
@pytest.mark.parametrize("order", ["recorded", "reversed", "shuffled"])
def test_kept_solver_replays_bit_identically_in_any_order(recorded, order):
    # the thread's one solver runs every LP, of a few rows or of thousands,
    # so each must leave nothing behind that the next could read
    lps = [args for _, args in recorded]
    if order == "reversed":
        lps.reverse()
    elif order == "shuffled":
        np.random.default_rng(18).shuffle(lps)
    lps = _interleaved(lps)
    assert min(map(_rows, lps)) < 10 and max(map(_rows, lps)) > MANY_ROWS
    lp.solve(linprog, *INFEASIBLE)
    lp.solve(linprog, *max(lps, key=_rows))
    solver = lp._kept.solver
    for args, want in zip(lps, _linprog_results(lps)):
        _assert_identical(lp.solve(linprog, *args), want)
        assert lp._kept.solver is solver


def _counting_new_solver(monkeypatch):
    made = []
    new = lp._new_solver

    def counting():
        made.append(new())
        return made[-1]

    monkeypatch.setattr(lp, "_new_solver", counting)
    return made


def _rows_lp(m):
    """min x1 + x2 over m random rows D x <= |D| 1, x free: bounded, with
    the optimum on the rows."""
    D = np.random.default_rng(m).normal(size=(m, 2))
    return (np.array([1.0, 1.0]), D, np.abs(D).sum(axis=1), None, None,
            [(None, None)] * 2)


@pytest.mark.skipif(not lp.DIRECT, reason="direct HiGHS path unavailable")
@pytest.mark.parametrize("first", ["large", "small"])
def test_one_solver_runs_every_lp(monkeypatch, first):
    # LPs of a few rows and of thousands, in alternation, all run on the
    # thread's one solver, which is made once, whether the first LP it
    # runs is large or small
    runs = []

    class Spy(lp._h._Highs):
        def passModel(self, *args):
            if len(args) == 15:  # lp's array overload, not linprog's
                runs.append((self, args[1]))  # the solver and the LP's rows
            return super().passModel(*args)

    monkeypatch.setattr(lp._h, "_Highs", Spy)
    monkeypatch.setattr(lp._kept, "solver", None, raising=False)
    made = _counting_new_solver(monkeypatch)
    small = SMALL + ((0, None),)
    lps = [_rows_lp(2000), small, _rows_lp(300), small, _rows_lp(2000)]
    if first == "small":
        lps = lps[1:] + lps[:1]
    for args in lps:
        assert _replay(args) == 0
    assert len(made) == 1
    assert {solver for solver, _ in runs} == {lp._kept.solver}
    assert [rows for _, rows in runs] == [_rows(args) for args in lps]


def _largest_proper_lp(name, z):
    """The arguments of the largest LP ``certify_proper`` solves at z."""
    calls = []
    solve = lp.solve

    def recording(linprog, c, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
                  bounds=(0, None)):
        calls.append((c, A_ub, b_ub, A_eq, b_eq, bounds))
        return solve(linprog, *calls[-1])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "solve", recording)
        efficiency.certify_proper(load_problem(name),
                                  np.asarray(z, dtype=float))
    return max(calls, key=_rows)


@pytest.mark.skipif(not lp.DIRECT, reason="direct HiGHS path unavailable")
def test_full_proper_lp_replays_bit_identically_on_the_kept_solver():
    # ex3_2's full proper LP at its anchor (7,231 grid rows), twice, then
    # after a small LP and ex3_3's full proper LP, on the one kept solver
    full = _largest_proper_lp("ex3_2", (0.0, 1.0))
    other = _largest_proper_lp("ex3_3", (0.0, 1.0))
    assert _rows(full) == 7231 + 3 + 1 and _rows(other) > MANY_ROWS
    assert _replay(full) == 0
    kept = lp._kept.solver
    for args in (full, SMALL + ((0, None),), other, full):
        assert _replay(args) == 0
        assert lp._kept.solver is kept


@pytest.mark.skipif(not lp.DIRECT, reason="direct HiGHS path unavailable")
def test_threads_keep_their_own_solvers(recorded):
    lps = _interleaved([args for _, args in recorded])
    assert max(map(_rows, lps)) > MANY_ROWS
    want = _linprog_results(lps)
    lp.solve(linprog, *INFEASIBLE)
    results, solvers, errors = {}, {}, []

    def replay(name):
        try:
            results[name] = [lp.solve(linprog, *args) for args in lps]
            solvers[name] = lp._kept.solver
        except Exception as exc:  # reraised below, in the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=replay, args=(name,))
               for name in ("a", "b")]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    for name in ("a", "b"):
        for got, expected in zip(results[name], want, strict=True):
            _assert_identical(got, expected)
    assert solvers["a"] is not solvers["b"]
    assert lp._kept.solver not in (solvers["a"], solvers["b"])


@pytest.mark.skipif(not lp.DIRECT, reason="direct HiGHS path unavailable")
def test_solver_is_replaced_after_a_failed_pass_model(monkeypatch):
    failures = [lp._h.HighsStatus.kError]

    class FailingOnce(lp._h._Highs):
        def passModel(self, *args):
            return failures.pop() if failures else super().passModel(*args)

    monkeypatch.setattr(lp._h, "_Highs", FailingOnce)
    monkeypatch.setattr(lp._kept, "solver", None, raising=False)
    made = _counting_new_solver(monkeypatch)
    failed = lp.solve(linprog, *SMALL)
    assert (failed.status, failed.x) == (2, None)
    assert lp._kept.solver is None
    assert _replay(SMALL + ((0, None),)) == 0
    assert len(made) == 2 and made[1][0] is not made[0][0]
    assert lp._kept.solver is made[1][0]


# min -x1 - x2 subject to x1 + x2 <= 1, x1 - 2 x2 = 0.5: bounded below
# for every bounds form tested here
SMALL = (np.array([-1.0, -1.0]), np.array([[1.0, 1.0]]), np.array([1.0]),
         np.array([[1.0, -2.0]]), np.array([0.5]))
ARGS = ("c", "A_ub", "b_ub", "A_eq", "b_eq")


@pytest.mark.skipif(not lp.DIRECT, reason="direct HiGHS path unavailable")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("arg", range(len(ARGS)))
def test_nonfinite_input_raises_like_linprog(arg, bad):
    args = [a.copy() for a in SMALL]
    args[arg].flat[0] = bad
    c, A_ub, b_ub, A_eq, b_eq = args
    with pytest.raises(ValueError, match=f"{ARGS[arg]} must not contain"):
        lp.solve(linprog, *args)
    with pytest.raises(ValueError):
        linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                method="highs")


@pytest.mark.skipif(not lp.DIRECT, reason="direct HiGHS path unavailable")
@pytest.mark.parametrize("args,bounds", [
    ((np.ones(3),) + SMALL[1:], (0, None)),          # c longer than A's rows
    ((SMALL[0], np.ones((1, 3))) + SMALL[2:], (0, None)),
    (SMALL[:2] + (np.ones(2),) + SMALL[3:], (0, None)),
    (SMALL[:3] + (np.ones((1, 3)), SMALL[4]), (0, None)),
    (SMALL[:4] + (np.ones(2),), (0, None)),
    ((SMALL[0], SMALL[1], None, None, None), (0, None)),  # A_ub without b_ub
    ((np.ones((2, 2)),) + SMALL[1:], (0, None)),     # c not 1-D
    (SMALL, [(0, None)] * 3),                        # a bound per variable + 1
    (SMALL, [(0, 1, 2)] * 2),
])
def test_shape_mismatch_raises_like_linprog(args, bounds):
    c, A_ub, b_ub, A_eq, b_eq = args
    with pytest.raises(ValueError):
        lp.solve(linprog, *args, bounds=bounds)
    with pytest.raises(ValueError):
        linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                method="highs")


@pytest.mark.skipif(not lp.DIRECT, reason="direct HiGHS path unavailable")
@pytest.mark.parametrize("bounds", [
    (0, None), (None, None), (-1, 1), (-np.inf, np.inf), (None, 0.25),
    [(None, None)] * 2, [(-1, 1), (None, None)], [(0, np.inf), (None, 2)],
])
def test_bounds_forms_replay_bit_identically(bounds):
    assert _replay(SMALL + (bounds,)) == 0


@pytest.mark.skipif(not lp.DIRECT, reason="direct HiGHS path unavailable")
@pytest.mark.parametrize("n", [1, 2, 5])
def test_call_site_bounds_replay_bit_identically(n):
    # the free weights of ``efficiency._proper_lp`` and the unit box plus a
    # free margin of ``subdiff._attain_margin``
    rng = np.random.default_rng(n)
    D = rng.normal(size=(6, n))
    assert _replay((np.zeros(n), -D, np.zeros(6), np.ones((1, n)),
                    np.array([1.0]), [(None, None)] * n)) in (0, 2)
    G = rng.normal(size=(4, n))
    c = np.zeros(n + 1)
    c[-1] = -1.0
    assert _replay((c, np.hstack([-G, np.ones((4, 1))]), np.zeros(4), None,
                    None, [(-1, 1)] * n + [(None, None)])) == 0


@pytest.mark.skipif(not lp.DIRECT, reason="direct HiGHS path unavailable")
def test_failed_result_check_defers_to_scipy(monkeypatch):
    # a solution outside the inline tolerance goes through ``_check_result``,
    # which decides the status and message as it does inside linprog
    checked = []
    real = lp._check_result

    def recording(*args):
        checked.append(args)
        return real(*args)

    monkeypatch.setattr(lp, "_check_result", recording)
    c, A_ub, b_ub, A_eq, b_eq = SMALL
    want = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                   method="highs")
    got = lp.solve(linprog, *SMALL)
    assert not checked
    monkeypatch.setattr(lp, "CHECK_TOL", -1.0)  # every inline test fails
    forced = lp.solve(linprog, *SMALL)
    assert len(checked) == 1
    for res in (got, forced):
        assert (res.status, res.message) == (want.status, want.message)
        assert res.x.tobytes() == want.x.tobytes()


@pytest.mark.skipif(scipy.__version__ != "1.17.1",
                    reason="private HiGHS names are pinned for scipy 1.17.1")
def test_direct_path_available_on_pinned_scipy(monkeypatch):
    # a SciPy upgrade that moves a private name or drops passModel's array
    # overload must fail here instead of falling back to linprog's slower
    # path without notice
    assert lp.DIRECT
    passed = []

    class Spy(lp._h._Highs):
        def passModel(self, *args):
            passed.append(args)
            return super().passModel(*args)

    monkeypatch.setattr(lp._h, "_Highs", Spy)
    monkeypatch.setattr(lp._kept, "solver", None, raising=False)
    assert lp.solve(linprog, *SMALL).status == 0
    assert [len(args) for args in passed] == [15]
    assert isinstance(lp._kept.solver, Spy)


@pytest.mark.skipif(lp._h is None, reason="private HiGHS names unavailable")
def test_scipy_without_array_overload_takes_linprogs_path():
    class ModelOnly(lp._h._Highs):
        def passModel(self, model):
            return super().passModel(model)

    def unreachable(*args):
        raise AssertionError("direct path taken without the array overload")

    direct = lp.DIRECT
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp._h, "_Highs", ModelOnly)
            importlib.reload(lp)
            assert not lp.DIRECT
            mp.setattr(lp, "_direct", unreachable)
            c, A_ub, b_ub, A_eq, b_eq = SMALL
            want = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                           method="highs")
            _assert_identical(lp.solve(linprog, *SMALL), want)
    finally:
        importlib.reload(lp)
    assert lp.DIRECT == direct


@pytest.mark.parametrize("module,case", [
    (subdiff, ("union_kink", "report", (0.0, 0.0), {"ygrid": 41})),
    (constraints, ("generator_cone", "report", (0.5,), {"grid": 11})),
])
def test_wrapped_binding_sees_every_lp(monkeypatch, module, case):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(module, "linprog", counting)
    _report_bytes(*case)
    assert calls


@pytest.mark.parametrize("case", [
    *[(name, "report", z, {}) for name, z in ANCHORS.items()],
    ("union_kink", "report", (0.0, 0.0), {"ygrid": 41}),
])
def test_fallback_renders_the_same_report(monkeypatch, case):
    direct = _report_bytes(*case)

    def unreachable(*args):
        raise AssertionError("direct path taken with DIRECT off")

    monkeypatch.setattr(lp, "DIRECT", False)
    monkeypatch.setattr(lp, "_direct", unreachable)
    assert _report_bytes(*case) == direct
