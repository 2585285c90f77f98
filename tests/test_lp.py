"""The LP seam: the direct HiGHS path returns what ``linprog`` returns.

Every LP that ``constraints``, ``efficiency``, ``kkt`` and ``subdiff`` solve
over a set of full reports is recorded and replayed twice, through
``lp.solve`` with SciPy's own ``linprog`` (the direct path) and through
``linprog(..., method="highs")``; ``x``, ``fun``, ``status`` and both
marginal arrays must agree bit for bit.  Instrumentation installed on a
module's ``linprog`` binding must still see that module's LPs, and the
fallback path must render the same report bytes as the direct one.  The
direct path's own input check refuses what ``linprog`` refuses, and any
RuntimeWarning (a ``0 * inf`` in the bounds, say) fails the module.
"""

import re
import sys

import numpy as np
import pytest
import scipy
from scipy.optimize import linprog

from robustcert import constraints, lp, subdiff
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
# a generated cone: one pointedness LP when loaded, one membership LP per
# feasible grid row in the dominance scan
GENERATOR_CONE = {
    "decision_dim": 1, "uncertainty_dim": 1,
    "objectives": ["z1", "2*z1"],
    "constraints": ["z1*u1 - 1"],
    "uncertainty": {"type": "box", "lower": [-1], "upper": [1]},
    "cone": {"type": "generators", "rays": [[1.0, 0.0], [1.0, 1.0]]},
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
    """Module name -> the argument tuples of every LP it solved."""
    calls = {name: [] for name in MODULES}
    solve = lp.solve

    def recording(linprog, c, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
                  bounds=(0, None)):
        # an LP built by a helper in lp (zero_in_hull) counts for its caller
        frame = sys._getframe(1)
        while frame.f_globals["__name__"] == lp.__name__:
            frame = frame.f_back
        caller = frame.f_globals["__name__"].rsplit(".", 1)[-1]
        args = (c, A_ub, b_ub, A_eq, b_eq, bounds)
        calls[caller].append(tuple(
            np.array(a, copy=True) if isinstance(a, np.ndarray) else a
            for a in args))
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
    assert recorded[module], f"no {module} LP recorded"
    statuses = {_replay(args) for args in recorded[module]}
    assert 0 in statuses


@pytest.mark.skipif(not lp.DIRECT, reason="direct HiGHS path unavailable")
def test_infeasible_lp_replays_bit_identically():
    # x1 + x2 <= -1 with x >= 0
    status = _replay((np.array([1.0, 1.0]), np.array([[1.0, 1.0]]),
                      np.array([-1.0]), None, None, (0, None)))
    assert status == 2


@pytest.mark.skipif(not lp.DIRECT, reason="direct HiGHS path unavailable")
def test_unbounded_lp_replays_bit_identically():
    # minimize -x1 subject to x1 - x2 <= 1, x free
    status = _replay((np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]),
                      np.array([1.0]), None, None, [(None, None)] * 2))
    assert status == 3


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
def test_direct_path_available_on_pinned_scipy():
    # a SciPy upgrade that moves a private name must fail here instead of
    # falling back to linprog's slower path without notice
    assert lp.DIRECT


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
