"""Parser, printer, evaluation, gradient, and kink-detection tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fd_gradient
from robustcert.expr import (
    Abs,
    ActiveKinkError,
    ArityError,
    BinOp,
    DomainError,
    ExprSyntaxError,
    KINK_ACTIVITY_TOL,
    MAX_DEPTH,
    Lit,
    MaxOp,
    MinOp,
    Neg,
    Point,
    Pow,
    Sqrt,
    UnknownVariableError,
    Var,
    combine_weighted,
    decompose_sum,
    depth,
    eval_broadcast,
    evaluate,
    grad_smooth,
    kink_atoms,
    parse_expr,
    relevant_kink_atoms,
    substitute_abs_class,
    to_source,
)

FD_TOL = 5e-5
EXACT_TOL = 1e-12

# expression strings exercised throughout (objectives/constraints of the
# bundled fixtures plus extras covering every operator)
SOURCES = [
    "-2*z1 + abs(z2 - 1)",
    "1/(abs(z1) + 1) - 3*z2 + 2",
    "1/sqrt(abs(z1) + 1) - abs(z2 - 1) - 1",
    "-1/(sqrt(2)*(abs(z1) + 1)) + abs(z2 - 1) + 1/sqrt(2)",
    "u1^2*abs(z2) + max(z1, 2*z1) - 3*abs(u1)",
    "-3*abs(z1) + u1*z2 - 2",
    "5*abs(z1) + 2/5*z2 + 4/5",
    "4/5*z1^2 + 5*abs(z1) + 4/5*(z2 + 2)^2 + 2/5*z2 + 4/5",
    "min(z1, -z1, 10*z1)",
    "max(z1 + z2, z1 - z2, 2*z1)",
    "z1^3 - z2^-2 + 2.5e-1*z1*z2",
    "sqrt(z1^2 + z2^2 + 1)",
]


def P(z, u=None):
    return Point.of(z, u)


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------


def test_parse_literals_and_precedence():
    e = parse_expr("2*z1^2 + 1.5e1", 1, 0)
    assert e == BinOp(
        "+", BinOp("*", Lit(2.0), Pow(Var("z", 1), 2)), Lit(15.0)
    )


def test_parse_unary_minus_binds_looser_than_power():
    assert parse_expr("-z1^2", 1, 0) == Neg(Pow(Var("z", 1), 2))


def test_parse_left_associative_subtraction():
    e = parse_expr("z1 - z2 - 1", 2, 0)
    assert e == BinOp("-", BinOp("-", Var("z", 1), Var("z", 2)), Lit(1.0))


def test_parse_negative_exponent():
    assert parse_expr("z1^-2", 1, 0) == Pow(Var("z", 1), -2)


def test_parse_rejects_fractional_exponent():
    with pytest.raises(ExprSyntaxError):
        parse_expr("z1^z2", 2, 0)


def test_parse_unknown_variable_offset():
    with pytest.raises(UnknownVariableError) as err:
        parse_expr("z1 + foo", 2, 0)
    assert err.value.offset == 5
    with pytest.raises(UnknownVariableError):
        parse_expr("z3", 2, 0)  # index beyond declared decision dimension
    with pytest.raises(UnknownVariableError):
        parse_expr("u2", 2, 1)


def test_parse_arity_error():
    with pytest.raises(ArityError):
        parse_expr("max(z1)", 1, 0)
    with pytest.raises(ArityError):
        parse_expr("min(z1)", 1, 0)


def test_parse_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("z1 + * z2", 2, 0)
    assert err.value.offset == 5
    with pytest.raises(ExprSyntaxError):
        parse_expr("(z1 + z2", 2, 0)
    with pytest.raises(ExprSyntaxError):
        parse_expr("z1 $ z2", 2, 0)


@pytest.mark.parametrize("source", [
    " + ".join(["z1"] * MAX_DEPTH),
    "-" * (MAX_DEPTH - 1) + "z1",
    "abs(" * (MAX_DEPTH - 1) + "z1" + ")" * (MAX_DEPTH - 1),
    "max(" * (MAX_DEPTH - 1) + "z1" + ", z2)" * (MAX_DEPTH - 1),
], ids=["sum", "minus", "abs", "max"])
def test_deepest_tree_is_accepted_and_one_deeper_refused(source):
    e = parse_expr(source, 2, 0)
    assert depth(e) == MAX_DEPTH
    # everything that recurses through the tree gets through it
    pt = Point.of([0.5, 0.25])
    value = evaluate(e, pt)
    assert float(eval_broadcast(e, [np.array(0.5), np.array(0.25)])) == value
    grad_smooth(e, pt)
    kink_atoms(e, pt)
    repr(e), hash(e)
    assert parse_expr(to_source(e), 2, 0) == e
    with pytest.raises(ExprSyntaxError, match="deeper than"):
        parse_expr(f"-({source})", 2, 0)


def test_parser_recursion_is_a_syntax_error():
    with pytest.raises(ExprSyntaxError, match="nested too deeply"):
        parse_expr("(" * 2000 + "z1" + ")" * 2000, 1, 0)


def test_round_trip_fixture_sources():
    for src in SOURCES:
        e = parse_expr(src, 2, 1)
        again = parse_expr(to_source(e), 2, 1)
        assert again == e, src


def _expr_trees():
    leaves = st.one_of(
        st.integers(0, 9).map(lambda n: Lit(float(n))),
        st.sampled_from([Var("z", 1), Var("z", 2), Var("u", 1)]),
        st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False).map(
            lambda v: Lit(float(round(v, 4)))
        ),
    )

    def extend(sub):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), sub, sub).map(
                lambda t: BinOp(t[0], t[1], t[2])
            ),
            st.tuples(sub, st.integers(-3, 3)).map(lambda t: Pow(t[0], t[1])),
            sub.map(Neg),
            sub.map(Abs),
            sub.map(Sqrt),
            st.lists(sub, min_size=2, max_size=3).map(lambda a: MaxOp(tuple(a))),
            st.lists(sub, min_size=2, max_size=3).map(lambda a: MinOp(tuple(a))),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_expr_trees())
def test_round_trip_random_trees(e):
    assert parse_expr(to_source(e), 2, 1) == e


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_basic_values():
    e = parse_expr("-3*abs(z1) + u1*z2 - 2", 2, 1)
    assert evaluate(e, P([-1.0, 0.0], [1.0])) == -5.0
    assert evaluate(e, P([2.0, 3.0], [0.5])) == -3 * 2 + 1.5 - 2


def test_evaluate_domain_errors_name_subexpression():
    e = parse_expr("1/(z1 - 1)", 1, 0)
    with pytest.raises(DomainError, match="z1 - 1"):
        evaluate(e, P([1.0]))
    e2 = parse_expr("sqrt(z1)", 1, 0)
    with pytest.raises(DomainError, match="sqrt"):
        evaluate(e2, P([-4.0]))
    e3 = parse_expr("z1^-1", 1, 0)
    with pytest.raises(DomainError):
        evaluate(e3, P([0.0]))


def test_eval_broadcast_matches_scalar():
    rng = np.random.default_rng(7)
    Z = rng.uniform(-2, 2, size=(40, 2))
    U = rng.uniform(-1, 1, size=40)
    for src in SOURCES:
        e = parse_expr(src, 2, 1)
        try:
            expected = np.array(
                [evaluate(e, P(Z[i], [U[i]])) for i in range(len(Z))]
            )
        except DomainError:
            continue  # z2^-2 can straddle zero; scalar/vector raise alike
        got = eval_broadcast(e, [Z[:, 0], Z[:, 1]], [U])
        assert np.allclose(got, expected, atol=1e-12)


def test_eval_broadcast_domain_error():
    e = parse_expr("1/z1", 1, 0)
    with pytest.raises(DomainError):
        eval_broadcast(e, [np.array([1.0, 0.0])])


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_grad_matches_finite_differences_at_smooth_points():
    rng = np.random.default_rng(11)
    for src in SOURCES:
        e = parse_expr(src, 2, 1)
        checked = 0
        while checked < 5:
            z = rng.uniform(0.3, 2.0, size=2) * rng.choice([-1, 1], size=2)
            u = rng.uniform(0.3, 0.9, size=1)
            try:
                g = grad_smooth(e, P(z, u))
            except ActiveKinkError:
                continue
            assert np.allclose(
                g, fd_gradient(e, z, u, "decision"), atol=FD_TOL
            ), src
            checked += 1


def test_grad_frozen_value():
    # d/dz of 1/(|z1|+1) - 3 z2 + 2 at (1, 0) is (-1/4, -3)
    e = parse_expr("1/(abs(z1) + 1) - 3*z2 + 2", 2, 0)
    z = [1.0, 0.0]
    assert np.allclose(fd_gradient(e, z), [-0.25, -3.0], atol=FD_TOL)
    assert np.allclose(grad_smooth(e, P(z)), [-0.25, -3.0], atol=EXACT_TOL)


def test_grad_raises_on_active_kink():
    e = parse_expr("abs(z1)", 1, 0)
    with pytest.raises(ActiveKinkError, match="abs\\(z1\\)"):
        grad_smooth(e, P([0.0]))
    e2 = parse_expr("max(z1, 2*z1)", 1, 0)
    with pytest.raises(ActiveKinkError):
        grad_smooth(e2, P([0.0]))


def test_grad_ignores_kinks_transverse_to_wrt():
    # active abs(u1) does not block the decision gradient
    e = parse_expr("u1^2*abs(z2) + max(z1, 2*z1) - 3*abs(u1)", 2, 1)
    g = grad_smooth(e, P([0.5, 2.0], [0.0]))
    # at z1 > 0 the attained branch is 2*z1; the u1^2 factor vanishes at u = 0
    assert np.allclose(g, [2.0, 0.0], atol=EXACT_TOL)


def test_grad_tied_branches_with_equal_gradients():
    # max(z1, z1) is smooth despite a permanent tie
    e = parse_expr("max(z1, z1)", 1, 0)
    assert np.allclose(grad_smooth(e, P([0.3])), [1.0])


# ---------------------------------------------------------------------------
# kink atoms
# ---------------------------------------------------------------------------


def test_kink_atoms_reports_all_active_atoms_in_preorder():
    e = parse_expr("u1^2*abs(z2) + max(z1, 2*z1) - 3*abs(u1)", 2, 1)
    atoms = kink_atoms(e, P([0.0, 0.0], [0.0]))
    kinds = [(a.kind, to_source(a.node)) for a in atoms]
    assert kinds == [
        ("abs", "abs(z2)"),
        ("max", "max(z1, 2 * z1)"),
        ("abs", "abs(u1)"),
    ]
    assert atoms[1].active_branches == (0, 1)


def test_kink_atoms_empty_at_smooth_point():
    e = parse_expr("u1^2*abs(z2) + max(z1, 2*z1) - 3*abs(u1)", 2, 1)
    assert kink_atoms(e, P([0.5, 2.0], [0.3])) == []


def test_kink_atoms_tolerance():
    # the boundary is KINK_ACTIVITY_TOL, between the two points
    assert 5e-10 <= KINK_ACTIVITY_TOL < 5e-9
    e = parse_expr("abs(z1)", 1, 0)
    assert len(kink_atoms(e, P([5e-10]))) == 1
    assert kink_atoms(e, P([5e-9])) == []


def test_relevant_kink_atoms_selects_by_variable_kind():
    e = parse_expr("u1^2*abs(z2) + max(z1, 2*z1) - 3*abs(u1)", 2, 1)
    pt = P([0.0, 0.0], [0.0])
    assert [to_source(a.node) for a in relevant_kink_atoms(
        e, pt, "decision")] == ["abs(z2)", "max(z1, 2 * z1)"]
    assert [to_source(a.node) for a in relevant_kink_atoms(
        e, pt, "uncertainty")] == ["abs(u1)"]


@pytest.mark.parametrize("wrt", ["Decision", "z", ""])
def test_relevant_kink_atoms_rejects_unknown_wrt(wrt):
    # a misspelt "decision" once silently selected the u atoms (none here)
    with pytest.raises(ValueError, match="wrt"):
        relevant_kink_atoms(parse_expr("abs(z1)", 1, 0), P([0.0]), wrt)


# ---------------------------------------------------------------------------
# decomposition / weighted combination
# ---------------------------------------------------------------------------


def test_decompose_pulls_literal_factors():
    e = parse_expr("-2*abs(z1)/4 + 3 - z2*sqrt(2)", 2, 0)
    terms, const = decompose_sum(e)
    by_key = {to_source(t): c for c, t in terms}
    assert by_key["abs(z1)"] == pytest.approx(-0.5)
    assert by_key["z2"] == pytest.approx(-np.sqrt(2))
    assert const == pytest.approx(3.0)


def test_combine_weighted_cancels_identical_kinks():
    e1 = parse_expr("abs(z2 - 1) + z1", 2, 0)
    e2 = parse_expr("-abs(z2 - 1) + 2*z1", 2, 0)
    combined = combine_weighted([1.0, 1.0], [e1, e2])
    assert "abs" not in to_source(combined)
    # the combination is 3*z1, smooth even at the former kink z2 = 1
    g = grad_smooth(combined, P([0.4, 1.0]))
    assert np.allclose(g, [3.0, 0.0], atol=EXACT_TOL)


def test_combine_weighted_matches_pointwise_sum():
    rng = np.random.default_rng(3)
    exprs = [parse_expr(s, 2, 1) for s in SOURCES[:4]]
    w = [0.3, -1.2, 0.0, 2.5]
    combined = combine_weighted(w, exprs)
    for _ in range(20):
        z = rng.uniform(-2, 2, size=2)
        u = rng.uniform(-1, 1, size=1)
        expected = sum(c * evaluate(e, P(z, u)) for c, e in zip(w, exprs))
        assert evaluate(combined, P(z, u)) == pytest.approx(expected, abs=1e-12)


def test_substitute_abs_class():
    e = parse_expr("1/sqrt(abs(z1) + 1) + abs(z2)", 2, 0)
    plus = substitute_abs_class(e, "z1", +1)
    minus = substitute_abs_class(e, "z1", -1)
    assert "abs(z1)" not in to_source(plus)
    assert "abs(z2)" in to_source(plus)  # other abs classes untouched
    z = [-0.3, 2.0]
    assert evaluate(minus, P(z)) == pytest.approx(evaluate(e, P(z)), abs=1e-15)
    zp = [0.3, 2.0]
    assert evaluate(plus, P(zp)) == pytest.approx(evaluate(e, P(zp)), abs=1e-15)
