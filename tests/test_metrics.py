import json

import numpy as np
import pytest
import sympy as sp
from conftest import SAMPLE_DIR, to_sympy

from curv4 import (
    DiagonalMetric,
    JField,
    MetricDomainError,
    ParseError,
    bianchi_defect,
    christoffel_oracle,
    connection_coeffs,
    curvature_at,
    decompose,
    frame_curvature_raw,
    metric_from_dict,
    nabla_J_residuals,
    unitary_product_check,
)
import curv4.metrics
from curv4.bivectors import LEX_PAIRS
from curv4.metrics import _compiled, _coordinate_curvature_exprs, parse_expression

COORDS = sp.symbols("x1:5")  # the oracle's symbols
X1, X2, X3, X4 = COORDS


def parsed(text):
    """The parsed tree of text, through its sympy conversion."""
    return to_sympy(parse_expression(text), COORDS)

SPHERE = "1/(1 + (x1^2 + x2^2 + x3^2 + x4^2)/4)"
PRODUCT_SCALES = (
    "1/(1 + (x1^2 + x2^2)/4)",
    "1/(1 + (x1^2 + x2^2)/4)",
    "1/(1 - (x3^2 + x4^2)/4)",
    "1/(1 - (x3^2 + x4^2)/4)",
)


def random_metric(rng):
    scales = []
    for _ in range(4):
        kind = rng.integers(0, 3)
        v1, v2 = rng.integers(1, 5, size=2)
        if kind == 0:
            c1, c2 = rng.uniform(-0.2, 0.2, size=2)
            scales.append(f"1 + {c1:.6f}*x{v1} + {c2:.6f}*x{v1}*x{v2}")
        elif kind == 1:
            c1, c2 = rng.uniform(-0.5, 0.5, size=2)
            scales.append(f"exp({c1:.6f}*x{v1} + {c2:.6f}*x{v2})")
        else:
            c = rng.uniform(0.05, 0.3)
            scales.append(f"1/(1 + {c:.6f}*x{v1}^2)")
    return DiagonalMetric(*scales)


def random_point(rng):
    return tuple(rng.uniform(-0.35, 0.35, size=4))


# --- parser and fields --------------------------------------------------------

def test_parser_numbers_and_precedence():
    assert parsed("1 + 2*x1^2") == 1 + 2 * X1**2
    assert parsed("x1 - x2 - x3") == X1 - X2 - X3
    assert parsed("2*x1/x2") == 2 * X1 / X2
    assert parsed("-x1^2") == -(X1**2)
    assert parsed("x1^-2") == X1 ** (-2)
    assert parsed("0.25") == sp.Rational(1, 4)


def test_parser_functions():
    assert parsed("exp(x2)") == sp.exp(X2)
    assert parsed("sqrt(1 + x1^2)") == sp.sqrt(1 + X1**2)


@pytest.mark.parametrize(
    "text, column",
    [
        ("exp(x2", 7),
        ("x5 + 1", 1),
        ("1 * / 2", 5),
        ("x1 ^ x2", 6),
        ("(1 + x1", 8),
        ("1 + ", 5),
        ("foo(2)", 1),
        ("1 ? 2", 3),
    ],
)
def test_parser_reports_positions(text, column):
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert err.value.position == column
    assert f"column {column}" in str(err.value)


def _assert_in_node_set(expr):
    # constants, coordinates, sums, products, exp, and powers with an integer
    # or half-integer exponent
    for node in sp.preorder_traversal(expr):
        if isinstance(node, sp.Pow):
            assert node.exp.is_Rational and node.exp.q in (1, 2), node
        else:
            assert isinstance(node, (sp.Symbol, sp.Number, sp.NumberSymbol, sp.Add, sp.Mul, sp.exp)), node


def test_scalar_field_node_set_closed_under_diff():
    tree = parse_expression("sqrt(1 + x1^2) * exp(x2) / x3")
    for i, x in enumerate(COORDS):
        derivative = to_sympy(tree.diff(i), COORDS)
        _assert_in_node_set(derivative)
        assert sp.simplify(derivative - sp.diff(to_sympy(tree, COORDS), x)) == 0
    # sqrt(-1) is the imaginary unit; sqrt(sqrt(x1)) has exponent 1/4
    for text in ("sqrt(0-1)", "sqrt(sqrt(x1))"):
        with pytest.raises(ValueError, match="unsupported"):
            parse_expression(text)
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_expression("y")


def test_scalar_field_evaluation():
    metric = DiagonalMetric("exp(x2) + x1^2", "1", "1", "1")
    assert metric.scale_values((2.0, 0.0, 0.0, 0.0))[0] == pytest.approx(5.0)


def test_metric_dict_roundtrip():
    doc = {"a1": "exp(x2)", "a2": "1", "a3": "1", "a4": "1"}
    metric, j_field = metric_from_dict(doc)
    assert j_field is None
    assert str(metric.key[0]) == "exp(x2)"
    with pytest.raises(ValueError, match="missing"):
        metric_from_dict({"a1": "1"})


def test_large_integer_literal_beside_a_complex_scale():
    # 10^30 lies beyond int64 but within double range; next to a complex
    # scale it is still converted, and the complex one is rejected as not real
    metric = DiagonalMetric("10^30", "1", "1", "1")
    assert metric.scale_values((0.0, 0.0, 0.0, 0.0)).tolist() == [1e30, 1.0, 1.0, 1.0]
    mixed = DiagonalMetric("10^30", "1+sqrt(x1)^3", "1", "1")
    with pytest.raises(MetricDomainError, match="scale functions are not real"):
        mixed.scale_values((-0.5, 0.0, 0.0, 0.0))


def test_metric_domain_error():
    metric = DiagonalMetric("x1", "1", "1", "1")
    with pytest.raises(MetricDomainError):
        curvature_at(metric, (0.0, 0.0, 0.0, 0.0))
    with pytest.raises(MetricDomainError):
        connection_coeffs(metric, (-1.0, 0.0, 0.0, 0.0))


# --- connection ----------------------------------------------------------------

def test_connection_flat_vanishes():
    gamma = connection_coeffs(DiagonalMetric("1", "1", "1", "1"), (0.3, 0.1, -0.2, 0.0))
    np.testing.assert_array_equal(gamma, np.zeros((4, 4, 4)))


def test_connection_exp_scale_example():
    # a1 = exp(x2): the derivative of e1 along itself tilts into e2 and
    # nabla_{e1} e2 = e1 at the origin
    metric = DiagonalMetric("exp(x2)", "1", "1", "1")
    gamma = connection_coeffs(metric, (0.0, 0.0, 0.0, 0.0))
    assert gamma[0, 1, 0] == pytest.approx(1.0)
    assert gamma[0, 0, 1] == pytest.approx(-1.0)


def test_connection_metric_compatibility(rng):
    for _ in range(5):
        metric = random_metric(rng)
        gamma = connection_coeffs(metric, random_point(rng))
        np.testing.assert_allclose(gamma + gamma.transpose(0, 2, 1), 0.0, atol=1e-10)


def test_bracket_formula_symbolically():
    # [e_i, e_j](f) computed by nesting frame derivatives agrees with the
    # first-order bracket expansion, as an exact symbolic identity
    a = [sp.exp(X2), 1 + X1**2 / 4, sp.sqrt(1 + X3**2), sp.Integer(1)]

    def fd(expr, i):
        return sp.diff(expr, COORDS[i - 1]) / a[i - 1]

    f = sp.exp(X1) * (1 + X2**2)
    for i, j in ((1, 2), (2, 3), (1, 3)):
        direct = fd(fd(f, j), i) - fd(fd(f, i), j)
        formula = fd(a[i - 1], j) / a[i - 1] * fd(f, i) - fd(a[j - 1], i) / a[
            j - 1
        ] * fd(f, j)
        assert sp.simplify(direct - formula) == 0


# --- curvature -----------------------------------------------------------------

def test_flat_curvature_vanishes():
    op = curvature_at(DiagonalMetric("1", "1", "1", "1"), (0.1, 0.2, 0.3, 0.4))
    assert op.norm() == 0.0


def test_hyperbolic_sign_convention():
    # g = exp(2 x2) dx1^2 + dx2^2 + ... has sectional curvature -1 in the
    # (e1, e2) plane; the sign convention makes R_1212 equal to it
    metric = DiagonalMetric("exp(x2)", "1", "1", "1")
    p = (0.4, -0.7, 0.1, 0.2)
    op = curvature_at(metric, p)
    assert op.component(1, 2, 1, 2) == pytest.approx(-1.0, abs=1e-12)
    oracle = christoffel_oracle(metric, p)
    np.testing.assert_allclose(op.matrix, oracle.matrix, atol=1e-12)


def test_conformal_sphere_constant_curvature(rng):
    metric = DiagonalMetric(SPHERE, SPHERE, SPHERE, SPHERE)
    for _ in range(5):
        p = random_point(rng)
        op = curvature_at(metric, p)
        dec = decompose(op)
        scale = max(1.0, op.norm())
        assert dec.weyl_plus.norm() <= 1e-8 * scale
        assert dec.weyl_minus.norm() <= 1e-8 * scale
        assert dec.traceless_ricci_part.norm() <= 1e-8 * scale
        # all sectional curvatures agree (constant curvature +1)
        diag = np.diag(op.matrix)
        np.testing.assert_allclose(diag, 1.0, atol=1e-10)
        oracle = christoffel_oracle(metric, p)
        np.testing.assert_allclose(op.matrix, oracle.matrix, atol=1e-10)


def test_product_metric_curvature_support():
    metric = DiagonalMetric(*PRODUCT_SCALES)
    p = (0.15, -0.2, 0.1, 0.25)
    op = curvature_at(metric, p)
    mask = np.zeros((6, 6), dtype=bool)
    mask[0, 0] = mask[5, 5] = True
    np.testing.assert_allclose(op.matrix[~mask], 0.0, atol=1e-12)
    assert op.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert op.matrix[5, 5] == pytest.approx(-1.0, abs=1e-12)


def test_oracle_agreement_random_metrics(rng):
    for _ in range(8):
        metric = random_metric(rng)
        for _ in range(3):
            p = random_point(rng)
            op = curvature_at(metric, p)
            oracle = christoffel_oracle(metric, p)
            scale = max(1.0, float(np.max(np.abs(op.matrix))))
            assert np.max(np.abs(op.matrix - oracle.matrix)) <= 1e-8 * scale
            for comp in ((1, 2, 3, 4), (1, 3, 2, 4), (1, 4, 2, 3)):
                assert abs(op.component(*comp)) <= 1e-10
                assert abs(oracle.component(*comp)) <= 1e-10
            assert abs(bianchi_defect(op)) <= 1e-10
            assert abs(bianchi_defect(oracle)) <= 1e-10
            raw = frame_curvature_raw(metric, p)
            assert np.max(np.abs(raw - raw.T)) <= 1e-9 * scale


# --- parallel-structure residuals ----------------------------------------------

def test_nabla_j_flat_constant():
    metric = DiagonalMetric("1", "1", "1", "1")
    j = JField("1", "0", "0")
    res = nabla_J_residuals(metric, j, (0.3, 0.1, -0.4, 0.2))
    np.testing.assert_array_equal(res, np.zeros(12))


def test_nabla_j_product_metric():
    metric = DiagonalMetric(*PRODUCT_SCALES)
    j = JField("1", "0", "0")
    res = nabla_J_residuals(metric, j, (0.15, -0.2, 0.1, 0.25))
    np.testing.assert_allclose(res, 0.0, atol=1e-10)


def test_nabla_j_rotating_structure_fails():
    # unit-norm coefficients turning with x1 over the flat metric: the
    # first derivative block picks up the turning rate
    metric = DiagonalMetric("1", "1", "1", "1")
    j = JField("(1 - x1^2)/(1 + x1^2)", "2*x1/(1 + x1^2)", "0")
    res = nabla_J_residuals(metric, j, (0.3, 0.0, 0.0, 0.0))
    assert np.max(np.abs(res[:3])) > 0.5
    np.testing.assert_allclose(res[3:], 0.0, atol=1e-12)


def test_jfield_unit_norm_enforced():
    metric = DiagonalMetric("1", "1", "1", "1")
    j = JField("1", "x1", "0")
    with pytest.raises(ValueError, match="unit norm"):
        nabla_J_residuals(metric, j, (0.5, 0.0, 0.0, 0.0))


def test_jfield_nan_values_rejected():
    # sqrt of a negative number evaluates to NaN, which must not pass the
    # unit-norm comparison
    metric = DiagonalMetric("1", "1", "1", "1")
    j = JField("sqrt(x1 - 1)", "0", "0")
    with pytest.raises(ValueError, match="not finite"), np.errstate(invalid="ignore"):
        nabla_J_residuals(metric, j, (0.5, 0.0, 0.0, 0.0))


# --- one compiled call per route --------------------------------------------------

_ROUTES = [
    pytest.param(lambda m, j, p: curvature_at(m, p), id="curvature_at"),
    pytest.param(lambda m, j, p: frame_curvature_raw(m, p), id="frame_curvature_raw"),
    pytest.param(lambda m, j, p: christoffel_oracle(m, p), id="christoffel_oracle"),
    pytest.param(lambda m, j, p: connection_coeffs(m, p), id="connection_coeffs"),
    pytest.param(lambda m, j, p: unitary_product_check(m, p), id="unitary_product_check"),
    pytest.param(lambda m, j, p: nabla_J_residuals(m, j, p), id="nabla_J_residuals"),
]

_ORIGIN = (0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("route", _ROUTES)
def test_each_route_makes_one_compiled_call_per_point(route, monkeypatch):
    # the scales and structure coefficients the route checks come from the
    # same call as its entries
    evaluate = curv4.metrics._evaluate
    calls = []

    def counted(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(curv4.metrics, "_evaluate", counted)
    metric, j_field = DiagonalMetric(*PRODUCT_SCALES), JField("1", "0", "0")
    points = [(0.15, -0.2, 0.1, 0.25), _ORIGIN, (-0.3, 0.05, 0.2, -0.1)]
    for point in points:
        route(metric, j_field, point)
    assert len(calls) == len(points)


def _route_values(result):
    # a route returns an array, an operator or a product report
    if isinstance(result, np.ndarray):
        return result
    if hasattr(result, "matrix"):
        return result.matrix
    return np.array(list(result.residuals.values()))


@pytest.mark.parametrize("route", _ROUTES)
@pytest.mark.parametrize(
    "point",
    [
        pytest.param(("0.1", True, 0, 0), id="bool-and-string"),
        pytest.param((0.1, True, 0.0, 0.0), id="bool"),
        pytest.param(("0.1", 0.0, 0.0, 0.0), id="numeric-string"),
        pytest.param((None, 0.0, 0.0, 0.0), id="none"),
        pytest.param((0.1 + 0j, 0.0, 0.0, 0.0), id="complex"),
        pytest.param((float("nan"), 0.0, 0.0, 0.0), id="nan"),
        pytest.param((0.0, 0.0, 0.0), id="three-coordinates"),
    ],
)
def test_each_route_reads_the_point_by_the_number_rule(route, point):
    metric, j_field = DiagonalMetric(*PRODUCT_SCALES), JField("1", "0", "0")
    with pytest.raises(ValueError, match="^point: ") as err:
        route(metric, j_field, point)
    assert type(err.value) is ValueError  # a number error, not a domain error


@pytest.mark.parametrize("route", _ROUTES)
def test_each_route_accepts_ints_and_numpy_floats(route):
    metric, j_field = DiagonalMetric(*PRODUCT_SCALES), JField("1", "0", "0")
    expected = _route_values(route(metric, j_field, (0.5, 1.0, 0.0, -1.0)))
    for point in (
        (0.5, 1, 0, -1),
        np.array([0.5, 1.0, 0.0, -1.0]),
        (np.float32(0.5), np.float64(1.0), np.int64(0), -1),
    ):
        np.testing.assert_array_equal(_route_values(route(metric, j_field, point)), expected)


@pytest.mark.parametrize(
    "point",
    [(0.0, 0.0, 0.0, 0.0), np.zeros(4), tuple(np.zeros(4))],
    ids=["floats", "array", "numpy-floats"],
)
def test_evaluators_get_python_floats(point):
    # numpy scalars would raise 0.0 to the power -1 as inf and a negative base
    # to the power 3/2 as NaN, so both errors would read "not finite"
    at = r"at \(0\.0, 0\.0, 0\.0, 0\.0\)"
    flat = DiagonalMetric("1", "1", "1", "1")
    with pytest.raises(MetricDomainError, match=f"^the metric is not defined {at}: "):
        nabla_J_residuals(flat, JField("1/x1", "0", "0"), point)
    mixed = DiagonalMetric("1+sqrt(x1-1)^3", "1", "1", "1")
    with pytest.raises(MetricDomainError, match=f"^the scale functions are not real {at}$"):
        curvature_at(mixed, point)


# a1 vanishes at the origin; with a3 = 1 + x1, every route divides by a1
_ZERO_SCALES = [
    # a flat metric: the entries are structural zeros, so no route divides
    pytest.param(("x1", "1", "1", "1"), "[0.0, 1.0, 1.0, 1.0]", id="flat"),
    # every route raises ZeroDivisionError on the Python float a1 = 0.0
    pytest.param(("x1+x2+x3+x4", "1", "1+x1", "1"), "[0.0, 1.0, 1.0, 1.0]", id="divides"),
    # numpy divides by sqrt(0.0) in some routes; the suite's warning filter
    # raises its RuntimeWarning
    pytest.param(("sqrt(x1+x2+x3+x4)", "1", "1+x1", "1"), "[0.0, 1.0, 1.0, 1.0]", id="numpy-warns"),
    # negative, so every entry is finite
    pytest.param(("x1+x2+x3+x4-1", "1", "1+x1", "1"), "[-1.0, 1.0, 1.0, 1.0]", id="negative"),
    # the constant zero: the primary routes divide the tree by it as they are
    # built, and the oracle divides its jets by it
    pytest.param(("0", "1", "1+x1", "1"), "[0.0, 1.0, 1.0, 1.0]", id="constant-zero"),
    pytest.param(("x1-x1", "1", "1+x1", "1"), "[0.0, 1.0, 1.0, 1.0]", id="cancels-to-zero"),
]


@pytest.mark.parametrize("route", _ROUTES)
@pytest.mark.parametrize("scales, got", _ZERO_SCALES)
def test_scale_rule_precedes_route_errors(route, scales, got):
    with pytest.raises(MetricDomainError) as err:
        route(DiagonalMetric(*scales), JField("1", "0", "0"), _ORIGIN)
    assert str(err.value) == f"scale functions must be positive at {_ORIGIN}; got {got}"


@pytest.mark.parametrize("scales, got", _ZERO_SCALES)
def test_structure_rule_precedes_scale_rule(scales, got):
    with pytest.raises(MetricDomainError) as err:
        nabla_J_residuals(DiagonalMetric(*scales), JField("2", "0", "0"), _ORIGIN)
    assert str(err.value) == (
        f"structure coefficients must have unit norm at {_ORIGIN}; got [2.0, 0.0, 0.0]"
    )


# --- product splitting check ----------------------------------------------------

def test_unitary_product_check_passes_for_product():
    metric = DiagonalMetric(*PRODUCT_SCALES)
    report = unitary_product_check(metric, (0.15, -0.2, 0.1, 0.25))
    assert report.is_product
    assert max(abs(v) for v in report.residuals.values()) == 0.0


def test_unitary_product_check_flat():
    report = unitary_product_check(
        DiagonalMetric("1", "1", "1", "1"), (0.0, 0.0, 0.0, 0.0)
    )
    assert report.is_product


def test_unitary_product_check_flags_cross_dependence():
    metric = DiagonalMetric("exp(x3)", "1", "1", "1")
    report = unitary_product_check(metric, (0.0, 0.0, 0.0, 0.0))
    assert not report.is_product
    assert report.failed == ("e3(a1)",)
    assert report.residuals["e3(a1)"] == pytest.approx(1.0)


# --- compiled evaluators ---------------------------------------------------------

_METRIC_SAMPLES = sorted(
    path.name for path in SAMPLE_DIR.glob("*metric*.json")
    if path.name != "bad_syntax_metric.json"
)


def _sympy_coordinate_curvature(a):
    """The oracle's coordinate formula in sympy, on the scales a: sympy
    differentiates g = diag(a_i^2) and simplifies as it builds."""
    g = [ai**2 for ai in a]
    ginv = [1 / gi for gi in g]

    gamma = [[[None] * 4 for _ in range(4)] for _ in range(4)]
    for k in range(4):
        for i in range(4):
            for j in range(4):
                term = sp.Integer(0)
                if k == j:
                    term += sp.diff(g[k], COORDS[i])
                if k == i:
                    term += sp.diff(g[k], COORDS[j])
                if i == j:
                    term -= sp.diff(g[i], COORDS[k])
                gamma[k][i][j] = ginv[k] * term / 2

    def riemann_low(i, j, k, l):
        term = sp.diff(gamma[l][j][k], COORDS[i]) - sp.diff(gamma[l][i][k], COORDS[j])
        for s in range(4):
            term += gamma[s][j][k] * gamma[l][i][s] - gamma[s][i][k] * gamma[l][j][s]
        return g[l] * term

    return [
        -riemann_low(i - 1, j - 1, k - 1, l - 1) / (a[i - 1] * a[j - 1] * a[k - 1] * a[l - 1])
        for (k, l) in LEX_PAIRS for (i, j) in LEX_PAIRS
    ]


@pytest.mark.parametrize("sample", _METRIC_SAMPLES)
def test_compiled_matches_stock_numpy_lambdify(sample, rng):
    # the oracle's route, generated from Taylor jets of the tree, against a
    # stock numpy lambdify of the same formula built in sympy
    assert len(_METRIC_SAMPLES) == 4
    with open(SAMPLE_DIR / sample, encoding="utf-8") as handle:
        metric, _ = metric_from_dict(json.load(handle))
    ours = _compiled(_coordinate_curvature_exprs, metric.key)
    scales = [to_sympy(tree, COORDS) for tree in metric.key]
    stock = sp.lambdify(COORDS, sp.Matrix(_sympy_coordinate_curvature(scales)), "numpy")
    for _ in range(20):
        point = random_point(rng)
        metric.scale_values(point)  # in the domain of every sample
        got = np.asarray(ours(*point), dtype=float)[4:]
        want = np.asarray(stock(*point), dtype=float).reshape(-1)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))
