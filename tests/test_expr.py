"""The expression tree against its second route, sympy: values and domain
errors of the generated evaluators, exact derivatives, Taylor jets against
both, and generated source that depends neither on the hash seed nor on what
was built before."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import sympy as sp
from conftest import REPO_ROOT, SAMPLE_DIR, to_sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from curv4 import MetricDomainError
from curv4.expr import evaluator, jets
from curv4.metrics import _COORD_NAMES, _evaluate, parse_expression

COORDS = sp.symbols(_COORD_NAMES)

_EDGE_POINTS = [
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 1.0, -1.0, 2.0),
    (-1.0, -0.5, -2.0, -3.0),
    (1.0, 0.0, -1.0, 0.5),
    (-0.25, 0.0, 0.0, 1.0),
]


def _outcome(compiled, point):
    """The values through the one domain rule, or its error message; numpy
    runs silently, as in the CLI."""
    with np.errstate(all="ignore"):
        try:
            return _evaluate(point, "values", compiled).reshape(-1)
        except MetricDomainError as err:
            return str(err)


def _both(text):
    """Our evaluator and sympy's lambdify of the tree's sympy conversion, for
    the tree and its four first derivatives."""
    tree = parse_expression(text)
    trees = [tree, *(tree.diff(i) for i in range(4))]
    converted = to_sympy(tree, COORDS)
    column = [converted, *(sp.diff(converted, x) for x in COORDS)]
    return evaluator(trees, _COORD_NAMES), sp.lambdify(COORDS, sp.Matrix(column), "numpy")


# The one divergence accepted between the two routes: where both refuse a
# point, they may give different reasons.  The routes differ in structure,
# most of all in their derivatives, so at a singular point one may divide by
# a Python float zero ("not defined"), or raise a negative Python float to a
# half-integer power ("not real"), where the other meets numpy's inf or NaN
# ("not finite"); sympy also takes a positive constant such as exp(3/4) out of
# a square root, where the tree keeps it inside.
def _agree(text, points):
    _routes_agree(text, *_both(text), points)


def _routes_agree(text, ours, theirs, points):
    for point in points:
        got, want = _outcome(ours, point), _outcome(theirs, point)
        if isinstance(want, str) or isinstance(got, str):
            assert isinstance(got, str) and isinstance(want, str), (text, point, got, want)
        else:
            bound = 1e-12 * np.maximum(1.0, np.abs(want))
            assert np.all(np.abs(got - want) <= bound), (text, point, got, want)


_EDGE_EXPRESSIONS = [
    "1/x1", "x1^-3", "sqrt(x1)", "1/sqrt(x1)", "sqrt(x1)^3", "x1*sqrt(x1)", "sqrt(x1)^-3",
    "sqrt(x1 - x2)", "sqrt(x1^3)", "sqrt(1/x1)", "10^400", "x1*10^400", "10^400/3",
    "x1^100000000", "exp(1000*x1)", "1/exp(x1)", "exp(x1)*exp(-x1)", "2/x1 + 1/x1^2",
    "(x1 + x2)^-2 * x3", "sqrt(2*x1)", "sqrt(-4*x1)", "sqrt(x1*x2)/x3", "x2/(x1 - x1^2)",
]


@pytest.mark.parametrize("text", _EDGE_EXPRESSIONS)
def test_edge_expressions_agree_with_sympy(text):
    _agree(text, _EDGE_POINTS)


_ATOMS = st.sampled_from(["x1", "x2", "x3", "x4", "2", "0.5", "3"])


def _extend(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(inner, st.integers(-3, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        inner.map(lambda s: f"sqrt({s})"),
        inner.map(lambda s: f"exp({s}/4)"),
    )


# multiples of 1/64 in [-2, 2]: zeros and negatives, and no square that
# underflows, which would split two exact routes by rounding alone
_POINT = st.tuples(*[st.integers(-128, 128).map(lambda k: k / 64)] * 4)


_EXPRESSION = st.recursive(_ATOMS, _extend, max_leaves=6)


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(_EXPRESSION, st.lists(_POINT, min_size=3, max_size=3))
def test_random_expressions_agree_with_sympy(text, points):
    try:
        tree = parse_expression(text)
    except ValueError as err:
        assert str(err).startswith("unsupported"), (text, err)
        return
    _agree(text, [*_EDGE_POINTS, *points])


# the first and second derivatives, in the order of a jet's keys
_DERIVATIVES = [(i,) for i in range(4)] + [(i, k) for i in range(4) for k in range(i, 4)]


def _three_routes(text):
    """The first and second derivatives of a tree from its Taylor jets, from
    Node.diff, and from sympy's diff of its sympy conversion."""
    tree = parse_expression(text)
    jet = jets([tree])[0]
    nested = []
    for key in _DERIVATIVES:
        node = tree
        for i in key:
            node = node.diff(i)
        nested.append(node)
    converted = to_sympy(tree, COORDS)
    column = [sp.diff(converted, *(COORDS[i] for i in key)) for key in _DERIVATIVES]
    return (
        evaluator([jet[key] for key in _DERIVATIVES], _COORD_NAMES),
        evaluator(nested, _COORD_NAMES),
        sp.lambdify(COORDS, sp.Matrix(column), "numpy"),
    )


def _jets_agree(text, points):
    ours, by_diff, by_sympy = _three_routes(text)
    _routes_agree(text, ours, by_diff, points)
    _routes_agree(text, ours, by_sympy, points)


@pytest.mark.parametrize("text", _EDGE_EXPRESSIONS)
def test_jets_of_edge_expressions_agree_with_diff_and_sympy(text):
    _jets_agree(text, _EDGE_POINTS)


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(_EXPRESSION, st.lists(_POINT, min_size=3, max_size=3))
def test_jets_of_random_expressions_agree_with_diff_and_sympy(text, points):
    try:
        parse_expression(text)
    except ValueError as err:
        assert str(err).startswith("unsupported"), (text, err)
        return
    _jets_agree(text, [*_EDGE_POINTS, *points])


_SOURCES = """
import json, sys
from curv4.expr import generate
from curv4.metrics import (
    _COORD_NAMES, _coordinate_curvature_exprs, _cross_derivative_exprs, _fields_only,
    _frame_curvature_exprs, _gamma_exprs, _nabla_j_exprs, _route, metric_from_dict,
    parse_expression,
)
paths, texts = json.loads(sys.argv[1])
for text in texts:
    parse_expression(text)
sources = {"sum": generate([parse_expression(" + ".join(sorted(texts)))], _COORD_NAMES)}
for path in paths:
    with open(path, encoding="utf-8") as handle:
        metric, j_field = metric_from_dict(json.load(handle))
    routes = [(_fields_only, metric.key)]
    routes += [
        (build, metric.key) for build in (
            _frame_curvature_exprs, _gamma_exprs, _cross_derivative_exprs, _coordinate_curvature_exprs,
        )
    ]
    if j_field is not None:
        routes += [(_fields_only, j_field.key), (_nabla_j_exprs, metric.key, j_field.key)]
    sources[path] = [generate(_route(build, *keys), _COORD_NAMES) for build, *keys in routes]
print(json.dumps(sources, sort_keys=True))
"""


# terms whose hashes are equal: hash(Fraction(-1)) == hash(Fraction(-2)) in
# CPython, so -x1 and -2*x1, and the exponentials of them, tie on the hash
_TIED = ["x3", "exp(-x1)", "exp(-2*x1)", "exp(-x1)*x2", "exp(-2*x1)*x2"]


def test_generated_source_is_the_same_under_every_hash_seed():
    # two fresh interpreters that build the samples, and terms tied on the
    # hash, in opposite orders: term and factor order follow the structure,
    # not id(), a string hash or the order of creation
    paths = sorted(
        str(path) for path in SAMPLE_DIR.glob("*metric*.json")
        if path.name != "bad_syntax_metric.json"
    )
    assert len(paths) == 4
    outputs = []
    for seed, order in (("0", [paths, _TIED]), ("1", [paths[::-1], _TIED[::-1]])):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
        proc = subprocess.run(
            [sys.executable, "-c", _SOURCES, json.dumps(order)],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=120, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    sources = json.loads(outputs[0])
    assert sum(len(sources[path]) for path in paths) == 4 * 5 + 2
