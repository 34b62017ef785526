"""Diagonal metrics g = a1^2 dx1^2 + ... + a4^2 dx4^2 given by scale
functions, with curvature in the associated orthonormal frame and an
independent coordinate-Christoffel route for verification.

The associated frame is e_i = (1/a_i) d/dx_i.  Frame derivatives
e_i(f) = (1/a_i) df/dx_i are exact derivatives on curv4's expression tree
(:mod:`curv4.expr`), taken before any number is produced, so the second
derivatives entering the curvature formulas carry no finite-difference error
and the two curvature routes can be compared at the 1e-8 level.

Scale functions live on the closed node set {constant, variable, +, *,
integer power, exp, reciprocal, square root}; exact differentiation stays
inside the set (derivatives of square roots only introduce half-integer
powers, i.e. compositions of sqrt and reciprocal).  Each route is one
evaluator generated from the tree, built once per route and metric.

:func:`christoffel_oracle` is generated the same way, from its own
derivatives: order-2 Taylor jets of the scale trees (:func:`expr.jets`), on
which the coordinate Christoffel formula runs as arithmetic that prints
code.  The two curvature routes share only the parser and the tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain

import numpy as np

from . import expr
from .bivectors import DEFAULT_TOLERANCE, LEX_PAIRS, _real_array
from .kahler import unit_triple
from .operators import CurvatureOperator

_COORD_NAMES = ("x1", "x2", "x3", "x4")

MIN_SCALE = 1e-12


class ParseError(ValueError):
    """Syntax error in a scale-function expression, with a 1-based column."""

    def __init__(self, message, position):
        super().__init__(f"column {position}: {message}")
        self.position = position


class MetricDomainError(ValueError):
    """The requested point lies outside the metric's domain."""


_TOKEN_RE = re.compile(
    r"(?P<number>\d+\.\d*|\.\d+|\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()])"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos + 1)
        tokens.append((m.lastgroup, m.group(), pos + 1))
        pos = m.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


# The deepest nesting parse_expression accepts, counting each parenthesis,
# exp( or sqrt( and unary sign that encloses a position.  Each level can add
# four levels to the tree (exp, sum, product, power), and the jets of the
# Christoffel oracle recurse through several Python frames per tree level:
# the oracle overflows the interpreter's stack from about 50 such levels, and
# at 32 every route still has several hundred frames to spare.
MAX_NESTING = 32


class _Parser:
    """Recursive descent for the documented grammar.

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-') unary | power
    power  := atom ('^' ['-'] INTEGER)?
    atom   := NUMBER | x1..x4 | ('exp' | 'sqrt') '(' expr ')' | '(' expr ')'
    """

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0

    def _nested(self, parse, pos):
        """parse() one nesting level deeper; pos is the level's opening token."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def _peek(self):
        return self.tokens[self.k]

    def _next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def parse(self):
        expr = self.expression()
        kind, text, pos = self._peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)
        return expr

    def expression(self):
        node = self.term()
        while self._peek()[0] == "op" and self._peek()[1] in "+-":
            op = self._next()[1]
            rhs = self.term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self):
        node = self.unary()
        while self._peek()[0] == "op" and self._peek()[1] in "*/":
            op = self._next()[1]
            rhs = self.unary()
            node = node * rhs if op == "*" else node / rhs
        return node

    def unary(self):
        kind, text, pos = self._peek()
        if kind == "op" and text in "+-":
            self._next()
            inner = self._nested(self.unary, pos)
            return inner if text == "+" else -inner
        return self.power()

    def power(self):
        base = self.atom()
        if self._peek()[0] == "op" and self._peek()[1] == "^":
            self._next()
            sign = 1
            kind, text, pos = self._peek()
            if kind == "op" and text == "-":
                sign = -1
                self._next()
                kind, text, pos = self._peek()
            if kind != "number" or not text.isdigit():
                raise ParseError("exponent must be an integer literal", pos)
            self._next()
            base = expr.power(base, sign * int(text))
        return base

    def atom(self):
        kind, text, pos = self._next()
        if kind == "number":
            return expr.const(Fraction(text))
        if kind == "name":
            if text in _COORD_NAMES:
                return expr.var(_COORD_NAMES.index(text))
            if text in ("exp", "sqrt"):
                kind2, text2, pos2 = self._next()
                if not (kind2 == "op" and text2 == "("):
                    raise ParseError(f"{text} needs a parenthesized argument", pos2)
                arg = self._nested(self.expression, pos)
                kind3, text3, pos3 = self._next()
                if not (kind3 == "op" and text3 == ")"):
                    raise ParseError("missing closing parenthesis", pos3)
                return expr.exp(arg) if text == "exp" else expr.power(arg, Fraction(1, 2))
            raise ParseError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            inner = self._nested(self.expression, pos)
            kind2, text2, pos2 = self._next()
            if not (kind2 == "op" and text2 == ")"):
                raise ParseError("missing closing parenthesis", pos2)
            return inner
        if kind == "end":
            raise ParseError("unexpected end of expression", pos)
        raise ParseError(f"unexpected {text!r}", pos)


def parse_expression(text):
    """The expression tree of a string in the documented grammar, nested at
    most MAX_NESTING levels deep (ParseError beyond).

    A constant square root of a negative number, a quarter power (a square
    root of a square root) and a division by the constant zero raise
    ValueError("unsupported ...").
    """
    if not isinstance(text, str):
        raise ParseError("expression must be a string", 1)
    try:
        return _Parser(text).parse()
    except ZeroDivisionError as err:
        raise ValueError("unsupported division by zero") from err


def _check_point(point):
    # Python floats, not numpy scalars: the compiled code must raise on a
    # division by zero and turn complex on a negative base, not give inf or NaN
    return tuple(_real_array(point, (4,), "point").tolist())


def _positive(scales, point):
    """The scale values at a checked point, once each exceeds MIN_SCALE."""
    if min(scales.tolist()) <= MIN_SCALE:
        raise MetricDomainError(
            f"scale functions must be positive at {point}; got {scales.tolist()}"
        )
    return scales


def _unit(coeffs, point):
    """The structure coefficients at a checked point, once unit_triple accepts them."""
    try:
        return unit_triple(coeffs)
    except ValueError as err:
        raise MetricDomainError(
            f"structure coefficients must have unit norm at {point}; got {coeffs.tolist()}"
        ) from err


class DiagonalMetric:
    """Four positive scale functions a1..a4 of x1..x4."""

    __slots__ = ("key",)

    def __init__(self, a1, a2, a3, a4):
        self.key = tuple(map(parse_expression, (a1, a2, a3, a4)))

    def scale_values(self, point):
        """Values of a1..a4 at the point; rejects nonpositive scales."""
        point = _check_point(point)
        vals = _evaluate(point, "scale functions", _compiled(_fields_only, self.key))
        return _positive(vals.reshape(4), point)

    def __repr__(self):
        return f"DiagonalMetric{tuple(map(str, self.key))}"


def metric_from_dict(doc):
    """Parse {"a1": "...", ..., "a4": "..."} plus an optional "J_field"
    carrying pointwise structure coefficients a12, a13, a14."""
    if not isinstance(doc, dict):
        raise ValueError("metric document must be a JSON object")
    for name in ("a1", "a2", "a3", "a4"):
        if name not in doc:
            raise ValueError(f"metric document is missing {name!r}")
    metric = DiagonalMetric(*(doc[name] for name in ("a1", "a2", "a3", "a4")))
    j_field = None
    if "J_field" in doc:
        jdoc = doc["J_field"]
        if not isinstance(jdoc, dict):
            raise ValueError("J_field must be a JSON object")
        for name in ("a12", "a13", "a14"):
            if name not in jdoc:
                raise ValueError(f"J_field is missing {name!r}")
        j_field = JField(jdoc["a12"], jdoc["a13"], jdoc["a14"])
    return metric, j_field


class JField:
    """Pointwise structure coefficients (a12, a13, a14) with unit norm."""

    __slots__ = ("key",)

    def __init__(self, a12, a13, a14):
        self.key = tuple(map(parse_expression, (a12, a13, a14)))

    def values(self, point):
        point = _check_point(point)
        vals = _evaluate(point, "structure coefficients", _compiled(_fields_only, self.key))
        return _unit(vals.reshape(3), point)


def _fields_only(*keys):
    """No entries beyond the fields of keys themselves."""
    return ()


def _route(build, *keys):
    """The expressions of keys (the scales, then any structure coefficients)
    followed by the entries of build(*keys): a route's single compiled call
    returns the values its domain rules check."""
    return (*chain.from_iterable(keys), *build(*keys))


@lru_cache(maxsize=None)
def _compiled(build, *keys):
    """The generated evaluator of the trees _route(build, *keys), once per
    (build, keys); build = _fields_only evaluates the fields alone."""
    return expr.evaluator(_route(build, *keys), _COORD_NAMES)


def _evaluate(point, what, compiled):
    """The values of a compiled evaluator at a checked point, as a float array.

    The one place that decides a point lies outside the metric's domain: a
    value that divides by zero or overflows there, in the compiled code or
    as an integer beyond double range, is not defined; a complex value is
    not real; a NaN or infinite value is not finite.
    """
    try:
        vals = np.asarray(compiled(*point))
        if vals.dtype.kind == "O":
            # Python ints beyond int64 leave an object array; converting it
            # through complex keeps a complex entry beside them visible below
            vals = vals.astype(complex)
    except (ZeroDivisionError, OverflowError) as err:
        # the last argument is the reason alone: an overflowing float power
        # raises OverflowError(errno, reason)
        raise MetricDomainError(
            f"the metric is not defined at {point}: {err.args[-1]}"
        ) from err
    if vals.dtype.kind == "c":
        if vals.imag.any():
            raise MetricDomainError(f"the {what} are not real at {point}")
        vals = vals.real
    vals = vals.astype(float, copy=False)
    if np.count_nonzero(np.isfinite(vals)) != vals.size:  # cheaper than .all(), as in _real_array
        raise MetricDomainError(f"the {what} are not finite at {point}")
    return vals


def _at(metric, point, what, build, j_field=None):
    """The entries of build, flattened, at a point where the metric's scales
    are positive and j_field, if given, has unit norm.

    One compiled call returns the scales, the structure coefficients and the
    entries, and the rules apply to the values from that call.  When the call
    fails, the coefficients and then the scales are evaluated alone before
    its error is re-raised, so their errors come first, as when each was
    evaluated on its own.
    """
    point = _check_point(point)
    keys = (metric.key,) if j_field is None else (metric.key, j_field.key)
    try:
        vals = _evaluate(point, what, _compiled(build, *keys)).reshape(-1)
    except (MetricDomainError, RuntimeWarning, ZeroDivisionError):
        # a RuntimeWarning is numpy's, raised only under an "error" filter; a
        # ZeroDivisionError is the tree's or the jets', building a route that
        # divides by a scale that is the constant zero, which the scale rule
        # then refuses
        if j_field is not None:
            j_field.values(point)
        metric.scale_values(point)
        raise
    inputs = 4
    if j_field is not None:
        _unit(vals[4:7], point)
        inputs = 7
    _positive(vals[:4], point)
    return vals[inputs:]


@lru_cache(maxsize=None)
def _fd(a, f, i):
    """Frame derivative e_i(f) = (1/a_i) df/dx_i, exactly on the tree, built
    once per (scales, expression, direction)."""
    return f.diff(i - 1) / a[i - 1]


def _gamma_exprs(key):
    """Connection table gamma[i][j][k] = <nabla_{e_i} e_j, e_k>, flattened.

    For i != j the derivative lies along e_i with coefficient e_j(a_i)/a_i;
    the diagonal entries spread over the other directions with the opposite
    sign, which makes the table skew in its last two slots.
    """
    a = key
    gamma = [[[expr.ZERO for _ in range(5)] for _ in range(5)] for _ in range(5)]
    for i in range(1, 5):
        for j in range(1, 5):
            if i == j:
                for k in range(1, 5):
                    if k != i:
                        gamma[i][i][k] = -_fd(a, a[i - 1], k) / a[i - 1]
            else:
                gamma[i][j][i] = _fd(a, a[i - 1], j) / a[i - 1]
    r = range(1, 5)
    return tuple(gamma[i][j][k] for i in r for j in r for k in r)


def connection_coeffs(metric: DiagonalMetric, point):
    """Table gamma[i, j, k] = <nabla_{e_i} e_j, e_k> at the point (0-based
    array indices for 1-based frame labels)."""
    return _at(metric, point, "connection coefficients", _gamma_exprs).reshape(4, 4, 4)


def _frame_curvature_exprs(key):
    """All 36 operator entries from the orthogonal-coordinate curvature
    formulas, each triangle assembled from its own column's expressions.

    Pair symmetry R_ijkl = R_klij is *not* imposed here; it holds as an
    identity of the formulas and is checked numerically downstream.
    """
    a = key
    E = partial(_fd, key)

    def diag(i, j):
        # R_ijij: second frame derivatives of each scale along the other
        # direction plus the cross-derivative correction over l != i, j
        ai, aj = a[i - 1], a[j - 1]
        term = -E(E(aj, i), i) / aj - E(E(ai, j), j) / ai
        for l in range(1, 5):
            if l not in (i, j):
                term -= E(ai, l) * E(aj, l) / (ai * aj)
        return term

    def edge(i, j, l):
        # R_ijil for l not in {i, j}
        ai, aj = a[i - 1], a[j - 1]
        return -E(E(ai, l), j) / ai + E(ai, j) * E(aj, l) / (ai * aj)

    def hess(idx, j, k):
        # (1/a_idx) * Hessian of a_idx on (e_j, e_k); the connection term
        # subtracts (nabla_{e_j} e_k)(a_idx) with j != k
        ax, aj = a[idx - 1], a[j - 1]
        return (E(E(ax, k), j) - (E(aj, k) / aj) * E(ax, j)) / ax

    def comp(i, j, k, l):
        if (i, j) == (k, l):
            return diag(i, j)
        if not ({i, j} & {k, l}):
            return expr.ZERO
        if k == i:
            return edge(i, j, l)
        if k == j:
            return -edge(j, i, l)
        if l == i:
            return hess(i, j, k)
        if l == j:
            return -hess(j, i, k)
        raise AssertionError("unreachable index pattern")

    return tuple(comp(i, j, k, l) for (k, l) in LEX_PAIRS for (i, j) in LEX_PAIRS)


def frame_curvature_raw(metric: DiagonalMetric, point):
    """The un-symmetrized 6x6 assembled from the frame formulas; the gap
    between it and its transpose is a consistency diagnostic."""
    return _at(metric, point, "curvature components", _frame_curvature_exprs).reshape(6, 6)


def _curvature_operator(raw, point, scale=None):
    """The symmetrized operator of raw, whose entries _evaluate has found
    finite, built once; a symmetrized entry or a norm that overflows double
    precision is still refused, and either makes the point a domain error."""
    try:
        return CurvatureOperator._symmetrized(raw, scale)
    except ValueError as err:
        raise MetricDomainError(
            f"the curvature operator's norm is not finite at {tuple(point)}"
        ) from err


def curvature_at(metric: DiagonalMetric, point):
    """Curvature operator of the metric in the associated frame at a point.

    Components with four distinct indices are structural zeros of the
    formulas.  The two independently assembled triangles must agree
    (pair symmetry) before the symmetrized operator is returned.
    """
    raw = frame_curvature_raw(metric, point)
    scale = max(1.0, float(abs(raw).max()))
    defect = float(abs(raw - raw.T).max())
    if defect > 1e-9 * scale:
        raise AssertionError(
            f"pair-symmetry defect {defect:.3e} at {tuple(point)}; the frame "
            "formulas are inconsistent here"
        )
    return _curvature_operator(raw, point, scale)


def _coordinate_curvature_exprs(key):
    """Independent route: coordinate Christoffel symbols of g = diag(a_i^2)
    on the order-2 jets of the scales key, the coordinate curvature tensor,
    conversion to the associated frame, and the sign flip into the
    convention where R_ijij is sectional curvature."""
    a = expr.jets(key)
    g = [ai * ai for ai in a]
    ginv = [1 / gi for gi in g]

    gamma = [[[None] * 4 for _ in range(4)] for _ in range(4)]
    for k in range(4):
        for i in range(4):
            for j in range(4):
                term = 0
                if k == j:
                    term += g[k].diff(i)
                if k == i:
                    term += g[k].diff(j)
                if i == j:
                    term -= g[i].diff(k)
                gamma[k][i][j] = ginv[k] * term / 2

    def riemann_low(i, j, k, l):
        # <R(d_i, d_j) d_k, d_l> with R(X, Y) = [nabla_X, nabla_Y] on
        # coordinate fields (their bracket vanishes)
        term = gamma[l][j][k].diff(i) - gamma[l][i][k].diff(j)
        for s in range(4):
            term += gamma[s][j][k] * gamma[l][i][s] - gamma[s][i][k] * gamma[l][j][s]
        return g[l] * term

    entries = []
    for (k, l) in LEX_PAIRS:
        for (i, j) in LEX_PAIRS:
            ii, jj, kk, ll = i - 1, j - 1, k - 1, l - 1
            entries.append(-riemann_low(ii, jj, kk, ll) / (a[ii] * a[jj] * a[kk] * a[ll]))
    return tuple(entry[()] for entry in entries)


def christoffel_oracle(metric: DiagonalMetric, point):
    """Curvature operator computed through coordinate Christoffel symbols.

    Used only to verify :func:`curvature_at`; the two routes share only the
    parser and the tree: this one takes its derivatives from Taylor jets of
    the scale trees, never from :meth:`expr.Node.diff`.
    """
    raw = _at(metric, point, "oracle curvature components", _coordinate_curvature_exprs)
    return _curvature_operator(raw.reshape(6, 6), point)


def _nabla_j_exprs(metric_key, j_key):
    a = metric_key
    j12, j13, j14 = j_key
    E = partial(_fd, metric_key)
    lines = [
        a[0] * E(j12, 1) - (j14 * E(a[0], 3) - j13 * E(a[0], 4)),
        a[0] * E(j13, 1) - (-j14 * E(a[0], 2) + j12 * E(a[0], 4)),
        a[0] * E(j14, 1) - (j13 * E(a[0], 2) - j12 * E(a[0], 3)),
        a[1] * E(j12, 2) - (-j13 * E(a[1], 3) - j14 * E(a[1], 4)),
        a[1] * E(j13, 2) - (j14 * E(a[1], 1) + j12 * E(a[1], 3)),
        a[1] * E(j14, 2) - (-j13 * E(a[1], 1) + j12 * E(a[1], 4)),
        a[2] * E(j12, 3) - (j13 * E(a[2], 2) - j14 * E(a[2], 1)),
        a[2] * E(j13, 3) - (-j12 * E(a[2], 2) - j14 * E(a[2], 4)),
        a[2] * E(j14, 3) - (j13 * E(a[2], 4) + j12 * E(a[2], 1)),
        a[3] * E(j12, 4) - (j14 * E(a[3], 2) + j13 * E(a[3], 1)),
        a[3] * E(j13, 4) - (j14 * E(a[3], 3) - j12 * E(a[3], 1)),
        a[3] * E(j14, 4) - (-j12 * E(a[3], 2) - j13 * E(a[3], 3)),
    ]
    return tuple(lines)


def nabla_J_residuals(metric: DiagonalMetric, j_field: JField, point):
    """Residuals of the twelve derivative equations a parallel pointwise
    structure must satisfy over an orthogonal chart (four derivative
    directions times three coefficients); a Kaehler pair zeroes all of them.
    A residual that is not finite at the point is a domain error."""
    return _at(metric, point, "nabla J residuals", _nabla_j_exprs, j_field)


_CROSS_LABELS = (
    "e3(a1)", "e4(a1)", "e3(a2)", "e4(a2)",
    "e1(a3)", "e2(a3)", "e1(a4)", "e2(a4)",
)


def _cross_derivative_exprs(key):
    a = key
    return (
        _fd(a, a[0], 3), _fd(a, a[0], 4), _fd(a, a[1], 3), _fd(a, a[1], 4),
        _fd(a, a[2], 1), _fd(a, a[2], 2), _fd(a, a[3], 1), _fd(a, a[3], 2),
    )


@dataclass(frozen=True)
class UnitaryProductReport:
    """Cross-derivative residuals deciding whether a frame paired as
    (e1, e2), (e3, e4) splits the metric into a product of surfaces."""

    residuals: dict
    tolerance: float
    is_product: bool
    failed: tuple


def unitary_product_check(metric: DiagonalMetric, point, tol=DEFAULT_TOLERANCE):
    """Check that a1, a2 only depend on (x1, x2) and a3, a4 on (x3, x4) at
    the point, through the eight frame cross-derivatives; a cross-derivative
    that is not finite there is a domain error, never a pass."""
    vals = _at(metric, point, "cross-derivatives", _cross_derivative_exprs)
    residuals = dict(zip(_CROSS_LABELS, vals.tolist()))
    failed = tuple(name for name, v in residuals.items() if abs(v) > tol)
    return UnitaryProductReport(
        residuals=residuals,
        tolerance=float(tol),
        is_product=not failed,
        failed=failed,
    )
