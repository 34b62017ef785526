"""Scale functions as an interned expression tree, with exact derivatives and
generated straight-line evaluators.

The tree covers the closed grammar {constant, x1..x4, +, *, integer power,
half-integer power, exp}.  Differentiation stays inside it: the derivative of
a half-integer power is another one, and a quarter power never arises.

Nodes are hash-consed: building the same expression twice returns the same
node, so a shared subexpression is one node, differentiated once and computed
once by a generated evaluator.  Five kinds are kept in canonical form:

- a constant, an exact Fraction;
- a coordinate x1..x4;
- exp(u);
- a sum c + sum_k c_k t_k, flattened, with rational coefficients and no
  constant or sum among the t_k;
- a product c * prod_k b_k^e_k, with e_k integer or half-integer, equal bases
  merged (so x * sqrt(x) is x^(3/2)), an integer power of a product
  distributed over its factors, and a rational coefficient times one sum
  distributed over its terms.  A half-integer power of a half-integer power
  (such as sqrt(sqrt(x))) is a quarter power and is refused.

Terms and factors are ordered by their node's hash, which is built from
integers and Fractions only, and where two hashes are equal, by the node's
structure, so the order, and the generated source with it, is the same in
every process, under every hash seed and whatever was built before.

A division by the constant zero raises ZeroDivisionError while the tree is
built: the parser refuses it, and a route built on a scale that is the
constant zero leaves it to the scale rule.

:func:`evaluator` turns a list of trees into one Python function of x1..x4
that returns their values as one array, each node kind printed the way
sympy's NumPy printer prints it: Python ints, ``p/q`` for rationals,
``b**(-n.0)`` for a negative integer power, numpy ``sqrt`` for the exponents
+-1/2, Python ``b**(k/2)`` for other half-integer powers, numpy ``exp``, and
division for the negative powers inside a product.  A Python float therefore
raises on a division by zero and turns complex on a negative base where the
sympy-generated code did.  The same printer gives ``str(node)``.

:func:`jets` gives a second way to derivatives, for the metric oracle: the
value and the first and second partial derivatives of each node, from one
rule per node kind, as :class:`Code` values, arithmetic that the same
printer prints as written, never simplified.  A node's value is the node
itself and each power b^m a rule needs is printed as a one-factor product,
so every value keeps the evaluator's behaviour on Python floats.
:class:`Jet` carries the arithmetic on such values up to second order.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

import numpy as np

_CONST, _VAR, _EXP, _ADD, _MUL = range(5)

# (kind, args) -> the one node with that structure.  Process-wide, so equal
# trees built for any metric are one node and share their derivatives; like
# the caches of compiled routes, it only grows.
_TABLE = {}
_F0, _F1, _HALF = Fraction(0), Fraction(1), Fraction(1, 2)


class Node:
    """One interned expression; compare nodes with ``is``."""

    __slots__ = ("kind", "args", "variables", "_hash", "_sort_key", "_diffs")

    def __init__(self, kind, args, key_hash, variables):
        self.kind = kind
        self.args = args
        self.variables = variables  # bit i set when the node depends on x_{i+1}
        self._hash = key_hash
        # the hash, then the structure with each node replaced by its own
        # structure; the tuples compare past the hash only where hashes are equal
        # (hash(Fraction(-1)) == hash(Fraction(-2)), for one)
        if kind == _EXP:
            structure = args._sort_key
        elif kind in (_ADD, _MUL):
            structure = (args[0], tuple((n._sort_key, c) for n, c in args[1]))
        else:
            structure = args
        self._sort_key = (key_hash, kind, structure)
        self._diffs = [None] * 4

    def __hash__(self):
        return self._hash

    def __add__(self, other):
        return _sum(((self, _F1), (other, _F1)))

    def __sub__(self, other):
        return _sum(((self, _F1), (other, -_F1)))

    def __neg__(self):
        return _sum(((self, -_F1),))

    def __mul__(self, other):
        return _product(((self, _F1), (other, _F1)))

    def __truediv__(self, other):
        return _product(((self, _F1), (other, -_F1)))

    def diff(self, i):
        """The exact derivative d/dx_{i+1}, built once per node and direction."""
        if not self.variables >> i & 1:
            return ZERO
        d = self._diffs[i]
        if d is None:
            d = self._diffs[i] = _derivative(self, i)
        return d

    def __str__(self):
        return _Printer(("x1", "x2", "x3", "x4")).code(self)[0]

    __repr__ = __str__


def _node(kind, args, variables):
    key = (kind, args)
    node = _TABLE.get(key)
    if node is None:
        node = _TABLE[key] = Node(kind, args, hash(key), variables)
    return node


def _order(item):
    return item[0]._sort_key


def const(value):
    """The constant node of an int or Fraction."""
    return _node(_CONST, Fraction(value), 0)


def var(i):
    """The coordinate x_{i+1}."""
    return _node(_VAR, i, 1 << i)


def exp(arg):
    if arg is ZERO:
        return ONE
    return _node(_EXP, arg, arg.variables)


ZERO, ONE = const(0), const(1)


def _factors(node):
    """The (base, exponent) pairs of a node with coefficient 1."""
    return node.args[1] if node.kind == _MUL else ((node, _F1),)


def _sum(items):
    """The node of sum c * node over (node, c) pairs."""
    total = _F0
    terms = {}
    for node, c in items:
        kind = node.kind
        if kind == _CONST:
            total += c * node.args
        elif kind == _ADD:
            c0, ts = node.args
            total += c * c0
            for t, tc in ts:
                terms[t] = terms.get(t, _F0) + c * tc
        elif kind == _MUL and node.args[0] != 1:
            nc, fs = node.args
            mono = _mul_node(_F1, fs)
            terms[mono] = terms.get(mono, _F0) + c * nc
        else:
            terms[node] = terms.get(node, _F0) + c
    ts = tuple(sorted(((t, tc) for t, tc in terms.items() if tc), key=_order))
    if not ts:
        return const(total)
    if not total and len(ts) == 1:
        t, tc = ts[0]
        return t if tc == 1 else _mul_node(tc, _factors(t))
    variables = 0
    for t, _ in ts:
        variables |= t.variables
    return _node(_ADD, (total, ts), variables)


def _mul_node(coeff, factors):
    """The product node of a coefficient and sorted, merged factors."""
    if not coeff:
        return ZERO
    if not factors:
        return const(coeff)
    if len(factors) == 1 and factors[0][1] == 1:
        base = factors[0][0]
        if coeff == 1:
            return base
        if base.kind == _ADD:  # a rational times one sum: distribute, as sympy does
            return _sum(((base, coeff),))
    variables = 0
    for b, _ in factors:
        variables |= b.variables
    return _node(_MUL, (coeff, factors), variables)


def _exact_sqrt(value):
    """sqrt(value) as a Fraction when it is rational, else None."""
    p, q = value.numerator, value.denominator
    rp, rq = isqrt(p), isqrt(q)
    return Fraction(rp, rq) if rp * rp == p and rq * rq == q else None


def _product(items):
    """The node of prod node^e over (node, e) pairs, e integer or half-integer."""
    coeff = _F1
    zero = False
    powers = {}
    pending = list(items)
    while pending:
        node, e = pending.pop()
        kind = node.kind
        if kind == _CONST:
            value = node.args
            if not value:
                if e < 0:
                    raise ZeroDivisionError("division by zero")
                zero = True
            elif e.denominator == 1:
                coeff *= value ** e
            elif value < 0:
                raise ValueError(f"unsupported square root of the negative constant {value}")
            else:
                powers[node] = powers.get(node, _F0) + e
        elif kind == _MUL and e.denominator == 1:
            c, fs = node.args
            coeff *= c ** e
            pending.extend((b, be * e) for b, be in fs)
        else:
            powers[node] = powers.get(node, _F0) + e
            if kind == _MUL and powers[node].denominator == 1:
                # two half-integer powers of one product met: distribute again
                pending.append((node, powers.pop(node)))
    if zero:
        return ZERO
    factors = []
    radicand = _F1  # positive rationals to multiples of 1/2 join in one square root
    for base, e in powers.items():
        if not e:
            continue
        if base.kind != _CONST:
            factors.append((base, e))
            continue
        whole = e.numerator // e.denominator
        coeff *= base.args ** whole
        if e != whole:
            radicand *= base.args
    if radicand != 1:
        root = _exact_sqrt(radicand)
        if root is None:
            factors.append((const(radicand), _HALF))
        else:
            coeff *= root
    return _mul_node(coeff, tuple(sorted(factors, key=_order)))


def power(base, exponent):
    """base^exponent for an integer or half-integer exponent."""
    n = Fraction(exponent)
    if n.denominator == 1 or base.kind != _MUL:
        return _product(((base, n),))
    c, fs = base.args
    if abs(c) != 1:
        # a root of a rational factor comes out, as sympy takes it out
        sign = 1 if c > 0 else -1
        return _product(((const(abs(c)), n), (power(_mul_node(Fraction(sign), fs), n), _F1)))
    for b, e in fs:
        # a root of a root: of a constant factor, which sympy takes out of the
        # root, or of the only factor when that is a square root itself
        if b.kind == _CONST or (c == 1 and len(fs) == 1 and abs(e) < 1):
            raise ValueError(f"unsupported exponent {e * n}")
    return _product(((base, n),))


def _derivative(node, i):
    kind = node.kind
    if kind == _VAR:
        return ONE
    if kind == _EXP:
        return _product(((node, _F1), (node.args.diff(i), _F1)))
    if kind == _ADD:
        return _sum((t.diff(i), c) for t, c in node.args[1])
    c, fs = node.args
    terms = []
    for k, (b, e) in enumerate(fs):
        db = b.diff(i)
        if db is not ZERO:
            rest = (*fs[:k], (b, e - 1), *fs[k + 1:], (db, _F1))
            terms.append((_product(rest), c * e))
    return _sum(terms)


# --- Taylor jets ----------------------------------------------------------------

_POWER, _PLUS, _MINUS, _TIMES, _DIVIDE, _NEGATE = range(5, 11)


class Code:
    """A value of the generated code that is no tree node: b^m for a node b
    and an integer or half-integer m, or -x, x + y, x - y, x * y or x / y of
    nodes and Code values.  It is arithmetic to print, never simplified: only
    a zero, a one and two constants fold."""

    __slots__ = ("kind", "args")

    def __init__(self, kind, args):
        self.kind = kind
        self.args = args


def _constants(x, y):
    return x.kind == _CONST and y.kind == _CONST


def _plus(x, y):
    if x is ZERO:
        return y
    if y is ZERO:
        return x
    return const(x.args + y.args) if _constants(x, y) else Code(_PLUS, (x, y))


def _negate(x):
    if x.kind == _CONST:
        return const(-x.args)
    return x.args[0] if x.kind == _NEGATE else Code(_NEGATE, (x,))


def _minus(x, y):
    if y is ZERO:
        return x
    if x is ZERO:
        return _negate(y)
    return const(x.args - y.args) if _constants(x, y) else Code(_MINUS, (x, y))


def _times(x, y):
    if x is ZERO or y is ZERO:
        return ZERO
    if x is ONE:
        return y
    if y is ONE:
        return x
    return const(x.args * y.args) if _constants(x, y) else Code(_TIMES, (x, y))


def _divide(x, y):
    # a constant zero divisor raises ZeroDivisionError here, as in the tree
    if y is ONE:
        return x
    if x is ZERO:
        return ZERO
    return const(x.args / y.args) if _constants(x, y) else Code(_DIVIDE, (x, y))


def _total(values):
    out = ZERO
    for value in values:
        out = _plus(out, value)
    return out


# A jet's keys: () for the value, (i,) for d/dx_{i+1} and (i, j), i <= j, for
# d2/dx_{i+1}dx_{j+1}; each key maps to the (ka, kb) pairs of the Leibniz rule
# there, one per subset of its positions, with (key, ()) last.
_SPLITS = {
    key: tuple(
        (tuple(key[p] for p in range(len(key)) if mask >> p & 1),
         tuple(key[p] for p in range(len(key)) if not mask >> p & 1))
        for mask in range(1 << len(key))
    )
    for key in ((), *((i,) for i in range(4)), *((i, j) for i in range(4) for j in range(i, 4)))
}


class Jet:
    """A value and its partial derivatives up to second order, each a node or
    a :class:`Code`, read as ``jet[key]`` (Griewank and Walther, *Evaluating
    Derivatives*, ch. 13); an int or Fraction operand is a constant.  A
    coefficient is built the first time it is read, so a route holds only the
    coefficients its outputs reach, and the jet of a derivative, which
    :meth:`diff` gives, is read to one order less."""

    __slots__ = ("rule", "d")

    def __init__(self, rule, d=None):
        self.rule = rule
        self.d = {} if d is None else d

    def __getitem__(self, key):
        c = self.d.get(key)
        if c is None:
            c = self.d[key] = self.rule(key)
        return c

    def __add__(self, other):
        other = _jet(other)
        return Jet(lambda key: _plus(self[key], other[key]))

    def __sub__(self, other):
        other = _jet(other)
        return Jet(lambda key: _minus(self[key], other[key]))

    def __neg__(self):
        return Jet(lambda key: _negate(self[key]))

    def __mul__(self, other):
        other = _jet(other)
        return Jet(lambda key: _total(_times(self[ka], other[kb]) for ka, kb in _SPLITS[key]))

    def __truediv__(self, other):
        other = _jet(other)

        def rule(key):
            # q * other = self, solved for q at key: the other Leibniz terms are known
            known = (_times(q[ka], other[kb]) for ka, kb in _SPLITS[key][:-1])
            return _divide(_minus(self[key], _total(known)), other[()])

        q = Jet(rule)
        return q

    __radd__ = __add__

    def __rsub__(self, other):
        return _jet(other) - self

    def __rtruediv__(self, other):
        return _jet(other) / self

    def diff(self, i):
        """The jet of d/dx_{i+1}."""
        return Jet(lambda key: self[tuple(sorted((i, *key)))])


def _jet(x):
    """x as a jet: a constant when it is an int or Fraction."""
    if isinstance(x, Jet):
        return x
    return Jet(lambda key: ZERO, {(): const(x)})


def _chain(d1, d2, u, key):
    """phi(u) at a derivative key, from phi' = d1 and phi'' = d2 at u's value."""
    if len(key) == 1:
        return _times(d1, u[key])
    i, j = key
    return _plus(_times(d1, u[key]), _times(d2, _times(u[(i,)], u[(j,)])))


def jets(trees):
    """The order-2 jets of trees, from one rule per node kind: linear for a
    sum, the chain rule for exp(u) and for each factor b^e of a product, and
    the Leibniz rule between the factors; never :meth:`Node.diff`.  A jet's
    value is its node, printed as the evaluator prints it, and each power
    b^m a rule needs is printed as a product of one factor.  A derivative in
    a direction the node does not depend on is a structural zero, no code."""
    memo = {}
    powers = {}
    products = {}

    def power(b, m):
        if m == 0:
            return ONE
        if m == 1:
            return b
        out = powers.get((b, m))
        if out is None:
            out = powers[b, m] = Code(_POWER, (b, m))
        return out

    def factor(b, e):
        u = jet(b)
        d1 = _times(const(e), power(b, e - 1))
        d2 = _times(const(e * (e - 1)), power(b, e - 2))
        return Jet(lambda key: _chain(d1, d2, u, key), {(): power(b, e)})

    def product(node):
        """The jet of a product node's factors, multiplied in their order."""
        out = products.get(node)
        if out is None:
            fs = node.args[1]
            out = factor(*fs[0])
            for b, e in fs[1:]:
                out = out * factor(b, e)
            products[node] = out
        return out

    def derivative(node, key):
        kind, args = node.kind, node.args
        if kind == _CONST or not all(node.variables >> i & 1 for i in key):
            return ZERO
        if kind == _VAR:
            return ONE if key == (args,) else ZERO
        if kind == _EXP:
            return _chain(node, node, jet(args), key)
        if kind == _ADD:
            return _total(_times(const(c), jet(t)[key]) for t, c in args[1])
        return _times(const(args[0]), product(node)[key])

    def jet(node):
        out = memo.get(node)
        if out is None:
            out = memo[node] = Jet(lambda key: derivative(node, key), {(): node})
        return out

    return [jet(tree) for tree in trees]


# --- generated evaluators --------------------------------------------------------

_ATOM, _POW, _MULP, _ADDP = 4, 3, 2, 1
_OPERATORS = {_PLUS: (" + ", _ADDP), _MINUS: (" - ", _ADDP), _TIMES: ("*", _MULP), _DIVIDE: ("/", _MULP)}
_NAMESPACE = {"array": np.array, "sqrt": np.sqrt, "exp": np.exp}


class _Printer:
    """Python source for a list of trees and Code values: a node or Code used
    more than once is computed once, into a local, in the order the
    evaluation first needs it."""

    def __init__(self, names):
        self.names = names
        self.temps = {}
        self.lines = []

    @staticmethod
    def int_code(n):
        # str() refuses ints beyond 4300 digits (about 14000 bits), hex() never
        return str(n) if n.bit_length() <= 10000 else hex(n)

    def const_code(self, v):
        sign = "-" if v < 0 else ""
        v = abs(v)
        if v.denominator == 1:
            return sign + self.int_code(v.numerator), (_MULP if sign else _ATOM)
        return f"{sign}{self.int_code(v.numerator)}/{self.int_code(v.denominator)}", _MULP

    def coeff_prefix(self, c):
        if c == 1:
            return ""
        text, prec = self.const_code(c)
        return (text if prec == _ATOM else f"({text})") + "*"

    def code(self, node):
        temp = self.temps.get(node)
        if temp is not None:
            return temp, _ATOM
        kind, args = node.kind, node.args
        if kind == _CONST:
            return self.const_code(args)
        if kind == _VAR:
            return self.names[args], _ATOM
        if kind == _EXP:
            return f"exp({self.code(args)[0]})", _ATOM
        if kind == _POWER:
            return self.product_code(_F1, (args,))
        if kind == _NEGATE:
            return "-" + self.paren(args[0], _MULP), _MULP
        if kind in _OPERATORS:
            op, prec = _OPERATORS[kind]
            # the right operand is bracketed at equal precedence, so the code
            # computes exactly the Code's association
            return self.paren(args[0], prec) + op + self.paren(args[1], prec + 1), prec
        if kind == _ADD:
            parts = []
            for t, c in args[1]:
                if t in self.temps:
                    term = self.coeff_prefix(abs(c)) + self.temps[t]
                else:
                    term = self.product_code(abs(c), _factors(t))[0]
                parts.append((" - " if c < 0 else " + ") + term)
            if args[0]:
                parts.append((" - " if args[0] < 0 else " + ") + self.const_code(abs(args[0]))[0])
            text = "".join(parts)
            return (text[3:] if text.startswith(" + ") else "-" + text[3:]), _ADDP
        return self.product_code(*args)

    def paren(self, node, need):
        text, prec = self.code(node)
        return text if prec >= need else f"({text})"

    def factor_code(self, b, e):
        """b^e for e > 0, as a factor of a product."""
        if e == 1:
            return self.paren(b, _POW)
        if e == _HALF:
            return f"sqrt({self.code(b)[0]})"
        exponent = str(e.numerator) if e.denominator == 1 else f"({e.numerator}/2)"
        return f"{self.paren(b, _ATOM)}**{exponent}"

    def product_code(self, c, factors):
        if c == 1 and len(factors) == 1:
            b, e = factors[0]
            if e > 0:
                return self.factor_code(b, e), (_ATOM if e == _HALF else _POW)
            if e == -_HALF:
                return f"1/sqrt({self.code(b)[0]})", _MULP
            if e.denominator == 1:
                return f"{self.paren(b, _ATOM)}**({e.numerator}.0)", _POW
            return f"{self.paren(b, _ATOM)}**({e.numerator}/2)", _POW
        sign = "-" if c < 0 else ""
        c = abs(c)
        num = [self.factor_code(b, e) for b, e in factors if e > 0]
        den = [self.factor_code(b, -e) for b, e in factors if e < 0]
        if c != 1:
            num.insert(0, self.coeff_prefix(c)[:-1])
        text = sign + ("*".join(num) or "1")
        if den:
            text += "/" + (den[0] if len(den) == 1 else "(" + "*".join(den) + ")")
        return text, _MULP

    def source(self, trees):
        uses = {}
        order = []

        def visit(node):
            seen = node in uses
            uses[node] = uses.get(node, 0) + 1
            if seen:
                return
            kind, args = node.kind, node.args
            if kind == _EXP:
                visit(args)
            elif kind == _ADD:
                for t, _ in args[1]:
                    visit(t)
            elif kind == _MUL:
                for b, _ in args[1]:
                    visit(b)
            elif kind == _POWER:
                visit(args[0])
            elif kind > _POWER:
                for x in args:
                    visit(x)
            order.append(node)

        for tree in trees:
            visit(tree)
        for node in order:
            if uses[node] > 1 and node.kind not in (_CONST, _VAR):
                text = self.code(node)[0]
                self.temps[node] = name = f"t{len(self.temps)}"
                self.lines.append(f"    {name} = {text}")
        values = ", ".join(self.code(tree)[0] for tree in trees)
        args = ", ".join(self.names)
        return "\n".join([f"def _generated({args}):", *self.lines, f"    return array([{values}])", ""])


def generate(trees, names):
    """The Python source of the evaluator of trees."""
    return _Printer(names).source(trees)


def evaluator(trees, names):
    """One compiled function of the coordinates names returning the values of
    trees as one array."""
    namespace = dict(_NAMESPACE)
    exec(compile(generate(trees, names), "<curv4 evaluator>", "exec"), namespace)
    return namespace["_generated"]
