from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from curv4 import (
    HODGE_MATRIX,
    STANDARD_J,
    ComplexStructure,
    CurvatureOperator,
    FrameRotation,
    bianchi_defect,
    build_const_hol_sec,
    build_surface_product,
    conjugate,
    exact_nullspace,
    extend_to_bivectors,
    from_unitary_frame,
    ricci,
)
from curv4.expr import _ADD, _CONST, _EXP, _VAR

REPO_ROOT = Path(__file__).resolve().parents[1]
SAMPLE_DIR = REPO_ROOT / "sample_inputs"


def to_sympy(node, symbols):
    """The sympy expression of a tree, with x_{i+1} as symbols[i]: the tree's
    second route, through sympy's own arithmetic."""
    import sympy as sp

    memo = {}

    def rational(v):
        return sp.Rational(v.numerator, v.denominator)

    def convert(n):
        out = memo.get(n)
        if out is None:
            kind, args = n.kind, n.args
            if kind == _CONST:
                out = rational(args)
            elif kind == _VAR:
                out = symbols[args]
            elif kind == _EXP:
                out = sp.exp(convert(args))
            elif kind == _ADD:
                out = sp.Add(rational(args[0]), *(rational(c) * convert(t) for t, c in args[1]))
            else:
                out = sp.Mul(rational(args[0]), *(sp.Pow(convert(b), rational(e)) for b, e in args[1]))
            memo[n] = out
        return out

    return convert(node)


def random_symmetric6(rng, scale=1.0):
    m = rng.standard_normal((6, 6)) * scale
    return CurvatureOperator(0.5 * (m + m.T))


def random_bianchi(rng, scale=1.0):
    op = random_symmetric6(rng, scale)
    beta = float(np.sum(op.matrix * HODGE_MATRIX)) / 6.0
    return CurvatureOperator(op.matrix - beta * HODGE_MATRIX)


def random_rotation(rng):
    """Random element of SO(4); deterministic for a seeded generator."""
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    q = q * np.where(np.diag(r) >= 0, 1.0, -1.0)
    if np.linalg.det(q) < 0:
        q = q[:, [1, 0, 2, 3]]
    return FrameRotation(q)


def star_perturbed_const_hol_sec(eps):
    """build_const_hol_sec(1) plus eps w w^T, w the unit dual bivector of
    the standard structure, as a matrix: still Kaehler and self-dual, with
    Bianchi defect eps / 2, so every frame keeps a root residual of at least
    eps / (2 sqrt 3)."""
    w = from_unitary_frame().dual_bivector() / np.sqrt(2.0)
    return build_const_hol_sec(1.0).matrix + eps * np.outer(w, w)


def random_kahler_pair(rng):
    """Random (operator, structure) Kaehler pair: a nonnegative mix of the
    two builders pushed into a random frame."""
    mix = rng.uniform(0.0, 1.0)
    chs = build_const_hol_sec(rng.uniform(0.2, 2.0))
    prod, _ = build_surface_product(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
    base = CurvatureOperator(mix * chs.matrix + (1.0 - mix) * prod.matrix)
    q = random_rotation(rng)
    r_op = conjugate(base, q)
    structure = ComplexStructure(q.matrix.T @ STANDARD_J @ q.matrix)
    return r_op, structure


# the 21 symmetric 6x6 matrices with a 1 in slot (a, b) and (b, a), a <= b
_ROWS, _COLS = np.triu_indices(6)
SYMMETRIC_BASIS = np.zeros((len(_ROWS), 6, 6))
SYMMETRIC_BASIS[np.arange(len(_ROWS)), _ROWS, _COLS] = 1.0
SYMMETRIC_BASIS[np.arange(len(_ROWS)), _COLS, _ROWS] = 1.0


def _exact_condition_rows(conditions):
    """Rows of the linear conditions f(R) = 0 on the symmetric basis, in
    Fractions; every entry here is a multiple of 1/12."""
    columns = []
    for e in SYMMETRIC_BASIS:
        twelfths = 12.0 * np.concatenate([np.ravel(f(e)) for f in conditions])
        ints = np.rint(twelfths)
        assert np.max(np.abs(twelfths - ints)) <= 1e-9
        columns.append([Fraction(int(v), 12) for v in ints])
    return [row for row in zip(*columns) if any(row)]


KAEHLER_FAMILY_DIMENSIONS = {"kaehler": 9, "self-dual": 4, "ricci-flat": 5}


@lru_cache(maxsize=None)
def kaehler_family(kind):
    """Exact basis (6x6 float matrices) of a family of algebraic Kaehler
    curvature operators for the standard structure: the Bianchi identity with
    RJ = R and RJ = JR ("kaehler"), plus W- = 0 ("self-dual"), or plus
    Ricci = 0 ("ricci-flat").  W- is the traceless part of P R P with
    P = (Id - *)/2 the projection onto the anti-self-dual forms."""
    jext = extend_to_bivectors(from_unitary_frame())
    proj = 0.5 * (np.eye(6) - HODGE_MATRIX)

    def weyl_minus(m):
        block = proj @ m @ proj
        return block - (np.trace(block) / 3.0) * proj

    conditions = [
        lambda m: bianchi_defect(CurvatureOperator(m)),
        lambda m: m @ jext - m,
        lambda m: m @ jext - jext @ m,
    ]
    if kind == "self-dual":
        conditions.append(weyl_minus)
    elif kind == "ricci-flat":
        conditions.append(lambda m: ricci(CurvatureOperator(m)))
    basis = exact_nullspace(_exact_condition_rows(conditions), len(SYMMETRIC_BASIS))
    return np.tensordot(np.array(basis, dtype=float), SYMMETRIC_BASIS, axes=1)


def kaehler_family_members(kind, rng, count):
    """``count`` random (matrix, J) members of :func:`kaehler_family`, every
    second one carried with its structure into a random frame."""
    basis = kaehler_family(kind)
    for k in range(count):
        m = np.tensordot(rng.standard_normal(len(basis)), basis, axes=1)
        m *= 10.0 ** rng.uniform(-1.0, 1.0) / np.linalg.norm(m)
        j = STANDARD_J
        if k % 2:
            q = random_rotation(rng)
            m = conjugate(CurvatureOperator(m), q).matrix
            j = q.matrix.T @ STANDARD_J @ q.matrix
        yield m, j


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
