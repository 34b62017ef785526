"""Algebra on 2-forms over R^4: wedge, Hodge star, self-dual splitting.

Coefficients live in the fixed lexicographic basis

    (e1^e2, e1^e3, e1^e4, e2^e3, e2^e4, e3^e4),

which is orthonormal, so a bivector's squared norm is the sum of squared
coefficients.  A 2-form is a float array of its six coefficients in this
basis, and every module in this package uses this ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite

import numpy as np

LEX_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

# 0-based first and second index of each lexicographic pair.
PAIR_FIRST = np.array([i - 1 for i, _ in LEX_PAIRS])
PAIR_SECOND = np.array([j - 1 for _, j in LEX_PAIRS])
PAIR_FIRST.flags.writeable = PAIR_SECOND.flags.writeable = False

# *(e1^e2)=e3^e4, *(e1^e3)=-e2^e4, *(e1^e4)=e2^e3, extended by *^2 = Id.
HODGE_MATRIX = np.array(
    [
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, -1, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, -1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
    ],
    dtype=float,
)
HODGE_MATRIX.flags.writeable = False

# The projections P+- = (Id +- *)/2 onto the self-dual and anti-self-dual 2-forms.
SELF_DUAL_PROJECTION = 0.5 * (np.eye(6) + HODGE_MATRIX)
ANTI_SELF_DUAL_PROJECTION = 0.5 * (np.eye(6) - HODGE_MATRIX)
SELF_DUAL_PROJECTION.flags.writeable = ANTI_SELF_DUAL_PROJECTION.flags.writeable = False

# A frame passes when max|Q^T Q - Id| <= ORTHOGONALITY_TOL.  In a frame of defect d
# the Kaehler lines of a Kaehler R exceed its operator defect by up to about
# 1.3 d max(1, ||R||) (measured), a structure at the structure rule's bound adds
# 0.6e-12, and KahlerFrameView allows 1e-12 max(1, ||R||): the sum stays near
# 0.7e-12 at 1e-13, while 1e-12 trips it.  Frames in use reach about 1e-15.
ORTHOGONALITY_TOL = 1e-13

# The default tolerance of every check, in the library and on the command line.
DEFAULT_TOLERANCE = 1e-9

# The entry types of a number in caller data; a bool is an int, so it is refused first.
_REALS = (int, float, np.integer, np.floating)
_BOOLEANS = (bool, np.bool_)


def _real_array(value, shape, what):
    """``value`` as a new float array of exactly ``shape`` with finite entries.

    This is the one rule for numbers in caller data: each entry must be an
    int or a float.  numpy would read a bool, a numeric string or the real
    part of a complex number as a float, so those are refused, as is any
    other type.  An int or float ndarray skips the walk over its entries, and
    a tuple of finite Python floats, a point as the metric lab reads it,
    skips every check below.
    """
    if (
        type(value) is tuple
        and shape == (len(value),)
        and all(type(entry) is float and isfinite(entry) for entry in value)
    ):
        return np.array(value)
    walk = not (isinstance(value, np.ndarray) and value.dtype.kind in "iuf")
    if walk:
        value = np.array(value, dtype=object)
    if value.shape != shape:
        raise ValueError(f"{what}: expected shape {shape}, got {value.shape}")
    if walk:
        for entry in value.flat:
            if type(entry) is float:  # the common entry, passed without isinstance
                continue
            if isinstance(entry, _BOOLEANS):
                raise ValueError(f"{what}: expected finite real numbers, got a boolean")
            if not isinstance(entry, _REALS):
                raise ValueError(f"{what}: expected finite real numbers, got {entry!r}")
    try:
        out = value.astype(float)
    except OverflowError as err:  # an int beyond double range
        raise ValueError(f"{what}: expected finite real numbers, {err}") from err
    finite = np.isfinite(out)
    if np.count_nonzero(finite) != out.size:  # a third of finite.all()'s cost
        raise ValueError(f"{what}: expected finite real numbers, got {out[~finite][0]}")
    return out


def wedge(v, w):
    """v ^ w for two 4-vectors; bilinear and antisymmetric."""
    v = _real_array(v, (4,), "wedge factor")
    w = _real_array(w, (4,), "wedge factor")
    c = np.empty(6)
    for slot, (i, j) in enumerate(LEX_PAIRS):
        c[slot] = v[i - 1] * w[j - 1] - v[j - 1] * w[i - 1]
    return c


def hodge_star(b):
    return HODGE_MATRIX @ _real_array(b, (6,), "bivector")


def unit_sign(sign):
    """1.0 or -1.0 for a sign given as the number +1 or -1; anything else,
    a boolean too, is rejected."""
    if isinstance(sign, _REALS) and not isinstance(sign, _BOOLEANS) and sign in (1, -1):
        return float(sign)
    raise ValueError(f"sign must be +1 or -1, got {sign!r}")


def sd_project(b, sign):
    """Self-dual (+) or anti-self-dual (-) part, (b +/- *b)/2."""
    proj = SELF_DUAL_PROJECTION if unit_sign(sign) > 0 else ANTI_SELF_DUAL_PROJECTION
    return proj @ _real_array(b, (6,), "bivector")


def _form_to_skew(form):
    """The skew 4x4 matrix M, M[j, i] = b_ij = -M[i, j] for i < j, of a 2-form b,
    or of each 2-form in a stack."""
    m = np.zeros(form.shape[:-1] + (4, 4))
    m[..., PAIR_SECOND, PAIR_FIRST] = form
    m[..., PAIR_FIRST, PAIR_SECOND] = -form
    return m


def _skew_to_form(m):
    """The 2-form sum_{i<j} <M e_i, e_j> e_i^e_j of a 4x4 matrix M: the inverse
    of :func:`_form_to_skew` on skew matrices."""
    return m[PAIR_SECOND, PAIR_FIRST]


@dataclass(frozen=True, eq=False)
class FrameRotation:
    """Element Q of SO(4); the rotated frame is f_i = Q e_i (columns of Q).

    Orientation-reversing matrices are rejected: the self-dual and
    anti-self-dual subspaces swap under a change of orientation, so a
    reflection silently accepted here would corrupt every downstream
    splitting.
    """

    matrix: np.ndarray

    def __post_init__(self):
        q = _real_array(self.matrix, (4, 4), "frame rotation")
        largest = float(np.max(np.abs(q)))
        if largest > 2.0:
            # no entry of an orthogonal matrix exceeds 1; refusing these first
            # keeps q^T q from overflowing
            raise ValueError(f"matrix is not orthogonal (entry {largest:.3e})")
        defect = float(np.max(np.abs(q.T @ q - np.eye(4))))
        if defect > ORTHOGONALITY_TOL:
            raise ValueError(f"matrix is not orthogonal (defect {defect:.3e})")
        det = float(np.linalg.det(q))
        if det < 0.0:  # orthogonal within the tolerance, so det is +-1 within about 2e-13
            raise ValueError(f"matrix must have determinant +1 (det {det:.9f})")
        q.flags.writeable = False
        object.__setattr__(self, "matrix", q)

    @staticmethod
    @lru_cache(maxsize=None)  # one shared instance: frozen, with a read-only matrix
    def identity():
        return FrameRotation(np.eye(4))


# Entry ((k, l), (i, j)) of induced_map(A) is A_ki A_lj - A_li A_kj.
_FF = np.ix_(PAIR_FIRST, PAIR_FIRST)
_SS = np.ix_(PAIR_SECOND, PAIR_SECOND)
_SF = np.ix_(PAIR_SECOND, PAIR_FIRST)
_FS = np.ix_(PAIR_FIRST, PAIR_SECOND)


def induced_map(a):
    """6x6 matrix of v^w -> (Av)^(Aw) for an arbitrary 4x4 matrix A."""
    a = _real_array(a, (4, 4), "induced_map argument")
    return a[_FF] * a[_SS] - a[_SF] * a[_FS]


def induced_rotation(q: FrameRotation):
    """Action of a frame rotation on bivector coefficients.

    The result is orthogonal and commutes with the Hodge star, so it
    preserves the self-dual/anti-self-dual splitting.
    """
    return induced_map(q.matrix)


_SQRT2 = np.sqrt(2.0)

# Columns are sqrt2 times the adapted bivectors of the identity frame: three
# self-dual, e1^e2+e3^e4, e1^e3-e2^e4, e1^e4+e2^e3, then the anti-self-dual
# three with the opposite middle signs.  Their skew matrices are the six
# generators of the two isoclinic factors of SO(4).
ADAPTED_SQRT2 = np.array(
    [
        [1, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 1],
        [0, 0, 1, 0, 0, -1],
        [0, -1, 0, 0, 1, 0],
        [1, 0, 0, -1, 0, 0],
    ],
    dtype=float,
)
ADAPTED_IDENTITY = ADAPTED_SQRT2 / _SQRT2
ADAPTED_SQRT2.flags.writeable = ADAPTED_IDENTITY.flags.writeable = False

# Each row of the three self-dual columns holds a single +-1: its column and sign.
_SD_COLUMN = np.argmax(np.abs(ADAPTED_SQRT2[:, :3]), axis=1)
_SD_SIGN = ADAPTED_SQRT2[:, :3].sum(axis=1)


def _self_dual_skew(triple):
    """The skew matrix of a12 (e1^e2+e3^e4) + a13 (e1^e3-e2^e4) + a14 (e1^e4+e2^e3),
    its 2-form gathered from the triple so that signed zeros come through."""
    return _form_to_skew(_SD_SIGN * triple[_SD_COLUMN])
