"""Algebra on 2-forms over R^4: wedge, Hodge star, self-dual splitting.

Coefficients live in the fixed lexicographic basis

    (e1^e2, e1^e3, e1^e4, e2^e3, e2^e4, e3^e4),

which is orthonormal, so a bivector's squared norm is the sum of squared
coefficients.  Every module in this package uses this ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LEX_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
_PAIR_SLOT = {pair: slot for slot, pair in enumerate(LEX_PAIRS)}

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

# Frames are accepted as rotations when they pass these absolute checks;
# double-precision products of well-conditioned 4x4 matrices sit far below.
ORTHOGONALITY_TOL = 1e-9


def pair_slot(i, j):
    """Lexicographic slot of e_i^e_j (1-based indices) and the sign picked up
    by sorting the pair."""
    if i == j:
        raise ValueError(f"degenerate index pair ({i}, {j})")
    if i < j:
        return _PAIR_SLOT[(i, j)], 1.0
    return _PAIR_SLOT[(j, i)], -1.0


@dataclass(frozen=True, eq=False)
class Bivector:
    """Element of Lambda^2(R^4) in the lexicographic basis."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        if c.shape != (6,):
            raise ValueError("a bivector has exactly 6 coefficients")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def norm(self):
        return float(np.linalg.norm(self.coeffs))

    def __add__(self, other):
        return Bivector(self.coeffs + other.coeffs)

    def __sub__(self, other):
        return Bivector(self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return Bivector(self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return Bivector(-self.coeffs)

    def __repr__(self):
        return f"Bivector({self.coeffs.tolist()})"


def wedge(v, w):
    """v ^ w for two 4-vectors; bilinear and antisymmetric."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != (4,) or w.shape != (4,):
        raise ValueError("wedge expects two 4-vectors")
    c = np.empty(6)
    for slot, (i, j) in enumerate(LEX_PAIRS):
        c[slot] = v[i - 1] * w[j - 1] - v[j - 1] * w[i - 1]
    return Bivector(c)


def hodge_star(b):
    return Bivector(HODGE_MATRIX @ b.coeffs)


def unit_sign(sign):
    """1.0 or -1.0 for a sign given as +-1 or "+"/"-"; anything else is rejected."""
    if sign in (1, 1.0, "+"):
        return 1.0
    if sign in (-1, -1.0, "-"):
        return -1.0
    raise ValueError(f"sign must be +1 or -1, got {sign!r}")


def sd_project(b, sign):
    """Self-dual (+) or anti-self-dual (-) part, (b +/- *b)/2."""
    s = unit_sign(sign)
    return Bivector(0.5 * (b.coeffs + s * (HODGE_MATRIX @ b.coeffs)))


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
        try:
            q = np.array(self.matrix, dtype=float)
        except (TypeError, OverflowError) as err:
            raise ValueError("a frame rotation is a 4x4 matrix of numbers") from err
        if q.shape != (4, 4):
            raise ValueError("a frame rotation is a 4x4 matrix")
        if not np.all(np.isfinite(q)):
            raise ValueError("frame rotation entries must be finite")
        defect = float(np.max(np.abs(q.T @ q - np.eye(4))))
        if defect > ORTHOGONALITY_TOL:
            raise ValueError(f"matrix is not orthogonal (defect {defect:.3e})")
        det = float(np.linalg.det(q))
        if abs(det - 1.0) > ORTHOGONALITY_TOL:
            raise ValueError(f"matrix must have determinant +1 (det {det:.9f})")
        q.flags.writeable = False
        object.__setattr__(self, "matrix", q)

    @staticmethod
    def identity():
        return FrameRotation(np.eye(4))


def random_rotation(rng):
    """Random element of SO(4); deterministic for a seeded generator."""
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    q = q * np.where(np.diag(r) >= 0, 1.0, -1.0)
    if np.linalg.det(q) < 0:
        q = q[:, [1, 0, 2, 3]]
    return FrameRotation(q)


# Entry ((k, l), (i, j)) of induced_map(A) is A_ki A_lj - A_li A_kj.
_FF = np.ix_(PAIR_FIRST, PAIR_FIRST)
_SS = np.ix_(PAIR_SECOND, PAIR_SECOND)
_SF = np.ix_(PAIR_SECOND, PAIR_FIRST)
_FS = np.ix_(PAIR_FIRST, PAIR_SECOND)


def induced_map(a):
    """6x6 matrix of v^w -> (Av)^(Aw) for an arbitrary 4x4 matrix A."""
    a = np.asarray(a, dtype=float)
    return a[_FF] * a[_SS] - a[_SF] * a[_FS]


def induced_rotation(q: FrameRotation):
    """Action of a frame rotation on bivector coefficients.

    The result is orthogonal and commutes with the Hodge star, so it
    preserves the self-dual/anti-self-dual splitting.
    """
    return induced_map(q.matrix)


_SQRT2 = np.sqrt(2.0)

# Columns are the adapted bivectors of the identity frame: three self-dual,
# (e1^e2+e3^e4, e1^e3-e2^e4, e1^e4+e2^e3)/sqrt2, then the anti-self-dual
# three with the opposite middle signs.
ADAPTED_IDENTITY = np.array(
    [
        [1, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 1],
        [0, 0, 1, 0, 0, -1],
        [0, -1, 0, 0, 1, 0],
        [1, 0, 0, -1, 0, 0],
    ],
    dtype=float,
) / _SQRT2
ADAPTED_IDENTITY.flags.writeable = False
