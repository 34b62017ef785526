"""Symmetric curvature operators on Lambda^2(R^4) and their invariant split.

An algebraic curvature operator is a symmetric 6x6 matrix acting on
bivector coefficients; components are read off through

    R_ijkl = <R(e_i ^ e_j), e_k ^ e_l>.

Sign convention: R_ijij is the sectional curvature of the (e_i, e_j)
plane, so the identity operator models the round metric (r = 12) and
positively curved spaces have positive scalar curvature.

Any symmetric operator splits into five mutually orthogonal pieces:
a scalar multiple of the identity, the image of the traceless Ricci
tensor, self-dual and anti-self-dual Weyl blocks, and a multiple of
the Hodge star (the part a realizable curvature tensor cannot have).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bivectors import (
    ADAPTED_IDENTITY,
    ANTI_SELF_DUAL_PROJECTION,
    HODGE_MATRIX,
    PAIR_FIRST,
    PAIR_SECOND,
    SELF_DUAL_PROJECTION,
    FrameRotation,
    _form_to_skew,
    _real_array,
    induced_rotation,
    unit_sign,
)

SYMMETRY_TOL = 1e-12

# Below this largest entry the 36 squares summed by the Frobenius norm
# cannot overflow, so only larger operators are checked.
_NORM_SAFE_ENTRY = 1e150

# The one index rule, R_ijkl = sign * m[row, col], for 0-based indices: the
# lexicographic slot of each ordered pair, and the sign sorting it picks up
# (0 for a repeated index): the skew matrices of the 2-forms (0, 1, ..., 5) and -(1, ..., 1).
_SLOT = np.abs(_form_to_skew(np.arange(6))).astype(int)
_SIGN = _form_to_skew(-np.ones(6))
_SIGN4 = np.multiply.outer(_SIGN, _SIGN)


def _zero_based(ijkl):
    """The four 1-based indices (i, j, k, l) as 0-based ones; each must be
    an integer 1..4, never a float or a boolean that equals one."""
    if len(ijkl) != 4:
        raise ValueError(f"indices must be four integers 1..4, got {tuple(ijkl)!r}")
    for n in ijkl:
        # type() and not isinstance(): a bool is an int subclass
        if not (type(n) is int or isinstance(n, np.integer)) or not 0 < n < 5:
            raise ValueError(f"indices must be four integers 1..4, got {tuple(ijkl)!r}")
    return [n - 1 for n in ijkl]


def _component_index(quadruples):
    """Row, column and sign arrays that read R_ijkl of each 1-based
    quadruple as sign * m[row, col]; both pairs must be non-degenerate."""
    i, j, k, l = np.array([_zero_based(q) for q in quadruples], dtype=int).reshape(-1, 4).T
    bad = np.flatnonzero((i == j) | (k == l))
    if bad.size:
        raise ValueError(
            f"index pairs must be non-degenerate, got {tuple(quadruples[bad[0]])!r}"
        )
    return _SLOT[k, l], _SLOT[i, j], _SIGN[i, j] * _SIGN[k, l]


class CurvatureOperator:
    """Symmetric operator on Lambda^2(R^4) in the lexicographic basis."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = _real_array(matrix, (6, 6), "curvature operator")
        scale = max(1.0, float(abs(m).max()))
        if scale > _NORM_SAFE_ENTRY:
            with np.errstate(over="ignore"):
                if not np.isfinite(np.linalg.norm(m)):
                    raise ValueError("curvature operator norm overflows double precision")
        defect = float(abs(m - m.T).max())
        if defect > SYMMETRY_TOL * scale:
            raise ValueError(f"matrix is not symmetric (defect {defect:.3e})")
        m = 0.5 * (m + m.T) if defect else m  # exactly symmetric: nothing to average
        m.flags.writeable = False
        self.matrix = m

    @classmethod
    def _symmetrized(cls, raw, scale=None):
        """The operator of 0.5 (raw + raw^T), equal bit for bit to
        ``cls(0.5 * (raw + raw.T))``, for a 6x6 float array raw whose entries
        are finite; scale, when given, bounds max(1, |entry|) of raw.

        The average is exactly symmetric (float addition commutes), so the
        number rule and the symmetry check have nothing left to refuse; only
        an entry above _NORM_SAFE_ENTRY goes through the public constructor,
        for its norm check.
        """
        m = 0.5 * (raw + raw.T)
        if scale is None:
            scale = float(abs(m).max())
        if scale > _NORM_SAFE_ENTRY:
            return cls(m)
        m.flags.writeable = False
        op = cls.__new__(cls)
        op.matrix = m
        return op

    def component(self, i, j, k, l):
        """R_ijkl with the full index symmetries; zero for a repeated pair."""
        i, j, k, l = _zero_based((i, j, k, l))
        if i == j or k == l:
            return 0.0
        # scalar reads: a gather through _component_index costs about eight times more
        return _SIGN.item(i, j) * _SIGN.item(k, l) * self.matrix.item(
            _SLOT.item(k, l), _SLOT.item(i, j)
        )

    def norm(self):
        return float(np.linalg.norm(self.matrix))

    def __repr__(self):
        return f"CurvatureOperator({self.matrix.tolist()})"


def from_components(components):
    """Build an operator from (i, j, k, l, value) entries.

    Indices are 1-based with i != j and k != l; values are finite reals.
    Entries related by the index symmetries (antisymmetry in each pair, pair
    exchange) must agree; unspecified components are zero.
    """
    entries = list(components)
    rows, cols, signs = _component_index([entry[:4] for entry in entries])
    m = np.zeros((6, 6))
    seen = np.zeros((6, 6), dtype=bool)
    for (i, j, k, l, value), b, a, s in zip(entries, rows.tolist(), cols.tolist(), signs.tolist()):
        v = s * float(_real_array(value, (), f"component R_{i}{j}{k}{l}"))
        for row, col in {(b, a), (a, b)}:
            if seen[row, col] and abs(m[row, col] - v) > 1e-12 * max(
                1.0, abs(v), abs(m[row, col])
            ):
                raise ValueError(
                    f"component R_{i}{j}{k}{l}={value} conflicts with a "
                    f"symmetry-related entry already set to {s * m[row, col]}"
                )
            m[row, col] = v
            seen[row, col] = True
    return CurvatureOperator(m)


_DISTINCT_ROWS, _DISTINCT_COLS, _DISTINCT_SIGNS = _component_index(
    ((1, 2, 3, 4), (1, 3, 2, 4), (1, 4, 2, 3))
)


def distinct_index_components(r_op):
    """The three components (R_1234, R_1324, R_1423) whose four indices are
    all distinct; a frame from orthogonal coordinates zeroes all three."""
    return tuple((_DISTINCT_SIGNS * r_op.matrix[_DISTINCT_ROWS, _DISTINCT_COLS]).tolist())


def ricci(r_op):
    """Ricci contraction rho(R)_ab = sum_i R_aibi, a symmetric 4x4 matrix.

    The sum is frame independent; it is evaluated in the standard basis,
    as one contraction of the 4x4x4x4 component array read off the slot
    and sign tables.
    """
    return np.einsum("aibi->ab", _SIGN4 * r_op.matrix[_SLOT, _SLOT[:, :, None, None]])


def scalar_curvature(r_op):
    """Scalar curvature r = 2 tr(R) = tr(rho(R))."""
    return 2.0 * float(np.trace(r_op.matrix))


def _star_pairing(r_op):
    """Frobenius pairing <R, *> of the operator with the Hodge star; the
    star component beta of R is this over 6, since <*, *> = 6."""
    return float(np.sum(r_op.matrix * HODGE_MATRIX))


def bianchi_defect(r_op):
    """The single independent component of the first-Bianchi map in
    dimension 4: R_1234 + R_2314 + R_3124.

    It vanishes exactly when R is Frobenius-orthogonal to the Hodge star;
    both computations are carried out and must agree.
    """
    r1234, r1324, r1423 = distinct_index_components(r_op)
    by_components = r1234 + r1423 - r1324  # R_2314 = R_1423, R_3124 = -R_1324
    by_star = 0.5 * _star_pairing(r_op)
    if abs(by_components - by_star) > 1e-10 * max(1.0, r_op.norm()):
        raise AssertionError(
            "component sum and star pairing disagree on the Bianchi defect"
        )
    return by_components


# s_map on the column e_i^e_j and the row e_k^e_l: <u1,u3> = d_ik and so on.
_I, _J, _K, _L = PAIR_FIRST, PAIR_SECOND, PAIR_FIRST[:, None], PAIR_SECOND[:, None]
_D_IK, _D_JK = np.eye(4)[_I, _K], np.eye(4)[_J, _K]
_D_JL, _D_IL = np.eye(4)[_J, _L], np.eye(4)[_I, _L]


def s_map(t):
    """Right inverse of the Ricci contraction (n = 4).

    Built from the defining four-vector formula

        s(T)_(u1,u2) u3 = (1/2) (<u1,u3> T u2 - <u2,u3> T u1
                                 + <T u1,u3> u2 - <T u2,u3> u1)
                          - (tr T / 6) (<u1,u3> u2 - <u2,u3> u1)

    evaluated on all basis pairs at once: with u1^u2 = e_i^e_j and the row
    e_k^e_l, <u1,u3> is d_ik and <T u2,u4> is T_lj, read through the pair
    index arrays.  On an eigenbasis of T this reduces to the diagonal action
    (lam_i + lam_j - tr T / 3)/2 on e_i^e_j, which tests use as an
    independent oracle.
    """
    t = _real_array(t, (4, 4), "s_map argument")
    if np.max(np.abs(t - t.T)) > 1e-9 * max(1.0, float(np.max(np.abs(t)))):
        raise ValueError("s_map expects a symmetric matrix")
    tr = float(np.trace(t))
    t = t + 0.0  # -0.0 entries read as +0.0, as in the products <T u, v>
    m = 0.5 * (
        _D_IK * t[_L, _J] - _D_JK * t[_L, _I] + t[_K, _I] * _D_JL - t[_K, _J] * _D_IL
    )
    m -= (tr / 6.0) * (_D_IK * _D_JL - _D_JK * _D_IL)
    return CurvatureOperator(m)


@dataclass(frozen=True)
class Decomposition:
    """The five orthogonal pieces of a symmetric operator, plus r.

    scalar_part + traceless_ricci_part + weyl_plus + weyl_minus +
    bianchi_part reproduces the input; bianchi_part is the multiple of the
    Hodge star a realizable curvature tensor cannot carry.
    """

    scalar_part: CurvatureOperator
    traceless_ricci_part: CurvatureOperator
    weyl_plus: CurvatureOperator
    weyl_minus: CurvatureOperator
    bianchi_part: CurvatureOperator
    r: float

    def parts(self):
        return (
            self.scalar_part,
            self.traceless_ricci_part,
            self.weyl_plus,
            self.weyl_minus,
            self.bianchi_part,
        )


def decompose(r_op):
    """Split an arbitrary symmetric operator into its five invariant pieces.

    Inputs violating the Bianchi identity are allowed: their star component
    is removed first (bianchi_part), then the scalar part.  Of the rest X,
    the Weyl halves are P+ X P+ and P- X P- with the projections
    P+- = (Id +- *)/2, and the traceless Ricci part is what X keeps besides.
    """
    beta = _star_pairing(r_op) / 6.0
    bianchi = beta * HODGE_MATRIX
    r = scalar_curvature(r_op)
    scalar = (r / 12.0) * np.eye(6)
    x = r_op.matrix - bianchi - scalar
    weyl_plus = SELF_DUAL_PROJECTION @ x @ SELF_DUAL_PROJECTION
    weyl_minus = ANTI_SELF_DUAL_PROJECTION @ x @ ANTI_SELF_DUAL_PROJECTION
    return Decomposition(
        scalar_part=CurvatureOperator(scalar),
        traceless_ricci_part=CurvatureOperator(x - weyl_plus - weyl_minus),
        weyl_plus=CurvatureOperator(weyl_plus),
        weyl_minus=CurvatureOperator(weyl_minus),
        bianchi_part=CurvatureOperator(bianchi),
        r=r,
    )


def conjugate(r_op, q: FrameRotation):
    """Components of the same abstract operator in the rotated frame f = Qe."""
    l = induced_rotation(q)
    return CurvatureOperator(l.T @ r_op.matrix @ l)


def adapted_form(r_op, q: FrameRotation):
    """The 6x6 matrix of R in the adapted basis of the rotated frame: the
    self-dual bivectors first, then the anti-self-dual ones."""
    a = induced_rotation(q) @ ADAPTED_IDENTITY
    return a.T @ r_op.matrix @ a


def weyl_block(r_op, sign, q: FrameRotation):
    """3x3 block of W^sign(R) + (r/12) Id in the adapted basis of q.

    The star component is removed first so the blocks agree entrywise with
    the component formulas, e.g. the (1,1) entry of the + block is
    (R_1212 + R_3434 + 2 R_1234)/2 in the rotated frame.  The star is +Id
    and -Id on the two blocks, in the adapted basis of every frame.
    """
    s = unit_sign(sign)
    beta = _star_pairing(r_op) / 6.0
    ad = adapted_form(r_op, q)
    block = ad[:3, :3] if s > 0 else ad[3:, 3:]
    return block - (s * beta) * np.eye(3)


def operator_from_dict(doc):
    """Parse the two serialized forms: a full matrix or a component list."""
    if not isinstance(doc, dict):
        raise ValueError("operator document must be a JSON object")
    if "matrix" in doc:
        if doc.get("basis", "lex12-34") != "lex12-34":
            raise ValueError(f"unknown basis {doc.get('basis')!r}")
        return CurvatureOperator(doc["matrix"])
    if "components" in doc:
        if not isinstance(doc["components"], list):
            raise ValueError("'components' must be a list of component entries")
        entries = []
        for item in doc["components"]:
            ijkl = item.get("ijkl") if isinstance(item, dict) else None
            # from_components holds each index and each value to its one rule
            if not (isinstance(ijkl, (list, tuple)) and len(ijkl) == 4):
                raise ValueError(f"component entry needs a 4-index 'ijkl', got {item!r}")
            entries.append((*ijkl, item.get("value")))
        return from_components(entries)
    raise ValueError("operator document needs a 'matrix' or a 'components' key")
