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
    HODGE_MATRIX,
    PAIR_FIRST,
    PAIR_SECOND,
    FrameRotation,
    induced_rotation,
    pair_slot,
    unit_sign,
)

SYMMETRY_TOL = 1e-12

# Below this largest entry the 36 squares summed by the Frobenius norm
# cannot overflow, so only larger operators are checked.
_NORM_SAFE_ENTRY = 1e150


class CurvatureOperator:
    """Symmetric operator on Lambda^2(R^4) in the lexicographic basis."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        try:
            m = np.array(matrix, dtype=float)
        except (TypeError, OverflowError) as err:
            raise ValueError("a curvature operator is a 6x6 matrix of numbers") from err
        if m.shape != (6, 6):
            raise ValueError("a curvature operator is a 6x6 matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("curvature operator entries must be finite")
        scale = max(1.0, float(np.max(np.abs(m))))
        if scale > _NORM_SAFE_ENTRY:
            with np.errstate(over="ignore"):
                if not np.isfinite(np.linalg.norm(m)):
                    raise ValueError("curvature operator norm overflows double precision")
        defect = float(np.max(np.abs(m - m.T)))
        if defect > SYMMETRY_TOL * scale:
            raise ValueError(f"matrix is not symmetric (defect {defect:.3e})")
        m = 0.5 * (m + m.T)
        m.flags.writeable = False
        self.matrix = m

    def component(self, i, j, k, l):
        """R_ijkl with the full index symmetries; zero for a repeated pair."""
        if i == j or k == l:
            return 0.0
        a, sa = pair_slot(i, j)
        b, sb = pair_slot(k, l)
        return float(sa * sb * self.matrix[b, a])

    def norm(self):
        return float(np.linalg.norm(self.matrix))

    def inner(self, other):
        return float(np.sum(self.matrix * other.matrix))

    def __add__(self, other):
        return CurvatureOperator(self.matrix + other.matrix)

    def __sub__(self, other):
        return CurvatureOperator(self.matrix - other.matrix)

    def __mul__(self, scalar):
        return CurvatureOperator(self.matrix * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return CurvatureOperator(-self.matrix)

    def __repr__(self):
        return f"CurvatureOperator({self.matrix.tolist()})"


def from_components(components):
    """Build an operator from (i, j, k, l, value) entries.

    Indices are 1-based with i != j and k != l.  Entries related by the
    index symmetries (antisymmetry in each pair, pair exchange) must agree;
    unspecified components are zero.
    """
    m = np.zeros((6, 6))
    seen = np.zeros((6, 6), dtype=bool)
    for entry in components:
        i, j, k, l, value = entry
        for idx in (i, j, k, l):
            if idx not in (1, 2, 3, 4):
                raise ValueError(f"indices must lie in 1..4, got {entry!r}")
        if i == j or k == l:
            raise ValueError(f"index pairs must be non-degenerate, got {entry!r}")
        a, sa = pair_slot(i, j)
        b, sb = pair_slot(k, l)
        v = sa * sb * float(value)
        for row, col in {(b, a), (a, b)}:
            if seen[row, col] and abs(m[row, col] - v) > 1e-12 * max(
                1.0, abs(v), abs(m[row, col])
            ):
                raise ValueError(
                    f"component R_{i}{j}{k}{l}={value} conflicts with a "
                    f"symmetry-related entry already set to {sa * sb * m[row, col]}"
                )
            m[row, col] = v
            seen[row, col] = True
    return CurvatureOperator(m)


# R_ijkl for all 0-based indices at once: the lexicographic slot of each
# ordered pair, and the sign sorting it picks up (0 for a repeated index).
_SLOT = np.zeros((4, 4), dtype=int)
_SLOT[PAIR_FIRST, PAIR_SECOND] = _SLOT[PAIR_SECOND, PAIR_FIRST] = np.arange(6)
_SIGN = np.zeros((4, 4))
_SIGN[PAIR_FIRST, PAIR_SECOND], _SIGN[PAIR_SECOND, PAIR_FIRST] = 1.0, -1.0
_SIGN4 = np.multiply.outer(_SIGN, _SIGN)


def distinct_index_components(r_op):
    """The three components (R_1234, R_1324, R_1423) whose four indices are
    all distinct, the lexicographic entries (6,1), (5,2) and (4,3); a frame
    from orthogonal coordinates zeroes all three."""
    return tuple(r_op.matrix[(5, 4, 3), (0, 1, 2)].tolist())


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


def bianchi_defect(r_op):
    """The single independent component of the first-Bianchi map in
    dimension 4: R_1234 + R_2314 + R_3124.

    It vanishes exactly when R is Frobenius-orthogonal to the Hodge star;
    both computations are carried out and must agree.
    """
    r1234, r1324, r1423 = distinct_index_components(r_op)
    by_components = r1234 + r1423 - r1324  # R_2314 = R_1423, R_3124 = -R_1324
    by_star = 0.5 * float(np.sum(r_op.matrix * HODGE_MATRIX))
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
    t = np.asarray(t, dtype=float)
    if t.shape != (4, 4):
        raise ValueError("s_map expects a 4x4 matrix")
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
    is removed first (bianchi_part), then the Weyl halves are read off the
    diagonal blocks of what remains in the adapted basis.
    """
    m = r_op.matrix
    beta = float(np.sum(m * HODGE_MATRIX)) / 6.0
    bianchi = beta * HODGE_MATRIX
    r = scalar_curvature(r_op)
    scalar = (r / 12.0) * np.eye(6)
    ric0 = s_map(ricci(r_op) - (r / 4.0) * np.eye(4)).matrix
    remainder = m - bianchi - scalar - ric0
    rem_ad = ADAPTED_IDENTITY.T @ remainder @ ADAPTED_IDENTITY
    wp_ad = np.zeros((6, 6))
    wp_ad[:3, :3] = rem_ad[:3, :3]
    wm_ad = np.zeros((6, 6))
    wm_ad[3:, 3:] = rem_ad[3:, 3:]
    weyl_plus = ADAPTED_IDENTITY @ wp_ad @ ADAPTED_IDENTITY.T
    weyl_minus = ADAPTED_IDENTITY @ wm_ad @ ADAPTED_IDENTITY.T
    return Decomposition(
        scalar_part=CurvatureOperator(scalar),
        traceless_ricci_part=CurvatureOperator(ric0),
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
    (R_1212 + R_3434 + 2 R_1234)/2 in the rotated frame.
    """
    s = unit_sign(sign)
    beta = float(np.sum(r_op.matrix * HODGE_MATRIX)) / 6.0
    reduced = CurvatureOperator(r_op.matrix - beta * HODGE_MATRIX)
    ad = adapted_form(reduced, q)
    return ad[:3, :3] if s > 0 else ad[3:, 3:]


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
            if not (isinstance(ijkl, (list, tuple)) and len(ijkl) == 4):
                raise ValueError(f"component entry needs a 4-index 'ijkl', got {item!r}")
            try:
                entries.append((*ijkl, float(item["value"])))
            except (KeyError, TypeError, OverflowError) as err:
                raise ValueError(f"component entry {item!r} needs a numeric 'value'") from err
        return from_components(entries)
    raise ValueError("operator document needs a 'matrix' or a 'components' key")
