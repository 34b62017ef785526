"""Orthogonal complex structures on R^4 and the curvature identities a
parallel complex structure forces.

A complex structure J is an orthogonal anti-involution (J^2 = -Id).  Its
metric dual is a bivector; we fix the orientation in which that bivector
is self-dual, so in every admissible frame it expands as

    I = a12 (e1^e2 + e3^e4) + a13 (e1^e3 - e2^e4) + a14 (e1^e4 + e2^e3)

with a12^2 + a13^2 + a14^2 = 1.  The curvature operator of a Kaehler
metric commutes with the bivector extension of J and fixes it (RJ = JR
= R), which pins twelve linear combinations of curvature components to
zero and collapses three blocks of the operator to rank one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bivectors import (
    ADAPTED_IDENTITY,
    DEFAULT_TOLERANCE,
    PAIR_FIRST,
    PAIR_SECOND,
    FrameRotation,
    _real_array,
    induced_map,
    sd_project,
)
from .operators import (
    CurvatureOperator,
    _component_index,
    conjugate,
    distinct_index_components,
    from_components,
    ricci,
    scalar_curvature,
)

STRUCTURE_TOL = 1e-12

# J e1 = e2, J e2 = -e1, J e3 = e4, J e4 = -e3 (the unitary-frame structure).
STANDARD_J = np.array(
    [
        [0, -1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, -1],
        [0, 0, 1, 0],
    ],
    dtype=float,
)
STANDARD_J.flags.writeable = False


class NonKahlerError(ValueError):
    """An operation that requires a Kaehler operator got a non-Kaehler one."""


def _dual_bivector_coeffs(j):
    """Coefficients of the metric dual sum_{i<j} <J e_i, e_j> e_i^e_j."""
    return j[PAIR_SECOND, PAIR_FIRST]


@dataclass(frozen=True, eq=False)
class ComplexStructure:
    """Orthogonal J with J^2 = -Id whose dual bivector is self-dual."""

    matrix: np.ndarray

    def __post_init__(self):
        j = _real_array(self.matrix, (4, 4), "complex structure")
        if np.max(np.abs(j.T @ j - np.eye(4))) > STRUCTURE_TOL:
            raise ValueError("complex structure must be orthogonal")
        if np.max(np.abs(j @ j + np.eye(4))) > STRUCTURE_TOL:
            raise ValueError("complex structure must square to -Id")
        dual = _dual_bivector_coeffs(j)
        if np.linalg.norm(sd_project(dual, -1)) > 1e-9:
            raise ValueError(
                "dual bivector is not self-dual; the structure is incompatible "
                "with the fixed orientation"
            )
        unit = float(np.sum(sd_project(dual, +1)[:3] ** 2))
        # a12^2+a13^2+a14^2 = 1 follows from orthogonality; assert it anyway
        if abs(unit - 1.0) > 1e-12:
            raise ValueError("dual bivector coefficients are not unit length")
        j.flags.writeable = False
        object.__setattr__(self, "matrix", j)

    def dual_bivector(self):
        return _dual_bivector_coeffs(self.matrix)


def unit_triple(values):
    """``values`` as a read-only float array (a12, a13, a14) of finite
    entries whose squares sum to 1 within 1e-9: the one rule for a unit
    coefficient triple."""
    triple = _real_array(values, (3,), "coefficient triple")
    if abs(sum(v * v for v in triple.tolist()) - 1.0) > 1e-9:
        raise ValueError("coefficient triple: expected a unit triple, squares summing to 1")
    triple.flags.writeable = False
    return triple


def from_unitary_frame():
    """The structure whose frame is unitary: coefficients (1, 0, 0)."""
    return ComplexStructure(STANDARD_J)


def structure_from_coeffs(coeffs):
    """The unique orientation-compatible J with the given unit frame
    coefficients (a12, a13, a14)."""
    a12, a13, a14 = unit_triple(coeffs).tolist()
    return np.array(
        [
            [0.0, -a12, -a13, -a14],
            [a12, 0.0, -a14, a13],
            [a13, a14, 0.0, -a12],
            [a14, -a13, a12, 0.0],
        ]
    )


def coeffs_in_frame(structure: ComplexStructure, q: FrameRotation):
    """Read (a12, a13, a14) off the self-dual expansion of the dual bivector
    in the rotated frame f = Qe."""
    jrot = q.matrix.T @ structure.matrix @ q.matrix
    c = _dual_bivector_coeffs(jrot)
    if np.linalg.norm(sd_project(c, -1)) > 1e-9:
        raise ValueError("structure is not orientation-compatible in this frame")
    coeffs = unit_triple(c[:3])
    if np.max(np.abs(structure_from_coeffs(coeffs) - jrot)) > 1e-10:
        raise AssertionError("coefficients do not reconstruct the rotated structure")
    return coeffs


def extend_to_bivectors(structure: ComplexStructure):
    """The action v^w -> Jv^Jw on bivector coefficients.

    Symmetric and idempotent, the identity on the anti-self-dual subspace,
    fixes the dual bivector; eigenvalues (1, 1, 1, 1, -1, -1).
    """
    return induced_map(structure.matrix)


# The 18 components the twelve lines read, in the order _identity_lines
# unpacks them.
_LINE_ROWS, _LINE_COLS, _LINE_SIGNS = _component_index(
    (
        (1, 2, 1, 2), (3, 4, 3, 4), (1, 3, 1, 3), (2, 4, 2, 4), (1, 4, 1, 4), (2, 3, 2, 3),
        (1, 2, 1, 3), (4, 2, 4, 3), (2, 1, 2, 4), (3, 1, 3, 4),
        (1, 2, 1, 4), (3, 2, 3, 4), (2, 1, 2, 3), (4, 1, 4, 3),
        (1, 3, 1, 4), (2, 3, 2, 4), (4, 1, 4, 2), (3, 1, 3, 2),
    )
)


def _identity_lines(r_op: CurvatureOperator, coeffs):
    """The twelve linear conditions on curvature components, evaluated as
    left-minus-right residuals in the frame the components refer to, and
    the holomorphic sums (d12, d13, d14) they are built from."""
    (
        c1212, c3434, c1313, c2424, c1414, c2323,
        c1213, c4243, c2124, c3134,
        c1214, c3234, c2123, c4143,
        c1314, c2324, c4142, c3132,
    ) = (_LINE_SIGNS * r_op.matrix[_LINE_ROWS, _LINE_COLS]).tolist()
    rho = ricci(r_op)
    a12, a13, a14 = coeffs.tolist()

    r1234, r1324, r1423 = distinct_index_components(r_op)
    d12 = c1212 + c3434 + 2.0 * r1234
    d13 = c1313 + c2424 - 2.0 * r1324
    d14 = c1414 + c2323 + 2.0 * r1423
    e12 = c1212 - c3434
    e13 = c1313 - c2424
    e14 = c1414 - c2323
    g12 = (c1213 - c4243) + (c2124 - c3134)
    g13 = (c1214 - c3234) - (c2123 - c4143)
    g14 = (c1314 - c2324) - (c4142 - c3132)

    lines = np.array(
        [
            a12 * g12 - a13 * d12,
            a12 * g13 - a14 * d12,
            a13 * g12 - a12 * d13,
            a13 * g14 - a14 * d13,
            a14 * g13 - a12 * d14,
            a14 * g14 - a13 * d14,
            a12 * (rho[1, 2] + rho[0, 3]) - a13 * e12,
            a12 * (rho[1, 3] - rho[0, 2]) - a14 * e12,
            a13 * (rho[1, 2] - rho[0, 3]) - a12 * e13,
            a13 * (rho[2, 3] + rho[0, 1]) - a14 * e13,
            a14 * (rho[1, 3] + rho[0, 2]) - a12 * e14,
            a14 * (rho[2, 3] - rho[0, 1]) - a13 * e14,
        ]
    )
    return lines, (d12, d13, d14)


class KahlerFrameView:
    """What every Kaehler check reads of one operator in one frame for one
    structure, computed once: the rotated operator, the coefficients, the
    twelve lines and their largest absolute value, the holomorphic sums
    d_1j = R_1j1j + R_klkl +/- 2 R_1jkl, the operator defect
    max(||RJ - R||, ||RJ - JR||) and the scale max(1, ||R||).

    The defect decides whether the operator is Kaehler (:meth:`is_kaehler`).
    The lines are its second route, cross-checked on construction: each line
    is a component of R applied to a J-antiinvariant bivector, so it never
    exceeds ||RJ - R||, and all vanish with the defect.  The converse fails:
    on a coordinate axis the lines miss directions that RJ = R excludes.
    """

    def __init__(self, r_op, structure, q: FrameRotation, rotated=None):
        # rotated: r_op already conjugated into q, when the caller has it
        self.operator, self.frame = r_op, q
        self.rotated = conjugate(r_op, q) if rotated is None else rotated
        self.coeffs = coeffs_in_frame(structure, q)
        self.lines, self.holomorphic_sums = _identity_lines(self.rotated, self.coeffs)

        jext = extend_to_bivectors(structure)
        m = r_op.matrix
        fixed_defect = float(np.linalg.norm(m @ jext - m))
        commute_defect = float(np.linalg.norm(m @ jext - jext @ m))
        self.scale = max(1.0, r_op.norm())
        self.max_line = float(np.max(np.abs(self.lines)))
        self.defect = max(fixed_defect, commute_defect)
        if self.max_line > fixed_defect * (1.0 + 1e-6) + 1e-12 * self.scale:
            raise AssertionError(
                "identity residuals exceed the operator defect ||RJ - R||"
            )
        if self.defect <= 1e-9 * self.scale and self.max_line > 1e-8 * self.scale:
            raise AssertionError(
                "operator satisfies RJ = JR = R but the identity lines do not vanish"
            )

    def is_kaehler(self, tol):
        """RJ = JR = R within tol * scale: the one Kaehler predicate."""
        return self.defect <= tol * self.scale

    def require_kaehler(self, tol):
        """Raise NonKahlerError unless :meth:`is_kaehler`."""
        if not self.is_kaehler(tol):
            raise NonKahlerError("operator does not satisfy the Kaehler conditions")


def kaehler_residuals(r_op, structure, q: FrameRotation):
    """Residuals of the twelve Kaehler conditions in the rotated frame.

    A Kaehler operator zeroes all twelve in every compatible frame.  The
    residuals are cross-checked against the frame-free operator conditions
    RJ = JR = R when the :class:`KahlerFrameView` holding them is built.
    """
    return KahlerFrameView(r_op, structure, q).lines


def scalar_from_kaehler(r_op, structure, q: FrameRotation, tol=DEFAULT_TOLERANCE):
    """Scalar-curvature candidates 2 (R_1j1j + R_klkl +/- 2 R_dist)/a_1j^2.

    One candidate per direction with a nonvanishing coefficient; for a
    degenerate direction the associated curvature sum must itself vanish,
    which is asserted instead of dividing by zero.
    """
    view = KahlerFrameView(r_op, structure, q)
    view.require_kaehler(tol)
    candidates = []
    for a1j, num in zip(view.coeffs, view.holomorphic_sums):
        if abs(a1j) <= 1e-7:
            if abs(num) > tol * view.scale:
                raise AssertionError(
                    "degenerate coefficient direction carries a nonvanishing "
                    f"curvature sum {num:.3e}"
                )
            continue
        candidates.append(2.0 * num / a1j**2)
    return candidates


@dataclass(frozen=True)
class KahlerBlockForm:
    """Adapted-basis blocks of a Kaehler operator with rank-1 certificates."""

    r: float
    coeffs: np.ndarray           # (a12, a13, a14) in the frame, read-only
    plus_block: np.ndarray       # W+ + (r/12) Id
    cross_block: np.ndarray      # traceless-Ricci block, maps the anti-self-dual side in
    minus_block: np.ndarray      # W- + (r/12) Id
    plus_singular_values: np.ndarray
    cross_singular_values: np.ndarray
    wminus_correction: np.ndarray
    wplus_formula_defect: float
    wminus_formula_defect: float


def _rank_one(sv, scale):
    # scale-aware numerical rank: sigma_2 below max(1e-8 sigma_1, 1e-10 scale)
    return sv[1] <= max(1e-8 * sv[0], 1e-10 * scale)


def kaehler_block_form(r_op, structure, q: FrameRotation, tol=DEFAULT_TOLERANCE):
    """Certify the rank-one block structure of a Kaehler operator in the
    adapted basis of q and check the closed-form W+ / W- expressions.

    W+ must equal (r/4)(a a^T - Id/3); W- equals the same expression plus a
    correction matrix built from components with three distinct indices
    (returned as ``wminus_correction``).
    """
    view = KahlerFrameView(r_op, structure, q)
    view.require_kaehler(tol)
    scale = view.scale
    r = scalar_curvature(r_op)
    a = view.coeffs

    # the adapted basis of q is the identity frame's one for the rotated operator
    ad = ADAPTED_IDENTITY.T @ view.rotated.matrix @ ADAPTED_IDENTITY
    plus = ad[:3, :3]
    cross = ad[:3, 3:]
    minus = ad[3:, 3:]

    rank1 = (r / 4.0) * np.outer(a, a)
    traceless = rank1 - (r / 12.0) * np.eye(3)

    c = view.rotated.component
    r1234, r1324, r1423 = distinct_index_components(view.rotated)
    off12 = -(c(2, 1, 2, 4) - c(3, 1, 3, 4))
    off13 = c(2, 1, 2, 3) - c(4, 1, 4, 3)
    off23 = -(c(3, 1, 3, 2) - c(4, 1, 4, 2))
    correction = np.array(
        [
            [-2.0 * r1234, off12, off13],
            [off12, 2.0 * r1324, off23],
            [off13, off23, -2.0 * r1423],
        ]
    )

    wplus_defect = float(np.max(np.abs((plus - (r / 12.0) * np.eye(3)) - traceless)))
    wminus_defect = float(
        np.max(np.abs((minus - (r / 12.0) * np.eye(3)) - (traceless + correction)))
    )
    sv_plus = np.linalg.svd(plus, compute_uv=False)
    sv_cross = np.linalg.svd(cross, compute_uv=False)
    if not (_rank_one(sv_plus, scale) and _rank_one(sv_cross, scale)):
        raise NonKahlerError(
            "adapted-basis blocks are not rank one "
            f"(singular values {sv_plus}, {sv_cross})"
        )
    if wplus_defect > 1e-9 * scale:
        raise NonKahlerError(
            f"self-dual Weyl block deviates from (r/4)(aa^T - Id/3) by {wplus_defect:.3e}"
        )
    return KahlerBlockForm(
        r=r,
        coeffs=a,
        plus_block=plus,
        cross_block=cross,
        minus_block=minus,
        plus_singular_values=sv_plus,
        cross_singular_values=sv_cross,
        wminus_correction=correction,
        wplus_formula_defect=wplus_defect,
        wminus_formula_defect=wminus_defect,
    )


def build_const_hol_sec(c):
    """Curvature operator of constant holomorphic sectional curvature c in the
    standard unitary frame (the complex-projective-plane model for c > 0).

    Components follow the classical complex-space-form expression

        R_ijkl = (c/4) (d_ik d_jl - d_il d_jk + w_ik w_jl - w_il w_jk
                        + 2 w_ij w_kl),      w_ab = <J e_a, e_b>,

    so holomorphic planes have sectional curvature c and totally real ones
    c/4.  On bivectors the three terms are Id, the extension
    v^w -> Jv^Jw and twice the projection onto the dual bivector w of J,
    so the operator is (c/4) (Id + induced_map(J) + 2 w w^T).  Kaehler for
    the standard structure; anti-self-dual part zero.
    """
    w = _dual_bivector_coeffs(STANDARD_J)
    c = float(_real_array(c, (), "holomorphic sectional curvature"))
    return CurvatureOperator(
        (c / 4.0) * (np.eye(6) + induced_map(STANDARD_J) + 2.0 * np.outer(w, w))
    )


def build_surface_product(k1, k2):
    """Curvature of a product of two surfaces of constant curvatures k1, k2,
    in a frame splitting the factors as (e1, e2) and (e3, e4).

    Kaehler for the standard structure; conformally flat exactly when
    k2 = -k1.
    """
    r_op = from_components([(1, 2, 1, 2, k1), (3, 4, 3, 4, k2)])
    return r_op, from_unitary_frame()


def structure_from_dict(doc):
    if not isinstance(doc, dict) or "J" not in doc:
        raise ValueError("complex-structure document needs a 'J' key")
    return ComplexStructure(doc["J"])
