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
    PAIR_FIRST,
    PAIR_SECOND,
    Bivector,
    FrameRotation,
    induced_map,
    random_rotation,
    sd_project,
)
from .operators import (
    CurvatureOperator,
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
        try:
            j = np.array(self.matrix, dtype=float)
        except (TypeError, OverflowError) as err:
            raise ValueError("a complex structure is a 4x4 matrix of numbers") from err
        if j.shape != (4, 4):
            raise ValueError("a complex structure is a 4x4 matrix")
        if not np.all(np.isfinite(j)):
            raise ValueError("complex structure entries must be finite")
        if np.max(np.abs(j.T @ j - np.eye(4))) > STRUCTURE_TOL:
            raise ValueError("complex structure must be orthogonal")
        if np.max(np.abs(j @ j + np.eye(4))) > STRUCTURE_TOL:
            raise ValueError("complex structure must square to -Id")
        dual = Bivector(_dual_bivector_coeffs(j))
        if sd_project(dual, -1).norm() > 1e-9:
            raise ValueError(
                "dual bivector is not self-dual; the structure is incompatible "
                "with the fixed orientation"
            )
        unit = float(np.sum(sd_project(dual, +1).coeffs[:3] ** 2))
        # a12^2+a13^2+a14^2 = 1 follows from orthogonality; assert it anyway
        if abs(unit - 1.0) > 1e-12:
            raise ValueError("dual bivector coefficients are not unit length")
        j.flags.writeable = False
        object.__setattr__(self, "matrix", j)

    def dual_bivector(self):
        return Bivector(_dual_bivector_coeffs(self.matrix))


@dataclass(frozen=True)
class KahlerCoeffs:
    """Components (a12, a13, a14) of the dual bivector in a given frame."""

    a12: float
    a13: float
    a14: float

    def __post_init__(self):
        # written so that a NaN entry fails the comparison too
        if not abs(self.a12**2 + self.a13**2 + self.a14**2 - 1.0) <= 1e-9:
            raise ValueError("coefficients must be finite with unit sum of squares")

    def as_array(self):
        return np.array([self.a12, self.a13, self.a14])


def from_unitary_frame():
    """The structure whose frame is unitary: coefficients (1, 0, 0)."""
    return ComplexStructure(STANDARD_J)


def structure_from_coeffs(coeffs: KahlerCoeffs):
    """The unique orientation-compatible J with the given frame coefficients."""
    a12, a13, a14 = coeffs.a12, coeffs.a13, coeffs.a14
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
    if sd_project(Bivector(c), -1).norm() > 1e-9:
        raise ValueError("structure is not orientation-compatible in this frame")
    coeffs = KahlerCoeffs(float(c[0]), float(c[1]), float(c[2]))
    if np.max(np.abs(structure_from_coeffs(coeffs) - jrot)) > 1e-10:
        raise AssertionError("coefficients do not reconstruct the rotated structure")
    return coeffs


def extend_to_bivectors(structure: ComplexStructure):
    """The action v^w -> Jv^Jw on bivector coefficients.

    Symmetric and idempotent, the identity on the anti-self-dual subspace,
    fixes the dual bivector; eigenvalues (1, 1, 1, 1, -1, -1).
    """
    return induced_map(structure.matrix)


def _identity_lines(r_op: CurvatureOperator, coeffs: KahlerCoeffs):
    """The twelve linear conditions on curvature components, evaluated as
    left-minus-right residuals in the frame the components refer to, and
    the holomorphic sums (d12, d13, d14) they are built from."""
    c = r_op.component
    rho = ricci(r_op)
    a12, a13, a14 = coeffs.a12, coeffs.a13, coeffs.a14

    r1234, r1324, r1423 = distinct_index_components(r_op)
    d12 = c(1, 2, 1, 2) + c(3, 4, 3, 4) + 2.0 * r1234
    d13 = c(1, 3, 1, 3) + c(2, 4, 2, 4) - 2.0 * r1324
    d14 = c(1, 4, 1, 4) + c(2, 3, 2, 3) + 2.0 * r1423
    e12 = c(1, 2, 1, 2) - c(3, 4, 3, 4)
    e13 = c(1, 3, 1, 3) - c(2, 4, 2, 4)
    e14 = c(1, 4, 1, 4) - c(2, 3, 2, 3)
    g12 = (c(1, 2, 1, 3) - c(4, 2, 4, 3)) + (c(2, 1, 2, 4) - c(3, 1, 3, 4))
    g13 = (c(1, 2, 1, 4) - c(3, 2, 3, 4)) - (c(2, 1, 2, 3) - c(4, 1, 4, 3))
    g14 = (c(1, 3, 1, 4) - c(2, 3, 2, 4)) - (c(4, 1, 4, 2) - c(3, 1, 3, 2))

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
    d_1j = R_1j1j + R_klkl +/- 2 R_1jkl and the scale max(1, ||R||).

    Construction cross-checks the lines against the frame-free conditions
    RJ = JR = R: each line is a component of R applied to a J-antiinvariant
    bivector, so it never exceeds ||RJ - R||, and all vanish with both defects.
    """

    def __init__(self, r_op, structure, q: FrameRotation):
        self.operator, self.frame = r_op, q
        self.rotated = conjugate(r_op, q)
        self.coeffs = coeffs_in_frame(structure, q)
        self.lines, self.holomorphic_sums = _identity_lines(self.rotated, self.coeffs)

        jext = extend_to_bivectors(structure)
        m = r_op.matrix
        fixed_defect = float(np.linalg.norm(m @ jext - m))
        commute_defect = float(np.linalg.norm(m @ jext - jext @ m))
        self.scale = max(1.0, r_op.norm())
        self.max_line = float(np.max(np.abs(self.lines)))
        if self.max_line > fixed_defect * (1.0 + 1e-6) + 1e-12 * self.scale:
            raise AssertionError(
                "identity residuals exceed the operator defect ||RJ - R||"
            )
        if (
            max(fixed_defect, commute_defect) <= 1e-9 * self.scale
            and self.max_line > 1e-8 * self.scale
        ):
            raise AssertionError(
                "operator satisfies RJ = JR = R but the identity lines do not vanish"
            )

    def require_kaehler(self, tol):
        """Raise NonKahlerError unless every line is within tol * scale."""
        if self.max_line > tol * self.scale:
            raise NonKahlerError("operator does not satisfy the Kaehler conditions")


def kaehler_residuals(r_op, structure, q: FrameRotation):
    """Residuals of the twelve Kaehler conditions in the rotated frame.

    A Kaehler operator zeroes all twelve in every compatible frame.  The
    residuals are cross-checked against the frame-free operator conditions
    RJ = JR = R when the :class:`KahlerFrameView` holding them is built.
    """
    return KahlerFrameView(r_op, structure, q).lines


def scalar_from_kaehler(r_op, structure, q: FrameRotation, tol=1e-9):
    """Scalar-curvature candidates 2 (R_1j1j + R_klkl +/- 2 R_dist)/a_1j^2.

    One candidate per direction with a nonvanishing coefficient; for a
    degenerate direction the associated curvature sum must itself vanish,
    which is asserted instead of dividing by zero.
    """
    view = KahlerFrameView(r_op, structure, q)
    view.require_kaehler(tol)
    candidates = []
    for a1j, num in zip(view.coeffs.as_array(), view.holomorphic_sums):
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
    coeffs: KahlerCoeffs
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


def kaehler_block_form(r_op, structure, q: FrameRotation, tol=1e-9):
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
    coeffs = view.coeffs
    a = coeffs.as_array()

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
        coeffs=coeffs,
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
    return CurvatureOperator(
        (float(c) / 4.0) * (np.eye(6) + induced_map(STANDARD_J) + 2.0 * np.outer(w, w))
    )


def build_surface_product(k1, k2):
    """Curvature of a product of two surfaces of constant curvatures k1, k2,
    in a frame splitting the factors as (e1, e2) and (e3, e4).

    Kaehler for the standard structure; conformally flat exactly when
    k2 = -k1.
    """
    r_op = from_components([(1, 2, 1, 2, float(k1)), (3, 4, 3, 4, float(k2))])
    return r_op, from_unitary_frame()


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


def structure_from_dict(doc):
    if not isinstance(doc, dict) or "J" not in doc:
        raise ValueError("complex-structure document needs a 'J' key")
    return ComplexStructure(doc["J"])
