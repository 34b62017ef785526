"""Executable obstructions to frames arising from orthogonal coordinates.

A frame coming from orthogonal coordinates forces R_ijkl = 0 whenever all
four indices are distinct.  This module builds the frame minimizing those
components in closed form (two Givens rotations per Weyl block), checks
the scalar-curvature sign relations a Kaehler operator must then
satisfy, classifies self-dual Kaehler operators (either scalar-flat and
conformally flat, or all structure coefficients squared equal 1/3), solves
the exact linear systems on the logarithmic derivative constants c_1..c_4
arising in the special frame, and certifies the Ricci-flat obstruction as
a finite-dimensional nullspace computation.

A residual above tolerance is reported as "inconclusive", never as
nonexistence.  The closed-form frame attains the floor 3 beta^2 that the
star component beta imposes on every frame, so no other frame does better.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd

import numpy as np

from .bivectors import ADAPTED_SQRT2, DEFAULT_TOLERANCE, FrameRotation, _form_to_skew, wedge
from .kahler import (
    KahlerFrameView,
    _identity_lines,
    from_unitary_frame,
    unit_triple,
)
from .operators import (
    CurvatureOperator,
    adapted_form,
    bianchi_defect,
    conjugate,
    decompose,
    distinct_index_components,
    ricci,
    scalar_curvature,
)

VERDICT_FLAT = "flat"
VERDICT_CONFORMALLY_FLAT = "conformally-flat-branch"
VERDICT_SPECIAL_FRAME = "special-frame-branch"
VERDICT_VIOLATION = "violation"
VERDICT_INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# The two isoclinic (left/right quaternion) factors of SO(4): the exponential
# of a combination of either generator triple, each a two-term closed form.

_GENERATORS = _form_to_skew(ADAPTED_SQRT2.T) + 0.0  # -0.0 entries read as +0.0
_GENERATORS.flags.writeable = False
_EYE4 = np.eye(4)


def _iso_exp(v, gens):
    # (v . gens)^2 = -|v|^2 Id, so the exponential closes after two terms
    n = float(np.linalg.norm(v))
    k = np.tensordot(v, gens, axes=1)
    return np.cos(n) * _EYE4 + np.sinc(n / np.pi) * k


# ---------------------------------------------------------------------------
# Distinct-index residual and the closed-form frame that minimizes it.


def distinct_index_residual(r_op, q: FrameRotation | None):
    """Sum of squares of the three distinct-index components in the rotated
    frame, or in the frame the components already refer to when q is None;
    zero exactly when the frame satisfies the necessary condition for
    orthogonal coordinates.

    In the adapted basis of any frame (R_1234, -R_1324, R_1423) equals
    (diag A - diag C)/2, where A and C are the self-dual and anti-self-dual
    diagonal blocks, so the residual can never drop below 3 beta^2 for an
    operator with star component beta (tr A - tr C = 6 beta).  The two
    blocks rotate independently, and every symmetric 3x3 matrix can be
    rotated to a constant diagonal, so that floor is always attained: 0 for
    every operator satisfying the Bianchi identity.  The information carried
    by the condition is therefore *which* frames achieve it, not whether one
    exists.
    """
    rotated = r_op if q is None else conjugate(r_op, q)
    return float(sum(c * c for c in distinct_index_components(rotated)))


@dataclass(frozen=True)
class FrameSearchResult:
    frame: FrameRotation
    residual: float
    conclusive: bool
    rotated: CurvatureOperator  # the operator's components in ``frame``


def _distinct_free(residual, scale, tol):
    """The one rule for a frame without distinct-index components: the root
    of its residual at most tol * scale, with scale = max(1, ||R||)."""
    return bool(np.sqrt(residual) <= tol * scale)


def _constant_diagonal_rotation(block, gens, sign, tol):
    """The rotation of SO(4) that turns one symmetric 3x3 adapted block to
    the constant diagonal tr/3 and fixes the other (a constructive
    Schur-Horn step).  The plane (a, b) of the largest and smallest diagonal
    entries turns until entry a equals the mean, then the remaining pair,
    whose mean is then the mean.  Turning plane (a, b) of the block by t
    (G_aa = G_bb = cos t, G_ba = -G_ab = sin t) is the isoclinic factor of
    generator k = 3 - a - b with parameter sign * eps_abk * t / 2."""
    d = np.diag(block)
    q = _EYE4
    if np.ptp(d) <= tol:
        return q
    mu = float(np.trace(block)) / 3.0
    i, j = int(np.argmax(d)), int(np.argmin(d))
    for a, b in ((i, j), (j, 3 - i - j)):
        h, mean = (block[a, a] - block[b, b]) / 2.0, (block[a, a] + block[b, b]) / 2.0
        rho = float(np.hypot(h, block[a, b]))
        if rho == 0.0:
            continue
        t = 0.5 * (np.arctan2(block[a, b], h) + np.arccos(np.clip((mu - mean) / rho, -1.0, 1.0)))
        g = np.eye(3)
        g[[a, b], [a, b]] = np.cos(t)
        g[b, a], g[a, b] = np.sin(t), -np.sin(t)
        block = g.T @ block @ g
        k = 3 - a - b
        v = np.zeros(3)
        v[k] = sign * ((a - b) * (b - k) * (k - a) // 2) * t / 2.0  # eps_abk
        q = q @ _iso_exp(v, gens)
    return q


def _wedge_residual(m, q):
    """The distinct-index residual paired from wedge products of the frame
    columns, R_ijkl = <R(f_i ^ f_j), f_k ^ f_l>; shares no code with
    induced_map."""
    f = q.T
    total = 0.0
    for i, j, k, l in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)):
        total += float(wedge(f[k], f[l]) @ m @ wedge(f[i], f[j])) ** 2
    return total


def frame_search(r_op, restarts=32, seed=0, tol=DEFAULT_TOLERANCE):
    """The frame minimizing the distinct-index residual, in closed form.

    Starting from the explicit frame of :func:`cp2_example_frame`, each
    diagonal block of the adapted form is rotated to a constant diagonal by
    two Givens rotations, lifted to SO(4) through the isoclinic factor that
    moves only that block.  The residual is then 3 beta^2 up to rounding,
    the floor every frame obeys, with beta = ``_star_pairing(r_op) / 6``
    from :mod:`curv4.operators`: 0 for an operator satisfying the Bianchi
    identity.  The CP^2 start keeps the explicit frame when it already
    qualifies, and keeps a block that is already constant where it is (the
    zero self-dual block of a scalar-flat Kaehler operator leaves the
    structure coefficients off the axes).

    The returned residual is recomputed from wedge products of the frame
    columns and must agree with :func:`distinct_index_residual`.  The frame
    is conclusive when sqrt(residual) <= tol * max(1, ||R||), the rule
    :func:`scalar_sign_check` and :func:`selfdual_classify` apply to their
    frames too; failure to meet it means "inconclusive", never nonexistence.

    ``restarts`` (at least 1) and ``seed`` (nonnegative) do not change the
    result.  They stay, validated, only because the frozen benchmark
    (``bench/workloads.py`` and ``bench/clidocs.py``) passes them; the next
    benchmark change removes them.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    norm = r_op.norm()
    q0 = cp2_example_frame()
    adapted = adapted_form(r_op, q0)
    noise = 1e-15 * norm  # a block this close to constant stays put
    frame = FrameRotation(
        q0.matrix
        @ _constant_diagonal_rotation(adapted[:3, :3], _GENERATORS[:3], 1.0, noise)
        @ _constant_diagonal_rotation(adapted[3:, 3:], _GENERATORS[3:], -1.0, noise)
    )
    residual = _wedge_residual(r_op.matrix, frame.matrix)
    scale = max(1.0, norm)
    rotated = conjugate(r_op, frame)
    if abs(residual - distinct_index_residual(rotated, None)) > 1e-10 * scale * scale:
        raise AssertionError("wedge pairing and rotated components disagree on the residual")
    return FrameSearchResult(
        frame=frame,
        residual=residual,
        conclusive=_distinct_free(residual, scale, tol),
        rotated=rotated,
    )


def cp2_example_frame():
    """The explicit frame in which every distinct-index component of the
    constant-holomorphic-curvature operator vanishes; its structure
    coefficients are (1/sqrt3, 1/sqrt3, 1/sqrt3)."""
    s2, s3, s6 = np.sqrt(2.0), np.sqrt(3.0), np.sqrt(6.0)
    q = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0 / s3, 1.0 / s3, 1.0 / s3],
            [0.0, 1.0 / s2, -1.0 / s2, 0.0],
            [0.0, 1.0 / s6, 1.0 / s6, -s2 / s3],
        ]
    )
    return FrameRotation(q)


# ---------------------------------------------------------------------------
# Scalar-sign relations and the self-dual classification.


@dataclass(frozen=True)
class ScalarSignReport:
    pair_sums: tuple
    predicted: tuple
    max_deviation: float
    scalar: float
    common_sign: int
    ok: bool


def _require_distinct_free(view, dres, tol):
    if not _distinct_free(dres, view.scale, tol):
        raise ValueError("frame carries distinct-index curvature components")


def scalar_sign_check(r_op, structure, q: FrameRotation, tol=DEFAULT_TOLERANCE):
    """In a Kaehler frame with vanishing distinct-index components the three
    pair sums R_1212+R_3434, R_1313+R_2424, R_1414+R_2323 equal (r/2) a_1j^2,
    hence share the sign of the scalar curvature."""
    view = KahlerFrameView(r_op, structure, q)
    return _sign_report(view, distinct_index_residual(view.rotated, None), tol)


def _sign_report(view, dres, tol):
    # dres is the distinct-index residual of view's operator in view's frame
    view.require_kaehler(tol)
    _require_distinct_free(view, dres, tol)
    c = view.rotated.component
    sums = (
        c(1, 2, 1, 2) + c(3, 4, 3, 4),
        c(1, 3, 1, 3) + c(2, 4, 2, 4),
        c(1, 4, 1, 4) + c(2, 3, 2, 3),
    )
    r = scalar_curvature(view.operator)
    predicted = tuple((r / 2.0) * a1j**2 for a1j in view.coeffs)
    deviation = max(abs(s - p) for s, p in zip(sums, predicted))
    common_sign = 0 if abs(r) <= tol * view.scale else (1 if r > 0 else -1)
    return ScalarSignReport(
        pair_sums=tuple(float(s) for s in sums),
        predicted=tuple(float(p) for p in predicted),
        max_deviation=float(deviation),
        scalar=float(r),
        common_sign=common_sign,
        ok=bool(deviation <= 1e-8 * view.scale),
    )


@dataclass(frozen=True)
class ObstructionReport:
    verdict: str
    residuals: dict
    tolerance: float
    frame: np.ndarray | None = None
    coefficients: tuple | None = None
    cases: tuple | None = None
    notes: tuple = ()

    def to_dict(self):
        doc = {
            "verdict": self.verdict,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "tolerance": float(self.tolerance),
        }
        if self.frame is not None:
            doc["frame"] = [[float(v) for v in row] for row in self.frame]
        if self.coefficients is not None:
            doc["coefficients"] = [float(v) for v in self.coefficients]
        if self.cases is not None:
            doc["cases"] = [case_summary(c) for c in self.cases]
        if self.notes:
            doc["notes"] = list(self.notes)
        return doc


def selfdual_classify(r_op, structure, q: FrameRotation, tol=DEFAULT_TOLERANCE):
    """Classify a self-dual Kaehler operator given a distinct-index-free frame.

    Either the scalar curvature vanishes (and with it the whole self-dual
    Weyl part: conformally flat branch) or every structure coefficient
    squared equals 1/3 (special frame branch, with the exact c-system
    analysis attached).  Any other outcome contradicts the block form and
    is flagged as a violation.

    The special frame allows |a_1j^2 - 1/3| up to max(tol, 1e-6), not
    ``tol``: a frame whose distinct-index residual is eps pins the
    coefficients only to about sqrt(eps).  The closed-form frame of
    :func:`frame_search` reaches a residual at rounding level, but a supplied
    frame need only meet ``tol``.
    """
    dec = decompose(r_op)
    if dec.weyl_minus.norm() > tol * max(1.0, r_op.norm()):
        raise ValueError("operator is not self-dual (anti-self-dual Weyl part present)")
    view = KahlerFrameView(r_op, structure, q)
    return _classify(view, dec, distinct_index_residual(view.rotated, None), tol)


def _classify(view, dec, dres, tol):
    # the caller has checked that dec has no anti-self-dual Weyl part
    view.require_kaehler(tol)
    _require_distinct_free(view, dres, tol)

    a = view.coeffs
    residuals = {
        "weyl_minus_norm": dec.weyl_minus.norm(),
        "weyl_plus_norm": dec.weyl_plus.norm(),
        "kaehler_identity_max": view.max_line,
        "distinct_index_residual": dres,
        "scalar_curvature": dec.r,
    }
    report = partial(
        ObstructionReport,
        residuals=residuals,
        tolerance=tol,
        frame=view.frame.matrix,
        coefficients=tuple(a),
    )
    if abs(dec.r) <= tol * view.scale:
        if dec.weyl_plus.norm() <= 10.0 * tol * view.scale:
            return report(verdict=VERDICT_CONFORMALLY_FLAT)
        return report(
            verdict=VERDICT_VIOLATION,
            notes=("scalar curvature vanishes but the self-dual Weyl part does not",),
        )
    coeff_defect = float(np.max(np.abs(a**2 - 1.0 / 3.0)))
    residuals["coefficient_defect"] = coeff_defect  # report() holds this same dict
    if coeff_defect <= max(tol, 1e-6):
        return report(verdict=VERDICT_SPECIAL_FRAME, cases=c_system_solve())
    return report(
        verdict=VERDICT_VIOLATION,
        notes=(
            "nonzero scalar curvature with structure coefficients away from "
            "1/sqrt(3) contradicts the vanishing of the anti-self-dual block",
        ),
    )


# ---------------------------------------------------------------------------
# Exact linear algebra on the c-system.

RELATION_ROWS = (
    (Fraction(0), Fraction(1), Fraction(1), Fraction(1)),
    (Fraction(1), Fraction(0), Fraction(1), Fraction(-1)),
    (Fraction(1), Fraction(-1), Fraction(0), Fraction(1)),
    (Fraction(1), Fraction(1), Fraction(-1), Fraction(0)),
)

REDUCED_SKEW_ROWS = (
    (Fraction(0), Fraction(1), Fraction(-1)),
    (Fraction(-1), Fraction(0), Fraction(1)),
    (Fraction(1), Fraction(-1), Fraction(0)),
)


def exact_determinant(rows):
    rows = [list(r) for r in rows]
    n = len(rows)
    if n == 1:
        return rows[0][0]
    det = Fraction(0)
    for c in range(n):
        if rows[0][c] == 0:
            continue
        minor = [r[:c] + r[c + 1:] for r in rows[1:]]
        det += (-1) ** c * rows[0][c] * exact_determinant(minor)
    return det


def _primitive(vec):
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 1)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(Fraction(x) for x in ints)


def exact_nullspace(rows, n):
    """Basis of the rational nullspace as primitive integer vectors."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    basis = []
    for free_col in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[free_col] = Fraction(1)
        for row_idx, pivot_col in enumerate(pivots):
            vec[pivot_col] = -m[row_idx][free_col]
        basis.append(_primitive(vec))
    return basis


@dataclass(frozen=True)
class CSystemCase:
    """One of the 16 cases: per index either its relation row is imposed or
    the constant c_j itself is set to zero."""

    relation_active: tuple
    rows: tuple
    nullspace: tuple


def _unit_row(j):
    return tuple(Fraction(1 if k == j else 0) for k in range(4))


@lru_cache(maxsize=None)
def c_system_solve():
    """Solve all 16 exact case systems on (c_1, .., c_4).

    With all four relations active the matrix has determinant -9 and only
    the zero solution.  Dropping relation j in favor of c_j = 0 can leave a
    line of solutions: the displayed reduced 3x3 system is skew with kernel
    spanned by (1, 1, 1), so e.g. c_1 = 0 admits (0, t, t, t).  The solution
    sets are reported verbatim, and solved once per process (no input).
    """
    cases = []
    for bits in itertools.product((True, False), repeat=4):
        rows = tuple(
            RELATION_ROWS[j] if bits[j] else _unit_row(j) for j in range(4)
        )
        cases.append(
            CSystemCase(
                relation_active=bits,
                rows=rows,
                nullspace=tuple(exact_nullspace(rows, 4)),
            )
        )
    return tuple(cases)


def case_summary(case: CSystemCase):
    return {
        "relation_active": list(case.relation_active),
        "nullspace_dimension": len(case.nullspace),
        "nullspace_basis": [[str(x) for x in vec] for vec in case.nullspace],
    }


# ---------------------------------------------------------------------------
# Ricci-flat obstruction as a nullspace computation.

_SYM_ROWS, _SYM_COLS = np.triu_indices(6)  # the 21 entries of a symmetric 6x6
_SYM_COUNT = len(_SYM_ROWS)

# A singular value counts toward a rank above this fraction of the largest.
RANK_TOL = 1e-10


def _symmetric(weights):
    """Symmetric 6x6 matrices from their upper-triangle entries (last axis)."""
    mats = np.zeros(weights.shape[:-1] + (6, 6))
    mats[..., _SYM_ROWS, _SYM_COLS] = mats[..., _SYM_COLS, _SYM_ROWS] = weights
    return mats


@lru_cache(maxsize=None)
def _constraint_blocks():
    """The Ricci-flat constraint rows on the symmetric basis, read-only and
    shared by every call: the Bianchi row, the twelve Kaehler lines of each
    axis structure e_k in the identity frame (3 x 12 x 21), the ten Ricci
    rows and the three distinct-index rows.  The structure e_k has the
    triple e_k in the identity frame, so no structure is built."""
    upper = np.triu_indices(4)
    columns = []
    for e in _symmetric(np.eye(_SYM_COUNT)):
        op = CurvatureOperator(e)
        column = [bianchi_defect(op)]
        for axis in np.eye(3):
            column.extend(_identity_lines(op, axis)[0])
        column.extend(ricci(op)[upper])
        column.extend(distinct_index_components(op))
        columns.append(column)
    rows = np.ascontiguousarray(np.array(columns).T)
    rows.flags.writeable = False
    return rows[:1], rows[1:37].reshape(3, 12, -1), rows[37:47], rows[47:]


@lru_cache(maxsize=None)
def _fixed_nullspace(include_distinct_index):
    """The part of the Ricci-flat system that does not depend on the triple,
    solved once per process: the number of fixed rows, an orthonormal basis
    N (n x 21) of the nullspace of the Bianchi, Ricci and (optionally)
    distinct-index rows, and the three axis-line blocks restricted to it
    (3 x 12 x n), all read-only.  The fixed rows have rank 13 with the
    distinct-index rows (the Bianchi row is their signed sum) and 11
    without, so n is 8 or 10."""
    bianchi, axis_lines, ricci_rows, distinct = _constraint_blocks()
    rows = [bianchi, ricci_rows]
    if include_distinct_index:
        rows.append(distinct)
    fixed = np.vstack(rows)
    _, sv, vt = np.linalg.svd(fixed)
    rank = int(np.sum(sv > RANK_TOL * sv[0]))
    if rank != (13 if include_distinct_index else 11):
        raise AssertionError(f"the fixed Ricci-flat rows have rank {rank}")
    basis = np.ascontiguousarray(vt[rank:])
    restricted = axis_lines @ basis.T
    basis.flags.writeable = restricted.flags.writeable = False
    return fixed.shape[0], basis, restricted


@dataclass(frozen=True)
class NullspaceCertificate:
    """``null_rows`` is an orthonormal basis of the nullspace in upper-triangle
    weights (dimension x 21); ``singular_values`` are those of the twelve
    Kaehler lines on the nullspace of the fixed rows."""

    dimension: int
    singular_values: np.ndarray
    null_rows: np.ndarray
    constraint_count: int
    rank_tolerance: float

    @property
    def basis(self):
        """The nullspace basis as validated operators, built when read."""
        return tuple(CurvatureOperator(mat) for mat in _symmetric(self.null_rows))


def ricciflat_nullspace(coeffs, include_distinct_index=True):
    """Dimension (and basis) of the space of symmetric operators satisfying
    the first Bianchi identity, the twelve Kaehler conditions for the given
    unit coefficient triple, Ricci flatness, and (optionally) the vanishing
    of the three distinct-index components.

    The computed dimension is 3 for every unit triple except the coordinate
    axes +-e_k, where it is 4: two coefficients vanish there, and the twelve
    displayed conditions are weaker than the operator conditions RJ = JR = R
    (one self-dual Weyl direction goes unseen).  A single vanishing
    coefficient, as in (3/5, 4/5, 0), still gives 3.  The surviving family is
    genuine, not numerical: a Ricci-flat Kaehler operator is a traceless
    symmetric form on the anti-self-dual subspace, the distinct-index
    constraints only kill its diagonal in the adapted basis, and a zero
    diagonal never forces a symmetric matrix to vanish.  Dropping the
    distinct-index family reopens the space further
    (``include_distinct_index=False`` is the control run).

    Only the twelve Kaehler conditions depend on the triple, and linearly:
    their rows are the triple times the rows of the three axis structures,
    read off ``kaehler_residuals``.  The rows that do not depend on it are
    solved once per process, so each call takes the rank of the twelve
    lines on their nullspace N, a 12 x n system: the dimension is n minus
    that rank.  ``constraint_count`` still counts every row imposed.
    """
    a12, a13, a14 = unit_triple(coeffs)
    fixed_count, basis, axis_lines = _fixed_nullspace(include_distinct_index)
    lines = a12 * axis_lines[0] + a13 * axis_lines[1] + a14 * axis_lines[2]
    _, sv, vt = np.linalg.svd(lines)
    rank = int(np.sum(sv > RANK_TOL * sv[0]))
    null_rows = vt[rank:] @ basis
    null_rows.flags.writeable = False
    return NullspaceCertificate(
        dimension=basis.shape[0] - rank,
        singular_values=sv,
        null_rows=null_rows,
        constraint_count=fixed_count + lines.shape[0],
        rank_tolerance=RANK_TOL,
    )


# ---------------------------------------------------------------------------
# End-to-end pipeline.


def run_obstruction_suite(r_op, structure=None, tolerance=DEFAULT_TOLERANCE):
    """closed-form frame -> Kaehler predicate -> scalar-sign relations -> the
    branch the operator belongs to (self-dual classification or Ricci-flat
    certificate), aggregated into one report.

    Verdicts: "flat" (zero operator), "conformally-flat-branch" or
    "special-frame-branch" (self-dual classification), "violation" (the
    self-dual classification contradicts the block form), "inconclusive"
    (no qualifying frame found, not Kaehler, or the covered theorems do not
    apply).  A Ricci-flat Kaehler operator that is not self-dual is always
    inconclusive: its constraint nullspace has dimension at least 3 at every
    unit triple (criterion 09), and the report carries that dimension.

    Every report but "flat" carries the Bianchi defect d.  The closed-form
    frame reaches sqrt(residual) = |d| / sqrt(3), so no frame qualifies
    exactly when |d| > sqrt(3) * tolerance * max(1, ||R||).
    """
    structure = structure if structure is not None else from_unitary_frame()
    norm = r_op.norm()
    scale = max(1.0, norm)
    residuals = {"operator_norm": norm}
    if norm <= tolerance:
        return ObstructionReport(
            verdict=VERDICT_FLAT, residuals=residuals, tolerance=tolerance
        )

    residuals["bianchi_defect"] = bianchi_defect(r_op)
    search = frame_search(r_op, tol=tolerance)
    residuals["distinct_index_residual"] = search.residual
    q = search.frame
    report = partial(
        ObstructionReport, residuals=residuals, tolerance=tolerance, frame=q.matrix
    )
    if not search.conclusive:
        # only an operator off the Bianchi identity misses: the floor is 3 beta^2
        return report(
            verdict=VERDICT_INCONCLUSIVE,
            notes=("no frame with vanishing distinct-index components was found",),
        )

    view = KahlerFrameView(r_op, structure, q, rotated=search.rotated)
    residuals["kaehler_identity_max"] = view.max_line
    residuals["kaehler_operator_defect"] = view.defect
    if not view.is_kaehler(tolerance):
        return report(
            verdict=VERDICT_INCONCLUSIVE,
            notes=("operator is not Kaehler for the supplied structure",),
        )

    dres = search.residual  # already cross-checked by frame_search
    residuals["scalar_relation_deviation"] = _sign_report(view, dres, tolerance).max_deviation

    dec = decompose(r_op)
    if dec.weyl_minus.norm() <= tolerance * scale:
        classified = _classify(view, dec, dres, tolerance)
        return replace(classified, residuals={**classified.residuals, **residuals})
    if float(np.linalg.norm(ricci(r_op))) <= tolerance * scale:
        cert = ricciflat_nullspace(view.coeffs)
        residuals["ricciflat_nullspace_dimension"] = cert.dimension
        return report(verdict=VERDICT_INCONCLUSIVE)
    return report(
        verdict=VERDICT_INCONCLUSIVE,
        coefficients=tuple(view.coeffs),
        notes=("operator is neither self-dual nor Ricci-flat; not covered",),
    )
