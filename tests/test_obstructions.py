import itertools
import json
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import curv4
from conftest import (
    KAEHLER_FAMILY_DIMENSIONS,
    SAMPLE_DIR,
    SYMMETRIC_BASIS,
    kaehler_family,
    kaehler_family_members,
    random_bianchi,
    random_rotation,
    random_symmetric6,
    star_perturbed_const_hol_sec,
)
from curv4 import (
    ADAPTED_IDENTITY,
    ComplexStructure,
    CurvatureOperator,
    HODGE_MATRIX,
    FrameRotation,
    NonKahlerError,
    bianchi_defect,
    build_const_hol_sec,
    build_surface_product,
    c_system_solve,
    coeffs_in_frame,
    conjugate,
    cp2_example_frame,
    distinct_index_residual,
    exact_determinant,
    exact_nullspace,
    extend_to_bivectors,
    frame_search,
    from_unitary_frame,
    kaehler_residuals,
    operator_from_dict,
    ricci,
    ricciflat_nullspace,
    run_obstruction_suite,
    scalar_curvature,
    scalar_sign_check,
    selfdual_classify,
    structure_from_coeffs,
    structure_from_dict,
)
from curv4.obstructions import (
    _GENERATORS,
    RELATION_ROWS,
    REDUCED_SKEW_ROWS,
    VERDICT_CONFORMALLY_FLAT,
    VERDICT_FLAT,
    VERDICT_INCONCLUSIVE,
    VERDICT_SPECIAL_FRAME,
    VERDICT_VIOLATION,
    _constraint_blocks,
    _fixed_nullspace,
    _iso_exp,
)

S3 = 1.0 / np.sqrt(3.0)


def taylor_expm(k, terms=60):
    out = np.eye(4)
    term = np.eye(4)
    for n in range(1, terms):
        term = term @ k / n
        out = out + term
    return out


# --- SO(4) parameterization -----------------------------------------------------

LEFT, RIGHT = _GENERATORS[:3], _GENERATORS[3:]


def test_so4_exp_matches_series(rng):
    # each isoclinic factor is the exponential of its generator combination,
    # and the two factors commute, so their product exponentiates the sum
    for _ in range(30):
        v, w = rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3)
        kl, kr = np.tensordot(v, LEFT, axes=1), np.tensordot(w, RIGHT, axes=1)
        np.testing.assert_allclose(kl, -kl.T, atol=0)
        np.testing.assert_allclose(kr, -kr.T, atol=0)
        left, right = _iso_exp(v, LEFT), _iso_exp(w, RIGHT)
        np.testing.assert_allclose(left, taylor_expm(kl), atol=1e-12)
        np.testing.assert_allclose(right, taylor_expm(kr), atol=1e-12)
        np.testing.assert_allclose(left @ right, taylor_expm(kl + kr), atol=1e-12)


def test_so4_exp_is_rotation(rng):
    for gens in (LEFT, RIGHT):
        assert np.array_equal(_iso_exp(np.zeros(3), gens), np.eye(4))
        for _ in range(20):
            q = _iso_exp(rng.uniform(-4, 4, 3), gens)
            np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-13)
            assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-12)


def test_skew_generators_span():
    np.testing.assert_array_equal(_GENERATORS, -_GENERATORS.transpose(0, 2, 1))
    assert np.linalg.matrix_rank(_GENERATORS.reshape(6, 16)) == 6


# --- distinct-index residual ------------------------------------------------------

def test_distinct_residual_zero_operator(rng):
    zero = CurvatureOperator(np.zeros((6, 6)))
    assert distinct_index_residual(zero, random_rotation(rng)) == 0.0


def test_distinct_residual_unitary_frame_value():
    # components c/2, c/4, -c/4 give (1/4 + 1/16 + 1/16) c^2 = 0.375 at c=1
    op = build_const_hol_sec(1.0)
    assert distinct_index_residual(op, FrameRotation.identity()) == pytest.approx(
        0.375, abs=1e-15
    )


def test_distinct_residual_cp2_frame():
    for c in (1.0, 2.0):
        op = build_const_hol_sec(c)
        assert distinct_index_residual(op, cp2_example_frame()) <= 1e-18


def test_first_bianchi_couples_components(rng):
    # with the Bianchi identity the three components are linearly dependent
    # in every frame
    for _ in range(10):
        op = random_bianchi(rng)
        q = random_rotation(rng)
        rc = conjugate(op, q)
        combo = (
            rc.component(1, 2, 3, 4)
            - rc.component(1, 3, 2, 4)
            + rc.component(1, 4, 2, 3)
        )
        assert abs(combo) <= 1e-10


def test_star_component_is_a_frame_invariant_floor(rng):
    # the star operator keeps residual 3 in every frame, so the search on it
    # must come back inconclusive instead of claiming success
    star = CurvatureOperator(HODGE_MATRIX)
    for _ in range(10):
        assert distinct_index_residual(star, random_rotation(rng)) == pytest.approx(
            3.0, abs=1e-12
        )
    result = frame_search(star, restarts=4, seed=0)
    assert not result.conclusive
    assert result.residual == pytest.approx(3.0, abs=1e-9)
    # the suite stops at the frame: the star operator is not a Bianchi
    # operator, so no Ricci-flat certificate is computed for it
    report = run_obstruction_suite(star)
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert report.notes == ("no frame with vanishing distinct-index components was found",)
    assert "ricciflat_nullspace_dimension" not in report.residuals


def test_generic_bianchi_operators_admit_distinct_free_frames():
    # both Weyl blocks rotate independently and can be given zero diagonal,
    # so the search succeeds on every operator satisfying the Bianchi
    # identity; the obstruction content lives in which frames qualify
    for k in range(5):
        op = random_bianchi(np.random.default_rng(100 + k))
        result = frame_search(op, restarts=32, seed=0)
        assert result.conclusive, f"sample {k} stuck at {result.residual:.3e}"


# --- the explicit example frame ---------------------------------------------------

def test_cp2_frame_is_exact():
    q = cp2_example_frame().matrix
    np.testing.assert_allclose(np.linalg.norm(q, axis=0), 1.0, atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-15)
    assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-15)
    coeffs = coeffs_in_frame(from_unitary_frame(), cp2_example_frame())
    np.testing.assert_allclose(coeffs, [S3, S3, S3], atol=1e-15)


# --- frame search -----------------------------------------------------------------

def test_frame_search_zero_operator():
    zero = CurvatureOperator(np.zeros((6, 6)))
    result = frame_search(zero, restarts=4, seed=1)
    assert result.residual == 0.0
    assert result.conclusive


def test_frame_search_recovers_special_frame():
    op = build_const_hol_sec(1.0)
    result = frame_search(op, restarts=32, seed=0)
    assert result.conclusive
    assert result.residual <= 1e-12
    coeffs = coeffs_in_frame(from_unitary_frame(), result.frame)
    squares = sorted(v * v for v in coeffs)
    np.testing.assert_allclose(squares, [1 / 3, 1 / 3, 1 / 3], atol=1e-6)


def test_frame_search_deterministic():
    op = build_const_hol_sec(1.0)
    r1 = frame_search(op, restarts=8, seed=3)
    r2 = frame_search(op, restarts=8, seed=3)
    assert np.array_equal(r1.frame.matrix, r2.frame.matrix)
    assert r1.residual == r2.residual


def test_frame_search_surface_product():
    op, _ = build_surface_product(1.0, -1.0)
    # the splitting frame itself carries no distinct-index components
    assert distinct_index_residual(op, FrameRotation.identity()) == 0.0
    result = frame_search(op, restarts=8, seed=0)
    assert result.conclusive
    assert result.residual <= 1e-12


def test_frame_search_rejects_bad_restarts():
    with pytest.raises(ValueError):
        frame_search(CurvatureOperator(np.eye(6)), restarts=0)


def _components_in_frame(op, q):
    rc = conjugate(op, q)
    return np.array(
        [rc.component(1, 2, 3, 4), rc.component(1, 3, 2, 4), rc.component(1, 4, 2, 3)]
    )


def test_closed_form_frame_zeroes_bianchi_operators_at_every_scale():
    rng = np.random.default_rng(77)
    for _ in range(200):
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        op = random_bianchi(rng, scale)
        result = frame_search(op)
        assert result.conclusive
        assert result.residual <= 1e-28 * scale**2
        assert np.sum(_components_in_frame(op, result.frame) ** 2) <= 1e-28 * scale**2


def test_closed_form_frame_attains_the_star_floor():
    # tr A - tr C = 6 beta in the adapted basis of every frame, so no frame
    # gets below 3 beta^2, and the closed form reaches exactly that
    rng = np.random.default_rng(78)
    tol = 1e-10
    inconclusive = 0
    for _ in range(200):
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        op = random_symmetric6(rng, scale)
        beta = float(np.sum(op.matrix * HODGE_MATRIX)) / 6.0
        result = frame_search(op, tol=tol)
        assert abs(result.residual - 3.0 * beta**2) <= 1e-12 * scale**2
        if 3.0 * beta**2 > tol * max(1.0, op.norm()) ** 2:
            assert not result.conclusive
            inconclusive += 1
    assert inconclusive >= 150


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_frame_search_returns_the_cp2_frame(c):
    result = frame_search(build_const_hol_sec(c))
    np.testing.assert_allclose(result.frame.matrix, cp2_example_frame().matrix, atol=1e-12)
    assert result.residual <= 1e-30


def test_frame_search_ignores_restarts_and_seed(rng):
    op = random_bianchi(rng)
    base = frame_search(op)
    for restarts, seed in ((1, 0), (8, 3), (32, 12345)):
        other = frame_search(op, restarts=restarts, seed=seed)
        assert np.array_equal(other.frame.matrix, base.frame.matrix)
        assert other.residual == base.residual
    with pytest.raises(ValueError):
        frame_search(op, seed=-1)


def test_frame_search_cross_checks_the_residual(monkeypatch):
    original = curv4.obstructions.distinct_index_residual
    monkeypatch.setattr(
        curv4.obstructions, "distinct_index_residual", lambda op, q: original(op, q) + 1e-6
    )
    with pytest.raises(AssertionError, match="wedge"):
        frame_search(build_const_hol_sec(1.0))


# --- scalar sign relations ---------------------------------------------------------

def test_scalar_sign_cp2():
    op = build_const_hol_sec(1.0)
    report = scalar_sign_check(op, from_unitary_frame(), cp2_example_frame())
    np.testing.assert_allclose(report.pair_sums, [1.0, 1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(report.predicted, [1.0, 1.0, 1.0], atol=1e-12)
    assert report.scalar == pytest.approx(6.0)
    assert report.common_sign == 1
    assert report.ok


def test_scalar_sign_surface_product():
    op, j = build_surface_product(1.0, -1.0)
    report = scalar_sign_check(op, j, FrameRotation.identity())
    np.testing.assert_allclose(report.pair_sums, 0.0, atol=1e-14)
    assert report.common_sign == 0
    assert report.ok


def test_scalar_sign_zero_operator():
    zero = CurvatureOperator(np.zeros((6, 6)))
    report = scalar_sign_check(zero, from_unitary_frame(), FrameRotation.identity())
    assert report.common_sign == 0
    assert report.ok


def test_scalar_sign_rejects_bad_frame():
    op = build_const_hol_sec(1.0)
    with pytest.raises(ValueError, match="distinct-index"):
        scalar_sign_check(op, from_unitary_frame(), FrameRotation.identity())


# --- self-dual classification -------------------------------------------------------

def test_selfdual_classify_special_frame():
    op = build_const_hol_sec(1.0)
    report = selfdual_classify(op, from_unitary_frame(), cp2_example_frame())
    assert report.verdict == VERDICT_SPECIAL_FRAME
    np.testing.assert_allclose(np.abs(report.coefficients), S3, atol=1e-12)
    assert report.cases is not None and len(report.cases) == 16


def test_selfdual_classify_conformally_flat():
    op, j = build_surface_product(1.0, -1.0)
    report = selfdual_classify(op, j, FrameRotation.identity())
    assert report.verdict == VERDICT_CONFORMALLY_FLAT


def test_selfdual_classify_preconditions():
    op = build_const_hol_sec(1.0)
    with pytest.raises(ValueError, match="distinct-index"):
        selfdual_classify(op, from_unitary_frame(), FrameRotation.identity())
    not_selfdual, j = build_surface_product(1.0, 1.0)
    with pytest.raises(ValueError, match="self-dual"):
        selfdual_classify(not_selfdual, j, FrameRotation.identity())


def test_selfdual_classify_violation_branch():
    # a deliberately loose tolerance lets a slightly wrong frame through the
    # preconditions (the root of its distinct-index residual, 0.132, is below
    # tol * ||R|| = 0.173); its coefficient defect, 0.135, exceeds the cut
    # max(tol, 1e-6), so the coefficient test must then flag the contradiction
    op = build_const_hol_sec(1.0)
    wiggle = _iso_exp(np.array([0.08, -0.03, 0.05]), LEFT) @ _iso_exp(
        np.array([0.02, -0.06, 0.04]), RIGHT
    )
    q = FrameRotation(cp2_example_frame().matrix @ wiggle)
    report = selfdual_classify(op, from_unitary_frame(), q, tol=0.1)
    assert report.verdict == VERDICT_VIOLATION


# --- exact c-system ------------------------------------------------------------------

def test_relation_matrix_determinant():
    assert exact_determinant(RELATION_ROWS) == Fraction(-9)


def test_reduced_skew_kernel():
    basis = exact_nullspace(REDUCED_SKEW_ROWS, 3)
    assert basis == [(Fraction(1), Fraction(1), Fraction(1))]


def test_c_system_all_cases():
    cases = c_system_solve()
    assert len(cases) == 16
    by_flags = {case.relation_active: case for case in cases}
    assert by_flags[(True, True, True, True)].nullspace == ()
    assert by_flags[(False, False, False, False)].nullspace == ()
    line = by_flags[(False, True, True, True)].nullspace
    assert line == ((Fraction(0), Fraction(1), Fraction(1), Fraction(1)),)
    for case in cases:
        for vec in case.nullspace:
            assert all(isinstance(x, Fraction) for x in vec)
            for row in case.rows:
                assert sum(r * v for r, v in zip(row, vec)) == 0


# --- Ricci-flat constraint nullspace --------------------------------------------------

def offdiagonal_asd_operator(w12, w13, w23):
    w = np.zeros((6, 6))
    w[3, 4] = w[4, 3] = w12
    w[3, 5] = w[5, 3] = w13
    w[4, 5] = w[5, 4] = w23
    return CurvatureOperator(ADAPTED_IDENTITY @ w @ ADAPTED_IDENTITY.T)


def test_offdiagonal_family_satisfies_all_constraints():
    # the reason the constraint nullspace is not zero: operators supported
    # on the anti-self-dual block with zero diagonal there pass every
    # constraint family exactly
    op = offdiagonal_asd_operator(1.0, 0.7, -0.3)
    assert op.norm() > 1.0
    np.testing.assert_array_equal(ricci(op), np.zeros((4, 4)))
    assert bianchi_defect(op) == 0.0
    lines = kaehler_residuals(op, from_unitary_frame(), FrameRotation.identity())
    np.testing.assert_array_equal(lines, np.zeros(12))
    jext = extend_to_bivectors(from_unitary_frame())
    np.testing.assert_array_equal(op.matrix @ jext, op.matrix)
    np.testing.assert_array_equal(jext @ op.matrix, op.matrix)
    assert op.component(1, 2, 3, 4) == 0.0
    assert op.component(1, 3, 2, 4) == 0.0
    assert op.component(1, 4, 2, 3) == 0.0


def test_ricciflat_nullspace_dimensions(rng):
    # triples off the coordinate axes leave exactly the 3-parameter
    # off-diagonal family; the axes +-e_k, where two coefficients vanish,
    # gain one more dimension because the twelve displayed conditions
    # degenerate there
    assert ricciflat_nullspace((S3, S3, S3)).dimension == 3
    assert ricciflat_nullspace((1.0, 0.0, 0.0)).dimension == 4
    for _ in range(20):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        assert ricciflat_nullspace(tuple(v)).dimension == 3


def test_ricciflat_nullspace_basis_members_satisfy_constraints():
    cert = ricciflat_nullspace((S3, S3, S3))
    assert len(cert.basis) == cert.dimension
    for op in cert.basis:
        assert op.norm() > 0.5
        assert np.max(np.abs(ricci(op))) <= 1e-12
        assert abs(bianchi_defect(op)) <= 1e-12
        assert abs(op.component(1, 2, 3, 4)) <= 1e-12
        assert abs(op.component(1, 3, 2, 4)) <= 1e-12
        assert abs(op.component(1, 4, 2, 3)) <= 1e-12


def test_ricciflat_control_reopens_space():
    full = ricciflat_nullspace((1.0, 0.0, 0.0))
    control = ricciflat_nullspace((1.0, 0.0, 0.0), include_distinct_index=False)
    assert control.dimension > full.dimension
    assert control.dimension > 0


def test_ricciflat_dimension_stable_under_rank_tolerance(rng):
    # any rank cut from 1e-12 to 1e-8 would give the same dimension: no
    # singular value of the twelve lines lies in between
    for _ in range(20):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        cert = ricciflat_nullspace(tuple(v))
        ratios = cert.singular_values / cert.singular_values[0]
        assert cert.rank_tolerance == 1e-10
        assert not np.any((ratios > 1e-12) & (ratios <= 1e-8))


def test_kaehler_lines_are_linear_in_the_coefficients(rng):
    # ricciflat_nullspace builds its twelve Kaehler rows once, as the triple
    # times the lines of the three axis structures; this is the linearity
    # that rests on, and a guard that the shared rows are not mutated
    identity = FrameRotation.identity()
    axes = [ComplexStructure(structure_from_coeffs(e)) for e in np.eye(3)]
    # the shared rows, read off the components, are the lines of the axis
    # structures on each basis operator
    through_structures = [
        [kaehler_residuals(CurvatureOperator(e), axis, identity) for e in SYMMETRIC_BASIS]
        for axis in axes
    ]
    assert np.array_equal(
        _constraint_blocks()[1], np.transpose(through_structures, (0, 2, 1))
    )
    for _ in range(10):
        op = random_bianchi(rng)
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        structure = ComplexStructure(structure_from_coeffs(a))
        expected = sum(
            ak * kaehler_residuals(op, axis, identity) for ak, axis in zip(a, axes)
        )
        np.testing.assert_allclose(
            kaehler_residuals(op, structure, identity),
            expected,
            rtol=0.0,
            atol=1e-12 * max(1.0, op.norm()),
        )
        before = ricciflat_nullspace(tuple(a))
        ricciflat_nullspace(tuple(a), include_distinct_index=False)
        after = ricciflat_nullspace(tuple(a))
        assert after.dimension == before.dimension == 3
        np.testing.assert_array_equal(after.singular_values, before.singular_values)


def test_ricciflat_constraints_are_built_once(monkeypatch):
    ricciflat_nullspace((0.6, 0.8, 0.0))
    built = Counter()
    original = CurvatureOperator.__init__

    def counting_init(self, matrix):
        built["operators"] += 1
        original(self, matrix)

    monkeypatch.setattr(CurvatureOperator, "__init__", counting_init)
    cert = ricciflat_nullspace((2 / 7, 3 / 7, 6 / 7))
    # no constraint row is rebuilt from operators after the first call, and
    # the basis members become operators only when they are read
    assert built["operators"] == 0
    assert len(cert.basis) == built["operators"] == cert.dimension == 3


_UPPER = np.triu_indices(6)
# the rational unit triples of criterion 09
_RATIONAL_TRIPLES = (
    (1.0, 0.0, 0.0), (3 / 5, 4 / 5, 0.0), (2 / 3, 2 / 3, 1 / 3), (2 / 7, 3 / 7, 6 / 7)
)


@pytest.mark.parametrize("include_distinct_index", [True, False])
def test_reduced_certificate_matches_the_full_stacked_system(include_distinct_index, rng):
    # ricciflat_nullspace solves only the twelve lines on the nullspace of
    # the fixed rows; the full stacked system must give the same dimension,
    # and every basis member must satisfy all of its rows
    bianchi, axis_lines, ricci_rows, distinct = _constraint_blocks()
    fixed = [bianchi, ricci_rows] + ([distinct] if include_distinct_index else [])
    ints = np.rint(np.vstack(fixed))
    assert np.array_equal(ints, np.vstack(fixed))
    exact_rank = 21 - len(exact_nullspace([[Fraction(int(x)) for x in row] for row in ints], 21))
    fixed_count, basis, _ = _fixed_nullspace(include_distinct_index)
    assert fixed_count == len(ints)
    assert 21 - len(basis) == exact_rank == (13 if include_distinct_index else 11)

    triples = [tuple(v / np.linalg.norm(v)) for v in rng.standard_normal((50, 3))]
    triples += [tuple(sign * e) for e in np.eye(3) for sign in (1.0, -1.0)]
    triples += list(_RATIONAL_TRIPLES)
    for a in triples:
        rows = np.vstack([fixed[0], np.tensordot(a, axis_lines, axes=1), *fixed[1:]])
        sv = np.linalg.svd(rows, compute_uv=False)
        cert = ricciflat_nullspace(a, include_distinct_index=include_distinct_index)
        assert cert.dimension == 21 - int(np.sum(sv > 1e-10 * sv[0])), a
        assert cert.constraint_count == len(rows) == (26 if include_distinct_index else 23)
        weights = np.array([op.matrix[_UPPER] for op in cert.basis])
        assert len(weights) == cert.dimension
        np.testing.assert_allclose(weights @ weights.T, np.eye(cert.dimension), atol=1e-12)
        assert np.max(np.abs(rows @ weights.T)) <= 1e-12, a


def test_c_system_solved_once():
    assert c_system_solve() is c_system_solve()


def test_ricciflat_rejects_non_unit_triple():
    with pytest.raises(ValueError):
        ricciflat_nullspace((1.0, 1.0, 0.0))


# --- end-to-end suite -----------------------------------------------------------------

def test_suite_const_hol_sec():
    report = run_obstruction_suite(build_const_hol_sec(1.0))
    assert report.verdict == VERDICT_SPECIAL_FRAME
    squares = sorted(v * v for v in report.coefficients)
    np.testing.assert_allclose(squares, [1 / 3, 1 / 3, 1 / 3], atol=1e-6)
    assert report.residuals["distinct_index_residual"] <= 1e-12


def test_suite_zero_operator():
    report = run_obstruction_suite(CurvatureOperator(np.zeros((6, 6))))
    assert report.verdict == VERDICT_FLAT


def test_suite_surface_product():
    op, j = build_surface_product(1.0, -1.0)
    report = run_obstruction_suite(op, j)
    assert report.verdict == VERDICT_CONFORMALLY_FLAT


def test_suite_non_kahler_input_is_inconclusive():
    report = run_obstruction_suite(CurvatureOperator(np.eye(6)))
    assert report.verdict == VERDICT_INCONCLUSIVE


def test_suite_uncovered_kahler_operator_is_inconclusive():
    # Kaehler but neither self-dual nor Ricci-flat: outside the covered cases
    op, j = build_surface_product(1.0, -2.0)
    report = run_obstruction_suite(op, j)
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert any("neither self-dual nor Ricci-flat" in note for note in report.notes)


def test_suite_ricci_flat_family_reports_dimension():
    # a Ricci-flat Kaehler operator always admits a distinct-index-free
    # frame (rotate the anti-self-dual block to zero diagonal), so the suite
    # finds one and attaches the constraint-nullspace dimension instead of
    # claiming an obstruction
    op = offdiagonal_asd_operator(1.0, 0.4, 0.0)
    report = run_obstruction_suite(op)
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert report.residuals["distinct_index_residual"] <= 1e-10
    assert report.residuals["ricciflat_nullspace_dimension"] == 3


def test_suite_runs_near_the_norm_overflow_without_warnings():
    # the shape of the operator the constructor rejects for an overflowing
    # norm, at 1e153: its squared norm still fits, the suite raises no numpy
    # warning, and the operator is not Kaehler (R_1313 != R_2424)
    m = np.zeros((6, 6))
    m[0, 0], m[1, 1] = 1e153, -3e152
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_obstruction_suite(CurvatureOperator(m))
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert report.notes == ("operator is not Kaehler for the supplied structure",)


@pytest.mark.parametrize("sample", ["const_hol_sec.json", "surface_product.json"])
def test_suite_builds_each_kaehler_quantity_once(sample, monkeypatch):
    with open(SAMPLE_DIR / sample, encoding="utf-8") as handle:
        doc = json.load(handle)
    op, structure = operator_from_dict(doc), structure_from_dict(doc)
    counts = Counter()
    targets = {
        "conjugate": curv4.operators.conjugate,
        "coeffs_in_frame": curv4.kahler.coeffs_in_frame,
        "_identity_lines": curv4.kahler._identity_lines,
        "decompose": curv4.operators.decompose,
    }
    for name, fn in targets.items():
        def counted(*args, _name=name, _fn=fn, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in (curv4, curv4.operators, curv4.kahler, curv4.obstructions):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
    report = run_obstruction_suite(op, structure)
    assert report.verdict in (VERDICT_SPECIAL_FRAME, VERDICT_CONFORMALLY_FLAT)
    # one conjugation into the frame that frame_search returns: its residual
    # cross-check and the Kaehler view share the rotated operator
    assert counts == {name: 1 for name in targets}


@pytest.mark.parametrize("sample", ["const_hol_sec.json", "surface_product.json"])
def test_suite_evaluates_distinct_index_residual_once(sample, monkeypatch):
    # the sign check and the self-dual classification share one evaluation
    with open(SAMPLE_DIR / sample, encoding="utf-8") as handle:
        doc = json.load(handle)
    op, structure = operator_from_dict(doc), structure_from_dict(doc)
    calls = Counter()
    original = curv4.obstructions.distinct_index_residual

    def counted(*args):
        calls["distinct_index_residual"] += 1
        return original(*args)

    monkeypatch.setattr(curv4.obstructions, "distinct_index_residual", counted)
    report = run_obstruction_suite(op, structure)
    assert report.verdict in (VERDICT_SPECIAL_FRAME, VERDICT_CONFORMALLY_FLAT)
    assert calls["distinct_index_residual"] == 1


def test_suite_report_serializes():
    report = run_obstruction_suite(build_const_hol_sec(1.0))
    doc = report.to_dict()
    assert doc["verdict"] == VERDICT_SPECIAL_FRAME
    assert len(doc["cases"]) == 16
    assert len(doc["frame"]) == 4
    assert set(doc["residuals"]) >= {
        "distinct_index_residual", "kaehler_identity_max", "kaehler_operator_defect"
    }


_FAMILY_VERDICTS = {
    "kaehler": (
        VERDICT_INCONCLUSIVE, None, ("operator is neither self-dual nor Ricci-flat; not covered",)
    ),
    "self-dual": (VERDICT_SPECIAL_FRAME, None, ()),
    "ricci-flat": (VERDICT_INCONCLUSIVE, 3, ()),
}


@pytest.mark.parametrize("kind", sorted(KAEHLER_FAMILY_DIMENSIONS))
def test_suite_verdict_on_each_exact_kaehler_family(kind, rng):
    # random members of the exact nullspaces, as given and carried with their
    # structure into random frames.  No self-dual member may give a violation
    # (the paper's first theorem), and every Ricci-flat member stops at
    # dimension 3, so the Ricci-flat branch has no violation to report
    assert len(kaehler_family(kind)) == KAEHLER_FAMILY_DIMENSIONS[kind]
    for m, j in kaehler_family_members(kind, rng, 40):
        op, structure = CurvatureOperator(m), ComplexStructure(j)
        report = run_obstruction_suite(op, structure)
        dimension = report.residuals.get("ricciflat_nullspace_dimension")
        assert (report.verdict, dimension, report.notes) == _FAMILY_VERDICTS[kind]
        assert report.residuals["kaehler_operator_defect"] <= 1e-12
        if abs(scalar_curvature(op)) > 1e-9:
            # the closed-form frame turns the self-dual block (r/4) a a^T to a
            # constant diagonal, so every Kaehler member with r != 0, self-dual
            # or not, carries a^2 = 1/3 there: the suite's special-frame-branch
            # holds by construction of its frame
            a = coeffs_in_frame(structure, frame_search(op).frame)
            np.testing.assert_allclose(a**2, 1.0 / 3.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("kind", sorted(KAEHLER_FAMILY_DIMENSIONS))
def test_suite_on_kaehler_members_with_a_small_star_part(kind, rng):
    # with w the unit dual bivector of J, eps w w^T is Kaehler for J and
    # self-dual, but has star component eps / 6, so no frame gets below the
    # floor eps^2 / 12.  The suite and the checks it chains judge the frame
    # by one rule: a frame the suite accepts is never rejected by the sign
    # check or the classification
    for m, j in kaehler_family_members(kind, rng, 10):
        structure = ComplexStructure(j)
        w = structure.dual_bivector() / np.sqrt(2.0)
        for eps, tol in itertools.product((1e-9, 1e-7, 1e-5), (1e-12, 1e-9, 1e-6)):
            op = CurvatureOperator(m + eps * np.outer(w, w))
            report = run_obstruction_suite(op, structure, tolerance=tol)
            # the report names the Bianchi defect, which sets the frame's floor
            defect = report.residuals["bianchi_defect"]
            assert defect == bianchi_defect(op)
            assert np.sqrt(report.residuals["distinct_index_residual"]) == pytest.approx(
                abs(defect) / np.sqrt(3.0), rel=1e-6
            )
            if report.notes == ("no frame with vanishing distinct-index components was found",):
                assert report.verdict == VERDICT_INCONCLUSIVE
                continue
            q = FrameRotation(report.frame)
            sign = scalar_sign_check(op, structure, q, tol)
            assert sign.max_deviation == report.residuals["scalar_relation_deviation"]
            if kind == "self-dual":
                assert selfdual_classify(op, structure, q, tol).verdict == report.verdict


def test_frame_search_and_suite_agree_at_the_default_tolerance():
    # sqrt(residual) = 5.8e-10 lies between 1e-10 and 1e-9 times ||R|| = 1.73
    op = CurvatureOperator(star_perturbed_const_hol_sec(2e-9))
    assert frame_search(op).conclusive
    report = run_obstruction_suite(op)
    assert report.verdict == VERDICT_SPECIAL_FRAME
    assert report.residuals["bianchi_defect"] == pytest.approx(1e-9, rel=1e-6)


def test_suite_reports_the_bianchi_defect_it_passes():
    # at a loose tolerance the frame's floor |d| / sqrt(3) passes an operator
    # off the Bianchi identity; the verdict stands, and the report shows d
    op = CurvatureOperator(star_perturbed_const_hol_sec(1e-3))
    report = run_obstruction_suite(op, tolerance=1e-3)
    assert report.verdict == VERDICT_SPECIAL_FRAME
    assert report.residuals["bianchi_defect"] == pytest.approx(5e-4, rel=1e-9)


def test_non_kahler_residual_exceeds_tolerance_reported():
    with pytest.raises(NonKahlerError):
        scalar_sign_check(
            CurvatureOperator(np.eye(6)), from_unitary_frame(), FrameRotation.identity()
        )
