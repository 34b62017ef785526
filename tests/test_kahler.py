import itertools

import numpy as np
import pytest

from conftest import random_kahler_pair, random_rotation
from curv4 import (
    STANDARD_J,
    ComplexStructure,
    CurvatureOperator,
    FrameRotation,
    NonKahlerError,
    build_const_hol_sec,
    build_surface_product,
    coeffs_in_frame,
    conjugate,
    decompose,
    extend_to_bivectors,
    from_unitary_frame,
    induced_rotation,
    kaehler_block_form,
    kaehler_residuals,
    ricci,
    scalar_curvature,
    scalar_from_kaehler,
    structure_from_coeffs,
)
from curv4.bivectors import _skew_to_form
from curv4.kahler import _identity_lines, unit_triple
from curv4.obstructions import cp2_example_frame
from curv4.operators import distinct_index_components

E = np.eye(4)


def test_standard_structure_basics():
    j = from_unitary_frame()
    np.testing.assert_array_equal(j.matrix @ E[0], E[1])
    np.testing.assert_array_equal(j.matrix @ E[2], E[3])
    np.testing.assert_allclose(j.matrix @ j.matrix, -np.eye(4), atol=0)
    coeffs = coeffs_in_frame(j, FrameRotation.identity())
    assert coeffs.tolist() == [1.0, 0.0, 0.0]
    assert coeffs.dtype == float and not coeffs.flags.writeable


def test_structure_validation():
    with pytest.raises(ValueError, match="orthogonal"):
        ComplexStructure(STANDARD_J * 2.0)
    # orientation-incompatible: dual bivector anti-self-dual
    j_bad = np.array(
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float
    )
    with pytest.raises(ValueError, match="self-dual"):
        ComplexStructure(j_bad)


def test_kahler_coeffs_unit_validation():
    with pytest.raises(ValueError, match="unit"):
        unit_triple((1.0, 1.0, 0.0))


def test_structure_rejects_non_finite_entries():
    bad = np.array(STANDARD_J)
    bad[0, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        ComplexStructure(bad)
    # numpy would read each as the entry 1.0 of STANDARD_J
    for value in (True, "1", 1 + 0j):
        rows = STANDARD_J.tolist()
        rows[1][0] = value
        for bad in (rows, np.array(rows, dtype=type(value))):
            with pytest.raises(ValueError, match="finite"):
                ComplexStructure(bad)


def test_kahler_coeffs_reject_nan():
    with pytest.raises(ValueError, match="finite"):
        unit_triple((float("nan"), 0.0, 0.0))


def test_coeffs_in_cp2_frame():
    coeffs = coeffs_in_frame(from_unitary_frame(), cp2_example_frame())
    s3 = 1.0 / np.sqrt(3.0)
    np.testing.assert_allclose(coeffs, [s3, s3, s3], atol=1e-15)


def test_coeffs_random_frames_unit_and_reconstruct(rng):
    j = from_unitary_frame()
    for _ in range(25):
        q = random_rotation(rng)
        coeffs = coeffs_in_frame(j, q)
        assert coeffs @ coeffs == pytest.approx(1.0, abs=1e-12)
        rebuilt = structure_from_coeffs(coeffs)
        np.testing.assert_allclose(
            rebuilt, q.matrix.T @ j.matrix @ q.matrix, atol=1e-10
        )


def test_extension_on_antiselfdual_is_identity():
    jext = extend_to_bivectors(from_unitary_frame())
    minus = np.array([1, 0, 0, 0, 0, -1.0])  # e1^e2 - e3^e4
    np.testing.assert_allclose(jext @ minus, minus, atol=0)
    anti = np.array([0, 1, 0, 0, -1, 0.0])  # e1^e3 - e2^e4, J-antiinvariant
    np.testing.assert_allclose(jext @ anti, -anti, atol=0)


def test_extension_spectrum_and_algebra(rng):
    j = from_unitary_frame()
    jext = extend_to_bivectors(j)
    np.testing.assert_allclose(jext, jext.T, atol=0)
    np.testing.assert_allclose(jext @ jext, np.eye(6), atol=1e-15)
    np.testing.assert_allclose(np.linalg.eigvalsh(jext), [-1, -1, 1, 1, 1, 1], atol=1e-12)
    dual = _skew_to_form(j.matrix)
    np.testing.assert_allclose(jext @ dual, dual, atol=1e-14)


def test_extension_equivariance(rng):
    j = from_unitary_frame()
    for _ in range(10):
        q = random_rotation(rng)
        rotated = ComplexStructure(q.matrix.T @ j.matrix @ q.matrix)
        l = induced_rotation(q)
        np.testing.assert_allclose(
            extend_to_bivectors(rotated),
            l.T @ extend_to_bivectors(j) @ l,
            atol=1e-10,
        )


def test_builders_satisfy_identities_in_random_frames(rng):
    j = from_unitary_frame()
    chs = build_const_hol_sec(1.3)
    prod, _ = build_surface_product(0.8, -1.1)
    for _ in range(25):
        q = random_rotation(rng)
        for op in (chs, prod):
            lines = kaehler_residuals(op, j, q)
            assert np.max(np.abs(lines)) <= 1e-10


def test_identity_operator_is_not_kahler():
    lines = kaehler_residuals(
        CurvatureOperator(np.eye(6)), from_unitary_frame(), FrameRotation.identity()
    )
    assert np.max(np.abs(lines)) > 1.0


def test_zero_operator_residuals_vanish():
    zero = CurvatureOperator(np.zeros((6, 6)))
    lines = kaehler_residuals(zero, from_unitary_frame(), FrameRotation.identity())
    np.testing.assert_array_equal(lines, np.zeros(12))


def test_operator_form_of_identities(rng):
    # residuals vanish exactly when R commutes with and fixes the extension
    j = from_unitary_frame()
    jext = extend_to_bivectors(j)
    for _ in range(10):
        op, structure = random_kahler_pair(rng)
        jx = extend_to_bivectors(structure)
        scale = max(1.0, op.norm())
        assert np.linalg.norm(op.matrix @ jx - op.matrix) <= 1e-9 * scale
        assert np.linalg.norm(op.matrix @ jx - jx @ op.matrix) <= 1e-9 * scale
    del jext


def test_scalar_from_kaehler_unitary_frame():
    op = build_const_hol_sec(1.0)
    values = scalar_from_kaehler(op, from_unitary_frame(), FrameRotation.identity())
    assert values == [pytest.approx(6.0, abs=1e-12)]


def test_scalar_from_kaehler_cp2_frame():
    op = build_const_hol_sec(1.0)
    values = scalar_from_kaehler(op, from_unitary_frame(), cp2_example_frame())
    assert len(values) == 3
    for v in values:
        assert v == pytest.approx(scalar_curvature(op), abs=1e-8)


def test_scalar_from_kaehler_zero_operator():
    zero = CurvatureOperator(np.zeros((6, 6)))
    values = scalar_from_kaehler(zero, from_unitary_frame(), FrameRotation.identity())
    assert all(v == 0.0 for v in values)


def test_scalar_from_kaehler_rejects_non_kahler():
    with pytest.raises(NonKahlerError):
        scalar_from_kaehler(
            CurvatureOperator(np.eye(6)), from_unitary_frame(), FrameRotation.identity()
        )


def test_block_form_const_hol_sec_random_frames(rng):
    op = build_const_hol_sec(1.0)
    j = from_unitary_frame()
    for _ in range(10):
        q = random_rotation(rng)
        form = kaehler_block_form(op, j, q)
        a = form.coeffs
        expected_wplus = (form.r / 4.0) * (np.outer(a, a) - np.eye(3) / 3.0)
        np.testing.assert_allclose(
            form.plus_block - (form.r / 12.0) * np.eye(3), expected_wplus, atol=1e-9
        )
        assert form.plus_singular_values[1] <= 1e-8 * form.plus_singular_values[0]
        assert form.cross_singular_values[1] <= max(
            1e-8 * form.cross_singular_values[0], 1e-10
        )
        assert form.wminus_formula_defect <= 1e-9


def test_block_form_cross_factorization(rng):
    # the traceless-Ricci block factors as (1/2) a v^T with
    # v_j = (R_1j1j - R_klkl) / a_1j, entry by entry
    op = build_const_hol_sec(1.0)
    j = from_unitary_frame()
    checked = 0
    for _ in range(10):
        q = random_rotation(rng)
        form = kaehler_block_form(op, j, q)
        a = form.coeffs
        if np.min(np.abs(a)) < 1e-3:
            continue
        rc = conjugate(op, q)
        c = rc.component
        v = np.array(
            [
                (c(1, 2, 1, 2) - c(3, 4, 3, 4)) / a[0],
                (c(1, 3, 1, 3) - c(2, 4, 2, 4)) / a[1],
                (c(1, 4, 1, 4) - c(2, 3, 2, 3)) / a[2],
            ]
        )
        np.testing.assert_allclose(form.cross_block, 0.5 * np.outer(a, v), atol=1e-9)
        checked += 1
    assert checked >= 5


def test_block_form_correction_diagonal_vanishes_in_distinct_free_frame():
    op = build_const_hol_sec(1.0)
    form = kaehler_block_form(op, from_unitary_frame(), cp2_example_frame())
    np.testing.assert_allclose(np.diag(form.wminus_correction), 0.0, atol=1e-15)


def test_block_form_scalar_flat_product():
    op, j = build_surface_product(1.0, -1.0)
    form = kaehler_block_form(op, j, FrameRotation.identity())
    assert form.r == pytest.approx(0.0, abs=1e-14)
    # r = 0 collapses the self-dual Weyl formula to zero
    np.testing.assert_allclose(form.plus_block, 0.0, atol=1e-12)
    np.testing.assert_allclose(form.wminus_correction, 0.0, atol=1e-12)


def test_block_form_zero_operator():
    zero = CurvatureOperator(np.zeros((6, 6)))
    form = kaehler_block_form(zero, from_unitary_frame(), FrameRotation.identity())
    np.testing.assert_allclose(form.plus_block, 0.0, atol=0)
    np.testing.assert_allclose(form.cross_block, 0.0, atol=0)
    np.testing.assert_allclose(form.minus_block, 0.0, atol=0)


def test_block_form_rejects_non_kahler():
    with pytest.raises(NonKahlerError):
        kaehler_block_form(
            CurvatureOperator(np.eye(6)), from_unitary_frame(), FrameRotation.identity()
        )


def test_build_const_hol_sec_properties():
    assert build_const_hol_sec(0.0).norm() == 0.0
    op = build_const_hol_sec(1.0)
    dec = decompose(op)
    assert dec.weyl_minus.norm() <= 1e-10
    assert dec.r == pytest.approx(6.0)
    np.testing.assert_allclose(ricci(op), (dec.r / 4.0) * np.eye(4), atol=1e-12)
    # sectional curvatures: c on holomorphic planes, c/4 on totally real ones
    assert op.component(1, 2, 1, 2) == pytest.approx(1.0)
    assert op.component(1, 3, 1, 3) == pytest.approx(0.25)


def test_build_const_hol_sec_matches_complex_space_form(rng):
    # R_ijkl = (c/4)(d_ik d_jl - d_il d_jk + w_ik w_jl - w_il w_jk + 2 w_ij w_kl)
    # with w_ab = <J e_a, e_b>, entry by entry through component()
    w = STANDARD_J.T
    for c in [1.0, -1.0, *rng.uniform(-3.0, 3.0, 5)]:
        op = build_const_hol_sec(c)
        for i, j, k, l in itertools.product(range(4), repeat=4):
            expected = (c / 4.0) * (
                E[i, k] * E[j, l] - E[i, l] * E[j, k]
                + w[i, k] * w[j, l] - w[i, l] * w[j, k]
                + 2.0 * w[i, j] * w[k, l]
            )
            assert op.component(i + 1, j + 1, k + 1, l + 1) == expected


def test_build_surface_product_cases():
    op, j = build_surface_product(1.0, 1.0)
    dec = decompose(op)
    assert dec.r == pytest.approx(4.0)
    assert dec.weyl_plus.norm() > 0.1
    assert dec.weyl_minus.norm() > 0.1
    zero_op, _ = build_surface_product(0.0, 0.0)
    assert zero_op.norm() == 0.0
    assert np.max(np.abs(j.matrix - STANDARD_J)) == 0.0


@pytest.mark.parametrize(
    "build, args",
    [
        (build_const_hol_sec, ("1",)),
        (build_const_hol_sec, (True,)),
        (build_surface_product, (1.0, "1")),
        (build_surface_product, (True, 1.0)),
    ],
    ids=["const-hol-sec-string", "const-hol-sec-boolean",
         "surface-product-string", "surface-product-boolean"],
)
def test_builders_read_params_by_the_number_rule(build, args):
    # float() reads each as 1.0
    with pytest.raises(ValueError, match="expected finite real numbers"):
        build(*args)


def test_scalar_flat_selfdual_forces_scalar_zero(rng):
    # vanishing self-dual Weyl part forces vanishing scalar curvature over
    # the random Kaehler family (and the implication is not vacuous)
    hits = 0
    for k in range(60):
        if k % 3 == 0:
            kk = rng.uniform(0.3, 1.5)
            base, _ = build_surface_product(kk, -kk)
            q = random_rotation(rng)
            op = conjugate(base, q)
        else:
            op, _ = random_kahler_pair(rng)
        dec = decompose(op)
        if dec.weyl_plus.norm() <= 1e-10:
            hits += 1
            assert abs(dec.r) <= 1e-7
    assert hits >= 15


def _identity_lines_by_component(r_op, coeffs):
    """Reference for _identity_lines: every component read by its own
    CurvatureOperator.component call, with the same arithmetic."""
    c = r_op.component
    rho = ricci(r_op)
    a12, a13, a14 = coeffs.tolist()
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


def test_identity_lines_gather_matches_component_reads():
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = rng.standard_normal((6, 6))
        op = CurvatureOperator(m + m.T)
        a = rng.standard_normal(3)
        coeffs = unit_triple(a / np.linalg.norm(a))
        lines, sums = _identity_lines(op, coeffs)
        expected_lines, expected_sums = _identity_lines_by_component(op, coeffs)
        np.testing.assert_array_equal(lines, expected_lines)
        assert sums == expected_sums
