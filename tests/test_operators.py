import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_bianchi, random_rotation, random_symmetric6
from curv4 import (
    ADAPTED_IDENTITY,
    HODGE_MATRIX,
    CurvatureOperator,
    FrameRotation,
    adapted_form,
    bianchi_defect,
    build_surface_product,
    conjugate,
    decompose,
    distinct_index_components,
    from_components,
    induced_map,
    ricci,
    s_map,
    scalar_curvature,
    wedge,
    weyl_block,
)
from curv4.operators import _NORM_SAFE_ENTRY

E = np.eye(4)


# --- independent oracles -----------------------------------------------------

def ricci_defining_sum(op):
    # rho(v, w) = sum_i <R(v ^ e_i), w ^ e_i>, straight from the definition
    rho = np.zeros((4, 4))
    for a in range(4):
        for b in range(4):
            total = 0.0
            for i in range(4):
                va = wedge(E[a], E[i])
                vb = wedge(E[b], E[i])
                total += vb @ (op.matrix @ va)
            rho[a, b] = total
    return rho


def s_map_eigenbasis_oracle(t):
    # diagonalize, apply (lam_i + lam_j - tr/3)/2 on each wedge, rotate back
    lam, v = np.linalg.eigh(t)
    l = induced_map(v)
    from curv4 import LEX_PAIRS

    diag = np.diag(
        [0.5 * (lam[i - 1] + lam[j - 1] - np.trace(t) / 3.0) for (i, j) in LEX_PAIRS]
    )
    return l @ diag @ l.T


# --- construction ------------------------------------------------------------

def test_from_components_single_diagonal():
    op = from_components([(1, 2, 1, 2, 1.0)])
    expected = np.zeros((6, 6))
    expected[0, 0] = 1.0
    np.testing.assert_array_equal(op.matrix, expected)


def test_from_components_antisymmetry_conflict():
    with pytest.raises(ValueError, match="conflicts"):
        from_components([(1, 2, 1, 2, 1.0), (2, 1, 1, 2, 1.0)])


def test_from_components_pair_symmetry():
    op = from_components([(1, 2, 3, 4, 0.25)])
    assert op.matrix[0, 5] == 0.25
    assert op.matrix[5, 0] == 0.25
    with pytest.raises(ValueError, match="conflicts"):
        from_components([(1, 2, 3, 4, 0.25), (3, 4, 1, 2, -0.25)])


def test_from_components_index_validation():
    with pytest.raises(ValueError):
        from_components([(0, 2, 1, 2, 1.0)])
    with pytest.raises(ValueError):
        from_components([(1, 1, 1, 2, 1.0)])
    # 1.0 == 1, but a float index is refused like a boolean one
    with pytest.raises(ValueError, match="integers 1..4"):
        from_components([(1.0, 2, 1, 2, 1.0)])


@pytest.mark.parametrize("value", ["1", True])
def test_from_components_reads_values_by_the_number_rule(value):
    # float() reads each as 1.0
    with pytest.raises(ValueError, match="component R_1212: expected finite real numbers"):
        from_components([(1, 2, 1, 2, value)])


def test_component_index_symmetries(rng):
    # every quadruple against the wedge pairing <R(e_i ^ e_j), e_k ^ e_l>,
    # which shares no table with component() and is exact on basis vectors
    op = random_symmetric6(rng)
    for i, j, k, l in itertools.product(range(1, 5), repeat=4):
        v = op.component(i, j, k, l)
        if i == j or k == l:
            assert v == 0.0
            continue
        assert v == wedge(E[k - 1], E[l - 1]) @ op.matrix @ wedge(E[i - 1], E[j - 1])
        assert op.component(j, i, k, l) == -v
        assert op.component(i, j, l, k) == -v
        assert op.component(k, l, i, j) == v
    for bad in (0, 5, 1.0, True):
        with pytest.raises(ValueError, match="integers 1..4"):
            op.component(bad, 2, 3, 4)
        with pytest.raises(ValueError, match="integers 1..4"):
            op.component(1, 2, 3, bad)


def test_operator_requires_symmetry():
    bad = np.zeros((6, 6))
    bad[0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        CurvatureOperator(bad)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, True, "1", 1 + 0j])
def test_operator_rejects_non_finite_entries(value):
    # NaN passes the symmetry comparison (nan > tol is false), so it is
    # rejected explicitly; numpy would read True, "1" and 1+0j as 1.0, in
    # a nested list as in an array of their own type
    rows = np.eye(6).tolist()
    rows[2][2] = value
    for bad in (rows, np.array(rows, dtype=type(value))):
        with pytest.raises(ValueError, match="finite"):
            CurvatureOperator(bad)


def test_operator_rejects_an_overflowing_norm():
    # finite entries whose Frobenius norm overflows: every check scaled by
    # max(1, ||R||) would pass, so the operator is not built at all
    m = np.zeros((6, 6))
    m[0, 0], m[1, 1] = 1e200, -3e199  # on e1^e2 and e1^e3
    with pytest.raises(ValueError, match="norm overflows double precision"):
        CurvatureOperator(m)


# --- ricci, scalar curvature, bianchi ---------------------------------------

def test_ricci_identity_operator():
    rho = ricci(CurvatureOperator(np.eye(6)))
    np.testing.assert_allclose(rho, 3.0 * np.eye(4), atol=0)
    np.testing.assert_allclose(ricci_defining_sum(CurvatureOperator(np.eye(6))), rho, atol=0)


def test_ricci_star_vanishes():
    np.testing.assert_allclose(ricci(CurvatureOperator(HODGE_MATRIX)), 0.0, atol=0)


def test_ricci_matches_defining_sum(rng):
    for _ in range(10):
        op = random_symmetric6(rng)
        np.testing.assert_allclose(ricci(op), ricci_defining_sum(op), atol=1e-13)


def test_ricci_equivariance(rng):
    for _ in range(20):
        op = random_symmetric6(rng)
        q = random_rotation(rng)
        lhs = ricci(conjugate(op, q))
        rhs = q.matrix.T @ ricci(op) @ q.matrix
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_scalar_curvature_values(rng):
    assert scalar_curvature(CurvatureOperator(np.eye(6))) == 12.0
    assert scalar_curvature(CurvatureOperator(HODGE_MATRIX)) == 0.0
    for _ in range(10):
        op = random_symmetric6(rng)
        assert scalar_curvature(op) == pytest.approx(
            float(np.trace(ricci(op))), abs=1e-12
        )


def test_distinct_index_components_match_component(rng):
    for k in range(20):
        op = random_symmetric6(rng) if k % 2 else random_bianchi(rng)
        assert distinct_index_components(op) == (
            op.component(1, 2, 3, 4),
            op.component(1, 3, 2, 4),
            op.component(1, 4, 2, 3),
        )


def test_bianchi_defect_star_is_three():
    assert bianchi_defect(CurvatureOperator(HODGE_MATRIX)) == pytest.approx(3.0, abs=0)


def test_bianchi_defect_identity_zero():
    assert bianchi_defect(CurvatureOperator(np.eye(6))) == 0.0


def test_bianchi_defect_of_s_map_images(rng):
    for _ in range(10):
        t = rng.standard_normal((4, 4))
        t = 0.5 * (t + t.T)
        op = s_map(t)
        assert abs(bianchi_defect(op)) <= 1e-12
        # brute-force component sum agrees
        brute = (
            op.component(1, 2, 3, 4)
            + op.component(2, 3, 1, 4)
            + op.component(3, 1, 2, 4)
        )
        assert abs(brute) <= 1e-12


def test_bianchi_defect_iff_star_orthogonal(rng):
    for _ in range(20):
        op = random_symmetric6(rng)
        defect = bianchi_defect(op)
        star_inner = float(np.sum(op.matrix * HODGE_MATRIX))
        assert (abs(defect) <= 1e-10) == (abs(star_inner) <= 2e-10 * 3)
        assert defect == pytest.approx(star_inner / 2.0, abs=1e-13)


# --- the s map ---------------------------------------------------------------

def test_s_map_identity():
    np.testing.assert_allclose(s_map(np.eye(4)).matrix, np.eye(6) / 3.0, atol=1e-15)


def test_s_map_traceless_swaps_duality_blocks():
    t = np.diag([1.0, -1.0, 0.0, 0.0])
    ad = adapted_form(s_map(t), FrameRotation.identity())
    np.testing.assert_allclose(ad[:3, :3], 0.0, atol=1e-14)
    np.testing.assert_allclose(ad[3:, 3:], 0.0, atol=1e-14)
    assert np.linalg.norm(ad[:3, 3:]) > 0.1


def test_s_map_right_inverse_of_ricci(rng):
    for _ in range(50):
        t = rng.standard_normal((4, 4))
        t = 0.5 * (t + t.T)
        np.testing.assert_allclose(ricci(s_map(t)), t, atol=1e-10)


def test_s_map_matches_eigenbasis_oracle(rng):
    for _ in range(25):
        t = rng.standard_normal((4, 4))
        t = 0.5 * (t + t.T)
        np.testing.assert_allclose(
            s_map(t).matrix, s_map_eigenbasis_oracle(t), atol=1e-9
        )


def test_s_map_rejects_nonsymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        s_map(np.triu(np.ones((4, 4))))


# --- decomposition -----------------------------------------------------------

def test_decompose_identity():
    dec = decompose(CurvatureOperator(np.eye(6)))
    assert dec.r == pytest.approx(12.0)
    np.testing.assert_allclose(dec.scalar_part.matrix, np.eye(6), atol=1e-15)
    for part in dec.parts()[1:]:
        assert part.norm() <= 1e-14


def test_decompose_star():
    dec = decompose(CurvatureOperator(HODGE_MATRIX))
    np.testing.assert_allclose(dec.bianchi_part.matrix, HODGE_MATRIX, atol=1e-15)
    for part in dec.parts()[:4]:
        assert part.norm() <= 1e-14


def test_decompose_surface_product_conformally_flat():
    op, _ = build_surface_product(1.0, -1.0)
    dec = decompose(op)
    assert dec.r == pytest.approx(0.0, abs=1e-14)
    assert dec.weyl_plus.norm() <= 1e-12
    assert dec.weyl_minus.norm() <= 1e-12
    assert dec.traceless_ricci_part.norm() > 0.5


def s_map_route_parts(op):
    # the traceless Ricci part as s_map of the traceless Ricci tensor, then
    # the Weyl halves as the diagonal adapted blocks of what the star, scalar
    # and traceless Ricci parts leave
    m, a = op.matrix, ADAPTED_IDENTITY
    r = scalar_curvature(op)
    star = (np.sum(m * HODGE_MATRIX) / 6.0) * HODGE_MATRIX
    ric0 = s_map(ricci(op) - (r / 4.0) * np.eye(4)).matrix
    rest = a.T @ (m - star - (r / 12.0) * np.eye(6) - ric0) @ a
    plus, minus = np.zeros((6, 6)), np.zeros((6, 6))
    plus[:3, :3], minus[3:, 3:] = rest[:3, :3], rest[3:, 3:]
    return ric0, a @ plus @ a.T, a @ minus @ a.T


def test_decompose_reconstruction_and_orthogonality(rng):
    # the parts against a second route that does not use the projections
    # (Id +- *)/2, with and without the Bianchi identity, at scales 1e-3..1e3
    for k in range(1000):
        make = random_bianchi if k % 2 else random_symmetric6
        op = make(rng, 10.0 ** rng.uniform(-3.0, 3.0))
        tol = 1e-12 * max(1.0, op.norm())
        dec = decompose(op)
        for part, expected in zip(dec.parts()[1:4], s_map_route_parts(op)):
            assert np.max(np.abs(part.matrix - expected)) <= tol
        parts = dec.parts()
        total = sum(p.matrix for p in parts)
        assert np.linalg.norm(total - op.matrix) <= tol
        for i, p in enumerate(parts):
            for q in parts[i + 1:]:
                bound = 1e-10 * max(1.0, p.norm() * q.norm())
                assert abs(np.sum(p.matrix * q.matrix)) <= bound
        # the non-curvature part is a multiple of the star
        beta = dec.bianchi_part.matrix[0, 5]
        np.testing.assert_allclose(
            dec.bianchi_part.matrix, beta * HODGE_MATRIX, atol=1e-14
        )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    m=arrays(
        np.float64,
        (6, 6),
        elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
    )
)
def test_decompose_reconstructs_arbitrary_symmetric_input(m):
    op = CurvatureOperator(0.5 * (m + m.T))
    dec = decompose(op)
    total = sum(p.matrix for p in dec.parts())
    assert np.linalg.norm(total - op.matrix) <= 1e-10 * max(1.0, op.norm())


def test_decompose_equivariance(rng):
    for _ in range(15):
        op = random_symmetric6(rng)
        q = random_rotation(rng)
        d1 = decompose(op)
        d2 = decompose(conjugate(op, q))
        for p1, p2 in zip(d1.parts(), d2.parts()):
            assert p1.norm() == pytest.approx(p2.norm(), abs=1e-9)
        assert d1.r == pytest.approx(d2.r, abs=1e-9)


def test_decompose_weyl_blocks_localized(rng):
    # in the adapted basis of any frame the Weyl halves keep to their blocks
    for _ in range(10):
        op = random_symmetric6(rng)
        q = random_rotation(rng)
        dec = decompose(op)
        wp = adapted_form(dec.weyl_plus, q)
        wm = adapted_form(dec.weyl_minus, q)
        np.testing.assert_allclose(wp[3:, :], 0.0, atol=1e-10)
        np.testing.assert_allclose(wp[:, 3:], 0.0, atol=1e-10)
        np.testing.assert_allclose(wm[:3, :], 0.0, atol=1e-10)
        np.testing.assert_allclose(wm[:, :3], 0.0, atol=1e-10)
        assert abs(np.trace(wp)) <= 1e-10
        assert abs(np.trace(wm)) <= 1e-10


# --- block formulas in the adapted basis -------------------------------------

def displayed_plus_block(c):
    return 0.5 * np.array(
        [
            [
                c(1, 2, 1, 2) + c(3, 4, 3, 4) + 2 * c(1, 2, 3, 4),
                (c(1, 2, 1, 3) + c(3, 4, 1, 3)) - (c(1, 2, 2, 4) + c(3, 4, 2, 4)),
                (c(1, 2, 1, 4) + c(3, 4, 1, 4)) + (c(1, 2, 2, 3) + c(3, 4, 2, 3)),
            ],
            [
                (c(1, 3, 1, 2) - c(2, 4, 1, 2)) + (c(1, 3, 3, 4) - c(2, 4, 3, 4)),
                c(1, 3, 1, 3) + c(2, 4, 2, 4) - 2 * c(1, 3, 2, 4),
                (c(1, 3, 1, 4) - c(2, 4, 1, 4)) + (c(1, 3, 2, 3) - c(2, 4, 2, 3)),
            ],
            [
                (c(1, 4, 1, 2) + c(2, 3, 1, 2)) + (c(1, 4, 3, 4) + c(2, 3, 3, 4)),
                (c(1, 4, 1, 3) + c(2, 3, 1, 3)) - (c(1, 4, 2, 4) + c(2, 3, 2, 4)),
                c(1, 4, 1, 4) + c(2, 3, 2, 3) + 2 * c(1, 4, 2, 3),
            ],
        ]
    )


def displayed_minus_block(c):
    return 0.5 * np.array(
        [
            [
                c(1, 2, 1, 2) + c(3, 4, 3, 4) - 2 * c(1, 2, 3, 4),
                (c(1, 2, 1, 3) - c(3, 4, 1, 3)) + (c(1, 2, 2, 4) - c(3, 4, 2, 4)),
                (c(1, 2, 1, 4) - c(3, 4, 1, 4)) - (c(1, 2, 2, 3) - c(3, 4, 2, 3)),
            ],
            [
                (c(1, 3, 1, 2) + c(2, 4, 1, 2)) - (c(1, 3, 3, 4) + c(2, 4, 3, 4)),
                c(1, 3, 1, 3) + c(2, 4, 2, 4) + 2 * c(1, 3, 2, 4),
                (c(1, 3, 1, 4) + c(2, 4, 1, 4)) - (c(1, 3, 2, 3) + c(2, 4, 2, 3)),
            ],
            [
                (c(1, 4, 1, 2) - c(2, 3, 1, 2)) - (c(1, 4, 3, 4) - c(2, 3, 3, 4)),
                (c(1, 4, 1, 3) - c(2, 3, 1, 3)) + (c(1, 4, 2, 4) - c(2, 3, 2, 4)),
                c(1, 4, 1, 4) + c(2, 3, 2, 3) - 2 * c(1, 4, 2, 3),
            ],
        ]
    )


def displayed_cross_block(c):
    return 0.5 * np.array(
        [
            [
                c(1, 2, 1, 2) - c(3, 4, 3, 4),
                (c(1, 2, 1, 3) + c(3, 4, 1, 3)) + (c(1, 2, 2, 4) + c(3, 4, 2, 4)),
                (c(1, 2, 1, 4) + c(3, 4, 1, 4)) - (c(1, 2, 2, 3) + c(3, 4, 2, 3)),
            ],
            [
                (c(1, 3, 1, 2) - c(2, 4, 1, 2)) - (c(1, 3, 3, 4) - c(2, 4, 3, 4)),
                c(1, 3, 1, 3) - c(2, 4, 2, 4),
                (c(1, 3, 1, 4) - c(2, 4, 1, 4)) - (c(1, 3, 2, 3) - c(2, 4, 2, 3)),
            ],
            [
                (c(1, 4, 1, 2) + c(2, 3, 1, 2)) - (c(1, 4, 3, 4) + c(2, 3, 3, 4)),
                (c(1, 4, 1, 3) + c(2, 3, 1, 3)) + (c(1, 4, 2, 4) + c(2, 3, 2, 4)),
                c(1, 4, 1, 4) - c(2, 3, 2, 3),
            ],
        ]
    )


def displayed_cross_block_ricci_form(c, rho):
    return 0.5 * np.array(
        [
            [c(1, 2, 1, 2) - c(3, 4, 3, 4), rho[1, 2] - rho[0, 3], rho[1, 3] + rho[0, 2]],
            [rho[1, 2] + rho[0, 3], c(1, 3, 1, 3) - c(2, 4, 2, 4), rho[2, 3] - rho[0, 1]],
            [rho[1, 3] - rho[0, 2], rho[2, 3] + rho[0, 1], c(1, 4, 1, 4) - c(2, 3, 2, 3)],
        ]
    )


def test_weyl_block_identity_operator():
    block = weyl_block(CurvatureOperator(np.eye(6)), +1, FrameRotation.identity())
    np.testing.assert_allclose(block, np.eye(3), atol=1e-15)


def test_weyl_blocks_match_displayed_formulas(rng):
    for _ in range(30):
        op = random_bianchi(rng)
        q = random_rotation(rng)
        rc = conjugate(op, q)
        c = rc.component
        np.testing.assert_allclose(
            weyl_block(op, +1, q), displayed_plus_block(c), atol=1e-12
        )
        np.testing.assert_allclose(
            weyl_block(op, -1, q), displayed_minus_block(c), atol=1e-12
        )
        cross = adapted_form(op, q)[:3, 3:]
        np.testing.assert_allclose(cross, displayed_cross_block(c), atol=1e-12)
        np.testing.assert_allclose(
            cross, displayed_cross_block_ricci_form(c, ricci(rc)), atol=1e-12
        )


def test_weyl_block_spot_entries(rng):
    op = random_bianchi(rng)
    q = FrameRotation.identity()
    c = op.component
    plus = weyl_block(op, +1, q)
    assert plus[0, 0] == pytest.approx(
        0.5 * (c(1, 2, 1, 2) + c(3, 4, 3, 4) + 2 * c(1, 2, 3, 4)), abs=1e-13
    )
    cross = adapted_form(op, q)[:3, 3:]
    assert cross[0, 0] == pytest.approx(
        0.5 * (c(1, 2, 1, 2) - c(3, 4, 3, 4)), abs=1e-13
    )


# --- conjugation -------------------------------------------------------------

def test_conjugate_identity_frame(rng):
    op = random_symmetric6(rng)
    np.testing.assert_array_equal(
        conjugate(op, FrameRotation.identity()).matrix, op.matrix
    )


def test_conjugate_isotropic(rng):
    q = random_rotation(rng)
    np.testing.assert_allclose(
        conjugate(CurvatureOperator(np.eye(6)), q).matrix, np.eye(6), atol=1e-13
    )


def test_conjugate_preserves_invariants(rng):
    for _ in range(10):
        op = random_symmetric6(rng)
        q = random_rotation(rng)
        rc = conjugate(op, q)
        assert scalar_curvature(rc) == pytest.approx(scalar_curvature(op), abs=1e-9)
        d1, d2 = decompose(op), decompose(rc)
        assert d1.weyl_minus.norm() == pytest.approx(d2.weyl_minus.norm(), abs=1e-9)


# --- serialization -----------------------------------------------------------

def test_serialization_roundtrip(rng):
    from curv4 import operator_from_dict

    op = random_symmetric6(rng)
    doc = {"basis": "lex12-34", "matrix": op.matrix.tolist()}
    back = operator_from_dict(doc)
    np.testing.assert_array_equal(back.matrix, op.matrix)

    comp_doc = {
        "components": [
            {"ijkl": [1, 2, 1, 2], "value": 1.0},
            {"ijkl": [1, 2, 3, 4], "value": 0.5},
        ]
    }
    op2 = operator_from_dict(comp_doc)
    assert op2.matrix[0, 0] == 1.0
    assert op2.matrix[0, 5] == 0.5
    with pytest.raises(ValueError):
        operator_from_dict({"basis": "other", "matrix": np.eye(6).tolist()})
    with pytest.raises(ValueError):
        operator_from_dict({})


# --- the symmetrized constructor of the metric routes ---------------------------

def _random_raw(rng):
    """A finite 6x6 matrix, not symmetric, at a random magnitude (up to past
    _NORM_SAFE_ENTRY), with some exact, negative and integer-valued zeros."""
    raw = rng.standard_normal((6, 6)) * 10.0 ** rng.uniform(-30, 152)
    raw[rng.random((6, 6)) < 0.2] = 0.0
    raw[rng.random((6, 6)) < 0.2] = -0.0
    if rng.random() < 0.2:
        raw = np.round(raw)
    return raw


def test_symmetrized_equals_the_public_constructor_bit_for_bit(rng):
    past_the_safe_entry = 0
    for _ in range(1200):
        raw = _random_raw(rng)
        before = raw.tobytes()
        want = CurvatureOperator(0.5 * (raw + raw.T)).matrix
        scale = max(1.0, float(np.abs(raw).max()))
        past_the_safe_entry += scale > _NORM_SAFE_ENTRY
        for got in (CurvatureOperator._symmetrized(raw), CurvatureOperator._symmetrized(raw, scale)):
            assert type(got) is CurvatureOperator
            assert got.matrix.tobytes() == want.tobytes()
            assert got.matrix.T.tobytes() == got.matrix.tobytes()  # exactly symmetric
            assert not got.matrix.flags.writeable
        assert raw.tobytes() == before
    assert past_the_safe_entry > 0  # the public constructor's path is exercised too


def test_symmetrized_keeps_the_norm_overflow_check():
    raw = np.zeros((6, 6))
    raw[0, 0], raw[1, 2] = 1e200, 3e199
    for scale in (None, 1e200):
        with pytest.raises(ValueError, match="^curvature operator norm overflows double precision$"):
            CurvatureOperator._symmetrized(raw, scale)
