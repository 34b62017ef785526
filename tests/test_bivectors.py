import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_rotation
from curv4 import (
    ADAPTED_IDENTITY,
    HODGE_MATRIX,
    CurvatureOperator,
    FrameRotation,
    adapted_form,
    hodge_star,
    induced_map,
    induced_rotation,
    sd_project,
    wedge,
)
from curv4.bivectors import _real_array

E = np.eye(4)
SWAP_E3_E4 = E[[0, 1, 3, 2]]  # the orientation-reversing axis swap e3 <-> e4

finite = st.floats(min_value=-100, max_value=100, allow_nan=False)
vec4 = st.tuples(finite, finite, finite, finite)


def test_wedge_basis_case():
    np.testing.assert_array_equal(wedge(E[0], E[1]), [1, 0, 0, 0, 0, 0])


def test_wedge_bilinearity_example():
    # (e1 + e2) ^ e3 = e1^e3 + e2^e3
    np.testing.assert_allclose(
        wedge(E[0] + E[1], E[2]), [0, 1, 0, 1, 0, 0], atol=0
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(v=vec4, w=vec4, s=finite)
def test_wedge_antisymmetric_bilinear(v, w, s):
    v = np.array(v)
    w = np.array(w)
    np.testing.assert_allclose(wedge(v, v), 0.0, atol=1e-9)
    np.testing.assert_allclose(wedge(v, w), -wedge(w, v), atol=1e-9)
    np.testing.assert_allclose(
        wedge(s * v, w), s * wedge(v, w), rtol=1e-12, atol=1e-9
    )


def test_hodge_star_basis_values():
    np.testing.assert_array_equal(hodge_star(wedge(E[0], E[1])), [0, 0, 0, 0, 0, 1])
    np.testing.assert_array_equal(hodge_star(wedge(E[0], E[2])), [0, 0, 0, 0, -1, 0])
    np.testing.assert_array_equal(hodge_star(wedge(E[0], E[3])), [0, 0, 0, 1, 0, 0])


def test_hodge_matrix_is_exact_involution():
    assert set(np.unique(HODGE_MATRIX)) <= {-1.0, 0.0, 1.0}
    np.testing.assert_array_equal(HODGE_MATRIX @ HODGE_MATRIX, np.eye(6))
    np.testing.assert_array_equal(HODGE_MATRIX, HODGE_MATRIX.T)


def test_hodge_star_involution_random(rng):
    for _ in range(20):
        b = rng.standard_normal(6)
        np.testing.assert_allclose(hodge_star(hodge_star(b)), b, atol=0)


def test_sd_project_basis_case():
    plus = sd_project(wedge(E[0], E[1]), +1)
    np.testing.assert_allclose(plus, [0.5, 0, 0, 0, 0, 0.5], atol=0)


def test_sd_project_fixes_eigenvectors():
    b = np.array([1, 0, 0, 0, 0, 1])
    np.testing.assert_allclose(sd_project(b, +1), b, atol=0)
    np.testing.assert_allclose(sd_project(b, -1), 0.0, atol=0)


def test_sd_projectors_complementary(rng):
    p_plus = 0.5 * (np.eye(6) + HODGE_MATRIX)
    p_minus = 0.5 * (np.eye(6) - HODGE_MATRIX)
    np.testing.assert_allclose(p_plus @ p_plus, p_plus, atol=1e-15)
    np.testing.assert_allclose(p_plus @ p_minus, 0.0, atol=1e-15)
    assert np.trace(p_plus) == pytest.approx(3.0)
    assert np.trace(p_minus) == pytest.approx(3.0)
    for _ in range(10):
        b = rng.standard_normal(6)
        total = sd_project(b, +1) + sd_project(b, -1)
        np.testing.assert_allclose(total, b, atol=1e-15)
        # outputs are eigenvectors of the star
        for sign in (+1, -1):
            part = sd_project(b, sign)
            np.testing.assert_allclose(
                hodge_star(part), sign * part, atol=1e-15
            )


def test_sd_project_rejects_bad_sign():
    # True == 1 and "+" once read as +1; a sign is the number +1 or -1
    for sign in (2, "+", True):
        with pytest.raises(ValueError):
            sd_project(np.zeros(6), sign)


def test_frame_rotation_validation():
    FrameRotation(np.eye(4))
    with pytest.raises(ValueError):
        FrameRotation(np.eye(4) * 1.5)
    reflection = np.diag([1.0, 1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        FrameRotation(reflection)
    assert np.linalg.det(SWAP_E3_E4) == pytest.approx(-1.0)
    with pytest.raises(ValueError, match="determinant"):
        FrameRotation(SWAP_E3_E4)


@pytest.mark.parametrize("entry", [1e200, -1e155, 2.5])
def test_frame_rotation_refuses_large_entries_before_they_overflow(entry):
    # under the suite's error::RuntimeWarning filter, forming q^T q for 1e200
    # or 1e155 would raise numpy's overflow warning in place of the frame rule
    with pytest.raises(ValueError, match="^matrix is not orthogonal"):
        FrameRotation(np.full((4, 4), entry))


@pytest.mark.parametrize("value", [np.nan, np.inf, True, "1", 1 + 0j])
def test_frame_rotation_rejects_non_finite_entries(value):
    # numpy would read True, "1" and 1+0j as 1.0, which leaves the identity
    rows = np.eye(4).tolist()
    rows[1][1] = value
    for bad in (rows, np.array(rows, dtype=type(value))):
        with pytest.raises(ValueError, match="finite"):
            FrameRotation(bad)


def test_random_rotation_is_valid(rng):
    for _ in range(50):
        q = random_rotation(rng).matrix
        np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-12)
        assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-12)


def test_adapted_basis_identity_first_element():
    first = ADAPTED_IDENTITY[:, 0]
    np.testing.assert_allclose(first, np.array([1, 0, 0, 0, 0, 1]) / np.sqrt(2), atol=1e-15)


def test_adapted_basis_orthonormal_and_star_eigen(rng):
    # the identity reads the Gram matrix of the adapted basis, the star its
    # eigenvalues: +1 on the first three bivectors, -1 on the last three
    for _ in range(20):
        q = random_rotation(rng)
        gram = adapted_form(CurvatureOperator(np.eye(6)), q)
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-12)
        star = adapted_form(CurvatureOperator(HODGE_MATRIX), q)
        np.testing.assert_allclose(star, np.diag([1, 1, 1, -1, -1, -1]), atol=1e-12)


def test_adapted_matrix_diagonalizes_star():
    a0 = ADAPTED_IDENTITY
    np.testing.assert_allclose(
        a0.T @ HODGE_MATRIX @ a0, np.diag([1, 1, 1, -1, -1, -1]), atol=1e-15
    )


def test_induced_rotation_identity():
    np.testing.assert_array_equal(
        induced_rotation(FrameRotation.identity()), np.eye(6)
    )


def test_induced_rotation_plane_rotation_fixes_both_planes():
    theta = 0.7
    q = np.eye(4)
    q[0, 0] = q[1, 1] = np.cos(theta)
    q[0, 1] = -np.sin(theta)
    q[1, 0] = np.sin(theta)
    l = induced_rotation(FrameRotation(q))
    e12 = np.array([1, 0, 0, 0, 0, 0.0])
    e34 = np.array([0, 0, 0, 0, 0, 1.0])
    np.testing.assert_allclose(l @ e12, e12, atol=1e-15)
    np.testing.assert_allclose(l @ e34, e34, atol=1e-15)


def test_induced_map_matches_direct_wedge(rng):
    # oracle: columns of the induced matrix are wedges of rotated basis vectors
    for _ in range(10):
        q = random_rotation(rng).matrix
        l = induced_map(q)
        from curv4 import LEX_PAIRS

        for slot, (i, j) in enumerate(LEX_PAIRS):
            direct = wedge(q[:, i - 1], q[:, j - 1])
            np.testing.assert_allclose(l[:, slot], direct, atol=1e-14)


@pytest.mark.parametrize(
    "a",
    [[["1", "0", "0", "0"]] * 4, np.eye(4, dtype=bool), np.eye(4) * (1 + 1j)],
    ids=["strings", "booleans", "complex"],
)
def test_induced_map_reads_its_matrix_by_the_number_rule(a):
    # numpy reads each as a float matrix; the complex one would lose its
    # imaginary part
    with pytest.raises(ValueError, match="finite real numbers"):
        induced_map(a)


def test_induced_rotation_orthogonal_commutes_with_star(rng):
    for _ in range(30):
        l = induced_rotation(random_rotation(rng))
        np.testing.assert_allclose(l.T @ l, np.eye(6), atol=1e-12)
        np.testing.assert_allclose(
            l @ HODGE_MATRIX, HODGE_MATRIX @ l, atol=1e-12
        )


def test_orientation_flip_swaps_duality():
    # the explicit axis swap conjugates the star into its negative
    l = induced_map(SWAP_E3_E4)
    np.testing.assert_allclose(l.T @ HODGE_MATRIX @ l, -HODGE_MATRIX, atol=1e-15)


def test_bivector_shape_validation():
    with pytest.raises(ValueError):
        hodge_star([1.0, 2.0])
    with pytest.raises(ValueError):
        wedge([1, 2, 3], [1, 2, 3, 4])


# --- the number rule's fast path: a tuple of finite Python floats ---------------

@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 4))
def test_a_float_tuple_gives_the_array_of_the_walk(point):
    fast = _real_array(point, (4,), "point")
    walked = _real_array(list(point), (4,), "point")  # a list takes the walk
    assert fast.dtype == walked.dtype == np.float64
    assert fast.shape == walked.shape == (4,)
    assert fast.tobytes() == walked.tobytes()  # signed zeros too
    assert fast.flags.writeable and fast.flags.owndata


@pytest.mark.parametrize(
    "point, message",
    [
        pytest.param((float("nan"), 0.0, 0.0, 0.0), "expected finite real numbers, got nan", id="nan"),
        pytest.param((0.0, float("inf"), 0.0, 0.0), "expected finite real numbers, got inf", id="inf"),
        pytest.param((0.0, 0.0, -float("inf"), 0.0), "expected finite real numbers, got -inf", id="minus-inf"),
        pytest.param((True, 0.0, 0.0, 0.0), "expected finite real numbers, got a boolean", id="bool"),
        pytest.param((0.0, 0.0, 0.0, "0.5"), "expected finite real numbers, got '0.5'", id="str"),
        pytest.param((0.0, 0.0, 0.0), "expected shape (4,), got (3,)", id="three-floats"),
    ],
)
def test_a_float_tuple_with_a_refused_entry_keeps_its_message(point, message):
    with pytest.raises(ValueError) as err:
        _real_array(point, (4,), "point")
    assert str(err.value) == f"point: {message}"


def test_a_tuple_with_a_numpy_float_gives_the_same_array():
    # np.float64 subclasses float but takes the walk, which accepts it
    point = (np.float64(0.5), -0.25, 0.0, 1e-300)
    np.testing.assert_array_equal(
        _real_array(point, (4,), "point"), _real_array(tuple(map(float, point)), (4,), "point")
    )
