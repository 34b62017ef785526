"""The skew-matrix map for 2-forms and the one rule for a complex structure,
held against the hand-typed tables and the six separate structure checks
they replace."""

import numpy as np
import pytest

from conftest import random_kahler_pair, random_rotation
from curv4 import (
    HODGE_MATRIX,
    STANDARD_J,
    ComplexStructure,
    CurvatureOperator,
    FrameRotation,
    structure_from_coeffs,
)
from curv4.bivectors import ORTHOGONALITY_TOL, _form_to_skew, _skew_to_form
from curv4.kahler import STRUCTURE_TOL, KahlerFrameView
from curv4.obstructions import _GENERATORS

LITERAL_STANDARD_J = np.array(
    [
        [0, -1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, -1],
        [0, 0, 1, 0],
    ],
    dtype=float,
)

LITERAL_GENERATORS = np.array(
    [
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
        [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]],
        [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
        [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]],
        [[0, 0, 0, -1], [0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0]],
    ],
    dtype=float,
)

# the lower-triangle entries <J e_i, e_j>, i < j, in the lexicographic order
_LOWER = ([1, 2, 3, 2, 3, 3], [0, 0, 0, 1, 1, 2])


def literal_structure(a12, a13, a14):
    """The orientation-compatible J of a triple, typed in entry by entry."""
    return np.array(
        [
            [0.0, -a12, -a13, -a14],
            [a12, 0.0, -a14, a13],
            [a13, a14, 0.0, -a12],
            [a14, -a13, a12, 0.0],
        ]
    )


def six_structure_checks(j):
    """The four structure checks and the two identity-frame coefficient
    checks, each at its own tolerance, that the one rule replaces."""
    if not np.isfinite(j).all():
        return False
    if np.max(np.abs(j.T @ j - np.eye(4))) > 1e-12:
        return False
    if np.max(np.abs(j @ j + np.eye(4))) > 1e-12:
        return False
    dual = j[_LOWER]
    if np.linalg.norm(0.5 * (dual - HODGE_MATRIX @ dual)) > 1e-9:
        return False
    if abs(float(np.sum((0.5 * (dual + HODGE_MATRIX @ dual))[:3] ** 2)) - 1.0) > 1e-12:
        return False
    if abs(float(np.sum(dual[:3] ** 2)) - 1.0) > 1e-9:
        return False
    return np.max(np.abs(literal_structure(*dual[:3]) - j)) <= 1e-10


def rule_accepts(j):
    try:
        ComplexStructure(j)
    except ValueError:
        return False
    return True


def rebuild_defect(j):
    """Largest entry of J minus the literal structure of its normalised
    lower-triangle triple; inf where there is no triple to normalise."""
    triple = np.asarray(j, dtype=float)[_LOWER][:3]
    norm = np.linalg.norm(triple)
    if not np.isfinite(j).all() or norm == 0.0:
        return np.inf
    return float(np.max(np.abs(literal_structure(*(triple / norm)) - j)))


def test_tables_match_the_typed_in_ones_bit_for_bit():
    assert STANDARD_J.tobytes() == LITERAL_STANDARD_J.tobytes()
    assert _GENERATORS.tobytes() == LITERAL_GENERATORS.tobytes()
    assert not STANDARD_J.flags.writeable and not _GENERATORS.flags.writeable


def test_structure_from_coeffs_matches_the_typed_in_matrix_bit_for_bit(rng):
    triples = [sign * row for row in np.eye(3) for sign in (1.0, -1.0)]
    # signed zeros come through as the typed-in matrix has them
    triples += [np.array(t) for t in ((1.0, -0.0, 0.0), (-0.0, -1.0, -0.0), (0.0, 0.0, -1.0),
                                      (-1.0, -0.0, -0.0))]
    triples += list(rng.standard_normal((1000, 3)))
    for t in triples:
        t = t / np.linalg.norm(t)
        assert structure_from_coeffs(t).tobytes() == literal_structure(*t).tobytes(), t


def test_skew_map_round_trip_and_dual_convention(rng):
    for b in rng.standard_normal((50, 6)):
        m = _form_to_skew(b)
        np.testing.assert_array_equal(m, -m.T)
        np.testing.assert_array_equal(_skew_to_form(m), b)
        # b_ij = <M e_i, e_j>, i < j
        np.testing.assert_array_equal(_skew_to_form(m), m[_LOWER])
    stack = rng.standard_normal((3, 6))
    np.testing.assert_array_equal(_form_to_skew(stack), [_form_to_skew(b) for b in stack])


def _perturbed_structures(rng, count):
    """Q^T J Q at random Q and unit triples, each moved by a symmetric,
    self-dual skew, anti-self-dual skew or scaling term of largest entry
    between 1e-16 and 1e-6."""
    for k in range(count):
        q = random_rotation(rng).matrix
        a = rng.standard_normal(3)
        j = q.T @ literal_structure(*(a / np.linalg.norm(a))) @ q
        kind = k % 4
        if kind == 0:
            e = rng.standard_normal((4, 4))
            e = e + e.T
        elif kind == 1:
            e = literal_structure(*rng.standard_normal(3))
        elif kind == 2:
            e = np.tensordot(rng.standard_normal(3), LITERAL_GENERATORS[3:], axes=1)
        else:
            e = j
        yield j + 10.0 ** rng.uniform(-16.0, -6.0) * e / np.max(np.abs(e))


def test_one_rule_agrees_with_the_six_checks_outside_the_band(rng):
    # the band [1e-13, 1e-11] of the rebuild defect holds both thresholds:
    # the rule's STRUCTURE_TOL and, for the six checks, 1e-12 on J^T J - Id
    # and J^2 + Id, a small multiple of the rebuild defect
    candidates = list(_perturbed_structures(rng, 10_000))
    candidates += [np.zeros((4, 4)), np.full((4, 4), np.nan), (1.0 + 4e-10) * STANDARD_J]
    outside = {True: 0, False: 0}
    for j in candidates:
        defect = rebuild_defect(j)
        if 1e-13 <= defect <= 1e-11:
            continue
        old = six_structure_checks(j)
        assert rule_accepts(j) == old, (defect, j)
        outside[old] += 1
    assert outside[True] > 3000 and outside[False] > 3000


def test_rule_refuses_scaled_mixed_and_zero_matrices():
    e12 = np.zeros((4, 4))
    e12[1, 0], e12[0, 1] = 1.0, -1.0  # e1^e2: half self-dual, half anti-self-dual
    for j in ((1.0 + 4e-10) * STANDARD_J, e12):
        with pytest.raises(ValueError, match="orthogonal J with J\\^2 = -Id and a self-dual"):
            ComplexStructure(j)
    # a zero triple is refused as such, never through a 0/0 whose NaN
    # comparison would read as a pass
    with np.errstate(all="raise"), pytest.raises(ValueError, match="differs by inf"):
        ComplexStructure(np.zeros((4, 4)))


def _cp2_frame_moved(entry, eps):
    s2, s3, s6 = np.sqrt(2.0), np.sqrt(3.0), np.sqrt(6.0)
    q = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0 / s3, 1.0 / s3, 1.0 / s3],
            [0.0, 1.0 / s2, -1.0 / s2, 0.0],
            [0.0, 1.0 / s6, 1.0 / s6, -s2 / s3],
        ]
    )
    q[entry] += eps
    return q


def test_frames_beyond_the_orthogonality_tolerance_are_refused():
    # frames of defect 4e-10 and 1e-11 once passed and then failed the Kaehler checks
    for eps in (4e-10, 1e-11, 2e-13):
        with pytest.raises(ValueError, match="not orthogonal"):
            FrameRotation(_cp2_frame_moved((0, 1), eps))
    FrameRotation(_cp2_frame_moved((0, 1), 0.9 * ORTHOGONALITY_TOL))


def _at_defect(make, target):
    """make(t) scaled so that its defect, the second returned value, sits
    just below target; the defect grows linearly with t near 0."""
    _, probe = make(1e-14)
    return make(0.9 * target * 1e-14 / probe)[0]


def test_kaehler_views_hold_at_both_tolerance_bounds(rng):
    # structures at the rule's bound, read in frames at the orthogonality
    # bound, keep every cross-check of KahlerFrameView, at scales 1e-3..1e3
    for k in range(1500):
        r_op, structure = random_kahler_pair(rng)
        r_op = CurvatureOperator(10.0 ** rng.uniform(-3.0, 3.0) * r_op.matrix)
        v = rng.standard_normal(4)
        e = (np.outer(v, v), np.diag(v), rng.standard_normal((4, 4)))[k % 3]
        j = _at_defect(
            lambda t: (structure.matrix + t * e, rebuild_defect(structure.matrix + t * e)),
            STRUCTURE_TOL,
        )
        q, d = random_rotation(rng).matrix, rng.standard_normal((4, 4))
        frame = _at_defect(
            lambda t: (q + t * d, float(np.max(np.abs((q + t * d).T @ (q + t * d) - np.eye(4))))),
            ORTHOGONALITY_TOL,
        )
        view = KahlerFrameView(r_op, ComplexStructure(j), FrameRotation(frame))
        assert view.is_kaehler(1e-9)
