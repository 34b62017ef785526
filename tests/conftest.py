from pathlib import Path

import numpy as np
import pytest

from curv4 import (
    HODGE_MATRIX,
    STANDARD_J,
    ComplexStructure,
    CurvatureOperator,
    FrameRotation,
    build_const_hol_sec,
    build_surface_product,
    conjugate,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SAMPLE_DIR = REPO_ROOT / "sample_inputs"


def random_symmetric6(rng, scale=1.0):
    m = rng.standard_normal((6, 6)) * scale
    return CurvatureOperator(0.5 * (m + m.T))


def random_bianchi(rng, scale=1.0):
    op = random_symmetric6(rng, scale)
    beta = float(np.sum(op.matrix * HODGE_MATRIX)) / 6.0
    return CurvatureOperator(op.matrix - beta * HODGE_MATRIX)


def random_rotation(rng):
    """Random element of SO(4); deterministic for a seeded generator."""
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    q = q * np.where(np.diag(r) >= 0, 1.0, -1.0)
    if np.linalg.det(q) < 0:
        q = q[:, [1, 0, 2, 3]]
    return FrameRotation(q)


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
