"""Seeded workload inputs and the independent arithmetic the gates use.

Everything here is written from the definitions (bivector basis, Hodge
star, induced action of a frame, the model curvature operators), not by
calling curv4, so the correctness gates in ``workloads.py`` recompute the
program's results along a route it does not share.
"""

from __future__ import annotations

import numpy as np

# Lexicographic bivector basis e1^e2, e1^e3, e1^e4, e2^e3, e2^e4, e3^e4
# (0-based index pairs).
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
SLOT = {p: s for s, p in enumerate(PAIRS)}

# *(e1^e2) = e3^e4, *(e1^e3) = -e2^e4, *(e1^e4) = e2^e3; *^2 = 1.
HODGE = np.zeros((6, 6))
for _a, _b, _sign in ((0, 5, 1.0), (1, 4, -1.0), (2, 3, 1.0)):
    HODGE[_a, _b] = HODGE[_b, _a] = _sign

# J e1 = e2, J e3 = e4 (the unitary-frame complex structure).
STANDARD_J = np.zeros((4, 4))
STANDARD_J[1, 0] = STANDARD_J[3, 2] = 1.0
STANDARD_J[0, 1] = STANDARD_J[2, 3] = -1.0


def induced(a):
    """6x6 matrix of v^w -> (Av)^(Aw) on bivector coefficients."""
    lam = np.empty((6, 6))
    for col, (i, j) in enumerate(PAIRS):
        wi, wj = a[:, i], a[:, j]
        for row, (k, l) in enumerate(PAIRS):
            lam[row, col] = wi[k] * wj[l] - wi[l] * wj[k]
    return lam


def conjugated(matrix, q):
    """Operator matrix in the rotated frame f_i = Q e_i."""
    lam = induced(q)
    return lam.T @ matrix @ lam


def component(matrix, i, j, k, l):
    """R_ijkl (1-based) with the pair antisymmetries."""
    def slot(a, b):
        return (SLOT[(a - 1, b - 1)], 1.0) if a < b else (SLOT[(b - 1, a - 1)], -1.0)

    (s1, g1), (s2, g2) = slot(i, j), slot(k, l)
    return g1 * g2 * matrix[s2, s1]


def distinct_residuals(matrix, frames):
    """R_1234^2 + R_1324^2 + R_1423^2 in each frame of an (n, 4, 4) stack,
    from the wedge products of the frame vectors."""
    i_idx = np.array([p[0] for p in PAIRS])
    j_idx = np.array([p[1] for p in PAIRS])

    def wedge(a, b):
        u, v = frames[:, :, a], frames[:, :, b]
        return u[:, i_idx] * v[:, j_idx] - u[:, j_idx] * v[:, i_idx]

    total = np.zeros(len(frames))
    for a, b, c, d in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)):
        comp = np.einsum("ni,ij,nj->n", wedge(c, d), matrix, wedge(a, b))
        total += comp * comp
    return total


def distinct_residual(matrix, q):
    return float(distinct_residuals(matrix, np.asarray(q)[None])[0])


def rotation(rng):
    """Random element of SO(4)."""
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return q


def plane_rotation(i, j, angle):
    q = np.eye(4)
    c, s = np.cos(angle), np.sin(angle)
    q[i, i] = q[j, j] = c
    q[i, j], q[j, i] = -s, s
    return q


def cp2_frame():
    """Frame whose structure coefficients are (1, 1, 1)/sqrt3 and in which
    the constant-holomorphic-curvature operator has no distinct-index part."""
    s2, s3, s6 = np.sqrt(2.0), np.sqrt(3.0), np.sqrt(6.0)
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0 / s3, 1.0 / s3, 1.0 / s3],
            [0.0, 1.0 / s2, -1.0 / s2, 0.0],
            [0.0, 1.0 / s6, 1.0 / s6, -s2 / s3],
        ]
    )


def bianchi_operator(rng):
    """Generic operator satisfying the first Bianchi identity: a symmetric
    Gaussian 6x6 with its Hodge-star component removed."""
    m = rng.standard_normal((6, 6))
    m = 0.5 * (m + m.T)
    beta = float(np.sum(m * HODGE)) / 6.0
    return m - beta * HODGE


def const_hol_sec(c):
    """R_ijkl = (c/4)(d_ik d_jl - d_il d_jk + w_ik w_jl - w_il w_jk
    + 2 w_ij w_kl) with w_ab = <J e_a, e_b>."""
    w = STANDARD_J.T
    d = np.eye(4)
    m = np.empty((6, 6))
    for col, (i, j) in enumerate(PAIRS):
        for row, (k, l) in enumerate(PAIRS):
            m[row, col] = 0.25 * c * (
                d[i, k] * d[j, l] - d[i, l] * d[j, k]
                + w[i, k] * w[j, l] - w[i, l] * w[j, k]
                + 2.0 * w[i, j] * w[k, l]
            )
    return m


def surface_product(k1, k2):
    m = np.zeros((6, 6))
    m[0, 0], m[5, 5] = k1, k2
    return m


def structure_coeffs(j):
    """(a12, a13, a14) = (<J e1, e_2>, <J e1, e_3>, <J e1, e_4>)."""
    return (float(j[1, 0]), float(j[2, 0]), float(j[3, 0]))


# Kaehler pair kinds, in the order they cycle through a run.  Self-dual
# kinds carry the frame in which their distinct-index components vanish
# and the verdict the self-dual classification must return.
KAEHLER_KINDS = ("const-hol-sec", "conformally-flat-product", "surface-product", "mixture")


def kaehler_pair(rng, kind):
    """A Kaehler (operator, structure) pair pushed into a frame.

    Returns a dict: kind, operator matrix, J, its coefficients (a12, a13,
    a14), and for the self-dual kinds the frame in which the
    distinct-index components vanish and the verdict the self-dual
    classification must give (None otherwise); ``degenerate`` says whether
    a coefficient vanishes.
    """
    special = None
    verdict = None
    if kind == "const-hol-sec":
        base = const_hol_sec(rng.uniform(0.2, 2.0))
        q = rotation(rng)
        special, verdict = q.T @ cp2_frame(), "special-frame-branch"
    elif kind == "conformally-flat-product":
        k = rng.uniform(0.2, 1.5)
        base = surface_product(k, -k)
        q = rotation(rng)
        special, verdict = q.T, "conformally-flat-branch"
    elif kind == "surface-product":
        # both factors positively curved, so k2 != -k1 and W- does not vanish
        base = surface_product(rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5))
        # rotations inside the two factor planes keep J, so a13 = a14 = 0
        q = plane_rotation(0, 1, rng.uniform(0, 2 * np.pi)) @ plane_rotation(
            2, 3, rng.uniform(0, 2 * np.pi)
        )
    elif kind == "mixture":
        mix = rng.uniform(0.2, 0.8)
        base = mix * const_hol_sec(rng.uniform(0.2, 2.0)) + (1.0 - mix) * surface_product(
            rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
        )
        q = rotation(rng)
    else:
        raise ValueError(f"unknown Kaehler pair kind {kind!r}")
    matrix = conjugated(base, q)
    j = q.T @ STANDARD_J @ q
    coeffs = structure_coeffs(j)
    return {
        "kind": kind,
        "matrix": 0.5 * (matrix + matrix.T),
        "J": j,
        "coeffs": coeffs,
        "special_frame": special,
        "verdict": verdict,
        "degenerate": min(abs(c) for c in coeffs) < 1e-12,
    }


# Diagonal metrics from the parser grammar.  The templates fix the shape of
# every expression so that evaluation cost does not depend on the seed;
# the seed draws the constants (four decimals, never a special value) and
# the points.  Products pair a conformal surface in (x1, x2) with one in
# (x3, x4) and carry J = (1, 0, 0).
PRODUCT_TEMPLATES = (
    ("exp({a}*x1 + {b}*x2^2)", "1/(1 + {c}*(x3^2 + x4^2))"),
    ("sqrt(1 + {a}*x1^2 + {b}*x2^2)", "exp({c}*x3*x4 - {d}*x4)"),
)
GENERIC_TEMPLATES = (
    (
        "exp({a}*x2 + {b}*x3)",
        "1 + {c}*x1^2 + {d}*x4^2",
        "1/(1 + {e}*x2^2)",
        "sqrt(1 + {f}*x1^2 + {g}*x3^2)",
    ),
    (
        "1 + {a}*x3^2",
        "exp({b}*x1*x4)",
        "sqrt(1 + {c}*x2^2 + {d}*x4^2)",
        "1/(1 + {e}*x1^2 + {f}*x2^2)",
    ),
)
POINT_RADIUS = 0.5


def _constants(rng):
    return {k: f"{rng.uniform(0.1, 0.9):.4f}" for k in "abcdefg"}


def metric_docs(rng):
    """Metric documents (as the CLI reads them), products first."""
    docs = []
    for surf12, surf34 in PRODUCT_TEMPLATES:
        c = _constants(rng)
        f, h = surf12.format(**c), surf34.format(**c)
        docs.append(
            {"a1": f, "a2": f, "a3": h, "a4": h,
             "J_field": {"a12": "1", "a13": "0", "a14": "0"}}
        )
    for template in GENERIC_TEMPLATES:
        c = _constants(rng)
        docs.append({f"a{n + 1}": t.format(**c) for n, t in enumerate(template)})
    return docs


def metric_points(rng, count):
    return rng.uniform(-POINT_RADIUS, POINT_RADIUS, size=(count, 4))
