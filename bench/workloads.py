"""The in-process workloads, each with the correctness gate that stands
behind ``failed``.

A workload object makes its inputs from the seed, warms up in ``setup``
(every first call, so every sympy build, happens there) and runs one
operation per ``op(i)`` call.  ``op`` raises ``CheckFailed`` when the
program's answer does not survive the independent recomputation.
"""

from __future__ import annotations

import numpy as np

import inputs
from clidocs import require


def _scale(matrix):
    return max(1.0, float(np.linalg.norm(matrix)))


# ---------------------------------------------------------------------------
# frame-search


class FrameSearch:
    """frame_search(op, restarts=32, seed=0, tol=1e-10) on generic operators
    satisfying the Bianchi identity (the recipe of tests/conftest.py)."""

    name = "frame-search"
    min_ops = 3  # an odd count, so the median is one search, not a mean
    TOL = 1e-10

    def __init__(self, curv4, seed):
        self.c = curv4
        self.rng = np.random.default_rng([seed, 1])

    def setup(self):
        warm = self.c.CurvatureOperator(inputs.bianchi_operator(np.random.default_rng([0, 1])))
        self.c.frame_search(warm, restarts=1, seed=0, tol=self.TOL)

    def op(self, i):
        matrix = inputs.bianchi_operator(self.rng)
        result = self.c.frame_search(
            self.c.CurvatureOperator(matrix), restarts=32, seed=0, tol=self.TOL
        )
        require(result.conclusive, f"search {i} inconclusive at {result.residual:.3e}")
        q = np.asarray(result.frame.matrix)
        require(np.max(np.abs(q.T @ q - np.eye(4))) <= 1e-9, "returned frame is not orthonormal")
        require(abs(np.linalg.det(q) - 1.0) <= 1e-9, "returned frame does not have det +1")
        scale = _scale(matrix)
        residual = inputs.distinct_residual(matrix, q)
        require(
            residual <= self.TOL * scale * scale,
            f"recomputed distinct-index residual {residual:.3e} misses the bound",
        )
        require(
            abs(residual - result.residual) <= 1e-12 * scale * scale,
            "recomputed residual disagrees with the reported one",
        )


# ---------------------------------------------------------------------------
# kaehler-certify


class KaehlerCertify:
    """Kaehler pairs through the library calls behind ``decompose``,
    ``kahler-check`` and ``theorem ricci-flat``; self-dual pairs also through
    the scalar-sign relations and the self-dual classification."""

    name = "kaehler-certify"
    min_ops = 1
    # Three of five pairs are not self-dual, so the per-pair median sits
    # inside one cost class instead of on the edge between two.
    CYCLE = ("const-hol-sec", "surface-product", "conformally-flat-product", "mixture", "mixture")

    def __init__(self, curv4, seed):
        self.c = curv4
        self.rng = np.random.default_rng([seed, 2])

    def setup(self):
        rng = np.random.default_rng([0, 2])
        for kind in inputs.KAEHLER_KINDS:
            self._certify(inputs.kaehler_pair(rng, kind))

    def op(self, i):
        self._certify(inputs.kaehler_pair(self.rng, self.CYCLE[i % len(self.CYCLE)]))

    def _certify(self, pair):
        c = self.c
        m = pair["matrix"]
        scale = _scale(m)
        kind = pair["kind"]
        self_dual = pair["verdict"] is not None
        # the input itself: Kaehler for its structure (R J = R), Bianchi
        jext = inputs.induced(pair["J"])
        require(np.max(np.abs(m @ jext - m)) <= 1e-12 * scale, "input is not Kaehler")

        op = c.CurvatureOperator(m)
        structure = c.ComplexStructure(pair["J"])
        dec = c.decompose(op)
        defect = c.bianchi_defect(op)
        total = sum(part.matrix for part in dec.parts())
        require(np.max(np.abs(total - op.matrix)) <= 1e-12 * scale, f"{kind}: parts do not re-sum")
        require(abs(defect) <= 1e-12 * scale, f"{kind}: Bianchi defect {defect:.3e}")
        require(abs(dec.r - 2.0 * np.trace(m)) <= 1e-12 * scale, f"{kind}: scalar curvature")
        wminus = dec.weyl_minus.norm()
        require(
            (wminus <= 1e-9 * scale) if self_dual else (wminus > 1e-6 * scale),
            f"{kind}: anti-self-dual Weyl norm {wminus:.3e}",
        )

        lines = c.kaehler_residuals(op, structure, c.FrameRotation.identity())
        require(float(np.max(np.abs(lines))) <= 1e-9 * scale, f"{kind}: Kaehler lines do not vanish")

        coeffs = pair["coeffs"]
        cert = c.ricciflat_nullspace(coeffs)
        control = c.ricciflat_nullspace(coeffs, include_distinct_index=False)
        expected = (4, 6) if pair["degenerate"] else (3, 5)
        require(
            (cert.dimension, control.dimension) == expected,
            f"{kind}: Ricci-flat dimensions {(cert.dimension, control.dimension)} != {expected}",
        )

        if self_dual:
            frame = pair["special_frame"]
            require(inputs.distinct_residual(m, frame) <= 1e-24 * scale * scale, "special frame")
            q = c.FrameRotation(frame)
            sign = c.scalar_sign_check(op, structure, q)
            r = 2.0 * float(np.trace(m))
            expected_sign = 0 if abs(r) <= 1e-9 * scale else (1 if r > 0 else -1)
            require(sign.ok and sign.common_sign == expected_sign, f"{kind}: scalar-sign relations")
            report = c.selfdual_classify(op, structure, q)
            require(
                report.verdict == pair["verdict"],
                f"{kind}: verdict {report.verdict} != {pair['verdict']}",
            )


# ---------------------------------------------------------------------------
# metric-field


class MetricField:
    """Seeded diagonal metrics, half products of conformal surfaces with
    J = (1, 0, 0), half generic, evaluated at seeded in-domain points."""

    name = "metric-field"
    min_ops = 1
    POINTS = 4096

    def __init__(self, curv4, seed):
        self.c = curv4
        rng = np.random.default_rng([seed, 3])
        self.docs = inputs.metric_docs(rng)
        self.points = inputs.metric_points(rng, self.POINTS)
        self.metrics = None

    def setup(self):
        self.metrics = [self.c.metric_from_dict(doc) for doc in self.docs]
        for k in range(len(self.metrics)):
            self._evaluate(k, self.points[k])

    def op(self, i):
        k = i % len(self.metrics)
        self._evaluate(k, self.points[(i // len(self.metrics)) % self.POINTS])

    def _evaluate(self, k, point):
        c = self.c
        metric, j_field = self.metrics[k]
        point = tuple(float(v) for v in point)
        primary = c.curvature_at(metric, point).matrix
        oracle = c.christoffel_oracle(metric, point).matrix
        product = c.unitary_product_check(metric, point)
        scale = max(1.0, float(np.max(np.abs(primary))))
        require(np.max(np.abs(primary - oracle)) <= 1e-8 * scale, f"metric {k}: oracle disagrees")
        for m in (primary, oracle):
            require(abs(0.5 * float(np.sum(m * inputs.HODGE))) <= 1e-9 * scale, f"metric {k}: Bianchi")
            for ijkl in ((1, 2, 3, 4), (1, 3, 2, 4), (1, 4, 2, 3)):
                require(
                    abs(inputs.component(m, *ijkl)) <= 1e-9 * scale,
                    f"metric {k}: distinct-index component R{ijkl}",
                )
        if j_field is not None:
            residuals = c.nabla_J_residuals(metric, j_field, point)
            require(float(np.max(np.abs(residuals))) <= 1e-9, f"metric {k}: nabla J")
            require(product.is_product, f"metric {k}: product not recognized")
        else:
            require(not product.is_product, f"metric {k}: generic metric reported as product")


IN_PROCESS = {w.name: w for w in (FrameSearch, KaehlerCertify, MetricField)}
