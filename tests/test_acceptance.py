"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 09 certifies the dimension of the Ricci-flat Kaehler constraint
space (first Bianchi identity + the twelve structure conditions + Ricci
flatness + vanishing distinct-index components) rather than demanding that
it vanish.  The space is 3-dimensional for every unit coefficient triple
except the coordinate axes +-e_k, where it is 4-dimensional; dropping the
distinct-index rows adds exactly two more dimensions.  Each dimension is
proved twice: by the SVD rank in ``ricciflat_nullspace`` and by an exact
Fraction rank at rational unit triples, where the surviving family is
identified explicitly.  Dimension 0 is unattainable: operators supported
on the anti-self-dual block with zero diagonal there satisfy every
constraint family exactly.  Structurally, the anti-self-dual Weyl block of
such an operator is a traceless symmetric 3x3 matrix, every traceless
symmetric matrix is orthogonally conjugate to one with zero diagonal
(Schur-Horn), and the distinct-index conditions only see that diagonal.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    SAMPLE_DIR,
    random_bianchi,
    random_kahler_pair,
    random_rotation,
    random_symmetric6,
)
from curv4 import (
    ADAPTED_IDENTITY,
    ComplexStructure,
    CurvatureOperator,
    DiagonalMetric,
    FrameRotation,
    adapted_form,
    bianchi_defect,
    build_const_hol_sec,
    build_surface_product,
    c_system_solve,
    christoffel_oracle,
    coeffs_in_frame,
    conjugate,
    cp2_example_frame,
    curvature_at,
    decompose,
    distinct_index_residual,
    exact_determinant,
    exact_nullspace,
    extend_to_bivectors,
    frame_search,
    from_unitary_frame,
    kaehler_residuals,
    metric_from_dict,
    ricci,
    ricciflat_nullspace,
    s_map,
    scalar_curvature,
    scalar_from_kaehler,
    structure_from_coeffs,
    unitary_product_check,
    weyl_block,
)
from curv4.obstructions import RELATION_ROWS, REDUCED_SKEW_ROWS
from test_cli import COMMAND_TABLE, resolve
from test_metrics import random_metric, random_point
from test_obstructions import offdiagonal_asd_operator
from test_operators import (
    displayed_cross_block,
    displayed_cross_block_ricci_form,
    displayed_minus_block,
    displayed_plus_block,
)

S3 = 1.0 / np.sqrt(3.0)


def _report(number, name):
    print(f"criterion {number:02d} ({name}): PASS")


def test_criterion_01_decomposition_suite():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    for _ in range(1000):
        op = random_symmetric6(rng)
        dec = decompose(op)
        parts = dec.parts()
        total = sum(p.matrix for p in parts)
        assert np.linalg.norm(total - op.matrix) <= 1e-10
        for i, p in enumerate(parts):
            for q in parts[i + 1:]:
                assert abs(np.sum(p.matrix * q.matrix)) <= 1e-10 * max(1.0, p.norm() * q.norm())
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"decomposition suite took {elapsed:.2f}s"
    _report(1, "decomposition suite")


def test_criterion_02_s_map_suite():
    rng = np.random.default_rng(2)
    identity_frame = FrameRotation.identity()
    for _ in range(200):
        t = rng.standard_normal((4, 4))
        t = 0.5 * (t + t.T)
        assert np.max(np.abs(ricci(s_map(t)) - t)) <= 1e-10
        t0 = t - (np.trace(t) / 4.0) * np.eye(4)
        ad = adapted_form(s_map(t0), identity_frame)
        assert np.max(np.abs(ad[:3, :3])) <= 1e-10
        assert np.max(np.abs(ad[3:, 3:])) <= 1e-10
    _report(2, "s/rho suite")


def test_criterion_03_block_formula_fidelity():
    rng = np.random.default_rng(3)
    for _ in range(200):
        op = random_bianchi(rng)
        q = random_rotation(rng)
        rc = conjugate(op, q)
        c = rc.component
        plus = weyl_block(op, +1, q)
        minus = weyl_block(op, -1, q)
        cross = adapted_form(op, q)[:3, 3:]
        assert np.max(np.abs(plus - displayed_plus_block(c))) <= 1e-10
        assert np.max(np.abs(minus - displayed_minus_block(c))) <= 1e-10
        assert np.max(np.abs(cross - displayed_cross_block(c))) <= 1e-10
        assert np.max(
            np.abs(cross - displayed_cross_block_ricci_form(c, ricci(rc)))
        ) <= 1e-10
        # spot entries named explicitly
        assert plus[0, 0] == pytest.approx(
            0.5 * (c(1, 2, 1, 2) + c(3, 4, 3, 4) + 2 * c(1, 2, 3, 4)), abs=1e-10
        )
        assert cross[0, 0] == pytest.approx(
            0.5 * (c(1, 2, 1, 2) - c(3, 4, 3, 4)), abs=1e-10
        )
    _report(3, "block-formula fidelity")


def test_criterion_04_metric_oracle_equivalence():
    rng = np.random.default_rng(4)
    start = time.perf_counter()
    for _ in range(50):
        metric = random_metric(rng)
        for _ in range(5):
            p = random_point(rng)
            primary = curvature_at(metric, p)
            oracle = christoffel_oracle(metric, p)
            scale = max(1.0, float(np.max(np.abs(primary.matrix))))
            assert np.max(np.abs(primary.matrix - oracle.matrix)) <= 1e-8 * scale
            for comp in ((1, 2, 3, 4), (1, 3, 2, 4), (1, 4, 2, 3)):
                assert abs(primary.component(*comp)) <= 1e-10
                assert abs(oracle.component(*comp)) <= 1e-10
            assert abs(bianchi_defect(primary)) <= 1e-10
            assert abs(bianchi_defect(oracle)) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"metric oracle suite took {elapsed:.2f}s"
    _report(4, "metric oracle equivalence")


def test_criterion_05_cp2_certificate():
    op = build_const_hol_sec(1.0)
    frame = cp2_example_frame()
    assert distinct_index_residual(op, frame) <= 1e-18
    coeffs = coeffs_in_frame(from_unitary_frame(), frame)
    assert np.max(np.abs(coeffs - S3)) <= 1e-12
    _report(5, "cp2 certificate")


def test_criterion_06_frame_search_recovery():
    start = time.perf_counter()
    result = frame_search(build_const_hol_sec(1.0), restarts=32, seed=0)
    elapsed = time.perf_counter() - start
    assert result.residual <= 1e-12
    coeffs = coeffs_in_frame(from_unitary_frame(), result.frame)
    squares = sorted(v * v for v in coeffs)
    assert np.max(np.abs(np.array(squares) - 1.0 / 3.0)) <= 1e-6
    assert elapsed < 10.0, f"frame search took {elapsed:.2f}s"
    _report(6, "frame-search recovery")


def test_criterion_07_kaehler_identity_suite():
    rng = np.random.default_rng(7)
    structure = from_unitary_frame()
    chs = build_const_hol_sec(1.0)
    prod, _ = build_surface_product(1.0, -1.0)
    for _ in range(100):
        q = random_rotation(rng)
        for op in (chs, prod):
            lines = kaehler_residuals(op, structure, q)
            assert np.max(np.abs(lines)) <= 1e-9
            candidates = scalar_from_kaehler(op, structure, q)
            r = scalar_curvature(op)
            for value in candidates:
                assert abs(value - r) <= 1e-8
    _report(7, "kaehler identity suite")


def test_criterion_08_scalar_flat_implication():
    rng = np.random.default_rng(8)
    antecedent_hits = 0
    for k in range(120):
        if k % 3 == 0:
            kk = rng.uniform(0.3, 1.5)
            base, _ = build_surface_product(kk, -kk)
            op = conjugate(base, random_rotation(rng))
        else:
            op, _ = random_kahler_pair(rng)
        dec = decompose(op)
        if dec.weyl_plus.norm() <= 1e-10:
            antecedent_hits += 1
            assert abs(dec.r) <= 1e-7
    assert antecedent_hits >= 30, "implication would be vacuous"
    _report(8, "scalar-flat implication")


# Coordinates of a symmetric operator in ricciflat_nullspace: one per
# upper-triangular slot of the 6x6 matrix.
_SYM_SLOTS = tuple((a, b) for a in range(6) for b in range(a, 6))
_AXIS_TRIPLES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
_DISTINCT_INDEX = ((1, 2, 3, 4), (1, 3, 2, 4), (1, 4, 2, 3))
_RATIONAL_TRIPLES = (
    (Fraction(1), Fraction(0), Fraction(0)),
    (Fraction(3, 5), Fraction(4, 5), Fraction(0)),
    (Fraction(2, 3), Fraction(2, 3), Fraction(1, 3)),
    (Fraction(2, 7), Fraction(3, 7), Fraction(6, 7)),
)


def _slot_operator(a, b):
    e = np.zeros((6, 6))
    e[a, b] = e[b, a] = 1.0
    return CurvatureOperator(e)


def _exact_entry(x):
    # on the symmetric basis operators every constraint entry is a small
    # integer, so its float value converts to Fraction without rounding
    assert x in (0, 1, -1, 2, -2), x
    return Fraction(x)


def _columns_to_rows(columns):
    return [list(row) for row in zip(*columns)]


def _exact_ricciflat_rows(triple, include_distinct_index=True):
    """The constraint matrix of ``ricciflat_nullspace`` in Fraction
    arithmetic at a rational unit triple.

    The twelve lines are linear in (a12, a13, a14), so their rows are the
    triple times the lines of the three coordinate-axis structures in the
    identity frame; no float ever meets an irrational coefficient.
    """
    identity = FrameRotation.identity()
    axes = [
        ComplexStructure(structure_from_coeffs(e))
        for e in _AXIS_TRIPLES
    ]
    columns = []
    for a, b in _SYM_SLOTS:
        op = _slot_operator(a, b)
        axis_lines = [kaehler_residuals(op, s, identity) for s in axes]
        rho = ricci(op)
        column = [_exact_entry(bianchi_defect(op))]
        column += [
            sum(t * _exact_entry(lines[i]) for t, lines in zip(triple, axis_lines))
            for i in range(12)
        ]
        column += [_exact_entry(rho[i, j]) for i in range(4) for j in range(i, 4)]
        if include_distinct_index:
            column += [_exact_entry(op.component(*idx)) for idx in _DISTINCT_INDEX]
        columns.append(column)
    return _columns_to_rows(columns)


def _exact_operator_condition_rows(jext):
    """Rows of RJ - R = 0 and JR - R = 0 on the symmetric basis."""
    columns = []
    for a, b in _SYM_SLOTS:
        m = _slot_operator(a, b).matrix
        defects = np.concatenate([(m @ jext - m).ravel(), (jext @ m - m).ravel()])
        columns.append([_exact_entry(x) for x in defects])
    return _columns_to_rows(columns)


def _exact_slots(op):
    """Exact slot coordinates of 2R for an operator with half-integer entries."""
    doubled = 2.0 * op.matrix
    ints = np.rint(doubled)
    assert np.max(np.abs(doubled - ints)) <= 1e-12
    return [Fraction(int(ints[a, b])) for a, b in _SYM_SLOTS]


def _annihilates(rows, vec):
    return all(sum(r * v for r, v in zip(row, vec)) == 0 for row in rows)


def _independent(vectors):
    return exact_nullspace(_columns_to_rows(vectors), len(vectors)) == []


def test_criterion_09_ricci_flat_theorem():
    # The pointwise Ricci-flat Kaehler constraint space has dimension 3 at
    # every unit triple off the coordinate axes and 4 at +-e_k, never 0 (see
    # the module docstring).  PAPER.md does not say which further conditions
    # the paper's algebraic argument adds, so this system alone does not force
    # R = 0.  Dimensions are checked by the SVD rank, then certified by an
    # exact Fraction rank that does not depend on the rank cut; the control
    # without the distinct-index rows must be larger by exactly 2.
    rng = np.random.default_rng(9)
    start = time.perf_counter()
    dims = {
        (1.0, 0.0, 0.0): ricciflat_nullspace((1.0, 0.0, 0.0)).dimension,
        (S3, S3, S3): ricciflat_nullspace((S3, S3, S3)).dimension,
    }
    for _ in range(100):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        dims[tuple(v)] = ricciflat_nullspace(tuple(v)).dimension
    control = ricciflat_nullspace((1.0, 0.0, 0.0), include_distinct_index=False)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"nullspace suite took {elapsed:.2f}s"
    assert len(dims) == 102
    assert dims == {v: 4 if v == (1.0, 0.0, 0.0) else 3 for v in dims}
    assert control.dimension == 6
    for v, dim in dims.items():
        assert ricciflat_nullspace(v, include_distinct_index=False).dimension == dim + 2

    # The explanation: the off-diagonal anti-self-dual operators, independent
    # and in every certified nullspace, so they span it wherever it is
    # 3-dimensional; on an axis one self-dual Weyl direction joins them.
    asd_family = [_exact_slots(offdiagonal_asd_operator(*w)) for w in _AXIS_TRIPLES]
    assert _independent(asd_family)
    w = np.zeros((6, 6))
    w[1, 2] = w[2, 1] = 1.0
    sd_weyl = CurvatureOperator(ADAPTED_IDENTITY @ w @ ADAPTED_IDENTITY.T)
    sd_weyl_slots = _exact_slots(sd_weyl)
    for triple, expected in zip(_RATIONAL_TRIPLES, (4, 3, 3, 3)):
        floats = tuple(float(t) for t in triple)
        rows = _exact_ricciflat_rows(triple)
        exact = exact_nullspace(rows, len(_SYM_SLOTS))
        control_rows = _exact_ricciflat_rows(triple, include_distinct_index=False)
        exact_control = exact_nullspace(control_rows, len(_SYM_SLOTS))
        assert len(exact) == expected, (floats, len(exact))
        assert ricciflat_nullspace(floats).dimension == expected
        assert len(exact_control) == expected + 2
        assert (
            ricciflat_nullspace(floats, include_distinct_index=False).dimension
            == expected + 2
        )
        assert all(_annihilates(rows, vec) for vec in asd_family)
        assert _annihilates(rows, sd_weyl_slots) == (expected == 4)

    # At (1,0,0) the fourth direction is sd_weyl: it fails RJ = R, and the
    # part of the nullspace satisfying RJ = JR = R is the family alone.
    jext = extend_to_bivectors(
        ComplexStructure(structure_from_coeffs((1.0, 0.0, 0.0)))
    )
    assert np.linalg.norm(sd_weyl.matrix @ jext - sd_weyl.matrix) > 1.0
    assert _independent(asd_family + [sd_weyl_slots])
    kaehler_rows = _exact_ricciflat_rows(_RATIONAL_TRIPLES[0])
    kaehler_rows += _exact_operator_condition_rows(jext)
    assert len(exact_nullspace(kaehler_rows, len(_SYM_SLOTS))) == 3
    assert all(_annihilates(kaehler_rows, vec) for vec in asd_family)
    _report(9, "ricci-flat theorem")


def test_criterion_10_c_system_ledger():
    assert exact_determinant(RELATION_ROWS) == -9
    assert exact_nullspace(REDUCED_SKEW_ROWS, 3) == [(1, 1, 1)]
    cases = c_system_solve()
    assert len(cases) == 16
    full = next(c for c in cases if all(c.relation_active))
    assert full.nullspace == ()
    for case in cases:
        for vec in case.nullspace:
            for row in case.rows:
                assert sum(r * v for r, v in zip(row, vec)) == 0
    _report(10, "c-system ledger")


def test_criterion_11_unitary_product_check():
    with open(SAMPLE_DIR / "product_metric.json", encoding="utf-8") as handle:
        metric, _ = metric_from_dict(json.load(handle))
    report = unitary_product_check(metric, (0.1, 0.2, -0.1, 0.05))
    assert report.is_product
    assert max(abs(v) for v in report.residuals.values()) == 0.0

    counterexample = DiagonalMetric("exp(x3)", "1", "1", "1")
    bad = unitary_product_check(counterexample, (0.0, 0.0, 0.0, 0.0))
    assert not bad.is_product
    assert "e3(a1)" in bad.failed
    _report(11, "unitary-product check")


def test_criterion_12_cli_contract(capsys):
    from curv4.cli import main

    for args, expected in COMMAND_TABLE:
        code = main(resolve(args))
        capsys.readouterr()
        assert code == expected, f"{args} exited {code}, expected {expected}"
    json_args = resolve(
        ["frame-search", "--input", "const_hol_sec.json", "--format", "json", "--seed", "0"]
    )
    main(json_args)
    first = capsys.readouterr().out
    main(json_args)
    second = capsys.readouterr().out
    assert first == second, "json output must be byte-identical for a fixed seed"
    with capsys.disabled():
        _report(12, "cli contract")
