import contextlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    KAEHLER_FAMILY_DIMENSIONS,
    REPO_ROOT,
    SAMPLE_DIR,
    SYMMETRIC_BASIS,
    kaehler_family_members,
    star_perturbed_const_hol_sec,
)
import curv4
from curv4 import (
    MetricDomainError,
    extend_to_bivectors,
    from_unitary_frame,
    metric_from_dict,
    nabla_J_residuals,
    ricciflat_nullspace,
)
from curv4.bivectors import DEFAULT_TOLERANCE
from curv4.cli import _build_parser, emit_report, main
from curv4.obstructions import _constraint_blocks

# Every documented invocation with its contracted exit code; the acceptance
# suite replays this table.
COMMAND_TABLE = [
    (["decompose", "--input", "const_hol_sec.json"], 0),
    (["decompose", "--input", "surface_product.json", "--format", "json"], 0),
    (["kahler-check", "--input", "const_hol_sec.json"], 0),
    (
        [
            "kahler-check",
            "--input",
            "const_hol_sec.json",
            "--frame",
            "cp2_frame.json",
        ],
        0,
    ),
    (["metric-curvature", "--input", "flat_metric.json"], 0),
    (
        [
            "metric-curvature",
            "--input",
            "conformal_sphere_metric.json",
            "--point",
            "0.1,-0.05,0.2,0.15",
        ],
        0,
    ),
    (
        [
            "metric-curvature",
            "--input",
            "product_metric.json",
            "--point",
            "0.1,0.2,-0.1,0.05",
        ],
        0,
    ),
    (
        ["frame-search", "--input", "const_hol_sec.json", "--restarts", "32", "--seed", "0"],
        0,
    ),
    (["theorem", "self-dual", "--input", "const_hol_sec.json"], 0),
    (["theorem", "self-dual", "--input", "surface_product.json"], 0),
    (["theorem", "ricci-flat", "--coeffs", "1,0,0"], 1),
    (
        [
            "theorem",
            "unitary-product",
            "--input",
            "product_metric.json",
            "--point",
            "0.1,0.2,-0.1,0.05",
        ],
        0,
    ),
    (["theorem", "unitary-product", "--input", "counterexample_metric.json"], 1),
    (["kahler-check", "--input", "builder_const_hol_sec.json"], 0),
    (["metric-curvature", "--input", "bad_syntax_metric.json"], 2),
]


def resolve(args):
    out = []
    follows_path_flag = False
    for a in args:
        if follows_path_flag:
            out.append(str(SAMPLE_DIR / a))
            follows_path_flag = False
        else:
            out.append(a)
            follows_path_flag = a in ("--input", "--frame")
    return out


@pytest.mark.parametrize("args, expected", COMMAND_TABLE)
def test_documented_exit_codes(args, expected):
    assert main(resolve(args)) == expected


def test_unknown_command_exits_2(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_missing_file_exits_2(capsys):
    assert main(["decompose", "--input", "does_not_exist.json"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_malformed_json_position_annotated(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"matrix": [[1, 2,]]}')
    assert main(["decompose", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_metric_parse_error_position(capsys):
    code = main(resolve(["metric-curvature", "--input", "bad_syntax_metric.json"]))
    assert code == 2
    err = capsys.readouterr().err
    assert "column 7" in err


def test_bad_point_exits_2(capsys):
    code = main(
        resolve(["metric-curvature", "--input", "flat_metric.json", "--point", "1,2"])
    )
    assert code == 2
    capsys.readouterr()


def test_non_unit_coeffs_exit_2(capsys):
    assert main(["theorem", "ricci-flat", "--coeffs", "1,1,1"]) == 2
    capsys.readouterr()
    # the flag and the library share one unit rule: 1e-9 on the sum of squares
    inside = (math.sqrt(1.0 + 5e-10), 0.0, 0.0)
    outside = (math.sqrt(1.0 + 2e-9), 0.0, 0.0)
    assert main(["theorem", "ricci-flat", "--coeffs", ",".join(map(repr, inside))]) == 1
    assert capsys.readouterr().err == ""
    assert ricciflat_nullspace(inside).dimension == 4
    assert main(["theorem", "ricci-flat", "--coeffs", ",".join(map(repr, outside))]) == 2
    assert capsys.readouterr() == ("", "error: --coeffs must be a unit triple\n")
    with pytest.raises(ValueError, match="unit"):
        ricciflat_nullspace(outside)


@pytest.mark.parametrize(
    "a12, accepted",
    [("1.0000000002", True), ("1.000000001", False)],
    ids=["squares-1+4e-10", "squares-1+2e-9"],
)
def test_j_field_and_coeffs_share_the_unit_rule(a12, accepted, tmp_path, capsys):
    # a J_field over the flat metric, the same triple through --coeffs, and
    # the library route all apply the 1e-9 band on the sum of squares
    doc = {"a1": "1", "a2": "1", "a3": "1", "a4": "1", "J_field": {"a12": a12, "a13": "0", "a14": "0"}}
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(doc))
    metric, j_field = metric_from_dict(doc)
    origin = (0.0, 0.0, 0.0, 0.0)
    refusal = f"structure coefficients must have unit norm at {origin}; got [{a12}, 0.0, 0.0]"
    code = main(["metric-curvature", "--input", str(path)])
    err = capsys.readouterr().err
    coeffs_code = main(["theorem", "ricci-flat", "--coeffs", f"{a12},0,0"])
    coeffs_err = capsys.readouterr().err
    if accepted:
        np.testing.assert_array_equal(nabla_J_residuals(metric, j_field, origin), np.zeros(12))
        assert (code, err) == (0, "")
        assert (coeffs_code, coeffs_err) == (1, "")  # dimension 4 on the axis
    else:
        with pytest.raises(MetricDomainError) as refused:
            nabla_J_residuals(metric, j_field, origin)
        assert str(refused.value) == refusal
        assert (code, err) == (2, f"error: {refusal}\n")
        assert (coeffs_code, coeffs_err) == (2, "error: --coeffs must be a unit triple\n")


def test_one_default_tolerance():
    # every public check with a tolerance defaults to the command line's
    checks = {}
    for module in (curv4.kahler, curv4.metrics, curv4.obstructions):
        for name, func in vars(module).items():
            if inspect.isfunction(func) and func.__module__ == module.__name__ and not name.startswith("_"):
                for param in inspect.signature(func).parameters.values():
                    if param.name in ("tol", "tolerance"):
                        checks[name] = param.default
    assert checks == dict.fromkeys(
        [
            "frame_search", "kaehler_block_form", "run_obstruction_suite", "scalar_from_kaehler",
            "scalar_sign_check", "selfdual_classify", "unitary_product_check",
        ],
        DEFAULT_TOLERANCE,
    )
    assert DEFAULT_TOLERANCE == 1e-9
    parser = _build_parser()
    for argv in (
        ["decompose", "--input", "x"],
        ["kahler-check", "--input", "x"],
        ["metric-curvature", "--input", "x"],
        ["frame-search", "--input", "x"],
        ["theorem", "ricci-flat"],
    ):
        assert parser.parse_args(argv).tolerance == DEFAULT_TOLERANCE


def test_unknown_builder_exits_2(tmp_path, capsys):
    doc = tmp_path / "builder.json"
    doc.write_text('{"builder": "no-such-thing", "params": []}')
    assert main(["decompose", "--input", str(doc)]) == 2
    assert "unknown builder" in capsys.readouterr().err


def test_builder_arity_checked(tmp_path, capsys):
    doc = tmp_path / "builder.json"
    doc.write_text('{"builder": "surface-product", "params": [1.0]}')
    assert main(["decompose", "--input", str(doc)]) == 2
    capsys.readouterr()


def test_json_output_deterministic(capsys):
    args = resolve(
        ["frame-search", "--input", "const_hol_sec.json", "--format", "json"]
    )
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_json_output_roundtrips(capsys):
    args = resolve(["theorem", "self-dual", "--input", "const_hol_sec.json", "--format", "json"])
    main(args)
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "special-frame-branch"
    assert payload["tolerance"] == 1e-9
    assert "version" in payload
    # parse-emit idempotence
    assert json.loads(emit_report(payload, "json")) == payload


def test_text_output_contains_verdict(capsys):
    main(resolve(["theorem", "self-dual", "--input", "const_hol_sec.json"]))
    out = capsys.readouterr().out
    assert "verdict: special-frame-branch" in out
    assert "tolerance: 1e-09" in out


def test_decompose_reports_weyl_minus(capsys):
    main(resolve(["decompose", "--input", "const_hol_sec.json", "--format", "json"]))
    payload = json.loads(capsys.readouterr().out)
    assert payload["norms"]["weyl_minus"] <= 1e-9
    assert payload["weyl_minus_within_tolerance"] is True
    assert payload["r"] == pytest.approx(6.0)


def test_metric_curvature_with_j_field(capsys):
    main(
        resolve(
            [
                "metric-curvature",
                "--input",
                "product_metric.json",
                "--point",
                "0.1,0.2,-0.1,0.05",
                "--format",
                "json",
            ]
        )
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"]["nabla_J"] is True
    assert payload["nabla_J_max_residual"] <= 1e-10


def test_ricci_flat_report_contents(capsys):
    main(["theorem", "ricci-flat", "--coeffs", "1,0,0", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["nullspace_dimension"] == 4
    assert payload["control_dimension_without_distinct_index"] > 0
    assert payload["constraints"] == 26


def test_zero_operator_decompose_json(tmp_path, capsys):
    doc = tmp_path / "zero.json"
    doc.write_text(json.dumps({"basis": "lex12-34", "matrix": [[0.0] * 6] * 6}))
    assert main(["decompose", "--input", str(doc), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(v == 0.0 for v in payload["norms"].values())
    assert payload["r"] == 0.0


def test_config_invariants_enforced(capsys):
    bad_tol = resolve(
        ["decompose", "--input", "const_hol_sec.json", "--tolerance", "-1"]
    )
    assert main(bad_tol) == 2
    capsys.readouterr()
    bad_restarts = resolve(
        ["frame-search", "--input", "const_hol_sec.json", "--restarts", "0"]
    )
    assert main(bad_restarts) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "args",
    [
        ["decompose", "--input", "const_hol_sec.json", "--tolerance", "nan"],
        ["decompose", "--input", "const_hol_sec.json", "--tolerance", "inf"],
        ["theorem", "ricci-flat", "--coeffs", "nan,0,0"],
        ["metric-curvature", "--input", "flat_metric.json", "--point", "nan,0,0,0"],
    ],
)
def test_non_finite_flags_exit_2(args, capsys):
    assert main(resolve(args)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def _nan_operator_doc():
    matrix = [[0.0] * 6 for _ in range(6)]
    matrix[0][0] = float("nan")
    return {"basis": "lex12-34", "matrix": matrix}


@pytest.mark.parametrize(
    "command, operator_doc, frame_doc",
    [
        ("decompose", _nan_operator_doc(), None),
        ("kahler-check", _nan_operator_doc(), None),
        ("kahler-check", {"builder": "const-hol-sec", "params": [1.0],
                          "J": [[float("nan")] * 4] * 4}, None),
        ("kahler-check", {"builder": "const-hol-sec", "params": [1.0]},
         {"Q": [[float("nan"), 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}),
    ],
)
def test_non_finite_input_files_exit_2(command, operator_doc, frame_doc, tmp_path, capsys):
    # json writes and reads NaN as a bare token; such entries must not reach
    # the checks, where every comparison with them is false
    op_path = tmp_path / "op.json"
    op_path.write_text(json.dumps(operator_doc))
    args = [command, "--input", str(op_path)]
    if frame_doc is not None:
        frame_path = tmp_path / "frame.json"
        frame_path.write_text(json.dumps(frame_doc))
        args += ["--frame", str(frame_path)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "finite" in captured.err


@pytest.mark.parametrize(
    "command, doc",
    [
        ("decompose", {"components": [1]}),
        ("decompose", {"components": [{"ijkl": [1, 2, 1, 2]}]}),
        ("decompose", {"components": [{"ijkl": [1, 2, 1, 2], "value": [1.0]}]}),
        ("decompose", {"components": 7}),
        ("decompose", {"matrix": {}}),
        ("decompose", {"builder": "const-hol-sec", "params": 5}),
        ("decompose", {"builder": "const-hol-sec", "params": [None]}),
        ("decompose", {"builder": "const-hol-sec", "params": [10**400]}),
        ("decompose", {"builder": ["const-hol-sec"], "params": [1.0]}),
        ("kahler-check", {"builder": "const-hol-sec", "params": [1.0], "J": {}}),
        ("kahler-check", {"builder": "const-hol-sec", "params": [1.0], "frame": [{}]}),
        ("metric-curvature", {"a1": "1", "a2": "1", "a3": "1", "a4": "1", "J_field": 5}),
        (
            "metric-curvature",
            {"a1": "1", "a2": "1", "a3": "1", "a4": "1", "J_field": "a12 a13 a14"},
        ),
    ],
)
def test_malformed_documents_exit_2(command, doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


_UNIT_SCALES = {"a1": "1", "a2": "1", "a3": "1", "a4": "1"}


@pytest.mark.parametrize(
    "doc",
    [
        {**_UNIT_SCALES, "a1": 1},
        {**_UNIT_SCALES, "a1": True},
        {**_UNIT_SCALES, "a1": 1.5e-7},
        {**_UNIT_SCALES, "J_field": {"a12": 1, "a13": "0", "a14": "0"}},
    ],
    ids=["scale-int", "scale-boolean", "scale-float", "j-field-int"],
)
def test_metric_expression_must_be_a_json_string(doc, tmp_path, capsys):
    # an expression is parsed, never converted to text first: str() would
    # make true the identifier True and 1.5e-7 a syntax error, yet pass 1
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(doc))
    assert main(["metric-curvature", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: {path}: column 1: expression must be a string\n"
    )


@pytest.mark.parametrize(
    "args, doc",
    [
        (["metric-curvature"], {"a1": "1/x1", "a2": "1", "a3": "1", "a4": "1"}),
        (["theorem", "unitary-product"], {"a1": "1/x1", "a2": "1", "a3": "1", "a4": "1"}),
        (
            ["metric-curvature", "--point", "2,0,0,0"],
            {"a1": "x1^100000000", "a2": "1", "a3": "1", "a4": "1"},
        ),
        (
            ["metric-curvature"],
            {"a1": "1", "a2": "1", "a3": "1", "a4": "1",
             "J_field": {"a12": "1/x2", "a13": "0", "a14": "0"}},
        ),
        # finite scales whose derivative is infinite at the point
        (["metric-curvature"], {"a1": "1 + sqrt(x2)", "a2": "1", "a3": "1", "a4": "1"}),
    ],
)
def test_metric_undefined_at_point_exits_2(args, doc, tmp_path, capsys):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(doc))
    assert main([*args, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_negative_seed_exits_2(capsys):
    args = resolve(["frame-search", "--input", "const_hol_sec.json", "--seed", "-1"])
    assert main(args) == 2
    assert capsys.readouterr().err == "error: --seed must be nonnegative\n"


@pytest.mark.parametrize(
    "args",
    [
        ["theorem", "self-dual", "--input", "const_hol_sec.json", "--restarts", "32"],
        ["theorem", "ricci-flat", "--coeffs", "1,0,0", "--seed", "0"],
        ["theorem", "unitary-product", "--input", "product_metric.json", "--restarts", "0"],
    ],
)
def test_theorem_takes_no_search_flags(args, capsys):
    # no theorem runs a search, so a search flag is an unknown option
    assert main(resolve(args)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


@pytest.mark.parametrize(
    "doc",
    [
        {"builder": "const-hol-sec", "params": [True]},
        {"builder": "surface-product", "params": [1.0, False]},
        {"components": [{"ijkl": [True, 2, 1, 2], "value": 1.0}]},
        {"components": [{"ijkl": [1.0, 2, 1, 2], "value": 1}]},
        {"components": [{"ijkl": [1, 2, 1, 2], "value": True}]},
        {"builder": "const-hol-sec", "params": ["2"]},
        {"builder": "surface-product", "params": [1.0, "1"]},
        {"components": [{"ijkl": [1, 2, 1, 2], "value": "1"}]},
    ],
    ids=["const-hol-sec-params", "surface-product-params", "component-ijkl",
         "component-ijkl-float", "component-value",
         "const-hol-sec-params-string", "surface-product-params-string", "component-value-string"],
)
def test_json_boolean_is_not_a_number(doc, tmp_path, capsys):
    # float(True) is 1.0 and True == 1, but a JSON boolean is a field of the
    # wrong type, like the string "2" as an index
    path = tmp_path / "operator.json"
    path.write_text(json.dumps(doc))
    assert main(["decompose", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {path}: ")


def _matrix_with(one):
    return {"matrix": [[one] + [0] * 5] + [[0] * 6] * 5}


def _builder_with_j(one):
    return {"builder": "const-hol-sec", "params": [1.0],
            "J": [[0, -1, 0, 0], [one, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]}


def _frame_with(one):
    return {"Q": [[one if i == j else 0 for j in range(4)] for i in range(4)]}


_CONST_HOL_SEC = {"builder": "const-hol-sec", "params": [1.0]}


@pytest.mark.parametrize(
    "command, doc, frame, word",
    [
        (["decompose"], _matrix_with(True), None, "boolean"),
        (["decompose"], _matrix_with("1"), None, "'1'"),
        (["kahler-check"], _builder_with_j(True), None, "boolean"),
        (["kahler-check"], _builder_with_j("1"), None, "'1'"),
        (["kahler-check"], _CONST_HOL_SEC, _frame_with(True), "boolean"),
        (["kahler-check"], _CONST_HOL_SEC, _frame_with("1"), "'1'"),
    ],
    ids=["matrix", "matrix-string", "J", "J-string", "Q", "Q-string"],
)
def test_json_boolean_in_a_matrix_exits_2(command, doc, frame, word, tmp_path, capsys):
    # numpy reads true and "1" as 1.0, so each document is otherwise valid
    path = tmp_path / "operator.json"
    path.write_text(json.dumps(doc))
    argv = [*command, "--input", str(path)]
    if frame is not None:
        frame_path = tmp_path / "frame.json"
        frame_path.write_text(json.dumps(frame))
        argv += ["--frame", str(frame_path)]
        path = frame_path
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and word in captured.err


def _axis_line_operator():
    """A symmetric operator satisfying the Bianchi identity and the twelve
    lines of the structure with coefficients (1, 0, 0) in the identity
    frame, but not RJ = R: on this axis the lines are weaker than RJ = JR = R
    (12 dimensions against 9).  Scaled to largest entry 1."""
    bianchi, axis_lines, _, _ = _constraint_blocks()
    _, sv, vt = np.linalg.svd(np.vstack([bianchi, axis_lines[0]]))
    members = np.tensordot(vt[int(np.sum(sv > 1e-10 * sv[0])):], SYMMETRIC_BASIS, axes=1)
    assert len(members) == 12
    jext = extend_to_bivectors(from_unitary_frame())
    m = max(members, key=lambda m: np.linalg.norm(m @ jext - m))
    return m / np.max(np.abs(m))


def test_kahler_check_fails_an_operator_only_the_lines_accept(tmp_path, capsys):
    path = tmp_path / "operator.json"
    path.write_text(json.dumps({"matrix": _axis_line_operator().tolist()}))
    assert main(["kahler-check", "--input", str(path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_residual"] <= 1e-12 and payload["operator_defect"] > 0.5
    assert payload["passed"] is False
    # the theorem pipeline reads the same predicate
    assert main(["theorem", "self-dual", "--input", str(path)]) == 1
    assert "notes: [\"operator is not Kaehler" in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "command, field, value, line",
    [
        (["theorem", "self-dual"], "verdict", "inconclusive", "verdict: inconclusive"),
        (["frame-search"], "conclusive", False, "conclusive: false"),
    ],
)
def test_star_perturbed_kaehler_operator_is_inconclusive(
    command, field, value, line, fmt, tmp_path, capsys
):
    # the frame step and the sign check judge the frame by one rule, so the
    # pipeline stops at the frame instead of failing one step later
    path = tmp_path / "operator.json"
    # Bianchi defect 5e-7: every frame keeps a root residual near 2.9e-7
    path.write_text(json.dumps({"matrix": star_perturbed_const_hol_sec(1e-6).tolist()}))
    assert main([*command, "--input", str(path), "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    if fmt == "json":
        assert json.loads(captured.out)[field] == value
    else:
        assert line in captured.out.splitlines()


@pytest.mark.parametrize("kind", sorted(KAEHLER_FAMILY_DIMENSIONS))
def test_kahler_check_passes_every_kaehler_family_member(kind, tmp_path, capsys):
    # members of the exact Kaehler families, as given and in random frames
    # with the structure carried along
    path = tmp_path / "operator.json"
    for m, j in kaehler_family_members(kind, np.random.default_rng(16), 20):
        path.write_text(json.dumps({"matrix": m.tolist(), "J": j.tolist()}))
        assert main(["kahler-check", "--input", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True and payload["operator_defect"] <= 1e-12


@pytest.mark.parametrize(
    "args, flag, value",
    [
        (["theorem", "ricci-flat"], "--coeffs", "-0.6,0,0.8"),
        (["theorem", "ricci-flat"], "--coeffs", "-.6,0,.8"),
        (["metric-curvature", "--input", "flat_metric.json"], "--point", "-0.1,0,0,0"),
        (
            ["theorem", "unitary-product", "--input", "product_metric.json"],
            "--point",
            "-0.1,0.2,-0.1,0.05",
        ),
    ],
)
def test_leading_negative_flag_value_parses(args, flag, value, capsys):
    # "--flag -0.6,..." is read as the value, the same as "--flag=-0.6,..."
    code = main(resolve([*args, flag, value]))
    separate = capsys.readouterr()
    assert code == main(resolve([*args, f"{flag}={value}"]))
    assert separate == capsys.readouterr()
    assert code in (0, 1) and separate.err == ""
    assert "[-0." in separate.out


# --- CLI fuzz: random and malformed documents ------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_NUMBER = st.integers(-3, 3) | st.floats(-3.0, 3.0)


def _spoiled(docs):
    """Well-formed documents, the same with one field replaced by random JSON,
    and random JSON itself."""
    def spoil(args):
        doc, junk, pick = args
        return {**doc, sorted(doc)[pick % len(doc)]: junk}

    return docs | st.tuples(docs, _JSON, st.integers(0, 9)).map(spoil) | _JSON


def _symmetric_rows(upper):
    rows = [[0.0] * 6 for _ in range(6)]
    values = iter(upper)
    for a in range(6):
        for b in range(a, 6):
            rows[a][b] = rows[b][a] = next(values)
    return rows


_EYE = [[float(i == j) for j in range(4)] for i in range(4)]
_STANDARD_J = [[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
               [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0]]
_CP2 = [
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 3**-0.5, 3**-0.5, 3**-0.5],
    [0.0, 2**-0.5, -(2**-0.5), 0.0],
    [0.0, 6**-0.5, 6**-0.5, -((2 / 3) ** 0.5)],
]


def _moved(rows, i, j, eps):
    """rows with eps added to entry (i, j)."""
    moved = [list(row) for row in rows]
    moved[i][j] += eps
    return moved


# rotations, a reflection, a non-orthogonal matrix, and rotations of
# orthogonality defect 4e-10 and 1e-11 that the Kaehler checks once crashed on
_MATRIX4 = st.sampled_from([_EYE, _CP2, [_EYE[1], _EYE[0], *_EYE[2:]], [[2.0] * 4] * 4,
                            _moved(_CP2, 0, 1, 4e-10), _moved(_CP2, 0, 1, 1e-11)])
# J, J scaled by 1 + 4e-10, e1^e2 (half self-dual, half anti-self-dual), Id and 0
_OPERATOR_EXTRAS = {
    "J": st.sampled_from([_STANDARD_J, [[(1 + 4e-10) * v for v in row] for row in _STANDARD_J],
                          [_STANDARD_J[0], _STANDARD_J[1], [0.0] * 4, [0.0] * 4],
                          _EYE, [[0.0] * 4] * 4]),
    "frame": _MATRIX4,
}
_OPERATOR_DOC = _spoiled(st.one_of(
    st.fixed_dictionaries(
        {"matrix": st.lists(_NUMBER, min_size=21, max_size=21).map(_symmetric_rows)},
        optional=_OPERATOR_EXTRAS,
    ),
    st.fixed_dictionaries(
        {"components": st.lists(
            st.fixed_dictionaries(
                {"ijkl": st.lists(st.integers(1, 4), min_size=4, max_size=4),
                 "value": _NUMBER}
            ) | _JSON,
            max_size=3,
        )},
        optional=_OPERATOR_EXTRAS,
    ),
    st.fixed_dictionaries(
        {"builder": st.just("const-hol-sec"), "params": st.lists(_NUMBER, min_size=1, max_size=1)}
    ),
    st.fixed_dictionaries(
        {"builder": st.just("surface-product"), "params": st.lists(_NUMBER, min_size=2, max_size=2)},
        optional={"frame": _MATRIX4},
    ),
))
# positive scales; a1 may also vanish or be undefined somewhere, or not parse
_SCALE = st.sampled_from(["1", "2", "exp(x2)", "1+x3^2", "exp(x1*x4)"])
_A1 = _SCALE | st.sampled_from(
    ["x1", "1/x1", "sqrt(x4)", "x1^100000000", "10^400", "sqrt(x1)^3", "0", "1+", "y",
     "1+x2^2/10^5000"]
)
_METRIC_DOC = _spoiled(st.fixed_dictionaries(
    {"a1": _A1, "a2": _SCALE, "a3": _SCALE, "a4": _SCALE},
    optional={"J_field": _spoiled(st.fixed_dictionaries(
        {"a12": st.sampled_from(["1", "x1", "1/x2"]), "a13": st.just("0"), "a14": st.just("0")}
    ))},
))
_POINT = st.sampled_from(
    ["0.5,-0.25,0.1,2", "-0.1,0,0,0", "0,0,0,0", "2,0,0,0", "nan,0,0,0", "1,2", "a,b,c,d"]
)
# frame-search accepts the search flags, which do not change the result;
# 0 restarts exits 2
_SEARCH_FLAGS = st.sampled_from(
    [[], ["--restarts", "1"], ["--restarts", "4", "--seed", "7"], ["--restarts", "0"]]
)
_INVOCATION = st.one_of(
    st.tuples(st.just(["decompose"]), _OPERATOR_DOC, st.none()),
    st.tuples(st.just(["frame-search"]), _OPERATOR_DOC, _SEARCH_FLAGS),
    st.tuples(st.just(["theorem", "self-dual"]), _OPERATOR_DOC, st.none()),
    st.tuples(st.just(["kahler-check"]), _OPERATOR_DOC,
              st.none() | _spoiled(st.fixed_dictionaries({"Q": _MATRIX4}))),
    st.tuples(st.just(["metric-curvature"]), _METRIC_DOC, _POINT),
    st.tuples(st.just(["theorem", "unitary-product"]), _METRIC_DOC, _POINT),
)


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_INVOCATION)
def test_cli_fuzz_documents_end_in_contract_exit_codes(invocation):
    # every document ends in exit 0, 1 or 2 without an escaping exception,
    # an input error prints "error: ..." and no report, and a rerun repeats
    # the output byte for byte
    command, doc, extra = invocation
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))
        argv = [*command, "--input", str(path)]
        if isinstance(extra, str):
            argv += ["--point", extra]
        elif command == ["kahler-check"] and extra is not None:
            frame = Path(tmp) / "frame.json"
            frame.write_text(json.dumps(extra))
            argv += ["--frame", str(frame)]
        elif extra is not None:
            argv += extra  # the search flags
        first = _run_main(argv)
        code, out, err = first
        assert code in (0, 1, 2)
        if code == 2:
            assert out == "" and err.startswith("error: ")
        assert "Traceback" not in err
        assert _run_main(argv) == first


# the Kaehler builders with the near-orthogonal frames of _MATRIX4, a pairing
# the fuzz above never draws: at a looser frame rule these frames passed, and
# kahler-check then crashed on the Kaehler operator
_KAEHLER_BUILDER_DOC = st.one_of(
    st.fixed_dictionaries(
        {"builder": st.just("const-hol-sec"), "params": st.lists(_NUMBER, min_size=1, max_size=1)}
    ),
    st.fixed_dictionaries(
        {"builder": st.just("surface-product"), "params": st.lists(_NUMBER, min_size=2, max_size=2)}
    ),
)
_NEAR_ORTHOGONAL = st.sampled_from([_moved(_CP2, 0, 1, 4e-10), _moved(_CP2, 0, 1, 1e-11)])


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(_KAEHLER_BUILDER_DOC, _NEAR_ORTHOGONAL)
def test_cli_fuzz_kahler_check_on_kaehler_builders_in_near_orthogonal_frames(doc, frame):
    with tempfile.TemporaryDirectory() as tmp:
        path, frame_path = Path(tmp) / "input.json", Path(tmp) / "frame.json"
        path.write_text(json.dumps(doc))
        frame_path.write_text(json.dumps({"Q": frame}))
        code, out, err = _run_main(["kahler-check", "--input", str(path), "--frame", str(frame_path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "matrix is not orthogonal" in err


# --- results that are not finite ------------------------------------------------


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "args, doc",
    [
        # e3(a1) = x4 / (2 sqrt(x3)) is 0/0 at the origin
        (["theorem", "unitary-product"], {"a1": "1+x4*sqrt(x3)", "a2": "1", "a3": "1", "a4": "1"}),
        # the curvature entries are finite (R_1212 = -2e200), their norm is not
        (["metric-curvature"], {"a1": "1+10^200*x2^2", "a2": "1", "a3": "1", "a4": "1"}),
        # e2(a12) = 1 / (2 sqrt(x2)) is infinite at the origin
        (
            ["metric-curvature"],
            {"a1": "1", "a2": "1", "a3": "1", "a4": "1",
             "J_field": {"a12": "1+sqrt(x2)", "a13": "0", "a14": "0"}},
        ),
    ],
)
def test_non_finite_metric_results_exit_2(args, doc, fmt, tmp_path, capsys):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(doc))
    assert main([*args, "--input", str(path), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "not finite" in captured.err


_NOT_REAL = "the scale functions are not real at (-0.5, 0.0, 0.0, 0.0)"


@pytest.mark.parametrize("command", [["metric-curvature"], ["theorem", "unitary-product"]])
@pytest.mark.parametrize(
    "a1, point, message",
    [
        # an integer literal beyond double range fails on conversion to float
        ("10^400", "0.1,0.2,0.3,0.4",
         "the metric is not defined at (0.1, 0.2, 0.3, 0.4): int too large to convert to float"),
        # sympy folds both to x1**(3/2), which Python's ** makes complex for x1 < 0
        ("1+sqrt(x1)^3", "-0.5,0,0,0", _NOT_REAL),
        ("1+x1*sqrt(x1)", "-0.5,0,0,0", _NOT_REAL),
        # Python's float power raises OverflowError(errno, reason); only the
        # reason is printed
        ("x1^100000000", "2,0,0,0",
         "the metric is not defined at (2.0, 0.0, 0.0, 0.0): Numerical result out of range"),
    ],
    ids=["int-beyond-double", "sqrt-cubed", "x1-times-sqrt", "float-power-overflow"],
)
def test_scale_outside_real_doubles_exits_2(command, a1, point, message, tmp_path, capsys):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"a1": a1, "a2": "1", "a3": "1", "a4": "1"}))
    assert main([*command, "--input", str(path), "--point", point]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_b1_scale_with_a_5000_digit_denominator(fmt, tmp_path, capsys):
    # the coefficient 1/10^5000 is beyond str()'s 4300 digits; an oracle that
    # printed it in decimal ended in a traceback, outside the exit-code contract
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"a1": "1+x2^2/10^5000", "a2": "1", "a3": "1", "a4": "1"}))
    code = main(["metric-curvature", "--input", str(path), "--point", "0.1,0.2,0.3,0.4", "--format", fmt])
    captured = capsys.readouterr()
    assert code in (0, 2)
    if code == 2:
        assert captured.out == "" and captured.err.startswith("error: ")
    else:
        assert captured.err == "" and "oracle_agreement" in captured.out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_curvature_norm_overflow_is_named(fmt, tmp_path, capsys):
    # R_1212 = -2e200 is finite; the operator's norm is what overflows
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"a1": "1+10^200*x2^2", "a2": "1", "a3": "1", "a4": "1"}))
    argv = ["metric-curvature", "--input", str(path), "--point", "0,0,0,0", "--format", fmt]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: the curvature operator's norm is not finite at (0.0, 0.0, 0.0, 0.0)\n"
    )


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_overflowing_report_exits_2(fmt, tmp_path, capsys):
    # finite entries whose norm overflows are rejected as input
    rows = [[0.0] * 6 for _ in range(6)]
    rows[0][0] = 1e200
    path = tmp_path / "operator.json"
    path.write_text(json.dumps({"matrix": rows}))
    assert main(["decompose", "--input", str(path), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: curvature operator norm overflows double precision\n"


def _source_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return env


@pytest.mark.parametrize(
    "args, doc",
    [
        (["metric-curvature"], {"a1": "1 + sqrt(x2)", "a2": "1", "a3": "1", "a4": "1"}),
        (["theorem", "unitary-product"], {"a1": "1+x4*sqrt(x3)", "a2": "1", "a3": "1", "a4": "1"}),
        # a complex scale, which a cast to float would drop to its real part
        (["metric-curvature", "--point=-0.5,0,0,0"],
         {"a1": "1+sqrt(x1)^3", "a2": "1", "a3": "1", "a4": "1"}),
    ],
)
def test_error_exit_prints_no_numpy_warning(args, doc, tmp_path):
    # numpy divides by zero on the way to these errors; a fresh interpreter
    # that shows every RuntimeWarning prints only the error line
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-W", "always::RuntimeWarning", "-m", "curv4.cli",
         *args, "--input", str(path)],
        capture_output=True, text=True, env=_source_env(), cwd=REPO_ROOT, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_keeps_the_verdict_code(unbuffered):
    # a reader that stops early, as `| head -c 10` does: the read end is
    # closed before the report is written, so every write fails with EPIPE
    env = _source_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "curv4.cli", "theorem", "ricci-flat", "--coeffs", "1,0,0",
             "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, cwd=REPO_ROOT,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


# --- no command and no library route imports sympy --------------------------------

_METRIC_COMMANDS = (["metric-curvature"], ["theorem", "unitary-product"])
_OPERATOR_ARGV = [
    resolve(args)
    for args, _ in COMMAND_TABLE
    if args[:1] not in _METRIC_COMMANDS and args[:2] not in _METRIC_COMMANDS
]
_IMPORT_PROBE = """
import contextlib, io, json, sys
import curv4
seen = {"import": "sympy" in sys.modules, "metrics": "curv4.metrics" in sys.modules}
extras = ("numpy.f2py", "numpy.testing", "numpy.ma")
seen["extras_at_import"] = [name for name in extras if name in sys.modules]
from curv4.cli import main
seen["import_cli"] = "sympy" in sys.modules
seen["operator"] = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    seen["operator"].append([code, "sympy" in sys.modules])
out = io.StringIO()
with contextlib.redirect_stdout(out):
    seen["metric_code"] = main(json.loads(sys.argv[2]))
seen["metric_out"] = out.getvalue()
seen["metric"] = "sympy" in sys.modules
seen["extras_after_metric"] = [name for name in extras if name in sys.modules]
print(json.dumps(seen))
"""


def test_operator_commands_never_import_sympy():
    # a fresh interpreter, since this one may already hold sympy
    assert len(_OPERATOR_ARGV) == 9
    metric_argv = resolve(
        ["metric-curvature", "--input", "product_metric.json", "--point", "0.1,0.2,-0.1,0.05"]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(_OPERATOR_ARGV), json.dumps(metric_argv)],
        capture_output=True, text=True, env=_source_env(), cwd=REPO_ROOT, timeout=120,
        check=True,
    )
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["import"] is False and seen["import_cli"] is False
    assert seen["metrics"] is True
    expected = [code for args, code in COMMAND_TABLE if resolve(args) in _OPERATOR_ARGV]
    assert seen["operator"] == [[code, False] for code in expected]
    assert seen["metric"] is False
    # the compiled evaluators import only the numpy functions they name, so the
    # metric command loads none of these subpackages (numpy 2 loads none at
    # import either; numpy 1 imports numpy.ma with numpy itself)
    assert seen["extras_after_metric"] == seen["extras_at_import"]
    assert (seen["metric_code"], seen["metric_out"], "") == _run_main(metric_argv)


# every documented command, and every metric route, the oracle included, runs
# on the expression tree alone
_ALL_ARGV = [resolve(args) for args, _ in COMMAND_TABLE]
_ROUTE_PROBE = """
import contextlib, io, json, sys
import curv4
from curv4.cli import main
seen = {"commands": [], "routes": []}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    seen["commands"].append([code, "sympy" in sys.modules])
with open(sys.argv[2], encoding="utf-8") as handle:
    metric, j_field = curv4.metric_from_dict(json.load(handle))
point = (0.1, 0.2, -0.1, 0.05)
for name in (
    "curvature_at", "frame_curvature_raw", "connection_coeffs", "unitary_product_check",
    "christoffel_oracle",
):
    getattr(curv4, name)(metric, point)
    seen["routes"].append([name, "sympy" in sys.modules])
curv4.nabla_J_residuals(metric, j_field, point)
seen["routes"].append(["nabla_J_residuals", "sympy" in sys.modules])
print(json.dumps(seen))
"""


def test_no_command_or_route_imports_sympy():
    # a fresh interpreter: all 15 documented commands, the three metric-curvature
    # ones that run the oracle included, and all six library routes load no sympy
    assert len(_ALL_ARGV) == 15
    proc = subprocess.run(
        [sys.executable, "-c", _ROUTE_PROBE, json.dumps(_ALL_ARGV),
         str(SAMPLE_DIR / "product_metric.json")],
        capture_output=True, text=True, env=_source_env(), cwd=REPO_ROOT, timeout=120,
        check=True,
    )
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["commands"] == [[code, False] for _, code in COMMAND_TABLE]
    assert seen["routes"] == [
        [name, False] for name in (
            "curvature_at", "frame_curvature_raw", "connection_coeffs", "unitary_product_check",
            "christoffel_oracle", "nabla_J_residuals",
        )
    ]


# --- the README's library example runs as printed ---------------------------------


def test_readme_library_example_runs():
    # the public names the documentation uses stay importable and behave as shown
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=_source_env(), cwd=REPO_ROOT, timeout=120,
        check=True,
    )
    lines = proc.stdout.splitlines()
    assert len(lines) == 3 and proc.stderr == ""
    assert lines[1].split()[-1] == "True"
    assert lines[2] == "special-frame-branch"


@pytest.mark.parametrize("eps", [4e-10, 1e-11])
def test_kahler_check_refuses_frames_beyond_the_orthogonality_tolerance(tmp_path, eps):
    # the frame rule once passed these, and the Kaehler checks then crashed
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps({"Q": _moved(_CP2, 0, 1, eps)}))
    argv = resolve(["kahler-check", "--input", "const_hol_sec.json"]) + ["--frame", str(frame)]
    code, out, err = _run_main(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "matrix is not orthogonal" in err
