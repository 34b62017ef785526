import json

import pytest

from conftest import SAMPLE_DIR
from curv4.cli import emit_report, main

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
