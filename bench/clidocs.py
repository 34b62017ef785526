"""The documented README commands, verbatim, with the exit code the README
gives and the report fields that carry each verdict (stdlib only, so the
orchestrator can check CLI output without importing numpy)."""

from __future__ import annotations

import json


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


OPERATOR, METRIC = "operator", "metric"
_METRIC_CHECKS = {"checks.bianchi": "true", "checks.distinct_index": "true",
                  "checks.oracle_agreement": "true"}

CLI_COMMANDS = (
    (OPERATOR, "decompose --input sample_inputs/const_hol_sec.json", 0,
     {"weyl_minus_within_tolerance": "true"}),
    (OPERATOR, "decompose --input sample_inputs/surface_product.json --format json", 0,
     {"weyl_minus_within_tolerance": True}),
    (OPERATOR, "kahler-check --input sample_inputs/const_hol_sec.json", 0,
     {"passed": "true"}),
    (OPERATOR, "kahler-check --input sample_inputs/const_hol_sec.json "
     "--frame sample_inputs/cp2_frame.json", 0, {"passed": "true"}),
    (OPERATOR, "kahler-check --input sample_inputs/builder_const_hol_sec.json", 0,
     {"passed": "true"}),
    (METRIC, "metric-curvature --input sample_inputs/flat_metric.json", 0, _METRIC_CHECKS),
    (METRIC, "metric-curvature --input sample_inputs/conformal_sphere_metric.json "
     "--point 0.1,-0.05,0.2,0.15", 0, _METRIC_CHECKS),
    (METRIC, "metric-curvature --input sample_inputs/product_metric.json "
     "--point 0.1,0.2,-0.1,0.05", 0, dict(_METRIC_CHECKS, **{"checks.nabla_J": "true"})),
    (OPERATOR, "frame-search --input sample_inputs/const_hol_sec.json --restarts 32 --seed 0", 0,
     {"conclusive": "true"}),
    (OPERATOR, "theorem self-dual --input sample_inputs/const_hol_sec.json", 0,
     {"verdict": "special-frame-branch"}),
    (OPERATOR, "theorem self-dual --input sample_inputs/surface_product.json", 0,
     {"verdict": "conformally-flat-branch"}),
    (OPERATOR, "theorem ricci-flat --coeffs 1,0,0", 1,
     {"nullspace_dimension": "4", "control_dimension_without_distinct_index": "6"}),
    (METRIC, "theorem unitary-product --input sample_inputs/product_metric.json "
     "--point 0.1,0.2,-0.1,0.05", 0, {"is_product": "true"}),
    (METRIC, "theorem unitary-product --input sample_inputs/counterexample_metric.json", 1,
     {"is_product": "false"}),
    (METRIC, "metric-curvature --input sample_inputs/bad_syntax_metric.json", 2, {}),
)


def check_cli(index, code, stdout, stderr):
    """Exit code as documented, and the verdict fields of the report."""
    _, command, expected_code, fields = CLI_COMMANDS[index]
    require(code == expected_code, f"`{command}` exited {code}, expected {expected_code}")
    if expected_code == 2:
        require(stdout == "", f"`{command}` printed a report on an input error")
        require(stderr.startswith("error: ") and "column 7" in stderr,
                f"`{command}` did not report the syntax error position")
        return
    if "--format json" in command:
        report = json.loads(stdout)
    else:
        report = dict(line.split(": ", 1) for line in stdout.splitlines())
    for key, value in fields.items():
        require(report.get(key) == value,
                f"`{command}`: {key} = {report.get(key)!r}, expected {value!r}")
