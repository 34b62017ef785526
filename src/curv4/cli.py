"""Command-line front end.

Commands: decompose, kahler-check, metric-curvature, frame-search,
theorem {self-dual | ricci-flat | unitary-product}.

Exit codes: 0 all checks passed, 1 a mathematical check failed
(violation or inconclusive; details in the report), 2 input or parse
error.  Reports go to standard output as stable "key: value" text or as
a single JSON document with sorted keys; floats use the shortest
round-trip representation, so output is byte-identical for identical
inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .bivectors import DEFAULT_TOLERANCE, FrameRotation, _real_array
from .kahler import (
    KahlerFrameView,
    build_const_hol_sec,
    build_surface_product,
    from_unitary_frame,
    structure_from_dict,
    unit_triple,
)
from .metrics import (
    MetricDomainError,
    ParseError,
    christoffel_oracle,
    curvature_at,
    metric_from_dict,
    nabla_J_residuals,
    unitary_product_check,
)
from .obstructions import (
    VERDICT_CONFORMALLY_FLAT,
    VERDICT_FLAT,
    VERDICT_SPECIAL_FRAME,
    frame_search,
    ricciflat_nullspace,
    run_obstruction_suite,
)
from .operators import (
    bianchi_defect,
    decompose,
    distinct_index_components,
    operator_from_dict,
)

PASSING_VERDICTS = (VERDICT_FLAT, VERDICT_CONFORMALLY_FLAT, VERDICT_SPECIAL_FRAME)


class InputError(Exception):
    """Malformed file, unreadable path, or out-of-contract flag value."""


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="curv4",
        description="curvature-operator laboratory for 4-dimensional metrics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("decompose", help="split an operator into its five invariant parts")
    p.add_argument("--input", required=True)
    common(p)

    p = sub.add_parser("kahler-check", help="check RJ = JR = R and the twelve Kaehler lines")
    p.add_argument("--input", required=True)
    p.add_argument("--frame", default=None, help="optional frame file {'Q': 4x4}")
    common(p)

    p = sub.add_parser("metric-curvature", help="curvature of a diagonal metric at a point")
    p.add_argument("--input", required=True)
    p.add_argument("--point", default="0,0,0,0")
    common(p)

    p = sub.add_parser("frame-search", help="closed-form frame with the smallest distinct-index residual")
    p.add_argument("--input", required=True)
    # no effect on the result; kept only because bench/workloads.py and
    # bench/clidocs.py pass them (the next benchmark change removes them)
    p.add_argument("--seed", type=int, default=0, help="accepted; no effect")
    p.add_argument("--restarts", type=int, default=32, help="accepted; no effect")
    common(p)

    p = sub.add_parser("theorem", help="run one of the obstruction checks")
    p.add_argument("which", choices=("self-dual", "ricci-flat", "unitary-product"))
    p.add_argument("--input", default=None)
    p.add_argument("--coeffs", default=None, help="comma-separated unit triple")
    p.add_argument("--point", default="0,0,0,0")
    common(p)

    return parser


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise InputError(f"{path}: {err.strerror or err}") from err
    except json.JSONDecodeError as err:
        raise InputError(
            f"{path}: line {err.lineno} column {err.colno}: {err.msg}"
        ) from err


# The canonical Kaehler builders are addressable by name in operator files:
# {"builder": "const-hol-sec", "params": [c]} or
# {"builder": "surface-product", "params": [k1, k2]}.
_BUILDERS = {
    "const-hol-sec": (build_const_hol_sec, 1),
    "surface-product": (lambda k1, k2: build_surface_product(k1, k2)[0], 2),
}


def _operator_from_doc(doc):
    if isinstance(doc, dict) and "builder" in doc:
        name = doc["builder"]
        if not (isinstance(name, str) and name in _BUILDERS):
            raise ValueError(
                f"unknown builder {name!r}; available: {sorted(_BUILDERS)}"
            )
        build, arity = _BUILDERS[name]
        return build(*_real_array(doc.get("params", []), (arity,), f"builder {name!r} params"))
    return operator_from_dict(doc)


def _load_operator(path):
    doc = _load_json(path)
    try:
        op = _operator_from_doc(doc)
        structure = structure_from_dict(doc) if "J" in doc else from_unitary_frame()
        frame = FrameRotation(doc["frame"]) if "frame" in doc else None
    except ValueError as err:
        raise InputError(f"{path}: {err}") from err
    return op, structure, frame


def _load_metric(path):
    doc = _load_json(path)
    try:
        return metric_from_dict(doc)
    except (ParseError, ValueError) as err:
        raise InputError(f"{path}: {err}") from err


def _load_frame(path):
    doc = _load_json(path)
    if not isinstance(doc, dict) or "Q" not in doc:
        raise InputError(f"{path}: frame document needs a 'Q' key")
    try:
        return FrameRotation(doc["Q"])
    except ValueError as err:
        raise InputError(f"{path}: {err}") from err


def _parse_numbers(flag, text, count, expected):
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError as err:
        raise InputError(f"{flag}: {err}") from err
    if len(values) != count:
        raise InputError(f"{flag} needs {expected}")
    if not all(np.isfinite(values)):
        raise InputError(f"{flag} values must be finite")
    return values


def _parse_point(text):
    return _parse_numbers("--point", text, 4, "four comma-separated coordinates")


def _parse_coeffs(text):
    values = _parse_numbers("--coeffs", text, 3, "three comma-separated numbers")
    try:
        return unit_triple(values)
    except ValueError as err:
        raise InputError("--coeffs must be a unit triple") from err


def _base_payload(args):
    return {"version": __version__, "command": args.command, "tolerance": args.tolerance}


def _cmd_decompose(args):
    op, _, _ = _load_operator(args.input)
    dec = decompose(op)
    scale = max(1.0, op.norm())
    payload = _base_payload(args)
    payload.update(
        {
            "r": dec.r,
            "bianchi_defect": bianchi_defect(op),
            "norms": {
                "scalar": dec.scalar_part.norm(),
                "traceless_ricci": dec.traceless_ricci_part.norm(),
                "weyl_plus": dec.weyl_plus.norm(),
                "weyl_minus": dec.weyl_minus.norm(),
                "bianchi": dec.bianchi_part.norm(),
            },
            "weyl_minus_within_tolerance": bool(
                dec.weyl_minus.norm() <= args.tolerance * scale
            ),
        }
    )
    return payload, False


def _cmd_kahler_check(args):
    op, structure, frame = _load_operator(args.input)
    if args.frame is not None:
        frame = _load_frame(args.frame)
    view = KahlerFrameView(op, structure, frame if frame is not None else FrameRotation.identity())
    passed = view.is_kaehler(args.tolerance)
    payload = _base_payload(args)
    payload.update(
        {
            "residuals": {f"line_{k + 1:02d}": float(v) for k, v in enumerate(view.lines)},
            "max_residual": view.max_line,
            "operator_defect": view.defect,
            "passed": passed,
        }
    )
    return payload, not passed


def _cmd_metric_curvature(args):
    metric, j_field = _load_metric(args.input)
    point = _parse_point(args.point)
    primary = curvature_at(metric, point)
    oracle = christoffel_oracle(metric, point)
    scale = max(1.0, float(np.max(np.abs(primary.matrix))))
    agreement = float(np.max(np.abs(primary.matrix - oracle.matrix)))
    both = distinct_index_components(primary) + distinct_index_components(oracle)
    distinct = max(abs(v) for v in both)
    defect = abs(bianchi_defect(primary))
    checks = {
        "oracle_agreement": agreement <= 1e-8 * scale,
        "distinct_index": distinct <= args.tolerance * scale,
        "bianchi": defect <= args.tolerance * scale,
    }
    payload = _base_payload(args)
    payload.update(
        {
            "point": list(point),
            "matrix": [[float(v) for v in row] for row in primary.matrix],
            "oracle_agreement": agreement,
            "distinct_index_max": float(distinct),
            "bianchi_defect": float(defect),
            "checks": {k: bool(v) for k, v in checks.items()},
        }
    )
    if j_field is not None:
        residuals = nabla_J_residuals(metric, j_field, point)
        worst = float(np.max(np.abs(residuals)))
        payload["nabla_J_max_residual"] = worst
        checks["nabla_J"] = worst <= args.tolerance
        payload["checks"]["nabla_J"] = bool(checks["nabla_J"])
    return payload, not all(checks.values())


def _cmd_frame_search(args):
    if args.restarts < 1:
        raise InputError("--restarts must be at least 1")
    if args.seed < 0:
        raise InputError("--seed must be nonnegative")
    op, _, _ = _load_operator(args.input)
    result = frame_search(op, restarts=args.restarts, seed=args.seed, tol=args.tolerance)
    payload = _base_payload(args)
    payload.update(
        {
            "residual": result.residual,
            "conclusive": bool(result.conclusive),
            "frame": [[float(v) for v in row] for row in result.frame.matrix],
        }
    )
    return payload, not result.conclusive


def _cmd_theorem(args):
    payload = _base_payload(args)
    payload["theorem"] = args.which
    if args.which == "self-dual":
        if args.input is None:
            raise InputError("theorem self-dual needs --input")
        op, structure, _ = _load_operator(args.input)
        report = run_obstruction_suite(op, structure, tolerance=args.tolerance)
        payload.update(report.to_dict())
        return payload, report.verdict not in PASSING_VERDICTS
    if args.which == "ricci-flat":
        if args.coeffs is None:
            raise InputError("theorem ricci-flat needs --coeffs")
        coeffs = _parse_coeffs(args.coeffs)
        cert = ricciflat_nullspace(coeffs)
        control = ricciflat_nullspace(coeffs, include_distinct_index=False)
        payload.update(
            {
                "coefficients": coeffs.tolist(),
                "nullspace_dimension": cert.dimension,
                "control_dimension_without_distinct_index": control.dimension,
                "constraints": cert.constraint_count,
                "smallest_singular_values": [float(v) for v in cert.singular_values[-3:]],
            }
        )
        return payload, cert.dimension != 0
    # unitary-product
    if args.input is None:
        raise InputError("theorem unitary-product needs --input")
    metric, _ = _load_metric(args.input)
    point = _parse_point(args.point)
    report = unitary_product_check(metric, point, tol=args.tolerance)
    payload.update(
        {
            "point": list(point),
            "residuals": report.residuals,
            "is_product": bool(report.is_product),
            "failed": list(report.failed),
        }
    )
    return payload, not report.is_product


_DISPATCH = {
    "decompose": _cmd_decompose,
    "kahler-check": _cmd_kahler_check,
    "metric-curvature": _cmd_metric_curvature,
    "frame-search": _cmd_frame_search,
    "theorem": _cmd_theorem,
}


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _flatten(obj[key], f"{prefix}{key}.")
    else:
        name = prefix[:-1]
        if isinstance(obj, str):
            yield name, obj
        else:
            yield name, json.dumps(obj, allow_nan=False)


def emit_report(payload, fmt):
    """Render a report dict as deterministic text or JSON; a value that is
    not finite raises ValueError in both formats."""
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    return "\n".join(f"{key}: {value}" for key, value in _flatten(payload))


def _join_negative_values(argv):
    """argparse reads a value such as "-0.6,0,0.8" as an option, so a value
    that starts like a negative number is joined to a preceding --coeffs or
    --point as "--coeffs=-0.6,0,0.8"."""
    joined = []
    for token in argv:
        if joined and joined[-1] in ("--coeffs", "--point") and re.match(r"-\.?\d", token):
            joined[-1] = f"{joined[-1]}={token}"
        else:
            joined.append(token)
    return joined


def main(argv=None):
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_join_negative_values(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if not 0.0 < args.tolerance < np.inf:
            raise InputError("--tolerance must be positive and finite")
        # every reported value is checked finite, so numpy's own warnings
        # about overflow or division by zero would only precede that verdict
        with np.errstate(all="ignore"):
            payload, failed = _DISPATCH[args.command](args)
            try:
                report = emit_report(payload, args.format)
            except ValueError as err:
                # a finite input whose results overflow double precision
                raise InputError(f"a report value is not finite: {err}") from err
    except (InputError, MetricDomainError) as err:
        # a metric outside its domain at the point is an input error too
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        print(report)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (as `| head` does); the verdict
        # stands, and the flush at exit must not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 1 if failed else 0


def run():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
