"""One benchmark worker process; ``run.py`` launches it and reads the JSON
object it prints as its last line.

Roles:
  setup  import curv4, make the inputs, warm up, report the ready time, exit
  main   the same set-up, then the timed closed loop of operations
  cli    one documented CLI command in process (the traced cli-docs run)

Times are ``time.perf_counter()`` readings, which on Linux come from the
system-wide monotonic clock, so the parent can subtract its launch time.
"""

from __future__ import annotations

import argparse
import io
import json
import shlex
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

WARM_REPS = 3


def _import_curv4():
    start = time.perf_counter()
    import curv4

    import_s = time.perf_counter() - start
    return curv4, import_s, int("sympy" in sys.modules)


def run_workload(args):
    curv4, import_s, sympy_imported = _import_curv4()
    tracer = None
    if args.trace_out:
        import curv4.cli  # noqa: F401  (so its bindings are traced too)
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer, curv4)
    from clidocs import CheckFailed
    from workloads import IN_PROCESS

    def attempt(call, errors):
        """Run one gated call; a failed gate or a crash on a valid input is
        a failed operation, recorded, and the loop goes on."""
        try:
            call()
        except CheckFailed as err:
            errors.append(str(err))
        except Exception as err:
            errors.append(f"{type(err).__name__}: {err}")

    workload = IN_PROCESS[args.workload](curv4, args.seed)
    errors = []
    attempt(workload.setup, errors)  # warm-up answers are gated too
    ready = time.perf_counter()
    if args.role == "setup":
        return {"ready": ready}

    samples = []
    setup_failed = len(errors)
    deadline = ready + args.seconds

    def more(i):
        if args.ops:
            return i < args.ops
        return i < workload.min_ops or time.perf_counter() < deadline

    i = 0
    while more(i):
        start = time.perf_counter()
        if tracer is not None:
            with tracer.op_span(i):
                attempt(lambda: workload.op(i), errors)
        else:
            attempt(lambda: workload.op(i), errors)
        samples.append(time.perf_counter() - start)
        i += 1
    result = {
        "ready": ready,
        "end": time.perf_counter(),
        "samples": samples,
        "attempted": i + setup_failed,
        "failed": len(errors),
        "errors": errors[:5],
        "import_s": import_s,
        "sympy_imported": sympy_imported,
    }
    if tracer is not None:
        result["trace"] = tracer.summary(i)
        tracer.write(Path(args.trace_out))
    return result


def run_cli(args):
    """One documented command through ``curv4.cli.main(argv)``, the same
    call ``python -m curv4.cli`` makes.  With ``--trace-out`` the cold call
    is the traced operation and WARM_REPS warm calls follow in the same
    process for the warm timings."""
    curv4, import_s, sympy_imported = _import_curv4()
    import curv4.cli

    tracer = None
    if args.trace_out:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer, curv4)
    argv = shlex.split(args.command)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        if tracer is None:
            code = curv4.cli.main(argv)
        else:
            with tracer.op_span(0):
                code = curv4.cli.main(argv)
    result = {
        "done": time.perf_counter(),
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "import_s": import_s,
        "sympy_imported": sympy_imported,
    }
    if tracer is not None:
        warm = []
        for rep in range(WARM_REPS):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                with tracer.op_span(rep, phase="warm"):
                    curv4.cli.main(argv)
                warm.append(time.perf_counter() - start)
        tracer.write(Path(args.trace_out))
        result.update(warm_s=warm, trace=tracer.summary(1, warm_phase="warm"))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("setup", "main", "cli"), required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--ops", type=int, default=0, help="fixed operation count (0: timed)")
    parser.add_argument("--trace-out", default="", help="trace the run; spans go to this file")
    parser.add_argument("--command", default="", help="cli role: the documented command")
    args = parser.parse_args(argv)
    result = run_cli(args) if args.role == "cli" else run_workload(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
