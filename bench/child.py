"""One benchmark operation: ``bsf.cli.main`` in a fresh interpreter.

    python3 child.py RESULT_JSON MODE -- BSF_ARGS...

MODE is ``run`` (untimed inside; one timestamp at the first solver call),
``setup`` (stop at the first solver call, so only set-up runs) or
``trace`` (spans around every layer, written next to RESULT_JSON).  The
result records CLOCK_MONOTONIC readings, which the parent compares with
its own, plus the exit code and this process's peak resident memory.
"""

import json
import os
import sys
import time

# the solver entry points, under the names bsf.cli calls them by
SOLVERS = ("exact_posterior", "run_chain", "consistency_experiment")


class _StopAtSolver(Exception):
    pass


def _peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _cpu_s() -> float:
    """CPU seconds of this process and of its children that have ended."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def main() -> int:
    result_path, mode, sep, *bsf_args = sys.argv[1:]
    if sep != "--" or mode not in ("run", "setup", "trace"):
        raise SystemExit("usage: child.py RESULT_JSON run|setup|trace -- BSF_ARGS...")
    import bsf.cli

    tracer = None
    if mode == "trace":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    marks = {}

    def probe(fn):
        def first_call(*args, **kwargs):
            marks.setdefault("solver", time.monotonic())
            marks.setdefault("solver_cpu", _cpu_s())
            if mode == "setup":
                raise _StopAtSolver
            return fn(*args, **kwargs)
        return first_call

    for name in SOLVERS:
        if hasattr(bsf.cli, name):
            setattr(bsf.cli, name, probe(getattr(bsf.cli, name)))

    try:
        code = bsf.cli.main(bsf_args)
    except _StopAtSolver:
        code = 0
    marks["end"] = time.monotonic()
    marks["end_cpu"] = _cpu_s()
    if tracer is not None:
        tracer.dump(result_path + ".spans")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "marks": marks, "peak_rss_kb": _peak_rss_kb()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
