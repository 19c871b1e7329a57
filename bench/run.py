"""Benchmark of the bsf command line, one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree that holds ``src/bsf``.  The seed makes
the workload's inputs; every operation is ``bsf.cli.main`` in a fresh
interpreter, repeated until S seconds of operations have run.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of one
traced operation, timed from outside by wrapping each bsf module's
functions (see tracer.py).  Scratch files live under ``.bench_run/`` in
the tree and are removed at exit, except the results file of each run in
``.bench_run/results/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

# One BLAS thread per process: with the two pool workers of the consistency
# workload that keeps busy threads at nproc (2) on the reference machine.
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_SAMPLES = 5  # set-up times per run, from operations and set-up-only probes
DEADLINE_S = 170.0  # a run must end within 180 s
POLL_S = 0.05

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "rows_per_s": "1/s", "replicates_per_s": "1/s",
}
WORKLOAD_UNITS = {
    "sweeps_per_s": "1/s", "ess_per_s_logw": "1/s", "ess_per_s_k": "1/s",
    "max_abs_err": "nats", "tv_k": "prob", "error_rate": "ratio",
}


def _descendants(pid: int) -> list[int]:
    out, todo = [], [pid]
    while todo:
        cur = todo.pop()
        for path in glob.glob(f"/proc/{cur}/task/*/children"):
            try:
                with open(path, encoding="ascii") as fh:
                    kids = [int(tok) for tok in fh.read().split()]
            except OSError:
                continue
            out.extend(kids)
            todo.extend(kids)
    return out


def _peak_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_child(mode: str, argv: list[str], out_dir: str, deadline: float) -> dict:
    """Run one operation; returns its timings, memory and exit status.

    ``setup_s`` runs from just before the process is started to the first
    solver call; ``wall_s`` from that call until ``main`` returned with all
    outputs written.  Peak memory is the child's own high-water mark plus
    the last one read from each of its descendants (pool workers) while
    they ran.
    """
    os.makedirs(out_dir, exist_ok=True)
    result_path = out_dir + ".result.json"
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(out_dir + ".stderr", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, result_path, mode, "--", *argv, "--out", out_dir],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        peaks: dict[int, int] = {}
        while True:
            try:
                proc.wait(timeout=POLL_S)
                break
            except subprocess.TimeoutExpired:
                if time.monotonic() > deadline:
                    proc.kill()
                    proc.wait()
                    break
                for pid in _descendants(proc.pid):
                    peaks[pid] = max(peaks.get(pid, 0), _peak_kb(pid))
    rec = {"mode": mode, "argv": argv, "exit_code": proc.returncode, "out_dir": out_dir}
    try:
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
    except (OSError, ValueError):
        return rec
    marks = res["marks"]
    rec["exit_code"] = res["exit_code"] if proc.returncode == 0 else proc.returncode
    if "solver" in marks:
        rec["setup_s"] = marks["solver"] - t0
        rec["wall_s"] = marks["end"] - marks["solver"]
        rec["cpu_s"] = marks["end_cpu"] - marks["solver_cpu"]
    rec["peak_rss_mb"] = (res["peak_rss_kb"] + sum(peaks.values())) / 1024.0
    rec["processes"] = 1 + len(peaks)
    return rec


def _ok(rec: dict) -> bool:
    return rec["exit_code"] == 0 and "setup_s" in rec


def _same_run_key(argv: list[str]) -> tuple:
    """Operations whose arguments agree up to the worker count must write
    byte-identical files."""
    key = list(argv)
    while "--workers" in key:
        at = key.index("--workers")
        del key[at:at + 2]
    return tuple(key)


def check_ops(workload, prep, recs, seed):
    """Output checks on every operation, byte-identity between operations
    that repeat the same run, and ``max_abs_err`` on the first.

    Each operation that is not a repeat keeps its own figures under
    ``rec["figures"]``.  Returns (failure messages, failed operation count,
    max_abs_err, pooled figures).
    """
    from workloads import digest

    msgs, failed, figures, seen, err = [], 0, [], {}, None
    for i, rec in enumerate(recs):
        if not _ok(rec):
            failed += 1
            with open(rec["out_dir"] + ".stderr", encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-300:]
            msgs.append(f"op {i} ({rec['mode']}): exit {rec['exit_code']}: {tail.strip()}")
            continue
        if rec["mode"] == "setup":
            continue
        fails, figs = workload.check(prep, rec["argv"], rec["out_dir"])
        if err is None:
            err = workload.accuracy(prep, rec["argv"], rec["out_dir"], seed)
        key, files = _same_run_key(rec["argv"]), digest(rec["out_dir"])
        if key not in seen:
            seen[key] = files
            rec["figures"] = figs
            figures.append(figs)
        elif files != seen[key]:
            fails.append("outputs differ from an earlier run with the same inputs and seed")
        if fails:
            failed += 1
            msgs.extend(f"op {i}: {f}" for f in fails)
        shutil.rmtree(rec["out_dir"], ignore_errors=True)
    pooled_fails, pooled = workload.pooled(prep, figures) if figures else ([], {})
    if pooled_fails:
        failed += 1
        msgs.extend(pooled_fails)
    return msgs, failed, err, pooled


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(workload, prep, seed: int, seconds: float, work: str, deadline: float):
    ops = []
    begin = time.monotonic()
    while len(ops) < workload.min_ops or time.monotonic() - begin < seconds:
        if time.monotonic() > deadline:
            break
        argv = workload.op_argv(prep, seed, len(ops))
        ops.append(run_child("run", argv, os.path.join(work, f"op{len(ops)}"), deadline))
    if workload.repeat_first:
        argv = workload.op_argv(prep, seed, 0)
        ops.append(run_child("run", argv, os.path.join(work, "repeat"), deadline))
    # every operation also measures set-up; probes top the samples up
    recs = [run_child("setup", workload.op_argv(prep, seed, 0), os.path.join(work, f"probe{i}"), deadline)
            for i in range(SETUP_SAMPLES - len(ops))] + ops
    msgs, failed, err, pooled = check_ops(workload, prep, recs, seed)
    good = [r for r in ops if _ok(r)]
    walls = [r["wall_s"] for r in good]
    metrics = {
        "setup_s": _median([r["setup_s"] for r in recs if _ok(r)]),
        "wall_s": _median(walls),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in good]),
        "rows_per_s": _median([prep.rows_per_op / w for w in walls]),
        "replicates_per_s": _median([prep.replicates_per_op / w for w in walls]),
    }
    extra = {"error_rate": failed / len(recs)}
    if prep.sweeps_per_op:
        extra["sweeps_per_s"] = _median([prep.sweeps_per_op / w for w in walls])
    chains = [r for r in good if "ess_logw" in r.get("figures", {})]
    if chains:
        for name in ("logw", "k"):
            extra[f"ess_per_s_{name}"] = _median(
                [r["figures"][f"ess_{name}"] / r["wall_s"] for r in chains])
    if err is not None:
        extra["max_abs_err"] = err
    extra.update(pooled)
    return recs, msgs, failed, metrics, extra


def traced(workload, prep, seed: int, work: str, deadline: float):
    from layers import per_layer_metrics

    argv = workload.op_argv(prep, seed, 0)
    recs = [run_child("run", argv + workload.trace_args, os.path.join(work, "plain"), deadline),
            run_child("trace", argv + workload.trace_args, os.path.join(work, "traced"), deadline)]
    if workload.trace_args:
        recs.append(run_child("run", argv, os.path.join(work, "pooled"), deadline))
    spans_path = recs[1]["out_dir"] + ".result.json.spans"
    msgs, failed, _, _ = check_ops(workload, prep, recs, seed)
    extra = {"error_rate": failed / len(recs)}
    if not (all(_ok(r) for r in recs) and os.path.exists(spans_path)):
        return recs, msgs, failed, None, extra
    plain, trace = recs[0]["wall_s"], recs[1]["wall_s"]
    pooled_wall = recs[2]["wall_s"] if len(recs) > 2 else None
    metrics = per_layer_metrics(spans_path, plain, trace, pooled_wall,
                                getattr(workload, "workers", 1))
    return recs, msgs, failed, metrics, extra


def machine() -> dict:
    import mpmath
    import numpy
    import scipy

    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": None, "caches": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            fields = [open(os.path.join(index, f), encoding="ascii").read().strip()
                      for f in ("level", "type", "size")]
        except OSError:
            continue
        info["caches"][f"L{fields[0]} {fields[1]}"] = fields[2]
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    info.update({
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    })
    return info


def provenance(args) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "bsf", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {"git_commit": commit, "source_sha256": digest.hexdigest(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def main(argv=None) -> int:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bsf", "__init__.py")):
        print(f"no bsf sources under {SRC}; run from a bsf source tree", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy loads, here and in every child
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    scratch = os.path.join(ROOT, ".bench_run")
    work = os.path.join(scratch, f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(os.path.join(work, "inputs"))
    try:
        prep = workload.prepare(args.seed, os.path.join(work, "inputs"))
        setup_done = time.monotonic()
        if args.trace:
            recs, msgs, failed, metrics, extra = traced(workload, prep, args.seed, work, deadline)
            units = None
        else:
            recs, msgs, failed, metrics, extra = end_to_end(
                workload, prep, args.seed, args.seconds, work, deadline)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for msg in msgs:
        print(f"check failed: {msg}", file=sys.stderr)
    if metrics is None or any(v != v for v in metrics.values()):
        print("no operation completed; nothing to report", file=sys.stderr)
        return 1
    if units is None:
        from layers import PER_LAYER_UNITS as units
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, value in extra.items():
        print(f"{name} = {value:.6g} {WORKLOAD_UNITS[name]}")
    if args.trace:
        layer_self = {k: v for k, v in metrics.items() if k.startswith("layer.")}
        print(f"largest self time: {max(layer_self, key=layer_self.get)}")
    record = {
        "machine": machine(),
        "provenance": provenance(args),
        "benchmark_setup_s": setup_done - start,
        "operations": [{k: v for k, v in r.items() if k != "out_dir"} for r in recs],
        "failures": msgs,
        "metrics": metrics,
        "workload_metrics": extra,
    }
    results = os.path.join(scratch, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"results file: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(recs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
