"""The benchmark's contract with the program.

Each workload under ``bench/`` prepares its inputs, runs one operation
through ``bsf.cli.main`` in this process and passes its own output checks,
so a rename or signature change that would break the benchmark fails here
rather than in a benchmark run.
"""

import importlib
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import child  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import bsf.cli  # noqa: E402
from bsf import experiments  # noqa: E402

SEED = 1


def test_cli_binds_the_solvers_the_benchmark_probes():
    # child.py times set-up up to the first call of these names in bsf.cli
    for name in child.SOLVERS:
        assert callable(getattr(bsf.cli, name, None)), name


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_operation_passes_its_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    in_dir = tmp_path / "inputs"
    in_dir.mkdir()
    prep = workload.prepare(SEED, str(in_dir))
    argv = workload.op_argv(prep, SEED, 0)
    out_dir = str(tmp_path / "out")
    assert bsf.cli.main([*argv, "--out", out_dir]) == 0
    fails, figures = workload.check(prep, argv, out_dir)
    assert fails == []
    if name == "mcmc-table":
        # one chain is too few for the pooled gate; the pooled path must run
        _, pooled = workload.pooled(prep, [figures])
        assert math.isfinite(pooled["tv_k"])


def _pid(task):
    return os.getpid()


@pytest.mark.parametrize("workers, tasks", [(2, 24), (3, 24), (4, 2), (1, 24), (2, 1)])
def test_harness_runs_in_at_most_workers_processes_the_caller_included(
        monkeypatch, workers, tasks):
    # bench/run.py's peak_rss_mb sums the high-water marks of the process and of
    # every pool process it starts
    sizes = []

    class Recording(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", Recording)
    pids = set(experiments._run_parallel(_pid, list(range(tasks)), workers))
    spawned = min(workers, tasks) - 1
    assert sizes == ([spawned] if spawned else [])
    assert os.getpid() in pids and len(pids) <= spawned + 1


def _traced_operation(name, tmp_path):
    """Run one operation of workload ``name`` through ``bench/child.py`` with
    tracing on; returns the names of its spans, its counts and its output
    directory."""
    workload = workloads.WORKLOADS[name]
    in_dir = tmp_path / "inputs"
    in_dir.mkdir()
    prep = workload.prepare(SEED, str(in_dir))
    argv = workload.op_argv(prep, SEED, 0)
    result = str(tmp_path / "result.json")
    out_dir = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, os.path.join(ROOT, "bench", "child.py"), result, "trace", "--",
                    *argv, "--out", str(out_dir)], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    with open(result, encoding="utf-8") as fh:
        assert json.load(fh)["exit_code"] == 0
    names, counts, name_of, *_ = tracer.load_spans(result + ".spans")
    return {names[i] for i in set(name_of.tolist())}, counts, out_dir


def test_traced_chain_reports_the_sampler_layer(tmp_path):
    # tracer.py wraps the moves by name and unpacks (state, move, accepted);
    # it skips names it cannot find, so a rename would silently zero the
    # sampler's per-layer figures
    spanned, counts, _ = _traced_operation("mcmc-table", tmp_path)
    assert {"sampler.gibbs_sweep", "sampler.split_merge_move"} <= spanned
    assert counts.get("sampler.split.proposed", 0) + counts.get("sampler.merge.proposed", 0) > 0


def test_traced_exact_reports_the_csv_layer(tmp_path):
    # tracer.py times the table and counts its bytes by wrapping
    # bsf.cli.write_csv; a table written by any other function would zero
    # cli.write_csv.bytes and move its time to another layer without a word;
    # the block table's masks are counted the same way, from its argument
    spanned, counts, out_dir = _traced_operation("exact-table", tmp_path)
    assert "cli.write_csv" in spanned
    assert counts.get("cli.write_csv.bytes", 0) >= os.path.getsize(out_dir / "posterior_table.csv")
    assert counts.get("linalg.all_block_log_dets.masks", 0) == 1 << 10


def test_tracer_targets_the_program_lacks_are_pinned():
    # tracer.py skips a target it cannot find, so its per-layer figures
    # read 0 without a word; a rename or deletion must update this set
    missing = {f"{mod}.{path}" for mod, path, _ in tracer.TARGETS
               if tracer._resolve(importlib.import_module(mod), path) == (None, None)}
    assert missing == {
        "bsf.linalg.log_minor_star_mesh",
        "bsf.linalg.log_det_L_plus_J",
        "bsf.linalg.anchored_subset_pairs",
        "bsf.linalg.LogDetCache.__init__",
        "bsf.linalg.LogDetCache.get",
        "bsf.linalg.LogDetCache.fresh",
        "bsf.posterior.iter_class_weights",
        "bsf.partitions.enumerate_partitions",
    }
