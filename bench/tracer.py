"""Span recorder that wraps bsf functions from outside the program.

Each traced function is replaced under every name a ``bsf`` module binds it
to, so callers that imported it by name are traced too.  A span is (name,
start, end, parent); spans are kept in flat arrays in memory and written
out once, when the traced process ends.  Very hot tiny calls are counted
without a span.  Functions missing from the program are skipped, so the
tracer keeps working while the modules it wraps are refactored.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array
from collections import Counter
from math import comb

SPAN = "span"
GENERATOR = "generator"  # one span per next()
COUNT = "count"

# (module, attribute path, kind).  The untimed layers data, oracle and
# theory are absent on purpose.
TARGETS = (
    ("bsf.kernels", "log_weight_matrix", SPAN),
    ("bsf.linalg", "subset_log_det", SPAN),
    ("bsf.linalg", "log_minor_star_mesh", SPAN),
    ("bsf.linalg", "log_det_L_plus_J", SPAN),
    ("bsf.linalg", "all_block_log_dets", SPAN),
    ("bsf.linalg", "anchored_subset_pairs", SPAN),
    ("bsf.linalg", "LogDetCache.__init__", COUNT),
    ("bsf.linalg", "LogDetCache.get", COUNT),
    ("bsf.linalg", "LogDetCache.fresh", SPAN),
    ("bsf.posterior", "BlockWeights.block", COUNT),
    ("bsf.posterior", "exact_posterior", SPAN),
    ("bsf.posterior", "iter_class_weights", GENERATOR),
    ("bsf.partitions", "enumerate_partitions", GENERATOR),
    ("bsf.cli", "write_csv", SPAN),
    ("bsf.sampler", "gibbs_sweep", SPAN),
    ("bsf.sampler", "split_merge_move", SPAN),
    ("bsf.sampler", "run_chain", SPAN),
    ("bsf.experiments", "consistency_experiment", SPAN),
    ("bsf.experiments", "_consistency_task", SPAN),
)


def dp_terms(n: int, k_cap: int) -> int:
    """Terms the sum and max partition DPs evaluate for one exact posterior.

    Layer k >= 2 visits, for every mask S of popcount c >= k, the 2^(c-1)
    submasks holding S's lowest bit; both DPs do this once.  Computed from
    n and the block cap, not counted at run time.
    """
    per_dp = sum(comb(n, c) << (c - 1) for k in range(2, k_cap + 1) for c in range(k, n + 1))
    return 2 * per_dp


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_of = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def span(self, name: str, fn):
        nid = self._name_id(name)
        clock, stack = self.clock, self.stack
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def generator(self, name: str, fn):
        timed_next = self.span(name, next)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)

            def timed():
                while True:
                    try:
                        item = timed_next(gen)
                    except StopIteration:
                        return
                    counts[name + ".rows"] += 1
                    yield item

            return timed()

        return wrapper

    def count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> list[str]:
        """Wrap every target that exists; returns the names wrapped."""
        wrapped = []
        for module_name, path, kind in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            owner, attr = _resolve(module, path)
            if owner is None:
                continue
            orig = vars(owner)[attr]
            name = f"{module_name[4:]}.{path}"
            if kind == SPAN:
                new = self.span(name, orig)
            elif kind == GENERATOR:
                new = self.generator(name, orig)
            else:
                new = self.count(name, orig)
            new = _HOOKS.get(name, lambda tracer, fn: fn)(self, new)
            if owner is module:
                _rebind(orig, new)
            else:
                setattr(owner, attr, new)
            wrapped.append(name)
        return wrapped

    def dump(self, path: str) -> None:
        """Write names and counts to ``path`` as JSON and the spans to
        ``path + ".bin"``: four arrays of one entry per span (name id and
        parent index as int64, start and end as float64), back to back."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": len(self.start),
                       "counts": dict(self.counts)}, fh)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)


def load_spans(path: str):
    """Read what :meth:`Tracer.dump` wrote: (names, counts, name_of,
    parent, start, end) with the four span fields as numpy arrays."""
    import numpy as np

    with open(path, encoding="utf-8") as fh:
        head = json.load(fh)
    count = head["spans"]
    raw = np.fromfile(path + ".bin", dtype=np.uint8)
    name_of = raw[: 8 * count].view(np.int64)
    parent = raw[8 * count: 16 * count].view(np.int64)
    start = raw[16 * count: 24 * count].view(np.float64)
    end = raw[24 * count: 32 * count].view(np.float64)
    return head["names"], head["counts"], name_of, parent, start, end


def _resolve(module, path: str):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = vars(owner).get(part)
        if owner is None:
            return None, None
    if attr not in vars(owner):
        return None, None
    return owner, attr


def _rebind(orig, new) -> None:
    """Replace ``orig`` under every name a loaded bsf module binds it to."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "bsf" or mod_name.startswith("bsf.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


# Counters recorded at a span boundary from the call's arguments or result.

def _count_masks(tracer, fn):
    @functools.wraps(fn)
    def wrapper(logw, *args, **kwargs):
        tracer.counts["linalg.all_block_log_dets.masks"] += 1 << len(logw)
        return fn(logw, *args, **kwargs)
    return wrapper


def _count_dp_terms(tracer, fn):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        n = call.arguments["data"].n
        max_k, only_k = call.arguments["max_K"], call.arguments["only_K"]
        if only_k is not None:
            k_cap = min(only_k, n)
        else:
            k_cap = n if max_k is None else min(max_k, n)
        tracer.counts["posterior.dp.terms"] += dp_terms(n, k_cap)
        return fn(*args, **kwargs)
    return wrapper


def _count_bytes(tracer, fn):
    @functools.wraps(fn)
    def wrapper(path, *args, **kwargs):
        out = fn(path, *args, **kwargs)
        tracer.counts["cli.write_csv.bytes"] += os.path.getsize(path)
        return out
    return wrapper


def _count_accepts(tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        _, move, accepted = out
        tracer.counts[f"sampler.{move}.proposed"] += 1
        tracer.counts[f"sampler.{move}.accepted"] += int(accepted)
        return out
    return wrapper


_HOOKS = {
    "linalg.all_block_log_dets": _count_masks,
    "posterior.exact_posterior": _count_dp_terms,
    "cli.write_csv": _count_bytes,
    "sampler.split_merge_move": _count_accepts,
}
