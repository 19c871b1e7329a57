"""Per-layer metrics of one traced operation, from its spans and counts.

Self time is a span's duration minus its direct children's.  Counts of
zero mean the layer did not run on this workload; a rate whose base is
zero reads 0.
"""

from __future__ import annotations

import numpy as np

from estimators import self_times
from tracer import load_spans

LAYERS = ("kernels", "linalg", "posterior", "partitions", "cli", "sampler", "experiments")

PER_LAYER_UNITS = {
    "linalg.subset_log_det.calls": "count",
    "linalg.subset_log_det.self_s": "s",
    "linalg.subset_log_det.us_per_call": "us",
    "linalg.log_minor_star_mesh.calls": "count",
    "linalg.log_minor_star_mesh.s": "s",
    "linalg.log_det_L_plus_J.calls": "count",
    "linalg.log_det_L_plus_J.s": "s",
    "linalg.cache.lookups": "count",
    "linalg.cache.miss_ratio": "ratio",
    "linalg.cache.entries": "count",
    "linalg.all_block_log_dets.calls": "count",
    "linalg.all_block_log_dets.s": "s",
    "linalg.all_block_log_dets.masks_per_s": "1/s",
    "linalg.anchored_subset_pairs.s": "s",
    "posterior.exact_posterior.self_s": "s",
    "posterior.dp.terms": "count",
    "posterior.dp.terms_per_s": "1/s",
    "posterior.iter_class_weights.rows": "count",
    "posterior.iter_class_weights.self_s": "s",
    "posterior.BlockWeights.block.calls": "count",
    "partitions.enumerate_partitions.rows": "count",
    "partitions.enumerate_partitions.self_s": "s",
    "cli.write_csv.self_s": "s",
    "cli.write_csv.bytes": "B",
    "sampler.gibbs_sweep.calls": "count",
    "sampler.gibbs_sweep.self_s": "s",
    "sampler.split_merge_move.calls": "count",
    "sampler.split_merge_move.self_s": "s",
    "sampler.run_chain.self_s": "s",
    "sampler.split.accept_ratio": "ratio",
    "sampler.merge.accept_ratio": "ratio",
    "experiments.replicate.median_s": "s",
    "experiments.replicate.max_s": "s",
    "experiments.parallel_efficiency": "ratio",
    "kernels.log_weight_matrix.calls": "count",
    "kernels.log_weight_matrix.s": "s",
    "tracing.overhead_ratio": "ratio",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
}


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def per_layer_metrics(spans_path: str, plain_wall: float, traced_wall: float,
                      pooled_wall: float | None, workers: int) -> dict:
    """``plain_wall`` and ``traced_wall`` time the same command untraced and
    traced; ``pooled_wall`` is the untraced run with ``workers`` pool
    workers when the traced command ran with one."""
    names, counts, name_of, parent, start, end = load_spans(spans_path)
    dur = end - start
    own = self_times(parent, start, end)
    ids = {name: i for i, name in enumerate(names)}

    def select(name):
        return name_of == ids[name] if name in ids else np.zeros(len(name_of), bool)

    def calls(name):
        return int(np.count_nonzero(select(name)))

    def total(name):
        return float(dur[select(name)].sum())

    def self_s(name):
        return float(own[select(name)].sum())

    def count(key):
        return int(counts.get(key, 0))

    det_calls = calls("linalg.subset_log_det")
    is_det = select("linalg.subset_log_det")
    from_fresh = is_det & (parent >= 0)
    from_fresh[from_fresh] = name_of[parent[from_fresh]] == ids.get("linalg.LogDetCache.fresh", -1)
    misses = det_calls - int(np.count_nonzero(from_fresh))
    lookups = count("linalg.LogDetCache.get")
    precomputes = calls("linalg.all_block_log_dets")
    entries = count("linalg.LogDetCache.__init__") - precomputes \
        + count("linalg.all_block_log_dets.masks") + misses
    replicate = dur[select("experiments._consistency_task")]
    dp_terms = count("posterior.dp.terms")
    out = {
        "linalg.subset_log_det.calls": det_calls,
        "linalg.subset_log_det.self_s": self_s("linalg.subset_log_det"),
        "linalg.subset_log_det.us_per_call": 1e6 * _ratio(total("linalg.subset_log_det"), det_calls),
        "linalg.log_minor_star_mesh.calls": calls("linalg.log_minor_star_mesh"),
        "linalg.log_minor_star_mesh.s": total("linalg.log_minor_star_mesh"),
        "linalg.log_det_L_plus_J.calls": calls("linalg.log_det_L_plus_J"),
        "linalg.log_det_L_plus_J.s": total("linalg.log_det_L_plus_J"),
        "linalg.cache.lookups": lookups,
        "linalg.cache.miss_ratio": _ratio(misses, lookups),
        "linalg.cache.entries": entries,
        "linalg.all_block_log_dets.calls": precomputes,
        "linalg.all_block_log_dets.s": total("linalg.all_block_log_dets"),
        "linalg.all_block_log_dets.masks_per_s": _ratio(count("linalg.all_block_log_dets.masks"),
                                                        total("linalg.all_block_log_dets")),
        "linalg.anchored_subset_pairs.s": total("linalg.anchored_subset_pairs"),
        "posterior.exact_posterior.self_s": self_s("posterior.exact_posterior"),
        "posterior.dp.terms": dp_terms,
        "posterior.dp.terms_per_s": _ratio(dp_terms, self_s("posterior.exact_posterior")),
        "posterior.iter_class_weights.rows": count("posterior.iter_class_weights.rows"),
        "posterior.iter_class_weights.self_s": self_s("posterior.iter_class_weights"),
        "posterior.BlockWeights.block.calls": count("posterior.BlockWeights.block"),
        "partitions.enumerate_partitions.rows": count("partitions.enumerate_partitions.rows"),
        "partitions.enumerate_partitions.self_s": self_s("partitions.enumerate_partitions"),
        "cli.write_csv.self_s": self_s("cli.write_csv"),
        "cli.write_csv.bytes": count("cli.write_csv.bytes"),
        "sampler.gibbs_sweep.calls": calls("sampler.gibbs_sweep"),
        "sampler.gibbs_sweep.self_s": self_s("sampler.gibbs_sweep"),
        "sampler.split_merge_move.calls": calls("sampler.split_merge_move"),
        "sampler.split_merge_move.self_s": self_s("sampler.split_merge_move"),
        "sampler.run_chain.self_s": self_s("sampler.run_chain"),
        "sampler.split.accept_ratio": _ratio(count("sampler.split.accepted"),
                                             count("sampler.split.proposed")),
        "sampler.merge.accept_ratio": _ratio(count("sampler.merge.accepted"),
                                             count("sampler.merge.proposed")),
        "experiments.replicate.median_s": float(np.median(replicate)) if replicate.size else 0.0,
        "experiments.replicate.max_s": float(replicate.max()) if replicate.size else 0.0,
        "experiments.parallel_efficiency": (
            _ratio(plain_wall, workers * pooled_wall) if pooled_wall else 0.0),
        "kernels.log_weight_matrix.calls": calls("kernels.log_weight_matrix"),
        "kernels.log_weight_matrix.s": total("kernels.log_weight_matrix"),
        "tracing.overhead_ratio": _ratio(traced_wall, plain_wall),
    }
    for layer in LAYERS:
        mask = np.array([n.split(".", 1)[0] == layer for n in names], bool)
        out[f"layer.{layer}.self_s"] = float(own[mask[name_of]].sum()) if len(names) else 0.0
    return out
