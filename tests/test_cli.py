import csv
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import bsf
from bsf import partitions
from bsf.cli import (
    ConfigError,
    _parse_gaussian_oracle,
    _parse_kernel,
    _parse_mcmc,
    _parse_phi,
    _parse_rule,
    _parse_schedule,
    _parse_spd_oracle,
    _rgs_strings,
    _table_chunks,
    build_parser,
    main,
)
from bsf.data import (GRAPH_LAPLACIAN, Dataset, read_euclidean_csv, read_matrix_stack,
                      write_matrix_stack)
from bsf.experiments import BandwidthRule, FixedSchedule, SnrSchedule
from bsf.kernels import EUCLIDEAN_GAUSSIAN, GRAPH_LAPLACIAN_GAUSSIAN, KernelSpec, log_gaussian_kernel
from bsf.oracle import DEFAULT_PHI, GaussianOracleSpec, ObjectOracleSpec, SeparationConstants
from bsf.partitions import Partition
from bsf.posterior import BlockWeights, BsfConfig, exact_posterior
from bsf.sampler import McmcSettings, run_chain


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("0.0\n1.0\n")
    return str(path)


def exact_config(tmp_path, toy_csv, odds=9.0, **extra):
    log_f12 = log_gaussian_kernel(
        np.zeros(1), np.ones(1), KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=1.0)
    )
    cfg = {
        "data": toy_csv,
        "kernel": {"family": "euclidean-gaussian", "sigma": 1.0},
        "log_delta_lambda": log_f12 - math.log(odds),
    }
    cfg.update(extra)
    path = tmp_path / "exact.json"
    write_json(path, cfg)
    return str(path)


def test_exact_two_point_table(tmp_path, toy_csv):
    out = tmp_path / "out"
    assert main(["exact", "--config", exact_config(tmp_path, toy_csv),
                 "--out", str(out)]) == 0
    rows = (out / "posterior_table.csv").read_text().splitlines()
    assert rows[0] == "partition_rgs,K,log_weight,probability"
    table = {line.split(",")[0].strip('"') + "," + line.split(",")[1].strip('"'):
             float(line.rsplit(",", 1)[1]) for line in rows[1:]}
    assert table["0,0"] == pytest.approx(0.9, abs=1e-12)
    assert table["0,1"] == pytest.approx(0.1, abs=1e-12)
    map_row = (out / "map_partition.csv").read_text().splitlines()[1]
    assert map_row.startswith('"0,0"')


def test_exact_max_k_restriction(tmp_path, toy_csv):
    out = tmp_path / "single"
    assert main(["exact", "--config", exact_config(tmp_path, toy_csv),
                 "--out", str(out), "--max-k", "1"]) == 0
    rows = (out / "posterior_table.csv").read_text().splitlines()
    assert len(rows) == 2
    assert float(rows[1].rsplit(",", 1)[1]) == pytest.approx(1.0, abs=1e-12)


def _rgs_recursive(n, cap, prefix=(0,)):
    if len(prefix) == n:
        yield prefix
        return
    for lab in range(min(max(prefix) + 2, cap)):
        yield from _rgs_recursive(n, cap, prefix + (lab,))


def _reference_table(data, cfg, max_k):
    """posterior_table.csv rebuilt one partition at a time."""
    weights = BlockWeights(data, cfg)
    log_norm = exact_posterior(data, cfg, max_K=max_k, retain=False,
                               weights=weights).log_normalizer
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("partition_rgs", "K", "log_weight", "probability"))
    for labels in _rgs_recursive(data.n, data.n if max_k is None else max_k):
        part = Partition(labels)
        masks = part.block_masks()
        total = weights.block(masks[0])
        for mask in masks[1:]:  # left to right, as Python 3.11's sum() adds
            total += weights.block(mask)
        lw = math.lgamma(part.K + 1) + total
        assert lw == weights.class_weight(part)
        writer.writerow((",".join(map(str, labels)), str(part.K), format(lw, ".17g"),
                         format(math.exp(lw - log_norm), ".17g")))
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("n, max_k", [(1, None), (2, None), (7, None), (7, 2)])
def test_exact_table_bytes_match_reference(tmp_path, monkeypatch, n, max_k):
    # a tiny chunk bound makes the table cross many chunk boundaries
    monkeypatch.setattr(partitions, "RGS_CHUNK_ROWS", 5)
    points = tmp_path / "points.csv"
    rows = np.random.default_rng(n).normal(size=(n, 2))
    points.write_text("".join(",".join(format(x, ".17g") for x in r) + "\n" for r in rows))
    cfg_path = tmp_path / "exact.json"
    write_json(cfg_path, {"data": str(points),
                          "kernel": {"family": "euclidean-gaussian", "sigma": 1.0},
                          "log_delta_lambda": -1.5})
    out = tmp_path / "out"
    argv = ["exact", "--config", str(cfg_path), "--out", str(out)]
    if max_k is not None:
        argv += ["--max-k", str(max_k)]
    assert main(argv) == 0
    data = read_euclidean_csv(points)
    cfg = BsfConfig(kernel=KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=1.0), log_lambda=-1.5)
    got = (out / "posterior_table.csv").read_bytes()
    assert got == _reference_table(data, cfg, max_k)
    if n == 1:
        assert got.splitlines()[1].startswith(b"0,1,")  # a one-label RGS is not quoted


def test_rgs_strings_with_two_digit_labels():
    # label 10 is the byte of a newline; labels above 9 take two digits
    rows = [list(range(12)), [0] * 12, [0, 1, 0, 2, 3, 4, 5, 6, 7, 8, 9, 10]]
    assert _rgs_strings(np.array(rows, dtype=np.int64)) == [
        ",".join(map(str, row)) for row in rows]


@pytest.mark.parametrize("rows, lws, log_norm", [
    # labels 10 and 11 occur only at n >= 11 and n >= 12; probabilities of 1, of a
    # subnormal, of 0.0 (underflow), and a log weight of -0.0
    ([list(range(12)), [0] * 12, [0, 1, 0, 2, 3, 4, 5, 6, 7, 8, 9, 10],
      [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 10]], [-0.0, -740.0, -800.0, 0.0], 0.0),
    ([[0]], [-0.0], -0.0),  # n = 1: a one-label RGS has no comma, so no quotes
    # large, large negative, subnormal and -inf log weights
    ([[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1], [0, 1, 2]],
     [123456789.125, -98765432.5, 5e-324, float("-inf"), 123456789.0], 123456789.5),
])
def test_table_chunks_match_csv_writer(rows, lws, log_norm):
    labels = np.array(rows, dtype=np.int64)
    ks = labels.max(axis=1) + 1
    lws = np.array(lws)
    chunks = [(labels[:1], ks[:1], lws[:1]), (labels[1:], ks[1:], lws[1:])]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row, k, lw in zip(rows, ks.tolist(), lws.tolist()):
        writer.writerow((",".join(map(str, row)), str(k), format(lw, ".17g"),
                         format(math.exp(lw - log_norm), ".17g")))
    assert "".join(_table_chunks(iter(chunks), log_norm)) == buf.getvalue()


_ORACLE = {"means": [[0.0], [3.0]], "covs": [[[1.0]], [[2.0]]]}
_ORACLE_MEANS, _ORACLE_COVS = ((0.0,), (3.0,)), (((1.0,),), ((2.0,),))
_SPD_ORACLE = {"means": [[[1.0]], [[2.0]]], "noise_scales": [0.1, 0.2]}
_SPD_MEANS = (((1.0,),), ((2.0,),))


# id: parser; a minimal section and the library object it must equal; a
# section with every key and its object; the keys whose null reads as absent,
# the keys whose null is refused, and the required keys
@pytest.mark.parametrize("parse, minimal, minimal_obj, full, full_obj, null_absent, "
                         "null_refused, required", [
    pytest.param(
        _parse_kernel, {"family": EUCLIDEAN_GAUSSIAN, "sigma": 1.5},
        KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=1.5),
        {"family": GRAPH_LAPLACIAN_GAUSSIAN, "sigma": 2, "zeta": 0.5, "eta": 0.25,
         "graph_mode": "frobenius"},
        KernelSpec(GRAPH_LAPLACIAN_GAUSSIAN, sigma=2.0, zeta=0.5, eta=0.25,
                   graph_mode="frobenius"),
        ["zeta"], ["eta", "sigma"], ["family", "sigma"], id="kernel"),
    pytest.param(
        _parse_gaussian_oracle, _ORACLE,
        GaussianOracleSpec(means=_ORACLE_MEANS, covs=_ORACLE_COVS),
        {**_ORACLE, "weights": [1, 3.5]},
        GaussianOracleSpec(means=_ORACLE_MEANS, covs=_ORACLE_COVS, weights=(1.0, 3.5)),
        ["weights", "counts"], ["means"], ["means", "covs"], id="gaussian-oracle"),
    pytest.param(
        _parse_gaussian_oracle, _ORACLE,
        GaussianOracleSpec(means=_ORACLE_MEANS, covs=_ORACLE_COVS),
        {**_ORACLE, "counts": [2, 3.0]},
        GaussianOracleSpec(means=_ORACLE_MEANS, covs=_ORACLE_COVS, counts=(2, 3)),
        ["weights", "counts"], ["covs"], ["means", "covs"], id="gaussian-oracle-counts"),
    pytest.param(
        _parse_spd_oracle, _SPD_ORACLE, ObjectOracleSpec(means=_SPD_MEANS, noise_scales=(0.1, 0.2)),
        {**_SPD_ORACLE, "counts": [4, 1]},
        ObjectOracleSpec(means=_SPD_MEANS, noise_scales=(0.1, 0.2), counts=(4, 1)),
        ["counts"], ["noise_scales"], ["means", "noise_scales"], id="spd-oracle"),
    pytest.param(
        _parse_schedule, {"kind": "fixed", "sigma2": 2, "log_delta_lambda": -3},
        FixedSchedule(sigma2=2.0, log_delta_lambda=-3.0),
        {"kind": "fixed", "sigma2": 2, "log_delta_lambda": -3},
        FixedSchedule(sigma2=2.0, log_delta_lambda=-3.0),
        [], ["sigma2", "log_delta_lambda"], ["kind", "sigma2"], id="schedule-fixed"),
    pytest.param(
        _parse_schedule, {"kind": "geometric", "sigma2": 2, "base": 3},
        FixedSchedule(sigma2=2.0, geometric_base=3.0),
        {"kind": "geometric", "sigma2": 2, "base": 3},
        FixedSchedule(sigma2=2.0, geometric_base=3.0),
        [], ["sigma2", "base"], ["kind", "sigma2", "base"], id="schedule-geometric"),
    pytest.param(
        _parse_schedule, {"kind": "snr"}, SnrSchedule(),
        {"kind": "snr", "alpha": 0.25, "iota": 2}, SnrSchedule(alpha=0.25, iota=2.0),
        [], ["alpha", "iota"], ["kind"], id="schedule-snr"),
    pytest.param(
        _parse_phi, {}, DEFAULT_PHI,
        {"c1": 2, "c2": 3.0, "iota1": 4, "iota2": 5}, SeparationConstants(2.0, 3.0, 4.0, 5.0),
        [], ["c1", "iota2"], [], id="phi"),
    pytest.param(
        _parse_mcmc, {}, McmcSettings(),
        {"iters": 30, "burnin": 10.0, "thin": 2}, McmcSettings(iters=30, burnin=10, thin=2),
        [], ["iters", "thin"], [], id="mcmc"),
    pytest.param(
        _parse_rule, {}, BandwidthRule(), {"fraction": 0.5}, BandwidthRule(fraction=0.5),
        [], ["fraction"], [], id="bandwidth_rule"),
])
def test_config_sections_build_library_types(parse, minimal, minimal_obj, full, full_obj,
                                             null_absent, null_refused, required):
    for raw, expected in ((minimal, minimal_obj), (full, full_obj)):
        got = parse(raw)
        assert got == expected and type(got) is type(expected)
    for key in null_absent:
        assert parse({**minimal, key: None}) == minimal_obj
    for key in null_refused:
        with pytest.raises(ConfigError):
            parse({**full, key: None})
    for key in required:
        with pytest.raises(ConfigError, match=f"missing required key '{key}'"):
            parse({k: v for k, v in full.items() if k != key})
    # a key the type has no field for is refused, as is a field's own name
    # where the section spells the key otherwise
    with pytest.raises(ConfigError, match="unknown keys"):
        parse({**full, "mystery": 1})
    if full.get("kind") == "geometric":
        with pytest.raises(ConfigError, match="unknown keys"):
            parse({**full, "geometric_base": 3})


def test_exit_codes(tmp_path, toy_csv, capsys):
    inf = math.inf
    assert main(["exact", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o")]) == 2
    missing_data = tmp_path / "missing.json"
    write_json(missing_data, {
        "data": str(tmp_path / "nope.csv"),
        "kernel": {"family": "euclidean-gaussian", "sigma": 1.0},
    })
    assert main(["exact", "--config", str(missing_data),
                 "--out", str(tmp_path / "o")]) == 3
    # the generator's own data check keeps its exit code
    unbounded = tmp_path / "unbounded.json"
    write_json(unbounded, {"n": 2, "oracle": {"means": [[math.inf], [0.0]],
                                              "covs": [[[1.0]], [[1.0]]]}})
    assert main(["gen-data", "--config", str(unbounded), "--out", str(tmp_path / "o")]) == 3
    assert main(["exact", "--config",
                 exact_config(tmp_path, toy_csv, enum_cap=1),
                 "--out", str(tmp_path / "o")]) == 4
    unknown = tmp_path / "unknown.json"
    write_json(unknown, {
        "data": toy_csv,
        "kernel": {"family": "euclidean-gaussian", "sigma": 1.0},
        "mystery": True,
    })
    assert main(["exact", "--config", str(unknown),
                 "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()
    # values of the wrong type or range, each a config error and no traceback
    model = {"data": toy_csv, "kernel": {"family": "euclidean-gaussian", "sigma": 1.0}}
    three_points = str(tmp_path / "three.csv")
    (tmp_path / "three.csv").write_text("0.0\n1.0\n3.0\n")
    two_clusters = {"means": [[0.0], [9.0]], "covs": [[[1.0]], [[1.0]]]}
    one_cluster = {"means": [[0.0]], "covs": [[[1.0]]]}
    three_clusters = {"means": [[0.0], [9.0], [20.0]], "covs": [[[1.0]]] * 3}
    bad = [
        ("mcmc", {**model, "kernel": {"family": "euclidean-gaussian", "sigma": "abc"}}),
        ("mcmc", {**model, "mcmc": {"iters": "many"}}),
        ("misclass", {"oracle": two_clusters, "snr_grid": [1.0], "n": 4, "replicates": 1,
                      "bandwidth_rule": {"fraction": 0}}),
        ("experiment", {"oracle": one_cluster,
                        "schedule": {"kind": "snr"}, "n_grid": [4], "replicates": 1}),
        # an integer key refuses a fraction, which int() would truncate, and a bool
        ("mcmc", {**model, "mcmc": {"iters": 30.7, "burnin": 1}}),
        ("mcmc", {**model, "mcmc": {"iters": True, "burnin": 0}}),
        # an oracle field of the wrong JSON type
        ("experiment", {"oracle": {**two_clusters, "means": 5},
                        "schedule": {"kind": "snr"}, "n_grid": [4], "replicates": 1}),
        # oracle and grid that no replicate could run: the bandwidth rule needs
        # two clusters, and n = 2 points cannot hold three
        ("misclass", {"oracle": one_cluster, "snr_grid": [1.0], "n": 4, "replicates": 1}),
        ("experiment", {"oracle": three_clusters, "schedule": {"kind": "snr"},
                        "n_grid": [2], "replicates": 1}),
        # the known-K posterior needs as many points as clusters, whatever the sizing
        ("misclass", {"oracle": {**three_clusters, "weights": [1, 1, 1]}, "snr_grid": [1.0],
                      "n": 2, "replicates": 1}),
        ("misclass", {"oracle": {**three_clusters, "counts": [2, 0, 0]}, "snr_grid": [1.0],
                      "n": 2, "replicates": 1}),
        # label weights and counts are checked when the oracle is built
        ("experiment", {"oracle": {**two_clusters, "weights": [1.0, -1.0]},
                        "schedule": {"kind": "snr"}, "n_grid": [4], "replicates": 1}),
        ("experiment", {"oracle": {**two_clusters, "weights": [1.0]},
                        "schedule": {"kind": "snr"}, "n_grid": [4], "replicates": 1}),
        ("misclass", {"oracle": {**two_clusters, "counts": [-1, 7]}, "snr_grid": [1.0],
                      "n": 6, "replicates": 1}),
        # gen-data sizes the oracle before it draws, for both kinds
        ("gen-data", {"kind": "gaussian", "n": 2, "oracle": three_clusters}),
        ("gen-data", {"kind": "spd", "n": 2, "oracle": {
            "means": [[[1.0]], [[2.0]], [[3.0]]], "noise_scales": [0.1, 0.1, 0.1]}}),
        ("gen-data", {"kind": "spd", "n": 2, "oracle": {
            "means": [[[1.0]], [[2.0]]], "noise_scales": [0.1, 0.1], "counts": [-1, 3]}}),
        # coincident means leave the bandwidth rule no separation to scale
        ("misclass", {"oracle": {**two_clusters, "means": [[0.0], [0.0]]},
                      "snr_grid": [0.0, 1.0], "n": 4, "replicates": 1}),
        ("experiment", {"oracle": two_clusters, "schedule": {"kind": "snr"}, "n_grid": [4],
                        "replicates": 1, "mode": "bogus"}),
        # a chain enumerates nothing, so it has no enumeration cap to set
        ("mcmc", {**model, "enum_cap": 1}),
        # the harnesses check their whole design before any replicate: a cap
        # below 1 is a bad value in either mode, not a cap violation
        ("experiment", {"oracle": two_clusters, "schedule": {"kind": "snr"}, "n_grid": [4],
                        "replicates": 1, "mode": "mcmc", "enum_cap": 0}),
        ("experiment", {"oracle": two_clusters, "schedule": {"kind": "snr"}, "n_grid": [4],
                        "replicates": 1, "enum_cap": 0}),
        ("misclass", {"oracle": two_clusters, "snr_grid": [1.0], "n": 4, "replicates": 1,
                      "enum_cap": 0}),
        ("misclass", {"oracle": two_clusters, "snr_grid": [1.0, -1], "n": 4,
                      "replicates": 1}),
        # a non-finite value passes no range check
        ("exact", {**model, "kernel": {"family": "euclidean-gaussian", "sigma": inf}}),
        ("mcmc", {**model, "kernel": {"family": "euclidean-gaussian", "sigma": inf}}),
        ("exact", {**model, "kernel": {"family": "riemannian-gaussian-spd", "sigma": 1.0,
                                       "zeta": inf}}),
        ("exact", {**model, "kernel": {"family": "graph-laplacian-gaussian", "sigma": 1.0,
                                       "eta": inf, "graph_mode": "frobenius"}}),
        ("misclass", {"oracle": two_clusters, "snr_grid": [1.0], "n": 4, "replicates": 1,
                      "bandwidth_rule": {"fraction": inf}}),
        ("misclass", {"oracle": two_clusters, "snr_grid": [inf], "n": 4, "replicates": 1}),
        ("experiment", {"oracle": two_clusters, "n_grid": [4], "replicates": 1,
                        "schedule": {"kind": "fixed", "sigma2": 1.0, "log_delta_lambda": inf}}),
        ("experiment", {"oracle": two_clusters, "n_grid": [4], "replicates": 1,
                        "schedule": {"kind": "fixed", "sigma2": inf, "log_delta_lambda": 0.0}}),
        ("experiment", {"oracle": two_clusters, "n_grid": [4], "replicates": 1,
                        "schedule": {"kind": "geometric", "sigma2": 1.0, "base": inf}}),
        ("experiment", {"oracle": two_clusters, "n_grid": [4], "replicates": 1,
                        "schedule": {"kind": "snr", "iota": inf}}),
        ("experiment", {"oracle": two_clusters, "schedule": {"kind": "snr"}, "n_grid": [4],
                        "replicates": 1, "phi": {"c1": inf}}),
        # the kernel names the payload family and log_delta_lambda is the prior
        ("exact", {**model, "family": "euclidean"}),
        ("exact", {**model, "delta": 1.0}),
        ("mcmc", {**model, "lambda": 1.0}),
        ("exact", {**model, "log_delta_lambda": None}),
        # huge finite values: sigma^2 overflows, scaled means too far apart to
        # square their distance, n past numpy's sizes, and a prior paid once
        # per block that overflows over three blocks
        ("exact", {**model, "kernel": {"family": "euclidean-gaussian", "sigma": 1e308}}),
        ("mcmc", {**model, "kernel": {"family": "euclidean-gaussian", "sigma": 1e308}}),
        ("misclass", {"oracle": two_clusters, "snr_grid": [1.0, 1e308], "n": 4,
                      "replicates": 1}),
        ("gen-data", {"kind": "gaussian", "n": 1e308, "oracle": two_clusters}),
        ("experiment", {"oracle": two_clusters, "schedule": {"kind": "snr"},
                        "n_grid": [4, 1e308], "replicates": 1, "mode": "mcmc"}),
        ("exact", {**model, "data": three_points, "log_delta_lambda": 1e308}),
        # a float key refuses a boolean, which float() would read as 1.0
        ("exact", {**model, "kernel": {"family": "euclidean-gaussian", "sigma": True}}),
        ("mcmc", {**model, "kernel": {"family": "euclidean-gaussian", "sigma": False}}),
        ("exact", {**model, "log_delta_lambda": True}),
        ("mcmc", {**model, "log_delta_lambda": True}),
        ("exact", {**model, "kernel": {"family": "riemannian-gaussian-spd", "sigma": 1.0,
                                       "zeta": True}}),
        ("misclass", {"oracle": two_clusters, "snr_grid": [1.0, True], "n": 4,
                      "replicates": 1}),
        ("misclass", {"oracle": two_clusters, "snr_grid": [1.0], "n": 4, "replicates": 1,
                      "bandwidth_rule": {"fraction": True}}),
        ("experiment", {"oracle": two_clusters, "n_grid": [4], "replicates": 1,
                        "schedule": {"kind": "fixed", "sigma2": True, "log_delta_lambda": 0.0}}),
        ("experiment", {"oracle": two_clusters, "n_grid": [4], "replicates": 1,
                        "schedule": {"kind": "geometric", "sigma2": 1.0, "base": True}}),
        ("experiment", {"oracle": two_clusters, "schedule": {"kind": "snr", "alpha": True},
                        "n_grid": [4], "replicates": 1}),
        ("experiment", {"oracle": two_clusters, "schedule": {"kind": "snr"}, "n_grid": [4],
                        "replicates": 1, "phi": {"iota2": True}}),
        # oracle values no draw could use
        ("experiment", {"oracle": {**two_clusters, "weights": [inf, 0.5]},
                        "schedule": {"kind": "snr"}, "n_grid": [4], "replicates": 1}),
        ("gen-data", {"kind": "spd", "n": 4, "oracle": {
            "means": [[[1.0]], [[2.0, 0.0], [0.0, 1.0]]], "noise_scales": [0.1, 0.1]}}),
    ]
    for i, (command, payload) in enumerate(bad):
        path = tmp_path / f"bad{i}.json"
        write_json(path, payload)
        argv = [command, "--config", str(path), "--out", str(tmp_path / "o")]
        if command in ("experiment", "misclass"):
            argv += ["--workers", "1"]
        assert main(argv) == 2, payload
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err, err
    # the spd oracle names its own shape fault
    assert "means disagree on shape" in err
    # a cap above the enumeration core's, or above the DP's for a run of the
    # DP alone, is a cap violation before any work
    points = tmp_path / "fourteen.csv"
    points.write_text("".join(f"{i}.0\n" for i in range(14)))
    capped = [
        ("exact", {**model, "data": str(points), "enum_cap": 14}),
        ("misclass", {"oracle": two_clusters, "snr_grid": [1.0], "n": 14, "replicates": 1,
                      "enum_cap": 14}),
        ("experiment", {"oracle": two_clusters, "schedule": {"kind": "snr"}, "n_grid": [17],
                        "replicates": 1, "enum_cap": 17}),
    ]
    for i, (command, payload) in enumerate(capped):
        path, out = tmp_path / f"capped{i}.json", tmp_path / f"capped{i}"
        write_json(path, payload)
        argv = [command, "--config", str(path), "--out", str(out)]
        if command in ("experiment", "misclass"):
            argv += ["--workers", "1"]
        assert main(argv) == 4, command
        err = capsys.readouterr().err
        assert err.startswith("cap violation:") and "Traceback" not in err, err
        assert not out.exists()
    assert "exceeds the enumeration cap 16" in err


_EUCLIDEAN_KERNEL = {"family": "euclidean-gaussian", "sigma": 1.0}
_SPD_KERNEL = {"family": "riemannian-gaussian-spd", "sigma": 1.0}


@pytest.mark.parametrize("command", ["exact", "mcmc"])
@pytest.mark.parametrize("kernel", [_EUCLIDEAN_KERNEL, _SPD_KERNEL], ids=["euclidean", "spd"])
def test_data_must_be_a_path_string(tmp_path, capsys, command, kernel):
    # an integer or boolean would open a file descriptor; false is stdin
    for i, value in enumerate([None, 0, -1, 2.5, True, False, [1], [], {}, {"path": "x"}]):
        path = tmp_path / f"data{i}.json"
        write_json(path, {"data": value, "kernel": kernel})
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: data must be a path string"), err


def _laplacian_stack(path, n, rng):
    """n weighted-graph Laplacians on 3 nodes, as a matrix stack."""
    mats = []
    for _ in range(n):
        w = np.triu(rng.uniform(0.2, 2.0, size=(3, 3)), 1)
        w = w + w.T
        mats.append(np.diag(w.sum(axis=1)) - w)
    write_matrix_stack(path, Dataset(GRAPH_LAPLACIAN, tuple(mats)))
    return str(path)


@pytest.mark.parametrize("kernel", [
    {"family": "riemannian-gaussian-spd", "sigma": 0.8, "zeta": 0.5},
    {"family": "graph-laplacian-gaussian", "sigma": 1.5, "eta": 0.5},
    {"family": "graph-laplacian-gaussian", "sigma": 1.5, "graph_mode": "frobenius"},
], ids=["spd", "laplacian-geodesic", "laplacian-frobenius"])
def test_matrix_valued_data_through_exact_and_mcmc(tmp_path, kernel):
    # the kernel alone says how to read the data: no payload family key
    if kernel["family"] == "riemannian-gaussian-spd":
        gen = tmp_path / "gen.json"
        write_json(gen, {"kind": "spd", "n": 6, "oracle": {
            "means": [[[1.0, 0.0], [0.0, 1.0]], [[3.0, 1.0], [1.0, 2.0]]],
            "noise_scales": [0.2, 0.3]}})
        assert main(["gen-data", "--config", str(gen), "--out", str(tmp_path), "--seed", "4"]) == 0
        points = str(tmp_path / "data.mats")
    else:
        points = _laplacian_stack(tmp_path / "graphs.mats", 6, np.random.default_rng(5))
    model = {"data": points, "kernel": kernel, "log_delta_lambda": -1.5}
    data = read_matrix_stack(points, KernelSpec(**kernel).payload_family)
    cfg = BsfConfig(KernelSpec(**kernel), log_lambda=-1.5)
    exact_cfg, mcmc_cfg = tmp_path / "exact.json", tmp_path / "mcmc.json"
    write_json(exact_cfg, model)
    write_json(mcmc_cfg, {**model, "mcmc": {"iters": 300, "burnin": 30, "thin": 1}})
    out = tmp_path / "exact"
    assert main(["exact", "--config", str(exact_cfg), "--out", str(out)]) == 0
    assert (out / "posterior_table.csv").read_bytes() == _reference_table(data, cfg, None)
    out = tmp_path / "mcmc"
    assert main(["mcmc", "--config", str(mcmc_cfg), "--out", str(out), "--seed", "9"]) == 0
    summary = run_chain(data, cfg, McmcSettings(300, 30, 1), seed=9)
    samples = (out / "samples.csv").read_text().splitlines()[1:]
    assert samples == [f'{i},"{",".join(map(str, labels))}"'
                       for i, labels in enumerate(summary.samples)]


def test_config_values_sweep_raises_no_traceback(tmp_path, toy_csv, capsys):
    """Every model-section and oracle key set to each odd JSON value: the
    command succeeds or names the fault, and nothing escapes main.  Keys whose
    values only lengthen a valid run (iters, burnin, replicates) are left out."""
    graphs = _laplacian_stack(tmp_path / "graphs.mats", 3, np.random.default_rng(1))
    two = {"means": [[0.0], [9.0]], "covs": [[[1.0]], [[1.0]]]}
    spd = {"means": [[[1.0]], [[2.0]]], "noise_scales": [0.1, 0.2]}
    model = {"data": toy_csv, "kernel": _EUCLIDEAN_KERNEL, "log_delta_lambda": -1.0}
    graph_model = {"data": graphs, "kernel": {"family": "graph-laplacian-gaussian",
                                              "sigma": 1.0, "zeta": 2.0, "eta": 0.5}}
    # (command, base config, swept key paths)
    bases = [
        ("exact", {**model, "enum_cap": 12},
         ["data", "kernel", "kernel.family", "kernel.sigma", "kernel.zeta", "kernel.eta",
          "kernel.graph_mode", "log_delta_lambda", "enum_cap"]),
        ("exact", graph_model, ["kernel.zeta", "kernel.eta", "kernel.graph_mode"]),
        ("mcmc", {**model, "mcmc": {"iters": 40, "burnin": 4, "thin": 1}},
         ["data", "kernel.sigma", "log_delta_lambda", "mcmc.thin"]),
        ("gen-data", {"kind": "gaussian", "n": 4, "oracle": two},
         ["n", "oracle", "oracle.means", "oracle.covs", "oracle.weights", "oracle.counts"]),
        ("gen-data", {"kind": "spd", "n": 4, "oracle": spd},
         ["oracle.means", "oracle.noise_scales", "oracle.counts"]),
        ("misclass", {"oracle": two, "snr_grid": [1.0], "n": 4, "replicates": 1},
         ["oracle.means", "oracle.covs", "oracle.weights", "oracle.counts", "snr_grid", "n"]),
        ("experiment", {"oracle": two, "schedule": {"kind": "snr"}, "n_grid": [4],
                        "replicates": 1},
         ["oracle.means", "oracle.covs", "oracle.weights", "oracle.counts", "n_grid"]),
    ]
    values = [None, True, "x", [1], {}, -1, 1e308, math.inf, math.nan]
    path = tmp_path / "sweep.json"
    for command, base, keys in bases:
        for key in keys:
            for value in values:
                payload = json.loads(json.dumps(base))
                *outer, last = key.split(".")
                section = payload
                for name in outer:
                    section = section[name]
                section[last] = value
                write_json(path, payload)
                argv = [command, "--config", str(path), "--out", str(tmp_path / "o")]
                if command in ("experiment", "misclass"):
                    argv += ["--workers", "1"]
                code = main(argv)
                err = capsys.readouterr().err
                assert code in (0, 2, 3) and "Traceback" not in err, (command, key, value, err)


@pytest.mark.parametrize("argv", [
    ["exact", "--seed", "1"],
    ["exact", "--workers", "2"],
    ["mcmc", "--workers", "2"],
    ["gen-data", "--workers", "2"],
    ["experiment", "--mode", "mcmc"],  # the config's mode is the one source
])
def test_options_a_subcommand_does_not_read_are_rejected(argv, capsys):
    command, *flag = argv
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--config", "c.json", *flag])
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    *[(command, "--seed", "-1") for command in ("mcmc", "experiment", "misclass", "gen-data",
                                                "verify")],
    ("verify", "--trials", "0"),
    ("verify", "--trials", "-1"),
    ("exact", "--max-k", "0"),
    ("experiment", "--workers", "0"),
    ("misclass", "--workers", "-1"),
])
def test_out_of_range_flags_exit_2_before_any_output(tmp_path, capsys, command, flag, value):
    out = tmp_path / "o"
    argv = [command, flag, value]
    if command != "verify":
        argv += ["--config", str(tmp_path / "c.json"), "--out", str(out)]
    with pytest.raises(SystemExit) as exc:  # from the parser, before the command runs
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2 and f"argument {flag}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["experiment", "misclass"])
def test_replicate_harnesses_take_workers(command):
    args = build_parser().parse_args(
        [command, "--config", "c.json", "--workers", "3", "--seed", "4"])
    assert (args.workers, args.seed) == (3, 4)


@pytest.mark.parametrize("command", ["experiment", "misclass"])
def test_workers_default_to_the_cpus_the_process_may_run_on(command, monkeypatch):
    def workers():
        return build_parser().parse_args([command, "--config", "c.json"]).workers

    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 5}, raising=False)
    assert workers() == 2
    # a platform without affinity masks falls back to the host's count
    monkeypatch.delattr(os, "sched_getaffinity")
    assert workers() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert workers() == 1


def test_malformed_json_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["mcmc", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_experiment_zero_replicates_rejected(tmp_path):
    cfg = tmp_path / "exp.json"
    write_json(cfg, {
        "oracle": {"means": [[0.0]], "covs": [[[1.0]]]},
        "schedule": {"kind": "geometric", "sigma2": 1.0, "base": 3.0},
        "n_grid": [4],
        "replicates": 0,
    })
    assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_mcmc_outputs_and_determinism(tmp_path, toy_csv, capsys):
    cfg = exact_config(tmp_path, toy_csv)
    with open(cfg) as fh:
        payload = json.load(fh)
    payload["mcmc"] = {"iters": 400, "burnin": 50, "thin": 1}
    mcfg = tmp_path / "mcmc.json"
    write_json(mcfg, payload)
    out1, out2 = tmp_path / "m1", tmp_path / "m2"
    assert main(["mcmc", "--config", str(mcfg), "--out", str(out1), "--seed", "9"]) == 0
    assert main(["mcmc", "--config", str(mcfg), "--out", str(out2), "--seed", "9"]) == 0
    for name in ("cocluster.csv", "k_histogram.csv", "samples.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header = (out1 / "samples.csv").read_text().splitlines()[0]
    assert header == "sample,partition_rgs"
    # two points: the full table is in, so no block is priced on a miss
    printed = capsys.readouterr().out
    assert "block log-dets priced on a miss: 0 alone, 0 in 0 stacks; 0 evicted" in printed
    # and each of the 400 x 2 Gibbs sites was a memo hit or a miss
    hits, misses = (int(x) for x in re.search(
        r"Gibbs conditionals: (\d+) memo hits, (\d+) misses", printed).groups())
    assert hits + misses == 800 and hits > misses


def test_gen_data_roundtrip(tmp_path):
    cfg = tmp_path / "gen.json"
    write_json(cfg, {
        "kind": "gaussian",
        "n": 6,
        "oracle": {"means": [[0.0, 0.0], [4.0, 0.0]],
                   "covs": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]},
    })
    out = tmp_path / "gen"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out), "--seed", "2"]) == 0
    data = read_euclidean_csv(out / "data.csv")
    assert data.n == 6 and data.dim == 2
    labels = (out / "truth_labels.csv").read_text().splitlines()
    assert labels[0] == "index,label" and len(labels) == 7


def test_gen_data_spd_roundtrip(tmp_path):
    cfg = tmp_path / "gen.json"
    write_json(cfg, {
        "kind": "spd",
        "n": 4,
        "oracle": {"means": [[[1.0, 0.0], [0.0, 1.0]]], "noise_scales": [0.1]},
    })
    out = tmp_path / "spd"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    data = read_matrix_stack(out / "data.mats", "spd")
    assert data.n == 4 and data.dim == 2
    stale = tmp_path / "stale.json"
    write_json(stale, {
        "kind": "spd",
        "n": 4,
        "oracle": {"means": [[[1.0, 0.0], [0.0, 1.0]]], "noise_scales": [0.1],
                   "tail_exponent": 2.0},
    })
    assert main(["gen-data", "--config", str(stale), "--out", str(tmp_path / "s")]) == 2


def test_matrix_stack_roundtrip(tmp_path):
    from bsf.data import SPD

    rng = np.random.default_rng(0)
    mats = []
    for _ in range(3):
        a = rng.normal(size=(2, 2))
        mats.append(a @ a.T + 2 * np.eye(2))
    data = Dataset(SPD, tuple(mats))
    path = tmp_path / "stack.mats"
    write_matrix_stack(path, data)
    back = read_matrix_stack(path, SPD)
    for a, b in zip(data.points, back.points):
        assert np.array_equal(a, b)


def test_verify_subcommand(capsys):
    assert main(["verify", "--trials", "30", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6


def test_float_serialization_roundtrips(tmp_path, toy_csv):
    out = tmp_path / "r"
    main(["exact", "--config", exact_config(tmp_path, toy_csv), "--out", str(out)])
    line = (out / "posterior_table.csv").read_text().splitlines()[1]
    prob = line.rsplit(",", 1)[1]
    assert float(prob) == 0.8999999999999996  # 17 digits: round-trip exact


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(bsf.__file__)))
    code = "import sys, bsf.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
