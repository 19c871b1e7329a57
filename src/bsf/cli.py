"""Command-line entry point: strict JSON configs in, CSV tables out.

Subcommands: ``exact`` (enumerated posterior), ``mcmc`` (one chain),
``experiment`` (consistency harness), ``misclass`` (known-cluster-count
misclassification harness), ``verify`` (determinant-identity checks),
``gen-data`` (oracle samples to disk).

Exit codes: 0 success, 2 configuration error, 3 data ingestion error,
4 enumeration-cap violation, 1 verification failure.  Unknown config keys
are rejected.  Floats are serialized with 17 significant digits, so equal
runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from .data import (
    EUCLIDEAN,
    Dataset,
    IngestionError,
    read_euclidean_csv,
    read_matrix_stack,
    write_euclidean_csv,
    write_matrix_stack,
)
from .experiments import (
    BandwidthRule,
    FixedSchedule,
    McmcSettings,
    SnrSchedule,
    consistency_experiment,
    misclassification_experiment,
)
from .kernels import EUCLIDEAN_GAUSSIAN, KERNEL_FAMILIES, KernelSpec
from .oracle import (
    DEFAULT_PHI,
    GaussianOracleSpec,
    ObjectOracleSpec,
    SeparationConstants,
    generate_gaussian,
    generate_spd,
)
from .posterior import BlockWeights, BsfConfig, exact_posterior, iter_class_weights
from .sampler import run_chain
from .theory import DEFAULT_TRIALS, run_all

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_INGEST = 3
EXIT_CAP = 4


class ConfigError(ValueError):
    pass


class CapError(ValueError):
    pass


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path: str, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            if isinstance(row, dict):
                writer.writerow([_fmt(row[c]) for c in columns])
            else:
                writer.writerow([_fmt(v) for v in row])


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


class _Section:
    """Strict dict view: every key must be consumed exactly once."""

    def __init__(self, raw: dict, name: str):
        if not isinstance(raw, dict):
            raise ConfigError(f"{name} must be a JSON object")
        self.raw = dict(raw)
        self.name = name

    def take(self, key, default=...):
        if key in self.raw:
            return self.raw.pop(key)
        if default is ...:
            raise ConfigError(f"{self.name}: missing required key {key!r}")
        return default

    def done(self):
        if self.raw:
            raise ConfigError(f"{self.name}: unknown keys {sorted(self.raw)}")


def _parse_kernel(raw: dict) -> KernelSpec:
    sec = _Section(raw, "kernel")
    family = sec.take("family")
    if family not in KERNEL_FAMILIES:
        raise ConfigError(f"kernel family must be one of {KERNEL_FAMILIES}")
    sigma = float(sec.take("sigma"))
    zeta = sec.take("zeta", None)
    eta = float(sec.take("eta", 0.0))
    graph_mode = sec.take("graph_mode", "geodesic")
    sec.done()
    try:
        return KernelSpec(family, sigma=sigma,
                          zeta=None if zeta is None else float(zeta),
                          eta=eta, graph_mode=graph_mode)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_prior(sec: _Section) -> tuple[float, float]:
    """Returns (log_delta, log_lambda) from delta/lambda or their log product."""
    delta = sec.take("delta", None)
    lam = sec.take("lambda", None)
    log_dl = sec.take("log_delta_lambda", None)
    if log_dl is not None:
        if delta is not None or lam is not None:
            raise ConfigError("give delta/lambda or log_delta_lambda, not both")
        return 0.0, float(log_dl)
    delta = 1.0 if delta is None else float(delta)
    lam = 1.0 if lam is None else float(lam)
    if delta <= 0 or lam <= 0:
        raise ConfigError("delta and lambda must be positive")
    return math.log(delta), math.log(lam)


def _load_dataset(sec: _Section) -> Dataset:
    path = sec.take("data")
    family = sec.take("family", EUCLIDEAN)
    if family == EUCLIDEAN:
        return read_euclidean_csv(path)
    return read_matrix_stack(path, family)


def _parse_model(cfg: dict, name: str) -> tuple[Dataset, BsfConfig, _Section]:
    sec = _Section(cfg, name)
    data = _load_dataset(sec)
    kernel = _parse_kernel(sec.take("kernel"))
    log_delta, log_lambda = _parse_prior(sec)
    enum_cap = int(sec.take("enum_cap", 12))
    try:
        model = BsfConfig(kernel=kernel, log_delta=log_delta,
                          log_lambda=log_lambda, enum_cap=enum_cap)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return data, model, sec


def _parse_gaussian_oracle(raw: dict) -> GaussianOracleSpec:
    sec = _Section(raw, "oracle")
    means = sec.take("means")
    covs = sec.take("covs")
    weights = sec.take("weights", None)
    counts = sec.take("counts", None)
    sec.done()
    try:
        return GaussianOracleSpec(
            means=tuple(means), covs=tuple(covs),
            weights=None if weights is None else tuple(weights),
            counts=None if counts is None else tuple(int(c) for c in counts),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_spd_oracle(raw: dict) -> ObjectOracleSpec:
    sec = _Section(raw, "oracle")
    means = sec.take("means")
    noise = sec.take("noise_scales")
    tail = float(sec.take("tail_exponent", 2.0))
    counts = sec.take("counts", None)
    sec.done()
    try:
        return ObjectOracleSpec(
            means=tuple(means), noise_scales=tuple(noise), tail_exponent=tail,
            counts=None if counts is None else tuple(int(c) for c in counts),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_schedule(raw: dict):
    sec = _Section(raw, "schedule")
    kind = sec.take("kind")
    try:
        if kind == "fixed":
            out = FixedSchedule(sigma2=float(sec.take("sigma2")),
                                log_delta_lambda=float(sec.take("log_delta_lambda")))
        elif kind == "geometric":
            out = FixedSchedule(sigma2=float(sec.take("sigma2")),
                                geometric_base=float(sec.take("base")))
        elif kind == "snr":
            out = SnrSchedule(alpha=float(sec.take("alpha", 0.5)),
                              iota=float(sec.take("iota", 1.0)))
        else:
            raise ConfigError(f"unknown schedule kind {kind!r}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    sec.done()
    return out


def _parse_phi(raw) -> SeparationConstants:
    if raw is None:
        return DEFAULT_PHI
    sec = _Section(raw, "phi")
    try:
        phi = SeparationConstants(
            c1=float(sec.take("c1", 1.0)),
            c2=float(sec.take("c2", 1.0)),
            iota1=float(sec.take("iota1", 1.0)),
            iota2=float(sec.take("iota2", 0.5)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    sec.done()
    return phi


def _parse_mcmc(raw) -> McmcSettings:
    if raw is None:
        return McmcSettings()
    sec = _Section(raw, "mcmc")
    out = McmcSettings(
        iters=int(sec.take("iters", 50_000)),
        burnin=int(sec.take("burnin", 5_000)),
        thin=int(sec.take("thin", 1)),
    )
    sec.done()
    if not (out.iters > out.burnin >= 0) or out.thin < 1:
        raise ConfigError("mcmc schedule needs iters > burnin >= 0 and thin >= 1")
    return out


def _ensure_out(out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


# ---------------------------------------------------------------------------
# subcommands


def cmd_exact(args) -> int:
    data, model, sec = _parse_model(_load_config(args.config), "exact config")
    sec.done()
    if data.n > model.enum_cap:
        raise CapError(f"n={data.n} exceeds the enumeration cap {model.enum_cap}")
    max_k = args.max_k
    if max_k is not None and max_k < 1:
        raise ConfigError("--max-k must be at least 1")
    out = _ensure_out(args.out)
    weights = BlockWeights(data, model)
    table = exact_posterior(data, model, max_K=max_k, retain=False, weights=weights)

    def entry_rows():
        for part, lw in iter_class_weights(data, model, max_K=max_k, weights=weights):
            yield (part.to_string(), part.K, lw, math.exp(lw - table.log_normalizer))

    write_csv(os.path.join(out, "posterior_table.csv"),
              ("partition_rgs", "K", "log_weight", "probability"), entry_rows())
    write_csv(os.path.join(out, "k_marginals.csv"), ("K", "probability"),
              sorted(table.k_marginals().items()))
    write_csv(os.path.join(out, "map_partition.csv"),
              ("partition_rgs", "K", "log_weight", "probability"),
              [(table.map_partition.to_string(), table.map_partition.K,
                table.map_log_weight,
                math.exp(table.map_log_weight - table.log_normalizer))])
    print(f"exact posterior over n={data.n}: wrote 3 tables to {out}")
    return EXIT_OK


def cmd_mcmc(args) -> int:
    data, model, sec = _parse_model(_load_config(args.config), "mcmc config")
    settings = _parse_mcmc(sec.take("mcmc", None))
    sec.done()
    out = _ensure_out(args.out)
    summary = run_chain(data, model, settings.iters, settings.burnin,
                        settings.thin, seed=args.seed)
    n = data.n
    write_csv(os.path.join(out, "cocluster.csv"),
              tuple(f"p{i}" for i in range(n)),
              (tuple(row) for row in summary.cocluster))
    write_csv(os.path.join(out, "k_histogram.csv"), ("K", "fraction"),
              sorted(summary.k_histogram.items()))
    write_csv(os.path.join(out, "samples.csv"), ("sample", "partition_rgs"),
              ((i, ",".join(map(str, labels))) for i, labels in enumerate(summary.samples)))
    for move, rate in summary.acceptance_rates().items():
        print(f"acceptance[{move}] = {rate:.4f}")
    print(f"mcmc: {summary.n_samples} retained samples, wrote 3 tables to {out}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    cfg = _load_config(args.config)
    sec = _Section(cfg, "experiment config")
    spec = _parse_gaussian_oracle(sec.take("oracle"))
    schedule = _parse_schedule(sec.take("schedule"))
    n_grid = [int(n) for n in sec.take("n_grid")]
    replicates = int(sec.take("replicates"))
    phi = _parse_phi(sec.take("phi", None))
    mode = sec.take("mode", "exact")
    enum_cap = int(sec.take("enum_cap", 12))
    settings = _parse_mcmc(sec.take("mcmc", None))
    sec.done()
    if args.mode is not None:
        mode = args.mode
    if replicates < 1:
        raise ConfigError("replicates must be at least 1")
    if not n_grid:
        raise ConfigError("n_grid must be non-empty")
    if mode == "exact" and max(n_grid) > enum_cap:
        raise CapError(f"max n_grid {max(n_grid)} exceeds the enumeration cap {enum_cap}")
    out = _ensure_out(args.out)
    rows, aggregate = consistency_experiment(
        spec, schedule, n_grid, replicates, master_seed=args.seed, mode=mode,
        phi=phi, enum_cap=enum_cap, workers=args.workers, mcmc=settings,
    )
    from .experiments import CONSISTENCY_COLUMNS

    write_csv(os.path.join(out, "replicates.csv"), CONSISTENCY_COLUMNS, rows)
    agg_cols = tuple(aggregate[0].keys())
    write_csv(os.path.join(out, "aggregate.csv"), agg_cols, aggregate)
    for agg in aggregate:
        print(
            f"n={agg['n']}: median prob_truth={agg['prob_truth_median']:.4f} "
            f"median prob_k_true={agg['prob_k_true_median']:.4f} "
            f"membership_rate={agg['membership_rate']:.2f}"
        )
    return EXIT_OK


def cmd_misclass(args) -> int:
    cfg = _load_config(args.config)
    sec = _Section(cfg, "misclass config")
    spec = _parse_gaussian_oracle(sec.take("oracle"))
    snr_grid = [float(s) for s in sec.take("snr_grid")]
    n = int(sec.take("n"))
    replicates = int(sec.take("replicates"))
    rule_sec = _Section(sec.take("bandwidth_rule", {}), "bandwidth_rule")
    rule = BandwidthRule(fraction=float(rule_sec.take("fraction", 0.2)))
    rule_sec.done()
    enum_cap = int(sec.take("enum_cap", 12))
    sec.done()
    if replicates < 1:
        raise ConfigError("replicates must be at least 1")
    if not snr_grid:
        raise ConfigError("snr_grid must be non-empty")
    if n > enum_cap:
        raise CapError(f"n={n} exceeds the enumeration cap {enum_cap}")
    out = _ensure_out(args.out)
    rows, aggregate = misclassification_experiment(
        spec, rule, snr_grid, n, replicates, master_seed=args.seed,
        enum_cap=enum_cap, workers=args.workers,
    )
    from .experiments import MISCLASS_COLUMNS

    write_csv(os.path.join(out, "replicates.csv"), MISCLASS_COLUMNS, rows)
    agg_cols = tuple(aggregate[0].keys())
    write_csv(os.path.join(out, "aggregate.csv"), agg_cols, aggregate)
    for agg in aggregate:
        print(
            f"snr={agg['snr']}: median expected_hamming="
            f"{agg['expected_hamming_median']:.6g}"
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = run_all(trials=args.trials, seed=args.seed)
    print(f"{'lemma':<22} {'trials':<13} {'max violation':<24} status")
    for rep in reports:
        print(rep.line())
    return EXIT_OK if all(rep.passed for rep in reports) else EXIT_VERIFY_FAIL


def cmd_gen_data(args) -> int:
    cfg = _load_config(args.config)
    sec = _Section(cfg, "gen-data config")
    kind = sec.take("kind", "gaussian")
    n = int(sec.take("n"))
    out = _ensure_out(args.out)
    if kind == "gaussian":
        spec = _parse_gaussian_oracle(sec.take("oracle"))
        sec.done()
        data, truth = generate_gaussian(spec, n, args.seed)
        path = os.path.join(out, "data.csv")
        write_euclidean_csv(path, data)
    elif kind == "spd":
        spec = _parse_spd_oracle(sec.take("oracle"))
        sec.done()
        data, truth = generate_spd(spec, n, args.seed)
        path = os.path.join(out, "data.mats")
        write_matrix_stack(path, data)
    else:
        raise ConfigError(f"unknown oracle kind {kind!r}")
    write_csv(os.path.join(out, "truth_labels.csv"), ("index", "label"),
              list(enumerate(truth.labels)))
    print(f"wrote {data.n} points to {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsf",
        description="Spanning-forest clustering: exact posteriors, MCMC, "
                    "experiments, and determinant-identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--workers", type=int, default=max(1, os.cpu_count() or 1),
                       help="parallel replicate workers")

    p_exact = sub.add_parser("exact", help="enumerated posterior tables")
    common(p_exact)
    p_exact.add_argument("--max-k", type=int, default=None,
                         help="restrict to partitions with at most this many blocks")
    p_exact.set_defaults(fn=cmd_exact)

    p_mcmc = sub.add_parser("mcmc", help="run one chain and summarize it")
    common(p_mcmc)
    p_mcmc.set_defaults(fn=cmd_mcmc)

    p_exp = sub.add_parser("experiment", help="consistency experiment harness")
    common(p_exp)
    p_exp.add_argument("--mode", choices=("exact", "mcmc"), default=None)
    p_exp.set_defaults(fn=cmd_experiment)

    p_mis = sub.add_parser("misclass", help="misclassification experiment harness")
    common(p_mis)
    p_mis.set_defaults(fn=cmd_misclass)

    p_ver = sub.add_parser("verify", help="determinant identity/inequality checks")
    p_ver.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(fn=cmd_verify)

    p_gen = sub.add_parser("gen-data", help="sample an oracle dataset to disk")
    common(p_gen)
    p_gen.set_defaults(fn=cmd_gen_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IngestionError as exc:
        print(f"ingestion error: {exc}", file=sys.stderr)
        return EXIT_INGEST
    except CapError as exc:
        print(f"cap violation: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
