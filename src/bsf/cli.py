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

import numpy as np

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
from .posterior import BlockWeights, BsfConfig, class_weight_chunks, exact_posterior
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


def write_csv(path: str, columns, rows=(), chunks=()) -> None:
    """Write ``rows`` (sequences or dicts keyed by column) through
    ``csv.writer``, formatting each value with :func:`_fmt`, then
    ``chunks``: strings of whole CSV lines, written as they are.  Each
    chunk is dropped before the next one is made.  A chunk's quoting is its
    maker's job; :func:`_table_chunks` quotes as ``csv.writer`` would."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            if isinstance(row, dict):
                writer.writerow([_fmt(row[c]) for c in columns])
            else:
                writer.writerow([_fmt(v) for v in row])
        fh.writelines(chunks)


def _rgs_strings(labels: np.ndarray) -> list[str]:
    """Comma-joined text of each row of a chunk of RGS label rows.

    Each label is stored in one byte, and one ``str.translate`` over the
    chunk's text maps every label to ",label".  Column 0 always holds label
    0; it is overwritten with a separator byte that maps to "\n0", and the
    translated text is split at the newlines.  This needs every label below
    the separator (n <= 255, far beyond any n whose Bell(n) rows can be
    written), and the translate must come before the split: label 10 is the
    byte of "\n".  On ``bsf exact`` at n = 10 it writes the table faster
    than a ``",".join`` per row.
    """
    n = labels.shape[1]
    sep = 0xFF
    if n > sep:
        raise ValueError(f"RGS text supports at most {sep} points, got {n}")
    label_text = {lab: f",{lab}" for lab in range(n)}
    label_text[sep] = "\n0"
    text = labels.astype(np.uint8)
    text[:, 0] = sep
    return text.tobytes().decode("latin-1").translate(label_text).split("\n")[1:]


def _table_chunks(chunks, log_normalizer: float):
    """Posterior table rows, one string of CSV lines per chunk of
    :func:`class_weight_chunks`, each row made by one ``%``-format.

    The bytes are those ``csv.writer`` gives for the row
    ``(rgs, str(K), format(lw, ".17g"), format(p, ".17g"))``.  Its minimal
    quoting quotes a field only for a comma, quote or line break.  The RGS
    field holds a comma exactly when n >= 2, so it is quoted then and never
    at n = 1; K and the two floats never need quotes.  ``%d`` of a Python
    int is its ``str``, and ``%.17g`` and ``format(x, ".17g")`` are the same
    conversion, for 0.0, -0.0, subnormals and infinities too.  The
    probability is ``math.exp`` of each row's shifted weight, as
    ``map_partition.csv`` computes it.
    """
    for labels, ks, lws in chunks:
        line = '"%s",%d,%.17g,%.17g\n' if labels.shape[1] > 1 else "%s,%d,%.17g,%.17g\n"
        probs = map(math.exp, (lws - log_normalizer).tolist())
        rows = zip(_rgs_strings(labels), ks.tolist(), lws.tolist(), probs)
        yield "".join(map(line.__mod__, rows))


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

    def typed(self, key, kind, default=...):
        """:meth:`take`, with the value converted by ``kind``; a value that
        does not convert is a ConfigError.  A key whose default is None
        gives None when absent or null."""
        value = self.take(key, default)
        if value is None and default is None:
            return None
        try:
            return kind(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{self.name}: bad value {value!r} for {key!r}") from exc

    def done(self):
        if self.raw:
            raise ConfigError(f"{self.name}: unknown keys {sorted(self.raw)}")


def _int(value) -> int:
    """An integer config value.  ``int`` alone would take ``true`` as 1 and
    truncate 30.7 to 30, so booleans and non-integral numbers are refused."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _ints(values) -> tuple[int, ...]:
    return tuple(_int(v) for v in values)


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _parse_kernel(raw: dict) -> KernelSpec:
    sec = _Section(raw, "kernel")
    family = sec.take("family")
    if family not in KERNEL_FAMILIES:
        raise ConfigError(f"kernel family must be one of {KERNEL_FAMILIES}")
    sigma = sec.typed("sigma", float)
    zeta = sec.typed("zeta", float, None)
    eta = sec.typed("eta", float, 0.0)
    graph_mode = sec.take("graph_mode", "geodesic")
    sec.done()
    try:
        return KernelSpec(family, sigma=sigma, zeta=zeta, eta=eta, graph_mode=graph_mode)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_prior(sec: _Section) -> tuple[float, float]:
    """Returns (log_delta, log_lambda) from delta/lambda or their log product."""
    delta = sec.typed("delta", float, None)
    lam = sec.typed("lambda", float, None)
    log_dl = sec.typed("log_delta_lambda", float, None)
    if log_dl is not None:
        if delta is not None or lam is not None:
            raise ConfigError("give delta/lambda or log_delta_lambda, not both")
        return 0.0, log_dl
    delta = 1.0 if delta is None else delta
    lam = 1.0 if lam is None else lam
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
    enum_cap = sec.typed("enum_cap", _int, 12)
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
    counts = sec.typed("counts", _ints, None)
    sec.done()
    try:
        return GaussianOracleSpec(
            means=tuple(means), covs=tuple(covs),
            weights=None if weights is None else tuple(weights),
            counts=counts,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"oracle: {exc}") from exc


def _parse_spd_oracle(raw: dict) -> ObjectOracleSpec:
    sec = _Section(raw, "oracle")
    means = sec.take("means")
    noise = sec.take("noise_scales")
    counts = sec.typed("counts", _ints, None)
    sec.done()
    try:
        return ObjectOracleSpec(means=tuple(means), noise_scales=tuple(noise), counts=counts)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"oracle: {exc}") from exc


def _parse_schedule(raw: dict):
    sec = _Section(raw, "schedule")
    kind = sec.take("kind")
    try:
        if kind == "fixed":
            out = FixedSchedule(sigma2=sec.typed("sigma2", float),
                                log_delta_lambda=sec.typed("log_delta_lambda", float))
        elif kind == "geometric":
            out = FixedSchedule(sigma2=sec.typed("sigma2", float),
                                geometric_base=sec.typed("base", float))
        elif kind == "snr":
            out = SnrSchedule(alpha=sec.typed("alpha", float, 0.5),
                              iota=sec.typed("iota", float, 1.0))
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
            c1=sec.typed("c1", float, 1.0),
            c2=sec.typed("c2", float, 1.0),
            iota1=sec.typed("iota1", float, 1.0),
            iota2=sec.typed("iota2", float, 0.5),
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
        iters=sec.typed("iters", _int, 50_000),
        burnin=sec.typed("burnin", _int, 5_000),
        thin=sec.typed("thin", _int, 1),
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
    chunks = class_weight_chunks(weights.precompute(), data.n, max_K=max_k)
    write_csv(os.path.join(out, "posterior_table.csv"),
              ("partition_rgs", "K", "log_weight", "probability"),
              chunks=_table_chunks(chunks, table.log_normalizer))
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
    priced = summary.pricing
    print(f"block log-dets priced on a miss: {priced['alone']} alone, "
          f"{priced['stacked']} in {priced['stacks']} stacks; {priced['evicted']} evicted")
    print(f"mcmc: {summary.n_samples} retained samples, wrote 3 tables to {out}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    cfg = _load_config(args.config)
    sec = _Section(cfg, "experiment config")
    spec = _parse_gaussian_oracle(sec.take("oracle"))
    schedule = _parse_schedule(sec.take("schedule"))
    n_grid = sec.typed("n_grid", _ints)
    replicates = sec.typed("replicates", _int)
    phi = _parse_phi(sec.take("phi", None))
    mode = sec.take("mode", "exact")
    enum_cap = sec.typed("enum_cap", _int, 12)
    settings = _parse_mcmc(sec.take("mcmc", None))
    sec.done()
    if args.mode is not None:
        mode = args.mode
    if replicates < 1:
        raise ConfigError("replicates must be at least 1")
    if not n_grid:
        raise ConfigError("n_grid must be non-empty")
    # every replicate draws n points from the oracle and resolves the
    # schedule; an n the oracle cannot size (fewer points than clusters) or
    # a schedule it cannot support (snr with one cluster) fails here instead
    try:
        for n in n_grid:
            spec.check_size(n)
            schedule.resolve(spec, n)
    except ValueError as exc:
        raise ConfigError(f"n_grid entry {n}: {exc}") from exc
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
    snr_grid = sec.typed("snr_grid", _floats)
    n = sec.typed("n", _int)
    replicates = sec.typed("replicates", _int)
    rule_sec = _Section(sec.take("bandwidth_rule", {}), "bandwidth_rule")
    try:
        rule = BandwidthRule(fraction=rule_sec.typed("fraction", float, 0.2))
    except ValueError as exc:
        raise ConfigError(f"bandwidth_rule: {exc}") from exc
    rule_sec.done()
    enum_cap = sec.typed("enum_cap", _int, 12)
    sec.done()
    if replicates < 1:
        raise ConfigError("replicates must be at least 1")
    if not snr_grid:
        raise ConfigError("snr_grid must be non-empty")
    # every replicate draws n points and resolves the bandwidth rule on the
    # oracle's separation, which needs at least two clusters
    try:
        spec.check_size(n)
        rule.resolve(spec, n)
    except ValueError as exc:
        raise ConfigError(f"oracle: {exc}") from exc
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
    n = sec.typed("n", _int)
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

    def common(p, seed=True, workers=False):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default="out", help="output directory")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="master seed")
        if workers:
            p.add_argument("--workers", type=int, default=max(1, os.cpu_count() or 1),
                           help="parallel replicate workers")

    p_exact = sub.add_parser("exact", help="enumerated posterior tables")
    common(p_exact, seed=False)
    p_exact.add_argument("--max-k", type=int, default=None,
                         help="restrict to partitions with at most this many blocks")
    p_exact.set_defaults(fn=cmd_exact)

    p_mcmc = sub.add_parser("mcmc", help="run one chain and summarize it")
    common(p_mcmc)
    p_mcmc.set_defaults(fn=cmd_mcmc)

    p_exp = sub.add_parser("experiment", help="consistency experiment harness")
    common(p_exp, workers=True)
    p_exp.add_argument("--mode", choices=("exact", "mcmc"), default=None)
    p_exp.set_defaults(fn=cmd_experiment)

    p_mis = sub.add_parser("misclass", help="misclassification experiment harness")
    common(p_mis, workers=True)
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
