"""Command-line entry point: strict JSON configs in, CSV tables out.

Subcommands: ``exact`` (enumerated posterior), ``mcmc`` (one chain),
``experiment`` (consistency harness), ``misclass`` (known-cluster-count
misclassification harness), ``verify`` (determinant-identity checks),
``gen-data`` (oracle samples to disk).

Config keys, and flags besides ``--config`` (the JSON file) and ``--out``
(the output directory), which every subcommand but ``verify`` takes:

- ``exact``: ``data``, a path read as the kernel's payload family (a CSV of
  points for ``euclidean-gaussian``, a matrix stack for the SPD and
  graph-Laplacian kernels); ``kernel`` {``family``, ``sigma``, ``zeta``,
  ``eta``, ``graph_mode``}; ``log_delta_lambda`` (default 0); ``enum_cap``.
  Flag ``--max-k``.
- ``mcmc``: ``data``, ``kernel`` and ``log_delta_lambda`` as for ``exact``;
  ``mcmc`` {``iters``, ``burnin``, ``thin``}.  Flag ``--seed``.
- ``experiment``: ``oracle`` {``means``, ``covs``, ``weights``,
  ``counts``}; ``schedule`` {``kind``: ``fixed`` with ``sigma2`` and
  ``log_delta_lambda``, ``geometric`` with ``sigma2`` and ``base``, or
  ``snr`` with ``alpha`` and ``iota``}; ``n_grid``; ``replicates``; ``phi``
  {``c1``, ``c2``, ``iota1``, ``iota2``}; ``mode`` (``exact`` or ``mcmc``);
  ``enum_cap``; ``mcmc``.  Flags ``--seed`` and ``--workers``.
- ``misclass``: ``oracle`` as for ``experiment``; ``snr_grid``; ``n``;
  ``replicates``; ``bandwidth_rule`` {``fraction``}; ``enum_cap``.  Flags
  ``--seed`` and ``--workers``.
- ``gen-data``: ``kind`` (``gaussian``, the default, or ``spd``); ``n``;
  ``oracle``, for ``spd`` {``means``, ``noise_scales``, ``counts``}.  Flag
  ``--seed``.
- ``verify``: no config.  Flags ``--trials`` and ``--seed``.

``--workers`` N counts the processes that run replicates in all, this one
included, so N = 1 starts no pool.  It defaults to the CPUs this process may
run on (its affinity mask where the platform has one).

Exit codes, each from one error class: 0 success; 1 a failed ``verify``
check; 2 a flag argparse refuses (a negative ``--seed``, or ``--trials``,
``--max-k`` or ``--workers`` below 1) or a ConfigError, raised while parsing
here, by a harness's design check in ``experiments``, by
``experiments.config_check`` from a library type's own check, or by
``posterior.BlockWeights`` for a kernel or prior that overflows on the data;
3 an IngestionError from the ``data`` readers; 4 a CapError from
``posterior.check_cap``.  Unknown config keys are rejected.  Each config
section is built into its library type, whose field defaults and range
checks are the section's own; the commands only parse and call the library.
Floats have 17 significant digits, so equal runs write byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import MISSING, fields

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
    SnrSchedule,
    config_check,
    consistency_experiment,
    misclassification_experiment,
)
from .kernels import KernelSpec
from .oracle import (
    DEFAULT_PHI,
    GaussianOracleSpec,
    ObjectOracleSpec,
    SeparationConstants,
    generate_gaussian,
    generate_spd,
)
from .posterior import (DEFAULT_ENUM_CAP, BlockWeights, BsfConfig, CapError, ConfigError,
                        check_cap, class_weight_chunks, exact_posterior)
from .sampler import McmcSettings, run_chain
from .theory import DEFAULT_TRIALS, run_all

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_INGEST = 3
EXIT_CAP = 4


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path: str, columns, rows=(), chunks=()) -> None:
    """Write the header ``columns``, then ``rows``, sequences of values in
    column order, through ``csv.writer``, formatting each value with
    :func:`_fmt`, then ``chunks``: strings of whole CSV lines, written as
    they are.  Each chunk is dropped before the next one is made.  A chunk's
    quoting is its maker's job; :func:`_table_chunks` quotes as
    ``csv.writer`` would."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
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

    def take(self, key, default=MISSING):
        if key in self.raw:
            return self.raw.pop(key)
        if default is MISSING:
            raise ConfigError(f"{self.name}: missing required key {key!r}")
        return default

    def typed(self, key, kind, default=MISSING):
        """:meth:`take`, with the value converted by ``kind``; a value that
        does not convert is a ConfigError.  A key whose default is None
        gives None when absent or null."""
        value = self.take(key, default)
        if value is None and default is None:
            return None
        with config_check(f"{self.name}: bad value {value!r} for {key!r}"):
            return kind(value)

    def done(self):
        if self.raw:
            raise ConfigError(f"{self.name}: unknown keys {sorted(self.raw)}")

    def build(self, cls, given=(), /, **kinds):
        """The dataclass ``cls`` built from this section, which is then done.

        Each field named in ``kinds`` is read with :meth:`typed` when its
        key is present: a null reads as None only where the field's default
        is None.  An absent key leaves the field at its default, or is an
        error for a field without one.  ``given`` holds fields the caller
        sets itself.  The type's own checks raise ConfigError here.
        """
        defaults = {f.name: f.default for f in fields(cls)}
        values = dict(given)
        for key, kind in kinds.items():
            if key in self.raw or defaults[key] is MISSING:
                values[key] = self.typed(key, kind, defaults[key])
        self.done()
        with config_check(self.name):
            return cls(**values)


def _int(value) -> int:
    """An integer config value.  ``int`` alone would take ``true`` as 1 and
    truncate 30.7 to 30, so booleans and non-integral numbers are refused."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _ints(values) -> tuple[int, ...]:
    return tuple(_int(v) for v in values)


def _float(value) -> float:
    """A float config value.  ``float`` alone would take ``true`` as 1.0, so
    booleans are refused."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _floats(values) -> tuple[float, ...]:
    return tuple(_float(v) for v in values)


def _parse_kernel(raw: dict) -> KernelSpec:
    return _Section(raw, "kernel").build(KernelSpec, family=str, sigma=_float, zeta=_float,
                                         eta=_float, graph_mode=str)


def _parse_model(sec: _Section) -> tuple[Dataset, dict]:
    """The dataset, read as its kernel's payload family, and the kernel and
    prior fields of its BsfConfig; each command builds the BsfConfig from
    these and the keys it reads."""
    kernel = _parse_kernel(sec.take("kernel"))
    path = sec.take("data")
    if not isinstance(path, str):
        raise ConfigError(f"data must be a path string, got {path!r}")
    family = kernel.payload_family
    data = read_euclidean_csv(path) if family == EUCLIDEAN else read_matrix_stack(path, family)
    return data, {"kernel": kernel, "log_lambda": sec.typed("log_delta_lambda", _float, 0.0)}


def _parse_gaussian_oracle(raw: dict) -> GaussianOracleSpec:
    return _Section(raw, "oracle").build(GaussianOracleSpec, means=tuple, covs=tuple,
                                         weights=tuple, counts=_ints)


def _parse_spd_oracle(raw: dict) -> ObjectOracleSpec:
    return _Section(raw, "oracle").build(ObjectOracleSpec, means=tuple, noise_scales=tuple,
                                         counts=_ints)


def _parse_schedule(raw: dict):
    sec = _Section(raw, "schedule")
    kind = sec.take("kind")
    if kind == "fixed":
        return sec.build(FixedSchedule, sigma2=_float, log_delta_lambda=_float)
    if kind == "geometric":  # the key "base" sets the field geometric_base
        return sec.build(FixedSchedule, {"geometric_base": sec.typed("base", _float)},
                         sigma2=_float)
    if kind == "snr":
        return sec.build(SnrSchedule, alpha=_float, iota=_float)
    raise ConfigError(f"unknown schedule kind {kind!r}")


def _parse_phi(raw) -> SeparationConstants:
    if raw is None:
        return DEFAULT_PHI
    return _Section(raw, "phi").build(SeparationConstants, c1=_float, c2=_float,
                                      iota1=_float, iota2=_float)


def _parse_mcmc(raw) -> McmcSettings:
    if raw is None:
        return McmcSettings()
    return _Section(raw, "mcmc").build(McmcSettings, iters=_int, burnin=_int, thin=_int)


def _parse_rule(raw: dict) -> BandwidthRule:
    return _Section(raw, "bandwidth_rule").build(BandwidthRule, fraction=_float)


def _flag_int(low: int):
    """An argparse type: an integer of at least ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "integer"  # argparse names it in "invalid integer value"
    return parse


def _ensure_out(out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


# ---------------------------------------------------------------------------
# subcommands


def cmd_exact(args) -> int:
    sec = _Section(_load_config(args.config), "exact config")
    data, model_fields = _parse_model(sec)
    model = sec.build(BsfConfig, model_fields, enum_cap=_int)
    check_cap(data.n, model.enum_cap, enumerates=True)
    out = _ensure_out(args.out)
    weights = BlockWeights(data, model)
    table = exact_posterior(data, model, max_K=args.max_k, retain=False, weights=weights)
    chunks = class_weight_chunks(weights.precompute(), data.n, max_K=args.max_k)
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
    sec = _Section(_load_config(args.config), "mcmc config")
    data, model_fields = _parse_model(sec)
    settings = _parse_mcmc(sec.take("mcmc", None))
    model = sec.build(BsfConfig, model_fields)
    out = _ensure_out(args.out)
    summary = run_chain(data, model, settings, seed=args.seed)
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
    priced, memo = summary.pricing, summary.memo
    print(f"block log-dets priced on a miss: {priced['alone']} alone, "
          f"{priced['stacked']} in {priced['stacks']} stacks; {priced['evicted']} evicted; "
          f"Gibbs conditionals: {memo['hits']} memo hits, {memo['misses']} misses")
    print(f"mcmc: {summary.n_samples} retained samples, wrote 3 tables to {out}")
    return EXIT_OK


def _write_harness(out_dir: str, rows, aggregate, line: str) -> int:
    """A replicate harness's ``replicates.csv`` and ``aggregate.csv``, each
    headed by its first row's keys, the order every row's dict keeps, and
    ``line`` formatted with each aggregate row."""
    out = _ensure_out(out_dir)
    for name, table in (("replicates.csv", rows), ("aggregate.csv", aggregate)):
        write_csv(os.path.join(out, name), tuple(table[0]), (row.values() for row in table))
    for agg in aggregate:
        print(line.format(**agg))
    return EXIT_OK


def cmd_experiment(args) -> int:
    sec = _Section(_load_config(args.config), "experiment config")
    spec = _parse_gaussian_oracle(sec.take("oracle"))
    schedule = _parse_schedule(sec.take("schedule"))
    n_grid = sec.typed("n_grid", _ints)
    replicates = sec.typed("replicates", _int)
    phi = _parse_phi(sec.take("phi", None))
    mode = sec.take("mode", "exact")
    enum_cap = sec.typed("enum_cap", _int, DEFAULT_ENUM_CAP)
    settings = _parse_mcmc(sec.take("mcmc", None))
    sec.done()
    rows, aggregate = consistency_experiment(
        spec, schedule, n_grid, replicates, master_seed=args.seed, mode=mode,
        phi=phi, enum_cap=enum_cap, workers=args.workers, mcmc=settings,
    )
    return _write_harness(args.out, rows, aggregate,
                          "n={n}: median prob_truth={prob_truth_median:.4f} "
                          "median prob_k_true={prob_k_true_median:.4f} "
                          "membership_rate={membership_rate:.2f}")


def cmd_misclass(args) -> int:
    sec = _Section(_load_config(args.config), "misclass config")
    spec = _parse_gaussian_oracle(sec.take("oracle"))
    snr_grid = sec.typed("snr_grid", _floats)
    n = sec.typed("n", _int)
    replicates = sec.typed("replicates", _int)
    rule = _parse_rule(sec.take("bandwidth_rule", {}))
    enum_cap = sec.typed("enum_cap", _int, DEFAULT_ENUM_CAP)
    sec.done()
    rows, aggregate = misclassification_experiment(
        spec, rule, snr_grid, n, replicates, master_seed=args.seed,
        enum_cap=enum_cap, workers=args.workers,
    )
    return _write_harness(args.out, rows, aggregate,
                          "snr={snr}: median expected_hamming={expected_hamming_median:.6g}")


def cmd_verify(args) -> int:
    reports = run_all(trials=args.trials, seed=args.seed)
    print(f"{'lemma':<22} {'trials':<13} {'max violation':<24} status")
    for rep in reports:
        print(rep.line())
    return EXIT_OK if all(rep.passed for rep in reports) else EXIT_VERIFY_FAIL


def cmd_gen_data(args) -> int:
    sec = _Section(_load_config(args.config), "gen-data config")
    kind = sec.take("kind", "gaussian")
    n = sec.typed("n", _int)
    if kind == "gaussian":
        spec = _parse_gaussian_oracle(sec.take("oracle"))
        generate, name, write = generate_gaussian, "data.csv", write_euclidean_csv
    elif kind == "spd":
        spec = _parse_spd_oracle(sec.take("oracle"))
        generate, name, write = generate_spd, "data.mats", write_matrix_stack
    else:
        raise ConfigError(f"unknown oracle kind {kind!r}")
    sec.done()
    with config_check("oracle"):  # the generator sizes the oracle first
        data, truth = generate(spec, n, args.seed)
    out = _ensure_out(args.out)
    path = os.path.join(out, name)
    write(path, data)
    write_csv(os.path.join(out, "truth_labels.csv"), ("index", "label"),
              list(enumerate(truth.labels)))
    print(f"wrote {data.n} points to {path}")
    return EXIT_OK


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has
    one, else the host's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


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
            p.add_argument("--seed", type=_flag_int(0), default=0, help="master seed")
        if workers:
            p.add_argument("--workers", type=_flag_int(1), default=_usable_cpus(),
                           help="processes that run replicates, in all, this one included "
                                "(default: the CPUs this process may run on)")

    p_exact = sub.add_parser("exact", help="enumerated posterior tables")
    common(p_exact, seed=False)
    p_exact.add_argument("--max-k", type=_flag_int(1), default=None,
                         help="restrict to partitions with at most this many blocks")
    p_exact.set_defaults(fn=cmd_exact)

    p_mcmc = sub.add_parser("mcmc", help="run one chain and summarize it")
    common(p_mcmc)
    p_mcmc.set_defaults(fn=cmd_mcmc)

    p_exp = sub.add_parser("experiment", help="consistency experiment harness")
    common(p_exp, workers=True)
    p_exp.set_defaults(fn=cmd_experiment)

    p_mis = sub.add_parser("misclass", help="misclassification experiment harness")
    common(p_mis, workers=True)
    p_mis.set_defaults(fn=cmd_misclass)

    p_ver = sub.add_parser("verify", help="determinant identity/inequality checks")
    p_ver.add_argument("--trials", type=_flag_int(1), default=DEFAULT_TRIALS)
    p_ver.add_argument("--seed", type=_flag_int(0), default=0)
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
