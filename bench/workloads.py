"""The four benchmark workloads: inputs made during set-up, the ``bsf``
command each operation runs, and the checks on that command's outputs.

Data are 2-D points with unit-covariance Gaussian noise drawn from the
oracle; the program sees only the files written here.  The exact and MCMC
workloads use the Euclidean Gaussian kernel with a fixed bandwidth and
``log(delta lambda)``; the consistency workload takes both from the
oracle's signal-to-noise schedule.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from estimators import effective_sample_size
from reference import ReferenceWeights

TRIANGLE_MEANS = ((0.0, 0.0), (4.0, 0.0), (2.0, 3.46))  # pairwise 4 apart
SIGMA = 0.7
LOG_DELTA_LAMBDA = -5.0
# total-variation gate of the sampler's K histogram against the exact K
# marginals; the same gate as the sampler-exactness acceptance test
TV_GATE = 0.05
PROB_TOL = 1e-9  # float sums of probabilities that should add to 1
FIXED_SEED = 0  # data (and, for mcmc-mixing, chains) that no run seed changes


def _sub_seed(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=key)


def _int_seed(seed: int, *key: int) -> int:
    return int(_sub_seed(seed, *key).generate_state(1)[0])


def _write_points(n: int, seed: np.random.SeedSequence, in_dir: str, name: str) -> str:
    from bsf.data import write_euclidean_csv
    from bsf.oracle import GaussianOracleSpec, generate_gaussian

    spec = GaussianOracleSpec(means=TRIANGLE_MEANS, covs=tuple(np.eye(2) for _ in TRIANGLE_MEANS))
    data, _ = generate_gaussian(spec, n, seed)
    path = os.path.join(in_dir, name)
    write_euclidean_csv(path, data)
    return path


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
    return path


def _points_of(argv: list[str]) -> tuple[str, np.ndarray]:
    """The data file an operation's config names, and its coordinates."""
    with open(argv[argv.index("--config") + 1], encoding="utf-8") as fh:
        path = json.load(fh)["data"]
    return path, np.loadtxt(path, delimiter=",", ndmin=2)


def _model_config(points_path: str, **extra) -> dict:
    return {"data": points_path,
            "kernel": {"family": "euclidean-gaussian", "sigma": SIGMA},
            "log_delta_lambda": LOG_DELTA_LAMBDA, **extra}


def _read_csv(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def digest(out_dir: str) -> dict[str, str]:
    """SHA-256 of every CSV an operation wrote, by file name."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _is_rgs(labels) -> bool:
    peak = -1
    for lab in labels:
        if lab < 0 or lab > peak + 1:
            return False
        peak = max(peak, lab)
    return True


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for val in row:
            nxt.append(nxt[-1] + val)
        row = nxt
    return row[-1]


@dataclass
class Prepared:
    """A workload's inputs: the bsf arguments shared by every operation
    (``--out`` and any per-operation input or seed are added later)."""

    argv: list[str]
    in_dir: str
    rows_per_op: int  # rows of the main output table
    replicates_per_op: int  # independent problems solved per operation
    sweeps_per_op: int = 0
    cache: dict = field(default_factory=dict)  # check-time state shared by operations


class Workload:
    name = ""
    min_ops = 2  # so that repeats can be compared byte for byte
    repeat_first = False  # rerun operation 0 at the end (determinism check)
    trace_args: list[str] = []  # extra bsf arguments of the traced run

    def prepare(self, seed: int, in_dir: str) -> Prepared:
        raise NotImplementedError

    def op_argv(self, prep: Prepared, seed: int, index: int) -> list[str]:
        return prep.argv

    def check(self, prep: Prepared, argv: list[str], out_dir: str) -> tuple[list[str], dict]:
        """Failures in the outputs of the operation run with ``argv``, and
        its own figures."""
        raise NotImplementedError

    def accuracy(self, prep: Prepared, argv: list[str], out_dir: str, seed: int) -> float | None:
        """``max_abs_err`` against the mpmath reference on a seed-chosen
        sample of output partitions; None when the workload has none."""
        return None

    def pooled(self, prep: Prepared, figures: list[dict]) -> tuple[list[str], dict]:
        """Failures and figures over all operations' figures."""
        return [], {}


class ExactTable(Workload):
    """Each operation solves its own dataset, drawn from the run seed and the
    operation's index: the time to format the table moves with the data
    (about 20% between datasets on the parent commit), and a run's median
    then spans several datasets.  The last operation reruns the first."""

    name = "exact-table"
    min_ops = 1
    repeat_first = True
    n = 10
    sample = 64

    def prepare(self, seed, in_dir):
        return Prepared([], in_dir, rows_per_op=_bell(self.n), replicates_per_op=1)

    def op_argv(self, prep, seed, index):
        cfg = os.path.join(prep.in_dir, f"exact{index}.json")
        if not os.path.exists(cfg):
            path = _write_points(self.n, _sub_seed(seed, 1, index), prep.in_dir, f"points{index}.csv")
            _write_json(cfg, _model_config(path))
        return ["exact", "--config", cfg]

    def _table(self, out_dir):
        rows = _read_csv(os.path.join(out_dir, "posterior_table.csv"))
        if rows[0] != ["partition_rgs", "K", "log_weight", "probability"]:
            raise ValueError(f"posterior_table.csv header {rows[0]}")
        return rows[1:]

    def check(self, prep, argv, out_dir):
        fails = []
        body = self._table(out_dir)
        if len(body) != prep.rows_per_op:
            fails.append(f"posterior_table.csv has {len(body)} rows, Bell({self.n}) = {prep.rows_per_op}")
        ks = np.array([int(r[1]) for r in body])
        lws = np.array([float(r[2]) for r in body])
        probs = np.array([float(r[3]) for r in body])
        if abs(math.fsum(probs) - 1.0) > PROB_TOL:
            fails.append(f"probabilities sum to {math.fsum(probs)!r}")
        marg = {int(k): float(p) for k, p in _read_csv(os.path.join(out_dir, "k_marginals.csv"))[1:]}
        for k in range(1, self.n + 1):
            got = math.fsum(probs[ks == k])
            if abs(got - marg.get(k, 0.0)) > PROB_TOL:
                fails.append(f"K={k}: table mass {got!r} vs k_marginals {marg.get(k)!r}")
        best = int(np.argmax(lws))  # rows are in RGS order: first maximum = tie rule
        map_row = _read_csv(os.path.join(out_dir, "map_partition.csv"))[1]
        if map_row[0] != body[best][0]:
            fails.append(f"MAP {map_row[0]} is not the highest-weight row {body[best][0]}")
        elif abs(float(map_row[2]) - lws[best]) > 1e-9:
            fails.append(f"MAP log weight {map_row[2]} vs table {lws[best]!r}")
        return fails, {}

    def accuracy(self, prep, argv, out_dir, seed):
        body = self._table(out_dir)
        rng = np.random.default_rng(_sub_seed(seed, 2))
        picks = rng.choice(len(body), self.sample, replace=False)
        ref = ReferenceWeights(_points_of(argv)[1].tolist(), SIGMA, LOG_DELTA_LAMBDA)
        return max(abs(float(ref.log_class_weight([int(x) for x in body[i][0].split(",")])
                             - float(body[i][2]))) for i in picks)


class ConsistencyExact(Workload):
    name = "consistency-exact"
    replicates = 8  # per n
    n_grid = (11, 12, 13)
    workers = 2
    trace_args = ["--workers", "1"]  # spans recorded in pool workers are lost

    def prepare(self, seed, in_dir):
        eye = [[1.0, 0.0], [0.0, 1.0]]
        cfg = _write_json(os.path.join(in_dir, "experiment.json"), {
            "oracle": {"means": [[0.0, 0.0], [20.0, 0.0]], "covs": [eye, eye]},
            "schedule": {"kind": "snr", "alpha": 0.5, "iota": 1.0},
            "n_grid": list(self.n_grid),
            "replicates": self.replicates,
            "phi": {"c1": 1.0, "c2": math.exp(8.0), "iota1": 1.0, "iota2": 0.5},
            "mode": "exact",
            "enum_cap": 13,
        })
        total = self.replicates * len(self.n_grid)
        return Prepared(["experiment", "--config", cfg, "--seed", str(_int_seed(seed, 1)),
                         "--workers", str(self.workers)],
                        in_dir, rows_per_op=total, replicates_per_op=total)

    def check(self, prep, argv, out_dir):
        fails = []
        rows = _read_csv(os.path.join(out_dir, "replicates.csv"))
        head, body = rows[0], rows[1:]
        if len(body) != prep.replicates_per_op:
            fails.append(f"replicates.csv has {len(body)} rows, expected {prep.replicates_per_op}")
        col = {name: i for i, name in enumerate(head)}
        for r in body:
            pt, pk = float(r[col["prob_truth"]]), float(r[col["prob_k_true"]])
            if not (0.0 <= pt <= 1.0 and 0.0 <= pk <= 1.0):
                fails.append(f"n={r[0]} rep={r[1]}: probability outside [0, 1]")
            # the true partition is one of the partitions with K = k_true;
            # the two sides are summed in different orders, hence the slack
            if pt > pk + 1e-12:
                fails.append(f"n={r[0]} rep={r[1]}: prob_truth {pt!r} > prob_k_true {pk!r}")
        if len(_read_csv(os.path.join(out_dir, "aggregate.csv"))) != len(self.n_grid) + 1:
            fails.append("aggregate.csv does not have one row per n")
        return fails, {}


class Mcmc(Workload):
    """``bsf mcmc`` on one dataset of n points, one chain per operation.

    A chain's cost is set by how many distinct blocks it prices and how
    many blocks each point is scored against, which move with the data far
    more than a bound can absorb (measured on the parent commit at n=30:
    per-sweep cost differs 2x between datasets).  So the data come from
    ``FIXED_SEED``.  Each operation runs its own chain; the last one reruns
    the first chain to check that a chain is a function of its seed.
    Traced and untraced runs of a chain must agree byte for byte as well.
    """

    n = 0
    iters = 0
    burnin = 0
    sample = 0
    repeat_first = True
    chains_from_run_seed = True

    def prepare(self, seed, in_dir):
        path = _write_points(self.n, _sub_seed(FIXED_SEED, 1), in_dir, "points.csv")
        cfg = _write_json(os.path.join(in_dir, "mcmc.json"), _model_config(
            path, mcmc={"iters": self.iters, "burnin": self.burnin, "thin": 1}))
        return Prepared(["mcmc", "--config", cfg], in_dir, rows_per_op=self.iters - self.burnin,
                        replicates_per_op=1, sweeps_per_op=self.iters)

    def op_argv(self, prep, seed, index):
        if not self.chains_from_run_seed:
            seed, index = FIXED_SEED, 0
        return prep.argv + ["--seed", str(_int_seed(seed, 2, index))]

    def _weights(self, prep):
        """The program's block weights, built once per run for the checks."""
        if "weights" not in prep.cache:
            from bsf.data import read_euclidean_csv
            from bsf.kernels import EUCLIDEAN_GAUSSIAN, KernelSpec
            from bsf.posterior import BlockWeights, BsfConfig

            path, points = _points_of(prep.argv)
            data = read_euclidean_csv(path)
            prep.cache["points"] = points
            cfg = BsfConfig(kernel=KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=SIGMA),
                            log_delta=0.0, log_lambda=LOG_DELTA_LAMBDA, enum_cap=13)
            prep.cache.update(data=data, cfg=cfg, weights=BlockWeights(data, cfg))
        return prep.cache["weights"]

    def _samples(self, out_dir) -> list[tuple[int, ...]]:
        rows = _read_csv(os.path.join(out_dir, "samples.csv"))
        return [tuple(int(x) for x in r[1].split(",")) for r in rows[1:]]

    def check(self, prep, argv, out_dir):
        """Output checks, then the ESS of the log class weight and of K,
        with the traces rebuilt from samples.csv after timing."""
        from bsf.partitions import Partition

        fails = []
        samples = self._samples(out_dir)
        if len(samples) != prep.rows_per_op:
            fails.append(f"samples.csv has {len(samples)} rows, expected {prep.rows_per_op}")
        if any(len(s) != self.n or not _is_rgs(s) for s in samples):
            return fails + [f"samples are not restricted growth strings of length {self.n}"], {}
        hist = {int(k): float(f) for k, f in _read_csv(os.path.join(out_dir, "k_histogram.csv"))[1:]}
        if abs(math.fsum(hist.values()) - 1.0) > PROB_TOL:
            fails.append(f"k_histogram sums to {math.fsum(hist.values())!r}")
        ks = np.array([max(s) + 1 for s in samples])
        counts = {int(k): int(c) for k, c in zip(*np.unique(ks, return_counts=True))}
        for k, frac in hist.items():
            if abs(frac - counts.get(k, 0) / len(samples)) > 1e-12:
                fails.append(f"k_histogram K={k} disagrees with samples.csv")
        co = np.array([[float(x) for x in r]
                       for r in _read_csv(os.path.join(out_dir, "cocluster.csv"))[1:]])
        if co.shape != (self.n, self.n) or not np.array_equal(co, co.T) \
                or not np.all(np.diag(co) == 1.0):
            fails.append("cocluster.csv is not symmetric with a unit diagonal")
        weights = self._weights(prep)
        logw = {s: weights.class_weight(Partition(s)) for s in set(samples)}
        return fails, {
            "ess_logw": effective_sample_size([logw[s] for s in samples]),
            "ess_k": effective_sample_size(ks),
            "k_counts": counts,
        }

    def accuracy(self, prep, argv, out_dir, seed):
        from bsf.partitions import Partition

        weights = self._weights(prep)
        distinct = sorted(set(self._samples(out_dir)))
        rng = np.random.default_rng(_sub_seed(seed, 3))
        picks = rng.choice(len(distinct), min(len(distinct), self.sample), replace=False)
        ref = ReferenceWeights(prep.cache["points"].tolist(), SIGMA, LOG_DELTA_LAMBDA)
        return max(abs(float(ref.log_class_weight(distinct[i])
                             - weights.class_weight(Partition(distinct[i])))) for i in picks)


class McmcMixing(Mcmc):
    """n=30: K is truly uncertain, so the chain keeps pricing new blocks.
    Every operation reruns one fixed chain, since cost differs +-15%
    between chain seeds of one dataset on the parent commit."""

    name = "mcmc-mixing"
    n = 30
    iters = 400
    burnin = 80
    sample = 16
    repeat_first = False
    chains_from_run_seed = False


class McmcTable(Mcmc):
    """n=12: the whole block table is precomputed; the pooled K histogram of
    the run's chains is gated against the exact K marginals."""

    name = "mcmc-table"
    n = 12
    iters = 4_000
    burnin = 500
    sample = 64

    def pooled(self, prep, figures):
        from bsf.posterior import exact_posterior

        self._weights(prep)
        exact = exact_posterior(prep.cache["data"], prep.cache["cfg"], retain=False).k_marginals()
        total: dict[int, int] = {}
        for fig in figures:
            for k, c in fig["k_counts"].items():
                total[k] = total.get(k, 0) + c
        size = sum(total.values())
        tv = 0.5 * sum(abs(exact.get(k, 0.0) - total.get(k, 0) / size)
                       for k in range(1, self.n + 1))
        fails = [] if tv <= TV_GATE else [
            f"pooled K histogram is {tv:.4f} in total variation from the exact marginals"]
        return fails, {"tv_k": tv}


WORKLOADS = {w.name: w for w in (ExactTable(), ConsistencyExact(), McmcMixing(), McmcTable())}
