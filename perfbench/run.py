"""End-to-end and per-layer benchmark of the kpivae pipeline.

    python3 perfbench/run.py --workload train-w2 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere inside a source checkout; the package is imported from the
checkout's `src/`, never from site-packages. Each run is one fresh process
with single-threaded BLAS that drives `kpivae.cli.main` exactly as the
command line does. With `--trace 0` the last stdout line holds the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
traced run, see perfbench/README.md. `--smoke` runs every workload at toy
size, traced, and checks the harness itself.
"""
import os

# BLAS reads these once, when numpy loads it, so they must be set first.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from spans import Tracer  # noqa: E402  (perfbench/ is the script's directory)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"


@dataclass(frozen=True)
class Size:
    train_elements: int
    test_elements: int
    days: int
    clusters: int
    train_epochs: int  # fixed epoch count of a measured `train`
    fit_epochs: int  # epochs of the set-up training behind score-fleet


FULL = Size(
    train_elements=50, test_elements=200, days=150, clusters=10, train_epochs=3, fit_epochs=2
)
SMOKE = Size(
    train_elements=12, test_elements=16, days=50, clusters=3, train_epochs=1, fit_epochs=1
)

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "train-w2": {"command": "train", "window": 2, "prior_std": 0.03},
    "train-w25": {"command": "train", "window": 25, "prior_std": 1.0},
    "score-fleet": {"command": "score", "window": 2, "eval_samples": 10},
}
SETUP_REPS = {"train": 9, "score": 3}

# Every workload reports the same end-to-end metrics. work_per_s counts
# train windows x epochs per second of `train`, or report cells per second of
# `score`. val_loss is the last-epoch validation loss of the training the
# workload runs: the measured `train`, or score-fleet's set-up fit.
E2E_METRICS = {"work_per_s": "1/s", "val_loss": "nat", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: (name, unit, better). `<span>.{s,self_s,calls}` for the
# spans below, then single metrics.
SPAN_TRIPLES = (
    "nn.lstm_forward",
    "nn.sigmoid",
    "nn.lstm_backward",
    "nn.linear_forward",
    "nn.linear_backward",
    "nn.Adam.step",
    "vae.train",
    "vae.train_step",
    "vae.objective_and_grads",
    "vae.batch_components",
    "vae.encode_windows",
    "anomaly.detect",
    "anomaly.resolve_clusters",
    "anomaly.save_report",
    "anomaly.fit_latent_stats",
    "data.load_records",
    "data.window_sequences",
)
PER_LAYER = [
    (f"{span}.{suffix}", unit, "lower")
    for span in SPAN_TRIPLES
    for suffix, unit in (("s", "s"), ("self_s", "s"), ("calls", "count"))
] + [
    ("nn.lstm.gflop", "GFLOP", "lower"),
    ("nn.lstm_forward.gflops_per_s", "GFLOP/s", "higher"),
    ("vae.train_step.ms_p50", "ms", "lower"),
    ("vae.train_step.ms_p95", "ms", "lower"),
    ("vae.save_checkpoint.s", "s", "lower"),
    ("vae.load_checkpoint.s", "s", "lower"),
    ("concepts.assign_concept.calls", "count", "lower"),
    ("anomaly.cells_scored", "count", "higher"),
    ("anomaly.cells_reported", "count", "higher"),
    ("anomaly.dedup_ratio", "ratio", "higher"),
    ("data.windows", "count", "higher"),
    ("data.synth_generate.s", "s", "lower"),
    ("concepts.kmeans_fit.s", "s", "lower"),
    ("concepts.element_profiles.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.covered_share", "ratio", "higher"),
]
# Spans of the set-up stage; their metrics come from the traced set-up, all
# others from the traced measured command.
SETUP_SPANS = ("data.synth_generate", "concepts.kmeans_fit", "concepts.element_profiles")

# Span-coverage self-check: spans that must fire on a workload, and spans
# predicted to stay at zero calls there.
COMMON_SPANS = (
    "cli.main",
    "data.load_records",
    "data.window_sequences",
    "nn.lstm_forward",
    "nn.sigmoid",
    "nn.linear_forward",
    "vae.batch_components",
)
MUST_FIRE = {
    "train": COMMON_SPANS
    + (
        "nn.lstm_backward",
        "nn.linear_backward",
        "nn.Adam.step",
        "vae.train",
        "vae.train_step",
        "vae.objective_and_grads",
        "vae.encode_windows",
        "vae.save_checkpoint",
        "anomaly.fit_latent_stats",
    ),
    "score": COMMON_SPANS
    + (
        "vae.load_checkpoint",
        "anomaly.detect",
        "anomaly.resolve_clusters",
        "concepts.assign_concept",
        "anomaly.save_report",
    ),
}
MUST_NOT_FIRE = {
    "train": ("anomaly.detect",),
    "score": ("nn.lstm_backward", "nn.linear_backward", "nn.Adam.step", "vae.train_step"),
}

LOSS_TOLERANCE = 1e-6


class CommandFailed(Exception):
    """A kpivae command exited non-zero; the run stops without a result."""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_kpivae():
    """The checkout's kpivae package; refuses any other copy."""
    init = SRC / "kpivae" / "__init__.py"
    if not init.is_file():
        fail(f"no kpivae sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kpivae
    import kpivae.cli

    if Path(kpivae.__file__).resolve() != init.resolve():
        fail(f"imported kpivae from {kpivae.__file__}, not from {init}")
    return kpivae


def environment() -> dict:
    blas = {}
    with contextlib.suppress(TypeError, KeyError):  # show_config(mode=) is numpy >= 1.26
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
    }


class Checks:
    """Output checks; `failed / attempted` is the run's error rate."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def last_val_loss(history: Path) -> float:
    header, rows = read_csv(history)
    return float(rows[-1][header.index("val_loss")]) if rows else math.nan


def loads(check: Checks, reader, path: Path):
    """`reader(path)`, or None and a failed check if it cannot read the file back."""
    try:
        return reader(path)
    except Exception as e:  # whatever the reader raises, the artifact is unreadable
        check(False, f"{reader.__name__} cannot read {path.name}: {e!r}")
        return None


def all_finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


class Pipeline:
    """One workload's inputs and commands inside a scratch directory."""

    def __init__(self, kp, workload: str, seed: int, size: Size, work: Path):
        self.kp = kp
        self.spec = WORKLOADS[workload]
        self.kind = self.spec["command"]
        self.size = size
        self.work = work
        self.seed = seed
        # seed 0 gives the acceptance data sets (train 100, test 101)
        self.train_seed = 100 + 2 * seed
        self.test_seed = 101 + 2 * seed
        self.epochs = size.train_epochs

    def cli(self, check: Checks, *argv) -> float:
        """Run one kpivae command in-process; returns its wall time in seconds."""
        argv = [str(a) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = self.kp.cli.main(argv)
            wall = time.perf_counter() - t0
        if not check(code == 0, f"kpivae {argv[0]} exited with {code}"):
            raise CommandFailed(f"kpivae {' '.join(argv)} exited with {code}")
        return wall

    def p(self, name: str) -> Path:
        return self.work / name

    def _synth(self, check: Checks, out: str, elements: int, seed: int, rate: float) -> None:
        s = self.size
        self.cli(
            check, "synth", "--out", self.p(out), "--labels-out", self.p(out + ".labels"),
            "--elements", elements, "--days", s.days, "--clusters", s.clusters,
            "--seed", seed, "--anomaly-rate", rate, "--anomaly-magnitude", 10,
        )

    def _train_argv(self, window, prior_std, epochs, ckpt, latent, history=None):
        argv = [
            "train", "--data", self.p("train.csv"), "--model", self.p("model.txt"),
            "--stats", self.p("stats.txt"), "--out-checkpoint", self.p(ckpt),
            "--out-latent-stats", self.p(latent), "--window", window,
            "--prior-std", prior_std, "--max-epochs", epochs, "--patience", epochs,
        ]
        if history:
            argv += ["--out-history", self.p(history)]
        return argv

    def setup(self, check: Checks) -> dict[str, str]:
        """Synth, concepts and (score-fleet) the short fit; returns artifact hashes."""
        s = self.size
        self._synth(check, "train.csv", s.train_elements, self.train_seed, 0)
        self.cli(
            check, "concepts", "--data", self.p("train.csv"), "--k", s.clusters,
            "--out-model", self.p("model.txt"), "--out-stats", self.p("stats.txt"),
        )
        if self.kind == "score":
            self._synth(check, "test.csv", s.test_elements, self.test_seed, 0.01)
            self.cli(check, *self._train_argv(
                2, 0.03, s.fit_epochs, "fit.bin", "fit_latent.txt", "fit_history.csv"
            ))
        return {f.name: sha256(f) for f in sorted(self.work.iterdir())}

    def count_train_windows(self) -> int:
        """Train windows `kpivae train` will see, counted the way cmd_train splits them."""
        kp = self.kp
        records = kp.data.load_records(self.p("train.csv"))
        stats = kp.data.load_norm_stats(self.p("stats.txt"))
        window = self.spec["window"]
        windows = kp.data.window_sequences(records, window, stride=window, stats=stats)
        train_ids, _ = kp.cli.split_elements((w.element_id for w in windows), 0.05)
        return sum(w.element_id in train_ids for w in windows)

    def expected_cells(self) -> int:
        window = self.spec["window"]
        return self.size.test_elements * (self.size.days // window * window)

    def command(self, check: Checks) -> float:
        if self.kind == "train":
            argv = self._train_argv(
                self.spec["window"], self.spec["prior_std"], self.epochs,
                "ckpt.bin", "latent.txt", history="history.csv",
            )
        else:
            argv = [
                "score", "--data", self.p("test.csv"), "--checkpoint", self.p("fit.bin"),
                "--model", self.p("model.txt"), "--stats", self.p("stats.txt"),
                "--latent-stats", self.p("fit_latent.txt"), "--out", self.p("report.csv"),
                "--window", self.spec["window"], "--eval-samples", self.spec["eval_samples"],
            ]
        return self.cli(check, *argv)

    def check_outputs(self, check: Checks) -> tuple[dict, dict[str, str]]:
        """Output checks of the last command; returns its figures and fingerprints."""
        if self.kind == "train":
            return self._check_train(check)
        return self._check_score(check)

    def _check_train(self, check: Checks):
        names = ("ckpt.bin", "history.csv", "latent.txt")
        header, rows = read_csv(self.p("history.csv"))
        check(len(rows) == self.epochs, f"history has {len(rows)} rows, want {self.epochs}")
        check(all(all_finite(r) for r in rows), "non-finite value in history")
        params = loads(check, self.kp.vae.load_checkpoint, self.p("ckpt.bin"))
        if params is not None:
            check(all(np.isfinite(t).all() for t in params.tensors.values()), "non-finite weight")
        loads(check, self.kp.anomaly.load_latent_stats, self.p("latent.txt"))
        fingerprints = {n: sha256(self.p(n)) for n in names}
        return {"val_loss": last_val_loss(self.p("history.csv"))}, fingerprints

    def _check_score(self, check: Checks):
        header, rows = read_csv(self.p("report.csv"))
        want = self.expected_cells()
        check(len(rows) == want, f"report has {len(rows)} rows, want {want} unique cells")
        check(len({(r[1], r[2]) for r in rows}) == len(rows), "report repeats a cell")
        check([int(r[0]) for r in rows] == list(range(1, len(rows) + 1)), "ranks are not 1..n")
        loss, loglik, kl = (header.index(c) for c in ("loss", "loglik", "kl"))
        worst = max(
            (abs(float(r[loss]) - (float(r[kl]) - float(r[loglik]))) for r in rows), default=0.0
        )
        check(worst <= LOSS_TOLERANCE, f"loss != kl - loglik by {worst}")
        zcols = [i for i, c in enumerate(header) if c.startswith("z_")]
        check(all(all_finite(r[i] for i in zcols) for r in rows), "non-finite z-score")
        return {"cells": len(rows)}, {"report.csv": sha256(self.p("report.csv"))}


def run_workload(kp, workload: str, seed: int, seconds: float, trace: bool, size: Size) -> dict:
    """One benchmark run; returns the full record (metrics, checks, fingerprints)."""
    work = OUT_DIR / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(Pipeline(kp, workload, seed, size, work), workload, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(pipe: Pipeline, workload: str, seconds: float, trace: bool) -> dict:
    check = Checks()
    kind = pipe.kind

    # set-up, several times; every repetition must give the same artifact bytes
    setup_times, setup_hashes, setup_spans = [], [], {}
    for _ in range(1 if trace else SETUP_REPS[kind]):
        tracer = Tracer() if trace else None
        t0 = time.perf_counter()
        with tracer or contextlib.nullcontext():
            setup_hashes.append(pipe.setup(check))
        setup_times.append(time.perf_counter() - t0)
        if tracer:
            setup_spans = tracer.metrics()
    check(all(h == setup_hashes[0] for h in setup_hashes), "set-up artifacts differ")
    train_windows = pipe.count_train_windows() if kind == "train" else None

    # measured commands: untraced ones give the end-to-end figures; with
    # tracing, each is paired with a traced one for the per-layer figures
    plain, traced, fingerprints, figures = [], [], [], []
    start = time.perf_counter()
    while True:
        for tracer in (None, Tracer()) if trace else (None,):
            with tracer or contextlib.nullcontext():
                wall = pipe.command(check)
            fig, fp = pipe.check_outputs(check)
            figures.append(fig)
            fingerprints.append(fp)
            (traced if tracer else plain).append((wall, tracer))
        elapsed = time.perf_counter() - start
        last = sum(w for w, _ in plain[-1:] + traced[-1:])
        if elapsed + last > seconds:
            break
    agree = check(all(fp == fingerprints[0] for fp in fingerprints), "outputs differ in repeats")

    if kind == "train":
        work, val_loss = train_windows * pipe.epochs, figures[0]["val_loss"]
    else:
        work, val_loss = figures[0]["cells"], last_val_loss(pipe.p("fit_history.csv"))
    e2e = {
        "work_per_s": statistics.median([work / w for w, _ in plain]),
        "val_loss": val_loss,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    record = {
        "workload": workload,
        "seed": pipe.seed,
        "synth_seeds": [pipe.train_seed, pipe.test_seed] if kind == "score" else [pipe.train_seed],
        "environment": environment(),
        "end_to_end": e2e,
        "work_per_command": work,
        "commands": len(plain) + len(traced),
        "command_walls_s": [w for w, _ in plain],
        "fingerprints": fingerprints[0],
        "setup_fingerprints": setup_hashes[0],
        "fingerprints_agree": agree,
    }
    if trace:
        record["per_layer"] = per_layer(kind, plain, traced, setup_spans, check)
    record["attempted"] = check.attempted
    record["failed"] = len(check.failures)
    record["failures"] = check.failures
    return record


def per_layer(kind: str, plain, traced, setup_spans: dict, check: Checks) -> dict:
    runs = [t.metrics() for _, t in traced]
    # each traced repeat runs right after its untraced twin
    overhead = statistics.median([t - p for (p, _), (t, _) in zip(plain, traced)])
    out = {"trace.overhead_s": overhead}
    missing = []
    for name, _, _ in PER_LAYER:
        if name in out:
            continue
        source = [setup_spans] if name.rsplit(".", 1)[0] in SETUP_SPANS else runs
        if all(name in m for m in source):
            out[name] = statistics.median([m[name] for m in source])
        else:
            missing.append(name)
            out[name] = 0.0
    check(not missing, f"no span behind per-layer metrics {missing}")
    calls = runs[0]
    for span in MUST_FIRE[kind] + SETUP_SPANS:
        fired = (setup_spans if span in SETUP_SPANS else calls).get(f"{span}.calls", 0)
        check(fired > 0, f"span {span} never fired on a {kind} workload")
    for span in MUST_NOT_FIRE[kind]:
        check(calls.get(f"{span}.calls", 0) == 0, f"span {span} fired on a {kind} workload")
    return out


def result_line(record: dict, trace: bool) -> dict:
    metrics = record["per_layer"] if trace else record["end_to_end"]
    units = {n: u for n, u, _ in PER_LAYER} if trace else E2E_METRICS
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def smoke(kp) -> int:
    """Every workload at toy size, traced; checks harness, outputs and coverage."""
    ok = True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = sorted((m["name"], m["unit"], m["better"]) for m in declared["per_layer"])
    if want != sorted(PER_LAYER):
        print("smoke: BENCHMARK.json per_layer differs from run.py PER_LAYER")
        ok = False
    if {m["name"]: m["unit"] for m in declared["end_to_end"]} != E2E_METRICS:
        print("smoke: BENCHMARK.json end_to_end differs from run.py E2E_METRICS")
        ok = False
    for workload in WORKLOADS:
        t0 = time.perf_counter()
        record = run_workload(kp, workload, seed=0, seconds=0, trace=True, size=SMOKE)
        good = not record["failures"]
        ok &= good
        print(
            f"smoke {workload}: {'ok' if good else 'FAIL'} "
            f"({record['attempted']} checks, {time.perf_counter() - t0:.1f} s)"
        )
        for f in record["failures"]:
            print(f"  {f}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size self-check of the harness")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    kp = import_kpivae()
    try:
        if args.smoke:
            return smoke(kp)
        record = run_workload(kp, args.workload, args.seed, args.seconds, bool(args.trace), FULL)
    except CommandFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for f in record["failures"]:
        print(f"check failed: {f}", file=sys.stderr)
    info = ("workload", "seed", "fingerprints", "fingerprints_agree", "environment")
    print(json.dumps({k: record[k] for k in info}))
    print(json.dumps(result_line(record, bool(args.trace))))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
