"""rusent benchmark: one command per workload, run through the real CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/rusent`` must be there; the
package is imported from it, not from an installed copy). The seed makes a
synthetic corpus; the program sees only that CSV and a config file.

With ``--trace 0`` the workload is run repeatedly, each CLI command as its
own ``python -m rusent`` process, for about S seconds (at least twice), and
the end-to-end metrics are reported as medians. One untimed repeat runs
first, as a warm-up. The host's speed drifts by up to half within seconds,
so ``wall_s`` and ``setup_s`` are reported at a fixed reference speed: a
thread of this process times a short fixed probe in thread CPU time about
every 60 ms while the children run, and each measured wall time is
multiplied by the reference probe time over the mean probe time sampled
during it (``SpeedProbe``). The raw wall times are printed beside them.

With ``--trace 1`` the workload runs untraced, then with spans recorded
from outside the package (``traced_cli.py``), then untraced again; the
per-layer metrics come from the traced run, and the tracing overhead is
its wall minus the mean of the two untraced walls.

Every CLI invocation and every output check is one operation; a non-zero
exit or a failed check counts as a failed operation. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import marshal
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np
import scipy
import scipy.sparse

import synthcorpus
import tracing

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
STOPWORDS = os.path.join(SRC, "rusent", "data", "stopwords_roman_urdu.txt")
WORK_DIR = os.path.join(ROOT, ".bench_work")
PROGRAM_SEED = 42
SETUP_LAUNCHES = 2  # per repeat of the workload
PROCESS_TIMEOUT_S = 150.0
RUN_BUDGET_S = 150.0
PROBE_SEED = 20210219
PROBE_PERIOD_S = 0.06
# Typical thread CPU time of one speed probe on a 2-vCPU Xeon host while
# the workloads run; scaled times read as seconds at that speed.
REFERENCE_PROBE_S = 0.0075

SETUP_SNIPPET = (
    "import sys, rusent.cli\n"
    "from rusent.config import parse_config_file\n"
    "from rusent.preprocess import default_stopwords\n"
    "parse_config_file(sys.argv[1]); default_stopwords()\n"
)


@dataclass(frozen=True)
class Workload:
    n_comments: int
    config: dict
    commands: tuple
    metrics_file: str
    staged_check: bool = False


# Sizes are chosen so that one repeat of every workload takes 4-10 s on a
# 2-vCPU machine, so a 30 s benchmark run holds a warm-up and two to five
# timed repeats.
WORKLOADS = {
    # One repeated split at default hyperparameters: the SVM and MLP fits
    # dominate, so model-kernel work shows here.
    "compare_paper": Workload(
        n_comments=2000,
        config={"protocol": "repeated", "runs": 1},
        commands=(("compare",),),
        metrics_file="metrics.json",
    ),
    # Ten folds with few epochs: per-fold preprocessing and tf-idf, redone
    # for each of the five classifiers, take as long as all the models.
    "kfold_light": Workload(
        n_comments=1500,
        config={
            "protocol": "kfold",
            "folds": 10,
            # Few epochs, with step sizes raised (and a narrower MLP) so that
            # every classifier still beats the majority-class rate.
            "linear_svm.epochs": 1,
            "linear_svm.lr": 0.5,
            "linear_svm.C": 300.0,
            "mlp.hidden_units": 32,
            "mlp.epochs": 8,
            "mlp.lr": 0.15,
            "logistic_regression.epochs": 20,
            "logistic_regression.lr": 5.0,
        },
        commands=(("compare",),),
        metrics_file="metrics.json",
    ),
    # Six staged naive Bayes commands, one process each: artifact I/O,
    # interpreter start-up and features dominate; no model kernel does.
    "staged_large": Workload(
        n_comments=20000,
        config={},
        commands=(
            ("ingest",),
            ("preprocess",),
            ("fit-features",),
            ("train", "--classifier", "naive_bayes"),
            ("predict", "--classifier", "naive_bayes"),
            ("evaluate", "--classifier", "naive_bayes"),
        ),
        metrics_file="metrics_naive_bayes.json",
        staged_check=True,
    ),
}


class Operations:
    """Counts operations (CLI invocations and output checks) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


class SpeedProbe:
    """Samples the machine's speed while the children run.

    The host's vCPUs speed up and slow down together, by up to half, in
    levels lasting from seconds to minutes, and kinds of work do not slow
    alike: memory-bound work often slows more than a tight loop. A daemon
    thread runs a fixed probe every ``PROBE_PERIOD_S`` (under a tenth of
    one core) and records its thread CPU time, which waiting for a core
    does not inflate. The probe mixes the kinds of work the program does: a
    sparse matrix product, a pointer chase through a shuffled Python list,
    unmarshalling code objects as an import does, and a bytecode loop. It
    is benchmark-owned, so a change to the program cannot speed it up. The
    main thread is blocked in ``wait4`` meanwhile, so the GIL is free.

    The probe does not see every slow spell: some, lasting tens of minutes,
    slowed the workloads by about half while it read its usual time.
    """

    def __init__(self):
        rng = np.random.default_rng(PROBE_SEED)
        self._matrix = scipy.sparse.random(2000, 2000, density=0.003, format="csr",
                                           random_state=rng)
        self._objects = list(range(400000))
        self._order = rng.permutation(len(self._objects))[:5000].tolist()
        source = "".join(f"def f{i}(x, y=({i}, 'k{i}')):\n    return [x, y, {i}.5]\n"
                         for i in range(200))
        self._code = marshal.dumps(compile(source, "probe", "exec"))
        self.samples = []  # (perf_counter at the end of the probe, CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _probe(self):
        product = self._matrix @ self._matrix.T
        objects = self._objects
        total = product.nnz + sum(objects[i] for i in self._order)
        for _ in range(6):
            marshal.loads(self._code)
        for i in range(10000):
            total += i * i % 7
        return total

    def _sample(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            cpu = time.thread_time()
            self._probe()
            self.samples.append((time.perf_counter(), time.thread_time() - cpu))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scale(self, start, end):
        """Reference probe time over the mean probe time in [start, end]."""
        inside = [cpu for t, cpu in self.samples if start <= t <= end]
        if not inside:  # shorter than one period: take the nearest sample
            inside = [min(self.samples, key=lambda s: abs(s[0] - end))[1]]
        return REFERENCE_PROBE_S / statistics.fmean(inside)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_process(argv, log_path):
    """Run one child to completion; return (exit code, wall s, peak RSS MB)."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=log, env=_child_env(),
                                cwd=ROOT)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def write_config(path, workload, dataset):
    lines = [f"dataset = {dataset}", f"seed = {PROGRAM_SEED}"]
    lines += [f"{key} = {value}" for key, value in workload.config.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class Iteration:
    start: float
    wall_s: float
    peak_rss_mb: float
    ok: bool
    out_dir: str
    spans: list


def run_workload(workload, config_path, run_dir, tag, ops, traced=False):
    """Run the workload's commands once, in order, in a fresh output dir."""
    out_dir = os.path.join(run_dir, f"out-{tag}")
    log = os.path.join(run_dir, f"log-{tag}.txt")
    span_files = []
    peak = 0.0
    ok = True
    start = time.perf_counter()
    for i, command in enumerate(workload.commands):
        args = [*command, "--config", config_path, "--out", out_dir]
        if traced:
            span_files.append(os.path.join(run_dir, f"spans-{tag}-{i}.json"))
            argv = [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"),
                    span_files[-1], f"{tag}-{i}", "--", *args]
        else:
            argv = [sys.executable, "-m", "rusent", *args]
        code, _, rss = run_process(argv, log)
        peak = max(peak, rss)
        if not ops.record(code == 0, f"{tag}: rusent {command[0]} exited {code}"):
            with open(log, encoding="utf-8", errors="replace") as fh:
                sys.stderr.writelines(fh.readlines()[-20:])
            ok = False
            break
    wall = time.perf_counter() - start
    spans = []
    for path in span_files if ok else ():
        with open(path, encoding="utf-8") as fh:
            spans.append(json.load(fh))
    return Iteration(start, wall, peak, ok, out_dir, spans)


def read_bytes(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def result_metrics(payload):
    """Per-kind accuracy and macro-F1 from a compare or an evaluate output."""
    if "classifiers" in payload:
        means = {k: v["mean"] for k, v in payload["classifiers"].items()}
    else:
        means = {payload["classifier"]: payload}
    return ({k: float(v["accuracy"]) for k, v in means.items()},
            {k: float(v["macro_f1"]) for k, v in means.items()})


def check_staged_contract(config_path, dataset, out_dir, ops):
    """Staged naive Bayes with seed S must equal in-process evaluate_once(seed=S)."""
    sys.path.insert(0, SRC)
    from rusent import ClassifierSpec, default_stopwords, load_csv
    from rusent.config import parse_config_file
    from rusent.eval import evaluate_once

    config = parse_config_file(config_path)
    cm, report = evaluate_once(
        ClassifierSpec("naive_bayes"), load_csv(dataset), default_stopwords(),
        train_ratio=config.train_ratio, max_features=config.max_features,
        seed=config.seed,
    )
    with open(os.path.join(out_dir, "metrics_naive_bayes.json"), encoding="utf-8") as fh:
        staged = json.load(fh)
    ops.record(staged["confusion"] == cm.tolist()
               and staged["accuracy"] == round(report.accuracy, 6),
               "staged naive_bayes metrics differ from evaluate_once")


def artifact_bytes(out_dir):
    return sum(os.path.getsize(os.path.join(out_dir, name))
               for name in os.listdir(out_dir))


def setup_launch(config_path, run_dir):
    """(start, wall) of one fresh interpreter that imports rusent, parses
    the config and loads the stop words."""
    log = os.path.join(run_dir, "log-setup.txt")
    start = time.perf_counter()
    code, wall, _ = run_process([sys.executable, "-c", SETUP_SNIPPET, config_path], log)
    if code != 0:
        raise RuntimeError(f"set-up process exited {code}; see {log}")
    return start, wall


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_line_count():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def environment(args, n_generated, n_distinct):
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = None
    return {
        "workload": args.workload,
        "trace": args.trace,
        "corpus_seed": args.seed,
        "corpus_rows": n_generated,
        "corpus_rows_distinct": n_distinct,
        "program_seed": PROGRAM_SEED,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_py_lines": src_line_count(),
    }


def timed_runs(workload, config_path, run_dir, seconds, ops):
    """Repeat the workload for about ``seconds`` (at least twice).

    Returns the repeats, the walls of the successful ones scaled to the
    reference speed, and the raw and scaled set-up walls. Set-up is timed
    just before each repeat, so that both are sampled over the same
    stretch of time.
    """
    # Not timed: the first set-up fills the bytecode cache, and the first
    # repeat of a run is often slower than the rest.
    setup_launch(config_path, run_dir)
    warm_up = run_workload(workload, config_path, run_dir, "warm-up", ops)
    if not warm_up.ok:
        return [warm_up], [], [], []
    setup = []
    runs = []
    with SpeedProbe() as probe:
        start = time.perf_counter()
        while True:
            setup += [setup_launch(config_path, run_dir) for _ in range(SETUP_LAUNCHES)]
            runs.append(run_workload(workload, config_path, run_dir, f"r{len(runs)}", ops))
            elapsed = time.perf_counter() - start
            typical = statistics.median(r.wall_s for r in runs)
            if not runs[-1].ok:
                break
            if len(runs) >= 2 and (elapsed + typical > seconds
                                   or elapsed + typical > RUN_BUDGET_S):
                break
    scaled = [r.wall_s * probe.scale(r.start, r.start + r.wall_s)
              for r in runs if r.ok]
    setup_scaled = [w * probe.scale(t, t + w) for t, w in setup]
    return runs, scaled, [w for _, w in setup], setup_scaled


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rusent", "cli.py")):
        print(f"error: no rusent sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    # Terminate like an interrupt, so children are stopped and files removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(WORK_DIR, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(run_dir)
    try:
        return run(args, workload, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass  # another benchmark run is still using it


def run(args, workload, run_dir):
    ops = Operations()
    dataset = os.path.join(run_dir, "corpus.csv")
    config_path = os.path.join(run_dir, "run.cfg")
    n_generated, n_distinct = synthcorpus.write_csv(
        dataset, args.seed, workload.n_comments, synthcorpus.read_stopwords(STOPWORDS))
    write_config(config_path, workload, dataset)

    if args.trace:
        # Untraced runs on both sides of the traced one, so that the first
        # run's extra cost and any drift in machine speed cancel in the
        # overhead estimate.
        runs = [run_workload(workload, config_path, run_dir, "untraced0", ops),
                run_workload(workload, config_path, run_dir, "traced", ops, traced=True),
                run_workload(workload, config_path, run_dir, "untraced1", ops)]
    else:
        runs, scaled, setup_raw, setup_scaled = timed_runs(
            workload, config_path, run_dir, args.seconds, ops)
    if not runs[0].ok or (args.trace and not all(r.ok for r in runs)):
        print("error: a CLI command failed; nothing to report", file=sys.stderr)
        return 1
    runs = [r for r in runs if r.ok]

    outputs = [read_bytes(os.path.join(r.out_dir, workload.metrics_file)) for r in runs]
    for i, data in enumerate(outputs[1:], start=1):
        ops.record(data is not None and data == outputs[0],
                   f"{workload.metrics_file} of run {i} differs from run 0")
    if workload.staged_check:
        check_staged_contract(config_path, dataset, runs[0].out_dir, ops)
    accuracy, macro_f1 = result_metrics(json.loads(outputs[0]))

    env = environment(args, n_generated, n_distinct)

    print(f"rusent benchmark: workload {args.workload}, corpus seed {args.seed}, "
          f"{len(runs)} run(s)")
    rows = []
    if args.trace:
        traced = runs[1]
        untraced_s = statistics.fmean((runs[0].wall_s, runs[2].wall_s))
        layer = tracing.layer_metrics(traced.spans, traced.wall_s, untraced_s,
                                      artifact_bytes(traced.out_dir))
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in tracing.layer_names()}
        rows += [(name, m["value"], m["unit"]) for name, m in metrics.items()]
        shares = tracing.layer_shares(layer)
        print("share of traced wall: " + ", ".join(
            f"{k} {v:.1%}" for k, v in shares.items()))
    else:
        metrics = {
            "wall_s": {"value": statistics.median(scaled), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r.peak_rss_mb for r in runs),
                            "unit": "MB"},
            "accuracy.mean": {"value": statistics.fmean(accuracy.values()),
                              "unit": "ratio"},
            "macro_f1.mean": {"value": statistics.fmean(macro_f1.values()),
                              "unit": "ratio"},
        }
        rows += [(name, m["value"], m["unit"]) for name, m in metrics.items()]
        rows += [("wall_raw_s", statistics.median(r.wall_s for r in runs), "s"),
                 ("setup_raw_s", statistics.median(setup_raw), "s"),
                 ("speed_scale", statistics.median(
                     w / r.wall_s for w, r in zip(scaled, runs)), "ratio")]
        print("wall_s and setup_s are at the reference speed (raw wall x speed scale)")
        print("raw wall per run: " + ", ".join(f"{r.wall_s:.3f}" for r in runs))
        print("scaled wall per run: " + ", ".join(f"{w:.3f}" for w in scaled))
    rows += [(f"accuracy.{k}", v, "ratio") for k, v in accuracy.items()]
    rows += [(f"macro_f1.{k}", v, "ratio") for k, v in macro_f1.items()]
    rows.append(("ops_failed_ratio", ops.failed / ops.attempted,
                 f"ratio ({ops.failed} failed / {ops.attempted} attempted)"))
    for name, value, unit in rows:
        print(f"  {name:<40} {value:>16.6f} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
