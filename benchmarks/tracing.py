"""Span tracing of rusent from outside the package, and the per-layer
metrics derived from the spans.

``install`` wraps the public functions of each rusent module, the
estimators' ``fit``/``predict`` and the CLI stage table, so that every call
records a span: name, start, end, parent span, run id and a few
attributes (shapes, seeds, hyperparameters). Modules such as ``eval`` and
``cli`` import functions by name, so each function is replaced everywhere
it is bound, not only where it is defined. Spans stay in memory and are
written once, when the traced process ends.
"""

import functools
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

KINDS = ("knn", "linear_svm", "logistic_regression", "mlp", "naive_bayes")
STAGES = ("ingest", "preprocess", "fit-features", "train", "predict", "evaluate",
          "compare")
N_CLASSES = 3


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        """Return ``fn`` recording a span per call; ``attrs(result, args)``
        adds attributes computed from the bound arguments and the result."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None,
                    "run": self.run_id}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(attrs(result, bound.arguments))
            return result

        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _fit_attrs(kind):
    def attrs(model, a):
        n = a["X"].shape[0]
        out = {"rows": n}
        if kind == "linear_svm":
            out["sample_steps"] = model.epochs * n * N_CLASSES
        elif kind == "mlp":
            out["batch_steps"] = model.epochs * math.ceil(n / model.batch_size)
        elif kind == "logistic_regression":
            out["grad_evals"] = model.epochs + 1
        if getattr(model, "final_loss_", None) is not None:
            out["final_loss"] = float(model.final_loss_)
        return out
    return attrs


def _predict_attrs(result, a):
    model = a["self"]
    out = {"rows": a["X"].shape[0]}
    if model.kind == "knn":
        out["distance_entries"] = a["X"].shape[0] * model.X_.shape[0]
    return out


def _size_attrs(result, a):
    return {"bytes": os.path.getsize(a["path"])}


def install(tracer):
    """Wrap rusent's layer boundaries; return the traced ``cli.main``."""
    import rusent.cli
    from rusent import corpus, eval as evaluation, features, models, preprocess

    modules = [m for name, m in sys.modules.items()
               if name == "rusent" or name.startswith("rusent.")]

    def patch(owner, attr, span, attrs=None):
        original = getattr(owner, attr)
        wrapped = tracer.wrap(span, original, attrs)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)

    patch(corpus, "load_csv", "corpus.load_csv")
    patch(corpus, "split", "corpus.split",
          lambda r, a: {"split": ["split", int(a["seed"]), 1]})
    patch(corpus, "kfold", "corpus.split",
          lambda r, a: {"split": ["kfold", int(a["seed"]), int(a["k"])]})
    patch(preprocess, "preprocess_corpus", "preprocess",
          lambda docs, a: {"rows": len(docs),
                           "emptied": [d.row_id for d in docs if d.is_empty]})
    patch(features, "save_tfidf", "features.persist")
    patch(features, "load_tfidf", "features.persist")
    patch(features, "write_word_frequencies", "features.persist")
    patch(models, "save_model", "models.persist.save", _size_attrs)
    patch(models, "load_model", "models.persist.load")
    patch(evaluation, "confusion_matrix", "eval.metrics")
    patch(evaluation, "metrics", "eval.metrics", lambda r, a: {"cell": 1})

    vec = features.TfidfVectorizer
    vec.fit = tracer.wrap("features.fit", vec.fit,
                          lambda model, a: {"vocab": model.n_features_})
    vec.transform = tracer.wrap(
        "features.transform", vec.transform,
        lambda X, a: {"rows": X.shape[0], "nnz": int(X.nnz)})
    for kind in KINDS:
        cls = models.classifier_class(kind)
        cls.fit = tracer.wrap(f"models.{kind}.fit", cls.fit, _fit_attrs(kind))
        cls.predict = tracer.wrap(f"models.{kind}.predict", cls.predict,
                                  _predict_attrs)

    commands = rusent.cli._COMMANDS
    for stage, command in list(commands.items()):
        commands[stage] = tracer.wrap(f"cli.stage.{stage}", command)
    return tracer.wrap("cli.main", rusent.cli.main)


def layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for kind in KINDS:
        names += [(f"models.{kind}.fit.s", "s"), (f"models.{kind}.predict.s", "s")]
    names += [
        ("models.linear_svm.sample_steps", "count"),
        ("models.mlp.batch_steps", "count"),
        ("models.logistic_regression.grad_evals", "count"),
        ("models.knn.distance_entries", "count"),
        ("models.logistic_regression.final_loss", "nats"),
        ("models.linear_svm.final_loss", "objective"),
        ("models.mlp.final_loss", "nats"),
        ("models.persist.save.s", "s"),
        ("models.persist.load.s", "s"),
        ("models.persist.bytes", "bytes"),
        ("features.fit.s", "s"),
        ("features.transform.s", "s"),
        ("features.transform.rows", "count"),
        ("features.fit_per_split", "count"),
        ("features.nnz_per_row", "count"),
        ("features.vocab_size", "count"),
        ("features.persist.s", "s"),
        ("preprocess.s", "s"),
        ("preprocess.calls_per_split", "count"),
        ("preprocess.emptied_docs", "count"),
        ("corpus.load_csv.s", "s"),
        ("corpus.split.s", "s"),
        ("corpus.split.calls", "count"),
        ("eval.metrics.s", "s"),
        ("eval.cells", "count"),
        ("cli.self.s", "s"),
        ("cli.startup.s", "s"),
    ]
    names += [(f"cli.stage.{stage}.s", "s") for stage in STAGES]
    names += [("cli.artifact_bytes", "bytes"), ("trace.wall_s", "s"),
              ("trace.overhead_s", "s")]
    return names


def _self_times(spans):
    """Span duration minus the time its direct children cover."""
    self_time = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            self_time[s["parent"]] -= s["end"] - s["start"]
    return self_time


def layer_metrics(processes, wall_s, untraced_wall_s, artifact_bytes):
    """Per-layer metrics from the span lists of one traced workload run.

    ``processes`` holds one span list per traced process. Times are self
    times summed over spans of the same name, except ``cli.stage.*``, which
    is the whole stage. ``cli.self.s`` is the time inside ``main`` and the
    stage functions that no library span covers (CSV/JSON reads and writes,
    logging); ``cli.startup.s`` is the process time outside ``main``
    (interpreter start and imports).
    """
    busy = defaultdict(float)
    calls = defaultdict(int)
    sums = defaultdict(float)
    finals = defaultdict(list)
    splits = set()
    emptied = set()
    vocab = []
    main_s = 0.0
    for spans in processes:
        for span, own in zip(spans, _self_times(spans)):
            name = span["name"]
            calls[name] += 1
            if name.startswith("cli.stage."):
                busy[name] += span["end"] - span["start"]
                busy["cli.self"] += own
            elif name == "cli.main":
                busy["cli.self"] += own
                main_s += span["end"] - span["start"]
            else:
                busy[name] += own
            for key in ("rows", "nnz", "sample_steps", "batch_steps", "grad_evals",
                        "distance_entries", "bytes", "cell"):
                if key in span:
                    sums[f"{name}.{key}"] += span[key]
            if "final_loss" in span:
                finals[name].append(span["final_loss"])
            if "split" in span:
                splits.add(tuple(span["split"]))
            if "vocab" in span:
                vocab.append(span["vocab"])
            emptied.update(span.get("emptied", ()))

    n_splits = sum(k for _, _, k in splits)
    rows = sums["features.transform.rows"]
    m = {}
    for kind in KINDS:
        m[f"models.{kind}.fit.s"] = busy[f"models.{kind}.fit"]
        m[f"models.{kind}.predict.s"] = busy[f"models.{kind}.predict"]
    m["models.linear_svm.sample_steps"] = sums["models.linear_svm.fit.sample_steps"]
    m["models.mlp.batch_steps"] = sums["models.mlp.fit.batch_steps"]
    m["models.logistic_regression.grad_evals"] = sums[
        "models.logistic_regression.fit.grad_evals"]
    m["models.knn.distance_entries"] = sums["models.knn.predict.distance_entries"]
    for kind in ("logistic_regression", "linear_svm", "mlp"):
        losses = finals[f"models.{kind}.fit"]
        m[f"models.{kind}.final_loss"] = sum(losses) / len(losses) if losses else 0.0
    m["models.persist.save.s"] = busy["models.persist.save"]
    m["models.persist.load.s"] = busy["models.persist.load"]
    m["models.persist.bytes"] = sums["models.persist.save.bytes"]
    m["features.fit.s"] = busy["features.fit"]
    m["features.transform.s"] = busy["features.transform"]
    m["features.transform.rows"] = rows
    m["features.fit_per_split"] = calls["features.fit"] / n_splits if n_splits else 0.0
    m["features.nnz_per_row"] = sums["features.transform.nnz"] / rows if rows else 0.0
    m["features.vocab_size"] = sum(vocab) / len(vocab) if vocab else 0.0
    m["features.persist.s"] = busy["features.persist"]
    m["preprocess.s"] = busy["preprocess"]
    m["preprocess.calls_per_split"] = calls["preprocess"] / n_splits if n_splits else 0.0
    m["preprocess.emptied_docs"] = len(emptied)
    m["corpus.load_csv.s"] = busy["corpus.load_csv"]
    m["corpus.split.s"] = busy["corpus.split"]
    m["corpus.split.calls"] = calls["corpus.split"]
    m["eval.metrics.s"] = busy["eval.metrics"]
    m["eval.cells"] = sums["eval.metrics.cell"]
    m["cli.self.s"] = busy["cli.self"]
    m["cli.startup.s"] = wall_s - main_s
    for stage in STAGES:
        m[f"cli.stage.{stage}.s"] = busy[f"cli.stage.{stage}"]
    m["cli.artifact_bytes"] = artifact_bytes
    m["trace.wall_s"] = wall_s
    m["trace.overhead_s"] = wall_s - untraced_wall_s
    return m


def layer_shares(m):
    """Share of the traced wall time per layer group, for the report."""
    wall = m["trace.wall_s"]
    groups = {
        "models": sum(v for k, v in m.items()
                      if k.startswith("models.") and k.endswith(".s")),
        "features": m["features.fit.s"] + m["features.transform.s"]
        + m["features.persist.s"],
        "preprocess": m["preprocess.s"],
        "corpus": m["corpus.load_csv.s"] + m["corpus.split.s"],
        "eval": m["eval.metrics.s"],
        "cli.self": m["cli.self.s"],
        "cli.startup": m["cli.startup.s"],
    }
    groups["unaccounted"] = wall - sum(groups.values())
    return {k: v / wall for k, v in groups.items()}
