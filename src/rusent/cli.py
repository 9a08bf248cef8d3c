"""Command-line pipeline: ingest, preprocess, fit-features, train, predict,
evaluate, and the five-classifier compare benchmark.

Stages communicate through files in the output directory: ``STAGES`` names
the files each stage reads and writes. All randomness derives from the single
configured base seed, so reruns with the same config are byte-identical.
"""

import argparse
import contextlib
import json
import os
import signal
import sys

from . import __version__
from .artifacts import csv_rows, replacing, write_csv, write_json
from .config import PROTOCOLS, SCHEMA, RunConfig, apply_cli_values, parse_config_file
from .corpus import LABEL_NAMES, Sentiment, label_distribution, load_csv
from .exceptions import ConfigError, MalformedRowError, RusentError
from .models import CLASSIFIER_KINDS, ClassifierSpec, load_model, make_classifier, save_model
from .preprocess import TokenizedComment, default_stopwords, load_stopwords, preprocess_corpus

# eval and features load numpy: the commands that build arrays import them in
# their own body, so that ingest and preprocess start without it.

# The config keys that a flag of the same name, with "-" for "_", overrides;
# each with its help text.
FLAGS = {
    "dataset": "dataset CSV (comment,sentiment[,ignored])",
    "stopwords": "stop-word file (one word per line)",
    "seed": "base seed for all randomness",
    "out": "output directory for stage artifacts",
    "protocol": "evaluation protocol",
    "max_features": f"vocabulary size cap (default {RunConfig._field_defaults['max_features']})",
    "fit_on_all": "fit the tf-idf vocabulary on train+test instead of train only",
    "skip_bad_rows": "skip malformed dataset rows instead of aborting",
    "strip_punct": "strip leading/trailing punctuation from tokens",
}


def _numpy_round6(x):
    """``x`` rounded to 6 decimals as numpy rounds a float64, rint(x * 1e6) / 1e6;
    ingest's label distribution has always been rounded so. ``round(x, 6)`` differs
    on 512 of the fractions c / n with n <= 3000, 1 / 640 among them."""
    return round(x * 1e6) / 1e6


def _round6(obj):
    if isinstance(obj, float):
        return round(obj, 6)
    if isinstance(obj, dict):
        return {k: _round6(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round6(v) for v in obj]
    return obj


def _stage_paths(config, args):
    """The paths in the output directory of the files that the stage
    ``args.command`` reads, then of those it writes, as ``STAGES`` lists them;
    a missing input names the stage that writes it."""
    _, reads, writes = STAGES[args.command]
    kind = getattr(args, "classifier", None)
    paths = [os.path.join(config.out, name.format(kind=kind)) for name in reads + writes]
    for name, path in zip(reads, paths):
        if not os.path.exists(path):
            producer = next(stage for stage, (_, _, out) in STAGES.items() if name in out)
            raise FileNotFoundError(f"missing artifact {path}; run the '{producer}' stage first")
    return paths


def _info(message):
    print(message, file=sys.stderr)


def _load_stopword_list(config):
    return load_stopwords(config.stopwords) if config.stopwords else default_stopwords()


def _distribution_line(corpus):
    dist = label_distribution(corpus)
    return " ".join(f"{s.label} {dist[s]['fraction']:.1%}" for s in Sentiment)


def _artifact_rows(path, parsers):
    """The first three fields of each data row of a stage CSV artifact, those
    at a column of ``parsers`` parsed by its function; a shorter row or a
    field that does not parse raises MalformedRowError naming its line."""
    for line, row in csv_rows(path):
        try:
            if len(row) < 3:
                raise ValueError(f"expected 3 fields, got {len(row)}")
            fields = [parsers.get(i, str)(v) for i, v in enumerate(row[:3])]
        except ValueError as exc:
            raise MalformedRowError(f"{path} line {line}: {exc}", [(line, str(exc))]) from None
        yield fields


def _split_side(path):
    """The docs of one side of the staged split, in split order, from the
    file at ``path`` that fit-features wrote; row ids index the preprocessed rows."""
    return [TokenizedComment(row_id, tuple(text_final.split()), label)
            for row_id, label, text_final in _artifact_rows(path, {0: int, 1: Sentiment.parse})]


def _load_dataset(config):
    if not config.dataset:
        raise ConfigError("no dataset configured; set 'dataset' or pass --dataset")
    return load_csv(config.dataset, dedup=config.dedup, skip_bad_rows=config.skip_bad_rows)


def cmd_ingest(config, args):
    corpus = _load_dataset(config)
    out_path, distribution_path = _stage_paths(config, args)
    os.makedirs(config.out, exist_ok=True)
    write_csv(out_path, ["comment", "sentiment"], ([r.text, r.label.label] for r in corpus))
    payload = {s.label: {"count": d["count"], "fraction": _numpy_round6(d["fraction"])}
               for s, d in label_distribution(corpus).items()}
    write_json(distribution_path, payload)
    print(json.dumps(payload, sort_keys=True))
    _info(f"ingested {len(corpus)} records -> {out_path}")
    return 0


def cmd_preprocess(config, args):
    corpus_path, out_path = _stage_paths(config, args)
    corpus = load_csv(corpus_path, dedup=False)
    stopwords = _load_stopword_list(config)
    docs = preprocess_corpus(corpus, stopwords, config.strip_punct)
    write_csv(out_path, ["comment", "sentiment", "text_final"],
              ([r.text, r.label.label, d.text_final] for r, d in zip(corpus, docs)))
    emptied = sum(1 for d in docs if d.is_empty)
    _info(
        f"preprocessed {len(docs)} records ({emptied} emptied by stop-word "
        f"removal) -> {out_path}"
    )
    return 0


def cmd_fit_features(config, args):
    """Cut the staged split, as evaluate_once(seed=config.seed) does, for train and predict."""
    from .eval import fit_vocabulary, plan_splits
    from .features import save_tfidf, write_word_frequencies

    in_path, model_path, frequencies_path, *side_paths = _stage_paths(config, args)
    rows = enumerate(_artifact_rows(in_path, {1: Sentiment.parse}))
    docs = [TokenizedComment(i, tuple(text_final.split()), label)
            for i, (_, label, text_final) in rows]
    (part,) = plan_splits(docs, "repeated", config.seed, runs=1, train_ratio=config.train_ratio)
    vectorizer = fit_vocabulary(part, fit_on_all=config.fit_on_all,
                                max_features=config.max_features)
    save_tfidf(vectorizer, model_path)
    write_word_frequencies(vectorizer, frequencies_path)
    _info(f"fitted tf-idf vocabulary of {vectorizer.n_features_} terms -> {model_path}")
    for path, side in zip(side_paths, (part.train, part.test)):
        write_csv(path, ["row_id", "sentiment", "text_final"],
                  ([d.row_id, d.label.label, d.text_final] for d in side))
        _info(f"{len(side)} records ({_distribution_line(side)}) -> {path}")
    return 0


def cmd_train(config, args):
    from .eval import train_seed
    from .features import load_tfidf

    train_path, tfidf_path, model_path = _stage_paths(config, args)
    docs = _split_side(train_path)
    X = load_tfidf(tfidf_path).transform(docs)
    spec = ClassifierSpec(args.classifier, config.classifier_overrides(args.classifier))
    model = make_classifier(spec, seed=train_seed(config.seed, spec.kind))
    model.fit(X, [d.label for d in docs])
    save_model(model, model_path)
    _info(f"trained {spec.kind} on {X.shape[0]} records -> {model_path}")
    return 0


def cmd_predict(config, args):
    from .features import load_tfidf

    model_path, test_path, tfidf_path, out_path = _stage_paths(config, args)
    docs = _split_side(test_path)
    X = load_tfidf(tfidf_path).transform(docs)
    predictions = load_model(model_path).predict(X)
    write_csv(out_path, ["row_id", "truth", "predicted"],
              ([d.row_id, d.label.label, Sentiment(int(p)).label]
               for d, p in zip(docs, predictions)))
    _info(f"predicted {len(docs)} test records -> {out_path}")
    return 0


def cmd_evaluate(config, args):
    from .eval import confusion_matrix, metrics

    pred_path, out_path = _stage_paths(config, args)
    rows = list(_artifact_rows(pred_path, {1: Sentiment.parse, 2: Sentiment.parse}))
    cm = confusion_matrix([truth for _, truth, _ in rows], [pred for _, _, pred in rows])
    report = metrics(cm)
    payload = {
        "classifier": args.classifier,
        "count": int(cm.sum()),
        "confusion": cm.tolist(),
        **report.as_dict(),
    }
    write_json(out_path, _round6(payload))
    _info(f"accuracy {report.accuracy:.6f} -> {out_path}")
    return 0


def _ranking(results):
    order = sorted(results, key=lambda kind: (-results[kind].mean["accuracy"], kind))
    return [
        {"classifier": kind, "mean_accuracy": results[kind].mean["accuracy"]}
        for kind in order
    ]


def _write_compare_outputs(config, results, protocol_payload):
    ranking = _ranking(results)
    payload = {
        "protocol": protocol_payload,
        "classifiers": {
            kind: {
                "runs": len(agg.per_run),
                "seeds": list(agg.seeds),
                "mean": agg.mean,
                "std": agg.std,
                "per_run": [r.as_dict() for r in agg.per_run],
                "pooled_confusion": agg.pooled_confusion.tolist(),
            }
            for kind, agg in results.items()
        },
        "ranking": ranking,
    }
    write_json(os.path.join(config.out, "metrics.json"), _round6(payload))

    write_csv(os.path.join(config.out, "metrics.csv"), ["classifier", "metric", "mean", "std"],
              ([kind, name, f"{agg.mean[name]:.6f}", f"{agg.std[name]:.6f}"]
               for kind, agg in sorted(results.items()) for name in sorted(agg.mean)))
    for kind, agg in results.items():
        write_csv(os.path.join(config.out, f"confusion_{kind}.csv"), ["true_class", *LABEL_NAMES],
                  ([s.label, *agg.pooled_confusion[s].tolist()] for s in Sentiment))

    lines = [f"{'rank':>4}  {'classifier':<20} {'mean_accuracy':>13} {'std':>9}"]
    for position, entry in enumerate(ranking, start=1):
        kind = entry["classifier"]
        lines.append(
            f"{position:>4}  {kind:<20} {results[kind].mean['accuracy']:>13.6f} "
            f"{results[kind].std['accuracy']:>9.6f}"
        )
    table = "\n".join(lines) + "\n"
    with replacing(os.path.join(config.out, "ranking.txt")) as fh:
        fh.write(table)
    print(table, end="")


def cmd_compare(config, args):
    from .eval import evaluate_specs, plan_splits

    corpus = _load_dataset(config)
    stopwords = _load_stopword_list(config)
    os.makedirs(config.out, exist_ok=True)  # an --out that cannot be a directory fails here
    _info(f"corpus: {len(corpus)} records, {_distribution_line(corpus)}")
    docs = preprocess_corpus(corpus, stopwords, config.strip_punct)
    plan = plan_splits(docs, config.protocol, config.seed, runs=config.runs,
                       train_ratio=config.train_ratio, folds=config.folds)
    for part in plan:
        _info(
            f"[{part.name}] train: {_distribution_line(part.train)} | "
            f"test: {_distribution_line(part.test)}"
        )
    if config.protocol == "repeated":
        protocol_payload = {"train_ratio": config.train_ratio, "runs": config.runs}
    else:
        protocol_payload = {"folds": config.folds}
    protocol_payload.update(
        name=config.protocol,
        fit_on_all=config.fit_on_all,
        max_features=config.max_features,
        seed=config.seed,
    )
    aggregates = evaluate_specs(
        [ClassifierSpec(kind, config.classifier_overrides(kind)) for kind in CLASSIFIER_KINDS],
        plan,
        fit_on_all=config.fit_on_all,
        max_features=config.max_features,
    )
    results = dict(zip(CLASSIFIER_KINDS, aggregates))
    for kind, agg in results.items():
        _info(
            f"{kind}: mean accuracy {agg.mean['accuracy']:.6f} "
            f"(std {agg.std['accuracy']:.6f})"
        )
    _write_compare_outputs(config, results, protocol_payload)
    return 0


# Each stage's command, the output-directory files it reads, in the order it
# checks them, and those it writes, in the order it unpacks them; "{kind}"
# stands for the --classifier kind, which a stage takes when a name holds it.
STAGES = {
    "ingest": (cmd_ingest, (), ("corpus.csv", "label_distribution.json")),
    "preprocess": (cmd_preprocess, ("corpus.csv",), ("preprocessed.csv",)),
    "fit-features": (cmd_fit_features, ("preprocessed.csv",),
                     ("tfidf.json", "word_frequencies.csv", "train.csv", "test.csv")),
    "train": (cmd_train, ("train.csv", "tfidf.json"), ("model_{kind}.json",)),
    "predict": (cmd_predict, ("model_{kind}.json", "test.csv", "tfidf.json"),
                ("predictions_{kind}.csv",)),
    "evaluate": (cmd_evaluate, ("predictions_{kind}.csv",), ("metrics_{kind}.json",)),
    "compare": (cmd_compare, (), ()),
}
_COMMANDS = {stage: command for stage, (command, _, _) in STAGES.items()}


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key=value config file")
    for key, help_text in FLAGS.items():  # a bool key is a switch; unset flags stay None
        value = ({"action": "store_true", "default": None} if SCHEMA[key] is bool else
                 {"type": SCHEMA[key], "choices": PROTOCOLS if key == "protocol" else None})
        common.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text, **value)

    parser = argparse.ArgumentParser(
        prog="rusent", description="Roman Urdu sentiment classification benchmark toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for stage, (_, reads, writes) in STAGES.items():
        p = sub.add_parser(stage, parents=[common])
        if any("{kind}" in name for name in reads + writes):
            p.add_argument("--classifier", required=True, choices=list(CLASSIFIER_KINDS),
                           help="classifier kind the stage operates on")
    return parser


def build_config(args):
    config = parse_config_file(args.config) if args.config else RunConfig()
    return apply_cli_values(config, **{key: getattr(args, key) for key in FLAGS})


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = build_config(args)
        return _COMMANDS[args.command](config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RusentError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _interrupted(signum, frame):
    """Ctrl-C under the ``rusent`` command: kill and reap compare's forked
    scoring workers, which ignore it, and end the run with exit code 1."""
    # no import here: a pool can have forked only once multiprocessing is loaded whole
    for worker in getattr(sys.modules.get("multiprocessing"), "active_children", list)():
        worker.kill()
        worker.join()
    os.write(2, b"error: interrupted\n")
    os._exit(1)  # no wait on a pool: a worker killed while it sends a result can block it


def run():
    """The ``rusent`` command: ``main``, then an exit that a Ctrl-C cannot end with -2.

    However ``main`` ends, argparse's exits and an unwritable error line included,
    it flushes standard output, a failure being a named error, and standard
    error, then ends with ``os._exit``: no teardown of every module and object,
    no atexit handler, no finalizer. Every artifact is closed and renamed inside
    ``artifacts.replacing`` before ``main`` returns, and ``evaluate_specs`` has
    reaped every worker with ``shutdown(wait=True)``, so nothing is lost."""
    if signal.getsignal(signal.SIGINT) is not signal.SIG_IGN:  # an inherited ignore stays
        signal.signal(signal.SIGINT, _interrupted)  # the first Ctrl-C ends the run
    try:
        status = main()
    except SystemExit as exc:  # argparse: a usage error, --help or --version
        status = exc.code
    except OSError:  # main's own error line could not be written
        status = 1
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with contextlib.suppress(OSError):  # an unwritable standard error has no one to tell
        try:
            if sys.stdout is not None:  # None when the command started with fd 1 closed
                sys.stdout.flush()
        except OSError as exc:
            status = 1
            print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        if sys.stderr is not None:
            sys.stderr.flush()
    os._exit(status)
