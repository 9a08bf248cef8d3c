"""Command-line pipeline: ingest, preprocess, fit-features, train, predict,
evaluate, and the five-classifier compare benchmark.

Stages communicate through files in the output directory; every stage
reads its predecessor's artifact. All randomness derives from the single
configured base seed, so reruns with the same config are byte-identical.
"""

import argparse
import json
import os
import sys

from . import __version__
from .artifacts import csv_rows, replacing, write_csv, write_json
from .config import PROTOCOLS, SCHEMA, RunConfig, apply_cli_values, parse_config_file
from .corpus import LABEL_NAMES, Sentiment, label_distribution, load_csv
from .eval import (confusion_matrix, evaluate_specs, fit_vocabulary, metrics, plan_splits,
                   train_seed)
from .exceptions import ConfigError, MalformedRowError, RusentError
from .features import load_tfidf, save_tfidf, write_word_frequencies
from .models import CLASSIFIER_KINDS, ClassifierSpec, load_model, make_classifier, save_model
from .preprocess import TokenizedComment, default_stopwords, load_stopwords, preprocess_corpus

CORPUS_FILE = "corpus.csv"
DISTRIBUTION_FILE = "label_distribution.json"
PREPROCESSED_FILE = "preprocessed.csv"
TFIDF_FILE = "tfidf.json"
WORD_FREQ_FILE = "word_frequencies.csv"
TRAIN_FILE = "train.csv"
TEST_FILE = "test.csv"

# The config keys that a flag of the same name, with "-" for "_", overrides;
# each with its help text.
FLAGS = {
    "dataset": "dataset CSV (comment,sentiment[,ignored])",
    "stopwords": "stop-word file (one word per line)",
    "seed": "base seed for all randomness",
    "out": "output directory for stage artifacts",
    "protocol": "evaluation protocol",
    "max_features": "vocabulary size cap (default 3000)",
    "fit_on_all": "fit the tf-idf vocabulary on train+test instead of train only",
    "skip_bad_rows": "skip malformed dataset rows instead of aborting",
    "strip_punct": "strip leading/trailing punctuation from tokens",
}


def _round6(obj):
    if isinstance(obj, float):
        return round(obj, 6)
    if isinstance(obj, dict):
        return {k: _round6(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round6(v) for v in obj]
    return obj


def _stage_input(config, name, producer):
    """The path of the artifact ``name`` in the output directory; a missing
    one names the stage that writes it."""
    path = os.path.join(config.out, name)
    if not os.path.exists(path):
        raise FileNotFoundError(f"missing artifact {path}; run the '{producer}' stage first")
    return path


def _info(message):
    print(message, file=sys.stderr)


def _load_stopword_list(config):
    if config.stopwords:
        return load_stopwords(config.stopwords)
    return default_stopwords()


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


def _split_side(config, name):
    """The docs of one side of the staged split, in split order, from the
    file ``name`` that fit-features wrote; row ids index preprocessed.csv."""
    path = _stage_input(config, name, "fit-features")
    return [TokenizedComment(row_id, tuple(text_final.split()), label)
            for row_id, label, text_final in _artifact_rows(path, {0: int, 1: Sentiment.parse})]


def _load_dataset(config):
    if not config.dataset:
        raise ConfigError("no dataset configured; set 'dataset' or pass --dataset")
    return load_csv(config.dataset, dedup=config.dedup, skip_bad_rows=config.skip_bad_rows)


def cmd_ingest(config, args):
    corpus = _load_dataset(config)
    os.makedirs(config.out, exist_ok=True)
    out_path = os.path.join(config.out, CORPUS_FILE)
    write_csv(out_path, ["comment", "sentiment"], ([r.text, r.label.label] for r in corpus))
    payload = {s.label: d for s, d in label_distribution(corpus).items()}
    write_json(os.path.join(config.out, DISTRIBUTION_FILE), _round6(payload))
    print(json.dumps(_round6(payload), sort_keys=True))
    _info(f"ingested {len(corpus)} records -> {out_path}")
    return 0


def cmd_preprocess(config, args):
    corpus = load_csv(_stage_input(config, CORPUS_FILE, "ingest"), dedup=False)
    stopwords = _load_stopword_list(config)
    docs = preprocess_corpus(corpus, stopwords, config.strip_punct)
    out_path = os.path.join(config.out, PREPROCESSED_FILE)
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
    rows = enumerate(_artifact_rows(_stage_input(config, PREPROCESSED_FILE, "preprocess"),
                                    {1: Sentiment.parse}))
    docs = [TokenizedComment(i, tuple(text_final.split()), label)
            for i, (_, label, text_final) in rows]
    (part,) = plan_splits(docs, "repeated", config.seed, runs=1, train_ratio=config.train_ratio)
    vectorizer = fit_vocabulary(part, fit_on_all=config.fit_on_all,
                                max_features=config.max_features)
    model_path = os.path.join(config.out, TFIDF_FILE)
    save_tfidf(vectorizer, model_path)
    write_word_frequencies(vectorizer, os.path.join(config.out, WORD_FREQ_FILE))
    _info(f"fitted tf-idf vocabulary of {vectorizer.n_features_} terms -> {model_path}")
    for name, side in ((TRAIN_FILE, part.train), (TEST_FILE, part.test)):
        path = os.path.join(config.out, name)
        write_csv(path, ["row_id", "sentiment", "text_final"],
                  ([d.row_id, d.label.label, d.text_final] for d in side))
        _info(f"{len(side)} records ({_distribution_line(side)}) -> {path}")
    return 0


def cmd_train(config, args):
    docs = _split_side(config, TRAIN_FILE)
    X = load_tfidf(_stage_input(config, TFIDF_FILE, "fit-features")).transform(docs)
    spec = ClassifierSpec(args.classifier, config.classifier_overrides(args.classifier))
    model = make_classifier(spec, seed=train_seed(config.seed, spec.kind))
    model.fit(X, [d.label for d in docs])
    model_path = os.path.join(config.out, f"model_{spec.kind}.json")
    save_model(model, model_path)
    _info(f"trained {spec.kind} on {X.shape[0]} records -> {model_path}")
    return 0


def cmd_predict(config, args):
    model_path = _stage_input(config, f"model_{args.classifier}.json", "train")
    docs = _split_side(config, TEST_FILE)
    X = load_tfidf(_stage_input(config, TFIDF_FILE, "fit-features")).transform(docs)
    predictions = load_model(model_path).predict(X)
    out_path = os.path.join(config.out, f"predictions_{args.classifier}.csv")
    write_csv(out_path, ["row_id", "truth", "predicted"],
              ([d.row_id, d.label.label, Sentiment(int(p)).label]
               for d, p in zip(docs, predictions)))
    _info(f"predicted {len(docs)} test records -> {out_path}")
    return 0


def cmd_evaluate(config, args):
    pred_path = _stage_input(config, f"predictions_{args.classifier}.csv", "predict")
    rows = list(_artifact_rows(pred_path, {1: Sentiment.parse, 2: Sentiment.parse}))
    cm = confusion_matrix([truth for _, truth, _ in rows], [pred for _, _, pred in rows])
    report = metrics(cm)
    payload = {
        "classifier": args.classifier,
        "count": int(cm.sum()),
        "confusion": cm.tolist(),
        **report.as_dict(),
    }
    out_path = os.path.join(config.out, f"metrics_{args.classifier}.json")
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
    os.makedirs(config.out, exist_ok=True)
    ranking = _ranking(results)
    payload = {
        "protocol": protocol_payload,
        "classifiers": {
            kind: {
                "runs": agg.runs,
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
    corpus = _load_dataset(config)
    stopwords = _load_stopword_list(config)
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


_COMMANDS = {
    "ingest": cmd_ingest,
    "preprocess": cmd_preprocess,
    "fit-features": cmd_fit_features,
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
}


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key=value config file")
    for key, help_text in FLAGS.items():  # a bool key is a switch; unset flags stay None
        value = ({"action": "store_true", "default": None} if SCHEMA[key] is bool else
                 {"type": SCHEMA[key], "choices": PROTOCOLS if key == "protocol" else None})
        common.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text, **value)

    parser = argparse.ArgumentParser(
        prog="rusent",
        description="Roman Urdu sentiment classification benchmark toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("ingest", "preprocess", "fit-features", "compare"):
        sub.add_parser(name, parents=[common])
    for name in ("train", "predict", "evaluate"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument(
            "--classifier", required=True, choices=list(CLASSIFIER_KINDS),
            help="classifier kind the stage operates on",
        )
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


if __name__ == "__main__":
    sys.exit(main())
