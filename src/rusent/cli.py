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
from .config import RunConfig, apply_cli_values, parse_config_file
from .corpus import (LABEL_NAMES, Corpus, LabeledComment, Sentiment, label_distribution,
                     load_csv)
from .eval import confusion_matrix, evaluate_specs, metrics, plan_splits
from .exceptions import ConfigError, MalformedRowError, RusentError
from .features import TfidfVectorizer, load_tfidf, save_tfidf, write_word_frequencies
from .models import CLASSIFIER_KINDS, ClassifierSpec, load_model, make_classifier, save_model
from .preprocess import TokenizedComment, default_stopwords, load_stopwords, preprocess_corpus

CORPUS_FILE = "corpus.csv"
DISTRIBUTION_FILE = "label_distribution.json"
PREPROCESSED_FILE = "preprocessed.csv"
TFIDF_FILE = "tfidf.json"
WORD_FREQ_FILE = "word_frequencies.csv"


def _round6(obj):
    if isinstance(obj, float):
        return round(obj, 6)
    if isinstance(obj, dict):
        return {k: _round6(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round6(v) for v in obj]
    return obj


def _require_artifact(path, producer):
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"missing artifact {path}; run the '{producer}' stage first"
        )


def _info(message):
    print(message, file=sys.stderr)


def _load_stopword_list(config):
    if config.stopwords:
        return load_stopwords(config.stopwords)
    return default_stopwords()


def _distribution_payload(corpus):
    dist = label_distribution(corpus)
    return {
        s.label: {"count": d["count"], "fraction": d["fraction"]}
        for s, d in dist.items()
    }


def _distribution_line(corpus):
    dist = label_distribution(corpus)
    return " ".join(f"{s.label} {dist[s]['fraction']:.1%}" for s in Sentiment)


def _artifact_rows(path, label_columns):
    """The first three fields of each data row of a stage CSV artifact,
    with those at ``label_columns`` parsed into Sentiment labels; a shorter
    row or a bad label raises MalformedRowError naming its line."""
    for line, row in csv_rows(path):
        try:
            if len(row) < 3:
                raise ValueError(f"expected 3 fields, got {len(row)}")
            fields = [Sentiment.parse(v) if i in label_columns else v
                      for i, v in enumerate(row[:3])]
        except ValueError as exc:
            raise MalformedRowError(f"{path} line {line}: {exc}", [(line, str(exc))]) from None
        yield fields


def _read_preprocessed(path):
    """Rebuild (corpus, docs) from a preprocessed CSV; row ids are the
    artifact's own data-row ordinals."""
    records = []
    docs = []
    for i, (text, label, text_final) in enumerate(_artifact_rows(path, (1,))):
        records.append(LabeledComment(text, label, i))
        docs.append(TokenizedComment(i, tuple(text_final.split()), label))
    return Corpus(tuple(records)), docs


def _staged_split(config, corpus, docs):
    """The split of evaluate_once(seed=config.seed), shared by fit-features,
    train and predict: (planned split, train docs, test docs)."""
    (part,) = plan_splits(corpus, "repeated", config.seed, runs=1,
                          train_ratio=config.train_ratio)
    docs_of = dict(zip(corpus, docs))
    return part, [docs_of[r] for r in part.train], [docs_of[r] for r in part.test]


def _load_dataset(config):
    if not config.dataset:
        raise ConfigError("no dataset configured; set 'dataset' or pass --dataset")
    return load_csv(config.dataset, has_header=config.has_header, dedup=config.dedup,
                    skip_bad_rows=config.skip_bad_rows)


def cmd_ingest(config, args):
    corpus = _load_dataset(config)
    os.makedirs(config.out, exist_ok=True)
    out_path = os.path.join(config.out, CORPUS_FILE)
    write_csv(out_path, ["comment", "sentiment"], ([r.text, r.label.label] for r in corpus))
    payload = _distribution_payload(corpus)
    write_json(os.path.join(config.out, DISTRIBUTION_FILE), _round6(payload))
    print(json.dumps(_round6(payload), sort_keys=True))
    _info(f"ingested {len(corpus)} records -> {out_path}")
    return 0


def cmd_preprocess(config, args):
    corpus_path = os.path.join(config.out, CORPUS_FILE)
    _require_artifact(corpus_path, "ingest")
    corpus = load_csv(corpus_path, has_header=True, dedup=False)
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
    pre_path = os.path.join(config.out, PREPROCESSED_FILE)
    _require_artifact(pre_path, "preprocess")
    corpus, docs = _read_preprocessed(pre_path)
    if config.fit_on_all:
        fit_docs = docs
    else:
        part, fit_docs, _ = _staged_split(config, corpus, docs)
        _info(f"vocabulary fit on train split: {_distribution_line(part.train)}")
    vectorizer = TfidfVectorizer(max_features=config.max_features).fit(fit_docs)
    model_path = os.path.join(config.out, TFIDF_FILE)
    save_tfidf(vectorizer, model_path)
    write_word_frequencies(vectorizer, os.path.join(config.out, WORD_FREQ_FILE))
    _info(f"fitted tf-idf vocabulary of {vectorizer.n_features_} terms -> {model_path}")
    return 0


def cmd_train(config, args):
    pre_path = os.path.join(config.out, PREPROCESSED_FILE)
    tfidf_path = os.path.join(config.out, TFIDF_FILE)
    _require_artifact(pre_path, "preprocess")
    _require_artifact(tfidf_path, "fit-features")
    corpus, docs = _read_preprocessed(pre_path)
    part, train_docs, _ = _staged_split(config, corpus, docs)
    _info(f"train split: {_distribution_line(part.train)}")
    _info(f"test split:  {_distribution_line(part.test)}")
    vectorizer = load_tfidf(tfidf_path)
    X = vectorizer.transform(train_docs)
    y = part.train.labels()
    spec = ClassifierSpec(args.classifier, config.classifier_overrides(args.classifier))
    model = make_classifier(spec, seed=part.train_seed(spec.kind))
    model.fit(X, y)
    model_path = os.path.join(config.out, f"model_{spec.kind}.json")
    save_model(model, model_path)
    _info(f"trained {spec.kind} on {X.shape[0]} records -> {model_path}")
    return 0


def cmd_predict(config, args):
    pre_path = os.path.join(config.out, PREPROCESSED_FILE)
    tfidf_path = os.path.join(config.out, TFIDF_FILE)
    model_path = os.path.join(config.out, f"model_{args.classifier}.json")
    _require_artifact(pre_path, "preprocess")
    _require_artifact(tfidf_path, "fit-features")
    _require_artifact(model_path, "train")
    corpus, docs = _read_preprocessed(pre_path)
    part, _, test_docs = _staged_split(config, corpus, docs)
    vectorizer = load_tfidf(tfidf_path)
    model = load_model(model_path)
    predictions = model.predict(vectorizer.transform(test_docs))
    out_path = os.path.join(config.out, f"predictions_{args.classifier}.csv")
    write_csv(out_path, ["row_id", "truth", "predicted"],
              ([r.row_id, r.label.label, Sentiment(int(p)).label]
               for r, p in zip(part.test, predictions)))
    _info(f"predicted {len(test_docs)} test records -> {out_path}")
    return 0


def cmd_evaluate(config, args):
    pred_path = os.path.join(config.out, f"predictions_{args.classifier}.csv")
    _require_artifact(pred_path, "predict")
    rows = list(_artifact_rows(pred_path, (1, 2)))
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
    plan = plan_splits(corpus, config.protocol, config.seed, runs=config.runs,
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
        corpus,
        stopwords,
        plan,
        fit_on_all=config.fit_on_all,
        max_features=config.max_features,
        strip_punct=config.strip_punct,
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
    common.add_argument("--dataset", help="dataset CSV (comment,sentiment[,ignored])")
    common.add_argument("--stopwords", help="stop-word file (one word per line)")
    common.add_argument("--seed", type=int, help="base seed for all randomness")
    common.add_argument("--out", help="output directory for stage artifacts")
    common.add_argument(
        "--protocol", choices=["repeated", "kfold"], help="evaluation protocol"
    )
    common.add_argument(
        "--max-features", type=int, dest="max_features",
        help="vocabulary size cap (default 3000)",
    )
    common.add_argument(
        "--fit-on-all", action="store_true", default=None, dest="fit_on_all",
        help="fit the tf-idf vocabulary on train+test instead of train only",
    )
    common.add_argument(
        "--skip-bad-rows", action="store_true", default=None, dest="skip_bad_rows",
        help="skip malformed dataset rows instead of aborting",
    )
    common.add_argument(
        "--strip-punct", action="store_true", default=None, dest="strip_punct",
        help="strip leading/trailing punctuation from tokens",
    )

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
    if args.config:
        config = parse_config_file(args.config)
    else:
        config = RunConfig()
    return apply_cli_values(
        config,
        dataset=args.dataset,
        stopwords=args.stopwords,
        seed=args.seed,
        out=args.out,
        protocol=args.protocol,
        max_features=args.max_features,
        fit_on_all=args.fit_on_all,
        skip_bad_rows=args.skip_bad_rows,
        strip_punct=args.strip_punct,
    )


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
