import csv

import numpy as np
import pytest

from rusent import LabeledComment, Sentiment, TfidfVectorizer

# Fixed reference confusion matrices (rows = true negative/neutral/positive,
# columns = predicted). They pin the metric engine: the expected accuracy,
# precision and recall values in the tests are recomputed from these cells
# with exact rational arithmetic.
REFERENCE_CONFUSIONS = {
    "naive_bayes": [[127, 141, 53], [33, 594, 72], [29, 187, 229]],
    "logistic_regression": [[140, 134, 47], [44, 582, 73], [34, 185, 226]],
    "linear_svm": [[165, 111, 45], [55, 560, 84], [51, 161, 233]],
    "knn": [[165, 111, 45], [55, 560, 84], [51, 161, 233]],
    "mlp": [[156, 98, 67], [129, 433, 137], [75, 126, 244]],
}


def build_corpus(pairs):
    """Records from (text, label_name) pairs with sequential row ids."""
    return tuple(
        LabeledComment(text, Sentiment.parse(label), i)
        for i, (text, label) in enumerate(pairs)
    )


def label_codes(records):
    """The int64 class codes of ``records``, in order."""
    return np.array([r.label for r in records], dtype=np.int64)


def write_rows(path, rows, header=("comment", "sentiment", "nan")):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(header)
        writer.writerows(rows)
    return path


def two_class_corpus(n_docs, seed, doc_len=5):
    """Positive/negative corpus with fully disjoint vocabularies."""
    rng = np.random.default_rng(seed)
    pos_vocab = [f"khush{i}" for i in range(8)]
    neg_vocab = [f"udaas{i}" for i in range(8)]
    pairs = []
    for i in range(n_docs):
        vocab = pos_vocab if i % 2 == 0 else neg_vocab
        label = "positive" if i % 2 == 0 else "negative"
        words = rng.choice(vocab, size=doc_len)
        pairs.append((" ".join(words), label))
    return build_corpus(pairs)


def three_class_corpus(n_docs, seed, shared=2):
    """Three-class corpus with class-specific cores plus shared filler."""
    rng = np.random.default_rng(seed)
    vocabs = {
        "negative": ["bura", "bakwas", "ganda", "bekar", "fazool"],
        "neutral": ["theek", "khair", "aam", "mamuli", "sada"],
        "positive": ["acha", "zabardast", "umda", "shandar", "kamal"],
    }
    filler = ["drama", "show", "scene", "video", "log"]
    pairs = []
    names = list(vocabs)
    for i in range(n_docs):
        label = names[i % 3]
        words = list(rng.choice(vocabs[label], size=4))
        words += list(rng.choice(filler, size=shared))
        rng.shuffle(words)
        pairs.append((" ".join(words), label))
    return build_corpus(pairs)


def as_dicts(X):
    X = X.tocsr()
    return [
        {
            int(c): float(v)
            for c, v in zip(
                X.indices[X.indptr[i] : X.indptr[i + 1]],
                X.data[X.indptr[i] : X.indptr[i + 1]],
            )
        }
        for i in range(X.shape[0])
    ]


def random_tfidf_instance(seed, n_docs=6, vocab_size=5, doc_len=4):
    """Small random feature matrix + labels via the real vectorizer."""
    rng = np.random.default_rng(seed)
    terms = [f"t{i}" for i in range(vocab_size)]
    docs = [list(rng.choice(terms, size=doc_len)) for _ in range(n_docs)]
    y = rng.integers(0, 3, size=n_docs)
    vec = TfidfVectorizer().fit(docs)
    return vec.transform(docs), np.asarray(y, dtype=np.int64)


def central_diff(f, x, step=1e-5):
    """Central finite-difference gradient of scalar f at flat array x."""
    grad = np.zeros_like(x, dtype=np.float64)
    for i in range(x.size):
        up = x.copy()
        up.flat[i] += step
        down = x.copy()
        down.flat[i] -= step
        grad.flat[i] = (f(up) - f(down)) / (2.0 * step)
    return grad


def relative_error(a, b):
    """Norm-relative difference between two gradient blocks.

    Blocks whose norms are both below the finite-difference noise floor
    are compared absolutely (an exactly-zero analytic gradient against
    ~1e-12 of roundoff residue is agreement, not a 100% discrepancy).
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    scale = max(np.linalg.norm(a), np.linalg.norm(b))
    diff = np.linalg.norm(a - b)
    if scale < 1e-7:
        return diff
    return diff / scale


@pytest.fixture
def toy_docs():
    return [["acha", "drama"], ["acha", "acha", "bura"], ["drama", "bura", "bura"]]


@pytest.fixture
def stopwords_small():
    return frozenset({"ye", "hai"})
