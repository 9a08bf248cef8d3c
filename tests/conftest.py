import csv

import numpy as np
import pytest
import scipy.sparse as sp

from rusent import LabeledComment, Sentiment, TfidfVectorizer
from rusent.base import cross_entropy_rows
from rusent.models.mlp import batch_gradients, epoch_batches

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
    if sp.issparse(X):
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
    """Small random feature matrix + labels via the real vectorizer, the matrix
    as a scipy CSR matrix, which the tests slice, edit and multiply."""
    rng = np.random.default_rng(seed)
    terms = [f"t{i}" for i in range(vocab_size)]
    docs = [list(rng.choice(terms, size=doc_len)) for _ in range(n_docs)]
    y = rng.integers(0, 3, size=n_docs)
    vec = TfidfVectorizer().fit(docs)
    X = vec.transform(docs)
    return (sp.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape),
            np.asarray(y, dtype=np.int64))


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


def mlp_objective(params, X, y):
    """Mean cross-entropy and its dense gradients for all four parameter
    blocks: the finite-difference reference for ``batch_gradients``.

    ``params`` is (W1, b1, W2, b2) with W1 of shape (H, V) and W2 of shape
    (3, H). Returns (loss, (gW1, gb1, gW2, gb2)).
    """
    W1, b1, W2, b2 = params
    *batch, cols = next(epoch_batches(X, np.arange(X.shape[0]), X.shape[0]))
    logits, gW1T, gb1, gW2, gb2 = batch_gradients(W1.T[cols], b1, W2, b2, *batch, y)
    gW1 = np.zeros_like(W1)
    gW1[:, cols] = gW1T.T
    return float(np.mean(cross_entropy_rows(logits, y))), (gW1, gb1, gW2, gb2)


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


def count_instance():
    """An 18x7 int64 count matrix, a quarter of it zero, and labels (0, 1, 2) * 6."""
    rng = np.random.default_rng(3)
    counts = rng.integers(1, 4, size=(18, 7)) * (rng.random((18, 7)) < 0.75)
    return counts, np.array((0, 1, 2) * 6)


def unsorted_with_duplicates(A):
    """The float64 CSR form of the dense ``A`` with each row's entries stored
    in reverse column order and its first entry stored as two halves."""
    data, indices, indptr = [], [], [0]
    for row in A:
        cols = np.flatnonzero(row)[::-1].tolist()
        vals = row[cols].astype(np.float64).tolist()
        if cols:
            cols.append(cols[0])
            vals[0] /= 2.0
            vals.append(vals[0])
        indices += cols
        data += vals
        indptr.append(len(indices))
    X = sp.csr_matrix((np.array(data), np.array(indices, dtype=np.int32), np.array(indptr)),
                      shape=A.shape)
    assert not X.has_canonical_format
    return X


# Every input form of the same counts that the estimators take.
INPUT_FORMS = {
    "int64_csr": sp.csr_matrix,
    "csc": lambda A: sp.csc_matrix(A.astype(np.float64)),
    "coo": lambda A: sp.coo_matrix(A.astype(np.float64)),
    "dense": lambda A: A.astype(np.float64),
    "unsorted_duplicates": unsorted_with_duplicates,
}
