from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from rusent import KNeighborsClassifier
from rusent.models import knn

from conftest import as_dicts, random_tfidf_instance


def knn_oracle(train_rows, y, query_row, k):
    """Brute-force full-sort nearest-neighbor prediction in pure Python,
    and the per-class vote fractions.

    Rows are {column: weight} dicts. Distances are 1 - dot product with
    products accumulated in ascending column order (bitwise identical to
    the sparse matmul), ties at the k boundary resolved toward the lower
    training index, vote ties toward the nearest neighbor's label.
    """
    distances = []
    for row in train_rows:
        dot = 0.0
        for col in sorted(set(row) & set(query_row)):
            dot += row[col] * query_row[col]
        distances.append(1.0 - dot)
    order = sorted(range(len(train_rows)), key=lambda i: (distances[i], i))[:k]
    votes = Counter(int(y[i]) for i in order)
    fractions = [votes[c] / k for c in range(3)]
    top = max(votes.values())
    tied = [c for c, v in votes.items() if v == top]
    if len(tied) == 1:
        return tied[0], fractions
    return int(y[order[0]]), fractions


class TestValidation:
    @pytest.mark.parametrize("k", [0, -1, 7, None])
    def test_k_out_of_range(self, k):
        X, y = random_tfidf_instance(0, n_docs=6)
        with pytest.raises(ValueError):
            KNeighborsClassifier(k=k).fit(X, y)


class TestPrediction:
    def test_exact_match_with_k1(self):
        X, y = random_tfidf_instance(1, n_docs=8, vocab_size=6)
        model = KNeighborsClassifier(k=1).fit(X, y)
        np.testing.assert_array_equal(model.predict(X), y)

    def test_hand_computed_three_neighbors(self):
        # unit-norm two-term vectors: query [1,0] has cosine distances
        # 0.0, 0.2, 1.0 to the three stored rows
        X = sp.csr_matrix(np.array([[1.0, 0.0], [0.8, 0.6], [0.0, 1.0]]))
        y = np.array([2, 2, 0])
        model = KNeighborsClassifier(k=3).fit(X, y)
        query = sp.csr_matrix(np.array([[1.0, 0.0]]))
        assert model.predict(query)[0] == 2
        np.testing.assert_allclose(
            model.decision_scores(query)[0], [1 / 3, 0.0, 2 / 3], atol=1e-12
        )

    def test_k_equals_n_predicts_majority(self):
        X, _ = random_tfidf_instance(2, n_docs=9, vocab_size=5)
        y = np.array([2, 2, 2, 2, 0, 0, 0, 1, 1])
        model = KNeighborsClassifier(k=9).fit(X, y)
        preds = model.predict(X)
        assert np.all(preds == 2)

    def test_vote_fraction_scores(self):
        X = sp.csr_matrix(np.array([[1.0, 0.0], [0.8, 0.6], [0.0, 1.0]]))
        y = np.array([2, 2, 0])
        model = KNeighborsClassifier(k=3).fit(X, y)
        scores = model.decision_scores(sp.csr_matrix(np.array([[0.6, 0.8]])))
        np.testing.assert_allclose(scores[0], [1 / 3, 0.0, 2 / 3], atol=1e-12)

    def test_boundary_tie_prefers_lower_row_id(self):
        # rows 1 and 2 are identical, so equidistant from any query
        X = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))
        y = np.array([2, 0, 1])
        model = KNeighborsClassifier(k=2).fit(X, y)
        query = sp.csr_matrix(np.array([[0.0, 1.0]]))
        # neighbors are rows 1, 2 (distance 0 each); vote tie 0 vs 1
        # resolves to the nearest (row 1, label 0)
        assert model.predict(query)[0] == 0

    def test_vote_tie_falls_back_to_nearest(self):
        X = sp.csr_matrix(
            np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        )
        y = np.array([1, 0, 2])
        model = KNeighborsClassifier(k=2).fit(X, y)
        query = sp.csr_matrix(np.array([[0.9, np.sqrt(1 - 0.81), 0.0]]))
        # neighbors: row 0 then row 1, one vote each -> nearest label wins
        assert model.predict(query)[0] == 1

    def test_zero_vector_query_total(self):
        X, y = random_tfidf_instance(3, n_docs=6, vocab_size=4)
        model = KNeighborsClassifier(k=3).fit(X, y)
        zero = sp.csr_matrix((1, X.shape[1]))
        pred = model.predict(zero)
        assert pred[0] in (0, 1, 2)


def random_unit_matrix(rng, n, V):
    """Random sparse rows, each l2-normalized or all-zero."""
    M = rng.random((n, V))
    M[rng.random((n, V)) < 0.5] = 0.0
    norms = np.linalg.norm(M, axis=1)
    nonzero = norms > 0
    M[nonzero] /= norms[nonzero, None]
    return sp.csr_matrix(M)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(100))
    def test_matches_brute_force_full_sort(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 48))
        V = int(rng.integers(2, 10))
        X = random_unit_matrix(rng, n, V)
        # duplicate a few rows to force exact distance ties
        dup = min(3, n - 1)
        X = sp.vstack([X, X[:dup]]).tocsr()
        y = rng.integers(0, 3, size=X.shape[0])
        k = int(rng.integers(1, X.shape[0] + 1))
        model = KNeighborsClassifier(k=k).fit(X, y)
        queries = sp.vstack([random_unit_matrix(rng, 5, V), X[0]]).tocsr()
        preds = model.predict(queries)
        scores = model.decision_scores(queries)
        train_rows = as_dicts(X)
        query_rows = as_dicts(queries)
        for i, q in enumerate(query_rows):
            label, fractions = knn_oracle(train_rows, y, q, k)
            assert preds[i] == label
            assert scores[i].tolist() == fractions


def full_sort_votes(model, X):
    """``_votes`` by a full stable argsort of every distance row, as it was
    computed before selection: the reference."""
    distances = 1.0 - (sp.csr_matrix(X) @ sp.csr_matrix(model.X_.toarray()).T).toarray()
    labels = model.y_[np.argsort(distances, axis=1, kind="stable")[:, : model.k]]
    return (labels[:, :, None] == np.arange(3)).sum(axis=1), labels[:, 0]


class TestSelection:
    """``_votes`` selects each row's k nearest and sorts only the rows with more
    than k distances at or below their k-th; it must equal a full stable
    argsort of every row bit for bit."""

    @pytest.mark.parametrize("chunk", [3, knn._CHUNK])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 27])  # 27: every training row
    def test_votes_equal_the_full_stable_argsort(self, monkeypatch, k, chunk):
        rng = np.random.default_rng(k)
        base = random_unit_matrix(rng, 12, 4)
        # rows 0-3 three times over and rows 4-6 twice: queries equal to them,
        # or near them, have more than k distances at their k-th
        X = sp.vstack([base, base[:4], base[:7], base[:4]]).tocsr()
        y = rng.integers(0, 3, size=X.shape[0])
        model = KNeighborsClassifier(k=k).fit(X, y)
        queries = sp.vstack([base, random_unit_matrix(rng, 8, 4), sp.csr_matrix((1, 4))]).tocsr()
        want_counts, want_nearest = full_sort_votes(model, queries)
        distances = 1.0 - (queries @ X.T).toarray()
        kth = np.sort(distances, axis=1)[:, k - 1 : k]
        tied = np.sum(distances <= kth, axis=1) > k
        assert tied.any() or k == X.shape[0]
        monkeypatch.setattr(knn, "_CHUNK", chunk)
        counts, nearest = model._votes(queries)
        assert np.array_equal(counts, want_counts)
        assert np.array_equal(nearest, want_nearest)
