import numpy as np
import pytest
import scipy.sparse as sp

from rusent import MultinomialNaiveBayes, TfidfVectorizer
from rusent.exceptions import MissingClassError

from conftest import as_dicts, random_tfidf_instance


def brute_force_posteriors(rows, y, alpha, query, V, n_classes=3):
    """Exhaustive Bayes-rule computation in pure Python.

    ``rows``/``query`` are {column: weight} dicts over a V-term vocabulary;
    the weighted multinomial likelihood of a class is prod_t p(t|c)**x_t.
    """
    n = len(rows)
    joints = []
    for c in range(n_classes):
        members = [rows[i] for i in range(n) if y[i] == c]
        prior = len(members) / n
        totals = [0.0] * V
        for row in members:
            for col, w in row.items():
                totals[col] += w
        denom = sum(totals) + alpha * V
        joint = prior
        for col, x in query.items():
            p = (totals[col] + alpha) / denom
            joint *= p**x
        joints.append(joint)
    z = sum(joints)
    return [j / z for j in joints]


class TestFit:
    def test_missing_class_rejected_by_default(self):
        X = sp.csr_matrix(np.eye(3))
        y = [1, 1, 1]
        with pytest.raises(MissingClassError):
            MultinomialNaiveBayes().fit(X, y)

    def test_allow_missing_class_predicts_present_class(self):
        X = sp.csr_matrix(np.eye(3))
        y = [1, 1, 1]
        model = MultinomialNaiveBayes(allow_missing_class=True).fit(X, y)
        preds = model.predict(sp.csr_matrix(np.eye(3)))
        assert np.all(preds == 1)
        scores = model.decision_scores(X)
        np.testing.assert_allclose(scores[:, 1], 1.0)

    def test_priors_exact_counting(self):
        # 3 negative, 6 neutral, 9 positive -> priors (1/6, 1/3, 1/2)
        X = sp.csr_matrix(np.ones((18, 2)))
        y = [0] * 3 + [1] * 6 + [2] * 9
        model = MultinomialNaiveBayes().fit(X, y)
        np.testing.assert_allclose(
            np.exp(model.class_log_prior_), [1 / 6, 1 / 3, 1 / 2], atol=1e-12
        )

    @pytest.mark.parametrize("alpha", [0.0, -1.0, None])
    def test_invalid_alpha(self, alpha):
        X = sp.csr_matrix(np.eye(3))
        with pytest.raises(ValueError):
            MultinomialNaiveBayes(alpha=alpha).fit(X, [0, 1, 2])

    def test_likelihoods_normalize_per_class(self):
        X, y = random_tfidf_instance(5, n_docs=8, vocab_size=6)
        y = np.array([0, 1, 2, 0, 1, 2, 0, 1])
        model = MultinomialNaiveBayes().fit(X, y)
        sums = np.exp(model.feature_log_prob_).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)


class TestPosteriorsAgainstBruteForce:
    def test_two_term_toy(self):
        # 2 positive docs on "acha", 2 negative docs on "bura"
        vec = TfidfVectorizer().fit([["acha"], ["acha"], ["bura"], ["bura"]])
        X = vec.transform([["acha"], ["acha"], ["bura"], ["bura"]])
        y = np.array([2, 2, 0, 0])
        model = MultinomialNaiveBayes(alpha=1.0, allow_missing_class=True).fit(X, y)
        query = vec.transform([["acha"]])
        scores = model.decision_scores(query)[0]
        expected = brute_force_posteriors(
            as_dicts(X), y, 1.0, as_dicts(query)[0], X.shape[1]
        )
        np.testing.assert_allclose(scores, expected, atol=1e-9)
        # the hand-worked posterior: positive 0.75, negative 0.25, neutral 0
        assert scores[2] == pytest.approx(0.75, abs=1e-9)
        assert scores[0] == pytest.approx(0.25, abs=1e-9)
        assert model.predict(query)[0] == 2

    @pytest.mark.parametrize("seed", range(25))
    def test_random_small_instances(self, seed):
        rng = np.random.default_rng(seed)
        n_docs = int(rng.integers(3, 9))
        vocab = int(rng.integers(2, 7))
        X, _ = random_tfidf_instance(seed + 1000, n_docs=n_docs, vocab_size=vocab)
        y = rng.integers(0, 3, size=n_docs)
        alpha = float(rng.uniform(0.2, 2.0))
        model = MultinomialNaiveBayes(alpha=alpha, allow_missing_class=True).fit(X, y)
        rows = as_dicts(X)
        scores = model.decision_scores(X)
        for i, row in enumerate(rows):
            expected = brute_force_posteriors(rows, y, alpha, row, X.shape[1])
            np.testing.assert_allclose(scores[i], expected, atol=1e-9)

    def test_zero_vector_falls_back_to_priors(self):
        X, _ = random_tfidf_instance(7, n_docs=6, vocab_size=4)
        y = np.array([0, 0, 0, 1, 1, 2])
        model = MultinomialNaiveBayes().fit(X, y)
        zero = sp.csr_matrix((1, X.shape[1]))
        np.testing.assert_allclose(
            model.decision_scores(zero)[0], [3 / 6, 2 / 6, 1 / 6], atol=1e-12
        )

    def test_posteriors_sum_to_one(self):
        X, y = random_tfidf_instance(9, n_docs=12, vocab_size=8)
        y = np.array([0, 1, 2] * 4)
        model = MultinomialNaiveBayes().fit(X, y)
        scores = model.decision_scores(X)
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(scores >= 0.0)
