import math
from fractions import Fraction

import numpy as np
import pytest

from rusent import Sentiment, kfold, label_distribution, load_csv, split
from rusent.exceptions import EmptyCorpusError, MalformedRowError

from conftest import build_corpus, write_rows


class TestSentiment:
    def test_codes_are_stable(self):
        assert Sentiment.NEGATIVE == 0
        assert Sentiment.NEUTRAL == 1
        assert Sentiment.POSITIVE == 2

    @pytest.mark.parametrize("raw", ["Positive", "positive", "POSITIVE", " positive "])
    def test_parse_case_insensitive(self, raw):
        assert Sentiment.parse(raw) is Sentiment.POSITIVE

    @pytest.mark.parametrize("raw", ["pos", "2", "", "neutral-ish"])
    def test_parse_rejects_unknown(self, raw):
        with pytest.raises(ValueError):
            Sentiment.parse(raw)


class TestLoadCsv:
    def test_three_row_file_drops_third_column(self, tmp_path):
        path = write_rows(
            tmp_path / "data.csv",
            [
                ["acha drama", "Positive", "nan"],
                ["bura show", "Negative", "nan"],
                ["theek hai", "Neutral", "nan"],
            ],
        )
        corpus = load_csv(path)
        assert len(corpus) == 3
        assert [r.text for r in corpus] == ["acha drama", "bura show", "theek hai"]
        assert [r.label for r in corpus] == [
            Sentiment.POSITIVE,
            Sentiment.NEGATIVE,
            Sentiment.NEUTRAL,
        ]
        assert [r.row_id for r in corpus] == [0, 1, 2]

    def test_file_without_header(self, tmp_path):
        path = write_rows(
            tmp_path / "data.csv", [["acha", "positive"], ["bura", "negative"]], header=None
        )
        corpus = load_csv(path)
        assert [r.text for r in corpus] == ["acha", "bura"]
        assert [r.row_id for r in corpus] == [0, 1]

    @pytest.mark.parametrize("header", [None, ("comment", "sentiment")])
    def test_byte_order_mark_is_skipped(self, tmp_path, header):
        path = write_rows(tmp_path / "data.csv", [["acha drama", "positive"]], header=header)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        corpus = load_csv(path)
        assert [(r.text, r.row_id) for r in corpus] == [("acha drama", 0)]

    @pytest.mark.parametrize("header", [("comment", "sentiment"), ("comment",),
                                        ("", "positive"), ("text", "label", "positive")])
    def test_line_1_is_header_when_not_a_data_row(self, tmp_path, header):
        path = write_rows(tmp_path / "data.csv", [["acha", "positive"]], header=header)
        corpus = load_csv(path)
        assert [(r.text, r.row_id) for r in corpus] == [("acha", 0)]

    def test_quoted_comma_fields(self, tmp_path):
        path = write_rows(
            tmp_path / "data.csv", [["acha, bohat acha", "positive", ""]]
        )
        corpus = load_csv(path)
        assert corpus[0].text == "acha, bohat acha"

    def test_empty_file_raises(self, tmp_path):
        path = write_rows(tmp_path / "data.csv", [])
        with pytest.raises(EmptyCorpusError):
            load_csv(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")

    def test_dedup_drops_exact_duplicates(self, tmp_path):
        rows = [
            ["acha drama", "Positive", "nan"],
            ["acha drama", "Positive", "nan"],
            ["bura show", "Negative", "nan"],
            ["theek hai", "Neutral", "nan"],
        ]
        path = write_rows(tmp_path / "data.csv", rows)
        assert len(load_csv(path, dedup=True)) == 3
        assert len(load_csv(path, dedup=False)) == 4

    def test_dedup_keeps_same_text_different_label(self, tmp_path):
        rows = [["acha", "positive", ""], ["acha", "neutral", ""]]
        path = write_rows(tmp_path / "data.csv", rows)
        assert len(load_csv(path)) == 2

    def test_malformed_rows_abort_with_line_numbers(self, tmp_path):
        rows = [
            ["acha", "positive", ""],
            ["", "negative", ""],
            ["theek", "whatever", ""],
        ]
        path = write_rows(tmp_path / "data.csv", rows)
        with pytest.raises(MalformedRowError) as err:
            load_csv(path)
        assert [ln for ln, _ in err.value.rows] == [3, 4]
        assert "line 3" in str(err.value)

    def test_skip_bad_rows(self, tmp_path):
        rows = [
            ["acha", "positive", ""],
            ["", "negative", ""],
            ["theek", "neutral", ""],
        ]
        path = write_rows(tmp_path / "data.csv", rows)
        corpus = load_csv(path, skip_bad_rows=True)
        assert len(corpus) == 2
        # skipped row still consumed its source ordinal
        assert [r.row_id for r in corpus] == [0, 2]

    def test_all_rows_bad_raises_empty(self, tmp_path):
        path = write_rows(tmp_path / "data.csv", [["", "positive", ""]])
        with pytest.raises(EmptyCorpusError):
            load_csv(path, skip_bad_rows=True)


class TestLabelDistribution:
    def test_desk_scale_proportions(self):
        pairs = (
            [("n", "neutral")] * 48 + [("p", "positive")] * 29 + [("x", "negative")] * 24
        )
        corpus = build_corpus([(f"{t}{i}", lab) for i, (t, lab) in enumerate(pairs)])
        dist = label_distribution(corpus)
        assert dist[Sentiment.NEUTRAL]["count"] == 48
        assert dist[Sentiment.NEUTRAL]["fraction"] == pytest.approx(0.4752475247524752)
        assert dist[Sentiment.POSITIVE]["fraction"] == pytest.approx(0.2871287128712871)
        assert dist[Sentiment.NEGATIVE]["fraction"] == pytest.approx(0.2376237623762376)
        assert sum(d["count"] for d in dist.values()) == len(corpus)
        assert sum(d["fraction"] for d in dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_single_class(self):
        corpus = build_corpus([(f"t{i}", "positive") for i in range(5)])
        dist = label_distribution(corpus)
        assert dist[Sentiment.POSITIVE]["fraction"] == 1.0
        assert dist[Sentiment.NEGATIVE]["count"] == 0

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpusError):
            label_distribution(build_corpus([]))


class TestSplit:
    def test_sizes_follow_floor_rule(self):
        corpus = build_corpus([(f"t{i}", "neutral") for i in range(10)])
        result = split(corpus, 0.8, seed=3)
        assert len(result.train) == 8
        assert len(result.test) == 2

    def test_disjoint_union(self):
        corpus = build_corpus([(f"t{i}", "neutral") for i in range(25)])
        result = split(corpus, 0.6, seed=11)
        train_ids = {r.row_id for r in result.train}
        test_ids = {r.row_id for r in result.test}
        assert not train_ids & test_ids
        assert train_ids | test_ids == set(range(25))

    def test_large_corpus_floor(self):
        # floor(14131 * 0.8) = 11304 (hand arithmetic)
        corpus = build_corpus([(f"t{i}", "neutral") for i in range(14131)])
        result = split(corpus, 0.8, seed=0)
        assert len(result.train) == 11304
        assert len(result.test) == 2827

    @pytest.mark.parametrize("ratio", [0.0, 1.0, -0.1, 1.5])
    def test_ratio_out_of_range(self, ratio):
        corpus = build_corpus([("a", "neutral"), ("b", "neutral")])
        with pytest.raises(ValueError):
            split(corpus, ratio, seed=0)

    def test_corpus_too_small(self):
        with pytest.raises(EmptyCorpusError):
            split(build_corpus([("a", "neutral")]), 0.8, seed=0)

    def test_deterministic(self):
        corpus = build_corpus([(f"t{i}", "neutral") for i in range(30)])
        a = split(corpus, 0.8, seed=9)
        b = split(corpus, 0.8, seed=9)
        assert [r.row_id for r in a.train] == [r.row_id for r in b.train]
        assert [r.row_id for r in a.test] == [r.row_id for r in b.test]

    def test_property_floor_rule_random_triples(self):
        # split obeys the floor rule and disjointness on random inputs;
        # the expected cut is recomputed with exact rational arithmetic
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(2, 300))
            ratio = float(rng.uniform(0.05, 0.95))
            seed = int(rng.integers(0, 2**32))
            corpus = build_corpus([(f"t{i}", "neutral") for i in range(n)])
            result = split(corpus, ratio, seed)
            expected_train = math.floor(Fraction(ratio) * n)
            assert len(result.train) == expected_train
            assert len(result.test) == n - expected_train
            ids = sorted(r.row_id for r in result.train) + sorted(
                r.row_id for r in result.test
            )
            assert sorted(ids) == list(range(n))


class TestKfold:
    def test_ten_of_ten(self):
        corpus = build_corpus([(f"t{i}", "neutral") for i in range(10)])
        pairs = kfold(corpus, 10, seed=1)
        assert [len(test) for _, test in pairs] == [1] * 10
        assert all(len(train) == 9 for train, _ in pairs)

    def test_uneven_fold_sizes(self):
        corpus = build_corpus([(f"t{i}", "neutral") for i in range(23)])
        pairs = kfold(corpus, 10, seed=5)
        assert [len(test) for _, test in pairs] == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]

    @pytest.mark.parametrize("k", [0, 1, 11])
    def test_k_out_of_range(self, k):
        corpus = build_corpus([(f"t{i}", "neutral") for i in range(10)])
        with pytest.raises(ValueError):
            kfold(corpus, k, seed=0)

    def test_folds_partition_and_complement(self):
        corpus = build_corpus([(f"t{i}", "neutral") for i in range(17)])
        pairs = kfold(corpus, 4, seed=2)
        seen = []
        for train, test in pairs:
            test_ids = {r.row_id for r in test}
            train_ids = {r.row_id for r in train}
            assert not test_ids & train_ids
            assert test_ids | train_ids == set(range(17))
            seen.extend(sorted(test_ids))
        assert sorted(seen) == list(range(17))

    def test_property_random_triples(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(2, 120))
            k = int(rng.integers(2, n + 1))
            seed = int(rng.integers(0, 2**32))
            corpus = build_corpus([(f"t{i}", "neutral") for i in range(n)])
            pairs = kfold(corpus, k, seed)
            sizes = [len(test) for _, test in pairs]
            assert max(sizes) - min(sizes) <= 1
            assert sum(sizes) == n
            all_ids = [r.row_id for _, test in pairs for r in test]
            assert sorted(all_ids) == list(range(n))

    def test_pinned_folds(self):
        # each train side is the other folds, in permutation order
        corpus = build_corpus([(f"t{i}", "neutral") for i in range(8)])
        pairs = [([r.row_id for r in train], [r.row_id for r in test])
                 for train, test in kfold(corpus, 3, seed=4)]
        assert pairs == [([7, 4, 5, 3, 6], [1, 2, 0]),
                         ([1, 2, 0, 3, 6], [7, 4, 5]),
                         ([1, 2, 0, 7, 4, 5], [3, 6])]

    def test_deterministic(self):
        corpus = build_corpus([(f"t{i}", "neutral") for i in range(29)])
        a = kfold(corpus, 7, seed=13)
        b = kfold(corpus, 7, seed=13)
        for (_, ta), (_, tb) in zip(a, b):
            assert [r.row_id for r in ta] == [r.row_id for r in tb]
