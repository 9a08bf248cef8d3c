import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rusent import (
    default_stopwords,
    load_stopwords,
    lowercase,
    preprocess_corpus,
    remove_stopwords,
    tokenize,
)
from rusent.exceptions import EmptyCorpusError, MalformedRowError

from conftest import build_corpus


class TestLoadStopwords:
    def test_basic_format(self, tmp_path):
        path = tmp_path / "sw.txt"
        path.write_text("hai\nka\nki\n# comment\n\nho\n", encoding="utf-8")
        sw = load_stopwords(path)
        assert sw == frozenset({"hai", "ka", "ki", "ho"})
        assert isinstance(sw, frozenset)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "sw.txt"
        path.write_text("\ufeffhai\nka\n", encoding="utf-8")
        assert load_stopwords(path) == {"hai", "ka"}

    def test_lowercases_entries(self, tmp_path):
        path = tmp_path / "sw.txt"
        path.write_text("HAI\nhai\n", encoding="utf-8")
        assert load_stopwords(path) == {"hai"}

    def test_whitespace_entry_rejected(self, tmp_path):
        path = tmp_path / "sw.txt"
        path.write_text("hai\ndo not\n", encoding="utf-8")
        with pytest.raises(MalformedRowError) as err:
            load_stopwords(path)
        assert err.value.rows[0][0] == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_stopwords(tmp_path / "missing.txt")

    def test_default_list_shape(self):
        sw = default_stopwords()
        assert 80 <= len(sw) <= 150
        assert all(w == w.lower() for w in sw)
        assert all(not any(ch.isspace() for ch in w) for w in sw)
        for expected in ("hai", "ka", "ki", "ke", "ho", "ye", "wo", "main", "se", "par"):
            assert expected in sw


class TestLowercase:
    def test_mixed_case(self):
        assert lowercase("ZabarDast DRAMA") == "zabardast drama"

    def test_non_letters_unchanged(self):
        assert lowercase("drama 100%!") == "drama 100%!"

    @given(st.text())
    def test_idempotent(self, text):
        assert lowercase(lowercase(text)) == lowercase(text)


class TestTokenize:
    def test_simple_split(self):
        assert tokenize("ye drama acha hai") == ["ye", "drama", "acha", "hai"]

    def test_collapses_whitespace_runs(self):
        assert tokenize("  acha   hai  ") == ["acha", "hai"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_strip_punct_opt_in(self):
        assert tokenize("acha! (drama)", strip_punct=True) == ["acha", "drama"]
        assert tokenize("acha! (drama)") == ["acha!", "(drama)"]

    def test_strip_punct_drops_pure_punctuation(self):
        assert tokenize("acha !!! drama", strip_punct=True) == ["acha", "drama"]

    def test_strip_punct_strips_exactly_ascii_punctuation(self):
        # string.punctuation's characters, and no other ASCII or non-ASCII one
        for code in [*range(33, 127), 0xBF, 0x2019, 0x06D4]:
            c = chr(code)
            want = ["a"] if c in string.punctuation else [f"{c}a{c}"]
            assert tokenize(f"{c}a{c}", strip_punct=True) == want, repr(c)

    @given(st.text())
    def test_never_emits_empty_tokens(self, text):
        assert all(tok for tok in tokenize(text))

    @given(st.text())
    def test_join_then_tokenize_round_trips(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens


class TestRemoveStopwords:
    def test_filters_members(self, stopwords_small):
        assert remove_stopwords(["ye", "drama", "acha", "hai"], stopwords_small) == [
            "drama",
            "acha",
        ]

    def test_full_removal(self, stopwords_small):
        assert remove_stopwords(["ye", "hai"], stopwords_small) == []

    def test_empty_stopword_list_is_identity(self):
        empty = frozenset()
        tokens = ["ye", "drama"]
        assert remove_stopwords(tokens, empty) == tokens


class TestPreprocessCorpus:
    def test_composition(self, stopwords_small):
        corpus = build_corpus([("Ye Drama ACHA hai", "positive")])
        docs = preprocess_corpus(corpus, stopwords_small)
        assert docs[0].tokens == ("drama", "acha")
        assert docs[0].text_final == "drama acha"
        assert not docs[0].is_empty

    def test_fully_removed_comment_is_kept_and_flagged(self, stopwords_small):
        corpus = build_corpus([("HAI ye", "negative")])
        docs = preprocess_corpus(corpus, stopwords_small)
        assert docs[0].tokens == ()
        assert docs[0].is_empty

    def test_preserves_count_order_labels(self, stopwords_small):
        corpus = build_corpus(
            [("acha drama", "positive"), ("bura show", "negative"), ("hm", "neutral")]
        )
        docs = preprocess_corpus(corpus, stopwords_small)
        assert len(docs) == 3
        assert [d.row_id for d in docs] == [0, 1, 2]
        assert [d.label for d in docs] == [r.label for r in corpus]

    def test_empty_corpus_raises(self, stopwords_small):
        with pytest.raises(EmptyCorpusError):
            preprocess_corpus(build_corpus([]), stopwords_small)

    def test_output_tokens_lowercase_and_stopword_free(self, stopwords_small):
        corpus = build_corpus([("YE drama Acha HAI bohat", "positive")])
        for doc in preprocess_corpus(corpus, stopwords_small):
            for tok in doc.tokens:
                assert tok == tok.lower()
                assert tok not in stopwords_small

    def test_idempotent_at_token_level(self, stopwords_small):
        corpus = build_corpus([("Ye Drama ACHA hai", "positive")])
        docs = preprocess_corpus(corpus, stopwords_small)
        again = build_corpus([(docs[0].text_final, "positive")])
        docs2 = preprocess_corpus(again, stopwords_small)
        assert docs2[0].tokens == docs[0].tokens
