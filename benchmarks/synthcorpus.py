"""Seeded synthetic Roman Urdu comment corpus for the benchmark.

The same (seed, size) always gives the same CSV bytes. Generation is
vectorised with numpy so that even the 50k-comment corpus takes about a
second; it runs before any timed region.

Properties the pipeline depends on, and why each is here:

- a Zipfian vocabulary of about 20k pseudo-words, so the 3000-term tf-idf
  cap discards a realistic tail;
- about 30% of tokens are stop words from the bundled list, so stop-word
  removal does work;
- about 5% of tokens are upper- or title-cased, so lowercasing does work
  (an upper-cased stop word is only removed after lowercasing);
- a few exact duplicate rows, so deduplication drops something;
- a few comments made only of stop words, so some documents come out empty;
- an exact 23/45/32 negative/neutral/positive label mix (see LABEL_MIX);
- per-class marker words, weak enough that the classifiers land in the
  paper's 0.55-0.75 accuracy range instead of saturating.
"""

import csv

import numpy as np

LABELS = ("negative", "neutral", "positive")
# Exact class shares. At default hyperparameters the linear SVM's weights
# are tiny, and once the neutral share of a training split nears one half
# its neutral-vs-rest intercept flips and it predicts neutral everywhere.
# With the paper's 48% that happens on some seeds and not others, so the
# neutral share is held at 45%, away from the flip.
LABEL_MIX = (0.23, 0.45, 0.32)
VOCAB_SIZE = 20000
STOPWORD_RATE = 0.30
CASED_RATE = 0.05
DUPLICATE_RATE = 0.004
EMPTY_RATE = 0.002
MEAN_LENGTH = 14
# Marker words per class at fixed, interleaved vocabulary ranks inside the
# default 3000-term cap, so every seed has the same marker structure. A
# content token is a marker with probability MARKER_RATE; a marker belongs
# to the comment's own class with probability MARKER_PURITY, otherwise to
# one of the other classes.
MARKERS_PER_CLASS = 60
MARKER_RANKS = np.linspace(150, 2500, 3 * MARKERS_PER_CLASS).astype(int).reshape(
    MARKERS_PER_CLASS, 3).T
MARKER_RATE = 0.35
MARKER_PURITY = 0.7

_ONSETS = ("", "b", "bh", "ch", "d", "dh", "g", "gh", "h", "j", "k", "kh",
           "l", "m", "n", "p", "ph", "r", "s", "sh", "t", "th", "w", "y", "z")
_VOWELS = ("a", "aa", "e", "i", "ee", "o", "oo", "u", "ai", "au")
_CODAS = ("", "", "", "n", "r", "l", "m", "t", "k", "h")


def read_stopwords(path):
    """Stop words from a list file: one per line, '#' comments."""
    with open(path, encoding="utf-8") as fh:
        words = {line.strip().lower() for line in fh}
    return sorted(w for w in words if w and not w.startswith("#"))


def _vocabulary(rng, stopwords, size):
    """``size`` distinct pseudo-words of two to four syllables, none of them
    a stop word, in a seeded order that doubles as the Zipf rank."""
    syllables = np.array([o + v + c for o in _ONSETS for v in _VOWELS for c in _CODAS])
    banned = set(stopwords)
    words = []
    seen = set()
    while len(words) < size:
        n = 2 * size
        lengths = rng.integers(2, 5, size=n)
        picks = rng.integers(0, syllables.size, size=(n, 4))
        for length, row in zip(lengths.tolist(), picks.tolist()):
            word = "".join(syllables[row[:length]])
            if word not in seen and word not in banned:
                seen.add(word)
                words.append(word)
                if len(words) == size:
                    break
    return np.array(words, dtype=object)


def _zipf_probs(n, exponent=1.0, shift=2.7):
    weights = 1.0 / (np.arange(n) + shift) ** exponent
    return weights / weights.sum()


def generate(seed, n_comments, stopwords):
    """Return (texts, labels) as two lists of ``n_comments`` strings."""
    rng = np.random.default_rng([seed, n_comments])
    vocab = _vocabulary(rng, stopwords, VOCAB_SIZE)
    stop = np.array(stopwords, dtype=object)

    counts = np.floor(np.array(LABEL_MIX) * n_comments).astype(int)
    counts[1] += n_comments - counts.sum()
    labels = rng.permutation(np.repeat(np.arange(3), counts))
    lengths = 3 + rng.poisson(MEAN_LENGTH - 3, size=n_comments)
    total = int(lengths.sum())
    doc_of = np.repeat(np.arange(n_comments), lengths)
    token_label = labels[doc_of]

    ids = rng.choice(VOCAB_SIZE, size=total, p=_zipf_probs(VOCAB_SIZE))
    is_marker = rng.random(total) < MARKER_RATE
    shift = np.where(rng.random(total) < MARKER_PURITY, 0, rng.integers(1, 3, size=total))
    marker_class = (token_label + shift) % 3
    marker_ids = MARKER_RANKS[
        marker_class,
        rng.choice(MARKERS_PER_CLASS, size=total, p=_zipf_probs(MARKERS_PER_CLASS)),
    ]
    ids = np.where(is_marker, marker_ids, ids)

    words = vocab[ids]
    is_stop = rng.random(total) < STOPWORD_RATE
    words[is_stop] = stop[rng.choice(stop.size, size=int(is_stop.sum()),
                                     p=_zipf_probs(stop.size, shift=5.0))]

    # Comments made of stop words only: empty after stop-word removal.
    empty = rng.random(n_comments) < EMPTY_RATE
    empty_tokens = empty[doc_of]
    words[empty_tokens] = stop[rng.integers(0, stop.size, size=int(empty_tokens.sum()))]

    cased = rng.random(total) < CASED_RATE
    upper = rng.random(total) < 0.5
    words[cased & upper] = [w.upper() for w in words[cased & upper]]
    words[cased & ~upper] = [w.capitalize() for w in words[cased & ~upper]]

    ends = np.cumsum(lengths).tolist()
    starts = [0] + ends[:-1]
    flat = words.tolist()
    texts = [" ".join(flat[s:e]) for s, e in zip(starts, ends)]
    label_names = [LABELS[c] for c in labels.tolist()]

    # Exact duplicates of earlier rows, text and label both.
    for i in np.flatnonzero(rng.random(n_comments) < DUPLICATE_RATE).tolist():
        if i > 0:
            j = int(rng.integers(0, i))
            texts[i], label_names[i] = texts[j], label_names[j]
    return texts, label_names


def write_csv(path, seed, n_comments, stopwords):
    """Write the corpus as ``comment,sentiment`` CSV with a header; return
    the row count and the count of distinct (comment, label) rows."""
    texts, labels = generate(seed, n_comments, stopwords)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["comment", "sentiment"])
        writer.writerows(zip(texts, labels))
    return len(texts), len(set(zip(texts, labels)))
