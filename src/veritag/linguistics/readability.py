"""Readability indices and surface counts for a tokenized text.

Every ratio with a zero denominator is defined as 0 so downstream
standardization never sees non-finite values; a text without words or
sentences has every value 0 but CH, its character count.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..resources import easy_words as _default_easy_words
from ..resources import stopwords as _default_stopwords
from .text import TokenizedText, count_syllables, is_url_token

# Schema order of the readability group. CW covers two distinct features
# (capitalized words and complex words), kept apart as CW.cap / CW.complex.
READABILITY_FEATURES: tuple[str, ...] = (
    "FRI", "FKI", "MSI", "GFI", "CLI", "ARI", "LWI", "WS",
    "W", "STC", "CH", "SY", "LX", "CW.cap", "CW.complex",
    "DW", "LW", "PS", "URL",
)

_LINSEAR_SAMPLE = 100


def _letters(token: str) -> int:
    if token.isalpha():
        return len(token)
    return sum(1 for c in token if c.isalpha())


def _linsear_write(
    syllable_counts: Sequence[int], sentences: Sequence[tuple[int, int]]
) -> float:
    """Linsear Write on the first 100 words: 1 point per word of ≤2
    syllables, 3 per word of ≥3; divide by sentences overlapping the
    sample; halve, subtracting 2 first when the quotient is ≤ 20."""
    n = min(len(syllable_counts), _LINSEAR_SAMPLE)
    if n == 0:
        return 0.0
    points = sum(1 if s <= 2 else 3 for s in syllable_counts[:n])
    sample_sentences = sum(1 for start, end in sentences if start < n and end > start)
    if sample_sentences == 0:
        return 0.0
    ratio = points / sample_sentences
    return ratio / 2.0 if ratio > 20 else (ratio - 2.0) / 2.0


def readability_features(
    tokenized: TokenizedText,
    easy_words: frozenset[str] | None = None,
    stopwords: frozenset[str] | None = None,
) -> dict[str, float]:
    """The readability group's values, keyed by READABILITY_FEATURES in order."""
    easy = _default_easy_words() if easy_words is None else easy_words
    stop = _default_stopwords() if stopwords is None else stopwords

    tokens = tokenized.tokens
    w = len(tokens)
    stc = len(tokenized.sentences)
    ch = tokenized.char_count
    if w == 0 or stc == 0:
        return {name: float(ch) if name == "CH" else 0.0 for name in READABILITY_FEATURES}

    # every per-token count below is computed once per distinct token of
    # the text's census and weighted by how often it occurs. Syllables are
    # counted once per lowercased word: count_syllables lowercases first,
    # and str.lower is idempotent.
    cw_cap = lw = url = letters = 0
    for t, n in tokenized.counts.items():
        if t[:1].isupper():
            cw_cap += n
        t_letters = _letters(t)
        letters += t_letters * n
        if t_letters > 6:
            lw += n
        if is_url_token(t):
            url += n
    lowered = tokenized.lowered
    syllables_of = {t: count_syllables(t) for t in lowered}
    sy = complex_words = dw = stopped = 0
    for t, n in lowered.items():
        s = syllables_of[t]
        sy += s * n
        if s >= 3:
            complex_words += n
        if t not in easy:
            dw += n
        if t in stop:
            stopped += n
    lx = len(lowered)
    ps = 100.0 * stopped / w

    ws = w / stc
    sy_per_w = sy / w
    fri = 206.835 - 1.015 * ws - 84.6 * sy_per_w
    fki = 0.39 * ws + 11.8 * sy_per_w - 15.59
    msi = 1.0430 * math.sqrt(complex_words * 30.0 / stc) + 3.1291
    gfi = 0.4 * (ws + 100.0 * complex_words / w)
    cli = 0.0588 * (100.0 * letters / w) - 0.296 * (100.0 * stc / w) - 15.8
    ari = 4.71 * (ch / w) + 0.5 * ws - 21.43
    lwi = _linsear_write(
        [syllables_of[t.lower()] for t in tokens[:_LINSEAR_SAMPLE]], tokenized.sentences
    )

    values = (  # in READABILITY_FEATURES order
        fri, fki, msi, gfi, cli, ari, lwi, ws, w, stc, ch, sy, lx, cw_cap, complex_words,
        dw, lw, ps, url,
    )
    return dict(zip(READABILITY_FEATURES, map(float, values)))
