"""Readability indices and surface counts for a tokenized text.

Every ratio with a zero denominator is defined as 0 so downstream
standardization never sees non-finite values; for empty text all indices
and counts are 0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
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


@dataclass(frozen=True)
class ReadabilityScores:
    fri: float
    fki: float
    msi: float
    gfi: float
    cli: float
    ari: float
    lwi: float
    ws: float
    w: int
    stc: int
    ch: int
    sy: int
    lx: int
    cw_cap: int
    cw_complex: int
    dw: int
    lw: int
    ps: float
    url: int

    def as_features(self) -> dict[str, float]:
        """Values keyed by READABILITY_FEATURES names."""
        return {
            "FRI": self.fri, "FKI": self.fki, "MSI": self.msi,
            "GFI": self.gfi, "CLI": self.cli, "ARI": self.ari,
            "LWI": self.lwi, "WS": self.ws, "W": float(self.w),
            "STC": float(self.stc), "CH": float(self.ch), "SY": float(self.sy),
            "LX": float(self.lx), "CW.cap": float(self.cw_cap),
            "CW.complex": float(self.cw_complex), "DW": float(self.dw),
            "LW": float(self.lw), "PS": self.ps, "URL": float(self.url),
        }


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
) -> ReadabilityScores:
    easy = _default_easy_words() if easy_words is None else easy_words
    stop = _default_stopwords() if stopwords is None else stopwords

    tokens = tokenized.tokens
    w = len(tokens)
    stc = len(tokenized.sentences)
    ch = tokenized.char_count
    if w == 0 or stc == 0:
        return ReadabilityScores(
            fri=0.0, fki=0.0, msi=0.0, gfi=0.0, cli=0.0, ari=0.0, lwi=0.0,
            ws=0.0, w=0, stc=0, ch=ch, sy=0, lx=0, cw_cap=0, cw_complex=0,
            dw=0, lw=0, ps=0.0, url=0,
        )

    # every per-token count below is computed once per distinct token and
    # weighted by how often it occurs
    counts = Counter(tokens)
    syllables_of = {t: count_syllables(t) for t in counts}
    sy = complex_words = cw_cap = lw = url = letters = 0
    lowered: Counter[str] = Counter()
    for t, n in counts.items():
        s = syllables_of[t]
        sy += s * n
        if s >= 3:
            complex_words += n
        if t[:1].isupper():
            cw_cap += n
        t_letters = _letters(t)
        letters += t_letters * n
        if t_letters > 6:
            lw += n
        if is_url_token(t):
            url += n
        lowered[t.lower()] += n
    lx = len(lowered)
    dw = sum(n for t, n in lowered.items() if t not in easy)
    ps = 100.0 * sum(n for t, n in lowered.items() if t in stop) / w

    ws = w / stc
    sy_per_w = sy / w
    fri = 206.835 - 1.015 * ws - 84.6 * sy_per_w
    fki = 0.39 * ws + 11.8 * sy_per_w - 15.59
    msi = 1.0430 * math.sqrt(complex_words * 30.0 / stc) + 3.1291
    gfi = 0.4 * (ws + 100.0 * complex_words / w)
    cli = 0.0588 * (100.0 * letters / w) - 0.296 * (100.0 * stc / w) - 15.8
    ari = 4.71 * (ch / w) + 0.5 * ws - 21.43
    lwi = _linsear_write(
        [syllables_of[t] for t in tokens[:_LINSEAR_SAMPLE]], tokenized.sentences
    )

    return ReadabilityScores(
        fri=fri, fki=fki, msi=msi, gfi=gfi, cli=cli, ari=ari, lwi=lwi,
        ws=ws, w=w, stc=stc, ch=ch, sy=sy, lx=lx, cw_cap=cw_cap,
        cw_complex=complex_words, dw=dw, lw=lw, ps=ps, url=url,
    )
