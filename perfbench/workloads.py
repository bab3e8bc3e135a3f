"""Seeded corpus generator for the benchmark workloads.

The generator is self-contained: it has its own page templates and
vocabulary and imports nothing from the package under test, so a change to
the package cannot shift the inputs. The seed shuffles each page's topic words
over its slots and picks authors, ad order and image names; it leaves every
page's word counts alone. Page counts, sentence templates, token
and sentence counts and the share of style-swapped pages depend only on
the workload and its scale, so every seed asks for the same amount of
work.

A corpus directory holds ``manifest.jsonl``, ``site_labels.json`` and
``pages/*.html``, the layout the package's corpus loader reads.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

YEARS = (2016, 2017, 2018)
SITES = {
    "harbor-tribune.example": "reliable",
    "civic-record.example": "reliable",
    "rumor-mill.example": "unreliable",
    "shock-feed.example": "unreliable",
}
HOSTILE_PREFIX = "hostile-"
_SLOT = re.compile(r"\{n\}")

# Topic pools of eight words each. With drift each (class, year) pair has
# its own topic, rotated every year, so a term-based model trained on one
# year meets new vocabulary on the next. Every word has at most two
# syllables, so moving words between slots cannot change an order-sensitive
# readability score (Linsear Write reads only the first 100 words).
_TOPICS = (
    ("council", "budget", "pension", "transit", "zoning", "tariff", "audit", "levy"),
    ("harvest", "drought", "river", "wildfire", "glacier", "orchard", "barley", "monsoon"),
    ("vaccine", "clinic", "doctor", "outbreak", "nurse", "surgeon", "virus", "dosage"),
    ("stadium", "league", "striker", "coach", "playoff", "transfer", "referee", "trophy"),
)

_FORMAL = (
    "The {n} office said on Tuesday that the {n} review was completed after auditors checked the figures.",
    "Officials expect the {n} plan to remain stable through the coming fiscal year, according to the report.",
    "A spokesperson for the {n} department declined to comment on the {n} estimate before the hearing.",
    "Researchers who studied the {n} data described the results as consistent with earlier surveys.",
    "The committee published a summary of the {n} findings and invited written responses from residents.",
    "According to the agency, the {n} program met most of its stated goals during the second quarter.",
    "Local officials confirmed that the {n} records had been reviewed for several weeks.",
    "The report notes that the {n} figures rose by a modest margin compared with the previous year.",
    "Analysts cautioned that the {n} numbers remain preliminary until the final audit is released.",
    "In a statement, the {n} board said it would publish the complete {n} dataset next month.",
)
_TABLOID = (
    "WOW! You will not believe what happened to the {n}!",
    "This {n} SCANDAL is HUGE and everyone is FURIOUS!",
    "They are hiding the truth about the {n} from you!",
    "SHARE this before the {n} story gets DELETED!",
    "OMG. Nobody is safe and the {n} PANIC is spreading fast!",
    "You won't believe the SHOCKING photos of the {n}!",
    "This {n} changes EVERYTHING. Wake up!",
    "The {n} story they tried to bury is BACK!",
    "Insiders say the {n} is a total DISASTER!",
    "Doctors HATE this one weird {n} trick!",
)
_FORMAL_HEADLINES = (
    "Review of the {n} program finds steady progress",
    "Officials publish new {n} figures",
    "Questions remain over the {n} estimate",
    "The {n} plan moves ahead after hearing",
)
_TABLOID_HEADLINES = (
    "You will NOT believe this {n} story!",
    "SHOCKING {n} secret finally EXPOSED!",
    "The {n} TRUTH they do not want you to see!",
    "This {n} will make you FURIOUS!",
)
_AUTHORS = ("Morgan Reyes", "Taylor Quinn", "Jamie Ellison", "Robin Okafor", "Sam Lindqvist")
_NAV = ("Home", "Local", "Economy", "Science", "Health", "Sport", "About")
_AD_BLOCKS = (
    '<div class="ad-banner">Sponsored</div>',
    '<iframe src="https://ads.doubleclick.net/slot" width="300" height="250"></iframe>',
    '<div class="ads sidebar">Promoted stories</div>',
    '<img src="https://cdn.taboola.com/widget.png">',
    '<script src="https://widgets.outbrain.com/outbrain.js"></script>',
    '<ins class="adsbygoogle" data-ad-slot="42"></ins>',
)


@dataclass(frozen=True)
class WorkloadShape:
    """Page counts and sizes of one workload at one scale."""

    short_per_site_year: int  # short pages per (site, year)
    max_paragraphs: int  # short pages cycle through 3..max_paragraphs paragraphs
    long_sizes_kb: tuple[int, ...]  # one long article per entry; entry i goes to site i % 4, year i % 3
    hostile: bool  # add the five hostile pages to the oldest year
    drift: bool  # per-year topic drift


SHAPES = {
    "full": {
        "short-pages": WorkloadShape(20, 16, (), False, False),
        "long-pages": WorkloadShape(0, 0, (20, 26, 32, 38, 44, 50, 56, 64), True, False),
        "evaluate": WorkloadShape(4, 16, (), False, True),
    },
    "tiny": {
        "short-pages": WorkloadShape(2, 16, (), False, False),
        "long-pages": WorkloadShape(0, 0, (20, 24, 28, 32), True, False),
        "evaluate": WorkloadShape(2, 8, (), False, True),
    },
}


def _fill(parts: list[str], pool: tuple[str, ...], rng: random.Random) -> list[str]:
    """Fill the ``{n}`` slots of all parts with the pool's words in a seeded
    order. Which words fill the slots is fixed (the pool, cycled); the seed
    only moves them between slots, so a page's word counts, and with them
    its feature values, are the same for every seed."""
    words = [pool[k % len(pool)] for k in range(sum(part.count("{n}") for part in parts))]
    rng.shuffle(words)
    slots = iter(words)
    return [_SLOT.sub(lambda _: next(slots), part) for part in parts]


def _templates(style: str, sentences: int, first: int) -> str:
    """``sentences`` templates of a style in a fixed cycle starting at ``first``."""
    templates = _FORMAL if style == "reliable" else _TABLOID
    return " ".join(templates[(first + k) % len(templates)] for k in range(sentences))


def _formal_chrome(headline: str, paragraphs: list[str], index: int, rng: random.Random) -> str:
    author = rng.choice(_AUTHORS)
    nav = " ".join(f'<a href="/{name.lower()}">{name}</a>' for name in _NAV)
    body = []
    for i, para in enumerate(paragraphs):
        if i == 1:
            para += ' See the <a href="/reports/full">full report</a> for details.'
        body.append(f"<p>{para}</p>")
    split = max(1, len(body) - 2)
    lead, tail = "\n".join(body[:split]), "\n".join(body[split:])
    return (
        f'<!DOCTYPE html>\n<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        f"<title>{headline}</title>\n"
        f'<meta name="author" content="{author}">\n'
        f'<link rel="stylesheet" href="/static/site.css">\n</head>\n<body>\n'
        f"<header><nav>{nav}</nav></header>\n<main>\n<article>\n<h1>{headline}</h1>\n"
        f'<div class="byline">By {author}</div>\n{lead}\n'
        f"<section>\n<h2>Background</h2>\n{tail}\n</section>\n</article>\n</main>\n"
        f'<footer><ul><li><a href="/contact">Contact</a></li>'
        f'<li><a href="/privacy">Privacy</a></li></ul></footer>\n</body>\n</html>\n'
    )


def _tabloid_chrome(headline: str, paragraphs: list[str], index: int, rng: random.Random) -> str:
    """Four ad blocks picked by page index, in seeded order, and three
    teaser images between the paragraphs."""
    ads = [_AD_BLOCKS[(index + k) % len(_AD_BLOCKS)] for k in range(4)]
    rng.shuffle(ads)
    images = [f'<img src="/img/teaser{rng.randrange(20)}.jpg">' for _ in range(3)]
    body = [f"<p><b>{para}</b></p>" if i % 3 == 0 else f"<p>{para}</p>" for i, para in enumerate(paragraphs)]
    extras = ads + images
    out: list[str] = []
    for i, part in enumerate(body):
        out.append(part)
        if i < len(extras):
            out.append(extras[i])
    out.extend(extras[len(body):])
    return (
        f"<html>\n<head>\n<title>{headline}</title>\n</head>\n<body>\n"
        f'<div class="top"><h1>{headline}</h1></div>\n' + "\n".join(out) + "\n</body>\n</html>\n"
    )


def _topic(label: str, year_index: int, index: int, drift: bool) -> tuple[str, ...]:
    """Without drift a page's topic follows its index; with drift each
    (class, year) pair has its own topic, rotated every year."""
    if not drift:
        return _TOPICS[index % len(_TOPICS)]
    offset = 0 if label == "reliable" else 2
    return _TOPICS[(year_index + offset) % len(_TOPICS)]


def _page(label: str, index: int, pool: tuple[str, ...], paragraphs: int, rng: random.Random) -> str:
    """One short page; every tenth page at index 3 swaps its text style and
    every tenth at index 7 swaps its chrome, so a fifth of pages overlap the
    other class."""
    other = "unreliable" if label == "reliable" else "reliable"
    text_style = other if index % 10 == 3 else label
    chrome = other if index % 10 == 7 else label
    headlines = _FORMAL_HEADLINES if text_style == "reliable" else _TABLOID_HEADLINES
    sentences = 4 if text_style == "reliable" else 5
    headline, *paras = _fill(
        [headlines[index % len(headlines)]]
        + [_templates(text_style, sentences, 3 * index + sentences * j) for j in range(paragraphs)],
        pool, rng,
    )
    render = _formal_chrome if chrome == "reliable" else _tabloid_chrome
    return render(headline, paras, index, rng)


def _planned_len(template: str) -> int:
    """Length of a filled template with 7-letter slot words, so sizes
    planned with it do not depend on the seed."""
    return len(template.replace("{n}", "x" * 7)) + 1


def _long_page(label: str, index: int, size_kb: int, rng: random.Random) -> str:
    count = size = 0
    while size < size_kb * 1024:
        size += _planned_len(_templates(label, 6, 6 * count)) + 8
        count += 1
    headlines = _FORMAL_HEADLINES if label == "reliable" else _TABLOID_HEADLINES
    headline, *paras = _fill(
        [headlines[index % len(headlines)]] + [_templates(label, 6, 6 * j) for j in range(count)],
        _TOPICS[index % len(_TOPICS)], rng,
    )
    render = _formal_chrome if label == "reliable" else _tabloid_chrome
    return render(headline, paras, index, rng)


def _hostile_pages(rng: random.Random) -> dict[str, bytes]:
    """The five hostile pages: 5,000 unclosed nested divs, one ~200 KB
    paragraph, ~45 KB of text without punctuation, bytes that are not
    UTF-8, and an empty body."""
    pool = _TOPICS[0]
    count = size = 0
    while size < 200 * 1024:
        size += _planned_len(_FORMAL[count % len(_FORMAL)])
        count += 1
    words, long_text = _fill([" ".join(["{n}"] * 6000), _templates("reliable", count, 0)], pool, rng)
    words = words.split(" ")
    deep = "<html><body>" + "<div>" * 5000 + "<p>" + " ".join(words[:60]) + ".</p></body></html>"
    paragraph = (
        "<html><head><title>One long paragraph</title></head><body><article><h1>One long paragraph</h1><p>"
        + long_text
        + "</p></article></body></html>"
    )
    no_punct = "<html><body><p>" + " ".join(words) + "</p></body></html>"
    latin1 = (
        "<html><head><title>Caf\xe9 r\xe9sum\xe9</title></head><body><p>Le caf\xe9 "
        + " ".join(words[:200])
        + " co\xfbte cher.</p></body></html>"
    ).encode("latin-1") + b"\xff\xfe\x80\x81 trailing bytes"
    return {
        f"{HOSTILE_PREFIX}deep-nesting": deep.encode("utf-8"),
        f"{HOSTILE_PREFIX}long-paragraph": paragraph.encode("utf-8"),
        f"{HOSTILE_PREFIX}no-punctuation": no_punct.encode("utf-8"),
        f"{HOSTILE_PREFIX}not-utf8": latin1,
        f"{HOSTILE_PREFIX}empty-body": b"<html><head></head><body></body></html>",
    }


def build_corpus(root: Path, workload: str, seed: int, scale: str = "full") -> Path:
    """Write the workload's corpus under ``root`` and return ``root``."""
    shape = SHAPES[scale][workload]
    pages: dict[str, bytes] = {}
    records: list[dict] = []

    def add(doc_id: str, site: str, year: int, html: bytes) -> None:
        pages[doc_id] = html
        records.append(
            {
                "id": doc_id,
                "url": f"https://{site}/{year}/{doc_id}",
                "site": site,
                "label": SITES[site],
                "year": year,
                "html_path": f"pages/{doc_id}.html",
            }
        )

    for year_index, year in enumerate(YEARS):
        for site_index, (site, label) in enumerate(SITES.items()):
            for i in range(shape.short_per_site_year):
                doc_id = f"{site.split('.')[0]}-{year}-{i:03d}"
                rng = random.Random(f"{seed}:{workload}:{doc_id}")
                pool = _topic(label, year_index, i + site_index + year_index, shape.drift)
                paragraphs = 3 + (i * 5) % (shape.max_paragraphs - 2)
                add(doc_id, site, year, _page(label, i, pool, paragraphs, rng).encode("utf-8"))

    sites = list(SITES)
    for i, size_kb in enumerate(shape.long_sizes_kb):
        site, year = sites[i % len(sites)], YEARS[i % len(YEARS)]
        doc_id = f"long-{i:02d}-{size_kb}kb"
        rng = random.Random(f"{seed}:{workload}:{doc_id}")
        add(doc_id, site, year, _long_page(SITES[site], i, size_kb, rng).encode("utf-8"))

    if shape.hostile:
        rng = random.Random(f"{seed}:{workload}:hostile")
        for i, (doc_id, html) in enumerate(_hostile_pages(rng).items()):
            add(doc_id, sites[i % len(sites)], YEARS[0], html)

    (root / "pages").mkdir(parents=True, exist_ok=True)
    (root / "site_labels.json").write_text(json.dumps(SITES, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    with (root / "manifest.jsonl").open("w", encoding="utf-8") as fh:
        for record in sorted(records, key=lambda r: r["id"]):
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    for doc_id, html in pages.items():
        (root / "pages" / f"{doc_id}.html").write_bytes(html)
    return root


def corpus_sha256(root: Path) -> str:
    """Digest over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
