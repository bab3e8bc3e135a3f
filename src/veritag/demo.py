"""Deterministic synthetic corpora for demos and the end-to-end suite.

Two generators write ready-to-use corpus directories (manifest.jsonl,
site_labels.json, pages/*.html):

``build_demo_corpus``
    40 pages, two publishing styles that differ in ads, markup, and
    linguistics at once. Easily separable; used for end-to-end runs.

``build_drift_corpus``
    Two years where the topic vocabulary of the classes is swapped in the
    second year while each class keeps its layout and writing style. A
    term-based model trained on one year inverts on the other; layout and
    style signals are unaffected. Class pairs share one replayed random
    stream per document index, so the classes differ only in markup and
    in which noun pool fills the slots.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

from .corpus import MANIFEST_NAME, SITE_LABELS_NAME

# Slot vocabularies for the drift fixture. The pools are index-paired and
# matched on word length so the readability profile tracks the template,
# not the pool; pool A reads like governance news, pool B like nature news.
DRIFT_POOL_A = ("tribunal", "statute", "auditor", "mandate", "quorum", "ledger", "fiscal", "treaty")
DRIFT_POOL_B = ("glaciers", "monsoon", "orchard", "estuary", "lagoon", "meadow", "timber", "canyon")

_AUTHORS = ("Jordan Hale", "Casey Bryant", "Riley Monroe", "Avery Sloan")

_FORMAL_NOUNS = ("budget", "pension", "transit", "housing", "education", "commission")
_FORMAL_SENTENCES = (
    "The government said on Tuesday that the {n} plan was approved because auditors had reviewed the figures in detail.",
    "Officials expect the {n} budget to therefore remain stable through the coming fiscal year.",
    "Analysts consider the proof convincing and believe the published results are certain.",
    "The office confirmed that staff had reviewed the {n} records for several weeks before the announcement.",
    "A spokesman for the department said the {n} committee would understand the cause of the shortfall.",
    "The report shows that tax revenue grew by a clear margin during the second quarter.",
    "Because the evidence was definite, the authority concluded that the {n} program met its stated goals.",
    "Researchers who know the field described the findings as careful and consistent with earlier work.",
)

_TABLOID_NOUNS = ("celebrity", "mansion", "miracle", "stunt", "feud", "hoax")
_TABLOID_SENTENCES = (
    "WOW! You will not believe what happened to the {n}.",
    "This {n} SCANDAL is HUGE and everyone is FURIOUS!",
    "They are hiding the truth about the {n} from you!",
    "SHARE this before it gets DELETED!",
    "OMG. Nobody is safe and the PANIC is spreading fast!",
    "You won't believe the SHOCKING photos of the {n}!",
    "This changes EVERYTHING. Wake up!",
    "The {n} story they tried to bury is BACK!",
)

# Shared templates for the drift fixture: one writing style for both
# classes, topic slots only.
_DRIFT_SENTENCES = (
    "The {n} committee met on Monday and reviewed the {n} report for several hours.",
    "Officials close to the {n} office said the {n} results would appear within days.",
    "A spokesman for the {n} board declined to discuss the {n} figures in any detail.",
    "Residents near the {n} district followed the {n} debate with growing interest.",
    "The {n} council published its {n} summary late in the evening.",
    "Reporters covering the {n} review said the {n} record spans almost a decade.",
)
_DRIFT_HEADLINES = (
    "New {n} report draws wide attention",
    "The {n} plan moves ahead after review",
    "Questions remain over the {n} figures",
    "The {n} decision arrives next week",
)

_NAV_LINKS = (
    ("/", "Home"),
    ("/national", "National"),
    ("/economy", "Economy"),
    ("/science", "Science"),
    ("/about", "About"),
)


def _fill(template: str, pool: tuple[str, ...], rng: random.Random) -> str:
    out = template
    while "{n}" in out:
        out = out.replace("{n}", pool[rng.randrange(len(pool))], 1)
    return out


def _paragraphs(
    sentences: tuple[str, ...],
    pool: tuple[str, ...],
    rng: random.Random,
    per_paragraph: tuple[int, int],
    paragraphs: tuple[int, int],
) -> list[str]:
    """Paragraphs of filled template sentences; both counts are drawn from
    their half-open ranges."""
    return [
        " ".join(
            _fill(sentences[rng.randrange(len(sentences))], pool, rng)
            for _ in range(rng.randrange(*per_paragraph))
        )
        for _ in range(rng.randrange(*paragraphs))
    ]


def _emphasize(paragraph: str, tag: str, rng: random.Random) -> str:
    """Wrap one word in an inline tag; the extracted text is unchanged."""
    words = paragraph.split(" ")
    i = rng.randrange(len(words))
    words[i] = f"<{tag}>{words[i]}</{tag}>"
    return " ".join(words)


def _formal_page(
    headline: str,
    paragraphs: list[str],
    rng: random.Random,
    inline_links: bool,
) -> str:
    author = _AUTHORS[rng.randrange(len(_AUTHORS))]
    nav = "".join(f'<a href="{href}">{text}</a> ' for href, text in _NAV_LINKS)
    body_parts = []
    for idx, para in enumerate(paragraphs):
        rendered = _emphasize(para, "em", rng) if rng.random() < 0.5 else para
        if inline_links and idx == 0:
            rendered += ' See the <a href="/reports/full">full report</a> for the complete figures.'
        body_parts.append(f"<p>{rendered}</p>")
    split = max(1, len(body_parts) - 2)
    lead = "\n".join(body_parts[:split])
    tail = "\n".join(body_parts[split:])
    return f"""<html>
<head>
<title>{headline}</title>
<meta name="author" content="{author}">
<meta name="description" content="News report">
<link rel="stylesheet" href="/static/site.css">
</head>
<body>
<header><nav>{nav}</nav></header>
<main>
<article>
<h1>{headline}</h1>
<div class="byline">By {author}</div>
{lead}
<section>
<h2>Background</h2>
{tail}
</section>
</article>
</main>
<footer><ul><li><a href="/contact">Contact</a></li><li><a href="/privacy">Privacy</a></li></ul></footer>
</body>
</html>
"""


def _tabloid_page(headline: str, paragraphs: list[str], rng: random.Random) -> str:
    ad_blocks = [
        '<div class="ad-banner">Sponsored</div>',
        '<iframe src="https://ads.doubleclick.net/inline" width="300" height="250"></iframe>',
        '<div class="ads sidebar">Promoted stories</div>',
        '<img src="https://cdn.taboola.com/widget.png">',
        '<script src="https://widgets.outbrain.com/outbrain.js"></script>',
    ]
    n_ads = rng.randrange(3, len(ad_blocks) + 1)
    ads = [ad_blocks[i] for i in sorted(rng.sample(range(len(ad_blocks)), n_ads))]
    images = [f'<img src="/images/teaser{rng.randrange(10)}.jpg">' for _ in range(rng.randrange(2, 4))]
    body_parts = []
    for para in paragraphs:
        rendered = _emphasize(para, "b", rng) if rng.random() < 0.5 else para
        body_parts.append(f"<p>{rendered}</p>")
    slots = body_parts + ads + images
    rng.shuffle(slots)
    body = "\n".join(slots)
    return f"""<html>
<head>
<title>{headline}</title>
</head>
<body>
<h1>{headline}</h1>
{body}
</body>
</html>
"""


def _record(doc_id: str, site: str, label: str, year: int) -> dict:
    """The manifest record of a generated page."""
    return {
        "id": doc_id,
        "url": f"https://{site}/{year}/{doc_id}",
        "site": site,
        "label": label,
        "year": year,
        "html_path": f"pages/{doc_id}.html",
    }


def _write_corpus(root: Path, site_labels: dict[str, str], records: list[dict], pages: dict[str, str]) -> Path:
    root = Path(root)
    (root / "pages").mkdir(parents=True, exist_ok=True)
    (root / SITE_LABELS_NAME).write_text(
        json.dumps(site_labels, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    with (root / MANIFEST_NAME).open("w", encoding="utf-8") as fh:
        for record in sorted(records, key=lambda r: r["id"]):
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    for doc_id, html in pages.items():
        (root / "pages" / f"{doc_id}.html").write_text(html, encoding="utf-8")
    return root


def build_demo_corpus(root: str | Path, seed: int = 0) -> Path:
    """Write the 40-page two-style corpus; returns the corpus directory."""
    sites = {
        "courier-ledger.example": "reliable",
        "metro-chronicle.example": "reliable",
        "viral-scoop.example": "unreliable",
        "buzz-patrol.example": "unreliable",
    }
    records: list[dict] = []
    pages: dict[str, str] = {}
    counter = 0
    for site, label in sites.items():
        for year in (2016, 2017):
            for _ in range(5):
                counter += 1
                doc_id = f"mini-{counter:04d}"
                rng = random.Random(f"{seed}:mini:{doc_id}")
                if label == "reliable":
                    headline = _fill(
                        "Report finds steady progress on the {n} program", _FORMAL_NOUNS, rng
                    )
                    paragraphs = _paragraphs(_FORMAL_SENTENCES, _FORMAL_NOUNS, rng, (2, 4), (4, 7))
                    html = _formal_page(headline, paragraphs, rng, inline_links=True)
                else:
                    headline = _fill("You will NOT believe this {n} story!", _TABLOID_NOUNS, rng)
                    paragraphs = _paragraphs(_TABLOID_SENTENCES, _TABLOID_NOUNS, rng, (1, 3), (5, 9))
                    html = _tabloid_page(headline, paragraphs, rng)
                records.append(_record(doc_id, site, label, year))
                pages[doc_id] = html
    return _write_corpus(Path(root), sites, records, pages)


def _drift_pool(label: str, year_index: int) -> tuple[str, ...]:
    # Year 0: reliable speaks pool A, unreliable pool B. Year 1: swapped.
    if (label == "reliable") == (year_index % 2 == 0):
        return DRIFT_POOL_A
    return DRIFT_POOL_B


def build_drift_corpus(root: str | Path, seed: int = 0) -> Path:
    """Write the two-year vocabulary-swap corpus, 12 pages per class and
    year; returns the directory.

    For a given document index the text rng is replayed for every
    (year, label) variant, so all four variants share sentence structure
    and differ only in the noun pool and the page chrome.
    """
    sites = {"steady-gazette.example": "reliable", "flash-wire.example": "unreliable"}
    years = (2016, 2017)
    records: list[dict] = []
    pages: dict[str, str] = {}
    counter = 0
    for year_index, year in enumerate(years):
        for site, label in sites.items():
            pool = _drift_pool(label, year_index)
            for i in range(12):
                counter += 1
                doc_id = f"drift-{counter:04d}"
                text_rng = random.Random(f"{seed}:drift-text:{i}")
                headline = _fill(
                    _DRIFT_HEADLINES[text_rng.randrange(len(_DRIFT_HEADLINES))], pool, text_rng
                )
                paragraphs = _paragraphs(_DRIFT_SENTENCES, pool, text_rng, (2, 4), (3, 6))
                chrome_rng = random.Random(f"{seed}:drift-page:{label}:{i}")
                if label == "reliable":
                    html = _formal_page(headline, paragraphs, chrome_rng, inline_links=False)
                else:
                    html = _tabloid_page(headline, paragraphs, chrome_rng)
                records.append(_record(doc_id, site, label, year))
                pages[doc_id] = html
    return _write_corpus(Path(root), sites, records, pages)


def build_topic_fixture(path: str | Path) -> Path:
    """Write a small topic-labeled JSONL usable to train the political filter."""
    rows = [
        {"text": "The senate vote on the budget bill follows weeks of committee debate.", "topic": "politics"},
        {"text": "Congress passed the spending bill after the governor urged a quick vote.", "topic": "politics"},
        {"text": "The election campaign focused on tax policy and the senate race.", "topic": "politics"},
        {"text": "Lawmakers questioned the minister about the new voting district map.", "topic": "politics"},
        {"text": "The parliament session ended with a vote on the foreign policy bill.", "topic": "politics"},
        {"text": "The singer wore a striking gown at the festival premiere last night.", "topic": "celebrity"},
        {"text": "Fans cheered as the actor arrived at the award ceremony with his band.", "topic": "celebrity"},
        {"text": "The couple announced their engagement backstage after the concert.", "topic": "celebrity"},
        {"text": "Photographers followed the star between the hotel and the film set.", "topic": "celebrity"},
        {"text": "The reality show host signed a new deal with the streaming studio.", "topic": "celebrity"},
    ]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Generate the bundled synthetic corpora.")
    parser.add_argument("out", help="directory to write the corpus into")
    parser.add_argument("--drift", action="store_true", help="write the two-year drift corpus instead")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.drift:
        build_drift_corpus(args.out, seed=args.seed)
    else:
        build_demo_corpus(args.out, seed=args.seed)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
