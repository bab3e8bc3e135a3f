"""Corpus loading, site-label projection and balanced sampling.

A corpus on disk is a directory holding ``manifest.jsonl`` (one metadata
record per line), ``site_labels.json`` (site → label), and the HTML files
the manifest records point at via relative paths.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from .errors import ConfigError, DataError, is_int, iter_jsonl, read_json

LABELS = ("reliable", "unreliable")
LABEL_TO_CLASS = {"reliable": 0, "unreliable": 1}
CLASS_TO_LABEL = {v: k for k, v in LABEL_TO_CLASS.items()}

DEFAULT_YEAR_RANGE = (1990, 2100)

MANIFEST_NAME = "manifest.jsonl"
SITE_LABELS_NAME = "site_labels.json"


@dataclass(frozen=True)
class RawDocument:
    id: str
    url: str
    site: str
    label: str
    year: int
    html: bytes


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    url: str
    site: str
    label: str
    year: int
    html_path: str


@dataclass
class CorpusManifest:
    root: Path
    entries: list[ManifestEntry]
    site_labels: dict[str, str]

    def load_html(self, entry: ManifestEntry) -> bytes:
        path = self.root / entry.html_path
        try:
            return path.read_bytes()
        except OSError as exc:
            raise DataError(f"cannot read page {entry.id} at {path}: {exc}") from exc

    def load_document(self, entry: ManifestEntry) -> RawDocument:
        return RawDocument(
            id=entry.id,
            url=entry.url,
            site=entry.site,
            label=entry.label,
            year=entry.year,
            html=self.load_html(entry),
        )

    def iter_documents(self) -> Iterator[RawDocument]:
        for entry in self.entries:
            yield self.load_document(entry)


def _check_site(site: str, where: str) -> None:
    if site != site.lower():
        raise DataError(f"{where}: site {site!r} must be lowercase")
    if "/" in site or ":" in site or " " in site:
        raise DataError(f"{where}: site {site!r} must be a bare domain")


def load_manifest(
    path: str | Path, year_range: tuple[int, int] = DEFAULT_YEAR_RANGE
) -> CorpusManifest:
    """Load a corpus directory; errors carry the offending line number."""
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    labels_path = root / SITE_LABELS_NAME
    if not manifest_path.is_file():
        raise DataError(f"no {MANIFEST_NAME} in {root}")
    if not labels_path.is_file():
        raise DataError(f"no {SITE_LABELS_NAME} in {root}")

    site_labels = read_json(labels_path, "site labels")
    if not isinstance(site_labels, dict):
        raise DataError(f"{labels_path}: expected an object of site → label")
    for site, label in site_labels.items():
        _check_site(site, str(labels_path))
        if label not in LABELS:
            raise DataError(f"{labels_path}: site {site!r} has invalid label {label!r}")

    entries: list[ManifestEntry] = []
    seen_ids: set[str] = set()
    lo, hi = year_range
    for where, record in iter_jsonl(manifest_path, "manifest"):
        missing = {"id", "url", "site", "label", "year", "html_path"} - record.keys()
        if missing:
            raise DataError(f"{where}: missing fields {sorted(missing)}")
        for key in ("id", "url", "site", "html_path"):
            if not isinstance(record[key], str):
                raise DataError(f"{where}: {key} {record[key]!r} is not a string")
        doc_id = record["id"]
        if doc_id in seen_ids:
            raise DataError(f"{where}: duplicate id {doc_id!r}")
        seen_ids.add(doc_id)
        site = record["site"]
        _check_site(site, where)
        label = record["label"]
        if label not in LABELS:
            raise DataError(f"{where}: invalid label {label!r}")
        if site not in site_labels:
            raise DataError(f"{where}: site {site!r} not in {SITE_LABELS_NAME}")
        if site_labels[site] != label:
            raise DataError(
                f"{where}: label {label!r} conflicts with site label "
                f"{site_labels[site]!r} for {site!r}"
            )
        html_path = record["html_path"]
        if html_path.startswith("/") or ".." in html_path.split("/"):
            raise DataError(f"{where}: html_path {html_path!r} is not a path inside the corpus")
        year = record["year"]
        if not is_int(year, lo, hi + 1):
            raise DataError(f"{where}: year {year!r} is not an integer in {lo}..{hi}")
        entries.append(
            ManifestEntry(
                id=doc_id,
                url=record["url"],
                site=site,
                label=label,
                year=year,
                html_path=html_path,
            )
        )
    return CorpusManifest(root=root, entries=entries, site_labels=dict(site_labels))


def balanced_sample(
    docs: Sequence[RawDocument], cap_per_site_year: int, seed: int
) -> list[RawDocument]:
    """Seeded uniform sample without replacement of up to the cap from each
    (site, year) group; output sorted by (site, year, id)."""
    import hashlib  # here, not at the top: it loads OpenSSL, and few runs sample

    if cap_per_site_year < 1:
        raise ConfigError("sampling cap must be ≥ 1")
    groups: dict[tuple[str, int], list[RawDocument]] = {}
    for doc in docs:
        groups.setdefault((doc.site, doc.year), []).append(doc)

    kept: list[RawDocument] = []
    for (site, year), group in groups.items():
        group = sorted(group, key=lambda d: d.id)
        if len(group) <= cap_per_site_year:
            kept.extend(group)
            continue
        digest = hashlib.sha256(f"{seed}:{site}:{year}".encode("utf-8")).digest()
        rng = random.Random(int.from_bytes(digest[:8], "big"))
        kept.extend(rng.sample(group, cap_per_site_year))
    kept.sort(key=lambda d: (d.site, d.year, d.id))
    return kept
