"""HTML parsing, headline/body extraction, and web-markup layout features.

The parser is a lenient, stack-based tree builder on top of the stdlib
``html.parser`` tokenizer: it never fails on malformed markup, lowercases tag
names, recovers from stray end tags, and applies a minimal auto-close table
(an open ``<p>`` is closed by the next ``<p>``, etc.). Non-UTF-8 input is
decoded with replacement characters.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from html.parser import HTMLParser
from typing import Iterator
from urllib.parse import urlsplit

from . import resources

VOID_ELEMENTS = frozenset(
    "area base br col embed frame hr img input link meta param source track wbr".split()
)

# Opening the key closes any open element named in the value set (nearest first).
AUTOCLOSE = {
    "p": frozenset({"p"}),
    "li": frozenset({"li"}),
    "tr": frozenset({"tr", "td", "th"}),
    "td": frozenset({"td", "th"}),
    "th": frozenset({"td", "th"}),
    "dt": frozenset({"dt", "dd"}),
    "dd": frozenset({"dt", "dd"}),
    "option": frozenset({"option"}),
}

# Tags whose text never belongs to readable content.
NON_CONTENT_TAGS = frozenset({"script", "style"})
BOILERPLATE_TAGS = frozenset({"script", "style", "nav", "footer", "aside"})

AD_TOKENS = frozenset(
    {"ad", "ads", "advert", "advertisement", "sponsored", "adsbygoogle",
     "taboola", "outbrain", "doubleclick"}
)
AD_SRC_TAGS = frozenset({"iframe", "script", "img", "ins"})

_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")
_WS = re.compile(r"\s+")


class Element:
    """One element node. ``children`` holds child Elements and text strings."""

    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag: str, attrs: dict[str, str] | None = None):
        self.tag = tag
        self.attrs = attrs if attrs is not None else {}
        self.children: list[Element | str] = []

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Element {self.tag} children={len(self.children)}>"

    def iter_elements(self) -> Iterator["Element"]:
        """All descendant elements in document order (self excluded).

        Walks an explicit stack of child iterators, so nesting depth costs
        neither recursion nor a per-level ``yield from`` hop.
        """
        stack = [iter(self.children)]
        while stack:
            for child in stack[-1]:
                if isinstance(child, Element):
                    yield child
                    stack.append(iter(child.children))
                    break
            else:
                stack.pop()

    def find_all(self, tag: str) -> list["Element"]:
        return [el for el in self.iter_elements() if el.tag == tag]

    def find(self, tag: str) -> "Element | None":
        for el in self.iter_elements():
            if el.tag == tag:
                return el
        return None

    def text(self, exclude: frozenset[str] = NON_CONTENT_TAGS) -> str:
        """Concatenated text of the subtree, skipping excluded tags entirely."""
        parts: list[str] = []
        stack = [iter(self.children)]
        while stack:
            for child in stack[-1]:
                if isinstance(child, str):
                    parts.append(child)
                elif child.tag not in exclude:
                    stack.append(iter(child.children))
                    break
            else:
                stack.pop()
        return "".join(parts)


DOCUMENT_TAG = "[document]"


class _TreeBuilder(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = Element(DOCUMENT_TAG)
        self.stack: list[Element] = [self.root]
        # Open elements per tag name, so an end tag that closes nothing
        # returns without scanning the stack.
        self.open_counts: defaultdict[str, int] = defaultdict(int)

    def _top(self) -> Element:
        return self.stack[-1]

    def handle_starttag(self, tag: str, attrs) -> None:
        closers = AUTOCLOSE.get(tag)
        if closers:
            while len(self.stack) > 1 and self._top().tag in closers:
                self.open_counts[self.stack.pop().tag] -= 1
        element = Element(tag, _attr_dict(attrs))
        self._top().children.append(element)
        if tag not in VOID_ELEMENTS:
            self.stack.append(element)
            self.open_counts[tag] += 1

    def handle_startendtag(self, tag: str, attrs) -> None:
        element = Element(tag, _attr_dict(attrs))
        self._top().children.append(element)

    def handle_endtag(self, tag: str) -> None:
        if not self.open_counts[tag]:
            return  # stray end tag: ignore
        # Close up to and including the nearest open element of this tag.
        while True:
            closed = self.stack.pop().tag
            self.open_counts[closed] -= 1
            if closed == tag:
                return

    def handle_data(self, data: str) -> None:
        if data:
            self._top().children.append(data)

    def error(self, message: str) -> None:  # pragma: no cover - py<3.10 compat hook
        pass


def _attr_dict(attrs) -> dict[str, str]:
    out: dict[str, str] = {}
    for name, value in attrs:
        if name not in out:  # first occurrence wins, as in browsers
            out[name] = value if value is not None else ""
    return out


def parse_html(data: bytes | str) -> Element:
    """Parse arbitrary HTML bytes into an element tree. Never raises."""
    if isinstance(data, bytes):
        text = data.decode("utf-8", errors="replace")
    else:
        text = data
    if text.startswith("﻿"):
        text = text[1:]
    builder = _TreeBuilder()
    builder.feed(text)
    builder.close()
    return builder.root


@dataclass
class Article:
    """Extracted headline and body text of one page."""

    headline: str
    content: str
    extraction_notes: list[str] = field(default_factory=list)


def _normalize(text: str) -> str:
    return _WS.sub(" ", text).strip()


def _paragraphs(parts: list[str]) -> str:
    cleaned = [_normalize(p) for p in parts]
    return "\n".join(p for p in cleaned if p)


def extract_article(tree: Element) -> Article:
    """Headline/body extraction cascade; notes record which rule fired."""
    notes: list[str] = []

    headline = ""
    for el in tree.iter_elements():
        if el.tag == "meta" and el.attrs.get("property", "").lower() == "og:title":
            candidate = _normalize(el.attrs.get("content", ""))
            if candidate:
                headline = candidate
                notes.append("headline: og:title")
                break
    if not headline:
        title = tree.find("title")
        if title is not None:
            candidate = _normalize(title.text())
            if candidate:
                headline = candidate
                notes.append("headline: title")
    if not headline:
        h1 = tree.find("h1")
        if h1 is not None:
            candidate = _normalize(h1.text())
            if candidate:
                headline = candidate
                notes.append("headline: h1")
    if not headline:
        notes.append("no headline source")

    content = ""
    article_el = tree.find("article")
    scope = tree.find("body") or tree
    if article_el is not None:
        inner = article_el.find_all("p")
        if inner:
            content = _paragraphs([p.text() for p in inner])
        else:
            content = _paragraphs([article_el.text()])
        notes.append("content: article")
    else:
        paragraphs = scope.find_all("p")
        if paragraphs:
            content = _paragraphs([p.text() for p in paragraphs])
            notes.append("content: paragraphs")
        else:
            content = _paragraphs([scope.text(exclude=BOILERPLATE_TAGS)])
            notes.append("content: stripped body")
    if not content:
        notes.append("no content source")

    return Article(headline=headline, content=content, extraction_notes=notes)


@dataclass
class WebMarkupFeatures:
    """Counts of tag groups plus the two page-level signals."""

    tag_group_counts: dict[str, int]
    ads_count: int
    author_present: int

    GROUP_ORDER = ("BT", "FT", "FIT", "FRT", "IT", "AVT", "LKT", "LT", "TT", "ST", "MT", "PT")


def _tag_to_group() -> dict[str, str]:
    mapping: dict[str, str] = {}
    for group, tags in resources.tag_groups().items():
        for tag in tags:
            mapping[tag] = group
    return mapping


_TAG2GROUP = _tag_to_group()


def _attr_tokens(el: Element) -> set[str]:
    tokens: set[str] = set()
    for attr in ("id", "class"):
        value = el.attrs.get(attr)
        if value:
            tokens.update(t for t in _TOKEN_SPLIT.split(value.lower()) if t)
    return tokens


def _src_host(el: Element) -> str:
    src = el.attrs.get("src", "")
    if not src:
        return ""
    if src.startswith("//"):
        src = "http:" + src
    host = urlsplit(src).hostname or ""
    return host.lower()


def _host_in_domains(host: str, domains: frozenset[str]) -> bool:
    if not host:
        return False
    return host in domains or any(host.endswith("." + d) for d in domains)


def count_ads(tree: Element, ad_domain_list: frozenset[str] | None = None) -> int:
    """Heuristic advertisement-element count; each element counted once."""
    domains = ad_domain_list if ad_domain_list is not None else resources.ad_domains()
    count = 0
    for el in tree.iter_elements():
        if el.tag in AD_SRC_TAGS and _host_in_domains(_src_host(el), domains):
            count += 1
            continue
        if _attr_tokens(el) & AD_TOKENS:
            count += 1
    return count


def detect_author(tree: Element) -> int:
    """1 iff the page carries any of the pinned author/byline markers."""
    for el in tree.iter_elements():
        if el.tag == "meta":
            name = el.attrs.get("name", "").lower()
            prop = el.attrs.get("property", "").lower()
            if name == "author" or prop == "article:author":
                if el.attrs.get("content", "").strip():
                    return 1
        rel = el.attrs.get("rel", "")
        if rel and "author" in rel.lower().split():
            return 1
        if _attr_tokens(el) & {"byline", "author"} and el.text().strip():
            return 1
    return 0


def markup_features(tree: Element, ad_domain_list: frozenset[str] | None = None) -> WebMarkupFeatures:
    """Count each group-table tag occurrence; tags outside the table count nowhere."""
    counts = {group: 0 for group in WebMarkupFeatures.GROUP_ORDER}
    for el in tree.iter_elements():
        group = _TAG2GROUP.get(el.tag)
        if group is not None:
            counts[group] += 1
    return WebMarkupFeatures(
        tag_group_counts=counts,
        ads_count=count_ads(tree, ad_domain_list),
        author_present=detect_author(tree),
    )
