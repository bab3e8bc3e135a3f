"""HTML parsing, headline/body extraction, and web-markup layout features.

``parse_html`` is a lenient, stack-based tree builder: it never fails on
malformed markup, lowercases tag names, ignores stray end tags, and applies
a minimal auto-close table (an open ``<p>`` is closed by the next ``<p>``,
etc.). Non-UTF-8 input is decoded with replacement characters.

The tokenizer is one function-level scanner that builds the tree and a
document-order element index in the same pass. It follows the rules of
CPython 3.11.7's ``html.parser`` for ``feed(text); close()`` with
``convert_charrefs=True``: the same branch order at each ``<``, the same
start-tag, attribute, end-tag and script/style raw-text rules, and the same
end-of-input fallback for an incomplete construct. The patterns it needs are
pinned below, so the tree does not move with the interpreter's own
``html.parser``, whose handling of unterminated markup later security
releases changed. Adjacent text may be split differently than the stdlib
splits it, which ``Element.text`` cannot see. Three departures replace a
crash or a super-linear parse:

- a ``<![`` followed by a non-name or an unknown keyword (``<![ x]]>``) is
  a bogus comment ending at the next ``>``, as ``<!x>`` is; the stdlib
  raises ``AssertionError`` there;
- no element can start after the last ``>``, so the rest of the page is one
  text run (dropped inside script/style, as before); the stdlib rescans it
  from every ``<``. A bogus ``<name...`` in that tail is now unescaped with
  the text around it;
- a closer search (``-->``, ``]]>``, ``]>``) that failed also fails from every
  later position, so it is not repeated.

``parse_html`` returns a ``Document`` whose ``elements`` list holds every
element in document order; an element's descendants are the slice
``elements[index + 1:end]``. Elements never point back at their parent or
the document, so a tree holds no reference cycles and is freed as soon as
it is dropped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html import unescape
from urllib.parse import urlsplit

from . import resources
from .errors import ConfigError

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
AUTHOR_TOKENS = frozenset({"byline", "author"})

_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")

# Patterns pinned from CPython 3.11.7 html/parser.py and _markupbase.py.
_STARTTAG_END = re.compile(r"""
  <[a-zA-Z][^\t\n\r\f />\x00]*       # tag name
  (?:[\s/]*                          # optional whitespace before attribute name
    (?:(?<=['"\s/])[^\s/>][^\s/=>]*  # attribute name
      (?:\s*=+\s*                    # value indicator
        (?:'[^']*'                   # LITA-enclosed value
          |"[^"]*"                   # LIT-enclosed value
          |(?!['"])[^>\s]*           # bare value
         )
        \s*                          # possibly followed by a space
       )?(?:\s|/(?!>))*
     )*
   )?
  \s*                                # trailing whitespace
""", re.VERBOSE)
_TAG_NAME = re.compile(r"([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*")
_ATTR = re.compile(
    r"((?<=['\"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*"
    r"('[^']*'|\"[^\"]*\"|(?!['\"])[^>\s]*))?(?:\s|/(?!>))*")
_END_TAG = re.compile(r"</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>")
_COMMENT_CLOSE = re.compile(r"--\s*>")
_MARKED_SECTION_CLOSE = re.compile(r"]\s*]\s*>")
_MS_MARKED_SECTION_CLOSE = re.compile(r"]\s*>")
_DECL_NAME = re.compile(r"[a-zA-Z][-_.a-zA-Z0-9]*\s*")
# A start tag without attributes: what the three patterns above make of it,
# in one match.
_PLAIN_START_TAG = re.compile(r"<([a-zA-Z][^\t\n\r\f />\x00]*)>")

_ASCII_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
# After the scannable part of a start tag, one of these means the tag is
# cut short (inside or before an attribute value), not bogus.
_START_TAG_CUT = _ASCII_LETTERS | {"=", "/", ""}
# Marked-section keywords and the closer each one waits for.
_MARKED_SECTIONS = {
    **dict.fromkeys(("temp", "cdata", "ignore", "include", "rcdata"), _MARKED_SECTION_CLOSE),
    **dict.fromkeys(("if", "else", "endif"), _MS_MARKED_SECTION_CLOSE),
}
# Elements whose content is raw text up to their own end tag.
_RAW_TEXT_END = {
    tag: re.compile(r"</\s*%s\s*>" % tag, re.I) for tag in ("script", "style")
}

DOCUMENT_TAG = "[document]"


class Element:
    """One element node. ``children`` holds child Elements and text strings.

    ``index`` is the element's place in its document's ``elements`` list and
    ``end`` the length of that list when the element closed, so its
    descendants are ``elements[index + 1:end]``.
    """

    __slots__ = ("tag", "attrs", "children", "index", "end")

    def __init__(self, tag: str, attrs: dict[str, str] | None = None, index: int = 0):
        self.tag = tag
        self.attrs = attrs if attrs is not None else {}
        self.children: list[Element | str] = []
        self.index = index
        self.end = index + 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Element {self.tag} children={len(self.children)}>"

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


class Document(Element):
    """The root of a parsed page, with every element in document order."""

    __slots__ = ("elements",)

    def __init__(self) -> None:
        super().__init__(DOCUMENT_TAG, index=-1)
        self.elements: list[Element] = []

    def iter_elements(self, within: Element | None = None) -> list[Element]:
        """Descendants of ``within`` (default: the whole page) in document order."""
        scope = self if within is None else within
        return self.elements[scope.index + 1:scope.end]

    def find_all(self, tag: str, within: Element | None = None) -> list[Element]:
        return [el for el in self.iter_elements(within) if el.tag == tag]

    def find(self, tag: str, within: Element | None = None) -> Element | None:
        for el in self.iter_elements(within):
            if el.tag == tag:
                return el
        return None


def parse_html(data: bytes | str) -> Document:
    """Parse arbitrary HTML bytes into an element tree. Never raises."""
    if isinstance(data, bytes):
        text = data.decode("utf-8", errors="replace")
    else:
        text = data
    if text.startswith("﻿"):
        text = text[1:]

    document = Document()
    elements = document.elements
    stack: list[Element] = [document]
    children = document.children
    # Open elements per tag name, so an end tag that closes nothing returns
    # without scanning the stack.
    open_counts: dict[str, int] = {}
    find = text.find
    n = len(text)
    # Every construct needs a '>', so nothing but text follows the last one.
    last_gt = text.rfind(">")
    # Where each closer search failed; it fails from any later start too.
    closer_failed = {_COMMENT_CLOSE: n, _MARKED_SECTION_CLOSE: n, _MS_MARKED_SECTION_CLOSE: n}
    pos = 0  # start of the text not yet added to the tree
    i = 0  # where the search for the next '<' resumes

    def close_to(tag: str) -> None:
        # Close up to and including the nearest open element of this tag.
        nonlocal children
        while True:
            closed = stack.pop()
            closed.end = len(elements)
            open_counts[closed.tag] -= 1
            if closed.tag == tag:
                break
        children = stack[-1].children

    while True:
        j = find("<", i)
        if j < 0 or j > last_gt:
            break
        # Find where the construct at j ends; from here on a '>' exists at
        # or after j + 2. An incomplete construct is text through that '>'.
        c = text[j + 1]
        if c in _ASCII_LETTERS:
            m = _PLAIN_START_TAG.match(text, j)
            if m is not None:
                endpos = m.end()
                tag = m.group(1).lower()
                attrs: dict[str, str] = {}
                close = ">"
            else:
                endpos = _start_tag_end(text, j)
                if endpos < 0:
                    i = find(">", j + 1) + 1
                    continue
                tag, attrs, close = _start_tag_parts(text, j, endpos)
        elif c == "/":
            m = _END_TAG.match(text, j)
            if m is not None:
                endpos = m.end()
            else:
                endpos = find(">", j + 1) + 1
                m = _TAG_NAME.match(text, j + 2)  # None for '</>' and bogus comments
            tag = m.group(1).lower() if m is not None else ""
        elif text.startswith("<!--", j):
            endpos = _closer_end(_COMMENT_CLOSE, text, j + 4, closer_failed)
            if endpos < 0:
                i = find(">", j + 1) + 1
                continue
        elif c == "!" and text.startswith("[", j + 2):
            m = _DECL_NAME.match(text, j + 3)
            closer = _MARKED_SECTIONS.get(m.group().strip().lower()) if m else None
            if closer is None:
                endpos = find(">", j + 2) + 1  # read as a bogus comment
            else:
                endpos = _closer_end(closer, text, j + 3, closer_failed)
                if endpos < 0:
                    i = find(">", j + 1) + 1
                    continue
        elif c == "!" or c == "?":
            endpos = find(">", j + 2) + 1  # doctype, bogus comment or processing instruction
        else:
            i = j + 1  # a lone '<' is text
            continue

        if pos < j:
            run = text[pos:j]
            children.append(unescape(run) if "&" in run else run)
        pos = i = endpos
        if c == "/":
            if open_counts.get(tag):
                close_to(tag)
            continue
        if c not in _ASCII_LETTERS:
            continue
        if close != ">" and close != "/>":
            children.append(text[j:endpos])  # bogus start tag: raw text
            continue
        element = Element(tag, attrs, len(elements))
        if close == "/>":
            elements.append(element)
            children.append(element)
            continue
        closers = AUTOCLOSE.get(tag)
        if closers:
            while len(stack) > 1 and stack[-1].tag in closers:
                closed = stack.pop()
                closed.end = len(elements)
                open_counts[closed.tag] -= 1
            children = stack[-1].children
        elements.append(element)
        children.append(element)
        if tag in VOID_ELEMENTS:
            continue
        stack.append(element)
        children = element.children
        open_counts[tag] = open_counts.get(tag, 0) + 1
        raw_end = _RAW_TEXT_END.get(tag)
        if raw_end is not None:
            m = raw_end.search(text, i)
            if m is None:
                pos = n  # unterminated script/style: the rest is dropped
                break
            if i < m.start():
                children.append(text[i:m.start()])
            close_to(tag)
            pos = i = m.end()

    if pos < n:
        run = text[pos:]
        children.append(unescape(run) if "&" in run else run)
    for element in stack:
        element.end = len(elements)
    return document


def _start_tag_end(text: str, start: int) -> int:
    """End of the start tag at ``start``, or -1 if it is cut short."""
    end = _STARTTAG_END.match(text, start).end()
    after = text[end:end + 1]
    if after == ">":
        return end + 1
    if after == "/" and text.startswith("/>", end):
        return end + 2
    if after in _START_TAG_CUT:
        return -1
    return end  # bogus: kept as raw text


def _start_tag_parts(text: str, start: int, end: int) -> tuple[str, dict[str, str], str]:
    """Tag name, attributes and closing mark of the start tag text[start:end]."""
    m = _TAG_NAME.match(text, start + 1)
    tag = m.group(1).lower()
    k = m.end()
    attrs: dict[str, str] = {}
    while k < end:
        m = _ATTR.match(text, k)
        if not m:
            break
        name, rest, value = m.group(1, 2, 3)
        if not rest:
            value = ""
        elif value[:1] == "'" == value[-1:] or value[:1] == '"' == value[-1:]:
            value = value[1:-1]
        if "&" in value:
            value = unescape(value)
        name = name.lower()
        if name not in attrs:  # first occurrence wins, as in browsers
            attrs[name] = value
        k = m.end()
    return tag, attrs, text[k:end].strip()


def _closer_end(pattern: re.Pattern, text: str, start: int, failed: dict) -> int:
    """End of the first closer match at or after ``start``, else -1."""
    if start >= failed[pattern]:
        return -1
    m = pattern.search(text, start)
    if m is None:
        failed[pattern] = start
        return -1
    return m.end()


@dataclass
class Article:
    """Extracted headline and body text of one page."""

    headline: str
    content: str
    extraction_notes: list[str] = field(default_factory=list)


def granularity_text(article: Article, granularity: str) -> str:
    if granularity == "H":
        return article.headline
    if granularity == "C":
        return article.content
    if granularity == "HC":
        return article.headline + "\n" + article.content
    raise ConfigError(f"invalid granularity {granularity!r}")


def _normalize(text: str) -> str:
    return " ".join(text.split())


def _paragraphs(parts: list[str]) -> str:
    cleaned = [_normalize(p) for p in parts]
    return "\n".join(p for p in cleaned if p)


def _outermost(paragraphs: list[Element]) -> list[Element]:
    """Drop each paragraph nested inside an earlier one, whose text the
    outer paragraph's text already holds."""
    kept: list[Element] = []
    for p in paragraphs:
        if not kept or p.index >= kept[-1].end:
            kept.append(p)
    return kept


def extract_article(tree: Document) -> Article:
    """Headline/body extraction cascade; notes record which rule fired."""
    notes: list[str] = []

    headline = ""
    for el in tree.find_all("meta"):
        if el.attrs.get("property", "").lower() == "og:title":
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
    if article_el is not None:
        inner = _outermost(tree.find_all("p", article_el))
        if inner:
            content = _paragraphs([p.text() for p in inner])
        else:
            content = _paragraphs([article_el.text()])
        notes.append("content: article")
    else:
        scope = tree.find("body") or tree
        paragraphs = _outermost(tree.find_all("p", scope))
        if paragraphs:
            content = _paragraphs([p.text() for p in paragraphs])
            notes.append("content: paragraphs")
        else:
            content = _paragraphs([scope.text(exclude=BOILERPLATE_TAGS)])
            notes.append("content: stripped body")
    if not content:
        notes.append("no content source")

    return Article(headline=headline, content=content, extraction_notes=notes)


# Schema order of the web-markup group: the tag-group counts, then the ad
# count and whether an author marker is present (0 or 1).
MARKUP_FEATURES: tuple[str, ...] = (
    "BT", "FT", "FIT", "FRT", "IT", "AVT", "LKT", "LT", "TT", "ST", "MT", "PT", "ADS", "AU",
)


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
    try:
        host = urlsplit(src).hostname or ""
    except ValueError:  # e.g. an unclosed IPv6 bracket: no usable host
        return ""
    return host.lower()


def _host_in_domains(host: str, domains: frozenset[str]) -> bool:
    if not host:
        return False
    return host in domains or any(host.endswith("." + d) for d in domains)


def _is_ad(el: Element, domains: frozenset[str]) -> bool:
    if el.tag in AD_SRC_TAGS and _host_in_domains(_src_host(el), domains):
        return True
    return bool(_attr_tokens(el) & AD_TOKENS)


def _is_author_tag(el: Element) -> bool:
    """A meta author or rel=author marker; a byline also needs its text."""
    attrs = el.attrs
    if el.tag == "meta":
        name = attrs.get("name", "").lower()
        prop = attrs.get("property", "").lower()
        if name == "author" or prop == "article:author":
            if attrs.get("content", "").strip():
                return True
    rel = attrs.get("rel", "")
    return bool(rel) and "author" in rel.lower().split()


def markup_features(
    tree: Document, ad_domain_list: frozenset[str] | None = None
) -> dict[str, float]:
    """The web-markup group's values, keyed by MARKUP_FEATURES in order.
    Each group-table tag occurrence counts toward its group; tags outside
    the table count nowhere."""
    domains = ad_domain_list if ad_domain_list is not None else resources.ad_domains()
    values = dict.fromkeys(MARKUP_FEATURES, 0.0)
    ads = author = 0
    # Elements before this index lie inside a byline whose text is blank, so
    # their own text is blank too, except script/style, whose raw text the
    # byline's text leaves out. Skipping them keeps nested bylines linear.
    blank_until = 0
    for el in tree.elements:
        group = _TAG2GROUP.get(el.tag)
        if group is not None:
            values[group] += 1
        # an element without attributes is neither an ad nor an author marker
        if not el.attrs:
            continue
        ads += _is_ad(el, domains)
        if author:
            continue
        if _is_author_tag(el):
            author = 1
        elif _attr_tokens(el) & AUTHOR_TOKENS and (
            el.index >= blank_until or el.tag in NON_CONTENT_TAGS
        ):
            if el.text().strip():
                author = 1
            elif el.tag not in NON_CONTENT_TAGS:
                blank_until = el.end
    values["ADS"] = float(ads)
    values["AU"] = float(author)
    return values
