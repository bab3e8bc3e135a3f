"""The stdlib-based tree builder that ``veritag.markup.parse_html`` replaced.

It runs CPython's ``html.parser`` tokenizer and builds the tree with the
same stack rules as the package's scanner, so the tests use it as the
reference the scanner's trees are compared with.
"""

from __future__ import annotations

from collections import defaultdict
from html.parser import HTMLParser

from veritag.markup import AUTOCLOSE, DOCUMENT_TAG, VOID_ELEMENTS, Element


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


def reference_parse(data: bytes | str, builder_class: type[_TreeBuilder] = _TreeBuilder) -> Element:
    """The tree the replaced ``parse_html`` built for ``data``."""
    text = data.decode("utf-8", errors="replace") if isinstance(data, bytes) else data
    if text.startswith("﻿"):
        text = text[1:]
    builder = builder_class()
    builder.feed(text)
    builder.close()
    return builder.root
