"""HTML parsing, article extraction, and web-markup features."""

from __future__ import annotations

import re
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markup_fixtures import FIXTURES
from veritag import (
    RawDocument,
    build_schema,
    count_ads,
    detect_author,
    extract_article,
    extract_document,
    markup_features,
    parse_html,
)
from veritag.markup import BOILERPLATE_TAGS, NON_CONTENT_TAGS, Element, _normalize, _TreeBuilder

# every code point str.isspace() accepts, from the running interpreter
_ALL_WHITESPACE = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())


class TestParseHtml:
    def test_builds_tree(self):
        tree = parse_html("<html><body><p>Hi</p></body></html>")
        assert tree.find("p").text() == "Hi"

    def test_never_raises_on_malformed(self):
        for junk in ("<p><b>never closed", "</div>stray end", "<<<>>>", "", "plain text"):
            parse_html(junk)

    def test_stray_end_tag_ignored(self):
        tree = parse_html("<body></div><p>ok</p></body>")
        assert tree.find("p").text() == "ok"

    def test_paragraph_autoclose(self):
        tree = parse_html("<body><p>one<p>two</body>")
        paragraphs = tree.find_all("p")
        assert [p.text() for p in paragraphs] == ["one", "two"]

    def test_list_item_autoclose(self):
        tree = parse_html("<ul><li>a<li>b</ul>")
        assert [li.text() for li in tree.find_all("li")] == ["a", "b"]

    def test_bad_bytes_replaced(self):
        tree = parse_html(b"<p>caf\xff</p>")
        assert tree.find("p") is not None

    def test_lowercases_tags(self):
        tree = parse_html("<HTML><BODY><P>x</P></BODY></HTML>")
        assert tree.find("p") is not None

    def test_script_text_excluded_from_text(self):
        tree = parse_html("<body><script>var x;</script><p>real</p></body>")
        assert "var x" not in tree.text()
        assert "real" in tree.text()

    def test_duplicate_attr_first_wins(self):
        tree = parse_html('<p class="a" class="b">x</p>')
        assert tree.find("p").attrs["class"] == "a"


class TestExtractArticle:
    def test_og_title_wins(self):
        html = (
            '<html><head><meta property="og:title" content="OG Headline">'
            "<title>Title Tag</title></head><body><h1>H1 Headline</h1>"
            "<p>Body</p></body></html>"
        )
        assert extract_article(parse_html(html)).headline == "OG Headline"

    def test_title_fallback(self):
        html = "<html><head><title>Title Tag</title></head><body><h1>H1</h1></body></html>"
        assert extract_article(parse_html(html)).headline == "Title Tag"

    def test_h1_fallback(self):
        html = "<html><body><h1>Only H1</h1><p>Body</p></body></html>"
        assert extract_article(parse_html(html)).headline == "Only H1"

    def test_article_paragraphs_preferred(self):
        html = (
            "<html><body><p>outside</p>"
            "<article><p>inside one</p><p>inside two</p></article></body></html>"
        )
        article = extract_article(parse_html(html))
        assert article.content == "inside one\ninside two"

    def test_body_paragraphs_without_article(self):
        html = "<html><body><p>one</p><div><p>two</p></div></body></html>"
        assert extract_article(parse_html(html)).content == "one\ntwo"

    def test_stripped_body_last_resort(self):
        html = (
            "<html><body><nav>menu</nav><div>bare text</div>"
            "<footer>foot</footer><script>x()</script></body></html>"
        )
        article = extract_article(parse_html(html))
        assert "bare text" in article.content
        assert "menu" not in article.content
        assert "foot" not in article.content

    def test_whitespace_normalized(self):
        html = "<html><body><article><p>a \n  b\t c</p></article></body></html>"
        assert extract_article(parse_html(html)).content == "a b c"

    def test_normalize_matches_the_whitespace_regex(self):
        # split() and strip() cut at str.isspace(), the regex at \s: both
        # must be the same code points, and the look-alikes zero-width
        # space and BOM must stay inside words
        assert len(_ALL_WHITESPACE) >= 25
        for text in (
            _ALL_WHITESPACE + "a" + _ALL_WHITESPACE,
            "".join(f"w{c}x\u200b{c}{c}é\ufeff" for c in _ALL_WHITESPACE),
            "\u200b lead \ufeff\u200b",
            "",
            "plain",
        ):
            assert _normalize(text) == re.sub(r"\s+", " ", text).strip()

    @given(st.text(alphabet=st.sampled_from(_ALL_WHITESPACE + "ab\u200b\ufeff")))
    @settings(max_examples=200, deadline=None)
    def test_normalize_matches_the_whitespace_regex_on_any_mix(self, text):
        assert _normalize(text) == re.sub(r"\s+", " ", text).strip()

    def test_notes_name_the_rules(self):
        html = "<html><body><h1>H</h1><p>B</p></body></html>"
        notes = extract_article(parse_html(html)).extraction_notes
        assert "headline: h1" in notes
        assert "content: paragraphs" in notes


class TestMarkupFixtures:
    @pytest.mark.parametrize("fixture", FIXTURES, ids=[f.name for f in FIXTURES])
    def test_hand_counts(self, fixture):
        w = markup_features(parse_html(fixture.html))
        assert w.tag_group_counts == fixture.groups
        assert w.ads_count == fixture.ads
        assert w.author_present == fixture.author


class TestCountAds:
    def test_subdomain_suffix_match(self):
        html = '<body><img src="https://static.cdn.taboola.com/x.jpg"></body>'
        assert count_ads(parse_html(html)) == 1

    def test_bare_domain_match(self):
        html = '<body><iframe src="https://doubleclick.net/f"></iframe></body>'
        assert count_ads(parse_html(html)) == 1

    def test_lookalike_domain_not_matched(self):
        html = '<body><img src="https://nottaboola.com/x.jpg"></body>'
        assert count_ads(parse_html(html)) == 0

    def test_token_requires_exact_word(self):
        assert count_ads(parse_html('<body><div class="advertising">x</div></body>')) == 0
        assert count_ads(parse_html('<body><div class="advert">x</div></body>')) == 1

    def test_src_only_counts_for_embed_tags(self):
        # an anchor href to an ad domain is not an ad element
        html = '<body><a href="https://doubleclick.net/x">link</a></body>'
        assert count_ads(parse_html(html)) == 0

    def test_custom_domain_list(self):
        html = '<body><img src="https://ads.custom.example/x"></body>'
        assert count_ads(parse_html(html), frozenset({"custom.example"})) == 1

    def test_element_counted_once(self):
        # ad src AND ad class: still a single element
        html = '<body><img class="ad" src="https://cdn.taboola.com/x.jpg"></body>'
        assert count_ads(parse_html(html)) == 1


class TestDetectAuthor:
    def test_meta_author(self):
        html = '<head><meta name="author" content="Jane Roe"></head>'
        assert detect_author(parse_html(html)) == 1

    def test_meta_author_empty_content_ignored(self):
        html = '<head><meta name="author" content="  "></head>'
        assert detect_author(parse_html(html)) == 0

    def test_article_author_property(self):
        html = '<head><meta property="article:author" content="Jane"></head>'
        assert detect_author(parse_html(html)) == 1

    def test_rel_author(self):
        html = '<body><a rel="author nofollow" href="/a">J</a></body>'
        assert detect_author(parse_html(html)) == 1

    def test_byline_class_needs_text(self):
        assert detect_author(parse_html('<body><div class="byline">By J</div></body>')) == 1
        assert detect_author(parse_html('<body><div class="byline"></div></body>')) == 0

    def test_no_markers(self):
        assert detect_author(parse_html("<body><p>plain</p></body>")) == 0


class TestGranularityIndependence:
    @pytest.mark.parametrize("fixture", FIXTURES, ids=[f.name for f in FIXTURES])
    def test_w_features_identical_across_granularities(self, fixture):
        doc = RawDocument(
            id="fx-1",
            url="https://news.example/a",
            site="news.example",
            label="reliable",
            year=2016,
            html=fixture.html.encode(),
        )
        rows = {}
        for granularity in ("H", "C", "HC"):
            schema = build_schema(granularity, ("W",))
            vector = extract_document(doc, schema)
            rows[granularity] = dict(zip(schema.names, vector.values))
        assert rows["H"] == rows["C"] == rows["HC"]


def _recursive_elements(element):
    """Depth-first pre-order by recursion: the oracle for ``iter_elements``."""
    out = []
    for child in element.children:
        if isinstance(child, Element):
            out.append(child)
            out.extend(_recursive_elements(child))
    return out


def _recursive_text(element, exclude):
    parts = []
    for child in element.children:
        if isinstance(child, str):
            parts.append(child)
        elif child.tag not in exclude:
            parts.append(_recursive_text(child, exclude))
    return "".join(parts)


_NESTED = (
    "<html><head><title>T</title><script>x()</script></head><body>"
    "<div id=a><p>one <b>bold <i>it</i></b> tail<p>two</p>"
    "<ul><li>a<li>b<ul><li>c</ul></ul><nav>menu <a href=x>link</a></nav></div>"
    "loose<div><span>s</span><br><style>p{}</style>end</div><footer>f</footer></body></html>"
)


class TestTraversal:
    def test_iter_elements_matches_recursive_order(self):
        tree = parse_html(_NESTED)
        for element in [tree] + _recursive_elements(tree):
            assert list(element.iter_elements()) == _recursive_elements(element)

    @pytest.mark.parametrize("exclude", [NON_CONTENT_TAGS, BOILERPLATE_TAGS, frozenset()])
    def test_text_matches_recursive(self, exclude):
        tree = parse_html(_NESTED)
        for element in [tree] + _recursive_elements(tree):
            assert element.text(exclude) == _recursive_text(element, exclude)

    def test_ten_thousand_deep_page_extracts(self, demo_dictionary):
        html = (
            "<html><body>" + "<div>" * 10_000
            + "<p>The vote ended quickly. Residents asked about the budget.</p></body></html>"
        )
        doc = RawDocument(
            id="deep-1", url="https://news.example/deep", site="news.example",
            label="reliable", year=2016, html=html.encode(),
        )
        schema = build_schema("HC", ("N", "L", "R", "W"), demo_dictionary)
        vector = extract_document(doc, schema, demo_dictionary)
        assert np.all(np.isfinite(vector.values))
        features = dict(zip(schema.names, vector.values))
        assert (features["R.W"], features["R.STC"]) == (9.0, 2.0)


class _ScanningBuilder(_TreeBuilder):
    """The tree builder with the full stack scan for every end tag: the
    oracle for the open-element counts that let stray end tags return early."""

    def handle_endtag(self, tag):
        for depth in range(len(self.stack) - 1, 0, -1):
            if self.stack[depth].tag == tag:
                del self.stack[depth:]
                return


def _scanning_parse(text):
    builder = _ScanningBuilder()
    builder.feed(text)
    builder.close()
    return builder.root


def _assert_counts_match_stack(text):
    builder = _TreeBuilder()
    builder.feed(text)
    builder.close()
    counts = {tag: n for tag, n in builder.open_counts.items() if n}
    assert counts == Counter(el.tag for el in builder.stack[1:])


def _shape(root):
    """Pre-order (depth, tag, attrs) / (depth, text) list, built without
    recursion so 5,000-deep trees compare."""
    out = []
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, str):
            out.append((depth, node))
            continue
        out.append((depth, node.tag, node.attrs))
        stack.extend((child, depth + 1) for child in reversed(node.children))
    return out


_TAGS = ("div", "span", "p", "li", "ul", "tr", "td", "th", "table", "b", "br", "img")


class TestStrayEndTags:
    @pytest.mark.parametrize(
        "html",
        [
            _NESTED,
            "<div><span>a</div>b</span>c</div>",
            "<p>one<p>two</b></p></p><li>x<li>y</ul></li>",
            "<table><tr><td>a<td>b<tr><th>c</td></tr></table></tr>",
            "</div></span><div><div><span><div></span>t</div></div></div></div>",
            "<ul><li>a<ul><li>b</li></ul></li><li>c</ul></li></ul>",
            "<div>" * 5_000 + "</span>" * 2_000 + "text</div>",
        ],
        ids=["nested", "crossed", "autoclose", "table", "leading-stray", "lists", "deep-stray"],
    )
    def test_tree_matches_full_scan(self, html):
        assert _shape(parse_html(html)) == _shape(_scanning_parse(html))
        _assert_counts_match_stack(html)

    @given(
        st.lists(
            st.tuples(st.sampled_from(("<%s>", "</%s>", "<%s/>", "x")), st.sampled_from(_TAGS)),
            max_size=60,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_random_markup_matches_full_scan(self, parts):
        html = "".join(form % tag if "%" in form else form for form, tag in parts)
        assert _shape(parse_html(html)) == _shape(_scanning_parse(html))
        _assert_counts_match_stack(html)
