"""HTML parsing, article extraction, and web-markup features."""

from __future__ import annotations

import gc
import html as html_lib
import random
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markup_fixtures import FIXTURES
from markup_reference import _TreeBuilder, reference_parse
from veritag import (
    RawDocument,
    WebMarkupFeatures,
    build_schema,
    count_ads,
    detect_author,
    extract_article,
    extract_document,
    markup_features,
    parse_html,
    resources,
)
from veritag.markup import (
    AD_SRC_TAGS,
    AD_TOKENS,
    BOILERPLATE_TAGS,
    NON_CONTENT_TAGS,
    Document,
    Element,
    _attr_tokens,
    _host_in_domains,
    _normalize,
    _src_host,
    _TAG2GROUP,
)

# every code point str.isspace() accepts, from the running interpreter
_ALL_WHITESPACE = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())


class TestParseHtml:
    def test_builds_tree(self):
        tree = parse_html("<html><body><p>Hi</p></body></html>")
        assert tree.find("p").text() == "Hi"

    def test_never_raises_on_malformed(self):
        for junk in ("<p><b>never closed", "</div>stray end", "<<<>>>", "", "plain text",
                     "<![ x]]>", "<![1", "<![foo[ x"):
            assert isinstance(parse_html(junk), Document)

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

    @pytest.mark.parametrize(
        "body, content",
        [
            ("<p>a<div><p>b</p></div></p>", "ab"),
            ("<p>a<div><p>b</p></div>c</p><p>d</p>", "abc\nd"),
            ("<p>a<span><p>b</span>c</p>", "abc"),
            ("<p>a<div><p>b</div>c</p>d", "abc"),
            ("<p>a<div><p>b<div><p>c", "abc"),
            ("<article><p>a<div><p>b</p></div></p><p>c</p></article>", "ab\nc"),
        ],
        ids=["nested", "nested-then-sibling", "crossed", "crossed-div", "unclosed", "article"],
    )
    def test_nested_paragraph_counted_once(self, body, content):
        # only the outermost paragraph is kept: its text holds the inner one's
        assert extract_article(parse_html(f"<body>{body}</body>")).content == content

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

_TAGS = ("div", "span", "p", "li", "ul", "tr", "td", "th", "table", "b", "br", "img")

_TAG_SOUP = st.lists(
    st.tuples(st.sampled_from(("<%s>", "</%s>", "<%s/>", "x")), st.sampled_from(_TAGS)),
    max_size=60,
).map(lambda parts: "".join(form % tag if "%" in form else form for form, tag in parts))


class TestTraversal:
    def test_iter_elements_matches_recursive_order(self):
        tree = parse_html(_NESTED)
        assert tree.iter_elements() == tree.elements == _recursive_elements(tree)
        for element in tree.elements:
            assert tree.iter_elements(element) == _recursive_elements(element)

    @given(_TAG_SOUP)
    @settings(max_examples=300, deadline=None)
    def test_iter_elements_matches_recursive_order_on_any_markup(self, html):
        tree = parse_html(html)
        assert tree.iter_elements() == _recursive_elements(tree)
        for element in tree.elements:
            assert tree.iter_elements(element) == _recursive_elements(element)
            assert tree.find_all("p", element) == [
                el for el in _recursive_elements(element) if el.tag == "p"
            ]

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

    def test_trees_hold_no_reference_cycles(self):
        # with the cyclic collector off, a dropped tree must be freed by
        # reference counting alone
        gc.collect()
        gc.disable()
        try:
            tree = parse_html(_NESTED + "<div>" * 5_000 + "<p>deep")
            extract_article(tree)
            markup_features(tree)
            del tree
            assert gc.collect() == 0
        finally:
            gc.enable()


class _ScanningBuilder(_TreeBuilder):
    """The tree builder with the full stack scan for every end tag: the
    oracle for the open-element counts that let stray end tags return early."""

    def handle_endtag(self, tag):
        for depth in range(len(self.stack) - 1, 0, -1):
            if self.stack[depth].tag == tag:
                del self.stack[depth:]
                return


def _shape(root):
    """Pre-order (depth, tag, attrs) / (depth, text) list with adjacent text
    merged, built without recursion so 5,000-deep trees compare."""
    out = []
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, str):
            if out and len(out[-1]) == 2 and out[-1][0] == depth:
                out[-1] = (depth, out[-1][1] + node)
            else:
                out.append((depth, node))
            continue
        out.append((depth, node.tag, node.attrs))
        stack.extend((child, depth + 1) for child in reversed(node.children))
    return out


class TestStrayEndTags:
    # A wrong open-element count shows up here: too low and an end tag that
    # should close something is ignored, too high and the closing loop
    # empties the stack.
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
        assert _shape(parse_html(html)) == _shape(reference_parse(html, _ScanningBuilder))

    @given(_TAG_SOUP)
    @settings(max_examples=300, deadline=None)
    def test_random_markup_matches_full_scan(self, html):
        assert _shape(parse_html(html)) == _shape(reference_parse(html, _ScanningBuilder))


class _TailUnescapingBuilder(_TreeBuilder):
    """The reference with the scanner's one intended change of output: a
    bogus start tag after the last '>' is unescaped like the text around it."""

    _in_tail = False

    def parse_starttag(self, i):
        self._in_tail = self.rawdata.find(">", i) < 0
        try:
            return super().parse_starttag(i)
        finally:
            self._in_tail = False

    def handle_data(self, data):
        super().handle_data(html_lib.unescape(data) if self._in_tail else data)


def _assert_parses_like_reference(html):
    try:
        expected = reference_parse(html, _TailUnescapingBuilder)
    except AssertionError:
        # the stdlib crashes on a malformed marked section; the scanner
        # reads it as a bogus comment
        assert isinstance(parse_html(html), Document)
        return
    assert _shape(parse_html(html)) == _shape(expected)


# Pieces of markup that reach every branch of the tokenizer.
_PIECES = (
    "<", "</", "<!--", "-->", "<![", "<?", "<!DOCTYPE", ">", "/>", "=", '"', "'",
    "&amp;", "&#65;", "&", "script", "style", "p", "li", "td", "br", "CDATA", "if",
    "endif", "[", "]", " ", "\n", "\x00", "é",
)

# The inputs whose parse was super-linear before the tail and closer rules.
_PATHOLOGICAL = ('<a b="', "<!--", "<a", "<!--x>", "<![cdata[x>", "<![if x>")


def _bench_hostile_pages():
    from test_bench_contract import WORKLOADS, _load_bench_module

    return _load_bench_module(WORKLOADS)._hostile_pages(random.Random(7))


class TestMatchesStdlibTokenizer:
    @given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
    @example("a<!--b-->c<!-- d -- >e<![CDATA[f]]>g<![cdata[h] ]>i<![if x]>j<![endif]>k<?l>m")
    @example("<p><script>1 < 2 &amp;&lt;p></script>&amp;<style></p></style><p>x")
    @example("a<p\x00b<li>c</li>&amp;<td\x00&amp;'>'<br\x00")
    @settings(max_examples=1500, deadline=None)
    def test_generated_markup(self, html):
        _assert_parses_like_reference(html)

    @pytest.mark.parametrize("fixture", FIXTURES, ids=[f.name for f in FIXTURES])
    def test_fixture_pages(self, fixture):
        _assert_parses_like_reference(fixture.html)

    def test_bench_hostile_pages(self):
        pages = _bench_hostile_pages()
        assert len(pages) == 5
        for page in pages.values():
            _assert_parses_like_reference(page.decode("utf-8", errors="replace"))

    @pytest.mark.parametrize("piece", _PATHOLOGICAL)
    def test_pathological_inputs(self, piece):
        _assert_parses_like_reference(piece * 500)
        _assert_parses_like_reference(piece * 500 + ">")

    def test_script_and_style_text_is_raw(self):
        tree = parse_html("<script>if (a<b && c) { x = '&amp;</p>'; }</script >"
                          "<style>p{}</STYLE>&amp;<script>never closed <p>x</p>")
        scripts = tree.find_all("script")
        assert scripts[0].children == ["if (a<b && c) { x = '&amp;</p>'; }"]
        assert tree.find("style").children == ["p{}"]
        assert scripts[1].children == [] and tree.find("p") is None
        assert tree.text(frozenset()) == "if (a<b && c) { x = '&amp;</p>'; }p{}&"

    def test_attribute_values_are_unescaped(self):
        tree = parse_html("<a href='/x?a=1&amp;b=2' title=\"&lt;&#65;\" data-x=&quot; hidden>t</a>")
        assert tree.find("a").attrs == {
            "href": "/x?a=1&b=2", "title": "<A", "data-x": '"', "hidden": "",
        }

    def test_malformed_marked_section_is_a_bogus_comment(self):
        for html in ("a<![ x]]>b", "a<![1>b", "a<![foo[ x>b"):
            assert parse_html(html).text() == "ab"
        for html in ("<![ x]]>", "<![1", "<![foo[ x"):
            with pytest.raises(AssertionError):
                reference_parse("a" + html)

    def test_bogus_start_tag_after_the_last_gt_is_unescaped(self):
        assert reference_parse("<p&amp;\x00").text() == "<p&amp;\x00"
        assert parse_html("<p&amp;\x00").text() == "<p&\x00"
        # before the last '>' it stays raw, as in the stdlib
        assert parse_html("<p&amp;\x00>").text() == "<p&amp;\x00>"


def _generated_page(parts):
    out = []
    for tag, attrs, text, closed in parts:
        rendered = "".join(f' {name}="{value}"' for name, value in attrs.items())
        out.append(f"<{tag}{rendered}>{text}" + (f"</{tag}>" if closed else ""))
    return "<html><body>" + "".join(out) + "</body></html>"


_ATTRIBUTE_VALUES = {
    "id": st.sampled_from(("ad", "main", "byline", "top-ads")),
    "class": st.sampled_from(("ad-box", "author", "story", "sponsored x", "advertising")),
    "src": st.sampled_from((
        "https://cdn.taboola.com/x.jpg", "//ads.doubleclick.net/f", "https://example.com/a.png",
        "http://[x/a.png", "//[::1", "",
    )),
    "rel": st.sampled_from(("author", "nofollow", "author nofollow")),
    "name": st.sampled_from(("author", "description")),
    "property": st.sampled_from(("og:title", "article:author")),
    "content": st.sampled_from(("Jane Roe", "  ", "")),
}

_GENERATED_PAGES = st.lists(
    st.tuples(
        st.sampled_from(
            ("div", "img", "iframe", "ins", "meta", "a", "link", "span", "p", "script", "style")
        ),
        st.fixed_dictionaries({}, optional=_ATTRIBUTE_VALUES),
        st.sampled_from(("", "By J", " ")),
        st.booleans(),
    ),
    max_size=25,
).map(_generated_page)


def _three_walk_features(tree):
    """Group counts, ads and author each from their own walk over every
    element: the reference for the single pass in ``markup_features``."""
    elements = _recursive_elements(tree)
    counts = dict.fromkeys(WebMarkupFeatures.GROUP_ORDER, 0)
    for el in elements:
        if el.tag in _TAG2GROUP:
            counts[_TAG2GROUP[el.tag]] += 1
    domains = resources.ad_domains()
    ads = 0
    for el in elements:
        if el.tag in AD_SRC_TAGS and _host_in_domains(_src_host(el), domains):
            ads += 1
        elif _attr_tokens(el) & AD_TOKENS:
            ads += 1
    author = 0
    for el in elements:
        if el.tag == "meta":
            name = el.attrs.get("name", "").lower()
            prop = el.attrs.get("property", "").lower()
            if (name == "author" or prop == "article:author") and el.attrs.get("content", "").strip():
                author = 1
        rel = el.attrs.get("rel", "")
        if rel and "author" in rel.lower().split():
            author = 1
        if _attr_tokens(el) & {"byline", "author"} and el.text().strip():
            author = 1
    return counts, ads, author


class TestSinglePassFeatures:
    @given(_GENERATED_PAGES)
    @example('<html><body><img src="https://cdn.taboola.com/x.jpg"><div class="byline">'
             'By J</div></body></html>')
    @settings(max_examples=300, deadline=None)
    def test_matches_three_walks(self, html):
        tree = parse_html(html)
        w = markup_features(tree)
        assert (w.tag_group_counts, w.ads_count, w.author_present) == _three_walk_features(tree)
        assert (count_ads(tree), detect_author(tree)) == (w.ads_count, w.author_present)

    def test_nested_blank_bylines(self):
        # bylines inside a blank byline are not read again (3,000 nested
        # ones took seconds when each walked its whole subtree)
        page = '<div class="byline"> ' * 3_000
        assert markup_features(parse_html(page)).author_present == 0
        assert markup_features(parse_html(page + "By J")).author_present == 1
        # a script inside a blank byline keeps its own raw text
        script = page + '<script class="author">J</script>'
        assert markup_features(parse_html(script)).author_present == 1

    @pytest.mark.parametrize("html", [
        '<body><img src="http://[x/a.png"></body>',
        '<body><iframe src="//[::1"></iframe></body>',
    ])
    def test_unparsable_src_has_no_host(self, html):
        w = markup_features(parse_html(html))
        assert w.ads_count == 0
        assert sum(w.tag_group_counts.values()) >= 1
        tagged = html.replace("<img ", '<img class="ad" ').replace("<iframe ", '<iframe id="ad" ')
        assert markup_features(parse_html(tagged)).ads_count == 1
