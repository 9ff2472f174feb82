from __future__ import annotations

import gzip
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tristream import (
    EdgeList,
    ParseError,
    load_edge_list,
    make_edge,
    parse_edge_text,
    serialize_edge_list,
    shuffle_stream,
)
from tristream.edgelist import _CHUNK

from conftest import TOY_TEXT
from reference import reference_normalize_edges, reference_parse_edge_text


def test_parse_toy_graph():
    edges = parse_edge_text(TOY_TEXT)
    assert edges.node_count == 11
    assert edges.edge_count == 13


def test_parse_empty_input():
    edges = parse_edge_text("")
    assert edges.node_count == 0
    assert edges.edge_count == 0


def test_parse_drops_self_loops_and_duplicates():
    edges = parse_edge_text("3 3\n1 2\n2 1\n")
    assert edges.node_count == 2
    assert edges.edge_count == 1
    assert edges.edges == (make_edge(1, 2),)


def test_parse_preserves_first_occurrence_order():
    edges = parse_edge_text("5 4\n2 1\n4 5\n1 3\n")
    assert edges.edges == (make_edge(4, 5), make_edge(1, 2), make_edge(1, 3))


def test_parse_comments_and_trailing_tokens():
    text = "# snap header\n% konect header\n1 2 0.5 1234567\n  2 3\n\n"
    edges = parse_edge_text(text)
    assert edges.edge_count == 2


def test_parse_error_names_line_number():
    with pytest.raises(ParseError) as excinfo:
        parse_edge_text("1 2\nfoo bar\n")
    assert excinfo.value.line_number == 2
    assert "line 2" in str(excinfo.value)


def test_parse_error_on_negative_id():
    with pytest.raises(ParseError) as excinfo:
        parse_edge_text("1 2\n3 -4\n")
    assert excinfo.value.line_number == 2


def test_parse_error_on_single_token_line():
    with pytest.raises(ParseError):
        parse_edge_text("1\n")


def test_parse_gzip_detected_by_magic_bytes(tmp_path):
    path = tmp_path / "toy.txt"  # no .gz suffix: the magic bytes decide
    path.write_bytes(gzip.compress(TOY_TEXT.encode()))
    assert load_edge_list(path).edge_count == 13


def test_load_edge_list_plain_and_gzip(tmp_path):
    plain = tmp_path / "g.txt"
    plain.write_text(TOY_TEXT)
    packed = tmp_path / "g.txt.gz"
    packed.write_bytes(gzip.compress(TOY_TEXT.encode()))
    assert load_edge_list(plain) == load_edge_list(packed)


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("pack", [bytes, gzip.compress], ids=["plain", "gzip"])
def test_load_skips_byte_order_mark(tmp_path, pack):
    path = tmp_path / "bom.txt"
    path.write_bytes(pack(BOM + b"1 2\n2 3\n3 1\n"))
    assert load_edge_list(path) == parse_edge_text("1 2\n2 3\n3 1\n")


def test_non_utf8_line_counts_after_byte_order_mark(tmp_path):
    path = tmp_path / "bom.txt"
    path.write_bytes(BOM + b"1 2\n3 \xff4\n")
    with pytest.raises(ParseError) as excinfo:
        load_edge_list(path)
    assert excinfo.value.line_number == 2
    assert str(excinfo.value) == "line 2: not UTF-8 text"


def test_serialize_canonical_and_newline_terminated():
    edges = parse_edge_text("2 1\n3 2\n")
    assert serialize_edge_list(edges) == "1 2\n2 3\n"


@st.composite
def edge_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    return draw(
        st.lists(
            st.tuples(st.integers(0, n), st.integers(0, n)),
            max_size=40,
        )
    )


@given(edge_pairs())
@settings(max_examples=100, deadline=None)
def test_parse_orients_like_normalize_edges(pairs):
    # edge_pairs() draws self-loops and repeats in both orientations.
    text = "".join(f"{a} {b}\n" for a, b in pairs)
    assert parse_edge_text(text) == EdgeList(reference_normalize_edges(pairs))


@given(edge_pairs())
@settings(max_examples=60, deadline=None)
def test_parse_serialize_fixed_point(pairs):
    text = "".join(f"{a} {b}\n" for a, b in pairs)
    once = parse_edge_text(text)
    twice = parse_edge_text(serialize_edge_list(once))
    assert once == twice


LINE_BREAKS = ("\r", "\r\n", "\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028")

# Noise mixes digits (one non-ASCII, which int() reads), the sign and
# underscore characters int() accepts in places, blanks (two non-ASCII ones
# that are no line break), comment marks and line breaks that
# str.splitlines and str.split each treat their own way.
NOISE = ("0", "1", "7", "\u0663", "-", "+", "_", " ", "\t", "\u00a0", "\u3000", "#",
         "%") + LINE_BREAKS
pair_line = st.builds("{} {}".format, st.integers(0, 3), st.integers(0, 3))  # repeats, loops
noise_line = st.lists(st.sampled_from(NOISE), max_size=6).map("".join)
# Pairs three lines in four, so that many whole texts parse.
edge_line = st.integers(0, 3).flatmap(lambda pick: noise_line if pick == 0 else pair_line)
edge_text = st.lists(
    st.tuples(edge_line, st.sampled_from(LINE_BREAKS)).map("".join), max_size=12
).map("".join)


def pair_lines(length):
    """Edge lines of exactly ``length`` characters in all, each ending in a newline."""
    return "1 2\n" * (length // 4 - 1) + "3 4" + " " * (length % 4) + "\n"


# Texts over two chunks long.  The first puts "\r\n" at _CHUNK, so that a
# chunk ending before its "\n" would add a blank line.
CRLF_AT_CHUNK = pair_lines(_CHUNK - 4) + "5 6\r\n" + pair_lines(_CHUNK + 100)
# A "\x85" at _CHUNK and a U+2028 after it, both mid-chunk for the parser.
BREAKS_AT_CHUNK = (pair_lines(_CHUNK - 3) + "1 3\x852 4\u20285 7\n"
                   + pair_lines(_CHUNK + 10) + "3 5")
# A bad line in the last chunk, numbered after every boundary before it.
BAD_LINE_IN_LAST_CHUNK = CRLF_AT_CHUNK + "7 x\n8 9\n"


def test_parse_holds_one_chunk_of_lines_at_a_time():
    # One repeated edge, so the dedup dict and the result stay tiny and the
    # peak is the chunk's split lines: ~16 bytes a character (a short str
    # and its list slot), ~12 MB if the whole text were split at once.
    text = "1 2\n" * 200_000
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        edge_list = parse_edge_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert edge_list.edges == ((1, 2),)
    assert peak - held < 32 * _CHUNK


def parse_outcome(parse, source):
    """The EdgeList, or the line number and message of the ParseError."""
    try:
        return parse(source)
    except ParseError as err:
        return err.line_number, str(err)


@pytest.fixture(scope="module")
def text_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("edge-text")


@given(text=edge_text)
@example(text="1 2\r3 4\r\n5 6\x853 1\u2028# 9 9\x0c% x\n\u0663 1_0\n")
@example(text="1 2\n+3 -4\n")
@example(text=CRLF_AT_CHUNK)
@example(text=BREAKS_AT_CHUNK)
@example(text=BAD_LINE_IN_LAST_CHUNK)
@settings(max_examples=300, deadline=None)
def test_parser_matches_two_pass_reference(text_dir, text):
    expected = parse_outcome(reference_parse_edge_text, text)
    assert parse_outcome(parse_edge_text, text) == expected
    plain, packed = text_dir / "g.txt", text_dir / "g.txt.gz"
    plain.write_bytes(text.encode())
    packed.write_bytes(gzip.compress(text.encode()))
    assert parse_outcome(load_edge_list, plain) == expected
    assert parse_outcome(load_edge_list, packed) == expected


@given(edge_pairs(), st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=60, deadline=None)
def test_shuffle_is_permutation(pairs, seed):
    edges = EdgeList(reference_normalize_edges(pairs))
    shuffled = shuffle_stream(edges, seed)
    assert Counter(shuffled.edges) == Counter(edges.edges)
    assert shuffled.node_count == edges.node_count


@given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=2**64 - 1))
@example(0, 7)
@example(1, 7)
# Lengths at the edges of the power-of-two segments of the draw width.
@example(2, 7)
@example(3, 7)
@example(4, 7)
@example(5, 7)
@example(8, 7)
@example(9, 7)
@example(256, 7)
@example(257, 7)
@settings(max_examples=100, deadline=None)
def test_shuffle_equals_stdlib_shuffle(length, seed):
    edges = EdgeList(tuple((node, node + 1) for node in range(length)))
    order = list(edges.edges)
    random.Random(seed).shuffle(order)
    assert shuffle_stream(edges, seed).edges == tuple(order)


def test_shuffle_empty_and_singleton():
    empty = EdgeList(())
    assert shuffle_stream(empty, 7) == empty
    single = EdgeList((make_edge(1, 2),))
    assert shuffle_stream(single, 7) == single


def test_shuffle_deterministic_per_seed():
    edges = parse_edge_text(TOY_TEXT)
    assert shuffle_stream(edges, 1234).edges == shuffle_stream(edges, 1234).edges
    assert shuffle_stream(edges, 1234).edges != shuffle_stream(edges, 1235).edges


def test_shuffle_input_unmodified():
    edges = parse_edge_text(TOY_TEXT)
    before = edges.edges
    shuffle_stream(edges, 99)
    assert edges.edges == before


def test_shuffle_uniform_over_three_edge_orders():
    edges = EdgeList((make_edge(1, 2), make_edge(3, 4), make_edge(5, 6)))
    counts: Counter = Counter()
    trials = 10_000
    for seed in range(trials):
        counts[shuffle_stream(edges, seed).edges] += 1
    assert len(counts) == 6
    for order, count in counts.items():
        assert abs(count / trials - 1 / 6) <= 0.02, (order, count)
