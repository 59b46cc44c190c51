import io

import pytest
from hypothesis import given

from conftest import hypergraphs
from hypertile import build, load_hg, parse_hg, save_hg, write_hg
from hypertile.errors import FormatError


def test_parse_simple_document():
    text = "3 4\n0 1 2\n0 1 3\n0 2 3\n1 2 3\n"
    g = parse_hg(text)
    assert g.k == 3 and g.n == 4
    assert g.edges == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


def test_parse_accepts_comments_blanks_and_streams():
    text = "# complete graph\n\n3 4\n# body\n0 1 2\n\n1 2 3\n"
    g = parse_hg(io.StringIO(text))
    assert g.edges == ((0, 1, 2), (1, 2, 3))


def test_parse_unsorted_edge_lines():
    g = parse_hg("3 5\n4 0 2\n")
    assert g.edges == ((0, 2, 4),)


def test_write_format_is_stable():
    g = build(3, 4, [(1, 2, 3), (0, 1, 2)])
    assert write_hg(g) == "3 4\n0 1 2\n1 2 3\n"
    assert write_hg(g, comments=["one", "two"]) == (
        "# one\n# two\n3 4\n0 1 2\n1 2 3\n")


def test_write_to_stream():
    g = build(3, 3, [(0, 1, 2)])
    sink = io.StringIO()
    text = write_hg(g, sink)
    assert sink.getvalue() == text == "3 3\n0 1 2\n"


@given(hypergraphs(max_n=7))
def test_round_trip(g):
    assert parse_hg(write_hg(g)) == g


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError, match="line 1"):
        parse_hg("3\n0 1 2\n")
    with pytest.raises(FormatError, match="line 1"):
        parse_hg("x y\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_hg("3 3\n0 1\n")
    with pytest.raises(FormatError, match="line 3"):
        parse_hg("3 4\n0 1 2\n0 1 9\n")
    with pytest.raises(FormatError, match="line 3"):
        parse_hg("3 4\n0 1 2\n2 1 0\n")  # duplicate
    with pytest.raises(FormatError, match="line 2"):
        parse_hg("3 4\n1 1 2\n")  # repeated vertex
    with pytest.raises(FormatError):
        parse_hg("")
    with pytest.raises(FormatError):
        parse_hg("# only a comment\n")


def test_comment_lines_count_toward_numbering():
    with pytest.raises(FormatError, match="line 4"):
        parse_hg("# head\n3 3\n# body\n0 1\n")


def test_load_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "bin.hg"
    path.write_bytes(b"3 3\n0 1 \xff\n")
    with pytest.raises(FormatError, match="not UTF-8"):
        load_hg(str(path))


def test_file_round_trip(tmp_path):
    g = build(3, 5, [(0, 1, 4), (1, 2, 3)])
    path = tmp_path / "g.hg"
    save_hg(g, str(path), comments=["saved"])
    assert load_hg(str(path)) == g
    assert path.read_text().startswith("# saved\n3 5\n")
