"""Plain-text hypergraph serialization.

Format: first significant line is "k n", then one edge per line as k
whitespace-separated vertex ids in 0..n-1. Blank lines are skipped and #
starts a comment (full-line or trailing). Writers emit the canonical sorted
edge order, one space between ids, and end with a newline.
"""

from __future__ import annotations

import io
from typing import Iterable, TextIO

from .core import Hypergraph, build
from .errors import FormatError


def _significant(raw: str) -> str:
    return raw.split("#", 1)[0].strip()


def parse_hg(source: str | TextIO) -> Hypergraph:
    """Parse the text format; raises FormatError with the offending line.

    After the header, `build` reads the edge lines one at a time, each
    checked as it is read, so no list of the edges is kept beside the graph.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    numbered = enumerate(source, start=1)
    lineno = 0
    for lineno, raw in numbered:
        text = _significant(raw)
        if text:
            break
    else:
        raise FormatError("empty input: missing 'k n' header", line=lineno or 1)
    fields = text.split()
    if len(fields) != 2:
        raise FormatError(f"header must be two integers 'k n', got {text!r}", line=lineno)
    try:
        k, n = (int(f) for f in fields)
    except ValueError:
        raise FormatError(f"header must be two integers 'k n', got {text!r}",
                          line=lineno) from None
    if k < 2:
        raise FormatError(f"uniformity must be at least 2, got {k}", line=lineno)
    if n < 0:
        raise FormatError(f"vertex count must be nonnegative, got {n}", line=lineno)

    def edges():
        seen: set[tuple[int, ...]] = set()
        for lineno, raw in numbered:
            text = _significant(raw)
            if not text:
                continue
            fields = text.split()
            if len(fields) != k:
                raise FormatError(
                    f"expected {k} vertex ids, got {len(fields)}", line=lineno)
            try:
                verts = [int(f) for f in fields]
            except ValueError:
                raise FormatError(f"vertex ids must be integers, got {text!r}",
                                  line=lineno) from None
            for v in verts:
                if v < 0 or v >= n:
                    raise FormatError(f"vertex {v} out of range 0..{n - 1}", line=lineno)
            edge = tuple(sorted(verts))
            if len(set(edge)) != k:
                raise FormatError(f"repeated vertex in edge {text!r}", line=lineno)
            if edge in seen:
                raise FormatError(f"duplicate edge {text!r}", line=lineno)
            seen.add(edge)
            yield edge

    return build(k, n, edges())


def write_hg(graph: Hypergraph, sink: TextIO | None = None,
             comments: Iterable[str] = ()) -> str:
    """Serialize to the text format; returns the text and writes to sink if given."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"{graph.k} {graph.n}")
    lines.extend(" ".join(str(v) for v in e) for e in graph.edges)
    text = "\n".join(lines) + "\n"
    if sink is not None:
        sink.write(text)
    return text


def load_hg(path: str) -> Hypergraph:
    """Read a hypergraph from a file path; text that is not UTF-8 is a FormatError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_hg(fh)
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text: {exc.reason}") from None


def save_hg(graph: Hypergraph, path: str, comments: Iterable[str] = ()) -> None:
    """Write a hypergraph to a file path."""
    with open(path, "w", encoding="utf-8") as fh:
        write_hg(graph, fh, comments=comments)
