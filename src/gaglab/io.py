"""Line-oriented text format for Cayley-table bundles (``.gag`` files).

Grammar, one directive per line, ``#`` starts a comment, blank lines ignored::

    order <n>
    gammas <m>
    labels <t1> ... <tn>     # optional, defaults to 1 .. n
    gamma <name>             # m blocks, each followed by n rows
    <t> <t> ... <t>          # row a, column b gives a<name>b

Every table token must be one of the declared labels.  Output of
``serialize`` is canonical: single spaces, newline-terminated, no comments,
labels line always present.
"""
from __future__ import annotations

from importlib import resources
from pathlib import Path
from typing import Optional

from .core import MAX_ORDER, GammaGroupoid, default_labels


class ParseError(Exception):
    """Rejected document; ``line`` is the 1-based offending physical line."""

    def __init__(self, line: int, message: str,
                 expected: Optional[str] = None, found: Optional[str] = None):
        self.line = line
        self.message = message
        self.expected = expected
        self.found = found
        super().__init__(f"line {line}: {message}")


def _significant_lines(text: str):
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = body.split()
        if tokens:
            out.append((i, tokens))
    return out


class _Cursor:
    def __init__(self, text: str):
        self.lines = _significant_lines(text)
        self.pos = 0
        self.eof_line = text.count("\n") + (0 if text.endswith("\n") or not text else 1) + 1

    def peek(self):
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def take(self, what: str):
        item = self.peek()
        if item is None:
            raise ParseError(self.eof_line, f"unexpected end of document, expected {what}",
                             expected=what)
        self.pos += 1
        return item


def _int_field(lineno, tokens, keyword) -> int:
    if tokens[0] != keyword or len(tokens) != 2:
        raise ParseError(lineno, f"expected '{keyword} <number>'",
                         expected=keyword, found=" ".join(tokens))
    try:
        value = int(tokens[1])
    except ValueError:
        raise ParseError(lineno, f"'{keyword}' needs an integer, got {tokens[1]!r}",
                         expected="integer", found=tokens[1]) from None
    if value < 1:
        raise ParseError(lineno, f"'{keyword}' must be at least 1, got {value}")
    return value


def parse(text: str) -> GammaGroupoid:
    """Parse a document into a structure, raising ParseError with a line number."""
    cur = _Cursor(text)
    lineno, tokens = cur.take("'order <n>'")
    n = _int_field(lineno, tokens, "order")
    if n > MAX_ORDER:
        raise ParseError(lineno, f"carrier size {n} exceeds supported maximum {MAX_ORDER}")
    lineno, tokens = cur.take("'gammas <m>'")
    m = _int_field(lineno, tokens, "gammas")

    labels = None
    item = cur.peek()
    if item is not None and item[1][0] == "labels":
        lineno, tokens = cur.take("labels")
        if len(tokens) != n + 1:
            raise ParseError(lineno, f"'labels' needs exactly {n} names, got {len(tokens) - 1}")
        labels = tuple(tokens[1:])
        if len(set(labels)) != n:
            raise ParseError(lineno, "duplicate element label")
    if labels is None:
        labels = default_labels(n)
    index = {t: i for i, t in enumerate(labels)}

    gamma_names: list[str] = []
    tables = []
    for _ in range(m):
        lineno, tokens = cur.take("'gamma <name>'")
        if tokens[0] == "labels":
            raise ParseError(lineno, "duplicate 'labels' line")
        if tokens[0] != "gamma" or len(tokens) != 2:
            raise ParseError(lineno, "expected 'gamma <name>'",
                             expected="gamma", found=" ".join(tokens))
        name = tokens[1]
        if name in gamma_names:
            raise ParseError(lineno, f"duplicate gamma name {name!r}")
        gamma_names.append(name)
        rows = []
        for r in range(n):
            lineno, tokens = cur.take(f"row {r + 1} of table {name!r}")
            if len(tokens) != n:
                raise ParseError(lineno, f"expected {n} entries in row, got {len(tokens)}")
            row = []
            for t in tokens:
                if t not in index:
                    raise ParseError(lineno, f"unknown label {t!r}",
                                     expected="one of " + " ".join(labels), found=t)
                row.append(index[t])
            rows.append(tuple(row))
        tables.append(tuple(rows))

    extra = cur.peek()
    if extra is not None:
        raise ParseError(extra[0], "expected end of document",
                         found=" ".join(extra[1]))
    try:
        return GammaGroupoid(tuple(tables), labels, tuple(gamma_names))
    except ValueError as exc:
        raise ParseError(1, str(exc)) from exc


def serialize(G: GammaGroupoid) -> str:
    lines = [f"order {G.order}", f"gammas {G.gamma_count}",
             "labels " + " ".join(G.labels)]
    for g, name in enumerate(G.gamma_names):
        lines.append(f"gamma {name}")
        for row in G.tables[g]:
            lines.append(" ".join(G.labels[v] for v in row))
    return "\n".join(lines) + "\n"


def parse_file(path) -> GammaGroupoid:
    return parse(Path(path).read_text(encoding="utf-8"))


def write_file(path, G: GammaGroupoid) -> None:
    Path(path).write_text(serialize(G), encoding="utf-8")


def fixture_path(name: str) -> Path:
    """Path of a fixture shipped with the package (name without the .gag suffix ok)."""
    if not name.endswith(".gag"):
        name += ".gag"
    return Path(str(resources.files(__package__).joinpath("fixtures", name)))


def load_fixture(name: str) -> GammaGroupoid:
    return parse_file(fixture_path(name))
