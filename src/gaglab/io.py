"""Line-oriented text format for Cayley-table bundles (``.gag`` files).

Grammar, one directive per line, ``#`` starts a comment, blank lines ignored::

    order <n>
    gammas <m>
    labels <t1> ... <tn>     # optional, defaults to 1 .. n
    gamma <name>             # m blocks, each followed by n rows
    <t> <t> ... <t>          # row a, column b gives a<name>b

Every table token must be one of the declared labels.  ``parse`` reads the
lines in one pass and refuses a document at its first bad line: only the
lines up to that one are split into tokens.  Output of ``serialize`` is
canonical: single spaces, newline-terminated, no comments, labels line always
present.
"""
from __future__ import annotations

from importlib import resources
from pathlib import Path

from .core import MAX_ORDER, GammaGroupoid, default_labels


class ParseError(Exception):
    """Rejected document; ``line`` is the 1-based offending physical line."""

    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


def _int_field(lineno, tokens, keyword) -> int:
    if tokens[0] != keyword or len(tokens) != 2:
        raise ParseError(lineno, f"expected '{keyword} <number>'")
    try:
        value = int(tokens[1])
    except ValueError:
        raise ParseError(lineno, f"'{keyword}' needs an integer, got {tokens[1]!r}") from None
    if value < 1:
        raise ParseError(lineno, f"'{keyword}' must be at least 1, got {value}")
    return value


def parse(text: str) -> GammaGroupoid:
    """Parse a document into a structure, raising ParseError with a line number."""
    physical = text.splitlines()  # lines are numbered as splitlines counts them
    lines = ((i, raw.split("#", 1)[0].split()) for i, raw in enumerate(physical, start=1))

    def take(what: str):
        for lineno, tokens in lines:
            if tokens:
                return lineno, tokens
        raise ParseError(len(physical) + 1, f"unexpected end of document, expected {what}")

    lineno, tokens = take("'order <n>'")
    n = _int_field(lineno, tokens, "order")
    if n > MAX_ORDER:
        raise ParseError(lineno, f"carrier size {n} exceeds supported maximum {MAX_ORDER}")
    lineno, tokens = take("'gammas <m>'")
    m = _int_field(lineno, tokens, "gammas")

    lineno, tokens = take("'gamma <name>'")
    has_labels = tokens[0] == "labels"
    if has_labels:
        if len(tokens) != n + 1:
            raise ParseError(lineno, f"'labels' needs exactly {n} names, got {len(tokens) - 1}")
        labels = tuple(tokens[1:])
        if len(set(labels)) != n:
            raise ParseError(lineno, "duplicate element label")
        lineno, tokens = take("'gamma <name>'")
    else:
        labels = default_labels(n)
    index = {t: i for i, t in enumerate(labels)}

    gamma_names: dict[str, None] = {}  # a dict keeps the order and checks names in O(1)
    tables = []
    for g in range(m):
        if g:
            lineno, tokens = take("'gamma <name>'")
        if tokens[0] == "labels":
            raise ParseError(lineno, "duplicate 'labels' line" if has_labels
                             else "'labels' must come right after 'gammas'")
        if tokens[0] != "gamma" or len(tokens) != 2:
            raise ParseError(lineno, "expected 'gamma <name>'")
        name = tokens[1]
        if name in gamma_names:
            raise ParseError(lineno, f"duplicate gamma name {name!r}")
        gamma_names[name] = None
        rows = []
        for r in range(n):
            lineno, tokens = take(f"row {r + 1} of table {name!r}")
            if len(tokens) != n:
                raise ParseError(lineno, f"expected {n} entries in row, got {len(tokens)}")
            row = []
            for t in tokens:
                if t not in index:
                    raise ParseError(lineno, f"unknown label {t!r}")
                row.append(index[t])
            rows.append(tuple(row))
        tables.append(tuple(rows))

    for lineno, tokens in lines:
        if tokens:
            raise ParseError(lineno, "expected end of document")
    # each check of GammaGroupoid.__post_init__ is made above, on the tokens
    return GammaGroupoid._trusted(tuple(tables), labels, tuple(gamma_names))


def serialize(G: GammaGroupoid) -> str:
    lines = [f"order {G.order}", f"gammas {G.gamma_count}",
             "labels " + " ".join(G.labels)]
    for g, name in enumerate(G.gamma_names):
        lines.append(f"gamma {name}")
        for row in G.tables[g]:
            lines.append(" ".join(G.labels[v] for v in row))
    return "\n".join(lines) + "\n"


def parse_file(path) -> GammaGroupoid:
    return parse(Path(path).read_text(encoding="utf-8-sig"))


def write_file(path, G: GammaGroupoid) -> None:
    Path(path).write_text(serialize(G), encoding="utf-8")


def fixture_path(name: str) -> Path:
    """Path of a fixture shipped with the package (name without the .gag suffix ok)."""
    if not name.endswith(".gag"):
        name += ".gag"
    return Path(str(resources.files(__package__).joinpath("fixtures", name)))


def load_fixture(name: str) -> GammaGroupoid:
    return parse_file(fixture_path(name))
