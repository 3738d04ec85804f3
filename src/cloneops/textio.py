"""Plain-text file formats for operations and relations.

Operation blocks (whitespace separated, `#` starts a comment to end of line):

    op <name>
    domain <k>
    arity <n>
    table <k^n integers>

Relation blocks:

    rel <name>
    domain <k>
    arity <m>
    tuples
    <m integers per line>
    end

Out-of-range values are rejected with an error naming line and column.

All tables and tuple lines are written by one vectorised row formatter,
format_rows.  emit_operations writes a list of Operation objects;
operation_set_blocks writes one arity of an OperationSet straight from its
sorted uint8 table, in blocks of rows, without building an Operation per
member or the whole file as one string.
"""
from __future__ import annotations

from itertools import groupby
from typing import Iterator

import numpy as np

from .core import Domain, Operation, Relation

# Table entries formatted per block of operation_set_blocks.
EMIT_BLOCK_ENTRIES = 1 << 21


class FormatError(ValueError):
    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


class _Tokens:
    """Whitespace tokenizer tracking line/column, with # comments."""

    def __init__(self, text: str):
        self.items: list[tuple[str, int, int]] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            hash_pos = line.find("#")
            if hash_pos >= 0:
                line = line[:hash_pos]
            col = 0
            for part in line.split():
                col = line.index(part, col)
                self.items.append((part, lineno, col + 1))
                col += len(part)
        self.pos = 0

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self, what: str) -> tuple[str, int, int]:
        item = self.peek()
        if item is None:
            last = self.items[-1] if self.items else ("", 1, 1)
            raise FormatError(last[1], last[2], f"unexpected end of input, expected {what}")
        self.pos += 1
        return item

    def expect(self, keyword: str):
        tok, line, col = self.next(f"'{keyword}'")
        if tok != keyword:
            raise FormatError(line, col, f"expected '{keyword}', found '{tok}'")

    def integer(self, what: str, lo: int | None = None, hi: int | None = None) -> int:
        tok, line, col = self.next(what)
        try:
            value = int(tok)
        except ValueError:
            raise FormatError(line, col, f"expected {what}, found '{tok}'") from None
        if lo is not None and value < lo or hi is not None and value >= hi:
            bound = f">= {lo}" if hi is None else f"in 0..{hi - 1}"
            raise FormatError(line, col, f"{what} {value} out of range ({bound})")
        return value


def _parse_header(toks: _Tokens) -> tuple[str, int, int]:
    name, _, _ = toks.next("a name")
    toks.expect("domain")
    k = toks.integer("domain size", lo=2)
    toks.expect("arity")
    arity = toks.integer("arity", lo=1)
    return name, k, arity


def parse_operations(text: str) -> list[tuple[str, Operation]]:
    toks = _Tokens(text)
    out = []
    while toks.peek() is not None:
        toks.expect("op")
        name, k, arity = _parse_header(toks)
        toks.expect("table")
        table = [toks.integer("table entry", lo=0, hi=k) for _ in range(k ** arity)]
        out.append((name, Operation(Domain(k), arity, table)))
    return out


def _parse_relation_block(toks: _Tokens) -> tuple[str, Domain, int, list[tuple[int, ...]]]:
    name, k, arity = _parse_header(toks)
    toks.expect("tuples")
    rows = []
    while True:
        item = toks.peek()
        if item is None:
            raise FormatError(1, 1, "relation block not terminated by 'end'")
        if item[0] == "end":
            toks.next("'end'")
            break
        rows.append(tuple(toks.integer("tuple entry", lo=0, hi=k) for _ in range(arity)))
    return name, Domain(k), arity, rows


def parse_relations(text: str) -> list[tuple[str, Relation]]:
    toks = _Tokens(text)
    out = []
    while toks.peek() is not None:
        toks.expect("rel")
        name, dom, arity, rows = _parse_relation_block(toks)
        out.append((name, Relation(dom, arity, rows)))
    return out


def parse_tuple_lists(text: str) -> list[tuple[str, Domain, list[tuple[int, ...]]]]:
    """Like parse_relations but preserves file order and duplicates of the tuples.

    Used for generating systems, where the order of the tuples fixes the
    variable numbering downstream.
    """
    toks = _Tokens(text)
    out = []
    while toks.peek() is not None:
        toks.expect("rel")
        name, dom, _, rows = _parse_relation_block(toks)
        out.append((name, dom, rows))
    return out


def _value_text(k: int) -> tuple[np.ndarray, np.ndarray]:
    """ASCII text of 0..k-1 and a space (spaced) or a newline (ended), 0-padded."""
    width = len(str(k - 1)) + 1
    spaced = np.zeros((k, width), dtype=np.uint8)
    for v in range(k):
        text = str(v).encode("ascii")
        spaced[v, :len(text) + 1] = np.frombuffer(text + b" ", dtype=np.uint8)
    ended = spaced.copy()
    ended[ended == ord(" ")] = ord("\n")
    return spaced, ended


def format_rows(rows, k: int) -> list[str]:
    """' '.join(map(str, row)) for each row of an integer array over range(k).

    Each entry is looked up as its padded text, the last one of a row
    with a newline in place of the separating space; dropping the padding
    leaves the rows' text as one ASCII buffer.
    """
    rows = np.asarray(rows)
    if rows.shape[0] == 0:
        return []
    spaced, ended = _value_text(k)
    chars = spaced[rows]
    chars[:, -1] = ended[rows[:, -1]]
    chars = chars.ravel()
    return chars[chars != 0].tobytes().decode("ascii").split("\n")[:-1]


def _operation_blocks(names, k: int, arity: int, table_texts) -> str:
    middle = f"\ndomain {k}\narity {arity}\ntable "
    return "".join([f"op {name}{middle}{text}\n" for name, text in zip(names, table_texts)])


def operation_set_blocks(ops, arity: int) -> Iterator[str]:
    """The text emit_operations gives for ops' members of one arity, in blocks.

    Yields the '# count N' line, then the operations g0, g1, ... in table
    order, formatted straight from ops.tables(arity), at most
    EMIT_BLOCK_ENTRIES table entries per block.
    """
    tables = ops.tables(arity)
    k = ops.domain.k
    yield f"# count {len(tables)}\n"
    step = max(1, EMIT_BLOCK_ENTRIES // tables.shape[1])
    for lo in range(0, len(tables), step):
        texts = format_rows(tables[lo:lo + step], k)
        names = (f"g{i}" for i in range(lo, lo + len(texts)))
        yield _operation_blocks(names, k, arity, texts)


def emit_operations(named_ops, count_comment: bool = False) -> str:
    named_ops = list(named_ops)
    parts = [f"# count {len(named_ops)}\n"] if count_comment else []
    for (k, arity), group in groupby(named_ops,
                                     key=lambda pair: (pair[1].domain.k, pair[1].arity)):
        names, group_ops = zip(*group)
        texts = format_rows([op.row for op in group_ops], k)
        parts.append(_operation_blocks(names, k, arity, texts))
    return "".join(parts) or "\n"


def emit_relations(named_rels) -> str:
    parts = []
    for name, rel in named_rels:
        parts.append(f"rel {name}\ndomain {rel.domain.k}\narity {rel.arity}\ntuples\n")
        parts.extend(text + "\n" for text in format_rows(rel.rows, rel.domain.k))
        parts.append("end\n")
    return "".join(parts) or "\n"
