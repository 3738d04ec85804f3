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

All tables and tuple lines are written by one vectorised formatter,
_text_block: the text of a block of rows is built as a uint8 matrix, a row
of it per line, each value one unit of its text, with a head in front of
each line (an operation's 'op <name>' ... 'table ' lines).
emit_operations and emit_relations return it decoded as str;
operation_set_blocks writes one arity of an OperationSet from its sorted
row keys, decoding one block of tables at a time, and yields each block as
its ASCII bytes, without building an Operation or a str per member.
"""
from __future__ import annotations

from itertools import groupby
from typing import Iterator

import numpy as np

from .core import Domain, Operation, Relation, _digit_matrix, _key_rows

# Table entries formatted per block of operation_set_blocks: about 1.7 MB of
# text for 27-entry tables.
EMIT_BLOCK_ENTRIES = 1 << 19


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
        if item is None or item[0] == "end":
            toks.expect("end")
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


def _value_units(k: int, sep: str) -> np.ndarray:
    """The text of each of 0..k-1 and sep, zero-padded to a power-of-two
    byte count: a 1-d array of that void type, one unit per value."""
    size = 1 << len(str(k - 1)).bit_length()
    text = b"".join(f"{v}{sep}".encode("ascii").ljust(size, b"\0") for v in range(k))
    return np.frombuffer(text, dtype=np.dtype(f"V{size}"))


def _text_block(rows, k: int, *heads: np.ndarray) -> np.ndarray:
    """heads[0][i] + heads[1][i] + ... + ' '.join(map(str, rows[i])) + '\n'
    for each row, as one flat uint8 array.

    rows is a 2-d integer array over range(k), each head a 2-d uint8 array
    with a row for each of them or one row for all.  Each line is laid out
    in one row of a matrix: the heads, then each entry as one unit holding
    its text, the last with a newline in place of the separating space.
    For k <= 10 a unit is two bytes, the digit and the separator, so the
    units are the entries plus one constant, added at once into the matrix
    read as little-endian uint16.  For k > 10 the texts of the values
    differ in width: each unit is a lookup of its zero-padded text, the
    padding is then dropped, and the heads are kept whole.
    """
    rows = np.asarray(rows)
    spaced, ended = _value_units(k, " "), _value_units(k, "\n")
    lead = sum(head.shape[1] for head in heads)
    mat = np.empty((rows.shape[0], lead + rows.shape[1] * spaced.itemsize), dtype=np.uint8)
    at = 0
    for head in heads:
        mat[:, at:at + head.shape[1]] = head
        at += head.shape[1]
    if k <= 10:
        offsets = np.full(rows.shape[1], ord("0") | ord(" ") << 8, dtype=np.uint16)
        offsets[-1] = ord("0") | ord("\n") << 8
        np.add(rows, offsets, out=mat[:, lead:].view("<u2"), casting="unsafe")
        return mat.reshape(-1)
    text = mat[:, lead:].view(spaced.dtype)
    # fancy indexing casts the indices in chunks; take would copy them all to intp
    text[:, :-1] = spaced[rows[:, :-1]]
    text[:, -1] = ended[rows[:, -1]]
    keep = mat != 0
    keep[:, :lead] = True
    return mat[keep]


def _operation_text(names: np.ndarray, rows, k: int, arity: int) -> np.ndarray:
    """The blocks 'op <name>' ... 'table <row>' of operations of one arity,
    names a (len(rows), L) uint8 array of the names' bytes."""
    after = f"\ndomain {k}\narity {arity}\ntable ".encode("ascii")
    return _text_block(rows, k, np.frombuffer(b"op ", np.uint8)[None, :], names,
                       np.frombuffer(after, np.uint8)[None, :])


def _index_names(lo: int, hi: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """The names g<lo> ... g<hi-1>, cut into runs of one digit count: for
    each run its bounds and a (run length, 1 + digits) uint8 array.

    The names are laid out a thousand at a time: the last three digits are
    one fixed block of 000 ... 999, under the upper digits, which are the
    same for all thousand.
    """
    low = _digit_matrix(3, 10, np.uint8) + ord("0")
    while lo < hi:
        digits = len(str(lo))
        end = min(hi, 10 ** digits)
        first, last = lo // 1000, (end - 1) // 1000 + 1     # the thousands the run spans
        names = np.empty((last - first, 1000, 1 + digits), dtype=np.uint8)
        names[..., 0] = ord("g")
        names[..., max(1, digits - 2):] = low[:, max(0, 3 - digits):]
        if digits > 3:
            powers = 10 ** np.arange(digits - 4, -1, -1, dtype=np.int64)
            upper = np.arange(first, last, dtype=np.int64)[:, None] // powers % 10 + ord("0")
            names[..., 1:digits - 2] = upper[:, None, :]
        yield lo, end, names.reshape(-1, 1 + digits)[lo - first * 1000:end - first * 1000]
        lo = end


def operation_set_blocks(ops, arity: int) -> Iterator[bytes | np.ndarray]:
    """The bytes emit_operations gives for ops' members of one arity, in blocks.

    Yields the '# count N' line, then the operations g0, g1, ... in table
    order, at most EMIT_BLOCK_ENTRIES table entries per block, each block a
    flat uint8 array of ASCII text.  Each block's tables are decoded from
    ops.row_keys(arity) just before they are formatted, so no more than one
    block of tables and its text are built at a time.  A block whose names
    change digit count (g99999, g100000) is yielded as one block per digit
    count.
    """
    keys = ops.row_keys(arity)
    k, width = ops.domain.k, ops.domain.k ** arity
    yield f"# count {len(keys)}\n".encode("ascii")
    step = max(1, EMIT_BLOCK_ENTRIES // width)
    for lo in range(0, len(keys), step):
        hi = min(lo + step, len(keys))
        rows = _key_rows(keys[lo:hi], k, width)
        for a, b, names in _index_names(lo, hi):
            yield _operation_text(names, rows[a - lo:b - lo], k, arity)
        del rows


def emit_operations(named_ops, count_comment: bool = False) -> str:
    named_ops = [(name.encode("utf-8"), op) for name, op in named_ops]
    parts = [f"# count {len(named_ops)}\n".encode("ascii")] if count_comment else []
    # one run per length of the names, so that their bytes form a matrix
    for (k, arity, width), group in groupby(
            named_ops, key=lambda pair: (pair[1].domain.k, pair[1].arity, len(pair[0]))):
        names, group_ops = zip(*group)
        names = np.frombuffer(b"".join(names), np.uint8).reshape(len(names), width)
        parts.append(_operation_text(names, [op.row for op in group_ops], k, arity))
    return b"".join(parts).decode("utf-8") or "\n"


def emit_relations(named_rels) -> str:
    parts = []
    for name, rel in named_rels:
        parts.append(f"rel {name}\ndomain {rel.domain.k}\narity {rel.arity}\ntuples\n")
        parts.append(str(_text_block(rel.rows, rel.domain.k), "ascii"))
        parts.append("end\n")
    return "".join(parts) or "\n"
