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

All tables and tuple lines are written by one vectorised formatter: each
line is a fixed-width record, a row of a uint8 matrix, holding its head (an
operation's 'op <name>' ... 'table ' lines) and then its entries, written a
chunk of entries at a time.  A chunk of c entries over range(k), where c
is the most with k^c <= CHUNK_TEXTS, takes its text from a constant table
of the text of all k^c chunks (_chunk_texts), picked by the chunk's value:
a remainder of the row's base-k number, or a Horner pass over the chunk's
columns.  For k > 10 each value's text is zero-padded to the width of
k - 1's and the padding is dropped once the records are filled.
operation_blocks and relation_blocks format rows and yield the text in
blocks of at most EMIT_BLOCK_ENTRIES entries, so a writer holds one block
at a time; emit_operations and emit_relations return it joined, as str.
operation_set_blocks writes one arity of an OperationSet straight from its
sorted row keys, the names' digits picked in the same way from a table of
000 ... 999: a block of records at a time, into one buffer the job reuses,
without decoding a table or building an Operation or a str per member.
"""
from __future__ import annotations

from functools import cache
from itertools import groupby
from typing import Iterator

import numpy as np

from .core import Domain, Operation, Relation, _digit_matrix

# Table entries formatted per block of operation_set_blocks: about 210 kB of
# records for 27-entry tables, so the buffer and the block's temporaries
# stay well under 1 MiB (2^16 also wrote the {T, u} slice faster than 2^15
# or 2^17 on a 2-core Xeon VM).
EMIT_BLOCK_ENTRIES = 1 << 16
# The most texts in a chunk table: c entries with k^c <= CHUNK_TEXTS (and at
# least one) form a chunk.  Kept small, as the tables stay in a job's memory:
# 30 kB for k = 3, where tables of 2^16 texts, 1.2 MB each, wrote faster but
# raised the {T, u} job's peak RSS.
CHUNK_TEXTS = 4096


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


def _chunk_entries(k: int) -> int:
    """The entries of a chunk over range(k): the most c with k^c <= CHUNK_TEXTS, at least 1."""
    c = 1
    while k ** (c + 1) <= CHUNK_TEXTS:
        c += 1
    return c


def _entry_width(k: int, sep: bytes = b" ") -> int:
    """The bytes an entry over range(k) and its separator take in a record."""
    return len(str(k - 1)) + len(sep)


@cache
def _chunk_texts(k: int, entries: int, sep: bytes, end: bytes) -> np.ndarray:
    """The text of each row of `entries` values over range(k), in table
    order: each value followed by sep, the last by end (of sep's length),
    zero-padded to _entry_width(k, sep) bytes per value.  A read-only 1-d
    array of k^entries void scalars, one text each."""
    units = np.zeros((2, k, _entry_width(k, sep)), dtype=np.uint8)
    for v in range(k):
        for unit, after in zip(units, (sep, end)):
            text = str(v).encode("ascii") + after
            unit[v, :len(text)] = np.frombuffer(text, np.uint8)
    digits = _digit_matrix(entries, k, np.intp)
    texts = np.empty((len(digits), entries, units.shape[2]), dtype=np.uint8)
    texts[:, :-1] = units[0][digits[:, :-1]]
    texts[:, -1] = units[1][digits[:, -1]]
    texts = texts.reshape(len(digits), -1).view(f"V{entries * units.shape[2]}").reshape(-1)
    texts.setflags(write=False)
    return texts


def _put_entries(records: np.ndarray, at: int, values: np.ndarray, k: int, entries: int,
                 sep: bytes = b" ", end: bytes = b"\n") -> None:
    """Write the text of rows of `entries` values over range(k), one row per
    record, into records[:, at:at + entries * _entry_width(k, sep)].

    values holds the rows, as a 2-d integer array, or their base-k numbers,
    as a 1-d one.  The entries are cut into chunks of _chunk_entries(k)
    from the last one, so only the first chunk may be short, and each
    chunk's value picks its text from _chunk_texts.  Chunks of one width
    and ending are read together, from the last: the last chunk, the full
    ones before it, the short first one.  A number's chunks are its
    remainders; a row's come from one Horner pass over the c columns of its
    chunks.
    """
    size, unit = _chunk_entries(k), _entry_width(k, sep)
    last = entries - min(size, entries)
    short = last % size
    for lo, hi, after in ((last, entries, end), (short, last, sep), (0, short, sep)):
        if lo == hi:
            continue
        width = min(size, hi - lo)
        if values.ndim == 2:
            columns = values[:, lo:hi].reshape(len(values), -1, width)
            chunks = columns[..., 0].astype(np.intp)
            for t in range(1, width):
                chunks *= k
                chunks += columns[..., t]
        else:
            chunks = np.empty((len(values), (hi - lo) // width), dtype=values.dtype)
            for j in range(chunks.shape[1] - 1, -1, -1):
                if not lo + j:      # the first chunk: what is left of the number
                    chunks[:, j] = values
                    break
                # a floor division by a constant is several times faster than % in numpy
                rest = values // k ** width
                chunks[:, j] = values - rest * k ** width
                values = rest
        texts = _chunk_texts(k, width, sep, after)
        # gathered as void scalars, one per text: a take of whole texts is
        # several times faster than indexing a matrix of their bytes
        records[:, at + lo * unit:at + hi * unit].view(texts.dtype)[...] = np.take(texts, chunks)


def _flat_text(records: np.ndarray, lead: int, k: int) -> np.ndarray:
    """The records as one flat uint8 array of text: for k > 10 without the
    zero padding of the entries, which start at column lead."""
    if k <= 10:
        return records.reshape(-1)
    keep = records != 0
    keep[:, :lead] = True
    return records[keep]


def _text_blocks(rows, k: int, *heads: np.ndarray) -> Iterator[np.ndarray]:
    """heads[0][i] + heads[1][i] + ... + ' '.join(map(str, rows[i])) + '\n'
    for each row, as flat uint8 arrays, one per block of rows of at most
    EMIT_BLOCK_ENTRIES entries (or of one row).

    rows is a 2-d integer array over range(k), each head a 2-d uint8 array
    with a row for each of them or one row for all.  Each line is one
    record: the heads, then the entries written by _put_entries.
    """
    rows = np.asarray(rows)
    lead = sum(head.shape[1] for head in heads)
    step = max(1, EMIT_BLOCK_ENTRIES // rows.shape[1])
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        records = np.empty((len(block), lead + rows.shape[1] * _entry_width(k)),
                           dtype=np.uint8)
        at = 0
        for head in heads:
            records[:, at:at + head.shape[1]] = head[start:start + step] if len(head) > 1 else head
            at += head.shape[1]
        _put_entries(records, lead, block, k, rows.shape[1])
        yield _flat_text(records, lead, k)


def _after_name(k: int, arity: int) -> np.ndarray:
    """The bytes between an operation's name and its table entries,
    '\ndomain k\narity n\ntable ', as a uint8 array."""
    return np.frombuffer(f"\ndomain {k}\narity {arity}\ntable ".encode("ascii"), np.uint8)


def operation_set_blocks(ops, arity: int) -> Iterator[bytes | np.ndarray]:
    """The bytes emit_operations gives for ops' members of one arity, in blocks.

    Yields the '# count N' line, then the operations g0, g1, ... in table
    order, at most EMIT_BLOCK_ENTRIES table entries per block, each block a
    flat uint8 array of ASCII text.  Each block is formatted straight from
    ops.row_keys(arity) into records of one buffer, allocated once and sized
    for the longest names; the records of each name length are a view of
    it.  So a block is valid only until the next one is asked for.  A block
    whose names change digit count (g99999, g100000) is yielded as one block
    per digit count.
    """
    keys = ops.row_keys(arity)
    k, width = ops.domain.k, ops.domain.k ** arity
    yield f"# count {len(keys)}\n".encode("ascii")
    if keys.dtype.kind == "V":
        keys = keys.view(np.uint8).reshape(len(keys), width)   # a byte key is its table
    before, after = np.frombuffer(b"op g", np.uint8), _after_name(k, arity)
    table = width * _entry_width(k)
    step = max(1, EMIT_BLOCK_ENTRIES // width)
    longest = len(str(max(len(keys) - 1, 0)))
    buffer = np.empty(min(step, len(keys)) * (len(before) + longest + len(after) + table),
                      dtype=np.uint8)
    digits = 0
    for lo in range(0, len(keys), step):
        hi = min(lo + step, len(keys))
        while lo < hi:
            if len(str(lo)) != digits:
                digits = len(str(lo))
                lead = len(before) + digits + len(after)
                records = buffer[:len(buffer) // (lead + table) * (lead + table)]
                records = records.reshape(-1, lead + table)
                records[:, :len(before)] = before
                records[:, lead - len(after):lead] = after
            end = min(hi, 10 ** digits)
            block = records[:end - lo]
            _put_entries(block, len(before), np.arange(lo, end), 10, digits, b"", b"")
            _put_entries(block, lead, keys[lo:end], k, width)
            yield _flat_text(block, lead, k)
            lo = end


def operation_blocks(named_ops, count_comment: bool = False) -> Iterator[bytes | np.ndarray]:
    """The text of emit_operations as blocks of UTF-8 bytes, each a bytes
    object or a flat uint8 array, at most EMIT_BLOCK_ENTRIES table entries
    (or one table) per block."""
    named_ops = [(name.encode("utf-8"), op) for name, op in named_ops]
    if count_comment:
        yield f"# count {len(named_ops)}\n".encode("ascii")
    # one run per length of the names, so that their bytes form a matrix
    for (k, arity, width), group in groupby(
            named_ops, key=lambda pair: (pair[1].domain.k, pair[1].arity, len(pair[0]))):
        names, group_ops = zip(*group)
        names = np.frombuffer(b"".join(names), np.uint8).reshape(len(names), width)
        yield from _text_blocks([op.row for op in group_ops], k,
                                np.frombuffer(b"op ", np.uint8)[None, :], names,
                                _after_name(k, arity)[None, :])


def relation_blocks(named_rels) -> Iterator[bytes | np.ndarray]:
    """The text of emit_relations as blocks of UTF-8 bytes, each a bytes
    object or a flat uint8 array, at most EMIT_BLOCK_ENTRIES tuple entries
    (or one tuple) per block."""
    for name, rel in named_rels:
        yield (f"rel {name}\ndomain {rel.domain.k}\narity {rel.arity}\ntuples\n"
               .encode("utf-8"))
        yield from _text_blocks(rel.rows, rel.domain.k)
        yield b"end\n"


def emit_operations(named_ops, count_comment: bool = False) -> str:
    return b"".join(operation_blocks(named_ops, count_comment)).decode("utf-8") or "\n"


def emit_relations(named_rels) -> str:
    return b"".join(relation_blocks(named_rels)).decode("utf-8") or "\n"
