"""Preservation, commutation and exhaustive centraliser/polymorphism enumeration.

g commutes with f exactly when g preserves the graph of f.  The sweep
kernel `preserve_mask` filters a batch of candidate value tables against a
relation, constraint by constraint (a choice of ell tuples of the relation)
in lexicographic order, checking blocks of constraints at once and dropping
dead candidates as it goes; it is the vectorised form of the early-abort
scalar checks `preserves` and `commutes`.

Every search runs one driver: blocks of candidates, each a `_Grid`, pass
through one filter per member or relation, each filter turning a grid into
a list of grids.  The survivors leave the grids as the `core._row_keys` of
their tables, added up from per-row and per-filling keys without building
a table.  `OperationSet._of_keys` sorts those keys in place and keeps
them as the result; its tables are decoded only when asked for, and
`textio` writes the result straight from the keys, a block at a time.  A
polymorphism search sweeps each relation.  A centraliser search decides
each member by the exact test `_member_test` picks for it once: cell by
cell for unary members, by pattern counting for
{0,1}-valued members with at most three ones, and by sweeping its graph
otherwise.  Unary and binary candidates are all k^(k^ell) tables, in
flat chunks.  Ternary candidates are not: every one is a
diagonal-compatible triple of binary centraliser members (its three
identification minors fix the k^3 - k(k-1)(k-2) base cells) together
with one filling of the pairwise-distinct free cells, kept in that
factored form, a `_Grid` of triples by fillings with a mask of the pairs
still live.  Per-triple and per-filling columns broadcast over the grid;
the unary test joins the equations that mix the two axes into
sub-grids, and pattern counts are matrix products of per-triple and
per-filling factors, read at the live pairs.  No step builds arrays over
more than CANDIDATE_BLOCK pairs of a grid at a time.

Candidate and member tables are uint8 rows in the encoding of `core`,
which also holds their container, `OperationSet`.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import product
from math import prod

import numpy as np

from .core import (_BLOCK_ENTRIES, CapExceeded, Domain, Operation, OperationSet,
                   Relation, _digit_matrix, _isin_sorted, _key_weights, _key_width,
                   _row_keys, args_to_index, check_table_entries, graph_of, index_to_args,
                   sparse_op)

DEFAULT_BUDGET = 250_000_000
CANDIDATE_BLOCK = 200_000   # the most grid pairs a step builds per-candidate arrays for


@dataclass
class EnumerationStats:
    candidates: int
    survivors: int
    details: dict = field(default_factory=dict)


def preserves(op: Operation, rel: Relation) -> bool:
    """True iff applying op componentwise to any n tuples of rel stays in rel."""
    if op.domain != rel.domain:
        raise ValueError("operation and relation domains differ")
    k = op.domain.k
    table = op.table
    members = rel._set
    for choice in product(rel.tuples, repeat=op.arity):
        image = tuple(table[args_to_index([r[i] for r in choice], k)]
                      for i in range(rel.arity))
        if image not in members:
            return False
    return True


def commutes(g: Operation, f: Operation) -> bool:
    """True iff g(f(rows)) = f(g(columns)) for every m-by-n argument matrix.

    Matrices are visited in lexicographic (row-major) order and the first
    counterexample aborts the scan.
    """
    if g.domain != f.domain:
        raise ValueError("operation domains differ")
    k = g.domain.k
    m, n = g.arity, f.arity
    gt, ft = g.table, f.table
    for mat in product(range(k), repeat=m * n):
        lhs_idx = 0
        for i in range(m):
            lhs_idx = lhs_idx * k + ft[args_to_index(mat[i * n:(i + 1) * n], k)]
        rhs_idx = 0
        for j in range(n):
            col = 0
            for i in range(m):
                col = col * k + mat[i * n + j]
            rhs_idx = rhs_idx * k + gt[col]
        if gt[lhs_idx] != ft[rhs_idx]:
            return False
    return True


def family_op(family: str, params, domain: Domain) -> Operation:
    """Named operation families used throughout the centraliser computations.

    u     -- unary, params (j, a): sends j to a, everything else to 0
    z     -- binary over k=3, params (a,): value a at (2,2), else 0
    fam   -- binary over k=3, params (a, (b,c,d,e)): values on the border
             around (2,2); all nonzero values must agree and (b,c,d,e) != 0
    delta -- binary over k=3, params (pair,): 1 at the given distinct pair
    """
    k = domain.k
    if family == "u":
        j, a = params
        if j in (0, 1) or not 0 <= j < k:
            raise ValueError(f"u-family index must lie in 2..{k - 1}, got {j}")
        if not 0 <= a < k:
            raise ValueError(f"u-family value {a} out of range")
        return sparse_op(domain, 1, {(j,): a})
    if family == "z":
        (a,) = params if isinstance(params, (tuple, list)) else (params,)
        if k != 3:
            raise ValueError("z-family is defined over the 3-element domain")
        if not 0 <= a < 3:
            raise ValueError(f"z-family value {a} out of range")
        return sparse_op(domain, 2, {(2, 2): a})
    if family == "fam":
        a, edges = params
        if k != 3:
            raise ValueError("fam-family is defined over the 3-element domain")
        b, c, d, e = edges
        nonzero = {v for v in (a, b, c, d, e) if v != 0}
        if len(nonzero) > 1 or nonzero - {1, 2}:
            raise ValueError(f"fam-family values must lie in {{0, c}} for one c in {{1,2}}")
        if (b, c, d, e) == (0, 0, 0, 0):
            raise ValueError("fam-family edge values must not all be zero")
        return sparse_op(domain, 2, {(0, 2): b, (1, 2): c, (2, 0): d, (2, 1): e, (2, 2): a})
    if family == "delta":
        (pair,) = params if len(params) == 1 else (tuple(params),)
        pair = tuple(pair)
        if k != 3:
            raise ValueError("delta-family is defined over the 3-element domain")
        if len(pair) != 2 or pair[0] == pair[1]:
            raise ValueError(f"delta-family point must be a distinct-entry pair, got {pair}")
        return sparse_op(domain, 2, {pair: 1})
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# vectorised kernels


def all_tables(domain: Domain, arity: int) -> np.ndarray:
    """All k^(k^arity) value tables, one per row, in lexicographic order."""
    width = domain.k ** arity
    return _digit_matrix(width, domain.k, np.uint8)


def preserve_mask(tables: np.ndarray, rel: Relation, ell: int) -> np.ndarray:
    """Boolean mask over candidate ell-ary tables that preserve rel.

    Each constraint is a choice of ell tuples of rel; they are checked in
    lexicographic order, as many at once as keep the gathered block near
    _BLOCK_ENTRIES values.  Dead candidates are dropped once the values
    gathered since the last drop outnumber the live table entries.  Raises
    CapExceeded, before the constraints are built, when their index tables
    would exceed TABLE_ENTRY_CAP entries.
    """
    k = rel.domain.k
    m = rel.arity
    s = len(rel)
    total = len(tables)
    if s == 0:
        return np.ones(total, dtype=bool)
    check_table_entries(s ** ell * max(ell, m), f"the index of the {s ** ell} choices of "
                        f"{ell} tuples from a {s}-tuple relation")
    tup = rel.rows.astype(np.int64)                     # (s, m)
    choices = _digit_matrix(ell, s)                     # selection index per slot
    # componentwise argument index: for coordinate i, sum_j r_j[i] * k^(ell-1-j)
    arg_idx = np.zeros((s ** ell, m), dtype=np.int64)
    for j in range(ell):
        arg_idx = arg_idx * k + tup[choices[:, j], :]
    in_rel = np.zeros(k ** m, dtype=bool)
    enc = np.zeros(s, dtype=np.int64)
    for i in range(m):
        enc = enc * k + tup[:, i]
    in_rel[enc] = True
    alive_idx = np.arange(total, dtype=np.int64)
    live = tables
    ok = np.ones(total, dtype=bool)
    pending = 0
    t = 0
    while t < len(arg_idx):
        step = max(1, _BLOCK_ENTRIES // (max(len(live), 1) * m))
        vals = live[:, arg_idx[t:t + step]]             # (live, constraints, m)
        res_enc = vals[:, :, 0].astype(np.int64)
        for i in range(1, m):
            res_enc *= k
            res_enc += vals[:, :, i]
        ok &= in_rel[res_enc].all(axis=1)
        t += step
        pending += step
        if pending * m >= tables.shape[1]:
            alive_idx = alive_idx[ok]
            live = tables[alive_idx]
            ok = np.ones(len(alive_idx), dtype=bool)
            pending = 0
            if not len(alive_idx):
                break
    alive_idx = alive_idx[ok]
    mask = np.zeros(total, dtype=bool)
    mask[alive_idx] = True
    return mask


# ---------------------------------------------------------------------------
# exact commutation tests on the factored candidate grid


@dataclass(frozen=True, eq=False)
class _Grid:
    """Candidate tables in factored form.

    Candidate (t, e) is the table base[t] with each free cell c (a key of
    slot) overwritten by ext[e, slot[c]].  The candidates lie on the grid
    ti x ei, a (len(ti), len(ei)) array over which per-triple and
    per-extension values broadcast; live marks the pairs still in play
    (None: every pair).  `keep` ANDs a mask into live and drops the triples
    and extensions with no live pair left, so no row or column of live is
    all False.  The candidates are the live pairs in row-major (t, e)
    order.  A flat batch of tables is the grid with an empty extension.
    Candidates are assembled into tables only for a sweep (`tables`); the
    survivors leave as keys (`keys`).
    """
    base: np.ndarray        # (rows, k^ell) tables; their free cells are ignored
    ext: np.ndarray         # (extensions, free cells) fillings of the free cells
    slot: dict
    ti: np.ndarray
    ei: np.ndarray
    live: np.ndarray | None = None      # (len(ti), len(ei)) bool

    @classmethod
    def of(cls, base: np.ndarray, ext: np.ndarray | None = None, free_cells=()) -> "_Grid":
        if ext is None:
            ext = np.zeros((1, 0), dtype=base.dtype)
        return cls(base, ext, {c: j for j, c in enumerate(free_cells)},
                   np.arange(len(base)), np.arange(len(ext)))

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.ti), len(self.ei)

    def __len__(self):
        return len(self.ti) * len(self.ei) if self.live is None else int(self.live.sum())

    def column(self, cell: int) -> np.ndarray:
        """The value g(cell) of each candidate g on the grid (broadcastable)."""
        j = self.slot.get(cell)
        if j is None:
            return self.base[self.ti, cell][:, None]
        return self.ext[self.ei, j][None, :]

    def keep(self, mask, carried: dict | None = None) -> "_Grid":
        """The grid of the live candidates under mask.

        mask broadcasts to self.shape or is flat over the live candidates,
        in order.  The arrays in carried, broadcastable to self.shape, are
        cut to the rows and columns kept, in place.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.all():
            return self
        if mask.ndim == 1:      # one entry per live candidate, in order
            if self.live is None:
                mask = mask.reshape(self.shape)
            else:
                mask, flat = np.zeros(self.shape, dtype=bool), mask
                mask[self.live] = flat
        live = np.atleast_2d(mask) if self.live is None else mask & self.live
        rows = np.broadcast_to(live.any(axis=1), (len(self.ti),))
        cols = np.broadcast_to(live.any(axis=0), (len(self.ei),))
        for key, arr in (carried or {}).items():
            if arr.shape[0] == len(rows):
                arr = arr[rows]
            if arr.shape[1] == len(cols):
                arr = arr[:, cols]
            carried[key] = arr
        if live.shape != self.shape:        # a mask on one axis leaves every pair live
            live = None
        else:
            live = live[np.ix_(rows, cols)]
            live = None if live.all() else live
        return replace(self, ti=self.ti[rows], ei=self.ei[cols], live=live)

    def split(self, limit: int) -> list["_Grid"]:
        """This grid as grids of whole triples, each spanning at most limit
        pairs (no triple has more than limit extensions), each part's rows
        of live applied by `keep`."""
        if len(self.ti) * len(self.ei) <= limit:
            return [self]
        step = max(1, limit // len(self.ei))
        return [replace(self, ti=self.ti[at:at + step], live=None).keep(
                    True if self.live is None else self.live[at:at + step])
                for at in range(0, len(self.ti), step)]

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The (base row, extension row) of each live candidate, in order."""
        rows, cols = np.nonzero(np.ones(self.shape, dtype=bool) if self.live is None
                                else self.live)
        return self.ti[rows], self.ei[cols]

    def tables(self) -> np.ndarray:
        """The live candidates as value tables, one per row."""
        ti, ei = self.pairs()
        out = self.base[ti]
        if self.slot:
            out[:, list(self.slot)] = self.ext[ei]
        return out

    def keys(self, k: int) -> np.ndarray:
        """core._row_keys(self.tables(), k), in candidate order.

        A table's integer key is the key of its base row with the free cells
        weighted 0 plus the key of its filling in the free cells' weights,
        so it takes one add per pair and no table.  Tables wider than
        _key_width(k) are keyed by their bytes, assembled.
        """
        width = self.base.shape[1]
        if width > _key_width(k):
            return _row_keys(self.tables(), k)
        free = list(self.slot)
        on_base = self.base[self.ti]
        on_base[:, free] = 0
        right = self.ext[self.ei] @ _key_weights(k, width)[free]
        keys = _row_keys(on_base, k)[:, None] + right[None, :]
        return keys.ravel() if self.live is None else keys[self.live]


def _pin_cells(k: int, ell: int):
    """cells[(row_mask, pins)] = indices of cells c in A^ell with c[i] == pin per row."""
    cells: dict[tuple[int, tuple[int, ...]], list[int]] = {}
    for mask in range(2 ** ell):
        rows = [i for i in range(ell) if mask >> i & 1]
        for idx, c in enumerate(product(range(k), repeat=ell)):
            cells.setdefault((mask, tuple(c[i] for i in rows)), []).append(idx)
    return cells


def _count_dtype(k: int, r: int, ell: int):
    """The integer dtype that holds the pattern counts of an r-ary member exactly.

    Every product of cell counts and every super-pattern count counts a set
    of ell-by-r matrices over k elements, so it is at most k^(ell r); the
    signed Moebius sums stay within 2^ell k^(ell r).  int32 holds them all
    below 2^31.  int64 is exact while k^(ell r) < 2^63: super-pattern counts
    never wrap, and the Moebius sums are exact modulo 2^64 with their true
    values in range.  Beyond that raises CapExceeded.
    """
    bound = k ** (ell * r)
    if 2 ** ell * bound < 2 ** 31:
        return np.int32
    if bound < 2 ** 63:
        return np.int64
    raise CapExceeded(f"pattern counts of a {r}-ary member over k={k} reach {bound}, "
                      "beyond int64")


def _product_dtype(k: int, r: int, ell: int):
    """The dtype in which matrix products give the super-pattern counts exactly.

    Every entry, product and partial sum of those products is a
    non-negative integer at most the count it adds up to, so at most
    k^(ell r): float32 represents them all below 2^24, float64 below 2^53;
    beyond that the products run in int64 (see _count_dtype).
    """
    bound = k ** (ell * r)
    if bound < 2 ** 24:
        return np.float32
    if bound < 2 ** 53:
        return np.float64
    return np.int64


def _super_terms(ones: list[tuple[int, ...]], ell: int) -> dict:
    """Each super-pattern count as a weighted sum of products of cell counts.

    For every row mask: (keys, terms).  keys are the (a, pins) of the cell
    counts #{c pinned on the rows of mask to pins : g(c) = a}; terms maps
    the r keys of each product, in increasing order, to the number of
    equal products it stands for.
    """
    r = len(ones[0])
    out = {}
    for mask in range(2 ** ell):
        rows = [i for i in range(ell) if mask >> i & 1]
        keys: dict[tuple, int] = {}
        terms: dict[tuple, int] = {}
        for w in ones:
            for choice in product(ones, repeat=len(rows)):
                pins = list(zip(*choice)) or [()] * r      # the pins of each column
                term = tuple(sorted([keys.setdefault((w[j], pins[j]), len(keys))
                                     for j in range(r)]))
                terms[term] = terms.get(term, 0) + 1
        out[mask] = (list(keys), terms)
    return out


@dataclass(frozen=True, eq=False)
class _CountLayout:
    """Where the cell counts of one member lie on grids with given free cells.

    A cell count is a per-triple count over the base cells it covers plus a
    per-extension count over the free ones.  Each side is a matrix product
    of a one-hot table of the rows' values with triple_side ((cell, value)
    by count) or ext_side ((free cell, value) by count); the last column of
    each counts nothing and is set to 1.  Per mask, products expands every
    product of cell counts into sums of products of a per-triple factor and
    a per-extension factor, splitting only the keys counted on both sides,
    as column indices (left, right; -1 pads) and weights.
    """
    triple_side: np.ndarray
    ext_side: np.ndarray
    products: dict

    @classmethod
    def build(cls, super_terms: dict, pin_cells: dict, slot: dict, k: int, ell: int,
              ftype) -> "_CountLayout":
        columns: tuple[list, list] = ([], [])     # per side, the one-hot entries of each count
        products = {}
        for mask, (keys, terms) in super_terms.items():
            at = []         # per key, its column on each side or -1
            for a, pins in keys:
                sides: tuple[list, list] = ([], [])
                for c in pin_cells[mask, pins]:
                    j = slot.get(c)
                    if j is None:
                        sides[0].append(c * k + a)
                    else:
                        sides[1].append(j * k + a)
                at.append([])
                for cols, entries in zip(columns, sides):
                    at[-1].append(len(cols) if entries else -1)
                    if entries:
                        cols.append(entries)
            expanded: dict[tuple, int] = {}
            for term, weight in terms.items():
                left, right, mixed = [], [], []
                for key in term:
                    b, e = at[key]
                    if e < 0:
                        left.append(b)
                    elif b < 0:
                        right.append(e)
                    else:
                        mixed.append((b, e))
                for on_ext in product((False, True), repeat=len(mixed)):
                    lhs = left + [b for (b, _), x in zip(mixed, on_ext) if not x]
                    rhs = right + [e for (_, e), x in zip(mixed, on_ext) if x]
                    split = tuple(sorted(lhs)), tuple(sorted(rhs))
                    expanded[split] = expanded.get(split, 0) + weight
            products[mask] = (_padded([left for left, _ in expanded]),
                              _padded([right for _, right in expanded]),
                              np.array(list(expanded.values()), ftype))
        one_hot_width = (k ** ell * k, len(slot) * k)
        triple_side, ext_side = (np.zeros((width, len(cols) + 1), ftype)
                                 for width, cols in zip(one_hot_width, columns))
        for side, cols in zip((triple_side, ext_side), columns):
            side[[entry for entries in cols for entry in entries],
                 [col for col, entries in enumerate(cols) for _ in entries]] = 1
        return cls(triple_side, ext_side, products)

    def side_counts(self, grid: _Grid, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Every per-triple and per-extension count, one row per triple and
        extension of the grid."""
        rows = grid.base[grid.ti], grid.ext[grid.ei]
        return tuple(_one_hot_counts(values, side, k)
                     for values, side in zip(rows, (self.triple_side, self.ext_side)))


def _one_hot_counts(rows: np.ndarray, side: np.ndarray, k: int) -> np.ndarray:
    """rows one-hot encoded (by cell, then value) times side, with a last column of ones."""
    out = np.empty((len(rows), side.shape[1]), dtype=side.dtype)
    if side.shape[1] == 1:      # no count lies on this side
        out[:] = 1
        return out
    values = np.arange(k, dtype=rows.dtype)
    step = max(1, _BLOCK_ENTRIES // max(rows.shape[1] * k, 1))
    for at in range(0, len(rows), step):
        block = rows[at:at + step]
        one_hot = (block[:, :, None] == values).reshape(len(block), -1)
        np.matmul(one_hot.astype(side.dtype), side, out=out[at:at + step])
    out[:, -1] = 1
    return out


def _padded(index_rows) -> np.ndarray:
    """Rows of column indices of unequal lengths as a matrix, padded with -1."""
    width = max(map(len, index_rows), default=0)
    return np.array([row + (-1,) * (width - len(row)) for row in index_rows],
                    dtype=np.int64).reshape(len(index_rows), width)


def _super_count(left: np.ndarray, right: np.ndarray, left_cols: np.ndarray,
                 right_cols: np.ndarray, weights: np.ndarray, dtype) -> np.ndarray:
    """A super-pattern count on every pair of a grid, from its expanded products.

    Each product is a per-triple factor (a product of left's columns) times
    a per-extension factor (of right's); the weighted sum of them is one
    matrix product, or a matrix-vector product when every factor lies on
    one axis.
    """
    def factors(counts, cols):
        out = counts[:, cols[:, 0]]
        for j in range(1, cols.shape[1]):
            out *= counts[:, cols[:, j]]
        return out

    if not right_cols.shape[1]:
        return (factors(left, left_cols) @ weights)[:, None].astype(dtype)
    if not left_cols.shape[1]:
        return (factors(right, right_cols) @ weights)[None, :].astype(dtype)
    lhs = factors(left, left_cols)
    lhs *= weights
    return (lhs @ factors(right, right_cols).T).astype(dtype, copy=False)


def _unary_filter(grid: _Grid, member: Operation, ell: int) -> list[_Grid]:
    """Candidates g with g(f(c_1), ..., f(c_ell)) = f(g(c)) for all cells c, f = member.

    Each equation compares two columns, each per triple or per extension.
    The equations within one axis cut that axis, and the mixed ones are a
    join: a triple keeps exactly the extensions whose values in them equal
    its own, so the survivors are one sub-grid per signature found on both
    axes, each with its part of the grid's live mask.
    """
    k = member.domain.k
    by_axes: dict[tuple[bool, bool], list[tuple[int, int]]] = {}
    for cell, c in enumerate(product(range(k), repeat=ell)):
        image = args_to_index([member.table[x] for x in c], k)
        by_axes.setdefault((cell in grid.slot, image in grid.slot), []).append((cell, image))

    def holds(part: _Grid, equations) -> np.ndarray:
        ok = np.True_
        for cell, image in equations:
            ok = ok & (part.column(image) == member.row[part.column(cell)])
        return ok

    for axes in ((False, False), (True, True)):
        grid = grid.keep(holds(grid, by_axes.get(axes, ())))
    mixed = by_axes.get((False, True), []) + by_axes.get((True, False), [])
    if not mixed or not len(grid):
        return [grid]
    signatures = (np.empty((len(grid.ti), len(mixed)), dtype=grid.base.dtype),
                  np.empty((len(grid.ei), len(mixed)), dtype=grid.base.dtype))
    for j, (cell, image) in enumerate(mixed):
        sides = (grid.column(image).ravel(), member.row[grid.column(cell)].ravel())
        on_ext = image in grid.slot
        signatures[0][:, j], signatures[1][:, j] = sides[on_ext], sides[not on_ext]
    return [replace(grid, ti=grid.ti[rows], ei=grid.ei[cols], live=None).keep(
                True if grid.live is None else grid.live[np.ix_(rows, cols)])
            for rows, cols in _join(*(_row_keys(sig, k) for sig in signatures))]


def _join(left: np.ndarray, right: np.ndarray):
    """(rows, cols) for each key in both arrays: its positions in each, increasing."""
    runs = []
    for keys in (left, right):
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
        runs.append((order, ranked[starts], np.append(starts, len(keys))))
    (lorder, lkeys, lbounds), (rorder, rkeys, rbounds) = runs
    both = np.flatnonzero(_isin_sorted(rkeys, lkeys))
    for i, j in zip(both, np.searchsorted(rkeys, lkeys[both])):
        yield lorder[lbounds[i]:lbounds[i + 1]], rorder[rbounds[j]:rbounds[j + 1]]


def _counting_filter(grid: _Grid, ones: list[tuple[int, ...]], k: int, ell: int, dtype,
                     layout) -> list[_Grid]:
    """Candidates commuting with the member that is 1 exactly on ones.

    An ell-by-r matrix is determined by its r columns (cells of A^ell); its
    rows map through the member to a pattern v in {0,1}^ell.  A candidate g
    commutes iff for every pattern v, either every matrix with pattern v
    has its columns' g-values in ones and g(v) = 1, or none has and
    g(v) = 0.  The number n_v of matrices with pattern v whose g-values lie
    in ones follows by Moebius inversion from the super-pattern counts
    n_super[mask] (rows in mask map to 1, the others anywhere), each a sum
    of products of per-cell counts #{c pinned on the rows of mask : g(c) =
    a}.  On the grid a per-cell count is a per-triple count over the base
    cells plus a per-extension count over the free cells (layout(grid)
    places them), and n_super over the whole grid is one matrix product of
    per-triple and per-extension factors, read at the live pairs only.
    Patterns are tested cheapest first, in order of falling popcount (each
    needs the super-pattern counts of its supersets), and the survivors,
    with the counts computed so far, are compressed after each.  The grid
    is counted in parts spanning at most CANDIDATE_BLOCK pairs.
    """
    r = len(ones[0])
    masks = range(2 ** ell)
    total = [prod(len(ones) if v >> i & 1 else k ** r - len(ones) for i in range(ell))
             for v in masks]
    corner = [args_to_index([v >> i & 1 for i in range(ell)], k) for v in masks]
    # len(ones) <= 3 < k^r, so every pattern has matrices to count
    patterns = sorted(masks, key=lambda v: -bin(v).count("1"))
    placed = layout(grid)

    def survivors(part: _Grid) -> _Grid:
        # the right-hand side is {0,1}-valued, so g(v) must be as well
        ok = np.True_
        for v in patterns:
            ok = ok & (part.column(corner[v]) <= 1)
        part = part.keep(ok)
        supers: dict[int, np.ndarray] = {}
        counted = None      # (part, its per-triple and per-extension counts)
        for v in patterns:
            if not len(part):
                break
            n_v = 0
            for mask in masks:
                if mask & v == v:
                    if mask not in supers:
                        if counted is None or counted[0] is not part:
                            counted = part, placed.side_counts(part, k)
                        supers[mask] = _super_count(*counted[1], *placed.products[mask], dtype)
                    odd = bin(mask ^ v).count("1") % 2
                    n_v = n_v - supers[mask] if odd else n_v + supers[mask]
            part = part.keep(n_v == part.column(corner[v]).astype(dtype) * total[v], supers)
        return part

    return [survivors(part) for part in grid.split(CANDIDATE_BLOCK)]


def _cut(grid: _Grid, mask_of) -> list[_Grid]:
    """The survivors of grid under mask_of, taken a part spanning at most
    CANDIDATE_BLOCK pairs at a time."""
    return [part.keep(mask_of(part)) for part in grid.split(CANDIDATE_BLOCK)]


def _sweep_filter(grid: _Grid, rel: Relation, ell: int) -> list[_Grid]:
    """Candidates preserving rel, found by sweeping it over the assembled candidates."""
    return _cut(grid, lambda part: preserve_mask(part.tables(), rel, ell))


def _member_test(member: Operation, ell: int):
    """(name, filter): the test of ell-ary candidates for commutation with member.

    filter maps a _Grid to a list of grids of its candidates that commute
    with member.  Unary members are decided cell by cell ("unary"),
    {0,1}-valued ones that are 1 at most three times by exact pattern
    counting ("counting"), and any other member by sweeping its graph,
    built here once, over the assembled candidates ("sweep").  The terms of
    the counts are built here once too, and placed on the grid once per
    set of free cells.  Raises CapExceeded, before any candidate is looked
    at, when the counts would not fit int64.
    """
    k, r, row = member.domain.k, member.arity, member.row
    if r == 1:
        return "unary", partial(_unary_filter, member=member, ell=ell)
    ones_at = np.flatnonzero(row == 1)
    if len(ones_at) <= 3 and row.max() <= 1:
        if not len(ones_at):    # g(0,...,0) must be 0, nothing else is reachable
            return "counting", partial(_cut, mask_of=lambda part: part.column(0) == 0)
        ones = [index_to_args(int(at), k, r) for at in ones_at]
        dtype, ftype = _count_dtype(k, r, ell), _product_dtype(k, r, ell)
        super_terms, pin_cells = _super_terms(ones, ell), _pin_cells(k, ell)
        layouts: dict[tuple, _CountLayout] = {}

        def layout(grid: _Grid) -> _CountLayout:
            free = tuple(grid.slot)
            if free not in layouts:
                layouts[free] = _CountLayout.build(super_terms, pin_cells, grid.slot, k, ell,
                                                   ftype)
            return layouts[free]

        return "counting", partial(_counting_filter, ones=ones, k=k, ell=ell, dtype=dtype,
                                   layout=layout)
    return "sweep", partial(_sweep_filter, rel=graph_of(member), ell=ell)


# ---------------------------------------------------------------------------
# enumeration drivers


def _clamp_threads(threads: int) -> int:
    """The worker count actually used: threads clamped to [1, os.cpu_count()]."""
    return max(1, min(threads, os.cpu_count() or 1))


def _run_filters(grids, filters, k: int, threads: int):
    """The survivors of every grid under the filters, applied in turn.

    A filter maps a grid to a list of grids.  Returns the surviving tables'
    keys (`_Grid.keys`), grid after grid, and per filter its (in, out)
    candidate counts summed over the grids.
    """
    def survivors(grid):
        live, flow = [grid], []
        for keep in filters:
            before = sum(map(len, live))
            live = [part for block in live for part in keep(block) if len(part)]
            flow.append((before, sum(map(len, live))))
        return live, flow

    def collect(map_):
        found = list(map_(survivors, grids))
        # the keys are written once, block by block, into one array of their total length
        blocks = [block for live, _ in found for block in live]
        starts = np.cumsum([0] + [len(block) for block in blocks])
        keys = np.empty(starts[-1], dtype=_row_keys(grids[0].base[:0], k).dtype)

        def write(job):
            block, start = job
            for part in block.split(CANDIDATE_BLOCK):
                part_keys = part.keys(k)
                keys[start:start + len(part_keys)] = part_keys
                start += len(part_keys)

        list(map_(write, zip(blocks, starts[:-1].tolist())))
        return keys, [flow for _, flow in found]

    if threads <= 1 or len(grids) <= 1:
        keys, grid_flows = collect(map)
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            keys, grid_flows = collect(pool.map)
    per_filter = zip(*grid_flows)       # each filter's flow, grid by grid
    return keys, [tuple(map(sum, zip(*flows))) for flows in per_filter]


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise ValueError(f"the budget must be at least 1, got {budget}")


def _table_grids(domain: Domain, arity: int, budget: int, threads: int) -> list[_Grid]:
    """All k^(k^arity) tables as flat grids, one chunk per thread."""
    count = domain.k ** (domain.k ** arity)
    if count > budget:
        raise CapExceeded(
            f"{count} candidate tables of arity {arity} exceed the budget of {budget}")
    return [_Grid.of(chunk) for chunk in np.array_split(all_tables(domain, arity), threads)]


def _ternary_grids(fs: OperationSet, budget: int, threads: int,
                   stats: EnumerationStats) -> list[_Grid]:
    """The ternary candidates as grids of binary-slice triples by free-cell fillings."""
    k = fs.domain.k
    binary = enumerate_centraliser(fs, 2, budget=budget, threads=threads)
    btab = binary.tables(2)
    stats.details["binary_slice"] = len(btab)

    free_cells = [args_to_index(t, k) for t in product(range(k), repeat=3)
                  if len(set(t)) == 3]
    ext_count = k ** len(free_cells)
    diag_cols = [args_to_index((a, a), k) for a in range(k)]
    diags = btab[:, diag_cols]
    groups: dict[bytes, list[int]] = {}
    for i in range(len(btab)):
        groups.setdefault(diags[i].tobytes(), []).append(i)

    explored = sum(len(g) ** 3 for g in groups.values()) * ext_count
    stats.details["ternary_explored"] = explored
    if explored > budget:
        raise CapExceeded(f"{explored} candidates exceed the budget of {budget}")

    # placement maps: cell (a,a,b) <- minor1(a,b); (a,b,a) <- minor2; (b,a,a) <- minor3
    pairs = list(product(range(k), repeat=2))
    idx1 = np.array([args_to_index((a, a, b), k) for a, b in pairs])
    idx2 = np.array([args_to_index((a, b, a), k) for a, b in pairs])
    idx3 = np.array([args_to_index((b, a, a), k) for a, b in pairs])
    ext = _digit_matrix(len(free_cells), k, np.uint8)

    grids = []
    triple_block = max(1, CANDIDATE_BLOCK // ext_count)
    for key in sorted(groups):
        gidx = np.array(groups[key], dtype=np.int64)
        tri = _digit_matrix(3, len(gidx))
        for start in range(0, len(tri), triple_block):
            block = gidx[tri[start:start + triple_block]]      # binary slice rows
            base = np.zeros((len(block), k ** 3), dtype=np.uint8)
            base[:, idx1] = btab[block[:, 0]]
            base[:, idx2] = btab[block[:, 1]]
            base[:, idx3] = btab[block[:, 2]]
            grids.append(_Grid.of(base, ext, free_cells))
    return grids


def enumerate_centraliser(fs: OperationSet, arity: int, budget: int = DEFAULT_BUDGET,
                          threads: int = 1, return_stats: bool = False):
    """All operations of the given arity commuting with every member of fs.

    Each member is decided by the exact test `_member_test` picks for it.
    Arity 1 and 2 run it over every candidate table; arity 3 over the
    triples of binary slice members that agree as identification minors, by
    the fillings of the cells with pairwise-distinct arguments.  Higher
    arities and a budget below 1 are rejected (ValueError).  threads is
    clamped to [1, os.cpu_count()].
    """
    if arity not in (1, 2, 3):
        raise ValueError("centraliser enumeration supports arities 1..3 only")
    _check_budget(budget)
    domain = fs.domain
    threads = _clamp_threads(threads)
    members = list(fs.members())
    tests = [_member_test(f, arity) for f in members]
    stats = EnumerationStats(candidates=0, survivors=0)
    if arity <= 2:
        grids = _table_grids(domain, arity, budget, threads)
    else:
        grids = _ternary_grids(fs, budget, threads, stats)
    stats.candidates = sum(len(grid) for grid in grids)
    keys, flow = _run_filters(grids, [keep for _, keep in tests], domain.k, threads)
    stats.details["filters"] = [
        {"member": i, "arity": f.arity, "test": name, "in": n_in, "out": n_out}
        for i, (f, (name, _), (n_in, n_out)) in enumerate(zip(members, tests, flow))]
    result = OperationSet._of_keys(domain, arity, keys)
    stats.survivors = result.count(arity)
    if return_stats:
        return result, stats
    return result


def enumerate_polymorphisms(relations, arity: int, budget: int = DEFAULT_BUDGET,
                            threads: int = 1) -> OperationSet:
    """All arity-ary operations preserving every relation in the list.

    A budget below 1 is rejected (ValueError).  threads is clamped to
    [1, os.cpu_count()].
    """
    _check_budget(budget)
    relations = list(relations)
    if not relations:
        raise ValueError("need at least one relation")
    domain = relations[0].domain
    for rel in relations:
        if rel.domain != domain:
            raise ValueError("all relations must share the domain")
    threads = _clamp_threads(threads)
    keys, _ = _run_filters(_table_grids(domain, arity, budget, threads),
                           [partial(_sweep_filter, rel=rel, ell=arity) for rel in relations],
                           domain.k, threads)
    return OperationSet._of_keys(domain, arity, keys)
