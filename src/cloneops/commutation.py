"""Preservation, commutation and exhaustive centraliser/polymorphism enumeration.

g commutes with f exactly when g preserves the graph of f, so one sweep
kernel serves both searches: `preserve_mask` filters a batch of candidate
value tables against a relation, constraint by constraint (a choice of ell
tuples of the relation) in lexicographic order, checking blocks of
constraints at once and dropping dead candidates as it goes; it is the
vectorised form of the early-abort scalar checks `preserves` and
`commutes`.  Ternary centralisers are not swept directly:
candidates are assembled from diagonal-compatible triples of binary
centraliser members (their three identification minors) extended on the
tuples with pairwise distinct entries, and commutation is then decided by an
exact per-pattern counting test (see `_ternary_pattern_mask`).
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .core import (CapExceeded, Domain, Operation, Relation, args_to_index,
                   graph_of, sparse_op)

DEFAULT_BUDGET = 250_000_000
_BLOCK_ENTRIES = 1 << 18    # values gathered per vectorised block


@dataclass
class EnumerationStats:
    candidates: int
    survivors: int
    details: dict = field(default_factory=dict)


class OperationSet:
    """Operations over one domain, grouped by arity, canonically sorted.

    Tables are held as numpy uint8 arrays (one row per operation, rows
    sorted lexicographically, no duplicates), so domains have at most 256
    elements; Operation objects are materialised on demand.
    """

    def __init__(self, domain: Domain, tables_by_arity: dict[int, np.ndarray]):
        if domain.k > 256:
            raise ValueError(f"operation sets hold uint8 tables: domain size {domain.k} "
                             "exceeds 256")
        self.domain = domain
        self._tables: dict[int, np.ndarray] = {}
        for arity, arr in sorted(tables_by_arity.items()):
            arr = np.asarray(arr).reshape(-1, domain.k ** arity)
            if arr.size and (arr.min() < 0 or arr.max() >= domain.k):
                raise ValueError("table entry out of range for the domain")
            self._tables[arity] = _unique_rows(arr.astype(np.uint8, copy=False))

    @classmethod
    def from_operations(cls, domain: Domain, ops) -> "OperationSet":
        grouped: dict[int, list] = {}
        for op in ops:
            if op.domain != domain:
                raise ValueError("all operations must share the domain")
            grouped.setdefault(op.arity, []).append(op.table)
        return cls(domain, grouped)

    def arities(self) -> tuple[int, ...]:
        return tuple(self._tables)

    def tables(self, arity: int) -> np.ndarray:
        return self._tables.get(arity, np.empty((0, self.domain.k ** arity), dtype=np.uint8))

    def count(self, arity: int | None = None) -> int:
        if arity is not None:
            return len(self.tables(arity))
        return sum(len(t) for t in self._tables.values())

    def members(self, arity: int | None = None):
        """The operations in (arity, table) order."""
        arities = [arity] if arity is not None else list(self._tables)
        for a in arities:
            for row in self.tables(a):
                yield Operation(self.domain, a, tuple(int(v) for v in row))

    def __contains__(self, op: Operation) -> bool:
        if op.domain != self.domain or op.arity not in self._tables:
            return False
        row = np.asarray(op.table, dtype=np.uint8)
        return bool((self._tables[op.arity] == row).all(axis=1).any())

    def __len__(self):
        return self.count()

    def __eq__(self, other):
        if not isinstance(other, OperationSet):
            return NotImplemented
        return (self.domain == other.domain
                and self.arities() == other.arities()
                and all(np.array_equal(self._tables[a], other._tables[a])
                        for a in self._tables))

    def __repr__(self):
        parts = ", ".join(f"{a}-ary: {len(t)}" for a, t in self._tables.items())
        return f"OperationSet(k={self.domain.k}, {parts or 'empty'})"


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-d array as one byte string (a 1-d void array)."""
    rows = np.ascontiguousarray(rows)
    return rows.view(f"V{rows.shape[1] * rows.itemsize}").ravel()


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-d unsigned integer array, in byte order.

    Rows are sorted as byte strings, which for uint8 is the lexicographic
    order of their values; np.unique(axis=0) gives the same result but
    builds one structured field per column, which is slow for wide rows.
    Wider dtypes are kept, in an order that depends on the byte order.
    """
    return np.unique(_row_keys(rows)).view(rows.dtype).reshape(-1, rows.shape[1])


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
    return _digit_matrix(domain.k ** width, width, domain.k, np.uint8)


def _digit_matrix(count: int, width: int, k: int, dtype=np.int64) -> np.ndarray:
    """Rows 0..count-1 written as width base-k digits, most significant first."""
    idx = np.arange(count, dtype=np.int64)
    out = np.empty((count, width), dtype=dtype)
    for pos in range(width):
        out[:, width - 1 - pos] = (idx // (k ** pos)) % k
    return out


def preserve_mask(tables: np.ndarray, rel: Relation, ell: int) -> np.ndarray:
    """Boolean mask over candidate ell-ary tables that preserve rel.

    Each constraint is a choice of ell tuples of rel; they are checked in
    lexicographic order, as many at once as keep the gathered block near
    _BLOCK_ENTRIES values.  Dead candidates are dropped once the values
    gathered since the last drop outnumber the live table entries.
    """
    k = rel.domain.k
    m = rel.arity
    s = len(rel.tuples)
    total = len(tables)
    if s == 0:
        return np.ones(total, dtype=bool)
    tup = np.array(rel.tuples, dtype=np.int64)          # (s, m)
    choices = _digit_matrix(s ** ell, ell, s)           # selection index per slot
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
# exact ternary commutation test by pattern counting

def _pin_cells(k: int):
    """cells[(row_mask, pins)] = indices of triples c in A^3 with c[i] == pin per row."""
    cells: dict[tuple[int, tuple[int, ...]], list[int]] = {}
    triples = list(product(range(k), repeat=3))
    for mask in range(8):
        rows = [i for i in range(3) if mask >> i & 1]
        for idx, c in enumerate(triples):
            key = (mask, tuple(c[i] for i in rows))
            cells.setdefault(key, []).append(idx)
    return cells


def _ternary_pattern_mask(tables: np.ndarray, member: Operation) -> np.ndarray | None:
    """Exact commutation mask of ternary candidates against a {0,1}-valued member.

    A 3-by-r matrix is determined by its r columns (elements of A^3); its
    rows map through the member to a pattern v in {0,1}^3.  A candidate g
    commutes iff for every pattern v, either every matrix whose columns'
    g-values form a member-preimage-of-1 tuple has pattern v and g(v)=1, or
    no such matrix has pattern v and g(v)=0.  Both counts are polynomial in
    the per-cell value statistics of g, so the test is exact and needs no
    matrix sweep.  Returns None when the member is not {0,1}-valued or is 1
    at more than three points.
    """
    k = member.domain.k
    r = member.arity
    values = set(member.table)
    if not values <= {0, 1}:
        return None
    ones = [args for args, v in zip(product(range(k), repeat=r), member.table) if v == 1]
    mu = len(ones)
    if mu > 3:
        return None
    total = len(tables)
    if mu == 0:
        return tables[:, 0] == 0  # g(0,0,0) must be 0, nothing else is reachable
    cells = _pin_cells(k)
    cnt_cache: dict[tuple[int, int, tuple[int, ...]], np.ndarray] = {}

    def cnt(a: int, mask: int, pins: tuple[int, ...]) -> np.ndarray:
        key = (a, mask, pins)
        if key not in cnt_cache:
            cols = cells.get((mask, pins), [])
            if not cols:
                cnt_cache[key] = np.zeros(total, dtype=np.int64)
            else:
                cnt_cache[key] = (tables[:, cols] == a).sum(axis=1, dtype=np.int64)
        return cnt_cache[key]

    n_super = {}
    for mask in range(8):
        rows = [i for i in range(3) if mask >> i & 1]
        acc = np.zeros(total, dtype=np.int64)
        for w in ones:
            for choice in product(range(mu), repeat=len(rows)):
                term = None
                for j in range(r):
                    pins = tuple(ones[choice[p]][j] for p in range(len(rows)))
                    c = cnt(w[j], mask, pins)
                    term = c.copy() if term is None else term * c
                acc += term
        n_super[mask] = acc

    non_magic_rows = k ** r - mu
    ok = np.ones(total, dtype=bool)
    for vmask in range(8):
        magic = np.zeros(total, dtype=np.int64)
        for mask in range(8):
            if mask & vmask == vmask:
                sign = -1 if (bin(mask ^ vmask).count("1") % 2) else 1
                magic = magic + sign * n_super[mask]
        bits = [(vmask >> i) & 1 for i in range(3)]
        total_v = 1
        for b in bits:
            total_v *= mu if b else non_magic_rows
        if total_v == 0:
            continue
        gv = tables[:, bits[0] * k * k + bits[1] * k + bits[2]]
        ok &= np.where(gv == 1, magic == total_v, (gv == 0) & (magic == 0))
    return ok


# ---------------------------------------------------------------------------
# enumeration drivers


def _clamp_threads(threads: int) -> int:
    """The worker count actually used: threads clamped to [1, os.cpu_count()]."""
    return max(1, min(threads, os.cpu_count() or 1))


def _run_chunks(worker, chunks, threads: int):
    if threads <= 1 or len(chunks) <= 1:
        return [worker(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, chunks))


def _sweep_enumeration(domain: Domain, arity: int, relations, budget: int,
                       threads: int) -> np.ndarray:
    count = domain.k ** (domain.k ** arity)
    if count > budget:
        raise CapExceeded(
            f"{count} candidate tables of arity {arity} exceed the budget of {budget}")
    tables = all_tables(domain, arity)

    def worker(chunk: np.ndarray) -> np.ndarray:
        live = chunk
        for rel in relations:
            if not len(live):
                break
            live = live[preserve_mask(live, rel, arity)]
        return live

    return np.vstack(_run_chunks(worker, np.array_split(tables, threads), threads))


def _ternary_centraliser(fs: OperationSet, budget: int, threads: int,
                         stats: EnumerationStats) -> np.ndarray:
    domain = fs.domain
    k = domain.k
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
    stats.candidates += explored
    stats.details["ternary_explored"] = explored
    if stats.candidates > budget:
        raise CapExceeded(f"{stats.candidates} candidates exceed the budget of {budget}")

    # placement maps: cell (a,a,b) <- minor1(a,b); (a,b,a) <- minor2; (b,a,a) <- minor3
    pairs = list(product(range(k), repeat=2))
    idx1 = np.array([args_to_index((a, a, b), k) for a, b in pairs])
    idx2 = np.array([args_to_index((a, b, a), k) for a, b in pairs])
    idx3 = np.array([args_to_index((b, a, a), k) for a, b in pairs])
    ext = _digit_matrix(ext_count, len(free_cells), k, np.uint8)
    members = list(fs.members())
    # graphs for the sweep fallback; None beyond its k^(3 * arity) constraint cap
    graphs = [graph_of(f) if k ** (3 * f.arity) <= 2_000_000 else None for f in members]

    jobs = []
    triple_block = max(1, 200_000 // ext_count)
    for key in sorted(groups):
        gidx = np.array(groups[key], dtype=np.int64)
        tri = _digit_matrix(len(gidx) ** 3, 3, len(gidx))
        for start in range(0, len(tri), triple_block):
            jobs.append((gidx, tri[start:start + triple_block]))

    def worker(job) -> np.ndarray:
        gidx, tri = job
        nblock = len(tri)
        base = np.zeros((nblock, k ** 3), dtype=np.uint8)
        base[:, idx1] = btab[gidx[tri[:, 0]]]
        base[:, idx2] = btab[gidx[tri[:, 1]]]
        base[:, idx3] = btab[gidx[tri[:, 2]]]
        cands = np.repeat(base, ext_count, axis=0)
        cands[:, free_cells] = np.tile(ext, (nblock, 1))
        live = cands
        for f, graph in zip(members, graphs):
            if not len(live):
                break
            mask = _ternary_pattern_mask(live, f)
            if mask is None:
                if graph is None:
                    raise CapExceeded(
                        "ternary verification against this member is out of budget")
                mask = preserve_mask(live, graph, 3)
            live = live[mask]
        return live

    parts = _run_chunks(worker, jobs, threads)
    return np.vstack(parts) if parts else np.zeros((0, k ** 3), dtype=np.uint8)


def enumerate_centraliser(fs: OperationSet, arity: int, budget: int = DEFAULT_BUDGET,
                          threads: int = 1, return_stats: bool = False):
    """All operations of the given arity commuting with every member of fs.

    Arity 1 and 2 sweep every candidate table against the graph of each
    member; arity 3 goes through the binary slice via identification minors.
    Higher arities are rejected.  threads is clamped to [1, os.cpu_count()].
    """
    if arity not in (1, 2, 3):
        raise ValueError("centraliser enumeration supports arities 1..3 only")
    domain = fs.domain
    threads = _clamp_threads(threads)
    stats = EnumerationStats(candidates=0, survivors=0)
    if arity <= 2:
        stats.candidates = domain.k ** (domain.k ** arity)
        graphs = [graph_of(f) for f in fs.members()]
        rows = _sweep_enumeration(domain, arity, graphs, budget, threads)
    else:
        rows = _ternary_centraliser(fs, budget, threads, stats)
    result = OperationSet(domain, {arity: rows})
    stats.survivors = result.count(arity)
    if return_stats:
        return result, stats
    return result


def enumerate_polymorphisms(relations, arity: int, budget: int = DEFAULT_BUDGET,
                            threads: int = 1) -> OperationSet:
    """All arity-ary operations preserving every relation in the list.

    threads is clamped to [1, os.cpu_count()].
    """
    relations = list(relations)
    if not relations:
        raise ValueError("need at least one relation")
    domain = relations[0].domain
    for rel in relations:
        if rel.domain != domain:
            raise ValueError("all relations must share the domain")
    rows = _sweep_enumeration(domain, arity, relations, budget, _clamp_threads(threads))
    return OperationSet(domain, {arity: rows})
