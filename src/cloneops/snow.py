"""The separating construction on k-element domains, k >= 3.

T is the (k-1)^2-ary operation valued 1 exactly on the two squares p1
(constant rows 1..n) and p2 (every row is 1..n), and 0 elsewhere.  The
(k-1)-ary function f is valued 1 exactly on (1..n) and (n..1).  The graph
of f is definable from the graph of T by a five-atom primitive positive
formula whose free variables are the anti-diagonal of an n-by-n variable
square plus the value variable; this module builds the formula, the square
index machinery behind it, and a verification report (full evaluation for
small k, witness construction plus randomised completeness sampling beyond).

Witness mode never assembles a square.  The three atoms over the square read
it directly or through a permutation of its cells, so each is 1 on exactly
two fixed squares: p1, p2 or their pullbacks.  A sample (drawn off-diagonal
cells, x on the anti-diagonal) is decided by comparing its cells with the
patterns whose anti-diagonal is x, usually none.  Cells are drawn only for
a refuted (x, y) whose x is the anti-diagonal of some pattern, each such
tuple from its own stream of the standard library's generator,
random.Random seeded by (seed, position of x, y), so its draws depend on
no other tuple.  Every other refuted tuple is decided without draws: no
atom over the square can be 1 on it, so all of its samples satisfy the
formula or none does, and its count is exact for any draws.
The argument tuples that no pattern lies under are all decided alike, so
one of them is decided for all, and the checks visit at most nine tuples.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache
from itertools import product

import numpy as np

from . import __version__
from .core import (CapExceeded, Domain, Operation, OperationSet, _digit_matrix, graph_of,
                   sparse_op)
from .clonegen import clone_fragment, fragment_contains
from .ppformula import PPFormula, eval_formula

WITNESS_SAMPLE_CAP = 1_000_000_000     # bytes of drawn sample cells
DRAW_BLOCK = 1 << 16                   # random bytes asked for at a time
FULL_EVAL_MAX_K = 4
FRAGMENT_MAX_MAPS = 10_000_000


def _check_k(k: int):
    if k < 3:
        raise ValueError(f"the construction needs a domain of size at least 3, got {k}")


def up_tuple(k: int) -> tuple[int, ...]:
    _check_k(k)
    return tuple(range(1, k))


def down_tuple(k: int) -> tuple[int, ...]:
    _check_k(k)
    return tuple(range(k - 1, 0, -1))


@cache
def square_p1(k: int) -> tuple[int, ...]:
    """Row i constant with value i, fed row-wise."""
    n = k - 1
    return tuple(i for i in range(1, n + 1) for _ in range(n))


@cache
def square_p2(k: int) -> tuple[int, ...]:
    """Every row equal to (1..n)."""
    n = k - 1
    return tuple(j for _ in range(n) for j in range(1, n + 1))


def snow_t_value(k: int, args) -> int:
    _check_k(k)
    n = k - 1
    if len(args) != n * n:
        raise ValueError(f"expected {n * n} arguments, got {len(args)}")
    args = tuple(args)
    return 1 if args in (square_p1(k), square_p2(k)) else 0


def snow_t(k: int) -> Operation:
    _check_k(k)
    n = k - 1
    return sparse_op(Domain(k), n * n, {square_p1(k): 1, square_p2(k): 1})


def snow_f(k: int) -> Operation:
    _check_k(k)
    return sparse_op(Domain(k), k - 1, {up_tuple(k): 1, down_tuple(k): 1})


@dataclass(frozen=True)
class ArrowPlan:
    """Index sequences through an n-by-n square, as flat 0-based positions.

    Position (i, j), 1-based, sits at flat index (i-1)*n + (j-1); squares
    are fed row-wise.
    """
    n: int
    rows: tuple[tuple[int, ...], ...]
    rows_reversed: tuple[tuple[int, ...], ...]
    cols: tuple[tuple[int, ...], ...]
    cols_reversed: tuple[tuple[int, ...], ...]
    anti: tuple[int, ...]
    anti_reversed: tuple[int, ...]


def arrow_plan(n: int) -> ArrowPlan:
    if n < 2:
        raise ValueError("the square must be at least 2x2")
    flat = lambda i, j: (i - 1) * n + (j - 1)
    rows = tuple(tuple(flat(i, j) for j in range(1, n + 1)) for i in range(1, n + 1))
    cols = tuple(tuple(flat(i, j) for i in range(1, n + 1)) for j in range(1, n + 1))
    anti = tuple(flat(i, n + 1 - i) for i in range(1, n + 1))
    return ArrowPlan(
        n=n, rows=rows, rows_reversed=tuple(r[::-1] for r in rows),
        cols=cols, cols_reversed=tuple(c[::-1] for c in cols),
        anti=anti, anti_reversed=anti[::-1])


@dataclass(frozen=True)
class SnowInstance:
    domain: Domain
    n: int
    t_op: Operation | None      # None when the table exceeds the entry cap
    f_op: Operation
    up: tuple[int, ...]
    down: tuple[int, ...]
    p1: tuple[int, ...]
    p2: tuple[int, ...]
    arrows: ArrowPlan

    def t_value(self, args) -> int:
        return snow_t_value(self.domain.k, args)


def snow_instance(k: int) -> SnowInstance:
    _check_k(k)
    n = k - 1
    try:
        t_op = snow_t(k)
    except CapExceeded:
        t_op = None
    return SnowInstance(
        domain=Domain(k), n=n, t_op=t_op, f_op=snow_f(k),
        up=up_tuple(k), down=down_tuple(k),
        p1=square_p1(k), p2=square_p2(k), arrows=arrow_plan(n))


def _cell_names(n: int) -> list[str]:
    return [f"x{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)]


def _atom3_positions(plan: ArrowPlan) -> tuple[int, ...]:
    seq: tuple[int, ...] = plan.rows[0]
    for i in range(1, plan.n):
        seq = seq + plan.rows_reversed[i]
    return seq


def _atom5_positions(plan: ArrowPlan) -> tuple[int, ...]:
    seq: tuple[int, ...] = plan.cols[0]
    for i in range(1, plan.n):
        seq = seq + plan.cols_reversed[i]
    return seq


def snow_pp_formula(k: int) -> PPFormula:
    """The five-atom definition of graph(f) from graph(T), over relation "T".

    Free variables: the n anti-diagonal square cells and the value y.
    Existential: the remaining square cells plus the two comparison values.
    """
    _check_k(k)
    if k > 10:
        raise ValueError("cell naming supports k <= 10")
    n = k - 1
    plan = arrow_plan(n)
    cells = _cell_names(n)
    anti_set = set(plan.anti)
    free = tuple(cells[p] for p in plan.anti) + ("y",)
    exist = tuple(cells[p] for p in range(n * n) if p not in anti_set) + ("u", "v")
    square_vars = tuple(cells)
    atoms = (
        ("T", square_vars + ("y",)),
        ("T", tuple(cells[p] for p in plan.anti) * n + ("u",)),
        ("T", tuple(cells[p] for p in _atom3_positions(plan)) + ("u",)),
        ("T", tuple(cells[p] for p in plan.anti_reversed) * n + ("v",)),
        ("T", tuple(cells[p] for p in _atom5_positions(plan)) + ("v",)),
    )
    return PPFormula(Domain(k), free, exist, atoms)


# ---------------------------------------------------------------------------
# verification


@dataclass
class CheckResult:
    name: str
    status: str  # PASS / FAIL / SKIP
    detail: str


@dataclass
class SeparationReport:
    k: int
    mode: str
    params: dict = field(default_factory=dict)
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status != "FAIL" for c in self.checks)

    def render(self) -> str:
        lines = [f"# cloneops {__version__} separation report",
                 "# " + " ".join(f"{key}={value}" for key, value in
                                 [("k", self.k), ("mode", self.mode)]
                                 + sorted(self.params.items()))]
        for c in self.checks:
            lines.append(f"{c.status} {c.name}: {c.detail}")
        return "\n".join(lines) + "\n"


def _off_diagonal(plan: ArrowPlan) -> tuple[int, ...]:
    """Flat positions of the square cells off the anti-diagonal, ascending."""
    anti = set(plan.anti)
    return tuple(p for p in range(plan.n * plan.n) if p not in anti)


def _atom_patterns(inst: SnowInstance) -> tuple[dict, dict, dict]:
    """The squares s on which the atoms T(s), T(s[a3]) and T(s[a5]) are 1.

    T is 1 exactly on p1 and p2.  The atom orders a3 and a5 are permutations
    of the cells, so s[a] equals p exactly when s equals the pullback q with
    q[a] = p: each atom is 1 on two fixed squares.  A pattern is stored under
    its anti-diagonal as the uint8 row of its off-diagonal cells, so a square
    holding x on the anti-diagonal can only match the patterns under x.
    """
    plan = inst.arrows
    size = inst.n * inst.n
    others = _off_diagonal(plan)
    tables = []
    for order in (range(size), _atom3_positions(plan), _atom5_positions(plan)):
        table: dict[tuple[int, ...], list[np.ndarray]] = {}
        for p in (inst.p1, inst.p2):
            q = [0] * size
            for i, pos in enumerate(order):
                q[pos] = p[i]
            table.setdefault(tuple(q[pos] for pos in plan.anti), []).append(
                np.array([q[pos] for pos in others], dtype=np.uint8))
        tables.append(table)
    return tuple(tables)


def _count_satisfying(inst: SnowInstance, patterns, x: tuple[int, ...], y: int,
                      cells: np.ndarray) -> int:
    """How many rows of cells (off-diagonal values, x on the anti-diagonal)
    complete (x, y) to a satisfying assignment.

    The comparison values u and v are fixed by the atoms over the repeated
    anti-diagonal, so the square alone decides the formula.  An atom with no
    pattern under x is 0 on every row, and its test is a single bool.
    """
    n = inst.n
    squares = (inst.p1, inst.p2)
    sat = True
    for table, value in zip(patterns, (y, x * n in squares, x[::-1] * n in squares)):
        hit = False
        for row in table.get(x, ()):
            hit = hit | (cells == row).all(axis=1)
        sat = sat & (hit == value)
    if isinstance(sat, np.ndarray):
        return int(np.count_nonzero(sat))
    return len(cells) if sat else 0


def _tuple_classes(k: int, inst: SnowInstance, patterns) -> list[tuple[int, tuple, int]]:
    """The argument tuples x the witness checks decide, as (position of x
    in product order, x, how many tuples x stands for).

    The anti-diagonals of the patterns, up and down stand for themselves,
    in product order.  Last, when there are any others, the first other
    tuple stands for all of them: no pattern lies under any of them, x^n
    is p1 or p2 only for x = (1..n) and reversed only for (n..1), the
    anti-diagonals of p1 and p2, and f is 0 on them, so _count_satisfying
    gives each of them the same counts.
    """
    special = set().union(*patterns) | {inst.up, inst.down}
    position = lambda x: sum(v * k ** i for i, v in enumerate(reversed(x)))
    classes = [(position(x), x, 1) for x in sorted(special)]
    if len(special) < k ** inst.n:
        other = next(x for x in product(range(k), repeat=inst.n) if x not in special)
        classes.append((position(other), other, k ** inst.n - len(special)))
    return classes


def _witness_soundness(k: int, inst: SnowInstance) -> CheckResult:
    """Exact check that every graph tuple has an explicit witness square.

    For (up, 1) and (down, 1) the witnesses are p1 and p2; for every other
    argument tuple x the square holding x on the anti-diagonal and 0
    elsewhere witnesses (x, 0).  The tuples no pattern lies under are
    checked as one class (_tuple_classes).
    """
    patterns = _atom_patterns(inst)
    others = _off_diagonal(inst.arrows)
    zero = np.zeros((1, len(others)), dtype=np.uint8)
    witnesses = {inst.up: inst.p1, inst.down: inst.p2}
    graph_size = k ** inst.n
    bad = 0
    for _, x, weight in _tuple_classes(k, inst, patterns):
        square = witnesses.get(x)
        if square is None:
            y, cells = 0, zero
        else:
            y, cells = 1, np.array([[square[p] for p in others]], dtype=np.uint8)
        bad += weight * (_count_satisfying(inst, patterns, x, y, cells) == 0)
    if bad:
        return CheckResult("soundness-witnesses", "FAIL",
                           f"{bad} of {graph_size} graph tuples have no witness")
    return CheckResult("soundness-witnesses", "PASS",
                       f"all {graph_size} graph tuples witnessed")


def _draw_cells(k: int, key: tuple[int, ...], count: int) -> np.ndarray:
    """count cells drawn uniformly from range(k), as a flat uint8 array.

    The stream is random.Random(' '.join(map(str, key))).randbytes, read
    in 4-byte words.  With c the most digits such that k^c <= 256, a byte
    below the largest multiple of k^c that fits in 256 gives the c base-k
    digits of its remainder mod k^c, most significant first; the other
    bytes are skipped.  randbytes is asked for multiples of 4 bytes only,
    so the stream does not depend on the blocks, of at most DRAW_BLOCK
    bytes, in which it is read.
    """
    c = 1
    while k ** (c + 1) <= 256:
        c += 1
    limit = 256 // k ** c * k ** c
    # the digits of every byte below limit, one c-byte void scalar each
    digits = np.tile(_digit_matrix(c, k, np.uint8), (limit // k ** c, 1))
    digits = digits.view(f"V{c}").reshape(-1)
    rng = random.Random(" ".join(map(str, key)))
    out = np.empty(-(-count // c) * c, dtype=np.uint8)
    filled = 0
    while filled < count:
        want = -(-(count - filled) // c)           # bytes, if none is skipped
        drawn = np.frombuffer(rng.randbytes(min(DRAW_BLOCK, -(-want // 4) * 4)), np.uint8)
        kept = drawn[drawn < limit][:want]
        out[filled:filled + len(kept) * c].view(digits.dtype)[...] = np.take(digits, kept)
        filled += len(kept) * c
    return out[:count]


def _witness_completeness(k: int, inst: SnowInstance, samples: int,
                          seed: int) -> CheckResult:
    """Randomised search for free tuples outside graph(f) satisfying the formula.

    No square is assembled: each atom is decided by matching the cells off
    the anti-diagonal against the atom's patterns (p1, p2 or their pullbacks
    through the atom order) whose anti-diagonal is x.  The two comparison
    variables are determined by their defining atoms, so each sample decides
    satisfiability of the sampled square exactly.  Only a refuted (x, y)
    with a pattern under x reads its cells; they are drawn uniformly as one
    (samples, n^2 - n) uint8 block, row by row, by _draw_cells from the
    stream random.Random(f"{seed} {i} {y}"), i the position of x in product
    order.  Every other refuted tuple stands for samples undrawn rows: its
    atoms are constant, and all samples satisfy or none does.  The tuples no pattern lies under are decided as
    one class (_tuple_classes), so the work does not grow with k^(k-1).
    """
    patterns = _atom_patterns(inst)
    patterned = set().union(*patterns)          # at most six anti-diagonals
    width = len(_off_diagonal(inst.arrows))
    undrawn = np.empty((samples, 0), dtype=np.uint8)
    graph_members = {inst.up: 1, inst.down: 1}
    violations = 0
    tuples_checked = 0
    for i, x, weight in _tuple_classes(k, inst, patterns):
        fx = graph_members.get(x, 0)
        for y in range(k):
            if y == fx:
                continue  # in graph(f): nothing to refute
            tuples_checked += weight
            cells = undrawn
            if x in patterned:
                cells = _draw_cells(k, (seed, i, y), samples * width).reshape(samples, width)
            violations += weight * _count_satisfying(inst, patterns, x, y, cells)
    if violations:
        return CheckResult("completeness-sampling", "FAIL",
                           f"{violations} satisfying samples outside the graph")
    return CheckResult("completeness-sampling", "PASS",
                       f"no violation in {tuples_checked}x{samples} samples")


def verify_separation(k: int, mode: str = "full", samples: int = 100_000,
                      seed: int = 0) -> SeparationReport:
    """Check that the formula defines graph(f) and that f is outside the fragment.

    Full mode evaluates the formula exhaustively (k <= 4); witness mode checks
    the explicit witness squares and samples the completeness direction.
    Witness mode needs samples >= 1 and seed >= 0 (ValueError otherwise)
    and raises CapExceeded, before any work, when the cells it may draw,
    6*(k-1)*samples*(n^2-n) bytes for n = k-1, exceed WITNESS_SAMPLE_CAP.
    Full mode ignores the seed.
    """
    _check_k(k)
    if mode not in ("full", "witness"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "witness":
        if samples < 1:
            raise ValueError(f"witness mode needs at least 1 sample per tuple, got {samples}")
        if seed < 0:
            raise ValueError(f"witness mode needs a non-negative seed, got {seed}")
        # draws are made only under the at most six patterned anti-diagonals
        # x, each paired with the k-1 values y other than f(x)
        n = k - 1
        total = 6 * n * samples * (n * n - n)
        if total > WITNESS_SAMPLE_CAP:
            raise CapExceeded(
                f"witness sampling may draw {total} bytes ({6 * n} refuted tuples x {samples} "
                f"samples x {n * n - n} cells), over the cap of {WITNESS_SAMPLE_CAP}")
    inst = snow_instance(k)
    report = SeparationReport(k=k, mode=mode, params={"seed": seed, "samples": samples})

    if mode == "full":
        if k > FULL_EVAL_MAX_K:
            raise CapExceeded(
                f"full evaluation is capped at k <= {FULL_EVAL_MAX_K}; "
                "use witness mode for larger domains")
        graph_f = graph_of(inst.f_op)
        formula = snow_pp_formula(k)
        defined = eval_formula(formula, {"T": graph_of(inst.t_op)})
        if defined == graph_f:
            report.checks.append(CheckResult(
                "formula-defines-graph", "PASS",
                f"formula evaluates to the {len(graph_f)}-tuple graph"))
        else:
            extra = len(set(defined.tuples) - set(graph_f.tuples))
            missing = len(set(graph_f.tuples) - set(defined.tuples))
            report.checks.append(CheckResult(
                "formula-defines-graph", "FAIL",
                f"{extra} extra and {missing} missing tuples"))
    else:
        report.checks.append(_witness_soundness(k, inst))
        report.checks.append(_witness_completeness(k, inst, samples, seed))

    n = inst.n
    if inst.t_op is not None and n ** (n * n) <= FRAGMENT_MAX_MAPS:
        fragment = clone_fragment(
            OperationSet.from_operations(inst.domain, [inst.t_op]), n)
        if fragment_contains(fragment, inst.f_op):
            report.checks.append(CheckResult(
                "separation", "FAIL", "separating function lies in the fragment"))
        else:
            report.checks.append(CheckResult(
                "separation", "PASS",
                f"separating function outside the {fragment.count(n)}-member fragment"))
    else:
        report.checks.append(CheckResult(
            "separation", "SKIP", f"fragment enumeration out of budget for k={k}"))
    return report
