"""The separating construction on k-element domains, k >= 3.

T is the (k-1)^2-ary operation valued 1 exactly on the two squares p1
(constant rows 1..n) and p2 (every row is 1..n), and 0 elsewhere.  The
(k-1)-ary function f is valued 1 exactly on (1..n) and (n..1).  The graph
of f is definable from the graph of T by a five-atom primitive positive
formula whose free variables are the anti-diagonal of an n-by-n variable
square plus the value variable; this module builds the formula, the square
index machinery behind it, and a verification report (full evaluation for
small k, witness construction plus randomised completeness sampling beyond).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import __version__
from .core import CapExceeded, Domain, Operation, graph_of, sparse_op
from .commutation import OperationSet
from .clonegen import clone_fragment, fragment_contains
from .ppformula import PPFormula, eval_formula

T_TABLE_CAP = 10_000_000
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


def square_p1(k: int) -> tuple[int, ...]:
    """Row i constant with value i, fed row-wise."""
    n = k - 1
    return tuple(i for i in range(1, n + 1) for _ in range(n))


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


def snow_t(k: int, entry_cap: int = T_TABLE_CAP) -> Operation:
    _check_k(k)
    n = k - 1
    if k ** (n * n) > entry_cap:
        raise CapExceeded(
            f"table of the {n * n}-ary operation over k={k} has {k ** (n * n)} entries")
    return sparse_op(Domain(k), n * n, {square_p1(k): 1, square_p2(k): 1})


def snow_f(k: int) -> Operation:
    _check_k(k)
    if k ** (k - 1) > T_TABLE_CAP:
        raise CapExceeded(
            f"table of the {k - 1}-ary function over k={k} has {k ** (k - 1)} entries")
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


def snow_instance(k: int, entry_cap: int = T_TABLE_CAP) -> SnowInstance:
    _check_k(k)
    n = k - 1
    try:
        t_op = snow_t(k, entry_cap)
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


def snow_pp_formula(k: int, relation_name: str = "T") -> PPFormula:
    """The five-atom definition of graph(f) from graph(T).

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
        (relation_name, square_vars + ("y",)),
        (relation_name, tuple(cells[p] for p in plan.anti) * n + ("u",)),
        (relation_name, tuple(cells[p] for p in _atom3_positions(plan)) + ("u",)),
        (relation_name, tuple(cells[p] for p in plan.anti_reversed) * n + ("v",)),
        (relation_name, tuple(cells[p] for p in _atom5_positions(plan)) + ("v",)),
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


def _rule_values(k: int, squares: np.ndarray) -> np.ndarray:
    """Vectorised T rule on a batch of flat squares."""
    n = k - 1
    p1 = np.array(square_p1(k), dtype=squares.dtype)
    p2 = np.array(square_p2(k), dtype=squares.dtype)
    return ((squares == p1).all(axis=1) | (squares == p2).all(axis=1)).astype(np.uint8)


def _witness_soundness(k: int, inst: SnowInstance) -> CheckResult:
    """Exact check that every graph tuple has an explicit witness square.

    For (up, 1) and (down, 1) the witnesses are p1 and p2; for every other
    argument tuple x the square holding x on the anti-diagonal and 0
    elsewhere witnesses (x, 0).
    """
    n = inst.n
    plan = inst.arrows
    a3 = np.array(_atom3_positions(plan))
    a5 = np.array(_atom5_positions(plan))
    anti = np.array(plan.anti)
    xs = np.array(list(product(range(k), repeat=n)), dtype=np.uint8)
    squares = np.zeros((len(xs), n * n), dtype=np.uint8)
    squares[:, anti] = xs
    is_up = (xs == np.array(inst.up, dtype=np.uint8)).all(axis=1)
    is_down = (xs == np.array(inst.down, dtype=np.uint8)).all(axis=1)
    squares[is_up] = np.array(inst.p1, dtype=np.uint8)
    squares[is_down] = np.array(inst.p2, dtype=np.uint8)
    expected_y = np.where(is_up | is_down, 1, 0).astype(np.uint8)

    u0 = _rule_values(k, np.tile(xs, (1, n)))
    v0 = _rule_values(k, np.tile(xs[:, ::-1], (1, n)))
    ok = (_rule_values(k, squares) == expected_y)
    ok &= _rule_values(k, squares[:, a3]) == u0
    ok &= _rule_values(k, squares[:, a5]) == v0
    bad = int((~ok).sum())
    if bad:
        return CheckResult("soundness-witnesses", "FAIL",
                           f"{bad} of {len(xs)} graph tuples have no witness")
    return CheckResult("soundness-witnesses", "PASS",
                       f"all {len(xs)} graph tuples witnessed")


def _witness_completeness(k: int, inst: SnowInstance, samples: int,
                          seed: int) -> CheckResult:
    """Randomised search for free tuples outside graph(f) satisfying the formula.

    Cells off the anti-diagonal are sampled uniformly; the two comparison
    variables are determined by their defining atoms, so each sample decides
    satisfiability of the sampled square exactly.
    """
    n = inst.n
    plan = inst.arrows
    a3 = np.array(_atom3_positions(plan))
    a5 = np.array(_atom5_positions(plan))
    anti = np.array(plan.anti)
    others = np.array([p for p in range(n * n) if p not in set(plan.anti)])
    rng = np.random.default_rng(seed)
    graph_members = {inst.up: 1, inst.down: 1}
    violations = 0
    tuples_checked = 0
    for x in product(range(k), repeat=n):
        fx = graph_members.get(x, 0)
        for y in range(k):
            if y == fx:
                continue  # in graph(f): nothing to refute
            tuples_checked += 1
            xv = np.array(x, dtype=np.uint8)
            u0 = int(_rule_values(k, np.tile(xv, n)[None, :])[0])
            v0 = int(_rule_values(k, np.tile(xv[::-1], n)[None, :])[0])
            squares = np.zeros((samples, n * n), dtype=np.uint8)
            squares[:, anti] = xv
            squares[:, others] = rng.integers(0, k, size=(samples, len(others)),
                                              dtype=np.uint8)
            sat = _rule_values(k, squares) == y
            sat &= _rule_values(k, squares[:, a3]) == u0
            sat &= _rule_values(k, squares[:, a5]) == v0
            violations += int(sat.sum())
    if violations:
        return CheckResult("completeness-sampling", "FAIL",
                           f"{violations} satisfying samples outside the graph")
    return CheckResult("completeness-sampling", "PASS",
                       f"no violation in {tuples_checked}x{samples} samples")


def verify_separation(k: int, mode: str = "full", samples: int = 100_000,
                      seed: int = 0, fragment_cap: int = 1_000_000) -> SeparationReport:
    """Check that the formula defines graph(f) and that f is outside the fragment.

    Full mode evaluates the formula exhaustively (k <= 4); witness mode checks
    the explicit witness squares and samples the completeness direction.
    """
    _check_k(k)
    if mode not in ("full", "witness"):
        raise ValueError(f"unknown mode {mode!r}")
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
            OperationSet.from_operations(inst.domain, [inst.t_op]), n, cap=fragment_cap)
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
