"""Primitive positive definitions of a relation from a generating system.

Given relations Q = {rho_1..rho_t} and a generating system gamma_0 of a
relation rho_0 invariant under Pol(Q), the synthesis iterates, for every
relation and every selection of n = |gamma_0| of its tuples, over the rows
of the selected submatrix.  A row equal to a row of the gamma_0 matrix gets
that row's free variable, a fresh row gets the next existential variable;
each submatrix contributes one atom (deduplicated per relation).  By
construction the resulting formula is satisfied by every tuple of the
closure of gamma_0; it defines rho_0 exactly when gamma_0 generates rho_0
under Pol(Q), which validate_synthesis checks rather than assumes.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import CapExceeded, Domain, Relation
from .ppformula import PPFormula, RelationEnv, eval_formula

ROW_BUDGET = 100_000_000


@dataclass(frozen=True)
class GeneratingSystem:
    domain: Domain
    gamma0: tuple[tuple[int, ...], ...]   # the generating tuples, in order
    rows: tuple[tuple[int, ...], ...]     # matrix rows v_1..v_{m0}
    iota: dict                            # distinct row -> 1-based transversal index
    alpha: tuple[int, ...]                # alpha[j] = iota[rows[j]]

    @property
    def m0(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.gamma0)

    @property
    def m_prime(self) -> int:
        return len(self.iota)


def dedup_rows(gamma0_raw, domain: Domain) -> GeneratingSystem:
    """Build the transversal of distinct matrix rows, in order of first appearance."""
    # duplicate generators carry no information
    gamma0 = list(dict.fromkeys(tuple(t) for t in gamma0_raw))
    if not gamma0:
        raise ValueError("the generating system must be nonempty")
    m0 = len(gamma0[0])
    Relation(domain, m0, gamma0)    # checks the lengths and entries
    rows = tuple(tuple(t[j] for t in gamma0) for j in range(m0))
    iota: dict[tuple[int, ...], int] = {}
    alpha = []
    for v in rows:
        if v not in iota:
            iota[v] = len(iota) + 1
        alpha.append(iota[v])
    return GeneratingSystem(domain, tuple(gamma0), rows, iota, tuple(alpha))


@dataclass
class SynthesisResult:
    formula: PPFormula
    row_count: int                 # L = sum over relations of s^n * m
    atom_counts: dict              # relation name -> atoms kept after dedup
    exist_count: int               # q, the number of existential variables
    free_count: int                # m', distinct rows of gamma_0
    unseen_rows: int               # p, gamma rows never met among submatrix rows

    def stats_line(self) -> str:
        total = sum(self.atom_counts.values())
        return f"# L={self.row_count} atoms={total} exists={self.exist_count}"


def synthesize_ppdef(env: RelationEnv, gen: GeneratingSystem,
                     row_budget: int = ROW_BUDGET) -> SynthesisResult:
    """Assemble the defining formula; deterministic in the environment order."""
    if not isinstance(env, RelationEnv):
        env = RelationEnv(env)
    if env.domain != gen.domain:
        raise ValueError("relations and generating system domains differ")
    n = gen.n
    row_count = sum(len(rel) ** n * rel.arity for rel in env.values())
    if row_count > row_budget:
        raise CapExceeded(f"L = {row_count} rows exceed the budget of {row_budget}")

    var_of: dict[tuple[int, ...], str] = {}
    exist_count = 0
    atoms = []
    atom_counts = {}
    for name, rel in env.items():
        kept = []
        seen: set[tuple[str, ...]] = set()
        for selection in product(rel.tuples, repeat=n):
            symbols = []
            for j in range(rel.arity):
                z = tuple(col[j] for col in selection)
                sym = var_of.get(z)
                if sym is None:
                    if z in gen.iota:
                        sym = f"x{gen.iota[z]}"
                    else:
                        exist_count += 1
                        sym = f"y{exist_count}"
                    var_of[z] = sym
                symbols.append(sym)
            atom = tuple(symbols)
            if atom not in seen:
                seen.add(atom)
                kept.append((name, atom))
        atom_counts[name] = len(kept)
        atoms.extend(kept)

    free = tuple(f"x{i}" for i in range(1, gen.m_prime + 1))
    exist = tuple(f"y{i}" for i in range(1, exist_count + 1))
    formula = PPFormula(gen.domain, free, exist, tuple(atoms), gen.alpha)
    unseen = sum(1 for v in gen.iota if v not in var_of)
    return SynthesisResult(formula, row_count, atom_counts, exist_count,
                           gen.m_prime, unseen)


def validation_details(result: SynthesisResult, env, rho0: Relation):
    """(defines, extra tuples, missing tuples) of the formula against rho0."""
    defined = eval_formula(result.formula, env)
    if defined.arity != rho0.arity:
        raise ValueError(f"formula output arity {defined.arity} differs from "
                         f"goal arity {rho0.arity}")
    extra = tuple(sorted(set(defined.tuples) - set(rho0.tuples)))
    missing = tuple(sorted(set(rho0.tuples) - set(defined.tuples)))
    return (not extra and not missing), extra, missing


def validate_synthesis(result: SynthesisResult, env, rho0: Relation) -> bool:
    ok, _, _ = validation_details(result, env, rho0)
    return ok
