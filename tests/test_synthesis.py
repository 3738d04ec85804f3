import random
from itertools import product

import pytest
from hypothesis import given, seed, settings, strategies as st

from cloneops import (CapExceeded, Domain, OperationSet, RelationEnv,
                      dedup_rows, emit_smt, emit_text, enumerate_polymorphisms,
                      eval_formula, full_relation, graph_of, relation, snow_f,
                      snow_t, subuniverse_closure, synthesize_ppdef,
                      validate_synthesis, validation_details)
import cloneops.synthesis as synthesis
from cloneops.ppformula import PPFormula
from cloneops.synthesis import SynthesisResult


def closure_oracle(env, gamma0):
    """Independent oracle: close gamma0 under the brute-forced polymorphisms."""
    polys = enumerate_polymorphisms(list(env.values()), max(len(gamma0), 1))
    return subuniverse_closure(gamma0, polys)


def reference_synthesis(env, gen):
    """The formula by the definition: a loop over every selection of every
    relation, naming each column of the selected submatrix by its gamma
    row or the next existential, one atom per selection, repeats dropped."""
    n = gen.n
    var_of = {}
    exist_count = 0
    atoms = []
    atom_counts = {}
    for name, rel in env.items():
        kept = []
        seen = set()
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
    row_count = sum(len(rel) ** n * rel.arity for rel in env.values())
    return SynthesisResult(formula, row_count, atom_counts, exist_count,
                           gen.m_prime, unseen)


def _assert_same_synthesis(env, gen):
    got, want = synthesize_ppdef(env, gen), reference_synthesis(env, gen)
    assert emit_text(got.formula) == emit_text(want.formula)
    assert got.stats_line() == want.stats_line()
    assert got.atom_counts == want.atom_counts
    assert (got.unseen_rows, got.free_count) == (want.unseen_rows, want.free_count)
    # distinct selections always give distinct atoms
    n = gen.n
    assert got.atom_counts == {name: len(rel) ** n for name, rel in env.items()}
    return got


def test_synthesis_matches_reference():
    """2-3 relations of different arities (some empty), so the existentials
    are numbered across them; generating systems with repeated tuples and
    repeated matrix rows, over values the relations never take."""
    rng = random.Random(16)
    unseen = 0
    for _ in range(150):
        k = rng.choice([2, 3, 300])
        dom = Domain(k)
        values = rng.sample(range(k), min(k, 3))
        env = {}
        for i in range(rng.randint(2, 3)):
            ar = rng.randint(1, 3)
            env[f"R{i}"] = relation(dom, ar, {tuple(rng.choices(values, k=ar))
                                              for _ in range(rng.randint(0, 4))})
        m0 = rng.randint(1, 4)
        gamma0 = [tuple(rng.choice(range(k)) if rng.random() < 0.2 else rng.choice(values)
                        for _ in range(m0)) for _ in range(rng.randint(1, 3))]
        gamma0 += rng.sample(gamma0, rng.randint(0, len(gamma0)))
        unseen += _assert_same_synthesis(RelationEnv(env), dedup_rows(gamma0, dom)).unseen_rows
    assert unseen


def test_synthesis_matches_reference_beyond_key_width():
    # 65 generating tuples: a column of a selection has 65 entries over
    # k = 2, wider than an integer key, and is keyed by its bytes
    d2 = Domain(2)
    gamma0 = list(product(range(2), repeat=7))[:65]
    env = RelationEnv({"R": relation(d2, 3, [(0, 1, 1)]), "U": relation(d2, 1, [(1,)]),
                       "E": relation(d2, 2, [])})
    result = _assert_same_synthesis(env, dedup_rows(gamma0, d2))
    assert result.exist_count == 2 and result.unseen_rows == 7


def test_dedup_rows_examples(d3):
    gen = dedup_rows([(0, 1, 0), (1, 0, 1)], Domain(2))
    # rows (0,1), (1,0), (0,1): third equals the first
    assert gen.m_prime == 2
    assert gen.alpha == (1, 2, 1)

    gen2 = dedup_rows([(0, 1), (1, 0)], Domain(2))
    assert gen2.alpha == (1, 2)
    assert gen2.m_prime == gen2.m0 == 2

    gen3 = dedup_rows([(1, 2, 1), (2, 1, 1)], d3)
    assert gen3.rows == ((1, 2), (2, 1), (1, 1))
    assert gen3.m_prime == 3 and gen3.alpha == (1, 2, 3)


def test_dedup_rows_validation(d3):
    with pytest.raises(ValueError):
        dedup_rows([], d3)
    with pytest.raises(ValueError):
        dedup_rows([(0, 1), (0,)], d3)
    with pytest.raises(ValueError):
        dedup_rows([(0, 3)], d3)


def test_golden_example(d3, t3, f3):
    env = RelationEnv({"T": graph_of(t3)})
    gen = dedup_rows([(1, 2, 1), (2, 1, 1)], d3)
    result = synthesize_ppdef(env, gen)
    assert result.exist_count == 6
    assert result.atom_counts == {"T": 6561}
    assert result.row_count == 5 * 81 * 81
    assert result.stats_line() == "# L=32805 atoms=6561 exists=6"
    assert validate_synthesis(result, env, graph_of(f3))


def test_no_fresh_rows_means_no_existentials():
    d2 = Domain(2)
    env = RelationEnv({"R": relation(d2, 2, [(0, 1)])})
    gen = dedup_rows([(0, 1)], d2)
    result = synthesize_ppdef(env, gen)
    assert result.exist_count == 0
    assert result.formula.exist_vars == ()


def test_diagonal_example_defines_full_unary():
    d2 = Domain(2)
    diag = relation(d2, 2, [(0, 0), (1, 1)])
    env = RelationEnv({"E": diag})
    gen = dedup_rows([(0,), (1,)], d2)
    result = synthesize_ppdef(env, gen)
    assert result.row_count == 2 ** 2 * 2
    oracle = closure_oracle(env, [(0,), (1,)])
    assert eval_formula(result.formula, env) == oracle == full_relation(d2, 1)


def test_unseen_gamma_row_stays_free():
    d2 = Domain(2)
    env = RelationEnv({"Z": relation(d2, 1, [(0,)])})
    gen = dedup_rows([(1,)], d2)
    result = synthesize_ppdef(env, gen)
    assert result.unseen_rows == 1
    assert result.formula.unconstrained_free == ("x1",)
    # the closure oracle agrees: the defined relation is all of A
    assert eval_formula(result.formula, env) == closure_oracle(env, [(1,)])


def test_soundness_closure_always_satisfies():
    rng = random.Random(13)
    d2 = Domain(2)
    for _ in range(40):
        m0 = rng.randint(1, 3)
        env = RelationEnv({
            f"R{i}": relation(
                d2, ar := rng.randint(1, 3),
                rng.sample(list(product(range(2), repeat=ar)),
                           rng.randint(1, 2 ** ar)))
            for i in range(rng.randint(1, 2))})
        gamma0 = [tuple(rng.randrange(2) for _ in range(m0))
                  for _ in range(rng.randint(1, 3))]
        gen = dedup_rows(gamma0, d2)
        result = synthesize_ppdef(env, gen)
        closure = closure_oracle(env, gamma0)
        defined = set(eval_formula(result.formula, env).tuples)
        assert set(closure.tuples) <= defined


def test_exactness_on_generated_invariants():
    rng = random.Random(14)
    d2 = Domain(2)
    for _ in range(60):
        m0 = rng.randint(1, 3)
        env = RelationEnv({
            f"R{i}": relation(
                d2, ar := rng.randint(1, 3),
                rng.sample(list(product(range(2), repeat=ar)),
                           rng.randint(1, 2 ** ar)))
            for i in range(rng.randint(1, 2))})
        gamma0 = [tuple(rng.randrange(2) for _ in range(m0))
                  for _ in range(rng.randint(1, 3))]
        gen = dedup_rows(gamma0, d2)
        rho0 = closure_oracle(env, gamma0)
        result = synthesize_ppdef(env, gen)
        assert validate_synthesis(result, env, rho0)


@st.composite
def _k3_instances(draw):
    """Q: 1-2 relations of arity 1-2 over k=3; gamma0: 1-2 tuples of arity 1-3."""
    d3 = Domain(3)
    env = {}
    for i in range(draw(st.integers(1, 2))):
        points = list(product(range(3), repeat=draw(st.integers(1, 2))))
        env[f"R{i}"] = relation(d3, len(points[0]), draw(st.lists(
            st.sampled_from(points), max_size=len(points), unique=True)))
    m0 = draw(st.integers(1, 3))
    gamma0 = draw(st.lists(st.tuples(*[st.integers(0, 2)] * m0),
                           min_size=1, max_size=2, unique=True))
    return RelationEnv(env), gamma0


@seed(2020)
@settings(max_examples=100, deadline=None)
@given(_k3_instances())
def test_synthesis_matches_closure_oracle_k3(instance):
    env, gamma0 = instance
    result = synthesize_ppdef(env, dedup_rows(gamma0, Domain(3)))
    assert validate_synthesis(result, env, closure_oracle(env, gamma0))


def test_stats_law():
    rng = random.Random(15)
    d2 = Domain(2)
    for _ in range(20):
        env = RelationEnv({
            f"R{i}": relation(
                d2, ar := rng.randint(1, 2),
                rng.sample(list(product(range(2), repeat=ar)),
                           rng.randint(1, 2 ** ar)))
            for i in range(rng.randint(1, 3))})
        gamma0 = [tuple(rng.randrange(2) for _ in range(2))
                  for _ in range(rng.randint(1, 2))]
        gen = dedup_rows(gamma0, d2)
        result = synthesize_ppdef(env, gen)
        n = gen.n
        assert result.row_count == sum(
            len(rel.tuples) ** n * rel.arity for rel in env.values())
        for name, rel in env.items():
            assert result.atom_counts[name] <= len(rel.tuples) ** n


def test_determinism(d3, t3):
    env = RelationEnv({"T": graph_of(t3)})
    gen = dedup_rows([(1, 2, 1), (2, 1, 1)], d3)
    a = emit_text(synthesize_ppdef(env, gen).formula)
    b = emit_text(synthesize_ppdef(env, gen).formula)
    assert a == b


def test_truncated_atoms_reported(d3, t3, f3):
    env = RelationEnv({"T": graph_of(t3)})
    gen = dedup_rows([(1, 2, 1), (2, 1, 1)], d3)
    result = synthesize_ppdef(env, gen)
    truncated = SynthesisResult(
        PPFormula(d3, result.formula.free_vars, result.formula.exist_vars,
                  result.formula.atoms[:100], result.formula.alpha),
        result.row_count, result.atom_counts, result.exist_count,
        result.free_count, result.unseen_rows)
    ok, extra, missing = validation_details(truncated, env, graph_of(f3))
    assert not ok
    assert extra and not missing  # dropping constraints only enlarges


def test_row_budget(d3, t3):
    env = RelationEnv({"T": graph_of(t3)})
    gen = dedup_rows([(1, 2, 1), (2, 1, 1)], d3)
    with pytest.raises(CapExceeded):
        synthesize_ppdef(env, gen, row_budget=1000)


@pytest.mark.parametrize("row_budget", [0, -1])
def test_row_budget_below_one_rejected_before_any_work(d3, t3, row_budget, monkeypatch):
    env = RelationEnv({"T": graph_of(t3)})
    gen = dedup_rows([(1, 2, 1), (2, 1, 1)], d3)

    def no_work(*args, **kwargs):
        raise AssertionError("work began before the row budget check")
    monkeypatch.setattr(RelationEnv, "__iter__", no_work)
    monkeypatch.setattr(synthesis, "_digit_matrix", no_work)
    with pytest.raises(ValueError, match=f"row budget must be at least 1, got {row_budget}"):
        synthesize_ppdef(env, gen, row_budget=row_budget)


def test_smt_for_synthesized_formula_counts_atoms(d3, t3, f3):
    env = RelationEnv({"T": graph_of(t3)})
    gen = dedup_rows([(1, 2, 1), (2, 1, 1)], d3)
    result = synthesize_ppdef(env, gen)
    script = emit_smt(result.formula, env, graph_of(f3))
    assert script.count("(mem_T") == 6561
