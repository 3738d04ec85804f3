"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with its elapsed time against the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite takes a few minutes (the ternary enumeration and the
k=5 sampling dominate).
"""
import hashlib
import random
import time
from itertools import product

import pytest

from cloneops import (Domain, OperationSet, RelationEnv, clone_fragment,
                      commutes, dedup_rows, enumerate_centraliser,
                      enumerate_polymorphisms, eval_formula, fragment_contains,
                      full_relation, graph_of, make_projection, preserves,
                      relation, snow_f, snow_pp_formula, snow_t,
                      subuniverse_closure, synthesize_ppdef,
                      validate_synthesis, verify_separation)
from cloneops.commutation import all_tables
from test_commutation import expected_binary_catalog

TERNARY_CANDIDATE_BOUND = 65 ** 3 * 3 ** 6     # 200,201,625
TERNARY_COUNT = 1_048_578
TERNARY_CANDIDATES = 27_695_439     # diagonal-compatible triples times fillings
TERNARY_SHA256 = "626305562eaab2974b8672d94cf105e0687aa25d3dd4c219a5c76e3c06f57baf"


class _Timer:
    def __init__(self, number, label, budget_s):
        self.number, self.label, self.budget = number, label, budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.number}: {self.label} "
              f"({elapsed:.2f}s, budget {self.budget}s)")
        if exc_type is None:
            assert elapsed <= self.budget, \
                f"criterion {self.number} exceeded its {self.budget}s budget"


@pytest.fixture(scope="module")
def ternary_result(t3_set):
    start = time.perf_counter()
    result, stats = enumerate_centraliser(t3_set, 3, return_stats=True)
    return result, stats, time.perf_counter() - start


def test_criterion_01_unary_centraliser(d3, t3_set):
    from cloneops import Operation
    with _Timer(1, "unary centraliser is {identity} + three maps killing 0,1", 1):
        got = enumerate_centraliser(t3_set, 1)
        expected = OperationSet.from_operations(
            d3, [make_projection(d3, 1, 1)]
            + [Operation(d3, 1, (0, 0, a)) for a in range(3)])
        assert got == expected
        assert got.count(1) == 4


def test_criterion_02_binary_centraliser(d3, t3_set):
    with _Timer(2, "binary centraliser is exactly the 65 tabulated operations", 30):
        got = enumerate_centraliser(t3_set, 2)
        assert got.count(2) == 65
        assert got == expected_binary_catalog(d3)


def test_criterion_03_ternary_centraliser(ternary_result):
    result, stats, elapsed = ternary_result
    ok = result.count(3) == TERNARY_COUNT and stats.candidates <= TERNARY_CANDIDATE_BOUND
    print(f"{'PASS' if ok else 'FAIL'} criterion 3: ternary centraliser has "
          f"{result.count(3)} members, {stats.candidates} candidates explored "
          f"({elapsed:.2f}s, budget 14400s)")
    assert result.count(3) == TERNARY_COUNT
    assert stats.candidates <= TERNARY_CANDIDATE_BOUND
    assert elapsed <= 14400
    digest = hashlib.sha256(result.tables(3).tobytes()).hexdigest()
    print(f"  ternary slice sha256 {digest}")
    assert stats.candidates == TERNARY_CANDIDATES
    assert digest == TERNARY_SHA256


def test_criterion_03b_ternary_spot_checks(d3, t3, ternary_result, binary_centraliser):
    # independent spot verification with the scalar early-abort check
    result, _, _ = ternary_result
    tables = result.tables(3)
    rng = random.Random(0)
    from cloneops import Operation, minor
    for i in rng.sample(range(len(tables)), 12):
        g = Operation(d3, 3, tuple(int(v) for v in tables[i]))
        assert commutes(g, t3)
        for var_map in ((1, 1, 2), (1, 2, 1), (2, 1, 1)):
            assert minor(g, var_map, 2) in binary_centraliser
    in_set = {bytes(t) for t in tables}
    rejected = 0
    while rejected < 12:
        cand = tuple(rng.randrange(3) for _ in range(27))
        if bytes(cand) not in in_set:
            assert not commutes(Operation(d3, 3, cand), t3)
            rejected += 1


def test_criterion_04_clone_fragments(d3, t3_set):
    with _Timer(4, "fragments of the generated clone at arities 1 and 2", 1):
        from cloneops import make_constant, sparse_op
        f1 = clone_fragment(t3_set, 1)
        assert f1 == OperationSet.from_operations(
            d3, [make_projection(d3, 1, 1), make_constant(d3, 1, 0)])
        f2 = clone_fragment(t3_set, 2)
        assert f2 == OperationSet.from_operations(d3, [
            make_projection(d3, 2, 1), make_projection(d3, 2, 2),
            make_constant(d3, 2, 0),
            sparse_op(d3, 2, {(1, 2): 1}), sparse_op(d3, 2, {(2, 1): 1})])


def test_criterion_05_unique_separating_binary(d3, t3_set, f3, binary_centraliser):
    with _Timer(5, "second-level binary slice equals the fragment plus f", 120):
        second = enumerate_centraliser(binary_centraliser, 2)
        expected = OperationSet.from_operations(
            d3, list(clone_fragment(t3_set, 2).members(2)) + [f3])
        assert second == expected
        assert second.count(2) == 6


def test_criterion_06_formula_k3(t3, f3):
    with _Timer(6, "five-atom formula defines the 9-tuple graph at k=3", 1):
        phi = snow_pp_formula(3)
        assert len(phi.atoms) == 5
        assert len(phi.exist_vars) == 4
        result = eval_formula(phi, {"T": graph_of(t3)})
        assert result == graph_of(f3)
        assert len(result) == 9


def test_criterion_07_formula_k4_full():
    with _Timer(7, "full evaluation at k=4 equals the 64-tuple graph", 300):
        result = eval_formula(snow_pp_formula(4), {"T": graph_of(snow_t(4))})
        goal = graph_of(snow_f(4))
        assert result == goal
        assert len(result) == 64
        assert sum(1 for t in result.tuples if t[-1] == 1) == 2


def test_criterion_07_witness_k5():
    with _Timer(7, "k=5 witness soundness and sampled completeness", 600):
        report = verify_separation(5, "witness", samples=100_000, seed=0)
        by_name = {c.name: c.status for c in report.checks}
        assert by_name["soundness-witnesses"] == "PASS"
        assert by_name["completeness-sampling"] == "PASS"


def test_criterion_08_separation_k3(t3_set, f3):
    with _Timer(8, "f outside the binary fragment at k=3", 1):
        assert not fragment_contains(clone_fragment(t3_set, 2), f3)


def test_criterion_08_separation_k4():
    with _Timer(8, "f outside the ternary fragment at k=4", 600):
        d4 = Domain(4)
        gens = OperationSet.from_operations(d4, [snow_t(4)])
        assert not fragment_contains(clone_fragment(gens, 3), snow_f(4))


def test_criterion_09_synthesis_golden(d3, t3, f3):
    with _Timer(9, "synthesis: 6 existentials, 6561 atoms, L=32805, validates", 300):
        env = RelationEnv({"T": graph_of(t3)})
        result = synthesize_ppdef(env, dedup_rows([(1, 2, 1), (2, 1, 1)], d3))
        assert result.exist_count == 6
        assert sum(result.atom_counts.values()) == 6561
        assert result.row_count == 32805
        assert validate_synthesis(result, env, graph_of(f3))


def test_criterion_10_generating_set(d3, t3_set, f3):
    with _Timer(10, "closing the 2-element set under both slices gives graph(f)", 10):
        slices = OperationSet.from_operations(
            d3, list(enumerate_centraliser(t3_set, 1).members())
            + list(enumerate_centraliser(t3_set, 2).members()))
        closure = subuniverse_closure({(1, 2, 1), (2, 1, 1)}, slices)
        assert closure == graph_of(f3)


def test_criterion_11_property_suite():
    with _Timer(11, "synthesis equals the closure oracle on 220 k=2 instances", 300):
        rng = random.Random(42)
        d2 = Domain(2)
        checked = 0
        while checked < 220:
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
            polys = enumerate_polymorphisms(list(env.values()), gen.n)
            rho0 = subuniverse_closure(gamma0, polys)
            result = synthesize_ppdef(env, gen)
            assert validate_synthesis(result, env, rho0), \
                f"mismatch on instance {checked}: env={dict(env)}, gamma0={gamma0}"
            checked += 1


def test_criterion_12_structural_invariants(d3, t3, t3_set, binary_centraliser):
    with _Timer(12, "symmetry, graph equivalence, projections, conservativity,"
                    " implications", 120):
        from cloneops import Operation
        from cloneops.commutation import preserve_mask
        # commutation symmetry, exhaustively for all unary pairs
        unaries = [Operation(d3, 1, t) for t in product(range(3), repeat=3)]
        for f in unaries:
            for g in unaries:
                assert commutes(f, g) == commutes(g, f)
        # and exhaustively for every unary against every binary table
        binaries = all_tables(d3, 2)
        for u in unaries:
            forward = preserve_mask(binaries, graph_of(u), 2)
            backward = [commutes(u, Operation(d3, 2, tuple(int(v) for v in row)))
                        for row in binaries]
            assert list(forward) == backward
        # commutes <=> preserves graph on sampled pairs
        rng = random.Random(3)
        for _ in range(40):
            fa, ga = rng.choice([1, 2]), rng.choice([1, 2])
            f = Operation(d3, fa, tuple(rng.randrange(3) for _ in range(3 ** fa)))
            g = Operation(d3, ga, tuple(rng.randrange(3) for _ in range(3 ** ga)))
            assert commutes(g, f) == preserves(g, graph_of(f))
        # projections commute with everything in the binary centraliser
        for n in (1, 2):
            for i in range(1, n + 1):
                proj = make_projection(d3, n, i)
                for g in binary_centraliser.members(2):
                    assert commutes(proj, g)
        # almost-conservativity and the four implications over T^{*(1)*(2)}
        approx = enumerate_centraliser(enumerate_centraliser(t3_set, 1), 2)
        zero_unaries = [relation(d3, 1, [(v,) for v in sorted(s)])
                        for s in [{0}, {0, 1}, {0, 2}, {0, 1, 2}]]
        eq_01 = relation(d3, 2, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
        for g in approx.members(2):
            for rel in zero_unaries + [eq_01, full_relation(d3, 2)]:
                assert preserves(g, rel)
            for a in range(3):
                if g(1, 2) == 2:
                    assert g(0, a) == a
                if g(2, 1) == 2:
                    assert g(a, 0) == a
                if g(1, 2) in (0, 1):
                    assert g(0, a) == 0
                if g(2, 1) in (0, 1):
                    assert g(a, 0) == 0
