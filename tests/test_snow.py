import random
from itertools import product

import pytest

from cloneops import (CapExceeded, Domain, arrow_plan, commutes, evaluate,
                      graph_of, snow_f, snow_instance, snow_pp_formula,
                      snow_t, snow_t_value, verify_separation)


def test_t3_table_is_the_two_point_indicator(t3):
    assert t3.arity == 4
    for args in product(range(3), repeat=4):
        expect = 1 if args in ((1, 1, 2, 2), (1, 2, 1, 2)) else 0
        assert evaluate(t3, args) == expect


def test_t4_values():
    t4 = snow_t(4)
    assert t4.arity == 9
    assert evaluate(t4, (1, 2, 3, 1, 2, 3, 1, 2, 3)) == 1
    assert evaluate(t4, (1, 1, 1, 2, 2, 2, 3, 3, 3)) == 1
    assert evaluate(t4, (0, 1, 2, 2, 1, 1, 1, 2, 3)) == 0


def test_t3_kills_zero_entries(t3):
    assert evaluate(t3, (0, 1, 2, 2)) == 0


def test_snow_t_domain_errors():
    with pytest.raises(ValueError):
        snow_t(2)
    with pytest.raises(CapExceeded):
        snow_t(5)  # 5^16 table entries


def test_rule_preimage_and_kill_properties():
    rng = random.Random(11)
    for k in (3, 4, 5, 6):
        inst = snow_instance(k)
        n = k - 1
        assert snow_t_value(k, inst.p1) == 1
        assert snow_t_value(k, inst.p2) == 1
        seen_ones = 0
        for _ in range(300):
            args = [rng.randrange(k) for _ in range(n * n)]
            v = snow_t_value(k, args)
            if 0 in args or len(set(args)) < n:
                assert v == 0
            if v == 1:
                seen_ones += 1
                assert tuple(args) in (inst.p1, inst.p2)
        # the preimage of 1 is exactly the two special squares
        assert inst.p1 != inst.p2


def test_snow_f_tables():
    f3 = snow_f(3)
    assert f3.arity == 2
    assert [evaluate(f3, a) for a in product(range(3), repeat=2)] == \
        [0, 0, 0, 0, 0, 1, 0, 1, 0]
    f4 = snow_f(4)
    assert evaluate(f4, (1, 2, 3)) == 1
    assert evaluate(f4, (3, 2, 1)) == 1
    assert evaluate(f4, (2, 2, 2)) == 0
    for k in (3, 4, 5):
        assert evaluate(snow_f(k), (0,) * (k - 1)) == 0


def test_instance_fields():
    inst = snow_instance(4)
    assert inst.n == 3
    assert inst.up == (1, 2, 3)
    assert inst.down == (3, 2, 1)
    assert inst.t_op is not None
    inst5 = snow_instance(5)
    assert inst5.t_op is None          # beyond the materialisation cap
    assert inst5.f_op.arity == 4
    assert inst5.t_value(inst5.p1) == 1


def test_arrow_plan_consistency():
    for k in (3, 4, 5):
        n = k - 1
        plan = arrow_plan(n)
        inst = snow_instance(k)
        assert plan.anti[::-1] == plan.anti_reversed
        for i in range(n):
            # p1 has constant rows, p2 has constant columns with values 1..n
            assert {inst.p1[p] for p in plan.rows[i]} == {i + 1}
            assert {inst.p2[p] for p in plan.cols[i]} == {i + 1}
        # reading p2 along the anti-diagonal gives the reversed tuple
        assert tuple(inst.p2[p] for p in plan.anti) == inst.down
        assert tuple(inst.p1[p] for p in plan.anti) == inst.up


def test_formula_shape():
    phi3 = snow_pp_formula(3)
    assert len(phi3.atoms) == 5
    assert len(phi3.exist_vars) == 4
    phi4 = snow_pp_formula(4)
    assert len(phi4.atoms) == 5
    assert len(phi4.exist_vars) == 3 * 3 - 3 + 2
    for k in (3, 4, 5):
        n = k - 1
        for _, vars_ in snow_pp_formula(k).atoms:
            assert len(vars_) == n * n + 1


def test_formula_matches_reference_atoms():
    # square cells x11 x12 / x21 x22; anti-diagonal (x12, x21); value y
    phi = snow_pp_formula(3)
    assert phi.free_vars == ("x12", "x21", "y")
    assert phi.atoms == (
        ("T", ("x11", "x12", "x21", "x22", "y")),
        ("T", ("x12", "x21", "x12", "x21", "u")),
        ("T", ("x11", "x12", "x22", "x21", "u")),
        ("T", ("x21", "x12", "x21", "x12", "v")),
        ("T", ("x11", "x21", "x22", "x12", "v")),
    )


def test_f_commutes_with_every_binary_centraliser_member(f3, binary_centraliser):
    for g in binary_centraliser.members(2):
        assert commutes(f3, g)


def test_verify_full_k3():
    report = verify_separation(3, "full")
    assert report.passed
    text = report.render()
    assert "PASS formula-defines-graph" in text
    assert "PASS separation" in text


def test_verify_witness_k3():
    report = verify_separation(3, "witness", samples=2000, seed=1)
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == ["soundness-witnesses", "completeness-sampling", "separation"]


def test_verify_full_rejected_beyond_cap():
    with pytest.raises(CapExceeded):
        verify_separation(5, "full")


def test_verify_mode_validation():
    with pytest.raises(ValueError):
        verify_separation(3, "exhaustive")


def test_snow_f_size_checked_before_allocating():
    with pytest.raises(CapExceeded):
        snow_f(11)                      # 11^10 table entries
