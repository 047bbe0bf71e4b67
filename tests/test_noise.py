"""Noise operator, optimal prediction, stability — exact, against slow oracles."""

import random
from fractions import Fraction

import numpy as np
import pytest

from boolsp import (
    BooleanFunction,
    InvalidArgument,
    LtfSpec,
    closeness_to_sp,
    construct_ltf,
    construct_named,
    is_sp,
    noise_operator,
    optimal_predictor,
    prediction_gain,
    properties,
    stability_report,
)

import oracles

RHO_GRID = [Fraction(0), Fraction(1, 8), Fraction(1, 3), Fraction(1, 2),
            Fraction(7, 9), Fraction(1)]


def random_fn(rng, n):
    return BooleanFunction.from_values([rng.choice((-1, 1)) for _ in range(1 << n)])


def test_rho_domain():
    f = construct_named("majority", 3)
    with pytest.raises(InvalidArgument):
        noise_operator(f, Fraction(3, 2))
    with pytest.raises(InvalidArgument):
        noise_operator(f, Fraction(-1, 10))


def test_majority3_at_half():
    f = construct_named("majority", 3)
    vals = noise_operator(f, Fraction(1, 2))
    assert vals[0] == Fraction(11, 16)
    assert vals[4] == Fraction(5, 16)
    assert vals[7] == Fraction(-11, 16)


def test_three_routes_agree():
    rng = random.Random(21)
    for _ in range(25):
        n = rng.randint(1, 4)
        f = random_fn(rng, n)
        for rho in RHO_GRID:
            fast = noise_operator(f, rho)
            outside = oracles.t_rho(oracles.table(f), n, rho)
            assert list(fast) == outside


def test_rho_endpoints():
    rng = random.Random(22)
    for _ in range(20):
        n = rng.randint(1, 4)
        f = random_fn(rng, n)
        mean = Fraction(int(f.values.sum()), 1 << n)
        assert all(v == mean for v in noise_operator(f, Fraction(0)))
        assert list(noise_operator(f, Fraction(1))) == f.values.tolist()


def test_big_denominator_falls_back_to_exact():
    # q^n alone overflows int64: the python-int path must kick in silently
    f = construct_named("majority", 5)
    rho = Fraction(999999999999, 10**13)
    vals = noise_operator(f, rho)
    assert vals[0] == oracles.t_rho(oracles.table(f), 5, rho)[0]


def test_predictor_tie_rules():
    f = construct_named("character", 2, coords=[1, 2])  # balanced
    zero = optimal_predictor(f, Fraction(0), tie_rule="zero")
    assert zero.values.tolist() == [0, 0, 0, 0]
    keep = optimal_predictor(f, Fraction(0), tie_rule="keep")
    assert keep.values.tolist() == f.values.tolist()
    with pytest.raises(InvalidArgument):
        optimal_predictor(f, Fraction(0), tie_rule="drop")
    with pytest.raises(InvalidArgument):
        zero.to_boolean()


def test_predictor_matches_oracle_signs():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 4)
        f = random_fn(rng, n)
        for rho in (Fraction(1, 3), Fraction(4, 5)):
            pred = optimal_predictor(f, rho)
            ts = oracles.t_rho(oracles.table(f), n, rho)
            for v, t in enumerate(ts):
                want = 0 if t == 0 else (1 if t > 0 else -1)
                assert pred.values[v] == want


def test_predictor_preserves_structure():
    rng = random.Random(24)
    seen = 0
    while seen < 20:
        n = rng.randint(2, 5)
        a = tuple(2 * rng.randint(0, 3) + 1 for _ in range(n))
        a0 = 1 - (n % 2)
        f = construct_ltf(LtfSpec(a0, a))
        props = properties(f)
        seen += 1
        for rho in (Fraction(1, 4), Fraction(3, 5)):
            g = optimal_predictor(f, rho, tie_rule="keep").to_boolean()
            gprops = properties(g)
            assert gprops.monotone >= props.monotone
            if props.odd:
                assert gprops.odd
            if props.even:
                assert gprops.even
            if props.symmetric:
                assert gprops.symmetric


def test_stability_against_oracle():
    rng = random.Random(25)
    for _ in range(15):
        n = rng.randint(1, 3)
        f = random_fn(rng, n)
        for rho in (Fraction(0), Fraction(2, 7), Fraction(1, 2), Fraction(1)):
            rep = stability_report(f, rho)
            assert rep.stab == oracles.stability(oracles.table(f), n, rho)
            ts = oracles.t_rho(oracles.table(f), n, rho)
            assert rep.stab_star == sum(abs(t) for t in ts) / (1 << n)
            assert rep.ns == (1 - rep.stab) / 2
            assert rep.ns_star == (1 - rep.stab_star) / 2


def test_stability_star_dominates():
    rng = random.Random(26)
    for _ in range(30):
        n = rng.randint(1, 4)
        f = random_fn(rng, n)
        for rho in RHO_GRID:
            rep = stability_report(f, rho)
            assert rep.stab <= rep.stab_star
            # equality certifies self-prediction and vice versa
            assert (rep.stab == rep.stab_star) == is_sp(f, rho).sp


def test_noise_sensitivity_sandwich():
    rng = random.Random(27)
    for _ in range(30):
        n = rng.randint(1, 4)
        f = random_fn(rng, n)
        balanced = int(f.values.sum()) == 0
        for rho in RHO_GRID:
            rep = stability_report(f, rho)
            assert rep.ns / 2 <= rep.ns_star <= rep.ns
            if balanced:
                assert rep.ns / (1 + rho) <= rep.ns_star


def test_two_step_stability():
    rng = random.Random(28)
    for _ in range(30):
        n = rng.randint(1, 4)
        f = random_fn(rng, n)
        for rho in RHO_GRID:
            star = stability_report(f, rho).stab_star
            assert star * star <= stability_report(f, rho * rho).stab


def test_closeness():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(1, 4)
        f = random_fn(rng, n)
        for rho in (Fraction(1, 5), Fraction(1, 2), Fraction(9, 10)):
            rep = closeness_to_sp(f, rho)
            assert rep.bound == 1 - stability_report(f, rho).stab
            assert 0 <= rep.distance <= rep.bound
            assert (rep.distance == 0) == is_sp(f, rho).sp
            strict = closeness_to_sp(f, rho, ties_agree=False)
            assert strict.distance >= rep.distance


def test_closeness_or3():
    # OR(3) at rho=1/2: the top point flips, nothing else
    f = construct_named("or", 3)
    rep = closeness_to_sp(f, Fraction(1, 2))
    assert rep.distance == Fraction(1, 8)


def test_prediction_gain():
    rng = random.Random(30)
    for _ in range(30):
        n = rng.randint(1, 4)
        f = random_fn(rng, n)
        rep = stability_report(f, Fraction(1, 3))
        if rep.stab == 0:
            continue
        gain = prediction_gain(f, Fraction(1, 3))
        assert gain.ratio >= 1
        assert gain.khintchine_ok
        # Khintchine bracketing, spelled out
        assert gain.w1 / 2 <= gain.l1_level1**2 <= gain.w1


def test_prediction_gain_majority3():
    gain = prediction_gain(construct_named("majority", 3), Fraction(1, 2))
    assert gain.l1_level1 == Fraction(3, 4)
    assert gain.w1 == Fraction(3, 4)
    assert gain.ratio == 1
