import math
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from uncoiledtl.scalars import (EXACT, NonGenericParameterError, ParamEnv,
                                _int_to_str, qbinom, qfact, qnum, qnum_at,
                                sample_env, scalar_from_json, scalar_to_json,
                                validate_env)


def test_qnum_basics():
    env = sample_env(0, "aTL", 4)
    assert qnum(1, env) == 1
    assert qnum(0, env) == 0
    assert qnum(2, env) == -env.beta
    for k in range(1, 8):
        assert qnum(-k, env) == -qnum(k, env)


def test_qnum_at_q2():
    # direct evaluation of (q^3 - q^-3)/(q - q^-1) at q = 2
    assert qnum_at(Fraction(2), 3) == Fraction(21, 4)
    env = sample_env(0, "aTL", 4)
    assert qnum(3, env) == qnum_at(env.q, 3)


def test_qbinom_edges_and_symmetry():
    env = sample_env(1, "aTL", 5)
    for k in range(6):
        assert qbinom(k, 0, env) == 1
    assert qbinom(2, 1, env) == qnum(2, env)
    for kappa in range(7):
        for tau in range(kappa + 1):
            assert qbinom(kappa, tau, env) == qbinom(kappa, kappa - tau, env)
    with pytest.raises(ValueError):
        qbinom(3, 4, env)
    with pytest.raises(ValueError):
        qbinom(3, -1, env)


def test_qfact_zero_has_the_backend_type():
    env = sample_env(2, "aTL", 4)
    for e in (env, env.to_float()):
        assert qfact(0, e) == e.one
        assert type(qfact(0, e)) is type(e.one)


def test_ladder_lookups_match_plain_qnum_products():
    # qfact and qbinom read the ladder; rebuild them from qnum alone
    n = 16
    for seed in range(3):
        env = sample_env(seed, "upTL", n)
        prod = lambda a, b: math.prod((qnum(j, env) for j in range(a, b + 1)),
                                      start=Fraction(1))
        for kappa in range(2 * n + 1):
            assert qfact(kappa, env) == prod(1, kappa)
            for tau in range(kappa + 1):
                assert qbinom(kappa, tau, env) == prod(1, kappa) / (
                    prod(1, tau) * prod(1, kappa - tau))


def test_qbinom_classical_limit():
    # q -> 1 reproduces the integer binomial
    assert qnum_at(1, 5) == 5
    one = Fraction(1)
    fact = lambda k: math.prod(range(1, k + 1))
    for kappa in range(7):
        for tau in range(kappa + 1):
            classical = math.comb(kappa, tau)
            val = Fraction(1)
            for j in range(1, kappa + 1):
                val *= qnum_at(one, j)
            den = Fraction(1)
            for j in range(1, tau + 1):
                den *= qnum_at(one, j)
            for j in range(1, kappa - tau + 1):
                den *= qnum_at(one, j)
            assert val / den == classical
    assert qnum_at(one, 4) * qnum_at(one, 3) / (qnum_at(one, 2) * 1) == 6


def test_qnum_addition_law():
    env = sample_env(3, "aTL", 6)
    q = env.q
    n = 6
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            if j + k <= 2 * n:
                assert qnum(j + k, env) == \
                    qnum(j, env) * q ** k + q ** (-j) * qnum(k, env)
    for k in range(1, 2 * n):
        assert qnum(2, env) * qnum(k, env) == \
            qnum(k + 1, env) + qnum(k - 1, env)


def test_qbinom_is_laurent_polynomial():
    # at integer q, clearing q-powers must leave an integer
    rng = random.Random(20)
    for _ in range(20):
        q = Fraction(rng.randint(2, 20))
        kappa = rng.randint(1, 8)
        tau = rng.randint(0, kappa)
        num = Fraction(1)
        for j in range(1, kappa + 1):
            num *= qnum_at(q, j)
        den = Fraction(1)
        for j in range(1, tau + 1):
            den *= qnum_at(q, j)
        for j in range(1, kappa - tau + 1):
            den *= qnum_at(q, j)
        val = num / den
        assert (val * q ** (kappa * kappa)).denominator == 1


def test_sample_env_deterministic_and_constrained():
    a = sample_env(7, "uaTL", 5)
    b = sample_env(7, "uaTL", 5)
    assert a == b
    assert a.gamma == a.omega ** 5
    assert a.s not in (0, 1, -1)
    c = sample_env(8, "uaTL", 5)
    assert c != a
    validate_env(a, "uaTL", 5)


def test_sample_env_starred_guards():
    env = sample_env(5, "upTL1", 4)
    half, full = qnum(2, env), qnum(4, env)
    assert env.alpha ** 2 * half ** 2 - full ** 2 != 0
    env = sample_env(5, "uaTL1", 4)
    assert env.omega in (1, -1)
    assert env.gamma == 1


def test_validate_env_rejects_bad_points():
    env = sample_env(0, "uaTL", 3)
    bad = ParamEnv(EXACT, env.s, env.alpha, Fraction(2), env.omega, env.z, 0)
    with pytest.raises(NonGenericParameterError):
        validate_env(bad, "uaTL", 3)  # gamma != omega^n


def test_exact_env_takes_ints_as_fractions_and_refuses_floats():
    env = sample_env(0, "uaTL", 3)
    two = replace(env, z=2)
    assert type(two.z) is Fraction and two == replace(env, z=Fraction(2))
    for bad in (0.5, complex(2)):
        with pytest.raises(ValueError):
            replace(env, z=bad)


def test_scalar_serialization_roundtrip():
    assert scalar_to_json(Fraction(-3, 7)) == "-3/7"
    assert scalar_to_json(Fraction(5)) == "5"
    assert scalar_from_json("-3/7") == Fraction(-3, 7)
    assert scalar_from_json("5") == Fraction(5)
    z = complex(1.5, -2.0)
    assert scalar_from_json(scalar_to_json(z)) == z


def test_int_to_str_equals_str_at_every_length():
    # the str() path and the 640-digit chunks, from 1 to 100k digits, both
    # signs
    rng = random.Random(3)
    cases = [0, 10 ** 640 - 1, 10 ** 640]
    for digits in (1, 2, 639, 640, 641, 1280, 1281, 4300, 4301, 19_000,
                   19_729, 20_000, 54_321, 100_000):
        cases += [rng.randrange(10 ** (digits - 1), 10 ** digits),
                  10 ** digits, 10 ** digits - 1]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for x in cases:
            assert _int_to_str(x) == str(x)
            assert _int_to_str(-x) == str(-x)
    finally:
        sys.set_int_max_str_digits(limit)


def test_float_backend_equality():
    env = sample_env(0, "aTL", 4).to_float()
    assert env.eq(1.0, 1.0 + 1e-12)
    assert not env.eq(1.0, 1.0 + 1e-6)
    assert env.is_zero(1e-11)


def defect_weighted_square_sum(n):
    # sum* over d = n mod 2 of d * C(n, (n-d)/2)^2
    return sum(d * math.comb(n, (n - d) // 2) ** 2
               for d in range(1, n + 1) if (n - d) % 2 == 0)


def test_appendix_binomial_identity():
    for n in range(1, 41):
        lhs = defect_weighted_square_sum(n)
        if n % 2:
            rhs = n * math.comb(n - 1, (n - 1) // 2) ** 2
        else:
            rhs = n * math.comb(n - 1, n // 2) ** 2
        assert lhs == rhs
