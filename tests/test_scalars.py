import cmath
import copy
import math
import pickle
import random
import sys
from fractions import Fraction

import pytest

from uncoiledtl.algebra import AlgebraVariant, MiddleValue
from uncoiledtl.projectors import GammaTable
from uncoiledtl.reps import StandardModule
import uncoiledtl.scalars
from uncoiledtl.scalars import (EXACT, FLOAT, NonGenericParameterError,
                                ParamEnv, _int_to_str, qbinom, qbinomials,
                                qfact, qints, qnum, qnum_at, sample_env,
                                scalar_from_json, scalar_to_json,
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


def test_integer_ladder_gives_the_q_numbers():
    # [j] = N_j / u^(j-1) and [j]! = F_j / u^(j(j-1)/2), exactly at rational
    # points on both sides of 1 and below 0, within 1e-12 at complex ones
    n = 9
    top = 3 * n + 2
    for s in (Fraction(2, 7), Fraction(9, 4), Fraction(-5, 3)):
        env = ParamEnv(EXACT, s, 1, 1, None, 2, 0)
        ladder = qints(top, env)
        assert (ladder.a, ladder.b, ladder.u) == (
            s.numerator ** 2, s.denominator ** 2,
            (s.numerator * s.denominator) ** 2)
        assert all(isinstance(x, int) for x in ladder.num + ladder.fact)
        for j in range(top + 1):
            assert ladder.num[j] / Fraction(ladder.u) ** (j - 1) \
                == qnum(j, env)
            assert Fraction(ladder.fact[j], ladder.u ** (j * (j - 1) // 2)) \
                == qfact(j, env)
    for s in (cmath.exp(0.7j), cmath.exp(1.1j), complex(1.3, 0.4)):
        env = ParamEnv(FLOAT, s, 1j, 1j, None, 2j, 0)
        ladder = qints(top, env)
        assert ladder.b == 1
        for j in range(top + 1):
            want = qnum(j, env)
            got = ladder.num[j] / ladder.u ** (j - 1)
            assert abs(got - want) <= 1e-12 * max(1, abs(want)), (s, j)


def test_integer_qbinomial_rows_give_the_q_binomials():
    # [m choose i] = rows[m][i] / u^(i (m - i)), and 0 past i = m
    for s in (Fraction(2, 7), Fraction(-9, 4)):
        env = ParamEnv(EXACT, s, 1, 1, None, 2, 0)
        u = qints(0, env).u
        rows = qbinomials(20, 8, env)
        assert len(rows) == 21 and {len(row) for row in rows} == {8}
        for m, row in enumerate(rows):
            for i, x in enumerate(row):
                want = qbinom(m, i, env) if i <= m else 0
                assert x / Fraction(u) ** (i * (m - i)) == want, (s, m, i)
    env = ParamEnv(FLOAT, cmath.exp(0.9j), 1j, 1j, None, 2j, 0)
    u = qints(0, env).u
    for m, row in enumerate(qbinomials(20, 8, env)):
        for i in range(min(m, 7) + 1):
            want = qbinom(m, i, env)
            got = row[i] / u ** (i * (m - i))
            assert abs(got - want) <= 1e-12 * max(1, abs(want)), (m, i)


def test_qnum_memo_keeps_each_backend_type():
    # a dyadic s and its complex copy are equal keys; neither reads the
    # other's q-numbers
    exact = ParamEnv(EXACT, Fraction(3, 2), 1, 1, None, 2, 0)
    approx = exact.to_float()
    assert exact.s == approx.s and hash(exact.s) == hash(approx.s)
    for first, second in ((exact, approx), (approx, exact)):
        uncoiledtl.scalars._qnum_cached.cache_clear()
        qnum(3, first)
        assert type(qnum(3, second)) is type(second.s)


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


def test_a_passing_point_is_validated_once_and_a_failing_one_always(
        monkeypatch):
    calls = []
    guard_values = uncoiledtl.scalars.guard_values

    def counted(*args):
        calls.append(args)
        return guard_values(*args)

    monkeypatch.setattr(uncoiledtl.scalars, "guard_values", counted)
    env = sample_env(0, "uaTL", 3).replace(rng_seed=7919)  # not seen before
    validate_env(env, "uaTL", 3)
    validate_env(env, AlgebraVariant("uaTL", 3))
    assert len(calls) == 1
    # omega^2 q = 1: a guard vanishes
    bad = ParamEnv(EXACT, Fraction(2), Fraction(3), Fraction(1, 8),
                   Fraction(1, 2), Fraction(3), 7919)
    for _ in range(2):
        with pytest.raises(NonGenericParameterError, match="vanishes"):
            validate_env(bad, "uaTL", 3)
    assert len(calls) == 3


def test_exact_env_takes_ints_as_fractions_and_refuses_floats():
    env = sample_env(0, "uaTL", 3)
    two = env.replace(z=2)
    assert type(two.z) is Fraction and two == env.replace(z=Fraction(2))
    for bad in (0.5, complex(2)):
        with pytest.raises(ValueError):
            env.replace(z=bad)


_ENV = sample_env(0, "uaTL", 3)

# (class, field names in constructor order, values, other values): each
# other value differs from its field's value and is legal in its place
_VALUE_CLASSES = [
    (ParamEnv, ("backend", "s", "alpha", "gamma", "omega", "z", "rng_seed"),
     (EXACT, Fraction(2), Fraction(3), Fraction(5), None, Fraction(7), 0),
     (FLOAT, Fraction(3), Fraction(2), Fraction(7), Fraction(1),
      Fraction(5), 1)),
    (AlgebraVariant, ("kind", "n"), ("uaTL", 3), ("upTL", 5)),
    (MiddleValue, ("coeff", "power", "d"), (Fraction(1, 2), 1, 2),
     (Fraction(1, 3), 0, 3)),
    (StandardModule, ("n", "d", "z", "env"), (4, 2, Fraction(3), _ENV),
     (6, 0, Fraction(5), sample_env(1, "uaTL", 3))),
]


@pytest.mark.parametrize("cls, names, values, others", _VALUE_CLASSES,
                         ids=[c[0].__name__ for c in _VALUE_CLASSES])
def test_value_classes_compare_hash_and_print_their_fields(cls, names,
                                                           values, others):
    a, b = cls(*values), cls(**dict(zip(names, values)))
    assert a is not b and a == b and hash(a) == hash(b)
    assert [getattr(a, name) for name in names] == list(values)
    assert repr(a) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(names, values)) + ")"
    for i, other in enumerate(others):
        changed = cls(*values[:i], other, *values[i + 1:])
        assert changed != a and not changed == a, names[i]
    assert a != values  # equal only to the same class
    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert twin == a and hash(twin) == hash(a) and repr(twin) == repr(a)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b and hash(a) == hash(b)


def test_value_reprs_and_derived_values_outside_equality():
    assert repr(AlgebraVariant("uaTL", 3)) == "AlgebraVariant(kind='uaTL', n=3)"
    assert repr(MiddleValue(0, 0, 1)) == "MiddleValue(coeff=0, power=0, d=1)"
    env = sample_env(3, "uaTL", 3)
    fresh = env.replace()
    assert env.beta == fresh.beta and env.q == fresh.q
    assert env == fresh and hash(env) == hash(fresh)
    assert env.one is env.one and env.zero is env.zero
    assert env.one == 1 and env.zero == 0 and type(env.one) is Fraction
    assert env.to_float().one == complex(1)
    module = StandardModule(3, 1, env.z, env)
    assert module.alpha == env.z + 1 / env.z
    assert module == StandardModule(3, 1, env.z, env)
    assert AlgebraVariant("upTL", 3).even_only
    assert not AlgebraVariant("uaTL", 3).even_only
    with pytest.raises(AttributeError):
        AlgebraVariant("uaTL", 3).even_only = False


def test_gamma_table_is_mutable_unhashable_with_its_own_entries():
    v = AlgebraVariant("uaTL", 3)
    a, b = GammaTable(v, 3, None, _ENV), GammaTable(v, 3, None, _ENV)
    assert a == b and a.entries == {} and a.entries is not b.entries
    a.entries[(0, 0)] = Fraction(1)
    assert b.entries == {} and a != b
    with pytest.raises(TypeError):
        hash(a)
    c = GammaTable(v, 3, 1, _ENV, {(0, 0): Fraction(1)})
    assert (c.variant, c.n, c.r, c.env) == (v, 3, 1, _ENV)
    c.r = None
    assert c == a
    assert repr(c) == (f"GammaTable(variant={v!r}, n=3, r=None, "
                       f"env={_ENV!r}, entries={{(0, 0): Fraction(1, 1)}})")


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
