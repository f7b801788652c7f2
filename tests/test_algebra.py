import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hst

from uncoiledtl import algebra
from uncoiledtl.algebra import (Algebra, AlgebraElement, AlgebraVariant,
                                InfiniteAlgebraError, ResourceLimitError,
                                _sandwich_triples, basis_dimension,
                                basis_enumerate, dimension_closed_form,
                                psi_bilinear, reduce)
from uncoiledtl.diagrams import (DEFECT, Diagram, LinkState, e, identity,
                                 link_states, multiply_raw, omega,
                                 outer_face, trace_interface)
from uncoiledtl.projectors import (build_projector_Q, gamma_solve,
                                   projector_oracle, sector_of,
                                   wenzl_jones_P)
from uncoiledtl.scalars import (ALL_KINDS, FLOAT, FLOAT_RTOL,
                                UNCOILED_KINDS, sample_env)

D = DEFECT


def st(*nodes):
    return LinkState(nodes)


# -- reduce -------------------------------------------------------------------

def test_reduce_uatl_full_unwinding():
    env = sample_env(2, "uaTL", 5)
    v = AlgebraVariant("uaTL", 5)
    s, dia = reduce(omega(5, 5), v, env)
    assert s == env.gamma and dia == identity(5)
    s, dia = reduce(omega(5, -3), v, env)
    assert s == 1 / env.gamma and dia == omega(5, 2)


def test_reduce_uptl1_loop_pairs():
    env = sample_env(2, "upTL1", 4)
    v = AlgebraVariant("upTL1", 4)
    a = st((3, True), (2, False), (1, False), (0, True))
    c = Diagram(a, a, 2)  # two non-contractible loops
    s, dia = reduce(c, v, env)
    assert s == env.alpha ** 2 and dia == Diagram(a, a, 0)
    b = st((1, False), (0, False), (3, False), (2, False))
    c = Diagram(a, b, 3)  # odd loop count needs sigma_bt = 1
    s, dia = reduce(c, v, env)
    assert s == env.alpha ** 2 and dia == Diagram(a, b, 1)


def test_reduce_uatl2_kills_d0():
    env = sample_env(2, "uaTL2", 4)
    v = AlgebraVariant("uaTL2", 4)
    a = st((3, True), (2, False), (1, False), (0, True))
    s, dia = reduce(Diagram(a, a, 0), v, env)
    assert s == 0 and dia is None


def test_reduce_idempotent_on_bases():
    for kind in ("uaTL", "upTL", "uaTL1", "upTL1", "uaTL2", "upTL2"):
        for n in range(3 if kind in ("uaTL", "upTL") else 2, 9, 2):
            v = AlgebraVariant(kind, n)
            env = sample_env(4, kind, n)
            for dia in basis_enumerate(v):
                s, dr = reduce(dia, v, env)
                assert s == 1 and dr == dia


def _paper_window(kind, n, d, env):
    """(width, weight) of sector d's mids as the paper states them: the
    width of one window and the scalar a full window folds back with;
    width 0 where the sector dies, None where only mid 0 lives (TL, and n
    through-lines in the periodic kinds)."""
    if kind == "TL" or (d == n and kind.startswith("up")):
        return None, None
    if d == 0:
        return {"uaTL1": (1, env.alpha), "upTL1": (2, env.alpha ** 2),
                "uaTL2": (0, None), "upTL2": (0, None)}[kind]
    if kind == "upTL":
        return 2 * d, env.gamma ** 2
    return d, 1 if kind in ("uaTL1", "upTL1") else env.gamma


@pytest.mark.parametrize("kind", UNCOILED_KINDS + ("TL",))
def test_reduce_folds_every_mid_onto_the_basis(kind):
    for n in range(1, 7):
        try:
            variant = AlgebraVariant(kind, n)
        except ValueError:
            continue
        env = sample_env(5, variant)
        basis = set(basis_enumerate(variant))
        reached = set()
        for d in range(n % 2, n + 1, 2):
            width, weight = _paper_window(kind, n, d, env)
            states = [v for v in link_states(n, d)
                      if kind != "TL" or not v.crossing_count()]
            for b in states:
                for t in states:
                    sigma = (b.crossing_count() + t.crossing_count()) % 2
                    if width is None:
                        s, dr = reduce(Diagram(b, t, 0), variant, env)
                        assert s == 1 and dr in basis
                        reached.add(dr)
                        with pytest.raises(ValueError):
                            reduce(Diagram(b, t, 2), variant, env)
                        continue
                    if width == 0:
                        for m in range(sigma, 6, 2):
                            assert reduce(Diagram(b, t, m), variant,
                                          env) == (0, None)
                        continue
                    step = 2 if variant.even_only else 1
                    start = sigma if d == 0 else sigma - 3 * width
                    for m in range(start, 3 * width, step):
                        s, dr = reduce(Diagram(b, t, m), variant, env)
                        assert s and dr in basis
                        assert (dr.bottom, dr.top) == (b, t)
                        reached.add(dr)
                        assert reduce(Diagram(b, t, m + width), variant,
                                      env) == (s * weight, dr)
        assert reached == basis, (kind, n)


def test_reduce_rejects_odd_in_periodic():
    env = sample_env(2, "upTL", 5)
    with pytest.raises(ValueError):
        reduce(omega(5), AlgebraVariant("upTL", 5), env)


def test_reduce_rejects_wound_identity_in_periodic():
    env = sample_env(2, "upTL", 5)
    with pytest.raises(ValueError):
        reduce(omega(5, 2), AlgebraVariant("upTL", 5), env)


# -- mul ----------------------------------------------------------------------

def test_identity_neutral():
    env = sample_env(3, "uaTL", 5)
    alg = Algebra(AlgebraVariant("uaTL", 5), env)
    a = alg.e(0) * alg.omega() + 3 * alg.e(2)
    assert (alg.one() * a).equals(a)
    assert (a * alg.one()).equals(a)


def test_uptl1_EFE():
    env = sample_env(3, "upTL1", 4)
    alg = Algebra(AlgebraVariant("upTL1", 4), env)
    E = alg.e(0) * alg.e(2)
    F = alg.e(1) * alg.e(3)
    assert (E * F * E).equals(env.alpha ** 2 * E)


def test_uatl_unwinding_word_n5():
    # e_0 (e_4 e_3 e_2 e_1 e_0)^3 = gamma^2 e_0 in uaTL_5
    env = sample_env(3, "uaTL", 5)
    alg = Algebra(AlgebraVariant("uaTL", 5), env)
    word = alg.e(0)
    for _ in range(5 - 2):
        for j in (4, 3, 2, 1, 0):
            word = word * alg.e(j)
    assert word.equals(env.gamma ** 2 * alg.e(0))


def test_mul_associativity_uncoiled():
    rng = random.Random(6)
    for kind, n in [("uaTL", 5), ("upTL", 5), ("uaTL1", 4), ("upTL1", 4),
                    ("uaTL2", 6), ("upTL2", 6)]:
        env = sample_env(8, kind, n)
        alg = Algebra(AlgebraVariant(kind, n), env)
        if kind.startswith("ua"):
            gens = [alg.e(j) for j in range(n)] + [alg.omega(), alg.omega(-1)]
        else:
            gens = [alg.e(j) for j in range(n)]
        for _ in range(17):
            words = []
            for _ in range(3):
                w = alg.one()
                for _ in range(rng.randint(1, 3)):
                    w = w * rng.choice(gens)
                words.append(w)
            a, b, c = words
            assert ((a * b) * c).equals(a * (b * c))


def test_variant_mismatch():
    env = sample_env(3, "uaTL", 5)
    a = Algebra(AlgebraVariant("uaTL", 5), env).one()
    b = Algebra(AlgebraVariant("aTL", 5), env).one()
    with pytest.raises(ValueError):
        a * b


def test_elements_of_two_parameter_points_refuse_to_mix():
    v = AlgebraVariant("uaTL", 5)
    a = Algebra(v, sample_env(1, "uaTL", 5))
    b = Algebra(v, sample_env(2, "uaTL", 5))
    for combine in (lambda x, y: x * y, lambda x, y: x + y,
                    lambda x, y: x.equals(y)):
        with pytest.raises(ValueError, match="parameter point mismatch"):
            combine(a.e(1), b.e(1))
        with pytest.raises(ValueError, match="parameter point mismatch"):
            combine(a.one(), b.one())
    # a second algebra at the same point mixes with the first
    same = Algebra(v, sample_env(1, "uaTL", 5))
    assert (a.e(1) * same.e(1)).equals(a.env.beta * a.e(1))
    assert (a.one() + same.e(1)).equals(same.e(1) + a.one())
    # an explicit re-wrap moves the terms onto another algebra
    assert AlgebraElement(b, a.e(1).terms).equals(b.e(1))
    # a product reads backend, s (beta), alpha and gamma of the env alone:
    # a difference in omega, z or rng_seed mixes, and the sum or product
    # carries its left operand's algebra
    env = a.env
    x = a.e(1) + a.omega()
    for change in ({"omega": -env.omega}, {"z": env.z + 1},
                   {"rng_seed": 99}):
        other = Algebra(v, env.replace(**change))
        y = other.e(2) + other.one()
        y_at_a = AlgebraElement(a, y.terms)
        assert (x * y).algebra is a and (y * x).algebra is other
        assert (x * y).equals(x * y_at_a) and (y * x).equals(y_at_a * x)
        assert (x + y).algebra is a and (x + y).equals(x + y_at_a)
        assert y == y_at_a and x != y
    for change in ({"backend": FLOAT}, {"s": env.s + 1},
                   {"alpha": env.alpha + 1}, {"gamma": env.gamma + 1}):
        y = Algebra(v, env.replace(**change)).e(1)
        for combine in (lambda x, y: x * y, lambda x, y: x + y,
                        lambda x, y: x.equals(y)):
            with pytest.raises(ValueError, match="parameter point mismatch"):
                combine(x, y)


def test_max_terms_cap(monkeypatch):
    monkeypatch.setenv("UTL_MAX_TERMS", "2")
    env = sample_env(3, "aTL", 4)
    alg = Algebra(AlgebraVariant("aTL", 4), env)
    big = alg.one() + alg.e(1) + alg.e(2) + alg.omega()
    with pytest.raises(ResourceLimitError):
        big * big


def _pairwise_product(a, b):
    """The reference product: c1 * c2 * beta**k * s summed over the pairs
    of terms, with (s, dia) = reduce(multiply_raw(d1, d2))."""
    alg = a.algebra
    env = alg.env
    out = {}
    for d1, c1 in a.terms.items():
        for d2, c2 in b.terms.items():
            dia, k, _ = multiply_raw(d1, d2)
            s, dr = reduce(dia, alg.variant, env)
            if dr is not None:
                out[dr] = out.get(dr, 0) + c1 * c2 * env.beta ** k * s
    return AlgebraElement(alg, {d: c for d, c in out.items() if c})


MUL_SIZES = {"aTL": (2, 3, 4), "pTL": (2, 3, 4), "TL": (2, 3, 4, 5),
             "uaTL": (3, 5), "upTL": (3, 5), "uaTL1": (2, 4),
             "upTL1": (2, 4), "uaTL2": (2, 4), "upTL2": (2, 4)}


def _random_element(alg, data, float_backend):
    """Up to six terms: basis diagrams of a finite variant, or words in the
    generators (windings and loop powers unbounded) of aTL and pTL."""
    n, kind = alg.n, alg.variant.kind
    if kind in ("aTL", "pTL"):
        step = 1 if kind == "aTL" else 2  # pTL holds even diagrams only
        pool = ([e(n, j) for j in range(n)]
                + [omega(n, step), omega(n, -step)])
        dias = []
        for _ in range(data.draw(hst.integers(1, 6))):
            c = identity(n)
            for p in data.draw(hst.lists(hst.integers(0, len(pool) - 1),
                                         max_size=7)):
                c, _, _ = multiply_raw(c, pool[p])
            dias.append(c)
    else:
        basis = basis_enumerate(alg.variant)
        dias = data.draw(hst.lists(hst.sampled_from(basis), min_size=1,
                                   max_size=6))
    terms = {}
    for dia in dias:
        c = Fraction(data.draw(hst.integers(-9, 9)),
                     data.draw(hst.integers(1, 5)))
        terms[dia] = complex(c) if float_backend else c
    return AlgebraElement(alg, {d: c for d, c in terms.items() if c})


@given(hst.sampled_from(ALL_KINDS), hst.integers(0, 30), hst.booleans(),
       hst.data())
@settings(max_examples=300, deadline=None)
def test_mul_matches_pairwise_reference(kind, seed, float_backend, data):
    n = data.draw(hst.sampled_from(MUL_SIZES[kind]))
    env = sample_env(seed, kind, n)
    if float_backend:
        env = env.to_float()
    alg = Algebra(AlgebraVariant(kind, n), env)
    a = _random_element(alg, data, float_backend)
    b = _random_element(alg, data, float_backend)
    got, want = a * b, _pairwise_product(a, b)
    if float_backend:
        assert got.equals(want)
    else:
        assert got.terms == want.terms


def test_mul_integer_accumulation_edge_cases():
    # coprime denominators, int and Fraction coefficients side by side, and
    # two pairs of terms that meet under one key and cancel there
    v = AlgebraVariant("uaTL", 3)
    alg = Algebra(v, sample_env(1, "uaTL", 3))
    basis = basis_enumerate(v)
    x, y, z = next((x, y, z) for x in basis for y in basis if x != y
                   for z in basis
                   if multiply_raw(x, z)[:2] == multiply_raw(y, z)[:2])
    w = next(w for w in basis
             if multiply_raw(w, z)[0] != multiply_raw(x, z)[0])
    a = AlgebraElement(alg, {x: Fraction(3, 7), y: Fraction(-3, 7), w: 2})
    b = AlgebraElement(alg, {z: Fraction(5, 11)})
    got = a * b
    assert got.terms == _pairwise_product(a, b).terms
    _, cancelled = reduce(multiply_raw(x, z)[0], v, alg.env)
    assert cancelled not in got.terms and got.terms
    assert all(type(c) is Fraction for c in got.terms.values())
    b = AlgebraElement(alg, {z: Fraction(5, 11), basis[-1]: 4,
                             basis[1]: Fraction(-2, 13)})
    for lhs, rhs in ((a, b), (b, a), (a, a), (b, b)):
        assert (lhs * rhs).terms == _pairwise_product(lhs, rhs).terms


def test_mul_drops_left_terms_that_cancel_on_one_code(monkeypatch):
    # x and y share their top, so they form one left group, and x * z and
    # y * z are one raw diagram at one loop count: their codes coincide and
    # x - y sums to zero there.  With UTL_MAX_TERMS = 0 a single
    # accumulator entry, even a zero one, would raise.
    v = AlgebraVariant("upTL1", 4)
    alg = Algebra(v, sample_env(1, "upTL1", 4))
    basis = basis_enumerate(v)
    x, y, z = next((x, y, z) for x in basis for y in basis
                   if x != y and x.top == y.top for z in basis
                   if multiply_raw(x, z)[:2] == multiply_raw(y, z)[:2]
                   and reduce(multiply_raw(x, z)[0], v, alg.env)[1])
    a = AlgebraElement(alg, {x: Fraction(2, 3), y: Fraction(-2, 3)})
    b = AlgebraElement(alg, {z: Fraction(5, 7)})
    want = _pairwise_product(a, b)
    monkeypatch.setenv("UTL_MAX_TERMS", "0")
    got = a * b
    assert got.terms == want.terms == {}
    monkeypatch.delenv("UTL_MAX_TERMS")
    w = next(w for w in basis if w.top == x.top and w not in (x, y)
             and _pairwise_product(AlgebraElement(alg, {w: 1}), b).terms)
    a = AlgebraElement(alg, {x: Fraction(2, 3), y: Fraction(-2, 3), w: 3})
    assert (a * b).terms == _pairwise_product(a, b).terms != {}


def test_mul_sums_right_terms_of_two_bottoms_in_one_class(monkeypatch):
    # z1 and z2 lie in two bottom groups, but x * z1 and x * z2 are one raw
    # diagram at one loop count, and both interfaces give x's group one
    # left record: their right sums meet in one class and cancel there, so
    # no accumulator entry is made (UTL_MAX_TERMS = 0 would refuse one)
    v = AlgebraVariant("upTL", 3)
    alg = Algebra(v, sample_env(1, "upTL", 3))
    basis = basis_enumerate(v)

    def left_record(x, z):
        _, _, lower, _, d_new = trace_interface(x.top, z.bottom)
        return lower, d_new

    x, z1, z2 = next(
        (x, z1, z2) for x in basis for z1 in basis for z2 in basis
        if z1.bottom != z2.bottom
        and multiply_raw(x, z1)[:2] == multiply_raw(x, z2)[:2]
        and reduce(multiply_raw(x, z1)[0], v, alg.env)[1]
        and left_record(x, z1) == left_record(x, z2))
    a = AlgebraElement(alg, {x: Fraction(3, 5)})
    b = AlgebraElement(alg, {z1: Fraction(1, 2), z2: Fraction(-1, 2)})
    want = _pairwise_product(a, b)
    monkeypatch.setenv("UTL_MAX_TERMS", "0")
    assert (a * b).terms == want.terms == {}
    monkeypatch.delenv("UTL_MAX_TERMS")
    b = AlgebraElement(alg, {z1: Fraction(1, 2), z2: Fraction(-1, 3)})
    assert (a * b).terms == _pairwise_product(a, b).terms != {}


def test_mul_reuses_the_codes_of_a_shared_side_record(monkeypatch):
    # each group's outer faces are computed once per distinct side record:
    # (bottom, upper, d_new, nc) on the right, (lower, d_new) within one
    # top group on the left
    v = AlgebraVariant("upTL", 5)
    alg = Algebra(v, sample_env(2, "upTL", 5))
    rng = random.Random(5)
    basis = basis_enumerate(v)
    a = alg.element({dia: rng.randint(1, 9) for dia in rng.sample(basis, 40)})
    b = alg.element({dia: rng.randint(1, 9) for dia in rng.sample(basis, 40)})
    calls = []

    def counting(*args):
        calls.append(args)
        return outer_face(*args)

    outer_face = algebra.outer_face
    monkeypatch.setattr(algebra, "outer_face", counting)
    got = a * b
    assert got.terms == _pairwise_product(a, b).terms
    by_top, by_bottom = {}, {}
    for dia in a.terms:
        by_top.setdefault(dia.top, []).append(dia)
    for dia in b.terms:
        by_bottom.setdefault(dia.bottom, []).append(dia)
    left, right = 0, {}
    for top, group in by_top.items():
        records = set()
        for bottom, right_group in by_bottom.items():
            _, nc, lower, upper, d_new = trace_interface(top, bottom)
            records.add((lower, d_new))
            right[bottom, upper, d_new, nc] = len(right_group)
        left += len(records) * len(group)
    per_block = sum(len(g) * len(by_bottom) for g in by_top.values()) + \
        sum(len(g) * len(by_top) for g in by_bottom.values())
    assert len(calls) == left + sum(right.values()) < per_block


@pytest.mark.parametrize("kind, n", [("upTL", 5), ("uaTL2", 4)])
def test_mul_with_a_zero_factor(kind, n):
    alg = Algebra(AlgebraVariant(kind, n), sample_env(1, kind, n))
    x = alg.e(1) + 3 * alg.one()
    for a, b in ((alg.zero(), x), (x, alg.zero()),
                 (alg.zero(), alg.zero())):
        got = a * b
        assert got.terms == _pairwise_product(a, b).terms == {}


@pytest.mark.parametrize("kind, n", [("upTL", 5), ("uaTL2", 4)])
def test_projector_square_matches_pairwise_reference(kind, n):
    v = AlgebraVariant(kind, n)
    q = build_projector_Q(gamma_solve(v, n, None, sample_env(1, kind, n)))
    assert (q * q).terms == _pairwise_product(q, q).terms == q.terms


def _mixed_element(alg, rng, size):
    """Up to size terms with coefficients p/q over mixed denominators: basis
    diagrams of a finite variant, or generator words of aTL and pTL."""
    n, kind = alg.n, alg.variant.kind
    if kind in ("aTL", "pTL"):
        step = 1 if kind == "aTL" else 2  # pTL holds even diagrams only
        pool = ([e(n, j) for j in range(n)]
                + [omega(n, step), omega(n, -step)])
        dias = []
        for _ in range(size):
            c = identity(n)
            for _ in range(rng.randint(0, 6)):
                c, _, _ = multiply_raw(c, rng.choice(pool))
            dias.append(c)
    else:
        dias = rng.sample(basis_enumerate(alg.variant),
                          min(size, dimension_closed_form(alg.variant)))
    return alg.element({dia: Fraction(rng.choice((-1, 1)) * rng.randint(1, 40),
                                      rng.choice((1, 2, 3, 4, 6, 7, 9, 25)))
                        for dia in dias})


def _factors(a, b):
    """The distinct scalars s * beta**k of the pairs of terms of a * b."""
    alg = a.algebra
    out = set()
    for d1 in a.terms:
        for d2 in b.terms:
            dia, k, _ = multiply_raw(d1, d2)
            s, dr = reduce(dia, alg.variant, alg.env)
            if dr is not None:
                out.add(s * alg.env.beta ** k)
    return out


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_mul_over_one_denominator_matches_pairwise_reference(kind):
    # larger products than the hypothesis test: many pairs under one output
    # diagram, several factors s * beta**k, mixed denominators
    rng = random.Random(f"mul:{kind}")
    most = 1
    for n in (m for m in MUL_SIZES[kind] if m <= 5):
        for seed in (0, 1):
            env = sample_env(seed, kind, n)
            alg = Algebra(AlgebraVariant(kind, n), env)
            a, b = _mixed_element(alg, rng, 16), _mixed_element(alg, rng, 16)
            got = a * b
            assert got.terms == _pairwise_product(a, b).terms, (n, seed)
            assert all(type(c) is Fraction for c in got.terms.values())
            most = max(most, len(_factors(a, b)))
            # the complex backend runs the same code, over 1
            falg = Algebra(alg.variant, env.to_float())
            fa, fb = (AlgebraElement(falg, {d: complex(c)
                                            for d, c in x.terms.items()})
                      for x in (a, b))
            fgot = fa * fb
            assert fgot.equals(_pairwise_product(fa, fb))
            scale = max(1.0, got.max_abs())
            assert set(fgot.terms) == set(got.terms)
            assert all(abs(fgot.terms[d] - c) <= FLOAT_RTOL * scale
                       for d, c in got.terms.items())
            if kind in ("aTL", "pTL"):
                continue
            # products that cancel to exactly zero: e_j P_n and P_n e_j
            p = wenzl_jones_P(n, alg)
            for j in range(1, n):
                assert (alg.e(j) * p).terms == {} == (p * alg.e(j)).terms
                assert _pairwise_product(alg.e(j), p).terms == {}
    assert most > 1  # the tail met more than one factor


# -- the stored form: int numerators over one denominator --------------------

def _assert_lowest_terms(x):
    """gcd(den, *nums) == 1, no zero numerator, den == 1 when empty, and den
    the lcm of the coefficients' reduced denominators."""
    assert type(x.den) is int and x.den >= 1
    assert all(type(c) is int and c for c in x.nums.values())
    assert math.gcd(x.den, *x.nums.values()) == 1
    assert x.den == math.lcm(*(c.denominator for c in x.terms.values()))
    if not x.nums:
        assert x.den == 1


def _stored(x):
    return x.nums, x.den


@pytest.mark.parametrize("kind, n", [("upTL", 5), ("uaTL2", 4), ("uaTL1", 4),
                                     ("aTL", 3)])
def test_elements_are_stored_in_lowest_terms(kind, n):
    rng = random.Random(f"lowest:{kind}")
    alg = Algebra(AlgebraVariant(kind, n), sample_env(2, kind, n))
    a, b = _mixed_element(alg, rng, 12), _mixed_element(alg, rng, 12)
    for x in (a, b, a + b, a - b, a * b, b * a, Fraction(6, 35) * a, 4 * b,
              -a, a - a, alg.zero(), alg.one(), alg.e(1) * a,
              AlgebraElement(alg, {identity(n): Fraction(5, 10), e(n, 1): 2})):
        _assert_lowest_terms(x)
    assert _stored(a - a) == _stored(alg.zero()) == ({}, 1)
    assert a.den > 1  # the mixed denominators did not all cancel
    if kind != "aTL":
        p = wenzl_jones_P(n, alg)
        _assert_lowest_terms(p)
        assert _stored(alg.e(1) * p) == ({}, 1)


@pytest.mark.parametrize("kind, n", [("upTL", 5), ("uaTL2", 4)])
def test_equal_values_have_identical_stored_forms(kind, n):
    rng = random.Random(f"stored:{kind}")
    alg = Algebra(AlgebraVariant(kind, n), sample_env(3, kind, n))
    a, b, c = (_mixed_element(alg, rng, 10) for _ in range(3))
    # sums in two orders
    assert _stored((a + b) + c) == _stored(c + (b + a))
    assert _stored(a + b - a) == _stored(b)
    # scaled and unscaled
    assert _stored(Fraction(3, 7) * (Fraction(7, 3) * a)) == _stored(a)
    assert _stored(2 * a - a) == _stored(a)
    assert _stored((Fraction(5, 2) * a) * b) == _stored(
        Fraction(5, 2) * (a * b))
    # the linear-system oracle against the assembled Q
    v = AlgebraVariant(kind, n)
    env = sample_env(3, kind, n)
    q = build_projector_Q(gamma_solve(v, n, sector_of(kind, env, n), env))
    oracle = projector_oracle(v, n, env)
    assert _stored(oracle) == _stored(q)
    assert oracle == q


def test_terms_is_the_read_only_fraction_dict():
    rng = random.Random("terms")
    alg = Algebra(AlgebraVariant("uaTL", 3), sample_env(4, "uaTL", 3))
    a, b = _mixed_element(alg, rng, 8), _mixed_element(alg, rng, 8)
    given = {dia: Fraction(rng.randint(1, 9), rng.randint(1, 9))
             for dia in basis_enumerate(alg.variant)[:6]}
    assert AlgebraElement(alg, given).terms == given
    for x in (a, a * b, a + b):
        want = {dia: Fraction(c, x.den) for dia, c in x.nums.items()}
        assert x.terms == want
        assert all(type(c) is Fraction for c in x.terms.values())
        assert x.terms is x.terms  # built once, then kept
        with pytest.raises(TypeError):
            x.terms[identity(3)] = Fraction(1)
        assert len(x) == len(want)
        assert x.coefficient(identity(3)) == want.get(identity(3), 0)
    # the old per-term sum, one Fraction at a time
    want = dict(a.terms)
    for dia, c in b.terms.items():
        want[dia] = want.get(dia, 0) + c
    assert (a + b).terms == {dia: c for dia, c in want.items() if c}


def test_float_elements_are_complex_numerators_over_one():
    rng = random.Random("float")
    env = sample_env(1, "uaTL2", 4)
    alg = Algebra(AlgebraVariant("uaTL2", 4), env)
    falg = Algebra(alg.variant, env.to_float())
    fa, fb = (AlgebraElement(falg, {d: complex(c) for d, c in
                                    _mixed_element(alg, rng, 8).terms.items()})
              for _ in range(2))
    for x in (fa, fb, fa + fb, fa - fb, fa * fb, Fraction(1, 3) * fa,
              falg.e(1) * fb, fa - fa, falg.zero()):
        assert x.den == 1
        assert all(type(c) is complex for c in x.nums.values())
        assert x.terms == x.nums
    assert (Fraction(1, 3) * fa).equals(complex(Fraction(1, 3)) * fa)


# -- the outer-face memo -------------------------------------------------------

def test_outer_face_memo_is_bounded_and_mul_holds_after_a_clear():
    assert 0 < outer_face.cache_info().maxsize <= 1 << 14
    rng = random.Random("memo")
    for kind, n in (("upTL", 5), ("uaTL2", 4), ("uaTL1", 4)):
        alg = Algebra(AlgebraVariant(kind, n), sample_env(5, kind, n))
        a, b = _mixed_element(alg, rng, 16), _mixed_element(alg, rng, 16)
        want = _pairwise_product(a, b)
        outer_face.cache_clear()
        assert _stored(a * b) == _stored(want)
        assert outer_face.cache_info().currsize > 0
        outer_face.cache_clear()
        assert _stored(b * a) == _stored(_pairwise_product(b, a))


# -- bases and dimensions -----------------------------------------------------

def test_basis_enumerate_is_in_sort_key_order():
    # projector_oracle and `utl dims` index by this order,
    # which the generator's loops produce without a sort
    for kind in ("TL", "uaTL", "upTL", "uaTL1", "upTL1", "uaTL2", "upTL2"):
        for n in range(2, 9):
            try:
                v = AlgebraVariant(kind, n)
            except ValueError:
                continue  # wrong parity for this kind
            basis = basis_enumerate(v)
            assert list(basis) == sorted(basis, key=Diagram.sort_key), \
                (kind, n)


def test_basis_dimension_counts_the_enumerated_basis():
    # `utl dims --enumerate` counts without building the diagrams
    for kind in ("TL", "uaTL", "upTL", "uaTL1", "upTL1", "uaTL2", "upTL2"):
        for n in range(1, 9):
            try:
                v = AlgebraVariant(kind, n)
            except ValueError:
                continue  # wrong parity for this kind
            assert basis_dimension(v) == len(basis_enumerate(v)), (kind, n)


def test_parity_class_count_equals_the_pair_count():
    # basis_dimension counts by crossing parity; the sandwich triples walk
    # every pair of states, to n = 11 (the comparison above stops at 8)
    for kind in ("TL", "uaTL", "upTL", "uaTL1", "upTL1", "uaTL2", "upTL2"):
        for n in range(1, 12):
            try:
                v = AlgebraVariant(kind, n)
            except ValueError:
                continue  # wrong parity for this kind
            pairs = sum(len(mids) for _, _, mids in _sandwich_triples(v))
            assert basis_dimension(v) == pairs, (kind, n)


def test_basis_examples():
    assert len(basis_enumerate(AlgebraVariant("uaTL", 3))) == 12
    assert len(basis_enumerate(AlgebraVariant("upTL", 3))) == 10
    assert len(basis_enumerate(AlgebraVariant("uaTL1", 2))) == 6


def test_dimension_examples():
    assert dimension_closed_form(AlgebraVariant("uaTL", 5)) == 180
    assert dimension_closed_form(AlgebraVariant("upTL", 5)) == 176
    assert dimension_closed_form(AlgebraVariant("upTL1", 4)) == 53
    assert dimension_closed_form(AlgebraVariant("uaTL2", 6)) == 600


def test_infinite_variants_refused():
    for kind in ("aTL", "pTL"):
        with pytest.raises(InfiniteAlgebraError):
            basis_enumerate(AlgebraVariant(kind, 4))
        with pytest.raises(InfiniteAlgebraError):
            basis_dimension(AlgebraVariant(kind, 4))
        with pytest.raises(InfiniteAlgebraError):
            dimension_closed_form(AlgebraVariant(kind, 4))


def test_parity_constraints_on_variants():
    with pytest.raises(ValueError):
        AlgebraVariant("uaTL", 4)
    with pytest.raises(ValueError):
        AlgebraVariant("upTL1", 5)


def test_tl_embedding_catalan():
    # products of e_1..e_{n-1} never cross the seam; the reachable set is C_n
    for n in range(2, 7):
        env = sample_env(5, "pTL", n)
        seen = {identity(n)}
        frontier = [identity(n)]
        while frontier:
            nxt = []
            for c in frontier:
                for j in range(1, n):
                    from uncoiledtl.diagrams import multiply_raw
                    d, _, _ = multiply_raw(c, e(n, j))
                    assert d.bottom.crossing_count() == 0
                    assert d.top.crossing_count() == 0
                    if d not in seen:
                        seen.add(d)
                        nxt.append(d)
            frontier = nxt
        import math
        assert len(seen) == math.comb(2 * n, n) // (n + 1)


def test_tl_basis_is_catalan():
    import math
    for n in range(1, 7):
        v = AlgebraVariant("TL", n)
        cat = math.comb(2 * n, n) // (n + 1)
        assert dimension_closed_form(v) == cat
        assert len(basis_enumerate(v)) == cat


# -- psi ----------------------------------------------------------------------

def _psi_states_n10():
    v = st((9, True), (8, True), (7, True), (4, False), (3, False),
           (6, False), (5, False), (2, True), (1, True), (0, True))
    w = st((9, False), (8, False), (3, False), (2, False), (7, False),
           (6, False), (5, False), (4, False), (1, False), (0, False))
    return v, w


def test_psi_displayed_d0():
    v, w = _psi_states_n10()
    env = sample_env(3, "upTL1", 10)
    out = psi_bilinear(v, w, AlgebraVariant("pTL", 10), env)
    assert (out.coeff, out.power) == (env.beta, 3)  # beta f^3
    out = psi_bilinear(v, w, AlgebraVariant("uaTL1", 10),
                       sample_env(3, "uaTL1", 10))
    envs = sample_env(3, "uaTL1", 10)
    assert out.power == 0 and out.coeff == envs.alpha ** 3 * envs.beta
    out = psi_bilinear(v, w, AlgebraVariant("upTL1", 10), env)
    assert out.power == 1 and out.coeff == env.alpha ** 2 * env.beta


def test_psi_displayed_d2_vanishes():
    v = st((1, False), (0, False), (11, True), D, (9, False), (6, False),
           (5, False), (8, False), (7, False), (4, False), D, (2, True))
    w = st((11, True), D, (5, False), (4, False), (3, False), (2, False),
           D, (8, False), (7, False), (10, False), (9, False), (0, True))
    for kind in ("upTL1", "upTL2"):
        env = sample_env(3, kind, 12)
        out = psi_bilinear(v, w, AlgebraVariant(kind, 12), env)
        assert out.is_zero()


def test_psi_displayed_d3():
    v = st((12, True), (11, True), (10, True), (9, True), D,
           (6, False), (5, False), D, D, (3, True), (2, True),
           (1, True), (0, True))
    w = st((12, True), (8, False), (7, False), (4, False), (3, False),
           (6, False), (5, False), (2, False), (1, False), D, D, D,
           (0, True))
    env = sample_env(3, "uaTL", 13)
    out = psi_bilinear(v, w, AlgebraVariant("uaTL", 13), env)
    assert (out.coeff, out.power) == (env.beta ** 2 * env.gamma, 0)
    envp = sample_env(3, "upTL", 13)
    out = psi_bilinear(v, w, AlgebraVariant("upTL", 13), envp)
    assert (out.coeff, out.power) == (envp.beta ** 2, 3)


def test_psi_reproduces_sandwich_product():
    # C(b,m,t) C(b',m',t') = C(b, m + n(t,b') + m', t') times the psi scalar
    rng = random.Random(12)
    for kind, n in [("uaTL", 5), ("uaTL1", 4), ("uaTL2", 6)]:
        env = sample_env(9, kind, n)
        variant = AlgebraVariant(kind, n)
        alg = Algebra(variant, env)
        for _ in range(40):
            d = rng.choice([x for x in variant.defect_sectors() if x > 0])
            states = link_states(n, d)
            b, t, b2, t2 = (rng.choice(states) for _ in range(4))
            m1 = rng.randrange(d)
            m2 = rng.randrange(d)
            lhs = alg.from_diagram(Diagram(b, t, m1)) * \
                alg.from_diagram(Diagram(b2, t2, m2))
            val = psi_bilinear(b2, t, variant, env)  # upper state first
            # the law holds at the d level: a vanishing form means the
            # product dropped to fewer through-lines
            level = AlgebraElement(alg, {dd: c for dd, c in lhs.terms.items()
                                         if dd.d == d})
            if val.is_zero():
                assert level.is_zero()
                continue
            rhs = val.coeff * alg.from_diagram(Diagram(b, t2,
                                                       m1 + val.power + m2))
            assert level.equals(rhs)


def test_psi_defect_mismatch():
    env = sample_env(3, "uaTL", 5)
    with pytest.raises(ValueError):
        psi_bilinear(link_states(5, 1)[0], link_states(5, 3)[0],
                     AlgebraVariant("uaTL", 5), env)


def test_psi_size_must_match_the_variant():
    # states of another size would be folded by that size's window
    env = sample_env(3, "uaTL", 5)
    for m in (3, 7):
        v = link_states(m, 1)[0]
        with pytest.raises(ValueError, match="does not match the variant"):
            psi_bilinear(v, v, AlgebraVariant("uaTL", 5), env)
    v = link_states(5, 1)[0]
    psi_bilinear(v, v, AlgebraVariant("uaTL", 5), env)


def test_element_serialization():
    env = sample_env(3, "upTL1", 4)
    alg = Algebra(AlgebraVariant("upTL1", 4), env)
    a = alg.e(0) * alg.e(1) + Fraction(3, 7) * alg.one()
    doc = a.to_json()
    assert doc["variant"] == "upTL1" and doc["n"] == 4
    assert any(t["coeff"] == "3/7" for t in doc["terms"])
