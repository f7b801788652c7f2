import cmath
import gc
import random
import tracemalloc
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

import pytest

import uncoiledtl.algebra
import uncoiledtl.projectors
from uncoiledtl.algebra import Algebra, AlgebraVariant, basis_enumerate
from uncoiledtl.diagrams import flip
from uncoiledtl.linalg import SingularSystemError
from uncoiledtl.projectors import (GammaTable, _annihilator_rows,
                                   _cup_states, _fold, _folded_layers,
                                   _times_P, build_projector_Q, build_X,
                                   build_Z, check_e0Z, cup_diagram,
                                   cup_state, gamma_conjecture, gamma_grid,
                                   gamma_initial, gamma_residuals,
                                   gamma_solve, gamma_table,
                                   gamma_table_conjecture, kernel_J,
                                   projector_certificate, projector_oracle,
                                   wenzl_jones_P)
from uncoiledtl.scalars import (AFFINE_KINDS, EXACT, FLOAT_RTOL,
                                STARRED_KINDS, UNCOILED_KINDS,
                                NonGenericParameterError, ParamEnv,
                                gamma_hat, qbinom, qfact, qladder, qnum,
                                sample_env)
from uncoiledtl.selfcheck import check_e0Z_grids, legal_sizes, sector_of

from uncoiledtl.algebra import _reduce_mid
from uncoiledtl.projectors import _rising
from uncoiledtl.scalars import qbinomials, qints

from test_acceptance import _float_env_on_circle


# -- P_m ------------------------------------------------------------------

def test_p1_is_identity():
    env = sample_env(1, "pTL", 4)
    alg = Algebra(AlgebraVariant("pTL", 4), env)
    assert wenzl_jones_P(1, alg).equals(alg.one())


def test_p2_explicit():
    env = sample_env(1, "pTL", 2)
    alg = Algebra(AlgebraVariant("pTL", 2), env)
    p2 = wenzl_jones_P(2, alg)
    assert p2.equals(alg.one() + (qnum(1, env) / qnum(2, env)) * alg.e(1))
    assert (alg.e(1) * p2).is_zero()  # forced by e_1^2 = beta e_1


def test_pm_identities_small():
    env = sample_env(1, "pTL", 6)
    alg = Algebra(AlgebraVariant("pTL", 6), env)
    for m in range(2, 7):
        p = wenzl_jones_P(m, alg)
        pm1 = wenzl_jones_P(m - 1, alg)
        assert (p * p).equals(p)
        for j in range(1, m):
            assert (alg.e(j) * p).is_zero() and (p * alg.e(j)).is_zero()
        if m < 6:
            em = alg.e(m)
            lhs = em * p * em
            rhs = (-qnum(m + 1, env) / qnum(m, env)) * (pm1 * em)
            assert lhs.equals(rhs)


def test_pm_alternative_recursions():
    env = sample_env(1, "pTL", 6)
    alg = Algebra(AlgebraVariant("pTL", 6), env)
    for m in range(2, 7):
        p = wenzl_jones_P(m, alg)
        # P_m = (id_1 (x) P_{m-1}) (id + sum [m-j]/[m] e_1 ... e_j)
        shifted = wenzl_jones_P(m - 1, alg, offset=1)
        acc = alg.one()
        for j in range(1, m):
            word = alg.one()
            for i in range(1, j + 1):
                word = word * alg.e(i)
            acc = acc + (qnum(m - j, env) / qnum(m, env)) * word
        assert (shifted * acc).equals(p)
        # P_m = (P_{m-1} (x) id_1) (id + sum [j]/[m] e_{m-1} ... e_j)
        plain = wenzl_jones_P(m - 1, alg)
        acc = alg.one()
        for j in range(1, m):
            word = alg.one()
            for i in range(m - 1, j - 1, -1):
                word = word * alg.e(i)
            acc = acc + (qnum(j, env) / qnum(m, env)) * word
        assert (plain * acc).equals(p)


# -- kernel -----------------------------------------------------------------

def test_kernel_closed_form_at_zero():
    env = sample_env(3, "upTL1", 6)
    v = AlgebraVariant("upTL1", 6)
    n, k = 6, 1
    q = env.q
    gh = gamma_hat("upTL1", env)
    mk = (n - 2 * k) // 2
    want = -(1 / (q ** n - q ** (-n))) * (
        1 / (gh ** -1 * q ** (n * mk) - 1)
        - 1 / (gh ** -1 * q ** (-n * mk) - 1))
    assert kernel_J(v, n, k, 0, env) == want


def test_kernel_matches_root_sum_float():
    # defining finite sum over the complex roots, n = 6, k = 1
    n, k = 6, 1
    env = sample_env(3, "upTL2", 6).to_float()
    v = AlgebraVariant("upTL2", 6)
    q = env.q
    gh = gamma_hat("upTL2", env)
    mk = (n - 2 * k) // 2
    for ell in range(-mk, mk + 1):
        direct = 0
        for s in range(mk):
            y = gh ** (1.0 / mk) * cmath.exp(2j * cmath.pi * s / mk)
            direct += y ** ell / (y + 1 / y - q ** n - q ** (-n))
        direct /= mk
        got = kernel_J(v, n, k, 2 * ell, env)
        assert abs(got - direct) <= 1e-9 * max(1, abs(got))
    # |ell| may reach 2 m_k, twice the m_k points of a sublattice cycle
    for ell in (2 * mk, -2 * mk):
        kernel_J(v, n, k, 2 * ell, env)
    for ell in (2 * mk + 1, -2 * mk - 1):
        with pytest.raises(ValueError):
            kernel_J(v, n, k, 2 * ell, env)


def test_kernel_tilde_is_substituted_J():
    # J-tilde = J with gamma-hat -> gamma^2 and m_k -> 2 m_k
    env = sample_env(3, "upTL", 5)
    n, k = 5, 1
    v = AlgebraVariant("upTL", n)
    q = env.q
    g2 = env.gamma ** 2
    mk2 = n - 2 * k  # = 2 m_k
    for ell in range(0, 2 * mk2 + 1):
        want = -(1 / (q ** n - q ** (-n))) * (
            q ** (n * ell) / (g2 ** -1 * q ** (n * mk2) - 1)
            - q ** (-n * ell) / (g2 ** -1 * q ** (-n * mk2) - 1))
        assert kernel_J(v, n, k, 2 * ell, env) == want
    with pytest.raises(ValueError):
        kernel_J(v, n, k, 1, env)  # odd doubled argument
    for ell in (2 * mk2 + 1, -2 * mk2 - 1):  # past twice the ring's 2 m_k
        with pytest.raises(ValueError):
            kernel_J(v, n, k, 2 * ell, env)


# -- Gamma tables -------------------------------------------------------------

def test_initial_conditions():
    env = sample_env(3, "upTL", 5)
    t = gamma_solve(AlgebraVariant("upTL", 5), 5, None, env)
    assert t.entries[(0, 0)] == 1
    assert all(t.entries[(0, 2 * l)] == 0 for l in range(1, 5))
    enva = sample_env(3, "uaTL", 5)
    ta = gamma_solve(AlgebraVariant("uaTL", 5), 5, 0, enva)
    for l2 in range(5):
        assert ta.entries[(0, l2)] == enva.omega ** (-l2) / Fraction(5)


def test_gamma_k1_closed_form_even():
    # Gamma_{1,l} = (q - q^-1)^-1 sum_sigma sigma q^{sigma n l}/(gh q^{sigma n m_1} - 1)
    for kind in ("upTL1", "upTL2"):
        n = 6
        env = sample_env(5, kind, n)
        v = AlgebraVariant(kind, n)
        t = gamma_solve(v, n, None, env)
        q = env.q
        gh = gamma_hat(kind, env)
        m1 = (n - 2) // 2
        for l in range(m1):
            want = (1 / (q - 1 / q)) * (
                q ** (n * l) / (gh * q ** (n * m1) - 1)
                - q ** (-n * l) / (gh * q ** (-n * m1) - 1))
            assert t.entries[(1, 2 * l)] == want


def test_uptl_n3_displayed_value():
    env = sample_env(5, "upTL", 3)
    t = gamma_solve(AlgebraVariant("upTL", 3), 3, None, env)
    beta, g = env.beta, env.gamma
    want = -(beta ** 2 - 1) / (g ** 2 + g ** -2 + beta * (beta ** 2 - 3))
    assert t.entries[(1, 0)] == want
    assert gamma_conjecture(AlgebraVariant("upTL", 3), 3, 1, 0, env) == want


def test_q2_q4_displayed_coefficients():
    env = sample_env(5, "upTL1", 2)
    beta = env.beta
    got = gamma_conjecture(AlgebraVariant("upTL1", 2), 2, 1, 0, env)
    assert got == beta / (env.alpha ** 2 - beta ** 2)
    env = sample_env(5, "upTL1", 4)
    beta = env.beta
    got = gamma_conjecture(AlgebraVariant("upTL1", 4), 4, 1, 0, env)
    assert got == -(beta ** 2 - 2) / (beta * (beta ** 2 - 4))
    got = gamma_conjecture(AlgebraVariant("upTL1", 4), 4, 2, 0, env)
    want = -((beta ** 2 - 2) / (beta ** 2 - 4)) \
        / (env.alpha ** 2 - (beta ** 2 - 2) ** 2)
    assert got == want
    env = sample_env(5, "upTL2", 4)
    beta, g = env.beta, env.gamma
    got = gamma_conjecture(AlgebraVariant("upTL2", 4), 4, 1, 0, env)
    want = beta * (beta ** 2 - 2) / (g + 1 / g - beta ** 4 + 4 * beta ** 2 - 2)
    assert got == want


def test_q3r_displayed_coefficient():
    env = sample_env(5, "uaTL", 3)
    w, beta = env.omega, env.beta
    got = gamma_conjecture(AlgebraVariant("uaTL", 3), 3, 1, 0, env)
    assert got == -1 / (3 * (w ** 2 + w ** -2 + beta))


def test_reflection_symmetry_even_kinds():
    n = 6
    for kind in ("upTL2",):
        env = sample_env(5, kind, n)
        v = AlgebraVariant(kind, n)
        env_inv = env.replace(gamma=1 / env.gamma)
        gh = env.gamma
        t = gamma_table_conjecture(v, n, None, env)
        ti = gamma_table_conjecture(v, n, None, env_inv)
        for k in range(1, (n - 2) // 2 + 1):
            mk = (n - 2 * k) // 2
            for l in range(mk):
                # Gamma_{k,l}|_{gh -> 1/gh} = gh Gamma_{k, m_k - l}
                assert ti.entries[(1, 0)] is not None
                lhs = ti.entries[(k, 2 * l)]
                rhs = gh * t.eval(k, 2 * (mk - l))
                assert lhs == rhs


def test_solver_equals_conjecture_and_residuals():
    for kind, n in [("uaTL", 7), ("upTL", 7), ("uaTL1", 6), ("upTL1", 6),
                    ("uaTL2", 6), ("upTL2", 6)]:
        v = AlgebraVariant(kind, n)
        env = sample_env(11, kind, n)
        r = sector_of(kind, env, n)
        ts = gamma_solve(v, n, r, env)
        tc = gamma_table_conjecture(v, n, r, env)
        assert not any(x for x in ts.diff(tc).values())
        assert not any(x for x in gamma_residuals(ts).values())
        assert not any(x for x in gamma_residuals(tc).values())


def _gamma_conjecture_reference(variant, n, k, ell2, r, env):
    """The triple sum term by term, with a q-binomial and an inner loop of
    q-numbers per term: the reference the hoisted gamma_conjecture must
    reproduce exactly."""
    kind = variant.kind
    q = env.q
    if k == 0:
        return gamma_initial(variant, env, ell2)
    if 2 * k == n and kind in STARRED_KINDS:
        half = qnum(n // 2, env)
        full = qnum(n, env)
        base = (q - 1 / q) ** (n - 2) * qfact((n - 2) // 2, env) ** 2
        if kind == "upTL1":
            return -full * half / (base * (env.alpha ** 2 * half ** 2
                                           - full ** 2))
        if r == 0:
            return -half / (2 * base * (env.alpha * half - full))
        if r == n // 2:
            return half / (2 * base * (env.alpha * half + full))
        return 0
    mk2 = n - 2 * k
    pref = 1 / ((q - 1 / q) ** (2 * k - 1) * qnum(k, env)
                * qfact(k - 1, env) ** 2)
    lo, hi = mk2 - ell2, ell2
    base, slope = n * ell2 // 2, 0
    if kind in AFFINE_KINDS:
        w = env.omega
        pref = pref * w ** (-ell2) / n
        twist, scale, base, slope = w * w, 1, ell2 * k, -ell2
    elif kind in ("upTL1", "upTL2"):
        twist, scale = gamma_hat(kind, env), n // 2
    else:  # upTL
        twist, scale = env.gamma * env.gamma, n
        if ell2 >= mk2:
            slope, lo, hi = n, 2 * mk2 - ell2, ell2 - mk2
    total = 0
    for sigma in (1, -1):
        for kap in range(k):
            den = twist * q ** (sigma * scale * (n - 2 * (k - kap))) - 1
            for tau in range(kap + 1):
                num = q ** (sigma * (base + slope * kap + n * tau))
                term = (-1) ** kap * sigma * num / den \
                    * qbinom(k - 1, kap, env) * qbinom(kap, tau, env)
                for j in range(kap - tau):
                    term = term * qnum(lo + j, env)
                for j in range(tau):
                    term = term * qnum(hi + j, env)
                for j in range(kap):
                    term = term / qnum(n - k + j, env)
                total = total + term
    return pref * total


def _conjecture_cases(max_n, seeds):
    """(variant, r, env) for every uncoiled kind at every legal n <= max_n,
    with uaTL1 in both of its exact sectors (omega = 1 and omega = -1)."""
    for kind in UNCOILED_KINDS:
        for n in legal_sizes(kind, max_n):
            v = AlgebraVariant(kind, n)
            for seed in seeds:
                env = sample_env(seed, kind, n)
                if kind != "uaTL1":
                    yield v, sector_of(kind, env, n), env
                    continue
                for omega in (Fraction(1), Fraction(-1)):
                    env = env.with_omega(omega, n)
                    yield v, sector_of(kind, env, n), env


def test_conjecture_matches_term_by_term_reference():
    cases = 0
    for v, r, env in _conjecture_cases(16, seeds=(0, 1, 2)):
        n = v.n
        table = gamma_table_conjecture(v, n, r, env)
        for (k, l2) in gamma_grid(v):
            want = _gamma_conjecture_reference(v, n, k, l2, r, env)
            assert table.entries[(k, l2)] == want, (v.kind, n, k, l2)
            assert gamma_conjecture(v, n, k, l2, env) == want
            cases += 1
    assert cases > 1000


# The layer formula as it was written before its sums ran on integer
# numerators: Fraction leads and rising products, and the sum over tau by
# Horner in q^(+-n).  The integer sums must reproduce it exactly.

def _rising_over_factorial_reference(ladder, start, count):
    num, fact = ladder.num, ladder.fact
    out, prod = [fact[0]], fact[0]
    for i in range(1, count):
        j = start + i - 1
        prod = prod * (num[j] if j >= 0 else -num[-j])
        out.append(prod / fact[i])
    return out


def _conjecture_layer_reference(variant, n, k, r, env, ladder):
    kind = variant.kind
    q = env.q
    num, fact = ladder.num, ladder.fact
    if k == 0 or (2 * k == n and kind in STARRED_KINDS):
        return lambda ell2: _gamma_conjecture_reference(variant, n, k, ell2,
                                                        r, env)
    mk2 = n - 2 * k
    pref = 1 / ((q - 1 / q) ** (2 * k - 1) * num[k] * fact[k - 1] ** 2)
    affine = kind in AFFINE_KINDS
    if affine:
        pref = pref / n
        twist, scale = env.omega * env.omega, 1
    elif kind in ("upTL1", "upTL2"):
        twist, scale = gamma_hat(kind, env), n // 2
    else:  # upTL
        twist, scale = env.gamma * env.gamma, n
    leads = {}
    for sigma in (1, -1):
        outer = sigma * fact[k - 1] * fact[n - k - 1]
        leads[sigma] = [
            (-outer if kap % 2 else outer)
            / ((twist * q ** (sigma * scale * (n - 2 * (k - kap))) - 1)
               * fact[n - k - 1 + kap] * fact[k - 1 - kap])
            for kap in range(k)]
    steps = {sigma: q ** (sigma * n) for sigma in (1, -1)}

    def entry(ell2):
        lo, hi = mk2 - ell2, ell2
        base, slope = n * ell2 // 2, 0
        if affine:
            base, slope = ell2 * k, -ell2
        elif kind == "upTL" and ell2 >= mk2:  # l >= m_k + 1/2
            slope, lo, hi = n, 2 * mk2 - ell2, ell2 - mk2
        a = _rising_over_factorial_reference(ladder, lo, k)
        b = _rising_over_factorial_reference(ladder, hi, k)
        coeffs = [[a[kap - tau] * b[tau] for tau in range(kap + 1)]
                  for kap in range(k)]
        total = 0
        for sigma in (1, -1):
            step = steps[sigma]
            power, ratio = q ** (sigma * base), q ** (sigma * slope)
            for lead, row in zip(leads[sigma], coeffs):
                inner = row[-1]
                for tau in range(len(row) - 2, -1, -1):
                    inner = inner * step + row[tau]
                total = total + lead * power * inner
                power = power * ratio
        if affine:
            return pref * env.omega ** (-ell2) * total
        return pref * total
    return entry


def _conjecture_table_reference(variant, n, r, env):
    ladder = qladder(2 * n + 2, env)
    layers = {}
    return {(k, l2): layers.setdefault(k, _conjecture_layer_reference(
                variant, n, k, r, env, ladder))(l2)
            for k, l2 in gamma_grid(variant)}


def test_conjecture_integer_sums_match_the_horner_reference():
    cases = 0
    for v, r, env in _conjecture_cases(21, seeds=(0, 1, 2)):
        got = gamma_table_conjecture(v, v.n, r, env).entries
        assert got == _conjecture_table_reference(v, v.n, r, env), \
            (v.kind, v.n, r)
        cases += len(got)
    assert cases > 5000
    # every r sector of the affine kinds at acceptance criterion 04's
    # complex unit-circle points, within the float tolerance
    sectors = 0
    for kind in AFFINE_KINDS:
        for n in legal_sizes(kind, 14):
            v = AlgebraVariant(kind, n)
            for seed in (0, 1, 2):
                base = _float_env_on_circle(seed, n)
                gamma = base.gamma if kind != "uaTL1" else complex(1)
                for r in range(n):
                    w = gamma ** (1.0 / n) * cmath.exp(2j * cmath.pi * r / n)
                    env = base.with_omega(w, n)
                    got = gamma_table_conjecture(v, n, r, env).entries
                    want = _conjecture_table_reference(v, n, r, env)
                    scale = max(1.0, max(abs(x) for x in want.values()))
                    assert got.keys() == want.keys()
                    for key, x in want.items():
                        assert abs(got[key] - x) <= FLOAT_RTOL * scale, \
                            (kind, n, seed, r, key)
                    sectors += 1
    assert sectors > 300


# The recurrence rows as they were written before they were read off the
# e_0 Z expansion: each row (k, l2) transposed by hand, with its boundary
# corrections.  The reference solver and the row test read them.

def _fD(num, n):
    return num[n - 1] * num[n]


def _f1(num, n, k):
    return -(num[n - k] * num[k] * num[2 * n] / (_fD(num, n) * num[n]))


def _f2(num, n, k):
    return num[n - k] * num[k] / _fD(num, n)


def _f3a(num, n, k, l2):
    return num[n - k] * num[n - k - l2 - 1] / _fD(num, n)


def _f3b(num, n, k, l2):
    return num[k + l2] * num[k + 1] / _fD(num, n)


def _f4a(num, n, k, l2):
    return num[n - k - 1] * num[k + l2] / _fD(num, n)


def _f4b(num, n, k, l2):
    return num[n - k - l2 + 1] * num[k] / _fD(num, n)


def _f5(num, n, k, l2):
    return num[n - k - l2] * num[k + l2] / _fD(num, n)


def _f3(num, n, k, l2):
    return _f3a(num, n, k, l2) + _f3b(num, n, k, l2)


def _f4(num, n, k, l2):
    return _f4a(num, n, k, l2) + _f4b(num, n, k, l2)


def _row_lower_part(tbl, num, n, k, l2):
    """Everything in the constraint row (k, l = l2/2) except the layer-k terms.

    The delta corrections fold the out-of-window neighbours back into the
    grid.  At the top layer of an odd n (window m_k = 1/2) the half-odd row
    does not exist and its f3b correction wraps once more onto row 0,
    picking up an extra twist factor.
    """
    ev = tbl.eval
    mk2 = n - 2 * k
    out = _f3(num, n, k - 1, l2) * ev(k - 1, l2) \
        + _f4(num, n, k - 1, l2 + 2) * ev(k - 1, l2 + 2)
    if k >= 2:
        out = out + _f5(num, n, k - 2, l2 + 2) * ev(k - 2, l2 + 2)
    if l2 == 0:
        out = out + _f3(num, n, k - 1, mk2) * ev(k - 1, -2)
        if k >= 2:
            out = out + _f5(num, n, k - 2, mk2 + 2) * ev(k - 2, -2)
    if l2 == 1:
        out = out + _f3b(num, n, k - 1, mk2 + 1) * ev(k - 1, -1)
    if mk2 == 1 and l2 == 0:
        gh = gamma_hat(tbl.variant.kind, tbl.env)
        out = out + gh * _f3b(num, n, k - 1, mk2 + 1) * ev(k - 1, -1)
    if l2 == mk2 - 1:
        out = out + _f4a(num, n, k - 1, 1) * ev(k - 1, mk2 + 3)
    return out


def _starred_row(tbl, num, n):
    """(lead, rest) of the starred constraint row k = n/2, which reads
    lead * Gamma_{n/2, 0} + rest = 0 with rest over the lower layers."""
    alpha = tbl.env.alpha
    half = num[n // 2]
    d = _fD(num, n)
    lead = (alpha ** 2 * half ** 2 - num[n] ** 2) / d
    rest = half ** 2 / d * (num[2] * tbl.eval((n - 2) // 2, 0)
                            + alpha * tbl.eval((n - 2) // 2, 1))
    if n >= 4:
        rest = rest + _f5(num, n, (n - 4) // 2, 2) * tbl.eval((n - 4) // 2, 2)
    return lead, rest


def _gamma_residuals_reference(tbl):
    """Every constraint row from the hand-transposed rows above."""
    n = tbl.n
    num = qladder(2 * n + 2, tbl.env).num
    out = {}
    for k in range(1, (n - 1) // 2 + 1):
        for l2 in range(n - 2 * k):
            out[(k, l2)] = _f1(num, n, k) * tbl.eval(k, l2) \
                + _f2(num, n, k) * (tbl.eval(k, l2 - 2) + tbl.eval(k, l2 + 2)) \
                + _row_lower_part(tbl, num, n, k, l2)
    if tbl.variant.kind in STARRED_KINDS:
        lead, rest = _starred_row(tbl, num, n)
        out[(n // 2, 0)] = lead * tbl.eval(n // 2, 0) + rest
    return out


def _gamma_solve_reference(variant, n, r, env):
    """gamma_solve with each ring convolved directly: one kernel_J value
    per offset and one product per pair of ring points, the O(m^2)
    reference the running-sum sweep must reproduce."""
    tbl = GammaTable(variant, n, r, env)
    kind = variant.kind
    gh = gamma_hat(kind, env)
    num = qladder(2 * n + 2, env).num
    for (k, l2) in gamma_grid(variant):
        if k == 0:
            tbl.entries[(0, l2)] = gamma_initial(variant, env, l2)
    for k in range(1, (n - 1) // 2 + 1):
        mk2 = n - 2 * k
        rows = [_row_lower_part(tbl, num, n, k, l2) for l2 in range(mk2)]
        turns = 2 if mk2 % 2 else 1
        size = mk2 * turns // 2
        kern = {2 * e: kernel_J(variant, n, k, 2 * e, env)
                for e in range(1 - size, size)}
        starts = (0, 1) if turns == 1 and kind in AFFINE_KINDS else (0,)
        for start in starts:
            ring = range(start, start + turns * mk2, 2)
            rhs = [rows[l2 % mk2] / gh ** (l2 // mk2) for l2 in ring]
            for l2 in ring:
                acc = 0
                for l2p, b in zip(ring, rhs):
                    acc = acc + kern[l2p - l2] * b
                s, w = _fold(kind, n, k, l2)
                tbl.entries[(k, s)] = gh ** w * (-acc / _f2(num, n, k))
    if kind in STARRED_KINDS:
        lead, rest = _starred_row(tbl, num, n)
        tbl.entries[(n // 2, 0)] = -rest / lead
    return tbl


def test_solver_sweep_matches_direct_convolution_reference():
    cases = 0
    for v, r, env in _conjecture_cases(16, seeds=(0, 1, 2)):
        got = gamma_solve(v, v.n, r, env).entries
        assert got == _gamma_solve_reference(v, v.n, r, env).entries, \
            (v.kind, v.n, r)
        cases += len(got)
    assert cases > 1000
    # every r sector of the affine kinds at acceptance criterion 04's
    # complex unit-circle points, within the float tolerance
    sectors = 0
    for kind in AFFINE_KINDS:
        for n in legal_sizes(kind, 14):
            v = AlgebraVariant(kind, n)
            for seed in (0, 1, 2):
                base = _float_env_on_circle(seed, n)
                gamma = base.gamma if kind != "uaTL1" else complex(1)
                for r in range(n):
                    w = gamma ** (1.0 / n) * cmath.exp(2j * cmath.pi * r / n)
                    env = base.with_omega(w, n)
                    got = gamma_solve(v, n, r, env).entries
                    want = _gamma_solve_reference(v, n, r, env).entries
                    scale = max(1.0, max(abs(x) for x in want.values()))
                    assert got.keys() == want.keys()
                    for key, x in want.items():
                        assert abs(got[key] - x) <= FLOAT_RTOL * scale, \
                            (kind, n, seed, r, key)
                    sectors += 1
    assert sectors > 300


def test_residual_rows_match_the_hand_transposed_rows():
    # gamma_residuals reads its rows off the e_0 Z expansion; as linear
    # forms in the entries they are the rows written out by hand, so on
    # tables of distinct random entries both give the same keys and values
    rng = random.Random(14)
    cases = 0
    for v, r, env in _conjecture_cases(21, seeds=(0,)):
        grid = gamma_grid(v)
        for _ in range(3):
            values = set()
            while len(values) < len(grid):
                values.add(Fraction(rng.randint(1, 10 ** 6),
                                    rng.randint(1, 10 ** 6)))
            tbl = GammaTable(v, v.n, r, env, dict(zip(grid, values)))
            assert gamma_residuals(tbl) == _gamma_residuals_reference(tbl), \
                (v.kind, v.n, r)
            cases += 1
    assert cases > 200


def test_folded_layer_memo_serves_only_its_own_point():
    # the expanded e_0 Z layers are kept for the last point only: residuals
    # taken after a solve at another point, or of another table at the same
    # point, equal the residuals taken with the memo cleared
    rng = random.Random(15)
    for kind, n in [("uaTL", 7), ("upTL", 7), ("uaTL1", 6), ("upTL1", 6),
                    ("uaTL2", 6), ("upTL2", 6)]:
        v = AlgebraVariant(kind, n)
        env_a, env_b = sample_env(1, kind, n), sample_env(2, kind, n)
        assert env_a != env_b
        r_a, r_b = sector_of(kind, env_a, n), sector_of(kind, env_b, n)
        grid = gamma_grid(v)
        table_a = GammaTable(v, n, r_a, env_a, {
            key: Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
            for key in grid})
        gamma_solve(v, n, r_a, env_a)
        solved_b = gamma_solve(v, n, r_b, env_b).entries
        got = gamma_residuals(table_a)
        assert _folded_layers.cache_info().currsize == 1
        _folded_layers.cache_clear()
        assert solved_b == gamma_solve(v, n, r_b, env_b).entries, (kind, n)
        _folded_layers.cache_clear()
        want = gamma_residuals(table_a)
        assert got == want == _gamma_residuals_reference(table_a), (kind, n)
        # a solver table and a conjecture table at one point, one entry of
        # the latter moved so that its residuals are nonzero
        gamma_solve(v, n, r_a, env_a)
        tc = gamma_table_conjecture(v, n, r_a, env_a)
        tc.entries[grid[-1]] += 1
        got = gamma_residuals(tc)
        assert any(got.values())
        _folded_layers.cache_clear()
        assert got == gamma_residuals(tc), (kind, n)


def test_gamma_tables_refuse_another_size_than_the_variant():
    v = AlgebraVariant("uaTL", 5)
    for n in (3, 7):
        env = sample_env(0, "uaTL", n)
        with pytest.raises(ValueError, match="n does not match the variant"):
            gamma_solve(v, n, 0, env)
        with pytest.raises(ValueError, match="n does not match the variant"):
            gamma_table_conjecture(v, n, 0, env)
        with pytest.raises(ValueError, match="n does not match the variant"):
            gamma_conjecture(v, n, 1, 0, env)


def _gamma_grid_reference(variant):
    """The per-kind index lists the fold-derived gamma_grid must reproduce."""
    kind, n = variant.kind, variant.n
    out = []
    if kind in ("uaTL", "uaTL1", "uaTL2"):
        kmax = (n - 1) // 2 if kind == "uaTL" else (n - 2) // 2
        for k in range(kmax + 1):
            out.extend((k, l2) for l2 in range(n - 2 * k))
    elif kind == "upTL":
        for k in range((n - 1) // 2 + 1):
            out.extend((k, 2 * l) for l in range(n - 2 * k))
    else:  # upTL1, upTL2
        for k in range((n - 2) // 2 + 1):
            out.extend((k, 2 * l) for l in range((n - 2 * k) // 2))
    if kind in STARRED_KINDS:
        out.append((n // 2, 0))
    return tuple(out)


def _eval_reference(tbl, k, l2):
    """Gamma_{k, l2} for k < n/2 by the window folding loop, one step of
    m_k at a time: the reference GammaTable.eval must reproduce exactly."""
    kind, n = tbl.variant.kind, tbl.n
    step = n - 2 * k
    if kind in AFFINE_KINDS:
        window, par = step, None
    else:
        window, par = (2 * step if kind == "upTL" else step), 0
    if par is not None and step % 2 == 0 and l2 % 2 != par:
        return 0
    gh = gamma_hat(kind, tbl.env)
    fold = tbl.env.one
    for _ in range(8 * (n + 2)):
        if 0 <= l2 < window and (par is None or l2 % 2 == par):
            return fold * tbl.entries[(k, l2)]
        if par is not None and 0 <= l2 < window:
            # wrong parity inside the window (n odd): one more fold
            if l2 >= step:
                l2, fold = l2 - step, fold / gh
            else:
                l2, fold = l2 + step, fold * gh
        elif l2 < 0:
            l2, fold = l2 + step, fold * gh
        else:
            l2, fold = l2 - step, fold / gh
    raise AssertionError("window folding did not terminate")


def test_fold_matches_the_folding_loop_reference():
    cases = 0
    for v, r, env in _conjecture_cases(15, seeds=(0,)):
        n = v.n
        # distinct entries, so that a wrong stored index cannot hide
        entries = {key: Fraction(i + 2, i + 1)
                   for i, key in enumerate(_gamma_grid_reference(v))}
        tbl = GammaTable(v, n, r, env, entries)
        for k in range((n + 1) // 2):
            window = 2 * (n - 2 * k) if v.kind == "upTL" else n - 2 * k
            for l2 in range(-3 * window, 4 * window):
                want = _eval_reference(tbl, k, l2)
                assert tbl.eval(k, l2) == want, (v.kind, n, k, l2)
                cases += 1
    assert cases > 10000
    for kind in UNCOILED_KINDS:
        for n in range(1 if kind in ("uaTL", "upTL") else 2, 22, 2):
            v = AlgebraVariant(kind, n)
            assert gamma_grid(v) == _gamma_grid_reference(v), (kind, n)


def test_gamma_grid_shapes():
    assert gamma_grid(AlgebraVariant("upTL", 3)) == ((0, 0), (0, 2), (0, 4),
                                                     (1, 0))
    assert (3, 0) in gamma_grid(AlgebraVariant("uaTL1", 6))
    assert gamma_grid(AlgebraVariant("uaTL", 3)) == ((0, 0), (0, 1), (0, 2),
                                                     (1, 0))


def test_sector_label_consistency():
    # over exact rationals, uaTL1's omega = +-1 realizes r = 0 or n/2 only
    env = sample_env(5, "uaTL1", 4)
    v = AlgebraVariant("uaTL1", 4)
    good = 0 if env.omega == 1 else 2
    gamma_solve(v, 4, good, env)
    with pytest.raises(ValueError):
        gamma_solve(v, 4, (good + 1) % 4, env)
    with pytest.raises(ValueError):
        gamma_table_conjecture(v, 4, 3, env)


@pytest.mark.parametrize("kind,n", [("uaTL", 3), ("uaTL", 5), ("uaTL2", 2),
                                    ("uaTL2", 4), ("uaTL1", 2), ("uaTL1", 4)])
def test_sector_of_names_the_root_of_omega(kind, n):
    # omega = gamma^(1/n) e^(2 pi i r/n) with Python's principal root, as
    # criterion 04 draws its points: omega > 0 is r = 0, -omega is r = n/2
    # (for n odd, gamma < 0 and r = (n - 1)/2); every affine kind checks
    # its label by this one rule
    v = AlgebraVariant(kind, n)
    base = sample_env(3, kind, n)
    w = 1 if kind == "uaTL1" else base.omega
    for env, want in ((base.with_omega(w, n), 0),
                      (base.with_omega(-w, n), n // 2)):
        assert sector_of(kind, env, n) == want
        root = complex(env.gamma) ** (1 / n) \
            * cmath.exp(2j * cmath.pi * want / n)
        assert abs(complex(env.omega) - root) < 1e-9, (kind, n, want)
        gamma_solve(v, n, want, env)
        gamma_table_conjecture(v, n, want, env)
        for r in set(range(n)) - {want}:
            with pytest.raises(ValueError, match="inconsistent with omega"):
                gamma_solve(v, n, r, env)
            with pytest.raises(ValueError, match="inconsistent with omega"):
                gamma_table_conjecture(v, n, r, env)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_uatl1_closed_form_reads_omega_without_a_label(n):
    # the starred entry of uaTL1 follows omega = 1 or -1 alone
    v = AlgebraVariant("uaTL1", n)
    base = sample_env(2, "uaTL1", n)
    for omega in (1, -1):
        env = base.with_omega(omega, n)
        r = sector_of("uaTL1", env, n)
        assert gamma_table_conjecture(v, n, None, env).entries == \
            gamma_table_conjecture(v, n, r, env).entries


def test_a_sector_label_without_omega_is_a_typed_error():
    v = AlgebraVariant("uaTL", 3)
    env = sample_env(0, "uaTL", 3).replace(omega=None)
    for table in (gamma_solve, gamma_table_conjecture):
        with pytest.raises(NonGenericParameterError, match="needs omega"):
            table(v, 3, 0, env)


def test_closed_forms_report_a_vanishing_guard_as_non_generic():
    # omega^2 q = 1 at n = 3: a guard of uaTL's closed form vanishes, which
    # the solver finds through validate_env and the closed forms by
    # dividing by it
    v = AlgebraVariant("uaTL", 3)
    env = ParamEnv(EXACT, Fraction(2), Fraction(3), Fraction(1, 8),
                   Fraction(1, 2), Fraction(3), 0)
    assert env.omega ** 2 * env.q == 1
    message = "guarded denominator vanishes for uaTL, n=3"
    for build in (lambda: gamma_solve(v, 3, None, env),
                  lambda: gamma_table_conjecture(v, 3, None, env),
                  lambda: gamma_conjecture(v, 3, 1, 0, env)):
        with pytest.raises(NonGenericParameterError, match=message):
            build()


def test_closed_forms_refuse_what_the_solver_refuses():
    # an exact affine point without omega, or with gamma != omega^n
    v = AlgebraVariant("uaTL", 3)
    env = sample_env(0, "uaTL", 3)
    for bad, message in ((env.replace(omega=None), "needs omega"),
                         (env.replace(gamma=env.gamma + 1),
                          r"gamma != omega\^n")):
        for build in (lambda: gamma_solve(v, 3, None, bad),
                      lambda: gamma_table_conjecture(v, 3, None, bad),
                      lambda: gamma_conjecture(v, 3, 1, 0, bad)):
            with pytest.raises(NonGenericParameterError, match=message):
                build()


def _e0Z_layer_reference(kind, num, n, k, alpha):
    """(f2, rows) of layer k of the e_0 Z expansion in Fractions, one
    q-number product over d = [n-1][n] per coefficient, as it was written
    before it ran on the integer ladder."""
    d = num[n - 1] * num[n]
    f1 = -(num[n - k] * num[k] * num[2 * n] / (d * num[n]))
    f2 = num[n - k] * num[k] / d
    if kind in STARRED_KINDS and 2 * k >= n - 2:
        half2 = num[n // 2] ** 2
        if 2 * k == n:
            return f2, [[((alpha ** 2 * half2 - num[n] ** 2) / d, k, 0)]]
        return f2, [[(f1 + 2 * f2, k, l2), (x * half2 / d, k + 1, 0)]
                    for l2, x in enumerate((num[2], alpha))]
    mk2 = n - 2 * k
    rows = []
    for l2 in range(mk2):
        terms = [(f1, k, l2), (f2, k, l2 - 2), (f2, k, l2 + 2)]
        if 2 * k + 2 <= n:
            c3 = num[k + l2] * num[k + 1]
            if l2 != mk2 - 1:
                c3 = c3 + num[n - k] * num[n - k - l2 - 1]
            terms.append((c3 / d, k + 1, l2))
            if l2:
                c4 = num[n - k - 1] * num[k + l2]
                if l2 != 1:
                    c4 = c4 + num[n - k - l2 + 1] * num[k]
                terms.append((c4 / d, k + 1, l2 - 2))
        if 2 * k + 4 <= n and l2 not in (0, 1, mk2 - 1):
            terms.append((num[n - k - l2] * num[k + l2] / d, k + 2, l2 - 2))
        rows.append(terms)
    return f2, rows


def test_folded_layers_equal_the_fraction_expansion():
    # every folded coefficient over its denominator e den equals the
    # Fraction coefficient times its fold weight, term for term
    cases = 0
    for kind in UNCOILED_KINDS:
        for n in legal_sizes(kind, 9):
            v = AlgebraVariant(kind, n)
            for seed in (0, 1, 2):
                env = sample_env(seed, kind, n)
                num = qladder(2 * n + 2, env).num
                gh = gamma_hat(kind, env)
                den, layers = _folded_layers(v, env)
                for k, (f2, rows, e) in enumerate(layers):
                    want_f2, want_rows = _e0Z_layer_reference(
                        kind, num, n, k, env.alpha)
                    assert Fraction(f2, den) == want_f2, (kind, n, k)
                    assert len(rows) == len(want_rows)
                    for (keys, nums), terms in zip(rows, want_rows):
                        want = []
                        for c, kk, l2 in terms:
                            if 2 * kk < n:
                                w, s = divmod(l2, n - 2 * kk)
                                c = c * gh ** w
                            else:
                                weight, s = _reduce_mid(kind, n, env, 0,
                                                        abs(l2))
                                c = c * weight
                            if c:
                                want.append(((kk, s), c))
                        got = [(key, Fraction(x, e * den))
                               for key, x in zip(keys, nums)]
                        assert got == want, (kind, n, seed, k)
                        cases += len(got)
    assert cases > 1000


def test_rising_products_match_the_fraction_reference():
    # start in (-m_k, 2 m_k], zero and negative starts included
    cases = 0
    for kind, n in [("uaTL", 9), ("upTL", 7), ("upTL2", 10), ("uaTL1", 8)]:
        env = sample_env(1, kind, n)
        ladder, u = qladder(2 * n + 2, env), qints(2 * n + 2, env).u
        rows = qbinomials(n + 1, (n + 1) // 2, env)
        for k in range(1, (n + 1) // 2):
            mk2 = n - 2 * k
            for start in range(-((mk2 - 1) // 2), mk2 + 1):
                nums, d = _rising(rows, u, start, k)
                want = _rising_over_factorial_reference(ladder, start, k)
                assert [Fraction(x, d) for x in nums] == want, \
                    (kind, n, k, start)
                cases += 1
    assert cases > 50


def test_closed_form_past_the_grid_matches_the_term_by_term_reference():
    # |ell2| past every stored window reads q-numbers up to
    # [2n + 2 + |ell2|]: the single-entry ladder must reach them
    cases = 0
    for v, r, env in _conjecture_cases(7, seeds=(0,)):
        n = v.n
        ells = [2 * n + 2, -2 * n - 2, 4 * n + 6]
        if v.kind in AFFINE_KINDS:
            ells += [2 * n + 3, -2 * n - 5]
        for k in range(1, (n + 1) // 2):
            for ell2 in ells:
                want = _gamma_conjecture_reference(v, n, k, ell2, r, env)
                assert gamma_conjecture(v, n, k, ell2, env) == want, \
                    (v.kind, n, k, ell2)
                cases += 1
    assert cases > 100


def test_sandwich_Q_matches_the_sum_of_Z():
    # Q = P_n (sum Gamma c) P_n equals the paper's sum Gamma_{k,l} Z_{k,l}
    cases = 0
    for v, r, env in _conjecture_cases(5, seeds=(0, 1)):
        alg = Algebra(v, env)
        for method in ("solver", "conjecture"):
            tbl = gamma_table(v, v.n, r, env, method)
            want = alg.zero()
            for (k, l2), coeff in tbl.entries.items():
                if coeff:  # periodic Z_{0,l} with l != 0 does not exist
                    want = want + coeff * build_Z(alg, k, l2)
            assert build_projector_Q(tbl).terms == want.terms, \
                (v.kind, v.n, r, method)
            cases += 1
    assert cases == 2 * 2 * 14  # 12 kind/size points, uaTL1's twice


def _q_in_full(tbl):
    """P_n (sum Gamma_{k,l} c_{k,l}) P_n with both products in full."""
    alg = Algebra(tbl.variant, tbl.env)
    n = alg.n
    mid = alg.element({cup_diagram(n, k, l2): c
                       for (k, l2), c in tbl.entries.items() if c})
    p = wenzl_jones_P(n, alg)
    return p * mid * p


def _build_Y(alg, k, l2):
    """Y_{k,l} = e_0 P_{n-1} e_1 (k cups, winding l2 - 2, k caps) P_n, with
    P_{n-1} on strands 2..n: like X, but with P_{n-1} wrapped around the
    seam; the cup chain shifts the strand frame by one node, so the
    picture's winding 2l - 1 reads 2l - 2 in cup coordinates."""
    lower = alg.e(0) * wenzl_jones_P(alg.n - 1, alg, 1) * alg.e(1)
    return _times_P(lower * alg.from_diagram(cup_diagram(alg.n, k, l2 - 2)))


def test_products_by_P_through_cup_contacts_are_exact():
    # Q, Z, X and Y multiply by P_n on the right through the terms whose
    # top is a cup state only; the dropped terms must have summed to zero
    cases = 0
    for v, r, env in _conjecture_cases(6, seeds=(0, 1)):
        alg, n = Algebra(v, env), v.n
        tbl = gamma_solve(v, n, r, env)
        assert build_projector_Q(tbl).terms == _q_in_full(tbl).terms
        p = wenzl_jones_P(n, alg)
        inner = wenzl_jones_P(n - 2, alg, 1)
        lower = alg.e(0) * wenzl_jones_P(n - 1, alg, 1) * alg.e(1)
        # every nonzero entry's block; the periodic k = 0 layer stores
        # zeros at l2 != 0, on wound identities that reduce rejects
        for (k, l2), coeff in tbl.entries.items():
            if not coeff:
                continue
            c = alg.from_diagram(cup_diagram(n, k, l2))
            assert build_Z(alg, k, l2).terms == (p * c * p).terms
            if k:
                assert build_X(alg, k, l2).terms == (inner * c * p).terms
                c = alg.from_diagram(cup_diagram(n, k, l2 - 2))
                assert _build_Y(alg, k, l2).terms == (lower * c * p).terms
        cases += 1
    assert cases == 2 * 19  # 16 kind/size points, uaTL1's three twice


def test_a_missing_cup_contact_changes_Q(monkeypatch):
    # the fault: one cup state left out of the contacts of Q with P_n
    want = {}
    for kind in UNCOILED_KINDS:
        n = 5 if kind in ("uaTL", "upTL") else 4
        v = AlgebraVariant(kind, n)
        env = sample_env(1, kind, n)
        tbl = gamma_solve(v, n, sector_of(kind, env, n), env)
        want[kind] = (tbl, build_projector_Q(tbl))
    for n in (4, 5):
        for k in range(n // 2 + 1):
            missing = cup_state(n, k)
            monkeypatch.setattr(uncoiledtl.projectors, "_cup_states",
                                lambda m: _cup_states(m) - {missing})
            assert any(not build_projector_Q(tbl).equals(q)
                       for tbl, q in want.values() if tbl.n == n), (n, k)
            monkeypatch.undo()


def test_uatl1_int_omega_gives_an_exact_verified_projector():
    # a plain int omega is taken as a Fraction: 1 ** -2 would be a float
    v = AlgebraVariant("uaTL1", 4)
    env = sample_env(3, "uaTL1", 4).with_omega(1, 4)
    tbl = gamma_solve(v, 4, 0, env)
    assert all(type(x) is Fraction for x in tbl.entries.values())
    assert projector_certificate(v, 4, 0, env)["verified"]


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("kind", ["uaTL1", "uaTL2"])
def test_rational_sector_projectors_are_orthogonal(kind, n):
    # omega and -omega give one gamma = omega^n at even n, so one algebra
    # point: the two sector projectors multiply as they are (for uaTL1,
    # omega = 1 and -1 are the sectors r = 0 and r = n/2)
    v = AlgebraVariant(kind, n)
    base = sample_env(1, kind, n)
    w = 1 if kind == "uaTL1" else base.omega
    envs = (base.with_omega(w, n), base.with_omega(-w, n))
    q, q_neg = (build_projector_Q(gamma_solve(v, n, sector_of(kind, e, n), e))
                for e in envs)
    assert q.terms and q_neg.terms
    assert (q * q_neg).is_zero() and (q_neg * q).is_zero()


def test_gamma_table_serialization():
    env = sample_env(5, "upTL", 3)
    t = gamma_solve(AlgebraVariant("upTL", 3), 3, None, env)
    doc = t.to_json()
    assert doc["variant"] == "upTL" and doc["n"] == 3
    assert {e["k"] for e in doc["entries"]} == {0, 1}


# -- Z, X, Y and the expansion --------------------------------------------

def test_cup_state_shape():
    v = cup_state(5, 1)
    assert v.art() == "<|||>"
    assert cup_state(4, 2).d == 0


def test_z00_is_projector():
    env = sample_env(5, "uaTL", 5)
    alg = Algebra(AlgebraVariant("uaTL", 5), env)
    assert build_Z(alg, 0, 0).equals(wenzl_jones_P(5, alg))


def test_z_window_fold():
    # Z_{k, l + m_k} = gamma-hat Z_{k, l} in the uncoiled variant
    for kind, n in [("uaTL", 5), ("uaTL2", 4)]:
        env = sample_env(5, kind, n)
        alg = Algebra(AlgebraVariant(kind, n), env)
        gh = gamma_hat(kind, env)
        for k in (1,):
            mk2 = n - 2 * k
            for l2 in range(mk2):
                assert build_Z(alg, k, l2 + mk2).equals(
                    gh * build_Z(alg, k, l2))


def test_z_flip():
    # the vertical flip sends Z_{k,l} to Z_{k,-l}; exact before unwinding
    # (in a quotient the flip lands in the gamma-inverted algebra, which is
    # the window-convention caveat)
    env = sample_env(5, "aTL", 5)
    alg = Algebra(AlgebraVariant("aTL", 5), env)
    for k, l2 in [(1, 1), (1, 2), (2, 0)]:
        z = build_Z(alg, k, l2)
        flipped = alg.zero()
        for dia, c in z.terms.items():
            flipped = flipped + alg.from_diagram(flip(dia), c)
        assert flipped.equals(build_Z(alg, k, -l2))


def test_e0Z_k0_row_with_Y():
    # e_0 Z_{0,l} = [n-2l-1]/[n-1] X_{1,l} + [2l]/[n] Y_{1,l}, n = 5
    n = 5
    env = sample_env(3, "uaTL", n)
    alg = Algebra(AlgebraVariant("uaTL", n), env)
    for l2 in range(n):
        lhs = alg.e(0) * build_Z(alg, 0, l2)
        rhs = (qnum(n - l2 - 1, env) / qnum(n - 1, env)) * build_X(alg, 1, l2)
        if l2:
            rhs = rhs + (qnum(l2, env) / qnum(n, env)) * _build_Y(alg, 1, l2)
        assert (lhs - rhs).is_zero()


def test_e0Z_starred_extra_n4():
    # e_0 Z_{n/2,0} = (alpha^2 [n/2]^2 - [n]^2)/([n][n-1]) X_{n/2,0}, n = 4
    alg = Algebra(AlgebraVariant("upTL1", 4), sample_env(3, "upTL1", 4))
    assert check_e0Z(alg, 2, 0).is_zero()
    assert check_e0Z(alg, 1, 0).is_zero()


def test_e0Z_generic_rows_n5():
    for kind in ("uaTL", "upTL"):
        alg = Algebra(AlgebraVariant(kind, 5), sample_env(3, kind, 5))
        step = 1 if kind == "uaTL" else 2
        for k in (1, 2):
            for l2 in range(0, 5 - 2 * k, step):
                assert check_e0Z(alg, k, l2).is_zero()


def test_e0Z_rows_outside_a_layer_are_refused():
    alg = Algebra(AlgebraVariant("uaTL", 5), sample_env(3, "uaTL", 5))
    for k, l2 in ((1, 3), (1, -1), (2, 1), (3, 0), (-1, 0)):
        with pytest.raises(ValueError, match="no row"):
            check_e0Z(alg, k, l2)
    alg = Algebra(AlgebraVariant("upTL1", 4), sample_env(3, "upTL1", 4))
    for k, l2 in ((1, 2), (2, 1)):  # the starred rows (n-2)/2 and n/2
        with pytest.raises(ValueError, match="no row"):
            check_e0Z(alg, k, l2)


def test_a_second_e0Z_grid_sweep_makes_as_many_products_as_the_first(
        monkeypatch):
    # each grid's blocks live on its own algebra, so none outlives its
    # sweep and a second sweep does the same work as the first
    real = uncoiledtl.algebra.mul
    calls = []

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(uncoiledtl.algebra, "mul", counted)
    counts = []
    for _ in range(2):
        calls.clear()
        assert check_e0Z_grids(5, 0)[1]
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


# -- projectors -----------------------------------------------------------

@pytest.mark.parametrize("kind,n", [
    ("upTL1", 2), ("upTL2", 2), ("upTL", 3), ("uaTL", 3),
    ("uaTL1", 4), ("uaTL2", 4),
])
def test_projector_properties(kind, n):
    env = sample_env(5, kind, n)
    v = AlgebraVariant(kind, n)
    r = sector_of(kind, env, n)
    alg = Algebra(v, env)
    for method in ("solver", "conjecture"):
        q = build_projector_Q(gamma_table(v, n, r, env, method))
        assert (q * q).equals(q)
        for j in range(n):
            assert (alg.e(j) * q).is_zero() and (q * alg.e(j)).is_zero()
        if kind.startswith("ua"):
            om = alg.omega()
            assert (om * q - env.omega * q).is_zero()
            assert (q * om - env.omega * q).is_zero()


def test_oracle_equality_and_rank():
    for kind, n in [("upTL1", 2), ("uaTL", 3), ("upTL", 3), ("upTL2", 4)]:
        env = sample_env(5, kind, n)
        v = AlgebraVariant(kind, n)
        r = sector_of(kind, env, n)
        q = build_projector_Q(gamma_solve(v, n, r, env))
        assert projector_oracle(v, n, env).equals(q)


def _annihilator_rows_by_mul(alg, basis):
    """The constraint rows as built through element products: each basis
    diagram as a one-term element, multiplied by each generator with mul."""
    env = alg.env
    zero, dim = env.zero, len(basis)
    ops = []
    for j in range(alg.n if alg.n >= 2 else 0):
        g = alg.e(j)
        ops.append(lambda x, g=g: g * x)
        ops.append(lambda x, g=g: x * g)
    if alg.variant.kind in AFFINE_KINDS:
        om, w = alg.omega(), env.omega
        ops.append(lambda x: om * x - w * x)
        ops.append(lambda x: x * om - w * x)
    rows = []
    for op in ops:
        cols = {}
        for j, dia in enumerate(basis):
            for dd, c in op(alg.from_diagram(dia)).terms.items():
                cols.setdefault(dd, [zero] * dim)[j] = c
        rows.extend(cols.values())
    return rows


@pytest.mark.parametrize("kind,n", [
    (kind, n) for kind in UNCOILED_KINDS
    for n in sorted(set(legal_sizes(kind, 4))
                    | ({1} if kind in ("uaTL", "upTL") else set()))])
def test_annihilator_rows_match_element_products(kind, n, monkeypatch):
    # the oracle's rows come from single diagram products, never from mul
    env = sample_env(2, kind, n)
    alg = Algebra(AlgebraVariant(kind, n), env)
    basis = basis_enumerate(alg.variant)
    want = _annihilator_rows_by_mul(alg, basis)

    def no_mul(a, b):
        raise AssertionError("mul called")

    monkeypatch.setattr(uncoiledtl.algebra, "mul", no_mul)
    got = _annihilator_rows(alg, basis)

    def sparse(rows):
        return {frozenset((c, x) for c, x in enumerate(row) if x)
                for row in rows}

    assert len(got) == len(want)
    assert sparse(got) == sparse(want)


@pytest.mark.parametrize("kind,n", [
    ("uaTL", 5), ("upTL", 5),
    ("uaTL1", 6), ("upTL1", 6), ("uaTL2", 6), ("upTL2", 6),
])
def test_oracle_past_dense_elimination(kind, n):
    # oracle sizes beyond criterion 06, which stops the oracle at n <= 5
    env = sample_env(0, kind, n)
    v = AlgebraVariant(kind, n)
    r = sector_of(kind, env, n)
    q = build_projector_Q(gamma_solve(v, n, r, env))
    assert projector_oracle(v, n, env).equals(q)


def test_a_singular_oracle_system_still_raises(singular_oracle):
    # projector_checks turns this into its matches_oracle witness
    singular_oracle("upTL", 3)
    with pytest.raises(SingularSystemError, match="dimension 0"):
        projector_oracle(AlgebraVariant("upTL", 3), 3,
                         sample_env(1, "upTL", 3))


def test_certificate_bundle():
    env = sample_env(7, "upTL1", 2)
    v = AlgebraVariant("upTL1", 2)
    cert = projector_certificate(v, 2, None, env, with_oracle=True)
    assert cert["verified"]
    assert cert["checks"]["matches_oracle"]
    assert cert["gamma_table"]["entries"]


def _live_memory_growth_over_certificates(kind, n):
    """Live bytes gained by 40 more certificates after 30 warm ones."""
    variant = AlgebraVariant(kind, n)

    def certify(seeds):
        for seed in seeds:
            env = sample_env(seed, kind, n)
            r = sector_of(kind, env, n)
            assert projector_certificate(variant, n, r, env)["verified"]
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        warm = certify(range(1, 31))
        return certify(range(31, 71)) - warm
    finally:
        tracemalloc.stop()


def test_certificates_leave_live_memory_bounded():
    # the projector blocks and the reduce memo live on the certificate's
    # algebra and go with it, and diagrams are not pooled, so a long-lived
    # process does not grow with every seed
    assert _live_memory_growth_over_certificates("upTL", 3) < 48 * 1024


def test_uatl2_certificates_leave_live_memory_bounded():
    # an even affine kind, its sector r drawn with each seed
    assert _live_memory_growth_over_certificates("uaTL2", 4) < 48 * 1024


def test_blocks_live_on_their_algebra_and_are_checked_on_every_call():
    env = sample_env(5, "uaTL", 5)
    a, b = (Algebra(AlgebraVariant("uaTL", 5), env) for _ in range(2))
    assert build_Z(a, 1, 2) is build_Z(a, 1, 2)
    assert wenzl_jones_P(4, a, 1) is wenzl_jones_P(4, a, 1)
    assert build_Z(b, 1, 2) is not build_Z(a, 1, 2)
    assert build_Z(b, 1, 2).algebra is b
    assert build_Z(b, 1, 2).equals(build_Z(a, 1, 2))
    assert wenzl_jones_P(4, b, 1) is not wenzl_jones_P(4, a, 1)
    assert wenzl_jones_P(0, a).equals(a.one())
    for _ in range(2):
        with pytest.raises(ValueError, match="X_0 undefined"):
            build_X(a, 0, 0)
        with pytest.raises(ValueError, match="does not fit"):
            wenzl_jones_P(5, a, 1)


def test_q_module_action_small():
    # Q evaluates to 1 on W_{n,n,admissible} and to 0 on the rest
    from uncoiledtl.reps import StandardModule, matrix_of
    kind, n = "uaTL", 3
    env = sample_env(5, kind, n)
    v = AlgebraVariant(kind, n)
    q = build_projector_Q(gamma_solve(v, n, 0, env))
    top = StandardModule(n, n, env.omega, env)
    assert matrix_of(q, top) == [[1]]
    lower = StandardModule(n, 1, env.omega ** n, env)  # z = gamma: admissible
    m = matrix_of(q, lower)
    assert all(x == 0 for row in m for x in row)
