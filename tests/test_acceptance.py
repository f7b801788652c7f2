"""The acceptance gate: every criterion at its stated size and tolerance.

Each test prints one PASS line on success (run with -s to see them all);
exact checks use == on Fractions, float checks use the 1e-9 relative rule.
"""

import cmath
import math
import random
import time
from fractions import Fraction

from uncoiledtl.algebra import (Algebra, AlgebraElement, AlgebraVariant,
                                dimension_closed_form)
from uncoiledtl.diagrams import parity
from uncoiledtl.projectors import (build_projector_Q, build_Z,
                                   gamma_conjecture, gamma_grid,
                                   gamma_residuals, gamma_solve,
                                   gamma_table_conjecture)
from uncoiledtl.reps import StandardModule, matrix_of
from uncoiledtl.scalars import AFFINE_KINDS, UNCOILED_KINDS, sample_env
from uncoiledtl.selfcheck import (check_central, check_dimensions,
                                  check_e0Z_grids, check_gamma,
                                  check_projectors, check_quotient_relations,
                                  check_relations, check_wenzl_jones,
                                  legal_sizes, sector_of)


def report(num, text):
    print(f"[criterion {num:2d}] PASS: {text}")


def assert_passed(check):
    name, passed, detail = check
    assert passed, f"{name}: {detail}"


def test_criterion_01_dimensions():
    t0 = time.time()
    assert_passed(check_dimensions(10))
    spot = {("uaTL", 5): 180, ("upTL", 5): 176, ("upTL1", 4): 53,
            ("uaTL2", 6): 600}
    for (kind, n), want in spot.items():
        assert dimension_closed_form(AlgebraVariant(kind, n)) == want
    dt = time.time() - t0
    assert dt < 10, f"dimension check took {dt:.1f}s"
    report(1, f"enumerated == closed form, all variants n <= 10 ({dt:.1f}s)")


def test_criterion_02_defining_and_quotient_relations():
    t0 = time.time()
    assert_passed(check_relations(8, 0))
    assert_passed(check_quotient_relations(8, 0))
    dt = time.time() - t0
    assert dt < 30, f"relations took {dt:.1f}s"
    report(2, f"defining + quotient relations, 3 <= n <= 8 ({dt:.1f}s)")


def test_criterion_03_wenzl_jones():
    t0 = time.time()
    assert_passed(check_wenzl_jones(8, 0))
    dt = time.time() - t0
    assert dt < 30, f"Wenzl-Jones checks took {dt:.1f}s"
    report(3, f"P_m identities, m <= 8 ({dt:.1f}s)")


def _float_env_on_circle(seed, n):
    """A complex parameter point with |q| = |gamma| = 1, keeping q^(n m_k)
    bounded for the large-n float sweeps."""
    rng = random.Random(seed)
    s = cmath.exp(1j * rng.uniform(0.3, 1.2))
    alpha = complex(rng.uniform(0.5, 2.5))
    gamma = cmath.exp(1j * rng.uniform(0.4, 2.8))
    z = complex(rng.uniform(0.5, 2.0))
    from uncoiledtl.scalars import FLOAT, ParamEnv
    return ParamEnv(FLOAT, s, alpha, gamma, None, z, seed)


def test_criterion_04_and_05_gamma_equivalence_and_residuals():
    t0 = time.time()
    assert_passed(check_gamma(14, (0, 1, 2)))
    report(4, f"solver == conjecture exactly, all variants n <= 14, 3 seeds "
              f"({time.time() - t0:.1f}s)")
    report(5, "recurrence residuals exactly zero, both methods, same range")
    # all-r sectors for the affine kinds, complex backend on the unit circle
    t0 = time.time()
    for kind in AFFINE_KINDS:
        for n in legal_sizes(kind, 14):
            v = AlgebraVariant(kind, n)
            for seed in (0, 1, 2):
                base = _float_env_on_circle(seed, n)
                gamma = base.gamma if kind != "uaTL1" else complex(1)
                for r in range(n):
                    w = gamma ** (1.0 / n) * cmath.exp(2j * cmath.pi * r / n)
                    env = base.with_omega(w, n)
                    ts = gamma_solve(v, n, r, env)
                    tc = gamma_table_conjecture(v, n, r, env)
                    scale = max(1.0, max(abs(x) for x in ts.entries.values()))
                    for key, val in ts.diff(tc).items():
                        assert abs(val) <= 1e-9 * scale, (kind, n, r, key)
                    res = gamma_residuals(ts)
                    for key, val in res.items():
                        assert abs(val) <= 1e-9 * scale, (kind, n, r, key)
    report(4, f"all r sectors at 3 seeds (complex backend, n <= 14) "
              f"({time.time() - t0:.1f}s)")


def test_criterion_06_projector_verification():
    t0 = time.time()
    assert_passed(check_projectors(7, 6, 5, 0))
    # displayed coefficients, reproduced exactly under substitution
    env = sample_env(5, "upTL1", 2)
    b = env.beta
    assert gamma_conjecture(AlgebraVariant("upTL1", 2), 2, 1, 0, env) \
        == b / (env.alpha ** 2 - b ** 2)
    env = sample_env(5, "upTL", 3)
    b, g = env.beta, env.gamma
    assert gamma_conjecture(AlgebraVariant("upTL", 3), 3, 1, 0, env) \
        == -(b ** 2 - 1) / (g ** 2 + g ** -2 + b * (b ** 2 - 3))
    env = sample_env(5, "upTL1", 4)
    b = env.beta
    assert gamma_conjecture(AlgebraVariant("upTL1", 4), 4, 1, 0, env) \
        == -(b ** 2 - 2) / (b * (b ** 2 - 4))
    assert gamma_conjecture(AlgebraVariant("upTL1", 4), 4, 2, 0, env) \
        == -((b ** 2 - 2) / (b ** 2 - 4)) / (env.alpha ** 2 - (b ** 2 - 2) ** 2)
    env = sample_env(5, "upTL2", 4)
    b, g = env.beta, env.gamma
    assert gamma_conjecture(AlgebraVariant("upTL2", 4), 4, 1, 0, env) \
        == b * (b ** 2 - 2) / (g + 1 / g - b ** 4 + 4 * b ** 2 - 2)
    env = sample_env(5, "uaTL", 3)
    w, b = env.omega, env.beta
    assert gamma_conjecture(AlgebraVariant("uaTL", 3), 3, 1, 0, env) \
        == -1 / (3 * (w ** 2 + w ** -2 + b))
    dt = time.time() - t0
    assert dt < 600, f"projector verification took {dt:.1f}s"
    report(6, f"Q^2 = Q, annihilation, oracle (n <= 5), displayed "
              f"coefficients ({dt:.1f}s)")


def test_criterion_07_e0Z_expansion():
    t0 = time.time()
    assert_passed(check_e0Z_grids(7, 0))
    report(7, f"e_0 Z expansion, all grids n <= 7 ({time.time() - t0:.1f}s)")


def test_criterion_08_central_elements():
    t0 = time.time()
    assert_passed(check_central(6, 5, 24, 0))
    dt = time.time() - t0
    assert dt < 300, f"central element checks took {dt:.1f}s"
    report(8, f"F, Fbar, Omega^n scalars n <= 6; G central n <= 5; "
              f"H(k) for 2nk <= 24 ({dt:.1f}s)")


def test_criterion_09_isomorphism_and_module_action():
    t0 = time.time()
    # sign-conjugation isomorphism: diag((-1)^sigma_v) realizes z -> -z
    for n in range(2, 7):
        env = sample_env(0, "aTL", n)
        alg = Algebra(AlgebraVariant("aTL", n), env)
        for d in range(n % 2, n + 1, 2):
            mp = StandardModule(n, d, env.z, env)
            mm = StandardModule(n, d, -env.z, env)
            signs = [(-1) ** parity(v) for v in mp.basis]
            dim = len(mp.basis)
            for j in range(n):
                a = matrix_of(alg.e(j), mp)
                b = matrix_of(alg.e(j), mm)
                assert all(signs[i] * a[i][k] / signs[k] == b[i][k]
                           for i in range(dim) for k in range(dim)), (n, d, j)
    # projector module action: 1 on the top sector, 0 elsewhere
    for kind in UNCOILED_KINDS:
        for n in legal_sizes(kind, 6):
            env = sample_env(0, kind, n)
            v = AlgebraVariant(kind, n)
            r = sector_of(kind, env, n)
            q = build_projector_Q(gamma_solve(v, n, r, env))
            ztop = env.omega if kind in AFFINE_KINDS else Fraction(1)
            top = StandardModule(n, n, ztop, env)
            assert matrix_of(q, top) == [[1]], (kind, n, "top")
            # lower sectors at admissible complex twists
            fenv = env.to_float()
            if kind in AFFINE_KINDS:
                fenv = fenv.with_omega(complex(env.omega), n)
            qf = build_projector_Q(gamma_solve(v, n, r, fenv))
            gam = complex(env.gamma)
            for d in range(2 - (n % 2), n - 1, 2):
                if d == 0:
                    zd = complex(env.z)
                else:
                    zd = gam ** (1.0 / d) if kind not in ("uaTL1", "upTL1") \
                        else cmath.exp(2j * cmath.pi / d)
                mod = StandardModule(n, d, zd, fenv)
                mat = matrix_of(qf, mod)
                worst = max(abs(x) for row in mat for x in row)
                assert worst <= 1e-9, (kind, n, d, worst)
    dt = time.time() - t0
    report(9, f"sign-conjugation isomorphism n <= 6; Q acts as 1 on the top "
              f"sector and 0 below ({dt:.1f}s)")


def test_criterion_10_binomial_identity_and_sector_sum():
    t0 = time.time()
    for n in range(1, 41):
        lhs = sum(d * math.comb(n, (n - d) // 2) ** 2
                  for d in range(1, n + 1) if (n - d) % 2 == 0)
        half = (n - 1) // 2 if n % 2 else n // 2
        assert lhs == n * math.comb(n - 1, half) ** 2
    assert time.time() - t0 < 1
    # float backend: sum_r Q_{n,r} = Q_n to 1e-9, n <= 5
    for pkind, akind, ns in [("upTL", "uaTL", (3, 5)),
                             ("upTL1", "uaTL1", (2, 4)),
                             ("upTL2", "uaTL2", (2, 4))]:
        for n in ns:
            env = sample_env(0, pkind, n)
            fenv = env.to_float()
            pv = AlgebraVariant(pkind, n)
            av = AlgebraVariant(akind, n)
            ptable = gamma_solve(pv, n, None, env)
            gamma = complex(env.gamma) if pkind != "upTL1" else complex(1)
            w0 = gamma ** (1.0 / n)
            alg = Algebra(av, fenv.with_omega(w0, n))
            total = alg.zero()
            for r in range(n):
                wr = w0 * cmath.exp(2j * cmath.pi * r / n)
                env_r = fenv.with_omega(wr, n)
                qr = build_projector_Q(gamma_solve(av, n, r, env_r))
                total = total + AlgebraElement(alg, qr.terms)
            qn = alg.zero()
            for (k, l2) in gamma_grid(pv):
                c = complex(ptable.entries[(k, l2)])
                if c:
                    qn = qn + c * build_Z(alg, k, l2)
            diff = total - qn
            err = max((abs(c) for c in diff.terms.values()), default=0.0)
            scale = max(1.0, total.max_abs())
            assert err <= 1e-9 * scale, (pkind, n, err)
    report(10, f"D(n) identity exact n <= 40; sum_r Q_nr = Q_n to 1e-9, "
               f"n <= 5 ({time.time() - t0:.1f}s)")
