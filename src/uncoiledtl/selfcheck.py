"""The registry of the paper's machine checks, behind both `utl selfcheck`
and the acceptance gate.

Each check takes its sizes and seeds and returns (name, passed, detail); on
failure the detail names the first witness.  `run_selfcheck` runs them at
small sizes so the default run stays interactive; tests/test_acceptance.py
runs the same functions at the full spec sizes.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (Algebra, AlgebraVariant, basis_enumerate,
                      dimension_closed_form, is_idempotent)
from .projectors import (build_projector_Q, check_e0Z, gamma_residuals,
                         gamma_solve, gamma_table, gamma_table_conjecture,
                         projector_checks, sector_of, wenzl_jones_P)
from .reps import (StandardModule, build_central, central_eigenvalue,
                   central_matrix, is_scalar_action, is_scalar_matrix,
                   matrix_of)
from .scalars import (AFFINE_KINDS, STARRED_KINDS, UNCOILED_KINDS, qnum,
                      sample_env)


def legal_sizes(kind: str, max_n: int):
    """The sizes n <= max_n the checks build the kind at."""
    return range(3 if kind in ("uaTL", "upTL") else 2, max_n + 1, 2)


def _uncoiled(max_n: int):
    for kind in UNCOILED_KINDS:
        for n in legal_sizes(kind, max_n):
            yield kind, n


def check_dimensions(max_n: int):
    """Enumerated sandwich bases match the closed forms (criterion 01)."""
    for kind, n in _uncoiled(max_n):
        v = AlgebraVariant(kind, n)
        enumerated, closed = len(basis_enumerate(v)), dimension_closed_form(v)
        if enumerated != closed:
            return ("dimensions", False, f"{kind} n={n}: enumerated "
                    f"{enumerated}, closed form {closed}")
    return ("dimensions", True, f"all uncoiled variants, n <= {max_n}")


def check_relations(max_n: int, seed: int):
    """The defining relations of aTL_n, 3 <= n <= max_n (criterion 02)."""
    def fail(what, n):
        return ("defining-relations", False, f"{what}, n={n}")

    if max_n < 3:
        return ("defining-relations", True,
                f"skipped: needs n >= 3, max n is {max_n}")
    for n in range(3, max_n + 1):
        env = sample_env(seed, "aTL", n)
        alg = Algebra(AlgebraVariant("aTL", n), env)
        om, omi = alg.omega(), alg.omega(-1)
        if not (om * omi).equals(alg.one()):
            return fail("Omega Omega^-1", n)
        for j in range(n):
            ej = alg.e(j)
            if not (ej * ej).equals(env.beta * ej):
                return fail(f"e_{j}^2", n)
            for i in ((j + 1) % n, (j - 1) % n):
                if not (ej * alg.e(i) * ej).equals(ej):
                    return fail(f"e_{j} e_{i} e_{j}", n)
            if not (om * ej * omi).equals(alg.e((j - 1) % n)):
                return fail(f"Omega e_{j} Omega^-1", n)
            for i in range(n):
                if min((i - j) % n, (j - i) % n) > 1:
                    ei = alg.e(i)
                    if not (ei * ej).equals(ej * ei):
                        return fail(f"e_{i} e_{j} - e_{j} e_{i}", n)
        if not (om * om * alg.e(1)).equals(alg.word(*range(n - 1, 0, -1))):
            return fail("Omega^2 e_1", n)
    return ("defining-relations", True, f"3 <= n <= {max_n}")


def check_quotient_relations(max_n: int, seed: int):
    """The relations each uncoiled quotient adds (criterion 02)."""
    def fail(what, kind, n):
        return ("quotient-relations", False, f"{what} {kind} n={n}")

    for kind, n in _uncoiled(max_n):
        env = sample_env(seed, kind, n)
        alg = Algebra(AlgebraVariant(kind, n), env)
        if kind in AFFINE_KINDS:
            target = 1 if kind == "uaTL1" else env.gamma
            if not alg.omega(n).equals(target * alg.one()):
                return fail("Omega^n", kind, n)
        if kind not in ("uaTL", "upTL"):
            E = alg.word(*range(0, n, 2))
            if kind == "uaTL1":
                if not (E * alg.omega() * E).equals(env.alpha * E):
                    return fail("E Omega E", kind, n)
            elif kind == "upTL1":
                F = alg.word(*range(1, n, 2))
                if not (E * F * E).equals(env.alpha ** 2 * E):
                    return fail("E F E", kind, n)
            elif not E.is_zero():
                return fail("E", kind, n)
        if kind not in AFFINE_KINDS:
            turns = n - 2 if kind == "upTL" else (n - 2) // 2
            word = alg.word(0, *list(range(n - 1, -1, -1)) * turns)
            target = {"upTL": env.gamma ** 2, "upTL1": 1,
                      "upTL2": env.gamma}[kind]
            if not word.equals(target * alg.e(0)):
                return fail("unwinding", kind, n)
    return ("quotient-relations", True, f"all variants, n <= {max_n}")


def check_wenzl_jones(max_m: int, seed: int):
    """P_m in pTL_{max_m}, m <= max_m: idempotent, killed by e_1..e_{m-1}
    on both sides, e_m P_m e_m = -([m+1]/[m]) P_{m-1} e_m, and both
    recursions from P_{m-1} (criterion 03)."""
    def fail(what):
        return ("wenzl-jones", False, what)

    env = sample_env(seed, "pTL", max_m)
    alg = Algebra(AlgebraVariant("pTL", max_m), env)
    for m in range(1, max_m + 1):
        p = wenzl_jones_P(m, alg)
        if not is_idempotent(p):
            return fail(f"P_{m}^2 != P_{m}")
        for j in range(1, m):
            ej = alg.e(j)
            if not (ej * p).is_zero():
                return fail(f"e_{j} P_{m} != 0")
            if not (p * ej).is_zero():
                return fail(f"P_{m} e_{j} != 0")
        if m < 2:
            continue
        qm = qnum(m, env)
        if m < max_m:
            em = alg.e(m)
            want = (-qnum(m + 1, env) / qm) * (wenzl_jones_P(m - 1, alg) * em)
            if not (em * p * em).equals(want):
                return fail(f"e_{m} P_{m} e_{m}")
        up, down = alg.one(), alg.one()
        for j in range(1, m):
            up = up + qnum(m - j, env) / qm * alg.word(*range(1, j + 1))
            down = down + qnum(j, env) / qm * alg.word(*range(j, m)[::-1])
        if not (wenzl_jones_P(m - 1, alg, offset=1) * up).equals(p):
            return fail(f"P_{m} from P_{m - 1} on strands 2..{m}")
        if not (wenzl_jones_P(m - 1, alg) * down).equals(p):
            return fail(f"P_{m} from P_{m - 1} on strands 1..{m - 1}")
    return ("wenzl-jones", True, f"m <= {max_m}")


def check_gamma(max_n: int, seeds):
    """Solver and conjectured Gamma tables agree exactly, and both have
    zero recurrence residuals (criteria 04 and 05)."""
    for kind, n in _uncoiled(max_n):
        v = AlgebraVariant(kind, n)
        for seed in seeds:
            env = sample_env(seed, kind, n)
            r = sector_of(kind, env, n)
            ts = gamma_solve(v, n, r, env)
            tc = gamma_table_conjecture(v, n, r, env)
            for what, values in (("solver - conjecture", ts.diff(tc)),
                                 ("solver residual", gamma_residuals(ts)),
                                 ("conjecture residual", gamma_residuals(tc))):
                key = next((key for key, x in sorted(values.items()) if x),
                           None)
                if key is not None:
                    return ("gamma-solver-vs-conjecture", False,
                            f"{what} != 0 at (k, l2)={key}, {kind} n={n} "
                            f"seed={seed}")
    return ("gamma-solver-vs-conjecture", True,
            f"all variants, n <= {max_n}")


def check_projectors(periodic_max_n: int, affine_max_n: int,
                     oracle_max_n: int, seed: int):
    """Every check of `projectors.projector_checks` on the solver's Q, with
    the oracle up to oracle_max_n (criterion 06)."""
    for kind in UNCOILED_KINDS:
        max_n = affine_max_n if kind in AFFINE_KINDS else periodic_max_n
        for n in legal_sizes(kind, max_n):
            v = AlgebraVariant(kind, n)
            env = sample_env(seed, kind, n)
            r = sector_of(kind, env, n)
            q = build_projector_Q(gamma_table(v, n, r, env, "solver"))
            checks = projector_checks(q, n <= oracle_max_n)
            witness = next((w for w in checks.values() if w), None)
            if witness:
                return ("projectors", False, f"{witness}, {kind} n={n}")
    return ("projectors", True,
            f"all variants, n <= {max(periodic_max_n, affine_max_n)}")


def check_e0Z_grids(max_n: int, seed: int):
    """The e_0 Z_{k,l} expansion on every grid point, k = 0 included, and
    on the rows the starred kinds display separately (criterion 07)."""
    for kind, n in _uncoiled(max_n):
        # one algebra per grid: its rows share the blocks and reduce memo
        alg = Algebra(AlgebraVariant(kind, n), sample_env(seed, kind, n))
        starred = kind in STARRED_KINDS
        affine = kind in AFFINE_KINDS
        step = 1 if affine else 2
        # the periodic k = 0 row is l2 = 0 alone: Gamma_{0,l} = delta_{l,0}
        rows = [(k, l2) for k in range((n - 1) // 2 + 1)
                if not (starred and 2 * k >= n - 2)
                for l2 in range(0, n - 2 * k if k or affine else 1, step)]
        if starred:
            rows.append((n // 2, 0))
            rows.append(((n - 2) // 2, 0))
            if affine:
                rows.append(((n - 2) // 2, 1))
        for (k, l2) in rows:
            if not check_e0Z(alg, k, l2).is_zero():
                return ("e0Z-expansion", False,
                        f"{kind} n={n} (k, l2)={(k, l2)}")
    return ("e0Z-expansion", True, f"all grids, n <= {max_n}")


def check_central(max_n: int, g_max_n: int, h_max_2nk: int, seed: int):
    """On every standard module W_{n,d} of aTL_n: F, Fbar, Omega^n and
    Omega^-n act as their predicted scalars (n <= max_n), G is central
    and scalar (3 <= n <= g_max_n), and H(k) is scalar for 2nk <= h_max_2nk
    (n <= max_n; its element route is compared with the matrix route at
    n = 3, k = 1) (criterion 08)."""
    def fail(which, n, d):
        return ("central-elements", False, f"{which} n={n} d={d}")

    for n in range(2, max_n + 1):
        env = sample_env(seed, "aTL", n)
        mods = [StandardModule(n, d, env.z, env)
                for d in range(n % 2, n + 1, 2)]
        for which in ("F", "Fbar", "OmegaN", "OmegaNinv"):
            el = build_central(n, which, env)
            for mod in mods:
                if not is_scalar_action(el, mod,
                                        central_eigenvalue(which, mod)):
                    return fail(which, n, mod.d)
        if 3 <= n <= g_max_n:
            alg = Algebra(AlgebraVariant("aTL", n), env)
            g = build_central(n, "G", env)
            for j in range(n):
                ej = alg.e(j)
                if not (g * ej - ej * g).is_zero():
                    return ("central-elements", False,
                            f"G e_{j} - e_{j} G != 0, n={n}")
            for mod in mods:
                if not is_scalar_action(g, mod, central_eigenvalue("G", mod)):
                    return fail("G", n, mod.d)
        step = Fraction(1) if n % 2 else Fraction(1, 2)
        k = step
        while 2 * n * k <= h_max_2nk:
            for mod in mods:
                mat = central_matrix(n, "H", mod, k)
                if not is_scalar_matrix(mat, central_eigenvalue("H", mod, k),
                                        env):
                    return fail(f"H({k})", n, mod.d)
                if (n, k) == (3, 1) and \
                        matrix_of(build_central(3, "H", env, 1), mod) != mat:
                    return fail("H(1) element route", n, mod.d)
            k += step
    return ("central-elements", True, f"n <= {max_n}")


def run_selfcheck(max_n: int = 4, seed: int = 0):
    if max_n < 2:  # no uncoiled kind exists below n = 2
        raise ValueError(f"selfcheck needs max n >= 2, got {max_n}")
    small, central_n = min(max_n, 5), min(max_n, 4)
    checks = (
        (check_dimensions, (max_n,)),
        (check_relations, (max_n, seed)),
        (check_quotient_relations, (max_n, seed)),
        (check_wenzl_jones, (min(max_n + 2, 6), seed)),
        (check_gamma, (max_n, (seed,))),
        (check_projectors, (small, small, 5, seed)),
        (check_e0Z_grids, (max_n, seed)),
        (check_central, (central_n, central_n, 4 * central_n, seed)),
    )
    report = []
    for chk, args in checks:
        try:
            report.append(chk(*args))
        except Exception as exc:  # a crash is a failure, not an abort
            report.append((chk.__name__, False, f"exception: {exc}"))
    return report
