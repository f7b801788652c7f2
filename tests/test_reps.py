import json
import random
from fractions import Fraction

import pytest

from uncoiledtl import diagrams, reps
from uncoiledtl.algebra import (Algebra, AlgebraElement, AlgebraVariant,
                                ResourceLimitError)
from uncoiledtl.cli import run
from uncoiledtl.diagrams import (DEFECT, LinkState, act_on_state, e, omega,
                                 trace_interface)
from uncoiledtl.reps import (StandardModule, braid_transfer, build_central,
                             central_eigenvalue, central_matrix,
                             is_scalar_action, matrix_of)
from uncoiledtl.scalars import sample_env

D = DEFECT


def st(*nodes):
    return LinkState(nodes)


def _column(dia, w, module):
    """The column of w in matrix_of(dia, module): {image state: entry}
    over its nonzero cells."""
    basis = module.basis
    j = basis.index(w)
    return {basis[i]: row[j]
            for i, row in enumerate(matrix_of(dia, module)) if row[j]}


def test_action_displayed_examples(env_atl5):
    env = env_atl5
    z = env.z
    # e_1 . {(1,2), D3, D4} = beta . same
    m = StandardModule(4, 2, z, env)
    w = st((1, False), (0, False), D, D)
    assert _column(e(4, 1), w, m) == {w: env.beta}
    # e_4 . {(1,2),(3,4),D5} = {(1,2),(4,5),D3}
    m51 = StandardModule(5, 1, z, env)
    w = st((1, False), (0, False), (3, False), (2, False), D)
    want = st((1, False), (0, False), D, (4, False), (3, False))
    assert _column(e(5, 4), w, m51) == {want: 1}
    # e_0 . {(2,3),(1,4)} = alpha . {(1,4)seam,(2,3)}
    m40 = StandardModule(4, 0, z, env)
    w = st((3, False), (2, False), (1, False), (0, False))
    want = st((3, True), (2, False), (1, False), (0, True))
    assert _column(e(4, 0), w, m40) == {want: m40.alpha}
    # Omega . {D1,(3,4),(2,5)} = z . {D5,(2,3),(1,4)}
    w = st(D, (4, False), (3, False), (2, False), (1, False))
    want = st((3, False), (2, False), (1, False), (0, False), D)
    assert _column(omega(5), w, m51) == {want: z}
    # e_3 . {(4,1)seam, D2, D3} = z^-1 . {D1,D2,(3,4)}
    m42 = StandardModule(4, 2, z, env)
    w = st((3, True), D, D, (0, True))
    want = st(D, D, (3, False), (2, False))
    assert _column(e(4, 3), w, m42) == {want: 1 / z}
    # e_3 . {(1,2),D3,D4,D5} = 0
    m53 = StandardModule(5, 3, z, env)
    w = st((1, False), (0, False), D, D, D)
    assert _column(e(5, 3), w, m53) == {}


def test_matrix_of_identity_and_top_sector(env_atl5):
    env = env_atl5
    alg = Algebra(AlgebraVariant("aTL", 4), env)
    m = StandardModule(4, 2, env.z, env)
    dim = len(m.basis)
    ident = matrix_of(alg.one(), m)
    assert ident == [[1 if i == j else 0 for j in range(dim)]
                     for i in range(dim)]
    # each e_j is the 1x1 zero matrix on W_{n,n,z}
    top = StandardModule(4, 4, env.z, env)
    for j in range(4):
        assert matrix_of(alg.e(j), top) == [[0]]


def test_matrix_of_multiplicative(env_atl5):
    env = env_atl5
    alg = Algebra(AlgebraVariant("aTL", 4), env)
    m = StandardModule(4, 0, env.z, env)
    rng = random.Random(3)
    gens = [alg.e(j) for j in range(4)] + [alg.omega(), alg.omega(-1)]
    dim = len(m.basis)

    def matmul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(dim))
                 for j in range(dim)] for i in range(dim)]

    for _ in range(50):
        a, b = rng.choice(gens), rng.choice(gens)
        assert matrix_of(a * b, m) == matmul(matrix_of(a, m),
                                             matrix_of(b, m))


def test_braid_transfer_leading_terms():
    env = sample_env(4, "aTL", 3)
    f = braid_transfer(3, env)
    q = env.q
    s = env.s
    assert f.coefficient(omega(3)) == s ** 3        # q^{n/2} Omega
    assert f.coefficient(omega(3, -1)) == s ** -3
    fb = braid_transfer(3, env, bar=True)
    assert fb.coefficient(omega(3)) == s ** -3
    assert fb.coefficient(omega(3, -1)) == s ** 3
    assert len(f) <= 2 ** 3


def test_f2_eigenvalue_example():
    # F on W_{2,2,z} acts as zq + (zq)^{-1}
    env = sample_env(4, "aTL", 2)
    m = StandardModule(2, 2, env.z, env)
    f = build_central(2, "F", env)
    val = env.z * env.q + 1 / (env.z * env.q)
    assert is_scalar_action(f, m, val)
    assert central_eigenvalue("F", m) == val


def test_f_on_w_n0_is_alpha():
    env = sample_env(4, "aTL", 4)
    m = StandardModule(4, 0, env.z, env)
    assert central_eigenvalue("F", m) == m.alpha


def test_central_eigenvalues_all_modules():
    for n in (2, 3, 4, 5):
        env = sample_env(7, "aTL", n)
        for d in range(n % 2, n + 1, 2):
            m = StandardModule(n, d, env.z, env)
            for which in ("F", "Fbar", "OmegaN", "OmegaNinv", "G"):
                el = build_central(n, which, env)
                assert is_scalar_action(el, m, central_eigenvalue(which, m)), \
                    (which, n, d)


def test_omega_n_eigenvalue_example():
    env = sample_env(7, "aTL", 3)
    m = StandardModule(3, 1, env.z, env)
    assert central_eigenvalue("OmegaN", m) == env.z


def test_g_central_in_ptl():
    for n in (3, 4):
        env = sample_env(7, "aTL", n)
        alg = Algebra(AlgebraVariant("aTL", n), env)
        g = build_central(n, "G", env)
        for j in range(n):
            ej = alg.e(j)
            assert (g * ej - ej * g).is_zero()


def test_h_element_matches_matrix_route():
    # element-level Chebyshev recurrence agrees with the matrix recurrence
    for n, k in ((3, 1), (4, Fraction(1, 2))):
        env = sample_env(7, "aTL", n)
        el = build_central(n, "H", env, k)
        for d in range(n % 2, n + 1, 2):
            m = StandardModule(n, d, env.z, env)
            assert matrix_of(el, m) == central_matrix(n, "H", m, k), (n, d)
            assert is_scalar_action(el, m, central_eigenvalue("H", m, k))


def test_g_matrix_route_matches_the_element():
    # F^2 + Fbar^2 - (q^n + q^-n) F Fbar from the matrices of F and Fbar
    for n in range(3, 6):
        for seed in (0, 5):
            env = sample_env(seed, "aTL", n)
            g = build_central(n, "G", env)
            for d in range(n % 2, n + 1, 2):
                m = StandardModule(n, d, env.z, env)
                assert central_matrix(n, "G", m) == matrix_of(g, m), (n, d)


def _central_matrix_h_reference(n, module, k):
    """H(k) on a module by the Chebyshev recurrence on Fraction matrices:
    U_j = F U_{j-1} - U_{j-2} from U_0 = 2I and U_1 = F."""
    env = module.env
    m = int(2 * n * Fraction(k))
    fmat = matrix_of(braid_transfer(n, env), module)
    dim = len(fmat)
    two_id = [[(2 if i == j else 0) for j in range(dim)] for i in range(dim)]

    def matmul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(dim))
                 for j in range(dim)] for i in range(dim)]

    prev, cur = two_id, fmat
    for _ in range(2, m + 1):
        prev, cur = cur, [[x - y for x, y in zip(r1, r2)]
                          for r1, r2 in zip(matmul(fmat, cur), prev)]
    if m == 0:
        cur = two_id
    n2k = int(n * n * Fraction(k))
    q = env.q
    alg = Algebra(AlgebraVariant("aTL", n), env)
    omat = matrix_of(alg.omega(m), module)
    oinv = matrix_of(alg.omega(-m), module)
    return [[cur[i][j] - q ** n2k * omat[i][j] - q ** (-n2k) * oinv[i][j]
             for j in range(dim)] for i in range(dim)]


def test_h_integer_recurrence_matches_fraction_reference():
    # every d and every legal k with 2nk <= 24, k = 0 included
    for n in range(2, 7):
        env = sample_env(5, "aTL", n)
        step = Fraction(1) if n % 2 else Fraction(1, 2)
        for d in range(n % 2, n + 1, 2):
            mod = StandardModule(n, d, env.z, env)
            k = Fraction(0)
            while 2 * n * k <= 24:
                assert central_matrix(n, "H", mod, k) == \
                    _central_matrix_h_reference(n, mod, k), (n, d, k)
                k += step


def test_h_parity_and_caps():
    env = sample_env(7, "aTL", 3)
    with pytest.raises(ValueError):
        build_central(3, "H", env, Fraction(1, 2))  # n odd needs integer k
    with pytest.raises(ResourceLimitError):
        build_central(3, "H", env, 5)  # 2nk = 30 > 24
    with pytest.raises(ResourceLimitError):
        braid_transfer(9, env)


def test_representation_respects_defining_relations():
    # matrix relations on every standard module, n <= 5
    for n in (3, 4, 5):
        env = sample_env(7, "aTL", n)
        alg = Algebra(AlgebraVariant("aTL", n), env)
        for d in range(n % 2, n + 1, 2):
            m = StandardModule(n, d, env.z, env)
            mats = {j: matrix_of(alg.e(j), m) for j in range(n)}
            om = matrix_of(alg.omega(), m)
            omi = matrix_of(alg.omega(-1), m)
            dim = len(om)

            def matmul(a, b):
                return [[sum(a[i][t] * b[t][j] for t in range(dim))
                         for j in range(dim)] for i in range(dim)]

            for j in range(n):
                sq = matmul(mats[j], mats[j])
                assert sq == [[env.beta * x for x in row]
                              for row in mats[j]]
                eje = matmul(matmul(mats[j], mats[(j + 1) % n]), mats[j])
                assert eje == mats[j]
                conj = matmul(matmul(om, mats[j]), omi)
                assert conj == mats[(j - 1) % n]


def test_sign_conjugation_iso_minus_z():
    # diag((-1)^sigma) conjugation turns W_{n,d,z} into W_{n,d,-z}
    from uncoiledtl.diagrams import parity
    for n in (3, 4):
        env = sample_env(7, "aTL", n)
        alg = Algebra(AlgebraVariant("aTL", n), env)
        for d in range(n % 2, n + 1, 2):
            mp = StandardModule(n, d, env.z, env)
            mm = StandardModule(n, d, -env.z, env)
            signs = [(-1) ** parity(v) for v in mp.basis]
            dim = len(mp.basis)
            for j in range(n):
                a = matrix_of(alg.e(j), mp)
                b = matrix_of(alg.e(j), mm)
                conj = [[signs[i] * a[i][k] / signs[k] for k in range(dim)]
                        for i in range(dim)]
                assert conj == b


def test_uncoiled_admissibility():
    # the quotient relation acts as claimed exactly when z^d hits the target
    env0 = sample_env(9, "aTL", 4)
    n = 4
    alg = Algebra(AlgebraVariant("aTL", n), env0)
    omn = alg.omega(n)
    for d in (2, 4):
        z = Fraction(3, 5)
        m = StandardModule(n, d, z, env0)
        gamma = z ** d
        assert is_scalar_action(omn, m, gamma)       # admissible
        assert not is_scalar_action(omn, m, gamma + 1)
        word = alg.e(0)
        for _ in range((n - 2) // 2):
            for j in range(n - 1, -1, -1):
                word = word * alg.e(j)
        lhs = matrix_of(word, m)
        rhs = matrix_of(alg.e(0), m)
        dim = len(lhs)
        # e_0 (e_3 e_2 e_1 e_0)^{(n-2)/2} = z^d e_0 on W_{n,d,z}
        assert all(lhs[i][j] == z ** d * rhs[i][j]
                   for i in range(dim) for j in range(dim))


def test_matrix_of_is_linear(env_atl5):
    env = env_atl5
    m = StandardModule(5, 1, env.z, env)
    alg = Algebra(AlgebraVariant("aTL", 5), env)
    e1, om = matrix_of(alg.e(1), m), matrix_of(alg.omega(), m)
    want = [[x + 2 * y for x, y in zip(row1, row2)]
            for row1, row2 in zip(e1, om)]
    assert matrix_of(alg.e(1) + 2 * alg.omega(), m) == want


def test_matrix_of_rejects_a_diagram_of_another_size(env_atl5):
    m = StandardModule(5, 1, env_atl5.z, env_atl5)
    with pytest.raises(ValueError, match="size mismatch"):
        matrix_of(e(4, 1), m)


def _matrix_of_reference(a, module):
    """matrix_of by pairwise Fraction sums: each (diagram, state) adds its
    coefficient times its weight beta^b alpha^nc z^e, computed here from
    act_on_state, to its cell."""
    env = module.env
    basis = module.basis
    index = {s: i for i, s in enumerate(basis)}
    rows = [[0] * len(basis) for _ in basis]
    terms = a.terms if isinstance(a, AlgebraElement) else {a: 1}
    for dia, c in terms.items():
        for j, state in enumerate(basis):
            res = act_on_state(dia, state)
            if res is None:
                continue
            b, nc, z_exp, image = res
            if dia.d == 0:
                nc += dia.mid
            weight = env.beta ** b * module.alpha ** nc * module.z ** z_exp
            rows[index[image]][j] += c * weight
    return rows


def _random_element(alg, rng, coeff):
    """A sum of up to four words of length up to three in the e_j and
    Omega^(+-1), each with a coefficient drawn by coeff(rng)."""
    n = alg.n
    gens = [alg.e(j) for j in range(n)] + [alg.omega(), alg.omega(-1)]
    out = alg.zero()
    for _ in range(rng.randint(1, 4)):
        word = alg.one()
        for _ in range(rng.randint(0, 3)):
            word = word * rng.choice(gens)
        out = out + coeff(rng) * word
    return out


def test_matrix_of_matches_pairwise_fraction_reference():
    # random aTL elements on every standard module at n <= 6
    rng = random.Random(18)

    def coeff(rng):
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))

    for n in range(2, 7):
        env = sample_env(n, "aTL", n)
        alg = Algebra(AlgebraVariant("aTL", n), env)
        for d in range(n % 2, n + 1, 2):
            m = StandardModule(n, d, env.z, env)
            for _ in range(8):
                a = _random_element(alg, rng, coeff)
                assert matrix_of(a, m) == _matrix_of_reference(a, m), (n, d)


def test_matrix_of_a_cell_that_cancels_to_zero():
    # beta e_1 - e_1 e_3 on {(1,2),(3,4)}: beta * beta - 1 * beta^2 = 0,
    # summed from two weight keys (one loop, two loops)
    env = sample_env(3, "aTL", 4)
    alg = Algebra(AlgebraVariant("aTL", 4), env)
    m = StandardModule(4, 0, env.z, env)
    a = env.beta * alg.e(1) - alg.e(1) * alg.e(3)
    i = m.basis.index(st((1, False), (0, False), (3, False), (2, False)))
    ref = _matrix_of_reference(a, m)
    assert ref[i][i] == 0
    mat = matrix_of(a, m)
    assert mat == ref
    assert mat[i][i] == 0 and any(x for row in mat for x in row)


def test_matrix_of_a_bare_diagram(env_atl5):
    env = env_atl5
    for d in (1, 3, 5):
        m = StandardModule(5, d, env.z, env)
        for dia in (e(5, 0), e(5, 3), omega(5), omega(5, -2)):
            assert matrix_of(dia, m) == _matrix_of_reference(dia, m), (d, dia)


def test_matrix_of_large_and_mixed_denominators():
    rng = random.Random(5)
    dens = (1, 7, 2 ** 61 - 1, 10 ** 30 + 57, 3 ** 40)

    def coeff(rng):
        if rng.random() < 0.25:
            return rng.randint(-10 ** 20, 10 ** 20)  # a plain int
        return Fraction(rng.randint(-10 ** 25, 10 ** 25), rng.choice(dens))

    for n in (3, 4, 5):
        env = sample_env(n + 20, "aTL", n)
        alg = Algebra(AlgebraVariant("aTL", n), env)
        for d in range(n % 2, n + 1, 2):
            m = StandardModule(n, d, env.z, env)
            for _ in range(3):
                a = _random_element(alg, rng, coeff)
                assert matrix_of(a, m) == _matrix_of_reference(a, m), (n, d)


def test_matrix_of_float_backend_matches_reference():
    rng = random.Random(7)

    def coeff(rng):
        return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))

    for n in (3, 4, 5):
        env = sample_env(n, "aTL", n).to_float()
        alg = Algebra(AlgebraVariant("aTL", n), env)
        for d in range(n % 2, n + 1, 2):
            m = StandardModule(n, d, env.z, env)
            for _ in range(3):
                a = _random_element(alg, rng, coeff)
                got, want = matrix_of(a, m), _matrix_of_reference(a, m)
                scale = max(1.0, max(abs(x) for row in want for x in row))
                assert all(abs(x - y) <= 1e-9 * scale
                           for rg, rw in zip(got, want)
                           for x, y in zip(rg, rw)), (n, d)


@pytest.mark.parametrize("n", [6, 7])
def test_braid_transfers_match_pairwise_fraction_reference(n):
    # F and Fbar have many terms per top, which random words rarely give
    env = sample_env(n, "aTL", n)
    for f in (braid_transfer(n, env), braid_transfer(n, env, bar=True)):
        for d in range(n % 2, n + 1, 2):
            m = StandardModule(n, d, env.z, env)
            assert matrix_of(f, m) == _matrix_of_reference(f, m), (n, d)


def test_matrix_of_reuses_the_faces_of_a_shared_lower_record(monkeypatch):
    # each term's outer face is computed once per distinct (lower, d_new)
    # record of its top, however many states give that record
    n = 6
    env = sample_env(3, "aTL", n)
    f = braid_transfer(n, env)
    by_top = {}
    for dia in f.terms:
        by_top.setdefault(dia.top, []).append(dia)
    calls = []

    def counting(*args):
        calls.append(args)
        return outer_face(*args)

    outer_face = reps.outer_face
    monkeypatch.setattr(reps, "outer_face", counting)
    total, pairs = 0, 0
    for d in range(0, n + 1, 2):
        m = StandardModule(n, d, env.z, env)
        calls.clear()
        assert matrix_of(f, m) == _matrix_of_reference(f, m), d
        want = 0
        for top, group in by_top.items():
            records = set()
            for state in m.basis:
                _, _, lower, upper, d_new = trace_interface(top, state)
                if not upper[0]:  # no two defects of the state joined
                    records.add((lower, d_new))
                    pairs += len(group)
            want += len(records) * len(group)
        assert len(calls) == want, d
        total += want
    assert total < pairs


@pytest.mark.parametrize("which, expansions", [("F", 1), ("G", 2), ("H", 1)])
def test_central_expands_each_braid_transfer_once(monkeypatch, capsys, which,
                                                  expansions):
    # one utl central call acts on the four sectors of n = 6; F (and Fbar,
    # for G) are expanded into their 2^n diagrams once, not once per sector
    n = 6
    made = []

    def counting(*args):
        made.append(args)
        return from_cover(*args)

    from_cover = diagrams.from_cover
    monkeypatch.setattr(diagrams, "from_cover", counting)
    braid_transfer.cache_clear()
    argv = ["central", "--which", which, "--n", str(n), "--seed", "1"]
    assert run(argv + (["--k", "1"] if which == "H" else [])) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["d"] for r in doc["results"]] == [0, 2, 4, 6]
    assert all(r["scalar_action"] for r in doc["results"])
    assert len(made) == expansions * 2 ** n


def test_module_serialization(env_atl5):
    m = StandardModule(5, 1, env_atl5.z, env_atl5)
    doc = m.to_json()
    assert doc["n"] == 5 and doc["d"] == 1
