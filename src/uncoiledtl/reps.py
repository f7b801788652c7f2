"""Standard modules W_{n,d,z}, the twisted diagram action, and the central
elements F, F-bar, G, H_k with their predicted eigenvalues."""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import cached_property, lru_cache

from . import diagrams
from .algebra import (Algebra, AlgebraElement, AlgebraVariant,
                      ResourceLimitError, max_terms)
from .diagrams import link_states, outer_face, trace_interface
from .scalars import (FrozenValue, NonGenericParameterError, ParamEnv,
                      over_common_denominator, ratio)

MAX_BRAID_N = 8
MAX_CHEBYSHEV_DEGREE = 24


class StandardModule(FrozenValue):
    """W_{n,d,z}: link states with d defects; twist z (loop weight
    alpha = z + 1/z when d = 0)."""

    _fields = ("n", "d", "z", "env")

    def __init__(self, n: int, d: int, z, env: ParamEnv):
        if (n - d) % 2 or not 0 <= d <= n:
            raise ValueError("d must match the parity of n")
        if not z:
            raise NonGenericParameterError("z must be invertible")
        self.__dict__.update(n=n, d=d, z=z, env=env, _key=(n, d, z, env))

    @property
    def basis(self):
        return link_states(self.n, self.d)

    @cached_property
    def alpha(self):
        return self.z + 1 / self.z

    def weight(self, key):
        """beta^b alpha^nc z^e for the key (b, nc, e)."""
        beta_exp, nc, z_exp = key
        return self.env.beta ** beta_exp * self.alpha ** nc * self.z ** z_exp

    def to_json(self):
        from .scalars import scalar_to_json
        return {"n": self.n, "d": self.d, "z": scalar_to_json(self.z)}


def _action_numerators(a, module: StandardModule):
    """The action of a diagram or an algebra element on the ordered basis
    of B_{n,d} as ({row * dim + column: numerator}, denominator).

    Each term acts on a state as ``act_on_state`` does, but by interface
    blocks, as ``mul`` multiplies: the terms are grouped by top, each (top,
    state) interface is traced once, and a term's outer face is computed
    once per distinct lower side record of its top.  Each (cell, weight
    key) adds up the int numerators of a (``AlgebraElement.nums``, over
    its one denominator).  The handful of distinct weights are then put
    over one denominator too, so each cell is one int sum.  A complex value
    is its own numerator over 1, so the float backend runs the same code.
    Raises ResourceLimitError before any work once the dim x dim matrix
    would pass UTL_MAX_TERMS.
    """
    basis = module.basis
    dim = len(basis)
    cap = max_terms()
    if dim * dim > cap:
        raise ResourceLimitError(
            f"a {dim} x {dim} module matrix exceeds UTL_MAX_TERMS={cap}")
    index = {s: i for i, s in enumerate(basis)}
    if isinstance(a, AlgebraElement):
        nums, den = a.nums, a.den
    else:
        nums, den = {a: 1}, 1
    by_top = {}
    for dia, c in nums.items():
        if dia.n != module.n:
            raise ValueError("size mismatch")
        by_top.setdefault(dia.top, []).append((dia, c))
    parts = {}  # weight key (b, nc, e) -> {cell: int sum}
    for top, group in by_top.items():
        faces = {}  # (lower, d_new) -> [(row * dim, li, stored loops, c)]
        for j, state in enumerate(basis):
            beta_exp, nc, lower, (joined, _, anchor), d_new = \
                trace_interface(top, state)
            if joined:
                continue
            images = faces.get((lower, d_new))
            if images is None:
                images = faces[lower, d_new] = []
                for dia, c in group:
                    image, li = outer_face(dia.bottom, dia.mid, lower, d_new)
                    # loops on the diagram weigh alpha
                    images.append((index[image] * dim, li or 0,
                                   0 if dia.d else dia.mid, c))
            anchor = anchor or 0  # None, like li, when no defect survives
            for row, li, stored, c in images:
                loops = nc + stored
                if loops and module.d:
                    raise AssertionError(
                        "non-contractible loop in a d > 0 action")
                key = beta_exp, loops, anchor - li
                part = parts.get(key)
                if part is None:
                    part = parts[key] = {}
                cell = row + j
                part[cell] = part.get(cell, 0) + c
    factors, common = over_common_denominator(map(module.weight, parts))
    sums = {}
    for f, part in zip(factors, parts.values()):
        for cell, val in part.items():
            sums[cell] = sums.get(cell, 0) + val * f
    return sums, den * common


def matrix_of(a, module: StandardModule):
    """Row-major matrix of the action of a diagram or an algebra element on
    the ordered basis of B_{n,d}: one ratio per nonzero cell of
    ``_action_numerators``."""
    sums, den = _action_numerators(a, module)
    dim = len(module.basis)
    rows = [[module.env.zero] * dim for _ in range(dim)]
    for cell, val in sums.items():
        if val:
            i, j = divmod(cell, dim)
            rows[i][j] = ratio(val, den)
    return rows


# -- central elements ---------------------------------------------------------

@lru_cache(maxsize=2)
def braid_transfer(n: int, env: ParamEnv, bar: bool = False) -> AlgebraElement:
    """F (or F-bar): the row of n crossing faces expanded into 2^n diagram
    terms, each face contributing q^(1/2) on the Omega-type resolution and
    q^(-1/2) on the other (roles swapped for F-bar).

    The two latest expansions are kept, by (n, env, bar), so F and Fbar
    are expanded once for all the sectors of one point; callers share the
    element and must not change its terms."""
    if n > MAX_BRAID_N:
        raise ResourceLimitError(f"braid transfer limited to n <= {MAX_BRAID_N}")
    alg = Algebra(AlgebraVariant("aTL", n), env)
    s = env.s
    acc = {}
    for choice in itertools.product((True, False), repeat=n):
        # m_i joins face i (its east side) to face j = i+1 (west side); True
        # = the resolution composing to Omega: south-east plus west-north.
        # Seen from node j, node i sits at cover position j - 1.
        bot, top, through = [None] * n, [None] * n, [None] * n
        for i in range(n):
            j = (i + 1) % n
            if choice[i] and choice[j]:      # bottom i to top i+1
                through[i] = i + 1
            elif choice[i]:                  # bottom i to bottom i+1
                bot[i], bot[j] = i + 1, j - 1
            elif choice[j]:                  # top i to top i+1
                top[i], top[j] = i + 1, j - 1
            else:                            # top i to bottom i+1
                through[j] = j - 1
        dia = diagrams.from_cover(bot, top, through, 0)
        w = sum(1 if c else -1 for c in choice)
        coeff = s ** (-w if bar else w)
        acc[dia] = acc.get(dia, 0) + coeff
    return alg.element(acc)


def chebyshev_like(f: AlgebraElement, m: int) -> AlgebraElement:
    """2 T_m(F/2) through the renormalized recurrence U_m = F U_{m-1} - U_{m-2},
    avoiding rational halves."""
    alg = f.algebra
    two = 2 * alg.one()
    if m == 0:
        return two
    prev, cur = two, f
    for _ in range(2, m + 1):
        prev, cur = cur, f * cur - prev
    return cur


def _chebyshev_degree(n: int, k) -> int:
    """m = 2nk, the Chebyshev degree of H(k); k in (1/2) N, an integer for
    n odd."""
    if k is None:
        raise ValueError("H(k) needs k")
    k = Fraction(k)
    if n % 2 and k.denominator != 1:
        raise ValueError("H(k) needs integer k for n odd")
    if k < 0 or k.denominator not in (1, 2):
        raise ValueError("H(k) needs k in (1/2) N")
    m = int(2 * n * k)
    if m > MAX_CHEBYSHEV_DEGREE:
        raise ResourceLimitError(
            f"H(k) limited to 2nk <= {MAX_CHEBYSHEV_DEGREE}")
    return m


def build_central(n: int, which: str, env: ParamEnv, k=None) -> AlgebraElement:
    """F, Fbar, G, Omega^(+-n), or H(k), as elements of aTL."""
    alg = Algebra(AlgebraVariant("aTL", n), env)
    q = env.q
    if which == "F":
        return braid_transfer(n, env)
    if which == "Fbar":
        return braid_transfer(n, env, bar=True)
    if which == "OmegaN":
        return alg.omega(n)
    if which == "OmegaNinv":
        return alg.omega(-n)
    if which == "G":
        f = braid_transfer(n, env)
        fb = braid_transfer(n, env, bar=True)
        return f * f + fb * fb - (q ** n + q ** (-n)) * (f * fb)
    if which == "H":
        m = _chebyshev_degree(n, k)
        n2k = int(n * n * Fraction(k))
        f = braid_transfer(n, env)
        u = chebyshev_like(f, m)
        return u - (q ** n2k) * alg.omega(m) - (q ** (-n2k)) * alg.omega(-m)
    raise ValueError(f"unknown central element {which!r}")


def central_eigenvalue(which: str, module: StandardModule, k=None):
    """The predicted scalar of a central element on W_{n,d,z}."""
    env = module.env
    n, d, z = module.n, module.d, module.z
    q = env.q
    sd = env.s ** d  # q^(d/2)
    if which == "F":
        return z * sd + 1 / (z * sd)
    if which == "Fbar":
        return z / sd + sd / z
    if which == "OmegaN":
        return z ** d
    if which == "OmegaNinv":
        return z ** (-d)
    if which == "G":
        f = z * sd + 1 / (z * sd)
        fb = z / sd + sd / z
        return f * f + fb * fb - (q ** n + q ** (-n)) * f * fb
    if which == "H":
        k = Fraction(k)
        e1 = int(2 * n * k)
        e2 = int(n * k * d)
        e3 = int(n * n * k)
        e4 = int(2 * d * k)
        return (z ** e1 * q ** e2 + z ** (-e1) * q ** (-e2)
                - q ** e3 * z ** e4 - q ** (-e3) * z ** (-e4))
    raise ValueError(f"unknown central element {which!r}")


def _int_matrix(a, module: StandardModule):
    """matrix_of(a, module) as (A, D) with A an int matrix and D an int,
    A / D, both divided by their gcd.  The entries must be rational (the
    exact backend)."""
    sums, den = _action_numerators(a, module)
    g = math.gcd(den, *sums.values())
    dim = len(module.basis)
    rows = [[0] * dim for _ in range(dim)]
    for cell, val in sums.items():
        i, j = divmod(cell, dim)
        rows[i][j] = val // g
    return rows, den // g


def _matmul(x, y):
    cols = list(zip(*y))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in x]


def central_matrix(n: int, which: str, module: StandardModule, k=None):
    """The matrix of a central element on a standard module.

    G and H(k) are computed from the matrices of F and Fbar rather than from
    the element: the action map is linear and multiplicative (the
    representation property, itself part of the verification suite), so
    this equals the matrix of the element while staying tractable at
    n = 8 and 2nk = 24.  Both run on integers, with matrix_of(F) = A / D
    and matrix_of(Fbar) = B / E (``_int_matrix``).  G = F^2 + Fbar^2 -
    (q^n + q^-n) F Fbar is (E^2 A^2 + D^2 B^2 - c D E A B) / (D E)^2.  For
    H, B_j = D^j U_j(F) obeys B_j = A B_{j-1} - D^2 B_{j-2} from B_0 = 2I
    and B_1 = A, and 2 T_m(F/2) = B_m / D^m is divided out once at the end.
    The entries of these matrices must be rational (the exact backend).
    """
    env = module.env
    if which == "G":
        a, da = _int_matrix(braid_transfer(n, env), module)
        b, db = _int_matrix(braid_transfer(n, env, bar=True), module)
        c = env.q ** n + env.q ** (-n)
        wa = c.denominator * db * db
        wb = c.denominator * da * da
        wab = c.numerator * da * db
        den = c.denominator * (da * db) ** 2
        return [[Fraction(x * wa + y * wb - z * wab, den)
                 for x, y, z in zip(*rows)]
                for rows in zip(_matmul(a, a), _matmul(b, b), _matmul(a, b))]
    if which != "H":
        return matrix_of(build_central(n, which, env), module)
    m = _chebyshev_degree(n, k)
    a, den = _int_matrix(braid_transfer(n, env), module)
    dim = len(module.basis)
    den2 = den * den
    prev = [[(2 if i == j else 0) for j in range(dim)] for i in range(dim)]
    cur = a if m else prev
    for _ in range(2, m + 1):
        prev, cur = cur, [[x - den2 * p for x, p in zip(row, prow)]
                          for row, prow in zip(_matmul(a, cur), prev)]
    scale = den ** m
    n2k = int(n * n * Fraction(k))
    alg = Algebra(AlgebraVariant("aTL", n), env)
    omat = matrix_of(alg.omega(m), module)
    oinv = matrix_of(alg.omega(-m), module)
    qp, qm = env.q ** n2k, env.q ** (-n2k)
    return [[Fraction(c, scale) - qp * o - qm * oi
             for c, o, oi in zip(crow, orow, oirow)]
            for crow, orow, oirow in zip(cur, omat, oinv)]


def is_scalar_matrix(mat, value, env: ParamEnv) -> bool:
    """mat == value * identity, with backend-aware equality."""
    return all(env.eq(x, value if i == j else 0)
               for i, row in enumerate(mat) for j, x in enumerate(row))


def is_scalar_action(a, module: StandardModule, value) -> bool:
    """matrix_of(a) == value * identity, with backend-aware equality."""
    return is_scalar_matrix(matrix_of(a, module), value, module.env)
