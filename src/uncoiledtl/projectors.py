"""Wenzl-Jones projectors, the Gamma coefficient tables, and verification.

A Gamma table stores each layer k on one window of l2 = 2l and recovers
every other entry through the window convention
Gamma_{k, l + m_k} = gamma_hat^-1 Gamma_{k, l}; ``_fold`` is that
convention, read by the table lookup, the grid and the solver alike.

The coefficient recurrence is the transpose of the e_0 Z expansion: e_0 Q =
sum Gamma_{k,l} e_0 Z_{k,l} = 0, with each e_0 Z_{k,l} expanded into X
objects (``_e0Z_layers``, the one statement of the expansion, which
``check_e0Z`` verifies in the algebra), and the coefficient of each
X_{k,l} collected.  Within a layer k the recurrence is the discrete
operator S + S^-1 - (q^n + q^-n) on the cycles l2 -> l2 + 2 of the
twisted-periodic grid: one ring through every row for n odd, one per parity
for n even.  Its inverse on a cycle is the closed-form kernel J, which the
solver convolves with what the lower layers scatter onto the layer;
J(ell) = a x^|ell| + b x^-|ell| with x = q^n, so the convolution of a ring
is four running sums.  The residual checker scatters every layer of a table
onto every row, and a linear-system oracle rebuilds the projector from
nothing but annihilation and normalization.

The long sums of a table (the scatter, the ring sweeps and the closed
forms' double sum) run on integer numerators over one denominator and build
one Fraction per result, not one per step; a complex value is its own
numerator over 1, so the float backend runs the same code.  Their
coefficients come from the integer q-number ladder (``scalars.qints``),
[j] = N_j / u^(j-1): the e_0 Z coefficients are integers over one
denominator shared by every layer, the rising q-number products of the
closed forms q-binomials, integers over a power of u (``scalars.qbinomials``),
and each closed-form lead one Fraction.  The folded expansion is built once per parameter point
(``_folded_layers``) and shared by the solver and the residual checker.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import groupby
from operator import itemgetter, mul

from . import diagrams, linalg
from .algebra import (Algebra, AlgebraElement, AlgebraVariant, _reduce_mid,
                      basis_enumerate, is_idempotent, reduce)
from .diagrams import Diagram, cup_state, identity as id_diagram
from .scalars import (AFFINE_KINDS, EXACT, NonGenericParameterError,
                      ParamEnv, QInts, STARRED_KINDS, UNCOILED_KINDS,
                      gamma_hat, over_common_denominator, qbinomials, qints,
                      qnum, ratio, split, validate_env)


# -- Wenzl-Jones projectors of TL ---------------------------------------------

def _block(build):
    """Memoize build(alg, *key) on the algebra (``alg._blocks``), so a
    block goes with its algebra; a build that raises stores nothing, so its
    argument checks run on every miss."""
    @wraps(build)
    def cached(alg: Algebra, *key) -> AlgebraElement:
        hit = alg._blocks.get((build, key))
        if hit is None:
            hit = alg._blocks[build, key] = build(alg, *key)
        return hit
    return cached


@_block
def _wj(alg: Algebra, m: int, offset: int) -> AlgebraElement:
    if m == 1:
        return alg.one()
    prev = _wj(alg, m - 1, offset)
    c = qnum(m - 1, alg.env) / qnum(m, alg.env)
    return prev + c * (prev * alg.e(offset + m - 1) * prev)


def wenzl_jones_P(m: int, alg: Algebra, offset: int = 0) -> AlgebraElement:
    """P_m on strands offset+1 .. offset+m of the ambient algebra.

    P_1 = id and P_m = P_{m-1} + ([m-1]/[m]) P_{m-1} e_{m-1} P_{m-1}; the
    strand offset shifts every generator index, which is how P_{n-1} and
    P_{n-2} are embedded away from the seam.
    """
    n = alg.n
    if not 0 <= m <= n or offset < 0 or offset + m > n:
        raise ValueError(f"P_{m} at offset {offset} does not fit in {n} strands")
    if m == 0:
        return alg.one()
    for j in range(1, m + 1):
        if qnum(j, alg.env) == 0:
            raise ValueError(f"[{j}] vanishes: q is not generic")
    return _wj(alg, m, offset)


# -- sandwich building blocks -------------------------------------------------

def cup_diagram(n: int, k: int, l2: int) -> Diagram:
    """The middle sandwich piece: cup state below and above, winding l2 on
    the n-2k through strands (for 2k = n it degenerates to |l2| loops)."""
    v = cup_state(n, k)
    if 2 * k == n:
        return Diagram(v, v, abs(l2))
    return Diagram(v, v, l2)


@lru_cache(maxsize=None)
def _cup_states(n: int) -> frozenset:
    """cup_state(n, k) for every 0 <= 2k <= n."""
    return frozenset(cup_state(n, k) for k in range(n // 2 + 1))


def _times_P(left: AlgebraElement) -> AlgebraElement:
    """left * P_n through cup contacts only.

    A term of left whose top is not a cup state has an arc (j, j+1) away
    from the seam, 1 <= j <= n-1 (the cup states are the only link states
    whose arcs all cross the seam, nested), so it equals beta^-1 (term) e_j,
    and e_j P_n = 0 kills it.  Only the terms with a cup-state top are
    multiplied."""
    alg = left.algebra
    cups = _cup_states(alg.n)
    contacts = AlgebraElement.from_numerators(
        alg, {dia: c for dia, c in left.nums.items() if dia.top in cups},
        left.den)
    return contacts * wenzl_jones_P(alg.n, alg)


@_block
def build_Z(alg: Algebra, k: int, l2: int) -> AlgebraElement:
    """Z_{k,l} = P_n (k cups, winding l2, k caps) P_n; Z_{0,0} = P_n."""
    p = wenzl_jones_P(alg.n, alg)
    c = alg.from_diagram(cup_diagram(alg.n, k, l2))
    return _times_P(p * c)


@_block
def build_X(alg: Algebra, k: int, l2: int) -> AlgebraElement:
    """X_{k,l}: the Z top half over P_{n-2} on strands 2..n-1, with the
    outermost cup descending to the boundary arc through the seam."""
    n = alg.n
    if k < 1 or 2 * k > n:
        raise ValueError(f"X_{k} undefined for n={n}")
    inner = wenzl_jones_P(n - 2, alg, 1)
    c = alg.from_diagram(cup_diagram(n, k, l2))
    return _times_P(inner * c)


# -- the e_0 Z expansion --------------------------------------------------------

def _e0Z_layers(kind: str, ladder: QInts, n: int, alpha) -> tuple:
    """(den, layers) for the e_0 Z expansion: layers[k] = (f2, rows) for
    every layer k of a Gamma table, where rows[l2] lists the terms
    (c, k', l2') of e_0 Z_{k,l} = sum (c / den) X_{k',l'} for every l2 of the
    layer, [0, n - 2k) or l2 = 0 alone at k = n/2, and f2 / den is the
    coefficient of X_{k, l2 +- 2}.

    Every coefficient is a q-number product over d = [n-1][n]; on the
    integer ladder, [x][y] / d = w[x] w[y] / den for x + y <= 2n, with
    w[x] = N_x u^(n-x) and den = N_{n-1} N_n u, so each c is an integer
    (times alpha in the starred rows).  X objects with 2k' > n do not exist
    and are left out.  The starred kinds use their own displayed relations
    for k = (n-2)/2 and n/2.
    """
    num, u = ladder.num, ladder.u
    w, power = [0] * (n + 1), 1
    for x in range(n, -1, -1):
        w[x] = num[x] * power
        power *= u
    # f1 = -[n-k][k] [2n] / (d [n]), and [2n] / [n] = q^n + q^-n =
    # (a^(2n) + b^(2n)) / u^n
    q_n_sum = ladder.a ** (2 * n) + ladder.b ** (2 * n)
    layers = []
    for k in range(_top_layer(kind, n) + 1):
        f1 = -num[n - k] * num[k] * q_n_sum
        f2 = w[n - k] * w[k]
        if kind in STARRED_KINDS and 2 * k >= n - 2:
            h = n // 2
            half2 = w[h] * w[h]  # [n/2]^2 / d
            if 2 * k == n:
                layers.append((f2, [[(alpha ** 2 * half2 - w[n] * w[n], k,
                                      0)]]))
                continue
            # [2][n/2] = [n/2 + 1] + [n/2 - 1]
            two = (w[h + 1] + w[h - 1]) * w[h]
            layers.append((f2, [[(f1 + 2 * f2, k, l2), (x, k + 1, 0)]
                                for l2, x in enumerate((two, alpha * half2))]))
            continue
        mk2 = n - 2 * k
        rows = []
        for l2 in range(mk2):
            terms = [(f1, k, l2), (f2, k, l2 - 2), (f2, k, l2 + 2)]
            if 2 * k + 2 <= n:
                # f3 = f3a + f3b, without f3a on the last row of the layer
                c3 = w[k + l2] * w[k + 1]
                if l2 != mk2 - 1:
                    c3 += w[n - k] * w[n - k - l2 - 1]
                terms.append((c3, k + 1, l2))
                if l2:  # f4 = f4a + f4b, without f4b at l2 = 1
                    c4 = w[n - k - 1] * w[k + l2]
                    if l2 != 1:
                        c4 += w[n - k - l2 + 1] * w[k]
                    terms.append((c4, k + 1, l2 - 2))
            if 2 * k + 4 <= n and l2 not in (0, 1, mk2 - 1):  # f5
                terms.append((w[n - k - l2] * w[k + l2], k + 2, l2 - 2))
            rows.append(terms)
        layers.append((f2, rows))
    return num[n - 1] * num[n] * u, layers


# -- Gamma tables --------------------------------------------------------------

def _fold(kind: str, n: int, k: int, l2: int):
    """(s, w) with Gamma_{k, l2} = gamma_hat^-w Gamma_{k, s} for the stored
    index s of layer k < n/2, or (None, 0) where Gamma_{k, l2} vanishes.

    Layer k is stored on l2 in [0, 2 m_k): every l2 for the affine kinds,
    the even ones for upTL1 and upTL2 (whose half-odd grid vanishes), and
    for upTL the even representative, which lies in [0, 4 m_k).
    """
    step = n - 2 * k
    w, s = divmod(l2, step)
    if s % 2 and kind not in AFFINE_KINDS:
        if kind != "upTL":
            return None, 0
        s, w = s + step, w - 1
    return s, w


@lru_cache(maxsize=16)  # the solver, the closed form and Q read one grid
def gamma_grid(variant: AlgebraVariant):
    """All (k, l2) index pairs of the variant's Gamma table, k = 0 included
    (for the affine kinds the k = 0 row encodes the eigenprojector term):
    the indices that _fold stores, plus (n/2, 0) for the starred kinds."""
    kind, n = variant.kind, variant.n
    if kind not in UNCOILED_KINDS:
        raise ValueError(f"no Gamma table for {kind}")
    out = [(k, l2) for k in range((n - 1) // 2 + 1)
           for l2 in range(2 * (n - 2 * k))
           if _fold(kind, n, k, l2) == (l2, 0)]
    if kind in STARRED_KINDS:
        out.append((n // 2, 0))
    return tuple(out)


class GammaTable:
    """The coefficients Gamma_{k, l} of one projector, indexed by (k, 2l):
    mutable, compared by its fields, unhashable."""

    def __init__(self, variant: AlgebraVariant, n: int, r: int | None,
                 env: ParamEnv, entries: dict | None = None):
        self.variant = variant
        self.n = n
        self.r = r
        self.env = env
        self.entries = {} if entries is None else entries

    def _values(self) -> tuple:
        return self.variant, self.n, self.r, self.env, self.entries

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return (f"GammaTable(variant={self.variant!r}, n={self.n!r}, "
                f"r={self.r!r}, env={self.env!r}, entries={self.entries!r})")

    def eval(self, k: int, l2: int):
        """Gamma at any l2, folded onto the stored window by _fold."""
        if k < 0:
            return 0
        if 2 * k == self.n:
            if l2 != 0:
                raise ValueError("the k = n/2 entry only exists at l = 0")
            return self.entries.get((k, 0), 0)
        kind = self.variant.kind
        s, w = _fold(kind, self.n, k, l2)
        if s is None:
            return 0
        if w:
            return gamma_hat(kind, self.env) ** -w * self.entries[(k, s)]
        return self.entries[(k, s)]

    def diff(self, other: "GammaTable") -> dict:
        keys = set(self.entries) | set(other.entries)
        return {k: self.entries.get(k, 0) - other.entries.get(k, 0)
                for k in sorted(keys)}

    def to_json(self):
        from .scalars import scalar_to_json
        return {
            "variant": self.variant.kind,
            "n": self.n,
            "r": self.r,
            "entries": [{"k": k, "l2": l2, "value": scalar_to_json(v)}
                        for (k, l2), v in sorted(self.entries.items())],
        }


def sector_of(kind: str, env, n: int):
    """The label r of an exact env's omega = gamma^(1/n) e^(2 pi i r/n),
    with the principal root: 0 for omega > 0, n // 2 for omega < 0 (for n
    odd, -|gamma|^(1/n) is the principal root of gamma < 0 times
    e^(2 pi i (n - 1)/(2n))); None for a kind without omega."""
    return (0 if env.omega > 0 else n // 2) if kind in AFFINE_KINDS else None


def check_sector(variant: AlgebraVariant, r, env: ParamEnv) -> None:
    """Reject a sector label for a kind without sectors, an affine one
    outside 0..n-1, and over exact rationals one that ``sector_of`` does
    not realize: the Gamma formulas read omega, and r only names it."""
    if r is None:
        return
    if variant.kind not in AFFINE_KINDS:
        raise ValueError(f"{variant.kind} has no sector label r")
    if not 0 <= r < variant.n:
        raise ValueError(f"sector r={r} outside 0..{variant.n - 1}")
    if env.backend != EXACT:
        return
    if env.omega is None:
        raise NonGenericParameterError("affine variant needs omega")
    want = sector_of(variant.kind, env, variant.n)
    if r != want:
        raise ValueError(
            f"sector r={r} is inconsistent with omega={env.omega} "
            f"(exact backend realizes r={want})")


def gamma_initial(variant: AlgebraVariant, env: ParamEnv, k0_l2: int):
    """Gamma_{0, l}: delta_{l,0} (periodic) or omega^{-2l}/n (affine)."""
    if variant.kind in AFFINE_KINDS:
        return env.omega ** (-k0_l2) / variant.n
    return env.one if k0_l2 == 0 else 0


def _kernel_parts(variant: AlgebraVariant, n: int, k: int, env: ParamEnv):
    """(size, x, parts): the kernel J of layer k in closed form,
    J(ell) = a x^|ell| + b x^-|ell| with x = q^n and (a, b) = parts[ell < 0].

    J lives on a cycle l2 -> l2 + 2, which closes after turns = 1 (n even)
    or 2 (n odd) windows of 2 m_k, on size = turns * m_k points, and picks
    up gamma_hat^turns; for n odd this is J-tilde, J with
    gamma_hat -> gamma_hat^2 and m_k -> 2 m_k.
    """
    mk2 = n - 2 * k
    turns = 2 if mk2 % 2 else 1
    size = mk2 * turns // 2
    tw = gamma_hat(variant.kind, env) ** turns
    x = env.q ** n
    pref = -1 / (x - 1 / x)
    xe = x ** size
    parts = tuple((pref / (t * xe - 1), -pref / (t / xe - 1))
                  for t in (1 / tw, tw))
    return size, x, parts


def kernel_J(variant: AlgebraVariant, n: int, k: int, ell2: int,
             env: ParamEnv):
    """The convolution kernel J of layer k at ell = ell2 / 2 (see
    _kernel_parts).  The kernel only ever takes integer arguments, so ell2
    must be even, and |ell| <= 2 size."""
    if ell2 % 2:
        raise ValueError("kernel argument must be an integer (even ell2)")
    ell = ell2 // 2
    size, x, parts = _kernel_parts(variant, n, k, env)
    if abs(ell) > 2 * size:
        raise ValueError("kernel argument out of range")
    a, b = parts[ell < 0]
    return a * x ** abs(ell) + b * x ** -abs(ell)


@lru_cache(maxsize=1)  # the solver and the residuals of one table share it
def _folded_layers(variant: AlgebraVariant, env: ParamEnv) -> tuple:
    """(den, layers) with layers[k] = (f2, rows, e) for every layer k of the
    variant's table: the terms of ``_e0Z_layers`` folded onto the rows
    (k', s) of the recurrence that collect X_{k', s}, rows[l2] =
    (keys, nums) with the coefficient of keys[i] nums[i] / (e den), zero
    terms left out, and f2 / den as in ``_e0Z_layers``.  X_{k', l2'} =
    gamma_hat^w X_{k', s} with w, s = divmod(l2', n - 2k'), and at 2k' = n it
    folds by the d = 0 window of ``_reduce_mid``, which kills it in the
    double-starred kinds; e is the integer that clears these weights.
    Empty when the table has no layer above 0 (at n = 1, [n - 1] = 0)."""
    kind, n = variant.kind, variant.n
    if not _top_layer(kind, n):
        return 1, ()
    gh = gamma_hat(kind, env)
    den, expansion = _e0Z_layers(kind, qints(2 * n + 2, env), n, env.alpha)
    shared = {}  # one tuple per row key
    layers = []
    for f2, rows in expansion:
        folded = []
        for terms in rows:
            keys, coeffs = [], []
            for c, kk, l2 in terms:
                if 2 * kk < n:
                    w, s = divmod(l2, n - 2 * kk)
                    if w:
                        c = c * gh ** w
                else:
                    weight, s = _reduce_mid(kind, n, env, 0, abs(l2))
                    c = c * weight
                if c:
                    keys.append(shared.setdefault((kk, s), (kk, s)))
                    coeffs.append(c)
            folded.append((keys, coeffs))
        nums, e = over_common_denominator(
            c for _, coeffs in folded for c in coeffs)
        nums = iter(nums)
        layers.append((f2, [(keys, [next(nums) for _ in coeffs])
                            for keys, coeffs in folded], e))
    return den, tuple(layers)


def _scatter(tbl: GammaTable, k: int, layer, lowest: int = 0) -> tuple:
    """(sums, d): Gamma_{k, l2} c summed onto each row (k', s) with
    k' >= lowest, over the folded terms ((k', s), c) of layer k
    (``_folded_layers``), as integer numerators over d times the layers'
    shared denominator.
    Every l2 of the layer is a source, its Gamma read through
    GammaTable.eval."""
    _, terms, dc = layer
    g, dg = over_common_denominator(tbl.eval(k, l2)
                                    for l2 in range(len(terms)))
    sums = {}
    for gl, (keys, cs) in zip(g, terms):
        if gl:
            for key, c in zip(keys, cs):
                if key[0] >= lowest:
                    sums[key] = sums.get(key, 0) + gl * c
    return sums, dg * dc


def _gather(parts, keys) -> tuple:
    """(nums, d): the rows keys summed over the ``_scatter`` results parts
    that reach any of them, as integer numerators over one denominator."""
    parts = [(sums, d) for sums, d in parts
             if any(key in sums for key in keys)]
    d = math.lcm(*(dp for _, dp in parts))
    return [sum(sums.get(key, 0) * (d // dp) for sums, dp in parts)
            for key in keys], d


def _top_layer(kind: str, n: int) -> int:
    """The last layer k of a Gamma table: n/2 for the starred kinds."""
    return n // 2 if kind in STARRED_KINDS else (n - 1) // 2


def gamma_residuals(tbl: GammaTable) -> dict:
    """Exact residuals of every linear constraint the table must satisfy:
    the coefficient of each X_{k,l} (k >= 1) in e_0 Q = sum Gamma_{k,l}
    e_0 Z_{k,l}, the e_0 Z expansion scattered from every layer."""
    n = tbl.n
    kind = tbl.variant.kind
    keys = [(k, l2) for k in range(1, (n - 1) // 2 + 1)
            for l2 in range(n - 2 * k)]
    if kind in STARRED_KINDS:
        keys.append((n // 2, 0))
    den, layers = _folded_layers(tbl.variant, tbl.env)
    parts = [_scatter(tbl, k, layer) for k, layer in enumerate(layers)]
    out = {}
    for _, row_keys in groupby(keys, key=itemgetter(0)):  # one layer of rows
        row_keys = list(row_keys)
        nums, d = _gather(parts, row_keys)
        d *= den
        out.update(zip(row_keys, (ratio(x, d) for x in nums)))
    return out


def _check_size(variant: AlgebraVariant, n: int) -> None:
    if n != variant.n:
        raise ValueError("n does not match the variant")


def gamma_solve(variant: AlgebraVariant, n: int, r=None,
                env: ParamEnv | None = None) -> GammaTable:
    """Triangular solve in k via the kernel convolution.

    Each layer, once solved, is scattered through the e_0 Z expansion onto
    the rows of the layers above it, so a layer's right-hand side is what
    has been scattered onto it.  Layer k couples l2 to l2 +- 2 only, so it
    splits into the cycles l2 -> l2 + 2: for n odd one ring
    l2 = 0, 2, ..., 2(2 m_k - 1) through every row, for n even one per
    parity (the even one alone for the periodic kinds, whose odd rows
    vanish).  On a cycle the row at l2 is
    rows[l2 mod 2 m_k] / gamma_hat^(l2 div 2 m_k), the kernel J inverts the
    operator, and each result is stored through _fold.  Since
    J(ell) = a x^|ell| + b x^-|ell| with (a, b) fixed by the sign of ell,
    the convolution of a ring of m points is four running sums, two swept
    backwards (the offsets ell >= 0) and two forwards (ell < 0): O(m)
    products instead of m^2.  The sums run on integers: the ring's
    right-hand side over one denominator d, x = X/Y, and the four constants
    over one denominator, so each ring point is one Fraction.
    """
    _check_size(variant, n)
    if env is None:
        raise ValueError("an environment is required")
    validate_env(env, variant, n)
    check_sector(variant, r, env)
    tbl = GammaTable(variant, n, r, env)
    kind = variant.kind
    gh = gamma_hat(kind, env)
    for (k, l2) in gamma_grid(variant):
        if k == 0:
            tbl.entries[(0, l2)] = gamma_initial(variant, env, l2)
    gn, gd = split(gh)
    _, layers = _folded_layers(variant, env)  # den cancels against f2
    scattered = []
    for k in range(1, len(layers)):
        scattered.append(_scatter(tbl, k - 1, layers[k - 1], k))
        f2, layer, dc = layers[k]
        if 2 * k == n:  # the starred top entry
            (key,), (c,) = layer[0]
            (row,), d = _gather(scattered, [key])
            tbl.entries[key] = ratio(-row * dc, d * c)
            continue
        mk2 = n - 2 * k
        rows, drows = _gather(scattered, [(k, l2) for l2 in range(mk2)])
        size, x, parts = _kernel_parts(variant, n, k, env)
        c = ratio(-1, f2)
        (ap, bp, am, bm), cd = over_common_denominator(
            c * ab for pair in parts for ab in pair)
        big_x, big_y = split(x)
        xp = [big_x ** e for e in range(size)]
        yp = [big_y ** e for e in range(size)]
        last = size - 1
        # the constants times X^last Y^last, which clears every running sum
        apx, amx = ap * xp[last], am * xp[last]
        bpy, bmy = bp * yp[last], bm * yp[last]
        starts = (0,)
        if mk2 % 2 == 0 and kind in AFFINE_KINDS:
            starts = (0, 1)
        elif mk2 % 2 == 0 and any(rows[1::2]):
            raise AssertionError("odd rows must vanish for periodic kinds")
        for start in starts:
            ring = range(start, start + 2 * size, 2)
            if mk2 % 2:  # the ring wraps once, picking up 1 / gamma_hat
                rhs = [rows[l2] * gn if l2 < mk2 else rows[l2 - mk2] * gd
                       for l2 in ring]
                d = drows * gn
            else:
                rhs, d = [rows[l2] for l2 in ring], drows
            den = cd * d * xp[last] * yp[last]
            # acc[i] = sum over j of J(j - i) rhs[j] / d, split at j = i;
            # in the comments sums run over j >= i (backwards) or j < i
            back = [0] * size
            u = v = 0
            for i in range(last, -1, -1):
                u = yp[last - i] * rhs[i] + big_x * u  # Y^(last-i) sum x^(j-i)
                v = xp[last - i] * rhs[i] + big_y * v  # X^(last-i) sum x^(i-j)
                back[i] = apx * u * yp[i] + bpy * v * xp[i]
            u = v = 0
            for i, l2 in enumerate(ring):
                if i:
                    u = big_x * (u + yp[i - 1] * rhs[i - 1])  # Y^i sum x^(i-j)
                    v = big_y * (v + xp[i - 1] * rhs[i - 1])  # X^i sum x^(j-i)
                a = ratio(back[i] + amx * u * yp[last - i]
                          + bmy * v * xp[last - i], den)
                s, w = _fold(kind, n, k, l2)
                tbl.entries[(k, s)] = gh ** w * a if w else a
    return tbl


# -- conjectured closed forms ---------------------------------------------------

def gamma_conjecture(variant: AlgebraVariant, n: int, k: int, ell2: int,
                     env: ParamEnv):
    """The closed triple-sum formulas for Gamma_{k, l}."""
    _check_size(variant, n)
    validate_env(env, variant, n)
    ladder = qints(2 * n + 2 + abs(ell2), env)
    return _conjecture_layer(variant, n, k, env, ladder)(ell2)


def _rising(rows: tuple, u, start: int, count: int) -> tuple:
    """(nums, d) with nums[i] / d = [start][start+1]...[start+i-1] / [i]!
    for 0 <= i < count, [-j] = -[j].

    That is the q-binomial [m choose i] with m = start + i - 1, or
    (-1)^i [m choose i] with m = -start for start <= 0, read from the rows
    of ``scalars.qbinomials``: over d = u^e with e the largest i (m - i), an
    integer each."""
    nums, exps = [1], [0]
    for i in range(1, count):
        if start > 0:
            m = start + i - 1
            x = rows[m][i]
        else:
            m = -start
            x = -rows[m][i] if i % 2 else rows[m][i]
        nums.append(x)
        exps.append(i * (m - i) if x else 0)
    top = max(exps)
    return [x * u ** (top - e) for x, e in zip(nums, exps)], u ** top


def _conjecture_layer(variant, n, k, env, ladder: QInts):
    """ell2 -> gamma_conjecture of layer k, with every q-number read from
    the integer ``ladder`` ([2n + 2] covers the grid, [2n + 2 + |ell2|] any
    ell2) and every factor that does not depend on ell2 computed once for
    the layer."""
    kind = variant.kind
    if k == 0:
        return lambda ell2: gamma_initial(variant, env, ell2)
    if 2 * k == n and kind in STARRED_KINDS:
        return lambda ell2: _starred_conjecture(kind, n, env, ladder, ell2)
    mk2 = n - 2 * k
    num, fact, u = ladder.num, ladder.fact, ladder.u
    big_p, big_q = ladder.a, ladder.b  # q = P/Q
    affine = kind in AFFINE_KINDS
    # 1 / ((q - 1/q)^(2k-1) [k] [k-1]!^2), and 1/n more for the affine
    # kinds, with q - 1/q = (P^2 - Q^2) / u
    pref = ratio(u ** (k * k), (big_p * big_p - big_q * big_q) ** (2 * k - 1)
                 * num[k] * fact[k - 1] ** 2 * (n if affine else 1))
    # One triple sum for every kind.  They differ in the twist of den and
    # the scale of its exponent, den = twist q^(+-scale (n - 2(k - kap))) - 1,
    # in the power q^(+-(base + slope kap + n tau)), and in the offsets lo,
    # hi of the two q-number products.
    if affine:
        twist, scale = env.omega * env.omega, 1
    elif kind in ("upTL1", "upTL2"):
        twist, scale = gamma_hat(kind, env), n // 2
    elif kind == "upTL":
        twist, scale = env.gamma * env.gamma, n
    else:
        raise ValueError(f"no conjecture formula for {kind}")
    # Term (kap, tau) of the sum is
    #   (-1)^kap sigma q^(sigma (base + slope kap + n tau)) / den
    #   * qbinom(k-1, kap) / ([n-k]...[n-k+kap-1])
    #   * qbinom(kap, tau) [lo]...[lo+kap-tau-1] [hi]...[hi+tau-1].
    # The last line is [kap]! a[kap - tau] b[tau]; with [kap]! moved into
    # the line above, all but q^(sigma (base + slope kap + n tau))
    # a[kap - tau] b[tau] is one factor per (sigma, kap), lead, and the
    # same for every ell2 of the layer.
    #
    # The sums run on integers.  The lead is [k-1]! [n-k-1]! / ([n-k-1+kap]!
    # [k-1-kap]!) = F_(k-1) F_(n-k-1) u^(kap (n - 2k + kap)) / (F_(n-k-1+kap)
    # F_(k-1-kap)) over den, where twist q^e - 1 = (t_n P^e - t_d Q^e) /
    # (t_d Q^e), or with P and Q swapped for e < 0: one Fraction per lead.
    # The rising products a and b are q-binomials, integers over a power of
    # u (``_rising``).  With a = A/da, b = B/db and the leads of one sigma
    # over one denominator, the sum over tau times Q^(n kap) (sigma = 1;
    # P^(n kap) for sigma = -1) is the convolution of A[i] Q^(n i) with
    # B[t] P^(n t), and q^(sigma (base + slope kap)) / Q^(n kap) is
    # P^e Q^(-e - n kap): powers of P and Q aligned on their lowest
    # exponents over kap.  One Fraction per sigma.
    t_n, t_d = split(twist)
    outer = fact[k - 1] * fact[n - k - 1]
    leads = {}
    for sigma, x, y in ((1, big_p, big_q), (-1, big_q, big_p)):
        lead = []
        for kap in range(k):
            e = scale * (n - 2 * (k - kap))
            ye = t_d * y ** e
            top = outer * ye * u ** (kap * (mk2 + kap))
            lead.append(ratio(-sigma * top if kap % 2 else sigma * top,
                              (t_n * x ** e - ye) * fact[n - k - 1 + kap]
                              * fact[k - 1 - kap]))
        leads[sigma] = over_common_denominator(lead)
    pn = [big_p ** (n * t) for t in range(k)]
    qn = [big_q ** (n * t) for t in range(k)]

    # the grid reads [m choose i] for m < n, and ell2 past it m <= n + |ell2|
    rows = qbinomials(len(num) - n - 2, (n + 1) // 2, env)

    @lru_cache(maxsize=None)
    def rising(start):
        """(d, [c_i P^(n i)], [c_i Q^(n i)]) for the rising products
        c_i / d of ``_rising``."""
        c, d = _rising(rows, u, start, k)
        return (d, [x * y for x, y in zip(c, pn)],
                [x * y for x, y in zip(c, qn)])

    def entry(ell2):
        lo, hi = mk2 - ell2, ell2
        base, slope = n * ell2 // 2, 0
        if affine:
            base, slope = ell2 * k, -ell2
        elif kind == "upTL" and ell2 >= mk2:  # l >= m_k + 1/2
            slope, lo, hi = n, 2 * mk2 - ell2, ell2 - mk2
        da, a_p, a_q = rising(lo)
        db, b_p, b_q = rising(hi)
        # per kap, the exponents of P and of Q (sigma = -1: of Q and of P),
        # linear in kap, so lowest at kap = 0 or k - 1
        exps = [(base + slope * kap, -base - (slope + n) * kap)
                for kap in range(k)]
        low_top = min(exps[0][0], exps[-1][0])
        low_bottom = min(exps[0][1], exps[-1][1])
        total = 0
        for (lead, dl), top, bottom, a, b in (
                (leads[1], big_p, big_q, a_q, b_p),
                (leads[-1], big_q, big_p, a_p, b_q)):
            acc = 0
            for kap, (e, f) in enumerate(exps):
                # sum over tau of a[kap - tau] b[tau]
                inner = sum(map(mul, a[kap::-1], b))
                acc += (lead[kap] * inner * top ** (e - low_top)
                        * bottom ** (f - low_bottom))
            den = dl * da * db
            for x, e in ((top, low_top), (bottom, low_bottom)):
                if e >= 0:
                    acc *= x ** e
                else:
                    den *= x ** -e
            total = total + ratio(acc, den)
        if affine:
            return pref * env.omega ** (-ell2) * total
        return pref * total
    return entry


def _starred_conjecture(kind, n, env, ladder: QInts, ell2):
    """The starred coefficient Gamma_{n/2, 0}; for uaTL1, 0 unless omega
    is 1 (r = 0) or -1 (r = n/2)."""
    if ell2 != 0:
        raise ValueError("the k = n/2 coefficient only exists at l = 0")
    num, u, h = ladder.num, ladder.u, n // 2
    half, full = ratio(num[h], u ** (h - 1)), ratio(num[n], u ** (n - 1))
    # (q - 1/q)^(n-2) [n/2 - 1]!^2
    base = ratio((ladder.a ** 2 - ladder.b ** 2) ** (n - 2)
                 * ladder.fact[h - 1] ** 2, u ** (n - 2 + (h - 1) * (h - 2)))
    if kind == "upTL1":
        return -full * half / (base * (env.alpha ** 2 * half ** 2
                                       - full ** 2))
    if env.eq(env.omega, 1):
        return -half / (2 * base * (env.alpha * half - full))
    if env.eq(env.omega, -1):
        return half / (2 * base * (env.alpha * half + full))
    return 0


def gamma_table_conjecture(variant: AlgebraVariant, n: int, r=None,
                           env: ParamEnv | None = None) -> GammaTable:
    _check_size(variant, n)
    validate_env(env, variant, n)
    check_sector(variant, r, env)
    tbl = GammaTable(variant, n, r, env)
    ladder = qints(2 * n + 2, env)
    for k, keys in groupby(gamma_grid(variant), key=itemgetter(0)):
        entry = _conjecture_layer(variant, n, k, env, ladder)
        for _, l2 in keys:
            tbl.entries[(k, l2)] = entry(l2)
    return tbl


# -- projector assembly and verification --------------------------------------

def gamma_table(variant, n, r, env, method: str) -> GammaTable:
    if method == "solver":
        return gamma_solve(variant, n, r, env)
    if method == "conjecture":
        return gamma_table_conjecture(variant, n, r, env)
    raise ValueError(f"unknown method {method!r}")


def build_projector_Q(tbl: GammaTable) -> AlgebraElement:
    """Q = P_n (sum Gamma_{k,l} c_{k,l}) P_n over the entries of a Gamma
    table, with c_{k,l} the cup diagram of build_Z; by linearity this is
    the paper's sum Gamma_{k,l} Z_{k,l}, in two products instead of one
    sandwich per entry.  For the affine kinds the k = 0 row is the
    eigenprojector Pi_{n,r} spread over P_n Omega^j P_n.

    The right factor P_n meets the left product through cup contacts only
    (``_times_P``): a term whose top is not a cup state has an arc (j, j+1)
    away from the seam, so it is a multiple of (term) e_j, which P_n kills.
    The checks of Q (``projector_checks``) multiply by the full Q, so they
    do not rest on this."""
    alg = Algebra(tbl.variant, tbl.env)
    n = alg.n
    # the periodic k = 0 row stores zeros at l2 != 0, on wound identities
    # that reduce rejects
    mid = alg.element({cup_diagram(n, k, l2): c
                       for (k, l2) in gamma_grid(tbl.variant)
                       if (c := tbl.entries[(k, l2)])})
    return _times_P(wenzl_jones_P(n, alg) * mid)


def _generators(alg: Algebra) -> list:
    """[(j, e_j)] for the TL generators of alg; none below two strands,
    where no cup fits."""
    return [(j, alg.e(j)) for j in range(alg.n)] if alg.n >= 2 else []


def _annihilator_rows(alg: Algebra, basis) -> list:
    """The rows of {e_j X = X e_j = 0 for all j} (plus Omega X = omega X =
    X Omega for the affine kinds) over the coordinates of X in ``basis``.

    Column i of a constraint holds its image of basis[i]: one product of two
    diagrams, reduced, so the oracle never runs through ``mul``, the product
    that builds Q and checks Q*Q.  The entries are the scalars' own values
    (Fractions in the exact backend); the padding is int 0, which
    ``linalg.echelon`` skips without a Python-level truth test."""
    variant, env = alg.variant, alg.env
    n, dim = alg.n, len(basis)
    ops = [(diagrams.e(n, j), 0) for j, _ in _generators(alg)]
    if variant.kind in AFFINE_KINDS:
        ops.append((diagrams.omega(n), env.omega))
    beta_pow = lru_cache(None)(env.beta.__pow__)  # once per loop count
    rows = []
    for g, w in ops:
        for left in (True, False):
            cols = {}
            for i, dia in enumerate(basis):
                prod, k, _ = (diagrams.multiply_raw(g, dia) if left
                              else diagrams.multiply_raw(dia, g))
                s, dr = reduce(prod, variant, env)
                image = {} if dr is None else {dr: s * beta_pow(k)}
                if w:
                    image[dia] = image.get(dia, 0) - w
                for dd, c in image.items():
                    if c:
                        cols.setdefault(dd, [0] * dim)[i] = c
            rows.extend(cols.values())
    return rows


def projector_oracle(variant: AlgebraVariant, n: int,
                     env: ParamEnv) -> AlgebraElement:
    """Solve the annihilation conditions over the full sandwich basis.

    The nullspace of {e_j X = X e_j = 0 for all j} (plus Omega X = omega X
    for the affine kinds) must be one-dimensional at generic parameters;
    the identity-diagram coefficient is then pinned to 1 (periodic) or 1/n
    (affine, where the identity block is Pi_{n,r} with leading weight 1/n).
    """
    alg = Algebra(variant, env)
    basis = basis_enumerate(variant)
    dim = len(basis)
    null = linalg.nullspace(_annihilator_rows(alg, basis), dim)
    if len(null) != 1:
        raise linalg.SingularSystemError(
            f"annihilator has dimension {len(null)}, expected 1")
    vec = null[0]
    lead = vec[basis.index(id_diagram(n))]
    if not lead:
        raise linalg.SingularSystemError("solution misses the identity block")
    want = (Fraction(1, n) if variant.kind in AFFINE_KINDS else Fraction(1))
    scale = want / lead
    terms = {basis[i]: vec[i] * scale for i in range(dim) if vec[i]}
    return AlgebraElement(alg, terms)


def check_e0Z(alg: Algebra, k: int, l2: int) -> AlgebraElement:
    """Residual of the e_0 Z_{k,l} expansion into X objects (expected zero):
    e_0 Z_{k,l} minus the terms that ``_e0Z_layers`` lists for it, built on
    alg, so the rows of one grid share its blocks."""
    n, env = alg.n, alg.env
    den, layers = _e0Z_layers(alg.variant.kind, qints(2 * n + 2, env), n,
                              env.alpha)
    rows = layers[k][1] if 0 <= k < len(layers) else []
    if not 0 <= l2 < len(rows):
        raise ValueError(f"the e_0 Z expansion has no row (k, l2)={(k, l2)} "
                         f"at n={n}")
    out = alg.e(0) * build_Z(alg, k, l2)
    for c, kk, ll2 in rows[l2]:
        if c:  # X_0 does not exist, and at k = 0, f1 = f2 = 0
            out = out - ratio(c, den) * build_X(alg, kk, ll2)
    return out


def _first_nonzero(named_elements):
    """'<name> != 0' for the first (name, element) pair whose element is
    nonzero, None if there is none."""
    return next((f"{name} != 0" for name, x in named_elements
                 if not x.is_zero()), None)


def projector_checks(q: AlgebraElement, with_oracle: bool) -> dict:
    """The checks of a projector Q, each mapped to None when it holds and
    otherwise to its first witness: Q^2 = Q, e_j Q = Q e_j = 0 for every j,
    Omega Q = Q Omega = omega Q for the affine kinds, and (with_oracle) Q
    equal to the linear-system oracle (an oracle system without a unique
    solution fails this check with its message rather than raising)."""
    alg = q.algebra
    variant, n, env = alg.variant, alg.n, alg.env
    checks = {"idempotent": None if is_idempotent(q) else "Q^2 != Q"}
    checks["annihilated"] = _first_nonzero(
        pair for j, g in _generators(alg)
        for pair in ((f"e_{j} Q", g * q), (f"Q e_{j}", q * g)))
    if variant.kind in AFFINE_KINDS:
        om, wq = alg.omega(), env.omega * q
        checks["omega_eigen"] = _first_nonzero(
            (("Omega Q - omega Q", om * q - wq),
             ("Q Omega - omega Q", q * om - wq)))
    if with_oracle:
        try:
            oracle = projector_oracle(variant, n, env)
        except linalg.SingularSystemError as exc:
            # valid input whose check failed: exit 1, not invalid input
            checks["matches_oracle"] = f"oracle: {exc}"
        else:
            checks["matches_oracle"] = (None if oracle.equals(q)
                                        else "Q != oracle")
    return checks


def projector_certificate(variant: AlgebraVariant, n: int, r, env: ParamEnv,
                          method: str = "solver",
                          with_oracle: bool = False) -> dict:
    """Build Q, verify it, and bundle the evidence."""
    tbl = gamma_table(variant, n, r, env, method)
    q = build_projector_Q(tbl)
    checks = {name: witness is None for name, witness
              in projector_checks(q, with_oracle).items()}
    res = gamma_residuals(tbl)
    checks["recurrence_residual_zero"] = all(
        env.is_zero(v) for v in res.values())
    return {
        "variant": variant.kind,
        "n": n,
        "r": r,
        "method": method,
        "env": env.to_json(),
        "gamma_table": tbl.to_json(),
        "checks": checks,
        "verified": all(checks.values()),
    }
