"""Variant-aware linear algebra of diagrams.

The eight variants: the infinite aTL and pTL (no reduction, raw words), the
finite TL subalgebra, and the six uncoiled quotients.  Reduction is eager:
every product term is immediately folded into its variant's canonical mid
window, which keeps winding exponents bounded and term keys hashable.

An element stores int numerators over one denominator (``nums`` over
``den``), in lowest terms, so equal values have equal stored forms.
``mul`` sums the pairs of terms on those integers, and each output
diagram's numerator is one int sum over the handful of distinct factors
s * beta**k (reduction scalar times loop weight) of the product; one gcd
pass over the output cancels the common factor, and no Fraction is built
per term.  A complex value is its own numerator over 1, so both backends
run the same code.
"""

from __future__ import annotations

import math
import os
from types import MappingProxyType

from . import diagrams
from .diagrams import (Diagram, LinkState, link_states, outer_face, sigma_bt,
                       trace_interface)
from .scalars import (ALL_KINDS, EXACT, FLOAT_RTOL, PERIODIC_KINDS,
                      FrozenValue, ParamEnv, gamma_hat,
                      over_common_denominator, ratio, split)

DEFAULT_MAX_TERMS = 5_000_000


class ResourceLimitError(RuntimeError):
    """An element, a basis, or the matrix of a module action, grew past
    UTL_MAX_TERMS."""


class InfiniteAlgebraError(ValueError):
    """Basis/dimension requested for an infinite-dimensional variant."""


def max_terms() -> int:
    """The cap on the terms of an element, the diagrams of a basis and the
    entries of a module matrix."""
    return int(os.environ.get("UTL_MAX_TERMS", DEFAULT_MAX_TERMS))


_EVEN_ONLY_KINDS = ("pTL", "TL") + PERIODIC_KINDS


class AlgebraVariant(FrozenValue):
    """An algebra kind at a size n.  ``even_only``: pTL-derived variants
    contain only even diagrams."""

    _fields = ("kind", "n")

    def __init__(self, kind: str, n: int):
        if kind not in ALL_KINDS:
            raise ValueError(f"unknown algebra kind {kind!r}")
        if n < 1:
            raise ValueError("n >= 1 required")
        if kind in ("uaTL", "upTL") and n % 2 == 0:
            raise ValueError(f"{kind} requires n odd")
        if kind in ("uaTL1", "upTL1", "uaTL2", "upTL2") and n % 2:
            raise ValueError(f"{kind} requires n even")
        self.__dict__.update(kind=kind, n=n, _key=(kind, n),
                             even_only=kind in _EVEN_ONLY_KINDS)

    def defect_sectors(self):
        """The through-line counts d carried by this variant's basis: the
        sectors whose mid window (``_window``) does not die."""
        if self.kind in ("aTL", "pTL"):
            raise InfiniteAlgebraError(f"{self.kind} is infinite-dimensional")
        return tuple(d for d in range(self.n, -1, -2)
                     if _window(self.kind, self.n, d) != 0)


def _window(kind: str, n: int, d: int):
    """The width of sector d's mid window: None where the mid stays raw
    (aTL, pTL, TL), 0 where the sector dies.  At d > 0, d windings (2d for
    upTL), but only the identity on n through-lines in the periodic kinds;
    at d = 0 the mid counts non-contractible loops, which kill the
    double-starred kinds and fold one at a time in uaTL1, by pairs in upTL1.
    """
    if kind in ("aTL", "pTL", "TL"):
        return None
    if d == 0:
        if kind in ("uaTL", "upTL"):
            raise ValueError(f"{kind} has no d = 0 sector")  # n odd kinds
        return {"uaTL1": 1, "upTL1": 2}.get(kind, 0)
    if d == n and kind in PERIODIC_KINDS:
        return 1
    return 2 * d if kind == "upTL" else d


def _reduce_mid(kind: str, n: int, env: ParamEnv, d: int, mid: int):
    """Fold a middle exponent into sector d's window (``_window``): returns
    (scalar factor, folded mid), or (0, None) when the term dies.  A full
    window weighs alpha^W at d = 0, gamma^2 in upTL, gamma-hat otherwise."""
    w = _window(kind, n, d)
    if w is None:
        return env.one, mid
    if not w:
        return 0, None
    turns, m = divmod(mid, w)
    if not turns:
        return env.one, m
    if d == 0:
        return env.alpha ** (w * turns), m
    if kind == "upTL":
        return (env.gamma * env.gamma) ** turns, m
    return gamma_hat(kind, env) ** turns, m


def reduce(c: Diagram, variant: AlgebraVariant, env: ParamEnv):
    """Variant reduction to the canonical-window representative.

    Returns (scalar, Diagram) or (0, None) when the diagram dies in the
    quotient (d = 0 in the double-starred kinds).
    """
    if c.n != variant.n:
        raise ValueError("diagram size does not match the variant")
    kind = variant.kind
    if kind == "TL" and (c.bottom.crossing_count() or c.top.crossing_count()
                         or c.mid):
        raise ValueError("seam-crossing diagram handed to TL")
    if variant.even_only and not c.is_even():
        raise ValueError(f"odd diagram handed to {kind}")
    if c.d == variant.n and kind in PERIODIC_KINDS and c.mid:
        raise ValueError(
            "a nonzero winding on n through-lines is not an element of "
            "the periodic algebra")
    coeff, m = _reduce_mid(kind, variant.n, env, c.d, c.mid)
    if m is None:
        return 0, None
    if m == c.mid:
        return coeff, c
    return coeff, Diagram(c.bottom, c.top, m)


class Algebra:
    """A variant together with a parameter point; element factory, and the
    owner of what is computed at the point (reduce memo, projector blocks)."""

    def __init__(self, variant: AlgebraVariant, env: ParamEnv):
        self.variant = variant
        self.env = env
        # (bottom, top, mid) -> (id of its reduction scalar, reduced
        # diagram); ids number the distinct scalars in order of first use
        self._reduce_memo: dict = {}
        self._scalar_ids: dict = {}
        self._blocks: dict = {}  # (builder, key) -> element

    @property
    def n(self) -> int:
        return self.variant.n

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def element(self, terms) -> "AlgebraElement":
        out = {}
        for dia, coeff in dict(terms).items():
            s, dr = reduce(dia, self.variant, self.env)
            if dr is None:
                continue
            val = out.get(dr, 0) + coeff * s
            if val:
                out[dr] = val
            elif dr in out:
                del out[dr]
        return AlgebraElement(self, out)

    def from_diagram(self, dia: Diagram, coeff=None) -> "AlgebraElement":
        return self.element({dia: self.env.one if coeff is None else coeff})

    def one(self) -> "AlgebraElement":
        return self.from_diagram(diagrams.identity(self.n))

    def e(self, j: int) -> "AlgebraElement":
        return self.from_diagram(diagrams.e(self.n, j))

    def omega(self, power: int = 1) -> "AlgebraElement":
        return self.from_diagram(diagrams.omega(self.n, power))

    def word(self, *js) -> "AlgebraElement":
        """The product e_{j1} e_{j2} ... read left to right."""
        out = self.one()
        for j in js:
            out = out * self.e(j)
        return out


class AlgebraElement:
    """A finite scalar-weighted combination of reduced canonical diagrams.

    Stored as ``nums`` ({diagram: int numerator}, no zero) over ``den``, a
    positive int, in lowest terms: gcd(den, *nums) == 1, and den == 1 when
    empty, so den is the lcm of the coefficients' reduced denominators and
    equal values have identical (nums, den).  On the float backend the
    numerators are the complex coefficients themselves and den is 1."""

    __slots__ = ("algebra", "nums", "den", "_terms")

    def __init__(self, algebra: Algebra, terms):
        """The element with the coefficients of a {diagram: scalar}
        mapping (Fractions and ints, or complex values); zeros are
        dropped."""
        terms = {d: c for d, c in terms.items() if c}
        nums, den = over_common_denominator(terms.values())
        self.algebra, self.den = algebra, den
        self.nums, self._terms = dict(zip(terms, nums)), None

    @classmethod
    def from_numerators(cls, algebra: Algebra, nums: dict,
                        den) -> "AlgebraElement":
        """The element nums / den, for nonzero numerators (complex values
        over den = 1 on the float backend): one gcd pass cancels their
        common factor with den."""
        if den != 1:
            g = math.gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {d: c // g for d, c in nums.items()}
        out = cls.__new__(cls)
        out.algebra, out.nums, out.den, out._terms = algebra, nums, den, None
        return out

    @property
    def terms(self):
        """The read-only {diagram: coefficient} view (Fractions, or complex
        values on the float backend), built on first read and kept."""
        if self._terms is None:
            den = self.den
            self._terms = MappingProxyType(
                {d: ratio(c, den) for d, c in self.nums.items()})
        return self._terms

    def __add__(self, other):
        self._check(other)
        da, db = self.den, other.den
        den = math.lcm(da, db)
        fa, fb = den // da, den // db
        out = ({d: c * fa for d, c in self.nums.items()} if fa != 1
               else dict(self.nums))
        for d, c in other.nums.items():
            val = out.get(d, 0) + c * fb
            if val:
                out[d] = val
            else:
                del out[d]
        return self.from_numerators(self.algebra, out, den)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def scaled(self, scalar):
        if not scalar:
            return self.algebra.zero()
        # times the backend's one: a Fraction scales a float element as
        # the complex value it rounds to, over 1
        num, den = split(scalar * self.algebra.env.one)
        return self.from_numerators(
            self.algebra, {d: c * num for d, c in self.nums.items()},
            self.den * den)

    def __rmul__(self, scalar):
        return self.scaled(scalar)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return mul(self, other)
        return self.scaled(other)

    def _check(self, other):
        a, b = self.algebra, other.algebra
        if a is b:
            return
        if a.variant != b.variant:
            raise ValueError("variant mismatch")
        if a.env.algebra_point != b.env.algebra_point:
            raise ValueError("parameter point mismatch")

    def coefficient(self, dia: Diagram):
        return self.terms.get(dia, 0)

    def max_abs(self) -> float:
        return (max((abs(c) for c in self.nums.values()), default=0.0)
                / self.den)

    def is_zero(self) -> bool:
        env = self.algebra.env
        if env.backend == EXACT:
            return not self.nums
        return all(env.is_zero(c) for c in self.nums.values())

    def equals(self, other) -> bool:
        self._check(other)
        env = self.algebra.env
        if env.backend == EXACT:
            return self.den == other.den and self.nums == other.nums
        scale = max(1.0, self.max_abs(), other.max_abs())
        diff = self - other
        return all(abs(c) <= FLOAT_RTOL * scale for c in diff.nums.values())

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.equals(other)

    def __len__(self):
        return len(self.nums)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def __repr__(self):
        parts = [f"{c}*{d!r}" for d, c in self.sorted_terms()[:4]]
        more = "" if len(self) <= 4 else f" ... ({len(self)} terms)"
        return f"<{self.algebra.variant.kind} element: {' + '.join(parts)}{more}>"

    def to_json(self):
        from .scalars import scalar_to_json
        return {
            "variant": self.algebra.variant.kind,
            "n": self.algebra.n,
            "terms": [{"diagram": d.to_json(), "coeff": scalar_to_json(c)}
                      for d, c in self.sorted_terms()],
        }


def is_idempotent(a: AlgebraElement) -> bool:
    """a*a == a (exact, or within the float backend's tolerance)."""
    return (a * a).equals(a)


def mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the diagram product, with eager reduction.

    Equal to the sum of c1 * c2 * beta**k * s over the pairs of terms, with
    (s, dia) = reduce(multiply_raw(d1, d2)), but computed by interface
    blocks: the topology of d1 * d2 is fixed by (d1.top, d2.bottom), so each
    interface is traced once.  A term's part of the int key packing (beta
    exponent, new bottom, new top, mid) is its code, which depends on the
    block only through one side record of ``trace_interface``.  So each
    group of terms (the right ones of a bottom, the left ones of a top) is
    coded once per distinct record, the coefficients of the terms that
    share a code are summed, and zero sums dropped.  The key is the sum of
    the two codes and beta_exp * NB * NT * W, so within one top group the
    right sums of all the blocks with one left record and one beta_exp are
    added up by code as well, and the pair loop runs once per such class:
    a pair of codes only adds the product of their sums under their key.

    The pairs run on the factors' int numerators (``nums``), so a pair of
    terms costs one int multiply and add, not a Fraction normalization.
    Each key's sum is then added, under its reduced diagram, to one running
    int per factor s * beta**k; a product has only a handful of distinct
    factors.  These are put over one denominator as well, so each output
    diagram's numerator is one int sum over the factors' denominators times
    that one, and a single gcd pass over the output puts it in lowest
    terms: no Fraction is built per output term.  A complex value is its
    own numerator over 1, so the float backend runs the same code.
    """
    a._check(b)
    alg = a.algebra
    variant, env = alg.variant, alg.env
    cap = max_terms()
    by_top, by_bottom = {}, {}
    for dia, c in a.nums.items():
        by_top.setdefault(dia.top, []).append((dia, c))
    for dia, c in b.nums.items():
        by_bottom.setdefault(dia.bottom, []).append((dia, c))

    # key = ((beta_exp * NB + bottom) * NT + top) * W + mid + OFF, added up
    # from a left part (minus L) and a right part (plus R): mid = R - L.
    # Faces are numbered densely, so NB and NT bound them.  |L| and |R|
    # are bounded by the factors' mids plus the interface: a curve through
    # it runs along at most n arcs, each spanning under n positions.
    n = variant.n
    bound_l = max((abs(d.mid) for d in a.nums), default=0) + 2 * n
    bound_r = max((abs(d.mid) for d in b.nums), default=0) + n * n + 2 * n
    off = bound_l + bound_r
    width = 2 * off + 1
    nb = len(a.nums) * len(by_bottom)
    nt = len(b.nums) * len(by_top)
    bottoms, tops = {}, {}
    acc = {}
    get = acc.get
    # codes by side record: (bottom, upper, d_new, nc) on the right and
    # (lower, d_new) within one top group on the left
    right_codes, left_codes = {}, {}
    classes = {}  # (lower, d_new, beta_exp) -> {right code: sum}, per top
    shift = nb * nt * width
    for top, left in by_top.items():
        for bottom, right in by_bottom.items():
            beta_exp, nc, lower, upper, d_new = trace_interface(top, bottom)
            key_r = bottom, upper, d_new, nc
            codes_r = right_codes.get(key_r)
            if codes_r is None:
                by_code = {}
                for dia, c in right:
                    face, r = outer_face(dia.top, -dia.mid, upper, d_new)
                    if r is None:
                        r = (dia.mid if not dia.d else 0) + nc
                    if abs(r) > bound_r:
                        raise AssertionError("interface wider than its bound")
                    code = tops.setdefault(face, len(tops)) * width + r
                    by_code[code] = by_code.get(code, 0) + c
                codes_r = right_codes[key_r] = [
                    kv for kv in by_code.items() if kv[1]]
            merged = classes.get((lower, d_new, beta_exp))
            if merged is None:
                merged = classes[lower, d_new, beta_exp] = {}
            for code, c in codes_r:
                merged[code] = merged.get(code, 0) + c
        for (lower, d_new, beta_exp), merged in classes.items():
            key_l = lower, d_new
            codes_l = left_codes.get(key_l)
            if codes_l is None:
                by_code = {}
                for dia, c in left:
                    face, li = outer_face(dia.bottom, dia.mid, lower, d_new)
                    if li is None:
                        li = -dia.mid if not dia.d else 0
                    if abs(li) > bound_l:
                        raise AssertionError("interface wider than its bound")
                    code = (bottoms.setdefault(face, len(bottoms)) * nt
                            * width + off - li)
                    by_code[code] = by_code.get(code, 0) + c
                codes_l = left_codes[key_l] = [
                    kv for kv in by_code.items() if kv[1]]
            codes_r = [kv for kv in merged.items() if kv[1]]
            row = beta_exp * shift
            for code_l, c1 in codes_l:
                code_l += row
                for code_r, c2 in codes_r:
                    k = code_l + code_r
                    acc[k] = get(k, 0) + c1 * c2
            if len(acc) > cap:
                raise ResourceLimitError(
                    f"element exceeded UTL_MAX_TERMS={cap}")
        left_codes.clear()
        classes.clear()
    del right_codes, left_codes, classes

    bottoms, tops = list(bottoms), list(tops)
    rmemo, sids = alg._reduce_memo, alg._scalar_ids
    parts = {}  # (scalar id, beta exponent) -> {reduced diagram: int sum}
    for k, val in acc.items():
        if not val:
            continue
        k, m = divmod(k, width)
        k, ti = divmod(k, nt)
        beta_exp, bi = divmod(k, nb)
        key = bottoms[bi], tops[ti], m - off
        hit = rmemo.get(key)
        if hit is None:
            s, dr = reduce(Diagram(*key), variant, env)
            hit = rmemo[key] = (sids.setdefault(s, len(sids)), dr)
        sid, dr = hit
        if dr is None:
            continue
        part = parts.get((sid, beta_exp))
        if part is None:
            part = parts[sid, beta_exp] = {}
        part[dr] = part.get(dr, 0) + val
    del acc, get  # the unreduced keys go before the output is built
    scalars = list(sids)
    factors, common = over_common_denominator(
        scalars[sid] * env.beta ** beta_exp for sid, beta_exp in parts)
    sums = {}
    for f, part in zip(factors, parts.values()):
        for dr, val in part.items():
            sums[dr] = sums.get(dr, 0) + val * f
    del parts
    return AlgebraElement.from_numerators(
        alg, {dr: val for dr, val in sums.items() if val},
        a.den * b.den * common)


# -- bases and dimensions -----------------------------------------------------

def _middle_exponents(variant: AlgebraVariant, d: int, sigma: int):
    """The middle exponents of the sector d for a bottom and top of
    parity sigma = sigma_bt(bottom, top): its window (``_window``), of
    which the pTL-derived kinds keep the mids of parity sigma.  TL's raw
    mid is always 0."""
    w = _window(variant.kind, variant.n, d)
    if w is None:
        return (0,)
    return tuple(m for m in range(w)
                 if not variant.even_only or m % 2 == sigma)


def _sectors(variant: AlgebraVariant):
    """(states, mids) per sector of the sandwich basis, d descending: the
    link states of B_{n,d}, of which TL keeps those that do not cross the
    seam, and the middle exponents for sigma = 0 and for sigma = 1."""
    n = variant.n
    for d in variant.defect_sectors():
        states = link_states(n, d)
        if variant.kind == "TL":
            states = tuple(v for v in states if v.crossing_count() == 0)
        yield states, (_middle_exponents(variant, d, 0),
                       _middle_exponents(variant, d, 1))


def _sandwich_triples(variant: AlgebraVariant):
    """(bottom, top, middle exponents) of the sandwich basis, in
    Diagram.sort_key order: defect_sectors descends, link_states is sorted,
    and the middle exponents ascend."""
    for states, mids in _sectors(variant):
        for b in states:
            for t in states:
                yield b, t, mids[sigma_bt(b, t)]


def basis_enumerate(variant: AlgebraVariant):
    """The sandwich basis S_d(...) of an uncoiled variant (or of TL),
    ordered by d descending, then bottom, top, mid (Diagram.sort_key).
    Raises ResourceLimitError before building a diagram once the basis
    would pass UTL_MAX_TERMS."""
    dim, cap = basis_dimension(variant), max_terms()
    if dim > cap:
        raise ResourceLimitError(
            f"a basis of {dim} diagrams exceeds UTL_MAX_TERMS={cap}")
    return tuple(Diagram(b, t, m)
                 for b, t, mids in _sandwich_triples(variant)
                 for m in mids)


def basis_dimension(variant: AlgebraVariant) -> int:
    """len(basis_enumerate(variant)), counted by parity class rather than
    over the pairs of states: sigma_bt(b, t) is the parity of the crossing
    counts of b and t together, so a sector with E states of even crossing
    count and O of odd has E*E + O*O pairs with sigma = 0 and 2*E*O with
    sigma = 1."""
    total = 0
    for states, (mids0, mids1) in _sectors(variant):
        odd = sum(v.crossing_count() % 2 for v in states)
        even = len(states) - odd
        total += ((even * even + odd * odd) * len(mids0)
                  + 2 * even * odd * len(mids1))
    return total


def dimension_closed_form(variant: AlgebraVariant) -> int:
    """The closed forms of the dimension corollaries."""
    n, kind = variant.n, variant.kind
    c = math.comb
    if kind == "TL":
        return c(2 * n, n) // (n + 1)
    if kind == "uaTL":
        return n * c(n - 1, (n - 1) // 2) ** 2
    if kind == "upTL":
        return n * c(n - 1, (n - 1) // 2) ** 2 - (n - 1)
    if kind == "uaTL1":
        return (n + 4) * c(n - 1, n // 2) ** 2
    if kind == "upTL1":
        return (n // 2 + 4) * c(n - 1, n // 2) ** 2 - (n // 2 - 1)
    if kind == "uaTL2":
        return n * c(n - 1, n // 2) ** 2
    if kind == "upTL2":
        return (n // 2) * c(n - 1, n // 2) ** 2 - (n // 2 - 1)
    raise InfiniteAlgebraError(f"{kind} is infinite-dimensional")


# -- the sandwich bilinear form ----------------------------------------------

class MiddleValue(FrozenValue):
    """A scalar multiple coeff of Omega_d^power (d > 0) or f^power
    (d = 0)."""

    _fields = ("coeff", "power", "d")

    def __init__(self, coeff, power: int, d: int):
        self.__dict__.update(coeff=coeff, power=power, d=d,
                             _key=(coeff, power, d))

    def is_zero(self) -> bool:
        return not self.coeff


def psi_bilinear(v: LinkState, w: LinkState, variant: AlgebraVariant,
                 env: ParamEnv) -> MiddleValue:
    """The form psi_d(v, w): v upright above the flipped w, read off the
    middle-algebra value, reduced per variant.

    Windings count descents from v's defects, leftward positive, matching
    the Omega convention; inside a sandwich product the inserted middle is
    therefore psi_d(upper bottom-state, lower top-state)."""
    if v.n != w.n:
        raise ValueError("size mismatch")
    if v.n != variant.n:
        raise ValueError("diagram size does not match the variant")
    if v.d != w.d:
        raise ValueError("defect-count mismatch")
    d = v.d
    beta_exp, nc, (v_pairs, _, a), (_, _, j), _ = trace_interface(v, w)
    if v_pairs:
        return MiddleValue(0, 0, d)  # two v-defects joined
    coeff = env.beta ** beta_exp if beta_exp else env.one
    # winding: the diagram iota(w) v has w below and v on top, so a defect
    # descending from v-index a lands on w-index a - r; a leftward descent
    # counts +1, matching the Omega convention of the diagram mid.
    mid = a - j if d else nc
    factor, m = _reduce_mid(variant.kind, variant.n, env, d, mid)
    if m is None:
        return MiddleValue(0, 0, d)
    return MiddleValue(coeff * factor, m, d)
