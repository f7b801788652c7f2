"""Exact scalar arithmetic over a sampled generic parameter point.

Every identity this package verifies is a polynomial identity in the
parameters (s, alpha, gamma, omega, z).  Instead of dragging symbolic
rational-function fields around, we evaluate at a seeded random rational
point and compute with exact ``Fraction`` arithmetic: a nonzero polynomial
vanishes there with probability zero, and resampling the seed would expose
such an accident.  The base parameter is s = q^(1/2), so that the
half-powers of q appearing in braid faces and eigenvalues stay rational.

The q-arithmetic of one Gamma table comes from one integer q-number ladder
(``qints``), built once per parameter point.  With q = a/b and u = ab, each
q-number is [j] = N_j / u^(j-1) and each q-factorial [j]! = F_j /
u^(j(j-1)/2), where N_j = (a^(2j) - b^(2j)) / (a^2 - b^2) and F_j = N_1 ...
N_j are integers, so the tables multiply integers over known denominators
instead of reducing a Fraction per step.

A complex-float backend exists solely for the checks that genuinely need
all n-th roots of unity (splitting a periodic projector into its affine
sectors); its equality tolerance is 1e-9.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

EXACT = "exact-rational"
FLOAT = "complex-float"

FLOAT_RTOL = 1e-9

AFFINE_KINDS = ("uaTL", "uaTL1", "uaTL2")
PERIODIC_KINDS = ("upTL", "upTL1", "upTL2")
UNCOILED_KINDS = AFFINE_KINDS + PERIODIC_KINDS
STARRED_KINDS = ("uaTL1", "upTL1")  # non-contractible loops weigh alpha
ALL_KINDS = UNCOILED_KINDS + ("aTL", "pTL", "TL")


class NonGenericParameterError(ValueError):
    """A guarded denominator vanished: the parameter point is not generic."""


class FrozenValue:
    """An immutable value.  A subclass names its fields in ``_fields``, in
    constructor order, and its ``__init__`` stores them through
    ``self.__dict__`` together with their tuple ``_key``: equality and hash
    read ``_key`` (the hash computed on first use and kept), and hold
    between instances of one class only.  Assigning an attribute raises
    AttributeError.  Derived values (other entries stored at construction,
    or a ``cached_property``) stay out of ``_key``."""

    _fields = ()
    _hash = None

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self.__dict__["_hash"] = hash(self._key)
        return h

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # rebuilt by the constructor: a kept hash of a str field would be
        # stale in another process
        return type(self), self._key


# each backend's (one, zero), shared by its envs
_UNITS = {EXACT: (Fraction(1), Fraction(0)), FLOAT: (complex(1), complex(0))}


def _rational(name: str, x):
    """An exact env's field x: an int becomes a Fraction (a plain int would
    make 1 ** -2 a float downstream), a Fraction or None stays."""
    if isinstance(x, int):
        return Fraction(x)
    if x is not None and not isinstance(x, Fraction):
        raise ValueError(f"exact backend needs rational {name}, got {x!r}")
    return x


class ParamEnv(FrozenValue):
    """A concrete parameter point: backend, s, alpha, gamma, omega (None
    unless the variant is affine uncoiled), z and rng_seed, with q = s**2.
    The backend's unit and zero and the algebra point (backend, s, alpha,
    gamma) are stored at construction, q and beta derived once per
    instance; equality and hashing see the fields only."""

    _fields = ("backend", "s", "alpha", "gamma", "omega", "z", "rng_seed")

    def __init__(self, backend: str, s, alpha, gamma, omega, z,
                 rng_seed: int):
        if backend not in _UNITS:
            raise ValueError(f"unknown backend {backend!r}")
        if backend == EXACT:
            s, alpha, gamma, omega, z = map(
                _rational, self._fields[1:6], (s, alpha, gamma, omega, z))
            if s in (0, 1, -1):
                raise NonGenericParameterError("s must avoid {0, 1, -1}")
        one, zero = _UNITS[backend]
        self.__dict__.update(
            backend=backend, s=s, alpha=alpha, gamma=gamma, omega=omega, z=z,
            rng_seed=rng_seed,
            _key=(backend, s, alpha, gamma, omega, z, rng_seed),
            one=one, zero=zero, algebra_point=(backend, s, alpha, gamma))

    def replace(self, **changes) -> "ParamEnv":
        """A copy with the named fields changed, validated as a new
        instance."""
        return ParamEnv(**{**dict(zip(self._fields, self._key)), **changes})

    @cached_property
    def q(self):
        return self.s * self.s

    @cached_property
    def beta(self):
        return -self.q - 1 / self.q

    def eq(self, a, b) -> bool:
        """Backend-aware scalar equality (exact, or 1e-9 relative)."""
        if self.backend == EXACT:
            return a == b
        scale = max(1.0, abs(a), abs(b))
        return abs(a - b) <= FLOAT_RTOL * scale

    def is_zero(self, a) -> bool:
        return self.eq(a, 0)

    def to_float(self) -> "ParamEnv":
        conv = lambda x: None if x is None else complex(x)
        return ParamEnv(FLOAT, conv(self.s), conv(self.alpha), conv(self.gamma),
                        conv(self.omega), conv(self.z), self.rng_seed)

    def with_omega(self, omega, n: int) -> "ParamEnv":
        """Replace the affine root; gamma = omega^n is re-derived."""
        return self.replace(omega=omega, gamma=omega ** n)

    def to_json(self) -> dict:
        return {
            "backend": self.backend,
            "s": scalar_to_json(self.s),
            "alpha": scalar_to_json(self.alpha),
            "gamma": scalar_to_json(self.gamma),
            "omega": None if self.omega is None else scalar_to_json(self.omega),
            "z": scalar_to_json(self.z),
            "rng_seed": self.rng_seed,
        }


def qnum_at(q, k: int):
    """The quantum integer [k] at a given q; at q = 1 the classical limit k."""
    if q == 1:
        return Fraction(k) if isinstance(q, Fraction) else k
    return (q ** k - q ** (-k)) / (q - 1 / q)


@lru_cache(maxsize=256, typed=True)  # an exact s and its complex copy differ
def _qnum_cached(s, k):
    return qnum_at(s * s, k)


def qnum(k: int, env: ParamEnv):
    """[k] = (q^k - q^-k)/(q - q^-1); satisfies [-k] = -[k], [0] = 0."""
    return _qnum_cached(env.s, k)


class QLadder(NamedTuple):
    """The q-numbers num[j] = [j] and q-factorials fact[j] = [j]! for
    0 <= j <= top at one parameter point."""

    num: tuple
    fact: tuple


def qladder(top: int, env: ParamEnv) -> QLadder:
    """[j] and [j]! for 0 <= j <= top: one walk of qnum, with [j]! as a
    running product starting from [0]! = env.one."""
    num = tuple(qnum(j, env) for j in range(top + 1))
    fact = [env.one]
    for x in num[1:]:
        fact.append(fact[-1] * x)
    return QLadder(num, tuple(fact))


def qfact(k: int, env: ParamEnv):
    """[k]! = [1][2]...[k]."""
    if k < 0:
        raise ValueError("q-factorial of a negative integer")
    return qladder(k, env).fact[k]


def qbinom(kappa: int, tau: int, env: ParamEnv):
    """q-binomial [kappa]!/([tau]![kappa-tau]!), for 0 <= tau <= kappa."""
    if not 0 <= tau <= kappa:
        raise ValueError(f"qbinom indices out of range: ({kappa}, {tau})")
    fact = qladder(kappa, env).fact
    return fact[kappa] / (fact[tau] * fact[kappa - tau])


class QInts(NamedTuple):
    """The integer q-number ladder at one point, q = a/b and u = ab:
    [j] = num[j] / u^(j-1) and [j]! = fact[j] / u^(j(j-1)/2) for
    0 <= j <= top.  On the complex backend a = u = q and b = 1."""

    a: object
    b: object
    u: object
    num: tuple
    fact: tuple


def qints(top: int, env: ParamEnv) -> QInts:
    """The integer ladder up to [top], shared by every table at one q."""
    return _qints(env.backend, env.s, top)


@lru_cache(maxsize=4)
def _qints(backend: str, s, top: int) -> QInts:
    a, b = split(s * s)
    a2, b2 = a * a, b * b
    num, fact = [0, 1], [1, 1]
    step = b2  # b^(2j) for N_(j+1) = a^2 N_j + b^(2j)
    for _ in range(top - 1):
        num.append(a2 * num[-1] + step)
        fact.append(fact[-1] * num[-1])
        step *= b2
    return QInts(a, b, a * b, tuple(num[:top + 1]), tuple(fact[:top + 1]))


def qbinomials(top: int, count: int, env: ParamEnv) -> tuple:
    """rows[m][i] for 0 <= m <= top and 0 <= i < count: the integers with
    [m choose i] = rows[m][i] / u^(i (m - i)) on the ladder of ``qints``, 0
    for i > m.  With x = a^2 and y = b^2 they follow q-Pascal,
    rows[m][i] = x^i rows[m-1][i] + y^(m-i) rows[m-1][i-1]."""
    return _qbinomials(env.backend, env.s, top, count)


@lru_cache(maxsize=4)
def _qbinomials(backend: str, s, top: int, count: int) -> tuple:
    a, b = split(s * s)
    x, y = a * a, b * b
    xp, yp = [1], [1]
    for _ in range(1, count):
        xp.append(xp[-1] * x)
    for _ in range(top):
        yp.append(yp[-1] * y)
    row = (1,) + (0,) * (count - 1)
    rows = [row]
    for m in range(1, top + 1):
        prev = row
        row = [1] + [xp[i] * prev[i] + yp[m - i] * prev[i - 1]
                     for i in range(1, min(m, count - 1) + 1)]
        row = tuple(row) + (0,) * (count - len(row))
        rows.append(row)
    return tuple(rows)


# -- integer numerators ------------------------------------------------------
#
# A long sum of Fractions spends its time on a gcd per step.  The Gamma
# tables instead run their sums on integer numerators over one denominator
# and build one Fraction per result.  A complex value is its own numerator
# over 1, so the float backend runs the same sums.

def split(x) -> tuple:
    """(numerator, denominator) of a rational; a complex value over 1."""
    if isinstance(x, (complex, float)):
        return x, 1
    return x.numerator, x.denominator


def over_common_denominator(xs) -> tuple:
    """(nums, d) with xs[i] = nums[i] / d and d the least common
    denominator; complex values come back unchanged over 1."""
    # no (numerator, denominator) pair per value: a table's worth of pairs
    # freed at once stays on the interpreter's tuple free lists
    xs = list(xs)
    if any(isinstance(x, (complex, float)) for x in xs):
        return xs, 1
    d = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def ratio(num, den):
    """num / den: one Fraction for integers, plain division otherwise."""
    if isinstance(num, int) and isinstance(den, int):
        return Fraction(num, den)
    return num / den


def gamma_hat(kind: str, env: ParamEnv):
    """The unwinding twist used by the window conventions: gamma, or 1 for
    the starred kinds (whose full turn is weight one)."""
    if kind in STARRED_KINDS:
        return env.one
    return env.gamma


def _kind_of(variant) -> str:
    return variant if isinstance(variant, str) else variant.kind


def guard_values(kind: str, n: int, env: ParamEnv):
    """All denominators the projector machinery divides by, evaluated at env.

    These are the guards listed with the projector design decisions: the
    q-numbers up to [2n], the twist gamma (and omega for the affine kinds),
    the kernel denominators gamma-hat^(+-1) q^(+-n m_k) - 1 (squared
    versions for n odd), the starred combinations alpha[n/2] -+ [n], and the
    affine conjecture denominators omega^2 q^(+-2 m_k) - 1.
    """
    q = env.q
    vals = [env.s, env.s - 1, env.s + 1]
    for j in range(1, 2 * n + 1):
        vals.append(qnum(j, env))
    if kind not in UNCOILED_KINDS:
        return vals
    vals.append(env.gamma)
    if kind in AFFINE_KINDS:
        vals.append(env.omega)
    gh = gamma_hat(kind, env)
    for k in range(1, (n - 1) // 2 + 1):
        mk2 = n - 2 * k  # = 2 m_k
        if n % 2 == 0:
            e = n * mk2 // 2  # n * m_k
            vals += [gh - q ** e, gh - q ** (-e)]
        else:
            e = n * mk2  # 2 n m_k
            g2 = gh * gh
            vals += [g2 - q ** e, g2 - q ** (-e)]
        if kind in AFFINE_KINDS:
            w2 = env.omega * env.omega
            vals += [w2 * q ** mk2 - 1, w2 * q ** (-mk2) - 1]
    if kind in STARRED_KINDS:
        half = qnum(n // 2, env)
        full = qnum(n, env)
        vals += [env.alpha * half - full, env.alpha * half + full,
                 env.alpha ** 2 * half ** 2 - full ** 2]
    vals += [env.z, env.z - 1, env.z + 1]
    return vals


def validate_env(env: ParamEnv, variant, n: int | None = None) -> None:
    """Raise NonGenericParameterError if any guarded denominator vanishes.
    A point that passed is remembered, so the table and the projector of
    one point check it once; a failing one raises on every call."""
    _validate(env, _kind_of(variant), variant.n if n is None else n)


@lru_cache(maxsize=8)  # a raise stores nothing
def _validate(env: ParamEnv, kind: str, n: int) -> None:
    if kind in AFFINE_KINDS:
        if env.omega is None:
            raise NonGenericParameterError("affine variant needs omega")
        if not env.eq(env.gamma, env.omega ** n):
            raise NonGenericParameterError("gamma != omega^n")
        if kind == "uaTL1" and not env.eq(env.gamma, env.one):
            raise NonGenericParameterError(
                "uaTL1 needs omega^n = 1 (its full turn weighs one)")
    for v in guard_values(kind, n, env):
        if env.is_zero(v):
            raise NonGenericParameterError(
                f"guarded denominator vanishes for {kind}, n={n}")


def sample_env(seed: int, variant, n: int | None = None) -> ParamEnv:
    """Deterministic seeded choice of small generic rationals for a variant.

    Resamples (up to 1000 times) until every guarded denominator for the
    given variant and size is nonzero.
    """
    kind = _kind_of(variant)
    if n is None:
        n = variant.n
    if n < 1:
        raise ValueError("n >= 1 required")
    rng = random.Random(seed)

    def frac(lo=1, hi=9, exclude=()):
        for _ in range(100):
            x = Fraction(rng.randint(lo, hi), rng.randint(lo, hi))
            if x not in exclude:
                return x
        raise NonGenericParameterError("could not sample a parameter")

    for _ in range(1000):
        s = frac(2, 9, exclude=(1,))
        alpha = frac(1, 9)
        z = frac(2, 9, exclude=(1,))
        omega = None
        if kind == "uaTL1":
            omega = Fraction(rng.choice((1, -1)))  # omega^n = 1 over Q
            gamma = omega ** n
        elif kind in AFFINE_KINDS:
            omega = frac(2, 7, exclude=(1,))
            gamma = omega ** n
        elif kind == "upTL1":
            gamma = Fraction(1)
        else:
            gamma = frac(2, 7, exclude=(1,))
        env = ParamEnv(EXACT, s, alpha, gamma, omega, z, seed)
        try:
            validate_env(env, kind, n)
        except NonGenericParameterError:
            continue
        return env
    raise NonGenericParameterError(
        f"non-generic parameter space: 1000 resamples failed for {kind}, n={n}")


# -- serialization ----------------------------------------------------------

# Decimal digits per piece when converting long integers: int() and str()
# refuse more digits than sys.get_int_max_str_digits() (4300 by default
# since Python 3.11), which may be set no lower than 640.
_CHUNK = 640
_CHUNK_BASE = 10 ** _CHUNK


def _int_to_str(x: int) -> str:
    """str(x) for an integer of any length."""
    if -_CHUNK_BASE < x < _CHUNK_BASE:
        return str(x)
    head, tail = divmod(abs(x), _CHUNK_BASE)
    sign = "-" if x < 0 else ""
    return sign + _int_to_str(head) + str(tail).zfill(_CHUNK)


def _int_from_str(text: str) -> int:
    """int(text) for a decimal string of any length."""
    if len(text) <= _CHUNK:
        return int(text)
    sign = text[0] if text[0] in "+-" else ""
    digits = text[len(sign):]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text[:20]}...")
    first = len(digits) % _CHUNK or _CHUNK
    value = int(digits[:first])
    for i in range(first, len(digits), _CHUNK):
        value = value * _CHUNK_BASE + int(digits[i:i + _CHUNK])
    return -value if sign == "-" else value


def scalar_to_json(x):
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return _int_to_str(x.numerator)
        return f"{_int_to_str(x.numerator)}/{_int_to_str(x.denominator)}"
    if isinstance(x, int):
        return _int_to_str(x)
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, float):
        return {"re": x, "im": 0.0}
    raise TypeError(f"cannot serialize scalar {x!r}")


def scalar_from_json(obj):
    if isinstance(obj, str):
        if "/" in obj:
            num, den = obj.split("/")
            return Fraction(_int_from_str(num), _int_from_str(den))
        return Fraction(_int_from_str(obj))
    if isinstance(obj, dict):
        return complex(obj["re"], obj["im"])
    raise TypeError(f"cannot parse scalar {obj!r}")
