"""Exact arithmetic in GF(p^alpha).

Elements are coefficient vectors over GF(p), little-endian (index = degree).
Extension fields reduce modulo a monic irreducible polynomial chosen
deterministically at construction: the lexicographically smallest one,
coefficients compared low degree first.

field_create and field_tables are cached, so each field's modulus search
and tables are built once per process.  field_tables turns a field into
integer tables over element indices with the exact arithmetic above:
log/antilog for multiplication, and a carry-free code with its fold table
for addition, so both are one gather.  The graph constructions multiply and
add whole index arrays through them.  order_split checks an order without
building the field, so callers can refuse an oversized input before the
modulus search; a construction then builds its field with field_create from
the split that order_split returned, so it factors q once.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DivisionByZero, IndexOutOfRange, NotPrime, OrderUnavailable, Overflow, PreconditionViolated

ORDER_CAP = 2**31


def is_prime(p: int) -> bool:
    return prime_factors(p) == [p]


def prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m, ascending."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return out


def prime_power_split(q: int) -> tuple[int, int]:
    """Factor q as p^alpha with p prime, or raise NotPrime."""
    ps = prime_factors(q)
    if len(ps) != 1:
        raise NotPrime(f"{q} is not a prime power")
    p = ps[0]
    alpha = 0
    m = q
    while m > 1:
        m //= p
        alpha += 1
    return p, alpha


@dataclass(frozen=True)
class FieldElement:
    """Element of GF(p^alpha): alpha coefficients in [0, p), little-endian."""

    coeffs: tuple[int, ...]


# -- polynomial helpers over GF(p), little-endian lists -------------------


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    """a mod m with m monic."""
    a = list(a)
    _poly_trim(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm:
        shift = len(a) - 1 - dm
        c = a[-1]
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mi) % p
        _poly_trim(a)
    return a


def _monic_polys(degree, p):
    """All monic polynomials of the given degree, ascending lex (low degree first)."""
    for tail in itertools.product(range(p), repeat=degree):
        yield list(tail) + [1]


def _is_irreducible(m, p):
    """Exhaustive factor check: no monic divisor of degree 1..deg/2."""
    deg = len(m) - 1
    for d in range(1, deg // 2 + 1):
        for cand in _monic_polys(d, p):
            if not _poly_mod(m, cand, p):
                return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """GF(p^alpha) with a fixed monic irreducible modulus.

    modulus holds alpha+1 coefficients for alpha >= 2 and is empty for
    prime fields, where reduction is plain mod p.
    """

    p: int
    alpha: int
    modulus: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.p**self.alpha

    # -- element plumbing --

    def element(self, i: int) -> FieldElement:
        """i-th element in enumeration order: base-p digits of i, ascending."""
        if not 0 <= i < self.q:
            raise IndexOutOfRange(f"element index {i} outside [0, {self.q})")
        digits = []
        for _ in range(self.alpha):
            digits.append(i % self.p)
            i //= self.p
        return FieldElement(tuple(digits))

    def index(self, a: FieldElement) -> int:
        v = 0
        for c in reversed(a.coeffs):
            v = v * self.p + c
        return v

    @property
    def zero(self) -> FieldElement:
        return FieldElement((0,) * self.alpha)

    @property
    def one(self) -> FieldElement:
        return FieldElement((1,) + (0,) * (self.alpha - 1))

    def is_zero(self, a: FieldElement) -> bool:
        return not any(a.coeffs)

    # -- arithmetic --

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return FieldElement(tuple((x + y) % self.p for x, y in zip(a.coeffs, b.coeffs)))

    def sub(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return FieldElement(tuple((x - y) % self.p for x, y in zip(a.coeffs, b.coeffs)))

    def neg(self, a: FieldElement) -> FieldElement:
        return FieldElement(tuple((-x) % self.p for x in a.coeffs))

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        if self.alpha == 1:
            return FieldElement(((a.coeffs[0] * b.coeffs[0]) % self.p,))
        prod = _poly_mul(list(a.coeffs), list(b.coeffs), self.p)
        red = _poly_mod(prod, list(self.modulus), self.p)
        red += [0] * (self.alpha - len(red))
        return FieldElement(tuple(red))

    def inv(self, a: FieldElement) -> FieldElement:
        if self.is_zero(a):
            raise DivisionByZero("inverse of zero")
        return self.pow(a, self.q - 2)  # a^(q-1) = 1 in GF(q)

    def pow(self, a: FieldElement, k: int) -> FieldElement:
        if k < 0:
            return self.pow(self.inv(a), -k)
        out = self.one
        base = a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out


@functools.lru_cache(maxsize=128)
def field_create(p: int, alpha: int = 1) -> FieldSpec:
    """Build GF(p^alpha); modulus chosen as the lexicographically smallest
    monic irreducible of degree alpha (coefficients compared low degree first).
    Kept for the 128 most recently used fields.

    The search enumerates only candidates with a nonzero constant term, in
    _monic_polys order: for alpha >= 2 the others are divisible by x.
    """
    # refused before is_prime's trial division; for p >= 2 any exponent past
    # the cap's bit length is above the cap, so p^alpha is never built in full
    if p > 1 and p ** min(alpha, ORDER_CAP.bit_length()) > ORDER_CAP:
        raise Overflow(f"field order {p}^{alpha} exceeds {ORDER_CAP}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if alpha < 1:
        raise PreconditionViolated("alpha must be >= 1")
    if alpha == 1:
        return FieldSpec(p, 1, ())
    # an irreducible polynomial of every degree exists, so the search ends
    candidates = ((*tail, 1) for tail in itertools.product(range(1, p), *[range(p)] * (alpha - 1)))
    return FieldSpec(p, alpha, next(m for m in candidates if _is_irreducible(m, p)))


def order_split(q: int) -> tuple[int, int]:
    """(p, alpha) of a field order q, with field_from_order's checks
    (Overflow, then NotPrime) but without the modulus search.  The cap is
    checked first: factoring q takes up to sqrt(q)/2 trial divisions."""
    if q > ORDER_CAP:
        raise Overflow(f"field order {q} exceeds {ORDER_CAP}")
    return prime_power_split(q)


def field_from_order(q: int) -> FieldSpec:
    """GF(q) for a prime power q."""
    return field_create(*order_split(q))


def require_order(q: int, t: int) -> None:
    """Raise OrderUnavailable unless GF(q)* has elements of order t, i.e. t | q-1."""
    if t < 1 or (q - 1) % t != 0:
        raise OrderUnavailable(f"no element of order {t}: t must divide q-1 = {q - 1}")


def element_of_order(spec: FieldSpec, t: int) -> FieldElement:
    """First element (enumeration order) of multiplicative order exactly t.

    Requires t | q-1; otherwise no such element exists in the cyclic group.
    """
    require_order(spec.q, t)
    rs = prime_factors(t)
    for i in range(1, spec.q):
        a = spec.element(i)
        if spec.pow(a, t) != spec.one:
            continue
        if all(spec.pow(a, t // r) != spec.one for r in rs):
            return a
    raise OrderUnavailable(f"no element of order {t} found")  # unreachable for t | q-1


def subgroup(spec: FieldSpec, h: FieldElement, t: int) -> tuple[FieldElement, ...]:
    """The cyclic subgroup H = {1, h, ..., h^(t-1)} generated by an order-t element."""
    out = [spec.one]
    cur = spec.one
    for _ in range(t - 1):
        cur = spec.mul(cur, h)
        out.append(cur)
    return tuple(out)


@dataclass(frozen=True, eq=False)
class FieldTables:
    """GF(q) as integer tables over element indices (enumeration order).

    With g the first primitive element in enumeration order, log[i] is the
    discrete log of element i for i >= 1 and antilog[k] is the index of
    g^k.  log[0] is the sentinel 2(q-1), and antilog holds two periods of
    g^k followed by zeros, so antilog[log[a] + log[b]] is the product of
    a and b, zero included, without a branch or a modulus.

    Addition goes through a carry-free code.  For odd p, code[i] gives
    base-p digit k of i the weight (2p-1)^k: two digits sum to at most
    2p-2, so the sum of two codes holds the digit sums without carries, and
    fold, with (2p-1)^alpha entries, maps it back to the index of the sum
    (each digit sum mod p).  On a prime field the code is the identity.  For
    p = 2 the code is the index, codes combine by xor, and fold is the
    identity.  So add is one gather, fold[code[a] + code[b]] (a xor for
    p = 2).  sum_test folds a membership test into fold and returns a
    function of two codes: callers encode with code once and test many.  The
    largest fold under the vertex cap is 5^9 entries, about 16 MB,
    for q = 3^9; every other table has O(q) entries.  mul, add and neg act
    elementwise on index arrays of any shape.  The order-t subgroup of
    GF(q)* is every ((q-1)/t)-th entry of the antilog period; as field
    elements it is subgroup(spec, element_of_order(spec, t), t).
    """

    p: int
    log: np.ndarray
    antilog: np.ndarray
    code: np.ndarray
    fold: np.ndarray

    def mul(self, a, b) -> np.ndarray:
        return self.antilog[self.log[a] + self.log[b]]

    def _code_sum(self, x, y) -> np.ndarray:
        """Code of a + b from the codes x, y of a and b; fold maps it to an index."""
        return np.bitwise_xor(x, y) if self.p == 2 else x + y

    def add(self, a, b) -> np.ndarray:
        return self.fold[self._code_sum(self.code[a], self.code[b])]

    def neg(self, a) -> np.ndarray:
        return self.mul(self.p - 1, a)  # -1 has digit 0 equal to p - 1, the rest 0

    def sum_test(self, members: np.ndarray) -> Callable[..., np.ndarray]:
        """Test of a + b against the elements where the boolean mask members holds:
        a function of the codes x = code[a], y = code[b], broadcast together,
        that is one add and one gather.  With out, a boolean array of the
        broadcast shape, it gathers into out and returns it."""
        hit = members[self.fold]  # per code sum: whether the element it folds to is a member

        def test(x, y, out=None) -> np.ndarray:
            return hit.take(self._code_sum(x, y), out=out)

        return test


@functools.lru_cache(maxsize=128)
def field_tables(spec: FieldSpec) -> FieldTables:
    """Log/antilog and code/fold tables of a field, built with
    FieldSpec arithmetic and kept for the 128 most recently used fields."""
    p, q = spec.p, spec.q
    g = element_of_order(spec, q - 1)
    powers = np.empty(q - 1, dtype=np.intp)
    cur = spec.one
    for k in range(q - 1):
        powers[k] = spec.index(cur)
        cur = spec.mul(cur, g)
    log = np.empty(q, dtype=np.intp)
    log[0] = 2 * (q - 1)
    log[powers] = np.arange(q - 1)
    antilog = np.concatenate([powers, powers, np.zeros(2 * (q - 1) + 1, dtype=np.intp)])
    # base of the code digits: a digit sum fits below it, or it is a xor
    w = 2 * p - 1 if p > 2 else 2
    code = np.zeros(1, dtype=np.intp)
    fold = np.zeros(1, dtype=np.intp)
    for k in range(spec.alpha):  # digit k is the slowest axis of both tables
        code = (np.arange(p, dtype=np.intp)[:, None] * w**k + code).ravel()
        fold = (np.arange(w, dtype=np.intp)[:, None] % p * p**k + fold).ravel()
    for table in (log, antilog, code, fold):
        table.flags.writeable = False  # shared by every caller through the cache
    return FieldTables(p, log, antilog, code, fold)
