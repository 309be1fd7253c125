"""Exact arithmetic in prime fields GF(p) and extension fields GF(p^r).

Elements are represented by little-endian coefficient tuples over GF(p); for
r = 1 the tuple has a single entry and arithmetic reduces to mod-p integers.
Extension fields reduce modulo a monic irreducible polynomial, found by a
seeded deterministic search so that field construction is reproducible, or
supplied explicitly through a field spec string "p^r/c0,c1,...,cr".

Characteristics are limited to 61-bit primes, so that residues are int64:
the array engine takes every product of two of them through one function,
_gauss._product, whose int64 result stays below 2^62.
"""

from __future__ import annotations

import math
import random
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BadSpec,
    DegreeZero,
    DivisionByZero,
    NoSuchRoot,
    NoSuchSubgroup,
    NotIrreducible,
    NotPrime,
    ShapeMismatch,
)

MAX_PRIME_BITS = 61

# Deterministic Miller-Rabin witnesses, sufficient for all n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for the supported integer range."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Sorted distinct prime factors of n.

    Trial division by d < 1024 settles every n below 2^20; a larger
    cofactor is split by Pollard's rho, with is_prime deciding primality.
    """
    factors = []
    d = 2
    while d < 1024 and d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n < d * d:  # n has no factor below d, so it is 1 or a prime
        return factors + [n] if n > 1 else factors
    pending, large = [n], set()
    while pending:
        m = pending.pop()
        if is_prime(m):
            large.add(m)
            continue
        c, g = 0, m
        while g == m:  # rho on x -> x^2 + c, Floyd's cycle finding
            c += 1
            x, y, g = 2, 2, 1
            while g == 1:
                x = (x * x + c) % m
                y = (y * y + c) % m
                y = (y * y + c) % m
                g = math.gcd(x - y, m)
        pending += [g, m // g]
    return factors + sorted(large)


class MultCounter:
    """Opt-in tally of field multiplications, the counter of decode(responses, plan, counter).

    decode adds the decode term of protocol.costs, which prices every phase
    with the cost model in matpoly. Nothing else counts: pow_, the scalar
    evaluations and the array engine take no counter.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, n: int = 1) -> None:
        self.count += n

    def __repr__(self) -> str:
        return f"MultCounter({self.count})"


# ---------------------------------------------------------------------------
# Polynomial helpers over GF(p): the irreducibility test's gcd, the
# remainder of every extension-field product, and FieldCtx's fold table.
# Polynomials are little-endian coefficient tuples with no trailing zeros.


def _ptrim(c: Sequence[int]) -> tuple[int, ...]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pmod(a, b, p):
    # remainder of a divided by b (b nonzero), coefficients mod p
    a = list(a)
    inv_lead = pow(b[-1], -1, p)
    for shift in range(len(a) - len(b), -1, -1):
        c = a[shift + len(b) - 1]
        if c:
            c = c * inv_lead % p
            for j in range(len(b)):
                a[shift + j] = (a[shift + j] - c * b[j]) % p
    return _ptrim(a)


def _pgcd(a, b, p):
    a, b = _ptrim(a), _ptrim(b)
    while b:
        a, b = b, _pmod(a, b, p)
    return a


class FieldCtx:
    """Immutable description of GF(p^r) together with element factories."""

    __slots__ = ("p", "r", "modulus_poly", "order", "_fold", "_frob", "_zero", "_one")

    def __init__(self, p: int, r: int, modulus_poly: tuple[int, ...]):
        self.p = p
        self.r = r
        self.modulus_poly = tuple(c % p for c in modulus_poly)
        self.order = p ** r
        # row i * r + j holds x^(i+j) mod f, residues below p < 2^62: the array engine
        # reduces the r^2 plane products a_i * b_j of a product with one dot against it
        xpow = [_pmod((0,) * k + (1,), self.modulus_poly, p) + (0,) * r for k in range(2 * r - 1)]
        self._fold = np.array([xpow[i + j][:r] for i, j in np.ndindex(r, r)], dtype=np.int64)
        self._zero = FieldElement((0,) * r, self)
        self._one = FieldElement((1,) + (0,) * (r - 1), self)
        # row i holds (x^i)^p mod f, so a^p, the Frobenius image of a, is a @ _frob mod p;
        # at r = 1 the one row is x^0 = 1, and 0 stands in for x
        xp = FieldElement(((0, 1) + (0,) * r)[:r], self).pow_(p)
        self._frob = np.array([xp.pow_(i).coeffs for i in range(r)], dtype=np.int64)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldCtx) and self.p == other.p
                and self.r == other.r and self.modulus_poly == other.modulus_poly)

    def __hash__(self) -> int:
        return hash((self.p, self.r, self.modulus_poly))

    def __repr__(self) -> str:
        return f"GF({self.p})" if self.r == 1 else f"GF({self.p}^{self.r})"

    def spec_string(self) -> str:
        """Canonical field spec accepted by parse_field_spec."""
        if self.r == 1:
            return str(self.p)
        mods = ",".join(str(c) for c in self.modulus_poly)
        return f"{self.p}^{self.r}/{mods}"

    # -- element factories ---------------------------------------------------

    def element(self, value) -> "FieldElement":
        """Coerce an int (reduced mod p) or coefficient sequence to an element.

        A foreign element or a sequence of other than r coefficients raises ShapeMismatch.
        """
        if isinstance(value, FieldElement):
            if value.ctx != self:
                raise ShapeMismatch("element belongs to a different field")
            return value
        if isinstance(value, int):
            coeffs = (value % self.p,) + (0,) * (self.r - 1)
            return FieldElement(coeffs, self)
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) != self.r:
            raise ShapeMismatch(f"expected {self.r} coefficients, got {len(coeffs)}")
        return FieldElement(coeffs, self)

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def from_index(self, idx: int) -> "FieldElement":
        """Element with canonical index idx, the base-p digit encoding."""
        coeffs = []
        for _ in range(self.r):
            coeffs.append(idx % self.p)
            idx //= self.p
        return FieldElement(tuple(coeffs), self)

    def random_element(self, rng: random.Random, nonzero: bool = False) -> "FieldElement":
        lo = 1 if nonzero else 0
        return self.from_index(rng.randrange(lo, self.order))


def _operand(op):
    """op(self, other) with other an element of self's field: the one operand rule of
    FieldElement's binary operators. An int becomes ctx.element(int), an element of
    another field raises ShapeMismatch, and any other type returns NotImplemented.
    """
    def method(self, other):
        if not isinstance(other, FieldElement):
            if not isinstance(other, int):
                return NotImplemented
            other = self.ctx.element(other)
        elif other.ctx is not self.ctx and other.ctx != self.ctx:
            raise ShapeMismatch("field elements from different fields")
        return op(self, other)
    return method


class FieldElement:
    """Element of GF(p^r); a value type carrying its field context."""

    __slots__ = ("coeffs", "ctx")

    def __init__(self, coeffs: tuple[int, ...], ctx: FieldCtx):
        self.coeffs = coeffs
        self.ctx = ctx

    # -- helpers -------------------------------------------------------------

    def index(self) -> int:
        """Canonical integer encoding: sum of coeffs[i] * p^i."""
        idx = 0
        for c in reversed(self.coeffs):
            idx = idx * self.ctx.p + c
        return idx

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # -- arithmetic ------------------------------------------------------------

    @_operand
    def __add__(self, other):
        p = self.ctx.p
        return FieldElement(tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)), self.ctx)

    __radd__ = __add__

    @_operand
    def __sub__(self, other):
        p = self.ctx.p
        return FieldElement(tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)), self.ctx)

    __rsub__ = _operand(lambda self, other: other - self)

    def __neg__(self):
        p = self.ctx.p
        return FieldElement(tuple((-a) % p for a in self.coeffs), self.ctx)

    def _mul(self, other: "FieldElement") -> "FieldElement":
        ctx = self.ctx
        p = ctx.p
        r = ctx.r
        if r == 1:
            return FieldElement(((self.coeffs[0] * other.coeffs[0]) % p,), ctx)
        prod = [0] * (2 * r - 1)
        for i, ai in enumerate(self.coeffs):
            if ai:
                for j, bj in enumerate(other.coeffs):
                    prod[i + j] += ai * bj
        # _pmod leaves a coefficient unreduced below a zero leading one
        rem = _pmod([c % p for c in prod], ctx.modulus_poly, p)
        return FieldElement(rem + (0,) * (r - len(rem)), ctx)

    __mul__ = __rmul__ = _operand(_mul)

    def inv(self) -> "FieldElement":
        """Multiplicative inverse; raises DivisionByZero on the zero element."""
        ctx = self.ctx
        if self.is_zero():
            raise DivisionByZero("zero has no multiplicative inverse")
        if ctx.r == 1:
            return FieldElement((pow(self.coeffs[0], -1, ctx.p),), ctx)
        # a^(q-2) = a^(-1) in the multiplicative group of order q-1
        return self.pow_(ctx.order - 2)

    __truediv__ = _operand(lambda self, other: self._mul(other.inv()))
    __rtruediv__ = _operand(lambda self, other: other._mul(self.inv()))

    def pow_(self, e: int) -> "FieldElement":
        """Square-and-multiply from self at the leading bit down: matpoly._ladder(e) products."""
        if e < 0:
            return self.inv().pow_(-e)
        if e == 0:
            return self.ctx.one()
        result = self
        for bit in bin(e)[3:]:
            result = result._mul(result)
            if bit == "1":
                result = result._mul(self)
        return result

    def __pow__(self, e: int):
        return self.pow_(e)

    # -- comparisons -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.ctx.element(other)
        return (isinstance(other, FieldElement) and self.ctx == other.ctx
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.coeffs, self.ctx.p, self.ctx.r))

    def __repr__(self) -> str:
        if self.ctx.r == 1:
            return f"{self.coeffs[0]}"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "+".join(terms) if terms else "0"


def _poly_is_irreducible(f: Sequence[int], p: int) -> bool:
    """Irreducibility of a monic polynomial f of degree r >= 1 over GF(p).

    Rabin's test, computed in GF(p)[x]/(f), whose arithmetic FieldCtx
    provides for any monic modulus: f is irreducible iff x^(p^r) = x and
    gcd(x^(p^(r/q)) - x, f) = 1 for every prime q dividing r.
    """
    r = len(f) - 1
    if r == 1:
        return True
    x = FieldCtx(p, r, tuple(f)).element((0, 1) + (0,) * (r - 2))

    def frobenius_power(k):  # x^(p^k)
        t = x
        for _ in range(k):
            t = t.pow_(p)
        return t

    if frobenius_power(r) != x:
        return False
    for q in prime_factors(r):
        if len(_pgcd((frobenius_power(r // q) - x).coeffs, f, p)) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Public constructors


def make_field(p: int, r: int = 1, modulus: Optional[Sequence[int]] = None) -> FieldCtx:
    """Construct GF(p^r).

    For r > 1 a monic irreducible modulus of degree r is found by a seeded
    random search, so the same (p, r) always yields the same field. At least
    p^r / (2r) monic candidates are irreducible, so its 64 r draws all miss,
    raising NotIrreducible, with chance below e^-32 < 2^-40. An explicit modulus
    (monic, length r+1, little-endian, irreducible, else NotIrreducible)
    overrides the search; at r = 1 it names GF(p) itself.
    """
    if r < 1:
        raise DegreeZero(f"extension degree must be >= 1, got {r}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p.bit_length() > MAX_PRIME_BITS:
        raise BadSpec(f"characteristic exceeds {MAX_PRIME_BITS} bits")
    if modulus is not None:
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != r + 1 or mod[-1] != 1:
            raise NotIrreducible("modulus must be monic of degree r")
        if not _poly_is_irreducible(mod, p):
            raise NotIrreducible("supplied modulus is reducible")
        return FieldCtx(p, r, mod if r > 1 else (0, 1))
    if r == 1:
        return FieldCtx(p, 1, (0, 1))
    rng = random.Random(f"sdmm-modulus-{p}-{r}-0")
    for _ in range(64 * r):
        cand = tuple(rng.randrange(p) for _ in range(r)) + (1,)
        if _poly_is_irreducible(cand, p):
            return FieldCtx(p, r, cand)
    raise NotIrreducible(f"no irreducible modulus of GF({p}^{r}) in {64 * r} seeded draws")


def parse_field_spec(spec: str) -> FieldCtx:
    """Parse "p", "p^r", or "p^r/c0,c1,...,cr" into a field context."""
    spec = spec.strip()
    try:
        if "/" in spec:
            head, mods = spec.split("/", 1)
            coeffs = [int(c) for c in mods.split(",")]
        else:
            head, coeffs = spec, None
        if "^" in head:
            p_str, r_str = head.split("^", 1)
            p, r = int(p_str), int(r_str)
        else:
            p, r = int(head), 1
    except ValueError as exc:
        raise BadSpec(f"cannot parse field spec {spec!r}") from exc
    return make_field(p, r, modulus=coeffs)


def _element_of_order(ctx: FieldCtx, m: int):
    """The first w^((q-1)/m) of order exactly m, over w in canonical index
    order: a generator of the order-m subgroup, for m dividing q - 1.

    Indices below p are the prime subfield, whose powers w^((q-1)/m) make
    up the subgroup of order (p - 1) / gcd(p - 1, (q - 1) / m). When m does
    not divide that order, none of them has order m, so the walk starts at
    index p and returns the same element without them.
    """
    skip = (ctx.p - 1) // math.gcd(ctx.p - 1, (ctx.order - 1) // m) % m != 0
    for idx in range(ctx.p if skip else 1, ctx.order):
        z = ctx.from_index(idx).pow_((ctx.order - 1) // m)
        if is_primitive_root_of_unity(z, m):
            return z
    raise NoSuchRoot(f"no element of order {m} found")


def primitive_root_of_unity(ctx: FieldCtx, M: int) -> FieldElement:
    """The smallest (by canonical index) primitive M-th root of unity."""
    if M < 1:
        raise NoSuchRoot("M must be positive")
    if (ctx.order - 1) % M != 0:
        raise NoSuchRoot(f"{M} does not divide {ctx.order - 1}")
    # g^j generates the order-M subgroup exactly when gcd(j, M) = 1
    return min((z for j, z in enumerate(subgroup_elements(ctx, M)) if math.gcd(j, M) == 1),
               key=FieldElement.index)


def is_primitive_root_of_unity(zeta: FieldElement, M: int) -> bool:
    """True iff zeta^M = 1 and no smaller positive power is 1."""
    if zeta.is_zero():
        return False
    if zeta.pow_(M) != zeta.ctx.one():
        return False
    return all(zeta.pow_(M // q) != zeta.ctx.one() for q in prime_factors(M))


def subgroup_elements(ctx: FieldCtx, order: int) -> list[FieldElement]:
    """The unique cyclic subgroup of the given order, as powers of a generator."""
    if order < 1:
        raise NoSuchSubgroup("order must be positive")
    if (ctx.order - 1) % order != 0:
        raise NoSuchSubgroup(f"{order} does not divide {ctx.order - 1}")
    g = _element_of_order(ctx, order)
    out = [ctx.one()]
    for _ in range(order - 1):
        out.append(out[-1] * g)
    return out


def largest_coprime_subgroup_order(ctx: FieldCtx, M: int) -> int:
    """Largest divisor of the multiplicative group order that is coprime to M."""
    n = ctx.order - 1
    for q in prime_factors(M):
        while n % q == 0:
            n //= q
    return n
