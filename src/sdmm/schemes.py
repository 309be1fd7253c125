"""Polynomial code schemes for private distributed matrix multiplication.

A and B are cut into a K x M and an M x L grid of equal blocks. The encoder
hides them in matrix polynomials

    f(x) = sum_{k,m} A_{k,m} x^(m + k*M)        + sum_t R_t x^(K*M*L + alpha_t)
    g(x) = sum_{m,l} B_{m,l} x^(M-1-m + l*K*M)  + sum_t S_t x^(K*M*L + beta_t)

with independent uniform noise blocks R_t, S_t masking against any T
colluding workers. Within each x^(k*M + l*K*M) window the reversed m-index
of g aligns A_{k,m} with B_{m,l}, so the coefficient of h = f*g at exponent
M-1 + k*M + l*K*M is the product block sum_m A_{k,m} B_{m,l}.

Two noise layouts are provided: a "modular" layout alpha_t = beta_t = t*D
with D coprime to M, designed so a mod-M transform later strips most noise
terms, and a "grouped" layout that packs alpha into runs of length r at
multiples of K*M while beta stays consecutive. Arbitrary strictly
increasing exponent tuples are accepted as an escape hatch.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from typing import Optional

from .errors import BadD, BadR, BadSpec, ShapeMismatch
from .fields import FieldCtx
from .matpoly import BlockMatrix, MatPoly

MP = "mp"
GGASP = "ggasp"
EXPLICIT = "explicit"


def ggasp_alpha(K: int, M: int, T: int, r: int) -> tuple[int, ...]:
    """First T exponent offsets taken from runs [u*K*M, u*K*M + r - 1].

    The run length r must satisfy 1 <= r <= min(K*M, T); T = U*r + r0 full
    and partial runs are used.
    """
    if T == 0:
        return ()
    _check_run_length(K, M, T, r)
    out = []
    u = 0
    while len(out) < T:
        take = min(r, T - len(out))
        out.extend(u * K * M + j for j in range(take))
        u += 1
    return tuple(out)


def _check_run_length(K: int, M: int, T: int, r: int) -> None:
    if not 1 <= r <= min(K * M, T):
        raise BadR(f"run length {r} outside [1, min(K*M={K*M}, T={T})]")


def _integers(values, what: str) -> tuple[int, ...]:
    """values as ints through operator.index, as numpy integers convert; BadSpec for 2.0 or "3"."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise BadSpec(f"{what} must be integers") from None


_LAYOUT_FIELDS = {MP: ("D",), GGASP: ("r",), EXPLICIT: ("alpha", "beta")}  # beside K, M, L, T


@dataclass(frozen=True)
class SchemeParams:
    """Partition grid, security level, and noise exponent layout, checked however it is built."""

    variant: str
    K: int
    M: int
    L: int
    T: int
    D: int = 0
    r: int = 0
    alpha_raw: Optional[tuple[int, ...]] = None
    beta_raw: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        _integers((self.K, self.M, self.L, self.T, self.D, self.r), "K, M, L, T, D and r")
        if self.K < 1 or self.M < 1 or self.L < 1:
            raise BadSpec("K, M, L must be positive")
        if self.T < 0:
            raise BadSpec("T must be nonnegative")
        if self.variant not in _LAYOUT_FIELDS:
            raise BadSpec(f"unknown scheme variant {self.variant!r}")
        own = _LAYOUT_FIELDS[self.variant] if self.T or self.variant == EXPLICIT else ()
        if ((self.D and "D" not in own) or (self.r and "r" not in own) or (
                self.variant != EXPLICIT and (self.alpha_raw, self.beta_raw) != (None, None))):
            raise BadSpec(f"{self.variant} scheme at T={self.T} takes no layout field beyond {own}")
        if "D" in own and (not 1 <= self.D <= self.M or math.gcd(self.D, self.M) != 1):
            raise BadD(f"D={self.D} must lie in [1, M={self.M}] and be coprime to M")
        if "r" in own:
            _check_run_length(self.K, self.M, self.T, self.r)
        if self.variant == EXPLICIT:
            for name, exps in (("alpha", self.alpha_raw), ("beta", self.beta_raw)):
                if not isinstance(exps, tuple) or len(exps) != self.T:
                    raise BadSpec(f"{name} must be a tuple of exactly T={self.T} exponents")
                object.__setattr__(self, f"{name}_raw", _integers(exps, f"{name} exponents"))
                if any(e < 0 for e in exps):
                    raise BadSpec(f"{name} exponents must be nonnegative integers")
                if any(b <= a for a, b in zip(exps, exps[1:])):
                    raise BadSpec(f"{name} exponents must be strictly increasing")

    # -- constructors -------------------------------------------------------

    @classmethod
    def mp(cls, K: int, M: int, L: int, T: int, D: int = 1) -> "SchemeParams":
        return cls(MP, K, M, L, T, D=D if T else 0)

    @classmethod
    def ggasp(cls, K: int, M: int, L: int, T: int, r: int = 1) -> "SchemeParams":
        return cls(GGASP, K, M, L, T, r=r if T else 0)

    @classmethod
    def explicit(cls, K: int, M: int, L: int, T: int,
                 alpha: tuple[int, ...], beta: tuple[int, ...]) -> "SchemeParams":
        return cls(EXPLICIT, K, M, L, T, alpha_raw=tuple(alpha), beta_raw=tuple(beta))

    # -- exponent layout ------------------------------------------------------

    def alpha(self) -> tuple[int, ...]:
        """Noise exponent offsets for f, relative to K*M*L."""
        if self.variant == MP:
            return tuple(t * self.D for t in range(self.T))
        if self.variant == GGASP:
            return ggasp_alpha(self.K, self.M, self.T, self.r)
        return self.alpha_raw

    def beta(self) -> tuple[int, ...]:
        """Noise exponent offsets for g, relative to K*M*L."""
        if self.variant == MP:
            return tuple(t * self.D for t in range(self.T))
        if self.variant == GGASP:
            return tuple(range(self.T))
        return self.beta_raw

    def exponents(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Exponents of f's and of g's blocks, in the order build_f and build_g fill them.

        f: A_{k,m} at m + k*M in row-major (k, m), then noise t at K*M*L + alpha_t;
        g: B_{m,l} at M-1-m + l*K*M in row-major (m, l), then noise t at K*M*L + beta_t.
        """
        K, M, L, KML = self.K, self.M, self.L, self.KML
        f = tuple(m + k * M for k in range(K) for m in range(M))
        g = tuple(M - 1 - m + l * K * M for m in range(M) for l in range(L))
        return f + tuple(KML + a for a in self.alpha()), g + tuple(KML + b for b in self.beta())

    @property
    def KML(self) -> int:
        return self.K * self.M * self.L

    def spec_string(self) -> str:
        base = f"K={self.K},M={self.M},L={self.L},T={self.T}"
        if self.variant == MP:
            return f"mp:{base},D={self.D}"
        if self.variant == GGASP:
            return f"ggasp:{base},r={self.r}"
        alpha = "+".join(str(a) for a in self.alpha())
        beta = "+".join(str(b) for b in self.beta())
        return f"explicit:{base},alpha={alpha},beta={beta}"


def parse_scheme_spec(spec: str) -> SchemeParams:
    """Parse "mp:K=2,M=3,L=2,T=3,D=1" / "ggasp:K=5,M=2,L=5,T=4,r=2".

    The explicit form lists exponents joined by '+':
    "explicit:K=1,M=2,L=1,T=2,alpha=4+7,beta=4+9". A field the variant
    does not name, or one given twice, is rejected.
    """
    spec = spec.strip()
    if ":" not in spec:
        raise BadSpec(f"scheme spec {spec!r} must start with 'mp:', 'ggasp:' or 'explicit:'")
    variant, _, body = spec.partition(":")
    variant = variant.strip().lower()
    if variant not in _LAYOUT_FIELDS:
        raise BadSpec(f"unknown scheme variant {variant!r}")
    kv = {}
    for item in body.split(","):
        if "=" not in item:
            raise BadSpec(f"malformed scheme field {item!r}")
        key, _, val = item.partition("=")
        key = key.strip()
        if key in kv:
            raise BadSpec(f"repeated scheme field {key}")
        if key not in ("K", "M", "L", "T") + _LAYOUT_FIELDS[variant]:
            raise BadSpec(f"unknown field {key!r} for scheme variant {variant!r}")
        kv[key] = val.strip()

    def geti(key, default=None):
        if key not in kv:
            if default is None:
                raise BadSpec(f"scheme spec missing {key}")
            return default
        try:
            return int(kv[key])
        except ValueError as exc:
            raise BadSpec(f"scheme field {key} must be an integer") from exc

    K, M, L, T = geti("K"), geti("M"), geti("L"), geti("T")
    if variant == MP:
        return SchemeParams.mp(K, M, L, T, D=geti("D", 1))
    if variant == GGASP:
        return SchemeParams.ggasp(K, M, L, T, r=geti("r", 1))

    def parse_exps(key):
        if key not in kv:
            raise BadSpec(f"scheme spec missing {key}")
        if not kv[key]:
            return ()
        try:
            return tuple(int(v) for v in kv[key].split("+"))
        except ValueError as exc:
            raise BadSpec(f"scheme field {key} must be '+'-joined integers") from exc
    return SchemeParams.explicit(K, M, L, T, parse_exps("alpha"), parse_exps("beta"))


def partition(A: BlockMatrix, B: BlockMatrix, K: int, M: int, L: int) -> tuple[tuple, tuple]:
    """A's K x M and B's M x L grids of equal blocks, as row-major tuples of tuples.

    Each block is a read-only view into A's or B's array, so nothing is copied.
    """
    if A.ctx != B.ctx:
        raise ShapeMismatch("A and B over different fields")
    if A.cols != B.rows:
        raise ShapeMismatch(f"inner dimensions {A.cols} and {B.rows} differ")
    if A.rows % K or A.cols % M:
        raise ShapeMismatch(f"A of shape {A.shape} does not split into {K}x{M} blocks")
    if B.rows % M or B.cols % L:
        raise ShapeMismatch(f"B of shape {B.shape} does not split into {M}x{L} blocks")
    a, s = A.rows // K, A.cols // M
    b = B.cols // L
    return (tuple(tuple(A.submatrix(k * a, m * s, a, s) for m in range(M)) for k in range(K)),
            tuple(tuple(B.submatrix(m * s, l * b, s, b) for l in range(L)) for m in range(M)))


def build_f(params: SchemeParams, a_blocks: tuple, rng: random.Random, ctx: FieldCtx) -> MatPoly:
    """f on A's grid: its blocks row-major, then T noise blocks of that shape, at exponents()[0]."""
    blocks = [blk for row in a_blocks for blk in row]
    blocks += [BlockMatrix.random(*blocks[0].shape, ctx, rng) for _ in range(params.T)]
    return MatPoly(dict(zip(params.exponents()[0], blocks, strict=True)), blocks[0].shape, ctx)


def build_g(params: SchemeParams, b_blocks: tuple, rng: random.Random, ctx: FieldCtx) -> MatPoly:
    """g on B's grid: its blocks row-major, then T noise blocks of that shape, at exponents()[1]."""
    blocks = [blk for row in b_blocks for blk in row]
    blocks += [BlockMatrix.random(*blocks[0].shape, ctx, rng) for _ in range(params.T)]
    return MatPoly(dict(zip(params.exponents()[1], blocks, strict=True)), blocks[0].shape, ctx)


def product_block_positions(K: int, M: int, L: int) -> dict[tuple[int, int], int]:
    """Exponent of h = f*g carrying each product block sum_m A_{k,m} B_{m,l}."""
    return {(k, l): M - 1 + k * M + l * K * M for k in range(K) for l in range(L)}
