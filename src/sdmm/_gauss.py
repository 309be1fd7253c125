"""Exact array arithmetic and Gaussian elimination over finite fields.

A matrix over GF(p^r) is an int64 ndarray of canonical residues with shape
(rows, cols, r): the trailing axis holds the little-endian coefficients of
each entry. _product, the one entry product and the one place that knows how
wide a product grows, is the bare product below 2^31 and from 2^31 three
exact float64-quotient products of the right factor split at 2^31.
_dot, the one matrix product, multiplies directly where no dot product
can reach 2^63; every other product runs as float64 BLAS products of limbs
(the delayed-reduction idea of FFLAS-FFPACK): 16-bit limbs of the right
operand below 2^31, 21-bit limbs of both operands from 2^31. Chunks of
the inner dimension keep every partial sum an exact integer below 2^53,
so results do not depend on the BLAS, its threads or its summation order.
Over GF(p^r), a product forms its r^2 plane products a_i * b_j mod p and
reduces them with one _dot against FieldCtx._fold, an int64 table whose
row i * r + j is x^(i+j) mod the modulus.

_eliminate, the one elimination loop, is division-free and batched: a
column step scales the rows it clears by the pivot instead of dividing by
it. rank and batch_is_invertible, exact for the rank or the full-rank flags
they return, clear below each pivot; decompose reduces [V | I] for a stack
of tables and normalises the pivot rows with one batched _inverses call,
the only field inversions here (by the norm, through FieldCtx._frob), into
the left inverses and kernels. expand, the Laplace step with which
linalg.singular_minors decides square sets under its table bound, gathers,
multiplies (mul) and sums mod p one row's cofactor terms.
apply, the one spare-equation check, takes solve's [G; K] and decode's operators.
Nothing here counts: the cost model in matpoly prices Gauss-Jordan from
the shape of the system alone.
"""

from __future__ import annotations

import numpy as np

from .errors import BadSpec, InconsistentResponses, ShapeMismatch, SingularSystem
from .fields import FieldCtx


def as_array(data, ctx: FieldCtx) -> np.ndarray:
    """Residue array of a matrix.

    data is either a residue array of shape (rows, cols, r), returned as is
    when it is int64, or nested rows whose entries are ints,
    FieldElements or coefficient sequences. Another array shape, a foreign
    entry, or an array entry that is no integer in [0, p) raises ShapeMismatch.
    """
    if isinstance(data, np.ndarray):
        if data.ndim != 3 or data.shape[2] != ctx.r:
            raise ShapeMismatch(f"residue array of shape {data.shape} is not (rows, cols, {ctx.r})")
        ints = data.dtype.kind in "iu" or data.dtype == object and all(
            isinstance(v, (int, np.integer)) for v in data.flat)
        if not ints or data.size and not 0 <= data.min() <= data.max() < ctx.p:
            raise ShapeMismatch(f"residue array entries must be integers in [0, {ctx.p})")
        return np.asarray(data, dtype=np.int64)
    rows = [list(row) for row in data]
    cols = len(rows[0]) if rows else 0
    if any(len(row) != cols for row in rows):
        raise ShapeMismatch("ragged rows")
    flat = [ctx.element(v).coeffs for row in rows for v in row]
    return np.array(flat, dtype=np.int64).reshape(len(rows), cols, ctx.r)


def _product(a, b, p: int) -> np.ndarray:
    """int64 values congruent to a * b mod p and below 2^62, of broadcastable residue arrays:
    below 2^31 the bare product; from 2^31 three products by factors y < 2^32 (b split at 2^31),
    each x y - q p mod p in wrapping int64, q the float64 quotient x y / p truncated. Below 2^32
    that quotient is within 2^-19 of the true one, so x y - q p lies in (-p, 2p)."""
    if p < 1 << 31:
        return a * b

    def part(x, y):
        return (x * y - (x * np.float64(y) / p).astype(np.int64) * p) % p
    return part(a, b & (1 << 31) - 1) + part(part(a, b >> 31), 1 << 31)


def _outer(a: np.ndarray, b: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """The r^2 plane products _product(a_i, b_j) of broadcastable arrays, at i * r + j."""
    prod = _product(a[..., :, None], b[..., None, :], ctx.p)
    return prod.reshape(prod.shape[:-2] + (prod.shape[-1] ** 2,))


def mul(a: np.ndarray, b: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Entry-wise field product of two broadcastable residue arrays."""
    if ctx.r == 1:
        return _product(a, b, ctx.p) % ctx.p
    return _dot(_outer(a, b, ctx) % ctx.p, ctx._fold, ctx.p)


def _dot(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p over any leading batch axes of int64 residues.

    Where no dot product can reach 2^63, one int64 product.
    Else float64 BLAS products of limbs. b's kb width-bit limbs b_j stack
    along the inner dimension against a_j = a 2^(width j) mod p, since
    a @ b = [a_0 | a_1 | ...] @ [b_0; b_1; ...] mod p, and the left side's ka
    limbs stack by rows, limb i giving plane i: below 2^31, two 16-bit limbs
    of b against whole residues; from 2^31, three 21-bit limbs on both sides.
    Chunks of the inner dimension keep every dot product of two limbs, each
    at most p - 1 when whole and 2^width - 1 else, below 2^53, so every
    partial sum is an exact integer whatever the BLAS threads or summation
    order. Each later chunk's planes are added mod p, and Horner recombines
    them; the shifts a 2^(width j) and Horner's steps are _product's.
    """
    if (p - 1) ** 2 * a.shape[-1] < 1 << 63:
        return a @ b % p
    width, ka, kb = (16, 1, 2) if p < 1 << 31 else (21, 3, 3)
    mask = (1 << width) - 1
    chunk = ((1 << 53) - 1) // ((p - 1 if ka == 1 else mask) * mask)
    shifted = np.concatenate([a] + [_product(a, 1 << width * j, p) % p for j in range(1, kb)], -1)
    left, right = _limbs(shifted, width, ka), _limbs(b, width, kb)
    acc = None
    for s in range(0, right.shape[-2], chunk):
        part = (left[..., s:s + chunk] @ right[..., s:s + chunk, :]).astype(np.int64)
        acc = part if acc is None else (acc + part) % p
    n = a.shape[-2]
    *planes, top = [acc[..., i * n:(i + 1) * n, :] for i in range(ka)]
    out = top % p
    for plane in reversed(planes):
        out = (_product(out, 1 << width, p) + plane) % p
    return out


def _limbs(x: np.ndarray, width: int, count: int) -> np.ndarray:
    """x's count width-bit limbs, lowest first and the top one keeping every higher bit,
    stacked along axis -2 in float64.
    """
    limbs = [x] + [x >> width * i for i in range(1, count)]
    limbs = [limb & (1 << width) - 1 for limb in limbs[:-1]] + limbs[-1:]
    return np.concatenate(limbs, axis=-2, dtype=np.float64)


def matmul(a: np.ndarray, b: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Matrix product of residue arrays of shapes (..., n, s, r) and (..., s, m, r)."""
    if ctx.r == 1:
        return _dot(a[..., 0], b[..., 0], ctx.p)[..., None]
    planes = [_dot(a[..., i], b[..., j], ctx.p) for i, j in np.ndindex(ctx.r, ctx.r)]
    return _dot(np.stack(planes, axis=-1), ctx._fold, ctx.p)


def _inverses(pivots: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Inverses of a (batch, r) residue array, 0 mapping to 0: a^-1 = N(a)^-1 a^p ... a^(p^(r-1)),
    each conjugate one _dot against FieldCtx._frob, and the norm N(a) = a a^p ... a^(p^(r-1)),
    which lies in GF(p), inverted on plain ints once per distinct norm. At r = 1 the norm is a
    itself, so no product is taken."""
    if not len(pivots):
        return pivots
    norms = pivots
    if ctx.r > 1:
        rest = conj = _dot(pivots, ctx._frob, ctx.p)
        for _ in range(2, ctx.r):
            conj = _dot(conj, ctx._frob, ctx.p)
            rest = mul(rest, conj, ctx)
        norms = mul(pivots, rest, ctx)
    inverse = {v: pow(v, -1, ctx.p) if v else 0 for v in set(norms[:, 0].tolist())}
    inv = np.array(list(map(inverse.get, norms[:, 0].tolist())), dtype=pivots.dtype)[:, None]
    return inv if ctx.r == 1 else _product(rest, inv, ctx.p) % ctx.p


def expand(row: np.ndarray, cols: np.ndarray, minors: np.ndarray, drops: np.ndarray,
           ctx: FieldCtx) -> np.ndarray:
    """Laplace expansion along one row for each column S of a (t, count) index array: the
    (count, r) sums of (-1)^i row[S_i] minors[drops[i]] mod p, where minors[drops[i]] is the
    minor of the rows above without S_i; each is S's determinant up to sign. Every term is
    below p: where t of them stay below 2^63 they are summed at once, else reduced as added."""
    terms = mul(row[cols], minors[drops], ctx)
    if len(terms) * ctx.p < 1 << 63:
        return (terms[::2].sum(axis=0) - terms[1::2].sum(axis=0)) % ctx.p
    for i in range(1, len(terms)):
        terms[i] = (terms[i - 1] - terms[i] if i % 2 else terms[i - 1] + terms[i]) % ctx.p
    return terms[-1]


def _step(pivot, rows, lead, pivot_row, ctx: FieldCtx) -> np.ndarray:
    """pivot * rows - lead * pivot_row mod p, the division-free column step.

    Both products of residues, or of their coefficient planes, are _product's,
    below 2^62, so one reduction of their difference is exact.
    """
    if ctx.r == 1:
        return (_product(pivot, rows, ctx.p) - _product(lead, pivot_row, ctx.p)) % ctx.p
    return _dot((_outer(pivot, rows, ctx) - _outer(lead, pivot_row, ctx)) % ctx.p, ctx._fold, ctx.p)


def _eliminate(M: np.ndarray, m: int, ctx: FieldCtx, full: bool = True) -> np.ndarray:
    """Division-free elimination in place of a (batch, rows, cols, r) stack on its first m columns.

    At each column where some matrix has a pivot, the first nonzero row at
    or below the pivot row (swapped up where needed), each row it clears
    becomes pivot * row - lead * pivot_row (_step), as in Bareiss: the rows
    below, from that column on, for a rank question (full False); else
    every other row across all columns, so each row of a matrix of full
    column rank ends as a nonzero multiple of its Gauss-Jordan row. A matrix
    without a pivot where another has one counts none, its zero pivot
    clearing its rows below. Returns the pivot counts, exact for a batch of
    one and m exactly at full column rank.
    """
    batch, n = M.shape[:2]
    count = np.zeros(batch, dtype=np.intp)
    row = 0
    for col in range(m):
        if row == n:
            break
        nz = M[:, row:, col].any(axis=-1)
        has = nz.any(axis=1)
        if not has.any():
            continue
        count += has
        piv = row + nz.argmax(axis=1)
        if (piv != row).any():
            swap = np.flatnonzero(piv != row)
            M[swap, row], M[swap, piv[swap]] = M[swap, piv[swap]], M[swap, row]
        top, left = (0, 0) if full else (row + 1, col)
        pivot_row = M[:, row, None, left:].copy()
        block = M[:, top:, left:]
        block[...] = _step(pivot_row[:, :, col - left, None], block,
                           block[:, :, col - left, None], pivot_row, ctx)
        if full:
            M[:, row] = pivot_row[:, 0]
        row += 1
    return count


def solve(rows, rhs, ctx: FieldCtx) -> np.ndarray:
    """Solve A X = B exactly; B has one or more columns.

    A and B are matrices in any form as_array accepts; X is returned as a
    residue array. A may have more rows than columns; it must have full
    column rank (else SingularSystem), and the equations beyond the
    pivots must then be consistent, else InconsistentResponses: genuine
    evaluations of one polynomial always are, so an inconsistency means
    some right-hand side was corrupted. X is G B, from apply([G; K], B, m).
    """
    A, B = as_array(rows, ctx), as_array(rhs, ctx)
    n, m = A.shape[:2]
    (G,), (K,), (ok,) = decompose(A[None], ctx)
    if not ok:
        raise SingularSystem("fewer equations than unknowns" if n < m
                             else "coefficient matrix is rank deficient")
    return apply(np.concatenate([G, K]), B, m, ctx)


def apply(T: np.ndarray, rhs: np.ndarray, targets: int, ctx: FieldCtx) -> np.ndarray:
    """T rhs's first targets rows; any nonzero spare row past them raises InconsistentResponses."""
    out = matmul(T, rhs, ctx)
    if np.count_nonzero(out[targets:]):
        raise InconsistentResponses(f"{len(T) - targets} spare equations disagree with the "
                                    f"{T.shape[1] - len(T) + targets} unknowns")
    return out[:targets]


def decompose(tables: np.ndarray, ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left inverses G, left kernels K and full-rank flags ok of a (batch, n, m, r) stack V.

    _eliminate reduces each [V | I_n] to [P; 0 | E] with P diagonal, and one
    batched _inverses call normalises the pivot rows. G = P^-1 E[:m] is the
    Gauss-Jordan left inverse (G V = I); K = E[m:] stays unnormalised (K V
    = 0, its n - m rows spanning {y : y^T V = 0}). Where ok is False, G and
    K are garbage; nothing raises.
    """
    batch, n, m = tables.shape[:3]
    M = np.concatenate([tables, np.zeros((batch, n, n, ctx.r), dtype=np.int64)], axis=2)
    M[:, :, m:, 0] = np.eye(n, dtype=M.dtype)
    ok = _eliminate(M, m, ctx) == m
    i = np.arange(min(n, m))
    inv = _inverses(M[:, i, i].reshape(-1, ctx.r), ctx).reshape(batch, len(i), 1, ctx.r)
    return mul(M[:, :m, m:], inv, ctx), M[:, m:, m:], ok


def rank(rows, ctx: FieldCtx) -> int:
    """Rank of an arbitrary (possibly non-square) matrix: _eliminate's count for a batch of one."""
    A = as_array(rows, ctx)[None] % ctx.p
    return int(_eliminate(A, A.shape[2], ctx, full=False)[0])


def powers(points: np.ndarray, exponents, ctx: FieldCtx) -> np.ndarray:
    """points[i]^exponents[j] for an (n, r) residue array; shape (n, k, r).

    One right-to-left square-and-multiply ladder serves every exponent: the
    base is squared once per bit, and each power whose bit is set takes it.
    A negative exponent raises BadSpec.
    """
    exps = [int(e) for e in exponents]
    if min(exps, default=0) < 0:
        raise BadSpec(f"exponents must be nonnegative, got {min(exps)}")
    out = np.zeros((len(points), len(exps), ctx.r), dtype=points.dtype)
    out[..., 0] = 1
    base = points
    for bit in range(max(exps, default=0).bit_length()):
        if bit:
            base = mul(base, base, ctx)
        have = [j for j, e in enumerate(exps) if e >> bit & 1]
        out[:, have] = mul(out[:, have], base[:, None], ctx)
    return out


def batch_is_invertible(mats: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Full column rank (for square matrices, invertibility) of a (batch, n, m, r) stack."""
    return _eliminate(mats % ctx.p, mats.shape[2], ctx, full=False) == mats.shape[2]
