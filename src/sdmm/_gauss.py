"""Exact array arithmetic and Gaussian elimination over finite fields.

A matrix over GF(p^r) is an ndarray of canonical residues with shape
(rows, cols, r): the trailing axis holds the little-endian coefficients of
each entry. The dtype is int64 for p < 2^31, where every product of two
residues stays below 2^62, and object (Python ints) for wider primes. A
product of two entries convolves their 2r-1 coefficient planes and folds
the high planes back with FieldCtx._xpow, reducing mod p after each step,
so int64 arithmetic never overflows. Matrix products split the right
operand into 16-bit limbs and the inner dimension into chunks of 2^16
(the delayed-reduction idea of FFLAS-FFPACK), which keeps every int64 dot
product below 2^63 before it is reduced.

ranks, a batched division-free forward elimination, answers every rank
question. _eliminate, the only Gauss-Jordan loop, eliminates a batch of
matrices at once and serves solve, decompose, the decoder's
per-survivor-set systems and, through the pivot hits it returns, the cost
model in matpoly (nothing here counts); its boxed pivot inverses are the
only field inversions here.
"""

from __future__ import annotations

import numpy as np

from .errors import BadSpec, InconsistentResponses, ShapeMismatch, SingularSystem
from .fields import FieldCtx, FieldElement

_CHUNK = 1 << 16


def dtype(ctx: FieldCtx):
    return np.int64 if ctx.p < (1 << 31) else object


def as_array(data, ctx: FieldCtx) -> np.ndarray:
    """Residue array of a matrix.

    data is either a residue array of shape (rows, cols, r), returned as is
    when its dtype fits, or nested rows whose entries are ints,
    FieldElements or coefficient sequences. Another array shape or a foreign
    entry raises ShapeMismatch; array residues must already lie in [0, p).
    """
    if isinstance(data, np.ndarray):
        if data.ndim != 3 or data.shape[2] != ctx.r:
            raise ShapeMismatch(f"residue array of shape {data.shape} is not (rows, cols, {ctx.r})")
        return np.asarray(data, dtype=dtype(ctx))
    rows = [list(row) for row in data]
    cols = len(rows[0]) if rows else 0
    if any(len(row) != cols for row in rows):
        raise ShapeMismatch("ragged rows")
    flat = [ctx.element(v).coeffs for row in rows for v in row]
    return np.array(flat, dtype=dtype(ctx)).reshape(len(rows), cols, ctx.r)


def _convolve(a, b, ctx: FieldCtx, prod) -> np.ndarray:
    """Field product from coefficient planes; prod multiplies two planes mod p.

    Plane d of the product sums the plane products a_i * b_(d-i); the
    planes from r up are then folded back below degree r.
    """
    p, r = ctx.p, ctx.r
    planes = []
    for d in range(2 * r - 1):
        lo, hi = max(0, d - r + 1), min(d, r - 1)
        plane = prod(a[..., lo], b[..., d - lo])
        for i in range(lo + 1, hi + 1):
            plane = (plane + prod(a[..., i], b[..., d - i])) % p
        planes.append(plane)
    out = np.concatenate([plane[..., None] for plane in planes[:r]], axis=-1)
    for high, xpow in zip(planes[r:], ctx._xpow):
        out = (out + high[..., None] * np.array(xpow, dtype=out.dtype)) % p
    return out


def mul(a: np.ndarray, b: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Entry-wise field product of two broadcastable residue arrays."""
    if ctx.r == 1:
        return a * b % ctx.p
    return _convolve(a, b, ctx, lambda x, y: x * y % ctx.p)


def _dot(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p for 2-D residue arrays, exact for either dtype."""
    if a.dtype == object:
        return a.dot(b) % p
    if (p - 1) ** 2 * a.shape[1] < 1 << 63:  # no dot product can overflow
        return a @ b % p
    lo, hi = b & 0xFFFF, b >> 16
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for s in range(0, a.shape[1], _CHUNK):
        a_s = a[:, s:s + _CHUNK]
        out = (out + a_s @ lo[s:s + _CHUNK] % p
               + (a_s @ hi[s:s + _CHUNK] % p << 16)) % p
    return out


def matmul(a: np.ndarray, b: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Matrix product of residue arrays of shapes (n, s, r) and (s, m, r)."""
    if ctx.r == 1:
        return _dot(a[..., 0], b[..., 0], ctx.p)[..., None]
    return _convolve(a, b, ctx, lambda x, y: _dot(x, y, ctx.p))


def _inverses(pivots: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Inverses of a (batch, r) residue array, one entry at a time in Python; 0 maps to 0."""
    if ctx.r == 1:
        inv = [pow(v, -1, ctx.p) if v else 0 for v in pivots[:, 0].tolist()]
        return np.array(inv, dtype=pivots.dtype)[:, None]
    return np.array([FieldElement(c, ctx).inv().coeffs if any(c) else c
                     for c in map(tuple, pivots.tolist())], dtype=pivots.dtype)


def _eliminate(M: np.ndarray, m: int, ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan elimination in place of a (batch, rows, cols, r) stack over its first m columns.

    In each matrix, each pivot, the first nonzero row at or below the
    diagonal, is normalised and clears its column in every other row.
    Returns which matrices have full column rank on those m columns (one
    that misses a pivot is left partly reduced) and each one's pivot hits:
    the nonzero rows of every column it reduced before its first pivotless
    one. The pivot rows, and so the hits, depend on the first m columns
    alone. Fewer rows than m raises SingularSystem.
    """
    batch, rows = M.shape[:2]
    if rows < m:
        raise SingularSystem("fewer equations than unknowns")
    ok = np.ones(batch, dtype=bool)
    hits = np.zeros(batch, dtype=np.intp)
    for col in range(m):
        hit = M[:, :, col].any(axis=-1)
        below = hit[:, col:]
        piv = col + below.argmax(axis=1)
        has = below.any(axis=1)
        if not has.all():
            ok &= has
            if not ok.any():
                break
        hits += hit.sum(axis=1) * ok
        if (piv != col).any():
            swap = np.flatnonzero(piv != col)
            M[swap, col], M[swap, piv[swap]] = M[swap, piv[swap]], M[swap, col]
        M[:, col] = mul(M[:, col], _inverses(M[:, col, col], ctx)[:, None], ctx)
        factor = M[:, :, col, None].copy()
        factor[:, col] = 0
        M -= mul(factor, M[:, None, col], ctx)
        M %= ctx.p
    return ok, hits


def _eliminate_one(M: np.ndarray, m: int, ctx: FieldCtx) -> None:
    """_eliminate of one (rows, cols, r) matrix in place; SingularSystem without full column rank."""
    if not _eliminate(M[None], m, ctx)[0][0]:
        raise SingularSystem("coefficient matrix is rank deficient")


def solve(rows, rhs, ctx: FieldCtx) -> np.ndarray:
    """Solve A X = B exactly; B has one or more columns.

    A and B are matrices in any form as_array accepts; X is returned as a
    residue array. A may have more rows than columns; it must have full
    column rank (else SingularSystem), and the equations beyond the
    pivots must then be consistent, else InconsistentResponses: genuine
    evaluations of one polynomial always are, so an inconsistency means
    some right-hand side was corrupted. [A | B] is reduced by _eliminate.
    """
    A, B = as_array(rows, ctx), as_array(rhs, ctx)
    n, m = A.shape[:2]
    M = np.concatenate([A, B], axis=1)
    _eliminate_one(M, m, ctx)
    if (M[m:] != 0).any():
        raise InconsistentResponses(
            f"{n - m} spare equations disagree with the {m} unknowns")
    return M[:m, m:]


def decompose(table: np.ndarray, ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray]:
    """Rows G (m, n, r) of a left inverse and K (n - m, n, r) of the left kernel of V.

    Eliminating [V | I_n] for an (n, m, r) V leaves E V = [I_m; 0], so
    G V = I, K V = 0, and the rows of K span {y : y^T V = 0}. A V without
    full column rank raises SingularSystem.
    """
    n, m = table.shape[:2]
    eye = np.eye(n, dtype=dtype(ctx))[..., None] * (np.arange(ctx.r) == 0)
    M = np.concatenate([as_array(table, ctx), eye], axis=1)
    _eliminate_one(M, m, ctx)
    return M[:m, m:], M[m:, m:]


def left_kernel(table: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Rows K, shape (n - m, n, r), spanning {y : y^T V = 0} (see decompose)."""
    return decompose(table, ctx)[1]


def rank(rows, ctx: FieldCtx) -> int:
    """Rank of an arbitrary (possibly non-square) matrix."""
    return int(ranks(as_array(rows, ctx)[None], ctx)[0])


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


def ranks(stack: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Pivot counts of every matrix in a (batch, n, m, r) residue stack.

    Forward elimination of all matrices at once, division-free as in
    Bareiss: each row below the pivot row becomes pivot * row - lead *
    pivot_row. The pivot row moves down at a column where some matrix has
    a pivot; a matrix without one counts none (its zero pivot clears its
    rows below), and the others keep their rank. So the count is exact for
    a single matrix and equals m in any batch exactly at full column rank.
    """
    p = ctx.p
    M = stack % p
    batch, n, m = M.shape[:3]
    count = np.zeros(batch, dtype=np.intp)
    idx = np.arange(batch)
    row = 0
    for col in range(m):
        if row == n:
            break
        nz = (M[:, row:, col] != 0).any(axis=-1)
        hit = nz.any(axis=1)
        if not hit.any():
            continue
        count += hit
        piv_row = row + nz.argmax(axis=1)
        M[idx, row, col:], M[idx, piv_row, col:] = M[idx, piv_row, col:], M[idx, row, col:]
        block = M[:, row + 1:, col + 1:]
        block[...] = (mul(M[:, row, None, None, col], block, ctx)
                      - mul(M[:, row + 1:, col, None], M[:, row, None, col + 1:], ctx))
        # entries now lie in (-p, p); a negative one shifts to -1, adding p
        block += block >> p.bit_length() & p
        row += 1
    return count


def batch_is_invertible(mats: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Full column rank (for square matrices, invertibility) of a (batch, n, m, r) stack."""
    return ranks(mats, ctx) == mats.shape[2]
