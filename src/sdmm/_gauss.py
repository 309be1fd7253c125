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
"""

from __future__ import annotations

import numpy as np

from .errors import InconsistentResponses, ShapeMismatch, SingularSystem
from .fields import FieldCtx, FieldElement

_CHUNK = 1 << 16


def dtype(ctx: FieldCtx):
    return np.int64 if ctx.p < (1 << 31) else object


def as_array(data, ctx: FieldCtx) -> np.ndarray:
    """Residue array of a matrix.

    data is either a residue array of shape (rows, cols, r), returned as is
    when its dtype fits, or nested rows whose entries are ints,
    FieldElements or coefficient sequences.
    """
    if isinstance(data, np.ndarray):
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
    return _convolve(a, b, ctx, lambda x, y: x * y % ctx.p)


def _dot(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p for 2-D residue arrays, exact for either dtype."""
    if a.dtype == object:
        return a.dot(b) % p
    lo, hi = b & 0xFFFF, b >> 16
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for s in range(0, a.shape[1], _CHUNK):
        a_s = a[:, s:s + _CHUNK]
        out = (out + a_s @ lo[s:s + _CHUNK] % p
               + (a_s @ hi[s:s + _CHUNK] % p << 16)) % p
    return out


def matmul(a: np.ndarray, b: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Matrix product of residue arrays of shapes (n, s, r) and (s, m, r)."""
    return _convolve(a, b, ctx, lambda x, y: _dot(x, y, ctx.p))


def _pivots(M: np.ndarray, ncols: int, ctx: FieldCtx, counter=None):
    """Gauss-Jordan elimination of M in place over its first ncols columns.

    Yields, column by column, whether the column received a pivot: the
    first nonzero row at or below the current pivot row. The pivot row is
    normalised and then cleared from every other row. With a counter, each
    normalisation and each eliminated nonzero row costs the row width in
    field multiplications.
    """
    n, width = M.shape[:2]
    row = 0
    for col in range(ncols):
        if row == n:
            return
        hit = (M[:, col] != 0).any(axis=-1)
        below = np.flatnonzero(hit[row:])
        if below.size == 0:
            yield False
            continue
        piv = row + int(below[0])
        if piv != row:
            M[[row, piv]] = M[[piv, row]]
            hit[piv] = hit[row]
        hit[row] = False
        inv = FieldElement(tuple(M[row, col].tolist()), ctx).inv()
        M[row] = mul(M[row], np.array(inv.coeffs, dtype=M.dtype), ctx)
        if counter is not None:
            counter.add(width * (1 + int(hit.sum())))
        M[hit] = (M[hit] - mul(M[hit, col][:, None], M[row], ctx)) % ctx.p
        row += 1
        yield True


def solve(rows, rhs, ctx: FieldCtx, counter=None) -> np.ndarray:
    """Solve A X = B exactly; B has one or more columns.

    A and B are matrices in any form as_array accepts; X is returned as a
    residue array. A may have more rows than columns; it must have full
    column rank (else SingularSystem), and the equations beyond the
    pivots must then be consistent, else InconsistentResponses: genuine
    evaluations of one polynomial always are, so an inconsistency means
    some right-hand side was corrupted.
    """
    A, B = as_array(rows, ctx), as_array(rhs, ctx)
    n, m = A.shape[:2]
    if n < m:
        raise SingularSystem("fewer equations than unknowns")
    M = np.concatenate([A, B], axis=1)
    # all() stops at the first column without a pivot, so a singular
    # system is counted up to that column, as entry-wise elimination does
    if not all(_pivots(M, m, ctx, counter)):
        raise SingularSystem("coefficient matrix is rank deficient")
    if (M[m:] != 0).any():
        raise InconsistentResponses(
            f"{n - m} spare equations disagree with the {m} unknowns")
    return M[:m, m:]


def rank(rows, ctx: FieldCtx) -> int:
    """Rank of an arbitrary (possibly non-square) matrix."""
    M = np.array(as_array(rows, ctx))
    return sum(_pivots(M, M.shape[1], ctx))


def is_invertible(rows, ctx: FieldCtx) -> bool:
    """True iff the square matrix has a nonzero determinant."""
    return rank(rows, ctx) == len(rows)


def batch_is_invertible(mats: np.ndarray, p: int) -> np.ndarray:
    """Vectorized invertibility test for a stack of square int64 matrices.

    mats has shape (batch, n, n) with entries already reduced mod p; returns
    a boolean array of length batch. Only valid for p < 2^31.
    """
    M = mats % p
    batch, n, _ = M.shape
    alive = np.ones(batch, dtype=bool)
    idx = np.arange(batch)
    for col in range(n):
        nz = M[:, col:, col] != 0
        alive &= nz.any(axis=1)
        if not alive.any():
            return alive
        piv_row = col + nz.argmax(axis=1)
        tmp = M[idx, piv_row].copy()
        M[idx, piv_row] = M[idx, col]
        M[idx, col] = tmp
        # division-free update: row_i <- piv*row_i - lead_i*row_piv keeps
        # invertibility and, with p < 2^31, all products below 2^62
        piv = M[:, col, col]
        below = M[:, col + 1:, col]
        M[:, col + 1:] = (piv[:, None, None] * M[:, col + 1:]
                          - below[:, :, None] * M[:, col][:, None, :]) % p
    return alive
