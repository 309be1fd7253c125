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
question. _eliminate, the only Gauss-Jordan loop, serves solve and
left_kernel; its boxed pivot inverse is the only field inversion here.
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


def _eliminate(M: np.ndarray, m: int, ctx: FieldCtx, counter=None) -> None:
    """Gauss-Jordan elimination of M in place over its first m columns.

    Each pivot, the first nonzero row at or below the diagonal, is normalised
    and clears its column in every other row; a missing pivot raises
    SingularSystem. With a counter, each normalisation and each eliminated
    nonzero row costs the row width, up to the first pivotless column.
    """
    if M.shape[0] < m:
        raise SingularSystem("fewer equations than unknowns")
    width = M.shape[1]
    for col in range(m):
        hit = M[:, col].any(axis=-1)
        piv = col + int(hit[col:].argmax())
        if not hit[piv]:
            raise SingularSystem("coefficient matrix is rank deficient")
        if piv != col:
            M[[col, piv]] = M[[piv, col]]
        inv = FieldElement(tuple(M[col, col].tolist()), ctx).inv()
        M[col] = mul(M[col], np.array(inv.coeffs, dtype=M.dtype), ctx)
        if counter is not None:
            counter.add(width * int(hit.sum()))
        factor = M[:, col, None].copy()
        factor[col] = 0
        M -= mul(factor, M[col], ctx)
        M %= ctx.p


def solve(rows, rhs, ctx: FieldCtx, counter=None) -> np.ndarray:
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
    _eliminate(M, m, ctx, counter)
    if (M[m:] != 0).any():
        raise InconsistentResponses(
            f"{n - m} spare equations disagree with the {m} unknowns")
    return M[:m, m:]


def left_kernel(table: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Rows K, shape (n - m, n, r), spanning {y : y^T V = 0} for an (n, m, r) V.

    Eliminating [V | I_n] leaves E V = [I_m; 0], so the last n - m rows of E
    span it. A V without full column rank raises SingularSystem.
    """
    n, m = table.shape[:2]
    eye = np.eye(n, dtype=dtype(ctx))[..., None] * (np.arange(ctx.r) == 0)
    M = np.concatenate([as_array(table, ctx), eye], axis=1)
    _eliminate(M, m, ctx)
    return M[m:, m:]


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
