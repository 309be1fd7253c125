"""Matrices over finite fields and polynomials with matrix coefficients.

A BlockMatrix is an immutable dense matrix stored as one read-only array of
canonical residues, so its arithmetic runs on whole arrays through the
exact engine in _gauss; FieldElements appear only when single entries are
read. Results are bit-for-bit those of entry-wise field arithmetic. A
MatPoly maps exponents to BlockMatrix coefficients, all of one shape, and
is kept canonical: no zero coefficient is ever stored, so the term keys
are exactly the support. evaluate and interpolate run on one power table
of the points, and take either the points or that table ready-made, as a
plan caches it; evaluate_naive is the scalar power-sum reference. The
arrays count nothing; the cost model at the end prices the scalar work.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping

import numpy as np

from . import _gauss
from .errors import BadSpec, NotPrimitiveRoot, ShapeMismatch, SingularSystem
from .fields import (
    FieldCtx,
    FieldElement,
    is_primitive_root_of_unity,
)


class BlockMatrix:
    """Immutable dense matrix over a single field context.

    The entries live in one read-only residue array of shape
    (rows, cols, r), the layout described in _gauss; FieldElements are made
    only when a caller reads entries through [i, j] or .data. data is
    nested rows of entries, or a residue array of integers in [0, p), adopted
    without a copy and made read-only; library results skip the check (_view).
    """

    __slots__ = ("rows", "cols", "ctx", "array")

    def __init__(self, data, ctx: FieldCtx):
        self.array = _gauss.as_array(data, ctx)
        self.array.setflags(write=False)
        self.rows, self.cols = self.array.shape[:2]
        self.ctx = ctx

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _view(cls, array: np.ndarray, ctx: FieldCtx) -> "BlockMatrix":
        """A read-only BlockMatrix over a (rows, cols, r) array of canonical residues, unchecked."""
        if array.flags.writeable:  # a view of a read-only array already is
            array.setflags(write=False)
        out = cls.__new__(cls)
        out.array, out.ctx, (out.rows, out.cols) = array, ctx, array.shape[:2]
        return out

    @classmethod
    def zero(cls, rows: int, cols: int, ctx: FieldCtx) -> "BlockMatrix":
        return cls._view(np.zeros((rows, cols, ctx.r), dtype=np.int64), ctx)

    @classmethod
    def random(cls, rows: int, cols: int, ctx: FieldCtx, rng: random.Random) -> "BlockMatrix":
        """Uniform entries: the base-p digits of rng.randrange(ctx.order), value for value.

        Above 2^63 each entry is one randrange call. Below, randrange(n) redraws
        getrandbits(k), k = n.bit_length(), until it is below n; getrandbits(k) reads
        ceil(k / 32) = w 32-bit words, the last shifted right by 32w - k. Each round reads
        every draw still needed in one getrandbits(32 w need) and keeps those below n, in order.
        """
        n, k = ctx.order, ctx.order.bit_length()
        if k > 63:
            idx = np.array([rng.randrange(n) for _ in range(rows * cols)], dtype=object)
        else:
            w, idx = -(-k // 32), np.zeros(0, np.uint64)
            while len(idx) < rows * cols:
                need = rows * cols - len(idx)
                raw = rng.getrandbits(32 * w * need).to_bytes(4 * w * need, "little")
                words = np.frombuffer(raw, dtype="<u4").reshape(need, w).astype(np.uint64)
                words[:, -1] >>= 32 * w - k
                vals = sum(words[:, i] << 32 * i for i in range(w))
                idx = np.concatenate([idx, vals[vals < n]])
        if ctx.r > 1:
            idx = idx[:, None] // np.array([ctx.p ** j for j in range(ctx.r)], idx.dtype) % ctx.p
        return cls._view(idx.astype(np.int64).reshape(rows, cols, ctx.r), ctx)

    # -- shape and identity ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def data(self) -> tuple[tuple[FieldElement, ...], ...]:
        """The entries as rows of FieldElements."""
        return tuple(tuple(FieldElement(tuple(c), self.ctx) for c in row)
                     for row in self.array.tolist())

    def is_zero(self) -> bool:
        return not self.array.any()

    def __eq__(self, other) -> bool:
        return (isinstance(other, BlockMatrix) and self.shape == other.shape
                and self.ctx == other.ctx and np.array_equal(self.array, other.array))

    def __hash__(self) -> int:
        return hash((self.shape, tuple(self.array.ravel().tolist())))

    def __getitem__(self, ij) -> FieldElement:
        i, j = ij
        return FieldElement(tuple(self.array[i, j].tolist()), self.ctx)

    def __repr__(self) -> str:
        return f"BlockMatrix({self.rows}x{self.cols} over {self.ctx!r})"

    # -- arithmetic --------------------------------------------------------------

    def _check_same_shape(self, other: "BlockMatrix") -> None:
        if self.shape != other.shape:
            raise ShapeMismatch(f"shapes {self.shape} and {other.shape} differ")
        if self.ctx != other.ctx:
            raise ShapeMismatch("matrices over different fields")

    def __add__(self, other: "BlockMatrix") -> "BlockMatrix":
        self._check_same_shape(other)
        return BlockMatrix._view((self.array + other.array) % self.ctx.p, self.ctx)

    def __sub__(self, other: "BlockMatrix") -> "BlockMatrix":
        self._check_same_shape(other)
        return BlockMatrix._view((self.array - other.array) % self.ctx.p, self.ctx)

    def scale(self, c: FieldElement) -> "BlockMatrix":
        """Scalar multiple."""
        ctx = self.ctx
        coeffs = np.array(ctx.element(c).coeffs, dtype=self.array.dtype)
        return BlockMatrix._view(_gauss.mul(self.array, coeffs, ctx), ctx)

    def matmul(self, other: "BlockMatrix") -> "BlockMatrix":
        """Matrix product, standing for rows*inner*cols field multiplications."""
        if self.cols != other.rows:
            raise ShapeMismatch(f"inner dimensions {self.cols} and {other.rows} differ")
        if self.ctx != other.ctx:
            raise ShapeMismatch("matrices over different fields")
        return BlockMatrix._view(_gauss.matmul(self.array, other.array, self.ctx), self.ctx)

    def __matmul__(self, other: "BlockMatrix") -> "BlockMatrix":
        return self.matmul(other)

    # -- block helpers ------------------------------------------------------------

    def submatrix(self, row0: int, col0: int, rows: int, cols: int) -> "BlockMatrix":
        return BlockMatrix._view(self.array[row0:row0 + rows, col0:col0 + cols], self.ctx)

    @classmethod
    def assemble(cls, blocks, ctx: FieldCtx) -> "BlockMatrix":
        """Stitch a 2-D grid of equally shaped blocks into one matrix."""
        return cls._view(np.concatenate(
            [np.concatenate([blk.array for blk in row], axis=1) for row in blocks]), ctx)

    # -- serialization ------------------------------------------------------------

    def to_text(self) -> str:
        # an entry is its comma-joined coefficients: a plain int when r = 1
        if self.ctx.r == 1:
            rows = (" ".join(map(str, row)) for row in self.array[..., 0].tolist())
        else:
            rows = (" ".join(",".join(map(str, e)) for e in row) for row in self.array.tolist())
        return "\n".join([f"{self.rows} {self.cols} {self.ctx.spec_string()}", *rows]) + "\n"


class MatPoly:
    """Polynomial in one variable with BlockMatrix coefficients.

    Stored as {exponent: coefficient} with zero coefficients dropped, so
    support() is exactly the stored keys.
    """

    __slots__ = ("terms", "rows", "cols", "ctx")

    def __init__(self, terms: Mapping[int, BlockMatrix], shape: tuple[int, int],
                 ctx: FieldCtx):
        self.rows, self.cols = shape
        self.ctx = ctx
        clean = {}
        for e, coeff in terms.items():
            if coeff.shape != shape or coeff.ctx != ctx:
                raise ShapeMismatch("all coefficients must share one shape and field")
            if e < 0:
                raise BadSpec("exponents must be nonnegative")
            if not coeff.is_zero():
                clean[int(e)] = coeff
        self.terms = dict(sorted(clean.items()))

    # -- shape and support ------------------------------------------------------

    def support(self) -> tuple[int, ...]:
        return tuple(self.terms)

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max(self.terms) if self.terms else -1

    def coeff(self, e: int) -> BlockMatrix:
        """Coefficient at exponent e; the zero block outside the support."""
        blk = self.terms.get(int(e))
        if blk is None:
            return BlockMatrix.zero(self.rows, self.cols, self.ctx)
        return blk

    def __eq__(self, other) -> bool:
        return (isinstance(other, MatPoly) and self.ctx == other.ctx
                and self.terms == other.terms
                and (self.rows, self.cols) == (other.rows, other.cols))

    def __repr__(self) -> str:
        return (f"MatPoly({len(self.terms)} terms, blocks {self.rows}x{self.cols},"
                f" degree {self.degree()})")

    # -- ring operations -----------------------------------------------------------

    def mul(self, other: "MatPoly") -> "MatPoly":
        """Exact convolution product; coefficients multiply as matrices."""
        if self.cols != other.rows:
            raise ShapeMismatch(f"inner dimensions {self.cols} and {other.rows} differ")
        if self.ctx != other.ctx:
            raise ShapeMismatch("polynomials over different fields")
        acc: dict[int, BlockMatrix] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                prod = c1.matmul(c2)
                e = e1 + e2
                acc[e] = acc[e] + prod if e in acc else prod
        return MatPoly(acc, (self.rows, other.cols), self.ctx)

    # -- evaluation ---------------------------------------------------------------

    def evaluate_naive(self, x: FieldElement) -> BlockMatrix:
        """Sum of coeff * x^e with every power computed independently."""
        acc = BlockMatrix.zero(self.rows, self.cols, self.ctx)
        for e, coeff in self.terms.items():
            acc = acc + coeff.scale(x.pow_(e))
        return acc

    def eval_sparse_horner(self, x: FieldElement) -> BlockMatrix:
        """The value at x, priced by the cost model as sparse Horner spends it (horner_cost)."""
        return BlockMatrix._view(evaluate(self, [x])[0], self.ctx)


def mod_m_transform(h: MatPoly, zeta: FieldElement, M: int) -> MatPoly:
    """Keep exactly the terms of h whose exponent is M-1 modulo M.

    This equals averaging h over the order-M subgroup generated by zeta
    (see mod_m_transform_by_summation); zeta must be a primitive M-th root
    of unity for that interpretation to hold, and is validated here.
    """
    if not is_primitive_root_of_unity(zeta, M):
        raise NotPrimitiveRoot(f"{zeta!r} is not a primitive {M}-th root of unity")
    kept = {e: c for e, c in h.terms.items() if (e + 1) % M == 0}
    return MatPoly(kept, (h.rows, h.cols), h.ctx)


def mod_m_transform_by_summation(h: MatPoly, zeta: FieldElement, M: int) -> MatPoly:
    """Compute (1/M) * sum_m zeta^m h(zeta^m x) coefficient by coefficient.

    Independent of mod_m_transform: each term C x^e picks up the factor
    (1/M) * sum_m zeta^(m(e+1)), evaluated here as an explicit field sum.
    Used to cross-check the support-filtering implementation.
    """
    if not is_primitive_root_of_unity(zeta, M):
        raise NotPrimitiveRoot(f"{zeta!r} is not a primitive {M}-th root of unity")
    ctx = h.ctx
    inv_m = ctx.element(M).inv()
    out = {}
    for e, coeff in h.terms.items():
        factor = ctx.zero()
        for m in range(M):
            factor = factor + zeta.pow_(m * (e + 1))
        out[e] = coeff.scale(inv_m * factor)
    return MatPoly(out, (h.rows, h.cols), ctx)


def stack_blocks(blocks: list[BlockMatrix], ctx: FieldCtx) -> np.ndarray:
    """Residue arrays of BlockMatrix blocks of one shape over ctx, stacked on a new axis 0."""
    shape = getattr(blocks[0], "shape", None)
    if not all(isinstance(b, BlockMatrix) for b in blocks):
        raise ShapeMismatch("evaluations must be BlockMatrix values")
    if any(b.shape != shape for b in blocks):
        raise ShapeMismatch("evaluation blocks differ in shape")
    if any(b.ctx != ctx for b in blocks):
        raise ShapeMismatch(f"evaluation blocks not over {ctx.spec_string()}")
    return np.array([b.array for b in blocks], dtype=blocks[0].array.dtype)


def _power_table(points, exponents, ctx: FieldCtx) -> np.ndarray:
    """The (points, |exponents|, r) power table of FieldElements, or a ready one, shape-checked."""
    if not isinstance(points, np.ndarray):
        return _gauss.powers(_gauss.as_array([list(points)], ctx)[0], exponents, ctx)
    if points.ndim != 3 or points.shape[1:] != (len(exponents), ctx.r):
        raise ShapeMismatch(f"table {points.shape} is not (points, {len(exponents)}, {ctx.r})")
    return points


def evaluate(poly: MatPoly, points) -> np.ndarray:
    """poly at every point, as a (points, rows, cols, r) residue stack.

    points are FieldElements or their power table on poly.support(), as
    encode slices plan.power_table; the table times the coefficients gives it.
    """
    ctx, n = poly.ctx, len(poly.terms)
    table = _power_table(points, poly.support(), ctx)
    coeffs = np.array([c.array for c in poly.terms.values()], dtype=np.int64)
    values = _gauss.matmul(table, coeffs.reshape(n, poly.rows * poly.cols, ctx.r), ctx)
    return values.reshape(len(table), poly.rows, poly.cols, ctx.r)


def interpolate(points, values, exponents: Iterable[int], ctx: FieldCtx, *, solver=None):
    """Recover the coefficients of a polynomial with known support.

    Solves sum_e C_e x_n^e = V_n entry-wise across blocks of one shape over
    ctx, given as blocks or as their residue stack (n, rows, cols, r);
    values of another shape or field raise ShapeMismatch. points are
    FieldElements or their power table on the sorted distinct exponents
    (_power_table), as decode passes a plan's rows. Needs at least as many
    evaluations as exponents; raises SingularSystem when the points do not
    determine the coefficients, and InconsistentResponses when the
    evaluations beyond the unknowns disagree with them.
    Without a solver, _gauss.solve finds every coefficient and the whole
    MatPoly is returned. A solver maps the (n, rows*cols, r) value stack to
    the rows of the coefficients its caller wants, as decode's operators
    do, through the same spare-equation check (_gauss.apply), raising as
    above; interpolate returns those rows as a (k, rows, cols, r) stack.
    It counts nothing: interpolate_cost prices it per point.
    """
    # a solver's operator fixes the order of the coefficients, so it needs only their count
    exps = set(exponents) if solver is not None else sorted(set(map(int, exponents)))
    table = _power_table(points, exps, ctx)
    vals = values if isinstance(values, np.ndarray) else list(values)
    if len(table) != len(vals):
        raise ShapeMismatch("points and values differ in length")
    if len(table) < len(exps):
        raise SingularSystem("fewer evaluations than unknown coefficients")
    if not len(vals):
        raise ShapeMismatch("no evaluations supplied")
    rhs = vals if isinstance(vals, np.ndarray) else stack_blocks(vals, ctx)
    if rhs.ndim != 4 or rhs.shape[3] != ctx.r:
        raise ShapeMismatch(f"value stack of shape {rhs.shape} is not (n, rows, cols, {ctx.r})")
    flat = rhs.reshape(len(vals), -1, ctx.r)
    if solver is not None:
        sol = solver(flat)
        return sol.reshape((len(sol),) + rhs.shape[1:])
    sol = _gauss.solve(table, flat, ctx).reshape((len(exps),) + rhs.shape[1:])
    return MatPoly({e: BlockMatrix._view(c, ctx) for e, c in zip(exps, sol)}, rhs.shape[1:3], ctx)


# -- the cost model ------------------------------------------------------------------


def _ladder(e: int) -> int:
    """Multiplications FieldElement.pow_ spends on x^e."""
    return e.bit_length() + e.bit_count() - 2 if e else 0


def horner_cost(exponents: Iterable[int], size: int) -> int:
    """Multiplications sparse Horner spends at one point: a ladder and size scalings per gap."""
    exps = sorted(exponents)
    return sum(_ladder(b - a) + size for a, b in zip([0] + exps, exps) if b > a)


def gauss_jordan_cost(rows: int, unknowns: int, width: int) -> int:
    """Multiplications dense Gauss-Jordan spends on [table | values]: width per row per unknown."""
    return rows * unknowns * width


def interpolate_cost(exponents: Iterable[int], size: int) -> int:
    """Multiplications interpolation spends per point: pow_ ladders, a row of gauss_jordan_cost."""
    exps = list(exponents)
    return sum(map(_ladder, exps)) + gauss_jordan_cost(1, len(exps), len(exps) + size)
