"""Matrices over finite fields and polynomials with matrix coefficients.

A BlockMatrix is an immutable dense matrix stored as one read-only array of
canonical residues, so its arithmetic runs on whole arrays through the
exact engine in _gauss; FieldElements appear only when single entries are
read. Results are bit-for-bit those of entry-wise field arithmetic, and a
MultCounter still records the scalar multiplications each operation
stands for. A MatPoly maps exponents to BlockMatrix coefficients, all of
one shape, and is kept canonical: no zero coefficient is ever stored, so
the term keys are exactly the support. Evaluation offers both a naive
power-sum and a gap-aware Horner scheme whose multiplication count the
caller can audit through a MultCounter.
"""

from __future__ import annotations

import json
import random
from typing import Iterable, Mapping, Optional

import numpy as np

from . import _gauss
from .errors import BadSpec, NotPrimitiveRoot, ShapeMismatch, SingularSystem
from .fields import (
    FieldCtx,
    FieldElement,
    MultCounter,
    is_primitive_root_of_unity,
    parse_field_spec,
)


class BlockMatrix:
    """Immutable dense matrix over a single field context.

    The entries live in one read-only residue array of shape
    (rows, cols, r), the layout described in _gauss; FieldElements are made
    only when a caller reads entries through [i, j] or .data. data is
    nested rows of entries, or a residue array, which is adopted without a
    copy and made read-only.
    """

    __slots__ = ("rows", "cols", "ctx", "array")

    def __init__(self, data, ctx: FieldCtx):
        self.array = _gauss.as_array(data, ctx)
        self.array.flags.writeable = False
        self.rows, self.cols = self.array.shape[:2]
        self.ctx = ctx

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, rows: int, cols: int, ctx: FieldCtx) -> "BlockMatrix":
        return cls(np.zeros((rows, cols, ctx.r), dtype=_gauss.dtype(ctx)), ctx)

    @classmethod
    def random(cls, rows: int, cols: int, ctx: FieldCtx, rng: random.Random) -> "BlockMatrix":
        """Uniform entries, drawn as ctx.random_element draws them."""
        idx = np.array([rng.randrange(ctx.order) for _ in range(rows * cols)], dtype=object)
        place = np.array([ctx.p ** k for k in range(ctx.r)], dtype=object)
        digits = idx[:, None] // place % ctx.p
        return cls(digits.astype(_gauss.dtype(ctx)).reshape(rows, cols, ctx.r), ctx)

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
        return BlockMatrix((self.array + other.array) % self.ctx.p, self.ctx)

    def __sub__(self, other: "BlockMatrix") -> "BlockMatrix":
        self._check_same_shape(other)
        return BlockMatrix((self.array - other.array) % self.ctx.p, self.ctx)

    def scale(self, c: FieldElement, counter: Optional[MultCounter] = None) -> "BlockMatrix":
        """Scalar multiple; costs rows*cols field multiplications."""
        if counter is not None:
            counter.add(self.rows * self.cols)
        ctx = self.ctx
        coeffs = np.array(ctx.element(c).coeffs, dtype=self.array.dtype)
        return BlockMatrix(_gauss.mul(self.array, coeffs, ctx), ctx)

    def matmul(self, other: "BlockMatrix", counter: Optional[MultCounter] = None) -> "BlockMatrix":
        """Matrix product; costs rows*inner*cols field multiplications."""
        if self.cols != other.rows:
            raise ShapeMismatch(f"inner dimensions {self.cols} and {other.rows} differ")
        if self.ctx != other.ctx:
            raise ShapeMismatch("matrices over different fields")
        if counter is not None:
            counter.add(self.rows * self.cols * other.cols)
        return BlockMatrix(_gauss.matmul(self.array, other.array, self.ctx), self.ctx)

    def __matmul__(self, other: "BlockMatrix") -> "BlockMatrix":
        return self.matmul(other)

    # -- block helpers ------------------------------------------------------------

    def submatrix(self, row0: int, col0: int, rows: int, cols: int) -> "BlockMatrix":
        return BlockMatrix(self.array[row0:row0 + rows, col0:col0 + cols], self.ctx)

    @classmethod
    def assemble(cls, blocks, ctx: FieldCtx) -> "BlockMatrix":
        """Stitch a 2-D grid of equally shaped blocks into one matrix."""
        return cls(np.concatenate(
            [np.concatenate([blk.array for blk in row], axis=1) for row in blocks]), ctx)

    # -- serialization ------------------------------------------------------------

    def _entry_strs(self) -> list[list[str]]:
        # an entry is its comma-joined coefficients: a plain int when r = 1
        return [[",".join(map(str, e)) for e in row] for row in self.array.tolist()]

    def to_text(self) -> str:
        lines = [f"{self.rows} {self.cols} {self.ctx.spec_string()}"]
        lines.extend(" ".join(row) for row in self._entry_strs())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BlockMatrix":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise BadSpec("empty matrix text")
        head = lines[0].split()
        if len(head) != 3:
            raise BadSpec("matrix header must be 'rows cols fieldspec'")
        try:
            rows, cols = int(head[0]), int(head[1])
        except ValueError as exc:
            raise BadSpec("matrix header must be 'rows cols fieldspec'") from exc
        ctx = parse_field_spec(head[2])
        if len(lines) != rows + 1:
            raise BadSpec(f"expected {rows} matrix rows, got {len(lines) - 1}")
        data = []
        for ln in lines[1:]:
            entries = ln.split()
            if len(entries) != cols:
                raise BadSpec(f"expected {cols} entries per row, got {len(entries)}")
            data.append([_parse_entry(tok, ctx) for tok in entries])
        return cls(data, ctx)


def _parse_entry(tok: str, ctx: FieldCtx) -> FieldElement:
    try:
        if "," in tok:
            return ctx.element([int(c) for c in tok.split(",")])
        return ctx.element(int(tok))
    except ValueError as exc:
        raise BadSpec(f"cannot parse matrix entry {tok!r}") from exc


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
        return (isinstance(other, MatPoly) and self.terms == other.terms
                and (self.rows, self.cols) == (other.rows, other.cols))

    def __repr__(self) -> str:
        return (f"MatPoly({len(self.terms)} terms, blocks {self.rows}x{self.cols},"
                f" degree {self.degree()})")

    # -- ring operations -----------------------------------------------------------

    def __add__(self, other: "MatPoly") -> "MatPoly":
        if (self.rows, self.cols) != (other.rows, other.cols) or self.ctx != other.ctx:
            raise ShapeMismatch("polynomial shapes differ")
        terms = dict(self.terms)
        for e, coeff in other.terms.items():
            terms[e] = terms[e] + coeff if e in terms else coeff
        return MatPoly(terms, (self.rows, self.cols), self.ctx)

    def mul(self, other: "MatPoly", counter: Optional[MultCounter] = None) -> "MatPoly":
        """Exact convolution product; coefficients multiply as matrices."""
        if self.cols != other.rows:
            raise ShapeMismatch(f"inner dimensions {self.cols} and {other.rows} differ")
        if self.ctx != other.ctx:
            raise ShapeMismatch("polynomials over different fields")
        acc: dict[int, BlockMatrix] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                prod = c1.matmul(c2, counter)
                e = e1 + e2
                acc[e] = acc[e] + prod if e in acc else prod
        return MatPoly(acc, (self.rows, other.cols), self.ctx)

    def __mul__(self, other: "MatPoly") -> "MatPoly":
        return self.mul(other)

    # -- evaluation ---------------------------------------------------------------

    def evaluate_naive(self, x: FieldElement,
                       counter: Optional[MultCounter] = None) -> BlockMatrix:
        """Sum of coeff * x^e with every power computed independently."""
        acc = BlockMatrix.zero(self.rows, self.cols, self.ctx)
        for e, coeff in self.terms.items():
            acc = acc + coeff.scale(x.pow_(e, counter), counter)
        return acc

    def eval_sparse_horner(self, x: FieldElement,
                           counter: Optional[MultCounter] = None) -> BlockMatrix:
        """Horner evaluation over the support gaps.

        Writing the support as e_1 < ... < e_N, evaluates
        ((C_N x^(e_N - e_(N-1)) + C_(N-1)) x^(e_(N-1) - e_(N-2)) + ...) x^(e_1),
        so the work scales with the number of terms and the logs of the gaps
        rather than with the degree.
        """
        if not self.terms:
            return BlockMatrix.zero(self.rows, self.cols, self.ctx)
        exps = list(self.terms)
        acc = self.terms[exps[-1]]
        for n in range(len(exps) - 2, -1, -1):
            gap = exps[n + 1] - exps[n]
            acc = acc.scale(x.pow_(gap, counter), counter) + self.terms[exps[n]]
        if exps[0]:
            acc = acc.scale(x.pow_(exps[0], counter), counter)
        return acc

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> str:
        obj = {
            "field": self.ctx.spec_string(),
            "rows": self.rows,
            "cols": self.cols,
            "terms": {str(e): c._entry_strs() for e, c in self.terms.items()},
        }
        return json.dumps(obj, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MatPoly":
        try:
            obj = json.loads(text)
            ctx = parse_field_spec(obj["field"])
            shape = (int(obj["rows"]), int(obj["cols"]))
            terms = {}
            for e_str, rows in obj["terms"].items():
                data = [[_parse_entry(str(v), ctx) for v in row] for row in rows]
                terms[int(e_str)] = BlockMatrix(data, ctx)
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise BadSpec(f"cannot parse polynomial JSON: {exc}") from exc
        return cls(terms, shape, ctx)


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


def interpolate(points: Iterable[FieldElement], values: Iterable[BlockMatrix],
                exponents: Iterable[int], ctx: FieldCtx,
                counter: Optional[MultCounter] = None) -> MatPoly:
    """Recover the coefficients of a polynomial with known support.

    Solves sum_e C_e x_n^e = V_n entry-wise across the blocks. Needs at
    least as many evaluations as exponents; raises SingularSystem when the
    evaluation points do not determine the coefficients.
    """
    pts = list(points)
    vals = list(values)
    exps = sorted(set(int(e) for e in exponents))
    if len(pts) != len(vals):
        raise ShapeMismatch("points and values differ in length")
    if len(pts) < len(exps):
        raise SingularSystem("fewer evaluations than unknown coefficients")
    if not vals:
        raise ShapeMismatch("no evaluations supplied")
    shape = vals[0].shape
    if any(v.shape != shape for v in vals):
        raise ShapeMismatch("evaluation blocks differ in shape")
    vmat = np.array([[x.pow_(e, counter).coeffs for e in exps] for x in pts],
                    dtype=_gauss.dtype(ctx))
    rhs = np.stack([v.array.reshape(-1, ctx.r) for v in vals])
    sol = _gauss.solve(vmat, rhs, ctx, counter)
    terms = {e: BlockMatrix(row.reshape(shape + (ctx.r,)), ctx)
             for row, e in zip(sol, exps)}
    return MatPoly(terms, shape, ctx)
