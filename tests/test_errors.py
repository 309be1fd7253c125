"""Rejections: each input below reaches one raise site of the library.

One case per raise site, asserting the library's own exception type (and,
for an exhausted plan search, the gate that stopped it), so that a changed
check cannot start raising something else, or nothing, unnoticed.
"""

import pytest

from sdmm.errors import (
    BadSpec,
    BudgetExhausted,
    DegreeZero,
    NoSuchRoot,
    NoSuchSubgroup,
    NotPrimitiveRoot,
    ShapeMismatch,
    ZeroEvaluationPoint,
)
from sdmm.fields import make_field, primitive_root_of_unity, subgroup_elements
from sdmm.linalg import EvaluationPlan, find_evaluation_vector, security_matrices
from sdmm.matpoly import (
    BlockMatrix,
    MatPoly,
    interpolate,
    mod_m_transform,
    mod_m_transform_by_summation,
)
from sdmm.schemes import SchemeParams, parse_scheme_spec, partition
from sdmm.thresholds import threshold

F7, F13 = make_field(7), make_field(13)


def zero(rows, cols, ctx=F7):
    return BlockMatrix.zero(rows, cols, ctx)


CASES = {
    "degree-zero": (lambda: make_field(7, 0), DegreeZero),
    "prime-above-61-bits": (lambda: make_field((1 << 62) - 57), BadSpec),
    "root-of-order-zero": (lambda: primitive_root_of_unity(F7, 0), NoSuchRoot),
    "subgroup-of-order-zero": (lambda: subgroup_elements(F7, 0), NoSuchSubgroup),
    "add-across-shapes": (lambda: zero(1, 2) + zero(2, 1), ShapeMismatch),
    "add-across-fields": (lambda: zero(1, 1) + zero(1, 1, F13), ShapeMismatch),
    "sub-across-shapes": (lambda: zero(1, 2) - zero(2, 1), ShapeMismatch),
    "sub-across-fields": (lambda: zero(1, 1) - zero(1, 1, F13), ShapeMismatch),
    "matmul-across-fields": (lambda: zero(1, 1).matmul(zero(1, 1, F13)), ShapeMismatch),
    "matpoly-of-mixed-shapes": (
        lambda: MatPoly({0: zero(1, 1), 1: zero(1, 2)}, (1, 1), F7), ShapeMismatch),
    "matpoly-mul-across-inner-dimensions": (
        lambda: MatPoly({}, (1, 2), F7).mul(MatPoly({}, (1, 1), F7)), ShapeMismatch),
    "matpoly-mul-across-fields": (
        lambda: MatPoly({}, (1, 1), F7).mul(MatPoly({}, (1, 1), F13)), ShapeMismatch),
    # 3 has order 6 in GF(7), so it is no primitive cube root of unity
    "mod-m-transform-bad-zeta": (
        lambda: mod_m_transform(MatPoly({}, (1, 1), F7), F7.element(3), 3), NotPrimitiveRoot),
    "mod-m-transform-by-summation-bad-zeta": (
        lambda: mod_m_transform_by_summation(MatPoly({}, (1, 1), F7), F7.element(3), 3),
        NotPrimitiveRoot),
    "interpolate-nothing": (lambda: interpolate([], [], [], F7), ShapeMismatch),
    "scheme-field-without-value": (lambda: parse_scheme_spec("mp:K=2,M"), BadSpec),
    "explicit-scheme-without-alpha": (
        lambda: parse_scheme_spec("explicit:K=1,M=2,L=1,T=0,beta="), BadSpec),
    "partition-across-fields": (
        lambda: partition(zero(2, 2), zero(2, 2, F13), 1, 1, 1), ShapeMismatch),
    "partition-of-an-unsplit-b": (
        lambda: partition(zero(2, 2), zero(2, 3), 1, 2, 2), ShapeMismatch),
    "threshold-of-an-unknown-variant": (
        lambda: threshold(SchemeParams("bogus", 1, 1, 1, 0)), BadSpec),
    "security-of-a-zero-point": (
        lambda: security_matrices(EvaluationPlan(SchemeParams.mp(1, 2, 1, 1), F7,
                                                 (F7.zero(), F7.one()))),
        ZeroEvaluationPoint),
    "find-without-roots-of-unity": (
        lambda: find_evaluation_vector(SchemeParams.mp(1, 4, 1, 1), make_field(23)),
        BudgetExhausted),
    "find-without-a-coprime-subgroup": (
        lambda: find_evaluation_vector(SchemeParams.mp(1, 2, 1, 1), make_field(17),
                                       subgroup="auto"),
        BudgetExhausted),
}
GATES = {
    "find-without-roots-of-unity": "4 does not divide 22",
    "find-without-a-coprime-subgroup":
        "largest subgroup of order coprime to 2 has 1 elements, fewer than 2",
}


@pytest.mark.parametrize("case", CASES)
def test_each_rejection_raises_its_error(case):
    call, error = CASES[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    if case in GATES:
        assert [f["gate"] for f in info.value.diagnostics["fields"]] == [GATES[case]]
