import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdmm.errors import BadD, BadR, BadSpec, ShapeMismatch
from sdmm.fields import make_field
from sdmm.matpoly import BlockMatrix
from sdmm.schemes import (
    EXPLICIT,
    GGASP,
    MP,
    SchemeParams,
    build_f,
    build_g,
    ggasp_alpha,
    parse_scheme_spec,
    partition,
    product_block_positions,
)
from sdmm.thresholds import symbolic_support, threshold

F31 = make_field(31)


def test_mp_validation():
    with pytest.raises(BadD):
        SchemeParams.mp(2, 4, 2, 1, D=2)  # gcd(2, 4) = 2
    with pytest.raises(BadD):
        SchemeParams.mp(2, 3, 2, 1, D=4)  # D > M
    with pytest.raises(BadSpec):
        SchemeParams.mp(0, 3, 2, 1)
    with pytest.raises(BadSpec):
        SchemeParams.mp(2, 3, 2, -1)
    # T=0 ignores D entirely
    assert SchemeParams.mp(2, 4, 2, 0, D=2).D == 0


def test_mp_noise_offsets_step_by_d():
    p = SchemeParams.mp(2, 5, 2, 4, D=3)
    assert p.alpha() == (0, 3, 6, 9)
    assert p.beta() == (0, 3, 6, 9)


def test_ggasp_run_layout():
    # K*M = 10: runs start at multiples of 10 and take r consecutive slots
    assert ggasp_alpha(5, 2, 4, 2) == (0, 1, 10, 11)
    assert ggasp_alpha(5, 2, 4, 1) == (0, 10, 20, 30)
    assert ggasp_alpha(5, 2, 4, 3) == (0, 1, 2, 10)
    assert ggasp_alpha(5, 2, 4, 4) == (0, 1, 2, 3)
    with pytest.raises(BadR):
        ggasp_alpha(5, 2, 4, 5)  # r > T
    with pytest.raises(BadR):
        ggasp_alpha(1, 2, 8, 3)  # r > K*M
    with pytest.raises(BadR):
        ggasp_alpha(5, 2, 4, 0)


def test_ggasp_beta_is_consecutive():
    p = SchemeParams.ggasp(5, 2, 5, 4, r=2)
    assert p.beta() == (0, 1, 2, 3)


def test_explicit_validation():
    with pytest.raises(BadSpec):
        SchemeParams.explicit(1, 2, 1, 2, alpha=(0,), beta=(0, 1))  # wrong length
    with pytest.raises(BadSpec):
        SchemeParams.explicit(1, 2, 1, 2, alpha=(2, 0), beta=(0, 1))  # not increasing
    with pytest.raises(BadSpec):
        SchemeParams.explicit(1, 2, 1, 1, alpha=(-1,), beta=(0,))
    p = SchemeParams.explicit(1, 2, 1, 2, alpha=(0, 2), beta=(0, 1))
    assert p.alpha() == (0, 2)
    assert p.beta() == (0, 1)


def test_explicit_rejects_a_repeated_exponent():
    with pytest.raises(BadSpec, match="strictly increasing"):
        parse_scheme_spec("explicit:K=1,M=2,L=1,T=2,alpha=0+0,beta=0+1")
    with pytest.raises(BadSpec, match="strictly increasing"):
        SchemeParams.explicit(1, 2, 1, 2, alpha=(0, 2), beta=(1, 1))


@pytest.mark.parametrize("args, error", [
    (("mp", 2, 3, 2, 2), BadD),  # D left at 0
    (("ggasp", 2, 2, 2, 2), BadR),  # r left at 0
    (("explicit", 1, 2, 1, 2), BadSpec),  # no alpha, no beta
    (("nope", 1, 1, 1, 0), BadSpec),
], ids=["mp-no-D", "ggasp-no-r", "explicit-no-exponents", "unknown-variant"])
def test_a_directly_built_scheme_is_checked_like_the_classmethods(args, error):
    with pytest.raises(error):
        SchemeParams(*args)


@pytest.mark.parametrize("kwargs", [
    dict(variant=MP, T=0, D=1),
    dict(variant=GGASP, T=0, r=1),
    dict(variant=MP, T=1, D=1, r=1),
    dict(variant=GGASP, T=1, r=1, D=1),
    dict(variant=MP, T=1, D=1, alpha_raw=(0,)),
    dict(variant=GGASP, T=0, beta_raw=()),
    dict(variant=EXPLICIT, T=1, D=1, alpha_raw=(0,), beta_raw=(0,)),
], ids=["mp-D-at-T0", "ggasp-r-at-T0", "mp-r", "ggasp-D", "mp-alpha", "ggasp-beta-at-T0",
        "explicit-D"])
def test_a_layout_field_no_classmethod_sets_is_refused(kwargs):
    # the classmethods set D only on mp and r only on ggasp, neither at T = 0,
    # and alpha and beta only on explicit
    with pytest.raises(BadSpec, match="takes no"):
        SchemeParams(K=1, M=2, L=1, **kwargs)


@pytest.mark.parametrize("alpha", [[0], (0.5,), (-1,)], ids=["list", "float", "negative"])
def test_direct_explicit_exponents_are_a_tuple_of_nonnegative_integers(alpha):
    # explicit() hands over int tuples; a direct call gets no conversion, so
    # an exponent that is not one would reach the layout and the spec string
    with pytest.raises(BadSpec):
        SchemeParams(EXPLICIT, 1, 2, 1, 1, alpha_raw=alpha, beta_raw=(0,))


@pytest.mark.parametrize("build", [
    lambda: SchemeParams.mp(2.0, 3, 2, 1),
    lambda: SchemeParams.ggasp(2, 3, 2, 2, r=1.0),
    lambda: SchemeParams.mp(2, 3, 2, 2, D=1.0),
    lambda: SchemeParams.explicit(1, 2, 1, 1, alpha=(2.7,), beta=(0,)),
    lambda: SchemeParams.explicit(1, 2, 1, 1, alpha=("3",), beta=(0,)),
], ids=["K-float", "r-float", "D-float", "alpha-float", "alpha-str"])
def test_a_scheme_refuses_fields_that_are_not_integers(build):
    # else K=2.0 prints a spec that parse_scheme_spec refuses and fails in
    # threshold, r=1.0 and D=1.0 end in TypeError, and 2.7 or "3" pass as ints
    with pytest.raises(BadSpec, match="must be integers"):
        build()


def test_numpy_integer_fields_build_the_same_scheme():
    assert threshold(SchemeParams.mp(np.int64(2), 3, 2, 1)).N == 21
    assert SchemeParams.mp(np.int64(2), 3, 2, 1).spec_string() == "mp:K=2,M=3,L=2,T=1,D=1"
    got = SchemeParams.explicit(1, 2, 1, 1, alpha=(np.int64(2),), beta=(np.int8(0),))
    assert got == SchemeParams.explicit(1, 2, 1, 1, alpha=(2,), beta=(0,))
    assert type(got.alpha()[0]) is int


def _every_layout():
    """Every mp (each D) and ggasp (each r) layout with K, L <= 4, M <= 5, T <= 5, and 400
    random explicit ones with offsets below K*M*L + K*M + T."""
    rng = random.Random("layouts")
    for K, M, L, T in itertools.product(range(1, 5), range(1, 6), range(1, 5), range(6)):
        for D in (d for d in range(1, M + 1) if math.gcd(d, M) == 1) if T else [1]:
            yield SchemeParams.mp(K, M, L, T, D=D)
        for r in range(1, min(K * M, T) + 1) if T else [1]:
            yield SchemeParams.ggasp(K, M, L, T, r=r)
    for _ in range(400):
        K, M, L, T = rng.randint(1, 4), rng.randint(1, 5), rng.randint(1, 4), rng.randint(0, 5)
        alpha, beta = (sorted(rng.sample(range(K * M * L + K * M + T), T)) for _ in range(2))
        yield SchemeParams.explicit(K, M, L, T, alpha, beta)


def test_the_exponent_layout_sums_to_the_symbolic_support():
    # the support of h = f*g is the sumset of f's and g's exponents; the
    # oracle enumerates it separately, from the offsets alone
    seen = 0
    for params in _every_layout():
        f, g = params.exponents()
        assert len(set(f)) == len(f) and len(set(g)) == len(g), params
        assert len(f) == params.K * params.M + params.T and len(g) == params.M * params.L + params.T
        assert tuple(sorted({a + b for a in f for b in g})) == symbolic_support(params), params
        seen += 1
    assert seen > 2000


@pytest.mark.parametrize("K, M, L, T", [(1, 2, 1, 1), (2, 3, 2, 2), (3, 2, 2, 3), (2, 4, 3, 1)])
def test_exponents_align_each_product_block(K, M, L, T):
    # the pairs of f and g blocks whose exponents sum to product block
    # (k, l)'s are exactly A_{k,m} and B_{m,l} for each m: no other data
    # pair and no noise block lands there
    for params in (SchemeParams.mp(K, M, L, T), SchemeParams.ggasp(K, M, L, T)):
        f, g = params.exponents()
        for (k, l), e in product_block_positions(K, M, L).items():
            pairs = {(i, j) for i, a in enumerate(f) for j, b in enumerate(g) if a + b == e}
            assert pairs == {(k * M + m, m * L + l) for m in range(M)}, (params, k, l)


@st.composite
def scheme_params(draw):
    K = draw(st.integers(1, 4))
    M = draw(st.integers(1, 4))
    L = draw(st.integers(1, 4))
    T = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["mp", "ggasp", "explicit"]))
    if kind == "mp":
        ds = [d for d in range(1, M + 1) if math.gcd(d, M) == 1]
        return SchemeParams.mp(K, M, L, T, D=draw(st.sampled_from(ds)))
    if kind == "ggasp":
        r = draw(st.integers(1, max(1, min(K * M, T)))) if T else 1
        return SchemeParams.ggasp(K, M, L, T, r=r)
    exps = draw(st.lists(st.integers(0, 40), min_size=T, max_size=T, unique=True))
    exps2 = draw(st.lists(st.integers(0, 40), min_size=T, max_size=T, unique=True))
    return SchemeParams.explicit(K, M, L, T, tuple(sorted(exps)), tuple(sorted(exps2)))


@given(scheme_params())
@settings(max_examples=80)
def test_spec_string_round_trip(params):
    assert parse_scheme_spec(params.spec_string()) == params


def test_parse_errors():
    for bad in ("mp", "mp:K=2,M=3", "mp:K=x,M=3,L=2,T=0", "foo:K=1,M=1,L=1,T=0",
                "explicit:K=1,M=1,L=1,T=1,alpha=a,beta=0",
                "mp:K=2,M=3,L=2,T=1,d=2",  # unknown field
                "mp:K=2,M=3,L=2,T=1,r=2",  # the grouped layout's field
                "ggasp:K=2,M=3,L=2,T=1,D=1",  # the modular layout's field
                "explicit:K=1,M=2,L=1,T=1,alpha=0,beta=0,D=1",
                "mp:K=2,M=3,L=2,T=1,T=3"):  # repeated field
        with pytest.raises(BadSpec):
            parse_scheme_spec(bad)


def test_partition_shapes_and_content():
    rng = random.Random(0)
    A = BlockMatrix([[rng.randrange(31) for _ in range(6)] for _ in range(4)], F31)
    B = BlockMatrix([[rng.randrange(31) for _ in range(4)] for _ in range(6)], F31)
    a_blocks, b_blocks = partition(A, B, 2, 3, 2)
    assert a_blocks[0][0].shape == (2, 2)
    assert b_blocks[0][0].shape == (2, 2)
    assert a_blocks[1][2] == A.submatrix(2, 4, 2, 2)
    assert b_blocks[0][1] == B.submatrix(0, 2, 2, 2)


def test_partition_blocks_are_views_of_the_inputs():
    # the two grids are plain tuples of tuples of views: no block is copied
    rng = random.Random(3)
    A, B = BlockMatrix.random(4, 6, F31, rng), BlockMatrix.random(6, 4, F31, rng)
    a_blocks, b_blocks = partition(A, B, 2, 3, 2)
    assert [len(row) for row in a_blocks] == [3, 3] and [len(row) for row in b_blocks] == [2] * 3
    assert all(type(grid) is tuple and all(type(row) is tuple for row in grid)
               for grid in (a_blocks, b_blocks))
    assert all(np.shares_memory(blk.array, A.array) for row in a_blocks for blk in row)
    assert all(np.shares_memory(blk.array, B.array) for row in b_blocks for blk in row)

def test_partition_divisibility_errors():
    A = BlockMatrix.zero(4, 6, F31)
    B = BlockMatrix.zero(6, 4, F31)
    with pytest.raises(ShapeMismatch):
        partition(A, B, 3, 3, 2)  # 4 rows not divisible by K=3
    with pytest.raises(ShapeMismatch):
        partition(A, B, 2, 4, 2)  # 6 cols not divisible by M=4
    with pytest.raises(ShapeMismatch):
        partition(A, BlockMatrix.zero(5, 4, F31), 2, 3, 2)  # inner mismatch


def test_encoding_polynomial_layout():
    rng = random.Random(1)
    A = BlockMatrix([[rng.randrange(31) for _ in range(6)] for _ in range(4)], F31)
    B = BlockMatrix([[rng.randrange(31) for _ in range(4)] for _ in range(6)], F31)
    params = SchemeParams.mp(2, 3, 2, 2)
    a_blocks, b_blocks = partition(A, B, 2, 3, 2)
    f = build_f(params, a_blocks, random.Random(2), F31)
    g = build_g(params, b_blocks, random.Random(2), F31)
    # data: A_{k,m} at m + k*M, B_{m,l} at (M-1-m) + l*K*M
    assert f.coeff(4) == a_blocks[1][1]
    assert g.coeff(1) == b_blocks[1][0]
    assert g.coeff(6 + 2) == b_blocks[0][1]
    # noise sits above K*M*L
    assert set(f.support()) >= {12, 13}
    assert max(f.support()) == 13
    assert min(e for e in f.support() if e >= 12) == 12


def test_product_block_positions_formula():
    pos = product_block_positions(2, 3, 2)
    assert pos == {(k, l): 2 + 3 * k + 6 * l for k in range(2) for l in range(2)}


@given(st.integers(0, 2**32))
@settings(max_examples=25)
def test_product_carries_all_blocks(seed):
    rng = random.Random(seed)
    K, M, L = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
    T = rng.randint(0, 2)
    a0, s0, b0 = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
    A = BlockMatrix([[rng.randrange(31) for _ in range(M * s0)]
                     for _ in range(K * a0)], F31)
    B = BlockMatrix([[rng.randrange(31) for _ in range(L * b0)]
                     for _ in range(M * s0)], F31)
    params = SchemeParams.mp(K, M, L, T)
    a_blocks, b_blocks = partition(A, B, K, M, L)
    h = build_f(params, a_blocks, rng, F31).mul(build_g(params, b_blocks, rng, F31))
    prod = A.matmul(B)
    for (k, l), e in product_block_positions(K, M, L).items():
        assert h.coeff(e) == prod.submatrix(k * a0, l * b0, a0, b0)
