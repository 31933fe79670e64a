import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from hypothesis.extra import numpy as hnp

from strainlim import symtensor as st

import reference_impl as ref


def random_sym(rng, d, n=1):
    M = rng.standard_normal((n, d, d))
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def test_packed_len_and_dim_roundtrip():
    assert [st.packed_len(d) for d in (1, 2, 3)] == [1, 3, 6]
    with pytest.raises(ValueError):
        st.packed_len(4)


def test_pack_unpack_roundtrip_exact():
    rng = np.random.default_rng(0)
    for d in (1, 2, 3):
        A = random_sym(rng, d, 50)
        v = st.pack(A)
        assert np.array_equal(st.pack(st.unpack(v, d)), v)
        assert np.allclose(st.unpack(v, d), A, rtol=0, atol=1e-15)


def test_packed_dot_equals_frobenius():
    rng = np.random.default_rng(1)
    for d in (1, 2, 3):
        A = random_sym(rng, d, 10_000)
        B = random_sym(rng, d, 10_000)
        packed = st.dot(st.pack(A), st.pack(B))
        frob = np.einsum("nij,nij->n", A, B)
        scale = 1.0 + np.linalg.norm(A, axis=(1, 2)) * np.linalg.norm(B, axis=(1, 2))
        assert np.all(np.abs(packed - frob) <= 1e-14 * scale)


def test_cauchy_schwarz():
    rng = np.random.default_rng(2)
    for d in (1, 2, 3):
        a = rng.standard_normal((5000, st.packed_len(d)))
        b = rng.standard_normal((5000, st.packed_len(d)))
        lhs = st.dot(a, b) ** 2
        rhs = st.dot(a, a) * st.dot(b, b)
        assert np.all(lhs <= rhs * (1.0 + 1e-13))


def test_sym_part_idempotent():
    rng = np.random.default_rng(3)
    for d in (1, 2, 3):
        M = rng.standard_normal((20, d, d))
        once = st.sym_part(M)
        twice = st.sym_part(st.unpack(once, d))
        assert np.array_equal(once, twice)


def test_sym_part_hand_values():
    # 1D sym part is the entry itself
    assert np.array_equal(st.sym_part(np.array([[2.0]])), [2.0])
    # strictly upper triangular input: sym part has 1/2 off-diagonal
    v = st.sym_part(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(v, [0.0, 0.0, np.sqrt(2) * 0.5], rtol=0, atol=1e-15)
    # sym([[1,3],[1,2]]) = [[1,2],[2,2]], Frobenius norm^2 = 1+4+2*4 = 13
    v = st.sym_part(np.array([[1.0, 3.0], [1.0, 2.0]]))
    assert abs(st.dot(v, v) - 13.0) < 1e-13


def test_dot_norm_identity_hand_values():
    i2 = st.pack(np.eye(2))
    assert st.dot(i2, i2) == 2.0
    assert abs(st.norm(i2) - np.sqrt(2.0)) < 1e-15
    a = st.pack(np.diag([1.0, 2.0]))
    b = st.pack(np.diag([3.0, 4.0]))
    assert st.dot(a, b) == 11.0
    assert st.dot(a, np.zeros(3)) == 0.0
    assert st.norm(np.zeros(6)) == 0.0
    # scale and add are plain array operations on packed vectors
    assert np.array_equal(0.0 * a, np.zeros(3))
    assert np.array_equal(a + (-1.0) * a, np.zeros(3))


def test_norm_zero_iff_zero():
    rng = np.random.default_rng(4)
    a = rng.standard_normal(6)
    assert st.norm(a) > 0
    assert st.norm(np.zeros(6)) == 0.0


def test_dim_mismatch_raises():
    with pytest.raises(ValueError):
        st.dot(np.zeros(3), np.zeros(6))
    with pytest.raises(ValueError):
        st.pack(np.zeros((2, 3)))


def test_outer_matches_products():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 6))
    b = rng.standard_normal((4, 6))
    O = st.outer(a, b)
    for k in range(4):
        assert np.array_equal(O[k], np.outer(a[k], b[k]))


# magnitudes from 1e-300 to 1e300 of either sign, and signed zeros: products
# underflow to +-0.0 and overflow to +-inf, and inf - inf gives nan; entries
# of like size make the order of the additions show in the last bit
_ENTRY = hs.one_of(hs.floats(1e-300, 1e300), hs.floats(-1e300, -1e-300),
                   hs.sampled_from([0.0, -0.0]), hs.floats(-10.0, 10.0))


@settings(max_examples=400, deadline=None, database=None)
@given(shapes=hnp.mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=3,
                                                 max_side=4),
       m=hs.sampled_from([1, 3, 6]), data=hs.data())
def test_dot_bitwise_equals_numpy_sum(shapes, m, data):
    a, b = (data.draw(hnp.arrays(np.float64, shape + (m,), elements=_ENTRY))
            for shape in shapes.input_shapes)
    with np.errstate(over="ignore", invalid="ignore"):
        got = np.asarray(st.dot(a, b))
        want = np.asarray(ref.sum_dot(a, b))
    assert got.shape == want.shape == shapes.result_shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_dot_bitwise_equals_numpy_sum_on_a_batch():
    # the size of a 64 x 64 2D run's quadrature batch
    rng = np.random.default_rng(4)
    for m in (1, 3, 6):
        a = rng.standard_normal((24_576, m))
        b = rng.standard_normal((24_576, m))
        for x, y in ((a, b), (a, a), (a[:1], b), (a[::7], b[::7])):
            assert np.array_equal(st.dot(x, y).view(np.uint64),
                                  ref.sum_dot(x, y).view(np.uint64))
