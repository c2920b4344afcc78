"""Packing isomorphism: exact roundtrip, length formula, linearity."""

import numpy as np
import pytest

from phctrl.core import Dims, PHTSystem, ScalarField, validate_pht
from phctrl.errors import LengthMismatch, StructureViolation
from phctrl.sample import SamplerSpec, sample_pht, stream
from phctrl.vectorize import (
    PackedVector,
    loads_packed,
    dumps_packed,
    pack,
    packed_from_dict,
    packed_length,
    unpack,
)


def test_length_formula_real():
    for n in range(1, 21):
        for m in range(1, 6):
            dims = Dims(n, m)
            assert packed_length(dims, ScalarField.REAL) == n * n + n * m
            zero = PHTSystem(dims, ScalarField.REAL, np.zeros((n, n)),
                             np.zeros((n, n)), np.zeros((n, m)))
            assert len(pack(zero)) == n * n + n * m


def test_length_formula_complex():
    for n in range(1, 21):
        for m in range(1, 6):
            dims = Dims(n, m)
            expected = 2 * n * n + 2 * n * m
            assert packed_length(dims, ScalarField.COMPLEX) == expected
            zero = PHTSystem(dims, ScalarField.COMPLEX,
                             np.zeros((n, n), complex), np.zeros((n, n), complex),
                             np.zeros((n, m), complex))
            assert len(pack(zero)) == expected


def test_pack_hand_example():
    # order: strict upper J, upper-with-diagonal H, B column-major
    sys = validate_pht([[0.0, -1.0], [1.0, 0.0]], np.eye(2), [[1.0], [0.0]])
    assert pack(sys).coords.tolist() == [-1.0, 1.0, 0.0, 1.0, 1.0, 0.0]


def test_pack_complex_hand_example():
    # J diagonal contributes its imaginary part, H diagonal its real part,
    # B entries (re, im) pairs
    sys = validate_pht([[0.5j]], [[2.0]], [[1.0 + 2.0j]],
                       field=ScalarField.COMPLEX)
    assert pack(sys).coords.tolist() == [0.5, 2.0, 1.0, 2.0]


def test_complex_hand_example_n2():
    # the upper triangle row by row: J00.im, (J01.re, J01.im), J11.im, then
    # H00.re, (H01.re, H01.im), H11.re, then B column by column in pairs
    J = np.array([[0.5j, 1 + 2j], [-1 + 2j, -0.25j]])
    H = np.array([[2.0, 3 - 4j], [3 + 4j, 5.0]])
    B = np.array([[1 + 2j, 5 + 6j], [3 - 1j, 7 - 8j]])
    coords = [0.5, 1.0, 2.0, -0.25,
              2.0, 3.0, -4.0, 5.0,
              1.0, 2.0, 3.0, -1.0, 5.0, 6.0, 7.0, -8.0]
    sys = validate_pht(J, H, B, tol=0.0, field=ScalarField.COMPLEX)
    assert pack(sys).coords.tolist() == coords
    back = unpack(PackedVector(np.array(coords), Dims(2, 2), ScalarField.COMPLEX))
    assert back == sys


def test_pack_zero_system():
    dims = Dims(3, 2)
    zero = PHTSystem(dims, ScalarField.REAL, np.zeros((3, 3)), np.zeros((3, 3)),
                     np.zeros((3, 2)))
    assert np.array_equal(pack(zero).coords, np.zeros(packed_length(dims, ScalarField.REAL)))


def test_unpack_hand_example():
    v = PackedVector(np.array([-1.0, 1.0, 0.0, 1.0, 1.0, 0.0]), Dims(2, 1),
                     ScalarField.REAL)
    sys = unpack(v)
    assert np.array_equal(sys.J, np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert np.array_equal(sys.H, np.eye(2))
    assert np.array_equal(sys.B, np.array([[1.0], [0.0]]))


def test_unpack_zero_vector():
    v = PackedVector(np.zeros(6), Dims(2, 1), ScalarField.REAL)
    sys = unpack(v)
    assert not sys.J.any() and not sys.H.any() and not sys.B.any()


def test_length_mismatch():
    with pytest.raises(LengthMismatch) as exc:
        unpack(PackedVector(np.zeros(5), Dims(2, 1), ScalarField.REAL))
    assert (exc.value.expected, exc.value.got) == (6, 5)


@pytest.mark.parametrize("field", list(ScalarField))
def test_roundtrip_identity_on_random_systems(field):
    # unpack(pack(s)) must be the identity with exact entrywise equality
    count = 0
    for seed in range(250):
        rng = stream(99, seed)
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        spec = SamplerSpec(Dims(n, m), field=field, seed=99)
        for rep in range(4):
            sys = sample_pht(spec, stream(99, seed, rep))
            assert unpack(pack(sys)) == sys
            count += 1
    assert count == 1000


@pytest.mark.parametrize("field", list(ScalarField))
def test_roundtrip_identity_on_random_vectors(field):
    # pack(unpack(v)) must reproduce v exactly; every real vector is valid
    rng = np.random.default_rng(123)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        dims = Dims(n, m)
        v = PackedVector(rng.standard_normal(packed_length(dims, field)), dims, field)
        assert pack(unpack(v)) == v


def test_real_linearity():
    # packing commutes with entrywise linear combinations of systems
    rng = np.random.default_rng(17)
    spec = SamplerSpec(Dims(4, 2), seed=3)
    for i in range(100):
        x = sample_pht(spec, stream(3, 2 * i))
        y = sample_pht(spec, stream(3, 2 * i + 1))
        a, b = rng.standard_normal(2)
        combo = PHTSystem(x.dims, x.field, a * x.J + b * y.J, a * x.H + b * y.H,
                          a * x.B + b * y.B)
        lhs = pack(combo).coords
        rhs = a * pack(x).coords + b * pack(y).coords
        scale = max(1.0, float(np.max(np.abs(rhs))))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_complex_real_linearity():
    spec = SamplerSpec(Dims(3, 2), field=ScalarField.COMPLEX, seed=8)
    rng = np.random.default_rng(18)
    for i in range(50):
        x = sample_pht(spec, stream(8, 2 * i))
        y = sample_pht(spec, stream(8, 2 * i + 1))
        a, b = rng.standard_normal(2)
        combo = PHTSystem(x.dims, x.field, a * x.J + b * y.J, a * x.H + b * y.H,
                          a * x.B + b * y.B)
        lhs = pack(combo).coords
        rhs = a * pack(x).coords + b * pack(y).coords
        scale = max(1.0, float(np.max(np.abs(rhs))))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def _pack_loops(sys):
    # entry-by-entry statement of the documented layout; the reference
    # that the vectorized pack must match bit for bit
    n, m = sys.dims.n, sys.dims.m
    J, H, B = sys.J, sys.H, sys.B
    real = sys.field is ScalarField.REAL
    out = []
    for M, diag in ((J, "imag"), (H, "real")):
        for i in range(n):
            if not real or diag == "real":
                out.append(getattr(M[i, i], diag))
            for j in range(i + 1, n):
                out += [M[i, j].real] if real else [M[i, j].real, M[i, j].imag]
    for j in range(m):
        for i in range(n):
            out += [B[i, j].real] if real else [B[i, j].real, B[i, j].imag]
    return np.array(out, dtype=np.float64)


def _unpack_loops(v):
    # the inverse of _pack_loops as unpack computed it entry by entry
    n, m = v.dims.n, v.dims.m
    c = v.coords
    if v.field is ScalarField.REAL:
        nj, nh = n * (n - 1) // 2, n * (n + 1) // 2
        Ju = np.zeros((n, n))
        Ju[np.triu_indices(n, k=1)] = c[:nj]
        Hu = np.zeros((n, n))
        Hu[np.triu_indices(n)] = c[nj:nj + nh]
        return PHTSystem(v.dims, v.field, Ju - Ju.T, Hu + np.triu(Hu, k=1).T,
                         c[nj + nh:].reshape(m, n).T)
    J = np.zeros((n, n), dtype=np.complex128)
    H = np.zeros((n, n), dtype=np.complex128)
    B = np.zeros((n, m), dtype=np.complex128)
    pos = 0
    for i in range(n):
        J[i, i] = 1j * c[pos]
        pos += 1
        for j in range(i + 1, n):
            J[i, j] = c[pos] + 1j * c[pos + 1]
            J[j, i] = -c[pos] + 1j * c[pos + 1]
            pos += 2
    for i in range(n):
        H[i, i] = c[pos]
        pos += 1
        for j in range(i + 1, n):
            H[i, j] = c[pos] + 1j * c[pos + 1]
            H[j, i] = c[pos] - 1j * c[pos + 1]
            pos += 2
    for j in range(m):
        for i in range(n):
            B[i, j] = c[pos] + 1j * c[pos + 1]
            pos += 2
    return PHTSystem(v.dims, v.field, J, H, B)


def _bits(a):
    return a.dtype, a.shape, np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("field", list(ScalarField))
@pytest.mark.parametrize("zeros", [False, True])
def test_matches_entrywise_reference(field, zeros):
    # bit for bit, signed zeros included, except that with exact zero
    # coordinates the reference's J below the diagonal, -re + i im, can
    # carry a -0.0 real part where 0 - conj(.) gives +0.0: there J is
    # compared by value
    rng = np.random.default_rng(2024)
    for _ in range(240):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 4))
        dims = Dims(n, m)
        c = rng.standard_normal(packed_length(dims, field))
        if zeros:
            c[rng.random(c.size) < 0.2] = 0.0
            c[rng.random(c.size) < 0.2] = -0.0
        v = PackedVector(c, dims, field)
        got, ref = unpack(v), _unpack_loops(v)
        assert _bits(got.H) == _bits(ref.H) and _bits(got.B) == _bits(ref.B)
        if zeros:
            assert np.array_equal(got.J, ref.J)
        else:
            assert _bits(got.J) == _bits(ref.J)
        for sys in (got, ref):
            assert _bits(pack(sys).coords) == _bits(_pack_loops(sys))


def test_json_roundtrip():
    spec = SamplerSpec(Dims(3, 2), field=ScalarField.COMPLEX, seed=21)
    v = pack(sample_pht(spec, stream(21, 0)))
    again = loads_packed(dumps_packed(v))
    assert again == v


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_packed_from_dict_rejects_non_finite(bad):
    with pytest.raises(StructureViolation):
        packed_from_dict({"n": 1, "m": 1, "field": "real", "coords": [bad, 1.0]})
