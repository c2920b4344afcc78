"""Property tests: projections, the packing bijection and the stacked
perturbation.  Hypothesis runs derandomized with no example database, so
every run tries the same examples."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from phctrl.core import Dims, PHTSystem, ScalarField, skew_part, sym_part, validate_ph
from phctrl.errors import PerturbationFailed
from phctrl.sample import (
    PerturbationSpec,
    SamplerSpec,
    perturb,
    perturb_rows,
    sample_ph,
    stream,
)
from phctrl.vectorize import PackedVector, pack, packed_length, unpack

CHEAP = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# finite entries, signed zeros and subnormals included; the bound keeps
# M -+ M* finite
entries = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
fields = st.sampled_from(list(ScalarField))


@st.composite
def stacks(draw):
    """A field and a stack (k, n, n) of matrices, k from 0 to 3."""
    field = draw(fields)
    k, n = draw(st.integers(0, 3)), draw(st.integers(1, 4))
    parts = [draw(arrays(np.float64, (k, n, n), elements=entries))
             for _ in range(1 if field is ScalarField.REAL else 2)]
    return field, parts[0] if len(parts) == 1 else parts[0] + 1j * parts[1]


def zero_signs_cleared(a: np.ndarray) -> bytes:
    return (a + 0.0).tobytes()  # -0.0 + 0.0 is +0.0; every other entry is kept


class TestProjection:
    @CHEAP
    @given(stacks())
    def test_idempotent(self, stack):
        # bitwise over the reals; over the complexes the division by 2 may
        # change the sign of a zero part, so bitwise up to the sign of zero
        field, M = stack
        for project in (skew_part, sym_part):
            once = project(M)
            twice = project(once)
            assert np.array_equal(twice, once)
            if field is ScalarField.REAL:
                assert twice.tobytes() == once.tobytes()
            else:
                assert zero_signs_cleared(twice) == zero_signs_cleared(once)

    @CHEAP
    @given(stacks())
    def test_structure_is_exact_and_stack_is_per_matrix(self, stack):
        _, M = stack
        J, H = skew_part(M), sym_part(M)
        assert np.array_equal(J, -J.swapaxes(-1, -2).conj())
        assert np.array_equal(H, H.swapaxes(-1, -2).conj())
        for i in range(len(M)):
            assert skew_part(M[i]).tobytes() == J[i].tobytes()
            assert sym_part(M[i]).tobytes() == H[i].tobytes()


@st.composite
def packed_vectors(draw):
    dims = Dims(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    field = draw(fields)
    coords = draw(arrays(np.float64, packed_length(dims, field), elements=entries))
    return PackedVector(coords, dims, field)


@st.composite
def systems(draw):
    dims = Dims(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    field = draw(fields)
    n, m = dims.n, dims.m

    def matrix(shape):
        parts = [draw(arrays(np.float64, shape, elements=entries))
                 for _ in range(1 if field is ScalarField.REAL else 2)]
        return parts[0] if len(parts) == 1 else parts[0] + 1j * parts[1]

    return PHTSystem(dims, field, matrix((n, n)), matrix((n, n)), matrix((n, m)))


class TestPacking:
    @CHEAP
    @given(packed_vectors())
    def test_unpack_then_pack_is_identity(self, v):
        again = pack(unpack(v))
        assert (again.dims, again.field) == (v.dims, v.field)
        assert np.array_equal(again.coords, v.coords)
        assert zero_signs_cleared(again.coords) == zero_signs_cleared(v.coords)

    @CHEAP
    @given(systems())
    def test_pack_then_unpack_is_identity(self, sys):
        again = unpack(pack(sys))
        assert again == sys
        for a, b in ((again.J, sys.J), (again.H, sys.H), (again.B, sys.B)):
            assert zero_signs_cleared(a) == zero_signs_cleared(b)


class TestPerturbRows:
    @CHEAP
    @given(n=st.integers(1, 4), m=st.integers(1, 2), field=fields,
           seed=st.integers(0, 2 ** 16), h_scale=st.sampled_from([1.0, 1e-4, 1e-8]),
           eps=st.floats(1e-9, 10.0), max_retries=st.integers(0, 8), rows=st.integers(1, 6))
    def test_rows_equal_lone_perturbations(self, n, m, field, seed, h_scale, eps,
                                           max_retries, rows):
        # a scaled-down H brings the base near the cone's boundary, so that
        # rows halve, and some run out of halvings
        drawn = sample_ph(SamplerSpec(Dims(n, m), field=field, seed=seed), stream(seed))
        base = validate_ph(PHTSystem(drawn.dims, field, drawn.J, h_scale * drawn.H, drawn.B))
        spec = PerturbationSpec(epsilon=eps, max_retries=max_retries)
        moved = perturb_rows(base, spec, [stream(seed, r) for r in range(rows)])
        failed = []
        for r in range(rows):
            try:
                lone = perturb(base, spec, stream(seed, r))
            except PerturbationFailed:
                failed.append(r)
                continue
            assert moved.J[r].tobytes() == lone.system.J.tobytes()
            assert moved.H[r].tobytes() == lone.system.H.tobytes()
            assert moved.B[r].tobytes() == lone.system.B.tobytes()
            assert moved.pd_margin[r] == lone.system.pd_margin
            assert moved.eps_used[r] == lone.eps_used
            assert moved.halvings[r] == lone.halvings
        assert moved.failed == (failed[0] if failed else None)
