"""Structured type construction, projection exactness, and JSON interchange."""

import json
import warnings

import numpy as np
import pytest

from phctrl.core import (
    Dims,
    PHTSystem,
    ScalarField,
    default_pd_delta,
    dumps_system,
    loads_system,
    system_from_dict,
    system_matrix,
    system_to_dict,
    validate_ph,
    validate_pht,
)
from phctrl.errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    StructureViolation,
)

J2 = [[0.0, -1.0], [1.0, 0.0]]
H2 = [[2.0, 0.0], [0.0, 3.0]]
B2 = [[1.0], [0.0]]


def random_raw(rng, n, m, field):
    if field is ScalarField.COMPLEX:
        g = lambda *s: rng.standard_normal(s) + 1j * rng.standard_normal(s)
    else:
        g = lambda *s: rng.standard_normal(s)
    J = g(n, n)
    J = (J - J.conj().T) / 2
    H = g(n, n)
    H = (H + H.conj().T) / 2
    return J, H, g(n, m)


class TestDims:
    def test_valid(self):
        d = Dims(3, 2)
        assert (d.n, d.m) == (3, 2)

    @pytest.mark.parametrize("n,m", [(0, 1), (1, 0), (-2, 3)])
    def test_nonpositive_rejected(self, n, m):
        with pytest.raises(DimensionMismatch):
            Dims(n, m)

    def test_non_integer_rejected(self):
        with pytest.raises(DimensionMismatch):
            Dims(2.5, 1)

    def test_numpy_integer_accepted(self):
        d = Dims(np.int64(4), np.int64(2))
        assert (d.n, d.m) == (4, 2)


class TestValidatePht:
    def test_exact_structure_accepted_at_tol_zero(self):
        sys = validate_pht(J2, H2, B2, tol=0.0)
        assert np.array_equal(sys.J, np.array(J2))
        assert np.array_equal(sys.H, np.array(H2))
        assert np.array_equal(sys.B, np.array(B2))
        assert sys.field is ScalarField.REAL
        assert sys.dims == Dims(2, 1)

    def test_nonskew_rejected(self):
        with pytest.raises(StructureViolation) as exc:
            validate_pht([[1.0, 0.0], [0.0, 0.0]], H2, B2, tol=1e-9)
        assert exc.value.residual > exc.value.threshold

    def test_nonsymmetric_h_rejected(self):
        with pytest.raises(StructureViolation):
            validate_pht(J2, [[1.0, 2.0], [0.0, 1.0]], B2, tol=1e-9)

    @pytest.mark.parametrize("scale", [1e-5, 3.0, 1e100])
    def test_residual_and_gate_are_frobenius_norms(self, scale):
        J = scale * np.array([[1.0, 2.0], [0.5, 0.0]])
        with pytest.raises(StructureViolation) as exc:
            validate_pht(J, H2, B2)
        assert exc.value.residual == np.linalg.norm(J + J.T)
        assert exc.value.threshold == 1e-9 * (1.0 + np.linalg.norm(J))

    def test_huge_entries_gated_without_overflow(self):
        # squaring entries near 1e160 overflows; the gate must not become
        # inf > inf, which would accept any J and H
        rng = np.random.default_rng(3)
        J = rng.standard_normal((3, 3))
        S = rng.standard_normal((3, 3))
        J, S = J - J.T, S + S.T
        B = np.ones((3, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StructureViolation, match="J is not skew"):
                validate_pht(1e160 * (J + 0.1 * S), np.eye(3), B)
            with pytest.raises(StructureViolation, match="H is not self"):
                validate_pht(J, 1e160 * (S + 0.1 * J), B)
            sys = validate_pht(1e160 * J, 1e160 * S, B)
        assert np.array_equal(sys.J, 1e160 * J)

    def test_small_residual_projected(self):
        # dirt of size 1e-14 passes the 1e-12 gate; the stored matrix is the
        # skew projection computed independently here
        J_dirty = np.array([[0.0, -1.0 + 1e-14], [1.0, 0.0]])
        sys = validate_pht(J_dirty, H2, B2, tol=1e-12)
        expected = (J_dirty - J_dirty.T) / 2
        assert np.array_equal(sys.J, expected)
        assert np.array_equal(sys.J, -sys.J.T)
        assert sys.J[0, 1] == pytest.approx(-1.0, abs=1e-13)

    def test_projection_idempotent(self):
        rng = np.random.default_rng(2024)
        for field in ScalarField:
            for _ in range(25):
                J, H, B = random_raw(rng, 4, 2, field)
                first = validate_pht(J, H, B, tol=0.0, field=field)
                second = validate_pht(first.J, first.H, first.B, tol=0.0, field=field)
                assert second == first

    def test_projection_exact_on_random_dirt(self):
        rng = np.random.default_rng(7)
        for field in ScalarField:
            for _ in range(50):
                n = int(rng.integers(1, 6))
                if field is ScalarField.COMPLEX:
                    J = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                    H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                else:
                    J = rng.standard_normal((n, n))
                    H = rng.standard_normal((n, n))
                B = rng.standard_normal((n, 2))
                sys = PHTSystem(Dims(n, 2), field, J, H, B)
                assert np.linalg.norm(sys.J + sys.J.conj().T) == 0.0
                assert np.linalg.norm(sys.H - sys.H.conj().T) == 0.0
                if field is ScalarField.REAL:
                    assert np.all(np.diag(sys.J) == 0.0)
                else:
                    assert np.all(np.diag(sys.J).real == 0.0)
                    assert np.all(np.diag(sys.H).imag == 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            validate_pht(J2, H2, [[1.0], [0.0], [0.0]])
        with pytest.raises(DimensionMismatch):
            validate_pht([[0.0, -1.0]], H2, B2)
        with pytest.raises(DimensionMismatch):
            validate_pht(J2, [[1.0]], B2)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            validate_pht(J2, H2, B2, tol=-1.0)

    def test_nan_tol_rejected(self):
        # a NaN gate would accept any residual
        with pytest.raises(ValueError):
            validate_pht([[1.0, 5.0], [0.0, 0.0]], H2, B2, tol=float("nan"))

    def test_real_field_rejects_complex_entries(self):
        with pytest.raises(StructureViolation):
            validate_pht(np.array(J2) * 1j, H2, B2, field=ScalarField.REAL)

    @pytest.mark.parametrize("part", ["J", "H", "B"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, part, bad):
        raw = {"J": np.array(J2), "H": np.array(H2), "B": np.array(B2)}
        raw[part][1, 0] = bad
        with pytest.raises(StructureViolation, match="finite"):
            validate_pht(raw["J"], raw["H"], raw["B"])
        d = system_to_dict(validate_pht(J2, H2, B2))
        d[part] = raw[part].tolist()
        with pytest.raises(StructureViolation, match="finite"):
            system_from_dict(d)

    def test_arrays_frozen(self):
        sys = validate_pht(J2, H2, B2)
        with pytest.raises(ValueError):
            sys.J[0, 0] = 5.0


class TestValidatePh:
    def test_identity(self):
        sys = validate_pht(J2, np.eye(2), B2)
        ph = validate_ph(sys, delta=1e-12)
        assert ph.pd_margin == 1.0

    def test_indefinite_rejected(self):
        sys = validate_pht(J2, [[1.0, 0.0], [0.0, -1.0]], B2)
        with pytest.raises(NotPositiveDefinite) as exc:
            validate_ph(sys, delta=1e-12)
        assert exc.value.smallest_eigenvalue == pytest.approx(-1.0, rel=1e-12)

    def test_nan_delta_rejected(self):
        # a NaN margin would accept an indefinite H
        sys = validate_pht(J2, [[1.0, 0.0], [0.0, -1.0]], B2)
        with pytest.raises(ValueError):
            validate_ph(sys, delta=float("nan"))

    def test_margin_from_eigenvalues(self):
        # eigenvalues of [[2,1],[1,2]] are 1 and 3
        sys = validate_pht(J2, [[2.0, 1.0], [1.0, 2.0]], B2)
        ph = validate_ph(sys, delta=1e-12)
        assert ph.pd_margin == pytest.approx(1.0, rel=1e-12)

    def test_default_delta_scales_with_norm(self):
        H = np.eye(2) * 5.0
        assert default_pd_delta(H) == pytest.approx(5e-12)
        assert default_pd_delta(np.eye(2) * 0.1) == pytest.approx(1e-12)

    def test_default_delta_gate(self):
        sys = validate_pht([[0.0]], [[1e-13]], [[1.0]])
        with pytest.raises(NotPositiveDefinite):
            validate_ph(sys)

    def test_delegating_properties(self):
        ph = validate_ph(validate_pht(J2, H2, B2))
        assert np.array_equal(ph.J, ph.base.J)
        assert ph.dims == Dims(2, 1)
        assert ph.field is ScalarField.REAL


class TestSystemMatrix:
    def test_identity_h(self):
        sys = validate_pht(J2, np.eye(2), B2)
        assert np.array_equal(system_matrix(sys), np.array(J2))

    def test_zero_j(self):
        sys = validate_pht(np.zeros((2, 2)), H2, B2)
        assert np.array_equal(system_matrix(sys), np.zeros((2, 2)))

    def test_hand_product(self):
        sys = validate_pht(J2, H2, B2)
        assert np.array_equal(system_matrix(sys), np.array([[0.0, -3.0], [2.0, 0.0]]))

    def test_imaginary_spectrum_for_identity_h(self):
        # J skew with H = I: the state matrix is skew, spectrum on the
        # imaginary axis
        rng = np.random.default_rng(5)
        for n in (2, 3, 6):
            G = rng.standard_normal((n, n))
            sys = PHTSystem(Dims(n, 1), ScalarField.REAL, G, np.eye(n),
                            rng.standard_normal((n, 1)))
            lams = np.linalg.eigvals(system_matrix(sys))
            bound = 1e-10 * np.linalg.norm(sys.J, 2)
            assert np.max(np.abs(lams.real)) <= bound


class TestJsonInterchange:
    def test_roundtrip_real(self):
        rng = np.random.default_rng(11)
        J, H, B = random_raw(rng, 3, 2, ScalarField.REAL)
        sys = validate_pht(J, H, B, tol=0.0)
        again = loads_system(dumps_system(sys))
        assert again == sys

    def test_roundtrip_complex(self):
        rng = np.random.default_rng(12)
        J, H, B = random_raw(rng, 3, 2, ScalarField.COMPLEX)
        sys = validate_pht(J, H, B, tol=0.0, field=ScalarField.COMPLEX)
        again = loads_system(dumps_system(sys))
        assert again == sys

    def test_complex_encoding_shape(self):
        sys = validate_pht([[0.5j]], [[2.0]], [[1.0 + 2.0j]],
                           field=ScalarField.COMPLEX)
        d = system_to_dict(sys)
        assert d["field"] == "complex"
        assert d["J"] == [[[0.0, 0.5]]]
        assert d["B"] == [[[1.0, 2.0]]]

    def test_declared_dims_must_match(self):
        d = system_to_dict(validate_pht(J2, H2, B2))
        d["n"] = 3
        with pytest.raises(DimensionMismatch):
            system_from_dict(d)

    def test_malformed_object(self):
        with pytest.raises(DimensionMismatch):
            system_from_dict({"field": "real", "n": 2, "m": 1})

    def test_json_is_plain_data(self):
        text = dumps_system(validate_pht(J2, H2, B2))
        parsed = json.loads(text)
        assert parsed["J"] == [[0.0, -1.0], [1.0, 0.0]]
