import math

import numpy as np
import pytest

from friscov import (
    DomainError,
    NotPSDError,
    PortSelection,
    SurfaceGeometry,
    correlation_matrix,
    default_fixed_preset,
    inter_element_distance,
    psd_sqrt,
    reduce,
)


class TestGeometry:
    def test_reference_spacings(self, ref_geom):
        assert ref_geom.num_elements == 144
        assert ref_geom.d_x == pytest.approx(2.0 * 0.125 / 12.0, rel=1e-15)
        assert ref_geom.d_z == pytest.approx(2.0 * 0.125 / 12.0, rel=1e-15)

    @pytest.mark.parametrize("kwargs", [
        dict(m_x=0, m_z=12, w_x=2.0, w_z=2.0, wavelength=0.125),
        dict(m_x=12, m_z=12, w_x=-1.0, w_z=2.0, wavelength=0.125),
        dict(m_x=12, m_z=12, w_x=2.0, w_z=2.0, wavelength=0.0),
    ])
    def test_invalid_geometry(self, kwargs):
        with pytest.raises(DomainError):
            SurfaceGeometry(**kwargs)


class TestInterElementDistance:
    def test_coincident_port(self, ref_geom):
        assert inter_element_distance(ref_geom, 7, 7) == 0.0

    def test_row_neighbours(self, ref_geom):
        assert inter_element_distance(ref_geom, 0, 1) == pytest.approx(0.125 / 6.0, rel=1e-12)

    def test_one_row_offset_is_exactly_dz(self, ref_geom):
        assert inter_element_distance(ref_geom, 0, ref_geom.m_x) == ref_geom.d_z

    def test_symmetry(self, ref_geom):
        rng = np.random.default_rng(0)
        for i, j in rng.integers(0, 144, size=(50, 2)):
            assert inter_element_distance(ref_geom, int(i), int(j)) == \
                inter_element_distance(ref_geom, int(j), int(i))

    def test_triangle_inequality_on_sampled_triples(self, ref_geom):
        rng = np.random.default_rng(1)
        for i, j, k in rng.integers(0, 144, size=(100, 3)):
            dij = inter_element_distance(ref_geom, int(i), int(j))
            djk = inter_element_distance(ref_geom, int(j), int(k))
            dik = inter_element_distance(ref_geom, int(i), int(k))
            assert dik <= dij + djk + 1e-15

    @pytest.mark.parametrize("i,j", [(-1, 0), (0, 144), (200, 0)])
    def test_out_of_range(self, ref_geom, i, j):
        with pytest.raises(DomainError):
            inter_element_distance(ref_geom, i, j)


class TestCorrelationMatrix:
    def test_unit_diagonal_exact(self, ref_corr):
        assert np.all(np.diag(ref_corr) == 1.0)

    def test_symmetry_exact(self, ref_corr):
        assert np.array_equal(ref_corr, ref_corr.T)

    def test_row_neighbour_entry(self, ref_corr):
        # J0(pi/3), series-oracle value
        assert ref_corr[0, 1] == pytest.approx(0.7440719707529295, abs=1e-9)

    def test_half_wavelength_pair(self):
        geom = SurfaceGeometry(m_x=2, m_z=1, w_x=1.0, w_z=1.0, wavelength=0.125)
        corr = correlation_matrix(geom)
        # J0(pi)
        assert corr[0, 1] == pytest.approx(-0.3042421776440939, abs=1e-9)

    def test_reference_matrix_is_psd_up_to_noise(self, ref_corr):
        assert np.linalg.eigvalsh(ref_corr)[0] >= -1e-9


class TestPsdSqrt:
    def test_identity(self):
        root = psd_sqrt(np.eye(5))
        assert np.allclose(root, np.eye(5), atol=1e-12)

    def test_two_by_two(self):
        root = psd_sqrt(np.array([[1.0, 0.5], [0.5, 1.0]]))
        expected = np.array([[0.9659258262890683, 0.25881904510252074],
                             [0.25881904510252074, 0.9659258262890683]])
        assert np.allclose(root, expected, atol=1e-6)

    def test_defining_property(self, ref_corr):
        root = psd_sqrt(ref_corr)
        dim = ref_corr.shape[0]
        clamped_err = np.linalg.norm(root @ root - ref_corr)
        assert clamped_err <= 1e-10 * dim
        assert np.array_equal(root, root.T)

    def test_random_psd_matrices(self):
        rng = np.random.default_rng(5)
        for dim in (2, 7, 20):
            factor = rng.standard_normal((dim, dim))
            mat = factor @ factor.T
            root = psd_sqrt(mat)
            assert np.linalg.norm(root @ root - mat) <= 1e-10 * dim * np.linalg.norm(mat)

    def test_asymmetric_rejected(self):
        with pytest.raises(NotPSDError):
            psd_sqrt(np.array([[1.0, 0.2], [0.0, 1.0]]))

    def test_indefinite_rejected(self):
        with pytest.raises(NotPSDError):
            psd_sqrt(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestPortSelection:
    def test_strictly_increasing_required(self):
        with pytest.raises(DomainError):
            PortSelection((3, 3, 5))
        with pytest.raises(DomainError):
            PortSelection((5, 3))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            PortSelection(())


class TestReduce:
    def test_full_selection_is_identity(self, ref_corr):
        sel = PortSelection(tuple(range(144)))
        assert np.array_equal(reduce(ref_corr, sel), ref_corr)

    def test_singleton_gives_unit(self, ref_corr):
        assert np.array_equal(reduce(ref_corr, PortSelection((17,))), np.array([[1.0]]))

    def test_submatrix_extraction(self):
        corr = np.eye(3)
        corr[0, 2] = corr[2, 0] = 0.2
        sub = reduce(corr, PortSelection((0, 2)))
        assert sub[0, 1] == 0.2
        assert np.array_equal(sub, sub.T)

    def test_out_of_range(self, ref_corr):
        with pytest.raises(DomainError):
            reduce(ref_corr, PortSelection((0, 144)))


class TestDefaultFixedPreset:
    def test_lattice_36(self, ref_geom):
        preset = default_fixed_preset(ref_geom, 36)
        expected = tuple(r * 24 + c * 2 for r in range(6) for c in range(6))
        assert preset.indices == expected

    def test_lattice_16(self, ref_geom):
        preset = default_fixed_preset(ref_geom, 16)
        expected = tuple(r * 36 + c * 3 for r in range(4) for c in range(4))
        assert preset.indices == expected

    def test_non_square_fallback(self, ref_geom):
        preset = default_fixed_preset(ref_geom, 10)
        assert preset.size == 10
        assert preset.indices[0] == 0 and preset.indices[-1] == 143

    def test_out_of_range(self, ref_geom):
        with pytest.raises(DomainError):
            default_fixed_preset(ref_geom, 145)
