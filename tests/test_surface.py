import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from friscov import (
    DomainError,
    SurfaceGeometry,
    bessel_j0,
    correlation_matrix,
    default_fixed_preset,
    surface_factor,
)
from friscov.channel import ris_grid_geometry

from oracles import NotPSDError, psd_sqrt

# Every grid up to 16x16, and the RIS grids of an m_o sweep on the
# reference aperture.
ALL_GRIDS = [(m_x, m_z) for m_x in range(1, 17) for m_z in range(1, 17)]
M_O_SWEEP_RIS_GRIDS = [(2, 31), (2, 37), (2, 43), (1, 97), (1, 109), (3, 17)]
# Apertures (w_x, w_z) in wavelengths beside the 2x2 reference, so that d_x
# and d_z differ on square grids too.
APERTURES = [(3.0, 1.5), (1.0, 4.0), (6.0, 2.0), (2.5, 0.75)]
REFERENCE_SURFACES = [pytest.param(ALL_GRIDS, (2.0, 2.0), id="up-to-16x16"),
                      pytest.param(M_O_SWEEP_RIS_GRIDS, (2.0, 2.0), id="m_o-sweep-ris")]


def every_grid_on(apertures):
    """A case of every grid up to 16x16 on each aperture."""
    return [pytest.param(ALL_GRIDS, (w_x, w_z), id=f"up-to-16x16-{w_x:g}x{w_z:g}") for w_x, w_z in apertures]


class TestGeometry:
    def test_reference_spacings(self, ref_geom):
        assert ref_geom.num_elements == 144
        assert ref_geom.d_x == pytest.approx(2.0 / 12.0, rel=1e-15)
        assert ref_geom.d_z == pytest.approx(2.0 / 12.0, rel=1e-15)

    def test_fields_are_the_grid_and_the_aperture(self):
        # Every distance is in wavelengths, so the carrier wavelength is no field.
        assert [field.name for field in dataclasses.fields(SurfaceGeometry)] == ["m_x", "m_z", "w_x", "w_z"]
        with pytest.raises(TypeError):
            SurfaceGeometry(m_x=12, m_z=12, w_x=2.0, w_z=2.0, wavelength=0.125)

    @pytest.mark.parametrize("kwargs", [
        dict(m_x=0, m_z=12, w_x=2.0, w_z=2.0),
        dict(m_x=12, m_z=12, w_x=-1.0, w_z=2.0),
        dict(m_x=12, m_z=12, w_x=2.0, w_z=0.0),
        dict(m_x=12, m_z=12, w_x=2.0, w_z=1.5e4),
    ])
    def test_invalid_geometry(self, kwargs):
        with pytest.raises(DomainError):
            SurfaceGeometry(**kwargs)

    @pytest.mark.parametrize("m_x, m_z", [(True, 12), (12, False)])
    def test_bool_dimensions_rejected(self, m_x, m_z):
        # bool is an int, so True would otherwise pass as one port and False as none.
        with pytest.raises(DomainError, match="^m_x and m_z must be integers$"):
            SurfaceGeometry(m_x=m_x, m_z=m_z, w_x=2.0, w_z=2.0)


class TestCorrelationMatrix:
    def test_unit_diagonal_exact(self, ref_corr):
        assert np.all(np.diag(ref_corr) == 1.0)

    def test_symmetry_exact(self, ref_corr):
        assert np.array_equal(ref_corr, ref_corr.T)

    def test_row_neighbour_entry(self, ref_corr):
        # J0(pi/3), series-oracle value
        assert ref_corr[0, 1] == pytest.approx(0.7440719707529295, abs=1e-9)

    def test_half_wavelength_pair(self):
        geom = SurfaceGeometry(m_x=2, m_z=1, w_x=1.0, w_z=1.0)
        corr = correlation_matrix(geom, np.arange(2))
        # J0(pi)
        assert corr[0, 1] == pytest.approx(-0.3042421776440939, abs=1e-9)

    def test_reference_matrix_is_psd_up_to_noise(self, ref_corr):
        assert np.linalg.eigvalsh(ref_corr)[0] >= -1e-9

    @pytest.mark.parametrize("grids, aperture", REFERENCE_SURFACES + every_grid_on(APERTURES))
    def test_entries_are_j0_of_the_port_distance(self, grids, aperture):
        # Bit-equal to J0 of the port distance measured with math.hypot, on
        # the rows of the four corner ports: together they hold every
        # offset, of either sign along each axis.  The block over a set of
        # ports (a preset, or the corners) is those rows and columns.
        for m_x, m_z in grids:
            geom = SurfaceGeometry(m_x=m_x, m_z=m_z, w_x=aperture[0], w_z=aperture[1])
            n = geom.num_elements
            corners = sorted({0, m_x - 1, n - m_x, n - 1})
            distance = np.array([[math.hypot(geom.d_x * (i % m_x - j % m_x), geom.d_z * (i // m_x - j // m_x))
                                  for j in range(n)] for i in corners])
            expected = bessel_j0(2.0 * math.pi * distance)
            whole = correlation_matrix(geom, np.arange(n))
            assert np.array_equal(whole[corners], expected), (m_x, m_z)
            for ports in (corners, default_fixed_preset(geom, (n + 1) // 2)):
                assert np.array_equal(correlation_matrix(geom, ports), whole[np.ix_(ports, ports)]), (m_x, m_z)

    @pytest.mark.parametrize("ports", [[-1, 0], [140, 150], [[0, 1]], [0.0, 1.0]],
                             ids=["negative", "beyond-the-grid", "2-D", "float"])
    def test_ports_outside_the_grid_rejected(self, ref_geom, ports):
        # Port 150 would sit on a 13th row; with port 140 both offsets are
        # still inside the table, so only the check stops it.
        with pytest.raises(DomainError):
            correlation_matrix(ref_geom, ports)


class TestPsdSqrt:
    def test_identity(self):
        root = psd_sqrt(np.eye(5))
        assert np.allclose(root, np.eye(5), atol=1e-12)

    def test_two_by_two(self):
        mat = np.array([[1.0, 0.5], [0.5, 1.0]])
        root = psd_sqrt(mat)
        expected = np.array([[1.0, 0.0],
                             [0.5, 0.8660254037844386]])
        assert np.allclose(root, expected, atol=1e-6)
        assert np.allclose(root @ root.T, mat, atol=1e-6)

    def test_defining_property(self, ref_corr):
        root = psd_sqrt(ref_corr)
        dim = ref_corr.shape[0]
        assert root.shape[0] == dim
        assert np.linalg.norm(root @ root.T - ref_corr) <= 1e-10 * dim

    def test_random_psd_matrices(self):
        rng = np.random.default_rng(5)
        for dim in (2, 7, 20, 70):
            factor = rng.standard_normal((dim, dim))
            mat = factor @ factor.T
            root = psd_sqrt(mat)
            assert np.linalg.norm(root @ root.T - mat) <= 1e-10 * dim * np.linalg.norm(mat)

    def test_asymmetric_rejected(self):
        with pytest.raises(NotPSDError):
            psd_sqrt(np.array([[1.0, 0.2], [0.0, 1.0]]))

    def test_indefinite_rejected(self):
        # Eigenvalues -1 and 3, then 1, 1 and -1.  Pivoting stops on the
        # permutation's residual diagonal of zeros at rank 1, so only its
        # off-diagonal misfit of 1 shows it is not PSD.
        for mat in ([[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]):
            with pytest.raises(NotPSDError):
                psd_sqrt(np.array(mat))

    # At rank 82, 16x16 over 8x8 wavelengths takes the factor past its
    # first 64 columns.
    @pytest.mark.parametrize("grids, aperture", REFERENCE_SURFACES + [pytest.param([(32, 32)], (2.0, 2.0), id="32x32")]
                             + every_grid_on(APERTURES) + [pytest.param([(16, 16)], (8.0, 8.0), id="16x16-8x8")])
    def test_factor_reproduces_every_surface(self, grids, aperture):
        # The run's factor, read off the J0 table, equals the dense
        # reference's, which reads the whole matrix and shares no code.
        for m_x, m_z in grids:
            geom = SurfaceGeometry(m_x=m_x, m_z=m_z, w_x=aperture[0], w_z=aperture[1])
            corr = correlation_matrix(geom, np.arange(geom.num_elements))
            dim = corr.shape[0]
            root = psd_sqrt(corr)
            assert root.ndim == 2 and root.shape[0] == dim and 1 <= root.shape[1] <= dim, (m_x, m_z)
            residual = corr - root @ root.T
            # A PSD residual is bounded entrywise by its diagonal, which
            # pivoting leaves at most 5e-10, and in norm by its trace (up to
            # the rounding of the product), so by 5e-10 * dim.
            assert np.max(np.abs(residual)) <= 5e-10, (m_x, m_z)
            norm, trace = np.linalg.norm(residual), np.trace(residual)
            assert norm <= trace + 1e-15 * dim and trace <= 5e-10 * dim, (m_x, m_z)
            # Tighter where it holds: 2.5x0.75's 1x16 grid reads 1.07e-10 * dim.
            if aperture != (2.5, 0.75):
                assert norm <= 1e-10 * dim, (m_x, m_z)
            assert np.array_equal(surface_factor(geom), root), (m_x, m_z)

    def test_factor_at_max_ports_is_small(self):
        # A 64x64 grid: the dense matrix alone is 128 MB, its factor about
        # 1.1 MB, since the 2x2-wavelength aperture, not the port count,
        # sets the rank.
        geom = SurfaceGeometry(m_x=64, m_z=64, w_x=2.0, w_z=2.0)
        tracemalloc.start()
        try:
            root = surface_factor(geom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32e6
        assert root.shape[0] == 4096 and 33 <= root.shape[1] <= 35

    def test_reference_rank(self, ref_corr):
        # 144 ports over 2x2 wavelengths resolve 33 spatial degrees of freedom.
        assert psd_sqrt(ref_corr).shape == (144, 33)

    def test_layout_holds_under_symmetric_noise(self, ref_geom):
        # The rank and the pivot order, read off the factor's zero pattern,
        # are the layout of the normals each trial reads.  Noise of 1e-13 is
        # 30 times the error of bessel_j0.  At 1e-12 the 12x11 grid (the RIS
        # baseline of m_o = 132) flips in about two draws of five: a residual
        # sits 2.4e-12 from the tie margin at pivot step 31.
        rng = np.random.default_rng(16)
        sweep_m_os = [4, 16, 27, 39, 51, 62, 74, 86, 97, 109, 121, 132, 144]
        for geom in [ref_geom] + [ris_grid_geometry(ref_geom, m_o) for m_o in sweep_m_os]:
            corr = correlation_matrix(geom, np.arange(geom.num_elements))
            pattern = psd_sqrt(corr) != 0.0
            for _ in range(10):
                noise = np.triu(rng.uniform(-1e-13, 1e-13, corr.shape))
                noisy = psd_sqrt(corr + noise + np.triu(noise, 1).T)
                assert noisy.shape == pattern.shape and np.array_equal(noisy != 0.0, pattern), (geom.m_x, geom.m_z)

    def test_first_pivot_is_port_zero(self, ref_corr):
        # Every diagonal entry is 1, so the tie goes to port 0: the first
        # column is the first column of the correlation, and later columns
        # vanish on port 0's row.
        root = psd_sqrt(ref_corr)
        assert np.array_equal(root[:, 0], ref_corr[:, 0])
        assert np.all(root[0, 1:] == 0.0)

    def test_pivots_on_largest_residual_lower_index_first(self):
        # Diagonal 1, 2, 2: port 1 wins the tie with port 2, then port 2,
        # then port 0; each column is nonzero on its own pivot row only.
        root = psd_sqrt(np.diag([1.0, 2.0, 2.0]))
        assert np.array_equal(root != 0.0, np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=bool))

    def test_repeated_calls_are_bit_identical(self, ref_corr):
        assert np.array_equal(psd_sqrt(ref_corr), psd_sqrt(ref_corr.copy()))

    def test_empty_rejected(self):
        with pytest.raises(NotPSDError, match="empty"):
            psd_sqrt(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_without_warning(self, bad):
        mat = np.eye(3)
        mat[1, 2] = mat[2, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPSDError, match="non-finite"):
                psd_sqrt(mat)


class TestDefaultFixedPreset:
    def test_lattice_36(self, ref_geom):
        preset = default_fixed_preset(ref_geom, 36)
        expected = [r * 24 + c * 2 for r in range(6) for c in range(6)]
        assert preset.tolist() == expected

    def test_lattice_16(self, ref_geom):
        preset = default_fixed_preset(ref_geom, 16)
        expected = [r * 36 + c * 3 for r in range(4) for c in range(4)]
        assert preset.tolist() == expected

    def test_non_square_fallback(self, ref_geom):
        preset = default_fixed_preset(ref_geom, 10)
        assert preset.size == 10
        assert preset[0] == 0 and preset[-1] == 143

    @pytest.mark.parametrize("grids", [ALL_GRIDS, M_O_SWEEP_RIS_GRIDS], ids=["up-to-16x16", "m_o-sweep-ris"])
    def test_every_size_on_every_surface_is_an_index_array(self, grids):
        # m_o strictly increasing port indices, as np.intp, for every m_o
        for m_x, m_z in grids:
            geom = SurfaceGeometry(m_x=m_x, m_z=m_z, w_x=2.0, w_z=2.0)
            for m_o in range(1, geom.num_elements + 1):
                preset = default_fixed_preset(geom, m_o)
                assert preset.dtype == np.intp and preset.shape == (m_o,), (m_x, m_z, m_o)
                assert preset[0] >= 0 and preset[-1] < geom.num_elements, (m_x, m_z, m_o)
                assert np.all(np.diff(preset) > 0), (m_x, m_z, m_o)

    def test_out_of_range(self, ref_geom):
        with pytest.raises(DomainError):
            default_fixed_preset(ref_geom, 145)

    @pytest.mark.parametrize("m_o", [True, False])
    def test_bool_rejected(self, ref_geom, m_o):
        # bool is an int, so True would otherwise give the one-port preset [0].
        with pytest.raises(DomainError, match=rf"^m_o={m_o} out of range \[1, 144\]$"):
            default_fixed_preset(ref_geom, m_o)
