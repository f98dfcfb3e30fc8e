import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friscov import (
    DomainError,
    MCConfig,
    Mode,
    ScenarioConfig,
    SurfaceGeometry,
    correlation_matrix,
    default_fixed_preset,
    surface_factor,
)
from friscov.channel import (
    _polar,
    _running_sums,
    best_product_order,
    cascade,
    correlated_tile,
    ris_grid_geometry,
    tile_normals,
)
from friscov.montecarlo import TILE_TRIALS, mix64
from friscov.runs import _mode_config
from gains import whole_gains

# Six ports, small enough to check a config's rows by hand.
SMALL = SurfaceGeometry(3, 2, 1.0, 1.0)


def col(*values) -> np.ndarray:
    """One trial: a ``(ports, 1)`` complex column."""
    return np.array(values, dtype=complex)[:, None]


def top(a: np.ndarray, b: np.ndarray, m_o: int) -> tuple[int, ...]:
    """Sorted indices of the ``m_o`` best ports of the first trial."""
    return tuple(sorted(best_product_order(a, b)[:m_o, 0].tolist()))


def random_block(seed: int, ports: int, trials: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((ports, trials)) + 1j * rng.standard_normal((ports, trials)) for _ in range(3)]


def correlated_fading(factor: np.ndarray, rng: np.random.Generator, trials: int) -> np.ndarray:
    """The fading vectors ``(3, ports, trials)`` of one tile of ``trials`` trials drawn from ``rng``."""
    return correlated_tile(factor, tile_normals(rng, factor.shape[1], trials))


def first_block(geom: SurfaceGeometry, master_seed: int, trials: int) -> np.ndarray:
    """The fading vectors ``simulate_group`` draws for the first ``trials <= TILE_TRIALS`` trials of a run.

    They are the first columns of the run's first tile, correlated at its full width.
    """
    rng = np.random.default_rng(mix64(master_seed, 0))
    return correlated_fading(surface_factor(geom), rng, TILE_TRIALS)[:, :, :trials]


class TestSampleCorrelatedFading:
    def test_identity_covariance(self):
        n, dim = 50_000, 8
        for v in correlated_fading(np.eye(dim), np.random.default_rng(42), n):
            cov = v @ v.conj().T / n
            assert np.max(np.abs(cov - np.eye(dim))) <= 0.05

    def test_general_covariance(self):
        geom = SurfaceGeometry(6, 6, 1.0, 1.0)
        corr = correlation_matrix(geom, np.arange(geom.num_elements))
        n = 50_000
        for v in correlated_fading(surface_factor(geom), np.random.default_rng(43), n):
            cov = v @ v.conj().T / n
            assert np.linalg.norm(cov - corr) <= 0.05 * corr.shape[0]

    def test_zero_mean(self):
        for v in correlated_fading(np.eye(4), np.random.default_rng(44), 100_000):
            assert np.max(np.abs(v.mean(axis=1))) <= 0.02

    def test_dimension_validation(self):
        # not 2-D (twice), complex, more columns than rows
        for factor in (np.ones(3), np.ones((1, 3, 2)), np.ones((3, 2), dtype=complex), np.ones((2, 3))):
            with pytest.raises(DomainError):
                correlated_tile(factor, np.zeros((2, 3, 2)))

    def test_low_rank_factor(self):
        # A (ports, rank) factor gives (3, ports, trials) links whose
        # covariance is factor @ factor.T, here of rank 2 on 5 ports.
        factor = np.random.default_rng(3).standard_normal((5, 2))
        n = 50_000
        abc = correlated_fading(factor, np.random.default_rng(45), n)
        assert abc.shape == (3, 5, n)
        for v in abc:
            cov = v @ v.conj().T / n
            assert np.max(np.abs(cov - factor @ factor.T)) <= 0.05 * np.max(np.abs(factor @ factor.T))

    def test_each_tile_is_a_draw_of_its_own_generator(self, ref_geom):
        # A tile holds the bits of one draw of its generator, scaled, in the
        # layout [rank, link, trial, re/im]: trial 7 reads columns 14 and 15.
        # Drawn into ``out``, it holds the same bits in the caller's array.
        root = surface_factor(ref_geom)
        rank = root.shape[1]
        buffer = np.empty((rank, 3, 200))
        for seed in (46, 47):
            z = tile_normals(np.random.default_rng(seed), rank, 100)
            assert z.shape == (rank, 3, 200)
            own = np.random.default_rng(seed).standard_normal((rank, 3, 200)) * (1.0 / math.sqrt(2.0))
            assert np.array_equal(z, own)
            assert tile_normals(np.random.default_rng(seed), rank, 100, out=buffer) is buffer
            assert np.array_equal(buffer, own)
        whole = correlated_tile(root, z)
        assert np.allclose(whole[:, :, 7], (z[:, :, 14] + 1j * z[:, :, 15]).T @ root.T, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("shape", [(2, 3), (2, 3, 5), (2, 2, 4), (2, 3, 4, 1)],
                             ids=["2-D", "odd-width", "two-links", "4-D"])
    def test_tile_of_the_wrong_shape_rejected(self, shape):
        with pytest.raises(DomainError):
            correlated_tile(np.ones((4, 2)), np.zeros(shape))

    def test_normals_must_match_the_factor_rank(self):
        z = tile_normals(np.random.default_rng(0), 3, 10)
        with pytest.raises(DomainError):
            correlated_tile(np.ones((4, 2)), z)

    @pytest.mark.parametrize("width", [1, 513, 4_096])
    def test_a_lower_rank_reads_a_prefix_of_a_higher_ranks_normals(self, ref_geom, width):
        # The rank axis leads within a tile, so a rank-r draw is the first r
        # rows of a rank-R draw from the same state, and a factor of rank r
        # correlates that prefix to the bits of its own draw.
        root = surface_factor(ref_geom)
        rank = root.shape[1]
        for seed in (47, 48):
            own = tile_normals(np.random.default_rng(seed), rank, width)
            shared = tile_normals(np.random.default_rng(seed), rank + 9, width)
            assert np.array_equal(own, shared[:rank])
            assert np.array_equal(correlated_tile(root, own), correlated_tile(root, shared[:rank]))

    def test_out_buffers_hold_the_same_bits(self, ref_geom):
        # A run correlates every surface of a panel into the leading entries of
        # one buffer sized for its largest surface; the bits are those of a
        # fresh array.
        factors = [surface_factor(geom) for geom in (ref_geom, ris_grid_geometry(ref_geom, 27))]
        z = tile_normals(np.random.default_rng(49), max(f.shape[1] for f in factors), 64)
        buffer = np.empty(3 * max(f.shape[0] for f in factors) * 64, dtype=complex)
        for factor in factors:
            out = buffer[: 3 * factor.shape[0] * 64].reshape(3, -1, 64)
            assert correlated_tile(factor, z[: factor.shape[1]], out=out) is out
            assert np.array_equal(out, correlated_tile(factor, z[: factor.shape[1]]))

    @pytest.mark.parametrize("panel", [TILE_TRIALS // 2, 200], ids=["half-tile", "partial-last-panel"])
    def test_panels_hold_the_bits_of_the_whole_tile(self, ref_geom, panel):
        # A run correlates each tile in panels of its trials, each on its own:
        # every panel holds the bits of the same columns of the whole-tile
        # product, on the 12x12 surface, every RIS grid on it and a few other
        # grids.  Panels of 200 trials leave a partial last one of 112.
        grids = [ris_grid_geometry(ref_geom, m) for m in range(1, ref_geom.num_elements + 1)]
        others = [SurfaceGeometry(m_x, m_z, 1.5, 1.0) for m_x, m_z in [(1, 2), (3, 5), (8, 8), (16, 4)]]
        factors = [surface_factor(geom) for geom in dict.fromkeys([ref_geom, *grids, *others])]
        z = tile_normals(np.random.default_rng(50), max(f.shape[1] for f in factors), TILE_TRIALS)
        for factor in factors:
            rank = factor.shape[1]
            whole = correlated_tile(factor, z[:rank])
            for lo in range(0, TILE_TRIALS, panel):
                hi = min(lo + panel, TILE_TRIALS)
                part = correlated_tile(factor, z[:rank, :, 2 * lo : 2 * hi])
                assert np.array_equal(part, whole[:, :, lo:hi]), (factor.shape, lo)

    def test_a_panel_reads_its_normals_in_place(self, ref_geom):
        # A panel is a strided column view of the tile's normals; correlating
        # it into a buffer allocates nothing near the size of a copy of them.
        factor = surface_factor(ref_geom)
        panel = TILE_TRIALS // 2
        z = tile_normals(np.random.default_rng(51), factor.shape[1], TILE_TRIALS)
        view = z[:, :, 2 * panel :]
        assert not view.flags.c_contiguous and np.shares_memory(view, z)
        out = np.empty((3, ref_geom.num_elements, panel), dtype=complex)
        correlated_tile(factor, view, out=out)  # numpy's first product in this shape
        tracemalloc.start()
        try:
            assert correlated_tile(factor, view, out=out) is out
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < view.nbytes // 8, (peak, view.nbytes)
        assert np.array_equal(out, correlated_tile(factor, np.ascontiguousarray(view)))

    @pytest.mark.parametrize("out", [np.empty((3, 4, 5), dtype=complex), np.empty((3, 4, 6)),
                                     np.empty((3, 4, 12), dtype=complex)[:, :, ::2]],
                             ids=["shape", "real", "strided"])
    def test_out_of_the_wrong_layout_rejected(self, out):
        z = tile_normals(np.random.default_rng(0), 2, 6)
        with pytest.raises(DomainError):
            correlated_tile(np.ones((4, 2)), z, out=out)

    def test_normals_out_of_the_wrong_shape_rejected(self):
        with pytest.raises(DomainError):
            tile_normals(np.random.default_rng(0), 2, 6, out=np.empty((3, 3, 12)))


class TestSelectPorts:
    def test_all_ports_when_m_o_equals_size(self):
        a = col(1, 1, 1, 1, 1)
        assert top(a, a, 5) == (0, 1, 2, 3, 4)

    def test_single_port_argmax(self):
        # two trials ranked independently: products (1, 3, 4) and (4, 3, 1)
        a = np.array([[1.0, 2.0], [3.0, 3.0], [2.0, 1.0]], dtype=complex)
        b = np.array([[1.0, 2.0], [1.0, 1.0], [2.0, 1.0]], dtype=complex)
        assert best_product_order(a, b)[0].tolist() == [2, 0]

    def test_top_two_by_product(self):
        # |a| = (1, 3, 2), |b| = (1, 1, 2): products (1, 3, 4)
        a = col(1.0, 3.0j, -2.0)
        b = col(-1.0, 1.0, 2.0j)
        assert top(a, b, 2) == (1, 2)

    def test_ties_break_toward_lower_index(self):
        a = col(1, 1, 1, 1)
        assert top(a, a, 2) == (0, 1)
        assert best_product_order(a, a)[:, 0].tolist() == [0, 1, 2, 3]

    def test_m_o_out_of_range(self):
        with pytest.raises(DomainError):
            whole_gains(MCConfig(trials=10, master_seed=1), SMALL, [(Mode.FRIS, 7)])

    def test_ris_full_requires_all(self):
        # a RIS of every port reads every row, in order
        g_b, g_w = cascade([True], *first_block(SMALL, 6, 50))[0]
        gains = whole_gains(MCConfig(trials=50, master_seed=6), SMALL, [(Mode.RIS, 6)])[0]
        assert np.array_equal(gains.g_b, g_b)
        assert np.array_equal(gains.g_w, g_w)


def assert_matches_stable_sort(a: np.ndarray, b: np.ndarray) -> None:
    """``best_product_order(a, b, count)`` equals the stable ranking's first ``count`` rows, for every count."""
    reference = np.argsort(-(np.abs(a) * np.abs(b)), axis=0, kind="stable")
    for count in range(1, a.shape[0] + 1):
        order = best_product_order(a, b, count)
        assert order.flags.c_contiguous
        assert np.array_equal(order, reference[:count]), count


def product_block(seed: int, ports: int, trials: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """``(a, b)`` whose products ``|a| * |b|`` are exact and hold the features of ``kind``.

    Entries on the axes and ``|b|`` in {0.5, 1, 2} keep every product
    exact, so ties and ulp steps in ``a`` survive into the products.
    """
    rng = np.random.default_rng(seed)
    magnitudes = rng.lognormal(0.0, 2.0, (ports, trials))
    for t in range(trials):
        picked = rng.permutation(ports)[: rng.integers(1, ports + 1)]
        if kind in ("ulps", "mixed"):
            steps = rng.integers(-3, 4, picked.size).astype(np.int64)
            base = np.array(magnitudes[picked[0], t]).view(np.int64)
            magnitudes[picked, t] = (base + steps).view(float)
        if kind in ("ties", "mixed"):
            magnitudes[picked, t] = magnitudes[picked[0], t]
        if kind == "nonfinite" and rng.random() < 0.7:
            magnitudes[picked[: rng.integers(1, 3)], t] = [math.nan, math.inf][rng.integers(0, 2)]
    units = np.array([1, 1j, -1, -1j])
    signed = magnitudes * rng.choice([-1.0, 1.0], magnitudes.shape)
    on_real_axis = rng.random(magnitudes.shape) < 0.5
    a = np.zeros(magnitudes.shape, dtype=complex)
    a.real[on_real_axis] = signed[on_real_axis]
    a.imag[~on_real_axis] = signed[~on_real_axis]
    b = np.array([0.5, 1.0, 2.0])[rng.integers(0, 3, (ports, trials))] * units[rng.integers(0, 4, (ports, trials))]
    if kind in ("zeros", "mixed"):
        zeros = np.array([0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0)])
        for v in (a, b):
            mask = rng.random(v.shape) < rng.random()
            v[mask] = zeros[rng.integers(0, 4, np.count_nonzero(mask))]
    return a, b


class TestBestProductOrder:
    @pytest.mark.parametrize("seed, trials", [(1, 300), (2, 300), (3, 300), (4, 1)])
    def test_reference_blocks_match_the_stable_sort(self, ref_geom, seed, trials):
        a, b, _ = first_block(ref_geom, seed, trials)
        assert_matches_stable_sort(a, b)

    def test_exact_ties_match_the_stable_sort(self):
        # Integer magnitudes and unit phases make every product exact.  Trial
        # t holds t % 145 distinct large products at random ports over a tail
        # of 0s, 1s and 2s, so for each count some trials tie only beyond it,
        # some straddle it and some tie inside the head.
        rng = np.random.default_rng(7)
        magnitudes = rng.integers(0, 3, (144, 290)).astype(float)
        for t in range(magnitudes.shape[1]):
            distinct = t % 145
            magnitudes[rng.permutation(144)[:distinct], t] = 10.0 + rng.permutation(distinct)
        units = np.array([1, 1j, -1, -1j])
        a = magnitudes * units[rng.integers(0, 4, magnitudes.shape)]
        b = units[rng.integers(0, 4, magnitudes.shape)]
        assert_matches_stable_sort(a, b)

    def test_ties_inside_at_and_beyond_the_count(self):
        # ports 104-143 share the largest product, ports 0-103 a smaller one
        a = col(*np.where(np.arange(144) >= 104, 2.0, 1.0))
        b = np.ones_like(a)
        assert best_product_order(a, b, 36)[:, 0].tolist() == list(range(104, 140))
        assert best_product_order(a, b, 42)[:, 0].tolist() == [*range(104, 144), 0, 1]
        # ports 100-103 on top, every other port tied below them
        a = np.ones_like(b)
        a[100:104, 0] = [7.0, 6.0, 5.0, 4.0]
        assert best_product_order(a, b, 3)[:, 0].tolist() == [100, 101, 102]
        assert best_product_order(a, b, 5)[:, 0].tolist() == [100, 101, 102, 103, 0]

    @pytest.mark.filterwarnings("error")
    def test_zero_entries_tie_as_zero_keys(self):
        # Zero entries of either sign give zero products, which tie with
        # each other and rank after every nonzero product, lower index first.
        rng = np.random.default_rng(8)
        a, b, _ = random_block(8, 144, 64)
        zeros = np.array([0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0)])
        for v, share in ((a, 0.5), (b, 0.3)):
            mask = rng.random(v.shape) < share
            v[mask] = zeros[rng.integers(0, 4, np.count_nonzero(mask))]
        a[:, 0] = 0.0
        assert_matches_stable_sort(a, b)
        assert best_product_order(a, b)[:, 0].tolist() == list(range(144))

    @given(
        ports=st.sampled_from([1, 2, 3, 255, 256, 257]),
        trials=st.integers(1, 5),
        kind=st.sampled_from(["random", "ulps", "ties", "zeros", "nonfinite", "mixed"]),
        seed=st.integers(0, 2**32 - 1),
        head=st.sampled_from(["one", "third", "all"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_stable_sort_of_the_products(self, ports, trials, kind, seed, head):
        # The port counts 1, 2, 255, 256 and 257 sit at the edges of the bits
        # that the sort keys give the port index.
        a, b = product_block(seed, ports, trials, kind)
        count = {"one": 1, "third": max(1, ports // 3), "all": ports}[head]
        reference = np.argsort(-(np.abs(a) * np.abs(b)), axis=0, kind="stable")[:count]
        order = best_product_order(a, b, count)
        assert order.flags.c_contiguous and order.dtype == np.intp
        assert np.array_equal(order, reference)

    def test_shapes_must_match(self):
        # (3, 2) against (1, 2) would broadcast
        with pytest.raises(DomainError):
            best_product_order(np.ones((3, 2), dtype=complex), np.ones((1, 2), dtype=complex))
        with pytest.raises(DomainError):
            best_product_order(np.ones(3, dtype=complex), np.ones(3, dtype=complex))

    @pytest.mark.parametrize("count", [0, -1, 7, 2.5])
    def test_count_must_lie_in_one_to_ports(self, count):
        a, b, _ = random_block(9, 6, 4)
        with pytest.raises(DomainError):
            best_product_order(a, b, count)


class TestCascadedGain:
    def test_single_port(self):
        a = col(2.0 + 1.0j)
        b = col(1.0 - 3.0j)
        expected = abs(a[0, 0]) ** 2 * abs(b[0, 0]) ** 2
        for coherent in (False, True):
            assert cascade([coherent], a, b, b)[0][0][0] == pytest.approx(expected, rel=1e-12)

    def test_two_port_hand_case(self):
        a = col(1.0, 1.0j)
        b = col(1.0, 1.0)
        assert cascade([False], a, b, b)[0][0][0] == pytest.approx(2.0, rel=1e-12)
        assert cascade([True], a, b, b)[0][0][0] == pytest.approx(4.0, rel=1e-12)

    def test_coherent_dominates_static(self):
        for dim in range(1, 12):
            a, b, c = random_block(9 + dim, dim, 200)
            coherent = cascade([True], a, b, c)[0][0]
            static = cascade([False], a, b, c)[0][0]
            assert np.all(coherent >= static - 1e-12 * np.maximum(coherent, 1.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("zero", ["a", "b"])
    def test_zero_product_term(self, zero):
        # A zero term has no argument; its phase is 1, as exp(-1j * angle(0)).
        a, b, c = (v[:4] for v in random_block(14, 4, 3))
        (a if zero == "a" else b)[1, 0] = 0.0
        terms_b, terms_w = np.conj(b) * a, np.conj(c) * a
        expected_b = np.abs(terms_b).sum(axis=0) ** 2
        expected_w = np.abs(np.sum(np.exp(-1j * np.angle(terms_b)) * terms_w, axis=0)) ** 2
        g_b, g_w = cascade([True], a, b, c)[0]
        assert np.all(np.isfinite(g_b)) and np.all(np.isfinite(g_w))
        assert g_b == pytest.approx(expected_b, rel=1e-12)
        assert g_w == pytest.approx(expected_w, rel=1e-12)

    def test_prefix_lengths(self):
        a, b, c = random_block(15, 7, 40)
        lengths = [3, 1, 7, 3]
        for coherent in (False, True):
            g_b, g_w = cascade([coherent], a, b, c, lengths)[0]
            assert g_b.shape == g_w.shape == (4, 40)
            for row, k in enumerate(lengths):
                ref_b, ref_w = cascade([coherent], a[:k], b[:k], c[:k])[0]
                assert np.array_equal(g_b[row], ref_b) and np.array_equal(g_w[row], ref_w)
        for bad in ([0], [8], [[2]]):
            with pytest.raises(DomainError):
                cascade([True], a, b, c, bad)

    def test_full_prefixes_equal_the_running_sum(self):
        # Lengths that all take every row sum in one reduction; the running
        # sum gives the same bits.
        a, b, c = random_block(16, 9, 40)
        terms_b, terms_w = np.multiply(np.conj(b), a), np.multiply(np.conj(c), a)
        g_b, g_w = cascade([False], a, b, c, [9, 9])[0]
        assert g_b.shape == g_w.shape == (2, 40)
        assert np.array_equal(g_b, np.abs(_running_sums(terms_b)[[8, 8]]) ** 2)
        assert np.array_equal(g_w, np.abs(_running_sums(terms_w)[[8, 8]]) ** 2)
        for coherent in (False, True):
            whole, prefix = cascade([coherent], a, b, c)[0], cascade([coherent], a, b, c, [9])[0]
            assert np.array_equal(np.stack(whole), np.stack(prefix)[:, 0])

    @pytest.mark.parametrize("trials", [1, 2, 40])
    def test_shared_terms_give_each_phasing_alone(self, trials):
        # Identity and coherent phases read one set of terms; each result
        # equals a cascade of that phasing alone, and equal flags share one.
        a, b, c = random_block(17, 7, trials)
        alone = {coherent: cascade([coherent], a, b, c)[0] for coherent in (False, True)}
        flags = [True, False, True, False]
        for coherent, (g_b, g_w) in zip(flags, cascade(flags, a, b, c)):
            assert np.array_equal(g_b, alone[coherent][0]) and np.array_equal(g_w, alone[coherent][1])

    @pytest.mark.filterwarnings("error")
    def test_polar_equals_the_complex_division(self):
        # conj(t) * (1 / |t|) is numpy's conj(t) / |t| but for the sign of a
        # zero part; a zero term gets phase 1.
        terms = np.concatenate(random_block(18, 6, 50)[:2])
        terms[[0, 3, 7], [1, 4, 4]] = [0.0, complex(-0.0, 0.0), complex(0.0, -0.0)]
        terms[[1, 2], [2, 2]] = [2.5, -3.0j]  # on an axis
        magnitude = np.abs(terms)
        zero = magnitude == 0
        expected = np.conj(terms) / np.where(zero, 1.0, magnitude)
        expected[zero] = 1.0
        phases = terms.copy()
        assert np.array_equal(_polar(phases), magnitude)
        assert np.array_equal(phases, expected)

    def test_global_phase_rotation_invariance(self):
        a, b, c = (v[[0, 2, 5]] for v in random_block(10, 6, 50))
        for coherent in (False, True):
            turned = cascade([coherent], np.exp(0.73j) * a, b, c)[0]
            for base, rotated in zip(cascade([coherent], a, b, c)[0], turned):
                assert rotated == pytest.approx(base, rel=1e-12)


class TestWillieGain:
    def test_zero_phases_reduce_to_static(self):
        # with identity phases the warden's gain is the receiver formula with c for b
        a, b, c = (v[[1, 3, 4, 7]] for v in random_block(12, 8, 20))
        assert cascade([False], a, b, c)[0][1] == pytest.approx(cascade([False], a, c, c)[0][0], rel=1e-12)

    def test_single_port_phase_invariant(self):
        a = col(1.5 - 0.5j)
        c = col(0.2 + 2.0j)
        expected = abs(a[0, 0]) ** 2 * abs(c[0, 0]) ** 2
        for phase in (0.0, 1.0, -2.5):
            b = col(np.exp(1j * phase))
            assert cascade([True], a, b, c)[0][1][0] == pytest.approx(expected, rel=1e-12)

    def test_phase_length_mismatch(self):
        # the warden's rows must be the receiver's: one phase per selected port
        ones = np.ones((2, 1), dtype=complex)
        with pytest.raises(DomainError):
            cascade([True], ones, ones, np.ones((3, 1), dtype=complex))

    def test_receiver_phases_leave_warden_mean_unchanged_when_uncorrelated(self):
        # spacing of five wavelengths: residual port correlation is tiny,
        # so re-phasing toward the receiver does not move the warden's
        # mean gain (the phases are independent of the warden's fading);
        # both modes read all 8 ports, the default preset of 8
        geom = SurfaceGeometry(8, 1, 40.0, 1.0)
        mc = MCConfig(trials=200_000, master_seed=3)
        coherent, static = whole_gains(mc, geom, [(Mode.RIS, 8), (Mode.FIXED, 8)])
        ratio = coherent.g_w.mean() / static.g_w.mean()
        assert abs(ratio - 1.0) <= 0.05


class TestDrawChannel:
    def test_deterministic_given_stream_state(self, ref_geom):
        root = surface_factor(ref_geom)
        first, second = (correlated_fading(root, np.random.default_rng(77), 64) for _ in range(2))
        for u, v in zip(first, second):
            assert np.array_equal(u, v)
        assert np.array_equal(best_product_order(*first[:2]), best_product_order(*second[:2]))

    def test_best_product_dominates_fixed_per_draw(self, ref_geom):
        a, b, c = correlated_fading(surface_factor(ref_geom), np.random.default_rng(0), 20)
        rows = best_product_order(a, b)[:36]
        best = cascade([True], *(np.take_along_axis(v, rows, axis=0) for v in (a, b, c)))[0][0]
        preset = default_fixed_preset(ref_geom, 36)
        fixed = cascade([True], a[preset], b[preset], c[preset])[0][0]
        assert np.all(best >= fixed) and np.all(fixed >= 0.0)

    def test_gains_are_nonnegative_and_shared_selection(self, ref_geom):
        # the warden's gain is taken over the receiver's 16 best ports
        a, b, c = first_block(ref_geom, 5, 50)
        rows = best_product_order(a, b)[:16]
        assert all(np.unique(rows[:, k]).size == 16 for k in range(50))
        g_b, g_w = cascade([True], *(np.take_along_axis(v, rows, axis=0) for v in (a, b, c)))[0]
        gains = whole_gains(MCConfig(trials=50, master_seed=5), ref_geom, [(Mode.FRIS, 16)])[0]
        assert np.array_equal(gains.g_b, g_b)
        assert np.array_equal(gains.g_w, g_w)
        assert np.all(gains.g_b >= 0.0) and np.all(gains.g_w >= 0.0)

    def test_static_mean_matches_trace_bridge(self, ref_geom, ref_corr):
        # mean of the fixed preset's gain (identity phases) approaches tr(C^2)
        ports = default_fixed_preset(ref_geom, 36)
        active = ref_corr[np.ix_(ports, ports)]
        expected = float(np.trace(active @ active))
        gains = whole_gains(MCConfig(trials=200_000, master_seed=8), ref_geom, [(Mode.FIXED, 36)])[0]
        assert abs(gains.g_b.mean() - expected) / expected <= 0.025


class TestRisBaseline:
    def test_grid_factorization(self, ref_geom):
        grid = ris_grid_geometry(ref_geom, 36)
        assert (grid.m_x, grid.m_z) == (6, 6)
        assert (grid.w_x, grid.w_z) == (ref_geom.w_x, ref_geom.w_z)

    def test_single_element(self, ref_geom):
        grid = ris_grid_geometry(ref_geom, 1)
        a, b, _ = first_block(grid, 1, 100)
        expected = np.abs(a[0]) ** 2 * np.abs(b[0]) ** 2
        gains = whole_gains(MCConfig(trials=100, master_seed=1), grid, [(Mode.RIS, 1)])[0]
        assert gains.g_b == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("m_x, m_z, m_hat, paired", [
        (12, 12, 36, True), (12, 12, 16, True), (12, 12, 4, True), (12, 12, 144, True),
        (12, 12, 10, False), (12, 3, 36, True), (12, 3, 9, False), (4, 8, 16, False),
        (8, 2, 4, False), (6, 1, 6, True),
    ])
    def test_grid_matches_fixed_sublattice_correlation(self, m_x, m_z, m_hat, paired):
        # the baseline runs on the fluid surface's draws only where the
        # preset it reads occupies the grid's positions, so that the
        # correlation matrices (hence the gain distributions) coincide
        geom = SurfaceGeometry(m_x, m_z, 2.0, 2.0)
        surface, *selection = _mode_config(Mode.RIS, geom, ScenarioConfig(m_o=1, m_hat=m_hat))
        assert selection == [Mode.RIS, m_hat]
        assert (surface == geom) == paired
        if paired:
            baseline = ris_grid_geometry(geom, m_hat)
            baseline_corr = correlation_matrix(baseline, np.arange(baseline.num_elements))
            ports = default_fixed_preset(geom, m_hat)
            preset_corr = correlation_matrix(geom, np.arange(geom.num_elements))[np.ix_(ports, ports)]
            assert np.max(np.abs(baseline_corr - preset_corr)) <= 1e-12
        else:
            assert surface == ris_grid_geometry(geom, m_hat)

    def test_density_cap(self, ref_geom):
        # a baseline grid has no more elements than the surface it runs on
        mc = MCConfig(trials=10, master_seed=1)
        with pytest.raises(DomainError):
            whole_gains(mc, ref_geom, [(Mode.RIS, 145)])
        with pytest.raises(DomainError):
            whole_gains(mc, ris_grid_geometry(ref_geom, 16), [(Mode.RIS, 20)])

    def test_fluid_selection_beats_baseline_mean(self, ref_geom):
        # paired draws: same fading, best-product selection vs the
        # 36-element sublattice (== baseline grid) with coherent phases
        mc = MCConfig(trials=20_000, master_seed=21)
        best = whole_gains(mc, ref_geom, [(Mode.FRIS, 36)])[0]
        lattice = whole_gains(mc, ref_geom, [(Mode.RIS, 36)])[0]
        assert np.all(best.g_b >= lattice.g_b)
        assert best.g_b.mean() >= lattice.g_b.mean()


class TestBobPhases:
    def test_coherent_phases_align_terms(self):
        # toward a warden with the receiver's own channel, every aligned
        # term adds in phase: the warden's gain is the receiver's
        a, b, _ = (v[[0, 2, 3]] for v in random_block(31, 5, 30))
        g_b, g_w = cascade([True], a, b, b)[0]
        assert g_w == pytest.approx(g_b, rel=1e-12)
        assert g_b == pytest.approx(np.sum(np.abs(a) * np.abs(b), axis=0) ** 2, rel=1e-12)

    def test_static_phases_are_zero(self):
        a, b, c = random_block(32, 4, 10)
        assert np.array_equal(cascade([False], a, b, c)[0][1], np.abs(np.sum(np.conj(c) * a, axis=0)) ** 2)
