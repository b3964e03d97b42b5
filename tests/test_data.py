import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oodlab.data import (
    DatasetSpec,
    LabeledBatch,
    OutlierPool,
    check_spec,
    gen_gaussian_mixture,
    gen_low_frequency_noise,
    gen_ring,
    gen_uniform_noise,
    generate_dataset,
    load_csv,
    sample_few_shots,
    save_csv,
)


class TestGaussianMixture:
    def test_single_tight_component(self):
        spec = DatasetSpec(kind="gaussian-mixture", dim=2, size=50, seed=0, means=[[0.0, 0.0]], cov_scale=1e-3)
        batch = gen_gaussian_mixture(spec)
        assert np.all(np.linalg.norm(batch.inputs, axis=1) < 0.01)
        assert np.all(batch.labels == 0)

    def test_seeded_determinism(self):
        spec = DatasetSpec(kind="gaussian-mixture", dim=2, size=60, seed=3, means=[[0, 1], [1, 0]], cov_scale=0.2)
        a, b = gen_gaussian_mixture(spec), gen_gaussian_mixture(spec)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_component_means_recovered(self):
        means = [[0.0, 2.0], [2.0, 0.0], [-2.0, 0.0]]
        spec = DatasetSpec(kind="gaussian-mixture", dim=2, size=3000, seed=9, means=means, cov_scale=0.3)
        batch = gen_gaussian_mixture(spec)
        for i, mean in enumerate(means):
            empirical = batch.inputs[batch.labels == i].mean(axis=0)
            assert np.linalg.norm(empirical - mean) < 0.1

    def test_equal_cluster_sizes(self):
        spec = DatasetSpec(kind="gaussian-mixture", dim=2, size=90, seed=1, means=[[0, 0], [1, 1], [2, 2]])
        batch = gen_gaussian_mixture(spec)
        assert [int((batch.labels == i).sum()) for i in range(3)] == [30, 30, 30]

    def test_requires_components(self):
        with pytest.raises(ValueError, match="component"):
            gen_gaussian_mixture(DatasetSpec(kind="gaussian-mixture", dim=2, size=10, means=[]))


class TestRing:
    def test_radii_within_bounds(self):
        spec = DatasetSpec(kind="ring", dim=2, size=500, seed=2, r_inner=0.5, r_outer=0.9)
        pool = gen_ring(spec)
        radii = np.linalg.norm(pool.inputs, axis=1)
        assert radii.min() >= 0.5 and radii.max() <= 0.9

    def test_degenerate_radius(self):
        spec = DatasetSpec(kind="ring", dim=2, size=100, seed=2, r_inner=0.7, r_outer=0.7)
        radii = np.linalg.norm(gen_ring(spec).inputs, axis=1)
        np.testing.assert_allclose(radii, 0.7, atol=1e-12)

    def test_center_offset(self):
        spec = DatasetSpec(kind="ring", dim=2, size=100, seed=2, r_inner=0.4, r_outer=0.5, center=[3.0, -1.0])
        radii = np.linalg.norm(gen_ring(spec).inputs - [3.0, -1.0], axis=1)
        assert radii.min() >= 0.4 and radii.max() <= 0.5

    def test_invalid_radii(self):
        with pytest.raises(ValueError, match="radii"):
            gen_ring(DatasetSpec(kind="ring", dim=2, size=10, r_inner=1.0, r_outer=0.5))

    def test_angular_uniformity_chi_square(self):
        spec = DatasetSpec(kind="ring", dim=2, size=10_000, seed=4, r_inner=0.8, r_outer=1.0)
        pool = gen_ring(spec)
        angles = np.arctan2(pool.inputs[:, 1], pool.inputs[:, 0])
        counts, _ = np.histogram(angles, bins=16, range=(-np.pi, np.pi))
        expected = len(pool.inputs) / 16
        chi2 = ((counts - expected) ** 2 / expected).sum()
        # chi-square with 15 dof: 0.999 quantile is about 37.7
        assert chi2 < 37.7


class TestUniformNoise:
    def test_inside_box_and_seeded(self):
        spec = DatasetSpec(kind="uniform-noise", dim=3, size=400, seed=5, box_lo=-2.0, box_hi=2.0)
        a, b = gen_uniform_noise(spec), gen_uniform_noise(spec)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        assert a.inputs.min() >= -2.0 and a.inputs.max() <= 2.0

    def test_per_dimension_mean_near_box_center(self):
        spec = DatasetSpec(kind="uniform-noise", dim=2, size=100_000, seed=6, box_lo=0.0, box_hi=1.0)
        means = gen_uniform_noise(spec).inputs.mean(axis=0)
        assert np.all(np.abs(means - 0.5) < 0.02)

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError, match="box"):
            gen_uniform_noise(DatasetSpec(kind="uniform-noise", dim=2, size=10, box_lo=1.0, box_hi=1.0))


class TestLowFrequencyNoise:
    def _normals(self, d=8, n=200, seed=0):
        means = [list(np.zeros(d))]
        return gen_gaussian_mixture(DatasetSpec(kind="gaussian-mixture", dim=d, size=n, seed=seed, means=means, cov_scale=0.1))

    def test_zero_amplitude_returns_normal_rows(self):
        normals = self._normals()
        spec = DatasetSpec(kind="low-frequency-noise", dim=8, size=50, seed=1, amplitude=0.0, window=4)
        pool = gen_low_frequency_noise(spec, normals)
        # every output row is exactly one of the normal rows
        for row in pool.inputs:
            assert np.any(np.all(normals.inputs == row, axis=1))

    def test_full_window_gives_constant_perturbation(self):
        normals = self._normals(d=4)
        spec = DatasetSpec(kind="low-frequency-noise", dim=4, size=30, seed=2, amplitude=1.0, window=4)
        pool = gen_low_frequency_noise(spec, normals)
        rng = np.random.default_rng(2)
        rows = rng.integers(0, len(normals), 30)
        perturbation = pool.inputs - normals.inputs[rows]
        spread = perturbation.max(axis=1) - perturbation.min(axis=1)
        np.testing.assert_allclose(spread, 0.0, atol=1e-12)

    def test_power_spectrum_concentrates_in_low_frequencies(self):
        d, n = 64, 400
        normals = self._normals(d=d, n=n)
        spec = DatasetSpec(kind="low-frequency-noise", dim=d, size=n, seed=3, amplitude=1.0, window=8)
        pool = gen_low_frequency_noise(spec, normals)
        rng = np.random.default_rng(3)
        rows = rng.integers(0, len(normals), n)
        smoothed = pool.inputs - normals.inputs[rows]
        raw = np.random.default_rng(99).standard_normal((n, d))

        def low_band_fraction(signal):
            power = np.abs(np.fft.rfft(signal, axis=1)) ** 2
            return power[:, : power.shape[1] // 4].sum() / power.sum()

        assert low_band_fraction(smoothed) > 0.8
        assert low_band_fraction(smoothed) > low_band_fraction(raw) + 0.3

    def test_window_validation(self):
        normals = self._normals(d=4)
        spec = DatasetSpec(kind="low-frequency-noise", dim=4, size=10, seed=1, amplitude=1.0, window=5)
        with pytest.raises(ValueError, match="window"):
            gen_low_frequency_noise(spec, normals)

    def test_generate_dataset_requires_base_normals(self):
        spec = DatasetSpec(kind="low-frequency-noise", dim=4, size=10, seed=1)
        with pytest.raises(ValueError, match="base normal"):
            generate_dataset(spec)


class TestSampleFewShots:
    def _pool(self, m=20):
        return OutlierPool(np.arange(m * 2, dtype=float).reshape(m, 2))

    def test_zero_shot_gives_empty_pool(self):
        subset = sample_few_shots(self._pool(), 0, seed=1)
        assert subset.size == 0

    def test_full_sample_is_whole_pool(self):
        pool = self._pool()
        subset = sample_few_shots(pool, pool.size, seed=2)
        assert {tuple(r) for r in subset.inputs} == {tuple(r) for r in pool.inputs}

    def test_seeded_determinism(self):
        pool = self._pool()
        a = sample_few_shots(pool, 5, seed=(7, 5))
        b = sample_few_shots(pool, 5, seed=(7, 5))
        np.testing.assert_array_equal(a.inputs, b.inputs)

    def test_oversample_rejected(self):
        with pytest.raises(ValueError, match="cannot sample"):
            sample_few_shots(self._pool(), 21, seed=0)

    def test_inclusion_frequencies_are_uniform(self):
        pool = self._pool(m=20)
        n, trials = 5, 2000
        hits = np.zeros(20)
        for t in range(trials):
            subset = sample_few_shots(pool, n, seed=t)
            idx = (subset.inputs[:, 0] / 2).astype(int)
            hits[idx] += 1
        p = n / 20
        sigma = np.sqrt(p * (1 - p) / trials)
        np.testing.assert_array_less(np.abs(hits / trials - p), 3 * sigma + 1e-12)


class TestCsv:
    def test_round_trip_unlabeled(self, tmp_path):
        pool = OutlierPool(np.random.default_rng(0).normal(size=(17, 3)))
        path = tmp_path / "pool.csv"
        save_csv(pool, path)
        loaded = load_csv(path)
        assert isinstance(loaded, OutlierPool)
        np.testing.assert_array_equal(loaded.inputs, pool.inputs)

    def test_round_trip_labeled(self, tmp_path):
        batch = LabeledBatch(np.random.default_rng(1).normal(size=(9, 2)), np.arange(9) % 3)
        path = tmp_path / "batch.csv"
        save_csv(batch, path)
        loaded = load_csv(path)
        assert isinstance(loaded, LabeledBatch)
        np.testing.assert_array_equal(loaded.inputs, batch.inputs)
        np.testing.assert_array_equal(loaded.labels, batch.labels)
        assert path.read_text().splitlines()[0] == "x0,x1,label"

    def test_header_without_label_gives_pool(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("x0,x1\n0.5,1.5\n", encoding="utf-8")
        assert isinstance(load_csv(path), OutlierPool)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x0,x1\n1,2\n3,4\n5,6\n7\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 5"):
            load_csv(path)

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "alpha.csv"
        path.write_text("x0\n1.0\nbanana\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(path)

    def test_non_finite_value_names_line(self, tmp_path):
        path = tmp_path / "hole.csv"
        path.write_text("x0,x1,label\n1.0,2.0,0\n3.0,nan,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3: non-finite"):
            load_csv(path)

    @settings(max_examples=40, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(0, 6), st.integers(1, 4)),
            elements=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0, 5e-324, -1e-310]),
        ),
        st.booleans(),
    )
    def test_round_trip_is_bit_exact(self, inputs, labeled):
        batch = LabeledBatch(inputs, np.arange(len(inputs)) % 3) if labeled else OutlierPool(inputs)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            save_csv(batch, path)
            loaded = load_csv(path)
        assert isinstance(loaded, type(batch))
        assert loaded.inputs.shape == inputs.shape
        assert loaded.inputs.tobytes() == inputs.tobytes()
        if labeled:
            np.testing.assert_array_equal(loaded.labels, batch.labels)

    @settings(max_examples=60, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(0, 6), st.integers(1, 4)),
            elements=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 1e300, -1e-300]),
        ),
        st.none() | st.lists(st.integers(-(2**31), 2**31), min_size=6, max_size=6),
    )
    def test_bytes_equal_a_per_value_formatter(self, inputs, labels):
        """save_csv writes what formatting each value alone writes: 17
        significant digits per float, a label as its integer."""
        n, d = inputs.shape
        batch = OutlierPool(inputs) if labels is None else LabeledBatch(inputs, labels[:n])
        lines = [",".join([f"x{i}" for i in range(d)] + ([] if labels is None else ["label"]))]
        for r in range(n):
            lines.append(",".join([format(v, ".17g") for v in inputs[r]] + ([] if labels is None else [str(labels[r])])))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            save_csv(batch, path)
            assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "void.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty"):
            load_csv(path)


def test_dataset_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        DatasetSpec(kind="moons")
    with pytest.raises(ValueError, match="size"):
        DatasetSpec(kind="ring", size=0)


def test_negative_seed_is_rejected_naming_the_field():
    spec = DatasetSpec(kind="ring", seed=-1)
    with pytest.raises(ValueError, match="^seed: must be >= 0, got -1"):
        check_spec(spec)
    with pytest.raises(ValueError, match="^seed: must be >= 0"):
        generate_dataset(spec)


_NON_FINITE_FIELDS = [
    ("means", [[0.0, float("nan")]]),
    ("cov_scale", float("inf")),
    ("r_inner", float("nan")),
    ("r_outer", float("inf")),
    ("center", [0.0, float("-inf")]),
    ("box_lo", float("-inf")),
    ("box_hi", float("nan")),
    ("amplitude", float("inf")),
]


@pytest.mark.parametrize("field,value", _NON_FINITE_FIELDS)
def test_non_finite_spec_value_names_field(field, value):
    with pytest.raises(ValueError, match=f"'{field}' has a non-finite value"):
        DatasetSpec(**{"kind": "gaussian-mixture", "means": [[0.0, 0.0]], field: value})
    spec = DatasetSpec(kind="ring")
    setattr(spec, field, value)
    with pytest.raises(ValueError, match=f"'{field}' has a non-finite value"):
        generate_dataset(spec)
