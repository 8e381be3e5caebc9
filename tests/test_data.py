"""Tests for synthetic benchmark generation, dataset files, and batching."""

import numpy as np
import pytest

from lddg.data import (
    DomainDataset,
    SyntheticConfig,
    _domain_map,
    _orthonormal_columns,
    generate_synthetic,
    load_dataset,
    sample_batches,
    save_dataset,
    true_latent_matrix,
)
from lddg.linalg import svd

SMALL = SyntheticConfig(
    num_domains=2,
    num_classes=2,
    feature_dim=8,
    latent_dim_true=4,
    samples_per_domain_class=5,
    target_samples_per_class=6,
    domain_scales=(1.0, 1.2),
    target_mixture=(0.6, 0.4),
)


class TestGenerateSynthetic:
    def test_default_shapes_and_counts(self):
        sources, target = generate_synthetic(SyntheticConfig())
        assert len(sources) == 3 * 4 * 50
        assert len(target) == 4 * 400
        assert sources.features.shape == (600, 16)
        assert target.num_domains == 1
        np.testing.assert_array_equal(np.unique(sources.domain_ids), [0, 1, 2])
        np.testing.assert_array_equal(np.unique(sources.labels), [0, 1, 2, 3])
        # balanced cells
        for k in range(3):
            for c in range(4):
                assert np.sum((sources.domain_ids == k) & (sources.labels == c)) == 50

    def test_deterministic_in_seed(self):
        a_src, a_tgt = generate_synthetic(SMALL)
        b_src, b_tgt = generate_synthetic(SMALL)
        np.testing.assert_array_equal(a_src.features, b_src.features)
        np.testing.assert_array_equal(a_tgt.features, b_tgt.features)
        c_src, _ = generate_synthetic(
            SyntheticConfig(**{**SMALL.__dict__, "seed": 1})
        )
        assert not np.array_equal(a_src.features, c_src.features)

    def test_target_size_does_not_perturb_sources(self):
        # Separate named seed streams: drawing more target samples must leave
        # the source data bit-identical.
        a_src, _ = generate_synthetic(SMALL)
        bigger = SyntheticConfig(**{**SMALL.__dict__, "target_samples_per_class": 50})
        b_src, b_tgt = generate_synthetic(bigger)
        np.testing.assert_array_equal(a_src.features, b_src.features)
        assert len(b_tgt) == 2 * 50

    def test_noiseless_cells_collapse_to_points(self):
        cfg = SyntheticConfig(**{**SMALL.__dict__, "noise_std": 0.0})
        sources, _ = generate_synthetic(cfg)
        for k in range(cfg.num_domains):
            for c in range(cfg.num_classes):
                rows = sources.features[
                    (sources.domain_ids == k) & (sources.labels == c)
                ]
                np.testing.assert_array_equal(rows, np.tile(rows[0], (len(rows), 1)))


class TestTrueLatentMatrix:
    def test_shape_and_domain_scaling(self):
        cfg = SyntheticConfig()
        z = true_latent_matrix(cfg)
        assert z.shape == (3 * 4, 8)
        # rows of domain k are alpha_k / alpha_0 times the rows of domain 0
        for k in range(1, 3):
            np.testing.assert_allclose(
                z[k * 4 : (k + 1) * 4],
                cfg.domain_scales[k] / cfg.domain_scales[0] * z[0:4],
                atol=1e-12,
            )

    def test_rank_bounded_by_class_count(self):
        # Stacked noiseless per-class latents across domains never exceed
        # rank C, whatever the number of domains.
        rng = np.random.default_rng(0)
        for _ in range(5):
            k_dom = int(rng.integers(2, 6))
            cfg = SyntheticConfig(
                num_domains=k_dom,
                num_classes=3,
                feature_dim=12,
                latent_dim_true=6,
                domain_scales=tuple(rng.uniform(0.5, 2.0, k_dom)),
                target_mixture=tuple(np.full(k_dom, 1.0 / k_dom)),
                seed=int(rng.integers(1000)),
            )
            sigma = svd(true_latent_matrix(cfg)).sigma
            assert sigma[3] < 1e-10


class TestDomainMapConstruction:
    def test_columns_scaled_orthonormal(self):
        # The embedding is orthonormal columns times per-column scalings, so
        # A^T A must be exactly diag(scales^2) for any mixing angle.
        rng = np.random.default_rng(1)
        frame = _orthonormal_columns(rng, 14, 10)
        u_shared, u_private = frame[:, :5], frame[:, 5:]
        rot = _orthonormal_columns(rng, 5, 5)
        scales = rng.uniform(0.5, 2.0, 5)
        for angle in (0.0, 0.4, np.pi / 2):
            a = _domain_map(u_shared, u_private, rot, scales, angle)
            np.testing.assert_allclose(a.T @ a, np.diag(scales**2), atol=1e-12)

    def test_orthonormal_columns_validation(self):
        with pytest.raises(ValueError):
            _orthonormal_columns(np.random.default_rng(0), 3, 5)


class TestConfigValidation:
    def base(self, **kw):
        return SyntheticConfig(**{**SMALL.__dict__, **kw})

    def test_rejects_bad_configs(self):
        bad = [
            dict(latent_dim_true=1),  # fewer latent dims than classes
            dict(feature_dim=7),  # needs >= 2 * latent_dim_true
            dict(domain_scales=(1.0,)),  # wrong length
            dict(target_mixture=(1.0,)),  # wrong length
            dict(target_mixture=(-0.1, 1.1)),  # negative weight
            dict(target_mixture=(0.8, 0.8)),  # ||beta||_1 > 1
            dict(target_mixture=(0.0, 0.0)),  # no mass
            dict(noise_std=-1.0),
            dict(samples_per_domain_class=0),
            dict(num_classes=1, target_mixture=(0.5, 0.5)),
        ]
        for kw in bad:
            with pytest.raises(ValueError):
                self.base(**kw)


class TestDatasetValidation:
    def test_rejects_inconsistent_arrays(self):
        ok = dict(
            num_domains=1,
            num_classes=2,
            feature_dim=3,
            features=np.zeros((4, 3)),
            labels=np.array([0, 1, 0, 1]),
            domain_ids=np.zeros(4, dtype=int),
        )
        DomainDataset(**ok)
        with pytest.raises(ValueError):
            DomainDataset(**{**ok, "labels": np.array([0, 1, 2, 1])})
        with pytest.raises(ValueError):
            DomainDataset(**{**ok, "domain_ids": np.ones(4, dtype=int)})
        with pytest.raises(ValueError):
            DomainDataset(**{**ok, "features": np.zeros((4, 2))})
        with pytest.raises(ValueError):
            DomainDataset(**{**ok, "features": np.full((4, 3), np.inf)})
        with pytest.raises(ValueError):
            DomainDataset(**{**ok, "labels": np.array([0, 1])})


class TestDatasetFiles:
    def test_round_trip_is_exact(self, tmp_path):
        sources, target = generate_synthetic(SMALL)
        for name, ds in (("src", sources), ("tgt", target)):
            path = tmp_path / f"{name}.txt"
            save_dataset(path, ds)
            loaded = load_dataset(path)
            np.testing.assert_array_equal(loaded.features, ds.features)
            np.testing.assert_array_equal(loaded.labels, ds.labels)
            np.testing.assert_array_equal(loaded.domain_ids, ds.domain_ids)
            assert loaded.num_domains == ds.num_domains
            assert loaded.num_classes == ds.num_classes
            assert loaded.feature_dim == ds.feature_dim

    def test_save_load_save_is_byte_identical(self, tmp_path):
        sources, _ = generate_synthetic(SMALL)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_dataset(p1, sources)
        save_dataset(p2, load_dataset(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_errors_name_the_line(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="line 1"):
            load_dataset(path)
        path.write_text("WRONG 1 1 2 3 0\n")
        with pytest.raises(ValueError, match="line 1"):
            load_dataset(path)
        path.write_text("LDDG-DS 9 1 2 3 0\n")
        with pytest.raises(ValueError, match="version"):
            load_dataset(path)
        path.write_text("LDDG-DS 1 1 2 3 2\n0 0 1.0 2.0 3.0\n")
        with pytest.raises(ValueError, match="2 records"):
            load_dataset(path)
        path.write_text("LDDG-DS 1 1 2 3 1\n0 0 1.0 2.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_dataset(path)
        path.write_text("LDDG-DS 1 1 2 3 1\n0 0 1.0 oops 3.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_dataset(path)

    def test_out_of_range_record_rejected(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("LDDG-DS 1 1 2 3 1\n0 5 1.0 2.0 3.0\n")
        with pytest.raises(ValueError, match="label"):
            load_dataset(path)


class TestSampleBatches:
    def test_every_index_visited_once(self):
        sources, _ = generate_synthetic(SMALL)
        batches = sample_batches(sources, 4, seed=0, epoch=0)
        seen = np.sort(np.concatenate(batches))
        np.testing.assert_array_equal(seen, np.arange(len(sources)))

    def test_per_domain_composition(self):
        sources, _ = generate_synthetic(SMALL)  # 10 rows per domain
        batches = sample_batches(sources, 4, seed=0, epoch=0)
        assert len(batches) == 3  # ceil(10 / 4)
        for batch in batches:
            for k in range(2):
                assert np.sum(sources.domain_ids[batch] == k) <= 4
        # ragged tail: 10 = 4 + 4 + 2 per domain
        assert len(batches[-1]) == 2 * 2

    def test_reshuffled_each_epoch_and_deterministic(self):
        sources, _ = generate_synthetic(SMALL)
        e0 = sample_batches(sources, 4, seed=0, epoch=0)
        e0_again = sample_batches(sources, 4, seed=0, epoch=0)
        e1 = sample_batches(sources, 4, seed=0, epoch=1)
        for a, b in zip(e0, e0_again):
            np.testing.assert_array_equal(a, b)
        assert any(not np.array_equal(a, b) for a, b in zip(e0, e1))

    def test_unbalanced_domains(self):
        ds = DomainDataset(
            num_domains=2,
            num_classes=2,
            feature_dim=2,
            features=np.zeros((25, 2)),
            labels=np.zeros(25, dtype=int),
            domain_ids=np.concatenate([np.zeros(5, int), np.ones(20, int)]),
        )
        batches = sample_batches(ds, 8, seed=3, epoch=0)
        assert len(batches) == 3  # driven by the largest domain
        seen = np.sort(np.concatenate(batches))
        np.testing.assert_array_equal(seen, np.arange(25))

    def test_batch_size_validated(self):
        sources, _ = generate_synthetic(SMALL)
        with pytest.raises(ValueError):
            sample_batches(sources, 0, seed=0, epoch=0)
