import numpy as np
import pytest

import oracles
from kpivae import concepts, data, vae
from kpivae.errors import ValidationError
from kpivae.vae import ArchConfig, LatentConfig, TrainConfig


def toy_setup(seed=7, elements=6, days=40):
    cfg = data.SynthConfig(
        element_count=elements,
        days=days,
        cluster_profiles=data.default_profiles(2),
        anomaly_rate=0.0,
        rng_seed=seed,
    )
    records, _ = data.synth_generate(cfg)
    stats = data.fit_normalization(records)
    model = concepts.scale_centroids(
        concepts.kmeans_fit(concepts.element_profiles(records, stats), 2, seed=0)
    )
    windows = data.window_sequences(records, 10, stride=10, stats=stats)
    ids = sorted({w.element_id for w in windows})
    is_val = np.array([w.element_id == ids[-1] for w in windows])
    return windows[~is_val], windows[is_val], model


def quick_cfg(**kw):
    base = dict(batch_size=4, max_epochs=3, patience=3, seed=5)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_history_schema_and_length(self):
        train_w, val_w, model = toy_setup()
        arch = ArchConfig(hidden=6)
        params, history = vae.train(train_w, val_w, model, quick_cfg(), arch=arch)
        assert 1 <= len(history) <= 3
        for i, row in enumerate(history):
            assert row["epoch"] == i
            assert set(row) == {"epoch", "train_loss", "train_kl", "train_loglik", "val_loss"}
            assert row["train_loss"] == pytest.approx(
                row["train_kl"] - row["train_loglik"], abs=1e-12
            )

    def test_repeat_runs_bit_identical(self, tmp_path):
        train_w, val_w, model = toy_setup()
        arch = ArchConfig(hidden=6)
        outs = []
        for tag in ("a", "b"):
            params, history = vae.train(train_w, val_w, model, quick_cfg(), arch=arch)
            path = tmp_path / f"{tag}.ckpt"
            vae.save_checkpoint(params, path)
            outs.append((history, path.read_bytes()))
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]

    def test_seed_changes_trajectory(self):
        train_w, val_w, model = toy_setup()
        arch = ArchConfig(hidden=6)
        _, h1 = vae.train(train_w, val_w, model, quick_cfg(seed=5), arch=arch)
        _, h2 = vae.train(train_w, val_w, model, quick_cfg(seed=6), arch=arch)
        assert h1[0]["val_loss"] != h2[0]["val_loss"]

    def test_kl_only_objective_pushes_kl_down(self):
        train_w, val_w, model = toy_setup()
        arch = ArchConfig(hidden=6)
        cfg = quick_cfg(recon_weight=0.0, max_epochs=8, learning_rate=3e-3)
        _, history = vae.train(train_w, val_w, model, cfg, arch=arch)
        assert history[-1]["train_kl"] < history[0]["train_kl"]

    def test_vanishing_lr_stops_after_patience(self):
        # steps of 1e-30 are below the resolution of the weights, so params never move,
        # val loss is constant and early stopping must fire exactly
        train_w, val_w, model = toy_setup()
        arch = ArchConfig(hidden=6)
        cfg = quick_cfg(learning_rate=1e-30, max_epochs=50, patience=4)
        _, history = vae.train(train_w, val_w, model, cfg, arch=arch)
        assert len(history) == 5
        vals = {row["val_loss"] for row in history}
        assert len(vals) == 1

    def test_steps_meet_no_float64(self, monkeypatch):
        # every training step and Adam update runs on checked float32 views
        step = vae.objective_and_grads

        def checked(params, x, prior_means, prior_std, recon_weight, eps):
            view = lambda a: a.view(oracles.NoFloat64)  # noqa: E731
            params = vae.VaeParams(params.arch, params.latent, view(params.flat), params.seed)
            return step(params, view(x), view(prior_means), prior_std, recon_weight, view(eps))

        monkeypatch.setattr(vae, "objective_and_grads", checked)
        train_w, val_w, model = toy_setup()
        arch = ArchConfig(hidden=6)
        _, history = vae.train(train_w, val_w, model, quick_cfg(max_epochs=1), arch=arch)
        assert len(history) == 1

    def test_returns_best_validation_params(self):
        train_w, val_w, model = toy_setup()
        arch = ArchConfig(hidden=6)
        latent = LatentConfig()
        cfg = quick_cfg(max_epochs=6, patience=6)
        params, history = vae.train(train_w, val_w, model, cfg, arch=arch, latent=latent)

        # rebuild the fixed validation noise from the documented stream layout
        val_ss = np.random.SeedSequence(cfg.seed).spawn(4)[3]
        x_val = val_w.values
        p_val = vae.prior_table(model, latent)[vae.window_clusters(val_w, model.assignment)]
        val_eps = np.random.default_rng(val_ss).standard_normal(
            (1,) + x_val.shape[:2] + (latent.total,)
        )
        # training validates in the compute dtype; the float64 upcast of the
        # returned tensors casts back to it exactly
        _, _, kl_ts, ll_ts = vae.batch_components(
            params.in_compute_dtype(), x_val, p_val, latent.prior_std, val_eps
        )
        got = float(kl_ts.mean() - ll_ts.mean())
        assert got == pytest.approx(min(r["val_loss"] for r in history), abs=1e-12)

    def test_empty_sets_rejected(self):
        train_w, val_w, model = toy_setup()
        with pytest.raises(ValidationError, match="training set"):
            vae.train(train_w[:0], val_w, model, quick_cfg())
        with pytest.raises(ValidationError, match="validation"):
            vae.train(train_w, val_w[:0], model, quick_cfg())

    def test_unassigned_element_rejected(self):
        train_w, val_w, model = toy_setup()
        stray = ("ghost", 1, train_w[0].values)
        specs = [(w.element_id, w.start_date, w.values) for w in train_w] + [stray]
        with pytest.raises(ValidationError, match="ghost"):
            vae.train(oracles.windows_of(specs), val_w, model, quick_cfg())

    def test_invalid_config_rejected(self):
        train_w, val_w, model = toy_setup()
        with pytest.raises(Exception):
            vae.train(train_w, val_w, model, quick_cfg(learning_rate=0.0))


class TestLearnedStructure:
    def test_validation_loss_improves(self, tiny_pipeline):
        history = tiny_pipeline.history
        assert min(r["val_loss"] for r in history) < history[0]["val_loss"]

    def test_concept_dims_separate_clusters(self, tiny_pipeline):
        tp = tiny_pipeline
        latent = LatentConfig()
        mu, _ = vae.encode_windows(tp.params, tp.windows)
        by_cluster = {0: [], 1: []}
        for w, m in zip(tp.windows, mu):
            c = tp.model.assignment[w.element_id]
            by_cluster[c].append(m[:, : latent.concept_dims].mean(axis=0))
        centers = {c: np.mean(v, axis=0) for c, v in by_cluster.items()}
        gap = np.abs(centers[0] - centers[1]).max()
        assert gap > 1.0 * latent.prior_std
