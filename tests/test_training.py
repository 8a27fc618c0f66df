import threading
import tracemalloc

import numpy as np
import pytest

import oracles
from kpivae import anomaly, concepts, data, nn, vae
from kpivae.errors import ValidationError
from kpivae.vae import ArchConfig, LatentConfig, TrainConfig


def toy_setup(seed=7, elements=6, days=40, window=10):
    cfg = data.SynthConfig(
        elements=elements,
        days=days,
        clusters=2,
        anomaly_rate=0.0,
        seed=seed,
    )
    records, _ = data.synth_generate(cfg)
    stats = data.fit_normalization(records)
    model = concepts.kmeans_fit(concepts.element_profiles(records, stats), 2, seed=0)
    windows = data.window_sequences(records, window, stride=window, stats=stats)
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

    def test_int_prior_std_trains_and_scores_like_the_equal_float(self):
        train_w, val_w, model = toy_setup()
        arch = ArchConfig(hidden=6)
        runs = []
        # 2**32 squared does not fit in an int64
        for std in (2**32, float(2**32)):
            latent = LatentConfig(prior_std=std)
            params, history = vae.train(train_w, val_w, model, quick_cfg(), arch=arch, latent=latent)
            stats = anomaly.fit_latent_stats(params, train_w, model.assignment)
            report = anomaly.detect(params, val_w, model, stats, eval_samples=2)
            runs.append((params.flat, history, report.loss, report.z))
        (flat, history, loss, z), (flat_f, history_f, loss_f, z_f) = runs
        assert history == history_f
        assert np.array_equal(flat, flat_f)
        assert np.array_equal(loss, loss_f) and np.array_equal(z, z_f)

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

        def checked(params, x, prior_means, prior_std, recon_weight, eps, ws):
            view = lambda a: a.view(oracles.NoFloat64)  # noqa: E731
            params = vae.VaeParams(params.arch, params.latent, view(params.flat))
            return step(params, view(x), view(prior_means), prior_std, recon_weight, view(eps), ws)

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



class TestOneTrainingThread:
    """The backward pass runs on the caller's thread alone: `train` starts
    no thread at any usable CPU count, and an error raised inside the pass
    reaches the caller and leaves no thread behind. Batches of 64 windows of
    32 steps."""

    def threads_started(self, monkeypatch, cpus):
        train_w, val_w, model = toy_setup(elements=8, days=320, window=32)
        monkeypatch.setattr(vae, "_worker_count", lambda: cpus)
        started = []
        real = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: (started.append(t), real(t)))
        vae.train(train_w, val_w, model, quick_cfg(batch_size=64), ArchConfig(hidden=16))
        return started

    def test_train_starts_no_thread(self, monkeypatch):
        assert self.threads_started(monkeypatch, 2) == []

    def test_no_thread_at_one_cpu(self, monkeypatch):
        assert self.threads_started(monkeypatch, 1) == []

    def test_backward_error_propagates_and_no_thread_outlives_train(self, monkeypatch):
        train_w, val_w, model = toy_setup(elements=8, days=320, window=32)
        monkeypatch.setattr(vae, "_worker_count", lambda: 2)

        def fail(*args, **kwargs):
            raise FloatingPointError("backward pass failed")

        monkeypatch.setattr(vae, "lstm_backward", fail)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="backward pass failed"):
            vae.train(train_w, val_w, model, quick_cfg(batch_size=64), ArchConfig(hidden=16))
        assert threading.active_count() == before


class TestWorkspace:
    """The buffers `train` reuses on every step change no byte of a step."""

    # at T = 1 the recurrent weight gradient is an empty sum, written as zeros
    @pytest.mark.parametrize("T", [1, 2, 10])
    def test_reused_workspace_matches_a_fresh_one(self, T):
        arch, latent = ArchConfig(hidden=6, layers=2), LatentConfig(free_dims=2)
        params = vae.init_params(arch, latent, seed=1).in_compute_dtype()
        rng = np.random.default_rng(T)
        ws = vae._Workspace(5)
        grads = []
        # full batch, partial batch, then full again over the partial one's bytes
        for b in (5, 3, 5):
            x = rng.uniform(size=(b, T, 5)).astype(np.float32)
            prior_means = rng.uniform(-1, 1, (b, latent.total)).astype(np.float32)
            eps = rng.standard_normal((b, T, latent.total)).astype(np.float32)
            args = (params, x, prior_means, 0.5, 10.0, eps)
            want = vae.objective_and_grads(*args, vae._Workspace(b))
            got = vae.objective_and_grads(*args, ws)
            assert got[0] == want[0] and got[1] == want[1]
            assert got[2].tobytes() == want[2].tobytes()
            grads.append(got[2])
        # every call wrote into the workspace's one gradient vector
        assert all(g is grads[0] for g in grads)

    def test_warm_steps_allocate_under_a_tenth_of_the_caches(self, monkeypatch):
        step, peaks = vae.train_step, []

        def traced(*args, **kwargs):
            tracemalloc.start()
            try:
                return step(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(vae, "train_step", traced)
        # two epochs of a full and a partial batch; a step still allocates the
        # heads' outputs and input gradients and the objective's terms, which
        # a small latent keeps small
        T, B, H, layers = 25, 32, 128, 4
        train_w, val_w, model = toy_setup(elements=10, days=100, window=T)
        assert B < len(train_w) < 2 * B
        arch, latent = ArchConfig(hidden=H, layers=layers), LatentConfig(free_dims=2)
        cfg = quick_cfg(batch_size=B, max_epochs=2)
        vae.train(train_w, val_w, model, cfg, arch=arch, latent=latent)
        # float32 gates (4H wide), h, c and tanh(c) of every layer of both networks
        cache_bytes = 2 * layers * T * B * 7 * H * 4
        assert len(peaks) == 4
        assert max(peaks[1:]) < cache_bytes / 10, (peaks, cache_bytes)

    def test_layers_write_their_input_gradients_into_the_workspace(self, monkeypatch):
        """In a warm step, no LSTM layer's backward pass allocates its
        (T, B, H) input gradient: each allocates under half of one, its time
        loop's (B, .) temporaries. Every layer that forms its input gradient
        writes it into the workspace's one input-gradient buffer."""
        T, B, H = 25, 32, 128
        arch, latent = ArchConfig(hidden=H, layers=3), LatentConfig(free_dims=2)
        params = vae.init_params(arch, latent, seed=0).in_compute_dtype()
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(B, T, 5)).astype(np.float32)
        prior_means = rng.uniform(-1, 1, (B, latent.total)).astype(np.float32)
        eps = rng.standard_normal((B, T, latent.total)).astype(np.float32)
        real, peaks, dxs = nn.lstm_backward, [], []

        def traced(*args, **kwargs):
            dxs.append(args[5])
            tracemalloc.start()
            try:
                return real(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        ws = vae._Workspace(B)
        for step in range(2):  # the first step carves the workspace
            if step:
                monkeypatch.setattr(vae, "lstm_backward", traced)
            vae.objective_and_grads(params, x, prior_means, 0.5, 10.0, eps, ws)
        one = T * B * H * 4  # float32
        assert len(peaks) == 2 * arch.layers and max(peaks) < one / 2, (peaks, one)
        # the encoder's first layer forms no input gradient
        assert [d is False for d in dxs] == [False] * (2 * arch.layers - 1) + [True]
        flat = ws.get(params, x)[5]
        assert all(np.shares_memory(d, flat) for d in dxs[:-1])


class TestValidationPass:
    def test_memory_does_not_grow_with_the_validation_set(self, monkeypatch):
        """At T = 25, 2,048 validation windows peak within the (N, T) float64
        KL and log-likelihood they add (the arrays and their chunk parts) of
        256 windows: the pass runs BATCH_WINDOWS windows at a time."""
        T = 25
        cfg = data.SynthConfig(elements=12, days=200, clusters=2, anomaly_rate=0.0, seed=7)
        records, _ = data.synth_generate(cfg)
        stats = data.fit_normalization(records)
        model = concepts.kmeans_fit(concepts.element_profiles(records, stats), 2, seed=0)
        windows = data.window_sequences(records, T, stride=1, stats=stats)
        real, peaks = vae._val_loss, []

        def traced(*args):
            tracemalloc.start()
            try:
                return real(*args)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(vae, "_val_loss", traced)
        for n in (256, 2048):
            vae.train(
                windows[:8], windows[8 : 8 + n], model, quick_cfg(batch_size=8, max_epochs=1),
                ArchConfig(hidden=16),
            )
        assert peaks[1] < peaks[0] + 4 * 2048 * T * 8, peaks

    def test_chunked_loss_equals_the_one_batch_loss(self):
        """375 windows, the validation set of train-w2: chunks of 256 and 119."""
        arch, latent = ArchConfig(hidden=8), LatentConfig(free_dims=2)
        params = vae.init_params(arch, latent, seed=0).in_compute_dtype()
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(375, 2, 5))
        prior_means = rng.uniform(-1, 1, (375, latent.total))
        eps = rng.standard_normal((1, 375, 2, latent.total))
        _, _, kl_ts, ll_ts = vae.batch_components(params, x, prior_means, 1.0, eps)
        assert vae._val_loss(params, x, prior_means, 1.0, eps) == float(kl_ts.mean() - ll_ts.mean())


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
            by_cluster[c].append(m[:, : data.N_KPIS].mean(axis=0))
        centers = {c: np.mean(v, axis=0) for c, v in by_cluster.items()}
        gap = np.abs(centers[0] - centers[1]).max()
        assert gap > 1.0 * latent.prior_std
