import numpy as np
import pytest
from scipy import stats as sps

import oracles
from kpivae import concepts, data, vae
from kpivae.errors import ConfigError, NonFiniteError, ParseError, ValidationError
from kpivae.vae import ArchConfig, LatentConfig, TrainConfig
from oracles import PriorSpec


def small_params(seed=0, hidden=8, latent=None):
    return vae.init_params(ArchConfig(hidden=hidden), latent or LatentConfig(), seed=seed)


def std_prior(latent=None):
    latent = latent or LatentConfig()
    return PriorSpec(mean=np.zeros(latent.total), std=1.0, concept_dims=data.N_KPIS)


class TestKlLoss:
    def test_identity_is_zero(self):
        prior = std_prior()
        mu = np.zeros((4, 30))
        lv = np.zeros((4, 30))
        assert oracles.kl_loss(mu, lv, prior) == pytest.approx(0.0, abs=1e-15)

    def test_unit_mean_shift_gives_half(self):
        prior = PriorSpec(mean=np.zeros(1), std=1.0, concept_dims=1)
        mu = np.ones((3, 1))
        lv = np.zeros((3, 1))
        assert oracles.kl_loss(mu, lv, prior) == pytest.approx(0.5)

    def test_sums_dims_averages_timesteps(self):
        prior = PriorSpec(mean=np.zeros(2), std=1.0, concept_dims=2)
        mu = np.ones((5, 2))
        lv = np.zeros((5, 2))
        assert oracles.kl_loss(mu, lv, prior) == pytest.approx(1.0)

    def test_non_negative_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = rng.integers(1, 6)
            prior = PriorSpec(mean=rng.normal(size=d), std=float(rng.uniform(0.5, 2)), concept_dims=d)
            kl = oracles.kl_loss(rng.normal(size=(3, d)), rng.uniform(-2, 2, (3, d)), prior)
            assert kl >= -1e-12

    def test_matches_monte_carlo(self):
        # pairs keep a clear mean separation so the 1e5-sample estimate can
        # actually resolve the KL at the 1% level
        rng = np.random.default_rng(1)
        n = 100_000
        for _ in range(10):
            m = rng.uniform(-1, 1, 5)
            mu = m + rng.choice([-1.0, 1.0], 5) * rng.uniform(0.5, 1.5, 5)
            lv = rng.uniform(-1, 1, 5)
            prior = PriorSpec(mean=m, std=1.0, concept_dims=5)
            closed = oracles.kl_loss(mu[None], lv[None], prior)
            sd = np.exp(lv / 2)
            z = mu + sd * rng.standard_normal((n, 5))
            mc = np.mean(
                (sps.norm.logpdf(z, mu, sd) - sps.norm.logpdf(z, m, 1.0)).sum(axis=1)
            )
            assert abs(closed - mc) / max(closed, 0.01) < 0.01

    def test_nonpositive_prior_std_errors(self):
        prior = PriorSpec(mean=np.zeros(2), std=0.0, concept_dims=2)
        with pytest.raises(ConfigError):
            oracles.kl_loss(np.zeros((1, 2)), np.zeros((1, 2)), prior)


class TestReconLoglik:
    def test_perfect_reconstruction_analytic(self):
        x = np.full((7, 5), 0.3)
        val = oracles.recon_loglik(x, x.copy(), np.zeros_like(x))
        assert val == pytest.approx(-2.5 * np.log(2 * np.pi))

    def test_matches_scipy_density(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(size=(4, 5))
        mu = rng.uniform(size=(4, 5))
        lv = rng.uniform(-2, 2, (4, 5))
        expected = sps.norm.logpdf(x, mu, np.exp(lv / 2)).sum(axis=1).mean()
        assert oracles.recon_loglik(x, mu, lv) == pytest.approx(expected, rel=1e-12)

    def test_larger_residual_lowers_loglik(self):
        x = np.zeros((2, 5))
        lv = np.zeros((2, 5))
        near = oracles.recon_loglik(x, np.full((2, 5), 0.1), lv)
        far = oracles.recon_loglik(x, np.full((2, 5), 0.5), lv)
        assert far < near


class TestEncodeDecode:
    def test_shapes(self):
        params = small_params()
        x = np.random.default_rng(0).uniform(size=(12, 5))
        mu, lv = oracles.encode(params, x)
        assert mu.shape == (12, 30) and lv.shape == (12, 30)
        mu_x, lv_x = oracles.decode(params, np.random.default_rng(1).normal(size=(12, 30)))
        assert mu_x.shape == (12, 5) and lv_x.shape == (12, 5)

    def test_deterministic(self):
        params = small_params()
        x = np.random.default_rng(0).uniform(size=(6, 5))
        a = oracles.encode(params, x)
        b = oracles.encode(params, x)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_logvar_clamped_both_sides(self):
        params = small_params()
        total = params.latent.total
        params.tensors["enc_head.b"][total:] = 100.0
        _, lv = oracles.encode(params, np.full((4, 5), 0.5))
        assert (lv == 8.0).all()
        params.tensors["enc_head.b"][total:] = -100.0
        _, lv = oracles.encode(params, np.full((4, 5), 0.5))
        assert (lv == -8.0).all()

    def test_decoder_mean_strictly_inside_unit_interval(self):
        params = small_params()
        mu_x, lv_x = oracles.decode(params, np.random.default_rng(2).normal(size=(9, 30)))
        assert (mu_x > 0.0).all() and (mu_x < 1.0).all()
        assert (lv_x >= -8.0).all() and (lv_x <= 8.0).all()

    def test_non_finite_input_names_timestep(self):
        params = small_params()
        x = np.full((5, 5), 0.5)
        x[2, 0] = np.nan
        with pytest.raises(NonFiniteError, match="timestep 2"):
            oracles.encode(params, x)

    def test_encode_accepts_windows(self):
        params = small_params()
        v = np.random.default_rng(3).uniform(size=(4, 5))
        w = data.Window("A", 1, values=v, raw=v.copy())
        mu_w, _ = oracles.encode(params, w)
        mu_a, _ = oracles.encode(params, v)
        assert np.array_equal(mu_w, mu_a)


class TestSampleLatent:
    def test_reproducible_given_seed(self):
        mu = np.zeros((3, 4))
        lv = np.zeros((3, 4))
        a = oracles.sample_latent(mu, lv, np.random.default_rng(5))
        b = oracles.sample_latent(mu, lv, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_tiny_variance_hugs_mean(self):
        rng = np.random.default_rng(6)
        mu = np.full((1000, 1), 0.7)
        z = oracles.sample_latent(mu, np.full((1000, 1), -8.0), rng)
        assert np.abs(z - 0.7).max() < 0.1

    def test_empirical_mean_matches(self):
        rng = np.random.default_rng(7)
        n = 100_000
        z = oracles.sample_latent(np.full(n, 2.0), np.zeros(n), rng)
        assert abs(z.mean() - 2.0) < 4.0 / np.sqrt(n)


class TestEvalLoss:
    def test_loss_decomposes_exactly(self):
        params = small_params()
        x = np.random.default_rng(1).uniform(size=(10, 5))
        out = oracles.eval_loss(params, x, std_prior(), rng=np.random.default_rng(0))
        assert out["loss"] == pytest.approx(out["kl"] - out["loglik"], abs=1e-12)

    def test_reported_row_arithmetic(self):
        # published per-day rows decompose as loss = kl - loglik
        assert 0.45 - (-4.73) == pytest.approx(5.18, abs=1e-9)
        assert 0.41 - (-4.71) == pytest.approx(5.12, abs=1e-9)

    def test_kl_term_matches_direct_computation(self):
        params = small_params()
        x = np.random.default_rng(2).uniform(size=(8, 5))
        prior = std_prior()
        out = oracles.eval_loss(params, x, prior, rng=np.random.default_rng(0))
        mu, lv = oracles.encode(params, x)
        assert out["kl"] == pytest.approx(oracles.kl_loss(mu, lv, prior), rel=1e-12)

    def test_one_vs_ten_samples_agree_when_encoder_collapses(self):
        params = small_params(seed=4)
        total = params.latent.total
        # push the encoder's variance to the clamp floor and make the decoder
        # insensitive to z so the latent draw barely matters
        params.tensors["enc_head.b"][total:] = -50.0
        params.tensors["dec0.Wx"] *= 1e-3
        x = np.random.default_rng(3).uniform(size=(10, 5))
        one = oracles.eval_loss(params, x, std_prior(), eval_samples=1, rng=np.random.default_rng(11))
        ten = oracles.eval_loss(params, x, std_prior(), eval_samples=10, rng=np.random.default_rng(12))
        assert abs(one["loss"] - ten["loss"]) < 1e-3

    def test_more_samples_reduce_spread(self):
        params = small_params(seed=5)
        x = np.random.default_rng(4).uniform(size=(6, 5))
        prior = std_prior()

        def spread(s):
            vals = [
                oracles.eval_loss(params, x, prior, eval_samples=s, rng=np.random.default_rng(seed))[
                    "loglik"
                ]
                for seed in range(12)
            ]
            return np.std(vals)

        assert spread(10) < spread(1)


class TestPriorSpec:
    def test_build_prior_places_centroid_and_zeros(self):
        latent = LatentConfig()
        centroids = np.linspace(0, 1, 10).reshape(2, 5)
        model = concepts.ConceptModel(centroids=centroids, assignment={})
        spec = oracles.build_prior(model, latent, 1)
        assert np.array_equal(spec.mean[:5], 2.0 * centroids[1] - 1.0)
        assert (spec.mean[5:] == 0.0).all()
        assert spec.std == latent.prior_std

    def test_unscaled_model_rejected(self):
        # centroids outside [0, 1] were not fitted on normalized profiles
        model = concepts.ConceptModel(centroids=np.full((1, 5), 1.5), assignment={})
        with pytest.raises(ValidationError):
            oracles.build_prior(model, LatentConfig(), 0)

    def test_prior_table_rows_match_build_prior(self):
        latent = LatentConfig()
        centroids = np.linspace(0, 1, 15).reshape(3, 5)
        model = concepts.ConceptModel(centroids=centroids, assignment={})
        table = vae.prior_table(model, latent)
        assert table.shape == (3, latent.total)
        for j in range(3):
            assert np.array_equal(table[j], oracles.build_prior(model, latent, j).mean)

    def test_prior_table_validates_every_row(self):
        centroids = np.full((2, 5), 0.5)
        centroids[1, 3] = 1.25  # a prior mean of 1.5
        model = concepts.ConceptModel(centroids=centroids, assignment={})
        with pytest.raises(ValidationError):
            vae.prior_table(model, LatentConfig())

    def test_structural_validation(self):
        bad = PriorSpec(mean=np.array([2.0, 0.0, 0.0]), std=1.0, concept_dims=1)
        with pytest.raises(ValidationError):
            bad.validate()
        bad_free = PriorSpec(mean=np.array([0.5, 0.3]), std=1.0, concept_dims=1)
        with pytest.raises(ValidationError):
            bad_free.validate()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_mean_rejected(self, value):
        # nan slips past a [-1, 1] range check: nan < -1 and nan > 1 are False
        bad = PriorSpec(mean=np.array([0.5, value, 0.0]), std=1.0, concept_dims=2)
        with pytest.raises(ValidationError, match="finite"):
            bad.validate()

    def test_latent_config_validation(self):
        with pytest.raises(ConfigError):
            LatentConfig(prior_std=0.0).validate()
        # prior_std**2 must be a normal, finite float32; 1e200 would also
        # overflow a Python float if it were squared to check
        for std in (1e200, 1e20, 1e-30, float("nan")):
            with pytest.raises(ConfigError, match="prior_std"):
                LatentConfig(prior_std=std).validate()
        LatentConfig(prior_std=vae.PRIOR_STD_MIN).validate()
        LatentConfig(prior_std=vae.PRIOR_STD_MAX).validate()
        LatentConfig(prior_std=2**32).validate()
        with pytest.raises(ConfigError):
            vae.init_params(ArchConfig(), LatentConfig(free_dims=-1))

    @pytest.mark.parametrize("std", [True, False, np.True_, "1.0", None, 1j, [1.0]])
    def test_prior_std_of_the_wrong_type_rejected(self, std):
        with pytest.raises(ConfigError, match="prior_std must be a number"):
            LatentConfig(prior_std=std).validate()

    def test_int_prior_std_gives_the_kl_of_the_equal_float(self):
        rng = np.random.default_rng(4)
        mu, logvar, prior = rng.normal(size=(3, 2, 4, 6))
        for std in (2, 2**32):
            assert np.array_equal(
                vae._kl_ts(mu, logvar, prior, std), vae._kl_ts(mu, logvar, prior, float(std))
            )

    @pytest.mark.parametrize("arch", [ArchConfig(hidden=0), ArchConfig(layers=0)])
    def test_arch_config_validation(self, arch):
        with pytest.raises(ConfigError, match="hidden and layers"):
            vae.init_params(arch, LatentConfig())

    @pytest.mark.parametrize(
        "lo, hi",
        [(5.0, -5.0), (1.0, 1.0), (-8.0, 1e300), (-1e39, 8.0), (float("nan"), 8.0),
         (1e30, 2e30), (-85.0, 8.0), (-8.0, 85.0)],
    )
    def test_logvar_bounds_ordered_and_in_range(self, tmp_path, lo, hi):
        # the clip is two constants, ordered and narrow enough that
        # exp(logvar / 2) times a noise draw of up to 10 stays below
        # sqrt(float32 max) in the float32 passes
        assert vae.LOGVAR_LO < vae.LOGVAR_HI
        bound = max(-vae.LOGVAR_LO, vae.LOGVAR_HI)
        assert 10.0 * np.exp(bound / 2) < np.sqrt(np.finfo(np.float32).max)
        # no config and no checkpoint row sets other bounds
        with pytest.raises(TypeError):
            ArchConfig(logvar_lo=lo, logvar_hi=hi)
        p = tmp_path / "ckpt.bin"
        vae.save_checkpoint(small_params(), p)
        oracles.rewrite_checkpoint(p, p, lambda rows: rows.update(logvar_lo=lo, logvar_hi=hi))
        with pytest.raises(ParseError, match="line 6: unknown row 'logvar_lo'"):
            vae.load_checkpoint(p)


def length_window(eid, length):
    return (eid, 1, np.full((length, 5), 0.5))


def valued_window(eid, value, length=3):
    return (eid, 1, np.full((length, 5), value))


class TestBatching:
    def test_chunks_in_input_order(self, monkeypatch):
        monkeypatch.setattr(vae, "BATCH_WINDOWS", 2)
        chunks = []
        stack = vae._stack

        def spy(params, net, x, *args):
            chunks.append((net, x[:, 0, 0].tolist()))
            return stack(params, net, x, *args)

        monkeypatch.setattr(vae, "_stack", spy)
        windows = oracles.windows_of(
            [valued_window(f"e{i}", v) for i, v in enumerate([0.5, 0.1, 0.4, 0.2, 0.3])]
        )
        mu, lv = vae.encode_windows(small_params(hidden=4), windows)
        assert chunks == [("enc", c) for c in ([0.5, 0.1], [0.4, 0.2], [0.3])]
        assert mu.shape == lv.shape == (5, 3, 30)

    def test_encode_windows_keeps_input_order(self):
        params = small_params(hidden=4)
        windows = oracles.windows_of(
            [valued_window("a", 0.2), valued_window("b", 0.9), valued_window("c", 0.5)]
        )
        mu, lv = vae.encode_windows(params, windows)
        for w, m, v in zip(windows, mu, lv):
            one_mu, one_lv = oracles.encode(params, w)
            assert m.shape == (w.length, 30)
            assert np.allclose(m, one_mu) and np.allclose(v, one_lv)

    def test_encode_windows_of_no_windows(self):
        windows = oracles.windows_of([valued_window("a", 0.2)])[:0]
        mu, lv = vae.encode_windows(small_params(hidden=4), windows)
        for a in (mu, lv):
            assert a.dtype == np.float64 and a.shape == (0, 3, 30)

    def test_window_clusters_names_every_missing_element(self):
        windows = oracles.windows_of([length_window(e, 2) for e in ("b", "a", "c", "a")])
        assert vae.window_clusters(windows, {"a": 1, "b": 0, "c": 2}).tolist() == [0, 1, 2, 1]
        with pytest.raises(ValidationError, match="a, c"):
            vae.window_clusters(windows, {"b": 0})


class TestNoGradPass:
    """The no-grad pass, on its shared buffers and gate constants, gives the
    training pass's bytes; a buffer one layer or one run leaves behind would
    show at more than one layer, at T > 1 or in the second decoder run."""

    @pytest.mark.parametrize("layers", [1, 2, 3, 4])
    @pytest.mark.parametrize("T", [1, 2, 25])
    @pytest.mark.parametrize("B", [1, 3, 256])
    def test_matches_the_cached_stack(self, layers, T, B):
        params = vae.init_params(ArchConfig(hidden=6, layers=layers), LatentConfig(), seed=layers)
        params.flat += np.random.default_rng(0).normal(0.0, 0.2, params.flat.size)
        params = params.in_compute_dtype()
        rng = np.random.default_rng(T * B)
        run = vae._nograd(params, ("enc", "dec"), B, T)
        x = rng.uniform(size=(B, T, data.N_KPIS)).astype(np.float32)
        zs = [rng.standard_normal((B, T, params.latent.total)).astype(np.float32) for _ in range(2)]
        for net, inp in [("enc", x), ("dec", zs[0]), ("dec", zs[1]), ("enc", x)]:
            got = run(net, inp)
            bufs, consts = oracles.training_buffers(params, net, inp)
            want = vae._stack(params, net, inp, bufs, consts)[:2]
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], net

    @pytest.mark.parametrize("S", [1, 2, 10])
    @pytest.mark.parametrize("B, T", [(1, 1), (3, 2), (4, 25)])
    @pytest.mark.parametrize("per_window", [False, True])
    def test_batch_components_match_the_running_sum(self, S, B, T, per_window):
        # at B = T = 1 the sample axis is the only one longer than 1, where a
        # plain sum over it adds pairwise
        params = small_params(hidden=6)
        params.flat += np.random.default_rng(1).normal(0.0, 0.2, params.flat.size)
        params = params.in_compute_dtype()
        total = params.latent.total
        rng = np.random.default_rng(S * 100 + B * 10 + T)
        x = rng.uniform(size=(B, T, data.N_KPIS))
        prior_means = rng.uniform(-1.0, 1.0, (B, total))
        eps = rng.standard_normal((S, B, T, total) if per_window else (S, T, total))
        got = vae.batch_components(params, x, prior_means, 0.5, eps)
        want = oracles.batch_components(params, x, prior_means, 0.5, eps)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_one_window_one_step_sums_in_sample_order(self):
        # a pairwise sum of 10 samples matches the running one only by chance,
        # so many draws
        params = small_params(hidden=6).in_compute_dtype()
        rng = np.random.default_rng(2)
        x, prior_means = rng.uniform(size=(1, 1, data.N_KPIS)), np.zeros((1, params.latent.total))
        for _ in range(100):
            eps = rng.standard_normal((10, 1, params.latent.total)) * 3.0
            got = vae.batch_components(params, x, prior_means, 0.5, eps)[3]
            want = oracles.batch_components(params, x, prior_means, 0.5, eps)[3]
            assert got.tobytes() == want.tobytes()


class TestInitParams:
    def test_recurrent_blocks_orthogonal_biases_zero(self):
        params = small_params(seed=9)
        blocks = list(oracles.recurrent_weight_blocks(params))
        assert len(blocks) == 24  # 6 layers x 4 gates
        for name, w in blocks:
            assert np.max(np.abs(w.T @ w - np.eye(w.shape[1]))) < 1e-5, name
        for k, v in params.tensors.items():
            if k.endswith(".b"):
                assert (v == 0.0).all()

    def test_deterministic_and_param_count_pure(self):
        a = small_params(seed=3)
        b = small_params(seed=3)
        c = small_params(seed=4)
        assert all(np.array_equal(a.tensors[k], b.tensors[k]) for k in a.tensors)
        assert oracles.n_params(a) == oracles.n_params(c)
        assert any(not np.array_equal(a.tensors[k], c.tensors[k]) for k in a.tensors)


class TestCheckpoint:
    @pytest.mark.parametrize(
        "arch, latent",
        [
            (ArchConfig(hidden=3, layers=2), LatentConfig(free_dims=2)),
            (ArchConfig(), LatentConfig()),
        ],
    )
    def test_checked_layout_is_the_initialized_one(self, arch, latent):
        params = vae.init_params(arch, latent)
        assert vae._tensor_shapes(arch, latent) == {k: v.shape for k, v in params.tensors.items()}

    def test_tensors_and_layers_are_views_of_flat(self):
        params = small_params(seed=7)
        views = [*params.tensors.values()]
        views += [v for layer in params.layers.values() for v in layer.values()]
        assert all(np.shares_memory(v, params.flat) for v in views)
        assert sum(v.size for v in params.tensors.values()) == params.flat.size
        params.tensors["dec0.Wh"][0, 0] = 123.0
        assert params.layers["dec0"]["Wh"][0, 0] == 123.0
        # sorted-name order, the order of the checkpoint body
        assert list(params.tensors) == sorted(params.tensors)
        packed = np.concatenate([v.ravel() for v in params.tensors.values()])
        assert packed.tobytes() == params.flat.tobytes()

    def test_body_is_the_flat_vector(self, tmp_path):
        params = small_params(seed=7)
        p = tmp_path / "ckpt.bin"
        vae.save_checkpoint(params, p)
        blob = p.read_bytes()
        rows = blob[: blob.index(b"\nsha256 ") + 1].decode().splitlines()
        assert rows == [
            "kpivae-ckpt-v4", "hidden 8", "layers 3", "free_dims 25", "prior_std 1.0",
        ]
        body = blob[blob.index(b"\n", blob.index(b"\nsha256 ") + 1) + 1 :]
        assert body == params.flat.tobytes()
        assert vae.load_checkpoint(p).flat.tobytes() == body

    def test_round_trip_exact(self, tmp_path):
        params = small_params(seed=7)
        p = tmp_path / "ckpt.bin"
        vae.save_checkpoint(params, p)
        loaded = vae.load_checkpoint(p)
        assert loaded.arch == params.arch
        assert loaded.latent == params.latent
        assert set(loaded.tensors) == set(params.tensors)
        for k in params.tensors:
            assert np.array_equal(loaded.tensors[k], params.tensors[k])

    def test_whole_number_float_fields_load_as_floats(self, tmp_path):
        arch = ArchConfig(hidden=2, layers=1)
        params = vae.init_params(arch, LatentConfig(free_dims=1, prior_std=2**32))
        p = tmp_path / "ckpt.bin"
        vae.save_checkpoint(params, p)
        loaded = vae.load_checkpoint(p)
        assert loaded.arch == arch and loaded.latent == params.latent
        assert type(loaded.latent.prior_std) is float

    @pytest.mark.parametrize("prior_std", [2, np.float32(2.0), np.int64(2)])
    def test_rows_are_written_in_their_field_type(self, tmp_path, prior_std):
        # each value is written as the int or float it equals, so equal
        # configs give identical bytes
        arch = ArchConfig(hidden=2, layers=1)
        flat = vae.init_params(arch, LatentConfig(free_dims=1)).flat
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        latent = LatentConfig(np.int64(1), prior_std)
        vae.save_checkpoint(vae.VaeParams(ArchConfig(np.int64(2), 1), latent, flat), a)
        vae.save_checkpoint(vae.VaeParams(arch, LatentConfig(1, 2.0), flat), b)
        assert b"\nprior_std 2.0\n" in a.read_bytes()
        assert a.read_bytes() == b.read_bytes()

    def test_same_params_same_bytes(self, tmp_path):
        params = small_params(seed=7)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        vae.save_checkpoint(params, a)
        vae.save_checkpoint(params, b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_tag_rejected(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"not a checkpoint")
        with pytest.raises(ParseError, match="bad tag 'not a checkpoint'"):
            vae.load_checkpoint(p)

    def test_every_truncation_rejected(self, tmp_path):
        params = vae.init_params(ArchConfig(hidden=2, layers=1), LatentConfig(free_dims=1))
        full = tmp_path / "full.bin"
        vae.save_checkpoint(params, full)
        blob = full.read_bytes()
        cut = tmp_path / "cut.bin"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(ParseError):
                vae.load_checkpoint(cut)
        # trailing bytes are part of the body the sha256 row covers
        cut.write_bytes(blob + b"\x00")
        with pytest.raises(ParseError, match="sha256 does not match"):
            vae.load_checkpoint(cut)

    def test_declared_size_other_than_the_body_rejected(self, tmp_path):
        params = vae.init_params(ArchConfig(hidden=2, layers=1), LatentConfig(free_dims=1))
        full, p = tmp_path / "full.bin", tmp_path / "ckpt.bin"
        vae.save_checkpoint(params, full)
        # the last has fewer float64s than the body holds
        for field, value, match in [
            ("hidden", 2**40, "truncated"),
            ("layers", 2**64, "truncated"),
            ("free_dims", 0, "trailing bytes"),
        ]:
            oracles.rewrite_checkpoint(full, p, lambda rows: rows.update({field: value}))
            with pytest.raises(ParseError, match=match):
                vae.load_checkpoint(p)

    def test_corrupt_header_rejected(self, tmp_path):
        params = vae.init_params(ArchConfig(hidden=2, layers=1), LatentConfig(free_dims=1))
        p = tmp_path / "ckpt.bin"
        vae.save_checkpoint(params, p)
        oracles.rewrite_checkpoint(p, p, lambda rows: rows.update(depth=1))
        with pytest.raises(ParseError, match="line 6: unknown row 'depth'"):
            vae.load_checkpoint(p)

    def test_missing_file_named(self, tmp_path):
        from kpivae.errors import MissingArtifactError

        with pytest.raises(MissingArtifactError, match="nope.bin"):
            vae.load_checkpoint(tmp_path / "nope.bin")


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(patience=0).validate()
        TrainConfig().validate()

    def test_learning_rate_is_a_finite_float32(self):
        # Adam scales its float32 step by the rate
        TrainConfig(learning_rate=vae.LEARNING_RATE_MAX).validate()
        with pytest.raises(ConfigError, match="a float32"):
            TrainConfig(learning_rate=np.nextafter(vae.LEARNING_RATE_MAX, np.inf)).validate()
