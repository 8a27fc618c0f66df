import dataclasses
import functools
import hashlib
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from kpivae import anomaly, concepts, data, vae
from kpivae.anomaly import LatentStats
from kpivae.data import KPI_NAMES
from kpivae.errors import ConfigError, NonFiniteError, ParseError, ValidationError


def mk_windows(*specs):
    """A window set from (element_id, start_date, rows) triples."""
    return oracles.windows_of(specs)


def fake_encoder(monkeypatch, mus):
    """Make `anomaly.encode_windows` return stacked (mu, logvar) with zero logvar."""
    mu = np.stack([np.asarray(m, dtype=np.float64) for m in mus])
    monkeypatch.setattr(anomaly, "encode_windows", lambda params, windows: (mu, np.zeros_like(mu)))


def detect_list(*args, **kwargs) -> list[oracles.AnomalyReport]:
    """`anomaly.detect`, one report object per scored cell."""
    return oracles.report_list(anomaly.detect(*args, **kwargs))


def seam_params():
    return vae.init_params(vae.ArchConfig(hidden=4), vae.LatentConfig(), seed=0)


class TestFitLatentStats:
    def test_constant_input_hits_std_floor(self, monkeypatch):
        params = seam_params()
        w = mk_windows(("el0000", 1, np.zeros((40, 5))))
        fake_encoder(monkeypatch, [np.full((40, 30), 0.5)])
        stats = anomaly.fit_latent_stats(params, w, {"el0000": 0})
        assert np.array_equal(stats.mean[0], np.full(5, 0.5))
        assert np.array_equal(stats.std[0], np.full(5, 1e-6))
        assert np.array_equal(oracles.own_stats(stats, 0)[1], np.full(5, 1e-6))

    def test_two_point_population_std(self, monkeypatch):
        params = seam_params()
        mu = np.zeros((40, 30))
        mu[::2, :5] = 1.0
        mu[1::2, :5] = -1.0
        w = mk_windows(("el0000", 1, np.zeros((40, 5))))
        fake_encoder(monkeypatch, [mu])
        stats = anomaly.fit_latent_stats(params, w, {"el0000": 0})
        assert np.allclose(stats.mean[0], 0.0)
        assert np.array_equal(stats.std[0], np.ones(5))

    def test_small_cluster_gets_no_entry(self, monkeypatch):
        params = seam_params()
        ws = mk_windows(
            *[("el0000", 1 + 10 * i, np.zeros((10, 5))) for i in range(4)],
            ("el0001", 1, np.zeros((10, 5))),
        )
        fake_encoder(monkeypatch, [np.full((10, 30), 0.2)] * 4 + [np.full((10, 30), 0.9)])
        stats = anomaly.fit_latent_stats(params, ws, {"el0000": 0, "el0001": 1})
        assert 0 in stats.clusters
        assert 1 not in stats.clusters
        # the starved cluster still contributes to the global stats
        want = (40 * 0.2 + 10 * 0.9) / 50
        assert np.allclose(stats.mean[0], want)

    def test_windows_of_one_cluster_concatenate(self, monkeypatch):
        params = seam_params()
        ws = mk_windows(
            ("el0000", 1, np.zeros((20, 5))),
            ("el0000", 21, np.zeros((20, 5))),
        )
        fake_encoder(monkeypatch, [np.full((20, 30), 0.0), np.full((20, 30), 1.0)])
        stats = anomaly.fit_latent_stats(params, ws, {"el0000": 0})
        assert np.allclose(oracles.own_stats(stats, 0)[0], 0.5)
        assert np.allclose(oracles.own_stats(stats, 0)[1], 0.5)

    def test_empty_and_unassigned_rejected(self, monkeypatch):
        params = seam_params()
        w = mk_windows(("elX", 1, np.zeros((5, 5))))
        with pytest.raises(ValidationError, match="zero windows"):
            anomaly.fit_latent_stats(params, w[:0], {})
        fake_encoder(monkeypatch, [np.zeros((5, 30))])
        with pytest.raises(ValidationError, match="elX"):
            anomaly.fit_latent_stats(params, w, {})


class TestZScores:
    def stats(self):
        return LatentStats(
            clusters=np.array([0]),
            mean=np.array([np.zeros(5), np.full(5, 1.0)]),
            std=np.array([np.ones(5), np.full(5, 0.5)]),
        )

    def test_mean_input_scores_zero(self):
        s = self.stats()
        assert np.array_equal(oracles.zscores(s, 0, np.full(5, 1.0)), np.zeros(5))
        assert np.array_equal(oracles.zscores(s, None, np.zeros(5)), np.zeros(5))

    def test_known_cluster_uses_its_stats(self):
        z = oracles.zscores(self.stats(), 0, np.full(5, 2.0))
        assert np.array_equal(z, np.full(5, 2.0))

    def test_unknown_cluster_falls_back_to_global(self):
        s = self.stats()
        z = oracles.zscores(s, 7, np.full(5, 2.0))
        assert np.array_equal(z, (np.full(5, 2.0) - s.mean[0]) / s.std[0])

    def test_trailing_latent_dims_ignored(self):
        mu = np.concatenate([np.full(5, 2.0), np.full(25, 99.0)])
        z = oracles.zscores(self.stats(), 0, mu)
        assert z.shape == (5,)
        assert np.array_equal(z, np.full(5, 2.0))

    def test_shifting_training_mean_shifts_z(self):
        s = self.stats()
        delta = 0.3
        shifted = LatentStats(
            clusters=s.clusters,
            mean=np.array([s.mean[0], s.mean[1] + delta]),
            std=s.std,
        )
        mu = np.array([0.1, 0.7, 1.3, 2.0, -0.4])
        z0 = oracles.zscores(s, 0, mu)
        z1 = oracles.zscores(shifted, 0, mu)
        assert np.allclose(z1, z0 - delta / s.std[1], atol=1e-12)


class TestAttribution:
    def test_drop_storm_example(self):
        z = np.array([114.5, 111.8, 8.2, 320.5, -0.8])
        flags = [i for i in range(5) if z[i] > 15]
        assert flags == [0, 1, 3]
        assert oracles.attribute(z) == ["mme_drops", "call_drop_rate", "total_drops"]

    def test_second_example_flags(self):
        z = np.array([9.3, 35.2, 27.8, 50.0, 9.1])
        assert oracles.attribute(z) == ["mme_drops", "total_drops", "enodeb_drops"]

    def test_quiet_vector_attributes_nothing(self):
        assert oracles.attribute(np.array([1.0, -3.0, 14.9, 0.0, 2.0])) == []

    def test_threshold_is_strict(self):
        z = np.zeros(5)
        z[2] = 15.0
        assert oracles.attribute(z) == []
        z[2] = 15.0 + 1e-9
        assert oracles.attribute(z) == ["enodeb_drops"]

    def test_symmetric_mode_and_tie_order(self):
        z = np.array([-20.0, 20.0, 0.0, 0.0, 0.0])
        assert oracles.attribute(z) == ["total_drops"]
        assert oracles.attribute(z, symmetric=True) == ["call_drop_rate", "total_drops"]

    def test_accepts_report_object(self):
        r = oracles.AnomalyReport(
            element_id="el0000", date=3, cluster=0, kpis=(0.0,) * 5,
            loss=1.0, kl=1.0, loglik=0.0,
            zscores=(0.0, 16.0, 0.0, 0.0, 0.0),
            flagged=(False, True, False, False, False),
        )
        assert oracles.attribute(r) == ["total_drops"]


class TestResolveClusters:
    def test_known_elements_keep_their_assignment(self):
        model = concepts.ConceptModel(
            centroids=np.array([[0.1] * 5, [0.9] * 5]),
            assignment={"el0000": 1},
        )
        w = mk_windows(("el0000", 1, np.full((4, 5), 0.1)))
        assert anomaly.resolve_clusters(w, model) == {"el0000": 1}

    def test_unseen_element_takes_nearest_centroid(self):
        model = concepts.ConceptModel(
            centroids=np.array([[0.1] * 5, [0.9] * 5]),
            assignment={},
        )
        w = mk_windows(("new", 1, np.full((4, 5), 0.85)))
        assert anomaly.resolve_clusters(w, model) == {"new": 1}

    def test_profile_counts_each_date_once(self):
        model = concepts.ConceptModel(
            centroids=np.array([[0.45] * 5, [0.6] * 5]),
            assignment={},
        )
        days = np.repeat([[0.9], [0.9], [0.1], [0.1], [0.9], [0.9]], 5, axis=1)
        # days 3 and 4 are in both windows: over unique dates the mean is
        # 0.63, nearest 0.6; counted twice it would be 0.5, nearest 0.45
        w = mk_windows(("new", 1, days[:4]), ("new", 3, days[2:]))
        assert anomaly.resolve_clusters(w, model) == {"new": 1}


def scored_setup(stride=5):
    cfg = data.SynthConfig(
        elements=6,
        days=30,
        clusters=2,
        anomaly_rate=0.0,
        seed=21,
    )
    records, _ = data.synth_generate(cfg)
    stats = data.fit_normalization(records)
    model = concepts.kmeans_fit(concepts.element_profiles(records, stats), 2, seed=0)
    windows = data.window_sequences(records, 10, stride=stride, stats=stats)
    params = vae.init_params(vae.ArchConfig(hidden=4), vae.LatentConfig(), seed=1)
    lstats = anomaly.fit_latent_stats(params, windows, model.assignment)
    return params, windows, model, lstats


@functools.cache
def shuffle_setup():
    params, windows, model, lstats = scored_setup(stride=3)
    # three elements unseen at fit time, so they are routed by their profile
    model.assignment = {e: c for e, c in model.assignment.items() if e < "el0003"}
    reports = detect_list(params, windows, model, lstats, eval_samples=2, seed=4)
    return params, windows, model, lstats, reports


class TestOrderInvariance:
    @settings(max_examples=10, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_shuffled_windows_give_the_same_output(self, random):
        params, windows, model, lstats, reports = shuffle_setup()
        shuffled = windows[np.array(random.sample(range(len(windows)), len(windows)))]
        clusters = anomaly.resolve_clusters(windows, model)
        assert anomaly.resolve_clusters(shuffled, model) == clusters
        assert detect_list(params, shuffled, model, lstats, eval_samples=2, seed=4) == reports


class TestDetect:
    def test_empty_input_gives_empty_report(self):
        params, windows, model, lstats = scored_setup()
        assert detect_list(params, windows[:0], model, lstats) == []

    def test_zero_eval_samples_rejected(self):
        params, windows, model, lstats = scored_setup()
        with pytest.raises(ConfigError, match="eval_samples"):
            anomaly.detect(params, windows, model, lstats, eval_samples=0)

    def test_matches_direct_recomputation(self):
        """Oracle: replay the documented scoring procedure by hand."""
        params, windows, model, lstats = scored_setup(stride=5)
        s, seed = 3, 9
        reports = detect_list(params, windows, model, lstats, eval_samples=s, seed=seed)

        order = sorted(
            range(len(windows)), key=lambda i: (windows[i].element_id, windows[i].start_date)
        )
        ordered = windows[np.array(order)]
        clusters = anomaly.resolve_clusters(ordered, model)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        x = np.stack([w.values for w in ordered])
        priors = np.stack(
            [
                oracles.build_prior(model, params.latent, clusters[w.element_id]).mean
                for w in ordered
            ]
        )
        # one (S, T, total) draw, the same S samples for every window
        eps = rng.standard_normal((s, 10, params.latent.total))
        eps = np.repeat(eps[:, None], len(ordered), axis=1)
        _, _, kl_ts, ll_ts = vae.batch_components(
            params.in_compute_dtype(), x, priors, params.latent.prior_std, eps
        )
        best = {}
        for j, w in enumerate(ordered):
            for t, d in enumerate(w.start_date + np.arange(w.length)):
                key = (w.element_id, int(d))
                loss = float(kl_ts[j, t] - ll_ts[j, t])
                if key not in best or loss > best[key]:
                    best[key] = loss

        assert len(reports) == len(best)
        got = {(r.element_id, r.date): r.loss for r in reports}
        assert got == best
        expect_order = sorted(best, key=lambda k: (-best[k], k[0], k[1]))
        assert [(r.element_id, r.date) for r in reports] == expect_order
        assert [r.rank for r in reports] == list(range(1, len(reports) + 1))

    def test_loss_decomposition_and_flags(self):
        params, windows, model, lstats = scored_setup()
        for r in detect_list(params, windows, model, lstats, eval_samples=2):
            assert r.loss == r.kl - r.loglik
            for i, f in enumerate(r.flagged):
                assert f == (r.zscores[i] > 15.0)
            assert tuple(oracles.attribute(r)) == r.attribution
            assert not r.stats_fallback

    def test_top_k_truncates_the_same_ranking(self):
        params, windows, model, lstats = scored_setup()
        full = detect_list(params, windows, model, lstats, eval_samples=2)
        top = detect_list(params, windows, model, lstats, eval_samples=2, top_k=7)
        assert len(top) == 7
        assert [(r.element_id, r.date, r.loss) for r in top] == [
            (r.element_id, r.date, r.loss) for r in full[:7]
        ]

    def test_loss_floor_is_strict(self):
        params, windows, model, lstats = scored_setup()
        full = detect_list(params, windows, model, lstats, eval_samples=2)
        floor = full[4].loss
        kept = detect_list(params, windows, model, lstats, eval_samples=2, loss_floor=floor)
        assert all(r.loss > floor for r in kept)
        assert len(kept) == sum(1 for r in full if r.loss > floor)
        assert len(kept) < len(full)

    def test_under_observed_cluster_reports_fallback(self, monkeypatch):
        params, windows, model, lstats = scored_setup()
        monkeypatch.setattr(anomaly, "MIN_CLUSTER_TIMESTEPS", 10**6)
        starved = anomaly.fit_latent_stats(params, windows, model.assignment)
        assert not starved.clusters.size
        # explicit per-cluster entries equal to the global stats must yield
        # the same z-scores the fallback path produces
        explicit = LatentStats(
            clusters=np.arange(model.k),
            mean=starved.mean[[0] * (model.k + 1)],
            std=starved.std[[0] * (model.k + 1)],
        )
        via_fallback = detect_list(params, windows, model, starved, eval_samples=2)
        via_explicit = detect_list(params, windows, model, explicit, eval_samples=2)
        assert all(r.stats_fallback for r in via_fallback)
        assert not any(r.stats_fallback for r in via_explicit)
        assert [r.zscores for r in via_fallback] == [r.zscores for r in via_explicit]

    def test_z_matches_the_oracle_row_by_row(self, monkeypatch):
        # stride 10 windows do not overlap, so each cell is scored once
        params, windows, model, lstats = scored_setup(stride=10)
        # cluster 1 keeps no stats of its own, so its rows use the global ones
        keep = lstats.clusters != 1
        rows = np.r_[True, keep]
        lstats = LatentStats(lstats.clusters[keep], lstats.mean[rows], lstats.std[rows])
        mus, real = [], anomaly.batch_components

        def spy(*args):
            out = real(*args)
            mus.append(np.asarray(out[0], np.float64))
            return out

        monkeypatch.setattr(anomaly, "batch_components", spy)
        report = anomaly.detect(params, windows, model, lstats, eval_samples=2)
        scored = windows[np.lexsort((windows.start, windows.element))]
        mu_of = {}
        for i, mu in enumerate(np.concatenate(mus)):
            for t, m in enumerate(mu):
                mu_of[scored.elements[scored.element[i]], int(scored.start[i]) + t] = m
        assert report.stats_fallback.any() and not report.stats_fallback.all()
        for r in range(len(report)):
            mu = mu_of[report.element_id[r], int(report.date[r])]
            assert np.array_equal(report.z[r], oracles.zscores(lstats, int(report.cluster[r]), mu))

    def test_same_seed_reproduces_exactly(self):
        params, windows, model, lstats = scored_setup()
        a = detect_list(params, windows, model, lstats, eval_samples=2, seed=4)
        b = detect_list(params, windows, model, lstats, eval_samples=2, seed=4)
        assert [(r.element_id, r.date, r.loss, r.zscores) for r in a] == [
            (r.element_id, r.date, r.loss, r.zscores) for r in b
        ]


def chunked_setup(monkeypatch, workers, chunk_windows):
    """scored_setup's 30 windows, scored chunk_windows at a time on `workers`
    threads; also returns each chunk's x, in the order detect scores them."""
    params, windows, model, lstats = scored_setup()
    monkeypatch.setattr(vae, "BATCH_WINDOWS", chunk_windows)
    monkeypatch.setattr(vae, "_worker_count", lambda: workers)
    x = windows[np.lexsort((windows.start, windows.element))].values
    chunks = [x[i : i + chunk_windows] for i in range(0, len(x), chunk_windows)]
    assert len({c.tobytes() for c in chunks}) == len(chunks)
    return (params, windows, model, lstats), chunks


def assert_reports_equal(got, want):
    for field in dataclasses.fields(anomaly.Report):
        assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name


def chunk_index(chunks, x) -> int:
    return next(k for k, c in enumerate(chunks) if np.array_equal(c, x))


class TestChunkThreads:
    """detect's chunks on one to eight threads."""

    def test_thread_count_does_not_change_the_report(self, monkeypatch):
        """Also with more threads than cores, switching every microsecond."""
        reports, threads = {}, set()
        real = anomaly.batch_components

        def spy(*args):
            threads.add(threading.current_thread())
            return real(*args)

        monkeypatch.setattr(anomaly, "batch_components", spy)
        interval = sys.getswitchinterval()
        for workers in (1, 2, 3, 8):
            setup, _ = chunked_setup(monkeypatch, workers, chunk_windows=2)

            def score(workers=workers, setup=setup):
                reports[workers] = anomaly.detect(
                    *setup, eval_samples=2, seed=5, z_threshold=1.0, symmetric=True
                )

            caller = threading.Thread(target=score)
            sys.setswitchinterval(1e-6)
            try:
                caller.start()
                caller.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not caller.is_alive()
            if workers == 1:
                assert threads == {caller}
        first = reports[1]
        assert first.flagged.any() and not first.flagged.all() and any(first.attribution)
        assert len(threads) > 2
        for report in (reports[2], reports[3], reports[8]):
            assert_reports_equal(report, first)

    def test_one_noise_draw_and_at_most_workers_running(self, monkeypatch):
        workers, seed = 3, 5
        setup, chunks = chunked_setup(monkeypatch, workers, chunk_windows=2)
        total = setup[0].latent.total
        want = np.random.default_rng(np.random.SeedSequence(seed)).standard_normal((2, 10, total))
        lock, count = threading.Lock(), {"running": 0}
        draws, running, seen = [], [], {}
        real_rng, real = np.random.default_rng, anomaly.batch_components

        class Rng:
            def __init__(self, seed):
                self.rng = real_rng(seed)

            def standard_normal(self, shape):
                with lock:
                    draws.append((threading.current_thread(), count["running"]))
                return self.rng.standard_normal(shape)

        def spy(params, x, prior_means, prior_std, eps):
            with lock:
                count["running"] += 1
                running.append(count["running"])
            try:
                time.sleep(0.01)  # so that the chunks overlap
                seen[chunk_index(chunks, x)] = eps.copy()
                return real(params, x, prior_means, prior_std, eps)
            finally:
                with lock:
                    count["running"] -= 1

        monkeypatch.setattr(np.random, "default_rng", Rng)
        monkeypatch.setattr(anomaly, "batch_components", spy)
        anomaly.detect(*setup, eval_samples=2, seed=seed)
        # one draw, on the calling thread, before any chunk runs
        assert draws == [(threading.current_thread(), 0)]
        assert sorted(seen) == list(range(len(chunks)))
        assert all(np.array_equal(eps, want) for eps in seen.values())
        assert 2 <= max(running) <= workers

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_chunk_error_raises_after_the_running_chunks(self, monkeypatch, workers):
        # 30 windows in 6 chunks; the third fails, and on threads it fails
        # after the fourth, which fails too, has started
        setup, chunks = chunked_setup(monkeypatch, workers, chunk_windows=5)
        assert len(chunks) == 6
        started, ended = set(), set()
        real = anomaly.batch_components

        def spy(params, x, *args):
            k = chunk_index(chunks, x)
            started.add(k)
            try:
                time.sleep(0.05 if k == 2 else 0.01)
                if k in (2, 3):
                    raise NonFiniteError(f"decoder produced non-finite values in chunk {k}")
                return real(params, x, *args)
            finally:
                ended.add(k)

        monkeypatch.setattr(anomaly, "batch_components", spy)
        before = threading.active_count()
        with pytest.raises(NonFiniteError, match="chunk 2"):
            anomaly.detect(*setup, eval_samples=2)
        assert started == ended and {0, 1, 2} <= started
        assert threading.active_count() == before


class TestOwnWindowsOnly:
    """A cell's score depends on its own windows, the seed and eval_samples.

    Every window set here splits into chunks of at least 2 windows: a batch of
    one window takes BLAS's matrix-vector path, which may move its last bits.
    """

    @pytest.mark.parametrize("elements", [
        ["el0001"], ["el0000", "el0005"], ["el0002", "el0003", "el0004"],
    ])
    def test_subset_scores_like_the_whole_set(self, elements):
        params, windows, model, lstats = scored_setup()
        kwargs = dict(eval_samples=3, seed=7)
        whole = anomaly.detect(params, windows, model, lstats, **kwargs)
        keep = np.isin(np.array(windows.elements)[windows.element], elements)
        part = anomaly.detect(params, windows[keep], model, lstats, **kwargs)
        assert 0 < len(part) < len(whole)
        row = {(e, int(d)): r for r, (e, d) in enumerate(zip(whole.element_id, whole.date))}
        rows = [row[e, int(d)] for e, d in zip(part.element_id, part.date)]
        for name in ("loss", "kl", "loglik", "z"):
            assert getattr(part, name).tobytes() == getattr(whole, name)[rows].tobytes(), name

    def test_batch_windows_does_not_change_the_report(self, monkeypatch):
        # 30 windows: 15 chunks of 2, chunks of 7, 7, 7, 7 and 2, or one chunk
        params, windows, model, lstats = scored_setup()
        reports = {}
        for chunk in (2, 7, 256):
            monkeypatch.setattr(vae, "BATCH_WINDOWS", chunk)
            reports[chunk] = anomaly.detect(
                params, windows, model, lstats, eval_samples=2, seed=3,
                z_threshold=1.0, symmetric=True,
            )
        assert reports[256].flagged.any()
        assert_reports_equal(reports[2], reports[256])
        assert_reports_equal(reports[7], reports[256])


def spy_pass_dtypes(monkeypatch) -> list:
    """The dtype of the parameters of every scoring pass `detect` runs."""
    dtypes, real = [], anomaly.batch_components

    def spy(params, *args):
        dtypes.append(params.flat.dtype)
        return real(params, *args)

    monkeypatch.setattr(anomaly, "batch_components", spy)
    return dtypes


class TestForwardPrecision:
    """The float32 no-grad passes against the same pipeline run in float64."""

    def scored(self):
        params, windows, model, lstats = scored_setup()
        # a threshold low enough to flag cells, so the flag comparison has teeth
        reports = detect_list(params, windows, model, lstats, z_threshold=1.0, symmetric=True)
        return {(r.element_id, r.date): r for r in reports}, [
            (r.element_id, r.date) for r in reports
        ]

    def test_float32_scores_like_float64(self, monkeypatch):
        dtypes = spy_pass_dtypes(monkeypatch)
        low, low_order = self.scored()
        assert set(dtypes) == {np.dtype(np.float32)}
        dtypes.clear()
        monkeypatch.setattr(vae, "COMPUTE_DTYPE", np.float64)
        high, high_order = self.scored()
        assert set(dtypes) == {np.dtype(np.float64)}
        assert low.keys() == high.keys()
        assert sum(sum(r.flagged) for r in high.values()) > 0
        for key, r in high.items():
            assert low[key].flagged == r.flagged
            assert low[key].attribution == r.attribution
            assert low[key].loss == pytest.approx(r.loss, rel=1e-5)
        top = -(-len(high_order) // 50)  # the top 2%, rounded up
        assert set(low_order[:top]) == set(high_order[:top])

    def test_encoded_and_trained_tensors_are_float64(self):
        params, windows, model, _ = scored_setup()
        mu, lv = vae.encode_windows(params, windows)
        assert mu.dtype == lv.dtype == np.float64
        is_val = windows.element == windows.element.max()
        trained, _ = vae.train(
            windows[~is_val], windows[is_val], model,
            vae.TrainConfig(batch_size=8, max_epochs=1, patience=1), arch=vae.ArchConfig(hidden=4),
        )
        assert all(v.dtype == np.float64 for v in trained.tensors.values())


class TestTrainPrecision:
    """Training in the compute dtype against the same run in float64."""

    def trained(self):
        _, windows, model, _ = scored_setup()
        is_val = windows.element == windows.element.max()
        params, history = vae.train(
            windows[~is_val], windows[is_val], model,
            vae.TrainConfig(batch_size=8, max_epochs=6, patience=6, seed=2),
            arch=vae.ArchConfig(hidden=8),
        )
        lstats = anomaly.fit_latent_stats(params, windows, model.assignment)
        return params, history, anomaly.detect(params, windows, model, lstats)

    def test_float32_training_like_float64(self, monkeypatch):
        dtypes = spy_pass_dtypes(monkeypatch)
        low, low_history, low_report = self.trained()
        assert set(dtypes) == {np.dtype(np.float32)}
        dtypes.clear()
        monkeypatch.setattr(vae, "COMPUTE_DTYPE", np.float64)
        high, high_history, high_report = self.trained()
        assert set(dtypes) == {np.dtype(np.float64)}
        assert len(low_history) == len(high_history)
        for lo, hi in zip(low_history, high_history):
            assert lo["val_loss"] == pytest.approx(hi["val_loss"], rel=1e-5)
        assert all(v.dtype == np.float64 for v in [*low.tensors.values(), *high.tensors.values()])
        top = -(-len(high_report) // 50)  # the top 2%, rounded up
        cells = [set(zip(r.element_id[:top], r.date[:top])) for r in (low_report, high_report)]
        assert cells[0] == cells[1]


class TestDetectionRanking:
    def test_injection_improves_the_cells_rank(self, tiny_pipeline):
        """Cells the injection visibly displaces rank better than when clean.

        A spike on the cluster that owns a KPI's maximum clips back into its
        own noise band, so only cells with a real post-normalization delta
        carry the guarantee.
        """
        tp = tiny_pipeline
        lstats = anomaly.fit_latent_stats(tp.params, tp.train_w, tp.model.assignment)

        def score(rate, mag):
            cfg = data.SynthConfig(
                elements=8,
                days=80,
                clusters=2,
                anomaly_rate=rate,
                anomaly_magnitude=mag,
                seed=12,
            )
            records, labels = data.synth_generate(cfg)
            windows = data.window_sequences(records, 20, stride=20, stats=tp.stats)
            reports = detect_list(tp.params, windows, tp.model, lstats, seed=0)
            return {(r.element_id, r.date): r.rank for r in reports}, records, labels

        clean_pos, clean_recs, _ = score(0.0, 10.0)
        hot_pos, hot_recs, labels = score(0.01, 10.0)
        norm_by_key = {}
        for rc, rh in zip(oracles.record_list(clean_recs), oracles.record_list(hot_recs)):
            delta = data.normalize(rh.kpis, tp.stats) - data.normalize(rc.kpis, tp.stats)
            norm_by_key[(rc.element_id, rc.date)] = np.abs(delta).max()
        displaced = [key for key in oracles.label_cells(labels) if norm_by_key[key] >= 0.2]
        assert len(displaced) >= 3
        for key in displaced:
            assert hot_pos[key] < clean_pos[key]

    def test_same_seed_same_cells_across_magnitudes(self):
        picked = []
        for mag in (2.0, 5.0, 10.0):
            cfg = data.SynthConfig(
                elements=8,
                days=80,
                clusters=2,
                anomaly_rate=0.01,
                anomaly_magnitude=mag,
                seed=12,
            )
            _, labels = data.synth_generate(cfg)
            picked.append(labels)
        assert oracles.labels_equal(picked[0], picked[1])
        assert oracles.labels_equal(picked[0], picked[2])


class TestReportSerialization:
    def test_rows_schema(self):
        params, windows, model, lstats = scored_setup()
        # a threshold low enough to flag cells, so the attribution column is filled
        report = anomaly.detect(
            params, windows, model, lstats, eval_samples=2, z_threshold=1.0, symmetric=True
        )
        reports = oracles.report_list(report)
        assert any(r.attribution for r in reports)
        rows = list(oracles.report_rows(report))
        assert rows[0] == anomaly.REPORT_HEADER
        assert len(rows) == len(reports) + 1
        for row, r in zip(rows[1:], reports):
            assert len(row) == len(anomaly.REPORT_HEADER)
            assert row[0] == r.rank
            assert row[1] == r.element_id
            assert row[2] == r.date
            assert row[3] == r.cluster
            assert [float(v) for v in row[4:9]] == list(r.kpis)
            assert float(row[4 + 5]) == r.loss
            assert float(row[4 + 6]) == r.loglik
            assert float(row[4 + 7]) == r.kl
            assert [float(v) for v in row[12:17]] == list(r.zscores)
            assert row[-2] == "|".join(r.attribution)
            assert r.attribution == tuple(oracles.attribute(r, threshold=1.0, symmetric=True))
            assert row[-1] == int(r.stats_fallback)

    def test_save_report_writes_csv(self, tmp_path):
        params, windows, model, lstats = scored_setup()
        reports = anomaly.detect(params, windows, model, lstats, eval_samples=2, top_k=2)
        out = tmp_path / "report.csv"
        anomaly.save_report(reports, out)
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[:4] == ["rank", "element_id", "date", "cluster"]
        assert len(lines) == 3

    def test_save_report_bytes_match_the_row_oracle(self, tmp_path, monkeypatch):
        params, windows, model, lstats = scored_setup()
        report = anomaly.detect(
            params, windows, model, lstats, eval_samples=2, z_threshold=1.0, symmetric=True
        )
        assert any(report.attribution) and not all(report.attribution)
        # blocks of 7 rows leave a short last block
        monkeypatch.setattr(data, "WRITE_BLOCK_ROWS", 7)
        out = tmp_path / "report.csv"
        anomaly.save_report(report, out)
        assert len(report) % 7
        assert out.read_bytes() == oracles.csv_bytes(oracles.report_rows(report))

    def test_latent_stats_round_trip(self, tmp_path):
        stats = LatentStats(
            clusters=np.array([0, 3]),
            mean=np.array([[0.1, -0.2, 0.3, 1e-9, 5.0], np.arange(5.0), np.full(5, -1.25)]),
            std=np.array([[1.0, 0.5, 1e-6, 2.0, 3.0], np.ones(5), np.full(5, 0.125)]),
        )
        path = tmp_path / "stats.txt"
        anomaly.save_latent_stats(stats, path)
        back = anomaly.load_latent_stats(path)
        assert back.mean[0].shape == (5,)
        assert np.array_equal(back.mean[0], stats.mean[0])
        assert np.array_equal(back.std[0], stats.std[0])
        assert back.clusters.tolist() == [0, 3]
        for j in (0, 3):
            assert np.array_equal(oracles.own_stats(back, j)[0], oracles.own_stats(stats, j)[0])
            assert np.array_equal(oracles.own_stats(back, j)[1], oracles.own_stats(stats, j)[1])

    def test_cluster_rows_out_of_order_load_ascending(self, tmp_path):
        params, windows, model, lstats = scored_setup()
        assert lstats.clusters.tolist() == [0, 1]
        anomaly.save_latent_stats(lstats, tmp_path / "ordered.txt")
        lines = (tmp_path / "ordered.txt").read_text().splitlines(keepends=True)
        assert [ln.split()[0] for ln in lines[1:]] == ["global", "cluster", "cluster", "sha256"]
        # the two cluster rows swapped, under the sha256 row of the new text
        text = "".join([lines[0], lines[1], lines[3], lines[2]])
        swapped = tmp_path / "swapped.txt"
        swapped.write_text(text + f"sha256 {hashlib.sha256(text.encode()).hexdigest()}\n")
        back = anomaly.load_latent_stats(swapped)
        assert back.clusters.tolist() == [0, 1]
        ordered = anomaly.load_latent_stats(tmp_path / "ordered.txt")
        z = [anomaly.detect(params, windows, model, s, eval_samples=2).z for s in (ordered, back)]
        assert np.array_equal(z[0], z[1])

    def test_bad_tag_rejected(self, tmp_path):
        path = tmp_path / "stats.txt"
        path.write_text("not-a-stats-file\n")
        with pytest.raises(ParseError):
            anomaly.load_latent_stats(path)
