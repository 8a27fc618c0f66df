"""End-to-end scorecard for the detection pipeline.

Each test prints one PASS/FAIL line straight to the terminal (bypassing
capture) so a plain pytest run doubles as a checklist; the assertions still
gate the suite. The expensive synthetic pipeline is built once per module.
"""

import itertools
import types

import numpy as np
import pytest
from scipy import stats as sstats

import oracles
from kpivae import anomaly, cli, concepts, data, vae
from kpivae.vae import ArchConfig, LatentConfig


def scoreline(capsys, name: str, ok: bool, detail: str) -> None:
    mark = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[{mark}] {name}: {detail}", flush=True)


class TestLossArithmetic:
    def test_loss_decomposes_into_kl_minus_loglik(self, capsys):
        cfg = data.SynthConfig(
            elements=4,
            days=30,
            clusters=2,
            anomaly_rate=0.02,
            seed=3,
        )
        records, _ = data.synth_generate(cfg)
        stats = data.fit_normalization(records)
        model = concepts.kmeans_fit(concepts.element_profiles(records, stats), 2, seed=0)
        windows = data.window_sequences(records, 5, stride=5, stats=stats)
        params = vae.init_params(ArchConfig(hidden=8), LatentConfig(), seed=1)
        lstats = anomaly.fit_latent_stats(params, windows, model.assignment)
        report = anomaly.detect(params, windows, model, lstats, eval_samples=3, seed=0)
        reports = oracles.report_list(report)
        worst = max(abs(r.loss - (r.kl - r.loglik)) for r in reports)
        # reference row: kl 0.45 with loglik -4.73 must price out at 5.18
        row = 0.45 - (-4.73)
        ok = worst <= 1e-6 and abs(row - 5.18) < 1e-12
        scoreline(
            capsys,
            "loss decomposition",
            ok,
            f"max |loss-(kl-loglik)| {worst:.1e} over {len(reports)} records; 0.45/-4.73 -> {row:.2f}",
        )
        assert worst <= 1e-6
        assert abs(row - 5.18) < 1e-12


class TestKlOracle:
    def test_closed_form_matches_monte_carlo(self, capsys):
        # posterior means pushed >= 0.5 away from the prior mean keep the KL
        # well clear of zero, so the 1e5-sample estimate resolves 1% error
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            m = rng.uniform(-1, 1, 5)
            mu = m + rng.choice([-1.0, 1.0], 5) * rng.uniform(0.5, 1.5, 5)
            lv = rng.uniform(-1.0, 1.0, 5)
            closed = oracles.kl_loss(mu, lv, oracles.PriorSpec(mean=m, std=1.0, concept_dims=5))
            sq = np.exp(lv / 2.0)
            z = mu + sq * rng.standard_normal((100000, 5))
            logq = sstats.norm.logpdf(z, mu, sq).sum(axis=1)
            logp = sstats.norm.logpdf(z, m, 1.0).sum(axis=1)
            mc = float((logq - logp).mean())
            worst = max(worst, abs(closed - mc) / max(closed, 0.01))
        ok = worst < 0.01
        scoreline(capsys, "kl closed form vs monte carlo", ok, f"worst rel err {worst:.4f} on 100 pairs")
        assert ok


class TestGradientCheck:
    def test_reverse_mode_matches_central_differences(self, capsys):
        params = vae.init_params(ArchConfig(hidden=4), LatentConfig(), seed=0)
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(2, 3, 5))
        prior_means = rng.uniform(-1, 1, (2, 30))
        eps = rng.standard_normal((2, 3, 30))
        ws = vae._Workspace(len(x))
        obj, _, grads = vae.objective_and_grads(params, x, prior_means, 1.0, 10.0, eps, ws)

        def objective():
            _, _, kl_ts, ll_ts = vae.batch_components(params, x, prior_means, 1.0, eps[None])
            return float(kl_ts.mean() - 10.0 * ll_ts.mean())

        assert objective() == obj
        step = 1e-5
        worst = 0.0
        count = 0
        for k in sorted(params.tensors):
            tensor = params.tensors[k]
            analytic = oracles.tensors_of(params, grads)[k]
            it = np.nditer(tensor, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                old = tensor[idx]
                tensor[idx] = old + step
                fp = objective()
                tensor[idx] = old - step
                fm = objective()
                tensor[idx] = old
                num = (fp - fm) / (2 * step)
                # central differences carry ~eps*|f|/step rounding noise, so
                # entries with vanishing gradients need an absolute floor
                denom = max(abs(num) + abs(analytic[idx]), 1e-4)
                worst = max(worst, abs(num - analytic[idx]) / denom)
                count += 1
                it.iternext()
        ok = worst < 1e-4
        scoreline(capsys, "gradient check", ok, f"worst rel err {worst:.1e} over {count} parameters")
        assert ok


class TestInitialization:
    def test_recurrent_blocks_orthogonal_and_biases_zero(self, capsys):
        worst = 0.0
        blocks = 0
        for seed in (0, 12345):
            params = vae.init_params(ArchConfig(), LatentConfig(), seed=seed)
            for k, t in params.tensors.items():
                if k.endswith(".b"):
                    assert (t == 0.0).all(), f"{k} not zero at init"
                if k.endswith(".Wh"):
                    h = t.shape[0]
                    for g in range(4):
                        W = t[:, g * h : (g + 1) * h]
                        worst = max(worst, np.abs(W.T @ W - np.eye(h)).max())
                        blocks += 1
        ok = worst < 1e-5
        scoreline(
            capsys,
            "orthogonal recurrent init", ok, f"worst |W^T W - I| {worst:.1e} over {blocks} gate blocks"
        )
        assert ok


class TestKmeansOracle:
    def test_best_seeding_matches_exhaustive_partition(self, capsys):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(3, 9))
            k = min(int(rng.integers(1, 4)), n)
            pts = rng.uniform(size=(n, 5))
            profs = ([f"e{i:02d}" for i in range(n)], pts)
            fits = (concepts.kmeans_fit(profs, k, seed=s) for s in range(40))
            fit = min(concepts.inertia(model, profs) for model in fits)
            best = np.inf
            for assign in itertools.product(range(k), repeat=n):
                total = 0.0
                for j in range(k):
                    members = pts[[i for i in range(n) if assign[i] == j]]
                    if len(members):
                        total += ((members - members.mean(axis=0)) ** 2).sum()
                best = min(best, total)
            worst = max(worst, abs(fit - best))
        ok = worst <= 1e-9
        scoreline(capsys, "k-means vs exhaustive optimum", ok, f"worst inertia gap {worst:.1e} on 20 instances")
        assert ok


E2E_K = 10
E2E_WINDOW = 2
E2E_PRIOR_STD = 0.03


def _e2e_synth(seed: int, rate: float):
    cfg = data.SynthConfig(
        elements=50,
        days=150,
        clusters=E2E_K,
        anomaly_rate=rate,
        anomaly_magnitude=10.0,
        seed=seed,
    )
    return data.synth_generate(cfg)


@pytest.fixture(scope="module")
def pipeline():
    """Clean-trained model scored against an injected and a clean test set."""
    train_recs, _ = _e2e_synth(100, 0.0)
    test_recs, labels = _e2e_synth(101, 0.01)
    clean_recs, _ = _e2e_synth(102, 0.0)
    stats = data.fit_normalization(train_recs)
    model = concepts.kmeans_fit(concepts.element_profiles(train_recs, stats), E2E_K, seed=0)
    windows = data.window_sequences(train_recs, E2E_WINDOW, stride=E2E_WINDOW, stats=stats)
    train_ids, val_ids = cli.split_elements([w.element_id for w in windows], 0.05)
    is_train = np.array([w.element_id in train_ids for w in windows])
    train_w, val_w = windows[is_train], windows[~is_train]
    tcfg = vae.TrainConfig(seed=0, patience=30, max_epochs=300)
    latent = LatentConfig(prior_std=E2E_PRIOR_STD)
    params, history = vae.train(train_w, val_w, model, tcfg, latent=latent)
    lstats = anomaly.fit_latent_stats(params, train_w, model.assignment)
    test_w = data.window_sequences(test_recs, E2E_WINDOW, stride=E2E_WINDOW, stats=stats)
    clean_w = data.window_sequences(clean_recs, E2E_WINDOW, stride=E2E_WINDOW, stats=stats)
    reports = anomaly.detect(params, test_w, model, lstats, eval_samples=10, seed=0)
    clean_reports = anomaly.detect(params, clean_w, model, lstats, eval_samples=10, seed=0)
    return types.SimpleNamespace(
        labels=labels,
        params=params,
        history=history,
        model=model,
        stats=stats,
        lstats=lstats,
        reports=oracles.report_list(reports),
        clean_reports=oracles.report_list(clean_reports),
        clean_w=clean_w,
    )


class TestSyntheticDetection:
    def test_injected_cells_rank_high_and_carry_the_right_flag(self, pipeline, capsys):
        p = pipeline
        by_cell = {(r.element_id, r.date): r for r in p.reports}
        cutoff = int(round(0.02 * len(p.reports)))
        top = {(r.element_id, r.date) for r in p.reports[:cutoff]}
        cells = zip(oracles.label_cells(p.labels), p.labels.kpi_index.tolist())
        detected = [(cell, k) for cell, k in cells if cell in top]
        frac = len(detected) / len(p.labels)
        hit = float(np.mean([by_cell[cell].flagged[k] for cell, k in detected]))
        ok = frac >= 0.80 and hit >= 0.80
        scoreline(
            capsys,
            "synthetic detection + attribution",
            ok,
            f"{frac:.0%} of {len(p.labels)} injected cells in top 2%; "
            f"{hit:.0%} of detected flag the injected KPI (threshold 15)",
        )
        assert frac >= 0.80
        assert hit >= 0.80

    def test_clean_data_stays_quiet(self, pipeline, capsys):
        p = pipeline
        flagged = sum(1 for r in p.clean_reports if any(r.flagged))
        rate = flagged / len(p.clean_reports)
        ok = rate <= 0.01
        scoreline(
            capsys,
            "false positive control",
            ok,
            f"{flagged}/{len(p.clean_reports)} clean timesteps carry any flag ({rate:.2%})",
        )
        assert ok

    def test_isolated_injection_rank_never_worsens_with_magnitude(self, pipeline):
        """One injected cell per run against a fixed clean background.

        Isolation matters: when many cells are injected at once they crowd
        the top ranks and leapfrog each other, which says nothing about the
        per-cell response.
        """
        p = pipeline
        cfg = data.SynthConfig(
            elements=50,
            days=30,
            clusters=E2E_K,
            anomaly_rate=0.0,
            seed=103,
        )
        base, _ = data.synth_generate(cfg)
        cells = [("el0013", 10, 1), ("el0027", 20, 4), ("el0035", 15, 2)]
        for eid, date, kpi in cells:
            ranks = []
            for mag in (2.0, 5.0, 10.0):
                records = oracles.record_list(base)
                idx = next(
                    i for i, r in enumerate(records) if r.element_id == eid and r.date == date
                )
                records[idx] = oracles.KpiRecord(
                    eid, date, oracles.inject(records[idx].kpis, kpi, mag)
                )
                windows = data.window_sequences(oracles.records(records), E2E_WINDOW, stride=E2E_WINDOW, stats=p.stats)
                report = anomaly.detect(p.params, windows, p.model, p.lstats, eval_samples=10, seed=0)
                reports = oracles.report_list(report)
                ranks.append(next(r.rank for r in reports if r.element_id == eid and r.date == date))
            assert ranks[0] >= ranks[1] >= ranks[2], (eid, date, kpi, ranks)

    def test_concept_dim_tracks_top_variance_kpi(self, pipeline, capsys):
        p = pipeline
        values = np.concatenate([w.values for w in p.clean_w], axis=0)
        kpi = int(np.argmax(values.var(axis=0)))
        mu, _ = vae.encode_windows(p.params, p.clean_w)
        vals = np.concatenate([w.values[:, kpi] for w in p.clean_w])
        mus = mu[..., kpi].ravel()
        rho = sstats.spearmanr(vals, mus).statistic
        ok = rho >= 0.8
        scoreline(
            capsys,
            "latent tracks top-variance KPI",
            ok,
            f"spearman rho {rho:.3f} between {data.KPI_NAMES[kpi]} and its concept dim",
        )
        assert ok


class TestPipelineDeterminism:
    ARTIFACTS = (
        "data.csv",
        "labels.csv",
        "model.txt",
        "stats.txt",
        "quality.csv",
        "checkpoint.bin",
        "history.csv",
        "latent_stats.txt",
        "report.csv",
        "latent.csv",
        "latent.svg",
    )

    def _run(self, root):
        root.mkdir()
        d = str(root)
        steps = [
            ["synth", "--out", f"{d}/data.csv", "--labels-out", f"{d}/labels.csv",
             "--elements", "8", "--days", "60", "--clusters", "2",
             "--anomaly-rate", "0.01", "--seed", "5"],
            ["concepts", "--data", f"{d}/data.csv", "--k", "2", "--seed", "0",
             "--out-model", f"{d}/model.txt", "--out-stats", f"{d}/stats.txt",
             "--out-quality", f"{d}/quality.csv"],
            ["train", "--data", f"{d}/data.csv", "--model", f"{d}/model.txt",
             "--stats", f"{d}/stats.txt", "--out-checkpoint", f"{d}/checkpoint.bin",
             "--out-history", f"{d}/history.csv", "--out-latent-stats", f"{d}/latent_stats.txt",
             "--window", "10", "--hidden", "8", "--max-epochs", "3", "--patience", "3",
             "--seed", "2"],
            ["score", "--data", f"{d}/data.csv", "--checkpoint", f"{d}/checkpoint.bin",
             "--model", f"{d}/model.txt", "--stats", f"{d}/stats.txt",
             "--latent-stats", f"{d}/latent_stats.txt", "--out", f"{d}/report.csv",
             "--window", "10", "--seed", "0"],
            ["export-latent", "--data", f"{d}/data.csv", "--checkpoint", f"{d}/checkpoint.bin",
             "--model", f"{d}/model.txt", "--stats", f"{d}/stats.txt",
             "--out", f"{d}/latent.csv", "--svg", f"{d}/latent.svg", "--window", "10"],
        ]
        for argv in steps:
            assert cli.main(argv) == 0, argv[0]

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        self._run(tmp_path / "a")
        self._run(tmp_path / "b")
        differing = [
            name
            for name in self.ARTIFACTS
            if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()
        ]
        ok = not differing
        scoreline(
            capsys,
            "pipeline determinism",
            ok,
            f"{len(self.ARTIFACTS)} artifacts byte-compared" + (f"; differ: {differing}" if differing else ""),
        )
        assert ok
