import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import os
import subprocess
import sys
import threading
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from kpivae import anomaly, cli, concepts, data, vae
from kpivae.errors import ConfigError, KpivaeError, NonFiniteError, ValidationError


def run(argv):
    return cli.main(argv)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


SYNTH_ARGS = [
    "synth", "--elements", "6", "--days", "30", "--clusters", "2",
    "--anomaly-rate", "0.0", "--seed", "13",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full artifact chain shared by the read-only CLI assertions."""
    d = tmp_path_factory.mktemp("pipeline")
    p = {
        "data": d / "kpis.csv",
        "labels": d / "kpis.labels.csv",
        "model": d / "concepts.txt",
        "stats": d / "norm.txt",
        "quality": d / "quality.csv",
        "ckpt": d / "model.bin",
        "history": d / "history.csv",
        "lstats": d / "latent_stats.txt",
        "report": d / "report.csv",
        "latent": d / "latent.csv",
        "svg": d / "latent.svg",
    }
    assert run(SYNTH_ARGS + ["--out", str(p["data"])]) == 0
    assert run([
        "concepts", "--data", str(p["data"]), "--k", "2", "--seed", "0",
        "--out-model", str(p["model"]), "--out-stats", str(p["stats"]),
        "--out-quality", str(p["quality"]),
    ]) == 0
    assert run([
        "train", "--data", str(p["data"]), "--model", str(p["model"]),
        "--stats", str(p["stats"]), "--out-checkpoint", str(p["ckpt"]),
        "--out-history", str(p["history"]), "--out-latent-stats", str(p["lstats"]),
        "--window", "10", "--hidden", "6", "--batch-size", "8",
        "--max-epochs", "2", "--patience", "2", "--val-fraction", "0.2",
        "--seed", "1",
    ]) == 0
    assert run([
        "score", "--data", str(p["data"]), "--checkpoint", str(p["ckpt"]),
        "--model", str(p["model"]), "--stats", str(p["stats"]),
        "--latent-stats", str(p["lstats"]), "--out", str(p["report"]),
        "--window", "10", "--eval-samples", "2", "--seed", "0",
    ]) == 0
    assert run([
        "export-latent", "--data", str(p["data"]), "--checkpoint", str(p["ckpt"]),
        "--model", str(p["model"]), "--stats", str(p["stats"]),
        "--out", str(p["latent"]), "--window", "10", "--svg", str(p["svg"]),
    ]) == 0
    return p


class TestSynth:
    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(SYNTH_ARGS + ["--out", str(a)])
        run(SYNTH_ARGS + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.labels.csv").read_bytes() == (
            tmp_path / "b.labels.csv"
        ).read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(SYNTH_ARGS + ["--out", str(a)])
        run(SYNTH_ARGS[:-1] + ["14", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_zero_rate_gives_header_only_labels(self, pipeline):
        rows = read_csv(pipeline["labels"])
        assert rows == [data.LABEL_HEADER]

    def test_explicit_labels_path(self, tmp_path):
        out, lab = tmp_path / "x.csv", tmp_path / "ground_truth.csv"
        run(SYNTH_ARGS + ["--out", str(out), "--labels-out", str(lab)])
        assert lab.exists()

    def test_record_count(self, pipeline):
        rows = read_csv(pipeline["data"])
        assert rows[0] == data.CSV_HEADER
        assert len(rows) - 1 == 6 * 30


class TestConcepts:
    def test_model_reloads(self, pipeline):
        model = concepts.load_concept_model(pipeline["model"])
        assert model.k == 2
        assert model.prior_means.shape == (2, data.N_KPIS)
        assert len(model.assignment) == 6

    def test_quality_has_one_row_per_cluster(self, pipeline):
        rows = read_csv(pipeline["quality"])
        assert rows[0] == ["cluster", "size", "variance"]
        assert len(rows) == 1 + 2
        assert [r[0] for r in rows[1:]] == ["0", "1"]
        assert sum(int(r[1]) for r in rows[1:]) == 6

    def test_norm_stats_reload(self, pipeline):
        stats = data.load_norm_stats(pipeline["stats"])
        assert stats.mins.shape == (5,)


class TestTrain:
    def test_history_schema(self, pipeline):
        rows = read_csv(pipeline["history"])
        assert rows[0] == cli.HISTORY_HEADER
        assert len(rows) == 3
        for i, row in enumerate(rows[1:]):
            assert int(row[0]) == i
            loss, kl, ll = float(row[1]), float(row[2]), float(row[3])
            assert loss == pytest.approx(kl - ll, abs=1e-9)

    def test_checkpoint_reloads_and_scores(self, pipeline):
        params = vae.load_checkpoint(pipeline["ckpt"])
        assert params.arch.hidden == 6
        assert params.latent.total == 30

    def test_latent_stats_reload(self, pipeline):
        ls = anomaly.load_latent_stats(pipeline["lstats"])
        assert ls.global_mean.shape == ls.global_std.shape == (5,)


class TestScore:
    def test_report_schema(self, pipeline):
        rows = read_csv(pipeline["report"])
        assert rows[0] == anomaly.REPORT_HEADER
        assert len(rows) - 1 == 6 * 30
        losses = [float(r[9]) for r in rows[1:]]
        assert losses == sorted(losses, reverse=True)
        assert [int(r[0]) for r in rows[1:]] == list(range(1, len(rows)))

    def test_top_k(self, pipeline, tmp_path):
        out = tmp_path / "top.csv"
        run([
            "score", "--data", str(pipeline["data"]), "--checkpoint", str(pipeline["ckpt"]),
            "--model", str(pipeline["model"]), "--stats", str(pipeline["stats"]),
            "--latent-stats", str(pipeline["lstats"]), "--out", str(out),
            "--window", "10", "--eval-samples", "2", "--seed", "0", "--top-k", "5",
        ])
        rows = read_csv(out)
        full = read_csv(pipeline["report"])
        assert rows[1:] == full[1:6]

    def test_loss_floor(self, pipeline, tmp_path):
        full = read_csv(pipeline["report"])
        floor = float(full[8][9])
        out = tmp_path / "floored.csv"
        run([
            "score", "--data", str(pipeline["data"]), "--checkpoint", str(pipeline["ckpt"]),
            "--model", str(pipeline["model"]), "--stats", str(pipeline["stats"]),
            "--latent-stats", str(pipeline["lstats"]), "--out", str(out),
            "--window", "10", "--eval-samples", "2", "--seed", "0",
            "--loss-floor", repr(floor),
        ])
        rows = read_csv(out)
        assert all(float(r[9]) > floor for r in rows[1:])
        assert len(rows) - 1 == sum(1 for r in full[1:] if float(r[9]) > floor)


class TestExportLatent:
    def test_schema_and_dedupe(self, pipeline):
        rows = read_csv(pipeline["latent"])
        assert rows[0] == cli.LATENT_HEADER
        assert len(rows) - 1 == 6 * 30 * 5
        dims = {int(r[3]) for r in rows[1:]}
        assert dims == set(range(5))
        assert pipeline["svg"].read_text().startswith("<svg")

    def test_overlapping_windows_do_not_duplicate(self, pipeline, tmp_path):
        out = tmp_path / "lat.csv"
        run([
            "export-latent", "--data", str(pipeline["data"]),
            "--checkpoint", str(pipeline["ckpt"]), "--model", str(pipeline["model"]),
            "--stats", str(pipeline["stats"]), "--out", str(out),
            "--window", "10", "--stride", "5",
        ])
        rows = read_csv(out)
        keys = {(r[0], r[1], r[3]) for r in rows[1:]}
        assert len(keys) == len(rows) - 1

    def test_overlapping_windows_keep_first_occurrence(self, pipeline, tmp_path):
        out = tmp_path / "lat.csv"
        assert run([
            "export-latent", "--data", str(pipeline["data"]),
            "--checkpoint", str(pipeline["ckpt"]), "--model", str(pipeline["model"]),
            "--stats", str(pipeline["stats"]), "--out", str(out),
            "--window", "4", "--stride", "1",
        ]) == 0
        windows = data.window_sequences(
            data.load_records(pipeline["data"]), 4, stride=1,
            stats=data.load_norm_stats(pipeline["stats"]),
        )
        mu, lv = vae.encode_windows(vae.load_checkpoint(pipeline["ckpt"]), windows)
        first, last = {}, {}
        for w, m, v in zip(windows, mu, lv):
            for t, d in enumerate(w.start_date + np.arange(w.length)):
                first.setdefault((w.element_id, int(d)), (m[t], v[t]))
                last[(w.element_id, int(d))] = (m[t], v[t])
        # overlapping windows see a cell after different context
        assert any(not np.array_equal(first[c][0], last[c][0]) for c in first)
        rows = read_csv(out)[1:]
        assert [(r[0], int(r[1])) for r in rows[::5]] == list(first)
        for eid, d, _, dim, m, v, _ in rows:
            fm, fv = first[(eid, int(d))]
            assert (m, v) == (data.fmt_float(fm[int(dim)]), data.fmt_float(fv[int(dim)]))

    def test_all_dims(self, pipeline, tmp_path):
        out = tmp_path / "lat.csv"
        run([
            "export-latent", "--data", str(pipeline["data"]),
            "--checkpoint", str(pipeline["ckpt"]), "--model", str(pipeline["model"]),
            "--stats", str(pipeline["stats"]), "--out", str(out),
            "--window", "10", "--dims", "all",
        ])
        rows = read_csv(out)
        assert len(rows) - 1 == 6 * 30 * 30
        free_dim_rows = [r for r in rows[1:] if int(r[3]) >= 5]
        assert all(r[6] == "" for r in free_dim_rows)

    def test_cluster_filter(self, pipeline, tmp_path):
        model = concepts.load_concept_model(pipeline["model"])
        sizes = {c: 0 for c in range(2)}
        for _, c in model.assignment.items():
            sizes[c] += 1
        out = tmp_path / "lat.csv"
        run([
            "export-latent", "--data", str(pipeline["data"]),
            "--checkpoint", str(pipeline["ckpt"]), "--model", str(pipeline["model"]),
            "--stats", str(pipeline["stats"]), "--out", str(out),
            "--window", "10", "--cluster", "0",
        ])
        rows = read_csv(out)
        assert len(rows) - 1 == sizes[0] * 30 * 5
        assert {int(r[2]) for r in rows[1:]} == {0}

    def test_unknown_cluster_rejected(self, pipeline, tmp_path, capsys):
        code = run([
            "export-latent", "--data", str(pipeline["data"]),
            "--checkpoint", str(pipeline["ckpt"]), "--model", str(pipeline["model"]),
            "--stats", str(pipeline["stats"]), "--out", str(tmp_path / "x.csv"),
            "--window", "10", "--cluster", "9",
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_dims_mode_rejected(self, pipeline, tmp_path, capsys):
        code = run([
            "export-latent", "--data", str(pipeline["data"]),
            "--checkpoint", str(pipeline["ckpt"]), "--model", str(pipeline["model"]),
            "--stats", str(pipeline["stats"]), "--out", str(tmp_path / "x.csv"),
            "--window", "10", "--dims", "everything",
        ])
        assert code == 2

    def test_bad_dims_mode_rejected_before_any_input_is_read(self, pipeline, tmp_path, capsys):
        code = run([
            "export-latent", "--data", str(tmp_path / "missing.csv"),
            "--checkpoint", str(pipeline["ckpt"]), "--model", str(pipeline["model"]),
            "--stats", str(pipeline["stats"]), "--out", str(tmp_path / "x.csv"),
            "--dims", "bogus",
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: --dims must be 'concept' or 'all'\n"
        assert not (tmp_path / "x.csv").exists()


# element ids that csv.writer quotes; none is in the concept model, so each
# element is routed to its nearest centroid
QUOTED_IDS = {"el0000": "el,0", "el0001": 'el"1"', "el0002": "el\n2", "el0003": "él 3"}


@pytest.fixture(scope="module")
def quoted_data(pipeline, tmp_path_factory):
    """The pipeline's data with element ids that csv.writer must quote."""
    records = data.load_records(pipeline["data"])
    records.element_ids = np.array([QUOTED_IDS.get(e, e) for e in records.element_ids], object)
    path = tmp_path_factory.mktemp("quoted") / "kpis.csv"
    data.save_records(records, path)
    assert oracles.records_equal(data.load_records(path), records)
    return path


class TestCsvBytes:
    """Each CSV the CLI writes equals csv.writer's bytes for the rows of the
    row-by-row oracle."""

    @pytest.mark.parametrize("extra, dims, cluster", [
        ([], "concept", None), (["--dims", "all", "--cluster", "1"], "all", 1),
    ])
    @pytest.mark.parametrize("quoted", [False, True])
    def test_export_latent(self, pipeline, quoted_data, tmp_path, capsys,
                           extra, dims, cluster, quoted):
        source = quoted_data if quoted else pipeline["data"]
        out = tmp_path / "lat.csv"
        assert run([
            "export-latent", "--data", str(source), "--checkpoint", str(pipeline["ckpt"]),
            "--model", str(pipeline["model"]), "--stats", str(pipeline["stats"]),
            "--out", str(out), "--window", "10", *extra,
        ]) == 0
        windows = data.window_sequences(
            data.load_records(source), 10, stride=10,
            stats=data.load_norm_stats(pipeline["stats"]),
        )
        rows = oracles.latent_rows(
            vae.load_checkpoint(pipeline["ckpt"]), windows,
            concepts.load_concept_model(pipeline["model"]), dims, cluster,
        )
        assert out.read_bytes() == oracles.csv_bytes(rows)
        assert capsys.readouterr().out == f"exported {len(rows) - 1} latent rows to {out}\n"
        if dims == "all":
            assert {r[6] for r in rows[1:] if r[3] >= data.N_KPIS} == {""}
            assert len(rows) > 1
        if quoted:
            assert any(r[0] in QUOTED_IDS.values() for r in rows[1:])

    def test_report_with_quoted_ids(self, pipeline, quoted_data, tmp_path):
        out = tmp_path / "report.csv"
        assert run([
            "score", "--data", str(quoted_data), "--checkpoint", str(pipeline["ckpt"]),
            "--model", str(pipeline["model"]), "--stats", str(pipeline["stats"]),
            "--latent-stats", str(pipeline["lstats"]), "--out", str(out),
            "--window", "10", "--eval-samples", "2", "--z-threshold", "1", "--symmetric",
        ]) == 0
        windows = data.window_sequences(
            data.load_records(quoted_data), 10, stride=10,
            stats=data.load_norm_stats(pipeline["stats"]),
        )
        report = anomaly.detect(
            vae.load_checkpoint(pipeline["ckpt"]), windows,
            concepts.load_concept_model(pipeline["model"]),
            anomaly.load_latent_stats(pipeline["lstats"]),
            eval_samples=2, z_threshold=1.0, symmetric=True,
        )
        assert any(report.attribution) and set(QUOTED_IDS.values()) <= set(report.element_id)
        assert out.read_bytes() == oracles.csv_bytes(oracles.report_rows(report))

    def test_synth_quality_and_history(self, pipeline, tmp_path):
        records = data.load_records(pipeline["data"])
        cells = zip(records.element_ids.tolist(), records.dates.tolist(), records.kpis.tolist())
        rows = [[e, d, *map(data.fmt_float, k)] for e, d, k in cells]
        assert pipeline["data"].read_bytes() == oracles.csv_bytes([data.CSV_HEADER] + rows)
        argv = SYNTH_ARGS + ["--out", str(tmp_path / "x.csv")]
        argv[argv.index("--anomaly-rate") + 1] = "0.05"
        assert run(argv) == 0
        labels = oracles.load_labels(tmp_path / "x.labels.csv")
        rows = [[lab.element_id, lab.date, lab.kpi_index] for lab in labels]
        assert len(rows) == 9
        assert (tmp_path / "x.labels.csv").read_bytes() == oracles.csv_bytes(
            [data.LABEL_HEADER] + rows
        )

        stats = data.load_norm_stats(pipeline["stats"])
        model = concepts.load_concept_model(pipeline["model"])
        quality = concepts.cluster_quality(model, concepts.element_profiles(records, stats))
        rows = [[j, quality.sizes[j], repr(quality.variances[j])] for j in sorted(quality.sizes)]
        assert pipeline["quality"].read_bytes() == oracles.csv_bytes(
            [concepts.QUALITY_HEADER] + rows
        )
        # each float of the history is written in its shortest round-trip form
        history = read_csv(pipeline["history"])
        assert pipeline["history"].read_bytes() == oracles.csv_bytes(history)
        assert all(v == data.fmt_float(float(v)) for row in history[1:] for v in row[1:])


def score_with(pipeline, tmp_path, window="10", **swap):
    """Run `score` on the shared artifacts, with some inputs swapped out."""
    inputs = {
        "data": pipeline["data"], "checkpoint": pipeline["ckpt"], "model": pipeline["model"],
        "stats": pipeline["stats"], "latent-stats": pipeline["lstats"],
    }
    inputs.update({k.replace("_", "-"): v for k, v in swap.items()})
    argv = ["score", "--out", str(tmp_path / "report.csv"), "--window", window]
    for flag, path in inputs.items():
        argv += ["--" + flag, str(path)]
    return run(argv)


def corrupt_token(src, dst, prefix, index, token):
    """Copy a text artifact, replacing one field of the first row starting
    with `prefix` (dropping it when `token` is None, appending it when `index`
    is one past the last field); returns its line number. The copy gets the
    sha256 row of its new text, so that a check behind the hash fails."""
    lines = [ln for ln in src.read_text().splitlines() if not ln.startswith("sha256 ")]
    n = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
    parts = lines[n].split()
    if token is None:
        del parts[index]
    elif index == len(parts):
        parts.append(token)
    else:
        parts[index] = token
    lines[n] = " ".join(parts)
    text = "\n".join(lines) + "\n"
    dst.write_text(text + f"sha256 {hashlib.sha256(text.encode()).hexdigest()}\n")
    return n + 1


def repeat_row(src, dst, prefix):
    """Copy a text artifact with its first row starting with `prefix` appended
    again at the end; returns the line number of the copy."""
    lines = src.read_text().splitlines()
    lines.append(next(ln for ln in lines if ln.startswith(prefix)))
    dst.write_text("\n".join(lines) + "\n")
    return len(lines)


FLOAT_FLAGS = [
    (name, key)
    for name, table in (("synth", cli.SYNTH_KEYS), ("train", cli.TRAIN_KEYS), ("score", cli.SCORE_KEYS))
    for key, (_, cast) in table.items()
    if cast is float
]


class TestMalformedInputs:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command, key", FLOAT_FLAGS)
    def test_non_finite_float_flag(self, capsys, command, key, value):
        assert run([command, f"{cli._flag(key)}={value}"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert "not finite" in lines[0]

    @pytest.mark.parametrize(
        "artifact, flag, prefix, index, token",
        [
            ("lstats", "latent_stats", "cluster", 1, "x"),
            ("lstats", "latent_stats", "global", 3, "1.0e"),
            ("model", "model", "centroid 1", 4, "abc"),
            # a centroid row holds its 5 centroid values, each in [0, 1]
            ("model", "model", "centroid 1", 3, "inf"),
            ("model", "model", "centroid 1", 6, "nan"),
            ("model", "model", "centroid 1", 5, "1.5"),
            ("model", "model", "centroid 0", 2, "-0.25"),
            ("model", "model", "centroid 0", 7, "0.5"),
            ("model", "model", "assign", 2, None),
            # the centroid rows must number 0..k-1; k is their count
            ("model", "model", "centroid 1", 1, "10000000000000"),
            ("stats", "stats", "total_drops", 2, "abc"),
            ("stats", "stats", "total_call_attempts", 2, "inf"),
            ("stats", "stats", "call_drop_rate", 1, "1e9"),
            # a norm-stats row holds min and max; a third value, such as the
            # degenerate flag of the v1 format, is one too many
            ("stats", "stats", "mme_drops", 3, "yes"),
            ("stats", "stats", "enodeb_drops", 3, "7"),
        ],
    )
    def test_bad_text_artifact(
        self, pipeline, tmp_path, capsys, artifact, flag, prefix, index, token
    ):
        bad = tmp_path / "bad.txt"
        line_no = corrupt_token(pipeline[artifact], bad, prefix, index, token)
        assert score_with(pipeline, tmp_path, **{flag: bad}) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"line {line_no}" in err

    @pytest.mark.parametrize(
        "artifact, flag, prefix",
        [
            ("lstats", "latent_stats", "sha256"),
            # after the cluster rows, a second global row used to drop them all
            ("lstats", "latent_stats", "global"),
            ("lstats", "latent_stats", "cluster"),
            # a second centroid 0 row used to replace the first
            ("model", "model", "centroid 0"),
            ("model", "model", "assign"),
            ("stats", "stats", "total_drops"),
        ],
    )
    def test_repeated_artifact_row(self, pipeline, tmp_path, capsys, artifact, flag, prefix):
        bad = tmp_path / "bad.txt"
        line_no = repeat_row(pipeline[artifact], bad, prefix)
        assert score_with(pipeline, tmp_path, **{flag: bad}) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: line {line_no}: repeated")
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("size", [500, -16])
    def test_truncated_checkpoint(self, pipeline, tmp_path, capsys, size):
        blob = pipeline["ckpt"].read_bytes()
        cut = tmp_path / "cut.bin"
        cut.write_bytes(blob[:size])
        assert score_with(pipeline, tmp_path, checkpoint=cut) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out = {tmp_path / 'x.csv'}\nelements = abc\n")
        assert run(["synth", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "line 2" in err

    def test_window_longer_than_every_run(self, pipeline, tmp_path, capsys):
        assert score_with(pipeline, tmp_path, window="31") == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("flag", ["data", "stats", "model", "latent_stats", "config"])
    def test_not_utf8(self, pipeline, tmp_path, capsys, flag):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe\xff\n")
        if flag == "config":
            code = run(["synth", "--config", str(bad)])
        else:
            code = score_with(pipeline, tmp_path, **{flag: bad})
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("top_k", ["-3", "0"])
    def test_top_k_below_one(self, pipeline, tmp_path, capsys, top_k):
        assert score_with(pipeline, tmp_path, top_k=top_k) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("flag", ["--hidden", "--layers"])
    def test_empty_architecture(self, pipeline, tmp_path, capsys, flag):
        code = run([
            "train", "--data", str(pipeline["data"]), "--model", str(pipeline["model"]),
            "--stats", str(pipeline["stats"]), "--out-checkpoint", str(tmp_path / "m.bin"),
            "--window", "10", "--max-epochs", "1", flag, "0",
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_latent_stats_concept_dims_mismatch(self, pipeline, tmp_path, capsys):
        c = 3
        lstats = anomaly.LatentStats(np.zeros(c), np.ones(c), {}, {})
        anomaly.save_latent_stats(lstats, tmp_path / "lat.txt")
        assert score_with(pipeline, tmp_path, latent_stats=tmp_path / "lat.txt") == 2
        assert "line 2: global row needs 10 values, got 6" in capsys.readouterr().err

    def test_latent_stats_unknown_cluster(self, pipeline, tmp_path, capsys):
        lstats = anomaly.load_latent_stats(pipeline["lstats"])
        lstats.cluster_mean[7] = lstats.global_mean
        lstats.cluster_std[7] = lstats.global_std
        anomaly.save_latent_stats(lstats, tmp_path / "lat.txt")
        assert score_with(pipeline, tmp_path, latent_stats=tmp_path / "lat.txt") == 2
        assert "outside 0..1" in capsys.readouterr().err

    def test_stride_zero(self, pipeline, tmp_path, capsys):
        assert score_with(pipeline, tmp_path, stride="0") == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "report.csv").exists()

    # a stats row holds its 5 means, then its 5 stds
    @pytest.mark.parametrize(
        "prefix, index, token",
        [
            ("global", 6, "0.0"),
            ("global", 7, "-1.0"),
            ("cluster", 7, "0.0"),
            ("cluster", 11, "-1.0"),
            ("global", 2, "nan"),
            ("cluster", 3, "inf"),
        ],
    )
    def test_latent_stats_bad_value(self, pipeline, tmp_path, capsys, prefix, index, token):
        bad = tmp_path / "lat.txt"
        line_no = corrupt_token(pipeline["lstats"], bad, prefix, index, token)
        assert score_with(pipeline, tmp_path, latent_stats=bad) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"line {line_no}" in err

    def test_checkpoint_input_dim(self, pipeline, tmp_path, capsys):
        # the input is N_KPIS wide; a header may not declare another width
        def narrow(rows):
            rows["input_dim"] = 3

        oracles.rewrite_checkpoint(pipeline["ckpt"], tmp_path / "bad.bin", narrow)
        code = run([
            "export-latent", "--data", str(pipeline["data"]),
            "--checkpoint", str(tmp_path / "bad.bin"), "--model", str(pipeline["model"]),
            "--stats", str(pipeline["stats"]), "--out", str(tmp_path / "x.csv"),
            "--window", "10",
        ])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines == ["error: line 6: unknown row 'input_dim'"]

    def test_checkpoint_nan_prior_std(self, pipeline, tmp_path, capsys):
        def nan_prior(rows):
            rows["prior_std"] = float("nan")

        oracles.rewrite_checkpoint(pipeline["ckpt"], tmp_path / "bad.bin", nan_prior)
        assert b"\nprior_std nan\n" in (tmp_path / "bad.bin").read_bytes()
        assert score_with(pipeline, tmp_path, checkpoint=tmp_path / "bad.bin") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "prior_std" in err
        assert not (tmp_path / "report.csv").exists()

    def test_checkpoint_declares_huge_tensors(self, pipeline, tmp_path, capsys):
        def huge(rows):
            rows["hidden"] = 2**30

        oracles.rewrite_checkpoint(pipeline["ckpt"], tmp_path / "bad.bin", huge)
        assert score_with(pipeline, tmp_path, checkpoint=tmp_path / "bad.bin") == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:") and "truncated" in lines[0]

    @pytest.mark.parametrize(
        "section, changes",
        [
            ("latent", {"free_dims": 25.0}),
            # a field of the v1 format, now fixed at N_KPIS
            ("latent", {"concept_dims": 5.0}),
            # the logvar clip bounds are fields of the v3 format, now constants
            ("arch", {"logvar_lo": "a"}),
            ("arch", {"hidden": 6.0}),
            (None, {"sha256": 1}),
            ("arch", {"logvar_lo": 5.0, "logvar_hi": -5.0}),
            ("arch", {"logvar_hi": 1e300}),
            ("arch", {"logvar_lo": 1e30, "logvar_hi": 2e30}),
            ("arch", {"logvar_lo": -85.0}),
            ("latent", {"prior_std": 1e300}),
            ("latent", {"prior_std": 1e-300}),
            # every header field is one the v2 format stores
            (None, {"seed": 0}),
        ],
    )
    def test_checkpoint_header_field(self, pipeline, tmp_path, capsys, section, changes):
        # `section` is the config a field belongs to, None for the others
        oracles.rewrite_checkpoint(pipeline["ckpt"], tmp_path / "bad.bin", lambda r: r.update(changes))
        assert score_with(pipeline, tmp_path, checkpoint=tmp_path / "bad.bin") == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert any(name in lines[0] for name in changes)

    @pytest.mark.parametrize(
        "section, name", [("arch", "hidden"), ("latent", "prior_std"), (None, "sha256")]
    )
    def test_checkpoint_header_field_missing(self, pipeline, tmp_path, capsys, section, name):
        # `section` is the config a field belongs to, None for the others
        def drop(rows):
            del rows[name]

        oracles.rewrite_checkpoint(pipeline["ckpt"], tmp_path / "bad.bin", drop)
        assert score_with(pipeline, tmp_path, checkpoint=tmp_path / "bad.bin") == 2
        lines = capsys.readouterr().err.splitlines()
        if name == "sha256":  # the body is then read as rows
            assert len(lines) == 1 and lines[0].startswith("error:")
        else:
            assert lines == [f"error: bad checkpoint header: {name} is missing"]

    def test_checkpoint_declares_a_huge_layer_count(self, pipeline, tmp_path, capsys):
        def deep(rows):
            rows["layers"] = 10**12

        oracles.rewrite_checkpoint(pipeline["ckpt"], tmp_path / "bad.bin", deep)
        assert score_with(pipeline, tmp_path, checkpoint=tmp_path / "bad.bin") == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:") and "truncated" in lines[0]

    def test_negative_recon_weight(self, pipeline, tmp_path, capsys):
        code = run([
            "train", "--data", str(pipeline["data"]), "--model", str(pipeline["model"]),
            "--stats", str(pipeline["stats"]), "--out-checkpoint", str(tmp_path / "m.bin"),
            "--window", "5", "--hidden", "8", "--max-epochs", "3", "--recon-weight", "-1",
        ])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: recon_weight must be >= 0, got -1.0"]
        assert list(tmp_path.iterdir()) == []

    def test_synth_magnitude_that_overflows(self, tmp_path, capsys):
        code = run([
            "synth", "--out", str(tmp_path / "x.csv"), "--elements", "4", "--days", "5",
            "--anomaly-rate", "0.5", "--anomaly-magnitude", "1e308",
        ])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: anomaly_magnitude 1e+308")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("prior_std", ["1e200", "1e20", "1e-30"])
    def test_prior_std_out_of_range(self, pipeline, tmp_path, capsys, prior_std):
        code = run([
            "train", "--data", str(pipeline["data"]), "--model", str(pipeline["model"]),
            "--stats", str(pipeline["stats"]), "--out-checkpoint", str(tmp_path / "m.bin"),
            "--window", "10", "--hidden", "4", "--max-epochs", "1", "--prior-std", prior_std,
        ])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:") and "prior_std" in lines[0]

    def test_date_beyond_64_bits_names_its_line(self, pipeline, tmp_path, capsys):
        lines = pipeline["data"].read_text().splitlines()
        parts = lines[4].split(",")
        parts[1] = "99999999999999999999"
        lines[4] = ",".join(parts)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = run([
            "concepts", "--data", str(bad), "--k", "2",
            "--out-model", str(tmp_path / "m.txt"), "--out-stats", str(tmp_path / "s.txt"),
        ])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: line 5: date '99999999999999999999' does not fit in 64 bits"
        ]

    @pytest.mark.parametrize("element_id", ["é 3", 'a,"b"\nc'])
    def test_element_id_that_is_not_one_token(self, pipeline, tmp_path, capsys, element_id):
        records = data.load_records(pipeline["data"])
        records.element_ids = np.array(
            [element_id if e == "el0003" else e for e in records.element_ids], object
        )
        data.save_records(records, tmp_path / "kpis.csv")
        code = run([
            "concepts", "--data", str(tmp_path / "kpis.csv"), "--k", "2",
            "--out-model", str(tmp_path / "model.txt"), "--out-stats", str(tmp_path / "s.txt"),
        ])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and repr(element_id) in lines[0]
        assert not (tmp_path / "model.txt").exists()

    def test_chunk_error_on_a_thread(self, pipeline, tmp_path, capsys, monkeypatch):
        # 18 windows in 6 chunks on 3 threads; the third pass fails
        monkeypatch.setattr(vae, "BATCH_WINDOWS", 3)
        monkeypatch.setattr(vae, "_worker_count", lambda: 3)
        calls, real = itertools.count(1), anomaly.batch_components

        def spy(*args):
            if next(calls) == 3:
                raise NonFiniteError("decoder produced non-finite values at timestep 4")
            return real(*args)

        monkeypatch.setattr(anomaly, "batch_components", spy)
        before = threading.active_count()
        assert score_with(pipeline, tmp_path) == 2
        assert threading.active_count() == before
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: decoder produced non-finite values at timestep 4\n"
        assert not (tmp_path / "report.csv").exists()

    def test_concept_model_without_clusters(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "model.txt"
        data.write_artifact(bad, concepts.CONCEPTS_TAG, [["assign", "el0000", 0]])
        code = run([
            "export-latent", "--data", str(pipeline["data"]),
            "--checkpoint", str(pipeline["ckpt"]), "--model", str(bad),
            "--stats", str(pipeline["stats"]), "--out", str(tmp_path / "x.csv"),
            "--window", "10",
        ])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: a concept model needs at least one centroid row"]

    def test_latent_stats_cut_at_a_row_boundary(self, pipeline, tmp_path, capsys):
        # a k=4 model on the pipeline's data, so that the stats have 4 cluster rows
        records = data.load_records(pipeline["data"])
        stats = data.load_norm_stats(pipeline["stats"])
        model = concepts.kmeans_fit(concepts.element_profiles(records, stats), 4, seed=0)
        concepts.save_concept_model(model, tmp_path / "model.txt")
        windows = data.window_sequences(records, 10, stride=10, stats=stats)
        params = vae.load_checkpoint(pipeline["ckpt"])
        lstats = anomaly.fit_latent_stats(params, windows, model.assignment)
        assert len(lstats.cluster_mean) == 4
        anomaly.save_latent_stats(lstats, tmp_path / "full.txt")
        assert score_with(
            pipeline, tmp_path, model=tmp_path / "model.txt", latent_stats=tmp_path / "full.txt"
        ) == 0
        # without its last 3 cluster rows, and the sha256 row after them
        lines = (tmp_path / "full.txt").read_text().splitlines(keepends=True)
        assert [ln.split()[0] for ln in lines[-4:]] == ["cluster"] * 3 + ["sha256"]
        (tmp_path / "cut.txt").write_text("".join(lines[:-4]))
        (tmp_path / "report.csv").unlink()
        assert score_with(
            pipeline, tmp_path, model=tmp_path / "model.txt", latent_stats=tmp_path / "cut.txt"
        ) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "sha256" in lines[0]
        assert not (tmp_path / "report.csv").exists()

    def test_concept_model_cut_at_a_row_boundary(self, pipeline, tmp_path, capsys):
        # 20 more assignments, which sort after the pipeline's elements
        model = concepts.load_concept_model(pipeline["model"])
        model.assignment.update({f"zz{i:02d}": i % 2 for i in range(20)})
        concepts.save_concept_model(model, tmp_path / "full.txt")
        lines = (tmp_path / "full.txt").read_text().splitlines(keepends=True)
        assert [ln.split()[0] for ln in lines[-21:]] == ["assign"] * 20 + ["sha256"]
        (tmp_path / "cut.txt").write_text("".join(lines[:-21]))
        assert score_with(pipeline, tmp_path, model=tmp_path / "cut.txt") == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "sha256" in lines[0]
        assert not (tmp_path / "report.csv").exists()

    def test_checkpoint_body_byte_flipped(self, pipeline, tmp_path, capsys):
        blob = bytearray(pipeline["ckpt"].read_bytes())
        blob[-8] ^= 1  # the lowest mantissa bit of the last weight
        (tmp_path / "bad.bin").write_bytes(bytes(blob))
        assert score_with(pipeline, tmp_path, checkpoint=tmp_path / "bad.bin") == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: line 6: sha256 does not match the other lines and the body"]
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize(
        "artifact, flag", [
            ("stats", "stats"), ("model", "model"), ("lstats", "latent_stats"),
            ("ckpt", "checkpoint"),
        ],
    )
    def test_v1_file_names_its_version(self, pipeline, tmp_path, capsys, artifact, flag):
        tag, rest = pipeline[artifact].read_bytes().split(b"\n", 1)
        assert tag.endswith({"ckpt": b"-v4", "model": b"-v3"}.get(artifact, b"-v2"))
        old = tmp_path / "old"
        old.write_bytes(tag[:-1] + b"1\n" + rest)
        assert score_with(pipeline, tmp_path, **{flag: old}) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "-v1" in lines[0]

    def test_files_of_the_previous_format(self, pipeline, tmp_path, capsys):
        # a -v3 checkpoint holds the logvar clip bounds, a -v2 concept model
        # its k and inertia
        params = vae.load_checkpoint(pipeline["ckpt"])
        ckpt, model = tmp_path / "v3.bin", tmp_path / "v2.txt"
        rows = [("hidden", params.arch.hidden), ("layers", params.arch.layers),
                ("logvar_lo", -8.0), ("logvar_hi", 8.0),
                ("free_dims", params.latent.free_dims), ("prior_std", params.latent.prior_std)]
        data.write_artifact(ckpt, "kpivae-ckpt-v3", rows, body=params.flat.tobytes())
        cm = concepts.load_concept_model(pipeline["model"])
        rows = [["k", cm.k], ["inertia", 0.5]]
        rows += [["centroid", j, *c] for j, c in enumerate(cm.centroids)]
        rows += [["assign", eid, j] for eid, j in cm.assignment.items()]
        data.write_artifact(model, "kpivae-concepts-v2", rows)
        for flag, path, tag in (("checkpoint", ckpt, "ckpt-v3"), ("model", model, "concepts-v2")):
            assert score_with(pipeline, tmp_path, **{flag: path}) == 2
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1
            assert lines[0].startswith(f"error: line 1: bad tag 'kpivae-{tag}' in {path}")
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("version", [1, 2])
    def test_checkpoint_of_an_earlier_release(self, pipeline, tmp_path, capsys, version):
        # the JSON-header format before -v3 has no tag line
        old = tmp_path / "old.bin"
        oracles.legacy_checkpoint(vae.load_checkpoint(pipeline["ckpt"]), old, version)
        assert score_with(pipeline, tmp_path, checkpoint=old) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: line 1: bad tag 'KPIVAE")
        assert "expected 'kpivae-ckpt-v4'" in lines[0]

    def test_checkpoint_cut_inside_its_rows(self, pipeline, tmp_path, capsys):
        blob = pipeline["ckpt"].read_bytes()
        cut = tmp_path / "cut.bin"
        cut.write_bytes(blob[: blob.index(b"\nprior_std ") + 1])
        assert score_with(pipeline, tmp_path, checkpoint=cut) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: {cut} has no sha256 row; it may be cut short"]

    @pytest.mark.parametrize("flag", ["checkpoint", "model", "stats", "latent_stats"])
    def test_missing_artifact_named(self, pipeline, tmp_path, capsys, flag):
        absent = tmp_path / "absent.txt"
        assert score_with(pipeline, tmp_path, **{flag: absent}) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: artifact not found: {absent}"]

    @pytest.mark.parametrize("command", ["synth", "concepts", "train", "score"])
    def test_negative_seed(self, pipeline, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = {
            "synth": ["synth", "--out", str(out)],
            "concepts": [
                "concepts", "--data", str(pipeline["data"]), "--k", "2",
                "--out-model", str(out), "--out-stats", str(tmp_path / "stats.txt"),
            ],
            "train": [
                "train", "--data", str(pipeline["data"]), "--model", str(pipeline["model"]),
                "--stats", str(pipeline["stats"]), "--out-checkpoint", str(out),
                "--window", "10", "--hidden", "4", "--max-epochs", "1",
            ],
        }
        if command == "score":
            code = score_with(pipeline, tmp_path, seed="-1")
        else:
            code = run(argv[command] + ["--seed", "-1"])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0, got -1"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("window", [str(2**63 - 1), str(10**20)])
    def test_window_beyond_int64(self, pipeline, tmp_path, capsys, window):
        assert score_with(pipeline, tmp_path, window=window) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: no windows of length {window}; every run is shorter"]
        assert not (tmp_path / "report.csv").exists()

    def test_stride_beyond_int64(self, pipeline, tmp_path):
        # 180 records: a longer stride gives the windows of a stride of 180
        assert score_with(pipeline, tmp_path, stride=str(10**20)) == 0
        wide = (tmp_path / "report.csv").read_bytes()
        assert score_with(pipeline, tmp_path, stride="180") == 0
        assert (tmp_path / "report.csv").read_bytes() == wide


LOADERS = {
    "stats": data.load_norm_stats,
    "model": concepts.load_concept_model,
    "lstats": anomaly.load_latent_stats,
}


def assert_sound(artifact, loaded):
    """Every check a loaded text artifact must pass."""
    if artifact == "stats":
        assert np.isfinite(loaded.mins).all() and np.isfinite(loaded.maxs).all()
        assert (loaded.mins <= loaded.maxs).all()
        assert np.array_equal(loaded.degenerate, loaded.mins == loaded.maxs)
    elif artifact == "model":
        assert loaded.centroids.shape == loaded.prior_means.shape == (loaded.k, data.N_KPIS)
        assert (loaded.centroids >= 0).all() and (loaded.centroids <= 1).all()
        assert all(0 <= j < loaded.k for j in loaded.assignment.values())
    else:
        means = [loaded.global_mean, *loaded.cluster_mean.values()]
        stds = [loaded.global_std, *loaded.cluster_std.values()]
        assert loaded.cluster_mean.keys() == loaded.cluster_std.keys()
        for mean, std in zip(means, stds):
            assert mean.shape == std.shape == (data.N_KPIS,)
            assert np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()


class TestArtifactFuzz:
    # bytes that keep a number a number are drawn more often than the rest
    BYTES = st.one_of(st.sampled_from(b"0123456789.-e \n"), st.integers(0, 255))

    @settings(max_examples=600, deadline=None)
    @given(draw=st.data())
    def test_edit_or_truncation_fails_or_loads_sound(self, pipeline, tmp_path_factory, draw):
        artifact = draw.draw(st.sampled_from(sorted(LOADERS)))
        blob = bytearray(pipeline[artifact].read_bytes())
        at = draw.draw(st.integers(0, len(blob) - 1))
        if draw.draw(st.booleans()):
            del blob[at:]
        else:
            blob[at] = draw.draw(self.BYTES)
        path = tmp_path_factory.getbasetemp() / "fuzz.txt"
        path.write_bytes(bytes(blob))
        try:
            loaded = LOADERS[artifact](path)
        except KpivaeError:
            return
        assert_sound(artifact, loaded)


HEADER_FIELDS = [*asdict(vae.ArchConfig()), *asdict(vae.LatentConfig()), "sha256"]


class TestCheckpointHeaderFuzz:
    """One header row set to the text of another type's value, of a number out
    of range, or of any short string, with the sha256 row of the new text."""

    VALUES = st.one_of(
        st.none(),
        st.booleans(),
        st.text(max_size=3),
        st.lists(st.integers(-9, 9), max_size=2),
        st.dictionaries(st.text(max_size=2), st.integers(-9, 9), max_size=1),
        st.integers(-(2**70), 2**70),
        st.floats(),
        st.sampled_from([0, -1, 2**63, 10**400, 1e300, -1e300, 1e-300, 1e20, 1e-30, 5e-324]),
        # tokens int() or float() read in a form of their own
        st.sampled_from(["1_0", "+8", "0x10", "\u0663", "8.", "-0", "1e1_0", "6 6"]),
    )

    @settings(max_examples=300, deadline=None)
    @given(field=st.sampled_from(HEADER_FIELDS), value=VALUES)
    def test_field_fails_with_one_line_or_scores_quietly(
        self, pipeline, tmp_path_factory, field, value
    ):
        d = tmp_path_factory.getbasetemp()
        oracles.rewrite_checkpoint(pipeline["ckpt"], d / "fuzz.bin", lambda r: r.update({field: value}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = score_with(pipeline, d, checkpoint=d / "fuzz.bin")
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == []
        else:
            assert code == 2
            assert len(lines) == 1 and lines[0].startswith("error:")


class TestArgparseErrors:
    @pytest.mark.parametrize(
        "argv, names",
        [
            (["synth", "--elements", "abc"], "--elements"),
            (["synth", "--out", "x.csv", "--bogus", "1"], "--bogus"),
            ([], "command"),
            (["synth", "--days"], "--days"),
        ],
    )
    def test_single_error_line(self, capsys, argv, names):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert names in lines[0]


def train_with(pipeline, tmp_path, *extra):
    """Run a one-epoch `train` on the shared artifacts with extra flags."""
    return run([
        "train", "--data", str(pipeline["data"]), "--model", str(pipeline["model"]),
        "--stats", str(pipeline["stats"]), "--out-checkpoint", str(tmp_path / "m.bin"),
        "--window", "10", "--hidden", "4", "--max-epochs", "1", *extra,
    ])


class TestUnallocatableSizes:
    """A size that no allocation can meet gives one `error:` line and exit 2.
    Every size here fails at once, at TiB scale or beyond the address space."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--hidden", "60000"],  # 1.05 TiB of parameters
            ["--hidden", "1000000000"],  # more parameters than an array can index
            ["--layers", "100000000"],
            ["--free-dims", "1000000000"],
        ],
    )
    def test_train_model_size(self, pipeline, tmp_path, capsys, flags):
        assert train_with(pipeline, tmp_path, *flags) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: out of memory:")
        assert not (tmp_path / "m.bin").exists()

    def test_train_workspace(self, pipeline, tmp_path, capsys, monkeypatch):
        # the training workspace is the only caller that passes shape=
        empty_like = np.empty_like

        def failing(a, *args, **kwargs):
            if "shape" in kwargs:
                raise MemoryError("Unable to allocate 9.00 TiB for the workspace")
            return empty_like(a, *args, **kwargs)

        monkeypatch.setattr(np, "empty_like", failing)
        assert train_with(pipeline, tmp_path) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: out of memory: Unable to allocate 9.00 TiB for the workspace"]
        assert not (tmp_path / "m.bin").exists()

    def test_train_batch_size_beyond_the_training_set(self, pipeline, tmp_path):
        # the workspace holds the largest batch drawn, not batch_size windows
        assert train_with(pipeline, tmp_path, "--batch-size", "1000000000000") == 0

    @pytest.mark.parametrize("samples", ["100000000000", "1000000000000000"])
    def test_score_eval_samples(self, pipeline, tmp_path, capsys, samples):
        code = run([
            "score", "--data", str(pipeline["data"]), "--checkpoint", str(pipeline["ckpt"]),
            "--model", str(pipeline["model"]), "--stats", str(pipeline["stats"]),
            "--latent-stats", str(pipeline["lstats"]), "--out", str(tmp_path / "r.csv"),
            "--window", "10", "--eval-samples", samples,
        ])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: out of memory:")
        assert not (tmp_path / "r.csv").exists()


def test_report_bytes_independent_of_blas_threads(pipeline, tmp_path):
    """`concepts`, `score`, `train` and `export-latent` write the same bytes at
    1 and 2 BLAS threads and under two hash seeds, and `score` also at one
    usable CPU.

    Training forms dWx and dWh as single float32 GEMMs whose inner dimension
    is B*T. Hidden 32 puts those GEMMs above OpenBLAS's size threshold for
    threading, which hidden 6 or 8 on this data would not reach. `score` and
    `export-latent` use the hidden-32 checkpoint and latent stats that `train`
    writes, so their float32 GEMMs cross that threshold too. The hash seed
    would show any output that follows the iteration order of a set or a
    str-keyed dict. The second `score` reads 840 windows, 4 chunks of
    BATCH_WINDOWS, which detect runs on threads when 2 or more CPUs are
    usable and on this thread alone when pinned to one.
    """
    src = Path(cli.__file__).resolve().parents[1]
    data_arg = ["--data", str(pipeline["data"])]
    fitted = [
        "--model", str(pipeline["model"]), "--stats", str(pipeline["stats"]), "--window", "10",
    ]
    inputs = data_arg + fitted
    fleet = tmp_path / "fleet.csv"
    argv = SYNTH_ARGS + ["--out", str(fleet)]
    argv[argv.index("--elements") + 1] = "40"
    assert run(argv) == 0

    def score_fleet(out, report):
        return [
            "score", "--data", str(fleet), *fitted, "--stride", "1",
            "--checkpoint", str(out / "model.bin"), "--latent-stats", str(out / "lstats.txt"),
            "--out", str(out / report), "--eval-samples", "2", "--seed", "0",
            "--z-threshold", "1", "--symmetric",
        ]

    def kpivae(argv, env, **kwargs):
        subprocess.run(
            [sys.executable, "-m", "kpivae.cli", *argv],
            env=env, check=True, capture_output=True, timeout=300, **kwargs,
        )

    outputs = []
    for threads, hash_seed in (("1", "0"), ("2", "1")):
        out = tmp_path / threads
        out.mkdir()
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        for argv in (
            [
                "concepts", *data_arg, "--k", "2", "--seed", "0",
                "--out-model", str(out / "model.txt"), "--out-stats", str(out / "stats.txt"),
                "--out-quality", str(out / "quality.csv"),
            ],
            [
                "train", *inputs, "--out-checkpoint", str(out / "model.bin"),
                "--out-history", str(out / "history.csv"), "--hidden", "32",
                "--max-epochs", "2", "--patience", "2", "--val-fraction", "0.2", "--seed", "0",
                "--out-latent-stats", str(out / "lstats.txt"),
            ],
            [
                "score", *inputs, "--checkpoint", str(out / "model.bin"),
                "--latent-stats", str(out / "lstats.txt"), "--out", str(out / "report.csv"),
                "--eval-samples", "2", "--seed", "0",
            ],
            score_fleet(out, "fleet_report.csv"),
            [
                "export-latent", *inputs, "--checkpoint", str(out / "model.bin"),
                "--stride", "5", "--out", str(out / "latent.csv"), "--svg", str(out / "latent.svg"),
            ],
        ):
            kpivae(argv, env)
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert sorted(outputs[0]) == [
        "fleet_report.csv", "history.csv", "latent.csv", "latent.svg", "lstats.txt",
        "model.bin", "model.txt", "quality.csv", "report.csv", "stats.txt",
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0]["fleet_report.csv"].count(b"\n") == 40 * 30 + 1

    usable = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if len(usable) < 2:
        return  # the one-CPU leg needs a run on 2 or more CPUs to compare with
    kpivae(
        score_fleet(out, "pinned_report.csv"), env,
        preexec_fn=lambda: os.sched_setaffinity(0, {usable[0]}),
    )
    assert (out / "pinned_report.csv").read_bytes() == outputs[0]["fleet_report.csv"]


# every output option of each command
OUTPUTS = {
    "synth": ["out", "labels_out"],
    "concepts": ["out_model", "out_stats", "out_quality"],
    "train": ["out_checkpoint", "out_history", "out_latent_stats"],
    "score": ["out"],
    "export-latent": ["out", "svg"],
}


def inputs_of(p, command):
    """The input flags of a quick run of `command` on the shared artifacts."""
    shared = [
        "--data", str(p["data"]), "--model", str(p["model"]), "--stats", str(p["stats"]),
        "--window", "10",
    ]
    return {
        "synth": SYNTH_ARGS[1:],
        "concepts": ["--data", str(p["data"])],
        "train": [*shared, "--hidden", "4", "--max-epochs", "1"],
        "score": [
            *shared, "--checkpoint", str(p["ckpt"]), "--latent-stats", str(p["lstats"]),
            "--eval-samples", "2",
        ],
        "export-latent": [*shared, "--checkpoint", str(p["ckpt"])],
    }[command]


@pytest.mark.parametrize("bad", ["absent parent", "file as parent", "directory"])
@pytest.mark.parametrize("command, key", [(c, k) for c, keys in OUTPUTS.items() for k in keys])
def test_bad_output_path_fails_before_any_work(pipeline, tmp_path, capsys, command, key, bad):
    """One `error:` line naming the flag, exit 2, no file written, and a file
    already at another output path keeps its bytes."""
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_bytes(b"a file\n")
    paths = {k: tmp_path / f"{k}.out" for k in OUTPUTS[command]}
    for path in paths.values():
        path.write_bytes(b"already here\n")
    paths[key] = {
        "absent parent": tmp_path / "absent" / "x.out",
        "file as parent": tmp_path / "file" / "x.out",
        "directory": tmp_path / "dir",
    }[bad]
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    argv = [command, *inputs_of(pipeline, command)]
    argv += [a for k, path in paths.items() for a in (cli._flag(k), str(path))]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {cli._flag(key)}: "), lines
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize(
    "command, keys, names",
    [
        pytest.param(c, pair, ("same.out", "same.out"), id="-".join((c, *pair)))
        for c, keys in OUTPUTS.items()
        for pair in itertools.combinations(keys, 2)
    ]
    + [pytest.param("synth", ("out", "labels_out"), ("a.csv", "./a.csv"), id="synth-spelled")],
)
def test_two_outputs_naming_one_file_fail_before_any_work(
    pipeline, tmp_path, capsys, monkeypatch, command, keys, names
):
    """One `error:` line naming both flags, exit 2 and no file written, also
    when the two paths are spelled differently."""
    monkeypatch.chdir(tmp_path)
    paths = {k: f"{k}.out" for k in OUTPUTS[command]}
    paths.update(zip(keys, names))
    argv = [command, *inputs_of(pipeline, command)]
    argv += [a for k, path in paths.items() for a in (cli._flag(k), path)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert all(cli._flag(k) in lines[0] for k in keys), lines
    assert list(tmp_path.iterdir()) == []


class TestConfigFile:
    def test_config_only_run(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "data.csv"
        cfg.write_text(
            "# synthetic data settings\n"
            f"out = {out}\n"
            "elements = 6\ndays = 30\nclusters = 2\n"
            "anomaly_rate = 0.0\nseed = 13\n"
        )
        assert run(["synth", "--config", str(cfg)]) == 0
        direct = tmp_path / "direct.csv"
        run(SYNTH_ARGS + ["--out", str(direct)])
        assert out.read_bytes() == direct.read_bytes()

    def test_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "data.csv"
        cfg.write_text(
            f"out = {out}\nelements = 6\ndays = 30\nclusters = 2\n"
            "anomaly_rate = 0.0\nseed = 13\n"
        )
        assert run(["synth", "--config", str(cfg), "--seed", "14"]) == 0
        base = tmp_path / "base.csv"
        run(SYNTH_ARGS + ["--out", str(base)])
        assert out.read_bytes() != base.read_bytes()

    def test_dashed_keys_accepted(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("anomaly-rate = 0.5\n")
        assert cli.load_config(cfg) == {"anomaly_rate": "0.5"}

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("learning_rat = 0.1\n")
        assert run(["synth", "--config", str(cfg), "--out", "x.csv"]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        with pytest.raises(ConfigError, match="line 1"):
            cli.load_config(cfg)

    def test_missing_required_option(self, capsys):
        assert run(["synth", "--elements", "6"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        code = run([
            "concepts", "--data", str(tmp_path / "absent.csv"),
            "--out-model", str(tmp_path / "m"), "--out-stats", str(tmp_path / "s"),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestOpts:
    def table(self):
        return {"alpha": (3, int), "flag": (False, bool), "need": (cli.REQUIRED, str)}

    def ns(self, **kw):
        base = {"config": None, "alpha": None, "flag": None, "need": None}
        base.update(kw)
        return argparse.Namespace(**base)

    def test_default_and_flag(self):
        o = cli.Opts(self.ns(), self.table())
        assert o.get("alpha") == 3
        o = cli.Opts(self.ns(alpha=7), self.table())
        assert o.get("alpha") == 7

    def test_required_raises(self):
        o = cli.Opts(self.ns(), self.table())
        with pytest.raises(ConfigError, match="--need"):
            o.get("need")

    def test_bool_parsing(self):
        assert cli._parse_bool("TRUE") is True
        assert cli._parse_bool("off") is False
        with pytest.raises(ConfigError):
            cli._parse_bool("maybe")


class TestSplitElements:
    def test_deterministic_and_disjoint(self):
        ids = [f"el{i:04d}" for i in range(50)]
        a = cli.split_elements(ids, 0.1)
        b = cli.split_elements(list(reversed(ids)), 0.1)
        assert a == b
        train, val = a
        assert train | val == set(ids)
        assert not train & val
        assert val and train

    def test_tiny_sets_use_rank_fallback(self):
        train, val = cli.split_elements(["a", "b"], 0.2)
        assert len(val) == 1 and len(train) == 1

    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            cli.split_elements(["a", "b"], 1.0)
        with pytest.raises(ValidationError):
            cli.split_elements(["a"], 0.2)

    def test_fraction_tracks_population(self):
        ids = [f"node-{i}" for i in range(2000)]
        _, val = cli.split_elements(ids, 0.25)
        assert 0.18 < len(val) / 2000 < 0.32
