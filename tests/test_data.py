import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from kpivae import concepts, data
from kpivae.errors import ConfigError, ParseError, ValidationError

KpiRecord = oracles.KpiRecord


def write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


HEADER = "element_id,date,call_drop_rate,total_drops,enodeb_drops,mme_drops,total_call_attempts\n"


class TestLoadRecords:
    def test_parses_basic_row(self, tmp_path):
        p = write(tmp_path, HEADER + "A,1,28.82,100,1,99,446\n")
        recs = data.load_records(p)
        assert len(recs) == 1
        assert recs.element_ids[0] == "A"
        assert recs.dates[0] == 1
        assert tuple(recs.kpis[0]) == (28.82, 100.0, 1.0, 99.0, 446.0)

    def test_empty_body_gives_empty_dataset(self, tmp_path):
        p = write(tmp_path, HEADER)
        assert len(data.load_records(p)) == 0

    def test_iso_dates_become_ordinals(self, tmp_path):
        p = write(tmp_path, HEADER + "A,2020-01-05,1,2,1,1,10\n")
        import datetime

        assert data.load_records(p).dates[0] == datetime.date(2020, 1, 5).toordinal()

    def test_bad_header_names_line_one(self, tmp_path):
        p = write(tmp_path, "element,day\nA,1,1,2,1,1,10\n")
        with pytest.raises(ParseError, match="line 1"):
            data.load_records(p)

    def test_non_numeric_kpi_names_line(self, tmp_path):
        p = write(tmp_path, HEADER + "A,1,1,2,1,1,10\nB,2,x,2,1,1,10\n")
        with pytest.raises(ParseError, match="line 3"):
            data.load_records(p)

    def test_date_beyond_64_bits_names_line(self, tmp_path):
        p = write(tmp_path, HEADER + "A,1,1,2,1,1,10\nA,99999999999999999999,1,2,1,1,10\n")
        with pytest.raises(ParseError, match="line 3: date .* does not fit in 64 bits"):
            data.load_records(p)

    def test_negative_kpi_rejected(self, tmp_path):
        p = write(tmp_path, HEADER + "A,1,1,-1,1,1,10\n")
        with pytest.raises(ValidationError, match="negative"):
            data.load_records(p)

    def test_nan_rejected(self, tmp_path):
        p = write(tmp_path, HEADER + "A,1,nan,2,1,1,10\n")
        with pytest.raises(ValidationError, match="finite"):
            data.load_records(p)

    def test_duplicate_element_date_rejected(self, tmp_path):
        p = write(tmp_path, HEADER + "A,1,1,2,1,1,10\nA,1,1,2,1,1,10\n")
        with pytest.raises(ValidationError, match="duplicate"):
            data.load_records(p)

    def test_round_trip_is_exact(self, tmp_path):
        cfg = data.SynthConfig(element_count=4, days=9, rng_seed=5)
        records, _ = data.synth_generate(cfg)
        p = tmp_path / "rt.csv"
        data.save_records(records, p)
        assert oracles.records_equal(data.load_records(p), records)

    def test_chunks_join_to_the_same_records(self, tmp_path, monkeypatch):
        # 36 rows in chunks of 5 leave a short last chunk
        records, _ = data.synth_generate(data.SynthConfig(element_count=4, days=9, rng_seed=5))
        p = tmp_path / "rt.csv"
        data.save_records(records, p)
        whole = data.load_records(p)
        monkeypatch.setattr(data, "LOAD_CHUNK_ROWS", 5)
        chunked = data.load_records(p)
        assert oracles.records_equal(chunked, whole)
        assert chunked.kpis.flags["F_CONTIGUOUS"] == whole.kpis.flags["F_CONTIGUOUS"]

    def test_malformed_row_in_a_later_chunk_is_reported_first(self, tmp_path, monkeypatch):
        # a bad value in the first chunk, a row with too few fields in the third
        monkeypatch.setattr(data, "LOAD_CHUNK_ROWS", 2)
        rows = [f"A,{d},1,2,1,1,10\n" for d in range(1, 7)]
        rows[0] = "A,1,x,2,1,1,10\n"
        rows[5] = "A,6,1,2\n"
        with pytest.raises(ParseError, match="line 7.*expected 7 fields"):
            data.load_records(write(tmp_path, HEADER + "".join(rows)))
        rows[5] = "A,6,1,2,1,1,10\n"
        with pytest.raises(ParseError, match="line 2.*non-numeric"):
            data.load_records(write(tmp_path, HEADER + "".join(rows)))


class TestNormalization:
    def test_min_max_per_column(self):
        recs = [
            KpiRecord("A", 1, (0.0, 2.0, 1.0, 1.0, 10.0)),
            KpiRecord("A", 2, (5.0, 4.0, 2.0, 2.0, 30.0)),
            KpiRecord("A", 3, (10.0, 2.0, 3.0, 3.0, 20.0)),
        ]
        stats = data.fit_normalization(oracles.records(recs))
        assert stats.mins[0] == 0.0 and stats.maxs[0] == 10.0
        assert stats.mins[4] == 10.0 and stats.maxs[4] == 30.0
        assert not stats.degenerate.any()

    def test_degenerate_column_flagged_and_maps_to_zero(self):
        recs = [
            KpiRecord("A", 1, (3.0, 2.0, 1.0, 1.0, 10.0)),
            KpiRecord("A", 2, (3.0, 4.0, 2.0, 2.0, 30.0)),
        ]
        stats = data.fit_normalization(oracles.records(recs))
        assert stats.degenerate[0]
        out = data.normalize((3.0, 2.0, 1.0, 1.0, 10.0), stats)
        assert out[0] == 0.0

    def test_empty_fit_errors(self):
        with pytest.raises(ValidationError):
            data.fit_normalization(oracles.records([]))

    def test_boundary_and_midpoint(self):
        stats = data.NormStats(
            mins=np.zeros(5), maxs=np.full(5, 10.0), degenerate=np.zeros(5, dtype=bool)
        )
        out = data.normalize((0.0, 10.0, 5.0, 15.0, -2.0), stats)
        assert out[0] == 0.0
        assert out[1] == 1.0
        assert out[2] == 0.5
        assert out[3] == 1.0  # clipped above
        assert out[4] == 0.0  # clipped below

    @given(
        v=st.floats(-1e6, 1e6, allow_nan=False),
        lo=st.floats(-100, 100),
        span=st.floats(1e-3, 100),
    )
    def test_output_always_in_unit_interval(self, v, lo, span):
        stats = data.NormStats(
            mins=np.full(5, lo),
            maxs=np.full(5, lo + span),
            degenerate=np.zeros(5, dtype=bool),
        )
        out = data.normalize([v] * 5, stats)
        assert (out >= 0.0).all() and (out <= 1.0).all()

    def test_stats_round_trip(self, tmp_path):
        recs = [
            KpiRecord("A", 1, (0.1, 2.0, 1.0, 1.0, 10.0)),
            KpiRecord("A", 2, (5.3, 2.0, 2.0, 2.0, 30.0)),
        ]
        stats = data.fit_normalization(oracles.records(recs))
        p = tmp_path / "stats.txt"
        data.save_norm_stats(stats, p)
        loaded = data.load_norm_stats(p)
        assert (loaded.mins == stats.mins).all()
        assert (loaded.maxs == stats.maxs).all()
        assert (loaded.degenerate == stats.degenerate).all()


def make_run(element_id, start, n):
    return [
        KpiRecord(element_id, start + i, (1.0, 2.0, 1.0, 1.0, float(10 + i)))
        for i in range(n)
    ]


def windows(recs, length, **kw):
    return data.window_sequences(oracles.records(recs), length, **kw)


class TestWindowCells:
    def test_cells_of_overlapping_windows(self):
        ws = windows(make_run("B", 1, 4) + make_run("A", 5, 3), 3)[[1, 0, 2]]
        assert ws.elements == ["A", "B"]
        assert ws.element.repeat(3).tolist() == [1, 1, 1, 0, 0, 0, 1, 1, 1]
        dates = (ws.start[:, None] + np.arange(3)).ravel().tolist()
        assert dates == [1, 2, 3, 5, 6, 7, 2, 3, 4]
        ids = {}
        keys = zip(ws.element.repeat(3).tolist(), dates)
        for key, c in zip(keys, ws.cell.ravel().tolist()):
            assert ids.setdefault(key, c) == c
        assert len(set(ids.values())) == len(ids)
        # cell ids order like (element, date)
        assert [ids[k] for k in sorted(ids)] == sorted(ids.values())


class TestWindowing:
    def test_exact_length_run_gives_one_window(self):
        ws = windows(make_run("A", 1, 100), 100)
        assert len(ws) == 1
        assert ws[0].start_date == 1 and ws[0].length == 100

    def test_150_days_length_100_stride_50_gives_two(self):
        ws = windows(make_run("A", 1, 150), 100, stride=50)
        assert [w.start_date for w in ws] == [1, 51]

    def test_short_run_gives_nothing(self):
        assert len(windows(make_run("A", 1, 99), 100)) == 0

    def test_date_gap_splits_runs(self):
        recs = make_run("A", 1, 10) + make_run("A", 20, 10)
        ws = windows(recs, 10)
        assert [w.start_date for w in ws] == [1, 20]

    def test_windows_sorted_and_values_match(self):
        recs = make_run("B", 5, 6) + make_run("A", 1, 6)
        stats = data.fit_normalization(oracles.records(recs))
        ws = windows(recs, 3, stride=3, stats=stats)
        assert [(w.element_id, w.start_date) for w in ws] == [
            ("A", 1),
            ("A", 4),
            ("B", 5),
            ("B", 8),
        ]
        assert np.array_equal(ws[0].values, data.normalize(ws[0].raw, stats))
        assert ws[1].raw[0, 4] == 13.0

    def test_stride_default_one(self):
        ws = windows(make_run("A", 1, 5), 3)
        assert [w.start_date for w in ws] == [1, 2, 3]

    def test_bad_length_or_stride(self):
        with pytest.raises(ConfigError):
            data.window_sequences([], 0)
        with pytest.raises(ConfigError):
            data.window_sequences([], 3, stride=0)

    @settings(max_examples=60, deadline=None)
    @given(
        elements=st.lists(
            st.lists(st.tuples(st.integers(1, 12), st.integers(2, 4)), min_size=1, max_size=3),
            min_size=1,
            max_size=4,
        ),
        length=st.integers(1, 5),
        stride=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        random=st.randoms(use_true_random=False),
    )
    def test_count_matches_closed_form(self, elements, length, stride, seed, random):
        # per element: runs of (days, gap to the next run), gaps >= 2 leave a
        # missing day; ids sort against element order; rows are shuffled
        rng = np.random.default_rng(seed)
        recs = []
        for e, runs in enumerate(elements):
            start = int(rng.integers(-5, 5))
            for n, gap in runs:
                kpis = rng.uniform(0, 1e3, (n, 5)) * 10.0 ** rng.integers(-3, 3, (n, 1))
                recs += [KpiRecord("dcba"[e], start + i, tuple(kpis[i].tolist())) for i in range(n)]
                start += n + gap
        random.shuffle(recs)
        stats = data.fit_normalization(oracles.records(recs))
        ws = windows(recs, length, stride=stride, stats=stats)
        expected = sum(
            oracles.expected_window_count(n, length, stride) for runs in elements for n, _ in runs
        )
        assert len(ws) == expected

        ref = oracles.window_sequences(recs, length, stride=stride, stats=stats)
        assert [(w.element_id, w.start_date) for w in ws] == [
            (w.element_id, w.start_date) for w in ref
        ]
        assert all(type(e) is str for e in ws.elements)
        for got, field in ((ws.values, "values"), (ws.raw, "raw")):
            want = np.array([getattr(w, field) for w in ref]).reshape(got.shape)
            assert np.array_equal(got, want)
        ids, profiles = concepts.element_profiles(oracles.records(recs), stats)
        ref_profiles = oracles.element_profiles(recs, stats)
        assert ids == [p.element_id for p in ref_profiles]
        assert np.array_equal(profiles, np.array([p.profile for p in ref_profiles]))


class TestSynth:
    def test_same_seed_bit_identical(self):
        cfg = data.SynthConfig(element_count=6, days=20, rng_seed=9)
        a = data.synth_generate(cfg)
        b = data.synth_generate(cfg)
        assert oracles.records_equal(a[0], b[0]) and a[1] == b[1]

    def test_different_seed_differs(self):
        a, _ = data.synth_generate(data.SynthConfig(element_count=6, days=20, rng_seed=1))
        b, _ = data.synth_generate(data.SynthConfig(element_count=6, days=20, rng_seed=2))
        assert not oracles.records_equal(a, b)

    def test_sum_identity_holds_everywhere(self):
        records, _ = data.synth_generate(
            data.SynthConfig(element_count=10, days=40, anomaly_rate=0.05, rng_seed=3)
        )
        for r in oracles.record_list(records):
            cdr, td, enb, mme, att = r.kpis
            assert td == enb + mme

    def test_drop_rate_formula_on_clean_rows(self):
        records, labels = data.synth_generate(
            data.SynthConfig(element_count=10, days=40, anomaly_rate=0.02, rng_seed=3)
        )
        hit = {(l.element_id, l.date) for l in labels}
        for r in oracles.record_list(records):
            if (r.element_id, r.date) in hit:
                continue
            cdr, td, enb, mme, att = r.kpis
            assert cdr == 100.0 * td / max(att, 1.0)

    def test_zero_rate_means_no_labels(self):
        _, labels = data.synth_generate(
            data.SynthConfig(element_count=5, days=20, anomaly_rate=0.0, rng_seed=3)
        )
        assert labels == []

    def test_label_count_matches_rate(self):
        _, labels = data.synth_generate(
            data.SynthConfig(element_count=10, days=100, anomaly_rate=0.01, rng_seed=3)
        )
        assert len(labels) == 10  # round(0.01 * 1000)

    def test_injection_is_exact_multiple_of_counterfactual(self):
        cfg = dict(element_count=10, days=60, rng_seed=21)
        dirty, labels = data.synth_generate(
            data.SynthConfig(anomaly_rate=0.02, anomaly_magnitude=10.0, **cfg)
        )
        clean, _ = data.synth_generate(data.SynthConfig(anomaly_rate=0.0, **cfg))
        by_key = {(r.element_id, r.date): r for r in oracles.record_list(clean)}
        dirty_by_key = {(r.element_id, r.date): r for r in oracles.record_list(dirty)}
        assert labels
        for lab in labels:
            before = by_key[(lab.element_id, lab.date)].kpis[lab.kpi_index]
            after = dirty_by_key[(lab.element_id, lab.date)].kpis[lab.kpi_index]
            assert after == before * 10.0

    def test_labels_round_trip(self, tmp_path):
        _, labels = data.synth_generate(
            data.SynthConfig(element_count=10, days=50, anomaly_rate=0.02, rng_seed=4)
        )
        p = tmp_path / "labels.csv"
        data.save_labels(labels, p)
        assert oracles.load_labels(p) == labels

    @pytest.mark.parametrize(
        "text, where",
        [("", "line 1"), ("element_id,date,kpi_index\nel0000,3,x\n", "line 2")],
    )
    def test_bad_labels_file(self, tmp_path, text, where):
        p = tmp_path / "labels.csv"
        p.write_text(text)
        with pytest.raises(ParseError, match=where):
            oracles.load_labels(p)

    def test_cluster_round_robin(self):
        cfg = data.SynthConfig(element_count=7, days=5, cluster_profiles=data.default_profiles(3))
        records, _ = data.synth_generate(cfg)
        ids = sorted(set(records.element_ids.tolist()))
        assert len(ids) == 7
        assert oracles.synth_cluster_of("el0004", 3) == 1

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            data.SynthConfig(element_count=0).validate()
        with pytest.raises(ConfigError):
            data.SynthConfig(anomaly_rate=1.5).validate()
        with pytest.raises(ConfigError):
            data.SynthConfig(anomaly_rate=0.1, anomaly_magnitude=1.0).validate()

    def test_default_profiles_spread(self):
        profiles = data.default_profiles(10)
        assert len(profiles) == 10
        att = [p.means[4] for p in profiles]
        assert att == sorted(att)
        for p in profiles:
            assert all(m >= 0 for m in p.means)
            assert p.means[1] == p.means[2] + p.means[3]
        # each KPI has one dominant cluster; everyone else sits low enough
        # that a x10 spike clears the healthy band even after clipping
        means = np.array([p.means for p in profiles])
        for k in range(5):
            col = np.sort(means[:, k])[::-1]
            assert col[1] / col[0] < 0.3
        # relative daily noise stays small so spikes are many stds out
        for p in profiles:
            for k in (2, 3, 4):
                assert p.scales[k] / p.means[k] < 0.11


# text with every character csv.writer may quote, and any other code point
CSV_TEXT = st.text(
    alphabet=st.sampled_from([",", '"', "\r", "\n", " ", "|", "a", "é", "日"])
    | st.characters(exclude_categories=("Cs",)),
    max_size=5,
)
EDGE_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1]
CSV_FLOATS = st.sampled_from(EDGE_FLOATS) | st.floats()
# float32 values, and doubles cast to float32
CSV_FLOAT32S = st.sampled_from(EDGE_FLOATS) | st.floats(width=32) | st.floats(-1e38, 1e38)
WRITE_BLOCK = 4


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("write_csv") / "out.csv"


class TestWriteCsv:
    HEADER = ["rank", "id", "date", "a", "b", "f32", "flag", "names", "score"]

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.sampled_from([0, WRITE_BLOCK - 1, WRITE_BLOCK, WRITE_BLOCK + 1])
        | st.integers(0, 3 * WRITE_BLOCK + 1),
        draw=st.data(),
    )
    def test_bytes_match_csv_writer(self, csv_path, n, draw):
        def column(strategy):
            return draw.draw(st.lists(strategy, min_size=n, max_size=n))

        ids, names = column(CSV_TEXT), column(st.just("") | CSV_TEXT)
        dates = column(st.integers(-(2**63), 2**63 - 1))
        ab = np.array(column(st.tuples(CSV_FLOATS, CSV_FLOATS)), dtype=np.float64).reshape(n, 2)
        f32 = np.array(column(CSV_FLOAT32S), dtype=np.float64).astype(np.float32)
        flags, scores = column(st.booleans()), column(CSV_FLOATS)
        columns = (
            np.arange(1, n + 1), np.array(ids, dtype=object), np.array(dates, dtype=np.int64),
            ab, f32, np.array(flags, dtype=bool), np.array(names, dtype=object),
            np.array(scores, dtype=np.float64),
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "WRITE_BLOCK_ROWS", WRITE_BLOCK)
            data.write_csv(csv_path, self.HEADER, columns)
        rows = [self.HEADER] + [
            [r + 1, ids[r], dates[r], *map(data.fmt_float, ab[r]), data.fmt_float(f32[r]),
             int(flags[r]), names[r], data.fmt_float(scores[r])]
            for r in range(n)
        ]
        assert csv_path.read_bytes() == oracles.csv_bytes(rows)

    def test_block_size_changes_no_byte(self, tmp_path, monkeypatch):
        records, _ = data.synth_generate(data.SynthConfig(element_count=3, days=7, rng_seed=2))
        paths = []
        for block in (1, 5, 21, data.WRITE_BLOCK_ROWS):
            monkeypatch.setattr(data, "WRITE_BLOCK_ROWS", block)
            paths.append(tmp_path / f"{block}.csv")
            data.save_records(records, paths[-1])
        assert len({p.read_bytes() for p in paths}) == 1

    @pytest.mark.parametrize(
        "header, columns",
        [
            (["a"], [np.arange(3)]),
            (["a", "b"], [np.arange(3)]),
            (["a", "b"], [np.arange(3), np.arange(2)]),
            (["a", "b"], [np.zeros((3, 3))]),
            (["a", "b"], [np.zeros((3, 2), dtype=int)]),
        ],
    )
    def test_mismatched_columns_rejected(self, tmp_path, header, columns):
        with pytest.raises(ValueError, match="one column per header field"):
            data.write_csv(tmp_path / "x.csv", header, columns)


class TestWriteArtifact:
    @pytest.mark.parametrize("token", ["", "a b", "a\nb", "a\rb", "\x1c", "é "])
    def test_token_that_would_not_read_back_rejected_unwritten(self, tmp_path, token):
        path = tmp_path / "x.txt"
        with pytest.raises(ValidationError, match="one token"):
            data.write_artifact(path, "tag", iter([["k", 1], ["assign", token, 0]]))
        assert not path.exists()

    def test_single_tokens_read_back(self, tmp_path):
        path = tmp_path / "x.txt"
        data.write_artifact(path, "tag", iter([["assign", 'é,"1"', 0], ["assign", "日", 1]]))
        rows = data.read_artifact(path, "tag", {"assign": (str, int, 1)})
        assert rows["assign"] == {'é,"1"': (2, [0]), "日": (3, [1])}
