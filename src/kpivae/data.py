"""KPI dataset handling: CSV ingest, min-max normalization, windowing, synthesis.

A dataset is a list of :class:`KpiRecord`, one row per network element and day.
The five KPIs are, in column order: call drop rate (percent), total drops,
eNodeB drops, MME drops, total call attempts.
"""
from __future__ import annotations

import csv
import datetime as _dt
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ParseError, ValidationError

KPI_NAMES = (
    "call_drop_rate",
    "total_drops",
    "enodeb_drops",
    "mme_drops",
    "total_call_attempts",
)
N_KPIS = len(KPI_NAMES)

CSV_HEADER = ["element_id", "date"] + list(KPI_NAMES)
LABEL_HEADER = ["element_id", "date", "kpi_index"]

NORMSTATS_TAG = "kpivae-normstats-v1"


def fmt_float(x: float) -> str:
    # shortest round-tripping decimal form; keeps serialized files byte-stable
    return repr(float(x))


@dataclass(frozen=True)
class KpiRecord:
    """One element's daily KPI vector in original units."""

    element_id: str
    date: int  # calendar day ordinal
    kpis: tuple[float, float, float, float, float]


@dataclass
class NormStats:
    """Per-KPI min/max fitted on training data; degenerate marks min == max."""

    mins: np.ndarray
    maxs: np.ndarray
    degenerate: np.ndarray  # bool per KPI


@dataclass
class SequenceWindow:
    """A run of `length` consecutive days for one element.

    `values` holds normalized KPIs in [0, 1]; `raw` the original units,
    kept so reports can show unscaled numbers.
    """

    element_id: str
    start_date: int
    values: np.ndarray  # (T, 5) in [0, 1]
    raw: np.ndarray  # (T, 5) original units

    @property
    def length(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class WindowCells:
    """The (element, date) cell of every timestep of a window set.

    Timesteps are flattened window-major, in input order, like the rows of
    `stack_windows(windows).reshape(-1, N_KPIS)`. Cell ids order like
    (element_id, date).
    """

    elements: list[str]  # sorted element ids, indexed by `element`
    element: np.ndarray  # (N*T,) element rank
    date: np.ndarray  # (N*T,) calendar day ordinal
    cell: np.ndarray  # (N*T,) cell id
    first: np.ndarray  # first timestep of each cell, in cell-id order


def _window_length(windows: list[SequenceWindow]) -> int:
    lengths = {w.length for w in windows}
    if len(lengths) != 1:
        raise ValidationError(f"windows have mixed lengths {sorted(lengths)}")
    return lengths.pop()


def stack_windows(windows: list[SequenceWindow]) -> np.ndarray:
    """(N, T, 5) normalized values of a window set, which has one length."""
    _window_length(windows)
    return np.stack([w.values for w in windows])


def window_cells(windows: list[SequenceWindow]) -> WindowCells:
    """Index every timestep of a window set by its (element, date) cell."""
    length = _window_length(windows)
    elements, rank = np.unique([w.element_id for w in windows], return_inverse=True)
    start = np.array([w.start_date for w in windows])
    date = (start[:, None] + np.arange(length)).ravel()
    element = np.repeat(rank, length)
    cell = element * (date.max() - date.min() + 1) + date - date.min()
    first = np.unique(cell, return_index=True)[1]
    return WindowCells(elements.tolist(), element, date, cell, first)


@dataclass(frozen=True)
class AnomalyLabel:
    """Ground truth for one injected cell: which KPI was perturbed."""

    element_id: str
    date: int
    kpi_index: int


@dataclass
class KpiProfile:
    """Per-KPI baseline mean/scale of one synthetic cluster.

    Only the eNodeB-drop, MME-drop and call-attempt entries are sampled;
    total drops and call drop rate are derived from them, so their entries
    here are informational.
    """

    means: tuple[float, ...]
    scales: tuple[float, ...]


@dataclass
class SynthConfig:
    element_count: int = 50
    days: int = 150
    cluster_profiles: list[KpiProfile] = field(default_factory=lambda: default_profiles(10))
    anomaly_rate: float = 0.01
    anomaly_magnitude: float = 10.0
    rng_seed: int = 0

    def validate(self) -> None:
        if self.element_count < 1 or self.days < 1:
            raise ConfigError("element_count and days must be >= 1")
        if not 0.0 <= self.anomaly_rate <= 1.0:
            raise ConfigError("anomaly_rate must be in [0, 1]")
        if self.anomaly_rate > 0 and self.anomaly_magnitude <= 1.0:
            raise ConfigError("anomaly_magnitude must be > 1")
        if not self.cluster_profiles:
            raise ConfigError("cluster_profiles must be non-empty")
        for p in self.cluster_profiles:
            if len(p.means) != N_KPIS or len(p.scales) != N_KPIS:
                raise ConfigError("profiles need one mean/scale per KPI")


def _parse_date(token: str, line_no: int) -> int:
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return _dt.date.fromisoformat(token).toordinal()
    except ValueError:
        raise ParseError(f"bad date {token!r} (want ISO day or integer ordinal)", line_no)


def text_lines(path, newline=None):
    """Yield the lines of a UTF-8 text file one at a time.

    Raises ParseError naming the file when its bytes are not UTF-8.
    """
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield from fh
        except UnicodeDecodeError:
            raise ParseError(f"{path} is not UTF-8 text")


def csv_rows(path, header: list[str]):
    """Yield (line number, fields) of every non-blank CSV row after `header`.

    Raises ParseError with the line number for a missing or different header
    and for a row with the wrong number of fields.
    """
    reader = csv.reader(text_lines(path, newline=""))
    first = next(reader, None)
    if first is None:
        raise ParseError("empty file, expected header row", 1)
    if first != header:
        raise ParseError(f"bad header {first!r}, expected {header!r}", 1)
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(row)}", line_no)
        yield line_no, row


def load_records(path) -> list[KpiRecord]:
    """Parse the canonical CSV schema into records, preserving row order.

    Raises ParseError with the line number for malformed rows, ValidationError
    for negative KPIs or duplicate (element_id, date) pairs.
    """
    records: list[KpiRecord] = []
    seen: set[tuple[str, int]] = set()
    for line_no, row in csv_rows(path, CSV_HEADER):
        element_id = row[0]
        date = _parse_date(row[1], line_no)
        try:
            kpis = tuple(float(v) for v in row[2:7])
        except ValueError:
            raise ParseError(f"non-numeric KPI in {row[2:7]!r}", line_no)
        for name, v in zip(KPI_NAMES, kpis):
            if not np.isfinite(v):
                raise ValidationError(f"line {line_no}: {name} is not finite")
            if v < 0:
                raise ValidationError(f"line {line_no}: {name} is negative ({v})")
        key = (element_id, date)
        if key in seen:
            raise ValidationError(f"line {line_no}: duplicate (element_id, date) {key}")
        seen.add(key)
        records.append(KpiRecord(element_id, date, kpis))
    return records


def save_records(records: list[KpiRecord], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow([r.element_id, r.date] + [fmt_float(v) for v in r.kpis])


def load_labels(path) -> list[AnomalyLabel]:
    labels: list[AnomalyLabel] = []
    for line_no, row in csv_rows(path, LABEL_HEADER):
        try:
            kpi_index = int(row[2])
        except ValueError:
            raise ParseError(f"non-integer kpi_index {row[2]!r}", line_no)
        labels.append(AnomalyLabel(row[0], _parse_date(row[1], line_no), kpi_index))
    return labels


def save_labels(labels: list[AnomalyLabel], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LABEL_HEADER)
        for lab in labels:
            writer.writerow([lab.element_id, lab.date, lab.kpi_index])


def fit_normalization(train: list[KpiRecord]) -> NormStats:
    """Per-KPI min/max over the training records.

    Constant columns are flagged degenerate; normalize() maps them to 0.
    """
    if not train:
        raise ValidationError("cannot fit normalization on an empty dataset")
    values = np.array([r.kpis for r in train], dtype=np.float64)
    mins = values.min(axis=0)
    maxs = values.max(axis=0)
    return NormStats(mins=mins, maxs=maxs, degenerate=(mins == maxs))


def normalize(kpis, stats: NormStats) -> np.ndarray:
    """Map a KPI vector (or (N, 5) matrix) into [0, 1] with clipping."""
    v = np.asarray(kpis, dtype=np.float64)
    span = np.where(stats.degenerate, 1.0, stats.maxs - stats.mins)
    out = np.clip((v - stats.mins) / span, 0.0, 1.0)
    return np.where(stats.degenerate, 0.0, out)


def save_norm_stats(stats: NormStats, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(NORMSTATS_TAG + "\n")
        for i, name in enumerate(KPI_NAMES):
            fh.write(
                f"{name} {fmt_float(stats.mins[i])} {fmt_float(stats.maxs[i])} "
                f"{int(stats.degenerate[i])}\n"
            )


def artifact_rows(path, tag: str):
    """Yield (line number, fields) of every non-blank line after the tag line.

    Raises ParseError when the file is not text or does not start with `tag`.
    """
    lines = enumerate(text_lines(path), start=1)
    if next(lines, (1, ""))[1].rstrip("\n") != tag:
        raise ParseError(f"bad tag in {path}, expected {tag!r}", 1)
    for line_no, ln in lines:
        parts = ln.split()
        if parts:
            yield line_no, parts


def load_norm_stats(path) -> NormStats:
    mins = np.zeros(N_KPIS)
    maxs = np.zeros(N_KPIS)
    degenerate = np.zeros(N_KPIS, dtype=bool)
    seen = set()
    for line_no, parts in artifact_rows(path, NORMSTATS_TAG):
        if len(parts) != 4 or parts[0] not in KPI_NAMES or parts[0] in seen:
            raise ParseError(f"bad normstats row {' '.join(parts)!r}", line_no)
        seen.add(parts[0])
        i = KPI_NAMES.index(parts[0])
        try:
            mins[i], maxs[i] = float(parts[1]), float(parts[2])
            degenerate[i] = bool(int(parts[3]))
        except ValueError:
            raise ParseError(f"non-numeric token in {' '.join(parts)!r}", line_no)
    if len(seen) != N_KPIS:
        raise ParseError(f"expected {N_KPIS} stat rows, got {len(seen)}")
    return NormStats(mins, maxs, degenerate)


def window_sequences(
    records: list[KpiRecord],
    length: int,
    stride: int = 1,
    stats: NormStats | None = None,
) -> list[SequenceWindow]:
    """Slice each element's consecutive-date runs into fixed-length windows.

    Runs shorter than `length` yield nothing; no padding is ever applied.
    Windows are returned sorted by (element_id, start_date).
    """
    if length < 1 or stride < 1:
        raise ConfigError("length and stride must be >= 1")
    by_element: dict[str, list[KpiRecord]] = {}
    for r in records:
        by_element.setdefault(r.element_id, []).append(r)
    windows: list[SequenceWindow] = []
    for element_id in sorted(by_element):
        rows = sorted(by_element[element_id], key=lambda r: r.date)
        run: list[KpiRecord] = []
        runs: list[list[KpiRecord]] = []
        for r in rows:
            if run and r.date != run[-1].date + 1:
                runs.append(run)
                run = []
            run.append(r)
        if run:
            runs.append(run)
        for run in runs:
            raw = np.array([r.kpis for r in run], dtype=np.float64)
            norm = normalize(raw, stats) if stats is not None else raw
            for start in range(0, len(run) - length + 1, stride):
                windows.append(
                    SequenceWindow(
                        element_id=element_id,
                        start_date=run[start].date,
                        values=norm[start : start + length].copy(),
                        raw=raw[start : start + length].copy(),
                    )
                )
    return windows


def _permutation(k: int, salt: int) -> list[int]:
    # deterministic pseudo-shuffle so clusters are not ordered the same way
    # in every KPI (Knuth multiplicative hash; odd multiplier => bijection)
    return sorted(range(k), key=lambda i: ((i + salt) * 2654435761) % (1 << 32))


def _rank_levels(n: int) -> list[float]:
    # One dominant level plus a geometric ladder well below it. Keeping every
    # non-top cluster under ~0.26 of the dominant one means a x10 spike lands
    # far outside the healthy band even after min-max clipping; only the
    # cluster that owns the per-KPI maximum has its spikes clipped back into
    # its own noise.
    if n == 1:
        return [1.0]
    body = [max(0.25 * (1 / 1.26) ** (n - 2 - r), 0.04) for r in range(n - 1)]
    return body + [1.0]


def _mme_ranks(n: int) -> list[int]:
    if n < 3 or n % 3 == 0:
        return _permutation(n, 5)
    return [(i * 3 + 1) % n for i in range(n)]


def default_profiles(n_clusters: int) -> list[KpiProfile]:
    """Hand-spread cluster baselines covering a wide KPI range.

    Attempts rise with cluster index while eNodeB drops fall, so the busiest
    cluster owns the attempts maximum and cluster 0 owns the eNodeB, total
    and drop-rate maxima; MME ranks rotate independently.
    """
    if n_clusters < 1:
        raise ConfigError("n_clusters must be >= 1")
    levels = _rank_levels(n_clusters)
    mme_rank = _mme_ranks(n_clusters)
    profiles = []
    for i in range(n_clusters):
        att_mean = 200000.0 * levels[i]
        enb_mean = 2000.0 * levels[n_clusters - 1 - i]
        mme_mean = 300.0 * levels[mme_rank[i]]
        td_mean = enb_mean + mme_mean
        cdr_mean = 100.0 * td_mean / att_mean
        att_scale = 0.04 * att_mean
        enb_scale = max(1.0, 0.04 * enb_mean)
        mme_scale = max(1.0, 0.04 * mme_mean)
        profiles.append(
            KpiProfile(
                means=(cdr_mean, td_mean, enb_mean, mme_mean, att_mean),
                scales=(0.0, enb_scale + mme_scale, enb_scale, mme_scale, att_scale),
            )
        )
    return profiles


def _inject(kpis: tuple, kpi_index: int, magnitude: float) -> tuple:
    """Multiply one KPI by `magnitude`, keeping total = eNodeB + MME exact.

    The labeled KPI is always assigned old * magnitude literally so the
    ground-truth contract holds bit-exactly; dependent KPIs are recomputed.
    """
    cdr, td, enb, mme, att = kpis
    if kpi_index == 4:
        att = att * magnitude
        cdr = 100.0 * td / max(att, 1.0)
    elif kpi_index == 2:
        enb = enb * magnitude
        td = enb + mme
        cdr = 100.0 * td / max(att, 1.0)
    elif kpi_index == 3:
        mme = mme * magnitude
        td = enb + mme
        cdr = 100.0 * td / max(att, 1.0)
    elif kpi_index == 1:
        new_td = td * magnitude
        enb = enb * magnitude
        mme = new_td - enb  # keeps the sum identity exact
        td = new_td
        cdr = 100.0 * td / max(att, 1.0)
    elif kpi_index == 0:
        new_td = td * magnitude
        enb = enb * magnitude
        mme = new_td - enb
        td = new_td
        cdr = cdr * magnitude  # assigned directly: label contract is bit-exact
    else:
        raise ConfigError(f"kpi_index out of range: {kpi_index}")
    return (cdr, td, enb, mme, att)


def synth_generate(config: SynthConfig) -> tuple[list[KpiRecord], list[AnomalyLabel]]:
    """Draw a synthetic KPI dataset plus ground-truth anomaly labels.

    Each element follows one cluster profile (round-robin assignment). Drops
    and attempts are drawn as non-negative integers; total drops and call
    drop rate are derived. Anomalies multiply one positive KPI of a chosen
    (element, day) cell by `anomaly_magnitude`; the injection RNG stream is
    independent of the draw stream, so the same seed with anomaly_rate = 0
    reproduces the clean counterfactual values bit-for-bit.
    """
    config.validate()
    seq = np.random.SeedSequence(config.rng_seed)
    draw_ss, inject_ss = seq.spawn(2)
    rng = np.random.default_rng(draw_ss)

    k = len(config.cluster_profiles)
    records: list[KpiRecord] = []
    for e in range(config.element_count):
        profile = config.cluster_profiles[e % k]
        element_id = f"el{e:04d}"
        enb = np.maximum(0.0, np.round(rng.normal(profile.means[2], profile.scales[2], config.days)))
        mme = np.maximum(0.0, np.round(rng.normal(profile.means[3], profile.scales[3], config.days)))
        att = np.maximum(1.0, np.round(rng.normal(profile.means[4], profile.scales[4], config.days)))
        td = enb + mme
        cdr = 100.0 * td / np.maximum(att, 1.0)
        for d in range(config.days):
            records.append(
                KpiRecord(
                    element_id,
                    d + 1,
                    (cdr[d], td[d], enb[d], mme[d], att[d]),
                )
            )

    labels: list[AnomalyLabel] = []
    n_cells = config.element_count * config.days
    n_anom = int(round(config.anomaly_rate * n_cells))
    if n_anom > 0:
        rng_inject = np.random.default_rng(inject_ss)
        cells = np.sort(rng_inject.choice(n_cells, size=n_anom, replace=False))
        for cell in cells:
            idx = int(cell)
            rec = records[idx]
            positive = [i for i in range(N_KPIS) if rec.kpis[i] > 0]
            kpi_index = int(positive[rng_inject.integers(len(positive))])
            records[idx] = KpiRecord(
                rec.element_id, rec.date, _inject(rec.kpis, kpi_index, config.anomaly_magnitude)
            )
            labels.append(AnomalyLabel(rec.element_id, rec.date, kpi_index))
    return records, labels
