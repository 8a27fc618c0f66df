"""KPI dataset handling: CSV ingest, min-max normalization, windowing, synthesis.

A dataset is one :class:`Records`, one row per network element and day. The
five KPIs are, in column order: call drop rate (percent), total drops,
eNodeB drops, MME drops, total call attempts.
"""
from __future__ import annotations

import csv
import datetime as _dt
import hashlib
import io
import re
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .errors import ConfigError, KpivaeError, MissingArtifactError, ParseError, ValidationError

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

# CSV rows load_records converts at a time; bounds the row strings held at once
LOAD_CHUNK_ROWS = 1024
# CSV rows write_csv formats at a time; bounds the text held at once and
# changes no output byte. Blocks of 2,048 report rows or more left about
# 10 MB more heap resident after `score`.
WRITE_BLOCK_ROWS = 1024
# a text field holding one of these is encoded by csv.writer
CSV_SPECIAL = ',"\r\n'
# most synthetic clusters; their profiles are built in Python lists, so a
# count far beyond this never finishes
MAX_SYNTH_CLUSTERS = 10**6

NORMSTATS_TAG = "kpivae-normstats-v2"
# the one date form read besides an integer ordinal
ISO_DAY = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")


def fmt_float(x: float) -> str:
    # shortest round-tripping decimal form; keeps serialized files byte-stable
    return repr(float(x))


@dataclass(eq=False)
class Records:
    """Daily KPI vectors in original units, one row per element and day."""

    element_ids: np.ndarray  # (N,) str
    dates: np.ndarray  # (N,) calendar day ordinal
    kpis: np.ndarray  # (N, 5)

    def __len__(self) -> int:
        return len(self.dates)


@dataclass
class NormStats:
    """Per-KPI min/max fitted on training data."""

    mins: np.ndarray
    maxs: np.ndarray

    @property
    def degenerate(self) -> np.ndarray:
        """Bool per KPI: min == max, a column normalize() maps to 0."""
        return self.mins == self.maxs


@dataclass(frozen=True, eq=False)
class Window:
    """One window of a `Windows` set, as iteration and integer indexing give it."""

    element_id: str
    start_date: int
    values: np.ndarray  # (T, 5)
    raw: np.ndarray  # (T, 5)

    @property
    def length(self) -> int:
        return self.values.shape[0]


@dataclass(eq=False)
class Windows:
    """Runs of T consecutive days, one row per window.

    `values` holds normalized KPIs in [0, 1]; `raw` the original units, kept
    so reports can show unscaled numbers. `cell` numbers the (element, date)
    cell of every timestep; cell ids order like (element_id, date). Indexing
    by a mask, slice or index array gives a `Windows` that keeps `elements`;
    an integer gives one `Window`.
    """

    elements: list[str]  # sorted element ids, indexed by `element`
    element: np.ndarray  # (N,)
    start: np.ndarray  # (N,) calendar day ordinal of the first timestep
    values: np.ndarray  # (N, T, 5) in [0, 1]
    raw: np.ndarray  # (N, T, 5) original units
    cell: np.ndarray  # (N, T)

    def __len__(self) -> int:
        return len(self.element)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            element_id = self.elements[self.element[index]]
            return Window(element_id, int(self.start[index]), self.values[index], self.raw[index])
        fields = (self.element, self.start, self.values, self.raw, self.cell)
        return Windows(self.elements, *(a[index] for a in fields))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


@dataclass(eq=False)
class Labels:
    """Ground truth of synthetic data, one row per injected cell: the KPI
    that was perturbed."""

    element_ids: np.ndarray  # (N,) str
    dates: np.ndarray  # (N,) calendar day ordinal
    kpi_index: np.ndarray  # (N,)

    def __len__(self) -> int:
        return len(self.dates)


@dataclass
class SynthConfig:
    elements: int = 50
    days: int = 150
    clusters: int = 10
    anomaly_rate: float = 0.01
    anomaly_magnitude: float = 10.0
    seed: int = 0

    def validate(self) -> None:
        if self.elements < 1 or self.days < 1:
            raise ConfigError("elements and days must be >= 1")
        if not 1 <= self.clusters <= MAX_SYNTH_CLUSTERS:
            raise ConfigError(f"clusters must be in 1..{MAX_SYNTH_CLUSTERS:,}, got {self.clusters}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.anomaly_rate <= 1.0:
            raise ConfigError("anomaly_rate must be in [0, 1]")
        if self.anomaly_rate > 0 and self.anomaly_magnitude <= 1.0:
            raise ConfigError("anomaly_magnitude must be > 1")


def _parse_date(token: str, line_no: int | None = None) -> int:
    token = token.strip()
    try:
        day = int(token)
    except ValueError:
        pass
    else:
        if not -(2**63) <= day < 2**63:
            raise ParseError(f"date {token!r} does not fit in 64 bits", line_no)
        return day
    # only YYYY-MM-DD, which date.fromisoformat reads on every Python; from
    # 3.11 it also reads forms such as the week date 2024-W01-1
    if ISO_DAY.fullmatch(token):
        try:
            return _dt.date.fromisoformat(token).toordinal()
        except ValueError:  # a day that does not exist, such as 2023-02-30
            pass
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


def load_records(path) -> Records:
    """Parse the canonical CSV schema into records, preserving row order.

    Raises ParseError with the line number for malformed rows, ValidationError
    for negative KPIs or duplicate (element_id, date) pairs.
    """
    rows = csv_rows(path, CSV_HEADER)
    ids, dates, blocks = [], [], [np.empty((N_KPIS, 0))]
    try:
        # each chunk's KPIs go column after column into one (5, n) block
        while chunk := [row for _, row in islice(rows, LOAD_CHUNK_ROWS)]:
            chunk_ids, chunk_dates, *cols = zip(*chunk)
            floats = map(float, chain.from_iterable(cols))
            blocks.append(np.fromiter(floats, np.float64).reshape(N_KPIS, -1))
            dates += map(_parse_date, chunk_dates)
            ids += chunk_ids
        kpis = np.concatenate(blocks, axis=1).T
        unique = len(set(zip(ids, dates))) == len(dates)
        if unique and np.isfinite(kpis).all() and (kpis >= 0).all():
            return Records(np.array(ids, dtype=object), np.array(dates, dtype=np.int64), kpis)
    except (KpivaeError, ValueError):
        pass
    # the first bad row decides the error: a row csv_rows rejects comes first
    # wherever it is, then the first bad value, read row by row to name it
    for _ in csv_rows(path, CSV_HEADER):
        pass
    _raise_first_bad_row(csv_rows(path, CSV_HEADER))


def _raise_first_bad_row(lines) -> None:
    """Raise the error of the first bad row, reading row by row."""
    seen: set[tuple[str, int]] = set()
    for line_no, row in lines:
        key = (row[0], _parse_date(row[1], line_no))
        try:
            kpis = tuple(float(v) for v in row[2:7])
        except ValueError:
            raise ParseError(f"non-numeric KPI in {row[2:7]!r}", line_no)
        for name, v in zip(KPI_NAMES, kpis):
            if not np.isfinite(v):
                raise ValidationError(f"line {line_no}: {name} is not finite")
            if v < 0:
                raise ValidationError(f"line {line_no}: {name} is negative ({v})")
        if key in seen:
            raise ValidationError(f"line {line_no}: duplicate (element_id, date) {key}")
        seen.add(key)
    raise ParseError("data CSV failed a check that no single row explains")


def fmt_floats(values: np.ndarray) -> list[str]:
    """fmt_float of every entry of an array, in C order."""
    # list.__repr__ writes each float as repr does, all in C
    return repr(values.ravel().tolist())[1:-1].split(", ") if values.size else []


def _float_fields(columns: list[np.ndarray]) -> list[str]:
    # the repr of the block's rows, "[[a, b], [c, d]]", split into "a,b" and "c,d"
    return repr(np.column_stack(columns).tolist())[2:-2].replace(", ", ",").split("],[")


def _int_fields(columns: list[np.ndarray]) -> list[str]:
    (column,) = columns
    return list(map(str, column.astype(np.int64, copy=False).tolist()))


def _csv_field(value: str) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([value])
    return buf.getvalue()[:-1]


def _text_fields(columns: list[np.ndarray]) -> list[str]:
    # a value holding none of CSV_SPECIAL is written as it is; csv.writer
    # encodes each distinct other value, so its quoting rule is the one used
    (column,) = columns
    values = column.tolist()
    joined = "".join(values)
    if not any(c in joined for c in CSV_SPECIAL):
        return values
    special = {v: _csv_field(v) for v in set(values) if any(c in v for c in CSV_SPECIAL)}
    return [special.get(v, v) for v in values]


def write_csv(path, header: list[str], columns) -> None:
    """Write a CSV with LF line ends: `header`, then row i of every column,
    byte for byte as csv.writer writes them.

    A column is a 1-D array of floats, ints, bools or str, or a 2-D float
    array whose columns are consecutive fields. Floats are written as
    fmt_float writes them and bools as 0 and 1. Rows are written
    WRITE_BLOCK_ROWS at a time, and the floats of adjacent float columns
    go through one repr per block.
    """
    columns = [np.asarray(c) for c in columns]
    width = sum(1 if c.ndim == 1 else c.shape[1] for c in columns)
    n_rows = len(columns[0])
    if (
        width != len(header) or width < 2
        or any(len(c) != n_rows or (c.ndim != 1 and c.dtype.kind != "f") for c in columns)
    ):
        raise ValueError(
            "need one column per header field (at least two), 1-D or 2-D float, of one length"
        )
    groups = []  # (formatter, columns), runs of adjacent float columns joined
    for c in columns:
        kind = c.dtype.kind
        fmt = _float_fields if kind == "f" else _int_fields if kind in "biu" else _text_fields
        if fmt is _float_fields and groups and groups[-1][0] is _float_fields:
            groups[-1][1].append(c)
        else:
            groups.append((fmt, [c]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for start in range(0, n_rows, WRITE_BLOCK_ROWS):
            block = slice(start, start + WRITE_BLOCK_ROWS)
            fields = [fmt([c[block] for c in cols]) for fmt, cols in groups]
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")


def save_text(path, text: str) -> None:
    """Write `text` as UTF-8, its line ends as they are."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def save_records(records: Records, path) -> None:
    write_csv(path, CSV_HEADER, (records.element_ids, records.dates, records.kpis))


def save_labels(labels: Labels, path) -> None:
    write_csv(path, LABEL_HEADER, (labels.element_ids, labels.dates, labels.kpi_index))


def fit_normalization(train: Records) -> NormStats:
    """Per-KPI min/max over the training records.

    Constant columns are flagged degenerate; normalize() maps them to 0.
    """
    if not len(train):
        raise ValidationError("cannot fit normalization on an empty dataset")
    return NormStats(mins=train.kpis.min(axis=0), maxs=train.kpis.max(axis=0))


def normalize(kpis, stats: NormStats) -> np.ndarray:
    """Map a KPI vector (or (N, 5) matrix) into [0, 1] with clipping."""
    v = np.asarray(kpis, dtype=np.float64)
    span = np.where(stats.degenerate, 1.0, stats.maxs - stats.mins)
    out = np.clip((v - stats.mins) / span, 0.0, 1.0)
    return np.where(stats.degenerate, 0.0, out)


def group_means(group: np.ndarray, rows: np.ndarray, n_groups: int) -> np.ndarray:
    """(n_groups, D) mean of the rows of each group, each summed in row order,
    so that for D >= 2 it equals `rows[group == g].mean(axis=0)` bit for bit
    (numpy sums a single column pairwise). An empty group's mean is 0/0."""
    # -0.0 is the additive identity, so each sum starts at its group's first row
    sums = np.full((n_groups, rows.shape[1]), -0.0)
    np.add.at(sums, group, rows)
    return sums / np.bincount(group, minlength=n_groups)[:, None]


def is_token(text: str) -> bool:
    """Whether read_artifact reads `text` back as one token: it is not
    empty and holds no whitespace (a space, a line break, a \\x1c)."""
    return text.split() == [text]


def write_artifact(path, tag: str, rows, body: bytes = b"") -> None:
    """Write an artifact: the tag line, one line of tokens per row, a `sha256`
    row, then `body`. The hash covers the text before the `sha256` row and
    the body after it.

    Floats are written by fmt_float, every other token by str. Raises
    ValidationError, before the file is opened, for a str token that is not
    `is_token`.
    """
    rows = [list(row) for row in rows]
    for t in (t for row in rows for t in row if isinstance(t, str)):
        if not is_token(t):
            raise ValidationError(f"cannot write {t!r} as one token of {tag}")
    lines = [tag] + [
        " ".join(fmt_float(t) if isinstance(t, (float, np.floating)) else str(t) for t in row)
        for row in rows
    ]
    text = ("\n".join(lines) + "\n").encode("utf-8")
    digest = hashlib.sha256(text)
    digest.update(body)
    with open(path, "wb") as fh:
        fh.write(text + f"sha256 {digest.hexdigest()}\n".encode("ascii"))
        fh.write(body)


def read_artifact(path, tag: str, kinds: dict, body: bool = False):
    """Parse an artifact into {kind: {key: (line number, values)}}.

    A row is its kind, then a key if the kind has one, then its values.
    `kinds` maps each kind to (key cast or None, value cast, value count,
    rule or None); a rule returns why a row's values are invalid, or a false
    value. Raises MissingArtifactError naming a missing file. Raises
    ParseError naming the line, in file order, for a bad tag or non-UTF-8
    bytes, an unknown kind, a token that does not cast, a wrong value count,
    a value that is not finite, a broken rule and a key repeated (compared
    after casting). Then the `sha256` row must hold the hash of every other
    line, so that a file cut short, or with a row added after that row,
    fails.

    With `body`, the rows end at the first `sha256` row, and the bytes after
    it are a body that the hash covers too; returns (rows, body), the body a
    memoryview of the one buffer the file is read into.
    """
    kinds = {**kinds, "sha256": (None, str, 1, None)}
    rows = {kind: {} for kind in kinds}
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except FileNotFoundError:
        raise MissingArtifactError(f"artifact not found: {path}") from None
    start = buf.find(b"\n") + 1 or len(buf)
    if buf[:start].rstrip(b"\n") != tag.encode("utf-8"):
        first = buf[: min(start, 256)].decode("utf-8", "replace").rstrip("\n")
        raise ParseError(f"bad tag {first[:64]!r} in {path}, expected {tag!r}", 1)
    digest = hashlib.sha256(buf[:start])
    line_no = 1
    while start < len(buf):
        line_no += 1
        end = buf.find(b"\n", start) + 1 or len(buf)
        line, start = buf[start:end], end
        try:
            ln = line.decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(f"{path} is not UTF-8 text", line_no) from None
        tokens = ln.split()
        if tokens[:1] != ["sha256"]:
            digest.update(line)
        if not tokens:
            continue
        kind = tokens.pop(0)
        if kind not in kinds:
            raise ParseError(f"unknown row {kind!r}", line_no)
        key_cast, cast, count, rule = kinds[kind]
        try:
            key = key_cast(tokens.pop(0)) if key_cast else None
            values = [cast(t) for t in tokens]
        except (ValueError, IndexError, KeyError):
            raise ParseError(f"malformed row {ln.strip()!r}", line_no)
        name = kind if key is None else f"{kind} {key}"
        if len(values) != count:
            raise ParseError(f"{name} row needs {count} values, got {len(values)}", line_no)
        if cast is float and not np.isfinite(values).all():
            raise ParseError(f"{name} row has a value that is not finite", line_no)
        if rule and (why := rule(values)):
            raise ParseError(why, line_no)
        if key in rows[kind]:
            raise ParseError(f"repeated {name!r} row", line_no)
        rows[kind][key] = (line_no, values)
        if body and kind == "sha256":
            break
    if not rows["sha256"]:
        raise ParseError(f"{path} has no sha256 row; it may be cut short")
    rest = memoryview(buf)[start:]  # empty unless a body follows the sha256 row
    digest.update(rest)
    line_no, (stored,) = rows.pop("sha256")[None]
    if stored != digest.hexdigest():
        what = "the other lines and the body" if body else "the other lines"
        raise ParseError(f"sha256 does not match {what}", line_no)
    return (rows, rest) if body else rows


def save_norm_stats(stats: NormStats, path) -> None:
    write_artifact(path, NORMSTATS_TAG, zip(KPI_NAMES, stats.mins, stats.maxs))


def load_norm_stats(path) -> NormStats:
    kinds = dict.fromkeys(KPI_NAMES, (None, float, 2, lambda v: v[0] > v[1] and "need min <= max"))
    rows = read_artifact(path, NORMSTATS_TAG, kinds)
    found = [rows[name][None] for name in KPI_NAMES if rows[name]]
    if len(found) != N_KPIS:
        raise ParseError(f"expected {N_KPIS} stat rows, got {len(found)}")
    mins, maxs = np.array([values for _, values in found]).T.copy()
    return NormStats(mins, maxs)


def window_sequences(
    records: Records,
    length: int,
    stride: int = 1,
    stats: NormStats | None = None,
) -> Windows:
    """Slice each element's consecutive-date runs into fixed-length windows.

    Runs shorter than `length` yield nothing; no padding is ever applied.
    Windows are sorted by (element_id, start_date), and `elements` lists the
    elements that have windows. No run is longer than the record count, so
    a longer `length` is cut to one more than it and a longer `stride` to
    it, which gives the same windows and keeps the int64 arithmetic below
    from overflowing.
    """
    if length < 1 or stride < 1:
        raise ConfigError("length and stride must be >= 1")
    length, stride = min(length, len(records) + 1), min(stride, max(len(records), 1))
    ids, element = np.unique(np.asarray(records.element_ids, dtype=object), return_inverse=True)
    order = np.lexsort((records.dates, element))
    element, date, raw = element[order], records.dates[order], records.kpis[order]
    values = normalize(raw, stats) if stats is not None else raw
    # day step from the previous row of the same element, -1 where one starts
    step = np.full(len(date), -1)
    same = element[1:] == element[:-1]
    step[1:][same] = np.diff(date)[same]
    run_start = np.flatnonzero(step != 1)
    run = np.cumsum(step != 1) - 1
    run_end = np.append(run_start[1:], len(date))[run]
    row = np.arange(len(date))
    starts = np.flatnonzero(((row - run_start[run]) % stride == 0) & (row + length <= run_end))
    rows = starts[:, None] + np.arange(length)
    present, window_element = np.unique(element[starts], return_inverse=True)
    return Windows(
        elements=ids[present].tolist(),
        element=window_element,
        start=date[starts],
        values=values[rows],
        raw=raw[rows],
        cell=(np.cumsum(step != 0) - 1)[rows],
    )


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


def _profiles(clusters: int) -> tuple[np.ndarray, np.ndarray]:
    """(clusters, 3) means and scales of the eNodeB drops, MME drops and call
    attempts of each synthetic cluster; total drops and the drop rate are
    derived from them.

    Attempts rise with cluster index while eNodeB drops fall, so the busiest
    cluster owns the attempts maximum and cluster 0 owns the eNodeB, total
    and drop-rate maxima; MME ranks rotate independently.
    """
    levels = np.array(_rank_levels(clusters))
    means = np.column_stack(
        (2000.0 * levels[::-1], 300.0 * levels[_mme_ranks(clusters)], 200000.0 * levels)
    )
    # the floor of 1 only lifts drop scales: attempts scales are at least 320
    return means, np.maximum(1.0, 0.04 * means)


def synth_generate(config: SynthConfig) -> tuple[Records, Labels]:
    """Draw a synthetic KPI dataset plus ground-truth anomaly labels.

    Element e follows cluster e mod `clusters`. Drops and attempts are drawn
    as non-negative integers, element by element, KPI by KPI, day by day;
    total drops and call drop rate are derived. Anomalies multiply one
    positive KPI of a chosen (element, day) cell by `anomaly_magnitude`,
    exactly, and recompute the KPIs derived from it, so that total drops stay
    eNodeB plus MME drops. The injection RNG stream is independent of the
    draw stream, so the same seed with anomaly_rate = 0 reproduces the clean
    counterfactual values bit-for-bit. Raises ConfigError when an injected
    KPI would not be finite.
    """
    config.validate()
    n, days, m = config.elements, config.days, config.anomaly_magnitude
    draw_ss, inject_ss = np.random.SeedSequence(config.seed).spawn(2)
    means, scales = _profiles(config.clusters)
    rng = np.random.default_rng(draw_ss)
    try:
        c = np.arange(n) % config.clusters
        draws = np.round(rng.normal(means[c, :, None], scales[c, :, None], (n, 3, days)))
    except ValueError:  # numpy's error for a size beyond the address space
        raise MemoryError(f"{n:,} elements x {days:,} days exceed the address space") from None
    enb, mme = np.maximum(0.0, draws[:, :2]).transpose(1, 0, 2)
    att = np.maximum(1.0, draws[:, 2])
    td = enb + mme
    kpis = np.stack((100.0 * td / att, td, enb, mme, att), axis=-1).reshape(-1, N_KPIS)

    n_anom = int(round(config.anomaly_rate * n * days))
    cells = kpi = np.zeros(0, dtype=np.int64)
    if n_anom > 0:
        rng = np.random.default_rng(inject_ss)
        cells = np.sort(rng.choice(n * days, size=n_anom, replace=False))
        positive = kpis[cells] > 0
        # each cell's KPI: one draw below its count of positive KPIs picks one
        pick = rng.integers(positive.sum(axis=1))
        kpi = np.argsort(~positive, axis=1, kind="stable")[np.arange(n_anom), pick]
        cdr, td, enb, mme, att = kpis[cells].T
        with np.errstate(over="ignore", invalid="ignore"):
            att = np.where(kpi == 4, att * m, att)
            enb = np.where(kpi <= 2, enb * m, enb)
            # total drops scaled: MME drops take what eNodeB drops leave
            mme = np.where(kpi == 3, mme * m, np.where(kpi <= 1, td * m - enb, mme))
            td = np.where(kpi <= 1, td * m, enb + mme)
            cdr = np.where(kpi == 0, cdr * m, 100.0 * td / att)
        injected = np.column_stack((cdr, td, enb, mme, att))
        if not np.isfinite(injected).all():
            raise ConfigError(f"anomaly_magnitude {m!r} takes an injected KPI past the float range")
        kpis[cells] = injected
    ids = np.array([f"el{e:04d}" for e in range(n)], dtype=object)
    records = Records(
        element_ids=np.repeat(ids, days),
        dates=np.tile(np.arange(1, days + 1), n),
        kpis=kpis,
    )
    return records, Labels(ids[cells // days], cells % days + 1, kpi)
