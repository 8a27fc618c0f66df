"""Command line pipeline: synth -> concepts -> train -> score / export-latent.

Every option can also come from a flat `key = value` config file passed with
--config; values given on the command line win. Errors print one
machine-parsable line to stderr and exit with status 2.
"""
from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import anomaly, concepts, data, vae
from .data import fmt_float
from .errors import ConfigError, KpivaeError, ValidationError

REQUIRED = object()

HISTORY_HEADER = ["epoch", "train_loss", "train_kl", "train_loglik", "val_loss"]
LATENT_HEADER = ["element_id", "date", "cluster", "dim", "mu", "logvar", "kpi_value"]

# the keys that several commands take, each with its one default and type
SHARED_KEYS = {
    "data": (REQUIRED, str),
    "model": (REQUIRED, str),
    "stats": (REQUIRED, str),
    "checkpoint": (REQUIRED, str),
    "window": (25, int),
    "stride": (None, int),
}


def _shared(*keys: str) -> dict:
    return {key: SHARED_KEYS[key] for key in keys}


def _fields(*configs) -> dict:
    # every field of the config dataclasses, with its default and its type
    return {f.name: (f.default, type(f.default)) for c in configs for f in fields(c)}


SYNTH_KEYS = {
    "out": (REQUIRED, str),
    "labels_out": (None, str),
    **_fields(data.SynthConfig),
}
CONCEPTS_KEYS = {
    **_shared("data"),
    "k": (10, int),
    "seed": (0, int),
    "out_model": (REQUIRED, str),
    "out_stats": (REQUIRED, str),
    "out_quality": (None, str),
}
TRAIN_KEYS = {
    **_shared("data", "model", "stats"),
    "out_checkpoint": (REQUIRED, str),
    "out_history": (None, str),
    "out_latent_stats": (None, str),
    **_shared("window", "stride"),
    **_fields(vae.ArchConfig, vae.LatentConfig, vae.TrainConfig),
    "val_fraction": (0.05, float),
}
SCORE_KEYS = {
    **_shared("data", "checkpoint", "model", "stats"),
    "latent_stats": (REQUIRED, str),
    "out": (REQUIRED, str),
    **_shared("window", "stride"),
    "eval_samples": (10, int),
    "seed": (0, int),
    "loss_floor": (None, float),
    "top_k": (None, int),
    "z_threshold": (15.0, float),
    "symmetric": (False, bool),
}
EXPORT_KEYS = {
    **_shared("data", "checkpoint", "model", "stats"),
    "out": (REQUIRED, str),
    **_shared("window", "stride"),
    "cluster": (None, int),
    "dims": ("concept", str),
    "svg": (None, str),
}
# every key has the same type in every command that takes it
KEY_TYPES = {
    key: cast
    for table in (SYNTH_KEYS, CONCEPTS_KEYS, TRAIN_KEYS, SCORE_KEYS, EXPORT_KEYS)
    for key, (_, cast) in table.items()
}


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"bad boolean value {s!r}")


def _cast(raw: str, cast):
    if cast is bool:
        return _parse_bool(raw)
    try:
        value = cast(raw)
    except ValueError:
        raise ConfigError(f"bad {cast.__name__} value {raw!r}")
    if cast is float and not math.isfinite(value):
        raise ConfigError(f"float value {raw!r} is not finite")
    return value


def load_config(path) -> dict[str, str]:
    """Flat key = value lines; '#' starts a comment; keys use snake_case."""
    cfg: dict[str, str] = {}
    for line_no, ln in enumerate(data.text_lines(path), start=1):
        s = ln.split("#", 1)[0].strip()
        if not s:
            continue
        if "=" not in s:
            raise ConfigError(f"config line {line_no}: expected key = value, got {s!r}")
        k, v = s.split("=", 1)
        k = k.strip().replace("-", "_")
        if k not in KEY_TYPES:
            raise ConfigError(f"config line {line_no}: unknown key {k!r}")
        try:
            _cast(v.strip(), KEY_TYPES[k])
        except ConfigError as e:
            raise ConfigError(f"config line {line_no}: {k}: {e}")
        cfg[k] = v.strip()
    return cfg


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


class Opts:
    """Effective option values: CLI flag, else config entry, else default.

    Flags and config entries are both strings cast by `_cast`, all at once,
    so a bad value fails before any work starts.
    """

    def __init__(self, args: argparse.Namespace, table: dict):
        self.table = table
        config = load_config(args.config) if args.config else {}
        flags = {k: v for k, v in vars(args).items() if v is not None}
        self.values = {}
        for key, (_, cast) in table.items():
            raw = flags.get(key, config.get(key))
            if raw is not None:
                try:
                    self.values[key] = _cast(raw, cast)
                except ConfigError as e:
                    raise ConfigError(f"{_flag(key)}: {e}")

    def get(self, key: str):
        if key in self.values:
            return self.values[key]
        default = self.table[key][0]
        if default is REQUIRED:
            raise ConfigError(f"missing required option {_flag(key)}")
        return default


def split_elements(element_ids, val_fraction: float) -> tuple[set[str], set[str]]:
    """Deterministic train/val element split keyed on an id hash.

    Uses md5(element_id) mod 1000 against the fraction, with a rank-based
    fallback so neither side ends up empty on small datasets.
    """
    ids = sorted(set(element_ids))
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError("val_fraction must be in (0, 1)")
    if len(ids) < 2:
        raise ValidationError("need at least 2 elements to split train/val")

    def bucket(e: str) -> int:
        return int(hashlib.md5(e.encode("utf-8")).hexdigest(), 16) % 1000

    cut = round(val_fraction * 1000)
    val = {e for e in ids if bucket(e) < cut}
    if not val or len(val) == len(ids):
        by_hash = sorted(ids, key=lambda e: hashlib.md5(e.encode("utf-8")).hexdigest())
        n_val = min(max(1, round(val_fraction * len(ids))), len(ids) - 1)
        val = set(by_hash[:n_val])
    return set(ids) - val, val


def _check_outputs(o: Opts, *keys: str, **derived) -> None:
    """`data.check_output` on every output path a command writes: each
    required one, each optional one that is set and not empty, and each
    path the command derived itself, `derived` key=path; no two of them may
    resolve to the same file."""
    paths = {key: o.get(key) for key in keys if o.get(key) or o.table[key][0] is REQUIRED}
    first = {}
    for key, path in {**paths, **derived}.items():
        data.check_output(path, _flag(key))
        other = first.setdefault(Path(path).resolve(), key)
        if other != key:
            raise ConfigError(f"{_flag(other)} and {_flag(key)} name the same file {path}")


def _config(config, o: Opts):
    """The config dataclass `config` with each field set from its option."""
    return config(**{f.name: o.get(f.name) for f in fields(config)})


def cmd_synth(args: argparse.Namespace) -> int:
    o = Opts(args, SYNTH_KEYS)
    out = Path(o.get("out"))
    labels_out = o.get("labels_out") or out.with_suffix(".labels.csv")
    _check_outputs(o, "out", labels_out=labels_out)
    records, labels = data.synth_generate(_config(data.SynthConfig, o))
    data.save_records(records, out)
    data.save_labels(labels, labels_out)
    print(f"wrote {len(records)} records ({len(labels)} injected) to {out}")
    return 0


def cmd_concepts(args: argparse.Namespace) -> int:
    o = Opts(args, CONCEPTS_KEYS)
    _check_outputs(o, "out_model", "out_stats", "out_quality")
    records = data.load_records(o.get("data"))
    stats = data.fit_normalization(records)
    profiles = concepts.element_profiles(records, stats)
    model = concepts.kmeans_fit(profiles, o.get("k"), seed=o.get("seed"))
    data.save_norm_stats(stats, o.get("out_stats"))
    concepts.save_concept_model(model, o.get("out_model"))
    quality_path = o.get("out_quality")
    if quality_path:
        concepts.save_quality(concepts.cluster_quality(model, profiles), quality_path)
    inertia = fmt_float(concepts.inertia(model, profiles))
    print(f"fitted k={model.k} on {len(profiles[0])} elements, inertia {inertia}")
    return 0


def _load_windows(o: Opts) -> data.Windows:
    records = data.load_records(o.get("data"))
    stats = data.load_norm_stats(o.get("stats"))
    window = o.get("window")
    stride = o.get("stride")
    windows = data.window_sequences(
        records, window, stride=window if stride is None else stride, stats=stats
    )
    if not windows:
        raise ValidationError(f"no windows of length {window}; every run is shorter")
    return windows


def cmd_train(args: argparse.Namespace) -> int:
    o = Opts(args, TRAIN_KEYS)
    _check_outputs(o, "out_checkpoint", "out_history", "out_latent_stats")
    windows = _load_windows(o)
    model = concepts.load_concept_model(o.get("model"))
    train_ids, _ = split_elements(windows.elements, o.get("val_fraction"))
    is_train = np.array([e in train_ids for e in windows.elements])[windows.element]
    train_w, val_w = windows[is_train], windows[~is_train]

    arch, latent = _config(vae.ArchConfig, o), _config(vae.LatentConfig, o)
    tcfg = _config(vae.TrainConfig, o)
    params, history = vae.train(train_w, val_w, model, tcfg, arch=arch, latent=latent)
    vae.save_checkpoint(params, o.get("out_checkpoint"))

    history_path = o.get("out_history")
    if history_path:
        columns = [np.array([h[key] for h in history]) for key in HISTORY_HEADER]
        data.write_csv(history_path, HISTORY_HEADER, columns)
    stats_path = o.get("out_latent_stats")
    if stats_path:
        lstats = anomaly.fit_latent_stats(params, train_w, model.assignment)
        anomaly.save_latent_stats(lstats, stats_path)

    best = min(h["val_loss"] for h in history)
    print(
        f"trained {len(history)} epochs on {len(train_w)} windows "
        f"({len(val_w)} val), best val loss {fmt_float(best)}"
    )
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    o = Opts(args, SCORE_KEYS)
    _check_outputs(o, "out")
    windows = _load_windows(o)
    params = vae.load_checkpoint(o.get("checkpoint"))
    model = concepts.load_concept_model(o.get("model"))
    lstats = anomaly.load_latent_stats(o.get("latent_stats"))
    # every scoring option is named like the detect argument it sets
    options = ("eval_samples", "seed", "loss_floor", "top_k", "z_threshold", "symmetric")
    report = anomaly.detect(params, windows, model, lstats, **{k: o.get(k) for k in options})
    anomaly.save_report(report, o.get("out"))
    print(f"reported {len(report)} timesteps to {o.get('out')}")
    return 0


def _svg_scatter(values: np.ndarray, mu: np.ndarray, path) -> None:
    """Tiny dependency-free scatter: one panel per concept dim, mu vs KPI value.

    `values` and `mu` are (M, concept_dims), one row per point.
    """
    panel, pad = 150, 24
    concept_dims = values.shape[1]
    width = concept_dims * (panel + pad) + pad
    height = panel + 2 * pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="10">'
    ]
    for dim in range(concept_dims):
        x0 = pad + dim * (panel + pad)
        y0 = pad
        parts.append(
            f'<rect x="{x0}" y="{y0}" width="{panel}" height="{panel}" '
            f'fill="none" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x0}" y="{y0 - 6}">{data.KPI_NAMES[dim]}</text>'
        )
        if len(values):
            m = mu[:, dim]
            lo, hi = m.min(), m.max()
            span = (hi - lo) or 1.0
            px = x0 + values[:, dim] * panel
            py = y0 + panel - (m - lo) / span * panel
            for x, y in zip(px.tolist(), py.tolist()):
                parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.5"/>')
    parts.append("</svg>")
    data.save_text(path, "\n".join(parts) + "\n")


def cmd_export_latent(args: argparse.Namespace) -> int:
    o = Opts(args, EXPORT_KEYS)
    _check_outputs(o, "out", "svg")
    dims_mode = o.get("dims")
    if dims_mode not in ("concept", "all"):
        raise ConfigError("--dims must be 'concept' or 'all'")
    windows = _load_windows(o)
    params = vae.load_checkpoint(o.get("checkpoint"))
    model = concepts.load_concept_model(o.get("model"))
    n_dims = data.N_KPIS if dims_mode == "concept" else params.latent.total
    cluster_filter = o.get("cluster")
    if cluster_filter is not None and not 0 <= cluster_filter < model.k:
        raise ConfigError(f"unknown cluster id {cluster_filter} (model has k={model.k})")

    clusters = vae.window_clusters(windows, anomaly.resolve_clusters(windows, model))
    # each (element, date) cell once, at its first timestep in input order
    first = np.sort(np.unique(windows.cell, return_index=True)[1])
    length = windows.cell.shape[1]
    if cluster_filter is not None:
        first = first[clusters[first // length] == cluster_filter]
    win, step = np.divmod(first, length)
    mu, lv = vae.encode_windows(params, windows)
    values, mu, lv = windows.values[win, step], mu[win, step], lv[win, step]
    # one row per cell and dim; the KPI value is empty for the free dims
    x = np.full((len(win), n_dims), "", dtype=object)
    x[:, : data.N_KPIS] = np.array(data.fmt_floats(values), dtype=object).reshape(values.shape)
    ids = np.array(windows.elements, dtype=object)[windows.element[win]]
    columns = [np.repeat(a, n_dims) for a in (ids, windows.start[win] + step, clusters[win])]
    columns += [
        np.tile(np.arange(n_dims), len(win)),
        mu[:, :n_dims].ravel(),
        lv[:, :n_dims].ravel(),
        x.ravel(),
    ]
    data.write_csv(o.get("out"), LATENT_HEADER, columns)
    svg_path = o.get("svg")
    if svg_path:
        _svg_scatter(values, mu[:, : data.N_KPIS], svg_path)
    print(f"exported {x.size} latent rows to {o.get('out')}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports argparse's own failures through the CLI's single `error:` line."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kpivae",
        description="Concept-conditioned VAE pipeline for interpretable KPI anomaly detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("synth", "generate a synthetic KPI dataset with labels", SYNTH_KEYS, cmd_synth),
        ("concepts", "fit normalization stats and the cluster model", CONCEPTS_KEYS, cmd_concepts),
        ("train", "train the model and write a checkpoint", TRAIN_KEYS, cmd_train),
        ("score", "rank timesteps by loss and attribute KPIs", SCORE_KEYS, cmd_score),
        ("export-latent", "dump per-timestep latent means to CSV", EXPORT_KEYS, cmd_export_latent),
    )
    for name, help_text, table, func in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key = value defaults file")
        for key, (default, cast) in table.items():
            if cast is bool:
                p.add_argument(_flag(key), action="store_const", const="true")
            else:
                shown = "required" if default is REQUIRED else f"default: {default}"
                p.add_argument(_flag(key), help=f"({shown})")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (KpivaeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # a size too large to allocate; numpy names it
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
