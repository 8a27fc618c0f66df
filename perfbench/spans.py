"""Per-layer spans for kpivae, recorded from outside the package.

`Tracer.install` wraps every public function of the layer modules, plus
`nn.Adam.step`, and rebinds each wrapper under every name that refers to the
original in any kpivae module. A name must be wrapped where it is looked up,
not only where it is defined: `vae` binds `lstm_forward`, `linear_*` and
`sigmoid` at import, and `anomaly` binds `batch_components`,
`encode_windows` and `assign_concept`. Wrapping only `nn.lstm_forward` would
leave every call made through `vae.lstm_forward` untraced.

Each span adds to its layer's call count, inclusive time and self time
(inclusive time minus the time of the wrapped calls it made). Spans are
aggregated in memory; nothing is written while the program runs.
"""
from __future__ import annotations

import functools
import importlib
import math
import statistics
import time
import types

PACKAGE = "kpivae"
LAYER_MODULES = ("data", "concepts", "nn", "vae", "anomaly", "cli")
METHODS = (("nn", "Adam", "step"),)

# Helpers called once per window or per reported cell. Wrapping them would
# cost more than they do; their time stays in the caller's self time, which
# is what makes `anomaly.detect.self_s` cover prior building and z-scores.
UNWRAPPED = frozenset({"data.fmt_float", "vae.build_prior", "anomaly.zscores", "anomaly.attribute"})

# Spans whose every call duration is kept, for latency percentiles.
KEEP_DURATIONS = frozenset({"vae.train_step"})


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _lstm_flop(counters, args, kwargs, result):
    # 4 gates, each an (B, D+H) x (D+H, H) product per timestep: 2 flop per MAC
    x, p = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "p")
    b, t, d = x.shape
    h = p["Wh"].shape[0]
    counters["nn.lstm.flop"] += 8 * b * t * h * (d + h)


def _windows_made(counters, args, kwargs, result):
    counters["data.windows"] += len(result)


def _detect_cells(counters, args, kwargs, result):
    counters["anomaly.cells_scored"] += sum(w.length for w in _arg(args, kwargs, 1, "windows"))
    counters["anomaly.cells_reported"] += len(result)


WORK_HOOKS = {
    "nn.lstm_forward": _lstm_flop,
    "data.window_sequences": _windows_made,
    "anomaly.detect": _detect_cells,
}
COUNTERS = ("nn.lstm.flop", "data.windows", "anomaly.cells_scored", "anomaly.cells_reported")


class Tracer:
    """Install with `install()`, run the program, then `uninstall()`.

    Not reentrant across threads: kpivae runs on one thread.
    """

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.durations: dict[str, list[float]] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[float] = []  # child time accumulated by each open span
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        span = self.spans.setdefault(name, [0, 0.0, 0.0])
        durations = self.durations.setdefault(name, []) if name in KEEP_DURATIONS else None
        hook = WORK_HOOKS.get(name)
        counters = self.counters
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                span[0] += 1
                span[1] += dt
                span[2] += dt - child
                if durations is not None:
                    durations.append(dt)
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYER_MODULES}
        wrappers = {}  # original function -> wrapper
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                    and name not in UNWRAPPED
                ):
                    wrappers[obj] = self._wrap(name, obj)
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            self._patch(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", vars(cls)[meth]))
        # rebind every lookup site, including the package's own re-exports
        namespaces = list(modules.values()) + [importlib.import_module(PACKAGE)]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def metrics(self) -> dict[str, float]:
        """Flat `<span>.{s,self_s,calls}` values plus the derived counts."""
        out: dict[str, float] = {}
        for name, (calls, incl, self_s) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = incl
            out[f"{name}.self_s"] = self_s
        out["cli.self_s"] = sum(s[2] for n, s in self.spans.items() if n.startswith("cli."))
        flop = self.counters["nn.lstm.flop"]
        out["nn.lstm.gflop"] = flop / 1e9
        lstm_s = self.spans["nn.lstm_forward"][1]
        out["nn.lstm_forward.gflops_per_s"] = flop / 1e9 / lstm_s if lstm_s > 0 else 0.0
        for name in COUNTERS[1:]:
            out[name] = self.counters[name]
        scored = self.counters["anomaly.cells_scored"]
        reported = self.counters["anomaly.cells_reported"]
        out["anomaly.dedup_ratio"] = reported / scored if scored else 0.0
        steps_ms = sorted(1e3 * d for d in self.durations.get("vae.train_step", []))
        out["vae.train_step.ms_p50"] = statistics.median(steps_ms) if steps_ms else 0.0
        out["vae.train_step.ms_p95"] = _nearest_rank(steps_ms, 0.95) if steps_ms else 0.0
        main_s = self.spans["cli.main"][1]
        out["trace.covered_share"] = 1.0 - out["cli.self_s"] / main_s if main_s > 0 else 0.0
        return out


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]
