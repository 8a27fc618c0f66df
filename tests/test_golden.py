"""Golden output hashes: the sha256 of every file one small CLI chain writes.

The chain runs in this process at one BLAS thread: synth, concepts with
quality, then at window 2 and at window 25 a `train` with history and latent
stats, a stride-1 `score` and an `export-latent --dims all --svg`. Its stdout
is hashed too, with the run's directory taken out.

`golden.json` holds the hashes and the platform they were recorded on: the
numpy version, the BLAS name and version, and the machine. On that platform
every hash is compared, so a change that moves any output byte fails here.
On another platform the float outputs may differ in their last bits, so the
chain is compared with a second run of itself instead, and a warning says
that the golden hashes were not checked. A change that moves bytes on
purpose records new hashes with `PYTHONPATH=src python tests/test_golden.py`
and says why.
"""
import contextlib
import ctypes
import hashlib
import io
import json
import platform
import warnings
from pathlib import Path

import numpy as np

from kpivae import cli

GOLDEN = Path(__file__).with_name("golden.json")


def platform_key() -> dict[str, str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except TypeError:  # numpy before 1.26 has no mode
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas, "machine": platform.machine()}


@contextlib.contextmanager
def one_blas_thread():
    """The OpenBLAS of a numpy wheel at one thread, and its old count back
    on exit; where no such library or setter is found, the count stays."""
    libs = sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*"))
    lib = ctypes.CDLL(str(libs[0])) if libs else None
    for prefix in ("scipy_openblas", "openblas"):
        setter = getattr(lib, f"{prefix}_set_num_threads64_", None)
        getter = getattr(lib, f"{prefix}_get_num_threads64_", None)
        if setter and getter:
            break
    else:
        yield
        return
    setter.argtypes, setter.restype = [ctypes.c_int], None
    getter.argtypes, getter.restype = [], ctypes.c_int
    old = getter()
    setter(1)
    try:
        yield
    finally:
        setter(old)


def run_chain(d: Path) -> dict[str, str]:
    """Runs the chain into directory d; returns file name -> sha256."""
    kpis, model, stats = d / "kpis.csv", d / "concepts.txt", d / "norm.txt"
    fitted = ["--data", kpis, "--model", model, "--stats", stats]
    steps = [
        ["synth", "--elements", "8", "--days", "60", "--clusters", "2", "--seed", "5",
         "--out", kpis],
        ["concepts", "--data", kpis, "--k", "2", "--out-model", model, "--out-stats", stats,
         "--out-quality", d / "quality.csv"],
    ]
    for w in ("2", "25"):
        ckpt, lstats = d / f"w{w}.bin", d / f"w{w}.lstats.txt"
        steps += [
            ["train", *fitted, "--window", w, "--hidden", "8", "--batch-size", "16",
             "--max-epochs", "2", "--val-fraction", "0.25", "--out-checkpoint", ckpt,
             "--out-history", d / f"w{w}.history.csv", "--out-latent-stats", lstats],
            ["score", *fitted, "--window", w, "--stride", "1", "--checkpoint", ckpt,
             "--latent-stats", lstats, "--eval-samples", "2", "--z-threshold", "1",
             "--symmetric", "--out", d / f"w{w}.report.csv"],
            ["export-latent", *fitted, "--window", w, "--checkpoint", ckpt, "--dims", "all",
             "--out", d / f"w{w}.latent.csv", "--svg", d / f"w{w}.latent.svg"],
        ]
    stdout = io.StringIO()
    with one_blas_thread(), contextlib.redirect_stdout(stdout):
        for argv in steps:
            assert cli.main([str(a) for a in argv]) == 0, argv
    hashes = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(d.iterdir())}
    text = stdout.getvalue().replace(str(d), "<dir>")
    hashes["stdout"] = hashlib.sha256(text.encode()).hexdigest()
    return hashes


def test_chain_outputs_match_the_golden_hashes(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    (tmp_path / "a").mkdir()
    got = run_chain(tmp_path / "a")
    assert len(got) == 18  # 17 files and stdout
    if golden["platform"] == platform_key():
        want = golden["hashes"]
    else:
        warnings.warn(
            f"golden hashes not checked: recorded on {golden['platform']}, "
            f"this is {platform_key()}; the chain is compared with a second run"
        )
        (tmp_path / "b").mkdir()
        want = run_chain(tmp_path / "b")
    assert [k for k in got if got[k] != want.get(k)] == [] and sorted(got) == sorted(want)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        hashes = run_chain(Path(tmp))
    record = {"platform": platform_key(), "hashes": hashes}
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(hashes)} hashes for {record['platform']} to {GOLDEN}")
