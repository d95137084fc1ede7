"""One fresh interpreter of the benchmark: set up a workload's inputs and,
in a timed unit, run the workload through losstrace's public entry points.

    python3 perfbench/child.py SPEC.json

SPEC.json holds ``workload``, ``seed``, ``mode`` ("setup" or "unit"),
``workers``, ``trace`` and ``dir`` (the directory the child works in). The
child writes ``result.json`` there: monotonic-clock marks after the imports
(``t_imported``), after set-up (``t_ready``) and after the timed calls
(``t_done``), the per-call timings, the outputs to check, their SHA-256
digests and, when traced, the aggregated spans. ``run.py`` starts every
child and turns the results into metrics.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import re
import resource
import sys
import time
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from losstrace import cli, experiment  # noqa: E402
from losstrace.data import SyntheticConfig  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

# When set, every call of experiment.robust_train and
# experiment.anomaly_scores appends "<phase> <seconds>" to this file. This
# runs at import so that pool workers started by spawn, which re-import this
# module, are clocked as well as forked ones.
PHASE_LOG_ENV = "PERFBENCH_PHASE_LOG"


def _clock(phase: str, attr: str, path: str) -> None:
    fn = getattr(experiment, attr)

    def clocked(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{phase} {elapsed!r}\n")
        return result

    setattr(experiment, attr, clocked)


if os.environ.get(PHASE_LOG_ENV):
    _clock("train", "robust_train", os.environ[PHASE_LOG_ENV])
    _clock("evaluate", "anomaly_scores", os.environ[PHASE_LOG_ENV])


def _cpu_self() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _npz_digest(path: Path) -> str:
    """Digest of a checkpoint's entries; the zip container itself embeds
    the time of writing."""
    digest = hashlib.sha256()
    with zipfile.ZipFile(path) as archive:
        for name in sorted(archive.namelist()):
            digest.update(name.encode() + b"\0" + archive.read(name))
    return digest.hexdigest()


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.cli_main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------- sweeps


def sweep_config(workload: str, seed: int) -> experiment.SweepConfig:
    kwargs = wl.sweep_kwargs(workload, seed)
    kwargs["synthetic"] = SyntheticConfig(**kwargs["synthetic"])
    return experiment.SweepConfig(**kwargs)


def bundle_digest(cfg: experiment.SweepConfig) -> str:
    bundle = experiment.prepare_data(cfg)
    digest = hashlib.sha256()
    for array in (bundle.train_windows.data, bundle.pool.data,
                  bundle.test.values, bundle.test.labels):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def run_sweep(cfg: experiment.SweepConfig, work: Path, workers: int):
    """What `losstrace sweep --record-timing` does after parsing."""
    raw = work / "results.csv"
    result = experiment.run_sweep(cfg, raw_path=str(raw), workers=workers,
                                  record_timing=True)
    experiment.write_results(result, str(raw))
    experiment.write_summary(result, str(work / "summary.csv"))
    return result


def sweep_outputs(cfg, result, work: Path) -> dict:
    rows = result.rows
    lines = (work / "results.csv").read_text(encoding="utf-8").splitlines()
    untimed = [lines[0]] + [line.rsplit(",", 1)[0] + ",NA" for line in lines[1:]]
    phases: dict[str, list[float]] = {"train": [], "evaluate": []}
    log = os.environ.get(PHASE_LOG_ENV)
    if log and Path(log).exists():
        for line in Path(log).read_text(encoding="utf-8").splitlines():
            phase, seconds = line.split()
            phases[phase].append(float(seconds))
    return {
        "attempted": len(experiment.plan_cells(cfg)),
        "cells_expected": len(experiment.plan_cells(cfg)),
        "failed": sum(1 for r in rows if not r.ok),
        "errors": [r.error for r in rows if r.error],
        "cells": [r.wall_time_s for r in rows if r.ok],
        "auc": [r.auc for r in rows if r.ok],
        "f1": [r.best_f1 for r in rows if r.ok],
        "coverage": [r.coverage for r in rows if r.coverage is not None],
        "train": phases["train"],
        "evaluate": phases["evaluate"],
        "digests": {
            "results.csv (wall_time_s as NA)": hashlib.sha256(
                ("\n".join(untimed) + "\n").encode()).hexdigest(),
            "summary.csv": _sha256(work / "summary.csv"),
        },
    }


def c7_gates(cfg, result) -> dict:
    """Criterion-7 gate values, pairing methods by repetition as the
    acceptance test does."""
    by_seed = {r.seed: r for r in result.rows}
    auc: dict[tuple[str, float], list[float]] = {}
    cov10 = []
    for kind, method, ratio, rep in experiment.plan_cells(cfg):
        row = by_seed[experiment.cell_seed(cfg, kind, method, ratio, rep)]
        auc.setdefault((method, ratio), []).append(row.auc)
        if method == "combined" and ratio == 0.10:
            cov10.append(row.coverage)
    wins = {
        f"{ratio:g}": sum(1 for c, v in zip(auc[("combined", ratio)],
                                             auc[("vanilla", ratio)]) if c >= v)
        for ratio in cfg.ratios if ratio >= 0.04
    }
    gap = abs(float(np.mean(auc[("combined", 0.0)]))
              - float(np.mean(auc[("vanilla", 0.0)])))
    return {
        "7a_seeds_with_coverage_ge_0.9_at_10pct": sum(c >= 0.9 for c in cov10),
        "7b_combined_wins_per_ratio": wins,
        "7c_clean_auc_gap": gap,
    }


# ------------------------------------------------------------ train_eval


def setup_train_eval(work: Path, seed: int) -> dict:
    """`losstrace generate`, then contaminate the training split.

    The generated training split is anomaly-free. Copying the test split's
    labeled rows into it at the same timesteps gives a labeled, contaminated
    training series, so coverage and discard precision are defined. The
    length is a multiple of both periods, so the seasonal phase matches.
    """
    generated = work / "generated"
    code, _ = _cli(["generate", "--out", str(generated),
                    "--length", str(wl.TRAIN_EVAL_LENGTH), "--seed", str(seed)])
    if code != 0:
        raise SystemExit(f"generate exited with {code}")
    train_lines = (generated / "train.csv").read_text(
        encoding="utf-8").splitlines(keepends=True)
    test_lines = (generated / "test.csv").read_text(
        encoding="utf-8").splitlines(keepends=True)
    labels = np.zeros(len(test_lines) - 1, dtype=np.int8)
    for t, line in enumerate(test_lines[1:]):
        if line.endswith(",1\n"):
            train_lines[t + 1] = line
            labels[t] = 1
    train = work / "train.csv"
    train.write_text("".join(train_lines), encoding="utf-8")
    return {"train": train, "test": generated / "test.csv", "labels": labels}


def run_train_eval(inputs: dict, work: Path, seed: int) -> dict:
    """`train` then `evaluate --scores-out` for each method, timing each
    CLI call; each checkpoint is evaluated several times, and every repeat
    must print and write what the first did."""
    timed = {"cells": [], "train": [], "evaluate": [], "stdout": {},
             "failed": 0, "mismatches": []}
    for method in wl.TRAIN_EVAL_METHODS:
        start = time.monotonic()
        code, out = _cli([
            "train", "--train-csv", str(inputs["train"]),
            "--stride", str(wl.TRAIN_EVAL_STRIDE),
            "--epochs", str(wl.TRAIN_EVAL_EPOCHS), "--method", method,
            "--seed", str(wl.BASE_SEED + seed),
            "--checkpoint", str(work / f"{method}.npz"),
            "--report", str(work / f"{method}-report.json"),
        ])
        trained = time.monotonic()
        if code != 0:
            timed["failed"] += 1 + wl.TRAIN_EVAL_EVALUATIONS
            continue
        timed["train"].append(trained - start)
        outputs = []
        for k in range(wl.TRAIN_EVAL_EVALUATIONS):
            scores = work / (f"{method}-scores.csv" if k == 0
                             else f"{method}-scores-{k}.csv")
            begin = time.monotonic()
            code, out = _cli([
                "evaluate", "--test-csv", str(inputs["test"]),
                "--checkpoint", str(work / f"{method}.npz"),
                "--scores-out", str(scores),
            ])
            done = time.monotonic()
            if code != 0:
                timed["failed"] += wl.TRAIN_EVAL_EVALUATIONS - k
                break
            timed["evaluate"].append(done - begin)
            if k == 0:
                timed["cells"].append(done - start)
            outputs.append((out, _sha256(scores)))
        if outputs:
            timed["stdout"][method] = outputs[0][0]
            if any(o != outputs[0] for o in outputs[1:]):
                timed["mismatches"].append(method)
    return timed


def train_eval_outputs(inputs: dict, timed: dict, work: Path) -> dict:
    w, stride = wl.TRAIN_EVAL_WINDOW, wl.TRAIN_EVAL_STRIDE
    covering = np.lib.stride_tricks.sliding_window_view(inputs["labels"], w)
    flagged = set(np.flatnonzero(covering[::stride].max(axis=1)).tolist())
    auc, f1, cov, digests = [], [], [], {}
    for method, out in timed["stdout"].items():
        match = re.search(r"auc=(\S+) best_f1=(\S+)", out)
        if match is None:
            timed["failed"] += 1
            continue
        auc.append(float(match.group(1)))
        f1.append(float(match.group(2)))
        report = work / f"{method}-report.json"
        if method != "vanilla":
            discard = set(json.loads(report.read_text())["discard"])
            cov.append(len(discard & flagged) / len(flagged))
        digests[f"{method}.npz"] = _npz_digest(work / f"{method}.npz")
        digests[f"{method}-report.json"] = _sha256(report)
        digests[f"{method}-scores.csv"] = _sha256(work / f"{method}-scores.csv")
    return {
        "attempted": (1 + wl.TRAIN_EVAL_EVALUATIONS) * len(wl.TRAIN_EVAL_METHODS),
        "cells_expected": len(wl.TRAIN_EVAL_METHODS),
        "failed": timed["failed"],
        "cells": timed["cells"],
        "train": timed["train"],
        "evaluate": timed["evaluate"],
        "auc": auc,
        "f1": f1,
        "coverage": cov,
        "digests": digests,
        "evaluate_mismatches": timed["mismatches"],
    }


# ----------------------------------------------------------------- child


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it is one."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import scipy

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: v for k, v in os.environ.items()
                       if k.endswith("_NUM_THREADS")},
    }


def main(spec_path: str) -> None:
    t_imported = time.monotonic()
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    work, seed, workload = Path(spec["dir"]), spec["seed"], spec["workload"]
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()

    if workload == "train_eval":
        inputs = setup_train_eval(work, seed)
    else:
        cfg = sweep_config(workload, seed)
        experiment.prepare_data(cfg)
    cpu_ready = _cpu_self()
    t_ready = time.monotonic()

    result = {"t_imported": t_imported, "t_ready": t_ready,
              "cpu_ready": cpu_ready, "attempted": 0, "failed": 0,
              "digests": {}}
    if spec["mode"] == "unit":
        if workload == "train_eval":
            timed = run_train_eval(inputs, work, seed)
        else:
            timed = run_sweep(cfg, work, spec["workers"])
        result["t_done"] = time.monotonic()
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.to_dict()
        if workload == "train_eval":
            result.update(train_eval_outputs(inputs, timed, work))
        else:
            result.update(sweep_outputs(cfg, timed, work))
            if workload == "sweep_c7" and seed == 0:
                result["c7_gates"] = c7_gates(cfg, timed)
    if workload == "train_eval":
        result["attempted"] += 1  # the generate command
        result["digests"]["input train.csv"] = _sha256(inputs["train"])
        result["digests"]["input test.csv"] = _sha256(inputs["test"])
    else:
        result["digests"]["prepared data"] = bundle_digest(cfg)
    result["env"] = environment()
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
