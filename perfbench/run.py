"""losstrace benchmark: end-to-end metrics, or a traced per-layer split.

    python3 perfbench/run.py --workload sweep_c7 --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; it imports losstrace from ``src/`` and
builds nothing. Every set-up and every timed unit runs in a fresh
interpreter (``child.py``), so no import or module-level cache carries over.
Workloads, metrics and their reasons are listed in BENCHMARK.json and
perfbench/README.md.

``--trace 0`` runs one set-up, then timed units of the workload until
``--seconds`` have passed (at least two, which must give identical
outputs), and prints the end-to-end metrics. ``--trace 1`` runs the
workload once untraced as users do, then alternates untraced and traced
serial units (two of each; the first run counts as untraced serial when the
workload has no pool), with every public function of the layers wrapped in
the traced ones, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
hold the environment, sample counts, output digests and, at seed 0 of
``sweep_c7``, the criterion-7 gate values. The exit code is 0 only when
every output checks out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
PHASE_LOG_ENV = "PERFBENCH_PHASE_LOG"  # read by child.py

RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 1  # set-up-only children per run, besides each unit's own
MIN_UNITS = 2  # timed units per run; their outputs must be identical
TRACED_UNITS = 2  # traced units per run; their call counts must be identical
SELF_TIME_TOLERANCE = 0.05  # self times must sum to the traced wall time

STEP_FUNCTIONS = ("nn.optimizer_step", "nn.backward_batch")
DATA_FUNCTIONS = ("load_csv", "write_csv", "make_windows",
                  "inject_contamination", "split_train_val")


class BenchError(Exception):
    """The benchmark could not run the workload to the end."""


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


# ------------------------------------------------------------- children


class Runner:
    """Starts children one at a time, each in its own directory and
    process group, and stops them all by the run's time limit."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.started = 0

    def run(self, spec: dict, phase_log: bool = False) -> dict:
        self.started += 1
        directory = self.work / f"{self.started:02d}-{spec['mode']}"
        directory.mkdir(parents=True)
        spec = dict(spec, dir=str(directory))
        spec_path = directory / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        env = dict(os.environ, TMPDIR=str(directory))
        if phase_log:
            env[PHASE_LOG_ENV] = str(directory / "phases.log")
        log_path = directory / "log.txt"
        with open(log_path, "wb") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(spec_path)], cwd=ROOT,
                env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            status, usage = self._wait(proc)
        code = os.waitstatus_to_exitcode(status)
        result_path = directory / "result.json"
        if code != 0 or not result_path.exists():
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-3000:]
            raise BenchError(f"{spec['mode']} child exited with {code}:\n{tail}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["t_spawn"] = t_spawn
        result["cpu_total"] = usage.ru_utime + usage.ru_stime
        result["rss_mb"] = usage.ru_maxrss / 1024.0  # KiB on Linux
        shutil.rmtree(directory)
        return result

    def _wait(self, proc: subprocess.Popen):
        """Wait for the child, collecting its resource usage together with
        that of the pool workers it waited for; kill its process group at
        the deadline or on any interruption."""

        def expire(signum, frame):
            raise BenchError(f"a child was still running at the run's "
                             f"{RUN_LIMIT_S:.0f} s limit")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL,
                         max(self.deadline - time.monotonic(), 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return status, usage
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            if proc.returncode is None:
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL


def _spec(workload: str, seed: int, mode: str, workers: int,
          trace: bool = False) -> dict:
    return {"workload": workload, "seed": seed, "mode": mode,
            "workers": workers, "trace": trace}


# -------------------------------------------------------------- checks


def check_outputs(children: list[dict], units: list[dict]) -> list[str]:
    """Every cell and command succeeded, quality values are finite and in
    [0, 1], and every child of the same seed produced identical outputs."""
    problems = []
    for child in children:
        if child["failed"]:
            problems.append(f"{child['failed']} of {child['attempted']} "
                            f"cells/commands failed: {child.get('errors')}")
    for unit in units:
        if len(unit["cells"]) != unit["cells_expected"] or not unit["coverage"]:
            problems.append(f"{len(unit['cells'])} of {unit['cells_expected']} "
                            f"cells finished, {len(unit['coverage'])} coverages")
        for key in ("auc", "f1", "coverage"):
            bad = [v for v in unit[key] if not (math.isfinite(v) and 0 <= v <= 1)]
            if bad:
                problems.append(f"{key} outside [0, 1]: {bad}")
        if unit.get("evaluate_mismatches"):
            problems.append("repeated evaluate calls differ for methods "
                            f"{unit['evaluate_mismatches']}")
    reference = dict(children[0]["digests"])
    for child in children[1:]:
        for name, digest in child["digests"].items():
            if reference.setdefault(name, digest) != digest:
                problems.append(f"outputs differ between runs of one seed: {name}")
    return problems


# ------------------------------------------------------------ end to end


def timed_run(args, runner: Runner) -> tuple[dict, list[dict], list[str]]:
    workers = wl.WORKLOADS[args.workload]["workers"]
    setups = [runner.run(_spec(args.workload, args.seed, "setup", workers))
              for _ in range(SETUP_PROBES)]
    units: list[dict] = []
    start = time.monotonic()
    while True:
        unit = runner.run(_spec(args.workload, args.seed, "unit", workers),
                          phase_log=True)
        units.append(unit)
        now = time.monotonic()
        last = now - unit["t_spawn"]
        if len(units) >= MIN_UNITS and (now - start + last > args.seconds
                                        or now + 1.5 * last > runner.deadline):
            break
    children = setups + units
    cells = [c for u in units for c in u["cells"]]
    train = [t for u in units for t in u["train"]]
    evaluate = [t for u in units for t in u["evaluate"]]
    median = statistics.median
    values = {
        "setup_s": median(c["t_ready"] - c["t_spawn"] for c in children),
        "wall_s": median(u["t_done"] - u["t_ready"] for u in units),
        "cpu_s": median(u["cpu_total"] - u["cpu_ready"] for u in units),
        "cell_s_p50": median(cells),
        "cell_s_p85": statistics.quantiles(cells, n=20, method="inclusive")[16],
        "train_s": median(train),
        # first decile, not the median: on a shared host the mostly
        # pure-Python evaluate call runs in fast and slow phases of tens of
        # seconds, so a run's median reads the phase mix and its first
        # decile the uncontended cost (see TRAIN_EVAL_EVALUATIONS)
        "evaluate_s": statistics.quantiles(evaluate, n=10,
                                           method="inclusive")[0],
        "auc_mean": statistics.fmean(units[0]["auc"]),
        "coverage_mean": statistics.fmean(units[0]["coverage"]),
        "peak_rss_mb": median(u["rss_mb"] for u in units),
    }
    problems = check_outputs(children, units)
    if not (train and evaluate):
        problems.append("no train or evaluate timings were recorded")
    print(f"{len(children)} set-ups, {len(units)} timed units; samples: "
          f"{len(cells)} cells, {len(train)} train, {len(evaluate)} evaluate")
    if "c7_gates" in units[0]:
        print("criterion-7 gates (information only): "
              + json.dumps(units[0]["c7_gates"]))
    return values, children, problems


# -------------------------------------------------------------- traced


def _span_sum(trace: dict, name: str, caller: str | None = None):
    calls = total = self_s = 0.0
    for span_name, span_caller, n, span_total, span_self in trace["spans"]:
        if span_name == name and (caller is None or span_caller == caller):
            calls += n
            total += span_total
            self_s += span_self
    return int(calls), total, self_s


def layer_metrics(unit: dict) -> dict:
    trace = unit["trace"]
    counts = trace["counts"]
    out: dict[str, float] = {}
    for fn in STEP_FUNCTIONS:
        calls, _, self_s = _span_sum(trace, fn)
        out[f"{fn}.calls"] = calls
        out[f"{fn}.self_s"] = self_s
        out[f"{fn}.us_per_call"] = 1e6 * self_s / calls if calls else 0.0
    calls, _, self_s = _span_sum(trace, "nn.forward_batch")
    out.update({"nn.forward_batch.calls": calls,
                "nn.forward_batch.self_s": self_s,
                "nn.forward_batch.rows": counts.get("nn.forward_batch", 0)})
    calls, _, self_s = _span_sum(trace, "models.sample_losses")
    out.update({"models.sample_losses.calls": calls,
                "models.sample_losses.rows": counts.get("models.sample_losses", 0),
                "models.sample_losses.self_s": self_s})
    _, total, self_s = _span_sum(trace, "models.anomaly_scores")
    out["models.anomaly_scores.self_s"] = self_s
    out["models.anomaly_scores.timesteps_per_s"] = (
        counts.get("models.anomaly_scores", 0) / total if total else 0.0)
    for phase, caller in (("trial", "filtering.record_trial_traces"),
                          ("final", "models.fit")):
        _, total, self_s = _span_sum(trace, "models.train_epoch", caller)
        out[f"models.train_epoch.{phase}.self_s"] = self_s
        out[f"models.train_epoch.{phase}.total_s"] = total
    fits = trace["fits"]
    epochs = sum(e for e, _ in fits)
    out["models.fit.calls"] = len(fits)
    out["models.fit.epochs_run"] = epochs / len(fits) if fits else 0.0
    out["models.fit.best_epoch"] = (
        sum(b for _, b in fits) / len(fits) if fits else 0.0)
    out["models.fit.wasted_epoch_frac"] = (
        sum(e - b - 1 for e, b in fits) / epochs if epochs else 0.0)
    calls, total, self_s = _span_sum(trace, "filtering.record_trial_traces")
    out.update({"filtering.record_trial_traces.calls": calls,
                "filtering.record_trial_traces.self_s": self_s,
                "filtering.record_trial_traces.total_s": total})
    out["filtering.select_discard.self_s"] = _span_sum(
        trace, "filtering.select_discard")[2]
    windows = sum(n for n, _, _ in trace["discards"])
    discarded = sum(d for _, d, _ in trace["discards"])
    flagged = sum(f for _, _, f in trace["discards"])
    out["filtering.discard_frac"] = discarded / windows if windows else 0.0
    out["filtering.discard_precision"] = flagged / discarded if discarded else 0.0
    run_cell = trace["durations"]["experiment.run_cell"]
    out["experiment.run_cell.calls"] = len(run_cell)
    out["experiment.run_cell.p50_s"] = (
        statistics.median(run_cell) if run_cell else 0.0)
    calls, _, self_s = _span_sum(trace, "experiment.prepare_data")
    out["experiment.prepare_data.calls"] = calls
    out["experiment.prepare_data.self_s"] = self_s
    for fn in DATA_FUNCTIONS:
        out[f"data.{fn}.self_s"] = _span_sum(trace, f"data.{fn}")[2]
    for fn in ("auc_roc", "best_f1"):
        out[f"metrics.{fn}.self_s"] = _span_sum(trace, f"metrics.{fn}")[2]
    layers: dict[str, float] = {}
    for name, _, _, _, self_s in trace["spans"]:
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + self_s
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layers.get(layer, 0.0)
    wall = unit["t_done"] - unit["t_imported"]
    out["trace.wall_s"] = wall
    out["trace.self_frac"] = sum(layers.values()) / wall
    return out


def _call_counts(unit: dict) -> tuple:
    trace = unit["trace"]
    return ([span[:3] for span in trace["spans"]], trace["counts"],
            trace["fits"], trace["discards"], len(trace["durations"]
                                                  ["experiment.run_cell"]))


def check_trace(traced: list[dict]) -> list[str]:
    problems = []
    for unit in traced:
        negative = [s[:2] for s in unit["trace"]["spans"] if s[4] < 0]
        if negative:
            problems.append(f"negative self time: {negative}")
        layers = layer_metrics(unit)
        if abs(layers["trace.self_frac"] - 1.0) > SELF_TIME_TOLERANCE:
            problems.append(f"self times cover {layers['trace.self_frac']:.3f} "
                            "of the traced wall time")
    if any(_call_counts(u) != _call_counts(traced[0]) for u in traced[1:]):
        problems.append("call counts differ between traced runs of one seed")
    return problems


def traced_run(args, runner: Runner) -> tuple[dict, list[dict], list[str]]:
    workers = wl.WORKLOADS[args.workload]["workers"]
    unit = _spec(args.workload, args.seed, "unit", 1)
    as_users_run = runner.run(dict(unit, workers=workers))
    # alternate untraced and traced serial units, so that a drift in the
    # machine's speed during the run does not read as tracing overhead
    serial = [as_users_run] if workers == 1 else []
    traced = []
    for i in range(TRACED_UNITS):
        if len(serial) <= i:
            serial.append(runner.run(unit))
        traced.append(runner.run(dict(unit, trace=True)))
    per_unit = [layer_metrics(t) for t in traced]
    values = {}
    for name in per_unit[0]:
        samples = [m[name] for m in per_unit]
        # counts repeat exactly; keep them whole numbers
        values[name] = (samples[0] if len(set(samples)) == 1
                        else statistics.median(samples))
    run_cell_p50 = values["experiment.run_cell.p50_s"]
    values["experiment.pool_slowdown"] = (
        statistics.median(as_users_run["cells"]) / run_cell_p50
        if run_cell_p50 else 0.0)
    untraced_wall = statistics.median(u["t_done"] - u["t_imported"]
                                      for u in serial)
    values["trace_overhead_frac"] = values["trace.wall_s"] / untraced_wall - 1.0
    children = [as_users_run] + [u for u in serial if u is not as_users_run]
    children += traced
    problems = check_outputs(children, children) + check_trace(traced)
    print(f"{len(children)} units: 1 untraced with {workers} worker(s), "
          f"{len(serial)} untraced serial (including that one if it is "
          f"serial), {TRACED_UNITS} traced serial")
    return values, children, problems


# ---------------------------------------------------------------- main


def repo_record() -> dict:
    """Commit of the checkout, when it is a git work tree, and the line
    count of src/."""
    lines = sum(len(p.read_bytes().splitlines())
                for p in sorted((ROOT / "src").rglob("*.py")))
    commit = None
    git = ROOT / ".git"
    if (git / "HEAD").is_file():
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            commit = head
        elif (git / head[5:]).is_file():
            commit = (git / head[5:]).read_text(encoding="utf-8").strip()
        elif (git / "packed-refs").is_file():
            for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
                if line.endswith(" " + head[5:]):
                    commit = line.split()[0]
    return {"git_commit": commit, "src_py_lines": lines}


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric names and units BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "losstrace" / "__init__.py").is_file():
        print(f"error: no losstrace sources under {ROOT / 'src'}; run the "
              "benchmark from the root of a losstrace checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    work = ROOT / ".perfbench_work" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    runner = Runner(work, time.monotonic() + RUN_LIMIT_S)
    try:
        run = traced_run if args.trace else timed_run
        values, children, problems = run(args, runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    units = declared_metrics(bool(args.trace))
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} do not "
              "match BENCHMARK.json", file=sys.stderr)
        return 1
    print("environment: " + json.dumps(dict(children[0]["env"], **repo_record())))
    print("digests: " + json.dumps(children[-1]["digests"], sort_keys=True))
    for name, value in values.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
