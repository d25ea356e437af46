"""QF-RAMAN benchmark: time to a Raman spectrum on three workloads.

Run from the repository root:

    python3 benchmarks/qfbench/run.py [--seed S]
        every workload, each in a fresh subprocess: one untraced run for
        the end-to-end metrics, then one traced run for the per-layer
        metrics; writes one JSON record per seed
    python3 benchmarks/qfbench/run.py --workload W --seed S \
            --seconds T --trace 0|1
        one workload in this process; the last line of standard output
        is the result object (end-to-end metrics untraced, per-layer
        metrics traced)
    python3 benchmarks/qfbench/run.py --compare OLD NEW
        median delta of every end-to-end metric against its bound in
        BENCHMARK.json; OLD and NEW are record files or directories of
        them, pooled over their seeds. Exits 1 on a regression.

Load: one closed-loop client, one pipeline run at a time, serial
executor, BLAS pinned to one thread. The seed only generates inputs.
"""

from __future__ import annotations

import time

# set-up is timed from here: interpreter start-up is not the program's
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: workload set-ups per run; setup_s adds their median to the import time,
#: which an interpreter can only pay once
SETUP_REPEATS = 3
#: pooled runs a side of --compare needs before its spread, and so a
#: verdict, means anything
MIN_SAMPLES = 5
#: iterations of the fixed CPU probe timed before each workload process
#: (about 1 s on a 2 vCPU Xeon VM)
PROBE_ROUNDS = 72
END_TO_END_UNITS = {"time_to_spectrum_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def pin_environment() -> None:
    """One BLAS thread; no QF_* switch may change the workload. Called
    before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for var in [k for k in os.environ if k.startswith("QF_")]:
        del os.environ[var]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    return env


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def cpu_probe() -> float:
    """Seconds for a fixed mix of BLAS and interpreter work.

    Metadata, not a metric: a set whose probe reads slow ran while the
    shared machine was slow.
    """
    import numpy as np

    t0 = time.perf_counter()
    a = np.random.default_rng(0).standard_normal((256, 256))
    acc = 0
    for _ in range(PROBE_ROUNDS):
        for _k in range(8):
            a = np.tanh(a @ a.T / 256.0)
        acc += sum(i * i for i in range(150_000))
    return time.perf_counter() - t0


def timed_run(workload, i: int, times: list[float]) -> list[str]:
    """Run ``i``: untimed input, one timed pipeline run, its checks.
    Appends the run time; returns the run's problems."""
    inputs = workload.prepare(i)
    try:
        t0 = time.perf_counter()
        result = workload.run(**inputs)
        times.append(time.perf_counter() - t0)
        return workload.check(result, i)
    except Exception as exc:  # a failed run is counted, not fatal
        return [f"{type(exc).__name__}: {exc}"]


def seam_problems(workload, new_runs: list) -> list[str]:
    """A traced run must leave one root span and reach every seam the
    workload's config reaches."""
    if len(new_runs) != 1:
        return [f"{len(new_runs)} traced root spans for one run"]
    missing = workload.expected_seams - {s.name for s in new_runs[0].spans}
    return [f"seams never reached: {sorted(missing)}"] if missing else []


def metric_dict(values: dict[str, float], unit_of) -> dict:
    return {k: {"value": float(v), "unit": unit_of(k)}
            for k, v in values.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out: Path | None) -> int:
    """Set up one workload, run it for ``seconds``, print the result."""
    from layers import (
        LayerTracer,
        median_metrics,
        metric_unit,
        run_metrics,
        self_shares,
    )
    from workloads import WORKLOADS

    imports_s = time.perf_counter() - _T0
    build_s: list[float] = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        t0 = time.perf_counter()
        workload = WORKLOADS[name](seed, OUT / "work")
        build_s.append(time.perf_counter() - t0)
    tracer = LayerTracer() if trace else None
    times: list[float] = []
    runs = []
    problems: dict[int, list[str]] = {}
    attempted = 0
    try:
        with tracer.installed() if tracer else nullcontext():
            t_end = time.perf_counter() + seconds
            while attempted == 0 or time.perf_counter() < t_end:
                i = attempted
                attempted += 1
                n_traced = len(tracer.runs) if tracer else 0
                bad = timed_run(workload, i, times)
                if tracer and not bad:
                    bad = seam_problems(workload, tracer.runs[n_traced:])
                    runs += tracer.runs[n_traced:] if not bad else []
                if bad:
                    problems[i] = bad
                    print(f"[qfbench] {name} run {i} FAILED: {bad}",
                          file=sys.stderr)
    finally:
        workload.close()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "imports_s": imports_s, "setup_builds_s": build_s,
        "run_times_s": times, "problems": problems,
    }
    if tracer is None:
        values = {
            "time_to_spectrum_s": statistics.median(times) if times else 0.0,
            "setup_s": imports_s + statistics.median(build_s),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = metric_dict(values, END_TO_END_UNITS.get)
    else:
        from repro.obs.counters import counters
        from repro.obs.export import write_trace

        values = median_metrics(runs) if runs else {}
        metrics = metric_dict(values, metric_unit)
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = write_trace(tracer.export(),
                                 OUT / f"trace-{name}-seed{seed}.json",
                                 counters=counters())
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
        detail["layer_metrics_per_run"] = [
            metric_dict(run_metrics(rt), metric_unit) for rt in runs]
        detail["self_shares"] = self_shares(runs[0]) if runs else {}
    detail["metrics"] = metrics
    if out is not None:
        out.write_text(json.dumps(detail, indent=1), encoding="utf-8")

    print(f"[qfbench] {name} seed={seed} trace={int(trace)}: "
          f"{len(times)} run(s), {len(problems)} failed")
    for key, m in metrics.items():
        print(f"  {key:<34} {m['value']:>14.6g} {m['unit']}")
    if tracer is not None and detail["self_shares"]:
        print(f"  self-time shares of run 0 (trace: {detail['trace_file']})")
        for key, share in sorted(detail["self_shares"].items(),
                                 key=lambda kv: -kv[1])[:8]:
            print(f"    {key:<34} {100.0 * share:6.1f}%")
    print(json.dumps({"correct": attempted > 0 and not problems,
                      "attempted": attempted, "failed": len(problems),
                      "metrics": metrics}))
    return 0


# -- every workload: one record ----------------------------------------------

def provenance() -> dict:
    import numpy
    import scipy

    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": {k: os.environ[k] for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")},
    }


def run_child(name: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    detail_path = OUT / f"detail-{name}-seed{seed}-trace{int(trace)}.json"
    detail_path.unlink(missing_ok=True)
    probe_s = cpu_probe()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace)), "--out", str(detail_path)]
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=900)
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {
        "correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    detail = json.loads(detail_path.read_text(encoding="utf-8")) \
        if detail_path.exists() else {}
    return {**result, "seed": seed, "probe_s": probe_s, "detail": detail}


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, into one record file."""
    from workloads import WORKLOADS

    record = {"provenance": provenance(), "seed": seed, "seconds": seconds,
              "workloads": {}}
    ok = True
    for name in WORKLOADS:
        entry = {"untraced": run_child(name, seed, seconds, False),
                 "traced": run_child(name, seed, seconds, True)}
        ok &= entry["untraced"]["correct"] and entry["traced"]["correct"]
        record["workloads"][name] = entry

    sha = record["provenance"]["git_sha"][:10]
    record_path = OUT / f"record-{sha}-seed{seed}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"\n== qfbench summary (sha {sha}, seed {seed}) ==")
    for name, entry in record["workloads"].items():
        run_ = entry["untraced"]
        print(f"{name}: {run_['attempted']} attempted, {run_['failed']} "
              f"failed, cpu probe {run_['probe_s']:.2f}s")
        for metric, m in run_["metrics"].items():
            print(f"  {metric:<22} {m['value']:10.4f} {m['unit']}")
        plain = run_["detail"].get("run_times_s")
        traced = entry["traced"]["detail"]
        if plain and traced.get("run_times_s"):
            t_traced = statistics.median(traced["run_times_s"])
            t_plain = statistics.median(plain)
            print(f"  traced time_to_spectrum {t_traced:.4f} s "
                  f"({100 * (t_traced / t_plain - 1):+.1f}% vs untraced), "
                  f"layer metrics in {traced.get('trace_file')}")
    print(f"record: {record_path}")
    return 0 if ok else 1


# -- compare two sets of records ---------------------------------------------

def load_records(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = [json.loads(f.read_text(encoding="utf-8")) for f in files]
    return [r for r in records if "workloads" in r]


def untraced_runs(records: list[dict], workload: str) -> list[dict]:
    return [rec["workloads"][workload]["untraced"] for rec in records
            if workload in rec["workloads"]]


def pooled(records: list[dict], workload: str, metric: str) -> list[float]:
    return [run["metrics"][metric]["value"]
            for run in untraced_runs(records, workload)
            if metric in run["metrics"]]


def failures(records: list[dict], workload: str) -> int:
    return sum(run["failed"] for run in untraced_runs(records, workload))


def compare(old_path: Path, new_path: Path) -> int:
    bench = load_benchmark()
    old, new = load_records(old_path), load_records(new_path)
    if not old or not new:
        print("qfbench: no records to compare", file=sys.stderr)
        return 2
    regressed = False
    print(f"{'workload':<18} {'metric':<20} {'old':>10} {'new':>10} "
          f"{'delta':>8} {'bound':>7}  verdict")
    for wl in (w["name"] for w in bench["workloads"]):
        for m in bench["end_to_end"]:
            a, b = pooled(old, wl, m["name"]), pooled(new, wl, m["name"])
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (mb - ma) / ma
            if min(len(a), len(b)) < MIN_SAMPLES:
                verdict = "unresolved"
            elif max(spread(a), spread(b)) > m["bound"]:
                # too noisy to call, unless every new run beats every old
                beats = max(sign * x for x in b) < min(sign * x for x in a)
                verdict = "better" if beats else "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
            elif worse < -m["bound"]:
                verdict = "better"
            else:
                verdict = "ok"
            regressed |= verdict == "REGRESSION"
            print(f"{wl:<18} {m['name']:<20} {ma:>10.4g} {mb:>10.4g} "
                  f"{100 * sign * worse:>+7.1f}% {100 * m['bound']:>6.0f}%  "
                  f"{verdict} (n={len(a)}/{len(b)})")
        if failures(new, wl) > failures(old, wl):
            regressed = True
            print(f"{wl:<18} runs_failed {failures(old, wl)} -> "
                  f"{failures(new, wl)}  REGRESSION")
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="per-workload detail JSON (with --workload)")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)

    pin_environment()
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro").is_dir() or not BENCHMARK_JSON.is_file():
        print(f"qfbench: {SRC / 'repro'} or {BENCHMARK_JSON} missing; run "
              f"from a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    seconds = args.seconds or load_benchmark()["run_seconds"]
    if args.workload is None:
        return run_all(args.seed, seconds)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    return run_workload(args.workload, args.seed, seconds, bool(args.trace),
                        args.out)


if __name__ == "__main__":
    sys.exit(main())
