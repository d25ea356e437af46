"""Command-line interface: ``python -m repro <command>``.

Thin wrappers over the example workflows so the main results are
reproducible without writing a script:

    python -m repro water-raman --n 4
    python -m repro peptide-raman --sequence GLY ALA
    python -m repro simulate --machine ORISE --nodes 750 1500 3000
    python -m repro counts
    python -m repro devtools lint src/

``QF_SANITIZE=1`` in the environment turns on the runtime numerical
sanitizer for any command, pool workers included (see
:mod:`repro.devtools.contracts` and docs/static_analysis.md).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np


def _apply_resilience(args):
    """Resolve the fault-tolerance flags into pipeline kwargs.

    Must run before any pool is created: --inject-faults exports
    QF_FAULTS so forked workers inherit the plan (the spec is
    validated here, so a typo fails fast instead of silently injecting
    nothing). Returns {} when no resilience flag was given — the
    executor then makes one attempt per fragment and fails fast.
    """
    if getattr(args, "inject_faults", None):
        from repro.pipeline.faults import FaultPlan

        FaultPlan.parse(args.inject_faults)
        os.environ["QF_FAULTS"] = args.inject_faults
    wants = any(
        getattr(args, name, None) is not None
        for name in ("retries", "timeout_s", "failure_policy")
    )
    if not wants:
        return {}
    from repro.pipeline.resilience import ResiliencePolicy

    policy = ResiliencePolicy(
        max_attempts=(args.retries if args.retries is not None else 2) + 1,
        timeout_s=args.timeout_s,
        failure_policy=args.failure_policy or "fail_fast",
    )
    return {"resilience": policy}


def _report_canonical(result) -> None:
    stats = result.canonical
    if "hits" not in stats:
        return
    print(f"canonical cache: {stats['hits']} hits, "
          f"{stats['misses']} misses, {stats['rotations']} rotations, "
          f"{stats['writes']} writes, {stats['rejects']} rejects "
          f"(hit rate {100 * stats['hit_rate']:.0f}%)")


#: ResilienceReport fields that mean a fragment needed a second chance
_RECOVERY_FIELDS = ("retries", "reissues", "timeouts", "pool_restarts",
                    "skipped")


def _report_resilience(result) -> None:
    """Print the fault-tolerance accounting of a run that recovered
    from (or skipped) a failure; a clean run prints nothing."""
    res = result.throughput.resilience if result.throughput else None
    if res is None or not any(res[name] for name in _RECOVERY_FIELDS):
        return
    print(f"resilience: {res['store_writes']} checkpointed, "
          f"{res['retries']} retries, {res['reissues']} reissues, "
          f"{res['timeouts']} timeouts, {res['pool_restarts']} pool restarts")
    if result.skipped_fragments:
        print(f"PARTIAL SPECTRUM — skipped fragments: "
              f"{', '.join(result.skipped_fragments)}")


def _setup_obs(args):
    """Install a live tracer when any telemetry output was requested.

    Must run *before* the pipeline (and any worker pool) is built so
    ``QF_TRACE`` is inherited by forked workers. Returns the tracer or
    None when no --trace/--metrics/--manifest flag was given.
    """
    wants = any(
        getattr(args, name, None) for name in ("trace", "metrics", "manifest")
    )
    if not wants:
        return None
    from repro.obs import enable_tracing, reset_counters

    reset_counters()
    return enable_tracing()


def _fd_asymmetry_extras(result) -> dict:
    """The largest ``meta["fd_asymmetry"]`` over the run's responses, the
    label of the first piece that has it, and how many responses lack
    the number (store entries written before the store kept it, and
    copies rotated off them)."""
    worst, label, missing = None, None, 0
    for k, (piece, resp) in enumerate(zip(result.decomposition.pieces,
                                          result.responses)):
        if resp is None:
            continue
        value = resp.meta.get("fd_asymmetry")
        if value is None:
            missing += 1
        elif worst is None or value > worst:
            worst, label = float(value), piece.label or f"piece-{k}"
    return {"fd_asymmetry_max": worst, "fd_asymmetry_fragment": label,
            "fd_asymmetry_missing": missing}


def _finish_obs(args, tracer, result, command: str, config: dict) -> None:
    """Write the requested telemetry files after a pipeline run."""
    if tracer is None:
        return
    from repro.obs import (
        collect_manifest,
        counters,
        disable_tracing,
        write_metrics,
        write_trace,
    )

    if args.trace:
        path = write_trace(tracer.records, args.trace, counters=counters())
        print(f"trace written to {path}")
    if args.metrics:
        path = write_metrics(args.metrics, counters=counters(),
                             records=tracer.records)
        print(f"metrics written to {path}")
    if args.manifest:
        extras = {}
        if result.skipped_fragments:
            # a partial spectrum must be unmistakable in the provenance
            # record, not just buried in the throughput sub-dict
            extras["partial_spectrum"] = True
            extras["skipped_fragments"] = list(result.skipped_fragments)
        extras["canonical_cache"] = dict(result.canonical)
        if result.spectrum is not None:
            extras["quadrature_delta"] = result.spectrum.quadrature_delta
        extras.update(_fd_asymmetry_extras(result))
        manifest = collect_manifest(
            command=command, config=config,
            seeds={"seed": getattr(args, "seed", None)},
            records=tracer.records, throughput=result.throughput,
            extras=extras,
        )
        manifest.write(args.manifest)
        print(f"manifest written to {args.manifest}")
    disable_tracing()


def _cmd_water_raman(args) -> int:
    from repro.analysis import WATER_BANDS, band_assignment
    from repro.analysis.reference import RHF_STO3G_FREQUENCY_SCALE
    from repro.geometry import water_box
    from repro.pipeline import QFRamanPipeline

    resilience_kwargs = _apply_resilience(args)
    tracer = _setup_obs(args)
    pipe = QFRamanPipeline(
        waters=water_box(args.n, seed=args.seed), relax_waters=True,
        verbose=args.verbose,
        executor=args.executor, max_workers=args.workers,
        canonical_cache=args.canonical_cache, **resilience_kwargs,
    )
    omega = np.linspace(200, 5200, 1000)
    result = pipe.run(omega_cm1=omega, sigma_cm1=args.sigma,
                      solver=args.solver)
    _finish_obs(args, tracer, result, command="water-raman", config={
        "n": args.n, "sigma": args.sigma, "solver": args.solver,
        "executor": args.executor, "workers": args.workers,
    })
    sp = result.spectrum.normalized()
    print(f"pieces: {result.decomposition.counts} "
          f"(unique: {result.unique_pieces})")
    if result.throughput is not None:
        print(result.throughput.summary())
    _report_resilience(result)
    _report_canonical(result)
    for name, info in band_assignment(
        sp.omega_cm1, sp.intensity, WATER_BANDS,
        frequency_scale=RHF_STO3G_FREQUENCY_SCALE,
    ).items():
        found = info["found_cm1"]
        print(f"  {name:<12} expect {info['expected_cm1']:6.0f}  "
              + (f"found {found:6.0f}" if found else "not found"))
    if args.out:
        np.savetxt(args.out, np.column_stack([sp.omega_cm1, sp.intensity]),
                   header="omega_cm1 intensity")
        print(f"spectrum written to {args.out}")
    return 0


def _cmd_peptide_raman(args) -> int:
    from repro.analysis import PROTEIN_BANDS, band_assignment
    from repro.analysis.reference import RHF_STO3G_FREQUENCY_SCALE
    from repro.geometry import build_polypeptide
    from repro.pipeline import QFRamanPipeline
    from repro.scf.optimize import optimize_geometry

    resilience_kwargs = _apply_resilience(args)
    tracer = _setup_obs(args)
    geom, residues = build_polypeptide(args.sequence)
    opt = optimize_geometry(geom, eri_mode="df")
    pipe = QFRamanPipeline(protein=opt.geometry, residues=residues,
                           verbose=args.verbose,
                           executor=args.executor, max_workers=args.workers,
                           canonical_cache=args.canonical_cache,
                           **resilience_kwargs)
    omega = np.linspace(200, 5200, 1200)
    result = pipe.run(omega_cm1=omega, sigma_cm1=args.sigma,
                      solver=args.solver)
    _finish_obs(args, tracer, result, command="peptide-raman", config={
        "sequence": list(args.sequence), "sigma": args.sigma,
        "solver": args.solver, "executor": args.executor,
        "workers": args.workers,
    })
    sp = result.spectrum.normalized()
    if result.throughput is not None:
        print(result.throughput.summary())
    _report_resilience(result)
    _report_canonical(result)
    for name, info in band_assignment(
        sp.omega_cm1, sp.intensity, PROTEIN_BANDS,
        frequency_scale=RHF_STO3G_FREQUENCY_SCALE,
    ).items():
        found = info["found_cm1"]
        print(f"  {name:<20} expect {info['expected_cm1']:6.0f}  "
              + (f"found {found:6.0f}" if found else "not found"))
    if args.out:
        np.savetxt(args.out, np.column_stack([sp.omega_cm1, sp.intensity]),
                   header="omega_cm1 intensity")
    return 0


def _cmd_simulate(args) -> int:
    from repro.fragment.bookkeeping import synthetic_fragment_size_distribution
    from repro.hpc import ORISE, SUNWAY, simulate_qf_run
    from repro.hpc.costmodel import calibrate_to_throughput

    machine = {"ORISE": ORISE, "SUNWAY": SUNWAY}[args.machine.upper()]
    rng = np.random.default_rng(3)
    frag = np.clip(synthetic_fragment_size_distribution(3180, seed=1), 9, 35)
    caps = np.clip((frag * 0.55).astype(int), 9, 28)
    gcs = rng.integers(12, 30, size=11394)
    sizes = np.concatenate([frag, caps, gcs])
    cm = calibrate_to_throughput(sizes, 93.2, args.nodes[0],
                                 machine.workers_per_leader)
    recorder = None
    if args.trace:
        from repro.hpc.tracing import TraceRecorder

        recorder = TraceRecorder()
    base = None
    for n in args.nodes:
        # only the first node count is traced — one Gantt per file
        trace = recorder if n == args.nodes[0] else None
        rep = simulate_qf_run(machine, n, sizes, cm, seed=0, job_noise=0.02,
                              trace=trace)
        lo, hi = rep.time_variation()
        eff = ""
        if base is None:
            base = rep
        else:
            eff = (f"  eff {100 * base.makespan * args.nodes[0] / (rep.makespan * n):5.1f}%")
        print(f"{machine.name} {n:>6} nodes: {rep.throughput:9.1f} frag/s"
              f"  var ({lo:+.1f}, {hi:+.1f})%{eff}")
    if recorder is not None:
        from repro.obs.export import write_trace

        path = write_trace(recorder.to_spans(), args.trace)
        print(f"trace written to {path} ({len(recorder.intervals)} "
              f"task intervals, {args.nodes[0]} nodes)")
    return 0


def _cmd_obs_view(args) -> int:
    from repro.obs.view import render

    print(render(args.file, width=args.width))
    return 0


def _cmd_counts(args) -> int:
    from repro.fragment.bookkeeping import (
        spike_paper_reference,
        system_statistics,
    )
    from repro.geometry import spike_like_protein

    protein, residues = spike_like_protein(args.residues, seed=0)
    n_chains = 3 if args.residues == 3180 else 1
    stats = system_statistics(
        protein, residues, n_waters=(101_299_008 - 49_008) // 3,
        n_chains=n_chains,
    )
    ref = spike_paper_reference()
    for key, val in stats.as_dict().items():
        print(f"  {key:<22} {val:>15,.0f}   (paper: {ref.get(key, '—')})")
    return 0


def _cmd_devtools_lint(args) -> int:
    from repro.devtools.lint import main as lint_main

    argv = list(args.paths)
    if args.select:
        argv += ["--select", args.select]
    if args.list_rules:
        argv += ["--list-rules"]
    return lint_main(argv)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="QF-RAMAN reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_executor_args(p):
        p.add_argument(
            "--executor", choices=("serial", "process", "displacement"),
            default="serial",
            help="fragment execution backend (see repro.pipeline.executor)",
        )
        p.add_argument(
            "--workers", type=int, default=None,
            help="worker processes for parallel backends (default: cpu count)",
        )
        p.add_argument(
            "--trace", default=None, metavar="FILE",
            help="write a span trace (.json = Chrome/Perfetto trace, "
                 ".jsonl = event log; see docs/observability.md)",
        )
        p.add_argument(
            "--metrics", default=None, metavar="FILE",
            help="write Prometheus-style text metrics after the run",
        )
        p.add_argument(
            "--manifest", default=None, metavar="FILE",
            help="write a JSON run manifest (config, versions, git SHA, "
                 "counters, per-phase walls)",
        )
        # fault tolerance (docs/resilience.md) — any of these flags
        # sets the executor's retry policy (2 retries unless --retries
        # says otherwise); without them it makes one attempt, fail-fast
        p.add_argument(
            "--retries", type=int, default=None, metavar="N",
            help="retry each failed fragment up to N times with "
                 "exponential backoff (default 2 when --timeout-s or "
                 "--failure-policy is given, else none)",
        )
        p.add_argument(
            "--timeout-s", type=float, default=None, metavar="S",
            help="per-attempt wall-clock limit; the process backend "
                 "speculatively reissues stragglers past it",
        )
        p.add_argument(
            "--failure-policy", choices=("fail_fast", "skip_and_report"),
            default=None,
            help="what to do when a fragment exhausts its retries: abort "
                 "the run, or skip it and assemble a flagged partial "
                 "spectrum",
        )
        p.add_argument(
            "--inject-faults", default=None, metavar="SPEC",
            help="deterministic fault injection (= QF_FAULTS), e.g. "
                 "'crash:water[0]@1;hang:ww[0,1]@1:0.5' — see "
                 "docs/resilience.md for the grammar",
        )
        # the fragment-response store (docs/caching.md) — persistent,
        # shared across runs and systems
        p.add_argument(
            "--canonical-cache", default=None, metavar="DIR",
            help="persistent fragment store: exact repeats are served "
                 "verbatim (an interrupted run resumes from DIR "
                 "bit-identically) and rigidly transformed copies are "
                 "rotated back instead of recomputed",
        )

    p = sub.add_parser("water-raman", help="Raman spectrum of a water box")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--sigma", type=float, default=20.0)
    p.add_argument("--solver", choices=("dense", "lanczos"), default="lanczos")
    p.add_argument("--out", default=None)
    p.add_argument("--verbose", action="store_true")
    add_executor_args(p)
    p.set_defaults(fn=_cmd_water_raman)

    p = sub.add_parser("peptide-raman", help="gas-phase peptide Raman spectrum")
    p.add_argument("--sequence", nargs="+", default=["GLY"])
    p.add_argument("--sigma", type=float, default=5.0)
    p.add_argument("--solver", choices=("dense", "lanczos"), default="dense")
    p.add_argument("--out", default=None)
    p.add_argument("--verbose", action="store_true")
    add_executor_args(p)
    p.set_defaults(fn=_cmd_peptide_raman)

    p = sub.add_parser("simulate", help="scheduler simulation on a machine")
    p.add_argument("--machine", choices=("ORISE", "SUNWAY", "orise", "sunway"),
                   default="ORISE")
    p.add_argument("--nodes", type=int, nargs="+", default=[750, 1500, 3000])
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write the first node count's task intervals as a "
                        "Chrome/Perfetto trace")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("obs", help="inspect exported run telemetry")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    pv = obs_sub.add_parser("view", help="per-phase summary + flamegraph "
                                         "of an exported trace")
    pv.add_argument("file", help="trace file (.json or .jsonl)")
    pv.add_argument("--width", type=int, default=40,
                    help="flamegraph bar width in characters")
    pv.set_defaults(fn=_cmd_obs_view)

    p = sub.add_parser("counts", help="full-scale decomposition statistics")
    p.add_argument("--residues", type=int, default=3180)
    p.set_defaults(fn=_cmd_counts)

    p = sub.add_parser(
        "devtools", help="developer tooling (QF linter, sanitizer docs)"
    )
    dev_sub = p.add_subparsers(dest="devtools_command", required=True)
    pl = dev_sub.add_parser("lint", help="run the QF physics-aware linter")
    pl.add_argument("paths", nargs="*", default=["src"],
                    help="files or directories (default: src)")
    pl.add_argument("--select", default=None,
                    help="comma-separated rule codes/aliases to report")
    pl.add_argument("--list-rules", action="store_true")
    pl.set_defaults(fn=_cmd_devtools_lint)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
