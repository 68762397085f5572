"""slitlogic benchmark: seeded CLI workloads, end-to-end metrics, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --scaling      # graded-size report per layer
    python3 perfbench/run.py --defects      # known-defect probe

Each workload drives the program as ``slitlogic.cli.main`` does: it calls
``cli.dispatch(argv)`` and then ``Report.render()`` in this process, one
command at a time (a closed loop with one client, no threads). The timed loop
runs whole passes over the workload's deck until ``--seconds`` have passed,
so every pass does the same work. Op times are scaled by a reference loop
timed around each op (see ``speed``). ``--trace 1`` runs the deck untraced
and traced, op by op, and reports per-layer metrics instead; the end-to-end
figures come only from untraced processes. The last line of standard output
is one JSON object. ``perfbench/DESIGN.md`` explains the choices.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

import speed
import workloads

# Deck variants built per run. Certify, sweep and audit repeat no input on
# their usual number of passes; evaluate, whose passes are short, cycles.
VARIANTS = {"certify": 6, "sweep": 6, "audit": 24, "evaluate": 12}
SETUP_REPEATS = 5
TAIL_BEYOND = 10

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("output_bytes_per_op", "bytes"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
)


def import_slitlogic():
    """Import the package from this checkout's ``src``, and nowhere else."""
    if not (SRC / "slitlogic" / "__init__.py").is_file():
        sys.exit(f"error: no slitlogic sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import slitlogic.cli

    if Path(slitlogic.__file__).resolve().parent != SRC / "slitlogic":
        sys.exit(f"error: slitlogic imported from {slitlogic.__file__}, not {SRC}")
    return slitlogic.cli


def run_op(cli, op):
    """One command, timed from dispatch to the encoded rendering.

    Returns (seconds, output bytes, failure reason or None)."""
    gc.collect()
    start = time.perf_counter()
    try:
        report = cli.dispatch(op.argv)
        text = report.render()
        nbytes = len(text.encode())
    except Exception as exc:  # a crash is a failed op, not a failed run
        return time.perf_counter() - start, 0, f"raised {type(exc).__name__}: {exc}"[:300]
    elapsed = time.perf_counter() - start
    head = "{" if report.format == "json" else report.verdict
    if not text.startswith(head):
        return elapsed, nbytes, f"rendering does not start with {head[:40]!r}"
    return elapsed, nbytes, op.check(report)


def setup_probe(workload: str, seed: int) -> None:
    """Everything a run does before its first timed op, then exit."""
    import_slitlogic()
    with work_dir() as workdir:
        workloads.build(workload, seed, VARIANTS[workload], workdir)


def work_dir() -> tempfile.TemporaryDirectory:
    """A scratch directory for lattice files inside the checkout."""
    OUT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="work-", dir=OUT)


def measure_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh process that sets the workload up and exits."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
        check=True, timeout=120, cwd=ROOT,
    )
    return time.perf_counter() - start


def tail(values):
    """The highest percentile with at least TAIL_BEYOND values beyond it,
    as (value, percentile); the maximum when there are too few values."""
    ordered = sorted(values)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def timed_run(cli, workload, seed, seconds, decks):
    """Whole passes until ``seconds`` of op time and checks have passed.

    Every op and every set-up probe is timed between two runs of the
    reference loop and scaled by them (see ``speed``). The probes run
    between passes, spread over the run."""
    slots = len(decks[0])
    samples = [[] for _ in range(slots)]
    first_pass_bytes = []
    failures = []
    setup_times = []
    refs = []
    attempted = completed = passes = 0
    busy = probing = 0.0

    def probe():
        before = speed.reference_seconds()
        elapsed = measure_setup(workload, seed)
        setup_times.append(speed.scaled(elapsed, before, speed.reference_seconds()))
        return elapsed

    t0 = time.perf_counter()
    while passes == 0 or time.perf_counter() - t0 - probing < seconds:
        before = speed.reference_seconds()
        for i, op in enumerate(decks[passes % len(decks)]):
            elapsed, nbytes, reason = run_op(cli, op)
            after = speed.reference_seconds()
            attempted += 1
            busy += elapsed
            refs.append(after)
            if reason:
                failures.append(f"{op.label}: {reason}")
            else:
                completed += 1
                samples[i].append(speed.scaled(elapsed, before, after))
                if passes == 0:
                    first_pass_bytes.append(nbytes)
            before = after
        passes += 1
        due = len(setup_times) * seconds / SETUP_REPEATS
        if len(setup_times) < SETUP_REPEATS and time.perf_counter() - t0 - probing >= due:
            probing += probe()
    wall = time.perf_counter() - t0 - probing
    while len(setup_times) < SETUP_REPEATS:
        probe()

    # Per-slot medians over the passes: the slot list is fixed, so the
    # percentiles below are taken over the same population on every run.
    per_slot = [statistics.median(s) for s in samples if s]
    tail_value, tail_pct = tail(per_slot) if per_slot else (0.0, 0.0)
    metrics = {
        "ops_per_s": len(per_slot) / sum(per_slot) if per_slot else 0.0,
        "latency_p50_ms": 1000 * statistics.median(per_slot) if per_slot else 0.0,
        "latency_tail_ms": 1000 * tail_value,
        "output_bytes_per_op": statistics.fmean(first_pass_bytes) if first_pass_bytes else 0.0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }
    notes = [
        f"workload {workload}, seed {seed}: {passes} passes of {slots} ops in {wall:.2f} s "
        f"({busy:.2f} s unscaled op time)",
        f"reference loop: median {1e6 * statistics.median(refs):.0f} us, "
        f"range {1e6 * min(refs):.0f}-{1e6 * max(refs):.0f} us; times are scaled "
        f"to {1e6 * speed.REFERENCE_S:.0f} us",
        f"latency_tail_ms is p{tail_pct:.1f} of {len(per_slot)} per-slot medians "
        f"({completed} samples)",
        f"setup_s is the median of {len(setup_times)} fresh set-ups: "
        + ", ".join(f"{t:.4f}" for t in setup_times),
        f"failed_ratio {len(failures) / attempted:.6f} ratio ({len(failures)} of {attempted})",
    ]
    units = dict(END_TO_END)
    return attempted, failures, {k: (v, units[k]) for k, v in metrics.items()}, notes


def traced_run(cli, workload, seed, seconds, decks):
    """Paired passes until ``seconds`` have passed: each op of variant 1
    untraced, then the same slot of variant 0 traced. Every pass traces the
    same ops, so counts repeat exactly; seconds are medians over passes."""
    from tracing import Tracer

    failures = []
    plain = traced = 0.0
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        tracer = Tracer()
        output_bytes = 0
        for i, (plain_op, traced_op) in enumerate(zip(decks[1], decks[0])):
            elapsed, _, reason = run_op(cli, plain_op)
            plain += elapsed
            if reason:
                failures.append(f"{plain_op.label} (untraced): {reason}")
            tracer.op = i
            with tracer:
                elapsed, nbytes, reason = run_op(cli, traced_op)
            traced += elapsed
            output_bytes += nbytes
            if reason:
                failures.append(f"{traced_op.label} (traced): {reason}")
        metrics = tracer.layer_metrics()
        metrics["cli.commands"] = (len(decks[0]), "count")
        metrics["cli.output_bytes"] = (output_bytes, "bytes")
        if not passes:
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{workload}.tsv"
            tracer.write_spans(str(spans))
            span_count = len(tracer.starts)
        passes.append(metrics)

    first = passes[0]
    out = {}
    for name in PER_LAYER[:-1]:
        value, unit = first[name]
        if unit == "s":
            value = statistics.median(m[name][0] for m in passes)
        elif any(m[name][0] != value for m in passes):
            failures.append(f"{name} differs between passes over the same ops")
        out[name] = (value, unit)
    out["trace.overhead_ratio"] = (traced / plain, "ratio")
    notes = [
        f"workload {workload}, seed {seed}: {len(passes)} traced passes of {len(decks[0])} ops; "
        f"{span_count} spans of the first written to {spans.relative_to(ROOT)}",
        f"nogo.useful_check_ratio = {first['nogo.distinct_pairs'][0]} distinct value pairs "
        f"over {first['nogo.check_calls'][0]} checks",
        f"trace.overhead_ratio = {traced:.3f} s traced over {plain:.3f} s untraced",
    ]
    return 2 * len(passes) * len(decks[0]), failures, out, notes


# Per-layer metrics, in the order BENCHMARK.json lists them.
PER_LAYER = (
    "lattice.build_calls", "lattice.build_s", "lattice.elements_built",
    "lattice.distinct_input_ratio", "lattice.verify_calls", "lattice.verify_s",
    "lattice.op_calls", "lattice.op_s",
    "formula.parse_calls", "formula.parse_chars", "formula.parse_s", "formula.render_s",
    "formula.desugar_calls", "formula.desugar_s",
    "valuation.truth_functions", "valuation.classes", "valuation.enumerate_s",
    "valuation.as_value_calls", "valuation.degree_calls", "valuation.degree_s",
    "valuation.admits_calls", "valuation.admits_s", "valuation.evaluate_calls",
    "valuation.evaluate_s",
    "probability.bridge_calls", "probability.bridge_s", "probability.interference_calls",
    "probability.interference_s",
    "nogo.check_calls", "nogo.check_s", "nogo.distinct_pairs", "nogo.useful_check_ratio",
    "nogo.violations", "nogo.trace_steps", "nogo.run_s", "nogo.scan_s",
    "cli.commands", "cli.dispatch_s", "cli.render_s", "cli.output_bytes",
    "trace.overhead_ratio",
)


def run_workload(args) -> dict:
    cli = import_slitlogic()
    with work_dir() as workdir:
        variants = 2 if args.trace else VARIANTS[args.workload]
        decks = workloads.build(args.workload, args.seed, variants, workdir)
        if args.trace:
            attempted, failures, metrics, notes = traced_run(
                cli, args.workload, args.seed, args.seconds, decks)
        else:
            attempted, failures, metrics, notes = timed_run(
                cli, args.workload, args.seed, args.seconds, decks)
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<30} {value:>16.6f} {unit}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in a fresh process of its own, then one summary table."""
    results = {}
    for workload in workloads.WORKLOADS:
        print(f"== {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {workload} exited with {proc.returncode}")
        results[workload] = json.loads(lines[-1])
    names = list(results[workloads.WORKLOADS[0]]["metrics"])
    print(f"\n{'metric':<30} {'unit':<8}" + "".join(f"{w:>16}" for w in results))
    for name in names:
        unit = results[workloads.WORKLOADS[0]]["metrics"][name]["unit"]
        print(f"{name:<30} {unit:<8}" + "".join(
            f"{r['metrics'][name]['value']:>16.6g}" for r in results.values()))
    print(f"{'failed_ratio':<30} {'ratio':<8}" + "".join(
        f"{r['failed'] / r['attempted']:>16.6g}" for r in results.values()))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scaling", action="store_true",
                        help="print the graded-size report per layer instead")
    parser.add_argument("--defects", action="store_true",
                        help="run the known-defect probe instead")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # Exit through the normal path on SIGTERM, so work directories are removed
    # and a running set-up probe is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.scaling or args.defects:
        import reports

        cli = import_slitlogic()
        result = reports.scaling(cli) if args.scaling else reports.defects(cli)
    elif args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
