"""Opt-in reports that sit beside the workload runs.

``scaling`` times single layers at graded sizes, so growth rates show:
lattice build and ``verify_axioms`` on boolean 2-6 and lantern 2-32,
``run_nogo`` on boolean 2-4 and lantern 2-8, and ``scan_grid`` at
d = 10-200. ``defects`` runs inputs that break the CLI's promise of an exit
code in {0, 1, 2} with the right report; the timed workloads leave them
out because no op of a workload may fail.
"""

from __future__ import annotations

import json
import statistics
import time

# Larger inputs are timed but not rendered: the JSON report of a certificate
# holds every truth function and would need hundreds of MiB.
RENDER_LIMIT = 20000
MIN_REPEATS = 3
REPEAT_BUDGET_S = 3.0


def _time(fn):
    """(min, median) seconds over at least MIN_REPEATS calls, fewer when a
    single call outlasts the repeat budget; and the last result."""
    times = []
    while len(times) < MIN_REPEATS and (not times or sum(times) < REPEAT_BUDGET_S):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), statistics.median(times), result


def _json_bytes(cli, argv, items):
    if items > RENDER_LIMIT:
        return None
    return len(cli.dispatch(argv + ["--format=json"]).render().encode())


def scaling(cli) -> list:
    import slitlogic.lattice as lattice
    import slitlogic.nogo as nogo
    from slitlogic.probability import amplitude_interference
    from slitlogic.valuation import ValueSystem

    rows = []

    def row(layer, size, items, timing, nbytes):
        low, mid, _ = timing
        rows.append({"layer": layer, "size": size, "items": items,
                     "min_s": low, "median_s": mid, "output_bytes": nbytes})
        print(f"{layer:<16} {size:<12} items={items:<7} min={low:.6f}s "
              f"median={mid:.6f}s bytes={nbytes}", flush=True)

    inputs = amplitude_interference(("1/2", "1/2"), ("1/2", "1/2"))
    for family, sizes in (("boolean", range(2, 7)), ("lantern", (2, 4, 8, 16, 32))):
        for n in sizes:
            ref = f"builtin:{family}:{n}"
            build = _time(lambda: lattice.builtin(family, n))
            lat = build[2]
            items = len(lat.elements)
            row("lattice.build", ref, items, build, len(json.dumps(lat.to_dict())))
            row("lattice.verify", ref, items, _time(lambda: lattice.verify_axioms(lat)),
                _json_bytes(cli, ["lattice-check", ref], items))
    for family, sizes in (("boolean", range(2, 5)), ("lantern", range(2, 9))):
        for n in sizes:
            ref = f"builtin:{family}:{n}"
            lat = lattice.builtin(family, n)
            e1, e2 = lat.non_extremes()[:2]
            scenario = nogo.Scenario.build(lat, {"X1": e1, "X2": e2}, inputs)
            items = 2 ** (len(lat.elements) - 2) + 4
            timing = _time(lambda: nogo.run_nogo(scenario))
            row("nogo.run_nogo", ref, items, timing,
                _json_bytes(cli, ["nogo", f"--lattice={ref}", f"--bind=X1={e1},X2={e2}"], items))
    scenario = nogo.Scenario.build(lattice.builtin("boolean", 2), {"X1": "a", "X2": "b"}, inputs)
    for d in (10, 20, 50, 100, 150, 200):
        items = (d + 1) ** 2
        timing = _time(lambda: nogo.scan_grid(scenario, ValueSystem.infinite(d)))
        row("nogo.scan_grid", f"d={d}", items, timing,
            _json_bytes(cli, ["scan", f"--denominator={d}"], items))
    return rows


# Inputs that should each end in a report, and what that report must say.
# All are defects listed under ROADMAP item 5 at the time of writing.
_DEFECT_CASES = (
    ("parse: 3000 nested parentheses",
     ["parse", "(" * 3000 + "A" + ")" * 3000], {"exit": 0}),
    ("parse: 5000 negations",
     ["parse", "!" * 5000 + "A"], {"exit": 0}),
    ("eval: lukasiewicz on 3000 nested parentheses",
     ["eval", "--formula=" + "(" * 3000 + "A" + ")" * 3000, "--mode=lukasiewicz",
      "--assign=A=1/2"], {"exit": 0}),
    ("interference: value split from its flag, --amp1 -1/2,0",
     ["interference", "--amp1", "-1/2,0", "--amp2", "1/2,0"], {"exit": 0}),
    ("nogo: text error report when a value is the word json",
     ["nogo", "--format", "text", "--lattice", "json"], {"exit": 2, "format": "text"}),
)


def defects(cli) -> dict:
    failed = 0
    for label, argv, want in _DEFECT_CASES:
        try:
            report = cli.dispatch(argv)
            report.render()
            got = {"exit": report.exit_code, "format": report.format}
            problem = None if all(got[k] == v for k, v in want.items()) else f"got {got}, expected {want}"
        except Exception as exc:  # the defect under probe is an uncaught exception
            problem = f"raised {type(exc).__name__}"
        failed += problem is not None
        print(f"{'FAILED' if problem else 'ok':<7} {label}" + (f": {problem}" if problem else ""))
    attempted = len(_DEFECT_CASES)
    print(f"failed_ratio {failed / attempted:.6f} ({failed} of {attempted})")
    return {"attempted": attempted, "failed": failed}
