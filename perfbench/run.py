"""Run one benchmark workload at one seed and print its metrics.

    python3 perfbench/run.py --workload offload-run --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload fleet-contended --seed 3 --seconds 35 --trace 1
    python3 perfbench/run.py --freeze            # regenerate reference.json

Run it from the root of a checkout: it imports the program from the
checkout's ``src`` directory and nowhere else.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics (README.md).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every operation matched its frozen reference.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
OUT_DIR = os.path.join(HERE, "out")

#: Fresh-process set-ups per run besides the run's own; setup_s is the
#: median of all of them (one set-up varies by about a third).
SETUP_PROBES = 4


class SetupError(Exception):
    pass


def import_program():
    """Put the checkout's ``src`` first on the path and import the
    program from there — never from an installed copy."""
    package = os.path.join(SRC, "repro", "__init__.py")
    if not os.path.isfile(package):
        raise SetupError(f"no program source at {package}")
    sys.path[:0] = [SRC, ROOT]
    import repro
    if os.path.realpath(repro.__file__) != os.path.realpath(package):
        raise SetupError(f"imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def load_reference(workload: str) -> dict:
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload, {})


def setup(workload: str, seed: int):
    """Import, seed-driven input generation and the frozen reference:
    everything before the timed part.  Returns (ops, reference)."""
    import_program()
    from perfbench.workloads import make_inputs
    return make_inputs(workload, seed), load_reference(workload)


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds of a fresh interpreter running this script."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def freeze(workloads) -> int:
    """Regenerate reference.json: run every operation of every input
    variant once, untraced, and record its outputs.  This is a model
    change, never part of a performance change (README.md)."""
    import_program()
    from perfbench.harness import run_iteration
    from perfbench.workloads import VARIANTS, make_inputs
    frozen = {"workloads": {}}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, "r", encoding="utf-8") as fh:
            frozen = json.load(fh)
    for workload in workloads:
        table = {}
        for variant in range(VARIANTS):
            ops = [op for op in make_inputs(workload, variant)
                   if op.key not in table]
            if not ops:
                continue
            it = run_iteration(ops, reference={})
            broken = [f"{result.key}: guard failed: {name}"
                      for result in it.results
                      for name, ok in result.guards.items() if not ok]
            if broken or len(it.results) < len(ops):
                for line in broken or [
                        line for lines in it.failures.values()
                        for line in lines]:
                    print(line, file=sys.stderr)
                return 1
            for result in it.results:
                table[result.key] = result.outputs
            print(f"{workload} variant {variant}: froze "
                  f"{len(it.results)} operation(s) in {it.wall_s:.1f} s",
                  flush=True)
        frozen["workloads"][workload] = table
    frozen["note"] = ("Frozen outputs per operation. Regenerating them "
                      "is a model change, never part of a performance "
                      "change: python3 perfbench/run.py --freeze")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze", action="store_true",
                        help="regenerate reference.json (all workloads, "
                             "or --workload only)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.freeze:
            import_program()
            from perfbench.workloads import WORKLOADS
            return freeze([args.workload] if args.workload else WORKLOADS)
        if not args.workload:
            parser.error("--workload is required")
        ops, reference = setup(args.workload, args.seed)
        setup_s = time.perf_counter() - _STARTED
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setups = [setup_s] + [probe_setup(args.workload, args.seed)
                              for _ in range(SETUP_PROBES)]
    except (SetupError, ValueError, OSError) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2

    from perfbench.harness import (CALIBRATION_REF_S, END_TO_END, PER_LAYER,
                                   check_consistency, end_to_end_metrics,
                                   host_factor, per_layer_metrics,
                                   run_workload)
    from perfbench.spans import SpanRecorder

    recorder = SpanRecorder() if args.trace else None
    iterations = run_workload(ops, reference, args.seconds,
                              traced=bool(args.trace), recorder=recorder)
    if args.trace:
        metrics = per_layer_metrics(iterations)
        table = PER_LAYER
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        recorder.write_jsonl(spans_path)
    else:
        metrics = end_to_end_metrics(iterations,
                                     statistics.median(setups))
        table = END_TO_END

    check_consistency(iterations)
    attempted = sum(it.attempted for it in iterations)
    failed = min(attempted, sum(len(it.failures) for it in iterations))
    for it in iterations:
        for label, lines in it.failures.items():
            for line in lines:
                print(f"FAILED {label}: {line}", file=sys.stderr)
    correct = failed == 0

    walls = ", ".join(f"{it.wall_s:.2f}{'t' if it.traced else ''}"
                      for it in iterations)
    factor = host_factor(iterations)
    print(f"{args.workload} seed {args.seed}: {len(iterations)} "
          f"iteration(s) [{walls} s], {attempted} operation(s), "
          f"{failed} failed (fail ratio {failed / attempted:.3f})"
          + (f", spans in {os.path.relpath(spans_path, ROOT)}"
             if args.trace else ""))
    print(f"  host speed: best calibration "
          f"{CALIBRATION_REF_S / factor * 1e3:.1f} ms against "
          f"{CALIBRATION_REF_S * 1e3:.1f} ms reference; times below are "
          f"host times x {factor:.4f}")
    for name, unit, _ in table:
        print(f"  {name:28s} {metrics[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in table},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
