"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program under test is imported from
``src/`` next to this directory; without it the benchmark exits with
code 2 and prints no result.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(every end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``, every
per-layer metric with ``--trace 1``).  A failed correctness check makes
``correct`` false and the exit code 1.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here to "ready"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import numbers  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("transfer-bound", "compute-bound", "serve-live", "serve-virtual")
#: cold starts per run whose median is ``setup_s`` (this process is one)
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only import and warm up, then print the set-up times",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def program_present(root: str = ROOT) -> bool:
    return os.path.isfile(os.path.join(root, "src", "repro", "__init__.py"))


def load_spec(root: str = ROOT) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def workload_functions(workload: str):
    """``(warm_up(seed), run(seed, seconds, trace))`` of one workload."""
    if workload in ("transfer-bound", "compute-bound"):
        from perfbench import sim

        return (
            lambda seed: sim.warm_up(workload, seed),
            lambda seed, seconds, trace: sim.run(workload, seed, seconds, trace),
        )
    if workload == "serve-live":
        from perfbench import live

        return live.warm_up, live.run
    from perfbench import virtual

    return virtual.warm_up, virtual.run


def _probe(args) -> dict:
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    done = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _number(value) -> bool:
    return isinstance(value, numbers.Real) and math.isfinite(value)


def assemble(spec: dict, trace: bool, measured: dict, errors: list) -> dict:
    """Every metric ``BENCHMARK.json`` lists for this mode, with units.

    A per-layer metric of a layer the workload does not run reads 0; an
    end-to-end metric the workload did not measure is an error.
    """
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for metric in listed:
        name = metric["name"]
        value = measured.get(name, 0.0 if trace else None)
        if not _number(value):
            errors.append(f"metric {name} has no supported value: {value!r}")
            value = 0.0
        out[name] = {"value": float(value), "unit": metric["unit"]}
    unknown = set(measured) - set(out)
    if unknown:
        errors.append(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not program_present():
        print(f"no program to benchmark: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    warm_up, run = workload_functions(args.workload)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    t_warm = time.perf_counter()
    warm_up(args.seed)
    first_call_s = time.perf_counter() - t_warm
    own = {"setup_s": time.perf_counter() - _T0, "import_s": import_s,
           "first_call_s": first_call_s}
    if args.setup_probe:
        print(json.dumps(own))
        return 0

    errors: list[str] = []
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        try:
            samples.append(_probe(args))
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            errors.append(f"set-up probe failed: {exc}")

    attempted, failed, run_errors, measured = run(args.seed, args.seconds, bool(args.trace))
    errors.extend(run_errors)
    if args.trace:
        measured["setup.import_s"] = statistics.median(s["import_s"] for s in samples)
        measured["setup.first_call_s"] = statistics.median(
            s["first_call_s"] for s in samples
        )
    else:
        measured["setup_s"] = statistics.median(s["setup_s"] for s in samples)
    metrics = assemble(load_spec(), bool(args.trace), measured, errors)
    correct = not errors and failed == 0
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
