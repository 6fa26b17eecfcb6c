"""nvalued benchmark: one seeded workload, end-to-end or per-layer figures.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload analyze-mix --seed 1 --seconds 16 --trace 0

Workloads: analyze-mix, analyze-wide, oracle-certify, plan-random (see
perfbench/README.md for what each item is and why the workload exists).

With ``--trace 0`` the run starts several fresh interpreters that only set
up (for ``setup_s`` and ``import_s``) and more that only import (for
``import_s``), then one that also measures for
``--seconds`` seconds, and prints the end-to-end metrics.  With
``--trace 1`` one interpreter runs a fixed number of chunks with every
layer wrapped, alternating with untraced chunks, and prints the
per-layer metrics.  Every process is single-threaded (BLAS thread counts
pinned to 1) and at most one runs at a time.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Exit code 0 on a completed run; 2 when the checkout has no ``src/nvalued``;
1 when a benchmark process fails or overruns.
"""

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("analyze-mix", "analyze-wide", "oracle-certify", "plan-random")
SETUP_SAMPLES = 9  # fresh interpreters per run that set up, for setup_s and import_s
IMPORT_SAMPLES = 12  # further fresh interpreters that only import, for import_s
DEADLINE_S = 170  # the whole run, probes included

class BenchError(RuntimeError):
    """A benchmark process failed; the run has no result."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def child_lines(proc, deadline):
    """Lines the child prints, as they arrive; BenchError past the deadline."""
    fd = proc.stdout.fileno()
    pending = b""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run exceeded its deadline")
        readable, _, _ = select.select([fd], [], [], remaining)
        if not readable:
            continue
        data = os.read(fd, 1 << 16)
        if not data:
            return
        pending += data
        *lines, pending = pending.split(b"\n")
        for line in lines:
            yield line.decode()


def run_child(args, workdir, deadline, probe=None):
    """Start one measuring interpreter; (seconds until READY, SETUP, RESULT).
    ``probe`` "probe" stops it after set-up, "import" after the import."""
    argv = [sys.executable, os.path.join(HERE, "measure.py"), args.workload, str(args.seed),
            str(args.seconds), str(args.trace), workdir] + ([probe] if probe else [])
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env())
    ready_s, ready, result = None, None, None
    try:
        for line in child_lines(proc, deadline):
            if line == "READY" and ready_s is None:
                ready_s = time.perf_counter() - started
            elif line.startswith("SETUP "):
                ready = json.loads(line[6:])
            elif line.startswith("RESULT "):
                result = json.loads(line[7:])
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("benchmark process did not exit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or (result is None and not probe):
        raise BenchError(f"benchmark process {' '.join(argv[2:])} exited with {code}")
    return ready_s, ready, result


def declared_metrics(trace):
    """(name, unit) of the metrics BENCHMARK.json declares for this mode."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def measure(args, workdir):
    deadline = time.monotonic() + DEADLINE_S
    setups, imports = [], []
    if not args.trace:
        for k in range(SETUP_SAMPLES - 1):
            ready_s, ready, _ = run_child(args, os.path.join(workdir, f"probe{k}"), deadline, "probe")
            setups.append((ready_s - ready["reference_s"]) / ready["slowness"])
            imports.append(ready["import_s"] / ready["import_slowness"])
        for _ in range(IMPORT_SAMPLES):
            _, ready, _ = run_child(args, workdir, deadline, "import")
            imports.append(ready["import_s"] / ready["import_slowness"])
    ready_s, ready, result = run_child(args, os.path.join(workdir, "run"), deadline)
    setups.append((ready_s - ready["reference_s"]) / ready["slowness"])
    imports.append(ready["import_s"] / ready["import_slowness"])
    if args.trace:
        values = result["layers"]
    else:
        values = dict(result, setup_s=statistics.median(setups), import_s=statistics.median(imports))
    metrics = {name: (values[name], unit) for name, unit in declared_metrics(args.trace)}
    return metrics, result, (len(setups), len(imports))


def report(args, metrics, result, samples):
    attempted, failed = result["attempted"], result["failed"]
    print(f"nvalued benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, {result['chunks']} chunks, "
          f"{attempted} items, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6f} {unit}")
    print(f"  {'fail_ratio':48s} {failed / attempted:14.6f} 1  ({failed}/{attempted})")
    if not args.trace:
        print(f"  item_ms_p90 has {result['p90_beyond']} samples beyond it; "
              f"setup_s and import_s are medians of {samples[0]} and {samples[1]} fresh interpreters")
        print(f"  {'raw_wall_s':48s} {result['raw_wall_s']:14.6f} s  (wall_s before dividing "
              f"by the machine slowness, {result['slowness']:.4f})")
    else:
        absent = ", ".join(result["absent"]) or "none"
        print(f"  absent functions (metrics read 0): {absent}")
    print(f"  sha256 of the first {result['digest_items']} structured outputs: {result['digest']}")
    for line in result["problems"]:
        print(f"  failed: {line}")
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (os.path.isfile(os.path.join("src", "nvalued", "cli.py"))
            and os.path.isfile("BENCHMARK.json")):
        print("perfbench: run from the root of an nvalued checkout "
              "(src/nvalued or BENCHMARK.json is missing)", file=sys.stderr)
        return 2
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], check=True,
                   stdout=subprocess.DEVNULL)
    workdir = os.path.join(".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        metrics, result, samples = measure(args, workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        path = os.path.join(".perfbench", f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"functions": result["table"], "metrics": result["layers"],
                       "absent": result["absent"]}, fh, indent=1, sort_keys=True)
    report(args, metrics, result, samples)
    return 0


if __name__ == "__main__":
    sys.exit(main())
