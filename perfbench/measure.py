"""One benchmark process: set up, run one workload, report raw figures.

``run.py`` starts this file in fresh interpreters.  Between two short
reference loops it imports ``nvalued.cli``, timed, before anything else,
so the import cost is the one a command-line user pays.  It then writes the inputs and warms up, prints
``READY`` (a set-up probe stops here), and runs chunks of items in a
closed loop: one item at a time, each starting when the previous one has
returned.  Outputs are checked after each chunk, outside the timed
region.  The last line it prints is ``RESULT`` with a JSON object.

Usage (normally through run.py):
    python3 perfbench/measure.py WORKLOAD SEED SECONDS TRACE WORKDIR [probe|import]

An ``import`` probe stops right after the timed import.
"""

import gc
import sys
import time

# Timings are divided by the machine's slowness, measured with fixed
# reference work run next to them: the shared machine's speed drifts by
# tens of percent within seconds, for the reference and the program
# alike.  A reported second is a second at the speed where one reference
# slice takes REF_SLICE_S.
REF_SLICE_S = 0.0005
SPEED_PROBE_SLICES = 100  # start-up slices before and after the import, and after set-up


def startup_slice():
    """Reference work that needs no import (integers, tuples, dicts), so
    it can bracket the timed import of the program."""
    table = {}
    acc = 0
    for i in range(800):
        key = (i % 7, i % 5)
        table[key] = table.get(key, 0) + (i * i) % 13
        acc += (i * 2654435761) % 1000003 // (i % 11 + 1)
    return acc, len(table)


def reference(work, slices):
    """Seconds taken by ``slices`` runs of the reference slice ``work``.

    The cyclic garbage collector is off meanwhile: its passes would scan
    the objects the program keeps alive, and a program that kept more of
    them would then slow the divisor and hide part of its own cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(slices):
            work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


PRE_IMPORT_REF_S = reference(startup_slice, SPEED_PROBE_SLICES)
_T0 = time.perf_counter()
import nvalued.cli  # noqa: E402  (timed: the program's own start-up import)

IMPORT_S = time.perf_counter() - _T0
POST_IMPORT_REF_S = reference(startup_slice, SPEED_PROBE_SLICES)
# The import's time follows the reference's only about as its square root
# (log-log slopes of 0.1-0.55 over three sets of 60-80 fresh interpreters
# on a shared 2-core VM): dividing by the full slowness over-corrects.
IMPORT_SLOWNESS = ((PRE_IMPORT_REF_S + POST_IMPORT_REF_S)
                   / (2 * SPEED_PROBE_SLICES * REF_SLICE_S)) ** 0.5
NUMPY_LOADED = int("numpy" in sys.modules)

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from fractions import Fraction  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

# chunks per run at least (>= 100 items), and chunks traced in a traced run
MIN_CHUNKS = {"analyze-mix": 3, "analyze-wide": 7, "oracle-certify": 4, "plan-random": 1}
TRACED_CHUNKS = {"analyze-mix": 4, "analyze-wide": 3, "oracle-certify": 3, "plan-random": 6}

BOX = 10  # oracle-certify window bounds, as in acceptance criterion 5

REF_SHARE = 0.2  # item reference time after each item, as a share of the item's time
WINDOW = 2  # items a side whose reference samples normalise an item's latency


def item_slice():
    """Reference work like the engine's (Fractions, tuples, dicts), run
    between items."""
    acc = Fraction(0)
    table = {}
    for i in range(120):
        acc += Fraction(i % 37 + 1, i % 11 + 1) * Fraction(i % 5 + 1, 7)
        key = (i % 7, i % 5)
        table[key] = table.get(key, 0) + (i * i) % 13
    return acc, len(table)


# fixed warm-up inputs, never drawn by the streams (registered as seen)
WARMUP = {
    "analyze": [{"kind": "circle", "n": 3, "d": -2}, {"kind": "linear", "n": 2, "A": [[3, 1], [1, 3]]}],
    "oracle-check": [{"kind": "circle", "n": 2, "d": -1}],
    "plan": ["edge hub a\nedge hub b\nedge hub c\nedge c d\ntoken 1 a\ntoken 2 d\ngoal 1 d\ngoal 2 a\n"],
}


class Tally:
    """Outcomes and output-derived counts of the items run so far."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems = []
        self.latencies = []
        self.digest = hashlib.sha256()
        self.digest_items = 0
        self.counts = {"classes": 0, "cells": 0, "plans": 0, "moves": 0, "bound": 0}

    def add(self, item, code, text, extra, latency, digest, count):
        """Record one item: check its output and update the tallies."""
        self.attempted += 1
        self.latencies.append(latency)
        if digest:
            self.digest.update(text.encode())
            self.digest_items += 1
        problems, refused = evaluate(item, code, text, extra)
        if problems:
            self.failed += 1
            # every input is valid, so a failure is a wrong answer, except the
            # planner's documented refusal, a known seed defect
            if not refused:
                self.wrong += 1
            if len(self.problems) < 5:
                self.problems.append(f"{' '.join(item.argv)}: {'; '.join(problems)}")
        elif count:
            self._count(item, text)

    def _count(self, item, text):
        doc = json.loads(text)
        c = self.counts
        if item.argv[0] == "plan":
            c["plans"] += 1
            c["moves"] += doc["length"]
            c["bound"] += doc["bound"]
            return
        c["classes"] += len(doc.get("fixed_point_classes", ()))
        if "oracle" in doc:
            c["cells"] += doc["n"] * (2 * doc["oracle"]["box_bound"] + 1) ** doc["q"]


def evaluate(item, code, text, extra):
    """(problems, refused): the problems with one item's outcome (empty
    when it is correct), and whether they are only the planner's
    documented refusal."""
    if code is None:
        return [f"raised {extra}"], False
    command = item.argv[0]
    if command == "analyze":
        return checks.check_analysis(item.meta, code, text), False
    if command == "oracle-check":
        return checks.check_oracle(item.meta, code, text, extra), False
    if code == 1:
        # the CLI exits 1 on every model error, a colliding or illegal
        # schedule included, so ask the planner again what happened
        cause = plan_failure(item.path)
        return [f"exit code 1: {extra.strip()}" + (f" ({cause})" if cause else "")], cause is None
    if code != 0:
        return [f"exit code {code}: {extra.strip()}"], False
    return checks.check_plan(item.meta, code, text, lambda moves: replay(item.path, moves)), False


def plan_failure(path):
    """Why planning the graph at ``path`` fails: None when ``plan``
    raises PlannerStuckError, its documented refusal; otherwise the
    problem (a failing replay, or none found at all)."""
    from nvalued import planner

    graph, goals = nvalued.cli.load_graph_document(path)
    try:
        result = planner.plan(graph, goals)
    except planner.PlannerStuckError:
        return None
    except ValueError as exc:
        return f"plan raised {type(exc).__name__}: {exc}"
    try:
        final = planner.simulate(result.graph, result.schedule)
    except ValueError as exc:
        return f"replay raised {type(exc).__name__}: {exc}"
    if final != goals:
        return "replayed schedule does not end at the goal"
    return "planning again succeeds"


def replay(path, moves):
    """Replay emitted moves on the prepared graph; the final placement."""
    from nvalued import planner

    graph, _ = nvalued.cli.load_graph_document(path)
    prepared = planner.validate_graph(graph).graph
    schedule = planner.MoveSchedule(tuple(planner.Move(int(t), s, d) for t, s, d in moves))
    return planner.simulate(prepared, schedule)


def prepare(items):
    """Untimed per-chunk preparation: the oracle item's lift system."""
    for item in items:
        if item.argv[0] == "oracle-check":
            item.system = nvalued.cli.load_map_document(item.path)[1]


def run_item(item):
    """Run one item in-process: (exit code or None, stdout, extra)."""
    out = io.StringIO()
    err = io.StringIO()
    saved, sys.stderr = sys.stderr, err
    try:
        code = nvalued.cli.main(item.argv, out=out)
        if item.argv[0] == "oracle-check":
            return code, out.getvalue(), nvalued.oracle.brute_fixed_points(item.system, BOX)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is an outcome to report, not to die on
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    finally:
        sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def run_chunk(items):
    """Run a chunk in a closed loop; checks come later.

    After each item, reference slices worth REF_SHARE of the item's time
    sample how fast the machine is running.  Returns per item (exit code,
    stdout, extra, latency, reference seconds, nominal reference seconds).
    """
    clock = time.perf_counter
    outcomes = []
    for item in items:
        t0 = clock()
        code, text, extra = run_item(item)
        latency = clock() - t0
        k = max(1, round(REF_SHARE * latency / REF_SLICE_S))
        outcomes.append((code, text, extra, latency, reference(item_slice, k), k * REF_SLICE_S))
    return outcomes


def normalised_latencies(outcomes):
    """Each latency divided by the slowness seen around it: reference time
    over nominal time, summed over the item and WINDOW neighbours a side."""
    out = []
    for i, outcome in enumerate(outcomes):
        window = outcomes[max(0, i - WINDOW):i + WINDOW + 1]
        slowness = sum(o[4] for o in window) / sum(o[5] for o in window)
        out.append(outcome[3] / slowness)
    return out


def settle(items, outcomes, tally, digest, count):
    """Check a chunk's outputs; return its (raw, normalised) wall time and
    its slowness."""
    normalised = normalised_latencies(outcomes)
    for item, outcome, latency in zip(items, outcomes, normalised):
        code, text, extra = outcome[:3]
        tally.add(item, code, text, extra, latency, digest, count)
    raw = sum(o[3] for o in outcomes)
    return raw, sum(normalised), sum(o[4] for o in outcomes) / sum(o[5] for o in outcomes)


def warm_up(stream):
    """Run the fixed warm-up inputs once (program code paths, caches)."""
    command = {"analyze-mix": "analyze", "analyze-wide": "analyze",
               "oracle-certify": "oracle-check", "plan-random": "plan"}[stream.workload]
    items = []
    for doc in WARMUP[command]:
        if command == "plan":
            path = stream.write_text(doc, ".graph")
            argv = ["plan", path, "--format", "structured"]
        else:
            text = json.dumps(doc, sort_keys=True)
            stream.fresh(text)
            path = stream.write_text(text, ".map")
            argv = [command, path, "--format", "structured"]
            if command == "oracle-check":
                argv[2:2] = ["--box", str(BOX), "--word", str(BOX)]
        items.append(workloads.Item(argv, path, None))
    prepare(items)
    for item in items:
        code, _, extra = run_item(item)
        if code != 0:
            raise RuntimeError(f"warm-up item {item.argv} failed: {extra}")


def layer_metrics(recorder, tally, items, traced_wall, plain_wall, slowness):
    """Per-layer figures of the traced chunks (see BENCHMARK.json); times
    are speed-normalised with the traced chunks' mean slowness."""
    table, under = recorder.summary()
    for row in table.values():
        row["s"] /= slowness
        row["self_s"] /= slowness
    c = tally.counts

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("cli.main", "cli.build_system", "cli.emit", "liftsystems.validate",
                 "intlinalg.rational_left_kernel", "reidemeister.sigma_classes",
                 "reidemeister.phi_restricted", "intlinalg.lattice_from_generators",
                 "intlinalg.lattice_index", "intlinalg.coset_representatives",
                 "intlinalg.solve_rational", "oracle.brute_classes", "intlinalg.coset_reduce",
                 "oracle.brute_fixed_points", "planner.validate_graph", "planner.simulate"):
        m[name + ".s"] = table[name]["s"]
    for name in ("cli.build_report", "reidemeister.reidemeister_number",
                 "fixedpoints.fixed_point_classes", "fixedpoints.nielsen_number",
                 "oracle.oracle_check", "planner.plan"):
        m[name + ".self_s"] = table[name]["self_s"]
    for name in ("liftsystems.psi_of", "semidirect.compose", "intlinalg.lattice_from_generators",
                 "intlinalg.solve_rational", "intlinalg.coset_reduce"):
        m[name + ".calls"] = table[name]["calls"]
    for name in ("liftsystems.validate", "reidemeister.reidemeister_number"):
        m[name + ".calls_per_item"] = ratio(table[name]["calls"], items)
    m["intlinalg.coset_representatives.reps"] = recorder.sizes.get(
        "intlinalg.coset_representatives", 0)
    m["fixedpoints.solves_per_class"] = ratio(table["intlinalg.solve_rational"]["calls"], c["classes"])
    m["oracle.window_cells"] = c["cells"]
    m["oracle.coset_reduce_per_cell"] = ratio(
        under.get(("oracle.oracle_check", "intlinalg.coset_reduce"), 0), c["cells"])
    m["planner.moves_per_plan"] = ratio(c["moves"], c["plans"])
    m["planner.moves_per_bound"] = ratio(c["moves"], c["bound"])
    m["import.numpy_loaded"] = NUMPY_LOADED
    m["trace.items"] = items
    m["trace.overhead_s"] = statistics.median(traced_wall) - statistics.median(plain_wall)
    m["trace.overhead_ratio"] = ratio(sum(traced_wall), sum(plain_wall)) - 1.0
    return m, table


def main(argv):
    workload, seed, seconds, trace, workdir = argv[:5]
    probe = argv[5:] == ["probe"]
    if argv[5:] == ["import"]:
        print("SETUP " + json.dumps({"import_s": IMPORT_S, "import_slowness": IMPORT_SLOWNESS}),
              flush=True)
        return 0
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    stream = workloads.Stream(workload, seed, workdir)
    warm_up(stream)
    items = stream.chunk(0)
    prepare(items)
    print("READY", flush=True)
    post_setup_ref_s = reference(startup_slice, SPEED_PROBE_SLICES)
    nominal = SPEED_PROBE_SLICES * REF_SLICE_S
    print("SETUP " + json.dumps({
        "import_s": IMPORT_S,
        "numpy_loaded": NUMPY_LOADED,
        # reference time inside the time to READY, which is not set-up
        "reference_s": PRE_IMPORT_REF_S + POST_IMPORT_REF_S,
        "import_slowness": IMPORT_SLOWNESS,
        "slowness": (PRE_IMPORT_REF_S + POST_IMPORT_REF_S + post_setup_ref_s) / (3 * nominal),
    }), flush=True)
    if probe:
        return 0
    recorder = None
    if trace:
        import spans

        recorder = spans.Recorder()
    tally = Tally()
    result = (measure_traced if trace else measure_plain)(
        stream, items, tally, seconds, recorder)
    result.update({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "problems": tally.problems,
        "digest": tally.digest.hexdigest(),
        "digest_items": tally.digest_items,
    })
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def measure_plain(stream, items, tally, seconds, _):
    """Untraced: chunks until ``seconds`` have passed (at least MIN_CHUNKS)."""
    min_chunks = MIN_CHUNKS[stream.workload]
    raw, walls, slowness = [], [], []
    begin = time.perf_counter()
    index = 0
    while True:
        outcomes = run_chunk(items)
        wall_raw, wall, slow = settle(items, outcomes, tally, index < min_chunks, False)
        raw.append(wall_raw)
        walls.append(wall)
        slowness.append(slow)
        index += 1
        if index >= min_chunks and time.perf_counter() - begin >= seconds:
            break
        items = stream.chunk(index)
        prepare(items)
    lat = sorted(tally.latencies)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1]
    return {
        "chunks": index,
        "wall_s": statistics.fmean(walls),
        "item_ms_p50": statistics.median(lat) * 1000,
        "item_ms_p90": p90 * 1000,
        "p90_beyond": sum(1 for x in lat if x > p90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "raw_wall_s": statistics.fmean(raw),
        "slowness": statistics.median(slowness),
    }


def measure_traced(stream, items, tally, seconds, recorder):
    """Traced: TRACED_CHUNKS wrapped chunks, each followed by an unwrapped
    one for the overhead estimate.  The traced set is fixed, so its counts
    repeat exactly for a seed; ``seconds`` does not apply."""
    min_chunks = MIN_CHUNKS[stream.workload]
    traced_wall, plain_wall, traced_slowness = [], [], []
    traced_items = 0
    index = 0
    while True:
        traced = index % 2 == 0
        if traced:
            recorder.install()
        try:
            outcomes = run_chunk(items)
        finally:
            if traced:
                recorder.uninstall()
        _, wall, slow = settle(items, outcomes, tally, index < min_chunks, traced)
        if traced:
            traced_wall.append(wall)
            traced_slowness.append(slow)
            traced_items += len(items)
        else:
            plain_wall.append(wall)
        index += 1
        if len(plain_wall) == TRACED_CHUNKS[stream.workload]:
            break
        items = stream.chunk(index)
        prepare(items)
    layers, table = layer_metrics(recorder, tally, traced_items, traced_wall, plain_wall,
                                  statistics.fmean(traced_slowness))
    layers.update(probe_metrics(stream, tally))
    return {"chunks": index, "layers": layers, "absent": recorder.absent, "table": table}


def probe_metrics(stream, tally):
    """Figures of the known seed defects that the timed items keep out of
    (see workloads.py), measured untraced after the traced chunks."""
    m = {"planner.stuck_share": 0.0, "oracle.probe_disagreements": 0}
    if stream.workload == "plan-random":
        m["planner.stuck_share"] = stuck_share(stream, tally)
    elif stream.workload == "oracle-certify":
        items = stream.oracle_probe()
        prepare(items)
        m["oracle.probe_disagreements"] = sum(run_item(item)[0] == 1 for item in items)
    return m


def stuck_share(stream, tally):
    """Share of the stuck probe's graphs on which the planner raises
    PlannerStuckError, run untraced after the traced chunks.  Probe items
    are not workload items: only a wrong answer among them is tallied."""
    probe = Tally()
    for item in stream.stuck_probe():
        code, text, extra = run_item(item)
        probe.add(item, code, text, extra, 0.0, False, False)
    tally.wrong += probe.wrong
    if probe.wrong:
        tally.problems += probe.problems
    return (probe.failed - probe.wrong) / probe.attempted


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
