"""Self-test of the benchmark (about three minutes).

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
SCRATCH = os.path.join(ROOT, ".perfbench")  # the benchmark writes only in its checkout
COUNT_UNITS = {"count", "calls/item", "solves/class", "calls/cell", "moves/plan"}


def bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tiny_runs_print_every_end_to_end_metric():
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for workload in workloads.WORKLOADS:
        proc = bench(workload, 1, 0)
        result = result_of(proc)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == wanted, workload
        assert all(m["value"] > 0 for m in result["metrics"].values()), workload
        assert result["attempted"] >= 100 and result["correct"], workload
        assert "fail_ratio" in proc.stdout
        assert result["failed"] == 0, proc.stdout


def test_traced_counts_repeat_exactly():
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    first, second = (result_of(bench("analyze-mix", 4, 1))["metrics"] for _ in range(2))
    assert {name: m["unit"] for name, m in first.items()} == wanted
    counts = [name for name, unit in wanted.items()
              if unit in COUNT_UNITS or name == "import.numpy_loaded"]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    assert first["semidirect.compose.calls"]["value"] > 0


def scratch_dir():
    os.makedirs(SCRATCH, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=SCRATCH)


def run_document(tmp, text, suffix, argv, meta):
    """Run one item on a document written to ``tmp``; tally its outcome."""
    path = os.path.join(tmp, "doc" + suffix)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    item = workloads.Item([argv[0], path, *argv[1:]], path, meta)
    code, out, extra = measure.run_item(item)
    tally = measure.Tally()
    tally.add(item, code, out, extra, 0.001, False, False)
    return item, code, out, extra, tally


# hub has four legs; only the three smallest become lanes, so d-e and
# hub-d stay plain edges of the prepared graph
STAR_GRAPH = ("edge hub a\nedge hub b\nedge hub c\nedge hub d\nedge d e\n"
              "token 1 d\ntoken 2 e\ngoal 1 e\ngoal 2 d\n")


def test_planted_wrong_reidemeister_number_is_counted():
    with scratch_dir() as tmp:
        item, code, text, extra, tally = run_document(
            tmp, json.dumps({"kind": "circle", "n": 2, "d": -3}), ".map",
            ["analyze", "--format", "structured"], ("circle", 2, -3))
        assert (tally.attempted, tally.failed, tally.wrong) == (1, 0, 0)
        doc = json.loads(text)
        doc["reidemeister"] += 1
        tally.add(item, code, json.dumps(doc), extra, 0.001, False, False)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)
    assert "R = 6, expected 5" in tally.problems[0]


def test_planted_colliding_move_is_counted():
    with scratch_dir() as tmp:
        item, code, text, extra, tally = run_document(
            tmp, STAR_GRAPH, ".graph", ["plan", "--format", "structured"], ("plan", {1: "e", 2: "d"}))
        assert (tally.failed, tally.wrong) == (0, 0), tally.problems
        doc = json.loads(text)
        doc["moves"].insert(0, [2, "e", "d"])
        doc["length"] += 1
        tally.add(item, code, json.dumps(doc), extra, 0.001, False, False)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)
    assert "collide" in tally.problems[0]


def test_planner_emitting_a_colliding_move_is_counted(monkeypatch):
    # the CLI replays the schedule itself and exits 1 on the collision, so
    # the benchmark's own replay never sees it
    from nvalued import planner

    place_all = planner._Planner._place_all

    def place_all_then_collide(self):
        place_all(self)
        self.moves.insert(0, planner.Move(2, "e", "d"))

    monkeypatch.setattr(planner._Planner, "_place_all", place_all_then_collide)
    with scratch_dir() as tmp:
        _, code, _, _, tally = run_document(
            tmp, STAR_GRAPH, ".graph", ["plan", "--format", "structured"], ("plan", {1: "e", 2: "d"}))
    assert code == 1
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)
    assert "CollisionDetectedError" in tally.problems[0]


def test_planner_refusal_is_failed_but_not_wrong(monkeypatch):
    from nvalued import planner

    def stuck(self):
        raise planner.PlannerStuckError("no lane can accept a token")

    monkeypatch.setattr(planner._Planner, "_place_all", stuck)
    with scratch_dir() as tmp:
        _, code, _, _, tally = run_document(
            tmp, STAR_GRAPH, ".graph", ["plan", "--format", "structured"], ("plan", {1: "e", 2: "d"}))
    assert code == 1
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)


def test_planted_slowdown_survives_normalisation(monkeypatch):
    # running every item twice must about double the normalised chunk time
    with scratch_dir() as tmp:
        stream = workloads.Stream("plan-random", 5, tmp)
        items = stream.chunk(0)
        once = measure.run_item

        def twice(item):
            once(item)
            return once(item)

        walls = {1: [], 2: []}
        measure.run_chunk(items)  # warm-up
        for _ in range(3):
            for factor, runner in ((1, once), (2, twice)):
                monkeypatch.setattr(measure, "run_item", runner)
                walls[factor].append(sum(measure.normalised_latencies(measure.run_chunk(items))))
    ratio = statistics.median(walls[2]) / statistics.median(walls[1])
    assert 1.7 < ratio < 2.3, walls


def test_refuses_to_run_without_the_program():
    with scratch_dir() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("analyze-mix", 1, 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout


def test_stream_is_deterministic_and_never_repeats():
    docs = []
    for _ in range(2):
        with scratch_dir() as tmp:
            stream = workloads.Stream("analyze-mix", 9, tmp)
            texts = []
            for index in range(5):
                for item in stream.chunk(index):
                    with open(item.path, encoding="utf-8") as fh:
                        texts.append(fh.read())
            docs.append(texts)
    assert docs[0] == docs[1]
    assert len(set(docs[0])) == len(docs[0])


def test_plan_stream_and_stuck_probe_keep_their_token_ranges():
    def tokens(items):
        counts = set()
        for item in items:
            with open(item.path, encoding="utf-8") as fh:
                counts.add(sum(line.startswith("token ") for line in fh))
        return counts

    with scratch_dir() as tmp:
        stream = workloads.Stream("plan-random", 3, tmp)
        lo, hi = workloads.PLAN_TOKENS
        assert tokens(stream.chunk(0)) == set(range(lo, hi + 1))
        lo, hi = workloads.STUCK_PROBE_TOKENS
        assert tokens(stream.stuck_probe()) == set(range(lo, hi + 1))


def test_oracle_certify_deals_its_q3_items_from_criterion_5():
    pool = [("linear", n, a) for n, mats in workloads.CRITERION5_Q3.items() for a in mats]
    assert len(pool) == 16
    assert all(0 < checks.expected_invariants(meta)[0] <= 50 for meta in pool)
    with scratch_dir() as tmp:
        stream = workloads.Stream("oracle-certify", 3, tmp)
        q3 = [item.meta for index in range(2) for item in stream.chunk(index)
              if item.meta[0] == "linear" and len(item.meta[2]) == 3]
    assert len(q3) == 8 and all(meta in pool for meta in q3)


def test_checks_use_their_own_arithmetic():
    # linear n = 3 with A = [[1, 1], [1, 1]]: n |det(E - A/3)| = 3 * 1/3 = 1
    assert checks.expected_invariants(("linear", 3, [[1, 1], [1, 1]])) == (1, 1)
    assert checks.expected_invariants(("linear", 2, [[2]])) == ("infinite", None)
    assert checks.expected_invariants(("split", [([[2]], ["0"]), ([[3]], ["1/2"])])) == (3, None)
