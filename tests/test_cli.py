"""Command-line interface: formats, determinism, round-trips, exit codes."""

import io
import json
import pathlib

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import nvalued
from nvalued import NonIntegralResultError
from nvalued.cli import (
    MODEL_ERRORS,
    DocumentError,
    build_report,
    build_system,
    load_graph_document,
    load_map_document,
    main,
)

TORUS3_DOC = {
    "kind": "custom",
    "n": 3,
    "q": 2,
    "factors": [
        {"linear": [["1/2", "0"], ["0", "-1"]], "offset": ["0", "0"]},
        {"linear": [["1/2", "0"], ["0", "-1"]], "offset": ["1/2", "0"]},
        {"linear": [["-1", "0"], ["0", "-1"]], "offset": ["0", "1/2"]},
    ],
}


# torus3 with every offset moved by (1/5, 1/7): denominators 2, 5, 7, 10
# and 14 in one document
TORUS3_SHIFTED_DOC = {
    "kind": "custom",
    "n": 3,
    "q": 2,
    "factors": [
        {"linear": [["1/2", "0"], ["0", "-1"]], "offset": ["1/5", "1/7"]},
        {"linear": [["1/2", "0"], ["0", "-1"]], "offset": ["7/10", "1/7"]},
        {"linear": [["-1", "0"], ["0", "-1"]], "offset": ["1/5", "9/14"]},
    ],
}


# a custom factor's linear part or offset, or a split part's b, that is
# not a list
NOT_A_LIST_DOCS = [
    {"kind": "custom", "n": 1, "q": 1, "factors": [{"linear": 5, "offset": ["0"]}]},
    {"kind": "custom", "n": 1, "q": 1, "factors": [{"linear": [["1"]], "offset": 7}]},
    {"kind": "split", "parts": [{"A": [[2]], "b": 5}]},
]


# small values for the fuzzed documents: well-formed entries are small
# integers or rationals, junk is any JSON value
SMALL = st.integers(-4, 4)
ENTRY = st.one_of(SMALL, st.sampled_from(["1/2", "-2/3", "1/3", "3/4"]))
JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), SMALL, st.floats(allow_nan=False, width=16),
              st.sampled_from(["", "x", "1/0", "2.5", "1/2"])),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(["kind", "n", "A"]), inner,
                                            max_size=2)),
    max_leaves=4,
)


def run_cli(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


@pytest.fixture
def torus3_path(tmp_path):
    path = tmp_path / "torus3.map"
    path.write_text(json.dumps(TORUS3_DOC))
    return str(path)


class TestDocuments:
    def test_custom_round_trip(self, torus3_path):
        kind, sys = load_map_document(torus3_path)
        assert kind == "custom"
        assert sys.n == 3 and sys.q == 2

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_system({"kind": "fancy"})

    def test_unknown_field_rejected(self):
        doc = dict(TORUS3_DOC)
        doc["extra"] = 1
        with pytest.raises(ValueError):
            build_system(doc)

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError):
            build_system({"kind": "circle", "n": 2})

    def test_factor_count_enforced(self):
        doc = dict(TORUS3_DOC)
        doc["factors"] = doc["factors"][:2]
        with pytest.raises(ValueError):
            build_system(doc)

    def test_graph_document(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text(
            "# a star\nedge hub a\nedge hub b\nedge hub c\n"
            "token 1 a\ntoken 2 b\ngoal 1 b\ngoal 2 a\n"
        )
        graph, goals = load_graph_document(str(path))
        assert graph.n_tokens == 2
        assert goals == {1: "b", 2: "a"}

    def test_graph_document_errors(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("edge a b\ntoken 1 a\n")
        with pytest.raises(ValueError):
            load_graph_document(str(path))  # goals missing
        path.write_text("vertex a\n")
        with pytest.raises(ValueError):
            load_graph_document(str(path))  # unknown directive
        path.write_text("edge a b\ntoken x a\ngoal x b\n")
        with pytest.raises(DocumentError, match=r"bad\.graph:2: token id 'x'"):
            load_graph_document(str(path))  # token id not an integer


class TestAnalyze:
    def test_torus3_text(self, torus3_path):
        code, text = run_cli(["analyze", torus3_path])
        assert code == 0
        assert "Reidemeister number R = 6" in text
        assert "Nielsen number N = 6" in text
        for point in ["(0, 0)", "(0, 1/2)", "(0, 1/4)", "(0, 3/4)", "(1/2, 1/4)", "(1/2, 3/4)"]:
            assert f"point {point}" in text

    def test_torus3_structured_round_trip(self, torus3_path):
        code, text = run_cli(["analyze", torus3_path, "--format", "structured"])
        assert code == 0
        doc = json.loads(text)
        assert doc["reidemeister"] == 6
        assert doc["nielsen"] == 6
        assert doc["index_uniformity"] is True
        assert [c["count"] for c in doc["sigma_classes"]] == [2, 4]
        points = sorted(tuple(c["point"]) for c in doc["fixed_point_classes"])
        assert points == sorted(
            [
                ("0", "0"),
                ("0", "1/2"),
                ("0", "1/4"),
                ("0", "3/4"),
                ("1/2", "1/4"),
                ("1/2", "3/4"),
            ]
        )

    def test_byte_identical_runs(self, torus3_path):
        _, first = run_cli(["analyze", torus3_path, "--format", "structured"])
        _, second = run_cli(["analyze", torus3_path, "--format", "structured"])
        assert first == second


class TestInlineCommands:
    def test_circle_r_one(self):
        code, text = run_cli(["circle", "--n", "2", "--d", "1"])
        assert code == 0
        assert "Reidemeister number R = 1" in text

    def test_circle_infinite(self):
        code, text = run_cli(["circle", "--n", "3", "--d", "3"])
        assert code == 0
        assert "Reidemeister number R = infinite" in text

    def test_circle_infinite_structured(self):
        code, text = run_cli(["circle", "--n", "3", "--d", "3", "--format", "structured"])
        doc = json.loads(text)
        assert doc["reidemeister"] == "infinite"
        assert "nielsen" not in doc
        assert "fixed_point_classes" not in doc

    def test_linear(self):
        code, text = run_cli(["linear", "--n", "3", "--matrix", "1 1; 1 1"])
        assert code == 0
        assert "Reidemeister number R = 1" in text
        assert "Nielsen number N = 1" in text

    def test_split(self):
        code, text = run_cli(["split", "--parts", "2 | 0; 2 | 1/2"])
        assert code == 0
        assert "Reidemeister number R = 2" in text

    def test_split_collision_exit_one(self):
        code, _ = run_cli(["split", "--parts", "2 | 0; 3 | 1/2"])
        assert code == 1

    def test_linear_bad_rows_exit_one(self):
        code, _ = run_cli(["linear", "--n", "2", "--matrix", "1 0; 0 1"])
        assert code == 1

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as err:
            main(["bogus"])
        assert err.value.code == 2


MAPS = pathlib.Path(__file__).parent.parent / "maps"


class TestOneReportPath:
    """The flag commands and the map documents go through one report path."""

    PAIRS = [
        (["circle", "--n", "3", "--d", "-400"], {"kind": "circle", "n": 3, "d": -400}),
        (["linear", "--n", "3", "--matrix", "1 1; 1 1"], MAPS / "linear_3x2.map"),
        (["split", "--parts", "2 | 0; 2 | 1/2"], MAPS / "split_2.map"),
    ]

    @staticmethod
    def _spec(tmp_path, doc):
        if isinstance(doc, pathlib.Path):
            return str(doc)
        path = tmp_path / "spec.map"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("argv, doc", PAIRS, ids=["circle", "linear", "split"])
    def test_flags_and_document_agree(self, tmp_path, argv, doc, fmt):
        spec = self._spec(tmp_path, doc)
        flag_code, flag_out = run_cli([*argv, "--format", fmt])
        doc_code, doc_out = run_cli(["analyze", spec, "--format", fmt])
        assert flag_code == doc_code == 0
        assert flag_out == doc_out

    def test_collision_error_agrees(self, capsys, tmp_path):
        spec = self._spec(tmp_path, {"kind": "split", "parts": [
            {"A": [[2]], "b": ["0"]}, {"A": [[3]], "b": ["1/2"]}]})
        errors = []
        for argv in (["split", "--parts", "2 | 0; 3 | 1/2"], ["analyze", spec]):
            code, out = run_cli(argv)
            err = capsys.readouterr().err.splitlines()
            assert (code, out) == (1, "")
            assert len(err) == 1 and err[0].startswith("nvalued: error:"), err
            errors.append(err[0])
        assert errors[0] == errors[1]

    def test_model_errors_cover_every_library_error(self):
        exported = [getattr(nvalued, name) for name in nvalued.__all__]
        errors = [e for e in exported if isinstance(e, type) and issubclass(e, Exception)]
        assert len(errors) > 10
        # NonIntegralResultError guards the engine's own arithmetic: a bug,
        # not bad input, so it keeps its traceback
        for error in [*errors, DocumentError]:
            if error is not NonIntegralResultError:
                assert issubclass(error, MODEL_ERRORS), error
        for entry in MODEL_ERRORS:
            assert not any(entry is not other and issubclass(entry, other)
                           for other in MODEL_ERRORS), entry


class TestOracleCommand:
    def test_verdict(self, torus3_path):
        code, text = run_cli(
            ["oracle-check", torus3_path, "--box", "6", "--word", "6", "--format", "structured"]
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["oracle"] == {"box_bound": 6, "word_bound": 6, "verdict": True}


class TestPlanCommand:
    def test_schedule_lines(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text(
            "edge hub a\nedge hub b\nedge hub c\n"
            "token 1 a\ntoken 2 b\ngoal 1 b\ngoal 2 a\n"
        )
        code, text = run_cli(["plan", str(path)])
        assert code == 0
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert all(len(l.split()) == 3 for l in lines)

    def test_structured_plan(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text(
            "edge hub a\nedge hub b\nedge hub c\n"
            "token 1 a\ntoken 2 b\ngoal 1 b\ngoal 2 a\n"
        )
        code, text = run_cli(["plan", str(path), "--format", "structured"])
        assert code == 0
        doc = json.loads(text)
        assert doc["final"] == {"1": "b", "2": "a"}
        assert doc["length"] == len(doc["moves"])

    def test_many_tokens_on_a_small_tree(self, tmp_path):
        # six tokens on seven vertices, where lane bookkeeping once wedged
        path = tmp_path / "g.graph"
        path.write_text(
            "edge 0 1\nedge 0 6\nedge 1 2\nedge 2 3\nedge 2 4\nedge 4 5\n"
            "token 1 3\ntoken 2 5\ntoken 3 6\ntoken 4 0\ntoken 5 2\ntoken 6 4\n"
            "goal 1 4\ngoal 2 0\ngoal 3 5\ngoal 4 1\ngoal 5 2\ngoal 6 6\n"
        )
        code, text = run_cli(["plan", str(path), "--format", "structured"])
        assert code == 0
        doc = json.loads(text)
        assert doc["final"] == {"1": "4", "2": "0", "3": "5", "4": "1", "5": "2", "6": "6"}
        assert doc["length"] == len(doc["moves"]) <= doc["bound"]

    def test_path_graph_exit_one(self, tmp_path):
        path = tmp_path / "p.graph"
        path.write_text("edge a b\nedge b c\ntoken 1 a\ngoal 1 c\n")
        code, _ = run_cli(["plan", str(path)])
        assert code == 1


class TestReportShape:
    def test_report_round_trips_values(self):
        from nvalued.liftsystems import make_circle

        doc = build_report("circle", make_circle(4, -3))
        blob = json.dumps(doc, sort_keys=True)
        parsed = json.loads(blob)
        assert parsed == json.loads(json.dumps(parsed, sort_keys=True))
        assert parsed["reidemeister"] == 7


class TestGoldenFiles:
    GOLDEN = {
        "circle_2_1.json": ["circle", "--n", "2", "--d", "1", "--format", "structured"],
        "circle_3_3.json": ["circle", "--n", "3", "--d", "3", "--format", "structured"],
        "split_2.json": ["split", "--parts", "2 | 0; 2 | 1/2", "--format", "structured"],
        # R = 403 in one sigma-class, and R = 300 over two sigma-classes whose
        # HNF diagonal (10, 15) steps both axes: these pin the listing order
        # and the lowest-terms formatting over denominators up to 403
        "circle_3_m400.json": ["circle", "--n", "3", "--d", "-400", "--format", "structured"],
        "circle_3_m400.txt": ["circle", "--n", "3", "--d", "-400"],
        "linear_2_r300.json": ["linear", "--n", "2", "--matrix=-18 -20; -8 24",
                               "--format", "structured"],
        "linear_2_r300.txt": ["linear", "--n", "2", "--matrix=-18 -20; -8 24"],
        # maps/linear_3x2.map
        "linear_3x2.txt": ["linear", "--n", "3", "--matrix", "1 1; 1 1"],
    }

    def test_frozen_outputs(self):
        golden_dir = pathlib.Path(__file__).parent / "golden"
        for name, argv in self.GOLDEN.items():
            code, text = run_cli(argv)
            assert code == 0
            assert text == (golden_dir / name).read_text(), name

    def test_torus3_golden(self, torus3_path):
        golden = pathlib.Path(__file__).parent / "golden" / "torus3.json"
        code, text = run_cli(["analyze", torus3_path, "--format", "structured"])
        assert code == 0
        assert text == golden.read_text()

    def test_mixed_denominator_golden(self, tmp_path):
        path = tmp_path / "torus3_shifted.map"
        path.write_text(json.dumps(TORUS3_SHIFTED_DOC))
        golden = pathlib.Path(__file__).parent / "golden" / "torus3_shifted.json"
        code, text = run_cli(["analyze", str(path), "--format", "structured"])
        assert code == 0
        assert text == golden.read_text()


class TestBoundaryErrors:
    """Bad inputs exit 1 with one error line instead of a traceback."""

    @staticmethod
    def _one_error(capsys, args):
        code, _ = run_cli(args)
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("nvalued: error:"), err

    def test_linear_n_zero(self, capsys):
        self._one_error(capsys, ["linear", "--n", "0", "--matrix", "1"])

    def test_non_integer_field(self, capsys, tmp_path):
        path = tmp_path / "circle.map"
        path.write_text(json.dumps({"kind": "circle", "n": 2.7, "d": 1}))
        self._one_error(capsys, ["analyze", str(path)])

    def test_split_part_not_an_object(self, capsys, tmp_path):
        path = tmp_path / "split.map"
        path.write_text(json.dumps({"kind": "split", "parts": [{"A": [[2]], "b": ["0"]}, 5]}))
        self._one_error(capsys, ["analyze", str(path)])

    @pytest.mark.parametrize("doc", NOT_A_LIST_DOCS, ids=["linear", "offset", "b"])
    def test_field_not_a_list(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.map"
        path.write_text(json.dumps(doc))
        self._one_error(capsys, ["analyze", str(path)])

    def test_zero_dimensional_torus(self, capsys, tmp_path):
        path = tmp_path / "q0.map"
        path.write_text(json.dumps({"kind": "split", "parts": [{"A": [], "b": []}]}))
        self._one_error(capsys, ["analyze", str(path)])

    @pytest.mark.parametrize("parts", ["1 | 1/0", "1 | 0/0"])
    def test_split_offset_zero_denominator(self, capsys, parts):
        self._one_error(capsys, ["split", "--parts", parts])

    def test_oracle_sweep_beyond_int64(self, capsys, tmp_path):
        # R = 1, but psi(e_2) translates by 10**18: the word box of bound 5
        # would leave the int64 range of the oracle's array sweep
        path = tmp_path / "wide.map"
        path.write_text(json.dumps({"kind": "linear", "n": 1, "A": [[2, 10**18], [0, 2]]}))
        self._one_error(capsys, ["oracle-check", str(path), "--box", "2", "--word", "5"])

    @pytest.mark.parametrize("command", ["analyze", "oracle-check"])
    def test_huge_finite_r(self, capsys, tmp_path, command):
        # R = 17999999999999999994 is finite, but far too many classes to list
        path = tmp_path / "huge.map"
        path.write_text(json.dumps({"kind": "linear", "n": 1, "A": [[3 * 10**18, 0], [0, 7]]}))
        self._one_error(capsys, [command, str(path)])

    def test_deeply_nested_document(self, capsys, tmp_path):
        path = tmp_path / "deep.map"
        path.write_text("[" * 100000 + "]" * 100000)
        self._one_error(capsys, ["analyze", str(path)])

    @pytest.mark.parametrize("d", ["1e999999999", "1e-999999999"])
    def test_huge_exponent_literal(self, tmp_path, d):
        # Fraction(d) alone would build 10**999999999 and not return: run in
        # a process of its own, so that a hang fails the test at the timeout
        import os
        import subprocess
        import sys

        path = tmp_path / "exponent.map"
        path.write_text(json.dumps({"kind": "circle", "n": 3, "d": d}))
        src = pathlib.Path(__file__).parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-m", "nvalued.cli", "analyze", str(path)],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=20,
        )
        assert result.returncode == 1
        err = result.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("nvalued: error:"), err

    def test_linear_non_integer_matrix_entry(self, capsys):
        code, _ = run_cli(["linear", "--n", "2", "--matrix", "1/2"])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert err == ["nvalued: error: matrix entry must be an integer, got '1/2'"]


class TestBoundedMemory:
    """Large n under a 400 MB address-space cap, each run in a process of
    its own: n = 10^4 is analyzed, and an n above LISTING_LIMIT exits 1
    with one error line before any factor is built."""

    @staticmethod
    def _run_capped(argv):
        import os
        import subprocess
        import sys

        resource = pytest.importorskip("resource")
        cap = 400 * 2**20

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        src = pathlib.Path(__file__).parents[1] / "src"
        return subprocess.run(
            [sys.executable, "-m", "nvalued.cli", *argv],
            env={**os.environ, "PYTHONPATH": str(src)}, preexec_fn=limit,
            capture_output=True, text=True, timeout=120,
        )

    def test_circle_n_1e4(self, tmp_path):
        path = tmp_path / "circle.map"
        path.write_text(json.dumps({"kind": "circle", "n": "1e4", "d": 1}))
        result = self._run_capped(["analyze", str(path), "--format", "structured"])
        assert result.returncode == 0, result.stderr[-2000:]
        assert json.loads(result.stdout)["nielsen"] == 9999

    @pytest.mark.parametrize("argv", [
        ["circle", "--n", "1000001", "--d", "1"],
        ["linear", "--n", "1000001", "--matrix", "1"],
        {"kind": "circle", "n": "1e7", "d": 1},
        {"kind": "linear", "n": "1e7", "A": [[1]]},
    ], ids=["circle", "linear", "circle-document", "linear-document"])
    def test_n_above_listing_limit(self, tmp_path, argv):
        if isinstance(argv, dict):
            path = tmp_path / "huge_n.map"
            path.write_text(json.dumps(argv))
            argv = ["analyze", str(path)]
        result = self._run_capped(argv)
        assert result.returncode == 1
        err = result.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("nvalued: error:"), err[-5:]


def count_calls(monkeypatch, original):
    """Replace every ``nvalued`` binding of ``original`` by a counting
    wrapper; returns the list that gets one entry per call."""
    import sys

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # every module that imported the function holds its own binding
    for name, module in list(sys.modules.items()):
        if name == "nvalued" or name.startswith("nvalued."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


class TestSinglePass:
    def test_one_reidemeister_report_per_command(self, monkeypatch, torus3_path):
        from nvalued import reidemeister

        calls = count_calls(monkeypatch, reidemeister.reidemeister_number)
        oracle = ["oracle-check", torus3_path, "--box", "4", "--word", "4"]
        for argv in (["analyze", torus3_path], oracle):
            calls.clear()
            code, _ = run_cli(argv)
            assert code == 0
            assert len(calls) == 1, argv

    def test_one_adjugate_per_sigma_class(self, monkeypatch, torus3_path):
        from nvalued import intlinalg

        calls = count_calls(monkeypatch, intlinalg.adjugate)
        # torus3 has two sigma-classes and six fixed point classes
        code, _ = run_cli(["analyze", torus3_path])
        assert code == 0
        assert len(calls) == 2

    def test_analyze_imports_no_numpy(self):
        import os
        import pathlib
        import subprocess
        import sys

        src = pathlib.Path(__file__).parents[1] / "src"
        script = (
            "import io, sys\n"
            "from nvalued.cli import main\n"
            "assert main(['circle', '--n', '3', '--d', '-400'], out=io.StringIO()) == 0\n"
            "sys.exit('numpy' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run([sys.executable, "-c", script], env=env, timeout=60)
        assert result.returncode == 0

    def test_one_validation_per_command(self, monkeypatch, tmp_path, torus3_path):
        from nvalued import liftsystems

        calls = count_calls(monkeypatch, liftsystems.validate)
        linear = tmp_path / "linear.map"
        linear.write_text(json.dumps({"kind": "linear", "n": 3, "A": [[1, 1], [1, 1]]}))
        commands = [
            ["analyze", torus3_path],
            ["analyze", str(linear)],
            ["circle", "--n", "4", "--d", "-3"],
            ["linear", "--n", "3", "--matrix", "1 1; 1 1"],
            ["split", "--parts", "2 | 0; 2 | 1/2"],
            ["oracle-check", torus3_path, "--box", "4", "--word", "4"],
            ["oracle-check", str(linear), "--box", "4", "--word", "4"],
        ]
        for argv in commands:
            calls.clear()
            code, _ = run_cli(argv)
            assert code == 0
            assert len(calls) == 1, argv

    def test_report_of_validated_system_evaluates_no_psi(self, monkeypatch):
        from nvalued import liftsystems, reidemeister
        from nvalued.liftsystems import make_circle, make_linear
        from nvalued.semidirect import SemidirectElement

        systems = [build_system(TORUS3_DOC)[1], make_circle(4, -3),
                   make_linear(3, [[1, 1], [1, 1]])]
        for sys in systems:
            sys.psi
        psi_calls = count_calls(monkeypatch, liftsystems.psi_of)
        compose_calls = []
        compose = SemidirectElement.compose

        def counted(self, other):
            compose_calls.append(1)
            return compose(self, other)

        monkeypatch.setattr(SemidirectElement, "compose", counted)
        for sys in systems:
            reidemeister.reidemeister_number(sys)
        assert psi_calls == [] and compose_calls == []

    def test_equal_linear_parts_need_no_elimination(self, monkeypatch):
        from nvalued import intlinalg
        from nvalued.liftsystems import make_circle

        calls = count_calls(monkeypatch, intlinalg.left_kernel)
        make_circle(60, 7)
        assert calls == []

    def test_determinants_per_sigma_class_and_linear_part(self, monkeypatch):
        from nvalued import intlinalg, reidemeister
        from nvalued.liftsystems import make_circle

        systems = [make_circle(60, 7), build_system(TORUS3_DOC)[1]]
        bounds = [
            len(reidemeister.reidemeister_number(sys).sigma.classes)
            + len({f.linear for f in sys.factors})
            for sys in systems
        ]
        # each adjugate and each member's own determinant is one elimination
        eliminations = count_calls(monkeypatch, intlinalg.eliminate)
        for sys, bound in zip(systems, bounds):
            eliminations.clear()
            build_report("custom", sys)
            assert 0 < len(eliminations) <= bound


@st.composite
def well_formed_documents(draw):
    """A map document of any kind with fields of the right shapes and
    sizes n <= 4, q <= 2; its values may still describe an invalid map."""
    q = draw(st.integers(1, 2))
    matrix = st.lists(st.lists(ENTRY, min_size=q, max_size=q), min_size=q, max_size=q)
    vector = st.lists(ENTRY, min_size=q, max_size=q)
    kind = draw(st.sampled_from(["circle", "linear", "split", "custom"]))
    if kind == "circle":
        return {"kind": kind, "n": draw(st.integers(1, 4)), "d": draw(SMALL)}
    if kind == "linear":
        return {"kind": kind, "n": draw(st.integers(1, 4)), "A": draw(matrix)}
    if kind == "split":
        parts = draw(st.lists(st.fixed_dictionaries({"A": matrix, "b": vector}),
                              min_size=1, max_size=3))
        return {"kind": kind, "parts": parts}
    factors = draw(st.lists(st.fixed_dictionaries({"linear": matrix, "offset": vector}),
                            min_size=1, max_size=3))
    return {"kind": kind, "n": len(factors), "q": q, "factors": factors}


def _break(draw, doc):
    """Replace, drop or add one field somewhere in ``doc``."""
    holders = [doc] + [d for key in ("parts", "factors") for d in doc.get(key, [])]
    holder = draw(st.sampled_from(holders))
    action = draw(st.sampled_from(["replace", "drop", "add"]))
    key = draw(st.sampled_from(sorted(holder)))
    if action == "replace":
        holder[key] = draw(JUNK)
    elif action == "drop":
        del holder[key]
    else:
        holder["extra"] = draw(JUNK)
    return doc


@st.composite
def map_documents(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(JUNK)
    doc = draw(well_formed_documents())
    return _break(draw, doc) if draw(st.booleans()) else doc


def assert_clean_exit(capsys, argv):
    """``main(argv)`` exits 0, 1 or 2 with at most one line on stderr and
    no traceback."""
    capsys.readouterr()
    try:
        code, _ = run_cli(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert len(err.splitlines()) <= 1, err


class TestFuzzBoundary:
    """``main`` on small random map documents, well formed or broken, exits
    0, 1 or 2 with at most one line on stderr, never with a traceback."""

    @example(doc=NOT_A_LIST_DOCS[0], command="analyze")
    @example(doc=NOT_A_LIST_DOCS[1], command="analyze")
    @example(doc=NOT_A_LIST_DOCS[2], command="analyze")
    @given(doc=map_documents(), command=st.sampled_from(["analyze", "oracle-check"]))
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exit_code_and_one_line(self, capsys, tmp_path, doc, command):
        path = tmp_path / "fuzz.map"
        path.write_text(json.dumps(doc))
        argv = [command, str(path)]
        if command == "oracle-check":
            argv += ["--box", "2", "--word", "2"]
        assert_clean_exit(capsys, argv)


# tokens of the inline --matrix and --parts texts, well formed or not
INLINE_TOKENS = st.sampled_from(["0", "1", "-1", "2", "1/2", "-2/3", "1/0", "0/0", "x",
                                 " ", ";", ",", "|"])
SMALL_INT = st.integers(-2, 2).map(str)


@st.composite
def well_formed_matrix(draw, q):
    return "; ".join(" ".join(draw(st.lists(SMALL_INT, min_size=q, max_size=q)))
                     for _ in range(q))


@st.composite
def well_formed_parts(draw):
    """q = 1 branches with one shared matrix, so that some are valid."""
    a = draw(SMALL_INT)
    offsets = draw(st.lists(st.sampled_from(["0", "1/2", "1/3", "2/3", "1/4"]),
                            min_size=1, max_size=3))
    return "; ".join(f"{a} | {b}" for b in offsets)


@st.composite
def inline_text(draw, well_formed):
    """A random token string, or a well-formed text with at most one
    random token spliced in."""
    if draw(st.booleans()):
        return "".join(draw(st.lists(INLINE_TOKENS, max_size=10)))
    text = draw(well_formed)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(INLINE_TOKENS) + text[at:]
    return text


@st.composite
def inline_argv(draw):
    """argv of ``circle``, ``linear`` or ``split`` with small integers n <= 6
    and a random matrix or parts text."""
    command = draw(st.sampled_from(["circle", "linear", "split"]))
    n = draw(st.integers(-1, 6))
    if command == "circle":
        return [command, f"--n={n}", f"--d={draw(st.integers(-6, 6))}"]
    if command == "linear":
        matrix = well_formed_matrix(draw(st.integers(1, 2)))
        return [command, f"--n={n}", f"--matrix={draw(inline_text(matrix))}"]
    return [command, f"--parts={draw(inline_text(well_formed_parts()))}"]


JUNK_GRAPH_LINES = st.one_of(
    st.builds("edge {} {}".format, st.sampled_from("abcx"), st.sampled_from("abcx")),
    st.builds("{} {} {}".format, st.sampled_from(["token", "goal"]),
              st.sampled_from(["1", "2", "0", "x"]), st.sampled_from("abcx")),
    st.sampled_from(["", "# comment", "edge a", "token 1", "junk line", "edge a b c"]),
)


@st.composite
def graph_documents(draw):
    """The lines of a connected graph document on 3..7 vertices with tokens
    and a goal placement, sometimes with one line replaced, dropped or
    added."""
    k = draw(st.integers(3, 7))
    names = [f"v{i}" for i in range(k)]
    edges = {(f"v{draw(st.integers(0, i - 1))}", f"v{i}") for i in range(1, k)}
    for _ in range(draw(st.integers(0, 3))):
        u, w = draw(st.permutations(names))[:2]
        edges.add((u, w))
    m = draw(st.integers(1, k - 1))
    starts = draw(st.permutations(names))[:m]
    goals = draw(st.permutations(names))[:m]
    lines = [f"edge {u} {w}" for u, w in sorted(edges)]
    lines += [f"token {t} {v}" for t, v in enumerate(starts, start=1)]
    lines += [f"goal {t} {v}" for t, v in enumerate(goals, start=1)]
    action = draw(st.sampled_from(["keep", "keep", "replace", "drop", "add"]))
    if action != "keep":
        at = draw(st.integers(0, len(lines) - 1))
        if action == "drop":
            del lines[at]
        else:
            lines.insert(at, draw(JUNK_GRAPH_LINES))
            if action == "replace":
                del lines[at + 1]
    return lines


@st.composite
def argv_cases(draw):
    """(argv, None) for an inline command, or (["plan"], lines) for ``plan``
    on the graph document with those lines."""
    if draw(st.booleans()):
        return draw(inline_argv()), None
    return ["plan"], draw(graph_documents())


class TestFuzzArgv:
    """``main`` on random ``circle``, ``linear`` and ``split`` arguments and
    on random small graph documents for ``plan`` exits 0, 1 or 2 with at
    most one line on stderr, never with a traceback."""

    @example(case=(["split", "--parts=1 | 1/0"], None))
    @given(case=argv_cases())
    @settings(max_examples=140, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exit_code_and_one_line(self, capsys, tmp_path, case):
        argv, lines = case
        if lines is not None:
            path = tmp_path / "fuzz.graph"
            path.write_text("\n".join(lines) + "\n")
            argv = argv + [str(path)]
        assert_clean_exit(capsys, argv)
