"""Command-line surface: artifacts, exit codes, estimate arithmetic."""
import io
import json

import pytest

from proofpipe.cli import ExitCode, load_problem, main
from proofpipe.gateway import ScriptedBackend
from proofpipe.prompts import PromptRegistry
from proofpipe.trace import SCHEMA_VERSION, RunTrace

from conftest import rules_clean


@pytest.fixture()
def clean_script(tmp_path):
    from proofpipe.gateway import ScriptRule

    rules = rules_clean() + [
        ScriptRule("judge", None, [{"text": "<decision>A</decision>"}], repeat_last=True)
    ]
    path = tmp_path / "script.json"
    path.write_text(json.dumps(ScriptedBackend(rules).to_dict()), encoding="utf-8")
    return path


@pytest.fixture()
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(
        json.dumps({"id": "demo-1", "statement": "Prove that the sum of two even integers is even."}),
        encoding="utf-8",
    )
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


# Some of the config fields a schema-2 header carried that are constants now.
V2_CONFIG_FIELDS = {"tau": 7, "tau_e": 6, "memory_prompt_cap": 3, "history_char_cap": 4000}


def _as_schema_2(event):
    if event["kind"] == "run_start":
        event["payload"]["schema_version"] = 2
        event["payload"]["config"].update(V2_CONFIG_FIELDS)


def _as_schema_3(event):
    """Schema 3 stored each call's rendered prompt in place of its slots."""
    payload = event["payload"]
    if event["kind"] == "run_start":
        payload["schema_version"] = 3
    if "slots" in payload:
        payload["prompt"] = PromptRegistry.load().render(payload["role"], payload.pop("slots"))


def _as_schema_4(event):
    """Schema 4 stored the budget left in every event and the run mode and
    backend kind in the header."""
    payload = event["payload"]
    event["budget_remaining"] = None
    if event["kind"] == "run_start":
        payload["schema_version"] = 4
        payload["mode"] = "single" if payload["config"]["parallel_runs"] == 1 else "parallel"
        payload["backend"]["kind"] = "scripted"


def _as_schema_5(event):
    """Schema 5 markers held raw cursors, which pass a repeat_last rule's last
    response index as the rule keeps answering."""
    if event["kind"] == "run_start":
        event["payload"]["schema_version"] = 5


def _as_schema_6(event):
    """Schema 6 stored every call text inline, and its digests covered the
    full payload."""
    if event["kind"] == "run_start":
        event["payload"]["schema_version"] = 6


def _as_schema_7(event):
    """Schema 7 stored grade transcripts, the proof texts of verified
    solutions and bisection sides, and what a budget-exhausted run salvaged."""
    if event["kind"] == "run_start":
        event["payload"]["schema_version"] = 7


def _as_schema_8(event):
    """Schema 8 stored only call texts by address, and each line's digest."""
    if event["kind"] == "run_start":
        event["payload"]["schema_version"] = 8


def _as_schema_9(event):
    """Schema 9 recorded a group's solutions, sides and verdicts between its
    leaves' events, and the context digest of each draft and solution."""
    if event["kind"] == "run_start":
        event["payload"]["schema_version"] = 9


def _as_schema_10(event):
    """Schema 10 stored each long text whole, also one that quotes stored
    texts on lines of its own."""
    if event["kind"] == "run_start":
        event["payload"]["schema_version"] = 10


def _as_schema_11(event):
    """Schema 11 referred to each stored text by its address, not its number."""
    if event["kind"] == "run_start":
        event["payload"]["schema_version"] = 11


def _as_schema_12(event):
    """Schema 12 markers held their loop position, id counters, scripted
    cursors and own seq, and its header named the marker a resumed run
    started from."""
    if event["kind"] == "run_start":
        event["payload"]["schema_version"] = 12


def _as_schema_13(event):
    """Schema 13 headers stored the count of runs apart from the config's
    ``parallel_runs``."""
    payload = event["payload"]
    if event["kind"] == "run_start":
        payload["schema_version"] = 13
        payload["runs"] = payload["config"]["parallel_runs"]


def _as_schema_14(event):
    """Schema 14 lines stored each event's seq, and a call that failed in the
    backend left no event of its own: its unit's failure record named it."""
    if event["kind"] == "run_start":
        event["payload"]["schema_version"] = 14


# Turn an event of a current trace (as its JSON dict) into its form under an
# older schema.
OLD_SCHEMAS = {
    2: _as_schema_2,
    3: _as_schema_3,
    4: _as_schema_4,
    5: _as_schema_5,
    6: _as_schema_6,
    7: _as_schema_7,
    8: _as_schema_8,
    9: _as_schema_9,
    10: _as_schema_10,
    11: _as_schema_11,
    12: _as_schema_12,
    13: _as_schema_13,
    14: _as_schema_14,
}


class TestSolve:
    def test_scripted_demo_verifies(self, tmp_path, clean_script, problem_file, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "solve", problem_file, "--script", clean_script, "--out", out, "--parallel-runs", 2
        )
        assert code == ExitCode.VERIFIED
        assert (out / "solution.txt").read_text(encoding="utf-8").startswith("GOOD_PROOF")
        assert (out / "trace.jsonl").exists()
        assert (out / "ledger.json").exists()
        assert not (out / "ledger.csv").exists()  # `cost trace.jsonl --csv` writes it
        assert list((out / "checkpoints").glob("*.json"))  # snapshots persisted
        assert "status: verified" in capsys.readouterr().out

    def test_trace_stores_no_derived_facts(self, tmp_path, clean_script, problem_file):
        """The budget left, the run mode, the count of runs, the backend kind
        and the iteration counters follow from other facts of the trace (the
        count of runs is the config's ``parallel_runs``) and are not stored."""
        out = tmp_path / "out"
        assert run_cli("solve", problem_file, "--script", clean_script, "--out", out) == ExitCode.VERIFIED
        events = [json.loads(line) for line in (out / "trace.jsonl").read_text(encoding="utf-8").splitlines()]
        assert not [e for e in events if "budget_remaining" in e]
        header = events[0]["payload"]
        assert "runs" not in header and header["config"]["parallel_runs"] == 2
        assert "mode" not in header and header["backend"] == {"backend_id": "scripted"}
        markers = [e["payload"]["snapshot"] for e in events if e["kind"] == "checkpoint"]
        assert {m["state"]["run_id"] for m in markers} == {"run1", "run2"}
        assert all(m["state"] == {"run_id": m["state"]["run_id"]} for m in markers)
        for path in (out / "checkpoints").glob("*.json"):
            marker = json.loads(path.read_text(encoding="utf-8"))
            assert marker["state"] == {"run_id": marker["state"]["run_id"]}

    def test_markers_land_where_they_are_committed(self, tmp_path, clean_script, problem_file):
        """Run 2's markers are committed at the join of the two runs: each
        lands there, after run 1's last event, and gets its file, which only
        names its run. A line stores no seq: the loaded event's seq is its
        place in the file."""
        from proofpipe.trace import RunTrace

        out = tmp_path / "out"
        assert run_cli("solve", problem_file, "--script", clean_script, "--out", out) == ExitCode.VERIFIED
        events = [json.loads(line) for line in (out / "trace.jsonl").read_text(encoding="utf-8").splitlines()]
        assert not [e for e in events if "seq" in e]
        loaded = RunTrace.load(out / "trace.jsonl").events
        markers = [(i, e) for i, e in enumerate(events) if e["kind"] == "checkpoint"]
        assert {e["payload"]["snapshot"]["state"]["run_id"] for _, e in markers} == {"run1", "run2"}
        run1_end = max(i for i, e in enumerate(events) if e["run_id"] == "run1")
        for index, event in markers:
            payload = event["payload"]
            assert (loaded[index].seq, loaded[index].kind, loaded[index].payload) == (index, "checkpoint", payload)
            assert payload["snapshot"] == {"state": {"run_id": event["run_id"]}}
            assert payload["checkpoint_id"].startswith(event["run_id"] + ".")
            assert (index > run1_end) == (event["run_id"] == "run2")
            path = out / "checkpoints" / f"{payload['checkpoint_id']}.json"
            assert json.loads(path.read_text(encoding="utf-8")) == payload["snapshot"]

    def test_single_run_has_no_judge_events(self, tmp_path, clean_script, problem_file):
        out = tmp_path / "out"
        code = run_cli(
            "solve", problem_file, "--script", clean_script, "--out", out, "--parallel-runs", 1
        )
        assert code == ExitCode.VERIFIED
        events = [
            json.loads(line)
            for line in (out / "trace.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        assert not [e for e in events if e["kind"] == "judge"]

    def test_two_runs_have_judge_event(self, tmp_path, problem_file):
        rules = rules_clean()
        from proofpipe.gateway import ScriptRule

        rules.append(ScriptRule("judge", None, [{"text": "<decision>A</decision>"}], repeat_last=True))
        script = tmp_path / "script2.json"
        script.write_text(json.dumps(ScriptedBackend(rules).to_dict()), encoding="utf-8")
        out = tmp_path / "out"
        code = run_cli("solve", problem_file, "--script", script, "--out", out, "--parallel-runs", 2)
        assert code == ExitCode.VERIFIED
        events = [
            json.loads(line)
            for line in (out / "trace.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        assert [e for e in events if e["kind"] == "judge"]

    def test_tiny_budget_exits_budget_code(self, tmp_path, clean_script, problem_file):
        out = tmp_path / "out"
        code = run_cli(
            "solve",
            problem_file,
            "--script",
            clean_script,
            "--out",
            out,
            "--parallel-runs",
            1,
            "--token-budget",
            10,
        )
        assert code == ExitCode.BUDGET_EXHAUSTED
        assert (out / "solution.txt").exists()

    def test_missing_script_is_usage_error(self, tmp_path, problem_file, capsys):
        code = run_cli("solve", problem_file, "--out", tmp_path / "o")
        assert code == ExitCode.USAGE
        assert "error" in capsys.readouterr().err

    def test_invalid_config_value_is_usage_error(self, tmp_path, clean_script, problem_file):
        code = run_cli(
            "solve", problem_file, "--script", clean_script, "--out", tmp_path / "o",
            "--token-budget", 0,
        )
        assert code == ExitCode.USAGE

    def test_unpriced_backend_is_usage_error(self, tmp_path, problem_file, monkeypatch, capsys):
        monkeypatch.setenv("PROOFPIPE_TEST_KEY", "k")
        config = tmp_path / "http.ini"
        config.write_text(
            "[backend]\nkind = http\nendpoint = http://localhost:9/v1/chat\nmodel = m\n"
            "api_key_env = PROOFPIPE_TEST_KEY\n",
            encoding="utf-8",
        )
        out = tmp_path / "o"
        code = run_cli("solve", problem_file, "--config", config, "--out", out)
        assert code == ExitCode.USAGE
        assert "no price configured for backend 'http'" in capsys.readouterr().err
        assert not (out / "trace.jsonl").exists()

    def test_a_reply_with_a_lone_surrogate_ends_only_its_unit(self, tmp_path, problem_file, monkeypatch, capsys):
        """A billed reply that UTF-8 cannot encode is read with U+FFFD in place
        of its lone surrogate: the call is metered and recorded with what was
        coerced, and its parse rules end only its unit (here each grade's
        branch, which leaves no solution)."""
        import re
        import urllib.request

        from proofpipe.gateway import PriceTable
        from proofpipe.orchestrator import ledger_from_trace

        billed = []

        def urlopen(request, timeout):
            reply = {"choices": [{"message": {"content": "proof \ud800"}}], "usage": {"prompt_tokens": 9, "completion_tokens": 3}}
            billed.append(12)
            return io.BytesIO(json.dumps(reply).encode("utf-8"))

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        monkeypatch.setenv("PROOFPIPE_TEST_KEY", "k")
        config = tmp_path / "http.ini"
        config.write_text(
            "[backend]\nkind = http\nendpoint = http://localhost:9/v1/chat\nmodel = m\n"
            "api_key_env = PROOFPIPE_TEST_KEY\n[prices]\nhttp = 10, 10\n",
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert run_cli("solve", problem_file, "--config", config, "--out", out) in (0, 1, 3)
        trace = RunTrace.load(out / "trace.jsonl")
        used = int(re.search(r"^tokens used: (\d+) of ", capsys.readouterr().out, re.M).group(1))
        folded = ledger_from_trace(trace, PriceTable.from_config(trace.header["config"]["price_table"]))
        assert used == sum(billed) == folded.total_tokens() > 0
        calls = [event.payload for event in trace.events if "usage" in event.payload]
        assert len(calls) == len(billed)
        assert all(call["response"] == "proof \ufffd" and call["coerced"] == "lone surrogates read as U+FFFD" for call in calls)
        grades = trace.of_kind("grade")
        assert grades and all(event.payload["parse_error"] == "no Final Grade anchor in grader output" for event in grades)
        assert not trace.of_kind("solution")

    def test_missing_config_file_is_usage_error(self, tmp_path, clean_script, problem_file, capsys):
        out = tmp_path / "o"
        code = run_cli(
            "solve", problem_file, "--script", clean_script, "--config", tmp_path / "missing.ini", "--out", out
        )
        assert code == ExitCode.USAGE
        assert "missing.ini" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["solver_widht", "temperature_profile", "tau"])
    def test_unknown_pipeline_key_is_usage_error(self, tmp_path, clean_script, problem_file, capsys, key):
        config = tmp_path / "config.ini"
        config.write_text(f"[pipeline]\nsolver_width = 2\n{key} = 2\n", encoding="utf-8")
        out = tmp_path / "o"
        code = run_cli("solve", problem_file, "--script", clean_script, "--config", config, "--out", out)
        assert code == ExitCode.USAGE
        assert f"unknown [pipeline] key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, line, named",
        [
            ("pipeline", "solver_width = four", "[pipeline] solver_width = 'four' is not an integer"),
            ("pipeline", "strict_budget = maybe", "[pipeline] strict_budget = 'maybe' is not a boolean"),
            ("prices", "scripted = 10", "[prices] scripted = '10' is not two rates"),
            ("prices", "scripted = abc, 10", "[prices] scripted = 'abc, 10' is not two rates"),
            ("pipeline", "retry_attempts = 0", "retry_attempts must be >= 1"),
        ],
        ids=["not_an_integer", "not_a_boolean", "one_rate", "non_numeric_rate", "no_attempts"],
    )
    def test_bad_config_value_names_its_key(self, tmp_path, clean_script, problem_file, capsys, section, line, named):
        config = tmp_path / "config.ini"
        config.write_text(f"[{section}]\n{line}\n", encoding="utf-8")
        out = tmp_path / "o"
        code = run_cli("solve", problem_file, "--script", clean_script, "--config", config, "--out", out)
        assert code == ExitCode.USAGE
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()

    def test_used_out_is_usage_error(self, tmp_path, clean_script, problem_file, capsys):
        out = tmp_path / "out"
        assert run_cli("solve", problem_file, "--script", clean_script, "--out", out) == ExitCode.VERIFIED
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        capsys.readouterr()
        assert run_cli("solve", problem_file, "--script", clean_script, "--out", out) == ExitCode.USAGE
        assert "already holds a run" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before

    def test_malformed_config_file_is_usage_error(self, tmp_path, clean_script, problem_file):
        config = tmp_path / "config.ini"
        config.write_text("solver_width = 2\n", encoding="utf-8")
        code = run_cli("solve", problem_file, "--script", clean_script, "--config", config, "--out", tmp_path / "o")
        assert code == ExitCode.USAGE

    def test_out_naming_a_file_is_usage_error(self, tmp_path, clean_script, problem_file, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory\n", encoding="utf-8")
        code = run_cli("solve", problem_file, "--script", clean_script, "--out", out)
        assert code == ExitCode.USAGE
        assert "error" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == "not a directory\n"

    @pytest.mark.parametrize(
        "fault, message",
        [
            ({"responses": []}, "has no responses"),
            ({"repeat_lst": True}, "unexpected keyword argument 'repeat_lst'"),
            ({"responses": [{"txt": "GOOD_PROOF"}]}, "has a response with neither 'text' nor 'fail'"),
            ({"role": "solvr"}, "script rule has unknown role 'solvr'"),
            ({"match": 5}, "has a 'match' that is not a string or a list of strings"),
            ({"match": ["NO_ISSUES", 5]}, "has a 'match' that is not a string or a list of strings"),
            ({"cursor": -1}, "unexpected keyword argument 'cursor'"),
            ({"cursor": 5}, "unexpected keyword argument 'cursor'"),
            ({"repeat_last": "no"}, "has a 'repeat_last' that is not true or false"),
        ],
        ids=[
            "no_responses",
            "unknown_key",
            "response_without_text",
            "unknown_role",
            "int_match",
            "int_needle",
            "negative_cursor",
            "cursor",
            "string_repeat_last",
        ],
    )
    def test_script_rule_without_responses_is_usage_error(self, tmp_path, problem_file, capsys, fault, message):
        script = tmp_path / "script.json"
        rules = ScriptedBackend(rules_clean()).to_dict()["rules"]
        rules[1].update(fault)
        script.write_text(json.dumps({"rules": rules}), encoding="utf-8")
        out = tmp_path / "o"
        code = run_cli("solve", problem_file, "--script", script, "--out", out)
        assert code == ExitCode.USAGE
        err = capsys.readouterr().err
        assert message in err and "(rule 1 of the script)" in err
        assert not out.exists()

    @pytest.mark.parametrize("script", [[], {"rules": 5}, "rules", {}], ids=["list", "int_rules", "string", "no_rules"])
    def test_a_script_that_is_not_a_table_of_rules_is_usage_error(self, tmp_path, problem_file, capsys, script):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script), encoding="utf-8")
        out = tmp_path / "o"
        assert run_cli("solve", problem_file, "--script", path, "--out", out) == ExitCode.USAGE
        err = capsys.readouterr().err
        assert f"a script is a table whose 'rules' is a list, not {script!r}" in err and "Traceback" not in err, err
        assert not out.exists()

    @pytest.mark.parametrize(
        "fault, message",
        [
            ({"usage": {"input_tokens": -5}}, "whose 'usage' is not a dict of non-negative ints"),
            ({"usage": {"output_tokens": "12"}}, "whose 'usage' is not a dict of non-negative ints"),
            ({"usage": [1, 2]}, "whose 'usage' is not a dict of non-negative ints"),
            ({"text": None}, "whose 'text' is not a string"),
            ({"text": "NO_ISSUES \ud800"}, "surrogates not allowed"),
        ],
        ids=["negative_usage", "string_usage", "list_usage", "null_text", "lone_surrogate_text"],
    )
    def test_bad_scripted_response_is_refused_before_the_solve(self, tmp_path, problem_file, capsys, fault, message):
        """A response the backend could not turn into a reply is refused when
        the script loads, not by an internal error in the middle of a run."""
        script = tmp_path / "script.json"
        rules = ScriptedBackend(rules_clean()).to_dict()["rules"]
        rules[1]["responses"][0].update(fault)
        script.write_text(json.dumps({"rules": rules}), encoding="utf-8")
        out = tmp_path / "o"
        code = run_cli("solve", problem_file, "--script", script, "--out", out)
        assert code == ExitCode.USAGE
        err = capsys.readouterr().err
        assert message in err and "(rule 1 of the script)" in err
        assert not out.exists()

    def test_bug_exits_internal_with_traceback(self, tmp_path, clean_script, problem_file, monkeypatch, capsys):
        from proofpipe.orchestrator import Orchestrator

        def broken(*args, **kwargs):
            raise RuntimeError("an invariant broke")

        monkeypatch.setattr(Orchestrator, "run", broken)
        code = run_cli("solve", problem_file, "--script", clean_script, "--out", tmp_path / "o")
        assert code == ExitCode.INTERNAL == 4
        err = capsys.readouterr().err
        assert "Traceback (most recent call last)" in err
        assert "RuntimeError: an invariant broke" in err


class TestProblemFile:
    def test_text_format(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text(
            "id: sample-2\n"
            "statement:\n"
            "  Show that every planar graph is 4-colorable\n"
            "  when restricted to finite vertex sets.\n"
            "materials:\n"
            "  A hint about Euler's formula.\n",
            encoding="utf-8",
        )
        problem = load_problem(path)
        assert problem.id == "sample-2"
        assert "4-colorable" in problem.statement
        assert "Euler" in problem.additional_materials

    def test_a_lone_surrogate_is_refused(self, tmp_path, clean_script, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"id": "p", "statement": "Prove \ud800."}), encoding="utf-8")
        out = tmp_path / "o"
        assert run_cli("solve", path, "--script", clean_script, "--out", out) == ExitCode.USAGE
        assert "surrogates not allowed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"id": "a", "statement": 5}, "statement"),
            ({"id": "a", "statement": "Prove it.", "additional_materials": 7}, "additional_materials"),
            ({"id": ["a"], "statement": "Prove it."}, "id"),
        ],
    )
    def test_a_field_of_the_wrong_type_is_refused(self, tmp_path, clean_script, capsys, fields, named):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(fields), encoding="utf-8")
        out = tmp_path / "o"
        assert run_cli("solve", path, "--script", clean_script, "--out", out) == ExitCode.USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: problem {named} must be") and "Traceback" not in err
        assert not out.exists()

    def test_missing_statement_rejected(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("id: sample\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_problem(path)


class TestMetricsCommand:
    def test_oracle_fixture_through_cli(self, tmp_path, capsys):
        from test_metrics import FIXTURE_ROWS

        records = tmp_path / "records.csv"
        rows = ["human,predicted"] + [f"{h},{p}" for h, p in FIXTURE_ROWS]
        records.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "m"
        code = run_cli("metrics", records, "--out", out)
        assert code == ExitCode.VERIFIED
        assert (out / "confusion.csv").exists()
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["n"] == 20
        assert report["acc"]["ratio"] == "9/20"
        assert report["mae"]["ratio"] == "19/70"
        assert report["fpr"]["ratio"] == "6/13"
        assert report["fnr"]["ratio"] == "1/7"
        assert report["merged_acc"]["ratio"] == "11/20"

    def test_empty_file_nonzero_exit(self, tmp_path, capsys):
        records = tmp_path / "empty.csv"
        records.write_text("", encoding="utf-8")
        assert run_cli("metrics", records) == ExitCode.USAGE

    def test_out_naming_a_file_is_usage_error(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        records.write_text("human,predicted\n7,7\n", encoding="utf-8")
        out = tmp_path / "taken"
        out.write_text("not a directory\n", encoding="utf-8")
        assert run_cli("metrics", records, "--out", out) == ExitCode.USAGE
        assert "error" in capsys.readouterr().err

    def test_header_only_lists_zero_records(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        records.write_text("human,predicted\n", encoding="utf-8")
        assert run_cli("metrics", records) == ExitCode.USAGE
        assert "zero records" in capsys.readouterr().err


class TestCostCommand:
    def test_estimate_reference_value(self, capsys):
        code = run_cli("cost", "--estimate", 32000, 2, 30, 100, 10)
        assert code == ExitCode.VERIFIED
        assert capsys.readouterr().out.strip() == "$1920"

    def test_ledger_totals(self, tmp_path, clean_script, problem_file, capsys):
        out = tmp_path / "out"
        run_cli("solve", problem_file, "--script", clean_script, "--out", out, "--parallel-runs", 2)
        capsys.readouterr()
        code = run_cli("cost", out / "trace.jsonl", "--csv", tmp_path / "ledger.csv")
        assert code == ExitCode.VERIFIED
        printed = capsys.readouterr().out
        ledger = json.loads((out / "ledger.json").read_text(encoding="utf-8"))
        # combined two-run ledger: one grand total, per-run subtotals
        totals = ledger["totals"]
        assert {"run1", "run2"} <= set(totals["by_run"])
        for run, total in totals["by_run"].items():
            assert f"  {run:<10} {total}" in printed
        assert f"total: ${totals['grand']}" in printed
        csv_lines = (tmp_path / "ledger.csv").read_text(encoding="utf-8").splitlines()
        assert csv_lines[0].startswith("seq,run_id,role,")
        assert len(csv_lines) == 1 + len(ledger["entries"]) + len(totals["by_run"]) + 1
        assert csv_lines[-1] == f"total,,,,,,,{totals['grand']}"

    def test_ledger_json_is_not_a_trace(self, tmp_path, clean_script, problem_file, capsys):
        out = tmp_path / "out"
        run_cli("solve", problem_file, "--script", clean_script, "--out", out, "--parallel-runs", 1)
        capsys.readouterr()
        assert run_cli("cost", out / "ledger.json") == ExitCode.USAGE
        assert "is not a readable trace.jsonl" in capsys.readouterr().err

    def test_cost_from_trace(self, tmp_path, clean_script, problem_file, capsys):
        out = tmp_path / "out"
        run_cli("solve", problem_file, "--script", clean_script, "--out", out, "--parallel-runs", 1)
        capsys.readouterr()
        code = run_cli("cost", out / "trace.jsonl")
        assert code == ExitCode.VERIFIED
        assert "solver" in capsys.readouterr().out

    def test_unwritable_csv_is_usage_error(self, tmp_path, clean_script, problem_file, capsys):
        out = tmp_path / "out"
        run_cli("solve", problem_file, "--script", clean_script, "--out", out, "--parallel-runs", 1)
        capsys.readouterr()
        code = run_cli("cost", out / "trace.jsonl", "--csv", tmp_path / "missing" / "ledger.csv")
        assert code == ExitCode.USAGE
        assert "error" in capsys.readouterr().err

    def test_cost_requires_input(self, capsys):
        assert run_cli("cost") == ExitCode.USAGE


class TestTornTrace:
    """A crash mid-append leaves the last line of trace.jsonl cut short."""

    def _solve(self, tmp_path, problem_file):
        from conftest import rules_all_twos

        script = tmp_path / "twos.json"
        script.write_text(json.dumps(ScriptedBackend(rules_all_twos()).to_dict()), encoding="utf-8")
        out = tmp_path / "out"
        code = run_cli(
            "solve", problem_file, "--script", script, "--out", out, "--parallel-runs", 1,
            "--solver-width", 2, "--conjecture-iterations", 2,
        )
        assert code == ExitCode.BEST_EFFORT
        return out, script

    def test_cost_and_resume_survive_a_torn_last_line(self, tmp_path, problem_file, capsys, registry):
        from proofpipe.core import PipelineConfig
        from proofpipe.gateway import ModelGateway
        from proofpipe.orchestrator import Orchestrator
        from proofpipe.trace import RunTrace

        out, script = self._solve(tmp_path, problem_file)
        trace_path = out / "trace.jsonl"
        data = trace_path.read_bytes()
        last_start = data.rstrip(b"\n").rfind(b"\n") + 1
        trace_path.write_bytes(data[: last_start + (len(data) - last_start) // 2])
        capsys.readouterr()

        assert run_cli("cost", trace_path) == ExitCode.VERIFIED
        total = capsys.readouterr().out.strip().splitlines()[-1]
        ledger = json.loads((out / "ledger.json").read_text(encoding="utf-8"))
        assert total == f"total: ${ledger['totals']['grand']}"

        trace = RunTrace.load(trace_path)
        assert len(trace.events) == data.count(b"\n") - 1
        text = (out / "solution.txt").read_text(encoding="utf-8").strip()
        config = PipelineConfig.from_dict(trace.header["config"])
        assert list(trace.checkpoints)[-1] == "run1.final"
        assert not trace.of_kind("result")  # the torn line was the run's result
        for checkpoint_id in trace.checkpoints:
            gateway = ModelGateway(ScriptedBackend.from_file(script), token_budget=config.token_budget)
            resumed = Orchestrator(gateway, registry, config).resume(trace, checkpoint_id)
            assert resumed.solution.proof_text == text, checkpoint_id
            assert gateway.ledger.to_dict() == ledger, checkpoint_id

    def test_bad_line_before_the_end_still_raises(self, tmp_path, problem_file, capsys):
        from proofpipe.trace import RunTrace

        out, _ = self._solve(tmp_path, problem_file)
        trace_path = out / "trace.jsonl"
        lines = trace_path.read_text(encoding="utf-8").splitlines(keepends=True)
        event = json.loads(lines[3])
        not_an_object = json.dumps({**event, "payload": 5}) + "\n"
        bad = {
            "torn line before the end": lines[:3] + ["{torn\n"] + lines[3:],
            # a complete (newline-terminated) last line is no torn append either
            "complete bad last line": lines + ["{torn\n"],
            "valid JSON, not an event": lines + ["123\n"],
            "payload not an object": lines[:3] + [not_an_object] + lines[4:],
        }
        # An envelope field of another type, on a call event; such a case is the message that names it.
        call = next(i for i, line in enumerate(lines) if '"usage":' in line)
        for field, value, want in (("run_id", 1, "str"), ("kind", 5, "str"), ("phase", "x", "int"), ("phase", 1.0, "int")):
            case = f"line {call + 1}: the event's {field} is not of type {want}: {value!r}"
            bad[case] = lines[:call] + [json.dumps({**json.loads(lines[call]), field: value}) + "\n"] + lines[call + 1:]
        for case, edited in bad.items():
            trace_path.write_text("".join(edited), encoding="utf-8")
            with pytest.raises(ValueError):
                RunTrace.load(trace_path)
            assert run_cli("cost", trace_path) == ExitCode.USAGE, case
            assert run_cli("replay", trace_path) == ExitCode.USAGE, case
            err = capsys.readouterr().err
            assert (case if case.startswith("line ") else "line ") in err and "Traceback" not in err, case

    def test_bad_header_is_usage_error(self, tmp_path, problem_file, capsys):
        """A header whose config or problem is not a valid one, a size of the
        config that is not an int or a switch that is not a bool among them,
        or a script attachment that is not a script, is bad input, not a bug."""
        out, _ = self._solve(tmp_path, problem_file)
        trace_path = out / "trace.jsonl"
        lines = trace_path.read_text(encoding="utf-8").splitlines(keepends=True)
        bad_price = {"scripted": {"input_usd_per_million": "abc", "output_usd_per_million": "10"}}
        # Each case's edits to the header, or to the script attachment for its
        # "script": a dict updates the config; any other value replaces its key.
        cases = [
            ("replay", {"config": {"no_such_setting": 1}}, "no_such_setting"),
            ("replay", {"config": {"retry_attempts": 0}}, "retry_attempts must be >= 1"),
            ("cost", {"config": {"price_table": bad_price}}, "'scripted'"),
            ("cost", {"config": {"price_table": [1]}}, "price table"),
            ("cost", {"config": {"price_table": {"scripted": "10"}}}, "'scripted'"),
            ("cost", {"config": {"price_table": {"scripted": []}}}, "'scripted'"),
            ("cost", {"config": []}, "config is not a table"),
            ("replay", {"config": {"parallel_runs": "1"}}, "parallel_runs must be of type int, not '1'"),
            ("replay", {"config": {"parallel_runs": 0}}, "parallel_runs must be >= 1"),
            ("replay", {"config": {"parallel_runs": None}}, "parallel_runs must be of type int, not None"),
            ("replay", {"config": {"parallel_runs": 1.5}}, "parallel_runs must be of type int, not 1.5"),
            ("replay", {"config": {"solver_width": 1.5}}, "solver_width must be of type int, not 1.5"),
            ("replay", {"config": {"initial_iterations": 1.5}}, "initial_iterations must be of type int, not 1.5"),
            ("replay", {"config": {"retry_attempts": 1.5}}, "retry_attempts must be of type int, not 1.5"),
            ("replay", {"config": {"verify_repeats": 1.5}}, "verify_repeats must be of type int, not 1.5"),
            ("replay", {"config": {"verify_repeats": True}}, "verify_repeats must be of type int, not True"),
            ("replay", {"config": {"strict_budget": 1}}, "strict_budget must be of type bool, not 1"),
            ("replay", {"problem": None}, "a Problem is stored as a dict"),
            ("cost", {"backend": {"backend_id": ["scripted"]}}, "backend is not a table with a backend_id: {'backend_id': ['scripted']}"),
            ("cost", {"backend": []}, "backend is not a table with a backend_id: []"),
            ("cost", {"backend": None}, "backend is not a table with a backend_id: None"),
            ("replay", {"script": "rules"}, "a script is a table whose 'rules' is a list, not 'rules'"),
            ("replay", {"script": {"rules": 5}}, "a script is a table whose 'rules' is a list, not {'rules': 5}"),
        ]
        for command, edits, named in cases:
            header, attachment = (json.loads(line) for line in lines[:2])
            assert attachment["kind"] == "script_attachment"
            for key, value in edits.items():
                payload = attachment["payload"] if key == "script" else header["payload"]
                payload[key] = {**payload[key], **value} if isinstance(value, dict) else value
            edited = [json.dumps(header) + "\n", json.dumps(attachment) + "\n", *lines[2:]]
            trace_path.write_text("".join(edited), encoding="utf-8")
            capsys.readouterr()
            assert run_cli(command, trace_path) == ExitCode.USAGE, (command, edits)
            err = capsys.readouterr().err
            assert named in err and "Traceback" not in err, err

    @pytest.mark.parametrize(
        "usage, named",
        [
            ({"input_tokens": "5", "output_tokens": 1}, "token counts must be ints"),
            ({"input_tokens": 1.5, "output_tokens": 1}, "token counts must be ints"),
            (5, "a Usage is stored as a dict"),
            (None, "a Usage is stored as a dict"),
        ],
    )
    def test_bad_call_usage_is_usage_error(self, tmp_path, problem_file, capsys, usage, named):
        """A call event whose usage is not a dict of int counts is bad input:
        ``cost`` exits 2, where it would otherwise crash or price it."""
        out, _ = self._solve(tmp_path, problem_file)
        trace_path = out / "trace.jsonl"
        lines = trace_path.read_text(encoding="utf-8").splitlines(keepends=True)
        index = next(i for i, line in enumerate(lines) if '"usage":' in line)
        event = json.loads(lines[index])
        event["payload"]["usage"] = usage
        lines[index] = json.dumps(event) + "\n"
        trace_path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("cost", trace_path) == ExitCode.USAGE
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err, err


    @pytest.mark.parametrize("role", [["solver"], None, 5], ids=["list", "null", "number"])
    def test_bad_call_role_is_usage_error(self, tmp_path, problem_file, capsys, role):
        """A call event whose role is not a model role is bad input: ``cost``
        exits 2 and names it, where it would otherwise crash summing by role."""
        out, _ = self._solve(tmp_path, problem_file)
        trace_path = out / "trace.jsonl"
        lines = trace_path.read_text(encoding="utf-8").splitlines(keepends=True)
        index = next(i for i, line in enumerate(lines) if '"usage":' in line)
        event = json.loads(lines[index])
        event["payload"]["role"] = role
        lines[index] = json.dumps(event) + "\n"
        trace_path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("cost", trace_path) == ExitCode.USAGE
        err = capsys.readouterr().err
        assert f"a call event's role is not a model role: {role!r}" in err and "Traceback" not in err, err


class TestCallTexts:
    """A trace line refers to each long text by its number, and stores the
    text itself once per trace, keyed by its address."""

    def _solve(self, tmp_path, registry):
        from proofpipe.gateway import ScriptRule
        from proofpipe.orchestrator import Orchestrator
        from proofpipe.trace import RunTrace

        from conftest import make_gateway, rules_well, small_config, well_problem, with_long_replies

        judge = ScriptRule("judge", None, [{"text": "<decision>A</decision>"}], repeat_last=True)
        rules = with_long_replies(rules_well() + [judge])
        config = small_config(initial_iterations=2, parallel_runs=2)
        trace = RunTrace(tmp_path / "trace.jsonl")
        try:
            result = Orchestrator(make_gateway(rules, config), registry, config).run(well_problem(), trace=trace)
        finally:
            trace.close()
        assert result.status == "verified"
        return trace

    def test_each_long_text_is_stored_once_and_read_back_whole(self, tmp_path, registry):
        """A long text without a newline is stored whole, once; one with a
        newline is stored once as its lines, each long line itself once."""
        from collections import Counter

        from proofpipe.core import text_digest
        from proofpipe.trace import PLAIN_KINDS, TEXT_MIN, RunTrace

        def strings(value):
            if isinstance(value, str):
                yield value
            elif isinstance(value, dict):
                for item in value.values():
                    yield from strings(item)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    yield from strings(item)

        trace = self._solve(tmp_path, registry)
        loaded = RunTrace.load(trace.path)
        assert [e.to_dict() for e in loaded.events] == [e.to_dict() for e in trace.events]

        long = {
            (e.kind, text)
            for e in trace.events
            if e.kind not in PLAIN_KINDS
            for text in strings(e.payload)
            if len(text) >= TEXT_MIN
        }
        texts = {text for _, text in long}
        assert len(texts) > 10
        # Texts nested in the script and in state events are stored once too.
        assert {"script_attachment", "solution", "pair_proven", "draft", "grade"} <= {kind for kind, _ in long}
        multiline = {text for text in texts if "\n" in text}
        long_lines = {line for text in multiline for line in text.split("\n") if len(line) >= TEXT_MIN}
        assert multiline and long_lines
        lines = trace.path.read_text(encoding="utf-8").splitlines()
        kept = [line for line in lines if json.loads(line)["kind"] not in PLAIN_KINDS]
        stored = "\n".join(kept)
        for text in (texts - multiline) | long_lines:
            assert stored.count(json.dumps(text, ensure_ascii=False)) == 1, text[:40]
        entries = Counter(address for line in kept for address in json.loads(line).get("texts", {}))
        for text in multiline:
            assert entries[text_digest(text)] == 1, text[:40]

    @staticmethod
    def _stored(records):
        """Each text the trace stores, as (address, text as stored), in the
        order that numbers them."""
        return [item for record in records for item in record.get("texts", {}).items()]

    def test_a_quoted_proof_is_stored_as_its_address(self, tmp_path, registry):
        """The judge's history quotes each attempt on a line of its own; the
        line of a long proof is a reference to that proof, not a second copy."""
        from proofpipe.core import text_digest
        from proofpipe.trace import TEXT_MIN

        trace = self._solve(tmp_path, registry)
        records = [json.loads(line) for line in trace.path.read_text(encoding="utf-8").splitlines()]
        stored = self._stored(records)
        texts = dict(stored)
        numbers = {address: number for number, (address, _) in enumerate(stored)}
        (judge,) = [record for record in records if record["kind"] == "judge"]
        _, materials = stored[judge["payload"]["slots"]["additional_materials"]["$text"]]
        assert isinstance(materials, list)
        proofs = {
            event.payload["proof_text"]
            for event in trace.of_kind("solution")
            if len(event.payload["proof_text"]) >= TEXT_MIN and "\n" not in event.payload["proof_text"]
        }
        assert proofs
        for proof in proofs:
            assert {"$text": numbers[text_digest(proof)]} in materials, proof[:40]
            assert isinstance(texts[text_digest(proof)], str)

    def test_each_reference_is_the_number_of_a_text_stored_before_it(self, tmp_path, registry):
        """A line refers to a stored text by its number, never by its
        address: an address appears only as the key of its text."""
        import re

        def references(value):
            if isinstance(value, dict):
                if value.keys() == {"$text"}:
                    yield value["$text"]
                else:
                    for item in value.values():
                        yield from references(item)
            elif isinstance(value, list):
                for item in value:
                    yield from references(item)

        trace = self._solve(tmp_path, registry)
        count = 0
        seen = 0
        for line in trace.path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            for text in record.get("texts", {}).values():
                for number in references(text):
                    assert type(number) is int and 0 <= number < count, (number, count)
                    seen += 1
                count += 1
            for number in references(record["payload"]):
                assert type(number) is int and 0 <= number < count, (number, count)
                seen += 1
            # Each address in the line is the key of a text that the line stores, once.
            assert sorted(re.findall(r"[0-9a-f]{64}", line)) == sorted(record.get("texts", {}))
        assert count > 10 and seen > count

    def test_a_bad_text_stored_as_lines_is_refused(self, tmp_path, registry, capsys):
        from proofpipe.trace import RunTrace

        trace = self._solve(tmp_path, registry)
        lines = trace.path.read_text(encoding="utf-8").splitlines()
        index, address = next(
            (i, address)
            for i, line in enumerate(lines)
            for address, text in json.loads(line).get("texts", {}).items()
            if isinstance(text, list) and any(isinstance(piece, dict) for piece in text)
        )
        pieces = json.loads(lines[index])["texts"][address]
        at = next(i for i, piece in enumerate(pieces) if isinstance(piece, dict))
        # The text's own number: the texts stored before it are all there is to name.
        own = [a for a, _ in self._stored(json.loads(line) for line in lines[: index + 1])].index(address)
        cases = [
            ("neither a string nor an address", pieces[:at] + [7] + pieces[at + 1 :]),
            ("no text stored for", pieces[:at] + [{"$text": "0" * 64}] + pieces[at + 1 :]),
            ("no text stored for", pieces[:at] + [{"$text": own}] + pieces[at + 1 :]),
            ("no text stored for", pieces[:at] + [{"$text": -1}] + pieces[at + 1 :]),
            ("does not match its address", pieces + [""]),
        ]
        for message, edited in cases:
            record = json.loads(lines[index])
            record["texts"][address] = edited
            trace.path.write_text("\n".join(lines[:index] + [json.dumps(record)] + lines[index + 1 :]) + "\n", encoding="utf-8")
            with pytest.raises(ValueError, match=f"line {index + 1}: .*{message}"):
                RunTrace.load(trace.path)
            capsys.readouterr()
            assert run_cli("cost", trace.path) == ExitCode.USAGE, message
            err = capsys.readouterr().err
            assert f"line {index + 1}" in err and message in err and "Traceback" not in err, err

    def test_a_payload_dict_shaped_like_an_address_reads_back_as_itself(
        self, tmp_path, clean_script, problem_file, capsys
    ):
        """A script is input: its own ``{"$text": ...}`` and ``{"$lit": ...}``
        dicts are stored as literals, never read back as references, also
        one that holds a number or the address of a text the line stores."""
        from proofpipe.core import text_digest
        from proofpipe.trace import TEXT_MIN, RunTrace

        script = json.loads(clean_script.read_text(encoding="utf-8"))
        long = "x" * TEXT_MIN
        script["rules"][0]["responses"][0]["note"] = [
            {"$text": "hand-written"},
            {"$lit": {"$text": long}},
            {"$text": long, "other": 1},
            {"$text": 0},
            {"$text": text_digest(long)},
        ]
        clean_script.write_text(json.dumps(script), encoding="utf-8")
        out = tmp_path / "out"
        code = run_cli("solve", problem_file, "--script", clean_script, "--out", out, "--parallel-runs", 1)
        assert code == ExitCode.VERIFIED
        loaded = RunTrace.load(out / "trace.jsonl")
        assert loaded.of_kind("script_attachment")[0].payload["script"] == script
        capsys.readouterr()
        assert run_cli("replay", out / "trace.jsonl") == ExitCode.VERIFIED
        assert capsys.readouterr().out.strip() == "identical"

    def test_a_schema_8_trace_still_loads_for_cost(self, capsys):
        """A schema-8 line stores its digest and only call texts by address;
        its payload is hashed on load all the same, to the digest the line
        holds. The trace is a single clean run with long replies, as the
        schema-8 writer stored it."""
        from pathlib import Path

        from proofpipe.trace import RunTrace

        path = Path(__file__).parent / "data" / "schema8_trace.jsonl"
        lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert lines[0]["payload"]["schema_version"] == 8
        loaded = RunTrace.load(path)
        assert [e.digest for e in loaded.events] == [line["digest"] for line in lines]
        # Its lines store each seq; the loaded events are numbered by their place, which is that seq.
        assert [e.seq for e in loaded.events] == [line["seq"] for line in lines]
        assert run_cli("cost", path) == ExitCode.VERIFIED
        assert capsys.readouterr().out.strip().splitlines()[-1] == "total: $0.13981"
        assert run_cli("replay", path) == ExitCode.USAGE
        assert f"trace schema 8 is not supported (want {SCHEMA_VERSION})" in capsys.readouterr().err

    @pytest.mark.parametrize("schema", [10, 11], ids=["schema10", "schema11"])
    def test_an_old_trace_still_loads_and_its_digests_did_not_move(self, registry, capsys, schema):
        """A schema-10 line stores each long text whole; a schema-11 line
        stores a text with a newline as its lines; both refer to a text by
        its address. Their events hash to the digests of a fresh solve of
        the same script: how a text is stored or referred to is not part of
        any event's digest. Each trace is two well runs with long replies
        and a judge, as that schema's writer stored it."""
        import re
        from pathlib import Path

        from proofpipe.core import PipelineConfig, Problem
        from proofpipe.gateway import ModelGateway
        from proofpipe.orchestrator import Orchestrator
        from proofpipe.trace import RunTrace, signature

        path = Path(__file__).parent / "data" / f"schema{schema}_trace.jsonl"
        lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert lines[0]["payload"]["schema_version"] == schema
        stored = [text for line in lines for text in line.get("texts", {}).values()]
        if schema == 10:
            assert all(isinstance(text, str) for text in stored)
        else:
            assert any(isinstance(text, list) for text in stored)
        assert re.search(r'\{"\$text":"[0-9a-f]{64}"\}', path.read_text(encoding="utf-8"))
        loaded = RunTrace.load(path)
        header = loaded.header
        # That writer stored the count of runs apart from the config, whose
        # parallel_runs it left at 1.
        assert (header["runs"], header["config"]["parallel_runs"]) == (2, 1)
        config = PipelineConfig.from_dict({**header["config"], "parallel_runs": header["runs"]})
        backend = ScriptedBackend.from_dict(loaded.of_kind("script_attachment")[0].payload["script"])
        gateway = ModelGateway(backend, token_budget=config.token_budget, sleep=lambda _: None)
        fresh = RunTrace()
        Orchestrator(gateway, registry, config).run(Problem.from_dict(header["problem"]), trace=fresh)
        assert loaded.events[0].kind == fresh.events[0].kind == "run_start"

        def comparable(trace):
            # A marker's payload changed in schema 13; its place and envelope did not.
            return [(run, phase, kind, None if kind == "checkpoint" else digest) for run, phase, kind, digest in signature(trace)[1:]]

        assert comparable(loaded) == comparable(fresh)
        assert any(kind == "checkpoint" for _, _, kind, _ in comparable(fresh))
        assert any(e.kind == "judge" for e in loaded.events)
        assert run_cli("cost", path) == ExitCode.VERIFIED
        assert capsys.readouterr().out.strip().splitlines()[-1] == "total: $0.79960"
        assert run_cli("replay", path) == ExitCode.USAGE
        assert f"trace schema {schema} is not supported (want {SCHEMA_VERSION})" in capsys.readouterr().err

    def test_a_text_that_does_not_match_its_address_is_refused(self, tmp_path, registry, capsys):
        trace = self._solve(tmp_path, registry)
        lines = trace.path.read_text(encoding="utf-8").splitlines()
        first = next(i for i, line in enumerate(lines) if "texts" in json.loads(line))
        record = json.loads(lines[first])
        address = next(iter(record["texts"]))

        def with_texts(texts):
            edited = lines[:first] + [json.dumps({**record, "texts": texts})] + lines[first + 1 :]
            trace.path.write_text("\n".join(edited) + "\n", encoding="utf-8")

        cases = {
            "altered text": {**record["texts"], address: record["texts"][address] + " "},
            "address without its text": {a: t for a, t in record["texts"].items() if a != address},
        }
        for case, texts in cases.items():
            with_texts(texts)
            assert run_cli("cost", trace.path) == ExitCode.USAGE, case
            assert run_cli("replay", trace.path) == ExitCode.USAGE, case
            assert f"line {first + 1}" in capsys.readouterr().err, case


class TestReplayCommand:
    def test_identical(self, tmp_path, clean_script, problem_file, capsys):
        out = tmp_path / "out"
        run_cli("solve", problem_file, "--script", clean_script, "--out", out, "--parallel-runs", 1)
        capsys.readouterr()
        code = run_cli("replay", out / "trace.jsonl")
        assert code == ExitCode.VERIFIED
        assert capsys.readouterr().out.strip() == "identical"

    def test_altered_script_reports_divergence(self, tmp_path, clean_script, problem_file, capsys):
        out = tmp_path / "out"
        run_cli("solve", problem_file, "--script", clean_script, "--out", out, "--parallel-runs", 1)
        capsys.readouterr()
        trace_path = out / "trace.jsonl"
        lines = trace_path.read_text(encoding="utf-8").splitlines()
        edited = []
        for line in lines:
            event = json.loads(line)
            if event["kind"] == "script_attachment":
                for rule in event["payload"]["script"]["rules"]:
                    if rule["role"] == "solver":
                        rule["responses"] = [{"text": "DIFFERENT_PROOF"}]
            edited.append(json.dumps(event))
        trace_path.write_text("\n".join(edited) + "\n", encoding="utf-8")
        code = run_cli("replay", trace_path)
        assert code == ExitCode.BEST_EFFORT
        assert "divergence at event" in capsys.readouterr().out

    def test_edited_usage_is_a_divergence(self, tmp_path, clean_script, problem_file, capsys):
        """A line stores no digest, so a payload edited in the file no longer
        replays identical: its digest is taken from what the line holds."""
        out = tmp_path / "out"
        run_cli("solve", problem_file, "--script", clean_script, "--out", out, "--parallel-runs", 1)
        trace_path = out / "trace.jsonl"
        lines = trace_path.read_text(encoding="utf-8").splitlines()
        index = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == "draft")
        event = json.loads(lines[index])
        event["payload"]["usage"]["output_tokens"] += 1000
        lines[index] = json.dumps(event)
        trace_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run_cli("replay", trace_path) == ExitCode.BEST_EFFORT
        printed = capsys.readouterr().out
        assert "identical" not in printed
        assert printed.startswith(f"divergence at event {index - 1}:")  # the script attachment is skipped

    def test_newer_schema_version_refused(self, tmp_path, clean_script, problem_file, capsys):
        out = tmp_path / "out"
        run_cli("solve", problem_file, "--script", clean_script, "--out", out, "--parallel-runs", 1)
        capsys.readouterr()
        trace_path = out / "trace.jsonl"
        lines = trace_path.read_text(encoding="utf-8").splitlines()
        edited = []
        for line in lines:
            event = json.loads(line)
            if event["kind"] == "run_start":
                event["payload"]["schema_version"] = 99
            edited.append(json.dumps(event))
        trace_path.write_text("\n".join(edited) + "\n", encoding="utf-8")
        assert run_cli("replay", trace_path) == ExitCode.USAGE
        assert "schema" in capsys.readouterr().err

    def test_schema_2_trace_refused(self, tmp_path, clean_script, problem_file, capsys):
        for schema, edit in OLD_SCHEMAS.items():
            out = tmp_path / f"out{schema}"
            run_cli("solve", problem_file, "--script", clean_script, "--out", out, "--parallel-runs", 1)
            capsys.readouterr()
            trace_path = out / "trace.jsonl"
            edited = []
            for line in trace_path.read_text(encoding="utf-8").splitlines():
                event = json.loads(line)
                edit(event)
                edited.append(json.dumps(event))
            trace_path.write_text("\n".join(edited) + "\n", encoding="utf-8")
            assert run_cli("replay", trace_path) == ExitCode.USAGE
            assert f"trace schema {schema} is not supported (want {SCHEMA_VERSION})" in capsys.readouterr().err

