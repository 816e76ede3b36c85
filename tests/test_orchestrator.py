"""End-to-end pipeline behavior on scripted scenarios."""
import dataclasses
import re
from collections import Counter

import pytest

from proofpipe.core import Origin, PipelineConfig
from proofpipe.dialectic import EMPTY_CONTEXT, DialecticEngine
from proofpipe.gateway import ROLES, ModelGateway, ScriptedBackend, ScriptRule
from proofpipe.orchestrator import (
    STATUS_BEST_EFFORT,
    STATUS_BUDGET_EXHAUSTED,
    STATUS_VERIFIED,
    Orchestrator,
    RerunError,
    call_ceilings,
    extract_decision,
    replay,
    run_reserve,
    select_kth_top,
    select_top,
)
from proofpipe.trace import SCHEMA_VERSION, RunTrace, TraceEvent, first_divergence, signature

from conftest import (
    BREAKTHROUGH_TEXT,
    PLATEAU_TEXT,
    clean_problem,
    grader_text,
    make_gateway,
    rules_all_twos,
    rules_clean,
    rules_well,
    small_config,
    well_problem,
    with_long_replies,
)
from test_core import sol


def run_pipeline(rules, config, registry, problem=None):
    gateway = make_gateway(rules, config)
    result = Orchestrator(gateway, registry, config).run(problem or clean_problem(), trace=RunTrace(clock=lambda: 0.0))
    return result, gateway


class TestSelectors:
    def test_kth_top_orders_by_comparator(self):
        memory = [sol("A", 7), sol("B", 6), sol("C", 4)]
        ctx = select_kth_top(memory, 2)
        assert ctx.prior_solutions[0].id == "B"

    def test_kth_beyond_pool_is_empty_context(self):
        assert select_kth_top([sol("A", 6)], 3).is_empty()
        assert select_kth_top([], 1).is_empty()

    def test_select_top_of_empty(self):
        assert select_top([], 2) == []

    def test_select_top_dedupes(self):
        memory = [sol("A", 7, text="same"), sol("B", 6, text="same"), sol("C", 4)]
        top = select_top(memory, 2)
        assert [s.id for s in top] == ["A", "C"]


class TestInstantSuccess:
    def test_verifies_in_phase_one(self, registry):
        result, gateway = run_pipeline(rules_clean(), small_config(), registry)
        assert result.status == STATUS_VERIFIED
        assert result.solution.grade.clean_perfect
        trace = result.trace
        assert trace.count("extract") == 0  # no conjecture machinery touched
        phases = [e.payload["phase"] for e in trace.of_kind("phase_start")]
        assert phases == [1]
        assert trace.count("check_grade") == 3

    def test_verified_soundness_three_consecutive_clean_grades(self, registry):
        result, _ = run_pipeline(rules_clean(), small_config(), registry)
        text = result.solution.proof_text
        checks = [
            e
            for e in result.trace.of_kind("check_grade")
            if e.payload["slots"]["solution"] == text
        ]
        assert len(checks) >= 3
        assert all(e.payload["score"] == 7 and e.payload["issue_count"] == 0 for e in checks[-3:])

    def test_phase_one_attempts_reach_memory_and_judge(self, registry):
        config = small_config(parallel_runs=2)
        rules = rules_clean() + [ScriptRule("judge", None, [{"text": "<decision>A</decision>"}], repeat_last=True)]
        result, _ = run_pipeline(rules, config, registry)
        assert result.status == STATUS_VERIFIED
        memory = result.state.solution_memory
        assert [s.id for s in memory] == ["run1.s0000", "run1.s0001"]
        assert all(s.phase == 1 for s in memory)
        judge = result.trace.of_kind("judge")[0].payload
        prompt = registry.render(judge["role"], judge["slots"])
        assert "--- attempt 1 (phase 1, graded 7/7) ---" in prompt


class TestCognitiveWell:
    def test_full_pipeline_escapes(self, registry):
        config = small_config(conjecture_iterations=2)
        result, _ = run_pipeline(rules_well(), config, registry, problem=well_problem())
        assert result.status == STATUS_VERIFIED
        assert result.solution.proof_text == BREAKTHROUGH_TEXT
        # the negative lemma is what unlocked the breakthrough
        lemmas = result.state.lemma_memory
        assert len(lemmas) == 1 and lemmas[0].polarity.value == "negative"

    def test_ablated_pipeline_stays_in_the_well(self, registry):
        config = small_config(conjecture_iterations=0)
        result, _ = run_pipeline(rules_well(), config, registry, problem=well_problem())
        assert result.status == STATUS_BEST_EFFORT
        assert result.solution.grade.score == 6
        assert result.solution.proof_text == PLATEAU_TEXT

    def test_phase_order_regular(self, registry):
        config = small_config(conjecture_iterations=2)
        result, _ = run_pipeline(rules_well(), config, registry, problem=well_problem())
        phases = "".join(str(e.payload["phase"]) for e in result.trace.of_kind("phase_start"))
        assert re.fullmatch(r"1+(23)*4?", phases)

    def test_diversity_one_fresh_solve_per_phase3(self, registry):
        config = small_config(conjecture_iterations=2)
        result, _ = run_pipeline(rules_well(), config, registry, problem=well_problem())
        trace = result.trace
        phase3_iters = [e for e in trace.of_kind("phase_start") if e.payload["phase"] == 3]
        drafts_p3 = [
            e
            for e in trace.of_kind("draft")
            if e.phase == 3 and not e.payload.get("redraft")
        ]
        fresh = [e for e in drafts_p3 if not e.payload["slots"]["additional_materials"]]
        assert len(phase3_iters) >= 1
        assert len(fresh) == len(phase3_iters)


class TestPhaseFour:
    def test_all_twos_ends_via_post_enhancement(self, registry):
        config = small_config(initial_iterations=1, conjecture_iterations=1)
        result, _ = run_pipeline(rules_all_twos(), config, registry)
        assert result.status == STATUS_BEST_EFFORT
        assert result.solution.grade.score == 2
        phases = [e.payload["phase"] for e in result.trace.of_kind("phase_start")]
        assert phases[-1] == 4
        assert result.trace.count("enhance_session") == 2
        # argmax over equal means keeps the incumbent
        result_event = result.trace.of_kind("result")[-1]
        assert result_event.payload["score"] == 2

    def test_phase4_all_perfect_is_verified(self, registry):
        # plateau at 6 during the loop, but independent checks give clean 7s
        rules = [
            ScriptRule("solver", None, [{"text": "LUCKY_PROOF"}], repeat_last=True),
            ScriptRule("processor", None, [{"text": "NO_ISSUES"}], repeat_last=True),
            ScriptRule(
                "grader",
                None,
                [
                    {"text": grader_text(6, issues=(("gap", "Slip"),))},  # grade
                    {"text": grader_text(6, issues=(("gap", "Slip"),))},  # regrade
                    {"text": grader_text(6, issues=(("gap", "Slip"),))},  # grade b2
                    {"text": grader_text(6, issues=(("gap", "Slip"),))},  # regrade b2
                    {"text": grader_text(7)},
                    {"text": grader_text(7)},
                    {"text": grader_text(7)},
                ],
                repeat_last=True,
            ),
        ]
        config = small_config(initial_iterations=1, conjecture_iterations=0)
        result, _ = run_pipeline(rules, config, registry)
        assert result.status == STATUS_VERIFIED
        assert result.trace.count("enhance_session") == 0


class TestFailingGate:
    """The first gated candidate's first check grade is a 6 with a slip."""

    def run(self, registry):
        six = grader_text(6, issues=(("late slip", "Slip"),))
        rules = [
            # branch 0 drafts and refines PROOF_A, branch 1 PROOF_B
            ScriptRule(
                "solver", None, [{"text": "PROOF_A: by induction."}] * 2 + [{"text": "PROOF_B: by counting."}], repeat_last=True
            ),
            ScriptRule("processor", None, [{"text": "NO_ISSUES"}], repeat_last=True),
            # PROOF_A: grade and regrade 7, then the check grades 6, 7, 7
            ScriptRule(
                "grader", "PROOF_A", [{"text": grader_text(7)}] * 2 + [{"text": six}, {"text": grader_text(7)}], repeat_last=True
            ),
            ScriptRule("grader", None, [{"text": grader_text(7)}], repeat_last=True),
        ]
        config = small_config()
        result, gateway = run_pipeline(rules, config, registry)
        return config, result, gateway

    def test_every_grade_is_made_and_the_next_candidate_is_tried(self, registry):
        config, result, gateway = self.run(registry)
        n = config.verify_repeats
        events = [e for e in result.trace.events if e.phase == 1 and e.kind != "phase_start"]
        branch_kinds = ("draft", "censor", "grade", "refine", "regrade", "solution")
        gate = [(e.kind, e.payload.get("solution_id"), e.payload.get("ordinal")) for e in events if e.kind not in branch_kinds]
        assert gate == [
            ("verify_start", "run1.s0000", None),
            *[("check_grade", "run1.s0000", k) for k in range(n)],
            ("verify_failed", "run1.s0000", None),
            ("verify_start", "run1.s0001", None),
            *[("check_grade", "run1.s0001", k) for k in range(n)],
            ("verified", "run1.s0001", None),
        ]
        checks = result.trace.of_kind("check_grade")
        assert [e.payload["score"] for e in checks] == [6, 7, 7, 7, 7, 7]
        assert [e.payload["slots"]["solution"] for e in checks] == ["PROOF_A: by induction."] * n + ["PROOF_B: by counting."] * n
        assert result.status == STATUS_VERIFIED
        assert result.solution.proof_text == "PROOF_B: by counting."

    def test_the_invariants_hold(self, registry):
        config, result, gateway = self.run(registry)
        assert gateway.tokens_consumed == gateway.ledger.total_tokens()
        ceilings = call_ceilings(config, runs=1)
        assert all(n <= ceilings[role] for role, n in Counter(e.role for e in gateway.ledger.entries).items())
        assert replay(result.trace, registry=registry) is None


class TestJudge:
    CASES = [
        ("analysis...\n<decision>A</decision>", "A"),
        ("analysis...\n<decision>B</decision>", "B"),
        ("<decision>A</decision> early, but final call:\n<decision>B</decision>", "B"),
        ("<decision>B</decision>\ntrailing prose\n<decision>A</decision>", "A"),
        ("no tag at all", None),
        ("<decision>C</decision>", None),
        ("<decision>a</decision>", None),  # case-sensitive contract
        ("<decision> A </decision>", None),  # exact format, no padding
        ("<decision>A</decision><decision>A</decision>", "A"),
        ("deep analysis\n\n<decision>B</decision>\n", "B"),
    ]

    def test_decision_corpus(self):
        for text, expected in self.CASES:
            assert extract_decision(text) == expected, text

    def _two_run_rules(self, decision_texts):
        # run1 produces ALPHA (verified), run2 produces ALPHA too; judge scripted
        return rules_clean() + [
            ScriptRule("judge", None, [{"text": t} for t in decision_texts], repeat_last=True)
        ]

    def test_parallel_runs_judge_b(self, registry):
        config = small_config(parallel_runs=2)
        result, _ = run_pipeline(
            self._two_run_rules(["verdict\n<decision>B</decision>"]),
            config,
            registry,
        )
        assert result.state.run_id == "run2"
        judge_events = result.trace.of_kind("judge")
        assert len(judge_events) == 1
        assert judge_events[0].payload["decision"] == "B"

    def test_judge_last_tag_wins_in_pipeline(self, registry):
        config = small_config(parallel_runs=2)
        result, _ = run_pipeline(
            self._two_run_rules(["<decision>B</decision> but on reflection\n<decision>A</decision>"]),
            config,
            registry,
        )
        assert result.state.run_id == "run1"

    def test_missing_tag_reprompts_then_falls_back(self, registry):
        config = small_config(parallel_runs=2)
        result, _ = run_pipeline(
            self._two_run_rules(["no tag here", "still no tag"]),
            config,
            registry,
        )
        trace = result.trace
        assert trace.count("judge") == 2
        assert trace.count("judge_fallback") == 1
        assert result.solution is not None

    def test_budget_exhausted_at_judge_falls_back(self, registry):
        rules = self._two_run_rules(["<decision>B</decision>"])
        config = small_config(parallel_runs=2)
        _, unlimited = run_pipeline(rules, config, registry)
        judge_tokens = sum(e.usage.total for e in unlimited.ledger.entries if e.role == "judge")
        # Exactly enough for both runs: the judge call is the first one refused.
        config = small_config(parallel_runs=2, token_budget=unlimited.tokens_consumed - judge_tokens)
        result, gateway = run_pipeline(self._two_run_rules(["<decision>B</decision>"]), config, registry)
        trace = result.trace
        assert trace.count("judge") == 0
        assert [e.payload["reason"] for e in trace.of_kind("judge_fallback")] == ["token budget exhausted before a decision"]
        assert result.solution is not None
        assert result.state.run_id == "run1"  # equal finals: the comparator keeps the earlier solution
        assert trace.of_kind("result")[-1].run_id == "aggregate"
        assert gateway.ledger.total_tokens() == gateway.tokens_consumed

    @pytest.mark.parametrize("empty, kept", [("A", "run2"), ("B", "run1")])
    def test_a_run_with_no_solution_leaves_the_other(self, registry, empty, kept):
        # Width 1 and no outer iteration: a run whose one draft fails has no
        # solution. Run 1 takes the first two solver replies (draft and
        # refine), run 2 the next. The judge, if asked, would pick the empty run.
        ok = {"text": "GOOD_PROOF: the bound holds by direct induction."}
        solver = [{"fail": True}, ok] if empty == "A" else [ok, ok, {"fail": True}]
        rules = [ScriptRule("solver", None, solver, repeat_last=True), *rules_clean()[1:]]
        rules.append(ScriptRule("judge", None, [{"text": f"<decision>{empty}</decision>"}], repeat_last=True))
        config = small_config(parallel_runs=2, solver_width=1, conjecture_iterations=0, retry_attempts=1)
        result, _ = run_pipeline(rules, config, registry)
        trace = result.trace
        assert trace.count("judge") == 0
        assert [e.payload for e in trace.of_kind("judge_fallback")] == [{"reason": f"run {empty} produced no solution"}]
        assert result.state.run_id == kept
        assert result.status == STATUS_VERIFIED
        assert trace.of_kind("result")[-1].payload["solution_id"] == result.solution.id

    def test_single_run_no_judge(self, registry):
        config = small_config(parallel_runs=1)
        result, _ = run_pipeline(rules_clean(), config, registry)
        assert result.trace.count("judge") == 0
        assert result.status == STATUS_VERIFIED

    def test_three_runs_single_elimination_ladder(self, registry):
        config = small_config(parallel_runs=3)
        # round 1: (run1, run2) -> B; round 2: (run2, run3) -> A
        result, _ = run_pipeline(
            self._two_run_rules(["<decision>B</decision>", "<decision>A</decision>"]),
            config,
            registry,
        )
        assert result.trace.count("judge") == 2
        assert result.state.run_id == "run2"

    def test_judge_history_materials_mention_both_runs(self, registry):
        config = small_config(parallel_runs=2)
        result, _ = run_pipeline(self._two_run_rules(["<decision>A</decision>"]), config, registry)
        judge = result.trace.of_kind("judge")[0].payload
        prompt = registry.render(judge["role"], judge["slots"])
        assert "pipeline run1" in prompt and "pipeline run2" in prompt


class TestBudget:
    def test_budget_exhaustion_returns_best_partial(self, registry):
        config = small_config(token_budget=12_000)
        result, gateway = run_pipeline(rules_well(), config, registry, problem=well_problem())
        assert result.status == STATUS_BUDGET_EXHAUSTED
        assert gateway.tokens_consumed <= config.token_budget + config.max_output_tokens
        assert result.trace.count("budget_exhausted") == 1

    @pytest.mark.parametrize("budget", [1, 700, 2500, 6000, 11_000, 17_500])
    def test_random_tiny_budgets_bounded_overshoot(self, budget, registry):
        config = small_config(token_budget=budget)
        result, gateway = run_pipeline(rules_well(), config, registry, problem=well_problem())
        assert result.status in (STATUS_BUDGET_EXHAUSTED, STATUS_VERIFIED)
        assert gateway.tokens_consumed <= budget + config.max_output_tokens
        # a result is still produced (possibly None when nothing completed)
        assert result.trace.of_kind("result")


class TestCeilings:
    def test_trace_counts_within_planner_ceilings(self, registry):
        config = small_config(conjecture_iterations=2)
        result, gateway = run_pipeline(rules_well(), config, registry, problem=well_problem())
        ceilings = call_ceilings(config, runs=1)
        by_role = {}
        for entry in gateway.ledger.entries:
            by_role[entry.role] = by_role.get(entry.role, 0) + 1
        for role, count in by_role.items():
            assert count <= ceilings[role], role

    def test_ceilings_all_twos(self, registry):
        config = small_config(initial_iterations=1, conjecture_iterations=1)
        result, gateway = run_pipeline(rules_all_twos(), config, registry)
        ceilings = call_ceilings(config, runs=1)
        by_role = {}
        for entry in gateway.ledger.entries:
            by_role[entry.role] = by_role.get(entry.role, 0) + 1
        for role, count in by_role.items():
            assert count <= ceilings[role], role

    def test_default_worst_case_and_reserves(self, registry, monkeypatch):
        config = PipelineConfig()
        one_run = {"solver": 150, "processor": 50, "grader": 154, "extractor": 5, "parser": 10, "judge": 0}
        assert call_ceilings(config) == one_run
        assert call_ceilings(config, runs=2) == {**{role: 2 * n for role, n in one_run.items()}, "judge": 2}
        assert run_reserve(config) == 6_045_696
        reserves = []
        fork_join = DialecticEngine.fork_join

        def recording_fork_join(self, tasks, reserve):
            reserves.append(reserve)
            return fork_join(self, tasks, reserve)

        monkeypatch.setattr(DialecticEngine, "fork_join", recording_fork_join)
        two = dataclasses.replace(config, solver_width=2)
        engine = DialecticEngine(make_gateway(rules_clean(), two), registry, two, RunTrace(), "run1")
        engine.dialectic_solve(clean_problem(), EMPTY_CONTEXT, phase=1, origin=Origin.FRESH)
        assert reserves == [196_608]  # a branch's worst case: six calls of 32,768 tokens


class TestResume:
    def _fresh_orchestrator(self, config, registry):
        gateway = make_gateway(rules_well(), config)
        return Orchestrator(gateway, registry, config), gateway

    def test_resume_every_checkpoint_reproduces_run(self, registry):
        config = small_config(initial_iterations=2, conjecture_iterations=2)
        original, orig_gateway = run_pipeline(
            rules_well(), config, registry, problem=well_problem()
        )
        baseline_ledger = orig_gateway.ledger.to_dict()
        checkpoint_ids = [c for c in original.trace.checkpoints if not c.endswith(".final")]
        assert checkpoint_ids, "expected mid-run checkpoints"
        for checkpoint_id in checkpoint_ids:
            orch, gateway = self._fresh_orchestrator(config, registry)
            resumed = orch.resume(original.trace, checkpoint_id)
            assert resumed.solution.proof_text == original.solution.proof_text, checkpoint_id
            assert gateway.ledger.to_dict() == baseline_ledger, checkpoint_id

    def test_resumed_events_keep_the_original_digests(self, registry):
        """From every marker, the final one included, a resume records every
        event of the original, header and markers included, with the same
        seq, payload and digest: an event's stored form, and so its digest,
        does not depend on what the trace held before it."""

        def comparable(events):
            return [{k: v for k, v in event.to_dict().items() if k != "ts"} for event in events]

        config = small_config(initial_iterations=2, conjecture_iterations=2)
        for rules, status in ((rules_well(), STATUS_VERIFIED), (rules_all_twos(), STATUS_BEST_EFFORT)):
            rules = with_long_replies(rules)
            original, _ = run_pipeline(rules, config, registry, problem=well_problem())
            assert original.status == status
            assert len(original.trace.checkpoints) > 2
            for checkpoint_id in original.trace.checkpoints:
                gateway = make_gateway(rules, config)
                resumed = Orchestrator(gateway, registry, config).resume(original.trace, checkpoint_id)
                assert comparable(resumed.trace.events) == comparable(original.trace.events), checkpoint_id

    def test_resume_from_final_returns_stored(self, registry):
        config = small_config()
        original, orig_gateway = run_pipeline(rules_well(), config, registry, problem=well_problem())
        orch, gateway = self._fresh_orchestrator(config, registry)
        resumed = orch.resume(original.trace, "run1.final")
        assert resumed.solution.proof_text == original.solution.proof_text
        assert gateway.tokens_consumed == orig_gateway.tokens_consumed  # the run ran again, call for call
        assert resumed.status == original.status

    def test_unknown_checkpoint(self, registry):
        config = small_config()
        original, _ = run_pipeline(rules_well(), config, registry, problem=well_problem())
        orch, _ = self._fresh_orchestrator(config, registry)
        with pytest.raises(RerunError, match="unknown checkpoint 'nope'"):
            orch.resume(original.trace, "nope")

    @staticmethod
    def refusal(trace, orch):
        """The message with which resume and replay both refuse ``trace``:
        one header check, so one error and one message."""
        messages = []
        for rerun in (lambda: orch.resume(trace, "run1.p1.done"), lambda: replay(trace, orch.registry)):
            with pytest.raises(RerunError) as refused:
                rerun()
            messages.append(str(refused.value))
        assert messages[0] == messages[1]
        return messages[0]

    def test_template_version_guard(self, registry):
        from proofpipe.prompts import PromptRegistry

        config = small_config()
        original, _ = run_pipeline(rules_well(), config, registry, problem=well_problem())
        templates = {role: registry.get(role) for role in ROLES}
        templates["solver"] = dataclasses.replace(templates["solver"], body="changed {{slot:problem}}")
        other_registry = PromptRegistry(templates)
        gateway = make_gateway(rules_well(), config)
        orch = Orchestrator(gateway, other_registry, config)
        assert "the trace was taken with other prompt templates" in self.refusal(original.trace, orch)

    def test_schema_2_trace_refused(self, registry):
        from test_cli import OLD_SCHEMAS

        config = small_config()
        for schema, edit in OLD_SCHEMAS.items():
            original, _ = run_pipeline(rules_well(), config, registry, problem=well_problem())
            old = RunTrace()
            for event in original.trace.events:
                record = event.to_dict()
                edit(record)
                old.events.append(TraceEvent.from_dict(record))
            orch, _ = self._fresh_orchestrator(config, registry)
            assert f"trace schema {schema} is not supported (want {SCHEMA_VERSION})" in self.refusal(old, orch)

    def test_corrupt_checkpoint(self, registry):
        """A marker with no run, or naming a run the header does not count."""
        config = small_config()
        original, _ = run_pipeline(rules_well(), config, registry, problem=well_problem())
        for snapshot in ({}, {"state": {"run_id": "run2"}}):
            original.trace.append("run1", 1, "checkpoint", {"checkpoint_id": "broken", "snapshot": snapshot})
            orch, _ = self._fresh_orchestrator(config, registry)
            with pytest.raises(RerunError, match="corrupt"):
                orch.resume(original.trace, "broken")

    @pytest.mark.parametrize("runs", ["1", 0, None, 1.5])
    def test_header_runs_must_be_a_count(self, registry, runs):
        """The count of runs is the header config's parallel_runs."""
        config = small_config()
        original, _ = run_pipeline(rules_well(), config, registry, problem=well_problem())
        original.trace.header["config"]["parallel_runs"] = runs
        orch, _ = self._fresh_orchestrator(config, registry)
        want = "parallel_runs must be >= 1" if runs == 0 else f"parallel_runs must be of type int, not {runs!r}"
        assert want in self.refusal(original.trace, orch)

    @pytest.mark.parametrize(
        "field, value",
        [("solver_width", 1.5), ("initial_iterations", 1.5), ("retry_attempts", True), ("verify_repeats", 3.0),
         ("strict_budget", 0)],
    )
    def test_a_header_size_that_is_no_int_is_refused(self, registry, field, value):
        """Each size of a header's config is an int and its switch a bool:
        1.5, true, 3.0 and 0 in their places are refused before a re-run."""
        config = small_config()
        original, _ = run_pipeline(rules_well(), config, registry, problem=well_problem())
        original.trace.header["config"][field] = value
        orch, _ = self._fresh_orchestrator(config, registry)
        want = "bool" if field == "strict_budget" else "int"
        assert f"{field} must be of type {want}, not {value!r}" in self.refusal(original.trace, orch)

    def test_backend_mismatch_refused(self, registry):
        """A scripted trace whose header names another backend is refused by
        replay too, which re-runs it against its attached script."""
        config = small_config()
        original, _ = run_pipeline(rules_well(), config, registry, problem=well_problem())
        original.trace.header["backend"] = {"backend_id": "flat-10"}
        orch, _ = self._fresh_orchestrator(config, registry)
        assert "the trace was taken with backend 'flat-10', not 'scripted'" in self.refusal(original.trace, orch)

    def test_a_re_run_that_differs_from_the_trace_is_refused(self, registry):
        """A script that no longer gives the recorded replies re-runs to other
        events: the resume names the first one that differs."""
        config = small_config()
        original, _ = run_pipeline(rules_well(), config, registry, problem=well_problem())
        orch, _ = self._fresh_orchestrator(config, registry)
        orch.gateway.backend = ScriptedBackend(rules_clean())
        first_call = next(i for i, e in enumerate(e for e in original.trace.events if e.kind != "script_attachment") if "usage" in e.payload)
        with pytest.raises(RerunError, match=rf"at event {first_call}: \('run1', 1, 'draft'\)"):
            orch.resume(original.trace, "run1.p1.done")

    def test_header_with_no_call_attempts_refused(self, registry):
        config = small_config()
        original, _ = run_pipeline(rules_well(), config, registry, problem=well_problem())
        original.trace.header["config"]["retry_attempts"] = 0
        orch, _ = self._fresh_orchestrator(config, registry)
        assert "retry_attempts must be >= 1" in self.refusal(original.trace, orch)

    def test_header_with_no_problem_refused(self, registry):
        config = small_config()
        original, _ = run_pipeline(rules_well(), config, registry, problem=well_problem())
        original.trace.header["problem"] = None
        orch, _ = self._fresh_orchestrator(config, registry)
        assert "a Problem is stored as a dict, not None" in self.refusal(original.trace, orch)

    @staticmethod
    def unscripted(config, registry):
        """An orchestrator whose backend has no script, so the trace's call
        events answer its calls."""

        class Unscripted:
            backend_id = "scripted"

            def complete(self, req):
                raise AssertionError("the trace answers every call")

        return Orchestrator(ModelGateway(Unscripted(), token_budget=config.token_budget), registry, config)

    def test_a_call_event_that_does_not_read_is_refused(self, registry):
        """A backend with no script is answered from the trace's call events,
        so one that does not read is refused before the re-run."""
        config = small_config()
        original, _ = run_pipeline(rules_well(), config, registry, problem=well_problem())
        del next(e for e in original.trace.events if "usage" in e.payload).payload["response"]
        with pytest.raises(RerunError, match="the trace cannot be re-run: 'response'"):
            self.unscripted(config, registry).resume(original.trace, "run1.p1.done")

    @pytest.mark.parametrize("value", [5, None, ["a"]])
    def test_a_call_event_whose_slot_is_no_string_is_refused(self, registry, value):
        """A slot value that is not a string does not render: the prompt of
        that call cannot be rebuilt, so the re-run is refused."""
        config = small_config()
        original, _ = run_pipeline(rules_well(), config, registry, problem=well_problem())
        next(e for e in original.trace.events if "usage" in e.payload).payload["slots"]["additional_materials"] = value
        with pytest.raises(RerunError, match=f"slot 'additional_materials' is not a string: {re.escape(repr(value))}"):
            self.unscripted(config, registry).resume(original.trace, "run1.p1.done")

    @pytest.mark.parametrize(
        "field, value",
        [("response", 5), ("response", None), ("response", ["a"]), ("response", {"x": 1}),
         ("error", 5), ("error", None), ("error", ["a"])],
    )
    def test_a_call_event_whose_reply_is_no_string_is_refused(self, registry, field, value):
        """A recorded reply, or a failed call's recorded error, that is not a
        string cannot answer a call: the re-run is refused, naming the event,
        before any call is made."""
        config = small_config()
        original, _ = run_pipeline(rules_well(), config, registry, problem=well_problem())
        censor = original.trace.of_kind("censor")[0]
        if field == "error":  # the event of a call that failed in the backend
            del censor.payload["response"], censor.payload["usage"]
        censor.payload[field] = value
        want = f"the trace cannot be re-run: event {censor.seq} (censor): the {field} is not a string: {value!r}"
        with pytest.raises(RerunError, match=re.escape(want)):
            self.unscripted(config, registry).resume(original.trace, "run1.p1.done")

    def test_config_mismatch_guard(self, registry):
        config = small_config()
        original, _ = run_pipeline(rules_well(), config, registry, problem=well_problem())
        other = small_config(solver_width=3)
        gateway = make_gateway(rules_well(), other)
        orch = Orchestrator(gateway, registry, other)
        with pytest.raises(RerunError, match="the trace was taken under another pipeline config"):
            orch.resume(original.trace, "run1.p1.done")


    def test_two_run_checkpoints_are_per_run(self, registry):
        config = small_config(parallel_runs=2)
        rules = lambda: rules_well() + [ScriptRule("judge", None, [{"text": "<decision>A</decision>"}], repeat_last=True)]
        original, orig_gateway = run_pipeline(rules(), config, registry, problem=well_problem())
        ids = [e.payload["checkpoint_id"] for e in original.trace.of_kind("checkpoint")]
        assert len(ids) == len(set(ids)) == len(original.trace.checkpoints)
        for run_id in ("run1", "run2"):
            own = [c for c in ids if c.startswith(run_id + ".")]
            assert f"{run_id}.p1.done" in own and f"{run_id}.final" in own
        assert len(ids) == len([c for c in ids if c.startswith(("run1.", "run2."))])

        # Every run runs again, with no judge: the ledger holds every run's entries.
        entries = [e.to_dict() for e in orig_gateway.ledger.entries if e.run_id != "aggregate"]
        assert {e["run_id"] for e in entries} == {"run1", "run2"}
        for run_id in ("run1", "run2"):
            text = next(e.payload["proof_text"] for e in original.trace.of_kind("result") if e.run_id == run_id)
            gateway = make_gateway(rules(), config)
            resumed = Orchestrator(gateway, registry, config).resume(original.trace, f"{run_id}.p1.done")
            assert resumed.state.run_id == run_id
            assert resumed.solution.proof_text == text
            assert [e.to_dict() for e in gateway.ledger.entries] == entries

    def test_a_resumed_trace_resumes_to_the_same_result(self, registry):
        """A resumed trace holds every event of its runs from their start, so
        it can be resumed again, from every marker, to the same result."""
        config = small_config()
        original, orig_gateway = run_pipeline(rules_well(), config, registry, problem=well_problem())
        orch, _ = self._fresh_orchestrator(config, registry)
        resumed = orch.resume(original.trace, "run1.p1.done")
        assert signature(resumed.trace) == signature(original.trace)
        for checkpoint_id in resumed.trace.checkpoints:
            orch, gateway = self._fresh_orchestrator(config, registry)
            again = orch.resume(resumed.trace, checkpoint_id)
            assert (again.status, again.solution.proof_text) == (original.status, original.solution.proof_text)
            assert gateway.ledger.to_dict() == orig_gateway.ledger.to_dict()

    def test_checkpoint_markers_stay_small(self, registry):
        import json

        from proofpipe.core import PipelineConfig

        config = PipelineConfig()
        rules = rules_all_twos() + [ScriptRule("judge", None, [{"text": "<decision>A</decision>"}], repeat_last=True)]
        result, _ = run_pipeline(rules, config, registry)
        checkpoints = result.trace.of_kind("checkpoint")
        assert len(checkpoints) == 2 * (config.conjecture_iterations + 2)
        for event in checkpoints:
            size = len(json.dumps(event.to_dict(), ensure_ascii=False))
            assert size < 2048, (event.payload["checkpoint_id"], size)


class RecordingBackend(ScriptedBackend):
    """A scripted backend that records the role and prompt of every reply it gives."""

    def __init__(self, rules):
        super().__init__(rules)
        self.received = []

    def complete(self, req):
        resp = super().complete(req)
        self.received.append((req.role, req.prompt))
        return resp


# A fault per reply ahead of each role's scripted replies: backend failures
# (some retried away, some not) and replies that do not parse.
FAULTS = {
    "solver": ["fail"],
    "grader": ["ok", "ok", "garbage", "fail", "fail"],
    "processor": ["fail", "fail"],
    "extractor": ["fail"],
    "parser": ["garbage"],
    "judge": ["garbage"],
}


class TestCallEvents:
    @pytest.mark.parametrize("name", ["clean", "well", "all_twos", "faulted"])
    def test_slots_rebuild_every_prompt(self, registry, name):
        from test_failures import JUDGE, SCENARIOS, faulty

        make_rules, make_problem = SCENARIOS["well" if name == "faulted" else name]
        rules = make_rules() + [JUDGE]
        if name == "faulted":
            rules = faulty(rules, [FAULTS[r.role] for r in rules])
        config = small_config(parallel_runs=2, retry_attempts=2)
        backend = RecordingBackend(rules)
        gateway = ModelGateway(backend, token_budget=config.token_budget, retry_attempts=2, sleep=lambda _: None)
        result = Orchestrator(gateway, registry, config).run(make_problem(), trace=RunTrace(clock=lambda: 0.0))
        events = result.trace.events

        assert not [e.seq for e in events if "prompt" in e.payload]
        calls = [e.payload for e in events if "response" in e.payload]
        rebuilt = [(p["role"], registry.render(p["role"], p["slots"])) for p in calls]
        assert Counter(rebuilt) == Counter(backend.received)
        assert len(calls) == len(gateway.ledger.entries)
        if name == "faulted":
            # A failed call's own event holds its error: a censor's ends its
            # branch, a grade's its branch or its gate.
            assert {"censor", "grade", "check_grade"} <= {e.kind for e in events if "error" in e.payload}
            assert "pair_failed" in {e.kind for e in events}
            assert {"grade", "check_grade", "extract_parse", "judge"} <= {e.kind for e in events if "parse_error" in e.payload}


class TestReplay:
    def test_identical_replay(self, registry):
        config = small_config(conjecture_iterations=1)
        result, _ = run_pipeline(rules_well(), config, registry, problem=well_problem())
        assert replay(result.trace, registry=registry) is None

    def test_mutated_script_diverges_at_matching_event(self, registry):
        config = small_config(conjecture_iterations=1)
        result, _ = run_pipeline(rules_well(), config, registry, problem=well_problem())
        # flip the plateau grader verdict to a 4: first grade event diverges
        script = result.trace.of_kind("script_attachment")[0].payload["script"]
        for rule in script["rules"]:
            if rule["role"] == "grader" and rule["match"] is None:
                rule["responses"] = [{"text": grader_text(4, issues=(("hole", "Fallacy"),))}]
        divergence = replay(result.trace, registry=registry)
        assert divergence is not None
        diverged_kind = divergence["expected"]["kind"]
        assert diverged_kind in ("grade", "regrade", "check_grade")
        compared = [e for e in result.trace.events if e.kind != "script_attachment"]
        first_grade_idx = next(i for i, e in enumerate(compared) if e.kind == "grade")
        assert divergence["index"] == first_grade_idx

    def test_live_trace_refused(self, registry):
        config = small_config()
        result, _ = run_pipeline(rules_clean(), config, registry)
        result.trace.events[:] = [e for e in result.trace.events if e.kind != "script_attachment"]
        with pytest.raises(RerunError, match="only scripted-backend traces can be replayed"):
            replay(result.trace, registry=registry)

    def test_deterministic_signature(self, registry):
        config = small_config(conjecture_iterations=1)
        a, _ = run_pipeline(rules_well(), config, registry, problem=well_problem())
        b, _ = run_pipeline(rules_well(), config, registry, problem=well_problem())
        assert first_divergence(a.trace, b.trace) is None
