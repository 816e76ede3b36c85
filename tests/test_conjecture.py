"""Bisection classifier, strict JSON parsing, extraction and verification."""
import json

import pytest

from proofpipe.conjecture import (
    ConjectureEngine,
    ExtractionFailure,
    ParseError,
    ParsedConjectures,
    SchemaError,
    classify,
    find_json_object,
    lint_self_containedness,
    parse_conjectures,
    strip_header_prefix,
)
from proofpipe.core import FailureReason, HypothesisPair, Origin, Polarity, Problem
from proofpipe.dialectic import EMPTY_CONTEXT, DialecticEngine
from proofpipe.gateway import ScriptRule
from proofpipe.trace import RunTrace

from conftest import grader_text, make_gateway, parser_json, small_config

PROBLEM = Problem(id="p1", statement="MAIN_PROBLEM: prove the grid claim.")


def oracle_classify(g_pos, g_neg, tau):
    """Independent re-statement of the three-branch rule."""
    pos_wins = g_pos >= tau and g_neg < tau
    neg_wins = g_neg >= tau and g_pos < tau
    if pos_wins:
        return "positive"
    if neg_wins:
        return "negative"
    return "ambiguous"


class TestClassify:
    def test_exhaustive_grid_matches_oracle(self):
        for tau in (6, 7):
            for g_pos in range(8):
                for g_neg in range(8):
                    assert classify(g_pos, g_neg, tau) == oracle_classify(g_pos, g_neg, tau), (
                        g_pos,
                        g_neg,
                        tau,
                    )

    def test_never_both_proven(self):
        # mutual exclusion: across the whole grid a pair yields at most one lemma
        for g_pos in range(8):
            for g_neg in range(8):
                verdicts = {classify(g_pos, g_neg, 7)}
                assert verdicts <= {"positive", "negative", "ambiguous"}
                assert len(verdicts) == 1

    def test_reference_cases(self):
        assert classify(7, 3, 7) == "positive"
        assert classify(7, 7, 7) == "ambiguous"
        assert classify(3, 7, 7) == "negative"
        assert classify(6, 5, 6) == "positive"


class TestParseConjectures:
    def test_well_formed(self):
        parsed = parse_conjectures(parser_json(["c1", "c2"], ["n1", "n2"], proof="pf"))
        assert parsed == ParsedConjectures(("c1", "c2"), ("n1", "n2"))

    def test_fenced_with_trailing_prose(self):
        raw = "Sure, here it is:\n```json\n" + parser_json(["c"], ["n"], "pf") + "\n```\nHope that helps!"
        parsed = parse_conjectures(raw)
        assert parsed.conjectures == ("c",)

    def test_prose_wrapped_braces_in_strings(self):
        payload = json.dumps(
            {"conjectures": ['set {x} is "odd"'], "negations": ["set {x} is even"], "proof": "p"}
        )
        parsed = parse_conjectures("preamble " + payload + " postamble")
        assert parsed.conjectures[0] == 'set {x} is "odd"'

    def test_length_mismatch_raises_schema(self):
        with pytest.raises(SchemaError):
            parse_conjectures(parser_json(["a", "b", "c"], ["x", "y"]))

    def test_empty_arrays_valid(self):
        parsed = parse_conjectures('{"conjectures": [], "negations": [], "proof": "none needed"}')
        assert parsed.conjectures == () and parsed.negations == ()

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_conjectures("{not json at all")
        with pytest.raises(ParseError):
            parse_conjectures("no braces anywhere")

    def test_header_prefixes_stripped(self):
        raw = parser_json(["Conjecture 1: the sum is even"], ["Negation 1: the sum is odd"])
        parsed = parse_conjectures(raw)
        assert parsed.conjectures == ("the sum is even",)
        assert parsed.negations == ("the sum is odd",)

    def test_empty_string_entry_rejected(self):
        with pytest.raises(SchemaError):
            parse_conjectures(parser_json(["ok"], ["  "]))

    def test_missing_proof_with_pairs_rejected(self):
        with pytest.raises(SchemaError):
            parse_conjectures('{"conjectures": ["c"], "negations": ["n"], "proof": ""}')

    def test_roundtrip_canonical_form(self):
        for payload in (
            (["a"], ["not a"], "p"),
            (["x", "y"], ["nx", "ny"], "longer proof"),
            ([], [], ""),
        ):
            raw = json.dumps(
                {"conjectures": payload[0], "negations": payload[1], "proof": payload[2]}
            )
            parsed = parse_conjectures(raw)
            assert list(parsed.conjectures) == payload[0]
            assert list(parsed.negations) == payload[1]


def test_find_json_object_picks_balanced_block():
    assert find_json_object('x {"a": {"b": 1}} y') == '{"a": {"b": 1}}'


def test_strip_header_variants():
    assert strip_header_prefix("Conjecture 2. claim") == "claim"
    assert strip_header_prefix("negation of conjecture 1: claim") == "claim"
    assert strip_header_prefix("plain claim") == "plain claim"


def test_lint_flags_referential_phrases():
    assert lint_self_containedness("The set S from Conjecture 1 is empty.")
    assert not lint_self_containedness("Every integer n has a successor.")


def make_engine(rules, registry, config=None):
    config = config or small_config()
    gateway = make_gateway(rules, config)
    trace = RunTrace(clock=lambda: 0.0)
    dialectic = DialecticEngine(gateway, registry, config, trace, "run1")
    return ConjectureEngine(dialectic), trace


def seed_solution(registry, text="SEED_PROOF: nearly there"):
    config = small_config(solver_width=1)
    rules = [
        ScriptRule("solver", None, [{"text": text}], repeat_last=True),
        ScriptRule("processor", None, [{"text": "NO_ISSUES"}], repeat_last=True),
        ScriptRule("grader", None, [{"text": grader_text(6, issues=(("gap", "Slip"),))}], repeat_last=True),
    ]
    gateway = make_gateway(rules, config)
    engine = DialecticEngine(gateway, registry, config, RunTrace(clock=lambda: 0.0), "seed")
    return engine.dialectic_solve(PROBLEM, EMPTY_CONTEXT, phase=1, origin=Origin.FRESH)[0]


class TestExtractHypotheses:
    def test_two_pairs_parsed(self, registry):
        seed = seed_solution(registry)
        engine, trace = make_engine(
            [
                ScriptRule("extractor", None, [{"text": "narrative"}], repeat_last=True),
                ScriptRule("parser", None, [{"text": parser_json(["c1", "c2"], ["n1", "n2"])}], repeat_last=True),
            ],
            registry,
        )
        pairs = engine.extract_hypotheses(PROBLEM, [seed])
        assert len(pairs) == 2
        assert pairs[0].conjecture == "c1"
        assert trace.count("extract") == 1 and trace.count("extract_parse") == 1

    def test_budget_truncates_to_three(self, registry):
        seed = seed_solution(registry)
        five = parser_json([f"c{i}" for i in range(5)], [f"n{i}" for i in range(5)])
        engine, trace = make_engine(
            [
                ScriptRule("extractor", None, [{"text": "narrative"}], repeat_last=True),
                ScriptRule("parser", None, [{"text": five}], repeat_last=True),
            ],
            registry,
        )
        pairs = engine.extract_hypotheses(PROBLEM, [seed])
        assert len(pairs) == 3
        assert trace.count("pairs_truncated") == 1

    def test_mismatch_retries_then_fails(self, registry):
        seed = seed_solution(registry)
        bad = parser_json(["a", "b", "c"], ["x", "y"])
        engine, trace = make_engine(
            [
                ScriptRule("extractor", None, [{"text": "narrative"}], repeat_last=True),
                ScriptRule("parser", None, [{"text": bad}], repeat_last=True),
            ],
            registry,
        )
        with pytest.raises(ExtractionFailure):
            engine.extract_hypotheses(PROBLEM, [seed])
        assert trace.count("extract_parse") == 2  # one re-prompt, then give up

    def test_retry_can_recover(self, registry):
        seed = seed_solution(registry)
        engine, trace = make_engine(
            [
                ScriptRule("extractor", None, [{"text": "narrative"}], repeat_last=True),
                ScriptRule(
                    "parser",
                    None,
                    [{"text": "garbage"}, {"text": parser_json(["c"], ["n"])}],
                ),
            ],
            registry,
        )
        pairs = engine.extract_hypotheses(PROBLEM, [seed])
        assert len(pairs) == 1

    def test_empty_extraction_is_valid(self, registry):
        seed = seed_solution(registry)
        engine, _ = make_engine(
            [
                ScriptRule("extractor", None, [{"text": "nothing load-bearing"}], repeat_last=True),
                ScriptRule("parser", None, [{"text": '{"conjectures": [], "negations": [], "proof": ""}'}], repeat_last=True),
            ],
            registry,
        )
        pairs = engine.extract_hypotheses(PROBLEM, [seed])
        assert pairs == ()

    def test_failure_context_passed_verbatim(self, registry):
        from proofpipe.core import FailureRecord

        seed = seed_solution(registry)
        engine, trace = make_engine(
            [
                ScriptRule("extractor", None, [{"text": "narrative"}], repeat_last=True),
                ScriptRule("parser", None, [{"text": parser_json(["c"], ["n"])}], repeat_last=True),
            ],
            registry,
        )
        failure = FailureRecord("h0", "old unresolved claim", FailureReason.AMBIGUOUS, "g_pos=6, g_neg=6")
        engine.extract_hypotheses(PROBLEM, [seed], failures=[failure])
        extract = trace.of_kind("extract")[0].payload
        extract_prompt = registry.render(extract["role"], extract["slots"])
        assert "old unresolved claim" in extract_prompt
        assert "ambiguous" in extract_prompt


def verify_rules(pos_score, neg_score):
    """Rules where the positive side grades pos_score and negative side neg_score."""
    return [
        ScriptRule("solver", "POS_SIDE", [{"text": "POS_ATTEMPT proof"}], repeat_last=True),
        ScriptRule("solver", "NEG_SIDE", [{"text": "NEG_ATTEMPT proof"}], repeat_last=True),
        ScriptRule("processor", None, [{"text": "NO_ISSUES"}], repeat_last=True),
        ScriptRule("grader", "POS_ATTEMPT", [{"text": grader_text(pos_score, issues=(() if pos_score == 7 else (("gap", "Slip"),)))}], repeat_last=True),
        ScriptRule("grader", "NEG_ATTEMPT", [{"text": grader_text(neg_score, issues=(() if neg_score == 7 else (("gap", "Slip"),)))}], repeat_last=True),
    ]


PAIR = HypothesisPair(id="h1", conjecture="POS_SIDE: all widgets are blue", negation="NEG_SIDE: some widget is not blue")


class TestVerifyHypotheses:
    def test_positive_lemma(self, registry):
        engine, trace = make_engine(verify_rules(7, 3), registry)
        outcome = engine.verify_hypotheses([PAIR], tau=7)
        assert len(outcome.proven) == 1 and not outcome.failed
        lemma = outcome.proven[0]
        assert lemma.polarity is Polarity.POSITIVE
        assert lemma.statement == PAIR.conjecture
        assert lemma.g_pos == 7 and lemma.g_neg == 3

    def test_negative_lemma(self, registry):
        engine, _ = make_engine(verify_rules(3, 7), registry)
        outcome = engine.verify_hypotheses([PAIR], tau=7)
        assert outcome.proven[0].polarity is Polarity.NEGATIVE
        assert outcome.proven[0].statement == PAIR.negation

    def test_both_seven_ambiguous(self, registry):
        engine, _ = make_engine(verify_rules(7, 7), registry)
        outcome = engine.verify_hypotheses([PAIR], tau=7)
        assert not outcome.proven
        assert outcome.failed[0].reason is FailureReason.AMBIGUOUS

    def test_empty_pairs(self, registry):
        engine, _ = make_engine(verify_rules(7, 3), registry)
        outcome = engine.verify_hypotheses([], tau=7)
        assert outcome.proven == () and outcome.failed == ()

    def test_model_failure_marks_unresolved(self, registry):
        rules = verify_rules(7, 3)
        rules[1] = ScriptRule("solver", "NEG_SIDE", [{"fail": True, "text": "down"}], repeat_last=True)
        engine, _ = make_engine(rules, registry)
        outcome = engine.verify_hypotheses([PAIR], tau=7)
        assert not outcome.proven
        assert outcome.failed[0].reason is FailureReason.UNRESOLVED

    def test_detachment_no_parent_text_in_side_prompts(self, registry):
        engine, trace = make_engine(verify_rules(7, 3), registry)
        engine.verify_hypotheses([PAIR], tau=7)
        parent_marker = "MAIN_PROBLEM"
        side_drafts = [e for e in trace.of_kind("draft")]
        assert side_drafts, "side solves must draft"
        for event in side_drafts:
            prompt = registry.render(event.payload["role"], event.payload["slots"])
            assert parent_marker not in prompt
            assert "(none provided)" in prompt

    def test_partial_attempts_preserved(self, registry):
        engine, trace = make_engine(verify_rules(6, 6), registry)
        outcome = engine.verify_hypotheses([PAIR], tau=7)
        assert outcome.failed and len(outcome.attempts) == 2
        sides = {a.side for a in outcome.attempts}
        assert sides == {"pos", "neg"}
        assert trace.count("side_solved") == 2
