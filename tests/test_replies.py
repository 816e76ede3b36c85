"""No reply can crash a solve, and every slot value reaches its prompt verbatim.

The property tests draw reply texts (any code point, lone surrogates
included; slot tokens; lengths around the trace's ``TEXT_MIN``; texts made
only of newlines) and run whole solves on them through ``proofpipe solve``:
once with a script whose rules answer drawn responses, some carrying
``$text``/``$lit``-shaped dicts, before the cognitive-well replies, and once
through ``HttpBackend`` with ``urlopen`` stubbed. The drawn replies reach
every concurrent group (branches, check grades, bisection sides, runs), so
the later leaves' held records and their commit at the join are exercised
too.
"""
import io
import json
import os
import tempfile
import urllib.request
import zlib
from collections import Counter
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from proofpipe.cli import main
from proofpipe.gateway import ROLES, ModelRequest, ScriptRule, ScriptedBackend
from proofpipe.orchestrator import replay
from proofpipe.prompts import EMPTY_MARKER, PromptRegistry
from proofpipe.trace import TEXT_MIN, RunTrace, is_call

from conftest import WELL_STATEMENT, grader_text, rules_well

REGISTRY = PromptRegistry.load()
BASE = rules_well() + [ScriptRule("judge", None, [{"text": "<decision>B</decision>"}], repeat_last=True)]
# Each template's first line names its role: the stubbed HTTP server has only the prompt.
ROLE_OF_FIRST_LINE = {REGISTRY.get(role).body.split("\n", 1)[0]: role for role in ROLES}
PIPELINE = (
    "[pipeline]\ninitial_iterations = 1\nconjecture_iterations = 1\nsolver_width = 2\n"
    "verify_repeats = 2\nextraction_budget = 2\nmax_output_tokens = 2048\n"
)
HTTP_BACKEND = (
    "[backend]\nkind = http\nendpoint = http://localhost:9/v1/chat\nmodel = m\napi_key_env = PROOFPIPE_TEST_KEY\n"
    "[prices]\nhttp = 10, 10\n"
)

any_char = st.characters(exclude_categories=())  # lone surrogates included, but seldom drawn
lone_surrogate = st.sampled_from(["\ud800", "\udbff\udbff", "\udfff"])
slot_token = st.sampled_from(["problem", "solution", "solution_a", "solution_b", "additional_materials", "x"]).map(
    lambda name: "{{slot:%s}}" % name
)
# Fragments a parser reads: a verdict, a grade, a decision, a blueprint marker.
fragment = st.sampled_from(["NO_ISSUES", grader_text(7), "<decision>A</decision>", "The Final Blueprint\n", "\n"])
short_text = st.lists(st.one_of(st.text(any_char, max_size=12), slot_token, fragment), max_size=6).map("".join)
edge_length = st.sampled_from([TEXT_MIN - 1, TEXT_MIN, TEXT_MIN + 1])
reply_texts = st.one_of(
    short_text,
    st.tuples(short_text.filter(bool), edge_length).map(lambda drawn: (drawn[0] * drawn[1])[: drawn[1]]),
    st.one_of(st.integers(1, 3), edge_length).map(lambda n: "\n" * n),
)
marker_dicts = st.builds(
    lambda key, value: {key: value},
    st.sampled_from(["$text", "$lit"]),
    st.one_of(st.integers(-1, 3), st.text(any_char, max_size=8), st.just({"$text": 0})),
)
responses = st.builds(
    lambda text, extra: {"text": text} if extra is None else {"text": text, "note": extra},
    reply_texts,
    st.one_of(st.none(), marker_dicts),
)
budgets = st.one_of(st.just(10_000_000), st.integers(1, 80_000))


def holds_surrogate(value) -> bool:
    try:
        json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def solve(tmp: Path, *argv) -> int:
    problem = tmp / "problem.json"
    problem.write_text(json.dumps({"id": "well-1", "statement": WELL_STATEMENT}), encoding="utf-8")
    config = tmp / "config.ini"
    config.write_text(PIPELINE + (HTTP_BACKEND if "--script" not in argv else ""), encoding="utf-8")
    return main(["solve", str(problem), "--config", str(config), "--out", str(tmp / "out"), *map(str, argv)])


def sent_prompts(trace: RunTrace) -> Counter:
    """The prompt each call event renders, by role; each holds every slot
    value verbatim (a blank optional slot renders as the empty marker)."""
    prompts = Counter()
    for event in trace.events:
        if is_call(event.payload):
            role, slots = event.payload["role"], event.payload["slots"]
            prompt = REGISTRY.render(role, slots)
            assert all(value in prompt or (not value.strip() and EMPTY_MARKER in prompt) for value in slots.values())
            prompts[role, prompt] += 1
    return prompts


@st.composite
def scripts(draw) -> dict:
    """The cognitive-well script, each rule answering drawn responses first;
    some scripts get a lone surrogate in one response."""
    rules = [{**rule.to_dict(), "responses": draw(st.lists(responses, max_size=2)) + rule.responses} for rule in BASE]
    if draw(st.integers(0, 3)) == 3:
        spoilt = draw(st.sampled_from(rules))["responses"]
        spoilt[0] = {**spoilt[0], "text": spoilt[0]["text"] + draw(lone_surrogate)}
    return {"rules": rules}


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=scripts(), runs=st.integers(1, 2), budget=budgets)
def test_no_scripted_reply_crashes_a_solve(script, runs, budget):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "script.json").write_text(json.dumps(script), encoding="utf-8")  # a lone surrogate as its escape
        received = []
        complete = ScriptedBackend.complete

        def recording(backend, req):
            received.append((req.role, req.prompt))
            return complete(backend, req)

        with mock.patch.object(ScriptedBackend, "complete", recording):
            code = solve(tmp, "--script", tmp / "script.json", "--parallel-runs", runs, "--token-budget", budget)
        if holds_surrogate(script):
            assert code == 2 and not received
            return
        assert code in (0, 1, 3)
        trace = RunTrace.load(tmp / "out" / "trace.jsonl")
        assert replay(trace, REGISTRY) is None
        assert sent_prompts(trace) == Counter(received)


def well_reply(role: str, prompt: str) -> str:
    """What the cognitive-well script answers once every rule is settled."""
    request = ModelRequest(role=role, prompt=prompt, temperature=0.0, max_output_tokens=1)
    return next(rule for rule in BASE if rule.matches(request)).responses[-1]["text"]


http_replies = st.one_of(reply_texts, st.tuples(reply_texts, lone_surrogate).map("".join))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(replies=st.fixed_dictionaries({role: st.lists(http_replies, max_size=2) for role in ROLES}), budget=budgets)
def test_no_http_reply_crashes_a_solve(replies, budget):
    """The stubbed server answers each prompt with one of its role's drawn
    replies or the well script's, picked by the prompt's hash, so a solve
    does not depend on timing. A reply with a lone surrogate is read with
    U+FFFD in its place, and its call event says so."""
    received, spoilt = Counter(), set()

    def urlopen(request, timeout):
        prompt = json.loads(request.data)["messages"][0]["content"]
        role = ROLE_OF_FIRST_LINE[prompt.split("\n", 1)[0]]
        options = [*replies[role], well_reply(role, prompt)]
        text = options[zlib.crc32(prompt.encode("utf-8", "surrogatepass")) % len(options)]
        received[role, prompt] += 1
        if holds_surrogate(text):
            spoilt.add((role, prompt))
        usage = {"prompt_tokens": len(prompt) // 4, "completion_tokens": len(text) // 4}
        body = {"choices": [{"message": {"content": text}}], "usage": usage}
        return io.BytesIO(json.dumps(body).encode("utf-8"))

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(urllib.request, "urlopen", urlopen), mock.patch.dict(
        os.environ, {"PROOFPIPE_TEST_KEY": "k"}
    ):
        tmp = Path(tmp)
        assert solve(tmp, "--token-budget", budget) in (0, 1, 3)
        trace = RunTrace.load(tmp / "out" / "trace.jsonl")
    assert sent_prompts(trace) == received
    for event in trace.events:
        if is_call(event.payload):
            role = event.payload["role"]
            assert ("coerced" in event.payload) == ((role, REGISTRY.render(role, event.payload["slots"])) in spoilt)
