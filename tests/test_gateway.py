"""Gateway behavior: exact money, budget enforcement, scripted determinism."""
import io
import json
import os
import subprocess
import sys
import urllib.error
import urllib.request
from dataclasses import replace
from decimal import Decimal
from pathlib import Path
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofpipe.gateway import (
    DEFAULT_PRICES,
    BackendFailure,
    BudgetExceeded,
    CostLedger,
    HttpBackend,
    ModelGateway,
    ModelRequest,
    Price,
    PriceTable,
    ScriptError,
    ScriptRule,
    ScriptedBackend,
    Usage,
    cost_of,
    estimate_max_budget,
)
from proofpipe.trace import RunTrace

FLAT = Price(Decimal("10"), Decimal("10"))


def req(role="solver", prompt="prove X", max_out=1000):
    return ModelRequest(role=role, prompt=prompt, temperature=0.6, max_output_tokens=max_out, run_id="r")


class TestCostOf:
    def test_unit_rate(self):
        assert cost_of(Usage(0, 1_000_000), FLAT) == Decimal("10")

    def test_thinking_allotment(self):
        # a full 32K-token call at the flat 10 USD/M rate
        assert cost_of(Usage(0, 32_000), FLAT) == Decimal("0.32")

    def test_mixed_fixture_hand_summed(self):
        price = Price(Decimal("1.25"), Decimal("10"))
        usage = Usage(input_tokens=123_456, output_tokens=7_890)
        # 123456*1.25/1e6 + 7890*10/1e6 = 0.15432 + 0.0789
        assert cost_of(usage, price) == Decimal("0.23322")

    def test_thinking_tokens_budget_only(self):
        # thinking tokens count against the budget but not the price formula
        assert cost_of(Usage(100, 100, thinking_tokens=5000), FLAT) == cost_of(Usage(100, 100), FLAT)


class TestEstimate:
    def test_reference_shape(self):
        assert estimate_max_budget(32_000, 2, 30, 100, 10) == Decimal("1920")

    def test_identity_scaling(self):
        assert estimate_max_budget(1, 1, 1, 1, 1_000_000) == Decimal("1")

    def test_wide_deep_shape_exceeds_3000(self):
        rate = DEFAULT_PRICES.get("hosted-batch").output_usd_per_million
        assert estimate_max_budget(128_000, 64, 16, 64, rate) > Decimal("3000")

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            estimate_max_budget(0, 1, 1, 1, 10)


class TestLedger:
    def test_additivity_small(self):
        ledger = CostLedger()
        ledger.append("r", "solver", "flat-10", Usage(10, 10), Decimal("0.1"))
        ledger.append("r", "grader", "flat-10", Usage(10, 10), Decimal("0.2"))
        assert ledger.grand_total() == Decimal("0.3")
        assert ledger.total_by_role() == {"solver": Decimal("0.1"), "grader": Decimal("0.2")}

    @settings(max_examples=25)
    @given(
        st.lists(
            st.tuples(st.integers(0, 10**7), st.integers(0, 10**7), st.sampled_from(["1.25", "10", "0.42"])),
            min_size=1,
            max_size=60,
        )
    )
    def test_additivity_matches_fraction_oracle(self, rows):
        ledger = CostLedger()
        oracle = Fraction(0)
        for i, (tin, tout, rate) in enumerate(rows):
            price = Price(Decimal(rate), Decimal(rate))
            usage = Usage(tin, tout)
            usd = cost_of(usage, price)
            ledger.append(f"run{i % 2}", "solver", "b", usage, usd)
            oracle += Fraction(tin + tout) * Fraction(rate) / 1_000_000
        total = ledger.grand_total()
        assert Fraction(str(total)) == oracle
        assert total == sum((e.usd for e in ledger.entries), Decimal(0))

    def test_exports(self):
        ledger = CostLedger()
        ledger.append("run1", "solver", "flat-10", Usage(5, 5), Decimal("0.0001"))
        d = ledger.to_dict()
        assert d["totals"]["grand"] == "0.0001"
        csv_text = ledger.to_csv()
        assert "seq,run_id,role" in csv_text.splitlines()[0]
        assert csv_text.strip().splitlines()[-1].endswith("0.0001")


class TestScriptedBackend:
    def test_cursor_orders_responses(self):
        backend = ScriptedBackend([ScriptRule("solver", None, [{"text": "one"}, {"text": "two"}])])
        assert backend.complete(req()).text == "one"
        assert backend.complete(req()).text == "two"
        with pytest.raises(ScriptError):
            backend.complete(req())

    def test_matcher_specificity_and_fallthrough(self):
        backend = ScriptedBackend(
            [
                ScriptRule("solver", "magic", [{"text": "special"}]),
                ScriptRule("solver", None, [{"text": "default"}], repeat_last=True),
            ]
        )
        assert backend.complete(req(prompt="no match")).text == "default"
        assert backend.complete(req(prompt="the magic word")).text == "special"
        # exhausted specific rule falls through to the catch-all
        assert backend.complete(req(prompt="the magic word")).text == "default"

    def test_multi_needle_matcher(self):
        backend = ScriptedBackend(
            [
                ScriptRule("solver", ["alpha", "beta"], [{"text": "both"}], repeat_last=True),
                ScriptRule("solver", None, [{"text": "default"}], repeat_last=True),
            ]
        )
        assert backend.complete(req(prompt="alpha only")).text == "default"
        assert backend.complete(req(prompt="alpha and beta")).text == "both"

    def test_deterministic_replay(self):
        rules = lambda: [
            ScriptRule("solver", None, [{"text": "a"}, {"text": "b"}], repeat_last=True),
            ScriptRule("grader", None, [{"text": "g"}], repeat_last=True),
        ]
        seq = [req(), req("grader"), req(), req()]
        b1, b2 = ScriptedBackend(rules()), ScriptedBackend(rules())
        out1 = [b1.complete(r).text for r in seq]
        out2 = [b2.complete(r).text for r in seq]
        assert out1 == out2 == ["a", "g", "b", "b"]

    def test_rule_without_responses_rejected(self):
        with pytest.raises(ValueError, match="no responses"):
            ScriptRule("solver", None, [], repeat_last=True)

    def test_serialization_roundtrip(self):
        backend = ScriptedBackend(
            [ScriptRule("solver", ["a", "b"], [{"text": "x", "usage": {"input_tokens": 3, "output_tokens": 4}}])]
        )
        clone = ScriptedBackend.from_dict(backend.to_dict())
        assert clone.complete(req(prompt="a b")).usage == Usage(3, 4, 0)


class TestGatewayBudget:
    def _gateway(self, rules, budget, **kw):
        return ModelGateway(ScriptedBackend(rules), token_budget=budget, sleep=lambda _: None, **kw)

    def test_scripted_echo_and_ledger(self):
        gw = self._gateway(
            [ScriptRule("solver", "prove X", [{"text": "scripted text", "usage": {"input_tokens": 100, "output_tokens": 50}}])],
            budget=10_000,
        )
        resp = gw.complete(req())
        assert resp.text == "scripted text"
        assert resp.usage == Usage(100, 50, 0)
        assert gw.tokens_consumed == 150
        entry = gw.ledger.entries[0]
        assert entry.role == "solver" and entry.usd == cost_of(resp.usage, DEFAULT_PRICES.get("scripted"))

    def test_zero_remaining_raises(self):
        gw = self._gateway(
            [ScriptRule("solver", None, [{"text": "t", "usage": {"input_tokens": 60, "output_tokens": 40}}], repeat_last=True)],
            budget=100,
        )
        gw.complete(req())
        assert gw.tokens_consumed == 100
        with pytest.raises(BudgetExceeded):
            gw.complete(req())

    def test_single_call_overshoot_bound(self):
        gw = self._gateway(
            [ScriptRule("solver", None, [{"text": "t", "usage": {"input_tokens": 300, "output_tokens": 300}}], repeat_last=True)],
            budget=1000,
        )
        consumed_calls = 0
        with pytest.raises(BudgetExceeded):
            for _ in range(100):
                gw.complete(req(max_out=700))
                consumed_calls += 1
        assert consumed_calls == 2  # 600, 1200 > 1000 stops the third admission
        assert gw.tokens_consumed <= 1000 + 700

    def test_strict_mode_never_overshoots(self):
        gw = self._gateway(
            [ScriptRule("solver", None, [{"text": "t", "usage": {"input_tokens": 0, "output_tokens": 600}}], repeat_last=True)],
            budget=1000,
            strict_budget=True,
        )
        gw.complete(req(max_out=600))
        with pytest.raises(BudgetExceeded):
            gw.complete(req(max_out=600))
        assert gw.tokens_consumed <= 1000

    def test_strict_mode_overshoots_by_at_most_the_prompt(self):
        # Strict mode reserves a call's max_output_tokens, not its prompt.
        usage = {"input_tokens": 9000, "output_tokens": 1500}
        gw = self._gateway(
            [ScriptRule("solver", None, [{"text": "t", "usage": usage}], repeat_last=True)],
            budget=10_000,
            strict_budget=True,
        )
        gw.complete(req(max_out=2048))
        with pytest.raises(BudgetExceeded):
            gw.complete(req(max_out=2048))
        assert gw.tokens_consumed == 10_500
        assert gw.tokens_consumed <= 10_000 + usage["input_tokens"]

    def test_retry_then_success_consumes_once(self):
        gw = self._gateway(
            [
                ScriptRule(
                    "solver",
                    None,
                    [{"fail": True, "text": "boom"}, {"text": "ok", "usage": {"input_tokens": 10, "output_tokens": 10}}],
                )
            ],
            budget=1000,
        )
        assert gw.complete(req()).text == "ok"
        assert gw.tokens_consumed == 20
        assert len(gw.ledger.entries) == 1

    def test_a_gateway_that_makes_no_attempt_is_refused(self):
        with pytest.raises(ValueError, match="retry_attempts must be >= 1"):
            self._gateway([ScriptRule("solver", None, [{"text": "t"}])], budget=1000, retry_attempts=0)

    def test_retry_exhaustion(self):
        gw = self._gateway(
            [ScriptRule("solver", None, [{"fail": True, "text": "boom"}], repeat_last=True)],
            budget=1000,
            retry_attempts=3,
        )
        with pytest.raises(BackendFailure):
            gw.complete(req())
        assert gw.tokens_consumed == 0
        assert len(gw.ledger.entries) == 0

    def test_identical_scripts_identical_ledgers(self):
        def run():
            gw = self._gateway(
                [
                    ScriptRule("solver", None, [{"text": "a", "usage": {"input_tokens": 7, "output_tokens": 9}}], repeat_last=True),
                    ScriptRule("grader", None, [{"text": "b", "usage": {"input_tokens": 3, "output_tokens": 4}}], repeat_last=True),
                ],
                budget=10_000,
            )
            for r in (req(), req("grader"), req()):
                gw.complete(r)
            return gw.ledger.to_dict()

        assert run() == run()


class TestForkJoin:
    """The tree of lanes, driven by hand on one thread: each call fits its
    lane's share or its leaf's turn has come, so none of them waits."""

    def _gateway(self, budget=10_000):
        usage = {"input_tokens": 100, "output_tokens": 50}
        rules = [ScriptRule(role, None, [{"text": "t", "usage": usage}], repeat_last=True) for role in ("solver", "grader")]
        return ModelGateway(ScriptedBackend(rules), token_budget=budget, sleep=lambda _: None)

    def _call(self, gw, lane, run_id="r", max_out=1000):
        return gw.complete(replace(req(max_out=max_out), lane=lane, run_id=run_id))

    def test_a_later_lane_gets_an_equal_share_of_what_the_reserves_leave(self):
        gw = self._gateway()
        self._call(gw, gw.root)
        first, *later = gw.fork(gw.root, 3, reserve=1000)
        part = (10_000 - 150 - 2 * 1000) // 2
        assert [lane.cap for lane in later] == [part, part]
        assert gw.root.used == 150 + 2 * part  # the parent counts each share as spent
        assert not first.ahead and all(lane.ahead for lane in later)

    def test_a_first_lane_charges_through_its_parent(self):
        gw = self._gateway()
        first, second = gw.fork(gw.root, 2, reserve=1000)
        assert first.deciding() is gw.root and second.deciding() is second
        used = gw.root.used
        self._call(gw, first)
        assert first.used == 150 and gw.root.used == used + 150 and second.used == 0
        assert len(gw.ledger.entries) == 1

    def test_a_fork_under_a_later_lane_is_decided_by_that_lane(self):
        gw = self._gateway()
        _, second = gw.fork(gw.root, 2, reserve=1000)
        assert second.cap == 9_000 and gw.root.used == 9_000
        inner_first, inner_second = gw.fork(second, 2, reserve=2_000)
        # Taken from second's share: the root has only 1,000 tokens left.
        assert inner_second.cap == 9_000 - 2_000
        assert second.used == 7_000 and gw.root.used == 9_000
        assert inner_first.deciding() is second
        self._call(gw, inner_first)
        assert second.used == 7_150 and gw.root.used == 9_000

    def test_join_counts_what_was_spent_and_commits_later_ledgers_in_leaf_order(self):
        gw = self._gateway()
        lanes = gw.fork(gw.root, 3, reserve=1000)
        for lane, run_id in [(lanes[2], "c"), (lanes[1], "b"), (lanes[0], "a"), (lanes[1], "b")]:
            self._call(gw, lane, run_id)
        assert [e.run_id for e in gw.ledger.entries] == ["a"]
        gw.join(lanes)
        assert gw.root.used == gw.tokens_consumed == 4 * 150
        assert not any(lane.ahead for lane in lanes)
        assert [(e.seq, e.run_id) for e in gw.ledger.entries] == [(0, "a"), (1, "b"), (2, "b"), (3, "c")]

    def test_a_later_leaf_holds_its_records_until_the_join_commits_them_in_leaf_order(self):
        gw = self._gateway()
        trace = RunTrace()
        first, second, third = gw.fork(gw.root, 3, reserve=1000)
        inner_first, inner_second = gw.fork(second, 2, reserve=1000)
        for lane, run_id in [(third, "c"), (inner_second, "b2"), (inner_first, "b1"), (first, "a")]:
            self._call(gw, lane, run_id)
            lane.record(trace.append, run_id, 1, "note", {})
        # The root chain writes at once; a later leaf holds its trace write and its ledger entry.
        assert [e.run_id for e in trace.events] == [e.run_id for e in gw.ledger.entries] == ["a"]
        assert [args[0] for _, args in third.held] == ["c", "c"]
        # A first leaf forked under a later lane records into that lane's hold.
        assert not inner_first.held and [args[0] for _, args in second.held] == ["b1", "b1"]
        gw.join([inner_first, inner_second])
        assert [args[0] for _, args in second.held] == ["b1", "b1", "b2", "b2"]
        assert [e.run_id for e in trace.events] == ["a"]
        gw.join([first, second, third])
        assert [e.run_id for e in trace.events] == [e.run_id for e in gw.ledger.entries] == ["a", "b1", "b2", "c"]
        assert [e.seq for e in trace.events] == [e.seq for e in gw.ledger.entries] == [0, 1, 2, 3]

    def test_a_call_past_its_share_joins_it_once_its_turn_has_come(self):
        gw = self._gateway(budget=2_000)
        first, second = gw.fork(gw.root, 2, reserve=1_500)
        assert second.cap == 500
        first.done.set()  # the first leaf has finished
        self._call(gw, second)
        assert not second.ahead and second.deciding() is gw.root
        assert gw.root.used == second.used == 150


def test_price_table_from_config_and_missing_backend():
    table = PriceTable.from_config({"b": {"input_usd_per_million": "1.5", "output_usd_per_million": 3}})
    assert table.get("b").output_usd_per_million == Decimal("3")
    with pytest.raises(KeyError):
        table.get("absent")


def test_usage_rejects_negative():
    with pytest.raises(ValueError):
        Usage(-1, 0)


@pytest.mark.parametrize("counts", [("5", 0, 0), (1.5, 0, 0), (0, True, 0), (0, 0, None)])
def test_usage_takes_only_int_counts(counts):
    with pytest.raises(ValueError, match="token counts must be ints"):
        Usage(*counts)


BILLED = {"prompt_tokens": 900, "completion_tokens": 463}
NO_USAGE = object()  # a reply with no "usage" key


class TestHttpBackend:
    """Offline: ``urllib.request.urlopen`` is replaced by a stub."""

    def _gateway(self, monkeypatch, outcome):
        calls = []

        def urlopen(request, timeout):
            calls.append(request)
            if isinstance(outcome, int):
                raise urllib.error.HTTPError(request.full_url, outcome, "refused", {}, io.BytesIO(b""))
            return io.BytesIO(json.dumps(outcome).encode("utf-8"))

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        backend = HttpBackend("http://localhost:9/v1/chat", "m", "bad-key", backend_id="flat-10")
        return ModelGateway(backend, token_budget=10_000, retry_attempts=3, sleep=lambda _: None), calls

    @pytest.mark.parametrize("status", [400, 401, 403, 404])
    def test_client_error_fails_without_retry(self, monkeypatch, status):
        gw, calls = self._gateway(monkeypatch, status)
        with pytest.raises(BackendFailure, match=str(status)):
            gw.complete(req())
        assert len(calls) == 1
        assert gw.tokens_consumed == 0 and not gw.ledger.entries

    @pytest.mark.parametrize("status", [408, 429, 500, 503])
    def test_timeout_rate_limit_and_server_errors_are_retried(self, monkeypatch, status):
        gw, calls = self._gateway(monkeypatch, status)
        with pytest.raises(BackendFailure):
            gw.complete(req())
        assert len(calls) == 3

    @pytest.mark.parametrize(
        "payload",
        [{}, {"choices": []}, {"choices": [{"message": {}}]}, [],
         pytest.param({"choices": [{"message": {"content": "p"}}], "usage": {"prompt_tokens": "5"}}, id="string_count"),
         pytest.param({"choices": [{"message": {"content": "p"}}], "usage": {"completion_tokens": 1.5}}, id="float_count"),
         pytest.param({"choices": [{"message": {"content": "p"}}], "usage": {"prompt_tokens": True}}, id="bool_count"),
         pytest.param({"choices": [{"message": {"content": "p"}}], "usage": {"prompt_tokens": -3.0}}, id="negative_float_count"),
         pytest.param({"choices": [{"message": {"content": "p"}}], "usage": {"prompt_tokens": float("inf")}}, id="inf_count"),
         pytest.param({"choices": [{"message": {"content": "p"}}], "usage": [900]}, id="list_usage")],
    )
    def test_malformed_payload_is_backend_failure(self, monkeypatch, payload):
        gw, calls = self._gateway(monkeypatch, payload)
        with pytest.raises(BackendFailure, match="malformed"):
            gw.complete(req())
        assert len(calls) == 1
        assert not gw.ledger.entries

    @pytest.mark.parametrize(
        "content, usage, text, tokens, coerced",
        [
            pytest.param(None, BILLED, "", Usage(900, 463), "content NoneType read as an empty reply", id="null_content"),
            pytest.param(["a"], BILLED, "", Usage(900, 463), "content list read as an empty reply", id="list_content"),
            pytest.param("proof \ud800 and \udfff\ud800", BILLED, "proof \ufffd and \ufffd\ufffd", Usage(900, 463),
                         "lone surrogates read as U+FFFD", id="lone_surrogate"),
            pytest.param("p", None, "p", Usage(0, 0), "no usage read as 0 tokens", id="null_usage"),
            pytest.param("p", NO_USAGE, "p", Usage(0, 0), "no usage read as 0 tokens", id="missing_usage"),
            pytest.param("p", {"prompt_tokens": 900.0, "completion_tokens": 463}, "p", Usage(900, 463),
                         "prompt_tokens 900.0 read as 900", id="integral_float_count"),
            pytest.param(None, {"prompt_tokens": 900.0, "completion_tokens": 463.0, "reasoning_tokens": 7}, "",
                         Usage(900, 463, 7),
                         "content NoneType read as an empty reply; prompt_tokens 900.0 read as 900; completion_tokens 463.0 read as 463",
                         id="null_content_and_float_counts"),
            pytest.param(None, None, "", Usage(0, 0), "content NoneType read as an empty reply; no usage read as 0 tokens",
                         id="null_content_and_null_usage"),
        ],
    )
    def test_a_coerced_reply_is_metered(self, monkeypatch, content, usage, text, tokens, coerced):
        """The provider billed a reply whose content is not UTF-8 text, or
        whose usage is missing or holds an integral float, so it is read as
        text and counts, metered and put in the ledger like any other, and
        says what was coerced; a well-formed one says nothing."""
        payload = {"choices": [{"message": {"content": content}}]}
        if usage is not NO_USAGE:
            payload["usage"] = usage
        gw, calls = self._gateway(monkeypatch, payload)
        resp = gw.complete(req())
        assert (resp.text, resp.coerced) == (text, coerced)
        assert resp.usage == tokens and gw.tokens_consumed == tokens.total
        assert [entry.usage for entry in gw.ledger.entries] == [tokens] and len(calls) == 1
        assert all(type(count) is int for count in tokens.to_dict().values())
        resp.text.encode("utf-8")
        payload = {"choices": [{"message": {"content": "proof \ud83d\ude00"}}], "usage": BILLED}  # a pair, not a lone surrogate
        assert not self._gateway(monkeypatch, payload)[0].complete(req()).coerced

    def test_unpriced_backend_rejected_before_any_call(self):
        with pytest.raises(ValueError, match="no price configured for backend 'http'"):
            ModelGateway(HttpBackend("http://localhost:9/v1/chat", "m", "key"), token_budget=10_000)
        with pytest.raises(ValueError, match="'scripted'"):
            ModelGateway(ScriptedBackend([]), token_budget=10_000, price_table=PriceTable({}))

    def test_well_formed_payload(self, monkeypatch):
        payload = {
            "choices": [{"message": {"content": "proof"}}],
            "usage": {"prompt_tokens": 7, "completion_tokens": 5},
        }
        gw, _ = self._gateway(monkeypatch, payload)
        resp = gw.complete(req())
        assert resp.text == "proof" and resp.usage == Usage(7, 5, 0)
        assert gw.tokens_consumed == 12

    def test_importing_the_cli_loads_no_http_stack(self):
        """``urllib`` is imported when a request is sent, so a scripted solve
        never pays for loading ``http.client``, ``ssl`` and ``email``."""
        import proofpipe

        src = str(Path(proofpipe.__file__).resolve().parent.parent)
        probe = "import sys, proofpipe.cli; print(sorted({'urllib.request', 'http.client', 'ssl'} & sys.modules.keys()))"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"
