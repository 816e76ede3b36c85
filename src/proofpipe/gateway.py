"""Uniform interface to text-generation backends.

One ``ModelGateway`` fronts a backend (a hosted HTTP API or the
deterministic :class:`ScriptedBackend`), meters every call into an
append-only :class:`CostLedger`, and enforces a hard token budget.

Money is exact decimal throughout: per-call cost is computed with
:class:`decimal.Decimal` and totals are exact sums, so a ledger of any
size shows zero float drift. The token budget is enforced at admission: a
call is admitted while the tokens consumed plus the ``max_output_tokens``
reserved by calls in flight stay under the budget. In the default mode a
run overshoots by less than one call's ``max_output_tokens`` plus whatever
the calls in flight use beyond their reservations. Strict mode also
reserves the new call's ``max_output_tokens``; since no reservation covers
a prompt, it overshoots by at most the prompt tokens of the calls in
flight. Nested fork/join groups are one tree of lanes (:class:`Lane`),
which the gateway forks and joins, so it alone admits and meters calls.
Every later leaf of a group spends ahead of its turn only within a share
of its own, so what it is admitted does not depend on how far the leaves
before it have got, and holds its records (:meth:`Lane.record`) until the
join commits them in leaf order.
"""
from __future__ import annotations

import json
import re
import threading
import time
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from typing import Callable, Optional, Sequence

from .core import Record

MICRO = Decimal(1_000_000)

ROLES = ("solver", "grader", "extractor", "parser", "processor", "judge")

LONE_SURROGATE = re.compile("[\ud800-\udfff]")  # JSON may escape one; UTF-8 cannot encode it, nor a digest hash it


class BudgetExceeded(Exception):
    """Raised when a call is requested after the token budget is spent.

    It ends the run; what finished before it is already in the run's state,
    which grows as each state event is recorded.
    """

    def __init__(self, message: str = "token budget exhausted"):
        super().__init__(message)


class CallFailed(Exception):
    """A model call gave no usable reply.

    It ends only the unit of work that made the call (a branch, a bisection
    side, an extraction, a grade, the judge); the run records it and goes
    on. Budget exhaustion is not a call failure: it ends the run.
    """


def failure_text(exc: BaseException) -> str:
    """An error as failure records store it: ``Type: message``."""
    return f"{type(exc).__name__}: {exc}"


class BackendFailure(CallFailed):
    """A backend call failed permanently (after retries)."""


class TransientBackendError(Exception):
    """A backend call failed in a retryable way."""


class ScriptError(CallFailed):
    """The scripted backend had no rule left for a request."""


@dataclass(frozen=True)
class ModelRequest:
    role: str
    prompt: str
    temperature: float
    max_output_tokens: int
    run_id: str = ""
    lane: Optional[Lane] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_output_tokens <= 0:
            raise ValueError("max_output_tokens must be positive")


@dataclass(frozen=True)
class Usage(Record):
    input_tokens: int
    output_tokens: int
    thinking_tokens: int = 0

    def __post_init__(self) -> None:
        counts = (self.input_tokens, self.output_tokens, self.thinking_tokens)
        if not all(type(count) is int and count >= 0 for count in counts):
            raise ValueError(f"token counts must be ints >= 0, not {counts!r}")

    @property
    def total(self) -> int:
        return self.input_tokens + self.output_tokens + self.thinking_tokens


@dataclass(frozen=True)
class ModelResponse:
    text: str
    usage: Usage
    backend_id: str
    latency_ms: float = 0.0
    coerced: str = ""  # what was changed to make the reply text (its call event records it)


@dataclass(frozen=True)
class Price:
    input_usd_per_million: Decimal
    output_usd_per_million: Decimal

    def __post_init__(self) -> None:
        if self.input_usd_per_million < 0 or self.output_usd_per_million < 0:
            raise ValueError("prices must be >= 0")


class PriceTable:
    """Per-backend USD rates per million tokens."""

    def __init__(self, prices: Optional[dict[str, Price]] = None):
        self._prices = dict(prices or {})

    @classmethod
    def from_config(cls, raw: dict[str, dict]) -> "PriceTable":
        if not isinstance(raw, dict):
            raise ValueError(f"the price table is not a table of backends: {raw!r}")
        prices = {}
        for backend_id, entry in raw.items():
            try:
                prices[backend_id] = Price(
                    input_usd_per_million=Decimal(str(entry["input_usd_per_million"])),
                    output_usd_per_million=Decimal(str(entry["output_usd_per_million"])),
                )
            except (InvalidOperation, TypeError):  # TypeError: an entry that is not a table of rates
                raise ValueError(f"the price of {backend_id!r} is not two numbers: {entry!r}") from None
        return cls(prices)

    def __contains__(self, backend_id: str) -> bool:
        return backend_id in self._prices

    def get(self, backend_id: str) -> Price:
        if backend_id not in self._prices:
            raise KeyError(f"no price configured for backend {backend_id!r}")
        return self._prices[backend_id]


# Rates used by the shipped demos. "flat-10" is the generic
# 10 USD/M-token rate that round-number budget estimates are quoted at.
DEFAULT_PRICES = PriceTable(
    {
        "flat-10": Price(Decimal("10"), Decimal("10")),
        "hosted-large": Price(Decimal("1.25"), Decimal("10")),
        "hosted-small": Price(Decimal("0.30"), Decimal("2.50")),
        "hosted-batch": Price(Decimal("0.28"), Decimal("0.42")),
        "scripted": Price(Decimal("10"), Decimal("10")),
    }
)


def cost_of(usage: Usage, price: Price) -> Decimal:
    """Exact decimal cost of one call: in·rate/1e6 + out·rate/1e6."""
    return (
        Decimal(usage.input_tokens) * price.input_usd_per_million
        + Decimal(usage.output_tokens) * price.output_usd_per_million
    ) / MICRO


def estimate_max_budget(
    tokens_per_call: int,
    calls_per_round: int,
    rounds: int,
    parallel_runs: int,
    usd_per_million: Decimal | int | str,
) -> Decimal:
    """Worst-case spend for a looped, parallel pipeline shape.

    tokens/call x calls/round x rounds x parallel runs, priced at a flat
    per-million rate.
    """
    for v in (tokens_per_call, calls_per_round, rounds, parallel_runs):
        if v <= 0:
            raise ValueError("all shape inputs must be positive")
    rate = Decimal(str(usd_per_million))
    if rate <= 0:
        raise ValueError("rate must be positive")
    tokens = Decimal(tokens_per_call) * calls_per_round * rounds * parallel_runs
    return tokens * rate / MICRO


@dataclass(frozen=True)
class CostEntry:
    seq: int
    run_id: str
    role: str
    backend_id: str
    usage: Usage
    usd: Decimal

    def to_dict(self) -> dict:
        # Not a Record: ledger.json stores an entry flat, its usage inline and its usd a string.
        return {
            "seq": self.seq,
            "run_id": self.run_id,
            "role": self.role,
            "backend_id": self.backend_id,
            **self.usage.to_dict(),
            "usd": str(self.usd),
        }


class CostLedger:
    """Append-only record of every metered call.

    Totals are always exact decimal sums over the entries; the ledger is
    internally serialized so concurrent callers interleave cleanly.
    ``to_dict`` is the form of ``ledger.json``, which the benchmark reads.
    """

    def __init__(self) -> None:
        self._entries: list[CostEntry] = []
        self._lock = threading.Lock()

    def append(self, run_id: str, role: str, backend_id: str, usage: Usage, usd: Decimal) -> CostEntry:
        with self._lock:
            entry = CostEntry(
                seq=len(self._entries),
                run_id=run_id,
                role=role,
                backend_id=backend_id,
                usage=usage,
                usd=usd,
            )
            self._entries.append(entry)
            return entry

    @property
    def entries(self) -> tuple[CostEntry, ...]:
        with self._lock:
            return tuple(self._entries)

    def grand_total(self) -> Decimal:
        return sum((e.usd for e in self.entries), Decimal(0))

    def total_by_role(self) -> dict[str, Decimal]:
        totals: dict[str, Decimal] = {}
        for e in self.entries:
            totals[e.role] = totals.get(e.role, Decimal(0)) + e.usd
        return totals

    def total_by_run(self) -> dict[str, Decimal]:
        totals: dict[str, Decimal] = {}
        for e in self.entries:
            totals[e.run_id] = totals.get(e.run_id, Decimal(0)) + e.usd
        return totals

    def total_tokens(self) -> int:
        return sum(e.usage.total for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "entries": [e.to_dict() for e in self.entries],
            "totals": {
                "by_role": {k: str(v) for k, v in sorted(self.total_by_role().items())},
                "by_run": {k: str(v) for k, v in sorted(self.total_by_run().items())},
                "grand": str(self.grand_total()),
            },
        }

    def to_csv(self) -> str:
        lines = ["seq,run_id,role,backend_id,input_tokens,output_tokens,thinking_tokens,usd"]
        for e in self.entries:
            u = e.usage
            lines.append(
                f"{e.seq},{e.run_id},{e.role},{e.backend_id},"
                f"{u.input_tokens},{u.output_tokens},{u.thinking_tokens},{e.usd}"
            )
        for run, total in sorted(self.total_by_run().items()):
            lines.append(f"subtotal,{run},,,,,,{total}")
        lines.append(f"total,,,,,,,{self.grand_total()}")
        return "\n".join(lines) + "\n"


class Lane:
    """The calls of one leaf of a fork/join group, the tokens they may spend
    and the records they hold back: a node of the gateway's tree of lanes.

    The root lane holds the token budget as ``cap``. A group's first leaf
    charges its parent as it goes and records through it. Every later leaf
    holds its records (trace events, markers, ledger entries) until the
    join, which commits them into its parent in leaf order, and spends
    ahead of its turn within a share: a ``cap`` which the parent counts as
    spent (``ahead``), so no admission decision depends on how far
    concurrent leaves have got. A call past the share waits for the leaf's
    turn; then the share joins its parent, which from then on counts what
    the leaf really spent. ``used`` is what calls have consumed and reserved
    here and below. A leaf may fork a group of its own, whose lanes know it
    as ``parent``. The gateway's lock guards every count; ``ScriptedBackend``
    calls ``wait_turn`` before answering a request whose reply depends on
    the order of earlier calls.
    """

    def __init__(self, parent: Optional["Lane"], earlier: Sequence["Lane"], cap: int = 0):
        self.parent = parent
        self._earlier = tuple(earlier)
        self.done = threading.Event()
        self.cap = cap
        self.used = 0
        self.ahead = bool(self._earlier)  # a later leaf's share, which its parent counts as ``cap``
        self.held: list[tuple[Callable, tuple]] = []  # a later leaf's records, committed at the join

    def record(self, write: Callable, *args) -> None:
        """Call ``write(*args)`` where the sequential order puts it: held by
        the nearest later leaf at or above this lane, or at once on the root
        chain."""
        lane = self
        while lane.parent is not None:
            if lane._earlier:
                lane.held.append((write, args))
                return
            lane = lane.parent
        write(*args)

    def charge(self, tokens: int) -> None:
        """Add ``tokens`` here and to every lane that counts this one as it is."""
        lane: Optional[Lane] = self
        while lane is not None:
            lane.used += tokens
            lane = None if lane.ahead else lane.parent

    def deciding(self) -> "Lane":
        """The lane that admits this one's calls: the nearest share, or the root."""
        lane = self
        while not lane.ahead and lane.parent is not None:
            lane = lane.parent
        return lane

    def join(self) -> None:
        """Stop being a share: the parent counts what was really spent."""
        if self.ahead:
            self.ahead = False
            self.parent.charge(self.used - self.cap)

    def wait_turn(self) -> None:
        """Block until every earlier leaf has finished, in this lane's group
        and in the group of each lane above it: then every call that comes
        before this lane's next call in the sequential order has been made."""
        lane: Optional[Lane] = self
        while lane is not None:
            for earlier in lane._earlier:
                earlier.done.wait()
            lane = lane.parent


@dataclass
class ScriptRule:
    """One scripted behavior: a role plus optional prompt matcher.

    ``match`` is a substring, a list of substrings that must all be
    present, or None (matches any prompt for the role). ``responses`` are
    consumed in order; with ``repeat_last`` the final response answers all
    further hits (the cursor stays at its index), otherwise an exhausted
    rule is skipped so a later rule can take over.
    """

    role: str
    match: str | Sequence[str] | None
    responses: list[dict]
    repeat_last: bool = False
    cursor: int = field(default=0, init=False)  # run state: moved by take, set by ScriptedBackend.restore

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"script rule has unknown role {self.role!r} (roles: {', '.join(ROLES)})")
        if type(self.repeat_last) is not bool:
            raise ValueError(f"script rule for role {self.role!r} has a 'repeat_last' that is not true or false")
        if self.match is not None and not isinstance(self.match, str) and not (
            isinstance(self.match, (list, tuple)) and all(isinstance(needle, str) for needle in self.match)
        ):
            raise ValueError(f"script rule for role {self.role!r} has a 'match' that is not a string or a list of strings")
        if not self.responses:
            raise ValueError(f"script rule for role {self.role!r} has no responses")
        for response in self.responses:
            if not isinstance(response, dict) or not ("text" in response or response.get("fail")):
                raise ValueError(f"script rule for role {self.role!r} has a response with neither 'text' nor 'fail'")
            if "text" in response and not isinstance(response["text"], str):
                raise ValueError(f"script rule for role {self.role!r} has a response whose 'text' is not a string")
            usage = response.get("usage")
            if usage is not None and not (
                isinstance(usage, dict)
                and usage.keys() <= {"input_tokens", "output_tokens", "thinking_tokens"}
                and all(type(count) is int and count >= 0 for count in usage.values())
            ):
                raise ValueError(
                    f"script rule for role {self.role!r} has a response whose 'usage' is not a dict of non-negative"
                    f" ints under input_tokens, output_tokens and thinking_tokens: {usage!r}"
                )

    def matches(self, req: ModelRequest) -> bool:
        if req.role != self.role:
            return False
        if self.match is None:
            return True
        needles = [self.match] if isinstance(self.match, str) else list(self.match)
        return all(n in req.prompt for n in needles)

    def exhausted(self) -> bool:
        return not self.repeat_last and self.cursor >= len(self.responses)

    def settled(self) -> bool:
        """True once every further hit gets the same reply, whatever the order."""
        return self.repeat_last and self.cursor >= len(self.responses) - 1

    def take(self) -> dict:
        idx = min(self.cursor, len(self.responses) - 1) if self.repeat_last else self.cursor
        if not self.settled():
            self.cursor += 1
        return self.responses[idx]

    def to_dict(self) -> dict:
        # Not a Record: the script form, which has no cursor and a free-form ``match``.
        return {
            "role": self.role,
            "match": list(self.match) if isinstance(self.match, (list, tuple)) else self.match,
            "responses": self.responses,
            "repeat_last": self.repeat_last,
        }


def _synthetic_usage(prompt: str, text: str, declared: Optional[dict]) -> Usage:
    """A rule's declared counts; one it leaves out is a quarter of the prompt's or reply's length, or 0 thinking."""
    counts = {"input_tokens": max(1, len(prompt) // 4), "output_tokens": max(1, len(text) // 4)}
    return Usage.from_dict({**counts, **(declared or {})})


class ScriptedBackend:
    """Deterministic canned backend: the test and replay oracle.

    Rules are scanned in order; the first non-exhausted match answers.
    The same script driven by the same request sequence always yields the
    same response sequence. Cursor state can be snapshotted and restored,
    which is what makes checkpoint resume bit-identical.

    Replies follow logical call order, not arrival order. A request made
    for a leaf of a fork/join group whose first matching rule is not yet
    settled waits until the earlier leaves of its group, and of every group
    above it, have finished (:meth:`Lane.wait_turn`), so every reply that
    depends on a cursor is handed out in the order a sequential, leaf-by-leaf
    run would ask for it. Settled rules answer at once: their reply is the
    same whichever leaf asks first, and their cursor no longer moves.
    """

    backend_id = "scripted"

    def __init__(self, rules: Sequence[ScriptRule]):
        self._rules = list(rules)
        self._lock = threading.Lock()

    def _match(self, req: ModelRequest) -> Optional[ScriptRule]:
        for rule in self._rules:
            if rule.matches(req) and not rule.exhausted():
                return rule
        return None

    def complete(self, req: ModelRequest) -> ModelResponse:
        if req.lane is not None:
            with self._lock:
                rule = self._match(req)
            # Cursors only grow, so a settled first match stays settled and
            # no other rule can take its place while the lock is released.
            if rule is not None and not rule.settled():
                req.lane.wait_turn()
        with self._lock:
            rule = self._match(req)
            if rule is None:
                raise ScriptError(f"no scripted response for role={req.role!r} prompt={req.prompt[:80]!r}")
            entry = rule.take()
        if entry.get("fail"):
            raise TransientBackendError(entry.get("text", "scripted failure"))
        text = entry["text"]
        return ModelResponse(
            text=text,
            usage=_synthetic_usage(req.prompt, text, entry.get("usage")),
            backend_id=self.backend_id,
            latency_ms=0.0,
        )

    def snapshot(self) -> list[int]:
        """The rules' cursors. A ``repeat_last`` rule's never passes its last
        response index; a spent rule without it is at ``len(responses)``."""
        with self._lock:
            return [r.cursor for r in self._rules]

    def restore(self, cursors: Sequence[int]) -> None:
        with self._lock:
            if len(cursors) != len(self._rules):
                raise ValueError("cursor snapshot does not match script shape")
            for rule, cur in zip(self._rules, cursors):
                rule.cursor = cur

    def to_dict(self) -> dict:
        return {"rules": [r.to_dict() for r in self._rules]}

    @classmethod
    def from_dict(cls, d: dict) -> "ScriptedBackend":
        # A script is input, so each rule is checked as it loads and a bad one is named.
        rules = []
        for index, r in enumerate(d["rules"]):
            try:
                json.dumps(r, ensure_ascii=False).encode("utf-8")  # refuses a lone surrogate, which UTF-8 cannot encode
                rules.append(ScriptRule(**{**r, "match": r.get("match")}))
            except (TypeError, ValueError) as exc:  # a bad rule: unknown or missing keys, or bad responses
                raise ValueError(f"{exc} (rule {index} of the script)") from None
        return cls(rules)

    @classmethod
    def from_file(cls, path) -> "ScriptedBackend":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


class HttpBackend:
    """Minimal JSON-over-HTTP chat backend (OpenAI-style request shape).

    Only text in / text out; no streaming, no provider extras.
    """

    def __init__(self, endpoint: str, model: str, api_key: str, backend_id: str = "http"):
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.backend_id = backend_id

    def complete(self, req: ModelRequest) -> ModelResponse:
        import urllib.error  # here, not at the top: a scripted solve never loads http, ssl or email
        import urllib.request

        body = json.dumps(
            {
                "model": self.model,
                "messages": [{"role": "user", "content": req.prompt}],
                "temperature": req.temperature,
                "max_tokens": req.max_output_tokens,
            }
        ).encode("utf-8")
        http_req = urllib.request.Request(
            self.endpoint,
            data=body,
            headers={
                "Content-Type": "application/json",
                "Authorization": f"Bearer {self.api_key}",
            },
        )
        start = time.monotonic()
        try:
            with urllib.request.urlopen(http_req, timeout=600) as resp:
                payload = json.load(resp)
        except urllib.error.HTTPError as exc:
            # A client error other than timeout or rate limiting (bad key,
            # bad request) fails the same way on every retry.
            if 400 <= exc.code < 500 and exc.code not in (408, 429):
                raise BackendFailure(f"HTTP {exc.code}: {exc.reason}") from exc
            raise TransientBackendError(str(exc)) from exc
        except Exception as exc:  # noqa: BLE001 - network errors are retryable
            raise TransientBackendError(str(exc)) from exc
        latency = (time.monotonic() - start) * 1000
        try:
            text = payload["choices"][0]["message"]["content"]
            counts = payload.get("usage", {})
            usage = Usage(*(counts.get(key, 0) for key in ("prompt_tokens", "completion_tokens", "reasoning_tokens")))
        except (KeyError, IndexError, TypeError, AttributeError, ValueError) as exc:
            raise BackendFailure(f"malformed response payload: {exc!r}") from exc
        # The provider billed this reply, so it is metered and recorded; its role's parse rules judge it.
        coerced = ""
        if not isinstance(text, str):
            text, coerced = "", f"content {type(text).__name__} read as an empty reply"
        elif LONE_SURROGATE.search(text):
            text, coerced = LONE_SURROGATE.sub("\ufffd", text), "lone surrogates read as U+FFFD"
        return ModelResponse(text, usage, self.backend_id, latency, coerced)


class ModelGateway:
    """Meters calls against a backend into its ledger; owns the tree of
    lanes, whose root holds the token budget.

    ``complete`` is safe for concurrent callers: admission, the ledger
    append and the budget decrement are linearizable. Completed retries
    consume budget; failed attempts do not.
    """

    def __init__(
        self,
        backend,
        token_budget: int,
        price_table: PriceTable = DEFAULT_PRICES,
        retry_attempts: int = 3,
        strict_budget: bool = False,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if token_budget <= 0:
            raise ValueError("token_budget must be positive")
        if retry_attempts < 1:
            raise ValueError("retry_attempts must be >= 1")
        # Pricing an unpriced call would fail after its tokens were counted.
        if backend.backend_id not in price_table:
            raise ValueError(f"no price configured for backend {backend.backend_id!r}")
        self.backend = backend
        self.price_table = price_table
        self.retry_attempts = retry_attempts
        self.strict_budget = strict_budget
        self._sleep = sleep
        self.root = Lane(None, (), token_budget)
        self.ledger = CostLedger()  # every committed call's entry
        self._consumed = 0  # counted apart from the lanes, so the ledger can be checked against it
        self._lock = threading.Lock()

    @property
    def tokens_consumed(self) -> int:
        with self._lock:
            return self._consumed

    def restore(self, ledger: CostLedger) -> None:
        """Continue from ``ledger`` (rebuilt from a trace on resume): it becomes
        this gateway's ledger, and its token total the tokens consumed."""
        with self._lock:
            if self.root.used != self._consumed:
                raise RuntimeError("cannot restore accounting with calls in flight")
            self.ledger = ledger
            self._consumed = self.root.used = ledger.total_tokens()

    def fork(self, parent: Lane, leaves: int, reserve: int) -> list[Lane]:
        """The lanes of a group of ``leaves`` forked under ``parent``. The
        lane that decides ``parent``'s calls (:meth:`Lane.deciding`) keeps
        ``reserve`` tokens for each earlier leaf, and each later leaf gets an
        equal share of the rest, counted as spent in ``parent``; the first
        leaf spends from ``parent`` and records through it."""
        lanes = [Lane(parent, ())]
        later = leaves - 1
        if later:
            with self._lock:
                left = parent.deciding()
                part = max(0, left.cap - left.used - later * reserve) // later
                parent.charge(part * later)
            for _ in range(later):
                lanes.append(Lane(parent, lanes, part))
        return lanes

    def join(self, lanes: Sequence[Lane]) -> None:
        """End the group of ``lanes`` (:meth:`fork`) once every leaf has
        finished: each share joins its parent, and then each later leaf's
        held records are recorded into its parent, in leaf order."""
        with self._lock:
            for lane in lanes[1:]:
                lane.join()
        for lane in lanes[1:]:
            for write, args in lane.held:
                lane.parent.record(write, *args)

    def _fits(self, lane: Lane, tokens: int) -> bool:
        # A share admits a call only while its max_output_tokens fit; the
        # root does so only in strict mode.
        if lane.ahead or self.strict_budget:
            return lane.used + tokens <= lane.cap
        return lane.used < lane.cap

    def _admit(self, req: ModelRequest) -> Lane:
        """Reserve the request's ``max_output_tokens``; return the lane charged."""
        lane = req.lane or self.root
        reserve = req.max_output_tokens
        with self._lock:
            deciding = lane.deciding()
            if self._fits(deciding, reserve):
                lane.charge(reserve)
                return lane
        if not deciding.ahead:
            raise BudgetExceeded()
        # Past its share: once every leaf before the share's has finished,
        # each share on the way up joins its parent and the call is admitted
        # as if the leaves had run one after another.
        deciding.wait_turn()
        with self._lock:
            while lane.deciding().ahead:
                lane.deciding().join()
            if not self._fits(lane.deciding(), reserve):
                raise BudgetExceeded()
            lane.charge(reserve)
            return lane

    def _settle(self, req: ModelRequest, lane: Lane, usage: Optional[Usage]) -> None:
        with self._lock:
            lane.charge((usage.total if usage is not None else 0) - req.max_output_tokens)
            if usage is not None:
                self._consumed += usage.total

    def complete(self, req: ModelRequest) -> ModelResponse:
        lane = self._admit(req)
        usage: Optional[Usage] = None
        try:
            response = self._call_with_retry(req)
            usage = response.usage
        finally:
            self._settle(req, lane, usage)
        price = self.price_table.get(response.backend_id)
        lane.record(self.ledger.append, req.run_id, req.role, response.backend_id, usage, cost_of(usage, price))
        return response

    def _call_with_retry(self, req: ModelRequest) -> ModelResponse:
        last: Optional[Exception] = None
        for attempt in range(self.retry_attempts):
            try:
                return self.backend.complete(req)
            except TransientBackendError as exc:
                last = exc
                if attempt + 1 < self.retry_attempts:
                    self._sleep(0.5 * (2**attempt))
        raise BackendFailure(f"backend failed after {self.retry_attempts} attempts: {last}")
