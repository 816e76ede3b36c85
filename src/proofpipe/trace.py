"""Append-only run trace with checkpoint markers.

Events are JSONL-friendly dicts: an envelope (seq, ts, run id, phase, kind,
payload digest) around a JSON payload; a trace line holds all but the
digest, which follows from the payload. The digest covers only the payload,
never the envelope, so wall-clock timestamps do not break replay
comparison. The trace is the only store of run state: a checkpoint is a
small marker (loop position, id counters, scripted cursors and its own seq)
recorded as an event, and resuming from it folds the events before it.
When the trace is backed by a file, each marker is also written to
``checkpoints/<id>.json`` next to it. The later leaves of a fork/join group
do not write yet: each holds its ``append`` and ``checkpoint`` calls in its
lane (:meth:`~proofpipe.gateway.Lane.record`) until the group joins, and a
held marker gets its seq, and its file, when it lands here. A fact that
follows from others is not stored: the budget left at an event is the
header's ``token_budget`` minus the usage of the call events up to it.

A model call's event holds its ``role`` and ``slots`` but not the rendered
prompt: rendering is pure and the header pins ``template_version``, so
``registry.render(role, slots)`` rebuilds the exact prompt.

Long texts repeat (the graded text is the draft, a ``solution`` event holds
the regrade's text, the script attachment holds every scripted reply), so a
trace line stores each string of at least :data:`TEXT_MIN` characters, at
any depth of its payload, as a reference to the text, and the text itself
once per trace, in the ``texts`` map of the first line that uses it, keyed
by its address (the sha256 of the text). A ``result`` line stays plain: it
is the run's readable answer. A long text that holds a newline goes into
``texts`` as the list of its lines, and each line follows the same rule: a
short one stays inline, and a long one is a reference to a text stored once
per trace (a new one in the same ``texts`` map, before the text that uses
it). Prompts quote earlier proofs one to a line (solver contexts, the
judge's history), so a quoted proof is stored once however often it is
quoted. A reference is ``{"$text": k}``, where ``k`` numbers the texts in
the order the file stores them, from 0 (schema 12; schema 11 and older name
the text by its address, and :meth:`RunTrace.load` still reads that). A
payload's own dict whose only key is ``$text`` or ``$lit`` is stored as
``{"$lit": <the dict>}``, so a reader never takes it for a reference.

A line stores no digest: the event's digest is the sha256 of the canonical
JSON of its payload with each long text as ``{"$text": <address>}``, which
``append`` hashes before it writes the numbers, and :meth:`RunTrace.load`
hashes again once it has put each number's address back. So the digest
depends only on the event, never on what the trace held before or how a
text is stored, and a payload edited in the file changes it. Events in
memory, including those :meth:`RunTrace.load` reads back, hold the full
texts.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, Optional

from .core import Record, text_digest

SCHEMA_VERSION = 12

# Strings this long or longer are stored once per trace, and referred to.
TEXT_MIN = 256

# The kinds whose payload a line stores as it is: a result is the run's readable answer.
PLAIN_KINDS = frozenset({"result"})

# A dict with one of these as its only key is read as a reference or a
# wrapper; a payload's own such dict is stored inside {"$lit": ...}.
_MARKERS = frozenset({"$text", "$lit"})

_ENVELOPE = frozenset({"seq", "ts", "run_id", "phase", "kind", "payload"})

# ``core.canonical_json`` and a compact dump, with one encoder each: ``json.dumps``
# builds an encoder per call, and ``append`` dumps up to three times per line.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode
_compact = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode


@dataclass(frozen=True)
class TraceEvent(Record):
    seq: int
    ts: float
    run_id: str
    phase: int
    kind: str
    digest: str
    payload: dict


def is_call(payload: dict) -> bool:
    """Whether ``payload`` is a model call's: it has a ``role`` and a ``usage``."""
    return "role" in payload and "usage" in payload


def _resolve(value: dict | list, texts: Mapping[str, str], numbered: list[str], puts: list) -> None:
    """Name by its address, in place, each text that a ``{"$text": k}``
    within ``value`` names by its number, and add to ``puts`` what goes back
    in each reference's place once the digest is taken: ``(container, key,
    text)`` for each reference and ``(container, key, dict)`` for each
    ``{"$lit": dict}``. A reference by address (schema 11 and older) is
    read as it is."""
    for key, item in value.items() if type(value) is dict else enumerate(value):
        if type(item) is dict and len(item) == 1:
            ((marker, inner),) = item.items()
            if marker == "$text":
                if type(inner) is int and 0 <= inner < len(numbered):
                    inner = numbered[inner]
                    item["$text"] = inner  # the digest covers the address
                elif type(inner) is not str or inner not in texts:
                    raise ValueError(f"no text stored for {item}")
                puts.append((value, key, texts[inner]))
                continue
            if marker == "$lit":
                puts.append((value, key, inner))
                item = inner
        if type(item) is dict or type(item) is list:
            _resolve(item, texts, numbered, puts)


def _put(puts: list) -> None:
    for container, key, item in puts:
        container[key] = item


def _event(record, texts: dict[str, str], numbered: list[str]) -> TraceEvent:
    """The event a trace line holds, with its digest and its texts put back.
    The line's own texts are checked against their addresses, join
    ``texts`` and are numbered in ``numbered`` in the order they are
    stored; a stored ``digest`` (schema 8 and older) is not read."""
    if not (
        isinstance(record, dict)
        and _ENVELOPE <= record.keys()
        and isinstance(record["payload"], dict)
        and isinstance(record.get("texts", {}), dict)
    ):
        raise ValueError("not a trace event")
    for address, text in record.get("texts", {}).items():
        if type(text) is list:  # a text stored as its lines
            puts = []
            _resolve(text, texts, numbered, puts)
            _put(puts)
            if not all(type(line) is str for line in text):
                raise ValueError(f"a line stored for {address} is neither a string nor an address")
            text = "\n".join(text)
        if not isinstance(text, str) or text_digest(text) != address:
            raise ValueError(f"the text stored for {address} does not match its address")
        texts[address] = text
        numbered.append(address)
    puts = []
    _resolve(record["payload"], texts, numbered, puts)
    event = TraceEvent.from_dict({**record, "digest": text_digest(_canonical(record["payload"]))})
    _put(puts)  # after the digest, which covers the payload with each text's address
    return event


class RunTrace:
    """Ordered event log for one pipeline invocation (possibly multi-run)."""

    def __init__(self, path: Optional[str | Path] = None, clock: Callable[[], float] = time.time):
        self.path = Path(path) if path else None
        self._clock = clock
        self.events: list[TraceEvent] = []
        self._file = None  # opened at the first append and kept open: one write and flush per event
        self._stored: dict[str, tuple[str, int]] = {}  # each long text stored so far -> its address and number
        if self.path:
            self.path.parent.mkdir(parents=True, exist_ok=True)

    @property
    def header(self) -> Optional[dict]:
        for ev in self.events:
            if ev.kind == "run_start":
                return ev.payload
        return None

    @property
    def checkpoints(self) -> Mapping[str, dict]:
        """The checkpoint markers recorded so far, by id, in trace order."""
        return MappingProxyType(
            {e.payload["checkpoint_id"]: e.payload["snapshot"] for e in self.events if e.kind == "checkpoint"}
        )

    def _addressed(self, kind: str, payload: dict) -> tuple[dict, dict[str, str | list], list[tuple[dict, int]]]:
        """``payload`` with each long text as ``{"$text": <address>}``, the
        form its digest covers; the texts that it is the first event to use,
        by address, each as it is stored: whole, or as its lines; and each
        reference in either, with the number of the text it names."""
        if kind in PLAIN_KINDS:
            return payload, {}, []
        stored_texts = self._stored
        new: dict[str, str | list] = {}
        refs: list[tuple[dict, int]] = []

        def ref(value):
            if isinstance(value, str):
                if len(value) < TEXT_MIN:
                    return value
                known = stored_texts.get(value)
                if known is None:
                    # A new text's lines are stored by the same rule, and numbered before the text.
                    stored = [ref(line) for line in value.split("\n")] if "\n" in value else value
                    known = stored_texts[value] = (text_digest(value), len(stored_texts))
                    new[known[0]] = stored
                reference = {"$text": known[0]}
                refs.append((reference, known[1]))
                return reference
            if isinstance(value, dict):
                stored = {key: ref(item) for key, item in value.items()}
                return {"$lit": stored} if len(value) == 1 and next(iter(value)) in _MARKERS else stored
            if isinstance(value, (list, tuple)):
                return [ref(item) for item in value]
            return value

        return {key: ref(item) for key, item in payload.items()}, new, refs

    def append(self, run_id: str, phase: int, kind: str, payload: dict) -> TraceEvent:
        stored, texts, refs = self._addressed(kind, payload)
        stored_json = _canonical(stored)
        event = TraceEvent(
            seq=len(self.events),
            ts=self._clock(),
            run_id=run_id,
            phase=phase,
            kind=kind,
            digest=text_digest(stored_json),
            payload=payload,
        )
        self.events.append(event)
        if self.path:
            if refs:  # the line names each text by its number; the digest covers its address
                numbers = {}
                for reference, number in refs:  # numbers the line lists, and ``stored``
                    numbers[reference["$text"]] = number
                    reference["$text"] = number
                # In canonical JSON, {"$text":"<address>"} is a one-key dict: a reference, or a
                # payload's own dict, which sits right inside its {"$lit": ...} wrapper.
                if '{"$lit":{"$text":"' in stored_json:
                    stored_json = _canonical(stored)
                else:
                    for address, number in numbers.items():
                        stored_json = stored_json.replace(f'{{"$text":"{address}"}}', f'{{"$text":{number}}}')
            head = {"seq": event.seq, "ts": event.ts, "run_id": run_id, "phase": phase, "kind": kind}
            if texts:
                head["texts"] = texts
            line = _compact(head)[:-1] + ',"payload":' + stored_json + "}\n"
            if self._file is None:
                self._file = self.path.open("a", encoding="utf-8")
            self._file.write(line)
            self._file.flush()
        return event

    def close(self) -> None:
        """Close the trace file; a later ``append`` opens it again."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def checkpoint(self, checkpoint_id: str, snapshot: dict, run_id: str, phase: int) -> None:
        """Record marker ``snapshot`` with ``seq`` set to its own event's seq."""
        snapshot = {**snapshot, "seq": len(self.events)}
        self.append(run_id, phase, "checkpoint", {"checkpoint_id": checkpoint_id, "snapshot": snapshot})
        if self.path:
            ckpt_dir = self.path.parent / "checkpoints"
            ckpt_dir.mkdir(parents=True, exist_ok=True)
            tmp = ckpt_dir / f".{checkpoint_id}.tmp"
            tmp.write_text(json.dumps(snapshot, ensure_ascii=False), encoding="utf-8")
            tmp.replace(ckpt_dir / f"{checkpoint_id}.json")

    def count(self, kind: str, run_id: Optional[str] = None) -> int:
        return sum(
            1
            for e in self.events
            if e.kind == kind and (run_id is None or e.run_id == run_id)
        )

    def of_kind(self, *kinds: str, run_id: Optional[str] = None) -> list[TraceEvent]:
        return [
            e
            for e in self.events
            if e.kind in kinds and (run_id is None or e.run_id == run_id)
        ]

    @classmethod
    def load(cls, path: str | Path) -> "RunTrace":
        """Read a trace back, with every text in place, dropping a torn
        last line (unterminated and unparseable, as a crash mid-append leaves
        it). Any other bad line raises ``ValueError``: one that is not an
        event, a text that does not match its address (a text stored as its
        lines is checked once they are joined), a stored line that is neither
        a string nor an address, a number or an address with no text before
        it."""
        trace = cls()
        texts: dict[str, str] = {}
        numbered: list[str] = []  # each stored text's address, by its number
        with Path(path).open("rb") as fh:
            for number, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    if not line.endswith(b"\n"):  # only the last line can lack one
                        break
                    raise
                try:
                    trace.events.append(_event(record, texts, numbered))
                except ValueError as exc:
                    raise ValueError(f"line {number}: {exc}") from None
        trace.path = None  # loaded traces are read-only views
        return trace


# Attachments carry run inputs (the backend script); they are not pipeline
# behavior, so replay comparison skips them.
ATTACHMENT_KINDS = frozenset({"script_attachment"})


def signature(trace: RunTrace) -> list[tuple[str, int, str, str]]:
    """The replay-comparable projection: (run, phase, kind, payload digest)."""
    return [
        (e.run_id, e.phase, e.kind, e.digest)
        for e in trace.events
        if e.kind not in ATTACHMENT_KINDS
    ]


def first_divergence(a: RunTrace, b: RunTrace) -> Optional[dict]:
    """None when traces replay identically, else a description of the first
    differing event."""
    sig_a, sig_b = signature(a), signature(b)
    for idx, (ea, eb) in enumerate(zip(sig_a, sig_b)):
        if ea != eb:
            return {
                "index": idx,
                "expected": {"run_id": ea[0], "phase": ea[1], "kind": ea[2], "digest": ea[3]},
                "actual": {"run_id": eb[0], "phase": eb[1], "kind": eb[2], "digest": eb[3]},
            }
    if len(sig_a) != len(sig_b):
        idx = min(len(sig_a), len(sig_b))
        return {
            "index": idx,
            "expected": None if idx >= len(sig_a) else {"kind": sig_a[idx][2]},
            "actual": None if idx >= len(sig_b) else {"kind": sig_b[idx][2]},
            "length": {"expected": len(sig_a), "actual": len(sig_b)},
        }
    return None
