"""Prompt template registry.

Templates are data files, one per role, shipped under ``templates/`` with a
manifest that maps each role of :data:`proofpipe.gateway.ROLES` to its file
and declares its required and optional slots. The manifest alone decides
which template serves a role. Slots use
the sentinel syntax ``{{slot:name}}``, chosen so no plausible math or LaTeX
text collides with it. Rendering is pure substitution: slot values are
inserted verbatim, nothing else in the body is rewritten.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from importlib import resources
from typing import Mapping

SLOT_OPEN = "{{slot:"
SLOT_CLOSE = "}}"
EMPTY_MARKER = "(none provided)"
_SLOT_RE = re.compile(re.escape(SLOT_OPEN) + r"(\w+)" + re.escape(SLOT_CLOSE))


class MissingSlot(KeyError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


class UnknownSlot(KeyError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


def _slot_token(name: str) -> str:
    return f"{SLOT_OPEN}{name}{SLOT_CLOSE}"


@dataclass(frozen=True)
class PromptTemplate:
    id: str
    body: str
    required_slots: frozenset[str]
    optional_slots: frozenset[str]

    def __post_init__(self) -> None:
        # Required slots must sit in the body; optional ones need not.
        for name in sorted(self.required_slots):
            if _slot_token(name) not in self.body:
                raise ValueError(f"template {self.id}: required slot {name!r} missing from body")

    def render(self, slots: Mapping[str, str]) -> str:
        """Substitute slot values into the body.

        Required slots must be present. Optional slots that are absent or
        blank render as the literal empty marker. Passing a slot the
        template does not declare is an error, and a value that is not a
        string raises ``TypeError``.
        """
        declared = self.required_slots | self.optional_slots
        for name in sorted(slots):
            if name not in declared:
                raise UnknownSlot(name)
            if not isinstance(slots[name], str):
                raise TypeError(f"slot {name!r} is not a string: {slots[name]!r}")
        for name in sorted(self.required_slots):
            if name not in slots:
                raise MissingSlot(name)
        values = {name: slots[name] for name in self.required_slots}
        for name in self.optional_slots:
            value = slots.get(name, "")
            values[name] = value if value.strip() else EMPTY_MARKER
        # One pass over the body's tokens: a value that holds a slot token
        # is inserted as it is.
        return _SLOT_RE.sub(lambda m: values.get(m.group(1), m.group(0)), self.body)


class PromptRegistry:
    """The prompt template of each role."""

    def __init__(self, templates: dict[str, PromptTemplate]):
        self._templates = dict(templates)

    @classmethod
    def load(cls) -> "PromptRegistry":
        """Load the shipped templates."""
        root = resources.files("proofpipe") / "templates"
        manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
        templates: dict[str, PromptTemplate] = {}
        for role_id, entry in manifest.items():
            templates[role_id] = PromptTemplate(
                id=role_id,
                body=(root / entry["file"]).read_text(encoding="utf-8"),
                required_slots=frozenset(entry["required"]),
                optional_slots=frozenset(entry.get("optional", [])),
            )
        return cls(templates)

    def get(self, role_id: str) -> PromptTemplate:
        if role_id not in self._templates:
            raise KeyError(f"no template registered for {role_id!r}")
        return self._templates[role_id]

    def render(self, role_id: str, slots: Mapping[str, str]) -> str:
        return self.get(role_id).render(slots)

    def version(self) -> str:
        """Digest over every template body; guards checkpoint compatibility."""
        h = hashlib.sha256()
        for role_id in sorted(self._templates):
            h.update(role_id.encode("utf-8"))
            h.update(self._templates[role_id].body.encode("utf-8"))
        return h.hexdigest()[:16]
