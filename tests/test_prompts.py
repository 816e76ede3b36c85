"""Template registry: slot substitution, errors, purity."""
import dataclasses
import json
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from proofpipe.gateway import ROLES
from proofpipe.prompts import (
    EMPTY_MARKER,
    MissingSlot,
    PromptRegistry,
    PromptTemplate,
    UnknownSlot,
)

slot_free_text = st.text(
    alphabet=st.characters(blacklist_characters="{}"), min_size=1, max_size=80
)


def test_all_roles_load(registry):
    manifest = json.loads((resources.files("proofpipe") / "templates" / "manifest.json").read_text(encoding="utf-8"))
    assert sorted(manifest) == sorted(ROLES)
    for role in ROLES:
        assert registry.get(role).body


def test_solver_substitution_with_empty_materials(registry):
    out = registry.render("solver", {"problem": "P", "additional_materials": ""})
    assert "P" in out
    assert EMPTY_MARKER in out  # blank optional slot renders the marker
    assert "{{slot:" not in out


def test_combiner_all_four_slots(registry):
    out = registry.render(
        "judge",
        {"problem": "P", "solution_a": "XXA", "solution_b": "YYB", "additional_materials": "MMM"},
    )
    for token in ("P", "XXA", "YYB", "MMM"):
        assert token in out
    assert out.index("XXA") < out.index("YYB")  # A slot precedes B slot


def test_missing_required_slot(registry):
    with pytest.raises(MissingSlot) as err:
        registry.render("grader", {})
    assert err.value.name == "problem"


def test_unknown_slot_rejected(registry):
    with pytest.raises(UnknownSlot):
        registry.render("processor", {"solution": "x", "bogus": "y"})


def test_absent_optional_defaults_to_marker(registry):
    out = registry.render("solver", {"problem": "P"})
    assert EMPTY_MARKER in out


def test_template_declares_slots_it_lacks():
    with pytest.raises(ValueError):
        PromptTemplate(
            id="broken",
            body="no slots here",
            required_slots=frozenset({"problem"}),
            optional_slots=frozenset(),
        )


def test_a_value_that_holds_another_slots_token_is_inserted_verbatim(registry):
    slots = {"problem": "P", "solution_a": "A says {{slot:solution_b}}", "solution_b": "BBB", "additional_materials": "M"}
    out = registry.render("judge", slots)
    assert "A says {{slot:solution_b}}" in out
    assert out.count("BBB") == 1


def test_materials_that_quote_the_problem_token_keep_it(registry):
    out = registry.render("solver", {"problem": "PPP", "additional_materials": "Restate {{slot:problem}} first."})
    assert "Restate {{slot:problem}} first." in out
    assert out.count("PPP") == registry.get("solver").body.count("{{slot:problem}}")

@given(problem=slot_free_text, materials=slot_free_text)
def test_values_appear_exactly_once_per_occurrence(registry, problem, materials):
    template = registry.get("grader")
    marker_p = "⟪P⟫" + problem
    marker_m = "⟪M⟫" + materials
    out = template.render(
        {"problem": marker_p, "solution": "S", "additional_materials": marker_m}
    )
    assert out.count(marker_p) == template.body.count("{{slot:problem}}")
    if marker_m.strip():
        assert out.count(marker_m) == template.body.count("{{slot:additional_materials}}")


@given(problem=slot_free_text)
def test_rendering_is_pure(registry, problem):
    slots = {"problem": problem, "additional_materials": "m"}
    assert registry.render("solver", slots) == registry.render("solver", slots)


def test_override_changes_body_and_version(registry):
    templates = {role: registry.get(role) for role in ROLES}
    templates["solver"] = dataclasses.replace(templates["solver"], body="custom body {{slot:problem}}")
    custom = PromptRegistry(templates)
    assert custom.render("solver", {"problem": "Z"}) == "custom body Z"
    assert custom.version() != registry.version()


def test_version_is_stable(registry):
    assert registry.version() == PromptRegistry.load().version()


def test_output_contract_markers_shipped(registry):
    # the machine-readable anchors the engine depends on
    assert "NO_ISSUES" in registry.get("processor").body
    assert "<decision>A</decision>" in registry.get("judge").body
    assert "MUST have the same length" in registry.get("parser").body
    assert "Final Grade" in registry.get("grader").body
