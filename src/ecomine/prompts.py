"""Prompt construction for the three pipeline stages.

Prompt wording lives in plain-text template files under templates/ and
is treated as configuration; the three-section system layout (Role,
Task instruction, Output format) and the title/abstract user layout are
the fixed contract. Builders are pure: the same inputs always produce
the same PromptPair.
"""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources
from typing import Sequence

from .corpus import PaperRecord, dumps
from .errors import PromptError
from .gateway import PromptPair
from .schema import CandidateSchema, StandardizedSchema, ensure_valid_schema, schema_to_dict, schema_to_json


@lru_cache(maxsize=None)
def load_template(name: str) -> str:
    """Read one template file shipped with the package."""
    return resources.files("ecomine.templates").joinpath(name).read_text(encoding="utf-8")


def _fill(template: str, mapping: dict[str, str]) -> str:
    """Substitute {placeholders} in a single pass.

    A one-pass regex keeps substituted text (which may itself contain
    braces) from being rescanned.
    """
    pattern = re.compile(r"\{(" + "|".join(map(re.escape, mapping)) + r")\}")
    return pattern.sub(lambda match: mapping[match.group(1)], template)


def build_paper_user_prompt(paper: PaperRecord) -> str:
    if not paper.title or not paper.title.strip():
        raise PromptError(f"paper {paper.doi} has no title")
    if not paper.abstract:
        raise PromptError(f"paper {paper.doi} has no abstract; extraction reads abstracts only")
    return _fill(load_template("user_paper.txt"), {"title": paper.title, "abstract": paper.abstract})


def build_specialize_prompt(paper: PaperRecord) -> PromptPair:
    """Prompt asking for a schema proposal tailored to one paper."""
    return PromptPair(
        system=load_template("specialize_system.txt"),
        user=build_paper_user_prompt(paper),
    )


def build_generalize_prompt(candidates: Sequence[CandidateSchema]) -> PromptPair:
    """Prompt asking for one standardized schema merging all candidates.

    Candidates are embedded verbatim, duplicates included; deduplication
    is a merge concern, not a prompt concern.
    """
    if len(candidates) < 2:
        raise PromptError(f"merging needs at least 2 candidate schemas, got {len(candidates)}")
    serialized = dumps([schema_to_dict(candidate) for candidate in candidates], document=True)
    user = _fill(
        load_template("user_generalize.txt"),
        {"count": str(len(candidates)), "schemas": serialized},
    )
    return PromptPair(system=load_template("generalize_system.txt"), user=user)


def build_extract_system_prompt(schema: StandardizedSchema) -> str:
    """System prompt carrying the standardized schema; one per extract run."""
    ensure_valid_schema(schema)
    return _fill(load_template("extract_system.txt"), {"schema": schema_to_json(schema)})


def build_extract_prompt(paper: PaperRecord, schema: StandardizedSchema) -> PromptPair:
    """Prompt asking to populate the standardized schema for one paper."""
    return PromptPair(system=build_extract_system_prompt(schema), user=build_paper_user_prompt(paper))
