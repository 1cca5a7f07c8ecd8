"""Deterministic mock chat provider for offline, reproducible runs.

The mock recognizes the three stage prompts by their system text and
answers from a keyword rulebook (gazetteers of species, locations,
ecosystems, and habitats shipped as package data). Responses are a pure
function of the (system, user) pair: identical prompts always yield
identical text. Papers whose title and abstract contain no species
keyword are treated as outside the domain and answered with N/A.
"""

from __future__ import annotations

import json
import re
from importlib import resources

from .schema import _STANDARD_FIELDS, BLOCK_NAMES, _canon_block


def load_rulebook() -> dict:
    """The packaged gazetteers keyed by entity kind."""
    raw = resources.files("ecomine.data").joinpath("rulebook.json").read_text(encoding="utf-8")
    return json.loads(raw)


class MockProvider:
    """Rulebook-driven provider; see module docstring."""

    provider_id = "mock"

    def __init__(self, rulebook: dict | None = None) -> None:
        self.rulebook = rulebook if rulebook is not None else load_rulebook()

    def send(self, system: str, user: str, deterministic: bool = True) -> str:
        if "semantic modeling" in system:
            return self._generalize(user)
        if "predefined schema" in system:
            return self._extract(user)
        return self._specialize(user)

    # -- stage handlers ----------------------------------------------------

    def _specialize(self, user: str) -> str:
        found = self._scan(user)
        if not found["species"]:
            return "N/A"
        blocks: dict = {
            "species": _descriptor_list(
                [("name", "text", [])]
                + _observed_enum("role", found["species"])
                + _observed_enum("taxonomy_level", found["species"])
                + ([("impact", "text", [])] if any(
                    entry.get("role") == "invasive" for entry in found["species"]
                ) else [])
            )
        }
        if found["locations"]:
            key = "location" if len(found["locations"]) == 1 else "locations"
            blocks[key] = _descriptor_list(
                [("name", "text", [])]
                + _observed_enum("category", found["locations"])
                + _observed_enum("geopolitical_info", found["locations"])
                + ([("coordinates", "text", [])] if any(
                    entry.get("geopolitical_info") == "city" for entry in found["locations"]
                ) else [])
            )
        if found["ecosystems"]:
            key = "ecosystem" if len(found["ecosystems"]) == 1 else "ecosystems"
            blocks[key] = _descriptor_list(
                [("name", "text", [])]
                + _observed_enum("type", found["ecosystems"])
                + _observed_enum("scope", found["ecosystems"])
            )
        if found["habitats"]:
            key = "habitat" if len(found["habitats"]) == 1 else "habitats"
            blocks[key] = _descriptor_list(
                [("name", "text", [])]
                + _observed_enum("type", found["habitats"])
                + [("subcomponent_of", "reference", []), ("specifics", "text", [])]
            )
        if sum(len(found[kind]) for kind in found) >= 2:
            blocks["relationships"] = _descriptor_list(
                [
                    ("related_entities", "list", []),
                    ("name", "text", []),
                    ("type", "enum", ["biological", "ecological"]),
                    ("directionality", "enum", ["unidirectional", "bidirectional"]),
                    ("context", "text", []),
                ]
            )
        body = json.dumps(blocks, ensure_ascii=False, sort_keys=True, indent=2)
        return f"```json\n{body}\n```"

    def _generalize(self, user: str) -> str:
        start = user.find("[")
        end = user.rfind("]")
        if start < 0 or end <= start:
            return "N/A"
        try:
            instances = json.loads(user[start : end + 1])
        except json.JSONDecodeError:
            return "N/A"

        # Union of everything observed, laid over the standard fields; no
        # prevalence threshold, so this intentionally keeps more fields
        # than a frequency-based merge would.
        merged: dict[str, dict[str, dict]] = {b: {} for b in BLOCK_NAMES}
        for instance in instances:
            if not isinstance(instance, dict):
                continue
            for raw_block, fields in instance.items():
                block = _canon_block(str(raw_block))
                if block is None or not isinstance(fields, list):
                    continue
                for descriptor in fields:
                    if not isinstance(descriptor, dict):
                        continue
                    name = str(descriptor.get("field") or descriptor.get("name") or "").strip()
                    if not name:
                        continue
                    slot = merged[block].setdefault(
                        name, {"field": name, "kind": str(descriptor.get("kind", "text")), "values": set()}
                    )
                    slot["values"].update(str(v) for v in descriptor.get("values", []) or [])

        out: dict[str, list[dict]] = {}
        for block in BLOCK_NAMES:
            fields: list[dict] = []
            for name, kind, values in _STANDARD_FIELDS[block]:
                observed = merged[block].pop(name, None)
                all_values = list(values)
                if observed:
                    all_values += sorted(v for v in observed["values"] if v not in values)
                doc = {"field": name, "kind": kind}
                if all_values:
                    doc["values"] = all_values
                fields.append(doc)
            for name in sorted(merged[block]):
                slot = merged[block][name]
                doc = {"field": name, "kind": slot["kind"]}
                if slot["values"]:
                    doc["values"] = sorted(slot["values"])
                fields.append(doc)
            out[block] = fields
        return json.dumps(out, ensure_ascii=False, sort_keys=True, indent=2)

    def _extract(self, user: str) -> str:
        found = self._scan(user)
        if not found["species"]:
            return "N/A"
        result = {
            "species": found["species"],
            "locations": found["locations"],
            "ecosystems": found["ecosystems"],
            "habitats": found["habitats"],
            "relationships": self._relationships(found),
        }
        return json.dumps(result, ensure_ascii=False, sort_keys=True, indent=2)

    # -- helpers -----------------------------------------------------------

    def _scan(self, user: str) -> dict[str, list[dict]]:
        """Match gazetteer names against the prompt's title and abstract."""
        match = re.search(r"\nTitle: (.*?)\nAbstract: (.*)", user, re.DOTALL)
        text = f"{match.group(1)} {match.group(2)}" if match else user
        return {
            "species": self._match(text, "species"),
            "locations": self._match(text, "locations"),
            "ecosystems": self._match(text, "ecosystems"),
            "habitats": self._match(text, "habitats"),
        }

    def _match(self, text: str, kind: str) -> list[dict]:
        # A lowercase substring test cannot miss a match when text and name
        # are both ASCII; Unicode case folding (ſ, ı, İ, the Kelvin sign)
        # needs the regex.
        folded = text.lower() if text.isascii() else None
        entries = []
        for name in sorted(self.rulebook.get(kind, {})):
            if folded is not None and name.isascii() and name.lower() not in folded:
                continue
            pattern = rf"(?<![A-Za-z0-9]){re.escape(name)}(?![A-Za-z0-9])"
            if re.search(pattern, text, re.IGNORECASE):
                entry = {"name": name}
                entry.update(self.rulebook[kind][name])
                entries.append(entry)
        return entries

    @staticmethod
    def _relationships(found: dict[str, list[dict]]) -> list[dict]:
        species = found["species"]
        rels = []
        if species and found["locations"]:
            a, b = species[0]["name"], found["locations"][0]["name"]
            rels.append(_rel([a, b], "established in", "ecological", "unidirectional", f"{a} reported from {b}"))
        if species and found["habitats"]:
            a, b = species[0]["name"], found["habitats"][0]["name"]
            rels.append(_rel([a, b], "occupies", "biological", "unidirectional", f"{a} occupies {b}"))
        elif species and found["ecosystems"]:
            a, b = species[0]["name"], found["ecosystems"][0]["name"]
            rels.append(_rel([a, b], "invades", "ecological", "unidirectional", f"{a} spreading in {b}"))
        if len(species) >= 2:
            a, b = species[0]["name"], species[1]["name"]
            rels.append(_rel([a, b], "co-occurs with", "biological", "bidirectional", f"{a} found alongside {b}"))
        return rels


def _rel(entities: list[str], name: str, kind: str, direction: str, context: str) -> dict:
    return {
        "related_entities": entities,
        "name": name,
        "type": kind,
        "directionality": direction,
        "context": context,
    }


def _descriptor_list(fields: list[tuple[str, str, list[str]]]) -> list[dict]:
    out = []
    for name, kind, values in fields:
        doc: dict = {"field": name, "kind": kind}
        if values:
            doc["values"] = values
        out.append(doc)
    return out


def _observed_enum(prop: str, entries: list[dict]) -> list[tuple[str, str, list[str]]]:
    values = sorted({entry[prop] for entry in entries if entry.get(prop)})
    if not values:
        return []
    return [(prop, "enum", values)]
