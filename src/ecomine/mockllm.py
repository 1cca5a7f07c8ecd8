"""Deterministic mock chat provider for offline, reproducible runs.

The mock recognizes the three stage prompts by their system text and
answers from a keyword rulebook (gazetteers of species, locations,
ecosystems, and habitats shipped as package data). Responses are a pure
function of the (system, user) pair: identical prompts always yield
identical text. Papers whose title and abstract contain no species
keyword are treated as outside the domain and answered with N/A.

A name matches case-insensitively where no ASCII letter or digit sits on
either side of it. On an ASCII text an ASCII name is tested without a
regex: its first word must be one of the text's words, and then its
lowercase form must occur in the lowercase text with both sides clear.
Only a non-ASCII text or name needs Unicode case folding, so only then
does the name's boundary regex run (through re's cache): on an ASCII
corpus the packaged rulebook runs none.
"""

from __future__ import annotations

import json
import re
from importlib import resources

from .corpus import dumps
from .schema import _STANDARD_FIELDS, BLOCK_NAMES, FieldSpec, _canon_block, _fields_from_block_value

# Found kind -> (block name for a single entry, enum fields read off the
# entries, extra fields, and the (property, value) an entry must carry for
# the extras; None adds them always). The found kinds double as the
# plural block names and as the extraction result's keys.
_PROPOSALS = {
    "species": ("species", ("role", "taxonomy_level"), (FieldSpec("impact"),), ("role", "invasive")),
    "locations": (
        "location", ("category", "geopolitical_info"), (FieldSpec("coordinates"),), ("geopolitical_info", "city")
    ),
    "ecosystems": ("ecosystem", ("type", "scope"), (), None),
    "habitats": ("habitat", ("type",), (FieldSpec("subcomponent_of", "reference"), FieldSpec("specifics")), None),
}

# Proposed whenever two entities are found; its type values are the two
# the mock's relationships use, not the standard block's four.
_RELATIONSHIP_FIELDS = (
    FieldSpec("related_entities", "list"),
    FieldSpec("name"),
    FieldSpec("type", "enum", ("biological", "ecological")),
    FieldSpec("directionality", "enum", ("unidirectional", "bidirectional")),
    FieldSpec("context"),
)


def load_rulebook() -> dict:
    """The packaged gazetteers keyed by entity kind."""
    raw = resources.files("ecomine.data").joinpath("rulebook.json").read_text(encoding="utf-8")
    return json.loads(raw)


class MockProvider:
    """Rulebook-driven provider; see module docstring."""

    provider_id = "mock"
    remote = False  # in process, so LlmGateway does not pace it

    def __init__(self, rulebook: dict | None = None) -> None:
        self.rulebook = rulebook if rulebook is not None else load_rulebook()
        # Kind -> (name, lowercase form and its first word if ASCII, boundary
        # pattern, attributes) in name order.
        self._gazetteer: dict[str, list[tuple[str, str | None, bytes | None, str, dict]]] = {
            kind: [] for kind in _PROPOSALS
        }
        for kind, table in self._gazetteer.items():
            for name, attrs in sorted(self.rulebook.get(kind, {}).items()):
                lowered = name.lower() if name.isascii() else None
                words = _words(lowered) if lowered is not None else []
                pattern = rf"(?<![A-Za-z0-9]){re.escape(name)}(?![A-Za-z0-9])"
                table.append((name, lowered, words[0] if words else None, pattern, attrs))

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
        blocks: dict[str, list[dict]] = {}
        for kind, (block, enums, extras, trigger) in _PROPOSALS.items():
            entries = found[kind]
            if not entries:
                continue
            specs = [FieldSpec("name")]
            for prop in enums:
                values = sorted({entry[prop] for entry in entries if entry.get(prop)})
                if values:
                    specs.append(FieldSpec(prop, "enum", tuple(values)))
            if trigger is None or any(entry.get(trigger[0]) == trigger[1] for entry in entries):
                specs += extras
            blocks[block if len(entries) == 1 else kind] = [spec.to_dict() for spec in specs]
        if sum(map(len, found.values())) >= 2:
            blocks["relationships"] = [spec.to_dict() for spec in _RELATIONSHIP_FIELDS]
        return f"```json\n{dumps(blocks)}\n```"

    def _generalize(self, user: str) -> str:
        try:  # with no "[" before the last "]", the slice is "" or "]", which json.loads refuses too
            instances = json.loads(user[user.find("[") : user.rfind("]") + 1])
        except json.JSONDecodeError:
            return "N/A"

        # Union of everything observed, laid over the standard fields; no
        # prevalence threshold, so this intentionally keeps more fields
        # than a frequency-based merge would. A field keeps its first kind.
        observed: dict[str, dict[str, tuple[str, set[str]]]] = {b: {} for b in BLOCK_NAMES}
        for instance in instances:
            for raw_block, value in instance.items() if isinstance(instance, dict) else ():
                block = _canon_block(str(raw_block))
                if block is not None:
                    for spec in _fields_from_block_value(value):
                        observed[block].setdefault(spec.name, (spec.kind, set()))[1].update(spec.values)

        out: dict[str, list[dict]] = {}
        for block in BLOCK_NAMES:
            seen = observed[block]
            specs = []
            for name, kind, values in _STANDARD_FIELDS[block]:
                extra = seen.pop(name, (kind, set()))[1].difference(values)
                specs.append(FieldSpec(name, kind, values + tuple(sorted(extra))))
            specs += [FieldSpec(name, kind, tuple(sorted(values))) for name, (kind, values) in sorted(seen.items())]
            out[block] = [spec.to_dict() for spec in specs]
        return dumps(out)

    def _extract(self, user: str) -> str:
        found = self._scan(user)
        if not found["species"]:
            return "N/A"
        return dumps({**found, "relationships": self._relationships(found)})

    # -- helpers -----------------------------------------------------------

    def _scan(self, user: str) -> dict[str, list[dict]]:
        """Match gazetteer names against the prompt's title and abstract."""
        match = re.search(r"\nTitle: (.*?)\nAbstract: (.*)", user, re.DOTALL)
        text = f"{match.group(1)} {match.group(2)}" if match else user
        folded = _fold(text)
        return {kind: self._match(text, kind, folded) for kind in _PROPOSALS}

    def _match(self, text: str, kind: str, folded: tuple[str | None, set[bytes]]) -> list[dict]:
        # `folded` is `_fold(text)`, which `_scan` computes once for the four
        # kinds. When text and name are both ASCII, a name matches exactly
        # where its lowercase form sits in the lowercase text with no [a-z0-9]
        # on either side, and then its first word is one of the text's words.
        # Unicode case folding (ſ, ı, İ, the Kelvin sign) needs the regex:
        # over a non-ASCII text for every name, and for a non-ASCII name.
        lowered_text, words = folded
        entries = []
        for name, lowered, word, pattern, attrs in self._gazetteer[kind]:
            if lowered_text is not None and lowered is not None:
                found = (word is None or word in words) and _bounded(lowered_text, lowered)
            else:
                found = re.search(pattern, text, re.IGNORECASE) is not None
            if found:
                entries.append({"name": name, **attrs})
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


_ALNUM = frozenset("abcdefghijklmnopqrstuvwxyz0123456789")
# Bytes table keeping lowercase ASCII letters and digits, any other byte a space.
_WORD_BYTES = bytes(b if chr(b) in _ALNUM else 0x20 for b in range(256))


def _words(lowered: str) -> list[bytes]:
    """The [a-z0-9] words of a lowercase ASCII string."""
    return lowered.encode().translate(_WORD_BYTES).split()


def _fold(text: str) -> tuple[str | None, set[bytes]]:
    """An ASCII text's lowercase form and the set of its letter-and-digit
    words; (None, empty set) for a non-ASCII text."""
    if not text.isascii():
        return None, set()
    lowered = text.lower()
    return lowered, set(_words(lowered))


def _bounded(text: str, name: str) -> bool:
    """Whether name occurs in text with no [a-z0-9] on either side."""
    start = text.find(name)
    while start >= 0:
        end = start + len(name)
        if text[start - 1 : start] not in _ALNUM and text[end : end + 1] not in _ALNUM:
            return True
        start = text.find(name, start + 1)
    return False


def _rel(entities: list[str], name: str, kind: str, direction: str, context: str) -> dict:
    return {
        "related_entities": entities,
        "name": name,
        "type": kind,
        "directionality": direction,
        "context": context,
    }

