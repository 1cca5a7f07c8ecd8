"""Seeded corpus and fixture generator for the benchmark.

Records are assembled from the packaged rulebook gazetteers (the entity
names the mock provider recognises) and from sentences of the packaged
sample corpus that name no gazetteer entity. Each record draws 0-3
species, locations, ecosystems and habitats; about 15% draw no species
and are therefore out of the extraction domain. The same seed always
writes byte-identical files.

Files written by ``write_inputs``:

* ``corpus.jsonl``     the records in the store's line-delimited format
* ``fixtures/``        one canned harvest response per resolvable DOI
* ``dois.txt``         the DOI list to ingest, with a few unresolvable,
                       malformed and resolver-prefixed entries
* ``ground_truth.json`` record counts the run is checked against
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import asdict, dataclass
from pathlib import Path

OUT_OF_DOMAIN_SHARE = 0.15
FULL_TEXT_SHARE = 0.22  # 2,834 of 12,636 records in the paper carry full text
MISSING_SHARE = 0.01
MALFORMED = ("doi:", "11.5555/not-a-doi", "ecomine-bench-0000")
PUBLISHERS = ("Springer", "Wiley", "Elsevier", "Taylor & Francis", "CSIRO Publishing")

SPECIES_SENTENCES = (
    "Long-term surveys across {n} lakes show {x} expanding while resident populations retreat to headwater refugia.",
    "Citizen-science records document the rapid spread of {x} over {n} seasons.",
    "We model the advancing invasion front of {x} using {n} years of road-survey data.",
    "Genetic assignment tests trace new {x} populations to shipping routes.",
    "Plot resurveys show {x} converting species-rich stands into monodominant thickets.",
    "Ovitrap networks confirm that {x} now overwinters at {n} of the monitored sites.",
    "Beam-trawl monitoring documents {x} dominating soft-bottom assemblages within {n} years.",
    "Field surveys quantify {x} densities across {n} plots and field margins.",
    "Transect studies show {x} forming dense stands along {n} surveyed reaches.",
    "Caging experiments demonstrate that {x} reduces juvenile survival by {n} percent.",
    "Hair-tube surveys show {x} persisting where canopy connectivity is retained.",
    "Kick-sample archives reveal {x} expanding into {n} catchments where it was historically absent.",
)
LOCATION_SENTENCES = (
    "Sampling was concentrated in {x}, where {n} sites were resurveyed.",
    "Invasion severity in {x} correlates with fire suppression and road density.",
    "Records from {x} span {n} years of monitoring.",
    "Stocking records from {x} were compiled for {n} catchments.",
)
ECOSYSTEM_SENTENCES = (
    "Spread accelerates through {x} modified by cattle grazing.",
    "Turnover within {x} is fastest downstream of interbasin water transfers.",
    "Reef accretion alters flow within {x} over {n} years.",
    "Colonization of {x} followed port connectivity rather than distance.",
)
HABITAT_SENTENCES = (
    "Trapping in {x} indicates competitive exclusion at {n} stations.",
    "Establishment is closely tied to {x} and adjacent margins.",
    "Densities peaked in {x} during late summer.",
)
TITLES_IN = (
    "Range expansion of {a}",
    "Displacement and decline: {a} in a changing landscape",
    "Spread and impacts of {a} across {n} survey sites",
    "Population dynamics of {a} over {n} years",
)
TITLES_OUT = (
    "Mapping {n} years of ecological publishing: a bibliometric study",
    "Seasonal heat storage in regional circulation models, run {n}",
    "Weak supervision for section labelling in {n} scientific PDFs",
    "Land-cover change detection from {n} satellite scenes",
)


@dataclass(frozen=True)
class GroundTruth:
    records: int
    in_domain: int
    out_of_domain: int
    with_full_text: int
    missing: int
    malformed: int

    def to_dict(self) -> dict:
        return asdict(self)


def _name_pattern(names) -> re.Pattern:
    alternatives = "|".join(re.escape(name) for name in sorted(names, key=len, reverse=True))
    return re.compile(rf"(?<![A-Za-z0-9])(?:{alternatives})(?![A-Za-z0-9])", re.IGNORECASE)


def filler_sentences(sample_corpus: Path, rulebook: dict) -> list[str]:
    """Sample-corpus sentences that name no gazetteer entity of any kind."""
    pattern = _name_pattern(name for kind in rulebook.values() for name in kind)
    sentences: list[str] = []
    for line in sample_corpus.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        abstract = json.loads(line).get("abstract") or ""
        for sentence in re.split(r"(?<=\.)\s+", abstract):
            if sentence and not pattern.search(sentence) and sentence not in sentences:
                sentences.append(sentence)
    if len(sentences) < 8:
        raise ValueError(f"sample corpus yields only {len(sentences)} entity-free sentences")
    return sentences


def generate_records(seed: int, n_records: int, rulebook: dict, fillers: list[str]) -> list[dict]:
    """Records as plain documents, DOI-sorted; record i has DOI suffix i."""
    rng = random.Random(seed)
    names = {kind: sorted(rulebook[kind]) for kind in ("species", "locations", "ecosystems", "habitats")}
    abstracts: set[str] = set()
    records = []
    for index in range(n_records):
        in_domain = rng.random() >= OUT_OF_DOMAIN_SHARE
        picks = {
            "species": rng.sample(names["species"], rng.randint(1, 3)) if in_domain else [],
            "locations": rng.sample(names["locations"], rng.randint(0, 3)),
            "ecosystems": rng.sample(names["ecosystems"], rng.randint(0, 3)),
            "habitats": rng.sample(names["habitats"], rng.randint(0, 3)),
        }
        sentences = [
            rng.choice(templates).format(x=name, n=rng.randint(2, 400))
            for kind, templates in (
                ("species", SPECIES_SENTENCES),
                ("locations", LOCATION_SENTENCES),
                ("ecosystems", ECOSYSTEM_SENTENCES),
                ("habitats", HABITAT_SENTENCES),
            )
            for name in picks[kind]
        ]
        rng.shuffle(sentences)
        sentences += rng.sample(fillers, rng.randint(1, min(8, len(fillers))))
        abstract = " ".join(sentences)
        while abstract in abstracts:
            abstract += " " + rng.choice(fillers)
        abstracts.add(abstract)

        if in_domain:
            title = rng.choice(TITLES_IN).format(a=picks["species"][0], n=rng.randint(2, 60))
        else:
            title = rng.choice(TITLES_OUT).format(n=rng.randint(2, 60))
        doc = {
            "doi": f"10.5555/ecomine-bench.{index:05d}",
            "title": title,
            "abstract": abstract,
            "year": rng.randint(1995, 2024),
            "publisher": rng.choice(PUBLISHERS),
            "in_domain": in_domain,
        }
        if rng.random() < FULL_TEXT_SHARE:
            body = rng.choices(fillers, k=rng.randint(10, 40))
            doc["full_text"] = "Full text body. " + abstract + " " + " ".join(body)
        records.append(doc)
    return records


def _dump(doc: dict) -> str:
    return json.dumps(doc, ensure_ascii=False, sort_keys=True)


def write_inputs(
    out_dir: Path,
    seed: int,
    n_records: int,
    rulebook_path: Path,
    sample_corpus: Path,
    fixture_filename,
) -> tuple[list[dict], GroundTruth]:
    """Write corpus, fixtures, DOI list and ground truth under out_dir.

    fixture_filename maps a DOI to the harvest fixture file name the
    program expects. Returns the records (with their ``in_domain`` flag)
    and the ground truth.
    """
    rulebook = json.loads(rulebook_path.read_text(encoding="utf-8"))
    records = generate_records(seed, n_records, rulebook, filler_sentences(sample_corpus, rulebook))
    rng = random.Random(seed ^ 0x5EED)

    out_dir.mkdir(parents=True, exist_ok=True)
    fixtures = out_dir / "fixtures"
    fixtures.mkdir(exist_ok=True)
    corpus_lines = []
    dois = []
    for doc in records:
        body = {k: v for k, v in doc.items() if k not in ("doi", "in_domain")}
        corpus_lines.append(_dump({"doi": doc["doi"], "source": "imported", **body}) + "\n")
        (fixtures / fixture_filename(doc["doi"])).write_text(_dump(body) + "\n", encoding="utf-8")
        prefix = rng.choice(("", "", "", "https://doi.org/", "doi:"))
        dois.append(prefix + doc["doi"])
    missing = max(1, round(n_records * MISSING_SHARE))
    dois += [f"10.5555/ecomine-bench.missing.{i:04d}" for i in range(missing)]
    dois += list(MALFORMED)
    rng.shuffle(dois)

    (out_dir / "corpus.jsonl").write_text("".join(corpus_lines), encoding="utf-8")
    (out_dir / "dois.txt").write_text("".join(d + "\n" for d in dois), encoding="utf-8")
    truth = GroundTruth(
        records=n_records,
        in_domain=sum(1 for doc in records if doc["in_domain"]),
        out_of_domain=sum(1 for doc in records if not doc["in_domain"]),
        with_full_text=sum(1 for doc in records if "full_text" in doc),
        missing=missing,
        malformed=len(MALFORMED),
    )
    (out_dir / "ground_truth.json").write_text(
        json.dumps(truth.to_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return records, truth
