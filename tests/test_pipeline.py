import builtins
import io
import json
import logging
import re
import threading
from pathlib import Path

import pytest

from conftest import SAMPLE_SEED, fast_policy, inline_then_threaded, waits_off_cpu
from faults import committed
from ecomine import analytics
from ecomine.corpus import CorpusStore, PaperRecord, encode
from ecomine.errors import (
    CheckpointError,
    CorpusError,
    InvalidSchemaError,
    SchemaParseError,
    StageFailure,
    TransportError,
)
from ecomine.gateway import LlmGateway
from ecomine.mockllm import MockProvider
from ecomine.pipeline import (
    Checkpoint,
    StageConfig,
    load_candidates,
    load_results,
    load_schema_file,
    run_extract,
    run_generalize,
    run_specialize,
)
from ecomine.schema import (
    ExtractionResult,
    candidate_to_dict,
    result_from_dict,
    schema_fingerprint,
    schema_to_dict,
    serialize_result,
    standard_schema,
)


def make_config(**kwargs):
    defaults = dict(
        sample_size=10,
        generalize_variants=3,
        parallelism=1,
        rate_policy=fast_policy(),
        rng_seed=SAMPLE_SEED,
    )
    defaults.update(kwargs)
    return StageConfig(**defaults)


class TestStageConfig:
    @pytest.mark.parametrize(
        "kwargs", [{"sample_size": 1}, {"generalize_variants": 0}, {"parallelism": 0}]
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            make_config(**kwargs)


class TestSpecialize:
    def test_demo_seed_draws_one_out_of_domain_paper(self, sample_store, mock_gateway):
        outcome = run_specialize(sample_store, make_config(), mock_gateway)
        assert len(outcome.sampled_dois) == 10
        assert len(outcome.candidates) == 9
        assert list(outcome.quarantined) == ["10.5555/ecomine.0018"]

    def test_out_of_domain_paper_is_quarantined_as_out_of_scope(self, sample_store, mock_gateway):
        outcome = run_specialize(sample_store, make_config(), mock_gateway)
        assert outcome.quarantined == {
            "10.5555/ecomine.0018": "specialize reply for 10.5555/ecomine.0018 is N/A: the paper is out of scope"
        }

    def test_same_seed_same_output(self, sample_store, mock_gateway):
        first = run_specialize(sample_store, make_config(), mock_gateway)
        second = run_specialize(sample_store, make_config(), mock_gateway)
        assert first.sampled_dois == second.sampled_dois
        assert [candidate_to_dict(c) for c in first.candidates] == [
            candidate_to_dict(c) for c in second.candidates
        ]

    def test_exhaustive_sample_is_seeded_shuffle(self, sample_store, mock_gateway):
        config = make_config(sample_size=len(sample_store))
        outcome = run_specialize(sample_store, config, mock_gateway)
        assert sorted(outcome.sampled_dois) == [r.doi for r in sample_store.records()]
        assert outcome.sampled_dois != sorted(outcome.sampled_dois)  # shuffled, not sorted

    def test_too_few_eligible_papers(self, mock_gateway):
        store = CorpusStore([PaperRecord(doi="10.1/a", title="t", abstract="x")])
        with pytest.raises(StageFailure):
            run_specialize(store, make_config(sample_size=5), mock_gateway)

    def test_exclusion_list_respected(self, sample_store, mock_gateway):
        excluded = set(run_specialize(sample_store, make_config(), mock_gateway).sampled_dois[:2])
        outcome = run_specialize(sample_store, make_config(), mock_gateway, excluded_dois=excluded)
        assert not excluded & set(outcome.sampled_dois)

    @pytest.mark.parametrize(
        "form", [str.upper, "https://doi.org/{}".format, "doi:{}".format], ids=["uppercase", "resolver", "scheme"]
    )
    def test_exclusion_in_any_doi_form_respected(self, sample_store, mock_gateway, form):
        # compared as raw strings, an excluded DOI not written in normalized form was still drawn
        first = run_specialize(sample_store, make_config(), mock_gateway).sampled_dois[0]
        outcome = run_specialize(sample_store, make_config(), mock_gateway, excluded_dois=[form(first)])
        assert first not in outcome.sampled_dois

    def test_exclusion_matches_a_stored_doi_as_written(self, mock_gateway):
        store = CorpusStore([PaperRecord(doi=doi, title="t", abstract="x") for doi in ("10.1/A", "10.1/b")])
        with pytest.raises(StageFailure, match="store has 1$"):
            run_specialize(store, make_config(sample_size=2), mock_gateway, excluded_dois=["10.1/A"])

    def test_malformed_exclusion_refused_before_any_call(self, sample_store, mock_gateway):
        counting = FailAfter(mock_gateway, allow=10_000)
        with pytest.raises(CorpusError, match="malformed DOI: 'not a doi'"):
            run_specialize(sample_store, make_config(), counting, excluded_dois=["10.5555/ecomine.0001", "not a doi"])
        assert counting.calls == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_a_blank_abstract_is_never_drawn(self, mock_gateway, seed):
        # it was eligible, drawn, and then quarantined as having no abstract
        records = [PaperRecord(doi=f"10.1/p{i}", title="t", abstract="Procambarus clarkii") for i in range(3)]
        records.append(PaperRecord(doi="10.1/blank", title="t", abstract="  \n"))
        outcome = run_specialize(CorpusStore(records), make_config(sample_size=3, rng_seed=seed), mock_gateway)
        assert "10.1/blank" not in outcome.sampled_dois and not outcome.quarantined

    def test_all_responses_unusable_fails(self, sample_store):
        outcome_gateway = StubGateway("not a schema at all")
        with pytest.raises(StageFailure):
            run_specialize(sample_store, make_config(), outcome_gateway)

    def test_titleless_paper_quarantined(self, mock_gateway):
        records = [PaperRecord(doi=f"10.1/p{i}", title="t", abstract="Procambarus clarkii") for i in range(3)]
        records.append(PaperRecord(doi="10.1/untitled", title="", abstract="Rhinella marina"))
        outcome = run_specialize(CorpusStore(records), make_config(sample_size=4), mock_gateway)
        assert "10.1/untitled" in outcome.quarantined
        assert len(outcome.candidates) == 3

    @pytest.mark.parametrize("reply", ["", " \n", "```json\n```"], ids=["empty", "blank", "empty-fence"])
    def test_empty_reply_is_quarantined_as_empty(self, sample_store, mock_gateway, reply):
        outcome = run_specialize(sample_store, make_config(), FirstReply(reply, mock_gateway))
        doi = outcome.sampled_dois[0]
        assert outcome.quarantined[doi] == f"empty candidate schema document for {doi}"

    def test_lone_surrogate_in_reply_is_quarantined_by_doi(self, sample_store, mock_gateway):
        # the JSON escape decodes to a lone surrogate, which the candidates file cannot hold
        first = FirstReply('{"species": [{"field": "name\\ud800"}]}', mock_gateway)
        outcome = run_specialize(sample_store, make_config(), first)
        doi = outcome.sampled_dois[0]
        assert doi in outcome.quarantined[doi] and "UTF-8 cannot encode" in outcome.quarantined[doi]
        assert len(outcome.candidates) == 8
        for candidate in outcome.candidates:
            json.dumps(candidate_to_dict(candidate), ensure_ascii=False).encode("utf-8")


class StubGateway:
    """Gateway double returning one canned raw text for every prompt."""

    def __init__(self, raw_text):
        self.raw_text = raw_text

    def complete(self, prompt):
        return self.raw_text


class FirstReply:
    """Gateway wrapper answering the first prompt with a canned raw text."""

    def __init__(self, raw_text, inner):
        self.raw_text = raw_text
        self.inner = inner
        self.calls = 0

    def complete(self, prompt):
        self.calls += 1
        if self.calls == 1:
            return self.raw_text
        return self.inner.complete(prompt)


class RecordingProvider(MockProvider):
    """The mock, recording the determinism flag of every send."""

    def __init__(self):
        super().__init__()
        self.flags = []

    def send(self, system, user, deterministic=True):
        self.flags.append(deterministic)
        return super().send(system, user, deterministic=deterministic)


def test_every_stage_sends_deterministically(sample_store, tmp_path):
    provider = RecordingProvider()
    gateway = LlmGateway(provider, fast_policy(), sleep=lambda s: None)
    config = make_config()
    candidates = run_specialize(sample_store, config, gateway).candidates
    assert provider.flags == [True] * 10
    schema = run_generalize(candidates, config, gateway).chosen
    assert provider.flags == [True] * 13
    summary = run_extract(sample_store, schema, config, gateway, results_path=tmp_path / "r.jsonl")
    assert provider.flags == [True] * (13 + summary.processed)


@pytest.fixture
def nine_candidates(sample_store, mock_gateway):
    return run_specialize(sample_store, make_config(), mock_gateway).candidates


class TestGeneralize:
    def test_three_variants_plus_oracle(self, nine_candidates, mock_gateway):
        outcome = run_generalize(nine_candidates, make_config(), mock_gateway)
        assert len(outcome.variants) == 4
        assert outcome.chosen_index == 0
        for variant in outcome.variants:
            assert set(variant.blocks) == {"species", "location", "ecosystem", "habitat", "relationships"}

    def test_single_variant(self, nine_candidates, mock_gateway):
        outcome = run_generalize(nine_candidates, make_config(generalize_variants=1), mock_gateway)
        assert len(outcome.variants) == 2

    def test_selection_recorded(self, nine_candidates, mock_gateway):
        outcome = run_generalize(nine_candidates, make_config(), mock_gateway, selection=2)
        assert outcome.chosen_index == 2
        assert outcome.chosen is outcome.variants[2]

    def test_selection_out_of_range(self, nine_candidates, mock_gateway):
        with pytest.raises(StageFailure):
            run_generalize(nine_candidates, make_config(), mock_gateway, selection=9)

    @pytest.mark.parametrize("selection", [99, -1, 4])
    def test_selection_out_of_range_refused_before_any_call(self, nine_candidates, mock_gateway, selection):
        # checked only after the calls, a selection no variant could have made all 3 of them first
        counting = FailAfter(mock_gateway, allow=10_000)
        with pytest.raises(StageFailure, match=f"variant selection {selection} out of range"):
            run_generalize(nine_candidates, make_config(), counting, selection=selection)
        assert counting.calls == 0

    def test_selection_made_unreachable_by_a_discarded_variant(self, nine_candidates, mock_gateway):
        with pytest.raises(StageFailure, match=r"variant selection 3 out of range \(have 3 variants\)"):
            run_generalize(nine_candidates, make_config(), FirstReply("garbage", mock_gateway), selection=3)

    def test_selected_variant_binds_checkpoint_fingerprint(
        self, nine_candidates, sample_store, mock_gateway, tmp_path
    ):
        outcome = run_generalize(nine_candidates, make_config(), mock_gateway, selection=2)
        checkpoint_path = tmp_path / "sel.ckpt.json"
        run_extract(
            sample_store, outcome.chosen, make_config(), mock_gateway,
            results_path=tmp_path / "sel.jsonl", checkpoint_path=checkpoint_path,
        )
        checkpoint = Checkpoint.load(checkpoint_path)
        assert checkpoint.schema_fingerprint == schema_fingerprint(outcome.variants[2])
        assert checkpoint.schema_fingerprint != schema_fingerprint(outcome.variants[0])

    def test_all_llm_variants_invalid_preserves_raws(self, nine_candidates):
        with pytest.raises(StageFailure) as excinfo:
            run_generalize(nine_candidates, make_config(), StubGateway("garbage"))
        assert excinfo.value.raw_responses == ["garbage"] * 3

    def test_variant_with_lone_surrogate_is_discarded(self, nine_candidates, mock_gateway):
        # a variant file could not hold the lone surrogate the JSON escape decodes to
        doc = schema_to_dict(standard_schema())
        doc["species"][0]["note"] = "\ud800"
        outcome = run_generalize(nine_candidates, make_config(), FirstReply(json.dumps(doc), mock_gateway))
        assert len(outcome.variants) == 3  # the oracle and variants 2 and 3
        assert outcome.raw_responses[0] == json.dumps(doc)

    def test_variant_prompts_are_tagged(self, nine_candidates):
        seen = []

        class Spy(StubGateway):
            def complete(self, prompt):
                seen.append(prompt.user)
                return "garbage"

        with pytest.raises(StageFailure):
            run_generalize(nine_candidates, make_config(), Spy("garbage"))
        assert "Generate variant 1 of 3." in seen[0]
        assert "Generate variant 3 of 3." in seen[2]


class FailAfter:
    """Gateway wrapper that injects a hard transport failure after a quota."""

    def __init__(self, inner, allow):
        self.inner = inner
        self.allow = allow
        self.calls = 0
        self.dois_seen = []
        self._lock = threading.Lock()

    def complete(self, prompt):
        with self._lock:
            self.calls += 1
            if self.calls > self.allow:
                raise TransportError("injected transport failure", 503)
        return self.inner.complete(prompt)


class TestExtract:
    def run_full(self, store, gateway, tmp_path, name="full", **config_kwargs):
        results = tmp_path / f"{name}.jsonl"
        checkpoint = tmp_path / f"{name}.ckpt.json"
        summary = run_extract(
            store,
            standard_schema(),
            make_config(**config_kwargs),
            gateway,
            results_path=results,
            checkpoint_path=checkpoint,
        )
        return summary, results, checkpoint

    def test_sample_corpus_tallies(self, sample_store, mock_gateway, tmp_path):
        summary, results_path, _ = self.run_full(sample_store, mock_gateway, tmp_path)
        assert (summary.extracted, summary.out_of_scope, summary.quarantined) == (17, 3, 0)
        assert summary.processed == 20
        assert len(load_results(results_path)) == 20

    def test_conservation(self, sample_store, mock_gateway, tmp_path):
        summary, _, _ = self.run_full(sample_store, mock_gateway, tmp_path)
        assert summary.extracted + summary.out_of_scope + summary.quarantined == summary.processed

    def test_results_file_sorted_and_deterministic(self, sample_store, mock_gateway, tmp_path):
        _, first, _ = self.run_full(sample_store, mock_gateway, tmp_path, name="a", parallelism=4)
        _, second, _ = self.run_full(sample_store, mock_gateway, tmp_path, name="b", parallelism=4)
        assert first.read_bytes() == second.read_bytes()
        dois = [json.loads(line)["doi"] for line in first.read_text().splitlines()]
        assert dois == sorted(dois)

    @pytest.mark.parametrize("kill_after", [1, 5, 13])
    def test_resume_equivalence(self, sample_store, mock_gateway, tmp_path, kill_after):
        _, baseline_path, _ = self.run_full(sample_store, mock_gateway, tmp_path, name="baseline")

        results = tmp_path / "resumed.jsonl"
        checkpoint = tmp_path / "resumed.ckpt.json"
        flaky = FailAfter(mock_gateway, allow=kill_after)
        with pytest.raises(TransportError):
            run_extract(
                sample_store,
                standard_schema(),
                make_config(),
                flaky,
                results_path=results,
                checkpoint_path=checkpoint,
            )
        assert checkpoint.exists()
        assert len(committed(results, checkpoint)) == kill_after

        resumed = FailAfter(mock_gateway, allow=10_000)
        summary = run_extract(
            sample_store,
            standard_schema(),
            make_config(),
            resumed,
            results_path=results,
            checkpoint_path=checkpoint,
        )
        assert (summary.extracted, summary.out_of_scope, summary.quarantined) == (17, 3, 0)
        assert results.read_bytes() == baseline_path.read_bytes()

    def test_resume_skips_already_processed(self, sample_store, mock_gateway, tmp_path):
        results = tmp_path / "skip.jsonl"
        checkpoint = tmp_path / "skip.ckpt.json"
        flaky = FailAfter(mock_gateway, allow=5)
        with pytest.raises(TransportError):
            run_extract(
                sample_store, standard_schema(), make_config(), flaky,
                results_path=results, checkpoint_path=checkpoint,
            )
        done_before = committed(results, checkpoint)

        counting = FailAfter(mock_gateway, allow=10_000)
        run_extract(
            sample_store, standard_schema(), make_config(), counting,
            results_path=results, checkpoint_path=checkpoint,
        )
        assert counting.calls == 20 - len(done_before)

    def test_titleless_paper_quarantined_not_fatal(self, mock_gateway, tmp_path):
        records = [
            PaperRecord(doi="10.1/ok", title="t", abstract="Procambarus clarkii spreading"),
            PaperRecord(doi="10.1/untitled", title="", abstract="Rhinella marina spreading"),
        ]
        summary = run_extract(
            CorpusStore(records), standard_schema(), make_config(), mock_gateway,
            results_path=tmp_path / "r.jsonl",
        )
        assert summary.extracted == 1
        assert summary.quarantined == 1
        assert summary.processed == 2

    def test_lone_surrogate_in_response_is_quarantined(self, tmp_path):
        # the JSON escape decodes to a lone surrogate, which UTF-8 cannot encode
        store = CorpusStore([PaperRecord(doi="10.1/s", title="t", abstract="Procambarus clarkii")])
        summary, results, checkpoint = self.run_full(store, StubGateway('{"species": [{"name": "\\ud800"}]}'), tmp_path)
        assert (summary.processed, summary.extracted, summary.quarantined) == (1, 0, 1)
        assert load_results(results) == ()
        assert "10.1/s" in quarantine_reasons(results)["10.1/s"]

        class Unreachable:
            def complete(self, prompt):
                raise AssertionError("a quarantined paper was sent again")

        again, _, _ = self.run_full(store, Unreachable(), tmp_path)
        assert again == summary

    @pytest.mark.parametrize("reply", ["", " \n", "```json\n```"], ids=["empty", "blank", "empty-fence"])
    def test_empty_reply_is_quarantined_as_empty(self, tmp_path, reply):
        store = CorpusStore([PaperRecord(doi="10.1/e", title="t", abstract="Procambarus clarkii")])
        summary, results, checkpoint = self.run_full(store, StubGateway(reply), tmp_path)
        assert (summary.processed, summary.quarantined) == (1, 1)
        assert quarantine_reasons(results) == {"10.1/e": "extraction response for 10.1/e: empty reply"}

    def test_unescaped_lone_surrogate_in_response_is_quarantined(self, tmp_path):
        # a provider's JSON envelope can decode to reply text holding the surrogate itself
        store = CorpusStore([PaperRecord(doi="10.1/s", title="t", abstract="Procambarus clarkii")])
        summary, results, checkpoint = self.run_full(store, StubGateway('{"species": [{"name": "A\ud800"}]}'), tmp_path)
        assert (summary.processed, summary.quarantined) == (1, 1)
        assert load_results(results) == ()
        assert "10.1/s" in quarantine_reasons(results)["10.1/s"]

    @pytest.mark.parametrize(
        "reply",
        [
            '{"status": "maybe", "species": [{"name": "Procambarus clarkii"}]}',
            '{"status": "quarantined"}',
            '{"status": null}',
            '{"status": "out_of_scope", "species": [{"name": "Procambarus clarkii"}]}',
        ],
        ids=["unknown", "quarantined", "not-a-string", "out-of-scope-with-entities"],
    )
    def test_reply_validate_would_refuse_is_quarantined(self, sample_store, tmp_path, reply):
        # copied into the results file, such a reply counted as extracted and failed validate
        summary, results, checkpoint = self.run_full(sample_store, StubGateway(reply), tmp_path)
        assert (summary.processed, summary.extracted, summary.out_of_scope, summary.quarantined) == (20, 0, 0, 20)
        assert load_results(results) == ()
        reasons = quarantine_reasons(results)
        assert len(reasons) == 20 and all(doi in reason for doi, reason in reasons.items())

    def test_fingerprint_mismatch_refused(self, sample_store, mock_gateway, tmp_path):
        results = tmp_path / "fp.jsonl"
        checkpoint = tmp_path / "fp.ckpt.json"
        Checkpoint(schema_fingerprint="not-the-same", results_lines=0).save(checkpoint)
        with pytest.raises(CheckpointError):
            run_extract(
                sample_store, standard_schema(), make_config(), mock_gateway,
                results_path=results, checkpoint_path=checkpoint,
            )

    def test_hard_failure_starts_no_further_call(self, sample_store, mock_gateway, tmp_path):
        flaky = FailAfter(mock_gateway, allow=7)
        with pytest.raises(TransportError):
            self.run_full(sample_store, flaky, tmp_path, name="stop")
        assert flaky.calls == 8  # seven answered, one failed, none of the twelve queued
        assert len(committed(tmp_path / "stop.jsonl", tmp_path / "stop.ckpt.json")) == 7

    def test_success_in_flight_at_failure_is_committed(self, mock_gateway, tmp_path):
        store = CorpusStore(
            PaperRecord(doi=f"10.1/p{index}", title=title, abstract="Procambarus clarkii spreading")
            for index, title in enumerate(("Waits", "Held", "Fails", "Queued"))
        )
        failure_seen = threading.Event()

        class OnFailureLog(logging.Handler):
            def emit(self, record):
                if "hard failure" in record.getMessage():
                    failure_seen.set()

        class HeldThenFails:
            """Paper Waits waits off the CPU, so the later calls run on worker
            threads; holds paper Held until the extract loop has taken paper
            Fails' failure."""

            def __init__(self):
                self.titles, self.threads = [], []

            def complete(self, prompt):
                title = re.search(r"Title: (\w+)", prompt.user).group(1)
                self.titles.append(title)
                self.threads.append(threading.current_thread())
                if title == "Waits":
                    return waits_off_cpu(mock_gateway.complete(prompt))
                if title == "Fails":
                    raise TransportError("injected transport failure", 503)
                assert failure_seen.wait(timeout=10), "the failure was never reported"
                return mock_gateway.complete(prompt)

        gateway = HeldThenFails()
        handler = OnFailureLog()
        logging.getLogger("ecomine.pipeline").addHandler(handler)
        try:
            with pytest.raises(TransportError):
                self.run_full(store, gateway, tmp_path, name="inflight", parallelism=2)
        finally:
            logging.getLogger("ecomine.pipeline").removeHandler(handler)

        assert sorted(gateway.titles) == ["Fails", "Held", "Waits"]
        assert inline_then_threaded(gateway.threads)
        lines = (tmp_path / "inflight.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["doi"] for line in lines] == ["10.1/p0", "10.1/p1"]

    def test_checkpoint_round_trip(self, tmp_path):
        checkpoint = Checkpoint(schema_fingerprint=schema_fingerprint(standard_schema()), results_lines=3)
        path = tmp_path / "ckpt.json"
        checkpoint.save(path)
        assert Checkpoint.load(path) == checkpoint


class TestFileLoaders:
    def test_candidates_round_trip(self, nine_candidates, tmp_path):
        path = tmp_path / "candidates.jsonl"
        payload = "".join(
            json.dumps({"doi": c.paper_doi, "blocks": candidate_to_dict(c)}, sort_keys=True) + "\n"
            for c in nine_candidates
        )
        path.write_text(payload, encoding="utf-8")
        loaded = load_candidates(path)
        assert [candidate_to_dict(c) for c in loaded] == [candidate_to_dict(c) for c in nine_candidates]

    def test_schema_file_round_trip(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(schema_to_dict(standard_schema())), encoding="utf-8")
        assert schema_to_dict(load_schema_file(path)) == schema_to_dict(standard_schema())

    @pytest.mark.parametrize(
        "text, error",
        [(b'{"species": [', SchemaParseError), (b'{"species": {}}', InvalidSchemaError), (b'{"species": [\xff]}', SchemaParseError)],
        ids=["truncated", "invalid", "undecodable"],
    )
    def test_schema_file_error_names_the_file_and_keeps_its_type(self, tmp_path, text, error):
        path = tmp_path / "bad_schema.json"
        path.write_bytes(text)
        with pytest.raises(error, match=re.escape(f"schema file {path}")):
            load_schema_file(path)

    @pytest.mark.parametrize("blocks", ['["species"]', '"species"', "null"], ids=["list", "string", "null"])
    def test_candidates_line_whose_blocks_is_not_an_object_names_file_and_line(self, tmp_path, blocks):
        path = tmp_path / "candidates.jsonl"
        path.write_text(f'{{"doi": "10.1/a", "blocks": {{}}}}\n{{"doi": "10.1/b", "blocks": {blocks}}}\n')
        where = f"candidates file {path}, line 2: SchemaParseError: candidate blocks must be a JSON object"
        with pytest.raises(CorpusError, match=re.escape(where)):
            load_candidates(path)

    @pytest.mark.parametrize("loader", [load_results, load_candidates, CorpusStore.load])
    def test_undecodable_byte_names_file_and_line(self, tmp_path, loader):
        # the byte sits deep in the file; each line is decoded on its own in the one read, so its line is named
        path = tmp_path / "input.jsonl"
        line = b'{"doi": "10.1/a", "blocks": {}}\n'
        path.write_bytes(line * 2000 + b'{"doi": "10.1/b\xff"}\n' + line)
        with pytest.raises(CorpusError, match=re.escape(f"{path}, line 2001: UnicodeDecodeError")):
            loader(path)

    @pytest.mark.parametrize("loader", [load_results, load_candidates, CorpusStore.load])
    @pytest.mark.parametrize(
        "text, named",
        [
            (b'[1]\n{"doi": "10.1/b\xff"}\n', "line 1: TypeError"),
            (b'{"doi": "10.1/a\xff"}\n[1]\n', "line 1: UnicodeDecodeError"),
        ],
        ids=["malformed-then-undecodable", "undecodable-then-malformed"],
    )
    def test_first_faulty_line_is_named(self, tmp_path, loader, text, named):
        # decoded a read chunk at a time, an undecodable byte on line 2 was named before a malformed line 1
        path = tmp_path / "input.jsonl"
        path.write_bytes(text)
        with pytest.raises(CorpusError, match=re.escape(f"{path}, {named}")):
            loader(path)

    @pytest.mark.parametrize("loader", [load_results, load_candidates, CorpusStore.load])
    def test_missing_file_is_named(self, tmp_path, loader):
        # load_results read a missing file as no results, and load_candidates raised a bare OSError
        path = tmp_path / "typo.jsonl"
        with pytest.raises(CorpusError, match=re.escape(f"{path} not found")):
            loader(path)

    @pytest.mark.parametrize(
        "tail", [b'{"doi": "10.1/b", "spe', '{"doi": "10.1/b", "species": [{"name": "\xc4'.encode()[:-1]]
    )
    def test_load_results_refuses_a_torn_last_line_and_leaves_it(self, tmp_path, tail):
        # a reader never writes: a live extract may be appending to the line
        path = tmp_path / "results.jsonl"
        data = b'{"doi": "10.1/a"}\n' + tail
        path.write_bytes(data)
        with pytest.raises(CorpusError, match=re.escape(f"results file {path}, line 2")):
            load_results(path)
        assert path.read_bytes() == data

    def test_load_results_keeps_a_last_line_without_its_newline_and_leaves_it(self, tmp_path):
        path = tmp_path / "results.jsonl"
        data = b'{"doi": "10.1/a"}\n{"doi": "10.1/b"}'
        path.write_bytes(data)
        assert [result.paper_doi for result in load_results(path)] == ["10.1/a", "10.1/b"]
        assert path.read_bytes() == data

    def test_load_results_keeps_unicode_line_boundaries(self, tmp_path):
        path = tmp_path / "results.jsonl"
        result = result_from_dict({"doi": "10.1/a", "species": [{"name": "Acacia\u2028dealbata"}]})
        path.write_text(serialize_result(result) + "\n", encoding="utf-8")
        assert load_results(path) == (result,)

    @pytest.mark.parametrize(
        "line",
        [
            '{"doi": "10.1/a", "status": "extracted", "species": [{"name": "A\\ud800", "role": "invasive"}]}',
            '{"doi": "10.1/a", "relationships": [{"related_entities": ["x", "\\udfff"]}]}',
            '{"doi": "10.1/a", "species": [{"n\\ud800": "x"}]}',
        ],
    )
    def test_load_results_refuses_lone_surrogate_in_entries(self, tmp_path, line):
        path = tmp_path / "results.jsonl"
        path.write_text('{"doi": "10.1/b"}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=re.escape(f"{path}, line 2: UnicodeEncodeError")):
            load_results(path)

    def test_load_results_keeps_escaped_text(self, tmp_path):
        # escapes that decode to encodable text, and a literal backslash-u, load as before
        path = tmp_path / "results.jsonl"
        line = '{"doi": "10.1/a", "species": [{"name": "Caf\\u00e9 \\\\u \\ud83d\\udc1d"}]}'
        path.write_text(line + "\n", encoding="utf-8")
        assert load_results(path)[0].species == [{"name": "Caf\u00e9 \\u \U0001f41d"}]

    def test_load_results_last_line_wins(self, tmp_path):
        path = tmp_path / "results.jsonl"
        first = {"doi": "10.1/a", "status": "extracted", "species": [{"name": "A"}]}
        second = dict(first, species=[])
        path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
        results = load_results(path)
        assert len(results) == 1
        assert encode(results[0])["species"] == []

    def test_load_results_leaves_out_a_doi_whose_last_line_quarantines_it(self, tmp_path):
        # a run stopped by a hard failure leaves its results file uncompacted; the quarantined paper was counted
        path = tmp_path / "results.jsonl"
        lines = [
            '{"doi": "10.1/a", "status": "extracted", "species": [{"name": "A"}]}',
            '{"doi": "10.1/b", "status": "extracted"}',
            quarantine_line("10.1/a", "prose"),
            quarantine_line("10.1/c", "prose"),
            '{"doi": "10.1/c", "status": "out_of_scope"}',
        ]
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert [(result.paper_doi, result.status) for result in load_results(path)] == [
            ("10.1/b", "extracted"),
            ("10.1/c", "out_of_scope"),
        ]

    def test_load_results_returns_doi_order(self, tmp_path):
        path = tmp_path / "results.jsonl"
        lines = ['{"doi": "10.1/c"}', '{"doi": "10.1/a"}', quarantine_line("10.1/0", "prose"), '{"doi": "10.1/b"}']
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        results = load_results(path)
        assert isinstance(results, analytics.SortedResults)
        assert [result.paper_doi for result in results] == ["10.1/a", "10.1/b", "10.1/c"]

    def test_the_nine_tables_over_load_results_tally_each_entity_list_once(self, tmp_path, monkeypatch):
        # over a plain list, each of the nine tables sorted and tallied the results again
        computed = []
        tally = analytics.SortedResults.tally

        def counting_tally(results, attr):
            if attr not in results.__dict__:
                computed.append(attr)
            return tally(results, attr)

        monkeypatch.setattr(analytics.SortedResults, "tally", counting_tally)
        path = tmp_path / "results.jsonl"
        line = '{"doi": "10.1/%s", "species": [{"name": "Acacia", "role": "invasive"}], "habitats": [{"name": "bog"}]}'
        path.write_text("".join(line % doi + "\n" for doi in "ba"), encoding="utf-8")
        results = load_results(path)
        analytics.role_inventory(results)
        for role in ("invasive", "native", "introduced"):
            analytics.top_species(results, role, 10)
        for granularity in analytics.LOCATION_GRANULARITIES:
            analytics.location_frequencies(results, granularity)
        analytics.ecosystem_frequencies(results)
        analytics.habitat_linkages(results)
        assert computed == ["species", "locations", "ecosystems", "habitats"]


def earlier_format(path, results_lines=None, **sets):
    """Write a checkpoint document as the version that kept DOI sets did:
    with results_lines when a run opened, without it when a run ended."""
    doc = {
        "stage": "extract",
        "schema_fingerprint": schema_fingerprint(standard_schema()),
        "completed": sorted(sets.get("completed", [])),
        "out_of_scope": sorted(sets.get("out_of_scope", [])),
        "quarantined": sets.get("quarantined", {}),
    }
    if results_lines is not None:
        doc["results_lines"] = results_lines
    path.write_text(json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def append_deltas(path, *deltas):
    """Journal one-line deltas after a checkpoint document, as an older version did."""
    with path.open("a", encoding="utf-8") as journal:
        for delta in deltas:
            journal.write(json.dumps(delta) + "\n")


def quarantine_line(doi, reason):
    return serialize_result(ExtractionResult(paper_doi=doi, status="quarantined", reason=reason))


def quarantine_reasons(results):
    """DOI -> reason of each quarantine line of a results file."""
    lines = [json.loads(line) for line in results.read_text(encoding="utf-8").splitlines()]
    return {line["doi"]: line["reason"] for line in lines if line["status"] == "quarantined"}


class TestCommitLog:
    run_full = TestExtract.run_full

    def extract(self, store, gateway, tmp_path, name):
        return run_extract(
            store, standard_schema(), make_config(), gateway,
            results_path=tmp_path / f"{name}.jsonl", checkpoint_path=tmp_path / f"{name}.ckpt.json",
        )

    @pytest.mark.parametrize("results_lines, sent", [(0, 14), (3, 17)])
    def test_opening_checkpoint_of_the_previous_version_is_read_for_fingerprint_and_offset(
        self, sample_store, mock_gateway, tmp_path, results_lines, sent
    ):
        # that version left a killed run's checkpoint as it opened; the DOI sets it listed are ignored, so the
        # lines before its offset are sent again
        _, baseline_results, baseline_ckpt = self.run_full(sample_store, mock_gateway, tmp_path, name="baseline")
        lines = baseline_results.read_text(encoding="utf-8").splitlines(keepends=True)[:6]
        (tmp_path / "seed.jsonl").write_text("".join(lines), encoding="utf-8")
        earlier = [json.loads(line)["doi"] for line in lines[:results_lines]]
        earlier_format(tmp_path / "seed.ckpt.json", results_lines, completed=earlier)

        counting = FailAfter(mock_gateway, allow=10_000)
        self.extract(sample_store, counting, tmp_path, "seed")
        assert counting.calls == sent
        assert (tmp_path / "seed.jsonl").read_bytes() == baseline_results.read_bytes()
        assert (tmp_path / "seed.ckpt.json").read_bytes() == baseline_ckpt.read_bytes()

    @pytest.mark.parametrize("quarantined", [{}, {"10.5555/ecomine.0001": "unparseable"}])
    def test_closing_checkpoint_of_the_previous_version_is_refused_before_any_call(
        self, sample_store, mock_gateway, tmp_path, quarantined
    ):
        # that version wrote its DOI sets without results_lines when a run ended, finished or failed
        _, baseline_results, _ = self.run_full(sample_store, mock_gateway, tmp_path, name="baseline")
        lines = baseline_results.read_text(encoding="utf-8").splitlines(keepends=True)[len(quarantined):]
        (tmp_path / "seed.jsonl").write_text("".join(lines), encoding="utf-8")
        path = tmp_path / "seed.ckpt.json"
        earlier_format(path, completed=[json.loads(line)["doi"] for line in lines], quarantined=quarantined)
        saved = (tmp_path / "seed.jsonl").read_bytes(), path.read_bytes()

        counting = FailAfter(mock_gateway, allow=10_000)
        named = (
            f"checkpoint {path} has no 'results_lines': remove it to start a new run series "
            "(an earlier version wrote no 'results_lines' when a run ended)"
        )
        with pytest.raises(CheckpointError, match=re.escape(named)):
            self.extract(sample_store, counting, tmp_path, "seed")
        assert counting.calls == 0
        assert ((tmp_path / "seed.jsonl").read_bytes(), path.read_bytes()) == saved

    @pytest.mark.parametrize(
        "deltas",
        [
            [{"doi": "10.5555/ecomine.0002", "status": "quarantined", "reason": "prose"}],
            [{"doi": "10.5555/ecomine.0001", "status": "completed"}, {"doi": "10.5555/ecomine.0003", "status": "x"}],
        ],
        ids=["quarantined", "older-statuses"],
    )
    def test_midrun_checkpoint_of_the_journalling_version_is_refused_before_any_call(
        self, sample_store, mock_gateway, tmp_path, deltas
    ):
        # that version left an unfinished run as its opening document followed by one delta per quarantine
        path = tmp_path / "old.ckpt.json"
        Checkpoint(schema_fingerprint(standard_schema()), results_lines=0).save(path)
        document_lines = len(path.read_text(encoding="utf-8").splitlines())
        append_deltas(path, *deltas)
        saved = path.read_bytes()
        named = f"unreadable checkpoint {path}: Extra data: line {document_lines + 1} column 1"
        counting = FailAfter(mock_gateway, allow=10_000)
        with pytest.raises(CheckpointError, match=re.escape(named)):
            self.extract(sample_store, counting, tmp_path, "old")
        assert counting.calls == 0
        assert path.read_bytes() == saved

    @pytest.mark.parametrize(
        "line, error",
        [
            ({"status": "maybe", "species": [{"name": "Carpobrotus edulis"}]}, "unknown status 'maybe'"),
            ({"status": "out_of_scope", "species": [{"name": "Carpobrotus edulis"}]}, "status 'out_of_scope' lists"),
        ],
        ids=["maybe", "out-of-scope-listing-a-species"],
    )
    def test_results_line_breaking_the_result_rule_is_refused_before_any_call(
        self, sample_store, mock_gateway, tmp_path, line, error
    ):
        # as versions before quarantine lines wrote them; a resume counted the line as extracted, with no call
        doi = "10.5555/ecomine.0001"
        Checkpoint(schema_fingerprint(standard_schema()), results_lines=0).save(tmp_path / "old.ckpt.json")
        results = tmp_path / "old.jsonl"
        results.write_text(json.dumps({"doi": doi, **line}) + "\n", encoding="utf-8")
        counting = FailAfter(mock_gateway, allow=10_000)
        named = rf"results file {re.escape(str(results))}, line 1: ValueError: {error}"
        with pytest.raises(CorpusError, match=named):
            self.extract(CorpusStore([sample_store.get(doi)]), counting, tmp_path, "old")
        assert counting.calls == 0

    def test_fingerprint_refused_with_commits_past_the_count(self, sample_store, mock_gateway, tmp_path):
        Checkpoint("not-the-same", results_lines=0).save(tmp_path / "fp.ckpt.json")
        (tmp_path / "fp.jsonl").write_text(quarantine_line("10.5555/ecomine.0001", "prose") + "\n", encoding="utf-8")
        counting = FailAfter(mock_gateway, allow=10_000)
        with pytest.raises(CheckpointError, match="different schema"):
            self.extract(sample_store, counting, tmp_path, "fp")
        assert counting.calls == 0

    @pytest.mark.parametrize("results_lines", [0, 1])
    def test_quarantine_line_past_the_offset_is_its_dois_last_line(
        self, sample_store, mock_gateway, tmp_path, results_lines
    ):
        # the DOI's extracted line, then its quarantine line; the extracted one is before the offset or past it
        doi = "10.5555/ecomine.0001"
        _, baseline, _ = self.run_full(sample_store, mock_gateway, tmp_path, name="baseline")
        first, *rest = baseline.read_text(encoding="utf-8").splitlines(keepends=True)
        results, checkpoint = tmp_path / "move.jsonl", tmp_path / "move.ckpt.json"
        results.write_text(first + quarantine_line(doi, "prose") + "\n", encoding="utf-8")
        Checkpoint(schema_fingerprint(standard_schema()), results_lines).save(checkpoint)

        counting = FailAfter(mock_gateway, allow=10_000)
        summary = self.extract(sample_store, counting, tmp_path, "move")
        assert (counting.calls, summary.processed, summary.quarantined) == (19, 20, 1)
        assert summary.extracted + summary.out_of_scope + summary.quarantined == summary.processed
        assert results.read_text(encoding="utf-8") == "".join([quarantine_line(doi, "prose") + "\n", *rest])
        assert doi not in {result.paper_doi for result in load_results(results)}

    @pytest.mark.parametrize(
        "statuses",
        [("out_of_scope", "quarantined"), ("quarantined", "extracted"), ("extracted", "out_of_scope")],
        ids=["out-of-scope-then-quarantined", "quarantined-then-extracted", "extracted-then-out-of-scope"],
    )
    def test_of_two_lines_past_the_offset_the_last_one_counts(self, sample_store, mock_gateway, tmp_path, statuses):
        doi = "10.5555/ecomine.0001"
        _, baseline, _ = self.run_full(sample_store, mock_gateway, tmp_path, name="baseline")
        first, *rest = baseline.read_text(encoding="utf-8").splitlines(keepends=True)
        past = {
            "extracted": first,
            "out_of_scope": serialize_result(ExtractionResult(paper_doi=doi, status="out_of_scope")) + "\n",
            "quarantined": quarantine_line(doi, "prose") + "\n",
        }
        results, checkpoint = tmp_path / "two.jsonl", tmp_path / "two.ckpt.json"
        results.write_text("".join(past[status] for status in statuses), encoding="utf-8")
        Checkpoint(schema_fingerprint(standard_schema()), results_lines=0).save(checkpoint)

        counting = FailAfter(mock_gateway, allow=10_000)
        summary = self.extract(sample_store, counting, tmp_path, "two")
        assert (counting.calls, summary.processed) == (19, 20)
        expected = {"extracted": 17, "out_of_scope": 3, "quarantined": 0}
        expected["extracted"] -= 1  # 0001 is extracted in the baseline
        expected[statuses[-1]] += 1
        assert (summary.extracted, summary.out_of_scope, summary.quarantined) == tuple(expected.values())
        assert results.read_text(encoding="utf-8") == "".join([past[statuses[-1]], *rest])

    def test_rerun_without_checkpoint_drops_a_line_the_file_quarantines_later(
        self, sample_store, mock_gateway, tmp_path
    ):
        # a hard failure left the file uncompacted: the DOI's extracted line, then its quarantine line. The rerun,
        # with no checkpoint, does not send that DOI again, so compaction keeps its last line, the quarantine
        doi = "10.5555/ecomine.0001"
        _, baseline, _ = self.run_full(sample_store, mock_gateway, tmp_path, name="baseline")
        first, *rest = baseline.read_text(encoding="utf-8").splitlines(keepends=True)
        results = tmp_path / "left.jsonl"
        results.write_text(first + quarantine_line(doi, "prose") + "\n", encoding="utf-8")
        others = CorpusStore([record for record in sample_store.records() if record.doi != doi])

        counting = FailAfter(mock_gateway, allow=10_000)
        summary = run_extract(others, standard_schema(), make_config(), counting, results_path=results)
        assert (counting.calls, summary.processed, summary.quarantined) == (19, 19, 0)
        assert results.read_text(encoding="utf-8") == "".join([quarantine_line(doi, "prose") + "\n", *rest])
        assert load_results(results) == load_results(baseline)[1:]

    @pytest.mark.parametrize("newline", ["\n", ""])
    def test_load_opens_the_file_once(self, tmp_path, monkeypatch, newline):
        # a document without its final newline was opened three times: read, tested as a whole last line, read again
        path = tmp_path / "once.ckpt.json"
        checkpoint = Checkpoint("f", 3)
        checkpoint.save(path)
        path.write_text(path.read_text(encoding="utf-8").rstrip("\n") + newline, encoding="utf-8")
        opened = []

        def counted(real):
            return lambda file, *args, **kwargs: opened.append(file) or real(file, *args, **kwargs)

        for module in (builtins, io):
            monkeypatch.setattr(module, "open", counted(module.open))
        assert Checkpoint.load(path) == checkpoint
        monkeypatch.undo()
        assert [Path(file) for file in opened] == [path]

    def test_results_file_holds_every_commit_without_midrun_save(
        self, sample_store, mock_gateway, tmp_path, monkeypatch
    ):
        _, baseline_results, _ = self.run_full(sample_store, mock_gateway, tmp_path, name="baseline")
        flaky = FailAfter(mock_gateway, allow=7)
        saves = []
        real_save = Checkpoint.save

        def spy_save(checkpoint, path):
            saves.append(checkpoint.results_lines)
            real_save(checkpoint, path)

        monkeypatch.setattr(Checkpoint, "save", spy_save)
        with pytest.raises(TransportError):
            self.extract(sample_store, flaky, tmp_path, "journal")
        assert saves == [0]  # the document a series opens with; a hard failure rewrites nothing
        lines = (tmp_path / "journal.jsonl").read_text(encoding="utf-8").splitlines()
        assert len({json.loads(line)["doi"] for line in lines}) == len(lines) == 7

        counting = FailAfter(mock_gateway, allow=10_000)
        self.extract(sample_store, counting, tmp_path, "journal")
        assert saves == [0, 0]  # and the completion document, before compaction
        assert counting.calls == 20 - 7
        assert (tmp_path / "journal.jsonl").read_bytes() == baseline_results.read_bytes()


class TestTornWrites:
    run_full = TestExtract.run_full

    def interrupted(self, store, gateway, tmp_path):
        results, checkpoint = tmp_path / "torn.jsonl", tmp_path / "torn.ckpt.json"
        with pytest.raises(TransportError):
            run_extract(
                store, standard_schema(), make_config(), FailAfter(gateway, allow=5),
                results_path=results, checkpoint_path=checkpoint,
            )
        return results, checkpoint

    def resume(self, store, gateway, results, checkpoint):
        return run_extract(
            store, standard_schema(), make_config(), gateway,
            results_path=results, checkpoint_path=checkpoint,
        )

    @pytest.mark.parametrize(
        "tail",
        ['{"doi": "10.5555/ecomine.0019", "spe', '{"doi": "10.5555/ecomine.0019", "reason": "unpar', "  "],
        ids=["result", "quarantine", "whitespace"],
    )
    def test_torn_last_line_dropped_on_resume(self, sample_store, mock_gateway, tmp_path, caplog, tail):
        _, baseline_results, baseline_ckpt = self.run_full(sample_store, mock_gateway, tmp_path, name="baseline")
        results, checkpoint = self.interrupted(sample_store, mock_gateway, tmp_path)
        offset = results.stat().st_size
        with results.open("a", encoding="utf-8") as handle:
            handle.write(tail)

        summary = self.resume(sample_store, mock_gateway, results, checkpoint)
        assert (summary.extracted, summary.out_of_scope, summary.quarantined) == (17, 3, 0)
        assert results.read_bytes() == baseline_results.read_bytes()
        assert checkpoint.read_bytes() == baseline_ckpt.read_bytes()
        assert f"{results}: dropping torn last line at byte offset {offset}" in caplog.text

    def test_results_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text('{"doi": "10.1/a", "status": "extracted"}\n{"doi": "10.1/b",\n', encoding="utf-8")
        with pytest.raises(CorpusError, match=rf"{re.escape(str(path))}, line 2\b"):
            load_results(path)

    def test_results_line_not_an_object_names_file_and_line(self, tmp_path):
        path = tmp_path / "results.jsonl"
        for bad in ("[1]", '{"status": "extracted"}', '{"doi": "", "status": "extracted"}', '{"doi": 7}'):
            path.write_text('{"doi": "10.1/a", "status": "extracted"}\n' + bad + "\n", encoding="utf-8")
            with pytest.raises(CorpusError, match=rf"{re.escape(str(path))}, line 2\b"):
                load_results(path)

    @pytest.mark.parametrize(
        "line, error",
        [
            ('{"doi": "10.1/b", "status": "quarantined", "reason": "\\ud800"}', "UnicodeEncodeError"),
            ('{"doi": "10.1/b", "status": "quarantined", "reason": 5}', "TypeError"),
            ('{"doi": "10.1/b", "status": "quarantined", "reason": ""}', "ValueError"),
            ('{"doi": "10.1/b", "status": "quarantined"}', "ValueError"),
            ('{"doi": "10.1/b", "status": "extracted", "reason": "prose"}', "ValueError"),
        ],
        ids=["lone-surrogate", "mistyped", "empty", "missing", "not-quarantined"],
    )
    def test_faulty_reason_names_file_and_line(self, sample_store, mock_gateway, tmp_path, line, error):
        results = tmp_path / "reason.jsonl"
        results.write_text('{"doi": "10.1/a", "status": "extracted"}\n' + line + "\n", encoding="utf-8")
        where = rf"results file {re.escape(str(results))}, line 2: {error}"
        with pytest.raises(CorpusError, match=where):
            load_results(results)
        counting = FailAfter(mock_gateway, allow=10_000)
        with pytest.raises(CorpusError, match=where):
            run_extract(sample_store, standard_schema(), make_config(), counting, results_path=results)
        assert counting.calls == 0

    @pytest.mark.parametrize(
        "doc", [{"species": [{"name": "Ä"}]}, {"status": "quarantined", "reason": "Ä"}], ids=["result", "quarantine"]
    )
    def test_results_line_torn_inside_a_character_is_dropped(self, sample_store, mock_gateway, tmp_path, caplog, doc):
        _, baseline_results, _ = self.run_full(sample_store, mock_gateway, tmp_path, name="baseline")
        results, checkpoint = self.interrupted(sample_store, mock_gateway, tmp_path)
        offset = results.stat().st_size
        line = serialize_result(result_from_dict({"doi": "10.5555/ecomine.0019", **doc})).encode()
        with results.open("ab") as handle:
            handle.write(line[: line.index("Ä".encode()) + 1])
        summary = self.resume(sample_store, mock_gateway, results, checkpoint)
        assert (summary.extracted, summary.out_of_scope, summary.quarantined) == (17, 3, 0)
        assert results.read_bytes() == baseline_results.read_bytes()
        assert f"{results}: dropping torn last line at byte offset {offset}" in caplog.text

    def test_malformed_earlier_results_line_fails_before_any_call(self, sample_store, mock_gateway, tmp_path):
        # read back only at compaction, it failed the run after all 20 provider calls, and every rerun too
        results = tmp_path / "r.jsonl"
        results.write_text('{"doi": "10.1/a", "status": "extracted"}\n{"doi": "10.1/b",\n', encoding="utf-8")
        counting = FailAfter(mock_gateway, allow=10_000)
        with pytest.raises(CorpusError, match=rf"results file {re.escape(str(results))}, line 2\b"):
            run_extract(sample_store, standard_schema(), make_config(), counting, results_path=results)
        assert counting.calls == 0

    def test_undecodable_byte_in_the_document_names_its_line(self, tmp_path):
        path = tmp_path / "bad.ckpt.json"
        Checkpoint("abc", 0).save(path)
        text = path.read_text(encoding="utf-8")
        path.write_bytes(text.encode().replace(b'"abc"', b'"abc\xff"'))
        line = text[: text.index("abc")].count("\n") + 1
        where = rf"checkpoint {re.escape(str(path))}, line {line}: UnicodeDecodeError: .* in position 28\b"
        with pytest.raises(CheckpointError, match=where):
            Checkpoint.load(path)

    @pytest.mark.parametrize("indent", [None, 2])
    def test_document_without_final_newline_loads(self, tmp_path, caplog, indent):
        path = tmp_path / "bare.ckpt.json"
        checkpoint = Checkpoint("fä", 3)
        checkpoint.save(path)
        document = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(document, ensure_ascii=False, indent=indent), encoding="utf-8")
        assert Checkpoint.load(path) == checkpoint
        assert "torn" not in caplog.text

    def test_undecodable_byte_in_a_document_without_final_newline_names_its_line(self, tmp_path):
        path = tmp_path / "bare.ckpt.json"
        path.write_bytes(b'{"stage": "extract", "schema_fingerprint": "f",\n "completed": ["10.1/a\xff"]}')
        where = rf"checkpoint {re.escape(str(path))}, line 2: UnicodeDecodeError: .* in position 22\b"
        with pytest.raises(CheckpointError, match=where):
            Checkpoint.load(path)

    @pytest.mark.parametrize("count", [-1, "3", 2.5, True, [0]])
    def test_results_lines_must_be_a_non_negative_integer(self, sample_store, mock_gateway, tmp_path, count):
        path = tmp_path / "count.ckpt.json"
        doc = {"stage": "extract", "schema_fingerprint": schema_fingerprint(standard_schema()), "results_lines": count}
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        where = rf"checkpoint {re.escape(str(path))}: .*'results_lines' must be"
        counting = FailAfter(mock_gateway, allow=10_000)
        with pytest.raises(CheckpointError, match=where):
            run_extract(sample_store, standard_schema(), make_config(), counting, tmp_path / "count.jsonl", path)
        assert counting.calls == 0

    @pytest.mark.parametrize(
        "fields",
        [
            {"schema_fingerprint": 5},
            {"schema_fingerprint": "\ud800"},
            {"schema_fingerprint": None},
            {"results_lines": None},
            {"results_lines": "0"},
        ],
    )
    def test_mistyped_checkpoint_names_the_file(self, sample_store, mock_gateway, tmp_path, fields):
        path = tmp_path / "typed.ckpt.json"
        doc = {"schema_fingerprint": schema_fingerprint(standard_schema()), "results_lines": 0, **fields}
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        where = re.escape(str(path))
        with pytest.raises(CheckpointError, match=where):
            Checkpoint.load(path)

        counting = FailAfter(mock_gateway, allow=10_000)
        with pytest.raises(CheckpointError, match=where):
            run_extract(
                sample_store, standard_schema(), make_config(), counting,
                results_path=tmp_path / "typed.jsonl", checkpoint_path=path,
            )
        assert counting.calls == 0

    @pytest.mark.parametrize("kind", ["not-json", "directory"])
    def test_unreadable_checkpoint_is_refused_before_any_call(self, sample_store, mock_gateway, tmp_path, kind):
        path = tmp_path / "unreadable.ckpt.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_text("stage = extract\n", encoding="utf-8")
        where = f"unreadable checkpoint {re.escape(str(path))}: "
        with pytest.raises(CheckpointError, match=where):
            Checkpoint.load(path)

        counting = FailAfter(mock_gateway, allow=10_000)
        with pytest.raises(CheckpointError, match=where):
            run_extract(
                sample_store, standard_schema(), make_config(), counting,
                results_path=tmp_path / "unreadable.jsonl", checkpoint_path=path,
            )
        assert counting.calls == 0
