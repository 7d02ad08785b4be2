import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symreg.context import default_hint_spec, execute, parse_spec, render
from symreg.expr import MAX_DEPTH, MAX_PARAMS, ExpressionError, depth, parse
from symreg.fit import Candidate, FitResult
from symreg.generate import (
    CAP_SENTENCE,
    REPORT_HEADER,
    TASK_HEADER,
    THOUGHT_SENTENCE,
    ExtractionError,
    GeneratorRequest,
    GeneratorResponse,
    MutationGenerator,
    RemoteChatGenerator,
    ScriptedGenerator,
    build_analysis_prompt,
    build_equation_prompt,
    default_seed_skeleton,
    extract_expression,
    extract_spec,
)
from tests.conftest import make_dataset, make_problem


def _candidate(text, arity, fitness):
    sk = parse(text, arity)
    fit = FitResult(params=(), train_mse=0.0, converged=True, restarts_used=0, evaluations=1)
    return Candidate(sk, fit, fitness)


@pytest.fixture
def problem(kepler_dataset):
    return make_problem(kepler_dataset, name="orbit")


class TestSeedSkeleton:
    def test_linear_form(self):
        sk = default_seed_skeleton(2)
        assert sk.text == "(((p0 * x0) + (p1 * x1)) + p2)"
        assert sk.param_count == 3

    def test_param_cap_respected_at_high_arity(self):
        sk = default_seed_skeleton(15)
        assert sk.param_count == 10

    def test_prompt_cap_matches_the_parser_cap(self, problem):
        # the prompt's slots, its cap sentence and the seed skeleton all follow MAX_PARAMS
        prompt = build_equation_prompt(problem, demos=[])
        assert f"parameters p0..p{MAX_PARAMS - 1}, " in prompt
        assert CAP_SENTENCE == f"Note: DO NOT use more than {MAX_PARAMS} params"
        parse(f"p{MAX_PARAMS - 1} * x0", 1)
        with pytest.raises(ExpressionError):
            parse(f"p{MAX_PARAMS} * x0", 1)
        assert default_seed_skeleton(MAX_PARAMS + 5).param_count == MAX_PARAMS


class TestEquationPrompt:
    def test_pinned_strings_present(self, problem):
        prompt = build_equation_prompt(problem, demos=[])
        assert CAP_SENTENCE in prompt
        assert TASK_HEADER in prompt
        assert THOUGHT_SENTENCE in prompt
        assert REPORT_HEADER not in prompt

    def test_empty_demos_fall_back_to_seed(self, problem):
        prompt = build_equation_prompt(problem, demos=[])
        assert "# equation_v0\n```expr\n((p0 * x0) + p1)\n```" in prompt
        assert "fitness" not in prompt.split(TASK_HEADER)[0].split("# equation_v0")[1]

    def test_demos_ascending_with_fitness_labels(self, problem):
        demos = [
            _candidate("p0 * x0", 1, -0.75),
            _candidate("p0 * x0 ^ p1", 1, -0.001234567),
        ]
        prompt = build_equation_prompt(problem, demos)
        v0 = prompt.index("# equation_v0 (fitness = -0.75)")
        v1 = prompt.index("# equation_v1 (fitness = -0.00123457)")
        assert v0 < v1

    def test_next_version_follows_demo_count(self, problem):
        demos = [_candidate("p0 * x0", 1, -1.0), _candidate("p0 + x0", 1, -0.5)]
        prompt = build_equation_prompt(problem, demos)
        assert "output equation_v2 as exactly one fenced block" in prompt

    def test_report_block_is_sole_difference(self, problem, kepler_dataset):
        report = execute(default_hint_spec(1), kepler_dataset, seed=0)
        plain = build_equation_prompt(problem, demos=[])
        augmented = build_equation_prompt(problem, demos=[], report=report)
        block = f"{REPORT_HEADER}\n{render(report)}"
        assert block in augmented
        assert augmented.replace(f"\n\n{block}", "") == plain

    def test_variable_descriptions_included(self, kepler_dataset):
        problem = make_problem(
            kepler_dataset,
            name="orbit",
            variable_descriptions=("semi-major axis in AU",),
            target_description="orbital period in years",
        )
        prompt = build_equation_prompt(problem, demos=[])
        assert "- x0: semi-major axis in AU" in prompt
        assert "- y (target): orbital period in years" in prompt

    def test_deterministic(self, problem):
        demos = [_candidate("p0 * x0", 1, -0.5)]
        assert build_equation_prompt(problem, demos) == build_equation_prompt(problem, demos)


class TestAnalysisPrompt:
    def test_cheat_sheet_and_task(self, problem):
        prompt = build_analysis_prompt(problem)
        assert TASK_HEADER in prompt
        assert "stats all" in prompt
        assert "r2 <y-term> ~ <x-term>" in prompt
        assert "```analysis" in prompt
        assert "rejected" not in prompt

    def test_feedback_included(self, problem):
        prompt = build_analysis_prompt(problem, feedback="unknown directive 'bogus' (line 1)")
        assert (
            "Your previous analysis program was rejected: unknown directive 'bogus' (line 1)"
            in prompt
        )


class TestExtraction:
    def test_expression_with_thought(self):
        raw = "<thought>try a power law</thought>\n```expr\np0 * x0 ^ p1\n```"
        sk = extract_expression(raw, arity=1)
        assert sk.text == "(p0 * (x0 ^ p1))"

    def test_last_block_wins(self):
        raw = "```expr\np0 * x0\n```\nsecond thoughts\n```expr\np0 + x0\n```"
        assert extract_expression(raw, 1).text == "(p0 + x0)"

    def test_no_block(self):
        with pytest.raises(ExtractionError, match="no fenced expr block"):
            extract_expression("just prose", 1)

    def test_empty_block(self):
        with pytest.raises(ExtractionError, match="empty"):
            extract_expression("```expr\n\n```", 1)

    def test_unparseable_block(self):
        with pytest.raises(ExtractionError, match="failed to parse"):
            extract_expression("```expr\np0 ** x0\n```", 1)

    def test_arity_enforced(self):
        with pytest.raises(ExtractionError):
            extract_expression("```expr\np0 * x3\n```", 1)

    def test_spec_extraction(self):
        raw = "<thought>look for power laws</thought>\n```analysis\nstats all\nr2 log(y) ~ log(x0)\n```"
        spec = extract_spec(raw, arity=1)
        assert len(spec.directives) == 2

    def test_spec_last_block_wins(self):
        raw = "```analysis\nstats all\n```\n```analysis\nsample 3\n```"
        spec = extract_spec(raw, 1)
        assert spec == parse_spec("sample 3", 1)

    def test_spec_parse_failure_carries_line(self):
        with pytest.raises(ExtractionError, match=r"line 1"):
            extract_spec("```analysis\nbogus\n```", 1)

    def test_multiline_block_content(self):
        raw = "```expr\np0 * x0\n+ p1\n```"
        assert extract_expression(raw, 1).text == "((p0 * x0) + p1)"

    @settings(max_examples=150, deadline=None)
    @given(
        body=st.lists(
            st.sampled_from(
                ["x0", "x1", "x7", "p0", "p12", "2", "1.5e3", ".", "+", "-", "*", "/",
                 "^", "(", ")", ",", "sin", "pow", "neg", "q", " "]
            ),
            max_size=24,
        ).map("".join),
        wrap=st.sampled_from(
            [("(", ")"), ("sin(", ")"), ("pow(x0,", ")"), ("-", ""), ("x0+", ""), ("x1^", "")]
        ),
        nesting=st.integers(0, 2000),
    )
    def test_only_extraction_errors_escape(self, body, wrap, nesting):
        opener, closer = wrap
        raw = f"```expr\n{opener * nesting}{body}{closer * nesting}\n```"
        try:
            sk = extract_expression(raw, 2)
        except ExtractionError:
            return
        assert depth(sk.expression) <= MAX_DEPTH
        assert parse(sk.text, 2) == sk


class TestScriptedGenerator:
    def test_cycles_in_order(self):
        gen = ScriptedGenerator(["a", "b", "c"])
        req = GeneratorRequest(prompt="p", n_samples=2)
        assert gen.generate(req).raw_texts == ("a", "b")
        assert gen.generate(req).raw_texts == ("c", "a")

    def test_no_errors_flagged(self):
        gen = ScriptedGenerator(["a"])
        resp = gen.generate(GeneratorRequest(prompt="p", n_samples=3))
        assert resp.errors == (None, None, None)

    def test_loads_json_array_file(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(["one", "two"]))
        gen = ScriptedGenerator(path)
        assert gen.generate(GeneratorRequest(prompt="p", n_samples=2)).raw_texts == (
            "one",
            "two",
        )

    def test_rejects_non_array_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"not": "a list"}))
        with pytest.raises(ValueError, match="JSON array"):
            ScriptedGenerator(path)

    def test_invalid_json_file_is_named(self, tmp_path):
        # the parser's message alone did not say which file
        path = tmp_path / "replies.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match=r"replies\.json: invalid JSON \(Expecting"):
            ScriptedGenerator(path)

    def test_text_that_is_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "replies.json"
        path.write_bytes("[\"p0 * x0\"]".encode("utf-16"))
        with pytest.raises(ValueError, match=r"replies\.json: not UTF-8 text"):
            ScriptedGenerator(path)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            ScriptedGenerator([])


class TestMutationGenerator:
    def test_protocol_compliant_output(self, problem):
        gen = MutationGenerator(arity=1, seed=0)
        prompt = build_equation_prompt(problem, demos=[])
        resp = gen.generate(GeneratorRequest(prompt=prompt, n_samples=2))
        assert len(resp.raw_texts) == 2
        for raw in resp.raw_texts:
            assert raw.startswith("<thought>")
            extract_expression(raw, 1)  # must parse

    def test_deterministic_across_instances(self, problem):
        prompt = build_equation_prompt(problem, demos=[])
        req = GeneratorRequest(prompt=prompt, n_samples=3)
        a = MutationGenerator(arity=1, seed=5).generate(req)
        b = MutationGenerator(arity=1, seed=5).generate(req)
        assert a.raw_texts == b.raw_texts

    def test_seed_changes_output(self, problem):
        prompt = build_equation_prompt(problem, demos=[])
        req = GeneratorRequest(prompt=prompt, n_samples=4)
        a = MutationGenerator(arity=1, seed=1).generate(req)
        b = MutationGenerator(arity=1, seed=2).generate(req)
        assert a.raw_texts != b.raw_texts

    def test_call_counter_advances_stream(self, problem):
        prompt = build_equation_prompt(problem, demos=[])
        gen = MutationGenerator(arity=1, seed=0)
        first = gen.generate(GeneratorRequest(prompt=prompt, n_samples=2))
        second = gen.generate(GeneratorRequest(prompt=prompt, n_samples=2))
        combined = MutationGenerator(arity=1, seed=0).generate(
            GeneratorRequest(prompt=prompt, n_samples=4)
        )
        assert first.raw_texts + second.raw_texts == combined.raw_texts

    def test_mutates_prompt_demonstrations(self, problem):
        demos = [_candidate("sin(p0 * x0)", 1, -0.4)]
        prompt = build_equation_prompt(problem, demos)
        resp = MutationGenerator(arity=1, seed=3).generate(
            GeneratorRequest(prompt=prompt, n_samples=8)
        )
        # every child derives from the lone parent; most differ from it
        children = {extract_expression(r, 1).text for r in resp.raw_texts}
        assert any(c != "sin((p0 * x0))" for c in children)

    def test_promptless_fallback_to_seed_skeleton(self):
        gen = MutationGenerator(arity=2, seed=0)
        resp = gen.generate(GeneratorRequest(prompt="no blocks here", n_samples=2))
        for raw in resp.raw_texts:
            extract_expression(raw, 2)


def _choices(*texts):
    return {
        "choices": [{"message": {"content": t}} for t in texts],
        "usage": {"prompt_tokens": 10, "completion_tokens": 20},
    }


class TestRemoteChatGenerator:
    def test_wire_format(self, provider, monkeypatch):
        url, stub = provider
        stub.payload = _choices("a", "b")
        monkeypatch.setenv("SYMREG_API_KEY", "sk-secret")
        gen = RemoteChatGenerator(url, model="test-model")
        resp = gen.generate(GeneratorRequest(prompt="hello", n_samples=2))
        assert resp.raw_texts == ("a", "b")
        sent = stub.requests_seen[0]
        # the sampling settings are constants, and no stop sequence is sent
        assert sent["body"] == {
            "model": "test-model",
            "messages": [{"role": "user", "content": "hello"}],
            "temperature": 0.8,
            "n": 2,
            "max_tokens": 2048,
        }
        assert sent["headers"]["Authorization"] == "Bearer sk-secret"
        assert sent["headers"]["Content-Type"] == "application/json"

    def test_api_key_from_environment(self, provider, monkeypatch):
        url, stub = provider
        stub.payload = _choices("a")
        monkeypatch.setenv("SYMREG_API_KEY", "env-key")
        RemoteChatGenerator(url, model="m").generate(
            GeneratorRequest(prompt="p", n_samples=1)
        )
        assert stub.requests_seen[0]["headers"]["Authorization"] == "Bearer env-key"

    def test_no_auth_header_without_key(self, provider, monkeypatch):
        url, stub = provider
        stub.payload = _choices("a")
        monkeypatch.delenv("SYMREG_API_KEY", raising=False)
        RemoteChatGenerator(url, model="m").generate(
            GeneratorRequest(prompt="p", n_samples=1)
        )
        assert "Authorization" not in stub.requests_seen[0]["headers"]

    def test_key_appears_nowhere_in_the_response(self, provider, monkeypatch):
        url, stub = provider
        stub.payload = _choices("a")
        monkeypatch.setenv("SYMREG_API_KEY", "sk-secret")
        resp = RemoteChatGenerator(url, model="m").generate(
            GeneratorRequest(prompt="p", n_samples=1)
        )
        assert resp == GeneratorResponse(raw_texts=("a",), errors=(None,))
        assert "sk-secret" not in repr(resp)

    def test_fewer_choices_padded_and_flagged(self, provider):
        url, stub = provider
        stub.payload = _choices("only one")
        resp = RemoteChatGenerator(url, model="m").generate(
            GeneratorRequest(prompt="p", n_samples=3)
        )
        assert resp.raw_texts == ("only one", "", "")
        assert resp.errors[0] is None
        assert resp.errors[1] == "provider returned fewer choices than requested"
        assert resp.errors[2] == "provider returned fewer choices than requested"

    def test_missing_content_flagged(self, provider):
        url, stub = provider
        stub.payload = {"choices": [{"message": {}}]}
        resp = RemoteChatGenerator(url, model="m").generate(
            GeneratorRequest(prompt="p", n_samples=1)
        )
        assert resp.raw_texts == ("",)
        assert resp.errors == ("missing message content",)

    @pytest.mark.parametrize("body", [b"[]", b'"s"', b"null", b"3"])
    def test_non_object_body_flagged(self, provider, body):
        url, stub = provider
        stub.raw_body = body
        resp = RemoteChatGenerator(url, model="m").generate(
            GeneratorRequest(prompt="p", n_samples=2)
        )
        assert resp.raw_texts == ("", "")
        assert resp.errors == ("provider reply is not a JSON object",) * 2

    @pytest.mark.parametrize(
        "choice", ["text", None, [], {"message": "text"}, {"message": ["text"]}]
    )
    def test_malformed_choice_flagged(self, provider, choice):
        url, stub = provider
        stub.payload = {"choices": [choice, {"message": {"content": "ok"}}]}
        resp = RemoteChatGenerator(url, model="m").generate(
            GeneratorRequest(prompt="p", n_samples=2)
        )
        assert resp.raw_texts == ("", "ok")
        assert resp.errors == ("missing message content", None)

    @pytest.mark.parametrize("choices", [None, "ab", {"0": {"message": {"content": "a"}}}])
    def test_choices_not_a_list_flagged(self, provider, choices):
        url, stub = provider
        stub.payload = {"choices": choices}
        resp = RemoteChatGenerator(url, model="m").generate(
            GeneratorRequest(prompt="p", n_samples=1)
        )
        assert resp.raw_texts == ("",)
        assert resp.errors == ("provider returned fewer choices than requested",)

    def test_http_error_never_raises(self, provider):
        url, stub = provider
        stub.status = 500
        stub.payload = {"error": "boom"}
        resp = RemoteChatGenerator(url, model="m").generate(
            GeneratorRequest(prompt="p", n_samples=2)
        )
        assert resp.raw_texts == ("", "")
        assert resp.errors == ("HTTP 500", "HTTP 500")

    def test_non_json_body_flagged(self, provider):
        url, stub = provider
        stub.raw_body = b"<html>gateway error</html>"
        resp = RemoteChatGenerator(url, model="m").generate(
            GeneratorRequest(prompt="p", n_samples=1)
        )
        assert resp.raw_texts == ("",)
        assert resp.errors[0] is not None

    def test_connection_refused_flagged(self):
        gen = RemoteChatGenerator("http://127.0.0.1:9/nope", model="m", timeout=2)
        resp = gen.generate(GeneratorRequest(prompt="p", n_samples=2))
        assert resp.raw_texts == ("", "")
        assert all(e is not None for e in resp.errors)

    def test_read_timeout_never_raises(self, provider):
        url, stub = provider
        stub.delay = 1.0
        gen = RemoteChatGenerator(url, model="m", timeout=0.2)
        started = time.monotonic()
        resp = gen.generate(GeneratorRequest(prompt="p", n_samples=2))
        assert time.monotonic() - started < stub.delay
        assert resp.raw_texts == ("", "")
        assert all(e is not None and "timed out" in e for e in resp.errors)


class TestGeneratorResponseShape:
    def test_end_to_end_extraction_path(self, problem):
        gen = ScriptedGenerator(
            ["<thought>t</thought>\n```expr\np0 * x0 ^ p1\n```"]
        )
        resp = gen.generate(GeneratorRequest(prompt="p", n_samples=1))
        sk = extract_expression(resp.raw_texts[0], problem.arity)
        assert sk.param_count == 2

    def test_response_is_frozen(self):
        resp = GeneratorResponse(raw_texts=("a",), errors=(None,))
        with pytest.raises(Exception):
            resp.raw_texts = ("b",)
