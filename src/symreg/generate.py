"""Prompt construction and candidate generation.

One interface, three implementations: a remote chat-completion endpoint, a
scripted replayer for offline/deterministic runs, and a seeded structural
mutator that needs no model at all.  Prompt builders assemble the structured
equation/analysis prompts; extractors pull fenced ```expr``` / ```analysis```
blocks back out of raw generator text.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

from .context import (
    COMBINERS,
    SORTS,
    TRANSFORMS,
    Y_TERMS,
    AnalysisReport,
    AnalysisSpec,
    SpecError,
    parse_spec,
    render,
)
from .data import Problem, read_json
from .expr import (
    MAX_PARAMS,
    UNARY_OPS,
    ExpressionError,
    Skeleton,
    parse,
    random_mutation,
)
from .fit import Candidate

API_KEY_ENV = "SYMREG_API_KEY"
DEFAULT_TIMEOUT = 120.0
# the remote request's sampling settings, fixed parts of the method like the prompts
TEMPERATURE = 0.8
MAX_OUTPUT_TOKENS = 2048

CAP_SENTENCE = f"Note: DO NOT use more than {MAX_PARAMS} params"
REPORT_HEADER = (
    "The information of (X, Y) dataset including random sample points "
    "and simple basis fit scores are as follows:"
)
TASK_HEADER = "### Your Task:"
THOUGHT_SENTENCE = "FIRST, provide **BRIEF** reasoning inside a <thought>...</thought> block."

_EXPR_BLOCK = re.compile(r"```expr\s+(.*?)```", re.DOTALL)
_ANALYSIS_BLOCK = re.compile(r"```analysis\s+(.*?)```", re.DOTALL)


class ExtractionError(ValueError):
    """Recoverable failure to pull a well-formed block out of raw text."""


@dataclass(frozen=True)
class GeneratorRequest:
    prompt: str
    n_samples: int = 2
    purpose: str = "equation"


@dataclass(frozen=True)
class GeneratorResponse:
    """Exactly n_samples texts; per-sample errors mark padded failures."""

    raw_texts: tuple[str, ...]
    errors: tuple[str | None, ...]


class Generator(Protocol):
    tag: str

    def generate(self, request: GeneratorRequest) -> GeneratorResponse: ...


# ---------------------------------------------------------------------------
# Prompt building


def default_seed_skeleton(arity: int) -> Skeleton:
    """Linear form used as equation_v0 before the buffer has candidates."""
    n = min(arity, MAX_PARAMS - 1)  # one slot stays for the intercept
    terms = [f"p{i}*x{i}" for i in range(n)]
    terms.append(f"p{n}")
    return parse(" + ".join(terms), arity)


def _variable_lines(problem: Problem) -> list[str]:
    lines = []
    for i, desc in enumerate(problem.spec.variable_descriptions):
        lines.append(f"- x{i}: {desc}")
    lines.append(f"- y (target): {problem.spec.target_description}")
    return lines


def _demo_block(label: str, body: str, fitness: float | None) -> str:
    head = f"# {label}" if fitness is None else f"# {label} (fitness = {fitness:.6g})"
    return f"{head}\n```expr\n{body}\n```"


def build_equation_prompt(
    problem: Problem,
    demos: Sequence[Candidate],
    report: AnalysisReport | None = None,
) -> str:
    """Assemble the equation-generation prompt.

    Sections, in order: task framing; variable meanings; the rendered
    analysis block (only when a report is supplied — its absence is the only
    difference between augmented and plain prompts); demonstrations labeled
    equation_v0..v(k-1) ascending by fitness; the output-format instruction
    restating the 10-parameter cap.  Pure function of its inputs.
    """
    arity = problem.arity
    var_tokens = ", ".join(f"x{i}" for i in range(arity))
    sections = [
        "You are an assistant that proposes mathematical equation skeletons "
        "for scientific datasets.",
        f"Find the mathematical function skeleton that represents y, given data on {var_tokens}.\n"
        f"Problem: {problem.spec.instructions}\n" + "\n".join(_variable_lines(problem)),
    ]
    if report is not None:
        rendered = render(report)
        block = REPORT_HEADER if not rendered else f"{REPORT_HEADER}\n{rendered}"
        sections.append(block)
    demo_blocks = []
    if demos:
        for i, cand in enumerate(demos):
            demo_blocks.append(
                _demo_block(f"equation_v{i}", cand.skeleton.text, cand.fitness)
            )
    else:
        seed = default_seed_skeleton(arity)
        demo_blocks.append(_demo_block("equation_v0", seed.text, None))
    sections.append(
        "Previous candidate skeletons, ordered worst to best:\n" + "\n".join(demo_blocks)
    )
    next_version = f"equation_v{len(demos) if demos else 1}"
    sections.append(
        f"{TASK_HEADER}\n"
        f"{THOUGHT_SENTENCE}\n"
        f"THEN, AFTER THE </thought> BLOCK, output {next_version} as exactly one fenced block:\n"
        "```expr\n<your equation skeleton>\n```\n"
        f"Write one infix expression over variables x0..x{arity - 1}, "
        f"parameters p0..p{MAX_PARAMS - 1}, "
        f"numeric constants, operators + - * / ^, and functions {', '.join(UNARY_OPS)}.\n"
        f"{CAP_SENTENCE}"
    )
    return "\n\n".join(sections)


def build_analysis_prompt(problem: Problem, feedback: str | None = None) -> str:
    """Assemble the analysis-generation prompt: task framing, variable
    meanings, the directive cheat sheet, and optional error feedback from a
    previously rejected attempt."""
    arity = problem.arity
    var_tokens = ", ".join(f"x{i}" for i in range(arity))
    cheat_sheet = (
        "Directives, one per line:\n"
        "  stats all                      summary statistics for y and every feature\n"
        f"  stats y x0                     restrict to listed columns ({var_tokens})\n"
        f"  sample <count> [sort={'|'.join(SORTS)}] [seed=<int>]   show sampled rows\n"
        "  r2 <y-term> ~ <x-term>         R^2 of a least-squares line fit\n"
        "  corr <y-term> ~ <x-term>       Pearson correlation\n"
        f"y-term: {' or '.join(Y_TERMS)}.  x-term: a feature with optional transforms, e.g. "
        "x0, log(x1), log(sqrt(x0)), or a pairwise combination "
        f"{'/'.join(COMBINERS)} such as log(ratio(x0,x1)).\n"
        f"Transforms: {', '.join(TRANSFORMS)}."
    )
    sections = [
        "You are an assistant that writes short dataset-analysis programs whose "
        "results will guide equation discovery.",
        f"The dataset has features {var_tokens} and target y.\n"
        f"Problem: {problem.spec.instructions}\n" + "\n".join(_variable_lines(problem)),
        cheat_sheet,
    ]
    if feedback:
        sections.append(f"Your previous analysis program was rejected: {feedback}")
    sections.append(
        f"{TASK_HEADER}\n"
        f"{THOUGHT_SENTENCE}\n"
        "THEN, AFTER THE </thought> BLOCK, output the analysis program as exactly "
        "one fenced block:\n```analysis\n<directives>\n```\n"
        "Choose analyses that reveal the functional form (power laws, "
        "periodicity, saturation)."
    )
    return "\n\n".join(sections)


# ---------------------------------------------------------------------------
# Extraction


def _last_block(pattern: re.Pattern, raw: str, kind: str) -> str:
    """The stripped body of the last fenced ```<kind>``` block in raw."""
    blocks = pattern.findall(raw)
    if not blocks:
        raise ExtractionError(f"no fenced {kind} block found")
    text = blocks[-1].strip()
    if not text:
        raise ExtractionError(f"empty {kind} block")
    return text


def extract_expression(raw: str, arity: int) -> Skeleton:
    """Parse the last fenced ```expr``` block; thought text is ignored."""
    text = _last_block(_EXPR_BLOCK, raw, "expr")
    try:
        return parse(text, arity)
    except ExpressionError as exc:
        raise ExtractionError(f"expr block failed to parse: {exc}") from exc


def extract_spec(raw: str, arity: int) -> AnalysisSpec:
    """Parse the last fenced ```analysis``` block into an AnalysisSpec."""
    text = _last_block(_ANALYSIS_BLOCK, raw, "analysis")
    try:
        return parse_spec(text, arity)
    except SpecError as exc:
        raise ExtractionError(f"analysis block failed to parse: {exc}") from exc


# ---------------------------------------------------------------------------
# Generators


class ScriptedGenerator:
    """Replays a fixed list of texts, cycling; deterministic.

    ``source`` is either the list itself or a path to a JSON array file.
    """

    tag = "scripted"

    def __init__(self, source: Sequence[str] | str | Path):
        if isinstance(source, (str, Path)):
            entries = read_json(source, ValueError)
            if not isinstance(entries, list) or not all(isinstance(e, str) for e in entries):
                raise ValueError(f"{source}: scripted file must be a JSON array of strings")
            self._texts = list(entries)
        else:
            self._texts = list(source)
        if not self._texts:
            raise ValueError("scripted generator needs at least one text")
        self._cursor = 0

    def generate(self, request: GeneratorRequest) -> GeneratorResponse:
        texts = []
        for _ in range(request.n_samples):
            texts.append(self._texts[self._cursor % len(self._texts)])
            self._cursor += 1
        return GeneratorResponse(
            raw_texts=tuple(texts),
            errors=(None,) * request.n_samples,
        )


class MutationGenerator:
    """LLM-free equation source: mutates a demonstration from the prompt.

    Reads the fenced ```expr``` blocks embedded in the prompt (the
    demonstrations), picks one with a seeded draw, applies one structural
    mutation, and emits a reply in the standard thought-plus-block protocol.
    Deterministic: outputs depend only on (seed, call index, prompt).
    """

    tag = "mutation"

    def __init__(self, arity: int, seed: int = 0):
        self._arity = arity
        self._seed = seed
        self._calls = 0

    def generate(self, request: GeneratorRequest) -> GeneratorResponse:
        blocks = _EXPR_BLOCK.findall(request.prompt)
        parents: list[Skeleton] = []
        for block in blocks:
            try:
                parents.append(parse(block.strip(), self._arity))
            except ExpressionError:
                continue
        if not parents:
            parents.append(default_seed_skeleton(self._arity))
        texts = []
        for _ in range(request.n_samples):
            call = self._calls
            self._calls += 1
            # string seeding hashes via sha512: stable across processes
            rng = random.Random(f"{self._seed}:{call}")
            parent = parents[rng.randrange(len(parents))]
            child = random_mutation(parent, rng.randrange(2**31))
            texts.append(
                "<thought>Mutated one demonstration skeleton.</thought>\n"
                f"```expr\n{child.text}\n```"
            )
        return GeneratorResponse(
            raw_texts=tuple(texts),
            errors=(None,) * request.n_samples,
        )


class RemoteChatGenerator:
    """HTTP chat-completion client.

    POSTs ``{model, messages, temperature, n, max_tokens}`` to the configured
    URL with a bearer token from the SYMREG_API_KEY environment variable.
    Provider failures, malformed replies and timeouts never raise into the
    search loop; they yield flagged empty samples.
    """

    tag = "remote"

    def __init__(self, url: str, model: str, timeout: float = DEFAULT_TIMEOUT):
        self._url = url
        self._model = model
        self._timeout = timeout
        self._api_key = os.environ.get(API_KEY_ENV, "")

    def generate(self, request: GeneratorRequest) -> GeneratorResponse:
        # imported here, so offline runs do not load requests, urllib3 and certifi
        import requests

        body = {
            "model": self._model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": TEMPERATURE,
            "n": request.n_samples,
            "max_tokens": MAX_OUTPUT_TOKENS,
        }
        headers = {"Content-Type": "application/json"}
        if self._api_key:
            headers["Authorization"] = f"Bearer {self._api_key}"
        n = request.n_samples
        try:
            reply = requests.post(
                self._url, json=body, headers=headers, timeout=self._timeout
            )
            if reply.status_code != 200:
                error = f"HTTP {reply.status_code}"
                return GeneratorResponse(("",) * n, (error,) * n)
            payload = reply.json()
        except (requests.RequestException, ValueError) as exc:  # ValueError: body not JSON
            return GeneratorResponse(("",) * n, (str(exc),) * n)
        if not isinstance(payload, dict):
            error = "provider reply is not a JSON object"
            return GeneratorResponse(("",) * n, (error,) * n)
        choices = payload.get("choices")
        if not isinstance(choices, list):
            choices = []
        texts: list[str] = []
        errors: list[str | None] = []
        for i in range(n):
            if i < len(choices):
                message = choices[i].get("message") if isinstance(choices[i], dict) else None
                content = message.get("content") if isinstance(message, dict) else None
                if isinstance(content, str):
                    texts.append(content)
                    errors.append(None)
                else:
                    texts.append("")
                    errors.append("missing message content")
            else:
                texts.append("")
                errors.append("provider returned fewer choices than requested")
        return GeneratorResponse(raw_texts=tuple(texts), errors=tuple(errors))
