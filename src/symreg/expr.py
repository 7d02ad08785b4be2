"""Expression DSL for candidate equation skeletons.

Candidate equations are finite trees over feature variables (``x0``, ``x1``,
...), indexed parameter slots (``p0`` .. ``p9``) and numeric constants.  The
module provides the infix parser, a one-pass canonicalization that also
prints each skeleton's fully-parenthesized canonical text, a vectorized
evaluator whose domain violations produce IEEE non-finite
sentinels instead of exceptions, and a seeded structural mutation used by the
offline candidate generator.

Surface grammar (EBNF, whitespace-insensitive)::

    expression := term (("+" | "-") term)*
    term       := factor (("*" | "/") factor)*
    factor     := "-" factor | power
    power      := atom ("^" factor)?
    atom       := NUMBER | call | IDENT | "(" expression ")"
    call       := FUNC "(" expression ("," expression)* ")"

Functions: ``log exp sin cos sqrt abs square inv neg`` (one argument) and
``pow`` (two arguments, equivalent to ``^``).  Variables are ``x0`` ..
``x{arity-1}``; parameters are ``p0`` .. ``p9``.  Trees are at most
``MAX_DEPTH`` levels deep and parentheses nest at most ``MAX_DEPTH`` levels,
so parsing, canonicalizing and evaluating stay well inside Python's
recursion limit whatever the input.
"""

from __future__ import annotations

import math
import operator
import random
import re
from dataclasses import dataclass, field
from typing import Iterator, Union

import numpy as np

MAX_PARAMS = 10
MAX_DEPTH = 100
MAX_MUTATION_DEPTH = 12

# The operator table: every evaluator dispatches through it.  Dict order is
# the order of UNARY_OPS/BINARY_OPS, which the seeded mutator draws from, so
# reordering an entry changes every mutation trace.
UNARY = {
    "neg": operator.neg,
    "log": np.log,
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "square": lambda c: c * c,
    "inv": lambda c: np.float64(1.0) / c,
}
BINARY = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
    "pow": np.power,  # complex-valued cases yield nan
}
UNARY_OPS = tuple(UNARY)
BINARY_OPS = tuple(BINARY)

_BIN_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}
_SYMBOL_ADD = {"+": "add", "-": "sub"}
_SYMBOL_MUL = {"*": "mul", "/": "div"}


class ExpressionError(ValueError):
    """Raised for malformed expressions or invariant violations."""


class ParseError(ExpressionError):
    """Syntax or name-resolution failure, carrying the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (position {position})")
        self.position = position


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Param:
    index: int


@dataclass(frozen=True)
class Unary:
    op: str
    child: "Node"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Node"
    right: "Node"


Node = Union[Const, Var, Param, Unary, Binary]


@dataclass(frozen=True)
class Skeleton:
    """A validated expression with parameters renumbered to ``p0..p{k-1}``.

    ``text`` is the canonical fully-parenthesized print, which parses back to
    an equal tree; it is derived from the tree, so it is excluded from
    equality.
    """

    expression: Node
    arity: int
    param_count: int
    text: str = field(compare=False)


def depth(node: Node) -> int:
    if isinstance(node, Unary):
        return 1 + depth(node.child)
    if isinstance(node, Binary):
        return 1 + max(depth(node.left), depth(node.right))
    return 1


def _const_text(value: float) -> str:
    # parenthesized when the sign bit is set (-0.0 too): a bare leading '-'
    # would rebind as unary minus over a following '^'
    return f"({value!r})" if math.copysign(1.0, value) < 0 else repr(value)


def skeleton_from_node(node: Node, arity: int) -> Skeleton:
    """Canonicalize a raw tree into a Skeleton in one pre-order pass.

    The pass validates each node (depth, variable range, parameter cap,
    operator names, float constants), folds ``neg(Const(v))`` into
    ``Const(-v)``, renumbers parameters by first appearance and builds the
    canonical text.  The depth check runs before each descent, so a tree of
    any depth is rejected without deep recursion.
    """
    renumbered: dict[int, int] = {}

    def build(n: Node, level: int) -> tuple[Node, str]:
        if isinstance(n, Const):
            if not isinstance(n.value, float):
                raise ExpressionError(f"constant value must be float, got {n.value!r}")
            return n, _const_text(n.value)
        if isinstance(n, Var):
            if not 0 <= n.index < arity:
                raise ExpressionError(
                    f"variable x{n.index} out of range for arity {arity}"
                )
            return n, f"x{n.index}"
        if isinstance(n, Param):
            if not 0 <= n.index < MAX_PARAMS:
                raise ExpressionError(
                    f"parameter p{n.index} exceeds the {MAX_PARAMS}-slot cap"
                )
            index = renumbered.setdefault(n.index, len(renumbered))
            return Param(index), f"p{index}"
        # a negated constant folds into a leaf, so it adds no level
        folds = isinstance(n, Unary) and n.op == "neg" and isinstance(n.child, Const)
        if level >= MAX_DEPTH and not folds:
            raise ExpressionError(f"expression deeper than {MAX_DEPTH} levels")
        if isinstance(n, Unary):
            if n.op not in UNARY:
                raise ExpressionError(f"unknown unary operator {n.op!r}")
            child, text = build(n.child, level + 1)
            if n.op != "neg":
                return Unary(n.op, child), f"{n.op}({text})"
            if isinstance(child, Const):
                return Const(-child.value), _const_text(-child.value)
            return Unary("neg", child), f"(-{text})"
        if n.op not in BINARY:
            raise ExpressionError(f"unknown binary operator {n.op!r}")
        left, left_text = build(n.left, level + 1)
        right, right_text = build(n.right, level + 1)
        return Binary(n.op, left, right), f"({left_text} {_BIN_SYMBOL[n.op]} {right_text})"

    expression, text = build(node, 1)
    return Skeleton(expression, arity, len(renumbered), text)


# ---------------------------------------------------------------------------
# Parsing


_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[()+\-*/^,])"
)

_VAR_RE = re.compile(r"^x(\d+)$")
_PARAM_RE = re.compile(r"^p(\d+)$")
_FUNCTIONS = UNARY_OPS + ("pow",)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        tokens.append((m.lastgroup, m.group(), i))  # type: ignore[arg-type]
        i = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the token list.  Only parentheses (grouping and
    call arguments) recurse; unary minus and ``^`` chains are loops, and the
    parenthesis nesting is capped, so the parser's stack stays bounded."""

    def __init__(self, tokens: list[tuple[str, str, int]], arity: int):
        self._toks = tokens
        self._pos = 0
        self._arity = arity
        self._nesting = 0

    def _at_sym(self, *syms: str) -> bool:
        kind, text, _ = self._toks[self._pos]
        return kind == "sym" and text in syms

    def _advance(self) -> tuple[str, str, int]:
        tok = self._toks[self._pos]
        self._pos += 1
        return tok

    def _expect_sym(self, sym: str) -> None:
        kind, text, pos = self._advance()
        if kind != "sym" or text != sym:
            shown = text if text else "end of input"
            raise ParseError(f"expected {sym!r}, found {shown!r}", pos)

    def parse(self) -> Node:
        node = self._expression()
        kind, text, pos = self._toks[self._pos]
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return node

    def _expression(self) -> Node:
        if self._nesting > MAX_DEPTH:
            pos = self._toks[self._pos][2]
            raise ParseError(f"parentheses nested deeper than {MAX_DEPTH} levels", pos)
        self._nesting += 1
        node = self._term()
        while self._at_sym("+", "-"):
            op = _SYMBOL_ADD[self._advance()[1]]
            node = Binary(op, node, self._term())
        self._nesting -= 1
        return node

    def _term(self) -> Node:
        node = self._factor()
        while self._at_sym("*", "/"):
            op = _SYMBOL_MUL[self._advance()[1]]
            node = Binary(op, node, self._factor())
        return node

    def _factor(self) -> Node:
        # factor := "-" factor | atom ("^" factor)?, as a loop: read each
        # minus-prefixed atom of a "^" chain, then fold right to left
        chain: list[tuple[int, Node]] = []
        while True:
            negations = 0
            while self._at_sym("-"):
                self._advance()
                negations += 1
            chain.append((negations, self._atom()))
            if not self._at_sym("^"):
                break
            self._advance()
        node: Node | None = None
        for negations, base in reversed(chain):
            node = base if node is None else Binary("pow", base, node)
            for _ in range(negations):
                node = Unary("neg", node)
        return node

    def _atom(self) -> Node:
        kind, text, pos = self._advance()
        if kind == "num":
            return Const(float(text))
        if kind == "name":
            if self._at_sym("("):
                return self._call(text, pos)
            return self._resolve(text, pos)
        if kind == "sym" and text == "(":
            node = self._expression()
            self._expect_sym(")")
            return node
        shown = text if text else "end of input"
        raise ParseError(f"expected an expression, found {shown!r}", pos)

    def _call(self, name: str, pos: int) -> Node:
        if name not in _FUNCTIONS:
            raise ParseError(f"unknown function {name!r}", pos)
        self._expect_sym("(")
        args = [self._expression()]
        while self._at_sym(","):
            self._advance()
            args.append(self._expression())
        self._expect_sym(")")
        if name == "pow":
            if len(args) != 2:
                raise ParseError(f"pow expects 2 arguments, got {len(args)}", pos)
            return Binary("pow", args[0], args[1])
        if len(args) != 1:
            raise ParseError(f"{name} expects 1 argument, got {len(args)}", pos)
        return Unary(name, args[0])

    def _resolve(self, name: str, pos: int) -> Node:
        m = _VAR_RE.match(name)
        if m:
            index = int(m.group(1))
            if index >= self._arity:
                raise ParseError(
                    f"variable {name!r} out of range for arity {self._arity}", pos
                )
            return Var(index)
        m = _PARAM_RE.match(name)
        if m:
            index = int(m.group(1))
            if index >= MAX_PARAMS:
                raise ParseError(
                    f"parameter {name!r} exceeds the {MAX_PARAMS}-slot cap", pos
                )
            return Param(index)
        raise ParseError(f"unknown identifier {name!r}", pos)


def parse(text: str, arity: int) -> Skeleton:
    """Parse a surface-form expression into a canonical Skeleton.

    Raises ParseError for syntax and name errors (and parentheses nested more
    than MAX_DEPTH levels), ExpressionError for trees deeper than MAX_DEPTH.
    """
    if arity < 1:
        raise ExpressionError("arity must be >= 1")
    node = _Parser(_tokenize(text), arity).parse()
    return skeleton_from_node(node, arity)


# ---------------------------------------------------------------------------
# Evaluation


def _eval_node(node: Node, X: np.ndarray, params: np.ndarray):
    if isinstance(node, Const):
        return np.float64(node.value)
    if isinstance(node, Var):
        return X[:, node.index]
    if isinstance(node, Param):
        return np.float64(params[node.index])
    if isinstance(node, Unary):
        return UNARY[node.op](_eval_node(node.child, X, params))
    return BINARY[node.op](_eval_node(node.left, X, params), _eval_node(node.right, X, params))


def evaluate(skeleton: Skeleton, features, params=()) -> np.ndarray:
    """Evaluate the skeleton row-wise over an ``n x arity`` feature matrix.

    Pure and deterministic.  Domain violations (log/sqrt of a negative,
    division by zero, pow with a negative base and fractional exponent,
    overflow) leave a non-finite sentinel in the affected rows; no exception
    escapes from arithmetic.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[1] != skeleton.arity:
        raise ExpressionError(
            f"feature matrix must have {skeleton.arity} columns, got shape {X.shape}"
        )
    p = np.asarray(params, dtype=float).ravel()
    if p.size < skeleton.param_count:
        raise ExpressionError(
            f"need {skeleton.param_count} parameters, got {p.size}"
        )
    with np.errstate(all="ignore"):
        out = np.asarray(_eval_node(skeleton.expression, X, p), dtype=float)
    if out.ndim == 0:
        return np.full(X.shape[0], float(out))
    return out


# ---------------------------------------------------------------------------
# Random trees and mutation


def _random_tree(rng: random.Random, arity: int, max_depth: int) -> Node:
    if max_depth <= 1 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.45:
            return Var(rng.randrange(arity))
        if r < 0.8:
            return Param(rng.randrange(MAX_PARAMS))
        return Const(round(rng.uniform(-4.0, 4.0), 2))
    if rng.random() < 0.35:
        op = rng.choice(UNARY_OPS)
        return Unary(op, _random_tree(rng, arity, max_depth - 1))
    op = rng.choice(BINARY_OPS)
    return Binary(
        op,
        _random_tree(rng, arity, max_depth - 1),
        _random_tree(rng, arity, max_depth - 1),
    )


def random_expression(arity: int, rng_seed: int, max_depth: int = 4) -> Skeleton:
    """Seeded random Skeleton; always valid (used by tests and the mutator)."""
    rng = random.Random(rng_seed)
    return skeleton_from_node(_random_tree(rng, arity, max_depth), arity)


def _paths(node: Node, prefix: tuple[int, ...] = ()) -> Iterator[tuple[tuple[int, ...], Node]]:
    yield prefix, node
    if isinstance(node, Unary):
        yield from _paths(node.child, prefix + (0,))
    elif isinstance(node, Binary):
        yield from _paths(node.left, prefix + (0,))
        yield from _paths(node.right, prefix + (1,))


def _replace_at(node: Node, path: tuple[int, ...], new: Node) -> Node:
    if not path:
        return new
    if isinstance(node, Unary):
        return Unary(node.op, _replace_at(node.child, path[1:], new))
    if isinstance(node, Binary):
        if path[0] == 0:
            return Binary(node.op, _replace_at(node.left, path[1:], new), node.right)
        return Binary(node.op, node.left, _replace_at(node.right, path[1:], new))
    raise ExpressionError("replacement path descends past a leaf")


_MOVES = ("subtree", "opswap", "wrap", "pscale")


def _apply_move(move: str, skeleton: Skeleton, rng: random.Random) -> Node | None:
    root = skeleton.expression
    spots = list(_paths(root))
    if move == "subtree":
        path, _ = spots[rng.randrange(len(spots))]
        return _replace_at(root, path, _random_tree(rng, skeleton.arity, 3))
    if move == "opswap":
        ops = [(p, n) for p, n in spots if isinstance(n, (Unary, Binary))]
        if not ops:
            return None
        path, node = ops[rng.randrange(len(ops))]
        if isinstance(node, Unary):
            choices = [op for op in UNARY_OPS if op != node.op]
            return _replace_at(root, path, Unary(rng.choice(choices), node.child))
        choices = [op for op in BINARY_OPS if op != node.op]
        return _replace_at(root, path, Binary(rng.choice(choices), node.left, node.right))
    if move == "wrap":
        path, node = spots[rng.randrange(len(spots))]
        return _replace_at(root, path, Unary(rng.choice(UNARY_OPS), node))
    # pscale: multiply a random subtree by a fresh parameter slot
    if skeleton.param_count >= MAX_PARAMS:
        return None
    path, node = spots[rng.randrange(len(spots))]
    return _replace_at(root, path, Binary("mul", Param(skeleton.param_count), node))


def random_mutation(skeleton: Skeleton, rng_seed: int) -> Skeleton:
    """One structural mutation: deterministic in (skeleton, rng_seed).

    Moves: replace a subtree with a fresh depth-<=3 random tree, swap an
    operator, wrap a node in a unary function, or scale a node by a new
    parameter slot.  The result respects the depth and parameter caps; if no
    move produces a valid tree the input skeleton is returned unchanged.
    """
    rng = random.Random(rng_seed)
    for _ in range(24):
        move = _MOVES[rng.randrange(len(_MOVES))]
        candidate = _apply_move(move, skeleton, rng)
        if candidate is None:
            continue
        if depth(candidate) > MAX_MUTATION_DEPTH:
            continue
        try:
            return skeleton_from_node(candidate, skeleton.arity)
        except ExpressionError:
            continue
    return skeleton
