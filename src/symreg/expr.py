"""Expression DSL for candidate equation skeletons.

Candidate equations are finite trees over feature variables (``x0``, ``x1``,
...), indexed parameter slots (``p0`` .. ``p9``) and numeric constants.  The
module provides the infix parser, a canonical fully-parenthesized printer, a
vectorized evaluator whose domain violations produce IEEE non-finite
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
``x{arity-1}`` or the declared per-problem names; parameters are ``p0`` ..
``p9``.
"""

from __future__ import annotations

import operator
import random
import re
from dataclasses import dataclass, field
from typing import Iterator, Sequence, Union

import numpy as np

MAX_PARAMS = 10
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

    ``source_text`` keeps the surface form the skeleton was parsed from (or
    the canonical print for programmatically built trees); it is excluded
    from equality so structurally identical skeletons compare equal.
    """

    expression: Node
    arity: int
    param_count: int
    source_text: str = field(compare=False)


def iter_nodes(node: Node) -> Iterator[Node]:
    """Pre-order traversal of the tree."""
    yield node
    if isinstance(node, Unary):
        yield from iter_nodes(node.child)
    elif isinstance(node, Binary):
        yield from iter_nodes(node.left)
        yield from iter_nodes(node.right)


def depth(node: Node) -> int:
    if isinstance(node, Unary):
        return 1 + depth(node.child)
    if isinstance(node, Binary):
        return 1 + max(depth(node.left), depth(node.right))
    return 1


def param_indices(node: Node) -> list[int]:
    """Distinct parameter indices in order of first appearance (pre-order)."""
    seen: list[int] = []
    for n in iter_nodes(node):
        if isinstance(n, Param) and n.index not in seen:
            seen.append(n.index)
    return seen


def _fold_neg_consts(node: Node) -> Node:
    """Normalize ``neg(Const(v))`` to ``Const(-v)`` so printing round-trips."""
    if isinstance(node, Unary):
        child = _fold_neg_consts(node.child)
        if node.op == "neg" and isinstance(child, Const):
            return Const(-child.value)
        return Unary(node.op, child)
    if isinstance(node, Binary):
        return Binary(node.op, _fold_neg_consts(node.left), _fold_neg_consts(node.right))
    return node


def _validate(node: Node, arity: int) -> None:
    for n in iter_nodes(node):
        if isinstance(n, Var):
            if not 0 <= n.index < arity:
                raise ExpressionError(
                    f"variable x{n.index} out of range for arity {arity}"
                )
        elif isinstance(n, Param):
            if not 0 <= n.index < MAX_PARAMS:
                raise ExpressionError(
                    f"parameter p{n.index} exceeds the {MAX_PARAMS}-slot cap"
                )
        elif isinstance(n, Unary):
            if n.op not in UNARY_OPS:
                raise ExpressionError(f"unknown unary operator {n.op!r}")
        elif isinstance(n, Binary):
            if n.op not in BINARY_OPS:
                raise ExpressionError(f"unknown binary operator {n.op!r}")
        elif isinstance(n, Const):
            if not isinstance(n.value, float):
                raise ExpressionError(f"constant value must be float, got {n.value!r}")


def _renumber_params(node: Node) -> tuple[Node, int]:
    order = param_indices(node)
    mapping = {old: new for new, old in enumerate(order)}

    def rewrite(n: Node) -> Node:
        if isinstance(n, Param):
            return Param(mapping[n.index])
        if isinstance(n, Unary):
            return Unary(n.op, rewrite(n.child))
        if isinstance(n, Binary):
            return Binary(n.op, rewrite(n.left), rewrite(n.right))
        return n

    return rewrite(node), len(order)


def skeleton_from_node(node: Node, arity: int, source_text: str | None = None) -> Skeleton:
    """Canonicalize a raw tree into a Skeleton (fold, validate, renumber)."""
    node = _fold_neg_consts(node)
    _validate(node, arity)
    node, k = _renumber_params(node)
    text = source_text if source_text is not None else _format_node(node)
    return Skeleton(node, arity, k, text)


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
    def __init__(self, tokens: list[tuple[str, str, int]], arity: int, names: dict[str, int]):
        self._toks = tokens
        self._pos = 0
        self._arity = arity
        self._names = names

    def _peek(self) -> tuple[str, str, int]:
        return self._toks[self._pos]

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
        kind, text, pos = self._peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return node

    def _expression(self) -> Node:
        node = self._term()
        while True:
            kind, text, _ = self._peek()
            if kind == "sym" and text in _SYMBOL_ADD:
                self._advance()
                node = Binary(_SYMBOL_ADD[text], node, self._term())
            else:
                return node

    def _term(self) -> Node:
        node = self._factor()
        while True:
            kind, text, _ = self._peek()
            if kind == "sym" and text in _SYMBOL_MUL:
                self._advance()
                node = Binary(_SYMBOL_MUL[text], node, self._factor())
            else:
                return node

    def _factor(self) -> Node:
        kind, text, _ = self._peek()
        if kind == "sym" and text == "-":
            self._advance()
            child = self._factor()
            if isinstance(child, Const):
                return Const(-child.value)
            return Unary("neg", child)
        return self._power()

    def _power(self) -> Node:
        base = self._atom()
        kind, text, _ = self._peek()
        if kind == "sym" and text == "^":
            self._advance()
            return Binary("pow", base, self._factor())
        return base

    def _atom(self) -> Node:
        kind, text, pos = self._advance()
        if kind == "num":
            return Const(float(text))
        if kind == "name":
            nkind, ntext, _ = self._peek()
            if nkind == "sym" and ntext == "(":
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
        while True:
            kind, text, _ = self._peek()
            if kind == "sym" and text == ",":
                self._advance()
                args.append(self._expression())
            else:
                break
        self._expect_sym(")")
        if name == "pow":
            if len(args) != 2:
                raise ParseError(f"pow expects 2 arguments, got {len(args)}", pos)
            return Binary("pow", args[0], args[1])
        if len(args) != 1:
            raise ParseError(f"{name} expects 1 argument, got {len(args)}", pos)
        if name == "neg" and isinstance(args[0], Const):
            return Const(-args[0].value)
        return Unary(name, args[0])

    def _resolve(self, name: str, pos: int) -> Node:
        if name in self._names:
            return Var(self._names[name])
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


def parse(text: str, arity: int, var_names: Sequence[str] | None = None) -> Skeleton:
    """Parse a surface-form expression into a canonical Skeleton.

    ``var_names`` optionally declares per-problem variable names (one per
    feature); the canonical ``x{i}``/``p{i}`` tokens are always accepted.
    """
    if arity < 1:
        raise ExpressionError("arity must be >= 1")
    names: dict[str, int] = {}
    if var_names is not None:
        if len(var_names) != arity:
            raise ExpressionError(
                f"{len(var_names)} variable names declared for arity {arity}"
            )
        for i, nm in enumerate(var_names):
            if nm in _FUNCTIONS:
                raise ExpressionError(f"variable name {nm!r} shadows a function")
            names[nm] = i
    tokens = _tokenize(text)
    node = _Parser(tokens, arity, names).parse()
    return skeleton_from_node(node, arity, source_text=text)


# ---------------------------------------------------------------------------
# Printing


def _format_node(node: Node) -> str:
    if isinstance(node, Const):
        # parenthesized when negative: a bare leading '-' would rebind as
        # unary minus over a following '^'
        return f"({node.value!r})" if node.value < 0 else repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Param):
        return f"p{node.index}"
    if isinstance(node, Unary):
        if node.op == "neg":
            return f"(-{_format_node(node.child)})"
        return f"{node.op}({_format_node(node.child)})"
    return f"({_format_node(node.left)} {_BIN_SYMBOL[node.op]} {_format_node(node.right)})"


def format_skeleton(skeleton: Skeleton) -> str:
    """Canonical fully-parenthesized surface form; parses back to an equal tree."""
    return _format_node(skeleton.expression)


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
