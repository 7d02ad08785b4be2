"""Expression DSL for candidate equation skeletons.

Candidate equations are finite trees over feature variables (``x0``, ``x1``,
...), indexed parameter slots (``p0`` .. ``p9``) and numeric constants.  The
module provides the infix parser, a one-pass canonicalization that also
prints each skeleton's fully-parenthesized canonical text and compiles its
evaluator, vectorized over rows and over blocks of parameter vectors, whose
domain violations produce IEEE non-finite sentinels instead of exceptions,
and a seeded structural mutation used by the offline candidate generator.

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
from typing import Callable, Iterator, Union

import numpy as np

MAX_PARAMS = 10
MAX_DEPTH = 100
MAX_MUTATION_DEPTH = 12

# The operator table: the compiled evaluator and the analysis kernels dispatch
# through it.  Every entry is a numpy ufunc, so a caller can pass ``out=``.
# Dict order is the order of UNARY_OPS/BINARY_OPS, which the seeded mutator
# draws from, so reordering an entry changes every mutation trace.
UNARY = {
    "neg": np.negative,
    "log": np.log,
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "square": np.square,
    "inv": np.reciprocal,
}
BINARY = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "pow": np.power,  # complex-valued cases yield nan
}
UNARY_OPS = tuple(UNARY)
BINARY_OPS = tuple(BINARY)
# The operators whose kernels cost the most per row; the compiled evaluator
# memoizes their stages on the parameters they read (see _memoize)
COSTLY = frozenset(("log", "exp", "sin", "cos", "pow"))

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

# A compiled tree runs in two stages: features -> (params -> values).  The
# features are a tuple of contiguous columns, one per variable, which a Var
# leaf indexes.  The first stage computes every subtree that reads no Param
# once, over those rows, and returns the evaluator of the rest.  A Param leaf
# indexes the params, a (k, m, 1) stack of parameter columns for a block of m
# vectors; bind passes one vector as a block of one.  The evaluator never
# writes into the params or a hoisted array; a bare Param tree returns a view
# of the params, and a tree without Param leaves compiles to its values
# alone, which bind hoists and the evaluator returns.
#
# A costly stage that reads a strict subset of the params keeps the arrays it
# computed for its last distinct parameter values (_memoize).  Two invariants
# keep those arrays intact and unseen:
# - the root stage reads every Param, so it is never memoized, and the
#   evaluator never hands a memoized array to its caller;
# - no stage writes into a child's output; the _scalar_power kernel writes
#   only into its own fresh result, before a memo keeps it.
Bound = Callable[[np.ndarray], np.ndarray]
Compiled = Callable[[np.ndarray], Bound]


@dataclass(frozen=True)
class Skeleton:
    """A validated expression with parameters renumbered to ``p0..p{k-1}``.

    ``text`` is the canonical fully-parenthesized print, which parses back to
    an equal tree, and ``compiled`` is the tree built into the staged
    closures that ``bind`` runs; both are derived from the tree, so they are
    excluded from equality.
    """

    expression: Node
    arity: int
    param_count: int
    text: str = field(compare=False)
    compiled: Compiled = field(compare=False, repr=False)


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


# While compiling, a subtree that reads no Param is a function of the
# features alone, X -> values, which a bind runs once; a subtree that reads a
# Param is a stage, X -> (params -> values).  ``reads``, the set of the
# (renumbered) Params a subtree reads, says which.


def _compile_unary(fn, child, reads: frozenset):
    if not reads:
        return lambda X: fn(child(X))

    def stage(X):
        c = child(X)
        return lambda P: fn(c(P))

    return stage


def _compile_binary(fn, left, right, left_reads: frozenset, right_reads: frozenset):
    if not (left_reads or right_reads):
        return lambda X: fn(left(X), right(X))

    def stage(X):
        a, b = left(X), right(X)
        if not left_reads:
            return lambda P: fn(a, b(P))
        if not right_reads:
            return lambda P: fn(a(P), b)
        return lambda P: fn(a(P), b(P))

    return stage


# np.power computes a scalar exponent of -1, 0.5 or 2 as 1/x, sqrt(x) or
# x*x, and every other exponent with its vector kernel, which can differ in
# the last bit.
_SCALAR_FAST_EXPONENTS = frozenset((-1.0, 0.5, 2.0))


def _scalar_power(power):
    """The pow kernel for an exponent that reads a Param and no feature: an
    (m, 1) column, one row per vector of the block.  A column never takes
    np.power's scalar fast path, so the rows whose exponent has a fast-path
    value are recomputed with the scalar exponent each row stands for."""

    def kernel(b, e):
        out = power(b, e)
        for i, value in enumerate(e[:, 0].tolist()):
            if value in _SCALAR_FAST_EXPONENTS:
                out[i] = power(b[i] if np.ndim(b) == 2 else b, e[i, 0])
        return out

    return kernel


def _memoize(compiled: Compiled, reads: frozenset, renumbered: dict) -> Compiled:
    """A costly stage, memoized per bind on the bits of the params it reads.

    A fit's request is a point and its central-difference probes, and a probe
    of a parameter the stage does not read leaves the stage's input as at the
    point: a request of 1 + 2k vectors gives it at most 2s + 1 distinct
    inputs, s = len(reads), so the memo keeps the 2s + 1 newest.  The key is
    the bytes of those params, so -0.0 and 0.0 differ and a nan hits only
    the same nan bits, for which the kernel gives the same bits again.  Only
    a block of one vector looks it up; a block of several bypasses it.  A
    stage that reads every Param is returned as it is: `renumbered` holds
    every Param of the tree by the time a bind runs."""
    indices = np.array(sorted(reads), dtype=np.intp)
    capacity = 2 * len(indices) + 1

    def stage(X):
        inner = compiled(X)
        if len(indices) == len(renumbered):
            return inner
        memo: dict = {}

        def memoized(P):
            if P.shape[1] != 1:
                return inner(P)
            key = P.take(indices).tobytes()
            values = memo.get(key)
            if values is None:
                if len(memo) == capacity:
                    del memo[next(iter(memo))]
                values = memo[key] = inner(P)
            return values

        return memoized

    return stage


def skeleton_from_node(node: Node, arity: int) -> Skeleton:
    """Canonicalize a raw tree into a Skeleton in one pre-order pass.

    The pass validates each node (depth, variable range, parameter cap,
    operator names, finite float constants), folds ``neg(Const(v))`` into
    ``Const(-v)``, renumbers parameters by first appearance, builds the
    canonical text and compiles the evaluator.  The depth check runs before
    each descent, so a tree of any depth is rejected without deep recursion.
    """
    renumbered: dict[int, int] = {}

    def build(n: Node, level: int) -> tuple[Node, str, Callable, frozenset[int], bool]:
        # -> (canonical node, text, compiled subtree, the Params it reads,
        # whether it reads a feature)
        if isinstance(n, Const):
            if not isinstance(n.value, float):
                raise ExpressionError(f"constant value must be float, got {n.value!r}")
            # inf and nan print as names that do not parse back
            if not math.isfinite(n.value):
                raise ExpressionError(f"constant value must be finite, got {n.value!r}")
            leaf = np.float64(n.value)
            return n, _const_text(n.value), lambda X: leaf, frozenset(), False
        if isinstance(n, Var):
            if not 0 <= n.index < arity:
                raise ExpressionError(
                    f"variable x{n.index} out of range for arity {arity}"
                )
            return n, f"x{n.index}", operator.itemgetter(n.index), frozenset(), True
        if isinstance(n, Param):
            if not 0 <= n.index < MAX_PARAMS:
                raise ExpressionError(
                    f"parameter p{n.index} exceeds the {MAX_PARAMS}-slot cap"
                )
            index = renumbered.setdefault(n.index, len(renumbered))
            read = operator.itemgetter(index)
            return Param(index), f"p{index}", lambda X: read, frozenset((index,)), False
        # a negated constant folds into a leaf, so it adds no level
        folds = isinstance(n, Unary) and n.op == "neg" and isinstance(n.child, Const)
        if level >= MAX_DEPTH and not folds:
            raise ExpressionError(f"expression deeper than {MAX_DEPTH} levels")
        if isinstance(n, Unary):
            if n.op not in UNARY:
                raise ExpressionError(f"unknown unary operator {n.op!r}")
            child, text, fn, reads, features = build(n.child, level + 1)
            if n.op != "neg":
                text = f"{n.op}({text})"
            elif isinstance(child, Const):
                return build(Const(-child.value), level)
            else:
                text = f"(-{text})"
            node, compiled = Unary(n.op, child), _compile_unary(UNARY[n.op], fn, reads)
        elif n.op not in BINARY:
            raise ExpressionError(f"unknown binary operator {n.op!r}")
        else:
            left, left_text, left_fn, left_reads, left_features = build(n.left, level + 1)
            right, right_text, right_fn, right_reads, right_features = build(n.right, level + 1)
            fn = BINARY[n.op]
            if n.op == "pow" and right_reads and not right_features:
                fn = _scalar_power(fn)
            compiled = _compile_binary(fn, left_fn, right_fn, left_reads, right_reads)
            node, reads = Binary(n.op, left, right), left_reads | right_reads
            features = left_features or right_features
            text = f"({left_text} {_BIN_SYMBOL[n.op]} {right_text})"
        if reads and n.op in COSTLY:
            compiled = _memoize(compiled, reads, renumbered)
        return node, text, compiled, reads, features

    expression, text, compiled, _, _ = build(node, 1)
    return Skeleton(expression, arity, len(renumbered), text, compiled)


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
    than MAX_DEPTH levels), ExpressionError for trees deeper than MAX_DEPTH
    and for a numeric literal that overflows to inf, such as ``1e400``.
    """
    if arity < 1:
        raise ExpressionError("arity must be >= 1")
    node = _Parser(_tokenize(text), arity).parse()
    return skeleton_from_node(node, arity)


# ---------------------------------------------------------------------------
# Evaluation


def bind(skeleton: Skeleton, features) -> Callable[..., np.ndarray]:
    """Bind the skeleton to an ``n x arity`` feature matrix.

    Copies each feature column once into contiguous memory, so no operator
    reads a strided view of a row-major matrix, computes every subtree that
    reads no parameter once, over these rows, and returns the evaluator of
    the rest, ``params -> values``.
    ``params`` is one parameter vector, giving ``n`` values, or an ``m x k``
    block of vectors, giving an ``m x n`` array whose row ``i`` is bitwise
    the evaluation at ``params[i]``.  One vector is evaluated as a block of
    one, and its values are that block's row.  Pure and deterministic: the
    evaluator writes into neither the params nor the rows it is bound to,
    and the values of a row do not depend on which other rows are bound
    with it.
    A ``COSTLY`` stage that reads s of the k > s parameters keeps, in the
    evaluator, its values for the last 2s + 1 distinct bit patterns of
    those s, looked up for a block of one vector: a fit's probes of the
    other parameters reuse the point's values instead of recomputing them.
    Domain violations (log/sqrt of a negative, division by zero, pow with a
    negative base and fractional exponent, overflow) leave a non-finite
    sentinel in the affected rows.  ``bind`` computes its subtrees under
    ``np.errstate(all="ignore")``; the evaluator does not enter it, so that a
    fit enters it once rather than once per evaluation: callers hold it, or
    domain violations raise numpy's floating-point warnings.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[1] != skeleton.arity:
        raise ExpressionError(
            f"feature matrix must have {skeleton.arity} columns, got shape {X.shape}"
        )
    rows = X.shape[0]
    if rows == 1:
        # in a block, a one-row feature column reaches np.power with stride
        # 0, which takes its scalar fast path (0.5 as sqrt, so -0.0 ^ 0.5 is
        # -0.0): a lone row is bound twice, to take every other row's kernel
        X = np.concatenate([X, X])
    columns = tuple(np.ascontiguousarray(X[:, j]) for j in range(X.shape[1]))
    with np.errstate(all="ignore"):
        bound = skeleton.compiled(columns)

    def evaluator(params=()) -> np.ndarray:
        p = np.asarray(params, dtype=float)
        # one vector is a block of one, whose row is returned
        vector = p.ndim != 2
        if vector:
            p = p.reshape(1, -1)
        if p.shape[1] < skeleton.param_count:
            raise ExpressionError(
                f"need {skeleton.param_count} parameters, got {p.shape[1]}"
            )
        shape = (p.shape[0], rows)
        # Param leaves read (m, 1) columns, which broadcast against the (n,)
        # feature columns; a tree without Param leaves compiled to its
        # values, hoisted here
        out = bound(p.T[:, :, None]) if skeleton.param_count else bound
        if rows == 1 and out.shape[-1:] == (2,):
            out = out[..., :1]
        # a tree without a Var leaf yields a scalar or an (m, 1) column
        if out.shape != shape:
            out = np.full(shape, out)
        return out[0] if vector else out

    return evaluator


def evaluate(skeleton: Skeleton, features, params=()) -> np.ndarray:
    """``bind(skeleton, features)(params)``: one evaluation, values per row,
    under ``np.errstate(all="ignore")``."""
    with np.errstate(all="ignore"):
        return bind(skeleton, features)(params)


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
