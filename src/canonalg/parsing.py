"""Shared expression grammar and endomorphism definition files.

Expression grammar (whitespace insignificant, no implicit multiplication):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ['^' nat]
    atom   := number | variable | '(' expr ')'
    number := nat ['/' nat]        (rational literals; '/' only in numerals)

Variables are ``X1..Xm`` for polynomial input and ``Y1..Y2n`` for Weyl input.
Weyl expressions are parsed as noncommutative words: products evaluate left
to right through the normal-ordering multiplication, so any input word lands
in canonical form on ingestion.  Evaluation refuses, with a ``ParseError``,
any product or power step whose operands' term counts multiply past
``TERM_PAIR_BUDGET``, before forming it.

An endomorphism file is a ``key=value`` header line followed by one
``Var -> expression`` mapping per generator, in generator order:

    ring=F2 kind=weyl n=1
    Y1 -> Y1
    Y2 -> Y2 + Y1^2

Header keys: ``ring`` (Z, Q, F<p> or Fp(<p>)), ``kind`` (poly, poisson,
weyl), and ``m`` (variable count, kind poly) or ``n`` (index, other kinds).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .poly import Poly, PolyEndo, default_names, power
from .rings import Ring, ring_from_text
from .weyl import WeylAlgebra, WeylElement


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}" if line else message)


_SYMBOLS = ("+", "-", "*", "^", "/", "(", ")")


def _tokenize(text: str, line_no: int = 0) -> list[tuple[str, object, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i + 1))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i + 1))
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line_no, i + 1)
    tokens.append(("end", None, len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens, line_no: int):
        self.tokens = tokens
        self.line_no = line_no
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind: str | None = None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", self.line_no, tok[2])
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", self.line_no, tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] == "*":
            self.take()
            node = ("mul", node, self.factor())
        return node

    def factor(self):
        if self.peek()[0] == "-":
            self.take()
            return ("neg", self.factor())
        node = self.atom()
        if self.peek()[0] == "^":
            self.take()
            exp = self.take("int")[1]
            node = ("pow", node, exp)
        return node

    def atom(self):
        tok = self.peek()
        if tok[0] == "int":
            self.take()
            value = Fraction(tok[1])
            if self.peek()[0] == "/":
                self.take()
                den = self.take("int")
                if den[1] == 0:
                    raise ParseError("zero denominator", self.line_no, den[2])
                value = Fraction(tok[1], den[1])
            return ("num", value)
        if tok[0] == "name":
            self.take()
            return ("var", tok[1])
        if tok[0] == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        raise ParseError(f"expected a number, variable or '('", self.line_no, tok[2])


def parse_expression(text: str, line_no: int = 0):
    return _Parser(_tokenize(text, line_no), line_no).parse()


def _collect_vars(ast, out: set):
    if ast[0] == "var":
        out.add(ast[1])
    elif ast[0] in ("add", "sub", "mul"):
        _collect_vars(ast[1], out)
        _collect_vars(ast[2], out)
    elif ast[0] == "neg":
        _collect_vars(ast[1], out)
    elif ast[0] == "pow":
        _collect_vars(ast[1], out)


# The most term pairs (the product of the operands' term counts) that one
# product or one step of a power may multiply while an expression is
# evaluated.  A product at the budget takes up to about a second over Q; a
# few bytes such as (X1 + X2 + 1)^400 would otherwise ask for minutes.
TERM_PAIR_BUDGET = 100_000


def _product(a, b):
    if len(a.terms) * len(b.terms) > TERM_PAIR_BUDGET:
        raise ParseError(
            f"a product of {len(a.terms)} by {len(b.terms)} terms exceeds the budget of {TERM_PAIR_BUDGET} term pairs"
        )
    return a * b


def _eval(ast, const, var):
    kind = ast[0]
    if kind == "num":
        return const(ast[1])
    if kind == "var":
        return var(ast[1])
    if kind == "add":
        return _eval(ast[1], const, var) + _eval(ast[2], const, var)
    if kind == "sub":
        return _eval(ast[1], const, var) - _eval(ast[2], const, var)
    if kind == "neg":
        return -_eval(ast[1], const, var)
    if kind == "mul":
        return _product(_eval(ast[1], const, var), _eval(ast[2], const, var))
    if kind == "pow":
        return power(_eval(ast[1], const, var), ast[2], _product)
    raise AssertionError(f"unknown AST node {kind!r}")


def eval_poly(ast, ring: Ring, names: Sequence[str]) -> Poly:
    nvars = len(names)
    index = {name: i for i, name in enumerate(names, start=1)}
    return _eval(
        ast,
        lambda fr: Poly.const(ring, nvars, ring.of_fraction(fr)),
        lambda name: Poly.variable(ring, nvars, index[name]),
    )


def eval_weyl(ast, algebra: WeylAlgebra, names: Sequence[str]) -> WeylElement:
    index = {name: i for i, name in enumerate(names, start=1)}
    return _eval(
        ast,
        lambda fr: algebra.const(algebra.ring.of_fraction(fr)),
        lambda name: algebra.generator(index[name]),
    )


def parse_poly(text: str, ring: Ring, nvars: int, letter: str = "X") -> Poly:
    """Public API: the grammar's one-expression entry point, undeclared names refused."""
    names = default_names(nvars, letter)
    ast = parse_expression(text)
    _check_names(ast, names, 0)
    return eval_poly(ast, ring, names)


def _check_names(ast, names: Sequence[str], line_no: int):
    used: set = set()
    _collect_vars(ast, used)
    unknown = used - set(names)
    if unknown:
        raise ParseError(f"undeclared variable {sorted(unknown)[0]!r}", line_no, 1)


@dataclass(frozen=True)
class EndoFile:
    """Parsed endomorphism definition: header plus one image per generator."""

    ring: Ring
    kind: str  # "poly" | "poisson" | "weyl"
    n: int | None
    nvars: int
    images: tuple

    def names(self) -> list[str]:
        return default_names(self.nvars, "Y" if self.kind == "weyl" else "X")

    def poly_endo(self) -> PolyEndo:
        if self.kind == "weyl":
            raise ValueError("a weyl file does not define a polynomial endomorphism")
        return PolyEndo(self.ring, self.nvars, list(self.images))

    def weyl_algebra(self) -> WeylAlgebra:
        if self.kind != "weyl":
            raise ValueError("not a weyl file")
        return WeylAlgebra(self.ring, self.n)


def parse_endo_file(text: str) -> EndoFile:
    lines = [
        (i + 1, line.strip())
        for i, line in enumerate(text.splitlines())
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines:
        raise ParseError("empty input")
    header_no, header = lines[0]
    fields = {}
    for chunk in header.split():
        if "=" not in chunk:
            raise ParseError(f"malformed header entry {chunk!r}", header_no, 1)
        key, _, value = chunk.partition("=")
        fields[key] = value
    try:
        ring = ring_from_text(fields.get("ring", ""))
    except ValueError as exc:
        raise ParseError(str(exc), header_no, 1) from None
    kind = fields.get("kind", "")
    if kind not in ("poly", "poisson", "weyl"):
        raise ParseError(f"kind must be poly, poisson or weyl, got {kind!r}", header_no, 1)
    if kind == "poly":
        if "m" not in fields or not fields["m"].isdigit() or int(fields["m"]) < 1:
            raise ParseError("kind=poly needs m=<variable count>", header_no, 1)
        n = None
        nvars = int(fields["m"])
    else:
        if "n" not in fields or not fields["n"].isdigit() or int(fields["n"]) < 1:
            raise ParseError(f"kind={kind} needs n=<index>", header_no, 1)
        n = int(fields["n"])
        nvars = 2 * n

    names = default_names(nvars, "Y" if kind == "weyl" else "X")
    body = lines[1:]
    if len(body) != nvars:
        raise ParseError(
            f"expected {nvars} image lines for kind={kind}, found {len(body)}", header_no, 1
        )
    algebra = WeylAlgebra(ring, n) if kind == "weyl" else None
    images = []
    for expected, (line_no, line) in zip(names, body):
        lhs, arrow, rhs = line.partition("->")
        if not arrow:
            raise ParseError("missing '->'", line_no, 1)
        if lhs.strip() != expected:
            raise ParseError(f"expected image of {expected}, found {lhs.strip()!r}", line_no, 1)
        try:  # the tree walks recurse once per operator
            ast = parse_expression(rhs, line_no)
            _check_names(ast, names, line_no)
            try:
                if kind == "weyl":
                    images.append(eval_weyl(ast, algebra, names))
                else:
                    images.append(eval_poly(ast, ring, names))
            except (ValueError, ArithmeticError) as exc:
                raise ParseError(str(exc), line_no, 1) from None
        except RecursionError:
            raise ParseError("expression nested too deeply", line_no, 1) from None
    return EndoFile(ring=ring, kind=kind, n=n, nvars=nvars, images=tuple(images))


def print_endo_file(ef: EndoFile) -> str:
    if ef.kind == "poly":
        header = f"ring={ef.ring} kind=poly m={ef.nvars}"
    else:
        header = f"ring={ef.ring} kind={ef.kind} n={ef.n}"
    names = ef.names()
    lines = [header]
    for name, image in zip(names, ef.images):
        lines.append(f"{name} -> {image.to_text(names)}")
    return "\n".join(lines) + "\n"
