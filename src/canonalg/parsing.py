"""Shared expression grammar and endomorphism definition files.

Expression grammar (whitespace insignificant, no implicit multiplication):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ['^' nat]
    atom   := number | variable | '(' expr ')'
    number := nat ['/' nat]        (rational literals; '/' only in numerals)

Variables are ``X1..Xm`` for polynomial input and ``Y1..Y2n`` for Weyl input.
An expression is evaluated in one left-to-right pass over its tokens, with no
limit on its length or nesting depth, and its first fault in reading order is
the ``ParseError`` it raises.  Weyl expressions are parsed as noncommutative
words: products evaluate left to right through the normal-ordering
multiplication, so any input word lands in canonical form on ingestion.
Evaluation refuses, before forming it, any product or power step that
would form more than ``TERM_PAIR_BUDGET`` terms (``weyl.leibniz_terms``
counts a Weyl product's; a Weyl file's relation check counts in all), and
any Weyl product over Q or Z whose degree would pass ``WEYL_DEGREE_LIMIT``.

An endomorphism file is a ``key=value`` header line followed by one
``Var -> expression`` mapping per generator, in generator order:

    ring=F2 kind=weyl n=1
    Y1 -> Y1
    Y2 -> Y2 + Y1^2

Header keys: ``ring`` (Z, Q, F<p> or Fp(<p>)), ``kind`` and the kind's count
key, each once.  ``_KINDS`` states each kind's count key, what it counts, the
generators per unit of the count and their letter; reading and printing both
follow it.  The generator count may not pass ``GENERATOR_LIMIT``, and every
numeral, in the header or an expression, is ASCII digits 0-9.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import Poly, PolyEndo, default_names, power
from .rings import Ring, is_numeral, ring_from_text
from .weyl import WeylAlgebra, WeylElement, WeylEndo, leibniz_terms, relation_check_terms


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
        if is_numeral(ch):
            j = i
            while j < len(text) and is_numeral(text[j]):
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
    tokens.append(("end", "end of line", len(text) + 1))
    return tokens


# The most terms one product or one step of a power may form while an
# expression is evaluated (``weyl.leibniz_terms`` counts a Weyl product's),
# and a Weyl file's relation check in all (``weyl.relation_check_terms``).
# A product at the budget takes up to about a second over Q; a few bytes
# such as (X1 + X2 + 1)^400 would otherwise ask for minutes.
TERM_PAIR_BUDGET = 100_000

# The highest degree a Weyl product over Q or Z may reach while an expression
# is evaluated.  The relation check of Y1 -> Y1 + Y2^M, Y2 -> Y2 + Y1^M forms
# d^M x^M, whose M + 1 exact Leibniz weights reach M!: M = 1000 takes 0.3 s,
# M = 20,000 over a gigabyte.  Over F_p the weights stop at l = p - 1, and
# polynomial products have none.
WEYL_DEGREE_LIMIT = 1000

# The most generators (m, or 2n) a file may define.  Pair checks grow as their
# cube: on identity maps over F3 every command answers in about 2 s at 200.
GENERATOR_LIMIT = 200


def _product(a, b):
    work = len(a.terms) * (leibniz_terms(b) if isinstance(b, WeylElement) else len(b.terms))
    if work > TERM_PAIR_BUDGET:
        raise ParseError(
            f"a product of {len(a.terms)} by {len(b.terms)} terms forms up to {work} terms, "
            f"past the budget of {TERM_PAIR_BUDGET}"
        )
    if isinstance(a, WeylElement) and not a.ring.p and a.terms and b.terms:
        degree = a.degree() + b.degree()  # additive: the Weyl algebra over Q or Z has no zero divisors
        if degree > WEYL_DEGREE_LIMIT:
            raise ParseError(
                f"a Weyl product of degree {degree} over {a.ring} exceeds the limit of degree {WEYL_DEGREE_LIMIT}"
            )
    return a * b


# Binding powers of the pending operators; a "(" barrier binds at 0, so no
# reduction crosses it.
_BINDING = {"+": 1, "-": 1, "*": 2, "neg": 3}


def _evaluate(text: str, line_no: int, variables: dict, one):
    """The value of one expression, read left to right in one pass over its
    tokens: ``variables`` maps each declared name to its value, ``one`` is
    the unit that numerals scale.

    Operands go on a value stack and operators wait on a pending stack until
    one that binds no tighter follows, so sums and products group left to
    right as the grammar does, at any depth.  A ``^ nat`` applies at once to
    the operand just completed.  Every fault is a ``ParseError`` on this
    line: syntax and undeclared names at their token, a failed evaluation
    step (a budget, a numeral with no image in the ring) at column 1.
    """
    values: list = []
    pending: list = []

    def reduce(binding: int):
        while pending and _BINDING.get(pending[-1], 0) >= binding:
            op = pending.pop()
            if op == "neg":
                values[-1] = -values[-1]
                continue
            b = values.pop()
            a = values[-1]
            values[-1] = a + b if op == "+" else a - b if op == "-" else _product(a, b)

    def expect(pos: int, kind: str):
        tok = tokens[pos]
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", line_no, tok[2])
        return tok[1]

    pos = 0
    try:
        tokens = _tokenize(text, line_no)
        while True:
            kind, value, col = tokens[pos]
            pos += 1
            if kind in ("-", "("):  # a prefix minus or an open group: still before the operand
                pending.append("neg" if kind == "-" else "(")
                continue
            if kind == "int":
                if tokens[pos][0] == "/":
                    den = expect(pos + 1, "int")
                    if den == 0:
                        raise ParseError("zero denominator", line_no, tokens[pos + 1][2])
                    value = Fraction(value, den)
                    pos += 2
                values.append(one.scale(value))
            elif kind == "name":
                if value not in variables:
                    raise ParseError(f"undeclared variable {value!r}", line_no, col)
                values.append(variables[value])
            else:
                raise ParseError("expected a number, variable or '('", line_no, col)
            while True:  # the operand is complete: its power, then any groups it closes
                if tokens[pos][0] == "^":
                    values[-1] = power(values[-1], expect(pos + 1, "int"), _product)
                    pos += 2
                kind, value, col = tokens[pos]
                pos += 1
                if kind != ")":
                    break
                reduce(1)
                if not pending:
                    raise ParseError("trailing input ')'", line_no, col)
                pending.pop()
            if kind in _BINDING:
                reduce(_BINDING[kind])
                pending.append(kind)
                continue
            if "(" in pending:
                raise ParseError(f"expected ')', found {value!r}", line_no, col)
            if kind != "end":
                raise ParseError(f"trailing input {value!r}", line_no, col)
            reduce(1)
            return values[0]
    except (ValueError, ArithmeticError) as exc:
        if isinstance(exc, ParseError) and exc.col:  # a syntax fault, already placed
            raise
        raise ParseError(str(exc), line_no, 1) from None


def parse_poly(text: str, ring: Ring, nvars: int) -> Poly:
    """Public API: the grammar's one-expression entry point, undeclared names refused."""
    variables = dict(zip(default_names(nvars), PolyEndo.identity(ring, nvars).images))
    return _evaluate(text, 0, variables, Poly.one(ring, nvars))


# Each kind's header count key, what the count counts, the generators per unit
# of the count, and the letter the generators are written in.
_KINDS = {
    "poly": ("m", "variable count", 1, "X"),
    "poisson": ("n", "index", 2, "X"),
    "weyl": ("n", "index", 2, "Y"),
}


@dataclass(frozen=True)
class EndoFile:
    """Parsed endomorphism definition: header plus one image per generator."""

    ring: Ring
    kind: str  # a key of _KINDS
    n: int | None
    nvars: int
    images: tuple

    def endo(self) -> PolyEndo | WeylEndo:
        """The file's endomorphism: a relation-verified ``WeylEndo`` for kind
        weyl, a ``PolyEndo`` for the other kinds."""
        if self.kind == "weyl":
            return WeylEndo(WeylAlgebra(self.ring, self.n), list(self.images))
        return PolyEndo(self.ring, self.nvars, list(self.images))


def parse_endo_file(text: str) -> EndoFile:
    lines = [
        (i + 1, line)
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
    if kind not in _KINDS:
        raise ParseError(f"kind must be poly, poisson or weyl, got {kind!r}", header_no, 1)
    key, label, per_unit, letter = _KINDS[kind]
    count = fields.get(key, "")
    if not is_numeral(count) or int(count) < 1:
        raise ParseError(f"kind={kind} needs {key}=<{label}>", header_no, 1)
    n = int(count) if key == "n" else None
    nvars = per_unit * int(count)
    if len(header.split()) > 3:  # ring, kind and the count are in, so a fourth entry repeats one or is unknown
        raise ParseError(f"kind={kind} takes the header keys ring, kind and {key} once each", header_no, 1)

    body = lines[1:]
    if len(body) != nvars:  # before any per-generator work, which a header's count alone would size
        raise ParseError(
            f"expected {nvars} image lines for kind={kind}, found {len(body)}", header_no, 1
        )
    if nvars > GENERATOR_LIMIT:
        raise ParseError(f"{nvars} generators exceed the limit of {GENERATOR_LIMIT}", header_no, 1)
    names = default_names(nvars, letter)
    gens = WeylAlgebra(ring, n).generators() if kind == "weyl" else PolyEndo.identity(ring, nvars).images
    variables, one = dict(zip(names, gens)), gens[0]._one()
    images = []
    for expected, (line_no, line) in zip(names, body):
        lhs, arrow, rhs = line.partition("->")
        if not arrow:
            raise ParseError("missing '->'", line_no, 1)
        if lhs.strip() != expected:
            raise ParseError(f"expected image of {expected}, found {lhs.strip()!r}", line_no, 1)
        # blanks in place of the name and the arrow, so every column counts from the start of the line
        images.append(_evaluate(" " * (len(lhs) + 2) + rhs, line_no, variables, one))
    if kind == "weyl" and (work := relation_check_terms(images)) > TERM_PAIR_BUDGET:
        raise ParseError(f"the relation check forms up to {work} terms, past the budget of {TERM_PAIR_BUDGET}", header_no, 1)
    return EndoFile(ring=ring, kind=kind, n=n, nvars=nvars, images=tuple(images))


def print_endo_file(ef: EndoFile) -> str:
    """The file text ``parse_endo_file`` reads back as ``ef``."""
    key, _, per_unit, letter = _KINDS[ef.kind]
    lines = [f"ring={ef.ring} kind={ef.kind} {key}={ef.nvars // per_unit}"]
    lines += [f"{name} -> {image.to_text()}" for name, image in zip(default_names(ef.nvars, letter), ef.images)]
    return "\n".join(lines) + "\n"
