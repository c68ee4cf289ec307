"""The recursive expression parser, kept as a test oracle.

``_Parser``, ``_collect_vars``, ``_check_names`` and ``_eval`` are the tree
parser and its walkers from before ``parsing`` read each line in one
iterative pass, moved here unchanged: ``_Parser`` builds a tuple tree by
recursive descent, ``_check_names`` refuses the first undeclared name in
sorted order, and ``_eval`` walks the tree, forming each product through
``parsing._product``.  ``oracle_value`` runs them in that order.  They
recurse once per nesting level, so callers keep expressions shallow.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from canonalg.parsing import ParseError, _product, _tokenize
from canonalg.poly import power


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


def _check_names(ast, names: Sequence[str], line_no: int):
    used: set = set()
    _collect_vars(ast, used)
    unknown = used - set(names)
    if unknown:
        raise ParseError(f"undeclared variable {sorted(unknown)[0]!r}", line_no, 1)


def oracle_value(text: str, variables: dict, one):
    """The value of ``text``: parsed, names checked, then evaluated."""
    ast = _Parser(_tokenize(text), 0).parse()
    _check_names(ast, list(variables), 0)
    return _eval(ast, lambda fr: one.scale(one.ring.of_fraction(fr)), variables.__getitem__)
