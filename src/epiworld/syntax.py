"""Surface language for epistemic logic programs.

Hand-written lexer and recursive-descent parser for clingo-style rules
extended with subjective atoms `&k{...}` (and the `&m{...}` shorthand),
plus the AST dataclasses and a printer whose output parses back to the
same AST.

Grammar (informal):

    program   : statement*
    statement : rule | "#show" ["-"] NAME "/" NUM "." | "#const" NAME "=" term "."
    rule      : "{" hatom "}" "."                     (choice; head only)
              | head "."  |  head ":-" body "."  |  ":-" body "."  |  ":- ."
    head      : hatom (("," | ";") hatom)*            (disjunction)
    hatom     : ["-"] atom
    body      : literal ("," literal)*
    literal   : ["not" ["not"]] ["-"] atom            (objective)
              | ["not"] ("&k" | "&m") "{" ["~"] ["-"] atom "}"
    atom      : NAME ["(" term ("," term)* ")"]
    term      : NAME ["(" term ("," term)* ")"] | VARIABLE | NUM

`~` is default negation inside a subjective atom, `-` is explicit
negation and binds tighter than `~`.  `&m{l}` is sugar for
`not &k{~l}` and is desugared during parsing.  `%` starts a comment.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

# Deepest nesting of function terms the parser accepts; the recursive
# parser, printer and grounder stay far below Python's recursion limit.
MAX_TERM_DEPTH = 100


class SourceError(Exception):
    """Problem in an input program, with a source position and, when
    known, the name of the source it is in."""

    def __init__(self, message: str, line: int, col: int, source: str | None = None):
        where = f"{line}:{col}" if source is None else f"{source}:{line}:{col}"
        super().__init__(f"{where}: {message}")
        self.message = message
        self.line = line
        self.col = col


class LexError(SourceError):
    pass


class ParseError(SourceError):
    pass


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Compound:
    functor: str
    args: "tuple[Term, ...]"


Term = Const | Num | Var | Compound


@dataclass(frozen=True)
class Atom:
    """Predicate atom.  An explicitly negated atom -p is a distinct atom."""

    name: str
    args: tuple[Term, ...] = ()
    strong_neg: bool = False


@dataclass(frozen=True)
class AuxAtom(Atom):
    """Atom the solver creates.  It prints like the `Atom` with the same
    fields but never equals it, since dataclass equality compares
    classes, so no user atom can collide with it."""


@dataclass(frozen=True)
class ObjLiteral:
    """Objective literal: an atom under 0..2 default negations."""

    atom: Atom
    negs: int = 0


@dataclass(frozen=True)
class KAtom:
    """Subjective atom K l; the inner literal carries at most one `~`."""

    inner: ObjLiteral


@dataclass(frozen=True)
class SubjLiteral:
    katom: KAtom
    negated: bool = False  # at most one outer `not`


BodyLiteral = ObjLiteral | SubjLiteral


@dataclass(frozen=True)
class Rule:
    """head is a disjunction; empty head is a constraint.

    A choice rule has exactly one head atom and an empty body.
    """

    head: tuple[Atom, ...] = ()
    body: tuple[BodyLiteral, ...] = ()
    is_choice: bool = False


@dataclass(frozen=True)
class ShowDirective:
    name: str
    arity: int
    strong_neg: bool = False


@dataclass(frozen=True)
class ConstDirective:
    name: str
    value: Term


@dataclass(frozen=True)
class Program:
    rules: tuple[Rule, ...] = ()
    shows: tuple[ShowDirective, ...] = ()
    consts: tuple[ConstDirective, ...] = ()


# ---------------------------------------------------------------------------
# Lexer


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


_PUNCT = {",": ",", ".": ".", "(": "(", ")": ")", "{": "{", "}": "}",
          "~": "~", ";": ";", "/": "/", "=": "=", "-": "-"}


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(source)

    def push(kind: str, text: str, ln: int, cl: int) -> None:
        tokens.append(Token(kind, text, ln, cl))

    while i < n:
        c = source[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and source[i] != "\n":
                i += 1
            continue
        ln, cl = line, col
        if c == ":":
            if source[i:i + 2] == ":-":
                push(":-", ":-", ln, cl)
                i += 2
                col += 2
                continue
            raise LexError("expected ':-'", ln, cl)
        if c in _PUNCT:
            push(_PUNCT[c], c, ln, cl)
            i += 1
            col += 1
            continue
        if c in "&#":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i + 1:j]
            if c == "&" and word in ("k", "m"):
                push("&" + word, source[i:j], ln, cl)
            elif c == "#" and word in ("show", "const"):
                push("#" + word, source[i:j], ln, cl)
            else:
                raise LexError(f"unknown token {source[i:j]!r}", ln, cl)
            col += j - i
            i = j
            continue
        if c.isdecimal():
            j = i
            while j < n and source[j].isdecimal():
                j += 1
            push("num", source[i:j], ln, cl)
            col += j - i
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            if word == "not":
                push("not", word, ln, cl)
            elif word[0].isupper():
                push("var", word, ln, cl)
            else:
                push("ident", word, ln, cl)
            col += j - i
            i = j
            continue
        raise LexError(f"unrecognized character {c!r}", ln, cl)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def take(self, kind: str) -> Token | None:
        if self.at(kind):
            tok = self.tokens[self.pos]
            self.pos += 1
            return tok
        return None

    def expect(self, kind: str) -> Token:
        tok = self.take(kind)
        if tok is None:
            got = self.peek()
            shown = got.text or "end of input"
            raise ParseError(f"expected {kind!r}, found {shown!r}", got.line, got.col)
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    # -- grammar

    def statements(self, rules: list[Rule], shows: list[ShowDirective],
                   consts: list[tuple[ConstDirective, Token]]) -> None:
        while not self.at("eof"):
            if self.at("#show"):
                shows.append(self.show_directive())
            elif self.at("#const"):
                consts.append(self.const_directive())
            else:
                rules.append(self.rule())

    def show_directive(self) -> ShowDirective:
        self.expect("#show")
        strong = self.take("-") is not None
        name = self.expect("ident").text
        self.expect("/")
        arity = self.number()
        self.expect(".")
        return ShowDirective(name, arity, strong)

    def const_directive(self) -> tuple[ConstDirective, Token]:
        tok = self.expect("#const")
        name = self.expect("ident").text
        self.expect("=")
        value = self.term()
        if term_vars(value):
            raise ParseError("constant definitions must be ground", tok.line, tok.col)
        self.expect(".")
        return ConstDirective(name, value), tok

    def rule(self) -> Rule:
        if self.take("{"):
            atom = self.head_atom()
            self.expect("}")
            self.expect(".")
            return Rule((atom,), (), is_choice=True)
        head: tuple[Atom, ...] = ()
        if not self.at(":-"):
            head = self.head()
        body: tuple[BodyLiteral, ...] = ()
        if self.take(":-") and not self.at("."):
            body = self.body()
        self.expect(".")
        return Rule(head, body)

    def head(self) -> tuple[Atom, ...]:
        atoms = [self.head_atom()]
        while self.take(",") or self.take(";"):
            atoms.append(self.head_atom())
        return tuple(atoms)

    def head_atom(self) -> Atom:
        strong = self.take("-") is not None
        atom = self.atom()
        return Atom(atom.name, atom.args, strong)

    def body(self) -> tuple[BodyLiteral, ...]:
        literals = [self.body_literal()]
        while self.take(","):
            literals.append(self.body_literal())
        return tuple(literals)

    def body_literal(self) -> BodyLiteral:
        negs = 0
        while self.at("not"):
            if negs == 2:
                raise self.error("at most two 'not' may stack on a literal")
            self.take("not")
            negs += 1
        if self.at("&k") or self.at("&m"):
            if negs > 1:
                raise self.error("at most one 'not' may precede a subjective atom")
            sugar = self.at("&m")
            self.pos += 1
            inner = self.subjective_inner()
            negated = negs == 1
            if sugar:
                # &m{l} abbreviates not &k{~l}
                inner = ObjLiteral(inner.atom, 1 - inner.negs)
                negated = not negated
            return SubjLiteral(KAtom(inner), negated)
        strong = self.take("-") is not None
        atom = self.atom()
        return ObjLiteral(Atom(atom.name, atom.args, strong), negs)

    def subjective_inner(self) -> ObjLiteral:
        self.expect("{")
        if self.at("not"):
            raise self.error("default negation inside a subjective atom is written '~'")
        negs = 1 if self.take("~") else 0
        if self.at("~"):
            raise self.error("at most one '~' may occur inside a subjective atom")
        if self.at("&k") or self.at("&m"):
            raise self.error("subjective atoms cannot be nested")
        strong = self.take("-") is not None
        atom = self.atom()
        self.expect("}")
        return ObjLiteral(Atom(atom.name, atom.args, strong), negs)

    def atom(self) -> Atom:
        tok = self.expect("ident")
        args: tuple[Term, ...] = ()
        if self.take("("):
            parts = [self.term()]
            while self.take(","):
                parts.append(self.term())
            self.expect(")")
            args = tuple(parts)
        return Atom(tok.text, args)

    def term(self, depth: int = 0) -> Term:
        if depth > MAX_TERM_DEPTH:
            raise self.error(f"terms may nest at most {MAX_TERM_DEPTH} deep")
        if self.at("ident"):
            name = self.take("ident").text
            if self.take("("):
                parts = [self.term(depth + 1)]
                while self.take(","):
                    parts.append(self.term(depth + 1))
                self.expect(")")
                return Compound(name, tuple(parts))
            return Const(name)
        if self.at("var"):
            return Var(self.take("var").text)
        if self.at("num"):
            return Num(self.number())
        raise self.error(f"expected a term, found {self.peek().text!r}")

    def number(self) -> int:
        tok = self.expect("num")
        try:
            return int(tok.text)
        except ValueError:  # past Python's limit on digits of an int
            raise ParseError("number too long", tok.line, tok.col) from None


def term_vars(t: Term, leaf: type[Var] | type[Const] = Var) -> set[str]:
    """Names of the terms of class `leaf` in `t`, variables by default."""
    if isinstance(t, leaf):
        return {t.name}
    if isinstance(t, Compound):
        out: set[str] = set()
        for a in t.args:
            out |= term_vars(a, leaf)
        return out
    return set()


def rule_atoms(r: Rule):
    """The atoms of a rule: its head, then its body literals in order,
    the inner atom of a subjective literal included."""
    yield from r.head
    for lit in r.body:
        yield lit.atom if isinstance(lit, ObjLiteral) else lit.katom.inner.atom


def substitute_term(t: Term, sub: dict[str, Term], leaf: type[Var] | type[Const]) -> Term:
    """`t` with each term of class `leaf` named in `sub` replaced: `Var`
    when grounding, `Const` for `#const`."""
    if isinstance(t, leaf):
        try:
            return sub[t.name]
        except KeyError:  # a constant without a `#const`
            return t
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(substitute_term(a, sub, leaf) for a in t.args))
    return t


def substitute_atom(a: Atom, sub: dict[str, Term], leaf: type[Var] | type[Const]) -> Atom:
    if not a.args:
        return a
    return type(a)(a.name, tuple(substitute_term(t, sub, leaf) for t in a.args), a.strong_neg)


def substitute_rule(r: Rule, sub: dict[str, Term], leaf: type[Var] | type[Const]) -> Rule:
    head = tuple(substitute_atom(a, sub, leaf) for a in r.head)
    body: list[BodyLiteral] = []
    for lit in r.body:
        if isinstance(lit, ObjLiteral):
            body.append(ObjLiteral(substitute_atom(lit.atom, sub, leaf), lit.negs))
        else:
            inner = lit.katom.inner
            body.append(SubjLiteral(
                KAtom(ObjLiteral(substitute_atom(inner.atom, sub, leaf), inner.negs)),
                lit.negated))
    return Rule(head, tuple(body), r.is_choice)


def parse_text(*sources: str, names: Sequence[str] | None = None) -> Program:
    """One program from one or more source texts.  Each `#const` is
    substituted into the rules of every text, a constant may be defined
    only once across all of them, and a value that the substitution
    would change (one naming a defined constant) is refused.  `names`,
    one per text (say file names), prefix the position of an error in
    that text."""
    rules: list[Rule] = []
    shows: list[ShowDirective] = []
    consts: list[tuple[ConstDirective, Token]] = []
    origin: list[str | None] = []  # name of the text of each entry of consts
    for i, source in enumerate(sources):
        name = None if names is None else names[i]
        try:
            _Parser(tokenize(source)).statements(rules, shows, consts)
        except SourceError as exc:
            raise type(exc)(exc.message, exc.line, exc.col, name) from None
        origin += [name] * (len(consts) - len(origin))
    mapping: dict[str, Term] = {}
    for (directive, tok), name in zip(consts, origin):
        if directive.name in mapping:
            raise ParseError(f"constant {directive.name!r} defined twice",
                             tok.line, tok.col, name)
        mapping[directive.name] = directive.value
    # A value naming a defined constant is refused, not expanded: chains
    # could expand to terms of any size.
    for (directive, tok), name in zip(consts, origin):
        chained = sorted(c for c in term_vars(directive.value, Const)
                         if mapping.get(c, Const(c)) != Const(c))
        if chained:
            raise ParseError(f"the value of constant {directive.name!r} names constant "
                             f"{chained[0]!r}; chained #const definitions are refused",
                             tok.line, tok.col, name)
    if mapping:
        rules = [substitute_rule(r, mapping, Const) for r in rules]
    return Program(tuple(rules), tuple(shows), tuple(d for d, _ in consts))


# ---------------------------------------------------------------------------
# Printer


def print_term(t: Term) -> str:
    if isinstance(t, Const):
        return t.name
    if isinstance(t, Num):
        return str(t.value)
    if isinstance(t, Var):
        return t.name
    return f"{t.functor}({','.join(print_term(a) for a in t.args)})"


def print_atom(a: Atom) -> str:
    sign = "-" if a.strong_neg else ""
    if not a.args:
        return sign + a.name
    return f"{sign}{a.name}({','.join(print_term(t) for t in a.args)})"


def print_objective(lit: ObjLiteral) -> str:
    return "not " * lit.negs + print_atom(lit.atom)


def print_subjective(k: KAtom) -> str:
    inner = ("~" if k.inner.negs else "") + print_atom(k.inner.atom)
    return "&k{ " + inner + " }"


def print_body_literal(lit: BodyLiteral) -> str:
    if isinstance(lit, ObjLiteral):
        return print_objective(lit)
    return ("not " if lit.negated else "") + print_subjective(lit.katom)


def print_rule(r: Rule) -> str:
    if r.is_choice:
        return "{" + print_atom(r.head[0]) + "}."
    head = ", ".join(print_atom(a) for a in r.head)
    body = ", ".join(print_body_literal(l) for l in r.body)
    if head and body:
        return f"{head} :- {body}."
    if head:
        return head + "."
    if body:
        return f":- {body}."
    return ":- ."


def print_show(d: ShowDirective) -> str:
    return f"#show {'-' if d.strong_neg else ''}{d.name}/{d.arity}."


def print_const(d: ConstDirective) -> str:
    return f"#const {d.name} = {print_term(d.value)}."


def print_program(p: Program) -> str:
    lines = [print_rule(r) for r in p.rules]
    lines += [print_show(d) for d in p.shows]
    lines += [print_const(d) for d in p.consts]
    return "\n".join(lines) + ("\n" if lines else "")
