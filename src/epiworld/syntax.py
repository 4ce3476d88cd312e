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

import re
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


def _hash_once(cls):
    """Class decorator: keep the dataclass hash of each node after its
    first use.  Atoms and subjective atoms are dict and set keys
    throughout the solver, and each hash would otherwise walk their
    terms again.  The parser builds each distinct atom of a program
    once (`_Parser`), so its hash is taken once, and a lookup of the
    same object succeeds by identity without comparing fields.  The
    kept hash is not pickled, since str hashes are salted per
    process."""
    field_hash = cls.__hash__

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = field_hash(self)
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    cls._hash = None  # until the first hash; not a dataclass field
    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


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


@_hash_once
@dataclass(frozen=True)
class Atom:
    """Predicate atom.  An explicitly negated atom -p is a distinct atom."""

    name: str
    args: tuple[Term, ...] = ()
    strong_neg: bool = False


@_hash_once
@dataclass(frozen=True)
class AuxAtom(Atom):
    """Atom the solver creates.  It prints like the `Atom` with the same
    fields but never equals it, since dataclass equality compares
    classes, so no user atom can collide with it."""


@_hash_once
@dataclass(frozen=True)
class ObjLiteral:
    """Objective literal: an atom under 0..2 default negations."""

    atom: Atom
    negs: int = 0


@_hash_once
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


# One match per token: the blanks and comments in front of it, then the
# token as group 1.  `\w` is `isalnum()` or "_" and `\d` is
# `isdecimal()`, the classes the lexer is defined by; `\d+` comes before
# `\w+`, so `12ab` is a number and a word.  A comment that ends the
# input without a newline is the text of the end token, so the end is
# reported where that comment starts.  Every position matches one
# alternative, the last one any character, so the blanks in front are
# never given back to a token.
_TOKEN = re.compile(r"""
    [ \t\r\n]* (?: %[^\n]*\n [ \t\r\n]* )*
    ( [,.(){}~;/=-] | \d+ | \w+ | :-? | [&#]\w* | (?:%[^\n]*)?\Z | . )
""", re.VERBOSE)

# Kinds by whole token text, then by first character; a token found in
# neither gets the empty kind until `_words` checks it.
_KIND = {t: t for t in (",", ".", "(", ")", "{", "}", "~", ";", "/", "=", "-", ":-",
                        "not", "&k", "&m", "#show", "#const")} | {"": "eof"}
_FIRST = ({c: "ident" for c in "abcdefghijklmnopqrstuvwxyz"}
          | {c: "var" for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZ"}
          | {c: "num" for c in "0123456789"})
# The kinds of the tokens that are terms on their own.
_LEAF = frozenset(("ident", "var", "num"))


def _lex(source: str) -> tuple[list[str], list[str]]:
    """The kinds and texts of the tokens of `source`, ending with the
    end token, whose text is empty."""
    texts = _TOKEN.findall(source)
    if len(texts) > 1 and texts[-2][:1] in ("", "%"):
        texts.pop()  # the empty match findall adds after a match that ends the input
    texts[-1] = ""
    kinds = [_KIND.get(t) or _FIRST.get(t[0], "") for t in texts]
    if "" in kinds:
        _words(source, kinds, texts)
    return kinds, texts


def _words(source: str, kinds: list[str], texts: list[str]) -> None:
    """Give its kind to each token that `_lex` left without one (a word
    or number that does not start with an ASCII character), or refuse
    the first that is no token."""
    for i, kind in enumerate(kinds):
        if kind:
            continue
        text = texts[i]
        c = text[0]
        if c.isdecimal():
            kinds[i] = "num"
        elif c.isalpha():
            kinds[i] = "var" if c.isupper() else "ident"
        elif c == ":":
            raise LexError("expected ':-'", *_position(source, i))
        elif c in "&#":
            raise LexError(f"unknown token {text!r}", *_position(source, i))
        else:
            raise LexError(f"unrecognized character {c!r}", *_position(source, i))


def _starts(source: str) -> list[int]:
    """The offset of each token of `source`, as `_lex` splits it."""
    return [m.start(1) for m in _TOKEN.finditer(source)]


def _position(source: str, token: int) -> tuple[int, int]:
    """Line and column of token number `token` of `source`."""
    offset = _starts(source)[token]
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    """Recursive descent over the token kinds of the sources of one
    `parse_text` call, each read by index: `pos` is the next token.  The
    rule grammar compares kinds inline; positions are worked out only
    for an error.

    Each atom is built once: `atoms` holds, per sign, every atom read
    so far by its token texts, and `atom` looks the texts up before it
    parses the arguments, so a repeated atom is the object built at its
    first occurrence (hash-consing: Filliâtre, Conchon, "Type-safe
    modular hash-consing", ML 2006).  `terms` holds each constant and
    variable by its text in the same way.  Every later layer then meets
    one object per atom, whose hash `_hash_once` keeps, and its dict
    lookups succeed by identity."""

    def __init__(self):
        self.atoms: tuple[dict[str, Atom], dict[str, Atom]] = ({}, {})
        self.terms: dict[str, Term] = {}

    # -- errors, and the token helper of the directives

    def error(self, message: str, token: int) -> ParseError:
        return ParseError(message, *_position(self.source, token))

    def expected(self, kind: str, token: int) -> ParseError:
        shown = self.texts[token] or "end of input"
        return self.error(f"expected {kind!r}, found {shown!r}", token)

    def expect(self, kind: str) -> str:
        i = self.pos
        if self.kinds[i] != kind:
            raise self.expected(kind, i)
        self.pos = i + 1
        return self.texts[i]

    # -- grammar

    def statements(self, source: str, rules: list[Rule], shows: list[ShowDirective],
                   consts: list[tuple[ConstDirective, int]]) -> None:
        """Parse every statement of `source`.  Each `#const` comes with
        the number of its token."""
        self.source = source
        self.kinds, self.texts = _lex(source)
        self.pos = 0
        kinds = self.kinds
        while (kind := kinds[self.pos]) != "eof":
            if kind == "#show":
                shows.append(self.show_directive())
            elif kind == "#const":
                start = self.pos
                consts.append((self.const_directive(), start))
            else:
                rules.append(self.rule())

    def show_directive(self) -> ShowDirective:
        self.expect("#show")
        strong = self.kinds[self.pos] == "-"
        self.pos += strong
        name = self.expect("ident")
        self.expect("/")
        arity = self.number()
        self.expect(".")
        return ShowDirective(name, arity, strong)

    def const_directive(self) -> ConstDirective:
        start = self.pos
        self.expect("#const")
        name = self.expect("ident")
        self.expect("=")
        value = self.term()
        if term_vars(value):
            raise self.error("constant definitions must be ground", start)
        self.expect(".")
        return ConstDirective(name, value)

    def rule(self) -> Rule:
        kinds = self.kinds
        i = self.pos
        if kinds[i] == "{":
            self.pos = i + 1
            atom = self.atom()
            i = self.pos
            if kinds[i] != "}":
                raise self.expected("}", i)
            if kinds[i + 1] != ".":
                raise self.expected(".", i + 1)
            self.pos = i + 2
            return Rule((atom,), (), is_choice=True)
        head: tuple[Atom, ...] = ()
        if kinds[i] != ":-":
            head = self.head()
            i = self.pos
        body: tuple[BodyLiteral, ...] = ()
        if kinds[i] == ":-":
            i += 1
            if kinds[i] != ".":
                self.pos = i
                body = self.body()
                i = self.pos
        if kinds[i] != ".":
            raise self.expected(".", i)
        self.pos = i + 1
        return Rule(head, body)

    def head(self) -> tuple[Atom, ...]:
        kinds = self.kinds
        atoms = [self.atom()]
        while kinds[self.pos] in (",", ";"):
            self.pos += 1
            atoms.append(self.atom())
        return tuple(atoms)

    def body(self) -> tuple[BodyLiteral, ...]:
        kinds = self.kinds
        literals = [self.body_literal()]
        while kinds[self.pos] == ",":
            self.pos += 1
            literals.append(self.body_literal())
        return tuple(literals)

    def body_literal(self) -> BodyLiteral:
        kinds = self.kinds
        i = self.pos
        negs = 0
        while kinds[i] == "not":
            if negs == 2:
                raise self.error("at most two 'not' may stack on a literal", i)
            i += 1
            negs += 1
        kind = kinds[i]
        if kind == "&k" or kind == "&m":
            if negs > 1:
                raise self.error("at most one 'not' may precede a subjective atom", i)
            self.pos = i + 1
            inner = self.subjective_inner()
            negated = negs == 1
            if kind == "&m":
                # &m{l} abbreviates not &k{~l}
                inner = ObjLiteral(inner.atom, 1 - inner.negs)
                negated = not negated
            return SubjLiteral(KAtom(inner), negated)
        self.pos = i
        return ObjLiteral(self.atom(), negs)

    def subjective_inner(self) -> ObjLiteral:
        kinds = self.kinds
        i = self.pos
        if kinds[i] != "{":
            raise self.expected("{", i)
        i += 1
        if kinds[i] == "not":
            raise self.error("default negation inside a subjective atom is written '~'", i)
        negs = 0
        if kinds[i] == "~":
            i += 1
            negs = 1
            if kinds[i] == "~":
                raise self.error("at most one '~' may occur inside a subjective atom", i)
        kind = kinds[i]
        if kind == "&k" or kind == "&m":
            raise self.error("subjective atoms cannot be nested", i)
        self.pos = i
        atom = self.atom()
        i = self.pos
        if kinds[i] != "}":
            raise self.expected("}", i)
        self.pos = i + 1
        return ObjLiteral(atom, negs)

    def atom(self) -> Atom:
        """The atom at `pos`, its `-` included, through its closing
        parenthesis.  Equal token texts parse to equal atoms, so the
        texts are looked up in `atoms` before the arguments are parsed.
        The key of the flat shapes `name`, `name(t)` and `name(t,t)` is
        told by their token kinds; any other atom is scanned to its
        closing parenthesis.  Only an atom that parses is stored, so a
        malformed one is refused by the parse, as it would be without
        the lookup."""
        kinds, texts = self.kinds, self.texts
        i = self.pos
        strong = kinds[i] == "-"
        i += strong
        if kinds[i] != "ident":
            raise self.expected("ident", i)
        flat = True
        if kinds[i + 1] != "(":
            end = i + 1
            key = texts[i]
        elif kinds[i + 2] in _LEAF and kinds[i + 3] == ")":
            end = i + 4
            key = f"{texts[i]}({texts[i + 2]}"
        elif (kinds[i + 2] in _LEAF and kinds[i + 3] == "," and kinds[i + 4] in _LEAF
              and kinds[i + 5] == ")"):
            end = i + 6
            key = f"{texts[i]}({texts[i + 2]},{texts[i + 4]}"
        else:
            flat = False
            end = self.closing(i + 1)
            key = " ".join(texts[i:end])
        table = self.atoms[strong]
        atom = table.get(key)
        if atom is None:
            if not flat:
                self.pos = i + 2
                args = self.arguments(0)
            elif end == i + 1:
                args = ()
            elif end == i + 4:
                args = (self.leaf(i + 2),)
            else:
                args = (self.leaf(i + 2), self.leaf(i + 4))
            atom = table[key] = Atom(texts[i], args, strong)
        self.pos = end
        return atom

    def closing(self, i: int) -> int:
        """The number of the token after the ")" that closes the "(" at
        token i, or of the end token if there is none."""
        kinds = self.kinds
        depth = 0
        while True:
            kind = kinds[i]
            if kind == "(":
                depth += 1
            elif kind == ")":
                depth -= 1
                if not depth:
                    return i + 1
            elif kind == "eof":
                return i
            i += 1

    def arguments(self, depth: int) -> tuple[Term, ...]:
        """The terms after a "(", through the closing ")"."""
        kinds = self.kinds
        parts = [self.term(depth)]
        while kinds[self.pos] == ",":
            self.pos += 1
            parts.append(self.term(depth))
        i = self.pos
        if kinds[i] != ")":
            raise self.expected(")", i)
        self.pos = i + 1
        return tuple(parts)

    def leaf(self, i: int) -> Term:
        """The term of token i, a constant, variable or number; each
        constant and variable is built once per text."""
        kind, text = self.kinds[i], self.texts[i]
        if kind == "num":
            try:
                return Num(int(text))
            except ValueError:  # past Python's limit on digits of an int
                raise self.error("number too long", i) from None
        term = self.terms.get(text)
        if term is None:
            term = self.terms[text] = Const(text) if kind == "ident" else Var(text)
        return term

    def term(self, depth: int = 0) -> Term:
        i = self.pos
        if depth > MAX_TERM_DEPTH:
            raise self.error(f"terms may nest at most {MAX_TERM_DEPTH} deep", i)
        kind = self.kinds[i]
        if kind == "ident" and self.kinds[i + 1] == "(":
            self.pos = i + 2
            return Compound(self.texts[i], self.arguments(depth + 1))
        if kind in _LEAF:
            self.pos = i + 1
            return self.leaf(i)
        raise self.error(f"expected a term, found {self.texts[i]!r}", i)

    def number(self) -> int:
        i = self.pos
        self.expect("num")
        return self.leaf(i).value


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
    """`t` with each term of class `leaf` named in `sub` replaced:
    `Const` for `#const`, `Var` in the tests' reference grounders."""
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


def substitute_rule(r: Rule, sub: dict[str, Term], leaf: type[Var] | type[Const],
                    atoms: dict[Atom, Atom] | None = None) -> Rule:
    """`r` with `substitute_atom` applied to each of its atoms.  `atoms`
    maps each atom substituted so far to its result, and each result to
    itself, which is its own substitution: a `#const` value names no
    defined constant, and a value for a variable is a ground term.  Passing
    one dict to every call of one substitution so gives one object per
    distinct atom."""
    if atoms is None:
        atoms = {}

    def atom(a: Atom) -> Atom:
        out = atoms.get(a)
        if out is None:
            out = substitute_atom(a, sub, leaf)
            out = atoms[a] = atoms.setdefault(out, out)
        return out

    head = tuple(atom(a) for a in r.head)
    body: list[BodyLiteral] = []
    for lit in r.body:
        if isinstance(lit, ObjLiteral):
            body.append(ObjLiteral(atom(lit.atom), lit.negs))
        else:
            inner = lit.katom.inner
            body.append(SubjLiteral(KAtom(ObjLiteral(atom(inner.atom), inner.negs)),
                                    lit.negated))
    return Rule(head, tuple(body), r.is_choice)


def parse_text(*sources: str, names: Sequence[str] | None = None) -> Program:
    """One program from one or more source texts.  Each `#const` is
    substituted into the rules of every text, a constant may be defined
    only once across all of them, and a value that the substitution
    would change (one naming a defined constant) is refused.  `names`,
    one per text (say file names), prefix the position of an error in
    that text.  Equal atoms of the texts are one object (`_Parser`),
    and stay one when a `#const` is substituted (`substitute_rule`)."""
    rules: list[Rule] = []
    shows: list[ShowDirective] = []
    consts: list[tuple[ConstDirective, int]] = []  # with the number of its token
    origin: list[int] = []  # the number of the text of each entry of consts

    parser = _Parser()

    def name(k: int) -> str | None:
        return None if names is None else names[k]

    def const_error(message: str, entry: int) -> ParseError:
        k = origin[entry]
        return ParseError(message, *_position(sources[k], consts[entry][1]), name(k))

    for k, source in enumerate(sources):
        try:
            parser.statements(source, rules, shows, consts)
        except SourceError as exc:
            raise type(exc)(exc.message, exc.line, exc.col, name(k)) from None
        origin += [k] * (len(consts) - len(origin))
    mapping: dict[str, Term] = {}
    for entry, (directive, _) in enumerate(consts):
        if directive.name in mapping:
            raise const_error(f"constant {directive.name!r} defined twice", entry)
        mapping[directive.name] = directive.value
    # A value naming a defined constant is refused, not expanded: chains
    # could expand to terms of any size.
    for entry, (directive, _) in enumerate(consts):
        chained = sorted(c for c in term_vars(directive.value, Const)
                         if mapping.get(c, Const(c)) != Const(c))
        if chained:
            raise const_error(f"the value of constant {directive.name!r} names constant "
                              f"{chained[0]!r}; chained #const definitions are refused",
                              entry)
    if mapping:
        atoms: dict[Atom, Atom] = {}
        rules = [substitute_rule(r, mapping, Const, atoms) for r in rules]
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
