"""Lexer, parser, AST, and printer behavior."""

import pickle
import random
import re
import sys

import hypothesis.strategies as st
import pytest
import reference_lexer
from hypothesis import given, settings
from reference_lexer import Token

from epiworld import syntax
from epiworld.syntax import (
    Atom,
    Compound,
    Const,
    ConstDirective,
    KAtom,
    LexError,
    Num,
    ObjLiteral,
    ParseError,
    Program,
    Rule,
    ShowDirective,
    SourceError,
    SubjLiteral,
    Var,
    parse_text,
    print_atom,
    print_program,
    print_rule,
    print_subjective,
)


def katom(name, negs=0, strong=False, args=()):
    return KAtom(ObjLiteral(Atom(name, args, strong), negs))


# ---------------------------------------------------------------------------
# Lexer


def tokenize(source):
    """The tokens of `source` as the parser reads them: kinds and texts
    from `_lex`, lines and columns from `_position`."""
    kinds, texts = syntax._lex(source)
    return [Token(kind, text, *syntax._position(source, i))
            for i, (kind, text) in enumerate(zip(kinds, texts))]


def test_tokenize_kinds_and_positions():
    toks = tokenize("p(X) :- not q.")
    kinds = [(t.kind, t.text) for t in toks]
    assert kinds == [("ident", "p"), ("(", "("), ("var", "X"), (")", ")"),
                     (":-", ":-"), ("not", "not"), ("ident", "q"),
                     (".", "."), ("eof", "")]
    assert (toks[0].line, toks[0].col) == (1, 1)
    assert (toks[4].line, toks[4].col) == (1, 6)


def test_tokenize_tracks_lines_and_comments():
    toks = tokenize("p.\n% whole line comment\n  q. % trailing\nr.")
    idents = [(t.text, t.line, t.col) for t in toks if t.kind == "ident"]
    assert idents == [("p", 1, 1), ("q", 3, 3), ("r", 4, 1)]


def test_tokenize_special_words():
    kinds = [t.kind for t in tokenize("&k &m #show #const")]
    assert kinds == ["&k", "&m", "#show", "#const", "eof"]


def test_tokenize_rejects_stray_colon():
    with pytest.raises(LexError, match="^1:3: expected ':-'$"):
        tokenize("p : q.")


def test_tokenize_rejects_unknown_ampersand_word():
    with pytest.raises(LexError, match="^1:6: unknown token '&know'$"):
        tokenize("p :- &know{q}.")


def test_tokenize_rejects_unknown_character():
    with pytest.raises(LexError, match=r"^1:6: unrecognized character '\$'$"):
        tokenize("p :- $q.")


def test_the_regex_classes_are_the_str_predicates_the_lexer_is_defined_by():
    # The lexer's regular expression relies on these two identities.
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\w", every) == [c for c in every if c.isalnum() or c == "_"]
    assert re.findall(r"\d", every) == [c for c in every if c.isdecimal()]


def test_the_end_after_a_trailing_comment_is_at_the_comment():
    # A comment does not move the column, so an input that ends in one
    # without a newline ends where the comment starts.
    with pytest.raises(ParseError, match="^1:8: expected '.', found 'end of input'$"):
        parse_text("p :- q %c")
    assert tokenize("p. %c")[-1] == Token("eof", "", 1, 4)
    assert tokenize("p. %c\n")[-1] == Token("eof", "", 2, 1)
    assert tokenize("%c")[-1] == Token("eof", "", 1, 1)


def test_number_literals_int_refuses_are_source_errors():
    # '²'.isdigit() holds but int('²') fails; Python's int() refuses
    # literals longer than its digit limit (4300 by default).
    with pytest.raises(LexError, match=r"1:3: unrecognized character '²'"):
        parse_text("p(²).")
    with pytest.raises(ParseError, match="1:3: number too long"):
        parse_text("p(" + "9" * 5000 + ").")
    with pytest.raises(ParseError, match="1:9: number too long"):
        parse_text("#show p/" + "9" * 5000 + ".")
    assert parse_text("p(٣).").rules[0].head[0].args == (Num(3),)


# ---------------------------------------------------------------------------
# Parser: rule shapes


def test_parse_fact_and_rule():
    prog = parse_text("p. q :- p.")
    assert prog.rules == (
        Rule((Atom("p"),), ()),
        Rule((Atom("q"),), (ObjLiteral(Atom("p"), 0),)),
    )


def test_parse_disjunction_comma_and_semicolon():
    a, b = parse_text("p, q.  p; q.").rules
    assert a == b == Rule((Atom("p"), Atom("q")), ())


def test_parse_constraint_and_empty_constraint():
    prog = parse_text(":- p, not q.  :- .")
    assert prog.rules[0] == Rule((), (ObjLiteral(Atom("p"), 0),
                                      ObjLiteral(Atom("q"), 1)))
    assert prog.rules[1] == Rule((), ())


def test_parse_choice_rule():
    (r,) = parse_text("{p(a)}.").rules
    assert r == Rule((Atom("p", (Const("a"),)),), (), is_choice=True)


def test_strongly_negated_choice_rule_round_trips():
    (r,) = parse_text("{-b}.").rules
    assert r == Rule((Atom("b", (), True),), (), is_choice=True)
    assert print_program(parse_text("{-b}.")) == "{-b}.\n"
    assert parse_text(print_program(parse_text("{-b(X)}. p."))) == parse_text("{-b(X)}. p.")


def test_parse_choice_rule_rejects_body():
    with pytest.raises(ParseError):
        parse_text("{p} :- q.")


def test_parse_strong_negation():
    (r,) = parse_text("-p :- q, not -r.").rules
    assert r.head == (Atom("p", (), True),)
    assert r.body == (ObjLiteral(Atom("q"), 0), ObjLiteral(Atom("r", (), True), 1))


def test_parse_double_default_negation():
    (r,) = parse_text("p :- not not q.").rules
    assert r.body == (ObjLiteral(Atom("q"), 2),)


def test_parse_rejects_triple_negation():
    with pytest.raises(ParseError, match="at most two 'not'"):
        parse_text("p :- not not not q.")


def test_parse_terms():
    (r,) = parse_text("p(a, 3, X, f(g(b), Y)).").rules
    assert r.head[0].args == (
        Const("a"), Num(3), Var("X"),
        Compound("f", (Compound("g", (Const("b"),)), Var("Y"))),
    )


def test_parse_rejects_variable_as_atom_name():
    with pytest.raises(ParseError, match="expected 'ident'"):
        parse_text("X :- p.")


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_text("p :- &k{q .")
    assert exc.value.line == 1 and exc.value.col == 11
    assert "expected '}'" in exc.value.message


# ---------------------------------------------------------------------------
# Parser: subjective literals


def test_parse_subjective_forms():
    (r,) = parse_text("p :- &k{q}, not &k{~r}, &k{-s}, not &k{~-t}.").rules
    assert r.body == (
        SubjLiteral(katom("q"), False),
        SubjLiteral(katom("r", negs=1), True),
        SubjLiteral(katom("s", strong=True), False),
        SubjLiteral(katom("t", negs=1, strong=True), True),
    )


def test_parse_subjective_with_arguments():
    (r,) = parse_text("p :- &k{ edge(a, X) }.").rules
    assert r.body == (SubjLiteral(katom("edge", args=(Const("a"), Var("X")))),)


def test_m_shorthand_desugars_to_negated_k():
    assert parse_text("p :- &m{q}.").rules == parse_text("p :- not &k{~q}.").rules
    assert parse_text("p :- not &m{q}.").rules == parse_text("p :- &k{~q}.").rules
    assert parse_text("p :- &m{~q}.").rules == parse_text("p :- not &k{q}.").rules


def test_parse_rejects_not_inside_subjective_braces():
    with pytest.raises(ParseError, match="written '~'"):
        parse_text("p :- &k{not q}.")


def test_parse_rejects_double_tilde():
    with pytest.raises(ParseError, match="at most one '~'"):
        parse_text("p :- &k{~~q}.")


def test_parse_rejects_nested_subjective():
    with pytest.raises(ParseError, match="cannot be nested"):
        parse_text("p :- &k{&k{q}}.")


def test_parse_rejects_double_not_before_subjective():
    with pytest.raises(ParseError, match="at most one 'not' may precede"):
        parse_text("p :- not not &k{q}.")


def test_parse_rejects_subjective_in_head():
    with pytest.raises(ParseError):
        parse_text("&k{p} :- q.")


# ---------------------------------------------------------------------------
# Parser: names, directives


@pytest.mark.parametrize("prefix", ["aux_", "k15aux_", "naux_"])
def test_machinery_prefixes_are_ordinary_names(prefix):
    (r,) = parse_text(f"{prefix}p :- not {prefix}q, &k{{{prefix}r}}.").rules
    assert r.head == (Atom(f"{prefix}p"),)
    assert type(r.head[0]) is Atom
    assert r.body[0] == ObjLiteral(Atom(f"{prefix}q"), 1)
    assert r.body[1].katom == katom(f"{prefix}r")


def test_show_directive():
    prog = parse_text("#show interview/1. #show -elig/2.")
    assert prog.shows == (ShowDirective("interview", 1, False),
                          ShowDirective("elig", 2, True))


def test_const_directive_substitutes_everywhere():
    prog = parse_text("#const n = 3. p(n) :- q(f(n)), &k{r(n)}.")
    (r,) = prog.rules
    assert r.head == (Atom("p", (Num(3),)),)
    assert r.body[0].atom == Atom("q", (Compound("f", (Num(3),)),))
    assert r.body[1].katom.inner.atom == Atom("r", (Num(3),))
    assert prog.consts == (ConstDirective("n", Num(3)),)


def test_const_directive_rejects_duplicates():
    with pytest.raises(ParseError, match="defined twice"):
        parse_text("#const n = 1. #const n = 2.")


@pytest.mark.parametrize("source, where, named", [
    ("#const n = m. #const m = 3. p(n).", "1:1", "'n' names constant 'm'"),
    ("#const n = m. #const m = n. p(n).", "1:1", "'n' names constant 'm'"),
    ("#const m = 3.\n#const n = f(1, g(m)).", "2:1", "'n' names constant 'm'"),
    ("#const n = f(n).", "1:1", "'n' names constant 'n'"),
])
def test_const_directive_rejects_chains(source, where, named):
    with pytest.raises(ParseError, match="chained #const") as info:
        parse_text(source)
    assert str(info.value).startswith(f"{where}: the value of constant {named}")


def test_const_directive_may_name_undefined_constants():
    assert parse_text("#const n = m. p(n).").rules == parse_text("p(m).").rules
    assert parse_text("#const n = n. p(n).").rules == parse_text("p(n).").rules


def test_const_directive_rejects_variables():
    with pytest.raises(ParseError, match="must be ground"):
        parse_text("#const n = f(X).")


# ---------------------------------------------------------------------------
# Printer


def test_print_atom_and_subjective():
    assert print_atom(Atom("p", (Const("a"), Num(2)), True)) == "-p(a,2)"
    assert print_subjective(katom("q", negs=1, strong=True)) == "&k{ ~-q }"
    assert print_subjective(katom("q")) == "&k{ q }"


def test_print_rule_shapes():
    assert print_rule(Rule((Atom("p"),), ())) == "p."
    assert print_rule(Rule((), ())) == ":- ."
    assert print_rule(Rule((Atom("p"),), (), is_choice=True)) == "{p}."
    (r,) = parse_text("p, q :- r, not s, not not t, not &k{~u}.").rules
    assert print_rule(r) == "p, q :- r, not s, not not t, not &k{ ~u }."


_name = st.sampled_from(["p", "q", "r", "edge", "val2"])
_terms = st.recursive(
    st.one_of(
        st.builds(Const, _name),
        st.builds(Num, st.integers(min_value=0, max_value=99)),
        st.builds(Var, st.sampled_from(["X", "Y", "Z2"])),
    ),
    lambda kids: st.builds(Compound, st.sampled_from(["f", "g"]),
                           st.lists(kids, min_size=1, max_size=2).map(tuple)),
    max_leaves=4,
)
_atoms = st.builds(Atom, _name, st.lists(_terms, max_size=2).map(tuple), st.booleans())
_body = st.one_of(
    st.builds(ObjLiteral, _atoms, st.integers(0, 2)),
    st.builds(SubjLiteral, st.builds(KAtom, st.builds(ObjLiteral, _atoms, st.integers(0, 1))),
              st.booleans()),
)
_plain = st.builds(Rule, st.lists(_atoms, max_size=2).map(tuple),
                   st.lists(_body, max_size=3).map(tuple), st.just(False))
_choice = st.builds(
    Rule,
    _atoms.map(lambda a: (a,)),
    st.just(()), st.just(True))
_programs = st.builds(
    Program,
    st.lists(st.one_of(_plain, _choice), max_size=5).map(tuple),
    st.lists(st.builds(ShowDirective, _name, st.integers(0, 3), st.booleans()),
             max_size=2).map(tuple),
    st.just(()),
)


@settings(max_examples=300, deadline=None)
@given(_programs)
def test_printer_output_parses_back_to_same_ast(program):
    assert parse_text(print_program(program)) == program


_PIECES = [":-", "&k", "&m", "{", "}", "~", "-", "not ", "#show ", "#const ", "p(", ")", ",",
           ";", ".", "/", "=", "p", "X", "7", "²", " ", "\n", "%"]
_pieces = st.sampled_from(_PIECES)


@settings(max_examples=300, deadline=None)
@given(st.text() | st.lists(_pieces).map("".join))
def test_parse_text_raises_only_source_errors(text):
    try:
        parse_text(text)
    except SourceError:
        pass


# ---------------------------------------------------------------------------
# The regular-expression lexer against the character-at-a-time reference


def _reference_kinds_and_texts(source):
    tokens = reference_lexer.tokenize(source)
    return [t.kind for t in tokens], [t.text for t in tokens]


def _reference_starts(source):
    line_starts = [0] + [i + 1 for i, c in enumerate(source) if c == "\n"]
    return [line_starts[t.line - 1] + t.col - 1 for t in reference_lexer.tokenize(source)]


def _outcome(function, text):
    try:
        return function(text)
    except SourceError as exc:
        return type(exc).__name__, str(exc)


def _random_texts(rng, count):
    """Texts of up to 14 pieces, a tenth of them arbitrary code points."""
    pieces = _PIECES + ["²", "٣", "É", "_a", "\x0b", "%c", ":", "&", "#", "q", "\t", "\r",
                        "f(", "1", "n"]
    for _ in range(count):
        yield "".join(chr(rng.randrange(sys.maxunicode + 1)) if rng.random() < 0.1
                      else rng.choice(pieces) for _ in range(rng.randint(0, 14)))


def test_tokens_and_parses_agree_with_the_reference_lexer(monkeypatch):
    texts = list(_random_texts(random.Random(1701), 3000))
    texts += ["", "   ", " \t\r\n%a\n%b\np  %c\n", "p :- q %c", "p(²).", "p(٣).", "É :- p.",
              "_a.", "p.\x0b", "p :- &know{q}.", "p : q.",
              "a :- &k{ b }, not &m{~-c(X, f(1))}. #show -a/0. #const n = 3."]
    tokens = [_outcome(tokenize, t) for t in texts]
    parses = [_outcome(parse_text, t) for t in texts]
    assert tokens == [_outcome(reference_lexer.tokenize, t) for t in texts]
    monkeypatch.setattr(syntax, "_lex", _reference_kinds_and_texts)
    monkeypatch.setattr(syntax, "_starts", _reference_starts)
    assert parses == [_outcome(parse_text, t) for t in texts]
    # Both outcomes occur often enough to compare.
    assert sum(isinstance(p, Program) for p in parses) > 100
    assert len({p[1].split(": ", 1)[1] for p in parses if isinstance(p, tuple)}) > 10


# ---------------------------------------------------------------------------
# Each atom built once per parse


def _occurrences(program):
    return [a for r in program.rules for a in syntax.rule_atoms(r)]


def test_equal_atoms_of_one_parse_are_one_object():
    first = ("p(a, f(g(b), 1)) :- q(X), -r(c), not p(a, f(g(b), 1)), -r(c).\n"
             "q(X) ; -r(c) :- &k{ p(a, f(g(b), 1)) }, not &m{ ~-r(c) }, q(X).\n"
             "{ -r(c) }. s :- &k{ ~s }, s, t(X, 1), q(X), not not t(X, 1).\n"
             "t(X, 1) :- q(X), &m{ s }, &k{ -r(c) }, &m{ -r(c) }.\n")
    second = "s :- q(X), p(a, f(g(b), 1)), t(X, 1), -r(c).\n"
    # A `#const` substitutes into every atom with arguments.
    for program in (parse_text(first, second), parse_text(first, second + "#const c = d.\n")):
        atoms = _occurrences(program)
        by_value = {}
        for a in atoms:
            by_value.setdefault(a, set()).add(id(a))
        assert len(atoms) == 27 and len(by_value) == 5
        assert all(len(ids) == 1 for ids in by_value.values())
        r = program.rules
        # nested terms, in a head, under `not`, inside `&k{}` and in the second text
        assert (r[0].head[0] is r[0].body[2].atom is r[1].body[0].katom.inner.atom
                is r[5].body[1].atom)
        # `-` atoms, in a disjunctive head, inside `&m{}` and `&k{}` and in a choice
        assert (r[0].body[1].atom is r[1].head[1] is r[1].body[1].katom.inner.atom
                is r[2].head[0] is r[4].body[2].katom.inner.atom
                is r[4].body[3].katom.inner.atom)
        assert r[3].body[2].atom is r[3].body[4].atom is r[4].head[0]
    assert r[0].body[1].atom == Atom("r", (Const("d"),), True)
    # Atoms that only the substitution makes equal are one object too.
    r = parse_text("#const n = a. p(a). q :- p(n), not p(f(n)), &k{ p(f(a)) }, p(a).").rules
    assert r[0].head[0] is r[1].body[0].atom is r[1].body[3].atom
    assert r[1].body[1].atom is r[1].body[2].katom.inner.atom


def test_unequal_atoms_of_one_parse_are_other_objects():
    program = parse_text("p(a). -p(a). p(b). p(a, b). p(b, a). p. -p. p(f(a)). p(A). "
                         ":- &k{ p(a) }, &k{ -p(a) }, not &m{ ~p(f(a)) }.")
    atoms = _occurrences(program)
    heads = [r.head[0] for r in program.rules[:-1]]
    assert len(set(heads)) == len(heads) == len({id(a) for a in heads})
    assert heads[0] != heads[1] and heads[0] is not heads[1]
    inner = [lit.katom.inner.atom for lit in program.rules[-1].body]
    assert [inner[0] is heads[0], inner[1] is heads[1], inner[2] is heads[7]] == [True] * 3
    assert len({id(a) for a in atoms}) == len(set(atoms))


def test_numbers_that_differ_in_their_digits_still_give_equal_atoms():
    program = parse_text("p(1). p(01). q(f(1), 2). q(f(001), 02). r :- p(1), q(f(01), 2).")
    p1, p01, q1, q01, r = program.rules
    assert p1.head[0] == p01.head[0] == r.body[0].atom
    assert q1.head[0] == q01.head[0] == r.body[1].atom
    assert hash(p1.head[0]) == hash(p01.head[0]) and hash(q1.head[0]) == hash(q01.head[0])
    assert p1.head[0] is r.body[0].atom


def _atom_built_each_time(self):
    """`_Parser.atom` without the lookup: every occurrence built anew."""
    kinds, texts = self.kinds, self.texts
    i = self.pos
    strong = kinds[i] == "-"
    i += strong
    if kinds[i] != "ident":
        raise self.expected("ident", i)
    if kinds[i + 1] != "(":
        self.pos = i + 1
        return Atom(texts[i], (), strong)
    self.pos = i + 2
    return Atom(texts[i], self.arguments(0), strong)


def test_parses_agree_with_a_parser_that_builds_every_atom(monkeypatch):
    # Malformed atoms whose first tokens look like a flat shape must be
    # refused as the parser without the lookup refuses them.
    pieces = _PIECES + ["f(", "1", "01", "a", "p(a)", "p(a", "p(a,", "p(a,1)", "-p(a,X)",
                        "q(f(a),1)", "p(a)).", "9" * 5000]
    rng = random.Random(2028)
    texts = ["".join(rng.choice(pieces) for _ in range(rng.randint(0, 16))) for _ in range(4000)]
    texts += ["p(/not ", "f( 1,", "f( 1, 2", "p(a,b,", "p(a) :- p(a,", "p(-a).", "p(a,f(b)).",
              "p(a(b)). p(a(b)).", "p(" + "9" * 5000 + ")."]
    parses = [_outcome(parse_text, t) for t in texts]
    monkeypatch.setattr(syntax._Parser, "atom", _atom_built_each_time)
    assert parses == [_outcome(parse_text, t) for t in texts]
    assert sum(isinstance(p, Program) for p in parses) > 200
    assert len({p[1].split(": ", 1)[1] for p in parses if isinstance(p, tuple)}) > 10


# ---------------------------------------------------------------------------
# Hashes kept after first use


def test_atoms_keep_their_dataclass_hash_and_do_not_pickle_it():
    atom = Atom("p", (Const("a"), Compound("f", (Num(1), Var("X")))), True)
    katom = KAtom(ObjLiteral(atom, 1))
    assert hash(atom) == hash((atom.name, atom.args, atom.strong_neg))
    assert hash(katom) == hash((ObjLiteral(atom, 1),)) == hash(katom)
    copy = pickle.loads(pickle.dumps(katom))
    assert "_hash" not in vars(copy) and "_hash" not in vars(copy.inner.atom)
    assert copy == katom and hash(copy) == hash(katom)
