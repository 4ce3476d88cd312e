"""Lexer, parser, AST, and printer behavior."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

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
    tokenize,
)


def katom(name, negs=0, strong=False, args=()):
    return KAtom(ObjLiteral(Atom(name, args, strong), negs))


# ---------------------------------------------------------------------------
# Lexer


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
    with pytest.raises(LexError, match="expected ':-'"):
        tokenize("p : q.")


def test_tokenize_rejects_unknown_ampersand_word():
    with pytest.raises(LexError, match="unknown token '&know'"):
        tokenize("p :- &know{q}.")


def test_tokenize_rejects_unknown_character():
    with pytest.raises(LexError, match=r"unrecognized character '\$'"):
        tokenize("p :- $q.")


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
    st.builds(Atom, _name, st.lists(_terms, max_size=2).map(tuple), st.just(False)).map(lambda a: (a,)),
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


_pieces = st.sampled_from([":-", "&k", "&m", "{", "}", "~", "-", "not ", "#show ", "#const ",
                           "p(", ")", ",", ";", ".", "/", "=", "p", "X", "7", "²", " ", "\n",
                           "%"])


@settings(max_examples=300, deadline=None)
@given(st.text() | st.lists(_pieces).map("".join))
def test_parse_text_raises_only_source_errors(text):
    try:
        parse_text(text)
    except SourceError:
        pass
