import pytest

from elgeo.sexpr import (
    BOT_CONCEPT, TOP_CONCEPT, SexprError, atom, conj, equivalent, parse_general,
    some, subclassof, subrole, rolechain,
)


class TestParseGeneral:
    def test_nested_conjunction_and_existential(self):
        axioms = parse_general("(subclassof A (and B (some r C)))")
        assert axioms == [subclassof(atom("A"), conj([atom("B"), some("r", atom("C"))]))]

    def test_equivalent(self):
        assert parse_general("(equivalent A B)") == [equivalent(atom("A"), atom("B"))]

    def test_disjunction_rejected(self):
        with pytest.raises(SexprError, match="unknown head symbol: or"):
            parse_general("(subclassof A (or B C))")

    def test_unbalanced_open(self):
        with pytest.raises(SexprError, match="unbalanced"):
            parse_general("(subclassof A (and B C)")

    def test_unbalanced_close(self):
        with pytest.raises(SexprError, match="unbalanced"):
            parse_general("(subclassof A B))")

    def test_arity_violation(self):
        with pytest.raises(SexprError, match="'some' needs exactly 2"):
            parse_general("(subclassof A (some r))")

    @pytest.mark.parametrize("text, line, col, reason", [
        ("(subclassof A B)\n(subclassof A (or B C))", 2, 15, "unknown head symbol: or"),
        ("(subclassof A B)\n\t(foo A B)", 2, 2, "unknown head symbol: foo"),
        ("(subrole r s)\n(subclassof A B)\n(subclassof A (and B C", 3, 15, "unbalanced '('"),
        ("(subclassof A B)\r\n (subrole r s))", 2, 15, "unbalanced ')'"),
        ("(subclassof A B)\r(foo)", 1, 18, "unknown head symbol: foo"),
        ("(subclassof A\n   _N1)", 2, 4, "reserved prefix"),
        ("(subclassof A (some (r) B))", 1, 21, "relation name must be a symbol"),
    ])
    def test_error_position(self, text, line, col, reason):
        with pytest.raises(SexprError) as err:
            parse_general(text)
        assert (err.value.line, err.value.col) == (line, col)
        assert reason in err.value.reason

    def test_top_bot_symbols(self):
        axioms = parse_general("(subclassof top bot)")
        assert axioms == [subclassof(TOP_CONCEPT, BOT_CONCEPT)]

    def test_nominal_becomes_braced_atom(self):
        axioms = parse_general("(subclassof (one p1) (some interacts (one p2)))")
        assert axioms == [subclassof(atom("{p1}"), some("interacts", atom("{p2}")))]

    def test_role_axioms(self):
        assert parse_general("(subrole r s)(rolechain r1 r2 s)") == \
            [subrole("r", "s"), rolechain("r1", "r2", "s")]

    def test_reserved_prefix_rejected(self):
        with pytest.raises(SexprError, match="reserved prefix"):
            parse_general("(subclassof _N1 B)")

    def test_whitespace_insensitive(self):
        a = parse_general("(subclassof A(and B C))")
        b = parse_general("( subclassof\n  A \t ( and B C ) )")
        assert a == b
