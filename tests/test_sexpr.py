import pytest
from hypothesis import given, settings, strategies as st

from elgeo.normalize import normalize
from elgeo.sexpr import (
    BOT_CONCEPT, MAX_DEPTH, TOP_CONCEPT, GeneralAxiom, SexprError, atom, conj, parse_general,
    some, subrole, rolechain,
)

# an atom named "{a}" is printed as the nominal (one a), which reads back as that atom
ATOMS = st.sampled_from(["A", "B", "K0_1", "x-y.z", "{a}", "{p2}"])
ROLES = st.sampled_from(["r", "s", "part-of", "r0_1"])
CONCEPTS = st.recursive(
    st.one_of(ATOMS.map(atom), st.sampled_from([TOP_CONCEPT, BOT_CONCEPT])),
    lambda parts: st.one_of(st.lists(parts, min_size=2, max_size=4).map(conj),
                            st.builds(some, ROLES, parts)),
    max_leaves=8)
AXIOMS = st.one_of(
    st.builds(GeneralAxiom, st.sampled_from(["subclassof", "equivalent"]), CONCEPTS, CONCEPTS),
    st.builds(subrole, ROLES, ROLES),
    st.builds(rolechain, ROLES, ROLES, ROLES))
SPACES = ["", " ", "\t", "\n", "\r\n", " \n\t "]


def concept_tokens(c, rnd):
    if c.kind in ("top", "bot"):
        return rnd.choice([[c.kind], ["(", c.kind, ")"]])
    if c.kind == "atom":
        return ["(", "one", c.name[1:-1], ")"] if c.name.startswith("{") else [c.name]
    head = ["and"] if c.kind == "and" else ["some", c.relation]
    return ["(", *head, *(t for p in c.parts for t in concept_tokens(p, rnd)), ")"]


def print_document(axioms, rnd):
    """The axioms as s-expressions, with random whitespace wherever a token boundary allows."""
    tokens = []
    for ax in axioms:
        args = [ax.left, ax.right] if ax.left is not None else []
        tokens += ["(", ax.kind, *ax.roles, *(t for c in args for t in concept_tokens(c, rnd)), ")"]
    out = [rnd.choice(SPACES)]
    for tok, after in zip(tokens, tokens[1:] + [")"]):
        spaces = SPACES if "(" in (tok, after) or ")" in (tok, after) else SPACES[1:]
        out += [tok, rnd.choice(spaces)]
    return "".join(out)


class TestParseGeneral:
    def test_nested_conjunction_and_existential(self):
        axioms = parse_general("(subclassof A (and B (some r C)))")
        assert axioms == [GeneralAxiom("subclassof", left=atom("A"),
                                       right=conj([atom("B"), some("r", atom("C"))]))]

    def test_equivalent(self):
        assert parse_general("(equivalent A B)") == [
            GeneralAxiom("equivalent", left=atom("A"), right=atom("B"))]

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
        # a balance error wins over any translation error, wherever it is
        ("(foo A B)\n(subclassof A B)\n  (subclassof A (and B C)", 3, 3, "unbalanced '('"),
        ("(subclassof A (and B C) junk", 1, 1, "unbalanced '('"),
        # of two translation errors, the first in document order is reported
        ("(subclassof A B)\n(subclassof A (or B C))\n(bar)", 2, 15, "unknown head symbol: or"),
        ("(subclassof (or A B) (xor C))", 1, 13, "unknown head symbol: or"),
        ("(subclassof A (and (or B) (some r)))", 1, 20, "unknown head symbol: or"),
        # ... except that a node's own arity is checked before its arguments
        ("(subclassof (or A) B C)", 1, 1, "'subclassof' needs exactly 2 arguments"),
        ("(subclassof A\n (and B\n  (some r\n   (and C (some s (foo D))))))", 4, 19,
         "unknown head symbol: foo"),
        ("(subclassof A B) junk", 1, 18, "expected an axiom, got symbol 'junk'"),
        ("(subclassof {_N1} (one _N1))", 1, 24, "reserved prefix"),
        ("(subclassof A and)", 1, 15, "'and' cannot be used as a class name"),
        # each arity or head check of a concept and of a role axiom
        ("(subclassof (and A) B)", 1, 13, "'and' needs at least 2 arguments"),
        ("(subclassof A (one))", 1, 15, "'one' needs exactly 1 individual name"),
        ("(subclassof (top x) B)", 1, 13, "'top' takes no arguments"),
        ("(subclassof (() A) B)", 1, 13, "expected a head symbol"),
        ("(subrole r)", 1, 1, "'subrole' needs exactly 2 relation names"),
        ("(rolechain r s)", 1, 1, "'rolechain' needs exactly 3 relation names"),
    ])
    def test_error_position(self, text, line, col, reason):
        with pytest.raises(SexprError) as err:
            parse_general(text)
        assert (err.value.line, err.value.col) == (line, col)
        assert reason in err.value.reason

    def test_top_bot_symbols(self):
        axioms = parse_general("(subclassof top bot)")
        assert axioms == [GeneralAxiom("subclassof", left=TOP_CONCEPT, right=BOT_CONCEPT)]

    def test_nominal_becomes_braced_atom(self):
        axioms = parse_general("(subclassof (one p1) (some interacts (one p2)))")
        assert axioms == [GeneralAxiom("subclassof", left=atom("{p1}"),
                                       right=some("interacts", atom("{p2}")))]

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


@settings(max_examples=100, deadline=None)
@given(st.lists(AXIOMS, min_size=1, max_size=5), st.randoms(use_true_random=False))
def test_printed_axioms_read_back_equal(axioms, rnd):
    assert parse_general(print_document(axioms, rnd)) == axioms


def test_an_atom_name_reads_as_one_concept_per_document():
    axioms = parse_general("(subclassof A B)\n(subclassof B (and A (some r A)))\n"
                           "(equivalent (one a) {a})")
    a, b = axioms[0].left, axioms[0].right
    assert axioms[1].left is b
    assert axioms[1].right.parts[0] is a and axioms[1].right.parts[1].parts[0] is a
    assert axioms[2].left is axioms[2].right == atom("{a}")
    assert parse_general("(subclassof A B)")[0].left is not a


def nested(depth, shape):
    """A one-axiom document ``depth`` lists deep: a chain of existentials on the right,
    or of conjunctions on the left, which the normalizer recurses into the deepest."""
    k = depth - 1   # the axiom's own list is the first
    if shape == "some":
        return "(subclassof A " + "(some r " * k + "B" + ")" * k + ")"
    return "(subclassof " + "(and " * k + "A" + "".join(f" B{i})" for i in range(k)) + " E)"


@pytest.mark.parametrize("shape", ["some", "and"])
def test_a_document_at_the_depth_cap_parses_and_normalizes(shape):
    rows, sig = normalize(parse_general(nested(MAX_DEPTH, shape)))
    assert sum(1 for _ in rows.in_order()) == MAX_DEPTH - 1   # one row per nested list


@pytest.mark.parametrize("shape", ["some", "and"])
def test_one_list_past_the_depth_cap_is_a_positioned_error(shape):
    text = nested(MAX_DEPTH + 1, shape)
    with pytest.raises(SexprError) as exc:
        parse_general(text)
    opener = len("(subclassof A " if shape == "some" else "(subclassof ") + \
        (MAX_DEPTH - 1) * len("(some r " if shape == "some" else "(and ")
    assert (exc.value.line, exc.value.col) == (1, opener + 1)
    assert text[opener] == "("
    assert exc.value.reason == f"lists nested more than {MAX_DEPTH} deep"


def test_balance_errors_come_before_the_depth_cap():
    with pytest.raises(SexprError, match="unbalanced '\\)'"):
        parse_general(nested(MAX_DEPTH + 1, "some") + ")")


@pytest.mark.parametrize("parts", [[], [atom("A")]])
def test_a_conjunction_of_fewer_than_two_parts_is_refused(parts):
    with pytest.raises(ValueError, match="^conjunction needs at least 2 parts$"):
        conj(parts)
