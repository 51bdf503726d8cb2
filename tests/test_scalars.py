"""Exact polynomial scalars: ring laws, evaluation, parsing, serialization."""

import math
import sys
from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import add, mul

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from tensordag import (ExprSyntaxError, NegativeExponent, PolyScalar,
                       TensordagInputError, UnboundParameter, parse_expr, scalars)
from tensordag.scalars import _MAX_EXPONENT

ALPHA = PolyScalar.parameter("alpha")
BETA = PolyScalar.parameter("beta")
X = PolyScalar.parameter("x")


coefficients = st.fractions(min_value=-10, max_value=10, max_denominator=6)
#: Nonzero rationals of up to 30-digit numerators over up to 20-digit denominators.
big_fractions = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30).filter(bool),
                          st.integers(1, 10 ** 20))
#: A one-term polynomial as its coefficient and its powers over a subset of a, b, c.
one_terms = st.tuples(big_fractions, st.dictionaries(st.sampled_from("abc"), st.integers(1, 5)))
powers = st.dictionaries(st.sampled_from(["a", "b", "c", "d"]), st.integers(0, 5), max_size=4)


@st.composite
def poly_scalars(draw) -> PolyScalar:
    p = PolyScalar.zero()
    for _ in range(draw(st.integers(0, 4))):
        p = p + PolyScalar.monomial(draw(coefficients), draw(powers))
    return p


@st.composite
def rational_assignments(draw) -> dict:
    return {name: draw(coefficients) for name in ["a", "b", "c", "d"]}


class TestRingLaws:
    @settings(max_examples=200)
    @given(poly_scalars(), poly_scalars(), poly_scalars())
    def test_add_is_associative_and_commutative(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p

    @settings(max_examples=200)
    @given(poly_scalars(), poly_scalars(), poly_scalars())
    def test_mul_is_associative_and_commutative(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p

    @settings(max_examples=200)
    @given(poly_scalars(), poly_scalars(), poly_scalars())
    def test_mul_distributes_over_add(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=200)
    @given(poly_scalars())
    def test_identities_and_inverse(self, p):
        assert p + 0 == p
        assert p * 1 == p
        assert p * 0 == PolyScalar.zero()
        assert p + (-p) == PolyScalar.zero()

    @settings(max_examples=200)
    @given(poly_scalars(), poly_scalars(), poly_scalars(), rational_assignments())
    def test_evaluation_is_a_ring_homomorphism(self, p, q, r, values):
        direct = (p * q + r).evaluate(values)
        composed = p.evaluate(values) * q.evaluate(values) + r.evaluate(values)
        assert direct == composed

    @settings(max_examples=200)
    @given(poly_scalars())
    def test_text_round_trip(self, p):
        assert parse_expr(str(p)) == p


class TestArithmeticExamples:
    def test_additive_identity(self):
        assert ALPHA + PolyScalar.zero() == ALPHA

    def test_like_terms_collect(self):
        m = ALPHA * BETA ** 2
        assert m + m == 2 * ALPHA * BETA ** 2

    def test_cancellation_yields_canonical_zero(self):
        result = ALPHA - ALPHA
        assert result.is_zero()
        assert result == PolyScalar.zero()
        assert str(result) == "0"

    def test_powers_multiply(self):
        assert ALPHA * ALPHA ** 2 == ALPHA ** 3

    def test_mixed_monomial_product(self):
        assert ALPHA * BETA * BETA == PolyScalar.monomial(1, {"alpha": 1, "beta": 2})

    def test_zero_absorbs(self):
        assert X * PolyScalar.zero() == PolyScalar.zero()

    def test_pow_zero_is_one(self):
        assert ALPHA ** 0 == PolyScalar.constant(1)

    def test_int_and_fraction_coercion(self):
        assert 2 + ALPHA == ALPHA + 2
        assert Fraction(1, 2) * ALPHA == parse_expr("1/2*alpha")

    def test_equality_with_plain_numbers(self):
        assert PolyScalar.constant(3) == 3
        assert PolyScalar.constant(Fraction(1, 2)) == Fraction(1, 2)
        assert hash(PolyScalar.constant(3)) == hash(PolyScalar.constant(Fraction(6, 2)))

    def test_parameters_and_degree(self):
        p = parse_expr("2*alpha^2*beta + beta")
        assert p.parameters() == {"alpha", "beta"}
        assert p.total_degree() == 3


class TestEvaluation:
    def test_single_parameter(self):
        assert (ALPHA ** 3).evaluate({"alpha": 1}) == 1

    def test_hand_arithmetic(self):
        # alpha^2 * beta at alpha=2, beta=3: 4 * 3
        assert (ALPHA ** 2 * BETA).evaluate({"alpha": 2, "beta": 3}) == 12

    def test_zero_factor(self):
        assert (ALPHA * BETA ** 2).evaluate({"beta": 0, "alpha": 5}) == 0

    def test_unbound_parameter(self):
        with pytest.raises(UnboundParameter) as info:
            (ALPHA * BETA).evaluate({"alpha": 1})
        assert info.value.name == "beta"

    def test_extra_bindings_are_ignored(self):
        assert ALPHA.evaluate({"alpha": 2, "unused": 99}) == 2

    def test_fraction_bindings_stay_exact(self):
        p = parse_expr("1/3*alpha + 1/6")
        assert p.evaluate({"alpha": Fraction(1, 2)}) == Fraction(1, 3)

    def test_float_binding_gives_float(self):
        value = (ALPHA * BETA).evaluate({"alpha": 0.5, "beta": 4})
        assert isinstance(value, float) and value == 2.0

    def test_float_sum_is_deterministic(self):
        p = parse_expr("alpha^2 + beta + 1/7")
        values = {"alpha": 0.1, "beta": 0.3}
        assert p.evaluate(values) == p.evaluate(values)

    def test_huge_powers_are_refused_before_they_are_computed(self):
        huge = ALPHA ** 99_999_999_999
        assert huge.evaluate({"alpha": -1}) == -1
        assert huge.evaluate({"alpha": 0.5}) == 0.0
        for value in (2, Fraction(1, 2)):
            with pytest.raises(TensordagInputError):
                huge.evaluate({"alpha": value})
        with pytest.raises(TensordagInputError):
            huge.evaluate({"alpha": 2.0})  # float overflow

    def test_power_limit_covers_a_whole_term(self):
        # Each factor alone stays under the limit; together they pass it.
        term = parse_expr("alpha^600000*beta^600000")
        assert (ALPHA ** 600_000).evaluate({"alpha": 2}) == 2 ** 600_000
        with pytest.raises(TensordagInputError):
            term.evaluate({"alpha": 2, "beta": 2})
        assert term.evaluate({"alpha": 2, "beta": 1}) == 2 ** 600_000

    def test_only_the_polynomials_own_names_are_sized(self, monkeypatch):
        # bindings of other names cost nothing, and the unbound name reported
        # is still the first one in canonical term order
        p = parse_expr("alpha^2*beta + 3*beta*gamma + 1/2")
        bindings = {f"unused{i}": Fraction(i + 1, 7) for i in range(10_000)}
        bindings.update(alpha=Fraction(1, 2), beta=3)
        sizes = []
        size_bits = scalars._size_bits
        monkeypatch.setattr(scalars, "_size_bits", lambda value: sizes.append(value) or size_bits(value))
        with pytest.raises(UnboundParameter) as info:
            p.evaluate(bindings)
        assert info.value.name == "gamma" and str(info.value) == str(UnboundParameter("gamma"))
        assert len(sizes) == 2
        sizes.clear()
        assert p.evaluate({**bindings, "gamma": -2}) == Fraction(3, 4) - 18 + Fraction(1, 2)
        assert len(sizes) == 3

    @pytest.mark.parametrize("value, kind", [(0, int), (3, int), (-4, int), (Fraction(6, 3), int),
                                             (Fraction(1, 2), Fraction),
                                             (Fraction(-7, 3), Fraction)])
    def test_constants_evaluate_like_the_term_loop(self, value, kind):
        # p * alpha at alpha = 1 has p's value and, unless p is zero, a parameter,
        # so it takes the term loop; the loop over no terms returns the int 0
        p = PolyScalar.constant(value)
        looped = (p * ALPHA).evaluate({"alpha": 1})
        for bindings in ({}, {"alpha": 0.5}, {"alpha": Fraction(1, 3)}):
            result = p.evaluate(bindings)
            assert result == looped == value
            assert type(result) is type(looped) is kind


class TestParsing:
    def test_single_monomial(self):
        assert parse_expr("alpha*beta^2") == ALPHA * BETA ** 2

    def test_simplification_matches_expansion(self):
        # independent expansion: 2a + 1 - a == a + 1
        assert parse_expr("2*alpha + 1 - alpha") == ALPHA + 1

    def test_negative_exponent_rejected(self):
        with pytest.raises(NegativeExponent):
            parse_expr("alpha^-1")

    def test_rational_literals(self):
        assert parse_expr("2/4") == PolyScalar.constant(Fraction(1, 2))
        assert parse_expr("3/1*x") == 3 * X

    def test_parentheses_and_unary_minus(self):
        assert parse_expr("-(alpha - beta)") == BETA - ALPHA
        assert parse_expr("(alpha + 1)^2") == ALPHA ** 2 + 2 * ALPHA + 1
        assert parse_expr("--3") == PolyScalar.constant(3)

    def test_whitespace_is_insignificant(self):
        assert parse_expr("  2 * alpha ^ 2\t+ 1 ") == 2 * ALPHA ** 2 + 1
        assert parse_expr("2 / 3") == PolyScalar.constant(Fraction(2, 3))

    def test_zero_literal(self):
        assert parse_expr("0").is_zero()

    @pytest.mark.parametrize("text", ["", "alpha +", "2**3", "(alpha", "alpha^", "a$b", "3/0"])
    def test_malformed_input_reports_position(self, text):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr(text)
        assert 0 <= info.value.position <= len(text)
        assert info.value.expected

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("alpha beta")

    @pytest.mark.parametrize("text, message", [
        ("\u00b2", "at offset 0: expected an integer, identifier, '(' or '-', found '\u00b2'"),
        ("a^\u00b2", "at offset 2: expected an unsigned integer, found '\u00b2'"),
        ("1" * 5000, "at offset 0: expected an integer of at most 4300 digits, found 5000 digits"),
    ], ids=["superscript", "superscript-power", "too-many-digits"])
    def test_only_decimal_digits_read_as_integers(self, text, message):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr(text)
        assert str(info.value) == message

    def test_decimal_digits_of_any_script_read_as_integers(self):
        assert parse_expr("\u0663*a") == parse_expr("3*a")  # ARABIC-INDIC DIGIT THREE

    @pytest.mark.parametrize("text, message", [
        ("a\u00b2*a", "at offset 1: expected end of input, found '\u00b2'"),
        ("\u03b1", "at offset 0: expected an integer, identifier, '(' or '-', found '\u03b1'"),
        ("\u00e9", "at offset 0: expected an integer, identifier, '(' or '-', found '\u00e9'"),
    ], ids=["superscript-after-a-name", "greek-letter", "accented-letter"])
    def test_names_are_ascii(self, text, message):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr(text)
        assert str(info.value) == message

    def test_names_take_digits_and_underscores(self):
        assert parse_expr("a_1*B2") == PolyScalar.parameter("a_1") * PolyScalar.parameter("B2")
        assert parse_expr("_x") == PolyScalar.parameter("_x")

    @given(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*", fullmatch=True))
    def test_every_name_of_the_grammar_parses_to_one_parameter(self, name):
        value = parse_expr(name)
        assert value.parameters() == {name} and value == PolyScalar.parameter(name)

    def test_nesting_depth_is_bounded(self):
        assert parse_expr("(" * 100 + "alpha" + ")" * 100) == ALPHA
        assert parse_expr("-(" * 50 + "alpha" + ")" * 50) == ALPHA
        for text in ("(" * 101 + "alpha" + ")" * 101, "-" * 101 + "alpha"):
            with pytest.raises(ExprSyntaxError):
                parse_expr(text)


#: Factor texts: integers, p/q, names with powers, parenthesised sums and unary minus.
factor_texts = st.recursive(
    st.one_of(
        st.integers(0, 12).map(str),
        st.builds("{}/{}".format, st.integers(0, 9), st.integers(1, 9)),
        st.builds("{}^{}".format, st.sampled_from(["a", "b", "c", "d"]), st.integers(0, 3)),
        st.sampled_from(["a", "b", "c", "d"]),
    ),
    lambda inner: st.one_of(
        st.builds("({} + {})".format, inner, inner),
        st.builds("({} - {})".format, inner, inner),
        inner.map("-{}".format),
    ),
    max_leaves=4,
)


class TestTerms:
    """A term multiplies all of its factors at once."""

    @settings(max_examples=300)
    @given(st.lists(factor_texts, min_size=1, max_size=6))
    def test_a_term_is_the_left_to_right_product_of_its_factors(self, texts):
        assert parse_expr("*".join(texts)) == reduce(mul, map(parse_expr, texts))

    def test_a_long_chain_rekeys_each_factor_once_at_most(self, monkeypatch):
        calls = []
        rekeyed = scalars._rekeyed
        monkeypatch.setattr(scalars, "_rekeyed",
                            lambda terms, old, new: calls.append(old) or rekeyed(terms, old, new))
        value = parse_expr("*".join(f"c{i}^2" for i in range(500)))
        assert len(calls) <= 500
        assert value.terms() == [(tuple(sorted((f"c{i}", 2) for i in range(500))), 1)]

    def test_a_monomial_rekeys_each_factor_once_at_most(self, monkeypatch):
        calls = []
        rekeyed = scalars._rekeyed
        monkeypatch.setattr(scalars, "_rekeyed",
                            lambda terms, old, new: calls.append(old) or rekeyed(terms, old, new))
        value = PolyScalar.monomial(1, {f"c{i}": 2 for i in range(500)})
        assert len(calls) <= 501  # the coefficient and each of the 500 powers
        assert value == parse_expr("*".join(f"c{i}^2" for i in range(500)))

    def test_the_exponent_limit_holds_across_a_term(self):
        half = f"alpha^{2 ** 62}"
        with pytest.raises(TensordagInputError, match="above 9223372036854775807"):
            parse_expr(f"{half}*beta*{half}")
        with pytest.raises(TensordagInputError, match="above 9223372036854775807"):
            parse_expr(f"2*{half}*(beta + 1)*{half}")
        assert parse_expr(f"{half}*beta*alpha^{2 ** 62 - 1}") == ALPHA ** _MAX_EXPONENT * BETA

    def test_a_zero_factor_refuses_only_what_comes_before_it(self):
        half = f"alpha^{2 ** 62}"
        assert parse_expr(f"0*{half}*{half}*{half}").is_zero()
        assert parse_expr(f"{half}*0*{half}*beta").is_zero()
        with pytest.raises(TensordagInputError, match="above 9223372036854775807"):
            parse_expr(f"{half}*{half}*0")

    @settings(max_examples=300)
    @given(st.lists(st.one_of(factor_texts, st.just(f"a^{2 ** 62}")), min_size=2, max_size=6))
    def test_a_term_is_refused_as_its_left_to_right_product_is(self, texts):
        assert _outcome(lambda: parse_expr("*".join(texts))) == \
            _outcome(lambda: reduce(mul, map(parse_expr, texts)))

    def test_factors_after_a_wide_product_keep_its_refusal(self):
        # Left to right, the product of the two sums is refused before c or the
        # powers of x join its names.
        a, b = (" + ".join(f"{name}{i}" for i in range(81)) for name in "ab")
        half = f"x^{2 ** 62}"
        for tail in ("c", f"{half}*{half}"):
            with pytest.raises(TensordagInputError, match="6480 terms over 162 parameters"):
                parse_expr(f"({a}) * ({b}) * {tail}")

    def test_a_run_of_factors_too_wide_to_hold_is_refused_left_to_right(self, monkeypatch):
        monkeypatch.setattr(scalars, "_MAX_KEY_FIELDS", 64)
        names = [f"a{i}" for i in range(70)]
        half = f"x^{2 ** 62}"
        with pytest.raises(TensordagInputError, match="1 terms over 64 parameters"):
            parse_expr("*".join(names))
        with pytest.raises(TensordagInputError, match="above 9223372036854775807"):
            parse_expr("*".join([half, half, *names]))


class TestSums:
    """An expression sums all of its terms at once."""

    @settings(max_examples=200)
    @given(factor_texts, st.lists(st.tuples(st.sampled_from("+-"), factor_texts), max_size=5))
    def test_an_expression_is_the_left_to_right_sum_of_its_terms(self, first, rest):
        # Values only: the n-ary sum counts its terms before any cancels, so its
        # width refusal is not the left-to-right one.
        text = first + "".join(f" {sign} {term}" for sign, term in rest)
        terms = [parse_expr(term) if sign == "+" else -parse_expr(term) for sign, term in rest]
        assert parse_expr(text) == reduce(add, terms, parse_expr(first))


def _outcome(compute):
    """The value ``compute()`` returns, or the message of its input error."""
    try:
        return compute()
    except TensordagInputError as error:
        return str(error)


class TestSerialization:
    def test_canonical_term_order(self):
        p = parse_expr("1 + beta*alpha^2 + beta*alpha^2")
        assert str(p) == "2*alpha^2*beta + 1"

    def test_graded_before_lex(self):
        # degree decides first; within a degree the exponent vector does
        p = parse_expr("beta^2 + alpha*beta + alpha^3")
        assert str(p) == "alpha^3 + alpha*beta + beta^2"

    def test_negative_leading_term(self):
        assert str(parse_expr("beta*2 - alpha - beta")) == "-alpha + beta"

    def test_unit_coefficients_are_implicit(self):
        assert str(ALPHA * BETA) == "alpha*beta"
        assert str(-ALPHA) == "-alpha"
        assert str(parse_expr("1/2*alpha - 1/2")) == "1/2*alpha - 1/2"

    def test_zero(self):
        assert str(PolyScalar.zero()) == "0"

    @pytest.mark.parametrize("number", [0, 1, -1, 7, -12, 10 ** 40, Fraction(3, 8),
                                        Fraction(-3, 8), Fraction(-(10 ** 30), 7)])
    def test_a_constant_prints_as_its_number(self, number):
        assert str(PolyScalar.constant(number)) == str(number)

    @pytest.mark.parametrize("number", [10 ** sys.get_int_max_str_digits(),
                                        -Fraction(1, 10 ** sys.get_int_max_str_digits())],
                             ids=["int", "fraction"])
    def test_a_constant_too_long_to_print_is_refused_as_its_number_is(self, number):
        with pytest.raises(TensordagInputError) as exact:
            scalars.exact_text(number)
        with pytest.raises(TensordagInputError) as printed:
            str(PolyScalar.constant(number))
        assert str(printed.value) == str(exact.value)

    def test_a_leading_negative_power_keeps_its_unit(self):
        # "-alpha^2" would parse as (-alpha)^2
        assert str(-ALPHA ** 2) == "-1*alpha^2"
        assert str(-ALPHA ** 2 * BETA + 1) == "-1*alpha^2*beta + 1"
        assert str(-ALPHA * BETA ** 2) == "-alpha*beta^2"
        assert str(1 - ALPHA ** 2) == "-1*alpha^2 + 1"
        assert str(parse_expr("-1/2*alpha^2")) == "-1/2*alpha^2"

    def test_one_key_over_different_names_prints_each_name(self):
        # the monomial texts are cached per key and names
        assert [str(PolyScalar.parameter(name) ** 3) for name in "ab"] == ["a^3", "b^3"]

    @settings(max_examples=200)
    @given(poly_scalars())
    def test_text_matches_a_reference_built_from_terms(self, p):
        assert str(p) == _reference_text(p)


def _reference_text(p: PolyScalar) -> str:
    """The canonical text, assembled term by term from ``terms()``."""
    pieces = []
    for mono, coeff in p.terms():
        factors = [name if power == 1 else f"{name}^{power}" for name, power in mono]
        magnitude = abs(Fraction(coeff))
        if magnitude != 1 or not factors:
            factors.insert(0, str(magnitude))
        elif coeff < 0 and not pieces and "^" in factors[0]:
            factors.insert(0, "1")
        sign = ("-" if coeff < 0 else "") if not pieces else (" - " if coeff < 0 else " + ")
        pieces.append(sign + "*".join(factors))
    return "".join(pieces) or "0"


class TestCanonicalForm:
    """Equal values built by different routes share one stored form."""

    @settings(max_examples=200)
    @given(poly_scalars(), poly_scalars(), poly_scalars())
    def test_equal_values_hash_and_print_alike(self, p, q, r):
        for left, right in (((p * q) * r, p * (q * r)), (p * (q + r), p * q + p * r),
                            ((p + q) + r, r + (q + p)), (p - q, -(q - p))):
            assert left == right
            assert hash(left) == hash(right)
            assert str(left) == str(right)

    @settings(max_examples=200)
    @given(st.fractions(max_denominator=10 ** 6))
    def test_constant_equals_and_hashes_like_its_number(self, x):
        assert PolyScalar.constant(x) == x
        assert hash(PolyScalar.constant(x)) == hash(x)

    def test_denominators_cancel(self):
        product = parse_expr("3/2*alpha") * Fraction(2, 3)
        assert product == ALPHA and str(product) == "alpha"
        total = parse_expr("1/6*alpha + 1/3*alpha")
        assert str(total) == "1/2*alpha"
        assert total.terms() == [((("alpha", 1),), Fraction(1, 2))]

    def test_whole_coefficients_come_back_as_ints(self):
        coefficient = parse_expr("1/2*alpha + 1/2*alpha + 1/4").terms()[0][1]
        assert coefficient == 1 and type(coefficient) is int

    @settings(max_examples=300)
    @given(one_terms, one_terms)
    def test_a_one_term_product_is_canonical(self, x, y):
        (fx, px), (fy, py) = x, y
        left, right = PolyScalar.monomial(fx, px), PolyScalar.monomial(fy, py)
        _assert_canonical(left * right, PolyScalar.monomial(fx * fy, Counter(px) + Counter(py)))
        _assert_canonical(-left, PolyScalar.monomial(-fx, px))

    @settings(max_examples=300)
    @given(big_fractions, big_fractions)
    def test_a_constant_product_is_canonical(self, q1, q2):
        _assert_canonical(PolyScalar.constant(q1) * PolyScalar.constant(q2),
                          PolyScalar.constant(q1 * q2))
        _assert_canonical(-PolyScalar.constant(q1), PolyScalar.constant(-q1))


def _assert_canonical(value: PolyScalar, expected: PolyScalar) -> None:
    """``value`` is stored as ``expected``, in lowest terms, and reads back from its text."""
    assert value == expected  # compares the denominators and numerators field by field
    assert hash(value) == hash(expected)
    (numerator,) = value._terms.values()
    assert value._den > 0 and math.gcd(numerator, value._den) == 1
    assert parse_expr(str(value)) == value


class TestPowerGuards:
    def test_term_count_bound(self):
        # C(7+5, 5) = 792 terms are computed; C(8+5, 5) = 1287 are refused.
        assert len(parse_expr("(a+b+c+d+e+f)^7").terms()) == 792
        with pytest.raises(TensordagInputError, match="over 1024 terms"):
            parse_expr("(a+b+c+d+e+f)^8")
        with pytest.raises(TensordagInputError, match="over 1024 terms"):
            parse_expr("(a+b+c)^100")

    def test_bit_bound_is_unchanged(self):
        assert parse_expr("(1/2*alpha)^1048576") == Fraction(1, 2 ** 1_048_576) * ALPHA ** 1_048_576
        with pytest.raises(TensordagInputError) as info:
            parse_expr("(1/2*alpha)^1048577")
        assert str(info.value) == ("an exact power of at least 1048577 bits is too large"
                                   " to compute (the limit is 1048576)")


def _reference(poly: dict) -> list:
    """A reference polynomial ``{((name, power), ...): Fraction}`` as ``terms()`` lists it:
    nonzero terms, higher total degree first, then the powers of a, b, c, d."""
    def grade(mono):
        powers = dict(mono)
        return sum(powers.values()), tuple(powers.get(name, 0) for name in "abcd")

    return [(mono, coeff) for mono, coeff in sorted(poly.items(), key=lambda t: grade(t[0]),
                                                    reverse=True) if coeff]


def _reference_add(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for mono, coeff in q.items():
        out[mono] = out.get(mono, 0) + sign * coeff
    return {mono: coeff for mono, coeff in out.items() if coeff}


def _reference_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            powers = dict(ma)
            for name, power in mb:
                powers[name] = powers.get(name, 0) + power
            mono = tuple(sorted(powers.items()))
            out[mono] = out.get(mono, 0) + ca * cb
    return {mono: coeff for mono, coeff in out.items() if coeff}


reference_polys = st.dictionaries(
    powers.map(lambda p: tuple(sorted((name, k) for name, k in p.items() if k))),
    coefficients.filter(bool), max_size=4)


def _poly(reference: dict) -> PolyScalar:
    return sum((PolyScalar.monomial(coeff, dict(mono)) for mono, coeff in reference.items()),
               PolyScalar.zero())


@st.composite
def key_layouts(draw) -> tuple[PolyScalar, list[str]]:
    """A polynomial over some of the names ``m0``..``m5``, and extra names that
    sort after them, before them or among them."""
    names = [f"m{i}" for i in range(6)]
    monomials = draw(st.lists(st.dictionaries(st.sampled_from(names), st.integers(0, _MAX_EXPONENT),
                                              min_size=1), min_size=1, max_size=4))
    value = sum((PolyScalar.monomial(1, powers) for powers in monomials), PolyScalar.zero())
    extra = draw(st.sampled_from([[f"n{i}" for i in range(6)], [f"l{i}" for i in range(6)],
                                  [f"{name}_" for name in names]]))
    return value, draw(st.lists(st.sampled_from(extra), min_size=1, unique=True))


class TestPackedKeys:
    """Terms of packed-key arithmetic against plain dicts keyed by ``(name, power)`` tuples."""

    @settings(max_examples=200)
    @given(key_layouts())
    def test_rekeying_onto_more_names_and_back_keeps_every_key(self, layout):
        value, extra = layout
        old = value._names
        new = tuple(sorted({*old, *extra}))
        moved = scalars._rekeyed(value._terms, old, new)
        assert scalars._rekeyed(moved, new, old) == value._terms
        assert [scalars._monomial(key, new) for key in moved] == \
            [scalars._monomial(key, old) for key in value._terms]
        assert PolyScalar(new, moved).total_degree() == value.total_degree()
        # Fields of 0 change no comparison, so the terms keep their order.
        pairs = list(zip(value._terms, moved))
        assert sorted(pairs) == sorted(pairs, key=lambda pair: pair[1])

    @settings(max_examples=200)
    @given(reference_polys, reference_polys, st.integers(0, 3))
    def test_terms_match_a_plain_reference(self, p, q, exponent):
        a, b = _poly(p), _poly(q)
        power = {(): Fraction(1)}
        for _ in range(exponent):
            power = _reference_mul(power, p)
        cases = [(a, p), (a + b, _reference_add(p, q)), (a - b, _reference_add(p, q, -1)),
                 (a * b, _reference_mul(p, q)), (a ** exponent, power),
                 ((a + b) - b, p), (a - a, {}), (b + (a - b), p)]
        for value, expected in cases:
            assert value.terms() == _reference(expected)
            assert value.parameters() == {name for mono in expected for name, _ in mono}
            assert value == _poly(expected) and hash(value) == hash(_poly(expected))

    def test_cancelling_a_name_drops_it(self):
        value = parse_expr("alpha*beta + gamma") - parse_expr("alpha*beta")
        assert value.parameters() == {"gamma"}
        assert value == parse_expr("gamma") and hash(value) == hash(parse_expr("gamma"))
        assert str(value) == "gamma"

    @pytest.mark.parametrize("left, right, expected, names", [
        ("alpha + beta", "alpha - beta", "alpha^2 - beta^2", {"alpha", "beta"}),
        ("alpha + 1", "alpha - 1", "alpha^2 - 1", {"alpha"})])
    def test_a_product_whose_cross_terms_cancel(self, left, right, expected, names):
        value = parse_expr(left) * parse_expr(right)
        assert value == parse_expr(expected) and hash(value) == hash(parse_expr(expected))
        assert value.parameters() == names
        assert str(value) == expected

    def test_the_largest_exponent_parses_prints_and_round_trips(self):
        text = f"alpha^{_MAX_EXPONENT}"
        assert _MAX_EXPONENT == 2 ** 63 - 1
        value = parse_expr(text)
        assert str(value) == text
        assert parse_expr(str(value)) == value
        assert value.terms() == [((("alpha", _MAX_EXPONENT),), 1)]

    def test_a_product_past_the_exponent_limit_is_refused(self):
        half = ALPHA ** 2 ** 62
        with pytest.raises(TensordagInputError, match="above 9223372036854775807"):
            half * half
        with pytest.raises(TensordagInputError):
            (half + 1) * (half + BETA)
        with pytest.raises(TensordagInputError):
            parse_expr(f"alpha^{_MAX_EXPONENT + 1}")

    def test_a_full_field_leaves_its_neighbours_intact(self):
        value = ALPHA ** _MAX_EXPONENT * BETA
        assert value.terms() == [((("alpha", _MAX_EXPONENT), ("beta", 1)), 1)]
        assert value.total_degree() == 2 ** 63
        assert str(value * 3) == f"3*alpha^{_MAX_EXPONENT}*beta"

    def test_power_squares_only_while_bits_remain(self, monkeypatch):
        calls = []
        multiply = PolyScalar.__mul__
        monkeypatch.setattr(PolyScalar, "__mul__",
                            lambda self, other: calls.append(1) or multiply(self, other))
        power = X ** 8
        assert len(calls) == 3  # x^2, x^4, x^8
        assert power.terms() == [((("x", 8),), 1)]

    def test_a_sum_of_many_names_is_summed_once(self):
        names = [f"a{i}" for i in range(1000)]
        value = parse_expr(" + ".join(names) + " - a999")
        assert value.parameters() == set(names[:-1])
        assert sorted(str(value).split(" + ")) == sorted(names[:-1])

    def test_too_wide_a_polynomial_is_refused(self):
        with pytest.raises(TensordagInputError, match="too large to hold"):
            parse_expr(" + ".join(f"a{i}" for i in range(1024)))
        # The operators sum through the parser's code, so operands over the same
        # names are refused with the parser's message for the same sum.
        p = parse_expr(" + ".join(f"a{i}" for i in range(1023)))
        q = parse_expr(" + ".join(f"a{i}^2" for i in range(1023)))
        message = "2046 terms over 1023 parameters"
        with pytest.raises(TensordagInputError, match=message):
            parse_expr(f"{p} + {q}")
        with pytest.raises(TensordagInputError, match=message):
            p + q
        with pytest.raises(TensordagInputError, match=message):
            p - (-q)

    def test_a_factor_too_wide_to_rekey_is_refused(self):
        # 1023 terms moved onto the 1025 names of the product need over 2^20 fields.
        text = "(" + " + ".join(f"a{i}" for i in range(1023)) + ") * (b0 + b1)"
        with pytest.raises(TensordagInputError, match="1023 terms over 1025 parameters"):
            parse_expr(text)

    def test_a_product_too_wide_to_hold_is_refused_as_it_grows(self):
        # 81 x 81 terms over 162 names would need 6561 * 163 fields; the refusal comes
        # after 80 of the 81 rows, once the terms pass 2^20 // 163.
        a, b = (" + ".join(f"{name}{i}" for i in range(81)) for name in "ab")
        with pytest.raises(TensordagInputError, match="6480 terms over 162 parameters"):
            parse_expr(f"({a}) * ({b})")
