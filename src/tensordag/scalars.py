"""Exact commutative-ring scalars: rationals and multivariate polynomials.

Every tensor cell in this package is a :class:`PolyScalar`, a polynomial
with rational coefficients over named parameters.  Working symbolically
means equality checks between two computation paths are exact; there is no
tolerance anywhere in the library.

Representation
--------------
A polynomial is stored as the sorted tuple of its own parameter names and
nonzero integer numerators keyed by packed monomial, over one positive
denominator:

    alpha^2*beta + 5/2   ->   ("alpha", "beta"), {3<<128 | 2<<64 | 1: 2, 0: 5} over 2

A packed key puts the monomial's total degree above one 64-bit field per
name, the first name in the most significant field (after Monagan & Pearce,
"Sparse polynomial multiplication and division in Maple 14", 2010).  A
constant's key is 0 under any names.  Every power is at most 2^63 - 1, so the
sum of two powers never carries into the next field: multiplying two
monomials over the same names is adding their keys, and a product or power
that would pass the limit is refused.  Two operands over different names are
first re-keyed to the union of their names.

The names are exactly those with a nonzero power in some term (constants and
zero have none), and the denominator has no factor common to all the
numerators (zero is the empty dict over 1), so two PolyScalars are equal iff
their names, denominators and term dicts are equal.  A product of two
one-term operands cancels across, each numerator against the other's
denominator, and is then in lowest terms and stored as it is; other sums and
products divide out the common factor.  Ring operations use integer
arithmetic only; :meth:`PolyScalar.terms` gives each monomial as
``(name, power)`` pairs and each coefficient in lowest terms, an ``int`` when
it is whole.

Integer order of the keys is graded-lexicographic order (higher total degree
first, ties broken by the exponent vector over the sorted names), so text
output and floating-point evaluation take the terms in descending key order
and are deterministic.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence, Union

#: Exact rational number used for coefficients and evaluation points.
Rational = Fraction

#: A monomial: ``(name, power)`` pairs sorted by name, powers >= 1.
Monomial = tuple[tuple[str, int], ...]

Coefficient = Union[int, Fraction]

#: Parameter bindings for evaluation.  Fraction/int values keep the result
#: exact; a float value makes the result a float (binary64).
Assignment = Mapping[str, Union[int, Fraction, float]]


#: An exact power whose result would need more bits than this is refused
#: before it is computed: about 315 000 decimal digits, far beyond the 4300
#: that Python prints by default.
_MAX_POWER_BITS = 1 << 20

#: A power of a polynomial that could have more terms than this is refused
#: before it is computed: ``(a+b+c)^100`` could have 5151.
_MAX_POWER_TERMS = 1 << 10

#: Bits of one exponent field in a packed monomial key.
_FIELD_BITS = 64
_FIELD_MASK = (1 << _FIELD_BITS) - 1

#: Largest power of one parameter: the sum of two such powers still fits
#: its field, so adding two keys never carries into the next field.
_MAX_EXPONENT = (1 << _FIELD_BITS - 1) - 1

#: A polynomial whose packed keys would take more 64-bit fields than this
#: (its terms times one more than its names) is refused: 8 MiB of keys, the
#: sum of 1023 distinct parameters.
_MAX_KEY_FIELDS = 1 << 20

#: Deepest nesting of parentheses and unary minus signs that
#: `parse_expr` accepts.  The parser recurses once per level, so the
#: bound keeps it well under the interpreter's recursion limit.
_MAX_NESTING = 100


class TensordagInputError(ValueError):
    """Base of every error that bad input can cause: malformed text, an
    invalid network, or a value too large to compute or print.

    The command line maps exactly these errors (and file-reading errors) to
    exit code 2.
    """


class UnboundParameter(TensordagInputError):
    """A parameter of the polynomial has no value in the assignment."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no value bound for parameter {name!r}")


class ExprSyntaxError(TensordagInputError):
    """Malformed expression text, with the offset where parsing failed."""

    def __init__(self, position: int, expected: str, found: str):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(f"at offset {position}: expected {expected}, found {found}")


class NegativeExponent(TensordagInputError):
    """Exponents must be nonnegative integers; the grammar has no inverses."""

    def __init__(self, position: int):
        self.position = position
        super().__init__(f"at offset {position}: negative exponent is not allowed")


def _size_bits(value: int | Fraction | float) -> int:
    """Bits that ``value ** k`` needs per unit of ``k``, at least; 0 for a float."""
    if isinstance(value, float):
        return 0
    if isinstance(value, Fraction):
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
    else:
        bits = abs(value).bit_length()
    # |value| >= 2**(bits-1), so value**k has at least (bits-1)*k bits.
    return max(bits - 1, 0)


def _too_large(bits: int) -> TensordagInputError:
    return TensordagInputError(
        f"an exact power of at least {bits} bits is too large to compute"
        f" (the limit is {_MAX_POWER_BITS})")


def _unprintable() -> TensordagInputError:
    return TensordagInputError(
        f"a number of more than {sys.get_int_max_str_digits()} digits is too large to print")


def exact_text(value: int | Fraction) -> str:
    """``str(value)``, or an input error when it has too many digits to print."""
    try:
        return str(value)
    except ValueError:
        raise _unprintable() from None


def count_text(count: int) -> str:
    """Decimal text of a count, or a bound on it when it has too many digits to print."""
    try:
        return str(count)
    except ValueError:
        return f"over 10^{sys.get_int_max_str_digits()}"


class PolyScalar:
    """An immutable exact multivariate polynomial.

    Supports ``+``, ``-``, ``*`` and ``**`` with other PolyScalars and with
    plain ``int``/``Fraction`` values.  ``str()`` returns the canonical text
    form, which :func:`parse_expr` reads back.  The constructor is internal:
    build values with the class methods, :func:`parse_expr` and the operators.
    """

    __slots__ = ("_names", "_terms", "_den")

    def __init__(self, names: tuple[str, ...], terms: dict[int, int], den: int = 1):
        """Divide out the common factor of ``den`` and the numerators.

        ``names`` must be exactly the names some key of ``terms`` uses.
        """
        if den != 1:
            common = math.gcd(den, *terms.values())
            if common != 1:
                terms = {key: coeff // common for key, coeff in terms.items()}
                den //= common
        self._names = names
        self._terms = terms
        self._den = den

    @classmethod
    def _as_given(cls, names: tuple[str, ...], terms: dict[int, int], den: int) -> "PolyScalar":
        """The polynomial of parts that are already canonical, stored as they are,
        unchecked: ``den`` has no factor common to all the numerators."""
        value = object.__new__(cls)
        value._names = names
        value._terms = terms
        value._den = den
        return value

    @classmethod
    def zero(cls) -> "PolyScalar":
        return cls((), {})

    @classmethod
    def constant(cls, value: int | Fraction) -> "PolyScalar":
        if type(value) is int:  # every integer literal the parser reads
            return cls((), {0: value} if value else {})
        value = Fraction(value)
        return cls._as_given((), {0: value.numerator} if value else {}, value.denominator)

    @classmethod
    def parameter(cls, name: str) -> "PolyScalar":
        """The parameter ``name``: an ASCII letter or underscore, then ASCII
        letters, digits and underscores, the identifiers that :func:`parse_expr`
        reads.  Any other name is refused with a :class:`TensordagInputError`."""
        if _NAME.fullmatch(name) is None:
            raise TensordagInputError(
                f"bad parameter name {name!r}: expected an ASCII letter or underscore,"
                " then ASCII letters, digits and underscores")
        return cls((name,), {1 << _FIELD_BITS | 1: 1})

    @classmethod
    def monomial(cls, coeff: int | Fraction, powers: Mapping[str, int]) -> "PolyScalar":
        return _product([cls.constant(coeff),
                         *(cls.parameter(name) ** power for name, power in powers.items())])

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def parameters(self) -> set[str]:
        """Names of all parameters appearing with nonzero power."""
        return set(self._names)

    def total_degree(self) -> int:
        """Maximum total degree over all terms; 0 for the zero polynomial."""
        if not self._terms:
            return 0
        return max(self._terms) >> _FIELD_BITS * len(self._names)

    def terms(self) -> list[tuple[Monomial, Coefficient]]:
        """Terms in canonical (graded-lex descending) order."""
        return [(_monomial(key, self._names), _reduced(numerator, self._den))
                for key, numerator in self._ordered()]

    def _ordered(self) -> list[tuple[int, int]]:
        """``(key, numerator)`` pairs in canonical order."""
        return sorted(self._terms.items(), reverse=True)

    # -- ring operations -------------------------------------------------

    @staticmethod
    def _coerce(value: object) -> "PolyScalar | None":
        if isinstance(value, PolyScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return PolyScalar.constant(value)
        return None

    def __add__(self, other: object) -> "PolyScalar":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if not self._terms:
            return rhs
        if not rhs._terms:
            return self
        return _sum((self, rhs))

    __radd__ = __add__

    def __neg__(self) -> "PolyScalar":
        return PolyScalar._as_given(self._names, _scaled(self._terms, -1), self._den)

    def __sub__(self, other: object) -> "PolyScalar":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> "PolyScalar":
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs + (-self)

    def __mul__(self, other: object) -> "PolyScalar":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = self._terms, rhs._terms
        if not a or not b:
            return _ZERO
        names = self._names
        if names != rhs._names:
            if not names:
                names = rhs._names
            elif rhs._names:
                names = _union(names, rhs._names)
                a, b = _rekeyed(a, self._names, names), _rekeyed(b, rhs._names, names)
        den = self._den * rhs._den
        top = _FIELD_BITS * len(names)  # the total degree's shift
        if len(a) == 1 and len(b) == 1:
            # Monomial times monomial: the overwhelmingly common case for
            # network totals, worth the dedicated path.
            (ka, ca), = a.items()
            (kb, cb), = b.items()
            key = ka + kb
            if key >> top > _MAX_EXPONENT:
                _check_exponents((key,), len(names))
            if den != 1:
                # Each operand's numerator and denominator are coprime, so
                # cancelling across leaves the product in lowest terms
                # (Knuth, TAOCP vol. 2, 4.5.1).
                da, db = self._den, rhs._den
                g1, g2 = math.gcd(ca, db), math.gcd(cb, da)
                return PolyScalar._as_given(names, {key: (ca // g1) * (cb // g2)},
                                            (da // g2) * (db // g1))
            return PolyScalar(names, {key: ca * cb}, den)
        most = _MAX_KEY_FIELDS // (len(names) + 1)
        out: dict[int, int] = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                key = ka + kb
                total = out.get(key, 0) + ca * cb
                if total:
                    out[key] = total
                else:
                    del out[key]
            if len(out) > most:
                raise _too_wide(len(out), len(names))
        if out and max(out) >> top > _MAX_EXPONENT:
            _check_exponents(out, len(names))
        return PolyScalar(names, out, den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "PolyScalar":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        for numerator in self._terms.values():
            size = _size_bits(_reduced(numerator, self._den)) * exponent
            if size > _MAX_POWER_BITS:
                raise _too_large(size)
        # A t-term base gives at most C(exponent+t-1, t-1) terms; after step
        # i, bound = C(exponent+i, i).
        bound = 1
        for i in range(1, len(self._terms)):
            bound = bound * (exponent + i) // i
            if bound > _MAX_POWER_TERMS:
                raise TensordagInputError(
                    f"a power of a polynomial that could have over {_MAX_POWER_TERMS} terms"
                    f" is too large to compute ({len(self._terms)} terms to the power {exponent})")
        if not exponent:
            return _ONE
        # Square and multiply, low bit first; the base is squared only while
        # higher bits remain, and the first factor is taken as it is.
        result = None
        base = self
        while True:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if not exponent:
                return result
            base = base * base

    # -- comparison ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._den == rhs._den and self._terms == rhs._terms and self._names == rhs._names

    def __hash__(self) -> int:
        if not self._names:  # a constant hashes like the number
            return hash(_reduced(self._terms.get(0, 0), self._den))
        return hash((self._names, self._den, frozenset(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- evaluation ------------------------------------------------------

    def evaluate(self, assignment: Assignment) -> int | Fraction | float:
        """Evaluate with every parameter bound in ``assignment``.

        Terms are summed in canonical order, so a result involving floats is
        deterministic.  With only int/Fraction bindings the result is exact.

        Raises:
            UnboundParameter: a parameter of the polynomial has no binding.
            TensordagInputError: the exact powers in one term would together
                need over _MAX_POWER_BITS bits, or a float result overflows.
        """
        sizes = {name: _size_bits(assignment[name]) for name in self._names if name in assignment}
        total: int | Fraction | float = 0
        try:
            for mono, coeff in self.terms():
                value: int | Fraction | float = coeff
                size = 0
                for name, power in mono:
                    if name not in sizes:
                        raise UnboundParameter(name)
                    size += sizes[name] * power
                    if size > _MAX_POWER_BITS:
                        raise _too_large(size)
                    value = value * assignment[name] ** power
                total = total + value
            if isinstance(total, float) and not math.isfinite(total):
                raise OverflowError  # a float product or sum overflowed to inf (or inf - inf)
        except OverflowError:
            raise TensordagInputError("the value overflows the float range") from None
        return total

    # -- text form -------------------------------------------------------

    def __str__(self) -> str:
        try:
            return self._text()
        except ValueError:  # a coefficient over the int-to-text digit limit
            raise _unprintable() from None

    def _text(self) -> str:
        if not self._terms:
            return "0"
        names, den = self._names, self._den
        if not names:  # a constant: its numerator over its denominator
            numerator = self._terms[0]
            return str(numerator) if den == 1 else f"{numerator}/{den}"
        pieces: list[str] = []
        for key, numerator in self._ordered():
            monomial, powered = _monomial_text(key, names)
            if den == 1:
                magnitude, term_den = abs(numerator), 1
            else:
                common = math.gcd(numerator, den)
                magnitude, term_den = abs(numerator) // common, den // common
            if term_den != 1:
                coeff = f"{magnitude}/{term_den}"
            elif magnitude != 1 or not monomial:
                coeff = str(magnitude)
            elif numerator < 0 and not pieces and powered:
                coeff = "1"  # a leading "-name^k" would parse as (-name)^k; pin the -1
            else:
                coeff = ""
            body = f"{coeff}*{monomial}" if coeff and monomial else coeff or monomial
            if not pieces:
                pieces.append(f"-{body}" if numerator < 0 else body)
            else:
                pieces.append(f" - {body}" if numerator < 0 else f" + {body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"PolyScalar({str(self)!r})"


_ZERO = PolyScalar.zero()
_ONE = PolyScalar.constant(1)


def _reduced(numerator: int, den: int) -> Coefficient:
    """``numerator / den`` in lowest terms: an int when it is whole."""
    value = Fraction(numerator, den) if den != 1 else numerator
    return value.numerator if value.denominator == 1 else value


def _scaled(terms: dict[int, int], factor: int) -> dict[int, int]:
    """A copy of ``terms`` with every numerator times ``factor``."""
    if factor == 1:
        return dict(terms)
    return {key: coeff * factor for key, coeff in terms.items()}


def _monomial(key: int, names: tuple[str, ...]) -> Monomial:
    """The ``(name, power)`` pairs of a packed key, powers >= 1."""
    pairs = []
    for name, shift in _shifts(names).items():
        power = key >> shift & _FIELD_MASK
        if power:
            pairs.append((name, power))
    return tuple(pairs)


def _check_exponents(keys: Iterable[int], width: int) -> None:
    """Refuse keys over ``width`` names that hold a power above ``_MAX_EXPONENT``.

    Each field of a key is the sum of two powers of at most ``_MAX_EXPONENT``,
    so it passes the limit exactly when its top bit is set.
    """
    high = sum(1 << (_FIELD_BITS * i + _FIELD_BITS - 1) for i in range(width))
    if any(key & high for key in keys):
        raise TensordagInputError(
            f"a power of a parameter above {_MAX_EXPONENT} is too large to compute")


def _too_wide(terms: int, width: int) -> TensordagInputError:
    return TensordagInputError(
        f"a polynomial of {terms} terms over {width} parameters is too large to hold"
        f" (the limit is {_MAX_KEY_FIELDS} exponent fields)")


@lru_cache(maxsize=1024)
def _monomial_text(key: int, names: tuple[str, ...]) -> tuple[str, bool]:
    """The text of a packed key's monomial, ``""`` for a constant, and whether
    its first factor carries a power."""
    factors = [name if power == 1 else f"{name}^{power}" for name, power in _monomial(key, names)]
    return "*".join(factors), bool(factors) and "^" in factors[0]


@lru_cache(maxsize=256)
def _union(*names: tuple[str, ...]) -> tuple[str, ...]:
    """The sorted union of the name tuples ``names``."""
    return tuple(sorted({name for group in names for name in group}))


@lru_cache(maxsize=256)
def _shifts(names: tuple[str, ...]) -> dict[str, int]:
    """The shift of each name's field in a key over ``names``, in name order:
    the first name's field is the most significant, just below the total degree."""
    top = _FIELD_BITS * len(names)
    return {name: top - _FIELD_BITS * i for i, name in enumerate(names, 1)}


def _rekeyed(terms: dict[int, int], old: tuple[str, ...], new: tuple[str, ...]) -> dict[int, int]:
    """``terms`` over ``old`` keyed over ``new``, which holds every name that a key uses."""
    if old == new or not old:
        return terms
    if len(terms) * (len(new) + 1) > _MAX_KEY_FIELDS:
        raise _too_wide(len(terms), len(new))
    top, to_top = _FIELD_BITS * len(old), _FIELD_BITS * len(new)  # the total degree's shifts
    target = _shifts(new)
    moves = [(shift, target[name]) for name, shift in _shifts(old).items() if name in target]
    out = {}
    for key, coeff in terms.items():
        moved = key >> top << to_top
        for source, to in moves:
            moved |= (key >> source & _FIELD_MASK) << to
        out[moved] = coeff
    return out


def _trimmed(names: tuple[str, ...], terms: dict[int, int], den: int) -> PolyScalar:
    """The polynomial of ``terms`` over ``den``, without the names no key uses."""
    used = 0
    for key in terms:
        used |= key
    kept = tuple(name for name, _ in _monomial(used, names))
    return PolyScalar(kept, _rekeyed(terms, names, kept), den)


def _sum(values: Sequence[PolyScalar]) -> PolyScalar:
    """The sum of ``values``, each term re-keyed once to the union of their names.

    When every operand with names has the same names (a constant has none),
    those are the union and no term is re-keyed.
    """
    names = _union(*[value._names for value in values])
    count = sum([len(value._terms) for value in values])
    den = math.lcm(*[value._den for value in values])
    if count * (len(names) + 1) > _MAX_KEY_FIELDS:
        raise _too_wide(count, len(names))
    # The first operand's terms are copied at once; the merge loop adds the rest.
    first = values[0]
    out = _scaled(_rekeyed(first._terms, first._names, names), den // first._den)
    cancelled = False
    for value in values[1:]:
        scale = den // value._den
        for key, coeff in _rekeyed(value._terms, value._names, names).items():
            total = out.get(key, 0) + coeff * scale
            if total:
                out[key] = total
            else:
                del out[key]
                cancelled = True
    # Without a cancellation every key of every operand is kept, so every name is used.
    return _trimmed(names, out, den) if cancelled else PolyScalar(names, out, den)


def _product(values: Sequence[PolyScalar]) -> PolyScalar:
    """The product of ``values``, refused where and as multiplying them left to
    right is.  A leading run of one-term factors is multiplied at once: each is
    re-keyed once to the union of their names, the keys are added and the
    coefficients multiplied.  The factors after it are multiplied in left to right."""
    run = 0
    for value in values:
        if len(value._terms) != 1:
            break
        run += 1
    result, rest = values[0], values[1:]
    if run > 1:
        names = _union(*(value._names for value in values[:run]))
        # Left to right, a run too wide to hold is refused at the factor that
        # makes it so, with the width of the names up to there.
        if len(names) < _MAX_KEY_FIELDS:
            top = _FIELD_BITS * len(names)  # the total degree's shift
            key, numerator, den = 0, 1, 1
            for value in values[:run]:
                (moved, coeff), = _rekeyed(value._terms, value._names, names).items()
                key += moved
                # Every field stays at most _MAX_EXPONENT, so the next sum cannot carry.
                if key >> top > _MAX_EXPONENT:
                    _check_exponents((key,), len(names))
                numerator *= coeff
                den *= value._den
            result, rest = PolyScalar(names, {key: numerator}, den), values[run:]
    for value in rest:
        result = result * value
    return result


# ---------------------------------------------------------------------------
# Expression parsing
#
# expr   := term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := atom ('^' uint)?
# atom   := uint | uint '/' uint | ident | '(' expr ')' | '-' atom
# ident  := _NAME    (the compiled patterns below)
# uint   := _UINT
#
# Whitespace is insignificant.  Division appears only between integer
# literals (rational constants); general division and negative exponents are
# rejected.  Parentheses and unary minus nest at most _MAX_NESTING deep.
# A term's factors are all read before they are multiplied, so a syntax
# error in a term is reported before a refusal of its product.
# ---------------------------------------------------------------------------

#: A name is ASCII.  ``\d`` is the Unicode category Nd, the decimal digits of
#: any script, which ``int()`` converts.
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_UINT = re.compile(r"\d+")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def peek(self) -> str:
        """Skip whitespace and return the next character, ``""`` at the end."""
        text, pos = self.text, self.pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
        self.pos = pos
        return text[pos] if pos < len(text) else ""

    def fail(self, expected: str) -> "ExprSyntaxError":
        found = repr(self.text[self.pos]) if self.pos < len(self.text) else "end of input"
        return ExprSyntaxError(self.pos, expected, found)

    def take_uint(self) -> int:
        self.peek()
        match = _UINT.match(self.text, self.pos)
        if match is None:
            raise self.fail("an unsigned integer")
        self.pos = match.end()
        try:
            return int(match.group())
        except ValueError:  # more digits than int() converts
            raise ExprSyntaxError(
                match.start(), f"an integer of at most {sys.get_int_max_str_digits()} digits",
                f"{self.pos - match.start()} digits") from None

    def expr(self) -> PolyScalar:
        # The terms are summed at once, so each is re-keyed to the union of
        # their names once, not once per '+'.
        values = [self.term()]
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                values.append(self.term())
            elif ch == "-":
                self.pos += 1
                values.append(-self.term())
            else:
                return values[0] if len(values) == 1 else _sum(values)

    def term(self) -> PolyScalar:
        # The factors are multiplied together, so each leading one-term factor
        # is re-keyed to the union of their names once, not once per '*'.
        values = [self.factor()]
        while self.peek() == "*":
            self.pos += 1
            values.append(self.factor())
        return values[0] if len(values) == 1 else _product(values)

    def factor(self) -> PolyScalar:
        value = self.atom()
        if self.peek() == "^":
            self.pos += 1
            if self.peek() == "-":
                raise NegativeExponent(self.pos)
            value = value ** self.take_uint()
        return value

    def atom(self) -> PolyScalar:
        ch = self.peek()
        if ch == "-" or ch == "(":
            if self.depth == _MAX_NESTING:
                raise self.fail(f"at most {_MAX_NESTING} nested parentheses and minus signs")
            self.depth += 1
            self.pos += 1
            if ch == "-":
                value = -self.atom()
            else:
                value = self.expr()
                if self.peek() != ")":
                    raise self.fail("')'")
                self.pos += 1
            self.depth -= 1
            return value
        if ch.isdecimal():  # what _UINT matches; isdigit() also takes '²'
            numerator = self.take_uint()
            if self.peek() == "/":
                self.pos += 1
                mark = self.pos
                denominator = self.take_uint()
                if denominator == 0:
                    raise ExprSyntaxError(mark, "a nonzero denominator", "0")
                return PolyScalar.constant(Fraction(numerator, denominator))
            return PolyScalar.constant(numerator)
        match = _NAME.match(self.text, self.pos)
        if match is None:
            raise self.fail("an integer, identifier, '(' or '-'")
        self.pos = match.end()
        return PolyScalar.parameter(match.group())


def parse_expr(text: str) -> PolyScalar:
    """Parse expression text into a canonical :class:`PolyScalar`.

    ``parse_expr(str(p)) == p`` holds for every PolyScalar ``p``.

    Raises:
        ExprSyntaxError: the text does not conform to the grammar, nests
            parentheses and minus signs more than 100 deep, or has an
            integer literal too long to convert.
        NegativeExponent: a ``^`` is followed by a minus sign.
        TensordagInputError: a power is too large to compute exactly.
    """
    parser = _Parser(text)
    value = parser.expr()
    parser.peek()
    if parser.pos != len(text):
        raise parser.fail("end of input")
    return value
