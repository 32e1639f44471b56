"""The value types built per answer: frozen, equal and hashed by their
fields, with a stable repr, and QuadInput's construction checks."""

import pickle

import pytest

import zxfactor.classify
import zxfactor.padics
from oracles import spy
from zxfactor.classify import (
    QuadInput,
    Verdict,
    VerdictKind,
    classify_general,
    classify_quadratic,
    discriminant_square_class,
)
from zxfactor.oracle import VerificationReport, verify_factorization
from zxfactor.padics import SquareClass, is_square_zp
from zxfactor.series import TruncSeries

P = 10**12 + 39


def _instances():
    """One builder per type; each call builds a new, equal instance."""
    f, a, b = TruncSeries([4, 2, 1]), TruncSeries([2, 1, 0]), TruncSeries([2, 0, 0])
    return [
        (lambda: QuadInput(7, 5, 3, 11, 13, tail=(1, 2))),
        (lambda: classify_quadratic(QuadInput(7, 2, 1, 3, 51), terms=4)),
        (lambda: is_square_zp(98, 7)),
        (lambda: classify_general(TruncSeries([12, 1, 1]))),  # a verdict holding a factor pair
        (lambda: classify_general(TruncSeries([8]))),  # a verdict with an assumption, conditional
        (lambda: verify_factorization(f, a, b)),
    ]


@pytest.mark.parametrize("build", _instances())
def test_fields_cannot_be_assigned(build):
    obj = build()
    for name in obj._fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
    with pytest.raises(AttributeError):
        obj.undeclared = 0


@pytest.mark.parametrize("build", _instances())
def test_equal_fields_give_equal_objects_and_hashes(build):
    one, two = build(), build()
    assert one is not two
    assert one == two and hash(one) == hash(two)
    changed = one._replace(**{one._fields[0]: None})
    assert type(changed) is type(one) and changed != one


def test_converted_types():
    for cls in (QuadInput, Verdict, SquareClass, VerificationReport):
        assert issubclass(cls, tuple)


def test_repr_is_unchanged():
    # recorded from the frozen-dataclass versions of these types
    q = QuadInput(7, 5, 3, 11, 13)
    assert repr(q) == "QuadInput(p=7, n=5, m=3, beta=11, alpha=13, tail=())"
    assert repr(discriminant_square_class(q)) == (
        "SquareClass(is_square=False, is_zero=False, valuation=5, unit_residue=4)"
    )
    assert repr(classify_quadratic(q, attach_factors=False)) == (
        "Verdict(kind=<VerdictKind.IRREDUCIBLE: 'irreducible'>, rule='S3.2m-gt-n-odd', "
        "zp_reducible=False, certificate=SquareClass(is_square=False, is_zero=False, "
        "valuation=5, unit_residue=4), factors=None, verified_order=None, assumption=None, "
        "conditional_on_truncation=False)"
    )


def test_trunc_series_is_a_frozen_value():
    # recorded from the frozen-dataclass TruncSeries
    s = TruncSeries([4, 2, 1])
    assert s == TruncSeries((4, 2, 1)) and hash(s) == hash(((4, 2, 1),))
    assert s != ((4, 2, 1),) and s != TruncSeries([4, 2])
    assert repr(s) == "TruncSeries(coeffs=(4, 2, 1))"
    with pytest.raises(AttributeError):
        s.coeffs = (1,)
    with pytest.raises(AttributeError):
        s.undeclared = 0
    copy = pickle.loads(pickle.dumps(s))
    assert copy == s and copy.coeffs == (4, 2, 1) and copy.order == 2


def test_verdict_defaults_and_citation():
    v = Verdict(VerdictKind.UNIT, "S2.unit")
    assert v.factors is None and v.assumption is None and v.conditional_on_truncation is False
    assert v.citation.startswith("constant term is +1/-1")


#: (args, kwargs, message) recorded from the frozen-dataclass QuadInput;
#: the later rows fail several checks and the first in order names them
CONSTRUCTION_ERRORS = [
    ((2**521 - 1, 2, 1, 1, 1), {}, "p has 521 bits, beyond the limit of 512"),
    ((6, 2, 1, 1, 1), {}, "input outside theorem hypotheses: p = 6 is not prime"),
    ((5, 0, 1, 1, 1), {}, "input outside theorem hypotheses: need n >= 1"),
    ((5, 2, None, 1, 1), {}, "beta and m must be given together (or both absent for beta = 0)"),
    ((5, 2, 1, None, 1), {}, "beta and m must be given together (or both absent for beta = 0)"),
    (
        (5, 2, 0, 1, 1),
        {},
        "input outside theorem hypotheses: m = 0 is not covered; "
        "use classify_general for series p^n + beta*x + ...",
    ),
    ((5, 2, 1, 5, 1), {}, "input outside theorem hypotheses: gcd(p, beta) must be 1"),
    ((5, 2, 1, 1, 10), {}, "input outside theorem hypotheses: gcd(p, alpha) must be 1"),
    ((6, 0, 0, 6, 6), {}, "input outside theorem hypotheses: p = 6 is not prime"),
    ((5, 0, 0, 5, 5), {}, "input outside theorem hypotheses: need n >= 1"),
    ((5, 2, None, 1, 10), {}, "beta and m must be given together (or both absent for beta = 0)"),
    ((5, 2, -1, 0, 10), {}, "input outside theorem hypotheses: gcd(p, alpha) must be 1"),
]


@pytest.mark.parametrize("args, kwargs, message", CONSTRUCTION_ERRORS)
def test_quad_input_errors_keep_their_messages(args, kwargs, message):
    with pytest.raises(ValueError) as info:
        QuadInput(*args, **kwargs)
    assert str(info.value) == message


def test_quad_input_keywords_and_normal_form():
    q = QuadInput(p=7, n=2, m=1, beta=3, alpha=51, tail=[0, 49])
    assert q == QuadInput(7, 2, 1, 3, 51, (0, 49)) and q.tail == (0, 49)
    assert QuadInput(5, 2, 1, 0, 2) == QuadInput(p=5, n=2, m=None, beta=None, alpha=2)
    assert q.head_series(5).coeffs == (49, 21, 51, 0, 49, 0)


def test_quad_input_refuses_a_non_integer_tail():
    # every field is an integer: a float is not truncated
    for args, tail in (
        ((3, 2, 1, 1, 1), [2.7]),
        ((7, 2.0, 1, 3, 51), ()),
        ((7, 2, 1.0, 3, 51), ()),
        ((7.0, 2, 1, 3, 51), ()),
    ):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            QuadInput(*args, tail=tail)


def test_quad_input_refuses_a_string_tail():
    # a decimal string is not parsed, whether or not it reads as an integer
    for args, tail in (((3, 2, 1, 1, 1), ["49"]), ((6, 2, 1, 1, 1), ("x",))):
        with pytest.raises(TypeError, match="'str' object cannot be interpreted as an integer"):
            QuadInput(*args, tail=tail)


def test_classify_general_proves_p_once(monkeypatch):
    # the constant-term search splits p^2 above PROVEN_PRIME_BOUND by its
    # close pass and tests p alone (p^2 is tested below it, see
    # test_classify_general_tests_a_square_below_the_bound_then_its_root);
    # the head and the zero-tail fallback rebuild their QuadInput without
    # a second proof
    calls = spy(monkeypatch, "is_prime", zxfactor.padics, zxfactor.classify)
    verdict = classify_general(TruncSeries((P * P, 0, 2, 0)))
    assert verdict.rule == "S3.beta0-irreducible" and verdict.conditional_on_truncation
    assert calls == [(P,)]


def test_classify_general_tests_a_square_below_the_bound_then_its_root(monkeypatch):
    # below PROVEN_PRIME_BOUND the search tests q^2, then its root q
    q = 10**9 + 7
    assert q * q < zxfactor.padics.PROVEN_PRIME_BOUND
    calls = spy(monkeypatch, "is_prime", zxfactor.padics, zxfactor.classify)
    verdict = classify_general(TruncSeries((q * q, 0, 2, 0)))
    assert verdict.rule == "S3.beta0-irreducible" and verdict.conditional_on_truncation
    assert calls == [(q * q,), (q,)]
