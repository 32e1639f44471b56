"""The ``--batch`` line scanner against argparse, its reference: any token
list either scans to the Namespace that ``_input_parser().parse_args``
gives, or is refused by both."""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from zxfactor.cli import _INPUT_FLAGS, _input_parser, _scan  # noqa: E402

PARSER = _input_parser()
PREFIXES = sorted({flag[:end] for flag, _ in _INPUT_FLAGS for end in range(1, len(flag) + 1)})
WORDS = st.text(alphabet="-=.,09ab \t", max_size=6)
TOKENS = st.one_of(
    st.sampled_from(PREFIXES),
    st.builds("{}={}".format, st.sampled_from(PREFIXES), WORDS),
    # negative and malformed values, an empty token, stray tokens and --
    st.sampled_from(["-3", "-.5", "-1.", "-3,4", "-1e3", "-x", "7", "", "-", "--", "a b", "--b x", "---p"]),
    WORDS,
)


def _argparse(tokens):
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            args = PARSER.parse_args(tokens)
    except SystemExit:
        return None
    # argparse drops the -- of --p=-- and stores [], which no input reads
    return None if [] in vars(args).values() else args


def _scanned(tokens):
    try:
        return _scan(tokens)
    except ValueError:
        return None


@settings(max_examples=500, deadline=None)
@given(st.lists(TOKENS, max_size=8))
def test_scan_matches_argparse(tokens):
    assert _scanned(tokens) == _argparse(tokens)


@pytest.mark.parametrize(
    "tokens",
    [
        ["--p=--"],  # argparse stores []
        ["--p=--", "--p", "7"],  # and a later value replaces it
        ["--alpha", "-3"],
        ["--alpha", "--p=3 4"],  # a flag with a space is still a flag
        ["--alpha", "--b=3 4"],  # and an ambiguous one is refused
        ["--alpha", "--=3 4"],  # -- is a prefix of all eight
        ["--alpha", "--b x"],  # no flag's prefix: a value
    ],
)
def test_scan_matches_argparse_at_the_edges(tokens):
    assert _scanned(tokens) == _argparse(tokens)
