"""Command-line interface: classify, factor, square, roots, normalize, verify.

All integers cross the boundary as decimal strings.  Exit codes are a
stable contract: 0 decided, 1 irreducible-or-unknown on a factor request
(or a failed verification), 2 bad input, 3 undecided classification.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import shlex
import sys

from .classify import (
    QuadInput,
    Verdict,
    VerdictKind,
    _classify_block,
    classify_quadratic,
    discriminant,
    discriminant_square_class,
)
from .limits import require_series
from .oracle import verify_factorization
from .padics import is_square_zp, root_classes
from .series import TruncSeries, from_decimal_strings, normalize_head, to_decimal_strings

EXIT_OK = 0
EXIT_NOT_REDUCIBLE = 1
EXIT_BAD_INPUT = 2
EXIT_UNKNOWN = 3

MAX_LISTED_ROOTS = 10**6


def _parse_int(s: str) -> int:
    return int(s, 10)


def _parse_tail(s: str | None) -> tuple[int, ...]:
    if not s:
        return ()
    return tuple(_parse_int(part) for part in s.split(","))


#: The eight input flags of ``classify`` and ``factor``, all that a
#: ``--batch`` line may hold, with their help; ``--beta-zero`` alone takes
#: no value.
_INPUT_FLAGS = (
    ("--p", None),
    ("--n", None),
    ("--m", None),
    ("--beta", None),
    ("--alpha", None),
    ("--beta-zero", None),
    ("--tail", "comma-separated c_3,c_4,..."),
    ("--terms", "the order of the series (default 64)"),
)
_SWITCH = "--beta-zero"


def _input_parser() -> argparse.ArgumentParser:
    """The eight input flags, as argparse reads them on the command line."""
    inputs = argparse.ArgumentParser(prog="batch line", add_help=False)
    for flag, text in _INPUT_FLAGS:
        inputs.add_argument(flag, help=text, action="store_true" if flag == _SWITCH else None)
    return inputs


def _refuse(message: str):
    raise ValueError(message)


@functools.cache  # on the first batch line that needs it: full-name lines never do
def _line_parser() -> argparse.ArgumentParser:
    """:func:`_input_parser`, refusing a line with ValueError(argparse's reason)."""
    inputs = _input_parser()
    inputs.error = _refuse
    return inputs


_VALUED = {flag for flag, _ in _INPUT_FLAGS} - {_SWITCH}
_UNSET = {flag[2:].replace("-", "_"): False if flag == _SWITCH else None for flag, _ in _INPUT_FLAGS}
_QUOTING = re.compile(r"[\\'\"]").search
_WORDS = re.compile(r"[^ \t\r\n]+").findall  # shlex.split's words when nothing is quoted


def _tokens(line: str) -> list[str]:
    return shlex.split(line) if _QUOTING(line) else _WORDS(line)


def _require_values(args: argparse.Namespace) -> argparse.Namespace:
    """args, unless a flag was given as --flag=--: argparse drops the -- and
    stores [], which no command reads."""
    empty = next((name for name, value in vars(args).items() if value == []), None)
    if empty is not None:
        raise ValueError(f"--{empty} needs a value")
    return args


def _scan(tokens: list[str]) -> argparse.Namespace:
    """``_input_parser().parse_args(tokens)``; ValueError where argparse
    refuses the tokens.  A line of full flag names, each with ``=value``
    or a next word that argparse always takes as a value (one that does not
    start with ``-``, or a negative integer), is read here; argparse reads
    every other line."""
    args, rest = dict(_UNSET), iter(tokens)
    for token in rest:
        if token == _SWITCH:
            args["beta_zero"] = True
            continue
        flag, eq, value = token.partition("=")
        if not eq:
            value = next(rest, "-")  # no next word: "-" hands the line to argparse, which says so
        if flag not in _VALUED or value == "--" or not eq and value[:1] == "-" and not value[1:].isdecimal():
            return _require_values(_line_parser().parse_args(tokens))
        args[flag[2:]] = value
    return argparse.Namespace(**args)


def _build_input(args) -> tuple[QuadInput, int]:
    if args.p is None or args.n is None or args.alpha is None:
        raise ValueError("need --p, --n and --alpha")
    terms = 64 if args.terms is None else _parse_int(args.terms)
    if terms < 2:
        raise ValueError("--terms must be at least 2")
    if args.beta_zero:
        if args.beta is not None or args.m is not None:
            raise ValueError("--beta-zero excludes --beta and --m")
        m = beta = None
    else:
        if args.beta is None or args.m is None:
            raise ValueError("need --beta and --m, or --beta-zero")
        m, beta = _parse_int(args.m), _parse_int(args.beta)
    q = QuadInput(
        p=_parse_int(args.p),
        n=_parse_int(args.n),
        m=m,
        beta=beta,
        alpha=_parse_int(args.alpha),
        tail=_parse_tail(args.tail),
    )
    terms = max(terms, 2 + len(q.tail))
    # every output prints the discriminant, so p^n is always built
    require_series(q.p, q.n, q.m, terms)
    return q, terms


def _classify(q: QuadInput, terms: int) -> Verdict:
    if q.tail:
        # classify_general on the series, less the constant-term search:
        # building q has proven p already
        return _classify_block(q.head_series(terms), q.p, q.n)
    return classify_quadratic(q, terms=terms)


def _verdict_json(q: QuadInput, verdict: Verdict) -> dict:
    # a decided quadratic row carries its square class; S2.prime carries none
    sq = verdict.certificate or discriminant_square_class(q)
    out: dict = {
        "input": {
            "p": str(q.p),
            "n": str(q.n),
            "m": None if q.m is None else str(q.m),
            "beta": None if q.beta is None else str(q.beta),
            "alpha": str(q.alpha),
            "tail": [str(c) for c in q.tail],
        },
        "zp": {
            "discriminant": str(discriminant(q)),
            "square": sq.is_square,
            "valuation": sq.valuation,
            "unit_residue": None if sq.unit_residue is None else str(sq.unit_residue),
        },
        "verdict": {
            "kind": verdict.kind.value,
            "rule": verdict.rule,
            "citation": verdict.citation,
        },
    }
    if verdict.assumption is not None:
        out["verdict"]["assumption"] = verdict.assumption
    if verdict.conditional_on_truncation:
        out["verdict"]["conditional_on_truncation"] = True
    if verdict.factors is not None:
        a, b = verdict.factors
        out["factors"] = {
            "a": to_decimal_strings(a),
            "b": to_decimal_strings(b),
            "order": verdict.verified_order,
        }
        # the engine that built the pair has checked it through this order
        out["verification"] = {"residuals_zero_through": verdict.verified_order}
    return out


def _print_verdict_text(doc: dict) -> None:
    """The text answer, rendered from the JSON document of :func:`_verdict_json`."""
    verdict, zp = doc["verdict"], doc["zp"]
    zp_word = "reducible" if zp["square"] else "irreducible"
    lines = [
        f"{verdict['kind']} (rule {verdict['rule']})",
        f"citation: {verdict['citation']}",
        f"Z_p[x] verdict: {zp_word} (discriminant {zp['discriminant']})",
    ]
    if verdict.get("assumption"):
        lines.append(f"assumption: {verdict['assumption']}")
    if "factors" in doc:
        factors = doc["factors"]
        lines.append(f"a = [{', '.join(factors['a'])}]")
        lines.append(f"b = [{', '.join(factors['b'])}]")
        lines.append(f"verified through order {factors['order']}")
    # a line that cannot be built must not leave the others half printed
    print("\n".join(lines))


def _answer(args, fmt: str | None) -> int:
    q, terms = _build_input(args)
    verdict = _classify(q, terms)
    doc = _verdict_json(q, verdict)
    if fmt == "json":
        print(json.dumps(doc))
    else:
        _print_verdict_text(doc)
    return EXIT_UNKNOWN if verdict.kind is VerdictKind.UNKNOWN else EXIT_OK


def cmd_classify(args) -> int:
    if args.batch:
        # every other flag defaults to None (False for --beta-zero), so a
        # value here is a flag on the command line
        given = [
            k for k, v in vars(args).items() if v not in (None, False) and k not in ("command", "func", "batch")
        ]
        if given:
            flags = ", ".join("--" + k.replace("_", "-") for k in given)
            raise ValueError(f"--batch takes no other flag, got {flags}")
        return _run_batch(args.batch)
    return _answer(args, args.format)


def _run_batch(path: str) -> int:
    """Answer each line of the file as one input, in JSON; the worst exit code."""
    worst = EXIT_OK
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                worst = max(worst, _answer(_scan(_tokens(line)), "json"))
            except ValueError as exc:  # the line does not scan, or its value is refused
                raise ValueError(f"bad batch line: {line}: {exc}") from None
    return worst


def cmd_factor(args) -> int:
    q, terms = _build_input(args)
    verdict = _classify(q, terms)
    reducible = verdict.kind is VerdictKind.REDUCIBLE and verdict.factors is not None
    if args.format == "json":
        print(json.dumps(_verdict_json(q, verdict)))
    elif reducible:
        _print_verdict_text(_verdict_json(q, verdict))
    else:
        print(verdict.kind.value)
    return EXIT_OK if reducible else EXIT_NOT_REDUCIBLE


def cmd_square(args) -> int:
    d, p = _parse_int(args.d), _parse_int(args.p)
    sq = is_square_zp(d, p)
    residue = None if sq.unit_residue is None else str(sq.unit_residue)
    if args.format == "json":
        doc = {"d": str(d), "p": str(p), "square": sq.is_square, "zero": sq.is_zero,
               "valuation": sq.valuation, "unit_residue": residue}
        print(json.dumps(doc))
    elif sq.is_zero:
        print(f"square in Z_{p}: yes (zero)")
    else:
        word = "yes" if sq.is_square else "no"
        base = 8 if p == 2 else p
        print(f"square in Z_{p}: {word} (valuation {sq.valuation}, unit residue {residue} mod {base})")
    return EXIT_OK


def cmd_roots(args) -> int:
    A, B, C, p, k = (_parse_int(x) for x in (args.A, args.B, args.C, args.p, args.k))
    classes = root_classes(A, B, C, p, k)
    # a class (r, j) holds p^(k-j) roots: count them before listing any
    count = sum(p ** (k - j) for _, j in classes)
    if count > MAX_LISTED_ROOTS:
        raise ValueError(
            f"{count} roots mod {p}^{k}: more than the {MAX_LISTED_ROOTS} this command lists"
        )
    roots = sorted(y for r, j in classes for y in range(r, p**k, p**j))
    if args.format == "json":
        print(json.dumps({"roots": [str(r) for r in roots]}))
    else:
        print(", ".join(str(r) for r in roots) if roots else "none")
    return EXIT_OK


def cmd_normalize(args) -> int:
    coeffs = [_parse_int(c) for c in args.coeffs.split(",")]
    u, q = normalize_head(TruncSeries(coeffs), _parse_int(args.p), _parse_int(args.t))
    if args.format == "json":
        print(json.dumps({"u": to_decimal_strings(u), "q": to_decimal_strings(q)}))
    else:
        print(f"u = [{', '.join(to_decimal_strings(u))}]")
        print(f"q = [{', '.join(to_decimal_strings(q))}]")
    return EXIT_OK


def _load_series(path: str) -> TruncSeries:
    with open(path, encoding="utf-8") as handle:
        return from_decimal_strings(json.load(handle))


def cmd_verify(args) -> int:
    target = _load_series(args.target)
    a = _load_series(args.a)
    b = _load_series(args.b)
    report = verify_factorization(target, a, b)
    payload = {
        "residuals": [str(r) for r in report.residuals],
        "a0_proper": report.a0_proper,
        "b0_proper": report.b0_proper,
        "passed": report.passed,
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print("pass" if report.passed else "fail")
        if not report.passed:
            bad = [k for k, r in enumerate(report.residuals) if r]
            if bad:
                print(f"nonzero residuals at orders {bad}")
            if not (report.a0_proper and report.b0_proper):
                print("a factor has a unit constant term")
    return EXIT_OK if report.passed else EXIT_NOT_REDUCIBLE


@functools.cache  # once per process: a build costs about four warm classify answers
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zxfactor",
        description="Reducibility of quadratic-headed power series over Z, with witnesses",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    inputs = _input_parser()
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("text", "json"), help="default text")

    c = subs.add_parser("classify", parents=[inputs, output], help="decide reducibility in Z[[x]]")
    c.add_argument("--batch", help="file of inputs, one per line of the eight input flags; answered as JSON")
    c.set_defaults(func=cmd_classify)

    fac = subs.add_parser("factor", parents=[inputs, output], help="emit a verified factor pair")
    fac.set_defaults(func=cmd_factor)

    sq = subs.add_parser("square", parents=[output], help="classify an integer as a square in Z_p")
    sq.add_argument("--d", required=True)
    sq.add_argument("--p", required=True)
    sq.set_defaults(func=cmd_square)

    rt = subs.add_parser("roots", parents=[output], help="roots of A y^2 + B y + C mod p^k")
    for flag in ("--A", "--B", "--C", "--p", "--k"):
        rt.add_argument(flag, required=True)
    rt.set_defaults(func=cmd_roots)

    nm = subs.add_parser("normalize", parents=[output], help="zero coefficients 2..t of an associate")
    nm.add_argument("--p", required=True)
    nm.add_argument("--coeffs", required=True, help="comma-separated a_0,a_1,...")
    nm.add_argument("--t", required=True)
    nm.set_defaults(func=cmd_normalize)

    vf = subs.add_parser("verify", parents=[output], help="check a factor pair against a target series")
    vf.add_argument("--target", required=True, help="JSON array of decimal strings")
    vf.add_argument("--a", required=True)
    vf.add_argument("--b", required=True)
    vf.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Integers cross the boundary as decimal strings of any length, so
    # Python's cap on int <-> str conversion is lifted while a command
    # runs and put back afterwards.
    saved_cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if saved_cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(_require_values(args))
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_BAD_INPUT
    finally:
        if saved_cap is not None:
            sys.set_int_max_str_digits(saved_cap)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
