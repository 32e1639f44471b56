"""Command-line interface: classify, factor, square, roots, normalize, verify.

All integers cross the boundary as decimal strings.  Exit codes are a
stable contract: 0 decided, 1 irreducible-or-unknown on a factor request
(or a failed verification), 2 bad input, 3 undecided classification.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys

from .classify import (
    QuadInput,
    Verdict,
    VerdictKind,
    classify_general,
    classify_quadratic,
    discriminant,
    discriminant_square_class,
)
from .oracle import verify_factorization
from .padics import is_square_zp, lift_roots_mod_pk
from .series import TruncSeries, from_decimal_strings, normalize_head, to_decimal_strings

EXIT_OK = 0
EXIT_NOT_REDUCIBLE = 1
EXIT_BAD_INPUT = 2
EXIT_UNKNOWN = 3


def _parse_int(s: str) -> int:
    return int(s, 10)


def _parse_tail(s: str | None) -> tuple[int, ...]:
    if not s:
        return ()
    return tuple(_parse_int(part) for part in s.split(","))


def _quad_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p")
    sub.add_argument("--n")
    sub.add_argument("--m")
    sub.add_argument("--beta")
    sub.add_argument("--beta-zero", action="store_true")
    sub.add_argument("--alpha")
    sub.add_argument("--tail", help="comma-separated c_3,c_4,...")
    sub.add_argument("--terms", default="64")
    sub.add_argument("--format", choices=("text", "json"), default="text")


def _build_input(args) -> tuple[QuadInput, int]:
    if args.p is None or args.n is None or args.alpha is None:
        raise ValueError("need --p, --n and --alpha")
    terms = _parse_int(args.terms)
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
    return q, max(terms, 2 + len(q.tail))


def _classify(q: QuadInput, terms: int) -> Verdict:
    if q.tail:
        return classify_general(q.head_series(terms))
    return classify_quadratic(q, terms=terms)


def _verdict_json(q: QuadInput, terms: int, verdict: Verdict) -> dict:
    sq = discriminant_square_class(q)
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
        report = verify_factorization(q.head_series(verdict.verified_order), a, b)
        zero_through = verdict.verified_order if report.passed else -1
        out["verification"] = {"residuals_zero_through": zero_through}
    return out


def _print_verdict_text(q: QuadInput, verdict: Verdict) -> None:
    zp_word = "reducible" if discriminant_square_class(q).is_square else "irreducible"
    lines = [
        f"{verdict.kind.value} (rule {verdict.rule})",
        f"citation: {verdict.citation}",
        f"Z_p[x] verdict: {zp_word} (discriminant {discriminant(q)})",
    ]
    if verdict.assumption:
        lines.append(f"assumption: {verdict.assumption}")
    if verdict.factors is not None:
        a, b = verdict.factors
        lines.append(f"a = [{', '.join(to_decimal_strings(a))}]")
        lines.append(f"b = [{', '.join(to_decimal_strings(b))}]")
        lines.append(f"verified through order {verdict.verified_order}")
    # a line that cannot be built must not leave the others half printed
    print("\n".join(lines))


def cmd_classify(args) -> int:
    if args.batch:
        return _run_batch(args.batch)
    q, terms = _build_input(args)
    verdict = _classify(q, terms)
    if args.format == "json":
        print(json.dumps(_verdict_json(q, terms, verdict)))
    else:
        _print_verdict_text(q, verdict)
    return EXIT_UNKNOWN if verdict.kind is VerdictKind.UNKNOWN else EXIT_OK


def _run_batch(path: str) -> int:
    parser = _build_parser()
    worst = EXIT_OK
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                parsed = parser.parse_args(["classify", "--format", "json", *shlex.split(line)])
            except SystemExit:
                raise ValueError(f"bad batch line: {line}") from None
            rc = parsed.func(parsed)
            worst = max(worst, rc)
    return worst


def cmd_factor(args) -> int:
    q, terms = _build_input(args)
    verdict = _classify(q, terms)
    if verdict.kind is not VerdictKind.REDUCIBLE or verdict.factors is None:
        if args.format == "json":
            print(json.dumps(_verdict_json(q, terms, verdict)))
        else:
            print(verdict.kind.value)
        return EXIT_NOT_REDUCIBLE
    if args.format == "json":
        print(json.dumps(_verdict_json(q, terms, verdict)))
    else:
        _print_verdict_text(q, verdict)
    return EXIT_OK


def cmd_square(args) -> int:
    d, p = _parse_int(args.d), _parse_int(args.p)
    sq = is_square_zp(d, p)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "d": str(d),
                    "p": str(p),
                    "square": sq.is_square,
                    "zero": sq.is_zero,
                    "valuation": sq.valuation,
                    "unit_residue": None if sq.unit_residue is None else str(sq.unit_residue),
                }
            )
        )
        return EXIT_OK
    word = "yes" if sq.is_square else "no"
    if sq.is_zero:
        print(f"square in Z_{p}: yes (zero)")
    else:
        base = 8 if p == 2 else p
        print(
            f"square in Z_{p}: {word} (valuation {sq.valuation}, unit residue "
            f"{sq.unit_residue} mod {base})"
        )
    return EXIT_OK


def cmd_roots(args) -> int:
    roots = lift_roots_mod_pk(
        _parse_int(args.A), _parse_int(args.B), _parse_int(args.C),
        _parse_int(args.p), _parse_int(args.k),
    )
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zxfactor",
        description="Reducibility of quadratic-headed power series over Z, with witnesses",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    c = subs.add_parser("classify", help="decide reducibility in Z[[x]]")
    _quad_args(c)
    c.add_argument("--batch", help="file with one classify invocation per line")
    c.set_defaults(func=cmd_classify)

    fac = subs.add_parser("factor", help="emit a verified factor pair")
    _quad_args(fac)
    fac.set_defaults(func=cmd_factor)

    sq = subs.add_parser("square", help="classify an integer as a square in Z_p")
    sq.add_argument("--d", required=True)
    sq.add_argument("--p", required=True)
    sq.add_argument("--format", choices=("text", "json"), default="text")
    sq.set_defaults(func=cmd_square)

    rt = subs.add_parser("roots", help="roots of A y^2 + B y + C mod p^k")
    for flag in ("--A", "--B", "--C", "--p", "--k"):
        rt.add_argument(flag, required=True)
    rt.add_argument("--format", choices=("text", "json"), default="text")
    rt.set_defaults(func=cmd_roots)

    nm = subs.add_parser("normalize", help="zero coefficients 2..t of an associate")
    nm.add_argument("--p", required=True)
    nm.add_argument("--coeffs", required=True, help="comma-separated a_0,a_1,...")
    nm.add_argument("--t", required=True)
    nm.add_argument("--format", choices=("text", "json"), default="text")
    nm.set_defaults(func=cmd_normalize)

    vf = subs.add_parser("verify", help="check a factor pair against a target series")
    vf.add_argument("--target", required=True, help="JSON array of decimal strings")
    vf.add_argument("--a", required=True)
    vf.add_argument("--b", required=True)
    vf.add_argument("--format", choices=("text", "json"), default="text")
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
        code = args.func(args)
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
