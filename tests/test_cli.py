import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import zxfactor.classify
import zxfactor.padics
from oracles import spy
from zxfactor.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_text_golden(capsys):
    code, out = run(capsys, "classify", "--p", "2", "--n", "2", "--m", "1", "--beta", "1", "--alpha", "1")
    assert code == 0
    assert out.splitlines()[0] == "irreducible (rule S4.n-eq-2m)"

    code, out = run(capsys, "classify", "--p", "3", "--n", "3", "--m", "2", "--beta", "1", "--alpha", "1")
    assert code == 0
    assert out.splitlines()[0] == "irreducible (rule S3.2m-gt-n-odd)"


def test_classify_json_reducible(capsys):
    code, out = run(
        capsys, "classify", "--p", "7", "--n", "2", "--m", "1", "--beta", "3",
        "--alpha", "2", "--format", "json", "--terms", "64",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"]["kind"] == "reducible"
    assert doc["factors"]["order"] == 64
    assert doc["verification"]["residuals_zero_through"] == 64
    assert all(isinstance(c, str) for c in doc["factors"]["a"])


def test_classify_unknown_exit_code(capsys):
    code, out = run(
        capsys, "classify", "--p", "3", "--n", "2", "--m", "1", "--beta", "1",
        "--alpha", "-2", "--tail", "3", "--terms", "4",
    )
    assert code == 3
    assert out.startswith("unknown")


def test_classify_bad_input(capsys):
    code = main(["classify", "--p", "6", "--n", "2", "--m", "1", "--beta", "1", "--alpha", "1"])
    capsys.readouterr()
    assert code == 2
    code = main(["classify", "--p", "5", "--n", "2", "--alpha", "1"])
    capsys.readouterr()
    assert code == 2


def test_factor_beta_zero_golden(capsys):
    code, out = run(
        capsys, "factor", "--p", "5", "--n", "2", "--beta-zero", "--alpha", "1", "--terms", "3"
    )
    assert code == 0
    assert "a = [5, 2, 3, 2]" in out
    assert "b = [5, -2, -2, 0]" in out


def test_factor_p2_tail_pattern(capsys):
    code, out = run(
        capsys, "factor", "--p", "2", "--n", "2", "--m", "3", "--beta", "1",
        "--alpha", "3", "--terms", "8", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    heads = {tuple(doc["factors"]["a"][:2]), tuple(doc["factors"]["b"][:2])}
    assert heads == {("2", "1"), ("2", "3")}
    assert doc["verification"]["residuals_zero_through"] == 8


def test_factor_irreducible_exits_1(capsys):
    code, out = run(capsys, "factor", "--p", "2", "--n", "2", "--m", "1", "--beta", "1", "--alpha", "1")
    assert code == 1
    assert out.strip() == "irreducible"


def test_factor_json_irreducible_exits_1(capsys):
    code, out = run(
        capsys, "factor", "--p", "2", "--n", "2", "--m", "1", "--beta", "1",
        "--alpha", "1", "--format", "json",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"]["kind"] == "irreducible"
    assert "factors" not in doc and "verification" not in doc


def test_classify_json_does_not_verify_again(monkeypatch, capsys):
    # the engine checks the pair once; the CLI only reports that order
    def second_check(*args):
        raise AssertionError("the CLI verified a pair the engine had checked")

    monkeypatch.setattr("zxfactor.cli.verify_factorization", second_check, raising=False)
    code, out = run(
        capsys, "classify", "--p", "7", "--n", "2", "--m", "1", "--beta", "3",
        "--alpha", "51", "--format", "json", "--terms", "24",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["factors"]["order"] == 24
    assert doc["verification"]["residuals_zero_through"] == 24


def test_factor_unknown_exits_1(capsys):
    code, out = run(
        capsys, "factor", "--p", "3", "--n", "2", "--m", "1", "--beta", "1",
        "--alpha", "-2", "--tail", "3", "--terms", "4",
    )
    assert code == 1
    assert out.strip() == "unknown"


def test_square_golden(capsys):
    out = run(capsys, "square", "--d", "-20", "--p", "3")
    assert out == (0, "square in Z_3: yes (valuation 0, unit residue 1 mod 3)\n")
    out = run(capsys, "square", "--d", "-20", "--p", "2")
    assert out == (0, "square in Z_2: no (valuation 2, unit residue 3 mod 8)\n")


def test_roots_golden(capsys):
    assert run(capsys, "roots", "--A", "1", "--B", "0", "--C", "1", "--p", "5", "--k", "2") == (0, "7, 18\n")
    assert run(capsys, "roots", "--A", "1", "--B", "0", "--C", "1", "--p", "3", "--k", "1") == (0, "none\n")


def test_roots_refuses_to_list_too_many(capsys):
    # (y - 1)^2 = 5 * 101^6 has two root classes mod 101^6, each holding
    # 101^3 roots mod 101^9: counted from the classes, never listed
    C = str(1 - 5 * 101**6)
    started = time.perf_counter()
    code = main(["roots", "--A", "1", "--B", "-2", "--C", C, "--p", "101", "--k", "9"])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert str(2 * 101**3) in captured.err
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    # mod 101^5 the roots are the one class 1 + 101^3*Z: 101^2 of them, listed
    code, out = run(capsys, "roots", "--A", "1", "--B", "-2", "--C", C, "--p", "101", "--k", "5")
    assert code == 0 and out.split(", ")[:2] == ["1", str(1 + 101**3)]
    assert len(out.split(", ")) == 101**2


def test_normalize_golden(capsys):
    out = run(capsys, "normalize", "--p", "3", "--coeffs", "3,1,1", "--t", "2")
    assert out == (0, "u = [1, -1]\nq = [3, -2, 0, -1]\n")


def test_factor_verify_roundtrip(tmp_path, capsys):
    code, out = run(
        capsys, "factor", "--p", "7", "--n", "2", "--m", "1", "--beta", "3",
        "--alpha", "51", "--terms", "24", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    f = [str(7**2), str(7 * 3), "51"] + ["0"] * 22
    (tmp_path / "f.json").write_text(json.dumps(f))
    (tmp_path / "a.json").write_text(json.dumps(doc["factors"]["a"]))
    (tmp_path / "b.json").write_text(json.dumps(doc["factors"]["b"]))
    code, out = run(
        capsys, "verify",
        "--target", str(tmp_path / "f.json"),
        "--a", str(tmp_path / "a.json"),
        "--b", str(tmp_path / "b.json"),
    )
    assert code == 0 and out.strip() == "pass"


def test_verify_failure(tmp_path, capsys):
    # (2 + x)^2 = 4 + 4x + x^2 misses 4 + 2x + x^2 at order 1
    (tmp_path / "f.json").write_text(json.dumps(["4", "2", "1"]))
    (tmp_path / "g.json").write_text(json.dumps(["2", "1", "0"]))
    out = run(capsys, "verify", "--target", str(tmp_path / "f.json"), "--a", str(tmp_path / "g.json"),
              "--b", str(tmp_path / "g.json"))
    assert out == (1, "fail\nnonzero residuals at orders [1]\n")


SERIES_FILES = {"f": ["9", "6", "1"], "a": ["3", "1", "0"], "g": ["1", "2", "1"], "h": ["1", "1", "0"]}


@pytest.mark.parametrize(
    "argv, code, expected",
    [
        ("square --d -20 --p 3 --format json", 0,
         '{"d": "-20", "p": "3", "square": true, "zero": false, "valuation": 0, "unit_residue": "1"}'),
        ("square --d 0 --p 3", 0, "square in Z_3: yes (zero)"),
        ("roots --A 1 --B 0 --C 1 --p 5 --k 2 --format json", 0, '{"roots": ["7", "18"]}'),
        ("normalize --p 3 --coeffs 3,1,1 --t 2 --format json", 0,
         '{"u": ["1", "-1"], "q": ["3", "-2", "0", "-1"]}'),
        ("verify --target {f} --a {a} --b {a} --format json", 0,
         '{"residuals": ["0", "0", "0"], "a0_proper": true, "b0_proper": true, "passed": true}'),
        # (1 + x)^2 = 1 + 2x + x^2 exactly, but its factors are units
        ("verify --target {g} --a {h} --b {h}", 1, "fail\na factor has a unit constant term"),
        ("verify --target {g} --a {h} --b {h} --format json", 1,
         '{"residuals": ["0", "0", "0"], "a0_proper": false, "b0_proper": false, "passed": false}'),
    ],
)
def test_command_documents_are_pinned(tmp_path, capsys, argv, code, expected):
    paths = {}
    for name, doc in SERIES_FILES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    got, out = run(capsys, *(arg.format(**paths) for arg in argv.split()))
    assert (got, out) == (code, expected + "\n")


@pytest.mark.parametrize("factor, code", [("a", 0), ("h", 1)])
def test_verify_reads_a_series_file_with_a_byte_order_mark(tmp_path, capsys, factor, code):
    # an editor may save UTF-8 with a BOM; the answer is that of the file without it
    answers = []
    for bom in ("", "\ufeff"):
        paths = {}
        for name, doc in SERIES_FILES.items():
            paths[name] = tmp_path / f"{name}{len(bom)}.json"
            paths[name].write_text(bom + json.dumps(doc), encoding="utf-8")
        answers.append(run(capsys, "verify", "--target", str(paths["f"]),
                           "--a", str(paths[factor]), "--b", str(paths[factor])))
    assert answers[0][0] == code
    assert answers[1] == answers[0]


@pytest.mark.parametrize("doc", [[1, 2], 5, {"1": "0"}])
def test_verify_refuses_json_that_is_no_list_of_strings(tmp_path, capsys, doc):
    (tmp_path / "f.json").write_text(json.dumps(["4", "2", "1"]))
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    code = main(["verify", "--target", str(tmp_path / "f.json"),
                 "--a", str(tmp_path / "bad.json"), "--b", str(tmp_path / "f.json")])
    assert code == 2
    assert "JSON array of decimal strings" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--target", "--a", "--b"])
def test_verify_names_the_file_with_malformed_json(tmp_path, capsys, flag):
    (tmp_path / "f.json").write_text(json.dumps(SERIES_FILES["f"]))
    (tmp_path / "cut.json").write_text('["9","6",')
    paths = {name: str(tmp_path / ("cut.json" if name == flag else "f.json")) for name in ("--target", "--a", "--b")}
    assert main(["verify", *(x for item in paths.items() for x in item)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {tmp_path / 'cut.json'}: Expecting value: line 1 column 10 (char 9)\n"


def test_batch_outputs_ordered_json(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text(
        "--p 7 --n 2 --m 1 --beta 3 --alpha 2 --terms 8\n"
        "# a comment line\n"
        "--p 2 --n 2 --m 1 --beta 1 --alpha 1\n"
    )
    code, out = run(capsys, "classify", "--batch", str(batch))
    lines = [json.loads(line) for line in out.splitlines()]
    assert [doc["verdict"]["kind"] for doc in lines] == ["reducible", "irreducible"]
    assert code == 0


def test_batch_file_with_a_byte_order_mark_is_answered_alike(tmp_path, capsys):
    # the BOM is no part of the first line's first flag
    text = "--p 7 --n 2 --m 1 --beta 3 --alpha 2 --terms 8\n--p 2 --n 2 --m 1 --beta 1 --alpha 1\n"
    answers = []
    for bom in ("", "\ufeff"):
        batch = tmp_path / f"batch{len(bom)}.txt"
        batch.write_text(bom + text, encoding="utf-8")
        answers.append(run(capsys, "classify", "--batch", str(batch)))
    assert answers[0][0] == 0 and len(answers[0][1].splitlines()) == 2
    assert answers[1] == answers[0]


VALID_LINE = "--p 7 --n 2 --m 1 --beta 3 --alpha 2 --terms 8"


@pytest.mark.parametrize(
    "lines, answered",
    [
        (["--batch {batch}"], 0),  # a batch line is an input, not a command
        ([VALID_LINE, "--format text"], 1),
        (["--help"], 0),
        (['--p "7 --n 2 --m 1 --beta 3 --alpha 2'], 0),  # no closing quotation
    ],
)
def test_batch_line_takes_only_input_flags(tmp_path, capsys, lines, answered):
    batch = tmp_path / "batch.txt"
    batch.write_text("".join(line.format(batch=batch) + "\n" for line in lines))
    code = main(["classify", "--batch", str(batch)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"bad batch line: {lines[-1].format(batch=batch)}" in captured.err
    assert len(captured.out.splitlines()) == answered
    if answered:
        assert json.loads(captured.out)["input"]["p"] == "7"


@pytest.mark.parametrize(
    "flags",
    [
        ("--format", "text", "--p", "7", "--n", "3"),
        ("--format", "json"),
        ("--terms", "64"),  # the default value, given
        ("--beta-zero",),
        ("--tail=",),
    ],
)
def test_batch_takes_no_other_flag(tmp_path, capsys, flags):
    batch = tmp_path / "batch.txt"
    batch.write_text(VALID_LINE + "\n")
    code = main(["classify", "--batch", str(batch), *flags])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--batch takes no other flag" in captured.err
    assert all(flag.rstrip("=") in captured.err for flag in flags if flag.startswith("--"))


@pytest.mark.parametrize(
    "line, code, alpha",
    [
        ('--p "7" --n 2 --m 1 --beta 3 --alpha 2 --terms 8', 0, "2"),  # quoted
        ("--p 7 --n 2 --m 1 --beta 3 --alp 2 --te=8", 0, "2"),  # unique prefixes
        ("--p 5 --n 2 --beta-z --alpha 1 --terms 3", 0, "1"),
        ("--p=7 --n=2 --m=1 --beta=3 --alpha=2 --terms=8", 0, "2"),
        ("--p 7 --n 2 --m 1 --beta -3 --alpha=-2 --terms 8", 0, "-2"),
        ("--p 3 --n 2 --m 1 --beta 1 --alpha -2 --tail=-3,4 --terms 4", 3, "-2"),
        ("--p 7 --n 2 --m 1 --beta 3 --alpha 5 --alpha 2 --terms 8", 0, "2"),  # the last wins
        ("--p 3 --n 2 --m 1 --beta 1 --alpha -2 --tail -3,4 --terms 4", 2, None),  # -3,4 is no number
        ("--p 5 --n 2 --beta-zero=1 --alpha 1", 2, None),
        ("--p 7 --n 2 --m 1 --b 3 --alpha 2", 2, None),  # --beta or --beta-zero
        ("--p 7 --n 2 --m 1 --beta 3 --alpha 2 --t 8", 2, None),  # --tail or --terms
        ("--p 7 --n 2 --m 1 --beta 3 --alpha 2 8", 2, None),  # a stray token
        ("--p 7 --n 2 --m 1 --beta 3 --alpha 2 --terms 8 --", 2, None),
    ],
)
def test_batch_line_grammar(tmp_path, capsys, line, code, alpha):
    batch = tmp_path / "batch.txt"
    batch.write_text(f"{VALID_LINE}\n{line}\n")
    assert main(["classify", "--batch", str(batch)]) == code
    captured = capsys.readouterr()
    answers = captured.out.splitlines()
    if alpha is None:
        assert len(answers) == 1
        assert f"bad batch line: {line}" in captured.err
    else:
        assert len(answers) == 2
        assert json.loads(answers[1])["input"]["alpha"] == alpha


@pytest.mark.parametrize(
    "line, reason",
    [
        ("--p 4 --n 2 --m 1 --beta 1 --alpha 3", "input outside theorem hypotheses: p = 4 is not prime"),
        ("--p 7 --n 2 --m 1 --beta 3 --alpha 2 --terms 5000", "order 5000 is beyond the limit of 4096 terms"),
        ("--p 7 --n 2 --m 1 --alpha 2", "need --beta and --m, or --beta-zero"),
    ],
)
def test_batch_names_the_line_of_a_refused_value(tmp_path, capsys, line, reason):
    # a line that scans but whose values are refused names itself and the
    # reason, after the lines before it have been answered
    batch = tmp_path / "batch.txt"
    batch.write_text(f"{VALID_LINE}\n{line}\n{VALID_LINE}\n")
    assert main(["classify", "--batch", str(batch)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: bad batch line: {line}: {reason}\n"
    assert len(captured.out.splitlines()) == 1


@pytest.mark.parametrize(
    "line, reason",
    [
        ("--p 7 --n 2 --m 1 --b 3 --alpha 2", "ambiguous option: --b could match --beta, --beta-zero"),
        ("--p 7 --n 2 --m 1 --beta 3 --alpha 2 8", "unrecognized arguments: 8"),
        ("--p 5 --n 2 --beta-zero=1 --alpha 1", "argument --beta-zero: ignored explicit argument '1'"),
        ("--p 3 --n 2 --m 1 --beta 1 --alpha -2 --tail -3,4", "argument --tail: expected one argument"),
        ("--p=-- --n 2 --m 1 --beta 3 --alpha 2", "--p needs a value"),
    ],
)
def test_refused_batch_line_gives_the_command_line_reason(tmp_path, capsys, line, reason):
    # argparse reads a line it refuses, so the batch names the line with
    # the words the same flags get on the command line (`factor`, whose
    # flags are the batch line's and --format: no --batch to match --b)
    batch = tmp_path / "batch.txt"
    batch.write_text(f"{VALID_LINE}\n{line}\n")
    assert main(["classify", "--batch", str(batch)]) == 2
    assert capsys.readouterr().err == f"error: bad batch line: {line}: {reason}\n"
    try:
        code = main(["factor", *line.split()])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().err.endswith(f"error: {reason}\n")


def test_only_lines_beyond_full_names_reach_argparse(tmp_path, capsys, monkeypatch):
    from zxfactor import cli

    reached, parser = [], cli._line_parser()

    class Spy:
        def parse_args(self, tokens):
            reached.append(" ".join(tokens))
            return parser.parse_args(tokens)

    monkeypatch.setattr(cli, "_line_parser", Spy)
    lines = {
        "--p 7 --n 2 --m 1 --beta 3 --alp 2 --te=8": 0,  # prefixes
        "--p=-- --n 2 --m 1 --beta 3 --alpha 2": 2,  # argparse stores [] for --p
        "--p 3 --n 2 --m 1 --beta 1 --alpha -2 --tail=-3,4 --terms 4": 3,  # full names
    }
    for line, code in lines.items():
        batch = tmp_path / "batch.txt"
        batch.write_text(line + "\n")
        assert main(["classify", "--batch", str(batch)]) == code
    capsys.readouterr()
    assert reached == list(lines)[:2]


def test_json_output_is_deterministic(capsys):
    args = ["classify", "--p", "3", "--n", "4", "--m", "2", "--beta", "1",
            "--alpha", "-29", "--format", "json", "--terms", "32"]
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit cap")
def test_classify_integers_above_the_digit_cap(capsys):
    from zxfactor.classify import QuadInput, discriminant

    argv = ["classify", "--p", "7", "--n", "6000", "--m", "3001", "--beta", "3", "--alpha", "2"]
    cap = sys.get_int_max_str_digits()
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    delta = discriminant(QuadInput(7, 6000, 3001, 3, 2))
    assert delta.bit_length() > 4300 * 3.33  # more than 4300 decimal digits
    sys.set_int_max_str_digits(0)
    try:
        assert int(json.loads(out)["zp"]["discriminant"]) == delta
    finally:
        sys.set_int_max_str_digits(cap)
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[0] == "irreducible (rule S3.disc-nonsquare)"
    assert sys.get_int_max_str_digits() == cap


@pytest.mark.parametrize("extra", [0, 1])
def test_verify_bounds_the_order_of_a_series(tmp_path, capsys, extra):
    # a failing pair: within the limit the convolution finds every
    # residual; one order past it nothing is converted or multiplied
    from zxfactor.limits import LIMITS

    order = LIMITS.max_terms + extra
    paths = {}
    for name, head in (("f", ["7", "1"]), ("a", ["2", "1"]), ("b", ["3", "1"])):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(head + ["1"] * (order - 1)))
    started = time.perf_counter()
    code = main(["verify", "--target", str(paths["f"]), "--a", str(paths["a"]), "--b", str(paths["b"])])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    if extra:
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: order {order} is beyond the limit of {LIMITS.max_terms} terms\n"
        assert elapsed < 0.1, f"{elapsed:.3f}s"
    else:
        assert code == 1 and captured.out.startswith("fail\nnonzero residuals at orders [0, 1, 2, 3, ")


@pytest.mark.parametrize(
    "argv",
    [
        ("--p", "3", "--n", "2", "--m", "1", "--beta", "1", "--alpha", "2", "--terms", str(10**9)),
        ("--p", "3", "--n", str(10**9), "--m", "1", "--beta", "1", "--alpha", "2"),
        ("--p", "3", "--n", str(10**6), "--m", str(5 * 10**5 + 1), "--beta", "1", "--alpha", "2",
         "--format", "json"),
    ],
)
def test_classify_refuses_oversized_input_fast(capsys, argv):
    started = time.perf_counter()
    code = main(["classify", *argv])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "beyond the limit" in captured.err
    assert elapsed < 1.0, f"{elapsed:.3f}s"


HUGE = str(10**400)  # e * log2(p) overflows a float


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--p", "3", "--n", HUGE, "--m", "1", "--beta", "1", "--alpha", "1"),
        ("classify", "--p", "3", "--n", "2", "--m", HUGE, "--beta", "1", "--alpha", "1"),
        ("roots", "--A", "1", "--B", "0", "--C", "-1", "--p", "3", "--k", HUGE),
    ],
)
def test_huge_exponents_are_refused_by_the_limit(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: 3^e with e >= 2^1328 has more than 2^1328 bits, beyond the limit of 131072\n"


def test_batch_refuses_a_huge_exponent_after_answering_the_lines_before(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text(f"{VALID_LINE}\n--p 3 --n {HUGE} --m 1 --beta 1 --alpha 1\n{VALID_LINE}\n")
    code = main(["classify", "--batch", str(batch)])
    captured = capsys.readouterr()
    assert code == 2 and len(captured.out.splitlines()) == 1
    assert "beyond the limit of 131072" in captured.err


COMPOSITE_8191 = (2**4095 + 3) * (2**4095 + 9)


@pytest.mark.parametrize(
    "argv, message",
    [
        # an odd composite: refused by its size, not after a primality test
        (("square", "--d", "5", "--p", str(2**12000 + 1)), "p has 12001 bits, beyond the limit of 512"),
        (("square", "--d", "5", "--p", str(2**512 + 75)), "p has 513 bits, beyond the limit of 512"),  # a prime
        (("roots", "--A", "1", "--B", "0", "--C", "-2", "--p", "7", "--k", "100000"),
         "7^100000 has about 280735 bits, beyond the limit of 131072"),
        (("roots", "--A", "1", "--B", "0", "--C", "-2", "--p", "7", "--k", "3000000"),
         "7^3000000 has about 8422064 bits, beyond the limit of 131072"),
        # an odd composite with no prime factor up to 37
        (("normalize", "--p", str(COMPOSITE_8191), "--coeffs", f"{COMPOSITE_8191},1,1", "--t", "2"),
         "p has 8191 bits, beyond the limit of 512"),
        (("normalize", "--p", "3", "--coeffs", "3,1,1", "--t", "5000"),
         "order 5000 is beyond the limit of 4096 terms"),
    ],
)
def test_square_and_roots_refuse_oversized_input_fast(capsys, argv, message):
    started = time.perf_counter()
    code = main(list(argv))
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert elapsed < 1.0, f"{elapsed:.3f}s"


CLASSIFY_7 = ("classify", "--p", "7", "--n", "2")


@pytest.mark.parametrize(
    "argv, message",
    [
        (CLASSIFY_7, "need --p, --n and --alpha"),
        (CLASSIFY_7 + ("--m", "1", "--beta", "3", "--alpha", "2", "--terms", "1"), "--terms must be at least 2"),
        (CLASSIFY_7 + ("--beta-zero", "--beta", "3", "--alpha", "2"), "--beta-zero excludes --beta and --m"),
        (("square", "--d", "5", "--p", "9"), "p = 9 is not prime"),
        (("roots", "--A", "1", "--B", "0", "--C", "1", "--p", "9", "--k", "1"), "p = 9 is not prime"),
        (("normalize", "--p", "9", "--coeffs", "9,1,1", "--t", "2"), "p = 9 is not prime"),
        (("normalize", "--p", "3", "--coeffs", "3,1,1", "--t", "1"), "t must be at least 2"),
        (("normalize", "--p", "3", "--coeffs", "3,1", "--t", "2"),
         "normalize_head: input known only through order 1, need 2"),
        # a precision below one digit is refused
        (("roots", "--A", "1", "--B", "0", "--C", "1", "--p", "5", "--k", "0"), "K must be a positive integer"),
    ],
)
def test_malformed_requests_are_refused(capsys, argv, message):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (CLASSIFY_7 + ("--p=--", "--m", "1", "--beta", "1", "--alpha", "1"), "--p"),
        (CLASSIFY_7 + ("--m", "1", "--beta", "1", "--alpha", "2", "--tail=--"), "--tail"),  # not an empty tail
        (("factor", "--p", "7", "--n", "2", "--m", "1", "--beta", "1", "--alpha", "2", "--terms=--"), "--terms"),
        (("square", "--d=--", "--p", "7"), "--d"),
        (("roots", "--A=--", "--B", "1", "--C", "1", "--p", "7", "--k", "2"), "--A"),
        (("normalize", "--p", "3", "--coeffs=--", "--t", "2"), "--coeffs"),
        (("verify", "--target=--", "--a", "[]", "--b", "[]"), "--target"),
    ],
)
def test_flag_given_only_dashes_is_refused(capsys, argv, flag):
    # argparse drops the -- of --flag=-- and stores [] for it
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {flag} needs a value\n"


def test_square_and_roots_at_the_limits(capsys):
    # the largest 512-bit prime, and the largest k with 7^k within max_pn_bits
    code, out = run(capsys, "square", "--d", "5", "--p", str(2**512 - 569))
    assert code == 0 and out.startswith("square in Z_")
    code, out = run(capsys, "roots", "--A", "1", "--B", "0", "--C", "-3", "--p", "7", "--k", "46688")
    assert code == 0 and out.strip() == "none"  # 3 is no square mod 7
    # 2 is a square mod 7: both of its roots lift through every digit
    code, out = run(capsys, "roots", "--A", "1", "--B", "0", "--C", "-2", "--p", "7", "--k", "46688")
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if cap:
        sys.set_int_max_str_digits(0)  # each root has 39,456 digits
    try:
        roots = [int(r) for r in out.split(", ")]
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)
    assert code == 0 and len(roots) == 2
    assert all((r * r - 2) % 7**46688 == 0 for r in roots)


def test_classify_tailed_input_above_the_p_bit_limit(capsys):
    # p^n has about 531 bits, more than LIMITS.max_p_bits; p has 14
    code, out = run(capsys, "classify", "--p", "10007", "--n", "40", "--m", "20",
                    "--beta", "1", "--alpha", "2", "--tail", "5")
    assert code == 0
    assert out.splitlines()[0] == "reducible (rule S5.simple-root)"


def test_classify_tailed_input_proves_p_once(monkeypatch, capsys):
    # the QuadInput the CLI builds proves p; the tailed classification
    # does not search the constant term p^n again
    calls = spy(monkeypatch, "is_prime", zxfactor.padics, zxfactor.classify)
    code, out = run(capsys, "classify", "--p", "1000000000039", "--n", "2", "--m", "1",
                    "--beta", "3", "--alpha", "2", "--tail=5,7", "--format", "json")
    assert code == 0 and json.loads(out)["verdict"]["rule"] == "S5.simple-root"
    assert calls == [(1000000000039,)]


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["classify", "--p", "7", "--n", "2", "--m", "1", "--beta", "3", "--alpha", "51",
            "--terms", "16", "--format", "json"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run([sys.executable, "-m", "zxfactor", *argv], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0
    code, out = run(capsys, *argv)
    assert code == 0 and res.stdout == out


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # together they cost about a tenth of a one-shot CLI start
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, zxfactor.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    res = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0 and res.stdout == "[]\n"


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    from zxfactor import cli

    built = spy(monkeypatch, "_input_parser", cli)
    cli._build_parser.cache_clear()
    argv = ["classify", "--p", "7", "--n", "2", "--m", "1", "--beta", "3", "--alpha", "2", "--format", "json"]
    try:
        outs = []
        for _ in range(2):
            assert main(argv) == 0
            for bad in (["--help"], ["classify", "--help"], ["classify", "--p"], ["roots", "--A", "1"]):
                with pytest.raises(SystemExit):
                    main(bad)
            outs.append(capsys.readouterr())
    finally:
        cli._build_parser.cache_clear()
    assert len(built) == 1
    assert outs[0] == outs[1]
    # the help and error texts are those of a parser built afresh
    assert cli._build_parser.__wrapped__().format_help() in outs[0].out
    assert "error: argument --p: expected one argument" in outs[0].err
    assert "error: the following arguments are required: --B, --C, --p, --k" in outs[0].err
