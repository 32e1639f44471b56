import json
import sys

import pytest

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


def test_factor_unknown_exits_1(capsys):
    code, out = run(
        capsys, "factor", "--p", "3", "--n", "2", "--m", "1", "--beta", "1",
        "--alpha", "-2", "--tail", "3", "--terms", "4",
    )
    assert code == 1
    assert out.strip() == "unknown"


def test_square_golden(capsys):
    code, out = run(capsys, "square", "--d", "-20", "--p", "3")
    assert code == 0
    assert out.strip() == "square in Z_3: yes (valuation 0, unit residue 1 mod 3)"
    code, out = run(capsys, "square", "--d", "-20", "--p", "2")
    assert "no" in out


def test_roots_golden(capsys):
    code, out = run(capsys, "roots", "--A", "1", "--B", "0", "--C", "1", "--p", "5", "--k", "2")
    assert code == 0
    assert out.strip() == "7, 18"
    code, out = run(capsys, "roots", "--A", "1", "--B", "0", "--C", "1", "--p", "3", "--k", "1")
    assert out.strip() == "none"


def test_normalize_golden(capsys):
    code, out = run(capsys, "normalize", "--p", "3", "--coeffs", "3,1,1", "--t", "2")
    assert code == 0
    assert out.splitlines() == ["u = [1, -1]", "q = [3, -2, 0, -1]"]


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
    (tmp_path / "f.json").write_text(json.dumps(["4", "2", "1"]))
    (tmp_path / "g.json").write_text(json.dumps(["2", "1", "0"]))
    code, out = run(
        capsys, "verify",
        "--target", str(tmp_path / "f.json"),
        "--a", str(tmp_path / "g.json"),
        "--b", str(tmp_path / "g.json"),
    )
    assert code == 1 and out.splitlines()[0] == "fail"


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
