import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import prod
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from tightsf.cli import main
from tightsf.contfrac import Expansion, solid_torus_count
from tightsf.convex import (
    MAX_TWIST_ROWS, MaxTwistTable, measured_slope, rounded_slope, slope_coeffs, v3_slope, v3_slope_stepwise,
)
from tightsf.floer import MAX_N, ContactIndex
from tightsf.seifert import parse_manifold
from tightsf.selftest import check_bypass_oracle, check_closed_form
from tightsf.slopes import MAX_INPUT_DIGITS, Slope
from test_floer import laurent_text, product_image


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cf_json(capsys):
    code, out, _ = run(capsys, "cf", "-7/5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "tightsf/1"
    assert doc["exact"] is True
    result = doc["result"]
    assert result["entries"] == [-2, -2, -3]
    assert (result["p"], result["q"], result["u"], result["v"]) == (5, 7, 2, 3)
    assert result["t"] == 2
    assert result["reverse_shift"] == [-3, -2, -1]
    assert result["reverse_shift_value"] == {"num": -2, "den": 1}


def test_cf_domain_error(capsys):
    code, _, err = run(capsys, "cf", "-1/2")
    assert code == 1
    assert "error" in err


def test_parse_error_exit_code(capsys):
    # a usage error is one line, like every other error
    for argv in (["nonsense"], ["slopes", "-2;1/2,2/3,7/8"], ["bypass", "--dividing", "1/2"],
                 [], ["classify"], ["--json"], ["selftest", "--json"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert len(err.splitlines()) == 1 and err.startswith("error: "), argv
    code, out, err = run(capsys, "classify", "--help")
    assert code == 0 and out.startswith("usage: ") and err == ""


_number = st.integers(-10**4, 10**4).map(str)
_ratio = st.builds("{}/{}".format, _number, _number)
_fraction = st.one_of(
    _ratio, _number, st.sampled_from(["inf", "1/0", "0/0", "", "1//2", "--1", "x", "1.5", "+1/2"]), st.text(max_size=6),
)
_spaced = st.builds("{}{}{}".format, st.sampled_from(["", " "]), _fraction, st.sampled_from(["", " "]))
_manifold = st.one_of(
    st.builds("{};{},{},{}".format, st.integers(-4, 1), _ratio, _ratio, _ratio),
    st.builds("{},{},{}".format, _ratio, _ratio, _ratio),
    st.builds("{};{}".format, _number, st.lists(_spaced, min_size=2, max_size=4).map(",".join)),
    st.text(max_size=12),
)
# 10^5 characters: a head that reads as the start of a value, then one unit repeated
LONG_TEXT = 10**5
_long = st.builds(lambda head, unit: (head + unit * LONG_TEXT)[:LONG_TEXT],
                  st.sampled_from(["", "-", "1/", "1,", "-2;1/2,2/3,", "-2;1/2,2/3,1/"]),
                  st.sampled_from(["9", "1/2,", ",", "/", " ", "\n", "x", "\u00e9"]))
# a --diagram path: a missing file, an empty one, a directory, a file that is not JSON
_path = st.one_of(st.text(max_size=12), st.sampled_from(["", ".", os.devnull, __file__]))


def _text(values):
    """values, or 10^5 characters of text in their place."""
    return st.one_of(values, _long)


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["classify", "seifert", "slopes", "cf", "bypass", "floer", "theta", "selftest"]))
    if command in ("classify", "seifert"):
        argv = [command, draw(_text(_manifold))]
    elif command == "slopes":
        argv = [command, draw(_text(_manifold)), "--n1", draw(_text(_number))]
    elif command == "cf":
        argv = [command, draw(_text(_spaced))]
    elif command == "bypass":
        argv = [command, "--dividing", draw(_text(_spaced)), "--ruling", draw(_text(_spaced))]
        side = _text(st.sampled_from(["front", "back"])).map(lambda text: ["--side", text])
        argv += draw(st.one_of(st.just([]), side)) + draw(st.sampled_from([[], ["--oracle"]]))
    elif command == "floer":
        argv = [command, "--n", draw(_text(st.integers(-2, 30).map(str)))]
        index = st.one_of(st.builds("{},{}".format, st.integers(-2, 30), st.integers(-30, 30)), _fraction)
        argv += draw(st.one_of(st.just([]), _text(index).map(lambda text: ["--index", text])))
    elif command == "theta":
        argv = [command, "--diagram", draw(_text(_path))]
    else:
        # selftest takes no argument, so each draw is a usage error; the
        # suites themselves run in test_selftest_checks_survive_optimize
        argv = [command, draw(_text(_fraction))]
    return argv + draw(st.sampled_from([[], ["--json"]]))


@settings(max_examples=300, deadline=2000)
@given(cli_argv())
def test_cli_contract(argv):
    # exit 0, 1 or 2; an error is one `error: ` line of under 200 bytes on
    # stderr, whatever the length of the input, and nothing on stdout
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 1:
        assert out.getvalue() == "", argv
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: "), argv
        assert len(err.getvalue().encode("utf-8", "backslashreplace")) < 200, argv
    else:
        assert err.getvalue() == "", argv


def test_classify_exit_codes(capsys):
    code, out, _ = run(capsys, "classify", "-2;1/2,2/3,11/13")
    assert code == 0 and "exactly 3" in out
    code, out, _ = run(capsys, "classify", "-2;1/2,2/3,5/6")
    assert code == 0 and "infinitely many" in out
    code, out, _ = run(capsys, "classify", "-2;1/2,3/4,4/5")
    assert code == 2 and "unknown" in out
    code, _, err = run(capsys, "classify", "-2;1/2,2/3")
    assert code == 1


def test_negative_first_value_is_not_a_flag(capsys):
    # a leading -<digit> marks a value, whatever follows it
    for manifold, same in (("-2;1/2,2/3,-1/3", "-3;1/2,2/3,2/3"), ("-2;+1/2,2/3,2/3", "-2;1/2,2/3,2/3")):
        code, out, err = run(capsys, "classify", manifold)
        assert code != 1 and err == ""
        assert out == run(capsys, "classify", same)[1]


def test_classify_json_round_trip(capsys):
    code, out, _ = run(capsys, "classify", "-2;1/2,2/3,11/13", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["status"] == "exact"
    assert doc["result"]["count"] == 3
    assert doc["result"]["sum"] == {"num": 157, "den": 78}
    # canonical serialization: parse and re-dump is byte identical
    assert json.dumps(doc, indent=2) == out.strip()
    assert "e-" not in out and "." not in json.dumps(doc["result"]["sum"])


def test_bypass_cli(capsys):
    code, out, _ = run(capsys, "bypass", "--dividing", "-5/2", "--ruling", "inf",
                       "--side", "back", "--oracle", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["result"] == {"num": -2, "den": 1}
    assert doc["result"]["oracle"] == {"num": -2, "den": 1}


def test_seifert_cli(capsys):
    code, out, _ = run(capsys, "seifert", "1/2,-1/3,-2/13", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["e0"] == -2
    assert doc["result"]["family"] == "sphere_family(n=2)"
    assert doc["result"]["h1"] == 1
    matrix = doc["result"]["matrix"]
    assert matrix[0][0] == -2 and len(matrix) == len(matrix[0])


def test_seifert_cli_prints_the_k_over_k_plus_1_family(capsys):
    code, out, _ = run(capsys, "seifert", "-2;1/2,2/3,7/8")
    assert code == 0
    assert out.splitlines()[:3] == ["M(-2; 1/2, 2/3, 7/8)", "family: k_over_k_plus_1(k=7)", "|H_1| = 2"]
    code, out, _ = run(capsys, "seifert", "-2;1/2,2/3,7/8", "--json")
    assert code == 0
    assert json.loads(out)["result"]["family"] == "k_over_k_plus_1(k=7)"


def test_slopes_cli(capsys):
    code, out, _ = run(capsys, "slopes", "-2;1/2,2/3,7/8", "--n1", "-1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["coeffs"]["A"] == {"num": 1, "den": 24}
    assert doc["result"]["v3_slope"] == {"num": -1, "den": 1}
    assert "limit" not in doc["result"]  # gap region has no limit data


def test_floer_cli(capsys):
    code, out, _ = run(capsys, "floer", "--n", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["pairwise_distinct"] is True
    assert doc["result"]["obstructed_count"] == 1
    code, out, _ = run(capsys, "floer", "--n", "2", "--index", "1,0")
    assert code == 0 and "not Stein fillable" in out


def test_floer_builds_each_binomial_row_once(capsys, monkeypatch):
    # from an empty cache a table builds one signed binomial row per i, which
    # every class with that i reads for its coefficients and its Laurent text;
    # a second table reuses them, and the cap builds at most MAX_N rows
    floer = importlib.import_module("tightsf.floer")
    binomial_row = floer._binomial_row
    calls = []
    monkeypatch.setattr(floer, "_binomial_row", lambda i: calls.append(i) or binomial_row(i))
    floer._row.cache_clear()
    code, out, err = run(capsys, "floer", "--n", "12", "--json")
    assert code == 0 and err == ""
    assert len(json.loads(out)["result"]["classes"]) == 78 and sorted(calls) == list(range(12))
    code, out, err = run(capsys, "floer", "--n", "12")
    assert code == 0 and err == "" and len(calls) == 12
    code, out, err = run(capsys, "floer", "--n", str(MAX_N))
    assert code == 0 and err == "" and sorted(calls) == list(range(MAX_N))


def test_floer_laurent_matches_the_oracle(capsys):
    # the golden corpus stops at n = 10
    for n in range(1, 31):
        code, out, _ = run(capsys, "floer", "--n", str(n), "--json")
        assert code == 0
        for row in json.loads(out)["result"]["classes"]:
            assert row["laurent"] == laurent_text(product_image(ContactIndex(n, row["i"], row["j"])))


def test_floer_table_at_the_cap(capsys):
    # n = MAX_N: the largest table, text and JSON, pinned by size and digest
    # (the golden corpus stops at n = 10)
    code, out, err = run(capsys, "floer", "--n", str(MAX_N), "--json")
    assert code == 0 and err == ""
    data = out.encode()
    assert len(data) == 12_460_633
    assert hashlib.sha256(data).hexdigest()[:16] == "865d17fd795b56cd"
    code, out, err = run(capsys, "floer", "--n", str(MAX_N))
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "c6256f442d5a884c"


def test_theta_cli(tmp_path, capsys):
    diagram = tmp_path / "diagram.json"
    diagram.write_text(json.dumps({"L": [[-2]], "rot": [0]}))
    code, out, _ = run(capsys, "theta", "--diagram", str(diagram), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["theta"] == {"num": -1, "den": 1}
    assert doc["result"]["sigma"] == -1
    code, _, err = run(capsys, "theta", "--diagram", str(tmp_path / "missing.json"))
    assert code == 1


def test_selftest_cli(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert out.count("PASS") == 4 and "FAIL" not in out


def test_selftest_closed_form_accepts_the_pole():
    # seed 18 draws M(-2; 1/2, 5/7, 5/6) at n1 = -13, n2 = -4: a pole of the closed form
    sd = parse_manifold("-2;1/2,5/7,5/6")
    assert v3_slope(sd, -13, slope_coeffs(sd)).is_inf
    assert v3_slope(sd, -13, slope_coeffs(sd)) == v3_slope_stepwise(sd, -13, -4)
    assert check_closed_form(seed=18) == "200 random tuples, closed form = stepwise rounding"


def test_slopes_cli_at_the_pole(capsys):
    # the closed form's pole is the infinite slope, in text and in JSON
    code, out, err = run(capsys, "slopes", "-2;1/2,5/7,5/6", "--n1", "-13")
    assert code == 0 and err == ""
    assert "v3 slope at n1=-13: inf\n" in out
    code, out, err = run(capsys, "slopes", "-2;1/2,5/7,5/6", "--n1", "-13", "--json")
    assert code == 0 and err == ""
    assert json.loads(out)["result"]["v3_slope"] == {"num": 1, "den": 0}


def test_zero_denominator_is_one_line_error(capsys):
    code, out, err = run(capsys, "classify", "-2;1/0,1/2,1/3")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_cf_at_the_cap_is_written_from_the_runs(capsys, monkeypatch):
    # 10^6 entries -2: the leg and its reverse shift are read and written from
    # their runs, never spelled out as entries, and the 20 MB report keeps
    # its bytes
    spelled = []
    monkeypatch.setattr(Expansion, "entries", lambda self: spelled.append(self))
    code, out, err = run(capsys, "cf", "-1000001/1000000", "--json")
    assert code == 0 and err == "" and spelled == []
    assert len(out) == 20000351
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "71bedc3f6ce5188f"


def test_huge_leg_fails_fast(capsys):
    # 10^12 - 1 entries -2: classify refuses to build the expansion
    manifold = "-2;1/3,1/3,999999999999/1000000000000"
    sd = parse_manifold(manifold)
    assert sd.conv[2] == (10**12 - 1, 10**12, 10**12 - 2, 10**12 - 1)
    for argv in (("classify", manifold, "--json"), ("seifert", manifold), ("cf", "-1000000000000/999999999999")):
        start = perf_counter()
        code, out, err = run(capsys, *argv)
        assert perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_integers_past_the_interpreter_limit_print_whole(capsys):
    # legs of 1501 digits: the count and the sum's denominator have about 4500
    # digits, past the interpreter's int/str limit of 4300; text and JSON both
    # print every integer, and main leaves the interpreter's limit as it was
    n = 10**1500
    rng = random.Random(3)
    legs = ",".join(f"{rng.randrange(1, n)}/{rng.randrange(n, 10 * n)}" for _ in range(3))
    limit = sys.get_int_max_str_digits()
    # T(1/(n+1)) = n, so the first count is n (n+2) (n+6)
    for manifold, want in ((f"-2;1/{n + 1},1/{n + 3},1/{n + 7}", n * (n + 2) * (n + 6)), (f"-2;{legs}", None)):
        code, text, err = run(capsys, "classify", manifold)
        assert code == 0 and err == ""
        code, out, err = run(capsys, "classify", manifold, "--json")
        assert code == 0 and err == ""
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            result = json.loads(out)["result"]
            count = result["count"]
            assert f"exactly {count} tight contact structures" in text and len(str(result["sum"]["den"])) > limit
        finally:
            sys.set_int_max_str_digits(limit)
        assert result["certificate"]["case"] == "sum_lt_2" and count == prod(result["certificate"]["t_values"])
        assert want is None or count == want


def test_input_integer_cap_is_one_line(tmp_path, capsys):
    # an integer of more than MAX_INPUT_DIGITS characters is refused at parse,
    # in every command that reads one (options included), with tightsf's limit
    # named in one short line that does not echo the input
    for size in (MAX_INPUT_DIGITS + 1, 10**5):
        big = "9" * size
        diagram = tmp_path / "big.json"
        diagram.write_text('{"L": [[%s]], "rot": [0]}' % big)
        for argv in (("classify", f"-2;1/2,1/3,1/{big}"), ("classify", f"{big};1/2,1/3,1/5", "--json"),
                     ("seifert", f"1/2,1/3,{big}/7"), ("slopes", f"-2;1/2,1/3,{big}/7", "--n1", "-1"),
                     ("slopes", "-2;1/2,2/3,7/8", "--n1", f"-{big}"), ("floer", "--n", big),
                     ("cf", f"-{big}/7"), ("bypass", "--dividing", big, "--ruling", "1/2"),
                     ("floer", "--n", "3", "--index", f"{big},0"), ("theta", "--diagram", str(diagram))):
            start = perf_counter()
            code, out, err = run(capsys, *argv)
            assert perf_counter() - start < 1.0
            assert code == 1 and out == "" and len(err.encode()) < 200
            assert len(err.splitlines()) == 1 and err.startswith("error: an input integer of ")
            assert err.endswith(f" characters is more than the limit {MAX_INPUT_DIGITS}\n")
    # at the cap the input is read
    code, out, err = run(capsys, "classify", "-2;1/2,1/3,1/" + "9" * MAX_INPUT_DIGITS)
    assert code == 0 and err == ""


@pytest.mark.parametrize("argv", [
    ("floer", "--n", "3", "--index", "7" * 10**5),
    ("c" * 10**5,),
    ("bypass", "--dividing=-3", "--ruling=-1/2", "--side", "s" * 10**5),
    ("theta", "--diagram", "d" * 10**5),
    ("classify", "-2;1/2,2/3," + "9" * 3999 + "/0"),
    ("classify", "-2;1/2,2/3,3/4", "a\nb"),
], ids=["floer_index", "command", "bypass_side", "theta_path", "classify_zero_den", "newline_argument"])
def test_error_line_is_bounded(capsys, argv):
    # main cuts every error message, argparse's included, to one line of under
    # 200 bytes that keeps the message's start and says how long it was
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and len(err.encode()) < 200


def test_plumbing_cap(capsys):
    # 1 + 2 + 2 + 2999 vertices, over the cap; the expansions themselves are short
    code, out, err = run(capsys, "seifert", "-2;1/3,1/3,2999/3000")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "vertices" in err


def test_theta_malformed_diagram_is_one_line_error(tmp_path, capsys):
    texts = ('{"L": 5, "rot": [1]}', '{"L": [[1.5]], "rot": [0]}', '{"L": [[-2]], "rot": 0}',
             '{"L": [[-2]], "rot": [true]}', '[1]', '{"L": [[0]], "rot": [1]}')
    for i, text in enumerate(texts):
        diagram = tmp_path / f"bad_{i}.json"
        diagram.write_text(text)
        code, out, err = run(capsys, "theta", "--diagram", str(diagram), "--json")
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_theta_deeply_nested_diagram_is_one_line_error(tmp_path, capsys):
    diagram = tmp_path / "deep.json"
    diagram.write_text("[" * 100_000)
    code, out, err = run(capsys, "theta", "--diagram", str(diagram))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "nested" in err


def test_bypass_oracle_cap_and_disagreement(capsys, monkeypatch):
    # den(dividing) + den(ruling) = 10^6 + 3, over the oracle cap; the fast path has no cap
    argv = ("bypass", "--dividing", "-1000001/1000000", "--ruling", "7/3")
    start = perf_counter()
    code, out, err = run(capsys, *argv, "--oracle")
    assert perf_counter() - start < 0.5
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "limit" in err
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == "-1000000/999999\n"
    # an oracle that disagrees stops the command, with -O as without
    monkeypatch.setattr(importlib.import_module("tightsf.farey"), "bypass_oracle", lambda d, r, side: Slope(0))
    code, out, err = run(capsys, "bypass", "--dividing", "-5/2", "--ruling", "inf", "--oracle", "--json")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "oracle" in err


def test_bypass_check_has_one_home(capsys, monkeypatch):
    # bypass --oracle and the selftest suite compare the fast path with the
    # oracle in one function, so a wrong oracle fails both with one message
    monkeypatch.setattr(importlib.import_module("tightsf.farey"), "bypass_oracle", lambda d, r, side: Slope(7))
    code, out, err = run(capsys, "bypass", "--dividing", "inf", "--ruling", "0", "--side", "front", "--oracle")
    assert code == 1 and out == ""
    with pytest.raises(ArithmeticError) as failure:
        check_bypass_oracle()
    assert err == f"error: {failure.value}\n" and "oracle" in err


def test_floer_rejects_bad_n_and_index(capsys):
    for argv in (("--n", "0"), ("--n", "-3", "--json"), ("--n", "3", "--index", "0")):
        code, out, err = run(capsys, "floer", *argv)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "expected 'i,j'" in err


def test_sphere_family_cap_fails_fast(capsys):
    # n = MAX_TWIST_ROWS + 1: a 30-character input that would print one row per k
    n = MAX_TWIST_ROWS + 1
    manifold = f"-2;1/2,2/3,{5 * n + 1}/{6 * n + 1}"
    for argv in (("classify", manifold, "--json"), ("classify", manifold)):
        start = perf_counter()
        code, out, err = run(capsys, *argv)
        assert perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "limit" in err


def test_printed_sphere_rows_match_the_stepwise_route(capsys):
    # every per_k row as classify --json prints it, read back and checked one
    # by one against the stepwise rounding and solid_torus_count, and the
    # printed counts summed again
    for n in (1, 2, 3, 7, 300, 1000):
        manifold = f"-2;1/2,2/3,{5 * n + 1}/{6 * n + 1}"
        code, out, err = run(capsys, "classify", manifold, "--json")
        assert code == 0 and err == ""
        result = json.loads(out)["result"]
        sd = parse_manifold(manifold)
        per_k = result["certificate"]["per_k"]
        assert len(per_k) == n
        for k, row in enumerate(per_k):
            n1, n2 = -3 * k - 1, -2 * k - 1
            rounded = rounded_slope(measured_slope(1, sd, n1), measured_slope(2, sd, n2), -6 * k - 1)
            boundary = v3_slope_stepwise(sd, n1, n2)
            assert row == {"k": k, "rounded": {"num": rounded.num, "den": rounded.den},
                           "boundary": {"num": boundary.num, "den": boundary.den},
                           "count": solid_torus_count(boundary)}, (n, k)
        assert sum(row["count"] for row in per_k) == n * (n + 1) // 2 == result["count"]


def test_sphere_family_report_at_the_cap(capsys):
    # n = MAX_TWIST_ROWS: the largest table a report prints, pinned by size and digest
    n = MAX_TWIST_ROWS
    code, out, err = run(capsys, "classify", f"-2;1/2,2/3,{5 * n + 1}/{6 * n + 1}", "--json")
    assert code == 0 and err == ""
    data = out.encode()
    assert len(data) == 24_138_027
    assert hashlib.sha256(data).hexdigest()[:16] == "1258dfac61ad5e06"


def test_caps_are_the_same_bytes_from_cold_and_warm_caches(capsys):
    # the floer rows, the power texts and the row template are built on first
    # use; at each cap (pinned by digest above) a run that builds them prints
    # the same bytes as one that reuses them
    floer = importlib.import_module("tightsf.floer")
    report = importlib.import_module("tightsf.report")
    n = MAX_TWIST_ROWS
    for argv in (("floer", "--n", str(MAX_N), "--json"), ("floer", "--n", str(MAX_N)),
                 ("classify", f"-2;1/2,2/3,{5 * n + 1}/{6 * n + 1}", "--json")):
        floer._row.cache_clear()
        floer._powers.cache_clear()
        report._TEMPLATES.clear()
        cold = run(capsys, *argv)
        assert cold[0] == 0 and cold[2] == "" and run(capsys, *argv) == cold, argv


def test_floer_index_builds_one_class(capsys, monkeypatch):
    # --index builds only its own class, and still refuses an n over the cap
    def refuse(n):
        raise AssertionError("the whole index set was built")

    monkeypatch.setattr(importlib.import_module("tightsf.cli"), "index_set", refuse)
    code, out, err = run(capsys, "floer", "--n", str(MAX_N), "--index", "1,0", "--json")
    assert code == 0 and err == ""
    assert [(row["i"], row["j"]) for row in json.loads(out)["result"]["classes"]] == [(1, 0)]
    code, out, err = run(capsys, "floer", "--n", str(MAX_N + 1), "--index", "1,1")
    assert code == 1 and out == ""
    assert err == f"error: n = {MAX_N + 1} is more than the limit {MAX_N}\n"


def test_floer_cap_fails_fast(capsys):
    # just over the cap, so that a missing check costs seconds, not memory
    n = str(MAX_N + 1)
    for argv in (("--n", n), ("--n", n, "--json"), ("--n", n, "--index", "0,100")):
        start = perf_counter()
        code, out, err = run(capsys, "floer", *argv)
        assert perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "limit" in err


def test_broken_table_identity_is_one_line_error(capsys, monkeypatch):
    # rows that no longer sum to n(n+1)/2 stop classify, with -O as without:
    # the count column loses its last row
    monkeypatch.setattr(MaxTwistTable, "counts", property(lambda table: range(table.n, 1, -1)))
    code, out, err = run(capsys, "classify", "-2;1/2,2/3,11/13", "--json")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "n(n+1)/2" in err


SABOTAGED_SELFTEST = """
import sys
from tightsf.cli import main
from tightsf.convex import MaxTwistTable

if sys.argv[1] == "sabotage":
    # the last row counts 2, not 1, so the counts sum to n(n+1)/2 + 1
    MaxTwistTable.counts = property(lambda table: (*range(table.n, 1, -1), 2))
sys.exit(main(["selftest"]))
"""


def test_selftest_checks_survive_optimize():
    # python -O strips assert statements; the selftest must still check
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    outs = {}
    for mode in ("plain", "sabotage"):
        proc = subprocess.run([sys.executable, "-O", "-c", SABOTAGED_SELFTEST, mode],
                              capture_output=True, text=True, env=env, timeout=120)
        outs[mode] = (proc.returncode, proc.stdout)
    code, out = outs["plain"]
    assert code == 0 and out.count("PASS") == 4 and "FAIL" not in out
    code, out = outs["sabotage"]
    assert code == 1 and out.count("PASS") == 3
    assert "FAIL  maximal twisting tables" in out and "n(n+1)/2" in out
