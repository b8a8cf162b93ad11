"""Golden corpus: about a thousand in-process `tightsf.cli.main` calls, pinned by digest.

Each line of `golden_cli.sha256` is the SHA-256 of one call's
(argv, exit code, stdout, stderr), in the order `cases` lists the calls.  The
corpus covers every subcommand in text and `--json`: all classify regimes,
the sphere family sampled up to n = 800, `cf`, `slopes` in the limit and gap
regions, `bypass` with and without `--oracle`, `seifert`, `floer --n` up to
10, `theta` on seeded diagrams, and malformed inputs.  Paths under the
diagram directory read as "<tmp>" before hashing, and argparse wraps its
usage text at COLUMNS = 80.

The digests pin output byte for byte.  After a change that is meant to alter
output, re-record them with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of the digest file together with the output change.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from tightsf.cli import main

DIGESTS = Path(__file__).with_name("golden_cli.sha256")
TMP = "<tmp>"


def _proper_fractions(max_q: int) -> list[Fraction]:
    return sorted({Fraction(p, q) for q in range(2, max_q + 1) for p in range(1, q)})


def _write_diagrams(tmp: Path) -> list[str]:
    """Seeded diagram files: plumbings, random symmetric matrices and malformed JSON."""
    rng = random.Random(5)
    texts = []
    for m in range(1, 9):
        # a linear plumbing with framings <= -2 and a random rotation vector
        frames = [rng.randint(-5, -2) for _ in range(m)]
        L = [[frames[i] if i == j else (1 if abs(i - j) == 1 else 0) for j in range(m)]
             for i in range(m)]
        texts.append(json.dumps({"L": L, "rot": [rng.randint(-3, 3) for _ in range(m)]}))
    for m in range(1, 9):
        L = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                L[i][j] = L[j][i] = rng.randint(-3, 3)
        texts.append(json.dumps({"L": L, "rot": [rng.randint(-2, 2) for _ in range(m)]}))
    texts += ['{"L": 5, "rot": [1]}', '{"L": [[1.5]], "rot": [0]}', '{"L": [[-2]], "rot": 0}',
              '{"L": [[-2]], "rot": [true]}', '[1]', '{"L": [[0]], "rot": [1]}',
              '{"L": [[-2, 1], [0, -2]], "rot": [0, 0]}', '{"L": [[-2]]}', "not json",
              '{"L": [[-2, 1], [1, -2]], "rot": [1]}']
    paths = []
    for i, text in enumerate(texts):
        path = tmp / f"diagram_{i}.json"
        path.write_text(text)
        paths.append(str(path))
    paths.append(str(tmp / "missing.json"))
    return paths


def cases(tmp: Path) -> list[list[str]]:
    """The argv of every corpus call, in digest order; theta files are written to tmp."""
    calls: list[list[str]] = []

    def both(*argv: str) -> None:
        calls.append(list(argv))
        calls.append([*argv, "--json"])

    fracs = _proper_fractions(5)
    for i, a in enumerate(fracs):
        for j in range(i, len(fracs)):
            for c in fracs[j:]:
                both("classify", f"-2;{a},{fracs[j]},{c}")
    for text in ("-1;1/2,2/3,6/7", "0;1/2,2/3,6/7", "-3;1/2,1/2,1/2", "1/2,-1/3,-2/13",
                 "-2;1/2,2/3,7/8", "-2;1/2,2/3,8/9", "-2;1/2,2/3,99/100",
                 "-2;1/3,1/3,99/100", "-2;7/9,7/9,7/9", "-2;3/4,2/3,1/2", "-2;5/6,1/2,2/3",
                 "-2;1/2,2/3,1001/1003", "-2;1,1/2,1/3"):
        both("classify", text)
    for n in [*range(1, 13), 20, 31, 64, 100, 211, 400, 555, 800]:
        both("classify", f"-2;1/2,2/3,{5 * n + 1}/{6 * n + 1}")

    for f in _proper_fractions(14):
        both("cf", f"{-1 / f}")
    for text in ("-1000/999", "-1", "0", "3/2", "inf", "x"):
        both("cf", text)

    for text in ("-2;1/2,2/3,7/8", "-2;7/9,7/9,7/9", "-2;1/2,2/3,9/11", "-2;1/3,1/3,1/3",
                 "-2;1/2,3/4,4/5", "-2;2/3,2/3,3/4", "-2;1/2,1/2,1/2", "-2;4/5,4/5,4/5",
                 "-2;1/2,2/3,11/13", "-2;1/2,2/3,5/6"):
        for n1 in ("-1", "-3", "-17"):
            both("slopes", text, "--n1", n1)
    both("slopes", "-2;1/2,2/3,7/8", "--n1", "0")

    slopes = ["inf", "0", "1", "-1", "2", "-3", "1/2", "-1/2", "3/5", "-5/2", "-7/3", "-11/13"]
    for d in slopes:
        for r in slopes[::2]:
            for side in ("front", "back"):
                both("bypass", "--dividing", d, "--ruling", r, "--side", side, "--oracle")
    for d, r in (("-5/2", "inf"), ("7/3", "-2"), ("0", "1/0")):
        both("bypass", "--dividing", d, "--ruling", r)

    for text in ("-2;1/2,2/3,6/7", "1/2,-1/3,-2/13", "-2;1/2,1/2,1/2", "-2;2/5,4/5,4/5",
                 "-1;1/2,1/3,1/5", "0;1/2,1/3,1/5", "-2;1/3,2/3,5/7", "-2;7/9,7/9,7/9",
                 "-2;1/2,2/3,5/6", "-2;1/2,3/4,3/4", "-2;2/3,2/3,2/3", "3/7,-2/9,4/11",
                 "-2;1/2,2/3,61/73", "-2;1/2,2/3,29/31"):
        both("seifert", text)

    for n in range(1, 11):
        both("floer", "--n", str(n))
    for argv in (("--n", "3", "--index", "1,1"), ("--n", "4", "--index", "2,1"),
                 ("--n", "5", "--index", "0,4")):
        both("floer", *argv)

    for path in _write_diagrams(tmp):
        both("theta", "--diagram", path)

    # malformed input and caps, as the CLI tests give them
    calls += [["nonsense"], ["classify", "-2;1/2,2/3"], ["cf", "-1/2"],
              ["classify", "-2;1/0,1/2,1/3"], ["classify", "-2;1/3,1/3,999999999999/1000000000000", "--json"],
              ["seifert", "-2;1/3,1/3,999999999999/1000000000000"], ["cf", "-1000000000000/999999999999"],
              ["seifert", "-2;1/3,1/3,2999/3000"], ["floer", "--n", "0"], ["floer", "--n", "-3", "--json"],
              ["floer", "--n", "3", "--index", "0"], ["floer", "--n", "101"],
              ["classify", "-2;1/2,2/3,500006/600007", "--json"], ["slopes", "-2;1/2,2/3,7/8"],
              ["bypass", "--dividing", "1/2", "--ruling", "1/2"], ["bypass", "--dividing", "1/2"],
              [], ["classify"], ["--json"]]
    return calls


def _digest(argv: list[str], tmp: Path) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    record = [[a.replace(str(tmp), TMP) for a in argv], code,
              out.getvalue().replace(str(tmp), TMP), err.getvalue().replace(str(tmp), TMP)]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def test_golden_corpus(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    calls = cases(tmp_path)
    expected = DIGESTS.read_text().split()
    assert len(calls) == len(expected)
    for argv, digest in zip(calls, expected):
        assert _digest(argv, tmp_path) == digest, argv


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp_dir:
        tmp = Path(tmp_dir)
        digests = [_digest(argv, tmp) for argv in cases(tmp)]
    DIGESTS.write_text("".join(d + "\n" for d in digests))
    print(f"recorded {len(digests)} calls in {DIGESTS}", file=sys.stderr)
