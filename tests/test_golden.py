"""CLI output pinned byte for byte: exit code, then length and sha256 of each stream.

Each case runs `main(argv)` in-process, and all of them run once more in one
`python -O` subprocess, where every assert is stripped, so no output may
depend on an assert.  The digests were recorded from the implementation
these cases guard; a change that alters any byte of stdout or stderr, or an
exit code, fails here.  Help is pinned whole; the command-line reader's usage
errors are pinned by their exit code and last stderr line, the error itself,
below the usage line.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tanglegcd
from tanglegcd.cli import main

EMPTY = (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")


def fibonacci_pair(n):
    """(F(n + 1), F(n))."""
    a, b = 1, 0
    for _ in range(n):
        a, b = a + b, a
    return a, b


# Two pairs of about 210 digits, written out in full on the command line:
# consecutive Fibonacci numbers, whose traces are the longest for their size,
# and two prime powers, whose quotients vary.
FIBONACCI = "{} {}".format(*fibonacci_pair(1000))
POWERS = f"{2**700} {3**440}"

# command line -> (exit code, (stdout bytes, sha256), (stderr bytes, sha256))
GOLDEN = {
    # README's six examples
    "gcd 807 673 --method lar": (
        0, (120, "75ba6d731c7b90f5fc8c9e63158536b9be002eb31290da500f20609d6031ab2a"), EMPTY),
    "steps 807 673": (
        0, (196, "b7e597d2c9f9133adcbe6d95284e293b32c930297c76e37cd751becc3f3b49fb"), EMPTY),
    "enumerate 4 3": (
        0, (214, "4f98a44039dd2446dd14b20cb30275cf3f6d8dfe9df591af47886b904d2a6581"), EMPTY),
    "untangle 8/5 --method lar": (
        0, (139, "699afeeb1ca8e5fa7e69cf6464c8209bcc22912a2c244be7715ddff4135d1183"), EMPTY),
    "construct --moves -T,-T,-T,R,-T,R,T,T": (
        0, (4, "c81a4cae90bb0ee73c120b0f74c292afe1fa5d48a8a4988802451662e0d943ae"), EMPTY),
    "verify 8/5 --moves -T,R,T,R,-T,R,T,T": (
        0, (105, "7ad0229fad482626439fdd38541a80680aef152fe7d4e76908a424aafb556c81"), EMPTY),
    # enumeration near and past the --limit ceiling
    "--json enumerate 9999 7001": (
        0, (2647038, "9d8d5c94118d89fed3b9d32dcb51476c41dab48754b2cac14e0c6b0d97e818c9"), EMPTY),
    "enumerate 10001 3": (
        2, EMPTY, (96, "0945187351bddcbc84e88415e80442150705167ddd15327a1edc8b2a10ab3fb3")),
    "enumerate 3 10001": (
        2, EMPTY, (133, "daf0129235c5dd5b43b83d949836e952965cf93ab2f11a9099f45b13c88814be")),
    "enumerate 20 7 --limit 19": (
        2, EMPTY, (90, "158ef5f0667d67bdd5aa3a896d4b6400dea5ab202b0d95cc68714ceaf8486d28")),
    "--json enumerate 10001 3 --limit 10001": (
        0, (476, "82497a9c47feacca47570e6c6fa821d401a8d3f3246d1f86cbbf2399840ffc1a"), EMPTY),
    # untangle plans and their replay
    "--json untangle 1013/1 --method negative": (
        0, (10173, "309cf8f8f57497a2e3b1f6fea200fe91446771d4fc224cc6f96a6d217ad017ae"), EMPTY),
    "untangle -7/9 --method regular": (
        0, (149, "dbfba914ad15d2f00ac720b04d11de266e92e7d23c4a6ede2a95df2b6a393ce1"), EMPTY),
    "untangle inf": (
        0, (73, "0fff68b66e6e20cf577b9b50a9c1cdf70acb3095ddf3efc9a7178050e33bd838"), EMPTY),
    "untangle 0": (
        0, (65, "cd0ce5ef0c071d7a232f80d5b3ac996a4ff5398cae1040d2a3b8a86660890d21"), EMPTY),
    # verify: failing replays and a bad token
    "--json verify 1 --moves R": (
        1, (85, "8de83afa1b501c8b7b0306e43da097fcca0b1662140ac41828d057dd79cd212a"), EMPTY),
    "verify 8/5 --moves R": (
        1, (46, "bcbaf47a422cecf8f477d33096c6d0eb4a0224dd12d6580a11b018915b724c70"), EMPTY),
    "verify 8/5 --moves -T,X,R": (
        2, EMPTY, (40, "5da19555e12238f551c3aee7fca91e1480ce8745994d9f430d935bad87f9cba0")),
    # fractions and move strings that start with "-"
    "construct --moves -X": (
        2, EMPTY, (41, "2d6f1f847e2c53f7cdfbf223c6722f576a482a73599294431a34f14035b95a44")),
    "--json construct --moves -T,R": (
        0, (40, "0ac117f2aee612684934b263aeca707b6689a48cfa27ae04e9a33c67e7809692"), EMPTY),
    "verify -8/5 --moves T,T,R,T,T,R,-T,-T": (
        0, (106, "7173986ed64a50cf9c38d93bf918e89c4eecf0a28bb848d3007bdf78f1a40a34"), EMPTY),
    "verify -8/5 --moves -T,R": (
        1, (59, "0a6a8feb91836150a7d87e0c60e2b45bfb23f1650eea8741d0f4ed22d4863886"), EMPTY),
    # long listings, written as they are rendered
    "--json untangle 100000": (
        0, (1189033, "3e27f0c3c8a6786574edcdaa14fe8fd3a83830fd862a12a717ed406de923cb1e"), EMPTY),
    "untangle 100000 --method negative": (
        0, (1188969, "fa2c7543cc451394f84dad545fc9e090d514c4a121aa0f446e2af8f9ed25322c"), EMPTY),
    "enumerate 200 199": (
        0, (88220, "46c193cbac26666a687f6cae94b1f77572a6d5e80116c504be296caf6fb0e741"), EMPTY),
    "--json enumerate 200 199": (
        0, (161867, "c0677e995accb85b2107548d02eb9abc4ad6bcd8a4b4b31ec9048206552affe3"), EMPTY),
    # gcd traces of F(1001) F(1000) and 2**700 3**440, in both modes
    f"--json gcd {FIBONACCI} --method regular": (
        0, (355791, "cea168a4faf043074e56271f4743d6d5e5a7789dc27bc4bb9a6155afeffa2daf"), EMPTY),
    f"--json gcd {FIBONACCI} --method lar": (
        0, (178867, "eda825a9b8efb5c5a44a305146bc07a83341b28aa7bc8b3a8dbd1dcf16490d3b"), EMPTY),
    f"--json gcd {FIBONACCI} --method negative": (
        0, (178867, "007864d2d86da6c4ea8bc16b41ad4d30b252abc97da2bffeb0f6c9b1202a76f8"), EMPTY),
    f"gcd {FIBONACCI} --method regular": (
        0, (322310, "99b12d85a7de4bed01759713af2ed5215b56cfa8e03ada071b111ae40c2a277f"), EMPTY),
    f"gcd {FIBONACCI} --method lar": (
        0, (161352, "f47c60110279a4da23a8da560d98c4e1cfe057ed58887f4fc52016f51354f074"), EMPTY),
    f"gcd {FIBONACCI} --method negative": (
        0, (161352, "f47c60110279a4da23a8da560d98c4e1cfe057ed58887f4fc52016f51354f074"), EMPTY),
    f"--json gcd {POWERS} --method regular": (
        0, (139822, "a7f74b692dc0755eb73387b61843999ba0a81e8865e03c13aaf448f764de7532"), EMPTY),
    f"--json gcd {POWERS} --method lar": (
        0, (99490, "c18396dd7cde1721ec58a4b864f13997d9e0f3b1fe087d8bdd9ddc8236c65470"), EMPTY),
    f"--json gcd {POWERS} --method negative": (
        0, (703581, "16461c15d48d2a01339a3f05226b242cdea8ab2f2b92437462f0e39f665c40dd"), EMPTY),
    f"gcd {POWERS} --method regular": (
        0, (126402, "bf3628a6b43abfa74717cf72fc9fab8535394998825c558ddd24498b0d0f54bd"), EMPTY),
    f"gcd {POWERS} --method lar": (
        0, (89716, "1350534d55bb7152bcc747687df962ff73ec3c723f50096e742fe82725885361"), EMPTY),
    f"gcd {POWERS} --method negative": (
        0, (637545, "752c2783bce0f3774cb3d50f42f6038a7921df228d9cff75631d028e048ee95c"), EMPTY),
    # help, printed from the subcommand table, and an option given as --opt=value
    "--help": (
        0, (561, "e6e5e62a733957e4959734d05a2be4d3b0849f5f6f422dbe18dbff180efb9084"), EMPTY),
    "gcd --help": (
        0, (320, "a5ce7651d30bad58a3f0317fc3ffd014ea48a0e3fc333653cb7941a153d86653"), EMPTY),
    "gcd 8 5 --method=lar": (
        0, (94, "974857381f33a07134b41703739a8c1e88af61a20fcb2566b31fef18296ebb2b"), EMPTY),
}

# command line -> (exit code, last stderr line)
USAGE_ERRORS = {
    "enumerate 4 3 --limit 0": (
        2, "tanglegcd enumerate: error: argument --limit: must be a positive integer, got 0"),
    "frob 8 5": (
        2, "tanglegcd: error: argument command: invalid choice: 'frob' (choose from 'gcd', "
           "'steps', 'enumerate', 'untangle', 'construct', 'verify')"),
    "gcd 8": (2, "tanglegcd gcd: error: the following arguments are required: b"),
    "verify 8/5": (2, "tanglegcd verify: error: the following arguments are required: --moves"),
    "gcd 8 5 --method bad": (
        2, "tanglegcd gcd: error: argument --method: invalid choice: 'bad' "
           "(choose from 'lar', 'negative', 'regular')"),
    "gcd 8 5 --frob": (2, "tanglegcd gcd: error: unrecognized arguments: --frob"),
    # a prefix of an option, a bare "--" and help spelled -hX are values
    "gcd 8 5 --meth lar": (2, "tanglegcd gcd: error: unrecognized arguments: --meth lar"),
    "gcd 8 5 --": (2, "tanglegcd gcd: error: unrecognized arguments: --"),
    "gcd -hX 5": (2, "tanglegcd gcd: error: argument a: not an integer: '-hX'"),
    "gcd 8 5 6": (2, "tanglegcd gcd: error: unrecognized arguments: 6"),
    "gcd -x 5": (2, "tanglegcd gcd: error: argument a: not an integer: '-x'"),
}


# Runs every GOLDEN command (read as JSON from stdin) through main and prints
# the interpreter's optimize level and, per command,
# [exit code, [stdout bytes, sha256], [stderr bytes, sha256]].
OUTCOMES_SCRIPT = """
import contextlib, hashlib, io, json, sys
from tanglegcd.cli import main

def digest(stream):
    data = stream.getvalue().encode()
    return [len(data), hashlib.sha256(data).hexdigest()]

outcomes = {}
for command in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(command.split())
        except SystemExit as exc:
            code = exc.code
    outcomes[command] = [code, digest(out), digest(err)]
print(json.dumps([sys.flags.optimize, outcomes]))
"""


def run(capsys, command):
    try:
        code = main(command.split())
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


def digest(data):
    return len(data), hashlib.sha256(data).hexdigest()


def short_id(command):
    return command.replace(FIBONACCI, "F(1001) F(1000)").replace(POWERS, "2**700 3**440")


@pytest.mark.parametrize("command", GOLDEN, ids=short_id)
def test_output_is_byte_identical(capsys, command):
    code, out, err = run(capsys, command)
    assert (code, digest(out), digest(err)) == GOLDEN[command]


@pytest.mark.parametrize("command", USAGE_ERRORS)
def test_usage_error_is_unchanged(capsys, command):
    code, out, err = run(capsys, command)
    assert out == b""
    assert (code, err.decode().splitlines()[-1]) == USAGE_ERRORS[command]


def test_output_is_byte_identical_without_asserts():
    env = dict(os.environ)
    src = str(Path(tanglegcd.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OUTCOMES_SCRIPT], input=json.dumps(list(GOLDEN)),
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    optimize, outcomes = json.loads(proc.stdout)
    assert optimize == 1
    assert {command: (code, tuple(out), tuple(err))
            for command, (code, out, err) in outcomes.items()} == GOLDEN
