"""The CLI's help and usage-error text, pinned byte for byte.

Each file under tests/golden/ holds the verbatim stdout of a --help call
or the stderr of a refused call, printed at an 80-column terminal. A
plain argv is read from the subcommand table without argparse, so that
reader is checked here against argparse, which writes every text.
"""

import contextlib
import io
import os
import random
import subprocess
import sys

import pytest

from checkersurf import cli
from checkersurf.cli import build_parser, main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SUBCOMMANDS = [
    "canon", "product", "coset-product", "concentrate", "spherical", "ik-product",
    "ik-project", "poisson", "dessin", "census", "random",
]

HELP = {"help": ["--help"]}
HELP.update({"help-" + name: [name, "--help"] for name in SUBCOMMANDS})

ERRORS = {
    "error-empty": [],
    "error-unknown-command": ["bogus"],
    "error-unrecognized-arguments": ["random", "--n", "2", "extra"],
    "error-census-format-dot": ["census", "--n", "3", "--format", "dot"],
}


def golden(name):
    with open(os.path.join(GOLDEN, name + ".txt"), encoding="utf-8") as fh:
        return fh.read()


def exit_text(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(HELP))
def test_help_text_is_pinned(monkeypatch, capsys, name):
    code, out, err = exit_text(monkeypatch, capsys, HELP[name])
    assert (code, err) == (0, "")
    assert out == golden(name)


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_usage_error_text_is_pinned(monkeypatch, capsys, name):
    code, out, err = exit_text(monkeypatch, capsys, ERRORS[name])
    assert (code, out) == (2, "")
    assert err == golden(name)


def test_module_help_reads_sys_argv():
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    proc = subprocess.run([sys.executable, "-m", "checkersurf.cli", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == golden("help")


# one valid argv per subcommand name and alias, with options set away
# from their defaults where the subcommand has any
VALID = {
    "canon": ["canon", "t.json", "--alpha", "1", "--beta", "2", "--format", "dot"],
    "product": ["product", "l.json", "r.json", "--alpha", "1", "--beta", "0", "--gamma", "2"],
    "coset-product": ["coset-product", "l.json", "r.json", "--alpha", "0", "--beta", "1",
                      "--gamma", "0", "--format", "tsv"],
    "concentrate": ["concentrate", "l.json", "r.json", "--n-from", "2", "--n-to", "5",
                    "--max-terms", "77", "--quiet"],
    "spherical": ["spherical", "s.json", "xi.json", "--max-assignments", "9",
                  "--output", "out.json"],
    "ik-product": ["ik-product", "l.json", "r.json", "--format", "tsv"],
    "ik-project": ["ik-project", "x.json", "--n", "4", "--max-terms", "10"],
    "poisson": ["poisson", "l.json", "r.json", "--quiet"],
    "dessin": ["dessin", "t.json", "--format", "json"],
    "census": ["census", "--n", "3", "--max-terms", "100"],
    "random": ["random", "--n", "5", "--seed", "7", "--format", "tsv"],
}


def test_every_subcommand_is_pinned():
    assert sorted(SUBCOMMANDS) == sorted(cli._BY_NAME)


def argparse_namespace(parser, argv):
    """parser.parse_args(argv), or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return parser.parse_args(argv)
        except SystemExit:
            return None


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_one_subparser_parses_as_the_full_parser(name):
    # the reader, which reads the one row of the invoked subcommand,
    # parses each valid argv as the full parser does
    argv = VALID[name]
    assert vars(cli._read_argv(argv)) == vars(build_parser().parse_args(argv))


# the argv shapes of perfbench's four workloads, with the paths it writes
BENCHMARK_SHAPED = [
    ["concentrate", "/w/0-L.json", "/w/0-R.json", "--n-from", "4", "--n-to", "9"],
    ["ik-product", "/w/0-P.json", "/w/0-Q.json"],
    ["ik-project", "/w/0-prev.json", "--n", "5"],
    ["spherical", "/w/0-S.json", "/w/0-XI.json"],
    ["product", "/w/0-L.json", "/w/0-R.json", "--alpha", "1", "--beta", "2", "--gamma", "0"],
]


@pytest.mark.parametrize("argv", list(VALID.values()) + BENCHMARK_SHAPED, ids=" ".join)
def test_a_valid_call_builds_no_parser(monkeypatch, tmp_path, argv):
    # the command runs on the reader's namespace, which the differential
    # test below checks against argparse's
    built, ran = [], []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    row = cli._BY_NAME[argv[0]]
    monkeypatch.setitem(cli._BY_NAME, argv[0], row[:3] + (ran.append,) + row[4:])
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert built == [] and len(ran) == 1


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_each_call_builds_one_parser(monkeypatch, capsys, name):
    # each refused argv builds exactly one parser, the full one, which
    # reports the error
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    exit_text(monkeypatch, capsys, ERRORS[name])
    assert len(built) == 1


# argvs the reader must leave to argparse or read as argparse does:
# help, "=", abbreviations, repeats, unknown options, a "-" token where a
# positional or value belongs, values that type or choices refuse or that
# int() reads in unusual forms, and missing positionals or options
HARD = [
    ["product", "l", "r", "--alpha", "1", "--beta", "0", "--gamma", "2", "-h"],
    ["product", "l", "r", "--alpha=1", "--beta", "0", "--gamma", "2"],
    ["product", "l", "r", "--al", "1", "--beta", "0", "--gamma", "2"],
    ["product", "l", "r", "--alpha", "1", "--alpha", "2", "--beta", "0", "--gamma", "2"],
    ["product", "l", "--alpha", "1", "--beta", "0", "--gamma", "2"],
    ["product", "l", "r", "--alpha", "1", "--beta", "0"],
    ["product", "l", "r", "--alpha", "-1", "--beta", "0", "--gamma", "2"],
    ["product", "-", "r", "--alpha", "1", "--beta", "0", "--gamma", "2"],
    ["canon", "--", "t.json"], ["canon", "t.json", "--"], ["canon", "-x"], ["canon", ""],
    ["canon", "t.json", "--seed", "3"], ["canon", "t.json", "--bogus"], ["canon", "t.json", "x"],
    ["canon", "t.json", "--output", ""], ["canon", "t.json", "--output", "-"],
    ["canon", "t.json", "--format"], ["canon", "t.json", "--format", "xml"],
    ["canon", "t.json", "--format=dot"], ["canon", "t.json", "--form", "dot"],
    ["census", "--n", "3", "--format", "dot"], ["census", "--n", "3", "--quiet", "--quiet"],
    ["random", "--n", "3", "--quiet", "extra"], ["random", "--n"], ["random"],
    ["random", "--n", "+3"], ["random", "--n", "1_0"], ["random", "--n", " 3"],
    ["random", "--n", "٣"], ["random", "--n", ""], ["random", "--n", "x"],
    ["random", "--n", "3.0"], ["random", "--n", "3", "--seed", "-1"],
    ["random", "-h"], ["random", "--help"], ["-h"], ["--help"], [], [""], ["bogus"], ["prod"],
]

INT_VALUES = ["3", "0", "12", "-1", "+3", "1_0", " 3", "٣", "", "x", "3.0"]
TEXT_VALUES = ["f.json", "", " ", "-", "-x", "--", "x=y", "é.json"]
STRAY = ["-h", "--help", "--", "-", "-x", "-1", "--bogus", "extra", "--n=3", "--seed",
         "--n", "--format=json", "--for", "--qu", "--out", "--max", "--n-f"]


def random_argv(rng):
    """An argv near the shape the reader reads, with the hard cases mixed in."""
    name = rng.choice(list(cli._BY_NAME) * 6 + ["", "bogus", "prod", "-h", "--quiet"])
    argv = [name]
    row = cli._BY_NAME.get(name)
    if row is not None:
        names = [flag for flag, _ in row[5] if flag[0] != "-"]
        count = max(0, len(names) + rng.choice([0, 0, 0, 0, -1, 1]))
        argv += [rng.choice(["a.json"] * 6 + TEXT_VALUES) for _ in range(count)]
        options = [(flag, kw) for flag, kw in cli._COMMON + row[5] if flag[0] == "-"]
        rng.shuffle(options)
        for flag, kw in options:
            if rng.random() > (0.95 if kw.get("required") else 0.35):
                continue
            if "choices" in kw:
                value = rng.choice(list(kw["choices"]) * 2 + ["xml", "JSON", ""])
            elif "type" in kw:
                value = rng.choice(INT_VALUES[:3] * 6 + INT_VALUES)
            else:
                value = rng.choice(["o.json"] * 6 + TEXT_VALUES)
            shape = rng.random()
            token = flag[:rng.randint(3, len(flag))] if shape < 0.04 else flag
            if "action" in kw:
                tokens = [token]
            elif shape > 0.96:
                tokens = [token + "=" + value]
            else:
                tokens = [token, value]
            argv += tokens * (2 if rng.random() < 0.04 else 1)
    for _ in range(rng.choice([0] * 6 + [1, 2])):
        argv.insert(rng.randint(1, len(argv)), rng.choice(STRAY))
    if rng.random() < 0.05:
        argv.pop()
    return argv


def test_reader_gives_argparses_namespace_or_leaves_argv_to_it():
    # seeded and differential: for each argv the reader returns None or
    # exactly argparse's namespace, and None wherever argparse exits
    parser = build_parser()
    rng = random.Random(3801)
    argvs = HARD + list(VALID.values()) + BENCHMARK_SHAPED
    argvs += [random_argv(rng) for _ in range(4000)]
    read = refused = 0
    for argv in argvs:
        ours, theirs = cli._read_argv(argv), argparse_namespace(parser, argv)
        refused += theirs is None
        if ours is not None:
            read += 1
            assert theirs is not None and vars(ours) == vars(theirs), argv
    # both outcomes occur often, so neither side of the test is idle
    assert read > len(argvs) // 8 and refused > len(argvs) // 4, (read, refused)
