"""The CLI's help and usage-error text, pinned byte for byte.

Each file under tests/golden/ holds the verbatim stdout of a --help call
or the stderr of a refused call, printed at an 80-column terminal. The
parser is built per subcommand, so these also check that the partial and
full builds print the same text.
"""

import os
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


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_one_subparser_parses_as_the_full_parser(name):
    argv = VALID[name]
    one = build_parser(name).parse_args(argv)
    full = build_parser().parse_args(argv)
    assert vars(one) == vars(full)


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_each_call_builds_one_parser(monkeypatch, capsys, name):
    # a usage error of one subcommand is reported by the parser that read
    # it, whose usage line names every subcommand as the full parser's does
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda *a: built.append(a) or build_parser(*a))
    exit_text(monkeypatch, capsys, ERRORS[name])
    assert len(built) == 1
