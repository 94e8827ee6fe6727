"""Command-line behavior: formats, determinism, exit codes, budgets."""

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from itertools import accumulate
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checkersurf import cli, convolution, ik, surface
from checkersurf.cli import main
from checkersurf.convolution import CosetAlgebraElement, GroupAlgebraElement, coset_decomposition
from checkersurf.cosets import DoubleCoset, circledast
from checkersurf.errors import SchemaError
from checkersurf.ik import IKElement, ik_product, project
from checkersurf.spherical import Tensor3
from checkersurf.surface import (
    Triple,
    canonical_form,
    checker_surface,
    components,
    disjoint_union,
    random_triple,
)
from oracles import assignment_sum_oracle

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

TRANSPOSITION = {"n": 2, "blue": [2, 1], "red": [1, 2], "yellow": [1, 2]}
DOUBLE_TRIANGLE = {"n": 1, "blue": [1], "red": [1], "yellow": [1]}
THREE = {"n": 3, "blue": [2, 1, 3], "red": [1, 2, 3], "yellow": [1, 2, 3]}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def invoke(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def unit_tensor():
    # basis vector e_000 of a 2x2x2 tensor; exactly unit norm
    re = [0.0] * 8
    re[0] = 1.0
    return {"dims": [2, 2, 2], "re": re, "im": [0.0] * 8}


def test_canon_json_is_deterministic_and_idempotent(tmp_path, capsys):
    path = write(tmp_path, "t.json", THREE)
    rc1, out1, _ = invoke(capsys, "canon", path, "--quiet")
    rc2, out2, _ = invoke(capsys, "canon", path, "--quiet")
    assert rc1 == rc2 == 0
    assert out1 == out2
    again = write(tmp_path, "round.json", json.loads(out1))
    rc3, out3, _ = invoke(capsys, "canon", again, "--quiet")
    assert rc3 == 0 and out3 == out1


def test_canon_tsv_and_dot_formats(tmp_path, capsys):
    path = write(tmp_path, "t.json", THREE)
    rc, out, _ = invoke(capsys, "canon", path, "--format", "tsv")
    assert rc == 0
    rows = dict(line.split("\t", 1) for line in out.splitlines())
    assert rows["degree"] == "2"  # the fixed-point double triangle is stripped
    rc, out, _ = invoke(capsys, "canon", path, "--format", "dot")
    assert rc == 0 and out.startswith("graph dessin {")


def test_canon_rejects_bad_labels(tmp_path, capsys):
    path = write(tmp_path, "t.json", THREE)
    rc, _, err = invoke(capsys, "canon", path, "--alpha", "9")
    assert rc == 2 and "alpha" in err


def test_canon_of_a_long_cycle_is_prompt(tmp_path):
    # every white of one 20,000-cycle is a root of the same code; a kernel
    # that builds each root's code takes minutes, so a subprocess with a
    # timeout fails it
    cycle = "(%s)" % " ".join(str(i) for i in range(1, 20001))
    path = write(tmp_path, "c.json", {"blue": cycle, "red": "()", "yellow": "()"})
    proc = subprocess.run(
        [sys.executable, "-m", "checkersurf.cli", "canon", path, "--quiet"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 0
    form = json.loads(proc.stdout)
    assert form["n"] == 20000 and len(form["components"]) == 1


def test_product_reports_path_agreement(tmp_path, capsys):
    left = write(tmp_path, "p.json", THREE)
    right = write(tmp_path, "q.json", TRANSPOSITION)
    rc, out, _ = invoke(
        capsys, "product", left, right,
        "--alpha", "1", "--beta", "1", "--gamma", "1", "--quiet",
    )
    assert rc == 0
    assert json.loads(out)["paths_agree"] is True


def test_coset_product_alias(tmp_path, capsys):
    left = write(tmp_path, "p.json", TRANSPOSITION)
    rc, out, _ = invoke(
        capsys, "coset-product", left, left,
        "--alpha", "0", "--beta", "0", "--gamma", "0", "--quiet",
    )
    assert rc == 0


def test_concentrate_matches_closed_form(tmp_path, capsys):
    coset = dict(TRANSPOSITION, alpha=0, beta=0)
    path = write(tmp_path, "p.json", coset)
    rc, out, _ = invoke(
        capsys, "concentrate", path, path,
        "--n-from", "4", "--n-to", "6", "--format", "tsv", "--quiet",
    )
    assert rc == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert rows[0] == ["n", "sigma", "value"]
    assert [r[1] for r in rows[1:]] == ["1/6", "3/10", "2/5"]


def test_concentrate_json_carries_decompositions(tmp_path, capsys):
    coset = dict(TRANSPOSITION, alpha=0, beta=0)
    path = write(tmp_path, "p.json", coset)
    rc, out, _ = invoke(
        capsys, "concentrate", path, path, "--n-from", "4", "--n-to", "4", "--quiet"
    )
    assert rc == 0
    data = json.loads(out)
    assert data["series"][0]["sigma"] == "1/6"
    terms = data["decompositions"][0]["terms"]
    assert sum(eval_fraction(term["coeff"]) for term in terms) == 1


def eval_fraction(text):
    from fractions import Fraction

    return Fraction(text)


def test_concentrate_budget_exit(tmp_path, capsys):
    # the transposition pair has 7 partial matchings
    coset = dict(TRANSPOSITION, alpha=0, beta=0)
    path = write(tmp_path, "p.json", coset)
    rc, _, err = invoke(capsys, "concentrate", path, path, "--max-terms", "6")
    assert rc == 3 and "budget" in err
    assert "7 partial matchings" in err and "6 budget" in err


@pytest.mark.parametrize("n", ["2000", "4000"])
def test_concentrate_budget_exit_on_a_count_of_thousands_of_digits(tmp_path, n):
    # 1,000 disjoint transpositions: the matching count has over 5,000
    # digits, more than str() of an int may have; a subprocess, so that a
    # check that hangs fails by timing out
    cycles = "".join("(%d %d)" % (i, i + 1) for i in range(1, 2000, 2))
    coset = {"blue": cycles, "red": "()", "yellow": "()", "n": 2000, "alpha": 0, "beta": 0}
    path = write(tmp_path, "p.json", coset)
    proc = subprocess.run(
        [sys.executable, "-m", "checkersurf.cli", "concentrate", path, path,
         "--n-from", n, "--n-to", n],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    expected = {
        "2000": "more than 10^5735 partial matchings, over the 1000000 budget",
        # the running total passes the budget at m = 1: 1 + 2000 x 2000
        "4000": "the decomposition up to degree 4000 canonicalizes at least 4000001 "
        "partial matchings, over the 1000000 budget",
    }[n]
    assert expected in proc.stderr


def test_concentrate_budget_stops_at_the_first_total_over_it(tmp_path):
    # 5,000 disjoint transpositions at degree 20,000: every m from 0 fits,
    # and the full matching count takes tens of seconds to compute, so the
    # check must stop at m = 1, where 1 + 10,000^2 passes the budget
    cycles = "".join("(%d %d)" % (i, i + 1) for i in range(1, 10000, 2))
    coset = {"blue": cycles, "red": "()", "yellow": "()", "n": 10000, "alpha": 0, "beta": 0}
    path = write(tmp_path, "p.json", coset)
    proc = subprocess.run(
        [sys.executable, "-m", "checkersurf.cli", "concentrate", path, path,
         "--n-from", "20000", "--n-to", "20000"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert "at least 100000001 partial matchings, over the 1000000 budget" in proc.stderr


def test_concentrate_budget_counts_matchings_not_degree(tmp_path, capsys):
    # beta = 4 leaves one free point on each side: 2 partial matchings,
    # though the h-sum at degree 10 has 6! = 720 terms
    left = write(
        tmp_path, "p.json",
        {"blue": "(1 2 3 4 5)", "red": "(1 3)", "yellow": "()", "alpha": 1, "beta": 4},
    )
    right = write(
        tmp_path, "q.json",
        {"blue": "(1 2 3 4 5)", "red": "()", "yellow": "(2 5)", "alpha": 4, "beta": 2},
    )
    rc, out, _ = invoke(
        capsys, "concentrate", left, right, "--n-from", "10", "--n-to", "10", "--quiet"
    )
    assert rc == 0
    terms = json.loads(out)["decompositions"][0]["terms"]
    assert sum(eval_fraction(term["coeff"]) for term in terms) == 1


def test_concentrate_budget_counts_only_matchings_that_fit(tmp_path, capsys):
    # two degree-8 cosets at n = 8: the 8! matchings with all points
    # matched fit, the other 1,401,409 would need a larger degree
    left = write(tmp_path, "p.json", {"blue": "(1 2 3 4 5 6 7 8)", "red": "(1 2)", "yellow": "()"})
    right = write(tmp_path, "q.json", {"blue": "(1 3)(2 4)(5 7)(6 8)", "red": "()", "yellow": "(1 8)"})
    rc, out, _ = invoke(
        capsys, "concentrate", left, right, "--n-from", "8", "--n-to", "8", "--quiet"
    )
    assert rc == 0
    terms = json.loads(out)["decompositions"][0]["terms"]
    assert sum(eval_fraction(term["coeff"]) for term in terms) == 1


def test_concentrate_budget_caps_input_degree(tmp_path, capsys):
    path = write(tmp_path, "p.json", {"blue": "(1 99999999999)", "red": "()", "yellow": "()"})
    rc, _, err = invoke(capsys, "concentrate", path, path)
    assert rc == 3 and "degree 99999999999" in err


def test_spherical_paths_agree(tmp_path, capsys):
    surface = write(tmp_path, "t.json", TRANSPOSITION)
    xi = write(tmp_path, "xi.json", unit_tensor())
    rc, out, _ = invoke(capsys, "spherical", surface, xi, "--quiet")
    assert rc == 0
    assert json.loads(out)["difference"] < 1e-10


def test_spherical_budget_and_schema_exits(tmp_path, capsys):
    surface = write(tmp_path, "t.json", TRANSPOSITION)
    xi = write(tmp_path, "xi.json", unit_tensor())
    rc, _, err = invoke(capsys, "spherical", surface, xi, "--max-assignments", "2")
    assert rc == 3
    bad = unit_tensor()
    bad["re"][0] = 2.0
    badxi = write(tmp_path, "bad.json", bad)
    rc, _, err = invoke(capsys, "spherical", surface, badxi)
    assert rc == 2 and "unit norm" in err


def connected_triple(rng, n):
    while True:
        t = random_triple(rng, n)
        if len(components(t)) == 1:
            return t


def test_spherical_reports_oracle_skipped_above_its_budget(tmp_path, capsys):
    rng = random.Random(61)
    xi = Tensor3.random_unit(rng, (2, 2, 2))
    xi_path = write(tmp_path, "xi.json", xi.to_json())
    # degree 8 as a 5 + 3 union, so that the recursion oracle stays quick
    surfaces = {8: disjoint_union(connected_triple(rng, 5), connected_triple(rng, 3))}
    surfaces.update({n: connected_triple(rng, n) for n in (10, 12)})
    for n, t in surfaces.items():
        path = write(tmp_path, "s%d.json" % n, t.to_json())
        rc, out, err = invoke(capsys, "spherical", path, xi_path)
        assert rc == 0, err
        data = json.loads(out)
        assert data["inner_product"] is None and data["difference"] is None
        entries = 8**n
        assert "oracle skipped: tensor power needs %d entries, budget %d" % (entries, 2**22) in err
        value = complex(data["assignment_sum"]["re"], data["assignment_sum"]["im"])
        assert abs(value) <= 1
        if n == 8:
            assert abs(value - assignment_sum_oracle(t, xi)) < 1e-10
    rc, out, _ = invoke(capsys, "spherical", path, xi_path, "--format", "tsv", "--quiet")
    assert rc == 0 and "inner_product\tnull\tnull\n" in out


def test_ik_project_budget_counts_permutations_per_surface(tmp_path, capsys):
    dt = write(tmp_path, "dt.json", DOUBLE_TRIANGLE)
    rc, out, _ = invoke(capsys, "ik-product", dt, dt, "--quiet")
    element = write(tmp_path, "x.json", json.loads(out))
    rc, out, err = invoke(capsys, "ik-project", element, "--n", "11")
    assert rc == 3 and out == ""
    assert "2 surfaces to degree 11" in err and "2 x 11!" in err and "1000000" in err
    # two distinct surfaces, 4! permutations each
    rc, _, err = invoke(capsys, "ik-project", element, "--n", "4", "--max-terms", "47")
    assert rc == 3 and "2 x 4!" in err and "47 budget" in err
    rc, _, _ = invoke(capsys, "ik-project", element, "--n", "4", "--max-terms", "48", "--quiet")
    assert rc == 0


def test_ik_product_and_projection(tmp_path, capsys):
    dt = write(tmp_path, "dt.json", DOUBLE_TRIANGLE)
    rc, out, _ = invoke(capsys, "ik-product", dt, dt, "--quiet")
    assert rc == 0
    element = json.loads(out)
    assert [term["coeff"] for term in element["terms"]] == ["1", "1"]
    xpath = write(tmp_path, "x.json", element)
    rc, out, _ = invoke(capsys, "ik-project", xpath, "--n", "3", "--quiet")
    assert rc == 0
    # m delta_e + m(m-1) delta_e at m = 3
    assert [term["coeff"] for term in json.loads(out)["terms"]] == ["9"]


def test_poisson_with_double_triangle_vanishes(tmp_path, capsys):
    dt = write(tmp_path, "dt.json", DOUBLE_TRIANGLE)
    other = write(tmp_path, "t.json", TRANSPOSITION)
    rc, out, _ = invoke(capsys, "poisson", other, dt, "--quiet")
    assert rc == 0
    assert json.loads(out)["terms"] == []


def test_dessin_formats(tmp_path, capsys):
    path = write(tmp_path, "t.json", TRANSPOSITION)
    rc, out, _ = invoke(capsys, "dessin", path)
    assert rc == 0 and out.startswith("graph dessin {")
    assert "shape=box" in out and "shape=circle" in out
    rc, out, _ = invoke(capsys, "dessin", path, "--format", "json")
    assert rc == 0
    assert len(json.loads(out)["edges"]) == 2


def test_census_counts_and_budget(tmp_path, capsys):
    rc, out, _ = invoke(capsys, "census", "--n", "3", "--quiet")
    assert rc == 0
    data = json.loads(out)
    assert [d["classes"] for d in data["degrees"]] == [1, 4, 11]
    assert all(d["classes"] == d["burnside"] for d in data["degrees"])
    rc, _, err = invoke(capsys, "census", "--n", "8")
    assert rc == 3 and "budget" in err


def test_census_refuses_huge_degree_promptly():
    # a subprocess, so that a budget check that runs the whole sum fails by
    # timing out instead of hanging the suite
    proc = subprocess.run(
        [sys.executable, "-m", "checkersurf.cli", "census", "--n", "100000"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert (
        "census up to degree 100000 enumerates at least 25935017 pairs of permutations, "
        "over the 1000000 budget" in proc.stderr
    )


def test_ik_product_refuses_huge_gluing_count_promptly(tmp_path):
    # two degree-10 surfaces: 234,662,231 partial bijections; the budget
    # check stops at k = 4, where the partial sum first passes 10^6
    path = write(
        tmp_path, "d10.json",
        {"blue": "(1 2 3 4 5 6 7 8 9 10)", "red": "(1 3)(2 7 5)", "yellow": "(4 9)(6 8 10)"},
    )
    proc = subprocess.run(
        [sys.executable, "-m", "checkersurf.cli", "ik-product", path, path],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert "at least 1148951 partial bijections, over the 1000000 budget" in proc.stderr


def test_poisson_refuses_huge_gluing_count_promptly(tmp_path):
    # two degree-1,000 surfaces: 2 x 1,000 x 1,000 single gluings, each a
    # canonicalization of degree 1,999
    cycles = "".join("(%d %d)" % (i, i + 1) for i in range(1, 1000, 2))
    path = write(tmp_path, "d1000.json", {"blue": cycles, "red": "()", "yellow": "()"})
    proc = subprocess.run(
        [sys.executable, "-m", "checkersurf.cli", "poisson", path, path],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert "at least 2000000 gluings, over the 1000000 budget" in proc.stderr


def test_gluing_charges_equal_the_glue_calls(tmp_path, capsys, monkeypatch):
    # the last running total that ik-product and poisson charge is the
    # number of ik._glue calls that follow, and the sum of _gluing_count
    # over the pieces each enumerates
    charged, glued = [], []

    def charge(totals, limit, what):
        totals = list(totals)
        charged.append(totals[-1])
        real_charge(totals, limit, what)

    def glue(*args):
        glued.append(1)
        return real_glue(*args)

    real_charge, real_glue = cli._charge, ik._glue
    monkeypatch.setattr(cli, "_charge", charge)
    monkeypatch.setattr(ik, "_glue", glue)
    rng = random.Random(91)
    for i in range(40):
        p, q = random_triple(rng, i % 5), random_triple(rng, rng.randint(1, 4))
        left, right = write(tmp_path, "p.json", p.to_json()), write(tmp_path, "q.json", q.to_json())
        pieces = {
            "ik-product": [(p, q, 0, k) for k in range(min(p.n, q.n) + 1)],
            "poisson": [(p, q, 0, 1), (q, p, 0, 1)],
        }
        for command, gluings in pieces.items():
            charged.clear()
            glued.clear()
            rc, _, err = invoke(capsys, command, left, right, "--quiet")
            assert rc == 0, err
            assert charged == [len(glued)]
            assert len(glued) == sum(surface._gluing_count(*g) for g in gluings)


def test_census_reads_each_class_in_one_components_pass(capsys, monkeypatch):
    calls = []

    def counted(t):
        calls.append(t)
        return real(t)

    real = surface.components
    monkeypatch.setattr(surface, "components", counted)
    rc, out, _ = invoke(capsys, "census", "--n", "4", "--quiet")
    assert rc == 0
    assert len(calls) == sum(d["classes"] for d in json.loads(out)["degrees"]) == 59


def test_census_breakdown_totals(tmp_path, capsys):
    rc, out, _ = invoke(capsys, "census", "--n", "3", "--quiet")
    data = json.loads(out)
    for entry in data["degrees"]:
        assert sum(b["count"] for b in entry["breakdown"]) == entry["classes"]


def test_negative_sizes_exit_two(tmp_path, capsys):
    rc, out, err = invoke(capsys, "census", "--n", "-1")
    assert rc == 2 and out == "" and "nonnegative" in err
    rc, out, err = invoke(capsys, "random", "--n", "-3")
    assert rc == 2 and out == "" and "nonnegative" in err
    element = write(tmp_path, "x.json", {"terms": []})
    rc, out, err = invoke(capsys, "ik-project", element, "--n", "-1")
    assert rc == 2 and out == "" and "nonnegative" in err


def test_inputs_asking_for_huge_degrees_exit_three(tmp_path, capsys):
    huge = {"blue": "()", "red": "()", "yellow": "()", "n": 10**12}
    huge_n = write(tmp_path, "n.json", huge)
    huge_point = write(
        tmp_path, "p.json", {"blue": "(1 1_000_000_000_000)", "red": "()", "yellow": "()"}
    )
    for path in (huge_n, huge_point):
        rc, out, err = invoke(
            capsys, "product", path, path, "--alpha", "0", "--beta", "0", "--gamma", "0"
        )
        assert rc == 3 and out == "" and "degree 1000000000000" in err
    element = write(tmp_path, "x.json", {"terms": [{"surface": huge, "coeff": "1"}]})
    rc, _, err = invoke(capsys, "ik-project", element, "--n", "3")
    assert rc == 3 and "degree 1000000000000" in err
    # a contraction costs at least one multiply-add per triangle pair
    xi = write(tmp_path, "xi.json", unit_tensor())
    rc, _, err = invoke(capsys, "spherical", write(tmp_path, "t.json", THREE), xi,
                        "--max-assignments", "2")
    assert rc == 3 and "degree 3, over the 2 budget" in err


def test_label_out_of_range_exits_two(tmp_path, capsys):
    path = write(tmp_path, "t.json", TRANSPOSITION)
    rc, out, err = invoke(
        capsys, "product", path, path, "--alpha", "0", "--beta", "3", "--gamma", "0"
    )
    assert rc == 2 and out == "" and "--beta 3" in err


def test_unexpected_errors_exit_four(tmp_path, capsys, monkeypatch):
    def broken(p, q):
        raise ValueError("broken on purpose")

    monkeypatch.setattr(cli, "circledast", broken)
    path = write(tmp_path, "t.json", TRANSPOSITION)
    rc, out, err = invoke(
        capsys, "product", path, path, "--alpha", "0", "--beta", "0", "--gamma", "0"
    )
    assert rc == 4 and out == ""
    assert "internal error: ValueError: broken on purpose" in err and "Traceback" not in err


def test_numpy_loads_only_for_spherical(tmp_path):
    path = write(tmp_path, "t.json", TRANSPOSITION)
    script = "\n".join([
        "import sys",
        "import checkersurf.cli",
        "argv = ['product', %r, %r, '--alpha', '0', '--beta', '0', '--gamma', '0', '--quiet']"
        % (path, path),
        "assert checkersurf.cli.main(argv) == 0",
        "assert checkersurf.cli.main(['random', '--n', '4', '--quiet']) == 0",
        "assert 'checkersurf.spherical' in sys.modules",
        "assert 'numpy' not in sys.modules, 'numpy was imported'",
    ])
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_random_is_seed_deterministic(capsys):
    rc1, out1, _ = invoke(capsys, "random", "--n", "5", "--seed", "11", "--quiet")
    rc2, out2, _ = invoke(capsys, "random", "--n", "5", "--seed", "11", "--quiet")
    rc3, out3, _ = invoke(capsys, "random", "--n", "5", "--seed", "12", "--quiet")
    assert rc1 == rc2 == rc3 == 0
    assert out1 == out2
    assert out1 != out3


def test_output_file_write(tmp_path, capsys):
    path = write(tmp_path, "t.json", TRANSPOSITION)
    target = tmp_path / "result.json"
    rc, out, _ = invoke(capsys, "canon", path, "--output", str(target), "--quiet")
    assert rc == 0 and out == ""
    assert json.loads(target.read_text())["n"] == 2


def test_output_file_gets_the_mode_open_gives_or_keeps_its_own(tmp_path, capsys):
    # the temporary file's 0600 is not left on the result: a new file gets
    # 0666 less the umask, an overwritten one keeps its mode
    path = write(tmp_path, "t.json", TRANSPOSITION)
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("")
    old.chmod(0o640)
    umask = os.umask(0o022)
    try:
        for target in (new, old):
            assert invoke(capsys, "canon", path, "--output", str(target))[0] == 0
    finally:
        os.umask(umask)
    assert (new.stat().st_mode & 0o777, old.stat().st_mode & 0o777) == (0o644, 0o640)
    assert json.loads(old.read_text())["n"] == 2


def files_under(root):
    return sorted(os.path.join(d, f) for d, _, names in os.walk(root) for f in names)


def spy_on(monkeypatch, name):
    """Replace the command main dispatches to for name with one that
    records its call and does no work; returns the record."""
    ran = []
    row = cli._BY_NAME[name]
    monkeypatch.setitem(cli._BY_NAME, name, row[:3] + (ran.append,) + row[4:])
    return ran


@pytest.mark.parametrize("target", ["missing/result.json", "out"])
def test_unwritable_output_exits_two_before_any_work(tmp_path, capsys, monkeypatch, target):
    # a missing parent directory, or a directory as the target, is refused
    # before the subcommand runs, and nothing is left behind
    path = write(tmp_path, "t.json", TRANSPOSITION)
    (tmp_path / "out").mkdir()
    ran = spy_on(monkeypatch, "canon")
    before = files_under(tmp_path)
    rc, out, err = invoke(capsys, "canon", path, "--output", str(tmp_path / target))
    assert rc == 2 and out == "" and ran == []
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert files_under(tmp_path) == before


@pytest.mark.parametrize("target", ["missing/result.json", "out"])
def test_output_write_failure_is_bad_usage_and_leaves_no_temporary(tmp_path, target):
    # should the path change after main checked it, mkstemp into a missing
    # directory and the replace onto a directory fail as bad usage (exit
    # 2), not as internal errors
    (tmp_path / "out").mkdir()
    with pytest.raises(SchemaError, match="^cannot write .*%s: " % target):
        cli._emit("{}\n", argparse.Namespace(output=str(tmp_path / target)))
    assert files_under(tmp_path) == []


def test_missing_and_malformed_inputs_exit_two(tmp_path, capsys):
    rc, _, err = invoke(capsys, "canon", str(tmp_path / "absent.json"))
    assert rc == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    rc, _, err = invoke(capsys, "canon", str(broken))
    assert rc == 2 and "JSON" in err


def test_mismatched_inner_labels_exit_two(tmp_path, capsys):
    left = write(tmp_path, "p.json", dict(TRANSPOSITION, alpha=0, beta=0))
    right = write(tmp_path, "q.json", dict(TRANSPOSITION, alpha=1, beta=1))
    rc, _, err = invoke(capsys, "concentrate", left, right)
    assert rc == 2


def test_concentrate_malformed_cosets_exit_two(tmp_path, capsys):
    good = write(tmp_path, "good.json", dict(TRANSPOSITION, alpha=0, beta=0))
    no_blue = {k: v for k, v in TRANSPOSITION.items() if k != "blue"}
    for name, payload, message in (
        ("no_blue.json", dict(no_blue, alpha=0, beta=0), "blue"),
        ("alpha_text.json", dict(TRANSPOSITION, alpha="x", beta=0), "alpha"),
        ("float_images.json", dict(TRANSPOSITION, blue=[2.0, 1.0]), "integers"),
    ):
        bad = write(tmp_path, name, payload)
        rc, out, err = invoke(capsys, "concentrate", bad, good)
        assert rc == 2 and out == "" and message in err
        assert "Traceback" not in err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=8,
)
PERMUTATION_LISTS = st.integers(0, 7).flatmap(lambda k: st.permutations(list(range(1, k + 1))))
CYCLE_STRINGS = st.lists(st.integers(-1, 9), max_size=6).map(
    lambda pts: "(" + " ".join(str(x) for x in pts) + ")"
)
PERMUTATION_VALUES = PERMUTATION_LISTS | CYCLE_STRINGS
SIZE_VALUES = st.integers(-1, 3) | st.integers() | JSON_VALUES
# well-formed colors, so that some runs get past the schema, or arbitrary
# objects with arbitrary keys
COSET_OBJECTS = st.fixed_dictionaries(
    {"blue": PERMUTATION_VALUES, "red": PERMUTATION_VALUES, "yellow": PERMUTATION_VALUES},
    optional={"n": SIZE_VALUES, "alpha": SIZE_VALUES, "beta": SIZE_VALUES},
) | st.dictionaries(
    st.sampled_from(["n", "blue", "red", "yellow", "alpha", "beta"]) | st.text(max_size=4),
    PERMUTATION_VALUES | SIZE_VALUES,
    max_size=7,
)


# one-hot unit tensors get past the schema; the rest mostly do not
UNIT_TENSORS = st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2)).flatmap(
    lambda dims: st.integers(0, prod(dims) - 1).map(
        lambda hot: {"dims": list(dims), "re": [float(i == hot) for i in range(prod(dims))]}
    )
)
TENSOR_OBJECTS = UNIT_TENSORS | st.fixed_dictionaries(
    {"dims": st.lists(SIZE_VALUES, max_size=4), "re": st.lists(SIZE_VALUES, max_size=8)},
    optional={"im": st.lists(SIZE_VALUES, max_size=8) | JSON_VALUES},
) | st.dictionaries(st.sampled_from(["dims", "re", "im"]) | st.text(max_size=3), JSON_VALUES,
                    max_size=4)
COEFF_VALUES = st.integers(-3, 3).map(str) | st.fractions().map(str) | JSON_VALUES
ELEMENT_OBJECTS = st.fixed_dictionaries(
    {"terms": st.lists(st.fixed_dictionaries({"surface": COSET_OBJECTS, "coeff": COEFF_VALUES}),
                       max_size=3)}
) | st.dictionaries(st.sampled_from(["terms"]) | st.text(max_size=3), JSON_VALUES, max_size=3)
FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def exit_code_on(payloads, argv):
    """Run the CLI on the payloads written as JSON files, whose paths
    replace the {0}, {1} ... fields of argv; no traceback may escape."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, payload in enumerate(payloads):
            paths.append(os.path.join(tmp, "input%d.json" % k))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([arg.format(*paths) for arg in argv])
    assert "Traceback" not in err.getvalue()
    return rc


@FUZZ
@given(left=COSET_OBJECTS, right=COSET_OBJECTS)
def test_concentrate_on_arbitrary_json_exits_cleanly(left, right):
    argv = ["concentrate", "{0}", "{1}", "--n-from", "6", "--n-to", "8", "--max-terms", "1000"]
    assert exit_code_on([left, right], argv) in (0, 2, 3)


@FUZZ
@given(surface=COSET_OBJECTS, xi=TENSOR_OBJECTS)
def test_spherical_on_arbitrary_json_exits_cleanly(surface, xi):
    argv = ["spherical", "{0}", "{1}", "--max-assignments", "10000"]
    assert exit_code_on([surface, xi], argv) in (0, 2, 3)


@FUZZ
@given(element=ELEMENT_OBJECTS)
def test_ik_project_on_arbitrary_json_exits_cleanly(element):
    argv = ["ik-project", "{0}", "--n", "4", "--max-terms", "1000"]
    assert exit_code_on([element], argv) in (0, 2, 3)


@FUZZ
@given(left=COSET_OBJECTS, right=COSET_OBJECTS, labels=st.lists(st.integers(0, 3), min_size=3,
                                                                 max_size=3))
def test_product_on_arbitrary_json_exits_cleanly(left, right, labels):
    argv = ["product", "{0}", "{1}", "--alpha", str(labels[0]), "--beta", str(labels[1]),
            "--gamma", str(labels[2])]
    assert exit_code_on([left, right], argv) in (0, 2, 3)


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def refused_format_argvs():
    # each subcommand with every format it does not print; the input files
    # need not exist, since the arguments are refused before any is read
    for name, _, _, _, formats, arguments in cli.SUBCOMMANDS:
        argv = [name]
        for flag, keywords in arguments:
            if not flag.startswith("-"):
                argv.append(flag + ".json")
            elif keywords.get("required"):
                argv += [flag, "3"]
        for fmt in dict(cli._COMMON)["--format"]["choices"]:
            if fmt not in formats:
                yield argv + ["--format", fmt]


@pytest.mark.parametrize(
    "argv",
    [*refused_format_argvs(), ["canon", "t.json", "--seed", "3"]],
    ids=lambda argv: " ".join(a for a in argv if not a.endswith(".json")),
)
def test_unprinted_format_or_foreign_option_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "error:" in capsys.readouterr().err


# JSON output: the direct writer against the stdlib encoding

def stdlib_json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


ODD_FLOATS = st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300])
ODD_TEXT = st.sampled_from(["", "\u00e9t\u00e9", "\x00\x1f\n\t\"\\/", "\u2028\ud800", "\U0001f600"])
JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats() | ODD_FLOATS | st.text(max_size=6)
    | ODD_TEXT | st.just({}) | st.just([])
)
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.lists(st.integers(), max_size=6)
    | st.dictionaries(st.text(max_size=4) | ODD_TEXT, children, max_size=4),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(payload=JSON_TREES)
def test_json_writer_matches_stdlib_byte_for_byte(payload):
    assert cli._json_text(payload) == stdlib_json_text(payload)


def subcommand_argv(tmp_path, capsys, name):
    three = write(tmp_path, "three.json", THREE)
    pair = write(tmp_path, "pair.json", TRANSPOSITION)
    if name == "ik-project":
        rc, out, _ = invoke(capsys, "ik-product", three, pair, "--quiet")
        assert rc == 0
        return ["ik-project", write(tmp_path, "x.json", json.loads(out)), "--n", "4"]
    coset = write(tmp_path, "coset.json", dict(TRANSPOSITION, alpha=0, beta=0))
    return {
        "canon": ["canon", three],
        "product": ["product", three, pair, "--alpha", "1", "--beta", "1", "--gamma", "0"],
        "concentrate": ["concentrate", coset, coset, "--n-from", "4", "--n-to", "6"],
        "spherical": ["spherical", three, write(tmp_path, "xi.json", unit_tensor())],
        "ik-product": ["ik-product", three, pair],
        "poisson": ["poisson", three, pair],
        "dessin": ["dessin", three, "--format", "json"],
        "census": ["census", "--n", "3"],
        "random": ["random", "--n", "5", "--seed", "3"],
    }[name]


@pytest.mark.parametrize("name", [row[0] for row in cli.SUBCOMMANDS])
def test_subcommand_json_matches_stdlib_encoding(tmp_path, capsys, name):
    argv = subcommand_argv(tmp_path, capsys, name)
    rc, out, err = invoke(capsys, *argv, "--quiet")
    assert rc == 0, err
    assert out == stdlib_json_text(json.loads(out))


@pytest.mark.parametrize("name", [row[0] for row in cli.SUBCOMMANDS])
def test_every_subcommand_refuses_a_missing_input_or_a_directory_output(
        tmp_path, capsys, monkeypatch, name):
    # each input file of a valid call, made missing alone, exits 2 with one
    # line; an --output onto a directory exits 2 before the command runs
    argv = subcommand_argv(tmp_path, capsys, name)
    files = [flag for flag, _ in cli._BY_NAME[name][5] if not flag.startswith("-")]
    for i in range(1, len(files) + 1):
        rc, out, err = invoke(capsys, *argv[:i], str(tmp_path / "absent.json"), *argv[i + 1:])
        assert (rc, out) == (2, "")
        assert err.startswith("error: cannot read ") and err.count("\n") == 1
        assert "Traceback" not in err
    ran = spy_on(monkeypatch, name)
    (tmp_path / "out").mkdir()
    rc, out, err = invoke(capsys, *argv, "--output", str(tmp_path / "out"))
    assert (rc, out, ran) == (2, "", [])
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


# JSON output of sparse combinations: written from their arrays, checked
# against the stdlib encoding of to_json()

def random_coefficient(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice([1, 1, 2, 3, 7]))


def random_labeled_coset(rng, alpha, beta):
    t = random_triple(rng, rng.randint(max(1, alpha, beta), 4))
    return DoubleCoset.from_triple(t, alpha, beta)


def seeded_elements(seed):
    """Elements of all three classes: integral, negative and non-integral
    coefficients, degree-0 keys, labeled keys, and empty elements."""
    rng = random.Random(seed)
    x = IKElement({
        checker_surface(random_triple(rng, rng.randint(0, 3))): random_coefficient(rng)
        for _ in range(5)
    })
    p, q = (checker_surface(random_triple(rng, 3)) for _ in range(2))
    empty_triple = Triple._from_zero_based(0, (), (), ())
    alpha, beta, gamma = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
    left, right = random_labeled_coset(rng, alpha, beta), random_labeled_coset(rng, beta, gamma)
    decomp = coset_decomposition(left, right, max(left.degree, right.degree) + 1)
    bare = DoubleCoset(canonical_form(empty_triple, 0, 0))
    return [
        x,
        ik_product(p, q).scale(random_coefficient(rng)),
        IKElement({checker_surface(empty_triple): Fraction(-1, 2)}),
        IKElement(),
        project(x, 4),
        project(x, 3).scale(Fraction(-5, 3)),
        GroupAlgebraElement(0, {empty_triple: Fraction(3, 4)}),
        GroupAlgebraElement(3),
        decomp,
        decomp.scale(Fraction(-7, 2)),
        coset_decomposition(bare, bare, 2),
        CosetAlgebraElement(4, alpha, gamma, {}),
    ]


@pytest.mark.parametrize("seed", range(12))
def test_element_json_matches_stdlib_encoding_of_to_json(seed):
    elements = seeded_elements(seed)
    kinds = {type(x) for x in elements}
    assert kinds == {IKElement, GroupAlgebraElement, CosetAlgebraElement}
    for x in elements:
        data = x.to_json()
        assert cli._json_text(x) == stdlib_json_text(data)
        # the same element at two depths of one payload
        nested = {"a": [x], "b": x}
        assert cli._json_text(nested) == stdlib_json_text({"a": [data], "b": data})
    assert cli._json_text(elements) == stdlib_json_text([x.to_json() for x in elements])


def test_element_json_covers_degree_zero_and_labeled_keys():
    texts = [cli._json_text(x) for seed in range(12) for x in seeded_elements(seed)]
    assert any('"blue": []' in text for text in texts)
    assert any('"alpha": 2' in text and '"beta": 1' in text for text in texts)
    assert any('"value": -' in text for text in texts)
    assert any('"terms": []' in text for text in texts)


def test_group_element_terms_print_in_trimmed_key_order():
    # Triple._key() order: at n = 3 the blue and yellow identities of
    # (id, (1 2), id) trim to length 2, a prefix of those of (id, (2 3), id),
    # so it comes first; by the untrimmed arrays it would come second
    first = Triple("()", "(1 2)", "()", n=3)
    second = Triple("()", "(2 3)", "()", n=3)
    e = GroupAlgebraElement(3, {second: 1, first: Fraction(1, 2)})
    assert [t for t, _ in e.items()] == [first, second]
    terms = json.loads(cli._json_text(e))["terms"]
    assert [term["triple"]["red"] for term in terms] == [[2, 1, 3], [1, 3, 2]]


def test_group_element_keys_given_below_degree_print_at_degree_n():
    e = GroupAlgebraElement(4, {
        Triple("(1 2)", "()", "()"): Fraction(1, 3),
        Triple("()", "(1 3)", "(1 2)", n=3): -2,
        Triple("()", "()", "()", n=0): 5,
    })
    data = e.to_json()
    assert [term["triple"]["n"] for term in data["terms"]] == [4, 4, 4]
    assert [len(term["triple"]["blue"]) for term in data["terms"]] == [4, 4, 4]
    assert cli._json_text(e) == stdlib_json_text(data)


@pytest.mark.parametrize("n", [0, 2, 4])
def test_ik_project_prints_the_to_json_of_the_projection(tmp_path, capsys, n):
    three = write(tmp_path, "three.json", THREE)
    pair = write(tmp_path, "pair.json", TRANSPOSITION)
    rc, out, _ = invoke(capsys, "ik-product", three, pair, "--quiet")
    assert rc == 0
    p, q = (checker_surface(Triple.from_json(t)) for t in (THREE, TRANSPOSITION))
    x = ik_product(p, q)
    assert out == stdlib_json_text(x.to_json())
    rc, out, _ = invoke(capsys, "ik-project", write(tmp_path, "x.json", json.loads(out)),
                        "--n", str(n), "--quiet")
    assert rc == 0
    assert out == stdlib_json_text(project(x, n).to_json())


def test_concentrate_prints_the_to_json_of_its_decompositions(tmp_path, capsys):
    left, right = dict(THREE, alpha=1, beta=1), dict(TRANSPOSITION, alpha=1, beta=2)
    argv = ["concentrate", write(tmp_path, "l.json", left), write(tmp_path, "r.json", right),
            "--n-from", "3", "--n-to", "7", "--quiet"]
    rc, out, err = invoke(capsys, *argv)
    assert rc == 0, err
    p, q = DoubleCoset.from_json(left), DoubleCoset.from_json(right)
    target = circledast(p, q)
    decomps = [coset_decomposition(p, q, n) for n in range(3, 8)]
    sigmas = [d.coefficient(target) for d in decomps]
    payload = {
        "target": target.to_json(),
        "series": [
            {"n": n, "sigma": str(s), "value": float(s)} for n, s in zip(range(3, 8), sigmas)
        ],
        "decompositions": [d.to_json() for d in decomps],
    }
    assert out == stdlib_json_text(payload)


@pytest.mark.parametrize("n", ["3000000", "1000000000000"])
def test_random_refuses_a_degree_over_the_cap_promptly(n):
    # the cap on input degrees holds for random's --n too; a subprocess, so
    # that building the triple instead fails by timing out
    proc = subprocess.run(
        [sys.executable, "-m", "checkersurf.cli", "random", "--n", n],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert "--n asks for degree %s, over the 1000000 budget" % n in proc.stderr


@pytest.mark.parametrize("n_to", ["200000", "1000000000000"])
def test_concentrate_charges_the_weighing_of_its_degree_range_promptly(tmp_path, n_to):
    # the transposition pair has 7 partial matchings, all weighed at every
    # degree from 4: the running total passes 10^6 at the 142,858th degree
    path = write(tmp_path, "p.json", dict(TRANSPOSITION, alpha=0, beta=0))
    proc = subprocess.run(
        [sys.executable, "-m", "checkersurf.cli", "concentrate", path, path, "--n-to", n_to],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert (
        "the decompositions of degrees 4 to %s weigh at least 1000006 partial matchings, "
        "over the 1000000 budget" % n_to in proc.stderr
    )


def test_concentrate_weighing_charge_counts_every_degree(tmp_path, capsys):
    # 7 matchings at each of the degrees 4..9: 42 passes a limit of 41 and
    # fits one of 42; the canonicalization charge, 7, passes neither
    path = write(tmp_path, "p.json", dict(TRANSPOSITION, alpha=0, beta=0))
    rc, _, err = invoke(capsys, "concentrate", path, path, "--max-terms", "41")
    assert rc == 3 and "degrees 4 to 9 weigh at least 42 partial matchings" in err
    rc, _, _ = invoke(capsys, "concentrate", path, path, "--max-terms", "42", "--quiet")
    assert rc == 0


def test_concentrate_weighs_the_degrees_where_every_matching_fits_in_one_step(
        tmp_path, capsys, monkeypatch):
    # from n = dp + kq on, matching_count is one constant; its degrees are
    # charged in closed form, not counted one degree at a time
    calls = []
    count = surface._gluing_count

    def counted(*args):
        calls.append(args)
        return count(*args)

    for module in (surface, convolution, cli):
        monkeypatch.setattr(module, "_gluing_count", counted)
    path = write(tmp_path, "e.json", {"n": 0, "blue": [], "red": [], "yellow": [],
                                      "alpha": 0, "beta": 0})
    rc, out, err = invoke(capsys, "concentrate", path, path, "--n-to", "1000000000000")
    assert rc == 3 and out == ""
    assert "weigh at least 1000001 partial matchings, over the 1000000 budget" in err
    dp = kp = kq = 0
    assert 0 < len(calls) <= (dp + kq + 2) * (min(kp, kq) + 1)


def test_weighing_totals_find_the_first_running_total_over_the_limit():
    # against the running totals of every degree, counted one by one
    def first_over(totals, limit):
        return next((t for t in totals if t > limit), None)

    rng = random.Random(62)
    for _ in range(100):
        alpha, beta, gamma = (rng.randint(0, 2) for _ in range(3))
        p = DoubleCoset.from_triple(random_triple(rng, rng.randint(max(alpha, beta), 4)), alpha, beta)
        q = DoubleCoset.from_triple(random_triple(rng, rng.randint(max(beta, gamma), 4)), beta, gamma)
        n_from = rng.randint(-2, 9)
        n_to = n_from + rng.randint(0, 12)
        every = [convolution.matching_count(p, q, n) for n in range(n_from, n_to + 1)]
        limit = rng.randint(0, sum(every) + 5)
        want = first_over(accumulate(every), limit)
        assert first_over(cli._weighing_totals(p, q, n_from, n_to, limit), limit) == want


def test_large_point_of_a_cycle_string_exits_three_exactly_over_the_cap(tmp_path, capsys):
    # ik-project caps its surfaces' degrees at --max-terms; at --n 1 it
    # lifts none of them, so an input under the cap exits 0
    rng = random.Random(61)
    limit = 40
    for i in range(30):
        big = rng.randint(limit - 3, limit + 3)
        points = rng.sample(range(1, limit - 3), rng.randint(1, 6)) + [big]
        rng.shuffle(points)
        cut = rng.randint(1, len(points))
        sep = rng.choice([" ", ", ", " ,"])
        cycles = "".join("(%s)" % sep.join(map(str, part)) for part in (points[:cut], points[cut:]))
        surface = {"blue": "()", "red": "()", "yellow": "()"}
        surface[rng.choice(["blue", "red", "yellow"])] = cycles
        path = write(tmp_path, "x%d.json" % i, {"terms": [{"surface": surface, "coeff": "1"}]})
        rc, _, err = invoke(capsys, "ik-project", path, "--n", "1", "--max-terms", str(limit))
        assert rc == (3 if big > limit else 0), (surface, err)
        assert ("asks for degree %d" % big in err) == (big > limit)


@pytest.mark.parametrize("text", ["(1 99999999999", "(1 99999999999))(", "(1 x 99999999999)"])
def test_malformed_cycle_string_is_rejected_before_its_points_are_read(tmp_path, capsys, text):
    path = write(tmp_path, "p.json", {"blue": text, "red": "()", "yellow": "()"})
    rc, out, err = invoke(capsys, "canon", path)
    assert rc == 2 and out == ""
    assert "budget" not in err
