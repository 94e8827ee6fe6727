"""Command-line front end.

Subcommands cover canonical forms, coset products, concentration tables,
spherical values, the filtered surface algebra, dessin export, the pair
census, and a seeded random generator. Exit codes: 0 success, 2 bad input
or usage, 3 budget exceeded, 4 internal failure (a cross-check that
disagreed or any other unexpected error). Every run is deterministic given
its flags and seed.

The enumerating subcommands, concentrate, ik-product, poisson, census and
ik-project, charge their work before it runs: _charge reads running totals
counted by the formula of the enumerator they bound (surface._gluing_count
for gluings) and exits 3 at the first total over the limit; concentrate
charges its matchings, then their weights over its degree range, the
degrees where every matching fits in one closed-form step. It then
canonicalizes each matching once and weighs every degree from the one
table of classes. An input triple's degree and random's --n are refused
over their limit, also exit 3.

A subcommand's whole contract is its row of SUBCOMMANDS: name, aliases,
help line, the command main runs, the formats it prints and its own
arguments. main reads a plain argv straight from the invoked row and the
options every subcommand shares (_read_argv), and dispatches through that
row. Any other argv, help, and every usage error go to the argparse parser
that build_parser makes from the same rows, so argparse writes every help
and error text. No parser or namespace is kept between calls.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import stat
import sys
import tempfile
from itertools import accumulate, permutations
from json.encoder import encode_basestring_ascii
from math import factorial, isfinite, log10
from operator import mul

from checkersurf.convolution import (
    SparseCombination, _decompositions, _matching_counts, matching_count)
from checkersurf.cosets import DoubleCoset, circledast, concat_geometric
from checkersurf.errors import BudgetError, InvariantError, SchemaError
from checkersurf.ik import IKElement, ik_product, poisson_bracket, project
from checkersurf.kernel import canonical_code
from checkersurf.perm import _cycle_points
from checkersurf.spherical import (
    DEFAULT_MAX_ASSIGNMENTS,
    Tensor3,
    spherical_assignment_sum,
    spherical_oracle,
)
from checkersurf.surface import (
    COLORS,
    CheckerSurface,
    Triple,
    _gluing_count,
    canonical_form,
    genus,
    random_triple,
    to_dessin,
)

DEFAULT_MAX_TERMS = 10**6

EXIT_SCHEMA = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SchemaError("cannot read %s: %s" % (path, exc)) from None
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer of too many digits
        raise SchemaError("invalid JSON in %s: %s" % (path, exc)) from None
    if not isinstance(data, dict):
        raise SchemaError("%s: expected a JSON object" % path)
    return data


def _check_degree(path: str, data, limit: int) -> None:
    """Refuse, before building it, a triple whose JSON asks for a degree
    over limit: its "n" or the largest point of a well-formed cycle string."""
    if not isinstance(data, dict):
        return
    sizes = [data.get("n")]
    for color in COLORS:
        value = data.get(color)
        if isinstance(value, str):
            try:
                sizes += [max(points, default=0) for points in _cycle_points(value)]
            except ValueError:
                pass  # malformed: the parser rejects it before it allocates
    degree = max((s for s in sizes if type(s) is int), default=0)
    if degree > limit:
        raise BudgetError("%s asks for degree %d, over the %d budget" % (path, degree, limit))


def _load_triple(path: str, max_degree: int = DEFAULT_MAX_TERMS) -> Triple:
    data = _load_json(path)
    _check_degree(path, data, max_degree)
    try:
        return Triple.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError("%s: %s" % (path, exc)) from None


def _load_coset(path: str, max_terms: int) -> DoubleCoset:
    data = _load_json(path)
    _check_degree(path, data, max_terms)
    return DoubleCoset.from_json(data)


def _require_labels(path: str, t: Triple, **labels) -> None:
    for name, value in labels.items():
        if not 0 <= value <= t.n:
            raise SchemaError(
                "--%s %d is outside 0..%d, the degree of %s" % (name, value, t.n, path)
            )


def _require_nonnegative(n: int) -> None:
    if n < 0:
        raise SchemaError("--n must be nonnegative, got %d" % n)


def _json_text(payload) -> str:
    """The text of json.dumps(payload, indent=2, sort_keys=True) and a line
    break, byte for byte, written directly: the stdlib uses its C encoder
    only without indent. A SparseCombination in payload is written as its
    to_json() would be, but from its keys' arrays, with no dict per term."""
    return _json(payload, "\n", {}) + "\n"


def _json(value, newline: str, memo: dict) -> str:
    # newline is a line break plus the indentation of value's own level;
    # memo is _combination_json's, for this payload only
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and isfinite(value):
        return float.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = newline + "  "
    if (kind is list or kind is tuple) and value:
        if all(type(x) is int for x in value):
            items = map(int.__repr__, value)
        else:
            items = [_json(x, inner, memo) for x in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict and value and all(type(key) is str for key in value):
        items = [
            encode_basestring_ascii(key) + ": " + _json(value[key], inner, memo)
            for key in sorted(value)
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, SparseCombination):
        return _combination_json(value, newline, memo)
    # nan, infinities, empty containers, other key types: the encoder's
    # own line breaks need only this level's indentation added
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", newline)


class _ArrayTexts(dict):
    """The JSON text of 0-based arrays written 1-based at the level
    newline, each made on its first lookup."""

    def __init__(self, newline: str):
        super().__init__()
        self.newline = newline

    def __missing__(self, arr):
        if arr:
            inner = self.newline + "  "
            text = "[" + inner + ("," + inner).join([str(x + 1) for x in arr]) + self.newline + "]"
        else:
            text = "[]"
        self[arr] = text
        return text


def _members(texts: dict, newline: str) -> str:
    """A JSON object at the level newline from the texts of its members."""
    inner = newline + "  "
    items = [encode_basestring_ascii(key) + ": " + texts[key] for key in sorted(texts)]
    return "{" + inner + ("," + inner).join(items) + newline + "}"


def _combination_json(element, newline: str, memo: dict) -> str:
    """The text of element.to_json() at the level newline. Each term fills
    one %-template with its _term_fields and its key's _key_members, the
    arrays' texts made once. memo maps the level of a key's members to the
    text of each array written there."""
    inner = newline + "  "
    texts = {name: _json(getattr(element, name), inner, memo) for name in element._params}
    items = element._terms()
    if not items:
        texts["terms"] = "[]"
        return _members(texts, newline)
    term_nl = inner + "  "
    field_nl = term_nl + "  "
    key_nl = field_nl + "  "
    arrays = memo.setdefault(key_nl, _ArrayTexts(key_nl))
    key = {name: "%%(%s)s" % name for name in element._key_members(items[0][0], str)}
    fields = {name: "%%(%s)s" % name for name, _ in element._term_fields}
    fields[element._field] = _members(key, field_nl)
    template = _members(fields, term_nl)
    array_text = arrays.__getitem__
    key_members = element._key_members
    terms = []
    for k, val in items:
        values = key_members(k, array_text)
        for name, make in element._term_fields:
            values[name] = _json(make(val), field_nl, memo)
        terms.append(template % values)
    texts["terms"] = "[" + term_nl + ("," + term_nl).join(terms) + inner + "]"
    return _members(texts, newline)


def _tsv_text(rows) -> str:
    return "".join("\t".join(str(c) for c in row) + "\n" for row in rows)


def _emit(text: str, args) -> None:
    if args.output is not None:
        try:
            # mkstemp makes the file 0600: an overwritten file keeps its
            # mode, and a new one gets the mode open() would give it
            try:
                st = os.stat(args.output)
            except FileNotFoundError:
                umask = os.umask(0)
                os.umask(umask)
                mode = 0o666 & ~umask
            else:
                mode = stat.S_IMODE(st.st_mode)
                if not stat.S_ISREG(st.st_mode):  # a device or a FIFO is written in place
                    with open(args.output, "w", encoding="utf-8") as fh:
                        fh.write(text)
                    return
            target = os.path.realpath(args.output)  # through a symlink, onto the file it names
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp-emit-")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    os.fchmod(fh.fileno(), mode)
                    fh.write(text)
                os.replace(tmp, target)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
        except OSError as exc:  # the path changed since main checked it, or the write failed
            raise SchemaError("cannot write %s: %s" % (args.output, exc.strerror or exc)) from None
    else:
        sys.stdout.write(text)


def _note(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _element_rows(element) -> list:
    rows = [("n", "blue", "red", "yellow", "coeff", "value")]
    for key, val in element.items():
        rows.append((key.n, *key.cycle_strings(), str(val), float(val)))
    return rows


def _emit_surface(surface, args, tsv_tail, **json_extra) -> None:
    """Print a LabeledSurface in args.format: the DOT of its dessin, its
    describe() JSON with json_extra added, or TSV rows of its degree,
    labels and cycle strings followed by the rows tsv_tail(info) makes of
    that JSON."""
    if args.format == "dot":
        _emit(to_dessin(surface).to_dot() + "\n", args)
        return
    info = surface.describe()
    if args.format == "tsv":
        rows = [("degree", surface.n), ("alpha", surface.alpha), ("beta", surface.beta)]
        rows += zip(COLORS, surface.cycle_strings())
        _emit(_tsv_text(rows + tsv_tail(info)), args)
    else:
        info.update(json_extra)
        _emit(_json_text(info), args)


def cmd_canon(args) -> None:
    t = _load_triple(args.input)
    _require_labels(args.input, t, alpha=args.alpha, beta=args.beta)
    form = canonical_form(t, args.alpha, args.beta)
    _emit_surface(form, args, lambda info: [
        ("components", len(info["components"])),
        ("chi", " ".join(str(c) for c in info["chi"])),
        ("genus", " ".join(str(g) for g in info["genus"])),
    ])


def cmd_product(args) -> None:
    left, right = _load_triple(args.left), _load_triple(args.right)
    _require_labels(args.left, left, alpha=args.alpha, beta=args.beta)
    _require_labels(args.right, right, beta=args.beta, gamma=args.gamma)
    p = DoubleCoset.from_triple(left, args.alpha, args.beta)
    q = DoubleCoset.from_triple(right, args.beta, args.gamma)
    algebraic = circledast(p, q)
    geometric = concat_geometric(p.surface, q.surface)
    if algebraic.surface != geometric:
        raise InvariantError(
            "shift-stabilized product disagrees with geometric concatenation"
        )
    _note(args, "both product paths agree")
    _emit_surface(algebraic.surface, args, lambda info: [("paths_agree", "true")],
                  paths_agree=True)


def cmd_concentrate(args) -> None:
    p = _load_coset(args.left, args.max_terms)
    q = _load_coset(args.right, args.max_terms)
    if args.n_from > args.n_to:
        raise SchemaError("--n-from must not exceed --n-to")
    _charge(
        accumulate(_matching_counts(p, q, args.n_to)), args.max_terms,
        "the decomposition up to degree %d canonicalizes {} partial matchings" % args.n_to,
    )
    _charge(
        _weighing_totals(p, q, args.n_from, args.n_to, args.max_terms), args.max_terms,
        "the decompositions of degrees %d to %d weigh {} partial matchings"
        % (args.n_from, args.n_to),
    )
    degrees = range(args.n_from, args.n_to + 1)
    target = circledast(p, q)
    decomps = _decompositions(p, q, degrees)
    series = [decomp.coefficient(target) for decomp in decomps]
    rows = [("n", "sigma", "value")]
    for n, sigma in zip(degrees, series):
        rows.append((n, str(sigma), float(sigma)))
    if args.format == "json":
        payload = {
            "target": target.to_json(),
            "series": [
                {"n": n, "sigma": str(sigma), "value": float(sigma)}
                for n, sigma in zip(degrees, series)
            ],
            "decompositions": decomps,
        }
        _emit(_json_text(payload), args)
    else:
        _emit(_tsv_text(rows), args)


def cmd_spherical(args) -> None:
    # a contraction costs at least one multiply-add per triangle pair, so
    # a degree over the budget is over it
    t = _load_triple(args.surface, args.max_assignments)
    xi = Tensor3.from_json(_load_json(args.xi))
    direct = spherical_assignment_sum(t, xi, max_assignments=args.max_assignments)
    try:
        oracle = spherical_oracle(t, xi)
    except BudgetError as exc:
        oracle = difference = None
        _note(args, "oracle skipped: %s" % exc)
    else:
        difference = abs(direct - oracle)
        _note(args, "assignment sum and inner product differ by %.3e" % difference)
    if args.format == "tsv":
        rows = [("path", "re", "im"), ("assignment_sum", direct.real, direct.imag)]
        if oracle is None:
            rows += [("inner_product", "null", "null"), ("difference", "null", "null")]
        else:
            rows += [("inner_product", oracle.real, oracle.imag), ("difference", difference, 0.0)]
        _emit(_tsv_text(rows), args)
    else:
        payload = {
            "assignment_sum": {"re": direct.real, "im": direct.imag},
            "inner_product": None if oracle is None else {"re": oracle.real, "im": oracle.imag},
            "difference": difference,
        }
        _emit(_json_text(payload), args)


def _emit_element(element, args) -> None:
    if args.format == "tsv":
        _emit(_tsv_text(_element_rows(element)), args)
    else:
        _emit(_json_text(element), args)


def cmd_ik_product(args) -> None:
    left, right = _load_triple(args.left), _load_triple(args.right)
    _charge(
        accumulate(_gluing_count(left, right, 0, k) for k in range(min(left.n, right.n) + 1)),
        DEFAULT_MAX_TERMS,
        "the gluing product of degrees %d and %d enumerates {} partial bijections"
        % (left.n, right.n),
    )
    _emit_element(ik_product(left, right), args)


def cmd_ik_project(args) -> None:
    _require_nonnegative(args.n)
    data = _load_json(args.input)
    terms = data.get("terms")
    for term in terms if isinstance(terms, list) else ():
        if isinstance(term, dict):
            _check_degree(args.input, term.get("surface"), args.max_terms)
    x = IKElement.from_json(data)
    lifted = sum(1 for surface, _ in x.items() if surface.n <= args.n)
    if lifted:
        _charge(
            accumulate(range(1, args.n + 1), mul, initial=lifted), args.max_terms,
            "lifting %d surfaces to degree %d is charged %d x %d!, {} injections"
            % (lifted, args.n, lifted, args.n),
        )
    _emit_element(project(x, args.n), args)


def cmd_poisson(args) -> None:
    left, right = _load_triple(args.left), _load_triple(args.right)
    _charge(
        accumulate([_gluing_count(left, right, 0, 1), _gluing_count(right, left, 0, 1)]),
        DEFAULT_MAX_TERMS,
        "the Poisson bracket of degrees %d and %d enumerates {} gluings" % (left.n, right.n),
    )
    _emit_element(poisson_bracket(left, right), args)


def cmd_dessin(args) -> None:
    t = _load_triple(args.input)
    dessin = to_dessin(t)
    if args.format == "json":
        _emit(_json_text(dessin.to_json()), args)
    else:
        _emit(dessin.to_dot() + "\n", args)


def _count_text(count: int) -> str:
    """A lower bound on count: its digits when short, else its magnitude
    from its bit length, as an int of over 4,300 digits refuses str()."""
    if count < 10**18:
        return "at least %d" % count
    return "more than 10^%d" % int((count.bit_length() - 1) * log10(2))


def _weighing_totals(p, q, n_from: int, n_to: int, limit: int):
    """The running totals of matching_count(p, q, n) over n_from..n_to
    that _charge reads to find the first one over limit (limit >= 0). The
    count is 0 below the degrees of p and q, and a constant c from
    n = dp + kq on, where every matching fits. That tail is one total,
    s + k c after the total s of the degrees before it: k is the tail's
    length or, if less, (limit - s) // c + 1, the first k past limit."""
    saturated = p.degree + q.degree - p.beta
    total = 0
    for n in range(max(n_from, p.degree, q.degree), min(n_to + 1, saturated)):
        total += matching_count(p, q, n)
        yield total
    tail = n_to + 1 - max(n_from, saturated)
    if tail > 0:
        c = matching_count(p, q, saturated)
        yield total + min(tail, (limit - total) // c + 1) * c


def _charge(totals, limit: int, what: str) -> None:
    """Raise BudgetError at the first nondecreasing running total over
    limit, reading no further; the message is what, {} filled by it."""
    for total in totals:
        if total > limit:
            raise BudgetError("%s, over the %d budget" % (what.format(_count_text(total)), limit))


def _partitions(n: int, largest: int | None = None):
    if n == 0:
        yield ()
        return
    if largest is None:
        largest = n
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _burnside_pair_classes(n: int) -> int:
    # orbits of diagonal conjugation on pairs: sum over cycle types of the
    # centralizer order z_lambda
    total = 0
    for lam in _partitions(n):
        z = 1
        mult = {}
        for part in lam:
            mult[part] = mult.get(part, 0) + 1
        for part, m in mult.items():
            z *= (part**m) * factorial(m)
        total += z
    return total


def cmd_census(args) -> None:
    _require_nonnegative(args.n)
    _charge(
        accumulate(factorial(d) ** 2 for d in range(1, args.n + 1)), args.max_terms,
        "census up to degree %d enumerates {} pairs of permutations" % args.n,
    )
    report = []
    for d in range(1, args.n + 1):
        seen = set()
        ident = tuple(range(d))
        for g1 in permutations(range(d)):
            for g2 in permutations(range(d)):
                seen.add(canonical_code(d, g1, g2, ident, 0, 0, False))
        expected = _burnside_pair_classes(d)
        if len(seen) != expected:
            raise InvariantError(
                "census at degree %d found %d classes, Burnside predicts %d"
                % (d, len(seen), expected)
            )
        breakdown = {}
        for code in seen:
            # one chi per component, from one components pass
            chis = CheckerSurface(*code).chi_by_component
            key = (len(chis), sum(map(genus, chis)))
            breakdown[key] = breakdown.get(key, 0) + 1
        report.append((d, len(seen), expected, breakdown))
        _note(args, "degree %d: %d classes, Burnside agrees" % (d, len(seen)))
    if args.format == "json":
        payload = {
            "degrees": [
                {
                    "n": d,
                    "classes": count,
                    "burnside": expected,
                    "breakdown": [
                        {"components": comps, "genus": gen, "count": c}
                        for (comps, gen), c in sorted(items.items())
                    ],
                }
                for d, count, expected, items in report
            ]
        }
        _emit(_json_text(payload), args)
    else:
        rows = [("n", "components", "genus", "count", "classes_total", "burnside")]
        for d, count, expected, items in report:
            for (comps, gen), c in sorted(items.items()):
                rows.append((d, comps, gen, c, count, expected))
        _emit(_tsv_text(rows), args)


def cmd_random(args) -> None:
    _require_nonnegative(args.n)
    _check_degree("--n", {"n": args.n}, DEFAULT_MAX_TERMS)
    rng = random.Random(args.seed)
    t = random_triple(rng, args.n)
    if args.format == "tsv":
        _emit(_tsv_text([*zip(COLORS, t.cycle_strings()), ("n", t.n)]), args)
    else:
        _emit(_json_text(t.to_json()), args)


def _max_terms(help_text: str) -> tuple:
    """The --max-terms argument, its help text ending in its default."""
    return ("--max-terms", {"type": int, "default": DEFAULT_MAX_TERMS,
                            "help": help_text + " (default %d)" % DEFAULT_MAX_TERMS})


_TRIPLE_FILE = {"help": "triple JSON file"}
_COSET_FILE = {"help": "coset JSON (triple plus alpha, beta)"}

# every subcommand's options, added first
_COMMON = (
    ("--format", {
        "choices": ("json", "tsv", "dot"),
        "default": None,
        "help": "output format; each subcommand prints some of these and refuses "
        "the rest (default json; dot for dessin)",
    }),
    ("--quiet", {"action": "store_true", "help": "suppress status notes"}),
    ("--output", {"help": "write the result to this file atomically"}),
)

# A subcommand's whole contract, one row each: name, aliases, help line,
# the command main runs, the formats it prints (its default first), and
# its own arguments as (flag, add_argument keywords) pairs in order.
SUBCOMMANDS = (
    ("canon", (), "canonical form of a labeled surface", cmd_canon, ("json", "tsv", "dot"), (
        ("input", _TRIPLE_FILE),
        ("--alpha", {"type": int, "default": 0, "help": "black labels"}),
        ("--beta", {"type": int, "default": 0, "help": "white labels"}),
    )),
    ("product", ("coset-product",), "coset product via both code paths", cmd_product,
     ("json", "tsv", "dot"), (
        ("left", {"help": "triple JSON of the left factor"}),
        ("right", {"help": "triple JSON of the right factor"}),
        ("--alpha", {"type": int, "required": True}),
        ("--beta", {"type": int, "required": True}),
        ("--gamma", {"type": int, "required": True}),
    )),
    ("concentrate", (), "concentration series and decompositions", cmd_concentrate,
     ("json", "tsv"), (
        ("left", _COSET_FILE),
        ("right", _COSET_FILE),
        ("--n-from", {"type": int, "default": 4, "dest": "n_from"}),
        ("--n-to", {"type": int, "default": 9, "dest": "n_to"}),
        _max_terms(
            "largest permitted number of partial matchings to canonicalize "
            "up to --n-to, and of matchings to weigh summed over the degrees "
            "--n-from to --n-to; separately, the largest degree an input may "
            "ask for"),
    )),
    ("spherical", (), "spherical value by both paths", cmd_spherical, ("json", "tsv"), (
        ("surface", _TRIPLE_FILE),
        ("xi", {"help": "unit tensor JSON file"}),
        ("--max-assignments", {
            "type": int,
            "default": DEFAULT_MAX_ASSIGNMENTS,
            "help": "largest permitted number of multiply-adds of the planned "
            "contraction; also caps the input's degree (default %d)" % DEFAULT_MAX_ASSIGNMENTS,
        }),
    )),
    ("ik-product", (), "gluing product in the surface algebra", cmd_ik_product,
     ("json", "tsv"), (("left", _TRIPLE_FILE), ("right", _TRIPLE_FILE))),
    ("ik-project", (), "projection to a pair group algebra", cmd_ik_project, ("json", "tsv"), (
        ("input", {"help": "element JSON file"}),
        ("--n", {"type": int, "required": True, "help": "target degree"}),
        _max_terms(
            "largest permitted enumeration, charged n! per distinct surface "
            "of degree at most --n (an upper bound on the injections of its moved "
            "points that its lift enumerates); separately, the largest degree an "
            "input surface may ask for"),
    )),
    ("poisson", (), "Poisson bracket of two surfaces", cmd_poisson, ("json", "tsv"),
     (("left", _TRIPLE_FILE), ("right", _TRIPLE_FILE))),
    ("dessin", (), "bipartite graph of the blue edges", cmd_dessin, ("dot", "json"),
     (("input", _TRIPLE_FILE),)),
    ("census", (), "pair classes by degree with statistics", cmd_census, ("json", "tsv"), (
        ("--n", {"type": int, "required": True, "help": "largest degree"}),
        _max_terms("largest permitted enumeration"),
    )),
    ("random", (), "seeded uniform random triple", cmd_random, ("json", "tsv"), (
        ("--n", {"type": int, "required": True, "help": "degree"}),
        ("--seed", {"type": int, "default": 0, "help": "random seed (default 0)"}),
    )),
)
_BY_NAME = {name: row for row in SUBCOMMANDS for name in (row[0],) + row[1]}


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser with every subcommand's parser."""
    parser = argparse.ArgumentParser(
        prog="checkersurf",
        description="Calculus of checker triangulated surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, aliases, help_line, _, _, arguments in SUBCOMMANDS:
        p = sub.add_parser(name, aliases=aliases, help=help_line)
        for flag, keywords in _COMMON + arguments:
            p.add_argument(flag, **keywords)
    return parser


def _read_argv(argv: list):
    """build_parser().parse_args(argv), read from the invoked row alone, or
    None unless argv is a subcommand name or alias, its positionals, then
    exact --option value and --flag tokens given once, no positional or value
    starting with "-", each value passing type and choices, required given."""
    row = _BY_NAME.get(argv[0]) if argv else None
    if row is None:
        return None
    names = [flag for flag, _ in row[5] if flag[0] != "-"]
    positionals = argv[1:len(names) + 1]
    if len(positionals) < len(names) or any(value[:1] == "-" for value in positionals):
        return None
    options = {flag: keywords for flag, keywords in _COMMON + row[5] if flag[0] == "-"}
    given = {}
    rest = iter(argv[len(names) + 1:])
    for flag in rest:
        keywords = options.get(flag)
        if keywords is None or flag in given:
            return None
        if "action" in keywords:  # store_true
            given[flag] = True
            continue
        value = next(rest, "-")
        if value[:1] == "-":
            return None
        try:
            given[flag] = value = keywords.get("type", str)(value)
        except (TypeError, ValueError):
            return None
        if value not in keywords.get("choices", (value,)):
            return None
    args = argparse.Namespace(command=argv[0], **dict(zip(names, positionals)))
    for flag, keywords in options.items():
        if flag not in given and keywords.get("required"):
            return None
        default = keywords.get("default", False if "action" in keywords else None)
        setattr(args, keywords.get("dest", flag[2:].replace("-", "_")), given.get(flag, default))
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv) or build_parser().parse_args(argv)
    command, formats = _BY_NAME[args.command][3:5]
    args.format = args.format or formats[0]
    if args.format not in formats:
        build_parser().error("%s prints only --format %s" % (args.command, " or ".join(formats)))
    try:
        # an --output path that is empty, a directory, or not in one, fails before any work
        target = args.output is not None and os.path.realpath(args.output)
        if target and (os.path.isdir(target) or not os.path.isdir(os.path.dirname(target))):
            raise SchemaError("cannot write %s: not a file in an existing directory" % args.output)
        command(args)
    except SchemaError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_SCHEMA
    except BudgetError as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    except InvariantError as exc:
        print("invariant violated: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        # bad input is reported as SchemaError where it is read, so
        # anything else is a fault of the program
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INTERNAL
    return 0


if __name__ == "__main__":
    sys.exit(main())
