"""Command-line surface.

Subcommands: validate | neigh | approx | regions | mg | check | gen | sweep.

Exit codes: 0 ok, 2 file parse error, 3 covering validation error,
4 parameter error (a failed write to standard output, such as a full disk,
too), 5 differential-check failure, 141 standard output closed before the
command finished writing (the reader went away; nothing more is written and
nothing is printed to stderr).

The parser refuses a malformed command line before any file is read: an
unregistered flag, an op id outside the command's table, a scalar flag with
its list, a path with --random, a count below 1.  The commands check what needs
the file or the op: decimals, required flags, list lengths, the sweep bound.

A well-formed command line never builds argparse: `_scan` reads it against
the arguments the subcommand's function in `SUBCOMMANDS` declares (exact flag
names, each once, each value the next token and not starting with '-').
Help, an abbreviation, `--flag=value`, a negative value, `--`, a repeated
flag and every refused line go to argparse, which writes every help, usage
and error text.  Building argparse imports `locale` through gettext and
compiles its patterns: in a fresh CPython 3.11 interpreter, `cli.main` on
`validate fixtures/crisp.json` took 2.5-4.2 ms with it and 0.3-0.6 ms without.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import os
import sys

from . import operators, sysio
from .exact import DecimalFormatError, format_each, format_scaled, parse_degree, parse_scaled
from .model import (
    Grade,
    ParameterError,
    StructuralError,
    ThresholdPair,
    ValidationError,
    validate_covering,
)
from .multi import Combinator
from .neighborhood import build_table
from .single import ResidualMode, diagnostics

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_PARAMETER = 4
EXIT_CHECK = 5
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it

SINGLE_OPS = {
    "prob": "prob", "grade": "grade", "dq1": "dq1", "dq2": "dq2", "dq-all": "dq1", "dq-any": "dq2",
}

REGION_OPS = {"prob": "prob", "grade": "grade"}

# mg-<family>1 / -all fold with ALL, mg-<family>2 / -any with ANY
MG_OPS = {
    f"mg-{family}{suffix}": (f"mg-{family}", comb)
    for family in ("prob", "grade", "dq")
    for suffix, comb in (
        ("1", Combinator.ALL), ("2", Combinator.ANY),
        ("-all", Combinator.ALL), ("-any", Combinator.ANY),
    )
}


def _stdout(text: str) -> None:
    """Write `text` to standard output and flush it, so a failed write shows here.

    A closed pipe stays a BrokenPipeError (exit 141); any other failure, such
    as a full disk, is a parameter error naming standard output (exit 4).
    """
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as e:
        # the unwritten rest, flushed at exit, goes nowhere instead of failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(e, BrokenPipeError):
            raise
        raise ParameterError(f"standard output: {e.strerror or e}") from None


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on its own; route flag problems to exit 4
    def error(self, message):
        raise ParameterError(message)

    def print_help(self, file=None):  # argparse drops a failed write; `main` must see it
        if file is None:
            _stdout(self.format_help())
        else:
            super().print_help(file)


def _out_path(text: str) -> str:
    """The --out value: an empty one (an unset shell variable) would name no file."""
    if not text:
        raise argparse.ArgumentTypeError("expected a file path, got an empty string")
    return text


def _positive(text: str) -> int:
    """An integer flag value of at least 1 (--count, --n, --m, --members)."""
    with contextlib.suppress(ValueError):
        if (value := int(text)) >= 1:
            return value
    raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")


def _emit(text: str, out_path: str | None) -> None:
    """Write to stdout, or replace the file at `out_path` whole.

    The text goes to a new temporary file beside the target (through a
    symlink, beside the file it names), which then takes the target's
    permissions, or those a new file gets under the umask, and is moved over
    it with os.replace, so a failed write leaves an existing target as it
    was.  A target that exists but is not a regular file (/dev/null, a pipe)
    is written in place: replacing it would put a plain file where it was.
    """
    if out_path is None:
        _stdout(text)
        return
    in_place = os.path.exists(out_path) and not os.path.isfile(out_path)
    path = out_path if in_place else os.path.realpath(out_path)
    tmp = None
    try:
        if in_place:
            fh = open(path, "w", encoding="utf-8")
        else:
            import tempfile  # it imports shutil and random, which only a replaced file needs

            head, name = os.path.split(path)
            fd, tmp = tempfile.mkstemp(dir=head, prefix=f"{name}.", suffix=".tmp")
            fh = open(fd, "w", encoding="utf-8")
        with fh:
            fh.write(text)
        if tmp:
            mask = os.umask(0)
            os.umask(mask)
            os.chmod(tmp, os.stat(path).st_mode & 0o7777 if os.path.exists(path) else 0o666 & ~mask)
            os.replace(tmp, path)
    except OSError as e:
        if tmp:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise ParameterError(f"--out {out_path}: {e.strerror or e}") from None


def _parse(param: str, text: str, flag: str | None = None) -> int:
    """Micro-units of a flag value: any decimal for k, a degree in [0, 1] otherwise."""
    try:
        return (parse_scaled if param == "k" else parse_degree)(text)
    except DecimalFormatError as e:
        raise ParameterError(f"{flag or '--' + param}: {e}") from None


def _setup(args, ops: dict):
    """Load the file, pick the op, the target and the mode."""
    sf = sysio.load(args.path)
    return sf, ops[args.op], sf.target(args.target), ResidualMode(args.residual_mode)


def _given(family: str, read) -> dict:
    """{param: read(param)} for the parameters a family reads (`operators.parameters_read`).

    `read` returns None for a flag that was not given.  Every given flag is
    read, so a malformed value is refused even where the family ignores it.
    """
    given = {param: read(param) for param in ("alpha", "beta", "k")}
    values = {param: given[param] for param in operators.parameters_read(family)}
    for param, value in values.items():
        if value is None:
            raise ParameterError(f"--{param} is required for this operator")
    return values


def _flags(args, parse):
    """A `_given` reader that applies `parse(param, text)` to each given flag."""
    return lambda param: (
        None if getattr(args, param) is None else parse(param, getattr(args, param))
    )


def _point(values: dict) -> tuple[ThresholdPair | None, Grade | None]:
    """The threshold pair and the grade of one parameter point, None where not read."""
    t = ThresholdPair(values["alpha"], values["beta"]) if "alpha" in values else None
    k = Grade(values["k"]) if "k" in values else None
    return t, k


def _emit_result(args, sf: sysio.SystemFile, result, **fields) -> None:
    """Write the result document of `result` and `fields` in the --format asked for."""
    doc = sysio.result_document(
        result, target=args.target, residual_mode=args.residual_mode, **fields
    )
    as_csv = args.format == "csv"
    _emit(sysio.render_result_csv(doc, sf.universe) if as_csv else sysio.render_json(doc), args.out)


def cmd_validate(args) -> int:
    sf_doc = sysio.load(args.path)  # raises ValidationError if any covering fails
    lines = [validate_covering(covering).describe() for covering in sf_doc.system.coverings]
    _stdout("\n".join([*lines, "ok\n"]))
    return EXIT_OK


def cmd_neigh(args) -> int:
    sf = sysio.load(args.path)
    names = [c.name for c in sf.system.coverings] if args.covering is None else [args.covering]
    objects = sf.universe.objects
    doc, coverings, keys, tails = {}, [], [], []
    for name in names:
        table = build_table(sf.system.space(name))
        # each distinct row is formatted once and shared by the objects that have it
        degrees = list(map(format_each, table.distinct))
        sigma = format_each(table.distinct_sigma)
        if args.format == "csv":
            coverings += [name] * len(objects)
            keys += map(len(tails).__add__, table.index)  # a row's place in `tails`
            tails += ([*row, s] for row, s in zip(degrees, sigma))
        else:
            doc[name] = {
                "gamma": format_scaled(table.space.covering.gamma),
                "rows": {obj: degrees[i] for obj, i in zip(objects, table.index)},
                "sigma": {obj: sigma[i] for obj, i in zip(objects, table.index)},
            }
    header = ["covering", "object", *objects, "sigma"]
    leads = [coverings, objects * len(names)]
    _emit(sysio.render_csv(header, leads, keys, tails.__getitem__) if args.format == "csv"
          else sysio.render_json(doc), args.out)
    return EXIT_OK


def cmd_approx(args) -> int:
    """`approx`, and `regions`, which adds the decision regions of the same point."""
    sf, op, target, mode = _setup(args, SINGLE_OPS)  # REGION_OPS maps as SINGLE_OPS does
    table = build_table(sf.system.space(args.covering))
    t, k = _point(_given(op, _flags(args, _parse)))
    regions = args.command == "regions"
    partition = operators.run(f"{op}-regions", table, target, t, k, mode=mode) if regions else None
    _emit_result(
        args, sf, operators.run(op, table, target, t, k, mode=mode),
        covering=table.space.covering.name,
        regions=partition,
        diagnostics=diagnostics(table, target),
    )
    return EXIT_OK


def _per_covering(args, m: int):
    """A `_given` reader: one value per covering, from --<param>s or a uniform --<param>.

    The parser lets at most one of the two through.  Each comma-separated entry
    of --<param>s is parsed as it is, like the scalar flag: padding or an empty
    entry is refused, not dropped.
    """

    def read(param: str):
        uniform, listed = getattr(args, param), getattr(args, param + "s")
        if listed is None:
            return None if uniform is None else (_parse(param, uniform),) * m
        values = tuple(_parse(param, part, f"--{param}s") for part in listed.split(","))
        if len(values) != m:
            raise ParameterError(
                f"--{param}s has {len(values)} entries but the system has {m} coverings"
            )
        return values

    return read


def cmd_mg(args) -> int:
    sf, (family, comb), target, mode = _setup(args, MG_OPS)
    system = sf.system
    values = _given(family, _per_covering(args, system.size))
    thresholds, grades = zip(*(
        _point({param: v[i] for param, v in values.items()}) for i in range(system.size)
    ))
    _emit_result(
        args, sf, operators.run(family, system, target, thresholds, grades, comb, mode),
        coverings=[c.name for c in system.coverings],
    )
    return EXIT_OK


RANDOM_COUNT = 1000  # instances of `check --random` without --count


def cmd_check(args) -> int:
    from . import checks  # imports the oracle, which no other command needs
    if args.random:
        report = checks.run_random(seed=args.seed, count=args.count or RANDOM_COUNT)
    else:
        if args.count is not None:
            raise ParameterError("--count applies to --random only")
        report = checks.run_file(sysio.load(args.path), seed=args.seed)
    verdict = "differential check ok" if report.ok else "differential check FAILED"
    _stdout(f"{report.describe()}\n{verdict}\n")
    return EXIT_OK if report.ok else EXIT_CHECK


def cmd_gen(args) -> int:
    gamma = _parse("gamma", args.gamma)
    if gamma == 0:
        raise ParameterError("--gamma must be positive")
    from .generate import generate_system  # only `gen` writes a system
    sf = generate_system(args.n, args.m, args.members, gamma, args.seed)
    _emit(sysio.dumps(sf), args.out)
    return EXIT_OK


# grid points one sweep may request; the whole grid is counted before any evaluation
MAX_SWEEP_POINTS = 100_000


def _grid(param: str, spec: str) -> range:
    """Closed-interval progression start:stop:step, or a single value."""
    flag = f"--{param}"
    parts = spec.split(":")
    if len(parts) not in (1, 3):
        raise ParameterError(f"{flag}: grid must be start:stop:step, got {spec!r}")
    values = [_parse(param, part) for part in parts]
    if len(values) == 1:
        return range(values[0], values[0] + 1)
    start, stop, step = values
    if step <= 0:
        raise ParameterError(f"{flag}: grid step must be positive")
    if stop < start:
        raise ParameterError(f"{flag}: grid stop is below start")
    return range(start, stop + 1, step)


def _cell_names(universe) -> dict[str, str]:
    r"""Each object's name as a sweep cell writes it, `\` as `\\` and `;` as `\;`,
    so an unescaped `;` in a cell always separates two names."""
    return {n: n.replace("\\", "\\\\").replace(";", "\\;") for n in universe.objects}


def cmd_sweep(args) -> int:
    """One row per grid point of the parameters the op reads, as `approx` would."""
    sf, op, target, mode = _setup(args, SINGLE_OPS)
    table = build_table(sf.system.space(args.covering))
    grids = _given(op, _flags(args, _grid))
    # counted without len(), which overflows past sys.maxsize points
    points = math.prod((g.stop - g.start + g.step - 1) // g.step for g in grids.values())
    if points > MAX_SWEEP_POINTS:
        # a count too long to print in decimal is given by its order of magnitude
        shown = points if points < 10**100 else f"about 10^{math.floor(math.log10(points))}"
        raise ParameterError(
            f"sweep grid has {shown} points, more than the limit of {MAX_SWEEP_POINTS}"
        )
    cell = _cell_names(sf.universe).__getitem__  # escaped once per command, not per point
    point_cells, keys = [], []
    for point in itertools.product(*grids.values()):
        values = dict(zip(grids, point))
        if "alpha" in values and values["beta"] > values["alpha"]:
            continue
        r = operators.run(op, table, target, *_point(values), mode=mode)
        point_cells.append(tuple(map(format_scaled, point)))
        keys.append((
            ";".join(map(cell, r.lower)),
            ";".join(map(cell, r.upper)),
            str(len(r.lower)),
            str(len(r.upper)),
        ))
    header = [*grids, "lower", "upper", "n_lower", "n_upper"]
    _emit(sysio.render_csv(header, list(zip(*point_cells)), keys), args.out)
    return EXIT_OK


def _result_args(p, ops: dict, fused=False, fmt=True):
    """A result subcommand: --op from `ops`, the parameter flags, and --format if it writes one.

    A fused (mg) command reads every covering, so it has no --covering, and
    takes each parameter as a scalar or as a per-covering list, not both.
    """
    p.add_argument("path")
    p.add_argument("--op", required=True, choices=ops, help="operator id")
    p.add_argument("--target", required=True, help="target fuzzy set name from the file")
    if not fused:
        p.add_argument("--covering", help="covering name (needed when the file has several)")
    for param, text in (
        ("alpha", "probabilistic lower threshold, e.g. 0.75"),
        ("beta", "probabilistic upper threshold, e.g. 0.25"),
        ("k", "grade threshold, e.g. 2"),
    ):
        group = p.add_mutually_exclusive_group() if fused else p
        group.add_argument(f"--{param}", help=text)
        if fused:
            group.add_argument(f"--{param}s", help=f"comma list, one {param} per covering")
    p.add_argument(
        "--residual-mode",
        choices=[mode.value for mode in ResidualMode],
        default=ResidualMode.RESIDUAL.value,
        help="reading of the grade lower-approximation mass (default: %(default)s)",
    )
    if fmt:
        p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", type=_out_path, help="write output to a file instead of stdout")


def _neigh_args(p):
    p.add_argument("path")
    p.add_argument("--covering")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", type=_out_path)


def _check_args(p):
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("path", nargs="?")
    source.add_argument("--random", action="store_true", help="run on random instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_positive, help=f"random instances (default {RANDOM_COUNT})")


def _gen_args(p):
    p.add_argument("--n", type=_positive, required=True, help="universe size")
    p.add_argument("--m", type=_positive, default=1, help="number of coverings")
    p.add_argument("--members", type=_positive, default=3, help="members per covering")
    p.add_argument("--gamma", required=True, help="covering threshold, e.g. 0.9")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=_out_path)


# subcommand -> (help, handler, function adding its arguments), in the order --help lists them
SUBCOMMANDS = {
    "validate": ("check the covering conditions of a system file", cmd_validate,
                 lambda p: p.add_argument("path")),
    "neigh": ("dump per-object neighborhoods and sigma-counts", cmd_neigh, _neigh_args),
    "approx": ("lower/upper approximation of a target", cmd_approx,
               lambda p: _result_args(p, SINGLE_OPS)),
    "regions": ("three-way / five-way decision regions", cmd_approx,
                lambda p: _result_args(p, REGION_OPS)),
    "mg": ("multi-granulation fused approximations", cmd_mg,
           lambda p: _result_args(p, MG_OPS, fused=True)),
    "check": ("differential check against the brute-force path", cmd_check, _check_args),
    "gen": ("generate a random valid system file", cmd_gen, _gen_args),
    "sweep": ("evaluate an operator over start:stop:step grids (CSV)", cmd_sweep,
              lambda p: _result_args(p, SINGLE_OPS, fmt=False)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of `command` alone when it names a subcommand, else of all eight.

    `main` passes its first argument: all eight cost more than a small command's
    own work, and help or an unknown name still sees every one."""
    parser = _Parser(
        prog="fuzzycover",
        description="Exact lower/upper approximations over fuzzy gamma-covering spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in SUBCOMMANDS else SUBCOMMANDS:
        help, func, add_args = SUBCOMMANDS[name]
        add_args(p := sub.add_parser(name, help=help))
        p.set_defaults(func=func)
    return parser


class _Grammar:
    """The arguments an add-arguments function of `SUBCOMMANDS` declares, recorded.

    It stands in for the argparse parser the function is written for, so
    `_scan` reads the one declaration of each subcommand without building
    argparse.  A mutually exclusive group is a _Grammar that records into its
    parent's lists too.
    """

    def __init__(self, parent: _Grammar | None = None, required: bool = False):
        self.arguments = parent.arguments if parent else []  # every argument, in order
        self.groups = parent.groups if parent else []
        self.members, self.required = [], required

    def add_argument(self, name, action="store", nargs=None, required=False, default=None,
                     type=None, choices=None, help=None):
        flag, switch = name.startswith("-"), action == "store_true"
        arg = argparse.Namespace(
            dest=name.lstrip("-").replace("-", "_"),
            flag=name if flag else None,
            switch=switch,
            required=required or (not flag and nargs is None),
            default=False if switch else default,
            type=type,
            choices=choices,
        )
        self.arguments.append(arg)
        self.members.append(arg)

    def add_mutually_exclusive_group(self, required=False):
        self.groups.append(group := _Grammar(self, required))
        return group


def _scan(argv: list[str]) -> argparse.Namespace | None:
    """What `build_parser(argv[0]).parse_args(argv)` returns, read without argparse.

    It reads exact flag names, each at most once, each value the next token,
    and at most the declared positionals, and applies argparse's type,
    choices, required and mutually exclusive checks.  Anything else gives
    None, so argparse reads it and writes every message: help, an
    abbreviation, --flag=value, a token that starts with '-' where a value or
    a positional goes (a negative number, '--'), a repeated flag, a failed check.
    """
    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    _, func, add_args = SUBCOMMANDS[argv[0]]
    add_args(grammar := _Grammar())
    flags = {arg.flag: arg for arg in grammar.arguments if arg.flag}
    positionals = [arg for arg in grammar.arguments if not arg.flag]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if not positionals:
                return None
            arg, value = positionals.pop(0), token
        elif (arg := flags.pop(token, None)) is None:  # also a repeated flag
            return None
        elif arg.switch:
            value = True
        elif (value := next(tokens, "-")).startswith("-"):
            return None
        if arg.type is not None:
            try:
                value = arg.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if arg.choices is not None and value not in arg.choices:
            return None
        given[arg.dest] = value
    if any(arg.required and arg.dest not in given for arg in grammar.arguments):
        return None
    for group in grammar.groups:
        count = sum(arg.dest in given for arg in group.members)
        if count > 1 or (group.required and not count):
            return None
    return argparse.Namespace(
        command=argv[0],
        **{arg.dest: given.get(arg.dest, arg.default) for arg in grammar.arguments},
        func=func,
    )


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _scan(argv) or build_parser(argv[0] if argv else None).parse_args(argv)
        return args.func(args)
    except BrokenPipeError:  # `_stdout` has already pointed stdout at devnull
        return EXIT_CLOSED_STDOUT
    except (ParameterError, StructuralError) as e:
        print(f"parameter error: {e}", file=sys.stderr)
        return EXIT_PARAMETER
    except (sysio.ParseError, DecimalFormatError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
