"""Command-line surface.

Subcommands: validate | neigh | approx | regions | mg | check | gen | sweep.

Exit codes: 0 ok, 2 file parse error, 3 covering validation error,
4 parameter error, 5 differential-check failure.
"""

from __future__ import annotations

import argparse
import itertools
import sys

from . import checks, sysio
from .exact import DecimalFormatError, format_scaled, parse_degree
from .generate import generate_system
from .model import (
    Grade,
    ParameterError,
    StructuralError,
    ThresholdPair,
    ValidationError,
    validate_covering,
)
from .multi import Combinator, mg_dq, mg_grade, mg_prob
from .neighborhood import build_table
from .single import (
    ResidualMode,
    diagnostics,
    dq_conjunctive,
    dq_disjunctive,
    grade_approx,
    grade_regions,
    prob_approx,
    prob_regions,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_PARAMETER = 4
EXIT_CHECK = 5

SINGLE_OPS = {
    "prob": "prob",
    "grade": "grade",
    "dq1": "dq1",
    "dq2": "dq2",
    "dq-all": "dq1",
    "dq-any": "dq2",
}

REGION_OPS = {"prob": "prob", "grade": "grade"}

# mg-<family>1 / -all fold with ALL, mg-<family>2 / -any with ANY
MG_OPS = {
    f"mg-{family}{suffix}": (family, comb)
    for family in ("prob", "grade", "dq")
    for suffix, comb in (
        ("1", Combinator.ALL), ("2", Combinator.ANY),
        ("-all", Combinator.ALL), ("-any", Combinator.ANY),
    )
}


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on its own; route flag problems to exit 4
    def error(self, message):
        raise _ArgumentError(message)


def _reject_gamma(args) -> None:
    if getattr(args, "gamma", None) is not None:
        raise ParameterError(
            "--gamma cannot override operator input: gamma is part of each "
            "covering in the system file"
        )


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise ParameterError(f"--out {out_path}: {e.strerror or e}") from None
    else:
        sys.stdout.write(text)


def _degree_flag(value: str, flag: str) -> int:
    try:
        return parse_degree(value)
    except DecimalFormatError as e:
        raise ParameterError(f"{flag}: {e}") from None


def _grade_flag(value: str, flag: str) -> Grade:
    try:
        return Grade.from_string(value)
    except DecimalFormatError as e:
        raise ParameterError(f"{flag}: {e}") from None


def _target(sf: sysio.SystemFile, name: str | None):
    if name is None:
        raise ParameterError("--target is required")
    return sf.target(name)


def _op_id(ops: dict, args):
    op = ops.get(args.op)
    if op is None:
        raise ParameterError(
            f"unknown operator id {args.op!r} for {args.command} "
            f"(choose from {', '.join(sorted(ops))})"
        )
    return op


def _setup(args, ops: dict):
    """Load, pick the op, the covering's space and table, the target and the mode."""
    _reject_gamma(args)
    sf = sysio.load(args.path)
    op = _op_id(ops, args)
    space = sf.system.space(args.covering)
    table = build_table(space)
    return sf, op, space, table, _target(sf, args.target), ResidualMode(args.residual_mode)


def _op_params(args, op: str) -> tuple[ThresholdPair | None, Grade | None]:
    """The threshold pair and grade that a single-covering op reads."""
    t = k = None
    if op != "grade":
        if args.alpha is None or args.beta is None:
            raise ParameterError("--alpha and --beta are required for this operator")
        t = ThresholdPair(
            _degree_flag(args.alpha, "--alpha"), _degree_flag(args.beta, "--beta")
        )
    if op != "prob":
        if args.k is None:
            raise ParameterError("--k is required for this operator")
        k = _grade_flag(args.k, "--k")
    return t, k


def _evaluate(op: str, table, target, t, k, mode):
    if op == "prob":
        return prob_approx(table, target, t)
    if op == "grade":
        return grade_approx(table, target, k, mode)
    if op == "dq1":
        return dq_disjunctive(table, target, t, k, mode)
    return dq_conjunctive(table, target, t, k, mode)


def _emit_result(args, sf: sysio.SystemFile, doc: dict) -> None:
    doc["residual_mode"] = args.residual_mode
    if args.format == "csv":
        _emit(sysio.render_result_csv(doc, sf.universe), args.out)
    else:
        _emit(sysio.render_json(doc), args.out)


def cmd_validate(args) -> int:
    sf_doc = sysio.load(args.path)  # raises ValidationError if any covering fails
    for covering in sf_doc.system.coverings:
        report = validate_covering(covering)
        print(report.describe())
    print("ok")
    return EXIT_OK


def cmd_neigh(args) -> int:
    _reject_gamma(args)
    sf = sysio.load(args.path)
    names = (
        [args.covering]
        if args.covering
        else [c.name for c in sf.system.coverings]
    )
    doc = {}
    for name in names:
        space = sf.system.space(name)
        table = build_table(space)
        doc[name] = {
            "gamma": format_scaled(space.covering.gamma),
            "rows": {
                obj: list(row.degree_strings())
                for obj, row in zip(space.universe.objects, table.rows)
            },
            "sigma": {
                obj: format_scaled(s)
                for obj, s in zip(space.universe.objects, table.sigma)
            },
        }
    if args.format == "csv":
        rows = [["covering", "object", *sf.universe.objects, "sigma"]]
        for name in names:
            block = doc[name]
            for obj in sf.universe.objects:
                rows.append([name, obj, *block["rows"][obj], block["sigma"][obj]])
        _emit(sysio.render_csv(rows), args.out)
    else:
        _emit(sysio.render_json(doc), args.out)
    return EXIT_OK


def cmd_approx(args) -> int:
    sf, op, space, table, target, mode = _setup(args, SINGLE_OPS)
    result = _evaluate(op, table, target, *_op_params(args, op), mode)
    _emit_result(args, sf, sysio.result_document(
        result,
        covering=space.covering.name,
        target=args.target,
        diagnostics=diagnostics(table, target),
    ))
    return EXIT_OK


def cmd_regions(args) -> int:
    sf, op, space, table, target, mode = _setup(args, REGION_OPS)
    t, k = _op_params(args, op)
    if op == "prob":
        partition = prob_regions(table, target, t)
    else:
        partition = grade_regions(table, target, k, mode)
    _emit_result(args, sf, sysio.result_document(
        _evaluate(op, table, target, t, k, mode),
        covering=space.covering.name,
        target=args.target,
        regions=partition,
        diagnostics=diagnostics(table, target),
    ))
    return EXIT_OK


def _vector_flags(args, sf, what: str, uniform: str | None, listed: str | None):
    """Expand --alpha/--alphas style flags into one value per covering."""
    m = sf.system.size
    if listed is not None:
        parts = [part.strip() for part in listed.split(",") if part.strip()]
        if len(parts) != m:
            raise ParameterError(
                f"--{what}s has {len(parts)} entries but the system has {m} coverings"
            )
        return parts
    if uniform is not None:
        return [uniform] * m
    raise ParameterError(f"--{what} or --{what}s is required for this operator")


def cmd_mg(args) -> int:
    _reject_gamma(args)
    sf = sysio.load(args.path)
    family, comb = _op_id(MG_OPS, args)
    system = sf.system
    target = _target(sf, args.target)
    mode = ResidualMode(args.residual_mode)
    thresholds = grades = None
    if family != "grade":
        alphas = _vector_flags(args, sf, "alpha", args.alpha, args.alphas)
        betas = _vector_flags(args, sf, "beta", args.beta, args.betas)
        thresholds = tuple(
            ThresholdPair(_degree_flag(a, "--alphas"), _degree_flag(b, "--betas"))
            for a, b in zip(alphas, betas)
        )
    if family != "prob":
        ks = _vector_flags(args, sf, "k", args.k, args.ks)
        grades = tuple(_grade_flag(v, "--ks") for v in ks)

    if family == "prob":
        result = mg_prob(system, target, thresholds, comb)
    elif family == "grade":
        result = mg_grade(system, target, grades, comb, mode)
    else:
        result = mg_dq(system, target, thresholds, grades, comb, mode)
    doc = sysio.result_document(result, target=args.target)
    doc["coverings"] = [c.name for c in system.coverings]
    _emit_result(args, sf, doc)
    return EXIT_OK


def cmd_check(args) -> int:
    if args.random:
        report = checks.run_random(seed=args.seed, count=args.count)
    else:
        if not args.path:
            raise ParameterError("check needs a system file path or --random")
        sf = sysio.load(args.path)
        report = checks.run_file(sf, seed=args.seed)
    print(report.describe())
    if not report.ok:
        print("differential check FAILED")
        return EXIT_CHECK
    print("differential check ok")
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.n < 1 or args.m < 1 or args.members < 1:
        raise ParameterError("--n, --m and --members must all be >= 1")
    gamma = _degree_flag(args.gamma, "--gamma")
    if gamma == 0:
        raise ParameterError("--gamma must be positive")
    sf = generate_system(args.n, args.m, args.members, gamma, args.seed)
    _emit(sysio.dumps(sf), args.out)
    return EXIT_OK


def _grid(spec: str, flag: str, parser) -> list[int]:
    """Closed-interval progression start:stop:step, or a single value."""
    parts = spec.split(":")
    if len(parts) not in (1, 3):
        raise ParameterError(f"{flag}: grid must be start:stop:step, got {spec!r}")
    values = [parser(p, flag) for p in parts]
    if len(values) == 1:
        return values
    start, stop, step = values
    if step <= 0:
        raise ParameterError(f"{flag}: grid step must be positive")
    if stop < start:
        raise ParameterError(f"{flag}: grid stop is below start")
    return list(range(start, stop + 1, step))


def _grade_units(value: str, flag: str) -> int:
    return _grade_flag(value, flag).k


def cmd_sweep(args) -> int:
    """One row per grid point of the parameters the op reads, as `approx` would."""
    sf, op, _, table, target, mode = _setup(args, SINGLE_OPS)
    axes = {}
    if op != "grade":
        if not (args.alpha and args.beta):
            raise ParameterError("--alpha and --beta grids are required for this operator")
        axes["alpha"] = _grid(args.alpha, "--alpha", _degree_flag)
        axes["beta"] = _grid(args.beta, "--beta", _degree_flag)
    if op != "prob":
        if not args.k:
            raise ParameterError("--k grid is required for this operator")
        axes["k"] = _grid(args.k, "--k", _grade_units)

    rows = [[*axes, "lower", "upper", "n_lower", "n_upper"]]
    for point in itertools.product(*axes.values()):
        p = dict(zip(axes, point))
        if "alpha" in p and p["beta"] > p["alpha"]:
            continue
        t = ThresholdPair(p["alpha"], p["beta"]) if "alpha" in p else None
        k = Grade(p["k"]) if "k" in p else None
        r = _evaluate(op, table, target, t, k, mode)
        rows.append([
            *map(format_scaled, point),
            ";".join(r.lower),
            ";".join(r.upper),
            str(len(r.lower)),
            str(len(r.upper)),
        ])
    _emit(sysio.render_csv(rows), args.out)
    return EXIT_OK


def _add_common_result_flags(p):
    p.add_argument("--target", help="target fuzzy set name from the file")
    p.add_argument("--covering", help="covering name (needed when the file has several)")
    p.add_argument("--alpha", help="probabilistic lower threshold, e.g. 0.75")
    p.add_argument("--beta", help="probabilistic upper threshold, e.g. 0.25")
    p.add_argument("--k", help="grade threshold, e.g. 2")
    p.add_argument(
        "--residual-mode",
        choices=["residual", "complement"],
        default="residual",
        help="reading of the grade lower-approximation mass (default: residual)",
    )
    p.add_argument("--gamma", help=argparse.SUPPRESS)  # rejected: gamma lives in the file
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", help="write output to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fuzzycover",
        description="Exact lower/upper approximations over fuzzy gamma-covering spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the covering conditions of a system file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("neigh", help="dump per-object neighborhoods and sigma-counts")
    p.add_argument("path")
    p.add_argument("--covering")
    p.add_argument("--gamma", help=argparse.SUPPRESS)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_neigh)

    p = sub.add_parser("approx", help="lower/upper approximation of a target")
    p.add_argument("path")
    p.add_argument("--op", required=True, help="prob | grade | dq1 | dq2 (dq-all/dq-any)")
    _add_common_result_flags(p)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("regions", help="three-way / five-way decision regions")
    p.add_argument("path")
    p.add_argument("--op", required=True, help="prob | grade")
    _add_common_result_flags(p)
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("mg", help="multi-granulation fused approximations")
    p.add_argument("path")
    p.add_argument(
        "--op",
        required=True,
        help="mg-prob1|mg-prob2|mg-grade1|mg-grade2|mg-dq1|mg-dq2 (-all/-any aliases)",
    )
    p.add_argument("--alphas", help="comma list, one alpha per covering")
    p.add_argument("--betas", help="comma list, one beta per covering")
    p.add_argument("--ks", help="comma list, one grade per covering")
    _add_common_result_flags(p)
    p.set_defaults(func=cmd_mg)

    p = sub.add_parser("check", help="differential check against the brute-force path")
    p.add_argument("path", nargs="?")
    p.add_argument("--random", action="store_true", help="run on random instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1000)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="generate a random valid system file")
    p.add_argument("--n", type=int, required=True, help="universe size")
    p.add_argument("--m", type=int, default=1, help="number of coverings")
    p.add_argument("--members", type=int, default=3, help="members per covering")
    p.add_argument("--gamma", required=True, help="covering threshold, e.g. 0.9")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sweep", help="evaluate an operator over a parameter grid (CSV)")
    p.add_argument("path")
    p.add_argument("--op", required=True)
    _add_common_result_flags(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_ArgumentError, ParameterError, StructuralError) as e:
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
