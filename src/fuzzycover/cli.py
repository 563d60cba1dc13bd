"""Command-line surface.

Subcommands: validate | neigh | approx | regions | mg | check | gen | sweep.

Exit codes: 0 ok, 2 file parse error, 3 covering validation error,
4 parameter error, 5 differential-check failure.
"""

from __future__ import annotations

import argparse
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

MG_OPS = {
    "mg-prob1": ("prob", Combinator.ALL),
    "mg-prob2": ("prob", Combinator.ANY),
    "mg-prob-all": ("prob", Combinator.ALL),
    "mg-prob-any": ("prob", Combinator.ANY),
    "mg-grade1": ("grade", Combinator.ALL),
    "mg-grade2": ("grade", Combinator.ANY),
    "mg-grade-all": ("grade", Combinator.ALL),
    "mg-grade-any": ("grade", Combinator.ANY),
    "mg-dq1": ("dq", Combinator.ALL),
    "mg-dq2": ("dq", Combinator.ANY),
    "mg-dq-all": ("dq", Combinator.ALL),
    "mg-dq-any": ("dq", Combinator.ANY),
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


def _split_list(value: str) -> list[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


def _pick_space(sf: sysio.SystemFile, covering: str | None):
    try:
        return sf.system.space(covering)
    except StructuralError as e:
        raise ParameterError(str(e)) from None


def _target(sf: sysio.SystemFile, name: str | None):
    if name is None:
        raise ParameterError("--target is required")
    try:
        return sf.target(name)
    except StructuralError as e:
        raise ParameterError(str(e)) from None


def _threshold_pair(args) -> ThresholdPair:
    if args.alpha is None or args.beta is None:
        raise ParameterError("--alpha and --beta are required for this operator")
    return ThresholdPair(
        _degree_flag(args.alpha, "--alpha"), _degree_flag(args.beta, "--beta")
    )


def _grade_value(args) -> Grade:
    if args.k is None:
        raise ParameterError("--k is required for this operator")
    return _grade_flag(args.k, "--k")


def _mode(args) -> ResidualMode:
    return ResidualMode.from_string(args.residual_mode)


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
        space = _pick_space(sf, name)
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
    _reject_gamma(args)
    sf = sysio.load(args.path)
    op = SINGLE_OPS.get(args.op)
    if op is None:
        raise ParameterError(
            f"unknown operator id {args.op!r} for approx "
            f"(choose from {', '.join(sorted(SINGLE_OPS))})"
        )
    space = _pick_space(sf, args.covering)
    table = build_table(space)
    target = _target(sf, args.target)
    mode = _mode(args)
    if op == "prob":
        result = prob_approx(table, target, _threshold_pair(args))
    elif op == "grade":
        result = grade_approx(table, target, _grade_value(args), mode)
    elif op == "dq1":
        result = dq_disjunctive(table, target, _threshold_pair(args), _grade_value(args), mode)
    else:
        result = dq_conjunctive(table, target, _threshold_pair(args), _grade_value(args), mode)
    doc = sysio.result_document(
        result,
        covering=space.covering.name,
        target=args.target,
        diagnostics=diagnostics(table, target),
    )
    doc["residual_mode"] = mode.value
    if args.format == "csv":
        _emit(sysio.render_result_csv(doc, sf.universe), args.out)
    else:
        _emit(sysio.render_json(doc), args.out)
    return EXIT_OK


def cmd_regions(args) -> int:
    _reject_gamma(args)
    sf = sysio.load(args.path)
    if args.op not in ("prob", "grade"):
        raise ParameterError("regions supports op ids: prob, grade")
    space = _pick_space(sf, args.covering)
    table = build_table(space)
    target = _target(sf, args.target)
    mode = _mode(args)
    if args.op == "prob":
        t = _threshold_pair(args)
        partition = prob_regions(table, target, t)
        result = prob_approx(table, target, t)
    else:
        k = _grade_value(args)
        partition = grade_regions(table, target, k, mode)
        result = grade_approx(table, target, k, mode)
    doc = sysio.result_document(
        result,
        covering=space.covering.name,
        target=args.target,
        regions=partition,
        diagnostics=diagnostics(table, target),
    )
    doc["residual_mode"] = mode.value
    if args.format == "csv":
        _emit(sysio.render_result_csv(doc, sf.universe), args.out)
    else:
        _emit(sysio.render_json(doc), args.out)
    return EXIT_OK


def _vector_flags(args, sf, what: str, uniform: str | None, listed: str | None):
    """Expand --alpha/--alphas style flags into one value per covering."""
    m = sf.system.size
    if listed is not None:
        parts = _split_list(listed)
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
    entry = MG_OPS.get(args.op)
    if entry is None:
        raise ParameterError(
            f"unknown operator id {args.op!r} for mg "
            f"(choose from {', '.join(sorted(MG_OPS))})"
        )
    family, comb = entry
    system = sf.system
    target = _target(sf, args.target)
    mode = _mode(args)

    def thresholds():
        alphas = _vector_flags(args, sf, "alpha", args.alpha, args.alphas)
        betas = _vector_flags(args, sf, "beta", args.beta, args.betas)
        return tuple(
            ThresholdPair(_degree_flag(a, "--alphas"), _degree_flag(b, "--betas"))
            for a, b in zip(alphas, betas)
        )

    def grades():
        ks = _vector_flags(args, sf, "k", args.k, args.ks)
        return tuple(_grade_flag(v, "--ks") for v in ks)

    if family == "prob":
        result = mg_prob(system, target, thresholds(), comb)
    elif family == "grade":
        result = mg_grade(system, target, grades(), comb, mode)
    else:
        result = mg_dq(system, target, thresholds(), grades(), comb, mode)
    doc = sysio.result_document(result, target=args.target)
    doc["residual_mode"] = mode.value
    doc["coverings"] = [c.name for c in system.coverings]
    if args.format == "csv":
        _emit(sysio.render_result_csv(doc, sf.universe), args.out)
    else:
        _emit(sysio.render_json(doc), args.out)
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
    if len(parts) == 1:
        return [parser(parts[0], flag)]
    if len(parts) != 3:
        raise ParameterError(f"{flag}: grid must be start:stop:step, got {spec!r}")
    start, stop, step = (parser(p, flag) for p in parts)
    if isinstance(start, Grade):
        start, stop, step = start.k, stop.k, step.k
    if step <= 0:
        raise ParameterError(f"{flag}: grid step must be positive")
    if stop < start:
        raise ParameterError(f"{flag}: grid stop is below start")
    values = list(range(start, stop + 1, step))
    return values


def cmd_sweep(args) -> int:
    _reject_gamma(args)
    sf = sysio.load(args.path)
    op = SINGLE_OPS.get(args.op)
    if op is None:
        raise ParameterError(
            f"sweep supports single-covering op ids ({', '.join(sorted(SINGLE_OPS))})"
        )
    space = _pick_space(sf, args.covering)
    table = build_table(space)
    target = _target(sf, args.target)
    mode = _mode(args)

    alphas = _grid(args.alpha, "--alpha", _degree_flag) if args.alpha else [None]
    betas = _grid(args.beta, "--beta", _degree_flag) if args.beta else [None]
    ks = (
        [g if isinstance(g, int) else g.k for g in _grid(args.k, "--k", _grade_flag)]
        if args.k
        else [None]
    )

    needs_t = op in ("prob", "dq1", "dq2")
    needs_k = op in ("grade", "dq1", "dq2")
    if needs_t and (alphas == [None] or betas == [None]):
        raise ParameterError("--alpha and --beta grids are required for this operator")
    if needs_k and ks == [None]:
        raise ParameterError("--k grid is required for this operator")

    rows = []
    for a in alphas:
        for b in betas:
            if needs_t and b > a:
                continue
            for k in ks:
                t = ThresholdPair(a, b) if needs_t else None
                g = Grade(k) if needs_k else None
                if op == "prob":
                    r = prob_approx(table, target, t)
                elif op == "grade":
                    r = grade_approx(table, target, g, mode)
                elif op == "dq1":
                    r = dq_disjunctive(table, target, t, g, mode)
                else:
                    r = dq_conjunctive(table, target, t, g, mode)
                rows.append((a, b, k, r))

    header = []
    if needs_t:
        header += ["alpha", "beta"]
    if needs_k:
        header.append("k")
    header += ["lower", "upper", "n_lower", "n_upper"]
    csv_rows = [header]
    for a, b, k, r in rows:
        cells = []
        if needs_t:
            cells += [format_scaled(a), format_scaled(b)]
        if needs_k:
            cells.append(format_scaled(k))
        cells += [
            ";".join(r.lower),
            ";".join(r.upper),
            str(len(r.lower)),
            str(len(r.upper)),
        ]
        csv_rows.append(cells)
    _emit(sysio.render_csv(csv_rows), args.out)
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
    except _ArgumentError as e:
        print(f"parameter error: {e}", file=sys.stderr)
        return EXIT_PARAMETER
    except ParameterError as e:
        print(f"parameter error: {e}", file=sys.stderr)
        return EXIT_PARAMETER
    except sysio.ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except DecimalFormatError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except StructuralError as e:
        print(f"parameter error: {e}", file=sys.stderr)
        return EXIT_PARAMETER


if __name__ == "__main__":
    sys.exit(main())
