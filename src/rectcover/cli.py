"""Command-line interface.

Four subcommands: ``gen`` writes a random instance file, ``solve`` runs one
algorithm on one instance, ``bench`` sweeps instance sizes and emits a CSV
of mean result sizes, and ``verify`` cross-checks the heuristics against
the exact small-instance solvers.

Exit codes: 0 success, 1 a verification failed, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import (
    ALGORITHMS,
    VerificationError,
    format_csv,
    format_records_csv,
    run_algorithm,
    run_bench,
    verify_random,
)
from .geometry import Instance, Region, UnstabbableOverlapError, generate_instance
from .heuristics import CoverResult
from .instance_io import InstanceFormatError, dumps_instance, load_instance, save_instance
from .oracles import DEFAULT_MCC_CAP, DEFAULT_MIS_CAP

__all__ = ["main"]

_LARGE_N = 5000


def _parse_region(text: str) -> Region:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "region must be 'xmin,xmax,ymin,ymax'"
        )
    try:
        x_min, x_max, y_min, y_max = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"region {text!r} has a non-numeric bound")
    try:
        return Region(x_min=x_min, x_max=x_max, y_min=y_min, y_max=y_max)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a bad literal as "invalid int value"
    return parse


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}")
    if not values or any(v < 0 for v in values):
        raise argparse.ArgumentTypeError(f"bad size list {text!r}")
    return values


def _parse_algos(text: str) -> list[str]:
    names = [p.strip() for p in text.split(",") if p.strip()]
    for name in names:
        if name not in ALGORITHMS:
            raise argparse.ArgumentTypeError(
                f"unknown algorithm {name!r} (choose from {', '.join(sorted(ALGORITHMS))})"
            )
    if not names:
        raise argparse.ArgumentTypeError("empty algorithm list")
    return names


def _fail(message: str, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _cmd_gen(args: argparse.Namespace) -> int:
    instance = generate_instance(args.n, region=args.region, seed=args.seed)
    if args.out is None:
        sys.stdout.write(dumps_instance(instance))
    else:
        save_instance(instance, args.out)
    return 0


def _load_for_solve(args: argparse.Namespace) -> Instance:
    if args.file is not None:
        return load_instance(args.file)
    return generate_instance(args.n, region=args.region, seed=args.seed)


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = _load_for_solve(args)
    result = ALGORITHMS[args.algo](instance)
    record = run_algorithm(args.algo, instance, result=result)
    seed = instance.seed
    if args.format == "json":
        payload = {
            "algo": args.algo,
            "n": instance.n,
            "seed": seed,
            "size": record.size,
            "theta": record.theta,
            "phi": record.phi,
            "elapsed_ms": record.elapsed_ms,
            "verified": record.verified,
        }
        if isinstance(result, CoverResult):
            payload["points"] = [[p.x, p.y] for p in result.points]
            payload["assignment"] = list(result.assignment)
        else:
            payload["members"] = list(result.members)
        print(json.dumps(payload))
    else:
        print("algo,n,seed,size,theta,phi,verified")
        seed_cell = "" if seed is None else str(seed)
        print(
            f"{args.algo},{instance.n},{seed_cell},{record.size},"
            f"{record.theta},{record.phi},{str(record.verified).lower()}"
        )
    return 0 if record.verified else 1


_GNUPLOT_TEMPLATE = """\
set datafile separator ','
set key top left autotitle columnhead
set xlabel 'number of rectangles'
set ylabel 'mean result size'
set logscale x
plot {csv!r} using 1:3 with linespoints, \\
     '' using 1:4 with linespoints, \\
     '' using 1:5 with linespoints, \\
     '' using 1:6 with linespoints, \\
     '' using 1:8 with lines dashtype 2, \\
     '' using 1:9 with lines dashtype 2
"""


def _cmd_bench(args: argparse.Namespace) -> int:
    if max(args.n_list) > _LARGE_N and not args.allow_large:
        return _fail(
            f"sizes above {_LARGE_N} can take minutes; pass --allow-large to proceed"
        )
    if args.gnuplot is not None and args.out is None:
        return _fail("--gnuplot needs --out so the script has a data file to read")
    progress = None
    if args.progress:
        progress = lambda msg: print(msg, file=sys.stderr)
    try:
        rows, records = run_bench(
            args.n_list, args.trials, args.seed, algos=args.algos, progress=progress
        )
    except VerificationError as exc:
        return _fail(str(exc), code=1)
    csv_text = format_csv(rows, timings=args.timings)
    if args.out is None:
        sys.stdout.write(csv_text)
    else:
        Path(args.out).write_text(csv_text, encoding="utf-8")
    if args.records is not None:
        Path(args.records).write_text(format_records_csv(records), encoding="utf-8")
    if args.gnuplot is not None:
        Path(args.gnuplot).write_text(
            _GNUPLOT_TEMPLATE.format(csv=str(args.out)), encoding="utf-8"
        )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    limit = min(args.mis_cap, args.mcc_cap)
    if args.n > limit:
        return _fail(
            f"exact checks are limited to n <= {limit} "
            f"(raise --mis-cap/--mcc-cap at your own patience)"
        )
    violations = verify_random(
        args.count,
        args.n,
        args.seed,
        mis_cap=args.mis_cap,
        mcc_cap=args.mcc_cap,
    )
    if violations:
        for v in violations:
            print(v, file=sys.stderr)
        print(f"FAIL: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print(f"verified {args.count} instance(s) of size {args.n}: all checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rectcover",
        description="Piercing covers and independent sets of random rectangles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a random instance file")
    gen.add_argument("--n", type=_at_least(0), required=True, help="number of rectangles")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--region",
        type=_parse_region,
        default=Region(0.0, 1.0, 0.0, 1.0),
        help="sampling region as 'xmin,xmax,ymin,ymax' (default unit square)",
    )
    gen.add_argument("--out", type=Path, default=None, help="output path (default stdout)")
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="run one algorithm on one instance")
    solve.add_argument("--algo", choices=sorted(ALGORITHMS), required=True)
    source = solve.add_mutually_exclusive_group(required=True)
    source.add_argument("--file", type=Path, help="instance file to read")
    source.add_argument("--n", type=_at_least(0), help="generate an instance of this size")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument(
        "--region", type=_parse_region, default=Region(0.0, 1.0, 0.0, 1.0)
    )
    solve.add_argument("--format", choices=("json", "csv"), default="json")
    solve.set_defaults(func=_cmd_solve)

    bench = sub.add_parser("bench", help="sweep sizes and write a CSV of mean sizes")
    bench.add_argument("--n-list", type=_parse_n_list, default=[500, 1000, 5000])
    bench.add_argument("--trials", type=_at_least(1), default=20)
    bench.add_argument("--seed", type=int, default=1, help="base seed for the sweep")
    bench.add_argument(
        "--algos", type=_parse_algos, default=["gcc", "gcc-i", "mis", "mis-i"]
    )
    bench.add_argument("--out", type=Path, default=None, help="CSV path (default stdout)")
    bench.add_argument(
        "--records", type=Path, default=None, help="also write per-run records here"
    )
    bench.add_argument(
        "--timings",
        action="store_true",
        help="include mean runtimes (makes the CSV non-reproducible)",
    )
    bench.add_argument(
        "--allow-large",
        action="store_true",
        help=f"permit sizes above {_LARGE_N}",
    )
    bench.add_argument(
        "--gnuplot", type=Path, default=None, help="write a gnuplot script next to the CSV"
    )
    bench.add_argument("--progress", action="store_true", help="report progress on stderr")
    bench.set_defaults(func=_cmd_bench)

    verify = sub.add_parser("verify", help="cross-check against exact solvers")
    verify.add_argument("--count", type=_at_least(0), default=5, help="number of random instances")
    verify.add_argument("--n", type=_at_least(0), default=12)
    verify.add_argument("--seed", type=int, default=1)
    verify.add_argument("--mis-cap", type=_at_least(0), default=DEFAULT_MIS_CAP)
    verify.add_argument("--mcc-cap", type=_at_least(0), default=DEFAULT_MCC_CAP)
    verify.set_defaults(func=_cmd_verify)

    return parser


def _glue_region(argv: list[str]) -> list[str]:
    """Join each ``--region`` word to the word after it as ``--region=VALUE``.

    argparse takes a separate value such as ``-2,3,0,1`` for an option
    because it starts with ``-``; the joined form is read as the value.
    """
    out = []
    words = iter(argv)
    for word in words:
        value = next(words, None) if word == "--region" else None
        out.append(word if value is None else f"--region={value}")
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_glue_region(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (InstanceFormatError, UnstabbableOverlapError) as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
