"""Command-line front end; every command prints reproducible text.

Words are given as digit strings over {1,2}; the literal ``eps`` is the
empty word.  Rationals are written ``p/q`` (never decimals).  Identical
invocations produce byte-identical output: fixed level order, lowest-terms
rationals, no timestamps.

Exit status: 0 on success, 1 when ``verify`` finds an exact-identity
failure, 2 on usage errors and on a failed write to stdout (``> /dev/full``).
A reader that closes stdout early (``yflab level 30 | head``) ends the command
quietly, with status 0; a failed ``verify`` keeps status 1 whether its own
write or only the final flush fails.

Every command is one entry of COMMANDS.  main builds only the subparser it
dispatches to; the full tree, with every subparser, only for help, no
command or an unknown one.  Both print the same usage line and errors.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain
from typing import Iterator, Optional, TextIO

from .boundary import TailOnesWord, d_beta_prime, level_distribution
from .experiments import concentration_sweep, identity_suite
from .harmonic import (_csv_rows, check_beta, d_beta, f, format_rational, g_all, parse_rational,
                       pi, q)
from .magic import build_table, symbolic_csv
from .pathcount import d_paths_dp, d_paths_formula
from .words import MAX_LEVEL_RANK, YFWord, fibonacci, iter_level

OUTPUT_DIR_ENV = "YFLAB_OUTPUT_DIR"
MAGIC_DEFAULT_CAP = 16
# measure holds every mass of its level until it prints: peak RSS grew from
# 26.8 to 40.5 MiB between ranks 20 and 22 (core 221, beta 4/7, CSV output,
# fresh processes, Python 3.11), about 810 bytes a word.  The default cap is
# the highest rank whose words fit in MEASURE_BUDGET at that rate (rank 27).
MEASURE_BYTES_PER_WORD = 810
MEASURE_BUDGET = 256 * 2 ** 20
MEASURE_DEFAULT_CAP = max(n for n in range(MAX_LEVEL_RANK + 1)
                          if fibonacci(n + 1) * MEASURE_BYTES_PER_WORD <= MEASURE_BUDGET)


def _word(text: str) -> YFWord:
    if text == "eps":
        return YFWord()
    return YFWord.from_text(text)


def _beta(text: str) -> Fraction:
    return check_beta(parse_rational(text), text)


def _n_range(text: str) -> list[int]:
    parts = text.split("..")
    if len(parts) == 1:
        return [int(parts[0])]
    if len(parts) == 2:
        a, b = int(parts[0]), int(parts[1])
        return list(range(a, b + 1))
    if len(parts) == 3:
        a, b, step = int(parts[0]), int(parts[1]), int(parts[2])
        if step <= 0:
            raise ValueError("step must be positive")
        return list(range(a, b + 1, step))
    raise ValueError(f"bad range {text!r}; expected N, A..B or A..B..STEP")


@contextmanager
def _output(args, status: int = 0) -> Iterator[TextIO]:
    """The stream a command writes to: stdout, or the --output file."""
    path = getattr(args, "output", None)
    if path is None:
        try:
            yield sys.stdout
        except OSError as exc:
            exc.status = status  # decided by the command; entry_point exits with it
            raise
        return
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    try:
        with open(path, "w", newline="") as handle:
            yield handle
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def _emit(text: str, args, status: int = 0) -> None:
    with _output(args, status) as out:
        out.write(text)


def _cmd_level(args) -> int:
    # streamed word by word: a level can hold more words than fit in memory
    names = (v.text if len(v) else "eps" for v in iter_level(args.n))
    with _output(args) as out:
        if args.format == "csv":
            csv.writer(out, lineterminator="\n").writerows(chain([["word"]], zip(names)))
        else:
            out.writelines(f"{name}\n" for name in names)
    return 0


def _cmd_dcount(args) -> int:
    x, y = _word(args.x), _word(args.y)
    if args.method == "dp":
        _emit(f"{d_paths_dp(x, y)}\n", args)
    elif args.method == "formula":
        _emit(f"{d_paths_formula(x, y)}\n", args)
    else:
        a, b = d_paths_dp(x, y), d_paths_formula(x, y)
        _emit(f"{a} {b} {'MATCH' if a == b else 'MISMATCH'}\n", args)
    return 0


def _cmd_f(args) -> int:
    _emit(format_rational(f(_word(args.x), args.y, args.z)) + "\n", args)
    return 0


def _cmd_g(args) -> int:
    values = g_all(_word(args.x))
    _emit(",".join(str(v) for v in values) + "\n", args)
    return 0


def _cmd_q(args) -> int:
    _emit(format_rational(q(_word(args.x))) + "\n", args)
    return 0


def _cmd_pi(args) -> int:
    _emit(format_rational(pi(_word(args.x))) + "\n", args)
    return 0


def _cmd_dbeta(args) -> int:
    poly = d_beta(_word(args.x))
    _emit(",".join(format_rational(c) for c in poly.coeffs) + "\n", args)
    return 0


def _cmd_dprime(args) -> int:
    w = TailOnesWord.parse(args.w)
    value = d_beta_prime(_word(args.x), w, _beta(args.beta))
    _emit(format_rational(value) + "\n", args)
    return 0


def _cmd_measure(args) -> int:
    if args.n > args.cap:  # the count is given while a tuple could hold the level
        count = f"{fibonacci(args.n + 1)} " if args.n <= MAX_LEVEL_RANK else ""
        raise ValueError(f"n={args.n} exceeds the measure cap {args.cap}: its {count}masses are held "
                         f"at about {MEASURE_BYTES_PER_WORD} bytes each; raise it with --cap if intended")
    w = TailOnesWord.parse(args.w)
    dist = level_distribution(w, _beta(args.beta), args.n)
    rows = [["word", "mass"]]
    for v, mass in dist.masses.items():  # in level order
        rows.append([v.text if len(v) else "eps", format_rational(mass)])
    if args.format == "csv":
        _emit(_csv_rows(rows), args)
    else:
        _emit("\n".join(f"{a} {b}" for a, b in rows[1:]) + "\n", args)
    return 0


def _cmd_magic(args) -> int:
    if args.n > args.cap:
        raise ValueError(f"n={args.n} exceeds the table cap {args.cap}; "
                         f"raise it with --cap if the dense table is intended")
    w, beta = TailOnesWord.parse(args.w), _beta(args.beta)  # checked in both modes
    _emit(symbolic_csv(args.n) if args.symbolic else build_table(w, beta, args.n).to_csv(), args)
    return 0


def _cmd_sweep(args) -> int:
    if (args.l is None) == (args.eps is None):
        raise ValueError("give exactly one of --l and --eps")
    mode = args.mode
    if mode == "suffix" and args.l is None:
        raise ValueError("suffix mode takes --l")
    if mode == "pi" and args.eps is None:
        raise ValueError("pi mode takes --eps")
    parameter = args.l if mode == "suffix" else parse_rational(args.eps)
    report = concentration_sweep(mode, TailOnesWord.parse(args.w), _beta(args.beta),
                                 parameter, _n_range(args.n), jobs=args.jobs)
    _emit(report.to_csv() if args.format == "csv" else report.to_text(), args)
    return 0


def _cmd_verify(args) -> int:
    report = identity_suite(args.max_rank)
    status = 0 if report.all_passed else 1  # decided before the write, which may fail
    _emit(report.to_csv() if args.format == "csv" else report.to_text(), args, status)
    return status


def _arg(*flags, **options) -> tuple[tuple[str, ...], dict]:
    return flags, options


# name -> (handler, help, arguments besides --format and --output), in usage order
COMMANDS = {
    "level": (_cmd_level, "list all words of one rank", [_arg("n", type=int)]),
    "dcount": (_cmd_dcount, "count descending paths between two words",
               [_arg("x"), _arg("y"), _arg("--method", choices=("dp", "formula", "both"), default="both")]),
    "f": (_cmd_f, "evaluate f(x, y, z)", [_arg("x"), _arg("y", type=int), _arg("z", type=int)]),
    "g": (_cmd_g, "all g-values of a word", [_arg("x")]),
    "q": (_cmd_q, "the suffix-rank product weight q(x)", [_arg("x")]),
    "pi": (_cmd_pi, "the product pi(x) over g-values exceeding 1", [_arg("x")]),
    "dbeta": (_cmd_dbeta, "coefficients of the beta polynomial of x", [_arg("x")]),
    "dprime": (_cmd_dprime, "the kernel d'_beta(x, w)",
               [_arg("x"), _arg("--w", required=True, help="core of the tail-ones word (eps allowed)"),
                _arg("--beta", required=True)]),
    "measure": (_cmd_measure, "boundary-measure masses over one rank",
                [_arg("--w", required=True), _arg("--beta", required=True),
                 _arg("--n", type=int, required=True),
                 _arg("--cap", type=int, default=MEASURE_DEFAULT_CAP,
                      help="refuse levels beyond this rank, as they are held in memory")]),
    "magic": (_cmd_magic, "the dense table for (w, beta, n) as CSV",
              [_arg("--w", required=True), _arg("--beta", required=True),
               _arg("--n", type=int, required=True),
               _arg("--symbolic", action="store_true",
                    help="cells as (coeff;tail;beta_exp;one_minus_beta2_exp)"),
               _arg("--cap", type=int, default=MAGIC_DEFAULT_CAP,
                    help="refuse dense tables beyond this rank")]),
    "sweep": (_cmd_sweep, "tail masses outside a concentration set",
              [_arg("--mode", choices=("suffix", "pi"), required=True), _arg("--w", required=True),
               _arg("--beta", required=True), _arg("--l", type=int), _arg("--eps"),
               _arg("--n", required=True, help="rank list: N, A..B or A..B..STEP"),
               _arg("--jobs", type=int, default=1)]),
    "verify": (_cmd_verify, "run the exhaustive identity suite",
               [_arg("--max-rank", type=int, required=True)]),
}


def build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The yflab parser with every command's subparser, or with only the one named by
    only; the usage line names every command either way."""
    parser = argparse.ArgumentParser(
        prog="yflab",
        description="Exact computations on the Young-Fibonacci lattice.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if only is None else "{" + ",".join(COMMANDS) + "}")
    for name in COMMANDS if only is None else [only]:
        func, help_text, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("csv", "pretty"), default="pretty")
        p.add_argument("--output", help=f"output file; relative paths resolve "
                                        f"against ${OUTPUT_DIR_ENV} when set")
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact values may exceed 4300 digits
    argv = sys.argv[1:] if argv is None else list(argv)
    # the full tree only for help, no command or an unknown one
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"yflab: error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    code = None  # until main() returns
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        # a failed write to stdout: one of main()'s, with the status _output gave it, or
        # the final flush; a reader that closed stdout (`yflab level 30 | head`) is no error
        if code is None and not hasattr(exc, "status"):
            raise
        code = getattr(exc, "status", code)
        if not isinstance(exc, BrokenPipeError):  # `yflab level 3 > /dev/full`
            print(f"yflab: error: cannot write stdout: {exc.strerror}", file=sys.stderr)
            code = code or 2  # 1 means an identity failure
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the flush at exit
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
