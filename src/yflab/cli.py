"""Command-line front end; every command prints reproducible text.

Words are given as digit strings over {1,2}; the literal ``eps`` is the
empty word.  Rationals are written ``p/q`` (never decimals).  Identical
invocations produce byte-identical output: fixed level order, lowest-terms
rationals, no timestamps.

Exit status: 0 on success, 1 when ``verify`` finds an exact-identity
failure, 2 on usage errors.  A reader that closes stdout early (``yflab level
30 | head``) ends the command quietly, with status 0; when only the final
flush meets the closed pipe, the status the command returned is kept (1 for
a failed ``verify``).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain
from typing import Iterator, TextIO

from .boundary import TailOnesWord, d_beta_prime, level_distribution
from .experiments import concentration_sweep, identity_suite
from .harmonic import _csv_rows, d_beta, f, format_rational, g_all, parse_rational, pi, q
from .magic import build_table, symbolic_csv
from .pathcount import d_paths_dp, d_paths_formula
from .words import YFWord, iter_level

OUTPUT_DIR_ENV = "YFLAB_OUTPUT_DIR"
MAGIC_DEFAULT_CAP = 16


def _word(text: str) -> YFWord:
    if text == "eps":
        return YFWord()
    return YFWord.from_text(text)


def _beta(text: str) -> Fraction:
    value = parse_rational(text)
    if not 0 < value <= 1:
        raise ValueError(f"beta must lie in (0, 1], got {text}")
    return value


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
def _output(args) -> Iterator[TextIO]:
    """The stream a command writes to: stdout, or the --output file."""
    path = getattr(args, "output", None)
    if path is None:
        yield sys.stdout
        return
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    try:
        with open(path, "w", newline="") as handle:
            yield handle
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def _emit(text: str, args) -> None:
    with _output(args) as out:
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
    _emit(report.to_csv() if args.format == "csv" else report.to_text(), args)
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yflab",
        description="Exact computations on the Young-Fibonacci lattice.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("csv", "pretty"), default="pretty")
        p.add_argument("--output", help=f"output file; relative paths resolve "
                                        f"against ${OUTPUT_DIR_ENV} when set")
        return p

    p = add("level", _cmd_level, "list all words of one rank")
    p.add_argument("n", type=int)

    p = add("dcount", _cmd_dcount, "count descending paths between two words")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--method", choices=("dp", "formula", "both"), default="both")

    p = add("f", _cmd_f, "evaluate f(x, y, z)")
    p.add_argument("x")
    p.add_argument("y", type=int)
    p.add_argument("z", type=int)

    p = add("g", _cmd_g, "all g-values of a word")
    p.add_argument("x")

    p = add("q", _cmd_q, "the suffix-rank product weight q(x)")
    p.add_argument("x")

    p = add("pi", _cmd_pi, "the product pi(x) over g-values exceeding 1")
    p.add_argument("x")

    p = add("dbeta", _cmd_dbeta, "coefficients of the beta polynomial of x")
    p.add_argument("x")

    p = add("dprime", _cmd_dprime, "the kernel d'_beta(x, w)")
    p.add_argument("x")
    p.add_argument("--w", required=True, help="core of the tail-ones word (eps allowed)")
    p.add_argument("--beta", required=True)

    p = add("measure", _cmd_measure, "boundary-measure masses over one rank")
    p.add_argument("--w", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("magic", _cmd_magic, "the dense table for (w, beta, n) as CSV")
    p.add_argument("--w", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--symbolic", action="store_true",
                   help="cells as (coeff;tail;beta_exp;one_minus_beta2_exp)")
    p.add_argument("--cap", type=int, default=MAGIC_DEFAULT_CAP,
                   help="refuse dense tables beyond this rank")

    p = add("sweep", _cmd_sweep, "tail masses outside a concentration set")
    p.add_argument("--mode", choices=("suffix", "pi"), required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--l", type=int)
    p.add_argument("--eps")
    p.add_argument("--n", required=True, help="rank list: N, A..B or A..B..STEP")
    p.add_argument("--jobs", type=int, default=1)

    p = add("verify", _cmd_verify, "run the exhaustive identity suite")
    p.add_argument("--max-rank", type=int, required=True)

    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact values may exceed 4300 digits
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"yflab: error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    code = 0
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`yflab level 30 | head`): stop without a
        # traceback, and send what is still buffered to devnull for the flush at exit;
        # a status main() returned before the final flush failed is kept
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
