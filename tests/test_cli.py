import os
import subprocess
import sys
from fractions import Fraction as Fr
from math import factorial
from pathlib import Path

import pytest

from reference_values import level_by_recursion
from yflab import cli
from yflab.cli import main
from yflab.experiments import IdentityResult, SuiteReport
from yflab.harmonic import f, format_rational
from yflab.pathcount import d_paths_formula
from yflab import words
from yflab.words import YFWord


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_f_command(capsys):
    code, out, _ = run(capsys, "f", "21221", "0", "0")
    assert code == 0
    assert out == "1/720\n"


def test_dcount_both(capsys):
    code, out, _ = run(capsys, "dcount", "eps", "21221", "--method", "both")
    assert code == 0
    assert out == "56 56 MATCH\n"
    # the formula rejects rank(y) < rank(x); nothing reaches stdout before it does
    code, out, err = run(capsys, "dcount", "21", "2", "--method", "both")
    assert (code, out) == (2, "")
    assert "formula requires rank(y) >= rank(x)" in err


def test_dcount_single_methods(capsys):
    assert run(capsys, "dcount", "eps", "221", "--method", "dp")[1] == "8\n"
    assert run(capsys, "dcount", "eps", "221", "--method", "formula")[1] == "8\n"
    assert run(capsys, "dcount", "21", "2", "--method", "dp")[:2] == (0, "0\n")
    code, out, err = run(capsys, "dcount", "21", "2", "--method", "formula")
    assert (code, out) == (2, "")
    assert "formula requires rank(y) >= rank(x)" in err


def test_level(capsys):
    code, out, _ = run(capsys, "level", "2")
    assert code == 0
    assert out == "11\n2\n"
    code, out, _ = run(capsys, "level", "0", "--format", "csv")
    assert out == "word\neps\n"


def test_level_streams_the_bytes_of_the_tuple(capsys):
    # the streamed words against the recursive definition of a level's order
    for n in range(21):
        names = [YFWord(v).text or "eps" for v in level_by_recursion(n)]
        assert run(capsys, "level", str(n)) == (0, "".join(f"{a}\n" for a in names), "")
        csv_text = "".join(f"{a}\n" for a in ["word", *names])
        assert run(capsys, "level", str(n), "--format", "csv") == (0, csv_text, "")


def test_level_builds_no_tuple(capsys, monkeypatch):
    expected = "".join(f"{YFWord(v).text}\n" for v in level_by_recursion(20))

    def refuse(n):
        raise AssertionError("level built a tuple of words")

    monkeypatch.setattr(words, "_level", refuse)
    assert run(capsys, "level", "20") == (0, expected, "")


def child_env():
    """The environment of a child Python that imports this checkout's yflab."""
    path = [str(Path(words.__file__).parents[1])]
    path += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def test_level_stops_quietly_when_the_reader_closes():
    # as in `yflab level 25 | head -1`: the stream meets a closed pipe, not a traceback
    proc = subprocess.Popen([sys.executable, "-m", "yflab.cli", "level", "25"], env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"1" * 25 + b"\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")


def test_import_loads_neither_dataclasses_nor_multiprocessing():
    # start-up cost: dataclasses' import and generated methods were most of `import
    # yflab`, and a sweep opens its multiprocessing pool only when it needs one
    src = str(Path(words.__file__).parents[1])
    script = (f"import sys; sys.path.insert(0, {src!r}); import yflab, yflab.cli; "
              "print(sorted({'dataclasses', 'multiprocessing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (0, "[]\n", "")


def verify_failure_behind_a_closed_pipe(env) -> tuple[int, bytes]:
    """Exit status and stderr of a child `yflab verify` whose suite fails and whose
    reader has closed stdout before the report is written."""
    script = "\n".join([
        "import sys",
        "from yflab import cli",
        "from yflab.experiments import IdentityResult, SuiteReport",
        "failing = SuiteReport(3, (IdentityResult('evtuh5', 4, 1, 'x=21'),))",
        "cli.identity_suite = lambda max_rank: failing",
        "sys.stdin.read()  # wait until the reader has closed stdout",
        "sys.argv = ['yflab', 'verify', '--max-rank', '3']",
        "cli.entry_point()",
    ])
    proc = subprocess.Popen([sys.executable, "-c", script], env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    proc.stdin.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=60), err


def test_verify_failure_survives_a_closed_pipe():
    # as in `yflab verify --max-rank 6 | true`: the report sits in stdout's buffer when
    # main() returns 1, and only the final flush meets the closed pipe
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)  # a block-buffered stdout, as a shell pipe gives
    assert verify_failure_behind_a_closed_pipe(env) == (1, b"")


def test_unbuffered_verify_failure_survives_a_closed_pipe():
    # with stdout unbuffered the report's own write meets the closed pipe inside
    # main(), before it returns; the status decided before that write is kept
    env = dict(child_env(), PYTHONUNBUFFERED="1")
    assert verify_failure_behind_a_closed_pipe(env) == (1, b"")


FAILING_VERIFY = "\n".join([
    "import sys",
    "from yflab import cli",
    "from yflab.experiments import IdentityResult, SuiteReport",
    "cli.identity_suite = lambda max_rank: SuiteReport(3, (IdentityResult('evtuh5', 4, 1, 'x=21'),))",
    "sys.argv = ['yflab', 'verify', '--max-rank', '3']",
    "cli.entry_point()",
])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_stdout_write_error_exits_2_with_one_line():
    # as in `yflab level 3 > /dev/full`: a write error on stdout is one error line and
    # status 2, not a traceback with status 1, which means an identity failure; a
    # verify that found a failure keeps its 1
    for argv, status in ((["-m", "yflab.cli", "level", "3"], 2),
                         (["-m", "yflab.cli", "verify", "--max-rank", "3"], 2),
                         (["-c", FAILING_VERIFY], 1)):
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, *argv], env=child_env(), stdout=full,
                                  stderr=subprocess.PIPE, timeout=60)
        assert (proc.returncode, proc.stderr) == (
            status, b"yflab: error: cannot write stdout: No space left on device\n"), argv


def test_scalar_commands(capsys):
    assert run(capsys, "g", "21221")[1] == "2,4,7\n"
    assert run(capsys, "q", "122")[1] == "1/40\n"
    assert run(capsys, "pi", "221")[1] == "3/8\n"
    assert run(capsys, "dbeta", "2")[1] == "1/2,0,-1/2\n"
    assert run(capsys, "dprime", "eps", "--w", "22", "--beta", "1/2")[1] == "1\n"


def test_measure_masses_sum_to_one(capsys):
    code, out, _ = run(capsys, "measure", "--w", "eps", "--beta", "1/2", "--n", "3",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "word,mass"
    masses = [Fr(line.split(",")[1]) for line in lines[1:]]
    assert len(masses) == 3
    assert sum(masses) == 1


def test_magic_csv(capsys):
    code, out, _ = run(capsys, "magic", "--w", "2", "--beta", "1/2", "--n", "5",
                       "--symbolic")
    assert code == 0
    assert out.splitlines()[0] == "word,0,1,2,3,4,5"
    assert any(line.startswith("122,") and "(3/40;eps;0;3)" in line
               for line in out.splitlines())


def test_magic_cap(capsys):
    code, _, err = run(capsys, "magic", "--w", "2", "--beta", "1/2", "--n", "17")
    assert code == 2
    assert "cap" in err
    code, out, _ = run(capsys, "magic", "--w", "2", "--beta", "1/2", "--n", "17",
                       "--cap", "18")
    assert code == 0
    assert len(out.splitlines()) == 1 + 2584  # fibonacci(18) rows


def test_measure_cap_refuses_before_building(capsys, monkeypatch):
    # a level's masses are all held at once: ranks above the cap exit 2 before any is made
    def refuse(*args, **kwargs):
        raise AssertionError("measure built a level above its cap")

    monkeypatch.setattr("yflab.cli.level_distribution", refuse)
    for argv in (["--n", "40"], ["--n", str(cli.MEASURE_DEFAULT_CAP + 1)],
                 ["--n", "6", "--cap", "5"]):
        code, out, err = run(capsys, "measure", "--w", "221", "--beta", "4/7", *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("yflab: error: ") and "--cap" in err, argv
    monkeypatch.undo()
    code, out, _ = run(capsys, "measure", "--w", "221", "--beta", "4/7", "--n", "6", "--cap", "6")
    assert code == 0
    assert len(out.splitlines()) == 13  # fibonacci(7) words


def test_sweep(capsys):
    code, out, _ = run(capsys, "sweep", "--mode", "suffix", "--w", "22",
                       "--beta", "1/2", "--l", "2", "--n", "4..8..2",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mode,core,beta,param,n,tail,head,arithmetic"
    assert [line.split(",")[4] for line in lines[1:]] == ["4", "6", "8"]
    tail, head = lines[1].split(",")[5:7]
    assert Fr(tail) + Fr(head) == 1


def test_huge_exact_values_print(capsys):
    x = YFWord((2,) * 1500)
    code, out, _ = run(capsys, "f", x.text, "4", "1400")
    assert code == 0
    # main lifted the int-to-str digit limit, so the expected text can be built here.
    assert out == format_rational(f(x, 4, 1400)) + "\n"
    assert len(out) > 4300
    code, out, _ = run(capsys, "dcount", "2", x.text, "--method", "formula")
    assert code == 0
    assert out == f"{d_paths_formula(YFWord((2,)), x)}\n"
    assert len(out) > 4300


def test_long_f_chain_prints_without_recursion_error(capsys):
    # 1^1200: the f recursion would be 1,100 calls deep; f unwinds it in a loop.
    code, out, err = run(capsys, "f", "1" * 1200, "1100", "1150")
    assert code == 0 and err == ""
    closed = sum((Fr((-1) ** (1100 - k), factorial(1100 - k) * factorial(100))
                  for k in range(1101)), Fr(0))
    assert out == format_rational(closed) + "\n"


def test_sweep_requires_exactly_one_parameter(capsys):
    code, _, err = run(capsys, "sweep", "--mode", "suffix", "--w", "22",
                       "--beta", "1/2", "--n", "4")
    assert code == 2
    code, _, err = run(capsys, "sweep", "--mode", "pi", "--w", "22",
                       "--beta", "1/2", "--l", "1", "--n", "4")
    assert code == 2


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", "--max-rank", "3")
    assert code == 0
    assert "ALL IDENTITIES PASS" in out


def test_verify_refuses_a_rank_past_the_cap(capsys):
    # the suite's cap is rank 16: rank 17 is a usage error, one line on stderr
    code, out, err = run(capsys, "verify", "--max-rank", "17")
    assert (code, out) == (2, "")
    assert err.startswith("yflab: error: ") and err.count("\n") == 1, err


def test_verify_matches_benchmark_golden(capsys):
    # the benchmark's verify workload checks these bytes too; this keeps the gate in the suite
    goldens = Path(__file__).resolve().parents[1] / "perfbench" / "goldens"
    for rank in (5, 8):
        code, out, _ = run(capsys, "verify", "--max-rank", str(rank))
        assert code == 0, rank
        assert out == (goldens / f"verify-{rank}.txt").read_bytes().decode(), rank


POINTWISE_GOLDENS = Path(__file__).resolve().parent / "goldens"
DBETA_WORDS = ("2212", "12212", "222122", "2212122", "21221212")
DCOUNT_PAIRS = (("212", "2212122"), ("2212", "22122122"), ("eps", "2221221"),
                ("22", "2122221"), ("121", "2212221221"))


def test_pointwise_oracles_match_goldens(capsys):
    # the measures, magic table, d_beta and both path-count routes print the bytes
    # pinned before the f rows took their product form (the rank-13 measure: before
    # each level shared one weight vector)
    def stdout(*argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        return out

    def golden(name):
        return (POINTWISE_GOLDENS / name).read_bytes().decode()

    assert stdout("measure", "--w", "212", "--beta", "3/7", "--n", "10", "--format", "csv") \
        == golden("measure-212-3_7-10.csv")
    assert stdout("measure", "--w", "22", "--beta", "5/7", "--n", "13", "--format", "csv") \
        == golden("measure-22-5_7-13.csv")
    assert stdout("magic", "--w", "22", "--beta", "4/7", "--n", "7") == golden("magic-22-4_7-7.txt")
    assert "".join(stdout("dbeta", w) for w in DBETA_WORDS) == golden("dbeta.txt")
    assert "".join(stdout("dcount", x, y, "--method", "both") for x, y in DCOUNT_PAIRS) \
        == golden("dcount.txt")


def test_suffix_sweep_matches_golden(capsys):
    # the 212 sweep was pinned from the split engine, the 22 sweep from chain states
    # built per rank; the class sums of one chain print the same bytes
    for core, beta, ranks, name in (("212", "3/7", "8..40..8", "sweep-suffix-212-3_7-2.csv"),
                                    ("22", "1/2", "40..200..40", "sweep-suffix-22-1_2-2.csv")):
        code, out, _ = run(capsys, "sweep", "--mode", "suffix", "--w", core, "--beta", beta,
                           "--l", "2", "--n", ranks, "--format", "csv")
        assert code == 0
        assert out == (POINTWISE_GOLDENS / name).read_bytes().decode(), name


def test_symbolic_magic_builds_no_table(capsys, monkeypatch):
    # the factored cells depend on neither w nor beta: no kernel or table is needed
    def refuse(*args, **kwargs):
        raise AssertionError("the symbolic table built a kernel or a table")

    for target in ("yflab.cli.build_table", "yflab.magic.factored_table",
                   "yflab.boundary._kernel_terms", "yflab.magic._class_words"):
        monkeypatch.setattr(target, refuse)
    code, out, _ = run(capsys, "magic", "--w", "212", "--beta", "3/7", "--n", "9", "--symbolic")
    assert code == 0
    assert out == (POINTWISE_GOLDENS / "magic-symbolic-9.csv").read_bytes().decode()


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    failing = SuiteReport(3, (IdentityResult("evtuh5", 4, 1, "x=21"),))
    monkeypatch.setattr("yflab.cli.identity_suite", lambda max_rank: failing)
    code, out, _ = run(capsys, "verify", "--max-rank", "3")
    assert code == 1
    assert "FAIL" in out


def test_usage_errors_exit_2(capsys, tmp_path):
    assert run(capsys, "f", "13", "0", "0")[0] == 2
    assert run(capsys, "q", "103")[0] == 2
    assert run(capsys, "measure", "--w", "2", "--beta", "3/2", "--n", "3")[0] == 2
    assert run(capsys, "dcount", "21", "2")[0] == 2  # rank order violation
    code, _, err = run(capsys, "level", "3", "--output", str(tmp_path / "missing" / "x.txt"))
    assert code == 2
    assert err.startswith("yflab: error: ")
    for bad in (["--n", "3", "--jobs", "0"], ["--n", "3", "--jobs", "-1"], ["--n=-1"]):
        code, _, err = run(capsys, "sweep", "--mode", "suffix", "--w", "22", "--beta", "1/2",
                           "--l", "2", *bad)
        assert code == 2
        assert err.startswith("yflab: error: ")
    code, out, err = run(capsys, "verify", "--max-rank", "-1")
    assert (code, out) == (2, "")
    assert err.startswith("yflab: error: ")
    # a beta or eps that is not p/q is refused before any work, not read as a decimal
    for bad in ("0.25", "1e-3", "1/2 "):
        for argv in (["dprime", "12", "--w", "22", "--beta", bad],
                     ["sweep", "--mode", "pi", "--w", "22", "--beta", "1/2", "--eps", bad, "--n", "4"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == f"yflab: error: not a rational: {bad!r}\n", argv
    # levels from rank 92 on cannot be held; they are refused before any is built
    for argv in (["level", "92"], ["level", "1500"],
                 ["measure", "--w", "2", "--beta", "1/2", "--n", "1500"],
                 ["magic", "--w", "212", "--beta", "3/2", "--n", "5", "--symbolic"],
                 # a negative table rank is refused before the class pass, dense or symbolic
                 ["magic", "--w", "22", "--beta", "1/2", "--n", "-1"],
                 ["magic", "--w", "22", "--beta", "1/2", "--n", "-1", "--symbolic"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("yflab: error: "), argv
    for argv in (["no-such-command"],
                 ["sweep", "--mode", "suffix", "--w", "22", "--beta", "1/2", "--l", "2",
                  "--n", "4", "--float"]):  # float mode was removed; the flag is unknown
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_huge_ranks_are_refused_at_once(capsys):
    # a rank is compared with the largest one whose level a tuple holds (91), not its
    # Fibonacci number computed first, which took 10 s at rank 10**6 and never ended at
    # 10**20; each child runs main under a 2 s limit, start-up included
    assert words.MAX_LEVEL_RANK == 91 and words.fibonacci(92) <= sys.maxsize < words.fibonacci(93)
    huge = str(10 ** 20)
    script = "import sys; from yflab.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv in (["level", huge], ["measure", "--w", "22", "--beta", "1/2", "--n", huge],
                 ["measure", "--w", "22", "--beta", "1/2", "--n", huge, "--cap", huge],
                 ["magic", "--w", "22", "--beta", "1/2", "--n", huge, "--cap", huge]):
        out = subprocess.run([sys.executable, "-c", script, *argv], env=child_env(),
                             capture_output=True, text=True, timeout=2)
        assert (out.returncode, out.stdout) == (2, ""), argv
        assert out.stderr.startswith("yflab: error: ") and out.stderr.count("\n") == 1, argv
    # measure's cap message gives the count while a tuple could hold the level
    for n, count in (("40", "165580141 "), ("91", "7540113804746346429 "), ("92", "")):
        assert run(capsys, "measure", "--w", "22", "--beta", "1/2", "--n", n) == (
            2, "", f"yflab: error: n={n} exceeds the measure cap 27: its {count}masses are held at "
                   f"about 810 bytes each; raise it with --cap if intended\n")


# one valid argv per command, and the same with a required argument left out
VALID_ARGV = {
    "level": ["level", "3"], "dcount": ["dcount", "1", "21", "--method", "dp"],
    "f": ["f", "21", "1", "0"], "g": ["g", "212"], "q": ["q", "212"], "pi": ["pi", "212"],
    "dbeta": ["dbeta", "212"], "dprime": ["dprime", "12", "--w", "22", "--beta", "1/2"],
    "measure": ["measure", "--w", "22", "--beta", "1/2", "--n", "4"],
    "magic": ["magic", "--w", "22", "--beta", "1/2", "--n", "4", "--symbolic"],
    "sweep": ["sweep", "--mode", "suffix", "--w", "22", "--beta", "1/2", "--l", "2", "--n", "4"],
    "verify": ["verify", "--max-rank", "3"],
}
MISSING_ARGV = {
    "level": ["level"], "dcount": ["dcount", "1"], "f": ["f", "21", "1"], "g": ["g"], "q": ["q"],
    "pi": ["pi"], "dbeta": ["dbeta"], "dprime": ["dprime", "12", "--w", "22"],
    "measure": ["measure", "--w", "22", "--beta", "1/2"], "magic": ["magic", "--w", "22", "--n", "4"],
    "sweep": ["sweep", "--w", "22", "--beta", "1/2", "--l", "2", "--n", "4"], "verify": ["verify"],
}


def test_one_command_parser_matches_the_full_tree(capsys, monkeypatch):
    # main builds only the subparser that argv[0] names, and the full tree for help,
    # no command or an unknown one; every help text, usage error and namespace must
    # be the full tree's on the running interpreter
    assert list(VALID_ARGV) == list(MISSING_ARGV) == list(cli.COMMANDS) and len(cli.COMMANDS) == 12
    full, built = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda only=None: built.append(only) or full(only))

    def outcome(parse, argv):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        out = capsys.readouterr()
        return exc.value.code, out.out, out.err

    cases = [([], None), (["--help"], None), (["no-such-command"], None)]
    for name, argv in VALID_ARGV.items():
        cases += [([name, "--help"], name), (argv + ["--bogus"], name), (argv + ["extra"], name),
                  (MISSING_ARGV[name], name), (argv + ["--format", "xml"], name)]
        assert full(name).parse_args(argv) == full().parse_args(argv), argv
    for argv, only in cases:
        built.clear()
        assert outcome(main, argv) == outcome(full().parse_args, argv), argv
        assert built == [only], argv


def test_every_beta_check_keeps_its_message(capsys):
    # the eight entry points that take a beta refuse one outside (0, 1] with one
    # message; the CLI echoes the text as typed, not the reduced rational
    from yflab import boundary, experiments, harmonic, magic
    from yflab.boundary import TailOnesWord
    w, x = TailOnesWord.parse("22"), YFWord.from_text("21")
    calls = (lambda b: experiments.r_sets(w, b, 3, Fr(1, 4)),
             lambda b: experiments.sweep_many(w, [3], suffix_params=[(b, 1)]),
             lambda b: experiments.sweep_many(w, [3], pi_params=[(Fr(1, 2), Fr(1, 4)), (b, Fr(1, 4))]),
             lambda b: boundary.d_beta_prime(x, w, b),
             lambda b: boundary.level_distribution(w, b, 3),
             lambda b: harmonic.d_beta_eval(x, b),
             lambda b: magic.magic_entry(w, b, 3, x, 1),
             lambda b: magic.build_table(w, b, 3))
    for beta in (Fr(3, 2), Fr(0), Fr(-1, 2)):
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call(beta)
            assert str(exc.value) == f"beta must lie in (0, 1], got {beta}"
    code, out, err = run(capsys, "measure", "--w", "2", "--beta", "6/4", "--n", "3")
    assert (code, out, err) == (2, "", "yflab: error: beta must lie in (0, 1], got 6/4\n")


def test_byte_identical_output(capsys):
    args = ["measure", "--w", "212", "--beta", "3/4", "--n", "7", "--format", "csv"]
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


def test_output_file_and_env_dir(tmp_path, monkeypatch, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run(capsys, "level", "3", "--format", "csv", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "word\n111\n12\n21\n"
    monkeypatch.setenv("YFLAB_OUTPUT_DIR", str(tmp_path))
    code, _, _ = run(capsys, "level", "3", "--format", "csv", "--output", "rel.csv")
    assert code == 0
    assert (tmp_path / "rel.csv").read_text() == "word\n111\n12\n21\n"
