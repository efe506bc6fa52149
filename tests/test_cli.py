"""CLI surface: subcommands, exit codes, determinism of outputs."""

import csv
import pathlib
import subprocess
import sys

import pytest

FIG_M = """pmod 2 3
gens 1
2 2
rels 1
6 2 ; 0:1
"""

FIG_N = """pmod 2 3
gens 2
0 1
1 0
rels 3
2 2 ; 0:1 1:2
5 0 ; 1:1
5 1 ; 0:1
"""


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "mphom.cli", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def fig_files(tmp_path):
    x = tmp_path / "X.pmod"
    y = tmp_path / "Y.pmod"
    x.write_text(FIG_M)
    y.write_text(FIG_N)
    return x, y


def test_hom_direct_header(fig_files):
    x, y = fig_files
    out = run_cli("hom", str(x), str(y), "--alg", "direct")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "hombasis 2 3"
    assert "dim 1" in lines
    assert "coords generators" in lines


def test_hom_all_algorithms_agree(fig_files):
    x, y = fig_files
    for alg in ("direct", "a", "mixed", "b", "a-star", "b-star", "oracle"):
        out = run_cli("hom", str(x), str(y), "--alg", alg)
        assert out.returncode == 0, (alg, out.stderr)
        assert "dim 1" in out.stdout.splitlines(), alg


def test_end_with_check(fig_files, tmp_path):
    x, y = fig_files
    out = run_cli("end", str(y), "--alg", "b", "--check")
    assert out.returncode == 0, out.stderr
    assert "check ok" in out.stderr


def test_thickness_command(fig_files):
    x, y = fig_files
    out = run_cli("thickness", str(y))
    assert out.returncode == 0
    assert out.stdout.strip() == "2"
    out = run_cli("thickness", str(x))
    assert out.stdout.strip() == "1"


def test_cli_outputs_are_deterministic(fig_files, tmp_path):
    x, y = fig_files
    first = run_cli("hom", str(x), str(y), "--alg", "a")
    second = run_cli("hom", str(x), str(y), "--alg", "a")
    assert first.stdout == second.stdout
    r1 = run_cli("random", "--seed", "7", "--gens", "5", "--rels", "5")
    r2 = run_cli("random", "--seed", "7", "--gens", "5", "--rels", "5")
    assert r1.stdout == r2.stdout
    m1 = run_cli("minimize", str(y))
    m2 = run_cli("minimize", str(y))
    assert m1.stdout == m2.stdout


def test_minimize_and_sparsify_round_trip(fig_files):
    _, y = fig_files
    out = run_cli("minimize", str(y))
    assert out.returncode == 0
    assert out.stdout == FIG_N
    sp = run_cli("sparsify", str(y))
    assert sp.returncode == 0
    assert sp.stdout.startswith("pmod 2 3")


def test_missing_file_exit_code():
    out = run_cli("thickness", "no-such-file.pmod")
    assert out.returncode == 2


def test_not_a_directory_exit_code(tmp_path, fig_files):
    x, _ = fig_files
    blocker = tmp_path / "plain"
    blocker.write_text("")
    out = run_cli("thickness", str(blocker / "in.pmod"))
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("file error: "), out.stderr
    target = blocker / "out.txt"
    out = run_cli("thickness", str(x), "--out", str(target))
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("file error: "), out.stderr
    out = run_cli("end", str(x), "--stats", str(target))
    assert out.returncode == 2, out.stderr


def test_non_utf8_input_exit_code(tmp_path):
    binary = tmp_path / "binary.pmod"
    binary.write_bytes(b"pmod 2 3\n\xd0\xff\xfe\x00gens 0\n")
    out = run_cli("thickness", str(binary))
    assert out.returncode == 3, out.stderr
    assert out.stderr.startswith("parse error: "), out.stderr
    assert "not UTF-8" in out.stderr


@pytest.mark.parametrize("value", ["0", "-3"])
def test_grid_cap_below_one_exit_code(fig_files, capsys, value):
    from mphom import cli

    x, _ = fig_files
    assert cli.main(["end", str(x), "--check", "--grid-cap", value]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: --grid-cap {value}: must be >= 1")


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.pmod"
    bad.write_text("pmod 2 4\ngens 0\nrels 0\n")
    out = run_cli("thickness", str(bad))
    assert out.returncode == 3


PMOD_BAD_COUNTS = [
    "pmod 2 3\ngens x\nrels 0\n",
    "pmod 2 3\ngens -1\nrels 0\n",
    "pmod 2 3\ngens 1\n0 0\nrels 1.5\n",
    "pmod 2 3\ngens 1\n0 0\nrels -2\n",
]

FIREP_BAD = [
    "firep\nx\ny\n0 a 1\n1 0 ; 0\n",
    "firep\nx\ny\n0 1 1\n1 0 ; zero\n",
]


@pytest.mark.parametrize("text", PMOD_BAD_COUNTS + FIREP_BAD)
def test_malformed_counts_and_indices_exit_code(tmp_path, text):
    bad = tmp_path / "bad.pmod"
    bad.write_text(text)
    out = run_cli("thickness", str(bad))
    assert out.returncode == 3, out.stderr
    assert "parse error" in out.stderr


def test_large_prime_header_parses(tmp_path):
    big = tmp_path / "big.pmod"
    big.write_text("pmod 2 2305843009213693951\ngens 1\n0 0\nrels 0\n")
    out = run_cli("minimize", str(big))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0] == "pmod 2 2305843009213693951"


def test_prime_at_or_above_2_to_63_exit_code(tmp_path):
    huge = tmp_path / "huge.pmod"
    huge.write_text(f"pmod 2 {2**63 + 29}\ngens 1\n0 0\nrels 0\n")
    out = run_cli("minimize", str(huge))
    assert out.returncode == 3, out.stderr
    assert "parse error" in out.stderr and "2^63" in out.stderr


def test_kernel_closure_cap_exit_code(tmp_path, monkeypatch, capsys):
    from mphom import cli, presentations

    # The running example lifted to d=3: the d=2 kernel builds no join
    # closure, so only d != 2 inputs can reach the cap.
    x = tmp_path / "X3.pmod"
    y = tmp_path / "Y3.pmod"
    x.write_text("pmod 3 3\ngens 1\n2 2 0\nrels 1\n6 2 0 ; 0:1\n")
    y.write_text("pmod 3 3\ngens 2\n0 1 0\n1 0 0\nrels 3\n"
                 "2 2 0 ; 0:1 1:2\n5 0 0 ; 1:1\n5 1 0 ; 0:1\n")
    monkeypatch.setattr(presentations, "CLOSURE_CAP", 3)
    # a-star resolves both operands, so it reaches the cap; route a reads
    # its relation subsets off N's slices and builds no kernel.
    assert cli.main(["hom", str(x), str(y), "--alg", "a-star"]) == 4
    assert "join closure" in capsys.readouterr().err
    assert cli.main(["hom", str(x), str(y), "--alg", "a"]) == 0


def test_oracle_system_cap_exit_code(fig_files, monkeypatch, capsys):
    from mphom import cli, gridoracle

    x, y = fig_files
    # End(Y) has 22 equations in 17 variables, one byte each over GF(3).
    monkeypatch.setattr(gridoracle, "SYSTEM_BYTES_CAP", 22 * 17 - 1)
    assert cli.main(["end", str(y), "--alg", "oracle"]) == 4
    assert "22 equations x 17 variables" in capsys.readouterr().err
    assert cli.main(["end", str(y), "--alg", "b", "--check"]) == 4
    monkeypatch.setattr(gridoracle, "SYSTEM_BYTES_CAP", 22 * 17)
    assert cli.main(["end", str(y), "--alg", "oracle"]) == 0


def test_grid_cap_exit_code(fig_files):
    x, y = fig_files
    out = run_cli("hom", str(x), str(y), "--alg", "oracle", "--grid-cap", "2")
    assert out.returncode == 4


def test_field_mismatch_is_an_error(fig_files):
    x, _ = fig_files
    out = run_cli("thickness", str(x), "--field", "5")
    assert out.returncode != 0


@pytest.mark.parametrize("value", ["4", "0", str(2**63 + 29)])
def test_bad_field_flag_exit_code(fig_files, capsys, value):
    from mphom import cli

    x, y = fig_files
    commands = (
        ["hom", str(x), str(y)],
        ["end", str(y)],
        ["thickness", str(x)],
        ["minimize", str(x)],
        ["sparsify", str(x)],
        ["random"],
        ["bench", "--count", "1"],
    )
    for command in commands:
        assert cli.main(command + ["--field", value]) == 3, command
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: --field {value}:"), err


def test_field_flag_on_random_sets_the_prime(capsys):
    from mphom import cli

    assert cli.main(["random", "--field", "5", "--gens", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "pmod 2 5"


def test_bench_csv(tmp_path):
    target = tmp_path / "bench.csv"
    out = run_cli(
        "bench", "--count", "2", "--seed", "3", "--gens", "4", "--rels", "4",
        "--out", str(target),
    )
    assert out.returncode == 0, out.stderr
    with open(target) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == [
        "instance", "algorithm", "variables", "equations", "avg_entries",
        "time_s", "dim_hom", "thick_target", "thick_target_betti",
        "b0_source", "b1_source", "b0_target", "b1_target",
    ]
    # 2 instances x 4 algorithms.
    assert len(rows) == 1 + 8
    # Each instance has a single dimension across algorithms.
    dims = {}
    for row in rows[1:]:
        dims.setdefault(row[0], set()).add(row[6])
    assert all(len(v) == 1 for v in dims.values())


def test_bench_parallel_matches_serial(tmp_path):
    a = tmp_path / "serial.csv"
    b = tmp_path / "parallel.csv"
    run_cli("bench", "--count", "2", "--seed", "5", "--gens", "4",
            "--rels", "4", "--out", str(a))
    run_cli("bench", "--count", "2", "--seed", "5", "--gens", "4",
            "--rels", "4", "--jobs", "2", "--out", str(b))

    def strip_times(path):
        with open(path) as handle:
            rows = list(csv.reader(handle))
        return [row[:5] + row[6:] for row in rows]

    assert strip_times(a) == strip_times(b)


def test_random_then_hom_pipeline(tmp_path):
    mod = tmp_path / "m.pmod"
    out = run_cli("random", "--seed", "11", "--gens", "5", "--rels", "4",
                  "--out", str(mod))
    assert out.returncode == 0
    end = run_cli("end", str(mod), "--alg", "mixed", "--check")
    assert end.returncode == 0, end.stderr


def test_check_passes_on_bundled_fixture_corpus():
    import pathlib

    fixtures = pathlib.Path(__file__).parent / "fixtures"
    files = sorted(fixtures.iterdir())
    assert files, "fixture corpus missing"
    for path in files:
        out = run_cli("end", str(path), "--check")
        assert out.returncode == 0, (path.name, out.stderr)
        assert "check ok" in out.stderr


def test_firep_input_is_detected(tmp_path):
    import pathlib

    firep = pathlib.Path(__file__).parent / "fixtures" / "rectangle.firep"
    out = run_cli("thickness", str(firep))
    assert out.returncode == 0
    assert out.stdout.strip() == "1"


def test_field_flag_on_firep_input_is_a_field_mismatch(capsys):
    # firep files are GF(2) incidence data, like a pmod header over GF(2).
    from mphom import cli

    firep = pathlib.Path(__file__).parent / "fixtures" / "rectangle.firep"
    assert cli.main(["end", str(firep), "--field", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: file is over GF(2), expected GF(5)"), err
    assert cli.main(["end", str(firep), "--field", "2", "--check"]) == 0


def test_stats_flag_appends_csv(fig_files, tmp_path):
    x, y = fig_files
    stats = tmp_path / "stats.csv"
    out = run_cli("hom", str(x), str(y), "--alg", "b", "--stats", str(stats))
    assert out.returncode == 0
    with open(stats) as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 2
    assert rows[1][1] == "b"


@pytest.mark.parametrize("command", ["hom", "end"])
def test_stats_with_oracle_is_rejected_before_reading_input(
        tmp_path, capsys, command):
    # The oracle writes no bench CSV row, so the flags conflict; the
    # missing inputs would give exit 2 if they were read.
    from mphom import cli

    missing = str(tmp_path / "missing.pmod")
    inputs = [missing] * (2 if command == "hom" else 1)
    stats = tmp_path / "stats.csv"
    argv = [command, *inputs, "--alg", "oracle", "--stats", str(stats)]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error: --stats with --alg oracle"), err
    assert not stats.exists()


def test_bench_csv_header_and_row_text(tmp_path):
    from mphom.benchmarks import BenchRecord, write_csv, write_rows

    record = BenchRecord("end-0", "b", 12, 30, 2.5, 0.001234, 1, 2, 2,
                         3, 4, 3, 4)
    header = ("instance,algorithm,variables,equations,avg_entries,time_s,"
              "dim_hom,thick_target,thick_target_betti,b0_source,"
              "b1_source,b0_target,b1_target\r\n")
    row = "end-0,b,12,30,2.5000,0.001234,1,2,2,3,4,3,4\r\n"
    path = tmp_path / "bench.csv"
    write_csv([record], path)
    assert path.read_bytes().decode() == header + row
    # Appending, as `--stats` does, writes the header only to a new file.
    for expected in (header + row, header + row + row):
        with open(tmp_path / "stats.csv", "a", newline="") as handle:
            write_rows(handle, [record])
        assert (tmp_path / "stats.csv").read_bytes().decode() == expected


@pytest.mark.parametrize("text", [
    # The boundary of the top row is not a cycle.
    "firep\nx\ny\n1 1 1\n2 2 ; 0\n1 1 ; 0\n",
    # The top row at (0, 0) hits a middle row of degree (1, 1).
    "firep\nx\ny\n1 1 0\n0 0 ; 0\n1 1 ;\n",
])
def test_firep_top_row_that_does_not_lift_exit_code(tmp_path, capsys, text):
    from mphom import cli

    path = tmp_path / "bad.firep"
    path.write_text(text)
    assert cli.main(["minimize", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error: line 5: top boundary"), err


@pytest.mark.parametrize("command, flag, value", [
    ("random", "--d", "0"),
    ("random", "--d", "-1"),
    ("random", "--gens", "-1"),
    ("random", "--rels", "-2"),
    ("random", "--coord-range", "-3"),
    ("bench", "--d", "0"),
    ("bench", "--gens", "-1"),
    ("bench", "--rels", "-1"),
    ("bench", "--coord-range", "-3"),
    ("bench", "--count", "-1"),
    ("bench", "--jobs", "0"),
])
def test_bad_size_argument_exit_code(tmp_path, capsys, command, flag, value):
    from mphom import cli

    out = tmp_path / "out"
    assert cli.main([command, flag, value, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: {flag} {value}: must be >="), err
    assert not out.exists()


def test_smallest_size_arguments_are_accepted(capsys):
    from mphom import cli

    assert cli.main(["random", "--d", "1", "--gens", "0", "--rels", "0",
                     "--coord-range", "0"]) == 0
    assert capsys.readouterr().out == "pmod 1 2\ngens 0\nrels 0\n"


def test_random_module_rejects_no_parameters():
    from mphom.generators import random_module

    with pytest.raises(ValueError):
        random_module(0, d=0)


def test_check_with_oracle_output_solves_the_oracle_once(fig_files, monkeypatch,
                                                         capsys):
    from mphom import cli

    x, _ = fig_files
    assert cli.main(["end", str(x), "--alg", "oracle"]) == 0
    alone = capsys.readouterr().out
    calls = []
    solve = cli.hom_oracle

    def counted(gx, gy):
        calls.append((gx, gy))
        return solve(gx, gy)

    monkeypatch.setattr(cli, "hom_oracle", counted)
    assert cli.main(["end", str(x), "--check", "--alg", "oracle"]) == 0
    assert capsys.readouterr().out == alone
    assert len(calls) == 1


FIXTURE_DIR = pathlib.Path(__file__).parent / "fixtures"
FIXTURES = sorted(FIXTURE_DIR.iterdir())


def test_end_check_realizes_one_grid(monkeypatch, capsys):
    from mphom import cli

    x = FIXTURE_DIR / "fig_blue.pmod"
    calls = []
    realize = cli.realize_grid

    def counted(pres, axes, cap):
        calls.append(pres)
        return realize(pres, axes, cap=cap)

    monkeypatch.setattr(cli, "realize_grid", counted)
    assert cli.main(["hom", str(x), str(x), "--check", "--alg", "oracle"]) == 0
    hom = capsys.readouterr().out
    assert len(calls) == 2
    calls.clear()
    assert cli.main(["end", str(x), "--check", "--alg", "oracle"]) == 0
    assert capsys.readouterr().out == hom
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["rectangle.firep", "fig_blue.pmod"])
def test_input_is_minimized_once(monkeypatch, capsys, name):
    from mphom import cli, formats

    calls = []
    minimize = cli.minimize

    def counted(pres):
        calls.append(pres)
        return minimize(pres)

    # `parse_firep` minimizes what it builds; the CLI minimizes pmod input.
    monkeypatch.setattr(formats, "minimize", counted)
    monkeypatch.setattr(cli, "minimize", counted)
    assert cli.main(["minimize", str(FIXTURE_DIR / name)]) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("alg", ["direct", "a", "mixed", "b", "a-star",
                                 "b-star"])
def test_check_runs_each_route_once(monkeypatch, capsys, alg):
    from mphom import cli
    from mphom.benchmarks import DUAL_ALGORITHMS, PRIMAL_ALGORITHMS

    path = str(FIXTURE_DIR / "rand_17_gf2.pmod")
    calls = {}

    def counted(name, func):
        def run(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return func(*args, **kwargs)
        return run

    for table in (PRIMAL_ALGORITHMS, DUAL_ALGORITHMS):
        for name, func in list(table.items()):
            monkeypatch.setitem(table, name, counted(name, func))
    monkeypatch.setattr(cli, "dual_context",
                        counted("dual_context", cli.dual_context))
    assert cli.main(["end", path, "--check", "--alg", alg]) == 0
    capsys.readouterr()
    assert calls == {name: 1 for name in (
        "direct", "a", "mixed", "b", "dual_context", "a-star", "b-star")}


@pytest.mark.parametrize("alg", ["a-star", "b-star"])
def test_dual_routes_reject_a_zero_module_over_another_field(capsys, alg):
    from mphom import cli

    empty = str(FIXTURE_DIR / "empty.pmod")  # over GF(3)
    other = str(FIXTURE_DIR / "rand_17_gf2.pmod")
    for pair in ((empty, other), (other, empty)):
        assert cli.main(["hom", *pair, "--alg", alg]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: presentations over different fields")


@pytest.mark.parametrize("path", FIXTURES, ids=[p.name for p in FIXTURES])
def test_check_writes_the_same_basis(capsys, path):
    from mphom import cli

    for alg in cli.ALGORITHM_CHOICES:
        assert cli.main(["end", str(path), "--alg", alg]) == 0
        alone = capsys.readouterr().out
        assert cli.main(["end", str(path), "--check", "--alg", alg]) == 0
        assert capsys.readouterr().out == alone, alg


def test_bench_jobs_are_capped(monkeypatch):
    from mphom import benchmarks

    started = []

    class Recorder:
        """Stands in for the process pool; runs the tasks in-process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, tasks):
            return map(func, tasks)

    monkeypatch.setattr(benchmarks, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(benchmarks.os, "cpu_count", lambda: 3)
    small = dict(gens=3, rels=3, coord_range=4, algorithms=("a",))
    serial = benchmarks.run_bench(4, jobs=1, **small)
    assert started == []
    for jobs, count, workers in ((10**6, 4, 3), (10**6, 2, 2), (2, 4, 2)):
        records = benchmarks.run_bench(count, jobs=jobs, **small)
        assert started.pop() == workers
        assert [r.dim_hom for r in records] == [
            r.dim_hom for r in serial[:count]
        ]
    # One job per instance, or a single CPU, runs in-process.
    assert benchmarks.run_bench(1, jobs=10**6, **small)
    monkeypatch.setattr(benchmarks.os, "cpu_count", lambda: None)
    assert benchmarks.run_bench(3, jobs=10**6, **small)
    assert started == []


EMPTY_D3 = "pmod 3 2\ngens 0\nrels 0\n"
EMPTY_FIREP = "firep\nx\ny\n0 0 0\n"


@pytest.mark.parametrize("text, d", [(EMPTY_D3, 3), (EMPTY_FIREP, 2)])
def test_empty_file_keeps_its_arity(tmp_path, capsys, text, d):
    # An empty presentation has no degree to read d off, so the writers
    # take it from the file's header (2 for firep).
    from mphom import cli

    path = tmp_path / "empty"
    path.write_text(text)
    for argv, first in (
            (["minimize"], f"pmod {d} 2"),
            (["sparsify"], f"pmod {d} 2"),
            (["end"], f"hombasis {d} 2"),
            (["end", "--alg", "oracle"], f"hombasis {d} 2"),
            (["end", "--check"], f"hombasis {d} 2")):
        assert cli.main([*argv, str(path)]) == 0, argv
        assert capsys.readouterr().out.split("\n", 1)[0] == first, argv
    if text == EMPTY_D3:
        assert cli.main(["minimize", str(path)]) == 0
        assert capsys.readouterr().out == EMPTY_D3


@pytest.mark.parametrize("first, second", [
    ("pmod 2 2\ngens 0\nrels 0\n", "pmod 3 2\ngens 1\n0 0 0\nrels 0\n"),
    ("pmod 2 2\ngens 0\nrels 0\n", EMPTY_D3),
    (EMPTY_FIREP, EMPTY_D3),
    ((FIXTURE_DIR / "rand_17_gf2.pmod").read_text(), EMPTY_D3),
])
@pytest.mark.parametrize("extra", [[], ["--check"], ["--alg", "oracle"]])
def test_pair_of_different_arities_is_rejected(tmp_path, capsys, first,
                                                second, extra):
    # Whether or not a module is empty, a pair whose headers give
    # different d is the mismatch that two non-empty modules raise.
    from mphom import cli

    a, b = tmp_path / "a", tmp_path / "b"
    a.write_text(first)
    b.write_text(second)
    for pair in ((a, b), (b, a)):
        assert cli.main(["hom", *map(str, pair), *extra]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(
            "error: presentations graded over different posets"), err
