"""CLI surface: subcommands, exit codes, determinism of outputs."""

import csv
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


def test_kernel_closure_cap_exit_code(fig_files, monkeypatch, capsys):
    from mphom import cli, presentations

    x, y = fig_files
    monkeypatch.setattr(presentations, "CLOSURE_CAP", 3)
    assert cli.main(["hom", str(x), str(y), "--alg", "a"]) == 4
    assert "join closure" in capsys.readouterr().err


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


def test_stats_flag_appends_csv(fig_files, tmp_path):
    x, y = fig_files
    stats = tmp_path / "stats.csv"
    out = run_cli("hom", str(x), str(y), "--alg", "b", "--stats", str(stats))
    assert out.returncode == 0
    with open(stats) as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 2
    assert rows[1][1] == "b"


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
