"""Command-line interface: output contracts, exit codes, CSV schema."""

import argparse
import csv
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import ampsat
from ampsat import cli, parse_dimacs, verify
from ampsat.cli import (
    CSV_FIELDS,
    SINGLE_THREAD_BLAS_ENV,
    build_parser,
    derive_seed,
    main,
    parse_assignment_file,
    run_one,
    single_thread_blas_pool,
)

ONE_CLAUSE = "p cnf 2 1\n1 2 0\n"
EMPTY_CLAUSE = "p cnf 2 2\n1 2 0\n0\n"
README = Path(__file__).resolve().parents[1] / "README.md"
EMPTY = "p cnf 3 0\n"
UNSAT = "p cnf 1 2\n1 0\n-1 0\n"
TINY_SAT = "p cnf 4 3\n1 2 0\n-1 3 0\n2 -4 0\n"
INSTANCES = Path(__file__).resolve().parents[1] / "instances"


def _report_worker_env(_):
    """Runs in a bench pool worker: its pid, its environment now, and the
    environment it was exec'd with (Linux only), which is what numpy saw
    when it loaded."""
    initial = None
    proc = Path("/proc/self/environ")
    if proc.exists():
        entries = proc.read_bytes().decode(errors="replace").split("\0")
        initial = dict(e.split("=", 1) for e in entries if "=" in e)
    return {
        "pid": os.getpid(),
        "env": {name: os.environ.get(name) for name in SINGLE_THREAD_BLAS_ENV},
        "initial_env": initial,
    }


@pytest.fixture
def cnf_dir(tmp_path):
    d = tmp_path / "instances"
    d.mkdir()
    (d / "a.cnf").write_text(ONE_CLAUSE)
    (d / "b.cnf").write_text(TINY_SAT)
    (d / "c.cnf").write_text(EMPTY)
    return d


class TestSolve:
    def test_sat_output_and_exit_code(self, tmp_path, capsys):
        path = tmp_path / "one.cnf"
        path.write_text(ONE_CLAUSE)
        code = main(["solve", str(path), "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 10
        assert "s SATISFIABLE" in out
        v_lines = [l for l in out.splitlines() if l.startswith("v ")]
        assert v_lines == ["v 1 2 0"]

    def test_empty_formula_all_positive(self, tmp_path, capsys):
        path = tmp_path / "empty.cnf"
        path.write_text(EMPTY)
        code = main(["solve", str(path)])
        out = capsys.readouterr().out
        assert code == 10
        assert "v 1 2 3 0" in out

    def test_unknown_exit_code(self, tmp_path, capsys):
        path = tmp_path / "unsat.cnf"
        path.write_text(UNSAT)
        code = main(["solve", str(path), "--timeout", "0.3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "s UNKNOWN" in out

    def test_unsat_evidence_is_a_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "unsat.cnf"
        path.write_text(UNSAT)
        code = main(["solve", str(path), "--max-rounds", "4"])
        out = capsys.readouterr().out
        assert code == 0 and out.splitlines()[-1] == "s UNKNOWN"
        assert "c diagnostic: fit inconsistent from K=3: floating-point evidence of UNSAT" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cnf"
        path.write_text("p cnf 2 1\n1 2\n")  # unterminated clause
        code = main(["solve", str(path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_empty_clause_is_unknown_not_unsat(self, tmp_path, capsys):
        path = tmp_path / "empty_clause.cnf"
        path.write_text(EMPTY_CLAUSE)
        code = main(["solve", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == [
            f"c {path}: n=2 m=2",
            "c rounds=0 columns=0 random_refinements=0 wall_time=0.000s",
            "c diagnostic: clause 2 is empty: no assignment satisfies the formula",
            "s UNKNOWN",
        ]

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/really.cnf"]) == 1

    @pytest.mark.parametrize("timeout", ["0", "-1", "nan"])
    def test_timeout_must_be_positive(self, tmp_path, capsys, timeout):
        path = tmp_path / "one.cnf"
        path.write_text(ONE_CLAUSE)
        assert main(["solve", str(path), "--timeout", timeout]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: timeout must be positive\n"
        assert captured.out == ""

    def test_comment_may_hold_any_bytes(self, tmp_path, capsys):
        path = tmp_path / "latin1.cnf"
        path.write_bytes(b"c caf\xe9\n" + ONE_CLAUSE.encode())
        assert main(["solve", str(path), "--seed", "7"]) == 10
        assert "v 1 2 0" in capsys.readouterr().out
        # 0x85 is a line break to str.splitlines once decoded as Latin-1
        path.write_bytes(b"c \x85 \xff\xfe\np cnf 2 1\n1 caf\xe9 0\n")
        assert main(["solve", str(path)]) == 1
        assert "error: line 3: non-integer token 'caf\\udce9'" in capsys.readouterr().err

    def test_bad_flag_usage(self, tmp_path, capsys):
        path = tmp_path / "one.cnf"
        path.write_text(ONE_CLAUSE)
        assert main(["solve", str(path), "--bias", "bias9"]) == 1

    def test_readme_options_list_every_solve_flag(self):
        lines = README.read_text().splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("# Options:"))
        block = [lines[start]]
        for line in lines[start + 1:]:
            if not line.startswith("#  "):
                break
            block.append(line)
        documented = set(re.findall(r"--[a-z-]+", " ".join(block)))
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {
            opt
            for action in sub.choices["solve"]._actions
            for opt in action.option_strings
            if opt.startswith("--") and opt != "--help"
        }
        assert documented == flags

    def test_stats_csv_appended(self, tmp_path, capsys):
        path = tmp_path / "one.cnf"
        path.write_text(ONE_CLAUSE)
        stats = tmp_path / "stats.csv"
        main(["solve", str(path), "--stats", str(stats)])
        main(["solve", str(path), "--stats", str(stats), "--bias", "bias2"])
        with stats.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["solver"] == "amp-bias1"
        assert rows[1]["solver"] == "amp-bias2"
        assert set(rows[0]) == set(CSV_FIELDS)

    def test_an_unwritable_stats_file_errors_before_any_answer(self, tmp_path, capsys):
        path = tmp_path / "one.cnf"
        path.write_text(ONE_CLAUSE)
        stats = tmp_path / "missing" / "stats.csv"
        assert main(["solve", str(path), "--stats", str(stats)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_a_stats_directory_is_named_once(self, tmp_path, capsys):
        path = tmp_path / "one.cnf"
        path.write_text(ONE_CLAUSE)
        assert main(["solve", str(path), "--stats", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot write {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'\n"
        )

    def test_no_variables_print_a_bare_v_line(self, tmp_path, capsys):
        path = tmp_path / "none.cnf"
        path.write_text("p cnf 0 0\n")
        assert main(["solve", str(path)]) == 10
        assert capsys.readouterr().out.splitlines()[-2:] == ["s SATISFIABLE", "v 0"]

    def test_an_empty_clause_input_appends_the_bench_row(self, tmp_path, capsys):
        # The UNKNOWN row `ampsat bench` records for the instance; a bad
        # path still errors before the 's' line.
        path = tmp_path / "empty_clause.cnf"
        path.write_text(EMPTY_CLAUSE)
        stats = tmp_path / "stats.csv"
        assert main(["solve", str(path), "--seed", "3", "--stats", str(stats)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "s UNKNOWN"
        with stats.open() as fh:
            rows = list(csv.DictReader(fh))
        record = run_one(str(path), parse_dimacs(EMPTY_CLAUSE), "amp-bias1", 3, 1.0)
        bench = {field: str(value) for field, value in record.items()}
        assert rows == [bench]
        assert bench["status"] == "UNKNOWN" and bench["rounds"] == bench["columns_final"] == "0"
        capsys.readouterr()
        missing = tmp_path / "missing" / "stats.csv"
        assert main(["solve", str(path), "--stats", str(missing)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--timeout", "timeout must be positive"),
            ("--max-rounds", "max_rounds must be >= 1"),
            ("--steps", "steps and repeats must be >= 1"),
            ("--tmin", "require t_max >= t_min > 0"),
        ],
    )
    def test_an_empty_clause_input_checks_every_flag(self, tmp_path, capsys, flag, message):
        path = tmp_path / "empty_clause.cnf"
        path.write_text(EMPTY_CLAUSE)
        assert main(["solve", str(path), flag, "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert not any(line.startswith("s ") for line in captured.out.splitlines())

    @pytest.mark.parametrize("instance, min_rounds", [("uf20/uf20-001.cnf", 1),
                                                      ("uf50/uf50-005.cnf", 2)])
    def test_solve_runs_without_scipy(self, instance, min_rounds):
        # scipy blocked at import: the solve path, the incremental factor of
        # later rounds included, needs numpy alone
        script = textwrap.dedent(
            """
            import sys
            sys.modules["scipy"] = None
            from ampsat.cli import main
            sys.exit(main(sys.argv[1:]))
            """
        )
        path = INSTANCES / instance
        env = dict(os.environ)
        src = str(Path(ampsat.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", script, "solve", str(path), "--max-rounds", "8"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 10, proc.stderr
        assert int(re.search(r"^c rounds=(\d+)", proc.stdout, re.M)[1]) >= min_rounds
        (v_line,) = [l for l in proc.stdout.splitlines() if l.startswith("v ")]
        assignment = tuple(1 if int(lit) > 0 else -1 for lit in v_line.split()[1:-1])
        assert verify(parse_dimacs(path.read_text()), assignment)


class TestVerify:
    def test_verify_solver_output(self, tmp_path, capsys):
        cnf = tmp_path / "one.cnf"
        cnf.write_text(ONE_CLAUSE)
        main(["solve", str(cnf)])
        out = capsys.readouterr().out
        sol = tmp_path / "solution.txt"
        sol.write_text("\n".join(l for l in out.splitlines() if l.startswith("v ")))
        code = main(["verify", str(cnf), str(sol)])
        assert code == 0
        assert "SAT" in capsys.readouterr().out

    def test_verify_rejects_bad_assignment(self, tmp_path, capsys):
        cnf = tmp_path / "one.cnf"
        cnf.write_text(ONE_CLAUSE)
        sol = tmp_path / "solution.txt"
        sol.write_text("-1 -2 0\n")
        code = main(["verify", str(cnf), str(sol)])
        assert code == 2
        assert "UNSAT" in capsys.readouterr().out

    def test_incomplete_assignment_errors(self, tmp_path, capsys):
        cnf = tmp_path / "one.cnf"
        cnf.write_text(ONE_CLAUSE)
        sol = tmp_path / "solution.txt"
        sol.write_text("v 1 0\n")
        assert main(["verify", str(cnf), str(sol)]) == 1

    def test_empty_clause_is_unsatisfied(self, tmp_path, capsys):
        cnf = tmp_path / "empty_clause.cnf"
        cnf.write_text(EMPTY_CLAUSE)
        sol = tmp_path / "solution.txt"
        sol.write_text("v 1 2 0\n")
        assert main(["verify", str(cnf), str(sol)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "UNSAT (1 clause(s) unsatisfied)\n"
        assert captured.err == ""

    @pytest.mark.parametrize(
        "solution, message",
        [
            ("v 1 -2 x 0\n", "line 1: non-integer token 'x'"),
            ("c ok\nv 1 2 9 0\n", "line 2: literal 9 out of range for 3 variables"),
            ("v 1\nv -4 0\n", "line 2: literal -4 out of range for 3 variables"),
        ],
    )
    def test_a_bad_assignment_token_names_its_line(self, tmp_path, capsys, solution, message):
        cnf = tmp_path / "three.cnf"
        cnf.write_text("p cnf 3 1\n1 2 3 0\n")
        sol = tmp_path / "solution.txt"
        sol.write_text(solution)
        assert main(["verify", str(cnf), str(sol)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_a_missing_assignment_file_is_named_once(self, tmp_path, capsys):
        cnf = tmp_path / "one.cnf"
        cnf.write_text(ONE_CLAUSE)
        missing = tmp_path / "missing.txt"
        assert main(["verify", str(cnf), str(missing)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read {missing}: [Errno 2] No such file or directory: '{missing}'\n"
        )


    def test_conflicting_literals_are_an_error(self, tmp_path, capsys):
        # x1 both ways would satisfy both clauses if the last literal won
        cnf = tmp_path / "two.cnf"
        cnf.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
        sol = tmp_path / "solution.txt"
        sol.write_text("v 1 -1 2 0\n")
        assert main(["verify", str(cnf), str(sol)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: conflicting literals for variable 1\n"
        assert "SAT" not in captured.out
        sol.write_text("v 1 1 2 0\n")  # a repeated literal is no conflict
        assert main(["verify", str(cnf), str(sol)]) == 0

    def test_solution_comment_may_hold_any_bytes(self, tmp_path, capsys):
        cnf = tmp_path / "one.cnf"
        cnf.write_text(ONE_CLAUSE)
        sol = tmp_path / "solution.txt"
        sol.write_bytes(b"c caf\xe9\nv 1 2 0\n")
        assert main(["verify", str(cnf), str(sol)]) == 0
        assert capsys.readouterr().out == "SAT\n"

    def test_solution_comment_may_hold_a_line_separator(self, tmp_path, capsys):
        # str.splitlines would read "-1 -2 0" after U+2028 as the solution
        cnf = tmp_path / "one.cnf"
        cnf.write_text(ONE_CLAUSE)
        sol = tmp_path / "solution.txt"
        sol.write_text("c was\u2028-1 -2 0\nv 1 2 0\n", encoding="utf-8")
        assert main(["verify", str(cnf), str(sol)]) == 0
        assert capsys.readouterr().out == "SAT\n"


class TestOracle:
    def test_solution_count_and_biases(self, tmp_path, capsys):
        cnf = tmp_path / "one.cnf"
        cnf.write_text(ONE_CLAUSE)
        code = main(["oracle", str(cnf)])
        out = capsys.readouterr().out
        assert code == 0
        assert "solutions 3" in out
        assert len([l for l in out.splitlines() if l[0].isdigit()]) == 2

    def test_size_cap(self, tmp_path, capsys):
        cnf = tmp_path / "big.cnf"
        cnf.write_text("p cnf 30 1\n1 2 0\n")
        assert main(["oracle", str(cnf)]) == 1
        assert "at most" in capsys.readouterr().err

    def test_empty_clause_has_no_solutions(self, tmp_path, capsys):
        cnf = tmp_path / "empty_clause.cnf"
        cnf.write_text(EMPTY_CLAUSE)
        assert main(["oracle", str(cnf)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "solutions 0",
            "var bias1_raw bias1_norm bias2_raw bias2_norm",
            "1 0 0 0 0",
            "2 0 0 0 0",
        ]
        assert captured.err == ""


class TestBench:
    def _read(self, path):
        with open(path) as fh:
            return list(csv.DictReader(fh))

    def test_bench_runs_all_solvers(self, cnf_dir, tmp_path, capsys):
        out_csv = tmp_path / "bench.csv"
        code = main(
            [
                "bench",
                str(cnf_dir),
                "--solvers",
                "amp-bias1,amp-bias2,sa",
                "--timeout",
                "10",
                "--csv",
                str(out_csv),
            ]
        )
        assert code == 0
        rows = self._read(out_csv)
        assert len(rows) == 9  # 3 instances x 3 solvers
        assert all(set(r) == set(CSV_FIELDS) for r in rows)
        assert all(r["status"] == "SAT" for r in rows)
        summary = capsys.readouterr().out
        for solver in ("amp-bias1", "amp-bias2", "sa"):
            assert f"{solver}: solved 3/3 (100.0%)" in summary

    def test_empty_clause_instance_is_unknown_and_run_goes_on(self, tmp_path, capsys):
        d = tmp_path / "instances"
        d.mkdir()
        corpus = Path(__file__).resolve().parents[1] / "instances" / "uf20"
        (d / "uf20-001.cnf").write_text((corpus / "uf20-001.cnf").read_text())
        (d / "empty_clause.cnf").write_text(EMPTY_CLAUSE)
        out_csv = tmp_path / "bench.csv"
        (d / "only_empty.cnf").write_text("p cnf 0 1\n0\n")
        code = main(["bench", str(d), "--solvers", "amp-bias1,amp-bias2,sa", "--timeout", "10",
                     "--csv", str(out_csv)])
        assert code == 0
        rows = {(Path(r["instance"]).name, r["solver"]): r for r in self._read(out_csv)}
        assert len(rows) == 9
        for (name, solver), row in rows.items():
            if name == "uf20-001.cnf":
                assert row["status"] == "SAT"
            else:
                assert (row["status"], row["rounds"], row["columns_final"]) == ("UNKNOWN", "0", "0")
                assert row["random_refinements"] == "0" and row["mean_hamming_gap"] == ""
        assert capsys.readouterr().err == ""

    def test_comment_may_hold_any_bytes(self, tmp_path, capsys):
        d = tmp_path / "instances"
        d.mkdir()
        (d / "a.cnf").write_text(ONE_CLAUSE)
        (d / "latin1.cnf").write_bytes(b"c caf\xe9\n" + TINY_SAT.encode())
        out_csv = tmp_path / "bench.csv"
        code = main(["bench", str(d), "--solvers", "amp-bias1,sa", "--timeout", "10",
                     "--csv", str(out_csv)])
        assert code == 0
        rows = self._read(out_csv)
        assert len(rows) == 4
        assert all(r["status"] == "SAT" for r in rows)

    def test_bench_deterministic_modulo_wall_time(self, cnf_dir, tmp_path, capsys):
        a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a_csv, b_csv):
            main(["bench", str(cnf_dir), "--solvers", "amp-bias1",
                  "--timeout", "10", "--seed", "5", "--csv", str(out)])
        strip = lambda rows: [
            {k: v for k, v in r.items() if k != "wall_time_s"} for r in rows
        ]
        assert strip(self._read(a_csv)) == strip(self._read(b_csv))

    def test_jobs_parallel_matches_serial(self, cnf_dir, tmp_path, capsys):
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        main(["bench", str(cnf_dir), "--solvers", "amp-bias1,sa",
              "--timeout", "10", "--seed", "3", "--csv", str(serial)])
        main(["bench", str(cnf_dir), "--solvers", "amp-bias1,sa",
              "--timeout", "10", "--seed", "3", "--jobs", "2",
              "--csv", str(parallel)])
        strip = lambda rows: [
            {k: v for k, v in r.items() if k != "wall_time_s"} for r in rows
        ]
        assert strip(self._read(serial)) == strip(self._read(parallel))

    def test_bench_pool_workers_start_single_threaded(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        with single_thread_blas_pool(2) as pool:
            reports = list(pool.map(_report_worker_env, range(2), timeout=120))
        for report in reports:
            assert report["pid"] != os.getpid()
            assert report["env"] == SINGLE_THREAD_BLAS_ENV
            if report["initial_env"] is not None:
                # set before the worker's first import, not after a fork
                for name, value in SINGLE_THREAD_BLAS_ENV.items():
                    assert report["initial_env"].get(name) == value
        # the parent's environment is restored once the pool is gone
        assert os.environ["OPENBLAS_NUM_THREADS"] == "4"
        assert "OMP_NUM_THREADS" not in os.environ

    def test_empty_dir_errors(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        code = main(["bench", str(empty), "--csv", str(tmp_path / "x.csv")])
        assert code == 1

    def test_unknown_solver_errors(self, cnf_dir, tmp_path, capsys):
        code = main(["bench", str(cnf_dir), "--solvers", "cdcl",
                     "--csv", str(tmp_path / "x.csv")])
        assert code == 1

    def test_a_solver_named_twice_runs_once(self, cnf_dir, tmp_path, capsys):
        out_csv = tmp_path / "bench.csv"
        code = main(["bench", str(cnf_dir), "--solvers", "sa, sa,amp-bias1,sa", "--timeout", "10",
                     "--csv", str(out_csv)])
        assert code == 0
        rows = self._read(out_csv)
        assert sorted(r["solver"] for r in rows) == ["amp-bias1"] * 3 + ["sa"] * 3
        assert capsys.readouterr().out == (
            "sa: solved 3/3 (100.0%)\namp-bias1: solved 3/3 (100.0%)\n"
        )

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--timeout", "-1"], "--timeout must be positive"),
            (["--timeout", "0"], "--timeout must be positive"),
            (["--timeout", "nan"], "--timeout must be positive"),
            (["--jobs", "0"], "--jobs must be at least 1"),
            (["--solvers", ","], "--solvers names no solver"),
            (["--solvers", ""], "--solvers names no solver"),
        ],
    )
    def test_bad_limits_error_before_any_run(self, cnf_dir, tmp_path, capsys, flags, message):
        out_csv = tmp_path / "x.csv"
        code = main(["bench", str(cnf_dir), "--solvers", "sa", "--csv", str(out_csv)] + flags)
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_csv.exists()

    def test_an_unwritable_csv_errors_before_any_run(self, cnf_dir, tmp_path, capsys, monkeypatch):
        runs = []

        def counting(*task):
            runs.append(task)
            return run_one(*task)

        monkeypatch.setattr(cli, "run_one", counting)
        out_csv = tmp_path / "missing" / "x.csv"
        code = main(["bench", str(cnf_dir), "--solvers", "sa", "--csv", str(out_csv)])
        assert code == 1 and runs == []
        assert capsys.readouterr().err.startswith(f"error: cannot write {out_csv}: ")

    def test_a_malformed_instance_errors_before_any_run(self, cnf_dir, tmp_path, capsys,
                                                        monkeypatch):
        runs = []
        monkeypatch.setattr(cli, "run_one", lambda *task: runs.append(task))
        (cnf_dir / "empty_clause.cnf").write_text(EMPTY_CLAUSE)  # a formula, not an error
        bad = cnf_dir / "zz-bad.cnf"
        bad.write_text("p cnf 2 1\n1 x 0\n")
        out_csv = tmp_path / "x.csv"
        out_csv.write_text("old\n")
        code = main(["bench", str(cnf_dir), "--solvers", "sa", "--csv", str(out_csv)])
        assert code == 1 and runs == []
        assert capsys.readouterr().err == f"error: {bad}: line 2: non-integer token 'x'\n"
        assert out_csv.read_text() == "old\n"

    def test_each_instance_is_read_once(self, cnf_dir, tmp_path, capsys, monkeypatch):
        # by the parse before the runs: each run takes the parsed formula,
        # c.cnf's empty clause included
        (cnf_dir / "c.cnf").write_text(EMPTY_CLAUSE)
        reads = []
        read_text = cli._read_text

        def counting(path):
            reads.append(Path(path).name)
            return read_text(path)

        monkeypatch.setattr(cli, "_read_text", counting)
        out_csv = tmp_path / "x.csv"
        assert main(["bench", str(cnf_dir), "--solvers", "amp-bias1,sa", "--timeout", "10",
                     "--csv", str(out_csv)]) == 0
        assert reads == ["a.cnf", "b.cnf", "c.cnf"]
        assert [(r["instance"], r["status"]) for r in self._read(out_csv)] == [
            (str(cnf_dir / name), status)
            for name, status in (("a.cnf", "SAT"), ("b.cnf", "SAT"), ("c.cnf", "UNKNOWN"))
            for _ in range(2)
        ]

    def test_an_unreadable_instance_is_named_once(self, cnf_dir, tmp_path, capsys):
        # bench reports it as `ampsat solve` does, with no PATH: prefix
        unreadable = cnf_dir / "d.cnf"
        unreadable.mkdir()
        assert main(["solve", str(unreadable)]) == 1
        solve_err = capsys.readouterr().err
        out_csv = tmp_path / "x.csv"
        assert main(["bench", str(cnf_dir), "--solvers", "sa", "--csv", str(out_csv)]) == 1
        assert capsys.readouterr().err == solve_err == (
            f"error: cannot read {unreadable}: [Errno 21] Is a directory: '{unreadable}'\n"
        )
        assert not out_csv.exists()

    def test_seeds_follow_the_file_name_not_the_directory_spelling(self, cnf_dir, tmp_path,
                                                                   capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        relative, absolute = tmp_path / "rel.csv", tmp_path / "abs.csv"
        for directory, out in ((cnf_dir.name, relative), (str(cnf_dir), absolute)):
            assert main(["bench", directory, "--solvers", "amp-bias1,sa", "--timeout", "10",
                         "--seed", "4", "--csv", str(out)]) == 0
        keep = lambda rows: [
            {k: r[k] for k in ("solver", "seed", "status", "rounds", "columns_final")}
            for r in rows
        ]
        rows = keep(self._read(relative))
        assert rows == keep(self._read(absolute))
        names = sorted(p.name for p in cnf_dir.glob("*.cnf"))
        assert {r["seed"] for r in rows} == {str(derive_seed(4, n)) for n in names}


class TestHelpers:
    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(3, "a.cnf") == derive_seed(3, "a.cnf")
        assert derive_seed(3, "a.cnf") != derive_seed(3, "b.cnf")
        assert derive_seed(3, "a.cnf") != derive_seed(4, "a.cnf")

    def test_parse_assignment_variants(self):
        assert parse_assignment_file("v 1 -2 0", 2) == (1, -1)
        assert parse_assignment_file("c hi\ns SATISFIABLE\nv 1\nv -2\nv 0", 2) == (1, -1)
        assert parse_assignment_file("-1 2 0", 2) == (-1, 1)
        with pytest.raises(ValueError):
            parse_assignment_file("v 1 0", 2)
        with pytest.raises(ValueError):
            parse_assignment_file("v 1 5 0", 2)
        with pytest.raises(ValueError, match="conflicting literals for variable 2"):
            parse_assignment_file("v 1 2\nv -2 0", 2)
