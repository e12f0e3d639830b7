from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import example1_instance
from flexseg import assignment as asg_mod
from flexseg import cli
from flexseg.cli import main, run_benchmark, run_sweep
from flexseg.driver import run
from flexseg.fibex import read_fibex
from flexseg.generator import GeneratorProfile, generate, sae_profile
from flexseg.model import save_instance


@pytest.fixture
def example1_file(tmp_path, example1):
    path = tmp_path / "example1.json"
    save_instance(example1, path)
    return path


def test_solve_writes_outputs(tmp_path, example1_file, capsys):
    fibex = tmp_path / "out.xml"
    log_csv = tmp_path / "log.csv"
    code = main(["solve", str(example1_file), "--solver", "exact",
                 "--fibex", str(fibex), "--csv", str(log_csv)])
    assert code == 0
    out = capsys.readouterr().out
    header = json.loads(out.splitlines()[0])
    assert header["optimal"] is True
    assert set(header) == {"channel_of", "P_A", "P_B", "P_G", "criterion", "optimal"}
    assert fibex.exists() and log_csv.exists()
    assert log_csv.read_text().splitlines()[0] == \
        "iteration,beta,criterion,slots_A,slots_B,gw_slots"


def test_solve_then_validate_round(tmp_path, example1_file, capsys):
    fibex = tmp_path / "out.xml"
    assert main(["solve", str(example1_file), "--fibex", str(fibex)]) == 0
    capsys.readouterr()
    assert main(["validate", str(example1_file), str(fibex)]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_validate_reports_violations(tmp_path, example1_file, capsys):
    fibex = tmp_path / "out.xml"
    main(["solve", str(example1_file), "--fibex", str(fibex)])
    capsys.readouterr()
    # swap the ids of channel A's first gateway slot and its slot 1 so an
    # image precedes its original; no id repeats, so the file still reads
    text = fibex.read_text()
    broken = tmp_path / "broken.xml"
    gateway = re.search(r'<slot id="(\d+)" owner="0" gateway="true">', text).group(1)
    text = text.replace('<slot id="1" ', '<slot id="swap" ', 1)
    text = text.replace(f'<slot id="{gateway}" owner="0" gateway="true">',
                        '<slot id="1" owner="0" gateway="true">', 1)
    text = text.replace('<slot id="swap" ', f'<slot id="{gateway}" ', 1)
    broken.write_text(text)
    code = main(["validate", str(example1_file), str(broken)])
    violations = json.loads(capsys.readouterr().out)
    assert code == 1
    assert violations


def test_validate_rejects_misaligned_bit_offset(tmp_path, example1_file, capsys):
    fibex = tmp_path / "out.xml"
    main(["solve", str(example1_file), "--fibex", str(fibex)])
    capsys.readouterr()
    misaligned = tmp_path / "misaligned.xml"
    misaligned.write_text(fibex.read_text().replace('bit-offset="0"', 'bit-offset="3"', 1))
    with pytest.raises(ValueError, match="bit-offset 3 is not a whole byte"):
        read_fibex(misaligned)
    assert main(["validate", str(example1_file), str(misaligned)]) == 2
    assert "bit-offset 3" in capsys.readouterr().err


def test_validate_refuses_one_port_ecu_without_a_channel(tmp_path, example1_file, capsys):
    fibex = tmp_path / "out.xml"
    main(["solve", str(example1_file), "--fibex", str(fibex)])
    capsys.readouterr()
    unassigned = tmp_path / "unassigned.xml"
    text, n = re.subn(r'(<ecu id="3" class="ONE_PORT" channels=)"[AB]"', r'\1""',
                      fibex.read_text())
    assert n == 1
    unassigned.write_text(text)
    assert main(["validate", str(example1_file), str(unassigned)]) == 2
    assert "lacks channel assignments for ECUs [3]" in capsys.readouterr().err


def test_generate_command(tmp_path, capsys):
    profile = tmp_path / "profile.json"
    profile.write_text('{"name": "tiny", "ecu_count": 8, "signal_count": 40}')
    out = tmp_path / "tiny.json"
    assert main(["generate", "--profile", str(profile), "--seed", "3",
                 "--out", str(out)]) == 0
    from flexseg.model import load_instance
    inst = load_instance(out)
    assert len(inst.signals) == 40


def test_missing_file_is_hard_error(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_solve_rejects_non_finite_alpha(example1_file, capsys, alpha):
    assert main(["solve", str(example1_file), "--alpha", alpha]) == 2
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("solver", ["exact", "cah", "ga"])
def test_solve_rejects_tries_below_one_with_any_solver(example1_file, capsys, solver):
    assert main(["solve", str(example1_file), "--solver", solver, "--tries", "0"]) == 2
    assert "cah_tries" in capsys.readouterr().err


def test_bench_csv_shape(tmp_path, example1_file):
    bench_dir = tmp_path / "set"
    bench_dir.mkdir()
    for i in range(3):
        (bench_dir / f"i{i}.json").write_text(example1_file.read_text())
    # one unparsable instance: recorded as a row, batch continues
    (bench_dir / "zbad.json").write_text("{}")
    out_csv = tmp_path / "bench.csv"
    failures = run_benchmark(bench_dir, out_csv, seed=1, cah_tries=20,
                             max_iterations=3)
    assert failures == 1
    rows = out_csv.read_text().splitlines()
    header = rows[0].split(",")
    assert rows[-1].startswith("average")
    assert len(rows) == 1 + 4 + 1
    data = dict(zip(header, rows[1].split(",")))
    assert data["error"] == ""
    assert float(data["best_slots"]) <= float(data["first_iter_slots"])
    assert float(data["cah_gap_permille"]) >= -1e-9
    bad = dict(zip(header, rows[4].split(",")))
    assert bad["error"] != ""


def test_bench_names_the_exception_type_of_an_empty_message(tmp_path, example1_file,
                                                            monkeypatch):
    def fail(inst, cfg):
        raise AssertionError()

    monkeypatch.setattr(cli, "run", fail)
    bench_dir = tmp_path / "set"
    bench_dir.mkdir()
    (bench_dir / "one.json").write_text(example1_file.read_text())
    out_csv = tmp_path / "bench.csv"
    assert run_benchmark(bench_dir, out_csv, seed=1, cah_tries=5) == 1
    rows = out_csv.read_text().splitlines()
    assert len(rows) == 2
    assert rows[1].startswith("one,") and rows[1].endswith(",AssertionError")


def test_bench_builds_the_coverage_table_before_timing_the_solvers(tmp_path, example1_file,
                                                                 monkeypatch):
    seen = []
    exact = asg_mod.solve_exact

    def solve_exact(hg, params):
        seen.append("uncovered" in vars(hg))
        return exact(hg, params)

    monkeypatch.setattr(asg_mod, "solve_exact", solve_exact)
    bench_dir = tmp_path / "set"
    bench_dir.mkdir()
    (bench_dir / "one.json").write_text(example1_file.read_text())
    assert run_benchmark(bench_dir, tmp_path / "bench.csv", seed=1, cah_tries=5,
                         max_iterations=1) == 0
    assert seen == [True]


def test_bench_no_timings_deterministic(tmp_path, example1_file):
    bench_dir = tmp_path / "set"
    bench_dir.mkdir()
    (bench_dir / "one.json").write_text(example1_file.read_text())
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_benchmark(bench_dir, a, seed=1, cah_tries=10, include_timings=False)
    run_benchmark(bench_dir, b, seed=1, cah_tries=10, include_timings=False)
    assert a.read_bytes() == b.read_bytes()


def test_sweep_grid_rows(tmp_path):
    base = GeneratorProfile(name="sweep", ecu_count=8, signal_count=30)
    out_csv = tmp_path / "sweep.csv"
    failures = run_sweep(base, out_csv, step=0.5, instances_per_point=1,
                         seed=0, cah_tries=5, max_iterations=2)
    assert failures == 0
    rows = out_csv.read_text().splitlines()
    assert rows[0].startswith("common_ecu_fraction,fault_tolerant_fraction")
    assert len(rows) == 1 + 9


def test_sweep_counts_failed_points(tmp_path, monkeypatch):
    def fail(inst, cfg):
        if inst.name.startswith("sweep-c0.5"):
            raise RuntimeError()
        return run(inst, cfg)

    monkeypatch.setattr(cli, "run", fail)
    out_csv = tmp_path / "sweep.csv"
    base = GeneratorProfile(name="sweep", ecu_count=8, signal_count=20)
    assert run_sweep(base, out_csv, step=0.5, instances_per_point=1, cah_tries=3,
                     max_iterations=2) == 3
    rows = out_csv.read_text().splitlines()
    assert sum(row.startswith("0.5,") and row.endswith(",,,RuntimeError") for row in rows) == 3


def test_sweep_cli(tmp_path, capsys):
    profile = tmp_path / "profile.json"
    profile.write_text('{"name": "s", "ecu_count": 8, "signal_count": 20}')
    out_csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--profile", str(profile), "--csv", str(out_csv),
                 "--step", "0.5", "--instances", "1", "--tries", "5",
                 "--iters", "2"]) == 0
    assert out_csv.exists()


def test_bench_and_sweep_csv_bytes_are_pinned(tmp_path):
    bench_dir = tmp_path / "set"
    bench_dir.mkdir()
    save_instance(example1_instance(), bench_dir / "example1.json")
    save_instance(generate(sae_profile(4, signal_count=120, fault_tolerant_fraction=0.2), 3),
                  bench_dir / "sae4-ft0.2-3.json")
    bench_csv = tmp_path / "bench.csv"
    assert main(["bench", "--dir", str(bench_dir), "--csv", str(bench_csv),
                 "--tries", "20", "--iters", "3", "--seed", "1", "--no-timings"]) == 0
    assert hashlib.sha256(bench_csv.read_bytes()).hexdigest() == \
        "3db72884cd38935d0f157640895a3e0d434b7184545e520c2c1722107f5c2e00"

    profile = tmp_path / "profile.json"
    profile.write_text('{"name": "tiny", "ecu_count": 8, "signal_count": 40}')
    sweep_csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--profile", str(profile), "--csv", str(sweep_csv),
                 "--step", "0.5", "--instances", "2", "--tries", "10", "--iters", "3",
                 "--seed", "1"]) == 0
    assert hashlib.sha256(sweep_csv.read_bytes()).hexdigest() == \
        "b54fc17a46b90f5c94cb291df9e3e5f3563b7a43958e57205759fe7c92292aec"


@pytest.fixture(scope="module")
def run_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    (root / "set").mkdir()
    save_instance(example1_instance(), root / "set" / "example1.json")
    (root / "profile.json").write_text('{"name": "s", "ecu_count": 8, "signal_count": 20}')
    return root


# the library parameter each option sets, which the error message names
_OPTION_PARAMS = {"--tries": "cah_tries", "--iters": "max_iterations",
                  "--instances": "instances_per_point"}


@settings(max_examples=40, derandomize=True, deadline=None)
@given(command_option=st.sampled_from([
           ("bench", "--tries"), ("bench", "--iters"),
           ("sweep", "--tries"), ("sweep", "--iters"), ("sweep", "--instances")]),
       value=st.integers(max_value=0))
def test_option_below_one_exits_2_before_any_instance(run_inputs, command_option, value):
    command, option = command_option
    out_csv = run_inputs / "out.csv"
    source = (["--dir", str(run_inputs / "set")] if command == "bench"
              else ["--profile", str(run_inputs / "profile.json"), "--step", "0.5"])
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, *source, "--csv", str(out_csv), f"{option}={value}"])
    assert code == 2
    assert _OPTION_PARAMS[option] in err.getvalue()
    assert not out_csv.exists()


@pytest.mark.parametrize("name", ["missing", "file.json"])
def test_bench_dir_that_is_no_directory_exits_2(tmp_path, capsys, name):
    (tmp_path / "file.json").write_text("{}")
    out_csv = tmp_path / "bench.csv"
    assert main(["bench", "--dir", str(tmp_path / name), "--csv", str(out_csv)]) == 2
    assert "is not a directory" in capsys.readouterr().err
    assert not out_csv.exists()


def test_bench_has_no_time_limit_option(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--dir", str(tmp_path), "--csv", str(tmp_path / "b.csv"),
              "--time-limit-ms", "5"])
    assert exc.value.code == 2
