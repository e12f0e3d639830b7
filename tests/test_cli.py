from __future__ import annotations

import json

import pytest

from flexseg.cli import main, run_benchmark, run_sweep
from flexseg.fibex import read_fibex
from flexseg.generator import GeneratorProfile
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
    import re
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


def test_sweep_cli(tmp_path, capsys):
    profile = tmp_path / "profile.json"
    profile.write_text('{"name": "s", "ecu_count": 8, "signal_count": 20}')
    out_csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--profile", str(profile), "--csv", str(out_csv),
                 "--step", "0.5", "--instances", "1", "--tries", "5",
                 "--iters", "2"]) == 0
    assert out_csv.exists()
