from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import re
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import example1_instance
from flexseg import assignment as asg_mod
from flexseg import cli
from flexseg.cli import main, run_benchmark, run_sweep
from flexseg.driver import DriverConfig, run
from flexseg.fibex import export_fibex, read_fibex
from flexseg.generator import GeneratorProfile, generate, sae_profile
from flexseg.model import instance_to_dict, save_instance


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


@pytest.mark.parametrize("pattern, repl, named", [
    # a common ECU rewritten as a one-port ECU on channel A
    (r'<ecu id="1" class="COMMON" channels="AB" />',
     '<ecu id="1" class="ONE_PORT" channels="A" />', [1]),
    # a one-port ECU the instance does not have
    (r'(<ecu id="5" [^>]*/>)', r'\1<ecu id="99" class="ONE_PORT" channels="B" />', [99]),
], ids=["common-as-one-port", "extra-one-port"])
def test_validate_refuses_a_channel_for_an_ecu_that_is_not_one_port(
        tmp_path, example1_file, capsys, pattern, repl, named):
    fibex = tmp_path / "out.xml"
    main(["solve", str(example1_file), "--fibex", str(fibex)])
    capsys.readouterr()
    foreign = tmp_path / "foreign.xml"
    text, n = re.subn(pattern, repl, fibex.read_text())
    assert n == 1
    foreign.write_text(text)
    assert main(["validate", str(example1_file), str(foreign)]) == 2
    assert (f"assigns channels to ECUs {named}, which are not one-port ECUs of the "
            f"instance") in capsys.readouterr().err


@pytest.mark.parametrize("pattern, repl, named", [
    # the gateway rewritten as a common ECU
    ('<ecu id="0" class="GATEWAY" channels="AB" />',
     '<ecu id="0" class="COMMON" channels="AB" />', [0]),
    # a common ECU the instance does not have
    (r'(<ecu id="5" [^>]*/>)', r'\1<ecu id="99" class="COMMON" channels="AB" />', [99]),
    # a common ECU of the instance left out
    (r'\n *<ecu id="1" class="COMMON" channels="AB" />', "", [1]),
], ids=["gateway-as-common", "extra-common", "common-deleted"])
def test_validate_refuses_ecu_classes_that_differ_from_the_instance(
        tmp_path, example1_file, capsys, pattern, repl, named):
    fibex = tmp_path / "out.xml"
    main(["solve", str(example1_file), "--fibex", str(fibex)])
    capsys.readouterr()
    edited = tmp_path / "edited.xml"
    text, n = re.subn(pattern, repl, fibex.read_text())
    assert n == 1
    edited.write_text(text)
    assert main(["validate", str(example1_file), str(edited)]) == 2
    assert (f"schedule file's ECU classes differ from the instance's for ECUs {named}"
            in capsys.readouterr().err)


def test_generate_command(tmp_path, capsys):
    profile = tmp_path / "profile.json"
    profile.write_text('{"name": "tiny", "ecu_count": 8, "signal_count": 40}')
    out = tmp_path / "tiny.json"
    assert main(["generate", "--profile", str(profile), "--seed", "3",
                 "--out", str(out)]) == 0
    from flexseg.model import load_instance
    inst = load_instance(out)
    assert len(inst.signals) == 40


@pytest.mark.parametrize("command, output", [("generate", "--out"), ("sweep", "--csv")])
def test_truncated_profile_exits_2_naming_the_file(tmp_path, capsys, command, output):
    profile = tmp_path / "broken.json"
    profile.write_text('{"name": "tiny",\n')
    out = tmp_path / "out"
    assert main([command, "--profile", str(profile), output, str(out)]) == 2
    assert f"malformed JSON in {profile}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("step", ["0.6", "0.3"])
def test_sweep_step_that_does_not_split_the_unit_interval_exits_2(tmp_path, capsys, step):
    profile = tmp_path / "profile.json"
    profile.write_text('{"name": "tiny", "ecu_count": 8, "signal_count": 20}')
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--profile", str(profile), "--csv", str(out),
                 "--step", step]) == 2
    assert f"step {step} does not split [0, 1] into whole steps" in capsys.readouterr().err
    assert not out.exists()


def test_missing_file_is_hard_error(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def _set(path, value):
    """An edit of an instance dict that sets the item at `path` to `value`."""
    def edit(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return edit


def _drop(path):
    def edit(data):
        for key in path[:-1]:
            data = data[key]
        del data[path[-1]]
    return edit


@pytest.mark.parametrize("edit, message", [
    (_set(("ecus", 0, "id"), -1), "ECU id -1 is negative"),
    (_set(("ecus", 2, "id"), 1), "duplicate ECU id 1"),
    (_set(("signals", 1, "id"), 1), "duplicate signal id 1"),
    (_set(("signals", 1, "transmitter"), 99), "signal 2: transmitter 99 not an ECU"),
    (_set(("signals", 1, "release_ms"), -1.0), "signal 2: negative release"),
    (lambda data: [data], "top-level value must be an object"),
    (_set(("config",), [8]), "config must be an object"),
    (_set(("ecus", 0), 0), "ecus[0] must be an object"),
    (_set(("signals", 0), "x"), "signals[0] must be an object"),
    (_set(("ecus",), {}), "ecus must be a list"),
    (_set(("signals",), {}), "signals must be a list"),
    (_set(("config", "slots"), 4), "unknown field(s) ['slots'] in config"),
    (_drop(("config", "slot_payload_bytes")),
     "missing field(s) ['slot_payload_bytes'] in config"),
    (_set(("ecus", 1, "name"), "x"), "unknown field(s) ['name'] in ecus[1]"),
    (_drop(("ecus", 1, "class")), "missing field(s) ['class'] in ecus[1]"),
])
def test_malformed_instance_exits_2_with_its_message(tmp_path, capsys, example1, edit,
                                                     message):
    data = instance_to_dict(example1)
    # an edit changes the dict in place or returns what replaces it
    data = edit(data) or data
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    assert main(["solve", str(path), "--tries", "1"]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_truncated_schedule_file_exits_2(tmp_path, example1_file, capsys):
    fibex = tmp_path / "out.xml"
    assert main(["solve", str(example1_file), "--tries", "20", "--fibex", str(fibex)]) == 0
    capsys.readouterr()
    text = fibex.read_text()
    fibex.write_text(text[:len(text) // 2])
    assert main(["validate", str(example1_file), str(fibex)]) == 2
    assert f"error: {fibex} is not a schedule file: " in capsys.readouterr().err


@pytest.mark.parametrize("profile, message", [
    ('{"ecu_count": 2}', "ecu_count must be >= 3 (gateway plus two common ECUs)"),
    ('{"receiver_count_weights": {"0": 1, "2": 1}}', "receiver counts must be >= 1"),
    ("[]", "profile file must hold a JSON object"),
])
def test_generate_refuses_a_profile_with_its_message(tmp_path, capsys, profile, message):
    path = tmp_path / "profile.json"
    path.write_text(profile)
    out = tmp_path / "out.json"
    assert main(["generate", "--profile", str(path), "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("step", ["0", "-0.5", "1.5"])
def test_sweep_step_outside_the_unit_interval_exits_2(tmp_path, capsys, step):
    profile = tmp_path / "profile.json"
    profile.write_text('{"name": "tiny", "ecu_count": 8, "signal_count": 20}')
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--profile", str(profile), "--csv", str(out),
                 "--step", step]) == 2
    assert "error: step must be within (0, 1]" in capsys.readouterr().err
    assert not out.exists()


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


def exported_fault_tolerant_instance() -> tuple[bytes, bytes]:
    """The instance file and the FIBEX export of a small generated instance
    in which half the signals are fault-tolerant, every one whose
    transmitter can send one."""
    profile = GeneratorProfile(name="ft", ecu_count=6, signal_count=12,
                               common_ecu_fraction=0.5, fault_tolerant_fraction=1.0)
    inst = generate(profile, seed=3)
    result = run(inst, DriverConfig())
    with tempfile.TemporaryDirectory() as tmp:
        inst_path, xml_path = Path(tmp, "ft.json"), Path(tmp, "ft.xml")
        save_instance(inst, inst_path)
        export_fibex(inst, result.assignment, result.schedule, xml_path)
        return inst_path.read_bytes(), xml_path.read_bytes()


FT_INSTANCE, FT_FIBEX = exported_fault_tolerant_instance()
# attribute values the writer never gives the attribute they replace, next
# to ones it gives some other attribute
MUTATED_VALUES = ("0", "-1", "", "nan", "1e308", "65", "AB", "A", "B", "C", "true",
                  "COMMON", "ONE_PORT", "GATEWAY", "1", "2", "8", "64", "9" * 30)


def mutate(draw, root: ET.Element) -> None:
    """One structural or attribute mutation of the tree under `root`: drop,
    duplicate, move or retag an element, delete an attribute or set one."""
    elements = list(root.iter())
    parent = {child: el for el in elements for child in el}
    kind = draw(st.sampled_from(("drop", "duplicate", "move", "retag", "delete", "set")))
    if kind in ("delete", "set"):
        el = draw(st.sampled_from([el for el in elements if el.attrib]))
        attr = draw(st.sampled_from(sorted(el.attrib)))
        if kind == "delete":
            del el.attrib[attr]
        else:
            el.set(attr, draw(st.sampled_from(MUTATED_VALUES)))
        return
    el = draw(st.sampled_from(elements[1:]))
    if kind == "retag":
        el.tag = draw(st.sampled_from(sorted({e.tag for e in elements})))
        return
    home = parent[el]
    if kind == "duplicate":
        home.insert(list(home).index(el) + 1, copy.deepcopy(el))
        return
    home.remove(el)
    if kind == "move":
        inside = set(el.iter())
        target = draw(st.sampled_from([e for e in elements if e not in inside]))
        target.insert(draw(st.integers(0, len(target))), el)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_validate_exits_0_1_or_2_on_mutated_fibex(data):
    # whatever becomes of an exported file, validate reports findings as
    # JSON with exit 0 or 1, or refuses the file with exit 2; it never raises
    root = ET.fromstring(FT_FIBEX)
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(data.draw, root)
    with tempfile.TemporaryDirectory() as tmp:
        inst_path, xml_path = Path(tmp, "ft.json"), Path(tmp, "ft.xml")
        inst_path.write_bytes(FT_INSTANCE)
        ET.ElementTree(root).write(xml_path)
        out = io.StringIO()
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(out):
            code = main(["validate", str(inst_path), str(xml_path)])
    assert code in (0, 1, 2)
    if code != 2:
        assert (json.loads(out.getvalue()) == []) == (code == 0)
