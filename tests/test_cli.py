import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spinkey import cli, field_servo, ion_sim, protocols
from spinkey.cli import _emit, main
from spinkey.protocols import PSK, PulseSequence, ask3_sequence, psk3_sequence


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _data_rows(path):
    rows = []
    for line in _read(path).decode().splitlines():
        if line.startswith("#"):
            continue
        rows.append(line.split(","))
    return rows[0], rows[1:]


def test_run_psk3_distribution(tmp_path):
    out = tmp_path / "run.csv"
    rc = main(["run", "--seq", "psk3", "--oracle", "1", "--out", str(out)])
    assert rc == 0
    header, rows = _data_rows(out)
    assert header == ["state", "probability"]
    probs = {r[0]: float(r[1]) for r in rows}
    assert probs["state1"] >= 0.9999
    assert abs(sum(probs.values()) - 1.0) < 1e-10


def test_run_with_detuning_stays_accurate(tmp_path):
    out = tmp_path / "run.csv"
    rc = main(["run", "--seq", "ask3", "--oracle", "0",
               "--detuning-hz", "30", "--out", str(out)])
    assert rc == 0
    _, rows = _data_rows(out)
    probs = {r[0]: float(r[1]) for r in rows}
    assert probs["state0"] >= 0.99


def test_run_rejects_bad_oracle_index(capsys):
    rc = main(["run", "--seq", "psk3", "--oracle", "5"])
    assert rc == 1
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("message", ["Unable to allocate 5.96 GiB for an array", ""])
def test_out_of_memory_is_one_error_line(monkeypatch, capsys, message):
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(ion_sim, "angle_scan", exhausted)
    assert main(["scan", "angle", "--points", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message or 'MemoryError'}\n"


def test_run_unknown_sequence(capsys):
    rc = main(["run", "--seq", "qam16", "--oracle", "0"])
    assert rc == 1
    assert "unknown sequence" in capsys.readouterr().err


def test_run_sequence_file_round_trip(tmp_path):
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(psk3_sequence().to_json())
    out = tmp_path / "run.csv"
    rc = main(["run", "--seq-file", str(seq_path), "--oracle", "0", "--out", str(out)])
    assert rc == 0
    _, rows = _data_rows(out)
    assert float(dict((r[0], r[1]) for r in rows)["state0"]) >= 0.9999


def test_run_bad_sequence_file_reports_line(tmp_path, capsys):
    seq_path = tmp_path / "broken.json"
    seq_path.write_text('{"name": "x",\n  "pulses": [,]\n}')
    rc = main(["run", "--seq-file", str(seq_path), "--oracle", "0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def _edit_sequence(edit):
    data = json.loads(psk3_sequence().to_json())
    edit(data)
    return json.dumps(data)


@pytest.mark.parametrize("edit, field", [
    (lambda d: d.update(encoding="fsk"), "encoding"),
    (lambda d: d["pulses"][2].update(theta="nan"), "theta"),
    (lambda d: d["pulses"][0].update(channel="microwave"), "channel"),
    (lambda d: d["readout_map"].update({"2": 5}), "readout_map"),
    (lambda d: d["pulses"][2].update(theta=True), "theta"),
    (lambda d: d["readout_map"].update({"1": True}), "readout_map"),
    (lambda d: d["pulses"][1].update(index="abc"), "index"),
    (lambda d: d["pulses"][1].update(index=0), "index"),
    (lambda d: d["pulses"][1].update(label=7), "label"),
    (lambda d: d.update(readout_map={"0": 0}), "readout_map"),
    (lambda d: d["readout_map"].update({"3": 2}), "readout_map"),
    (lambda d: d.update(readout_map={"a": 0, "1": 1, "2": 2}), "readout_map"),
    (lambda d: d.update(name=None), "name"),
], ids=["encoding", "theta", "channel", "readout_map", "theta-bool", "readout_map-bool",
        "index-string", "index-0", "label-int", "readout_map-one-index",
        "readout_map-extra-index", "readout_map-key-not-integer", "name-null"])
def test_run_invalid_sequence_file_names_field(tmp_path, capsys, edit, field):
    seq_path = tmp_path / "bad.json"
    seq_path.write_text(_edit_sequence(edit))
    rc = main(["run", "--seq-file", str(seq_path), "--oracle", "0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text, path", [
    ("[]", "the document"), ('{"pulses": 5}', "pulses"), ("null", "the document"),
    ('"abc"', "the document"), (_edit_sequence(lambda d: d.update(readout_map=3)), "readout_map"),
    (_edit_sequence(lambda d: [d["pulses"][0].pop(k) for k in ("index", "label", "phi")]),
     "pulses[0].phi"),
], ids=["array", "pulses-number", "null", "string", "readout_map-number", "pulse-missing-fields"])
def test_run_malformed_sequence_file_is_one_error_line(tmp_path, capsys, text, path):
    seq_path = tmp_path / "bad.json"
    seq_path.write_text(text)
    assert main(["run", "--seq-file", str(seq_path), "--oracle", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed sequence JSON: ")
    assert captured.err.count("\n") == 1 and path in captured.err


def test_run_sequence_file_with_an_integer_beyond_float_range_is_one_error_line(tmp_path, capsys):
    seq_path = tmp_path / "huge.json"
    seq_path.write_text(_edit_sequence(lambda d: d["pulses"][2].update(theta=10 ** 400)))
    assert main(["run", "--seq-file", str(seq_path), "--oracle", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: pulses[2]: pulse theta must be a finite number")


def test_scan_detuning_rejects_a_readout_map_missing_an_oracle_index(tmp_path, capsys):
    seq_path = tmp_path / "cut.json"
    seq_path.write_text(_edit_sequence(lambda d: d.update(readout_map={"0": 0})))
    assert main(["scan", "detuning", "--seq-file", str(seq_path), "--points", "3"]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0].startswith("error:") and "readout_map" in lines[0]


@pytest.mark.parametrize("argv, field", [
    (["scan", "detuning", "--start=nan"], "--start"),
    (["run", "--oracle", "0", "--leakage-rate=-1"], "leakage_rate"),
    (["run", "--oracle", "0", "--detuning-hz=inf"], "detuning_hz"),
    (["run", "--oracle", "0", "--rf-amp-error=-1"], "rf_amp_error"),
    (["rabi", "--start-level=-1"], "start_level"),
    (["rabi", "--start-level", "9"], "start_level"),
    (["rabi", "--t-max=nan"], "--t-max"),
    (["scan", "angle", "--start=nan"], "--start"),
    (["servo", "--duration=inf"], "duration_s"),
    (["servo", "--preset", "custom", "--miscal-hz=nan"], "miscalibration_hz"),
    (["servo", "--preset", "custom", "--white-sigma1=nan"], "white_sigma1"),
    (["rabi", "--points=-3"], "points"),
    (["rabi", "--points=0"], "points"),
    (["scan", "time", "--points=1"], "n_points"),
    (["baselines", "--accuracy=nan"], "accuracy"),
    (["baselines", "--accuracy=1.7"], "accuracy"),
    (["run", "--oracle", "0", "--sample", "--seed=-1"], "seed"),
    (["servo", "--seed=-1"], "seed"),
    # An infinite endpoint fails before np.linspace, which would warn on it.
    (["scan", "angle", "--points", "3", "--stop=inf"], "--stop"),
    (["scan", "angle", "--points", "3", "--start=-inf"], "--start"),
    (["scan", "detuning", "--points", "3", "--stop=inf"], "--stop"),
    (["scan", "detuning", "--points", "3", "--start=-inf"], "--start"),
    (["rabi", "--points", "3", "--t-max=inf"], "--t-max"),
    (["rabi", "--points", "3", "--t-max=-inf"], "--t-max"),
    (["rabi", "--points", "3", "--t-max=-1"], "--t-max"),
    (["run", "--oracle", "1", "--seed", "-1"], "--seed"),
    (["scan", "angle", "--points", "3", "--seed", "-1"], "--seed"),
    # The two-level reduction is noiseless, so it refuses noise it would ignore.
    (["scan", "angle", "--dim", "2", "--points", "3", "--spam-error=0.1"], "--dim"),
    # Under the default lab preset each servo flag given overrides its field.
    (["servo", "--miscal-hz=nan"], "miscalibration_hz"),
    (["servo", "--white-sigma1=-1"], "white_sigma1"),
    (["servo", "--shots", "0"], "shots"),
    # A scan flag the chosen kind never reads is refused at any non-default value.
    (["scan", "time", "--points", "3", "--dim", "2"], "--dim"),
    (["scan", "detuning", "--points", "4", "--check-period"], "--check-period"),
    (["scan", "angle", "--points", "3", "--seq", "ask3", "--check-period"], "--check-period"),
    (["scan", "angle", "--points", "3", "--oracle", "2"], "--oracle"),
    (["scan", "detuning", "--points", "3", "--oracle", "1"], "--oracle"),
    (["scan", "time", "--points", "3", "--start", "5"], "--start"),
    (["scan", "time", "--points", "3", "--stop", "9"], "--stop"),
    (["scan", "detuning", "--points", "3", "--dim", "2"], "scan detuning reads no --dim"),
    (["scan", "detuning", "--points", "3", "--start", "-10", "--stop", "10",
      "--detuning-hz=500"], "--detuning-hz"),
    # The binomial draw takes at most int64's largest value, and the period
    # count must fit an array index.
    (["servo", "--shots", "1000000000000000000000"], "shots"),
    (["servo", "--duration", "1e300"], "duration_s"),
    # Only servo and run --sample draw at random, so only they read a seed.
    (["scan", "angle", "--points", "3", "--seed", "1"], "--seed"),
    (["run", "--oracle", "1", "--seed", "2"], "--seed"),
    (["bisect", "--n", "4", "--seed", "1"], "--seed"),
    (["baselines", "--accuracy", "0.9", "--seed", "5"], "--seed"),
    (["rabi", "--points", "3", "--seed", "1"], "--seed"),
], ids=["detunings_hz", "leakage_rate", "detuning_hz", "rf_amp_error", "start_level-negative",
        "start_level-9", "times", "angles", "duration_s", "miscalibration_hz", "white_sigma1",
        "rabi-points-negative", "rabi-points-0", "scan-time-points-1", "accuracy-nan",
        "accuracy-1.7", "run-sample-seed-negative", "servo-seed-negative", "angle-stop-inf",
        "angle-start-minus-inf", "detuning-stop-inf", "detuning-start-minus-inf",
        "t-max-inf", "t-max-minus-inf", "t-max-negative", "run-seed-negative",
        "scan-seed-negative", "dim-2-noise", "lab-miscalibration_hz", "lab-white_sigma1",
        "lab-shots", "time-dim", "detuning-check-period", "ask3-check-period",
        "angle-oracle", "detuning-oracle", "time-start", "time-stop", "detuning-dim",
        "detuning-detuning-hz", "servo-shots-huge", "servo-duration-huge", "scan-seed",
        "run-seed", "bisect-seed", "baselines-seed", "rabi-seed"])
def test_invalid_noise_names_field(capsys, argv, field):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and field in lines[0]


@pytest.mark.parametrize("argv", [
    ["scan", "time", "--points", "3", "--dim", "6", "--start", "0", "--stop", str(2 * math.pi)],
    ["scan", "detuning", "--points", "3", "--oracle", "0"],
], ids=["time", "detuning"])
def test_scan_accepts_unread_flags_at_their_defaults(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_seq_with_seq_file_is_refused(tmp_path, capsys):
    # An explicit --seq is refused beside --seq-file even when it names the default.
    seq_path = tmp_path / "s.json"
    seq_path.write_text(ask3_sequence().to_json())
    for seq in ("ask3", "psk3"):
        assert main(["run", "--oracle", "1", "--seq", seq, "--seq-file", str(seq_path)]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1
        assert lines[0].startswith("error:") and "--seq " in lines[0] and "--seq-file" in lines[0]


def test_scan_angle_schema_and_period_check(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    rc = main(["scan", "angle", "--seq", "psk3", "--points", "9",
               "--check-period", "--out", str(out)])
    assert rc == 0
    header, rows = _data_rows(out)
    assert header == ["angle_rad", "p_state0", "p_state1", "p_state2"]
    assert len(rows) == 9 and len(rows[0]) == 4
    meta = _read(out).decode()
    dev = float([l for l in meta.splitlines() if "pi_period_max_dev" in l][0].split(":")[1])
    assert dev < 1e-8


# The two-level reduction is noiseless; the six-level scan takes every noise field.
_PERIOD_SCANS = st.one_of(st.just((2, {})), st.fixed_dictionaries({
    "detuning_hz": st.floats(-100.0, 100.0), "rf_amp_error": st.floats(-0.05, 0.05),
    "laser_pi_error": st.floats(0.0, 1.0), "spam_error": st.floats(0.0, 1.0),
    "leakage_rate": st.floats(0.0, 1e3)}).map(lambda fields: (6, fields)))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 60), st.floats(-7.0, 7.0), st.floats(-7.0, 7.0), _PERIOD_SCANS)
def test_period_check_is_two_angle_scans(points, start, stop, scan):
    """The period-checked table and its pi_period_max_dev are those of two
    separate angle scans, of the grid and of the grid shifted by pi."""
    dim, fields = scan
    flags = [f"--{name.replace('_', '-')}={value!r}" for name, value in fields.items()]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "scan.json")
        assert main(["scan", "angle", "--points", str(points), f"--start={start!r}",
                     f"--stop={stop!r}", "--dim", str(dim), "--check-period", "--format",
                     "json", "--out", out] + flags) == 0
        with open(out) as fh:
            written = json.load(fh)
    grid = np.linspace(start, stop, points)
    noise = ion_sim.NoiseModel(**fields)
    table = ion_sim.angle_scan(psk3_sequence(), grid, noise=noise, dim=dim)
    shifted = ion_sim.angle_scan(psk3_sequence(), grid + np.pi, noise=noise, dim=dim)
    np.testing.assert_allclose(written["rows"], table, rtol=0, atol=1e-13)
    deviation = np.max(np.abs(table[:, 1:] - shifted[:, 1:]))
    assert abs(written["meta"]["pi_period_max_dev"] - deviation) <= 1e-13


def test_scan_detuning_at_zero(tmp_path):
    out = tmp_path / "scan.csv"
    rc = main(["scan", "detuning", "--seq", "psk3", "--points", "3",
               "--start", "-10", "--stop", "10", "--out", str(out)])
    assert rc == 0
    _, rows = _data_rows(out)
    center = [r for r in rows if abs(float(r[0])) < 1e-12][0]
    assert float(center[1]) >= 0.9999


def test_scan_time_endpoint_matches_run(tmp_path):
    out = tmp_path / "ts.csv"
    rc = main(["scan", "time", "--seq", "psk3", "--oracle", "2",
               "--points", "40", "--out", str(out)])
    assert rc == 0
    header, rows = _data_rows(out)
    assert header == ["time_s", "p_state0", "p_state1", "p_state2"]
    assert float(rows[0][1]) == 1.0  # initialized state reads state0
    assert float(rows[-1][3]) >= 0.9999


def test_scan_time_of_an_empty_sequence_file_repeats_run(tmp_path):
    seq_path = tmp_path / "empty.json"
    seq_path.write_text(PulseSequence("empty", PSK, (), {0: 0, 1: 1, 2: 2}).to_json())
    out = tmp_path / "ts.csv"
    assert main(["scan", "time", "--seq-file", str(seq_path), "--points", "3",
                 "--out", str(out)]) == 0
    assert _data_rows(out)[1] == [["0", "1", "0", "0"]] * 3


def test_scan_empty_grid_rejected(capsys):
    rc = main(["scan", "angle", "--points", "0"])
    assert rc == 1
    assert "grid" in capsys.readouterr().err


def test_bisect_verify_summary(capsys):
    rc = main(["bisect", "--n", "8", "--verify"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "queries=7, perfect=true"


def test_bisect_verify_runs_blocks_of_indices(monkeypatch, capsys):
    sizes = []
    run = protocols.run_bisection
    monkeypatch.setattr(protocols, "run_bisection",
                        lambda proto, hidden: sizes.append(len(hidden)) or run(proto, hidden))
    assert main(["bisect", "--n", str(2 ** 18), "--verify"]) == 0
    assert sizes == [2 ** 16] * 4
    assert capsys.readouterr().out.splitlines()[-1] == f"queries={2 ** 18 - 1}, perfect=true"


def test_bisect_verify_reports_a_wrong_identification(monkeypatch, capsys):
    run = protocols.run_bisection

    def reversed_answers(proto, hidden):
        identified, used, worst = run(proto, hidden)
        return identified[::-1], used, worst

    monkeypatch.setattr(protocols, "run_bisection", reversed_answers)
    assert main(["bisect", "--n", "8", "--verify"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "queries=7, perfect=false"


def test_bisect_verify_refuses_n_above_its_bound_before_any_block(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(protocols, "run_bisection",
                        lambda proto, hidden: calls.append(1) or (hidden, proto.total_queries,
                                                                  np.zeros(len(hidden))))
    for n in (2 * cli._VERIFY_MAX_N, 2 ** 62):
        assert main(["bisect", "--n", str(n), "--verify"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: --verify") and str(cli._VERIFY_MAX_N) in err
    assert calls == []
    # CI verifies n = 2**24, so the bound is at least that; the bound itself is verified.
    assert cli._VERIFY_MAX_N >= 2 ** 24
    assert main(["bisect", "--n", str(cli._VERIFY_MAX_N), "--verify"]) == 0
    assert len(calls) == cli._VERIFY_MAX_N // cli._VERIFY_BLOCK
    assert capsys.readouterr().out.splitlines()[-1].endswith("perfect=true")
    # Without --verify every n bisection_protocol takes is built, as before.
    assert main(["bisect", "--n", str(2 ** 62)]) == 0


def test_baselines_table(tmp_path):
    out = tmp_path / "b.csv"
    rc = main(["baselines", "--accuracy", "0.994", "--out", str(out)])
    assert rc == 0
    _, rows = _data_rows(out)
    assert len(rows) == 5
    assert all(r[2] == "true" for r in rows[1:])


def test_servo_reproducible_and_allan(tmp_path):
    out1 = tmp_path / "servo1.csv"
    out2 = tmp_path / "servo2.csv"
    allan = tmp_path / "allan.csv"
    args = ["servo", "--preset", "lab", "--duration", "120", "--seed", "7"]
    assert main(args + ["--out", str(out1), "--allan-out", str(allan)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert _read(out1) == _read(out2)
    header, rows = _data_rows(out1)
    assert header == ["t_s", "true_freq_hz", "applied_freq_hz", "residual_hz"]
    assert len(rows) == 120
    a_header, a_rows = _data_rows(allan)
    assert a_header == ["tau_s", "sigma_y"]
    assert len(a_rows) >= 3


def test_servo_flags_override_the_lab_preset(tmp_path):
    def rows(*flags):
        out = tmp_path / "servo.csv"
        assert main(["servo", "--duration", "20", *flags, "--out", str(out)]) == 0
        return _data_rows(out)[1]

    plain = rows()
    assert rows("--white-sigma1", "1e-5") != plain
    assert rows("--white-sigma1", "4e-7", "--rw-sigma10", "1.1e-7", "--miscal-hz", "15",
                "--shots", "50") == plain


def test_servo_model_flags_are_the_model_fields():
    parser = cli.build_parser(["servo"])
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {action.dest for action in sub.choices["servo"]._actions}
    other = {"help", "preset", "duration", "allan_out", "format", "out", "gnuplot", "seed"}
    fields = {field.name for model in (field_servo.DriftModel, field_servo.ServoConfig)
              for field in dataclasses.fields(model)}
    assert other <= dests and dests - other == fields


@pytest.mark.parametrize("out, allan_out", [
    ("s.csv", "s.csv"),
    ("./s.csv", "s.csv"),
    ("s.csv", "sub/../s.csv"),
    ("{tmp}/s.csv", "s.csv"),
    ("s.csv", "link.csv"),
], ids=["same-name", "dot-slash", "parent-hop", "absolute", "symlink"])
def test_servo_rejects_one_file_for_both_tables(tmp_path, monkeypatch, capsys, out, allan_out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.csv").symlink_to("s.csv")
    out = out.format(tmp=tmp_path)
    assert main(["servo", "--duration", "20", "--out", out, "--allan-out", allan_out]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0].startswith("error:") and "--out" in lines[0] and "--allan-out" in lines[0]
    assert not (tmp_path / "s.csv").exists()


def test_servo_writes_distinct_out_and_allan_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["servo", "--duration", "20", "--out", "s.csv", "--allan-out", "./a.csv"]) == 0
    assert _data_rows(tmp_path / "s.csv")[0] == ["t_s", "true_freq_hz", "applied_freq_hz",
                                                 "residual_hz"]
    assert _data_rows(tmp_path / "a.csv")[0] == ["tau_s", "sigma_y"]


def test_json_format_envelope(tmp_path):
    out = tmp_path / "run.json"
    rc = main(["run", "--seq", "psk3", "--oracle", "2", "--format", "json",
               "--sample", "--seed", "9", "--out", str(out)])
    assert rc == 0
    payload = json.loads(_read(out))
    assert payload["meta"]["version"]
    assert payload["meta"]["sampled_outcome"] == 2
    assert payload["columns"] == ["state", "probability"]


def test_rabi_csv(tmp_path):
    out = tmp_path / "rabi.csv"
    rc = main(["rabi", "--start-level", "4", "--t-max", "110e-6",
               "--points", "3", "--out", str(out)])
    assert rc == 0
    header, rows = _data_rows(out)
    assert len(header) == 7 and len(rows) == 3
    # halfway point is the pi-time: full transfer to m=+3/2
    assert float(rows[1][2]) > 1 - 1e-9


def test_gnuplot_companion(tmp_path):
    out = tmp_path / "scan.csv"
    rc = main(["scan", "angle", "--points", "5", "--out", str(out), "--gnuplot"])
    assert rc == 0
    script = (tmp_path / "scan.csv.gp").read_text()
    assert "plot" in script and "p_state1" in script


@pytest.mark.parametrize("argv", [
    ["run", "--oracle", "0"],
    ["scan", "angle", "--points", "3"],
    ["bisect", "--n", "4"],
    ["baselines", "--accuracy", "0.9"],
    ["servo", "--duration", "20"],
    ["rabi", "--points", "3"],
], ids=["run", "scan", "bisect", "baselines", "servo", "rabi"])
def test_gnuplot_without_out_is_refused(capsys, argv):
    assert main(argv + ["--gnuplot"]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0].startswith("error:") and "--gnuplot" in lines[0] and "--out" in lines[0]


@pytest.mark.parametrize("allan_out", ["g.csv.gp", "./g.csv.gp", "sub/../g.csv.gp",
                                       "{tmp}/g.csv.gp"],
                         ids=["same-name", "dot-slash", "parent-hop", "absolute"])
def test_servo_rejects_allan_out_on_the_gnuplot_script(tmp_path, monkeypatch, capsys,
                                                       allan_out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    argv = ["servo", "--duration", "20", "--out", "g.csv", "--gnuplot",
            "--allan-out", allan_out.format(tmp=tmp_path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0].startswith("error:")
    assert all(flag in lines[0] for flag in ("--allan-out", "--gnuplot", "--out"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]


def test_servo_writes_gnuplot_script_and_allan_table_side_by_side(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["servo", "--duration", "20", "--out", "g.csv", "--gnuplot", "--allan-out", "g.gp"]
    assert main(argv) == 0
    assert "plot" in (tmp_path / "g.csv.gp").read_text()
    assert _data_rows(tmp_path / "g.gp")[0] == ["tau_s", "sigma_y"]


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # missing required --oracle
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["scan", "sideways"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--oracle", "1", "--ou", "x.csv"])  # flags must be spelled in full
    assert exc.value.code == 2


_COMMAND_HELP = {
    "run": "run one discrimination sequence",
    "scan": "sweep an angle, detuning, or time grid",
    "bisect": "build and verify a halving protocol",
    "baselines": "tabulate incoherent strategies",
    "servo": "simulate the frequency feed-forward loop",
    "rabi": "six-level Rabi oscillation curve",
}
_COMMAND_FLAGS = {
    "run": ["--seq", "--seq-file", "--oracle", "--sample", "--detuning-hz", "--leakage-rate"],
    "scan": ["{angle,detuning,time}", "--points", "--start", "--stop", "--dim",
             "--check-period", "--spam-error"],
    "bisect": ["--n", "--verify"],
    "baselines": ["--accuracy"],
    "servo": ["--preset", "--duration", "--white-sigma1", "--rw-sigma10", "--miscal-hz",
              "--shots", "--allan-out"],
    "rabi": ["--start-level", "--t-max", "--points"],
}


def _exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def test_root_help_lists_every_command(capsys):
    assert _exit_code(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: spinkey ")
    for name, help_text in _COMMAND_HELP.items():
        assert any(line.split() == [name] + help_text.split() for line in out.splitlines())


@pytest.mark.parametrize("command", list(_COMMAND_HELP))
def test_command_help_lists_its_flags(capsys, command):
    assert _exit_code([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: spinkey {command} ")
    for flag in _COMMAND_FLAGS[command] + ["--format", "--out", "--gnuplot", "--seed"]:
        assert flag in out


@pytest.mark.parametrize("argv", [["--bogus", "run", "--oracle", "1"], ["foo"]])
def test_root_usage_errors_list_every_command(capsys, argv):
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: spinkey ") and "{run,scan,bisect,baselines,servo,rabi}" in err


def _every_subparser(argv):
    """The reference parser: the root and all six subparsers, with no metavar."""
    parser = argparse.ArgumentParser(
        prog="spinkey",
        description="Simulate keyed-rotation channel discrimination on a single ion.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=cli.__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    command = next((token for token in argv if not token.startswith("-")), None)
    for name, (help_text, add_args, func) in cli._COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        if name == command:
            add_args(p)
            cli._add_common(p)
            p.set_defaults(func=func)
    return parser


def _main_outcome(argv, capsys):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", [[name, "--help"] for name in _COMMAND_HELP] + [
    ["run", "--oracle", "1"], ["scan", "angle", "--points", "3"], ["bisect", "--n", "4"],
    ["baselines", "--accuracy", "0.99"], ["servo", "--duration", "20"], ["rabi", "--points", "3"],
    ["run", "--oracle", "1", "--bogus"], ["scan", "angle", "extra"], ["run"], ["scan", "sideways"],
    ["run", "--oracle=x"], ["--help", "run"], ["-h", "scan"], ["--version", "run"],
    ["--bogus", "run", "--oracle", "1"], ["-1", "run"], ["--", "run", "--oracle", "1"], ["foo"],
    ["ru"], ["-"], [],
], ids=" ".join)
def test_main_matches_the_every_subparser_parser(monkeypatch, capsys, argv):
    built = _main_outcome(argv, capsys)
    monkeypatch.setattr(cli, "_parse_args", lambda argv: _every_subparser(argv).parse_args(argv))
    assert built == _main_outcome(argv, capsys)


# A command argv builds its own parser alone; root-level argv builds the root
# and all six subparsers, and arguments a command leaves over build those
# seven after the command's own parser, to report them under the root usage.
_PARSERS_PER_CALL = [
    (["run", "--oracle", "1"], 1),
    (["scan", "angle", "--points", "3"], 1),
    (["bisect", "--help"], 1),
    (["run"], 1),
    (["--help"], 7),
    (["foo"], 7),
    (["--bogus", "run"], 7),
    ([], 7),
    (["run", "--oracle", "1", "--bogus"], 8),
    (["scan", "angle", "--points", "3", "--version"], 8),
]


@pytest.mark.parametrize("argv, parsers", _PARSERS_PER_CALL,
                         ids=[" ".join(argv) for argv, _ in _PARSERS_PER_CALL])
def test_parsers_built_per_main_call(monkeypatch, capsys, argv, parsers):
    count = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: count.append(1) or init(self, *a, **k))
    _main_outcome(argv, capsys)
    assert len(count) == parsers


@pytest.mark.parametrize("argv", [["scan", "angle", "--points", "3"], ["--help"], ["run"],
                                  ["run", "--oracle", "1", "--bogus"]], ids=" ".join)
def test_one_main_call_looks_up_the_terminal_width_once(monkeypatch, capsys, argv):
    calls = []
    size = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: calls.append(1) or size(*a))
    _main_outcome(argv, capsys)
    assert len(calls) == 1


def test_byte_identical_reruns(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["scan", "angle", "--seq", "ask3", "--points", "17", "--seed", "0"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert _read(out1) == _read(out2)


def _meta(tmp_path, argv, name="out.csv"):
    """The metadata main writes for argv: the JSON meta, or the CSV '# key: value' lines."""
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    if name.endswith(".json"):
        return json.loads(_read(out))["meta"]
    lines = [l[2:].split(": ", 1) for l in _read(out).decode().splitlines() if l.startswith("# ")]
    return dict(lines)


@pytest.mark.parametrize("first, second", [
    (["scan", "angle", "--points", "3"], ["scan", "angle", "--points", "3", "--spam-error=0.2"]),
    (["scan", "angle", "--points", "3", "--dim", "2"],
     ["scan", "angle", "--points", "3", "--dim", "6"]),
    (["scan", "time", "--points", "3", "--oracle", "1"],
     ["scan", "time", "--points", "3", "--oracle", "2"]),
    (["servo", "--preset", "custom", "--duration", "10", "--white-sigma1", "1e-7"],
     ["servo", "--preset", "custom", "--duration", "10", "--white-sigma1", "2e-7"]),
    (["run", "--oracle", "1"], ["run", "--oracle", "1", "--sample"]),
    (["bisect", "--n", "4"], ["bisect", "--n", "4", "--verify"]),
], ids=["spam-error", "dim", "oracle", "white-sigma1", "sample", "verify"])
def test_config_changes_with_every_computation_flag(tmp_path, first, second):
    assert _meta(tmp_path, first)["config"] != _meta(tmp_path, second)["config"]


@pytest.mark.parametrize("argv, output_flags, name", [
    (["scan", "angle", "--points", "3"], ["--gnuplot"], "b.csv"),
    (["scan", "angle", "--points", "3", "--spam-error=0.2"], ["--format", "json"], "b.json"),
    (["servo", "--duration", "20"], ["--allan-out", "allan.csv"], "b.csv"),
], ids=["gnuplot", "format", "allan-out"])
def test_config_ignores_output_flags(tmp_path, monkeypatch, argv, output_flags, name):
    monkeypatch.chdir(tmp_path)
    plain = _meta(tmp_path, argv, "a.csv")
    assert _meta(tmp_path, argv + output_flags, name)["config"] == plain["config"]


def test_allan_table_carries_the_servo_metadata(tmp_path):
    allan = tmp_path / "allan.csv"
    servo = _meta(tmp_path, ["servo", "--duration", "20", "--seed", "3",
                             "--allan-out", str(allan)])
    allan_lines = [l for l in _read(allan).decode().splitlines() if l.startswith("# ")]
    assert allan_lines == [f"# {k}: {v}" for k, v in servo.items()]
    assert servo["seed"] == "3" and "--allan-out" not in servo["command"]


@pytest.mark.parametrize("argv", [
    ["run", "--seq-file", "s.json", "--oracle", "1", "--out", "./s.json"],
    # The script the table would get lands on the input, and the table on s.json.
    ["scan", "angle", "--points", "3", "--seq-file", "s.json.gp", "--out", "s.json",
     "--gnuplot"],
], ids=["out", "gnuplot-script"])
def test_outputs_never_overwrite_the_sequence_file(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.json").write_text(psk3_sequence().to_json())
    (tmp_path / "s.json.gp").write_text(psk3_sequence().to_json())
    before = {p.name: _read(p) for p in tmp_path.iterdir()}
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0].startswith("error:") and "--seq-file" in lines[0]
    assert {p.name: _read(p) for p in tmp_path.iterdir()} == before


def test_a_lone_out_resolves_no_path(tmp_path, monkeypatch):
    def refuse(path):
        raise AssertionError(f"realpath({path!r}) with one file named")

    monkeypatch.setattr("os.path.realpath", refuse)
    assert main(["run", "--oracle", "1", "--out", str(tmp_path / "r.csv")]) == 0


def test_gnuplot_script_quotes_the_data_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["scan", "angle", "--points", "3", "--out", "it's.csv", "--gnuplot"]) == 0
    script = (tmp_path / "it's.csv.gp").read_text()
    assert "plot 'it''s.csv' using 1:2 with lines title 'p_state0'" in script


def _reference_text(fmt, meta, columns, rows):
    """The table as the writer's rule states it, value by value."""
    if fmt == "json":
        payload = {"meta": meta, "columns": list(columns), "rows": [list(row) for row in rows]}
        return json.dumps(payload, indent=2, default=float) + "\n"
    lines = [f"# {k}: {v}" for k, v in meta.items()]
    lines.append(",".join(columns))
    # A column of floats only is written as ".17g", any other one with str.
    floats = [all(isinstance(row[i], float) for row in rows) for i in range(len(columns))]
    lines += [",".join(format(x, ".17g") if f else str(x) for x, f in zip(row, floats))
              for row in rows]
    return "\n".join(lines) + "\n"


_EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308)
_EDGE_TEXT = ('"', "\\", "\n", "],", '"],\n      ["', "\u00b5s \u2192 \u221e", "")
_CELLS = {"float": st.floats() | st.sampled_from(_EDGE_FLOATS),
          "int": st.integers() | st.sampled_from((0, -1, 10 ** 20)),
          "str": st.text() | st.sampled_from(_EDGE_TEXT)}
# A mixed column draws each value's type anew, so its type changes between rows.
_CELLS["mixed"] = st.one_of(*_CELLS.values())


@st.composite
def _tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(*(_CELLS[kind] for kind in kinds)), max_size=12))
    return kinds, rows


_MIXED_ROWS = [(1.0, "a", 1, -0.0), (2, '"],\n', 2.5, math.nan), ("x", math.inf, True, 10 ** 20),
               (5e-324, -math.inf, "\u00e9", 1.7976931348623157e308)]


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(_tables())
@example((["float"], []))
@example((["float", "str"], [(0.1, "one row")]))
@example((["mixed"] * 4, _MIXED_ROWS))
def test_emit_writes_each_table_as_the_reference_rule(fmt, to_file, table):
    kinds, rows = table
    meta = {"command": "spinkey scan angle", "version": "0.1.0", "seed": 0,
            "config": "0123456789ab", "pi_period_max_dev": 2.5e-16}
    with tempfile.TemporaryDirectory() as tmp:
        args = argparse.Namespace(format=fmt, gnuplot=False,
                                  out=os.path.join(tmp, "t." + fmt) if to_file else None)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            _emit(args, meta, kinds, rows)
        if to_file:
            assert stdout.getvalue() == ""
            with open(args.out, newline="") as fh:
                text = fh.read()
        else:
            text = stdout.getvalue()
    assert text == _reference_text(fmt, meta, kinds, rows)
