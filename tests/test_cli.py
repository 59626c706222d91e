import json

import pytest

from spinkey.cli import main
from spinkey.protocols import psk3_sequence


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
], ids=["encoding", "theta", "channel", "readout_map"])
def test_run_invalid_sequence_file_names_field(tmp_path, capsys, edit, field):
    seq_path = tmp_path / "bad.json"
    seq_path.write_text(_edit_sequence(edit))
    rc = main(["run", "--seq-file", str(seq_path), "--oracle", "0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, field", [
    (["scan", "detuning", "--start=nan"], "detunings_hz"),
    (["run", "--oracle", "0", "--leakage-rate=-1"], "leakage_rate"),
    (["run", "--oracle", "0", "--detuning-hz=inf"], "detuning_hz"),
    (["run", "--oracle", "0", "--rf-amp-error=-1"], "rf_amp_error"),
], ids=["detunings_hz", "leakage_rate", "detuning_hz", "rf_amp_error"])
def test_invalid_noise_names_field(capsys, argv, field):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and field in lines[0]


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


def test_scan_empty_grid_rejected(capsys):
    rc = main(["scan", "angle", "--points", "0"])
    assert rc == 1
    assert "grid" in capsys.readouterr().err


def test_bisect_verify_summary(capsys):
    rc = main(["bisect", "--n", "8", "--verify"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "queries=7, perfect=true"


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


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # missing required --oracle
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["scan", "sideways"])
    assert exc.value.code == 2


def test_byte_identical_reruns(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["scan", "angle", "--seq", "ask3", "--points", "17", "--seed", "3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert _read(out1) == _read(out2)
