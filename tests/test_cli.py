"""Command-line behavior: exit codes, config layering, reproducible output.

Everything here runs the installed entry point in a subprocess so the tests
see exactly what a user sees (argument parsing, stderr wording, file bytes).
"""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

CMD = [sys.executable, "-m", "mrey"]


def run_cli(*args, cwd=None):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, cwd=cwd
    )


def test_no_subcommand_is_usage_error():
    proc = run_cli()
    assert proc.returncode == 64
    assert "subcommand" in proc.stderr


def test_unknown_flag_is_usage_error():
    proc = run_cli("spectrum", "--bogus")
    assert proc.returncode == 64


def test_single_level_report():
    proc = run_cli("spectrum", "--n", "0", "--l", "0")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "E = -0.28125, valid"


def test_single_level_needs_both_quantum_numbers():
    proc = run_cli("spectrum", "--n", "0")
    assert proc.returncode == 64
    assert "--n and --l" in proc.stderr


def test_spectrum_file_csv(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("spectrum", "--output-dir", str(out))
    assert proc.returncode == 0
    path = out / "spectrum.csv"
    assert path.exists()
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "l", "E", "valid"]
    assert len(rows) == 1 + 24  # header + (n_max+1)(l_max+1) with defaults
    # ground row carries the anchor value
    ground = [r for r in rows[1:] if r[0] == "0" and r[1] == "0"][0]
    assert float(ground[2]) == pytest.approx(-0.28125, abs=1e-13)
    assert ground[3] == "true"


def test_spectrum_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "out"
    run_cli("spectrum", "--output-dir", str(out))
    first = (out / "spectrum.csv").read_bytes()
    run_cli("spectrum", "--output-dir", str(out))
    assert (out / "spectrum.csv").read_bytes() == first
    assert b"\r" not in first  # LF line endings regardless of platform


def test_spectrum_json_format(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("spectrum", "--output-dir", str(out), "--format", "json")
    assert proc.returncode == 0
    payload = json.loads((out / "spectrum.json").read_text())
    assert payload["fields"] == ["n", "l", "E", "valid"]
    assert len(payload["rows"]) == 24
    assert payload["rows"][0]["valid"] is True


def test_table_default_alphas(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("table", "--output-dir", str(out))
    assert proc.returncode == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "table_alpha0.1.csv",
        "table_alpha0.2.csv",
        "table_alpha0.3.csv",
        "table_alpha0.4.csv",
        "table_alpha0.5.csv",
    ]
    printed = proc.stdout.strip().splitlines()
    assert len(printed) == 5


def test_table_wide_layout(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("table", "--wide", "--alpha", "0.5", "--output-dir", str(out))
    assert proc.returncode == 0
    with open(out / "table_alpha0.5_wide.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "E_l0", "E_l1", "E_l2", "E_l3"]
    assert len(rows) == 7  # header + n = 0..5
    assert float(rows[1][1]) == pytest.approx(-0.28125, abs=1e-13)


def test_config_file_layering(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("# comment line\nalpha = 0.2\na3 = 1.0\n")
    proc = run_cli("spectrum", "--config", str(cfg), "--n", "0", "--l", "0")
    assert proc.returncode == 0
    # alpha = 0.2: x3 = 10, E = -(0.04/8) * 81 = -0.405
    assert proc.stdout.strip() == "E = -0.405, valid"


def test_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("alpha = 0.2\n")
    proc = run_cli(
        "spectrum", "--config", str(cfg), "--alpha", "0.5", "--n", "0", "--l", "0"
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "E = -0.28125, valid"


def test_config_bad_value_reports_position(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("alpha = abc\n")
    proc = run_cli("spectrum", "--config", str(cfg))
    assert proc.returncode == 2
    assert "line 1, column 9" in proc.stderr


def test_config_unknown_key(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("bogus = 1\n")
    proc = run_cli("spectrum", "--config", str(cfg))
    assert proc.returncode == 2
    assert "unknown key 'bogus'" in proc.stderr


def test_config_duplicate_key(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("alpha = 0.5\nalpha = 0.6\n")
    proc = run_cli("spectrum", "--config", str(cfg))
    assert proc.returncode == 2
    assert "duplicate" in proc.stderr


def test_config_missing_file():
    proc = run_cli("spectrum", "--config", "/nonexistent/run.conf")
    assert proc.returncode == 2
    assert "cannot read config file" in proc.stderr


def test_config_decreasing_grid_rejected(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("beta_grid = 5,4,3\n")
    proc = run_cli("figures", "--config", str(cfg))
    assert proc.returncode == 2
    assert "increasing" in proc.stderr


def test_unwritable_output_dir_is_runtime_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    proc = run_cli("spectrum", "--output-dir", str(blocker / "out"))
    assert proc.returncode == 3


def test_wavefunction_output(tmp_path):
    out = tmp_path / "out"
    proc = run_cli(
        "wavefunction", "--n", "0", "--l", "0", "--points", "101",
        "--output-dir", str(out),
    )
    assert proc.returncode == 0
    with open(out / "wavefunction_n0_l0.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "psi"]
    assert len(rows) == 102
    values = [float(r[1]) for r in rows[1:]]
    assert max(abs(v) for v in values) > 0.1  # normalized profile, not zeros



def test_deep_well_wavefunction_has_no_nan(tmp_path):
    proc = run_cli("wavefunction", "--a3", "5000", "--alpha", "0.01", "--n", "150", "--l", "0",
                   "--output-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "wavefunction_n150_l0.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 1001
    assert all(np.isfinite(float(v)) for row in rows for v in row)

def test_wavefunction_rejects_unbound_level(tmp_path):
    proc = run_cli("wavefunction", "--n", "1", "--l", "0", "--output-dir", str(tmp_path))
    assert proc.returncode == 2  # marginal level, no normalizable wave


def test_figures_outputs_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        proc = run_cli("figures", "--lambda-fixed", "0.9", "--output-dir", str(out))
        assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in out1.iterdir())
    expected = sorted(
        [f"fig{i:02d}_{q}_vs_beta.csv" for i, q in enumerate("zuscf", start=1)]
        + [f"fig{i:02d}_{q}_vs_lambda.csv" for i, q in enumerate("zuscf", start=6)]
        + ["figures_config.json"]
    )
    assert names == expected
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    sidecar = json.loads((out1 / "figures_config.json").read_text())
    assert sidecar["lambda_fixed"] == 0.9
    assert len(sidecar["files"]) == 10


def test_recover_round_trip(tmp_path):
    # build a table from known couplings, then ask the CLI to invert it
    table = tmp_path / "levels.csv"
    from mrey import PhysicalConstants, PotentialParams, energy

    truth = PotentialParams(0.005, 0.002, 1.2, 0.4)
    consts = PhysicalConstants(1.0, 1.0, 1.0)
    lines = ["n,l,E"]
    for n in range(4):
        for l in range(3):
            lines.append(f"{n},{l},{energy(truth, consts, n, l).energy!r}")
    table.write_text("\n".join(lines) + "\n")

    out = tmp_path / "out"
    proc = run_cli(
        "recover-params", "--input", str(table), "--alpha", "0.4",
        "--output-dir", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert "verdict: feasible" in proc.stdout
    with open(out / "recovery.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "l", "E", "E_fit", "residual"]
    assert len(rows) == 13
    assert all(abs(float(r[4])) < 1e-6 for r in rows[1:])


def test_recover_rejects_malformed_table(tmp_path):
    table = tmp_path / "levels.csv"
    table.write_text("a,b,c\n1,2,3\n")
    proc = run_cli("recover-params", "--input", str(table), "--alpha", "0.4")
    assert proc.returncode == 2


def test_figures_sweep_flags_fill_missing_ends_from_config(tmp_path):
    out = tmp_path / "out"
    proc = run_cli(
        "figures", "--lambda-fixed", "0.9", "--beta-min", "0.5", "--beta-points", "3",
        "--lambda-max", "10", "--lambda-points", "4", "--output-dir", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    sidecar = json.loads((out / "figures_config.json").read_text())
    # the default config grids run beta over [0.1, 100] and lambda over [1, 100]
    assert sidecar["beta_grid"] == list(np.geomspace(0.5, 100.0, 3))
    assert sidecar["lambda_grid"] == list(np.linspace(1.0, 10.0, 4))
    assert sidecar["lambda_sweep_beta"] == 0.5


@pytest.mark.parametrize("flags, message", [
    (("--beta-min", "0"), "beta sweep needs"),
    (("--lambda-points", "1"), "lambda sweep needs"),
])
def test_figures_sweep_flag_errors(tmp_path, flags, message):
    proc = run_cli("figures", *flags, "--output-dir", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert message in proc.stderr
    assert not (tmp_path / "out").exists()


def test_table_alpha_from_config_file(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("alpha = 0.2\n")
    out = tmp_path / "out"
    proc = run_cli("table", "--config", str(cfg), "--output-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.iterdir()) == ["table_alpha0.2.csv"]

    flagged = tmp_path / "flagged"
    proc = run_cli("table", "--config", str(cfg), "--alpha", "0.4", "--output-dir", str(flagged))
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in flagged.iterdir()) == ["table_alpha0.4.csv"]


def test_table_alphas_sharing_a_file_name(tmp_path):
    # file names carry 6 significant digits of alpha; two alphas that agree
    # to 6 digits must not overwrite one another
    out = tmp_path / "out"
    proc = run_cli("table", "--alpha", "0.123456789", "--alpha", "0.1234568",
                   "--output-dir", str(out))
    assert proc.returncode == 2
    assert "0.123456789" in proc.stderr and "0.1234568" in proc.stderr
    assert not out.exists()


def test_table_repeated_alpha_is_written_once(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("table", "--alpha", "0.3", "--alpha", "0.2", "--alpha", "0.3",
                   "--output-dir", str(out))
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        str(out / "table_alpha0.3.csv"), str(out / "table_alpha0.2.csv")
    ]


def test_verify_takes_no_flags():
    # verify runs on fixed inputs; a configuration flag is a usage error
    proc = run_cli("verify", "--a1", "1")
    assert proc.returncode == 64
    assert "unrecognized arguments" in proc.stderr
