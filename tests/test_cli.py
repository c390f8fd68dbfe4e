import pytest

from lagmhd.cli import main


CONFIG = """
dimension = 3
sizes = 16,16,16
lengths = 16,6.283185307179586,6.283185307179586
dt = 0.05
t_end = 0.5
cadence = 0.25
epsilon0 = 1e-4
"""


def test_cli_run_and_fit(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CONFIG)
    rc = main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "script_E" in out and "diagnostics" in out
    csv = tmp_path / "out" / "diagnostics.csv"
    assert csv.exists()
    # only 3 samples in the window: the fit must refuse politely
    rc = main(
        ["fit", "--csv", str(csv), "--column", "E_total", "--window", "0.0", "0.5"]
    )
    assert rc == 1
    assert "fit failed" in capsys.readouterr().err


def test_cli_compare(tmp_path, capsys):
    cfg_path = tmp_path / "cmp.cfg"
    cfg_path.write_text(
        CONFIG.replace("t_end = 0.5", "t_end = 0.5\nsolver = both\nt_compare = 0.5")
    )
    rc = main(["compare", "--config", str(cfg_path)])
    assert rc == 0
    assert "max|u(X) - Yt|" in capsys.readouterr().out


def test_cli_oracle(tmp_path, capsys):
    out_csv = tmp_path / "oracle.csv"
    rc = main(
        [
            "oracle",
            "--t-min",
            "100",
            "--t-max",
            "1000",
            "--points",
            "11",
            "--out",
            str(out_csv),
        ]
    )
    assert rc == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "t,grad_yt_h2,grad_d1yt_h1"
    assert len(lines) == 12
    assert "slope" in capsys.readouterr().out


def test_cli_admissible(capsys):
    rc = main(["admissible", "--case", "zero-mean", "--seeds", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "admissible     = True" in out
    rc = main(["admissible", "--case", "nonzero-mean", "--seeds", "3"])
    assert rc == 3


def test_cli_compare_offers_no_resume(tmp_path):
    cfg_path = tmp_path / "cmp.cfg"
    cfg_path.write_text(CONFIG + "solver = both\n")
    with pytest.raises(SystemExit):
        main(["compare", "--config", str(cfg_path), "--resume", "state.ckpt"])


def test_cli_compare_offers_no_output(tmp_path):
    cfg_path = tmp_path / "cmp.cfg"
    cfg_path.write_text(CONFIG + "solver = both\n")
    with pytest.raises(SystemExit):
        main(["compare", "--config", str(cfg_path), "--output", str(tmp_path / "out")])


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--points", "5"],
        ["oracle", "--t-min", "0"],
        ["oracle", "--t-min", "200", "--t-max", "100"],
        ["oracle", "--t-max", "inf"],
        ["oracle", "--k-min", "0"],
        ["admissible", "--seeds", "0"],
        ["admissible", "--halfwidth", "0"],
    ],
    ids=[
        "points-5", "t-min-0", "t-min-above-t-max", "t-max-inf", "k-min-0", "seeds-0",
        "halfwidth-0",
    ],
)
def test_cli_rejects_out_of_range_arguments(argv, tmp_path, capsys):
    out_csv = tmp_path / "oracle.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--out", str(out_csv)] if argv[0] == "oracle" else []))
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not out_csv.exists()  # rejected before any work


@pytest.mark.parametrize(
    "case, error",
    [
        ("missing-config", "FileNotFoundError"),
        ("unknown-key", "ConfigError"),
        ("bad-checkpoint", "CheckpointFormatError"),
        ("non-transversal", "NonTransversalError"),
    ],
)
def test_cli_library_errors_end_as_one_line(case, error, tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CONFIG + ("bogus = 1\n" if case == "unknown-key" else ""))
    ckpt = tmp_path / "state.ckpt"
    ckpt.write_bytes(b"not a snapshot")
    argv = {
        "missing-config": ["run", "--config", str(tmp_path / "missing.cfg")],
        "unknown-key": ["run", "--config", str(cfg_path)],
        "bad-checkpoint": ["run", "--config", str(cfg_path), "--resume", str(ckpt)],
        "non-transversal": ["admissible", "--amplitude", "10", "--seeds", "2"],
    }[case]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"lagmhd: error: {error}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("run", "t_end", "inf"),
        ("run", "cadence", "nan"),
        ("run", "cadence", "inf"),
        ("run", "epsilon0", "inf"),
        ("compare", "t_compare", "nan"),
        ("compare", "t_compare", "inf"),
    ],
)
def test_cli_non_finite_config_values_end_as_one_line(
    command, key, value, tmp_path, capsys
):
    text = CONFIG + ("solver = both\n" if command == "compare" else "")
    lines = [ln for ln in text.splitlines() if not ln.startswith(f"{key} =")]
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
    argv = [command, "--config", str(cfg_path)]
    if command == "run":
        argv += ["--output", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"lagmhd: error: ConfigError: {key} must be finite")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()  # rejected before any work
