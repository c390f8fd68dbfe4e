import importlib.util
import json
import os
import subprocess
import sys
import textwrap

import pytest

import lagmhd
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


def test_a_2d_and_a_3d_run_load_no_scipy_module(tmp_path):
    # in a fresh interpreter a 16^2 and then a 16^3 run through the CLI each
    # exit 0, write their CSV and leave no scipy module and no numpy.fft
    # module loaded: the first grid, the 2D one, loads pocketfft's extension
    # by its path in the scipy package, whose c2c the leading passes of
    # either dimension run, and forms its wavenumbers without numpy.fft
    script = textwrap.dedent("""
        import json, os, sys
        import lagmhd.grid
        from lagmhd.cli import main
        found = []
        for cfg, out in zip(sys.argv[1::2], sys.argv[2::2]):
            rc = main(["run", "--config", cfg, "--output", out])
            scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            numpy_fft = sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "fft"])
            ext = getattr(lagmhd.grid.sfft, "__name__", None)
            csv = os.path.exists(os.path.join(out, "diagnostics.csv"))
            found.append([rc, csv, scipy, numpy_fft, ext])
        ext = lagmhd.grid.sfft
        print(json.dumps([found, ext.__file__, type(ext.c2c).__name__]))
    """)
    args = []
    for dim, sizes in ((2, "16,16"), (3, "16,16,16")):
        cfg_path = tmp_path / f"run{dim}.cfg"
        cfg_path.write_text(
            f"dimension = {dim}\nsizes = {sizes}\ndt = 0.05\nt_end = 0.5\ncadence = 0.25\n"
        )
        args += [str(cfg_path), str(tmp_path / f"out{dim}")]
    src = os.path.dirname(os.path.dirname(lagmhd.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    found, path, kind = json.loads(proc.stdout.splitlines()[-1])
    name = "scipy.fft._pocketfft.pypocketfft"
    assert found == [[0, True, [], [], name], [0, True, [], [], name]]
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    assert os.path.dirname(path) == os.path.join(scipy_dir, "fft", "_pocketfft")
    assert kind == "builtin_function_or_method"


@pytest.mark.parametrize(
    "rows, error",
    [
        ("0,1\n1,abc\n", "could not convert string to float: 'abc'"),
        ("0,1\n1\n", "a row does not hold the 2 columns of the header"),
        ("0\n1\n", "a row does not hold the 2 columns of the header"),
    ],
    ids=["non-numeric", "short-row", "short-rows"],
)
def test_cli_fit_on_a_malformed_csv_ends_as_one_line(rows, error, tmp_path, capsys):
    csv = tmp_path / "diagnostics.csv"
    csv.write_text("t,E_total\n" + rows)
    assert main(["fit", "--csv", str(csv), "--column", "E_total"]) == 1
    err = capsys.readouterr().err
    assert err == f"lagmhd: error: fit failed: {error}\n"


@pytest.mark.parametrize(
    "rows, column, error",
    [
        ("0,1\n1,abc\n", "E_total", "could not convert string to float: 'abc'"),
        ("0,1\n1,2\n", "X", "column 'X' not in ['E_total', 't']"),
    ],
    ids=["bad-cell", "unknown-column"],
)
def test_cli_fit_errors_carry_the_error_prefix(rows, column, error, tmp_path, capsys):
    # every command's error line starts with "lagmhd: error:", fit's too
    csv = tmp_path / "diagnostics.csv"
    csv.write_text("t,E_total\n" + rows)
    assert main(["fit", "--csv", str(csv), "--column", column]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"lagmhd: error: fit failed: {error}\n"
    assert captured.out == ""


def test_cli_compare(tmp_path, capsys):
    cfg_path = tmp_path / "cmp.cfg"
    cfg_path.write_text(CONFIG.replace("cadence = 0.25", "solver = both"))
    rc = main(["compare", "--config", str(cfg_path)])
    assert rc == 0
    assert "max|u(X) - Yt|" in capsys.readouterr().out


def test_cli_compare_whose_step_fails_exits_as_an_abort(tmp_path, capsys):
    # far outside the smallness regime the data pass their checks and the
    # flow map inverts, but the first steps' pressure iterations expand
    cfg_path = tmp_path / "cmp.cfg"
    cfg_path.write_text(
        "dimension = 3\nsizes = 8,8,8\ndt = 0.025\nt_end = 1\nsolver = both\n"
        "epsilon0 = 1e4\ny0_modes_a =\ny0_modes_c =\n"
        "y1_modes = 1,1,0,2,1,0.3; 0,1,1,0,0.7,1.1\n"
    )
    assert main(["compare", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("lagmhd: error: PressureDivergenceError: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == ""


def test_cli_compare_that_fails_before_its_first_step_exits_1(tmp_path, capsys):
    # the criterion-6 data at 16^3 miss det(I + grad Y0) = 1 by 4.9e-6
    cfg_path = tmp_path / "cmp.cfg"
    cfg_path.write_text(
        CONFIG.replace("cadence = 0.25", "solver = both").replace("1e-4", "36.4")
    )
    assert main(["compare", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lagmhd: error: InitialDataError: ")
    assert err.count("\n") == 1 and "Traceback" not in err


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
        ["admissible", "--tol", "nan"],
        ["admissible", "--tol", "0"],
        ["admissible", "--tol", "-1e-6"],
        ["admissible", "--amplitude", "inf"],
        ["oracle", "--norms", "bogus"],
    ],
    ids=[
        "points-5", "t-min-0", "t-min-above-t-max", "t-max-inf", "k-min-0", "seeds-0",
        "halfwidth-0", "tol-nan", "tol-0", "tol-negative", "amplitude-inf", "norms-bogus",
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
        ("compare", "t_end", "nan"),
        ("compare", "t_end", "inf"),
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
