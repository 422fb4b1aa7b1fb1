import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, cwd, env=None):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_model_curves_script(tmp_path):
    result = run_script(
        "model_curves.py",
        ["--n", "2", "--gamma-steps", "7", "--n-max", "3", "--panels", "1000"],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    igamma = (tmp_path / "bu_igamma_curve.csv").read_text().splitlines()
    assert igamma[0] == "gamma,igamma"
    assert len(igamma) == 8
    mi = (tmp_path / "bu_mi_curve.csv").read_text().splitlines()
    assert mi[0] == "n,mutual_information"
    assert len(mi) == 4


def test_model_curves_script_without_pythonpath(tmp_path):
    """The README's invocation works from a bare checkout: no install, no PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "LDPKIT_OUT_DIR")}
    result = run_script("model_curves.py", ["--n", "2", "--gamma-steps", "3", "--n-max", "2"],
                        tmp_path, env)
    assert result.returncode == 0, result.stderr
    lines = (tmp_path / "bu_igamma_curve.csv").read_text().splitlines()
    assert lines[0] == "gamma,igamma"


def test_model_curves_script_rejects_bad_flags_in_one_line(tmp_path):
    for flags in (["--n", "0"], ["--gamma-hi=-1"], ["--panels", "3"], ["--gamma-steps", "-1"]):
        result = run_script("model_curves.py", flags, tmp_path)
        assert result.returncode == 1, result.stderr
        assert result.stdout == ""
        assert result.stderr.count("\n") == 1 and result.stderr.startswith("error: "), result.stderr
