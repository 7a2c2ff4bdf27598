"""The measuring scripts under tools/ run to completion."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_cli_peaks_prints_one_line_per_command(tmp_path):
    config = tmp_path / "tiny.cfg"
    config.write_text("n_patients = 8\npatches_min = 30\npatches_max = 50\nfeature_dim = 6\n"
                      "model_dim = 8\nn_heads = 2\nwindow_size = 4\nfolds = 2\nmax_epochs = 1\n")
    done = subprocess.run([sys.executable, str(TOOLS / "cli_peaks.py"), str(config),
                           "--workdir", str(tmp_path / "work")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines[1:-1]] == [
        "synth", "rearrange", "train", "eval", "attn"]
    assert lines[-1].startswith("largest peak: ")
