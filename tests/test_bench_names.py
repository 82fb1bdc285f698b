"""The benchmark times the program from outside by replacing public names
with timed wrappers (``bench/hooks.py``). Installing every hook here makes
the removal or renaming of one of those names fail the test suite."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_hooks_install_on_the_program():
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import hooks; "
            "hooks.install(hooks.Recorder(True))")
    result = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "bench")],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
