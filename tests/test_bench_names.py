"""The benchmark times the program from outside by replacing public names
with timed wrappers (``bench/hooks.py``). Installing every hook here makes
the removal or renaming of one of those names fail the test suite."""

import json
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


def _traced_smoke_run(workload: str) -> None:
    """One traced smoke round of ``workload`` exits 0, correct and with no
    failed operation."""
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--scale", "smoke",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), last


def test_traced_train_benchmark_runs_clean():
    """The tracer reads tape nodes as they are appended (the ``conv_bank``
    input block's shape, the ``stack_mats`` inputs), so a change to those
    nodes can break the traced benchmark while every other test passes."""
    _traced_smoke_run("train-paper")


def test_traced_probe_benchmark_runs_clean():
    """The traced probe run wraps ``ContextualLayerFile.all_rows`` and the
    probe functions by name and calls them through the CLI's probe pool."""
    _traced_smoke_run("probe-layers")


def test_traced_eval_benchmark_runs_clean():
    """The traced eval run wraps ``cli.load_static_text`` and reads
    ``len(table)``, so a rename on the static-vector path breaks it."""
    _traced_smoke_run("eval-paper")
