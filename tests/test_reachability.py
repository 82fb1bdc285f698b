"""Every function in ``src/metaseq`` is one that a command runs, or it
carries its reason for staying in ``ALLOWED``.

A fresh interpreter profiles the benchmark's smoke plans for
``train-paper``, ``eval-paper`` and ``probe-layers`` (``bench/workloads.py``)
as they run through ``cli.main``, on the calling thread and on every thread
the commands start. The qualified names entered under ``src/metaseq`` are
compared with every function ``ast`` finds there, nested ones included.
A nested function is covered by the entry of the function that defines it.

To keep a function that no command enters, add ``"module.qualname": reason``
to ``ALLOWED``. An entry must be dropped once a command enters the function
or the function is gone. The tensor ops that ``bench/hooks.py`` wraps by
name are allowed from its own ``OPS`` table while no command reaches them.

Run as a script, this file prints the trace as JSON.
"""

import ast
import contextlib
import io
import json
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "metaseq"
WORKLOADS = ("train-paper", "eval-paper", "probe-layers")

_FOLDS = "cross-validation (ROADMAP item 6, `train --folds`) will call it"
ALLOWED = {
    "train_eval.kfold": _FOLDS,
    "train_eval.FoldPlan.split": _FOLDS,
    "train_eval.pool_reports": _FOLDS,
    "train_eval.dataset_stats": _FOLDS + "; the acceptance tests check the "
                                "paper's corpus table with it",
    "space_analysis.svd": "the fallback for PCA with fewer rows than dimensions "
                          "and for a singular Procrustes problem",
    "tensor_core._forget_pool": "runs only in a forked child (os.register_at_fork)",
    "embedding_io._check_widths": "runs only on a vector file with a bad line; the "
                                  "loader's error tests run it",
    "embedding_io.StaticEmbeddingTable.__len__": "the benchmark's glove_lines hook reads it",
    "embedding_io._start_pool_load": "runs only in a static-vector pool worker, as its "
                                     "initializer",
    "embedding_io._parse_pool_range": "runs only in a static-vector pool worker",
    "tensor_core.Tensor.__repr__": "a debugging aid",
}
HOOK_REASON = ("bench/hooks.py wraps it by name; it goes when ROADMAP item 1 "
               "takes it out of hooks.OPS")


def trace() -> dict:
    """Qualified names entered under ``src/metaseq`` while the smoke plans'
    commands run, and the op names in ``bench/hooks.py``'s ``OPS``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import hooks
    import workloads
    from metaseq import cli

    prefix = str(SRC) + "/"
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            code = frame.f_code
            entered.add(f"{Path(code.co_filename).stem}.{code.co_qualname}")

    with tempfile.TemporaryDirectory() as tmp:
        plans = []
        for name in WORKLOADS:
            work = Path(tmp) / name
            work.mkdir()
            plans.append(workloads.PREPARE[name](name, work, 1, "smoke"))
        entered.clear()   # the plans' inputs are made by program code too
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [(argv[0], cli.main(argv)) for plan in plans for argv in plan.commands]
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    if any(code != 0 for _, code in codes):
        raise RuntimeError(f"a smoke command failed: {codes}")
    return {"entered": sorted(entered), "hook_ops": sorted(hooks.OPS)}


def defined_functions() -> set[str]:
    """``module.qualname`` of every function and method in ``src/metaseq``."""
    names = set()

    def walk(node, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{module}.{prefix}{child.name}")
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            else:
                walk(child, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return names


@pytest.fixture(scope="module")
def reach():
    result = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                            timeout=300, cwd=ROOT)
    assert result.returncode == 0, result.stderr[-3000:]
    traced = json.loads(result.stdout)
    allowed = dict(ALLOWED)
    allowed.update({f"tensor_core.{op}": HOOK_REASON for op in traced["hook_ops"]
                    if f"tensor_core.{op}" not in traced["entered"]})
    return set(traced["entered"]), defined_functions(), allowed


def test_every_function_is_entered_by_a_command_or_allowlisted(reach):
    entered, defined, allowed = reach
    unreached = sorted(name for name in defined - entered
                       if name.split(".<locals>.", 1)[0] not in allowed)
    assert not unreached, (
        "no command enters these functions: delete them, move them to the tests "
        f"that use them, or add them to ALLOWED with a reason: {unreached}")


def test_no_allowlisted_function_is_entered_by_a_command(reach):
    entered, _, allowed = reach
    reached = sorted(set(allowed) & entered)
    assert not reached, f"a command now enters these; drop them from ALLOWED: {reached}"


def test_every_allowlist_entry_names_a_function(reach):
    _, defined, allowed = reach
    missing = sorted(set(allowed) - defined)
    assert not missing, f"ALLOWED names functions that src/metaseq no longer has: {missing}"


if __name__ == "__main__":
    print(json.dumps(trace()))
