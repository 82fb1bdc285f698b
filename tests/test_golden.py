"""Golden run: the seed-7 ``train-paper`` plan of ``bench/workloads.py``
gives the outputs recorded in ``tests/golden/train_paper.json``.

A fresh interpreter with one BLAS thread generates the plan's inputs,
runs its ``train`` command through ``cli.main`` and scores the first
three dev sentences through ``scorer().predict_probs``. When numpy's
version, its OpenBLAS build and the OpenBLAS core kernels it picks
(``OPENBLAS_VERBOSE=2``) are the recorded ones, the checkpoint, curve and
probability digests must be equal. Elsewhere the last bits may differ, so
the per-parameter sums are compared within 1e-9 of each parameter's sum
of magnitudes instead, each parameter's first 8 elements within
``PARAM_ULP_BUDGET`` and each recorded probability within
``PROB_ULP_BUDGET`` units in the last place of its own value; the test
says so. The build fields come from ``cli.numeric_build``, the helper
that writes them into every manifest.

Run as a script, this file prints a fresh record in the golden's layout:

    python3 tests/test_golden.py > tests/golden/train_paper.json

With ``--compare`` it prints instead how far a fresh run is from the
recorded one, in the terms of the off-build comparison (``deviations``):
each parameter's sum and sum of magnitudes off by a share of its recorded
sum of magnitudes, its first 8 elements' worst ulps, each probed
sentence's worst probability ulps, and which digests are equal.

Re-recording is a change of test data: say in CHANGES.md which op changed
the bits and why.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "train_paper.json"
SUM_TOLERANCE = 1e-9
# Off the recorded OpenBLAS core kernel (OPENBLAS_CORETYPE=Haswell,
# Sandybridge or Nehalem instead of SkylakeX) the recorded probabilities
# moved by at most 15,473 ulps, the largest on probabilities near 1e-29.
# Moving any probability in [0, 1] by 1e-9 moves it by over 4.5e6 ulps.
PROB_ULP_BUDGET = 1 << 16
# Under the same three core kernels each parameter's first 8 elements
# moved by at most 17,344 ulps (Sandybridge, lstm_f_wx; conv_w2 at most
# 5,868). Moving any recorded element by 1e-9 moves it by over 4.5e6 ulps.
PARAM_ULP_BUDGET = 1 << 16

RUN = """
import hashlib, io, json, sys, contextlib
from pathlib import Path
import numpy as np
import workloads
from metaseq import cli, tagger_model, train_eval

def sha256(data):
    return hashlib.sha256(data).hexdigest()

work = Path(sys.argv[1])
plan = workloads.PREPARE["train-paper"]("train-paper", work, 7, "full")
(argv,) = plan.commands
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(argv)
if code != 0:
    raise SystemExit(f"train exited {code}")
args = cli.build_parser().parse_args(argv)
out = Path(args.out)
checkpoint = tagger_model.load_checkpoint(out / "checkpoint.mseq")
dev = train_eval.parse_dataset(args.dev)
provider, _ = cli._make_provider(checkpoint.config, args,
                                 train_eval.parse_dataset(args.data), dev)
scorer = tagger_model.MetaphorTagger.from_checkpoint(checkpoint).scorer()
probs = [scorer.predict_probs(provider.channels(sentence, index))
         for index, sentence in enumerate(dev[:3])]
print(json.dumps({
    "plan": {"workload": "train-paper", "seed": 7, "scale": "full"},
    "sha256": {"checkpoint": sha256((out / "checkpoint.mseq").read_bytes()),
               "curve": sha256((out / "training_curve.csv").read_bytes()),
               "dev_probs_first_3": sha256(b"".join(p.tobytes() for p in probs))},
    "dev_probs_first_3": [[repr(float(v)) for v in p.ravel()] for p in probs],
    "param_sums": {name: float(p.sum()) for name, p in sorted(checkpoint.params.items())},
    "param_abs_sums": {name: float(np.abs(p).sum())
                       for name, p in sorted(checkpoint.params.items())},
    "param_first_8": {name: [repr(float(v)) for v in p.ravel()[:8]]
                      for name, p in sorted(checkpoint.params.items())},
    "environment": cli.numeric_build(),
}))
"""


def run_plan(work: Path) -> dict:
    """The record of one fresh run of the plan in ``work``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]),
               OPENBLAS_VERBOSE="2")
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                             "1"))
    result = subprocess.run([sys.executable, "-c", RUN, str(work)], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-3000:]
    record = json.loads(result.stdout.strip().splitlines()[-1])
    record["environment"]["openblas_cores"] = sorted(
        line.split(":", 1)[1].strip() for line in result.stderr.splitlines()
        if line.startswith("Core:"))
    return record


def test_train_paper_seed_7_matches_the_golden_run(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = run_plan(tmp_path)
    assert got["plan"] == golden["plan"]
    assert sorted(got["param_sums"]) == sorted(golden["param_sums"])
    if got["environment"] == golden["environment"]:
        assert got["sha256"] == golden["sha256"]
        assert got["param_sums"] == golden["param_sums"]
        assert got["param_first_8"] == golden["param_first_8"]
        assert got["dev_probs_first_3"] == golden["dev_probs_first_3"]
        return
    print(f"environment {got['environment']} is not the recorded "
          f"{golden['environment']}: compared the parameter sums within "
          f"{SUM_TOLERANCE} of each parameter's sum of magnitudes, the parameters' "
          f"first elements within {PARAM_ULP_BUDGET} ulps and the probabilities "
          f"within {PROB_ULP_BUDGET} ulps, not the digests")
    off = deviations(got, golden)
    for name in golden["param_sums"]:
        assert off["param_sum"][name] <= SUM_TOLERANCE, name
        assert off["param_abs_sum"][name] <= SUM_TOLERANCE, name
        assert off["param_first_8_ulps"][name] <= PARAM_ULP_BUDGET, name
    for index, worst in enumerate(off["dev_probs_ulps"]):
        assert worst <= PROB_ULP_BUDGET, (index, worst)


def deviations(got: dict, golden: dict) -> dict:
    """How far the record ``got`` is from ``golden``: each parameter's sum
    and sum of magnitudes off by a share of its recorded sum of magnitudes,
    its first 8 elements' worst ulps, each probed sentence's worst
    probability ulps, and whether each digest is equal."""
    scale = golden["param_abs_sums"]
    return {
        "param_sum": {name: abs(got["param_sums"][name] - want) / scale[name]
                      for name, want in golden["param_sums"].items()},
        "param_abs_sum": {name: abs(got["param_abs_sums"][name] - want) / want
                          for name, want in scale.items()},
        "param_first_8_ulps": {name: _ulps(got["param_first_8"][name], want)
                               for name, want in golden["param_first_8"].items()},
        "dev_probs_ulps": [_ulps(mine, recorded) for mine, recorded in
                           zip(got["dev_probs_first_3"], golden["dev_probs_first_3"],
                               strict=True)],
        "sha256_equal": {key: got["sha256"][key] == want
                         for key, want in golden["sha256"].items()},
    }


def _ulps(mine: list[str], recorded: list[str]) -> float:
    """The largest distance of ``mine`` from the same-length ``recorded``,
    each a list of ``repr`` strings, in ulps of the recorded value."""
    mine, recorded = (np.array([float(v) for v in p]) for p in (mine, recorded))
    assert mine.shape == recorded.shape
    return float((np.abs(mine - recorded) / np.spacing(np.abs(recorded))).max())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = run_plan(Path(tmp))
    if sys.argv[1:] == ["--compare"]:
        record = deviations(record, json.loads(GOLDEN.read_text()))
    print(json.dumps(record, indent=1, sort_keys=True))
