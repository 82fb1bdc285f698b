"""metaseq benchmark: runs the real ``train``, ``eval`` and ``probe`` CLI
commands on inputs generated from a seed, checks their outputs, and
prints every metric by name with its unit. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics of BENCHMARK.json).

Run from the repository root:

    python3 bench/run.py --workload train-paper --seed 1 --seconds 25 --trace 0

A run generates its inputs, then repeats whole rounds, each a fresh
worker process that runs the workload's commands one after another,
while another round still fits in ``--seconds`` (at least two rounds).
With ``--trace 1`` the first round runs untraced and the rest traced, so
the run can report the tracing overhead.
"""

import os

# One BLAS thread per Python thread, so that a workload never runs more
# compute threads than the probe pool's --threads (set to the CPU count).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEADLINE_S = 170.0
MIN_ROUNDS = 2
WORKLOADS = ("train-paper", "train-desk", "eval-paper", "probe-layers")

END_TO_END = {"setup_s": "s", "wall_s": "s", "unit_ms": "ms", "peak_rss_mb": "MiB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: desk-size inputs, for bench/suite.py")
    return parser.parse_args(argv)


def _sha256(path: Path) -> str | None:
    if not path.is_file():
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_round(plan, work: Path, index: int, traced: bool, deadline: float) -> dict | None:
    """One worker process; None when it did not finish cleanly."""
    spec_path = work / f"round{index}.spec.json"
    result_path = work / f"round{index}.result.json"
    log_path = work / f"round{index}.log"
    spawned = time.monotonic()
    spec_path.write_text(json.dumps({
        "src": str(SRC), "commands": plan.commands, "trace": traced,
        "spawned": spawned, "result": str(result_path)}))
    with open(log_path, "wb") as log:
        proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), str(spec_path)],
                                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        timed_out = False
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            timed_out = True
            print(f"round {index}: worker killed at the deadline", file=sys.stderr)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if timed_out:
        return None
    wall = time.monotonic() - spawned
    result = json.loads(result_path.read_text()) if result_path.is_file() else None
    if proc.returncode != 0 or result is None or any(
            c["exit_code"] != 0 for c in result["commands"]):
        print(f"round {index}: worker exit {proc.returncode}; log tail:\n"
              + log_path.read_text(errors="replace")[-2000:], file=sys.stderr)
    if result is not None:
        result["wall"] = wall
        result["traced"] = traced
        result["hashes"] = {str(p): _sha256(p) for p in plan.outputs}
    return result


def end_to_end(kind: str, rounds: list[dict], plan) -> tuple[dict, dict]:
    """Gated metrics (median over rounds or units) and the workload's named ones."""
    setups = [sum(c["setup_end"] - c["start"] for c in r["commands"]) for r in rounds]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall"] for r in rounds),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024.0 for r in rounds),
    }
    named = {}
    if kind == "train":
        steps = [u * 1e3 for r in rounds for c in r["commands"] for u in c["units"]]
        metrics["unit_ms"] = statistics.median(steps)
        named["train.step_ms"] = (metrics["unit_ms"], "ms")
        if len(steps) >= 100:
            named["train.step_ms_p90"] = (statistics.quantiles(steps, n=10)[8], "ms")
        named["train.steps_sampled"] = (len(steps), "count")
    elif kind == "eval":
        sentences = [u * 1e3 for r in rounds for c in r["commands"] for u in c["units"]]
        metrics["unit_ms"] = statistics.median(sentences)
        rates = [c["tokens"] / (c["last_unit_end"] - c["setup_end"])
                 for r in rounds for c in r["commands"]]
        named["eval.tokens_per_s"] = (statistics.median(rates), "tokens/s")
        named["eval.sentence_ms"] = (metrics["unit_ms"], "ms")
    else:
        per_mode = {}
        for r in rounds:
            for argv, c in zip(plan.commands, r["commands"]):
                mode = argv[argv.index("--mode") + 1]
                per_mode.setdefault(mode, []).append((c["end"] - c["start"]) / plan.layer_files)
        for mode, values in per_mode.items():
            named[f"probe.{mode}_s"] = (statistics.median(values), "s")
        metrics["unit_ms"] = 1e3 * statistics.median(
            sum(vals[i] for vals in per_mode.values()) for i in range(len(rounds)))
    for key in ("setup_s", "wall_s", "peak_rss_mb"):
        named[key] = (metrics[key], END_TO_END[key])
    return metrics, named



def per_layer(rounds: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced rounds, name -> (value, unit).
    Needs ``src`` on ``sys.path``, as ``hooks`` imports the program."""
    from hooks import OPS, STAGES

    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for r in rounds:
        for key, value in r["trace"]["total"].items():
            total[key] = total.get(key, 0.0) + value
        for key, value in r["trace"]["calls"].items():
            calls[key] = calls.get(key, 0) + value
    units = sum(len(c["units"]) for r in rounds for c in r["commands"])

    def t(key):
        return total.get(key, 0.0)

    def per_unit_ms(key):
        return 1e3 * t(key) / units if units else 0.0

    def mean(key, scale=1.0):
        return scale * t(key) / calls[key] if calls.get(key) else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for op in OPS.values():
        m[f"tensor_core.{op}.fwd_ms"] = (per_unit_ms(f"op.{op}.fwd"), "ms")
        m[f"tensor_core.{op}.bwd_ms"] = (per_unit_ms(f"op.{op}.bwd"), "ms")
    m["tensor_core.backward_ms"] = (per_unit_ms("tensor_core.backward"), "ms")
    m["tensor_core.sgd_step_ms"] = (per_unit_ms("tensor_core.sgd_step"), "ms")
    m["tensor_core.input_grad_useful_ratio"] = (ratio(
        t("conv.input_grad_useful_rows"), t("conv.input_grad_rows")), "ratio")
    for stage in STAGES:
        m[f"tagger_model.{stage}.fwd_ms"] = (per_unit_ms(f"stage.{stage}.fwd"), "ms")
        m[f"tagger_model.{stage}.bwd_ms"] = (per_unit_ms(f"stage.{stage}.bwd"), "ms")
    m["tagger_model.predict_ms"] = (mean("tagger_model.predict", 1e3), "ms")
    m["tagger_model.save_checkpoint_ms"] = (mean("tagger_model.save_checkpoint", 1e3), "ms")
    m["tagger_model.load_checkpoint_ms"] = (mean("tagger_model.load_checkpoint", 1e3), "ms")
    m["embedding_io.load_static_text_s"] = (mean("embedding_io.load_static_text"), "s")
    m["embedding_io.glove_lines_per_s"] = (ratio(
        t("embedding_io.glove_lines"), t("embedding_io.load_static_text")), "lines/s")
    m["embedding_io.load_contextual_s"] = (mean("embedding_io.load_contextual"), "s")
    m["embedding_io.cemb_mb_per_s"] = (ratio(
        t("embedding_io.cemb_bytes") / 2 ** 20, t("embedding_io.load_contextual")), "MiB/s")
    m["embedding_io.channels_ms"] = (mean("embedding_io.channels", 1e3), "ms")
    m["embedding_io.all_rows_ms"] = (mean("embedding_io.all_rows", 1e3), "ms")
    score_calls = t("linguistic_features.score_calls")
    m["linguistic_features.score_calls"] = (score_calls / len(rounds), "count")
    m["linguistic_features.memo_hit_ratio"] = (ratio(
        t("linguistic_features.memo_hits"), score_calls), "ratio")
    m["linguistic_features.score_us"] = (
        1e6 * ratio(t("linguistic_features.score"), score_calls), "us")
    m["train_eval.parse_dataset_s"] = (mean("train_eval.parse_dataset"), "s")
    m["train_eval.compute_metrics_ms"] = (mean("train_eval.compute_metrics", 1e3), "ms")
    m["train_eval.breakdown_ms"] = (mean("train_eval.breakdown", 1e3), "ms")
    m["space_analysis.build_pairs_ms"] = (mean("space_analysis.build_pairs", 1e3), "ms")
    m["space_analysis.avg_pair_cosine_ms"] = (
        mean("space_analysis.avg_pair_cosine", 1e3), "ms")
    m["space_analysis.procrustes_align_s"] = (mean("space_analysis.procrustes_align"), "s")
    m["space_analysis.avg_l2_ms"] = (mean("space_analysis.avg_l2", 1e3), "ms")
    m["space_analysis.pca_2d_s"] = (mean("space_analysis.pca_2d"), "s")
    m["cli.probe_pool_efficiency"] = (
        ratio(t("cli.pool_busy"), t("cli.pool_capacity")), "ratio")
    m["cli.manifest_s"] = (mean("cli.manifest"), "s")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "metaseq" / "cli.py").is_file():
        print(f"error: {SRC / 'metaseq'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    start = time.monotonic()
    deadline = start + DEADLINE_S
    kind = workloads.KIND[args.workload]
    work = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = workloads.PREPARE[args.workload](args.workload, work, args.seed, args.scale)
        generated = time.monotonic()
        rounds: list[dict | None] = []
        while True:
            traced = bool(args.trace) and len(rounds) > 0
            result = run_round(plan, work, len(rounds), traced, deadline)
            rounds.append(result)
            if result is None:
                break
            longest = max(r["wall"] for r in rounds)
            done = len(rounds) >= MIN_ROUNDS and \
                time.monotonic() - generated + longest > args.seconds
            if done or time.monotonic() + longest > deadline:
                break
        finished = [r for r in rounds if r is not None]
        attempted = len(plan.commands) * len(rounds)
        failed = len(plan.commands) * (len(rounds) - len(finished)) + sum(
            c["exit_code"] != 0 for r in finished for c in r["commands"])

        problems = []
        for path in plan.outputs:
            digests = {r["hashes"][str(path)] for r in finished}
            if len(digests) != 1 or None in digests:
                problems.append(f"{path.name}: same-seed rounds gave different bytes "
                                f"or no file ({len(digests)} distinct)")
        try:
            problems += plan.check()
        except Exception as exc:  # a check that cannot run is a failed check
            problems.append(f"check raised {type(exc).__name__}: {exc}")
        for problem in problems:
            print(f"CHECK FAILED [{args.workload}]: {problem}", file=sys.stderr)

        clean = [r for r in finished if all(c["exit_code"] == 0 for c in r["commands"])]
        untraced = [r for r in clean if not r["traced"]]
        traced_rounds = [r for r in clean if r["traced"]]
        if not untraced or (args.trace and not traced_rounds):
            print("error: no complete round to measure", file=sys.stderr)
            return 1
        metrics, named = end_to_end(kind, untraced, plan)
        print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds "
              f"({len(traced_rounds)} traced), inputs generated in "
              f"{generated - start:.2f} s, checks {'passed' if not problems else 'FAILED'}")
        for name, (value, unit) in named.items():
            print(f"  {name:<32} {value:14.4f} {unit}")
        if args.trace:
            traced_metrics, _ = end_to_end(kind, traced_rounds, plan)
            for key in ("unit_ms", "wall_s"):
                over = traced_metrics[key] / metrics[key] - 1.0
                print(f"  trace overhead on {key:<14} {100 * over:14.2f} %")
            layers = per_layer(traced_rounds)
            for name, (value, unit) in layers.items():
                print(f"  {name:<40} {value:14.4f} {unit}")
            out = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
        else:
            out = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        print(json.dumps({"correct": not problems, "attempted": attempted,
                          "failed": failed, "metrics": out}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's files
            OUT.rmdir()


if __name__ == "__main__":
    sys.exit(main())
