"""The four workloads: what each generates from its seed, which CLI
commands one round runs, and how its outputs are checked.

Every check compares against a computation made here, apart from the
program (``reference.py``), or against a property the method must have;
none compares against stored output.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from metaseq import tagger_model
from metaseq import tensor_core as tc

import inputs
import reference

PAPER = {
    "unified_dim": 1024, "static_dim": 300, "window_sizes": (2, 3, 4, 5),
    "kernels_per_window": 100, "hidden_size": 256, "channel_order": ("G", "E", "B"),
    "input_dropout": 0.5, "hidden_dropout": 0.1, "use_pos": True,
    "use_abstractness": True, "pos_tags": inputs.CONFIG_POS_TAGS,
    # The loss is summed over a sentence's tokens; at the default 0.2 the
    # desk model collapses to all-literal on 40-token sentences.
    "learning_rate": 0.05,
}
DESK = dict(PAPER, unified_dim=16, static_dim=8, kernels_per_window=4, hidden_size=8)

# Sizes per scale. "full" is what the benchmark measures; "smoke" is the
# desk-size run of suite.py that only keeps the checks from rotting.
SIZES = {
    "train-paper": {
        "full": {"model": PAPER, "sentences": 24, "lengths": (20, 20), "dev": 6,
                 "vocab": 3000, "glove": 20000},
        "smoke": {"model": DESK, "sentences": 6, "lengths": (4, 9), "dev": 2,
                  "vocab": 60, "glove": 100},
    },
    "train-desk": {
        "full": {"model": DESK, "sentences": 200, "lengths": (5, 40), "dev": 40,
                 "vocab": 1000, "glove": 2000, "epochs": 3},
        "smoke": {"model": DESK, "sentences": 30, "lengths": (5, 12), "dev": 10,
                  "vocab": 100, "glove": 200, "epochs": 3},
    },
    "eval-paper": {
        "full": {"model": PAPER, "sentences": 120, "lengths": (20, 20),
                 "vocab": 3000, "glove": 20000},
        "smoke": {"model": DESK, "sentences": 12, "lengths": (4, 12),
                  "vocab": 60, "glove": 100},
    },
    "probe-layers": {
        "full": {"dim": 1024, "sentences": 150, "length": 20, "pairs": 60},
        "smoke": {"dim": 24, "sentences": 12, "length": 10, "pairs": 8},
    },
}

DESK_F1_FLOOR = 0.9
FD_REL_TOL = 1e-6

# Probe layers 0..5: layer 0 is the reference; 1 and 2 are exact
# rotations of it; 3..5 carry growing noise and a shrinking pair cosine.
PROBE_COSINE = (0.8, 0.8, 0.8, 0.6, 0.4, 0.2)
PROBE_NOISE = (0.0, 0.0, 0.0, 0.05, 0.1, 0.2)


@dataclass
class Plan:
    commands: list[list[str]]
    outputs: list[Path]                  # hashed after every round
    check: Callable[[], list[str]]       # problems found in the final outputs
    layer_files: int = 0


def _lexical_inputs(rng, size: dict, dim: int, work: Path):
    lex = inputs.make_lexical(rng, size["vocab"], size["glove"], dim)
    glove, lexicon = work / "glove.txt", work / "abstractness.tsv"
    inputs.write_glove(glove, lex.glove_words, lex.glove_q)
    inputs.write_lexicon(lexicon, lex.lexicon)
    return lex, glove, lexicon


def _contextual(rng, sentences, dim: int, scale: float = 0.5) -> list[np.ndarray]:
    return [(rng.normal(0.0, scale, (len(s.tokens), dim))).astype(np.float32)
            for s in sentences]


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# train-paper and train-desk
# ---------------------------------------------------------------------------

def _separable(rng, sentences, dim: int, margin: float = 1.0,
               noise: float = 0.5) -> list[np.ndarray]:
    """Rows whose projection on a fixed unit direction is +margin for
    metaphoric tokens and -margin otherwise; noise is orthogonal to it."""
    mu = rng.normal(size=dim)
    mu /= np.linalg.norm(mu)
    mats = []
    for s in sentences:
        signs = np.array([1.0 if t.label else -1.0 for t in s.tokens])
        off = rng.normal(0.0, noise, (len(s.tokens), dim))
        off -= np.outer(off @ mu, mu)
        mats.append((signs[:, None] * margin * mu + off).astype(np.float32))
    return mats


def prepare_train(name: str, work: Path, seed: int, scale: str) -> Plan:
    size = SIZES[name][scale]
    model = size["model"]
    rng = np.random.default_rng([seed, 1])
    lex, glove, lexicon = _lexical_inputs(rng, size, model["static_dim"], work)
    sentences = inputs.make_corpus(rng, size["sentences"], size["lengths"], lex.vocab)
    if name == "train-desk":
        e_mats = _separable(rng, sentences, model["unified_dim"])
        b_mats = _separable(rng, sentences, model["unified_dim"])
    else:
        e_mats = _contextual(rng, sentences, model["unified_dim"])
        b_mats = _contextual(rng, sentences, model["unified_dim"])
    data, dev = work / "train.tsv", work / "dev.tsv"
    inputs.write_tsv(data, sentences)
    # The dev split is the first sentences of the training file: the CLI
    # reads dev contextual rows from the training layer files by position.
    inputs.write_tsv(dev, sentences[:size["dev"]])
    inputs.write_cemb(work / "layer_E.cemb", 1, e_mats)
    inputs.write_cemb(work / "layer_B.cemb", 2, b_mats)
    config = work / "model.cfg"
    inputs.write_config(config, dict(model, epochs=size.get("epochs", 1), seed=seed))
    out = work / "run"
    argv = ["train", "--data", str(data), "--dev", str(dev), "--glove", str(glove),
            "--layers", str(work / "layer_E.cemb"), str(work / "layer_B.cemb"),
            "--abst-lexicon", str(lexicon), "--config", str(config), "--out", str(out)]
    ckpt, curve = out / "checkpoint.mseq", out / "training_curve.csv"

    if name == "train-desk":
        def check() -> list[str]:
            problems = []
            rows = _read_csv(curve)
            if len(rows) != size["epochs"]:
                problems.append(f"training curve has {len(rows)} rows, want {size['epochs']}")
            best = float(json.loads((out / "manifest.json").read_text())["best_dev_f1"])
            if best < DESK_F1_FLOOR:
                problems.append(f"best dev F1 {best:.4f} below floor {DESK_F1_FLOOR} "
                                "on the planted separable corpus")
            return problems
    else:
        def check() -> list[str]:
            problems = _checkpoint_roundtrip(ckpt, work / "resaved.mseq")
            rows = _read_csv(curve)
            if len(rows) != 1 or not np.isfinite(float(rows[0]["train_loss"])):
                problems.append(f"unexpected training curve {rows}")
            static = lex.static()
            abst = reference.abstractness_scores(
                [t.text for t in sentences[0].tokens], static, lex.lexicon)
            g_rows = reference.static_rows(sentences[0], static, model["static_dim"],
                                           model["pos_tags"], abst)
            channels = {"G": g_rows, "E": e_mats[0], "B": b_mats[0]}
            labels = [t.label for t in sentences[0].tokens]
            problems += _directional_fd(ckpt, channels, labels, seed)
            return problems

    return Plan([argv], [ckpt, curve], check)


def _checkpoint_roundtrip(path: Path, resaved: Path) -> list[str]:
    tagger_model.save_checkpoint(tagger_model.load_checkpoint(path), resaved)
    if resaved.read_bytes() != path.read_bytes():
        return ["checkpoint does not re-save to identical bytes after reload"]
    return []


def _directional_fd(ckpt: Path, channels: dict, labels: list[int], seed: int) -> list[str]:
    """Compare the tape gradient along one random unit direction with a
    central difference of the loss, dropout off, on one sentence.

    It runs at the seeded initial parameters of the checkpoint's config,
    where training starts: after an epoch the model can be saturated,
    with probabilities below the loss's clamp, so that both the gradient
    and the difference are zero and the check would test nothing.
    """
    model = tagger_model.MetaphorTagger(tagger_model.load_checkpoint(ckpt).config)
    params = model.parameters()

    def loss() -> tc.Tensor:
        stack = model.build_stack(channels)
        return model.sentence_loss(stack, labels, tc.RngStream(0), training=False)

    with tc.Tape() as tape:
        value = loss()
    tc.backward(value, tape, params.values())
    rng = np.random.default_rng([seed, 2])
    direction = {k: rng.normal(size=p.shape) for k, p in params.items()}
    norm = np.sqrt(sum(float((v * v).sum()) for v in direction.values()))
    analytic = sum(float((params[k].grad * v).sum()) for k, v in direction.items()) / norm
    h = 1e-5

    def shifted(step: float) -> float:
        for k, v in direction.items():
            params[k].data += (step / norm) * v
        out = float(loss().data)
        for k, v in direction.items():
            params[k].data -= (step / norm) * v
        return out

    numeric = (shifted(h) - shifted(-h)) / (2.0 * h)
    # The difference cannot resolve less than its own round-off, which
    # matters when the random direction is nearly orthogonal to the gradient.
    roundoff = 10 * np.finfo(float).eps * max(abs(float(value.data)), 1.0) / h
    if abs(analytic - numeric) > FD_REL_TOL * abs(analytic) + roundoff:
        return [f"directional derivative {analytic:.9e} vs central difference "
                f"{numeric:.9e} (round-off allowance {roundoff:.1e})"]
    return []


# ---------------------------------------------------------------------------
# eval-paper
# ---------------------------------------------------------------------------

def _make_params(rng, model: dict) -> dict[str, np.ndarray]:
    """Glorot-uniform weights in the program's parameter layout."""
    c = len(model["channel_order"])
    d, hidden = model["unified_dim"], model["hidden_size"]
    k = model["kernels_per_window"]
    static_in = model["static_dim"] + len(model["pos_tags"]) + 1 + 1
    feat = k * len(model["window_sizes"])

    def glorot(shape, fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, shape)

    params = {"proj_w": glorot((d, static_in), static_in, d),
              "proj_b": rng.uniform(-0.1, 0.1, d)}
    for w in model["window_sizes"]:
        params[f"conv_w{w}"] = glorot((k, c, w, d), c * w * d, k)
    for direction in ("f", "b"):
        params[f"lstm_{direction}_wx"] = glorot((feat, 4 * hidden), feat, 4 * hidden)
        params[f"lstm_{direction}_wh"] = glorot((hidden, 4 * hidden), hidden, 4 * hidden)
        bias = np.zeros(4 * hidden)
        bias[hidden:2 * hidden] = 1.0
        params[f"lstm_{direction}_b"] = bias
    params["cls_w"] = glorot((2 * hidden, 2), 2 * hidden, 2)
    params["cls_b"] = np.zeros(2)
    return params


def prepare_eval(name: str, work: Path, seed: int, scale: str) -> Plan:
    size = SIZES[name][scale]
    model = size["model"]
    rng = np.random.default_rng([seed, 3])
    lex, glove, lexicon = _lexical_inputs(rng, size, model["static_dim"], work)
    sentences = inputs.make_corpus(rng, size["sentences"], size["lengths"], lex.vocab)
    e_mats = _contextual(rng, sentences, model["unified_dim"])
    b_mats = _contextual(rng, sentences, model["unified_dim"])
    data = work / "test.tsv"
    inputs.write_tsv(data, sentences)
    inputs.write_cemb(work / "layer_E.cemb", 1, e_mats)
    inputs.write_cemb(work / "layer_B.cemb", 2, b_mats)

    static = lex.static()
    abst = reference.abstractness_scores(
        [t.text for s in sentences for t in s.tokens], static, lex.lexicon)
    g_rows = [reference.static_rows(s, static, model["static_dim"], model["pos_tags"], abst)
              for s in sentences]
    params = _make_params(rng, model)
    hidden = [reference.features(params, model["window_sizes"], g, [e, b])
              for g, e, b in zip(g_rows, e_mats, b_mats)]
    # Shift the metaphor logit so that about 30% of tokens are predicted
    # metaphoric; the threshold sits midway between two neighbouring
    # logit gaps, away from every token's decision boundary.
    logits = np.concatenate(hidden) @ params["cls_w"]
    gaps = np.sort(logits[:, 1] - logits[:, 0])
    cut = int(0.7 * len(gaps))
    params["cls_b"] = np.array([0.0, -0.5 * (gaps[cut - 1] + gaps[cut])])

    config = tagger_model.ModelConfig.from_dict(dict(model, epochs=1, seed=seed))
    ckpt = work / "checkpoint.mseq"
    tagger_model.save_checkpoint(tagger_model.Checkpoint(config, params, 1, 0.0), ckpt)
    out = work / "eval"
    argv = ["eval", "--checkpoint", str(ckpt), "--data", str(data), "--glove", str(glove),
            "--layers", str(work / "layer_E.cemb"), str(work / "layer_B.cemb"),
            "--abst-lexicon", str(lexicon), "--breakdown", "pos", "--out", str(out)]
    metrics = out / "metrics.csv"

    def check() -> list[str]:
        predictions = [np.argmax(reference.classify(h, params["cls_w"], params["cls_b"]), axis=1)
                       for h in hidden]
        want = reference.pos_reports(sentences, predictions)
        got = {(r["split"], r["class"]): r for r in _read_csv(metrics)}
        problems = []
        if set(got) != set(want):
            problems.append(f"metrics.csv rows {sorted(got)} != reference {sorted(want)}")
        for key in sorted(set(got) & set(want)):
            for col, value in want[key].items():
                if abs(float(got[key][col]) - value) > 1e-6:
                    problems.append(f"metrics.csv {key} {col}={got[key][col]}, "
                                    f"reference {value}")
        return problems

    return Plan([argv], [metrics], check)


# ---------------------------------------------------------------------------
# probe-layers
# ---------------------------------------------------------------------------

def _probe_corpus(rng, n_sentences: int, length: int, n_pairs: int):
    """Every dual-labelled word form occurs exactly twice as a target, once
    metaphoric and once literal; every other target form occurs once."""
    sentences = inputs.make_corpus(rng, n_sentences, (length, length),
                                   [f"fn{j}" for j in range(50)])
    slots = [(i, t) for i, s in enumerate(sentences)
             for t, tok in enumerate(s.tokens) if tok.target]
    chosen = rng.choice(len(slots), size=2 * n_pairs, replace=False)
    pair_of = {}
    for p in range(n_pairs):
        pair_of[slots[chosen[2 * p]]] = (p, 1)
        pair_of[slots[chosen[2 * p + 1]]] = (p, 0)
    for k, (i, t) in enumerate(slots):
        tok = sentences[i].tokens[t]
        if (i, t) in pair_of:
            p, label = pair_of[(i, t)]
            tok.text, tok.label = f"pair{p}", label
        else:
            tok.text = f"u{k}"
    return sentences, pair_of


def _orthogonal(rng, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def prepare_probe(name: str, work: Path, seed: int, scale: str) -> Plan:
    threads = len(os.sched_getaffinity(0))
    size = SIZES[name][scale]
    dim = size["dim"]
    rng = np.random.default_rng([seed, 4])
    sentences, pair_of = _probe_corpus(rng, size["sentences"], size["length"], size["pairs"])
    lengths = [len(s.tokens) for s in sentences]
    offsets = np.cumsum([0] + lengths)
    n_rows = int(offsets[-1])

    # Reference rows: isotropic noise plus two strong planted axes, so the
    # top two principal components carry a clear share of the variance.
    axes = _orthogonal(rng, dim)[:2]
    base = rng.normal(0.0, 0.3, (n_rows, dim))
    base += np.outer(rng.normal(0.0, 6.0, n_rows), axes[0])
    base += np.outer(rng.normal(0.0, 4.0, n_rows), axes[1])
    pair_rows = {}
    radius = float(np.sqrt((base ** 2).sum(axis=1).mean()))
    for (i, t), (p, label) in pair_of.items():
        pair_rows.setdefault(p, {})[label] = int(offsets[i] + t)
    pair_dirs = {p: np.linalg.qr(rng.normal(size=(dim, 2)))[0].T for p in pair_rows}
    noise_rows = np.ones(n_rows, dtype=bool)
    for rows in pair_rows.values():
        noise_rows[list(rows.values())] = False

    layers, paths = [], []
    for k, (cos_k, sigma) in enumerate(zip(PROBE_COSINE, PROBE_NOISE)):
        rows = base.copy()
        rows[noise_rows] += rng.normal(0.0, sigma, (int(noise_rows.sum()), dim)) if sigma else 0.0
        sin_k = np.sqrt(1.0 - cos_k ** 2)
        for p, idx in pair_rows.items():
            a, b = pair_dirs[p]
            rows[idx[1]] = radius * a
            rows[idx[0]] = radius * (cos_k * a + sin_k * b)
        if k:
            rows = rows @ _orthogonal(rng, dim).T
        layer = rows.astype(np.float32)
        layers.append(layer)
        path = work / f"layer{k}.cemb"
        inputs.write_cemb(path, k, [layer[offsets[i]:offsets[i + 1]]
                                    for i in range(len(sentences))])
        paths.append(str(path))

    data = work / "probe.tsv"
    inputs.write_tsv(data, sentences)
    scores = {k: float(np.rint(rng.uniform(0.5, 0.8) * 1e4) / 1e4)
              for k in range(1, len(PROBE_COSINE))}
    scores_path = work / "f1_by_layer.csv"
    scores_path.write_text("layer,score\n" + "".join(f"{k},{v:.4f}\n" for k, v in scores.items()))

    out = work / "probe"
    common = ["--data", str(data), "--layer-files", *paths,
              "--threads", str(threads), "--seed", str(seed)]
    commands = [
        ["probe", *common, "--mode", "cosine", "--out", str(out / "cosine")],
        ["probe", *common, "--mode", "l2", "--l2-variant", "rotated",
         "--scores", str(scores_path), "--out", str(out / "l2")],
        ["probe", *common, "--mode", "pca", "--out", str(out / "pca")],
    ]
    pca_files = [out / "pca" / f"pca_layer{k}.csv" for k in range(len(layers))]
    outputs = [out / "cosine" / "probe_cosine.csv", out / "l2" / "probe_l2.csv", *pca_files]
    open_rows = np.array([offsets[i] + t for i, s in enumerate(sentences)
                          for t, tok in enumerate(s.tokens)
                          if tok.target and tok.pos in inputs.OPEN_CLASS])

    def check() -> list[str]:
        problems = []
        for row in _read_csv(outputs[0]):
            k = int(row["layer"])
            if int(row["n_pairs"]) != len(pair_rows):
                problems.append(f"cosine layer {k}: {row['n_pairs']} pairs, "
                                f"planted {len(pair_rows)}")
            if abs(float(row["avg_cosine"]) - PROBE_COSINE[k]) > 2e-6:
                problems.append(f"cosine layer {k}: {row['avg_cosine']}, "
                                f"planted {PROBE_COSINE[k]}")
        l2 = {int(r["layer"]): r for r in _read_csv(outputs[1])}
        if sorted(l2) != list(range(1, len(layers))):
            problems.append(f"l2 rows for layers {sorted(l2)}")
            return problems
        rotated = {k: float(r["avg_l2"]) for k, r in l2.items()}
        for k, value in rotated.items():
            raw = float(np.mean(np.linalg.norm(
                layers[k].astype(np.float64) - layers[0].astype(np.float64), axis=1)))
            if value > raw:
                problems.append(f"l2 layer {k}: rotated {value} above raw {raw:.6f}")
            if PROBE_NOISE[k] == 0.0 and value > 1e-4 * radius:
                problems.append(f"l2 layer {k} is an exact rotation but avg_l2={value}")
        exact = [rotated[k] for k in rotated if PROBE_NOISE[k] == 0.0]
        noisy = [rotated[k] for k in sorted(rotated) if PROBE_NOISE[k] > 0.0]
        ladder = ([max(exact)] if exact else []) + noisy
        if any(a >= b for a, b in zip(ladder, ladder[1:])):
            problems.append(f"rotated avg_l2 {rotated} does not follow the planted noise")
        want = reference.pearson([rotated[k] for k in sorted(scores)],
                                 [scores[k] for k in sorted(scores)])
        for k, r in l2.items():
            if abs(float(r["pearson_vs_f1"]) - want) > 1e-5:
                problems.append(f"pearson column {r['pearson_vs_f1']}, recomputed {want:.6f}")
        variance = json.loads((out / "pca" / "manifest.json").read_text())["explained_variance"]
        for k, layer in enumerate(layers):
            x = layer[open_rows].astype(np.float64)
            x -= x.mean(axis=0)
            eig = np.linalg.eigvalsh(x.T @ x)
            ratios = (eig[-1] / eig.sum(), eig[-2] / eig.sum())
            got = [float(v) for v in variance[str(k)]]
            if max(abs(g - w) for g, w in zip(got, ratios)) > 2e-6:
                problems.append(f"pca layer {k}: explained variance {got}, eigh {ratios}")
            points = _read_csv(pca_files[k])
            share = sum(float(p["x"]) ** 2 for p in points) / eig.sum()
            if len(points) != len(open_rows) or abs(share - ratios[0]) > 1e-4:
                problems.append(f"pca layer {k}: {len(points)} points with x-variance "
                                f"share {share:.6f}, want {len(open_rows)} and {ratios[0]:.6f}")
        return problems

    return Plan(commands, outputs, check, layer_files=len(layers))


PREPARE = {
    "train-paper": prepare_train,
    "train-desk": prepare_train,
    "eval-paper": prepare_eval,
    "probe-layers": prepare_probe,
}
KIND = {"train-paper": "train", "train-desk": "train",
        "eval-paper": "eval", "probe-layers": "probe"}
