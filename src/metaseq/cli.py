"""Command-line surface: train, eval, and probe subcommands.

Every run writes its outputs, then one JSON manifest (command, seed, input
digests, output paths, and the numpy and BLAS build that sets the last
bits), into ``--out`` through ``_write_run`` alone. The
previous run's manifest is removed before the first output, and with it,
when it is of the same command, each output it lists in ``--out`` that
this run neither writes nor reads. Each file
is written whole under a temporary name and renamed into place, so a run
that stops leaves no manifest; with no fsync, a power loss is not covered.
Reruns of an identical invocation produce byte-identical outputs. Numeric
CSV fields carry 6 decimal places; a value that rounds to zero prints unsigned.

Exit codes: 0 success, 2 usage, 3 data/format, 4 numeric failure. Each
error class carries its code (``MetaseqError.exit_code``); OS errors and
running out of memory are 3.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, space_analysis, tagger_model, train_eval
from . import tensor_core as tc
from .embedding_io import ChannelProvider, load_contextual, load_static_text
from .errors import (
    AlignmentError,
    CompatibilityError,
    InputError,
    MetaseqError,
    ParameterError,
    ParseError,
    open_text,
)
from .linguistic_features import AbstractnessScorer, PosVocabulary, load_abstractness_lexicon
from .tagger_model import ModelConfig

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 2, 3, 4


def _fmt(value: float) -> str:
    text = f"{value:.6f}"
    return text[1:] if text == "-0.000000" else text   # no signed zero


def parse_config_file(path) -> dict:
    """`key=value` lines typed by ``ModelConfig.field_value``; `#` starts a
    comment, and a key may be set once."""
    out: dict = {}
    first_line: dict[str, int] = {}
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}: line {lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in first_line:
                raise ParseError(f"{path}: line {lineno}: {key} already set "
                                 f"on line {first_line[key]}")
            first_line[key] = lineno
            try:
                out[key] = ModelConfig.field_value(key, value, text=True)
            except MetaseqError as exc:
                raise type(exc)(f"{path}: line {lineno}: {exc}") from None
    return out


def _resolve_seed(args, file_values: dict) -> int:
    """Seed from the flag, else the config file, else ``METASEQ_SEED``, else 0."""
    sources = (("--seed", args.seed), ("config seed", file_values.get("seed")),
               ("METASEQ_SEED", os.environ.get("METASEQ_SEED", "0")))
    source, seed = next((name, value) for name, value in sources if value is not None)
    try:
        seed = int(seed)
    except ValueError:
        raise ParameterError(f"{source}={seed!r} is not an integer") from None
    if seed < 0:
        raise ParameterError(f"{source} {seed} is negative; seeds must be >= 0")
    return seed


def _build_config(args) -> ModelConfig:
    values = parse_config_file(args.config) if args.config else {}
    values["seed"] = _resolve_seed(args, values)
    return ModelConfig(**values)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def numeric_build() -> dict:
    """What sets a run's last bits beside its inputs: numpy's version, its
    OpenBLAS build, and the BLAS thread counts in effect (None: unset)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "openblas_configuration": blas.get("openblas configuration"),
            "blas_threads": {var: os.environ.get(var) for var in tc.BLAS_THREAD_VARS}}


def _write_manifest(args_list: list[str], config_path, seed: int, inputs: list,
                    outputs: list[Path], extra: dict | None, path: Path) -> None:
    manifest = {
        "build": numeric_build(),
        "command": args_list,
        "config_path": str(config_path) if config_path else None,
        "seed": seed,
        "inputs": {str(p): _sha256(p) for p in sorted(str(x) for x in inputs)},
        "outputs": sorted(str(p) for p in outputs),
        "version": __version__,
        **(extra or {}),
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _stale_outputs(out_dir: Path, argv: list[str], inputs: list, names) -> list[Path]:
    """The files in ``out_dir`` named by the outputs its manifest lists, when
    that manifest is of the same command, other than ``names``, the manifest
    and this run's ``inputs``: an earlier run's outputs that this run does
    not replace. A manifest that does not parse lists none."""
    try:
        previous = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        listed = previous["outputs"]
        if previous["command"][:1] != argv[:1] or not isinstance(listed, list):
            return []
        paths = [out_dir / Path(p).name for p in listed]
    except (OSError, ValueError, TypeError, KeyError):
        return []
    read = {Path(p).resolve() for p in inputs}
    return [p for p in paths if p.name not in (*names, "manifest.json")
            and (p.is_file() or p.is_symlink()) and p.resolve() not in read]


def _write_run(out, argv: list[str], config_path, seed: int, inputs: list,
               outputs: dict, extra: dict | None = None) -> list[Path]:
    """Write ``outputs`` (file name -> text, or a function that writes a
    given path), then the manifest, into ``out`` as the module docstring says."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stale = _stale_outputs(out_dir, argv, inputs, outputs)
    (out_dir / "manifest.json").unlink(missing_ok=True)
    for path in stale:
        path.unlink(missing_ok=True)    # a path may be listed twice
    paths = [out_dir / name for name in outputs]
    manifest = functools.partial(_write_manifest, argv, config_path, seed, inputs, paths, extra)
    for name, content in [*outputs.items(), ("manifest.json", manifest)]:
        partial = out_dir / f".{name}.partial"
        try:
            if callable(content):
                content(partial)
            else:
                partial.write_text(content, encoding="utf-8")
            os.replace(partial, out_dir / name)
        except BaseException:
            partial.unlink(missing_ok=True)
            raise
    return paths


def _load_layers(config: ModelConfig, layer_paths: list[str],
                 sentences: list) -> dict[str, object]:
    """The ``--layers`` files by channel name, each read against
    ``sentences`` and checked against the configured dimension."""
    contextual_channels = [c for c in config.channel_order if c != "G"]
    if len(layer_paths) != len(contextual_channels):
        raise ParameterError(f"expected {len(contextual_channels)} --layers files for "
                             f"channels {contextual_channels}, got {len(layer_paths)}")
    return {name: load_contextual(path, sentences, dimension=config.unified_dim)
            for name, path in zip(contextual_channels, layer_paths)}


def _make_provider(config: ModelConfig, args, sentences: list,
                   dev_sentences: list = ()) -> tuple[ChannelProvider, list]:
    """Wire static table, layer files and feature encoders per the config.

    The layer files must line up with ``sentences``; ``dev_sentences`` are
    scored on their rows. The static table keeps only the vectors the run
    can read: every token of both as written, lowercased too when the lexicon
    lookup lowercases, and the lexicon words, which are the abstractness backoff's
    candidates. So the lexicon is read before the vector file, and the
    scorer scores the same tokens once, before any sentence is assembled.
    """
    static = "G" in config.channel_order
    if static and not args.glove:
        raise ParameterError("channel G is configured but --glove is missing")
    if config.use_abstractness and not args.abst_lexicon:
        raise ParameterError("use_abstractness is configured but --abst-lexicon is missing")
    if config.use_abstractness and not static:
        raise ParameterError("use_abstractness requires the static channel G")
    inputs = list(args.layers or [])
    tokens = {t.text for s in (*sentences, *dev_sentences) for t in s.tokens}
    lexicon = static_table = scorer = None
    if config.use_abstractness:
        lexicon = load_abstractness_lexicon(args.abst_lexicon)
        inputs.append(args.abst_lexicon)
    if static:
        words = set(tokens)
        if lexicon is not None:
            if config.lowercase_lexicon:
                words |= {w.lower() for w in tokens}
            words.update(lexicon)
        static_table = load_static_text(args.glove, words)
        inputs.append(args.glove)
        if static_table.dimension != config.static_dim:
            raise CompatibilityError(
                f"{args.glove}: vector dimension {static_table.dimension} != "
                f"configured static dimension {config.static_dim}")
    layer_files = _load_layers(config, args.layers or [], sentences)

    pos_vocab = PosVocabulary(config.pos_tags) if config.use_pos else None
    if lexicon is not None:
        scorer = AbstractnessScorer(lexicon, static_table, tokens, config.lowercase_lexicon)

    provider = ChannelProvider(config.channel_order, static_table, layer_files,
                               pos_vocab, scorer)
    return provider, inputs


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _check_dev_rows(dev_path, dev_sentences, train_sentences) -> None:
    """Contextual rows of dev sentence i come from the training layer files
    at position i, so that training sentence must have the same tokens."""
    for index, dev in enumerate(dev_sentences):
        train = train_sentences[index] if index < len(train_sentences) else None
        if train is None or [t.text for t in dev.tokens] != [t.text for t in train.tokens]:
            found = "no training sentence" if train is None else \
                f"training sentence {train.sentence_id} with other tokens"
            raise AlignmentError(
                f"{dev_path}: dev sentence {dev.sentence_id} (#{index}) would be scored on "
                f"the contextual rows at its position in the training layer files, "
                f"which hold {found}")


def cmd_train(args, argv: list[str]) -> int:
    config = _build_config(args)
    tagger_model.check_allocatable(config)
    train_sentences = train_eval.parse_dataset(args.data)
    tagger_model.check_sentence_memory(config, args.data, train_sentences, training=True)
    inputs = [args.data]
    if args.dev:
        dev_sentences = train_eval.parse_dataset(args.dev)
        tagger_model.check_sentence_memory(config, args.dev, dev_sentences, training=False)
        inputs.append(args.dev)
        if any(name != "G" for name in config.channel_order):
            _check_dev_rows(args.dev, dev_sentences, train_sentences)
    else:
        dev_sentences = None
    provider, extra_inputs = _make_provider(
        config, args, train_sentences, dev_sentences or [])
    inputs.extend(extra_inputs)
    if args.config:
        inputs.append(args.config)

    curve: list[tuple[int, float, float]] = []
    checkpoint = tagger_model.train(
        train_sentences, provider, config, dev_sentences=dev_sentences,
        on_epoch=lambda epoch, loss, f1: curve.append((epoch, loss, f1)))

    ckpt_path, _ = _write_run(args.out, argv, args.config, config.seed, inputs, {
        "checkpoint.mseq": functools.partial(tagger_model.save_checkpoint, checkpoint),
        "training_curve.csv": "epoch,train_loss,dev_f1\n" + "".join(
            f"{epoch},{_fmt(loss)},{_fmt(f1)}\n" for epoch, loss, f1 in curve)},
        extra={"best_epoch": checkpoint.epoch, "best_dev_f1": _fmt(checkpoint.dev_f1)})
    print(f"checkpoint: {ckpt_path} (epoch {checkpoint.epoch}, "
          f"dev F1 {_fmt(checkpoint.dev_f1)})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

_REPORT_HEADER = "split,class,P,R,F1,Acc,TP,FP,FN,TN\n"


def _report_row(split: str, cls: str, r: train_eval.MetricsReport) -> str:
    return (f"{split},{cls},{_fmt(r.precision)},{_fmt(r.recall)},{_fmt(r.f1)},"
            f"{_fmt(r.accuracy)},{r.tp},{r.fp},{r.fn},{r.tn}\n")


def cmd_eval(args, argv: list[str]) -> int:
    checkpoint = tagger_model.load_checkpoint(args.checkpoint)
    config = checkpoint.config
    sentences = train_eval.parse_dataset(args.data)
    tagger_model.check_sentence_memory(config, args.data, sentences, training=False)
    provider, extra_inputs = _make_provider(config, args, sentences)
    inputs = [args.checkpoint, args.data, *extra_inputs]

    model = tagger_model.MetaphorTagger.from_checkpoint(checkpoint)
    predictions, overall = tagger_model.label_sentences(model, sentences, provider)
    rows = [_report_row("overall", "ALL", overall)]
    if args.breakdown:
        per_class = train_eval.breakdown(sentences, predictions, key=args.breakdown)
        if args.breakdown == "pos":
            order = [c for c in (*train_eval.OPEN_CLASS_POS, "ALL") if c in per_class]
        else:
            order = sorted(per_class)
        rows.extend(_report_row(args.breakdown, cls, per_class[cls]) for cls in order)

    [metrics_path] = _write_run(args.out, argv, None, config.seed, inputs,
                                {"metrics.csv": _REPORT_HEADER + "".join(rows)})
    print(f"metrics: {metrics_path} (F1 {_fmt(overall.f1)})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------

def _read_scores_csv(path) -> dict[int, float]:
    scores, first_line = {}, {}
    with open_text(path) as fh:
        header = fh.readline()
        if not header.lower().startswith("layer,"):
            raise ParseError(f"{path}: expected header `layer,score`")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(f"{path}: line {lineno}: expected layer,score")
            try:
                layer, score = int(parts[0]), float(parts[1])
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
            if not math.isfinite(score):
                raise ParseError(f"{path}: line {lineno}: score {parts[1]!r} is not finite")
            if layer in scores:
                raise ParseError(f"{path}: line {lineno}: layer {layer} already scored "
                                 f"on line {first_line[layer]}")
            scores[layer] = score
            first_line[layer] = lineno
    return scores


def _check_pca_inputs(data: str, count: int, paths: list[str], layers: list) -> None:
    """The 2-D projection needs at least 3 rows and 2 dimensions; fewer is
    a fault of the inputs, so it is a data error raised before any output."""
    for path, layer in zip(paths, layers):
        if count < 3:
            raise InputError(f"{path}: {count} open-class target tokens in {data}, "
                             f"pca needs at least 3")
        if layer.dimension < 2:
            raise InputError(f"{path}: dimension {layer.dimension}, pca needs at least 2")


def _map_layers(one, layers, threads: int) -> list:
    """``one(layer)`` for every layer file on the probe pool, as a list of
    ``(layer_index, ...)`` tuples in layer-index order."""
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return sorted(pool.map(one, layers), key=lambda item: item[0])


def _check_layer_indices(paths: list[str], layers: list) -> None:
    """Each probed file must carry its own header layer index: outputs are
    keyed by it, so a repeat would overwrite or double-count a layer."""
    first: dict[int, str] = {}
    for path, layer in zip(paths, layers):
        if layer.layer_index in first:
            raise InputError(f"{path}: layer index {layer.layer_index} already "
                             f"given by {first[layer.layer_index]}")
        first[layer.layer_index] = path


def _check_l2_memory(path, dimension: int, threads: int) -> None:
    """The rotated l2 probe's d x d matrices, on ``threads`` threads at
    once, must fit in the memory this process may use
    (``tensor_core.usable_memory``); else a data error naming ``path``,
    whose header set d, raised before any of them is made."""
    needed = space_analysis.PROCRUSTES_SQUARES * 8 * dimension ** 2 * threads
    bound, source = tc.usable_memory()
    if needed > bound:
        raise InputError(f"{path}: dimension {dimension}: the rotated l2 probe needs "
                         f"{needed} bytes on {threads} thread(s), more than the "
                         f"{bound} bytes of {source}")


def cmd_probe(args, argv: list[str]) -> int:
    seed = _resolve_seed(args, {})
    if args.mode == "l2" and len(args.layer_files) < 2:
        raise ParameterError("mode=l2 needs a reference file plus at least one layer file")
    sentences = train_eval.parse_dataset(args.data)
    layers = [load_contextual(path, sentences) for path in args.layer_files]
    # The l2 reference file yields no row of its own, so it may share an index.
    probed = 1 if args.mode == "l2" else 0
    _check_layer_indices(args.layer_files[probed:], layers[probed:])
    inputs = [args.data, *args.layer_files]
    files: dict[str, str] = {}   # output file name -> text, written once all succeed
    extra: dict = {}

    if args.mode == "cosine":
        pairs = space_analysis.build_pairs(sentences, seed)
        if not pairs:
            raise InputError(f"{args.data}: no word has both a metaphoric and a literal "
                             f"target token, cosine needs at least one such pair")

        def one(layer):
            return layer.layer_index, space_analysis.avg_pair_cosine(pairs, layer)

        rows = _map_layers(one, layers, args.threads)
        files["probe_cosine.csv"] = "layer,avg_cosine,n_pairs\n" + "".join(
            f"{layer_index},{_fmt(value)},{len(pairs)}\n" for layer_index, value in rows)

    elif args.mode == "l2":
        for path, layer in zip(args.layer_files[1:], layers[1:]):
            if layer.dimension != layers[0].dimension:
                raise InputError(f"{path}: dimension {layer.dimension}, but the reference "
                                 f"{args.layer_files[0]} has dimension {layers[0].dimension}")
        if args.l2_variant == "rotated":
            _check_l2_memory(args.layer_files[0], layers[0].dimension,
                             min(args.threads, len(layers) - 1))
        reference = layers[0].all_rows()

        def one(layer):
            rows_b = layer.all_rows()
            if args.l2_variant == "rotated":
                value = space_analysis.procrustes_align(rows_b, reference).avg_l2
            else:
                value = space_analysis.avg_l2(reference, rows_b)
            return layer.layer_index, value

        rows = _map_layers(one, layers[1:], args.threads)
        pearson_text = ""
        if args.scores:
            inputs.append(args.scores)
            scores = _read_scores_csv(args.scores)
            series = [(value, scores[idx]) for idx, value in rows if idx in scores]
            if len(series) >= 2:
                pearson_text = _fmt(space_analysis.pearson_r(
                    [a for a, _ in series], [b for _, b in series]))
        files["probe_l2.csv"] = "layer,avg_l2,pearson_vs_f1\n" + "".join(
            f"{layer_index},{_fmt(value)},{pearson_text}\n" for layer_index, value in rows)
        extra["l2_variant"] = args.l2_variant

    else:  # pca
        # (sentence index, token index, token) of each open-class target token
        targets = [(s, t, tok) for s, sent in enumerate(sentences)
                   for t, tok in enumerate(sent.tokens)
                   if tok.target and tok.pos in train_eval.OPEN_CLASS_POS]
        _check_pca_inputs(args.data, len(targets), args.layer_files, layers)
        variance: dict[str, tuple[str, str]] = {}
        positions = [(s, t) for s, t, _ in targets]

        def one(layer):
            return layer.layer_index, space_analysis.pca_2d(layer.gather(positions))

        results = _map_layers(one, layers, args.threads)
        for layer_index, projection in results:
            files[f"pca_layer{layer_index}.csv"] = "token,pos,x,y\n" + "".join(
                f"{tok.text},{tok.pos},{_fmt(x)},{_fmt(y)}\n"
                for (_, _, tok), (x, y) in zip(targets, projection.points))
            variance[str(layer_index)] = tuple(
                _fmt(v) for v in projection.explained_variance)
            print(f"layer {layer_index}: explained variance "
                  f"{variance[str(layer_index)]}")
        extra["explained_variance"] = variance

    _write_run(args.out, argv, None, seed, inputs, files, extra)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metaseq",
        description="Multi-channel CNN+BiLSTM metaphor tagger and "
                    "embedding-space probes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a tagger")
    p_train.add_argument("--data", required=True, help="training TSV")
    p_train.add_argument("--dev", help="development TSV for model selection")
    p_train.add_argument("--glove", help="static embedding text file")
    p_train.add_argument("--layers", nargs="*", default=[],
                         help="contextual layer files, one per non-G channel")
    p_train.add_argument("--abst-lexicon", help="abstractness TSV lexicon")
    p_train.add_argument("--config", help="key=value model configuration file")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="score a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--glove")
    p_eval.add_argument("--layers", nargs="*", default=[])
    p_eval.add_argument("--abst-lexicon")
    p_eval.add_argument("--breakdown", choices=("genre", "pos"))
    p_eval.set_defaults(func=cmd_eval)

    p_probe = sub.add_parser("probe", help="embedding-space diagnostics")
    p_probe.add_argument("--data", required=True)
    p_probe.add_argument("--layer-files", nargs="+", required=True)
    p_probe.add_argument("--mode", choices=("cosine", "l2", "pca"), required=True)
    p_probe.add_argument("--scores",
                         help="layer,score CSV correlated against avg_l2")
    p_probe.add_argument("--l2-variant", choices=("rotated", "raw"),
                         default="rotated")
    p_probe.add_argument("--threads", type=_positive_int, default=1,
                         help="worker threads for the per-layer probes (>= 1)")
    p_probe.set_defaults(func=cmd_probe)
    for p in (p_train, p_probe):   # eval's seed is the checkpoint's
        p.add_argument("--seed", type=int, default=None,
                       help="run seed (default: METASEQ_SEED env or 0)")
    for p in (p_train, p_eval, p_probe):
        p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args, argv)
    except MetaseqError as exc:
        prefix = "numeric error" if exc.exit_code == EXIT_NUMERIC else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError:
        print(f"error: out of memory in {args.command}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
