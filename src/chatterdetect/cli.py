"""Command-line entry point wiring the pipeline end to end.

Five verbs, one per pipeline stage::

    chatterdetect synth    --out DIR --per-class N --ambiguous-frac F --rpm LIST --seed S
    chatterdetect extract  --in DIR --out DSDIR [--hop ... --window ... --lines ...
                           --fmax ... --crop-db ...] --seed S --test-frac F
    chatterdetect train    --data DSDIR --out MODEL [--batch ... --lr ... --epochs ...
                           --dropout ...] --seed S
    chatterdetect eval     --model MODEL --data DSDIR --split test|test2 --out REPORTDIR
    chatterdetect predict  --model MODEL --wav FILE [--emit-frames DIR]

Exit codes: 0 success, 1 usage error, 2 data/model error. An optional
``--config FILE`` of key=value pairs overrides flag defaults (explicit
flags still win).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

from . import defaults
from .dataset import Split, build_dataset, class_distribution, load_dataset, save_dataset
from .errors import ChatterError, EmptyDataset, make_dir
from .evaluation import build_report, emit_report
from .model import (
    Hyperparameters,
    build_model,
    check_config,
    load_model,
    predict_batch,
    save_model,
    save_training_log,
    train,
)
from .signal_io import CLASS_ORDER, load_wav
from .spectral import SpectralConfig, export_frame_pgm, extract_frames
from .synth import generate_corpus, read_corpus, sample_count, spec_to_dict, write_corpus

log = logging.getLogger("chatterdetect")


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; pipeline errors exit 2 (handled in run)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _checked(convert, ok, what: str):
    """An argparse type: `convert`, then reject values for which `ok` fails,
    so out-of-range numbers are usage errors rather than tracebacks."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value

    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_count = _checked(int, lambda v: v >= 0, "a non-negative integer")
_positive = _checked(float, lambda v: math.isfinite(v) and v > 0, "a positive number")
_non_negative = _checked(float, lambda v: math.isfinite(v) and v >= 0, "a non-negative number")
_fraction = _checked(float, lambda v: 0 <= v < 1, "in [0, 1)")
_share = _checked(float, lambda v: 0 <= v <= 1, "in [0, 1]")
_rpm_list = _checked(
    lambda text: [float(v) for v in text.split(",") if v.strip()],
    lambda vs: vs and all(math.isfinite(v) and v > 0 for v in vs),
    "a comma-separated list of positive speeds",
)
_lines = _checked(int, lambda v: v >= 2, "an integer of at least 2")


def _duration(text: str) -> float:
    """A signal length that gives at least one sample and fits one WAV file."""
    value = _positive(text)
    try:
        sample_count(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _scan_config(argv):
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if token.startswith("--config="):
            return token.split("=", 1)[1]
    return None


def _load_config(path) -> dict[str, str]:
    overrides = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ChatterError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def build_parser(overrides: dict[str, str] | None = None) -> _Parser:
    overrides = overrides or {}
    unused = set(overrides)

    def add(parser, *flags, **kwargs):
        dest = kwargs.get("dest") or flags[0].lstrip("-").replace("-", "_")
        unused.discard(dest)
        if dest in overrides:
            convert = kwargs.get("type", str)
            try:
                value = convert(overrides[dest])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ChatterError(f"config value for {dest}: {exc}") from None
            if "choices" in kwargs and value not in kwargs["choices"]:
                raise ChatterError(
                    f"config value for {dest}: {value!r} is not one of {kwargs['choices']}"
                )
            kwargs["default"] = value
            kwargs.pop("required", None)
        parser.add_argument(*flags, **kwargs)

    parser = _Parser(prog="chatterdetect", description=__doc__.split("\n")[0])
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    parser.add_argument("--config", metavar="FILE", help="key=value defaults override")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    add(p, "--out", required=True, help="corpus output directory")
    add(p, "--per-class", type=_positive_int, required=True, help="signals per class")
    add(p, "--ambiguous-frac", type=_share, default=0.0, help="ambiguous fraction per class")
    add(p, "--rpm", type=_rpm_list, default=[1800.0, 3000.0], help="comma-separated spindle speeds")
    add(p, "--seed", type=_count, default=0)
    add(p, "--duration", type=_duration, default=1.0, help="seconds per signal")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="build a frame dataset from a corpus")
    add(p, "--in", dest="in_dir", required=True, help="corpus directory")
    add(p, "--out", required=True, help="dataset output directory")
    add(p, "--hop", type=_positive, default=defaults.HOP_S, help="frame hop in seconds")
    add(p, "--window", type=_positive, default=defaults.WINDOW_S, help="frame window in seconds")
    add(p, "--lines", type=_lines, default=defaults.N_LINES, help="spectral lines")
    add(p, "--fmax", type=_positive, default=defaults.F_MAX_HZ, help="band upper edge in Hz")
    add(p, "--crop-db", type=_positive, default=defaults.CROP_DB,
        help="dB crop below the frame maximum")
    add(p, "--seed", type=_count, default=0, help="split shuffle seed")
    add(p, "--test-frac", type=_fraction, default=defaults.TEST_FRACTION)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train the classifier")
    add(p, "--data", required=True, help="dataset directory")
    add(p, "--out", required=True, help="model output file")
    add(p, "--batch", type=_positive_int, default=defaults.BATCH_SIZE)
    add(p, "--lr", type=_non_negative, default=defaults.LEARNING_RATE)
    add(p, "--epochs", type=_count, default=defaults.EPOCHS)
    add(p, "--dropout", type=_fraction, default=defaults.DROPOUT_RATE)
    add(p, "--seed", type=_count, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on a dataset split")
    add(p, "--model", required=True)
    add(p, "--data", required=True, help="dataset directory")
    add(p, "--split", choices=[Split.TEST.token, Split.TEST2_AMBIGUOUS.token],
        default=Split.TEST.token)
    add(p, "--out", required=True, help="report output directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="classify every frame of a WAV file")
    add(p, "--model", required=True)
    add(p, "--wav", required=True)
    add(p, "--emit-frames", dest="emit_frames", default=None, help="write per-frame PGMs here")
    p.set_defaults(func=cmd_predict)

    if unused:
        raise ChatterError(f"config key(s) match no flag: {', '.join(sorted(unused))}")
    return parser


def cmd_synth(args) -> int:
    items = generate_corpus(
        n_per_class=args.per_class,
        ambiguous_fraction=args.ambiguous_frac,
        rpm_choices=args.rpm,
        seed=args.seed,
        duration_s=args.duration,
    )
    write_corpus(items, args.out)
    n_amb = sum(1 for it in items if it.ambiguous)
    log.info("wrote %d signals (%d ambiguous) to %s", len(items), n_amb, args.out)
    return 0


def cmd_extract(args) -> int:
    items = read_corpus(args.in_dir)
    config = SpectralConfig(
        hop_s=args.hop,
        window_s=args.window,
        n_lines=args.lines,
        f_max_hz=args.fmax,
        crop_db=args.crop_db,
    )
    ds = build_dataset(
        [(it.signal, it.labels, it.ambiguous) for it in items],
        config=config,
        split_seed=args.seed,
        test_fraction=args.test_frac,
        source_ids=[it.item_id for it in items],
        source_specs=[
            json.dumps(spec_to_dict(it.spec), sort_keys=True) if it.spec else ""
            for it in items
        ],
    )
    save_dataset(ds, args.out)
    for split in Split:
        dist = class_distribution(ds, split)
        log.info(
            "%s: %s", split.token,
            " ".join(f"{cls.token}={dist[cls]}" for cls in CLASS_ORDER),
        )
    return 0


def cmd_train(args) -> int:
    ds = load_dataset(args.data)
    hp = Hyperparameters(
        batch_size=args.batch,
        learning_rate=args.lr,
        epochs=args.epochs,
        dropout_rate=args.dropout,
        rng_seed=args.seed,
    )
    model = build_model(args.seed, ds.config)
    train(model, ds, hp)
    save_model(model, args.out)
    save_training_log(model.training_log, str(args.out) + ".log.csv")
    return 0


def cmd_eval(args) -> int:
    ds = load_dataset(args.data)
    model = load_model(args.model)
    check_config(model, ds.config)
    x, y = ds.split_arrays(next(s for s in Split if s.token == args.split))
    if len(y) == 0:
        raise EmptyDataset(f"split {args.split!r} is empty")
    probs = predict_batch(model, x)
    report = build_report(probs, y.tolist(), split_id=args.split, model_id=str(args.model))
    emit_report(report, args.out)
    print(f"accuracy on {args.split}: {report.metrics.accuracy:.4f}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    frames = extract_frames(load_wav(args.wav), model.config)
    pgm_dir = make_dir(args.emit_frames) if args.emit_frames else None
    print("t_start,label,p_chatter,p_machining,p_rotation")
    for frame in frames:
        probs = predict_batch(model, frame.lines.reshape(1, -1))[0]
        label = CLASS_ORDER[int(probs.argmax())]
        print(
            f"{frame.t_start_s:.6g},{label.token},"
            + ",".join(f"{p:.6g}" for p in probs)
        )
        if pgm_dir is not None:
            export_frame_pgm(frame, pgm_dir / f"frame_{frame.frame_index:05d}.pgm", model.config)
    return 0


def run(argv) -> int:
    config_path = _scan_config(argv)
    try:
        overrides = _load_config(config_path) if config_path else {}
        parser = build_parser(overrides)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except ChatterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except ChatterError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout has gone (predict | head): nothing left to say
        return 0


def main() -> int:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # drop what is still buffered, or the flush at exit fails again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
