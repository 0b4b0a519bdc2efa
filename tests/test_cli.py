import os
import subprocess
import sys

import pytest

import chatterdetect as cd
from chatterdetect import defaults
from chatterdetect.cli import build_parser, run


def parse(argv):
    return build_parser().parse_args(argv)


def test_flag_defaults_match_pinned_values():
    # training defaults (published hyperparameter table)
    args = parse(["train", "--data", "d", "--out", "m"])
    assert args.batch == 2
    assert args.lr == 0.0001
    assert args.epochs == 30
    assert args.dropout == 0.3

    # preprocessing defaults
    args = parse(["extract", "--in", "c", "--out", "d"])
    assert args.hop == 0.1
    assert args.window == 0.1
    assert args.lines == 1024
    assert args.fmax == 2500.0
    assert args.crop_db == 20.0

    # the dataclasses agree with the same literals
    hp = cd.Hyperparameters()
    assert (hp.batch_size, hp.learning_rate, hp.epochs, hp.dropout_rate) == (
        2, 0.0001, 30, 0.3,
    )
    cfg = cd.SpectralConfig()
    assert (cfg.hop_s, cfg.window_s, cfg.n_lines, cfg.f_max_hz, cfg.crop_db) == (
        0.1, 0.1, 1024, 2500.0, 20.0,
    )
    assert (defaults.BATCH_SIZE, defaults.LEARNING_RATE, defaults.EPOCHS,
            defaults.DROPOUT_RATE) == (2, 0.0001, 30, 0.3)


def dir_snapshot(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


def test_synth_is_bit_identical_across_runs(tmp_path):
    argv = ["synth", "--per-class", "1", "--ambiguous-frac", "0", "--rpm", "1800",
            "--seed", "7"]
    assert run(argv + ["--out", str(tmp_path / "a")]) == 0
    assert run(argv + ["--out", str(tmp_path / "b")]) == 0
    a, b = dir_snapshot(tmp_path / "a"), dir_snapshot(tmp_path / "b")
    assert a.keys() == b.keys() and len(a) == 3 * 2 + 1
    for name in a:
        assert a[name] == b[name], name


def test_full_pipeline(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    ds = tmp_path / "ds"
    model = tmp_path / "model.chmd"
    report = tmp_path / "report"

    assert run(["synth", "--out", str(corpus), "--per-class", "5",
                "--ambiguous-frac", "0.4", "--rpm", "1800,3000", "--seed", "3"]) == 0
    assert run(["extract", "--in", str(corpus), "--out", str(ds),
                "--seed", "1", "--test-frac", "0.2"]) == 0
    assert run(["train", "--data", str(ds), "--out", str(model),
                "--epochs", "2", "--seed", "0"]) == 0
    assert model.exists()
    assert (tmp_path / "model.chmd.log.csv").exists()

    assert run(["eval", "--model", str(model), "--data", str(ds),
                "--split", "test", "--out", str(report)]) == 0
    assert (report / "confusion.csv").exists()
    assert (report / "metrics.csv").exists()
    out = capsys.readouterr().out
    assert "accuracy on test" in out

    assert run(["eval", "--model", str(model), "--data", str(ds),
                "--split", "test2", "--out", str(tmp_path / "report2")]) == 0
    capsys.readouterr()

    wav = next(corpus.glob("chatter-*.wav"))
    frames_dir = tmp_path / "frames"
    assert run(["predict", "--model", str(model), "--wav", str(wav),
                "--emit-frames", str(frames_dir)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t_start,label,p_chatter,p_machining,p_rotation"
    assert len(lines) == 1 + 10  # one row per 0.1 s frame of a 1 s signal
    first = lines[1].split(",")
    assert first[1] in {"chatter", "machining", "rotation"}
    probs = [float(v) for v in first[2:]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-5)
    assert len(list(frames_dir.glob("*.pgm"))) == 10


def test_band_error_exits_2(tmp_path):
    corpus = tmp_path / "corpus"
    assert run(["synth", "--out", str(corpus), "--per-class", "1",
                "--rpm", "1800", "--seed", "0"]) == 0
    code = run(["extract", "--in", str(corpus), "--out", str(tmp_path / "ds"),
                "--fmax", "20000", "--seed", "0"])
    assert code == 2


def test_usage_errors_exit_1(capsys):
    assert run(["synth", "--out", "x"]) == 1          # missing required flag
    assert run(["train", "--nope"]) == 1              # unknown flag
    assert run(["eval", "--model", "m", "--data", "d", "--split", "weird",
                "--out", "r"]) == 1                   # bad choice
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--data", "d", "--out", "m", "--batch", "0"],
        ["train", "--data", "d", "--out", "m", "--epochs", "-1"],
        ["train", "--data", "d", "--out", "m", "--lr", "-1"],
        ["train", "--data", "d", "--out", "m", "--lr", "nan"],
        ["train", "--data", "d", "--out", "m", "--dropout", "1"],
        ["extract", "--in", "c", "--out", "d", "--hop", "0"],
        ["extract", "--in", "c", "--out", "d", "--window", "-0.1"],
        ["extract", "--in", "c", "--out", "d", "--lines", "1"],
        ["extract", "--in", "c", "--out", "d", "--crop-db", "0"],
        ["extract", "--in", "c", "--out", "d", "--test-frac", "1"],
    ],
)
def test_out_of_range_values_exit_1(argv, capsys):
    # rejected while parsing, before the (missing) input is opened
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "Traceback" not in err


def test_out_of_range_config_value_exits_1(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("batch=0\n")
    assert run(["--config", str(config), "train", "--data", "d", "--out", "m"]) == 1
    assert "batch" in capsys.readouterr().err


def test_missing_data_exits_2(tmp_path):
    assert run(["train", "--data", str(tmp_path / "nope"), "--out",
                str(tmp_path / "m")]) == 2


def test_config_file_overrides_defaults(tmp_path, capsys):
    corpus, ds = tmp_path / "c", tmp_path / "d"
    assert run(["synth", "--out", str(corpus), "--per-class", "4",
                "--rpm", "1800", "--seed", "5"]) == 0
    assert run(["extract", "--in", str(corpus), "--out", str(ds), "--seed", "2",
                "--test-frac", "0"]) == 0

    config = tmp_path / "run.cfg"
    config.write_text("epochs=1\n")
    model = tmp_path / "m.chmd"
    assert run(["--config", str(config), "train", "--data", str(ds),
                "--out", str(model), "--seed", "0"]) == 0
    log = (tmp_path / "m.chmd.log.csv").read_text().splitlines()
    assert len(log) == 1 + 1  # header plus the single configured epoch

    # an explicit flag still wins over the config file
    assert run(["--config", str(config), "train", "--data", str(ds),
                "--out", str(model), "--epochs", "2", "--seed", "0"]) == 0
    log = (tmp_path / "m.chmd.log.csv").read_text().splitlines()
    assert len(log) == 1 + 2


def test_no_writes_outside_out_target(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["synth", "--out", "corpus", "--per-class", "1",
                "--rpm", "1800", "--seed", "1"]) == 0
    assert set(os.listdir(tmp_path)) == {"corpus"}
    assert run(["extract", "--in", "corpus", "--out", "ds", "--seed", "1",
                "--test-frac", "0"]) == 0
    assert set(os.listdir(tmp_path)) == {"corpus", "ds"}


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "chatterdetect", "--help"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    for verb in ("synth", "extract", "train", "eval", "predict"):
        assert verb in result.stdout
