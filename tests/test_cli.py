import io
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
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
            out[os.path.relpath(path, root)] = Path(path).read_bytes()
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


def test_hop_rounding_to_zero_samples_exits_2(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert run(["synth", "--out", str(corpus), "--per-class", "1",
                "--rpm", "1800", "--seed", "0"]) == 0
    assert run(["extract", "--in", str(corpus), "--out", str(tmp_path / "ds"),
                "--hop", "1e-9", "--seed", "0"]) == 2
    assert "HopTooShort" in capsys.readouterr().err


def assert_predict_runs_on_the_models_frames(tmp_path, capsys, model_path, wav):
    """predict's rows are predict_batch, one frame at a time, over frames
    made with the model's config, and its PGMs are those frames drawn with
    the model's crop."""
    model = cd.load_model(model_path)
    frames = cd.extract_frames(cd.load_wav(wav), model.config)
    pgm_dir, expected_pgm = tmp_path / "frames", tmp_path / "expected.pgm"
    capsys.readouterr()
    assert run(["predict", "--model", str(model_path), "--wav", str(wav),
                "--emit-frames", str(pgm_dir)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "t_start,label,p_chatter,p_machining,p_rotation"
    assert len(rows) == 1 + len(frames) > 1
    for row, frame in zip(rows[1:], frames):
        probs = cd.predict_batch(model, frame.lines.reshape(1, -1))[0]
        label = cd.MachiningClass(int(probs.argmax())).token
        assert row == f"{frame.t_start_s:.6g},{label}," + ",".join(f"{p:.6g}" for p in probs)
        pgm = (pgm_dir / f"frame_{frame.frame_index:05d}.pgm").read_bytes()
        assert pgm.startswith(f"P5\n{model.n_inputs} 64\n".encode())
        cd.export_frame_pgm(frame, expected_pgm, model.config)
        assert pgm == expected_pgm.read_bytes()


@pytest.mark.parametrize(
    "flags",
    [["--lines", "512"], ["--crop-db", "40"], ["--window", "0.05"], ["--fmax", "2000"],
     ["--lines", "512", "--fmax", "2000"]],
    ids=["lines-512", "crop-db-40", "window-0.05", "fmax-2000", "lines-512-fmax-2000"],
)
def test_frames_the_model_does_not_take_exit_2(tmp_path, capsys, flags):
    # a model trained on non-default frames takes them through eval and
    # predict; the default model does not take them
    corpus, ds, model = tmp_path / "corpus", tmp_path / "ds", tmp_path / "m.chmd"
    assert run(["synth", "--out", str(corpus), "--per-class", "2",
                "--rpm", "1800", "--seed", "0"]) == 0
    assert run(["extract", "--in", str(corpus), "--out", str(ds), "--seed", "0"] + flags) == 0
    assert run(["train", "--data", str(ds), "--out", str(model), "--epochs", "1"]) == 0
    assert cd.load_model(model).config == cd.load_dataset(ds).config
    assert run(["eval", "--model", str(model), "--data", str(ds),
                "--out", str(tmp_path / "report")]) == 0
    wav = next(corpus.glob("chatter-*.wav"))
    assert_predict_runs_on_the_models_frames(tmp_path, capsys, model, wav)

    cd.save_model(cd.build_model(0), model)
    assert run(["eval", "--model", str(model), "--data", str(ds),
                "--out", str(tmp_path / "default-report")]) == 2
    err = capsys.readouterr().err
    assert "FeatureMismatch" in err and "Traceback" not in err
    assert not (tmp_path / "default-report").exists()


def test_too_few_lines_for_the_network_exit_2(tmp_path, capsys):
    corpus, ds, model = tmp_path / "corpus", tmp_path / "ds", tmp_path / "m.chmd"
    assert run(["synth", "--out", str(corpus), "--per-class", "2",
                "--rpm", "1800", "--seed", "0"]) == 0
    assert run(["extract", "--in", str(corpus), "--out", str(ds), "--seed", "0",
                "--lines", "37"]) == 0
    capsys.readouterr()
    assert run(["train", "--data", str(ds), "--out", str(model), "--epochs", "1"]) == 2
    err = capsys.readouterr().err
    assert "FeatureMismatch" in err and "Traceback" not in err
    assert not model.exists()


@pytest.mark.parametrize(
    "flags", [["--fmax", "0.001"], ["--lines", "100000000"], ["--window", "1e308"]],
    ids=["fmax-0.001", "lines-1e8", "window-1e308"],
)
def test_overlong_fft_exits_2(tmp_path, capsys, flags):
    corpus = tmp_path / "corpus"
    assert run(["synth", "--out", str(corpus), "--per-class", "1",
                "--rpm", "1800", "--seed", "0"]) == 0
    capsys.readouterr()
    assert run(["extract", "--in", str(corpus), "--out", str(tmp_path / "ds"),
                "--seed", "0"] + flags) == 2
    err = capsys.readouterr().err
    assert "FftTooLong" in err and "Traceback" not in err
    assert not (tmp_path / "ds").exists()


def test_predict_with_an_overlong_fft_model_exits_2(tmp_path, capsys):
    # a model file whose band edge is 0.001 Hz: the config is valid, its FFT is not
    corpus, model = tmp_path / "corpus", tmp_path / "m.chmd"
    assert run(["synth", "--out", str(corpus), "--per-class", "1",
                "--rpm", "1800", "--seed", "0"]) == 0
    cd.save_model(cd.build_model(0), model)
    blob = bytearray(model.read_bytes())
    struct.pack_into("<d", blob, 40, 0.001)  # f_max_hz in the version 2 header
    model.write_bytes(bytes(blob))
    capsys.readouterr()
    wav = next(corpus.glob("chatter-*.wav"))
    assert run(["predict", "--model", str(model), "--wav", str(wav)]) == 2
    out, err = capsys.readouterr()
    assert "FftTooLong" in err and "Traceback" not in err
    assert out == ""


def test_predict_stops_quietly_when_stdout_closes(tmp_path, monkeypatch, capsys):
    corpus, model = tmp_path / "corpus", tmp_path / "m.chmd"
    assert run(["synth", "--out", str(corpus), "--per-class", "1",
                "--rpm", "1800", "--seed", "0"]) == 0
    cd.save_model(cd.build_model(0), model)

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    wav = next(corpus.glob("chatter-*.wav"))
    assert run(["predict", "--model", str(model), "--wav", str(wav)]) == 0
    assert capsys.readouterr().err == ""


def test_predict_rows_are_per_frame_predict_batch(tmp_path, capsys, trained_small_model):
    # one frame per predict_batch call: a batched call rounds differently
    corpus, model = tmp_path / "corpus", tmp_path / "m.chmd"
    assert run(["synth", "--out", str(corpus), "--per-class", "1",
                "--rpm", "1800", "--seed", "0"]) == 0
    cd.save_model(trained_small_model, model)
    wav = next(corpus.glob("chatter-*.wav"))
    capsys.readouterr()
    assert run(["predict", "--model", str(model), "--wav", str(wav)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    frames = cd.extract_frames(cd.load_wav(wav))
    assert len(rows) == len(frames)
    for row, frame in zip(rows, frames):
        probs = cd.predict_batch(trained_small_model, frame.lines.reshape(1, -1))[0]
        label = cd.MachiningClass(int(probs.argmax())).token
        assert row == f"{frame.t_start_s:.6g},{label}," + ",".join(f"{p:.6g}" for p in probs)


@pytest.mark.parametrize(
    "config", [cd.SpectralConfig(crop_db=30.0), cd.SpectralConfig(n_lines=512)],
    ids=["floor-30", "lines-512"],
)
def test_predict_frames_with_the_models_config(tmp_path, capsys, config):
    corpus, model = tmp_path / "corpus", tmp_path / "m.chmd"
    assert run(["synth", "--out", str(corpus), "--per-class", "1",
                "--rpm", "1800", "--seed", "0"]) == 0
    cd.save_model(cd.build_model(1, config), model)
    wav = next(corpus.glob("chatter-*.wav"))
    assert_predict_runs_on_the_models_frames(tmp_path, capsys, model, wav)


def test_predict_takes_any_rate_whose_nyquist_covers_the_models_band(tmp_path, capsys):
    # a 4 kHz recording covers 0-1500 Hz but not the default 0-2500 Hz
    wav, model = tmp_path / "slow.wav", tmp_path / "m.chmd"
    tone = 0.5 * np.sin(2 * np.pi * 440.0 * np.arange(4000) / 4000.0)
    cd.save_wav(cd.TimeSignal(tone, 4000.0), wav)
    cd.save_model(cd.build_model(1, cd.SpectralConfig(f_max_hz=1500.0)), model)
    assert_predict_runs_on_the_models_frames(tmp_path, capsys, model, wav)

    cd.save_model(cd.build_model(1), model)
    assert run(["predict", "--model", str(model), "--wav", str(wav)]) == 2
    out, err = capsys.readouterr()
    assert "BandExceedsNyquist" in err and "Traceback" not in err
    assert out == ""

    blob = bytearray(wav.read_bytes())
    struct.pack_into("<II", blob, 24, 0, 0)  # sample rate and byte rate in the fmt chunk
    wav.write_bytes(bytes(blob))
    assert run(["predict", "--model", str(model), "--wav", str(wav)]) == 2
    out, err = capsys.readouterr()
    assert "SampleRateTooLow" in err and "Traceback" not in err
    assert out == ""


def test_emit_frames_onto_an_existing_file_exits_2(tmp_path, capsys):
    corpus, model = tmp_path / "corpus", tmp_path / "m.chmd"
    assert run(["synth", "--out", str(corpus), "--per-class", "1",
                "--rpm", "1800", "--seed", "0"]) == 0
    cd.save_model(cd.build_model(0), model)
    wav = next(corpus.glob("chatter-*.wav"))
    assert run(["predict", "--model", str(model), "--wav", str(wav),
                "--emit-frames", str(wav)]) == 2
    assert "IoFailure" in capsys.readouterr().err


def test_malformed_corpus_manifest_exits_2(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert run(["synth", "--out", str(corpus), "--per-class", "1",
                "--rpm", "1800", "--seed", "0"]) == 0
    extract = ["extract", "--in", str(corpus), "--out", str(tmp_path / "ds"), "--seed", "0"]
    (corpus / "corpus.json").write_text("[]")
    assert run(extract) == 2
    assert "IoFailure" in capsys.readouterr().err

    # without a manifest, every WAV needs its label file, and there must be a WAV
    (corpus / "corpus.json").unlink()
    next(corpus.glob("*.labels.csv")).unlink()
    assert run(extract) == 2
    err = capsys.readouterr().err
    assert "missing label file for " in err and "Traceback" not in err
    for wav in corpus.glob("*.wav"):
        wav.unlink()
    assert run(extract) == 2
    err = capsys.readouterr().err
    assert "no corpus manifest and no WAV files" in err and "Traceback" not in err


def test_usage_errors_exit_1(capsys):
    assert run(["synth", "--out", "x"]) == 1          # missing required flag
    assert run(["train", "--nope"]) == 1              # unknown flag
    assert run(["eval", "--model", "m", "--data", "d", "--split", "weird",
                "--out", "r"]) == 1                   # bad choice
    capsys.readouterr()
    assert run(["train", "--data", "d", "--out", "m", "--batch", "two"]) == 1  # not a number
    err = capsys.readouterr().err
    assert "invalid value 'two'" in err and "Traceback" not in err


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
        ["synth", "--out", "c", "--per-class", "1", "--seed", "-1"],
        ["extract", "--in", "c", "--out", "d", "--seed", "-1"],
        ["train", "--data", "d", "--out", "m", "--seed", "-1"],
        ["synth", "--out", "c", "--per-class", "0"],
        ["synth", "--out", "c", "--per-class", "1", "--ambiguous-frac", "2"],
        ["synth", "--out", "c", "--per-class", "1", "--duration", "0"],
        ["synth", "--out", "c", "--per-class", "1", "--duration", "nan"],
        ["synth", "--out", "c", "--per-class", "1", "--duration", "1e-9"],
        ["synth", "--out", "c", "--per-class", "1", "--duration", "1e12"],
        ["synth", "--out", "c", "--per-class", "1", "--rpm", "0"],
        ["synth", "--out", "c", "--per-class", "1", "--rpm", "-100"],
        ["synth", "--out", "c", "--per-class", "1", "--rpm", "1800,nan"],
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

    # a config value outside a flag's choices is refused like the flag would be
    config.write_text("split=weird\n")
    assert run(["--config", str(config), "eval", "--model", "m", "--data", "d",
                "--out", "r"]) == 1
    assert "split" in capsys.readouterr().err

    # a key that matches no flag of any verb is named, not ignored
    config.write_text("epoch=5\n")
    assert run(["--config", str(config), "train", "--data", "d", "--out", "m"]) == 1
    assert "epoch" in capsys.readouterr().err

    config.write_text("# one epoch\nepochs\n")
    assert run(["--config", str(config), "train", "--data", "d", "--out", "m"]) == 1
    err = capsys.readouterr().err
    assert f"{config}:2: expected key=value" in err and "Traceback" not in err

    config.write_bytes(b"\xffepochs=1\n")
    assert run(["--config", str(config), "train", "--data", "d", "--out", "m"]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_eval_of_an_empty_split_exits_2_and_writes_no_report(tmp_path, capsys):
    corpus, ds, model = tmp_path / "c", tmp_path / "d", tmp_path / "m.chmd"
    assert run(["synth", "--out", str(corpus), "--per-class", "1",
                "--rpm", "1800", "--seed", "0"]) == 0  # no ambiguous recording
    assert run(["extract", "--in", str(corpus), "--out", str(ds), "--seed", "0"]) == 0
    cd.save_model(cd.build_model(0), model)
    capsys.readouterr()
    assert run(["eval", "--model", str(model), "--data", str(ds), "--split", "test2",
                "--out", str(tmp_path / "report")]) == 2
    err = capsys.readouterr().err
    assert "EmptyDataset: split 'test2' is empty" in err and "Traceback" not in err
    assert not (tmp_path / "report").exists()


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
    config.write_text("# comments, blank lines and spacing are read past\n\n  epochs = 1  \n")
    model = tmp_path / "m.chmd"
    assert run([f"--config={config}", "train", "--data", str(ds),
                "--out", str(model), "--seed", "0"]) == 0
    log = (tmp_path / "m.chmd.log.csv").read_text().splitlines()
    assert len(log) == 1 + 1  # header plus the single configured epoch

    # an explicit flag still wins over the config file
    assert run(["--config", str(config), "train", "--data", str(ds),
                "--out", str(model), "--epochs", "2", "--seed", "0"]) == 0
    log = (tmp_path / "m.chmd.log.csv").read_text().splitlines()
    assert len(log) == 1 + 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow on the way
def test_diverging_training_exits_2_and_writes_nothing(tmp_path, capsys):
    corpus, ds = tmp_path / "c", tmp_path / "d"
    assert run(["synth", "--out", str(corpus), "--per-class", "3",
                "--rpm", "1800", "--seed", "5"]) == 0
    assert run(["extract", "--in", str(corpus), "--out", str(ds), "--seed", "2",
                "--test-frac", "0"]) == 0
    config = tmp_path / "run.cfg"
    config.write_text("lr=1e30\nepochs=1\n")
    model = tmp_path / "m.chmd"
    capsys.readouterr()
    assert run(["--config", str(config), "train", "--data", str(ds),
                "--out", str(model), "--seed", "0"]) == 2
    assert "TrainingDiverged" in capsys.readouterr().err
    assert not model.exists() and not (tmp_path / "m.chmd.log.csv").exists()


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
