"""Every artifact reader, writer and remover turns an OS-level failure
into an IoFailure whose message names the exact file or directory at
fault.

The failures are ones that root cannot bypass either: a write whose
parent is a regular file, a write onto a directory, a read of a file
that is missing or is a directory, and the removal of a directory.
"""

from argparse import Namespace
from types import SimpleNamespace

import numpy as np
import pytest

import chatterdetect as cd
from chatterdetect.cli import cmd_predict
from chatterdetect.dataset import FRAMES_FILE, MANIFEST_FILE
from chatterdetect.errors import IoFailure
from chatterdetect.model import EpochStats
from chatterdetect.synth import MANIFEST_NAME


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory, small_corpus, small_dataset):
    saved = tmp_path_factory.mktemp("saved")
    model = cd.build_model(0)
    cd.save_model(model, saved / "m.chmd")
    cd.save_wav(small_corpus[0].signal, saved / "a.wav")
    return SimpleNamespace(
        corpus=small_corpus[:1],
        dataset=small_dataset,
        frame=cd.extract_frames(small_corpus[0].signal)[0],
        log=[EpochStats(1, 1.0, 0.5, 1.0, 0.5)],
        model=model,
        model_path=saved / "m.chmd",
        report=cd.build_report(np.eye(3), [0, 1, 2]),
        wav_path=saved / "a.wav",
    )


def _predict(a, emit_frames):
    return cmd_predict(Namespace(model=a.model_path, wav=a.wav_path, emit_frames=emit_frames))


# writers of a directory: (write into it, the first file written there)
DIR_WRITERS = {
    "save_dataset": (lambda a, p: cd.save_dataset(a.dataset, p), FRAMES_FILE),
    "emit_report": (lambda a, p: cd.emit_report(a.report, p), "confusion.csv"),
    "write_corpus": (lambda a, p: cd.write_corpus(a.corpus, p), MANIFEST_NAME),
    "predict-emit-frames": (_predict, "frame_00000.pgm"),
}

FILE_WRITERS = {
    "save_model": lambda a, p: cd.save_model(a.model, p),
    "save_training_log": lambda a, p: cd.save_training_log(a.log, p),
    "save_wav": lambda a, p: cd.save_wav(a.corpus[0].signal, p),
    "save_labels": lambda a, p: cd.save_labels(a.corpus[0].labels, p),
    "export_frame_pgm": lambda a, p: cd.export_frame_pgm(a.frame, p),
}


def _under_a_file(tmp):
    (tmp / "plain").write_bytes(b"")
    return tmp / "plain" / "x"


def _dir_writer_cases(name, write, first_file):
    def under_a_file(tmp, a):
        path = _under_a_file(tmp)
        return lambda: write(a, path), "create", path

    def onto_a_directory(tmp, a):
        (tmp / "out" / first_file).mkdir(parents=True)
        return lambda: write(a, tmp / "out"), "write", tmp / "out" / first_file

    return {f"{name}-under-a-file": under_a_file, f"{name}-onto-a-directory": onto_a_directory}


def _file_writer_cases(name, write):
    def under_a_file(tmp, a):
        path = _under_a_file(tmp)
        return lambda: write(a, path), "write", path

    def onto_a_directory(tmp, a):
        (tmp / "out").mkdir()
        return lambda: write(a, tmp / "out"), "write", tmp / "out"

    return {f"{name}-under-a-file": under_a_file, f"{name}-onto-a-directory": onto_a_directory}


def _dataset_without_frames(tmp, a):
    cd.save_dataset(a.dataset, tmp / "ds")
    (tmp / "ds" / FRAMES_FILE).unlink()
    return lambda: cd.load_dataset(tmp / "ds"), "read", tmp / "ds" / FRAMES_FILE


def _corpus_without_wav(tmp, a):
    cd.write_corpus(a.corpus, tmp / "c")
    wav = next((tmp / "c").glob("*.wav"))
    wav.unlink()
    return lambda: cd.read_corpus(tmp / "c"), "read", wav


def _corpus_manifest_a_directory(tmp, a):
    (tmp / "c" / MANIFEST_NAME).mkdir(parents=True)
    return lambda: cd.read_corpus(tmp / "c"), "read", tmp / "c" / MANIFEST_NAME


def _stale_roc_a_directory(tmp, a):
    (tmp / "out" / "roc_rotation.csv").mkdir(parents=True)
    report = cd.build_report(np.eye(3)[:2], [0, 1])  # no rotation curve
    return lambda: cd.emit_report(report, tmp / "out"), "remove", tmp / "out" / "roc_rotation.csv"


def _missing(read, name=None):
    def case(tmp, a):
        path = tmp / "missing"
        return lambda: read(path), "read", path / name if name else path

    return case


CASES = {
    "load_dataset-no-manifest": _missing(cd.load_dataset, MANIFEST_FILE),
    "load_dataset-no-frames-bin": _dataset_without_frames,
    "load_model-missing": _missing(cd.load_model),
    "load_wav-missing": _missing(cd.load_wav),
    "load_labels-missing": _missing(cd.load_labels),
    "read_corpus-manifest-a-directory": _corpus_manifest_a_directory,
    "read_corpus-wav-missing": _corpus_without_wav,
    "emit_report-stale-roc-a-directory": _stale_roc_a_directory,
}
for name, (write, first_file) in DIR_WRITERS.items():
    CASES.update(_dir_writer_cases(name, write, first_file))
for name, write in FILE_WRITERS.items():
    CASES.update(_file_writer_cases(name, write))


@pytest.mark.parametrize("case", list(CASES))
def test_io_failure_names_the_path(tmp_path, artifacts, case):
    call, verb, path = CASES[case](tmp_path, artifacts)
    with pytest.raises(IoFailure) as info:
        call()
    assert str(info.value).startswith(f"cannot {verb} {path}: ")
