"""Exception taxonomy for the chatter detection pipeline.

Everything raised on purpose derives from ChatterError, so callers (and
the CLI) can tell pipeline failures apart from plain bugs. Every artifact
is read, written and removed through the helpers below `IoFailure`, which
turn an OSError into an IoFailure naming the file.
"""

from pathlib import Path


class ChatterError(Exception):
    """Base class for all pipeline errors."""


# signal I/O

class MalformedContainer(ChatterError):
    """Not a usable RIFF/WAVE file (bad header, missing or truncated chunks)."""


class UnsupportedEncoding(ChatterError):
    """WAV encoding other than 16-bit PCM or 32-bit IEEE float, or a sample
    rate or sample count that `save_wav`'s 16-bit PCM header cannot hold."""


class SampleRateTooLow(ChatterError):
    """Sample rate is not positive (zero in a WAV header); a band the rate
    cannot cover is `BandExceedsNyquist`."""


class NonFiniteSamples(ChatterError):
    """A signal holds NaN or infinite samples or has a non-finite sample
    rate, a frame given to the classifier holds a NaN or infinite line, or
    class probabilities given to `roc` or `build_report` hold a NaN or
    infinite value."""


class IoFailure(ChatterError):
    """Underlying OS-level read/write failure."""


def read_bytes(path) -> bytes:
    """The whole file at `path`."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def read_text(path, not_utf8: type[ChatterError]) -> str:
    """The file at `path` as UTF-8 text, line endings untranslated; bytes
    that are not UTF-8 raise `not_utf8`."""
    try:
        return read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise not_utf8(f"{path} is not UTF-8: {exc}") from None


def write_bytes(path, *parts) -> None:
    """Write bytes objects or C-contiguous arrays to `path` in order,
    through one open file, without first joining them into one bytes."""
    try:
        with open(path, "wb") as f:
            for part in parts:
                f.write(part)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def write_lines(path, lines) -> None:
    """Write `lines` to `path` as UTF-8, each ended by a newline."""
    write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


def remove_file(path) -> None:
    """Delete the file at `path` if there is one."""
    try:
        Path(path).unlink(missing_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot remove {path}: {exc}") from exc


def make_dir(path) -> Path:
    """Create the directory `path` and its parents unless it exists."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {path}: {exc}") from exc
    return out


class AmplitudeOutOfRange(ChatterError):
    """Sample magnitude exceeds 1.0, cannot be written as 16-bit PCM."""


class ParseError(ChatterError):
    """Malformed record in a label CSV."""


class UnknownLabel(ChatterError):
    """Label token outside {chatter, machining, rotation}, or a class code
    that is not a MachiningClass."""


class OverlappingIntervals(ChatterError):
    """Two label intervals overlap in time."""


class EmptyTrack(ChatterError):
    """Label file contains no intervals."""


# spectral

class WindowTooShort(ChatterError):
    """Analysis window resolves to fewer than 16 samples."""


class HopTooShort(ChatterError):
    """Frame hop resolves to zero samples."""


class BandExceedsNyquist(ChatterError):
    """Requested band upper edge lies above sample_rate / 2."""


class FftTooLong(ChatterError):
    """The window or the line spacing needs an FFT of more than 2**18 points."""


# synthesis

class InfeasibleSpec(ChatterError):
    """No admissible chatter tone exists for the requested parameters."""


# dataset

class EmptyDataset(ChatterError):
    """No frame survived labelling, or a required split is empty."""


class MissingClass(ChatterError):
    """A class that should be present in the training split is not."""


class BadSourceId(ChatterError):
    """Source id or spec holds a line break, which would split its manifest line."""


class CorruptDataset(ChatterError):
    """Dataset directory failed validation (magic, version, size, invariants)."""


# model

class WrongInputLength(ChatterError):
    """Classifier input is not exactly n_inputs values."""


class FeatureMismatch(ChatterError):
    """Frames were extracted with a spectral config the model does not take."""


class CorruptModel(ChatterError):
    """Model file failed validation (magic, version, header, network, weights)."""


class TrainingDiverged(ChatterError):
    """An epoch ended with a NaN or infinite train or validation loss."""


# evaluation

class LengthMismatch(ChatterError):
    """Predictions and labels differ in length, or probabilities are not
    one column per class."""


class EmptyInput(ChatterError):
    """Evaluation called with no samples."""


class EmptyMatrix(ChatterError):
    """Confusion matrix has zero total count."""


class DegenerateClass(ChatterError):
    """ROC requested for a class with no positives or no negatives."""
