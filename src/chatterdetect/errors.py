"""Exception taxonomy for the chatter detection pipeline.

Everything raised on purpose derives from ChatterError, so callers (and
the CLI) can tell pipeline failures apart from plain bugs.
"""


class ChatterError(Exception):
    """Base class for all pipeline errors."""


# signal I/O

class MalformedContainer(ChatterError):
    """Not a usable RIFF/WAVE file (bad header, missing or truncated chunks)."""


class UnsupportedEncoding(ChatterError):
    """WAV encoding other than 16-bit PCM or 32-bit IEEE float."""


class SampleRateTooLow(ChatterError):
    """Sample rate cannot cover the 0-2500 Hz analysis band."""


class NonFiniteSamples(ChatterError):
    """A signal holds NaN or infinite samples, or has a non-finite sample rate."""


class IoFailure(ChatterError):
    """Underlying OS-level read/write failure."""


class AmplitudeOutOfRange(ChatterError):
    """Sample magnitude exceeds 1.0, cannot be written as 16-bit PCM."""


class ParseError(ChatterError):
    """Malformed record in a label CSV."""


class UnknownLabel(ChatterError):
    """Label token outside {chatter, machining, rotation}, or a class code
    outside 0..2."""


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


# synthesis

class InfeasibleSpec(ChatterError):
    """No admissible chatter tone exists for the requested parameters."""


# dataset

class EmptyDataset(ChatterError):
    """No frame survived labelling, or a required split is empty."""


class MissingClass(ChatterError):
    """A class that should be present in the training split is not."""


class BadSourceId(ChatterError):
    """Source id holds a separator of the dataset manifest: | or a line break."""


class CorruptDataset(ChatterError):
    """Dataset directory failed validation (magic, version, size, invariants)."""


# model

class WrongInputLength(ChatterError):
    """Classifier input is not exactly n_inputs values."""


class FeatureMismatch(ChatterError):
    """Frames were extracted with a spectral config the model does not take."""


class CorruptModel(ChatterError):
    """Model file failed validation (magic, version, header, network, weights)."""


# evaluation

class LengthMismatch(ChatterError):
    """Predictions and labels differ in length."""


class EmptyInput(ChatterError):
    """Evaluation called with no samples."""


class EmptyMatrix(ChatterError):
    """Confusion matrix has zero total count."""


class DegenerateClass(ChatterError):
    """ROC requested for a class with no positives or no negatives."""
