"""Labeled frame datasets: build, split, persist.

A dataset is an array of fixed-size frame records (``record_dtype``) and
a manifest of key=value provenance records. The manifest's
``source.<i>.id``, ``.ambiguous`` and ``.spec`` entries describe input i,
and a record's ``source`` field is that i. Its directory holds a UTF-8
``manifest`` and ``frames.bin``: a 16-byte header (magic ``CHDS``,
version 2) and then the records' bytes, exactly n_samples * (4 * n_lines
+ 20) of them.
"""

from __future__ import annotations

import struct
from dataclasses import asdict, dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from . import defaults
from .errors import (
    BadSourceId, CorruptDataset, EmptyDataset, MissingClass,
    make_dir, read_bytes, read_text, write_bytes, write_lines,
)
from .signal_io import CLASS_ORDER, MachiningClass
from .spectral import SpectralConfig, extract_frames, frame_counts, frame_lines_valid

MAGIC = b"CHDS"
FORMAT_VERSION = 2
MANIFEST_FILE = "manifest"
FRAMES_FILE = "frames.bin"


class Split(IntEnum):
    TRAIN = 0
    VAL = 1
    TEST = 2
    TEST2_AMBIGUOUS = 3

    @property
    def token(self) -> str:
        return _SPLIT_TOKENS[self]


_SPLIT_TOKENS = {
    Split.TRAIN: "train",
    Split.VAL: "val",
    Split.TEST: "test",
    Split.TEST2_AMBIGUOUS: "test2",
}


def record_dtype(n_lines: int) -> np.dtype:
    """One frame's record, little-endian and unpadded: 20 bytes of
    bookkeeping, then the renormalized lines as float32."""
    return np.dtype(
        [
            ("source", "<u4"),  # i of the manifest's source.<i>.* entries
            ("frame_index", "<u4"),
            ("t_start", "<f8"),
            ("label", "u1"),  # MachiningClass
            ("split", "u1"),  # Split; TEST2_AMBIGUOUS iff the source is ambiguous
            ("pad", "u1", (2,)),
            ("lines", "<f4", (n_lines,)),
        ]
    )


@dataclass(eq=False)
class LabeledDataset:
    """Frame records (``record_dtype``) and the provenance manifest, whose
    ``source.<i>.*`` entries describe the recording of every record whose
    ``source`` is i. The records ``load_dataset`` returns are a read-only
    view of the file."""

    records: np.ndarray
    manifest: dict[str, str]

    @property
    def n_lines(self) -> int:
        return self.records.dtype["lines"].shape[0]

    @property
    def config(self) -> SpectralConfig:
        """The spectral config the manifest records; an absent field reads
        as its default."""
        try:
            return SpectralConfig(**{
                name: type(default)(self.manifest[name])
                for name, default in asdict(SpectralConfig()).items() if name in self.manifest
            })
        except ValueError as exc:
            raise CorruptDataset(f"manifest spectral config: {exc}") from None

    def __len__(self):
        return len(self.records)

    def __eq__(self, other):
        if not isinstance(other, LabeledDataset):
            return NotImplemented
        return (
            self.manifest == other.manifest
            and self.records.dtype == other.records.dtype
            and np.array_equal(self.records, other.records)
        )

    def split_indices(self, split: Split) -> np.ndarray:
        return np.flatnonzero(self.records["split"] == split)

    def split_arrays(self, split: Split):
        """(lines, labels) arrays for one split: float32 (n, n_lines), int64 (n,)."""
        mask = self.records["split"] == split
        return self.records["lines"][mask], self.records["label"][mask].astype(np.int64)


def stratified_split(
    labels: np.ndarray,
    ambiguous: np.ndarray,
    split_seed: int,
    test_fraction: float,
) -> np.ndarray:
    """Assign splits per class: ambiguous samples all go to the held-out
    ambiguous test split; the rest are shuffled per class, floor(test_fraction)
    go to Test, then floor(defaults.VAL_FRACTION) of the remainder to Val,
    remainder to Train."""
    if not 0 <= test_fraction < 1:
        raise ValueError("test_fraction must lie in [0, 1)")
    labels = np.asarray(labels)
    ambiguous = np.asarray(ambiguous, dtype=bool)
    out = np.full(labels.shape, int(Split.TEST2_AMBIGUOUS), dtype=np.int8)
    rng = np.random.default_rng(split_seed)
    for cls in CLASS_ORDER:
        idx = np.flatnonzero((labels == int(cls)) & ~ambiguous)
        idx = idx[rng.permutation(idx.size)]
        n_test = int(np.floor(test_fraction * idx.size))
        n_val = int(np.floor(defaults.VAL_FRACTION * (idx.size - n_test)))
        out[idx[:n_test]] = int(Split.TEST)
        out[idx[n_test : n_test + n_val]] = int(Split.VAL)
        out[idx[n_test + n_val :]] = int(Split.TRAIN)
    return out


def _count_key(split: Split, cls: MachiningClass) -> str:
    return f"count.{split.token}.{cls.token}"


def build_dataset(
    pairs,
    config: SpectralConfig = SpectralConfig(),
    split_seed: int = 0,
    test_fraction: float = defaults.TEST_FRACTION,
    source_ids=None,
    source_specs=None,
) -> LabeledDataset:
    """Turn (TimeSignal, LabelTrack, ambiguous) triples into a split dataset.

    A frame is kept only when its [t_start, t_start + window) span lies
    fully inside one labeled interval; straddling or unlabeled frames are
    dropped and counted in the manifest.
    """
    pairs = list(pairs)
    if source_ids is None:
        source_ids = [f"signal-{i:04d}" for i in range(len(pairs))]
    if len(source_ids) != len(pairs):
        raise ValueError("source_ids must parallel pairs")
    for source_id in source_ids:
        # the manifest is read by str.splitlines
        if "".join(source_id.splitlines()) != source_id:
            raise BadSourceId(f"source id {source_id!r} holds a line break")

    # room for every frame; the kept ones are packed to the front
    framing = [frame_counts(s.samples.size, s.sample_rate_hz, config) for s, _, _ in pairs]
    n_frames = sum(n for _, _, n in framing)
    records = np.zeros(n_frames, dtype=record_dtype(config.n_lines))
    kept = 0
    for source, ((signal, track, _), (_, window_n, _)) in enumerate(zip(pairs, framing)):
        window_s = window_n / signal.sample_rate_hz
        for frame in extract_frames(signal, config):
            label = track.label_for_span(frame.t_start_s, frame.t_start_s + window_s)
            if label is None:
                continue
            records[kept] = (source, frame.frame_index, frame.t_start_s, label, 0, 0,
                             frame.lines)
            kept += 1
    if not kept:
        raise EmptyDataset("no frame fell inside a labeled interval")
    records = records[:kept]
    ambiguous = np.array([bool(a) for _, _, a in pairs])
    records["split"] = stratified_split(
        records["label"], ambiguous[records["source"]], split_seed, test_fraction
    )

    # counts[split, class]; the unambiguous frames are the non-test2 splits
    counts = np.bincount(
        records["split"] * len(CLASS_ORDER) + records["label"],
        minlength=len(Split) * len(CLASS_ORDER),
    ).reshape(len(Split), len(CLASS_ORDER))
    missing = counts[: Split.TEST2_AMBIGUOUS].any(axis=0) & (counts[Split.TRAIN] == 0)
    if missing.any():
        names = ", ".join(cls.token for cls in CLASS_ORDER if missing[cls])
        raise MissingClass(f"no training samples for class(es): {names}")

    manifest = {
        "format": "chatterdetect-dataset",
        "version": str(FORMAT_VERSION),
        "n_lines": str(config.n_lines),
        "hop_s": repr(config.hop_s),
        "window_s": repr(config.window_s),
        "f_min_hz": "0.0",
        "f_max_hz": repr(config.f_max_hz),
        "crop_db": repr(config.crop_db),
        "taper": "hann",
        "split_seed": str(split_seed),
        "test_fraction": repr(test_fraction),
        "dropped_frames": str(n_frames - kept),
        "n_samples": str(kept),
    }
    for split in Split:
        for cls in CLASS_ORDER:
            manifest[_count_key(split, cls)] = str(counts[split, cls])
    manifest["n_sources"] = str(len(pairs))
    for i, source_id in enumerate(source_ids):
        manifest[f"source.{i}.id"] = source_id
        manifest[f"source.{i}.ambiguous"] = "1" if ambiguous[i] else "0"
        if source_specs is not None and source_specs[i]:
            manifest[f"source.{i}.spec"] = source_specs[i]

    return LabeledDataset(records, manifest)


def class_distribution(ds: LabeledDataset, split: Split) -> dict[MachiningClass, int]:
    labels = ds.records["label"][ds.records["split"] == split]
    counts = np.bincount(labels, minlength=len(CLASS_ORDER))
    return {cls: int(counts[cls]) for cls in CLASS_ORDER}


def save_dataset(ds: LabeledDataset, out_dir) -> None:
    out = make_dir(out_dir)
    header = struct.pack("<4sIII", MAGIC, FORMAT_VERSION, ds.n_lines, len(ds))
    write_bytes(out / FRAMES_FILE, header, np.ascontiguousarray(ds.records))
    write_lines(out / MANIFEST_FILE, [f"{k}={v}" for k, v in ds.manifest.items()])


def load_dataset(in_dir) -> LabeledDataset:
    src = Path(in_dir)
    manifest_text = read_text(src / MANIFEST_FILE, CorruptDataset)
    blob = read_bytes(src / FRAMES_FILE)

    manifest: dict[str, str] = {}
    for line in manifest_text.splitlines():
        if not line.strip():
            continue
        if "=" not in line:
            raise CorruptDataset(f"bad manifest line {line!r}")
        key, value = line.split("=", 1)
        manifest[key] = value

    if len(blob) < 16:
        raise CorruptDataset("frames.bin shorter than its header")
    magic, version, n_lines, n_samples = struct.unpack_from("<4sIII", blob)
    if magic != MAGIC:
        raise CorruptDataset(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise CorruptDataset(f"unsupported version {version}")
    if n_lines == 0:
        raise CorruptDataset("frames.bin declares frames of zero lines")
    try:
        dtype = record_dtype(n_lines)
    except ValueError:  # numpy refuses records of 2 GiB or more
        raise CorruptDataset(f"frames.bin declares {n_lines} lines per frame") from None
    expected = 16 + n_samples * dtype.itemsize
    if len(blob) != expected:
        raise CorruptDataset(
            f"frames.bin is {len(blob)} bytes, expected exactly {expected}"
        )
    ds = LabeledDataset(np.frombuffer(blob, dtype=dtype, offset=16), manifest)
    records, config = ds.records, ds.config
    if config.n_lines != n_lines:
        raise CorruptDataset(f"manifest says {config.n_lines} lines, frames.bin {n_lines}")
    try:
        counted, n_sources = int(manifest["n_samples"]), int(manifest["n_sources"])
    except (KeyError, ValueError):
        raise CorruptDataset("manifest n_samples or n_sources missing or not an integer") from None
    if counted != n_samples:
        raise CorruptDataset(f"manifest says {counted} frames, frames.bin {n_samples}")
    if np.any(records["label"] > 2) or np.any(records["split"] > 3):
        raise CorruptDataset("label or split code out of range")
    if not np.all(frame_lines_valid(records["lines"], config.crop_db)):
        raise CorruptDataset("frame violates the renormalization invariants")
    if np.any(records["source"] >= n_sources):
        raise CorruptDataset("source index out of range")
    return ds
