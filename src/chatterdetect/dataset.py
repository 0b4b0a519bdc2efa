"""Labeled frame datasets: build, split, persist.

A dataset is an array of fixed-size frame records (``record_dtype``), the
source ids they index and a manifest of key=value provenance records. Its
directory holds a UTF-8 ``manifest`` (the source ids on its
``frames.sources`` line) and ``frames.bin``: a 16-byte header (magic
``CHDS``) and then the records' bytes, exactly n_samples * (4 * n_lines +
20) of them.
"""

from __future__ import annotations

import struct
from dataclasses import asdict, dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from . import defaults
from .errors import BadSourceId, CorruptDataset, EmptyDataset, IoFailure, MissingClass
from .signal_io import CLASS_ORDER, MachiningClass
from .spectral import SpectralConfig, extract_frames, frame_counts, frame_lines_valid

MAGIC = b"CHDS"
FORMAT_VERSION = 1
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
            ("source", "<u4"),  # index into LabeledDataset.sources
            ("frame_index", "<u4"),
            ("t_start", "<f8"),
            ("label", "u1"),  # MachiningClass
            ("split", "u1"),  # Split
            ("ambiguous", "u1"),
            ("pad", "u1"),
            ("lines", "<f4", (n_lines,)),
        ]
    )


@dataclass(eq=False)
class LabeledDataset:
    """Frame records (``record_dtype``), the source ids their ``source``
    field indexes in first-seen order, and the provenance manifest. The
    records ``load_dataset`` returns are a read-only view of the file."""

    records: np.ndarray
    sources: list[str]
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
            self.sources == other.sources
            and self.manifest == other.manifest
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
    val_fraction: float = defaults.VAL_FRACTION,
) -> np.ndarray:
    """Assign splits per class: ambiguous samples all go to the held-out
    ambiguous test split; the rest are shuffled per class, floor(test_fraction)
    go to Test, then floor(val_fraction) of the remainder to Val, remainder
    to Train."""
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
        n_val = int(np.floor(val_fraction * (idx.size - n_test)))
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
        # the manifest is read by str.splitlines and joins the ids with |
        if "|" in source_id or "".join(source_id.splitlines()) != source_id:
            raise BadSourceId(f"source id {source_id!r} holds | or a line break")

    # room for every frame; the kept ones are packed to the front
    framing = [frame_counts(s.samples.size, s.sample_rate_hz, config) for s, _, _ in pairs]
    n_frames = sum(n for _, _, n in framing)
    records = np.zeros(n_frames, dtype=record_dtype(config.n_lines))
    source_index: dict[str, int] = {}
    kept = 0
    for (signal, track, ambiguous), source_id, (_, window_n, _) in zip(
        pairs, source_ids, framing
    ):
        window_s = window_n / signal.sample_rate_hz
        for frame in extract_frames(signal, config):
            label = track.label_for_span(frame.t_start_s, frame.t_start_s + window_s)
            if label is None:
                continue
            source = source_index.setdefault(source_id, len(source_index))
            records[kept] = (source, frame.frame_index, frame.t_start_s, label, 0,
                             bool(ambiguous), 0, frame.lines)
            kept += 1
    if not kept:
        raise EmptyDataset("no frame fell inside a labeled interval")
    records = records[:kept]
    records["split"] = stratified_split(
        records["label"], records["ambiguous"], split_seed, test_fraction
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
        manifest[f"source.{i}.ambiguous"] = "1" if pairs[i][2] else "0"
        if source_specs is not None and source_specs[i]:
            manifest[f"source.{i}.spec"] = source_specs[i]

    return LabeledDataset(records, list(source_index), manifest)


def class_distribution(ds: LabeledDataset, split: Split) -> dict[MachiningClass, int]:
    labels = ds.records["label"][ds.records["split"] == split]
    counts = np.bincount(labels, minlength=len(CLASS_ORDER))
    return {cls: int(counts[cls]) for cls in CLASS_ORDER}


def save_dataset(ds: LabeledDataset, out_dir) -> None:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {out}: {exc}") from exc

    header = struct.pack("<4sIII", MAGIC, FORMAT_VERSION, ds.n_lines, len(ds))
    manifest_lines = [f"{k}={v}" for k, v in ds.manifest.items()]
    manifest_lines.append(f"frames.sources={'|'.join(ds.sources)}")
    try:
        with open(out / FRAMES_FILE, "wb") as f:
            f.write(header)
            ds.records.tofile(f)
        (out / MANIFEST_FILE).write_text(
            "\n".join(manifest_lines) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        raise IoFailure(f"cannot write dataset to {out}: {exc}") from exc


def load_dataset(in_dir) -> LabeledDataset:
    src = Path(in_dir)
    try:
        manifest_text = (src / MANIFEST_FILE).read_text(encoding="utf-8")
        blob = (src / FRAMES_FILE).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read dataset from {src}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CorruptDataset(f"manifest is not UTF-8: {exc}") from None

    manifest: dict[str, str] = {}
    for line in manifest_text.splitlines():
        if not line.strip():
            continue
        if "=" not in line:
            raise CorruptDataset(f"bad manifest line {line!r}")
        key, value = line.split("=", 1)
        manifest[key] = value
    sources = manifest.pop("frames.sources", "").split("|")

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
    ds = LabeledDataset(np.frombuffer(blob, dtype=dtype, offset=16), sources, manifest)
    records, config = ds.records, ds.config
    if config.n_lines != n_lines:
        raise CorruptDataset(f"manifest says {config.n_lines} lines, frames.bin {n_lines}")
    if np.any(records["label"] > 2) or np.any(records["split"] > 3):
        raise CorruptDataset("label or split code out of range")
    if np.any((records["ambiguous"] != 0) != (records["split"] == Split.TEST2_AMBIGUOUS)):
        raise CorruptDataset("ambiguous flag inconsistent with split assignment")
    if not np.all(frame_lines_valid(records["lines"], config.crop_db)):
        raise CorruptDataset("frame violates the renormalization invariants")
    if np.any(records["source"] >= len(sources)):
        raise CorruptDataset("source index out of range")
    return ds
