import math
import struct
from pathlib import Path

import numpy as np
import pytest

import chatterdetect as cd


@pytest.fixture(scope="session")
def small_corpus():
    """18 signals (6 ambiguous), two spindle speeds; shared across tests."""
    return cd.generate_corpus(6, 1.0 / 3.0, [1800, 3000], seed=1234)


@pytest.fixture(scope="session")
def small_dataset(small_corpus):
    return cd.build_dataset(
        [(it.signal, it.labels, it.ambiguous) for it in small_corpus],
        split_seed=99,
        test_fraction=0.25,
        source_ids=[it.item_id for it in small_corpus],
    )


@pytest.fixture(scope="session")
def real_frames(small_corpus):
    """A handful of genuine renormalized frames, one per corpus signal."""
    return [cd.extract_frames(it.signal)[0].lines for it in small_corpus[:6]]


@pytest.fixture(scope="session")
def trained_small_model(small_dataset):
    model = cd.build_model(7)
    cd.train(model, small_dataset, cd.Hyperparameters(epochs=4, rng_seed=7))
    return model


# The version 1 model file's layer table for 1024 lines and dropout 0.3:
# (struct format, layer code, sizes...) per layer. Codes: 1 conv, 2 relu,
# 3 max pool, 4 flatten, 5 dense, 6 dropout.
V1_LAYERS = [
    ("<BIII", 1, 1, 16, 7), ("<B", 2), ("<BI", 3, 4),
    ("<BIII", 1, 16, 32, 5), ("<B", 2), ("<BI", 3, 4),
    ("<B", 4),
    ("<BII", 5, 62 * 32, 128), ("<B", 2), ("<Bf", 6, 0.3),
    ("<BII", 5, 128, 64), ("<B", 2),
    ("<BII", 5, 64, 3),
]


def write_v1_model(path, weights=None, *, layers=V1_LAYERS, n_lines=1024, n_classes=3,
                   seed=0, floor=-20.0):
    """Write a version 1 model file: header, `layers` as a table, then
    `weights` as f32, by default zeros for every weight the table's conv
    (c_in, c_out, k) and dense (n_in, n_out) layers hold."""
    if weights is None:
        weights = np.zeros(sum(math.prod(sizes) + sizes[1] for _, code, *sizes in layers
                               if code in (1, 5)))
    header = struct.pack("<4sIIIqfI", b"CHMD", 1, n_lines, n_classes, seed, floor, len(layers))
    table = b"".join(struct.pack(fmt, *fields) for fmt, *fields in layers)
    Path(path).write_bytes(header + table + np.asarray(weights, dtype="<f4").tobytes())
