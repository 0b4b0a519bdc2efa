"""Pinned pipeline defaults.

Single source of truth for the preprocessing and training constants; the
CLI flags and the config dataclasses must agree with these values (there
is a conformance test asserting exactly that).
"""

# recording / synthesis
SAMPLE_RATE_HZ = 22050

# spectral preprocessing
HOP_S = 0.1
WINDOW_S = 0.1
N_LINES = 1024
F_MIN_HZ = 0.0
F_MAX_HZ = 2500.0
CROP_DB = 20.0

# training
BATCH_SIZE = 2
LEARNING_RATE = 0.0001
EPOCHS = 30
DROPOUT_RATE = 0.3
RMSPROP_RHO = 0.9
RMSPROP_EPSILON = 1e-7

# dataset splitting
VAL_FRACTION = 0.3
TEST_FRACTION = 0.2
