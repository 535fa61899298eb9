"""Seeded inputs and ready models for the workloads.

Everything a workload feeds the program is a pure function of the
``--seed`` argument; the program itself receives only the generated arrays.
Model weights come from fixed seeds: they are part of the system under
test, not of the workload.
"""

from __future__ import annotations

import numpy as np

BACKBONE = "mobilenetv2_x4_tiny"
MODEL_SEED = 7
IMAGE_SHAPE = (3, 16, 16)
SESSION_QUERIES = 2048
EVAL_CLASSES = 100
SERVE_CLASSES = 60
SHOTS = 5
WAYS = 5
SESSIONS = 8

#: Stream tags keep the generators of different inputs independent, so
#: adding an input never changes the others for the same seed.
_TAGS = {"queries": 1, "base": 2, "shots": 3, "arrivals": 4}


def rng_for(seed: int, tag: str, *extra: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _TAGS[tag], *extra])


def queries(seed: int, count: int, *extra: int) -> np.ndarray:
    """``count`` seeded query images of :data:`IMAGE_SHAPE`."""
    return rng_for(seed, "queries", *extra).standard_normal(
        (count, *IMAGE_SHAPE)).astype(np.float32)


def learn_sessions(seed: int, repeat: int, first_class: int) -> list:
    """The paper's incremental protocol: ``SESSIONS`` sessions of
    ``WAYS``-way ``SHOTS``-shot classes, as ``(class_id, shots)`` pairs."""
    rng = rng_for(seed, "shots", repeat)
    shots = rng.standard_normal(
        (SESSIONS * WAYS, SHOTS, *IMAGE_SHAPE)).astype(np.float32)
    return [(first_class + index, shots[index])
            for index in range(SESSIONS * WAYS)]


def poisson_offsets(seed: int, rate: float, count: int, *extra: int
                    ) -> np.ndarray:
    """Due times (seconds from the start) of a Poisson arrival process."""
    gaps = rng_for(seed, "arrivals", int(rate), *extra).exponential(
        1.0 / rate, count)
    return np.cumsum(gaps)


class ReadyModels:
    """Builds ready models of one mode: fresh weights on every
    :meth:`build`, memory filled with ``num_classes`` base classes.

    The base classes are the mean embeddings of seeded 5-shot sets, as in
    the paper's base session.  They are embedded once, by a separate model
    of the same weights, so a built model has compiled nothing yet.  The
    int8 recipe (``tests/int8_fixtures.py``) learns its own fixture classes
    first; the seeded ones fill the memory up to ``num_classes``.
    """

    def __init__(self, seed: int, num_classes: int, mode: str = "float32"):
        from repro.runtime import BatchedPredictor

        self.mode = mode
        embedder = self._fresh()
        count = num_classes - embedder.memory.num_classes
        shots = rng_for(seed, "base").standard_normal(
            (count * SHOTS, *IMAGE_SHAPE)).astype(np.float32)
        features = BatchedPredictor(embedder, mode=mode).embed(shots)
        self.features = features.reshape(count, SHOTS, -1)

    def _fresh(self):
        if self.mode == "int8":
            import int8_fixtures

            return int8_fixtures.build_quantized_model()[0]
        from repro.core import OFSCIL, OFSCILConfig

        return OFSCIL.from_registry(BACKBONE,
                                    OFSCILConfig(backbone=BACKBONE),
                                    seed=MODEL_SEED)

    def build(self):
        model = self._fresh()
        first = model.memory.num_classes
        for index, features in enumerate(self.features):
            model.memory.update_class(first + index, features)
        return model
