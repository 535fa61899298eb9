import numpy as np

from perfbench import inputs
from perfbench.checks import batch_size_labels, served_answers_wrong


class _SizeDependentPredictor:
    """Labels the first row 1 in batches of up to two rows, else 0 —
    the shape a batch-size-dependent GEMM gives a near tie."""

    def project(self, theta_a):
        return np.asarray(theta_a) + (len(theta_a) > 2)

    def predict_features(self, theta_p):
        return (theta_p[:, 0] < 1).astype(np.int64)


def test_batch_size_labels_collect_every_size():
    theta_a = np.zeros((5, 3), np.float32)
    labels = batch_size_labels(_SizeDependentPredictor(), theta_a, [0, 3], 4)
    assert labels == {0: {0, 1}, 3: {0, 1}}
    assert batch_size_labels(_SizeDependentPredictor(), theta_a, [1], 2) \
        == {1: {1}}


def test_served_answers_are_checked_per_version_and_batch_size():
    from repro.runtime import BatchedPredictor

    models = inputs.ReadyModels(5, 10)
    images = inputs.queries(5, 8)
    predictor = BatchedPredictor(models.build())
    theta_a = predictor.extract_backbone_features(images)
    version = predictor.model.memory.version
    singles = [int(predictor.predict(images[i:i + 1])[0]) for i in range(8)]
    right = [(i, label, version, version) for i, label in enumerate(singles)]
    assert served_answers_wrong(right, models.build, theta_a, 4)[0] == 0
    wrong_label = [(0, 999, version, version)]
    assert served_answers_wrong(wrong_label, models.build, theta_a, 4) \
        == (1, 0)
    unknown_version = [(0, singles[0], version + 1, version + 1)]
    assert served_answers_wrong(unknown_version, models.build, theta_a,
                                4) == (1, 0)
