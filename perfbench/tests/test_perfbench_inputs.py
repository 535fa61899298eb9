import numpy as np

from perfbench import inputs


def _all_inputs(seed):
    return [inputs.queries(seed, 16),
            inputs.ReadyModels(seed, 4).features,
            np.stack([shots for _, shots in
                      inputs.learn_sessions(seed, 1, 60)]),
            inputs.poisson_offsets(seed, 500, 32)]


def test_same_seed_gives_identical_inputs():
    for first, second in zip(_all_inputs(3), _all_inputs(3)):
        assert first.dtype == second.dtype
        np.testing.assert_array_equal(first, second)


def test_other_seed_gives_other_inputs():
    for first, second in zip(_all_inputs(3), _all_inputs(4)):
        assert not np.array_equal(first, second)


def test_learn_sessions_follow_the_protocol():
    sessions = inputs.learn_sessions(0, 0, 60)
    assert len(sessions) == inputs.SESSIONS * inputs.WAYS
    assert [class_id for class_id, _ in sessions] == list(range(60, 100))
    assert all(shots.shape == (inputs.SHOTS, *inputs.IMAGE_SHAPE)
               for _, shots in sessions)


def test_ready_models_are_deterministic_and_uncompiled():
    first = inputs.ReadyModels(5, 10).build()
    second = inputs.ReadyModels(5, 10).build()
    assert first.memory.class_ids == list(range(10))
    for class_id in first.memory.class_ids:
        np.testing.assert_array_equal(first.memory.prototype(class_id),
                                      second.memory.prototype(class_id))
    assert first._predictor is None      # set-up timing starts cold


def test_int8_ready_model_keeps_the_fixture_classes():
    model = inputs.ReadyModels(5, 12, "int8").build()
    assert model.memory.class_ids == list(range(12))
