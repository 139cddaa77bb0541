import pytest

from richlab.errors import (
    DataError,
    EpisodeError,
    NumericalError,
    ParameterError,
    ShapeError,
    TrainingError,
    named,
)


@pytest.mark.parametrize("failure,epoch", [
    (NumericalError("zero norm"), None),
    (TrainingError("training diverged at epoch 3", epoch=3), 3),
    (EpisodeError("episode with seed 5 diverged", seed=5, epoch=4), 4),
])
def test_named_converts_a_training_failure(failure, epoch):
    with pytest.raises(EpisodeError) as info:
        with named("cat with seed 7: ", seed=7):
            raise failure
    assert str(info.value) == f"cat with seed 7: {failure}"
    assert (info.value.seed, info.value.epoch) == (7, epoch)
    assert info.value.__cause__ is failure


def test_named_without_a_seed_names_none():
    with pytest.raises(EpisodeError) as info:
        with named("cosine classifier of episode 2 failed: "):
            raise TrainingError("training diverged at epoch 0", epoch=0)
    assert str(info.value) == "cosine classifier of episode 2 failed: training diverged at epoch 0"
    assert (info.value.seed, info.value.epoch) == (None, 0)


@pytest.mark.parametrize("failure", [
    ParameterError("lr must be positive"),
    DataError("labels out of range"),
    ShapeError("widths disagree"),
    ValueError("plain"),
])
def test_named_lets_other_failures_through(failure):
    with pytest.raises(type(failure)) as info:
        with named("cat with seed 7: ", seed=7):
            raise failure
    assert info.value is failure
    assert info.value.__cause__ is None


def test_named_does_nothing_when_the_block_succeeds():
    with named("cat with seed 7: ", seed=7):
        value = 3
    assert value == 3
