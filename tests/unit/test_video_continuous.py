"""Unit tests for continuous fidelity dimensions and the video app."""

import pytest

from repro.apps import (
    FULL_FRAME_RATE,
    VideoModel,
    make_video_spec,
    video_fidelity_desirability,
)
from repro.core import OperationSpec, local_plan, remote_plan
from repro.core.plans import Alternative
from repro.odyssey import (
    FidelityDimension,
    FidelitySpec,
    continuous_dimension,
)


class TestContinuousDimension:
    def test_grid_spans_range_evenly(self):
        dim = continuous_dimension("fps", 5.0, 30.0, steps=6)
        assert dim.values == (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
        assert dim.continuous

    def test_validation(self):
        with pytest.raises(ValueError):
            continuous_dimension("x", 5.0, 5.0)
        with pytest.raises(ValueError):
            continuous_dimension("x", 0.0, 1.0, steps=1)
        with pytest.raises(ValueError):
            FidelityDimension("x", ("a", "b"), continuous=True)

    def test_discrete_default(self):
        dim = FidelityDimension("vocab", ("full", "reduced"))
        assert not dim.continuous


class TestDecisionContext:
    def make_spec(self):
        return OperationSpec(
            "op", (local_plan(), remote_plan()),
            FidelitySpec([
                continuous_dimension("fps", 5.0, 30.0, steps=2),
                FidelityDimension("codec", ("a", "b")),
            ]),
            input_params=("n",),
        )

    def test_split_between_bins_and_features(self):
        spec = self.make_spec()
        alternative = Alternative.build(
            spec.plan("local"), None, {"fps": 30.0, "codec": "a"}
        )
        discrete, continuous, key = spec.decision_context(alternative)
        assert discrete == {"plan": "local", "codec": "a"}
        assert continuous == {"fps": 30.0}
        assert key == (("codec", "a"), ("plan", "local"))

    def test_continuous_feature_names(self):
        spec = self.make_spec()
        assert spec.continuous_fidelity_names() == ("fps",)

    def test_all_discrete_spec_has_empty_continuous(self):
        spec = OperationSpec(
            "op", (local_plan(),),
            FidelitySpec.single("vocab", ("full", "reduced")),
        )
        alternative = Alternative.build(spec.plan("local"), None,
                                        {"vocab": "full"})
        discrete, continuous, _key = spec.decision_context(alternative)
        assert discrete == {"plan": "local", "vocab": "full"}
        assert continuous == {}


class TestVideoModel:
    def test_transcoded_size_scales_with_rate_and_compression(self):
        model = VideoModel()
        small = model.transcoded_bytes(10.0, "high")
        big = model.transcoded_bytes(30.0, "high")
        assert big == pytest.approx(3 * small, rel=0.01)
        assert (model.transcoded_bytes(10.0, "low")
                > model.transcoded_bytes(10.0, "high"))

    def test_frames_scale_with_rate(self):
        model = VideoModel()
        assert model.frames(30.0) == pytest.approx(2 * model.frames(15.0))

    def test_fidelity_desirability_shape(self):
        full = video_fidelity_desirability(
            {"frame_rate": FULL_FRAME_RATE, "compression": "low"}
        )
        assert full == pytest.approx(1.0)
        half_rate = video_fidelity_desirability(
            {"frame_rate": FULL_FRAME_RATE / 4, "compression": "low"}
        )
        assert half_rate == pytest.approx(0.5)  # sqrt(1/4)
        compressed = video_fidelity_desirability(
            {"frame_rate": FULL_FRAME_RATE, "compression": "high"}
        )
        assert compressed == pytest.approx(0.75)

    def test_spec_shape(self):
        spec = make_video_spec(frame_rate_steps=6)
        # 2 plans x (6 rates x 2 compressions), one server:
        assert len(spec.alternatives(["srv"])) == 24
        assert spec.continuous_fidelity_names() == ("frame_rate",)
