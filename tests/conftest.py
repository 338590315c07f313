import pytest

from widthlab.spaces import NormSpec


@pytest.fixture
def pairwise_shapes(monkeypatch):
    """The (rows, cols) shape of every NormSpec.pairwise call, in call order."""
    shapes = []
    pairwise = NormSpec.pairwise

    def recording(self, pts, other=None):
        D = pairwise(self, pts, other)
        shapes.append(D.shape)
        return D

    monkeypatch.setattr(NormSpec, "pairwise", recording)
    return shapes
