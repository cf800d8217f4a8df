"""The bench's traced run wraps flowlab functions by name, through
``vars(owner)[attr]``: each wrapped name must stay defined on its own module
or class (not moved, not inherited), and the returned undo must put every
one back."""

from pathlib import Path

import flowlab.cli as cli
from flowlab import evaluation, explain, labeling, models, prep, transforms
from flowlab.dataset import Dataset
from flowlab.meter import FlowCache

BENCH = Path(__file__).resolve().parent.parent / "bench"
OWNERS = (cli, evaluation, explain, labeling, models, prep, transforms,
          Dataset, FlowCache, models.TreeModel, models.ForestModel,
          models.KnnModel, evaluation.ConfusionMatrix)


def test_spans_install_and_undo(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    before = [dict(vars(owner)) for owner in OWNERS]
    undo = spans.install(spans.Tracer())
    try:
        patched = [(owner, attr) for owner, saved in zip(OWNERS, before)
                   for attr, value in vars(owner).items()
                   if saved.get(attr) is not value]
    finally:
        undo()
    assert len(patched) == 43
    assert [dict(vars(owner)) for owner in OWNERS] == before
