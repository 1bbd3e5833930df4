"""How far Newton recovery and continuation reach: of seeds 0-49, each run
alone, how many converge at wide perturbation scales, and that the
benchmark's core bands (scale 0.05) never refresh their chord, so that the
refresh policy leaves their records alone."""

import pytest

from liedeform.algebras import catalog_algebra, hom_preset, sub_preset
from liedeform.deformlab import run_experiment
from helpers import (NEWTON_SEEDS_BANDS, counting_refreshes,
                     newton_seeds_objects)

# (kind, object, scale, least converged of seeds 0-49)
FLOOR = [("bracket-recovery", catalog_algebra("sl2"), 0.3, 48),
         ("bracket-recovery", catalog_algebra("sl2"), 1.0, 40),
         ("bracket-recovery", catalog_algebra("sl2"), 2.0, 10),
         ("hom-recovery", hom_preset("id-sl2"), 2.0, 48),
         ("hom-continuation", hom_preset("id-sl2"), 2.0, 48),
         ("sub-recovery", sub_preset("borel-in-sl2"), 2.0, 46)]


@pytest.mark.parametrize("kind, obj, scale, least", FLOOR,
                         ids=lambda v: getattr(v, "name", None))
def test_convergence_floor(kind, obj, scale, least):
    # one call per seed, as a user runs one: a refused seed raises and fails
    # the test, where in a shared call it would end the seeds after it
    converged = sum(run_experiment(kind, obj, [seed], scale=scale)[0]
                    ["converged"] for seed in range(50))
    assert converged >= least


def test_core_bands_never_refresh(monkeypatch):
    # the core bands of bench seeds 0-9: 20 seeds each, at scale 0.05
    refreshes = counting_refreshes(monkeypatch)
    objects = newton_seeds_objects()
    for kind, name in NEWTON_SEEDS_BANDS:
        records = run_experiment(kind, objects[name], range(200), scale=0.05)
        assert all(r["converged"] for r in records), (kind, name)
    assert refreshes == []
