from dataclasses import replace

import pytest
from hypothesis import settings

from luccsim import LandUse, TechLevel, default_tables, preset

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def tables():
    return default_tables()


def uniform_config(
    *,
    lu=LandUse.SOYBEAN,
    tl=TechLevel.HIGH,
    owner_share=100.0,
    cycles=1,
    seed=0,
    **overrides,
):
    """A scenario (1x1 by default) fully allocated to one land use and tech level."""
    cover = {m: 0.0 for m in LandUse}
    cover[lu] = 100.0
    tl_pct = {m: 0.0 for m in TechLevel}
    tl_pct[tl] = 100.0
    config = replace(
        preset("longterm", seed=seed),
        grid_rows=1,
        grid_cols=1,
        cycles=cycles,
        owner_share_pct=owner_share,
        initial_cover_pct=cover,
        initial_tl_pct=tl_pct,
    )
    return replace(config, **overrides) if overrides else config


def scalar_shuffle(rng, seq):
    """Reference Fisher-Yates pass: swap i with rng.randrange(i + 1), from the end."""
    for i in range(len(seq) - 1, 0, -1):
        j = rng.randrange(i + 1)
        seq[i], seq[j] = seq[j], seq[i]
