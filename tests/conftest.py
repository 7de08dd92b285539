"""Shared fixtures for the test suite.

Expensive artefacts (Monte-Carlo tables, built indexes) are session-scoped
and deliberately small: 1,000-ish points in 16 dimensions keep every LSH
query under a second while still exercising multi-round rehashing.
"""

from __future__ import annotations

import logging
from pathlib import Path

import numpy as np
import pytest

from repro.logconfig import ROOT_LOGGER_NAME

from repro import LazyLSH, LazyLSHConfig
from repro.datasets import make_synthetic, sample_queries
from repro.datasets.queries import QuerySplit

#: Monte-Carlo resolution used throughout the tests (fast but stable).
MC_SAMPLES = 20_000
MC_BUCKETS = 100

#: Index files written by retired writers (see ``test_persistence``'s
#: ``TestLegacyFiles``): ``legacy_v2.npz`` by the v2 ``.npz`` writer and
#: ``legacy_v3.npz`` by a v3 writer that also stored int64 runs.
LEGACY_FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def _isolate_repro_logging():
    """Restore the ``repro`` logger after every test.

    CLI tests run ``repro serve`` in-process, which calls
    ``configure_logging`` and flips the namespace root to
    ``propagate=False`` with its own stderr handler — state that would
    otherwise leak into later tests and starve ``caplog`` (records stop
    propagating to the root logger pytest listens on).
    """
    root = logging.getLogger(ROOT_LOGGER_NAME)
    handlers = list(root.handlers)
    level, propagate = root.level, root.propagate
    yield
    for handler in list(root.handlers):
        if handler not in handlers:
            root.removeHandler(handler)
            handler.close()
    root.handlers = handlers
    root.setLevel(level)
    root.propagate = propagate


@pytest.fixture(scope="session")
def small_config() -> LazyLSHConfig:
    """The LazyLSH configuration shared by most index tests."""
    return LazyLSHConfig(
        c=3.0,
        p_min=0.5,
        seed=11,
        mc_samples=MC_SAMPLES,
        mc_buckets=MC_BUCKETS,
    )


@pytest.fixture(scope="session")
def small_split() -> QuerySplit:
    """1,200 synthetic points (d=16) with 4 held-out queries."""
    data = make_synthetic(1200, 16, value_range=(0, 500), seed=5)
    return sample_queries(data, n_queries=4, seed=6)


@pytest.fixture(scope="session")
def built_index(small_config: LazyLSHConfig, small_split: QuerySplit) -> LazyLSH:
    """A LazyLSH index built over the small synthetic dataset."""
    return LazyLSH(small_config).build(small_split.data)


@pytest.fixture(scope="session")
def legacy_v2_path() -> Path:
    """A format-v2 ``.npz`` index (read-only: copy before tampering)."""
    return LEGACY_FIXTURES / "legacy_v2.npz"


@pytest.fixture(scope="session")
def legacy_v3_path() -> Path:
    """A format-v3 index that carries int64 runs beside the compact ones."""
    return LEGACY_FIXTURES / "legacy_v3.npz"


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """Session-wide RNG for tests that need ad-hoc randomness."""
    return np.random.default_rng(1234)


@pytest.fixture
def corrupt_newest_home(tmp_path: Path) -> tuple[Path, np.ndarray]:
    """A durable home whose newest checkpoint does not open.

    300 points, d = 8: a 4-point insert at LSN 1, a checkpoint, a second
    insert at LSN 2, then one byte of the LSN-1 checkpoint's ``alive``
    section zeroed (its header still parses; the file no longer opens).
    Returns ``(home, queries)``; the queries include both inserts.
    """
    from repro.durability import checkpoint_now, create
    from repro.persistence import _read_v3_layout

    data = make_synthetic(300, 8, value_range=(0, 200), seed=61)
    index = LazyLSH(
        LazyLSHConfig(
            c=3.0, p_min=0.5, seed=61,
            mc_samples=MC_SAMPLES, mc_buckets=MC_BUCKETS,
        )
    ).build(data)
    rng = np.random.default_rng(62)
    first, second = rng.uniform(0.0, 200.0, size=(2, 4, 8))
    home = tmp_path / "home"
    durable = create(index, home, sync=False)
    durable.insert(first)
    newest = checkpoint_now(durable, home)
    durable.insert(second)
    durable.close()
    _header, sections = _read_v3_layout(newest)
    with open(newest, "r+b") as fh:
        fh.seek(sections["alive"].offset)
        fh.write(b"\0")
    return home, np.vstack([data[:2], first[:1], second[:1]])
