from pathlib import Path

import hypothesis
import pytest

hypothesis.settings.register_profile("suite", deadline=None)
hypothesis.settings.load_profile("suite")

REPO_ROOT = Path(__file__).resolve().parents[1]
DEMO_DIR = REPO_ROOT / "data" / "demo"
DEMO_OUT_DIR = REPO_ROOT / "out" / "demo"


@pytest.fixture(scope="session")
def demo_corpus() -> Path:
    return DEMO_DIR / "corpus.txt"


@pytest.fixture(scope="session")
def demo_gold() -> Path:
    return DEMO_DIR / "gold.tsv"


@pytest.fixture(scope="session")
def demo_expected_dir() -> Path:
    return DEMO_DIR / "expected"


@pytest.fixture(scope="session")
def demo_out_dir() -> Path:
    """Committed artifacts of scripts/run_demo.sh."""
    return DEMO_OUT_DIR
