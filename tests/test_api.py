import re
import subprocess
import sys
from pathlib import Path

import pytest

import stemcluster
import stemcluster.ap
import stemcluster.greedy
from helpers import src_env

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_resolves():
    assert len(set(stemcluster.__all__)) == len(stemcluster.__all__) == 21
    for name in stemcluster.__all__:
        assert hasattr(stemcluster, name), name


@pytest.mark.parametrize("name", stemcluster.__all__)
def test_public_name_is_its_defining_modules_object(name):
    value = getattr(stemcluster, name)
    assert value is getattr(sys.modules[value.__module__], name)


def test_settings_records_are_defined_once_in_config():
    assert stemcluster.GreedyConfig.__module__ == "stemcluster.config"
    assert stemcluster.APConfig.__module__ == "stemcluster.config"
    assert stemcluster.greedy.GreedyConfig is stemcluster.GreedyConfig
    assert stemcluster.ap.APConfig is stemcluster.APConfig


def test_dir_lists_every_public_name_before_any_is_used():
    proc = subprocess.run(
        [sys.executable, "-c", "import stemcluster; print(*dir(stemcluster))"],
        capture_output=True, text=True, encoding="utf-8", env=src_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert set(stemcluster.__all__) <= set(proc.stdout.split())


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from stemcluster import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(stemcluster.__all__)
    for name, value in namespace.items():
        assert value is getattr(stemcluster, name), name


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        stemcluster.no_such_name


def test_version_resolves():
    assert stemcluster.__version__ == "0.1.0"


def test_readme_library_block_runs():
    match = re.search(r"## Library use\s+```python\n(.*?)```", README.read_text("utf-8"), re.S)
    assert match, "README has no python block under '## Library use'"
    exec(compile(match.group(1), str(README), "exec"), {})
