import re
from pathlib import Path

import pytest

import stemcluster

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_resolves():
    assert len(set(stemcluster.__all__)) == len(stemcluster.__all__)
    for name in stemcluster.__all__:
        assert hasattr(stemcluster, name), name


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
