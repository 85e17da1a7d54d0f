import re
from pathlib import Path

import stemcluster

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_resolves():
    assert len(set(stemcluster.__all__)) == len(stemcluster.__all__)
    for name in stemcluster.__all__:
        assert hasattr(stemcluster, name), name


def test_readme_library_block_runs():
    match = re.search(r"## Library use\s+```python\n(.*?)```", README.read_text("utf-8"), re.S)
    assert match, "README has no python block under '## Library use'"
    exec(compile(match.group(1), str(README), "exec"), {})
