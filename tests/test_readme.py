import re
import subprocess
import sys
from pathlib import Path

import pytest

from tests.test_cli import _env_with_src

README = Path(__file__).resolve().parents[1] / "README.md"
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_a_python_example():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
def test_readme_python_block_runs(block, tmp_path):
    # a fresh interpreter, as a reader who pastes the block would have, with this checkout's claimsplice
    done = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=_env_with_src(), capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
