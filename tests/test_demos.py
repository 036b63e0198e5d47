import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))

# The fixed path the Bernoulli demo once saved its table to; a demo run
# must leave whatever is there (or its absence) alone.
SHARED_CACHE = Path("/tmp/bernoulli.cache")


def _stat(path):
    try:
        st = path.stat()
    except FileNotFoundError:
        return None
    return st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    before = _stat(SHARED_CACHE)
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    assert _stat(SHARED_CACHE) == before
