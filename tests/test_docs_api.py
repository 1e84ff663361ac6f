"""``docs/API.md`` is generated from the docstrings and must match them:
regenerating it into a scratch file reproduces the committed file."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GENERATOR = os.path.join(ROOT, "docs", "generate_api.py")
COMMITTED = os.path.join(ROOT, "docs", "API.md")


def test_api_reference_is_regenerated(tmp_path):
    out = tmp_path / "API.md"
    code = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('gen', {GENERATOR!r})\n"
        "gen = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(gen)\n"
        f"gen.OUT = {str(out)!r}\n"
        "gen.main()\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    with open(COMMITTED) as fh:
        committed = fh.read()
    assert out.read_text() == committed, (
        "docs/API.md is stale: run `PYTHONPATH=src python docs/generate_api.py`")
