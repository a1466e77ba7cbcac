"""Cold start: `import evreg` leaves out what only some callers need.

PyYAML is imported by the first load_config and the process pool by the
first run_cv with jobs > 1; a fresh interpreter shows what import evreg
itself loads.  The pooled run stays covered by the jobs > 1 tests in
test_experiment.py and test_cli.py.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

from evreg.config import load_config

ROOT = Path(__file__).resolve().parents[1]
LAZY = ("yaml", "concurrent.futures", "multiprocessing")

# argv[1:] are module names.  Prints the ones loaded after import evreg, then
# whether yaml is loaded after a load_config, then that config pickled, in hex
_SCRIPT = """
import pickle, sys
import evreg
print(" ".join(name for name in sys.argv[1:] if name in sys.modules))
config = evreg.load_config("configs/cpd.yaml")
print("yaml" in sys.modules)
print(pickle.dumps(config).hex())
"""


def test_import_loads_no_yaml_or_process_pool():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, *LAZY],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    loaded, yaml_loaded, config = proc.stdout.splitlines()
    assert loaded == ""
    assert yaml_loaded == "True"
    assert pickle.loads(bytes.fromhex(config)) == load_config(ROOT / "configs" / "cpd.yaml")
