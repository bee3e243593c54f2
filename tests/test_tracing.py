"""The benchmark's span tracer still finds every name it wraps.

perfbench/spans.py patches vosa's functions and methods by name from
outside the package, so a refactor that renames or deletes one of them
breaks the traced benchmark run without failing any other test.  The
tracer is installed in a fresh interpreter, because it patches the
package in place.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans, workloads
import vosa, vosa.cli, vosa.liealg, vosa.modules
tracer = spans.Tracer()
spans.install(tracer, vosa)
found = tracer.run_job("warm_up", lambda: workloads.warm_up(vosa))
print(json.dumps({"found": found, "calls": dict(tracer.calls)}))
"""


def test_tracer_installs_and_runs_warm_up():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"),
         str(ROOT / "src")],
        capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout)
    assert out["found"] == []
    for name in ("zhu.build", "zhu.second_cutoff", "fields.mode",
                 "fock.basis", "modules.certify", "zhu.blocks"):
        assert out["calls"].get(name, 0) > 0, name
