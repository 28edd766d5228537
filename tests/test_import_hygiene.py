"""Import hygiene: a search never loads SciPy.

Importing ``scipy.stats``/``scipy.optimize`` costs over a second, more
than scoring a small database.  The search path (CLI, app, engine,
statistics) must not pull it in; SciPy stays for the synthetic-database
generators, which import it on first use.  Checked in a fresh
interpreter so modules other tests imported cannot mask a regression.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

PROBE = """
import io, sys
import repro.cli, repro.app, repro.engine, repro.stats
from repro.cli import main

query, db = sys.argv[1], sys.argv[2]
with open(query, "w") as fh:
    fh.write(">Q\\nMKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQAPILSRVGDGTQDNLSGAEKAVQV\\n")
with open(db, "w") as fh:
    fh.write(">D1\\nMKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ\\n>D2\\nGDGTQDNLSGAEKAVQVKVKALPDAQ\\n")
out = io.StringIO()
assert main(["search", query, db], out=out) == 0, out.getvalue()
assert "D1" in out.getvalue(), out.getvalue()
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_search_path_does_not_import_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE,
         str(tmp_path / "q.fasta"), str(tmp_path / "db.fasta")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "", f"scipy modules loaded: {proc.stdout}"
