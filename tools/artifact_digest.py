"""Digest every artifact of the reference scenarios.

    python3 tools/artifact_digest.py OUT_DIR

Runs the five configs/*.cfg and bench/degenerate_layer.cfg with the package
in this checkout's src/, each into OUT_DIR/<config stem>, writes each one's
`outflow1d profile` into OUT_DIR/<config stem>/profile, and prints one
`sha256  relative/path` line per file, sorted by path.  The wall-clock
`runtime_s` line of verdict.txt is masked before hashing, so two checkouts
that compute the same science print the same lines: diff the outputs of a
parent and a change to see which artifacts moved.  OUT_DIR must be new or
empty, so that no artifact of an earlier run is hashed.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from outflow1d.cli import main as cli_main     # noqa: E402
from outflow1d.config import load_config      # noqa: E402
from outflow1d.scenarios import run_scenario    # noqa: E402

CONFIGS = sorted(ROOT.glob("configs/*.cfg")) + [
    ROOT / "bench" / "degenerate_layer.cfg"]


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "verdict.txt":
        data = b"".join(b"runtime_s = (masked)\n"
                        if line.startswith(b"runtime_s = ") else line
                        for line in data.splitlines(keepends=True))
    return hashlib.sha256(data).hexdigest()


def main(argv) -> int:
    out = Path(argv[0]) if len(argv) == 1 else None
    if out is None or out.is_file() or out.is_dir() and any(out.iterdir()):
        print("usage: artifact_digest.py OUT_DIR  (a new or empty directory)",
              file=sys.stderr)
        return 2
    for config in CONFIGS:
        run_scenario(load_config(config), out / config.stem)
        profile = out / config.stem / "profile"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["profile", "--config", str(config),
                             "--out", str(profile)])
        if code != 0:
            print(f"profile failed on {config}", file=sys.stderr)
            return code
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{digest(path)}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
