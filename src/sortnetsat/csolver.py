"""Build helper for the bundled CDCL solver.

The C source ships with the package and is compiled once into a cache
directory; the resulting binary speaks the same DIMACS-file / competition
output protocol as any mainstream solver, so it runs as any solver command
does.  It also reads the template lines of ``solving.write_minicdcl``, which
``solving.solve`` writes for it alone: ``SolverConfig.bundled`` tells the
binary by the path ``binary_path`` computes.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

_SOURCE = Path(__file__).parent / "csolver" / "minicdcl.c"
# the compile flags; the binary's name hashes them with the source, so a
# change to either builds a new binary
CFLAGS = ("-O2", "-std=c99")


class BuildError(RuntimeError):
    """The bundled solver cannot be built: no C compiler, or the compile failed."""


def cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(root) / "sortnetsat"


def compiler() -> str | None:
    """The path of the C compiler, or None when there is none."""
    return shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")


def binary_path() -> str | None:
    """The path ``ensure_built`` compiles the current source and ``CFLAGS``
    to, whether or not that binary exists yet; None without the source."""
    if not _SOURCE.exists():
        return None
    key = b"\0".join([_SOURCE.read_bytes(), *map(str.encode, CFLAGS)])
    tag = hashlib.sha256(key).hexdigest()[:16]
    return str(cache_dir() / f"minicdcl-{tag}")


def ensure_built(quiet: bool = False) -> str | None:
    """Compile the bundled solver if needed; returns the binary path.  When
    no C compiler or no source is available, or the compile fails, BuildError,
    or None when ``quiet``."""
    cc, path = compiler(), binary_path()
    if cc is None or path is None:
        if not quiet:
            raise BuildError("no C compiler found; set SORTNETSAT_SOLVER instead")
        return None
    out = Path(path)
    if out.exists():
        return str(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    # each builder compiles under its own name, so concurrent builders never
    # share a half-written file; the rename into place is atomic
    with tempfile.TemporaryDirectory(dir=out.parent) as tmpdir:
        tmp = os.path.join(tmpdir, out.name)
        cmd = [cc, *CFLAGS, "-o", tmp, str(_SOURCE)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            if not quiet:
                raise BuildError(f"solver build failed:\n{proc.stderr}")
            return None
        os.replace(tmp, out)
    return str(out)
