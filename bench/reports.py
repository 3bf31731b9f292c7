"""Byte-for-byte report checks against the digests in ``golden.json``."""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"


def load_golden() -> dict:
    if not GOLDEN.is_file():
        return {}
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def expected(golden: dict, workload: str, pool_index: int, invocation: str) -> dict | None:
    """``{file name: sha256}`` recorded for one invocation, or None."""
    return golden.get(workload, {}).get(str(pool_index), {}).get(invocation)


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file the invocation wrote, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
        if path.is_file()
    }


def fresh_dir(path: Path) -> Path:
    """An empty directory, so a missing output cannot pass for an old one."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def check(out_dir: Path, want: dict | None) -> tuple[list[str], int]:
    """Compare the files in ``out_dir`` with ``want``.

    Returns the problems found (empty when every expected file exists and
    matches its digest, and no other file was written) and the bytes written.
    """
    got = digests(out_dir)
    size = sum((out_dir / name).stat().st_size for name in got)
    if want is None:
        return ["no recorded digests for this invocation and input"], size
    problems = [f"missing output {name}" for name in sorted(set(want) - set(got))]
    problems += [f"unexpected output {name}" for name in sorted(set(got) - set(want))]
    problems += [
        f"{name} differs from its recorded digest"
        for name in sorted(set(got) & set(want))
        if got[name] != want[name]
    ]
    return problems, size
