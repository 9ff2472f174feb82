#!/usr/bin/env python3
"""Fetch a subset of the public SNAP / KONECT graphs used for large-scale runs.

No test depends on this script or on network access; the test suite and the
experiment harness run on built-in generators.  Checksums are recorded into
``datasets/checksums.json`` on first download and verified on later fetches.

Usage:
    python scripts/fetch_datasets.py --list
    python scripts/fetch_datasets.py ego-facebook ca-grqc --dest datasets/
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import urllib.request
from pathlib import Path

DATASETS = {
    "ego-facebook": "https://snap.stanford.edu/data/facebook_combined.txt.gz",
    "ca-grqc": "https://snap.stanford.edu/data/ca-GrQc.txt.gz",
    "ca-condmat": "https://snap.stanford.edu/data/ca-CondMat.txt.gz",
    "wiki-vote": "https://snap.stanford.edu/data/wiki-Vote.txt.gz",
    "email-enron": "https://snap.stanford.edu/data/email-Enron.txt.gz",
    "brightkite": "https://snap.stanford.edu/data/loc-brightkite_edges.txt.gz",
    "gowalla": "https://snap.stanford.edu/data/loc-gowalla_edges.txt.gz",
    "amazon": "https://snap.stanford.edu/data/amazon0302.txt.gz",
}


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def fetch(name: str, dest: Path, checksums: dict[str, str]) -> None:
    url = DATASETS[name]
    target = dest / Path(url).name
    if not target.exists():
        print(f"fetching {name} from {url}")
        # Only a finished download takes the final name: an interrupted one
        # would otherwise be skipped and trusted by the next run.
        partial = target.with_name(target.name + ".part")
        try:
            urllib.request.urlretrieve(url, partial)
            os.replace(partial, target)
        finally:
            partial.unlink(missing_ok=True)
    digest = sha256_of(target)
    recorded = checksums.get(name)
    if recorded is None:
        checksums[name] = digest
        print(f"{name}: recorded sha256 {digest}")
    elif recorded != digest:
        raise SystemExit(f"{name}: checksum mismatch (expected {recorded}, got {digest})")
    else:
        print(f"{name}: checksum ok")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("names", nargs="*", help="dataset names (default: all)")
    parser.add_argument("--dest", default="datasets", help="download directory")
    parser.add_argument("--list", action="store_true", help="list known datasets")
    args = parser.parse_args(argv)

    if args.list:
        for name, url in sorted(DATASETS.items()):
            print(f"{name:16s} {url}")
        return 0

    names = args.names or sorted(DATASETS)
    unknown = [name for name in names if name not in DATASETS]
    if unknown:
        parser.error(f"unknown dataset(s): {', '.join(unknown)}")

    dest = Path(args.dest)
    dest.mkdir(parents=True, exist_ok=True)
    checksum_file = dest / "checksums.json"
    checksums: dict[str, str] = {}
    if checksum_file.exists():
        checksums = json.loads(checksum_file.read_text())
    try:
        for name in names:
            fetch(name, dest, checksums)
    finally:
        # Also on a mismatch or a failed download: keep what this run recorded.
        checksum_file.write_text(json.dumps(checksums, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
