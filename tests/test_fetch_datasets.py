"""scripts/fetch_datasets.py, offline: urlretrieve is replaced by fakes."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import urllib.request
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fetch_datasets.py"


@pytest.fixture(scope="module")
def fetch_datasets():
    spec = importlib.util.spec_from_file_location("fetch_datasets", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def payload(url: str) -> bytes:
    return f"edges of {url}\n".encode()


def complete(url: str, filename) -> None:
    Path(filename).write_bytes(payload(url))


def test_interrupted_download_is_not_trusted(fetch_datasets, tmp_path, monkeypatch):
    def dropped(url: str, filename) -> None:
        Path(filename).write_bytes(payload(url)[:7])
        raise ConnectionResetError("connection dropped")

    monkeypatch.setattr(urllib.request, "urlretrieve", dropped)
    with pytest.raises(ConnectionResetError):
        fetch_datasets.main(["ca-grqc", "--dest", str(tmp_path)])
    assert sorted(path.name for path in tmp_path.iterdir()) == ["checksums.json"]

    # The next run downloads again and records the whole file's checksum.
    monkeypatch.setattr(urllib.request, "urlretrieve", complete)
    assert fetch_datasets.main(["ca-grqc", "--dest", str(tmp_path)]) == 0
    url = fetch_datasets.DATASETS["ca-grqc"]
    assert (tmp_path / "ca-GrQc.txt.gz").read_bytes() == payload(url)
    recorded = json.loads((tmp_path / "checksums.json").read_text())
    assert recorded == {"ca-grqc": hashlib.sha256(payload(url)).hexdigest()}


def test_mismatch_keeps_checksums_recorded_earlier_in_the_run(
    fetch_datasets, tmp_path, monkeypatch
):
    monkeypatch.setattr(urllib.request, "urlretrieve", complete)
    (tmp_path / "checksums.json").write_text(json.dumps({"ego-facebook": "0" * 64}))
    with pytest.raises(SystemExit, match="ego-facebook: checksum mismatch"):
        fetch_datasets.main(["ca-grqc", "ego-facebook", "--dest", str(tmp_path)])
    recorded = json.loads((tmp_path / "checksums.json").read_text())
    grqc = payload(fetch_datasets.DATASETS["ca-grqc"])
    assert recorded == {"ca-grqc": hashlib.sha256(grqc).hexdigest(), "ego-facebook": "0" * 64}
