"""Crash-safety: kill a save at every stage, corrupt images at rest.

The contract under test (the durability half of PR 6's tentpole):

* a save that dies at *any* failpoint leaves the directory loadable —
  either as the previous committed image (identical answers) or as a
  typed :class:`~repro.storage.manifest.PersistError`.  Never a silently
  wrong engine.
* any single-byte corruption of a committed image is either detected
  (typed error) or harmless (the damaged artifact is degradable and the
  rerouted engine still answers exactly).
"""

import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SimilarityEngine
from repro.data.relation import SequenceRelation
from repro.data.synthetic import random_walks
from repro.persist import load_engine, save_engine
from repro.storage import faults
from repro.storage.manifest import (
    MANIFEST_NAME,
    CorruptIndexError,
    PersistError,
)

N, LENGTH = 40, 32


def build_engine(seed: int) -> SimilarityEngine:
    rel = SequenceRelation.from_matrix(random_walks(N, LENGTH, seed=seed))
    return SimilarityEngine(rel)


def answers(engine: SimilarityEngine) -> list:
    """A canonical query fingerprint: range hits for the engine's row 0."""
    q = engine.relation.get(0)
    return [(rid, round(d, 9)) for rid, d in engine.range_query(q, eps=6.0)]


@pytest.fixture(scope="module")
def old_image(tmp_path_factory):
    """A committed image of engine A, plus its query fingerprint."""
    directory = str(tmp_path_factory.mktemp("image") / "engine")
    engine = build_engine(seed=1)
    save_engine(engine, directory)
    return directory, answers(engine)


@pytest.fixture()
def workdir(old_image, tmp_path):
    """A throwaway copy of the committed old image."""
    directory, old = old_image
    dst = str(tmp_path / "engine")
    shutil.copytree(directory, dst)
    return dst, old


# Every failpoint stage of a save, with the fault mode to inject there.
SAVE_FAILPOINTS = [
    ("persist.write:relation.npy", {"mode": "crash"}),
    ("persist.write:relation.npy", {"mode": "enospc"}),
    ("persist.write:relation.json", {"mode": "torn"}),
    ("persist.write:relation.json", {"mode": "bitflip"}),
    ("persist.replace:relation.npy", {"mode": "crash"}),
    ("pager.write_page", {"mode": "crash", "nth": 2}),
    ("pager.write_page", {"mode": "enospc", "nth": 2}),
    ("pager.write_page", {"mode": "torn", "nth": 2}),
    ("pager.write_page", {"mode": "truncate", "nth": 2}),
    ("pager.write_page", {"mode": "bitflip", "nth": 2}),
    ("pager.flush", {"mode": "error"}),
    ("persist.replace:index.pages", {"mode": "crash"}),
    ("persist.write:index_columnar.npz", {"mode": "torn"}),
    ("persist.write:index_columnar.npz", {"mode": "truncate"}),
    ("persist.write:index_columnar.npz", {"mode": "bitflip"}),
    ("persist.write:meta.json", {"mode": "crash"}),
    ("persist.write:meta.json", {"mode": "truncate"}),
    ("persist.replace:meta.json", {"mode": "crash"}),
    ("persist.write:MANIFEST.json", {"mode": "crash"}),
    ("persist.write:MANIFEST.json", {"mode": "torn"}),
    ("persist.replace:MANIFEST.json", {"mode": "crash"}),
]


def attempt_overwrite(directory: str, point, kwargs) -> None:
    """Try to overwrite the image with engine B under an armed failpoint.

    Raising faults abort the save (the simulated crash/disk error);
    silent-corruption faults let it "succeed" with mangled bytes.
    """
    new_engine = build_engine(seed=2)
    with faults.armed((point, kwargs)):
        try:
            save_engine(new_engine, directory)
        except (faults.SimulatedCrash, OSError):
            pass


def assert_old_new_or_typed(directory: str, old, new) -> None:
    """The core safety property: a load never invents wrong answers."""
    try:
        loaded = load_engine(directory)
    except PersistError:
        return  # failed typed: acceptable, never wrong
    got = answers(loaded)
    assert got == old or got == new, (
        "loaded engine answered with neither the old nor the new image"
    )


class TestKilledSaves:
    @pytest.mark.parametrize(
        "point,kwargs",
        SAVE_FAILPOINTS,
        ids=[f"{p}-{k['mode']}" for p, k in SAVE_FAILPOINTS],
    )
    def test_save_killed_at_failpoint_never_lies(self, workdir, point, kwargs):
        directory, old = workdir
        new = answers(build_engine(seed=2))
        attempt_overwrite(directory, point, kwargs)
        assert_old_new_or_typed(directory, old, new)

    def test_crash_before_commit_recovers_old_image(self, workdir):
        """A save killed before its manifest commit must load as image A."""
        directory, old = workdir
        attempt_overwrite(directory, "persist.write:relation.npy", {"mode": "crash"})
        assert answers(load_engine(directory)) == old

    def test_crash_between_replaces_is_detected(self, workdir):
        """New core files under the old manifest: checksum mismatch, typed."""
        directory, old = workdir
        attempt_overwrite(directory, "persist.write:meta.json", {"mode": "crash"})
        # relation files were replaced with engine B's; the old manifest
        # no longer vouches for them.
        with pytest.raises(CorruptIndexError):
            load_engine(directory)

    def test_lying_write_during_page_save_is_caught(self, workdir):
        """A silently truncated page write must not survive the manifest.

        The checksum is accumulated over intended payloads, so even
        though the save "succeeds", the committed manifest disagrees
        with the damaged file and the index degrades (or fails typed) —
        answers stay exact either way.
        """
        directory, old = workdir
        new = answers(build_engine(seed=2))
        attempt_overwrite(directory, "pager.write_page", {"mode": "truncate", "nth": 2})
        try:
            loaded = load_engine(directory)
        except PersistError:
            return
        assert getattr(loaded, "_index_failed", None) is not None
        assert answers(loaded) == new  # scan over B's relation: still exact

    def test_save_failure_leaves_no_partial_commit(self, workdir):
        directory, old = workdir
        attempt_overwrite(
            directory, "persist.write:index_columnar.npz", {"mode": "enospc"}
        )
        # The manifest is the old one (commit never ran), so a load either
        # recovers A or reports the mismatch — and here the damaged
        # artifacts are pre-manifest, so the core files already mismatch.
        assert_old_new_or_typed(directory, old, answers(build_engine(seed=2)))


class TestCorruptionAtRest:
    ARTIFACTS = [
        "relation.npy",
        "relation.json",
        "meta.json",
        "index.pages",
        "index_columnar.npz",
        MANIFEST_NAME,
    ]

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(ARTIFACTS),
        pos=st.integers(min_value=0, max_value=10**9),
        mask=st.integers(min_value=1, max_value=255),
    )
    def test_any_single_byte_corruption_is_detected_or_harmless(
        self, old_image, tmp_path_factory, name, pos, mask
    ):
        directory, old = old_image
        dst = str(tmp_path_factory.mktemp("corrupt") / "engine")
        shutil.copytree(directory, dst)
        path = os.path.join(dst, name)
        with open(path, "r+b") as f:
            data = bytearray(f.read())
            at = pos % len(data)
            data[at] ^= mask
            f.seek(0)
            f.write(data)
        try:
            loaded = load_engine(dst)
        except PersistError:
            return  # detected, typed
        # harmless: a degradable artifact was hit and the engine rerouted
        assert answers(loaded) == old
        shutil.rmtree(dst, ignore_errors=True)

    def test_core_artifact_corruption_raises_typed(self, workdir):
        directory, _ = workdir
        path = os.path.join(directory, "relation.npy")
        with open(path, "r+b") as f:
            f.seek(os.path.getsize(path) // 2)
            f.write(b"\xff")
        with pytest.raises(CorruptIndexError):
            load_engine(directory)

    def test_kernel_corruption_degrades_not_lies(self, workdir):
        directory, old = workdir
        path = os.path.join(directory, "index_columnar.npz")
        with open(path, "r+b") as f:
            f.seek(os.path.getsize(path) - 8)
            f.write(b"\x00" * 4)
        loaded = load_engine(directory)
        assert getattr(loaded.tree, "_kernel_disabled", False)
        assert answers(loaded) == old  # reference node traversal, exact
        report = loaded.health()
        assert report.component("kernel").status in ("degraded", "failed")
        assert not report.ok

    def test_kernel_corruption_raises_under_strict(self, workdir):
        directory, _ = workdir
        path = os.path.join(directory, "index_columnar.npz")
        with open(path, "r+b") as f:
            f.seek(os.path.getsize(path) - 8)
            f.write(b"\x00" * 4)
        with pytest.raises(CorruptIndexError):
            load_engine(directory, strict=True)

    def test_index_pages_corruption_degrades_to_scan(self, workdir):
        directory, old = workdir
        path = os.path.join(directory, "index.pages")
        with open(path, "r+b") as f:
            f.seek(os.path.getsize(path) // 3)
            f.write(b"\xde\xad\xbe\xef")
        loaded = load_engine(directory)
        assert getattr(loaded, "_index_failed", None) is not None
        assert answers(loaded) == old  # SeqScan answers are exact
        info = loaded.explain(
            __import__("repro.core.plan", fromlist=["QuerySpec"]).QuerySpec(
                kind="range", series=loaded.relation.get(0), eps=6.0
            )
        )
        assert info["access_path"] == "scan"
        assert info["degraded_from"] == "index"

    def test_deleted_artifact_is_typed_or_degraded(self, workdir):
        directory, old = workdir
        os.remove(os.path.join(directory, "index.pages"))
        loaded = load_engine(directory)  # degradable: reroutes to scan
        assert answers(loaded) == old
        os.remove(os.path.join(directory, "relation.npy"))
        with pytest.raises(PersistError):
            load_engine(directory)


class TestLegacyImages:
    def test_manifestless_image_loads_degraded(self, tmp_path):
        directory = str(tmp_path / "legacy")
        engine = build_engine(seed=3)
        save_engine(engine, directory, manifest=False)
        assert not os.path.exists(os.path.join(directory, MANIFEST_NAME))
        loaded = load_engine(directory)
        assert answers(loaded) == answers(engine)
        report = loaded.health()
        assert report.component("persistence").status == "degraded"

    def test_schema_from_the_future_is_rejected(self, workdir):
        import json

        from repro.storage.manifest import SchemaVersionError

        directory, _ = workdir
        path = os.path.join(directory, MANIFEST_NAME)
        with open(path) as f:
            doc = json.load(f)
        doc["schema"] = 99
        with open(path, "w") as f:
            json.dump(doc, f)
        with pytest.raises(SchemaVersionError):
            load_engine(directory)

    def test_unknown_tree_class_is_typed(self, workdir):
        import json

        directory, _ = workdir
        meta_path = os.path.join(directory, "meta.json")
        with open(meta_path) as f:
            meta = json.load(f)
        meta["tree"]["class"] = "BTree"
        body = json.dumps(meta).encode()
        with open(meta_path, "wb") as f:
            f.write(body)
        # refresh the manifest so only the class name is at fault
        man_path = os.path.join(directory, MANIFEST_NAME)
        with open(man_path) as f:
            man = json.load(f)
        import zlib

        man["files"]["meta.json"] = {
            "size": len(body),
            "crc32": zlib.crc32(body) & 0xFFFFFFFF,
        }
        with open(man_path, "w") as f:
            json.dump(man, f)
        with pytest.raises(PersistError, match="BTree"):
            load_engine(directory)

    def test_row_count_mismatch_degrades_index(self, workdir):
        import json

        directory, old = workdir
        meta_path = os.path.join(directory, "meta.json")
        with open(meta_path) as f:
            meta = json.load(f)
        meta["tree"]["size"] = meta["tree"]["size"] + 5
        body = json.dumps(meta).encode()
        with open(meta_path, "wb") as f:
            f.write(body)
        man_path = os.path.join(directory, MANIFEST_NAME)
        with open(man_path) as f:
            man = json.load(f)
        import zlib

        man["files"]["meta.json"] = {
            "size": len(body),
            "crc32": zlib.crc32(body) & 0xFFFFFFFF,
        }
        with open(man_path, "w") as f:
            json.dump(man, f)
        loaded = load_engine(directory)
        assert "rows" in loaded._index_failed
        assert answers(loaded) == old
        with pytest.raises(CorruptIndexError):
            load_engine(directory, strict=True)

    @pytest.mark.parametrize("delta", [-1, 1], ids=["fewer", "more"])
    def test_legacy_names_count_mismatch_is_typed(self, tmp_path, delta):
        """A names list that disagrees with the row count is a PersistError."""
        import json

        directory = str(tmp_path / "legacy")
        save_engine(build_engine(seed=4), directory, manifest=False)
        path = os.path.join(directory, "relation.json")
        with open(path) as f:
            doc = json.load(f)
        doc["names"] = doc["names"][:delta] if delta < 0 else doc["names"] + ["extra"]
        with open(path, "w") as f:
            json.dump(doc, f)
        with pytest.raises(PersistError, match="malformed"):
            load_engine(directory)


class TestFailpointRegistry:
    def test_clear_after_context(self):
        with faults.armed(("pager.write_page", {"mode": "error"})):
            assert faults.active()
        assert not faults.active()

    def test_nth_counts_hits(self):
        faults.fail_at("pager.flush", nth=3, mode="error")
        try:
            faults.trigger("pager.flush")
            faults.trigger("pager.flush")
            with pytest.raises(OSError):
                faults.trigger("pager.flush")
            faults.trigger("pager.flush")  # fires once only
        finally:
            faults.clear()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            faults.fail_at("pager.flush", mode="gremlins")

    def test_env_marker(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAILPOINTS", "1")
        assert faults.env_enabled()
        monkeypatch.delenv("REPRO_FAILPOINTS")
        assert not faults.env_enabled()
