"""Persisting an engine: validated, atomically committed index images.

``save_engine`` writes five artifacts into a directory:

* ``relation.npy`` + ``relation.json`` — the sequence matrix with names
  and attributes,
* ``meta.json`` — feature-space and tree configuration,
* ``index.pages`` — every R-tree node serialised into a disk-resident
  page file (node ids are remapped to page ids in breadth-first order,
  so the saved index is compact regardless of the source store),
* ``index_columnar.npz`` — the frozen columnar kernel
  (:class:`~repro.rtree.kernel.FrozenRTree`) saved as plain arrays, so a
  reloaded engine starts with its frontier engine ready instead of
  refreezing (and paging in) the whole node tree on the first query,
* ``MANIFEST.json`` — schema version, per-file size + CRC32 checksum and
  per-array shape/dtype specs, written *last* as the commit point.

Every artifact is written to a temp file, fsynced and ``os.replace``d
into place; the manifest commits the whole save.  A crash at any earlier
moment leaves either the previous consistent image (old manifest, old
files, checksums still match) or a detectable mismatch that ``load_engine``
reports as a typed error — never a silently-wrong engine.

``load_engine`` verifies each artifact against the manifest before
trusting it.  Damage to the core artifacts (relation, metadata) raises
:class:`~repro.storage.manifest.CorruptIndexError`; damage confined to
the index pages or the kernel arrays *degrades* instead — the engine
loads with ``_index_failed`` / ``tree._kernel_disabled`` set, the planner
reroutes queries to the surviving access path (recording
``degraded_from`` in EXPLAIN), and ``engine.health()`` reports which
components were lost.  ``strict=True`` turns every degradation into the
typed error instead.

A loaded index reads nodes through a buffer pool over the saved page
file — i.e. it does *real paged I/O* against the file, it is not rebuilt
in memory — while batch traversals run through the deserialised kernel
arrays.  Directories saved by earlier builds (no manifest) still load,
flagged ``degraded`` in the health report because nothing vouches for
their bytes.
"""

from __future__ import annotations

import io
import json
import os
import zlib
from collections import deque
from typing import Optional

import numpy as np

from repro.core.engine import SimilarityEngine
from repro.core.features import FeatureSpace, NormalFormSpace, PlainDFTSpace
from repro.data.relation import SequenceRelation
from repro.rtree.base import RTreeBase
from repro.rtree.guttman import GuttmanRTree
from repro.rtree.kernel import FrozenRTree, attach_kernel, frozen_kernel
from repro.rtree.node import Entry, Node, PagedNodeStore
from repro.rtree.rstar import RStarTree
from repro.storage import faults
from repro.storage import manifest as mf
from repro.storage.manifest import (
    CorruptIndexError,
    PersistError,
    SchemaVersionError,
)
from repro.storage.pager import PageFile

__all__ = [
    "save_engine",
    "load_engine",
    "PersistError",
    "SchemaVersionError",
    "CorruptIndexError",
]

_TREE_CLASSES = {"RStarTree": RStarTree, "GuttmanRTree": GuttmanRTree}
_SPACE_CLASSES = {"NormalFormSpace": NormalFormSpace, "PlainDFTSpace": PlainDFTSpace}


def save_engine(
    engine: SimilarityEngine, directory: str, manifest: bool = True
) -> None:
    """Write the engine's relation, configuration and index pages.

    With ``manifest=True`` (the default) every artifact goes through
    write-to-temp + fsync + ``os.replace`` and the save commits by
    writing ``MANIFEST.json`` last; with ``manifest=False`` the legacy
    unvalidated layout is written in place (used by the persistence
    benchmarks to price the validation overhead, and to produce
    old-style images for the compatibility tests).
    """
    os.makedirs(directory, exist_ok=True)
    rel = engine.relation
    entries: dict[str, dict] = {}

    buf = io.BytesIO()
    np.save(buf, rel.matrix)
    relation_npy = buf.getvalue()
    relation_json = json.dumps(
        {
            "names": [rel.name(i) for i in range(len(rel))],
            "attrs": [rel.attrs(i) for i in range(len(rel))],
        }
    ).encode()

    space = engine.space
    tree = engine.tree
    meta = {
        "space": {
            "class": type(space).__name__,
            "n": space.n,
            "k": space.k,
            "coord": space.coord,
            "exploit_symmetry": space.exploit_symmetry,
        },
        "tree": {
            "class": type(tree).__name__,
            "dim": tree.dim,
            "max_entries": tree.max_entries,
            "size": tree.size,
            "root_level": tree._root_level,
        },
    }

    _write_artifact(directory, "relation.npy", relation_npy, manifest, entries)
    _write_artifact(directory, "relation.json", relation_json, manifest, entries)

    meta["tree"]["root_id"] = _save_pages(directory, tree, manifest, entries)

    # The frozen columnar kernel is saved as-is: its arrays are the query-
    # time representation, so the loaded engine never has to refreeze.  A
    # tree whose kernel failed validation has nothing trustworthy to save.
    if not getattr(tree, "_kernel_disabled", False):
        arrays = frozen_kernel(tree).to_arrays()
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        _write_artifact(
            directory, "index_columnar.npz", buf.getvalue(), manifest, entries,
            arrays=mf.array_specs(arrays),
        )
        meta["kernel"] = {"format": 1}

    meta_json = json.dumps(meta).encode()
    _write_artifact(directory, "meta.json", meta_json, manifest, entries)

    if manifest:
        mf.write_manifest(directory, entries)  # the commit point
    else:
        # A stale manifest from a previous validated save must not vouch
        # for the freshly written unvalidated files.
        stale = os.path.join(directory, mf.MANIFEST_NAME)
        if os.path.exists(stale):
            os.remove(stale)


def _write_artifact(
    directory: str,
    name: str,
    data: bytes,
    manifest: bool,
    entries: dict,
    arrays: Optional[dict] = None,
) -> None:
    if manifest:
        entries[name] = mf.bytes_entry(data, arrays=arrays)
        mf.write_atomic(directory, name, data)
    else:
        with open(os.path.join(directory, name), "wb") as f:
            f.write(data)


def _save_pages(
    directory: str, tree: RTreeBase, manifest: bool, entries: dict
) -> int:
    """Write the BFS-remapped node pages; returns the saved root's page id.

    The page file cannot be serialised to memory first (it is the paged
    store's own on-disk format), so atomicity comes from writing the
    whole file at ``index.pages.tmp``, fsyncing it, and replacing —
    mirroring :func:`repro.storage.manifest.write_atomic` by hand.  The
    manifest checksum is accumulated over the *intended* page payloads
    rather than read back from disk, so a write that silently corrupts
    the file (lying firmware, a torn page) is still caught at load time.
    """
    pages_path = os.path.join(directory, "index.pages")
    target = pages_path + ".tmp" if manifest else pages_path
    if os.path.exists(target):
        os.remove(target)
    with PageFile(path=target) as pagefile:
        store = PagedNodeStore(tree.dim, pagefile=pagefile, buffer_capacity=0)
        id_map: dict[int, int] = {}
        order: list[Node] = []
        queue = deque([tree.root_id])
        while queue:
            node_id = queue.popleft()
            if node_id in id_map:
                continue
            node = tree.store.read(node_id)
            id_map[node_id] = store.allocate()
            order.append(node)
            if not node.is_leaf:
                queue.extend(e.child for e in node.entries)
        crc = 0
        size = 0
        for node in order:
            children = (
                [Entry(e.rect, id_map[e.child]) for e in node.entries]
                if not node.is_leaf
                else list(node.entries)
            )
            remapped = Node(
                node_id=id_map[node.node_id], level=node.level, entries=children
            )
            if manifest:
                # Pages land at ids 0..n-1 in write order, so the file is
                # exactly the concatenation of the padded page payloads.
                payload = store._ser.encode_node(
                    remapped, tree.dim, store.page_size
                ).ljust(store.page_size, b"\x00")
                crc = zlib.crc32(payload, crc)
                size += len(payload)
            store.write(remapped)
        store.flush(sync=manifest)
    if manifest:
        entries["index.pages"] = {"size": size, "crc32": crc & 0xFFFFFFFF}
        faults.trigger("persist.replace:index.pages")
        os.replace(target, pages_path)
    return id_map[tree.root_id]


def load_engine(
    directory: str,
    buffer_capacity: int = 128,
    strict: bool = False,
) -> SimilarityEngine:
    """Reopen a saved engine; its index reads pages from ``index.pages``.

    Every artifact listed in the image's manifest is checksum-verified
    before use.  Corruption of the relation or metadata raises
    :class:`CorruptIndexError` (there is nothing left to serve queries
    from); corruption confined to the index pages or the kernel arrays
    degrades the engine instead — queries reroute to the surviving path
    and ``engine.health()`` says what was lost.  ``strict=True`` raises
    for those too.

    Raises:
        PersistError: the directory is not a saved engine (missing or
            malformed artifact, unknown class name).
        SchemaVersionError: the image was written by a newer build.
        CorruptIndexError: a core artifact fails its checksum, or — under
            ``strict=True`` — any artifact does.
    """
    man = mf.read_manifest(directory)
    index_detail: Optional[str] = None
    kernel_detail: Optional[str] = None
    if man is not None:
        files = man["files"]
        for name in ("meta.json", "relation.npy", "relation.json"):
            if name not in files:
                raise PersistError(
                    f"manifest in {directory!r} has no entry for {name!r}"
                )
            mf.verify_file(directory, name, files[name])
        index_detail = _verify_optional(directory, "index.pages", files, strict)
        kernel_detail = _verify_optional(
            directory, "index_columnar.npz", files, strict
        )

    meta = _load_json(directory, "meta.json")
    rel_meta = _load_json(directory, "relation.json")
    try:
        matrix = np.load(os.path.join(directory, "relation.npy"))
    except FileNotFoundError as exc:
        raise PersistError(
            f"saved image {directory!r} is missing 'relation.npy'"
        ) from exc
    except Exception as exc:
        raise PersistError(
            f"unreadable 'relation.npy' in {directory!r}: {exc}"
        ) from exc

    try:
        relation = SequenceRelation.from_matrix(
            matrix if len(matrix) else np.empty((0, meta["space"]["n"])),
            names=rel_meta["names"],
            attrs=rel_meta["attrs"],
        )
        space = _space_from_meta(meta["space"])
    except PersistError:
        raise
    except Exception as exc:
        raise PersistError(
            f"malformed saved engine in {directory!r}: {exc}"
        ) from exc

    # The index must describe exactly the loaded relation: a saved tree
    # whose leaf-id range disagrees with the row count would return ids
    # pointing at the wrong (or no) records.
    tree_size = int(meta["tree"]["size"])
    if tree_size != len(relation):
        detail = (
            f"index covers {tree_size} records but 'relation.npy' holds "
            f"{len(relation)} rows"
        )
        if strict:
            raise CorruptIndexError(f"{detail} (in {directory!r})")
        index_detail = index_detail or detail

    tree = _tree_from_meta(
        meta["tree"], directory, buffer_capacity, degraded=index_detail is not None
    )

    # Assemble the engine around the existing tree (bypass __init__'s
    # index build but reuse its feature/spectra preparation).
    engine = SimilarityEngine.__new__(SimilarityEngine)
    engine.relation = relation
    engine.space = space
    engine.stats = tree.store.stats
    if len(relation):
        engine.points, engine.ground_spectra = space.extract_many_with_spectra(
            relation.matrix
        )
    else:
        engine.points = np.empty((0, space.dim))
        engine.ground_spectra = np.empty((0, relation.length), dtype=np.complex128)
    engine.tree = tree

    if index_detail is not None:
        # A broken node index takes the kernel down with it: the kernel's
        # leaf ids are only meaningful against a trusted index image.
        engine._index_failed = index_detail
        tree._kernel_disabled = True
        engine._kernel_detail = "unavailable: " + index_detail
    elif kernel_detail is not None:
        tree._kernel_disabled = True
        engine._kernel_detail = kernel_detail
    else:
        kernel_detail = _attach_saved_kernel(
            directory, tree, man, len(relation), strict
        )
        if kernel_detail is not None:
            tree._kernel_disabled = True
            engine._kernel_detail = kernel_detail

    if man is None:
        engine._persist_health = (
            "degraded",
            "loaded without a manifest (legacy image, checksums unverified)",
        )
    else:
        engine._persist_health = ("ok", "manifest verified (crc32)")
    return engine


def _verify_optional(
    directory: str, name: str, files: dict, strict: bool
) -> Optional[str]:
    """Verify a degradable artifact; returns the failure detail (or None)."""
    if name not in files:
        return None
    try:
        mf.verify_file(directory, name, files[name])
    except CorruptIndexError as exc:
        if strict:
            raise
        return str(exc)
    return None


def _load_json(directory: str, name: str) -> dict:
    path = os.path.join(directory, name)
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError as exc:
        raise PersistError(
            f"saved image {directory!r} is missing {name!r}"
        ) from exc
    except Exception as exc:
        raise PersistError(f"unreadable {name!r} in {directory!r}: {exc}") from exc


def _attach_saved_kernel(
    directory: str,
    tree: RTreeBase,
    man: Optional[dict],
    relation_size: int,
    strict: bool,
) -> Optional[str]:
    """Deserialise + validate the saved kernel; returns failure detail."""
    kernel_path = os.path.join(directory, "index_columnar.npz")
    if not os.path.exists(kernel_path):
        return None
    try:
        with np.load(kernel_path) as arrays:
            if man is not None:
                specs = man["files"].get("index_columnar.npz", {}).get("arrays")
                if specs:
                    mf.verify_arrays("index_columnar.npz", arrays, specs)
            kernel = FrozenRTree.from_arrays(arrays, validate=True)
        if kernel.size != relation_size:
            raise CorruptIndexError(
                f"kernel in {directory!r} covers {kernel.size} records, "
                f"relation holds {relation_size}"
            )
    except CorruptIndexError as exc:
        if strict:
            raise
        return str(exc)
    except Exception as exc:  # repro: allow(REP006): non-strict verify reports corruption as a string
        detail = f"unreadable 'index_columnar.npz' in {directory!r}: {exc}"
        if strict:
            raise CorruptIndexError(detail) from exc
        return detail
    attach_kernel(tree, kernel)
    return None


def _space_from_meta(meta: dict) -> FeatureSpace:
    cls = _SPACE_CLASSES.get(meta["class"])
    if cls is None:
        raise PersistError(f"unknown feature space class {meta['class']!r}")
    return cls(
        meta["n"],
        meta["k"],
        coord=meta["coord"],
        exploit_symmetry=meta["exploit_symmetry"],
    )


def _tree_from_meta(
    meta: dict, directory: str, buffer_capacity: int, degraded: bool = False
) -> RTreeBase:
    cls = _TREE_CLASSES.get(meta["class"])
    if cls is None:
        raise PersistError(f"unknown tree class {meta['class']!r}")
    # A failed index never serves reads: back the store with an empty
    # in-memory page file instead of opening (or creating!) the damaged
    # one — the planner routes every query to the sequential scan.
    pagefile = (
        PageFile()
        if degraded
        else PageFile(path=os.path.join(directory, "index.pages"))
    )
    store = PagedNodeStore(
        meta["dim"], pagefile=pagefile, buffer_capacity=buffer_capacity
    )
    # Fill RTreeBase's attributes by hand: __init__ would allocate a fresh
    # empty root, but the root already lives in the page file.
    tree = cls.__new__(cls)
    tree.dim = meta["dim"]
    tree.store = store
    tree.max_entries = meta["max_entries"]
    tree.min_entries = max(2, int(np.ceil(0.4 * meta["max_entries"])))
    tree.size = meta["size"]
    tree.root_id = meta["root_id"]
    tree._root_level = meta["root_level"]
    if cls is RStarTree:
        tree.reinsert_fraction = 0.3
    else:
        tree.split = "quadratic"
    return tree
