"""Persistence of measurement data (JSON for fidelity, CSV for analysis, NPZ for speed).

The paper publishes its 12 000-measurement dataset in a CodeOcean capsule;
these helpers let users export and re-import the simulator-generated
equivalent so that model training can be decoupled from dataset generation.

Four formats, one invariant — loading what was saved reproduces the same
measurement table:

- **JSON** (optionally gzip-compressed): full fidelity including segments and
  metadata, human-inspectable.
- **CSV**: one row per (function, size), for spreadsheets and pandas;
  drops segment composition and dataset metadata.

  Both text codecs write the measured cells of a table, with the statistics
  of a cell flattened in :data:`FLAT_STAT_COLUMNS` order, and read a file
  back into a table; their loaders return the object view of that table.
- **NPZ**: the columnar :class:`~repro.dataset.table.MeasurementTable` arrays
  saved directly via :func:`numpy.savez_compressed` — the fast path for
  paper-scale datasets that still fit in memory.
- **Sharded NPZ**: a directory with a versioned JSON manifest plus one
  uncompressed NPZ per function shard — the out-of-core format behind
  :class:`~repro.dataset.sharding.ShardedMeasurementTable`.

Every format is versioned, and every loader raises
:class:`~repro.errors.DatasetError` (never a bare ``KeyError`` or
``ValueError``) on missing files, missing keys, corrupt payloads or
unsupported versions.  The on-disk contracts are specified field by field in
``docs/FORMATS.md``.
"""

from __future__ import annotations

import csv
import gzip
import json
import zipfile
from pathlib import Path

import numpy as np

from repro.errors import DatasetError
from repro.dataset.schema import MeasurementDataset
from repro.dataset.table import MeasurementTable, MeasurementTableBuilder
from repro.monitoring.aggregation import STAT_NAMES
from repro.monitoring.metrics import METRIC_NAMES

_FORMAT_VERSION = 1
_NPZ_FORMAT_VERSION = 1

#: Format version of the sharded-table manifest (``manifest.json``).
MANIFEST_FORMAT_VERSION = 1

#: Format version of the per-shard NPZ archives.
SHARD_FORMAT_VERSION = 1

#: File name of the shard manifest inside a sharded-table directory.
MANIFEST_FILENAME = "manifest.json"

#: Keys every shard manifest must carry (documented in ``docs/FORMATS.md``).
MANIFEST_REQUIRED_KEYS = (
    "format_version",
    "shard_size",
    "n_functions",
    "n_shards",
    "memory_sizes_mb",
    "metric_names",
    "stat_names",
    "dtypes",
    "description",
    "metadata",
    "shards",
)

#: Keys every per-shard NPZ must carry (documented in ``docs/FORMATS.md``).
SHARD_NPZ_KEYS = (
    "format_version",
    "values",
    "n_invocations",
    "function_names",
    "applications",
    "segments_json",
)

#: Keys every whole-table NPZ must carry (documented in ``docs/FORMATS.md``).
TABLE_NPZ_KEYS = (
    "format_version",
    "values",
    "n_invocations",
    "memory_sizes_mb",
    "function_names",
    "applications",
    "metric_names",
    "stat_names",
    "segments_json",
    "description",
    "metadata_json",
)

#: On-disk dtypes of the dense shard arrays, recorded in the manifest.
SHARD_DTYPES = {"values": "float64", "n_invocations": "int64"}

_GZIP_MAGIC = b"\x1f\x8b"

#: The flat statistic columns of one (function, size) cell, ``<metric>_<stat>``
#: in Table-1 metric order and :data:`~repro.monitoring.aggregation.STAT_NAMES`
#: order: the JSON ``values`` keys and the CSV statistic columns.
FLAT_STAT_COLUMNS = tuple(f"{metric}_{stat}" for metric in METRIC_NAMES for stat in STAT_NAMES)

#: The CSV columns ahead of the statistics.
_CSV_ID_COLUMNS = ("function_name", "application", "memory_mb", "n_invocations")


def _wants_gzip(path: Path, compress: bool | None) -> bool:
    return path.suffix == ".gz" if compress is None else bool(compress)


def _require_npz_keys(archive, required: tuple[str, ...], path: Path) -> None:
    """Reject an NPZ archive that lacks required keys with a typed error."""
    missing = [key for key in required if key not in archive]
    if missing:
        raise DatasetError(f"corrupt dataset file {path}: missing keys {missing}")


def _as_table(dataset: MeasurementDataset | MeasurementTable) -> MeasurementTable:
    return dataset if isinstance(dataset, MeasurementTable) else dataset.to_table()


def _measured_cells(table: MeasurementTable):
    """Yield ``(function row, memory_mb, n_invocations, flat stats)`` per measured cell.

    Cells come function-major; the flat stats follow
    :data:`FLAT_STAT_COLUMNS` as Python floats, written like any float.
    """
    shape = (table.n_functions, table.n_sizes, len(FLAT_STAT_COLUMNS))
    values = table.values.reshape(shape).tolist()
    for (i, j), count in np.ndenumerate(table.n_invocations):
        if count:
            yield i, table.memory_sizes_mb[j], int(count), values[i][j]


def _table_from_cells(functions, description="", metadata=None) -> MeasurementTable:
    """Build a table from ``(name, application, segments, cells)`` per function.

    ``cells`` maps a memory size to ``(n_invocations, flat)``, where ``flat``
    maps every :data:`FLAT_STAT_COLUMNS` key to a number.
    """
    sizes = sorted({memory_mb for *_, cells in functions for memory_mb in cells})
    if any(memory_mb <= 0 for memory_mb in sizes):
        raise DatasetError("memory sizes must be positive")
    builder = MeasurementTableBuilder(
        memory_sizes_mb=tuple(sizes), description=description, metadata=metadata
    )
    for name, application, segments, cells in functions:
        stats = np.zeros((len(sizes), len(FLAT_STAT_COLUMNS)))
        counts = np.zeros(len(sizes), dtype=np.int64)
        for j, memory_mb in enumerate(sizes):
            if memory_mb in cells:
                counts[j], flat = cells[memory_mb]
                stats[j] = [float(flat[key]) for key in FLAT_STAT_COLUMNS]
        builder.add_function(
            name,
            application=application,
            segments=segments,
            stats=stats.reshape(len(sizes), len(METRIC_NAMES), len(STAT_NAMES)),
            counts=counts,
        )
    return builder.build()


def save_dataset_json(
    dataset: MeasurementDataset | MeasurementTable,
    path: str | Path,
    compress: bool | None = None,
    indent: int | None = None,
) -> Path:
    """Serialise measurements to a JSON file and return the written path.

    Parameters
    ----------
    compress:
        Write gzip-compressed JSON.  ``None`` (default) infers from the path
        suffix (``.gz`` compresses).
    indent:
        Pretty-print indentation.  ``None`` (default) writes compact JSON
        with minimal separators — at paper scale the indented form is several
        times larger and slower to write.
    """
    path = Path(path)
    table = _as_table(dataset)
    summaries: list[dict] = [{} for _ in table.function_names]
    for i, memory_mb, count, flat in _measured_cells(table):
        summaries[i][str(memory_mb)] = {
            "n_invocations": count,
            "values": dict(zip(FLAT_STAT_COLUMNS, flat)),
        }
    payload = {
        "format_version": _FORMAT_VERSION,
        "description": table.description,
        "metadata": table.metadata,
        "measurements": [
            {
                "function_name": name,
                "application": application,
                "segments": [list(pair) for pair in segments],
                "summaries": cells,
            }
            for name, application, segments, cells in zip(
                table.function_names, table.applications, table.segments, summaries
            )
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    separators = (",", ":") if indent is None else None
    if _wants_gzip(path, compress):
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=indent, separators=separators)
    else:
        with path.open("w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=indent, separators=separators)
    return path


def load_dataset_json(path: str | Path) -> MeasurementDataset:
    """Load a dataset previously written by :func:`save_dataset_json`.

    Transparently handles both plain and gzip-compressed files (detected by
    magic bytes, not by suffix).
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset file {path} does not exist")
    try:
        with path.open("rb") as probe:
            compressed = probe.read(2) == _GZIP_MAGIC
        if compressed:
            with gzip.open(path, "rt", encoding="utf-8") as handle:
                payload = json.load(handle)
        else:
            with path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError, gzip.BadGzipFile, EOFError) as exc:
        raise DatasetError(f"corrupt dataset file {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise DatasetError(f"corrupt dataset file {path}: expected a JSON object")
    if payload.get("format_version") != _FORMAT_VERSION:
        raise DatasetError(
            f"unsupported dataset format version {payload.get('format_version')!r}"
        )
    try:
        functions = [
            (
                entry["function_name"],
                entry.get("application", "synthetic"),
                entry.get("segments", []),
                {
                    int(memory_mb): (int(cell["n_invocations"]), cell["values"])
                    for memory_mb, cell in entry.get("summaries", {}).items()
                },
            )
            for entry in payload.get("measurements", [])
        ]
        table = _table_from_cells(
            functions, payload.get("description", ""), payload.get("metadata", {})
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"corrupt dataset file {path}: {exc!r}") from None
    return table.to_dataset()


def save_dataset_csv(dataset: MeasurementDataset | MeasurementTable, path: str | Path) -> Path:
    """Export measurements to a flat CSV (one row per function and memory size).

    Segment composition and dataset-level metadata are not representable in
    the flat layout and are dropped; statistics round-trip exactly through
    :func:`load_dataset_csv`.
    """
    path = Path(path)
    table = _as_table(dataset)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([*_CSV_ID_COLUMNS, *FLAT_STAT_COLUMNS])
        for i, memory_mb, count, flat in _measured_cells(table):
            writer.writerow(
                [table.function_names[i], table.applications[i], memory_mb, count, *flat]
            )
    return path


def load_dataset_csv(path: str | Path) -> MeasurementDataset:
    """Load a dataset previously written by :func:`save_dataset_csv`.

    Rows are grouped by function in file order; segments and metadata are
    empty (the CSV layout does not carry them).  A header-only file loads as
    an empty dataset; a file without the expected header is rejected.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset file {path} does not exist")
    functions: dict[str, tuple[str, dict]] = {}
    try:
        with path.open("r", encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            header = set(reader.fieldnames or ())
            if not set(_CSV_ID_COLUMNS) <= header:
                raise DatasetError(
                    f"corrupt dataset file {path}: "
                    f"missing columns {sorted(set(_CSV_ID_COLUMNS) - header)}"
                )
            for row in reader:
                cells = functions.setdefault(
                    row["function_name"], (row.get("application", "synthetic"), {})
                )[1]
                cells[int(float(row["memory_mb"]))] = (int(row["n_invocations"]), row)
        table = _table_from_cells(
            [(name, application, (), cells) for name, (application, cells) in functions.items()]
        )
    except DatasetError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"corrupt dataset file {path}: {exc!r}") from None
    return table.to_dataset()


def save_table_npz(table: MeasurementTable, path: str | Path) -> Path:
    """Save a columnar measurement table as a compressed NPZ archive.

    The fast round-trip: the dense stat arrays are written directly (no
    per-summary flattening), so paper-scale datasets save and load in
    milliseconds.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as handle:
        np.savez_compressed(
            handle,
            format_version=np.int64(_NPZ_FORMAT_VERSION),
            values=table.values,
            n_invocations=np.asarray(table.n_invocations, dtype=np.int64),
            memory_sizes_mb=np.asarray(table.memory_sizes_mb, dtype=np.int64),
            function_names=np.asarray(table.function_names, dtype=np.str_),
            applications=np.asarray(table.applications, dtype=np.str_),
            metric_names=np.asarray(table.metric_names, dtype=np.str_),
            stat_names=np.asarray(table.stat_names, dtype=np.str_),
            segments_json=np.asarray(json.dumps([list(map(list, s)) for s in table.segments])),
            description=np.asarray(table.description),
            metadata_json=np.asarray(json.dumps(table.metadata)),
        )
    return path


def load_table_npz(path: str | Path) -> MeasurementTable:
    """Load a measurement table previously written by :func:`save_table_npz`."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset file {path} does not exist")
    try:
        with np.load(path, allow_pickle=False) as archive:
            _require_npz_keys(archive, TABLE_NPZ_KEYS, path)
            version = int(archive["format_version"])
            if version != _NPZ_FORMAT_VERSION:
                raise DatasetError(f"unsupported dataset format version {version!r}")
            segments = tuple(
                tuple((str(name), float(value)) for name, value in entry)
                for entry in json.loads(str(archive["segments_json"]))
            )
            return MeasurementTable(
                function_names=tuple(str(name) for name in archive["function_names"]),
                applications=tuple(str(app) for app in archive["applications"]),
                segments=segments,
                memory_sizes_mb=tuple(int(size) for size in archive["memory_sizes_mb"]),
                values=np.asarray(archive["values"], dtype=float),
                n_invocations=np.asarray(archive["n_invocations"], dtype=np.int64),
                metric_names=tuple(str(metric) for metric in archive["metric_names"]),
                stat_names=tuple(str(stat) for stat in archive["stat_names"]),
                description=str(archive["description"]),
                metadata=json.loads(str(archive["metadata_json"])),
            )
    except DatasetError:
        raise
    except (zipfile.BadZipFile, OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        raise DatasetError(f"corrupt dataset file {path}: {exc!r}") from None


def save_dataset_npz(dataset: MeasurementDataset | MeasurementTable, path: str | Path) -> Path:
    """Save measurements as NPZ (columnarizing an object-API dataset first)."""
    return save_table_npz(_as_table(dataset), path)


def load_dataset_npz(path: str | Path) -> MeasurementDataset:
    """Load an NPZ archive as an object-API dataset (table view)."""
    return load_table_npz(path).to_dataset()


# --------------------------------------------------------------- sharded format
def write_shard_manifest(directory: str | Path, manifest: dict) -> Path:
    """Write the manifest of a sharded table directory and return its path.

    The manifest is the versioned index of the sharded on-disk format: shard
    file names and their function-axis placement, array dtypes and the axis
    metadata shared by all shards (see ``docs/FORMATS.md``).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    missing = [key for key in MANIFEST_REQUIRED_KEYS if key not in manifest]
    if missing:
        raise DatasetError(f"shard manifest is missing fields {missing}")
    path = directory / MANIFEST_FILENAME
    with path.open("w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
    return path


def read_shard_manifest(directory: str | Path) -> dict:
    """Read and validate the manifest of a sharded table directory.

    Checks the format version, the presence of every required field, and the
    contiguity of the shard index (shards must tile ``0..n_functions`` in
    order, without gaps or overlaps).  Any violation raises
    :class:`~repro.errors.DatasetError`.
    """
    directory = Path(directory)
    path = directory / MANIFEST_FILENAME
    if not path.exists():
        raise DatasetError(
            f"{directory} is not a sharded table directory ({MANIFEST_FILENAME} missing)"
        )
    try:
        with path.open("r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DatasetError(f"corrupt shard manifest {path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise DatasetError(f"corrupt shard manifest {path}: expected a JSON object")
    if manifest.get("format_version") != MANIFEST_FORMAT_VERSION:
        raise DatasetError(
            f"unsupported shard manifest format version "
            f"{manifest.get('format_version')!r}"
        )
    missing = [key for key in MANIFEST_REQUIRED_KEYS if key not in manifest]
    if missing:
        raise DatasetError(f"corrupt shard manifest {path}: missing fields {missing}")
    field_types = {
        "shard_size": int,
        "n_functions": int,
        "n_shards": int,
        "description": str,
        "metadata": dict,
        "memory_sizes_mb": list,
        "metric_names": list,
        "stat_names": list,
    }
    for key, expected_type in field_types.items():
        # bool is an int subclass; a boolean count is still corrupt.
        value = manifest[key]
        if not isinstance(value, expected_type) or isinstance(value, bool):
            raise DatasetError(
                f"corrupt shard manifest {path}: {key} must be "
                f"{expected_type.__name__}, got {value!r}"
            )
    if manifest["shard_size"] < 1 or manifest["n_functions"] < 0:
        raise DatasetError(
            f"corrupt shard manifest {path}: shard_size/n_functions out of range"
        )
    if not all(isinstance(size, int) and not isinstance(size, bool)
               for size in manifest["memory_sizes_mb"]):
        raise DatasetError(
            f"corrupt shard manifest {path}: memory_sizes_mb must be integers"
        )
    dtypes = manifest["dtypes"]
    if not isinstance(dtypes, dict) or dict(dtypes) != SHARD_DTYPES:
        raise DatasetError(
            f"corrupt shard manifest {path}: dtypes {dtypes!r} "
            f"(supported: {SHARD_DTYPES})"
        )
    shards = manifest["shards"]
    if not isinstance(shards, list) or len(shards) != manifest["n_shards"]:
        raise DatasetError(
            f"corrupt shard manifest {path}: n_shards does not match the shard index"
        )
    expected_start = 0
    for entry in shards:
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("file"), str)
            or not isinstance(entry.get("start"), int)
            or not isinstance(entry.get("stop"), int)
        ):
            raise DatasetError(
                f"corrupt shard manifest {path}: malformed shard entry {entry!r}"
            )
        # Shard files live flat inside the table directory; a path that
        # escapes it (absolute, or with separators) must not be followed.
        file_name = entry["file"]
        if not file_name or file_name != Path(file_name).name:
            raise DatasetError(
                f"corrupt shard manifest {path}: shard file {file_name!r} "
                f"must be a bare file name inside the table directory"
            )
        if entry["start"] != expected_start or entry["stop"] <= entry["start"]:
            raise DatasetError(
                f"corrupt shard manifest {path}: shards must tile the function "
                f"axis contiguously (entry {entry!r}, expected start {expected_start})"
            )
        expected_start = entry["stop"]
    if expected_start != manifest["n_functions"]:
        raise DatasetError(
            f"corrupt shard manifest {path}: shards cover {expected_start} of "
            f"{manifest['n_functions']} functions"
        )
    return manifest


def save_shard_npz(path: str | Path, shard: MeasurementTable) -> Path:
    """Save one function shard as an uncompressed NPZ archive.

    The shard carries the dense ``values`` / ``n_invocations`` arrays of its
    function rows plus the per-function index arrays; the axis metadata
    shared by all shards lives in the manifest.  Shards are written
    *uncompressed* (:func:`numpy.savez`) so that lazily decoding a member on
    access costs one read, not a decompression pass over the archive.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as handle:
        np.savez(
            handle,
            format_version=np.int64(SHARD_FORMAT_VERSION),
            values=np.asarray(shard.values, dtype=np.float64),
            n_invocations=np.asarray(shard.n_invocations, dtype=np.int64),
            function_names=np.asarray(shard.function_names, dtype=np.str_),
            applications=np.asarray(shard.applications, dtype=np.str_),
            segments_json=np.asarray(
                json.dumps([list(map(list, s)) for s in shard.segments])
            ),
        )
    return path


def open_shard_npz(path: str | Path):
    """Open one shard NPZ for reading and return the validated archive.

    The archive is opened with ``numpy.load(..., mmap_mode="r")``; numpy
    does not map zip members, but NPZ members decode lazily on access, so
    only the members a caller touches are ever read and inflated.  Missing
    files,
    unreadable archives, missing keys and version mismatches all raise
    :class:`~repro.errors.DatasetError`; the caller must close the archive.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"shard file {path} is missing")
    try:
        archive = np.load(path, allow_pickle=False, mmap_mode="r")
    except (zipfile.BadZipFile, OSError, ValueError) as exc:
        raise DatasetError(f"corrupt shard file {path}: {exc!r}") from None
    try:
        _require_npz_keys(archive, SHARD_NPZ_KEYS, path)
        version = int(archive["format_version"])
        if version != SHARD_FORMAT_VERSION:
            raise DatasetError(f"unsupported shard format version {version!r}")
    except DatasetError:
        archive.close()
        raise
    except (zipfile.BadZipFile, OSError, KeyError, ValueError) as exc:
        archive.close()
        raise DatasetError(f"corrupt shard file {path}: {exc!r}") from None
    return archive


def load_shard_index_arrays(path: str | Path):
    """Load the light per-function index arrays of one shard NPZ.

    Returns ``(function_names, applications, segments, n_invocations)``; the
    dense ``values`` member is deliberately not touched, so opening a sharded
    table stays cheap regardless of shard size.
    """
    path = Path(path)
    try:
        with open_shard_npz(path) as archive:
            segments = tuple(
                tuple((str(name), float(value)) for name, value in entry)
                for entry in json.loads(str(archive["segments_json"]))
            )
            return (
                tuple(str(name) for name in archive["function_names"]),
                tuple(str(app) for app in archive["applications"]),
                segments,
                np.asarray(archive["n_invocations"], dtype=np.int64),
            )
    except DatasetError:
        raise
    except (
        zipfile.BadZipFile,
        OSError,
        KeyError,
        TypeError,
        ValueError,
        json.JSONDecodeError,
    ) as exc:
        raise DatasetError(f"corrupt shard file {path}: {exc!r}") from None


def load_shard_values(path: str | Path) -> np.ndarray:
    """Load the dense ``values`` array of one shard NPZ.

    The returned array has the on-disk dtype (float64); shape validation
    against the manifest happens in the sharded table, which knows the
    expected axis lengths.
    """
    path = Path(path)
    try:
        with open_shard_npz(path) as archive:
            values = archive["values"]
    except DatasetError:
        raise
    except (zipfile.BadZipFile, OSError, KeyError, ValueError) as exc:
        raise DatasetError(f"corrupt shard file {path}: {exc!r}") from None
    if values.dtype != np.dtype(SHARD_DTYPES["values"]):
        raise DatasetError(
            f"corrupt shard file {path}: values dtype {values.dtype} "
            f"(expected {SHARD_DTYPES['values']})"
        )
    return values


def save_table_sharded(
    dataset: MeasurementDataset | MeasurementTable,
    directory: str | Path,
    shard_size: int,
    overwrite: bool = False,
) -> Path:
    """Persist measurements as a sharded table directory and return its path.

    Columnarizes an object-API dataset first, then writes ``shard_size``
    functions per NPZ plus the manifest via
    :func:`repro.dataset.sharding.shard_table`.
    """
    from repro.dataset.sharding import shard_table

    shard_table(_as_table(dataset), directory, shard_size=shard_size, overwrite=overwrite)
    return Path(directory)


def load_table_sharded(directory: str | Path):
    """Open a sharded table directory written by :func:`save_table_sharded`.

    Returns a :class:`~repro.dataset.sharding.ShardedMeasurementTable`; only
    the manifest and the light index arrays are read eagerly, the dense stat
    arrays stay on disk until accessed shard by shard.
    """
    from repro.dataset.sharding import ShardedMeasurementTable

    return ShardedMeasurementTable.open(directory)
