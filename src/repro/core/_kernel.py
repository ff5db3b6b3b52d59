"""Build-on-first-use loader for the fine-grained path's C kernel.

``_fgkernel.c`` (next to this file) holds C ports of the simulator's two
hottest per-event loops: ``PiccoloCache.access_many`` and
``CollectionExtendedMSHR.add_batch``.  :func:`load` compiles it with the
system C compiler the first time an engine asks for it -- never at
import -- and loads it through :mod:`ctypes`.

Build cache: the shared library lives under the user cache directory
(``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``) as
``fgkernel-<hash>.so``, where ``<hash>`` covers the C source, the
compiler flags and the machine type.  A build stages to a temporary
sibling and commits with ``os.replace`` unless another process already
committed a valid library (first writer wins), so concurrent first uses
all load one valid file.  A cached file is loaded only when it is a
complete ELF object carrying the source hash; a truncated or foreign
file is rebuilt instead.  After loading, the exported
``fgk_source_hash()`` must return that hash as well.

Fallback: when no compiler is found or the build fails, :func:`load`
returns None and the engines run their Python loops, which stay the
reference behaviour (tests/test_batched_equivalence.py checks the
kernel against them and against the scalar oracles).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import struct
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

#: the C source compiled by :func:`build_or_open`
SOURCE = Path(__file__).with_name("_fgkernel.c")
_FLAGS = ("-O2", "-shared", "-fPIC")
_PTR = ctypes.c_void_p
_I64 = ctypes.c_int64
_ArgTypes = list[type[ctypes.c_void_p] | type[ctypes.c_int64]]
#: fgk_piccolo_access(addrs, n, start, 6 state arrays, params, counts,
#: events, event capacity)
_PICCOLO_ARGS: _ArgTypes = [_PTR, _I64, _I64, *[_PTR] * 9, _I64]
#: fgk_mshr_add(addrs, is_wb, n, 5 state arrays, params, counts,
#: 3 op columns)
_MSHR_ARGS: _ArgTypes = [_PTR, _PTR, _I64, *[_PTR] * 10]

_lock = threading.Lock()
_loaded = False
_kernel: Kernel | None = None


class Kernel:
    """The loaded library with typed entry points (see ``_fgkernel.c``)."""

    def __init__(self, lib: ctypes.CDLL, path: Path) -> None:
        self.path = path
        self.piccolo_access = lib.fgk_piccolo_access
        self.piccolo_access.argtypes = _PICCOLO_ARGS
        self.piccolo_access.restype = _I64
        self.mshr_add = lib.fgk_mshr_add
        self.mshr_add.argtypes = _MSHR_ARGS
        self.mshr_add.restype = _I64
        source_hash = lib.fgk_source_hash
        source_hash.restype = ctypes.c_char_p
        self.source_hash: str = (source_hash() or b"").decode()


def ptr(arr: np.ndarray, dtype: type[np.generic]) -> int:
    """Address of ``arr``'s data for a kernel argument; refuses arrays
    whose layout the kernel would misread."""
    if arr.dtype.type is not dtype or not arr.flags.c_contiguous:
        raise ValueError(
            f"kernel argument must be a C-contiguous {np.dtype(dtype)} "
            f"array, got {arr.dtype} (contiguous={arr.flags.c_contiguous})"
        )
    return int(arr.ctypes.data)


def source_marker() -> str:
    """The string the library exports from ``fgk_source_hash()``."""
    h = hashlib.sha256(SOURCE.read_bytes())
    h.update(" ".join(_FLAGS).encode())
    h.update(platform.machine().encode())
    return "fgkernel-source-" + h.hexdigest()[:16]


def library_path(marker: str) -> Path:
    """Cache location of the library built for ``marker``."""
    root = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(root) / "repro" / (marker.replace("-source", "") + ".so")


def _usable(path: Path, marker: str) -> bool:
    """A complete 64-bit ELF object (section table inside the file)
    that contains ``marker``; anything else is rebuilt, never loaded."""
    try:
        data = path.read_bytes()
    except OSError:
        return False
    if len(data) < 64 or data[:5] != b"\x7fELF\x02":
        return False
    endian = "<" if data[5] == 1 else ">"
    (shoff,) = struct.unpack_from(endian + "Q", data, 0x28)
    shentsize, shnum = struct.unpack_from(endian + "HH", data, 0x3A)
    if shoff + shentsize * shnum > len(data):
        return False
    return marker.encode() in data


def _build(target: Path, marker: str) -> bool:
    """Compile into a tmp sibling of ``target``; commit it unless a
    valid library is already there.  True when ``target`` is usable."""
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        return False
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=target.name + ".", suffix=".tmp", dir=target.parent
        )
    except OSError:
        return False
    os.close(fd)
    tmp_path = Path(tmp_name)
    try:
        proc = subprocess.run(
            [compiler, *_FLAGS, f'-DFGK_SOURCE_HASH="{marker}"',
             "-o", str(tmp_path), str(SOURCE)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=300,
            check=False,
        )
        if proc.returncode != 0 or not _usable(tmp_path, marker):
            return False
        if not _usable(target, marker):
            os.replace(tmp_path, target)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        tmp_path.unlink(missing_ok=True)


def _open(path: Path, marker: str) -> Kernel | None:
    if not _usable(path, marker):
        return None
    try:
        kernel = Kernel(ctypes.CDLL(str(path)), path)
    except (OSError, AttributeError):
        return None
    return kernel if kernel.source_hash == marker else None


def build_or_open() -> Kernel | None:
    """Load the cached library, building it first when it is missing or
    unusable; None when no valid library can be produced."""
    marker = source_marker()
    path = library_path(marker)
    kernel = _open(path, marker)
    if kernel is None and _build(path, marker):
        kernel = _open(path, marker)
    return kernel


def load() -> Kernel | None:
    """The process-wide kernel, built or opened on the first call."""
    global _loaded, _kernel
    if not _loaded:
        with _lock:
            if not _loaded:
                _kernel = build_or_open()
                _loaded = True
    return _kernel
