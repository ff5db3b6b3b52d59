"""The fine-grained path's C kernel loader (repro.core._kernel).

Covers the build cache (first use builds once, concurrent first uses
share one library, damaged cache entries are rebuilt and never loaded),
the rule that importing the package never compiles, and the fallback:
with the loader reporting no kernel, whole cells give the same records.
"""

import multiprocessing as mp
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.accel.systems import make_system
from repro.core import _kernel
from repro.experiments.runner import CellSpec, resolve_cell
from repro.graph.datasets import load_dataset

COMPILER = shutil.which("cc") or shutil.which("gcc")
needs_compiler = pytest.mark.skipif(
    COMPILER is None, reason="no C compiler on this host"
)


@pytest.fixture
def cache_home(tmp_path, monkeypatch):
    """A private build cache for this test (inherited by spawn workers)."""
    home = tmp_path / "cache-home"
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home


def _first_use(barrier, queue):
    """Spawn worker: load the kernel in a fresh interpreter, all workers
    released at once so their builds overlap."""
    from repro.core import _kernel as kernel_module

    barrier.wait()
    kernel = kernel_module.load()
    queue.put(None if kernel is None else (str(kernel.path), kernel.source_hash))


@needs_compiler
def test_concurrent_first_use_builds_one_valid_library(cache_home):
    ctx = mp.get_context("spawn")
    barrier = ctx.Barrier(2)
    queue = ctx.Queue()
    workers = [
        ctx.Process(target=_first_use, args=(barrier, queue)) for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    results = [queue.get(timeout=300) for _ in workers]
    for worker in workers:
        worker.join(timeout=60)
        assert worker.exitcode == 0
    marker = _kernel.source_marker()
    path = _kernel.library_path(marker)
    assert path.is_relative_to(cache_home)
    assert results == [(str(path), marker)] * 2
    # one committed library, no staging leftovers
    assert [p.name for p in path.parent.iterdir()] == [path.name]
    assert _kernel._usable(path, marker)


@needs_compiler
@pytest.mark.parametrize("damage", ["truncated", "foreign"])
def test_damaged_cache_entry_is_rebuilt_not_loaded(
    cache_home, tmp_path, monkeypatch, damage
):
    marker = _kernel.source_marker()
    path = _kernel.library_path(marker)
    path.parent.mkdir(parents=True)
    if damage == "truncated":
        good = tmp_path / "good.so"
        assert _kernel._build(good, marker)
        data = good.read_bytes()
        path.write_bytes(data[: len(data) // 2])
    else:
        src = tmp_path / "foreign.c"
        src.write_text("long fgk_piccolo_access(void) { return 0; }\n")
        subprocess.run(
            [COMPILER, "-shared", "-fPIC", "-o", str(path), str(src)],
            check=True,
        )
    assert not _kernel._usable(path, marker)

    opened = []
    real_cdll = _kernel.ctypes.CDLL

    def spy_cdll(name, *args, **kwargs):
        opened.append(_kernel._usable(Path(name), marker))
        return real_cdll(name, *args, **kwargs)

    monkeypatch.setattr(_kernel.ctypes, "CDLL", spy_cdll)
    kernel = _kernel.build_or_open()
    assert kernel is not None
    assert kernel.source_hash == marker
    assert opened == [True]  # only the rebuilt library was ever loaded
    assert _kernel._usable(path, marker)


@needs_compiler
def test_exported_hash_must_match(cache_home, tmp_path):
    """A library whose exported source hash differs is refused even when
    its bytes carry the expected marker."""
    marker = _kernel.source_marker()
    src = tmp_path / "impostor.c"
    src.write_text(
        f'const char pad[] = "{marker}";\n'
        'const char *fgk_source_hash(void) { return "other"; }\n'
        "long fgk_piccolo_access(void) { return 0; }\n"
        "long fgk_mshr_add(void) { return 0; }\n"
    )
    path = tmp_path / "impostor.so"
    subprocess.run(
        [COMPILER, "-shared", "-fPIC", "-o", str(path), str(src)], check=True
    )
    assert _kernel._usable(path, marker)
    assert _kernel._open(path, marker) is None


def test_import_never_builds(tmp_path):
    """Importing the package (and the service) compiles nothing: the
    build happens at the first access_many/add_batch call."""
    src_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        [src_root] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    code = (
        "import repro.core, repro.experiments.runner, repro.service.core\n"
        "from repro.core import _kernel\n"
        "assert not _kernel._loaded\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    assert list(tmp_path.iterdir()) == []


def _run_cell(system, algorithm):
    cell = resolve_cell(CellSpec(system, algorithm, "SW"))
    graph = load_dataset(cell.dataset, cell.shift)
    accel = make_system(cell.system, **cell.make_kwargs)
    return accel.run(
        graph, cell.algorithm, max_iterations=cell.max_iterations
    ).to_record()


@needs_compiler
@pytest.mark.parametrize("system", ["Piccolo", "NMP"])
@pytest.mark.parametrize("algorithm", ["PR", "BFS"])
def test_fallback_matches_kernel_on_toy_cells(monkeypatch, system, algorithm):
    assert _kernel.load() is not None
    with_kernel = _run_cell(system, algorithm)
    monkeypatch.setattr(_kernel, "load", lambda: None)
    assert _run_cell(system, algorithm) == with_kernel
