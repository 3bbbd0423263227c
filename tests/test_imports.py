"""The import contract: a run loads only the layers it uses.

``repro`` resolves its public names on first access (PEP 562), and the
service and fleet modules import asyncio only once serving starts, so
a library or replay run pays for neither the event loop nor the
sweep, fleet and verification stacks.  Module-loading checks run in a
fresh interpreter, where nothing is imported yet.
"""

import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.jobs.job import JobSpec
from repro.jobs.stage import StageProfile
from repro.service import ServiceClient

SRC = Path(repro.__file__).resolve().parent.parent

#: Modules a library, replay or service import must not load.
NOT_LOADED = (
    "asyncio",
    "ssl",
    "concurrent.futures",
    "multiprocessing",
    "repro.fleet",
    "repro.sweep",
    "repro.verify",
)


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
    )


def test_library_imports_load_no_serving_or_sweep_stack():
    code = (
        "import json, sys\n"
        "import repro, repro.replay, repro.service.server\n"
        f"print(json.dumps([m for m in {NOT_LOADED!r} if m in sys.modules]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True,
        text=True, timeout=60, check=True,
    ).stdout
    assert json.loads(out) == []


@pytest.mark.parametrize("name", [n for n in repro.__all__ if n != "__version__"])
def test_public_name_is_the_defining_modules_object(name):
    value = getattr(repro, name)
    assert value is getattr(importlib.import_module(repro._MODULE_OF[name]), name)
    defining = getattr(value, "__module__", None)
    if defining is not None and defining.startswith("repro."):
        assert value is getattr(importlib.import_module(defining), name)


def test_dir_covers_all():
    assert set(repro.__all__) <= set(dir(repro))


def test_star_import_binds_all():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name  # noqa: B018


def test_repro_serve_starts_its_loop(tmp_path):
    """``repro serve`` imports asyncio when serving starts; a fresh
    interpreter must still open the socket and answer a full session."""
    path = str(tmp_path / "repro.sock")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--socket", path,
         "--scheduler", "fifo", "--jobs", "4", "--machines", "1",
         "--gpus-per-machine", "2"],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        deadline = time.monotonic() + 30.0
        while not os.path.exists(path):
            assert process.poll() is None, process.stderr.read()
            assert time.monotonic() < deadline, "socket never appeared"
            time.sleep(0.05)
        client = ServiceClient(path, timeout=30.0)
        try:
            assert client.ping() is True
            job = client.submit(JobSpec(
                profile=StageProfile((0.1, 0.2, 0.3, 0.1)), num_gpus=1,
                num_iterations=10,
            ))
            client.drain()
            result = client.result(timeout=30.0)
        finally:
            client.close()
        assert list(result.jcts) == [job.job_id]
        assert process.wait(timeout=30.0) == 0
    finally:
        if process.poll() is None:
            process.kill()
        process.communicate()
