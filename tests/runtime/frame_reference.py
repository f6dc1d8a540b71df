"""The frame codec as it was before the binary data plane: the test oracle.

``{"v": 1, "src": ..., "kind": ..., "body": base64(pickle(message))}``
as sorted-key JSON — the whole message graph pickled through a
``persistent_id`` hook on every hop.  It left ``src/`` when
:mod:`repro.runtime.asyncio_backend` went binary and lives on here, as
the thing the new codec must agree with: the same messages back from
the same messages (``test_frame_codec.py``), and the same deliveries
from whole systems run on it (``installed`` / ``worker_main``).
"""

import base64
import io
import json
import pickle
from contextlib import contextmanager

from repro.runtime import asyncio_backend, multiprocess_backend
from repro.sim.kernel import Process

FRAME_VERSION = 1


class _ProcessRefPickler(pickle.Pickler):
    def persistent_id(self, obj):
        if isinstance(obj, Process):
            return obj.name
        return None


class _ProcessRefUnpickler(pickle.Unpickler):
    def __init__(self, file, resolve):
        super().__init__(file)
        self._resolve = resolve

    def persistent_load(self, pid):
        return self._resolve(pid)


def encode_frame(src_name, message):
    buffer = io.BytesIO()
    _ProcessRefPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(message)
    return json.dumps(
        {
            "v": FRAME_VERSION,
            "src": src_name,
            "kind": type(message).__name__,
            "body": base64.b64encode(buffer.getvalue()).decode("ascii"),
        },
        sort_keys=True,
    ).encode("utf-8")


def decode_frame(payload, resolve):
    obj = json.loads(payload.decode("utf-8"))
    if obj.get("v") != FRAME_VERSION:
        raise ValueError(f"unsupported frame version {obj.get('v')!r}")
    buffer = io.BytesIO(base64.b64decode(obj["body"]))
    message = _ProcessRefUnpickler(buffer, resolve).load()
    return obj["src"], message


@contextmanager
def installed():
    """Run every transport of this process — and, through
    :func:`worker_main`, of the broker processes it spawns — on the
    reference codec.  The transport looks both functions up in its
    module's globals at call time, which is all this relies on."""
    saved = (
        asyncio_backend.encode_frame,
        asyncio_backend.decode_frame,
        multiprocess_backend._worker_main,
    )
    asyncio_backend.encode_frame = encode_frame
    asyncio_backend.decode_frame = decode_frame
    multiprocess_backend._worker_main = worker_main
    try:
        yield
    finally:
        (
            asyncio_backend.encode_frame,
            asyncio_backend.decode_frame,
            multiprocess_backend._worker_main,
        ) = saved


_real_worker_main = multiprocess_backend._worker_main


def worker_main(spec):
    """Spawn target standing in for ``_worker_main``: a broker process
    that speaks the reference codec.  ``spawn`` pickles the target by
    module and name, so the child imports this module to find it."""
    asyncio_backend.encode_frame = encode_frame
    asyncio_backend.decode_frame = decode_frame
    _real_worker_main(spec)
