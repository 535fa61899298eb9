"""Native int8 kernels: a C requantization epilogue and depthwise conv.

The integer runtime's NumPy kernels do the exact integer accumulation
fast enough (BLAS for the GEMM convolutions), but the per-channel rescale
that follows, ``clip(rint(float64(acc + bias) * multiplier), qmin, qmax)``,
takes five full NumPy passes and a float64 temporary.  ``native.c`` does it
in one pass, and fuses it into an int8 depthwise conv with exact int32 tap
sums.  :mod:`repro.runtime.kernels` calls them from ``fused_qconv``; both
produce the NumPy reference's bits (``native.c`` says why), so the NumPy
code stays as the conformance oracle and the fallback.

The library is built on the first int8 kernel call, never at import, with
the system C compiler (``cc`` or ``gcc``)::

    cc -O3 -fPIC -shared -ffp-contract=off -march=native native.c

(``-march=native`` is dropped if the compiler rejects it; ``-ffast-math`` is
never used).  The result is cached on disk under a key covering the source,
the compiler's version, every flag and the CPU's feature flags, in
``_native_build/`` beside this file (or ``repro-native-<uid>/`` in the
temporary directory when the package directory is read-only).  It is
written under a temporary name and renamed into place, so processes
building at once never load a half-written file.  Without a compiler, or
if the build or load fails, :func:`library` logs the reason once and
returns ``None``, and the kernels run the NumPy code.  :func:`status` (as
``native_kernels`` in ``BatchedPredictor.runtime_stats()``) reports which.

Calls go through :mod:`ctypes`, which releases the GIL for each call, so
the engine's pool threads run native kernels concurrently.  Check the build
on a host with::

    python -c "from repro.runtime import native; raise SystemExit(native.main())"

which prints the library path, or the reason for the fallback and exits 1.
"""

from __future__ import annotations

import ctypes
import logging
import os
import threading
from pathlib import Path
from typing import List, Optional

import numpy as np

# hashlib, platform, shutil, subprocess and tempfile are imported where the
# library is built: float32 processes import this module but never build,
# and those imports alone cost them ~10 ms of start-up.

_log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("native.c")
BASE_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
HOST_FLAGS = ("-march=native",)

_lock = threading.Lock()
_lib: Optional[ctypes.CDLL] = None
#: ``None`` until the first :func:`library` call, then "loaded" or the
#: reason the NumPy fallback is in use.
_outcome: Optional[str] = None

_i64, _i32, _ptr = ctypes.c_int64, ctypes.c_int32, ctypes.c_void_p
_SIGNATURES = {
    "requant_f32": ([_ptr] * 4 + [_i64] * 3 + [_i32] * 2, None),
    "requant_f64": ([_ptr] * 4 + [_i64] * 3 + [_i32] * 2, None),
    "depthwise_scratch_size": ([_i64] * 7, _i64),
    "depthwise_int8": ([_ptr, _i64, _i64, _i64, _i64, _ptr] + [_i64] * 4
                       + [_ptr, _ptr] + [_i32] * 3 + [_ptr, _ptr], None),
}


def _compiler() -> Optional[str]:
    import shutil

    return shutil.which("cc") or shutil.which("gcc")


def _cpu_flags() -> str:
    """The CPU feature flags a host-tuned build depends on."""
    import platform

    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith(("flags", "Features")):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _cache_dirs() -> List[Path]:
    import tempfile

    return [Path(__file__).with_name("_native_build"),
            Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"]


def _compile(compiler: str, flags: List[str], target: Path) -> None:
    """Compile to a temporary file beside ``target``, then rename it in."""
    import subprocess
    import tempfile

    handle, partial = tempfile.mkstemp(suffix=".so.partial",
                                       dir=target.parent)
    os.close(handle)
    try:
        subprocess.run([compiler, *flags, "-o", partial, str(SOURCE)],
                       check=True, capture_output=True, text=True)
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def _build() -> Path:
    """Path of a built library for this source, compiler and host."""
    import hashlib
    import platform
    import subprocess

    compiler = _compiler()
    if compiler is None:
        raise RuntimeError("no C compiler (cc or gcc) on PATH")
    version = subprocess.run([compiler, "--version"], check=True,
                             capture_output=True, text=True).stdout
    source = SOURCE.read_bytes()
    errors = []
    for flags in (list(BASE_FLAGS + HOST_FLAGS), list(BASE_FLAGS)):
        digest = hashlib.sha256()
        for part in (source, version.encode(), " ".join(flags).encode(),
                     (_cpu_flags() if HOST_FLAGS[0] in flags
                      else platform.machine()).encode()):
            digest.update(part + b"\0")
        name = f"repro_native-{digest.hexdigest()[:20]}.so"
        for directory in _cache_dirs():
            target = directory / name
            if target.exists():
                return target
            try:
                directory.mkdir(parents=True, exist_ok=True)
                _compile(compiler, flags, target)
                return target
            except subprocess.CalledProcessError as exc:
                errors.append(f"{' '.join(flags)}: {exc.stderr.strip()}")
                break                    # the flags failed, not the directory
            except OSError as exc:
                errors.append(f"{directory}: {exc}")
    raise RuntimeError("native build failed: " + "; ".join(errors))


def _load(path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(path))
    for name, (argtypes, restype) in _SIGNATURES.items():
        function = getattr(lib, name)
        function.argtypes = argtypes
        function.restype = restype
    return lib


def library() -> Optional[ctypes.CDLL]:
    """The loaded kernel library, building it on first use; ``None`` when
    native kernels are unavailable (the reason is logged once)."""
    global _lib, _outcome
    if _outcome is not None:
        return _lib
    with _lock:
        if _outcome is None:
            try:
                _lib = _load(_build())
                _outcome = "loaded"
            except Exception as exc:     # any failure means: use NumPy
                _outcome = f"numpy fallback ({exc})"
                _log.warning("native int8 kernels unavailable, using the "
                             "NumPy kernels: %s", exc)
    return _lib


def status() -> str:
    """``"loaded"``, ``"numpy fallback (<reason>)"``, or ``"not loaded"``
    before any int8 kernel has asked for the library."""
    return _outcome if _outcome is not None else "not loaded"


def _p(array: np.ndarray) -> int:
    return array.ctypes.data


def requantize(lib: ctypes.CDLL, acc: np.ndarray, bias: np.ndarray,
               multiplier: np.ndarray, qmin: int, qmax: int,
               out: np.ndarray) -> np.ndarray:
    """``out = clip(rint(float64(acc + bias) * multiplier), qmin, qmax)``.

    ``acc`` is a C-contiguous ``(n, c, spatial)`` float32 or float64
    accumulator, ``bias`` the ``(c,)`` integer bias (added in ``acc``'s
    dtype, as NumPy's in-place add does), ``multiplier`` ``(c,)`` float64,
    ``out`` a C-contiguous int8 array of ``acc``'s shape.
    """
    n, c, spatial = acc.shape
    kernel = lib.requant_f32 if acc.dtype == np.float32 else lib.requant_f64
    bias = bias.astype(acc.dtype)
    multiplier = np.ascontiguousarray(multiplier, dtype=np.float64)
    kernel(_p(acc), _p(bias), _p(multiplier), _p(out), n, c, spatial,
           qmin, qmax)
    return out


def depthwise_qconv(lib: ctypes.CDLL, q: np.ndarray, weight_q: np.ndarray,
                    bias_q: np.ndarray, multiplier: np.ndarray, stride: int,
                    padding: int, qmin: int, qmax: int, acc_f32: bool,
                    out: np.ndarray, cache=None) -> np.ndarray:
    """Int8 depthwise conv plus requantization epilogue, into ``out``.

    ``q`` is ``(n, c, h, w)`` int8, ``weight_q`` ``(c, 1, kh, kw)`` int8,
    ``bias_q`` ``(c,)`` int32, ``out`` a C-contiguous int8 array of the
    output shape.  ``acc_f32`` names the accumulator dtype the NumPy
    reference adds the bias in.  The kernel's scratch is one int32 buffer
    from ``cache`` (a :class:`~repro.runtime.kernels.BufferCache`), so it
    counts against the engine's ``cache_budget``.
    """
    n, c, h, w = q.shape
    kh, kw = weight_q.shape[2], weight_q.shape[3]
    q = np.ascontiguousarray(q)
    weight_q = np.ascontiguousarray(weight_q)
    bias_q = np.ascontiguousarray(bias_q, dtype=np.int32)
    multiplier = np.ascontiguousarray(multiplier, dtype=np.float64)
    size = (lib.depthwise_scratch_size(c, h, w, kh, kw, stride,
                                      padding),)
    scratch = cache.get("ndw", size, np.int32) if cache is not None \
        else np.empty(size, dtype=np.int32)
    lib.depthwise_int8(_p(q), n, c, h, w, _p(weight_q), kh, kw, stride,
                       padding, _p(bias_q), _p(multiplier), int(acc_f32),
                       qmin, qmax, _p(out), _p(scratch))
    return out


def main() -> int:
    """Build and load the library; print where it is or why it is not."""
    lib = library()
    print(f"native_kernels: {status()}")
    if lib is None:
        return 1
    print(f"library: {lib._name}")
    return 0
