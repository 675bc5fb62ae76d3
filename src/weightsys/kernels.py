"""Backend selector for the enumeration kernels.

Prefers the compiled extension (``_kernels``, built from ``_kernels.c``),
falling back to the pure Python twin (``_kernels_py``) when the extension
was not built.  Setting the environment variable ``WEIGHTSYS_PURE`` to
any non-empty value forces the fallback; ``BACKEND`` records what was
picked.  Both backends satisfy the same contract bit for bit (see
test_kernels), so nothing downstream cares which one is live.
"""

from __future__ import annotations

import os

if os.environ.get("WEIGHTSYS_PURE"):
    from . import _kernels_py as _impl
    BACKEND = "pure"
else:
    try:
        from . import _kernels as _impl  # type: ignore[attr-defined]
        BACKEND = "compiled"
    except ImportError:
        from . import _kernels_py as _impl
        BACKEND = "pure"

face_count = _impl.face_count
marking_scan = _impl.marking_scan
