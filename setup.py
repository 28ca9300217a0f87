"""Setup shim for environments without the `wheel` package, and home
of the optional native-extension build.

`pip install -e .` needs `wheel` to build editable metadata; fully
offline environments may lack it.  `python setup.py develop` (or adding
`src/` to a .pth file) installs the package equivalently.

The `_native` extension (`repro.backend.native._native`) is declared
``optional``: a missing compiler turns the build step into a no-op
instead of a failed install, and the backend falls back to the python
reference loop at runtime (see `repro/backend/native/build.py`, which
can also compile the one-file extension lazily into a user cache).
Installing with the ``[native]`` extra is just the documented way of
saying "I want the compiled core loop baked into site-packages"; the
extra pulls no extra dependencies.
"""
import os

from setuptools import Extension, setup

_NATIVE_SOURCE = os.path.join("src", "repro", "backend", "native", "_native.c")

setup(
    ext_modules=[
        Extension(
            "repro.backend.native._native",
            sources=[_NATIVE_SOURCE],
            optional=True,
        )
    ]
)
