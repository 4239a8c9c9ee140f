"""Build script: compiles the optional C kernel.

The package works without the extension (pure-Python kernels in
arcinvert._kernels._pyimpl); the extension only speeds up the flow/cut
kernels that dominate the exhaustive searches.  It is plain C against
the Python C API and needs no tool beyond a C compiler; when the build
fails, installation goes on without it.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "arcinvert._kernels._cimpl",
            ["src/arcinvert/_kernels/_cimpl.c"],
            optional=True,
        )
    ]
)
