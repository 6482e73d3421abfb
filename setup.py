"""Build script for the optional compiled Monte-Carlo kernel.

``python setup.py build_ext --inplace`` compiles the hand-written
``src/spheredet/_mc_core.c`` next to the sources, where ``PYTHONPATH=src``
picks it up; ``pip install`` builds it the same way.  It needs only a C
compiler and the NumPy headers.  The extension is optional: where it cannot
be compiled the build goes on without it, and the package falls back to the
NumPy sampler, which returns bit-identical counts.
"""

import numpy
from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "spheredet._mc_core",
            ["src/spheredet/_mc_core.c"],
            include_dirs=[numpy.get_include()],
            # No fused multiply-add, so the float results match NumPy's.
            extra_compile_args=["-O3", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
