"""Build script for the optional compiled Monte-Carlo kernel.

``python setup.py build_ext --inplace`` compiles the hand-written
``src/spheredet/_mc_core.c`` next to the sources, where ``PYTHONPATH=src``
picks it up; ``pip install`` builds it the same way.  It needs a C compiler
with 128-bit integers (``__int128``, as GCC and Clang have on 64-bit
targets).  The extension is optional: where it cannot be compiled the build
goes on without it, and the package falls back to the NumPy sampler, which
returns bit-identical counts.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "spheredet._mc_core",
            ["src/spheredet/_mc_core.c"],
            # No fused multiply-add, so the float results match NumPy's.
            extra_compile_args=["-O3", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
