import os

from setuptools import Extension, setup

# The compiled row-reduction kernel is one hand-written C file.  It is
# optional: a failed compile only warns, and the package then runs on the
# pure-Python kernel.  Set ZAPPATIC_NO_EXT=1 to skip building it.
ext_modules = []
if os.environ.get("ZAPPATIC_NO_EXT") != "1":
    ext_modules = [
        Extension("zappatic._bareiss_c", ["src/zappatic/_bareiss_c.c"], optional=True)
    ]

setup(ext_modules=ext_modules)
