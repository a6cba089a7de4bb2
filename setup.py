from setuptools import Extension, setup

# The compiled kernels are optional: when the C compiler is missing or the
# build fails, the package installs without them and wdss.kernels uses the
# pure-Python implementations in wdss._kernels_py.
setup(ext_modules=[Extension("wdss._kernels", ["src/wdss/_kernels.c"],
                             optional=True)])
