from setuptools import Extension, setup

# optional=True: without a working C compiler the build only warns, and
# weightsys.kernels falls back to the pure-Python twin at import time.
setup(ext_modules=[Extension("weightsys._kernels",
                             ["src/weightsys/_kernels.c"], optional=True)])
